//! Planar geometry primitives shared by the model and the partitioners.
//!
//! All partitioning schemes in the paper reason about axis-aligned
//! rectangles (image tiles) and circles (the artifacts being detected), so
//! these types live in the imaging substrate where both the image code and
//! the MCMC code can use them.

/// An axis-aligned rectangle with half-open pixel bounds
/// `[x0, x1) × [y0, y1)`.
///
/// Coordinates are `i64` so that grid tiles with random offsets may begin
/// outside the image and be clipped afterwards (the paper re-draws the grid
/// offset uniformly in `[0, xm) × [0, ym)` every local phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Inclusive left edge.
    pub x0: i64,
    /// Inclusive top edge.
    pub y0: i64,
    /// Exclusive right edge.
    pub x1: i64,
    /// Exclusive bottom edge.
    pub y1: i64,
}

impl Rect {
    /// Creates a rectangle from half-open bounds. Empty rectangles
    /// (`x1 <= x0` or `y1 <= y0`) are permitted and have zero area.
    #[must_use]
    pub const fn new(x0: i64, y0: i64, x1: i64, y1: i64) -> Self {
        Self { x0, y0, x1, y1 }
    }

    /// Rectangle covering an entire `width × height` image.
    #[must_use]
    pub const fn of_image(width: u32, height: u32) -> Self {
        Self::new(0, 0, width as i64, height as i64)
    }

    /// Width in pixels (zero if empty).
    #[must_use]
    pub const fn width(&self) -> i64 {
        if self.x1 > self.x0 {
            self.x1 - self.x0
        } else {
            0
        }
    }

    /// Height in pixels (zero if empty).
    #[must_use]
    pub const fn height(&self) -> i64 {
        if self.y1 > self.y0 {
            self.y1 - self.y0
        } else {
            0
        }
    }

    /// Pixel area.
    #[must_use]
    pub const fn area(&self) -> i64 {
        self.width() * self.height()
    }

    /// True when the rectangle contains no pixels.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.x1 <= self.x0 || self.y1 <= self.y0
    }

    /// Whether the integer pixel `(x, y)` lies inside.
    #[must_use]
    pub const fn contains(&self, x: i64, y: i64) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }

    /// Whether the continuous point `(x, y)` lies inside (treating the
    /// rectangle as the real region `[x0, x1) × [y0, y1)`).
    #[must_use]
    pub fn contains_point(&self, x: f64, y: f64) -> bool {
        x >= self.x0 as f64 && x < self.x1 as f64 && y >= self.y0 as f64 && y < self.y1 as f64
    }

    /// Intersection with another rectangle (possibly empty).
    #[must_use]
    pub fn intersect(&self, other: &Rect) -> Rect {
        Rect::new(
            self.x0.max(other.x0),
            self.y0.max(other.y0),
            self.x1.min(other.x1),
            self.y1.min(other.y1),
        )
    }

    /// Whether two rectangles share at least one pixel.
    #[must_use]
    pub fn intersects(&self, other: &Rect) -> bool {
        !self.intersect(other).is_empty()
    }

    /// Grows the rectangle by `margin` pixels on every side.
    #[must_use]
    pub const fn inflate(&self, margin: i64) -> Rect {
        Rect::new(
            self.x0 - margin,
            self.y0 - margin,
            self.x1 + margin,
            self.y1 + margin,
        )
    }

    /// Whether the closed disk of `circle`, inflated by `margin`, lies
    /// strictly inside the rectangle. This is the paper's safeguard test: a
    /// feature may only be modified when its full prior/likelihood
    /// "considered area" avoids the partition boundary.
    #[must_use]
    pub fn contains_circle(&self, circle: &Circle, margin: f64) -> bool {
        let r = circle.r + margin;
        circle.x - r >= self.x0 as f64
            && circle.x + r <= self.x1 as f64
            && circle.y - r >= self.y0 as f64
            && circle.y + r <= self.y1 as f64
    }

    /// Whether the disk of `circle` (inflated by `margin`) overlaps the
    /// rectangle at all.
    #[must_use]
    pub fn intersects_circle(&self, circle: &Circle, margin: f64) -> bool {
        let r = circle.r + margin;
        // Closest point on the rect to the circle centre.
        let cx = circle.x.clamp(self.x0 as f64, self.x1 as f64);
        let cy = circle.y.clamp(self.y0 as f64, self.y1 as f64);
        let dx = circle.x - cx;
        let dy = circle.y - cy;
        dx * dx + dy * dy <= r * r
    }

    /// Iterates the integer pixels inside the rectangle clipped to
    /// `frame`, in row-major order.
    pub fn pixels_clipped(&self, frame: &Rect) -> impl Iterator<Item = (i64, i64)> {
        let c = self.intersect(frame);
        (c.y0..c.y1).flat_map(move |y| (c.x0..c.x1).map(move |x| (x, y)))
    }
}

/// A circular artifact: the model element of the case study (a stained cell
/// nucleus abstracted as a circle of high intensity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Centre x coordinate (pixels, continuous).
    pub x: f64,
    /// Centre y coordinate (pixels, continuous).
    pub y: f64,
    /// Radius (pixels, continuous, strictly positive).
    pub r: f64,
}

impl Circle {
    /// Creates a circle.
    #[must_use]
    pub const fn new(x: f64, y: f64, r: f64) -> Self {
        Self { x, y, r }
    }

    /// Euclidean distance between two circle centres.
    #[must_use]
    pub fn centre_distance(&self, other: &Circle) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Whether two circles' disks overlap.
    #[must_use]
    pub fn overlaps(&self, other: &Circle) -> bool {
        self.centre_distance(other) < self.r + other.r
    }

    /// Area of the disk.
    #[must_use]
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.r * self.r
    }

    /// Exact area of intersection of two disks (lens area), `0` when
    /// disjoint and the smaller disk's area when fully contained.
    ///
    /// Used by the prior's pairwise overlap penalty.
    #[must_use]
    pub fn intersection_area(&self, other: &Circle) -> f64 {
        let d = self.centre_distance(other);
        let (r1, r2) = (self.r, other.r);
        if d >= r1 + r2 {
            return 0.0;
        }
        if d <= (r1 - r2).abs() {
            let rm = r1.min(r2);
            return std::f64::consts::PI * rm * rm;
        }
        // Standard circular-lens formula.
        let d2 = d * d;
        let a1 = ((d2 + r1 * r1 - r2 * r2) / (2.0 * d * r1)).clamp(-1.0, 1.0);
        let a2 = ((d2 + r2 * r2 - r1 * r1) / (2.0 * d * r2)).clamp(-1.0, 1.0);
        let t1 = r1 * r1 * a1.acos();
        let t2 = r2 * r2 * a2.acos();
        let t3 = 0.5
            * ((-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2))
                .max(0.0)
                .sqrt();
        (t1 + t2 - t3).max(0.0)
    }

    /// Integer bounding box of the disk inflated by `margin`, suitable for
    /// pixel iteration (half-open).
    #[must_use]
    pub fn bounding_box(&self, margin: f64) -> Rect {
        let r = self.r + margin;
        Rect::new(
            (self.x - r).floor() as i64,
            (self.y - r).floor() as i64,
            (self.x + r).ceil() as i64 + 1,
            (self.y + r).ceil() as i64 + 1,
        )
    }

    /// Whether the pixel centre `(px + 0.5, py + 0.5)` lies inside the disk.
    #[must_use]
    pub fn covers_pixel(&self, px: i64, py: i64) -> bool {
        let dx = px as f64 + 0.5 - self.x;
        let dy = py as f64 + 0.5 - self.y;
        dx * dx + dy * dy <= self.r * self.r
    }
}

/// A uniform partition grid with spacing `(xm, ym)` and a per-phase random
/// offset `(ox, oy) ∈ [0, xm) × [0, ym)`, as described in §V of the paper.
///
/// The grid lines sit at `x = ox + k·xm` and `y = oy + k·ym` for all integers
/// `k`; tiles are clipped to the image frame, and empty tiles are dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionGrid {
    /// Grid spacing along x (pixels, ≥ 1).
    pub xm: i64,
    /// Grid spacing along y (pixels, ≥ 1).
    pub ym: i64,
    /// Offset of the grid origin along x, in `[0, xm)`.
    pub ox: i64,
    /// Offset of the grid origin along y, in `[0, ym)`.
    pub oy: i64,
}

impl PartitionGrid {
    /// Creates a grid; offsets are reduced modulo the spacing.
    ///
    /// # Panics
    /// Panics if either spacing is < 1.
    #[must_use]
    pub fn new(xm: i64, ym: i64, ox: i64, oy: i64) -> Self {
        assert!(xm >= 1 && ym >= 1, "grid spacing must be at least 1 pixel");
        Self {
            xm,
            ym,
            ox: ox.rem_euclid(xm),
            oy: oy.rem_euclid(ym),
        }
    }

    /// Enumerates the non-empty tiles covering a `width × height` image,
    /// in row-major order.
    #[must_use]
    pub fn tiles(&self, width: u32, height: u32) -> Vec<Rect> {
        let frame = Rect::of_image(width, height);
        let mut out = Vec::new();
        // First grid line at or left of 0 is ox - xm (when ox > 0) or 0.
        let start_x = if self.ox == 0 { 0 } else { self.ox - self.xm };
        let start_y = if self.oy == 0 { 0 } else { self.oy - self.ym };
        let mut y = start_y;
        while y < height as i64 {
            let mut x = start_x;
            while x < width as i64 {
                let tile = Rect::new(x, y, x + self.xm, y + self.ym).intersect(&frame);
                if !tile.is_empty() {
                    out.push(tile);
                }
                x += self.xm;
            }
            y += self.ym;
        }
        out
    }

    /// Index (into [`PartitionGrid::tiles`]' output for the same image) of
    /// the tile containing the continuous point `(x, y)`, or `None` when the
    /// point is outside the image.
    #[must_use]
    pub fn tile_of(&self, x: f64, y: f64, width: u32, height: u32) -> Option<usize> {
        if x < 0.0 || y < 0.0 || x >= f64::from(width) || y >= f64::from(height) {
            return None;
        }
        let col_of = |v: f64, o: i64, m: i64| -> i64 {
            // Column index relative to the first (possibly clipped) tile.
            if o == 0 {
                (v as i64) / m
            } else {
                ((v as i64 - (o - m)).max(0)) / m
            }
        };
        let col = col_of(x, self.ox, self.xm);
        let row = col_of(y, self.oy, self.ym);
        let ncols = {
            let start = if self.ox == 0 { 0 } else { self.ox - self.xm };
            let mut n = 0i64;
            let mut xx = start;
            while xx < i64::from(width) {
                n += 1;
                xx += self.xm;
            }
            n
        };
        Some((row * ncols + col) as usize)
    }
}

/// Splits the image into `cols × rows` equal tiles (the "simple quartering"
/// used by blind partitioning and by the single-coordinate periodic split of
/// §VII when `cols = rows = 2`).
#[must_use]
pub fn regular_tiles(width: u32, height: u32, cols: u32, rows: u32) -> Vec<Rect> {
    assert!(cols >= 1 && rows >= 1, "need at least one tile");
    let mut out = Vec::with_capacity((cols * rows) as usize);
    for r in 0..rows {
        for c in 0..cols {
            let x0 = i64::from(c) * i64::from(width) / i64::from(cols);
            let x1 = (i64::from(c) + 1) * i64::from(width) / i64::from(cols);
            let y0 = i64::from(r) * i64::from(height) / i64::from(rows);
            let y1 = (i64::from(r) + 1) * i64::from(height) / i64::from(rows);
            out.push(Rect::new(x0, y0, x1, y1));
        }
    }
    out
}

/// Splits the image into four rectangles that meet at the single interior
/// point `(cx, cy)` — the §VII scheme: "four rectangular partitions using a
/// single coordinate where all partitions meet".
#[must_use]
pub fn corner_tiles(width: u32, height: u32, cx: i64, cy: i64) -> [Rect; 4] {
    let (w, h) = (i64::from(width), i64::from(height));
    let cx = cx.clamp(0, w);
    let cy = cy.clamp(0, h);
    [
        Rect::new(0, 0, cx, cy),
        Rect::new(cx, 0, w, cy),
        Rect::new(0, cy, cx, h),
        Rect::new(cx, cy, w, h),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_basic_accessors() {
        let r = Rect::new(1, 2, 5, 7);
        assert_eq!(r.width(), 4);
        assert_eq!(r.height(), 5);
        assert_eq!(r.area(), 20);
        assert!(!r.is_empty());
        assert!(r.contains(1, 2));
        assert!(r.contains(4, 6));
        assert!(!r.contains(5, 2));
        assert!(!r.contains(1, 7));
    }

    #[test]
    fn rect_empty_has_zero_dims() {
        let r = Rect::new(5, 5, 3, 9);
        assert!(r.is_empty());
        assert_eq!(r.width(), 0);
        assert_eq!(r.area(), 0);
    }

    #[test]
    fn rect_intersection() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 15, 15);
        assert_eq!(a.intersect(&b), Rect::new(5, 5, 10, 10));
        assert!(a.intersects(&b));
        let c = Rect::new(10, 0, 20, 10);
        assert!(!a.intersects(&c), "touching edges share no pixel");
    }

    #[test]
    fn rect_contains_circle_respects_margin() {
        let r = Rect::new(0, 0, 100, 100);
        let c = Circle::new(50.0, 50.0, 10.0);
        assert!(r.contains_circle(&c, 0.0));
        assert!(r.contains_circle(&c, 39.9));
        assert!(!r.contains_circle(&c, 40.1));
        let edge = Circle::new(5.0, 50.0, 10.0);
        assert!(!r.contains_circle(&edge, 0.0));
    }

    #[test]
    fn rect_intersects_circle() {
        let r = Rect::new(0, 0, 10, 10);
        assert!(r.intersects_circle(&Circle::new(-2.0, 5.0, 3.0), 0.0));
        assert!(!r.intersects_circle(&Circle::new(-5.0, 5.0, 3.0), 0.0));
        // Corner case: circle near a corner reaches only diagonally.
        assert!(r.intersects_circle(&Circle::new(12.0, 12.0, 3.0), 0.0));
        assert!(!r.intersects_circle(&Circle::new(13.0, 13.0, 3.0), 0.0));
    }

    #[test]
    fn circle_distance_and_overlap() {
        let a = Circle::new(0.0, 0.0, 5.0);
        let b = Circle::new(8.0, 0.0, 4.0);
        assert!((a.centre_distance(&b) - 8.0).abs() < 1e-12);
        assert!(a.overlaps(&b));
        let c = Circle::new(10.0, 0.0, 4.0);
        assert!(!a.overlaps(&c), "tangent circles do not overlap");
    }

    #[test]
    fn lens_area_disjoint_is_zero() {
        let a = Circle::new(0.0, 0.0, 2.0);
        let b = Circle::new(10.0, 0.0, 2.0);
        assert_eq!(a.intersection_area(&b), 0.0);
    }

    #[test]
    fn lens_area_contained_is_smaller_disk() {
        let a = Circle::new(0.0, 0.0, 5.0);
        let b = Circle::new(1.0, 0.0, 2.0);
        let expect = std::f64::consts::PI * 4.0;
        assert!((a.intersection_area(&b) - expect).abs() < 1e-9);
        assert!((b.intersection_area(&a) - expect).abs() < 1e-9);
    }

    #[test]
    fn lens_area_identical_is_full_disk() {
        let a = Circle::new(3.0, 4.0, 2.5);
        let expect = a.area();
        assert!((a.intersection_area(&a) - expect).abs() < 1e-9);
    }

    #[test]
    fn lens_area_half_overlap_symmetric() {
        let a = Circle::new(0.0, 0.0, 3.0);
        let b = Circle::new(3.0, 0.0, 3.0);
        let ab = a.intersection_area(&b);
        let ba = b.intersection_area(&a);
        assert!((ab - ba).abs() < 1e-12);
        assert!(ab > 0.0 && ab < a.area());
        // Known value: two unit-distance-r circles at distance r overlap in
        // 2r²·(π/3 − √3/4).
        let expect = 2.0 * 9.0 * (std::f64::consts::PI / 3.0 - 3f64.sqrt() / 4.0);
        assert!((ab - expect).abs() < 1e-9, "{ab} vs {expect}");
    }

    #[test]
    fn bounding_box_covers_disk() {
        let c = Circle::new(10.3, 20.7, 4.2);
        let bb = c.bounding_box(0.0);
        for (x, y) in bb.pixels_clipped(&Rect::new(-100, -100, 100, 100)) {
            let _ = c.covers_pixel(x, y); // must not panic
        }
        // All covered pixels are inside the box.
        for y in -100..100 {
            for x in -100..100 {
                if c.covers_pixel(x, y) {
                    assert!(bb.contains(x, y), "pixel ({x},{y}) outside bbox");
                }
            }
        }
    }

    #[test]
    fn grid_tiles_cover_image_exactly() {
        let g = PartitionGrid::new(40, 30, 13, 7);
        let tiles = g.tiles(100, 90);
        let total: i64 = tiles.iter().map(Rect::area).sum();
        assert_eq!(total, 100 * 90, "tiles must tile the image");
        // No two tiles overlap.
        for (i, a) in tiles.iter().enumerate() {
            for b in tiles.iter().skip(i + 1) {
                assert!(!a.intersects(b), "{a:?} overlaps {b:?}");
            }
        }
    }

    #[test]
    fn grid_zero_offset_tiles_align() {
        let g = PartitionGrid::new(50, 50, 0, 0);
        let tiles = g.tiles(100, 100);
        assert_eq!(tiles.len(), 4);
        assert_eq!(tiles[0], Rect::new(0, 0, 50, 50));
        assert_eq!(tiles[3], Rect::new(50, 50, 100, 100));
    }

    #[test]
    fn grid_tile_of_matches_enumeration() {
        let g = PartitionGrid::new(37, 23, 11, 5);
        let (w, h) = (128u32, 96u32);
        let tiles = g.tiles(w, h);
        for &(x, y) in &[
            (0.0, 0.0),
            (10.9, 4.9),
            (11.0, 5.0),
            (127.9, 95.9),
            (64.0, 48.0),
        ] {
            let idx = g.tile_of(x, y, w, h).expect("inside image");
            assert!(
                tiles[idx].contains_point(x, y),
                "point ({x},{y}) not in claimed tile {:?}",
                tiles[idx]
            );
        }
        assert_eq!(g.tile_of(-1.0, 0.0, w, h), None);
        assert_eq!(g.tile_of(0.0, 96.0, w, h), None);
    }

    #[test]
    fn grid_offset_reduced_modulo_spacing() {
        let g = PartitionGrid::new(10, 10, 25, -3);
        assert_eq!(g.ox, 5);
        assert_eq!(g.oy, 7);
    }

    #[test]
    fn regular_tiles_partition_area() {
        let tiles = regular_tiles(101, 67, 3, 2);
        assert_eq!(tiles.len(), 6);
        let total: i64 = tiles.iter().map(Rect::area).sum();
        assert_eq!(total, 101 * 67);
    }

    #[test]
    fn corner_tiles_meet_at_point() {
        let t = corner_tiles(100, 80, 30, 50);
        let total: i64 = t.iter().map(Rect::area).sum();
        assert_eq!(total, 100 * 80);
        assert_eq!(t[0], Rect::new(0, 0, 30, 50));
        assert_eq!(t[3], Rect::new(30, 50, 100, 80));
    }

    #[test]
    fn corner_tiles_degenerate_corner() {
        // Corner on the image edge: two tiles empty, area still conserved.
        let t = corner_tiles(100, 80, 0, 40);
        let total: i64 = t.iter().map(Rect::area).sum();
        assert_eq!(total, 100 * 80);
        assert!(t[0].is_empty());
    }
}
