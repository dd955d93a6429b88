//! A uniform-grid spatial index over circle centres.
//!
//! Used for O(1) neighbour queries by the overlap prior (which circles can
//! a moved circle interact with?) and by the merge move (which pairs are
//! close enough to merge?).

use pmcmc_imaging::{Circle, Rect};

/// Spatial hash grid mapping cells to circle indices.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    /// Global coordinates of the grid's origin (cell `(0, 0)`'s corner).
    x0: f64,
    y0: f64,
    cell: f64,
    cols: usize,
    rows: usize,
    /// The first `cols · rows` are the grid's cells; any beyond them are
    /// empty and only keep their storage for a later [`SpatialGrid::reset`].
    cells: Vec<Vec<u32>>,
}

/// Two grids are equal when they cover the same cells with the same ids in
/// the same order; spare cells and capacities do not count.
impl PartialEq for SpatialGrid {
    fn eq(&self, other: &Self) -> bool {
        (self.x0, self.y0, self.cell, self.cols, self.rows)
            == (other.x0, other.y0, other.cell, other.cols, other.rows)
            && self.used() == other.used()
    }
}

impl SpatialGrid {
    /// Creates a grid over a `width × height` image with the given cell
    /// size (typically `2 · r_max` so overlap partners are always within
    /// one cell ring).
    #[must_use]
    pub fn new(width: u32, height: u32, cell: f64) -> Self {
        Self::over(Rect::of_image(width, height), cell)
    }

    /// Creates a grid over `rect` (global image coordinates): a partition
    /// tile indexes its own rectangle, not the whole image. Points outside
    /// `rect` clamp to the border cells.
    #[must_use]
    pub fn over(rect: Rect, cell: f64) -> Self {
        let mut grid = Self {
            x0: 0.0,
            y0: 0.0,
            cell: 1.0,
            cols: 0,
            rows: 0,
            cells: Vec::new(),
        };
        grid.reset(rect, cell);
        grid
    }

    /// Empties the grid and makes it [`SpatialGrid::over`] `rect`, keeping
    /// the storage of its cells: a tile rebuilt every phase stops
    /// allocating once its cells have grown to the tile's population.
    pub fn reset(&mut self, rect: Rect, cell: f64) {
        let cell = cell.max(1.0);
        // Spare cells past the used ones are empty already.
        let used = self.cols * self.rows;
        self.cells[..used].iter_mut().for_each(Vec::clear);
        self.x0 = rect.x0 as f64;
        self.y0 = rect.y0 as f64;
        self.cell = cell;
        self.cols = (rect.width().max(0) as f64 / cell).ceil().max(1.0) as usize;
        self.rows = (rect.height().max(0) as f64 / cell).ceil().max(1.0) as usize;
        let n = self.cols * self.rows;
        if self.cells.len() < n {
            self.cells.resize_with(n, Vec::new);
        }
    }

    /// The grid's cells, row-major.
    fn used(&self) -> &[Vec<u32>] {
        &self.cells[..self.cols * self.rows]
    }

    /// Clamped `(column, row)` of the cell holding `(x, y)`.
    fn cell_coords(&self, x: f64, y: f64) -> (isize, isize) {
        (
            (((x - self.x0) / self.cell) as isize).clamp(0, self.cols as isize - 1),
            (((y - self.y0) / self.cell) as isize).clamp(0, self.rows as isize - 1),
        )
    }

    fn cell_of(&self, x: f64, y: f64) -> usize {
        let (cx, cy) = self.cell_coords(x, y);
        cy as usize * self.cols + cx as usize
    }

    /// Inserts circle `id` at its centre cell.
    pub fn insert(&mut self, id: usize, c: &Circle) {
        let cell = self.cell_of(c.x, c.y);
        self.cells[cell].push(id as u32);
    }

    /// Removes circle `id` (must have been inserted with the same centre).
    ///
    /// # Panics
    /// Panics if the id is not present in the expected cell.
    pub fn remove(&mut self, id: usize, c: &Circle) {
        let cell = self.cell_of(c.x, c.y);
        let v = &mut self.cells[cell];
        let pos = v
            .iter()
            .position(|&e| e as usize == id)
            .expect("circle not present in its cell");
        v.swap_remove(pos);
    }

    /// Re-registers a circle after `id` moved from `old` to `new`.
    pub fn relocate(&mut self, id: usize, old: &Circle, new: &Circle) {
        let a = self.cell_of(old.x, old.y);
        let b = self.cell_of(new.x, new.y);
        if a != b {
            let pos = self.cells[a]
                .iter()
                .position(|&e| e as usize == id)
                .expect("circle not present in its cell");
            self.cells[a].swap_remove(pos);
            self.cells[b].push(id as u32);
        }
    }

    /// Renames an id in place (after a `swap_remove` in the owning vector).
    pub fn rename(&mut self, old_id: usize, new_id: usize, c: &Circle) {
        let cell = self.cell_of(c.x, c.y);
        let v = &mut self.cells[cell];
        let pos = v
            .iter()
            .position(|&e| e as usize == old_id)
            .expect("circle not present in its cell");
        v[pos] = new_id as u32;
    }

    /// Calls `f(id)` for every circle indexed in a cell that the box
    /// `[x − reach, x + reach] × [y − reach, y + reach]` touches, row of
    /// cells by row of cells. Conservative: every circle whose centre is
    /// within Euclidean distance `reach` is visited (its cell coordinates
    /// lie between the box corners' — the map from a coordinate to its cell
    /// is monotone, and clamps queries exactly as it clamps insertions),
    /// some farther ones may be too, and callers filter precisely. With
    /// `cell ≥ reach` that is at most 3 × 3 cells, usually 2 × 2.
    pub fn for_neighbors(&self, x: f64, y: f64, reach: f64, mut f: impl FnMut(usize)) {
        let (cx0, cy0) = self.cell_coords(x - reach, y - reach);
        let (cx1, cy1) = self.cell_coords(x + reach, y + reach);
        for gy in cy0..=cy1 {
            for gx in cx0..=cx1 {
                for &id in &self.cells[gy as usize * self.cols + gx as usize] {
                    f(id as usize);
                }
            }
        }
    }

    /// The ring-based walk [`Self::for_neighbors`] replaced: `ceil(reach /
    /// cell) + 1` rings around the query's cell (always 5 × 5 at
    /// `reach ≤ cell`). Kept as the oracle for the visiting order.
    #[cfg(test)]
    fn for_neighbors_rings(&self, x: f64, y: f64, reach: f64, mut f: impl FnMut(usize)) {
        let span = (reach / self.cell).ceil() as isize + 1;
        let (cx, cy) = self.cell_coords(x, y);
        for gy in (cy - span).max(0)..=(cy + span).min(self.rows as isize - 1) {
            for gx in (cx - span).max(0)..=(cx + span).min(self.cols as isize - 1) {
                for &id in &self.cells[gy as usize * self.cols + gx as usize] {
                    f(id as usize);
                }
            }
        }
    }

    /// Number of indexed circles (for integrity checks).
    #[must_use]
    pub fn len(&self) -> usize {
        self.used().iter().map(Vec::len).sum()
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn collect_neighbors(g: &SpatialGrid, x: f64, y: f64, reach: f64) -> Vec<usize> {
        let mut v = Vec::new();
        g.for_neighbors(x, y, reach, |id| v.push(id));
        v.sort_unstable();
        v
    }

    #[test]
    fn insert_query_remove() {
        let mut g = SpatialGrid::new(100, 100, 10.0);
        let c0 = Circle::new(15.0, 15.0, 5.0);
        let c1 = Circle::new(85.0, 85.0, 5.0);
        g.insert(0, &c0);
        g.insert(1, &c1);
        assert_eq!(g.len(), 2);
        let near = collect_neighbors(&g, 16.0, 14.0, 5.0);
        assert!(near.contains(&0));
        assert!(!near.contains(&1));
        g.remove(0, &c0);
        assert_eq!(g.len(), 1);
        assert!(collect_neighbors(&g, 16.0, 14.0, 5.0).is_empty());
    }

    proptest! {
        /// The exact cell range misses no centre within `reach` — on
        /// offset rects, for centres and queries clamped from outside the
        /// grid, for any `reach` — and visits a subsequence of what the
        /// ring walk visited, so sums and lists built from it keep their
        /// order.
        #[test]
        fn neighbors_cover_reach_in_ring_order(
            origin in (-50i64..200, -50i64..200),
            size in (1i64..300, 1i64..300),
            cell in 1.0f64..40.0,
            centres in prop::collection::vec((-30.0f64..330.0, -30.0f64..330.0), 0..80),
            queries in prop::collection::vec(
                (-40.0f64..340.0, -40.0f64..340.0, 0.0f64..90.0),
                1..12,
            ),
        ) {
            let ((ox, oy), (w, h)) = (origin, size);
            let mut g = SpatialGrid::over(Rect::new(ox, oy, ox + w, oy + h), cell);
            let centres: Vec<Circle> = centres
                .iter()
                .map(|&(x, y)| Circle::new(ox as f64 + x, oy as f64 + y, 1.0))
                .collect();
            for (i, c) in centres.iter().enumerate() {
                g.insert(i, c);
            }
            for (qx, qy, reach) in queries {
                let (qx, qy) = (ox as f64 + qx, oy as f64 + qy);
                let mut visited = Vec::new();
                g.for_neighbors(qx, qy, reach, |id| visited.push(id));
                let mut rings = Vec::new();
                g.for_neighbors_rings(qx, qy, reach, |id| rings.push(id));
                let q = Circle::new(qx, qy, 1.0);
                for (i, c) in centres.iter().enumerate() {
                    prop_assert!(
                        q.centre_distance(c) > reach || visited.contains(&i),
                        "missed centre {:?} within {} of ({}, {})", c, reach, qx, qy
                    );
                }
                let mut rest = rings.iter();
                for id in &visited {
                    prop_assert!(
                        rest.any(|r| r == id),
                        "{:?} is not a subsequence of {:?}", visited, rings
                    );
                }
            }
        }
    }

    #[test]
    fn relocate_moves_between_cells() {
        let mut g = SpatialGrid::new(100, 100, 10.0);
        let old = Circle::new(5.0, 5.0, 3.0);
        let new = Circle::new(95.0, 95.0, 3.0);
        g.insert(0, &old);
        g.relocate(0, &old, &new);
        assert!(collect_neighbors(&g, 95.0, 95.0, 3.0).contains(&0));
        assert!(collect_neighbors(&g, 5.0, 5.0, 3.0).is_empty());
    }

    #[test]
    fn relocate_within_cell_is_noop() {
        let mut g = SpatialGrid::new(100, 100, 10.0);
        let old = Circle::new(5.0, 5.0, 3.0);
        let new = Circle::new(6.0, 6.0, 3.0);
        g.insert(0, &old);
        g.relocate(0, &old, &new);
        assert_eq!(g.len(), 1);
        assert!(collect_neighbors(&g, 6.0, 6.0, 2.0).contains(&0));
    }

    #[test]
    fn rename_keeps_position() {
        let mut g = SpatialGrid::new(50, 50, 10.0);
        let c = Circle::new(25.0, 25.0, 4.0);
        g.insert(7, &c);
        g.rename(7, 3, &c);
        assert_eq!(collect_neighbors(&g, 25.0, 25.0, 2.0), vec![3]);
    }

    #[test]
    fn grid_over_an_offset_rect_indexes_global_coordinates() {
        // A 40×40 tile at (100, 60): 4×4 cells instead of the image's.
        let mut g = SpatialGrid::over(Rect::new(100, 60, 140, 100), 10.0);
        assert_eq!((g.cols, g.rows), (4, 4));
        let a = Circle::new(103.0, 64.0, 3.0);
        let b = Circle::new(136.0, 97.0, 3.0);
        g.insert(0, &a);
        g.insert(1, &b);
        assert_eq!(collect_neighbors(&g, 104.0, 63.0, 3.0), vec![0]);
        assert_eq!(collect_neighbors(&g, 135.0, 95.0, 3.0), vec![1]);
        g.relocate(0, &a, &Circle::new(135.0, 96.0, 3.0));
        assert_eq!(collect_neighbors(&g, 135.0, 95.0, 3.0), vec![0, 1]);
    }

    #[test]
    fn a_reset_grid_is_a_fresh_one() {
        let circles: Vec<Circle> = (0..40)
            .map(|i| Circle::new(f64::from(i * 7 % 90), f64::from(i * 13 % 70), 3.0))
            .collect();
        let mut g = SpatialGrid::new(100, 100, 10.0);
        for rect in [
            Rect::new(0, 0, 100, 100),
            Rect::new(20, 10, 45, 60),
            Rect::new(5, 5, 95, 80),
        ] {
            g.reset(rect, 10.0);
            let mut fresh = SpatialGrid::over(rect, 10.0);
            for (i, c) in circles.iter().enumerate() {
                g.insert(i, c);
                fresh.insert(i, c);
            }
            assert!(g == fresh, "{rect:?}");
            assert_eq!(g.len(), circles.len());
            assert_eq!(collect_neighbors(&g, 30.0, 30.0, 8.0), {
                collect_neighbors(&fresh, 30.0, 30.0, 8.0)
            });
        }
    }

    #[test]
    fn centres_outside_bounds_are_clamped() {
        let mut g = SpatialGrid::new(50, 50, 10.0);
        let c = Circle::new(-3.0, 60.0, 4.0);
        g.insert(0, &c);
        // Query near the clamp target finds it.
        assert!(collect_neighbors(&g, 0.0, 49.0, 15.0).contains(&0));
        g.remove(0, &c);
        assert!(g.is_empty());
    }
}
