//! A disk's row spans, computed once and walked many times.
//!
//! [`crate::coverage::disk_row_span`] defines which pixels of a row a disk
//! covers; a [`SpanTable`] is that function tabulated over the disk's rows,
//! four rows per step on the AVX2 backend ([`crate::simd::disk_spans`]). The
//! read-only evaluator fills one per disk and evaluation — live circles keep
//! theirs from the edit that created them — so its row loops do no
//! arithmetic on circles at all.
//!
//! **Invariant:** row `y0 + k` of a held table is exactly
//! `disk_row_span(circle, r², y0 + k, rect)`, every row of the table is
//! non-empty, and every row outside it is empty. A disk's non-empty rows
//! are contiguous (the chord grows towards the centre row and the rounding
//! is monotone), which the fill checks rather than assumes.

use crate::coverage::disk_row_range;
use pmcmc_imaging::{Circle, Rect};

/// Rows a table holds. A disk that fits has at most as many pixels per row,
/// so each of its row segments lies inside one 64-bit window of an
/// occupancy row.
pub(crate) const SPAN_ROWS: usize = 48;

/// Largest radius a table holds: `2r + 1 ≤ SPAN_ROWS` rows and pixels a row.
const MAX_RADIUS: f64 = (SPAN_ROWS - 1) as f64 / 2.0;

/// Coordinates (of the centre and of the clip rectangle) up to which every
/// intermediate of the span arithmetic is an exact `i32`.
const MAX_COORD: i64 = 1 << 30;

/// The clipped row spans of one disk: pixels `x0s()[k]..=x1s()[k]` of row
/// `y0() + k`, for `k < len()`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanTable {
    y0: i32,
    /// Index of row `y0` in the arrays (the fill writes from the disk's
    /// first clipped row; leading empty rows are skipped, not shifted out).
    first: u8,
    len: u8,
    held: bool,
    x0: [i32; SPAN_ROWS],
    x1: [i32; SPAN_ROWS],
}

impl SpanTable {
    /// The table of a disk that reaches no pixel.
    pub(crate) const EMPTY: Self = Self {
        y0: 0,
        first: 0,
        len: 0,
        held: true,
        x0: [0; SPAN_ROWS],
        x1: [0; SPAN_ROWS],
    };

    /// The table of `circle` clipped to `rect`; not [`SpanTable::held`] when
    /// the disk is too large or too far out for one.
    pub(crate) fn of(circle: &Circle, rect: &Rect) -> Self {
        let mut table = Self::EMPTY;
        table.fill(circle, rect);
        table
    }

    /// Makes this the table of `circle` clipped to `rect`, in place.
    pub(crate) fn fill(&mut self, circle: &Circle, rect: &Rect) {
        self.len = 0;
        // Written so that a NaN fails the guard.
        let in_range = |v: f64| v.abs() <= MAX_COORD as f64;
        let rect_in_range = [rect.x0, rect.x1, rect.y0, rect.y1]
            .iter()
            .all(|v| (-MAX_COORD..=MAX_COORD).contains(v));
        self.held =
            circle.r <= MAX_RADIUS && in_range(circle.x) && in_range(circle.y) && rect_in_range;
        if !self.held {
            return;
        }
        let (lo, hi) = disk_row_range(circle, rect);
        if lo > hi {
            return;
        }
        let rows = (hi - lo + 1) as usize;
        if rows > SPAN_ROWS {
            // Unreachable below MAX_RADIUS; the walker takes it if not.
            self.held = false;
            return;
        }
        let nonempty = crate::simd::disk_spans(circle, rect, lo, rows, &mut self.x0, &mut self.x1);
        if nonempty == 0 {
            return;
        }
        let first = nonempty.trailing_zeros();
        let len = nonempty.count_ones();
        if nonempty >> first != (1u64 << len) - 1 {
            // A hole between non-empty rows: not a disk the kernels know.
            self.held = false;
            return;
        }
        self.y0 = (lo + i64::from(first)) as i32;
        self.first = first as u8;
        self.len = len as u8;
    }

    /// Whether the table describes its disk. If not, the disk's rows have to
    /// be walked ([`crate::coverage::for_each_disk_row`]).
    #[inline]
    pub(crate) const fn held(&self) -> bool {
        self.held
    }

    /// First row (global `y`); meaningless when the table is empty.
    #[inline]
    pub(crate) fn y0(&self) -> i64 {
        i64::from(self.y0)
    }

    /// Number of rows, all of them non-empty.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// One past the last row.
    #[inline]
    pub(crate) fn y_end(&self) -> i64 {
        self.y0() + self.len() as i64
    }

    /// First pixel of each row.
    #[inline]
    pub(crate) fn x0s(&self) -> &[i32] {
        &self.x0[usize::from(self.first)..][..self.len()]
    }

    /// Last pixel (inclusive) of each row.
    #[inline]
    pub(crate) fn x1s(&self) -> &[i32] {
        &self.x1[usize::from(self.first)..][..self.len()]
    }

    /// `(y, x0, x1)` of every row, ascending.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (i64, i64, i64)> + '_ {
        (self.y0()..)
            .zip(self.x0s().iter().zip(self.x1s()))
            .map(|(y, (&x0, &x1))| (y, i64::from(x0), i64::from(x1)))
    }
}

/// Two tables are equal when both describe their disks and list the same
/// rows, or neither does: what an in-place fill left in the slots outside
/// the rows (and `y0` of an empty table) means nothing.
impl PartialEq for SpanTable {
    fn eq(&self, other: &Self) -> bool {
        self.held == other.held && (!self.held || self.rows().eq(other.rows()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::disk_rows;
    use crate::simd::{backend, force_backend, Backend};
    use proptest::prelude::*;

    /// On both backends: a held table lists exactly the rows of
    /// `disk_row_span` over `disk_row_range` (what `disk_rows` yields), no
    /// wider than the kernels' 64-bit windows. Returns whether it was held.
    fn assert_table_is_the_span_function(circle: Circle, rect: Rect) -> bool {
        let detected = backend();
        let want: Vec<_> = disk_rows(&circle, &rect).collect();
        let mut held = Vec::new();
        for lanes in [Backend::Scalar, Backend::Avx2] {
            force_backend(lanes);
            let table = SpanTable::of(&circle, &rect);
            held.push(table.held());
            if !table.held() {
                continue;
            }
            let got: Vec<_> = table.rows().collect();
            assert_eq!(got, want, "{lanes:?}: {circle:?} on {rect:?}");
            assert_eq!(table.len(), want.len());
            assert!(table.len() <= SPAN_ROWS);
            assert!(got.iter().all(|&(_, x0, x1)| x1 - x0 < SPAN_ROWS as i64));
            if let Some(&(y, ..)) = want.first() {
                assert_eq!((table.y0(), table.y_end()), (y, y + want.len() as i64));
            }
        }
        force_backend(detected);
        assert_eq!(
            held[0], held[1],
            "backends disagree on the guard: {circle:?}"
        );
        held[0]
    }

    const FRAME: Rect = Rect::new(0, 0, 192, 160);
    /// A tile of the frame: nothing starts at 0, no edge on a word boundary.
    const TILE: Rect = Rect::new(37, 21, 150, 139);

    proptest! {
        #[test]
        fn table_rows_are_disk_row_spans(
            x in -30.0f64..225.0,
            y in -30.0f64..190.0,
            r in 0.3f64..23.5,
        ) {
            let c = Circle::new(x, y, r);
            prop_assert!(assert_table_is_the_span_function(c, FRAME));
            prop_assert!(assert_table_is_the_span_function(c, TILE));
        }

        /// Centres within a few pixels of every edge (so that rows and spans
        /// are clipped, or clipped away), on integer and half-integer
        /// positions too, where `ceil`/`floor` sit on their boundary.
        #[test]
        fn clipped_tables_are_disk_row_spans(
            edge in 0usize..4,
            off in -6.0f64..6.0,
            along in 0.0f64..160.0,
            r in 0.3f64..23.5,
            snap in 0u32..3,
        ) {
            let off = match snap {
                0 => off,
                1 => off.round(),
                _ => off.round() + 0.5,
            };
            let c = match edge {
                0 => Circle::new(off, along, r),
                1 => Circle::new(192.0 + off, along, r),
                2 => Circle::new(along, off, r),
                _ => Circle::new(along, 160.0 + off, r),
            };
            prop_assert!(assert_table_is_the_span_function(c, FRAME));
        }

        /// Disks smaller than a pixel: most rows, often all, are empty.
        #[test]
        fn sub_pixel_tables_are_disk_row_spans(
            x in 0.0f64..192.0,
            y in 0.0f64..160.0,
            r in 0.001f64..0.9,
        ) {
            prop_assert!(assert_table_is_the_span_function(Circle::new(x, y, r), FRAME));
        }

        /// Disks that miss the frame: held, and empty.
        #[test]
        fn off_frame_tables_are_empty(
            side in 0usize..4,
            away in 24.0f64..500.0,
            along in -50.0f64..250.0,
            r in 0.3f64..23.5,
        ) {
            let c = match side {
                0 => Circle::new(-away, along, r),
                1 => Circle::new(192.0 + away, along, r),
                2 => Circle::new(along, -away, r),
                _ => Circle::new(along, 160.0 + away, r),
            };
            prop_assert!(assert_table_is_the_span_function(c, FRAME));
            prop_assert_eq!(SpanTable::of(&c, &FRAME).len(), 0);
        }

        /// Disks taller than a table are left to the row walker.
        #[test]
        fn tall_disks_are_not_held(
            x in -30.0f64..225.0,
            y in -30.0f64..190.0,
            r in 23.5001f64..400.0,
        ) {
            prop_assert!(!assert_table_is_the_span_function(Circle::new(x, y, r), FRAME));
        }
    }

    #[test]
    fn spans_that_end_on_the_last_pixel_are_kept_whole() {
        // Clipped by the right edge: rows end at `x1 + 1 == width`, the
        // position an empty sliver to their right would start at.
        let c = Circle::new(193.0, 80.0, 9.0);
        assert!(assert_table_is_the_span_function(c, FRAME));
        let table = SpanTable::of(&c, &FRAME);
        assert!(table.x1s().iter().all(|&x1| i64::from(x1) + 1 == FRAME.x1));
        // The same against a frame whose width is a whole number of words.
        let words = Rect::new(0, 0, 128, 64);
        let c = Circle::new(126.5, 30.0, 7.25);
        assert!(assert_table_is_the_span_function(c, words));
        assert!(SpanTable::of(&c, &words).x1s().contains(&127));
    }

    #[test]
    fn the_largest_held_radius_fills_the_table() {
        let rect = Rect::new(0, 0, 100, 100);
        let c = Circle::new(50.5, 50.0, MAX_RADIUS);
        assert!(assert_table_is_the_span_function(c, rect));
        assert_eq!(SpanTable::of(&c, &rect).len(), SPAN_ROWS);
        let wider = Circle::new(50.5, 50.0, MAX_RADIUS + 1e-9);
        assert!(!assert_table_is_the_span_function(wider, rect));
    }

    #[test]
    fn coordinates_out_of_range_are_not_held() {
        for c in [
            Circle::new(1e12, 50.0, 8.0),
            Circle::new(50.0, -3e9, 8.0),
            Circle::new(f64::NAN, 50.0, 8.0),
            Circle::new(50.0, f64::INFINITY, 8.0),
            Circle::new(50.0, 50.0, f64::NAN),
        ] {
            assert!(!assert_table_is_the_span_function(c, FRAME), "{c:?}");
        }
        let far = Rect::new(0, 0, (1 << 30) + 1, 10);
        assert!(!assert_table_is_the_span_function(
            Circle::new(5.0, 5.0, 3.0),
            far
        ));
        // Negative and tiny radii are held: they reach no pixel centre.
        assert!(assert_table_is_the_span_function(
            Circle::new(50.0, 50.0, -4.0),
            FRAME
        ));
        assert_eq!(
            SpanTable::of(&Circle::new(50.0, 50.0, -4.0), &FRAME).len(),
            0
        );
    }
}
