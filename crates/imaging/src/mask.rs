//! Binary pixel masks (bit-packed).
//!
//! The threshold pre-processor of §VIII produces a binary mask; both the
//! density estimator (eq. 5) and the intelligent partitioner (empty
//! row/column scanning) consume it.

use crate::geometry::Rect;

/// A bit-packed binary image: one bit per pixel, row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mask {
    width: u32,
    height: u32,
    words: Vec<u64>,
}

impl Mask {
    /// Creates an all-false mask.
    #[must_use]
    pub fn zeros(width: u32, height: u32) -> Self {
        let bits = (width as usize) * (height as usize);
        Self {
            width,
            height,
            words: vec![0; bits.div_ceil(64)],
        }
    }

    /// Mask width in pixels.
    #[must_use]
    pub const fn width(&self) -> u32 {
        self.width
    }

    /// Mask height in pixels.
    #[must_use]
    pub const fn height(&self) -> u32 {
        self.height
    }

    #[inline]
    fn bit(&self, x: u32, y: u32) -> (usize, u64) {
        debug_assert!(x < self.width && y < self.height);
        let i = (y as usize) * (self.width as usize) + (x as usize);
        (i / 64, 1u64 << (i % 64))
    }

    /// Bit at `(x, y)`.
    #[inline]
    #[must_use]
    pub fn get(&self, x: u32, y: u32) -> bool {
        let (w, m) = self.bit(x, y);
        self.words[w] & m != 0
    }

    /// Sets the bit at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, value: bool) {
        let (w, m) = self.bit(x, y);
        if value {
            self.words[w] |= m;
        } else {
            self.words[w] &= !m;
        }
    }

    /// Number of set bits in the whole mask.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set bits inside `rect` (clipped to the mask).
    ///
    /// This is `|{(x,y) ∈ M : I(x,y) > θ}|` restricted to a partition — the
    /// numerator of the eq. (5) density estimator.
    #[must_use]
    pub fn count_ones_in(&self, rect: &Rect) -> usize {
        let frame = Rect::of_image(self.width, self.height);
        let c = rect.intersect(&frame);
        let mut n = 0;
        for y in c.y0..c.y1 {
            for x in c.x0..c.x1 {
                if self.get(x as u32, y as u32) {
                    n += 1;
                }
            }
        }
        n
    }

    /// Whether row `y`, restricted to columns `[x0, x1)`, is empty.
    #[must_use]
    pub fn row_empty_in(&self, y: u32, x0: u32, x1: u32) -> bool {
        (x0..x1.min(self.width)).all(|x| !self.get(x, y))
    }

    /// Whether column `x`, restricted to rows `[y0, y1)`, is empty.
    #[must_use]
    pub fn col_empty_in(&self, x: u32, y0: u32, y1: u32) -> bool {
        (y0..y1.min(self.height)).all(|y| !self.get(x, y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_is_empty() {
        let m = Mask::zeros(10, 7);
        assert_eq!(m.count_ones(), 0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = Mask::zeros(65, 3); // crosses a word boundary
        m.set(64, 0, true);
        m.set(0, 2, true);
        assert!(m.get(64, 0));
        assert!(m.get(0, 2));
        assert!(!m.get(63, 0));
        assert_eq!(m.count_ones(), 2);
        m.set(64, 0, false);
        assert_eq!(m.count_ones(), 1);
    }

    #[test]
    fn count_in_rect() {
        let mut m = Mask::zeros(8, 8);
        for i in 0..8 {
            m.set(i, i, true);
        }
        assert_eq!(m.count_ones_in(&Rect::new(0, 0, 4, 4)), 4);
        assert_eq!(m.count_ones_in(&Rect::new(2, 2, 6, 6)), 4);
        assert_eq!(m.count_ones_in(&Rect::new(-5, -5, 100, 100)), 8);
        assert_eq!(m.count_ones_in(&Rect::new(0, 4, 4, 8)), 0);
    }

    #[test]
    fn row_col_emptiness() {
        let mut m = Mask::zeros(5, 5);
        m.set(2, 3, true);
        assert!(m.row_empty_in(3, 0, 2));
        assert!(!m.row_empty_in(3, 0, 3));
        assert!(m.col_empty_in(2, 0, 3));
        assert!(!m.col_empty_in(2, 0, 4));
    }
}
