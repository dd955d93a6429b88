//! Grayscale image container.
//!
//! The MCMC likelihood consumes a single-channel intensity image in
//! `[0, 1]` ("the input image is filtered to emphasise the colour of
//! interest" — §III). `GrayImage` is a dense row-major `f32` buffer with
//! sub-rectangle extraction used by the partitioning samplers.

use crate::geometry::Rect;

/// A dense row-major grayscale image with `f32` intensities, nominally in
/// `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct GrayImage {
    width: u32,
    height: u32,
    data: Vec<f32>,
}

impl GrayImage {
    /// Creates an image filled with a constant intensity.
    #[must_use]
    pub fn filled(width: u32, height: u32, value: f32) -> Self {
        Self {
            width,
            height,
            data: vec![value; (width as usize) * (height as usize)],
        }
    }

    /// Creates a black (all-zero) image.
    #[must_use]
    pub fn zeros(width: u32, height: u32) -> Self {
        Self::filled(width, height, 0.0)
    }

    /// Builds an image by evaluating `f(x, y)` at every pixel.
    #[must_use]
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> f32) -> Self {
        let mut data = Vec::with_capacity((width as usize) * (height as usize));
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Self {
            width,
            height,
            data,
        }
    }

    /// Wraps an existing buffer (row-major, `width*height` long).
    ///
    /// # Panics
    /// Panics if the buffer length does not match the dimensions.
    #[must_use]
    pub fn from_vec(width: u32, height: u32, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            (width as usize) * (height as usize),
            "buffer length must equal width*height"
        );
        Self {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    #[must_use]
    pub const fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    #[must_use]
    pub const fn height(&self) -> u32 {
        self.height
    }

    /// Total number of pixels.
    #[must_use]
    pub const fn len(&self) -> usize {
        (self.width as usize) * (self.height as usize)
    }

    /// True when the image has no pixels.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The full-image rectangle.
    #[must_use]
    pub const fn frame(&self) -> Rect {
        Rect::of_image(self.width, self.height)
    }

    #[inline]
    fn index(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        (y as usize) * (self.width as usize) + (x as usize)
    }

    /// Intensity at `(x, y)`.
    ///
    /// # Panics
    /// Panics in debug builds when out of bounds.
    #[inline]
    #[must_use]
    pub fn get(&self, x: u32, y: u32) -> f32 {
        self.data[self.index(x, y)]
    }

    /// Sets the intensity at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, value: f32) {
        let i = self.index(x, y);
        self.data[i] = value;
    }

    /// Read-only access to the raw row-major buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the raw row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row of pixels.
    #[must_use]
    pub fn row(&self, y: u32) -> &[f32] {
        let w = self.width as usize;
        let start = (y as usize) * w;
        &self.data[start..start + w]
    }

    /// Iterates `(x, y, intensity)` over all pixels in row-major order.
    pub fn pixels(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        let w = self.width;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, &v)| ((i as u32) % w, (i as u32) / w, v))
    }

    /// Extracts a copy of the sub-rectangle `rect` clipped to the image.
    ///
    /// Used by the partitioning samplers which hand each worker a private
    /// copy of its tile ("duplicate, arrange for parallel execution, and
    /// merge" — §VII).
    #[must_use]
    pub fn crop(&self, rect: &Rect) -> GrayImage {
        let c = rect.intersect(&self.frame());
        let (w, h) = (c.width() as u32, c.height() as u32);
        let mut out = GrayImage::zeros(w, h);
        for yy in 0..h {
            let sy = (c.y0 + i64::from(yy)) as u32;
            let src_start = self.index(c.x0 as u32, sy);
            let dst_start = (yy as usize) * (w as usize);
            out.data[dst_start..dst_start + w as usize]
                .copy_from_slice(&self.data[src_start..src_start + w as usize]);
        }
        out
    }

    /// Copies `src` into this image with its top-left corner at `(x0, y0)`,
    /// clipping to bounds.
    pub fn blit(&mut self, src: &GrayImage, x0: i64, y0: i64) {
        for sy in 0..src.height {
            let dy = y0 + i64::from(sy);
            if dy < 0 || dy >= i64::from(self.height) {
                continue;
            }
            for sx in 0..src.width {
                let dx = x0 + i64::from(sx);
                if dx < 0 || dx >= i64::from(self.width) {
                    continue;
                }
                self.set(dx as u32, dy as u32, src.get(sx, sy));
            }
        }
    }

    /// Mean intensity (0 for empty images).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&v| f64::from(v)).sum::<f64>() / self.data.len() as f64
    }

    /// Minimum and maximum intensity (`(0, 0)` for empty images).
    #[must_use]
    pub fn min_max(&self) -> (f32, f32) {
        let mut mn = f32::INFINITY;
        let mut mx = f32::NEG_INFINITY;
        for &v in &self.data {
            mn = mn.min(v);
            mx = mx.max(v);
        }
        if mn > mx {
            (0.0, 0.0)
        } else {
            (mn, mx)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_and_get_set() {
        let mut img = GrayImage::filled(4, 3, 0.5);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.len(), 12);
        assert_eq!(img.get(3, 2), 0.5);
        img.set(1, 1, 0.9);
        assert_eq!(img.get(1, 1), 0.9);
        assert_eq!(img.get(1, 0), 0.5);
    }

    #[test]
    fn from_fn_row_major() {
        let img = GrayImage::from_fn(3, 2, |x, y| (y * 3 + x) as f32);
        assert_eq!(img.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(img.get(2, 1), 5.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_length_checked() {
        let _ = GrayImage::from_vec(3, 2, vec![0.0; 5]);
    }

    #[test]
    fn crop_extracts_subrect() {
        let img = GrayImage::from_fn(5, 4, |x, y| (y * 5 + x) as f32);
        let sub = img.crop(&Rect::new(1, 1, 4, 3));
        assert_eq!(sub.width(), 3);
        assert_eq!(sub.height(), 2);
        assert_eq!(sub.get(0, 0), 6.0);
        assert_eq!(sub.get(2, 1), 13.0);
    }

    #[test]
    fn crop_clips_to_image() {
        let img = GrayImage::from_fn(4, 4, |x, y| (y * 4 + x) as f32);
        let sub = img.crop(&Rect::new(-2, 2, 2, 10));
        assert_eq!(sub.width(), 2);
        assert_eq!(sub.height(), 2);
        assert_eq!(sub.get(0, 0), 8.0);
    }

    #[test]
    fn blit_roundtrips_with_crop() {
        let img = GrayImage::from_fn(6, 6, |x, y| (y * 6 + x) as f32);
        let rect = Rect::new(2, 1, 5, 4);
        let sub = img.crop(&rect);
        let mut out = GrayImage::zeros(6, 6);
        out.blit(&sub, rect.x0, rect.y0);
        for (x, y) in rect.pixels_clipped(&img.frame()) {
            assert_eq!(out.get(x as u32, y as u32), img.get(x as u32, y as u32));
        }
    }

    #[test]
    fn mean_and_min_max() {
        let img = GrayImage::from_vec(2, 2, vec![0.0, 1.0, 0.25, 0.75]);
        assert!((img.mean() - 0.5).abs() < 1e-9);
        assert_eq!(img.min_max(), (0.0, 1.0));
    }

    #[test]
    fn rows_are_contiguous() {
        let img = GrayImage::from_fn(3, 3, |x, y| (y * 3 + x) as f32);
        assert_eq!(img.row(1), &[3.0, 4.0, 5.0]);
    }
}
