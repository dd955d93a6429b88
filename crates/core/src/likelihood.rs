//! The two-level Gaussian pixel likelihood and its precomputed gain image.
//!
//! §III: "The likelihood of the proposed configuration is obtained by
//! comparing the proposed artifacts against the filtered image." We model
//! each pixel as `y ~ N(fg, sigma)` where some circle covers it and
//! `y ~ N(bg, sigma)` otherwise, giving
//!
//! ```text
//! log L(c) = Σ_p  -(y_p - m_c(p))² / (2σ²)  + const.
//! ```
//!
//! Only *changes* in coverage matter to an MCMC acceptance ratio, so we
//! precompute for every pixel the **gain**
//! `g_p = [(y_p - bg)² - (y_p - fg)²] / (2σ²)`:
//! covering a previously uncovered pixel adds `g_p` to the log-likelihood
//! and uncovering it subtracts `g_p`. This makes every move's Δlog L an
//! O(disk area) sum, the property the paper's local moves rely on.

use crate::params::ModelParams;
use pmcmc_imaging::{GrayImage, Rect};

/// Precomputed per-pixel log-likelihood gains.
///
/// Built in one sweep per row ([`Gain::from_image`]): each pixel's gain,
/// the row's prefix sums and the row's empty-configuration sum come out
/// of the same pass.
#[derive(Debug, Clone)]
pub struct Gain {
    width: u32,
    height: u32,
    data: Vec<f64>,
    /// Per-row prefix sums of `data`: `(width + 1)` entries per row, with
    /// `prefix[y * (w + 1) + x] = Σ data[y, 0..x]`, so the gain of any
    /// contiguous span `[x0, x1]` is one subtraction.
    prefix: Vec<f64>,
    /// Log-likelihood of the empty configuration (all pixels background),
    /// up to the Gaussian normalisation constant.
    log_lik_empty: f64,
}

/// One row of the build: appends the row's gains `g_p` to `data` and its
/// `(w + 1)` prefix sums to `prefix`, and returns the row's sum of
/// empty-configuration terms `−(y_p − bg)²/(2σ²)`. The caller chains the
/// row sums; per-row chains and then a chain over rows is the order every
/// build has used.
#[inline]
fn build_row(
    row: &[f32],
    bg: f64,
    fg: f64,
    two_var: f64,
    data: &mut Vec<f64>,
    prefix: &mut Vec<f64>,
) -> f64 {
    let mut acc = 0.0f64;
    let mut row_empty = 0.0f64;
    prefix.push(0.0);
    for &y in row {
        let y = f64::from(y);
        let db = y - bg;
        let df = y - fg;
        let g = (db * db - df * df) / two_var;
        data.push(g);
        acc += g;
        prefix.push(acc);
        row_empty += -db * db / two_var;
    }
    row_empty
}

impl Gain {
    /// Builds the gain image for `img` under `params`: one sweep per row
    /// into buffers sized up front, each pixel's gain, prefix entry and
    /// empty-configuration term computed as it is read.
    ///
    /// # Panics
    /// Panics if the image dimensions disagree with `params`.
    #[must_use]
    pub fn from_image(img: &GrayImage, params: &ModelParams) -> Self {
        assert_eq!(img.width(), params.width, "image width mismatch");
        assert_eq!(img.height(), params.height, "image height mismatch");
        let (bg, fg) = (params.bg, params.fg);
        let two_var = 2.0 * params.noise_sd * params.noise_sd;
        let w = img.width() as usize;
        let h = img.height() as usize;
        let mut data = Vec::with_capacity(w * h);
        let mut prefix = Vec::with_capacity(h * (w + 1));
        let mut empty = 0.0f64;
        let samples = img.as_slice();
        for y in 0..h {
            let row = &samples[y * w..(y + 1) * w];
            empty += build_row(row, bg, fg, two_var, &mut data, &mut prefix);
        }
        Self {
            width: img.width(),
            height: img.height(),
            data,
            prefix,
            log_lik_empty: empty,
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

    /// Gain of pixel `(x, y)`.
    #[inline]
    #[must_use]
    pub fn get(&self, x: u32, y: u32) -> f64 {
        debug_assert!(x < self.width && y < self.height);
        self.data[(y as usize) * (self.width as usize) + (x as usize)]
    }

    /// The gains of row `y` as a slice indexed by `x`.
    ///
    /// # Panics
    /// Panics if `y` is outside the image.
    #[must_use]
    pub fn row(&self, y: u32) -> &[f64] {
        assert!(y < self.height, "row outside image");
        let w = self.width as usize;
        let start = (y as usize) * w;
        &self.data[start..start + w]
    }

    /// Prefix sums of row `y`'s gains: `(width + 1)` entries, where entry
    /// `x` is the sum of gains at `0..x`. The total gain of the inclusive
    /// pixel span `[x0, x1]` is `row_prefix(y)[x1 + 1] - row_prefix(y)[x0]`.
    ///
    /// # Panics
    /// Panics if `y` is outside the image.
    #[must_use]
    pub fn row_prefix(&self, y: u32) -> &[f64] {
        assert!(y < self.height, "row outside image");
        let w = self.width as usize + 1;
        let start = (y as usize) * w;
        &self.prefix[start..start + w]
    }

    /// [`Gain::row_prefix`] of rows `y..y + n`, sliced once.
    ///
    /// # Panics
    /// Panics if a row is outside the image.
    #[inline]
    pub(crate) fn prefix_rows(&self, y: usize, n: usize) -> std::slice::ChunksExact<'_, f64> {
        let w = self.width as usize + 1;
        self.prefix[y * w..(y + n) * w].chunks_exact(w)
    }

    /// Log-likelihood of the empty configuration (up to the Gaussian
    /// normalisation constant, which is configuration-independent).
    #[must_use]
    pub const fn log_lik_empty(&self) -> f64 {
        self.log_lik_empty
    }

    /// Sum of gains over a rectangle clipped to the image — used by tests
    /// to cross-check incremental bookkeeping.
    #[must_use]
    pub fn sum_in(&self, rect: &Rect) -> f64 {
        let frame = Rect::of_image(self.width, self.height);
        rect.pixels_clipped(&frame)
            .map(|(x, y)| self.get(x as u32, y as u32))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn params(w: u32, h: u32) -> ModelParams {
        ModelParams::new(w, h, 5.0, 6.0)
    }

    /// The three-pass build `Gain::from_image` replaced, kept as the
    /// oracle for the one-pass one: per-pixel gains and empty terms over
    /// the whole image, then the row prefixes, then the row empty sums.
    /// Returns `(data, prefix, log_lik_empty)`.
    fn three_pass_oracle(img: &GrayImage, params: &ModelParams) -> (Vec<f64>, Vec<f64>, f64) {
        let two_var = 2.0 * params.noise_sd * params.noise_sd;
        let mut data = Vec::with_capacity(img.len());
        let mut empty_data = Vec::with_capacity(img.len());
        for (_, _, y) in img.pixels() {
            let y = f64::from(y);
            let db = y - params.bg;
            let df = y - params.fg;
            data.push((db * db - df * df) / two_var);
            empty_data.push(-db * db / two_var);
        }
        let w = img.width() as usize;
        let h = img.height() as usize;
        let mut prefix = Vec::with_capacity(h * (w + 1));
        let mut empty = 0.0f64;
        for y in 0..h {
            let mut acc = 0.0f64;
            prefix.push(0.0);
            for &g in &data[y * w..(y + 1) * w] {
                acc += g;
                prefix.push(acc);
            }
            let mut row_empty = 0.0f64;
            for &e in &empty_data[y * w..(y + 1) * w] {
                row_empty += e;
            }
            empty += row_empty;
        }
        (data, prefix, empty)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        /// The one-pass build gives the oracle's tables bit for bit, on
        /// single pixels, single rows, single columns and odd widths.
        #[test]
        fn one_pass_build_is_the_three_pass_build_bit_for_bit(
            shape in 0u32..4,
            n in 1u32..40,
            m in 1u32..12,
            seed in any::<u64>(),
            consts in (-0.5f64..1.5, -0.5f64..1.5, 0.01f64..1.0),
        ) {
            let (bg, fg, noise_sd) = consts;
            let (w, h) = match shape {
                0 => (1, 1),
                1 => (n, 1),
                2 => (1, n),
                _ => (2 * n + 1, m),
            };
            let mut rng = crate::rng::Xoshiro256::new(seed);
            let img = GrayImage::from_fn(w, h, |_, _| {
                use rand::Rng;
                rng.gen::<f32>() * 3.0 - 1.0
            });
            let mut p = params(w, h);
            p.bg = bg;
            p.fg = fg;
            p.noise_sd = noise_sd;
            let g = Gain::from_image(&img, &p);
            let (data, prefix, empty) = three_pass_oracle(&img, &p);
            prop_assert_eq!(bits(&g.data), bits(&data));
            prop_assert_eq!(bits(&g.prefix), bits(&prefix));
            prop_assert_eq!(g.log_lik_empty().to_bits(), empty.to_bits());
        }
    }

    #[test]
    fn gain_positive_on_foreground_pixels() {
        let p = params(4, 1);
        let img = GrayImage::from_vec(4, 1, vec![0.9, 0.1, 0.5, 0.0]);
        let g = Gain::from_image(&img, &p);
        assert!(g.get(0, 0) > 0.0, "bright pixel favours coverage");
        assert!(g.get(1, 0) < 0.0, "dark pixel disfavours coverage");
        // Exactly between fg and bg: no preference.
        assert!(g.get(2, 0).abs() < 1e-9);
        assert!(g.get(3, 0) < g.get(1, 0), "darker pixel penalised more");
    }

    #[test]
    fn gain_formula_matches_direct_difference() {
        let p = params(1, 1);
        let y = 0.63f32;
        let img = GrayImage::from_vec(1, 1, vec![y]);
        let g = Gain::from_image(&img, &p);
        let two_var = 2.0 * p.noise_sd * p.noise_sd;
        let lf = -((f64::from(y) - p.fg).powi(2)) / two_var;
        let lb = -((f64::from(y) - p.bg).powi(2)) / two_var;
        assert!((g.get(0, 0) - (lf - lb)).abs() < 1e-12);
        assert!((g.log_lik_empty() - lb).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn dimension_mismatch_panics() {
        let p = params(4, 4);
        let img = GrayImage::zeros(3, 4);
        let _ = Gain::from_image(&img, &p);
    }

    #[test]
    fn row_prefix_matches_scalar_sums() {
        let p = params(5, 3);
        let img = GrayImage::from_vec(
            5,
            3,
            vec![
                0.9, 0.1, 0.5, 0.0, 0.7, 0.3, 0.8, 0.2, 0.6, 0.4, 0.05, 0.95, 0.45, 0.55, 0.15,
            ],
        );
        let g = Gain::from_image(&img, &p);
        for y in 0..3u32 {
            let pre = g.row_prefix(y);
            assert_eq!(pre.len(), 6);
            assert_eq!(pre[0], 0.0);
            for x0 in 0..5usize {
                for x1 in x0..5usize {
                    let scalar: f64 = (x0..=x1).map(|x| g.get(x as u32, y)).sum();
                    assert!(
                        (pre[x1 + 1] - pre[x0] - scalar).abs() < 1e-12,
                        "span [{x0},{x1}] row {y} disagrees"
                    );
                }
            }
        }
    }

    #[test]
    fn sum_in_clips() {
        let p = params(3, 3);
        let img = GrayImage::filled(3, 3, 0.9);
        let g = Gain::from_image(&img, &p);
        let full = g.sum_in(&Rect::new(-10, -10, 10, 10));
        let one = g.sum_in(&Rect::new(0, 0, 1, 1));
        assert!((full - 9.0 * one).abs() < 1e-9);
    }
}
