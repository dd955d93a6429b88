//! Image filters: the §III/§VIII pre-processing steps.
//!
//! The paper's pipeline first filters the input "to emphasise the colour of
//! interest"; our synthetic scenes are generated directly in intensity
//! space, so the filters here cover the remaining published step: the
//! threshold filter of eq. (5), with Otsu's method to pick `theta`.

use crate::image::GrayImage;
use crate::mask::Mask;

/// Applies the eq. (5) threshold filter: `mask(x,y) = I(x,y) > theta`.
#[must_use]
pub fn threshold(img: &GrayImage, theta: f32) -> Mask {
    let mut m = Mask::zeros(img.width(), img.height());
    for (x, y, v) in img.pixels() {
        if v > theta {
            m.set(x, y, true);
        }
    }
    m
}

/// Otsu's automatic threshold over a 256-bin histogram; returns the
/// intensity (in the image's own scale) maximising inter-class variance.
///
/// The paper fixes `theta = 0.5` for its bead images; Otsu provides a
/// data-driven alternative for less convenient inputs.
#[must_use]
pub fn otsu_threshold(img: &GrayImage) -> f32 {
    let (mn, mx) = img.min_max();
    let range = mx - mn;
    if range <= 0.0 {
        return mn;
    }
    const BINS: usize = 256;
    let mut hist = [0u64; BINS];
    for (_, _, v) in img.pixels() {
        let b = (((v - mn) / range) * (BINS as f32 - 1.0)).round() as usize;
        hist[b.min(BINS - 1)] += 1;
    }
    let total: u64 = hist.iter().sum();
    let sum_all: f64 = hist
        .iter()
        .enumerate()
        .map(|(i, &c)| i as f64 * c as f64)
        .sum();
    let (mut w_b, mut sum_b) = (0f64, 0f64);
    // Track the full run of equally-best split bins and return its midpoint
    // (the conventional tie-break for perfectly bimodal histograms).
    let (mut best_var, mut best_lo, mut best_hi) = (-1.0f64, 0usize, 0usize);
    for (i, &c) in hist.iter().enumerate() {
        w_b += c as f64;
        if w_b == 0.0 {
            continue;
        }
        let w_f = total as f64 - w_b;
        if w_f == 0.0 {
            break;
        }
        sum_b += i as f64 * c as f64;
        let m_b = sum_b / w_b;
        let m_f = (sum_all - sum_b) / w_f;
        let var = w_b * w_f * (m_b - m_f) * (m_b - m_f);
        if var > best_var * (1.0 + 1e-12) {
            best_var = var;
            best_lo = i;
            best_hi = i;
        } else if (var - best_var).abs() <= best_var * 1e-12 {
            best_hi = i;
        }
    }
    let best_bin = (best_lo + best_hi) / 2;
    mn + (best_bin as f32 / (BINS as f32 - 1.0)) * range
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_splits_at_theta() {
        let img = GrayImage::from_vec(2, 2, vec![0.2, 0.5, 0.6, 0.9]);
        let m = threshold(&img, 0.5);
        assert!(!m.get(0, 0));
        assert!(!m.get(1, 0), "> is strict");
        assert!(m.get(0, 1));
        assert!(m.get(1, 1));
        assert_eq!(m.count_ones(), 2);
    }

    #[test]
    fn otsu_separates_bimodal() {
        let img = GrayImage::from_fn(16, 16, |x, _| if x < 8 { 0.1 } else { 0.9 });
        let t = otsu_threshold(&img);
        assert!(t > 0.1 && t < 0.9, "otsu {t}");
        let m = threshold(&img, t);
        assert_eq!(m.count_ones(), 16 * 8);
    }

    #[test]
    fn otsu_constant_image() {
        let img = GrayImage::filled(4, 4, 0.3);
        assert_eq!(otsu_threshold(&img), 0.3);
    }
}
