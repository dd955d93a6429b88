//! Colour input and the §III colour-emphasis filter.
//!
//! "First the input image is filtered to emphasise the colour of interest.
//! This filtered image can then be used to produce a model for the
//! original image" — the detection pipeline consumes a single-channel
//! intensity image, produced here from an RGB micrograph by scoring each
//! pixel's similarity to a reference stain colour.

use crate::geometry::Circle;
use crate::image::GrayImage;
use rand::Rng;

/// A planar RGB image with `f32` channels in `[0, 1]` (distinct from
/// [`crate::io::RgbImage`], which is the 8-bit overlay output type).
#[derive(Debug, Clone, PartialEq)]
pub struct ColorImage {
    width: u32,
    height: u32,
    /// Interleaved RGB, row-major.
    data: Vec<[f32; 3]>,
}

impl ColorImage {
    /// Creates an image filled with a constant colour.
    #[must_use]
    pub fn filled(width: u32, height: u32, color: [f32; 3]) -> Self {
        Self {
            width,
            height,
            data: vec![color; (width as usize) * (height as usize)],
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

    /// Pixel at `(x, y)`.
    #[inline]
    #[must_use]
    pub fn get(&self, x: u32, y: u32) -> [f32; 3] {
        debug_assert!(x < self.width && y < self.height);
        self.data[(y as usize) * (self.width as usize) + (x as usize)]
    }

    /// Sets the pixel at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, color: [f32; 3]) {
        let i = (y as usize) * (self.width as usize) + (x as usize);
        self.data[i] = color;
    }
}

/// Renders a synthetic *stained* micrograph: background tissue colour with
/// soft-edged stained disks, plus per-channel Gaussian noise. Companion to
/// [`crate::synth::Scene::render`], which renders intensity directly.
#[must_use]
#[allow(clippy::too_many_arguments)] // scene description: all eight knobs are orthogonal
pub fn render_stained(
    width: u32,
    height: u32,
    circles: &[Circle],
    stain: [f32; 3],
    background: [f32; 3],
    edge_softness: f64,
    noise_sd: f32,
    rng: &mut impl Rng,
) -> ColorImage {
    let mut img = ColorImage::filled(width, height, background);
    let frame = crate::geometry::Rect::of_image(width, height);
    for c in circles {
        for (x, y) in c.bounding_box(edge_softness + 1.0).pixels_clipped(&frame) {
            let dx = x as f64 + 0.5 - c.x;
            let dy = y as f64 + 0.5 - c.y;
            let d = (dx * dx + dy * dy).sqrt();
            let s = if edge_softness > 0.0 {
                ((c.r - d) / edge_softness + 0.5).clamp(0.0, 1.0) as f32
            } else if d <= c.r {
                1.0
            } else {
                0.0
            };
            if s > 0.0 {
                let (xu, yu) = (x as u32, y as u32);
                let cur = img.get(xu, yu);
                let mixed = [
                    cur[0] + (stain[0] - cur[0]) * s,
                    cur[1] + (stain[1] - cur[1]) * s,
                    cur[2] + (stain[2] - cur[2]) * s,
                ];
                img.set(xu, yu, mixed);
            }
        }
    }
    if noise_sd > 0.0 {
        for px in &mut img.data {
            for ch in px.iter_mut() {
                *ch = (*ch + noise_sd * crate::synth::standard_normal(rng) as f32).clamp(0.0, 1.0);
            }
        }
    }
    img
}

/// The colour-emphasis filter: maps each pixel to
/// `exp(-|rgb - target|² / (2·sd²))`, so pixels matching the stain colour
/// approach 1 and everything else falls toward 0. The output is the
/// intensity image the MCMC model consumes.
#[must_use]
pub fn emphasize_color(img: &ColorImage, target: [f32; 3], sd: f32) -> GrayImage {
    let two_var = 2.0 * f64::from(sd) * f64::from(sd);
    GrayImage::from_fn(img.width(), img.height(), |x, y| {
        let [r, g, b] = img.get(x, y);
        let d2 = f64::from(r - target[0]).powi(2)
            + f64::from(g - target[1]).powi(2)
            + f64::from(b - target[2]).powi(2);
        (-d2 / two_var).exp() as f32
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const STAIN: [f32; 3] = [0.55, 0.15, 0.55]; // purple-ish nuclear stain
    const TISSUE: [f32; 3] = [0.9, 0.8, 0.75]; // pale background

    #[test]
    fn stained_render_puts_stain_at_centres() {
        let circles = [Circle::new(20.0, 20.0, 6.0)];
        let mut rng = StdRng::seed_from_u64(1);
        let img = render_stained(64, 64, &circles, STAIN, TISSUE, 1.0, 0.0, &mut rng);
        let centre = img.get(20, 20);
        for ch in 0..3 {
            assert!((centre[ch] - STAIN[ch]).abs() < 1e-5);
        }
        let far = img.get(50, 50);
        for ch in 0..3 {
            assert!((far[ch] - TISSUE[ch]).abs() < 1e-5);
        }
    }

    #[test]
    fn emphasis_is_high_on_stain_low_on_tissue() {
        let circles = [Circle::new(20.0, 20.0, 6.0)];
        let mut rng = StdRng::seed_from_u64(2);
        let img = render_stained(64, 64, &circles, STAIN, TISSUE, 1.0, 0.02, &mut rng);
        let gray = emphasize_color(&img, STAIN, 0.25);
        assert!(gray.get(20, 20) > 0.8, "stain pixel {}", gray.get(20, 20));
        assert!(gray.get(50, 50) < 0.2, "tissue pixel {}", gray.get(50, 50));
    }

    #[test]
    fn emphasis_then_threshold_recovers_disk_area() {
        let c = Circle::new(32.0, 32.0, 8.0);
        let mut rng = StdRng::seed_from_u64(3);
        let img = render_stained(64, 64, &[c], STAIN, TISSUE, 0.5, 0.02, &mut rng);
        let gray = emphasize_color(&img, STAIN, 0.25);
        let mask = crate::filter::threshold(&gray, 0.5);
        let area = mask.count_ones() as f64;
        assert!(
            (area - c.area()).abs() < 0.25 * c.area(),
            "thresholded area {area} vs disk {}",
            c.area()
        );
    }

    #[test]
    fn noise_stays_clamped() {
        let mut rng = StdRng::seed_from_u64(4);
        let img = render_stained(32, 32, &[], [1.0; 3], [0.0; 3], 0.0, 0.8, &mut rng);
        for y in 0..32 {
            for x in 0..32 {
                for ch in img.get(x, y) {
                    assert!((0.0..=1.0).contains(&ch));
                }
            }
        }
    }
}
