//! PGM/PPM image I/O and simple overlay drawing.
//!
//! The Fig. 3 / Fig. 4 panels ("intelligent/blind partitioning in action")
//! are regenerated as PGM/PPM files: original scene, thresholded mask,
//! partition corridors and detected circles.

use crate::geometry::{Circle, Rect};
use crate::image::GrayImage;
use crate::mask::Mask;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// An 8-bit RGB image used only for annotated visual output.
#[derive(Debug, Clone)]
pub struct RgbImage {
    width: u32,
    height: u32,
    data: Vec<[u8; 3]>,
}

/// A few named colours for overlays.
pub mod colors {
    /// Red overlay (detections).
    pub const RED: [u8; 3] = [230, 40, 40];
    /// Green overlay (ground truth).
    pub const GREEN: [u8; 3] = [40, 200, 60];
    /// Blue overlay (partition lines).
    pub const BLUE: [u8; 3] = [60, 90, 230];
    /// Cyan overlay (overlap bands).
    pub const CYAN: [u8; 3] = [60, 220, 220];
}

impl RgbImage {
    /// Converts a grayscale image (clamped to `[0,1]`) to RGB.
    #[must_use]
    pub fn from_gray(img: &GrayImage) -> Self {
        let data = img
            .as_slice()
            .iter()
            .map(|&v| {
                let b = (v.clamp(0.0, 1.0) * 255.0).round() as u8;
                [b, b, b]
            })
            .collect();
        Self {
            width: img.width(),
            height: img.height(),
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

    /// Sets a pixel if it is inside the image.
    pub fn put(&mut self, x: i64, y: i64, color: [u8; 3]) {
        if x >= 0 && y >= 0 && x < i64::from(self.width) && y < i64::from(self.height) {
            self.data[(y as usize) * (self.width as usize) + (x as usize)] = color;
        }
    }

    /// Pixel at `(x, y)`.
    #[must_use]
    pub fn get(&self, x: u32, y: u32) -> [u8; 3] {
        self.data[(y as usize) * (self.width as usize) + (x as usize)]
    }

    /// Draws a 1-pixel circle outline (midpoint sampling).
    pub fn draw_circle(&mut self, c: &Circle, color: [u8; 3]) {
        let steps = ((2.0 * std::f64::consts::PI * c.r).ceil() as usize).max(8);
        for i in 0..steps {
            let a = 2.0 * std::f64::consts::PI * (i as f64) / (steps as f64);
            let x = (c.x + c.r * a.cos()).round() as i64;
            let y = (c.y + c.r * a.sin()).round() as i64;
            self.put(x, y, color);
        }
    }

    /// Draws a 1-pixel rectangle outline.
    pub fn draw_rect(&mut self, r: &Rect, color: [u8; 3]) {
        for x in r.x0..r.x1 {
            self.put(x, r.y0, color);
            self.put(x, r.y1 - 1, color);
        }
        for y in r.y0..r.y1 {
            self.put(r.x0, y, color);
            self.put(r.x1 - 1, y, color);
        }
    }

    /// Draws a horizontal or vertical dashed line across the image.
    pub fn draw_dashed_line(&mut self, coord: i64, vertical: bool, color: [u8; 3]) {
        let len = if vertical { self.height } else { self.width };
        for i in 0..i64::from(len) {
            if (i / 4) % 2 == 0 {
                if vertical {
                    self.put(coord, i, color);
                } else {
                    self.put(i, coord, color);
                }
            }
        }
    }

    /// Writes a binary PPM (P6) file.
    pub fn save_ppm(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        write!(w, "P6\n{} {}\n255\n", self.width, self.height)?;
        for px in &self.data {
            w.write_all(px)?;
        }
        w.flush()
    }
}

/// Writes a grayscale image as a binary PGM (P5) file, clamping to `[0,1]`.
pub fn save_pgm(img: &GrayImage, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    write!(w, "P5\n{} {}\n255\n", img.width(), img.height())?;
    let bytes: Vec<u8> = img
        .as_slice()
        .iter()
        .map(|&v| (v.clamp(0.0, 1.0) * 255.0).round() as u8)
        .collect();
    w.write_all(&bytes)?;
    w.flush()
}

/// Writes a binary mask as a black/white PGM (P5) file.
pub fn save_mask_pgm(mask: &Mask, path: impl AsRef<Path>) -> io::Result<()> {
    let img = GrayImage::from_fn(mask.width(), mask.height(), |x, y| {
        if mask.get(x, y) {
            1.0
        } else {
            0.0
        }
    });
    save_pgm(&img, path)
}

/// Reads a PGM file (binary P5 or ASCII P2) into a grayscale image with
/// intensities scaled to `[0, 1]`.
pub fn load_pgm(path: impl AsRef<Path>) -> io::Result<GrayImage> {
    let file = std::fs::File::open(path)?;
    let mut reader = BufReader::new(file);
    let mut header = Vec::new();
    // Read magic, width, height, maxval as whitespace-separated tokens,
    // skipping '#' comments.
    let mut tokens: Vec<String> = Vec::new();
    while tokens.len() < 4 {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated PGM header",
            ));
        }
        header.extend_from_slice(line.as_bytes());
        let no_comment = line.split('#').next().unwrap_or("");
        tokens.extend(no_comment.split_whitespace().map(str::to_owned));
    }
    let magic = tokens[0].clone();
    let width: u32 = tokens[1]
        .parse()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad width: {e}")))?;
    let height: u32 = tokens[2]
        .parse()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad height: {e}")))?;
    let maxval: f32 = tokens[3]
        .parse()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad maxval: {e}")))?;
    let n = (width as usize) * (height as usize);
    match magic.as_str() {
        "P5" => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            Ok(GrayImage::from_vec(
                width,
                height,
                buf.iter().map(|&b| f32::from(b) / maxval).collect(),
            ))
        }
        "P2" => {
            let mut rest = String::new();
            reader.read_to_string(&mut rest)?;
            let vals: Result<Vec<f32>, _> = rest
                .split('#')
                .next()
                .unwrap_or("")
                .split_whitespace()
                .take(n)
                .map(|t| t.parse::<f32>().map(|v| v / maxval))
                .collect();
            let vals = vals.map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad pixel: {e}"))
            })?;
            if vals.len() != n {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated P2 pixel data",
                ));
            }
            Ok(GrayImage::from_vec(width, height, vals))
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported magic {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pmcmc_io_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn pgm_roundtrip() {
        let img = GrayImage::from_fn(9, 5, |x, y| ((x + y) % 7) as f32 / 7.0);
        let path = tmp("roundtrip.pgm");
        save_pgm(&img, &path).unwrap();
        let back = load_pgm(&path).unwrap();
        assert_eq!(back.width(), 9);
        assert_eq!(back.height(), 5);
        for ((_, _, a), (_, _, b)) in img.pixels().zip(back.pixels()) {
            assert!((a - b).abs() <= 1.0 / 255.0 + 1e-6);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_ascii_p2() {
        let path = tmp("ascii.pgm");
        std::fs::write(&path, "P2\n# a comment\n2 2\n255\n0 128\n255 64\n").unwrap();
        let img = load_pgm(&path).unwrap();
        assert!((img.get(1, 0) - 128.0 / 255.0).abs() < 1e-6);
        assert!((img.get(0, 1) - 1.0).abs() < 1e-6);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_rejects_bad_magic() {
        let path = tmp("bad.pgm");
        std::fs::write(&path, "P9\n2 2\n255\n").unwrap();
        assert!(load_pgm(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rgb_overlay_drawing() {
        let gray = GrayImage::filled(32, 32, 0.5);
        let mut rgb = RgbImage::from_gray(&gray);
        rgb.draw_circle(&Circle::new(16.0, 16.0, 8.0), colors::RED);
        rgb.draw_rect(&Rect::new(2, 2, 30, 30), colors::BLUE);
        assert_eq!(rgb.get(24, 16), colors::RED);
        assert_eq!(rgb.get(2, 10), colors::BLUE);
        // Interior untouched.
        assert_eq!(rgb.get(16, 16), [128, 128, 128]);
        let path = tmp("overlay.ppm");
        rgb.save_ppm(&path).unwrap();
        let meta = std::fs::metadata(&path).unwrap();
        let header_len = "P6\n32 32\n255\n".len();
        assert_eq!(meta.len() as usize, header_len + 32 * 32 * 3);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn put_ignores_out_of_bounds() {
        let gray = GrayImage::filled(4, 4, 0.0);
        let mut rgb = RgbImage::from_gray(&gray);
        rgb.put(-1, 0, colors::RED);
        rgb.put(0, 100, colors::RED);
        // No panic and nothing changed.
        assert_eq!(rgb.get(0, 0), [0, 0, 0]);
    }

    #[test]
    fn mask_pgm_is_binary() {
        let mut m = Mask::zeros(3, 1);
        m.set(1, 0, true);
        let path = tmp("mask.pgm");
        save_mask_pgm(&m, &path).unwrap();
        let img = load_pgm(&path).unwrap();
        assert!(img.get(0, 0) < 0.01);
        assert!(img.get(1, 0) > 0.99);
        std::fs::remove_file(path).ok();
    }
}
