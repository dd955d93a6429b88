//! Property-based tests for the imaging substrate.

use pmcmc_imaging::filter::threshold;
use pmcmc_imaging::geometry::{corner_tiles, regular_tiles};
use pmcmc_imaging::{Circle, GrayImage, PartitionGrid, Rect};
use proptest::prelude::*;

fn arb_image(max_side: u32) -> impl Strategy<Value = GrayImage> {
    (2..max_side, 2..max_side, any::<u64>()).prop_map(|(w, h, seed)| {
        let mut s = seed;
        GrayImage::from_fn(w, h, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f32) / (u32::MAX as f32)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The threshold mask sets exactly the pixels above `theta`.
    #[test]
    fn threshold_counts_agree(img in arb_image(40), theta in 0.0f32..1.0) {
        let mask = threshold(&img, theta);
        let naive = img.pixels().filter(|&(_, _, v)| v > theta).count();
        prop_assert_eq!(mask.count_ones(), naive);
    }

    /// Crop followed by blit restores the original pixels inside the rect.
    #[test]
    fn crop_blit_roundtrip(
        img in arb_image(30),
        x0 in 0i64..20, y0 in 0i64..20, w in 1i64..20, h in 1i64..20,
    ) {
        let rect = Rect::new(x0, y0, x0 + w, y0 + h);
        let clipped = rect.intersect(&img.frame());
        prop_assume!(!clipped.is_empty());
        let sub = img.crop(&rect);
        let mut out = GrayImage::zeros(img.width(), img.height());
        out.blit(&sub, clipped.x0, clipped.y0);
        for (x, y) in clipped.pixels_clipped(&img.frame()) {
            prop_assert_eq!(out.get(x as u32, y as u32), img.get(x as u32, y as u32));
        }
    }

    /// Any grid with any offset tiles any image exactly.
    #[test]
    fn grids_always_tile(
        w in 4u32..200, h in 4u32..200,
        xm in 1i64..250, ym in 1i64..250,
        ox in i64::MIN/2..i64::MAX/2, oy in i64::MIN/2..i64::MAX/2,
    ) {
        let grid = PartitionGrid::new(xm, ym, ox, oy);
        let tiles = grid.tiles(w, h);
        let area: i64 = tiles.iter().map(Rect::area).sum();
        prop_assert_eq!(area, i64::from(w) * i64::from(h));
    }

    /// Regular and corner tilings conserve area.
    #[test]
    fn fixed_tilings_conserve_area(
        w in 1u32..300, h in 1u32..300,
        cols in 1u32..8, rows in 1u32..8,
        cx in -10i64..310, cy in -10i64..310,
    ) {
        let r: i64 = regular_tiles(w, h, cols, rows).iter().map(Rect::area).sum();
        prop_assert_eq!(r, i64::from(w) * i64::from(h));
        let c: i64 = corner_tiles(w, h, cx, cy).iter().map(Rect::area).sum();
        prop_assert_eq!(c, i64::from(w) * i64::from(h));
    }

    /// Circle lens area is symmetric, bounded by the smaller disk, and
    /// zero iff the circles are disjoint.
    #[test]
    fn lens_area_properties(
        x1 in 0.0f64..50.0, y1 in 0.0f64..50.0, r1 in 0.5f64..20.0,
        x2 in 0.0f64..50.0, y2 in 0.0f64..50.0, r2 in 0.5f64..20.0,
    ) {
        let a = Circle::new(x1, y1, r1);
        let b = Circle::new(x2, y2, r2);
        let ab = a.intersection_area(&b);
        let ba = b.intersection_area(&a);
        prop_assert!((ab - ba).abs() < 1e-9);
        prop_assert!(ab >= 0.0);
        let min_area = a.area().min(b.area());
        prop_assert!(ab <= min_area + 1e-9);
        if !a.overlaps(&b) {
            prop_assert!(ab.abs() < 1e-12);
        } else if a.centre_distance(&b) + r1.min(r2) * 0.999 < r1.max(r2) {
            // One strictly inside the other: lens = smaller disk.
            prop_assert!((ab - min_area).abs() < 1e-6);
        }
    }
}
