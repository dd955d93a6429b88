//! Property-based tests over the public API: the structural invariants
//! DESIGN.md §7 commits to, exercised with randomly generated inputs.

use pmcmc::core::config::Edit;
use pmcmc::core::moves::propose;
use pmcmc::core::sampler::evaluate_proposal;
use pmcmc::prelude::*;
use proptest::prelude::*;

fn small_model(w: u32, h: u32) -> NucleiModel {
    let img = GrayImage::from_fn(w, h, |x, y| ((x * 31 + y * 17) % 16) as f32 / 16.0);
    let params = ModelParams::new(w, h, 5.0, 8.0);
    NucleiModel::new(&img, params)
}

fn arb_circle(w: u32, h: u32) -> impl Strategy<Value = Circle> {
    (
        0.0..f64::from(w),
        0.0..f64::from(h),
        3.4f64..15.9, // inside the radius prior's support for r_mean=8
    )
        .prop_map(|(x, y, r)| Circle::new(x, y, r))
}

/// Circles designed to stress the span kernel: centres may sit outside the
/// image (border-clipped disks), radii range from sub-pixel (empty or
/// single-pixel spans) to larger than half the image (spans crossing many
/// bitset words and clipping on both sides).
fn arb_kernel_circle(w: u32, h: u32) -> impl Strategy<Value = Circle> {
    (
        -12.0..f64::from(w) + 12.0,
        -12.0..f64::from(h) + 12.0,
        0.0f64..3.0,
    )
        .prop_map(|(x, y, t)| {
            // Piecewise radius: sub-pixel, typical, or image-scale.
            let r = if t < 1.0 {
                0.2 + t * 1.3
            } else if t < 2.0 {
                1.5 + (t - 1.0) * 14.5
            } else {
                40.0 + (t - 2.0) * 30.0
            };
            Circle::new(x, y, r)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Applying an edit and then its inverse restores every cache.
    #[test]
    fn apply_revert_roundtrip(
        circles in prop::collection::vec(arb_circle(96, 96), 1..12),
        remove_idx in 0usize..12,
        new_circle in arb_circle(96, 96),
    ) {
        let model = small_model(96, 96);
        let mut cfg = Configuration::from_circles(&model, &circles);
        let lik0 = cfg.log_lik();
        let ov0 = cfg.overlap_area();
        let len0 = cfg.len();
        let edit = Edit {
            remove: vec![remove_idx % circles.len()],
            add: vec![new_circle],
        };
        let receipt = cfg.apply(&edit, &model);
        cfg.revert(&receipt, &model);
        prop_assert_eq!(cfg.len(), len0);
        prop_assert!((cfg.log_lik() - lik0).abs() < 1e-6);
        prop_assert!((cfg.overlap_area() - ov0).abs() < 1e-6);
        cfg.verify_consistency(&model).map_err(TestCaseError::fail)?;
    }

    /// The read-only evaluation equals the apply-based deltas for random
    /// proposals from random states.
    #[test]
    fn readonly_evaluation_matches_apply(
        circles in prop::collection::vec(arb_circle(96, 96), 1..10),
        seed in 0u64..10_000,
    ) {
        let model = small_model(96, 96);
        let mut cfg = Configuration::from_circles(&model, &circles);
        let mut rng = Xoshiro256::new(seed);
        let weights = MoveWeights::default();
        for _ in 0..10 {
            let kind = weights.sample(&mut rng);
            let Some(proposal) = propose(kind, &cfg, &model, &weights, &mut rng) else {
                continue;
            };
            if !proposal.edit.add.iter().all(|c| model.params.in_support(c)) {
                continue;
            }
            let eval = evaluate_proposal(&cfg, &model, &proposal);
            let ro_lik = cfg.delta_log_lik_readonly(&proposal.edit, &model);
            let receipt = cfg.apply(&proposal.edit, &model);
            prop_assert!((ro_lik - receipt.d_log_lik).abs() < 1e-9);
            prop_assert!(eval.d_log_posterior.is_finite());
            cfg.revert(&receipt, &model);
        }
    }

    /// Partition grids tile the image: every pixel in exactly one tile.
    #[test]
    fn grid_tiles_partition_pixels(
        xm in 8i64..200,
        ym in 8i64..200,
        ox in 0i64..200,
        oy in 0i64..200,
    ) {
        let (w, h) = (160u32, 120u32);
        let grid = PartitionGrid::new(xm, ym, ox, oy);
        let tiles = grid.tiles(w, h);
        let total: i64 = tiles.iter().map(Rect::area).sum();
        prop_assert_eq!(total, i64::from(w) * i64::from(h));
        for (i, a) in tiles.iter().enumerate() {
            for b in tiles.iter().skip(i + 1) {
                prop_assert!(!a.intersects(b));
            }
        }
        // Spot-check tile_of agreement on a lattice of points.
        for py in (0..h as i64).step_by(17) {
            for px in (0..w as i64).step_by(13) {
                let (x, y) = (px as f64 + 0.5, py as f64 + 0.5);
                let idx = grid.tile_of(x, y, w, h).expect("inside image");
                prop_assert!(tiles[idx].contains_point(x, y));
            }
        }
    }

    /// Tile-workspace eligibility is exactly the §V safeguard predicate,
    /// and eligible circles of disjoint tiles are disjoint.
    #[test]
    fn tile_eligibility_safeguard(
        circles in prop::collection::vec(arb_circle(128, 128), 1..15),
        cut_x in 32i64..96,
        cut_y in 32i64..96,
    ) {
        let model = small_model(128, 128);
        let cfg = Configuration::from_circles(&model, &circles);
        let margin = model.interaction_margin();
        let tiles = [
            Rect::new(0, 0, cut_x, cut_y),
            Rect::new(cut_x, 0, 128, cut_y),
            Rect::new(0, cut_y, cut_x, 128),
            Rect::new(cut_x, cut_y, 128, 128),
        ];
        let mut eligible_total = 0usize;
        for tile in tiles {
            let ws = pmcmc::core::TileWorkspace::new(&cfg, &model, tile);
            eligible_total += ws.eligible_count();
            // The workspace's eligible count matches a direct scan.
            let direct = circles
                .iter()
                .filter(|c| tile.contains_point(c.x, c.y) && tile.contains_circle(c, margin))
                .count();
            prop_assert_eq!(ws.eligible_count(), direct);
        }
        // No circle can be eligible in two disjoint tiles.
        prop_assert!(eligible_total <= circles.len());
    }

    /// Matching invariants: every truth/detection appears in exactly one
    /// outcome bucket, and scores stay in [0, 1].
    #[test]
    fn matching_partitions_inputs(
        truth in prop::collection::vec(arb_circle(128, 128), 0..10),
        detected in prop::collection::vec(arb_circle(128, 128), 0..10),
    ) {
        let m = match_circles(&truth, &detected, 6.0);
        prop_assert_eq!(m.matches.len() + m.missed.len(), truth.len());
        prop_assert_eq!(
            m.matches.len() + m.duplicates.len() + m.spurious.len(),
            detected.len()
        );
        for &(ti, di, d) in &m.matches {
            prop_assert!(ti < truth.len() && di < detected.len());
            prop_assert!(d <= 6.0);
        }
        prop_assert!((0.0..=1.0).contains(&m.precision()));
        prop_assert!((0.0..=1.0).contains(&m.recall()));
        prop_assert!((0.0..=1.0).contains(&m.f1()));
    }

    /// Largest-remainder allocation: exact total, near-proportionality.
    #[test]
    fn allocation_is_exact_and_fair(
        total in 0u64..100_000,
        weights in prop::collection::vec(0.0f64..100.0, 1..12),
    ) {
        let parts = pmcmc::parallel::periodic::largest_remainder_allocation(total, &weights);
        let sum: f64 = weights.iter().sum();
        prop_assert_eq!(parts.len(), weights.len());
        if sum > 0.0 {
            prop_assert_eq!(parts.iter().sum::<u64>(), total);
            for (p, w) in parts.iter().zip(weights.iter()) {
                let exact = total as f64 * w / sum;
                prop_assert!((*p as f64 - exact).abs() <= 1.0 + 1e-9);
            }
        } else {
            prop_assert_eq!(parts.iter().sum::<u64>(), 0);
        }
    }

    /// The intelligent partitioner always tiles the image exactly,
    /// whatever the mask looks like.
    #[test]
    fn intelligent_partitioner_tiles_exactly(seed in 0u64..1000) {
        let mut rng = Xoshiro256::new(seed);
        let img = GrayImage::from_fn(96, 80, |_, _| {
            if rand::Rng::gen::<f64>(&mut rng) < 0.03 { 0.9 } else { 0.1 }
        });
        let (rects, _) = IntelligentPartitioner::default().partition(&img);
        let total: i64 = rects.iter().map(Rect::area).sum();
        prop_assert_eq!(total, 96 * 80);
        for (i, a) in rects.iter().enumerate() {
            for b in rects.iter().skip(i + 1) {
                prop_assert!(!a.intersects(b));
            }
        }
    }

    /// The span kernel's prefix/bitset fast paths agree with a
    /// from-first-principles per-pixel scalar evaluation of the same edit
    /// (≤ 1e-9), over circle sets that include border-clipped, sub-pixel
    /// and large-radius disks.
    #[test]
    fn span_fastpath_matches_scalar_walk(
        circles in prop::collection::vec(arb_kernel_circle(96, 96), 0..10),
        removes in prop::collection::vec(0usize..10, 0..3),
        adds in prop::collection::vec(arb_kernel_circle(96, 96), 0..3),
    ) {
        let model = small_model(96, 96);
        let cfg = Configuration::from_circles(&model, &circles);
        let mut remove: Vec<usize> = removes
            .iter()
            .filter(|_| !circles.is_empty())
            .map(|&i| i % circles.len())
            .collect();
        remove.sort_unstable();
        remove.dedup();
        let edit = Edit { remove, add: adds };
        let fast = cfg.delta_log_lik_readonly(&edit, &model);
        // Scalar reference: per-pixel pre/post coverage over the image.
        let removed: Vec<Circle> = edit.remove.iter().map(|&i| circles[i]).collect();
        let mut scalar = 0.0f64;
        for y in 0..96i64 {
            for x in 0..96i64 {
                let count = i64::from(cfg.coverage().count(x, y));
                let minus = removed.iter().filter(|c| c.covers_pixel(x, y)).count() as i64;
                let plus = edit.add.iter().filter(|c| c.covers_pixel(x, y)).count() as i64;
                let pre = count > 0;
                let post = count - minus + plus > 0;
                if pre != post {
                    let g = model.gain.get(x as u32, y as u32);
                    scalar += if post { g } else { -g };
                }
            }
        }
        prop_assert!(
            (fast - scalar).abs() < 1e-9,
            "span kernel {} vs scalar {} (edit {:?})",
            fast,
            scalar,
            edit
        );
    }

    /// Adding a disk and removing it again is an exact identity on the
    /// bitset coverage grid: counts, bitsets, covered counter and the
    /// summed log-likelihood deltas all return to the starting state.
    #[test]
    fn coverage_add_then_remove_identity(
        base in prop::collection::vec(arb_kernel_circle(96, 96), 0..8),
        extra in arb_kernel_circle(96, 96),
    ) {
        let model = small_model(96, 96);
        let frame = Rect::new(0, 0, 96, 96);
        let (mut grid, _) = pmcmc::core::coverage::CoverageGrid::from_circles(
            frame, &base, &model.gain,
        );
        grid.assert_derived_state();
        let before = grid.clone();
        let covered_before = grid.covered_pixels();
        let d_add = grid.add_circle(&extra, &model.gain);
        grid.assert_derived_state();
        let d_rem = grid.remove_circle(&extra, &model.gain);
        grid.assert_derived_state();
        prop_assert!((d_add + d_rem).abs() < 1e-9);
        prop_assert_eq!(grid.covered_pixels(), covered_before);
        prop_assert_eq!(&grid, &before);
    }

    /// A cloned `BatchedRng` is an exact snapshot of the word stream no
    /// matter where inside the buffer the clone is taken (mid-buffer or
    /// right on a refill boundary), and no matter how the original
    /// interleaves burst-amortised `top_up` calls afterwards: both must
    /// replay the identical delivered sequence.
    #[test]
    fn batched_rng_clone_snapshots_replay_identically(
        seed in 0u64..1_000_000,
        pre in 0usize..200,
        top_up_every in prop::collection::vec(1usize..40, 0..6),
    ) {
        use rand::RngCore;
        use pmcmc::core::rng::{BatchedRng, Xoshiro256};
        let mut original = BatchedRng::new(Xoshiro256::new(seed));
        for _ in 0..pre {
            original.next_u64();
        }
        let mut snapshot = original.clone();
        // The original keeps topping its buffer up mid-stream; the
        // snapshot drains plain refills. Streams must stay equal.
        let mut drawn = 0usize;
        for &stride in &top_up_every {
            original.top_up();
            for _ in 0..stride {
                prop_assert_eq!(original.next_u64(), snapshot.next_u64());
                drawn += 1;
            }
        }
        // Push both well past the next refill boundary.
        for _ in drawn..200 {
            prop_assert_eq!(original.next_u64(), snapshot.next_u64());
        }
    }

    /// The lane kernels agree with the portable scalar fallback on every
    /// chunk length and count mix — masks equal bit for bit, and the
    /// mask-ordered gain sums equal to the last bit (`to_bits`), which is
    /// the property the byte-identical determinism suite stands on.
    #[test]
    fn simd_kernels_bit_identical_to_scalar(
        counts in prop::collection::vec(0u16..5, 0..65),
        net in -4i64..5,
    ) {
        use pmcmc::core::simd::{self, backend, force_backend, Backend};
        let gains: Vec<f64> = (0..counts.len())
            .map(|k| (k as f64) * 0.173 - 4.2)
            .collect();
        let detected = backend();
        let run = |b: Backend| {
            force_backend(b);
            let mut inc = counts.clone();
            let inc_masks = simd::inc_counts(&mut inc);
            let mut dec: Vec<u16> = counts.iter().map(|&c| c + 1).collect();
            let dec_masks = simd::dec_counts(&mut dec);
            (
                inc_masks,
                inc,
                dec_masks,
                dec,
                simd::eq_mask(&counts, 1),
                simd::range_mask(&counts, 1, 3),
                simd::occupancy_masks(&counts),
                simd::sum_gain_flips(&counts, &gains, net).to_bits(),
            )
        };
        let scalar = run(Backend::Scalar);
        let vector = run(Backend::Avx2);
        force_backend(detected);
        prop_assert_eq!(scalar, vector);
    }

    /// Speculative theory functions: fraction in (0, 1], consistent with
    /// iterations-per-round.
    #[test]
    fn speculative_theory_bounds(pr in 0.0f64..0.999, n in 1usize..64) {
        let f = pmcmc::parallel::theory::speculative_fraction(pr, n);
        prop_assert!(f > 0.0 && f <= 1.0 + 1e-12);
        let ipr = pmcmc::parallel::theory::speculative_iters_per_round(pr, n);
        prop_assert!((f * ipr - 1.0).abs() < 1e-9);
        prop_assert!(ipr <= n as f64 + 1e-9);
    }
}
