//! Property tests of the incremental tile state: a [`Replica`] that syncs
//! by positional diff always lands on the master's grid, a tile run in
//! place on a replica is the tile run on a standalone crop and keeps its
//! per-circle state exact, and one bucketing pass plans what a scan of
//! every tile would.

use pmcmc_core::tile::eligible_count;
use pmcmc_core::{
    Configuration, Edit, ModelParams, NucleiModel, Replica, TilePlan, TileState, TileWorkspace,
    Xoshiro256,
};
use pmcmc_imaging::{Circle, GrayImage, PartitionGrid, Rect};
use proptest::prelude::*;

const SIZE: u32 = 192;

fn model() -> NucleiModel {
    let img = GrayImage::from_fn(SIZE, SIZE, |x, y| ((x * 31 + y * 17) % 16) as f32 / 16.0);
    NucleiModel::new(&img, ModelParams::new(SIZE, SIZE, 8.0, 8.0))
}

/// Circles anywhere on (and a little off) the image, radii inside the
/// prior's support.
fn arb_circle() -> impl Strategy<Value = Circle> {
    (
        -6.0..f64::from(SIZE) + 6.0,
        -6.0..f64::from(SIZE) + 6.0,
        3.4f64..15.9,
    )
        .prop_map(|(x, y, r)| Circle::new(x, y, r))
}

/// One step of master history: what to do (`kind`), to which slot, with
/// which circle, and whether the replica syncs afterwards.
fn arb_op() -> impl Strategy<Value = (u8, usize, Circle, bool)> {
    (0u8..4, 0usize..64, arb_circle(), any::<bool>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Births, deaths (each a `swap_remove` that renumbers the last
    /// circle), moves and in-place reorderings on the master, with the
    /// replica syncing only now and then: after every sync the replica's
    /// grid is the master's, derived bitsets included.
    #[test]
    fn replica_sync_reaches_the_master_grid_after_arbitrary_gaps(
        initial in prop::collection::vec(arb_circle(), 0..10),
        ops in prop::collection::vec(arb_op(), 1..40),
    ) {
        let model = model();
        let mut master = Configuration::from_circles(&model, &initial);
        let mut replica = Replica::new(&master);
        for (kind, slot, circle, sync) in ops {
            let len = master.len();
            match kind {
                0 => {
                    master.apply(&Edit::add_one(circle), &model);
                }
                1 if len > 0 => {
                    master.apply(&Edit::remove_one(slot % len), &model);
                }
                2 if len > 0 => {
                    master.apply(&Edit::replace_one(slot % len, circle), &model);
                }
                3 if len > 1 => {
                    // Same set, different slots: drop one circle and put
                    // it back, which lands it at the end of the list.
                    let moved = master.circle(slot % len);
                    master.apply(&Edit::replace_one(slot % len, moved), &model);
                }
                _ => {}
            }
            if sync {
                replica.sync(master.circles(), &model.gain);
                prop_assert!(replica.coverage() == master.coverage());
                replica.coverage().assert_derived_state();
            }
        }
        replica.sync(master.circles(), &model.gain);
        prop_assert!(replica.coverage() == master.coverage());
        replica.coverage().assert_derived_state();
    }

    /// The same tile, seed and iteration count on a replica and on a
    /// standalone crop: same moves, same statistics, the same likelihood
    /// delta up to summation order, and on both each eligible circle's
    /// kept overlap and spans match a from-scratch recomputation — and
    /// absorbing the replica's tile brings the master to the replica's
    /// grid.
    #[test]
    fn tile_on_a_replica_is_the_tile_on_a_crop(
        circles in prop::collection::vec(arb_circle(), 1..24),
        cut in 80i64..112,
        right in any::<bool>(),
        iters in 0u64..400,
        seed in any::<u64>(),
    ) {
        let model = model();
        let mut master = Configuration::from_circles(&model, &circles);
        let size = i64::from(SIZE);
        let rect = if right {
            Rect::new(cut, 0, size, size)
        } else {
            Rect::new(0, 0, cut, size)
        };

        let mut on_crop = TileWorkspace::new(&master, &model, rect);
        on_crop.run_local(iters, 0.5, &model, &mut Xoshiro256::new(seed));

        let mut replica = Replica::new(&master);
        let mut on_replica = TileState::of(&master, &model, rect);
        prop_assert_eq!(
            on_replica.eligible_count(),
            eligible_count(master.circles(), &model, rect)
        );
        replica.run_local(&mut on_replica, iters, 0.5, &model, &mut Xoshiro256::new(seed));
        prop_assert_eq!(on_replica.verify_consistency(), Ok(()));
        prop_assert_eq!(on_crop.verify_consistency(), Ok(()));

        prop_assert_eq!(on_replica.updates(), on_crop.updates());
        prop_assert_eq!(&on_replica.stats, &on_crop.stats);
        prop_assert!((on_replica.d_log_lik - on_crop.d_log_lik).abs() < 1e-9);
        prop_assert!((on_replica.d_overlap - on_crop.d_overlap).abs() < 1e-9);
        prop_assert!(on_crop.coverage() == &replica.coverage().crop(rect));

        master.absorb_tile(&on_replica);
        prop_assert!(master.coverage() == replica.coverage());
        prop_assert!(master.verify_consistency(&model).is_ok());
        // The replica recorded its own updates: the next sync is a no-op
        // that still leaves it on the master's grid.
        replica.sync(master.circles(), &model.gain);
        prop_assert!(master.coverage() == replica.coverage());
    }

    /// One pass over the circles buckets each into the tile that contains
    /// its centre, as a scan of every tile with `contains_point` would, in
    /// the same order, with the eligible counts of `eligible_count` — for
    /// random spacings and offsets, with a third of the centres put
    /// exactly on a grid line and some off the image.
    #[test]
    fn one_bucketing_pass_plans_what_a_scan_of_every_tile_finds(
        centres in prop::collection::vec((-8.0f64..200.0, -8.0f64..200.0, 0u8..6, 3.4f64..15.9), 0..60),
        spacing in (1i64..240, 1i64..240),
        offset in (0i64..240, 0i64..240),
    ) {
        let model = model();
        let (xm, ym) = spacing;
        let grid = PartitionGrid::new(xm, ym, offset.0, offset.1);
        let snap = |v: f64, o: i64, m: i64| (((v as i64 - o) / m) * m + o) as f64;
        let circles: Vec<Circle> = centres
            .iter()
            .map(|&(x, y, edge, r)| match edge {
                0 => Circle::new(snap(x, grid.ox, xm), y, r),
                1 => Circle::new(x, snap(y, grid.oy, ym), r),
                _ => Circle::new(x, y, r),
            })
            .collect();
        let mut plan = TilePlan::default();
        // Plan twice, so the second plan runs on the first one's storage.
        plan.plan(&PartitionGrid::new(37, 53, 11, 7), &circles, &model);
        plan.plan(&grid, &circles, &model);
        prop_assert_eq!(plan.rects(), &grid.tiles(SIZE, SIZE)[..]);
        for (t, &rect) in plan.rects().iter().enumerate() {
            let scanned: Vec<usize> = (0..circles.len())
                .filter(|&i| rect.contains_point(circles[i].x, circles[i].y))
                .collect();
            let planned: Vec<usize> = plan.members(t).iter().map(|&(i, _)| i).collect();
            prop_assert_eq!(planned, scanned);
            let eligible = plan.members(t).iter().filter(|&&(_, ok)| ok).count();
            prop_assert_eq!(eligible, plan.eligible_counts()[t]);
            prop_assert_eq!(eligible, eligible_count(&circles, &model, rect));
        }
    }
}
