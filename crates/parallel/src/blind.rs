//! Blind partitioning (§VIII, Fig. 4, §IX).
//!
//! The image is split by a plain grid; each cell is *extended* by an
//! overlap margin so "the largest expected artifact will fit inside", each
//! extended cell runs an independent chain, and a post-processor patches up
//! the seams: detections centred outside their own core cell are dropped,
//! survivors in the overlap band are paired across partitions (centre
//! distance ≤ 5 px in the paper) and averaged, and unpaired overlap-band
//! detections are "disputable" — kept or discarded by policy.

use crate::job::{RunCtx, RunError};
use crate::subchain::{fan_out_chains, run_partition_chain, SubChainOptions, SubChainResult};
use pmcmc_core::rng::derive_seed;
use pmcmc_core::spatial::SpatialGrid;
use pmcmc_core::NucleiModel;
use pmcmc_imaging::{regular_tiles, Circle, GrayImage, Rect};
use pmcmc_runtime::WorkerPool;
use std::time::{Duration, Instant};

/// What to do with overlap-band detections that have no counterpart in the
/// neighbouring partition ("you may wish to accept or discard them
/// depending on whether it is more important to avoid false-positives or
/// not missing potential artifacts").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisputePolicy {
    /// Keep disputable artifacts (favours recall).
    Accept,
    /// Drop disputable artifacts (favours precision).
    Discard,
}

/// Blind-partitioning options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlindOptions {
    /// Grid columns.
    pub cols: u32,
    /// Grid rows.
    pub rows: u32,
    /// Overlap margin as a multiple of the expected radius (paper: 1.1).
    pub margin_factor: f64,
    /// Maximum centre distance for merging duplicates (paper: 5 px).
    pub merge_eps: f64,
    /// Disputable-artifact policy.
    pub dispute: DisputePolicy,
    /// Per-partition chain options.
    pub chain: SubChainOptions,
}

impl Default for BlindOptions {
    fn default() -> Self {
        Self {
            cols: 2,
            rows: 2,
            margin_factor: 1.1,
            merge_eps: 5.0,
            dispute: DisputePolicy::Accept,
            chain: SubChainOptions::default(),
        }
    }
}

/// One partition's outcome plus its core/extended geometry.
#[derive(Debug, Clone)]
pub struct BlindPartition {
    /// Core cell (the "dotted line" quartering).
    pub core: Rect,
    /// Extended cell actually processed.
    pub extended: Rect,
    /// The chain outcome on the extended cell.
    pub chain: SubChainResult,
}

/// Result of the blind-partitioning pipeline.
#[derive(Debug, Clone)]
pub struct BlindResult {
    /// Per-partition outcomes (row-major grid order).
    pub partitions: Vec<BlindPartition>,
    /// Final merged configuration.
    pub merged: Vec<Circle>,
    /// Number of cross-partition duplicate pairs that were averaged.
    pub merged_pairs: usize,
    /// Number of disputable artifacts encountered.
    pub disputed: usize,
    /// Wall time of the parallel chain stage.
    pub chains_time: Duration,
    /// Wall time of the merge post-processor.
    pub merge_time: Duration,
}

impl BlindResult {
    /// End-to-end runtime.
    #[must_use]
    pub fn total_time(&self) -> Duration {
        self.chains_time + self.merge_time
    }
}

/// Runs the blind-partitioning pipeline on `img`, whose prebuilt
/// full-image model is `full` (each partition chain builds its sub-model
/// on its crop of `img` with `full`'s parameters). Phase and per-partition progress
/// events are emitted through `ctx` (progress counts completed partitions)
/// and its cancel token / deadline propagate into every partition chain.
///
/// # Errors
/// [`RunError::Cancelled`] / [`RunError::DeadlineExceeded`] when the
/// context stops the run; `completed_iterations` sums the iterations the
/// partition chains had executed before winding down.
pub fn run_blind(
    full: &NucleiModel,
    img: &GrayImage,
    opts: &BlindOptions,
    pool: &WorkerPool,
    seed: u64,
    ctx: &RunCtx,
) -> Result<BlindResult, RunError> {
    let radius_mean = full.params.radius_prior.mu;
    let (cores, extended) = grid_cells(img, opts.cols, opts.rows, opts.margin_factor, radius_mean);

    let t0 = Instant::now();
    ctx.phase("chains");
    let cells = extended.iter().map(|&e| (e.area() as f64, e)).collect();
    let chains = fan_out_chains(cells, pool, ctx, |i, ext| {
        let chain_seed = derive_seed(seed, i as u64);
        run_partition_chain(full, img, ext, &opts.chain, chain_seed, ctx)
    })?;
    let chains_time = t0.elapsed();

    let t1 = Instant::now();
    ctx.phase("merge");
    let detections: Vec<&[Circle]> = chains.iter().map(|c| c.detected.as_slice()).collect();
    let outcome = merge_sources(&cores, &extended, &detections, opts.merge_eps, opts.dispute);
    let merge_time = t1.elapsed();

    let partitions = cores
        .into_iter()
        .zip(extended)
        .zip(chains)
        .map(|((core, extended), chain)| BlindPartition {
            core,
            extended,
            chain,
        })
        .collect();
    Ok(BlindResult {
        partitions,
        merged: outcome.merged,
        merged_pairs: outcome.merged_pairs,
        disputed: outcome.disputed,
        chains_time,
        merge_time,
    })
}

/// The blind grid over `img`: the `cols × rows` core cells, and the cells
/// actually processed — each core inflated by the overlap margin
/// (`margin_factor` expected radii, so "the largest expected artifact will
/// fit inside") and clipped to the image frame.
fn grid_cells(
    img: &GrayImage,
    cols: u32,
    rows: u32,
    margin_factor: f64,
    radius_mean: f64,
) -> (Vec<Rect>, Vec<Rect>) {
    let frame = img.frame();
    let cores = regular_tiles(img.width(), img.height(), cols, rows);
    let margin = (margin_factor * radius_mean).ceil() as i64;
    let extended = cores
        .iter()
        .map(|c| c.inflate(margin).intersect(&frame))
        .collect();
    (cores, extended)
}

/// Blind partitioning's seam post-processor. `detections[i]` are source
/// `i`'s detections in global coordinates, found on `extended[i]` around
/// `cores[i]`.
///
/// Step 1, the per-source core filter ("beads whose centre is not inside
/// the dotted line ... are deleted from each partition's model"), applied
/// with a tolerance of `merge_eps`: a detection of an artifact sitting
/// exactly on a quartering line can land on the far side of the line in
/// *every* source's estimate, in which case the literal rule deletes all
/// copies of a real artifact. Keeping near-core detections and letting the
/// duplicate clustering collapse them fixes that knife-edge without
/// affecting interior artifacts (documented deviation, see DESIGN.md).
///
/// Step 2: survivors in the overlap area (inside some *other* source's
/// extended cell — a detection always lies in its own) are clustered
/// across sources by [`cluster_duplicates`]; unpaired ones are disputable.
#[must_use]
pub fn merge_sources(
    cores: &[Rect],
    extended: &[Rect],
    detections: &[&[Circle]],
    merge_eps: f64,
    dispute: DisputePolicy,
) -> MergeOutcome {
    let tolerance = merge_eps.ceil() as i64;
    let mut candidates: Vec<MergeCandidate> = Vec::new();
    for (source, (core, found)) in cores.iter().zip(detections).enumerate() {
        let tolerant = core.inflate(tolerance);
        for &circle in found.iter() {
            if !tolerant.contains_point(circle.x, circle.y) {
                continue;
            }
            let in_overlap = extended
                .iter()
                .enumerate()
                .any(|(q, ext)| q != source && ext.contains_point(circle.x, circle.y));
            candidates.push(MergeCandidate {
                source,
                circle,
                in_overlap,
            });
        }
    }
    cluster_duplicates(&candidates, merge_eps, dispute == DisputePolicy::Accept)
}

/// One detection entering the cross-partition duplicate merge: which
/// partition (or cluster node) produced it, where it sits in global
/// coordinates, and whether it lies in a region covered by more than one
/// source (the "overlap band" where duplicates and disputes can occur).
#[derive(Debug, Clone, Copy)]
pub struct MergeCandidate {
    /// Index of the producing partition/node.
    pub source: usize,
    /// The detection, in global coordinates.
    pub circle: Circle,
    /// Whether the detection lies in a multiply-covered overlap region.
    pub in_overlap: bool,
}

/// Outcome of [`cluster_duplicates`].
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// The merged detection set, in deterministic order.
    pub merged: Vec<Circle>,
    /// Number of cross-source duplicate pairs that were averaged away.
    pub merged_pairs: usize,
    /// Number of disputable artifacts encountered (unpaired overlap-band
    /// detections).
    pub disputed: usize,
}

/// The §VIII duplicate-clustering post-processor of blind partitioning:
/// overlap
/// detections from *different* sources within `eps` of each other are
/// clustered with union-find (an artifact on a 4-way corner appears in up
/// to four models) and each cluster is "replaced with a bead with
/// centerpoint and radii that are the average" of its members. Unpaired
/// overlap detections are disputable — kept when `keep_disputed`, dropped
/// otherwise — and detections outside any overlap pass through untouched.
///
/// Candidate pairs are found through a [`SpatialGrid`] bucketed by `eps`,
/// so the scan is O(n · neighbours) instead of all-pairs O(n²); the
/// all-pairs reference lives on as a test oracle and a proptest pins exact
/// agreement between the two.
#[must_use]
pub fn cluster_duplicates(
    candidates: &[MergeCandidate],
    eps: f64,
    keep_disputed: bool,
) -> MergeOutcome {
    let mut uf = UnionFind::new(candidates.len());
    // Bucket overlap-band candidates by eps; the grid clamps out-of-range
    // centres, so any global coordinates are safe and `for_neighbors`
    // stays a conservative superset of the true ≤ eps pairs.
    let (mut max_x, mut max_y) = (1.0f64, 1.0f64);
    for c in candidates {
        max_x = max_x.max(c.circle.x);
        max_y = max_y.max(c.circle.y);
    }
    let clamp_dim = |v: f64| (v.ceil() + 1.0).min(f64::from(u32::MAX)) as u32;
    let mut grid = SpatialGrid::new(clamp_dim(max_x), clamp_dim(max_y), eps.max(1.0));
    for (i, c) in candidates.iter().enumerate() {
        if c.in_overlap {
            grid.insert(i, &c.circle);
        }
    }
    for (i, ci) in candidates.iter().enumerate() {
        if !ci.in_overlap {
            continue;
        }
        grid.for_neighbors(ci.circle.x, ci.circle.y, eps, |j| {
            // Each unordered pair once; the grid only holds overlap-band
            // candidates, so only the exact filters remain.
            if j > i
                && candidates[j].source != ci.source
                && ci.circle.centre_distance(&candidates[j].circle) <= eps
            {
                uf.union(i, j);
            }
        });
    }
    finalize_clusters(candidates, &mut uf, keep_disputed)
}

/// Reference all-pairs implementation of [`cluster_duplicates`]: the
/// oracle for the exact-agreement property tests and executable
/// documentation of the merge semantics.
#[cfg(test)]
fn cluster_duplicates_naive(
    candidates: &[MergeCandidate],
    eps: f64,
    keep_disputed: bool,
) -> MergeOutcome {
    let n = candidates.len();
    let mut uf = UnionFind::new(n);
    for i in 0..n {
        if !candidates[i].in_overlap {
            continue;
        }
        for j in i + 1..n {
            if !candidates[j].in_overlap || candidates[i].source == candidates[j].source {
                continue;
            }
            if candidates[i].circle.centre_distance(&candidates[j].circle) <= eps {
                uf.union(i, j);
            }
        }
    }
    finalize_clusters(candidates, &mut uf, keep_disputed)
}

/// Union-find over candidate indices (path compression, union by root
/// value only — the cluster *sets* are what matters; the finalizer
/// canonicalises away any dependence on union order).
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, i: usize, j: usize) {
        let (ri, rj) = (self.find(i), self.find(j));
        if ri != rj {
            self.parent[ri] = rj;
        }
    }
}

/// Shared finalizer: groups candidates by cluster, orders clusters by
/// their smallest member index and averages members in ascending index
/// order, so the output (including every f64 summation order) is
/// identical no matter how the ≤ eps pairs were discovered or in which
/// order they were unioned.
fn finalize_clusters(
    candidates: &[MergeCandidate],
    uf: &mut UnionFind,
    keep_disputed: bool,
) -> MergeOutcome {
    let mut clusters: std::collections::HashMap<usize, Vec<usize>> =
        std::collections::HashMap::new();
    for i in 0..candidates.len() {
        let root = uf.find(i);
        // Members arrive in ascending index order.
        clusters.entry(root).or_default().push(i);
    }
    let mut groups: Vec<Vec<usize>> = clusters.into_values().collect();
    // Canonical order: by smallest member index, which is independent of
    // which member ended up as the union-find root.
    groups.sort_unstable_by_key(|members| members[0]);

    let mut merged = Vec::new();
    let mut merged_pairs = 0usize;
    let mut disputed = 0usize;
    for members in &groups {
        if members.len() > 1 {
            let k = members.len() as f64;
            let (sx, sy, sr) = members.iter().fold((0.0, 0.0, 0.0), |acc, &i| {
                let c = candidates[i].circle;
                (acc.0 + c.x, acc.1 + c.y, acc.2 + c.r)
            });
            merged.push(Circle::new(sx / k, sy / k, sr / k));
            merged_pairs += members.len() - 1;
        } else {
            let c = candidates[members[0]];
            if c.in_overlap {
                disputed += 1;
                if keep_disputed {
                    merged.push(c.circle);
                }
            } else {
                merged.push(c.circle);
            }
        }
    }
    MergeOutcome {
        merged,
        merged_pairs,
        disputed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcmc_core::{ModelParams, Xoshiro256};
    use pmcmc_imaging::synth::{generate, SceneSpec};

    /// A scene with circles deliberately placed on the quartering lines.
    fn boundary_scene(size: u32, seed: u64) -> (GrayImage, Vec<Circle>) {
        let half = f64::from(size) / 2.0;
        let mut circles = vec![
            // Dead centre: straddles all four quadrants.
            Circle::new(half, half, 8.0),
            // On the vertical line.
            Circle::new(half, half / 2.0, 8.0),
            // On the horizontal line.
            Circle::new(half / 3.0, half, 8.0),
        ];
        // Plus some interior circles.
        let spec = SceneSpec {
            width: size,
            height: size,
            n_circles: 6,
            radius_mean: 8.0,
            radius_sd: 0.4,
            radius_min: 5.0,
            radius_max: 12.0,
            noise_sd: 0.04,
            border_margin: 20.0,
            ..SceneSpec::default()
        };
        let mut rng = Xoshiro256::new(seed);
        let mut scene = generate(&spec, &mut rng);
        // Keep generated circles away from the planted boundary ones.
        scene.circles.retain(|c| {
            circles
                .iter()
                .all(|b| c.centre_distance(b) > 2.5 * (c.r + b.r))
        });
        circles.extend(scene.circles.iter().copied());
        scene.circles = circles.clone();
        let img = scene.render(&mut rng);
        (img, circles)
    }

    #[test]
    fn extended_cells_overlap_cores_by_margin() {
        let img = GrayImage::filled(200, 200, 0.1);
        let full = NucleiModel::new(&img, ModelParams::new(200, 200, 4.0, 8.0));
        let pool = WorkerPool::new(2);
        let opts = BlindOptions {
            chain: SubChainOptions {
                max_iters: 2_000,
                ..SubChainOptions::default()
            },
            ..BlindOptions::default()
        };
        let res = run_blind(&full, &img, &opts, &pool, 1, &RunCtx::default()).unwrap();
        assert_eq!(res.partitions.len(), 4);
        let margin = (1.1 * 8.0f64).ceil() as i64;
        for p in &res.partitions {
            assert_eq!(
                p.extended,
                p.core.inflate(margin).intersect(&Rect::new(0, 0, 200, 200))
            );
        }
        assert!(res.merged.is_empty(), "dark image yields no artifacts");
    }

    #[test]
    fn boundary_artifacts_found_once_after_merge() {
        let (img, truth) = boundary_scene(256, 3);
        let full = NucleiModel::new(&img, ModelParams::new(256, 256, truth.len() as f64, 8.0));
        let pool = WorkerPool::new(4);
        let opts = BlindOptions {
            chain: SubChainOptions {
                max_iters: 60_000,
                ..SubChainOptions::default()
            },
            ..BlindOptions::default()
        };
        let res = run_blind(&full, &img, &opts, &pool, 11, &RunCtx::default()).unwrap();
        let m = pmcmc_core::match_circles(&truth, &res.merged, 5.0);
        assert!(
            m.recall() >= 0.7,
            "recall {} ({} merged / {} truth)",
            m.recall(),
            res.merged.len(),
            truth.len()
        );
        assert!(
            m.duplicates.len() <= 1,
            "{} duplicate detections survived the merge",
            m.duplicates.len()
        );
        // No two merged circles from different partitions sit within eps.
        for (i, a) in res.merged.iter().enumerate() {
            for b in res.merged.iter().skip(i + 1) {
                assert!(a.centre_distance(b) > 1.0, "coincident circles after merge");
            }
        }
    }

    #[test]
    fn discard_policy_drops_disputables() {
        let (img, truth) = boundary_scene(256, 5);
        let full = NucleiModel::new(&img, ModelParams::new(256, 256, truth.len() as f64, 8.0));
        let pool = WorkerPool::new(4);
        let ctx = RunCtx::default();
        let mk = |dispute| BlindOptions {
            dispute,
            chain: SubChainOptions {
                max_iters: 40_000,
                ..SubChainOptions::default()
            },
            ..BlindOptions::default()
        };
        let acc = run_blind(&full, &img, &mk(DisputePolicy::Accept), &pool, 21, &ctx).unwrap();
        let dis = run_blind(&full, &img, &mk(DisputePolicy::Discard), &pool, 21, &ctx).unwrap();
        // Same seed → identical chains → identical disputable sets; the
        // policies differ exactly by whether those are kept.
        assert_eq!(acc.disputed, dis.disputed);
        assert_eq!(acc.merged.len(), dis.merged.len() + dis.disputed);
    }

    fn assert_outcomes_bit_identical(a: &MergeOutcome, b: &MergeOutcome) {
        assert_eq!(a.merged_pairs, b.merged_pairs, "merged_pairs differ");
        assert_eq!(a.disputed, b.disputed, "disputed differ");
        assert_eq!(a.merged.len(), b.merged.len(), "merged set size differs");
        for (i, (ca, cb)) in a.merged.iter().zip(&b.merged).enumerate() {
            assert_eq!(ca.x.to_bits(), cb.x.to_bits(), "x differs at {i}");
            assert_eq!(ca.y.to_bits(), cb.y.to_bits(), "y differs at {i}");
            assert_eq!(ca.r.to_bits(), cb.r.to_bits(), "r differs at {i}");
        }
    }

    #[test]
    fn spatial_and_naive_merge_agree_on_corner_cluster() {
        // Four near-coincident detections on a 4-way corner from four
        // different sources, plus a lone disputed one and pass-throughs.
        let mk = |source, x: f64, y: f64, in_overlap| MergeCandidate {
            source,
            circle: Circle::new(x, y, 8.0),
            in_overlap,
        };
        let candidates = vec![
            mk(0, 128.0, 128.0, true),
            mk(1, 129.2, 127.6, true),
            mk(2, 127.1, 128.9, true),
            mk(3, 128.4, 129.3, true),
            mk(0, 40.0, 40.0, false),
            mk(2, 200.0, 50.0, true), // unpaired → disputed
            mk(3, 60.0, 190.0, false),
        ];
        for keep in [false, true] {
            let fast = cluster_duplicates(&candidates, 5.0, keep);
            let naive = cluster_duplicates_naive(&candidates, 5.0, keep);
            assert_outcomes_bit_identical(&fast, &naive);
            assert_eq!(fast.merged_pairs, 3, "4-way corner collapses to one");
            assert_eq!(fast.disputed, 1);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The spatial-hash pair scan and the all-pairs reference produce
        /// bit-identical merge outcomes (same clusters, same averaging
        /// order) over arbitrary candidate soups — including coincident
        /// centres, out-of-image coordinates and same-source near-pairs.
        #[test]
        fn spatial_hash_merge_matches_naive(
            eps in 0.5f64..12.0,
            keep in proptest::prelude::any::<bool>(),
            raw in proptest::collection::vec(
                (0usize..4, -20.0f64..532.0, -20.0f64..532.0, 1.0f64..15.0,
                 proptest::prelude::any::<bool>()),
                0..60,
            ),
        ) {
            let candidates: Vec<MergeCandidate> = raw
                .into_iter()
                .map(|(source, x, y, r, in_overlap)| MergeCandidate {
                    source,
                    circle: Circle::new(x, y, r),
                    in_overlap,
                })
                .collect();
            let fast = cluster_duplicates(&candidates, eps, keep);
            let naive = cluster_duplicates_naive(&candidates, eps, keep);
            assert_outcomes_bit_identical(&fast, &naive);
        }
    }
}
