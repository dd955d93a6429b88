//! The naive divide-and-conquer baseline the paper argues *against*.
//!
//! §I/§II: "'naively' dividing an image into smaller images to be processed
//! separately results in anomalies and breaks the statistical validity of
//! the MCMC algorithm ... artifacts that intersect with a partition
//! boundary may be found twice (once in each half of the image), be poorly
//! identified ..., or not be found at all."
//!
//! This driver partitions with a plain grid, **no overlap margin and no
//! merge heuristics**, and (optionally) assigns each partition the
//! "incorrectly assumed constant density" prior `λ/n` instead of the
//! eq. (5) estimate. Benches compare its anomaly counts against blind
//! partitioning on the same scenes.

use crate::job::{RunCtx, RunError};
use crate::subchain::{
    fan_out_chains, partition_model, run_partition_chain, SubChainOptions, SubChainResult,
};
use pmcmc_core::rng::derive_seed;
use pmcmc_core::NucleiModel;
use pmcmc_imaging::{regular_tiles, Circle, GrayImage};
use pmcmc_runtime::WorkerPool;
use std::time::{Duration, Instant};

/// How the naive baseline assigns per-partition expected counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NaivePrior {
    /// `λ / n_partitions` — the uniform-density assumption §VIII warns
    /// about.
    UniformSplit,
    /// The eq. (5) threshold estimate (isolates boundary anomalies from
    /// prior misallocation).
    DensityEstimate,
}

/// Naive-partitioning options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NaiveOptions {
    /// Grid columns.
    pub cols: u32,
    /// Grid rows.
    pub rows: u32,
    /// Prior-allocation strategy.
    pub prior: NaivePrior,
    /// Per-partition chain options.
    pub chain: SubChainOptions,
}

impl Default for NaiveOptions {
    fn default() -> Self {
        Self {
            cols: 2,
            rows: 2,
            prior: NaivePrior::DensityEstimate,
            chain: SubChainOptions::default(),
        }
    }
}

/// Result of the naive pipeline.
#[derive(Debug, Clone)]
pub struct NaiveResult {
    /// Per-partition chain outcomes.
    pub partitions: Vec<SubChainResult>,
    /// Plain concatenation of all detections.
    pub merged: Vec<Circle>,
    /// Wall time of the parallel chain stage.
    pub chains_time: Duration,
}

/// Runs the naive baseline on `img`, whose prebuilt full-image model is
/// `full` (each partition chain builds its sub-model on its crop of `img`
/// with `full`'s parameters). Phase and per-partition progress events are
/// emitted through `ctx` (progress counts completed partitions) and its
/// cancel token / deadline propagate into every partition chain.
///
/// # Errors
/// [`RunError::Cancelled`] / [`RunError::DeadlineExceeded`] when the
/// context stops the run; `completed_iterations` sums the iterations the
/// partition chains had executed before winding down.
pub fn run_naive(
    full: &NucleiModel,
    img: &GrayImage,
    opts: &NaiveOptions,
    pool: &WorkerPool,
    seed: u64,
    ctx: &RunCtx,
) -> Result<NaiveResult, RunError> {
    let tiles = regular_tiles(img.width(), img.height(), opts.cols, opts.rows);
    let n = tiles.len();
    let t0 = Instant::now();
    ctx.phase("chains");
    let cells = tiles.iter().map(|&r| (r.area() as f64, r)).collect();
    let partitions = fan_out_chains(cells, pool, ctx, |i, rect| {
        let chain_seed = derive_seed(seed, i as u64);
        let mut res = run_partition_chain(full, img, rect, &opts.chain, chain_seed, ctx);
        if opts.prior == NaivePrior::UniformSplit {
            // Re-run with the misallocated prior: the point of this
            // branch is to reproduce the failure mode — the uniform
            // `λ/n` split replaces the eq. (5) estimate.
            let split_expected = (full.params.expected_count / n as f64).max(0.05);
            let model = partition_model(full, &img.crop(&rect), split_expected);
            let mut sampler =
                pmcmc_core::Sampler::new_empty(&model, derive_seed(seed, 100 + i as u64));
            let budget = res.iterations.max(5_000);
            while sampler.iterations() < budget && !ctx.stopped() {
                sampler.run(1_000.min(budget - sampler.iterations()));
            }
            res.detected = sampler
                .config
                .circles()
                .iter()
                .map(|c| Circle::new(c.x + rect.x0 as f64, c.y + rect.y0 as f64, c.r))
                .collect();
            res.expected_count = split_expected;
        }
        res
    })?;
    let chains_time = t0.elapsed();
    let merged = partitions
        .iter()
        .flat_map(|p| p.detected.iter().copied())
        .collect();
    Ok(NaiveResult {
        partitions,
        merged,
        chains_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blind::{run_blind, BlindOptions};
    use pmcmc_core::{ModelParams, Xoshiro256};
    use pmcmc_imaging::synth::{generate, SceneSpec};

    /// A scene with a circle dead on the quartering cross.
    fn boundary_scene(size: u32, seed: u64) -> (GrayImage, Vec<Circle>) {
        let half = f64::from(size) / 2.0;
        let mut circles = vec![
            Circle::new(half, half, 8.0),
            Circle::new(half, 60.0, 8.0),
            Circle::new(60.0, half, 8.0),
        ];
        let spec = SceneSpec {
            width: size,
            height: size,
            n_circles: 5,
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
    fn naive_produces_boundary_anomalies_blind_fixes_them() {
        let (img, truth) = boundary_scene(256, 7);
        let full = NucleiModel::new(&img, ModelParams::new(256, 256, truth.len() as f64, 8.0));
        let pool = WorkerPool::new(4);
        let ctx = RunCtx::default();
        let chain = SubChainOptions {
            max_iters: 60_000,
            ..SubChainOptions::default()
        };
        let naive = run_naive(
            &full,
            &img,
            &NaiveOptions {
                chain,
                ..NaiveOptions::default()
            },
            &pool,
            5,
            &ctx,
        )
        .unwrap();
        let blind = run_blind(
            &full,
            &img,
            &BlindOptions {
                chain,
                ..BlindOptions::default()
            },
            &pool,
            5,
            &ctx,
        )
        .unwrap();
        let m_naive = pmcmc_core::match_circles(&truth, &naive.merged, 5.0);
        let m_blind = pmcmc_core::match_circles(&truth, &blind.merged, 5.0);
        // The paper's motivating claim: naive partitioning produces
        // boundary anomalies (duplicates/misses/spurious); blind
        // partitioning patches them up.
        assert!(
            m_naive.anomaly_count() > m_blind.anomaly_count(),
            "naive anomalies {} vs blind {}",
            m_naive.anomaly_count(),
            m_blind.anomaly_count()
        );
    }

    #[test]
    fn uniform_split_prior_recorded() {
        let (img, truth) = boundary_scene(128, 9);
        let base = ModelParams::new(128, 128, truth.len() as f64, 8.0);
        let pool = WorkerPool::new(2);
        let res = run_naive(
            &NucleiModel::new(&img, base.clone()),
            &img,
            &NaiveOptions {
                prior: NaivePrior::UniformSplit,
                chain: SubChainOptions {
                    max_iters: 5_000,
                    ..SubChainOptions::default()
                },
                ..NaiveOptions::default()
            },
            &pool,
            3,
            &RunCtx::default(),
        )
        .unwrap();
        for p in &res.partitions {
            assert!((p.expected_count - base.expected_count / 4.0).abs() < 1e-9);
        }
    }
}
