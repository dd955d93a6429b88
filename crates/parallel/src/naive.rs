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

use crate::engine::RunRequest;
use crate::job::{RunCtx, RunError};
use crate::subchain::{fan_out_chains, SubChainOptions, SubChainResult};
use pmcmc_core::NucleiModel;
use pmcmc_imaging::{regular_tiles, Circle};
use std::time::{Duration, Instant};

/// How the naive baseline assigns per-partition expected counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NaivePrior {
    /// `λ / n_partitions` — the uniform-density assumption §VIII warns
    /// about. Each partition runs the same chain as under
    /// [`NaivePrior::DensityEstimate`], with this prior in place of the
    /// eq. (5) estimate.
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

/// Runs the naive baseline on the request's image, whose prebuilt
/// full-image model is `full`: one chain per grid cell on `req.pool`
/// ([`crate::subchain::run_partition_chain`], capped at `req.iterations`),
/// each building its sub-model on its crop with `full`'s parameters and
/// the prior `opts.prior` names. Phase and per-partition progress events
/// are emitted through `ctx` (progress counts completed partitions) and
/// its cancel token / deadline propagate into every partition chain.
///
/// # Errors
/// [`RunError::Cancelled`] / [`RunError::DeadlineExceeded`] when the
/// context stops the run; `completed_iterations` sums the iterations the
/// partition chains had executed before winding down.
pub fn run_naive(
    full: &NucleiModel,
    req: &RunRequest<'_>,
    opts: &NaiveOptions,
    ctx: &RunCtx,
) -> Result<NaiveResult, RunError> {
    let tiles = regular_tiles(req.image.width(), req.image.height(), opts.cols, opts.rows);
    let prior = match opts.prior {
        NaivePrior::UniformSplit => Some(full.params.expected_count / tiles.len() as f64),
        NaivePrior::DensityEstimate => None,
    };
    let t0 = Instant::now();
    ctx.phase("chains");
    let cells = tiles.iter().map(|&r| (r.area() as f64, r)).collect();
    let partitions = fan_out_chains(full, req, cells, prior, &opts.chain, ctx)?;
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
    use crate::subchain::run_partition_chain;
    use pmcmc_core::rng::derive_seed;
    use pmcmc_core::{ModelParams, Xoshiro256};
    use pmcmc_imaging::synth::{generate, SceneSpec};
    use pmcmc_imaging::GrayImage;
    use pmcmc_runtime::WorkerPool;

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
        let params = ModelParams::new(256, 256, truth.len() as f64, 8.0);
        let full = NucleiModel::new(&img, params.clone());
        let pool = WorkerPool::new(4);
        let req = RunRequest::new(&img, &params, &pool, 5).iterations(60_000);
        let ctx = RunCtx::default();
        let naive = run_naive(&full, &req, &NaiveOptions::default(), &ctx).unwrap();
        let blind = run_blind(&full, &req, &BlindOptions::default(), &ctx).unwrap();
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
        let req = RunRequest::new(&img, &base, &pool, 3).iterations(5_000);
        let opts = NaiveOptions {
            prior: NaivePrior::UniformSplit,
            ..NaiveOptions::default()
        };
        let res = run_naive(&req.model(), &req, &opts, &RunCtx::default()).unwrap();
        for p in &res.partitions {
            assert!((p.expected_count - base.expected_count / 4.0).abs() < 1e-9);
        }
    }

    /// `naive:prior=uniform` runs one chain per partition through the
    /// function every partition scheme uses, within the request's budget:
    /// each partition's result is, bit for bit, what `run_partition_chain`
    /// returns for its rect with the `λ/n` prior and its derived seed.
    #[test]
    fn uniform_split_partitions_are_plain_partition_chains() {
        let (img, truth) = boundary_scene(128, 9);
        let params = ModelParams::new(128, 128, truth.len() as f64, 8.0);
        let full = NucleiModel::new(&img, params.clone());
        let pool = WorkerPool::new(2);
        let req = RunRequest::new(&img, &params, &pool, 3).iterations(1_000);
        let opts = NaiveOptions {
            prior: NaivePrior::UniformSplit,
            ..NaiveOptions::default()
        };
        let ctx = RunCtx::default();
        let res = run_naive(&full, &req, &opts, &ctx).unwrap();
        // Everything but the wall time; `{:?}` prints each f64 exactly.
        let bits = |r: &SubChainResult| {
            format!(
                "{:?}",
                (
                    r.rect,
                    r.expected_count,
                    r.thresholded_pixels,
                    &r.detected,
                    r.iterations,
                    r.converged_at,
                    &r.stats,
                )
            )
        };
        let tiles = regular_tiles(128, 128, opts.cols, opts.rows);
        assert_eq!(res.partitions.len(), tiles.len());
        let prior = Some(params.expected_count / tiles.len() as f64);
        for (i, (p, &rect)) in res.partitions.iter().zip(&tiles).enumerate() {
            let seed = derive_seed(req.seed, i as u64);
            let alone = run_partition_chain(&full, &req, rect, prior, &opts.chain, seed, &ctx);
            assert_eq!(bits(p), bits(&alone), "partition {i}");
            // The budget plus at most a quarter of it to settle.
            assert!(p.iterations <= 1_250, "partition {i}: {}", p.iterations);
        }
    }
}
