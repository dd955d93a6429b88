//! Independent MCMC chains on image partitions (§VIII machinery).
//!
//! Both intelligent and blind partitioning run a *complete, legitimate*
//! MCMC chain inside each partition: the sub-image is cropped (equivalent
//! to the paper's "the pixel data for neighbouring partitions will be
//! blanked out"), the partition's prior knowledge is mechanically estimated
//! from the thresholded pixel count (eq. 5), and the chain runs until the
//! convergence detector fires (Table I's "# itr to converge").

use crate::job::{RunCtx, RunError};
use pmcmc_core::diagnostics::{AcceptanceStats, ConvergenceDetector};
use pmcmc_core::{NucleiModel, Sampler};
use pmcmc_imaging::filter::threshold;
use pmcmc_imaging::{Circle, GrayImage, Rect};
use pmcmc_runtime::WorkerPool;
use std::time::{Duration, Instant};

/// The eq. (5) artifact-count estimator:
/// `|{p : I(p) > θ}| / (π r̄²)` — "assuming all pixels passing the
/// threshold criteria belong to a cell nucleus".
#[must_use]
pub fn eq5_estimate(thresholded_pixels: usize, radius_mean: f64) -> f64 {
    thresholded_pixels as f64 / (std::f64::consts::PI * radius_mean * radius_mean)
}

/// Options for a partition chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubChainOptions {
    /// Threshold θ for the eq. (5) estimator.
    pub theta: f32,
    /// Convergence detector window (samples per half).
    pub conv_window: usize,
    /// Convergence tolerance (log-posterior units).
    pub conv_tol: f64,
    /// Iterations between convergence checks.
    pub conv_stride: u64,
    /// Hard iteration cap.
    pub max_iters: u64,
    /// Iterations to keep running after convergence is detected (letting
    /// the state settle at the mode before sampling it), as a fraction of
    /// the convergence iteration.
    pub settle_frac: f64,
}

impl Default for SubChainOptions {
    fn default() -> Self {
        Self {
            theta: 0.5,
            conv_window: 20,
            conv_tol: 0.5,
            conv_stride: 200,
            max_iters: 400_000,
            settle_frac: 0.25,
        }
    }
}

/// Outcome of one partition chain.
#[derive(Debug, Clone)]
pub struct SubChainResult {
    /// The partition rectangle (global coordinates).
    pub rect: Rect,
    /// eq. (5) expected-count estimate used as the partition's prior.
    pub expected_count: f64,
    /// Thresholded pixel count within the partition.
    pub thresholded_pixels: usize,
    /// Detected circles, translated back to global coordinates.
    pub detected: Vec<Circle>,
    /// Iterations actually run.
    pub iterations: u64,
    /// Iteration at which the convergence detector fired (if it did).
    pub converged_at: Option<u64>,
    /// Wall time of the chain.
    pub runtime: Duration,
    /// Acceptance statistics.
    pub stats: AcceptanceStats,
}

/// The sub-model of a partition whose cropped image is `crop`: the full
/// model's parameters and proposal scales over the crop, with the
/// partition's own `expected_count` — partition priors are estimated
/// (eq. 5), never inherited from the full image.
#[must_use]
pub(crate) fn partition_model(
    full: &NucleiModel,
    crop: &GrayImage,
    expected_count: f64,
) -> NucleiModel {
    let mut params = full.params.clone();
    params.width = crop.width();
    params.height = crop.height();
    params.expected_count = expected_count;
    NucleiModel::with_scales(crop, params, full.scales)
}

/// Runs an independent chain on `rect` of `img`. The partition's sub-model
/// is built on the cropped image with `full`'s parameters and proposal
/// scales, and with the eq. (5) prior estimate taken from the thresholded
/// crop — partitions never inherit the full image's `expected_count`.
///
/// The cancel token / deadline of `ctx` are polled at every
/// convergence-check stride (so a running chain stops within `conv_stride`
/// iterations of the token firing), and [`crate::job::Event::Converged`] is
/// emitted when the detector fires. A stopped chain returns its partial
/// result — the caller (the partition pipelines) decides whether that
/// becomes a structured error.
#[must_use]
pub fn run_partition_chain(
    full: &NucleiModel,
    img: &GrayImage,
    rect: Rect,
    opts: &SubChainOptions,
    seed: u64,
    ctx: &RunCtx,
) -> SubChainResult {
    let rect = rect.intersect(&img.frame());
    let crop = img.crop(&rect);
    let mask = threshold(&crop, opts.theta);
    let thresholded_pixels = mask.count_ones();
    let expected = eq5_estimate(thresholded_pixels, full.params.radius_prior.mu).max(0.05);
    let model = partition_model(full, &crop, expected);

    let start = Instant::now();
    let mut sampler = Sampler::new_empty(&model, seed);
    let mut detector = ConvergenceDetector::new(opts.conv_window, opts.conv_tol);
    let mut converged_at = None;
    while sampler.iterations() < opts.max_iters && !ctx.stopped() {
        sampler.run(opts.conv_stride);
        if detector.push(sampler.iterations(), sampler.log_posterior()) {
            converged_at = detector.converged_at();
            break;
        }
    }
    if let Some(at) = converged_at {
        ctx.converged(at);
        // Settle briefly at the mode so the sampled state is representative.
        let settle = ((at as f64) * opts.settle_frac) as u64;
        if !ctx.stopped() {
            sampler.run(settle);
        }
    }
    let runtime = start.elapsed();

    let detected = sampler
        .config
        .circles()
        .iter()
        .map(|c| Circle::new(c.x + rect.x0 as f64, c.y + rect.y0 as f64, c.r))
        .collect();

    SubChainResult {
        rect,
        expected_count: expected,
        thresholded_pixels,
        detected,
        iterations: sampler.iterations(),
        converged_at,
        runtime,
        stats: sampler.stats.clone(),
    }
}

/// The fan-out stage of the partition pipelines: runs `chain(index, rect)`
/// for every `(weight, rect)` cell concurrently on `pool` (heaviest weight
/// first — the pool's LPT order load-balances when cells outnumber
/// threads), ticking per-partition progress as chains finish.
///
/// # Errors
/// The structured stop error when `ctx` stopped the run;
/// `completed_iterations` sums what the chains ran before winding down.
pub(crate) fn fan_out_chains(
    cells: Vec<(f64, Rect)>,
    pool: &WorkerPool,
    ctx: &RunCtx,
    chain: impl Fn(usize, Rect) -> SubChainResult + Sync,
) -> Result<Vec<SubChainResult>, RunError> {
    let progress = ctx.partition_progress(cells.len() as u64);
    let (chain, progress) = (&chain, &progress);
    let tasks: Vec<(f64, _)> = cells
        .into_iter()
        .enumerate()
        .map(|(i, (weight, rect))| {
            let task = move || {
                let result = chain(i, rect);
                progress.tick();
                result
            };
            (weight, task)
        })
        .collect();
    let chains = pool.run_batch(tasks);
    ctx.should_stop(chains.iter().map(|c| c.iterations).sum())?;
    Ok(chains)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcmc_core::{ModelParams, Xoshiro256};
    use pmcmc_imaging::synth::{generate_clustered, ClusterSpec, SceneSpec};

    fn clustered_image(seed: u64) -> (GrayImage, Vec<Circle>) {
        let spec = SceneSpec {
            width: 256,
            height: 256,
            radius_mean: 8.0,
            radius_sd: 0.5,
            radius_min: 5.0,
            radius_max: 12.0,
            noise_sd: 0.04,
            ..SceneSpec::default()
        };
        let clusters = [
            ClusterSpec {
                cx: 60.0,
                cy: 60.0,
                n: 4,
                spread: 20.0,
            },
            ClusterSpec {
                cx: 190.0,
                cy: 190.0,
                n: 5,
                spread: 22.0,
            },
        ];
        let mut rng = Xoshiro256::new(seed);
        let scene = generate_clustered(&spec, &clusters, &mut rng);
        let img = scene.render(&mut rng);
        (img, scene.circles)
    }

    #[test]
    fn eq5_matches_formula() {
        let est = eq5_estimate(3140, 10.0);
        assert!((est - 3140.0 / (std::f64::consts::PI * 100.0)).abs() < 1e-12);
        assert_eq!(eq5_estimate(0, 10.0), 0.0);
    }

    #[test]
    fn partition_chain_detects_local_cluster() {
        let (img, truth) = clustered_image(1);
        let full = NucleiModel::new(&img, ModelParams::new(256, 256, 9.0, 8.0));
        let rect = Rect::new(0, 0, 128, 128); // contains first cluster
        let opts = SubChainOptions {
            max_iters: 60_000,
            ..SubChainOptions::default()
        };
        let res = run_partition_chain(&full, &img, rect, &opts, 42, &RunCtx::default());
        assert!(
            res.expected_count > 1.0,
            "eq5 estimate {}",
            res.expected_count
        );
        let local_truth: Vec<Circle> = truth
            .iter()
            .filter(|c| rect.contains_point(c.x, c.y))
            .copied()
            .collect();
        let m = pmcmc_core::match_circles(&local_truth, &res.detected, 5.0);
        assert!(
            m.recall() >= 0.75,
            "recall {} ({} truth, {} detected)",
            m.recall(),
            local_truth.len(),
            res.detected.len()
        );
        // Detections are reported in global coordinates inside the rect.
        for d in &res.detected {
            assert!(rect.inflate(2).contains_point(d.x, d.y));
        }
    }

    #[test]
    fn empty_partition_converges_fast_with_no_detections() {
        let img = GrayImage::filled(128, 128, 0.1);
        let full = NucleiModel::new(&img, ModelParams::new(128, 128, 5.0, 8.0));
        let opts = SubChainOptions {
            max_iters: 30_000,
            ..SubChainOptions::default()
        };
        let res = run_partition_chain(
            &full,
            &img,
            Rect::new(0, 0, 64, 64),
            &opts,
            7,
            &RunCtx::default(),
        );
        assert_eq!(res.thresholded_pixels, 0);
        assert!(
            res.detected.is_empty(),
            "found {} phantoms",
            res.detected.len()
        );
        assert!(res.converged_at.is_some(), "empty image must converge");
    }

    #[test]
    fn smaller_partition_converges_in_fewer_iterations() {
        // The core §VIII claim: per-partition processing is faster because
        // there are fewer artifacts and a smaller state space.
        let (img, _) = clustered_image(3);
        let full = NucleiModel::new(&img, ModelParams::new(256, 256, 9.0, 8.0));
        let ctx = RunCtx::default();
        let opts = SubChainOptions {
            max_iters: 150_000,
            ..SubChainOptions::default()
        };
        let whole = run_partition_chain(&full, &img, Rect::new(0, 0, 256, 256), &opts, 9, &ctx);
        let part = run_partition_chain(&full, &img, Rect::new(0, 0, 128, 128), &opts, 9, &ctx);
        let w_at = whole.converged_at.unwrap_or(whole.iterations);
        let p_at = part.converged_at.unwrap_or(part.iterations);
        assert!(
            p_at < w_at,
            "partition converged at {p_at}, whole image at {w_at}"
        );
    }
}
