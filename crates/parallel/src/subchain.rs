//! Independent MCMC chains on image partitions (§VIII machinery).
//!
//! Both intelligent and blind partitioning run a *complete, legitimate*
//! MCMC chain inside each partition: the sub-image is cropped (equivalent
//! to the paper's "the pixel data for neighbouring partitions will be
//! blanked out"), the partition's prior knowledge is mechanically estimated
//! from the thresholded pixel count (eq. 5), and the chain runs until the
//! convergence detector fires (Table I's "# itr to converge"). Naive
//! partitioning runs the same chain, optionally with its `λ/n` prior.

use crate::engine::RunRequest;
use crate::job::{RunCtx, RunError};
use pmcmc_core::diagnostics::{AcceptanceStats, ConvergenceDetector};
use pmcmc_core::rng::derive_seed;
use pmcmc_core::{NucleiModel, Sampler};
use pmcmc_imaging::filter::threshold;
use pmcmc_imaging::{Circle, Rect};
use std::time::{Duration, Instant};

/// The eq. (5) artifact-count estimator:
/// `|{p : I(p) > θ}| / (π r̄²)` — "assuming all pixels passing the
/// threshold criteria belong to a cell nucleus".
#[must_use]
pub fn eq5_estimate(thresholded_pixels: usize, radius_mean: f64) -> f64 {
    thresholded_pixels as f64 / (std::f64::consts::PI * radius_mean * radius_mean)
}

/// Options for a partition chain. Its iteration cap is not among them: a
/// chain runs at most the request's budget ([`RunRequest::iterations`])
/// before it settles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubChainOptions {
    /// Threshold θ for the eq. (5) estimator.
    pub theta: f32,
    /// Convergence detector window (samples per half).
    pub conv_window: usize,
    /// Convergence tolerance (log-posterior units).
    pub conv_tol: f64,
    /// Iterations between convergence checks, and between the cancel
    /// polls of the settle (at least 1).
    pub conv_stride: u64,
    /// Iterations to keep running after convergence is detected (letting
    /// the state settle at the mode before sampling it), as a fraction of
    /// the convergence iteration (in `[0, 1]`).
    pub settle_frac: f64,
}

impl Default for SubChainOptions {
    fn default() -> Self {
        Self {
            theta: 0.5,
            conv_window: 20,
            conv_tol: 0.5,
            conv_stride: 200,
            settle_frac: 0.25,
        }
    }
}

/// Outcome of one partition chain.
#[derive(Debug, Clone)]
pub struct SubChainResult {
    /// The partition rectangle (global coordinates).
    pub rect: Rect,
    /// The expected count the partition's prior used: the eq. (5)
    /// estimate, or the caller's (naive's `λ/n`).
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

/// Runs an independent chain on `rect` of `req.image`, seeded with `seed`
/// (the pipelines pass `derive_seed(req.seed, i)` for partition `i`). The
/// partition's sub-model is built on the cropped image with `full`'s
/// parameters and proposal scales (`full` is the request's model) and the
/// partition's own expected count: `prior` when the caller gives one
/// (naive's `λ/n`), else the eq. (5) estimate from the thresholded crop —
/// partitions never inherit the full image's `expected_count`.
///
/// The chain runs until the convergence detector fires or it reaches
/// `req.iterations`, then settles for `settle_frac` of its convergence
/// iteration. The cancel token / deadline of `ctx` are polled every
/// `conv_stride` iterations of both stages (so a running chain stops
/// within `conv_stride` iterations of the token firing), and
/// [`crate::job::Event::Converged`] is emitted when the detector fires. A
/// stopped chain returns its partial result — the caller (the partition
/// pipelines) decides whether that becomes a structured error.
#[must_use]
pub fn run_partition_chain(
    full: &NucleiModel,
    req: &RunRequest<'_>,
    rect: Rect,
    prior: Option<f64>,
    opts: &SubChainOptions,
    seed: u64,
    ctx: &RunCtx,
) -> SubChainResult {
    let rect = rect.intersect(&req.image.frame());
    let crop = req.image.crop(&rect);
    let thresholded_pixels = threshold(&crop, opts.theta).count_ones();
    let mut params = full.params.clone();
    params.width = crop.width();
    params.height = crop.height();
    params.expected_count = prior
        .unwrap_or_else(|| eq5_estimate(thresholded_pixels, params.radius_prior.mu))
        .max(0.05);
    let model = NucleiModel::with_scales(&crop, params, full.scales);

    let start = Instant::now();
    let mut sampler = Sampler::new_empty(&model, seed);
    let mut detector = ConvergenceDetector::new(opts.conv_window, opts.conv_tol);
    let mut converged_at = None;
    while sampler.iterations() < req.iterations && !ctx.stopped() {
        sampler.run(opts.conv_stride);
        if detector.push(sampler.iterations(), sampler.log_posterior()) {
            converged_at = detector.converged_at();
            break;
        }
    }
    if let Some(at) = converged_at {
        ctx.converged(at);
        // Settle briefly at the mode so the sampled state is representative.
        let settled = sampler.iterations() + ((at as f64) * opts.settle_frac) as u64;
        while sampler.iterations() < settled && !ctx.stopped() {
            sampler.run(opts.conv_stride.min(settled - sampler.iterations()));
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
        expected_count: model.params.expected_count,
        thresholded_pixels,
        detected,
        iterations: sampler.iterations(),
        converged_at,
        runtime,
        stats: sampler.stats.clone(),
    }
}

/// The chain stage of the partition pipelines: one [`run_partition_chain`]
/// per `(weight, rect)` cell, with `prior` and the seed
/// `derive_seed(req.seed, i)` for cell `i`, run concurrently on
/// `req.pool` (heaviest weight first — the pool's LPT order load-balances
/// when cells outnumber threads), ticking per-partition progress as
/// chains finish.
///
/// # Errors
/// The structured stop error when `ctx` stopped the run;
/// `completed_iterations` sums what the chains ran before winding down.
pub(crate) fn fan_out_chains(
    full: &NucleiModel,
    req: &RunRequest<'_>,
    cells: Vec<(f64, Rect)>,
    prior: Option<f64>,
    opts: &SubChainOptions,
    ctx: &RunCtx,
) -> Result<Vec<SubChainResult>, RunError> {
    let progress = ctx.partition_progress(cells.len() as u64);
    let progress = &progress;
    let tasks: Vec<(f64, _)> = cells
        .into_iter()
        .enumerate()
        .map(|(i, (weight, rect))| {
            let task = move || {
                let seed = derive_seed(req.seed, i as u64);
                let result = run_partition_chain(full, req, rect, prior, opts, seed, ctx);
                progress.tick();
                result
            };
            (weight, task)
        })
        .collect();
    let chains = req.pool.run_batch(tasks);
    ctx.should_stop(chains.iter().map(|c| c.iterations).sum())?;
    Ok(chains)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcmc_core::{ModelParams, Xoshiro256};
    use pmcmc_imaging::synth::{generate_clustered, ClusterSpec, SceneSpec};
    use pmcmc_imaging::GrayImage;
    use pmcmc_runtime::WorkerPool;

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
        let params = ModelParams::new(256, 256, 9.0, 8.0);
        let full = NucleiModel::new(&img, params.clone());
        let pool = WorkerPool::new(1);
        let req = RunRequest::new(&img, &params, &pool, 42).iterations(60_000);
        let rect = Rect::new(0, 0, 128, 128); // contains first cluster
        let opts = SubChainOptions::default();
        let res = run_partition_chain(&full, &req, rect, None, &opts, 42, &RunCtx::default());
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
        let params = ModelParams::new(128, 128, 5.0, 8.0);
        let full = NucleiModel::new(&img, params.clone());
        let pool = WorkerPool::new(1);
        let req = RunRequest::new(&img, &params, &pool, 7).iterations(30_000);
        let res = run_partition_chain(
            &full,
            &req,
            Rect::new(0, 0, 64, 64),
            None,
            &SubChainOptions::default(),
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
        let params = ModelParams::new(256, 256, 9.0, 8.0);
        let full = NucleiModel::new(&img, params.clone());
        let pool = WorkerPool::new(1);
        let req = RunRequest::new(&img, &params, &pool, 9).iterations(150_000);
        let ctx = RunCtx::default();
        let opts = SubChainOptions::default();
        let chain = |rect| run_partition_chain(&full, &req, rect, None, &opts, 9, &ctx);
        let whole = chain(Rect::new(0, 0, 256, 256));
        let part = chain(Rect::new(0, 0, 128, 128));
        let w_at = whole.converged_at.unwrap_or(whole.iterations);
        let p_at = part.converged_at.unwrap_or(part.iterations);
        assert!(
            p_at < w_at,
            "partition converged at {p_at}, whole image at {w_at}"
        );
    }

    /// The settle polls `ctx` every `conv_stride` iterations: a settle of
    /// 10¹² times the convergence iteration stops at the first stride
    /// boundary after its token fires.
    #[test]
    fn a_cancel_stops_the_settle_at_a_stride_boundary() {
        let img = GrayImage::filled(64, 64, 0.1);
        let params = ModelParams::new(64, 64, 1.0, 8.0);
        let full = NucleiModel::new(&img, params.clone());
        let pool = WorkerPool::new(1);
        let req = RunRequest::new(&img, &params, &pool, 3).iterations(20_000);
        let rect = img.frame();
        let opts = SubChainOptions {
            conv_stride: 50,
            settle_frac: 1.0,
            ..SubChainOptions::default()
        };
        let settled = run_partition_chain(&full, &req, rect, None, &opts, 3, &RunCtx::new());
        let at = settled.converged_at.expect("an empty image converges");
        assert_eq!(settled.iterations, 2 * at, "a whole settle, in strides");

        // Cancel 50 ms into a settle that would never end.
        let token = crate::job::CancelToken::new();
        let (converged, wait) = std::sync::mpsc::channel();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                wait.recv().expect("the chain converges");
                std::thread::sleep(Duration::from_millis(50));
                token.cancel();
            })
        };
        let converged = std::sync::Mutex::new(converged);
        let ctx = RunCtx::new()
            .with_cancel(token)
            .with_observer(move |event| {
                if matches!(event, crate::job::Event::Converged { .. }) {
                    let _ = converged.lock().expect("sender").send(());
                }
            });
        let endless = SubChainOptions {
            settle_frac: 1e12,
            ..opts
        };
        let stopped = run_partition_chain(&full, &req, rect, None, &endless, 3, &ctx);
        canceller.join().expect("canceller");
        assert_eq!(stopped.converged_at, Some(at));
        assert!(stopped.iterations > at, "no settle ran before the cancel");
        assert_eq!((stopped.iterations - at) % 50, 0, "stopped mid-stride");
    }
}
