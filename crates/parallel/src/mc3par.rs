//! Parallel driver for (MC)³ (§IV).
//!
//! "Multiple MCMC chains are performed simultaneously" — between swap
//! points the chains are independent, so each segment fans the chains out
//! onto the worker pool; swaps happen on the driver thread. Because every
//! chain owns its RNG stream and swap decisions consume the ensemble's own
//! stream, the parallel schedule is bit-identical to the sequential one.

use crate::job::{RunCtx, RunError};
use pmcmc_core::Mc3;
use pmcmc_runtime::WorkerPool;
use std::time::{Duration, Instant};

/// Timing report of a parallel (MC)³ run.
#[derive(Debug, Clone, Default)]
pub struct Mc3Report {
    /// Segments executed.
    pub segments: u64,
    /// Iterations per chain.
    pub iters_per_chain: u64,
    /// Total wall time.
    pub total_time: Duration,
}

/// Runs `segments × segment_len` iterations on every chain of `mc3`,
/// stepping the chains concurrently on `pool` and attempting one swap per
/// segment. The cancel token and deadline of `ctx` are polled once per
/// segment (chains are never interrupted mid-segment, so the ensemble
/// stays on its bit-exact schedule up to the stopping point) and per-chain
/// iteration progress is emitted after every swap attempt.
///
/// # Errors
/// [`RunError::Cancelled`] / [`RunError::DeadlineExceeded`] when the
/// context stops the run between segments; `completed_iterations` counts
/// per-chain iterations.
pub fn run_mc3_parallel(
    mc3: &mut Mc3<'_>,
    pool: &WorkerPool,
    segments: u64,
    segment_len: u64,
    ctx: &RunCtx,
) -> Result<Mc3Report, RunError> {
    let start = Instant::now();
    ctx.phase("segments");
    let total = segments * segment_len;
    let mut checkpoints = ctx.checkpointer();
    for segment in 0..segments {
        let tasks: Vec<(f64, _)> = mc3
            .chains_mut()
            .iter_mut()
            .map(|chain| {
                let task = move || {
                    chain.run(segment_len);
                };
                (1.0, task)
            })
            .collect();
        pool.run_batch(tasks);
        mc3.attempt_swap();
        let done = (segment + 1) * segment_len;
        ctx.progress(done, total)?;
        if checkpoints.due(done) {
            let cold = mc3.cold();
            ctx.checkpoint(done, cold.config.len(), cold.log_posterior());
        }
    }
    Ok(Mc3Report {
        segments,
        iters_per_chain: segments * segment_len,
        total_time: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcmc_core::{ModelParams, NucleiModel};
    use pmcmc_imaging::GrayImage;

    fn small_model() -> NucleiModel {
        let img = GrayImage::from_fn(96, 96, |x, y| {
            let d1 = ((x as f32 - 30.0).powi(2) + (y as f32 - 30.0).powi(2)).sqrt();
            let d2 = ((x as f32 - 70.0).powi(2) + (y as f32 - 66.0).powi(2)).sqrt();
            if d1 < 8.0 || d2 < 8.0 {
                0.9
            } else {
                0.1
            }
        });
        NucleiModel::new(&img, ModelParams::new(96, 96, 4.0, 8.0))
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let model = small_model();
        let mut seq = Mc3::new(&model, 3, 0.4, 99);
        seq.run(30, 200);

        let mut par = Mc3::new(&model, 3, 0.4, 99);
        let pool = WorkerPool::new(3);
        let report = run_mc3_parallel(&mut par, &pool, 30, 200, &RunCtx::default()).unwrap();
        assert_eq!(report.iters_per_chain, 6000);
        assert_eq!(seq.swap_stats, par.swap_stats);
        assert_eq!(seq.cold().config.len(), par.cold().config.len());
        assert!(
            (seq.cold().log_posterior() - par.cold().log_posterior()).abs() < 1e-9,
            "parallel (MC)^3 diverged from sequential schedule"
        );
    }

    #[test]
    fn chains_stay_consistent() {
        let model = small_model();
        let mut mc3 = Mc3::new(&model, 4, 0.5, 5);
        let pool = WorkerPool::new(4);
        run_mc3_parallel(&mut mc3, &pool, 20, 150, &RunCtx::default()).unwrap();
        for chain in mc3.chains_mut() {
            chain
                .config
                .verify_consistency(chain.model())
                .expect("chain consistent after parallel segments");
        }
    }
}
