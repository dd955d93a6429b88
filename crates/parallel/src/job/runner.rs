//! The one way a job runs on a node: [`run_blueprint`].
//!
//! Eq. (4)'s node is `t` threads running the chain code, wherever the node
//! lives — a [`LocalBackend`](crate::job::LocalBackend) driver thread, a
//! [`ShardedBackend`](crate::job::ShardedBackend) node (whole jobs and
//! stripes alike) or a remote [`NodeDaemon`](crate::job::NodeDaemon). All
//! of them hold a [`JobBlueprint`] and a pool, and all of them call this.

use crate::engine::{NodeTiming, RunReport, RunRequest};
use crate::job::ctx::{CancelToken, Observer, RunCtx};
use crate::job::error::{panic_message, RunError};
use crate::job::wire::JobBlueprint;
use pmcmc_runtime::{NodeId, WorkerPool};
use std::time::Instant;

/// Charges the wait since `since` to the blueprint before it runs (or
/// ships): the wait becomes `queued_so_far` and comes off
/// `remaining_deadline`, which must hold the budget the job had at `since`.
pub(crate) fn stamp_wait(work: &mut JobBlueprint, since: Instant) {
    let waited = since.elapsed();
    work.queued_so_far = waited;
    work.remaining_deadline = work.remaining_deadline.map(|d| d.saturating_sub(waited));
}

/// Runs `work` to completion on the current thread as node `node`, fanning
/// its parallel stages onto `pool`.
///
/// Builds the [`RunCtx`] the scheme sees from the blueprint (progress
/// stride, checkpoint interval, a deadline of now + `remaining_deadline`)
/// plus the optional cancel token and observer. A job whose token already
/// fired or whose deadline already passed stops there with 0 completed
/// iterations. Otherwise it runs
/// [`StrategySpec::run`](crate::engine::StrategySpec::run) and stamps the
/// report's [`node_timings`](RunReport::node_timings) with
/// `{ node, queued: work.queued_so_far, busy: total_time }`.
///
/// This is where the job layer catches panics: whatever unwinds out of the
/// scheme (or out of an observer it calls) comes back as
/// [`RunError::Panicked`], so a caller that forwards the returned result
/// upholds the one-result-per-job contract without a panic boundary of its
/// own.
///
/// # Errors
/// Everything [`StrategySpec::run`](crate::engine::StrategySpec::run)
/// returns, plus [`RunError::Panicked`].
pub fn run_blueprint(
    work: &JobBlueprint,
    pool: &WorkerPool,
    node: NodeId,
    cancel: Option<&CancelToken>,
    observer: Option<Box<Observer>>,
) -> Result<RunReport, RunError> {
    let mut ctx = RunCtx::new().with_progress_stride(work.progress_stride);
    if let Some(token) = cancel {
        ctx = ctx.with_cancel(token.clone());
    }
    if let Some(observer) = observer {
        ctx = ctx.with_observer(observer);
    }
    if let Some(remaining) = work.remaining_deadline {
        ctx = ctx.with_deadline(Instant::now() + remaining);
    }
    if let Some(interval) = work.checkpoint_interval {
        ctx = ctx.with_checkpoint_interval(interval);
    }
    // A job cancelled or out of time while it waited for a thread stops
    // here, before its model is built: the chain schemes poll only after
    // their first stride.
    ctx.should_stop(0)?;
    let req =
        RunRequest::new(&work.image, &work.params, pool, work.seed).iterations(work.iterations);
    let mut report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        work.strategy.run(&req, &ctx)
    }))
    .unwrap_or_else(|payload| Err(RunError::Panicked(panic_message(&*payload))))?;
    report.node_timings.push(NodeTiming {
        node,
        queued: work.queued_so_far,
        busy: report.total_time,
    });
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StrategySpec;
    use crate::job::{Engine, JobSpec};
    use pmcmc_core::ModelParams;
    use pmcmc_imaging::GrayImage;
    use std::time::Duration;

    fn spec(strategy: StrategySpec) -> JobSpec {
        let image = GrayImage::filled(48, 48, 0.1);
        JobSpec::new(strategy, image, ModelParams::new(48, 48, 2.0, 8.0)).iterations(3_000)
    }

    #[test]
    fn observer_panics_come_back_as_panicked_with_their_message() {
        let pool = WorkerPool::new(1);
        let work = spec(StrategySpec::Sequential).work;
        let run = |observer: Box<Observer>| {
            run_blueprint(&work, &pool, NodeId(0), None, Some(observer)).unwrap_err()
        };
        // `panic!` with a literal carries a `&str`, with arguments a `String`.
        assert_eq!(
            run(Box::new(|_| panic!("literal payload"))),
            RunError::Panicked("literal payload".to_owned())
        );
        assert_eq!(
            run(Box::new(|event| panic!("formatted on {event:?}"))),
            RunError::Panicked("formatted on PhaseStarted { phase: \"chain\" }".to_owned())
        );
    }

    #[test]
    fn a_panicked_job_resolves_its_handle_and_its_batch_slot_exactly_once() {
        let engine = Engine::new(1).unwrap();
        let panicking = || spec(StrategySpec::Sequential).observer(|_| panic!("observer blew up"));
        let expected = RunError::Panicked("observer blew up".to_owned());

        let handle = engine.submit(panicking()).unwrap();
        let done = handle.done.clone();
        assert_eq!(handle.wait().unwrap_err(), expected);
        assert!(done.try_recv().is_err(), "a second result was delivered");

        // Each slot streams once, and the handles agree with the stream.
        let mut batch = engine.submit_batch(vec![panicking(), panicking()]).unwrap();
        let mut streamed = Vec::new();
        while let Some((idx, result)) = batch.next_finished() {
            assert_eq!(result.unwrap_err(), expected);
            streamed.push(idx);
        }
        streamed.sort_unstable();
        assert_eq!(streamed, [0, 1]);
        for result in batch.wait_all() {
            assert_eq!(result.unwrap_err(), expected);
        }
    }

    #[test]
    fn an_exhausted_deadline_stops_the_run_before_its_first_iteration() {
        // The chain-driven schemes poll only after a stride, and the
        // partition schemes before their chains; neither gets that far.
        for strategy in [
            StrategySpec::Sequential,
            StrategySpec::Blind(Default::default()),
        ] {
            let mut work = spec(strategy).work;
            work.remaining_deadline = Some(Duration::ZERO);
            assert_eq!(
                run_blueprint(&work, &WorkerPool::new(2), NodeId(0), None, None).unwrap_err(),
                RunError::DeadlineExceeded {
                    completed_iterations: 0
                }
            );
        }
    }

    #[test]
    fn the_wait_before_the_run_reaches_the_node_timing() {
        let mut work = spec(StrategySpec::Sequential).work;
        work.remaining_deadline = Some(Duration::from_secs(60));
        stamp_wait(&mut work, Instant::now() - Duration::from_millis(40));
        let queued = work.queued_so_far;
        assert!(queued >= Duration::from_millis(40));
        assert_eq!(
            work.remaining_deadline,
            Some(Duration::from_secs(60) - queued)
        );

        let report = run_blueprint(&work, &WorkerPool::new(1), NodeId(3), None, None).unwrap();
        let busy = report.total_time;
        let node = NodeId(3);
        assert_eq!(report.node_timings, [NodeTiming { node, queued, busy }]);

        // An overdrawn budget saturates at zero instead of underflowing.
        work.remaining_deadline = Some(Duration::from_millis(10));
        stamp_wait(&mut work, Instant::now() - Duration::from_millis(40));
        assert_eq!(work.remaining_deadline, Some(Duration::ZERO));
    }
}
