//! The observability surface a running strategy sees: cancellation,
//! deadlines, progress events and checkpoint scheduling.

use crate::job::error::RunError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Cancellation.

/// A cheap, cloneable cooperative-cancellation flag. Every strategy polls
/// its job's token inside its iteration loop (at the progress stride, or
/// per cycle/segment/convergence-check for the phase-structured schemes)
/// and winds down with [`RunError::Cancelled`] when it fires.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates an un-fired token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fires the token. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the token has fired.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------------
// Events.

/// A progress event emitted by a running job, in emission order.
///
/// `Progress::done` is monotonically non-decreasing within a job. Its unit
/// is scheme-dependent: chain-driven schemes (`sequential`, `periodic`,
/// `speculative`, `mc3`) report iterations against the iteration budget;
/// partition schemes (`intelligent`, `blind`, `naive`) report completed
/// partitions against the partition count.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A named phase of the scheme began. Labels follow
    /// [`RunReport::phases`](crate::engine::RunReport::phases) for the
    /// staged schemes (`"preprocess"`/`"chains"`/`"merge"`, …); schemes
    /// whose phases interleave too finely to announce individually emit a
    /// single label for the whole loop (`periodic` emits `"cycles"` once,
    /// though its report still breaks time down into global/local/
    /// overhead).
    PhaseStarted {
        /// Phase label (e.g. `"chain"`, `"cycles"`, `"merge"`).
        phase: &'static str,
    },
    /// Work advanced to `done` of `total` units (`done` may overshoot
    /// `total` on the final event for schemes with cycle/round granularity).
    Progress {
        /// Units completed so far.
        done: u64,
        /// Total units budgeted.
        total: u64,
    },
    /// A convergence detector fired at the given iteration (emitted by the
    /// partition schemes' per-partition chains).
    Converged {
        /// Iteration at which convergence was detected.
        at: u64,
    },
    /// A periodic state snapshot (requested via
    /// [`JobSpec::checkpoint_interval`](crate::job::JobSpec::checkpoint_interval));
    /// emitted by the chain-driven schemes which own a central
    /// configuration.
    Checkpoint {
        /// Iterations completed at the snapshot.
        iterations: u64,
        /// Circles in the current configuration.
        circles: usize,
        /// Log-posterior of the current configuration.
        log_posterior: f64,
    },
}

/// An event callback: called synchronously, possibly from pool worker
/// threads (hence `Send + Sync`), for every [`Event`] of a run.
pub type Observer = dyn Fn(&Event) + Send + Sync;

// ---------------------------------------------------------------------------
// Run context.

/// Everything a strategy needs to be observable and stoppable: the cancel
/// token, optional deadline, optional observer and the progress stride.
///
/// A default context is fully detached — no observer, no deadline, a token
/// that never fires — which is what direct callers of the scheme pipelines
/// pass when nothing should stop or watch the run.
pub struct RunCtx {
    cancel: CancelToken,
    deadline: Option<Instant>,
    observer: Option<Box<Observer>>,
    checkpoint_interval: Option<u64>,
    progress_stride: u64,
}

impl Default for RunCtx {
    fn default() -> Self {
        Self {
            cancel: CancelToken::new(),
            deadline: None,
            observer: None,
            checkpoint_interval: None,
            progress_stride: 1024,
        }
    }
}

impl RunCtx {
    /// Creates a detached context (no observer, never stops early).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a cancel token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Sets an absolute deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches an observer called synchronously for every event. The
    /// partition schemes call it from pool worker threads, hence the
    /// `Send + Sync` bound.
    #[must_use]
    pub fn with_observer(mut self, observer: impl Fn(&Event) + Send + Sync + 'static) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Requests [`Event::Checkpoint`] snapshots every `iterations`.
    #[must_use]
    pub fn with_checkpoint_interval(mut self, iterations: u64) -> Self {
        self.checkpoint_interval = Some(iterations.max(1));
        self
    }

    /// Sets the iteration stride between progress events / token polls.
    #[must_use]
    pub fn with_progress_stride(mut self, stride: u64) -> Self {
        self.progress_stride = stride.max(1);
        self
    }

    /// Iterations between progress events / token polls.
    #[must_use]
    pub fn progress_stride(&self) -> u64 {
        self.progress_stride
    }

    /// A clone of the context's cancel token.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Emits an event to the observer, if any.
    pub fn emit(&self, event: &Event) {
        if let Some(obs) = &self.observer {
            obs(event);
        }
    }

    /// Emits [`Event::PhaseStarted`].
    pub fn phase(&self, phase: &'static str) {
        self.emit(&Event::PhaseStarted { phase });
    }

    /// Emits [`Event::Converged`].
    pub fn converged(&self, at: u64) {
        self.emit(&Event::Converged { at });
    }

    /// Whether the run should wind down (token fired or deadline passed).
    /// Cheap enough for per-stride polling from worker threads.
    #[must_use]
    pub fn stopped(&self) -> bool {
        self.cancel.is_cancelled() || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Returns the structured stop error if the run should wind down.
    ///
    /// # Errors
    /// [`RunError::Cancelled`] when the token fired,
    /// [`RunError::DeadlineExceeded`] when the deadline passed.
    pub fn should_stop(&self, completed_iterations: u64) -> Result<(), RunError> {
        if self.cancel.is_cancelled() {
            return Err(RunError::Cancelled {
                completed_iterations,
            });
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(RunError::DeadlineExceeded {
                completed_iterations,
            });
        }
        Ok(())
    }

    /// Polls for cancellation/deadline and emits [`Event::Progress`].
    ///
    /// # Errors
    /// Propagates [`RunCtx::should_stop`].
    pub fn progress(&self, done: u64, total: u64) -> Result<(), RunError> {
        self.should_stop(done)?;
        self.emit(&Event::Progress { done, total });
        Ok(())
    }

    /// Emits [`Event::Checkpoint`].
    pub fn checkpoint(&self, iterations: u64, circles: usize, log_posterior: f64) {
        self.emit(&Event::Checkpoint {
            iterations,
            circles,
            log_posterior,
        });
    }

    /// A per-run checkpoint schedule. The strategy's run loop owns it, so
    /// checkpoint throttling state never leaks between runs that share
    /// one context.
    #[must_use]
    pub fn checkpointer(&self) -> Checkpointer {
        Checkpointer {
            every: self.checkpoint_interval,
            last: 0,
        }
    }

    /// A completed-units counter for fan-out stages: worker tasks call
    /// [`ProgressCounter::tick`] as they finish and the counter emits
    /// ordered [`Event::Progress`] events (the partition schemes use one
    /// per chains stage, counting finished partitions).
    #[must_use]
    pub fn partition_progress(&self, total: u64) -> ProgressCounter<'_> {
        ProgressCounter {
            ctx: self,
            total,
            done: parking_lot::Mutex::new(0),
        }
    }
}

/// Per-run checkpoint schedule handed out by [`RunCtx::checkpointer`]:
/// [`Checkpointer::due`] returns whether a snapshot is owed at the given
/// iteration (so callers can skip computing the log-posterior when not)
/// and records the snapshot point when it is.
#[derive(Debug, Clone)]
pub struct Checkpointer {
    every: Option<u64>,
    last: u64,
}

impl Checkpointer {
    /// Whether a checkpoint is due at `iterations`; marks it taken when so.
    pub fn due(&mut self, iterations: u64) -> bool {
        match self.every {
            Some(every) if iterations >= self.last + every => {
                self.last = iterations;
                true
            }
            _ => false,
        }
    }
}

/// Shared completed-units counter handed out by
/// [`RunCtx::partition_progress`]. Counting and emitting happen under one
/// lock so `Progress::done` values reach the observer in order even when
/// ticks race across pool workers.
pub struct ProgressCounter<'c> {
    ctx: &'c RunCtx,
    total: u64,
    done: parking_lot::Mutex<u64>,
}

impl ProgressCounter<'_> {
    /// Records one completed unit and emits progress. A fired cancel
    /// token makes the emission a no-op — the caller surfaces the stop
    /// via [`RunCtx::should_stop`] once the fan-out drains.
    pub fn tick(&self) {
        let mut done = self.done.lock();
        *done += 1;
        let _ = self.ctx.progress(*done, self.total);
    }
}
