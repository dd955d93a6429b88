//! The owned, validated description of one run, and the job identifier.

use crate::engine::StrategySpec;
use crate::job::ctx::{Event, Observer};
use crate::job::error::RunError;
use crate::job::wire::JobBlueprint;
use pmcmc_core::ModelParams;
use pmcmc_imaging::GrayImage;
use std::fmt;
use std::time::Duration;

/// Opaque identifier of a submitted job, unique per
/// [`Engine`](crate::job::Engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId(pub(crate) u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// An owned, validated description of one run: which strategy, on which
/// image, with which budget and observability knobs. Built with a fluent
/// builder and submitted via [`Engine::submit`](crate::job::Engine::submit).
///
/// A spec is the job's [`JobBlueprint`] — the payload every backend runs,
/// locally or across a socket — plus the one thing that cannot travel: the
/// observer callback. Until the job is placed, the blueprint's
/// `remaining_deadline` holds the whole deadline (measured from
/// submission) and `queued_so_far` is zero.
pub struct JobSpec {
    pub(crate) work: JobBlueprint,
    pub(crate) observer: Option<Box<Observer>>,
}

impl fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let work = &self.work;
        f.debug_struct("JobSpec")
            .field("strategy", &work.strategy)
            .field("image", &(work.image.width(), work.image.height()))
            .field("seed", &work.seed)
            .field("iterations", &work.iterations)
            .field("deadline", &work.remaining_deadline)
            .field("checkpoint_interval", &work.checkpoint_interval)
            .field("progress_stride", &work.progress_stride)
            .field("observer", &self.observer.is_some())
            .finish_non_exhaustive()
    }
}

impl JobSpec {
    /// Creates a spec with the default budget (60 000 iterations, seed 0,
    /// no deadline, no checkpoints).
    #[must_use]
    pub fn new(strategy: StrategySpec, image: GrayImage, params: ModelParams) -> Self {
        Self {
            work: JobBlueprint {
                strategy,
                image,
                params,
                seed: 0,
                iterations: 60_000,
                remaining_deadline: None,
                checkpoint_interval: None,
                progress_stride: 1024,
                queued_so_far: Duration::ZERO,
            },
            observer: None,
        }
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.work.seed = seed;
        self
    }

    /// Sets the iteration budget.
    #[must_use]
    pub fn iterations(mut self, iterations: u64) -> Self {
        self.work.iterations = iterations;
        self
    }

    /// Bounds the run's wall time, measured from submission; exceeding it
    /// ends the run with [`RunError::DeadlineExceeded`].
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.work.remaining_deadline = Some(deadline);
        self
    }

    /// Requests [`Event::Checkpoint`] snapshots every `iterations`.
    #[must_use]
    pub fn checkpoint_interval(mut self, iterations: u64) -> Self {
        self.work.checkpoint_interval = Some(iterations.max(1));
        self
    }

    /// Sets the iteration stride between progress events / token polls.
    #[must_use]
    pub fn progress_stride(mut self, stride: u64) -> Self {
        self.work.progress_stride = stride.max(1);
        self
    }

    /// Attaches an observer callback (in addition to the handle's event
    /// channel); called synchronously from the job's threads.
    #[must_use]
    pub fn observer(mut self, observer: impl Fn(&Event) + Send + Sync + 'static) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// The strategy this spec runs.
    #[must_use]
    pub fn strategy(&self) -> &StrategySpec {
        &self.work.strategy
    }

    /// Checks the spec for impossible workloads (the same two checks
    /// `StrategySpec::run` repeats on the request, so submission-time and
    /// run-time rejection cannot drift apart).
    ///
    /// # Errors
    /// [`RunError::InvalidSpec`] for a zero iteration budget, an empty
    /// image, image/parameter dimension mismatch, or scheme options that
    /// would panic inside a strategy (see `StrategySpec::validate`).
    pub fn validate(&self) -> Result<(), RunError> {
        self.work.strategy.validate()?;
        crate::engine::validate_workload(self.work.iterations, &self.work.image, &self.work.params)
    }
}
