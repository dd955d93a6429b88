//! Live handles to submitted work: observe it, cancel it, wait for it.

use crate::engine::RunReport;
use crate::job::ctx::{CancelToken, Event};
use crate::job::error::RunError;
use crate::job::spec::JobId;
use crossbeam::channel::Receiver;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A handle to a submitted job: observe it, cancel it, wait for it.
///
/// Dropping a handle without calling [`JobHandle::wait`] detaches the job
/// (it keeps running to completion on the engine).
pub struct JobHandle {
    pub(crate) id: JobId,
    pub(crate) strategy: &'static str,
    pub(crate) cancel: CancelToken,
    pub(crate) events: Receiver<Event>,
    pub(crate) done: Receiver<Result<RunReport, RunError>>,
    pub(crate) finished: Arc<AtomicBool>,
}

impl fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("strategy", &self.strategy)
            .field("finished", &self.is_finished())
            .finish_non_exhaustive()
    }
}

impl JobHandle {
    /// The job's engine-unique id.
    #[must_use]
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Registry name of the strategy the job runs.
    #[must_use]
    pub fn strategy(&self) -> &'static str {
        self.strategy
    }

    /// Requests cooperative cancellation; the job winds down at its next
    /// token poll and [`JobHandle::wait`] returns [`RunError::Cancelled`].
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// A clone of the job's cancel token (e.g. to hand to a timeout task).
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Whether the job has finished (its result is available or already
    /// consumed).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.finished.load(Ordering::Acquire)
    }

    /// The job's event stream. Blocking `recv` returns `Err` once the job
    /// has finished and all buffered events were drained.
    #[must_use]
    pub fn events(&self) -> &Receiver<Event> {
        &self.events
    }

    /// Blocks until the job finishes and returns its report.
    ///
    /// # Errors
    /// [`RunError::Cancelled`] / [`RunError::DeadlineExceeded`] when the
    /// run stopped early, [`RunError::Panicked`] when the job
    /// panicked, or whatever structured error the strategy returned.
    pub fn wait(self) -> Result<RunReport, RunError> {
        // A disconnected channel is unreachable through the shipped
        // backends (PreparedJob::execute sends exactly one result, panics
        // included); a backend that drops a job without running it
        // surfaces here.
        self.done.recv().unwrap_or_else(|_| Err(dropped()))
    }
}

/// The error of a job whose backend dropped it without resolving it.
fn dropped() -> RunError {
    RunError::Panicked("job was dropped by its backend without reporting a result".to_owned())
}

/// N jobs sharing one backend, with per-job reports streamed as they
/// finish.
pub struct Batch {
    pub(crate) handles: Vec<JobHandle>,
    /// The batch stream: each job's one result, tagged with its
    /// submission index.
    pub(crate) finished: Receiver<(usize, Result<RunReport, RunError>)>,
    /// Every result received so far, by submission index.
    pub(crate) results: Vec<Option<Result<RunReport, RunError>>>,
}

impl Batch {
    /// Number of jobs in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Whether the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// The per-job handles, in submission order (for cancellation or event
    /// streaming of individual jobs).
    #[must_use]
    pub fn handles(&self) -> &[JobHandle] {
        &self.handles
    }

    /// Blocks for the next finished job and returns its submission index
    /// and a copy of its result; `None` once every job's result has been
    /// streamed. Job runners report exactly once each — panicking
    /// strategies included (they stream as [`RunError::Panicked`]) — so a
    /// batch of N yields N results. The batch keeps each result for
    /// [`Batch::wait_all`].
    pub fn next_finished(&mut self) -> Option<(usize, Result<RunReport, RunError>)> {
        self.receive().map(|(idx, result)| (idx, result.clone()))
    }

    /// Drains the batch and returns every result in submission order,
    /// streamed ones included.
    #[must_use]
    pub fn wait_all(mut self) -> Vec<Result<RunReport, RunError>> {
        while self.receive().is_some() {}
        (self.results.into_iter())
            .map(|slot| slot.unwrap_or_else(|| Err(dropped())))
            .collect()
    }

    /// Receives the next result into its slot. `None` once every job has
    /// resolved: each completion holds a sender, so the stream disconnects
    /// when the last one has sent, or was dropped by its backend.
    fn receive(&mut self) -> Option<(usize, &Result<RunReport, RunError>)> {
        let (idx, result) = self.finished.recv().ok()?;
        Some((idx, self.results[idx].insert(result)))
    }
}
