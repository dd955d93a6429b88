//! Structured failure modes of the job layer.

use std::fmt;

/// Structured failure modes of a run — the replacement for the panics and
/// `Option`s of the original one-shot API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The spec describes an impossible workload (zero iterations, empty
    /// image, mismatched dimensions, zero workers, malformed strategy
    /// options).
    InvalidSpec(String),
    /// No strategy is registered under the given name.
    UnknownStrategy(String),
    /// The job's [`CancelToken`](crate::job::CancelToken) fired; the run
    /// stopped cooperatively.
    Cancelled {
        /// Iterations completed before the token was observed.
        completed_iterations: u64,
    },
    /// The job's deadline passed before the iteration budget was spent.
    DeadlineExceeded {
        /// Iterations completed before the deadline was observed.
        completed_iterations: u64,
    },
    /// The job panicked; the payload message is preserved.
    Panicked(String),
    /// Distributed execution lost contact with the job: the node running
    /// it died (and no survivor could take it over), the connection
    /// broke, or a wire payload failed to decode. The message names the
    /// node and the transport failure.
    Transport(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::InvalidSpec(msg) => write!(f, "invalid spec: {msg}"),
            RunError::UnknownStrategy(name) => write!(f, "unknown strategy `{name}`"),
            RunError::Cancelled {
                completed_iterations,
            } => write!(f, "cancelled after {completed_iterations} iterations"),
            RunError::DeadlineExceeded {
                completed_iterations,
            } => write!(
                f,
                "deadline exceeded after {completed_iterations} iterations"
            ),
            RunError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            RunError::Transport(msg) => write!(f, "transport failure: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Extracts a human-readable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_owned())
}
