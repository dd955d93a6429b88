//! The five repo-specific lints.
//!
//! Each lint is a pure function over a lexed
//! [`SourceFile`](crate::source::SourceFile) (plus its
//! slice of configuration), returning findings; all file-system and
//! severity plumbing lives in [`crate::run_check`]. That keeps every
//! lint unit-testable against fixture snippets.

pub mod atomics;
pub mod determinism;
pub mod panic_audit;
pub mod unsafe_audit;
pub mod wire_guard;

use crate::config::Allow;

/// An allowlist with per-entry usage tracking, shared across every file
/// a lint scans so stale entries can be reported at the end of the run.
pub struct AllowTracker<'a> {
    entries: &'a [Allow],
    used: Vec<bool>,
}

impl<'a> AllowTracker<'a> {
    /// Wraps `entries` with all-unused state.
    #[must_use]
    pub fn new(entries: &'a [Allow]) -> Self {
        Self {
            entries,
            used: vec![false; entries.len()],
        }
    }

    /// True when some entry covers a finding at `file`:`line_text`;
    /// marks every covering entry as used.
    pub fn permits(&mut self, file: &str, line_text: &str) -> bool {
        let mut hit = false;
        for (i, entry) in self.entries.iter().enumerate() {
            if entry.matches(file, line_text) {
                self.used[i] = true;
                hit = true;
            }
        }
        hit
    }

    /// Entries that never matched anything — candidates for deletion.
    #[must_use]
    pub fn unused(&self) -> Vec<&'a Allow> {
        self.entries
            .iter()
            .zip(&self.used)
            .filter(|(_, &used)| !used)
            .map(|(e, _)| e)
            .collect()
    }
}

/// True for files that are test code by location rather than by
/// `#[cfg(test)]` marking: integration-test trees.
#[must_use]
pub fn is_test_file(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}
