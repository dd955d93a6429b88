//! Lint 2 — determinism: byte-identical replay is a correctness property
//! here (scalar vs AVX2 backends, `Sampler` vs the speculative engine,
//! local vs 1-node distributed runs are all asserted byte-identical), so
//! known nondeterminism sources are banned outright in the sampling
//! paths: wall clocks (`Instant`, `SystemTime`), ambient RNG
//! construction (`thread_rng`, `from_entropy`), and hash collections
//! whose iteration order could leak into reports or wire encoding
//! (`HashMap`, `HashSet`).
//!
//! Scopes are configured in `analysis.toml` (`[[determinism.scope]]`):
//! the core crate bans everything, while `Strategy` implementations may
//! keep `Instant` for wall-clock *diagnostics* (timings in `RunReport`
//! never feed back into the chain). A scope is just paths plus banned
//! identifiers, so the span kernels' ban on libm `floor`/`ceil` (a
//! function call per disk row on baseline x86-64) rides on the same lint.

use super::{is_test_file, AllowTracker};
use crate::config::DeterminismScope;
use crate::diag::{Finding, Severity};
use crate::lexer::Kind;
use crate::source::SourceFile;

/// Lint slug used in findings and `[lints]` configuration.
pub const LINT: &str = "determinism";

/// Runs the lint over one file against the configured scopes.
pub fn run(
    file: &SourceFile,
    scopes: &[DeterminismScope],
    allow: &mut AllowTracker<'_>,
    severity: Severity,
) -> Vec<Finding> {
    if is_test_file(&file.path) {
        return Vec::new();
    }
    let banned: Vec<&str> = scopes
        .iter()
        .filter(|s| s.paths.iter().any(|p| file.path.starts_with(p.as_str())))
        .flat_map(|s| s.ban.iter().map(String::as_str))
        .collect();
    if banned.is_empty() {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for tok in file.code_tokens() {
        if tok.kind != Kind::Ident || !banned.contains(&tok.text.as_str()) {
            continue;
        }
        if file.in_test_region(tok.line) {
            continue;
        }
        if allow.permits(&file.path, file.line_text(tok.line)) {
            continue;
        }
        findings.push(Finding {
            lint: LINT,
            file: file.path.clone(),
            line: tok.line,
            message: format!(
                "`{}` is banned in this path (its [[determinism.scope]] in analysis.toml says \
                 why: replay must stay byte-identical, span kernels libm-free)",
                tok.text
            ),
            severity,
        });
    }
    findings
}
