//! Fixture-driven proof that each lint fires on violating code and stays
//! quiet on clean code, including the lexer traps a naive scanner falls
//! into. Fixtures live under `tests/fixtures/` (excluded from the live
//! workspace scan) and are lexed with a caller-chosen workspace-relative
//! path so scope/path matching can be exercised.

use pmcmc_analysis::config::{Allow, DeterminismScope};
use pmcmc_analysis::diag::{Finding, Severity};
use pmcmc_analysis::lints::{self, AllowTracker};
use pmcmc_analysis::source::SourceFile;
use std::fs;
use std::path::Path;

/// Lexes a fixture as if it lived at `as_path` in the workspace.
fn fixture(name: &str, as_path: &str) -> SourceFile {
    let disk = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = fs::read_to_string(&disk).unwrap_or_else(|e| panic!("read {}: {e}", disk.display()));
    SourceFile::new(as_path, &src)
}

fn lines(findings: &[Finding]) -> Vec<u32> {
    findings.iter().map(|f| f.line).collect()
}

// ---------------------------------------------------------------- unsafe

#[test]
fn unsafe_audit_fires_on_unjustified_sites() {
    let file = fixture("unsafe_violating.rs", "crates/x/src/lib.rs");
    let mut allow = AllowTracker::new(&[]);
    let findings = lints::unsafe_audit::run(&file, &mut allow, Severity::Error);
    assert_eq!(
        lines(&findings),
        vec![5, 8, 16],
        "bare block, uncontracted fn, and the site cut off from a \
         justification by an intervening statement: {findings:?}"
    );
}

#[test]
fn unsafe_audit_accepts_justified_sites() {
    let file = fixture("unsafe_clean.rs", "crates/x/src/lib.rs");
    let mut allow = AllowTracker::new(&[]);
    let findings = lints::unsafe_audit::run(&file, &mut allow, Severity::Error);
    assert!(findings.is_empty(), "clean fixture flagged: {findings:?}");
}

#[test]
fn unsafe_audit_ignores_strings_and_comments() {
    let file = fixture("lexer_edgecases.rs", "crates/x/src/lib.rs");
    let mut allow = AllowTracker::new(&[]);
    let findings = lints::unsafe_audit::run(&file, &mut allow, Severity::Error);
    assert!(findings.is_empty(), "phantom unsafe sites: {findings:?}");
}

// ----------------------------------------------------------- determinism

fn scopes() -> Vec<DeterminismScope> {
    vec![DeterminismScope {
        paths: vec!["crates/core/src/".to_owned()],
        ban: [
            "Instant",
            "SystemTime",
            "thread_rng",
            "from_entropy",
            "HashMap",
            "HashSet",
        ]
        .map(str::to_owned)
        .to_vec(),
    }]
}

#[test]
fn determinism_fires_in_scope_and_spares_tests() {
    let file = fixture("determinism_violating.rs", "crates/core/src/x.rs");
    let mut allow = AllowTracker::new(&[]);
    let findings = lints::determinism::run(&file, &scopes(), &mut allow, Severity::Error);
    assert_eq!(
        lines(&findings),
        vec![4, 5, 8, 13],
        "both imports and both uses, nothing from the test module: {findings:?}"
    );
}

#[test]
fn determinism_ignores_files_outside_scope() {
    let file = fixture("determinism_violating.rs", "examples/x.rs");
    let mut allow = AllowTracker::new(&[]);
    let findings = lints::determinism::run(&file, &scopes(), &mut allow, Severity::Error);
    assert!(
        findings.is_empty(),
        "out-of-scope file flagged: {findings:?}"
    );
}

#[test]
fn determinism_accepts_clean_code_and_string_mentions() {
    let file = fixture("determinism_clean.rs", "crates/core/src/x.rs");
    let mut allow = AllowTracker::new(&[]);
    let findings = lints::determinism::run(&file, &scopes(), &mut allow, Severity::Error);
    assert!(findings.is_empty(), "clean fixture flagged: {findings:?}");
}

// --------------------------------------------------------------- atomics

#[test]
fn atomics_fires_on_relaxed_publication() {
    let file = fixture("atomics_violating.rs", "crates/x/src/lib.rs");
    let mut allow = AllowTracker::new(&[]);
    let findings = lints::atomics::run(&file, &mut allow, Severity::Error);
    assert_eq!(lines(&findings), vec![10, 11], "{findings:?}");
}

#[test]
fn atomics_accepts_release_acquire_imports_and_tests() {
    let file = fixture("atomics_clean.rs", "crates/x/src/lib.rs");
    let mut allow = AllowTracker::new(&[]);
    let findings = lints::atomics::run(&file, &mut allow, Severity::Error);
    assert!(findings.is_empty(), "clean fixture flagged: {findings:?}");
}

#[test]
fn atomics_allowlist_suppresses_and_tracks_usage() {
    let allows = vec![
        Allow {
            file: "crates/x/src/lib.rs".to_owned(),
            contains: "PAYLOAD.store".to_owned(),
            reason: "test entry".to_owned(),
        },
        Allow {
            file: "crates/x/src/lib.rs".to_owned(),
            contains: "never matches anything".to_owned(),
            reason: "stale entry".to_owned(),
        },
    ];
    let file = fixture("atomics_violating.rs", "crates/x/src/lib.rs");
    let mut allow = AllowTracker::new(&allows);
    let findings = lints::atomics::run(&file, &mut allow, Severity::Error);
    assert_eq!(lines(&findings), vec![11], "only READY.store remains");
    let unused: Vec<&str> = allow.unused().iter().map(|a| a.contains.as_str()).collect();
    assert_eq!(unused, vec!["never matches anything"]);
}

// ----------------------------------------------------------- panic audit

fn panic_paths() -> Vec<String> {
    vec!["crates/parallel/src/job/".to_owned()]
}

#[test]
fn panic_audit_fires_in_audited_paths() {
    let file = fixture("panic_violating.rs", "crates/parallel/src/job/daemon.rs");
    let mut allow = AllowTracker::new(&[]);
    let findings = lints::panic_audit::run(&file, &panic_paths(), &mut allow, Severity::Error);
    assert_eq!(lines(&findings), vec![7, 11], "{findings:?}");
}

#[test]
fn panic_audit_ignores_unaudited_paths() {
    let file = fixture("panic_violating.rs", "examples/x.rs");
    let mut allow = AllowTracker::new(&[]);
    let findings = lints::panic_audit::run(&file, &panic_paths(), &mut allow, Severity::Error);
    assert!(findings.is_empty(), "unaudited path flagged: {findings:?}");
}

#[test]
fn panic_audit_accepts_typed_errors_and_lookalikes() {
    let file = fixture("panic_clean.rs", "crates/parallel/src/job/daemon.rs");
    let mut allow = AllowTracker::new(&[]);
    let findings = lints::panic_audit::run(&file, &panic_paths(), &mut allow, Severity::Error);
    assert!(findings.is_empty(), "clean fixture flagged: {findings:?}");
}
