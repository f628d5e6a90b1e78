//! Fixture tests for the lint pass: one known-bad and one known-good
//! snippet per lint, asserting exact finding counts and lines, plus
//! the escape-hatch rules (a reasonless allow is rejected).

use std::collections::BTreeSet;
use std::path::Path;

use isla_analysis::lints::{self, LintRun};
use isla_analysis::scanner;
use isla_analysis::{Level, SourceFile};

/// Loads a fixture as a library source file of its own little crate.
fn fixture(name: &str, crate_name: &str, is_crate_root: bool) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    SourceFile {
        rel: format!("fixtures/{name}"),
        crate_name: crate_name.to_string(),
        is_crate_root,
        is_seed_module: false,
        panic_exempt: false,
        scan: scanner::scan(&source),
    }
}

fn run_on(file: SourceFile, identity: &[&str]) -> LintRun {
    run_on_all(&[file], identity)
}

fn run_on_all(files: &[SourceFile], identity: &[&str]) -> LintRun {
    let idents: BTreeSet<String> = identity.iter().map(|s| s.to_string()).collect();
    lints::run(files, Some(&idents))
}

/// As [`run_on`], with the forwarding-impl fixture alongside `name`.
fn run_with_forwarding(name: &str, identity: &[&str]) -> LintRun {
    let files = [
        fixture(name, "fx", false),
        fixture("good/kernel_forwarding.rs", "fx", false),
    ];
    run_on_all(&files, identity)
}

/// `(line, lint)` pairs of the error-level findings.
fn error_lines(run: &LintRun) -> Vec<(u32, String)> {
    run.findings
        .iter()
        .filter(|f| f.level == Level::Error)
        .map(|f| (f.line, f.lint.clone()))
        .collect()
}

#[test]
fn bad_determinism_fixture_yields_three_findings_at_exact_lines() {
    let run = run_on(fixture("bad/determinism.rs", "fx", false), &[]);
    let d = "determinism".to_string();
    assert_eq!(
        error_lines(&run),
        vec![(4, d.clone()), (8, d.clone()), (12, d)]
    );
}

#[test]
fn good_determinism_fixture_is_clean_and_its_allow_is_used() {
    let run = run_on(fixture("good/determinism.rs", "fx", false), &[]);
    assert_eq!(error_lines(&run), vec![]);
    assert!(
        run.findings.is_empty(),
        "no unused-allow notes either: {:?}",
        run.findings
    );
}

#[test]
fn bad_panic_fixture_yields_findings_including_the_reasonless_allow() {
    let run = run_on(fixture("bad/panic.rs", "fx", false), &[]);
    let errors = error_lines(&run);
    let panic_lines: Vec<u32> = errors
        .iter()
        .filter(|(_, l)| l == "panic-freedom")
        .map(|(line, _)| *line)
        .collect();
    assert_eq!(panic_lines, vec![4, 8, 12, 18, 24]);
    let annotation_lines: Vec<u32> = errors
        .iter()
        .filter(|(_, l)| l == "annotation")
        .map(|(line, _)| *line)
        .collect();
    assert_eq!(
        annotation_lines,
        vec![23],
        "allow without a reason is rejected"
    );
}

#[test]
fn good_panic_fixture_is_clean() {
    let run = run_on(fixture("good/panic.rs", "fx", false), &[]);
    assert_eq!(error_lines(&run), vec![]);
    assert!(run.findings.is_empty(), "{:?}", run.findings);
}

#[test]
fn bad_lock_fixture_flags_each_live_guard_at_the_execution_call() {
    let run = run_on(fixture("bad/lock.rs", "fx", false), &[]);
    let lock_lines: Vec<u32> = error_lines(&run)
        .iter()
        .filter(|(_, l)| l == "lock-discipline")
        .map(|(line, _)| *line)
        .collect();
    assert_eq!(lock_lines, vec![6, 11, 16]);
}

#[test]
fn bad_spine_fixture_flags_guards_across_the_entry_points_the_executor_calls() {
    let run = run_on(fixture("bad/lock_spine.rs", "fx", false), &[]);
    assert_eq!(
        error_lines(&run),
        [7, 12, 18, 23].map(|line| (line, "lock-discipline".to_string()))
    );
    for (finding, entry) in run.findings.iter().zip([
        "run_plan_with",
        "run_row_plan_with",
        "scan_blocks_recovering",
        "run_calculation",
    ]) {
        assert!(
            finding.message.contains(&format!("`{entry}`")),
            "{}",
            finding.message
        );
    }
}

#[test]
fn good_spine_fixture_is_clean() {
    let run = run_on(fixture("good/lock_spine.rs", "fx", false), &[]);
    assert_eq!(error_lines(&run), vec![]);
}

#[test]
fn bad_exact_fixture_flags_guards_across_every_exact_scan_entry_point() {
    let run = run_on(fixture("bad/lock_exact.rs", "fx", false), &[]);
    assert_eq!(
        error_lines(&run),
        [7, 12, 17, 23].map(|line| (line, "lock-discipline".to_string()))
    );
    for (finding, entry) in run.findings.iter().zip([
        "scan_exact_mean",
        "scan_exact_groups_on",
        "scan_exact_groups",
        "scan_exact_extreme",
    ]) {
        assert!(
            finding.message.contains(&format!("`{entry}`")),
            "{}",
            finding.message
        );
    }
}

#[test]
fn good_exact_fixture_is_clean() {
    let run = run_on(fixture("good/lock_exact.rs", "fx", false), &[]);
    assert_eq!(error_lines(&run), vec![]);
}

#[test]
fn bad_filtered_extreme_fixture_flags_each_guard_at_the_scan() {
    let run = run_on(fixture("bad/lock_exact_filtered.rs", "fx", false), &[]);
    assert_eq!(
        error_lines(&run),
        [7, 13].map(|line| (line, "lock-discipline".to_string()))
    );
    assert!(
        run.findings
            .iter()
            .all(|f| f.message.contains("`scan_exact_filtered_extreme`")),
        "{:?}",
        run.findings
    );
}

#[test]
fn good_filtered_extreme_fixture_is_clean() {
    let run = run_on(fixture("good/lock_exact_filtered.rs", "fx", false), &[]);
    assert_eq!(error_lines(&run), vec![]);
}

#[test]
fn bad_seal_fixture_flags_each_guard_live_across_sealing() {
    let run = run_on(fixture("bad/seal.rs", "fx", false), &[]);
    let seal_lines: Vec<u32> = error_lines(&run)
        .into_iter()
        .filter(|(_, l)| l == "lock-discipline")
        .map(|(line, _)| line)
        .collect();
    assert_eq!(seal_lines, vec![5, 11]);
    assert!(
        run.findings
            .iter()
            .all(|f| f.message.contains("merge the sealed results")),
        "seal findings carry seal-specific advice: {:?}",
        run.findings
    );
}

#[test]
fn good_seal_fixture_is_clean() {
    let run = run_on(fixture("good/seal.rs", "fx", false), &[]);
    assert_eq!(error_lines(&run), vec![]);
}

#[test]
fn good_lock_fixture_is_clean() {
    let run = run_on(fixture("good/lock.rs", "fx", false), &[]);
    assert_eq!(error_lines(&run), vec![]);
}

#[test]
fn uncovered_kernel_override_is_flagged() {
    let run = run_on(fixture("bad/kernel.rs", "fx", false), &["RowsBlock"]);
    let errors = error_lines(&run);
    assert_eq!(errors, vec![(7, "kernel-coverage".to_string())]);
    let message = &run.findings[0].message;
    assert!(message.contains("UncoveredBlock"), "{message}");
    assert!(message.contains("gather, draw, sketch"), "{message}");
}

#[test]
fn uncovered_draw_override_is_flagged() {
    let run = run_on(fixture("bad/kernel_draw.rs", "fx", false), &["RowsBlock"]);
    assert_eq!(error_lines(&run), vec![(8, "kernel-coverage".to_string())]);
    let message = &run.findings[0].message;
    assert!(message.contains("UncoveredDraw"), "{message}");
    assert!(message.contains("draw"), "{message}");
}

#[test]
fn uncovered_column_chunk_override_is_flagged() {
    let run = run_on(
        fixture("bad/kernel_column_chunks.rs", "fx", false),
        &["RowsBlock"],
    );
    assert_eq!(error_lines(&run), vec![(8, "kernel-coverage".to_string())]);
    let message = &run.findings[0].message;
    assert!(message.contains("UncoveredChunks"), "{message}");
    assert!(message.contains("scan_column_chunks"), "{message}");
}

#[test]
fn covered_and_forwarding_column_chunk_impls_are_clean() {
    let run = run_with_forwarding("good/kernel_column_chunks.rs", &["CoveredChunks"]);
    assert_eq!(error_lines(&run), vec![]);
}

#[test]
fn uncovered_zone_override_is_flagged() {
    let run = run_on(fixture("bad/kernel_zone.rs", "fx", false), &["RowsBlock"]);
    assert_eq!(error_lines(&run), vec![(8, "kernel-coverage".to_string())]);
    let message = &run.findings[0].message;
    assert!(message.contains("UncoveredZone"), "{message}");
    assert!(message.contains("zone"), "{message}");
}

#[test]
fn covered_and_forwarding_zone_impls_are_clean() {
    let run = run_with_forwarding("good/kernel_zone.rs", &["CoveredZone"]);
    assert_eq!(error_lines(&run), vec![]);
}

#[test]
fn covered_and_forwarding_kernel_impls_are_clean() {
    let run = run_with_forwarding("good/kernel.rs", &["CoveredBlock"]);
    assert_eq!(error_lines(&run), vec![]);
}

#[test]
fn test_local_kernel_impls_are_exempt() {
    let run = run_on(fixture("good/kernel_test_local.rs", "fx", false), &[]);
    assert_eq!(error_lines(&run), vec![]);
}

#[test]
fn forwarding_impls_are_exempt_whatever_the_identity_tests_name() {
    // The blanket form's `where P::Target: DataBlock` used to be read as
    // the target type, and passed only where the identity tests happen
    // to mention `DataBlock`.
    let run = run_on(fixture("good/kernel_forwarding.rs", "fx", false), &[]);
    assert_eq!(error_lines(&run), vec![]);
}

#[test]
fn missing_identity_file_is_itself_a_finding() {
    let file = fixture("bad/kernel.rs", "fx", false);
    let run = lints::run(&[file], None);
    assert!(run
        .findings
        .iter()
        .any(|f| f.lint == "kernel-coverage" && f.message.contains("not found")));
}

/// A fixture read as an engine source file.
fn engine_fixture(name: &str) -> SourceFile {
    SourceFile {
        rel: "crates/core/src/engine/fixture.rs".to_string(),
        ..fixture(name, "core", false)
    }
}

#[test]
fn bad_row_fold_fixture_flags_each_per_row_test_in_the_engine() {
    let run = run_on(engine_fixture("bad/row_fold.rs"), &[]);
    assert_eq!(
        error_lines(&run),
        [5, 12].map(|line| (line, "row-fold".to_string()))
    );
    // Outside the engine, a per-row test is not a fold's business.
    let run = run_on(fixture("bad/row_fold.rs", "fx", false), &[]);
    assert_eq!(error_lines(&run), vec![]);
}

#[test]
fn good_row_fold_fixture_is_clean() {
    let run = run_on(engine_fixture("good/row_fold.rs"), &[]);
    assert_eq!(error_lines(&run), vec![]);
    assert!(run.findings.is_empty(), "{:?}", run.findings);
}

#[test]
fn unjustified_unsafe_is_an_error_justified_is_a_note() {
    let run = run_on(fixture("bad/unsafe_code.rs", "fx", true), &[]);
    assert_eq!(error_lines(&run), vec![(5, "unsafe-code".to_string())]);

    let run = run_on(fixture("good/unsafe_justified.rs", "fx", false), &[]);
    assert_eq!(error_lines(&run), vec![]);
    let notes: Vec<&str> = run
        .findings
        .iter()
        .filter(|f| f.level == Level::Note)
        .map(|f| f.lint.as_str())
        .collect();
    assert_eq!(notes, vec!["unsafe-code"], "inventoried, not failed");
}

#[test]
fn unsafe_free_crate_without_the_gate_is_flagged_with_it_is_clean() {
    let run = run_on(fixture("bad/missing_forbid.rs", "fx", true), &[]);
    assert_eq!(error_lines(&run), vec![(1, "unsafe-code".to_string())]);

    let run = run_on(fixture("good/unsafe_code.rs", "fx", true), &[]);
    assert_eq!(error_lines(&run), vec![]);
}

#[test]
fn bad_discarded_fixture_flags_both_forms_and_the_reasonless_allow() {
    let run = run_on(fixture("bad/discarded.rs", "fx", false), &[]);
    let errors = error_lines(&run);
    let discarded: Vec<u32> = errors
        .iter()
        .filter(|(_, l)| l == "discarded-result")
        .map(|(line, _)| *line)
        .collect();
    assert_eq!(discarded, vec![4, 8, 13]);
    let annotation: Vec<u32> = errors
        .iter()
        .filter(|(_, l)| l == "annotation")
        .map(|(line, _)| *line)
        .collect();
    assert_eq!(
        annotation,
        vec![12],
        "a reasonless allow suppresses nothing"
    );
}

#[test]
fn good_discarded_fixture_is_clean_and_its_allow_is_used() {
    let run = run_on(fixture("good/discarded.rs", "fx", false), &[]);
    assert_eq!(error_lines(&run), vec![]);
    assert!(
        run.findings.is_empty(),
        "no unused-allow notes either: {:?}",
        run.findings
    );
}

#[test]
fn unknown_lint_names_and_unused_allows_are_reported() {
    let source = "// isla-lint: allow(speling-mistake, reason = \"oops\")\n\
                  pub fn f() {}\n\
                  // isla-lint: allow(panic-freedom, reason = \"nothing here panics\")\n\
                  pub fn g() {}\n";
    let file = SourceFile {
        rel: "inline.rs".to_string(),
        crate_name: "fx".to_string(),
        is_crate_root: false,
        is_seed_module: false,
        panic_exempt: false,
        scan: scanner::scan(source),
    };
    let run = lints::run(&[file], Some(&BTreeSet::new()));
    assert!(run
        .findings
        .iter()
        .any(|f| f.level == Level::Error && f.message.contains("unknown lint")));
    assert!(
        run.findings
            .iter()
            .any(|f| f.level == Level::Note && f.message.contains("did not suppress")),
        "{:?}",
        run.findings
    );
}

#[test]
fn seed_module_itself_may_construct_rngs() {
    let source = "pub fn seeded_rng(seed: u64) -> StdRng { StdRng::seed_from_u64(seed) }\n";
    let file = SourceFile {
        rel: "crates/core/src/engine/seed.rs".to_string(),
        crate_name: "core".to_string(),
        is_crate_root: false,
        is_seed_module: true,
        panic_exempt: false,
        scan: scanner::scan(source),
    };
    let run = lints::run(&[file], Some(&BTreeSet::new()));
    assert_eq!(error_lines(&run), vec![]);
}
