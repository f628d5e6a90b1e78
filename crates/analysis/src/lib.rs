//! `isla-analysis`: in-repo invariant lints for the ISLA workspace.
//!
//! The engine's headline guarantee — pooled execution bit-identical to
//! sequential — rests on invariants the compiler cannot check: every
//! RNG is seeded through `isla_core::engine::seed`, no lock guard is
//! held across block execution, library code never panics on fallible
//! paths, and every overridden batch kernel is pinned by
//! `tests/kernel_identity.rs`. This crate walks the workspace's own
//! sources with a lightweight token scanner (no `syn`; the build
//! environment has no registry access) and enforces those invariants as
//! machine-checked lints, with an inline
//! `// isla-lint: allow(<lint>, reason = "…")` escape hatch that
//! requires a justification.
//!
//! See the "Checked invariants" section of `DESIGN.md` for the full
//! rationale, and `src/main.rs` for the CLI (`--ci`, `--json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

pub mod lints;
pub mod report;
pub mod scanner;

pub use report::{Finding, Level};

use isla_bench::json::Json;

/// One scanned library source file with its lint-relevant context.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (`crates/core/src/lib.rs`).
    pub rel: String,
    /// The crate the file belongs to (directory name under `crates/`,
    /// or `workspace` for the root package's `src/`).
    pub crate_name: String,
    /// True for the crate's `lib.rs` / `main.rs`.
    pub is_crate_root: bool,
    /// True for the engine's seed-derivation module, the one place RNG
    /// construction is legal.
    pub is_seed_module: bool,
    /// True for crates exempt from the panic-freedom lint (the bench
    /// harness, whose `expect`s on experiment I/O are deliberate).
    pub panic_exempt: bool,
    /// The scan result.
    pub scan: scanner::Scanned,
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures"];

/// Crates whose library code may panic: the bench harness aborts on
/// experiment-artifact I/O failures by design.
const PANIC_EXEMPT_CRATES: &[&str] = &["bench"];

/// The one module allowed to construct RNGs.
const SEED_MODULE: &str = "crates/core/src/engine/seed.rs";

/// A full analysis of the workspace.
#[derive(Debug)]
pub struct Analysis {
    /// Every finding, in file/line order.
    pub findings: Vec<Finding>,
    /// Library files scanned.
    pub files_scanned: usize,
    /// Distinct `DataBlock` kernel-override sites checked.
    pub identity_idents: usize,
    /// Code lines per crate ([`scanner::Scanned::code_lines`] summed
    /// over the crate's library files) — the number a simplification
    /// reports as its before and after.
    pub code_lines: BTreeMap<String, usize>,
}

impl Analysis {
    /// Number of error-level findings (what `--ci` gates on).
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.level == Level::Error)
            .count()
    }

    /// Number of note-level findings.
    pub fn notes(&self) -> usize {
        self.findings.len() - self.errors()
    }

    /// The machine-readable report. `clippy` is the stock-lint parity
    /// status (`ok` / `failed` / `skipped` / `not-run`).
    pub fn to_json(&self, clippy: &str) -> Json {
        Json::obj(vec![
            ("tool", Json::str("isla-analysis")),
            ("files_scanned", Json::num(self.files_scanned as f64)),
            (
                "code_lines",
                Json::Obj(
                    self.code_lines
                        .iter()
                        .map(|(name, &lines)| (name.clone(), Json::num(lines as f64)))
                        .collect(),
                ),
            ),
            (
                "findings",
                Json::Arr(self.findings.iter().map(Finding::to_json).collect()),
            ),
            (
                "summary",
                Json::obj(vec![
                    ("errors", Json::num(self.errors() as f64)),
                    ("notes", Json::num(self.notes() as f64)),
                ]),
            ),
            ("clippy", Json::str(clippy)),
        ])
    }
}

/// Errors from the analysis driver itself (I/O, mostly).
#[derive(Debug)]
pub struct AnalysisError(String);

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for AnalysisError {}

/// Analyzes the workspace rooted at `root`: walks `src/` and
/// `crates/*/src`, runs every lint, and cross-checks kernel overrides
/// against `tests/kernel_identity.rs`.
///
/// # Errors
///
/// I/O failures reading the tree (an unreadable individual file is an
/// error: silently skipping it would silently skip its findings).
pub fn analyze(root: &Path) -> Result<Analysis, AnalysisError> {
    let files = collect_sources(root)?;
    let identity = identity_identifiers(root);
    let mut code_lines = BTreeMap::new();
    for file in &files {
        *code_lines.entry(file.crate_name.clone()).or_insert(0) += file.scan.code_lines();
    }
    let mut run = lints::run(&files, identity.as_ref());
    run.findings
        .sort_by(|a, b| (&a.file, a.line, &a.lint).cmp(&(&b.file, b.line, &b.lint)));
    Ok(Analysis {
        findings: run.findings,
        files_scanned: files.len(),
        identity_idents: identity.map_or(0, |s| s.len()),
        code_lines,
    })
}

/// Finds the workspace root by walking up from `start` to the nearest
/// `Cargo.toml` declaring `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    for dir in start.ancestors() {
        let manifest = dir.join("Cargo.toml");
        if let Ok(contents) = fs::read_to_string(&manifest) {
            if contents.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
    }
    None
}

/// Collects and scans every library source file under `root`.
fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, AnalysisError> {
    let mut dirs: Vec<(String, PathBuf)> = vec![("workspace".to_string(), root.join("src"))];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let entries = fs::read_dir(&crates_dir)
            .map_err(|e| AnalysisError(format!("read {}: {e}", crates_dir.display())))?;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.join("src").is_dir() {
                let name = entry.file_name().to_string_lossy().to_string();
                dirs.push((name, path.join("src")));
            }
        }
    }
    dirs.sort();

    let mut files = Vec::new();
    for (crate_name, src_dir) in dirs {
        if !src_dir.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        walk_rs(&src_dir, &mut paths)?;
        paths.sort();
        for path in paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let source = fs::read_to_string(&path)
                .map_err(|e| AnalysisError(format!("read {}: {e}", path.display())))?;
            let file_name = path.file_name().map(|n| n.to_string_lossy().to_string());
            files.push(SourceFile {
                is_crate_root: matches!(file_name.as_deref(), Some("lib.rs" | "main.rs"))
                    && path.parent() == Some(src_dir.as_path()),
                is_seed_module: rel == SEED_MODULE,
                panic_exempt: PANIC_EXEMPT_CRATES.contains(&crate_name.as_str()),
                crate_name: crate_name.clone(),
                scan: scanner::scan(&source),
                rel,
            });
        }
    }
    Ok(files)
}

/// Recursively collects `.rs` files, skipping [`SKIP_DIRS`].
fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), AnalysisError> {
    let entries =
        fs::read_dir(dir).map_err(|e| AnalysisError(format!("read {}: {e}", dir.display())))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name().to_string_lossy().to_string();
            if !SKIP_DIRS.contains(&name.as_str()) {
                walk_rs(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The identifier set of `tests/kernel_identity.rs` (code tokens only —
/// a type mentioned solely in a comment does not count as covered).
/// [`None`] when the file is missing.
fn identity_identifiers(root: &Path) -> Option<BTreeSet<String>> {
    let path = root.join("tests").join("kernel_identity.rs");
    let source = fs::read_to_string(path).ok()?;
    let scanned = scanner::scan(&source);
    Some(
        scanned
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_is_found_from_this_crate() {
        let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(&here).expect("workspace root");
        assert!(root.join("crates").is_dir());
        assert!(root.join("tests").join("kernel_identity.rs").is_file());
    }

    #[test]
    fn analysis_scans_the_whole_workspace() {
        let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(&here).expect("workspace root");
        let analysis = analyze(&root).expect("analysis runs");
        assert!(
            analysis.files_scanned > 40,
            "expected the full workspace, scanned {}",
            analysis.files_scanned
        );
        assert!(analysis.identity_idents > 0, "identity test file parsed");
        assert!(analysis.code_lines["core"] > 1_000, "per-crate code lines");
    }

    #[test]
    fn json_report_round_trips_through_the_bench_parser() {
        let analysis = Analysis {
            findings: vec![Finding {
                lint: "panic-freedom".to_string(),
                level: Level::Error,
                file: "crates/x/src/lib.rs".to_string(),
                line: 3,
                message: "`.unwrap()` in library code".to_string(),
            }],
            files_scanned: 1,
            identity_idents: 0,
            code_lines: BTreeMap::from([("x".to_string(), 120)]),
        };
        let rendered = analysis.to_json("skipped").render();
        let parsed = isla_bench::json::parse(&rendered).expect("valid JSON");
        let errors = isla_bench::json::get(&parsed, "summary.errors");
        assert_eq!(errors, Some(&isla_bench::json::Json::Num(1.0)));
        let lines = isla_bench::json::get(&parsed, "code_lines.x");
        assert_eq!(lines, Some(&isla_bench::json::Json::Num(120.0)));
        let clippy = isla_bench::json::get(&parsed, "clippy");
        assert_eq!(clippy, Some(&isla_bench::json::Json::str("skipped")));
    }
}
