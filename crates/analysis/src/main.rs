//! CLI for the in-repo invariant lints.
//!
//! ```text
//! isla-analysis [--ci] [--json <path>] [--root <dir>] [--no-clippy]
//! ```
//!
//! * default: print human-readable diagnostics, always exit 0;
//! * `--ci`: exit nonzero on any error-level finding, and additionally
//!   run a best-effort `cargo clippy --all-targets -- -D warnings`
//!   parity check so one command reports both custom and stock lint
//!   status (`--no-clippy` skips it, e.g. in the self-tests);
//! * `--json <path>`: also write the machine-readable report — the
//!   document is validated against `isla_bench::json`'s parser before
//!   it is written, so the schema cannot silently rot.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use isla_analysis::{analyze, find_workspace_root};

/// Parsed command-line options.
struct Options {
    ci: bool,
    json: Option<PathBuf>,
    root: Option<PathBuf>,
    no_clippy: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        ci: false,
        json: None,
        root: None,
        no_clippy: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ci" => opts.ci = true,
            "--no-clippy" => opts.no_clippy = true,
            "--json" => {
                let path = args.next().ok_or("--json requires a path")?;
                opts.json = Some(PathBuf::from(path));
            }
            "--root" => {
                let path = args.next().ok_or("--root requires a directory")?;
                opts.root = Some(PathBuf::from(path));
            }
            "--help" | "-h" => {
                println!(
                    "isla-analysis: in-repo invariant lints\n\n\
                     usage: isla-analysis [--ci] [--json <path>] [--root <dir>] [--no-clippy]\n\n\
                     lints: determinism, panic-freedom, lock-discipline, kernel-coverage,\n\
                     unsafe-code. Escape hatch: `// isla-lint: allow(<lint>, reason = \"…\")`."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// Runs `cargo clippy --all-targets -- -D warnings` in `root`.
/// Best-effort: an unspawnable cargo is "skipped", not a failure.
fn clippy_parity(root: &std::path::Path) -> &'static str {
    let result = Command::new("cargo")
        .args(["clippy", "--all-targets", "--", "-D", "warnings"])
        .current_dir(root)
        .output();
    match result {
        Ok(out) if out.status.success() => "ok",
        Ok(out) => {
            let stderr = String::from_utf8_lossy(&out.stderr);
            let tail: Vec<&str> = stderr.lines().rev().take(15).collect();
            for line in tail.iter().rev() {
                eprintln!("clippy: {line}");
            }
            "failed"
        }
        Err(_) => "skipped",
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("isla-analysis: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let root = match opts.root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(root) => root,
        None => {
            eprintln!("isla-analysis: no workspace root found (use --root <dir>)");
            return ExitCode::FAILURE;
        }
    };

    let analysis = match analyze(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("isla-analysis: {e}");
            return ExitCode::FAILURE;
        }
    };

    for finding in &analysis.findings {
        println!("{}", finding.render());
    }

    // Stock-lint parity: one command, both verdicts.
    let clippy = if opts.ci && !opts.no_clippy {
        clippy_parity(&root)
    } else {
        "not-run"
    };

    let total: usize = analysis.code_lines.values().sum();
    for (name, lines) in &analysis.code_lines {
        println!("isla-analysis: code lines {name:<12} {lines:>6}");
    }
    println!("isla-analysis: code lines {:<12} {total:>6}", "(all)");

    let errors = analysis.errors();
    println!(
        "isla-analysis: {} files scanned, {} errors, {} notes, clippy {}",
        analysis.files_scanned,
        errors,
        analysis.notes(),
        clippy
    );

    if let Some(path) = opts.json {
        let doc = analysis.to_json(clippy);
        let rendered = doc.render();
        // Validate the emitted document before writing it.
        if let Err(e) = isla_bench::json::parse(&rendered) {
            eprintln!("isla-analysis: emitted JSON failed self-validation: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(&path, rendered) {
            eprintln!("isla-analysis: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("isla-analysis: report written to {}", path.display());
    }

    if opts.ci && (errors > 0 || clippy == "failed") {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
