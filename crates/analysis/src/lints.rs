//! The repo-specific lints, plus the unsafe-code inventory.
//!
//! Each lint guards an invariant the compiler cannot check — see the
//! "Checked invariants" section of `DESIGN.md` for why each exists.

use std::collections::BTreeSet;

use crate::report::{Finding, Level};
use crate::scanner::{Scanned, Tok};
use crate::SourceFile;

/// Lint identifier: determinism (single-sourced RNG seeding).
pub const DETERMINISM: &str = "determinism";
/// Lint identifier: panic-freedom in library code.
pub const PANIC_FREEDOM: &str = "panic-freedom";
/// Lint identifier: no lock guards held across block execution.
pub const LOCK_DISCIPLINE: &str = "lock-discipline";
/// Lint identifier: kernel overrides must be identity-tested.
pub const KERNEL_COVERAGE: &str = "kernel-coverage";
/// Lint identifier: unsafe inventory and `forbid(unsafe_code)` presence.
pub const UNSAFE_CODE: &str = "unsafe-code";
/// Lint identifier: silently discarded fallible results.
pub const DISCARDED_RESULT: &str = "discarded-result";
/// Lint identifier: no per-row predicate test in an engine fold.
pub const ROW_FOLD: &str = "row-fold";
/// Lint identifier: the escape hatch itself (malformed/reasonless/unused).
pub const ANNOTATION: &str = "annotation";

/// Every lint an `allow(...)` annotation may name.
pub const ALL_LINTS: &[&str] = &[
    DETERMINISM,
    PANIC_FREEDOM,
    LOCK_DISCIPLINE,
    KERNEL_COVERAGE,
    UNSAFE_CODE,
    DISCARDED_RESULT,
    ROW_FOLD,
];

/// RNG construction/seeding identifiers that break pooled-vs-sequential
/// bit-identity unless they flow through `engine::seed`.
const RNG_CONSTRUCTORS: &[&str] = &["seed_from_u64", "from_entropy", "from_os_rng", "thread_rng"];

/// Macros that abort instead of returning an error.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Engine entry points a live lock guard must never span: anything that
/// executes blocks can block on the worker pool (or, pooled, wait on
/// other queries sharing the cache), turning a held guard into a
/// deadlock. `acquire` is the serving layer's admission gate — it
/// parks the caller on a condvar until a slot frees, so a guard held
/// across it deadlocks the moment the releasing thread needs that lock.
const EXECUTION_ENTRY_POINTS: &[&str] = &[
    "acquire",
    "execute",
    "execute_block",
    "execute_blocks",
    "execute_planned_block",
    "execute_row_block",
    "run",
    "run_calculation",
    "run_plan",
    "run_plan_with",
    "run_rows",
    "run_row_plan",
    "run_row_plan_with",
    "scan_blocks",
    "scan_blocks_recovering",
    "scan_exact_extreme",
    "scan_exact_filtered_extreme",
    "scan_exact_groups",
    "scan_exact_groups_on",
    "scan_exact_mean",
];

/// Seal-time entry points with the same obligation: sealing a block
/// scans every row to compute its sketch, zone stats, and selection
/// vectors, so a guard held across a seal stalls every reader of that
/// lock for a full block scan. The ingest path must seal outside all
/// locks and merge the precomputed results under the guard (the merges
/// — `append_epoch` / `append_sealed` — are O(cached entries) and are
/// fine to hold a guard across).
const SEAL_ENTRY_POINTS: &[&str] = &["seal_block", "seal_derived"];

/// `DataBlock` methods whose overrides must be identity-tested: the two
/// reads every kind implements (`gather`, `scan_column_chunks`) and the
/// draw a few kinds replace must deliver what the one-row-per-call
/// reference delivers, bit for bit and stream for stream. `sketch` is a
/// metadata hook rather than a read, but it carries the same obligation:
/// a hook-provided sketch must be bit-identical to a scan-computed one.
/// `zone` is metadata again, with the sharpest obligation: its verdict
/// replaces reads, so an override must be pinned to decide only what
/// reading every row would find.
const KERNEL_METHODS: &[&str] = &["gather", "draw", "scan_column_chunks", "sketch", "zone"];

/// Where the row folds live: every fold under it selects its rows a
/// batch at a time, never with a per-row predicate test.
const ENGINE_DIR: &str = "crates/core/src/engine/";

/// Shared mutable state for one lint run: findings plus which allow
/// annotations actually suppressed something.
#[derive(Debug, Default)]
pub struct LintRun {
    /// Accumulated findings.
    pub findings: Vec<Finding>,
    /// `(file index, allow line, lint)` triples that fired.
    used_allows: BTreeSet<(usize, u32, String)>,
}

impl LintRun {
    /// Checks the escape hatch for a candidate finding at `line`: a
    /// well-reasoned allow suppresses it (and is marked used); a
    /// reasonless allow converts it into an annotation error.
    fn suppressed(&mut self, file_idx: usize, file: &SourceFile, line: u32, lint: &str) -> bool {
        match file.scan.allow_for(line, lint) {
            Some(allow) if allow.reason.is_some() => {
                self.used_allows
                    .insert((file_idx, allow.line, lint.to_string()));
                true
            }
            // A reasonless allow suppresses nothing; annotation hygiene
            // already reported it as an error.
            _ => false,
        }
    }

    fn push(&mut self, lint: &str, file: &SourceFile, line: u32, message: String) {
        self.findings.push(Finding {
            lint: lint.to_string(),
            level: Level::Error,
            file: file.rel.clone(),
            line,
            message,
        });
    }

    fn note(&mut self, lint: &str, file: &SourceFile, line: u32, message: String) {
        self.findings.push(Finding {
            lint: lint.to_string(),
            level: Level::Note,
            file: file.rel.clone(),
            line,
            message,
        });
    }
}

/// Runs every per-file lint over `files` (library sources only — the
/// walker already excluded tests, benches, examples, and vendored
/// code), then the cross-file checks.
///
/// `identity_idents` is the identifier set of `tests/kernel_identity.rs`
/// (empty when the file is missing, which is itself reported).
pub fn run(files: &[SourceFile], identity_idents: Option<&BTreeSet<String>>) -> LintRun {
    let mut run = LintRun::default();
    for (idx, file) in files.iter().enumerate() {
        annotation_hygiene(idx, file, &mut run);
        determinism(idx, file, &mut run);
        if !file.panic_exempt {
            panic_freedom(idx, file, &mut run);
        }
        lock_discipline(idx, file, &mut run);
        discarded_result(idx, file, &mut run);
        row_fold(idx, file, &mut run);
    }
    kernel_coverage(files, identity_idents, &mut run);
    unsafe_inventory(files, &mut run);
    unused_allows(files, &mut run);
    run
}

/// Reports malformed annotations and allows naming unknown lints.
fn annotation_hygiene(_idx: usize, file: &SourceFile, run: &mut LintRun) {
    for bad in &file.scan.bad_annotations {
        run.push(
            ANNOTATION,
            file,
            bad.line,
            format!("malformed isla-lint annotation: {}", bad.detail),
        );
    }
    for allow in &file.scan.allows {
        if !ALL_LINTS.contains(&allow.lint.as_str()) {
            run.push(
                ANNOTATION,
                file,
                allow.line,
                format!(
                    "allow names unknown lint {:?} (known: {})",
                    allow.lint,
                    ALL_LINTS.join(", ")
                ),
            );
        } else if allow.reason.is_none() {
            run.push(
                ANNOTATION,
                file,
                allow.line,
                format!(
                    "allow({}) without a reason — the escape hatch requires \
                     `reason = \"…\"` explaining why the invariant holds here",
                    allow.lint
                ),
            );
        }
    }
}

/// Determinism: RNG construction/seeding outside the engine's seed
/// module silently breaks pooled-vs-sequential bit-identity.
fn determinism(idx: usize, file: &SourceFile, run: &mut LintRun) {
    if file.is_seed_module {
        return;
    }
    for (i, tok) in file.scan.tokens.iter().enumerate() {
        let Some(name) = tok.ident() else { continue };
        if !RNG_CONSTRUCTORS.contains(&name) || file.scan.is_exempt(i) {
            continue;
        }
        if run.suppressed(idx, file, tok.line, DETERMINISM) {
            continue;
        }
        run.push(
            DETERMINISM,
            file,
            tok.line,
            format!(
                "`{name}` outside isla_core::engine::seed — route RNG construction \
                 through engine::seed (derive_block_seeds / seeded_rng) so pooled \
                 execution stays bit-identical to sequential"
            ),
        );
    }
}

/// Panic-freedom: `.unwrap()` / `.expect(…)` / aborting macros in
/// library code take the process down instead of returning an error.
fn panic_freedom(idx: usize, file: &SourceFile, run: &mut LintRun) {
    let toks = &file.scan.tokens;
    for (i, tok) in toks.iter().enumerate() {
        let Some(name) = tok.ident() else { continue };
        if file.scan.is_exempt(i) {
            continue;
        }
        let hit = match name {
            "unwrap" | "expect" => i > 0 && toks[i - 1].is_punct('.'),
            m if PANIC_MACROS.contains(&m) => toks.get(i + 1).is_some_and(|t| t.is_punct('!')),
            _ => false,
        };
        if !hit || run.suppressed(idx, file, tok.line, PANIC_FREEDOM) {
            continue;
        }
        let call = if PANIC_MACROS.contains(&name) {
            format!("{name}!")
        } else {
            format!(".{name}()")
        };
        run.push(
            PANIC_FREEDOM,
            file,
            tok.line,
            format!(
                "`{call}` in library code — propagate a structured error variant \
                 instead (tests and benches are exempt by path)"
            ),
        );
    }
}

/// Row fold: engine code selects rows a batch at a time
/// (`RowSampleBuf::select`, `RowFilter::select`), so a `.matches(…)`
/// call or a `RowFilter::matches` path under the engine is a per-row
/// predicate test — a data-dependent branch the CPU mispredicts at
/// middling selectivity — creeping back into a fold.
fn row_fold(idx: usize, file: &SourceFile, run: &mut LintRun) {
    if !file.rel.starts_with(ENGINE_DIR) {
        return;
    }
    let toks = &file.scan.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.ident() != Some("matches") || file.scan.is_exempt(i) {
            continue;
        }
        let before = |k: usize| i.checked_sub(k).map(|at| &toks[at]);
        let method = before(1).is_some_and(|t| t.is_punct('.'))
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('));
        let path = before(1).is_some_and(|t| t.is_punct(':'))
            && before(2).is_some_and(|t| t.is_punct(':'))
            && before(3).and_then(Tok::ident) == Some("RowFilter");
        if !(method || path) || run.suppressed(idx, file, tok.line, ROW_FOLD) {
            continue;
        }
        run.push(
            ROW_FOLD,
            file,
            tok.line,
            "per-row `RowFilter::matches` in an engine fold — select the batch \
             (`RowSampleBuf::select` / `RowFilter::select`) and route it through \
             `engine::fold` (DESIGN.md, \"Row fold\")"
                .to_string(),
        );
    }
}

/// Lock discipline: a `Mutex`/`RwLock` guard bound by `let` must not be
/// live across a call into block execution.
fn lock_discipline(idx: usize, file: &SourceFile, run: &mut LintRun) {
    let toks = &file.scan.tokens;
    for i in 0..toks.len() {
        if !is_guard_acquisition(toks, i) || file.scan.is_exempt(i) {
            continue;
        }
        let Some((binding, stmt_end)) = guard_binding(toks, i) else {
            continue;
        };
        if binding == "_" {
            continue; // dropped immediately
        }
        // Walk the rest of the enclosing block: the guard dies at the
        // block's close, at `drop(binding)`, or at an explicit scope end.
        let mut depth = 0i32;
        let mut j = stmt_end;
        while let Some(t) = toks.get(j) {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            } else if t.ident() == Some("drop")
                && toks.get(j + 1).is_some_and(|t| t.is_punct('('))
                && toks.get(j + 2).and_then(Tok::ident) == Some(binding)
            {
                break;
            } else if let Some(name) = t.ident() {
                let is_exec = EXECUTION_ENTRY_POINTS.contains(&name);
                let is_seal = SEAL_ENTRY_POINTS.contains(&name);
                if (is_exec || is_seal) && toks.get(j + 1).is_some_and(|t| t.is_punct('(')) {
                    let lock_line = toks[i].line;
                    if !run.suppressed(idx, file, t.line, LOCK_DISCIPLINE)
                        && !run.suppressed(idx, file, lock_line, LOCK_DISCIPLINE)
                    {
                        let advice = if is_seal {
                            "seal outside the guard and merge the sealed results under it"
                        } else {
                            "narrow the guard's scope or `drop` it before entering block \
                             execution"
                        };
                        run.push(
                            LOCK_DISCIPLINE,
                            file,
                            t.line,
                            format!(
                                "lock guard `{binding}` (acquired line {lock_line}) is still \
                                 live across `{name}` — {advice}"
                            ),
                        );
                    }
                    break; // one finding per guard is enough
                }
            }
            j += 1;
        }
    }
}

/// Discarded results: `let _ = …;` and a bare `.ok();` both swallow a
/// failure without a trace. With the fault-tolerance layer in place,
/// storage errors carry recovery semantics ([`StorageError::is_transient`]
/// decides whether a retry is legal), so a silently dropped `Result` is
/// a dropped recovery decision. A statement containing `?` is exempt:
/// the error already propagates and only the success value is dropped
/// (the executor's stream-advancing probes rely on exactly that shape).
fn discarded_result(idx: usize, file: &SourceFile, run: &mut LintRun) {
    let toks = &file.scan.tokens;
    for i in 0..toks.len() {
        if file.scan.is_exempt(i) {
            continue;
        }
        // `let _ = …;` — the whole result, error included, vanishes.
        if toks[i].ident() == Some("let")
            && toks.get(i + 1).and_then(Tok::ident) == Some("_")
            && toks.get(i + 2).is_some_and(|t| t.is_punct('='))
        {
            let mut handled = false;
            let mut j = i + 3;
            while let Some(t) = toks.get(j) {
                if t.is_punct(';') {
                    break;
                }
                if t.is_punct('?') {
                    handled = true;
                }
                j += 1;
            }
            if !handled && !run.suppressed(idx, file, toks[i].line, DISCARDED_RESULT) {
                run.push(
                    DISCARDED_RESULT,
                    file,
                    toks[i].line,
                    "`let _ = …` silently discards the expression's result — \
                     propagate the error with `?`, handle it, or allow with a \
                     reason explaining why dropping it is sound"
                        .to_string(),
                );
            }
        }
        // A bare `.ok();` statement — Result demoted to Option, then
        // dropped on the floor. (`.ok()` feeding a longer chain or a
        // binding is fine; only the terminal form is flagged.)
        if toks[i].ident() == Some("ok")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(';'))
            && !run.suppressed(idx, file, toks[i].line, DISCARDED_RESULT)
        {
            run.push(
                DISCARDED_RESULT,
                file,
                toks[i].line,
                "terminal `.ok();` swallows the error — match on it, log it \
                 through a structured path, or allow with a reason"
                    .to_string(),
            );
        }
    }
}

/// True when token `i` is `.lock()` / `.read()` / `.write()` — an
/// argument-less guard acquisition (a `read(buf)` I/O call has
/// arguments and does not match).
fn is_guard_acquisition(toks: &[Tok], i: usize) -> bool {
    matches!(toks[i].ident(), Some("lock" | "read" | "write"))
        && i > 0
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
}

/// If the statement containing the acquisition at `i` binds the guard
/// with `let`, returns the binding name and the index just past the
/// statement's `;`. A chained statement (`….lock().get(…)…`) borrows
/// the guard only temporarily and returns [`None`] — except `.unwrap()`
/// / `.expect(…)` chains, which still yield the guard itself.
fn guard_binding(toks: &[Tok], i: usize) -> Option<(&str, usize)> {
    // Statement start: scan back to the nearest `;`, `{`, or `}`.
    let mut s = i;
    while s > 0
        && !(toks[s - 1].is_punct(';') || toks[s - 1].is_punct('{') || toks[s - 1].is_punct('}'))
    {
        s -= 1;
    }
    if toks.get(s).and_then(Tok::ident) != Some("let") {
        return None;
    }
    let mut b = s + 1;
    while matches!(toks.get(b).and_then(Tok::ident), Some("mut")) {
        b += 1;
    }
    let binding = toks.get(b).and_then(Tok::ident)?;
    // Walk the chain after `.lock()`: only unwrap/expect keep the value
    // a guard; any other trailing call yields a non-guard value.
    let mut j = i + 2; // at `)`
    loop {
        j += 1;
        let t = toks.get(j)?;
        if t.is_punct(';') {
            return Some((binding, j + 1));
        }
        if t.is_punct('.')
            && matches!(
                toks.get(j + 1).and_then(Tok::ident),
                Some("unwrap" | "expect")
            )
        {
            // Skip the call's argument list.
            let mut depth = 0i32;
            j += 2;
            while let Some(t) = toks.get(j) {
                if t.is_punct('(') {
                    depth += 1;
                } else if t.is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            continue;
        }
        return None;
    }
}

/// Kernel coverage: every `impl DataBlock for T` overriding a kernel
/// method must name `T` in `tests/kernel_identity.rs`, so the override
/// is pinned bit-identical to the one-row-per-call reference. Blocks
/// local to test code are the tests themselves, and exempt.
fn kernel_coverage(
    files: &[SourceFile],
    identity_idents: Option<&BTreeSet<String>>,
    run: &mut LintRun,
) {
    let mut reported_missing_file = false;
    for file in files {
        for imp in data_block_impls(&file.scan) {
            if imp.overridden.is_empty() {
                continue;
            }
            let Some(idents) = identity_idents else {
                if !reported_missing_file {
                    run.push(
                        KERNEL_COVERAGE,
                        file,
                        imp.line,
                        "tests/kernel_identity.rs not found — kernel overrides cannot \
                         be cross-checked"
                            .to_string(),
                    );
                    reported_missing_file = true;
                }
                continue;
            };
            if !idents.contains(&imp.type_name) {
                run.push(
                    KERNEL_COVERAGE,
                    file,
                    imp.line,
                    format!(
                        "`{}` overrides {} but is not named in tests/kernel_identity.rs — \
                         add an identity test pinning the override bit-identical to the \
                         scalar path",
                        imp.type_name,
                        imp.overridden.join(", "),
                    ),
                );
            }
        }
    }
}

/// One `impl DataBlock for T` with the kernels it overrides.
#[derive(Debug)]
struct KernelImpl {
    type_name: String,
    line: u32,
    overridden: Vec<&'static str>,
}

/// Extracts `impl … DataBlock for <Type>` blocks and their overridden
/// kernel methods. Forwarding impls over references, `Arc`, or generic
/// parameters — the blanket `impl<P: Deref> DataBlock for P where
/// P::Target: DataBlock` included — are skipped: they delegate, they do
/// not reimplement. So are impls inside test-gated code.
fn data_block_impls(scan: &Scanned) -> Vec<KernelImpl> {
    let toks = &scan.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].ident() != Some("impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Collect generic parameter names from `impl<…>`.
        let mut generic_params: Vec<String> = Vec::new();
        if toks.get(j).is_some_and(|t| t.is_punct('<')) {
            let mut depth = 0i32;
            let mut expect_param = true;
            while let Some(t) = toks.get(j) {
                if t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct('>') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                } else if t.is_punct(',') && depth == 1 {
                    expect_param = true;
                } else if t.is_punct(':') && depth == 1 {
                    expect_param = false;
                } else if let Some(name) = t.ident() {
                    if expect_param && depth == 1 {
                        generic_params.push(name.to_string());
                        expect_param = false;
                    }
                }
                j += 1;
            }
        }
        // Trait path up to `for` (an inherent impl hits `{` first).
        let mut trait_last_ident: Option<&str> = None;
        let mut is_reference_target = false;
        let mut found_for = false;
        while let Some(t) = toks.get(j) {
            if t.ident() == Some("for") {
                found_for = true;
                j += 1;
                break;
            }
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            if let Some(name) = t.ident() {
                trait_last_ident = Some(name);
            }
            j += 1;
        }
        if !found_for || trait_last_ident != Some("DataBlock") {
            i += 1;
            continue;
        }
        // Target type: the last path identifier before `<`, `{` or a
        // `where` clause (whose bounds name traits, not the target).
        let mut type_name: Option<String> = None;
        while let Some(t) = toks.get(j) {
            if t.is_punct('&') {
                is_reference_target = true;
            } else if t.is_punct('<') || t.is_punct('{') || t.ident() == Some("where") {
                break;
            } else if let Some(name) = t.ident() {
                type_name = Some(name.to_string());
            }
            j += 1;
        }
        let Some(type_name) = type_name else {
            i += 1;
            continue;
        };
        // The impl body: first `{` from here through its match.
        while toks.get(j).is_some_and(|t| !t.is_punct('{')) {
            j += 1;
        }
        let body_start = j;
        let mut depth = 0i32;
        let mut overridden = Vec::new();
        while let Some(t) = toks.get(j) {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.ident() == Some("fn") {
                if let Some(name) = toks.get(j + 1).and_then(Tok::ident) {
                    if let Some(k) = KERNEL_METHODS.iter().find(|&&k| k == name) {
                        overridden.push(*k);
                    }
                }
            }
            j += 1;
        }
        let skip = is_reference_target
            || type_name == "Arc"
            || generic_params.contains(&type_name)
            || scan.is_exempt(i);
        if !skip {
            out.push(KernelImpl {
                line: toks[i].line,
                type_name,
                overridden,
            });
        }
        i = body_start.max(i + 1);
    }
    out
}

/// Unsafe inventory: crates with no `unsafe` must forbid it at the
/// root; remaining `unsafe` blocks are inventoried and must carry a
/// `SAFETY:` justification comment.
fn unsafe_inventory(files: &[SourceFile], run: &mut LintRun) {
    let crates: BTreeSet<&str> = files.iter().map(|f| f.crate_name.as_str()).collect();
    for krate in crates {
        let members: Vec<&SourceFile> = files.iter().filter(|f| f.crate_name == krate).collect();
        let mut any_unsafe = false;
        for file in &members {
            for (i, tok) in file.scan.tokens.iter().enumerate() {
                if tok.ident() != Some("unsafe") || file.scan.is_exempt(i) {
                    continue;
                }
                any_unsafe = true;
                if file.scan.comment_above_contains(tok.line, 3, "SAFETY") {
                    run.note(
                        UNSAFE_CODE,
                        file,
                        tok.line,
                        "unsafe block (justified by a SAFETY comment) — inventoried".to_string(),
                    );
                } else {
                    run.push(
                        UNSAFE_CODE,
                        file,
                        tok.line,
                        "unsafe without a `// SAFETY: …` justification comment directly \
                         above"
                            .to_string(),
                    );
                }
            }
        }
        if !any_unsafe {
            let Some(root) = members.iter().find(|f| f.is_crate_root) else {
                continue;
            };
            if !has_unsafe_gate(&root.scan) {
                run.push(
                    UNSAFE_CODE,
                    root,
                    1,
                    format!(
                        "crate `{krate}` contains no unsafe code but its root does not \
                         declare `#![forbid(unsafe_code)]` (or `deny`)"
                    ),
                );
            }
        }
    }
}

/// True if the token stream contains `forbid(unsafe_code)` or
/// `deny(unsafe_code)`.
fn has_unsafe_gate(scan: &Scanned) -> bool {
    scan.tokens.windows(3).any(|w| {
        matches!(w[0].ident(), Some("forbid" | "deny"))
            && w[1].is_punct('(')
            && w[2].ident() == Some("unsafe_code")
    })
}

/// Flags allow annotations that suppressed nothing — dead escape
/// hatches that would otherwise outlive the code they excused.
fn unused_allows(files: &[SourceFile], run: &mut LintRun) {
    for (idx, file) in files.iter().enumerate() {
        for allow in &file.scan.allows {
            if !ALL_LINTS.contains(&allow.lint.as_str()) {
                continue; // already reported as unknown
            }
            let used = run
                .used_allows
                .contains(&(idx, allow.line, allow.lint.clone()));
            if !used && allow.reason.is_some() {
                run.findings.push(Finding {
                    lint: ANNOTATION.to_string(),
                    level: Level::Note,
                    file: file.rel.clone(),
                    line: allow.line,
                    message: format!(
                        "allow({}) did not suppress any finding — remove it if the \
                         code it excused is gone",
                        allow.lint
                    ),
                });
            }
        }
    }
}
