//! M7 — fault tolerance: the cost and quality of surviving failures.
//!
//! Not a paper experiment: the paper assumes storage that answers; this
//! bench measures the robustness layer grown around the estimator. The
//! estimator's per-block partials combine order-invariantly, so an
//! answer over surviving blocks stays valid with a widened confidence
//! interval — the question is what the machinery costs. Three sections:
//!
//! 1. **overhead** — the disarmed hook tax: median query latency over
//!    bare blocks vs the same blocks wrapped in `FaultyBlock` with
//!    `BlockFault::None`. Gated at ≤ 2% in full mode (smoke runs are
//!    too short to measure it honestly);
//! 2. **recovery** — the latency of riding out transient faults: a
//!    sweep over transient-fault rates, each query retrying failed
//!    blocks in place under a deterministic fixed backoff. Answers must
//!    stay bit-identical to the fault-free run (failed accesses consume
//!    no RNG draws, so recovery is stream-neutral);
//! 3. **quality** — degradation vs permanent loss rate: coverage, the
//!    widened half-width, and the achieved error against the exact
//!    pre-loss mean, as more of the block set is lost.
//!
//! Results print as a table (CSV under `target/experiments/`) and are
//! written machine-readable to `BENCH_faults.json` at the workspace
//! root. `--smoke` runs a seconds-scale configuration and validates the
//! emitted JSON schema (the CI hook).

use std::time::{Duration, Instant};

use isla_bench::json::{get, parse, Json};
use isla_bench::{bench_json_path, fmt, Report};
use isla_core::engine::{Backoff, RetryPolicy};
use isla_datagen::normal_values;
use isla_query::{parse as parse_sql, Catalog, ExecPolicy, QueryResult, QuerySession, Table};
use isla_storage::{BlockFault, BlockSet, DataBlock, FaultPlan, FaultyBlock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const SEED: u64 = 7_000;
/// A named `METHOD ISLA`: a default query over fault-free blocks would
/// read its mean off the sketches and never reach the fault machinery.
const SQL: &str = "SELECT AVG(x) FROM t WITH PRECISION 0.2 METHOD ISLA";

/// One run's scale knobs (full vs `--smoke`).
struct Scale {
    mode: &'static str,
    rows: usize,
    blocks: usize,
    reps: usize,
}

impl Scale {
    fn full() -> Self {
        Self {
            mode: "full",
            rows: 1_000_000,
            blocks: 16,
            reps: 21,
        }
    }

    fn smoke() -> Self {
        Self {
            mode: "smoke",
            rows: 60_000,
            blocks: 12,
            reps: 3,
        }
    }
}

fn values(scale: &Scale) -> Vec<f64> {
    normal_values(100.0, 20.0, scale.rows, SEED)
}

fn catalog_for(data: BlockSet) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register("t", Table::new(vec![("x", data)]));
    catalog
}

/// Runs `reps` repetitions of the bench query on a fresh session each
/// time (cold pre-estimation cache: the pilots are part of the cost the
/// hook taxes), returning the median wall seconds and the last result.
fn time_query(catalog: &Catalog, policy: &ExecPolicy, reps: usize) -> (f64, QueryResult) {
    let query = parse_sql(SQL).expect("bench query parses");
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        let session = QuerySession::with_policy(*policy);
        let mut rng = StdRng::seed_from_u64(SEED + rep as u64);
        let t = Instant::now();
        let r = session
            .execute(&query, catalog, &mut rng)
            .expect("bench query succeeds");
        times.push(t.elapsed().as_secs_f64());
        last = Some(r);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    (times[times.len() / 2], last.expect("reps >= 1"))
}

/// Section 1: bare blocks vs `FaultyBlock(BlockFault::None)` wrappers.
fn overhead_section(scale: &Scale, report: &mut Report) -> Json {
    let bare = BlockSet::from_values(values(scale), scale.blocks);
    let disarmed = BlockSet::new(
        bare.iter()
            .map(|b| {
                Arc::new(FaultyBlock::new(Arc::clone(b), BlockFault::None, None))
                    as Arc<dyn DataBlock>
            })
            .collect(),
    );
    let policy = ExecPolicy::new().pilot_seed(SEED);
    let (bare_s, bare_r) = time_query(&catalog_for(bare), &policy, scale.reps);
    let (hook_s, hook_r) = time_query(&catalog_for(disarmed), &policy, scale.reps);
    assert_eq!(
        bare_r.value.to_bits(),
        hook_r.value.to_bits(),
        "a disarmed hook must not perturb the answer"
    );
    let overhead = hook_s / bare_s - 1.0;
    if scale.mode == "full" {
        assert!(
            overhead <= 0.02,
            "disarmed fault hook costs {:.2}% (> 2% gate)",
            overhead * 100.0
        );
    }
    report.row(vec![
        "overhead".to_string(),
        format!("bare_ms={}", fmt(bare_s * 1e3, 3)),
        format!("hook_ms={}", fmt(hook_s * 1e3, 3)),
        format!("overhead={}%", fmt(overhead * 100.0, 2)),
        "bit_identical=true".to_string(),
    ]);
    Json::obj(vec![
        ("bare_ms", Json::num(bare_s * 1e3)),
        ("hooked_ms", Json::num(hook_s * 1e3)),
        ("overhead_frac", Json::num(overhead)),
        ("bit_identical", Json::Bool(true)),
        ("gated", Json::Bool(scale.mode == "full")),
    ])
}

/// Section 2: transient-fault rate vs recovery latency. Every armed
/// run must answer bit-identically to the fault-free run.
fn recovery_section(scale: &Scale, report: &mut Report) -> Json {
    let data = BlockSet::from_values(values(scale), scale.blocks);
    let policy = ExecPolicy::new()
        .pilot_seed(SEED)
        .best_effort()
        .retry(RetryPolicy::attempts(3).with_backoff(Backoff::Fixed(Duration::from_millis(1))));
    let mut rows = Vec::new();
    let mut baseline_bits = None;
    for rate in [0.0, 0.25, 0.5, 1.0] {
        let plan = FaultPlan::new(SEED).transient(rate, 2);
        // Re-arm per repetition so every run pays the same recovery
        // (arming resets the per-block transient counters).
        let query = parse_sql(SQL).expect("bench query parses");
        let mut times = Vec::with_capacity(scale.reps);
        let mut last = None;
        for rep in 0..scale.reps {
            let catalog = catalog_for(plan.arm(&data));
            let session = QuerySession::with_policy(policy);
            let mut rng = StdRng::seed_from_u64(SEED + rep as u64);
            let t = Instant::now();
            let r = session
                .execute(&query, &catalog, &mut rng)
                .expect("transient faults recover inside the budget");
            times.push(t.elapsed().as_secs_f64());
            last = Some(r);
        }
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let median_ms = times[times.len() / 2] * 1e3;
        let result = last.expect("reps >= 1");
        let bits = result.value.to_bits();
        let identical = *baseline_bits.get_or_insert(bits) == bits;
        assert!(identical, "recovered answers must be stream-neutral");
        assert!(
            result.degradation.is_none(),
            "recovered transients are not degradation"
        );
        report.row(vec![
            "recovery".to_string(),
            format!("rate={rate}"),
            format!("median_ms={}", fmt(median_ms, 3)),
            "bit_identical=true".to_string(),
            String::new(),
        ]);
        rows.push(Json::obj(vec![
            ("transient_rate", Json::num(rate)),
            ("median_ms", Json::num(median_ms)),
            ("bit_identical", Json::Bool(true)),
        ]));
    }
    Json::Arr(rows)
}

/// Section 3: answer quality vs permanent loss rate.
fn quality_section(scale: &Scale, report: &mut Report) -> Json {
    let raw = values(scale);
    let exact = raw.iter().sum::<f64>() / raw.len() as f64;
    let data = BlockSet::from_values(raw, scale.blocks);
    let policy = ExecPolicy::new()
        .pilot_seed(SEED)
        .best_effort()
        .retry(RetryPolicy::attempts(2));
    let query = parse_sql(SQL).expect("bench query parses");
    let mut rows = Vec::new();
    for loss in [0.0, 0.15, 0.3, 0.45] {
        // Per-block fault draws are hashed, so a given probability may
        // round to zero losses on a small block set; search the seed
        // space for a plan whose realized loss matches the nominal
        // rate, keeping the sweep monotone and the run deterministic.
        let want = (loss * scale.blocks as f64).round() as usize;
        let plan = (SEED..SEED + 512)
            .map(|s| FaultPlan::new(s).lose(loss))
            .find(|p| {
                (0..scale.blocks)
                    .filter(|&i| p.fault_for(i) == BlockFault::Lost)
                    .count()
                    == want
            })
            .expect("some seed must realize the nominal loss rate");
        let catalog = catalog_for(plan.arm(&data));
        let session = QuerySession::with_policy(policy);
        let mut rng = StdRng::seed_from_u64(SEED);
        let r = session
            .execute(&query, &catalog, &mut rng)
            .expect("partial loss degrades instead of failing");
        let (coverage, widened, lost_blocks) = match &r.degradation {
            Some(d) => (d.coverage, d.widened_half_width, d.failures.len()),
            None => (1.0, 0.2, 0),
        };
        let err = (r.value - exact).abs();
        report.row(vec![
            "quality".to_string(),
            format!("loss={loss}"),
            format!("coverage={}", fmt(coverage, 3)),
            format!("widened={}", fmt(widened, 4)),
            format!("abs_err={}", fmt(err, 4)),
        ]);
        rows.push(Json::obj(vec![
            ("loss_rate", Json::num(loss)),
            ("lost_blocks", Json::num(lost_blocks as f64)),
            ("coverage", Json::num(coverage)),
            ("widened_half_width", Json::num(widened)),
            ("abs_error", Json::num(err)),
        ]));
    }
    Json::Arr(rows)
}

/// Schema contract for `BENCH_faults.json` (checked by CI's `--smoke`
/// run and on every write).
fn validate_artifact(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    for path in [
        "bench",
        "mode",
        "sections.overhead.overhead_frac",
        "sections.overhead.bit_identical",
        "sections.recovery",
        "sections.quality",
    ] {
        if get(&doc, path).is_none() {
            return Err(format!("missing required key {path:?}"));
        }
    }
    for (section, fields) in [
        ("sections.recovery", &["transient_rate", "median_ms"][..]),
        (
            "sections.quality",
            &["loss_rate", "coverage", "widened_half_width", "abs_error"][..],
        ),
    ] {
        match get(&doc, section) {
            Some(Json::Arr(items)) if !items.is_empty() => {
                for item in items {
                    for field in fields {
                        if get(item, field).is_none() {
                            return Err(format!("{section} row lacks the {field:?} field"));
                        }
                    }
                }
            }
            _ => return Err(format!("{section} is not a non-empty array")),
        }
    }
    Ok(())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { Scale::smoke() } else { Scale::full() };
    println!(
        "M7 (faults): hook overhead, transient recovery, loss degradation, mode = {}",
        scale.mode
    );

    let mut report = Report::new("exp_faults", &["section", "a", "b", "c", "d"]);
    let overhead = overhead_section(&scale, &mut report);
    let recovery = recovery_section(&scale, &mut report);
    let quality = quality_section(&scale, &mut report);
    report.finish();

    let doc = Json::obj(vec![
        ("bench", Json::str("exp_faults")),
        ("mode", Json::str(scale.mode)),
        (
            "sections",
            Json::obj(vec![
                ("overhead", overhead),
                ("recovery", recovery),
                ("quality", quality),
            ]),
        ),
    ]);
    let text = doc.render();
    validate_artifact(&text).expect("emitted JSON must satisfy the schema");
    // Smoke results land under target/experiments — only full-scale
    // runs may touch the committed repo-root perf artifact.
    let path = if smoke {
        isla_bench::experiments_dir().join("BENCH_faults.smoke.json")
    } else {
        bench_json_path("faults")
    };
    std::fs::write(&path, &text).expect("write BENCH_faults.json");
    println!("  [written {}]", path.display());

    let on_disk = std::fs::read_to_string(&path).expect("re-read artifact");
    validate_artifact(&on_disk).expect("on-disk JSON must satisfy the schema");

    if smoke {
        println!("smoke mode: schema validated");
    }
}
