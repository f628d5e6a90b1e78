//! M6 — incremental ingest: sealed-block appends that merge into
//! cached sampling state instead of invalidating it.
//!
//! Not a paper experiment: the paper's datasets are static, this bench
//! measures the ingest path grown around the scheme. One table takes a
//! stream of append batches through `QueryService::ingest`; after every
//! batch the same query mix runs against
//!
//! 1. **incremental** — the sealed blocks merged their sketches,
//!    selections, and epoch marks into the caches, so the post-ingest
//!    pre-estimate resumes the cached fold and pilots only the new
//!    epoch's blocks;
//! 2. **recompute** — the strawman that calls `invalidate_table` after
//!    every batch, paying a cold fold over the entire history each
//!    round (the pre-tentpole behavior).
//!
//! Both services run the same pinned pilot seed and per-round query
//! seeds, so every answer must be **bit-identical** across the two —
//! asserted every round. A third section drives a [`ContinuousQuery`]
//! standing AVG over the same appends, asserting its O(new blocks)
//! updates end bit-identical to a from-scratch registration at the
//! final epoch.
//!
//! Results print as a table (CSV under `target/experiments/`) and are
//! written machine-readable to `BENCH_ingest.json` at the workspace
//! root. The full run asserts the final-batch speedup is ≥ 5×;
//! `--smoke` runs a seconds-scale configuration and validates the
//! emitted JSON schema (the CI hook) without the timing assertion.

use std::time::Instant;

use isla_bench::json::{get, parse, Json};
use isla_bench::{bench_json_path, fmt, Report};
use isla_core::engine::RowSpec;
use isla_core::{ContinuousQuery, IslaConfig};
use isla_datagen::normal_values;
use isla_query::{QueryService, ServiceConfig, Table};
use isla_storage::BlockSet;

const SEED: u64 = 6_000;

/// The post-ingest query mix: scalar pre-estimates over two columns
/// plus a filtered row-model shape, so both the scalar and the row
/// epoch-fold paths are on the measured path. The scalar shapes name
/// `METHOD ISLA`: a default one reads its mean off the sketches and
/// folds no pilot.
const SHAPES: [&str; 3] = [
    "SELECT AVG(distance) FROM trips WITH PRECISION 1.0 METHOD ISLA",
    "SELECT SUM(fare) FROM trips WITH PRECISION 2.5 METHOD ISLA",
    "SELECT AVG(fare) FROM trips WHERE distance > 100 WITH PRECISION 2.5",
];

/// One run's scale knobs (full vs `--smoke`).
struct Scale {
    mode: &'static str,
    base_rows: usize,
    base_blocks: usize,
    batches: usize,
    batch_rows: usize,
    rows_per_block: usize,
}

impl Scale {
    fn full() -> Self {
        Self {
            mode: "full",
            base_rows: 2_000_000,
            base_blocks: 32,
            batches: 24,
            batch_rows: 20_000,
            rows_per_block: 8_192,
        }
    }

    fn smoke() -> Self {
        Self {
            mode: "smoke",
            base_rows: 60_000,
            base_blocks: 8,
            batches: 3,
            batch_rows: 2_000,
            rows_per_block: 1_000,
        }
    }
}

fn build_service(scale: &Scale) -> QueryService {
    let service = QueryService::new(ServiceConfig {
        pilot_seed: SEED,
        ingest_rows_per_block: scale.rows_per_block,
        ..ServiceConfig::default()
    });
    let distance = normal_values(100.0, 20.0, scale.base_rows, SEED);
    let fare: Vec<f64> = distance.iter().map(|v| v * 2.5 + 3.0).collect();
    service.register_table(
        "trips",
        Table::new(vec![
            (
                "distance",
                BlockSet::from_values(distance, scale.base_blocks),
            ),
            ("fare", BlockSet::from_values(fare, scale.base_blocks)),
        ]),
    );
    service
}

/// One append batch: `batch_rows` two-column rows, deterministic per
/// round.
fn batch(scale: &Scale, round: usize) -> Vec<Vec<f64>> {
    let distance = normal_values(100.0, 20.0, scale.batch_rows, SEED + 100 + round as u64);
    distance
        .into_iter()
        .map(|d| vec![d, d * 2.5 + 3.0])
        .collect()
}

/// Runs the full shape mix once from `seed_base` and returns (total
/// seconds, answer bits per shape).
fn run_mix(service: &QueryService, seed_base: u64) -> (f64, Vec<u64>) {
    let mut bits = Vec::with_capacity(SHAPES.len());
    let start = Instant::now();
    for (i, sql) in SHAPES.iter().enumerate() {
        let result = service
            .query("bench", sql, seed_base + i as u64)
            .expect("bench query succeeds");
        bits.push(result.value.to_bits());
    }
    (start.elapsed().as_secs_f64(), bits)
}

struct RoundResult {
    rows_total: u64,
    epoch: u64,
    ingest_ms: f64,
    incremental_ms: f64,
    recompute_ms: f64,
    speedup: f64,
}

/// The head-to-head sweep: one batch per round into both services, the
/// strawman invalidating everything, then the same query mix on each.
fn sweep(
    scale: &Scale,
    incremental: &QueryService,
    recompute: &QueryService,
    report: &mut Report,
) -> Vec<RoundResult> {
    // Warm both so round 1 measures steady-state serving, not the
    // first-ever pilot of a cold process.
    run_mix(incremental, SEED + 90_000);
    run_mix(recompute, SEED + 90_000);
    let mut rounds = Vec::with_capacity(scale.batches);
    for round in 0..scale.batches {
        let rows = batch(scale, round);
        let t = Instant::now();
        incremental
            .ingest("feeder", "trips", &rows)
            .expect("incremental ingest");
        let ingest_ms = t.elapsed().as_secs_f64() * 1e3;
        recompute
            .ingest("feeder", "trips", &rows)
            .expect("recompute ingest");
        recompute.invalidate_table("trips");
        let seed_base = SEED + (round * SHAPES.len()) as u64;
        let (inc_s, inc_bits) = run_mix(incremental, seed_base);
        let (rec_s, rec_bits) = run_mix(recompute, seed_base);
        assert_eq!(
            inc_bits, rec_bits,
            "round {round}: incremental answers must be bit-identical to recompute"
        );
        let table = incremental.table("trips").expect("table registered");
        let result = RoundResult {
            rows_total: table.rows(),
            epoch: table.data().epoch(),
            ingest_ms,
            incremental_ms: inc_s * 1e3,
            recompute_ms: rec_s * 1e3,
            speedup: rec_s / inc_s,
        };
        report.row(vec![
            "rounds".to_string(),
            round.to_string(),
            result.rows_total.to_string(),
            fmt(result.incremental_ms, 3),
            fmt(result.recompute_ms, 3),
            fmt(result.speedup, 2),
        ]);
        rounds.push(result);
    }
    rounds
}

/// The standing-query section: a `ContinuousQuery` AVG(distance) fed
/// the same appends, updated in O(new blocks) per round, must end
/// bit-identical to a twin registered at the same base epoch that
/// absorbs the whole append history in one final update (the plan is
/// pinned at registration, so stepped and one-shot absorption must
/// agree bit for bit).
fn continuous_section(
    scale: &Scale,
    service: &QueryService,
    report: &mut Report,
) -> (Json, Vec<Json>) {
    let config = IslaConfig::builder()
        .precision(1.0)
        .build()
        .expect("bench config");
    let base = service.table("trips").expect("table registered");
    let mut standing = ContinuousQuery::register(base.data(), &config, RowSpec::column(0), SEED)
        .expect("register standing query");
    let mut oneshot = standing.clone();
    let mut update_rows = Vec::with_capacity(scale.batches);
    for round in 0..scale.batches {
        let rows = batch(scale, round);
        service
            .ingest("feeder", "trips", &rows)
            .expect("continuous ingest");
        let data = service.table("trips").expect("table registered");
        let t = Instant::now();
        let absorbed = standing.update(data.data()).expect("standing update");
        let update_ms = t.elapsed().as_secs_f64() * 1e3;
        update_rows.push(Json::obj(vec![
            ("round", Json::num(round as f64)),
            ("blocks_absorbed", Json::num(absorbed as f64)),
            ("update_ms", Json::num(update_ms)),
        ]));
        report.row(vec![
            "continuous".to_string(),
            round.to_string(),
            format!("blocks={absorbed}"),
            fmt(update_ms, 3),
            String::new(),
            String::new(),
        ]);
    }
    let final_table = service.table("trips").expect("table registered");
    oneshot
        .update(final_table.data())
        .expect("one-shot absorption of the whole history");
    let stepped = standing.answer().expect("stepped answer");
    let absorbed = oneshot.answer().expect("one-shot answer");
    assert_eq!(
        stepped.avg.to_bits(),
        absorbed.avg.to_bits(),
        "stepped updates must equal one-shot absorption of the same appends"
    );
    let summary = Json::obj(vec![
        ("rows_seen", Json::num(standing.rows_seen() as f64)),
        ("bit_identical", Json::Bool(true)),
    ]);
    (summary, update_rows)
}

/// Schema contract for `BENCH_ingest.json` (checked by CI's `--smoke`
/// run and on every write).
fn validate_artifact(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    for path in [
        "bench",
        "mode",
        "sections.rounds",
        "sections.summary.final_speedup",
        "sections.summary.bit_identical",
        "sections.summary.delta_folds",
        "sections.summary.recompute_cold_folds",
        "sections.continuous.bit_identical",
    ] {
        if get(&doc, path).is_none() {
            return Err(format!("missing required key {path:?}"));
        }
    }
    match get(&doc, "sections.rounds") {
        Some(Json::Arr(items)) if !items.is_empty() => {
            for item in items {
                for field in [
                    "round",
                    "rows_total",
                    "epoch",
                    "ingest_ms",
                    "incremental_ms",
                    "recompute_ms",
                    "speedup",
                ] {
                    if get(item, field).is_none() {
                        return Err(format!("rounds row lacks the {field:?} field"));
                    }
                }
            }
        }
        _ => return Err("sections.rounds is not a non-empty array".to_string()),
    }
    Ok(())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { Scale::smoke() } else { Scale::full() };
    println!(
        "M6 (ingest): {} append batches of {} rows over {} base rows, mode = {}",
        scale.batches, scale.batch_rows, scale.base_rows, scale.mode
    );

    let mut report = Report::new("exp_ingest", &["section", "round", "a", "b", "c", "d"]);
    let incremental = build_service(&scale);
    let recompute = build_service(&scale);
    let rounds = sweep(&scale, &incremental, &recompute, &mut report);
    let continuous_service = build_service(&scale);
    let (continuous, continuous_rounds) =
        continuous_section(&scale, &continuous_service, &mut report);
    report.finish();

    let final_speedup = rounds.last().expect("at least one round").speedup;
    let epoch_stats = incremental.epoch_cache_stats();
    let strawman_stats = recompute.epoch_cache_stats();
    if !smoke {
        assert!(
            final_speedup >= 5.0,
            "incremental ingest must serve the final batch ≥5× faster than \
             invalidate-and-recompute (measured {final_speedup:.2}×)"
        );
    }

    let round_rows: Vec<Json> = rounds
        .iter()
        .enumerate()
        .map(|(i, r)| {
            Json::obj(vec![
                ("round", Json::num(i as f64)),
                ("rows_total", Json::num(r.rows_total as f64)),
                ("epoch", Json::num(r.epoch as f64)),
                ("ingest_ms", Json::num(r.ingest_ms)),
                ("incremental_ms", Json::num(r.incremental_ms)),
                ("recompute_ms", Json::num(r.recompute_ms)),
                ("speedup", Json::num(r.speedup)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("bench", Json::str("exp_ingest")),
        ("mode", Json::str(scale.mode)),
        (
            "sections",
            Json::obj(vec![
                ("rounds", Json::Arr(round_rows)),
                (
                    "summary",
                    Json::obj(vec![
                        ("final_speedup", Json::num(final_speedup)),
                        // Asserted for every shape in every round before
                        // this document is ever written.
                        ("bit_identical", Json::Bool(true)),
                        ("delta_folds", Json::num(epoch_stats.delta_folds as f64)),
                        (
                            "recompute_cold_folds",
                            Json::num(strawman_stats.cold_folds as f64),
                        ),
                    ]),
                ),
                (
                    "continuous",
                    Json::obj(vec![
                        ("rounds", Json::Arr(continuous_rounds)),
                        (
                            "bit_identical",
                            get(&continuous, "bit_identical")
                                .cloned()
                                .unwrap_or(Json::Bool(false)),
                        ),
                        (
                            "rows_seen",
                            get(&continuous, "rows_seen")
                                .cloned()
                                .unwrap_or(Json::num(0.0)),
                        ),
                    ]),
                ),
            ]),
        ),
    ]);
    let text = doc.render();
    validate_artifact(&text).expect("emitted JSON must satisfy the schema");
    // Smoke results land under target/experiments — only full-scale
    // runs may touch the committed repo-root perf artifact.
    let path = if smoke {
        isla_bench::experiments_dir().join("BENCH_ingest.smoke.json")
    } else {
        bench_json_path("ingest")
    };
    std::fs::write(&path, &text).expect("write BENCH_ingest.json");
    println!("  [written {}]", path.display());

    let on_disk = std::fs::read_to_string(&path).expect("re-read artifact");
    validate_artifact(&on_disk).expect("on-disk JSON must satisfy the schema");

    println!(
        "final speedup {:.2}x (delta folds {}, strawman cold folds {})",
        final_speedup, epoch_stats.delta_folds, strawman_stats.cold_folds
    );
    if smoke {
        println!("smoke mode: schema validated");
    }
}
