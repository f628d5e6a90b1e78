//! M5 — serving throughput: the multi-tenant `QueryService` under
//! concurrent load.
//!
//! Not a paper experiment: the paper's interface is one interactive
//! session, this bench measures the serving layer grown around it. One
//! service (shared pre-estimation cache, per-table selection/sketch
//! caches, bounded admission) is stormed by 1 / 8 / 64 / 256 concurrent
//! client streams, every stream drawing from the same small mix of
//! query shapes — the dashboard workload, where repeats dominate. Three
//! sections:
//!
//! 1. **latency** — per-stream-count p50/p99 query latency, aggregate
//!    QPS, and the `Overloaded` rejection count (zero at the bench's
//!    queue depth — rejections are a correctness signal here, not a
//!    tuning goal);
//! 2. **cache** — shared pre-estimation cache hit rate over the whole
//!    storm, plus the per-table selection/sketch cache counters;
//! 3. **two_sessions** — the acceptance demonstration: a second tenant
//!    issuing the same shape hits the cache another tenant warmed and
//!    skips the pilot phase entirely, with the bit-identical answer.
//!
//! Results print as a table (CSV under `target/experiments/`) and are
//! written machine-readable to `BENCH_serving.json` at the workspace
//! root. `--smoke` runs a seconds-scale configuration and validates the
//! emitted JSON schema (the CI hook).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use isla_bench::json::{get, parse, Json};
use isla_bench::{bench_json_path, fmt, Report};
use isla_datagen::normal_values;
use isla_query::{QueryError, QueryService, ServiceConfig, Table};
use isla_storage::{BlockSet, ColumnDef, RowsBlock, Schema};

const SEED: u64 = 5_000;

/// The workload mix every stream cycles through: scalar, filtered,
/// grouped, and extreme shapes over two tables — nine distinct cache
/// entries across all three cache layers, the "dashboard refresh"
/// pattern. The `MAX … METHOD EXACT` shape exercises the *selection*
/// cache (compiled `WHERE` match lists), which the ISLA row path does
/// not touch.
const SHAPES: [&str; 9] = [
    "SELECT AVG(distance) FROM trips WITH PRECISION 0.5",
    "SELECT AVG(distance) FROM trips WITH PRECISION 0.2",
    "SELECT SUM(fare) FROM trips WITH PRECISION 0.5",
    "SELECT SUM(fare) FROM trips WITH PRECISION 0.2",
    "SELECT AVG(amount) FROM sales WHERE margin > 25 WITH PRECISION 0.5",
    "SELECT AVG(amount) FROM sales WHERE margin > 25 WITH PRECISION 0.3",
    "SELECT AVG(amount) FROM sales GROUP BY store WITH PRECISION 0.5",
    "SELECT AVG(amount) FROM sales GROUP BY store WITH PRECISION 0.3",
    "SELECT MAX(amount) FROM sales WHERE margin > 25 METHOD EXACT",
];

/// One run's scale knobs (full vs `--smoke`).
struct Scale {
    mode: &'static str,
    streams: Vec<usize>,
    queries_per_stream: usize,
    trips_rows: usize,
    sales_rows: usize,
}

impl Scale {
    fn full() -> Self {
        Self {
            mode: "full",
            streams: vec![1, 8, 64, 256],
            queries_per_stream: 32,
            trips_rows: 1_000_000,
            sales_rows: 500_000,
        }
    }

    fn smoke() -> Self {
        Self {
            mode: "smoke",
            streams: vec![1, 4],
            // One full cycle of the shape mix, so every cache layer
            // (including the MAX shape's selection cache) sees traffic.
            queries_per_stream: 9,
            trips_rows: 50_000,
            sales_rows: 30_000,
        }
    }
}

fn build_service(scale: &Scale) -> QueryService {
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let service = QueryService::new(ServiceConfig {
        workers,
        max_concurrent: workers,
        // Deep enough that the 256-stream storm queues instead of
        // rejecting: this bench measures latency under load, and any
        // `Overloaded` it does see is reported as a signal.
        queue_depth: 1_024,
        sample_budget: None,
        pilot_seed: SEED,
        ..ServiceConfig::default()
    });
    let distance = normal_values(100.0, 20.0, scale.trips_rows, SEED);
    let fare: Vec<f64> = distance.iter().map(|v| v * 2.5 + 3.0).collect();
    service.register_table(
        "trips",
        Table::new(vec![
            ("distance", BlockSet::from_values(distance, 16)),
            ("fare", BlockSet::from_values(fare, 16)),
        ]),
    );
    let n = scale.sales_rows;
    let x = normal_values(50.0, 10.0, n, SEED + 1);
    let noise = normal_values(0.0, 5.0, n, SEED + 2);
    let store: Vec<f64> = (0..n).map(|i| f64::from(u32::from(i % 3 == 0))).collect();
    let margin: Vec<f64> = x.iter().zip(&noise).map(|(v, e)| 0.5 * v + e).collect();
    service.register_table(
        "sales",
        Table::from_rows(
            Schema::new(vec![
                ColumnDef::float("amount"),
                ColumnDef::float("margin"),
                ColumnDef::categorical("store"),
            ]),
            RowsBlock::split(vec![x, margin, store], 16),
        ),
    );
    service
}

/// Storms the service with `streams` concurrent clients, each issuing
/// `queries_per_stream` queries round-robin over the shape mix.
/// Returns (sorted latencies in seconds, wall seconds, overloaded
/// count).
fn storm(
    service: &QueryService,
    streams: usize,
    queries_per_stream: usize,
) -> (Vec<f64>, f64, u64) {
    let barrier = Barrier::new(streams);
    let overloaded = AtomicU64::new(0);
    let start = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..streams)
            .map(|stream| {
                let client = service.client(format!("stream-{stream}"));
                let barrier = &barrier;
                let overloaded = &overloaded;
                scope.spawn(move || {
                    barrier.wait();
                    let mut times = Vec::with_capacity(queries_per_stream);
                    for i in 0..queries_per_stream {
                        let sql = SHAPES[(stream + i) % SHAPES.len()];
                        let seed = (stream * 1_000 + i) as u64;
                        let t = Instant::now();
                        match client.query(sql, seed) {
                            Ok(_) => times.push(t.elapsed().as_secs_f64()),
                            Err(QueryError::Overloaded { .. }) => {
                                overloaded.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("serving storm query failed: {e}"),
                        }
                    }
                    times
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("stream thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    (latencies, wall, overloaded.load(Ordering::Relaxed))
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn sweep_latency(scale: &Scale, service: &QueryService, report: &mut Report) -> Vec<Json> {
    let mut rows = Vec::new();
    for &streams in &scale.streams {
        let (latencies, wall, overloaded) = storm(service, streams, scale.queries_per_stream);
        let completed = latencies.len();
        let p50 = percentile(&latencies, 0.50) * 1e3;
        let p99 = percentile(&latencies, 0.99) * 1e3;
        let qps = completed as f64 / wall;
        report.row(vec![
            "latency".to_string(),
            streams.to_string(),
            fmt(p50, 3),
            fmt(p99, 3),
            fmt(qps, 1),
            overloaded.to_string(),
        ]);
        rows.push(Json::obj(vec![
            ("streams", Json::num(streams as f64)),
            ("completed", Json::num(completed as f64)),
            ("p50_ms", Json::num(p50)),
            ("p99_ms", Json::num(p99)),
            ("qps", Json::num(qps)),
            ("overloaded", Json::num(overloaded as f64)),
        ]));
    }
    rows
}

fn cache_section(service: &QueryService, report: &mut Report) -> Json {
    let pre = service.cache_stats();
    let hit_rate = if pre.hits + pre.misses > 0 {
        pre.hits as f64 / (pre.hits + pre.misses) as f64
    } else {
        0.0
    };
    let mut selection_hits = 0u64;
    let mut selection_builds = 0u64;
    let mut sketch_hits = 0u64;
    let mut sketch_inserted = 0u64;
    let mut sketch_raced = 0u64;
    for table in ["trips", "sales"] {
        let t = service
            .table_cache_stats(table)
            .expect("bench tables are registered");
        selection_hits += t.selection_hits;
        selection_builds += t.selection_builds;
        sketch_hits += t.sketch_hits;
        sketch_inserted += t.sketch_inserted;
        sketch_raced += t.sketch_raced;
    }
    report.row(vec![
        "cache".to_string(),
        format!("hits={}", pre.hits),
        format!("misses={}", pre.misses),
        format!("hit_rate={}", fmt(hit_rate, 4)),
        format!("sel_builds={selection_builds}"),
        format!("sk_raced={sketch_raced}"),
    ]);
    Json::obj(vec![
        ("pre_estimate_hits", Json::num(pre.hits as f64)),
        ("pre_estimate_misses", Json::num(pre.misses as f64)),
        ("pre_estimate_hit_rate", Json::num(hit_rate)),
        ("selection_hits", Json::num(selection_hits as f64)),
        ("selection_builds", Json::num(selection_builds as f64)),
        ("sketch_hits", Json::num(sketch_hits as f64)),
        ("sketch_inserted", Json::num(sketch_inserted as f64)),
        ("sketch_raced", Json::num(sketch_raced as f64)),
    ])
}

/// The acceptance demonstration on a *fresh* service: tenant A pays for
/// the pilots, tenant B repeats the shape and skips them. The shape
/// names `METHOD ISLA`, which pilots where a default query reads the
/// mean off the sketches.
fn two_sessions_section(scale: &Scale, report: &mut Report) -> Json {
    let service = build_service(scale);
    let sql = "SELECT AVG(distance) FROM trips WITH PRECISION 0.5 METHOD ISLA";
    let first = service
        .client("tenant-a")
        .query(sql, 7)
        .expect("first session query");
    let second = service
        .client("tenant-b")
        .query(sql, 7)
        .expect("second session query");
    let stats = service.cache_stats();
    let first_samples = first.samples_used.unwrap_or(0);
    let second_samples = second.samples_used.unwrap_or(0);
    assert_eq!(stats.hits, 1, "the second session must hit the cache");
    assert!(
        second_samples < first_samples,
        "a hit skips the pilot rows ({second_samples} vs {first_samples})"
    );
    assert_eq!(
        first.value.to_bits(),
        second.value.to_bits(),
        "key-seeded pilots keep hit and miss answers bit-identical"
    );
    report.row(vec![
        "two_sessions".to_string(),
        format!("first_samples={first_samples}"),
        format!("second_samples={second_samples}"),
        "pilot_skipped=true".to_string(),
        "bit_identical=true".to_string(),
        String::new(),
    ]);
    Json::obj(vec![
        ("first_samples", Json::num(first_samples as f64)),
        ("second_samples", Json::num(second_samples as f64)),
        ("pilot_skipped", Json::Bool(true)),
        ("bit_identical", Json::Bool(true)),
    ])
}

/// Schema contract for `BENCH_serving.json` (checked by CI's `--smoke`
/// run and on every write).
fn validate_artifact(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    for path in [
        "bench",
        "mode",
        "sections.latency",
        "sections.cache.pre_estimate_hit_rate",
        "sections.two_sessions.pilot_skipped",
        "sections.two_sessions.bit_identical",
    ] {
        if get(&doc, path).is_none() {
            return Err(format!("missing required key {path:?}"));
        }
    }
    match get(&doc, "sections.latency") {
        Some(Json::Arr(items)) if !items.is_empty() => {
            for item in items {
                for field in ["streams", "p50_ms", "p99_ms", "qps", "overloaded"] {
                    if get(item, field).is_none() {
                        return Err(format!("latency row lacks the {field:?} field"));
                    }
                }
            }
        }
        _ => return Err("sections.latency is not a non-empty array".to_string()),
    }
    Ok(())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { Scale::smoke() } else { Scale::full() };
    println!(
        "M5 (serving): QueryService under {} concurrent-stream sweeps, mode = {}",
        scale.streams.len(),
        scale.mode
    );

    let mut report = Report::new("exp_serving", &["section", "a", "b", "c", "d", "e"]);
    let service = build_service(&scale);
    let latency_rows = sweep_latency(&scale, &service, &mut report);
    let cache = cache_section(&service, &mut report);
    let two_sessions = two_sessions_section(&scale, &mut report);
    report.finish();

    let doc = Json::obj(vec![
        ("bench", Json::str("exp_serving")),
        ("mode", Json::str(scale.mode)),
        (
            "sections",
            Json::obj(vec![
                ("latency", Json::Arr(latency_rows)),
                ("cache", cache),
                ("two_sessions", two_sessions),
            ]),
        ),
    ]);
    let text = doc.render();
    validate_artifact(&text).expect("emitted JSON must satisfy the schema");
    // Smoke results land under target/experiments — only full-scale
    // runs may touch the committed repo-root perf artifact.
    let path = if smoke {
        isla_bench::experiments_dir().join("BENCH_serving.smoke.json")
    } else {
        bench_json_path("serving")
    };
    std::fs::write(&path, &text).expect("write BENCH_serving.json");
    println!("  [written {}]", path.display());

    let on_disk = std::fs::read_to_string(&path).expect("re-read artifact");
    validate_artifact(&on_disk).expect("on-disk JSON must satisfy the schema");

    if smoke {
        println!("smoke mode: schema validated");
    }
}
