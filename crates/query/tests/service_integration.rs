//! Integration tests for the multi-tenant serving layer: shared-cache
//! determinism under concurrency, admission backpressure, cross-cache
//! invalidation after in-place mutation, and the cache-key/config
//! pinning regressions.

use std::sync::{Arc, Barrier, RwLock};

use isla_core::engine::{CacheKey, RecoveryPolicy, RetryPolicy, RowSpec};
use isla_core::{IslaConfig, IslaError};
use isla_datagen::normal_values;
use isla_query::{
    parse, QueryError, QueryResult, QueryService, QuerySession, ServiceConfig, Table,
};
use isla_storage::{
    BlockFault, BlockSet, ColumnDef, DataBlock, FaultPlan, RowsBlock, Schema, StorageError,
};

/// The query mix every stress/identity test runs: scalar, filtered,
/// and grouped shapes over two tables.
const SHAPES: [&str; 4] = [
    "SELECT AVG(distance) FROM trips WITH PRECISION 0.5",
    "SELECT SUM(distance) FROM trips WITH PRECISION 0.5",
    "SELECT AVG(amount) FROM sales WHERE margin > 25 WITH PRECISION 0.5",
    "SELECT AVG(amount) FROM sales GROUP BY store WITH PRECISION 0.5",
];

fn register_tables(service: &QueryService) {
    let values = normal_values(100.0, 20.0, 300_000, 1);
    service.register_table(
        "trips",
        Table::new(vec![("distance", BlockSet::from_values(values, 10))]),
    );
    let n = 200_000usize;
    let x = normal_values(50.0, 10.0, n, 2);
    let noise = normal_values(0.0, 5.0, n, 3);
    let region: Vec<f64> = (0..n).map(|i| f64::from(u32::from(i % 3 == 0))).collect();
    let y: Vec<f64> = x.iter().zip(&noise).map(|(v, e)| 0.5 * v + e).collect();
    service.register_table(
        "sales",
        Table::from_rows(
            Schema::new(vec![
                ColumnDef::float("amount"),
                ColumnDef::float("margin"),
                ColumnDef::categorical("store"),
            ]),
            RowsBlock::split(vec![x, y, region], 8),
        ),
    );
}

fn config(max_concurrent: usize, queue_depth: usize) -> ServiceConfig {
    ServiceConfig {
        workers: max_concurrent,
        max_concurrent,
        queue_depth,
        sample_budget: None,
        pilot_seed: 0xDECADE,
        ..ServiceConfig::default()
    }
}

/// Two results are the same answer, bit for bit.
fn assert_identical(a: &QueryResult, b: &QueryResult, what: &str) {
    assert_eq!(
        a.value.to_bits(),
        b.value.to_bits(),
        "value differs: {what}"
    );
    match (&a.groups, &b.groups) {
        (None, None) => {}
        (Some(ga), Some(gb)) => {
            assert_eq!(ga.len(), gb.len(), "group count differs: {what}");
            for (x, y) in ga.iter().zip(gb) {
                assert_eq!(x.key, y.key, "group key differs: {what}");
                assert_eq!(
                    x.value.to_bits(),
                    y.value.to_bits(),
                    "group value differs: {what}"
                );
                assert_eq!(
                    x.rows.to_bits(),
                    y.rows.to_bits(),
                    "group rows differ: {what}"
                );
            }
        }
        _ => panic!("one result grouped, the other not: {what}"),
    }
    match (a.matched_rows, b.matched_rows) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.to_bits(), y.to_bits(), "matched_rows differ: {what}");
        }
        _ => panic!("one result filtered, the other not: {what}"),
    }
}

/// Satellite: 8 threads hammering the same tables through one shared
/// service produce answers bit-identical to a single-threaded reference
/// service, and a warm cache serves the whole storm without recomputing
/// a single pre-estimate.
#[test]
fn concurrent_service_is_bit_identical_to_sequential() {
    const THREADS: usize = 8;

    // Reference: a fresh single-slot service, queried one at a time.
    let reference = QueryService::new(config(1, 0));
    register_tables(&reference);
    let mut expected = Vec::new();
    for (s, sql) in SHAPES.iter().enumerate() {
        for t in 0..THREADS {
            let seed = (t * 10 + s) as u64;
            expected.push(reference.query("ref", sql, seed).unwrap());
        }
    }

    // Subject: an 8-slot shared service. Warm each shape once…
    let service = QueryService::new(config(THREADS, 64));
    register_tables(&service);
    for (s, sql) in SHAPES.iter().enumerate() {
        service.query("warmup", sql, s as u64).unwrap();
    }
    // AVG and SUM over the same column share a key, so the warm-up can
    // produce fewer misses than shapes — what matters is that the storm
    // below adds none.
    let warm = service.cache_stats();
    assert!(warm.misses as usize <= SHAPES.len());

    // …then storm it from 8 tenants at once.
    let barrier = Barrier::new(THREADS);
    let results: Vec<Vec<QueryResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let client = service.client(format!("tenant-{t}"));
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    SHAPES
                        .iter()
                        .enumerate()
                        .map(|(s, sql)| client.query(sql, (t * 10 + s) as u64).unwrap())
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (s, sql) in SHAPES.iter().enumerate() {
        for (t, thread_results) in results.iter().enumerate() {
            let reference_result = &expected[s * THREADS + t];
            assert_identical(
                reference_result,
                &thread_results[s],
                &format!("shape {sql:?}, seed {}", t * 10 + s),
            );
        }
    }

    // The warm cache absorbed the storm: not one duplicated pilot. The
    // plain shapes are pinned from the block sketches and the `GROUP BY`
    // shape from the per-key block sketches, which file no entry and
    // move no counter: only the filtered shape looks its entry up.
    let stats = service.cache_stats();
    assert_eq!(
        stats.misses, warm.misses,
        "a warm shared cache must serve every concurrent repeat"
    );
    assert_eq!(
        stats.hits - warm.hits,
        THREADS as u64,
        "every stormed query the sketches do not pin must be a cache hit"
    );
}

/// Where a query's per-block work runs is not part of its answer: a
/// service that gives each query one worker (every scan inline) and one
/// that gives it four return the same `QueryResult` — every field but
/// the wall clock — for exact scans of each kind and for the baselines
/// that fan their block reads out.
#[test]
fn exact_and_baseline_results_do_not_depend_on_the_worker_count() {
    const STATEMENTS: [&str; 10] = [
        "SELECT AVG(distance) FROM trips METHOD EXACT",
        "SELECT SUM(distance) FROM trips METHOD EXACT",
        "SELECT MAX(distance) FROM trips METHOD EXACT",
        "SELECT MIN(amount) FROM sales WHERE margin > 25 METHOD EXACT",
        "SELECT AVG(amount) FROM sales WHERE margin > 25 METHOD EXACT",
        "SELECT SUM(amount) FROM sales GROUP BY store METHOD EXACT",
        "SELECT COUNT(*) FROM sales WHERE margin > 25 GROUP BY store METHOD EXACT",
        // Asks for more draws than a scan costs: answered by the scan.
        "SELECT COUNT(*) FROM sales WHERE amount > 50 WITH PRECISION 10",
        "SELECT AVG(distance) FROM trips METHOD US SAMPLES 40000",
        "SELECT AVG(distance) FROM trips METHOD ISLA SAMPLES 40000",
    ];
    let service_with = |workers: usize| {
        let service = QueryService::new(ServiceConfig {
            workers,
            ..config(1, 0)
        });
        register_tables(&service);
        service
    };
    let (inline, pooled) = (service_with(1), service_with(4));
    for (seed, sql) in STATEMENTS.iter().enumerate() {
        let answer = |service: &QueryService| {
            let mut result = service.query("tenant", sql, seed as u64).unwrap();
            result.elapsed = std::time::Duration::ZERO;
            format!("{result:?}")
        };
        assert_eq!(answer(&inline), answer(&pooled), "{sql}");
    }
}

/// Satellite: a *cold* cache raced by 8 threads on the same shape stays
/// consistent — one surviving entry, answers bit-identical — and the
/// duplicate pilot work is bounded by the racing thread count (the
/// benign first-writer window), never more.
#[test]
fn cold_cache_race_is_benign() {
    const THREADS: usize = 8;
    let service = QueryService::new(config(THREADS, 64));
    register_tables(&service);
    // Named: the default form is pinned from the sketches, and a pin
    // looks nothing up.
    let sql = "SELECT AVG(distance) FROM trips WITH PRECISION 0.5 METHOD ISLA";

    let barrier = Barrier::new(THREADS);
    let results: Vec<QueryResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let client = service.client(format!("tenant-{t}"));
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    client.query(sql, 42).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Key-seeded pilots make racing first computations idempotent, so
    // every thread gets the same bits regardless of who wrote first.
    for r in &results[1..] {
        assert_identical(&results[0], r, "cold-race AVG");
    }
    let stats = service.cache_stats();
    assert_eq!(stats.hits + stats.misses, THREADS as u64);
    assert!(
        stats.misses >= 1 && stats.misses <= THREADS as u64,
        "duplicate pilot work must be bounded by the race width, got {} misses",
        stats.misses
    );
}

/// Satellite: saturate the pool and the service *rejects* with the
/// typed `Overloaded` — no panic, no `Internal`, no wedge — while
/// admitted queries complete within their sample budgets.
#[test]
fn saturated_service_rejects_with_overloaded() {
    let mut cfg = config(2, 2);
    cfg.sample_budget = Some(50_000);
    let service = QueryService::new(cfg);
    register_tables(&service);
    // Precision 0.05 plans ~450k samples at sigma 20 — the 50k budget
    // bites, so admitted queries report time_limited. Warm the
    // pre-estimate cache first: the waiters below then skip the pilot
    // phase, and their sample count is exactly what the budget admits.
    // METHOD ISLA samples where the sketches would pin the mean.
    let sql = "SELECT AVG(distance) FROM trips WITH PRECISION 0.05 METHOD ISLA";
    service.query("warmup", sql, 0).unwrap();

    // Occupy both execution slots directly, so queue/reject behavior
    // below is deterministic.
    let hog_a = service.gate().acquire("hog").unwrap();
    let hog_b = service.gate().acquire("hog").unwrap();

    std::thread::scope(|scope| {
        // Two queries enter the bounded queue…
        let waiter_a = {
            let client = service.client("patient-a");
            scope.spawn(move || client.query(sql, 1))
        };
        while service.gate().waiting() < 1 {
            std::thread::yield_now();
        }
        let waiter_b = {
            let client = service.client("patient-b");
            scope.spawn(move || client.query(sql, 2))
        };
        while service.gate().waiting() < 2 {
            std::thread::yield_now();
        }

        // …and every further arrival is refused, immediately and typed.
        for t in 0..4 {
            let err = service
                .query(&format!("burst-{t}"), sql, 3 + t)
                .unwrap_err();
            match err {
                QueryError::Overloaded { in_flight, queued } => {
                    assert_eq!(in_flight, 2);
                    assert_eq!(queued, 2);
                }
                other => panic!("expected Overloaded, got {other}"),
            }
        }

        // Free the slots: the queued queries run and finish under the
        // sample budget.
        drop(hog_a);
        drop(hog_b);
        for waiter in [waiter_a, waiter_b] {
            let r = waiter.join().unwrap().unwrap();
            assert!(r.time_limited, "the 50k budget must bite this query");
            let used = r.samples_used.unwrap();
            assert!(used <= 60_000, "budget 50k, used {used}");
        }
    });

    let stats = service.stats();
    assert_eq!(stats.rejected, 4);
    assert_eq!(stats.completed, 3, "warm-up plus the two queued waiters");
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.queued, 0);
}

/// A scalar block whose values can be swapped in place — the smallest
/// stand-in for a table mutated underneath the caches.
#[derive(Debug)]
struct MutBlock {
    values: Arc<RwLock<Vec<f64>>>,
}

impl DataBlock for MutBlock {
    fn len(&self) -> u64 {
        self.values.read().unwrap().len() as u64
    }

    fn gather(
        &self,
        columns: &[usize],
        indices: &[u64],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        let values = self.values.read().unwrap();
        for (row, &idx) in out.chunks_exact_mut(columns.len().max(1)).zip(indices) {
            row.fill(*values.get(idx as usize).ok_or(StorageError::Empty)?);
        }
        Ok(())
    }

    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        let values = self.values.read().unwrap();
        for chunk in values.chunks(isla_storage::SCAN_CHUNK_ROWS) {
            visit(&vec![chunk; columns.len()]);
        }
        Ok(())
    }
}

/// Regression (pre-PR bug): `invalidate_table` dropped only the
/// pre-estimation cache; compiled selections and per-block sketches
/// survived an in-place mutation and kept answering for the old data.
/// The unified entry point must clear all three, and the next filtered
/// query must see the *new* rows.
#[test]
fn invalidation_reaches_selections_and_sketches() {
    // Four blocks of 1000 rows, alternating 100.0 / 10.0.
    let shared: Vec<Arc<RwLock<Vec<f64>>>> = (0..4)
        .map(|_| {
            let values: Vec<f64> = (0..1000)
                .map(|i| if i % 2 == 0 { 100.0 } else { 10.0 })
                .collect();
            Arc::new(RwLock::new(values))
        })
        .collect();
    let blocks: Vec<Arc<dyn DataBlock>> = shared
        .iter()
        .map(|v| Arc::new(MutBlock { values: v.clone() }) as Arc<dyn DataBlock>)
        .collect();
    let table = Table::from_rows(
        Schema::new(vec![ColumnDef::float("x")]),
        BlockSet::new(blocks),
    );

    let service = QueryService::new(config(1, 4));
    service.register_table("t", table);

    // Populate every cache layer: the ISLA row query leaves
    // pre-estimates, the sampled MAX query compiles a selection (through
    // `pool_filtered_column`), and a sketch scan fills the sketch cache.
    let sql = "SELECT AVG(x) FROM t WHERE x < 50 WITH PRECISION 0.5";
    let max_sql = "SELECT MAX(x) FROM t WHERE x < 50 WITH PRECISION 0.5";
    let before = service.query("tenant", sql, 7).unwrap();
    assert!(
        (before.value - 10.0).abs() < 0.5,
        "rows under 50 average 10, got {}",
        before.value
    );
    let max_before = service.query("tenant", max_sql, 8).unwrap();
    assert!(
        (max_before.value - 10.0).abs() < 1e-9,
        "the largest matching row is 10.0, got {}",
        max_before.value
    );
    let data = service.table("t").unwrap();
    data.data().sketches().unwrap();
    assert!(data.data().selection_cache_len() > 0, "selection cached");
    assert_eq!(data.data().sketch_cache_len(), 4, "sketches cached");
    let builds_before = data.data().selection_stats().builds;

    // Mutate in place: every row becomes 30.0, so the predicate
    // `x < 50` now matches ALL 4000 rows (it matched 2000 before).
    for column in &shared {
        for v in column.write().unwrap().iter_mut() {
            *v = 30.0;
        }
    }

    service.invalidate_table("t");
    let data = service.table("t").unwrap();
    assert_eq!(
        data.data().selection_cache_len(),
        0,
        "stale selections must not survive invalidation"
    );
    assert_eq!(
        data.data().sketch_cache_len(),
        0,
        "stale sketches must not survive invalidation"
    );

    let after = service.query("tenant", sql, 7).unwrap();
    assert!(
        (after.value - 30.0).abs() < 1e-9,
        "all rows are 30.0 now, got {}",
        after.value
    );
    // The discriminator: stale pre-estimates would still claim only the
    // old ~2000 matching rows; a fresh pilot sees all 4000 match.
    let matched = after.matched_rows.unwrap();
    assert!(
        matched > 3_000.0,
        "the hit-rate pilot must rerun over the new data (matched {matched})"
    );
    // And the selection must recompile over the new rows, not serve the
    // stale match list.
    let max_after = service.query("tenant", max_sql, 8).unwrap();
    assert!(
        (max_after.value - 30.0).abs() < 1e-9,
        "every row is 30.0 now, got {}",
        max_after.value
    );
    assert!(
        data.data().selection_stats().builds > builds_before,
        "the selection must actually have been recompiled"
    );
}

/// A default plain query the block sketches pin is answered from them
/// directly: it files no cache entry and moves no cache counter. A named
/// `METHOD ISLA` over the same column runs the row plan at width 1 and
/// files exactly one entry, under its row-shape key.
#[test]
fn a_pinned_plain_query_files_nothing_and_a_named_one_files_its_row_key() {
    let session = QuerySession::new();
    let mut catalog = isla_query::Catalog::new();
    let values = normal_values(100.0, 20.0, 100_000, 4);
    catalog.register(
        "trips",
        Table::new(vec![("distance", BlockSet::from_values(values, 8))]),
    );
    let run = |sql: &str| {
        let query = parse(sql).unwrap();
        let mut rng = isla_core::engine::seeded_rng(11);
        session.execute(&query, &catalog, &mut rng).unwrap()
    };

    let pinned = run("SELECT AVG(distance) FROM trips WITH PRECISION 0.5 CONFIDENCE 0.95");
    assert_eq!(pinned.samples_used, Some(0));
    assert!(session.pre_cache().is_empty(), "a pin files no entry");
    assert_eq!(session.cache_stats().lookups(), 0, "a pin moves no counter");

    let named =
        run("SELECT AVG(distance) FROM trips WITH PRECISION 0.5 CONFIDENCE 0.95 METHOD ISLA");
    assert!(named.samples_used.unwrap() > 0, "the named method samples");
    assert_eq!(session.pre_cache().len(), 1, "exactly one entry");
    assert_eq!(session.cache_stats().misses, 1);

    let column = catalog.table("trips").unwrap().column("distance").unwrap();
    let config = IslaConfig::builder()
        .precision(0.5)
        .confidence(0.95)
        .build()
        .unwrap();
    let scalar_key = CacheKey::new("trips", "distance", &config, &column);
    let row_key = scalar_key
        .clone()
        .with_row_shape(RowSpec::column(0).fingerprint());
    assert!(
        session.pre_cache().contains(&row_key),
        "the entry is filed under the width-1 row shape"
    );
    assert!(!session.pre_cache().contains(&scalar_key));
}

/// A block whose every data-plane access panics, while metadata (length,
/// sketch) forwards to a healthy inner block — the worker-killing
/// failure a typed error taxonomy cannot describe.
struct PanicBlock {
    inner: Arc<dyn DataBlock>,
}

impl DataBlock for PanicBlock {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn gather(&self, _: &[usize], _: &[u64], _: &mut [f64]) -> Result<(), StorageError> {
        panic!("injected storage panic")
    }

    fn scan_column_chunks(
        &self,
        _: &[usize],
        _: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        panic!("injected storage panic")
    }

    fn sketch(&self) -> Option<Arc<isla_storage::BlockSketch>> {
        self.inner.sketch()
    }
}

/// A table whose third block panics on every data access.
fn mined_table() -> Table {
    let healthy = BlockSet::from_values(normal_values(50.0, 5.0, 40_000, 9), 4);
    let blocks: Vec<Arc<dyn DataBlock>> = (0..healthy.block_count())
        .map(|i| {
            if i == 2 {
                Arc::new(PanicBlock {
                    inner: Arc::clone(healthy.block(i)),
                }) as Arc<dyn DataBlock>
            } else {
                Arc::clone(healthy.block(i))
            }
        })
        .collect();
    Table::new(vec![("x", BlockSet::new(blocks))])
}

/// Regression: a default scalar query the block sketches pin reads no
/// block, `WITHIN` deadline or not — the deadline's calibration probe
/// used to draw from the mined block before the pin was consulted.
#[test]
fn a_pinned_default_query_skips_the_deadline_probe() {
    let service = QueryService::new(ServiceConfig::default());
    service.register_table("mined", mined_table());
    let sql = "SELECT AVG(x) FROM mined WITH PRECISION 0.5";
    let pinned = service.query("t", sql, 1).unwrap();
    assert_eq!(pinned.samples_used, Some(0));
    let timed = service
        .query("t", &format!("{sql} WITHIN 1000 MS"), 1)
        .unwrap();
    assert_eq!(timed.value.to_bits(), pinned.value.to_bits());
    assert_eq!(timed.samples_used, Some(0));
    assert!(!timed.time_limited);
}

/// Regression: a panicking `DataBlock` inside the worker pool must
/// surface on the submitting thread as a *typed*
/// `IslaError::Internal` — not unwind through `execute`, not wedge the
/// admission gate, not leave a permit leaked — and the service must keep
/// serving afterwards.
#[test]
fn worker_panic_is_a_typed_error_and_the_gate_survives() {
    let service = QueryService::new(ServiceConfig {
        workers: 8,
        max_concurrent: 2, // per-query pool of 4 workers
        queue_depth: 8,
        pilot_seed: 0xDECADE,
        ..ServiceConfig::default()
    });
    register_tables(&service);
    service.register_table("mined", mined_table());

    // METHOD ISLA reads the blocks; the sketch the mined block forwards
    // would otherwise pin the mean without touching them.
    let sql = "SELECT AVG(x) FROM mined WITH PRECISION 0.5 METHOD ISLA";
    for round in 0..2u64 {
        let err = service.query("victim", sql, round).unwrap_err();
        match &err {
            QueryError::Engine(IslaError::Internal(msg)) => {
                // The panic escapes during the pilot phase (on the
                // submitting thread), so no block id is attributable —
                // the typed error and the storm-proof gate are the
                // contract here.
                assert!(msg.contains("panicked"), "got: {msg}");
            }
            other => panic!("expected Engine(Internal), got {other}"),
        }
    }

    // The permits came back and the accounting is exact.
    let stats = service.stats();
    assert_eq!(stats.failed, 2);
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.queued, 0);
    assert_eq!(service.tenant_failures("victim").failed, 2);

    // The pool still serves healthy queries — no wedged worker, no
    // poisoned gate.
    let ok = service.query("victim", SHAPES[0], 7).unwrap();
    assert!((ok.value - 100.0).abs() < 2.0, "value {}", ok.value);
    assert_eq!(service.stats().completed, 1);
}

/// Best-effort mode turns the same panic into degradation: the mined
/// block is dropped, the answer finalizes over the survivors, and the
/// failure report names the panic.
#[test]
fn best_effort_drops_a_panicking_block_and_degrades() {
    let service = QueryService::new(ServiceConfig {
        workers: 4,
        max_concurrent: 1,
        queue_depth: 8,
        pilot_seed: 0xDECADE,
        recovery: RecoveryPolicy::best_effort(RetryPolicy::attempts(2)),
        ..ServiceConfig::default()
    });
    service.register_table("mined", mined_table());

    let r = service
        .query(
            "optimist",
            "SELECT AVG(x) FROM mined WITH PRECISION 0.5 METHOD ISLA",
            5,
        )
        .unwrap();
    let degradation = r.degradation.expect("a lost block must be reported");
    assert_eq!(degradation.failures.len(), 1);
    assert_eq!(degradation.failures[0].block_id, 2);
    assert_eq!(
        degradation.failures[0].attempts, 1,
        "panics are permanent: no retry"
    );
    assert!(degradation.failures[0].error.contains("panicked"));
    assert_eq!(degradation.lost_rows, 10_000);
    assert!(
        (r.value - 50.0).abs() < 1.0,
        "survivors answer, got {}",
        r.value
    );
    assert!(
        degradation.widened_half_width > degradation.base_half_width,
        "coverage loss must widen the interval"
    );

    let stats = service.stats();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.failed, 0);
    assert_eq!(service.tenant_failures("optimist").degraded, 1);
    assert_eq!(service.tenant_failures("optimist").failed, 0);
}

/// The chaos storm: many tenants hammer a table whose blocks are armed
/// with a seeded `FaultPlan` (permanent loss + transient faults that
/// recover inside the retry budget) through a best-effort pooled
/// service. Every query must complete, degradation must be identical
/// across tenants, seeds, and an independently built twin service —
/// and the stats accounting must be exact.
#[test]
fn chaos_storm_degrades_deterministically_with_exact_accounting() {
    const THREADS: usize = 6;
    const PER_TENANT: usize = 4;
    // Deterministically pick the first seed whose plan loses some (but
    // well under half) of the 12 blocks.
    let plan = (4242..4306)
        .map(|s| FaultPlan::new(s).lose(0.25).transient(0.5, 2))
        .find(|p| {
            let lost = (0..12)
                .filter(|&i| matches!(p.fault_for(i), BlockFault::Lost))
                .count();
            (1..=4).contains(&lost)
        })
        .expect("some seed in 4242..4306 must lose 1..=4 of 12 blocks");
    let lost: Vec<usize> = (0..12)
        .filter(|&i| matches!(plan.fault_for(i), BlockFault::Lost))
        .collect();

    let build = || {
        let service = QueryService::new(ServiceConfig {
            workers: THREADS * 2, // per-query pool of 2 workers
            max_concurrent: THREADS,
            queue_depth: 64,
            pilot_seed: 0xDECADE,
            recovery: RecoveryPolicy::best_effort(RetryPolicy::attempts(3)),
            ..ServiceConfig::default()
        });
        let clean = BlockSet::from_values(normal_values(100.0, 20.0, 240_000, 1), 12);
        service.register_table("trips", Table::new(vec![("distance", plan.arm(&clean))]));
        service
    };
    let storm = |service: &QueryService| -> Vec<QueryResult> {
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let client = service.client(format!("tenant-{t}"));
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        (0..PER_TENANT)
                            .map(|q| {
                                let sql = if q % 2 == 0 {
                                    "SELECT AVG(distance) FROM trips WITH PRECISION 0.5"
                                } else {
                                    "SELECT SUM(distance) FROM trips WITH PRECISION 0.5"
                                };
                                client.query(sql, (t * 10 + q) as u64).unwrap()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        })
    };

    let first = build();
    let first_results = storm(&first);
    let twin = build();
    let twin_results = storm(&twin);

    // Every query completed best-effort, and the degradation report is
    // the same everywhere: exactly the plan's lost blocks, in block
    // order, with no retry spent on permanent loss.
    for r in &first_results {
        let d = r.degradation.as_ref().expect("lost blocks must degrade");
        let ids: Vec<usize> = d.failures.iter().map(|f| f.block_id).collect();
        assert_eq!(ids, lost, "failures must be the plan's lost blocks, sorted");
        assert!(d.failures.iter().all(|f| f.attempts == 1));
        assert!(d.coverage > 0.0 && d.coverage < 1.0);
        assert!(d.widened_half_width > d.base_half_width);
    }
    // Deterministic across an independently built, independently
    // stormed twin: bit-identical answers and identical reports.
    for (a, b) in first_results.iter().zip(&twin_results) {
        assert_identical(a, b, "chaos twin");
        assert_eq!(a.degradation, b.degradation, "degradation reports differ");
    }

    // Exact accounting: every query admitted, completed, and degraded;
    // none failed, none rejected.
    let total = (THREADS * PER_TENANT) as u64;
    for service in [&first, &twin] {
        let stats = service.stats();
        assert_eq!(stats.admitted, total);
        assert_eq!(stats.completed, total);
        assert_eq!(stats.degraded, total);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.in_flight, 0);
        for t in 0..THREADS {
            let per_tenant = service.tenant_failures(&format!("tenant-{t}"));
            assert_eq!(per_tenant.degraded, PER_TENANT as u64);
            assert_eq!(per_tenant.failed, 0);
        }
    }

    // Strict mode is byte-for-byte today's behavior: on the same armed
    // data a default service fails the query with the historical typed
    // error; on clean data wrapped in a disarmed plan it answers
    // bit-identically to the bare blocks.
    let strict = QueryService::new(config(2, 8));
    let clean = BlockSet::from_values(normal_values(100.0, 20.0, 240_000, 1), 12);
    strict.register_table("trips", Table::new(vec![("distance", plan.arm(&clean))]));
    let err = strict
        .query(
            "pessimist",
            "SELECT AVG(distance) FROM trips WITH PRECISION 0.5",
            3,
        )
        .unwrap_err();
    match &err {
        // Strict mode fails in the pilot phase, before the scheduler
        // ever runs: the first faulty block's storage error (transient
        // or lost, whichever the pilot touches first) propagates as-is.
        QueryError::Engine(IslaError::Storage(_)) => {}
        other => panic!("expected Engine(Storage), got {other}"),
    }
    assert_eq!(strict.stats().failed, 1);

    let bare = QueryService::new(config(2, 8));
    bare.register_table("trips", Table::new(vec![("distance", clean.clone())]));
    let hooked = QueryService::new(config(2, 8));
    hooked.register_table(
        "trips",
        Table::new(vec![("distance", FaultPlan::new(4242).arm(&clean))]),
    );
    let sql = "SELECT AVG(distance) FROM trips WITH PRECISION 0.5";
    let a = bare.query("t", sql, 11).unwrap();
    let b = hooked.query("t", sql, 11).unwrap();
    assert_identical(&a, &b, "disarmed hooks must not drift the answer");
    assert!(a.degradation.is_none() && b.degradation.is_none());
}

/// Acceptance: two distinct tenants, same query shape — the second hits
/// the shared pre-estimate cache and skips the pilot phase, yet gets
/// the bit-identical answer for the same seed.
#[test]
fn second_tenant_skips_the_pilot_phase() {
    let service = QueryService::new(config(2, 8));
    register_tables(&service);
    let sql = "SELECT AVG(amount) FROM sales WHERE margin > 25 WITH PRECISION 0.5";

    let first = service.client("analyst").query(sql, 99).unwrap();
    let cold = service.cache_stats();
    assert_eq!(cold.misses, 1);
    assert_eq!(cold.hits, 0);

    let second = service.client("dashboard").query(sql, 99).unwrap();
    let warm = service.cache_stats();
    assert_eq!(warm.hits, 1, "second tenant must hit the shared cache");
    assert_eq!(warm.misses, 1);

    assert_identical(&first, &second, "cross-tenant repeat");
    assert!(
        second.samples_used.unwrap() < first.samples_used.unwrap(),
        "a hit skips the pilot rows: {} vs {}",
        second.samples_used.unwrap(),
        first.samples_used.unwrap()
    );
}
