//! Acceptance tests for predicate + GROUP BY pushdown: the full
//! parse → compile → engine row-pipeline path, checked against exact
//! ground truth and across schedulers.

use isla::core::engine::{
    self, BlockScheduler, PooledScheduler, RateSpec, RowSpec, SequentialScheduler,
};
use isla::core::IslaConfig;
use isla::prelude::*;
use isla::query::{GroupRow, QueryError};
use isla::storage::{CmpOp, ColumnPredicate, RowFilter};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn catalog() -> Catalog {
    let ds = isla::datagen::three_region_dataset(150_000, 10, 42);
    let mut catalog = Catalog::new();
    catalog.register("t", Table::from_rows(ds.schema, ds.blocks));
    catalog
}

fn run_session(
    session: &QuerySession,
    catalog: &Catalog,
    sql: &str,
    seed: u64,
) -> Result<QueryResult, QueryError> {
    let query = isla::query::parse(sql)?;
    let mut rng = StdRng::seed_from_u64(seed);
    session.execute(&query, catalog, &mut rng)
}

fn run(sql: &str, seed: u64) -> Result<QueryResult, QueryError> {
    run_session(&QuerySession::new(), &catalog(), sql, seed)
}

fn groups(r: &QueryResult) -> &[GroupRow] {
    r.groups.as_deref().expect("grouped result")
}

/// The acceptance query: filtered + grouped + precision-bounded, ISLA
/// vs exact, each group within the stated precision. The method is
/// named: `y > 10` holds on every row, so the default form is answered
/// from the per-key block sketches instead of sampled.
#[test]
fn acceptance_query_executes_and_meets_precision_per_group() {
    let catalog = catalog();
    let session = QuerySession::new();
    let e = 0.5;
    let approx = run_session(
        &session,
        &catalog,
        "SELECT AVG(x) FROM t WHERE y > 10 GROUP BY region WITH PRECISION 0.5 METHOD ISLA",
        7,
    )
    .unwrap();
    let exact = run_session(
        &session,
        &catalog,
        "SELECT AVG(x) FROM t WHERE y > 10 GROUP BY region METHOD EXACT",
        8,
    )
    .unwrap();
    let (ag, eg) = (groups(&approx), groups(&exact));
    assert_eq!(eg.len(), 3, "three regions");
    assert_eq!(ag.len(), 3);
    for (a, x) in ag.iter().zip(eg) {
        assert_eq!(a.key, x.key);
        assert!(
            (a.value - x.value).abs() <= e,
            "group {}: approx {} vs exact {} (e = {e})",
            a.key,
            a.value,
            x.value
        );
        assert!(
            (a.rows - x.rows).abs() / x.rows < 0.05,
            "group {}: rows {} vs exact {}",
            a.key,
            a.rows,
            x.rows
        );
    }
    assert_eq!(approx.method, isla::query::Method::Isla);
    assert!(approx.samples_used.unwrap() > 0);
    assert!(
        approx.samples_used.unwrap() < 150_000,
        "approximate path reads less than the data"
    );
}

/// A selective predicate (≈ half the rows) with grouping: per-group
/// precision still holds because the rate is sized on the *filtered*
/// per-group shares.
#[test]
fn selective_predicate_keeps_per_group_precision() {
    let catalog = catalog();
    let session = QuerySession::new();
    let e = 0.5;
    let approx = run_session(
        &session,
        &catalog,
        "SELECT AVG(x) FROM t WHERE y > 50 GROUP BY region WITH PRECISION 0.5",
        9,
    )
    .unwrap();
    let exact = run_session(
        &session,
        &catalog,
        "SELECT AVG(x) FROM t WHERE y > 50 GROUP BY region METHOD EXACT",
        10,
    )
    .unwrap();
    let (ag, eg) = (groups(&approx), groups(&exact));
    assert_eq!(ag.len(), eg.len());
    for (a, x) in ag.iter().zip(eg) {
        assert!(
            (a.value - x.value).abs() <= e,
            "group {}: approx {} vs exact {} (e = {e})",
            a.key,
            a.value,
            x.value
        );
    }
    // The filter really bites: fewer matched rows than the table.
    let matched = approx.matched_rows.unwrap();
    assert!(
        matched > 30_000.0 && matched < 120_000.0,
        "matched {matched}"
    );
}

/// Pooled execution is bit-identical to sequential for grouped +
/// filtered plans, for every required worker count.
#[test]
fn pooled_grouped_filtered_is_bit_identical_for_required_worker_counts() {
    let ds = isla::datagen::three_region_dataset(90_000, 11, 5);
    let spec = RowSpec {
        agg_column: 0,
        filter: RowFilter::new(vec![ColumnPredicate {
            column: 1,
            op: CmpOp::Gt,
            value: 50.0,
        }]),
        group_by: Some(2),
    };
    let config = IslaConfig::builder().precision(0.5).build().unwrap();
    let run_with = |scheduler: &dyn BlockScheduler| {
        let mut rng = StdRng::seed_from_u64(31);
        engine::run_rows(
            &ds.blocks,
            &config,
            spec.clone(),
            RateSpec::Derived,
            scheduler,
            &mut rng,
        )
        .unwrap()
    };
    let sequential = run_with(&SequentialScheduler);
    assert_eq!(sequential.groups.len(), 3);
    for workers in [1, 2, 4, 7] {
        let pooled = run_with(&PooledScheduler::new(workers).unwrap());
        assert_eq!(
            pooled.groups.len(),
            sequential.groups.len(),
            "{workers} workers"
        );
        for (p, s) in pooled.groups.iter().zip(&sequential.groups) {
            assert_eq!(p.key, s.key, "{workers} workers");
            assert_eq!(p.estimate, s.estimate, "{workers} workers: group {}", p.key);
            assert_eq!(p.rows_estimate, s.rows_estimate, "{workers} workers");
            assert_eq!(p.matched_draws, s.matched_draws, "{workers} workers");
        }
        assert_eq!(pooled.estimate, sequential.estimate, "{workers} workers");
        assert_eq!(pooled.matched_rows, sequential.matched_rows);
        assert_eq!(pooled.total_samples, sequential.total_samples);
    }
}

/// The session cache keys on the query shape: an unfiltered query's
/// pre-estimate is never reused for a filtered/grouped one, while
/// repeats of the same shape hit.
#[test]
fn query_shapes_key_the_cache_separately() {
    let catalog = catalog();
    let session = QuerySession::new();
    run_session(
        &session,
        &catalog,
        "SELECT AVG(x) FROM t WITH PRECISION 0.5",
        20,
    )
    .unwrap();
    assert_eq!(session.cache_stats().misses, 1);
    assert_eq!(session.cache_stats().hits, 0);

    // Filtered: a different population — must miss.
    run_session(
        &session,
        &catalog,
        "SELECT AVG(x) FROM t WHERE y > 50 WITH PRECISION 0.5",
        21,
    )
    .unwrap();
    assert_eq!(session.cache_stats().misses, 2, "filtered query misses");
    assert_eq!(session.cache_stats().hits, 0);

    // Grouped + filtered: yet another shape — must miss (and this run
    // pays the pilot rows).
    let first = run_session(
        &session,
        &catalog,
        "SELECT AVG(x) FROM t WHERE y > 50 GROUP BY region WITH PRECISION 0.5",
        22,
    )
    .unwrap();
    assert_eq!(session.cache_stats().misses, 3, "grouped query misses");

    // Identical shapes hit and spend no pilot rows on repeat.
    let repeat = run_session(
        &session,
        &catalog,
        "SELECT AVG(x) FROM t WHERE y > 50 GROUP BY region WITH PRECISION 0.5",
        23,
    )
    .unwrap();
    assert_eq!(session.cache_stats().hits, 1, "repeat hits");
    assert_eq!(session.cache_stats().misses, 3);
    assert!(
        repeat.samples_used.unwrap() < first.samples_used.unwrap(),
        "cache hits skip the pilot rows: {} vs first {}",
        repeat.samples_used.unwrap(),
        first.samples_used.unwrap()
    );
}

/// SUM and COUNT under a filter are estimated from the hit rate, and
/// grouped SUM decomposes into per-group sums.
#[test]
fn filtered_sum_and_count_are_hit_rate_estimates() {
    let catalog = catalog();
    let session = QuerySession::new();
    let exact_sum = run_session(
        &session,
        &catalog,
        "SELECT SUM(x) FROM t WHERE y > 50 GROUP BY region METHOD EXACT",
        30,
    )
    .unwrap();
    let approx_sum = run_session(
        &session,
        &catalog,
        "SELECT SUM(x) FROM t WHERE y > 50 GROUP BY region WITH PRECISION 0.5",
        31,
    )
    .unwrap();
    for (a, x) in groups(&approx_sum).iter().zip(groups(&exact_sum)) {
        assert!(
            (a.value - x.value).abs() / x.value < 0.05,
            "group {}: sum {} vs exact {}",
            a.key,
            a.value,
            x.value
        );
    }
    assert!(
        (approx_sum.value - exact_sum.value).abs() / exact_sum.value < 0.05,
        "total sum {} vs exact {}",
        approx_sum.value,
        exact_sum.value
    );

    let exact_count = run_session(
        &session,
        &catalog,
        "SELECT COUNT(*) FROM t WHERE y > 50 METHOD EXACT",
        32,
    )
    .unwrap();
    // The default ungrouped count is exact: it counts the compiled
    // selection. A budget (or a precision) keeps the hit-rate estimate.
    let default_count = run_session(
        &session,
        &catalog,
        "SELECT COUNT(*) FROM t WHERE y > 50",
        33,
    )
    .unwrap();
    assert_eq!(default_count.value, exact_count.value, "exact, not sampled");
    assert_eq!(default_count.method, isla::query::Method::Exact);
    assert!(default_count.samples_used.is_none());
    let approx_count = run_session(
        &session,
        &catalog,
        "SELECT COUNT(*) FROM t WHERE y > 50 SAMPLES 10000",
        33,
    )
    .unwrap();
    assert_eq!(
        approx_count.samples_used,
        Some(10_000),
        "estimated, not metadata"
    );
    assert!(
        (approx_count.value - exact_count.value).abs() / exact_count.value < 0.05,
        "count {} vs exact {}",
        approx_count.value,
        exact_count.value
    );
}

/// The legacy surface is untouched: plain scalar queries on the same
/// schema-aware table still answer through the classic pipeline.
#[test]
fn scalar_queries_still_work_on_multi_column_tables() {
    let exact = run("SELECT AVG(x) FROM t METHOD EXACT", 40).unwrap();
    let approx = run("SELECT AVG(x) FROM t WITH PRECISION 0.5", 41).unwrap();
    assert!(
        (approx.value - exact.value).abs() < 1.0,
        "approx {} vs exact {}",
        approx.value,
        exact.value
    );
    let count = run("SELECT COUNT(*) FROM t", 42).unwrap();
    assert_eq!(count.value, 150_000.0);
    let max = run("SELECT MAX(x) FROM t METHOD EXACT", 43).unwrap();
    assert!(max.value > 140.0);
}

// ---------------------------------------------------------------------
// A default `GROUP BY` over blocks whose zone maps decide the filter is
// answered from the per-key block sketches: exact, with no pilot and no
// draw. A named `METHOD ISLA` keeps sampling.
// ---------------------------------------------------------------------

use isla::core::engine::{CacheKey, PreEstimateCache, RecoveryPolicy, RowPlan};
use isla::storage::{
    scan_keyed_sketch, ColumnMoments, IngestBuffer, KeyedSketch, RowsBlock, MAX_SKETCH_KEYS,
};
use rand::RngCore;

/// The keyed fold of `keys`/`values` rebuilt the slow way: one
/// [`ColumnMoments::update`] per row, routed by key bits, keys sorted.
fn keyed_reference(keys: &[f64], values: &[f64]) -> Vec<(u64, u64, ColumnMoments)> {
    let mut by_key: std::collections::BTreeMap<u64, (u64, ColumnMoments)> = Default::default();
    for (&k, &v) in keys.iter().zip(values) {
        let entry = by_key
            .entry(k.to_bits())
            .or_insert((0, ColumnMoments::new()));
        entry.0 += 1;
        entry.1.update(v);
    }
    by_key.into_iter().map(|(k, (n, m))| (k, n, m)).collect()
}

/// Every field of a keyed sketch by bit pattern.
fn keyed_bits(sketch: &KeyedSketch) -> Vec<(u64, u64, [u64; 5])> {
    sketch
        .keys()
        .iter()
        .map(|k| {
            let m = k.moments;
            (
                k.key_bits,
                k.rows,
                [
                    m.sum.to_bits(),
                    m.sum_sq.to_bits(),
                    m.min.to_bits(),
                    m.max.to_bits(),
                    m.non_finite,
                ],
            )
        })
        .collect()
}

fn reference_bits(reference: &[(u64, u64, ColumnMoments)]) -> Vec<(u64, u64, [u64; 5])> {
    reference
        .iter()
        .map(|&(k, n, m)| {
            (
                k,
                n,
                [
                    m.sum.to_bits(),
                    m.sum_sq.to_bits(),
                    m.min.to_bits(),
                    m.max.to_bits(),
                    m.non_finite,
                ],
            )
        })
        .collect()
}

#[test]
fn the_keyed_fold_is_the_per_row_update_loop_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x4B);
    // Several scan chunks, seven keys with -0.0 beside 0.0.
    let n = 40_000;
    let key_values = [0.0, -0.0, 1.0, 2.5, -3.0, 7.0, 1e9];
    let keys: Vec<f64> = (0..n)
        .map(|_| key_values[(rng.next_u64() % key_values.len() as u64) as usize])
        .collect();
    let values: Vec<f64> = (0..n)
        .map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 40) as f64 - 1e3)
        .collect();
    let reference = reference_bits(&keyed_reference(&keys, &values));
    assert_eq!(reference.len(), key_values.len(), "-0.0 is its own key");
    let direct = KeyedSketch::from_columns(&keys, &values).unwrap();
    assert_eq!(keyed_bits(&direct), reference);
    // The block scan folds the same rows chunk by chunk.
    let block = RowsBlock::new(vec![values.clone(), keys.clone()]);
    let scanned = scan_keyed_sketch(&block, 1, 0).unwrap().unwrap();
    assert_eq!(keyed_bits(&scanned), reference);

    // Non-finite values are counted under their key and poison its sums
    // exactly as the per-row loop does.
    let keys = [1.0, 2.0, 1.0, 2.0, 1.0, 3.0];
    let values = [4.0, f64::NAN, f64::INFINITY, 5.0, f64::NEG_INFINITY, 6.0];
    let sketch = KeyedSketch::from_columns(&keys, &values).unwrap();
    assert_eq!(
        keyed_bits(&sketch),
        reference_bits(&keyed_reference(&keys, &values))
    );
    let non_finite: Vec<u64> = sketch.keys().iter().map(|k| k.moments.non_finite).collect();
    assert_eq!(non_finite, vec![2, 1, 0]);

    // An empty block has no key; one key past the cap is "too many".
    assert!(KeyedSketch::from_columns(&[], &[])
        .unwrap()
        .keys()
        .is_empty());
    let many: Vec<f64> = (0..=MAX_SKETCH_KEYS).map(|k| k as f64).collect();
    assert!(
        KeyedSketch::from_columns(&many[..MAX_SKETCH_KEYS], &many[..MAX_SKETCH_KEYS]).is_some()
    );
    assert!(KeyedSketch::from_columns(&many, &many).is_none());
    let block = RowsBlock::new(vec![many.clone(), many]);
    assert!(scan_keyed_sketch(&block, 1, 0).unwrap().is_none());
}

/// Per group: `(key bits, value, rows)`, floats by bit pattern.
fn group_bits(r: &QueryResult) -> Vec<(u64, u64, u64)> {
    groups(r)
        .iter()
        .map(|g| (g.key.to_bits(), g.value.to_bits(), g.rows.to_bits()))
        .collect()
}

#[test]
fn a_default_group_by_is_exact_from_the_keyed_sketches() {
    let catalog = catalog();
    let session = QuerySession::new();
    // `y > 10` holds on every row, so every zone map decides it.
    for (filter, rows) in [("", None), ("WHERE y > 10 ", Some(150_000.0))] {
        for agg in ["AVG", "SUM"] {
            let sql = |tail: &str| format!("SELECT {agg}(x) FROM t {filter}GROUP BY region {tail}");
            let pinned = run_session(&session, &catalog, &sql("WITH PRECISION 0.05"), 50).unwrap();
            let exact = run_session(&session, &catalog, &sql("METHOD EXACT"), 51).unwrap();
            assert_eq!(pinned.samples_used, Some(0), "{agg} {filter}: no draw");
            assert_eq!(pinned.method, isla::query::Method::Isla);
            assert_eq!(pinned.matched_rows, rows, "{agg} {filter}");
            let (pg, eg) = (groups(&pinned), groups(&exact));
            assert_eq!(pg.len(), 3);
            assert_eq!(pg.len(), eg.len());
            for (p, x) in pg.iter().zip(eg) {
                assert_eq!(p.key, x.key);
                assert_eq!(p.rows, x.rows, "{agg} {filter}: exact counts");
                assert!(
                    (p.value - x.value).abs() <= 1e-12 * x.value.abs(),
                    "{agg} {filter} group {}: {} vs exact {}",
                    p.key,
                    p.value,
                    x.value
                );
            }
            assert!((pinned.value - exact.value).abs() <= 1e-12 * exact.value.abs());
        }
    }
    // Nothing was filed: a pinned lookup is not a pilot.
    assert!(session.pre_cache().is_empty());
    assert_eq!(session.cache_stats().lookups(), 0);
}

#[test]
fn a_pinned_group_by_is_bit_identical_on_every_scheduler() {
    use isla::query::ExecPolicy;
    let catalog = catalog();
    let sql = "SELECT AVG(x) FROM t GROUP BY region WITH PRECISION 0.2";
    let sequential = run_session(&QuerySession::new(), &catalog, sql, 60).unwrap();
    for workers in [2, 3, 7] {
        let session = QuerySession::with_policy(ExecPolicy::new().pooled(workers));
        let pooled = run_session(&session, &catalog, sql, 61).unwrap();
        assert_eq!(group_bits(&pooled), group_bits(&sequential), "{workers}");
        assert_eq!(pooled.value.to_bits(), sequential.value.to_bits());
        assert_eq!(pooled.samples_used, Some(0));
    }
}

#[test]
fn a_pinned_group_by_leaves_the_query_stream_and_draws_no_probe() {
    let catalog = catalog();
    let session = QuerySession::new();
    for tail in ["", " WITHIN 1000 MS"] {
        let sql = format!("SELECT SUM(x) FROM t GROUP BY region WITH PRECISION 0.1{tail}");
        let query = isla::query::parse(&sql).unwrap();
        let mut rng = StdRng::seed_from_u64(70);
        let answer = session.execute(&query, &catalog, &mut rng).unwrap();
        assert_eq!(answer.samples_used, Some(0), "{sql}");
        assert!(!answer.time_limited);
        let mut fresh = StdRng::seed_from_u64(70);
        assert_eq!(
            rng.next_u64(),
            fresh.next_u64(),
            "{sql}: neither a probe nor a seed derivation drew from the query's stream"
        );
    }

    // The engine's spine returns before deriving a block seed, and the
    // replayed per-block path finalizes the same exact answer from
    // zero-draw outcomes.
    let ds = isla::datagen::three_region_dataset(30_000, 5, 9);
    let config = IslaConfig::builder().precision(0.5).build().unwrap();
    let spec = RowSpec {
        agg_column: 0,
        filter: RowFilter::all(),
        group_by: Some(2),
    };
    let cache = PreEstimateCache::new();
    let key = CacheKey::new("t", "x", &config, &ds.blocks).with_row_shape(spec.fingerprint());
    let mut pilot_rng = StdRng::seed_from_u64(71);
    let lookup = cache
        .get_or_compute_rows_with(
            key,
            &ds.blocks,
            &config,
            &spec,
            &RecoveryPolicy::strict(),
            &mut pilot_rng,
        )
        .unwrap();
    assert!(lookup.hit, "a pinned lookup reports a hit");
    assert_eq!(lookup.pre.pilot_rows, 0);
    assert!(cache.is_empty(), "and files nothing");
    assert_eq!(cache.stats().lookups(), 0, "and moves no counter");
    let plan = RowPlan::from_pre_estimate(&ds.blocks, &config, spec, lookup.pre, RateSpec::Derived)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(72);
    let spine = engine::run_row_plan_with(
        &plan,
        &ds.blocks,
        &SequentialScheduler,
        &RecoveryPolicy::strict(),
        &mut rng,
    )
    .unwrap();
    assert_eq!(rng.next_u64(), StdRng::seed_from_u64(72).next_u64());
    assert_eq!((spine.total_samples, spine.pilot_samples), (0, 0));
    let mut partial = engine::GroupedPartial::new();
    for (b, block) in ds.blocks.iter().enumerate() {
        let outcome = engine::execute_row_block(&plan, block.as_ref(), b, 0).unwrap();
        assert_eq!(outcome.draws, 0, "a pinned plan draws nothing");
        partial.absorb(outcome);
    }
    let replayed = partial.finalize(&plan).unwrap();
    assert_eq!(replayed.estimate.to_bits(), spine.estimate.to_bits());
    for (r, s) in replayed.groups.iter().zip(&spine.groups) {
        assert_eq!(
            (r.key, r.estimate.to_bits(), r.rows_estimate.to_bits()),
            (s.key, s.estimate.to_bits(), s.rows_estimate.to_bits())
        );
        assert_eq!(r.rows_estimate.fract(), 0.0, "an exact count");
    }
}

#[test]
fn a_grown_table_pins_its_group_by_without_an_epoch_fold() {
    let ds = isla::datagen::three_region_dataset(60_000, 6, 11);
    let mut table = Table::from_rows(ds.schema, ds.blocks);
    let extra = isla::datagen::three_region_dataset(9_000, 1, 12);
    let mut rows: Vec<Vec<f64>> = Vec::new();
    extra
        .blocks
        .scan_all_rows(&mut |row| rows.push(row.to_vec()))
        .unwrap();
    let mut buffer = IngestBuffer::new(3, 4_500);
    let sealed = buffer
        .push_rows(rows.iter().map(Vec::as_slice))
        .unwrap()
        .into_iter()
        .map(|block| table.seal_block(block).unwrap())
        .collect();
    table.append_sealed(sealed);
    assert!(table.data().epoch() > 0);
    let mut catalog = Catalog::new();
    catalog.register("t", table);

    let session = QuerySession::new();
    let sql = "SELECT AVG(x) FROM t GROUP BY region WITH PRECISION 0.5";
    let pinned = run_session(&session, &catalog, sql, 80).unwrap();
    let exact = run_session(
        &session,
        &catalog,
        "SELECT AVG(x) FROM t GROUP BY region METHOD EXACT",
        81,
    )
    .unwrap();
    assert_eq!(pinned.samples_used, Some(0));
    for (p, x) in groups(&pinned).iter().zip(groups(&exact)) {
        assert_eq!(p.rows, x.rows);
        assert!((p.value - x.value).abs() <= 1e-12 * x.value.abs());
    }
    let epoch = session.pre_cache().epoch_stats();
    assert_eq!(
        (epoch.exact_hits, epoch.delta_folds, epoch.cold_folds),
        (0, 0, 0),
        "the pin runs before the epoch layer"
    );
    assert!(session.pre_cache().is_empty());

    // A named method folds the epochs as before.
    let named = run_session(&session, &catalog, &format!("{sql} METHOD ISLA"), 82).unwrap();
    assert!(named.samples_used.unwrap() > 0);
    assert_eq!(session.pre_cache().epoch_stats().cold_folds, 1);
}

#[test]
fn a_named_method_or_an_undecided_block_still_samples() {
    let catalog = catalog();
    let session = QuerySession::new();
    for sql in [
        "SELECT AVG(x) FROM t GROUP BY region WITH PRECISION 0.5 METHOD ISLA",
        // `y > 50` splits blocks: their zone maps decide nothing.
        "SELECT AVG(x) FROM t WHERE y > 50 GROUP BY region WITH PRECISION 0.5",
    ] {
        let answer = run_session(&session, &catalog, sql, 90).unwrap();
        assert!(answer.samples_used.unwrap() > 0, "{sql}");
    }

    // A key with more values per block than a keyed sketch holds.
    let n = 20_000;
    let x = isla::datagen::normal_values(50.0, 5.0, n, 91);
    let key: Vec<f64> = (0..n).map(|i| (i % (MAX_SKETCH_KEYS + 1)) as f64).collect();
    let mut wide = Catalog::new();
    wide.register(
        "w",
        Table::from_rows(
            isla::storage::Schema::of_floats(vec!["x", "k"]),
            RowsBlock::split(vec![x, key], 4),
        ),
    );
    let answer = run_session(
        &session,
        &wide,
        "SELECT AVG(x) FROM w GROUP BY k WITH PRECISION 0.5",
        92,
    )
    .unwrap();
    assert!(answer.samples_used.unwrap() > 0, "too many keys: sampled");
}

#[test]
fn a_default_grouped_count_is_the_exact_count() {
    let catalog = catalog();
    let session = QuerySession::new();
    for filter in ["", "WHERE y > 10 "] {
        let sql = |tail: &str| format!("SELECT COUNT(*) FROM t {filter}GROUP BY region{tail}");
        let default = run_session(&session, &catalog, &sql(""), 100).unwrap();
        let exact = run_session(&session, &catalog, &sql(" METHOD EXACT"), 101).unwrap();
        assert_eq!(default.method, isla::query::Method::Exact);
        assert_eq!(default.samples_used, None);
        assert_eq!(default.value, exact.value);
        assert_eq!(default.matched_rows, exact.matched_rows);
        assert_eq!(group_bits(&default), group_bits(&exact), "{filter}");
    }
    // A budget keeps the hit-rate estimate.
    let estimated = run_session(
        &session,
        &catalog,
        "SELECT COUNT(*) FROM t GROUP BY region SAMPLES 5000",
        102,
    )
    .unwrap();
    assert_eq!(estimated.samples_used, Some(5_000));
}
