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
/// vs exact, each group within the stated precision.
#[test]
fn acceptance_query_executes_and_meets_precision_per_group() {
    let catalog = catalog();
    let session = QuerySession::new();
    let e = 0.5;
    let approx = run_session(
        &session,
        &catalog,
        "SELECT AVG(x) FROM t WHERE y > 10 GROUP BY region WITH PRECISION 0.5",
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
