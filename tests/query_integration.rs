//! Integration tests for the query layer over realistic catalogs.

use isla::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn demo_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    let readings = isla::datagen::normal_values(100.0, 20.0, 200_000, 1);
    catalog.register(
        "sensors",
        Table::new(vec![("reading", BlockSet::from_values(readings, 10))]),
    );
    let lineitem = isla::datagen::tpch::lineitem_column_dataset(
        isla::datagen::tpch::LineitemColumn::Quantity,
        200_000,
        10,
        2,
    );
    catalog.register(
        "lineitem",
        Table::new(vec![("l_quantity", lineitem.blocks.clone())]),
    );
    catalog
}

fn run(sql: &str, seed: u64) -> Result<QueryResult, isla::query::QueryError> {
    let catalog = demo_catalog();
    let query = isla::query::parse(sql)?;
    let mut rng = StdRng::seed_from_u64(seed);
    isla::query::execute(&query, &catalog, &mut rng)
}

#[test]
fn precision_queries_land_near_exact_answers() {
    let approx = run("SELECT AVG(reading) FROM sensors WITH PRECISION 0.5", 3).unwrap();
    let exact = run("SELECT AVG(reading) FROM sensors METHOD EXACT", 4).unwrap();
    assert!(
        (approx.value - exact.value).abs() < 1.0,
        "approx {} vs exact {}",
        approx.value,
        exact.value
    );
    // The approximate path reads far less data.
    assert!(approx.samples_used.unwrap() < 50_000);
}

#[test]
fn every_method_answers_the_same_question() {
    let exact = run("SELECT AVG(l_quantity) FROM lineitem METHOD EXACT", 5).unwrap();
    // E[l_quantity] = 25.5.
    assert!((exact.value - 25.5).abs() < 0.2);
    for method in ["ISLA", "US", "STS", "MVB", "SLEV"] {
        let sql = format!("SELECT AVG(l_quantity) FROM lineitem METHOD {method} SAMPLES 40000");
        let r = run(&sql, 6).unwrap();
        // MVB keeps a small positive bias; the others are near-unbiased.
        let tolerance = if method == "MVB" { 2.5 } else { 1.0 };
        assert!(
            (r.value - exact.value).abs() < tolerance,
            "{method}: {} vs exact {}",
            r.value,
            exact.value
        );
    }
    // MV's size bias on quantity: E[a²]/E[a] = (25.5² + σ²)/25.5 with
    // σ² = (50²−1)/12 ≈ 208 ⇒ ≈ 33.7.
    let mv = run(
        "SELECT AVG(l_quantity) FROM lineitem METHOD MV SAMPLES 40000",
        7,
    )
    .unwrap();
    assert!((mv.value - 33.7).abs() < 1.0, "MV {}", mv.value);
}

#[test]
fn sum_and_count_compose_with_avg() {
    let count = run("SELECT COUNT(*) FROM sensors", 8).unwrap();
    assert_eq!(count.value, 200_000.0);
    let avg = run("SELECT AVG(reading) FROM sensors WITH PRECISION 0.5", 9).unwrap();
    let sum = run("SELECT SUM(reading) FROM sensors WITH PRECISION 0.5", 9).unwrap();
    assert!((sum.value - avg.value * 200_000.0).abs() / sum.value < 1e-9);
}

#[test]
fn confidence_clause_reaches_the_engine() {
    // Higher confidence ⇒ larger z ⇒ more samples for the same e. A
    // named METHOD ISLA samples even where the sketches know the mean.
    let low = run(
        "SELECT AVG(reading) FROM sensors WITH PRECISION 0.5 CONFIDENCE 0.8 METHOD ISLA",
        10,
    )
    .unwrap();
    let high = run(
        "SELECT AVG(reading) FROM sensors WITH PRECISION 0.5 CONFIDENCE 0.99 METHOD ISLA",
        10,
    )
    .unwrap();
    assert!(
        high.samples_used.unwrap() > low.samples_used.unwrap() * 2,
        "0.99 confidence drew {} vs {} at 0.8",
        high.samples_used.unwrap(),
        low.samples_used.unwrap()
    );
}

#[test]
fn repeated_queries_hit_the_pre_estimation_cache() {
    // The heavy-traffic scenario: the same query shape over and over.
    // A session's first execution runs the pilots (miss); every repeat
    // skips them (hit), observable in the cache stats and in the sample
    // counts. METHOD ISLA runs the pilots the sketches would otherwise
    // make unnecessary.
    let catalog = demo_catalog();
    let session = QuerySession::new();
    let query =
        isla::query::parse("SELECT AVG(reading) FROM sensors WITH PRECISION 0.5 METHOD ISLA")
            .unwrap();

    let mut rng = StdRng::seed_from_u64(20);
    let first = session.execute(&query, &catalog, &mut rng).unwrap();
    assert_eq!(session.cache_stats().misses, 1);
    assert_eq!(session.cache_stats().hits, 0);

    let mut repeat_samples = Vec::new();
    for seed in 21..25 {
        let mut rng = StdRng::seed_from_u64(seed);
        let repeat = session.execute(&query, &catalog, &mut rng).unwrap();
        assert!((repeat.value - first.value).abs() < 1.0);
        repeat_samples.push(repeat.samples_used.unwrap());
    }
    let stats = session.cache_stats();
    assert_eq!(stats.misses, 1, "only the first run pilots");
    assert_eq!(stats.hits, 4, "every repeat hits the cache");
    assert_eq!(stats.lookups(), 5);
    // Repeats spend no pilot samples: strictly fewer draws than the
    // first execution of the identical query.
    for &m in &repeat_samples {
        assert!(
            m < first.samples_used.unwrap(),
            "repeat drew {m}, first drew {}",
            first.samples_used.unwrap()
        );
    }

    // A different column (or config) is a different cache entry.
    let other =
        isla::query::parse("SELECT AVG(l_quantity) FROM lineitem WITH PRECISION 0.5 METHOD ISLA")
            .unwrap();
    let mut rng = StdRng::seed_from_u64(26);
    session.execute(&other, &catalog, &mut rng).unwrap();
    assert_eq!(session.cache_stats().misses, 2);

    // The free-function path stays uncached: a fresh session each call.
    let uncached = run(
        "SELECT AVG(reading) FROM sensors WITH PRECISION 0.5 METHOD ISLA",
        27,
    );
    assert!(uncached.is_ok());
}

#[test]
fn predicates_work_over_zipped_legacy_tables() {
    // Tables assembled from per-column block sets (the pre-schema
    // construction) expose the same row model: predicates on one
    // column filter the aggregation of another.
    let mut catalog = Catalog::new();
    let readings = isla::datagen::normal_values(100.0, 20.0, 120_000, 5);
    let hours: Vec<f64> = (0..120_000)
        .map(|i| f64::from(u32::from(i % 4 == 0)))
        .collect();
    catalog.register(
        "sensors",
        Table::new(vec![
            ("reading", BlockSet::from_values(readings, 8)),
            ("peak", BlockSet::from_values(hours, 8)),
        ]),
    );
    let exec = |sql: &str, seed: u64| {
        let query = isla::query::parse(sql).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        isla::query::execute(&query, &catalog, &mut rng).unwrap()
    };
    let exact = exec(
        "SELECT AVG(reading) FROM sensors WHERE peak = 1 METHOD EXACT",
        40,
    );
    let approx = exec(
        "SELECT AVG(reading) FROM sensors WHERE peak = 1 WITH PRECISION 0.5",
        41,
    );
    assert!(
        (approx.value - exact.value).abs() <= 0.5,
        "approx {} vs exact {}",
        approx.value,
        exact.value
    );
    // A quarter of the rows are peak rows.
    let matched = approx.matched_rows.unwrap();
    assert!(
        (matched - 30_000.0).abs() < 1_500.0,
        "matched {matched} rows"
    );
    let grouped = exec(
        "SELECT AVG(reading) FROM sensors GROUP BY peak WITH PRECISION 0.5",
        42,
    );
    assert_eq!(grouped.groups.as_ref().unwrap().len(), 2);
}

/// A scalar `METHOD ISLA SAMPLES n` reports the samples it drew, not
/// the budget: past one draw per row the engine's rate is capped at 1,
/// so a huge budget draws the σ pilot, the sketch pilot (at most the
/// rows) and one calculation draw per row.
#[test]
fn an_oversized_samples_budget_reports_the_draws_made() {
    let rows = 300_000u64;
    let mut catalog = Catalog::new();
    catalog.register(
        "t",
        Table::new(vec![(
            "x",
            BlockSet::from_values(
                isla::datagen::normal_values(100.0, 20.0, rows as usize, 5),
                10,
            ),
        )]),
    );
    let query = isla::query::parse("SELECT AVG(x) FROM t METHOD ISLA SAMPLES 50000000").unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    let answer = isla::query::execute(&query, &catalog, &mut rng).unwrap();
    let used = answer.samples_used.unwrap();
    let sigma_pilot = 1_000;
    assert!(
        used <= sigma_pilot + 2 * rows,
        "reported {used} samples for a {rows}-row table"
    );
    assert!(used > rows, "every row is drawn at rate 1: {used}");
    assert!(!answer.time_limited);
}

#[test]
fn query_errors_surface_cleanly() {
    assert!(run("SELECT AVG(reading) FROM nope WITH PRECISION 0.5", 11).is_err());
    assert!(run("SELECT AVG(nope) FROM sensors WITH PRECISION 0.5", 12).is_err());
    assert!(run("SELECT MEDIAN(reading) FROM sensors", 13).is_err());
    assert!(
        run("SELECT AVG(reading) FROM sensors", 14).is_err(),
        "no precision/budget"
    );
}

/// The tables the golden corpus runs over. Every table is rebuilt from
/// seeds, so the corpus is a pure function of the source tree.
fn golden_catalog() -> Catalog {
    use isla::storage::{FaultPlan, IngestBuffer};

    let n = 120_000usize;
    let sales_set = |seed: u64, rows: usize, blocks: usize| {
        let amount = isla::datagen::normal_values(50.0, 10.0, rows, seed);
        let noise = isla::datagen::normal_values(0.0, 5.0, rows, seed + 1);
        let margin: Vec<f64> = amount
            .iter()
            .zip(&noise)
            .map(|(a, e)| 0.5 * a + e)
            .collect();
        let store: Vec<f64> = (0..rows).map(|i| (i % 3) as f64).collect();
        RowsBlock::split(vec![amount, margin, store], blocks)
    };
    let sales_schema = || {
        Schema::new(vec![
            ColumnDef::float("amount"),
            ColumnDef::float("margin"),
            ColumnDef::categorical("store"),
        ])
    };

    let mut catalog = Catalog::new();
    let readings = isla::datagen::normal_values(100.0, 20.0, n, 11);
    catalog.register(
        "sensors",
        Table::new(vec![(
            "reading",
            BlockSet::from_values(readings.clone(), 8),
        )]),
    );
    catalog.register(
        "consts",
        Table::new(vec![("c", BlockSet::from_values(vec![3.25; 20_000], 4))]),
    );
    catalog.register(
        "sales",
        Table::from_rows(sales_schema(), sales_set(12, n, 8)),
    );
    // Fewer rows than the COUNT(*) pilot draws, so any `WITH PRECISION`
    // count over it — a zero-match one included — escalates to a scan.
    catalog.register(
        "small_sales",
        Table::from_rows(sales_schema(), sales_set(20, 5_000, 4)),
    );

    // An epoch > 0 table: two sealed appends on top of the initial load.
    let mut grown = Table::new(vec![
        (
            "reading",
            BlockSet::from_values(isla::datagen::normal_values(100.0, 20.0, 60_000, 14), 6),
        ),
        (
            "load",
            BlockSet::from_values(isla::datagen::normal_values(10.0, 3.0, 60_000, 15), 6),
        ),
    ]);
    for round in 0..2u64 {
        let reading = isla::datagen::normal_values(104.0, 22.0, 9_000, 16 + round);
        let load = isla::datagen::normal_values(11.0, 3.0, 9_000, 18 + round);
        let mut buffer = IngestBuffer::new(2, 4_500);
        let rows: Vec<[f64; 2]> = reading.iter().zip(&load).map(|(r, l)| [*r, *l]).collect();
        let sealed = buffer
            .push_rows(rows.iter().map(|row| row.as_slice()))
            .unwrap();
        let batch = sealed
            .into_iter()
            .map(|rows| grown.seal_block(rows).unwrap())
            .collect();
        grown.append_sealed(batch);
    }
    assert_eq!(grown.data().epoch(), 2);
    catalog.register("grown", grown);

    // Armed fault plans: blocks 3 and 8 of ten are lost for good.
    let faults = FaultPlan::new(15).lose(0.25);
    catalog.register(
        "flaky",
        Table::new(vec![(
            "reading",
            faults.arm(&BlockSet::from_values(readings, 10)),
        )]),
    );
    catalog.register(
        "flaky_sales",
        Table::from_rows(sales_schema(), faults.arm(&sales_set(13, n, 10))),
    );

    // A table range-partitioned on `ts` (the row id): each of its eight
    // blocks covers 15 000 consecutive values, so a block's min/max zone
    // map decides a `ts` range filter for most blocks. `amount` drifts
    // with `ts`, which makes a wrong block weight visible in the answer.
    let ts: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let amount: Vec<f64> = isla::datagen::normal_values(0.0, 10.0, n, 21)
        .iter()
        .zip(&ts)
        .map(|(e, t)| 40.0 + 20.0 * t / n as f64 + e)
        .collect();
    let store: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
    catalog.register(
        "timeline",
        Table::from_rows(
            Schema::new(vec![
                ColumnDef::float("ts"),
                ColumnDef::float("amount"),
                ColumnDef::categorical("store"),
            ]),
            RowsBlock::split(vec![ts, amount, store], 8),
        ),
    );
    catalog
}

/// Every [`QueryResult`] field except `elapsed`, floats by bit pattern
/// (the decimal rendering is there for the reader).
fn golden_line(result: &Result<QueryResult, isla::query::QueryError>) -> String {
    let f = |v: f64| format!("{v:?}/{:016x}", v.to_bits());
    let of = |v: Option<f64>| v.map_or("-".to_string(), f);
    let r = match result {
        Ok(r) => r,
        Err(e) => return format!("error: {e}"),
    };
    let groups = r.groups.as_ref().map_or("-".to_string(), |groups| {
        groups
            .iter()
            .map(|g| format!("({} {} {})", f(g.key), f(g.value), f(g.rows)))
            .collect::<Vec<_>>()
            .join("")
    });
    let degradation = r.degradation.as_ref().map_or("-".to_string(), |d| {
        format!(
            "{:?} lost={} coverage={} base={} widened={}",
            d.failures,
            d.lost_rows,
            f(d.coverage),
            f(d.base_half_width),
            f(d.widened_half_width)
        )
    });
    format!(
        "value={} agg={:?} method={:?} rows={} samples={:?} precision={} confidence={} \
         time_limited={} groups={groups} matched={} degradation={degradation}",
        f(r.value),
        r.agg,
        r.method,
        r.rows,
        r.samples_used,
        of(r.precision),
        f(r.confidence),
        r.time_limited,
        of(r.matched_rows),
    )
}

/// `(session, statement, query seed)`. Sessions persist across the
/// corpus, so a repeated statement takes the cache-hit side of the
/// lookup its first occurrence populated.
const GOLDEN_CORPUS: &[(&str, &str, u64)] = &[
    // Scalar ISLA: precision-driven (miss, then hit), SAMPLES-driven.
    (
        "plain",
        "SELECT AVG(reading) FROM sensors WITH PRECISION 0.5",
        1,
    ),
    (
        "plain",
        "SELECT AVG(reading) FROM sensors WITH PRECISION 0.5",
        2,
    ),
    (
        "plain",
        "SELECT SUM(reading) FROM sensors WITH PRECISION 0.4 CONFIDENCE 0.9",
        3,
    ),
    (
        "plain",
        "SELECT AVG(reading) FROM sensors METHOD ISLA SAMPLES 40000",
        4,
    ),
    ("plain", "SELECT AVG(c) FROM consts WITH PRECISION 0.1", 5),
    // Scalar EXACT, metadata COUNT(*), extremes.
    ("plain", "SELECT AVG(reading) FROM sensors METHOD EXACT", 6),
    ("plain", "SELECT SUM(reading) FROM sensors METHOD EXACT", 7),
    ("plain", "SELECT COUNT(*) FROM sensors", 8),
    (
        "plain",
        "SELECT MAX(reading) FROM sensors WITH PRECISION 0.5",
        9,
    ),
    ("plain", "SELECT MIN(reading) FROM sensors", 10),
    ("plain", "SELECT MAX(reading) FROM sensors METHOD EXACT", 11),
    ("plain", "SELECT MIN(reading) FROM sensors METHOD EXACT", 12),
    // Scalar baselines.
    (
        "plain",
        "SELECT AVG(reading) FROM sensors METHOD US SAMPLES 20000",
        13,
    ),
    (
        "plain",
        "SELECT AVG(reading) FROM sensors METHOD STS SAMPLES 20000",
        14,
    ),
    (
        "plain",
        "SELECT AVG(reading) FROM sensors METHOD MV SAMPLES 20000",
        15,
    ),
    (
        "plain",
        "SELECT AVG(reading) FROM sensors METHOD MVB SAMPLES 20000",
        16,
    ),
    (
        "plain",
        "SELECT AVG(reading) FROM sensors METHOD SLEV SAMPLES 20000",
        17,
    ),
    (
        "plain",
        "SELECT AVG(reading) FROM sensors METHOD US WITH PRECISION 0.5",
        18,
    ),
    (
        "plain",
        "SELECT SUM(reading) FROM sensors METHOD STS SAMPLES 20000",
        19,
    ),
    // Row ISLA: filtered / grouped, precision- and SAMPLES-driven.
    (
        "plain",
        "SELECT AVG(amount) FROM sales WHERE margin > 25 WITH PRECISION 0.5",
        20,
    ),
    (
        "plain",
        "SELECT AVG(amount) FROM sales WHERE margin > 25 WITH PRECISION 0.5",
        21,
    ),
    (
        "plain",
        "SELECT SUM(amount) FROM sales WHERE margin > 25 WITH PRECISION 0.5",
        22,
    ),
    (
        "plain",
        "SELECT AVG(amount) FROM sales GROUP BY store WITH PRECISION 0.5",
        23,
    ),
    (
        "plain",
        "SELECT SUM(amount) FROM sales WHERE margin > 20 GROUP BY store WITH PRECISION 0.5",
        24,
    ),
    (
        "plain",
        "SELECT AVG(amount) FROM sales WHERE margin > 25 METHOD ISLA SAMPLES 4000",
        25,
    ),
    (
        "plain",
        "SELECT SUM(amount) FROM sales GROUP BY store METHOD ISLA SAMPLES 6000",
        26,
    ),
    // Row EXACT.
    (
        "plain",
        "SELECT AVG(amount) FROM sales WHERE margin > 25 METHOD EXACT",
        27,
    ),
    (
        "plain",
        "SELECT SUM(amount) FROM sales GROUP BY store METHOD EXACT",
        28,
    ),
    (
        "plain",
        "SELECT COUNT(*) FROM sales WHERE amount > 50 METHOD EXACT",
        29,
    ),
    // Estimated COUNT(*) WHERE: plain, precision-sized, exact-scan
    // escalation, grouped under US.
    ("plain", "SELECT COUNT(*) FROM sales WHERE amount > 50", 30),
    (
        "plain",
        "SELECT COUNT(*) FROM sales WHERE amount > 50 WITH PRECISION 2000",
        31,
    ),
    (
        "plain",
        "SELECT COUNT(*) FROM sales WHERE amount > 50 WITH PRECISION 10",
        32,
    ),
    (
        "plain",
        "SELECT COUNT(*) FROM sales WHERE amount > 50 GROUP BY store METHOD US SAMPLES 8000",
        33,
    ),
    // Filtered extremes and baselines.
    (
        "plain",
        "SELECT MAX(amount) FROM sales WHERE amount < 40 METHOD EXACT",
        34,
    ),
    (
        "plain",
        "SELECT MIN(amount) FROM sales WHERE margin > 25 WITH PRECISION 0.5",
        35,
    ),
    (
        "plain",
        "SELECT AVG(amount) FROM sales WHERE amount > 50 METHOD US SAMPLES 20000",
        36,
    ),
    (
        "plain",
        "SELECT SUM(amount) FROM sales WHERE amount > 50 METHOD STS SAMPLES 10000",
        37,
    ),
    (
        "plain",
        "SELECT AVG(amount) FROM sales WHERE margin > 25 METHOD SLEV WITH PRECISION 1.0",
        38,
    ),
    (
        "plain",
        "SELECT AVG(amount) FROM sales WHERE margin > 25 METHOD MVB SAMPLES 10000",
        39,
    ),
    // Errors are part of the contract too.
    (
        "plain",
        "SELECT AVG(amount) FROM sales GROUP BY store METHOD US SAMPLES 1000",
        40,
    ),
    (
        "plain",
        "SELECT AVG(amount) FROM sales WHERE amount > 1000000 WITH PRECISION 0.5",
        41,
    ),
    // A pooled session.
    (
        "pooled",
        "SELECT AVG(reading) FROM sensors WITH PRECISION 0.3",
        42,
    ),
    (
        "pooled",
        "SELECT AVG(amount) FROM sales WHERE margin > 25 GROUP BY store WITH PRECISION 0.5",
        43,
    ),
    ("pooled", "SELECT AVG(c) FROM consts WITH PRECISION 0.1", 44),
    // A budget-capped session: cap bites on a miss, on a hit (pilots
    // credited back), on an explicit SAMPLES budget; a loose query
    // stays uncapped.
    (
        "capped",
        "SELECT AVG(reading) FROM sensors WITH PRECISION 0.1",
        45,
    ),
    (
        "capped",
        "SELECT AVG(reading) FROM sensors WITH PRECISION 0.1",
        46,
    ),
    (
        "capped",
        "SELECT AVG(amount) FROM sales WHERE margin > 25 WITH PRECISION 0.1",
        47,
    ),
    (
        "capped",
        "SELECT AVG(amount) FROM sales WHERE margin > 25 WITH PRECISION 0.1",
        48,
    ),
    (
        "capped",
        "SELECT AVG(reading) FROM sensors METHOD ISLA SAMPLES 80000",
        49,
    ),
    (
        "capped",
        "SELECT AVG(reading) FROM sensors WITH PRECISION 2.0",
        50,
    ),
    (
        "capped_pooled",
        "SELECT SUM(amount) FROM sales GROUP BY store WITH PRECISION 0.1",
        51,
    ),
    (
        "capped_pooled",
        "SELECT AVG(reading) FROM sensors WITH PRECISION 0.1",
        52,
    ),
    // Key-seeded pilots (the serving discipline).
    (
        "seeded",
        "SELECT AVG(reading) FROM sensors WITH PRECISION 0.5",
        53,
    ),
    (
        "seeded",
        "SELECT AVG(reading) FROM sensors WITH PRECISION 0.5",
        53,
    ),
    (
        "seeded",
        "SELECT AVG(amount) FROM sales WHERE margin > 25 WITH PRECISION 0.5",
        54,
    ),
    // An epoch > 0 table: cold fold, exact epoch hit, row fold.
    (
        "plain",
        "SELECT AVG(reading) FROM grown WITH PRECISION 0.5",
        55,
    ),
    (
        "plain",
        "SELECT AVG(reading) FROM grown WITH PRECISION 0.5",
        56,
    ),
    (
        "plain",
        "SELECT AVG(reading) FROM grown WHERE load > 10 WITH PRECISION 0.5",
        57,
    ),
    (
        "seeded",
        "SELECT SUM(reading) FROM grown WHERE load > 10 WITH PRECISION 0.5",
        58,
    ),
    // Armed fault plans: strict fails, best-effort degrades.
    (
        "plain",
        "SELECT AVG(reading) FROM flaky WITH PRECISION 0.5",
        59,
    ),
    (
        "best_effort",
        "SELECT AVG(reading) FROM flaky WITH PRECISION 0.5",
        60,
    ),
    (
        "best_effort",
        "SELECT AVG(reading) FROM flaky WITH PRECISION 0.5",
        61,
    ),
    (
        "best_effort",
        "SELECT AVG(amount) FROM flaky_sales WHERE margin > 25 WITH PRECISION 0.5",
        62,
    ),
    (
        "best_effort",
        "SELECT SUM(amount) FROM flaky_sales GROUP BY store METHOD ISLA SAMPLES 6000",
        63,
    ),
    (
        "best_effort",
        "SELECT AVG(reading) FROM sensors WITH PRECISION 0.5",
        64,
    ),
    // The exact-scan escalation over a predicate nothing matches: the
    // count is 0 (an answer), where `METHOD EXACT` rejects the query.
    (
        "plain",
        "SELECT COUNT(*) FROM small_sales WHERE amount > 1000000 WITH PRECISION 1",
        65,
    ),
    (
        "plain",
        "SELECT COUNT(*) FROM small_sales WHERE amount > 1000000 GROUP BY store WITH PRECISION 1",
        66,
    ),
    (
        "plain",
        "SELECT COUNT(*) FROM sales WHERE amount > 1000000 METHOD US SAMPLES 120000 WITH PRECISION 1",
        67,
    ),
    (
        "plain",
        "SELECT COUNT(*) FROM small_sales WHERE amount > 1000000 METHOD EXACT",
        68,
    ),
    (
        "plain",
        "SELECT COUNT(*) FROM small_sales WHERE amount > 50 GROUP BY store WITH PRECISION 1",
        69,
    ),
    // Range filters on the column `timeline` is partitioned by: blocks
    // the zone map proves matchless are not read (`samples` counts rows
    // read), all-match blocks skip the predicate; a cut inside a block
    // leaves that one undecided.
    (
        "plain",
        "SELECT AVG(amount) FROM timeline WHERE ts > 60000 WITH PRECISION 0.5",
        70,
    ),
    (
        "plain",
        "SELECT SUM(amount) FROM timeline WHERE ts > 60000 WITH PRECISION 0.5",
        71,
    ),
    (
        "pooled",
        "SELECT AVG(amount) FROM timeline WHERE ts <= 45000 GROUP BY store WITH PRECISION 0.5",
        72,
    ),
    (
        "seeded",
        "SELECT SUM(amount) FROM timeline WHERE ts >= 30000 AND ts < 97500 WITH PRECISION 0.5",
        73,
    ),
    // A named METHOD ISLA samples where a default query reads the mean
    // off the block sketches: pilots, a cache hit, admission caps, the
    // epoch fold and pilot-detected constant data.
    (
        "plain",
        "SELECT AVG(reading) FROM sensors WITH PRECISION 0.5 METHOD ISLA",
        74,
    ),
    (
        "capped",
        "SELECT AVG(reading) FROM sensors WITH PRECISION 0.1 METHOD ISLA",
        75,
    ),
    (
        "capped_pooled",
        "SELECT SUM(reading) FROM sensors WITH PRECISION 0.1 METHOD ISLA",
        76,
    ),
    (
        "seeded",
        "SELECT AVG(reading) FROM sensors WITH PRECISION 0.5 METHOD ISLA",
        77,
    ),
    (
        "seeded",
        "SELECT AVG(reading) FROM sensors WITH PRECISION 0.5 METHOD ISLA",
        77,
    ),
    (
        "plain",
        "SELECT AVG(reading) FROM grown WITH PRECISION 0.5 METHOD ISLA",
        78,
    ),
    (
        "plain",
        "SELECT AVG(reading) FROM grown WITH PRECISION 0.5 METHOD ISLA",
        79,
    ),
    (
        "pooled",
        "SELECT AVG(c) FROM consts WITH PRECISION 0.1 METHOD ISLA",
        80,
    ),
    // A default GROUP BY whose every block the zone maps decide is read
    // off the per-key block sketches — unfiltered, under a deadline (no
    // probe), filtered on a block boundary, and counted — where a named
    // METHOD ISLA samples; an oversized scalar budget reports its draws.
    (
        "plain",
        "SELECT COUNT(*) FROM sales GROUP BY store",
        81,
    ),
    (
        "plain",
        "SELECT SUM(amount) FROM sales GROUP BY store WITH PRECISION 0.5 WITHIN 2000 MS",
        82,
    ),
    (
        "pooled",
        "SELECT AVG(amount) FROM timeline WHERE ts < 45000 GROUP BY store WITH PRECISION 0.5",
        83,
    ),
    (
        "plain",
        "SELECT AVG(amount) FROM sales GROUP BY store WITH PRECISION 0.5 METHOD ISLA",
        84,
    ),
    (
        "plain",
        "SELECT AVG(reading) FROM sensors METHOD ISLA SAMPLES 50000000",
        85,
    ),
    // One cell for each dispatch arm the lines above leave out: an
    // unfiltered count under a named method, the typed errors, and the
    // deadline probe of each unpinned kind (a deadline that cannot bind,
    // so the answer does not depend on the clock).
    ("plain", "SELECT COUNT(*) FROM sensors METHOD US", 86),
    ("plain", "SELECT MAX(amount) FROM sales GROUP BY store", 87),
    ("plain", "SELECT MIN(reading) FROM sensors SAMPLES 100", 88),
    (
        "plain",
        "SELECT COUNT(*) FROM sales WHERE amount > 50 METHOD MV",
        89,
    ),
    ("plain", "SELECT AVG(reading) FROM sensors METHOD ISLA", 90),
    (
        "plain",
        "SELECT AVG(reading) FROM sensors WITH PRECISION 0.5 METHOD ISLA WITHIN 60000 MS",
        91,
    ),
    (
        "plain",
        "SELECT AVG(amount) FROM sales WHERE margin > 25 WITH PRECISION 0.5 WITHIN 60000 MS",
        92,
    ),
    (
        "plain",
        "SELECT COUNT(*) FROM sales WHERE amount > 50 WITH PRECISION 10 WITHIN 60000 MS",
        93,
    ),
    // A default range filter answers its decided blocks exactly and
    // samples the cut block alone — pinned when the cuts fall on block
    // edges; capped below its pilots, the cut block draws nothing and
    // keeps the pilot's estimate — where the named METHOD ISLA samples
    // every block; the scalar budget adapter honours CONFIDENCE; a
    // baseline refuses a precision beside its budget.
    (
        "plain",
        "SELECT SUM(amount) FROM timeline WHERE ts >= 30000 AND ts < 90000 WITH PRECISION 0.5",
        94,
    ),
    (
        "capped",
        "SELECT AVG(amount) FROM timeline WHERE ts > 52500 WITH PRECISION 0.1",
        95,
    ),
    (
        "plain",
        "SELECT AVG(amount) FROM timeline WHERE ts > 60000 WITH PRECISION 0.5 METHOD ISLA",
        96,
    ),
    (
        "plain",
        "SELECT AVG(reading) FROM sensors CONFIDENCE 0.5 METHOD ISLA SAMPLES 40000",
        97,
    ),
    (
        "plain",
        "SELECT AVG(reading) FROM sensors WITH PRECISION 0.5 METHOD US SAMPLES 100",
        98,
    ),
];

/// Recorded at the commit before the Calculation-phase spine landed
/// (PR 12): one line per [`GOLDEN_CORPUS`] entry, in order. The
/// `timeline` lines were recorded when zone verdicts landed (PR 21);
/// at its parent they differ in `samples=` alone. The default unfiltered
/// scalar lines (constant data included), the default ungrouped
/// `COUNT(*) WHERE` line and the trailing `METHOD ISLA` lines were
/// re-recorded when metadata began answering what it knows exactly; the
/// two default unfiltered `GROUP BY store` lines, and the five appended
/// after them, when the per-key block sketches began answering grouped
/// queries. The eight lines after those were recorded before the
/// executor's scalar and row-model dispatch trees became one. The four
/// default `timeline` range lines were re-recorded, and the last five
/// appended, when a default filter began answering the blocks its zone
/// map decides from their sketches; of those five, the `METHOD ISLA`
/// line and the capped line read the same at the commit before.
const GOLDEN_EXPECTED: &str = include_str!("golden/query_corpus.txt");

#[test]
fn golden_corpus_matches_the_recorded_results() {
    use isla::core::engine::RetryPolicy;
    use isla::query::ExecPolicy;

    let catalog = golden_catalog();
    let sessions = [
        ("plain", QuerySession::new()),
        (
            "pooled",
            QuerySession::with_policy(ExecPolicy::new().pooled(3)),
        ),
        (
            "capped",
            QuerySession::with_policy(ExecPolicy::new().sample_budget(6_000)),
        ),
        (
            "capped_pooled",
            QuerySession::with_policy(ExecPolicy::new().pooled(2).sample_budget(9_000)),
        ),
        (
            "seeded",
            QuerySession::with_policy(ExecPolicy::new().pilot_seed(0xC0FFEE)),
        ),
        (
            "best_effort",
            QuerySession::with_policy(
                ExecPolicy::new()
                    .pooled(2)
                    .best_effort()
                    .retry(RetryPolicy::attempts(2)),
            ),
        ),
    ];
    let actual: Vec<String> = GOLDEN_CORPUS
        .iter()
        .map(|&(session, sql, seed)| {
            let session = &sessions
                .iter()
                .find(|(name, _)| *name == session)
                .unwrap()
                .1;
            let query = isla::query::parse(sql).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            golden_line(&session.execute(&query, &catalog, &mut rng))
        })
        .collect();
    let expected: Vec<&str> = GOLDEN_EXPECTED.lines().collect();
    let mismatches: Vec<String> = GOLDEN_CORPUS
        .iter()
        .zip(&actual)
        .enumerate()
        .filter(|(i, (_, line))| expected.get(*i) != Some(&line.as_str()))
        .map(|(i, ((session, sql, seed), line))| {
            format!("#{i} [{session}] {sql} (seed {seed})\n  got: {line}")
        })
        .collect();
    assert!(
        mismatches.is_empty() && expected.len() == GOLDEN_CORPUS.len(),
        "{} of {} statements differ from the {} recorded lines:\n{}\n\nfull table:\n{}",
        mismatches.len(),
        GOLDEN_CORPUS.len(),
        expected.len(),
        mismatches.join("\n"),
        actual.join("\n"),
    );
}

#[test]
fn isla_rejects_a_precision_and_a_sample_budget_together() {
    let catalog = golden_catalog();
    for sql in [
        "SELECT AVG(reading) FROM sensors WITH PRECISION 0.5 SAMPLES 1000",
        "SELECT SUM(reading) FROM sensors WITH PRECISION 0.5 METHOD ISLA SAMPLES 1000",
        "SELECT AVG(amount) FROM sales WHERE margin > 25 WITH PRECISION 0.5 SAMPLES 1000",
        "SELECT SUM(amount) FROM sales GROUP BY store WITH PRECISION 0.5 SAMPLES 1000",
        "SELECT AVG(amount) FROM sales WHERE margin > 25 GROUP BY store \
         WITH PRECISION 0.5 METHOD ISLA SAMPLES 1000",
    ] {
        let query = isla::query::parse(sql).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        match QuerySession::new().execute(&query, &catalog, &mut rng) {
            Err(isla::query::QueryError::Invalid(msg)) => assert!(
                msg.contains("PRECISION") && msg.contains("SAMPLES"),
                "{sql}: the error names neither clause: {msg}"
            ),
            other => panic!("{sql}: expected an invalid-query error, got {other:?}"),
        }
    }
}

/// A baseline sizes its draw from one clause too: given both, it names
/// them instead of answering from the budget alone.
#[test]
fn baselines_reject_a_precision_and_a_sample_budget_together() {
    let catalog = golden_catalog();
    for method in ["US", "STS", "MV", "MVB", "SLEV"] {
        for sql in [
            format!(
                "SELECT AVG(reading) FROM sensors WITH PRECISION 0.5 METHOD {method} SAMPLES 100"
            ),
            format!(
                "SELECT SUM(amount) FROM sales WHERE margin > 25 WITH PRECISION 0.5 \
                 METHOD {method} SAMPLES 100"
            ),
        ] {
            let query = isla::query::parse(&sql).unwrap();
            let mut rng = StdRng::seed_from_u64(1);
            match QuerySession::new().execute(&query, &catalog, &mut rng) {
                Err(isla::query::QueryError::Invalid(msg)) => assert!(
                    msg.contains("PRECISION") && msg.contains("SAMPLES"),
                    "{sql}: the error names neither clause: {msg}"
                ),
                other => panic!("{sql}: expected an invalid-query error, got {other:?}"),
            }
        }
    }
}

/// A plain `METHOD ISLA SAMPLES n` runs the row plan's budget path at
/// the query's confidence: its answer is the engine's own at that
/// confidence, and differs from the one at the default.
#[test]
fn a_scalar_sample_budget_honours_the_confidence() {
    use isla::core::engine::{self, RateSpec, RecoveryPolicy, RowPlan, RowSpec};

    let catalog = golden_catalog();
    let run = |sql: &str| {
        let query = isla::query::parse(sql).unwrap();
        QuerySession::new()
            .execute(&query, &catalog, &mut StdRng::seed_from_u64(3))
            .unwrap()
    };
    let at_half = run("SELECT AVG(reading) FROM sensors CONFIDENCE 0.5 METHOD ISLA SAMPLES 40000");
    let at_default = run("SELECT AVG(reading) FROM sensors METHOD ISLA SAMPLES 40000");
    assert_eq!(at_half.confidence, 0.5);
    assert_ne!(at_half.value.to_bits(), at_default.value.to_bits());

    let config = IslaConfig::builder().confidence(0.5).build().unwrap();
    // The golden catalog's `sensors` column, as a width-1 row spec.
    let readings = BlockSet::from_values(isla::datagen::normal_values(100.0, 20.0, 120_000, 11), 8);
    let spec = RowSpec::column(0);
    let strict = RecoveryPolicy::strict();
    let mut rng = StdRng::seed_from_u64(3);
    let pre = engine::row_pre_estimate_with(&readings, &config, &spec, 20_000, &strict, &mut rng)
        .unwrap();
    let rate = (40_000 - pre.pilot_rows) as f64 / 120_000.0;
    let plan = RowPlan::from_pre_estimate(&readings, &config, spec, pre, RateSpec::Absolute(rate))
        .unwrap();
    let want = engine::run_row_plan_with(
        &plan,
        &readings,
        &engine::SequentialScheduler,
        &strict,
        &mut rng,
    )
    .unwrap();
    assert_eq!(at_half.value.to_bits(), want.estimate.to_bits());
    assert_eq!(
        at_half.samples_used,
        Some(want.total_samples + plan.pilot_rows())
    );
}

/// A column whose values are finite but whose sum is not: 40 000 rows
/// of `1e308 + (i mod 7)·1e292` in 4 blocks. Its mean is finite; its
/// `Σa`, a pilot's σ̂ and the `SUM` overflow `f64`.
fn overflowing_catalog() -> Catalog {
    let values: Vec<f64> = (0..40_000u32)
        .map(|i| 1e308 + f64::from(i % 7) * 1e292)
        .collect();
    let mut catalog = Catalog::new();
    catalog.register(
        "huge",
        Table::new(vec![("x", BlockSet::from_values(values, 4))]),
    );
    catalog
}

/// Every path over a column whose sums overflow answers a finite value
/// or fails with a typed error — no panic, and no non-finite "exact"
/// answer. Runs through `isla::query::execute`, with no `catch_unwind`.
#[test]
fn overflowing_sums_answer_finite_or_fail_typed() {
    use isla::query::QueryError;

    let catalog = overflowing_catalog();
    for sql in [
        "SELECT AVG(x) FROM huge WITH PRECISION 0.5",
        "SELECT SUM(x) FROM huge WITH PRECISION 0.5",
        "SELECT AVG(x) FROM huge GROUP BY x WITH PRECISION 0.5",
        "SELECT AVG(x) FROM huge WHERE x > 0 WITH PRECISION 0.5",
        "SELECT AVG(x) FROM huge WITH PRECISION 0.5 METHOD ISLA",
        "SELECT AVG(x) FROM huge WHERE x > 0 WITH PRECISION 0.5 METHOD ISLA",
        "SELECT AVG(x) FROM huge METHOD ISLA SAMPLES 5000",
        "SELECT AVG(x) FROM huge METHOD MVB SAMPLES 5000",
        "SELECT AVG(x) FROM huge METHOD EXACT",
        "SELECT SUM(x) FROM huge WHERE x > 0 METHOD EXACT",
    ] {
        let query = isla::query::parse(sql).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        match isla::query::execute(&query, &catalog, &mut rng) {
            Ok(r) => assert!(r.value.is_finite(), "{sql}: non-finite answer {}", r.value),
            Err(QueryError::Engine(_) | QueryError::Invalid(_)) => {}
            Err(e) => panic!("{sql}: untyped error {e:?}"),
        }
    }
}

/// A seeded statement generator over the golden catalog's vocabulary:
/// every aggregate, each method or none, 0–2 predicates, a `GROUP BY`
/// on a categorical, a float or an unknown column, and each budget
/// clause at its edges (`SAMPLES 1`, `WITHIN 0`, which the parser
/// refuses and only an API caller can set).
fn mutated_statement(rng: &mut StdRng) -> isla::query::Query {
    use rand::Rng;

    const TABLES: &[(&str, &[&str])] = &[
        ("sensors", &["reading"]),
        ("consts", &["c"]),
        ("sales", &["amount", "margin", "store"]),
        ("small_sales", &["amount", "margin", "store"]),
        ("grown", &["reading", "load"]),
        ("flaky", &["reading"]),
        ("flaky_sales", &["amount", "margin", "store"]),
        ("timeline", &["ts", "amount", "store"]),
    ];
    fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
        items[rng.random_range(0..items.len())]
    }

    let (table, columns) = TABLES[rng.random_range(0..TABLES.len())];
    let mut sql = match pick(rng, &["AVG", "SUM", "COUNT", "MAX", "MIN"]) {
        "COUNT" => format!("SELECT COUNT(*) FROM {table}"),
        agg => format!("SELECT {agg}({}) FROM {table}", pick(rng, columns)),
    };
    let predicates: Vec<String> = (0..rng.random_range(0..3))
        .map(|_| {
            let column = pick(rng, columns);
            let op = pick(rng, &[">", "<", ">=", "<=", "=", "!="]);
            let literal = pick(rng, &["-1", "0", "1", "25", "50", "45000", "1000000"]);
            format!("{column} {op} {literal}")
        })
        .collect();
    if !predicates.is_empty() {
        sql += &format!(" WHERE {}", predicates.join(" AND "));
    }
    match pick(rng, &["", "categorical", "float", "unknown"]) {
        "categorical" if columns.contains(&"store") => sql += " GROUP BY store",
        "float" => sql += &format!(" GROUP BY {}", columns[0]),
        "unknown" => sql += " GROUP BY nope",
        _ => {}
    }
    match pick(rng, &["", "0.5", "2"]) {
        "" => {}
        e => sql += &format!(" WITH PRECISION {e}"),
    }
    match pick(
        rng,
        &["", "ISLA", "US", "STS", "MV", "MVB", "SLEV", "EXACT"],
    ) {
        "" => {}
        m => sql += &format!(" METHOD {m}"),
    }
    match pick(rng, &["", "1", "2", "1000"]) {
        "" => {}
        n => sql += &format!(" SAMPLES {n}"),
    }
    let within = pick(rng, &["", "0", "60000"]);
    if within == "60000" {
        sql += " WITHIN 60000 MS";
    }
    let mut query = isla::query::parse(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    if within == "0" {
        query.within_ms = Some(0);
    }
    query
}

#[test]
fn mutated_statements_answer_or_fail_typed() {
    use isla::core::engine::RetryPolicy;
    use isla::query::{ExecPolicy, QueryError};
    use rand::Rng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let catalog = golden_catalog();
    let sessions = [
        QuerySession::new(),
        QuerySession::with_policy(
            ExecPolicy::new()
                .pooled(2)
                .best_effort()
                .retry(RetryPolicy::attempts(2)),
        ),
    ];
    let mut statements = StdRng::seed_from_u64(0x5EED_D15C);
    for _ in 0..400 {
        let query = mutated_statement(&mut statements);
        let seed = statements.random::<u64>();
        for session in &sessions {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                session.execute(&query, &catalog, &mut rng)
            }));
            match outcome {
                Ok(Ok(_))
                | Ok(Err(QueryError::Invalid(_)))
                | Ok(Err(QueryError::UnknownColumn { .. }))
                | Ok(Err(QueryError::Engine(_))) => {}
                Ok(Err(e)) => panic!("{query:?}: unexpected error kind {e:?}"),
                Err(_) => panic!("{query:?} panicked"),
            }
        }
    }
}

/// A statement's lexer-sized pieces: whitespace-separated words, with
/// each parenthesis split off its word.
fn pieces(sql: &str) -> Vec<String> {
    sql.replace('(', " ( ")
        .replace(')', " ) ")
        .split_whitespace()
        .map(str::to_string)
        .collect()
}

/// One ungrammatical (or oddly literal) variant of `sql`: a piece
/// dropped, duplicated or swapped; a literal the parser must judge
/// (`1e400`, `-0`, a `SAMPLES 1e19` clause); non-ASCII text spliced in;
/// or the statement truncated mid-word.
fn mangled(sql: &str, rng: &mut StdRng) -> String {
    use rand::Rng;

    const LITERALS: &[&str] = &[
        "1e400",
        "-1e400",
        "-0",
        "1e19",
        "1e-400",
        "18446744073709551616",
        "0.",
        ".5",
        "1e",
        "--1",
        "1e+",
        "+",
        "NaN",
    ];
    const NON_ASCII: &[&str] = &["é", "∞", "\u{0}", "\u{feff}", "🦀", "İ", "\u{301}", "０"];

    let mut words = pieces(sql);
    for _ in 0..rng.random_range(1..=2) {
        let at = rng.random_range(0..words.len().max(1));
        match rng.random_range(0..7) {
            0 if !words.is_empty() => {
                words.remove(at);
            }
            1 if !words.is_empty() => {
                let word = words[at].clone();
                words.insert(at, word);
            }
            2 if !words.is_empty() => {
                let other = rng.random_range(0..words.len());
                words.swap(at, other);
            }
            3 if !words.is_empty() => {
                // A number where the statement has one, else anywhere.
                let numbers: Vec<usize> = (0..words.len())
                    .filter(|&i| words[i].parse::<f64>().is_ok())
                    .collect();
                let at = numbers.get(at % numbers.len().max(1)).map_or(at, |&i| i);
                words[at] = LITERALS[rng.random_range(0..LITERALS.len())].to_string();
            }
            4 => {
                // At the end, where the grammar allows it, or anywhere.
                let at = if rng.random_bool(0.5) {
                    words.len()
                } else {
                    at
                };
                let clause = ["SAMPLES", "1e19"].map(str::to_string);
                words.splice(at..at, clause);
            }
            5 => {
                let text = NON_ASCII[rng.random_range(0..NON_ASCII.len())];
                match words.get_mut(at) {
                    Some(word) => {
                        let cut = word
                            .char_indices()
                            .map(|(i, _)| i)
                            .nth(rng.random_range(0..=word.chars().count().saturating_sub(1)))
                            .unwrap_or(0);
                        word.insert_str(cut, text);
                    }
                    None => words.push(text.to_string()),
                }
            }
            _ => {
                let joined = words.join(" ");
                let cuts: Vec<usize> = joined.char_indices().map(|(i, _)| i).collect();
                let cut = cuts.get(rng.random_range(0..=cuts.len())).copied();
                words = pieces(&joined[..cut.unwrap_or(joined.len())]);
            }
        }
    }
    words.join(" ")
}

/// The lexer/parser half of the mutation fuzz: golden-corpus statements
/// mangled into ungrammatical input parse to a typed error or a `Query`
/// in bounded time, and every `Query` executes to an answer or a typed
/// error on a plain and on a pooled best-effort session.
///
/// A baseline `AVG`/`SUM` whose explicit budget exceeds 10⁷ draws is
/// parsed but not executed: the baselines draw exactly the budget they
/// are given, with no ceiling, so `METHOD US SAMPLES 1e19` runs for as
/// long as 10¹⁹ draws take.
#[test]
fn mangled_statements_parse_or_fail_typed() {
    use isla::core::engine::RetryPolicy;
    use isla::query::{AggFunc, ExecPolicy, Method, QueryError};
    use rand::Rng;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::{Duration, Instant};

    let catalog = golden_catalog();
    let sessions = [
        QuerySession::new(),
        QuerySession::with_policy(
            ExecPolicy::new()
                .pooled(2)
                .best_effort()
                .retry(RetryPolicy::attempts(2)),
        ),
    ];
    let mut rng = StdRng::seed_from_u64(0xF022_1E55);
    let (mut parsed, mut refused) = (0, 0);
    for _ in 0..1_500 {
        let (_, sql, _) = GOLDEN_CORPUS[rng.random_range(0..GOLDEN_CORPUS.len())];
        let text = mangled(sql, &mut rng);
        let start = Instant::now();
        let outcome = catch_unwind(|| isla::query::parse(&text));
        let took = start.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "{text:?} took {took:?} to parse"
        );
        let query = match outcome {
            Ok(Ok(query)) => query,
            Ok(Err(QueryError::Lex { .. } | QueryError::Parse { .. })) => {
                refused += 1;
                continue;
            }
            Ok(Err(e)) => panic!("{text:?}: unexpected parse error kind {e:?}"),
            Err(_) => panic!("{text:?}: the parser panicked"),
        };
        parsed += 1;
        let unbounded_baseline = !matches!(query.method, Method::Isla | Method::Exact)
            && matches!(query.agg, AggFunc::Avg | AggFunc::Sum)
            && query.samples.is_some_and(|n| n > 10_000_000);
        if unbounded_baseline {
            continue;
        }
        let seed = rng.random::<u64>();
        for session in &sessions {
            let mut query_rng = StdRng::seed_from_u64(seed);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                session.execute(&query, &catalog, &mut query_rng)
            }));
            match outcome {
                Ok(Ok(_))
                | Ok(Err(QueryError::Invalid(_)))
                | Ok(Err(QueryError::UnknownTable(_)))
                | Ok(Err(QueryError::UnknownColumn { .. }))
                | Ok(Err(QueryError::Engine(_))) => {}
                Ok(Err(e)) => panic!("{text:?}: unexpected error kind {e:?}"),
                Err(_) => panic!("{text:?} panicked"),
            }
        }
    }
    // The mutations reach both sides of the parser.
    assert!(
        parsed > 100 && refused > 100,
        "{parsed} parsed, {refused} refused"
    );
}
