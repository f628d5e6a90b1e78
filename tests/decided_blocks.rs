//! The metadata split of a default filtered or grouped `AVG`/`SUM`: the
//! blocks whose zone map decides the filter are answered exactly from
//! their sketches (or contribute nothing), and only the rest — the
//! residue — is sampled.

use isla::core::engine::{
    self, PooledScheduler, RateSpec, RecoveryPolicy, RetryPolicy, RowPlan, RowSpec,
    SequentialScheduler,
};
use isla::core::IslaConfig;
use isla::prelude::*;
use isla::query::{ExecPolicy, QueryError};
use std::sync::Arc;

use isla::storage::{
    BlockSketch, CmpOp, ColumnDef, ColumnPredicate, DataBlock, FaultPlan, RowFilter, StorageError,
    ZoneMatch, SCAN_CHUNK_ROWS,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROWS: usize = 120_000;
const BLOCKS: usize = 8;

/// Range-partitioned on `ts` (the row id, column 0): eight blocks of
/// 15 000 rows, `amount` (1) drifting with `ts`, `store` (2) in
/// {0, 1, 2}.
fn timeline_columns() -> Vec<Vec<f64>> {
    let noise = isla::datagen::normal_values(0.0, 10.0, ROWS, 31);
    let ts: Vec<f64> = (0..ROWS).map(|i| i as f64).collect();
    let amount = ts
        .iter()
        .zip(&noise)
        .map(|(t, e)| 40.0 + 20.0 * t / ROWS as f64 + e)
        .collect();
    let store = (0..ROWS).map(|i| (i % 3) as f64).collect();
    vec![ts, amount, store]
}

fn timeline() -> BlockSet {
    RowsBlock::split(timeline_columns(), BLOCKS)
}

/// A block holding a NaN whose zone map still decides: it answers the
/// verdict of its rows with the NaN read as 0, where a storage kind
/// answers `Mixed` for any non-finite value. Its reads and its sketch
/// carry the NaN.
struct Poisoned {
    columns: Vec<Vec<f64>>,
    verdicts: RowsBlock,
}

impl DataBlock for Poisoned {
    fn len(&self) -> u64 {
        self.columns[0].len() as u64
    }

    fn width(&self) -> usize {
        self.columns.len()
    }

    fn gather(
        &self,
        columns: &[usize],
        indices: &[u64],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        for (j, &i) in indices.iter().enumerate() {
            for (k, &c) in columns.iter().enumerate() {
                out[j * columns.len() + k] = self.columns[c][i as usize];
            }
        }
        Ok(())
    }

    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        for start in (0..self.columns[0].len()).step_by(SCAN_CHUNK_ROWS) {
            let end = (start + SCAN_CHUNK_ROWS).min(self.columns[0].len());
            let chunk: Vec<&[f64]> = columns
                .iter()
                .map(|&c| &self.columns[c][start..end])
                .collect();
            visit(&chunk);
        }
        Ok(())
    }

    fn sketch(&self) -> Option<Arc<BlockSketch>> {
        Some(Arc::new(BlockSketch::from_columns(&self.columns)))
    }

    fn zone(&self, filter: &RowFilter) -> ZoneMatch {
        self.verdicts.zone(filter)
    }
}

fn catalog(data: BlockSet) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register(
        "timeline",
        Table::from_rows(
            Schema::new(vec![
                ColumnDef::float("ts"),
                ColumnDef::float("amount"),
                ColumnDef::categorical("store"),
            ]),
            data,
        ),
    );
    catalog
}

fn run(
    session: &QuerySession,
    catalog: &Catalog,
    sql: &str,
    seed: u64,
) -> Result<QueryResult, QueryError> {
    let query = isla::query::parse(sql)?;
    session.execute(&query, catalog, &mut StdRng::seed_from_u64(seed))
}

/// Every number a result carries, floats by bit pattern.
fn bits(r: &QueryResult) -> Vec<u64> {
    let mut bits = vec![
        r.value.to_bits(),
        r.samples_used.unwrap_or(u64::MAX),
        r.matched_rows.map_or(0, f64::to_bits),
    ];
    for g in r.groups.iter().flatten() {
        bits.extend([g.key.to_bits(), g.value.to_bits(), g.rows.to_bits()]);
    }
    bits
}

/// `ts > 52 500.5`: blocks 0–2 match nowhere, 3 is cut, 4–7 match
/// everywhere.
fn cut_spec(group_by: Option<usize>) -> RowSpec {
    RowSpec {
        agg_column: 1,
        filter: RowFilter::new(vec![ColumnPredicate {
            column: 0,
            op: CmpOp::Gt,
            value: 52_500.5,
        }]),
        group_by,
    }
}

/// Metamorphic: a filter every row passes leaves every block all-match,
/// so the default answer is the unfiltered one — exact, no draw.
#[test]
fn an_always_true_filter_is_the_unfiltered_answer() {
    let catalog = catalog(timeline());
    let session = QuerySession::new();
    for agg in ["AVG", "SUM"] {
        for by in ["", " GROUP BY store"] {
            let plain = format!("SELECT {agg}(amount) FROM timeline{by} WITH PRECISION 0.5");
            let filtered = format!(
                "SELECT {agg}(amount) FROM timeline WHERE amount > -1000000{by} WITH PRECISION 0.5"
            );
            let want = run(&session, &catalog, &plain, 1).unwrap();
            let got = run(&session, &catalog, &filtered, 2).unwrap();
            assert_eq!(got.samples_used, Some(0), "{filtered}");
            assert_eq!(want.samples_used, Some(0), "{plain}");
            assert_eq!(got.matched_rows, Some(ROWS as f64), "{filtered}");
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
            assert!(
                close(got.value, want.value),
                "{filtered}: {} vs {}",
                got.value,
                want.value
            );
            let (got, want) = (
                got.groups.unwrap_or_default(),
                want.groups.unwrap_or_default(),
            );
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.key, g.rows), (w.key, w.rows), "{filtered}");
                assert!(close(g.value, w.value), "{filtered}: group {}", g.key);
            }
        }
    }
}

/// A split plan answers bit for bit the same at every worker count, and
/// draws less than its named `METHOD ISLA` twin, which samples every
/// block.
#[test]
fn a_split_plan_is_bit_identical_on_every_worker_count() {
    let catalog = catalog(timeline());
    for sql in [
        "SELECT AVG(amount) FROM timeline WHERE ts > 52500.5 GROUP BY store WITH PRECISION 0.3",
        "SELECT SUM(amount) FROM timeline WHERE ts >= 20000 AND ts < 100000 WITH PRECISION 0.3",
    ] {
        let want = run(&QuerySession::new(), &catalog, sql, 9).unwrap();
        for workers in [1, 2, 4, 7] {
            let pooled = QuerySession::with_policy(ExecPolicy::new().pooled(workers));
            let got = run(&pooled, &catalog, sql, 9).unwrap();
            assert_eq!(bits(&got), bits(&want), "{sql} on {workers} workers");
        }
        let twin = run(
            &QuerySession::new(),
            &catalog,
            &format!("{sql} METHOD ISLA"),
            9,
        )
        .unwrap();
        assert!(
            want.samples_used < twin.samples_used,
            "{sql}: {:?} draws against {:?}",
            want.samples_used,
            twin.samples_used
        );
    }
}

/// An armed fault turns a block's verdict `Mixed`, so a block the zone
/// map would decide is sampled as residue instead: a best-effort run
/// reads it, drops it if it fails, and never panics; the healthy
/// decided blocks are not drawn.
#[test]
fn an_armed_fault_on_a_decided_block_is_sampled_as_residue() {
    let native = timeline();
    let cfg = IslaConfig::builder().precision(0.3).build().unwrap();
    let best_effort = RecoveryPolicy::best_effort(RetryPolicy::attempts(2));
    let pool = PooledScheduler::new(3).unwrap();
    let mut struck = 0;
    for seed in 0..8u64 {
        let faults = FaultPlan::new(seed)
            .lose(0.3)
            .transient(0.2, 2)
            .corrupt(0.2);
        let armed = faults.arm(&native);
        for group_by in [None, Some(2)] {
            let spec = cut_spec(group_by);
            let mut rng = StdRng::seed_from_u64(seed);
            let Ok(pre) = engine::row_pre_estimate_with(
                &armed,
                &cfg,
                &spec,
                u64::MAX,
                &best_effort,
                &mut rng,
            ) else {
                continue;
            };
            let plan =
                RowPlan::from_pre_estimate(&armed, &cfg, spec.clone(), pre, RateSpec::Derived)
                    .unwrap();
            // Blocks 4–7 match everywhere; the plan splits when one of
            // them is healthy, and then samples exactly the `Mixed` ones.
            let verdicts: Vec<ZoneMatch> = armed.iter().map(|b| b.zone(&spec.filter)).collect();
            let split = verdicts[4..].contains(&ZoneMatch::AllMatch);
            for (b, &verdict) in verdicts.iter().enumerate() {
                let residue = !split || verdict == ZoneMatch::Mixed;
                assert_eq!(plan.samples(b), residue, "seed {seed} block {b}");
                if split && b != 3 && verdict == ZoneMatch::Mixed {
                    struck += 1;
                }
            }
            let schedulers: [&dyn engine::BlockScheduler; 2] = [&SequentialScheduler, &pool];
            let runs: Vec<Result<Vec<u64>, String>> = schedulers
                .into_iter()
                .map(|scheduler| {
                    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00);
                    engine::run_row_plan_with(&plan, &armed, scheduler, &best_effort, &mut rng)
                        .map(|out| {
                            assert!(out.estimate.is_finite(), "seed {seed}");
                            for failure in out.degradation.iter().flat_map(|d| &d.failures) {
                                assert!(
                                    plan.samples(failure.block_id),
                                    "seed {seed}: decided block {} failed",
                                    failure.block_id
                                );
                            }
                            let mut bits = vec![out.estimate.to_bits(), out.total_samples];
                            bits.extend(out.groups.iter().map(|g| g.estimate.to_bits()));
                            bits
                        })
                        .map_err(|e| e.to_string())
                })
                .collect();
            assert_eq!(runs[0], runs[1], "seed {seed}: sequential vs pooled");
        }

        // The whole query, pilots included, answers or fails typed.
        let catalog = catalog(faults.arm(&native));
        let session = QuerySession::with_policy(
            ExecPolicy::new()
                .pooled(2)
                .best_effort()
                .retry(RetryPolicy::attempts(2)),
        );
        for sql in [
            "SELECT AVG(amount) FROM timeline WHERE ts > 52500.5 WITH PRECISION 0.3",
            "SELECT SUM(amount) FROM timeline WHERE ts > 52500.5 GROUP BY store WITH PRECISION 0.3",
        ] {
            if let Ok(r) = run(&session, &catalog, sql, seed) {
                assert!(r.value.is_finite(), "{sql} seed {seed}");
            }
        }
    }
    assert!(struck > 0, "no fault plan struck a decided block");
}

/// A block the zone map decides but whose aggregated column holds a
/// non-finite value is sampled as residue, not read off its sketch.
#[test]
fn a_decided_block_holding_a_non_finite_value_is_sampled_as_residue() {
    // Block 6 — rows 90 000..105 000, which `ts > 52 500.5` matches
    // everywhere — holds a NaN `amount`.
    let columns = timeline_columns();
    let per_block = ROWS / BLOCKS;
    let blocks = (0..BLOCKS)
        .map(|b| {
            let rows = b * per_block..(b + 1) * per_block;
            let block: Vec<Vec<f64>> = columns.iter().map(|c| c[rows.clone()].to_vec()).collect();
            if b != 6 {
                return Arc::new(RowsBlock::new(block)) as Arc<dyn DataBlock>;
            }
            let mut poisoned = block.clone();
            poisoned[1][100] = f64::NAN;
            Arc::new(Poisoned {
                columns: poisoned,
                verdicts: RowsBlock::new(block),
            })
        })
        .collect();
    let data = BlockSet::new(blocks);
    let cfg = IslaConfig::builder().precision(0.3).build().unwrap();
    for group_by in [None, Some(2)] {
        let spec = cut_spec(group_by);
        assert_eq!(data.block(6).zone(&spec.filter), ZoneMatch::AllMatch);
        let mut rng = StdRng::seed_from_u64(4);
        let pre = engine::row_pre_estimate_with(
            &data,
            &cfg,
            &spec,
            u64::MAX,
            &RecoveryPolicy::best_effort(RetryPolicy::attempts(2)),
            &mut rng,
        )
        .unwrap();
        let plan = RowPlan::from_pre_estimate(&data, &cfg, spec, pre, RateSpec::Derived).unwrap();
        let sampled: Vec<usize> = (0..BLOCKS).filter(|&b| plan.samples(b)).collect();
        assert_eq!(sampled, [3, 6], "{group_by:?}");
    }
}
