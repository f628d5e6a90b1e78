//! M3 — predicate + GROUP BY pushdown: selectivity sweep × group
//! counts, sequential vs pooled.
//!
//! Not a paper experiment: this bench characterizes the row-model
//! pipeline added for the production roadmap. For each (selectivity,
//! group count) cell it runs the grouped/filtered engine on the
//! sequential scheduler and a 4-worker pool, reporting wall-clock,
//! draws spent, the worst per-group error against the exact scan, and
//! the selectivity estimate. Per-block seeds are fixed up front, so the
//! two schedulers report the identical estimates — only time moves.

use isla_bench::{fmt, median_ms, Report};
use isla_core::engine::{
    self, BlockScheduler, PooledScheduler, RateSpec, RowSpec, SequentialScheduler,
};
use isla_core::IslaConfig;
use isla_datagen::{regional_dataset, RegionSpec};
use isla_storage::{BlockSet, CmpOp, ColumnPredicate, RowFilter};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROWS: usize = 600_000;
const BLOCKS: usize = 16;
const PRECISION: f64 = 0.5;
const SEED: u64 = 3_000;
const RUNS: u64 = 5;

/// Predicate thresholds on y = 0.5·x + N(0, 5²): sweeping them moves
/// the selectivity from most rows matching down to a thin slice (the
/// measured hit rate is reported in the `sel est` column).
const SELECTIVITY_THRESHOLDS: [f64; 3] = [43.0, 50.0, 57.0];
const GROUP_COUNTS: [usize; 3] = [1, 3, 6];

fn dataset(groups: usize) -> isla_datagen::MultiDataset {
    let specs: Vec<RegionSpec> = (0..groups)
        .map(|g| RegionSpec {
            weight: 1.0,
            mean: 90.0 + 5.0 * g as f64,
            std_dev: 10.0,
        })
        .collect();
    regional_dataset(&specs, 0.5, 5.0, ROWS, BLOCKS, SEED + groups as u64)
}

fn spec_for(threshold: f64, grouped: bool) -> RowSpec {
    RowSpec {
        agg_column: 0,
        filter: RowFilter::new(vec![ColumnPredicate {
            column: 1,
            op: CmpOp::Gt,
            value: threshold,
        }]),
        group_by: grouped.then_some(2),
    }
}

/// Median wall time of `RUNS` identical runs, with the run's result.
fn median_run(
    data: &BlockSet,
    spec: &RowSpec,
    scheduler: &dyn BlockScheduler,
) -> (f64, engine::GroupedEngineResult) {
    let config = IslaConfig::builder().precision(PRECISION).build().unwrap();
    median_ms(RUNS, |_| {
        let mut rng = StdRng::seed_from_u64(SEED);
        engine::run_rows(
            data,
            &config,
            spec.clone(),
            RateSpec::Derived,
            scheduler,
            &mut rng,
        )
        .expect("row engine run succeeds")
    })
}

fn main() {
    println!(
        "M3 (rows): predicate + GROUP BY pushdown, {ROWS} rows, {BLOCKS} blocks, e = {PRECISION}"
    );

    let pooled = PooledScheduler::new(4).unwrap();
    let mut report = Report::new(
        "exp_predicate_groupby",
        &[
            "threshold",
            "groups",
            "seq ms",
            "pooled ms",
            "speedup",
            "draws",
            "sel est",
            "max group err",
        ],
    );
    for groups in GROUP_COUNTS {
        let ds = dataset(groups);
        for threshold in SELECTIVITY_THRESHOLDS {
            let spec = spec_for(threshold, groups > 1);
            let exact = engine::scan_exact_groups(&ds.blocks, &spec).expect("exact scan");
            let (seq_ms, seq_out) = median_run(&ds.blocks, &spec, &SequentialScheduler);
            let (pool_ms, pool_out) = median_run(&ds.blocks, &spec, &pooled);
            assert_eq!(
                seq_out.estimate, pool_out.estimate,
                "scheduling must never change the grouped answer"
            );
            let max_err = seq_out
                .groups
                .iter()
                .zip(&exact)
                .map(|(g, x)| (g.estimate - x.mean).abs())
                .fold(0.0f64, f64::max);
            report.row(vec![
                fmt(threshold, 0),
                groups.to_string(),
                fmt(seq_ms, 2),
                fmt(pool_ms, 2),
                fmt(seq_ms / pool_ms, 2),
                seq_out.total_samples.to_string(),
                fmt(seq_out.selectivity, 3),
                fmt(max_err, 4),
            ]);
        }
    }
    report.finish();
}
