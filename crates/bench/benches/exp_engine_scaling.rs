//! M2 — engine scaling: sequential vs pooled block scheduling.
//!
//! Not a paper experiment: this bench characterizes the engine layer
//! introduced for the production roadmap. One `QueryPlan` is prepared
//! per run; the same per-block workload then executes on the
//! `SequentialScheduler` and on `PooledScheduler`s with 1, 2, 4 and 8
//! workers. Because per-block seeds are fixed before execution, every
//! row of the table reports the *identical* estimate — the only thing
//! that changes is wall-clock time.

use isla_bench::{fmt, median_ms, Report};
use isla_core::engine::{self, BlockScheduler, PooledScheduler, RateSpec, SequentialScheduler};
use isla_core::IslaConfig;
use isla_datagen::normal_dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROWS: usize = 4_000_000;
const BLOCKS: usize = 32;
const PRECISION: f64 = 0.05;
const SEED: u64 = 2_000;
const RUNS: u64 = 7;

/// Median wall time of `RUNS` identical runs, with the run's estimate
/// and sample count.
fn median_run(data: &isla_datagen::Dataset, scheduler: &dyn BlockScheduler) -> (f64, f64, u64) {
    let config = IslaConfig::builder().precision(PRECISION).build().unwrap();
    let (ms, out) = median_ms(RUNS, |_| {
        let mut rng = StdRng::seed_from_u64(SEED);
        engine::run(
            &data.blocks,
            &config,
            RateSpec::Derived,
            scheduler,
            &mut rng,
        )
        .expect("engine run succeeds")
    });
    (ms, out.estimate, out.total_samples)
}

fn main() {
    println!(
        "M2 (engine): sequential vs pooled scheduling, {ROWS} rows, {BLOCKS} blocks, e = {PRECISION}"
    );
    let ds = normal_dataset(100.0, 20.0, ROWS, BLOCKS, SEED);

    let mut report = Report::new(
        "exp_engine_scaling",
        &[
            "scheduler",
            "workers",
            "median ms",
            "speedup",
            "estimate",
            "samples",
        ],
    );
    let (base_ms, base_estimate, base_samples) = median_run(&ds, &SequentialScheduler);
    report.row(vec![
        "sequential".to_string(),
        "1".to_string(),
        fmt(base_ms, 2),
        fmt(1.0, 2),
        fmt(base_estimate, 4),
        base_samples.to_string(),
    ]);
    for workers in [1usize, 2, 4, 8] {
        let scheduler = PooledScheduler::new(workers).unwrap();
        let (ms, estimate, samples) = median_run(&ds, &scheduler);
        assert_eq!(
            estimate, base_estimate,
            "scheduling must never change the answer"
        );
        assert_eq!(samples, base_samples);
        report.row(vec![
            "pooled".to_string(),
            workers.to_string(),
            fmt(ms, 2),
            fmt(base_ms / ms, 2),
            fmt(estimate, 4),
            samples.to_string(),
        ]);
    }
    report.finish();
    println!(
        "every row reports the identical estimate {base_estimate:.4}: the pool \
         changes wall-clock time only, never the answer."
    );
}
