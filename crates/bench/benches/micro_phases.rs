//! M1 — micro-benches for ISLA's hot paths: the sampling-phase fold
//! (Algorithm 1), the iteration phase (Algorithm 2), Theorem-3
//! coefficient computation, block sampling, and the normal quantile.
//! Each row is the median of `RUNS` timed runs; a run repeats a
//! sub-microsecond call `iters` times so the clock's resolution does not
//! swamp it.

use std::hint::black_box;

use isla_bench::{fmt, median_ms, Report};
use isla_core::accumulate::SampleAccumulator;
use isla_core::{iteration_phase, DataBoundaries, IslaConfig, LinearEstimator};
use isla_datagen::normal_values;
use isla_stats::normal_quantile;
use isla_storage::{BlockReads, RowsBlock};
use rand::rngs::StdRng;
use rand::SeedableRng;

const RUNS: u64 = 20;

fn boundaries() -> DataBoundaries {
    DataBoundaries::new(100.0, 20.0, 0.5, 2.0)
}

fn accumulator(n: usize, seed: u64) -> SampleAccumulator {
    let mut acc = SampleAccumulator::new(boundaries());
    for v in normal_values(100.0, 20.0, n, seed) {
        acc.offer(v);
    }
    acc
}

/// Adds the row of one bench: the median time of a call and, for a call
/// that processes `elements` items, the items per second.
fn time(report: &mut Report, name: &str, iters: u64, elements: Option<u64>, mut f: impl FnMut()) {
    let (ms, ()) = median_ms(RUNS, |_| (0..iters).for_each(|_| f()));
    let ns = ms * 1e6 / iters as f64;
    let rate = elements.map_or("-".to_string(), |n| format!("{:.3e}", n as f64 * 1e9 / ns));
    report.row(vec![name.to_string(), iters.to_string(), fmt(ns, 1), rate]);
}

fn main() {
    let mut report = Report::new(
        "micro_phases",
        &["bench", "calls/run", "median ns/call", "elem/s"],
    );

    let values = normal_values(100.0, 20.0, 100_000, 1);
    time(
        &mut report,
        "algorithm1_fold/offer_100k",
        1,
        Some(100_000),
        || {
            let mut acc = SampleAccumulator::new(boundaries());
            for &v in &values {
                acc.offer(black_box(v));
            }
            black_box(acc.u() + acc.v());
        },
    );

    let acc = accumulator(50_000, 2);
    let config = IslaConfig::builder().precision(0.1).build().unwrap();
    time(&mut report, "algorithm2_iteration", 100, None, || {
        black_box(iteration_phase(black_box(&acc), 100.05, &config).answer);
    });

    let acc = accumulator(50_000, 3);
    time(&mut report, "theorem3_coefficients", 10_000, None, || {
        let (s, l) = (black_box(acc.param_s()), black_box(acc.param_l()));
        black_box(LinearEstimator::from_moments(s, l, 1.0).unwrap().k);
    });

    let block = RowsBlock::new(vec![normal_values(100.0, 20.0, 1_000_000, 4)]);
    let mut rng = StdRng::seed_from_u64(5);
    time(
        &mut report,
        "block_sampling/memblock_sample_one",
        10_000,
        Some(1),
        || {
            black_box(block.sample_one(&mut rng).unwrap());
        },
    );

    let mut p = 0.001;
    time(&mut report, "normal_quantile", 10_000, None, || {
        p += 1e-6;
        if p >= 0.999 {
            p = 0.001;
        }
        black_box(normal_quantile(black_box(p)));
    });

    report.finish();
}
