//! M1 — criterion micro-benches for ISLA's hot paths: the sampling-phase
//! fold (Algorithm 1), the iteration phase (Algorithm 2), Theorem-3
//! coefficient computation, block sampling, and the normal quantile.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use isla_core::accumulate::SampleAccumulator;
use isla_core::{iteration_phase, DataBoundaries, IslaConfig, LinearEstimator};
use isla_datagen::normal_values;
use isla_stats::normal_quantile;
use isla_storage::{BlockReads, MemBlock};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn boundaries() -> DataBoundaries {
    DataBoundaries::new(100.0, 20.0, 0.5, 2.0)
}

fn bench_sampling_phase(c: &mut Criterion) {
    let values = normal_values(100.0, 20.0, 100_000, 1);
    let mut group = c.benchmark_group("algorithm1_fold");
    group.throughput(Throughput::Elements(values.len() as u64));
    group.bench_function("offer_100k", |b| {
        b.iter(|| {
            let mut acc = SampleAccumulator::new(boundaries());
            for &v in &values {
                acc.offer(black_box(v));
            }
            black_box(acc.u() + acc.v())
        })
    });
    group.finish();
}

fn bench_iteration_phase(c: &mut Criterion) {
    let values = normal_values(100.0, 20.0, 50_000, 2);
    let mut acc = SampleAccumulator::new(boundaries());
    for &v in &values {
        acc.offer(v);
    }
    let config = IslaConfig::builder().precision(0.1).build().unwrap();
    c.bench_function("algorithm2_iteration", |b| {
        b.iter(|| black_box(iteration_phase(black_box(&acc), 100.05, &config).answer))
    });
}

fn bench_theorem3(c: &mut Criterion) {
    let values = normal_values(100.0, 20.0, 50_000, 3);
    let mut acc = SampleAccumulator::new(boundaries());
    for &v in &values {
        acc.offer(v);
    }
    c.bench_function("theorem3_coefficients", |b| {
        b.iter(|| {
            black_box(
                LinearEstimator::from_moments(
                    black_box(acc.param_s()),
                    black_box(acc.param_l()),
                    1.0,
                )
                .unwrap()
                .k,
            )
        })
    });
}

fn bench_block_sampling(c: &mut Criterion) {
    let block = MemBlock::new(normal_values(100.0, 20.0, 1_000_000, 4));
    let mut group = c.benchmark_group("block_sampling");
    group.throughput(Throughput::Elements(1));
    group.bench_function("memblock_sample_one", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| black_box(block.sample_one(&mut rng).unwrap()))
    });
    group.finish();
}

fn bench_normal_quantile(c: &mut Criterion) {
    c.bench_function("normal_quantile", |b| {
        let mut p = 0.001;
        b.iter(|| {
            p += 1e-6;
            if p >= 0.999 {
                p = 0.001;
            }
            black_box(normal_quantile(black_box(p)))
        })
    });
}

criterion_group!(
    benches,
    bench_sampling_phase,
    bench_iteration_phase,
    bench_theorem3,
    bench_block_sampling,
    bench_normal_quantile
);
criterion_main!(benches);
