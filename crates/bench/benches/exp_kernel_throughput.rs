//! M4 — kernel throughput: scalar vs batched sampling & scan kernels.
//!
//! Not a paper experiment: this bench tracks the storage kernel layer.
//! Every hot path is measured twice over the *same data* — once through
//! the batched kernels (`sample_batch` batch gather, `scan_chunks`
//! contiguous slices, selection-vector filtered draws) and once through
//! the scalar path they replaced (forced via `ScalarFallbackBlock`, which
//! reads one row per call, / rejection-sampling views) — so each row
//! reports an honest same-run
//! speedup. Twelve sweeps:
//!
//! 1. **sample_kernel** — uniform value draws across block sizes;
//! 2. **scan_kernel** — full scans across block sizes;
//! 3. **filtered_sampling** — filtered draws across selectivities: the
//!    pooled view on its compiled selection vs on its rejection
//!    fallback (the same blocks, made unscannable);
//! 4. **estimators** — end-to-end wall time for ISLA and all baselines
//!    on batched vs scalar kernels, asserting the answers are
//!    bit-identical (the kernels may never change an estimate). SLEV is
//!    the exception by design: its `scalar_ms` is the dense two-scan
//!    algorithm and its `batched_ms` the sketch-backed mixture sampler —
//!    different sampling schemes, so the answers are asserted within a
//!    tolerance instead of bit-for-bit;
//! 5. **sketched_slev** — SLEV with moment sketches: the dense
//!    full-scan algorithm vs the mixture sampler on hook-provided vs
//!    scan-computed sketches (the latter two must agree bit for bit);
//! 6. **zone_map** — selection-vector compilation with and without
//!    min/max zone-map pruning on range-partitioned data, reporting how
//!    many blocks the sketches proved matchless;
//! 7. **row_projection** — row draws from a 4-column block, all four
//!    columns gathered vs the two a query reads
//!    (`RowSampleBuf::project`);
//! 8. **slice_fold** — Algorithm 1's fold over pre-drawn values, one
//!    `offer` per value vs one `offer_slice` per batch;
//! 9. **sampled_path** — the whole per-sample path (draw + fold) of the
//!    scalar and the row engine, before (full-width gather, per-value
//!    fold, rebuilt from the frozen public pieces) vs after
//!    (`execute_block` / `execute_row_block`), with the ROADMAP's
//!    "≥ 2× sampled draws" gate evaluated per path and recorded as
//!    measured — a path that misses it says so;
//! 10. **exact_scan** — the exact fold's three scans (chunk scan, row
//!     scan projected to the columns a filtered AVG reads, extreme scan)
//!     placed sequentially vs on `PooledScheduler(2)`: ns/row each way,
//!     answers asserted bit-identical, the machine's parallelism —
//!     counted and measured — recorded beside the speed-up it bounds;
//! 11. **predicate_scan** — a `WHERE` clause evaluated over column
//!     chunks (`scan_column_chunks` + `RowFilter::select`) vs one
//!     assembled row at a time (the old loops, rebuilt here from
//!     `scan_rows`): selection build and exact filtered scan in ns/row at
//!     selectivity 0.01 / 0.1 / 0.5 / 0.99, one and two conjuncts, on
//!     `RowsBlock`, `ZipBlock` and the scalar-fallback (copied chunks)
//!     path; vectors and answers asserted identical;
//! 12. **zoned_rows** — a filtered row plan over a 16-block table
//!     range-partitioned on the filter column, the cut between two
//!     blocks (half provably matchless, half provably all-match), run on
//!     the native set and on the same blocks with the sketch hidden
//!     (every block undecided, same kernels): rows read / rows offered
//!     and ns per offered draw, median and quartiles over alternating
//!     repeats, answers asserted bit-identical, commit id recorded. On
//!     the same table, under the zoned `ts` cut and an undecided
//!     `margin` filter, the three filtered paths that stopped reading
//!     whole rows, each against its old loop rebuilt here: the hit-rate
//!     pilot (`count_pilot`, ns per draw), the exact filtered extreme
//!     (`exact_extreme`: the pooled column's selection compiled for a
//!     literal seen once and scanned as one block vs the zoned
//!     block fold; ns per table row) and the pooled filtered draw
//!     (`pooled_draw`: the whole row read per draw vs one value; ns per
//!     draw) — answers and RNG positions asserted identical.
//!
//! Results print as a table (CSV under `target/experiments/`) and are
//! written machine-readable to `BENCH_kernels.json` at the workspace
//! root. `--smoke` runs a seconds-scale configuration and validates the
//! emitted JSON schema and the committed artifact's (the CI hook),
//! skipping the speedup assertions that only make sense at full scale.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use isla_baselines::{
    Estimator, MeasureBiasedBoundaries, MeasureBiasedValues, Slev, StratifiedSampling,
    UniformSampling,
};
use isla_bench::json::{get, parse, Json};
use isla_bench::{bench_json_path, fmt, Report};
use isla_core::engine::{
    self, BlockScheduler, PooledScheduler, RateSpec, RowPlan, RowSpec, SequentialScheduler,
};
use isla_core::{execute_block, DataBoundaries, ExtremeKind, IslaConfig, SampleAccumulator};
use isla_datagen::normal_values;
use isla_storage::{
    pool_filtered_column, sample_from_block, sample_rows_from_block, sample_rows_proportional,
    scalar_fallback_set, with_row_sample_buf, BlockReads, BlockSet, CmpOp, ColumnPredicate,
    DataBlock, ExactSum, MemBlock, PooledFilteredColumn, RowFilter, RowsBlock, SampleBuf,
    ScalarFallbackBlock, SelectionVector, SetSelection, StorageError, ZipBlock, ZoneMatch,
    SAMPLE_BATCH_ROWS,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const SEED: u64 = 4_000;

/// One sweep's scale knobs (full vs `--smoke`).
struct Scale {
    mode: &'static str,
    block_rows: Vec<usize>,
    sample_draws: u64,
    filter_rows: usize,
    filter_draws: u64,
    estimator_rows: usize,
    estimator_budget: u64,
    /// Max |dense − sketched| SLEV estimate disagreement: the two are
    /// different unbiased samplers, so they agree statistically, not bit
    /// for bit. Sized ≫ the standard error at the sweep's budget.
    slev_tolerance: f64,
    runs: usize,
}

impl Scale {
    fn full() -> Self {
        Self {
            mode: "full",
            block_rows: vec![65_536, 1_048_576],
            sample_draws: 2_000_000,
            filter_rows: 1_048_576,
            filter_draws: 200_000,
            estimator_rows: 1_000_000,
            estimator_budget: 200_000,
            slev_tolerance: 0.5,
            runs: 5,
        }
    }

    fn smoke() -> Self {
        Self {
            mode: "smoke",
            block_rows: vec![8_192],
            sample_draws: 20_000,
            filter_rows: 16_384,
            filter_draws: 4_000,
            estimator_rows: 20_000,
            estimator_budget: 4_000,
            slev_tolerance: 3.0,
            runs: 2,
        }
    }
}

/// Median wall seconds of `runs` executions of `f` (which returns a
/// checksum kept alive so the work cannot be optimized away).
fn median_secs(runs: usize, mut f: impl FnMut() -> f64) -> (f64, f64) {
    let mut times = Vec::with_capacity(runs);
    let mut checksum = 0.0;
    for _ in 0..runs {
        let start = Instant::now();
        checksum = f();
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (times[times.len() / 2], checksum)
}

/// Sweep 1: uniform value draws, batched draw-order gather vs scalar loop.
fn sweep_sample_kernel(scale: &Scale, report: &mut Report) -> Vec<Json> {
    let mut rows = Vec::new();
    for &block_rows in &scale.block_rows {
        let native: Arc<dyn DataBlock> =
            Arc::new(MemBlock::new(normal_values(100.0, 20.0, block_rows, SEED)));
        let scalar_block = ScalarFallbackBlock(Arc::clone(&native));
        let draws = scale.sample_draws;
        let time_draws = |block: &dyn DataBlock| {
            median_secs(scale.runs, || {
                let mut rng = StdRng::seed_from_u64(SEED + 1);
                let mut sum = 0.0;
                sample_from_block(block, draws, &mut rng, &mut |v| sum += v)
                    .expect("sampling succeeds");
                sum
            })
        };
        let (scalar_s, scalar_sum) = time_draws(&scalar_block);
        let (batched_s, batched_sum) = time_draws(native.as_ref());
        assert_eq!(
            scalar_sum.to_bits(),
            batched_sum.to_bits(),
            "batched draws must be bit-identical to scalar draws"
        );
        let scalar_rate = draws as f64 / scalar_s;
        let batched_rate = draws as f64 / batched_s;
        report.row(vec![
            "sample".to_string(),
            block_rows.to_string(),
            "-".to_string(),
            fmt(scalar_rate / 1e6, 2),
            fmt(batched_rate / 1e6, 2),
            fmt(batched_rate / scalar_rate, 2),
        ]);
        rows.push(Json::obj(vec![
            ("block_rows", Json::num(block_rows as f64)),
            ("draws", Json::num(draws as f64)),
            ("scalar_samples_per_s", Json::num(scalar_rate)),
            ("batched_samples_per_s", Json::num(batched_rate)),
            ("speedup", Json::num(batched_rate / scalar_rate)),
        ]));
    }
    rows
}

/// Sweep 2: full scans, chunked slices vs per-value dispatch.
fn sweep_scan_kernel(scale: &Scale, report: &mut Report) -> Vec<Json> {
    let mut rows = Vec::new();
    for &block_rows in &scale.block_rows {
        let native: Arc<dyn DataBlock> = Arc::new(MemBlock::new(normal_values(
            50.0,
            10.0,
            block_rows,
            SEED ^ 1,
        )));
        let (scalar_s, scalar_sum) = median_secs(scale.runs, || {
            let mut sum = 0.0;
            native.scan(&mut |v| sum += v).expect("scan succeeds");
            sum
        });
        let (chunked_s, chunked_sum) = median_secs(scale.runs, || {
            let mut sum = 0.0;
            native
                .scan_chunks(&mut |chunk| {
                    for &v in chunk {
                        sum += v;
                    }
                })
                .expect("scan succeeds");
            sum
        });
        assert_eq!(
            scalar_sum.to_bits(),
            chunked_sum.to_bits(),
            "chunked scans must fold the identical value order"
        );
        let scalar_rate = block_rows as f64 / scalar_s;
        let chunked_rate = block_rows as f64 / chunked_s;
        report.row(vec![
            "scan".to_string(),
            block_rows.to_string(),
            "-".to_string(),
            fmt(scalar_rate / 1e6, 2),
            fmt(chunked_rate / 1e6, 2),
            fmt(chunked_rate / scalar_rate, 2),
        ]);
        rows.push(Json::obj(vec![
            ("block_rows", Json::num(block_rows as f64)),
            ("scalar_rows_per_s", Json::num(scalar_rate)),
            ("batched_rows_per_s", Json::num(chunked_rate)),
            ("speedup", Json::num(chunked_rate / scalar_rate)),
        ]));
    }
    rows
}

/// Sweep 3: filtered draws — compiled selection vectors vs rejection
/// sampling — across selectivities. Returns the JSON rows plus the
/// speedup measured at the lowest selectivity (the acceptance metric).
fn sweep_filtered(scale: &Scale, report: &mut Report) -> (Vec<Json>, f64) {
    let n = scale.filter_rows;
    let value = normal_values(100.0, 20.0, n, SEED ^ 2);
    // Auxiliary predicate column: uniform in [0, 1), so `aux < s`
    // selects an s-fraction of the rows.
    let aux: Vec<f64> = {
        let mut rng = StdRng::seed_from_u64(SEED ^ 3);
        use rand::Rng;
        (0..n).map(|_| rng.random_range(0.0..1.0)).collect()
    };
    let set = RowsBlock::split(vec![value, aux], 8);
    let mut rows = Vec::new();
    let mut low_sel_speedup = 0.0;
    for &selectivity in &[0.5, 0.1, 0.01] {
        let filter = RowFilter::new(vec![ColumnPredicate {
            column: 1,
            op: CmpOp::Lt,
            value: selectivity,
        }]);

        // Rejection baseline: the same pooled view over the same blocks
        // made unscannable, so no selection compiles and every draw is
        // the view's own whole-set rejection loop.
        let unscannable = BlockSet::new(
            set.iter()
                .map(|b| Arc::new(UnscannableBlock(Arc::clone(b))) as Arc<dyn DataBlock>)
                .collect(),
        );
        let rejection = pool_filtered_column(&unscannable, 0, filter.clone());

        // Compiled path: the helper builds (and caches) the selection.
        let build_start = Instant::now();
        let compiled = pool_filtered_column(&set, 0, filter.clone());
        let build_s = build_start.elapsed().as_secs_f64();

        let draws = scale.filter_draws;
        let (scalar_s, _) = median_secs(scale.runs, || {
            let mut rng = StdRng::seed_from_u64(SEED + 9);
            let mut sum = 0.0;
            sample_from_block(rejection.block(0).as_ref(), draws, &mut rng, &mut |v| {
                sum += v
            })
            .expect("rejection sampling succeeds");
            sum
        });
        let (compiled_s, _) = median_secs(scale.runs, || {
            let mut rng = StdRng::seed_from_u64(SEED + 9);
            let mut sum = 0.0;
            sample_from_block(compiled.block(0).as_ref(), draws, &mut rng, &mut |v| {
                sum += v
            })
            .expect("selection sampling succeeds");
            sum
        });
        let scalar_rate = draws as f64 / scalar_s;
        let compiled_rate = draws as f64 / compiled_s;
        let speedup = compiled_rate / scalar_rate;
        low_sel_speedup = speedup; // last iteration = lowest selectivity
        report.row(vec![
            "filtered".to_string(),
            n.to_string(),
            fmt(selectivity, 2),
            fmt(scalar_rate / 1e6, 2),
            fmt(compiled_rate / 1e6, 2),
            fmt(speedup, 2),
        ]);
        rows.push(Json::obj(vec![
            ("commit", Json::str(commit_id())),
            (
                "note",
                Json::str(
                    "scalar_* is the pooled view's whole-set rejection fallback over \
                     unscannable blocks (global index draw + block lookup + row read); rows \
                     recorded before this note measured per-block rejection views, a type \
                     since deleted — not comparable",
                ),
            ),
            ("rows", Json::num(n as f64)),
            ("selectivity", Json::num(selectivity)),
            ("draws", Json::num(draws as f64)),
            ("selection_build_s", Json::num(build_s)),
            ("scalar_samples_per_s", Json::num(scalar_rate)),
            ("batched_samples_per_s", Json::num(compiled_rate)),
            ("speedup", Json::num(speedup)),
        ]));
    }
    (rows, low_sel_speedup)
}

/// Sweep 4: end-to-end estimators on batched vs scalar kernels —
/// answers must agree bit for bit; only the wall time may move. SLEV is
/// special-cased (dense algorithm vs sketch-backed sampler, tolerance
/// check); returns the JSON rows plus its measured speedup.
fn sweep_estimators(scale: &Scale, report: &mut Report) -> (Vec<Json>, f64) {
    let native = BlockSet::from_values(
        normal_values(100.0, 20.0, scale.estimator_rows, SEED ^ 4),
        16,
    );
    let fallback = scalar_fallback_set(&native);
    let mut rows = Vec::new();

    // ISLA runs the whole pipeline; its budget is set by the precision.
    let cfg = IslaConfig::builder().precision(0.1).build().unwrap();
    let isla_run = |data: &BlockSet| {
        median_secs(scale.runs, || {
            let mut rng = StdRng::seed_from_u64(SEED + 20);
            engine::run(
                data,
                &cfg,
                RateSpec::Derived,
                &SequentialScheduler,
                &mut rng,
            )
            .expect("engine run succeeds")
            .estimate
        })
    };
    let (scalar_s, scalar_est) = isla_run(&fallback);
    let (batched_s, batched_est) = isla_run(&native);
    assert_eq!(
        scalar_est.to_bits(),
        batched_est.to_bits(),
        "ISLA answer moved"
    );
    report.row(vec![
        "estimator/ISLA".to_string(),
        scale.estimator_rows.to_string(),
        "-".to_string(),
        fmt(scalar_s * 1e3, 2),
        fmt(batched_s * 1e3, 2),
        fmt(scalar_s / batched_s, 2),
    ]);
    rows.push(Json::obj(vec![
        ("name", Json::str("ISLA")),
        ("scalar_ms", Json::num(scalar_s * 1e3)),
        ("batched_ms", Json::num(batched_s * 1e3)),
        ("speedup", Json::num(scalar_s / batched_s)),
        ("estimates_match", Json::Bool(true)),
    ]));

    let estimators: Vec<Box<dyn Estimator>> = vec![
        Box::new(UniformSampling),
        Box::new(StratifiedSampling::proportional()),
        Box::new(MeasureBiasedValues),
        Box::new(MeasureBiasedBoundaries::default()),
    ];
    for est in &estimators {
        let run = |data: &BlockSet| {
            median_secs(scale.runs, || {
                let mut rng = StdRng::seed_from_u64(SEED + 21);
                est.estimate(data, scale.estimator_budget, &mut rng)
                    .expect("baseline estimate succeeds")
            })
        };
        let (scalar_s, scalar_est) = run(&fallback);
        let (batched_s, batched_est) = run(&native);
        assert_eq!(
            scalar_est.to_bits(),
            batched_est.to_bits(),
            "{} answer moved between kernel paths",
            est.name()
        );
        report.row(vec![
            format!("estimator/{}", est.name()),
            scale.estimator_rows.to_string(),
            "-".to_string(),
            fmt(scalar_s * 1e3, 2),
            fmt(batched_s * 1e3, 2),
            fmt(scalar_s / batched_s, 2),
        ]);
        rows.push(Json::obj(vec![
            ("name", Json::str(est.name())),
            ("scalar_ms", Json::num(scalar_s * 1e3)),
            ("batched_ms", Json::num(batched_s * 1e3)),
            ("speedup", Json::num(scalar_s / batched_s)),
            ("estimates_match", Json::Bool(true)),
        ]));
    }

    // SLEV: `scalar_ms` is the dense two-scan algorithm on scalar
    // kernels (the pre-sketch reality this row historically recorded);
    // `batched_ms` is the sketch-backed mixture sampler. The algorithms
    // draw different samples, so the answers agree within a statistical
    // tolerance rather than bit for bit.
    let slev = Slev::default();
    let (dense_s, dense_est) = median_secs(scale.runs, || {
        let mut rng = StdRng::seed_from_u64(SEED + 22);
        slev.estimate_dense(
            &fallback,
            scale.estimator_budget,
            &SequentialScheduler,
            &mut rng,
        )
        .expect("dense SLEV succeeds")
    });
    let (sketched_s, sketched_est) = median_secs(scale.runs, || {
        let mut rng = StdRng::seed_from_u64(SEED + 22);
        slev.estimate(&native, scale.estimator_budget, &mut rng)
            .expect("sketched SLEV succeeds")
    });
    let delta = (dense_est - sketched_est).abs();
    assert!(
        delta <= scale.slev_tolerance,
        "dense ({dense_est}) and sketched ({sketched_est}) SLEV disagree beyond tolerance"
    );
    let slev_speedup = dense_s / sketched_s;
    report.row(vec![
        "estimator/SLEV".to_string(),
        scale.estimator_rows.to_string(),
        "-".to_string(),
        fmt(dense_s * 1e3, 2),
        fmt(sketched_s * 1e3, 2),
        fmt(slev_speedup, 2),
    ]);
    rows.push(Json::obj(vec![
        ("name", Json::str("SLEV")),
        ("scalar_ms", Json::num(dense_s * 1e3)),
        ("batched_ms", Json::num(sketched_s * 1e3)),
        ("speedup", Json::num(slev_speedup)),
        ("estimates_match", Json::Bool(true)),
        ("estimate_delta", Json::num(delta)),
    ]));
    (rows, slev_speedup)
}

/// Sweep 5: SLEV with moment sketches — the dense full-scan algorithm
/// vs the mixture sampler, the latter on both sketch provenances
/// (constructor hooks and lazy scan computation). The two sketched runs
/// must agree bit for bit: the one-fold law makes hook and scanned
/// sketches identical, and the sampler is deterministic given the
/// sketches and the seed.
fn sweep_sketched_slev(scale: &Scale, report: &mut Report) -> Vec<Json> {
    let native = BlockSet::from_values(
        normal_values(100.0, 20.0, scale.estimator_rows, SEED ^ 4),
        16,
    );
    let slev = Slev::default();
    let budget = scale.estimator_budget;
    let (dense_s, _) = median_secs(scale.runs, || {
        let mut rng = StdRng::seed_from_u64(SEED + 23);
        slev.estimate_dense(&native, budget, &SequentialScheduler, &mut rng)
            .expect("dense SLEV succeeds")
    });
    let (hook_s, hook_est) = median_secs(scale.runs, || {
        let mut rng = StdRng::seed_from_u64(SEED + 23);
        slev.estimate(&native, budget, &mut rng)
            .expect("sketched SLEV succeeds")
    });
    let (scanned_s, scanned_est) = median_secs(scale.runs, || {
        // A fresh fallback set every run: empty sketch cache, no hooks,
        // so the estimator scan-computes every sketch within the timed
        // region.
        let fresh = scalar_fallback_set(&native);
        let mut rng = StdRng::seed_from_u64(SEED + 23);
        slev.estimate(&fresh, budget, &mut rng)
            .expect("scan-sketched SLEV succeeds")
    });
    assert_eq!(
        hook_est.to_bits(),
        scanned_est.to_bits(),
        "hook-provided and scan-computed sketches must yield the identical estimate"
    );
    let mut rows = Vec::new();
    for (path, secs) in [
        ("dense_full_scan", dense_s),
        ("sketched_metadata", hook_s),
        ("scan_computed_sketches", scanned_s),
    ] {
        report.row(vec![
            format!("slev/{path}"),
            scale.estimator_rows.to_string(),
            "-".to_string(),
            fmt(dense_s * 1e3, 2),
            fmt(secs * 1e3, 2),
            fmt(dense_s / secs, 2),
        ]);
        rows.push(Json::obj(vec![
            ("path", Json::str(path)),
            ("ms", Json::num(secs * 1e3)),
            ("speedup", Json::num(dense_s / secs)),
        ]));
    }
    rows
}

/// Sweep 6: zone-map pruning — selection-vector compilation over
/// range-partitioned data with and without sketches. The compiled
/// selections must be identical; only the scan work may differ.
fn sweep_zone_map(scale: &Scale, report: &mut Report) -> (Vec<Json>, usize) {
    let n = scale.filter_rows;
    // Sorted values: each of the 16 blocks covers a contiguous range,
    // so a high-range predicate is provably matchless on all but the
    // last block.
    let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let set = RowsBlock::split(vec![values], 16);
    let blocks: Vec<Arc<dyn DataBlock>> = set.iter().map(Arc::clone).collect();
    let cutoff = n as f64 * 0.95 - 0.5;
    let filter = RowFilter::new(vec![ColumnPredicate {
        column: 0,
        op: CmpOp::Gt,
        value: cutoff,
    }]);
    let sketches = set.ready_sketches();

    let (scan_s, scan_matches) = median_secs(scale.runs, || {
        let sel = SetSelection::build(&blocks, &filter, None).expect("selection builds");
        sel.total_matches() as f64
    });
    let (pruned_s, pruned_matches) = median_secs(scale.runs, || {
        let sel = SetSelection::build(&blocks, &filter, Some(&sketches)).expect("selection builds");
        sel.total_matches() as f64
    });
    assert_eq!(
        scan_matches.to_bits(),
        pruned_matches.to_bits(),
        "pruning may never change which rows match"
    );
    let pruned_blocks = SetSelection::build(&blocks, &filter, Some(&sketches))
        .expect("selection builds")
        .pruned_blocks();

    let speedup = scan_s / pruned_s;
    report.row(vec![
        "zone_map".to_string(),
        n.to_string(),
        fmt(0.05, 2),
        fmt(scan_s * 1e3, 2),
        fmt(pruned_s * 1e3, 2),
        fmt(speedup, 2),
    ]);
    let rows = vec![Json::obj(vec![
        ("rows", Json::num(n as f64)),
        ("blocks", Json::num(blocks.len() as f64)),
        ("selectivity", Json::num(0.05)),
        ("scan_build_ms", Json::num(scan_s * 1e3)),
        ("pruned_build_ms", Json::num(pruned_s * 1e3)),
        ("pruned_blocks", Json::num(pruned_blocks as f64)),
        ("matches", Json::num(scan_matches)),
        ("speedup", Json::num(speedup)),
    ])];
    (rows, pruned_blocks)
}

/// Four columns shaped like the benchmark's `sales` table: the
/// aggregated value, a timestamp to filter on, and two columns the
/// sweeps' queries never read.
fn sales_like_columns(rows: usize) -> Vec<Vec<f64>> {
    let amount = normal_values(100.0, 20.0, rows, SEED ^ 7);
    let ts: Vec<f64> = (0..rows).map(|i| i as f64).collect();
    let store: Vec<f64> = (0..rows).map(|i| (i % 8) as f64).collect();
    let margin = normal_values(20.0, 5.0, rows, SEED ^ 8);
    vec![amount, store, ts, margin]
}

fn sales_like_block(rows: usize) -> RowsBlock {
    RowsBlock::new(sales_like_columns(rows))
}

/// Sweep 7: row draws, all four columns vs the two a query reads.
fn sweep_row_projection(scale: &Scale, report: &mut Report) -> Vec<Json> {
    let mut rows = Vec::new();
    for &block_rows in &scale.block_rows {
        let block = sales_like_block(block_rows);
        let draws = scale.sample_draws;
        // The same draw loop both ways; `read` names the two columns
        // the checksum touches in the delivered tuple.
        let time_draws = |projection: Option<&[usize]>, read: [usize; 2]| {
            median_secs(scale.runs, || {
                let mut rng = StdRng::seed_from_u64(SEED + 30);
                let mut sum = 0.0;
                with_row_sample_buf(|buf| {
                    buf.project(projection);
                    let mut left = draws;
                    while left > 0 {
                        let take = left.min(SAMPLE_BATCH_ROWS);
                        block
                            .sample_rows_batch(take, &mut rng, buf)
                            .expect("row sampling succeeds");
                        for row in buf.iter_rows() {
                            sum += row[read[0]] + row[read[1]];
                        }
                        left -= take;
                    }
                });
                sum
            })
        };
        let (full_s, full_sum) = time_draws(None, [0, 2]);
        let (projected_s, projected_sum) = time_draws(Some(&[0, 2]), [0, 1]);
        assert_eq!(
            full_sum.to_bits(),
            projected_sum.to_bits(),
            "projected draws must deliver the full-width values"
        );
        let full_rate = draws as f64 / full_s;
        let projected_rate = draws as f64 / projected_s;
        report.row(vec![
            "row draw 2-of-4".to_string(),
            block_rows.to_string(),
            "-".to_string(),
            fmt(full_rate / 1e6, 2),
            fmt(projected_rate / 1e6, 2),
            fmt(projected_rate / full_rate, 2),
        ]);
        rows.push(Json::obj(vec![
            ("block_rows", Json::num(block_rows as f64)),
            ("draws", Json::num(draws as f64)),
            ("full_width_rows_per_s", Json::num(full_rate)),
            ("projected_rows_per_s", Json::num(projected_rate)),
            ("speedup", Json::num(projected_rate / full_rate)),
        ]));
    }
    rows
}

/// Sweep 8: Algorithm 1's fold over the same pre-drawn values, one
/// `offer` per value vs one `offer_slice` per kernel batch.
fn sweep_slice_fold(scale: &Scale, report: &mut Report) -> Vec<Json> {
    let n = scale.sample_draws as usize;
    let values = normal_values(100.0, 20.0, n, SEED ^ 9);
    let boundaries = DataBoundaries::new(100.0, 20.0, 0.5, 2.0);
    let (per_value_s, per_value) = median_secs(scale.runs, || {
        let mut acc = SampleAccumulator::new(boundaries);
        for &v in &values {
            acc.offer(v + 0.0);
        }
        std::hint::black_box(acc).param_s().sum()
    });
    let (slice_s, slice) = median_secs(scale.runs, || {
        let mut acc = SampleAccumulator::new(boundaries);
        for batch in values.chunks(SAMPLE_BATCH_ROWS as usize) {
            acc.offer_slice(batch, 0.0);
        }
        std::hint::black_box(acc).param_s().sum()
    });
    assert_eq!(
        per_value.to_bits(),
        slice.to_bits(),
        "the slice fold must leave the per-value fold's state"
    );
    let per_value_rate = n as f64 / per_value_s;
    let slice_rate = n as f64 / slice_s;
    report.row(vec![
        "fold slice vs value".to_string(),
        n.to_string(),
        "-".to_string(),
        fmt(per_value_rate / 1e6, 2),
        fmt(slice_rate / 1e6, 2),
        fmt(slice_rate / per_value_rate, 2),
    ]);
    vec![Json::obj(vec![
        ("values", Json::num(n as f64)),
        ("per_value_samples_per_s", Json::num(per_value_rate)),
        ("slice_samples_per_s", Json::num(slice_rate)),
        ("speedup", Json::num(slice_rate / per_value_rate)),
    ])]
}

/// Sweep 9: the whole per-sample path, before vs after, on the largest
/// block of the scale (gathers miss cache there, as on the benchmark's
/// heavy tables). "Before" is rebuilt from the frozen public pieces:
/// full-width draws and one `offer` per value.
fn sweep_sampled_path(scale: &Scale, report: &mut Report) -> Vec<Json> {
    let block_rows = *scale.block_rows.last().expect("scales list a block size");
    let passes = (scale.sample_draws as usize / block_rows).max(1);
    let samples = (passes * block_rows) as f64;
    let cfg = IslaConfig::builder().precision(0.1).build().unwrap();
    let boundaries = DataBoundaries::new(100.0, 20.0, 0.5, 2.0);
    let mut rows = Vec::new();
    let mut push = |report: &mut Report, path: &str, before_s: f64, after_s: f64| {
        let (before, after) = (samples / before_s, samples / after_s);
        let speedup = after / before;
        report.row(vec![
            format!("path/{path}"),
            block_rows.to_string(),
            "-".to_string(),
            fmt(before / 1e6, 2),
            fmt(after / 1e6, 2),
            fmt(speedup, 2),
        ]);
        rows.push(Json::obj(vec![
            ("path", Json::str(path)),
            ("block_rows", Json::num(block_rows as f64)),
            ("samples", Json::num(samples)),
            ("before_samples_per_s", Json::num(before)),
            ("after_samples_per_s", Json::num(after)),
            ("speedup", Json::num(speedup)),
            ("gate_2x_met", Json::Bool(speedup >= 2.0)),
        ]));
    };

    // Scalar path: one column, every draw folded.
    let scalar = MemBlock::new(normal_values(100.0, 20.0, block_rows, SEED ^ 10));
    let m = block_rows as u64;
    let (before_s, before_u) = median_secs(scale.runs, || {
        let mut u = 0;
        for pass in 0..passes {
            let mut rng = StdRng::seed_from_u64(SEED + 40 + pass as u64);
            let mut acc = SampleAccumulator::new(boundaries);
            sample_from_block(&scalar, m, &mut rng, &mut |v| {
                acc.offer(v + 0.0);
            })
            .expect("sampling succeeds");
            u += acc.u();
        }
        u as f64
    });
    let (after_s, after_u) = median_secs(scale.runs, || {
        let mut u = 0;
        for pass in 0..passes {
            let mut rng = StdRng::seed_from_u64(SEED + 40 + pass as u64);
            u += execute_block(&scalar, 0, m, boundaries, 100.0, 0.0, &cfg, &mut rng)
                .expect("block executes")
                .u;
        }
        u as f64
    });
    assert_eq!(before_u.to_bits(), after_u.to_bits(), "scalar path moved");
    push(report, "scalar", before_s, after_s);

    // Row path: a filtered AVG reading 2 of 4 columns, rate 1.
    let sales = BlockSet::single(sales_like_block(block_rows));
    let spec = RowSpec {
        agg_column: 0,
        filter: RowFilter::new(vec![ColumnPredicate {
            column: 2,
            op: CmpOp::Gt,
            value: block_rows as f64 * 0.5,
        }]),
        group_by: None,
    };
    let mut plan_rng = StdRng::seed_from_u64(SEED + 50);
    let plan = RowPlan::prepare(
        &sales,
        &cfg,
        spec.clone(),
        RateSpec::Absolute(1.0),
        &mut plan_rng,
    )
    .expect("row plan prepares");
    let group = &plan.groups()[0];
    let group_boundaries = group.boundaries.expect("the group has a spread");
    let block = sales.block(0);
    let (before_s, before_u) = median_secs(scale.runs, || {
        let mut u = 0;
        for pass in 0..passes {
            let mut rng = engine::seeded_rng(SEED + 60 + pass as u64);
            let mut acc = SampleAccumulator::new(group_boundaries);
            sample_rows_from_block(block.as_ref(), m, &mut rng, &mut |row| {
                if spec.filter.matches(row) {
                    acc.offer(row[spec.agg_column] + group.shift);
                }
            })
            .expect("row sampling succeeds");
            u += acc.u();
        }
        u as f64
    });
    let (after_s, after_u) = median_secs(scale.runs, || {
        let mut u = 0;
        for pass in 0..passes {
            u += engine::execute_row_block(&plan, block.as_ref(), 0, SEED + 60 + pass as u64)
                .expect("row block executes")
                .groups[0]
                .u;
        }
        u as f64
    });
    assert_eq!(before_u.to_bits(), after_u.to_bits(), "row path moved");
    push(report, "rows", before_s, after_s);
    rows
}

/// The cores `workers` threads actually get right now: a fixed spin
/// timed alone, then beside `workers − 1` copies of itself — 2.0 is two
/// free cores, 1.0 one core shared. `available_parallelism` counts
/// vCPUs; on a throttled VM they can add up to fewer.
fn measured_parallelism(workers: usize) -> f64 {
    let spin = || {
        let start = Instant::now();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        start.elapsed().as_secs_f64()
    };
    let alone = spin();
    let together = std::thread::scope(|scope| {
        let spinners: Vec<_> = (0..workers).map(|_| scope.spawn(spin)).collect();
        spinners
            .into_iter()
            .map(|s| s.join().expect("a spin cannot panic"))
            .fold(0.0, f64::max)
    });
    workers as f64 * alone / together
}

/// Sweep 10: the exact fold's three scans, every block on the calling
/// thread vs two blocks at a time on a pool. The fold merges per-block
/// partials in block order, so the two placements must agree bit for
/// bit; what the pool buys is bounded by the cores the machine gives two
/// threads (counted and measured, recorded with every row).
fn sweep_exact_scan(scale: &Scale, report: &mut Report) -> Vec<Json> {
    const BLOCKS: usize = 16;
    const WORKERS: usize = 2;
    let n = scale.estimator_rows * 4;
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let measured_cores = measured_parallelism(WORKERS);
    let pool = PooledScheduler::new(WORKERS).expect("two workers is a valid pool");
    let scalar = BlockSet::from_values(normal_values(100.0, 20.0, n, SEED ^ 11), BLOCKS);
    let sales = RowsBlock::split(sales_like_columns(n), BLOCKS);
    let spec = RowSpec {
        agg_column: 0,
        filter: RowFilter::new(vec![ColumnPredicate {
            column: 2,
            op: CmpOp::Gt,
            value: n as f64 * 0.5,
        }]),
        group_by: None,
    };
    let mut rows = Vec::new();
    let mut measure = |name: &str, scan: &dyn Fn(&dyn BlockScheduler) -> f64| {
        let (sequential_s, sequential) = median_secs(scale.runs, || scan(&SequentialScheduler));
        let (pooled_s, pooled) = median_secs(scale.runs, || scan(&pool));
        assert_eq!(
            sequential.to_bits(),
            pooled.to_bits(),
            "{name}: an exact answer may not depend on where its blocks ran"
        );
        let speedup = sequential_s / pooled_s;
        report.row(vec![
            format!("exact/{name} x{WORKERS}"),
            n.to_string(),
            "-".to_string(),
            fmt(n as f64 / sequential_s / 1e6, 2),
            fmt(n as f64 / pooled_s / 1e6, 2),
            fmt(speedup, 2),
        ]);
        rows.push(Json::obj(vec![
            ("scan", Json::str(name)),
            ("rows", Json::num(n as f64)),
            ("blocks", Json::num(BLOCKS as f64)),
            ("workers", Json::num(WORKERS as f64)),
            ("available_parallelism", Json::num(cores as f64)),
            ("measured_parallelism", Json::num(measured_cores)),
            (
                "sequential_ns_per_row",
                Json::num(sequential_s * 1e9 / n as f64),
            ),
            ("pooled_ns_per_row", Json::num(pooled_s * 1e9 / n as f64)),
            ("speedup", Json::num(speedup)),
        ]));
    };
    measure("chunk_scan", &|s| {
        engine::scan_exact_mean(&scalar, s).expect("scan succeeds")
    });
    measure("projected_row_scan", &|s| {
        engine::scan_exact_groups_on(&sales, &spec, s).expect("scan succeeds")[0].mean
    });
    measure("extreme_scan", &|s| {
        engine::scan_exact_extreme(&scalar, ExtremeKind::Max, s)
            .expect("scan succeeds")
            .expect("the set holds rows")
    });
    rows
}

/// A block that reads as its inner block does but refuses to scan, so no
/// selection compiles over it. Bench-only — what puts the pooled
/// filtered view on its rejection fallback in the `filtered_sampling`
/// sweep.
struct UnscannableBlock(Arc<dyn DataBlock>);

impl DataBlock for UnscannableBlock {
    fn len(&self) -> u64 {
        self.0.len()
    }
    fn width(&self) -> usize {
        self.0.width()
    }
    fn gather(
        &self,
        columns: &[usize],
        indices: &[u64],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        self.0.gather(columns, indices, out)
    }
    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        self.0.scan_column_chunks(columns, visit)
    }
    fn supports_scan(&self) -> bool {
        false
    }
}

/// A block with its sketch hidden and its reads kept: every zone
/// verdict is `Mixed`, every draw is an index draw plus the native
/// gather. Bench-only — the "no zone map" side of the `zoned_rows` sweep
/// (`ScalarFallbackBlock` would also read one row per call and measure
/// that instead).
struct SketchlessBlock(Arc<dyn DataBlock>);

impl DataBlock for SketchlessBlock {
    fn len(&self) -> u64 {
        self.0.len()
    }
    fn width(&self) -> usize {
        self.0.width()
    }
    fn gather(
        &self,
        columns: &[usize],
        indices: &[u64],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        self.0.gather(columns, indices, out)
    }
    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        self.0.scan_column_chunks(columns, visit)
    }
}

/// The commit the working tree sits on (`-dirty` when it has local
/// edits), for artifacts that say which code they measured.
fn commit_id() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |id| id.trim().to_string())
}

/// Sweep 12: what a zone map saves a filtered row plan. One plan, two
/// sets over the same blocks — native, and sketch-less (every block
/// undecided) — run alternately; the answers must not differ by a bit,
/// only the rows read and the time per draw the plan offered.
fn sweep_zoned_rows(scale: &Scale, report: &mut Report) -> Vec<Json> {
    const BLOCKS: usize = 16;
    let n = scale.estimator_rows * 4;
    let repeats = 2 * scale.runs + 1;
    let native = RowsBlock::split(sales_like_columns(n), BLOCKS);
    let sketchless = BlockSet::new(
        native
            .iter()
            .map(|b| Arc::new(SketchlessBlock(Arc::clone(b))) as Arc<dyn DataBlock>)
            .collect(),
    );
    // `ts` is column 2, ascending: the cut falls between blocks 7 and 8.
    let spec = RowSpec {
        agg_column: 0,
        filter: RowFilter::new(vec![ColumnPredicate {
            column: 2,
            op: CmpOp::Gt,
            value: n as f64 * 0.5 - 0.5,
        }]),
        group_by: None,
    };
    let zones = |want: ZoneMatch| {
        native
            .iter()
            .filter(|b| b.zone(&spec.filter) == want)
            .count()
    };
    let (matchless, all_match) = (zones(ZoneMatch::Matchless), zones(ZoneMatch::AllMatch));
    assert_eq!((matchless, all_match), (BLOCKS / 2, BLOCKS / 2));
    assert!(sketchless
        .iter()
        .all(|b| b.zone(&spec.filter) == ZoneMatch::Mixed));

    let cfg = IslaConfig::builder().precision(0.1).build().unwrap();
    let rate = (scale.sample_draws as f64 / n as f64).min(1.0);
    let plan = RowPlan::prepare(
        &native,
        &cfg,
        spec,
        RateSpec::Absolute(rate),
        &mut StdRng::seed_from_u64(SEED + 70),
    )
    .expect("row plan prepares");
    let offered = plan.planned_calculation_samples(&native);

    // Alternate the two sets, a fresh calculation seed per repeat (a
    // repeated seed would gather from lines the last pass left cached).
    let mut times = [Vec::new(), Vec::new()];
    let mut reads = [0u64; 2];
    for repeat in 0..repeats {
        let mut answers = [0u64; 2];
        for side in [repeat % 2, 1 - repeat % 2] {
            let data = [&sketchless, &native][side];
            let mut rng = StdRng::seed_from_u64(SEED + 80 + repeat as u64);
            let start = Instant::now();
            let out = engine::run_row_plan_with(
                &plan,
                data,
                &SequentialScheduler,
                &engine::RecoveryPolicy::strict(),
                &mut rng,
            )
            .expect("row plan runs");
            times[side].push(start.elapsed().as_secs_f64());
            answers[side] = out.estimate.to_bits() ^ out.matched_rows.to_bits().rotate_left(1);
            reads[side] = out.total_samples;
        }
        assert_eq!(answers[0], answers[1], "a zone verdict moved an answer");
    }
    assert_eq!(
        reads[0], offered,
        "undecided blocks read every offered draw"
    );
    // (q1, median, q3) of ns per offered draw.
    let quartiles = |times: &mut Vec<f64>| {
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let at = |q: usize| times[(times.len() - 1) * q / 4] * 1e9 / offered as f64;
        (at(1), at(2), at(3))
    };
    let [sketchless_times, native_times] = &mut times;
    let (sketchless_ns, native_ns) = (quartiles(sketchless_times), quartiles(native_times));
    let speedup = sketchless_ns.1 / native_ns.1;
    report.row(vec![
        "zoned rows ns/offered".to_string(),
        n.to_string(),
        fmt(0.5, 2),
        fmt(sketchless_ns.1, 2),
        fmt(native_ns.1, 2),
        fmt(speedup, 2),
    ]);
    let mut rows = vec![Json::obj(vec![
        ("commit", Json::str(commit_id())),
        ("rows", Json::num(n as f64)),
        ("blocks", Json::num(BLOCKS as f64)),
        ("matchless_blocks", Json::num(matchless as f64)),
        ("all_match_blocks", Json::num(all_match as f64)),
        ("repeats", Json::num(repeats as f64)),
        ("rows_offered", Json::num(offered as f64)),
        ("sketchless_rows_read", Json::num(reads[0] as f64)),
        ("native_rows_read", Json::num(reads[1] as f64)),
        ("sketchless_ns_per_offered_q1", Json::num(sketchless_ns.0)),
        (
            "sketchless_ns_per_offered_median",
            Json::num(sketchless_ns.1),
        ),
        ("sketchless_ns_per_offered_q3", Json::num(sketchless_ns.2)),
        ("native_ns_per_offered_q1", Json::num(native_ns.0)),
        ("native_ns_per_offered_median", Json::num(native_ns.1)),
        ("native_ns_per_offered_q3", Json::num(native_ns.2)),
        ("speedup", Json::num(speedup)),
    ])];
    rows.extend(sweep_filtered_paths(scale, report, &native, repeats));
    rows
}

/// The filtered paths the `zoned_rows` section times old vs new, and
/// what their ns are per.
const FILTERED_PATHS: [(&str, &str); 3] = [
    ("count_pilot", "draw"),
    ("exact_extreme", "table row"),
    ("pooled_draw", "draw"),
];

/// The hit-rate pilot as it was: whole rows from the proportional
/// sampler, the filter tested on each, one map entry bumped per hit.
/// Bench-only — the old side of the `count_pilot` rows.
fn whole_row_hit_rate(
    data: &BlockSet,
    spec: &RowSpec,
    n: u64,
    rng: &mut dyn RngCore,
) -> (u64, BTreeMap<u64, u64>) {
    let mut drawn = 0;
    let mut counts = BTreeMap::new();
    sample_rows_proportional(data, n, rng, &mut |row| {
        drawn += 1;
        if spec.filter.matches(row) {
            *counts.entry(spec.group_key(row)).or_insert(0) += 1;
        }
    })
    .expect("row sampling succeeds");
    (drawn, counts)
}

/// The pooled filtered draw as it was: indices over the compiled
/// selection drawn a batch at a time, each match read as a whole row to
/// keep one column. Bench-only — the old side of the `pooled_draw` rows.
fn whole_row_pooled_draws(
    data: &BlockSet,
    col: usize,
    filter: &RowFilter,
    n: u64,
    rng: &mut dyn RngCore,
) -> f64 {
    let sel = data.selection_for(filter).expect("the selection compiles");
    let mut row = Vec::new();
    let mut sum = 0.0;
    let mut picks = Vec::new();
    let mut left = n;
    while left > 0 {
        let take = left.min(SAMPLE_BATCH_ROWS);
        picks.clear();
        picks.extend((0..take).map(|_| rng.random_range(0..sel.total_matches())));
        for &k in &picks {
            let (b, local) = sel.locate(k);
            data.block(b).row_tuple(local, &mut row).expect("rows read");
            sum += row[col];
        }
        left -= take;
    }
    sum
}

/// Runs `old` and `new` alternately (`repeats` each, seed = repeat,
/// `before` untimed ahead of every run), asserting each pair of answers
/// equal; the (q1, median, q3) ns per `units` of each side.
fn old_vs_new<T: PartialEq + std::fmt::Debug>(
    repeats: usize,
    units: u64,
    before: &dyn Fn(),
    old: &dyn Fn(u64) -> T,
    new: &dyn Fn(u64) -> T,
    what: &str,
) -> [(f64, f64, f64); 2] {
    let mut times = [Vec::new(), Vec::new()];
    for repeat in 0..repeats {
        let mut answers = [None, None];
        for side in [repeat % 2, 1 - repeat % 2] {
            before();
            let run = [old, new][side];
            let start = Instant::now();
            let answer = run(SEED + 90 + repeat as u64);
            times[side].push(start.elapsed().as_secs_f64());
            answers[side] = Some(answer);
        }
        assert_eq!(answers[0], answers[1], "{what}: old and new answers differ");
    }
    times.map(|mut t| {
        t.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let at = |q: usize| t[(t.len() - 1) * q / 4] * 1e9 / units as f64;
        (at(1), at(2), at(3))
    })
}

/// The `zoned_rows` section's old-vs-new rows: the hit-rate pilot, the
/// exact filtered extreme and the pooled filtered draw over `native`,
/// under the zoned `ts` cut and an undecided `margin` filter.
fn sweep_filtered_paths(
    scale: &Scale,
    report: &mut Report,
    native: &BlockSet,
    repeats: usize,
) -> Vec<Json> {
    let n = native.total_len();
    let draws = scale.sample_draws;
    let filters = [
        (
            "ts > mid",
            ColumnPredicate {
                column: 2,
                op: CmpOp::Gt,
                value: n as f64 * 0.5 - 0.5,
            },
        ),
        (
            "margin > 25",
            ColumnPredicate {
                column: 3,
                op: CmpOp::Gt,
                value: 25.0,
            },
        ),
    ];
    let mut rows = Vec::new();
    for (label, predicate) in filters {
        let spec = RowSpec {
            agg_column: 0,
            filter: RowFilter::new(vec![predicate]),
            group_by: None,
        };
        let nothing = &|| {};
        let seeded = |seed: u64| StdRng::seed_from_u64(seed);
        let measured = [
            old_vs_new(
                repeats,
                draws,
                nothing,
                &|seed| {
                    let mut rng = seeded(seed);
                    (
                        whole_row_hit_rate(native, &spec, draws, &mut rng),
                        rng.next_u64(),
                    )
                },
                &|seed| {
                    let mut rng = seeded(seed);
                    let counts = engine::hit_rate_pilot(native, &spec, draws, &mut rng)
                        .expect("the pilot runs");
                    (counts, rng.next_u64())
                },
                "count pilot",
            ),
            // A literal seen once: its selection is compiled, cached and
            // never hit again, so every old run starts from an empty cache.
            old_vs_new(
                repeats,
                n,
                &|| native.invalidate_derived(),
                &|_| {
                    let pooled = pool_filtered_column(native, spec.agg_column, spec.filter.clone());
                    engine::scan_exact_extreme(&pooled, ExtremeKind::Max, &SequentialScheduler)
                        .expect("scan succeeds")
                        .map(f64::to_bits)
                },
                &|_| {
                    engine::scan_exact_filtered_extreme(
                        native,
                        &spec,
                        ExtremeKind::Max,
                        &SequentialScheduler,
                    )
                    .expect("scan succeeds")
                    .map(f64::to_bits)
                },
                "exact extreme",
            ),
            {
                let view =
                    PooledFilteredColumn::build(native, spec.agg_column, spec.filter.clone());
                old_vs_new(
                    repeats,
                    draws,
                    nothing,
                    &|seed| {
                        let mut rng = seeded(seed);
                        let sum = whole_row_pooled_draws(
                            native,
                            spec.agg_column,
                            &spec.filter,
                            draws,
                            &mut rng,
                        );
                        (sum.to_bits(), rng.next_u64())
                    },
                    &|seed| {
                        let mut rng = seeded(seed);
                        let mut sum = 0.0;
                        let mut buf = SampleBuf::new();
                        let mut left = draws;
                        while left > 0 {
                            let take = left.min(SAMPLE_BATCH_ROWS);
                            view.sample_batch(take, &mut rng, &mut buf)
                                .expect("draws succeed");
                            buf.values().iter().for_each(|v| sum += v);
                            left -= take;
                        }
                        (sum.to_bits(), rng.next_u64())
                    },
                    "pooled draw",
                )
            },
        ];
        for ((path, unit), [old, new]) in FILTERED_PATHS.iter().zip(measured) {
            let speedup = old.1 / new.1;
            report.row(vec![
                format!("zoned {path} ({label}) ns/{unit}"),
                n.to_string(),
                "-".to_string(),
                fmt(old.1, 2),
                fmt(new.1, 2),
                fmt(speedup, 2),
            ]);
            rows.push(Json::obj(vec![
                ("path", Json::str(*path)),
                ("filter", Json::str(label)),
                ("commit", Json::str(commit_id())),
                ("rows", Json::num(n as f64)),
                ("blocks", Json::num(native.block_count() as f64)),
                ("repeats", Json::num(repeats as f64)),
                ("unit", Json::str(*unit)),
                ("old_ns_per_unit_q1", Json::num(old.0)),
                ("old_ns_per_unit_median", Json::num(old.1)),
                ("old_ns_per_unit_q3", Json::num(old.2)),
                ("new_ns_per_unit_q1", Json::num(new.0)),
                ("new_ns_per_unit_median", Json::num(new.1)),
                ("new_ns_per_unit_q3", Json::num(new.2)),
                ("speedup", Json::num(speedup)),
            ]));
        }
    }
    rows
}

/// The selection build as it was before the column-chunk scan: every
/// row assembled full width, one `matches` per row. Bench-only — the
/// "old" side of the `predicate_scan` sweep.
fn per_row_selection(block: &dyn DataBlock, filter: &RowFilter) -> Vec<u32> {
    let mut indices = Vec::new();
    let mut row_index = 0u32;
    block
        .scan_rows(&mut |row| {
            if filter.matches(row) {
                indices.push(row_index);
            }
            row_index += 1;
        })
        .expect("scan succeeds");
    indices
}

/// The exact filtered scan as it was: the columns the spec reads
/// assembled per row, one `matches` per row, a per-block `ExactSum`
/// merged in block order. Bench-only, as [`per_row_selection`].
fn per_row_exact_mean(data: &BlockSet, agg_column: usize, filter: &RowFilter) -> f64 {
    let (columns, filter) = filter.projected([agg_column]);
    let agg = columns.partition_point(|&c| c < agg_column);
    let mut total = ExactSum::default();
    for block in data.iter() {
        let mut partial = ExactSum::default();
        block
            .scan_rows_projected(&columns, &mut |row| {
                if filter.matches(row) {
                    partial.add(row[agg]);
                }
            })
            .expect("scan succeeds");
        total.merge(&partial);
    }
    total.mean().expect("the predicate matches rows")
}

/// Sweep 11: a `WHERE` clause evaluated one assembled row at a time vs
/// over column chunks (`scan_column_chunks` + `RowFilter::select`), for
/// the two consumers that moved: the selection build and the exact
/// filtered scan. Across selectivities, one and two conjuncts, and the
/// three delivery paths — `RowsBlock` hands out its columns in place,
/// `ZipBlock` and the scalar-fallback wrapper go through the trait
/// default's transposing copy. Old and new must agree exactly.
fn sweep_predicate_scan(scale: &Scale, report: &mut Report) -> Vec<Json> {
    const BLOCKS: usize = 8;
    let n = scale.filter_rows;
    let value = normal_values(100.0, 20.0, n, SEED ^ 12);
    // Uniform in [0, 1): `aux < s` selects an s-fraction of the rows,
    // scattered (a sorted column would hand the per-row path a branch
    // it always predicts).
    let aux: Vec<f64> = {
        let mut rng = StdRng::seed_from_u64(SEED ^ 13);
        use rand::Rng;
        (0..n).map(|_| rng.random_range(0.0..1.0)).collect()
    };
    let unread_a: Vec<f64> = (0..n).map(|i| (i % 8) as f64).collect();
    let unread_b = normal_values(20.0, 5.0, n, SEED ^ 14);
    let columns = vec![value, unread_a, aux, unread_b];
    let native = RowsBlock::split(columns, BLOCKS);
    let zipped = BlockSet::new(
        native
            .iter()
            .map(|block| {
                let cols = (0..block.width())
                    .map(|c| block.project(c).expect("rows blocks project"))
                    .collect();
                Arc::new(ZipBlock::new(cols)) as Arc<dyn DataBlock>
            })
            .collect(),
    );
    let fallback = scalar_fallback_set(&native);

    let mut rows = Vec::new();
    for (kind, data) in [
        ("RowsBlock", &native),
        ("ZipBlock", &zipped),
        ("fallback", &fallback),
    ] {
        for conjuncts in [1usize, 2] {
            for selectivity in [0.01, 0.1, 0.5, 0.99] {
                let mut predicates = vec![ColumnPredicate {
                    column: 2,
                    op: CmpOp::Lt,
                    value: selectivity,
                }];
                if conjuncts == 2 {
                    // True of (all but) every row: the second conjunct
                    // costs a pass over the survivors and removes none.
                    predicates.push(ColumnPredicate {
                        column: 0,
                        op: CmpOp::Gt,
                        value: 0.0,
                    });
                }
                let filter = RowFilter::new(predicates);
                let spec = RowSpec {
                    agg_column: 0,
                    filter: filter.clone(),
                    group_by: None,
                };

                let mut matches = 0usize;
                for block in data.iter() {
                    let new = SelectionVector::build(block.as_ref(), &filter)
                        .expect("selection builds")
                        .expect("the block scans");
                    assert_eq!(
                        new.indices(),
                        &per_row_selection(block.as_ref(), &filter)[..],
                        "{kind}: a selection vector may not depend on how the rows arrived"
                    );
                    matches += new.match_count() as usize;
                }
                let (build_old_s, _) = median_secs(scale.runs, || {
                    data.iter()
                        .map(|b| per_row_selection(b.as_ref(), &filter).len() as f64)
                        .sum()
                });
                let (build_new_s, _) = median_secs(scale.runs, || {
                    data.iter()
                        .map(|b| {
                            SelectionVector::build(b.as_ref(), &filter)
                                .expect("selection builds")
                                .map_or(0.0, |sel| sel.match_count() as f64)
                        })
                        .sum()
                });
                let (exact_old_s, exact_old) =
                    median_secs(scale.runs, || per_row_exact_mean(data, 0, &filter));
                let (exact_new_s, exact_new) = median_secs(scale.runs, || {
                    engine::scan_exact_groups_on(data, &spec, &SequentialScheduler)
                        .expect("scan succeeds")[0]
                        .mean
                });
                assert_eq!(
                    exact_old.to_bits(),
                    exact_new.to_bits(),
                    "{kind}: an exact answer may not depend on how the rows arrived"
                );

                let ns_per_row = |secs: f64| secs * 1e9 / n as f64;
                for (what, old_s, new_s) in [
                    ("build", build_old_s, build_new_s),
                    ("exact", exact_old_s, exact_new_s),
                ] {
                    report.row(vec![
                        format!("predicate/{kind} {what} x{conjuncts}"),
                        n.to_string(),
                        fmt(selectivity, 2),
                        fmt(n as f64 / old_s / 1e6, 2),
                        fmt(n as f64 / new_s / 1e6, 2),
                        fmt(old_s / new_s, 2),
                    ]);
                }
                rows.push(Json::obj(vec![
                    ("block_kind", Json::str(kind)),
                    ("conjuncts", Json::num(conjuncts as f64)),
                    ("selectivity", Json::num(selectivity)),
                    ("rows", Json::num(n as f64)),
                    ("matches", Json::num(matches as f64)),
                    ("build_old_ns_per_row", Json::num(ns_per_row(build_old_s))),
                    ("build_new_ns_per_row", Json::num(ns_per_row(build_new_s))),
                    ("exact_old_ns_per_row", Json::num(ns_per_row(exact_old_s))),
                    ("exact_new_ns_per_row", Json::num(ns_per_row(exact_new_s))),
                    ("exact_speedup", Json::num(exact_old_s / exact_new_s)),
                    ("speedup", Json::num(build_old_s / build_new_s)),
                ]));
            }
        }
    }
    rows
}

/// Validates the emitted artifact: parseable JSON carrying every
/// section the downstream tooling reads.
fn validate_artifact(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    for path in [
        "bench",
        "mode",
        "sections.sample_kernel",
        "sections.scan_kernel",
        "sections.filtered_sampling",
        "sections.estimators",
        "sections.sketched_slev",
        "sections.zone_map",
        "sections.row_projection",
        "sections.slice_fold",
        "sections.sampled_path",
        "sections.exact_scan",
        "sections.predicate_scan",
        "sections.zoned_rows",
    ] {
        if get(&doc, path).is_none() {
            return Err(format!("missing required key {path:?}"));
        }
    }
    for section in [
        "sample_kernel",
        "scan_kernel",
        "filtered_sampling",
        "estimators",
        "sketched_slev",
        "zone_map",
        "row_projection",
        "slice_fold",
        "sampled_path",
        "exact_scan",
        "predicate_scan",
        "zoned_rows",
    ] {
        match get(&doc, &format!("sections.{section}")) {
            Some(Json::Arr(items)) if !items.is_empty() => {
                for item in items {
                    if get(item, "speedup").is_none() {
                        return Err(format!("{section} row lacks a speedup field"));
                    }
                }
            }
            _ => return Err(format!("section {section:?} is not a non-empty array")),
        }
    }
    // Every filtered path has its old-vs-new rows, with the commit
    // they measured.
    let Some(Json::Arr(zoned)) = get(&doc, "sections.zoned_rows") else {
        return Err("zoned_rows is not an array".to_string());
    };
    for (path, _) in FILTERED_PATHS {
        let measured: Vec<&Json> = zoned
            .iter()
            .filter(|row| matches!(get(row, "path"), Some(Json::Str(p)) if p == path))
            .collect();
        if measured.is_empty() {
            return Err(format!("zoned_rows has no {path:?} row"));
        }
        for row in measured {
            for key in ["commit", "old_ns_per_unit_median", "new_ns_per_unit_median"] {
                if get(row, key).is_none() {
                    return Err(format!("zoned_rows {path:?} row lacks {key:?}"));
                }
            }
        }
    }
    Ok(())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { Scale::smoke() } else { Scale::full() };
    println!(
        "M4 (kernels): scalar vs batched kernels, mode = {}, {} sample draws",
        scale.mode, scale.sample_draws
    );

    let mut report = Report::new(
        "exp_kernel_throughput",
        &[
            "sweep",
            "rows",
            "selectivity",
            "scalar M/s (or ms)",
            "batched M/s (or ms)",
            "speedup",
        ],
    );
    let sample_rows = sweep_sample_kernel(&scale, &mut report);
    let scan_rows = sweep_scan_kernel(&scale, &mut report);
    let (filtered_rows, low_sel_speedup) = sweep_filtered(&scale, &mut report);
    let (estimator_rows, slev_speedup) = sweep_estimators(&scale, &mut report);
    let sketched_slev_rows = sweep_sketched_slev(&scale, &mut report);
    let (zone_map_rows, pruned_blocks) = sweep_zone_map(&scale, &mut report);
    let row_projection_rows = sweep_row_projection(&scale, &mut report);
    let slice_fold_rows = sweep_slice_fold(&scale, &mut report);
    let sampled_path_rows = sweep_sampled_path(&scale, &mut report);
    let exact_scan_rows = sweep_exact_scan(&scale, &mut report);
    let predicate_scan_rows = sweep_predicate_scan(&scale, &mut report);
    let zoned_rows = sweep_zoned_rows(&scale, &mut report);
    report.finish();
    // The ROADMAP's "≥ 2× sampled draws" gate, stated per path as
    // measured (recorded, not asserted: a miss is a finding to print).
    for row in &sampled_path_rows {
        if let (Some(Json::Str(path)), Some(Json::Num(speedup))) =
            (get(row, "path"), get(row, "speedup"))
        {
            let verdict = if *speedup >= 2.0 { "met" } else { "NOT met" };
            println!("sampled path `{path}`: {speedup:.2}× — ≥ 2× gate {verdict}");
        }
    }

    let doc = Json::obj(vec![
        ("bench", Json::str("exp_kernel_throughput")),
        ("mode", Json::str(scale.mode)),
        ("low_selectivity_speedup", Json::num(low_sel_speedup)),
        (
            "sections",
            Json::obj(vec![
                ("sample_kernel", Json::Arr(sample_rows)),
                ("scan_kernel", Json::Arr(scan_rows)),
                ("filtered_sampling", Json::Arr(filtered_rows)),
                ("estimators", Json::Arr(estimator_rows)),
                ("sketched_slev", Json::Arr(sketched_slev_rows)),
                ("zone_map", Json::Arr(zone_map_rows)),
                ("row_projection", Json::Arr(row_projection_rows)),
                ("slice_fold", Json::Arr(slice_fold_rows)),
                ("sampled_path", Json::Arr(sampled_path_rows)),
                ("exact_scan", Json::Arr(exact_scan_rows)),
                ("predicate_scan", Json::Arr(predicate_scan_rows)),
                ("zoned_rows", Json::Arr(zoned_rows)),
            ]),
        ),
    ]);
    let text = doc.render();
    validate_artifact(&text).expect("emitted JSON must satisfy the schema");
    // Smoke results land under target/experiments — only full-scale
    // runs may touch the committed repo-root perf artifact.
    let path = if smoke {
        isla_bench::experiments_dir().join("BENCH_kernels.smoke.json")
    } else {
        bench_json_path("kernels")
    };
    std::fs::write(&path, &text).expect("write BENCH_kernels.json");
    println!("  [written {}]", path.display());

    // Re-read what actually landed on disk: the artifact the driver
    // consumes is the one that must validate.
    let on_disk = std::fs::read_to_string(&path).expect("re-read artifact");
    validate_artifact(&on_disk).expect("on-disk JSON must satisfy the schema");

    if smoke {
        // The committed full-scale artifact must carry every row the
        // schema asks for too (the filtered paths' old-vs-new rows).
        let committed = bench_json_path("kernels");
        let text = std::fs::read_to_string(&committed).expect("read the committed artifact");
        validate_artifact(&text).expect("committed BENCH_kernels.json must satisfy the schema");
        println!("smoke mode: schema validated, speedup assertions skipped");
    } else {
        assert!(
            low_sel_speedup >= 2.0,
            "selection-vector sampling at the lowest selectivity must be ≥2× \
             the rejection baseline, got {low_sel_speedup:.2}×"
        );
        println!("filtered low-selectivity sweep: {low_sel_speedup:.1}× the rejection baseline");
        assert!(
            slev_speedup >= 5.0,
            "sketch-backed SLEV must be ≥5× the dense scalar algorithm, got {slev_speedup:.2}×"
        );
        println!("sketched SLEV: {slev_speedup:.1}× the dense scalar algorithm");
        assert!(
            pruned_blocks > 0,
            "zone maps must prune at least one block on range-partitioned data"
        );
        println!("zone maps pruned {pruned_blocks}/16 blocks at 5% selectivity");
    }
}
