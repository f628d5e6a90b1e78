//! Kernel-identity tests: the batched sampling/scan kernels must be
//! **bit-identical** to the scalar path they replaced — same seed, same
//! values, same RNG stream, same `BlockOutcome`s — across tuple widths
//! and worker counts; and compiled selection vectors must agree exactly
//! with brute-force filtering.
//!
//! The scalar reference is [`ScalarFallbackBlock`]: a forwarding wrapper
//! that hides every batch-kernel override, so the trait defaults run the
//! old one-value-at-a-time path over the very same data.

use std::sync::{Arc, Barrier, Mutex};

use std::collections::BTreeMap;

use isla::baselines::{Estimator, Slev};
use isla::core::engine::{
    self, PooledScheduler, RateSpec, RecoveryPolicy, RetryPolicy, RowPilotFold, RowPlan, RowSpec,
    SequentialScheduler,
};
use isla::core::{
    iteration_phase, DataBoundaries, ExtremeKind, Fallback, IslaConfig, IslaError,
    SampleAccumulator,
};
use isla::stats::distributions::Normal;
use isla::stats::{NeumaierSum, WelfordMoments};
use isla::storage::{
    pool_filtered_column, sample_rows_from_block, sample_rows_proportional,
    sample_rows_proportional_surviving, scalar_fallback_set, scan_sketch, BinaryBlock, BlockFault,
    BlockReads, BlockSet, BlockSketch, CmpOp, ColumnPredicate, ColumnView, DataBlock, ExactSum,
    FaultPlan, FaultyBlock, GeneratorBlock, PooledFilteredColumn, RowFilter, RowSampleBuf,
    RowsBlock, ScalarFallbackBlock, SelectionVector, SetSelection, StorageError, ZipBlock,
    ZoneMatch, SCAN_CHUNK_ROWS,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic multi-column block set: `width` columns over `n`
/// rows, column `c` of row `i` holding a distinct affine mix of both.
fn columns(n: usize, width: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let base: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..100.0)).collect();
    (0..width)
        .map(|c| {
            base.iter()
                .enumerate()
                .map(|(i, &v)| v * (c + 1) as f64 + (i % 13) as f64)
                .collect()
        })
        .collect()
}

/// A draw buffer projected to column 0: the scalar batch draw.
fn scalar_buf() -> RowSampleBuf {
    let mut buf = RowSampleBuf::new();
    buf.project(Some(&[0]));
    buf
}

fn native_set(n: usize, width: usize, blocks: usize, seed: u64) -> BlockSet {
    RowsBlock::split(columns(n, width, seed), blocks)
}

#[test]
fn sample_batch_is_bit_identical_to_scalar_for_widths_1_2_4() {
    for width in [1usize, 2, 4] {
        let native = native_set(20_000, width, 1, 42);
        let fallback = scalar_fallback_set(&native);
        for (b, (nb, fb)) in native.iter().zip(fallback.iter()).enumerate() {
            for n in [1u64, 7, 100, 5_000] {
                let mut buf = scalar_buf();
                let mut rng = StdRng::seed_from_u64(n ^ (width as u64) << 8);
                nb.sample_rows_batch(n, &mut rng, &mut buf).unwrap();
                let batched = buf.rows().to_vec();
                let stream_after_batched = rng.next_u64();

                let mut rng = StdRng::seed_from_u64(n ^ (width as u64) << 8);
                fb.sample_rows_batch(n, &mut rng, &mut buf).unwrap();
                assert_eq!(
                    batched,
                    buf.rows(),
                    "width {width} block {b} n {n}: batched != scalar"
                );
                assert_eq!(
                    stream_after_batched,
                    rng.next_u64(),
                    "width {width} block {b} n {n}: RNG streams diverged"
                );
            }
        }
    }
}

#[test]
fn sample_rows_batch_is_bit_identical_to_scalar_for_widths_1_2_4() {
    for width in [1usize, 2, 4] {
        let native = native_set(10_000, width, 1, 7);
        let fallback = scalar_fallback_set(&native);
        for (nb, fb) in native.iter().zip(fallback.iter()) {
            let mut buf = RowSampleBuf::new();
            let mut rng = StdRng::seed_from_u64(99);
            nb.sample_rows_batch(3_000, &mut rng, &mut buf).unwrap();
            let batched = buf.rows().to_vec();
            assert_eq!(buf.width(), width);

            let mut rng = StdRng::seed_from_u64(99);
            fb.sample_rows_batch(3_000, &mut rng, &mut buf).unwrap();
            assert_eq!(batched, buf.rows(), "width {width}: batched rows != scalar");
        }
    }
}

#[test]
fn scan_chunks_visits_the_scalar_scan_order() {
    let native = native_set(50_000, 2, 4, 11);
    let mut chunked = Vec::new();
    native
        .scan_all_chunks(&mut |chunk| chunked.extend_from_slice(chunk))
        .unwrap();
    let mut scalar = Vec::new();
    native.scan_all(&mut |v| scalar.push(v)).unwrap();
    assert_eq!(chunked, scalar);
}

#[test]
fn engine_is_bit_identical_on_batched_and_scalar_kernels_for_workers_1_2_4_7() {
    // The full pipeline (pilots + Algorithm 1 + Algorithm 2) over the
    // batched kernels must reproduce the scalar path bit for bit, on
    // every scheduler.
    let native = BlockSet::from_values(isla::datagen::normal_values(100.0, 20.0, 200_000, 77), 9);
    let fallback = scalar_fallback_set(&native);
    let cfg = IslaConfig::builder().precision(0.5).build().unwrap();

    let mut rng = StdRng::seed_from_u64(5);
    let batched = engine::run(
        &native,
        &cfg,
        RateSpec::Derived,
        &SequentialScheduler,
        &mut rng,
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let scalar = engine::run(
        &fallback,
        &cfg,
        RateSpec::Derived,
        &SequentialScheduler,
        &mut rng,
    )
    .unwrap();
    assert_eq!(batched.estimate, scalar.estimate);
    assert_eq!(batched.total_samples, scalar.total_samples);
    assert_eq!(batched.blocks.len(), scalar.blocks.len());
    for (b, s) in batched.blocks.iter().zip(&scalar.blocks) {
        assert_eq!(b.answer, s.answer, "block {} answer", b.block_id);
        assert_eq!((b.u, b.v), (s.u, s.v), "block {} regions", b.block_id);
        assert_eq!(b.samples_drawn, s.samples_drawn);
        assert_eq!(b.iterations, s.iterations);
        assert_eq!(b.fallback, s.fallback);
    }

    for workers in [1usize, 2, 4, 7] {
        let pooled_scheduler = PooledScheduler::new(workers).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pooled = engine::run(
            &fallback,
            &cfg,
            RateSpec::Derived,
            &pooled_scheduler,
            &mut rng,
        )
        .unwrap();
        assert_eq!(
            batched.estimate, pooled.estimate,
            "{workers} workers on the scalar path diverge from the batched answer"
        );
        assert_eq!(batched.total_samples, pooled.total_samples);
    }
}

#[test]
fn row_pipeline_is_bit_identical_on_batched_and_scalar_kernels() {
    let native = native_set(60_000, 3, 8, 23);
    let fallback = scalar_fallback_set(&native);
    let cfg = IslaConfig::builder().precision(1.0).build().unwrap();
    let spec = RowSpec {
        agg_column: 0,
        filter: RowFilter::new(vec![ColumnPredicate {
            column: 1,
            op: CmpOp::Gt,
            value: 60.0,
        }]),
        group_by: Some(2),
    };
    let run = |data: &BlockSet, workers: Option<usize>| {
        let mut rng = StdRng::seed_from_u64(31);
        match workers {
            None => engine::run_rows(
                data,
                &cfg,
                spec.clone(),
                RateSpec::Derived,
                &SequentialScheduler,
                &mut rng,
            ),
            Some(w) => engine::run_rows(
                data,
                &cfg,
                spec.clone(),
                RateSpec::Derived,
                &PooledScheduler::new(w).unwrap(),
                &mut rng,
            ),
        }
        .unwrap()
    };
    let batched = run(&native, None);
    for workers in [None, Some(1), Some(2), Some(4), Some(7)] {
        let scalar = run(&fallback, workers);
        assert_eq!(batched.groups.len(), scalar.groups.len());
        for (b, s) in batched.groups.iter().zip(&scalar.groups) {
            assert_eq!(b.key, s.key, "workers {workers:?}");
            assert_eq!(b.estimate, s.estimate, "workers {workers:?}");
            assert_eq!(b.rows_estimate, s.rows_estimate, "workers {workers:?}");
            assert_eq!(b.matched_draws, s.matched_draws, "workers {workers:?}");
        }
        assert_eq!(batched.estimate, scalar.estimate);
        assert_eq!(batched.total_samples, scalar.total_samples);
    }
}

/// Asserts every batch kernel a block overrides is bit-identical to the
/// scalar trait defaults over the same data and seed: same values, same
/// RNG stream position afterwards, same chunked scan order.
fn assert_kernel_identity(block: Arc<dyn DataBlock>, label: &str) {
    let scalar = ScalarFallbackBlock(Arc::clone(&block));
    for n in [1u64, 7, 100, 1_000] {
        let mut buf = scalar_buf();
        let mut rng = StdRng::seed_from_u64(n ^ 0x5EED);
        block.sample_rows_batch(n, &mut rng, &mut buf).unwrap();
        let batched = buf.rows().to_vec();
        let stream_after = rng.next_u64();

        let mut rng = StdRng::seed_from_u64(n ^ 0x5EED);
        scalar.sample_rows_batch(n, &mut rng, &mut buf).unwrap();
        assert_eq!(batched, buf.rows(), "{label} n {n}: batched != scalar");
        assert_eq!(
            stream_after,
            rng.next_u64(),
            "{label} n {n}: RNG streams diverged"
        );
    }

    let mut chunked = Vec::new();
    block
        .scan_chunks(&mut |c| chunked.extend_from_slice(c))
        .unwrap();
    let mut scanned = Vec::new();
    scalar.scan(&mut |v| scanned.push(v)).unwrap();
    assert_eq!(chunked, scanned, "{label}: chunked scan != scalar scan");

    // The fallback wrapper hides the sketch hook; when the native block
    // exposes one, it must be bit-identical to a scan-computed sketch
    // (the one-fold law).
    assert!(
        scalar.sketch().is_none(),
        "{label}: fallback wrapper must hide the sketch hook"
    );
    if let Some(hook) = block.sketch() {
        let scanned = scan_sketch(block.as_ref())
            .unwrap()
            .expect("hooked blocks are scannable");
        assert_eq!(hook.rows, scanned.rows, "{label}: sketch row counts");
        assert_eq!(hook.width(), scanned.width(), "{label}: sketch widths");
        for (c, (h, s)) in hook.columns.iter().zip(&scanned.columns).enumerate() {
            assert_eq!(h.sum.to_bits(), s.sum.to_bits(), "{label} col {c}: Σa");
            assert_eq!(
                h.sum_sq.to_bits(),
                s.sum_sq.to_bits(),
                "{label} col {c}: Σa²"
            );
            assert_eq!(h.min.to_bits(), s.min.to_bits(), "{label} col {c}: min");
            assert_eq!(h.max.to_bits(), s.max.to_bits(), "{label} col {c}: max");
            assert_eq!(h.non_finite, s.non_finite, "{label} col {c}: non-finite");
        }
    }
}

/// Pins the sketch-backed SLEV sampler across kernel paths: the same
/// seed over the native set (batch kernels, hook sketches) and its
/// scalar fallback (one-value-at-a-time draws, scan-computed sketches)
/// must produce the identical estimate, bit for bit.
fn assert_sketched_slev_identity(native: &BlockSet, label: &str) {
    let fallback = scalar_fallback_set(native);
    let slev = Slev::default();
    let run = |data: &BlockSet| {
        let mut rng = StdRng::seed_from_u64(0x51EF);
        slev.estimate(data, 2_000, &mut rng).unwrap()
    };
    assert_eq!(
        run(native).to_bits(),
        run(&fallback).to_bits(),
        "{label}: sketched SLEV diverged between native and scalar kernels"
    );
}

#[test]
fn sketched_slev_is_bit_identical_on_every_block_impl() {
    let dir = std::env::temp_dir().join(format!("isla-kid-slev-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let values: Vec<f64> = columns(6_000, 1, 41)[0].clone();
    assert_sketched_slev_identity(
        &BlockSet::from_values(values.clone(), 4),
        "RowsBlock (width 1)",
    );

    let bin_path = dir.join("col.blk");
    BinaryBlock::create(&bin_path, &values).unwrap();
    assert_sketched_slev_identity(
        &BlockSet::single(BinaryBlock::open(&bin_path).unwrap()),
        "BinaryBlock",
    );

    assert_sketched_slev_identity(&native_set(6_000, 2, 4, 43), "RowsBlock");

    let cols = columns(6_000, 3, 47);
    let zipped: Vec<Arc<dyn DataBlock>> = cols
        .iter()
        .map(|c| Arc::new(RowsBlock::new(vec![c.clone()])) as Arc<dyn DataBlock>)
        .collect();
    assert_sketched_slev_identity(&BlockSet::single(ZipBlock::new(zipped)), "ZipBlock");

    let table = native_set(6_000, 3, 1, 53);
    let inner = Arc::clone(table.iter().next().unwrap());
    assert_sketched_slev_identity(&BlockSet::single(ColumnView::new(inner, 1)), "ColumnView");

    let filter = RowFilter::new(vec![ColumnPredicate {
        column: 1,
        op: CmpOp::Gt,
        value: 60.0,
    }]);
    let table = native_set(6_000, 2, 4, 61);
    assert_sketched_slev_identity(
        &BlockSet::single(PooledFilteredColumn::build(&table, 0, filter)),
        "PooledFilteredColumn",
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn binary_block_kernels_match_scalar() {
    let dir = std::env::temp_dir().join(format!("isla-kid-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("col.blk");
    let values: Vec<f64> = columns(4_000, 1, 5)[0].clone();
    BinaryBlock::create(&path, &values).unwrap();
    let block = BinaryBlock::open(&path).unwrap();
    assert_kernel_identity(Arc::new(block), "BinaryBlock");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn projected_column_kernels_match_scalar() {
    // One column of a RowsBlock, as `DataBlock::project` hands it out: a
    // width-1 RowsBlock over the table's own storage carrying the sliced
    // sketch.
    let native = native_set(8_000, 3, 1, 9);
    let column = native.block(0).project(1).expect("RowsBlock projects");
    assert_kernel_identity(column, "RowsBlock (projected)");
}

#[test]
fn zip_block_kernels_match_scalar() {
    let cols = columns(6_000, 3, 13);
    let zipped: Vec<Arc<dyn DataBlock>> = cols
        .iter()
        .map(|c| Arc::new(RowsBlock::new(vec![c.clone()])) as Arc<dyn DataBlock>)
        .collect();
    let block = Arc::new(ZipBlock::new(zipped));
    assert_kernel_identity(Arc::clone(&block) as Arc<dyn DataBlock>, "ZipBlock");

    // The zip's row-tuple kernel as well: same rows, same stream.
    let scalar = ScalarFallbackBlock(Arc::clone(&block) as Arc<dyn DataBlock>);
    let mut buf = RowSampleBuf::new();
    let mut rng = StdRng::seed_from_u64(17);
    block.sample_rows_batch(2_000, &mut rng, &mut buf).unwrap();
    let batched = buf.rows().to_vec();
    assert_eq!(buf.width(), 3);
    let mut rng = StdRng::seed_from_u64(17);
    scalar.sample_rows_batch(2_000, &mut rng, &mut buf).unwrap();
    assert_eq!(batched, buf.rows(), "ZipBlock rows: batched != scalar");
}

#[test]
fn column_view_kernels_match_scalar() {
    let native = native_set(6_000, 3, 1, 19);
    let inner = Arc::clone(native.iter().next().unwrap());
    let block = ColumnView::new(inner, 2);
    assert_kernel_identity(Arc::new(block), "ColumnView");
}

#[test]
fn faulty_block_disarmed_kernels_match_scalar() {
    // A FaultyBlock with no fault assigned must be a pure pass-through:
    // its forwarded batch kernels bit-identical to the scalar defaults,
    // its sketch hook intact. This is what makes disarmed fault hooks
    // free of answer drift in production paths.
    let values = columns(8_000, 1, 67)[0].clone();
    let inner: Arc<dyn DataBlock> = Arc::new(RowsBlock::new(vec![values]));
    let block = FaultyBlock::new(inner, BlockFault::None, None);
    assert_kernel_identity(Arc::new(block), "FaultyBlock");

    // And a whole set armed with a fault-free plan composes the same
    // way through the sketch-backed SLEV path.
    let armed = FaultPlan::new(9).arm(&native_set(6_000, 1, 4, 67));
    assert_sketched_slev_identity(&armed, "FaultyBlock(disarmed plan)");
}

#[test]
fn pooled_filtered_column_kernels_match_scalar() {
    let native = native_set(6_000, 2, 4, 37);
    let filter = RowFilter::new(vec![ColumnPredicate {
        column: 1,
        op: CmpOp::Le,
        value: 120.0,
    }]);
    let block = PooledFilteredColumn::build(&native, 0, filter);
    assert!(block.match_count().is_some(), "in-memory rows compile");
    assert_kernel_identity(Arc::new(block), "PooledFilteredColumn");
}

#[test]
fn pooled_filtered_column_rejection_kernels_match_scalar() {
    // The same view where no selection compiles — every block zipped
    // with a virtual column that cannot scan — draws by rejection: the
    // batched redraw loop must consume the scalar one's stream.
    let blocks = split_columns(&columns(6_000, 2, 29), 4)
        .into_iter()
        .map(|cols| {
            let rows = cols[0].len() as u64;
            let unscannable =
                GeneratorBlock::new(Arc::new(Normal::new(0.0, 1.0)), rows, 31).with_scan_cap(0);
            let mut zipped: Vec<Arc<dyn DataBlock>> = cols
                .into_iter()
                .map(|c| Arc::new(RowsBlock::new(vec![c])) as Arc<dyn DataBlock>)
                .collect();
            zipped.push(Arc::new(unscannable));
            Arc::new(ZipBlock::new(zipped)) as Arc<dyn DataBlock>
        })
        .collect();
    let filter = RowFilter::new(vec![ColumnPredicate {
        column: 1,
        op: CmpOp::Gt,
        value: 60.0,
    }]);
    let block = PooledFilteredColumn::build(&BlockSet::new(blocks), 0, filter);
    assert!(block.match_count().is_none(), "nothing compiles");
    assert_kernel_identity(Arc::new(block), "PooledFilteredColumn (rejection)");
}

/// Brute-force filter application: the reference for selection vectors.
fn brute_force_matches(cols: &[Vec<f64>], filter: &RowFilter) -> Vec<u32> {
    let n = cols[0].len();
    let mut row = Vec::with_capacity(cols.len());
    (0..n as u32)
        .filter(|&i| {
            row.clear();
            row.extend(cols.iter().map(|c| c[i as usize]));
            filter.matches(&row)
        })
        .collect()
}

proptest! {
    /// A compiled selection vector lists exactly the brute-force
    /// matching indices, and every selection-backed access path (draws,
    /// positional reads, scans) touches matching rows only.
    #[test]
    fn selection_vector_agrees_with_brute_force(
        n in 1usize..400,
        blocks in 1usize..6,
        threshold in 0.0f64..110.0,
        op_pick in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let blocks = blocks.min(n);
        let cols = columns(n, 2, seed);
        let op = [CmpOp::Gt, CmpOp::Lt, CmpOp::Ge, CmpOp::Le][op_pick];
        let filter = RowFilter::new(vec![ColumnPredicate { column: 1, op, value: threshold * 2.0 }]);

        // Per-block vectors match per-block brute force.
        let set = RowsBlock::split(cols.clone(), blocks);
        let mut offset = 0usize;
        for block in set.iter() {
            let len = block.len() as usize;
            let block_cols: Vec<Vec<f64>> = cols
                .iter()
                .map(|c| c[offset..offset + len].to_vec())
                .collect();
            let sel = SelectionVector::build(block.as_ref(), &filter).unwrap().unwrap();
            prop_assert_eq!(sel.indices(), &brute_force_matches(&block_cols, &filter)[..]);
            offset += len;
        }

        // The pooled view built over the compiled selection scans
        // exactly the brute-force matching values, in order, and its
        // draws/positional reads stay inside the matching set.
        let global_matches = brute_force_matches(&cols, &filter);
        let expected: Vec<f64> = global_matches.iter().map(|&i| cols[0][i as usize]).collect();
        let pooled = pool_filtered_column(&set, 0, filter.clone());
        let block = pooled.block(0);
        let mut scanned = Vec::new();
        block.scan(&mut |v| scanned.push(v)).unwrap();
        prop_assert_eq!(&scanned, &expected);

        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        if expected.is_empty() {
            prop_assert!(matches!(
                block.sample_one(&mut rng),
                Err(StorageError::SelectivityTooLow { attempts: 0 })
            ));
        } else {
            for _ in 0..32 {
                let v = block.sample_one(&mut rng).unwrap();
                prop_assert!(expected.contains(&v), "sampled non-matching value {}", v);
            }
            let mut buf = scalar_buf();
            let mut rng_a = StdRng::seed_from_u64(seed ^ 0x1234);
            block.sample_rows_batch(64, &mut rng_a, &mut buf).unwrap();
            let batched = buf.rows().to_vec();
            // Batched filtered draws are bit-identical to scalar
            // selection draws under the same seed.
            let mut rng_b = StdRng::seed_from_u64(seed ^ 0x1234);
            let scalar: Vec<f64> = (0..64)
                .map(|_| block.sample_one(&mut rng_b).unwrap())
                .collect();
            prop_assert_eq!(batched, scalar);
            for idx in 0..block.len().min(64) {
                let v = block.row_at(idx).unwrap();
                prop_assert!(expected.contains(&v), "positional read left the matches");
                prop_assert_eq!(v.to_bits(), block.row_at(idx).unwrap().to_bits());
            }
        }
    }

    /// Per-block moment sketches merged across an arbitrary block split
    /// agree with a brute-force pass over the whole value vector:
    /// counts and extrema exactly, the floating-point sums up to
    /// summation-order rounding.
    #[test]
    fn merged_block_sketches_match_brute_force(
        values in proptest::collection::vec(-1e6f64..1e6, 1..400),
        blocks in 1usize..6,
    ) {
        let blocks = blocks.min(values.len());
        let set = BlockSet::from_values(values.clone(), blocks);
        let merged = set.sketches().unwrap().merged().unwrap();
        prop_assert_eq!(merged.rows, values.len() as u64);
        let m = *merged.column(0).unwrap();
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(m.min.to_bits(), min.to_bits());
        prop_assert_eq!(m.max.to_bits(), max.to_bits());
        prop_assert_eq!(m.non_finite, 0);
        let sum: f64 = values.iter().sum();
        let sum_sq: f64 = values.iter().map(|v| v * v).sum();
        let mag: f64 = values.iter().map(|v| v.abs()).sum();
        prop_assert!((m.sum - sum).abs() <= 1e-12 * mag.max(1.0));
        prop_assert!((m.sum_sq - sum_sq).abs() <= 1e-12 * sum_sq.max(1.0));
    }

    /// Batched draws from a plain memory block reproduce the scalar
    /// stream exactly, for any data, draw count and seed.
    #[test]
    fn mem_block_batches_reproduce_scalar_draws(
        values in proptest::collection::vec(-1e6f64..1e6, 1..300),
        n in 1u64..256,
        seed in 0u64..u64::MAX,
    ) {
        let native = RowsBlock::new(vec![values]);
        let wrapped =
            isla::storage::ScalarFallbackBlock(Arc::new(native.clone()) as Arc<dyn DataBlock>);
        let mut buf = scalar_buf();
        let mut rng = StdRng::seed_from_u64(seed);
        native.sample_rows_batch(n, &mut rng, &mut buf).unwrap();
        let batched = buf.rows().to_vec();
        let mut rng = StdRng::seed_from_u64(seed);
        wrapped.sample_rows_batch(n, &mut rng, &mut buf).unwrap();
        prop_assert_eq!(batched, buf.rows());
    }
}

// ---------------------------------------------------------------------
// The per-sample path of Algorithm 1, rewritten twice without moving a
// bit: row kernels that gather only the columns a spec reads, and a
// fold that takes slices instead of values. Both are pinned here
// against the full-width, one-value-at-a-time path they replaced —
// reimplemented below from the frozen public pieces
// (`sample_rows_from_block`, `SampleAccumulator::offer`, the original
// spec on whole rows).
// ---------------------------------------------------------------------

/// Row-range slices of `cols`, one per block, sizes as even as possible.
fn split_columns(cols: &[Vec<f64>], blocks: usize) -> Vec<Vec<Vec<f64>>> {
    let n = cols[0].len();
    (0..blocks)
        .map(|b| {
            let (lo, hi) = (b * n / blocks, (b + 1) * n / blocks);
            cols.iter().map(|c| c[lo..hi].to_vec()).collect()
        })
        .collect()
}

/// The block kinds a projected draw must look the same through: the
/// column-aware native block, and every wrapper that only knows whole
/// rows. `fault` arms the two fault kinds the issue names (fresh
/// attempt counters on every call).
const KINDS: [&str; 5] = [
    "RowsBlock",
    "ZipBlock",
    "ScalarFallbackBlock",
    "FaultyBlock(transient)",
    "FaultyBlock(corrupt)",
];

fn block_of_kind(kind: &str, cols: &[Vec<f64>]) -> Arc<dyn DataBlock> {
    let rows = || Arc::new(RowsBlock::new(cols.to_vec())) as Arc<dyn DataBlock>;
    match kind {
        "RowsBlock" => rows(),
        "ZipBlock" => Arc::new(ZipBlock::new(
            cols.iter()
                .map(|c| Arc::new(RowsBlock::new(vec![c.clone()])) as Arc<dyn DataBlock>)
                .collect(),
        )),
        "ScalarFallbackBlock" => Arc::new(ScalarFallbackBlock(rows())),
        "FaultyBlock(transient)" => Arc::new(FaultyBlock::new(
            rows(),
            BlockFault::Transient { failures: 2 },
            None,
        )),
        "FaultyBlock(corrupt)" => Arc::new(FaultyBlock::new(rows(), BlockFault::Corrupt, None)),
        other => panic!("unknown block kind {other}"),
    }
}

fn set_of_kind(kind: &str, cols: &[Vec<f64>], blocks: usize) -> BlockSet {
    BlockSet::new(
        split_columns(cols, blocks)
            .iter()
            .map(|chunk| block_of_kind(kind, chunk))
            .collect(),
    )
}

/// Test data for random specs: even columns continuous in `[0, 100)`,
/// odd columns small integers (group keys, equality predicates).
fn spec_columns(n: usize, width: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    (0..width)
        .map(|c| {
            (0..n)
                .map(|_| {
                    if c.is_multiple_of(2) {
                        rng.random_range(0.0..100.0)
                    } else {
                        f64::from(rng.random_range(0u32..4))
                    }
                })
                .collect()
        })
        .collect()
}

/// A random spec over `width` columns that leans on the projection's
/// edge cases: the aggregated column also filtered on, the group-by
/// column also filtered on, a duplicated conjunct, and conjuncts listed
/// in descending column order.
fn random_spec(width: usize, rng: &mut StdRng) -> RowSpec {
    let agg_column = rng.random_range(0..width);
    let group_by = (width > 1 && rng.random_bool(0.6)).then(|| {
        // Group on an integer column.
        let odd = (width / 2).max(1);
        2 * rng.random_range(0..odd) + 1
    });
    let predicate = |column: usize, rng: &mut StdRng| {
        if column.is_multiple_of(2) {
            ColumnPredicate {
                column,
                op: [CmpOp::Gt, CmpOp::Lt, CmpOp::Ge, CmpOp::Le][rng.random_range(0..4usize)],
                value: rng.random_range(20.0..80.0),
            }
        } else {
            ColumnPredicate {
                column,
                op: [CmpOp::Ne, CmpOp::Ge, CmpOp::Le, CmpOp::Eq][rng.random_range(0..4usize)],
                value: f64::from(rng.random_range(0u32..4)),
            }
        }
    };
    let mut predicates: Vec<ColumnPredicate> = (0..rng.random_range(0usize..3))
        .map(|_| predicate(rng.random_range(0..width), rng))
        .collect();
    if rng.random_bool(0.4) {
        predicates.push(predicate(agg_column, rng));
    }
    if let (Some(g), true) = (group_by, rng.random_bool(0.4)) {
        predicates.push(predicate(g, rng));
    }
    if let (Some(&p), true) = (predicates.first(), rng.random_bool(0.3)) {
        predicates.push(p);
    }
    predicates.sort_by_key(|p| std::cmp::Reverse(p.column));
    RowSpec {
        agg_column,
        filter: RowFilter::new(predicates),
        group_by,
    }
}

/// One group outcome, every field, floats as bits.
type GroupBits = (u64, u64, u64, u64, u64, u32, bool, Option<Fallback>, bool);

fn outcome_bits(outcome: &engine::RowBlockOutcome) -> (u64, u64, Vec<GroupBits>) {
    (
        outcome.rows,
        outcome.draws,
        outcome
            .groups
            .iter()
            .map(|g| {
                assert_eq!(g.key.to_bits(), g.key_bits);
                (
                    g.key_bits,
                    g.matched,
                    g.answer.to_bits(),
                    g.u,
                    g.v,
                    g.iterations,
                    g.clamped,
                    g.fallback,
                    g.planned,
                )
            })
            .collect(),
    )
}

/// The calculation loop `execute_row_block` replaced: whole rows from
/// the frozen full-width sampler, the *original* spec on each, one
/// `offer` per matched value.
fn reference_row_block(
    plan: &RowPlan,
    block: &dyn DataBlock,
    seed: u64,
) -> Result<(u64, u64, Vec<GroupBits>), StorageError> {
    let spec = plan.spec();
    let draws = plan.sample_size_for(block.len());
    let mut rng = engine::seeded_rng(seed);
    let mut accs: Vec<Option<SampleAccumulator>> = plan
        .groups()
        .iter()
        .map(|g| g.boundaries.map(SampleAccumulator::new))
        .collect();
    let mut raw = vec![(NeumaierSum::new(), 0u64); plan.groups().len()];
    let mut extras: BTreeMap<u64, (NeumaierSum, u64)> = BTreeMap::new();
    sample_rows_from_block(block, draws, &mut rng, &mut |row| {
        if !spec.filter.matches(row) {
            return;
        }
        let key_bits = spec.group_key(row);
        let value = row[spec.agg_column];
        match plan
            .groups()
            .iter()
            .position(|g| g.pre.key_bits == key_bits)
        {
            Some(i) => {
                raw[i].1 += 1;
                match accs[i].as_mut() {
                    Some(acc) => {
                        acc.offer(value + plan.groups()[i].shift);
                    }
                    None => raw[i].0.add(value),
                }
            }
            None => {
                let entry = extras.entry(key_bits).or_insert((NeumaierSum::new(), 0));
                entry.0.add(value);
                entry.1 += 1;
            }
        }
    })?;
    let mut groups: BTreeMap<u64, GroupBits> = BTreeMap::new();
    for (i, g) in plan.groups().iter().enumerate() {
        let (sum, matched) = raw[i];
        let bits = match &accs[i] {
            Some(acc) => {
                let phase = iteration_phase(acc, g.sketch0_shifted, plan.config());
                (
                    g.pre.key_bits,
                    matched,
                    (phase.answer - g.shift).to_bits(),
                    acc.u(),
                    acc.v(),
                    phase.iterations,
                    phase.clamped,
                    phase.fallback,
                    true,
                )
            }
            None => {
                let answer = if matched > 0 {
                    sum.value() / matched as f64
                } else {
                    g.pre.sketch0
                };
                let fallback = (matched == 0).then_some(Fallback::NoSamples);
                (
                    g.pre.key_bits,
                    matched,
                    answer.to_bits(),
                    0,
                    0,
                    0,
                    false,
                    fallback,
                    true,
                )
            }
        };
        groups.insert(g.pre.key_bits, bits);
    }
    for (key_bits, (sum, n)) in extras {
        let answer = (sum.value() / n as f64).to_bits();
        let fallback = Some(Fallback::NoSamples);
        groups.insert(
            key_bits,
            (key_bits, n, answer, 0, 0, 0, false, fallback, false),
        );
    }
    Ok((block.len(), draws, groups.into_values().collect()))
}

/// What one capped pilot pass must have folded: per-group Welford
/// moments over whole rows and the original spec.
struct ReferencePilot {
    drawn: u64,
    matched: u64,
    moments: BTreeMap<u64, WelfordMoments>,
}

fn reference_pilot(
    data: &BlockSet,
    spec: &RowSpec,
    n: u64,
    recovery: &RecoveryPolicy,
    rng: &mut StdRng,
) -> Result<ReferencePilot, StorageError> {
    let mut st = ReferencePilot {
        drawn: 0,
        matched: 0,
        moments: BTreeMap::new(),
    };
    reference_pilot_pass(&mut st, data, spec, n, recovery, rng)?;
    Ok(st)
}

/// One more proportional pass of `n` rows folded into `st`.
fn reference_pilot_pass(
    st: &mut ReferencePilot,
    data: &BlockSet,
    spec: &RowSpec,
    n: u64,
    recovery: &RecoveryPolicy,
    rng: &mut StdRng,
) -> Result<(), StorageError> {
    let mut fold = |row: &[f64]| {
        st.drawn += 1;
        if spec.filter.matches(row) {
            st.matched += 1;
            st.moments
                .entry(spec.group_key(row))
                .or_default()
                .update(row[spec.agg_column]);
        }
    };
    if recovery.is_best_effort() {
        sample_rows_proportional_surviving(data, n, recovery.retry.max_attempts, rng, &mut fold);
    } else {
        sample_rows_proportional(data, n, rng, &mut fold)?;
    }
    Ok(())
}

/// `scan_exact_groups` over whole rows and the original spec.
fn reference_exact(data: &BlockSet, spec: &RowSpec) -> Result<Vec<(u64, u64, u64)>, StorageError> {
    let mut sums: BTreeMap<u64, (NeumaierSum, u64)> = BTreeMap::new();
    data.scan_all_rows(&mut |row| {
        if spec.filter.matches(row) {
            let entry = sums
                .entry(spec.group_key(row))
                .or_insert((NeumaierSum::new(), 0));
            entry.0.add(row[spec.agg_column]);
            entry.1 += 1;
        }
    })?;
    let mut out: Vec<(u64, u64, u64)> = sums
        .into_iter()
        .map(|(key, (sum, n))| (key, (sum.value() / n as f64).to_bits(), n))
        .collect();
    out.sort_by(|a, b| f64::from_bits(a.0).total_cmp(&f64::from_bits(b.0)));
    Ok(out)
}

#[test]
fn projected_row_kernels_deliver_the_full_width_columns_on_every_block_kind() {
    // Storage level: a projected batch is the full-width batch with the
    // other columns dropped — same index draws, same RNG position — and
    // a projected scan is the full-width scan likewise, whether the
    // block gathers only the projection (RowsBlock) or compacts whole
    // rows (every wrapper and the trait defaults).
    let mut data_rng = StdRng::seed_from_u64(0xC01);
    for width in [1usize, 2, 4] {
        let cols = spec_columns(5_000, width, &mut data_rng);
        let projections: Vec<Vec<usize>> = match width {
            1 => vec![vec![0]],
            2 => vec![vec![0], vec![1], vec![0, 1], vec![1, 0]],
            _ => vec![
                vec![2],
                vec![0, 3],
                vec![3, 1],
                vec![1, 2, 3],
                vec![0, 1, 2, 3],
            ],
        };
        for kind in KINDS.iter().filter(|k| **k != "FaultyBlock(transient)") {
            let block = block_of_kind(kind, &cols);
            for projection in &projections {
                for n in [1u64, 300, 9_000] {
                    let mut full = RowSampleBuf::new();
                    let mut rng = StdRng::seed_from_u64(n ^ 0xF00D);
                    block.sample_rows_batch(n, &mut rng, &mut full).unwrap();
                    let after_full = rng.next_u64();
                    let expected: Vec<u64> = full
                        .iter_rows()
                        .flat_map(|row| projection.iter().map(|&c| row[c].to_bits()))
                        .collect();

                    let mut projected = RowSampleBuf::new();
                    projected.project(Some(projection));
                    let mut rng = StdRng::seed_from_u64(n ^ 0xF00D);
                    block
                        .sample_rows_batch(n, &mut rng, &mut projected)
                        .unwrap();
                    assert_eq!(projected.width(), projection.len());
                    let got: Vec<u64> = projected.rows().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, expected, "{kind} w{width} {projection:?} n {n}");
                    assert_eq!(rng.next_u64(), after_full, "{kind}: RNG streams diverged");

                    // Naming no columns restores full width.
                    projected.project(None);
                    let mut rng = StdRng::seed_from_u64(n ^ 0xF00D);
                    block
                        .sample_rows_batch(n, &mut rng, &mut projected)
                        .unwrap();
                    assert_eq!(projected.width(), width);
                }
                let mut expected = Vec::new();
                block
                    .scan_rows(&mut |row| {
                        expected.extend(projection.iter().map(|&c| row[c].to_bits()))
                    })
                    .unwrap();
                let mut got = Vec::new();
                block
                    .scan_rows_projected(projection, &mut |row| {
                        assert_eq!(row.len(), projection.len());
                        got.extend(row.iter().map(|v| v.to_bits()));
                    })
                    .unwrap();
                assert_eq!(
                    got, expected,
                    "{kind} w{width} {projection:?}: projected scan"
                );
            }
        }
    }
}

#[test]
fn multi_batch_row_blocks_match_the_per_value_reference() {
    // More draws than one kernel batch (8 192) per block, so the staged
    // lanes are folded and reused across batches; filtered and grouped.
    let mut rng = StdRng::seed_from_u64(0xB16);
    let cols = spec_columns(40_000, 4, &mut rng);
    let spec = RowSpec {
        agg_column: 2,
        filter: RowFilter::new(vec![ColumnPredicate {
            column: 0,
            op: CmpOp::Gt,
            value: 35.0,
        }]),
        group_by: Some(3),
    };
    let cfg = IslaConfig::builder().precision(0.5).build().unwrap();
    let clean = set_of_kind("RowsBlock", &cols, 2);
    let plan = RowPlan::prepare(
        &clean,
        &cfg,
        spec,
        RateSpec::Absolute(1.0),
        &mut StdRng::seed_from_u64(1),
    )
    .unwrap();
    for kind in ["RowsBlock", "ZipBlock", "ScalarFallbackBlock"] {
        let data = set_of_kind(kind, &cols, 2);
        for (b, block) in data.iter().enumerate() {
            let got = engine::execute_row_block(&plan, block.as_ref(), b, 77 + b as u64).unwrap();
            assert!(got.draws > 16_384);
            let want = reference_row_block(&plan, block.as_ref(), 77 + b as u64).unwrap();
            assert_eq!(outcome_bits(&got), want, "{kind} block {b}");
        }
    }
}

proptest! {
    /// (a) The slice fold is the per-value `offer` loop, compared on the
    /// whole accumulator, over lengths that straddle the 256-value lane
    /// and the 8 192-value batch, with every awkward value present:
    /// each cut point exactly (before and after the shift), ±∞, NaN and
    /// −0.0.
    #[test]
    fn slice_fold_is_the_offer_loop(
        len in prop_oneof![
            Just(0usize), Just(1), Just(255), Just(256), Just(257), Just(8_192), Just(8_193)
        ],
        center in -50.0f64..150.0,
        sigma in 0.5f64..30.0,
        shift in prop_oneof![Just(0.0f64), -40.0f64..40.0],
        seed in 0u64..u64::MAX,
    ) {
        let (p1, p2) = (0.5, 2.0);
        let boundaries = DataBoundaries::new(center, sigma, p1, p2);
        let cuts = [
            center - p2 * sigma,
            center - p1 * sigma,
            center + p1 * sigma,
            center + p2 * sigma,
        ];
        prop_assert_eq!(cuts[0], boundaries.s_lower());
        prop_assert_eq!(cuts[3], boundaries.l_upper());
        let mut special = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
        for cut in cuts {
            // The cut itself in the shifted domain, and the raw value
            // that the shift carries onto (or next to) it.
            special.extend([cut, cut - shift]);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<f64> = (0..len)
            .map(|_| {
                if rng.random_bool(0.1) {
                    special[rng.random_range(0..special.len())]
                } else {
                    center - shift + sigma * rng.random_range(-3.0..3.0)
                }
            })
            .collect();

        let mut sliced = SampleAccumulator::new(boundaries);
        sliced.offer_slice(&values, shift);
        let mut looped = SampleAccumulator::new(boundaries);
        for &v in &values {
            looped.offer(v + shift);
        }
        prop_assert_eq!(sliced, looped);
        // Folding in two pieces is folding once.
        let cut = rng.random_range(0..=len);
        let mut pieces = SampleAccumulator::new(boundaries);
        pieces.offer_slice(&values[..cut], shift);
        pieces.offer_slice(&values[cut..], shift);
        prop_assert_eq!(pieces, looped);
    }

    /// (b) For random specs, every projected consumer — the calculation
    /// draws, the pilot fold (one-shot and epoch-segmented) and the
    /// exact scan — gives the full-width answer bit for bit and leaves
    /// the RNG where the full-width path leaves it, on the native block
    /// and on every wrapper that only understands whole rows, with and
    /// without armed faults, strict and best-effort.
    #[test]
    fn projected_consumers_match_full_width(
        width in 1usize..=4,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cols = spec_columns(3_000, width, &mut rng);
        let spec = random_spec(width, &mut rng);
        // Every block sampled: a block the zone map decides would
        // otherwise be answered from its sketch and never drawn.
        let cfg = IslaConfig::builder().precision(1.5).sample_groups(true).build().unwrap();
        let blocks = 3;
        let strict = RecoveryPolicy::strict();
        let best_effort = RecoveryPolicy::best_effort(RetryPolicy::attempts(3));

        // --- Exact scan.
        for kind in KINDS {
            let got = engine::scan_exact_groups(&set_of_kind(kind, &cols, blocks), &spec)
                .map(|groups| {
                    groups
                        .iter()
                        .map(|g| (g.key.to_bits(), g.mean.to_bits(), g.count))
                        .collect::<Vec<_>>()
                })
                .map_err(|e| e.to_string());
            let want = reference_exact(&set_of_kind(kind, &cols, blocks), &spec)
                .map_err(|e| isla::core::IslaError::from(e).to_string());
            prop_assert_eq!(got, want, "{}: exact scan of {:?}", kind, spec);
        }

        // --- Pilot fold, one capped pass (so the reference is one
        // proportional draw), strict and best-effort.
        let pilot_rows = 700u64;
        for kind in KINDS {
            for recovery in [&strict, &best_effort] {
                let mut got_rng = StdRng::seed_from_u64(seed ^ 0xA);
                let got = engine::row_pre_estimate_with(
                    &set_of_kind(kind, &cols, blocks),
                    &cfg,
                    &spec,
                    pilot_rows,
                    recovery,
                    &mut got_rng,
                );
                let mut want_rng = StdRng::seed_from_u64(seed ^ 0xA);
                let want = reference_pilot(
                    &set_of_kind(kind, &cols, blocks),
                    &spec,
                    pilot_rows,
                    recovery,
                    &mut want_rng,
                );
                let label = format!("{kind} best_effort={} {spec:?}", recovery.is_best_effort());
                match (got, want) {
                    (Ok(pre), Ok(st)) => {
                        prop_assert!(st.matched > 0, "{}", label);
                        prop_assert_eq!(pre.pilot_rows, st.drawn, "{}", label);
                        let selectivity = st.matched as f64 / st.drawn as f64;
                        prop_assert_eq!(pre.selectivity.to_bits(), selectivity.to_bits());
                        prop_assert_eq!(pre.groups.len(), st.moments.len(), "{}", label);
                        for (g, (key, m)) in pre.groups.iter().zip(&st.moments) {
                            prop_assert_eq!(g.key_bits, *key, "{}", label);
                            prop_assert_eq!(g.pilot_matched, m.count(), "{}", label);
                            prop_assert_eq!(g.sketch0.to_bits(), m.mean().unwrap().to_bits());
                            let sigma = m.std_dev_sample().unwrap_or(0.0);
                            prop_assert_eq!(g.sigma.to_bits(), sigma.to_bits(), "{}", label);
                            let share = m.count() as f64 / st.drawn as f64;
                            prop_assert_eq!(g.share.to_bits(), share.to_bits(), "{}", label);
                        }
                    }
                    // No pilot row matched (or survived): a typed error.
                    (Err(_), Ok(st)) => prop_assert_eq!(st.matched, 0, "{}", label),
                    // A strict transient fault fails both the same way.
                    (Err(_), Err(_)) => prop_assert!(!recovery.is_best_effort(), "{}", label),
                    (Ok(_), Err(e)) => panic!("{label}: reference failed alone: {e}"),
                }
                prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64(), "{}: RNG", label);
            }
        }

        // --- The two-pass pilot and the epoch-segmented fold: whatever
        // the native block folds, every whole-row wrapper folds too.
        let native = set_of_kind("RowsBlock", &cols, blocks);
        let mut native_rng = StdRng::seed_from_u64(seed ^ 0xB);
        let native_pre = engine::row_pre_estimate_with(&native, &cfg, &spec, u64::MAX, &strict, &mut native_rng);
        let native_after = native_rng.next_u64();
        let fold_of = |data: &BlockSet| {
            let mut fold = RowPilotFold::new();
            let mut rows_through = 0;
            for b in 0..blocks {
                rows_through += data.block(b).len();
                engine::fold_row_pilot_segment(
                    &mut fold, data, b..b + 1, rows_through, &cfg, &spec, seed, 9,
                )
                .map_err(|e| e.to_string())?;
            }
            Ok::<_, String>(fold)
        };
        let native_fold = fold_of(&native);
        for kind in ["ZipBlock", "ScalarFallbackBlock"] {
            let data = set_of_kind(kind, &cols, blocks);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xB);
            let pre = engine::row_pre_estimate_with(&data, &cfg, &spec, u64::MAX, &strict, &mut rng);
            prop_assert_eq!(pre.as_ref().ok(), native_pre.as_ref().ok(), "{}: pre-estimate", kind);
            prop_assert_eq!(pre.is_err(), native_pre.is_err(), "{}", kind);
            prop_assert_eq!(rng.next_u64(), native_after, "{}: pilot RNG position", kind);
            let fold = fold_of(&data);
            prop_assert_eq!(&fold, &native_fold, "{}: epoch fold", kind);
            if let Ok(fold) = &fold {
                let finished = engine::finish_row_pilot_fold(fold, data.total_len(), &cfg);
                let native_finished = engine::finish_row_pilot_fold(
                    native_fold.as_ref().unwrap(), native.total_len(), &cfg,
                );
                prop_assert_eq!(finished.ok(), native_finished.ok(), "{}", kind);
            }
        }

        // --- Calculation draws. The plan comes from the clean set; a
        // predicate no pilot row matches has no plan to execute.
        let Ok(pre) = native_pre else { return };
        let plan = RowPlan::from_pre_estimate(&native, &cfg, spec.clone(), pre, RateSpec::Derived)
            .unwrap();
        for kind in KINDS {
            let data = set_of_kind(kind, &cols, blocks);
            let reference = set_of_kind(kind, &cols, blocks);
            for b in 0..blocks {
                // Transient blocks fail their first two accesses, then
                // recover: the projected path and the reference must
                // fail and recover in step.
                for attempt in 0..3 {
                    let got = engine::execute_row_block(&plan, data.block(b).as_ref(), b, seed ^ b as u64);
                    let want = reference_row_block(&plan, reference.block(b).as_ref(), seed ^ b as u64);
                    match (got, want) {
                        (Ok(got), Ok(want)) => {
                            prop_assert_eq!(outcome_bits(&got), want, "{} block {} {:?}", kind, b, spec);
                            break;
                        }
                        (Err(_), Err(_)) => prop_assert!(attempt < 2, "{}: never recovered", kind),
                        (got, want) => panic!(
                            "{kind} block {b}: projected {:?} vs reference {:?}",
                            got.map(|o| outcome_bits(&o)), want
                        ),
                    }
                }
            }
        }

        // --- And a whole best-effort run over an armed fault plan is
        // the same run whichever way the rows are delivered.
        let faults = FaultPlan::new(seed).transient(0.4, 2).corrupt(0.3);
        let run = |data: &BlockSet| {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC);
            engine::run_row_plan_with(&plan, &faults.arm(data), &SequentialScheduler, &best_effort, &mut rng)
                .map(|out| {
                    let groups: Vec<(u64, u64, u64, u64)> = out
                        .groups
                        .iter()
                        .map(|g| (g.key.to_bits(), g.estimate.to_bits(), g.rows_estimate.to_bits(), g.matched_draws))
                        .collect();
                    (out.estimate.to_bits(), out.total_samples, groups, rng.next_u64())
                })
                .map_err(|e| e.to_string())
        };
        let native_run = run(&native);
        for kind in ["ZipBlock", "ScalarFallbackBlock"] {
            prop_assert_eq!(&run(&set_of_kind(kind, &cols, blocks)), &native_run, "{}: armed run", kind);
        }
    }
}

// ---------------------------------------------------------------------
// Exact scans: one fold — per-block partials merged in block order —
// whoever places the blocks. Pinned against `BlockSet::exact_mean`, the
// sequential placement, and the single-accumulator MAX/MIN loop the
// fold replaced.
// ---------------------------------------------------------------------

/// Worker counts an exact scan must not be able to tell apart (the sets
/// below have 7 blocks, so 6 leaves one worker two blocks).
const EXACT_PARALLELISM: [usize; 4] = [1, 2, 3, 6];
const EXACT_BLOCKS: usize = 7;

fn pooled(workers: usize) -> PooledScheduler {
    PooledScheduler::new(workers).unwrap()
}

/// [`spec_columns`] with the even (aggregated) columns salted with the
/// values a sum's order shows up on: both zeros, magnitudes that swallow
/// their neighbours, and pairs that cancel exactly.
fn awkward_columns(n: usize, width: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    const AWKWARD: [f64; 8] = [0.0, -0.0, 1e300, -1e300, 1e16, -1e16, 1e-300, 4.5e15];
    let mut cols = spec_columns(n, width, rng);
    for col in cols.iter_mut().step_by(2) {
        for v in col.iter_mut() {
            if rng.random_bool(0.15) {
                *v = AWKWARD[rng.random_range(0..AWKWARD.len())];
            }
        }
    }
    cols
}

/// An exact grouped answer, floats as bits, errors as text.
fn exact_bits(
    answer: Result<Vec<engine::GroupExact>, IslaError>,
) -> Result<Vec<(u64, u64, u64)>, String> {
    answer
        .map(|groups| {
            groups
                .iter()
                .map(|g| (g.key.to_bits(), g.mean.to_bits(), g.count))
                .collect()
        })
        .map_err(|e| e.to_string())
}

/// The whole-set MAX/MIN loop `METHOD EXACT` used to run: one running
/// extreme carried across every chunk of every block.
fn reference_extreme(data: &BlockSet, kind: ExtremeKind) -> Result<Option<f64>, StorageError> {
    let mut extreme = match kind {
        ExtremeKind::Max => f64::NEG_INFINITY,
        ExtremeKind::Min => f64::INFINITY,
    };
    let mut any = false;
    data.scan_all_chunks(&mut |chunk| {
        any |= !chunk.is_empty();
        for &v in chunk {
            extreme = match kind {
                ExtremeKind::Max => extreme.max(v),
                ExtremeKind::Min => extreme.min(v),
            };
        }
    })?;
    Ok(any.then_some(extreme))
}

proptest! {
    /// The exact fold is one function of the data: at every worker count
    /// it returns the sequential placement's bits (and its error, on the
    /// fault kinds), for plain, filtered, grouped, filtered + grouped and
    /// zero-match specs, on every block kind; the scalar scan is
    /// `BlockSet::exact_mean`; MAX/MIN are the single-accumulator loop.
    #[test]
    fn exact_fold_is_one_function_of_the_data_at_any_parallelism(
        width in 1usize..=4,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cols = awkward_columns(2_100, width, &mut rng);
        let on_column_0 = |op, value| RowFilter::new(vec![ColumnPredicate { column: 0, op, value }]);
        let group_by = (width > 1).then_some(1);
        let mut specs = vec![
            RowSpec::column(0),
            RowSpec { agg_column: width - 1, filter: on_column_0(CmpOp::Gt, 40.0), group_by: None },
            RowSpec { agg_column: 0, filter: RowFilter::all(), group_by },
            RowSpec { agg_column: 0, filter: on_column_0(CmpOp::Le, 1e16), group_by },
            RowSpec { agg_column: 0, filter: on_column_0(CmpOp::Gt, f64::INFINITY), group_by },
        ];
        specs.extend((0..2).map(|_| random_spec(width, &mut rng)));

        for kind in KINDS {
            for spec in &specs {
                let set = || set_of_kind(kind, &cols, EXACT_BLOCKS);
                let want = exact_bits(engine::scan_exact_groups(&set(), spec));
                for workers in EXACT_PARALLELISM {
                    let got = exact_bits(engine::scan_exact_groups_on(&set(), spec, &pooled(workers)));
                    prop_assert_eq!(&got, &want, "{} on {} workers: {:?}", kind, workers, spec);
                }
            }

            // Scalar scans, over the salted column and its negation (so
            // that MIN of the one and MAX of the other land on a zero
            // whose sign the merge order must not change).
            let negated: Vec<f64> = cols[0].iter().map(|v| -v).collect();
            for column in [cols[0].clone(), negated] {
                let set = || set_of_kind(kind, std::slice::from_ref(&column), EXACT_BLOCKS);
                let want = set().exact_mean().map(f64::to_bits).map_err(|e| IslaError::from(e).to_string());
                // The ungrouped row scan folds the same values in the
                // same order as the chunk scan.
                let as_rows = exact_bits(engine::scan_exact_groups(&set(), &RowSpec::column(0)));
                prop_assert_eq!(
                    as_rows.map(|groups| groups[0].1), want.clone(), "{}: row scan vs exact_mean", kind
                );
                for workers in EXACT_PARALLELISM {
                    let got = engine::scan_exact_mean(&set(), &pooled(workers))
                        .map(f64::to_bits)
                        .map_err(|e| e.to_string());
                    prop_assert_eq!(&got, &want, "{} on {} workers: mean", kind, workers);
                    for extreme in [ExtremeKind::Max, ExtremeKind::Min] {
                        let want = reference_extreme(&set(), extreme)
                            .map(|v| v.map(f64::to_bits))
                            .map_err(|e| IslaError::from(e).to_string());
                        let got = engine::scan_exact_extreme(&set(), extreme, &pooled(workers))
                            .map(|v| v.map(f64::to_bits))
                            .map_err(|e| e.to_string());
                        prop_assert_eq!(got, want, "{} on {} workers: {:?}", kind, workers, extreme);
                    }
                }
            }
        }
    }
}

/// A width-1 block of fifty ones whose scan follows a script: what lets
/// a test decide which block fails, how, and alongside which other block.
struct ScriptedBlock(Script);

enum Script {
    Healthy,
    /// Fails with this error — once every party of the gate, when there
    /// is one, is mid-scan, so the failures are in flight together.
    Fail(fn() -> StorageError, Option<Arc<Barrier>>),
    Panic,
}

impl DataBlock for ScriptedBlock {
    fn len(&self) -> u64 {
        50
    }

    fn gather(&self, _: &[usize], _: &[u64], out: &mut [f64]) -> Result<(), StorageError> {
        out.fill(1.0);
        Ok(())
    }

    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        match &self.0 {
            Script::Healthy => {
                let ones = vec![1.0; self.len() as usize];
                visit(&vec![ones.as_slice(); columns.len()]);
                Ok(())
            }
            Script::Fail(error, gate) => {
                if let Some(gate) = gate {
                    gate.wait();
                }
                Err(error())
            }
            Script::Panic => panic!("scripted block panic"),
        }
    }
}

/// A block that overrides **every** `DataBlock` method to do nothing but
/// write its own name down: what ran is then the override itself, never
/// a trait default reaching it through another method.
#[derive(Default)]
struct RecordingBlock(Mutex<Vec<&'static str>>);

impl RecordingBlock {
    fn ran(&self, method: &'static str) {
        self.0.lock().unwrap().push(method);
    }
}

impl DataBlock for RecordingBlock {
    fn len(&self) -> u64 {
        self.ran("len");
        1
    }
    fn is_empty(&self) -> bool {
        self.ran("is_empty");
        false
    }
    fn width(&self) -> usize {
        self.ran("width");
        1
    }
    fn gather(&self, _: &[usize], _: &[u64], _: &mut [f64]) -> Result<(), StorageError> {
        self.ran("gather");
        Ok(())
    }
    fn draw(
        &self,
        _: &mut dyn RngCore,
        _: &[usize],
        _: &mut [u64],
        _: &mut [f64],
    ) -> Result<(), StorageError> {
        self.ran("draw");
        Ok(())
    }
    fn scan_column_chunks(
        &self,
        _: &[usize],
        _: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        self.ran("scan_column_chunks");
        Ok(())
    }
    fn supports_scan(&self) -> bool {
        self.ran("supports_scan");
        true
    }
    fn sketch(&self) -> Option<Arc<BlockSketch>> {
        self.ran("sketch");
        None
    }
    fn zone(&self, _: &RowFilter) -> ZoneMatch {
        self.ran("zone");
        ZoneMatch::Mixed
    }
    fn project(&self, _: usize) -> Option<Arc<dyn DataBlock>> {
        self.ran("project");
        None
    }
}

/// Calls every `DataBlock` method of `block` once, as `B`'s own impl
/// (static dispatch: no auto-deref to the pointee), in declaration order.
fn drive_every_method<B: DataBlock>(block: &B) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut out = [0.0];
    let filter = RowFilter::new(vec![]);
    B::len(block);
    B::is_empty(block);
    B::width(block);
    B::gather(block, &[0], &[0], &mut out).unwrap();
    B::draw(block, &mut rng, &[0], &mut [0], &mut out).unwrap();
    B::scan_column_chunks(block, &[0], &mut |_| {}).unwrap();
    B::supports_scan(block);
    B::sketch(block);
    B::zone(block, &filter);
    B::project(block, 0);
}

#[test]
fn every_method_reaches_the_pointee_through_every_pointer_kind() {
    // A forgotten forward silently falls back to the trait default —
    // same answers, scalar speed — which no answer-level test notices.
    // The trait's own method list, read off its source so that a new
    // method fails here until it is forwarded and driven.
    let source = include_str!("../crates/storage/src/block.rs");
    let (_, rest) = source.split_once("pub trait DataBlock").unwrap();
    let (trait_body, _) = rest.split_once("\nimpl<").unwrap();
    let declared: Vec<&str> = trait_body
        .lines()
        .filter_map(|line| line.strip_prefix("    fn "))
        .map(|line| line.split_once('(').unwrap().0)
        .collect();
    assert_eq!(declared.len(), 10, "{declared:?}");

    let ran = |drive: &dyn Fn(Arc<RecordingBlock>)| {
        let block = Arc::new(RecordingBlock::default());
        drive(Arc::clone(&block));
        let ran = block.0.lock().unwrap().clone();
        ran
    };
    let unsize = |block: Arc<RecordingBlock>| block as Arc<dyn DataBlock>;
    let by_ref = ran(&|block| drive_every_method::<&RecordingBlock>(&&*block));
    let by_dyn_ref = ran(&|block| drive_every_method::<&dyn DataBlock>(&(&*block as _)));
    let by_arc = ran(&|block| drive_every_method::<Arc<RecordingBlock>>(&block));
    let by_dyn_arc = ran(&|block| drive_every_method::<Arc<dyn DataBlock>>(&unsize(block)));
    let by_dyn_box =
        ran(&|block| drive_every_method::<Box<dyn DataBlock>>(&(Box::new(unsize(block)) as _)));
    for (pointer, ran) in [
        ("&T", by_ref),
        ("&dyn DataBlock", by_dyn_ref),
        ("Arc<T>", by_arc),
        ("Arc<dyn DataBlock>", by_dyn_arc),
        ("Box<dyn DataBlock>", by_dyn_box),
    ] {
        assert_eq!(ran, declared, "through {pointer}");
    }
}

/// Eight scripted blocks, healthy except where `script` says otherwise.
fn scripted_set(script: impl Fn(usize) -> Script) -> BlockSet {
    BlockSet::new(
        (0..8)
            .map(|i| Arc::new(ScriptedBlock(script(i))) as Arc<dyn DataBlock>)
            .collect(),
    )
}

/// The three exact entry points over one freshly built set each.
fn exact_scans(
    set: impl Fn() -> BlockSet,
    scheduler: &PooledScheduler,
) -> [Result<(), IslaError>; 3] {
    [
        engine::scan_exact_mean(&set(), scheduler).map(drop),
        engine::scan_exact_groups_on(&set(), &RowSpec::column(0), scheduler).map(drop),
        engine::scan_exact_extreme(&set(), ExtremeKind::Max, scheduler).map(drop),
    ]
}

#[test]
fn exact_scans_fail_strictly_with_the_lowest_failing_block_at_every_parallelism() {
    let unavailable = || StorageError::Unavailable {
        attempt: 1,
        detail: "scripted".to_string(),
    };
    let lost = || StorageError::BlockLost {
        detail: "scripted".to_string(),
    };
    let values: Vec<f64> = (0..800).map(f64::from).collect();
    let clean = BlockSet::from_values(values, 8);
    for workers in EXACT_PARALLELISM {
        for _ in 0..10 {
            // Blocks 2 and 5 both fail, with errors that tell them apart.
            let faulty = || {
                BlockSet::new(
                    (0..8)
                        .map(|i| {
                            let fault = match i {
                                2 => BlockFault::Transient { failures: 1 },
                                5 => BlockFault::Lost,
                                _ => BlockFault::None,
                            };
                            Arc::new(FaultyBlock::new(Arc::clone(clean.block(i)), fault, None))
                                as Arc<dyn DataBlock>
                        })
                        .collect(),
                )
            };
            // The same pair, held at a gate until both are mid-scan: on
            // a pool either may finish first.
            let gated = || {
                let gate = (workers > 1).then(|| Arc::new(Barrier::new(2)));
                scripted_set(|i| match i {
                    2 => Script::Fail(unavailable, gate.clone()),
                    5 => Script::Fail(lost, gate.clone()),
                    _ => Script::Healthy,
                })
            };
            let results = exact_scans(faulty, &pooled(workers))
                .into_iter()
                .chain(exact_scans(gated, &pooled(workers)));
            for result in results {
                assert!(
                    matches!(
                        result,
                        Err(IslaError::Storage(StorageError::Unavailable {
                            attempt: 1,
                            ..
                        }))
                    ),
                    "{workers} workers: expected block 2's own error, got {result:?}"
                );
            }
        }
    }
}

#[test]
fn exact_scans_surface_a_panicking_block_as_a_typed_error() {
    for workers in EXACT_PARALLELISM {
        let set = || {
            scripted_set(|i| match i {
                3 => Script::Panic,
                _ => Script::Healthy,
            })
        };
        for result in exact_scans(set, &pooled(workers)) {
            match result {
                Err(IslaError::Internal(msg)) => {
                    assert!(msg.contains("block 3"), "{workers} workers: {msg}");
                }
                other => panic!("{workers} workers: expected a typed error, got {other:?}"),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Predicates at column speed: `scan_column_chunks` delivers the projected
// row scan's values as aligned column slices, and `RowFilter::select`
// evaluates a conjunction over such a chunk. The two consumers that used
// to evaluate a `WHERE` clause one row at a time — selection builds and
// the exact grouped scan — are pinned against the per-row loops they
// replaced, rebuilt below from `scan_rows` / `scan_rows_projected` +
// `RowFilter::matches`.
// ---------------------------------------------------------------------

/// Values a comparison is most likely to get wrong: NaN on either side,
/// both zeros, both infinities.
const SALT: [f64; 5] = [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];

/// A small-integer value (so `=` and `!=` both hit), salted.
fn salted_value(rng: &mut StdRng) -> f64 {
    if rng.random_bool(0.2) {
        SALT[rng.random_range(0..SALT.len())]
    } else {
        f64::from(rng.random_range(-2i32..3))
    }
}

const ALL_OPS: [CmpOp; 6] = [
    CmpOp::Gt,
    CmpOp::Lt,
    CmpOp::Ge,
    CmpOp::Le,
    CmpOp::Eq,
    CmpOp::Ne,
];

proptest! {
    /// (1) `select` is `matches` applied row by row, for every operator,
    /// 0–3 conjuncts (duplicates and two on one column included), NaN,
    /// ±0.0 and ±∞ among the values and the literals, chunk lengths
    /// around the scan chunk size, and a non-zero base.
    #[test]
    fn select_is_the_per_row_filter(
        len in prop_oneof![
            Just(0usize),
            Just(1),
            Just(SCAN_CHUNK_ROWS - 1),
            Just(SCAN_CHUNK_ROWS),
            Just(SCAN_CHUNK_ROWS + 1)
        ],
        conjuncts in 0usize..=3,
        base in prop_oneof![Just(0u32), 1u32..1_000_000, Just(u32::MAX - SCAN_CHUNK_ROWS as u32 - 1)],
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let width = 3;
        let cols: Vec<Vec<f64>> = (0..width)
            .map(|_| (0..len).map(|_| salted_value(&mut rng)).collect())
            .collect();
        let mut predicates: Vec<ColumnPredicate> = Vec::new();
        for _ in 0..conjuncts {
            let next = match predicates.last() {
                // A duplicated conjunct.
                Some(&last) if rng.random_bool(0.2) => last,
                // A second conjunct on the same column.
                Some(&last) if rng.random_bool(0.3) => ColumnPredicate {
                    column: last.column,
                    op: ALL_OPS[rng.random_range(0..ALL_OPS.len())],
                    value: salted_value(&mut rng),
                },
                _ => ColumnPredicate {
                    column: rng.random_range(0..width),
                    op: ALL_OPS[rng.random_range(0..ALL_OPS.len())],
                    value: salted_value(&mut rng),
                },
            };
            predicates.push(next);
        }
        let filter = RowFilter::new(predicates);

        let chunk: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        // Whatever the list held before is gone.
        let mut got = vec![7u32; 5];
        filter.select(&chunk, base, &mut got);
        let want: Vec<u32> = (0..len)
            .filter(|&i| {
                let row: Vec<f64> = cols.iter().map(|c| c[i]).collect();
                filter.matches(&row)
            })
            .map(|i| base + i as u32)
            .collect();
        prop_assert_eq!(got, want, "{:?} over {} rows from {}", filter, len, base);
    }
}

/// One block's projected row scan, transposed: a value list per
/// projected column, floats as bits.
fn transposed_row_scan(
    block: &dyn DataBlock,
    projection: &[usize],
) -> Result<Vec<Vec<u64>>, StorageError> {
    let mut lanes = vec![Vec::new(); projection.len()];
    block.scan_rows_projected(projection, &mut |row| {
        for (lane, v) in lanes.iter_mut().zip(row) {
            lane.push(v.to_bits());
        }
    })?;
    Ok(lanes)
}

/// One block's column-chunk scan, concatenated per column; every chunk
/// checked for shape on the way (one slice per projected column, all of
/// one length between 1 and `SCAN_CHUNK_ROWS`). Also returns the number
/// of chunks delivered.
fn concatenated_chunk_scan(
    block: &dyn DataBlock,
    projection: &[usize],
) -> (Result<Vec<Vec<u64>>, StorageError>, usize) {
    let mut lanes = vec![Vec::new(); projection.len()];
    let mut chunks = 0;
    let result = block.scan_column_chunks(projection, &mut |chunk| {
        chunks += 1;
        assert_eq!(chunk.len(), projection.len());
        let rows = chunk[0].len();
        assert!(
            (1..=SCAN_CHUNK_ROWS).contains(&rows),
            "chunk of {rows} rows"
        );
        for (lane, col) in lanes.iter_mut().zip(chunk) {
            assert_eq!(col.len(), rows, "chunk columns must be aligned");
            lane.extend(col.iter().map(|v| v.to_bits()));
        }
    });
    (result.map(|()| lanes), chunks)
}

#[test]
fn column_chunks_are_the_projected_row_scan_transposed_on_every_block_kind() {
    // (2) Blocks of 2.5 chunks each, so full chunks, a chunk boundary
    // and a short tail all occur; projections in descending order and
    // with repeated columns.
    let mut rng = StdRng::seed_from_u64(0xC4A2);
    let blocks = 2;
    let rows = blocks * (2 * SCAN_CHUNK_ROWS + SCAN_CHUNK_ROWS / 2);
    for width in [1usize, 2, 4] {
        let cols = spec_columns(rows, width, &mut rng);
        let mut projections: Vec<Vec<usize>> = vec![
            (0..width).rev().collect(),
            vec![width - 1, width - 1],
            vec![0],
        ];
        projections.extend((0..3).map(|_| {
            (0..rng.random_range(1..=width + 1))
                .map(|_| rng.random_range(0..width))
                .collect()
        }));
        for kind in KINDS {
            for projection in &projections {
                let data = set_of_kind(kind, &cols, blocks);
                let reference = set_of_kind(kind, &cols, blocks);
                for (block, reference) in data.iter().zip(reference.iter()) {
                    // A transient block fails its first two accesses —
                    // before any chunk is delivered — then recovers; the
                    // row scan fails and recovers in step.
                    for attempt in 0..3 {
                        let (got, chunks) = concatenated_chunk_scan(block.as_ref(), projection);
                        let want = transposed_row_scan(reference.as_ref(), projection);
                        match (got, want) {
                            (Ok(got), Ok(want)) => {
                                assert_eq!(got, want, "{kind} w{width} {projection:?}");
                                assert_eq!(chunks, 3, "{kind}: 2.5 chunks of rows");
                                break;
                            }
                            (Err(got), Err(want)) => {
                                assert_eq!(got.to_string(), want.to_string(), "{kind}");
                                assert_eq!(chunks, 0, "{kind}: a chunk preceded the fault");
                                assert!(attempt < 2, "{kind}: never recovered");
                            }
                            (got, want) => panic!("{kind}: chunks {got:?} vs rows {want:?}"),
                        }
                    }
                }
            }
        }
    }

    // A lost block fails before its first chunk too.
    let cols = spec_columns(100, 2, &mut rng);
    let lost = FaultyBlock::new(block_of_kind("RowsBlock", &cols), BlockFault::Lost, None);
    let (result, chunks) = concatenated_chunk_scan(&lost, &[1, 0]);
    assert!(matches!(result, Err(StorageError::BlockLost { .. })));
    assert_eq!(chunks, 0);

    // The columnar block hands out windows onto its own storage; the
    // scalar-fallback wrapper hides that override, so the same scan
    // through it is the trait default's transposing copy.
    let native = RowsBlock::new(cols.clone());
    native
        .scan_column_chunks(&[1], &mut |chunk| {
            assert!(std::ptr::eq(chunk[0].as_ptr(), native.column(1).as_ptr()));
        })
        .unwrap();
    let fallback = ScalarFallbackBlock(Arc::new(native.clone()));
    fallback
        .scan_column_chunks(&[1], &mut |chunk| {
            assert!(!std::ptr::eq(chunk[0].as_ptr(), native.column(1).as_ptr()));
            assert_eq!(chunk[0], native.column(1));
        })
        .unwrap();

    // An empty block delivers no chunk, natively or by default.
    let empty = RowsBlock::new(vec![Vec::new(), Vec::new()]);
    for block in [
        Arc::new(empty.clone()) as Arc<dyn DataBlock>,
        Arc::new(ScalarFallbackBlock(Arc::new(empty))),
    ] {
        let (result, chunks) = concatenated_chunk_scan(block.as_ref(), &[0, 1]);
        assert_eq!(result.unwrap(), vec![Vec::<u64>::new(); 2]);
        assert_eq!(chunks, 0);
    }
}

/// `SelectionVector::build` as it was: every row assembled full width,
/// one `matches` per row, one `u32` row counter guarded at the index
/// space's end.
fn reference_selection(
    block: &dyn DataBlock,
    filter: &RowFilter,
) -> Result<Vec<u32>, StorageError> {
    let mut indices = Vec::new();
    let mut rows_seen: u64 = 0;
    block.scan_rows(&mut |row| {
        if rows_seen < u64::from(u32::MAX) && filter.matches(row) {
            indices.push(rows_seen as u32);
        }
        rows_seen += 1;
    })?;
    if rows_seen > u64::from(u32::MAX) {
        return Err(StorageError::BlockTooLarge { rows: rows_seen });
    }
    Ok(indices)
}

/// A block that claims ten rows and scans to one more than the `u32`
/// index space holds, as full chunks of zeros.
struct UnderReportingBlock;

impl DataBlock for UnderReportingBlock {
    fn len(&self) -> u64 {
        10
    }

    fn gather(&self, _: &[usize], _: &[u64], out: &mut [f64]) -> Result<(), StorageError> {
        out.fill(0.0);
        Ok(())
    }

    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        let zeros = vec![0.0; SCAN_CHUNK_ROWS];
        let chunk = vec![zeros.as_slice(); columns.len()];
        let total = u64::from(u32::MAX) + 1;
        for _ in 0..total / SCAN_CHUNK_ROWS as u64 {
            visit(&chunk);
        }
        Ok(())
    }
}

#[test]
fn selection_builds_match_the_per_row_build_on_every_block_kind() {
    // (3) Multi-chunk blocks, random conjunctions (the trivial filter
    // among them), every block kind — a transient block failing and
    // recovering in step with the reference, a corrupt one comparing
    // NaN against every operator.
    let mut rng = StdRng::seed_from_u64(0x5E1);
    let blocks = 2;
    let rows = blocks * (SCAN_CHUNK_ROWS + SCAN_CHUNK_ROWS / 3);
    for width in [1usize, 2, 4] {
        let cols = spec_columns(rows, width, &mut rng);
        let mut filters: Vec<RowFilter> = (0..4)
            .map(|_| random_spec(width, &mut rng).filter)
            .collect();
        filters.push(RowFilter::all());
        for kind in KINDS {
            for filter in &filters {
                let data = set_of_kind(kind, &cols, blocks);
                let reference = set_of_kind(kind, &cols, blocks);
                for (block, reference) in data.iter().zip(reference.iter()) {
                    for attempt in 0..3 {
                        let got = SelectionVector::build(block.as_ref(), filter);
                        let want = reference_selection(reference.as_ref(), filter);
                        match (got, want) {
                            (Ok(got), Ok(want)) => {
                                let got = got.expect("every kind here scans");
                                assert_eq!(got.indices(), &want[..], "{kind} {filter:?}");
                                assert_eq!(got.match_count(), want.len() as u64);
                                break;
                            }
                            (Err(got), Err(want)) => {
                                assert_eq!(got.to_string(), want.to_string(), "{kind}");
                                assert!(attempt < 2, "{kind}: never recovered");
                            }
                            (got, want) => panic!("{kind}: built {got:?} vs reference {want:?}"),
                        }
                    }
                }
            }
        }
    }

    // Pruned ≡ scanned: on range-partitioned data the sketches prove
    // most blocks matchless, and the set selection is the same set
    // selection, block by block, with or without them.
    let sorted: Vec<f64> = (0..rows).map(|i| i as f64).collect();
    let noise = spec_columns(rows, 1, &mut rng).remove(0);
    let set = RowsBlock::split(vec![sorted, noise], 6);
    let set_blocks: Vec<Arc<dyn DataBlock>> = set.iter().map(Arc::clone).collect();
    let sketches = set.sketches().unwrap();
    for filter in [
        RowFilter::new(vec![ColumnPredicate {
            column: 0,
            op: CmpOp::Gt,
            value: rows as f64 * 0.8,
        }]),
        RowFilter::new(vec![
            ColumnPredicate {
                column: 0,
                op: CmpOp::Le,
                value: rows as f64 * 0.3,
            },
            ColumnPredicate {
                column: 1,
                op: CmpOp::Gt,
                value: 50.0,
            },
        ]),
    ] {
        let pruned = SetSelection::build(&set_blocks, &filter, Some(&sketches)).unwrap();
        let scanned = SetSelection::build(&set_blocks, &filter, None).unwrap();
        assert!(pruned.pruned_blocks() >= 3, "{filter:?}");
        assert_eq!(scanned.pruned_blocks(), 0);
        assert_eq!(pruned.total_matches(), scanned.total_matches());
        for (b, block) in set_blocks.iter().enumerate() {
            let want = reference_selection(block.as_ref(), &filter).unwrap();
            assert_eq!(pruned.block(b).unwrap().indices(), &want[..], "block {b}");
            assert_eq!(scanned.block(b).unwrap().indices(), &want[..], "block {b}");
        }
    }
}

/// A block that under-reports its length is still caught mid-scan: a
/// structured error, not indices wrapped past the `u32` space.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "2^32 rows through an unoptimized select take over a minute; runs under --release"
)]
fn selection_builds_still_catch_a_block_that_under_reports_its_length() {
    let nothing = RowFilter::new(vec![ColumnPredicate {
        column: 0,
        op: CmpOp::Gt,
        value: 1.0,
    }]);
    assert!(matches!(
        SelectionVector::build(&UnderReportingBlock, &nothing),
        Err(StorageError::BlockTooLarge { rows }) if rows == u64::from(u32::MAX) + 1
    ));
}

/// `scan_exact_groups_on` as it was: each block's projected rows, one
/// `matches` and one map lookup per row, an `ExactSum` per group key;
/// block partials merged in block order.
fn reference_exact_fold(data: &BlockSet, spec: &RowSpec) -> Result<Vec<(u64, u64, u64)>, String> {
    let (columns, filter) = spec
        .filter
        .projected([spec.agg_column].into_iter().chain(spec.group_by));
    let at = |col: usize| columns.partition_point(|&c| c < col);
    let (agg, group) = (at(spec.agg_column), spec.group_by.map(at));
    let mut total: BTreeMap<u64, ExactSum> = BTreeMap::new();
    for block in data.iter() {
        let mut groups: BTreeMap<u64, ExactSum> = BTreeMap::new();
        block
            .scan_rows_projected(&columns, &mut |row| {
                if filter.matches(row) {
                    let key = group.map_or(0f64, |g| row[g]).to_bits();
                    groups.entry(key).or_default().add(row[agg]);
                }
            })
            .map_err(|e| IslaError::from(e).to_string())?;
        for (key, sum) in groups {
            total.entry(key).or_default().merge(&sum);
        }
    }
    let mut out: Vec<(u64, u64, u64)> = total
        .into_iter()
        .filter_map(|(key, sum)| Some((key, sum.mean()?.to_bits(), sum.count())))
        .collect();
    out.sort_by(|a, b| f64::from_bits(a.0).total_cmp(&f64::from_bits(b.0)));
    Ok(out)
}

#[test]
fn exact_group_scans_match_the_per_row_fold_on_every_block_kind() {
    // (4) The PR-14 salted columns (±1e300, ±1e16, 1e-300, both zeros),
    // in blocks longer than a scan chunk; the group column in long runs
    // that cross chunk boundaries, short runs, and with a −0.0 key that
    // must stay its own group.
    let mut rng = StdRng::seed_from_u64(0xE7AC);
    let rows = EXACT_BLOCKS * (SCAN_CHUNK_ROWS + 11);
    for width in [1usize, 3] {
        let mut cols = awkward_columns(rows, width, &mut rng);
        if width > 1 {
            let run = [7, 1_000, SCAN_CHUNK_ROWS - 3][rng.random_range(0..3usize)];
            for (i, key) in cols[1].iter_mut().enumerate() {
                *key = match (i / run) % 5 {
                    4 => -0.0,
                    k => k as f64,
                };
            }
        }
        let on_column_0 = |op, value| {
            RowFilter::new(vec![ColumnPredicate {
                column: 0,
                op,
                value,
            }])
        };
        let group_by = (width > 1).then_some(1);
        let mut specs = vec![
            // Plain, filtered, grouped, filtered + grouped, zero-match.
            RowSpec::column(0),
            RowSpec {
                agg_column: width - 1,
                filter: on_column_0(CmpOp::Gt, 40.0),
                group_by: None,
            },
            RowSpec {
                agg_column: 0,
                filter: RowFilter::all(),
                group_by,
            },
            RowSpec {
                agg_column: 0,
                filter: on_column_0(CmpOp::Le, 1e16),
                group_by,
            },
            RowSpec {
                agg_column: 0,
                filter: on_column_0(CmpOp::Gt, f64::INFINITY),
                group_by,
            },
        ];
        specs.extend((0..2).map(|_| random_spec(width, &mut rng)));

        for kind in KINDS {
            for spec in &specs {
                let set = || set_of_kind(kind, &cols, EXACT_BLOCKS);
                let want = reference_exact_fold(&set(), spec);
                for workers in EXACT_PARALLELISM {
                    let got =
                        exact_bits(engine::scan_exact_groups_on(&set(), spec, &pooled(workers)));
                    assert_eq!(got, want, "{kind} on {workers} workers: {spec:?}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Zone verdicts: a row draw first asks the block what its min/max zone
// map decides about the filter, skips the reads of a block that cannot
// match and drops the filter's columns where every row matches. Pinned
// two ways: the verdict itself against brute force, and every consumer
// (one-shot, capped and epoch-segmented pilots, the Calculation phase)
// against the same blocks with the sketch hidden — `scalar_fallback_set`
// answers `Mixed` everywhere, which is the path before zones existed.
// ---------------------------------------------------------------------

proptest! {
    /// A decided verdict is a theorem about the rows: `Matchless` ⇒ no
    /// row matches, `AllMatch` ⇒ every row matches — on small-integer
    /// data so literals land on the bounds, with NaN literals, columns
    /// holding non-finite values and conjuncts beyond the sketch's
    /// width. `proves_matchless` (through the selection build's pruned
    /// flags) is the `Matchless` verdict, and a block answers for its
    /// own sketch unless an armed fault stands between it and the rows.
    #[test]
    fn zone_verdicts_hold_for_every_row(seed in 0u64..u64::MAX) {
        use isla::storage::zone_match;
        let mut rng = StdRng::seed_from_u64(seed);
        let width = rng.random_range(1usize..=3);
        let rows = rng.random_range(0usize..40);
        let span = rng.random_range(1u32..6);
        let dirty = rng.random_bool(0.3);
        let cols: Vec<Vec<f64>> = (0..width)
            .map(|_| {
                (0..rows)
                    .map(|_| match rng.random_range(0u32..40) {
                        0 if dirty => f64::NAN,
                        1 if dirty => f64::INFINITY,
                        _ => f64::from(rng.random_range(0..span)),
                    })
                    .collect()
            })
            .collect();
        let sketch = BlockSketch::from_columns(&cols);
        let ops = [CmpOp::Gt, CmpOp::Lt, CmpOp::Ge, CmpOp::Le, CmpOp::Eq, CmpOp::Ne];
        for _ in 0..24 {
            let predicates: Vec<ColumnPredicate> = (0..rng.random_range(0usize..4))
                .map(|_| ColumnPredicate {
                    // One column past the sketch, now and then.
                    column: rng.random_range(0..=width),
                    op: ops[rng.random_range(0..ops.len())],
                    value: match rng.random_range(0u32..12) {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        _ => f64::from(rng.random_range(0..span + 2)) - 1.0,
                    },
                })
                .collect();
            let filter = RowFilter::new(predicates);
            let covered = filter.max_column().is_none_or(|c| c < width);
            let verdict = zone_match(&sketch, &filter);
            if covered {
                let matching = (0..rows)
                    .filter(|&i| {
                        let row: Vec<f64> = cols.iter().map(|c| c[i]).collect();
                        filter.matches(&row)
                    })
                    .count();
                match verdict {
                    ZoneMatch::Matchless => prop_assert_eq!(matching, 0, "{:?} on {:?}", filter, cols),
                    ZoneMatch::AllMatch => prop_assert_eq!(matching, rows, "{:?} on {:?}", filter, cols),
                    ZoneMatch::Mixed => {}
                }
            } else {
                // An uncovered conjunct never helps decide; the covered
                // ones may still prove the block matchless.
                prop_assert_ne!(verdict, ZoneMatch::AllMatch, "{:?}", filter);
            }
            if !covered || dirty || rows == 0 {
                continue;
            }
            // Finite, non-empty, covered: the block kinds that carry a
            // sketch answer with its verdict, the selection build prunes
            // exactly the matchless ones, and wrappers that hide the
            // sketch or guard the reads decide nothing.
            for kind in ["RowsBlock", "ZipBlock"] {
                prop_assert_eq!(block_of_kind(kind, &cols).zone(&filter), verdict, "{}", kind);
            }
            for kind in ["ScalarFallbackBlock", "FaultyBlock(transient)", "FaultyBlock(corrupt)"] {
                prop_assert_eq!(block_of_kind(kind, &cols).zone(&filter), ZoneMatch::Mixed, "{}", kind);
            }
            let set = set_of_kind("RowsBlock", &cols, 1);
            let blocks: Vec<_> = set.iter().map(Arc::clone).collect();
            let selection = SetSelection::build(&blocks, &filter, Some(&set.sketches().unwrap())).unwrap();
            prop_assert_eq!(selection.pruned_blocks() == 1, verdict == ZoneMatch::Matchless);
        }
    }
}

/// A scalar block that sketches whatever it holds, NaN included (no
/// in-memory kind accepts a non-finite value), or hides its sketch.
struct LooseColumn {
    values: Vec<f64>,
    sketch: Option<Arc<BlockSketch>>,
}

impl LooseColumn {
    fn new(values: Vec<f64>, sketched: bool) -> Self {
        let sketch = sketched.then(|| Arc::new(BlockSketch::from_values(&values)));
        Self { values, sketch }
    }
}

impl DataBlock for LooseColumn {
    fn len(&self) -> u64 {
        self.values.len() as u64
    }

    fn gather(&self, _: &[usize], indices: &[u64], out: &mut [f64]) -> Result<(), StorageError> {
        for (slot, &i) in out.iter_mut().zip(indices) {
            *slot = self.values[i as usize];
        }
        Ok(())
    }

    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        if !self.values.is_empty() {
            visit(&vec![self.values.as_slice(); columns.len()]);
        }
        Ok(())
    }

    fn sketch(&self) -> Option<Arc<BlockSketch>> {
        self.sketch.clone()
    }
}

/// `DataBlock::zone` as the trait's default computes it: the verdict of
/// the block's `sketch()` hook when every value it folded is finite,
/// `Mixed` otherwise.
fn default_zone(block: &dyn DataBlock, filter: &RowFilter) -> ZoneMatch {
    match block.sketch() {
        Some(sketch) if sketch.all_finite() => isla::storage::zone_match(&sketch, filter),
        _ => ZoneMatch::Mixed,
    }
}

#[test]
fn borrowed_zone_verdicts_equal_the_default_on_every_overriding_kind() {
    // `RowsBlock` (width 1 and wider) and `ZipBlock` answer `zone` from the
    // sketch they hold, without an `Arc` round trip; the answer must be
    // the default's, whatever the block and the filter.
    let ts: Vec<f64> = (1..=10).map(f64::from).collect();
    let price: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 10.0).collect();
    let mut dirty = price.clone();
    dirty[3] = f64::NAN;
    let mem = |v: &[f64]| Arc::new(RowsBlock::new(vec![v.to_vec()])) as Arc<dyn DataBlock>;
    let loose = |v: &[f64], sketched| Arc::new(LooseColumn::new(v.to_vec(), sketched));
    let rows = |cols: Vec<Vec<f64>>| Arc::new(RowsBlock::new(cols)) as Arc<dyn DataBlock>;
    let zip = |cols: Vec<Arc<dyn DataBlock>>| Arc::new(ZipBlock::new(cols)) as Arc<dyn DataBlock>;
    let blocks: Vec<(&str, Arc<dyn DataBlock>)> = vec![
        ("RowsBlock(width 1)", mem(&ts)),
        ("RowsBlock(width 1, empty)", mem(&[])),
        ("RowsBlock", rows(vec![ts.clone(), price.clone()])),
        ("RowsBlock(empty)", rows(vec![vec![], vec![]])),
        ("ZipBlock", zip(vec![mem(&ts), mem(&price)])),
        ("ZipBlock(empty)", zip(vec![mem(&[]), mem(&[])])),
        (
            "ZipBlock(non-finite)",
            zip(vec![mem(&ts), loose(&dirty, true)]),
        ),
        (
            "ZipBlock(sketchless)",
            zip(vec![mem(&ts), loose(&price, false)]),
        ),
    ];
    let pred = |column, op, value| ColumnPredicate { column, op, value };
    let filters = [
        ("trivial", RowFilter::all()),
        ("matchless", RowFilter::new(vec![pred(0, CmpOp::Gt, 50.0)])),
        ("all-match", RowFilter::new(vec![pred(0, CmpOp::Ge, 1.0)])),
        ("mixed", RowFilter::new(vec![pred(0, CmpOp::Gt, 5.0)])),
        (
            "second column",
            RowFilter::new(vec![pred(0, CmpOp::Ge, 1.0), pred(1, CmpOp::Lt, 300.0)]),
        ),
        ("= NaN", RowFilter::new(vec![pred(0, CmpOp::Eq, f64::NAN)])),
        ("< NaN", RowFilter::new(vec![pred(0, CmpOp::Lt, f64::NAN)])),
        ("≠ NaN", RowFilter::new(vec![pred(0, CmpOp::Ne, f64::NAN)])),
        (
            "past the width",
            RowFilter::new(vec![pred(7, CmpOp::Gt, 0.0)]),
        ),
    ];
    let mut seen = Vec::new();
    for (kind, block) in &blocks {
        for (name, filter) in &filters {
            let want = default_zone(block.as_ref(), filter);
            assert_eq!(block.zone(filter), want, "{kind} under {name}");
            seen.push(want);
        }
    }
    // Every verdict occurs, so the comparison is never vacuous.
    for verdict in [ZoneMatch::Matchless, ZoneMatch::AllMatch, ZoneMatch::Mixed] {
        assert!(seen.contains(&verdict), "no block answered {verdict:?}");
    }
}

/// A sales-like table range-partitioned on `ts` (column 0, ascending
/// row ids, so block `b` of `blocks` covers one contiguous `ts` range):
/// `amount` (1) drifts with `ts` so a wrong block weight shows in the
/// answer, `store` (2) is a small-integer group key and `margin` (3) an
/// unclustered continuous column.
fn clustered_columns(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ts: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let amount = ts
        .iter()
        .map(|t| 50.0 + 40.0 * t / n as f64 + rng.random_range(-15.0..15.0))
        .collect();
    let store = (0..n)
        .map(|_| f64::from(rng.random_range(0u32..3)))
        .collect();
    let margin = (0..n).map(|_| rng.random_range(0.0..100.0)).collect();
    vec![ts, amount, store, margin]
}

fn zoned_spec(filter: Vec<(usize, CmpOp, f64)>, group_by: Option<usize>) -> RowSpec {
    RowSpec {
        agg_column: 1,
        filter: RowFilter::new(
            filter
                .into_iter()
                .map(|(column, op, value)| ColumnPredicate { column, op, value })
                .collect(),
        ),
        group_by,
    }
}

/// A grouped answer, every number as bits, without the read count.
type AnswerBits = (u64, u64, Vec<(u64, u64, u64, u64, bool)>);

fn answer_bits(out: &engine::GroupedEngineResult) -> AnswerBits {
    (
        out.estimate.to_bits(),
        out.matched_rows.to_bits(),
        out.groups
            .iter()
            .map(|g| {
                (
                    g.key.to_bits(),
                    g.estimate.to_bits(),
                    g.rows_estimate.to_bits(),
                    g.matched_draws,
                    g.planned,
                )
            })
            .collect(),
    )
}

#[test]
fn zoned_row_draws_match_the_sketchless_reference_and_read_less() {
    const ROWS: usize = 48_000;
    const BLOCKS: usize = 8;
    let per_block = (ROWS / BLOCKS) as f64;
    let cols = clustered_columns(ROWS, 0x20E);
    let native = RowsBlock::split(cols, BLOCKS);
    let reference = scalar_fallback_set(&native);
    // The zoned reads under test: with the split on, a block the zone
    // map decides everywhere would be answered from its sketch instead.
    let cfg = IslaConfig::builder()
        .precision(0.4)
        .sample_groups(true)
        .build()
        .unwrap();
    let strict = RecoveryPolicy::strict();
    let best_effort = RecoveryPolicy::best_effort(RetryPolicy::attempts(2));

    // (spec, blocks the zone map proves matchless).
    let half = 4.0 * per_block - 0.5;
    let cases: Vec<(&str, RowSpec, usize)> = vec![
        // Half the blocks cannot match, the other half match everywhere.
        ("ts > half", zoned_spec(vec![(0, CmpOp::Gt, half)], None), 4),
        // The cut falls inside block 2: one undecided block.
        (
            "ts >= inside",
            zoned_spec(vec![(0, CmpOp::Ge, 2.5 * per_block)], None),
            2,
        ),
        // Two-sided range, grouped: blocks 0, 6, 7 out; 1 and 5 cut.
        (
            "range GROUP BY store",
            zoned_spec(
                vec![
                    (0, CmpOp::Ge, 1.25 * per_block),
                    (0, CmpOp::Lt, 5.75 * per_block),
                ],
                Some(2),
            ),
            3,
        ),
        // A deciding conjunct beside an undecided one.
        (
            "ts <= half AND margin > 30",
            zoned_spec(vec![(0, CmpOp::Le, half), (3, CmpOp::Gt, 30.0)], None),
            4,
        ),
        // Unclustered filters: every block stays undecided.
        (
            "margin > 60",
            zoned_spec(vec![(3, CmpOp::Gt, 60.0)], None),
            0,
        ),
        (
            "store = 1",
            zoned_spec(vec![(2, CmpOp::Eq, 1.0)], Some(2)),
            0,
        ),
    ];

    for (label, spec, matchless) in &cases {
        use isla::storage::ZoneMatch;
        let decided = native
            .iter()
            .filter(|b| b.zone(&spec.filter) == ZoneMatch::Matchless)
            .count();
        assert_eq!(decided, *matchless, "{label}: matchless blocks");
        assert!(reference
            .iter()
            .all(|b| b.zone(&spec.filter) == ZoneMatch::Mixed));

        // --- Pilots: one-shot (strict and best-effort) and capped. Same
        // pre-estimate — `pilot_rows` included — and the caller's RNG
        // left in the same state.
        let pilot = |data: &BlockSet, cap: u64, recovery: &RecoveryPolicy| {
            let mut rng = StdRng::seed_from_u64(0xA11);
            let pre =
                engine::row_pre_estimate_with(data, &cfg, spec, cap, recovery, &mut rng).unwrap();
            (pre, rng.next_u64())
        };
        for (cap, recovery) in [
            (u64::MAX, &strict),
            (u64::MAX, &best_effort),
            (900, &strict),
        ] {
            assert_eq!(
                pilot(&native, cap, recovery),
                pilot(&reference, cap, recovery),
                "{label}: pilot capped at {cap}, best_effort={}",
                recovery.is_best_effort()
            );
        }
        let (pre, _) = pilot(&native, u64::MAX, &strict);

        // --- Calculation phase, sequential and pooled.
        let run = |data: &BlockSet, scheduler: &dyn engine::BlockScheduler| {
            let plan = RowPlan::from_pre_estimate(
                data,
                &cfg,
                spec.clone(),
                pre.clone(),
                RateSpec::Derived,
            )
            .unwrap();
            let mut rng = StdRng::seed_from_u64(0xCA1C);
            let out = engine::run_row_plan_with(
                &plan,
                data,
                scheduler,
                &engine::RecoveryPolicy::strict(),
                &mut rng,
            )
            .unwrap();
            let offered = plan.planned_calculation_samples(data);
            (
                answer_bits(&out),
                rng.next_u64(),
                out.total_samples,
                offered,
            )
        };
        let (want, want_rng, reference_reads, offered) = run(&reference, &SequentialScheduler);
        assert_eq!(
            reference_reads, offered,
            "{label}: undecided blocks read every draw"
        );
        let pool = pooled(3);
        for (data, zoned, scheduler) in [
            (
                &native,
                true,
                &SequentialScheduler as &dyn engine::BlockScheduler,
            ),
            (&native, true, &pool),
            (&reference, false, &pool),
        ] {
            let (got, got_rng, reads, _) = run(data, scheduler);
            assert_eq!(got, want, "{label}: answer on {}", scheduler.name());
            assert_eq!(got_rng, want_rng, "{label}: caller RNG");
            if zoned && *matchless > 0 {
                assert!(
                    reads < reference_reads,
                    "{label}: {reads} !< {reference_reads}"
                );
            } else {
                assert_eq!(reads, reference_reads, "{label}: reads");
            }
        }

        // Per block: a matchless block is offered its draws and reads
        // none of them; every other block reads all it is offered.
        let plan = RowPlan::from_pre_estimate(&native, &cfg, spec.clone(), pre, RateSpec::Derived)
            .unwrap();
        for (b, block) in native.iter().enumerate() {
            let out = engine::execute_row_block(&plan, block.as_ref(), b, 7 + b as u64).unwrap();
            assert_eq!(
                out.offered,
                plan.sample_size_for(block.len()),
                "{label} block {b}"
            );
            let skipped = block.zone(&spec.filter) == ZoneMatch::Matchless;
            assert_eq!(
                out.draws,
                if skipped { 0 } else { out.offered },
                "{label} block {b}"
            );
            // And the groups are the sketch-less block's groups.
            let want =
                engine::execute_row_block(&plan, reference.block(b).as_ref(), b, 7 + b as u64)
                    .unwrap();
            assert_eq!(
                outcome_bits(&out).2,
                outcome_bits(&want).2,
                "{label} block {b}"
            );
            assert_eq!((want.draws, want.offered), (out.offered, out.offered));
        }
    }
}

#[test]
fn zoned_epoch_pilots_match_the_sketchless_reference_after_an_append() {
    use isla::core::engine::{CacheKey, PreEstimateCache};
    const BLOCKS: usize = 6;
    let cols = clustered_columns(36_000, 0xE90C);
    let per_block = 36_000.0 / BLOCKS as f64;
    // The pilots under test: a grouped spec every zone decides would
    // otherwise be pinned from the per-key sketches, with no fold.
    let cfg = IslaConfig::builder()
        .precision(0.5)
        .sample_groups(true)
        .build()
        .unwrap();
    // Two more `ts` ranges arrive as appended epochs.
    let tail = |lo: usize| -> Vec<Vec<f64>> {
        let mut cols = clustered_columns(6_000, 0xE90C + lo as u64);
        cols[0].iter_mut().for_each(|t| *t += lo as f64);
        cols
    };
    let appended = [tail(36_000), tail(42_000)];
    let build = |wrap: fn(Arc<dyn DataBlock>) -> Arc<dyn DataBlock>| {
        let base = RowsBlock::split(cols.clone(), BLOCKS);
        let mut set = BlockSet::new(base.iter().map(|b| wrap(Arc::clone(b))).collect());
        let mut epochs = vec![set.clone()];
        for cols in &appended {
            set.append_block(wrap(Arc::new(RowsBlock::new(cols.clone()))))
                .unwrap();
            epochs.push(set.clone());
        }
        epochs
    };
    let native = build(|b| b);
    let reference = build(|b| Arc::new(ScalarFallbackBlock(b)));

    for spec in [
        // Only the appended ranges (and the last base block) can match.
        zoned_spec(vec![(0, CmpOp::Gt, 5.0 * per_block - 0.5)], None),
        // The base matches everywhere, the appends nowhere — grouped.
        zoned_spec(vec![(0, CmpOp::Lt, 36_000.0)], Some(2)),
        zoned_spec(vec![(3, CmpOp::Gt, 40.0)], None),
    ] {
        // One cache per set, walked through the epochs in order: a cold
        // fold at epoch 0, then a delta resume after each append; and a
        // second pair folding the final shape cold.
        let walk = |epochs: &[BlockSet]| {
            let cache = PreEstimateCache::new();
            epochs
                .iter()
                .map(|data| {
                    let key =
                        CacheKey::new("t", "amount", &cfg, data).with_row_shape(spec.fingerprint());
                    cache
                        .get_or_compute_rows_epoch(key, data, &cfg, &spec, 0x5A17)
                        .unwrap()
                        .pre
                })
                .collect::<Vec<_>>()
        };
        let resumed = walk(&native);
        assert_eq!(resumed, walk(&reference), "{spec:?}: resumed folds");
        let cold = walk(&native[2..]);
        assert_eq!(cold, walk(&reference[2..]), "{spec:?}: cold fold");
        assert_eq!(cold[0], resumed[2], "{spec:?}: resumed ≡ cold");
    }
}

// ---------------------------------------------------------------------
// Filtered `COUNT` and `MAX`/`MIN` read only the columns they name: the
// hit-rate pilot, the exact filtered extreme and the pooled filtered
// draw, each pinned against the whole-row algorithm it replaced —
// rebuilt below from the frozen public pieces.
// ---------------------------------------------------------------------

/// The hit-rate pilot as it was: whole rows from the frozen sampler,
/// the spec tested on each, one map entry bumped per hit.
fn reference_hit_rate(
    data: &BlockSet,
    spec: &RowSpec,
    n: u64,
    rng: &mut StdRng,
) -> Result<(u64, BTreeMap<u64, u64>), IslaError> {
    let mut drawn = 0;
    let mut counts = BTreeMap::new();
    sample_rows_proportional(data, n, rng, &mut |row| {
        drawn += 1;
        if spec.filter.matches(row) {
            *counts.entry(spec.group_key(row)).or_insert(0) += 1;
        }
    })?;
    Ok((drawn, counts))
}

/// A hit-rate pilot's draws and per-key counts (its error as text), and
/// where it left the RNG.
type HitBits = (Result<(u64, Vec<(u64, u64)>), String>, u64);

fn hit_bits(
    pilot: impl FnOnce(&mut StdRng) -> Result<(u64, BTreeMap<u64, u64>), IslaError>,
    seed: u64,
) -> HitBits {
    let mut rng = StdRng::seed_from_u64(seed);
    let answer = pilot(&mut rng).map(|(drawn, counts)| {
        assert!(
            counts.values().all(|&n| n > 0),
            "a zero-count group: {counts:?}"
        );
        (drawn, counts.into_iter().collect())
    });
    (answer.map_err(|e| e.to_string()), rng.next_u64())
}

/// `engine::hit_rate_pilot` over one `set()` is the reference over
/// another (fresh fault counters each): same draws, same per-key counts
/// or the same error, same RNG position.
fn assert_hit_rate_identity(
    set: impl Fn() -> BlockSet,
    spec: &RowSpec,
    n: u64,
    seed: u64,
    label: &str,
) {
    let want = hit_bits(|rng| reference_hit_rate(&set(), spec, n, rng), seed);
    let got = hit_bits(|rng| engine::hit_rate_pilot(&set(), spec, n, rng), seed);
    assert_eq!(got, want, "{label}: {spec:?}");
}

#[test]
fn hit_rate_pilots_match_the_whole_row_count_on_every_block_kind_and_zone() {
    // Every block kind, random specs: grouped or not, filters on the
    // aggregate and the group column, trivial filters.
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    for width in 1..=4 {
        let cols = spec_columns(2_400, width, &mut rng);
        let specs: Vec<RowSpec> = (0..6).map(|_| random_spec(width, &mut rng)).collect();
        for kind in KINDS {
            for (i, spec) in specs.iter().enumerate() {
                assert_hit_rate_identity(
                    || set_of_kind(kind, &cols, 5),
                    spec,
                    1_500,
                    i as u64,
                    kind,
                );
            }
        }
    }

    // Range-partitioned blocks, so the zone map decides some of them.
    const ROWS: usize = 24_000;
    const BLOCKS: usize = 8;
    let per_block = (ROWS / BLOCKS) as f64;
    let half = 4.0 * per_block - 0.5;
    let native = RowsBlock::split(clustered_columns(ROWS, 0xC0C0), BLOCKS);
    let specs = [
        // Matchless and all-match blocks, ungrouped: neither is read.
        zoned_spec(vec![(0, CmpOp::Gt, half)], None),
        // Grouped: the all-match blocks are read for `store` alone.
        zoned_spec(vec![(0, CmpOp::Gt, half)], Some(2)),
        // Two-sided range, grouped: every verdict at once.
        zoned_spec(
            vec![
                (0, CmpOp::Ge, 1.25 * per_block),
                (0, CmpOp::Lt, 5.75 * per_block),
            ],
            Some(2),
        ),
        // A deciding conjunct beside an undecided one.
        zoned_spec(vec![(0, CmpOp::Le, half), (3, CmpOp::Gt, 30.0)], None),
        // Undecided everywhere.
        zoned_spec(vec![(3, CmpOp::Gt, 60.0)], Some(2)),
        // No hit anywhere: no group may appear.
        zoned_spec(vec![(0, CmpOp::Lt, -1.0)], Some(2)),
    ];
    let verdicts: Vec<ZoneMatch> = specs
        .iter()
        .flat_map(|spec| native.iter().map(|b| b.zone(&spec.filter)))
        .collect();
    for verdict in [ZoneMatch::Matchless, ZoneMatch::AllMatch, ZoneMatch::Mixed] {
        assert!(verdicts.contains(&verdict), "no {verdict:?} block");
    }
    let empty = || Arc::new(RowsBlock::new(vec![Vec::new(); 4])) as Arc<dyn DataBlock>;
    let with_empty_blocks = || {
        let mut blocks: Vec<_> = native.iter().map(Arc::clone).collect();
        blocks.insert(0, empty());
        blocks.insert(5, empty());
        BlockSet::new(blocks)
    };
    let mut failed = 0;
    for (i, spec) in specs.iter().enumerate() {
        let seed = 0x7E57 + i as u64;
        assert_hit_rate_identity(|| native.clone(), spec, 6_000, seed, "zoned");
        let mut rng = StdRng::seed_from_u64(seed);
        let (drawn, counts) = engine::hit_rate_pilot(&native, spec, 6_000, &mut rng).unwrap();
        assert_eq!(drawn, 6_000);
        if i == specs.len() - 1 {
            assert!(counts.is_empty(), "no hit, no group: {counts:?}");
        }
        assert_hit_rate_identity(with_empty_blocks, spec, 6_000, seed, "empty blocks");
        for plan in [
            FaultPlan::new(3),
            FaultPlan::new(3).lose(0.3),
            FaultPlan::new(4).transient(0.5, 1),
            FaultPlan::new(5).corrupt(0.4),
        ] {
            assert_hit_rate_identity(
                || plan.arm(&native),
                spec,
                6_000,
                seed,
                &format!("{plan:?}"),
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let answer = engine::hit_rate_pilot(&plan.arm(&native), spec, 6_000, &mut rng);
            failed += usize::from(answer.is_err());
        }
    }
    assert!(
        failed >= 2 * specs.len(),
        "the armed loss and transient plans must fail"
    );
}

/// The exact filtered MAX/MIN as it was: the pooled filtered column —
/// whole-set selection compiled and cached first — scanned as one block
/// with one running extreme.
fn reference_filtered_extreme(
    data: &BlockSet,
    spec: &RowSpec,
    kind: ExtremeKind,
) -> Result<Option<u64>, String> {
    let pooled = pool_filtered_column(data, spec.agg_column, spec.filter.clone());
    engine::scan_exact_extreme(&pooled, kind, &SequentialScheduler)
        .map(|v| v.map(f64::to_bits))
        .map_err(|e| e.to_string())
}

/// `engine::scan_exact_filtered_extreme` at every parallelism is the
/// reference, for MAX and MIN: value bits, `None`, or the error.
fn assert_filtered_extreme_identity(set: impl Fn() -> BlockSet, spec: &RowSpec, label: &str) {
    for kind in [ExtremeKind::Max, ExtremeKind::Min] {
        let want = reference_filtered_extreme(&set(), spec, kind);
        for workers in EXACT_PARALLELISM {
            let got = engine::scan_exact_filtered_extreme(&set(), spec, kind, &pooled(workers))
                .map(|v| v.map(f64::to_bits))
                .map_err(|e| e.to_string());
            assert_eq!(got, want, "{label} {kind:?} on {workers} workers: {spec:?}");
        }
    }
}

#[test]
fn exact_filtered_extremes_are_the_pooled_scan_at_every_parallelism() {
    let on = |column, op, value| RowFilter::new(vec![ColumnPredicate { column, op, value }]);
    // A transient fault is the one block kind left out: the pooled
    // path's selection compile spent the block's first failed attempt
    // and then read it again, where every exact scan reports that
    // attempt (`exact_scans_fail_strictly_…` above).
    let kinds = [
        "RowsBlock",
        "ZipBlock",
        "ScalarFallbackBlock",
        "FaultyBlock(corrupt)",
    ];
    let mut rng = StdRng::seed_from_u64(0xE7);
    for width in 1..=4 {
        let mut cols = awkward_columns(2_100, width, &mut rng);
        // A column whose maximum is a zero, both signs in every block,
        // and its negation, whose minimum is: which zero wins is the
        // fold order's to keep.
        let zero_topped: Vec<f64> = (0..2_100)
            .map(|i| match i % 5 {
                0 => 0.0,
                1 => -0.0,
                _ => -f64::from(i),
            })
            .collect();
        cols.push(zero_topped.iter().map(|v| -v).collect());
        cols.push(zero_topped);
        let width = cols.len();
        let mut specs = vec![
            RowSpec {
                agg_column: width - 1,
                filter: on(0, CmpOp::Gt, 40.0),
                group_by: None,
            },
            RowSpec {
                agg_column: width - 2,
                filter: on(0, CmpOp::Le, 1e16),
                group_by: None,
            },
            // Only the zeros match, on the column being folded.
            RowSpec {
                agg_column: width - 1,
                filter: on(width - 1, CmpOp::Ge, -0.0),
                group_by: None,
            },
            // Nothing matches.
            RowSpec {
                agg_column: 0,
                filter: on(0, CmpOp::Gt, f64::INFINITY),
                group_by: None,
            },
        ];
        specs.extend((0..3).map(|_| random_spec(width, &mut rng)));
        for kind in kinds {
            for spec in &specs {
                assert_filtered_extreme_identity(
                    || set_of_kind(kind, &cols, EXACT_BLOCKS),
                    spec,
                    kind,
                );
            }
        }
        let nothing = set_of_kind("RowsBlock", &cols, EXACT_BLOCKS);
        assert_eq!(
            reference_filtered_extreme(&nothing, &specs[3], ExtremeKind::Max),
            Ok(None)
        );
    }

    // Range-partitioned: matchless blocks unread, all-match blocks one
    // plain fold, cut blocks filtered.
    let per_block = 3_000.0;
    let native = RowsBlock::split(clustered_columns(21_000, 0xE8), EXACT_BLOCKS);
    let mut pruned_losses = 0;
    for filter in [
        vec![(0, CmpOp::Gt, 3.0 * per_block - 0.5)],
        vec![
            (0, CmpOp::Ge, 1.5 * per_block),
            (0, CmpOp::Lt, 5.25 * per_block),
        ],
        vec![(0, CmpOp::Le, 2.0 * per_block), (3, CmpOp::Gt, 50.0)],
        vec![(0, CmpOp::Lt, 0.0)],
    ] {
        let spec = zoned_spec(filter, None);
        assert_filtered_extreme_identity(|| native.clone(), &spec, "zoned");
        for plan in [
            FaultPlan::new(8),
            FaultPlan::new(8).lose(0.3),
            FaultPlan::new(9).corrupt(0.3),
        ] {
            let armed = || plan.arm(&native);
            // One documented difference: an armed block answers no zone
            // verdict, so the exact scan reads it — and fails — whatever
            // its sketch says, as every exact scan does. The pooled
            // path's selection compile pruned on the sketch the fault
            // forwards: when every lost block was one it proved
            // matchless, it read none of them and answered.
            let lost: Vec<usize> = (0..native.block_count())
                .filter(|&b| plan.fault_for(b) == BlockFault::Lost)
                .collect();
            let all_pruned = !lost.is_empty()
                && lost
                    .iter()
                    .all(|&b| native.block(b).zone(&spec.filter) == ZoneMatch::Matchless);
            if !all_pruned {
                assert_filtered_extreme_identity(armed, &spec, &format!("{plan:?}"));
                continue;
            }
            pruned_losses += 1;
            assert!(reference_filtered_extreme(&armed(), &spec, ExtremeKind::Max).is_ok());
            for workers in EXACT_PARALLELISM {
                let got = engine::scan_exact_filtered_extreme(
                    &armed(),
                    &spec,
                    ExtremeKind::Max,
                    &pooled(workers),
                );
                assert!(
                    matches!(got, Err(IslaError::Storage(StorageError::BlockLost { .. }))),
                    "{plan:?} on {workers} workers: {got:?}"
                );
            }
        }
    }
    assert!(pruned_losses > 0, "the documented difference is exercised");
    let lost = || FaultPlan::new(8).lose(0.3).arm(&native);
    let undecided = zoned_spec(vec![(3, CmpOp::Gt, 50.0)], None);
    assert_filtered_extreme_identity(lost, &undecided, "lost blocks");
    assert!(reference_filtered_extreme(&lost(), &undecided, ExtremeKind::Max).is_err());

    // Two failing blocks with errors that tell them apart: the lowest
    // one's own error, whichever path and worker count.
    let unavailable = || StorageError::Unavailable {
        attempt: 1,
        detail: "scripted".to_string(),
    };
    let lost = || StorageError::BlockLost {
        detail: "scripted".to_string(),
    };
    let scripted = || {
        scripted_set(|i| match i {
            2 => Script::Fail(unavailable, None),
            5 => Script::Fail(lost, None),
            _ => Script::Healthy,
        })
    };
    let spec = RowSpec {
        agg_column: 0,
        filter: on(0, CmpOp::Gt, 0.5),
        group_by: None,
    };
    assert_filtered_extreme_identity(scripted, &spec, "scripted");
    assert_eq!(
        reference_filtered_extreme(&scripted(), &spec, ExtremeKind::Max),
        Err(IslaError::from(unavailable()).to_string())
    );
}

/// Scans as its inner block does and fails every positional read — and,
/// unless it `projects`, hands out no column of its own: a block a
/// selection compiles over that a draw then cannot read.
struct ScanOnlyBlock {
    inner: Arc<dyn DataBlock>,
    projects: bool,
}

fn refused() -> StorageError {
    StorageError::BlockLost {
        detail: "positional reads refused".to_string(),
    }
}

impl DataBlock for ScanOnlyBlock {
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn width(&self) -> usize {
        self.inner.width()
    }
    fn gather(&self, _: &[usize], _: &[u64], _: &mut [f64]) -> Result<(), StorageError> {
        Err(refused())
    }
    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        self.inner.scan_column_chunks(columns, visit)
    }
    fn project(&self, col: usize) -> Option<Arc<dyn DataBlock>> {
        self.projects.then(|| self.inner.project(col)).flatten()
    }
}

/// The pooled filtered draw as it was (a batch draw on the compiled
/// selection): `n` uniform indices over the set's matches drawn up
/// front, then each resolved and read as a whole row, one column kept.
fn reference_pooled_draws(
    data: &BlockSet,
    col: usize,
    filter: &RowFilter,
    n: u64,
    rng: &mut StdRng,
) -> Result<Vec<u64>, String> {
    let sel = data.selection_for(filter).map_err(|e| e.to_string())?;
    assert!(sel.is_complete());
    if sel.total_matches() == 0 {
        return Err(StorageError::SelectivityTooLow { attempts: 0 }.to_string());
    }
    let picks: Vec<u64> = (0..n)
        .map(|_| rng.random_range(0..sel.total_matches()))
        .collect();
    let mut row = Vec::new();
    picks
        .into_iter()
        .map(|k| {
            let (b, local) = sel.locate(k);
            data.block(b)
                .row_tuple(local, &mut row)
                .map_err(|e| e.to_string())?;
            Ok(row[col].to_bits())
        })
        .collect()
}

/// Draws through [`PooledFilteredColumn`]: one batch of `n`, then `n`
/// scalar draws — values (or the error) and the RNG position after each.
type PooledBits = (Result<Vec<u64>, String>, u64, Vec<Result<u64, String>>, u64);

fn pooled_draws(data: &BlockSet, col: usize, filter: &RowFilter, n: u64, seed: u64) -> PooledBits {
    let view = PooledFilteredColumn::build(data, col, filter.clone());
    assert!(view.match_count().is_some(), "the selection compiles");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut buf = scalar_buf();
    let batch = view
        .sample_rows_batch(n, &mut rng, &mut buf)
        .map(|()| buf.rows().iter().map(|v| v.to_bits()).collect())
        .map_err(|e| e.to_string());
    let after_batch = rng.next_u64();
    let scalar = (0..n)
        .map(|_| {
            view.sample_one(&mut rng)
                .map(f64::to_bits)
                .map_err(|e| e.to_string())
        })
        .collect();
    (batch, after_batch, scalar, rng.next_u64())
}

fn reference_pooled_bits(
    data: &BlockSet,
    col: usize,
    filter: &RowFilter,
    n: u64,
    seed: u64,
) -> PooledBits {
    let mut rng = StdRng::seed_from_u64(seed);
    let batch = reference_pooled_draws(data, col, filter, n, &mut rng);
    let after_batch = rng.next_u64();
    let scalar = (0..n)
        .map(|_| reference_pooled_draws(data, col, filter, 1, &mut rng).map(|v| v[0]))
        .collect();
    (batch, after_batch, scalar, rng.next_u64())
}

#[test]
fn pooled_filtered_draws_read_one_column_and_match_row_tuple_draws() {
    let mut rng = StdRng::seed_from_u64(0xD8A);
    let cols = spec_columns(3_000, 4, &mut rng);
    let filters = [
        RowFilter::new(vec![ColumnPredicate {
            column: 0,
            op: CmpOp::Gt,
            value: 40.0,
        }]),
        // `!=` matches a corrupt (NaN) row too, so the corrupt blocks'
        // reads are drawn and must come back NaN through the gate.
        RowFilter::new(vec![
            ColumnPredicate {
                column: 1,
                op: CmpOp::Ne,
                value: 2.0,
            },
            ColumnPredicate {
                column: 3,
                op: CmpOp::Ne,
                value: 1.0,
            },
        ]),
    ];
    let disarmed = |cols: &[Vec<f64>]| {
        Arc::new(FaultyBlock::new(
            block_of_kind("RowsBlock", cols),
            BlockFault::None,
            None,
        )) as Arc<dyn DataBlock>
    };
    // A transient fault is left out: its selection compile fails, so the
    // view draws by rejection and never reaches the selection read.
    let sets: Vec<(&str, BlockSet)> = vec![
        ("RowsBlock", set_of_kind("RowsBlock", &cols, 6)),
        ("ZipBlock", set_of_kind("ZipBlock", &cols, 6)),
        (
            "ScalarFallbackBlock",
            set_of_kind("ScalarFallbackBlock", &cols, 6),
        ),
        (
            "FaultyBlock(corrupt)",
            set_of_kind("FaultyBlock(corrupt)", &cols, 6),
        ),
        (
            "FaultyBlock(disarmed)",
            BlockSet::new(
                split_columns(&cols, 6)
                    .iter()
                    .map(|c| disarmed(c))
                    .collect(),
            ),
        ),
        (
            "FaultPlan(corrupt)",
            FaultPlan::new(2)
                .corrupt(0.5)
                .arm(&set_of_kind("RowsBlock", &cols, 6)),
        ),
    ];
    for (label, set) in &sets {
        for filter in &filters {
            for col in 0..4 {
                let got = pooled_draws(set, col, filter, 700, 11 + col as u64);
                let want = reference_pooled_bits(set, col, filter, 700, 11 + col as u64);
                assert_eq!(got, want, "{label}: column {col} under {filter:?}");
                if label.ends_with("(corrupt)")
                    && filter.predicates()[0].op == CmpOp::Ne
                    && col == 0
                {
                    let drawn = got.0.unwrap();
                    assert!(drawn.iter().any(|&v| f64::from_bits(v).is_nan()), "{label}");
                }
            }
        }
    }

    // Blocks a selection compiles over whose positional reads fail: with
    // no column of their own the draw reads through a `ColumnView` and
    // fails as the whole-row read did; handing out their column, the
    // draw never asks them for a row at all (release builds — debug
    // builds re-read the row only to re-check the filter).
    let native = set_of_kind("RowsBlock", &cols, 6);
    let scan_only = |projects: bool| {
        BlockSet::new(
            native
                .iter()
                .map(|b| {
                    Arc::new(ScanOnlyBlock {
                        inner: Arc::clone(b),
                        projects,
                    }) as Arc<dyn DataBlock>
                })
                .collect(),
        )
    };
    for filter in &filters {
        let closed = scan_only(false);
        let got = pooled_draws(&closed, 3, filter, 300, 5);
        assert_eq!(got, reference_pooled_bits(&closed, 3, filter, 300, 5));
        assert_eq!(got.0, Err(refused().to_string()));
        assert_eq!(
            pooled_draws(&scan_only(true), 3, filter, 300, 5),
            reference_pooled_bits(&native, 3, filter, 300, 5),
            "one-column reads under {filter:?}"
        );
    }
}

// ---------------------------------------------------------------------
// The row fold: every engine fold selects a gathered batch with the
// branch-free conjunct passes and routes each match to its group's lane
// by a branch-free lower bound over the sorted keys. Pinned against the
// per-row `RowFilter::matches` + key-lookup loops it replaced, on rows
// holding the values a comparison or a key lookup gets wrong: NaN
// (several payloads), ±0.0 and ±∞.
// ---------------------------------------------------------------------

/// A block over arbitrary values, non-finite included (every shipped
/// in-memory kind rejects them): one chunk per scan, no sketch, so no
/// zone verdict ever skips a read.
struct RawRows(Vec<Vec<f64>>);

impl DataBlock for RawRows {
    fn len(&self) -> u64 {
        self.0[0].len() as u64
    }

    fn width(&self) -> usize {
        self.0.len()
    }

    fn gather(
        &self,
        columns: &[usize],
        indices: &[u64],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        let w = columns.len();
        for (j, &idx) in indices.iter().enumerate() {
            for (k, &c) in columns.iter().enumerate() {
                out[j * w + k] = self.0[c][idx as usize];
            }
        }
        Ok(())
    }

    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        let chunk: Vec<&[f64]> = columns.iter().map(|&c| self.0[c].as_slice()).collect();
        visit(&chunk);
        Ok(())
    }
}

/// Group keys a lookup by value would merge or lose: both zeros, NaN
/// under three payloads (one of them negative), both infinities.
fn awkward_keys() -> [f64; 7] {
    [
        0.0,
        -0.0,
        f64::NAN,
        f64::from_bits(f64::NAN.to_bits() | 1),
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ]
}

/// `conjuncts` random predicates over `columns`, salted literals, the
/// first one's operator `first_op`.
fn salted_filter(
    conjuncts: usize,
    columns: &[usize],
    first_op: CmpOp,
    rng: &mut StdRng,
) -> RowFilter {
    RowFilter::new(
        (0..conjuncts)
            .map(|k| ColumnPredicate {
                column: columns[rng.random_range(0..columns.len())],
                op: if k == 0 {
                    first_op
                } else {
                    ALL_OPS[rng.random_range(0..ALL_OPS.len())]
                },
                value: salted_value(rng),
            })
            .collect(),
    )
}

#[test]
fn batch_selection_is_the_per_row_filter_at_every_batch_size() {
    let mut rng = StdRng::seed_from_u64(0x5E1EC7);
    let n = 5_000;
    let salted: Vec<Vec<f64>> = (0..3)
        .map(|_| (0..n).map(|_| salted_value(&mut rng)).collect())
        .collect();
    let finite: Vec<Vec<f64>> = (0..3)
        .map(|_| {
            (0..n)
                .map(|_| f64::from(rng.random_range(-2i32..3)))
                .collect()
        })
        .collect();
    let sure = |op, value| ColumnPredicate {
        column: 1,
        op,
        value,
    };
    // On the finite block: every row matches, then none does.
    let all_match = RowFilter::new(vec![sure(CmpOp::Gt, f64::NEG_INFINITY)]);
    let no_match = RowFilter::new(vec![
        sure(CmpOp::Ge, -1.0),
        sure(CmpOp::Lt, f64::INFINITY),
        sure(CmpOp::Eq, f64::NAN),
    ]);
    let (salted, finite) = (RawRows(salted), RawRows(finite));
    let mut buf = RowSampleBuf::new();
    for batch in [1u64, 63, 64, 65, 4_096, 4_097] {
        for conjuncts in 0..=3 {
            for op in ALL_OPS {
                for projection in [vec![0, 1, 2], vec![2, 0]] {
                    let positions: Vec<usize> = (0..projection.len()).collect();
                    let filter = salted_filter(conjuncts, &positions, op, &mut rng);
                    let cases = [
                        (&salted, filter),
                        (&finite, all_match.clone()),
                        (&finite, no_match.clone()),
                    ];
                    for (block, filter) in cases {
                        buf.project(Some(&projection));
                        let mut draws = StdRng::seed_from_u64(batch);
                        block
                            .sample_rows_batch(batch, &mut draws, &mut buf)
                            .unwrap();
                        let want: Vec<u32> = buf
                            .iter_rows()
                            .enumerate()
                            .filter(|(_, row)| filter.matches(row))
                            .map(|(i, _)| i as u32)
                            .collect();
                        // The same rows as column chunks.
                        let tuples: Vec<Vec<f64>> = buf.iter_rows().map(<[f64]>::to_vec).collect();
                        let chunk: Vec<Vec<f64>> = (0..projection.len())
                            .map(|k| tuples.iter().map(|row| row[k]).collect())
                            .collect();
                        let chunk: Vec<&[f64]> = chunk.iter().map(Vec::as_slice).collect();
                        let mut scanned = Vec::new();
                        filter.select(&chunk, 0, &mut scanned);

                        let bits =
                            |rows: &[f64]| rows.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        let rows_before = bits(buf.rows());
                        let (rows, selected, lanes) = buf.select(&filter, 3);
                        let label = format!("{filter:?}, batch {batch}, {projection:?}");
                        assert_eq!(selected, want.as_slice(), "{label}");
                        assert_eq!(scanned, want, "scan form: {label}");
                        assert_eq!(bits(rows), rows_before, "{label}");
                        assert_eq!(lanes.len(), 3);
                        assert!(lanes.iter().all(Vec::is_empty));
                        if filter == all_match {
                            assert_eq!(want.len() as u64, batch);
                        }
                        if filter == no_match {
                            assert!(want.is_empty());
                        }
                    }
                }
            }
        }
    }
}

/// A three-column block — aggregate (finite), filter (salted), group
/// key — whose key column cycles through `keys`.
fn keyed_rows(n: usize, keys: &[f64], rng: &mut StdRng) -> RawRows {
    RawRows(vec![
        (0..n).map(|_| rng.random_range(0.0..100.0)).collect(),
        (0..n).map(|_| salted_value(rng)).collect(),
        (0..n)
            .map(|_| keys[rng.random_range(0..keys.len())])
            .collect(),
    ])
}

/// The keys a routing test draws from: 340 integers, every awkward key,
/// and `1.5` — which no plan below knows.
fn routed_keys() -> Vec<f64> {
    let mut keys: Vec<f64> = (0..340).map(f64::from).collect();
    keys.extend(awkward_keys());
    keys.push(1.5);
    keys
}

#[test]
fn routed_calculation_folds_match_the_per_row_reference() {
    // Planned: ≥ 300 integer keys, -0.0 (not +0.0), one NaN payload
    // (not the others), +∞; every fifth group without boundaries.
    // Unplanned: +0.0, the other NaNs, -∞, 1.5 and a few integers.
    let mut rng = StdRng::seed_from_u64(0x2007E);
    let keys = routed_keys();
    let mut planned: Vec<u64> = (0..340)
        .filter(|k| k % 37 != 5)
        .map(|k| f64::from(k).to_bits())
        .chain([
            (-0.0f64).to_bits(),
            f64::NAN.to_bits(),
            f64::INFINITY.to_bits(),
        ])
        .collect();
    planned.sort_unstable();
    assert!(planned.len() >= 300);
    let groups: Vec<engine::GroupPre> = planned
        .iter()
        .enumerate()
        .map(|(i, &key_bits)| engine::GroupPre {
            key_bits,
            key: f64::from_bits(key_bits),
            sigma: if i % 5 == 0 { 0.0 } else { 20.0 },
            sketch0: 50.0,
            share: 1.0 / planned.len() as f64,
            pilot_matched: 10,
            required_samples: 100,
        })
        .collect();
    let pre = engine::RowPreEstimate {
        groups,
        selectivity: 0.5,
        rate: 0.1,
        pilot_rows: 1_000,
    };
    let cfg = IslaConfig::builder().precision(1.0).build().unwrap();
    let block = keyed_rows(10_000, &keys, &mut rng);
    let data = BlockSet::new(vec![
        Arc::new(keyed_rows(10, &keys, &mut rng)) as Arc<dyn DataBlock>
    ]);
    for conjuncts in 0..=3 {
        for op in ALL_OPS {
            let spec = RowSpec {
                agg_column: 0,
                filter: salted_filter(conjuncts, &[1], op, &mut rng),
                group_by: Some(2),
            };
            let plan = RowPlan::from_pre_estimate(
                &data,
                &cfg,
                spec.clone(),
                pre.clone(),
                RateSpec::Derived,
            )
            .unwrap();
            for draws in [1u64, 63, 64, 65, 4_096, 4_097] {
                let plan = plan.clone().with_absolute_rate(draws as f64 / 10_000.0);
                let seed = draws ^ (conjuncts as u64) << 20;
                let got = engine::execute_row_block(&plan, &block, 0, seed).unwrap();
                assert_eq!(got.offered, draws);
                let want = reference_row_block(&plan, &block, seed).unwrap();
                assert_eq!(outcome_bits(&got), want, "{spec:?}, {draws} draws");
            }
        }
    }
}

#[test]
fn routed_pilots_hit_rates_and_exact_scans_match_the_per_row_reference() {
    // Discovered keys: every routed key, ≥ 300 groups, in a set of three
    // blocks; the aggregate stays finite so every group has moments.
    let mut rng = StdRng::seed_from_u64(0xD15C);
    let keys = routed_keys();
    let data = || {
        let mut rng = StdRng::seed_from_u64(0xB10C);
        BlockSet::new(
            (0..3)
                .map(|_| Arc::new(keyed_rows(6_000, &keys, &mut rng)) as Arc<dyn DataBlock>)
                .collect(),
        )
    };
    // One pilot pass of `pilot_rows`, the reference's single draw.
    let pilot_rows = 9_000;
    let cfg = IslaConfig::builder()
        .precision(2.0)
        .sigma_pilot_size(pilot_rows)
        .build()
        .unwrap();
    let strict = RecoveryPolicy::strict();
    let best_effort = RecoveryPolicy::best_effort(RetryPolicy::attempts(2));
    for conjuncts in 0..=3 {
        for op in ALL_OPS {
            for group_by in [Some(2), None] {
                let spec = RowSpec {
                    agg_column: 0,
                    filter: salted_filter(conjuncts, &[1, 2], op, &mut rng),
                    group_by,
                };
                // Exact scan.
                let got = engine::scan_exact_groups(&data(), &spec).map(|groups| {
                    groups
                        .iter()
                        .map(|g| (g.key.to_bits(), g.mean.to_bits(), g.count))
                        .collect::<Vec<_>>()
                });
                let want = reference_exact(&data(), &spec).unwrap();
                assert_eq!(got.unwrap(), want, "exact {spec:?}");

                // Hit rate.
                for n in [1u64, 4_097, 17_000] {
                    assert_hit_rate_identity(data, &spec, n, n ^ 0xAB, "routed hit rate");
                }

                // One capped pilot pass, strict and best-effort. A
                // best-effort pilot drops the rows holding a non-finite
                // value in a column it reads; the reference checks whole
                // rows, so it runs where the spec reads every column.
                let reads_all =
                    group_by.is_some() && spec.filter.predicates().iter().any(|p| p.column == 1);
                let policies = if reads_all {
                    vec![&strict, &best_effort]
                } else {
                    vec![&strict]
                };
                for recovery in policies {
                    let mut got_rng = StdRng::seed_from_u64(77);
                    let got = engine::row_pre_estimate_with(
                        &data(),
                        &cfg,
                        &spec,
                        pilot_rows,
                        recovery,
                        &mut got_rng,
                    );
                    let mut want_rng = StdRng::seed_from_u64(77);
                    let mut want =
                        reference_pilot(&data(), &spec, pilot_rows, recovery, &mut want_rng)
                            .unwrap();
                    // Rows a best-effort pass dropped are drawn again
                    // once, up to the cap (the filter makes the pilot
                    // want more than the cap) — unless nothing matched,
                    // which ends the pilot.
                    if want.drawn < pilot_rows && want.matched > 0 {
                        let more = pilot_rows - want.drawn;
                        reference_pilot_pass(
                            &mut want,
                            &data(),
                            &spec,
                            more,
                            recovery,
                            &mut want_rng,
                        )
                        .unwrap();
                    }
                    let label = format!("pilot {spec:?} best-effort {}", recovery.is_best_effort());
                    assert_eq!(got_rng.next_u64(), want_rng.next_u64(), "{label}");
                    let Ok(pre) = got else {
                        assert_eq!(want.matched, 0, "{label}");
                        continue;
                    };
                    assert_eq!(pre.pilot_rows, want.drawn, "{label}");
                    let selectivity = want.matched as f64 / want.drawn as f64;
                    assert_eq!(pre.selectivity.to_bits(), selectivity.to_bits(), "{label}");
                    assert_eq!(pre.groups.len(), want.moments.len(), "{label}");
                    if group_by.is_some() && conjuncts == 0 {
                        assert!(pre.groups.len() >= 300, "{label}");
                    }
                    for (g, (&key, m)) in pre.groups.iter().zip(&want.moments) {
                        assert_eq!(g.key_bits, key, "{label}");
                        assert_eq!(g.pilot_matched, m.count(), "{label}");
                        assert_eq!(g.sketch0.to_bits(), m.mean().unwrap().to_bits(), "{label}");
                        let sigma = m.std_dev_sample().unwrap_or(0.0);
                        assert_eq!(g.sigma.to_bits(), sigma.to_bits(), "{label}");
                    }
                }
            }
        }
    }
}
