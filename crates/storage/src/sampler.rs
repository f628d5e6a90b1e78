//! Samplers: uniform with-replacement sampling and proportional
//! allocation across blocks.
//!
//! The paper's pilot phases draw "uniform samples … from each block with a
//! sample size proportional to the block size" (Section III-B);
//! [`proportional_allocation`] implements that split exactly (largest
//! remainder method so the sizes sum to the requested total), and
//! [`sample_proportional`] executes it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::Rng;
use rand::RngCore;

use crate::block::{BlockReads, DataBlock};
use crate::blockset::BlockSet;
use crate::error::StorageError;
use crate::kernel::{with_row_sample_buf, RowSampleBuf, SAMPLE_BATCH_ROWS};

/// Draws `m` uniform samples (with replacement) from one block, passing
/// each to `visit`.
///
/// Sampling with replacement keeps the per-sample cost at one random draw
/// regardless of the sampling rate, and is the standard model for AQP
/// estimators (every sample is an independent draw from the block's
/// empirical distribution).
///
/// The width-1 case of [`sample_row_columns_from_block`]: its batches,
/// projected to column 0 — values reach `visit` in the identical order,
/// from the identical RNG stream, as single draws.
///
/// # Errors
///
/// Propagates the first block error (e.g. [`StorageError::Empty`]).
pub fn sample_from_block(
    block: &dyn DataBlock,
    m: u64,
    rng: &mut dyn RngCore,
    visit: &mut dyn FnMut(f64),
) -> Result<(), StorageError> {
    sample_row_columns_from_block(block, Some(&[0]), m, rng, &mut |buf| {
        buf.rows().iter().for_each(|&v| visit(v));
    })
}

/// Draws `m` uniform row tuples (with replacement) from one block,
/// passing each to `visit` — the row-model analogue of
/// [`sample_from_block`], batched the same way through
/// [`BlockReads::sample_rows_batch`].
///
/// # Errors
///
/// Propagates the first block error.
pub fn sample_rows_from_block(
    block: &dyn DataBlock,
    m: u64,
    rng: &mut dyn RngCore,
    visit: &mut dyn FnMut(&[f64]),
) -> Result<(), StorageError> {
    sample_row_columns_from_block(block, None, m, rng, &mut |buf| {
        buf.iter_rows().for_each(&mut *visit);
    })
}

/// Draws `m` uniform row tuples (with replacement) from one block,
/// handing each gathered batch of at most [`SAMPLE_BATCH_ROWS`] tuples
/// to `visit` on this thread's reusable [`RowSampleBuf`], restricted to
/// `columns` (`None`: every column — the identity projection of the
/// same loop). The draws do not depend on `columns`: the same index
/// draws from the same RNG stream, and — for the columns kept — the
/// same values, so a consumer that reads only `columns` cannot tell the
/// two apart except by what the draw cost. A batch consumer selects and
/// folds the batch as a whole ([`RowSampleBuf::select`]);
/// [`sample_rows_from_block`] is the row-at-a-time form.
///
/// # Errors
///
/// Propagates the first block error.
pub fn sample_row_columns_from_block(
    block: &dyn DataBlock,
    columns: Option<&[usize]>,
    m: u64,
    rng: &mut dyn RngCore,
    visit: &mut dyn FnMut(&mut RowSampleBuf),
) -> Result<(), StorageError> {
    with_row_sample_buf(|buf| {
        buf.project(columns);
        let mut left = m;
        while left > 0 {
            let take = left.min(SAMPLE_BATCH_ROWS);
            block.sample_rows_batch(take, rng, buf)?;
            visit(buf);
            left -= take;
        }
        Ok(())
    })
}

/// Consumes the RNG stream of `m` row draws from a block of `block_len`
/// rows without reading a row: one uniform index draw per row, as
/// [`DataBlock::draw`] is bound to. For a consumer that knows from
/// metadata ([`DataBlock::zone`]) what the rows would have told it, and
/// must leave `rng` exactly where the real draws would.
///
/// # Panics
///
/// Panics if `block_len == 0` while `m > 0` (no block is offered draws
/// from zero rows).
pub fn skip_row_draws(block_len: u64, m: u64, rng: &mut dyn RngCore) {
    for _ in 0..m {
        rng.random_range(0..block_len);
    }
}

/// Draws `m` uniform row tuples across a block set, with per-block sizes
/// proportional to block sizes ([`proportional_allocation`]) — the
/// row-model analogue of [`sample_proportional`], used by the
/// predicate-aware pilot phase.
///
/// # Errors
///
/// [`StorageError::Empty`] when `m > 0` and the set holds no rows;
/// otherwise propagates block errors.
pub fn sample_rows_proportional(
    set: &BlockSet,
    m: u64,
    rng: &mut dyn RngCore,
    visit: &mut dyn FnMut(&[f64]),
) -> Result<(), StorageError> {
    let allocation = allocate(set, m)?;
    for (block, &take) in set.iter().zip(&allocation) {
        sample_rows_from_block(block.as_ref(), take, rng, visit)?;
    }
    Ok(())
}

/// Splits a total sample size of `m` across blocks proportionally to their
/// row counts, using the largest remainder method so the parts sum to
/// exactly `m`. Blocks with zero rows receive zero samples.
///
/// # Panics
///
/// Panics if the block set holds no rows at all while `m > 0`.
pub fn proportional_allocation(set: &BlockSet, m: u64) -> Vec<u64> {
    let total = set.total_len();
    if m == 0 {
        return vec![0; set.block_count()];
    }
    assert!(
        total > 0,
        "cannot allocate samples across an empty data set"
    );
    let mut shares: Vec<(usize, u64, f64)> = set
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let exact = m as f64 * b.len() as f64 / total as f64;
            let floor = exact.floor() as u64;
            (i, floor, exact - exact.floor())
        })
        .collect();
    let assigned: u64 = shares.iter().map(|&(_, f, _)| f).sum();
    let mut remainder = m - assigned;
    // Hand the leftover samples to the blocks with the largest fractional
    // parts (ties broken by index for determinism).
    shares.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
    let mut result = vec![0u64; set.block_count()];
    for (i, floor, _) in &shares {
        result[*i] = *floor;
    }
    for (i, _, _) in &shares {
        if remainder == 0 {
            break;
        }
        if !set.block(*i).is_empty() {
            result[*i] += 1;
            remainder -= 1;
        }
    }
    debug_assert_eq!(result.iter().sum::<u64>(), m);
    result
}

/// [`proportional_allocation`] of `m` draws, or [`StorageError::Empty`]
/// when `m > 0` and the set holds no row to draw them from.
fn allocate(set: &BlockSet, m: u64) -> Result<Vec<u64>, StorageError> {
    if m > 0 && set.total_len() == 0 {
        return Err(StorageError::Empty);
    }
    Ok(proportional_allocation(set, m))
}

/// Draws `m` uniform samples across a block set, with per-block sizes
/// proportional to block sizes, collecting the values.
///
/// This is the paper's pilot sampling procedure (used for estimating `σ`
/// and `sketch0`).
///
/// # Errors
///
/// [`StorageError::Empty`] when `m > 0` and the set holds no rows;
/// otherwise propagates block errors.
pub fn sample_proportional(
    set: &BlockSet,
    m: u64,
    rng: &mut dyn RngCore,
) -> Result<Vec<f64>, StorageError> {
    let allocation = allocate(set, m)?;
    let mut out = Vec::with_capacity(m as usize);
    for (block, &take) in set.iter().zip(&allocation) {
        sample_from_block(block.as_ref(), take, rng, &mut |v| out.push(v))?;
    }
    Ok(out)
}

/// Best-effort variant of [`sample_proportional`]: draws the same
/// proportional allocation, but survives failing blocks instead of
/// propagating their errors — each block's share through
/// [`sample_row_columns_from_block_surviving`] projected to column 0.
///
/// Per batch, transient errors ([`StorageError::is_transient`]) are
/// retried in place, with no delay between tries, up to `max_attempts`
/// total tries; permanent errors, exhausted budgets, and worker panics
/// skip the *rest of that block* and move on. Non-finite values
/// (corruption) are filtered out.
///
/// **Determinism.** Fault decorators fail *before* touching the RNG, so
/// a failed access consumes zero draws: an in-place retry reproduces the
/// exact draw stream an untroubled access would have produced, and a
/// skipped block leaves the stream where the next block expects it.
/// Under a fixed fault plan the returned sample is therefore a pure
/// function of `(set, m, rng seed)` — racing cold-cache pilot
/// computations stay idempotent.
///
/// Total loss — a set with no rows included — returns an empty vector;
/// callers keep their existing too-few-samples error paths.
pub fn sample_proportional_surviving(
    set: &BlockSet,
    m: u64,
    max_attempts: u32,
    rng: &mut dyn RngCore,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(m as usize);
    for (block, &take) in set.iter().zip(&allocate(set, m).unwrap_or_default()) {
        sample_row_columns_from_block_surviving(
            block.as_ref(),
            Some(&[0]),
            take,
            max_attempts,
            rng,
            &mut |buf| out.extend_from_slice(buf.rows()),
        );
    }
    out
}

/// Row-model twin of [`sample_proportional_surviving`]: best-effort
/// proportional row sampling that retries transient failures in place,
/// skips permanently failing blocks, converts panics into skips, and
/// drops rows containing non-finite values. Same determinism argument;
/// a set with no rows visits nothing.
pub fn sample_rows_proportional_surviving(
    set: &BlockSet,
    m: u64,
    max_attempts: u32,
    rng: &mut dyn RngCore,
    visit: &mut dyn FnMut(&[f64]),
) {
    for (block, &take) in set.iter().zip(&allocate(set, m).unwrap_or_default()) {
        sample_row_columns_from_block_surviving(
            block.as_ref(),
            None,
            take,
            max_attempts,
            rng,
            &mut |buf| buf.iter_rows().for_each(&mut *visit),
        );
    }
}

/// One block's share of [`sample_rows_proportional_surviving`], handing
/// each batch to `visit` as [`sample_row_columns_from_block`] does
/// (restricted to `columns`; `None`: every column). Same draws whatever
/// the projection; the batch arrives with its non-finite rows dropped,
/// as checked on the delivered columns — the ones the consumer reads.
pub fn sample_row_columns_from_block_surviving(
    block: &dyn DataBlock,
    columns: Option<&[usize]>,
    m: u64,
    max_attempts: u32,
    rng: &mut dyn RngCore,
    visit: &mut dyn FnMut(&mut RowSampleBuf),
) {
    with_row_sample_buf(|buf| {
        buf.project(columns);
        let mut left = m;
        'block: while left > 0 {
            let chunk = left.min(SAMPLE_BATCH_ROWS);
            let mut attempt = 0u32;
            loop {
                attempt += 1;
                match catch_unwind(AssertUnwindSafe(|| {
                    block.sample_rows_batch(chunk, &mut *rng, buf)
                })) {
                    Ok(Ok(())) => break,
                    Ok(Err(e)) if e.is_transient() && attempt < max_attempts.max(1) => continue,
                    Ok(Err(_)) | Err(_) => break 'block,
                }
            }
            buf.retain_finite_rows();
            visit(buf);
            left -= chunk;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::RowsBlock;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn three_block_set() -> BlockSet {
        BlockSet::new(vec![
            Arc::new(RowsBlock::new(vec![vec![1.0; 600]])) as Arc<dyn DataBlock>,
            Arc::new(RowsBlock::new(vec![vec![2.0; 300]])),
            Arc::new(RowsBlock::new(vec![vec![3.0; 100]])),
        ])
    }

    #[test]
    fn allocation_is_proportional_and_exact() {
        let set = three_block_set();
        let alloc = proportional_allocation(&set, 100);
        assert_eq!(alloc, vec![60, 30, 10]);
        assert_eq!(alloc.iter().sum::<u64>(), 100);
    }

    #[test]
    fn allocation_handles_remainders() {
        let set = three_block_set();
        // 7 samples over 600/300/100: exact shares 4.2/2.1/0.7 →
        // floors 4/2/0, remainder 1 goes to the largest fraction (0.7).
        let alloc = proportional_allocation(&set, 7);
        assert_eq!(alloc.iter().sum::<u64>(), 7);
        assert_eq!(alloc, vec![4, 2, 1]);
    }

    #[test]
    fn allocation_of_zero_samples() {
        let set = three_block_set();
        assert_eq!(proportional_allocation(&set, 0), vec![0, 0, 0]);
    }

    #[test]
    fn allocation_skips_empty_blocks() {
        let set = BlockSet::new(vec![
            Arc::new(RowsBlock::new(vec![vec![]])) as Arc<dyn DataBlock>,
            Arc::new(RowsBlock::new(vec![vec![1.0; 10]])),
        ]);
        let alloc = proportional_allocation(&set, 5);
        assert_eq!(alloc, vec![0, 5]);
    }

    #[test]
    fn proportional_sampling_reflects_block_mix() {
        let set = three_block_set();
        let mut rng = StdRng::seed_from_u64(7);
        let sample = sample_proportional(&set, 1000, &mut rng).unwrap();
        assert_eq!(sample.len(), 1000);
        let ones = sample.iter().filter(|&&v| v == 1.0).count();
        let twos = sample.iter().filter(|&&v| v == 2.0).count();
        let threes = sample.iter().filter(|&&v| v == 3.0).count();
        assert_eq!((ones, twos, threes), (600, 300, 100));
    }

    #[test]
    fn row_sampling_keeps_tuples_and_proportions() {
        let set = RowsBlock::split(
            vec![
                (0..1000).map(f64::from).collect(),
                (0..1000).map(|i| f64::from(i) * 3.0).collect(),
            ],
            4,
        );
        let mut rng = StdRng::seed_from_u64(11);
        let mut n = 0u64;
        sample_rows_proportional(&set, 200, &mut rng, &mut |row| {
            assert_eq!(row.len(), 2);
            assert_eq!(row[1], row[0] * 3.0, "tuple stays aligned");
            n += 1;
        })
        .unwrap();
        assert_eq!(n, 200);
    }

    #[test]
    fn skipped_row_draws_leave_the_rng_where_real_draws_do() {
        use crate::rows::ZipBlock;
        let col: Vec<f64> = (0..777).map(f64::from).collect();
        let blocks: Vec<Arc<dyn DataBlock>> = vec![
            Arc::new(RowsBlock::new(vec![col.clone()])),
            Arc::new(RowsBlock::new(vec![col.clone(), col.clone()])),
            Arc::new(ZipBlock::new(vec![
                Arc::new(RowsBlock::new(vec![col.clone()])),
                Arc::new(RowsBlock::new(vec![col])),
            ])),
        ];
        for block in &blocks {
            // Within one kernel batch, and across several.
            for m in [0, 1, 500, 2 * SAMPLE_BATCH_ROWS + 3] {
                let mut drawn = StdRng::seed_from_u64(m ^ 0x5EED);
                sample_rows_from_block(block.as_ref(), m, &mut drawn, &mut |_| {}).unwrap();
                let mut skipped = StdRng::seed_from_u64(m ^ 0x5EED);
                skip_row_draws(block.len(), m, &mut skipped);
                assert_eq!(
                    drawn.next_u64(),
                    skipped.next_u64(),
                    "width {}: {m} draws",
                    block.width()
                );
            }
        }
    }

    #[test]
    fn sample_from_block_propagates_errors() {
        let empty = RowsBlock::new(vec![vec![]]);
        let mut rng = StdRng::seed_from_u64(8);
        let r = sample_from_block(&empty, 3, &mut rng, &mut |_| {});
        assert!(matches!(r, Err(StorageError::Empty)));
    }

    /// A set of one block with no rows, and a seeded RNG whose next draw
    /// shows whether a sampler touched it.
    fn no_rows() -> (BlockSet, StdRng) {
        let set = BlockSet::single(RowsBlock::new(vec![vec![], vec![]]));
        (set, StdRng::seed_from_u64(31))
    }

    fn untouched(mut rng: StdRng) {
        assert_eq!(rng.next_u64(), StdRng::seed_from_u64(31).next_u64());
    }

    #[test]
    fn sample_proportional_refuses_a_set_with_no_rows() {
        let (set, mut rng) = no_rows();
        let r = sample_proportional(&set, 5, &mut rng);
        assert!(matches!(r, Err(StorageError::Empty)), "{r:?}");
        assert_eq!(sample_proportional(&set, 0, &mut rng).unwrap(), vec![]);
        untouched(rng);
    }

    #[test]
    fn sample_rows_proportional_refuses_a_set_with_no_rows() {
        let (set, mut rng) = no_rows();
        let r = sample_rows_proportional(&set, 5, &mut rng, &mut |_| panic!("no row"));
        assert!(matches!(r, Err(StorageError::Empty)), "{r:?}");
        untouched(rng);
    }

    #[test]
    fn surviving_sampler_draws_nothing_from_a_set_with_no_rows() {
        let (set, mut rng) = no_rows();
        assert!(sample_proportional_surviving(&set, 5, 3, &mut rng).is_empty());
        untouched(rng);
    }

    #[test]
    fn surviving_row_sampler_visits_nothing_from_a_set_with_no_rows() {
        let (set, mut rng) = no_rows();
        sample_rows_proportional_surviving(&set, 5, 3, &mut rng, &mut |_| panic!("no row"));
        untouched(rng);
    }

    #[test]
    fn surviving_sampler_recovers_transients_without_perturbing_the_stream() {
        use crate::fault::{BlockFault, FaultyBlock};
        let clean = three_block_set();
        let faulty = BlockSet::new(
            clean
                .iter()
                .map(|b| {
                    Arc::new(FaultyBlock::new(
                        Arc::clone(b),
                        BlockFault::Transient { failures: 2 },
                        None,
                    )) as Arc<dyn DataBlock>
                })
                .collect(),
        );
        let mut rng = StdRng::seed_from_u64(21);
        let baseline = sample_proportional(&clean, 500, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let recovered = sample_proportional_surviving(&faulty, 500, 3, &mut rng);
        assert_eq!(baseline, recovered, "in-place retries are stream-neutral");
    }

    #[test]
    fn surviving_sampler_skips_lost_and_panicking_blocks() {
        use crate::fault::{BlockFault, FaultyBlock};
        struct PanicBlock;
        impl DataBlock for PanicBlock {
            fn len(&self) -> u64 {
                300
            }
            fn gather(&self, _: &[usize], _: &[u64], _: &mut [f64]) -> Result<(), StorageError> {
                panic!("injected storage panic")
            }
            fn scan_column_chunks(
                &self,
                _: &[usize],
                _: &mut dyn FnMut(&[&[f64]]),
            ) -> Result<(), StorageError> {
                panic!("injected storage panic")
            }
        }
        let set = BlockSet::new(vec![
            Arc::new(RowsBlock::new(vec![vec![1.0; 600]])) as Arc<dyn DataBlock>,
            Arc::new(FaultyBlock::new(
                Arc::new(RowsBlock::new(vec![vec![2.0; 300]])),
                BlockFault::Lost,
                None,
            )),
            Arc::new(PanicBlock),
            Arc::new(RowsBlock::new(vec![vec![3.0; 100]])),
        ]);
        let mut rng = StdRng::seed_from_u64(22);
        let sample = sample_proportional_surviving(&set, 1300, 2, &mut rng);
        assert!(
            sample.iter().all(|&v| v == 1.0 || v == 3.0),
            "lost and panicking blocks contribute nothing"
        );
        assert_eq!(
            sample.iter().filter(|&&v| v == 1.0).count(),
            600,
            "surviving blocks keep their full proportional share"
        );
        assert_eq!(sample.iter().filter(|&&v| v == 3.0).count(), 100);
    }

    #[test]
    fn surviving_sampler_filters_corrupt_values() {
        use crate::fault::{BlockFault, FaultyBlock};
        let set = BlockSet::new(vec![
            Arc::new(RowsBlock::new(vec![vec![1.0; 500]])) as Arc<dyn DataBlock>,
            Arc::new(FaultyBlock::new(
                Arc::new(RowsBlock::new(vec![vec![2.0; 500]])),
                BlockFault::Corrupt,
                None,
            )),
        ]);
        let mut rng = StdRng::seed_from_u64(23);
        let sample = sample_proportional_surviving(&set, 400, 1, &mut rng);
        assert_eq!(sample.len(), 200, "NaN-corrupted draws are filtered");
        assert!(sample.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn surviving_row_sampler_drops_corrupt_rows_and_lost_blocks() {
        use crate::fault::{BlockFault, FaultyBlock};
        let rows = RowsBlock::split(
            vec![
                (0..1200).map(f64::from).collect(),
                (0..1200).map(|i| f64::from(i) * 2.0).collect(),
            ],
            3,
        );
        let faulty = BlockSet::new(
            rows.iter()
                .enumerate()
                .map(|(i, b)| {
                    let fault = match i {
                        0 => BlockFault::None,
                        1 => BlockFault::Lost,
                        _ => BlockFault::Corrupt,
                    };
                    Arc::new(FaultyBlock::new(Arc::clone(b), fault, None)) as Arc<dyn DataBlock>
                })
                .collect(),
        );
        let mut rng = StdRng::seed_from_u64(24);
        let mut n = 0u64;
        sample_rows_proportional_surviving(&faulty, 300, 1, &mut rng, &mut |row| {
            assert_eq!(row.len(), 2);
            assert_eq!(row[1], row[0] * 2.0, "surviving tuples stay aligned");
            assert!(row[0] < 400.0, "only block 0 survives intact");
            n += 1;
        });
        assert_eq!(n, 100, "exactly block 0's proportional share survives");
    }
}
