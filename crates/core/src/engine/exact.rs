//! Exact scans: the `METHOD EXACT` ground truth, placed by a scheduler.
//!
//! Every exact aggregate is one fold (`exact_fold`): each block scans
//! to **its own partial** — an [`ExactSum`] for AVG/SUM/COUNT (one per
//! group key under a [`RowSpec`]), a running extreme for MAX/MIN — through
//! the engine's block fan-out ([`scan_blocks`]), and the partials merge
//! **in block-id order, never completion order**. A partial depends on
//! its block alone and the merge on block order alone, so the answer is
//! one function of the data at any worker count; a sequential scan is
//! this fold at parallelism 1, and [`BlockSet::exact_mean`] is the same
//! per-block [`ExactSum`] merge written without a scheduler.
//!
//! Exact scans are strict in every failure mode: one attempt per block,
//! the lowest failing block's own error whatever finished first, a
//! panicking block surfaced as a typed error. There is nothing to
//! degrade to — an exact answer over some of the rows is not exact.

use std::collections::BTreeMap;

use isla_storage::{BlockSet, DataBlock, ExactSum, StorageError};

use crate::error::IslaError;
use crate::extremes::ExtremeKind;

use super::rows::{Projection, RowSpec};
use super::scheduler::{scan_blocks, BlockScheduler, SequentialScheduler};

/// Scans every block to a partial, `scheduler.parallelism()` blocks at a
/// time, and merges the partials in block order.
fn exact_fold<P: Send + Default>(
    data: &BlockSet,
    scheduler: &dyn BlockScheduler,
    scan: impl Fn(&dyn DataBlock) -> Result<P, StorageError> + Sync,
    mut merge: impl FnMut(&mut P, P),
) -> Result<P, IslaError> {
    let partials = scan_blocks(scheduler.parallelism(), data, |_, block| Ok(scan(block)?))?;
    let mut total = P::default();
    for partial in partials {
        merge(&mut total, partial);
    }
    Ok(total)
}

/// Exact mean of a scalar block set — [`BlockSet::exact_mean`], bit for
/// bit, with the block scans placed by `scheduler`.
///
/// # Errors
///
/// [`StorageError::Empty`] when the set holds no rows; otherwise the
/// scan failure of the lowest-numbered failing block.
pub fn scan_exact_mean(data: &BlockSet, scheduler: &dyn BlockScheduler) -> Result<f64, IslaError> {
    let total = exact_fold(data, scheduler, ExactSum::of_block, |total, block| {
        total.merge(&block)
    })?;
    total.mean().ok_or(IslaError::Storage(StorageError::Empty))
}

/// One group's exact aggregate from a full scan.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupExact {
    /// The group key value.
    pub key: f64,
    /// Exact mean of the aggregated column over matching rows.
    pub mean: f64,
    /// Exact count of matching rows.
    pub count: u64,
}

/// Computes exact per-group filtered aggregates by scanning every row —
/// the `METHOD EXACT` ground truth for row-model queries — with the
/// block scans placed by `scheduler`.
///
/// Returns groups sorted by key value; ungrouped specs yield a single
/// entry. An empty result means no row matched the predicate.
///
/// # Errors
///
/// A spec referencing a column some block lacks; otherwise the scan
/// failure of the lowest-numbered failing block (e.g. virtual blocks
/// past their cap).
pub fn scan_exact_groups_on(
    data: &BlockSet,
    spec: &RowSpec,
    scheduler: &dyn BlockScheduler,
) -> Result<Vec<GroupExact>, IslaError> {
    spec.validate(data)?;
    // Scan only the columns the spec reads; evaluate it re-indexed.
    let read = Projection::of(spec);
    let spec = &read.spec;
    let sums = exact_fold(
        data,
        scheduler,
        |block| {
            let mut groups: BTreeMap<u64, ExactSum> = BTreeMap::new();
            // One chunk's matching rows (chunk-local indices), reused.
            let mut matched = Vec::new();
            block.scan_column_chunks(&read.columns, &mut |chunk| {
                spec.filter.select(chunk, 0, &mut matched);
                let values = chunk[spec.agg_column];
                let keys = spec.group_by.map(|col| chunk[col]);
                let key_of = |i: u32| keys.map_or(0f64, |keys| keys[i as usize]).to_bits();
                // Each group folds its matched values in row order —
                // all a compensated sum can see — with one map lookup
                // per run of equal keys instead of one per row.
                let mut rest = matched.as_slice();
                while let Some(&first) = rest.first() {
                    let key = key_of(first);
                    let run = rest.iter().take_while(|&&i| key_of(i) == key).count();
                    let sum = groups.entry(key).or_default();
                    for &i in &rest[..run] {
                        sum.add(values[i as usize]);
                    }
                    rest = &rest[run..];
                }
            })?;
            Ok(groups)
        },
        |total, block| {
            for (key_bits, sum) in block {
                total.entry(key_bits).or_default().merge(&sum);
            }
        },
    )?;
    let mut out: Vec<GroupExact> = sums
        .into_iter()
        .filter_map(|(key_bits, sum)| {
            Some(GroupExact {
                key: f64::from_bits(key_bits),
                mean: sum.mean()?,
                count: sum.count(),
            })
        })
        .collect();
    out.sort_by(|a, b| a.key.total_cmp(&b.key));
    Ok(out)
}

/// [`scan_exact_groups_on`] placed on the calling thread.
///
/// # Errors
///
/// As [`scan_exact_groups_on`].
pub fn scan_exact_groups(data: &BlockSet, spec: &RowSpec) -> Result<Vec<GroupExact>, IslaError> {
    scan_exact_groups_on(data, spec, &SequentialScheduler)
}

/// Exact MAX or MIN of a scalar block set, with the block scans placed
/// by `scheduler`; `None` when the set holds no rows.
///
/// # Errors
///
/// The scan failure of the lowest-numbered failing block.
pub fn scan_exact_extreme(
    data: &BlockSet,
    kind: ExtremeKind,
    scheduler: &dyn BlockScheduler,
) -> Result<Option<f64>, IslaError> {
    exact_fold(
        data,
        scheduler,
        |block| {
            let mut extreme = kind.identity();
            let mut any = false;
            block.scan_chunks(&mut |chunk| {
                any |= !chunk.is_empty();
                for &v in chunk {
                    extreme = kind.fold(extreme, v);
                }
            })?;
            Ok(any.then_some(extreme))
        },
        |total: &mut Option<f64>, block| {
            *total = match (*total, block) {
                (Some(so_far), Some(later)) => Some(kind.fold(so_far, later)),
                (so_far, later) => so_far.or(later),
            };
        },
    )
}
