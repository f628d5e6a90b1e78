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
//! A filtered scan reads a block the way its zone map allows
//! (`scan_block_matches`): not at all when no row can match, only the
//! aggregate (+ group) columns and no test when every row matches, and
//! otherwise the columns the spec reads, each chunk put through
//! [`isla_storage::RowFilter::select`]. What a verdict skips is what a
//! scan would have found, so the partials do not move a bit. A grouped
//! scan then routes and folds each chunk's matches as every row fold
//! does (`super::fold`): each group's values in row order.
//!
//! Exact scans are strict in every failure mode: one attempt per block,
//! the lowest failing block's own error whatever finished first, a
//! panicking block surfaced as a typed error. There is nothing to
//! degrade to — an exact answer over some of the rows is not exact.

use std::collections::BTreeMap;

use isla_storage::{BlockReads, BlockSet, DataBlock, ExactSum, StorageError};

use crate::error::IslaError;
use crate::extremes::ExtremeKind;

use super::fold::Groups;
use super::rows::{RowSpec, ZonedRead};
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

/// A consumer of [`scan_block_matches`]'s chunks: the re-indexed spec, the
/// chunk's columns, its matching rows (`None`: every row).
type MatchingChunk<'a> = dyn FnMut(&RowSpec, &[&[f64]], Option<&[u32]>) + 'a;

/// Visits one block's rows that match `read`'s filter, chunk by chunk —
/// the per-block scan under every exact filtered fold. `visit` gets the
/// spec re-indexed against the chunk's columns, the chunk, and the
/// chunk-local indices of the matching rows, ascending — `None` when
/// every row of the chunk matches. A block the zone map proves matchless
/// is not read; one it proves all-match is read through the filter-less
/// projection and never tested.
fn scan_block_matches(
    block: &dyn DataBlock,
    read: &ZonedRead,
    visit: &mut MatchingChunk<'_>,
) -> Result<(), StorageError> {
    let Some(projection) = read.of_block(block) else {
        return Ok(());
    };
    let spec = &projection.spec;
    // One chunk's matching rows, reused.
    let mut matched = Vec::new();
    block.scan_column_chunks(&projection.columns, &mut |chunk| {
        if spec.filter.is_trivial() {
            visit(spec, chunk, None);
        } else {
            spec.filter.select(chunk, 0, &mut matched);
            visit(spec, chunk, Some(&matched));
        }
    })
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
    let read = ZonedRead::of(spec);
    let sums = exact_fold(
        data,
        scheduler,
        |block| {
            let mut groups: Groups<ExactSum> = Groups::default();
            scan_block_matches(block, &read, &mut |spec, chunk, matched| {
                let values = chunk[spec.agg_column];
                let keys = spec.group_by.map(|col| chunk[col]);
                let key_of = keys.map(|keys| move |i: usize| keys[i].to_bits());
                let add = |sum: &mut ExactSum, v: f64| sum.add(v);
                match matched {
                    Some(rows) => {
                        let rows = rows.iter().map(|&i| i as usize);
                        groups.fold(rows, key_of, |i| values[i], add);
                    }
                    None => groups.fold(0..values.len(), key_of, |i| values[i], add),
                }
            })?;
            Ok(groups
                .iter()
                .map(|(key, &sum)| (key, sum))
                .collect::<BTreeMap<_, _>>())
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
        merge_extremes(kind),
    )
}

/// Exact MAX or MIN of `spec`'s aggregate column over the rows matching
/// its filter (`spec.group_by` plays no part), with the block scans
/// placed by `scheduler`; `None` when no row matches. Blocks are read as
/// the zone map allows (see the module docs), so a block that cannot
/// match costs nothing and one that matches everywhere is one plain fold
/// over its column. Bit for bit the single running extreme over every
/// matching row in storage order.
///
/// # Errors
///
/// A spec referencing a column some block lacks; otherwise the scan
/// failure of the lowest-numbered failing block.
pub fn scan_exact_filtered_extreme(
    data: &BlockSet,
    spec: &RowSpec,
    kind: ExtremeKind,
    scheduler: &dyn BlockScheduler,
) -> Result<Option<f64>, IslaError> {
    spec.validate(data)?;
    let read = ZonedRead::of(spec);
    exact_fold(
        data,
        scheduler,
        |block| {
            let mut extreme = kind.identity();
            let mut any = false;
            scan_block_matches(block, &read, &mut |spec, chunk, matched| {
                let values = chunk[spec.agg_column];
                match matched {
                    Some(rows) => {
                        any |= !rows.is_empty();
                        for &i in rows {
                            extreme = kind.fold(extreme, values[i as usize]);
                        }
                    }
                    None => {
                        any |= !values.is_empty();
                        for &v in values {
                            extreme = kind.fold(extreme, v);
                        }
                    }
                }
            })?;
            Ok(any.then_some(extreme))
        },
        merge_extremes(kind),
    )
}

/// The block-order merge of per-block extremes (`None`: the block had
/// no row to fold).
fn merge_extremes(kind: ExtremeKind) -> impl FnMut(&mut Option<f64>, Option<f64>) {
    move |total, block| {
        *total = match (*total, block) {
            (Some(so_far), Some(later)) => Some(kind.fold(so_far, later)),
            (so_far, later) => so_far.or(later),
        };
    }
}
