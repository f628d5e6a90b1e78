//! Block sets: a dataset as an ordered collection of blocks.

use std::sync::Arc;

use crate::block::{BlockReads, DataBlock};
use crate::error::StorageError;
use crate::filter::RowFilter;
use crate::rows::RowsBlock;
use crate::selection::{self, SelectionCache, SelectionTail, SelectionVector, SetSelection};
use crate::sketch::{self, BlockSketch, KeyedSketch, SetSketches, SketchCache};

/// The shape of a block set at one epoch: how many blocks and rows it
/// held after that epoch's seal. `epoch_marks()[e]` is the shape after
/// epoch `e`; epoch 0 is the constructed set, every append bumps the
/// epoch by one. Cached derived state records the epoch it covers and
/// validates against the mark, so a consumer can fold exactly the
/// blocks `marks[e-1].blocks..marks[e].blocks` as epoch `e`'s delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochMark {
    /// Blocks in the set after this epoch.
    pub blocks: usize,
    /// Rows in the set after this epoch.
    pub rows: u64,
}

/// Seal-time derived state of one block about to be appended: its
/// moment sketch and one compiled selection vector per filter cached on
/// the target set. Computed by [`BlockSet::seal_derived`] **without any
/// lock held** (it scans the block), then merged cheaply into the
/// shared caches by [`BlockSet::append_epoch`].
pub struct SealedDerived {
    sketch: Option<Arc<BlockSketch>>,
    /// Per cached filter: the new block's compiled vector (`None` when
    /// the block cannot scan) and whether the zone map pruned the scan.
    selections: Vec<(RowFilter, Option<Arc<SelectionVector>>, bool)>,
}

impl std::fmt::Debug for SealedDerived {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SealedDerived")
            .field("sketch", &self.sketch.is_some())
            .field("selections", &self.selections.len())
            .finish()
    }
}

/// An ordered collection of blocks forming one dataset (the paper's block
/// set `B = {B₁, …, B_b}`).
#[derive(Clone)]
pub struct BlockSet {
    blocks: Vec<Arc<dyn DataBlock>>,
    // Cached at construction and maintained by appends: `total_len()`
    // is hit once per phase per query, and re-summing virtual/generator
    // block lengths on every call is pure overhead.
    total_rows: u64,
    // Epoch history: marks[e] is the (blocks, rows) shape after epoch
    // e. Appends push a mark; clones snapshot the history.
    marks: Vec<EpochMark>,
    // Compiled WHERE selections, keyed by filter fingerprint; shared
    // across clones so a predicate compiles at most once per dataset.
    selections: Arc<SelectionCache>,
    // Per-block moment sketches, keyed by block index; shared across
    // clones so a lazy block is sketched at most once per dataset.
    sketches: Arc<SketchCache>,
}

impl std::fmt::Debug for BlockSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockSet")
            .field("blocks", &self.blocks.len())
            .field("total_rows", &self.total_len())
            .finish()
    }
}

impl BlockSet {
    /// Builds a block set from pre-constructed blocks.
    ///
    /// # Panics
    ///
    /// Panics on an empty block list — a dataset has at least one block.
    pub fn new(blocks: Vec<Arc<dyn DataBlock>>) -> Self {
        assert!(!blocks.is_empty(), "a block set needs at least one block");
        let total_rows = blocks.iter().map(|b| b.len()).sum();
        Self::assemble(blocks, total_rows)
    }

    fn assemble(blocks: Vec<Arc<dyn DataBlock>>, total_rows: u64) -> Self {
        let marks = vec![EpochMark {
            blocks: blocks.len(),
            rows: total_rows,
        }];
        Self {
            blocks,
            total_rows,
            marks,
            selections: Arc::new(SelectionCache::new()),
            sketches: Arc::new(SketchCache::new()),
        }
    }

    /// Builds a block set that inherits an existing epoch history —
    /// used by column projections (and catalog layers rebuilding a
    /// set's blocks 1:1, e.g. re-zipping rows after a column addition)
    /// so the derived set folds the same epoch segments as its parent.
    /// The last mark must describe `blocks` exactly.
    pub fn with_marks(blocks: Vec<Arc<dyn DataBlock>>, marks: Vec<EpochMark>) -> Self {
        assert!(!blocks.is_empty(), "a block set needs at least one block");
        let total_rows = blocks.iter().map(|b| b.len()).sum();
        debug_assert_eq!(
            marks.last(),
            Some(&EpochMark {
                blocks: blocks.len(),
                rows: total_rows,
            }),
            "epoch history must end at the set's current shape"
        );
        Self {
            blocks,
            total_rows,
            marks,
            selections: Arc::new(SelectionCache::new()),
            sketches: Arc::new(SketchCache::new()),
        }
    }

    /// Splits `values` evenly into `block_count` in-memory blocks, the way
    /// the paper prepares its experiments ("Data are evenly divided into b
    /// parts to process the computations"): [`RowsBlock::split`] of one
    /// column, so every block is a width-1 [`RowsBlock`].
    ///
    /// The first `len % block_count` blocks receive one extra row when the
    /// division is not exact. `values` stays one buffer, which every
    /// block windows into: nothing is copied, and a block kept on its own
    /// keeps the whole buffer.
    ///
    /// # Panics
    ///
    /// Panics if `block_count == 0`, `values` is empty, or any value is
    /// not finite.
    pub fn from_values(values: Vec<f64>, block_count: usize) -> Self {
        RowsBlock::split(vec![values], block_count)
    }

    /// A block set with a single block.
    pub fn single(block: impl DataBlock + 'static) -> Self {
        let total_rows = block.len();
        Self::assemble(vec![Arc::new(block)], total_rows)
    }

    /// Number of blocks `b`.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of rows `M` across all blocks (cached at
    /// construction and maintained by appends — individual blocks are
    /// immutable once sealed into the set).
    pub fn total_len(&self) -> u64 {
        self.total_rows
    }

    /// The set's epoch: 0 as constructed, +1 per sealed append batch.
    /// Derived caches record the epoch they cover; a query after ingest
    /// folds only the blocks of newer epochs.
    pub fn epoch(&self) -> u64 {
        (self.marks.len() - 1) as u64
    }

    /// The shape history: `epoch_marks()[e]` is the (blocks, rows)
    /// shape after epoch `e`; the last mark is the current shape.
    pub fn epoch_marks(&self) -> &[EpochMark] {
        &self.marks
    }

    /// Computes the seal-time derived state of a block about to be
    /// appended: its moment sketch (the block's own hook, else one
    /// scan) and a compiled selection vector for every filter currently
    /// cached on this set (zone-pruned against the fresh sketch where
    /// provable). This scans block data, so callers must not hold any
    /// lock across it — the cheap merge happens in
    /// [`BlockSet::append_epoch`].
    ///
    /// # Errors
    ///
    /// Propagates the block's scan failure.
    pub fn seal_derived(&self, block: &Arc<dyn DataBlock>) -> Result<SealedDerived, StorageError> {
        let sketch = match block.sketch() {
            Some(s) => Some(s),
            None => sketch::scan_sketch(block.as_ref())?.map(Arc::new),
        };
        let mut selections = Vec::new();
        for filter in self.selections.cached_filters() {
            let pruned = sketch
                .as_ref()
                .is_some_and(|s| selection::proves_matchless(s, &filter));
            let vector = if pruned {
                Some(Arc::new(SelectionVector::empty()))
            } else {
                SelectionVector::build(block.as_ref(), &filter)?.map(Arc::new)
            };
            selections.push((filter, vector, pruned));
        }
        Ok(SealedDerived { sketch, selections })
    }

    /// Appends a sealed batch as one new epoch, **merging** the seal-time
    /// derived state into the shared caches instead of invalidating
    /// them. The work here is O(blocks appended + filters cached) map
    /// operations — all scanning already happened in
    /// [`BlockSet::seal_derived`].
    ///
    /// Clones taken before the append keep seeing their own (shorter)
    /// block list; the shared caches stay sound for them because
    /// lookups are index-keyed (sketches) or prefix-corrected
    /// (selections). An empty batch is a no-op and does not bump the
    /// epoch.
    pub fn append_epoch(&mut self, batch: Vec<(Arc<dyn DataBlock>, SealedDerived)>) {
        if batch.is_empty() {
            return;
        }
        let base_count = self.blocks.len();
        let mut sketches = Vec::new();
        // One selection tail per filter covered by *every* batch entry;
        // a filter cached mid-seal (seen by some entries only) is left
        // stale-short and healed on demand by the selection cache.
        let mut tails: Vec<(RowFilter, SelectionTail)> = batch
            .first()
            .map(|(_, derived)| {
                derived
                    .selections
                    .iter()
                    .map(|(f, _, _)| (f.clone(), Vec::new()))
                    .collect()
            })
            .unwrap_or_default();
        for (offset, (block, derived)) in batch.into_iter().enumerate() {
            if let Some(sketch) = derived.sketch {
                sketches.push((base_count + offset, sketch));
            }
            tails.retain_mut(|(filter, tail)| {
                match derived.selections.iter().find(|(f, _, _)| f == filter) {
                    Some((_, vector, pruned)) => {
                        tail.push((vector.clone(), *pruned));
                        true
                    }
                    None => false,
                }
            });
            self.total_rows += block.len();
            self.blocks.push(block);
        }
        self.marks.push(EpochMark {
            blocks: self.blocks.len(),
            rows: self.total_rows,
        });
        self.sketches.merge_sealed(sketches);
        self.selections.merge_sealed(base_count, tails);
    }

    /// Seals one block into the set as a new epoch: computes its
    /// derived state ([`BlockSet::seal_derived`]) and merges it
    /// ([`BlockSet::append_epoch`]).
    ///
    /// # Errors
    ///
    /// Propagates the block's scan failure; the set is unchanged then.
    pub fn append_block(&mut self, block: Arc<dyn DataBlock>) -> Result<(), StorageError> {
        let derived = self.seal_derived(&block)?;
        self.append_epoch(vec![(block, derived)]);
        Ok(())
    }

    /// A fresh set over the blocks `range` of this one (fresh caches,
    /// epoch 0) — the segment view an epoch-delta fold pilots over.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty or out of bounds.
    pub fn subrange(&self, range: std::ops::Range<usize>) -> BlockSet {
        assert!(
            range.start < range.end && range.end <= self.blocks.len(),
            "subrange out of bounds"
        );
        BlockSet::new(self.blocks[range].to_vec())
    }

    /// The `i`-th block.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn block(&self, i: usize) -> &Arc<dyn DataBlock> {
        &self.blocks[i]
    }

    /// Iterates over the blocks.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn DataBlock>> {
        self.blocks.iter()
    }

    /// Scans every block in order, visiting every row. Fails if any block
    /// does not support scanning.
    ///
    /// # Errors
    ///
    /// Propagates the first block error.
    pub fn scan_all(&self, visit: &mut dyn FnMut(f64)) -> Result<(), StorageError> {
        for block in &self.blocks {
            block.scan(visit)?;
        }
        Ok(())
    }

    /// Scans every block in order, visiting every row *tuple*. Fails if
    /// any block does not support scanning.
    ///
    /// # Errors
    ///
    /// Propagates the first block error.
    pub fn scan_all_rows(&self, visit: &mut dyn FnMut(&[f64])) -> Result<(), StorageError> {
        for block in &self.blocks {
            block.scan_rows(visit)?;
        }
        Ok(())
    }

    /// Scans every block in order as contiguous value chunks (the
    /// batched form of [`BlockSet::scan_all`]; values arrive in the
    /// identical order, only the callback granularity changes).
    ///
    /// # Errors
    ///
    /// Propagates the first block error.
    pub fn scan_all_chunks(&self, visit: &mut dyn FnMut(&[f64])) -> Result<(), StorageError> {
        for block in &self.blocks {
            block.scan_chunks(visit)?;
        }
        Ok(())
    }

    /// The compiled selection of this set under `filter`, built (one
    /// row scan per block) and cached on first use; later calls for a
    /// fingerprint-equal filter return the cached structure. See
    /// [`crate::SelectionVector`] for what compiles and what falls back.
    ///
    /// # Errors
    ///
    /// Propagates compilation scan failures.
    pub fn selection_for(&self, filter: &RowFilter) -> Result<Arc<SetSelection>, StorageError> {
        // Zone maps: whatever sketches are available in O(1) let the
        // builder prove blocks matchless before scanning them. Never
        // forces a sketch scan — pruning is an opportunistic win.
        self.selections
            .get_or_build(&self.blocks, filter, Some(&self.ready_sketches()))
    }

    /// The per-block sketches available **without scanning**: cached
    /// entries plus [`DataBlock::sketch`] hooks (cached on first sight).
    /// Blocks with neither get a `None` entry. O(blocks), never touches
    /// block data.
    pub fn ready_sketches(&self) -> SetSketches {
        let entries = self
            .blocks
            .iter()
            .enumerate()
            .map(|(idx, block)| match self.sketches.get(idx) {
                Some(s) => Some(s),
                None => block.sketch().map(|s| self.sketches.insert(idx, s)),
            })
            .collect();
        SetSketches::new(entries)
    }

    /// The per-block sketches, computing (and caching) missing ones by
    /// scanning — the forcing form of [`BlockSet::ready_sketches`].
    /// Only blocks that do not support scanning at all keep a `None`
    /// entry.
    ///
    /// # Errors
    ///
    /// Propagates a block's scan failure (I/O, parse).
    pub fn sketches(&self) -> Result<SetSketches, StorageError> {
        let mut entries = Vec::with_capacity(self.blocks.len());
        for (idx, block) in self.blocks.iter().enumerate() {
            let entry = match self.sketches.get(idx) {
                Some(s) => Some(s),
                None => match block.sketch() {
                    Some(s) => Some(self.sketches.insert(idx, s)),
                    None => sketch::scan_sketch(block.as_ref())?
                        .map(|s| self.sketches.insert(idx, Arc::new(s))),
                },
            };
            entries.push(entry);
        }
        Ok(SetSketches::new(entries))
    }

    /// The [`KeyedSketch`]es of column `agg_col` keyed by column
    /// `key_col` of the blocks `blocks`, in that order: the cached
    /// entries read under one lock, each missing one built by one scan of
    /// the two columns ([`sketch::scan_keyed_sketch`]) and cached, "too
    /// many keys" included. `None` where a block holds more than
    /// [`sketch::MAX_SKETCH_KEYS`] keys, cannot scan, or failed its scan
    /// (a failure is not cached).
    ///
    /// # Panics
    ///
    /// Panics when a block index is out of range or a column is out of
    /// the block's width.
    pub fn keyed_sketches(
        &self,
        blocks: &[usize],
        key_col: usize,
        agg_col: usize,
    ) -> Vec<Option<Arc<KeyedSketch>>> {
        let cached = self.sketches.keyed(blocks, key_col, agg_col);
        blocks
            .iter()
            .zip(cached)
            .map(|(&idx, entry)| {
                entry.unwrap_or_else(|| {
                    let block = self.blocks[idx].as_ref();
                    let built = sketch::scan_keyed_sketch(block, key_col, agg_col).ok()?;
                    self.sketches
                        .insert_keyed((idx, key_col, agg_col), built.map(Arc::new))
                })
            })
            .collect()
    }

    /// Drops every derived structure cached on this set — compiled
    /// selections and per-block sketches — across **all clones** (the
    /// caches are `Arc`-shared). This is the invalidation to run after
    /// mutating block contents in place: stale selection indices would
    /// point at rows that no longer match, and stale sketch min/max
    /// would let the zone-map prune wrongly discard matching blocks.
    /// Eagerly hooked sketches ([`DataBlock::sketch`]) re-enter the
    /// cache on next use — the hook, not the cache, is their source of
    /// truth.
    pub fn invalidate_derived(&self) {
        self.selections.clear();
        self.sketches.clear();
    }

    /// Hit/build counters of the compiled-selection cache.
    pub fn selection_stats(&self) -> crate::selection::SelectionCacheStats {
        self.selections.stats()
    }

    /// Number of compiled selections currently cached.
    pub fn selection_cache_len(&self) -> usize {
        self.selections.len()
    }

    /// Counters of the per-block sketch cache.
    pub fn sketch_stats(&self) -> crate::sketch::SketchCacheStats {
        self.sketches.stats()
    }

    /// Number of per-block sketches currently cached.
    pub fn sketch_cache_len(&self) -> usize {
        self.sketches.len()
    }

    /// The row tuple width shared by the blocks (the maximum across
    /// blocks; homogeneous sets — the only kind the catalog builds —
    /// have one width).
    pub fn width(&self) -> usize {
        self.blocks.iter().map(|b| b.width()).max().unwrap_or(1)
    }

    /// Exact mean over all rows by full scan — the evaluation's ground
    /// truth for materialized datasets. The [`ExactSum`] fold, blocks
    /// scanned one after another on the calling thread.
    ///
    /// # Errors
    ///
    /// [`StorageError::Empty`] if the set holds no rows; scan errors
    /// otherwise.
    pub fn exact_mean(&self) -> Result<f64, StorageError> {
        let mut total = ExactSum::default();
        for block in &self.blocks {
            total.merge(&ExactSum::of_block(block.as_ref())?);
        }
        total.mean().ok_or(StorageError::Empty)
    }
}

/// The exact AVG/SUM state of some rows: a compensated sum and a count.
///
/// The unit of every exact scan is **one block's** `ExactSum`; a set's
/// is its blocks' merged in block order. Whoever scans the blocks — this
/// crate one after another ([`BlockSet::exact_mean`]), the engine on a
/// worker pool — the merge sees the same partials in the same order, so
/// the answer is one function of the data.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExactSum {
    sum: isla_stats::NeumaierSum,
    count: u64,
}

impl ExactSum {
    /// One block's state: its values folded in storage order.
    ///
    /// # Errors
    ///
    /// Propagates the block's scan failure.
    pub fn of_block(block: &dyn DataBlock) -> Result<Self, StorageError> {
        let mut partial = Self::default();
        // Chunked scan: the scalar scan's values in the same order,
        // one dispatch per slice instead of per value.
        block.scan_chunks(&mut |chunk| {
            for &v in chunk {
                partial.sum.add(v);
            }
            partial.count += chunk.len() as u64;
        })?;
        Ok(partial)
    }

    /// Folds one more value in.
    #[inline]
    pub fn add(&mut self, value: f64) {
        self.sum.add(value);
        self.count += 1;
    }

    /// Absorbs the state of the rows that follow these.
    pub fn merge(&mut self, later: &ExactSum) {
        self.sum.merge(&later.sum);
        self.count += later.count;
    }

    /// Rows folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The mean of the rows folded in; `None` when there are none.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum.value() / self.count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_values_splits_evenly() {
        let set = BlockSet::from_values((0..10).map(f64::from).collect(), 3);
        assert_eq!(set.block_count(), 3);
        assert_eq!(set.total_len(), 10);
        // 10 = 4 + 3 + 3.
        let sizes: Vec<u64> = set.iter().map(|b| b.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        // Order is preserved across the split.
        let mut all = Vec::new();
        set.scan_all(&mut |v| all.push(v)).unwrap();
        assert_eq!(all, (0..10).map(f64::from).collect::<Vec<_>>());
    }

    #[test]
    fn exact_mean_over_blocks() {
        let set = BlockSet::from_values(vec![1.0, 2.0, 3.0, 4.0, 5.0, 20.0], 2);
        let mean = set.exact_mean().unwrap();
        assert!((mean - 35.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn single_block_set() {
        let set = BlockSet::single(RowsBlock::new(vec![vec![7.0, 9.0]]));
        assert_eq!(set.block_count(), 1);
        assert_eq!(set.block(0).len(), 2);
        assert_eq!(set.exact_mean().unwrap(), 8.0);
    }

    #[test]
    fn empty_rows_error_on_exact_mean() {
        let set = BlockSet::single(RowsBlock::new(vec![vec![]]));
        assert!(matches!(set.exact_mean(), Err(StorageError::Empty)));
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn rejects_empty_block_list() {
        let _ = BlockSet::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "block count must be positive")]
    fn rejects_zero_block_count() {
        let _ = BlockSet::from_values(vec![1.0], 0);
    }

    #[test]
    fn more_blocks_than_values_yields_empty_tail_blocks() {
        let set = BlockSet::from_values(vec![1.0, 2.0], 4);
        let sizes: Vec<u64> = set.iter().map(|b| b.len()).collect();
        assert_eq!(sizes, vec![1, 1, 0, 0]);
    }

    #[test]
    fn invalidate_derived_reaches_every_clone() {
        use crate::filter::{CmpOp, ColumnPredicate, RowFilter};
        let set = BlockSet::from_values((0..100).map(f64::from).collect(), 4);
        let clone = set.clone();
        let filter = RowFilter::new(vec![ColumnPredicate {
            column: 0,
            op: CmpOp::Gt,
            value: 50.0,
        }]);
        set.selection_for(&filter).unwrap();
        set.sketches().unwrap();
        assert_eq!(clone.selection_cache_len(), 1, "caches are shared");
        assert_eq!(clone.sketch_cache_len(), 4);
        // Invalidating through the clone clears the original's view too.
        clone.invalidate_derived();
        assert_eq!(set.selection_cache_len(), 0);
        assert_eq!(set.sketch_cache_len(), 0);
        // Next use rebuilds: one more selection build, fresh sketches.
        let builds_before = set.selection_stats().builds;
        set.selection_for(&filter).unwrap();
        set.sketches().unwrap();
        assert_eq!(set.selection_stats().builds, builds_before + 1);
        assert_eq!(set.sketch_cache_len(), 4);
    }

    fn gt(value: f64) -> RowFilter {
        use crate::filter::{CmpOp, ColumnPredicate};
        RowFilter::new(vec![ColumnPredicate {
            column: 0,
            op: CmpOp::Gt,
            value,
        }])
    }

    #[test]
    fn append_merges_caches_instead_of_invalidating() {
        let mut set = BlockSet::from_values((0..100).map(f64::from).collect(), 4);
        assert_eq!(set.epoch(), 0);
        let filter = gt(49.5);
        let before = set.selection_for(&filter).unwrap();
        assert_eq!(before.total_matches(), 50);
        set.sketches().unwrap();
        let builds = set.selection_stats().builds;

        let block: Arc<dyn DataBlock> =
            Arc::new(RowsBlock::new(vec![(100..120).map(f64::from).collect()]));
        set.append_block(block).unwrap();
        assert_eq!(set.epoch(), 1);
        assert_eq!(set.block_count(), 5);
        assert_eq!(set.total_len(), 120);
        assert_eq!(
            set.epoch_marks(),
            &[
                EpochMark {
                    blocks: 4,
                    rows: 100
                },
                EpochMark {
                    blocks: 5,
                    rows: 120
                },
            ]
        );
        // The cached selection was extended at seal time: the next
        // lookup is a hit covering all five blocks, no rebuild.
        let after = set.selection_for(&filter).unwrap();
        assert_eq!(set.selection_stats().builds, builds, "no recompilation");
        assert_eq!(after.block_count(), 5);
        assert_eq!(after.total_matches(), 70);
        // The sealed block's sketch entered the cache without a scan.
        assert_eq!(set.sketch_cache_len(), 5);
        assert_eq!(set.sketches.sealed_epoch(), 1);
    }

    #[test]
    fn pre_append_clone_sees_its_own_epoch_prefix() {
        let mut set = BlockSet::from_values((0..100).map(f64::from).collect(), 4);
        let filter = gt(89.5);
        let snapshot = set.clone();
        let cold = snapshot.selection_for(&filter).unwrap();
        assert_eq!(cold.total_matches(), 10);

        let block: Arc<dyn DataBlock> = Arc::new(RowsBlock::new(vec![vec![1000.0; 8]]));
        set.append_block(block).unwrap();
        // The shared cache now covers 5 blocks, but the snapshot must
        // keep answering for its 4: the prefix of the extended
        // selection, which is exactly what it compiled before.
        let again = snapshot.selection_for(&filter).unwrap();
        assert_eq!(again.block_count(), 4);
        assert_eq!(again.total_matches(), 10);
        for i in 0..4 {
            assert_eq!(
                again.block(i).unwrap().indices(),
                cold.block(i).unwrap().indices()
            );
        }
        // The appended set sees the extension.
        let extended = set.selection_for(&filter).unwrap();
        assert_eq!(extended.block_count(), 5);
        assert_eq!(extended.total_matches(), 18);
    }

    #[test]
    fn on_demand_extension_heals_a_filter_cached_before_the_append() {
        // A filter compiled on the 4-block set, then an append whose
        // seal-time merge *misses* it (simulated by appending via
        // append_epoch with hook-only derived state): the next lookup
        // on the appended set compiles only the missing tail.
        let mut set = BlockSet::from_values((0..100).map(f64::from).collect(), 4);
        let filter = gt(49.5);
        set.selection_for(&filter).unwrap();
        let builds = set.selection_stats().builds;
        let block: Arc<dyn DataBlock> =
            Arc::new(RowsBlock::new(vec![(100..110).map(f64::from).collect()]));
        let derived = SealedDerived {
            sketch: block.sketch(),
            selections: Vec::new(),
        };
        set.append_epoch(vec![(block, derived)]);
        let healed = set.selection_for(&filter).unwrap();
        assert_eq!(healed.block_count(), 5);
        assert_eq!(healed.total_matches(), 60);
        assert_eq!(
            set.selection_stats().builds,
            builds + 1,
            "one tail compilation"
        );
        // And now it is cached at full coverage.
        let hit = set.selection_for(&filter).unwrap();
        assert_eq!(hit.block_count(), 5);
    }

    #[test]
    fn empty_append_batch_is_a_no_op() {
        let mut set = BlockSet::from_values(vec![1.0, 2.0], 1);
        set.append_epoch(Vec::new());
        assert_eq!(set.epoch(), 0);
        assert_eq!(set.block_count(), 1);
    }

    #[test]
    fn seal_vs_query_race_leaves_sketches_complete_and_consistent() {
        // Satellite: an appender sealing batches races readers forcing
        // sketches on their own snapshots. Every reader must see a
        // complete, consistent sketch set for *its* epoch, and the
        // final cache must hold exactly one correct sketch per block.
        let base = BlockSet::from_values((0..400).map(f64::from).collect(), 8);
        let batches = 16usize;
        let writer_set = base.clone();
        std::thread::scope(|scope| {
            let mut writer = writer_set;
            let appender = scope.spawn(move || {
                for b in 0..batches {
                    let vals: Vec<f64> = (0..50u32).map(|i| f64::from(b as u32 * 50 + i)).collect();
                    let block: Arc<dyn DataBlock> = Arc::new(RowsBlock::new(vec![vals]));
                    writer.append_block(block).unwrap();
                }
                writer
            });
            for _ in 0..3 {
                let reader = base.clone();
                scope.spawn(move || {
                    for _ in 0..200 {
                        let sketches = reader.sketches().unwrap();
                        assert!(sketches.is_complete());
                        assert_eq!(sketches.len(), reader.block_count());
                        let merged = sketches.merged().unwrap();
                        assert_eq!(merged.rows, reader.total_len());
                    }
                });
            }
            let final_set = appender.join().unwrap();
            assert_eq!(final_set.epoch(), batches as u64);
            assert_eq!(final_set.sketches.sealed_epoch(), batches as u64);
            // Every block's cached sketch matches a fresh scan of that
            // block — no partial or misplaced merge.
            let cached = final_set.sketches().unwrap();
            assert!(cached.is_complete());
            for (idx, block) in final_set.iter().enumerate() {
                let fresh = sketch::scan_sketch(block.as_ref()).unwrap().unwrap();
                let got = cached.block(idx).unwrap();
                assert_eq!(got.rows, fresh.rows, "block {idx}");
                assert_eq!(
                    got.column(0).unwrap().sum,
                    fresh.column(0).unwrap().sum,
                    "block {idx}"
                );
            }
        });
    }

    #[test]
    fn subrange_views_the_delta_blocks() {
        let mut set = BlockSet::from_values((0..100).map(f64::from).collect(), 4);
        let block: Arc<dyn DataBlock> =
            Arc::new(RowsBlock::new(vec![(100..120).map(f64::from).collect()]));
        set.append_block(block).unwrap();
        let marks = set.epoch_marks();
        let delta = set.subrange(marks[0].blocks..marks[1].blocks);
        assert_eq!(delta.block_count(), 1);
        assert_eq!(delta.total_len(), 20);
        assert_eq!(delta.exact_mean().unwrap(), 109.5);
    }

    #[test]
    fn total_len_is_cached_consistently_across_constructors() {
        let from_values = BlockSet::from_values(vec![1.0; 17], 4);
        assert_eq!(from_values.total_len(), 17);
        let single = BlockSet::single(RowsBlock::new(vec![vec![2.0; 9]]));
        assert_eq!(single.total_len(), 9);
        let built = BlockSet::new(vec![
            Arc::new(RowsBlock::new(vec![vec![1.0; 5]])) as Arc<dyn DataBlock>,
            Arc::new(RowsBlock::new(vec![vec![2.0; 7]])),
        ]);
        assert_eq!(built.total_len(), 12);
        assert_eq!(
            built.total_len(),
            built.iter().map(|b| b.len()).sum::<u64>(),
            "cache must equal the live sum"
        );
    }
}
