//! Compiled selection vectors: precomputed per-block match structures
//! for a [`RowFilter`], the standard fix for expensive-predicate
//! sampling (cf. Kang et al., accelerating approximate aggregation with
//! expensive predicates).
//!
//! A [`SelectionVector`] lists one block's matching row indices in
//! ascending order, plus the match count as a zone statistic. With one
//! in hand, a filtered draw becomes a single uniform index into the
//! matching rows — O(1), no rejection loop — and a block whose count is
//! zero is skipped outright. [`SetSelection`] aggregates the per-block
//! vectors over a [`crate::BlockSet`] with cumulative match counts, so
//! a pooled filtered population draws globally in O(log b).
//!
//! Building a vector costs one scan of the columns the filter reads
//! ([`DataBlock::scan_column_chunks`], the predicate evaluated per chunk
//! by [`RowFilter::select`]) — unless the block's moment sketch
//! ([`crate::BlockSketch`]) proves the predicate matchless from its
//! min/max **zone map**, in which case the empty vector compiles with
//! zero scan. The result is cached **on the block
//! set** ([`SelectionCache`], keyed by the filter's fingerprint), so
//! repeated queries over the same predicate never rescan. Memory cost
//! is 4 bytes per *matching* row: indices are `u32`, and a scannable
//! block longer than `u32::MAX` rows is a structured
//! [`StorageError::BlockTooLarge`] — never a silent index truncation.
//! Blocks that cannot scan at all — virtual generator blocks past
//! their cap — simply skip compilation and keep the rejection-sampling
//! fallback.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::block::DataBlock;
use crate::error::StorageError;
use crate::filter::{CmpOp, RowFilter};
use crate::sketch::{BlockSketch, SetSketches};

/// One block's compiled selection: the matching row indices, ascending.
#[derive(Debug, Clone, Default)]
pub struct SelectionVector {
    indices: Vec<u32>,
}

impl SelectionVector {
    /// Compiles the selection vector of `block` under `filter` with one
    /// scan of the columns the filter reads
    /// ([`DataBlock::scan_column_chunks`] + [`RowFilter::select`]).
    /// Returns `None` when the block cannot scan at all. The vector is
    /// sized to its matches: what a [`SelectionCache`] retains is 4
    /// bytes per matching row and no spare capacity.
    ///
    /// # Errors
    ///
    /// Propagates scan failures (I/O, parse), and returns
    /// [`StorageError::BlockTooLarge`] for a scannable block with more
    /// rows than the `u32` index space — whether declared by
    /// [`DataBlock::len`] or discovered mid-scan on a block that
    /// under-reports its length (the old code's `u32` row counter would
    /// have wrapped there and silently aliased indices).
    pub fn build(block: &dyn DataBlock, filter: &RowFilter) -> Result<Option<Self>, StorageError> {
        Self::build_capped(block, filter, u64::from(u32::MAX))
    }

    /// [`SelectionVector::build`] over at most `max_rows` rows, declared
    /// or scanned — `u32::MAX` for every real build; a small cap lets a
    /// test trip the mid-scan check within a few chunks.
    pub(crate) fn build_capped(
        block: &dyn DataBlock,
        filter: &RowFilter,
        max_rows: u64,
    ) -> Result<Option<Self>, StorageError> {
        if !block.supports_scan() {
            return Ok(None);
        }
        let declared = block.len();
        if declared > max_rows {
            return Err(StorageError::BlockTooLarge { rows: declared });
        }
        // A trivial filter reads nothing: its rows are counted by the
        // first column.
        let (columns, filter) = filter.projected(filter.is_trivial().then_some(0));
        let mut indices = Vec::new();
        // One chunk's matches, reused: selecting straight into `indices`
        // would grow it by a whole chunk of candidates per step.
        let mut matched = Vec::new();
        let mut rows_seen: u64 = 0;
        block.scan_column_chunks(&columns, &mut |chunk| {
            let rows = chunk.first().map_or(0, |col| col.len()) as u64;
            // Past the cap nothing compiles: the scan only finishes
            // counting for the error below.
            if rows_seen + rows <= max_rows {
                filter.select(chunk, rows_seen as u32, &mut matched);
                indices.extend_from_slice(&matched);
            }
            rows_seen += rows;
        })?;
        if rows_seen > max_rows {
            return Err(StorageError::BlockTooLarge { rows: rows_seen });
        }
        indices.shrink_to_fit();
        Ok(Some(Self { indices }))
    }

    /// The empty selection — zero matching rows, what a zone-map prune
    /// compiles without scanning.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of matching rows — the block's match-count zone stat.
    pub fn match_count(&self) -> u64 {
        self.indices.len() as u64
    }

    /// True when no row of the block matches (the block can be skipped
    /// outright).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The `k`-th matching row's index within the block.
    ///
    /// # Panics
    ///
    /// Panics if `k >= match_count()`.
    pub fn row_index(&self, k: u64) -> u64 {
        u64::from(self.indices[k as usize])
    }

    /// The matching indices, ascending.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }
}

/// A block set's compiled selection under one filter: per-block vectors
/// plus cumulative match counts for global draws.
#[derive(Debug, Clone)]
pub struct SetSelection {
    /// Per-block selection vectors, in block order (`None`: the block
    /// could not compile one and keeps the rejection fallback).
    blocks: Vec<Option<Arc<SelectionVector>>>,
    /// Cumulative match counts over the compiled blocks (uncompiled
    /// blocks contribute zero here).
    cumulative: Vec<u64>,
    total_matches: u64,
    complete: bool,
    /// Per-block flag: the zone map proved the filter matchless there,
    /// so the (empty) vector compiled with zero scan. Per block rather
    /// than a count so prefix/extension views stay exact.
    pruned: Vec<bool>,
}

impl SetSelection {
    /// Compiles the selection of every block in `blocks` under `filter`.
    ///
    /// When `sketches` are given, each block's min/max zone map is
    /// consulted first: a block the sketch proves matchless compiles to
    /// the empty vector without being scanned (see
    /// [`SetSelection::pruned_blocks`]). Blocks without a sketch — or
    /// whose sketch cannot decide — scan as before, so the result is
    /// identical with or without sketches; only the work differs.
    ///
    /// # Errors
    ///
    /// Propagates the first block scan failure or
    /// [`StorageError::BlockTooLarge`].
    pub fn build(
        blocks: &[Arc<dyn DataBlock>],
        filter: &RowFilter,
        sketches: Option<&SetSketches>,
    ) -> Result<Self, StorageError> {
        Self::build_tail(blocks, filter, sketches, 0)
    }

    /// [`SetSelection::build`] over a tail slice of a larger set:
    /// `blocks` are the blocks from absolute index `offset` on, and
    /// sketch lookups are offset accordingly. Used to compile only the
    /// appended blocks when extending a cached selection.
    ///
    /// # Errors
    ///
    /// Propagates the first block scan failure or
    /// [`StorageError::BlockTooLarge`].
    pub fn build_tail(
        blocks: &[Arc<dyn DataBlock>],
        filter: &RowFilter,
        sketches: Option<&SetSketches>,
        offset: usize,
    ) -> Result<Self, StorageError> {
        let mut per_block = Vec::with_capacity(blocks.len());
        let mut pruned = Vec::with_capacity(blocks.len());
        for (idx, block) in blocks.iter().enumerate() {
            let matchless = sketches
                .and_then(|s| s.block(offset + idx))
                .is_some_and(|sketch| proves_matchless(sketch, filter));
            if matchless {
                pruned.push(true);
                per_block.push(Some(Arc::new(SelectionVector::empty())));
                continue;
            }
            pruned.push(false);
            per_block.push(SelectionVector::build(block.as_ref(), filter)?.map(Arc::new));
        }
        Ok(Self::from_parts(per_block, pruned))
    }

    /// Assembles a selection from per-block vectors and pruned flags,
    /// recomputing the cumulative counts and completeness.
    pub(crate) fn from_parts(blocks: Vec<Option<Arc<SelectionVector>>>, pruned: Vec<bool>) -> Self {
        debug_assert_eq!(blocks.len(), pruned.len());
        let mut cumulative = Vec::with_capacity(blocks.len());
        let mut total = 0u64;
        let mut complete = true;
        for entry in &blocks {
            match entry {
                Some(sel) => total += sel.match_count(),
                None => complete = false,
            }
            cumulative.push(total);
        }
        Self {
            blocks,
            cumulative,
            total_matches: total,
            complete,
            pruned,
        }
    }

    /// The selection restricted to the first `block_count` blocks — the
    /// view an epoch-older snapshot of the set must see. Because blocks
    /// only ever append, a prefix of the extended selection is exactly
    /// the selection the shorter set would have compiled.
    ///
    /// # Panics
    ///
    /// Panics if `block_count > self.block_count()`.
    pub fn prefix(&self, block_count: usize) -> Self {
        assert!(block_count <= self.blocks.len(), "prefix beyond selection");
        Self::from_parts(
            self.blocks[..block_count].to_vec(),
            self.pruned[..block_count].to_vec(),
        )
    }

    /// The selection extended by `tail` (the compiled selection of the
    /// blocks appended after this one's coverage, in order).
    pub fn concat(&self, tail: &SetSelection) -> Self {
        let mut blocks = self.blocks.clone();
        blocks.extend(tail.blocks.iter().cloned());
        let mut pruned = self.pruned.clone();
        pruned.extend_from_slice(&tail.pruned);
        Self::from_parts(blocks, pruned)
    }

    /// Number of blocks whose zone map proved the filter matchless, so
    /// their (empty) vectors cost zero scan.
    pub fn pruned_blocks(&self) -> usize {
        self.pruned.iter().filter(|&&p| p).count()
    }

    /// Whether every block compiled a vector — only then can a pooled
    /// population draw through the selection.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Total matching rows across the compiled blocks.
    pub fn total_matches(&self) -> u64 {
        self.total_matches
    }

    /// The selection vector of block `i`, when compiled.
    pub fn block(&self, i: usize) -> Option<&Arc<SelectionVector>> {
        self.blocks[i].as_ref()
    }

    /// Number of blocks covered.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Resolves the `k`-th global match (`0 ≤ k < total_matches`) to
    /// `(block_index, row_index_within_block)` by binary search over the
    /// cumulative counts.
    ///
    /// # Panics
    ///
    /// Panics if `k >= total_matches()`.
    pub fn locate(&self, k: u64) -> (usize, u64) {
        assert!(k < self.total_matches, "match index out of range");
        let b = self.cumulative.partition_point(|&c| c <= k);
        let base = if b == 0 { 0 } else { self.cumulative[b - 1] };
        let sel = self.blocks[b]
            .as_ref()
            // isla-lint: allow(panic-freedom, reason = "locate() is infallible by contract: the asserted bound above guarantees k lands in a compiled block")
            .expect("cumulative only advances over compiled blocks");
        (b, sel.row_index(k - base))
    }
}

/// What a block's min/max **zone map** decides about a [`RowFilter`]
/// without reading a row ([`zone_match`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneMatch {
    /// No row of the block can satisfy the filter.
    Matchless,
    /// Every row of the block satisfies the filter.
    AllMatch,
    /// The metadata cannot tell: rows must be read and tested.
    Mixed,
}

/// The three-way zone-map test of `filter` against a block's `sketch`.
///
/// A conjunction is [`ZoneMatch::Matchless`] as soon as any one conjunct
/// provably matches no row (and on an empty block), and
/// [`ZoneMatch::AllMatch`] only when every conjunct provably matches
/// every row (so the trivial filter is `AllMatch` on any non-empty
/// block). The test is conservative: a predicate over a column the
/// sketch does not cover, or over a column that saw non-finite values
/// (whose min/max track finite values only, and where a `≠` can be
/// satisfied by a NaN row), decides nothing — nor does an ordering
/// against a NaN literal, which no bound compares with.
pub fn zone_match(sketch: &BlockSketch, filter: &RowFilter) -> ZoneMatch {
    if sketch.rows == 0 {
        return ZoneMatch::Matchless;
    }
    let mut all = true;
    for pred in filter.predicates() {
        // (no row matches, every row matches) for this conjunct.
        let (none, every) = match sketch.column(pred.column) {
            Some(m) if m.non_finite == 0 => {
                let v = pred.value;
                let outside = v < m.min || v > m.max;
                let constant = m.min == v && m.max == v;
                match pred.op {
                    CmpOp::Gt => (m.max <= v, m.min > v),
                    CmpOp::Ge => (m.max < v, m.min >= v),
                    CmpOp::Lt => (m.min >= v, m.max < v),
                    CmpOp::Le => (m.min > v, m.max <= v),
                    // NaN compares false everywhere: an `=` against it
                    // can never match, and the range test is only
                    // meaningful for a real value. Only a constant
                    // column (min == max == v) settles `=` for every
                    // row, or rules out `≠`.
                    CmpOp::Eq => (v.is_nan() || outside, constant),
                    CmpOp::Ne => (constant, outside),
                }
            }
            _ => (false, false),
        };
        if none {
            return ZoneMatch::Matchless;
        }
        all &= every;
    }
    if all {
        ZoneMatch::AllMatch
    } else {
        ZoneMatch::Mixed
    }
}

/// Does `sketch` prove that **no** row of its block can satisfy
/// `filter`? The [`ZoneMatch::Matchless`] verdict of [`zone_match`] —
/// what lets a selection build compile the empty vector without a scan.
pub(crate) fn proves_matchless(sketch: &BlockSketch, filter: &RowFilter) -> bool {
    zone_match(sketch, filter) == ZoneMatch::Matchless
}

/// Maximum compiled filters a [`SelectionCache`] retains; the
/// oldest-inserted entry is evicted beyond this, bounding the cache at
/// `cap × matches × 4 B` even under endless ad-hoc predicates.
pub const SELECTION_CACHE_CAP: usize = 64;

/// A seal-time compiled selection tail for one filter: per appended
/// block in order, the compiled vector (`None` when the block cannot be
/// scanned) and whether the zone map proved the block matchless.
pub type SelectionTail = Vec<(Option<Arc<SelectionVector>>, bool)>;

/// The per-block-set cache of compiled selections, keyed by the
/// filter's fingerprint *and verified against the stored filter* (a
/// fingerprint collision can therefore never serve the wrong
/// selection). Shared (via `Arc`) across clones of the block set, so a
/// `WHERE` clause is compiled at most once per dataset no matter how
/// many queries reuse it; insertion-order eviction caps retention at
/// [`SELECTION_CACHE_CAP`] filters.
#[derive(Debug, Default)]
pub struct SelectionCache {
    inner: Mutex<CacheState>,
    hits: AtomicU64,
    builds: AtomicU64,
}

/// Hit/build counters of a [`SelectionCache`], observable by callers
/// (serving stats, duplicate-work assertions in concurrency tests).
///
/// `builds` counts full compilations (one row scan per unpruned block
/// each); concurrent first use of one filter may build more than once —
/// the benign first-writer race, since duplicate builds are idempotent
/// — but a warm cache adds hits only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectionCacheStats {
    /// Lookups answered from the cache (no scan).
    pub hits: u64,
    /// Full selection compilations (cache misses).
    pub builds: u64,
}

#[derive(Debug, Default)]
struct CacheState {
    entries: HashMap<u64, Vec<(RowFilter, Arc<SetSelection>)>>,
    /// Fingerprints in insertion order, for bounded FIFO eviction.
    order: std::collections::VecDeque<u64>,
    len: usize,
}

impl SelectionCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached selection for `filter`, compiling and caching
    /// it on first use. `sketches` feed the zone-map prune of
    /// [`SetSelection::build`]; since a pruned build and a scanned
    /// build compile identical selections, cache hits may freely cross
    /// sketch availability.
    ///
    /// The cache is shared across epoch snapshots of an appendable set,
    /// so a cached selection may cover a different number of blocks
    /// than `blocks`:
    ///
    /// * same count — returned as-is (the classic hit);
    /// * more blocks (the cache ran ahead via a seal-time merge) — the
    ///   caller's prefix is returned, which is exactly the selection
    ///   the shorter snapshot would have compiled;
    /// * fewer blocks (a seal happened whose merge did not cover this
    ///   filter) — only the missing tail is compiled, outside the lock,
    ///   and the extended selection replaces the cached one.
    ///
    /// # Errors
    ///
    /// Propagates compilation scan failures (nothing is cached then).
    pub fn get_or_build(
        &self,
        blocks: &[Arc<dyn DataBlock>],
        filter: &RowFilter,
        sketches: Option<&SetSketches>,
    ) -> Result<Arc<SetSelection>, StorageError> {
        let key = filter.fingerprint();
        let cached = {
            let state = self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state.entries.get(&key).and_then(|bucket| {
                // Equality check, not just the 64-bit digest: colliding
                // filters land in the same bucket but never alias.
                bucket
                    .iter()
                    .find(|(f, _)| f == filter)
                    .map(|(_, sel)| Arc::clone(sel))
            })
        };
        let base = match cached {
            Some(sel) if sel.block_count() == blocks.len() => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(sel);
            }
            Some(sel) if sel.block_count() > blocks.len() => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::new(sel.prefix(blocks.len())));
            }
            other => other,
        };
        // Built outside the lock: compilation scans block data and must
        // not serialize unrelated lookups. A racing duplicate build is
        // idempotent. With a shorter cached base only the appended tail
        // is scanned.
        let built = match base {
            Some(sel) => {
                let tail = SetSelection::build_tail(
                    &blocks[sel.block_count()..],
                    filter,
                    sketches,
                    sel.block_count(),
                )?;
                Arc::new(sel.concat(&tail))
            }
            None => Arc::new(SetSelection::build(blocks, filter, sketches)?),
        };
        self.builds.fetch_add(1, Ordering::Relaxed);
        let mut state = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(bucket) = state.entries.get_mut(&key) {
            if let Some(slot) = bucket.iter_mut().find(|(f, _)| f == filter) {
                // The filter was cached while we built (or we extended a
                // shorter entry): keep whichever selection covers more
                // blocks — both are correct for their coverage.
                if slot.1.block_count() < built.block_count() {
                    slot.1 = Arc::clone(&built);
                }
                return Ok(built);
            }
        }
        state
            .entries
            .entry(key)
            .or_default()
            .push((filter.clone(), Arc::clone(&built)));
        state.order.push_back(key);
        state.len += 1;
        while state.len > SELECTION_CACHE_CAP {
            let Some(evict) = state.order.pop_front() else {
                break;
            };
            let mut removed = false;
            let mut bucket_empty = false;
            if let Some(bucket) = state.entries.get_mut(&evict) {
                if !bucket.is_empty() {
                    bucket.remove(0);
                    removed = true;
                }
                bucket_empty = bucket.is_empty();
            }
            if removed {
                state.len -= 1;
            }
            if bucket_empty {
                state.entries.remove(&evict);
            }
        }
        Ok(built)
    }

    /// The filters currently cached, in arbitrary order — the set a
    /// seal-time append must compile selection vectors for so the merge
    /// can extend every cached entry.
    pub fn cached_filters(&self) -> Vec<RowFilter> {
        let state = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state
            .entries
            .values()
            .flat_map(|bucket| bucket.iter().map(|(f, _)| f.clone()))
            .collect()
    }

    /// Extends cached selections with seal-time compiled tails, under a
    /// single lock so no reader observes a partially merged batch.
    ///
    /// `base_count` is the block count the tails extend from; each tail
    /// carries, per appended block in order, the compiled vector (or
    /// `None` for an unscannable block) and its zone-prune flag. Entries
    /// whose coverage is not exactly `base_count` are left alone —
    /// [`SelectionCache::get_or_build`] heals them on demand — so a
    /// racing lookup can never corrupt the merge.
    pub fn merge_sealed(&self, base_count: usize, tails: Vec<(RowFilter, SelectionTail)>) {
        if tails.is_empty() {
            return;
        }
        let mut state = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (filter, tail) in tails {
            let key = filter.fingerprint();
            let Some(bucket) = state.entries.get_mut(&key) else {
                continue;
            };
            let Some(slot) = bucket.iter_mut().find(|(f, _)| *f == filter) else {
                continue;
            };
            if slot.1.block_count() != base_count {
                continue;
            }
            let (vectors, pruned) = tail.into_iter().unzip();
            let extension = SetSelection::from_parts(vectors, pruned);
            slot.1 = Arc::new(slot.1.concat(&extension));
        }
    }

    /// Number of compiled filters currently cached.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/build counters.
    pub fn stats(&self) -> SelectionCacheStats {
        SelectionCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
        }
    }

    /// Drops every compiled selection (e.g. after the underlying blocks
    /// changed in place — the indices would silently point at rows that
    /// no longer match). Counters are preserved.
    pub fn clear(&self) {
        let mut state = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.entries.clear();
        state.order.clear();
        state.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockReads;
    use crate::filter::{CmpOp, ColumnPredicate};
    use crate::kernel::SCAN_CHUNK_ROWS;
    use crate::rows::RowsBlock;

    /// A block that claims `claimed` rows and scans `chunks` full chunks
    /// of zeros: past the `u32` index space, or fewer rows than it scans.
    struct HugeClaimBlock {
        claimed: u64,
        chunks: usize,
    }

    impl DataBlock for HugeClaimBlock {
        fn len(&self) -> u64 {
            self.claimed
        }
        fn gather(&self, _: &[usize], _: &[u64], _: &mut [f64]) -> Result<(), StorageError> {
            unreachable!("a selection build only scans")
        }
        fn scan_column_chunks(
            &self,
            columns: &[usize],
            visit: &mut dyn FnMut(&[&[f64]]),
        ) -> Result<(), StorageError> {
            let zeros = vec![0.0; SCAN_CHUNK_ROWS];
            (0..self.chunks).for_each(|_| visit(&vec![zeros.as_slice(); columns.len()]));
            Ok(())
        }
    }

    fn filter_gt(column: usize, value: f64) -> RowFilter {
        RowFilter::new(vec![ColumnPredicate {
            column,
            op: CmpOp::Gt,
            value,
        }])
    }

    #[test]
    fn selection_vector_matches_brute_force() {
        let block = RowsBlock::new(vec![
            (0..100).map(f64::from).collect(),
            (0..100).map(|i| f64::from(i % 7)).collect(),
        ]);
        let filter = filter_gt(1, 3.0);
        let sel = SelectionVector::build(&block, &filter).unwrap().unwrap();
        let brute: Vec<u32> = (0..100u32).filter(|i| f64::from(i % 7) > 3.0).collect();
        assert_eq!(sel.indices(), &brute[..]);
        assert_eq!(sel.match_count(), brute.len() as u64);
        assert!(!sel.is_empty());
        assert_eq!(sel.row_index(0), u64::from(brute[0]));
    }

    #[test]
    fn built_vectors_are_sized_to_their_matches() {
        // Several chunks of appends, at selectivities that leave a
        // doubling `Vec` with the most slack: a cached vector must hold
        // its matches and nothing more.
        let rows = 3 * crate::kernel::SCAN_CHUNK_ROWS + 17;
        let block = RowsBlock::new(vec![(0..rows).map(|i| (i % 100) as f64).collect()]);
        for threshold in [-1.0, 32.5, 49.5, 98.5, 100.0] {
            let sel = SelectionVector::build(&block, &filter_gt(0, threshold))
                .unwrap()
                .unwrap();
            assert_eq!(
                sel.indices.capacity(),
                sel.indices.len(),
                "threshold {threshold}: {} matches",
                sel.match_count()
            );
        }
    }

    #[test]
    fn set_selection_locates_global_matches() {
        let set = RowsBlock::split(vec![(0..1000).map(f64::from).collect()], 4);
        let filter = filter_gt(0, 899.5); // matches rows 900..999, all in the last block
        let blocks: Vec<_> = set.iter().map(std::sync::Arc::clone).collect();
        let sel = SetSelection::build(&blocks, &filter, None).unwrap();
        assert!(sel.is_complete());
        assert_eq!(sel.pruned_blocks(), 0, "no sketches, no pruning");
        assert_eq!(sel.total_matches(), 100);
        assert_eq!(sel.block_count(), 4);
        assert!(sel.block(0).unwrap().is_empty(), "matchless zone stat");
        let (b, row) = sel.locate(0);
        assert_eq!(b, 3);
        assert_eq!(set.block(b).row_at(row).unwrap(), 900.0);
        let (b, row) = sel.locate(99);
        assert_eq!(set.block(b).row_at(row).unwrap(), 999.0);
    }

    #[test]
    fn cache_compiles_once_per_fingerprint() {
        let set = RowsBlock::split(vec![(0..100).map(f64::from).collect()], 2);
        let blocks: Vec<_> = set.iter().map(std::sync::Arc::clone).collect();
        let cache = SelectionCache::new();
        assert!(cache.is_empty());
        let a = cache
            .get_or_build(&blocks, &filter_gt(0, 50.0), None)
            .unwrap();
        let b = cache
            .get_or_build(&blocks, &filter_gt(0, 50.0), None)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup hits the cache");
        let _ = cache
            .get_or_build(&blocks, &filter_gt(0, 60.0), None)
            .unwrap();
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_counts_hits_and_builds_and_clears() {
        let set = RowsBlock::split(vec![(0..100).map(f64::from).collect()], 2);
        let blocks: Vec<_> = set.iter().map(std::sync::Arc::clone).collect();
        let cache = SelectionCache::new();
        let filter = filter_gt(0, 50.0);
        cache.get_or_build(&blocks, &filter, None).unwrap();
        cache.get_or_build(&blocks, &filter, None).unwrap();
        assert_eq!(
            cache.stats(),
            SelectionCacheStats { hits: 1, builds: 1 },
            "one compilation, one cached answer"
        );
        // Clearing drops the entries (forcing a rebuild) but keeps the
        // counters, like the pre-estimate cache.
        cache.clear();
        assert!(cache.is_empty());
        cache.get_or_build(&blocks, &filter, None).unwrap();
        assert_eq!(cache.stats(), SelectionCacheStats { hits: 1, builds: 2 });
    }

    #[test]
    fn cache_is_bounded_by_insertion_order_eviction() {
        let set = RowsBlock::split(vec![(0..50).map(f64::from).collect()], 2);
        let blocks: Vec<_> = set.iter().map(std::sync::Arc::clone).collect();
        let cache = SelectionCache::new();
        for i in 0..(SELECTION_CACHE_CAP + 10) {
            cache
                .get_or_build(&blocks, &filter_gt(0, i as f64), None)
                .unwrap();
        }
        assert_eq!(cache.len(), SELECTION_CACHE_CAP, "oldest entries evicted");
        // The newest filter is still cached (pointer-equal on re-lookup);
        // the very first was evicted and rebuilds to a distinct Arc.
        let newest = filter_gt(0, (SELECTION_CACHE_CAP + 9) as f64);
        let a = cache.get_or_build(&blocks, &newest, None).unwrap();
        let b = cache.get_or_build(&blocks, &newest, None).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn unscannable_blocks_skip_compilation() {
        use crate::generator::GeneratorBlock;
        use isla_stats::distributions::Normal;
        let gen = GeneratorBlock::new(std::sync::Arc::new(Normal::new(0.0, 1.0)), 100, 1)
            .with_scan_cap(10);
        assert!(SelectionVector::build(&gen, &filter_gt(0, 0.0))
            .unwrap()
            .is_none());
        let blocks: Vec<Arc<dyn DataBlock>> = vec![
            Arc::new(RowsBlock::new(vec![vec![1.0, 5.0]])),
            Arc::new(gen),
        ];
        let sel = SetSelection::build(&blocks, &filter_gt(0, 2.0), None).unwrap();
        assert!(!sel.is_complete());
        assert_eq!(sel.total_matches(), 1, "compiled blocks still counted");
    }

    #[test]
    fn oversized_blocks_error_instead_of_truncating() {
        // A scannable block claiming more rows than the u32 index space:
        // compilation must refuse with a structured error, never wrap
        // its row counter.
        let huge = HugeClaimBlock {
            claimed: u64::from(u32::MAX) + 1,
            chunks: 0,
        };
        let err = SelectionVector::build(&huge, &filter_gt(0, 0.0)).unwrap_err();
        assert!(matches!(
            err,
            StorageError::BlockTooLarge { rows } if rows == u64::from(u32::MAX) + 1
        ));
        // The set build propagates the structured error too.
        let blocks: Vec<Arc<dyn DataBlock>> = vec![Arc::new(huge)];
        assert!(matches!(
            SetSelection::build(&blocks, &filter_gt(0, 0.0), None),
            Err(StorageError::BlockTooLarge { .. })
        ));
    }

    #[test]
    fn builds_catch_a_block_that_under_reports_its_length_mid_scan() {
        // Ten rows claimed, whole chunks scanned: under a cap of three
        // chunks the fourth trips the mid-scan check (the declared
        // length never would), reporting the rows actually seen.
        let claiming_ten = |chunks| HugeClaimBlock {
            claimed: 10,
            chunks,
        };
        let cap = 3 * SCAN_CHUNK_ROWS as u64;
        let nothing = filter_gt(0, 1.0);
        let built = SelectionVector::build_capped(&claiming_ten(3), &nothing, cap);
        assert!(
            built.unwrap().unwrap().is_empty(),
            "three chunks fit the cap"
        );
        assert!(matches!(
            SelectionVector::build_capped(&claiming_ten(4), &nothing, cap),
            Err(StorageError::BlockTooLarge { rows }) if rows == cap + SCAN_CHUNK_ROWS as u64
        ));
    }

    #[test]
    fn zone_maps_prune_provably_matchless_blocks() {
        // Sorted data split into 4 range-partitioned blocks: a high
        // range predicate is provably matchless on the first three.
        let set = RowsBlock::split(vec![(0..1000).map(f64::from).collect()], 4);
        let blocks: Vec<_> = set.iter().map(std::sync::Arc::clone).collect();
        let sketches = set.sketches().unwrap();
        assert!(sketches.is_complete());
        let filter = filter_gt(0, 899.5);
        let pruned = SetSelection::build(&blocks, &filter, Some(&sketches)).unwrap();
        assert_eq!(pruned.pruned_blocks(), 3);
        assert!(pruned.is_complete());
        // The pruned build compiles the identical selection.
        let scanned = SetSelection::build(&blocks, &filter, None).unwrap();
        assert_eq!(scanned.pruned_blocks(), 0);
        assert_eq!(pruned.total_matches(), scanned.total_matches());
        for i in 0..4 {
            assert_eq!(
                pruned.block(i).unwrap().indices(),
                scanned.block(i).unwrap().indices()
            );
        }
        let (b, row) = pruned.locate(0);
        assert_eq!(b, 3);
        assert_eq!(set.block(b).row_at(row).unwrap(), 900.0);
    }

    #[test]
    fn prune_rules_cover_every_operator() {
        use crate::filter::ColumnPredicate;
        let sketch = BlockSketch::from_values(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let pred = |op, value| {
            RowFilter::new(vec![ColumnPredicate {
                column: 0,
                op,
                value,
            }])
        };
        // Provably matchless on [1, 5]:
        assert!(proves_matchless(&sketch, &pred(CmpOp::Gt, 5.0)));
        assert!(proves_matchless(&sketch, &pred(CmpOp::Ge, 5.5)));
        assert!(proves_matchless(&sketch, &pred(CmpOp::Lt, 1.0)));
        assert!(proves_matchless(&sketch, &pred(CmpOp::Le, 0.5)));
        assert!(proves_matchless(&sketch, &pred(CmpOp::Eq, 6.0)));
        assert!(proves_matchless(&sketch, &pred(CmpOp::Eq, f64::NAN)));
        // Not provable (rows may match):
        assert!(!proves_matchless(&sketch, &pred(CmpOp::Gt, 4.5)));
        assert!(!proves_matchless(&sketch, &pred(CmpOp::Ge, 5.0)));
        assert!(!proves_matchless(&sketch, &pred(CmpOp::Lt, 1.5)));
        assert!(!proves_matchless(&sketch, &pred(CmpOp::Le, 1.0)));
        assert!(!proves_matchless(&sketch, &pred(CmpOp::Eq, 3.0)));
        assert!(!proves_matchless(&sketch, &pred(CmpOp::Ne, 3.0)));
        // A constant column does rule out ≠ its value.
        let constant = BlockSketch::from_values(&[7.0, 7.0]);
        assert!(proves_matchless(&constant, &pred(CmpOp::Ne, 7.0)));
        // An empty block matches nothing.
        assert!(proves_matchless(
            &BlockSketch::empty(1),
            &pred(CmpOp::Ne, 0.0)
        ));
        // Predicates beyond the sketch's width prove nothing.
        let off_column = RowFilter::new(vec![ColumnPredicate {
            column: 3,
            op: CmpOp::Gt,
            value: 100.0,
        }]);
        assert!(!proves_matchless(&sketch, &off_column));
        // Non-finite values disable pruning on that column.
        let with_nan = BlockSketch::from_values(&[1.0, f64::NAN]);
        assert!(!proves_matchless(&with_nan, &pred(CmpOp::Gt, 5.0)));
        // A conjunction is matchless when any conjunct provably is.
        let conj = RowFilter::new(vec![
            ColumnPredicate {
                column: 0,
                op: CmpOp::Gt,
                value: 0.0,
            },
            ColumnPredicate {
                column: 0,
                op: CmpOp::Lt,
                value: 1.0,
            },
        ]);
        assert!(proves_matchless(&sketch, &conj));
    }

    #[test]
    fn zone_test_decides_all_three_ways_for_every_operator() {
        use ZoneMatch::{AllMatch, Matchless, Mixed};
        let pred = |column, op, value| ColumnPredicate { column, op, value };
        let one = |op, value| RowFilter::new(vec![pred(0, op, value)]);
        let (lo, hi) = (250_000.0, 500_000.0);
        // A range-partitioned `ts` block covering [lo, hi], and the six
        // operators with the literal on each bound and on either side.
        let block = BlockSketch::from_values(&[lo, 300_000.0, 425_000.5, hi]);
        let (below, inside, above) = (lo - 1.0, 300_000.0, hi + 1.0);
        #[rustfmt::skip]
        let table = [
            (CmpOp::Gt, below, AllMatch), (CmpOp::Gt, lo, Mixed),     (CmpOp::Gt, inside, Mixed),
            (CmpOp::Gt, hi, Matchless),   (CmpOp::Gt, above, Matchless),
            (CmpOp::Ge, below, AllMatch), (CmpOp::Ge, lo, AllMatch),  (CmpOp::Ge, inside, Mixed),
            (CmpOp::Ge, hi, Mixed),       (CmpOp::Ge, above, Matchless),
            (CmpOp::Lt, below, Matchless), (CmpOp::Lt, lo, Matchless), (CmpOp::Lt, inside, Mixed),
            (CmpOp::Lt, hi, Mixed),       (CmpOp::Lt, above, AllMatch),
            (CmpOp::Le, below, Matchless), (CmpOp::Le, lo, Mixed),    (CmpOp::Le, inside, Mixed),
            (CmpOp::Le, hi, AllMatch),    (CmpOp::Le, above, AllMatch),
            (CmpOp::Eq, below, Matchless), (CmpOp::Eq, lo, Mixed),    (CmpOp::Eq, inside, Mixed),
            (CmpOp::Eq, hi, Mixed),       (CmpOp::Eq, above, Matchless),
            (CmpOp::Ne, below, AllMatch), (CmpOp::Ne, lo, Mixed),     (CmpOp::Ne, inside, Mixed),
            (CmpOp::Ne, hi, Mixed),       (CmpOp::Ne, above, AllMatch),
        ];
        for (op, value, want) in table {
            let filter = one(op, value);
            assert_eq!(zone_match(&block, &filter), want, "ts {op:?} {value}");
            assert_eq!(proves_matchless(&block, &filter), want == Matchless);
        }

        // A constant column settles `=` and `≠` both ways.
        let constant = BlockSketch::from_values(&[7.0, 7.0, 7.0]);
        assert_eq!(zone_match(&constant, &one(CmpOp::Eq, 7.0)), AllMatch);
        assert_eq!(zone_match(&constant, &one(CmpOp::Ne, 7.0)), Matchless);
        assert_eq!(zone_match(&constant, &one(CmpOp::Eq, 8.0)), Matchless);
        assert_eq!(zone_match(&constant, &one(CmpOp::Ne, 8.0)), AllMatch);
        // Signed zeros compare equal, as `CmpOp::eval` has them.
        let zeros = BlockSketch::from_values(&[-0.0, 0.0]);
        assert_eq!(zone_match(&zeros, &one(CmpOp::Eq, 0.0)), AllMatch);
        assert_eq!(zone_match(&zeros, &one(CmpOp::Gt, -0.0)), Matchless);

        // A NaN literal: `=` can never match; nothing else is decided.
        assert_eq!(zone_match(&block, &one(CmpOp::Eq, f64::NAN)), Matchless);
        for op in [CmpOp::Gt, CmpOp::Ge, CmpOp::Lt, CmpOp::Le, CmpOp::Ne] {
            assert_eq!(zone_match(&block, &one(op, f64::NAN)), Mixed, "{op:?} NaN");
        }
        // Infinite literals bound every finite value.
        assert_eq!(zone_match(&block, &one(CmpOp::Lt, f64::INFINITY)), AllMatch);
        assert_eq!(
            zone_match(&block, &one(CmpOp::Le, f64::NEG_INFINITY)),
            Matchless
        );

        // A column that saw a non-finite value decides nothing, however
        // far the literal lies from its finite range.
        let with_nan = BlockSketch::from_values(&[1.0, f64::NAN, 2.0]);
        let with_inf = BlockSketch::from_values(&[1.0, f64::INFINITY]);
        for sketch in [&with_nan, &with_inf] {
            for (op, value) in [(CmpOp::Gt, 100.0), (CmpOp::Lt, 100.0), (CmpOp::Ne, 100.0)] {
                assert_eq!(zone_match(sketch, &one(op, value)), Mixed, "{op:?} {value}");
            }
        }
        // Nor does a column the sketch does not cover.
        let uncovered = RowFilter::new(vec![pred(3, CmpOp::Gt, 0.0)]);
        assert_eq!(zone_match(&block, &uncovered), Mixed);

        // An empty block matches nothing — even the trivial filter, which
        // every row of a non-empty block matches.
        let empty = BlockSketch::empty(1);
        assert_eq!(zone_match(&empty, &one(CmpOp::Ne, 0.0)), Matchless);
        assert_eq!(zone_match(&empty, &RowFilter::all()), Matchless);
        assert_eq!(zone_match(&block, &RowFilter::all()), AllMatch);

        // Conjunctions over two columns: `ts` in [lo, hi], `store` in
        // {1, 2, 3}. One matchless conjunct decides the block whatever
        // the others say (undecided, uncovered, or all-match); all-match
        // needs every conjunct.
        let two = BlockSketch::from_columns(&[vec![lo, 300_000.0, hi], vec![1.0, 2.0, 3.0]]);
        let conj = |preds: Vec<ColumnPredicate>| zone_match(&two, &RowFilter::new(preds));
        let ts_all = pred(0, CmpOp::Ge, lo);
        let ts_none = pred(0, CmpOp::Gt, hi);
        let store_mixed = pred(1, CmpOp::Eq, 1.0);
        let store_all = pred(1, CmpOp::Le, 3.0);
        let off_sketch = pred(5, CmpOp::Gt, 0.0);
        assert_eq!(conj(vec![ts_all, store_all]), AllMatch);
        assert_eq!(conj(vec![ts_all, store_mixed]), Mixed);
        assert_eq!(conj(vec![ts_all, off_sketch]), Mixed);
        assert_eq!(conj(vec![ts_none, store_mixed]), Matchless);
        assert_eq!(conj(vec![store_mixed, ts_none]), Matchless);
        assert_eq!(conj(vec![ts_none, off_sketch]), Matchless);
        assert_eq!(conj(vec![ts_none, store_all]), Matchless);
        // A two-sided range that straddles the block, and one inside it.
        assert_eq!(
            conj(vec![pred(0, CmpOp::Gt, below), pred(0, CmpOp::Le, hi)]),
            AllMatch
        );
        assert_eq!(
            conj(vec![pred(0, CmpOp::Gt, lo), pred(0, CmpOp::Le, hi)]),
            Mixed
        );
    }
}
