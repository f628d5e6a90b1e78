//! Per-block moment sketches: tiny, mergeable column statistics
//! (count, Σa, Σa², min, max, non-finite count) that let consumers
//! answer moment queries from metadata instead of scanning.
//!
//! Three invariants make the sketches trustworthy:
//!
//! 1. **One fold law.** Every sketch — eager (computed at block
//!    construction), lazy (scan-computed on demand) — folds values
//!    through the same [`ColumnMoments::update`] in storage order, so a
//!    hook-provided sketch is **bit-identical** to a scan-computed one
//!    for the same block. Consumers may therefore mix provenances
//!    freely without perturbing results.
//! 2. **Order-invariant merge.** [`BlockSketch::merge`] combines
//!    per-block sketches like `PartialAggregate`: counts and extrema
//!    merge exactly; the floating-point sums are mathematically
//!    order-invariant (and exact over the integers/extrema), with only
//!    the usual f64 rounding differing between merge orders.
//! 3. **Caching is per block set.** [`SketchCache`] is keyed by block
//!    index (blocks are immutable and index-stable within a
//!    [`crate::BlockSet`]) and shared across set clones through an
//!    `Arc`, mirroring the `SelectionCache` design in
//!    [`crate::selection`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use crate::block::DataBlock;
use crate::error::StorageError;

/// Running moments of one column: the per-column payload of a
/// [`BlockSketch`].
///
/// `min`/`max` track **finite** values only (initialized to `+∞`/`−∞`,
/// so an empty or all-non-finite column has `min > max`); `sum` and
/// `sum_sq` fold every value, so a NaN poisons them exactly as it would
/// poison a scan — `non_finite` says when that happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnMoments {
    /// Σa over every value folded in.
    pub sum: f64,
    /// Σa² over every value folded in.
    pub sum_sq: f64,
    /// Smallest finite value (`+∞` when none).
    pub min: f64,
    /// Largest finite value (`−∞` when none).
    pub max: f64,
    /// Number of non-finite (NaN/±∞) values folded in.
    pub non_finite: u64,
}

impl Default for ColumnMoments {
    fn default() -> Self {
        Self::new()
    }
}

impl ColumnMoments {
    /// The moments of zero values.
    pub fn new() -> Self {
        Self {
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            non_finite: 0,
        }
    }

    /// Folds one value in. This is **the** fold law: every sketch
    /// producer (eager constructor or lazy scan) must route values
    /// through here in storage order so all provenances agree bit for
    /// bit.
    #[inline]
    pub fn update(&mut self, v: f64) {
        self.sum += v;
        self.sum_sq += v * v;
        if v.is_finite() {
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
        } else {
            self.non_finite += 1;
        }
    }

    /// Merges another column's moments in (order-invariant up to f64
    /// rounding of the sums; counts and extrema merge exactly).
    pub fn merge(&mut self, other: &ColumnMoments) {
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        self.non_finite += other.non_finite;
    }
}

/// Moment sketch of one block: a row count plus per-column
/// [`ColumnMoments`] (scalar blocks have exactly one column).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSketch {
    /// Number of rows folded in.
    pub rows: u64,
    /// Per-column moments, one entry per block column.
    pub columns: Vec<ColumnMoments>,
}

impl BlockSketch {
    /// An empty sketch of the given width.
    pub fn empty(width: usize) -> Self {
        Self {
            rows: 0,
            columns: vec![ColumnMoments::new(); width],
        }
    }

    /// The sketch of a width-1 value slice: [`BlockSketch::from_columns`]
    /// of the one column.
    pub fn from_values(values: &[f64]) -> Self {
        Self::from_columns(&[values])
    }

    /// The sketch of a columnar table: every column folded top to
    /// bottom (the same per-column value order a row-major scan
    /// produces, so both routes agree bit for bit).
    ///
    /// # Panics
    ///
    /// Panics when columns have unequal lengths — the caller validates
    /// table shape before sketching.
    pub fn from_columns<C: AsRef<[f64]>>(columns: &[C]) -> Self {
        let rows = columns.first().map_or(0, |c| c.as_ref().len());
        let moments = columns
            .iter()
            .map(|col| {
                let col = col.as_ref();
                assert_eq!(col.len(), rows, "columns must have equal lengths");
                let mut m = ColumnMoments::new();
                for &v in col {
                    m.update(v);
                }
                m
            })
            .collect();
        Self {
            rows: rows as u64,
            columns: moments,
        }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// The moments of column `col`, when in range.
    pub fn column(&self, col: usize) -> Option<&ColumnMoments> {
        self.columns.get(col)
    }

    /// A width-1 sketch of column `col`, when in range — what a
    /// projection of the block to that column would sketch to.
    pub fn project(&self, col: usize) -> Option<BlockSketch> {
        self.columns.get(col).map(|m| BlockSketch {
            rows: self.rows,
            columns: vec![*m],
        })
    }

    /// Merges another block's sketch in (order-invariant: counts and
    /// extrema exactly, sums up to f64 rounding) — the streaming-ingest
    /// combine step.
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch.
    pub fn merge(&mut self, other: &BlockSketch) {
        assert_eq!(
            self.columns.len(),
            other.columns.len(),
            "cannot merge sketches of different widths"
        );
        self.rows += other.rows;
        for (m, o) in self.columns.iter_mut().zip(&other.columns) {
            m.merge(o);
        }
    }

    /// True when every column saw only finite values.
    pub fn all_finite(&self) -> bool {
        self.columns.iter().all(|m| m.non_finite == 0)
    }
}

/// Computes a block's sketch by scanning it — the lazy path for blocks
/// without a [`DataBlock::sketch`] hook (file-backed or third-party).
///
/// Folds every column's chunks ([`DataBlock::scan_column_chunks`]) in
/// storage order, so the result is bit-identical to an eager
/// constructor-time sketch of the same data.
///
/// Returns `Ok(None)` when the block does not support scans at all.
///
/// # Errors
///
/// Propagates the block's scan error (I/O, parse, or a refusal from an
/// oversized virtual block).
pub fn scan_sketch(block: &dyn DataBlock) -> Result<Option<BlockSketch>, StorageError> {
    if !block.supports_scan() {
        return Ok(None);
    }
    let mut sketch = BlockSketch::empty(block.width());
    let all: Vec<usize> = (0..block.width()).collect();
    block.scan_column_chunks(&all, &mut |chunk| {
        sketch.rows += chunk.first().map_or(0, |col| col.len()) as u64;
        for (moments, col) in sketch.columns.iter_mut().zip(chunk) {
            for &v in *col {
                moments.update(v);
            }
        }
    })?;
    Ok(Some(sketch))
}

/// Most distinct keys a [`KeyedSketch`] tracks in one block; a block
/// with more records "too many".
pub const MAX_SKETCH_KEYS: usize = 64;

/// One key's rows of a block: how many, and the moments of the
/// aggregated column over them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyMoments {
    /// The key value's bit pattern (keys group by bits, so `-0.0` and
    /// `0.0` are two keys, as in every `GROUP BY` route).
    pub key_bits: u64,
    /// Rows holding this key.
    pub rows: u64,
    /// The aggregated column over those rows.
    pub moments: ColumnMoments,
}

/// The per-key moments of one column of a block, grouped by another
/// column: for each distinct key (at most [`MAX_SKETCH_KEYS`]) a row
/// count and [`ColumnMoments`] folded through [`ColumnMoments::update`]
/// in storage order — the one fold law, so each key's moments are the
/// bits a per-row update loop over that key's rows gives.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KeyedSketch {
    keys: Vec<KeyMoments>,
}

impl KeyedSketch {
    /// The sketch of aligned key and value columns; `None` when they
    /// hold more than [`MAX_SKETCH_KEYS`] distinct keys.
    ///
    /// # Panics
    ///
    /// Panics when the columns have unequal lengths.
    pub fn from_columns(keys: &[f64], values: &[f64]) -> Option<Self> {
        let mut fold = KeyedFold::default();
        fold.fold(keys, values);
        fold.finish()
    }

    /// The keys, ascending by bit pattern.
    pub fn keys(&self) -> &[KeyMoments] {
        &self.keys
    }
}

/// A keyed fold in progress: keys in first-seen order, found through a
/// small open-addressed table of their bit patterns (at most
/// [`MAX_SKETCH_KEYS`] of 128 slots used, so a probe always ends).
struct KeyedFold {
    /// Hash slot → 1 + index into `keys`; 0 marks a free slot.
    slots: [u8; 128],
    keys: Vec<KeyMoments>,
    too_many: bool,
}

impl Default for KeyedFold {
    fn default() -> Self {
        Self {
            slots: [0; 128],
            keys: Vec::new(),
            too_many: false,
        }
    }
}

impl KeyedFold {
    /// Folds aligned key/value chunks in row order; a no-op once the
    /// fold has seen too many keys.
    fn fold(&mut self, keys: &[f64], values: &[f64]) {
        assert_eq!(keys.len(), values.len(), "columns must have equal lengths");
        if !self.too_many {
            self.too_many = !fold_keyed(&mut self.slots, &mut self.keys, keys, values);
        }
    }

    fn finish(mut self) -> Option<KeyedSketch> {
        if self.too_many {
            return None;
        }
        self.keys.sort_unstable_by_key(|k| k.key_bits);
        Some(KeyedSketch { keys: self.keys })
    }
}

/// Routes each row to its key's entry and folds its value there, in row
/// order; `false` as soon as a new key would exceed [`MAX_SKETCH_KEYS`].
/// The table and the entries are separate arguments so the compiler
/// knows that folding into an entry leaves both in place (through
/// `&mut self` it reloads them every row, at 1.4× the cost).
fn fold_keyed(
    slots: &mut [u8; 128],
    entries: &mut Vec<KeyMoments>,
    keys: &[f64],
    values: &[f64],
) -> bool {
    for (&key, &v) in keys.iter().zip(values) {
        let Some(at) = key_index(slots, entries, key.to_bits()) else {
            return false;
        };
        let entry = &mut entries[at];
        entry.rows += 1;
        entry.moments.update(v);
    }
    true
}

/// The index of `bits` in `entries`, added when new; `None` when a new
/// key would exceed [`MAX_SKETCH_KEYS`].
#[inline]
fn key_index(slots: &mut [u8; 128], entries: &mut Vec<KeyMoments>, bits: u64) -> Option<usize> {
    let mut slot = (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 57) as usize;
    loop {
        match slots[slot] {
            0 => break,
            s if entries[usize::from(s) - 1].key_bits == bits => return Some(usize::from(s) - 1),
            _ => slot = (slot + 1) % slots.len(),
        }
    }
    if entries.len() == MAX_SKETCH_KEYS {
        return None;
    }
    entries.push(KeyMoments {
        key_bits: bits,
        rows: 0,
        moments: ColumnMoments::new(),
    });
    // At most 64 keys, so the index fits a `u8` with room for +1.
    slots[slot] = entries.len() as u8;
    Some(entries.len() - 1)
}

/// Computes a block's [`KeyedSketch`] of column `agg_col` keyed by
/// column `key_col` by scanning the two columns
/// ([`DataBlock::scan_column_chunks`]) in storage order.
///
/// Returns `Ok(None)` when the block does not support scans or holds
/// more than [`MAX_SKETCH_KEYS`] distinct keys.
///
/// # Errors
///
/// Propagates the block's scan error.
///
/// # Panics
///
/// Panics when either column is out of the block's width.
pub fn scan_keyed_sketch(
    block: &dyn DataBlock,
    key_col: usize,
    agg_col: usize,
) -> Result<Option<KeyedSketch>, StorageError> {
    if !block.supports_scan() {
        return Ok(None);
    }
    let mut fold = KeyedFold::default();
    block.scan_column_chunks(&[key_col, agg_col], &mut |chunk| {
        fold.fold(chunk[0], chunk[1])
    })?;
    Ok(fold.finish())
}

/// A column pair's keyed entries, by block index: `None` where none was
/// built yet, `Some(None)` where the block had too many keys or could not
/// scan.
type KeyedEntries = Vec<Option<Option<Arc<KeyedSketch>>>>;

/// Per-set sketch cache: block index → sketch, shared across
/// [`crate::BlockSet`] clones through an `Arc` (the `SelectionCache`
/// design), beside the keyed sketches built so far, by (key column,
/// aggregated column) and then block — `None` recording a block with too
/// many keys or one that cannot scan. Blocks are index-stable, so entries
/// only invalidate when a caller mutates block contents in place and says
/// so ([`SketchCache::clear`]); both maps are bounded by the block count
/// (times the column pairs queried), so there is no eviction.
#[derive(Debug, Default)]
pub struct SketchCache {
    entries: Mutex<HashMap<usize, Arc<BlockSketch>>>,
    keyed: Mutex<HashMap<(usize, usize), KeyedEntries>>,
    hits: std::sync::atomic::AtomicU64,
    inserted: std::sync::atomic::AtomicU64,
    raced: std::sync::atomic::AtomicU64,
    /// Number of sealed-append merges applied ([`SketchCache::merge_sealed`]),
    /// bumped under the entry lock so the marker and the entries it
    /// covers always move together.
    sealed_epoch: std::sync::atomic::AtomicU64,
}

/// Counters of a [`SketchCache`], observable by callers (serving stats,
/// duplicate-work assertions in concurrency tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SketchCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Inserts that created the entry (the first writer).
    pub inserted: u64,
    /// Inserts that found the entry already present and adopted it —
    /// the benign first-writer race (racing computations are
    /// idempotent: same block, same fold).
    pub raced: u64,
}

impl SketchCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached sketch of block `idx`, if any.
    pub fn get(&self, idx: usize) -> Option<Arc<BlockSketch>> {
        let found = self
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&idx)
            .cloned();
        if found.is_some() {
            self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        found
    }

    /// Inserts a sketch for block `idx`, returning the winning entry —
    /// first writer wins, so racing recomputations (which are
    /// idempotent: same block, same fold) converge on one `Arc`.
    pub fn insert(&self, idx: usize, sketch: Arc<BlockSketch>) -> Arc<BlockSketch> {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let counter = if entries.contains_key(&idx) {
            &self.raced
        } else {
            &self.inserted
        };
        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Arc::clone(entries.entry(idx).or_insert(sketch))
    }

    /// The cached keyed entries of `blocks` for (key column, aggregated
    /// column), read under one lock, in the order of `blocks`: `None`
    /// where none was built yet, `Some(None)` where the block had too
    /// many keys or could not scan.
    pub(crate) fn keyed(&self, blocks: &[usize], key_col: usize, agg_col: usize) -> KeyedEntries {
        let keyed = self.keyed.lock().unwrap_or_else(PoisonError::into_inner);
        let entries = keyed.get(&(key_col, agg_col));
        blocks
            .iter()
            .map(|&b| entries.and_then(|e| e.get(b)).cloned().flatten())
            .collect()
    }

    /// Inserts block `idx`'s keyed entry for (key column, aggregated
    /// column), returning the winning one — first writer wins, as in
    /// [`SketchCache::insert`].
    pub(crate) fn insert_keyed(
        &self,
        (idx, key_col, agg_col): (usize, usize, usize),
        entry: Option<Arc<KeyedSketch>>,
    ) -> Option<Arc<KeyedSketch>> {
        let mut keyed = self.keyed.lock().unwrap_or_else(PoisonError::into_inner);
        let entries = keyed.entry((key_col, agg_col)).or_default();
        if entries.len() <= idx {
            entries.resize(idx + 1, None);
        }
        entries[idx].get_or_insert(entry).clone()
    }

    /// Merges a sealed batch's sketches — one lock acquisition for the
    /// whole batch, so a concurrent reader sees either none or all of
    /// the batch and never a partially applied seal. Seal-time sketches
    /// are authoritative for their (brand-new) block indices: an entry a
    /// racing scan managed to insert first is kept (the computations are
    /// idempotent) and counted as `raced`, exactly like
    /// [`SketchCache::insert`]. Returns the new sealed epoch.
    pub fn merge_sealed(&self, batch: impl IntoIterator<Item = (usize, Arc<BlockSketch>)>) -> u64 {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        for (idx, sketch) in batch {
            let counter = if entries.contains_key(&idx) {
                &self.raced
            } else {
                &self.inserted
            };
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            entries.entry(idx).or_insert(sketch);
        }
        self.sealed_epoch
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            + 1
    }

    /// Number of sealed-append merges applied so far.
    pub fn sealed_epoch(&self) -> u64 {
        self.sealed_epoch.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Current hit/insert/race counters.
    pub fn stats(&self) -> SketchCacheStats {
        SketchCacheStats {
            hits: self.hits.load(std::sync::atomic::Ordering::Relaxed),
            inserted: self.inserted.load(std::sync::atomic::Ordering::Relaxed),
            raced: self.raced.load(std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// Drops every cached sketch (e.g. after the underlying blocks
    /// changed in place — stale min/max would let the zone-map prune
    /// wrongly discard matching blocks), keyed entries included.
    /// Counters are preserved.
    pub fn clear(&self) {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.keyed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Number of cached sketches.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The per-block sketches of one block set, in block order. `None`
/// entries mark blocks whose sketch is unavailable at the requested
/// effort (no hook and either not yet scanned, or unscannable).
#[derive(Debug, Clone)]
pub struct SetSketches {
    blocks: Vec<Option<Arc<BlockSketch>>>,
}

impl SetSketches {
    /// Wraps per-block sketches (block order).
    pub fn new(blocks: Vec<Option<Arc<BlockSketch>>>) -> Self {
        Self { blocks }
    }

    /// The sketch of block `idx`, when available.
    pub fn block(&self, idx: usize) -> Option<&Arc<BlockSketch>> {
        self.blocks.get(idx).and_then(Option::as_ref)
    }

    /// Number of blocks (available or not).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when the set has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// True when every block has a sketch.
    pub fn is_complete(&self) -> bool {
        self.blocks.iter().all(Option::is_some)
    }

    /// Iterates the per-block entries in block order.
    pub fn iter(&self) -> impl Iterator<Item = Option<&Arc<BlockSketch>>> {
        self.blocks.iter().map(Option::as_ref)
    }

    /// Merges every available sketch into one (the set-wide moments);
    /// `None` when any block lacks a sketch or the set is empty or
    /// widths disagree.
    pub fn merged(&self) -> Option<BlockSketch> {
        let mut iter = self.blocks.iter();
        let mut merged = BlockSketch::clone(iter.next()?.as_ref()?);
        for entry in iter {
            let sketch = entry.as_ref()?;
            if sketch.width() != merged.width() {
                return None;
            }
            merged.merge(sketch);
        }
        Some(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::RowsBlock;

    #[test]
    fn fold_tracks_all_moments() {
        let s = BlockSketch::from_values(&[3.0, -1.0, 4.0, 1.5]);
        assert_eq!(s.rows, 4);
        let m = s.column(0).unwrap();
        assert_eq!(m.sum, 3.0 + -1.0 + 4.0 + 1.5);
        assert_eq!(m.sum_sq, 9.0 + 1.0 + 16.0 + 2.25);
        assert_eq!(m.min, -1.0);
        assert_eq!(m.max, 4.0);
        assert_eq!(m.non_finite, 0);
        assert!(s.all_finite());
    }

    #[test]
    fn non_finite_values_are_counted_not_ranged() {
        let mut m = ColumnMoments::new();
        m.update(2.0);
        m.update(f64::NAN);
        m.update(f64::INFINITY);
        assert_eq!(m.non_finite, 2);
        assert_eq!(m.min, 2.0);
        assert_eq!(m.max, 2.0);
        assert!(m.sum.is_nan(), "sums are poisoned exactly like a scan");
    }

    #[test]
    fn empty_sketch_has_inverted_range() {
        let s = BlockSketch::empty(1);
        let m = s.column(0).unwrap();
        assert!(m.min > m.max, "empty range is recognizable");
        assert_eq!(s.rows, 0);
    }

    #[test]
    fn merge_matches_single_fold_on_counts_and_extrema() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64) * 0.7 - 30.0).collect();
        let whole = BlockSketch::from_values(&values);
        let mut merged = BlockSketch::from_values(&values[..37]);
        merged.merge(&BlockSketch::from_values(&values[37..81]));
        merged.merge(&BlockSketch::from_values(&values[81..]));
        assert_eq!(merged.rows, whole.rows);
        let (a, b) = (merged.column(0).unwrap(), whole.column(0).unwrap());
        assert_eq!(a.min, b.min);
        assert_eq!(a.max, b.max);
        assert_eq!(a.non_finite, b.non_finite);
        assert!((a.sum - b.sum).abs() <= 1e-9 * b.sum.abs().max(1.0));
        assert!((a.sum_sq - b.sum_sq).abs() <= 1e-9 * b.sum_sq.abs().max(1.0));
    }

    #[test]
    fn projection_extracts_one_column() {
        let s = BlockSketch::from_columns(&[vec![1.0, 2.0], vec![10.0, 20.0]]);
        assert_eq!(s.width(), 2);
        let p = s.project(1).unwrap();
        assert_eq!(p.width(), 1);
        assert_eq!(p.rows, 2);
        assert_eq!(p.column(0).unwrap().sum, 30.0);
        assert!(s.project(2).is_none());
    }

    #[test]
    fn scan_sketch_matches_eager_hook_bit_for_bit() {
        let values: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        let block = RowsBlock::new(vec![values]);
        let eager = crate::block::DataBlock::sketch(&block).expect("RowsBlock sketches eagerly");
        let scanned = scan_sketch(&block).unwrap().expect("RowsBlock scans");
        assert_eq!(*eager, scanned);
        let (a, b) = (eager.column(0).unwrap(), scanned.column(0).unwrap());
        assert_eq!(a.sum.to_bits(), b.sum.to_bits());
        assert_eq!(a.sum_sq.to_bits(), b.sum_sq.to_bits());
    }

    #[test]
    fn cache_is_shared_and_first_writer_wins() {
        let cache = Arc::new(SketchCache::new());
        assert!(cache.is_empty());
        let first = Arc::new(BlockSketch::from_values(&[1.0]));
        let second = Arc::new(BlockSketch::from_values(&[1.0]));
        let won = cache.insert(0, Arc::clone(&first));
        assert!(Arc::ptr_eq(&won, &first));
        let won = cache.insert(0, second);
        assert!(Arc::ptr_eq(&won, &first), "first writer wins");
        let other = Arc::clone(&cache);
        assert!(Arc::ptr_eq(&other.get(0).unwrap(), &first));
        assert_eq!(cache.len(), 1);
        // The losing insert is visible as a benign race, not duplicate
        // state; the found lookup counts as a hit.
        assert_eq!(
            cache.stats(),
            SketchCacheStats {
                hits: 1,
                inserted: 1,
                raced: 1,
            }
        );
    }

    #[test]
    fn cache_clear_drops_entries_and_keeps_counters() {
        let cache = SketchCache::new();
        cache.insert(0, Arc::new(BlockSketch::from_values(&[1.0, 2.0])));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.get(0).is_none(), "cleared entries are gone");
        assert_eq!(cache.stats().inserted, 1, "counters survive clear");
        // Re-inserting after a clear is a fresh first write.
        cache.insert(0, Arc::new(BlockSketch::from_values(&[9.0])));
        assert_eq!(cache.stats().inserted, 2);
        assert_eq!(cache.stats().raced, 0);
    }

    #[test]
    fn set_sketches_merge_requires_completeness() {
        let a = Arc::new(BlockSketch::from_values(&[1.0, 2.0]));
        let b = Arc::new(BlockSketch::from_values(&[3.0]));
        let complete = SetSketches::new(vec![Some(Arc::clone(&a)), Some(b)]);
        assert!(complete.is_complete());
        let merged = complete.merged().unwrap();
        assert_eq!(merged.rows, 3);
        assert_eq!(merged.column(0).unwrap().sum, 6.0);
        let partial = SetSketches::new(vec![Some(a), None]);
        assert!(!partial.is_complete());
        assert!(partial.merged().is_none());
        assert!(partial.block(1).is_none());
        assert_eq!(partial.len(), 2);
    }
}
