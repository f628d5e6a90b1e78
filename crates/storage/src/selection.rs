//! Compiled selection vectors: precomputed per-block match structures
//! for a [`RowFilter`], the standard fix for expensive-predicate
//! sampling (cf. Kang et al., accelerating approximate aggregation with
//! expensive predicates).
//!
//! A [`SelectionVector`] is a bitmap over one block's rows (bit *r*
//! set when row *r* matches) plus a rank directory — the match count
//! before every 512th row — and the match count as a zone statistic.
//! With one in hand, a filtered draw becomes a single uniform index
//! into the matching rows — no rejection loop; the directory resolves
//! it with at most eight word popcounts and a select inside one word —
//! and a block whose count is zero is skipped outright. [`SetSelection`]
//! aggregates the per-block vectors over a [`crate::BlockSet`] with
//! cumulative match counts, so a pooled filtered population draws
//! globally in O(log b).
//!
//! Building a vector costs one scan of the columns the filter reads
//! ([`DataBlock::scan_column_chunks`], the predicate evaluated 64 rows
//! a word by [`RowFilter::select_word`]) — unless the block's moment
//! sketch ([`crate::BlockSketch`]) proves the predicate matchless from
//! its min/max **zone map**, in which case the empty vector compiles
//! with zero scan. The result is cached **on the block
//! set** ([`SelectionCache`], keyed by the filter's fingerprint), so
//! repeated queries over the same predicate never rescan. Memory cost
//! is ⌈n/64⌉·8 + ⌈n/512⌉·4 bytes for a block of `n` rows — ≈ 0.133 B a
//! row at any selectivity, less than a `u32` list of the matches above
//! ≈ 3.3 % — and a scannable block longer than `u32::MAX` rows is a
//! structured [`StorageError::BlockTooLarge`], never a silent index
//! truncation.
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

/// Bitmap words per entry of a [`SelectionVector`]'s rank directory:
/// one `u32` rank every 512 rows.
const RANK_SPAN_WORDS: usize = 8;

/// One block's compiled selection: a bitmap over the block's rows (bit
/// `r % 64` of word `r / 64` set when row `r` matches) plus a rank
/// directory — the matches before every 512th row, as `u32` — so the
/// `k`-th match resolves without walking the bitmap.
#[derive(Debug, Clone, Default)]
pub struct SelectionVector {
    words: Vec<u64>,
    /// `ranks[s]`: matching rows before row `512 s`.
    ranks: Vec<u32>,
    matches: u64,
}

impl SelectionVector {
    /// Compiles the selection vector of `block` under `filter` with one
    /// scan of the columns the filter reads
    /// ([`DataBlock::scan_column_chunks`] + [`RowFilter::select_word`],
    /// 64 rows a word). Returns `None` when the block cannot scan at
    /// all. The bitmap and directory are sized to the block: what a
    /// [`SelectionCache`] retains for `n` rows is
    /// [`SelectionVector::heap_bytes`] = ⌈n/64⌉·8 + ⌈n/512⌉·4 bytes
    /// (≈ 0.133 B a row) whatever the selectivity, and no spare
    /// capacity.
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
        let mut words = Vec::with_capacity(declared.div_ceil(64) as usize);
        let mut rows_seen: u64 = 0;
        block.scan_column_chunks(&columns, &mut |chunk| {
            let rows = chunk.first().map_or(0, |col| col.len());
            // Past the cap nothing compiles: the scan only finishes
            // counting for the error below.
            if rows_seen + rows as u64 <= max_rows {
                for start in (0..rows).step_by(64) {
                    let word = filter.select_word(chunk, start);
                    append_bits(&mut words, rows_seen + start as u64, word);
                }
            }
            rows_seen += rows as u64;
        })?;
        if rows_seen > max_rows {
            return Err(StorageError::BlockTooLarge { rows: rows_seen });
        }
        // Trailing matchless words were never pushed.
        words.resize(rows_seen.div_ceil(64) as usize, 0);
        // Only a block that under-reported its length leaves slack here.
        words.shrink_to_fit();
        Ok(Some(Self::from_words(words)))
    }

    /// The selection over a finished bitmap: its rank directory and
    /// match count.
    fn from_words(words: Vec<u64>) -> Self {
        let mut ranks = Vec::with_capacity(words.len().div_ceil(RANK_SPAN_WORDS));
        let mut matches = 0u64;
        for span in words.chunks(RANK_SPAN_WORDS) {
            // At most `u32::MAX` rows, so every rank fits.
            ranks.push(matches as u32);
            matches += span.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        }
        Self {
            words,
            ranks,
            matches,
        }
    }

    /// The empty selection — zero matching rows, what a zone-map prune
    /// compiles without scanning.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of matching rows — the block's match-count zone stat.
    pub fn match_count(&self) -> u64 {
        self.matches
    }

    /// True when no row of the block matches (the block can be skipped
    /// outright).
    pub fn is_empty(&self) -> bool {
        self.matches == 0
    }

    /// The `k`-th matching row's index within the block: a binary
    /// search of the rank directory, at most eight word popcounts, and
    /// a select within the word.
    ///
    /// # Panics
    ///
    /// Panics if `k >= match_count()`.
    pub fn row_index(&self, k: u64) -> u64 {
        assert!(k < self.matches, "match index out of range");
        // `ranks[0]` is 0, so the span exists.
        let span = self.ranks.partition_point(|&r| u64::from(r) <= k) - 1;
        let (mut word, mut before) = (span * RANK_SPAN_WORDS, u64::from(self.ranks[span]));
        self.select_from(&mut word, &mut before, k)
    }

    /// Replaces each of `ranks` — match ranks within the block,
    /// ascending — by its row index, in one forward walk: a match in
    /// the current span continues from the previous one's word; one
    /// past it searches only the directory entries ahead.
    pub(crate) fn rows_of_ascending(&self, ranks: &mut [u64]) {
        // Matches before `word`.
        let (mut word, mut before) = (0, 0);
        for k in ranks {
            let span = word / RANK_SPAN_WORDS;
            let ahead = &self.ranks[span + 1..];
            if ahead.first().is_some_and(|&r| u64::from(r) <= *k) {
                let span = span + ahead.partition_point(|&r| u64::from(r) <= *k);
                (word, before) = (span * RANK_SPAN_WORDS, u64::from(self.ranks[span]));
            }
            *k = self.select_from(&mut word, &mut before, *k);
        }
    }

    /// The row of match `k`, found from `word`, before which the
    /// bitmap holds `before ≤ k` matches (and within eight words of
    /// which match `k` lies); both advance to the word holding it.
    fn select_from(&self, word: &mut usize, before: &mut u64, k: u64) -> u64 {
        loop {
            let ones = u64::from(self.words[*word].count_ones());
            if k - *before < ones {
                break;
            }
            *before += ones;
            *word += 1;
        }
        *word as u64 * 64 + u64::from(select_in_word(self.words[*word], (k - *before) as u32))
    }

    /// The matching rows, ascending.
    pub(crate) fn rows(&self) -> SetBits<'_> {
        SetBits {
            words: self.words.iter().enumerate(),
            word: 0,
            base: 0,
        }
    }

    /// The matching indices, ascending — decoded from the bitmap, so
    /// O(rows / 64) and a fresh allocation per call.
    pub fn indices(&self) -> Vec<u32> {
        self.rows().map(|r| r as u32).collect()
    }

    /// Heap bytes this vector holds: the bitmap and the rank directory,
    /// ⌈n/64⌉·8 + ⌈n/512⌉·4 for a block of `n` rows (zero for
    /// [`SelectionVector::empty`]).
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
            + self.ranks.capacity() * std::mem::size_of::<u32>()
    }
}

/// Writes the bits of `word` (one [`RowFilter::select_word`] result)
/// at row `at` of the bitmap in `words`, which holds the rows before
/// `at`. Matchless words are not written: the rows they cover stay
/// implied zeros until a later match, or the final resize, pads them.
fn append_bits(words: &mut Vec<u64>, at: u64, word: u64) {
    if word == 0 {
        return;
    }
    let (w, shift) = ((at / 64) as usize, at % 64);
    let high = if shift == 0 { 0 } else { word >> (64 - shift) };
    words.resize(words.len().max(w + 1 + usize::from(high != 0)), 0);
    words[w] |= word << shift;
    if high != 0 {
        words[w + 1] |= high;
    }
}

/// The position of the `rank`-th (0-based) set bit of `word`, which
/// has more than `rank` set bits, without a branch: byte-wise prefix
/// popcounts locate the byte holding the bit, [`SELECT_IN_BYTE`] the
/// bit within it.
fn select_in_word(word: u64, rank: u32) -> u32 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let mut s = word - ((word >> 1) & 0x5555_5555_5555_5555);
    s = (s & 0x3333_3333_3333_3333) + ((s >> 2) & 0x3333_3333_3333_3333);
    // Byte i: the set bits of bytes 0..=i (at most 64, so no byte
    // overflows and the subtraction below borrows across none).
    let sums = ((s + (s >> 4)) & 0x0F0F_0F0F_0F0F_0F0F).wrapping_mul(ONES);
    // High bit of byte i set when sums[i] <= rank: the bytes before
    // the one holding the bit, counted into the top byte.
    let passed = (((u64::from(rank) * ONES) | HIGHS) - sums) & HIGHS;
    let shift = ((passed >> 7).wrapping_mul(ONES) >> 56) as u32 * 8;
    let below = ((sums << 8) >> shift) & 0xFF;
    let byte = ((word >> shift) & 0xFF) as usize;
    shift + u32::from(SELECT_IN_BYTE[byte][rank as usize - below as usize])
}

/// `SELECT_IN_BYTE[b][r]`: the position of the `r`-th set bit of byte
/// `b` (0 where `b` has no such bit).
static SELECT_IN_BYTE: [[u8; 8]; 256] = {
    let mut table = [[0u8; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let (mut bit, mut rank) = (0, 0);
        while bit < 8 {
            if byte >> bit & 1 == 1 {
                table[byte][rank] = bit as u8;
                rank += 1;
            }
            bit += 1;
        }
        byte += 1;
    }
    table
};

/// The set bits of a bitmap, ascending, as row indices
/// ([`SelectionVector::rows`]).
pub(crate) struct SetBits<'a> {
    words: std::iter::Enumerate<std::slice::Iter<'a, u64>>,
    word: u64,
    base: u64,
}

impl Iterator for SetBits<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.word == 0 {
            let (i, &word) = self.words.next()?;
            self.word = word;
            self.base = i as u64 * 64;
        }
        let bit = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(self.base + u64::from(bit))
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
    /// cumulative counts, then the block's rank directory
    /// ([`SelectionVector::row_index`]).
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

    /// Resolves `matches` — global match indices, ascending — in one
    /// forward walk over the blocks and their bitmaps
    /// ([`SelectionVector::rows_of_ascending`]): each index is replaced
    /// by its row within its block, and `run(b, range)` is called once
    /// per block holding any, in block order, with the range of
    /// `matches` it holds. Stops at `run`'s first error.
    ///
    /// # Panics
    ///
    /// Panics if an index is `>= total_matches()`.
    pub(crate) fn locate_ascending(
        &self,
        matches: &mut [u64],
        mut run: impl FnMut(usize, std::ops::Range<usize>, &[u64]) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        assert!(
            matches.last().is_none_or(|&k| k < self.total_matches),
            "match index out of range"
        );
        let mut start = 0;
        for (b, entry) in self.blocks.iter().enumerate() {
            // An uncompiled block holds no match index.
            let Some(sel) = entry else { continue };
            let end = start + matches[start..].partition_point(|&k| k < self.cumulative[b]);
            if end == start {
                continue;
            }
            let base = self.cumulative[b] - sel.match_count();
            let block = &mut matches[start..end];
            block.iter_mut().for_each(|k| *k -= base);
            sel.rows_of_ascending(block);
            run(b, start..end, block)?;
            start = end;
        }
        Ok(())
    }

    /// Heap bytes this selection holds: every block's
    /// [`SelectionVector::heap_bytes`] plus the per-block tables
    /// (vector handles, cumulative counts, prune flags).
    pub fn heap_bytes(&self) -> usize {
        let vectors: usize = self.blocks.iter().flatten().map(|v| v.heap_bytes()).sum();
        vectors
            + self.blocks.capacity() * std::mem::size_of::<Option<Arc<SelectionVector>>>()
            + self.cumulative.capacity() * std::mem::size_of::<u64>()
            + self.pruned.capacity() * std::mem::size_of::<bool>()
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
/// `cap ×` one [`SetSelection::heap_bytes`] — ≈ 0.133 B a row of the
/// set, whatever the selectivity — even under endless ad-hoc
/// predicates ([`SelectionCache::retained_bytes`]).
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

    /// Heap bytes of the cached selections
    /// ([`SetSelection::heap_bytes`] summed over the entries).
    pub fn retained_bytes(&self) -> usize {
        let state = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state
            .entries
            .values()
            .flatten()
            .map(|(_, sel)| sel.heap_bytes())
            .sum()
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

    /// ⌈n/64⌉·8 + ⌈n/512⌉·4: the bitmap and the rank directory.
    fn formula_bytes(rows: usize) -> usize {
        rows.div_ceil(64) * 8 + rows.div_ceil(512) * 4
    }

    #[test]
    fn built_vectors_hold_the_formula_bytes_at_any_selectivity() {
        // Several chunks, a partial last word and a partial last rank
        // span: a cached vector holds its bitmap and directory and no
        // spare capacity, whatever the selectivity.
        let rows = 3 * crate::kernel::SCAN_CHUNK_ROWS + 17;
        let block = RowsBlock::new(vec![(0..rows).map(|i| (i % 100) as f64).collect()]);
        for (threshold, selectivity) in [(100.0, 0.0), (49.5, 0.5), (-1.0, 1.0)] {
            let sel = SelectionVector::build(&block, &filter_gt(0, threshold))
                .unwrap()
                .unwrap();
            let matches = sel.match_count() as f64 / rows as f64;
            assert!(
                (matches - selectivity).abs() < 0.01,
                "{threshold}: {matches}"
            );
            assert_eq!(
                sel.heap_bytes(),
                formula_bytes(rows),
                "selectivity {selectivity}"
            );
        }
        assert_eq!(SelectionVector::empty().heap_bytes(), 0);
        // A set's bytes are its vectors' plus its per-block tables.
        let set = RowsBlock::split(vec![(0..rows).map(|i| i as f64).collect()], 3);
        let blocks: Vec<_> = set.iter().map(Arc::clone).collect();
        let sel = SetSelection::build(&blocks, &filter_gt(0, 10.0), None).unwrap();
        let vectors: usize = (0..3).map(|b| sel.block(b).unwrap().heap_bytes()).sum();
        assert!(sel.heap_bytes() > vectors);
        assert!(sel.heap_bytes() < vectors + 128);
    }

    /// Raw columns (non-finite values allowed) scanned in chunks whose
    /// lengths cycle through `sizes`, so word boundaries fall anywhere.
    struct RawBlock {
        cols: Vec<Vec<f64>>,
        sizes: Vec<usize>,
    }

    impl DataBlock for RawBlock {
        fn len(&self) -> u64 {
            self.cols[0].len() as u64
        }
        fn gather(&self, _: &[usize], _: &[u64], _: &mut [f64]) -> Result<(), StorageError> {
            unreachable!("a selection build only scans")
        }
        fn scan_column_chunks(
            &self,
            columns: &[usize],
            visit: &mut dyn FnMut(&[&[f64]]),
        ) -> Result<(), StorageError> {
            let mut start = 0;
            for &size in self.sizes.iter().cycle() {
                let end = (start + size).min(self.cols[0].len());
                if start == end {
                    break;
                }
                let chunk: Vec<&[f64]> =
                    columns.iter().map(|&c| &self.cols[c][start..end]).collect();
                visit(&chunk);
                start = end;
            }
            Ok(())
        }
    }

    #[test]
    fn word_builds_equal_select_lists() {
        // Lengths around the word and directory boundaries, and two
        // with whole directory spans the range filters skip; a
        // continuous column salted with NaN, ±0 and ±∞, a categorical
        // one; single, multi-conjunct, categorical and trivial filters.
        let pred = |column, op, value| ColumnPredicate { column, op, value };
        let filters = [
            RowFilter::all(),
            RowFilter::new(vec![pred(0, CmpOp::Gt, 0.0)]),
            RowFilter::new(vec![pred(0, CmpOp::Ge, -0.0)]),
            RowFilter::new(vec![pred(0, CmpOp::Eq, 0.0)]),
            RowFilter::new(vec![pred(0, CmpOp::Ne, 0.0)]),
            RowFilter::new(vec![pred(0, CmpOp::Lt, f64::NAN)]),
            RowFilter::new(vec![pred(0, CmpOp::Ne, f64::NAN)]),
            RowFilter::new(vec![pred(1, CmpOp::Eq, 2.0)]),
            RowFilter::new(vec![pred(1, CmpOp::Ne, 3.0), pred(0, CmpOp::Le, 40.0)]),
            RowFilter::new(vec![
                pred(0, CmpOp::Gt, -50.0),
                pred(1, CmpOp::Ge, 1.0),
                pred(0, CmpOp::Lt, 60.0),
            ]),
        ];
        for rows in [1usize, 63, 64, 65, 511, 512, 513, 1_100, 2_049] {
            let continuous: Vec<f64> = (0..rows)
                .map(|i| match i % 17 {
                    _ if (600..1_700).contains(&i) => -500.0,
                    3 => f64::NAN,
                    5 => 0.0,
                    6 => -0.0,
                    9 => f64::INFINITY,
                    11 => f64::NEG_INFINITY,
                    _ => ((i * 7_919) % 200) as f64 - 100.0,
                })
                .collect();
            let categorical: Vec<f64> = (0..rows).map(|i| ((i * 31) % 4) as f64).collect();
            let cols = vec![continuous, categorical];
            let slices: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
            for filter in &filters {
                let mut want = Vec::new();
                filter.select(&slices, 0, &mut want);
                for (w, start) in (0..rows).step_by(64).enumerate() {
                    let word = filter.select_word(&slices, start);
                    let listed = want.iter().filter(|&&i| (i as usize) / 64 == w);
                    let from_list = listed.fold(0u64, |acc, &i| acc | 1 << (i % 64));
                    assert_eq!(word, from_list, "{rows} rows, word {w}, {filter:?}");
                }
                for sizes in [vec![SCAN_CHUNK_ROWS], vec![1, 63, 65, 2, 127, 64, 200]] {
                    let block = RawBlock {
                        cols: cols.clone(),
                        sizes,
                    };
                    let sel = SelectionVector::build(&block, filter).unwrap().unwrap();
                    assert_eq!(sel.indices(), want, "{rows} rows, {filter:?}");
                    assert_eq!(sel.match_count(), want.len() as u64);
                    assert_eq!(sel.heap_bytes(), formula_bytes(rows));
                    for (k, &row) in want.iter().enumerate() {
                        assert_eq!(sel.row_index(k as u64), u64::from(row));
                    }
                }
            }
        }
    }

    #[test]
    fn in_word_select_finds_every_set_bit() {
        for word in [1u64, u64::MAX, 0x8000_0000_0000_0001, 0xF0F0_0000_FF00_1234] {
            let mut rest = word;
            for rank in 0..word.count_ones() {
                assert_eq!(
                    select_in_word(word, rank),
                    rest.trailing_zeros(),
                    "{word:#x}"
                );
                rest &= rest - 1;
            }
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
    fn cache_retains_at_most_cap_selections_worth_of_bytes() {
        // Unique ad-hoc filters at every selectivity: whatever they
        // match, the cache holds at most `SELECTION_CACHE_CAP` sets'
        // bitmaps and directories.
        let rows = 10_000;
        let set = RowsBlock::split(vec![(0..rows).map(f64::from).collect()], 4);
        let blocks: Vec<_> = set.iter().map(Arc::clone).collect();
        let cache = SelectionCache::new();
        assert_eq!(cache.retained_bytes(), 0);
        let mut one = 0;
        for i in 0..(SELECTION_CACHE_CAP + 10) {
            let threshold = f64::from(rows) * i as f64 / (SELECTION_CACHE_CAP + 10) as f64;
            let sel = cache
                .get_or_build(&blocks, &filter_gt(0, threshold), None)
                .unwrap();
            one = one.max(sel.heap_bytes());
        }
        assert_eq!(cache.len(), SELECTION_CACHE_CAP);
        let vectors: usize = (0..4)
            .map(|b| formula_bytes(set.block(b).len() as usize))
            .sum();
        assert!(one >= vectors && one < vectors + 128, "{one} vs {vectors}");
        assert!(cache.retained_bytes() <= SELECTION_CACHE_CAP * one);
        assert!(cache.retained_bytes() >= SELECTION_CACHE_CAP * vectors);
        cache.clear();
        assert_eq!(cache.retained_bytes(), 0);
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
