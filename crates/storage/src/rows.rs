//! Multi-column row blocks and column/filter views.
//!
//! Four block kinds make [`crate::DataBlock`]'s row model concrete:
//!
//! * [`RowsBlock`] — a columnar in-memory table block: `width` columns of
//!   equal length, one uniform index draw per sampled row. A scalar
//!   column in memory is the width-1 case, and one column of a wider
//!   block projects to a width-1 [`RowsBlock`] sharing its storage;
//! * [`ZipBlock`] — zips equally-sized scalar blocks into one logical
//!   multi-column block (how legacy per-column tables join the row
//!   model without rewriting their storage);
//! * [`ColumnView`] — the width-1 projection of one column of any
//!   multi-column block that cannot hand its column out itself, the
//!   adapter that lets every scalar consumer (baseline estimators, the
//!   classic ISLA path) run over one column of a schema-aware table;
//! * [`PooledFilteredColumn`] — one column of a whole block set under a
//!   pushed-down [`RowFilter`], as a single block: what filtered
//!   baselines, `MAX`/`MIN` and `SUM` draw from. Filtered draws go
//!   through a compiled [`SetSelection`] (direct index lookups, matchless
//!   blocks occupying no width) wherever one can be built, falling back
//!   to rejection sampling only for unscannable blocks.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;
use rand::RngCore;
use rand::SeedableRng;

use crate::block::{BlockReads, DataBlock};
use crate::blockset::BlockSet;
use crate::error::StorageError;
use crate::filter::RowFilter;
use crate::kernel::{assert_width_one, gather_slices, scan_slices, ChunkedLane, SCAN_CHUNK_ROWS};
use crate::memory::{block_ranges, ColumnWindow};
use crate::selection::{sketch_zone, SelectionVector, SetSelection, ZoneMatch};
use crate::sketch::BlockSketch;

/// SplitMix64 finalizer: decorrelates the per-index probe streams of
/// [`PooledFilteredColumn`]'s positional reads.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A columnar in-memory block: the workhorse of schema-aware tables, and
/// at width 1 of every in-memory scalar column (tests, examples,
/// [`BlockSet::from_values`]). Each column is a window onto a shared
/// buffer, so a split ([`RowsBlock::split`]) or a projection
/// ([`DataBlock::project`], a width-1 [`RowsBlock`]) shares the storage
/// instead of copying it.
#[derive(Debug, Clone, PartialEq)]
pub struct RowsBlock {
    columns: Vec<ColumnWindow>,
    rows: usize,
    // Eager moment sketch, computed by the same pass that validates
    // finiteness — the `sketch()` hook is an O(1) Arc clone.
    sketch: Arc<BlockSketch>,
}

/// Asserts the shape every rows block needs: at least one column, all
/// equally long.
fn assert_table_shape(columns: &[Vec<f64>]) {
    assert!(
        !columns.is_empty(),
        "a rows block needs at least one column"
    );
    let rows = columns[0].len();
    for (i, col) in columns.iter().enumerate() {
        assert_eq!(col.len(), rows, "column {i} disagrees on the row count");
    }
}

impl RowsBlock {
    /// Wraps columnar data as a block.
    ///
    /// # Panics
    ///
    /// Panics if no columns are given, the columns disagree on length,
    /// or any value is not finite: blocks model stored columns of real
    /// measurements, and a NaN would silently poison every downstream
    /// moment.
    pub fn new(columns: Vec<Vec<f64>>) -> Self {
        assert_table_shape(&columns);
        Self::windows(columns.into_iter().map(ColumnWindow::whole).collect())
    }

    /// A block over equally long column windows, validated and
    /// sketched.
    pub(crate) fn windows(columns: Vec<ColumnWindow>) -> Self {
        let slices: Vec<&[f64]> = columns.iter().map(ColumnWindow::as_slice).collect();
        // One pass both validates and sketches: the fold counts
        // non-finite values, which is exactly the finiteness check.
        let sketch = BlockSketch::from_columns(&slices);
        assert!(sketch.all_finite(), "block values must be finite");
        Self {
            rows: columns[0].len(),
            columns,
            sketch: Arc::new(sketch),
        }
    }

    /// Wraps an already-validated column window and its already-folded
    /// sketch as a width-1 block, checking neither — how
    /// [`DataBlock::project`] hands out a column without copying or
    /// re-folding it. `sketch` must be the [`BlockSketch::from_columns`]
    /// of `column`.
    fn shared(column: ColumnWindow, sketch: Arc<BlockSketch>) -> Self {
        Self {
            rows: column.len(),
            columns: vec![column],
            sketch,
        }
    }

    /// Read-only view of one column.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn column(&self, col: usize) -> &[f64] {
        self.columns[col].as_slice()
    }

    /// Splits columnar data row-wise into `block_count` [`RowsBlock`]s,
    /// the multi-column analogue of [`BlockSet::from_values`] (the first
    /// `rows % block_count` blocks receive one extra row). Each column
    /// stays one buffer, which every block windows into: nothing is
    /// copied, and a block kept on its own keeps the whole buffers.
    ///
    /// # Panics
    ///
    /// Panics if `block_count == 0`, the columns are empty or disagree on
    /// length, or any value is not finite.
    pub fn split(columns: Vec<Vec<f64>>, block_count: usize) -> BlockSet {
        assert!(block_count > 0, "block count must be positive");
        assert_table_shape(&columns);
        let n = columns[0].len();
        assert!(n > 0, "cannot build a block set from no data");
        let buffers: Vec<Arc<Vec<f64>>> = columns.into_iter().map(Arc::new).collect();
        BlockSet::new(
            block_ranges(n, block_count)
                .map(|rows| {
                    let windows = buffers
                        .iter()
                        .map(|buffer| ColumnWindow::new(buffer, rows.clone()))
                        .collect();
                    Arc::new(RowsBlock::windows(windows)) as Arc<dyn DataBlock>
                })
                .collect(),
        )
    }
}

impl DataBlock for RowsBlock {
    fn len(&self) -> u64 {
        self.rows as u64
    }

    fn width(&self) -> usize {
        self.columns.len()
    }

    fn gather(
        &self,
        columns: &[usize],
        indices: &[u64],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        // Only the requested columns are read: an unread column costs no
        // load at all.
        gather_slices(&self.columns, columns, indices, out)
    }

    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        scan_slices(&self.columns, self.rows, columns, visit)
    }

    fn sketch(&self) -> Option<Arc<BlockSketch>> {
        Some(Arc::clone(&self.sketch))
    }

    fn zone(&self, filter: &RowFilter) -> ZoneMatch {
        sketch_zone(Some(&self.sketch), filter)
    }

    fn project(&self, col: usize) -> Option<Arc<dyn DataBlock>> {
        let c = self.columns.get(col)?;
        // Slice the column's moments off the table sketch instead of
        // re-folding the column (the projected entry was folded in the
        // same storage order, so it is bit-identical to a re-fold).
        let sketch = self.sketch.project(col)?;
        Some(Arc::new(Self::shared(c.clone(), Arc::new(sketch))) as Arc<dyn DataBlock>)
    }
}

/// Zips equally-sized scalar blocks into one logical multi-column block.
///
/// Row `i` of the zip is `(col₀[i], col₁[i], …)`. Sampling draws one
/// uniform index and reads it positionally from every column, so
/// file-backed and virtual columns compose without materialization.
pub struct ZipBlock {
    cols: Vec<Arc<dyn DataBlock>>,
    rows: u64,
    // Composed from the columns' own sketch hooks at construction;
    // `None` when any zipped column lacks one (e.g. file-backed).
    sketch: Option<Arc<BlockSketch>>,
}

impl std::fmt::Debug for ZipBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZipBlock")
            .field("rows", &self.rows)
            .field("width", &self.cols.len())
            .finish()
    }
}

impl ZipBlock {
    /// Zips `cols` into a multi-column block.
    ///
    /// # Panics
    ///
    /// Panics if no columns are given, a column is itself multi-column,
    /// or the columns disagree on the row count.
    pub fn new(cols: Vec<Arc<dyn DataBlock>>) -> Self {
        assert!(!cols.is_empty(), "a zip block needs at least one column");
        let rows = cols[0].len();
        for (i, col) in cols.iter().enumerate() {
            assert_eq!(col.width(), 1, "zipped column {i} must be scalar");
            assert_eq!(col.len(), rows, "zipped column {i} disagrees on rows");
        }
        // The zip's sketch is exactly its columns' scalar sketches side
        // by side — each column moment was folded in the same storage
        // order a row scan of the zip visits it, so composing hooks is
        // bit-identical to scanning the zip.
        let sketch = cols
            .iter()
            .map(|col| col.sketch().and_then(|s| s.column(0).copied()))
            .collect::<Option<Vec<_>>>()
            .map(|columns| Arc::new(BlockSketch { rows, columns }));
        Self { cols, rows, sketch }
    }
}

impl DataBlock for ZipBlock {
    fn len(&self) -> u64 {
        self.rows
    }

    fn width(&self) -> usize {
        self.cols.len()
    }

    fn gather(
        &self,
        columns: &[usize],
        indices: &[u64],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        // Column by column, each through the zipped column's own gather
        // (a file-backed column reads its rows ascending).
        if let [c] = columns {
            return self.cols[*c].gather(&[0], indices, out);
        }
        let w = columns.len();
        let mut lane = vec![0.0; indices.len()];
        for (k, &c) in columns.iter().enumerate() {
            self.cols[c].gather(&[0], indices, &mut lane)?;
            for (slot, &v) in out[k..].iter_mut().step_by(w).zip(&lane) {
                *slot = v;
            }
        }
        Ok(())
    }

    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        // One chunk of rows at a time, gathered column by column: one
        // read per column per chunk, never one per value.
        let mut indices: Vec<u64> = Vec::new();
        let mut lanes: Vec<Vec<f64>> = vec![Vec::new(); columns.len()];
        for start in (0..self.rows).step_by(SCAN_CHUNK_ROWS) {
            indices.clear();
            indices.extend(start..self.rows.min(start + SCAN_CHUNK_ROWS as u64));
            for (lane, &c) in lanes.iter_mut().zip(columns) {
                lane.resize(indices.len(), 0.0);
                self.cols[c].gather(&[0], &indices, lane)?;
            }
            visit(&lanes.iter().map(Vec::as_slice).collect::<Vec<_>>());
        }
        Ok(())
    }

    fn supports_scan(&self) -> bool {
        self.cols.iter().all(|c| c.supports_scan())
    }

    fn sketch(&self) -> Option<Arc<BlockSketch>> {
        self.sketch.clone()
    }

    fn zone(&self, filter: &RowFilter) -> ZoneMatch {
        sketch_zone(self.sketch.as_deref(), filter)
    }

    fn project(&self, col: usize) -> Option<Arc<dyn DataBlock>> {
        // A zip's columns ARE scalar blocks: hand the original back.
        self.cols.get(col).map(Arc::clone)
    }
}

/// A width-1 projection of one column of a multi-column block.
pub struct ColumnView {
    inner: Arc<dyn DataBlock>,
    col: usize,
    // The inner block's sketch projected to `col`, when it has one.
    sketch: Option<Arc<BlockSketch>>,
}

impl std::fmt::Debug for ColumnView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnView")
            .field("col", &self.col)
            .field("rows", &self.inner.len())
            .finish()
    }
}

impl ColumnView {
    /// Projects column `col` of `inner`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of the inner block's width.
    pub fn new(inner: Arc<dyn DataBlock>, col: usize) -> Self {
        assert!(col < inner.width(), "column {col} out of range");
        let sketch = inner.sketch().and_then(|s| s.project(col)).map(Arc::new);
        Self { inner, col, sketch }
    }

    /// Runs `read` with this view's `columns` (all column 0) as the inner
    /// block's columns.
    fn on_inner<R>(&self, columns: &[usize], read: impl FnOnce(&[usize]) -> R) -> R {
        assert_width_one(columns);
        match columns {
            [_] => read(&[self.col]),
            _ => read(&vec![self.col; columns.len()]),
        }
    }
}

impl DataBlock for ColumnView {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn gather(
        &self,
        columns: &[usize],
        indices: &[u64],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        self.on_inner(columns, |cols| self.inner.gather(cols, indices, out))
    }

    fn draw(
        &self,
        rng: &mut dyn RngCore,
        columns: &[usize],
        indices: &mut [u64],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        // The inner block's own draw: its fault gate, its stream.
        self.on_inner(columns, |cols| self.inner.draw(rng, cols, indices, out))
    }

    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        self.on_inner(columns, |cols| self.inner.scan_column_chunks(cols, visit))
    }

    fn supports_scan(&self) -> bool {
        self.inner.supports_scan()
    }

    fn sketch(&self) -> Option<Arc<BlockSketch>> {
        self.sketch.clone()
    }
}

/// Visits column `col` of the rows of `block` that match `filter`, in
/// storage order — one block's share of [`PooledFilteredColumn`]'s scan.
/// The column arrives as chunks ([`DataBlock::scan_column_chunks`]):
/// with a compiled `selection` its set bits are walked across the
/// one-column chunks (no predicate is re-evaluated, a matchless block is
/// not read at all); without one, each chunk of the columns the filter
/// reads is put through [`RowFilter::select`].
fn scan_matching(
    block: &dyn DataBlock,
    col: usize,
    filter: &RowFilter,
    selection: Option<&SelectionVector>,
    visit: &mut dyn FnMut(f64),
) -> Result<(), StorageError> {
    let Some(selection) = selection else {
        let (columns, filter) = filter.projected([col]);
        let at = columns.partition_point(|&c| c < col);
        let mut matched = Vec::new();
        return block.scan_column_chunks(&columns, &mut |chunk| {
            filter.select(chunk, 0, &mut matched);
            for &i in &matched {
                visit(chunk[at][i as usize]);
            }
        });
    };
    if selection.is_empty() {
        return Ok(());
    }
    let mut rows = selection.rows().peekable();
    let mut base = 0u64;
    block.scan_column_chunks(&[col], &mut |chunk| {
        let values = chunk[0];
        let end = base + values.len() as u64;
        while let Some(r) = rows.next_if(|&r| r < end) {
            visit(values[(r - base) as usize]);
        }
        base = end;
    })
}

/// `picks` — uniform draws from `0..total` — in ascending order, each
/// with its position in `picks` (its draw-order slot). One counting
/// pass into `picks.len()` buckets keyed by `k · len / total`, which
/// is monotone in `k` and leaves about one pick per bucket, then a sort
/// inside each bucket: expected O(n) where a comparison sort of the
/// batch is O(n log n).
fn ascending_picks(picks: &[u64], total: u64) -> (Vec<u64>, Vec<usize>) {
    let n = picks.len();
    let scale = n as f64 / total as f64;
    let bucket = |k: u64| ((k as f64 * scale) as usize).min(n - 1);
    let mut starts = vec![0usize; n + 1];
    for &k in picks {
        starts[bucket(k) + 1] += 1;
    }
    for i in 0..n {
        starts[i + 1] += starts[i];
    }
    let mut order = vec![(0, 0); n];
    let mut next = starts.clone();
    for (slot, &k) in picks.iter().enumerate() {
        let b = bucket(k);
        order[next[b]] = (k, slot);
        next[b] += 1;
    }
    for range in starts.windows(2) {
        order[range[0]..range[1]].sort_unstable_by_key(|&(k, _)| k);
    }
    order.into_iter().unzip()
}

/// Projects one column of every block in `set` as width-1 scalar
/// blocks: zero-copy where the block supports [`DataBlock::project`]
/// (columnar and zipped blocks), a [`ColumnView`] wrapper otherwise.
pub fn project_column(set: &BlockSet, col: usize) -> BlockSet {
    // The projection inherits the parent's epoch history: a column view
    // has the same block/row shape per epoch, so delta folds over the
    // projected set line up with the parent's seal boundaries.
    BlockSet::with_marks(
        set.iter().map(|b| project_block(b, col)).collect(),
        set.epoch_marks().to_vec(),
    )
}

/// Column `col` of `block` as a width-1 block: the block's own
/// zero-copy projection where it has one, a [`ColumnView`] otherwise —
/// so a wrapper that declines to project (an armed
/// [`crate::FaultyBlock`]) keeps every read behind its gate.
fn project_block(block: &Arc<dyn DataBlock>, col: usize) -> Arc<dyn DataBlock> {
    block
        .project(col)
        .unwrap_or_else(|| Arc::new(ColumnView::new(Arc::clone(block), col)))
}

/// Compiles (or fetches from the set's cache) the selection of `set`
/// under `filter`. `None` for trivial filters — a bitmap with every
/// bit set would cost its ≈ 0.133 B a row for nothing — and when
/// compilation fails (the first scan error surfaces later through the
/// fallback path, which hits the same storage fault).
///
/// Compilation is **eager** (one row scan per block at view
/// construction): the deliberate trade of the precomputed-selection
/// design — a first filtered query over a huge table pays a scan that
/// per-draw rejection would not, and every later query over a
/// fingerprint-equal filter (and every low-selectivity draw, where
/// rejection degrades as 1/selectivity) gets rejection-free draws from
/// the set-level cache. Blocks that cannot scan keep the rejection path,
/// so virtual/capped storage never pays this.
fn compile_selection(set: &BlockSet, filter: &RowFilter) -> Option<Arc<SetSelection>> {
    if filter.is_trivial() {
        return None;
    }
    set.selection_for(filter).ok()
}

/// Projects one column of the whole set, restricted to rows matching
/// `filter`, as a **single pooled block**.
///
/// Rejection sampling runs over the entire row population, so blocks
/// without any matching row merely contribute rejections instead of
/// failing the draw (range-partitioned data), and block-size weighting
/// disappears along with the block structure — a stratified consumer
/// sees one stratum and degrades to plain uniform sampling over the
/// *matching* rows, which is unbiased regardless of how selectivity
/// varies across the original blocks.
pub fn pool_filtered_column(set: &BlockSet, col: usize, filter: RowFilter) -> BlockSet {
    BlockSet::single(PooledFilteredColumn::build(set, col, filter))
}

/// The single logical block behind [`pool_filtered_column`]: one
/// filtered scalar population over every row of a block set.
pub struct PooledFilteredColumn {
    blocks: Vec<Arc<dyn DataBlock>>,
    /// Column `col` of each block ([`project_column`]'s rule): what a
    /// draw through the compiled selection reads — one value, where the
    /// rejection path must read the whole row to test it.
    columns: Vec<Arc<dyn DataBlock>>,
    /// Cumulative row counts, for O(log b) global-index resolution.
    cumulative: Vec<u64>,
    total: u64,
    col: usize,
    filter: Arc<RowFilter>,
    /// Compiled whole-set selection, when every block supports one.
    selection: Option<Arc<SetSelection>>,
}

impl std::fmt::Debug for PooledFilteredColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledFilteredColumn")
            .field("col", &self.col)
            .field("rows", &self.total)
            .field("blocks", &self.blocks.len())
            .field("predicates", &self.filter.predicates().len())
            .finish()
    }
}

impl PooledFilteredColumn {
    /// Builds the pooled filtered projection of `set.column(col)` under
    /// `filter` — the typed form of [`pool_filtered_column`].
    pub fn build(set: &BlockSet, col: usize, filter: RowFilter) -> Self {
        let mut cumulative = Vec::with_capacity(set.block_count());
        let mut total = 0u64;
        for block in set.iter() {
            total += block.len();
            cumulative.push(total);
        }
        // A *complete* compiled selection (every block scannable) turns
        // pooled draws into direct global match lookups; anything less
        // keeps the whole-set rejection fallback.
        let selection = compile_selection(set, &filter).filter(|s| s.is_complete());
        Self {
            blocks: set.iter().map(Arc::clone).collect(),
            columns: set.iter().map(|b| project_block(b, col)).collect(),
            cumulative,
            total,
            col,
            filter: Arc::new(filter),
            selection,
        }
    }

    /// Reads global row `idx` into `row`, returning the projected value
    /// when the filter matches.
    fn read_global(&self, idx: u64, row: &mut Vec<f64>) -> Result<Option<f64>, StorageError> {
        let b = self.cumulative.partition_point(|&c| c <= idx);
        let base = if b == 0 { 0 } else { self.cumulative[b - 1] };
        self.blocks[b].row_tuple(idx - base, row)?;
        Ok(self.filter.matches(row).then(|| row[self.col]))
    }

    /// Reads the `k`-th global *match* through the compiled selection
    /// into `out` (one row of `columns`): one value of the projected
    /// column — the selection already says the row matches (re-checked
    /// on the whole row in debug builds).
    fn read_match(
        &self,
        sel: &SetSelection,
        k: u64,
        columns: &[usize],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        let (b, local) = sel.locate(k);
        self.columns[b].gather(columns, &[local], out)?;
        if cfg!(debug_assertions) {
            let mut row = Vec::new();
            if self.blocks[b].row_tuple(local, &mut row).is_ok() {
                assert!(
                    self.filter.matches(&row),
                    "selection row {local} of block {b}"
                );
            }
        }
        Ok(())
    }

    /// Reads the global matches `picks` (in draw order) into their
    /// draw-order rows of `out`, a batch at a time: the `(match, slot)`
    /// pairs are put in ascending order once ([`ascending_picks`]) and
    /// resolved in one forward walk ([`SetSelection::locate_ascending`]),
    /// one ascending `gather` per block, each value landing in its slot
    /// — the values [`Self::read_match`] reads one draw at a time. If a
    /// gather fails, the batch is re-resolved one draw at a time in
    /// draw order, so the error is the one the first failing draw
    /// raises.
    fn read_matches(
        &self,
        sel: &SetSelection,
        picks: &[u64],
        columns: &[usize],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        if self.gather_matches(sel, picks, columns, out).is_ok() {
            return Ok(());
        }
        let w = columns.len();
        for (j, &k) in picks.iter().enumerate() {
            self.read_match(sel, k, columns, &mut out[j * w..(j + 1) * w])?;
        }
        Ok(())
    }

    /// The batched body of [`Self::read_matches`], stopping at the first
    /// failing gather. The rows each block gathers are re-checked
    /// against the filter in debug builds.
    fn gather_matches(
        &self,
        sel: &SetSelection,
        picks: &[u64],
        columns: &[usize],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        let w = columns.len();
        let (mut rows, slots) = ascending_picks(picks, sel.total_matches());
        let mut values = Vec::new();
        sel.locate_ascending(&mut rows, |b, range, rows| {
            values.resize(rows.len() * w, 0.0);
            self.columns[b].gather(columns, rows, &mut values)?;
            for (j, &slot) in slots[range].iter().enumerate() {
                out[slot * w..(slot + 1) * w].copy_from_slice(&values[j * w..(j + 1) * w]);
            }
            if cfg!(debug_assertions) {
                let mut row = Vec::new();
                for &local in rows {
                    if self.blocks[b].row_tuple(local, &mut row).is_ok() {
                        assert!(
                            self.filter.matches(&row),
                            "selection row {local} of block {b}"
                        );
                    }
                }
            }
            Ok(())
        })
    }

    /// One uniform draw over the matching rows from `rng` into `out`: a
    /// match index through the compiled selection — no rejection loop,
    /// matchless blocks occupy no width and are never probed — else
    /// whole-set rejection.
    fn draw_match(
        &self,
        rng: &mut dyn RngCore,
        columns: &[usize],
        row: &mut Vec<f64>,
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        let Some(sel) = &self.selection else {
            out.fill(self.reject(rng, row)?);
            return Ok(());
        };
        if sel.total_matches() == 0 {
            return Err(StorageError::SelectivityTooLow { attempts: 0 });
        }
        self.read_match(sel, rng.random_range(0..sel.total_matches()), columns, out)
    }

    /// Draws global rows from `rng` until one matches.
    fn reject(&self, rng: &mut dyn RngCore, row: &mut Vec<f64>) -> Result<f64, StorageError> {
        for _ in 0..RowFilter::MAX_REJECTION_ATTEMPTS {
            if let Some(v) = self.read_global(rng.random_range(0..self.total), row)? {
                return Ok(v);
            }
        }
        Err(StorageError::SelectivityTooLow {
            attempts: RowFilter::MAX_REJECTION_ATTEMPTS,
        })
    }

    /// The number of matching rows across the set, when compiled.
    pub fn match_count(&self) -> Option<u64> {
        self.selection.as_ref().map(|s| s.total_matches())
    }
}

impl DataBlock for PooledFilteredColumn {
    fn len(&self) -> u64 {
        self.total
    }

    fn gather(
        &self,
        columns: &[usize],
        indices: &[u64],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        // Positional access resolves to a *matching* row: `idx` itself
        // when it matches, otherwise a pseudo-random matching row drawn
        // from an `idx`-seeded stream (deterministic: repeated reads of
        // the same index agree). Under a uniform `idx`, redirects land
        // uniformly on the matching rows of the whole set, so each
        // matching row carries identical total probability regardless
        // of how matches cluster physically — estimators that read
        // uniform positions (e.g. the US baseline) stay uniform over the
        // filtered population even on sorted data.
        assert_width_one(columns);
        let w = columns.len();
        let mut row = Vec::new();
        for (j, &idx) in indices.iter().enumerate() {
            if idx >= self.total {
                return Err(StorageError::Empty);
            }
            let slot = &mut out[j * w..(j + 1) * w];
            match self.read_global(idx, &mut row)? {
                Some(v) => slot.fill(v),
                None => {
                    // isla-lint: allow(determinism, reason = "content derivation, not an engine stream: the redirect target is a pure function of idx, so every scheduler reads the same row")
                    let mut probe_rng = StdRng::seed_from_u64(splitmix64(idx));
                    self.draw_match(&mut probe_rng, columns, &mut row, slot)?;
                }
            }
        }
        Ok(())
    }

    fn draw(
        &self,
        rng: &mut dyn RngCore,
        columns: &[usize],
        indices: &mut [u64],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        // A draw over match space, not over rows: no "index draw +
        // gather" of the block's own positions.
        assert_width_one(columns);
        if self.total == 0 {
            return Err(StorageError::Empty);
        }
        let w = columns.len();
        let mut row = Vec::new();
        match &self.selection {
            Some(sel) => {
                if sel.total_matches() == 0 {
                    return Err(StorageError::SelectivityTooLow { attempts: 0 });
                }
                // Every match index first, then the reads a batch at a
                // time.
                for slot in indices.iter_mut() {
                    *slot = rng.random_range(0..sel.total_matches());
                }
                self.read_matches(sel, indices, columns, out)?;
            }
            None => {
                for j in 0..indices.len() {
                    out[j * w..(j + 1) * w].fill(self.reject(rng, &mut row)?);
                }
            }
        }
        Ok(())
    }

    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        let mut lane = ChunkedLane::new(columns, visit);
        for (b, block) in self.blocks.iter().enumerate() {
            // A pooled view only keeps a complete selection.
            let block_sel = self
                .selection
                .as_ref()
                .map(|sel| {
                    sel.block(b).ok_or_else(|| {
                        StorageError::Internal(format!("complete selection skipped block {b}"))
                    })
                })
                .transpose()?;
            scan_matching(
                block.as_ref(),
                self.col,
                &self.filter,
                block_sel.map(Arc::as_ref),
                &mut |v| lane.push(v),
            )?;
        }
        lane.flush();
        Ok(())
    }

    fn supports_scan(&self) -> bool {
        self.blocks.iter().all(|b| b.supports_scan())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{CmpOp, ColumnPredicate};
    use crate::generator::GeneratorBlock;
    use isla_stats::distributions::Normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_cols() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 2.0, 3.0, 4.0],     // x
            vec![10.0, 20.0, 30.0, 40.0], // y
        ]
    }

    fn two_col_block() -> RowsBlock {
        RowsBlock::new(two_cols())
    }

    #[test]
    fn rows_block_tuple_access() {
        let b = two_col_block();
        assert_eq!(b.len(), 4);
        assert_eq!(b.width(), 2);
        let mut row = Vec::new();
        b.row_tuple(2, &mut row).unwrap();
        assert_eq!(row, vec![3.0, 30.0]);
        assert!(matches!(b.row_tuple(4, &mut row), Err(StorageError::Empty)));
        assert_eq!(b.row_at(1).unwrap(), 2.0, "scalar access is column 0");
        assert_eq!(b.column(1), &[10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn rows_block_scan_rows_in_order() {
        let b = two_col_block();
        let mut rows = Vec::new();
        b.scan_rows(&mut |r| rows.push(r.to_vec())).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0], vec![1.0, 10.0]);
        assert_eq!(rows[3], vec![4.0, 40.0]);
        // Scalar scan visits column 0 only.
        let mut scalars = Vec::new();
        b.scan(&mut |v| scalars.push(v)).unwrap();
        assert_eq!(scalars, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn rows_block_sampling_keeps_tuples_aligned() {
        let b = two_col_block();
        let mut rng = StdRng::seed_from_u64(1);
        let mut row = Vec::new();
        for _ in 0..100 {
            b.sample_row(&mut rng, &mut row).unwrap();
            assert_eq!(row.len(), 2);
            assert_eq!(row[1], row[0] * 10.0, "columns of one row stay aligned");
        }
    }

    #[test]
    fn scalar_blocks_get_width_one_rows_for_free() {
        let b = RowsBlock::new(vec![vec![5.0, 6.0]]);
        assert_eq!(DataBlock::width(&b), 1);
        let mut row = Vec::new();
        b.row_tuple(1, &mut row).unwrap();
        assert_eq!(row, vec![6.0]);
        let mut rows = Vec::new();
        b.scan_rows(&mut |r| rows.push(r.to_vec())).unwrap();
        assert_eq!(rows, vec![vec![5.0], vec![6.0]]);
        let mut rng = StdRng::seed_from_u64(2);
        b.sample_row(&mut rng, &mut row).unwrap();
        assert_eq!(row.len(), 1);
    }

    #[test]
    fn split_distributes_rows_and_preserves_alignment() {
        let n = 10;
        let x: Vec<f64> = (0..n).map(f64::from).collect();
        let y: Vec<f64> = (0..n).map(|i| f64::from(i) * 2.0).collect();
        let set = RowsBlock::split(vec![x, y], 3);
        assert_eq!(set.block_count(), 3);
        assert_eq!(set.total_len(), 10);
        let sizes: Vec<u64> = set.iter().map(|b| b.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        let mut seen = Vec::new();
        for block in set.iter() {
            block
                .scan_rows(&mut |r| {
                    assert_eq!(r[1], r[0] * 2.0);
                    seen.push(r[0]);
                })
                .unwrap();
        }
        assert_eq!(seen, (0..n).map(f64::from).collect::<Vec<_>>());
    }

    #[test]
    fn rows_blocks_compare_by_value_not_by_buffer_or_range() {
        let x = Arc::new(vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let y = Arc::new(vec![0.0, 10.0, 20.0, 30.0, 40.0]);
        let window = |rows: std::ops::Range<usize>| {
            RowsBlock::windows(vec![
                ColumnWindow::new(&x, rows.clone()),
                ColumnWindow::new(&y, rows),
            ])
        };
        assert_eq!(window(1..5), two_col_block());
        assert_ne!(window(0..4), two_col_block());
    }

    #[test]
    fn zip_block_reads_all_columns_positionally() {
        let z = ZipBlock::new(vec![
            Arc::new(RowsBlock::new(vec![vec![1.0, 2.0, 3.0]])) as Arc<dyn DataBlock>,
            Arc::new(RowsBlock::new(vec![vec![10.0, 20.0, 30.0]])),
        ]);
        assert_eq!(z.len(), 3);
        assert_eq!(z.width(), 2);
        let mut row = Vec::new();
        z.row_tuple(1, &mut row).unwrap();
        assert_eq!(row, vec![2.0, 20.0]);
        let mut rows = Vec::new();
        z.scan_rows(&mut |r| rows.push(r.to_vec())).unwrap();
        assert_eq!(rows[2], vec![3.0, 30.0]);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            z.sample_row(&mut rng, &mut row).unwrap();
            assert_eq!(row[1], row[0] * 10.0);
        }
        assert!(z.supports_scan());
    }

    #[test]
    #[should_panic(expected = "disagrees on rows")]
    fn zip_rejects_mismatched_columns() {
        let _ = ZipBlock::new(vec![
            Arc::new(RowsBlock::new(vec![vec![1.0]])) as Arc<dyn DataBlock>,
            Arc::new(RowsBlock::new(vec![vec![1.0, 2.0]])),
        ]);
    }

    #[test]
    fn column_view_projects() {
        let inner: Arc<dyn DataBlock> = Arc::new(two_col_block());
        let view = ColumnView::new(Arc::clone(&inner), 1);
        assert_eq!(view.len(), 4);
        assert_eq!(DataBlock::width(&view), 1);
        assert_eq!(view.row_at(2).unwrap(), 30.0);
        let mut vals = Vec::new();
        view.scan(&mut |v| vals.push(v)).unwrap();
        assert_eq!(vals, vec![10.0, 20.0, 30.0, 40.0]);
        let mut rng = StdRng::seed_from_u64(4);
        let v = view.sample_one(&mut rng).unwrap();
        assert!([10.0, 20.0, 30.0, 40.0].contains(&v));
    }

    /// The pooled filtered view of column `col` of one block holding
    /// `columns`: a [`RowsBlock`], whose selection compiles, or — the
    /// same columns zipped with a virtual one that cannot scan, so no
    /// selection compiles — a block the view draws from by rejection.
    fn filtered_view(
        columns: Vec<Vec<f64>>,
        col: usize,
        filter: RowFilter,
        compiled: bool,
    ) -> PooledFilteredColumn {
        let inner: Arc<dyn DataBlock> = if compiled {
            Arc::new(RowsBlock::new(columns))
        } else {
            let rows = columns[0].len() as u64;
            let unscannable =
                GeneratorBlock::new(Arc::new(Normal::new(0.0, 1.0)), rows, 7).with_scan_cap(0);
            let mut cols: Vec<Arc<dyn DataBlock>> = columns
                .into_iter()
                .map(|c| Arc::new(RowsBlock::new(vec![c])) as Arc<dyn DataBlock>)
                .collect();
            cols.push(Arc::new(unscannable));
            Arc::new(ZipBlock::new(cols))
        };
        let view = PooledFilteredColumn::build(&BlockSet::new(vec![inner]), col, filter);
        assert_eq!(view.match_count().is_some(), compiled);
        view
    }

    #[test]
    fn filtered_view_samples_only_matching_rows() {
        for compiled in [true, false] {
            let filter = RowFilter::new(vec![ColumnPredicate {
                column: 0,
                op: CmpOp::Gt,
                value: 2.0,
            }]);
            let view = filtered_view(two_cols(), 1, filter, compiled);
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..100 {
                let v = view.sample_one(&mut rng).unwrap();
                assert!(v == 30.0 || v == 40.0, "sampled filtered-out row: {v}");
            }
            let mut vals = Vec::new();
            view.scan(&mut |v| vals.push(v)).unwrap();
            assert_eq!(vals, vec![30.0, 40.0]);
            assert_eq!(view.len(), 4, "len stays the unfiltered count");
            assert_eq!(view.supports_scan(), compiled);
            // Positional access: matching indices read through; non-matching
            // indices redirect deterministically to some matching row.
            assert_eq!(view.row_at(2).unwrap(), 30.0, "direct hit");
            let redirected = view.row_at(0).unwrap();
            assert!(
                redirected == 30.0 || redirected == 40.0,
                "redirect lands on a match: {redirected}"
            );
            assert_eq!(view.row_at(0).unwrap(), redirected, "redirect is stable");
            assert!(matches!(view.row_at(4), Err(StorageError::Empty)));
        }
    }

    #[test]
    fn filtered_positional_reads_stay_uniform_on_sorted_data() {
        // All matching rows sit in one contiguous run (sorted data, the
        // clustered regime): positional reads over uniform indices must
        // still weight every matching row equally, not by the length of
        // the non-matching run preceding it.
        let n = 1_000u64;
        for compiled in [true, false] {
            let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
            // Matches are the last 100 rows: 900..999.
            let filter = RowFilter::new(vec![ColumnPredicate {
                column: 0,
                op: CmpOp::Ge,
                value: 900.0,
            }]);
            let view = filtered_view(vec![x], 0, filter, compiled);
            let mut sum = 0.0;
            for idx in 0..n {
                sum += view.row_at(idx).unwrap();
            }
            let mean = sum / n as f64;
            // Uniform weighting gives E = 949.5; the old forward-probe gave
            // ~90% of the weight to row 900 alone (mean ≈ 905).
            assert!(
                (mean - 949.5).abs() < 3.0,
                "positional mean {mean} biased away from 949.5"
            );
        }
    }

    #[test]
    fn filtered_view_fails_on_impossible_predicates() {
        for compiled in [true, false] {
            let filter = RowFilter::new(vec![ColumnPredicate {
                column: 0,
                op: CmpOp::Gt,
                value: 100.0,
            }]);
            let view = filtered_view(two_cols(), 0, filter, compiled);
            let mut rng = StdRng::seed_from_u64(6);
            assert!(matches!(
                view.sample_one(&mut rng),
                Err(StorageError::SelectivityTooLow { .. })
            ));
        }
    }

    #[test]
    fn pooled_filter_survives_matchless_blocks_and_ignores_block_skew() {
        // Range-partitioned data: all matching rows live in the last of
        // four blocks. A per-block draw would exhaust on the first three;
        // the pooled view draws across the set.
        let n = 4_000;
        let x: Vec<f64> = (0..n).map(f64::from).collect();
        let y = x.clone();
        let set = RowsBlock::split(vec![x, y], 4);
        let filter = RowFilter::new(vec![ColumnPredicate {
            column: 1,
            op: CmpOp::Ge,
            value: 3_000.0,
        }]);
        let pooled = pool_filtered_column(&set, 0, filter);
        assert_eq!(pooled.block_count(), 1);
        assert_eq!(pooled.total_len(), 4_000);

        let block = pooled.block(0);
        let mut rng = StdRng::seed_from_u64(8);
        let mut sum = 0.0;
        let draws = 4_000;
        for _ in 0..draws {
            let v = block.sample_one(&mut rng).unwrap();
            assert!(v >= 3_000.0, "sampled filtered-out row {v}");
            sum += v;
        }
        let mean = sum / draws as f64;
        assert!((mean - 3_499.5).abs() < 30.0, "sample mean {mean}");

        // Positional reads stay uniform over the matches too.
        let mut pos_sum = 0.0;
        for idx in 0..4_000u64 {
            pos_sum += block.row_at(idx).unwrap();
        }
        let pos_mean = pos_sum / 4_000.0;
        assert!(
            (pos_mean - 3_499.5).abs() < 15.0,
            "positional mean {pos_mean}"
        );
        assert!(matches!(block.row_at(4_000), Err(StorageError::Empty)));

        // Scans visit exactly the matching rows, in order.
        let mut scanned = Vec::new();
        pooled.scan_all(&mut |v| scanned.push(v)).unwrap();
        assert_eq!(scanned.len(), 1_000);
        assert_eq!(scanned[0], 3_000.0);
        assert_eq!(*scanned.last().unwrap(), 3_999.0);
    }

    #[test]
    fn projections_and_zips_compose_sketches_without_rescanning() {
        let b = two_col_block();
        let parent = DataBlock::sketch(&b).unwrap();
        assert_eq!(parent.width(), 2);
        assert_eq!(parent.rows, 4);

        // RowsBlock::project slices the parent sketch: bit-identical.
        let col1 = b.project(1).unwrap();
        let projected = col1.sketch().unwrap();
        assert_eq!(projected.width(), 1);
        assert_eq!(
            projected.column(0).unwrap().sum_sq.to_bits(),
            parent.column(1).unwrap().sum_sq.to_bits()
        );

        // ZipBlock composes its columns' hooks side by side.
        let z = ZipBlock::new(vec![
            Arc::new(RowsBlock::new(vec![vec![1.0, 2.0, 3.0]])) as Arc<dyn DataBlock>,
            Arc::new(RowsBlock::new(vec![vec![10.0, 20.0, 30.0]])),
        ]);
        let zs = DataBlock::sketch(&z).unwrap();
        assert_eq!(zs.width(), 2);
        assert_eq!(zs.rows, 3);
        assert_eq!(zs.column(1).unwrap().sum, 60.0);

        // ColumnView projects the inner hook.
        let view = ColumnView::new(Arc::new(two_col_block()), 0);
        let vs = DataBlock::sketch(&view).unwrap();
        assert_eq!(vs.column(0).unwrap().sum, 10.0);

        // Filtered views stay sketch-less: the inner sketch describes
        // the unfiltered population, not the matching rows.
        let filter = RowFilter::new(vec![ColumnPredicate {
            column: 0,
            op: CmpOp::Gt,
            value: 2.0,
        }]);
        let fv = filtered_view(two_cols(), 1, filter, true);
        assert!(DataBlock::sketch(&fv).is_none());
    }

    #[test]
    fn projected_columns_share_the_parents_storage_and_slice_its_sketch() {
        let bits = |s: &BlockSketch| {
            let moments = |m: &crate::sketch::ColumnMoments| {
                (
                    [m.sum, m.sum_sq, m.min, m.max].map(f64::to_bits),
                    m.non_finite,
                )
            };
            (s.rows, s.columns.iter().map(moments).collect::<Vec<_>>())
        };
        let b = two_col_block();
        let parent = DataBlock::sketch(&b).unwrap();
        for c in 0..b.width() {
            let projected = b.project(c).unwrap();
            // No copy: the projection scans the parent's own column.
            let mut windows = Vec::new();
            projected
                .scan_chunks(&mut |chunk| windows.push((chunk.as_ptr(), chunk.len())))
                .unwrap();
            assert_eq!(windows, vec![(b.column(c).as_ptr(), b.column(c).len())]);
            // No re-fold: column `c` of the parent's sketch, bit for bit —
            // which is also what folding the column afresh gives.
            let sketch = projected.sketch().unwrap();
            assert_eq!(bits(&sketch), bits(&parent.project(c).unwrap()));
            assert_eq!(bits(&sketch), bits(&BlockSketch::from_values(b.column(c))));
        }
        assert!(b.project(2).is_none(), "no such column");
    }

    #[test]
    fn projection_helpers_cover_every_block() {
        let set = RowsBlock::split(
            vec![
                (0..100).map(f64::from).collect(),
                (0..100).map(|i| f64::from(i % 4)).collect(),
            ],
            4,
        );
        let ys = project_column(&set, 1);
        assert_eq!(ys.block_count(), 4);
        assert_eq!(ys.total_len(), 100);
        let mean = ys.exact_mean().unwrap();
        assert!((mean - 1.5).abs() < 1e-12);

        let filtered = pool_filtered_column(
            &set,
            0,
            RowFilter::new(vec![ColumnPredicate {
                column: 1,
                op: CmpOp::Eq,
                value: 0.0,
            }]),
        );
        let mut vals = Vec::new();
        filtered.scan_all(&mut |v| vals.push(v)).unwrap();
        assert_eq!(vals.len(), 25);
        assert!(vals.iter().all(|v| (v % 4.0) == 0.0));
    }

    /// Column 0: a key the filter tests; column 1: the global row index,
    /// so a drawn value names its row.
    fn keyed_rows(rows: usize) -> Vec<Vec<f64>> {
        vec![
            (0..rows).map(|i| ((i * 7_919) % 1_000) as f64).collect(),
            (0..rows).map(|i| i as f64).collect(),
        ]
    }

    fn key_gt(value: f64) -> RowFilter {
        RowFilter::new(vec![ColumnPredicate {
            column: 0,
            op: CmpOp::Gt,
            value,
        }])
    }

    #[test]
    fn batched_filtered_draws_equal_per_draw_reads_across_blocks() {
        // 3 000 rows over three blocks, so every block's directory has
        // two spans, and batches far larger than the ≈ 900 matches, so
        // match indices repeat within a batch.
        let cols = keyed_rows(3_000);
        let filter = key_gt(700.0);
        let matching: Vec<f64> = (0..3_000)
            .filter(|&i| cols[0][i] > 700.0)
            .map(|i| cols[1][i])
            .collect();
        let view = PooledFilteredColumn::build(&RowsBlock::split(cols, 3), 1, filter);
        assert_eq!(view.match_count(), Some(matching.len() as u64));
        for (seed, n) in [(1u64, 4_000usize), (2, 1), (3, 64), (4, 2_500)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut picks, mut batch) = (vec![0; n], vec![0.0; n]);
            view.draw(&mut rng, &[0], &mut picks, &mut batch).unwrap();
            let after_batch = rng.next_u64();
            if n == 4_000 {
                let mut distinct = picks.clone();
                distinct.sort_unstable();
                distinct.dedup();
                assert!(distinct.len() < n, "the batch repeats match indices");
                assert!(
                    distinct.last().unwrap() - distinct[0] > 800,
                    "draws span the blocks"
                );
            }
            let mut rng = StdRng::seed_from_u64(seed);
            for (j, &k) in picks.iter().enumerate() {
                let one = view.sample_one(&mut rng).unwrap();
                assert_eq!(one.to_bits(), batch[j].to_bits(), "seed {seed}, draw {j}");
                assert_eq!(one, matching[k as usize], "draw {j} reads match {k}");
            }
            assert_eq!(rng.next_u64(), after_batch, "the same RNG position");
        }
    }

    /// Block `id` of a set, whose gathers fail on `bad` rows, naming
    /// the first such row in the order asked.
    #[derive(Debug)]
    struct FailingRows {
        id: usize,
        inner: RowsBlock,
        bad: Vec<u64>,
    }

    impl DataBlock for FailingRows {
        fn len(&self) -> u64 {
            self.inner.len()
        }
        fn width(&self) -> usize {
            self.inner.width()
        }
        fn gather(
            &self,
            columns: &[usize],
            indices: &[u64],
            out: &mut [f64],
        ) -> Result<(), StorageError> {
            match indices.iter().find(|r| self.bad.contains(r)) {
                Some(r) => Err(StorageError::Internal(format!("block {} row {r}", self.id))),
                None => self.inner.gather(columns, indices, out),
            }
        }
        fn scan_column_chunks(
            &self,
            columns: &[usize],
            visit: &mut dyn FnMut(&[&[f64]]),
        ) -> Result<(), StorageError> {
            self.inner.scan_column_chunks(columns, visit)
        }
    }

    /// The first error of `n` single draws from `seed`: what the
    /// per-draw path raises.
    fn per_draw_error(view: &PooledFilteredColumn, n: usize, seed: u64) -> StorageError {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .find_map(|_| view.sample_one(&mut rng).err())
            .expect("some draw fails")
    }

    #[test]
    fn a_failing_batch_raises_the_error_of_its_first_failing_draw() {
        // Two lost blocks, armed after the selection compiled (an armed
        // block fails the build itself): the batch fails, and the error
        // is the first failing draw's.
        let filter = key_gt(300.0);
        let armed_view = || {
            let set = RowsBlock::split(keyed_rows(3_000), 4);
            let mut view = PooledFilteredColumn::build(&set, 1, filter.clone());
            for b in [1, 3] {
                let lost = Arc::new(crate::fault::FaultyBlock::new(
                    Arc::clone(&view.blocks[b]),
                    crate::fault::BlockFault::Lost,
                    None,
                )) as Arc<dyn DataBlock>;
                view.columns[b] = project_block(&lost, 1);
                view.blocks[b] = lost;
            }
            view
        };
        let view = armed_view();
        let mut rng = StdRng::seed_from_u64(9);
        let (mut picks, mut out) = (vec![0; 500], vec![0.0; 500]);
        let batch = view.draw(&mut rng, &[0], &mut picks, &mut out).unwrap_err();
        assert!(matches!(batch, StorageError::BlockLost { .. }), "{batch}");
        let first = per_draw_error(&armed_view(), 500, 9);
        assert_eq!(batch.to_string(), first.to_string());

        // Rows that fail one by one: the ascending batch gather meets
        // the lowest failing row drawn, the per-draw path the first
        // failing row in draw order — re-resolution must report the
        // latter.
        let cols = keyed_rows(3_000);
        let blocks: Vec<Arc<dyn DataBlock>> = RowsBlock::split(cols, 3)
            .iter()
            .enumerate()
            .map(|(id, b)| {
                let rows = (0..b.width()).map(|c| {
                    let mut col = Vec::new();
                    b.scan_column_chunks(&[c], &mut |chunk| col.extend_from_slice(chunk[0]))
                        .unwrap();
                    col
                });
                Arc::new(FailingRows {
                    id,
                    inner: RowsBlock::new(rows.collect()),
                    bad: vec![5, 500, 900],
                }) as Arc<dyn DataBlock>
            })
            .collect();
        let view = PooledFilteredColumn::build(&BlockSet::new(blocks), 1, filter);
        assert!(view.match_count().is_some(), "the selection compiles");
        let mut rng = StdRng::seed_from_u64(11);
        let (mut picks, mut out) = (vec![0; 3_000], vec![0.0; 3_000]);
        let batch = view.draw(&mut rng, &[0], &mut picks, &mut out).unwrap_err();
        let first = per_draw_error(&view, 3_000, 11);
        assert_eq!(batch.to_string(), first.to_string());
        // The case is discriminating: some block's lowest failing row
        // is not its first failing row in draw order.
        let sel = view.selection.as_ref().unwrap();
        let located: Vec<(usize, u64)> = picks.iter().map(|&k| sel.locate(k)).collect();
        let failing = |&&(_, r): &&(usize, u64)| [5, 500, 900].contains(&r);
        let in_draw_order = located.iter().find(failing).unwrap();
        let lowest = located.iter().filter(failing).min().unwrap();
        assert_ne!(in_draw_order, lowest);
    }
}
