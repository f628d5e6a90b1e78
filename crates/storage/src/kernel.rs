//! Batched sampling and scan kernels: the reusable buffer behind
//! [`crate::BlockReads::sample_rows_batch`], and the one gather loop and
//! one scan loop per storage shape that the block kinds implement
//! [`DataBlock`] with.
//!
//! A batch draws all of its indices first, then gathers the values —
//! directly (memory-level parallelism) for in-memory storage, in
//! **ascending index order** for file-backed readers, where sorted
//! access means sequential I/O. Values are always delivered in **draw
//! order**, so a batched draw produces the bit-identical value sequence,
//! and consumes the bit-identical RNG stream, as single draws.
//!
//! Batches carry a **projection**: a consumer that reads only some
//! columns names them on the buffer ([`RowSampleBuf::project`]) and
//! gets compact tuples of exactly those — the gather then reads only
//! the named columns. Full width is the identity projection of the same
//! loop, and the index draws never see the column list, so projecting
//! changes what a draw costs and nothing else. A scalar draw is the
//! projection to `[0]`: one value per row, contiguous in the buffer.
//!
//! The buffer ([`RowSampleBuf`]) is designed to be reused: the engine
//! keeps one per thread (see [`with_row_sample_buf`]) so steady-state
//! sampling performs no allocation at all — and a consumer's selection
//! of a batch and its per-destination staging lanes
//! ([`RowSampleBuf::select`]) live in the buffer too.

use std::cell::RefCell;
use std::sync::Arc;

use rand::RngCore;

use crate::block::DataBlock;
use crate::error::StorageError;
use crate::filter::RowFilter;
use crate::memory::ColumnWindow;

/// Preferred number of row draws per
/// [`crate::BlockReads::sample_rows_batch`] call on the engine's hot
/// path. Large enough to amortize dispatch and make the sorted gather
/// worthwhile, small enough that a batch's buffers stay L2-resident.
pub const SAMPLE_BATCH_ROWS: u64 = 8_192;

/// The upper bound on a [`DataBlock::scan_column_chunks`] chunk from any
/// block, which is what keeps a consumer's per-chunk index list
/// cache-resident.
pub const SCAN_CHUNK_ROWS: usize = 16_384;

/// Reusable state for one batched row tuple draw: the drawn indices and
/// the gathered rows, stored row-major (`width` values per row), both
/// in **draw order** — the exact sequence single draws would have
/// produced.
///
/// **Projection.** A consumer that reads only some columns of each row
/// names them once with [`RowSampleBuf::project`]; every batch then
/// delivers the compact tuple of exactly those columns, in the order
/// given. With none named the buffer delivers every column of
/// the block — the *identity* projection of the same gather loop, not a
/// second code path. The projection never touches the index draws, so a
/// projected batch consumes the bit-identical RNG stream and delivers
/// the bit-identical values (of the columns it keeps) as a full-width
/// one.
#[derive(Debug, Default)]
pub struct RowSampleBuf {
    indices: Vec<u64>,
    rows: Vec<f64>,
    // Source columns delivered per row: the caller's projection when
    // one is set, otherwise `0..width` (rebuilt per batch, since the
    // identity depends on the block being drawn from).
    columns: Vec<usize>,
    projected: bool,
    selected: Vec<u32>,
    lanes: Vec<Vec<f64>>,
}

impl RowSampleBuf {
    /// An empty buffer; it grows to the first batch's size and is
    /// reused thereafter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets which columns of the source rows every following batch
    /// delivers: `Some(columns)` restricts each tuple to those
    /// positional indices, in the order given; `None` returns to every
    /// column of the block.
    pub fn project(&mut self, columns: Option<&[usize]>) {
        self.columns.clear();
        self.columns.extend_from_slice(columns.unwrap_or_default());
        self.projected = columns.is_some();
    }

    /// The tuple width of the last batch: the projection's length, or
    /// the block's width when no projection is set.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// The gathered rows of the last batch, row-major in draw order.
    pub fn rows(&self) -> &[f64] {
        &self.rows
    }

    /// Iterates the gathered rows as `width`-sized tuples, in draw
    /// order.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.rows.chunks_exact(self.width().max(1))
    }

    /// Selects the rows of the last batch that match `filter` — whose
    /// column indices are positions in this buffer's tuples — and
    /// returns the batch's rows (row-major, as [`RowSampleBuf::rows`]),
    /// the indices of the matching tuples in draw order, and `lanes`
    /// empty value lanes for a consumer that stages the matches per
    /// destination before folding each destination's slice.
    ///
    /// The selection is [`RowFilter::select`]'s branch-free conjunct
    /// passes over the row-major tuples: the same rows
    /// [`RowFilter::matches`] accepts, found without a branch per row.
    /// The index list and the lanes keep their capacity across batches
    /// and calls, so steady-state selection allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if a conjunct's column is not below [`RowSampleBuf::width`].
    pub fn select(
        &mut self,
        filter: &RowFilter,
        lanes: usize,
    ) -> (&[f64], &[u32], &mut [Vec<f64>]) {
        filter.select_tuples(&self.rows, self.columns.len(), &mut self.selected);
        if self.lanes.len() < lanes {
            self.lanes.resize_with(lanes, Vec::new);
        }
        let staged = &mut self.lanes[..lanes];
        staged.iter_mut().for_each(Vec::clear);
        (&self.rows, &self.selected, staged)
    }

    /// Drops the rows of the last batch that hold a non-finite value,
    /// keeping the others (and their indices) in draw order.
    pub(crate) fn retain_finite_rows(&mut self) {
        let width = self.columns.len();
        if width == 0 {
            return;
        }
        let mut kept = 0;
        for i in 0..self.indices.len() {
            let row = i * width..(i + 1) * width;
            let finite = self.rows[row.clone()].iter().all(|v| v.is_finite());
            self.rows.copy_within(row, kept * width);
            self.indices[kept] = self.indices[i];
            kept += usize::from(finite);
        }
        self.indices.truncate(kept);
        self.rows.truncate(kept * width);
    }

    /// The column list, index slots and row slots of an `n`-draw batch
    /// from a `width`-wide block: the identity projection resolved, or
    /// the caller's checked against the block.
    pub(crate) fn slots(&mut self, n: u64, width: usize) -> (&[usize], &mut [u64], &mut [f64]) {
        if self.projected {
            assert!(
                self.columns.iter().all(|&c| c < width),
                "projected column out of the block's width"
            );
        } else {
            self.columns.clear();
            self.columns.extend(0..width);
        }
        self.indices.resize(n as usize, 0);
        self.rows.resize(n as usize * self.columns.len(), 0.0);
        (&self.columns, &mut self.indices, &mut self.rows)
    }
}

thread_local! {
    static ROW_SAMPLE_BUF: RefCell<RowSampleBuf> = RefCell::new(RowSampleBuf::new());
}

/// Runs `f` with this thread's reusable [`RowSampleBuf`]. The buffer is
/// *taken* out of its slot for the duration, so re-entrant use (a view
/// sampling through another view) falls back to a fresh buffer instead
/// of panicking. The buffer arrives with no projection set: a previous
/// user's column list never leaks into the next draw.
pub fn with_row_sample_buf<R>(f: impl FnOnce(&mut RowSampleBuf) -> R) -> R {
    let mut buf = ROW_SAMPLE_BUF.with_borrow_mut(std::mem::take);
    buf.project(None);
    let out = f(&mut buf);
    ROW_SAMPLE_BUF.with_borrow_mut(|slot| {
        if buf.rows.capacity() > slot.rows.capacity() {
            *slot = buf;
        }
    });
    out
}

/// The in-memory gather: `columns` of `storage` (the block's column
/// windows, each resolved to a slice once per call), column-at-a-time in
/// index order — independent loads pipeline through the core's
/// memory-level parallelism, which measures faster than any sorted
/// access pattern for RAM-resident data.
#[inline]
pub(crate) fn gather_slices(
    storage: &[ColumnWindow],
    columns: &[usize],
    indices: &[u64],
    out: &mut [f64],
) -> Result<(), StorageError> {
    // An index out of range clears a flag instead of leaving the loop:
    // an early exit (or a bounds pre-pass) measured 2× this loop.
    let mut in_range = true;
    let mut read = |col: &[f64], idx: u64| match col.get(idx as usize) {
        Some(&v) => v,
        None => {
            in_range = false;
            0.0
        }
    };
    if let [c] = columns {
        // One column — every scalar draw: the destination is contiguous.
        let col = storage[*c].as_slice();
        for (slot, &idx) in out.iter_mut().zip(indices) {
            *slot = read(col, idx);
        }
    } else {
        let w = columns.len();
        for (k, &c) in columns.iter().enumerate() {
            let col = storage[c].as_slice();
            for (j, &idx) in indices.iter().enumerate() {
                out[j * w + k] = read(col, idx);
            }
        }
    }
    if in_range {
        Ok(())
    } else {
        Err(StorageError::Empty)
    }
}

/// The in-memory scan: `columns` of `storage` as slices of the column
/// buffers themselves — no value is copied.
pub(crate) fn scan_slices(
    storage: &[ColumnWindow],
    rows: usize,
    columns: &[usize],
    visit: &mut dyn FnMut(&[&[f64]]),
) -> Result<(), StorageError> {
    let cols: Vec<&[f64]> = columns.iter().map(|&c| storage[c].as_slice()).collect();
    let mut chunk: Vec<&[f64]> = Vec::with_capacity(cols.len());
    for start in (0..rows).step_by(SCAN_CHUNK_ROWS) {
        let end = (start + SCAN_CHUNK_ROWS).min(rows);
        chunk.clear();
        chunk.extend(cols.iter().map(|col| &col[start..end]));
        visit(&chunk);
    }
    Ok(())
}

/// Checks that every requested column of a width-1 block is column 0.
pub(crate) fn assert_width_one(columns: &[usize]) {
    assert!(
        columns.iter().all(|&c| c == 0),
        "column out of a width-1 block's width"
    );
}

/// The positional-reader gather of a width-1 block of `len` rows: rows
/// read through `read` in **ascending index order** (sequential I/O for
/// file-backed blocks), values landing in their draw-order slots.
pub(crate) fn gather_ascending(
    len: u64,
    columns: &[usize],
    indices: &[u64],
    out: &mut [f64],
    mut read: impl FnMut(u64) -> Result<f64, StorageError>,
) -> Result<(), StorageError> {
    assert_width_one(columns);
    let w = columns.len();
    let mut order: Vec<usize> = (0..indices.len()).collect();
    order.sort_unstable_by_key(|&j| indices[j]);
    for j in order {
        if indices[j] >= len {
            return Err(StorageError::Empty);
        }
        out[j * w..(j + 1) * w].fill(read(indices[j])?);
    }
    Ok(())
}

/// A width-1 value stream buffered into [`SCAN_CHUNK_ROWS`]-row column
/// chunks — the scan of every block whose values arrive one at a time
/// (files, generators, filtered pools). Every requested column is the
/// one lane.
pub(crate) struct ChunkedLane<'a> {
    columns: usize,
    lane: Vec<f64>,
    visit: &'a mut dyn FnMut(&[&[f64]]),
}

impl<'a> ChunkedLane<'a> {
    /// A lane delivering `columns` (all column 0) to `visit`.
    pub(crate) fn new(columns: &[usize], visit: &'a mut dyn FnMut(&[&[f64]])) -> Self {
        assert_width_one(columns);
        Self {
            columns: columns.len(),
            lane: Vec::with_capacity(SCAN_CHUNK_ROWS),
            visit,
        }
    }

    /// Appends one value, delivering the chunk when it is full.
    pub(crate) fn push(&mut self, value: f64) {
        self.lane.push(value);
        if self.lane.len() == SCAN_CHUNK_ROWS {
            self.flush();
        }
    }

    /// Delivers what is buffered, if anything — the end of the scan.
    pub(crate) fn flush(&mut self) {
        if !self.lane.is_empty() {
            (self.visit)(&vec![self.lane.as_slice(); self.columns]);
            self.lane.clear();
        }
    }
}

/// A forwarding wrapper that reads one row per call: `draw` and `gather`
/// forward to the wrapped block row by row, scans forward with the
/// chunks copied out of the wrapped block's storage, and the sketch is
/// hidden (so every zone verdict is `Mixed`).
///
/// Two uses: the reference the kernel-identity tests compare every
/// batched kernel against, and measuring the per-row path in
/// `exp_kernel_throughput`.
pub struct ScalarFallbackBlock(pub Arc<dyn DataBlock>);

impl DataBlock for ScalarFallbackBlock {
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
        let w = columns.len();
        for (j, idx) in indices.iter().enumerate() {
            self.0.gather(
                columns,
                std::slice::from_ref(idx),
                &mut out[j * w..(j + 1) * w],
            )?;
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
        if indices.is_empty() {
            // No row to forward one at a time: the wrapped block answers
            // the empty draw itself.
            return self.0.draw(rng, columns, indices, out);
        }
        let w = columns.len();
        for (j, slot) in indices.chunks_mut(1).enumerate() {
            self.0
                .draw(rng, columns, slot, &mut out[j * w..(j + 1) * w])?;
        }
        Ok(())
    }
    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        let mut lanes: Vec<Vec<f64>> = vec![Vec::new(); columns.len()];
        self.0.scan_column_chunks(columns, &mut |chunk| {
            for (lane, col) in lanes.iter_mut().zip(chunk) {
                lane.clear();
                lane.extend_from_slice(col);
            }
            visit(&lanes.iter().map(Vec::as_slice).collect::<Vec<_>>());
        })
    }
    fn supports_scan(&self) -> bool {
        self.0.supports_scan()
    }
}

/// Wraps every block of `set` in a [`ScalarFallbackBlock`], preserving
/// block structure.
pub fn scalar_fallback_set(set: &crate::blockset::BlockSet) -> crate::blockset::BlockSet {
    crate::blockset::BlockSet::new(
        set.iter()
            .map(|b| Arc::new(ScalarFallbackBlock(Arc::clone(b))) as Arc<dyn DataBlock>)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockReads;
    use crate::rows::RowsBlock;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A width-1 block whose row `i` holds `i`: its values are the drawn
    /// indices.
    fn positions(n: u32) -> RowsBlock {
        RowsBlock::new(vec![(0..n).map(f64::from).collect()])
    }

    /// A buffer projected to column 0 — the scalar draw.
    fn scalar_buf() -> RowSampleBuf {
        let mut buf = RowSampleBuf::new();
        buf.project(Some(&[0]));
        buf
    }

    #[test]
    fn draw_indices_consumes_the_scalar_stream() {
        let block = positions(1_000);
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        let mut buf = scalar_buf();
        block.sample_rows_batch(100, &mut a, &mut buf).unwrap();
        let scalar: Vec<f64> = (0..100)
            .map(|_| b.random_range(0..1_000u64) as f64)
            .collect();
        assert_eq!(buf.rows(), &scalar[..]);
        // Streams stay aligned after the batch.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn gather_preserves_draw_order() {
        // Column 1 is a function of the row index in column 0: every
        // gathered value sits in its own draw's slot.
        let data: Vec<f64> = (0..1000).map(|i| f64::from(i) * 0.5 + 3.0).collect();
        let block = RowsBlock::new(vec![(0..1000).map(f64::from).collect(), data.clone()]);
        let mut rng = StdRng::seed_from_u64(2);
        let mut buf = RowSampleBuf::new();
        buf.project(Some(&[1, 0]));
        block.sample_rows_batch(64, &mut rng, &mut buf).unwrap();
        assert_eq!(buf.iter_rows().count(), 64);
        for row in buf.iter_rows() {
            assert_eq!(row[0], data[row[1] as usize]);
        }
    }

    #[test]
    fn gather_with_reader_matches_slice_gather() {
        // The file reader's ascending gather delivers in draw order, as
        // the in-memory gather does.
        let data: Vec<f64> = (0..500).map(|i| f64::from(i) * 0.5).collect();
        let path = std::env::temp_dir().join(format!("isla-kernel-{}.blk", std::process::id()));
        let file = crate::BinaryBlock::create(&path, &data).unwrap();
        let indices: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(3);
            (0..200).map(|_| rng.random_range(0..500)).collect()
        };
        let (mut a, mut b) = (vec![0.0; 200], vec![0.0; 200]);
        RowsBlock::new(vec![data])
            .gather(&[0], &indices, &mut a)
            .unwrap();
        file.gather(&[0], &indices, &mut b).unwrap();
        assert_eq!(a, b);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn row_buf_gathers_aligned_tuples() {
        let x: Vec<f64> = (0..300).map(f64::from).collect();
        let y: Vec<f64> = (0..300).map(|i| f64::from(i) * 2.0).collect();
        let block = RowsBlock::new(vec![x, y]);
        let mut rng = StdRng::seed_from_u64(4);
        let mut buf = RowSampleBuf::new();
        block.sample_rows_batch(50, &mut rng, &mut buf).unwrap();
        assert_eq!(buf.width(), 2);
        let mut n = 0;
        for row in buf.iter_rows() {
            assert_eq!(row[1], row[0] * 2.0);
            n += 1;
        }
        assert_eq!(n, 50);
    }

    #[test]
    fn scalar_fallback_forwards_scalar_methods_only() {
        let inner: Arc<dyn DataBlock> = Arc::new(RowsBlock::new(vec![vec![1.0, 2.0, 3.0]]));
        let wrapped = ScalarFallbackBlock(Arc::clone(&inner));
        assert_eq!(wrapped.len(), 3);
        assert!(
            wrapped.sketch().is_none(),
            "fallback wrappers hide the sketch hook"
        );
        // Batched draws agree with the native block under the same seed
        // (the defaults fall back to the same scalar stream).
        let mut buf = scalar_buf();
        let mut rng = StdRng::seed_from_u64(5);
        wrapped.sample_rows_batch(10, &mut rng, &mut buf).unwrap();
        let scalar = buf.rows().to_vec();
        let mut rng = StdRng::seed_from_u64(5);
        inner.sample_rows_batch(10, &mut rng, &mut buf).unwrap();
        assert_eq!(scalar, buf.rows());
    }

    #[test]
    fn thread_local_buffers_survive_reentrancy() {
        let mut rng = StdRng::seed_from_u64(6);
        let v = with_row_sample_buf(|outer| {
            outer.project(Some(&[0]));
            RowsBlock::new(vec![vec![7.0]])
                .sample_rows_batch(1, &mut rng, outer)
                .unwrap();
            with_row_sample_buf(|inner| {
                assert_eq!(inner.width(), 0, "a fresh buffer, no projection");
                RowsBlock::new(vec![vec![8.0]])
                    .sample_rows_batch(1, &mut rng, inner)
                    .unwrap();
                inner.rows()[0]
            }) + outer.rows()[0]
        });
        assert_eq!(v, 15.0);
        // The slot keeps a buffer, and hands it out with no projection.
        with_row_sample_buf(|buf| assert_eq!(buf.width(), 0));
    }

    #[test]
    fn an_empty_block_refuses_even_a_zero_row_draw_on_every_kind() {
        use crate::fault::{BlockFault, FaultyBlock};
        use crate::rows::{pool_filtered_column, ColumnView, ZipBlock};
        use crate::{BlockSet, GeneratorBlock, RowFilter};
        let empty_column = || Arc::new(RowsBlock::new(vec![vec![]])) as Arc<dyn DataBlock>;
        let empty_rows = Arc::new(RowsBlock::new(vec![vec![], vec![]])) as Arc<dyn DataBlock>;
        let dist = Arc::new(isla_stats::distributions::Normal::new(0.0, 1.0));
        let pooled = pool_filtered_column(
            &BlockSet::new(vec![Arc::clone(&empty_rows)]),
            0,
            RowFilter::all(),
        );
        let kinds: Vec<(&str, Arc<dyn DataBlock>)> = vec![
            ("RowsBlock (width 1)", empty_column()),
            ("RowsBlock", Arc::clone(&empty_rows)),
            (
                "ZipBlock",
                Arc::new(ZipBlock::new(vec![empty_column(), empty_column()])),
            ),
            (
                "ColumnView",
                Arc::new(ColumnView::new(Arc::clone(&empty_rows), 1)),
            ),
            ("GeneratorBlock", Arc::new(GeneratorBlock::new(dist, 0, 1))),
            ("PooledFilteredColumn", Arc::clone(pooled.block(0))),
            (
                "FaultyBlock",
                Arc::new(FaultyBlock::new(empty_column(), BlockFault::None, None)),
            ),
            (
                "ScalarFallbackBlock",
                Arc::new(ScalarFallbackBlock(empty_column())),
            ),
        ];
        for (kind, block) in kinds {
            let mut rng = StdRng::seed_from_u64(7);
            for mut buf in [scalar_buf(), RowSampleBuf::new()] {
                assert!(
                    matches!(
                        block.sample_rows_batch(0, &mut rng, &mut buf),
                        Err(StorageError::Empty)
                    ),
                    "{kind}"
                );
            }
        }
    }
}
