//! Batched sampling and scan kernels: the buffers and helpers behind
//! [`DataBlock::sample_batch`], [`DataBlock::sample_rows_batch`] and
//! [`DataBlock::scan_chunks`].
//!
//! The engine's hot loops used to move one value at a time through
//! `dyn`-dispatched calls; the batch kernels amortize that dispatch over
//! thousands of rows per call. A batch draws all of its indices first,
//! then gathers the values — directly (memory-level parallelism) for
//! in-memory storage, or through a *sorted gather* for positional and
//! file-backed readers, where ascending index order means sequential
//! I/O. Values are always delivered in **draw order**, so a batched
//! draw produces the bit-identical value sequence, and consumes the
//! bit-identical RNG stream, as the scalar path it replaces.
//!
//! Row batches carry a **projection**: a consumer that reads only some
//! columns names them on the buffer ([`RowSampleBuf::project`]) and
//! gets compact tuples of exactly those — columnar storage then gathers
//! only the named columns, and anything that only knows whole rows has
//! them compacted by the buffer. Full width is the identity projection
//! of the same loop, and the index draws never see the column list, so
//! projecting changes what a draw costs and nothing else.
//!
//! The buffers ([`SampleBuf`], [`RowSampleBuf`]) are designed to be
//! reused: the engine keeps one per thread (see [`with_sample_buf`] /
//! [`with_row_sample_buf`]) so steady-state sampling performs no
//! allocation at all — gathers read a columnar block's columns in
//! place, and a consumer's per-destination staging lanes
//! ([`RowSampleBuf::rows_and_lanes`]) live in the buffer too.

use std::cell::RefCell;
use std::sync::Arc;

use rand::Rng;
use rand::RngCore;

use crate::block::DataBlock;
use crate::error::StorageError;

/// Preferred number of value draws per [`DataBlock::sample_batch`] call
/// on the engine's hot path. Large enough to amortize dispatch and make
/// the sorted gather worthwhile, small enough that a batch's buffers
/// (index + order + value ≈ 20 B/row) stay L2-resident.
pub const SAMPLE_BATCH_ROWS: u64 = 8_192;

/// Chunk size handed to [`DataBlock::scan_chunks`] visitors by the
/// default (buffering) implementation — in-memory blocks ignore this
/// and hand out their natural contiguous slices — and the upper bound on
/// a [`DataBlock::scan_column_chunks`] chunk from any block, which is
/// what keeps a consumer's per-chunk index list cache-resident.
pub const SCAN_CHUNK_ROWS: usize = 16_384;

// Where the *sorted* gather applies: measured on in-memory slices,
// out-of-order execution overlaps the independent random loads of a
// batch so well that a comparison sort never pays for itself, at any
// block size — so slice gathers run in draw order and lean on
// memory-level parallelism. Positional readers are different: a
// file-backed block turns ascending index order into (near-)sequential
// reads and page-cache locality, which is worth far more than the sort
// costs. Hence two gather flavors below: direct (slices) and sorted
// (positional/file readers).

/// Reusable state for one batched value draw: the drawn indices (in RNG
/// draw order), a sort permutation for cache-friendly gathering, and
/// the gathered values (back in draw order).
#[derive(Debug, Default)]
pub struct SampleBuf {
    indices: Vec<u64>,
    order: Vec<u32>,
    values: Vec<f64>,
}

impl SampleBuf {
    /// An empty buffer; it grows to the first batch's size and is
    /// reused thereafter.
    pub fn new() -> Self {
        Self::default()
    }

    /// The gathered values of the last batch, in **draw order** — the
    /// exact sequence the scalar path would have produced.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Overwrites every gathered value with NaN — the batched arm of
    /// [`crate::fault::FaultyBlock`]'s corruption injection.
    pub fn corrupt_values(&mut self) {
        self.values.iter_mut().for_each(|v| *v = f64::NAN);
    }

    /// Draws `n` uniform indices in `0..len` from `rng`, one
    /// `random_range` call per draw — the identical RNG consumption of
    /// `n` scalar [`DataBlock::sample_one`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` (callers check emptiness first) or if `n`
    /// exceeds `u32::MAX` (batches are chunked far below that).
    pub fn draw_indices(&mut self, n: u64, len: u64, rng: &mut dyn RngCore) {
        assert!(len > 0, "cannot draw indices from an empty block");
        assert!(u32::try_from(n).is_ok(), "batch too large for one draw");
        self.indices.clear();
        self.indices.reserve(n as usize);
        for _ in 0..n {
            self.indices.push(rng.random_range(0..len));
        }
    }

    /// The drawn indices of the last batch, in draw order.
    pub fn indices(&self) -> &[u64] {
        &self.indices
    }

    /// Sorted-order permutation of the drawn indices: visiting
    /// `indices()[order[k]]` for ascending `k` touches the block in
    /// ascending position order.
    fn gather_order(&mut self) -> &[u32] {
        self.order.clear();
        self.order.extend(0..self.indices.len() as u32);
        let indices = &self.indices;
        self.order.sort_unstable_by_key(|&j| indices[j as usize]);
        &self.order
    }

    /// Gathers the drawn indices from a contiguous in-memory slice, in
    /// draw order — independent loads pipeline through the core's
    /// memory-level parallelism, which measures faster than any sorted
    /// access pattern for RAM-resident data.
    pub fn gather_from_slice(&mut self, data: &[f64]) {
        let n = self.indices.len();
        self.values.clear();
        self.values.resize(n, 0.0);
        for (slot, &idx) in self.values.iter_mut().zip(&self.indices) {
            *slot = data[idx as usize];
        }
    }

    /// Gathers the drawn indices through an arbitrary positional
    /// reader, in draw order. For file-backed readers prefer
    /// [`SampleBuf::gather_with_sorted`].
    ///
    /// # Errors
    ///
    /// Propagates the first reader error.
    pub fn gather_with(
        &mut self,
        mut read: impl FnMut(u64) -> Result<f64, StorageError>,
    ) -> Result<(), StorageError> {
        let n = self.indices.len();
        self.values.clear();
        self.values.resize(n, 0.0);
        for k in 0..n {
            self.values[k] = read(self.indices[k])?;
        }
        Ok(())
    }

    /// Gathers the drawn indices through a positional reader in
    /// **ascending index order** (values still land in draw order) —
    /// the right shape for file-backed blocks, where sorted access
    /// means sequential reads and page-cache locality.
    ///
    /// # Errors
    ///
    /// Propagates the first reader error.
    pub fn gather_with_sorted(
        &mut self,
        mut read: impl FnMut(u64) -> Result<f64, StorageError>,
    ) -> Result<(), StorageError> {
        let n = self.indices.len();
        self.values.clear();
        self.values.resize(n, 0.0);
        self.gather_order();
        for k in 0..n {
            let j = self.order[k] as usize;
            self.values[j] = read(self.indices[j])?;
        }
        Ok(())
    }

    /// Prepares the buffer for `n` values pushed one at a time — the
    /// scalar fallback used by the default [`DataBlock::sample_batch`].
    pub fn begin_scalar(&mut self, n: usize) {
        self.indices.clear();
        self.order.clear();
        self.values.clear();
        self.values.reserve(n);
    }

    /// Appends one scalar-drawn value (fallback path).
    pub fn push_value(&mut self, v: f64) {
        self.values.push(v);
    }
}

/// Copies `columns` of a full-width source `row` into `out` — the one
/// compaction step behind every projected delivery that starts from
/// whole rows (scalar fallbacks, positional tuple readers, the default
/// [`DataBlock::scan_rows_projected`]). Column-aware blocks skip it by
/// never touching the unread columns in the first place; either way the
/// consumer sees the same tuple, bit for bit.
pub(crate) fn compact(columns: &[usize], row: &[f64], out: &mut [f64]) {
    for (slot, &c) in out.iter_mut().zip(columns) {
        *slot = row[c];
    }
}

/// Reusable state for one batched *row tuple* draw: as [`SampleBuf`],
/// with the gathered rows stored row-major (`width` values per row, in
/// draw order).
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
    order: Vec<u32>,
    rows: Vec<f64>,
    // Source columns delivered per row: the caller's projection when
    // one is set, otherwise `0..source_width` (rebuilt per batch, since
    // the identity depends on the block being drawn from).
    columns: Vec<usize>,
    projected: bool,
    // Tuple width of the block the last batch drew from.
    source_width: usize,
    scratch: Vec<f64>,
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

    /// Overwrites every gathered row value with NaN — the batched arm
    /// of [`crate::fault::FaultyBlock`]'s corruption injection.
    pub fn corrupt_values(&mut self) {
        self.rows.iter_mut().for_each(|v| *v = f64::NAN);
    }

    /// Iterates the gathered rows as `width`-sized tuples, in draw
    /// order.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.rows.chunks_exact(self.width().max(1))
    }

    /// The gathered rows (as [`RowSampleBuf::iter_rows`]) together with
    /// `lanes` empty value lanes that live in this buffer — for
    /// consumers that stage a batch's values per destination before
    /// folding each destination's slice. The lanes keep their capacity
    /// across batches and calls, so steady-state staging allocates
    /// nothing.
    pub fn rows_and_lanes(
        &mut self,
        lanes: usize,
    ) -> (impl Iterator<Item = &[f64]>, &mut [Vec<f64>]) {
        if self.lanes.len() < lanes {
            self.lanes.resize_with(lanes, Vec::new);
        }
        let staged = &mut self.lanes[..lanes];
        staged.iter_mut().for_each(Vec::clear);
        (self.rows.chunks_exact(self.columns.len().max(1)), staged)
    }

    /// Starts a batch over `source_width`-wide rows: resolves the
    /// identity projection, or checks the caller's against the block.
    fn begin(&mut self, source_width: usize) {
        self.source_width = source_width;
        if self.projected {
            assert!(
                self.columns.iter().all(|&c| c < source_width),
                "projected column out of the block's width"
            );
        } else {
            self.columns.clear();
            self.columns.extend(0..source_width);
        }
    }

    /// Draws `n` uniform row indices in `0..len`, one `random_range`
    /// call per draw — the identical RNG consumption of `n` scalar
    /// [`DataBlock::sample_row`] calls. `width` is the block's full
    /// tuple width, whatever projection is in effect.
    ///
    /// # Panics
    ///
    /// As [`SampleBuf::draw_indices`]; also if a projected column is out
    /// of `width`.
    pub fn draw_indices(&mut self, n: u64, len: u64, width: usize, rng: &mut dyn RngCore) {
        assert!(len > 0, "cannot draw indices from an empty block");
        assert!(u32::try_from(n).is_ok(), "batch too large for one draw");
        self.begin(width);
        self.indices.clear();
        self.indices.reserve(n as usize);
        for _ in 0..n {
            self.indices.push(rng.random_range(0..len));
        }
        self.rows.clear();
        self.rows.resize(n as usize * self.columns.len(), 0.0);
    }

    /// Sorted-order permutation (see [`SampleBuf`]).
    fn gather_order(&mut self) {
        self.order.clear();
        self.order.extend(0..self.indices.len() as u32);
        let indices = &self.indices;
        self.order.sort_unstable_by_key(|&j| indices[j as usize]);
    }

    /// Gathers the drawn indices from in-memory columnar storage,
    /// column-at-a-time in draw order (memory-level parallelism, as
    /// [`SampleBuf::gather_from_slice`]), values scattered to their
    /// draw rows. Only the projected columns are read: a column the
    /// consumer does not look at costs no load at all.
    ///
    /// `columns` is the block's full column list, borrowed in place
    /// (`&[Arc<Vec<f64>>]`, `&[&[f64]]`, …) — no per-batch collection.
    ///
    /// # Panics
    ///
    /// Panics if `columns.len()` disagrees with the drawn width.
    pub fn gather_from_columns<C>(&mut self, columns: &[C])
    where
        C: std::ops::Deref,
        C::Target: AsRef<[f64]>,
    {
        assert_eq!(
            columns.len(),
            self.source_width,
            "column count must match width"
        );
        let w = self.columns.len();
        for (k, &c) in self.columns.iter().enumerate() {
            let col: &[f64] = (*columns[c]).as_ref();
            for (j, &idx) in self.indices.iter().enumerate() {
                self.rows[j * w + k] = col[idx as usize];
            }
        }
    }

    /// Gathers the drawn indices through a positional tuple reader in
    /// **ascending index order** (rows still land in draw order) — for
    /// zipped and file-backed blocks, where sorted positional reads
    /// mean sequential I/O. The reader fills whole rows; the projected
    /// columns are compacted out of each.
    ///
    /// # Errors
    ///
    /// Propagates the first reader error.
    pub fn gather_with_sorted(
        &mut self,
        mut read: impl FnMut(u64, &mut Vec<f64>) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        self.gather_order();
        let w = self.columns.len();
        let mut row = std::mem::take(&mut self.scratch);
        let mut result = Ok(());
        for k in 0..self.order.len() {
            let j = self.order[k] as usize;
            if let Err(e) = read(self.indices[j], &mut row) {
                result = Err(e);
                break;
            }
            compact(&self.columns, &row, &mut self.rows[j * w..(j + 1) * w]);
        }
        self.scratch = row;
        result
    }

    /// Prepares the buffer for `n` rows pushed one at a time — the
    /// scalar fallback used by the default
    /// [`DataBlock::sample_rows_batch`]. `width` is the block's full
    /// tuple width.
    pub fn begin_scalar(&mut self, n: usize, width: usize) {
        self.begin(width);
        self.indices.clear();
        self.order.clear();
        self.rows.clear();
        self.rows.reserve(n * self.columns.len());
    }

    /// Appends one scalar-drawn full-width row (fallback path),
    /// keeping its projected columns.
    ///
    /// # Panics
    ///
    /// Panics if the row width disagrees with the batch width.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.source_width,
            "row width must match batch width"
        );
        let at = self.rows.len();
        self.rows.resize(at + self.columns.len(), 0.0);
        compact(&self.columns, row, &mut self.rows[at..]);
    }

    /// Takes the internal scratch row (for scalar fallbacks that need a
    /// temporary tuple without allocating); return it with
    /// [`RowSampleBuf::put_scratch`].
    pub fn take_scratch(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.scratch)
    }

    /// Returns a scratch row taken with [`RowSampleBuf::take_scratch`].
    pub fn put_scratch(&mut self, row: Vec<f64>) {
        self.scratch = row;
    }
}

thread_local! {
    static SAMPLE_BUF: RefCell<SampleBuf> = RefCell::new(SampleBuf::new());
    static ROW_SAMPLE_BUF: RefCell<RowSampleBuf> = RefCell::new(RowSampleBuf::new());
}

/// Runs `f` with this thread's reusable [`SampleBuf`]. The buffer is
/// *taken* out of its slot for the duration, so re-entrant use (a view
/// sampling through another view) falls back to a fresh buffer instead
/// of panicking.
pub fn with_sample_buf<R>(f: impl FnOnce(&mut SampleBuf) -> R) -> R {
    let mut buf = SAMPLE_BUF.with_borrow_mut(std::mem::take);
    let out = f(&mut buf);
    SAMPLE_BUF.with_borrow_mut(|slot| {
        if buf.values.capacity() > slot.values.capacity() {
            *slot = buf;
        }
    });
    out
}

/// Runs `f` with this thread's reusable [`RowSampleBuf`] (take-based,
/// as [`with_sample_buf`]). The buffer arrives with no projection set:
/// a previous user's column list never leaks into the next draw.
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

/// A forwarding wrapper that deliberately hides a block's batch-kernel
/// overrides, so every batched entry point falls back to the scalar
/// (`sample_one` / `sample_row` / `scan`) path.
///
/// Two uses: asserting that the batch kernels are bit-identical to the
/// scalar path they replace (the kernel-identity tests), and measuring
/// the scalar path in `exp_kernel_throughput` after the engine itself
/// went batched.
pub struct ScalarFallbackBlock(pub Arc<dyn DataBlock>);

impl DataBlock for ScalarFallbackBlock {
    fn len(&self) -> u64 {
        self.0.len()
    }
    fn width(&self) -> usize {
        self.0.width()
    }
    fn sample_one(&self, rng: &mut dyn RngCore) -> Result<f64, StorageError> {
        self.0.sample_one(rng)
    }
    fn row_at(&self, idx: u64) -> Result<f64, StorageError> {
        self.0.row_at(idx)
    }
    fn scan(&self, visit: &mut dyn FnMut(f64)) -> Result<(), StorageError> {
        self.0.scan(visit)
    }
    fn sample_row(&self, rng: &mut dyn RngCore, out: &mut Vec<f64>) -> Result<(), StorageError> {
        self.0.sample_row(rng, out)
    }
    fn row_tuple(&self, idx: u64, out: &mut Vec<f64>) -> Result<(), StorageError> {
        self.0.row_tuple(idx, out)
    }
    fn scan_rows(&self, visit: &mut dyn FnMut(&[f64])) -> Result<(), StorageError> {
        self.0.scan_rows(visit)
    }
    fn supports_scan(&self) -> bool {
        self.0.supports_scan()
    }
    // `sample_batch`, `sample_rows_batch`, `scan_chunks`,
    // `scan_rows_projected`, `scan_column_chunks` and `sketch` are NOT
    // forwarded: the batched, projected and columnar entry points fall
    // back to the scalar / full-width / transposing defaults, and the
    // wrapped set stays sketch-less so
    // consumers exercise their metadata-free paths (the throughput
    // bench leans on this to measure the pre-sketch SLEV scan).
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
    use crate::memory::MemBlock;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn draw_indices_consumes_the_scalar_stream() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        let mut buf = SampleBuf::new();
        buf.draw_indices(100, 1_000_000, &mut a);
        let scalar: Vec<u64> = (0..100).map(|_| b.random_range(0..1_000_000u64)).collect();
        assert_eq!(buf.indices(), &scalar[..]);
        // Streams stay aligned after the batch.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn gather_preserves_draw_order() {
        let data: Vec<f64> = (0..1000).map(f64::from).collect();
        let mut rng = StdRng::seed_from_u64(2);
        let mut buf = SampleBuf::new();
        buf.draw_indices(64, data.len() as u64, &mut rng);
        let expected: Vec<f64> = buf.indices().iter().map(|&i| data[i as usize]).collect();
        buf.gather_from_slice(&data);
        assert_eq!(buf.values(), &expected[..]);
    }

    #[test]
    fn gather_with_reader_matches_slice_gather() {
        let data: Vec<f64> = (0..500).map(|i| f64::from(i) * 0.5).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let mut a = SampleBuf::new();
        a.draw_indices(200, data.len() as u64, &mut rng);
        let mut b = SampleBuf::new();
        let mut rng = StdRng::seed_from_u64(3);
        b.draw_indices(200, data.len() as u64, &mut rng);
        a.gather_from_slice(&data);
        b.gather_with(|i| Ok(data[i as usize])).unwrap();
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn row_buf_gathers_aligned_tuples() {
        let x: Vec<f64> = (0..300).map(f64::from).collect();
        let y: Vec<f64> = (0..300).map(|i| f64::from(i) * 2.0).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let mut buf = RowSampleBuf::new();
        buf.draw_indices(50, 300, 2, &mut rng);
        buf.gather_from_columns(&[&x, &y]);
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
        let inner: Arc<dyn DataBlock> = Arc::new(MemBlock::new(vec![1.0, 2.0, 3.0]));
        let wrapped = ScalarFallbackBlock(Arc::clone(&inner));
        assert_eq!(wrapped.len(), 3);
        assert!(
            wrapped.sketch().is_none(),
            "fallback wrappers hide the sketch hook"
        );
        // Batched draws agree with the native block under the same seed
        // (the defaults fall back to the same scalar stream).
        let mut buf = SampleBuf::new();
        let mut rng = StdRng::seed_from_u64(5);
        wrapped.sample_batch(10, &mut rng, &mut buf).unwrap();
        let scalar = buf.values().to_vec();
        let mut rng = StdRng::seed_from_u64(5);
        inner.sample_batch(10, &mut rng, &mut buf).unwrap();
        assert_eq!(scalar, buf.values());
    }

    #[test]
    fn thread_local_buffers_survive_reentrancy() {
        let v = with_sample_buf(|outer| {
            outer.begin_scalar(1);
            outer.push_value(7.0);
            with_sample_buf(|inner| {
                inner.begin_scalar(1);
                inner.push_value(8.0);
                inner.values()[0]
            }) + outer.values()[0]
        });
        assert_eq!(v, 15.0);
    }
}
