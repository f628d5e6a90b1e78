//! The [`DataBlock`] contract — what every block kind provides — and
//! [`BlockReads`], every other read written once on top of it.

use std::ops::Deref;
use std::sync::Arc;

use rand::{Rng, RngCore};

use crate::error::StorageError;
use crate::filter::RowFilter;
use crate::kernel::RowSampleBuf;
use crate::selection::{sketch_zone, ZoneMatch};
use crate::sketch::BlockSketch;

/// A block of numeric data, the unit of distribution in the paper's system
/// model (Section II-C).
///
/// The paper asks two things of a block, and the contract is exactly
/// those two reads:
///
/// * **positional reads** ([`DataBlock::gather`]): the rows at given
///   indices, restricted to given columns. Uniform sampling with
///   replacement — the only access ISLA's hot path needs — is an index
///   draw plus a gather ([`DataBlock::draw`]), folded at once into
///   running moments;
/// * **scans** ([`DataBlock::scan_column_chunks`]): every row in storage
///   order as aligned column slices, for exact ground truths, sketches,
///   selection builds and full-scan fallbacks. Virtual blocks may refuse
///   to scan (see [`crate::GeneratorBlock`]).
///
/// Every other read — one value, one row, a batch, a row scan — is a
/// [`BlockReads`] adapter over these, which no kind can override.
///
/// Blocks are **row-model**: every row is a tuple of
/// [`DataBlock::width`] values, and every read names the columns it
/// wants (positional indices, delivered in the order given, repeats
/// allowed). Scalar blocks have width 1.
///
/// Implementations must be `Send + Sync`: the distributed executor samples
/// different blocks from different worker threads.
pub trait DataBlock: Send + Sync {
    /// Number of rows in the block. May be a declared (virtual) length.
    fn len(&self) -> u64;

    /// True if the block holds no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of columns in each row tuple (1 for scalar blocks).
    fn width(&self) -> usize {
        1
    }

    /// Reads rows `indices` × `columns` into `out`, row-major and in the
    /// order given: `out[j * columns.len() + k]` is column `columns[k]`
    /// of row `indices[j]`. The kind picks its access order — in-memory
    /// slices read in index order, files ascending — but never the
    /// delivery order. Virtual generator blocks synthesize a row
    /// deterministically from `(seed, idx)`, so repeated reads agree.
    ///
    /// # Errors
    ///
    /// [`StorageError::Empty`] when an index is `≥ len`; I/O or parse
    /// errors for file-backed blocks.
    ///
    /// # Panics
    ///
    /// When a column is out of the block's width, or `out` is shorter
    /// than `indices.len() * columns.len()`.
    fn gather(
        &self,
        columns: &[usize],
        indices: &[u64],
        out: &mut [f64],
    ) -> Result<(), StorageError>;

    /// Draws `indices.len()` rows uniformly at random (with replacement)
    /// into `out`, as [`DataBlock::gather`] lays them out.
    ///
    /// The default is **the** draw law, which every sampling consumer
    /// (and [`crate::skip_row_draws`]) relies on: [`StorageError::Empty`]
    /// on an empty block, whatever the count; otherwise one
    /// `random_range(0..len)` per slot of `indices`, in order, then one
    /// gather of those indices. A kind overrides it only where a draw is
    /// not "index draw + gather" (a distribution, a match space, a fault
    /// gate that must fail before the first draw); such a draw may leave
    /// `indices` unspecified.
    ///
    /// # Errors
    ///
    /// As [`DataBlock::gather`].
    fn draw(
        &self,
        rng: &mut dyn RngCore,
        columns: &[usize],
        indices: &mut [u64],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        let len = self.len();
        if len == 0 {
            return Err(StorageError::Empty);
        }
        for slot in indices.iter_mut() {
            *slot = rng.random_range(0..len);
        }
        self.gather(columns, indices, out)
    }

    /// Visits every row in storage order as **aligned column slices**:
    /// each call delivers one chunk of at most
    /// [`crate::SCAN_CHUNK_ROWS`] rows as one slice per entry of
    /// `columns` (in the order given), all of the chunk's length, so a
    /// consumer evaluates a predicate or folds a column at slice speed.
    /// An empty block delivers no chunk, and a block that fails before
    /// its first row fails before its first chunk.
    ///
    /// # Errors
    ///
    /// [`StorageError::ScanUnsupported`] for virtual blocks past their
    /// scan cap; I/O or parse errors for file-backed blocks.
    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError>;

    /// Whether [`DataBlock::scan_column_chunks`] is expected to succeed.
    fn supports_scan(&self) -> bool {
        true
    }

    /// This block's precomputed moment sketch, when one is available in
    /// O(1) — in-memory blocks compute it once at construction; lazy
    /// (file-backed or virtual) blocks return `None` and are sketched
    /// on demand through [`crate::sketch::scan_sketch`].
    ///
    /// Contract: the returned sketch must be **bit-identical** to
    /// [`crate::sketch::scan_sketch`] of the same block — both fold the
    /// same values in storage order through the same update law — so
    /// consumers may treat the two provenances interchangeably.
    fn sketch(&self) -> Option<Arc<BlockSketch>> {
        None
    }

    /// What this block's metadata decides about `filter` for a consumer
    /// that would otherwise draw rows and test them: the
    /// [`zone_match`](crate::zone_match) verdict of the O(1)
    /// [`DataBlock::sketch`] hook, and [`ZoneMatch::Mixed`] — read the
    /// rows — without one. A kind that holds its sketch may answer from
    /// it in place; the verdict must be the same.
    ///
    /// A decided verdict stands in for reads, so it must hold for every
    /// value a read could deliver. A block holding a non-finite value in
    /// any column therefore answers `Mixed` (a best-effort consumer drops
    /// such rows, which no bound predicts), and a block whose reads can
    /// fail or differ from what its sketch describes (see
    /// [`crate::FaultyBlock`]) must override this to answer `Mixed`. A
    /// caller that skips the reads of a decided block still owes the RNG
    /// the one index draw per row that [`DataBlock::draw`] consumes
    /// (see [`crate::skip_row_draws`]).
    fn zone(&self, filter: &RowFilter) -> ZoneMatch {
        sketch_zone(self.sketch().as_deref(), filter)
    }

    /// A zero-copy scalar block over column `col`, when this block can
    /// provide one more cheaply than a generic column view (e.g. a
    /// columnar block handing out its column storage, or a zip handing
    /// back the original scalar block). `None` falls back to a
    /// [`crate::ColumnView`].
    fn project(&self, _col: usize) -> Option<Arc<dyn DataBlock>> {
        None
    }
}

/// Every pointer to a block is a block: `&T`, `Box<T>`, `Arc<T>` and
/// their `dyn DataBlock` forms forward each method to the pointee, so an
/// override is never lost behind a pointer to a trait default.
impl<P: Deref + Send + Sync> DataBlock for P
where
    P::Target: DataBlock,
{
    fn len(&self) -> u64 {
        (**self).len()
    }
    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }
    fn width(&self) -> usize {
        (**self).width()
    }
    fn gather(
        &self,
        columns: &[usize],
        indices: &[u64],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        (**self).gather(columns, indices, out)
    }
    fn draw(
        &self,
        rng: &mut dyn RngCore,
        columns: &[usize],
        indices: &mut [u64],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        (**self).draw(rng, columns, indices, out)
    }
    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        (**self).scan_column_chunks(columns, visit)
    }
    fn supports_scan(&self) -> bool {
        (**self).supports_scan()
    }
    fn sketch(&self) -> Option<Arc<BlockSketch>> {
        (**self).sketch()
    }
    fn zone(&self, filter: &RowFilter) -> ZoneMatch {
        (**self).zone(filter)
    }
    fn project(&self, col: usize) -> Option<Arc<dyn DataBlock>> {
        (**self).project(col)
    }
}

/// The reads every consumer uses, each written once over
/// [`DataBlock::draw`], [`DataBlock::gather`] and
/// [`DataBlock::scan_column_chunks`]. The blanket impl is the only impl —
/// `impl BlockReads for X` does not compile — so "a draw is an index draw
/// plus a gather" and "a row scan is a chunk scan transposed" hold by
/// type, for every kind. Scalar reads address column 0.
pub trait BlockReads: DataBlock {
    /// Draws one value uniformly at random (with replacement).
    ///
    /// # Errors
    ///
    /// As [`DataBlock::draw`].
    fn sample_one(&self, rng: &mut dyn RngCore) -> Result<f64, StorageError> {
        let mut value = [0.0];
        self.draw(rng, &[0], &mut [0], &mut value)?;
        Ok(value[0])
    }

    /// Draws one row tuple uniformly at random into `out` (resized to
    /// [`DataBlock::width`]).
    ///
    /// # Errors
    ///
    /// As [`DataBlock::draw`].
    fn sample_row(&self, rng: &mut dyn RngCore, out: &mut Vec<f64>) -> Result<(), StorageError> {
        let all: Vec<usize> = (0..self.width()).collect();
        out.resize(all.len(), 0.0);
        self.draw(rng, &all, &mut [0], out)
    }

    /// Draws `n` row tuples into `out`, restricted to its projection
    /// ([`RowSampleBuf::project`]; every column without one). The index
    /// draws never depend on the projection: projected to `[0]` this is
    /// the batched [`BlockReads::sample_one`], the same values from the
    /// same RNG stream as `n` single draws.
    ///
    /// # Errors
    ///
    /// As [`DataBlock::draw`].
    ///
    /// # Panics
    ///
    /// When a projected column is out of the block's width.
    fn sample_rows_batch(
        &self,
        n: u64,
        rng: &mut dyn RngCore,
        out: &mut RowSampleBuf,
    ) -> Result<(), StorageError> {
        let (columns, indices, rows) = out.slots(n, self.width());
        self.draw(rng, columns, indices, rows)
    }

    /// Reads the value at row `idx`.
    ///
    /// # Errors
    ///
    /// As [`DataBlock::gather`].
    fn row_at(&self, idx: u64) -> Result<f64, StorageError> {
        let mut value = [0.0];
        self.gather(&[0], &[idx], &mut value)?;
        Ok(value[0])
    }

    /// Reads the row tuple at `idx` into `out` (resized to
    /// [`DataBlock::width`]).
    ///
    /// # Errors
    ///
    /// As [`DataBlock::gather`].
    fn row_tuple(&self, idx: u64, out: &mut Vec<f64>) -> Result<(), StorageError> {
        let all: Vec<usize> = (0..self.width()).collect();
        out.resize(all.len(), 0.0);
        self.gather(&all, &[idx], out)
    }

    /// Visits every value in storage order.
    ///
    /// # Errors
    ///
    /// As [`DataBlock::scan_column_chunks`].
    fn scan(&self, visit: &mut dyn FnMut(f64)) -> Result<(), StorageError> {
        self.scan_chunks(&mut |chunk| chunk.iter().for_each(|&v| visit(v)))
    }

    /// Visits every value in storage order as contiguous slices.
    ///
    /// # Errors
    ///
    /// As [`DataBlock::scan_column_chunks`].
    fn scan_chunks(&self, visit: &mut dyn FnMut(&[f64])) -> Result<(), StorageError> {
        self.scan_column_chunks(&[0], &mut |chunk| visit(chunk[0]))
    }

    /// Visits every row tuple in storage order.
    ///
    /// # Errors
    ///
    /// As [`DataBlock::scan_column_chunks`].
    fn scan_rows(&self, visit: &mut dyn FnMut(&[f64])) -> Result<(), StorageError> {
        let all: Vec<usize> = (0..self.width()).collect();
        self.scan_rows_projected(&all, visit)
    }

    /// Visits every row in storage order as the tuple of `columns`: the
    /// column chunks, transposed.
    ///
    /// # Errors
    ///
    /// As [`DataBlock::scan_column_chunks`].
    fn scan_rows_projected(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[f64]),
    ) -> Result<(), StorageError> {
        self.scan_column_chunks(columns, &mut |chunk| {
            let mut row = vec![0.0; chunk.len()];
            for i in 0..chunk.first().map_or(0, |col| col.len()) {
                for (slot, col) in row.iter_mut().zip(chunk) {
                    *slot = col[i];
                }
                visit(&row);
            }
        })
    }
}

impl<T: DataBlock + ?Sized> BlockReads for T {}
