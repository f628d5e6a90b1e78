//! The [`DataBlock`] trait: what every block kind must provide.

use std::ops::Deref;

use rand::RngCore;

use crate::error::StorageError;
use crate::filter::RowFilter;
use crate::kernel::{compact, RowSampleBuf, SampleBuf, SCAN_CHUNK_ROWS};
use crate::selection::{zone_match, ZoneMatch};

/// A block of numeric data, the unit of distribution in the paper's system
/// model (Section II-C).
///
/// A block supports two access paths:
///
/// * **uniform random sampling** ([`DataBlock::sample_one`] /
///   [`DataBlock::sample_row`]), the only access ISLA's hot path needs —
///   samples are drawn with replacement and immediately folded into
///   running moments;
/// * **scanning** ([`DataBlock::scan`] / [`DataBlock::scan_rows`]), used
///   to compute exact ground truths for the evaluation and by full-scan
///   fallbacks. Virtual blocks may refuse to scan (see
///   [`crate::GeneratorBlock`]).
///
/// Blocks are **row-model**: every row is a tuple of
/// [`DataBlock::width`] values. Classic single-column blocks have width
/// 1 and get the tuple access path for free from the scalar methods;
/// multi-column blocks ([`crate::RowsBlock`], [`crate::ZipBlock`])
/// override the tuple methods so the engine can evaluate a compiled
/// predicate and a group key against each drawn row. The scalar methods
/// on a multi-column block address its first column.
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

    /// Draws one value uniformly at random (with replacement).
    ///
    /// # Errors
    ///
    /// [`StorageError::Empty`] on an empty block; I/O or parse errors for
    /// file-backed blocks.
    fn sample_one(&self, rng: &mut dyn RngCore) -> Result<f64, StorageError>;

    /// Reads the row at `idx` (`0 ≤ idx < len`).
    ///
    /// For materialized blocks this is positional access; virtual
    /// generator blocks synthesize a value deterministically from
    /// `(seed, idx)`, so repeated reads of the same row agree.
    ///
    /// # Errors
    ///
    /// [`StorageError::Empty`] when `idx` is out of range; I/O or parse
    /// errors for file-backed blocks.
    fn row_at(&self, idx: u64) -> Result<f64, StorageError>;

    /// Visits every row in storage order.
    ///
    /// # Errors
    ///
    /// [`StorageError::ScanUnsupported`] for virtual blocks past their scan
    /// cap; I/O or parse errors for file-backed blocks.
    fn scan(&self, visit: &mut dyn FnMut(f64)) -> Result<(), StorageError>;

    /// Draws one row tuple uniformly at random (with replacement),
    /// writing its [`DataBlock::width`] values into `out` (cleared
    /// first).
    ///
    /// Implementations must consume exactly one uniform index draw from
    /// `rng` per row, so scalar and tuple sampling stay stream-compatible.
    ///
    /// # Errors
    ///
    /// As [`DataBlock::sample_one`].
    fn sample_row(&self, rng: &mut dyn RngCore, out: &mut Vec<f64>) -> Result<(), StorageError> {
        let v = self.sample_one(rng)?;
        out.clear();
        out.push(v);
        Ok(())
    }

    /// Reads the row tuple at `idx` into `out` (cleared first).
    ///
    /// # Errors
    ///
    /// As [`DataBlock::row_at`].
    fn row_tuple(&self, idx: u64, out: &mut Vec<f64>) -> Result<(), StorageError> {
        let v = self.row_at(idx)?;
        out.clear();
        out.push(v);
        Ok(())
    }

    /// Visits every row tuple in storage order.
    ///
    /// # Errors
    ///
    /// As [`DataBlock::scan`].
    fn scan_rows(&self, visit: &mut dyn FnMut(&[f64])) -> Result<(), StorageError> {
        self.scan(&mut |v| visit(std::slice::from_ref(&v)))
    }

    /// Visits every row in storage order as the compact tuple of
    /// `columns` (positional indices, delivered in the order given) —
    /// what a scan that reads only some columns should call, so that a
    /// columnar block assembles only those.
    ///
    /// The contract is bit-identity with [`DataBlock::scan_rows`]: the
    /// same rows in the same order, each restricted to `columns`. The
    /// default compacts the full-width scan; columnar blocks override
    /// it to never read the other columns.
    ///
    /// # Errors
    ///
    /// As [`DataBlock::scan`].
    fn scan_rows_projected(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[f64]),
    ) -> Result<(), StorageError> {
        let mut tuple = vec![0.0; columns.len()];
        self.scan_rows(&mut |row| {
            compact(columns, row, &mut tuple);
            visit(&tuple);
        })
    }

    /// Visits every row in storage order as **aligned column slices** —
    /// the columnar form of [`DataBlock::scan_rows_projected`]: each
    /// call delivers one chunk of at most [`SCAN_CHUNK_ROWS`] rows as
    /// one slice per entry of `columns` (in the order given), all of the
    /// chunk's length, so a consumer evaluates a predicate or folds a
    /// column at slice speed instead of one `dyn` call per row.
    ///
    /// The chunk-scan law: the same values in the same order as
    /// [`DataBlock::scan_rows_projected`]`(columns, …)` — row `i` of the
    /// scan is `(chunk[0][j], chunk[1][j], …)` of the chunk that covers
    /// it — and an error before the first chunk wherever the row scan
    /// errors before its first row; only the shape of delivery changes.
    /// An empty block delivers no chunk. The default transposes
    /// [`DataBlock::scan_rows`] (the projected row scan's default is one
    /// more `dyn` hop per row over the same full-width rows); columnar
    /// blocks override it to hand out sub-slices of their storage in
    /// place.
    ///
    /// # Errors
    ///
    /// As [`DataBlock::scan`].
    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        let reserve = SCAN_CHUNK_ROWS.min(usize::try_from(self.len()).unwrap_or(usize::MAX));
        let mut lanes: Vec<Vec<f64>> = columns
            .iter()
            .map(|_| Vec::with_capacity(reserve))
            .collect();
        let mut filled = 0usize;
        let mut flush = |lanes: &mut [Vec<f64>]| {
            let chunk: Vec<&[f64]> = lanes.iter().map(Vec::as_slice).collect();
            visit(&chunk);
            lanes.iter_mut().for_each(Vec::clear);
        };
        self.scan_rows(&mut |row| {
            for (lane, &c) in lanes.iter_mut().zip(columns) {
                lane.push(row[c]);
            }
            filled += 1;
            if filled == SCAN_CHUNK_ROWS {
                flush(&mut lanes);
                filled = 0;
            }
        })?;
        if filled > 0 {
            flush(&mut lanes);
        }
        Ok(())
    }

    /// Draws `n` values uniformly at random (with replacement) into
    /// `out` — the batched form of [`DataBlock::sample_one`], the
    /// engine's hot sampling kernel.
    ///
    /// The contract mirrors the scalar method exactly: implementations
    /// must consume one uniform index draw from `rng` per value, in draw
    /// order, and [`SampleBuf::values`] must hold the values in draw
    /// order — so a batched draw is **bit-identical** (values and RNG
    /// stream) to `n` scalar draws. The default delegates to
    /// [`DataBlock::sample_one`]; in-memory blocks override it with a
    /// draw-order gather, file-backed ones with a sorted gather (see
    /// [`crate::kernel`]).
    ///
    /// # Errors
    ///
    /// As [`DataBlock::sample_one`].
    fn sample_batch(
        &self,
        n: u64,
        rng: &mut dyn RngCore,
        out: &mut SampleBuf,
    ) -> Result<(), StorageError> {
        out.begin_scalar(n as usize);
        for _ in 0..n {
            out.push_value(self.sample_one(rng)?);
        }
        Ok(())
    }

    /// Draws `n` row tuples uniformly at random (with replacement) into
    /// `out` — the batched form of [`DataBlock::sample_row`], used by
    /// the row-model (`WHERE`/`GROUP BY`) pipeline.
    ///
    /// Same contract as [`DataBlock::sample_batch`]: one index draw per
    /// row, rows delivered in draw order, bit-identical to the scalar
    /// path. When `out` carries a projection
    /// ([`RowSampleBuf::project`]) the delivered tuples hold only those
    /// columns; implementations get that for free by filling `out`
    /// through its own methods — column-aware storage gathers just the
    /// projected columns, everything else hands over whole rows and the
    /// buffer compacts them. The index draws never depend on it.
    ///
    /// # Errors
    ///
    /// As [`DataBlock::sample_row`].
    fn sample_rows_batch(
        &self,
        n: u64,
        rng: &mut dyn RngCore,
        out: &mut RowSampleBuf,
    ) -> Result<(), StorageError> {
        out.begin_scalar(n as usize, self.width());
        let mut row = out.take_scratch();
        let mut result = Ok(());
        for _ in 0..n {
            if let Err(e) = self.sample_row(rng, &mut row) {
                result = Err(e);
                break;
            }
            out.push_row(&row);
        }
        out.put_scratch(row);
        result
    }

    /// Visits every row in storage order as contiguous value slices —
    /// the batched form of [`DataBlock::scan`], sized so downstream
    /// folds autovectorize. Values arrive in exactly the scalar scan's
    /// order; only the callback granularity changes.
    ///
    /// The default buffers the scalar scan into
    /// [`SCAN_CHUNK_ROWS`]-value chunks; in-memory blocks override it to
    /// hand out their storage slices zero-copy.
    ///
    /// # Errors
    ///
    /// As [`DataBlock::scan`].
    fn scan_chunks(&self, visit: &mut dyn FnMut(&[f64])) -> Result<(), StorageError> {
        let mut chunk: Vec<f64> = Vec::with_capacity(SCAN_CHUNK_ROWS);
        self.scan(&mut |v| {
            chunk.push(v);
            if chunk.len() == SCAN_CHUNK_ROWS {
                visit(&chunk);
                chunk.clear();
            }
        })?;
        if !chunk.is_empty() {
            visit(&chunk);
        }
        Ok(())
    }

    /// Whether [`DataBlock::scan`] is expected to succeed.
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
    fn sketch(&self) -> Option<std::sync::Arc<crate::sketch::BlockSketch>> {
        None
    }

    /// What this block's metadata decides about `filter` for a consumer
    /// that would otherwise draw rows and test them: the [`zone_match`]
    /// verdict of the O(1) [`DataBlock::sketch`] hook, and
    /// [`ZoneMatch::Mixed`] — read the rows — without one.
    ///
    /// A decided verdict stands in for reads, so it must hold for every
    /// value a read could deliver. A block holding a non-finite value in
    /// any column therefore answers `Mixed` (a best-effort consumer drops
    /// such rows, which no bound predicts), and a block whose reads can
    /// fail or differ from what its sketch describes (see
    /// [`crate::FaultyBlock`]) must override this to answer `Mixed`. A
    /// caller that skips the reads of a decided block still owes the RNG
    /// the one index draw per row that [`DataBlock::sample_row`] consumes
    /// (see [`crate::skip_row_draws`]).
    fn zone(&self, filter: &RowFilter) -> ZoneMatch {
        match self.sketch() {
            Some(sketch) if sketch.all_finite() => zone_match(&sketch, filter),
            _ => ZoneMatch::Mixed,
        }
    }

    /// A zero-copy scalar block over column `col`, when this block can
    /// provide one more cheaply than a generic row-tuple view (e.g. a
    /// columnar block handing out its column storage, or a zip handing
    /// back the original scalar block). `None` falls back to a wrapper
    /// view.
    fn project(&self, _col: usize) -> Option<std::sync::Arc<dyn DataBlock>> {
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
    fn sample_one(&self, rng: &mut dyn RngCore) -> Result<f64, StorageError> {
        (**self).sample_one(rng)
    }
    fn row_at(&self, idx: u64) -> Result<f64, StorageError> {
        (**self).row_at(idx)
    }
    fn scan(&self, visit: &mut dyn FnMut(f64)) -> Result<(), StorageError> {
        (**self).scan(visit)
    }
    fn sample_row(&self, rng: &mut dyn RngCore, out: &mut Vec<f64>) -> Result<(), StorageError> {
        (**self).sample_row(rng, out)
    }
    fn row_tuple(&self, idx: u64, out: &mut Vec<f64>) -> Result<(), StorageError> {
        (**self).row_tuple(idx, out)
    }
    fn scan_rows(&self, visit: &mut dyn FnMut(&[f64])) -> Result<(), StorageError> {
        (**self).scan_rows(visit)
    }
    fn scan_rows_projected(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[f64]),
    ) -> Result<(), StorageError> {
        (**self).scan_rows_projected(columns, visit)
    }
    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        (**self).scan_column_chunks(columns, visit)
    }
    fn sample_batch(
        &self,
        n: u64,
        rng: &mut dyn RngCore,
        out: &mut SampleBuf,
    ) -> Result<(), StorageError> {
        (**self).sample_batch(n, rng, out)
    }
    fn sample_rows_batch(
        &self,
        n: u64,
        rng: &mut dyn RngCore,
        out: &mut RowSampleBuf,
    ) -> Result<(), StorageError> {
        (**self).sample_rows_batch(n, rng, out)
    }
    fn scan_chunks(&self, visit: &mut dyn FnMut(&[f64])) -> Result<(), StorageError> {
        (**self).scan_chunks(visit)
    }
    fn supports_scan(&self) -> bool {
        (**self).supports_scan()
    }
    fn sketch(&self) -> Option<std::sync::Arc<crate::sketch::BlockSketch>> {
        (**self).sketch()
    }
    fn zone(&self, filter: &RowFilter) -> ZoneMatch {
        (**self).zone(filter)
    }
    fn project(&self, col: usize) -> Option<std::sync::Arc<dyn DataBlock>> {
        (**self).project(col)
    }
}
