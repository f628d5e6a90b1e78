//! Block storage substrate for the ISLA approximate-aggregation engine.
//!
//! The paper assumes "the data to be stored in multiple machines, i.e.,
//! blocks" (Section II-C): every aggregation runs per block and partial
//! answers are combined by size-weighted averaging. This crate provides the
//! block abstraction and every concrete block kind the evaluation needs:
//!
//! * [`RowsBlock`] — columns of values in memory, each a window onto a
//!   shared buffer. A scalar column is the width-1 case:
//!   [`BlockSet::from_values`] and [`RowsBlock::split`] window one buffer
//!   per column into every block, and a projection of one column is a
//!   width-1 [`RowsBlock`] sharing its parent's window and sketch;
//! * [`BinaryBlock`] — a compact fixed-width binary format with a header:
//!   the file-backed kind. The paper's experiments keep each block in a
//!   `.txt` file, one value per line; that text layout is not reproduced;
//! * [`GeneratorBlock`] — a *virtual* block of declared length whose
//!   sampler draws i.i.d. values from a distribution. This is the
//!   documented substitution for the paper's 10⁸–10¹² row datasets: since
//!   ISLA's sample size depends only on `(σ, e, β)` and never on the data
//!   size, uniform sampling from an i.i.d.-populated block is
//!   indistinguishable from sampling the distribution directly.
//!
//! Blocks are **row-model**: every [`DataBlock`] yields row tuples of
//! [`DataBlock::width`] values (scalar blocks are width 1). The
//! schema-aware layer on top:
//!
//! * [`Schema`] — named, typed columns describing the tuple shape;
//! * [`ZipBlock`] — equally-sized scalar blocks zipped into one logical
//!   multi-column block;
//! * [`RowFilter`] — a compiled `WHERE` conjunction evaluated against
//!   each row where the rows are produced (predicate pushdown);
//! * [`ColumnView`] — the width-1 projection that lets scalar consumers
//!   run over one column of a table whose blocks cannot hand the column
//!   out themselves ([`project_column`] picks per block);
//! * [`PooledFilteredColumn`] ([`pool_filtered_column`]) — one column of
//!   a whole table under a pushed-down filter, as a single scalar block:
//!   the one filtered view, drawing through the set's compiled selection
//!   and by rejection only over blocks that cannot scan.
//!
//! [`BlockSet`] groups blocks into a dataset, and [`sampler`] provides
//! uniform with-replacement sampling (values and row tuples) and
//! proportional allocation across blocks.
//!
//! For chaos testing, [`fault`] provides seeded deterministic fault
//! injection: a [`FaultPlan`] assigns transient unavailability,
//! permanent loss, stalls, or value corruption per block, and
//! [`FaultyBlock`] injects the assigned fault at every data-plane
//! access while metadata passes through — the substrate for the
//! engine's retry and graceful-degradation layers. [`ScalarFallbackBlock`]
//! reads one row per call and hides the sketch: the reference the
//! kernel-identity tests compare every batched read against.
//!
//! **The contract.** [`DataBlock`] has ten methods. Three are required
//! of every kind — [`DataBlock::len`], [`DataBlock::gather`] (rows ×
//! columns by index) and [`DataBlock::scan_column_chunks`] (aligned
//! column slices in storage order) — and seven are overridable
//! metadata and hooks, among them [`DataBlock::draw`], whose default is
//! the draw law (one uniform index per row, then a gather); only kinds
//! whose draw is not that override it (a generator's distribution, a
//! filtered pool's match space, a fault gate, a column view's inner
//! draw, the one-row-per-call reference). Every other read —
//! [`BlockReads::sample_one`], [`BlockReads::sample_rows_batch`],
//! [`BlockReads::row_at`], [`BlockReads::scan_chunks`],
//! [`BlockReads::scan_rows_projected`], … — is written once in
//! [`BlockReads`], whose blanket impl no kind can override. Any pointer
//! to a block (`&T`, `Box<T>`, `Arc<T>`, sized or `dyn`) is itself a
//! [`DataBlock`] through one forwarding impl.
//!
//! The hot paths run through the **batch buffer** of [`kernel`]: a
//! batch draws all its indices, then gathers — in draw order from
//! memory, ascending from files, bit-identical to single draws either
//! way, and restricted to the columns the consumer reads when it names
//! them ([`RowSampleBuf::project`]; a scalar draw is the projection to
//! column 0). Scans hand out column chunks, over which
//! [`RowFilter::select`] evaluates a predicate at column speed; and
//! [`SelectionVector`]s compile a [`RowFilter`] into per-block
//! match bitmaps with a rank directory, so filtered draws are direct
//! lookups instead of rejection loops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary_file;
pub mod block;
pub mod blockset;
pub mod error;
pub mod fault;
pub mod filter;
pub mod generator;
pub mod ingest;
pub mod kernel;
mod memory;
pub mod rows;
pub mod sampler;
pub mod schema;
pub mod selection;
pub mod sketch;

pub use binary_file::BinaryBlock;
pub use block::{BlockReads, DataBlock};
pub use blockset::{BlockSet, EpochMark, ExactSum, SealedDerived};
pub use error::StorageError;
pub use fault::{BlockFault, FaultPlan, FaultyBlock};
pub use filter::{CmpOp, ColumnPredicate, RowFilter};
pub use generator::GeneratorBlock;
pub use ingest::{IngestBuffer, SealedRows, DEFAULT_ROWS_PER_BLOCK};
pub use kernel::{
    scalar_fallback_set, with_row_sample_buf, RowSampleBuf, ScalarFallbackBlock, SAMPLE_BATCH_ROWS,
    SCAN_CHUNK_ROWS,
};
pub use rows::{
    pool_filtered_column, project_column, ColumnView, PooledFilteredColumn, RowsBlock, ZipBlock,
};
pub use sampler::{
    proportional_allocation, sample_from_block, sample_proportional, sample_proportional_surviving,
    sample_row_columns_from_block, sample_row_columns_from_block_surviving, sample_rows_from_block,
    sample_rows_proportional, sample_rows_proportional_surviving, skip_row_draws,
};
pub use schema::{ColumnDef, ColumnType, Schema};
pub use selection::{
    zone_match, SelectionCache, SelectionCacheStats, SelectionTail, SelectionVector, SetSelection,
    ZoneMatch,
};
pub use sketch::{
    scan_keyed_sketch, scan_sketch, BlockSketch, ColumnMoments, KeyMoments, KeyedSketch,
    SetSketches, SketchCache, SketchCacheStats, MAX_SKETCH_KEYS,
};
