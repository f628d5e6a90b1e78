//! The catalog: named tables with schemas over multi-column row blocks.
//!
//! A [`Table`] is one block-partitioned [`BlockSet`] of row tuples plus
//! the [`Schema`] naming the tuple's columns. Scalar consumers (the
//! classic ISLA path, baselines, MAX/MIN) read the table's width-1
//! column sets via [`Table::column`]; the row-model executor works on
//! the table's blocks directly, resolving column names to positions
//! once through the schema.

use std::collections::HashMap;
use std::sync::Arc;

use isla_storage::{
    project_column, BlockSet, ColumnView, DataBlock, Schema, SealedDerived, SealedRows, ZipBlock,
};

use crate::error::QueryError;

/// One sealed block plus every piece of derived state the table's block
/// sets need to merge it in: the row block itself with the data set's
/// seal-time sketch/selection state, and a width-1 block and derived
/// state per column set.
///
/// Produced by [`Table::seal_block`] (scan-heavy, run it with no lock
/// held) and consumed by [`Table::append_sealed`] (cheap merges, safe
/// under a catalog write guard).
pub struct SealedIngest {
    block: Arc<dyn DataBlock>,
    derived: SealedDerived,
    columns: Vec<(Arc<dyn DataBlock>, SealedDerived)>,
    rows: u64,
}

impl std::fmt::Debug for SealedIngest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SealedIngest")
            .field("rows", &self.rows)
            .field("columns", &self.columns.len())
            .field("derived", &self.derived)
            .finish()
    }
}

impl SealedIngest {
    /// Rows in the sealed block.
    pub fn rows(&self) -> u64 {
        self.rows
    }
}

/// A table: a schema plus a block-partitioned set of row tuples, and
/// one width-1 block set per column.
///
/// A `Table` is a handle: the schema, the row set, the column sets and
/// the row count sit behind one `Arc`, so a clone costs one refcount
/// and shares every block and derived cache with the original. The
/// mutator [`Table::append_sealed`] copies on write: a clone taken
/// before an append keeps the rows it saw.
#[derive(Debug, Clone)]
pub struct Table {
    state: Arc<TableState>,
}

#[derive(Debug, Clone)]
struct TableState {
    schema: Schema,
    data: BlockSet,
    /// One width-1 set per schema column: the scalar sets a zipped
    /// table was assembled from, or, for a row table, each column
    /// projected once at construction. Appends extend them alongside
    /// `data`, so a column read is a handle, never a fresh projection.
    columns: Vec<BlockSet>,
    /// Assembled from scalar columns ([`Table::new`]): a width-1 such
    /// table's row set is its only column set, which
    /// [`Table::seal_block`] reuses instead of projecting.
    zipped: bool,
    rows: u64,
}

impl Table {
    /// Builds a table from `(name, column)` pairs of scalar block sets —
    /// the classic construction. The columns are zipped block-by-block
    /// into logical row tuples, so they must agree on the block layout
    /// (which [`BlockSet::from_values`] guarantees for equal row
    /// counts).
    ///
    /// # Panics
    ///
    /// Panics if no columns are given or the columns disagree on the
    /// row count or block layout — schema construction errors are
    /// programming errors.
    pub fn new(columns: Vec<(impl Into<String>, BlockSet)>) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        let (names, sets): (Vec<String>, Vec<BlockSet>) = columns
            .into_iter()
            .map(|(name, set)| (name.into(), set))
            .unzip();
        let rows = sets[0].total_len();
        let block_count = sets[0].block_count();
        for (i, set) in sets.iter().enumerate() {
            assert_eq!(set.total_len(), rows, "columns must agree on the row count");
            assert_eq!(
                set.block_count(),
                block_count,
                "column {i} disagrees on the block layout"
            );
        }
        let data = if sets.len() == 1 {
            // A single scalar column IS its own width-1 row model.
            sets[0].clone()
        } else {
            BlockSet::new(
                (0..block_count)
                    .map(|b| {
                        let cols: Vec<Arc<dyn DataBlock>> =
                            sets.iter().map(|s| Arc::clone(s.block(b))).collect();
                        Arc::new(ZipBlock::new(cols)) as Arc<dyn DataBlock>
                    })
                    .collect(),
            )
        };
        Self::assemble(Schema::of_floats(names), data, sets, true)
    }

    /// Builds a table directly from a schema and a block set of row
    /// tuples (e.g. [`isla_storage::RowsBlock`]s). Each column's width-1
    /// set is projected here, once, by [`project_column`]'s per-block
    /// rule (a rows block hands out a zero-copy window on its column).
    ///
    /// # Panics
    ///
    /// Panics if the blocks' tuple width disagrees with the schema.
    pub fn from_rows(schema: Schema, data: BlockSet) -> Self {
        for block in data.iter() {
            assert_eq!(
                block.width(),
                schema.width(),
                "block width must match the schema"
            );
        }
        let columns = (0..schema.width())
            .map(|idx| project_column(&data, idx))
            .collect();
        Self::assemble(schema, data, columns, false)
    }

    fn assemble(schema: Schema, data: BlockSet, columns: Vec<BlockSet>, zipped: bool) -> Self {
        let rows = data.total_len();
        Self {
            state: Arc::new(TableState {
                schema,
                data,
                columns,
                zipped,
                rows,
            }),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> u64 {
        self.state.rows
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.state.schema
    }

    /// The table's row blocks.
    pub fn data(&self) -> &BlockSet {
        &self.state.data
    }

    /// The positional index of a named column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.state.schema.index_of(name)
    }

    /// The width-1 block set over the named column: a handle on the
    /// table's own column set (the scalar set a zipped table was built
    /// from, or the projection a row table made at construction),
    /// sharing its blocks and derived caches.
    pub fn column(&self, name: &str) -> Option<BlockSet> {
        self.column_set(name).cloned()
    }

    /// The named column's width-1 set, borrowed — what the executor
    /// reads, so a query resolves its column without a clone.
    pub(crate) fn column_set(&self, name: &str) -> Option<&BlockSet> {
        let idx = self.state.schema.index_of(name)?;
        self.state.columns.get(idx)
    }

    /// Drop every derived cache (selections, sketches) attached to this
    /// table's block sets — the row set and every column set.
    ///
    /// Required after any in-place mutation of the underlying blocks:
    /// the caches are `Arc`-shared across every `BlockSet` clone handed
    /// out by [`Table::column`], so a clone obtained *before* the
    /// mutation would otherwise keep serving selections and sketches
    /// computed over the old data. Pre-estimation entries live in the
    /// session-level cache and are invalidated separately by
    /// [`crate::QuerySession::invalidate_table`], which calls this.
    pub fn invalidate_caches(&self) {
        self.state.data.invalidate_derived();
        for set in &self.state.columns {
            set.invalidate_derived();
        }
    }

    /// Computes everything needed to append one sealed block —
    /// the block's sketch and a selection vector for every filter
    /// cached on the table's sets. Scan-heavy by design and takes
    /// `&self`: run it with **no lock held**, then apply the result
    /// under the catalog guard with [`Table::append_sealed`].
    ///
    /// # Errors
    ///
    /// [`QueryError::Invalid`] on a width mismatch; storage errors from
    /// the seal-time scans.
    pub fn seal_block(&self, sealed: SealedRows) -> Result<SealedIngest, QueryError> {
        let state = &self.state;
        let width = state.schema.width();
        if sealed.width() != width {
            return Err(QueryError::Invalid(format!(
                "sealed rows are {} wide but the table has {} columns",
                sealed.width(),
                width
            )));
        }
        let rows = sealed.rows() as u64;
        let block: Arc<dyn DataBlock> = Arc::new(sealed.into_block());
        let derived = state.data.seal_derived(&block)?;
        let columns = state
            .columns
            .iter()
            .enumerate()
            .map(|(i, set)| {
                // A width-1 zipped table's data set IS its only column
                // set; reuse the block rather than projecting it.
                let view: Arc<dyn DataBlock> = if state.zipped && width == 1 {
                    Arc::clone(&block)
                } else {
                    block
                        .project(i)
                        .unwrap_or_else(|| Arc::new(ColumnView::new(Arc::clone(&block), i)))
                };
                set.seal_derived(&view).map(|d| (view, d))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SealedIngest {
            block,
            derived,
            columns,
            rows,
        })
    }

    /// Appends sealed blocks as one epoch, merging their pre-computed
    /// derived state into the data set and every column set — nothing
    /// cached is invalidated. O(blocks + cached entries): cheap enough
    /// to run under the catalog write guard. Copies the table's state
    /// first when another handle shares it, so that handle keeps its
    /// rows.
    pub fn append_sealed(&mut self, batch: Vec<SealedIngest>) {
        if batch.is_empty() {
            return;
        }
        let state = Arc::make_mut(&mut self.state);
        let col_count = state.columns.len();
        let mut data_batch = Vec::with_capacity(batch.len());
        let mut col_batches: Vec<Vec<(Arc<dyn DataBlock>, SealedDerived)>> = (0..col_count)
            .map(|_| Vec::with_capacity(batch.len()))
            .collect();
        for ingest in batch {
            debug_assert_eq!(ingest.columns.len(), col_count);
            state.rows += ingest.rows;
            data_batch.push((ingest.block, ingest.derived));
            for (per_column, entry) in col_batches.iter_mut().zip(ingest.columns) {
                per_column.push(entry);
            }
        }
        state.data.append_epoch(data_batch);
        for (set, batch) in state.columns.iter_mut().zip(col_batches) {
            set.append_epoch(batch);
        }
    }

    /// The column names, sorted (for stable display).
    pub fn column_names(&self) -> Vec<&str> {
        let mut names = self.state.schema.column_names();
        names.sort_unstable();
        names
    }
}

/// A registry of named tables.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, Table>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a table.
    pub fn register(&mut self, name: impl Into<String>, table: Table) {
        self.tables.insert(name.into(), table);
    }

    /// Looks a table up, with a query-friendly error.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownTable`].
    pub fn table(&self, name: &str) -> Result<&Table, QueryError> {
        self.tables
            .get(name)
            .ok_or_else(|| QueryError::UnknownTable(name.to_string()))
    }

    /// Mutable table lookup — the ingest path's handle for
    /// [`Table::append_sealed`].
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownTable`].
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, QueryError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| QueryError::UnknownTable(name.to_string()))
    }

    /// Resolves `table.column` to a width-1 block set, with
    /// query-friendly errors.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownTable`] / [`QueryError::UnknownColumn`].
    pub fn column(&self, table: &str, column: &str) -> Result<BlockSet, QueryError> {
        let t = self.table(table)?;
        t.column(column).ok_or_else(|| QueryError::UnknownColumn {
            table: table.to_string(),
            column: column.to_string(),
        })
    }

    /// The registered table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isla_storage::{ColumnDef, RowsBlock};

    fn block_set(values: Vec<f64>) -> BlockSet {
        BlockSet::from_values(values, 2)
    }

    #[test]
    fn register_and_resolve() {
        let mut catalog = Catalog::new();
        catalog.register(
            "trips",
            Table::new(vec![
                ("distance", block_set(vec![1.0, 2.0, 3.0, 4.0])),
                ("fare", block_set(vec![10.0, 20.0, 30.0, 40.0])),
            ]),
        );
        assert_eq!(catalog.table("trips").unwrap().rows(), 4);
        assert!(catalog.column("trips", "distance").is_ok());
        assert_eq!(
            catalog.table("trips").unwrap().column_names(),
            vec!["distance", "fare"]
        );
        assert_eq!(catalog.table_names(), vec!["trips"]);
    }

    #[test]
    fn zipped_tables_expose_aligned_row_tuples() {
        let table = Table::new(vec![
            ("distance", block_set(vec![1.0, 2.0, 3.0, 4.0])),
            ("fare", block_set(vec![10.0, 20.0, 30.0, 40.0])),
        ]);
        assert_eq!(table.schema().width(), 2);
        assert_eq!(table.column_index("fare"), Some(1));
        let mut rows = Vec::new();
        table
            .data()
            .scan_all_rows(&mut |row| rows.push(row.to_vec()))
            .unwrap();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row[1], row[0] * 10.0, "tuples stay aligned");
        }
        // Column projection matches the original scalar data.
        let fares = table.column("fare").unwrap();
        assert_eq!(fares.exact_mean().unwrap(), 25.0);
        assert!(table.column("nope").is_none());
    }

    #[test]
    fn from_rows_builds_schema_first_tables() {
        let schema = Schema::new(vec![
            ColumnDef::float("x"),
            ColumnDef::categorical("region"),
        ]);
        let data = RowsBlock::split(vec![vec![1.0, 2.0, 3.0, 4.0], vec![0.0, 1.0, 0.0, 1.0]], 2);
        let table = Table::from_rows(schema, data);
        assert_eq!(table.rows(), 4);
        assert_eq!(table.column_index("region"), Some(1));
        let regions = table.column("region").unwrap();
        assert_eq!(regions.exact_mean().unwrap(), 0.5);
    }

    #[test]
    fn missing_table_and_column_errors() {
        let mut catalog = Catalog::new();
        catalog.register("t", Table::new(vec![("c", block_set(vec![1.0, 2.0]))]));
        assert!(matches!(
            catalog.table("nope"),
            Err(QueryError::UnknownTable(_))
        ));
        assert!(matches!(
            catalog.column("t", "nope"),
            Err(QueryError::UnknownColumn { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "columns must agree on the row count")]
    fn mismatched_row_counts_panic() {
        let _ = Table::new(vec![
            ("a", block_set(vec![1.0, 2.0])),
            ("b", block_set(vec![1.0, 2.0, 3.0])),
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_table_panics() {
        let _ = Table::new(Vec::<(String, BlockSet)>::new());
    }

    #[test]
    #[should_panic(expected = "width must match the schema")]
    fn from_rows_rejects_width_mismatch() {
        let schema = Schema::of_floats(vec!["a", "b", "c"]);
        let data = RowsBlock::split(vec![vec![1.0], vec![2.0]], 1);
        let _ = Table::from_rows(schema, data);
    }
}
