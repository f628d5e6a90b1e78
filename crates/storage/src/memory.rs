//! In-memory blocks.

use std::sync::Arc;

use crate::block::DataBlock;
use crate::error::StorageError;
use crate::kernel::{gather_slices, scan_slices};
use crate::sketch::BlockSketch;

/// A block whose rows live in memory.
///
/// The workhorse for tests, examples, and the small and medium evaluation
/// workloads — and what [`crate::RowsBlock`] hands out as the zero-copy
/// projection of one of its columns (the values are reference-counted,
/// so the projection shares the table's storage).
#[derive(Debug, Clone, PartialEq)]
pub struct MemBlock {
    values: Arc<Vec<f64>>,
    // Eager moment sketch, computed by the same pass that validates
    // finiteness — so the `sketch()` hook is an O(1) Arc clone.
    sketch: Arc<BlockSketch>,
}

impl MemBlock {
    /// Wraps a vector of values as a block.
    ///
    /// # Panics
    ///
    /// Panics if any value is not finite: blocks model stored columns of
    /// real measurements, and a NaN would silently poison every downstream
    /// moment.
    pub fn new(values: Vec<f64>) -> Self {
        // One pass both validates and sketches: the fold counts
        // non-finite values, which is exactly the finiteness check.
        let sketch = BlockSketch::from_values(&values);
        assert!(sketch.all_finite(), "block values must be finite");
        Self {
            values: Arc::new(values),
            sketch: Arc::new(sketch),
        }
    }

    /// Wraps an already-validated reference-counted column and its
    /// already-folded sketch, checking neither — how
    /// [`crate::RowsBlock`] projects a column without copying or
    /// re-folding it. `sketch` must be the [`BlockSketch::from_values`]
    /// of `column`.
    pub(crate) fn shared(column: Arc<Vec<f64>>, sketch: Arc<BlockSketch>) -> Self {
        Self {
            values: column,
            sketch,
        }
    }

    /// Read-only view of the values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes the block, returning the values (copied only when the
    /// storage is still shared with a [`crate::RowsBlock`]).
    pub fn into_values(self) -> Vec<f64> {
        Arc::unwrap_or_clone(self.values)
    }
}

impl From<Vec<f64>> for MemBlock {
    fn from(values: Vec<f64>) -> Self {
        Self::new(values)
    }
}

impl DataBlock for MemBlock {
    fn len(&self) -> u64 {
        self.values.len() as u64
    }

    fn gather(
        &self,
        columns: &[usize],
        indices: &[u64],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        gather_slices(std::slice::from_ref(&self.values), columns, indices, out)
    }

    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        scan_slices(
            std::slice::from_ref(&self.values),
            self.values.len(),
            columns,
            visit,
        )
    }

    fn sketch(&self) -> Option<Arc<BlockSketch>> {
        Some(Arc::clone(&self.sketch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockReads;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampling_covers_all_values() {
        let block = MemBlock::new(vec![1.0, 2.0, 3.0]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 3];
        for _ in 0..200 {
            let v = block.sample_one(&mut rng).unwrap();
            seen[(v as usize) - 1] = true;
        }
        assert_eq!(seen, [true, true, true]);
    }

    #[test]
    fn scan_visits_in_order() {
        let block = MemBlock::from(vec![5.0, 4.0, 3.0]);
        let mut got = Vec::new();
        block.scan(&mut |v| got.push(v)).unwrap();
        assert_eq!(got, vec![5.0, 4.0, 3.0]);
        assert!(block.supports_scan());
    }

    #[test]
    fn empty_block_refuses_sampling() {
        let block = MemBlock::new(vec![]);
        assert!(block.is_empty());
        let mut rng = StdRng::seed_from_u64(2);
        assert!(matches!(
            block.sample_one(&mut rng),
            Err(StorageError::Empty)
        ));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_values() {
        let _ = MemBlock::new(vec![1.0, f64::NAN]);
    }

    #[test]
    fn every_public_in_memory_constructor_rejects_non_finite_values() {
        // `MemBlock::shared` checks nothing, and is crate-private: its
        // one caller, `RowsBlock::project`, passes a column that
        // `RowsBlock::new` validated. Every public way in panics.
        use crate::{BlockSet, RowsBlock};
        fn assert_rejects(name: &str, build: impl FnOnce() + std::panic::UnwindSafe) {
            let panic = std::panic::catch_unwind(build).expect_err(name);
            let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(message.contains("finite"), "{name}: {message:?}");
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let col = || vec![1.0, bad, 3.0];
            let table = || vec![vec![0.0; 3], col()];
            assert_rejects("MemBlock::new", || drop(MemBlock::new(col())));
            assert_rejects("MemBlock::from", || drop(MemBlock::from(col())));
            assert_rejects("RowsBlock::new", || drop(RowsBlock::new(table())));
            assert_rejects("RowsBlock::split", || drop(RowsBlock::split(table(), 2)));
            assert_rejects("BlockSet::from_values", || {
                drop(BlockSet::from_values(col(), 2))
            });
        }
    }

    #[test]
    fn row_at_is_positional() {
        let block = MemBlock::new(vec![10.0, 20.0, 30.0]);
        assert_eq!(block.row_at(0).unwrap(), 10.0);
        assert_eq!(block.row_at(2).unwrap(), 30.0);
        assert!(matches!(block.row_at(3), Err(StorageError::Empty)));
    }

    #[test]
    fn trait_object_forwarding() {
        let block: std::sync::Arc<dyn DataBlock> = std::sync::Arc::new(MemBlock::new(vec![7.0]));
        assert_eq!(block.len(), 1);
        let by_ref: &dyn DataBlock = &block;
        assert_eq!(by_ref.len(), 1);
        assert!(by_ref.supports_scan());
    }
}
