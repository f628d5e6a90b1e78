//! The column windows every in-memory block holds.

use std::ops::Range;
use std::sync::Arc;

/// Rows `rows` of one shared column buffer: how every in-memory block
/// holds a column. Splitting a loaded column into blocks, or projecting
/// a column out of a [`crate::RowsBlock`], hands out windows onto the
/// one buffer instead of copying it — and a window kept on its own
/// keeps that whole buffer alive.
///
/// The buffer is an `Arc<Vec<f64>>`, not an `Arc<[f64]>`: wrapping a
/// loaded `Vec` in the former moves it, converting it to the latter
/// copies it.
#[derive(Clone)]
pub(crate) struct ColumnWindow {
    buffer: Arc<Vec<f64>>,
    rows: Range<usize>,
}

impl ColumnWindow {
    /// A window onto all of `values`.
    pub(crate) fn whole(values: Vec<f64>) -> Self {
        let rows = 0..values.len();
        Self {
            buffer: Arc::new(values),
            rows,
        }
    }

    /// A window onto rows `rows` of `buffer`, which must lie within it:
    /// every read slices the buffer by `rows`.
    pub(crate) fn new(buffer: &Arc<Vec<f64>>, rows: Range<usize>) -> Self {
        Self {
            buffer: Arc::clone(buffer),
            rows,
        }
    }

    /// The window's values.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.buffer[self.rows.clone()]
    }

    /// Number of rows in the window.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }
}

/// Windows compare by the values they show, not by buffer or range.
impl PartialEq for ColumnWindow {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for ColumnWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// The row ranges of `n` rows split into `block_count` blocks, in
/// order: the first `n % block_count` blocks get one extra row.
pub(crate) fn block_ranges(n: usize, block_count: usize) -> impl Iterator<Item = Range<usize>> {
    let (base, extra) = (n / block_count, n % block_count);
    (0..block_count).scan(0, move |start, i| {
        let rows = *start..*start + base + usize::from(i < extra);
        *start = rows.end;
        Some(rows)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockReads, DataBlock};
    use crate::error::StorageError;
    use crate::{BlockSet, RowsBlock};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampling_covers_all_values() {
        let block = RowsBlock::new(vec![vec![1.0, 2.0, 3.0]]);
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
        let block = RowsBlock::new(vec![vec![5.0, 4.0, 3.0]]);
        let mut got = Vec::new();
        block.scan(&mut |v| got.push(v)).unwrap();
        assert_eq!(got, vec![5.0, 4.0, 3.0]);
        assert!(block.supports_scan());
    }

    #[test]
    fn empty_block_refuses_sampling() {
        let block = RowsBlock::new(vec![vec![]]);
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
        let _ = RowsBlock::new(vec![vec![1.0, f64::NAN]]);
    }

    #[test]
    fn every_public_in_memory_constructor_rejects_non_finite_values() {
        // `RowsBlock::shared` checks nothing, and is private to its
        // module: its one caller, `RowsBlock::project`, passes a column
        // that `RowsBlock::new` validated. Every public way in panics,
        // at width 1 as at width 2.
        fn assert_rejects(name: &str, build: impl FnOnce() + std::panic::UnwindSafe) {
            let panic = std::panic::catch_unwind(build).expect_err(name);
            let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(message.contains("finite"), "{name}: {message:?}");
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let col = || vec![1.0, bad, 3.0];
            let table = || vec![vec![0.0; 3], col()];
            assert_rejects("RowsBlock::new, width 1", || {
                drop(RowsBlock::new(vec![col()]))
            });
            assert_rejects("RowsBlock::new", || drop(RowsBlock::new(table())));
            assert_rejects("RowsBlock::split", || drop(RowsBlock::split(table(), 2)));
            assert_rejects("BlockSet::from_values", || {
                drop(BlockSet::from_values(col(), 2))
            });
        }
    }

    /// The rows the loaders cut before blocks became windows: one copied
    /// chunk per block, the first `n % block_count` one row longer.
    fn old_chunks(values: &[f64], block_count: usize) -> Vec<Vec<f64>> {
        let (base, extra) = (values.len() / block_count, values.len() % block_count);
        let mut iter = values.iter().copied();
        (0..block_count)
            .map(|i| iter.by_ref().take(base + usize::from(i < extra)).collect())
            .collect()
    }

    fn column(n: usize, scale: f64) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.37).sin() * scale).collect()
    }

    /// Where each block's window onto column `col` starts: the address
    /// of its first scanned value (`None` for an empty block).
    fn window_starts(set: &BlockSet, col: usize) -> Vec<Option<usize>> {
        set.iter()
            .map(|block| {
                let mut start = None;
                block
                    .scan_column_chunks(&[col], &mut |chunk| {
                        start.get_or_insert(chunk[0].as_ptr() as usize);
                    })
                    .unwrap();
                start
            })
            .collect()
    }

    #[test]
    fn loaders_and_projections_window_the_input_buffers_without_copying() {
        use crate::project_column;
        let (n, blocks) = (1_003, 7);
        // Block k starts at the buffer's address plus its first row's
        // offset under the old chunking rule.
        let expected = |buffer: usize| {
            let mut row = 0;
            old_chunks(&vec![0.0; n], blocks)
                .iter()
                .map(|chunk| {
                    let start = buffer + row * std::mem::size_of::<f64>();
                    row += chunk.len();
                    Some(start)
                })
                .collect::<Vec<_>>()
        };

        let values = column(n, 1.0);
        let at = values.as_ptr() as usize;
        let scalar = BlockSet::from_values(values, blocks);
        assert_eq!(window_starts(&scalar, 0), expected(at), "from_values");

        let (x, y) = (column(n, 1.0), column(n, 2.0));
        let (x_at, y_at) = (x.as_ptr() as usize, y.as_ptr() as usize);
        let rows = RowsBlock::split(vec![x, y], blocks);
        assert_eq!(window_starts(&rows, 0), expected(x_at), "split, column 0");
        assert_eq!(window_starts(&rows, 1), expected(y_at), "split, column 1");
        let projected = project_column(&rows, 1);
        assert_eq!(window_starts(&projected, 0), expected(y_at), "project");
    }

    #[test]
    fn windowed_loaders_match_the_old_chunking_rule_bit_for_bit() {
        use crate::filter::{CmpOp, ColumnPredicate, RowFilter};
        use crate::selection::ZoneMatch;
        let sketch_bits = |block: &dyn DataBlock| {
            let sketch = block.sketch().expect("in-memory blocks sketch");
            let columns: Vec<_> = sketch
                .columns
                .iter()
                .map(|m| {
                    (
                        [m.sum, m.sum_sq, m.min, m.max].map(f64::to_bits),
                        m.non_finite,
                    )
                })
                .collect();
            (sketch.rows, columns)
        };
        let row_bits = |block: &dyn DataBlock| {
            let mut bits = Vec::new();
            block
                .scan_rows(&mut |row| bits.extend(row.iter().map(|v| v.to_bits())))
                .unwrap();
            bits
        };
        let filters: Vec<RowFilter> = [(CmpOp::Gt, 0.0), (CmpOp::Lt, 5.0), (CmpOp::Ge, -10.0)]
            .into_iter()
            .map(|(op, value)| {
                RowFilter::new(vec![ColumnPredicate {
                    column: 0,
                    op,
                    value,
                }])
            })
            .collect();
        let assert_same = |old: &dyn DataBlock, new: &dyn DataBlock, what: &str| {
            assert_eq!(old.len(), new.len(), "{what}: length");
            assert_eq!(old.width(), new.width(), "{what}: width");
            assert_eq!(row_bits(old), row_bits(new), "{what}: values");
            assert_eq!(sketch_bits(old), sketch_bits(new), "{what}: sketch");
            for filter in &filters {
                assert_eq!(old.zone(filter), new.zone(filter), "{what}: zone");
            }
            let draw = |block: &dyn DataBlock| {
                let mut rng = StdRng::seed_from_u64(9);
                block.sample_one(&mut rng).map(f64::to_bits)
            };
            match (draw(old), draw(new)) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}: draw"),
                (Err(StorageError::Empty), Err(StorageError::Empty)) => {
                    assert!(new.is_empty(), "{what}: only an empty block refuses");
                    assert_eq!(new.zone(&filters[0]), ZoneMatch::Matchless);
                }
                (a, b) => panic!("{what}: draws differ: {a:?} vs {b:?}"),
            }
        };
        // n % b ≠ 0, then fewer rows than blocks (empty tail windows).
        for (n, blocks) in [(1_003, 16), (10, 3), (3, 7)] {
            let (x, y) = (column(n, 10.0), column(n, 3.0));
            let set = BlockSet::from_values(x.clone(), blocks);
            let rows = RowsBlock::split(vec![x.clone(), y.clone()], blocks);
            let (old_x, old_y) = (old_chunks(&x, blocks), old_chunks(&y, blocks));
            for k in 0..blocks {
                let what = format!("n = {n}, b = {blocks}, block {k}");
                let old = RowsBlock::new(vec![old_x[k].clone()]);
                assert_same(&old, set.block(k).as_ref(), &format!("{what}, scalar"));
                let old = RowsBlock::new(vec![old_x[k].clone(), old_y[k].clone()]);
                assert_same(&old, rows.block(k).as_ref(), &format!("{what}, rows"));
                let projected = rows.block(k).project(1).unwrap();
                let old = RowsBlock::new(vec![old_y[k].clone()]);
                assert_same(&old, projected.as_ref(), &format!("{what}, project"));
            }
        }
    }

    #[test]
    fn windows_compare_by_value_not_by_buffer_or_range() {
        let buffer = Arc::new(vec![9.0, 1.0, 2.0, 3.0, 9.0]);
        let block = |buffer: &Arc<Vec<f64>>, rows: Range<usize>| {
            RowsBlock::windows(vec![ColumnWindow::new(buffer, rows)])
        };
        let window = block(&buffer, 1..4);
        assert_eq!(window, RowsBlock::new(vec![vec![1.0, 2.0, 3.0]]));
        assert_eq!(window.column(0), &[1.0, 2.0, 3.0]);
        assert_ne!(window, block(&buffer, 0..3));
        let other = Arc::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(window, block(&other, 0..3));
    }

    #[test]
    fn row_at_is_positional() {
        let block = RowsBlock::new(vec![vec![10.0, 20.0, 30.0]]);
        assert_eq!(block.row_at(0).unwrap(), 10.0);
        assert_eq!(block.row_at(2).unwrap(), 30.0);
        assert!(matches!(block.row_at(3), Err(StorageError::Empty)));
    }

    #[test]
    fn trait_object_forwarding() {
        let block: Arc<dyn DataBlock> = Arc::new(RowsBlock::new(vec![vec![7.0]]));
        assert_eq!(block.len(), 1);
        let by_ref: &dyn DataBlock = &block;
        assert_eq!(by_ref.len(), 1);
        assert!(by_ref.supports_scan());
    }
}
