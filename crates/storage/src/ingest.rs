//! Row ingest buffering: accumulates appended rows and seals them into
//! immutable [`RowsBlock`]s at a configurable row threshold.
//!
//! The sealed block is the unit of incrementality: everything derived —
//! sketches, zone stats, compiled selections, pilot state — attaches to
//! whole blocks, so appends become visible to queries only at seal
//! boundaries. The buffer itself is deliberately dumb storage
//! (column-major pending rows); sealing returns the drained columns as
//! [`SealedRows`] and leaves block construction (which folds the
//! block's sketch) to the caller, so no lock protecting a buffer map
//! needs to be held across that work.

use crate::error::StorageError;
use crate::rows::RowsBlock;

/// Default rows per sealed block when a caller does not configure one.
pub const DEFAULT_ROWS_PER_BLOCK: usize = 8192;

/// The column-major data of one sealed block, drained out of an
/// [`IngestBuffer`]. Rows are validated (width, finiteness) at push
/// time, so conversion into a [`RowsBlock`] cannot fail.
#[derive(Debug, Clone)]
pub struct SealedRows {
    columns: Vec<Vec<f64>>,
}

impl SealedRows {
    /// Number of rows sealed.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Tuple width of the sealed rows.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Builds the immutable block, folding its moment sketch eagerly
    /// (the [`RowsBlock`] constructor does) — seal-time sketch
    /// computation, to be run with no lock held.
    pub fn into_block(self) -> RowsBlock {
        RowsBlock::new(self.columns)
    }
}

/// Accumulates pushed rows and seals a [`SealedRows`] batch every
/// `rows_per_block` rows. One buffer per table; the remainder below the
/// threshold stays pending (not yet visible to queries) until the next
/// seal or an explicit [`IngestBuffer::flush`].
///
/// The pending columns hold room for a whole block from the start and
/// keep it across seals, and every sealed column is exactly as long as
/// its allocation: a block's storage is its rows, not the doubling
/// slack of a growing `Vec`, and a push never regrows a column.
#[derive(Debug)]
pub struct IngestBuffer {
    rows_per_block: usize,
    columns: Vec<Vec<f64>>,
}

impl IngestBuffer {
    /// A buffer for rows of `width` columns, sealing every
    /// `rows_per_block` rows.
    ///
    /// # Panics
    ///
    /// Panics when `width` or `rows_per_block` is zero.
    pub fn new(width: usize, rows_per_block: usize) -> Self {
        assert!(width > 0, "ingest buffer needs at least one column");
        assert!(rows_per_block > 0, "rows per block must be positive");
        Self {
            rows_per_block,
            columns: (0..width)
                .map(|_| Vec::with_capacity(rows_per_block))
                .collect(),
        }
    }

    /// The tuple width rows must have.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// The seal threshold.
    pub fn rows_per_block(&self) -> usize {
        self.rows_per_block
    }

    /// Rows accumulated but not yet sealed.
    pub fn pending_rows(&self) -> usize {
        self.columns[0].len()
    }

    /// Pushes one row; returns the sealed batch when the push filled a
    /// block.
    ///
    /// # Errors
    ///
    /// [`StorageError::InvalidRow`] on a width mismatch or a non-finite
    /// value; the buffer is unchanged then.
    pub fn push_row(&mut self, row: &[f64]) -> Result<Option<SealedRows>, StorageError> {
        let mut sealed = self.push_rows(std::iter::once(row))?;
        debug_assert!(sealed.len() <= 1);
        Ok(sealed.pop())
    }

    /// Pushes rows in order; returns every block sealed along the way
    /// (zero or more), each holding exactly
    /// [`IngestBuffer::rows_per_block`] rows.
    ///
    /// # Errors
    ///
    /// [`StorageError::InvalidRow`] on the first row with a width
    /// mismatch or a non-finite value. Rows before the offending one
    /// remain buffered; nothing seals on error.
    pub fn push_rows<'a>(
        &mut self,
        rows: impl IntoIterator<Item = &'a [f64]>,
    ) -> Result<Vec<SealedRows>, StorageError> {
        let width = self.width();
        for (index, row) in rows.into_iter().enumerate() {
            if row.len() != width {
                return Err(StorageError::InvalidRow {
                    index,
                    detail: format!("expected {} columns, got {}", width, row.len()),
                });
            }
            if let Some(bad) = row.iter().find(|v| !v.is_finite()) {
                return Err(StorageError::InvalidRow {
                    index,
                    detail: format!("non-finite value {bad}"),
                });
            }
            for (col, &v) in self.columns.iter_mut().zip(row) {
                col.push(v);
            }
        }
        let take = self.rows_per_block;
        let blocks = self.pending_rows() / take;
        let mut sealed: Vec<SealedRows> = (0..blocks)
            .map(|_| SealedRows {
                columns: Vec::with_capacity(width),
            })
            .collect();
        for col in &mut self.columns {
            if col.len() == take && col.capacity() == take {
                // Exactly one block in its reserved column: hand the
                // column over and reserve the next.
                let next = Vec::with_capacity(take);
                sealed[0].columns.push(std::mem::replace(col, next));
            } else {
                for (b, block) in sealed.iter_mut().enumerate() {
                    block.columns.push(col[b * take..(b + 1) * take].to_vec());
                }
                col.drain(..blocks * take);
            }
        }
        Ok(sealed)
    }

    /// Seals whatever is pending as one (possibly short) block; `None`
    /// when nothing is pending.
    pub fn flush(&mut self) -> Option<SealedRows> {
        if self.pending_rows() == 0 {
            return None;
        }
        // A copy sized to the short tail; the pending column keeps its
        // block-sized room for the next rows.
        let columns = self
            .columns
            .iter_mut()
            .map(|col| {
                let tail = col.to_vec();
                col.clear();
                tail
            })
            .collect();
        Some(SealedRows { columns })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockReads, DataBlock};

    #[test]
    fn seals_at_the_threshold_and_keeps_the_remainder() {
        let mut buf = IngestBuffer::new(2, 3);
        assert_eq!(buf.pending_rows(), 0);
        assert!(buf.push_row(&[1.0, 10.0]).unwrap().is_none());
        assert!(buf.push_row(&[2.0, 20.0]).unwrap().is_none());
        let sealed = buf
            .push_row(&[3.0, 30.0])
            .unwrap()
            .expect("third row seals");
        assert_eq!(sealed.rows(), 3);
        assert_eq!(buf.pending_rows(), 0);
        let block = sealed.into_block();
        assert_eq!(block.len(), 3);
        assert_eq!(block.width(), 2);
        // A bulk push seals multiple blocks and keeps the tail pending.
        let rows: Vec<[f64; 2]> = (0..7).map(|i| [f64::from(i), 0.0]).collect();
        let sealed = buf.push_rows(rows.iter().map(|r| &r[..])).unwrap();
        assert_eq!(sealed.len(), 2);
        assert!(sealed.iter().all(|s| s.rows() == 3));
        assert_eq!(buf.pending_rows(), 1);
        // Order is preserved across the seal boundary.
        let mut seen = Vec::new();
        for s in sealed {
            let block = s.into_block();
            block.scan_rows(&mut |row| seen.push(row[0])).unwrap();
        }
        assert_eq!(seen, (0..6).map(f64::from).collect::<Vec<_>>());
        let tail = buf.flush().expect("one pending row");
        assert_eq!(tail.rows(), 1);
        assert!(buf.flush().is_none());
    }

    #[test]
    fn rejects_bad_rows_without_sealing() {
        let mut buf = IngestBuffer::new(2, 2);
        buf.push_row(&[1.0, 2.0]).unwrap();
        let err = buf.push_row(&[1.0]).unwrap_err();
        assert!(matches!(err, StorageError::InvalidRow { index: 0, .. }));
        let err = buf.push_row(&[1.0, f64::NAN]).unwrap_err();
        assert!(err.to_string().contains("non-finite"));
        // The good row is still pending; the bad ones left no trace.
        assert_eq!(buf.pending_rows(), 1);
        let sealed = buf.push_row(&[3.0, 4.0]).unwrap().expect("seals now");
        assert_eq!(sealed.rows(), 2);
    }

    #[test]
    fn sealed_columns_are_exactly_their_length() {
        let capacities = |s: &SealedRows| {
            s.columns
                .iter()
                .map(|c| (c.len(), c.capacity()))
                .collect::<Vec<_>>()
        };
        let mut buf = IngestBuffer::new(2, 5);
        let rows: Vec<[f64; 2]> = (0..23).map(|i| [f64::from(i), -f64::from(i)]).collect();
        // One block at a time (the column is handed over), several in
        // one push (copied out), and a short flushed tail.
        let mut sealed = buf.push_rows(rows[..5].iter().map(|r| &r[..])).unwrap();
        sealed.extend(buf.push_rows(rows[5..18].iter().map(|r| &r[..])).unwrap());
        sealed.extend(buf.push_rows(rows[18..20].iter().map(|r| &r[..])).unwrap());
        assert_eq!(sealed.len(), 4);
        for s in &sealed {
            assert_eq!(capacities(s), vec![(5, 5); 2]);
        }
        buf.push_rows(rows[20..].iter().map(|r| &r[..])).unwrap();
        let tail = buf.flush().unwrap();
        assert_eq!(capacities(&tail), vec![(3, 3); 2]);
        // Every row arrives once, in order.
        let mut seen = Vec::new();
        for s in sealed.into_iter().chain([tail]) {
            s.into_block()
                .scan_rows(&mut |row| seen.push(row[0]))
                .unwrap();
        }
        assert_eq!(seen, (0..23).map(f64::from).collect::<Vec<_>>());
        // The pending columns keep a block's room after every seal.
        assert!(buf.columns.iter().all(|c| c.capacity() >= 5));
    }

    #[test]
    #[should_panic(expected = "rows per block")]
    fn rejects_zero_threshold() {
        let _ = IngestBuffer::new(1, 0);
    }
}
