//! Text-file blocks: one decimal value per line.
//!
//! This is the storage layout of the paper's own experiments: "The
//! generated data are stored in '.txt' files, where each line records a
//! data point. While reading a line, data are handled directly."
//!
//! Opening a block builds a line-offset index (one `u64` per row) so that
//! uniform random sampling is a single positioned read rather than a file
//! scan. Positioned reads use `read_at` on Unix, so samplers on different
//! threads never contend on a seek cursor.

use std::fs::File;
use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::block::DataBlock;
use crate::error::StorageError;
use crate::kernel::{gather_ascending, ChunkedLane};

/// Maximum plausible length of one serialized value, used to size the
/// sampling read buffer.
const MAX_LINE_LEN: usize = 64;

/// A read-only block backed by a newline-delimited text file.
pub struct TextBlock {
    path: PathBuf,
    file: File,
    /// Byte offset of the start of each line, plus a final sentinel equal
    /// to the file length, so line `i` spans `offsets[i]..offsets[i+1]`.
    offsets: Vec<u64>,
}

impl std::fmt::Debug for TextBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TextBlock")
            .field("path", &self.path)
            .field("rows", &self.len())
            .finish()
    }
}

impl TextBlock {
    /// Opens a text block, validating and indexing every line.
    ///
    /// # Errors
    ///
    /// I/O errors, and [`StorageError::Parse`] if any line is not a finite
    /// `f64`. Validation at open time means sampling can trust the file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StorageError> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path).map_err(|source| StorageError::Io {
            path: Some(path.clone()),
            source,
        })?;
        let mut reader = BufReader::new(&file);
        let mut offsets = vec![0u64];
        let mut line = String::new();
        let mut pos = 0u64;
        let mut line_no = 0u64;
        loop {
            line.clear();
            let n = reader
                .read_line(&mut line)
                .map_err(|source| StorageError::Io {
                    path: Some(path.clone()),
                    source,
                })?;
            if n == 0 {
                break;
            }
            line_no += 1;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                // Allow a trailing blank line but nothing else.
                if reader.fill_buf().map(|b| b.is_empty()).unwrap_or(true) {
                    break;
                }
                return Err(StorageError::Parse {
                    path,
                    line: line_no,
                    content: String::new(),
                });
            }
            match trimmed.parse::<f64>() {
                Ok(v) if v.is_finite() => {}
                _ => {
                    return Err(StorageError::Parse {
                        path,
                        line: line_no,
                        content: trimmed.chars().take(32).collect(),
                    });
                }
            }
            pos += n as u64;
            offsets.push(pos);
        }
        Ok(Self {
            path,
            file,
            offsets,
        })
    }

    /// Writes `values` to `path` in text-block format (one value per line)
    /// and returns the opened block.
    ///
    /// Values are written with `{:?}`-style shortest round-trip formatting,
    /// so reading back reproduces the exact `f64`s.
    ///
    /// # Errors
    ///
    /// I/O errors from creating or writing the file.
    pub fn create(path: impl AsRef<Path>, values: &[f64]) -> Result<Self, StorageError> {
        let path = path.as_ref();
        let wrap = |source: std::io::Error| StorageError::Io {
            path: Some(path.to_path_buf()),
            source,
        };
        let file = File::create(path).map_err(wrap)?;
        let mut out = std::io::BufWriter::new(file);
        for v in values {
            debug_assert!(v.is_finite(), "text blocks hold finite values");
            writeln!(out, "{v:?}").map_err(wrap)?;
        }
        out.flush().map_err(wrap)?;
        drop(out);
        Self::open(path)
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads and parses the line at `row`.
    fn read_row(&self, row: usize) -> Result<f64, StorageError> {
        let start = self.offsets[row];
        let end = self.offsets[row + 1];
        let len = ((end - start) as usize).min(MAX_LINE_LEN);
        let mut buf = [0u8; MAX_LINE_LEN];
        read_exact_at(&self.file, &mut buf[..len], start).map_err(|source| StorageError::Io {
            path: Some(self.path.clone()),
            source,
        })?;
        let text = std::str::from_utf8(&buf[..len])
            .map_err(|_| self.parse_error(row, &buf[..len]))?
            .trim();
        text.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or_else(|| self.parse_error(row, text.as_bytes()))
    }

    fn parse_error(&self, row: usize, raw: &[u8]) -> StorageError {
        StorageError::Parse {
            path: self.path.clone(),
            line: row as u64 + 1,
            content: String::from_utf8_lossy(raw).chars().take(32).collect(),
        }
    }
}

/// Positioned read that does not disturb any shared cursor.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

/// Portable fallback: clone the handle and seek it independently.
#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Seek, SeekFrom};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

impl DataBlock for TextBlock {
    fn len(&self) -> u64 {
        (self.offsets.len() - 1) as u64
    }

    fn gather(
        &self,
        columns: &[usize],
        indices: &[u64],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        // Ascending line offsets keep a batch of point reads within the
        // page cache's sequential sweet spot.
        gather_ascending(self.len(), columns, indices, out, |idx| {
            self.read_row(idx as usize)
        })
    }

    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        let io = |source| StorageError::Io {
            path: Some(self.path.clone()),
            source,
        };
        let mut file = self.file.try_clone().map_err(io)?;
        file.seek(SeekFrom::Start(0)).map_err(io)?;
        let mut reader = BufReader::new(file);
        let mut lane = ChunkedLane::new(columns, visit);
        let mut line = String::new();
        let mut row = 0u64;
        loop {
            line.clear();
            let n = reader.read_line(&mut line).map_err(io)?;
            if n == 0 || line.trim().is_empty() {
                break;
            }
            row += 1;
            let v = line
                .trim()
                .parse::<f64>()
                .map_err(|_| StorageError::Parse {
                    path: self.path.clone(),
                    line: row,
                    content: line.trim().chars().take(32).collect(),
                })?;
            lane.push(v);
        }
        lane.flush();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockReads;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("isla-storage-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trip_create_open_scan() {
        let path = temp_path("roundtrip.txt");
        let values = vec![1.5, -2.25, 1e-3, 123456.789, 0.1 + 0.2];
        let block = TextBlock::create(&path, &values).unwrap();
        assert_eq!(block.len(), 5);
        let mut got = Vec::new();
        block.scan(&mut |v| got.push(v)).unwrap();
        assert_eq!(got, values, "shortest round-trip formatting is lossless");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sampling_reads_correct_rows() {
        let path = temp_path("sample.txt");
        let values: Vec<f64> = (0..100).map(|i| i as f64 * 10.0).collect();
        let block = TextBlock::create(&path, &values).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            let v = block.sample_one(&mut rng).unwrap();
            assert!(values.contains(&v), "sampled value {v} not in block");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn row_at_reads_positionally() {
        let path = temp_path("rowat.txt");
        let values: Vec<f64> = (0..50).map(|i| i as f64 * 3.0).collect();
        let block = TextBlock::create(&path, &values).unwrap();
        assert_eq!(block.row_at(0).unwrap(), 0.0);
        assert_eq!(block.row_at(49).unwrap(), 147.0);
        assert!(matches!(block.row_at(50), Err(StorageError::Empty)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_malformed_line() {
        let path = temp_path("bad.txt");
        std::fs::write(&path, "1.0\nnot-a-number\n3.0\n").unwrap();
        let err = TextBlock::open(&path).unwrap_err();
        match err {
            StorageError::Parse { line, content, .. } => {
                assert_eq!(line, 2);
                assert_eq!(content, "not-a-number");
            }
            other => panic!("expected parse error, got {other}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_non_finite_value() {
        let path = temp_path("inf.txt");
        std::fs::write(&path, "1.0\ninf\n").unwrap();
        assert!(matches!(
            TextBlock::open(&path),
            Err(StorageError::Parse { line: 2, .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = TextBlock::open("/nonexistent/isla/block.txt").unwrap_err();
        assert!(matches!(err, StorageError::Io { .. }));
    }

    #[test]
    fn empty_file_is_empty_block() {
        let path = temp_path("empty.txt");
        std::fs::write(&path, "").unwrap();
        let block = TextBlock::open(&path).unwrap();
        assert!(block.is_empty());
        let mut rng = StdRng::seed_from_u64(4);
        assert!(matches!(
            block.sample_one(&mut rng),
            Err(StorageError::Empty)
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn handles_file_without_trailing_newline() {
        let path = temp_path("notrail.txt");
        std::fs::write(&path, "1.0\n2.0").unwrap();
        let block = TextBlock::open(&path).unwrap();
        assert_eq!(block.len(), 2);
        let mut got = Vec::new();
        block.scan(&mut |v| got.push(v)).unwrap();
        assert_eq!(got, vec![1.0, 2.0]);
        std::fs::remove_file(&path).unwrap();
    }
}
