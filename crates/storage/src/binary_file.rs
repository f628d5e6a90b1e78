//! Binary-file blocks: a compact fixed-width format for large datasets.
//!
//! Layout (little-endian):
//!
//! ```text
//! offset 0   magic  b"ISLB"           (4 bytes)
//! offset 4   version u16 = 1          (2 bytes)
//! offset 6   reserved u16 = 0         (2 bytes)
//! offset 8   row count u64            (8 bytes)
//! offset 16  rows: count × f64        (8 bytes each)
//! ```
//!
//! Fixed-width rows make uniform random sampling a single positioned read
//! with no index. Encoding/decoding goes through the `bytes` crate.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::block::DataBlock;
use crate::error::StorageError;
use crate::kernel::{gather_ascending, ChunkedLane, SCAN_CHUNK_ROWS};

const MAGIC: &[u8; 4] = b"ISLB";
const VERSION: u16 = 1;
const HEADER_LEN: u64 = 16;
const ROW_LEN: u64 = 8;

/// A read-only block backed by a fixed-width binary file.
pub struct BinaryBlock {
    path: PathBuf,
    file: File,
    rows: u64,
}

impl std::fmt::Debug for BinaryBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinaryBlock")
            .field("path", &self.path)
            .field("rows", &self.rows)
            .finish()
    }
}

/// Encodes the header for `rows` rows.
fn encode_header(rows: u64) -> Bytes {
    let mut header = BytesMut::with_capacity(HEADER_LEN as usize);
    header.put_slice(MAGIC);
    header.put_u16_le(VERSION);
    header.put_u16_le(0);
    header.put_u64_le(rows);
    header.freeze()
}

impl BinaryBlock {
    /// Opens a binary block, validating the header and the payload length.
    ///
    /// # Errors
    ///
    /// I/O errors, and [`StorageError::Corrupt`] for bad magic, unsupported
    /// version, or a payload that disagrees with the declared row count.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StorageError> {
        let path = path.as_ref().to_path_buf();
        let wrap = |source: std::io::Error| StorageError::Io {
            path: Some(path.clone()),
            source,
        };
        let file = File::open(&path).map_err(wrap)?;
        let meta = file.metadata().map_err(wrap)?;
        if meta.len() < HEADER_LEN {
            return Err(StorageError::Corrupt {
                path,
                detail: format!("file too short for header: {} bytes", meta.len()),
            });
        }
        let mut header = [0u8; HEADER_LEN as usize];
        read_exact_at(&file, &mut header, 0).map_err(wrap)?;
        let mut buf = &header[..];
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(StorageError::Corrupt {
                path,
                detail: format!("bad magic {magic:?}"),
            });
        }
        let version = buf.get_u16_le();
        if version != VERSION {
            return Err(StorageError::Corrupt {
                path,
                detail: format!("unsupported version {version}"),
            });
        }
        let _reserved = buf.get_u16_le();
        let rows = buf.get_u64_le();
        let expected = HEADER_LEN + rows * ROW_LEN;
        if meta.len() != expected {
            return Err(StorageError::Corrupt {
                path,
                detail: format!(
                    "payload length mismatch: header declares {rows} rows ({expected} bytes), file has {} bytes",
                    meta.len()
                ),
            });
        }
        Ok(Self { path, file, rows })
    }

    /// Writes `values` to `path` in binary-block format and returns the
    /// opened block.
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
        out.write_all(&encode_header(values.len() as u64))
            .map_err(wrap)?;
        let mut chunk = BytesMut::with_capacity(8192);
        for v in values {
            debug_assert!(v.is_finite(), "binary blocks hold finite values");
            chunk.put_f64_le(*v);
            if chunk.len() >= 8192 {
                out.write_all(&chunk).map_err(wrap)?;
                chunk.clear();
            }
        }
        out.write_all(&chunk).map_err(wrap)?;
        out.flush().map_err(wrap)?;
        drop(out);
        Self::open(path)
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn read_row(&self, row: u64) -> Result<f64, StorageError> {
        let mut buf = [0u8; ROW_LEN as usize];
        read_exact_at(&self.file, &mut buf, HEADER_LEN + row * ROW_LEN).map_err(|source| {
            StorageError::Io {
                path: Some(self.path.clone()),
                source,
            }
        })?;
        Ok((&buf[..]).get_f64_le())
    }
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

impl DataBlock for BinaryBlock {
    fn len(&self) -> u64 {
        self.rows
    }

    fn gather(
        &self,
        columns: &[usize],
        indices: &[u64],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        // Ascending file offsets turn a batch of random point reads into
        // a near-sequential pass over the file.
        gather_ascending(self.rows, columns, indices, out, |idx| self.read_row(idx))
    }

    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        let mut lane = ChunkedLane::new(columns, visit);
        let mut buf = vec![0u8; SCAN_CHUNK_ROWS * ROW_LEN as usize];
        let mut row = 0u64;
        while row < self.rows {
            let n = (self.rows - row).min(SCAN_CHUNK_ROWS as u64);
            let slice = &mut buf[..(n * ROW_LEN) as usize];
            read_exact_at(&self.file, slice, HEADER_LEN + row * ROW_LEN).map_err(|source| {
                StorageError::Io {
                    path: Some(self.path.clone()),
                    source,
                }
            })?;
            let mut cursor: &[u8] = slice;
            for _ in 0..n {
                lane.push(cursor.get_f64_le());
            }
            row += n;
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
        p.push(format!("isla-binblock-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let path = temp_path("roundtrip.blk");
        let values: Vec<f64> = (0..20_000).map(|i| (i as f64).sin() * 1e6).collect();
        let block = BinaryBlock::create(&path, &values).unwrap();
        assert_eq!(block.len(), 20_000);
        let mut got = Vec::with_capacity(values.len());
        block.scan(&mut |v| got.push(v)).unwrap();
        assert_eq!(got, values);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sampling_reads_valid_rows() {
        let path = temp_path("sample.blk");
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let block = BinaryBlock::create(&path, &values).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let v = block.sample_one(&mut rng).unwrap();
            assert!((0.0..1000.0).contains(&v) && v.fract() == 0.0);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn row_at_reads_positionally() {
        let path = temp_path("rowat.blk");
        let values: Vec<f64> = (0..100).map(|i| i as f64 + 0.5).collect();
        let block = BinaryBlock::create(&path, &values).unwrap();
        assert_eq!(block.row_at(0).unwrap(), 0.5);
        assert_eq!(block.row_at(99).unwrap(), 99.5);
        assert!(matches!(block.row_at(100), Err(StorageError::Empty)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_bad_magic() {
        let path = temp_path("badmagic.blk");
        std::fs::write(
            &path,
            b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00",
        )
        .unwrap();
        assert!(matches!(
            BinaryBlock::open(&path),
            Err(StorageError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_truncated_payload() {
        let path = temp_path("trunc.blk");
        // Header declares 10 rows but no payload follows.
        let mut data = Vec::new();
        data.extend_from_slice(MAGIC);
        data.extend_from_slice(&VERSION.to_le_bytes());
        data.extend_from_slice(&0u16.to_le_bytes());
        data.extend_from_slice(&10u64.to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        let err = BinaryBlock::open(&path).unwrap_err();
        assert!(err.to_string().contains("payload length mismatch"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_short_file_and_bad_version() {
        let path = temp_path("short.blk");
        std::fs::write(&path, b"ISLB").unwrap();
        assert!(matches!(
            BinaryBlock::open(&path),
            Err(StorageError::Corrupt { .. })
        ));
        let mut data = Vec::new();
        data.extend_from_slice(MAGIC);
        data.extend_from_slice(&9u16.to_le_bytes());
        data.extend_from_slice(&0u16.to_le_bytes());
        data.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        let err = BinaryBlock::open(&path).unwrap_err();
        assert!(err.to_string().contains("unsupported version"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_block_round_trip() {
        let path = temp_path("empty.blk");
        let block = BinaryBlock::create(&path, &[]).unwrap();
        assert!(block.is_empty());
        let mut rng = StdRng::seed_from_u64(6);
        assert!(matches!(
            block.sample_one(&mut rng),
            Err(StorageError::Empty)
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
