//! Error type for the storage substrate.

use std::fmt;
use std::path::PathBuf;

/// Errors raised by block storage operations.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O operation failed.
    Io {
        /// The file involved, when known.
        path: Option<PathBuf>,
        /// The OS-level error.
        source: std::io::Error,
    },
    /// A binary block file is malformed (bad magic, truncated payload, …).
    Corrupt {
        /// The file involved.
        path: PathBuf,
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// A full scan was requested on a block that cannot be scanned
    /// (e.g. a virtual [`crate::GeneratorBlock`] beyond its scan cap).
    ScanUnsupported {
        /// Declared length of the block.
        len: u64,
        /// Why the scan is refused.
        detail: String,
    },
    /// A filtered view could not produce a matching row: either
    /// rejection sampling exhausted its attempt budget
    /// ([`crate::RowFilter::MAX_REJECTION_ATTEMPTS`]), or a compiled
    /// selection vector proves the predicate matches nothing. Either
    /// way, the predicate's selectivity is too low to sample.
    SelectivityTooLow {
        /// Rejection attempts made before giving up (0 when a selection
        /// vector established emptiness without sampling).
        attempts: u32,
    },
    /// A block is too long for a compiled selection vector: matching
    /// rows are indexed as `u32`, so blocks beyond `u32::MAX` rows
    /// cannot be compiled without silently truncating indices.
    BlockTooLarge {
        /// Declared length of the offending block.
        rows: u64,
    },
    /// An ingested row was rejected before sealing: wrong width for the
    /// buffer's schema, or a non-finite value (blocks store finite
    /// `f64`s only).
    InvalidRow {
        /// 0-based index of the offending row within the ingest call.
        index: usize,
        /// Why the row was rejected.
        detail: String,
    },
    /// An operation required a non-empty block or block set.
    Empty,
    /// A block is temporarily unreachable — the canonical *transient*
    /// failure (flaky disk, network partition, injected chaos). The
    /// operation may succeed if retried.
    Unavailable {
        /// Which access attempt failed (1-based, counted per block).
        attempt: u32,
        /// Why the block was unreachable.
        detail: String,
    },
    /// A block is permanently gone (device loss, injected chaos). No
    /// retry can recover it; a degradation-aware scheduler drops the
    /// block and widens the answer's confidence interval instead.
    BlockLost {
        /// Why the block is unrecoverable.
        detail: String,
    },
    /// An internal invariant of the storage layer was violated — e.g. a
    /// selection vector claimed completeness but skipped a block. Always
    /// a bug, never bad input.
    Internal(String),
}

impl StorageError {
    /// Whether retrying the failed operation could plausibly succeed.
    ///
    /// Transient classes — [`StorageError::Unavailable`] and raw
    /// [`StorageError::Io`] — model conditions that clear on their own
    /// (a stalled disk, a dropped connection). Everything else is
    /// deterministic about the data or the request: parse errors,
    /// corruption, lost blocks, and invariant violations reproduce on
    /// every retry, so schedulers must treat them as fatal for the
    /// block and degrade instead of spinning.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            StorageError::Unavailable { .. } | StorageError::Io { .. }
        )
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { path, source } => match path {
                Some(p) => write!(f, "i/o error on {}: {source}", p.display()),
                None => write!(f, "i/o error: {source}"),
            },
            StorageError::Corrupt { path, detail } => {
                write!(f, "corrupt block file {}: {detail}", path.display())
            }
            StorageError::ScanUnsupported { len, detail } => {
                write!(f, "cannot scan block of declared length {len}: {detail}")
            }
            StorageError::Internal(msg) => {
                write!(f, "internal storage invariant violated: {msg}")
            }
            StorageError::SelectivityTooLow { attempts } => {
                if *attempts == 0 {
                    write!(
                        f,
                        "no row matches the predicate (its compiled selection is empty)"
                    )
                } else {
                    write!(
                        f,
                        "no row matched the predicate in {attempts} draws; selectivity is effectively zero"
                    )
                }
            }
            StorageError::BlockTooLarge { rows } => write!(
                f,
                "cannot compile a selection vector over {rows} rows: u32 index space exceeded"
            ),
            StorageError::InvalidRow { index, detail } => {
                write!(f, "ingest row {index} rejected: {detail}")
            }
            StorageError::Empty => write!(f, "operation requires a non-empty block"),
            StorageError::Unavailable { attempt, detail } => {
                write!(f, "block unavailable (attempt {attempt}): {detail}")
            }
            StorageError::BlockLost { detail } => {
                write!(f, "block permanently lost: {detail}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(source: std::io::Error) -> Self {
        StorageError::Io { path: None, source }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let io = StorageError::Io {
            path: Some(PathBuf::from("/tmp/x")),
            source: std::io::Error::new(std::io::ErrorKind::NotFound, "missing"),
        };
        assert!(io.to_string().contains("/tmp/x"));
        let scan = StorageError::ScanUnsupported {
            len: 10,
            detail: "virtual".into(),
        };
        assert!(scan.to_string().contains("declared length 10"));
        assert!(StorageError::SelectivityTooLow { attempts: 7 }
            .to_string()
            .contains("7 draws"));
        assert!(StorageError::SelectivityTooLow { attempts: 0 }
            .to_string()
            .contains("no row matches"));
        assert!(StorageError::Empty.to_string().contains("non-empty"));
        assert!(StorageError::BlockTooLarge { rows: u64::MAX }
            .to_string()
            .contains("u32 index space"));
        let corrupt = StorageError::Corrupt {
            path: PathBuf::from("b.blk"),
            detail: "bad magic".into(),
        };
        assert!(corrupt.to_string().contains("bad magic"));
    }

    #[test]
    fn transient_classification() {
        let transient = StorageError::Unavailable {
            attempt: 3,
            detail: "injected".into(),
        };
        assert!(transient.is_transient());
        assert!(transient.to_string().contains("attempt 3"));
        let io: StorageError = std::io::Error::other("flaky").into();
        assert!(io.is_transient());
        let lost = StorageError::BlockLost {
            detail: "device gone".into(),
        };
        assert!(!lost.is_transient());
        assert!(lost.to_string().contains("permanently lost"));
        assert!(!StorageError::Empty.is_transient());
        assert!(!StorageError::Internal("bug".into()).is_transient());
        assert!(!StorageError::SelectivityTooLow { attempts: 1 }.is_transient());
    }

    #[test]
    fn io_error_converts_and_exposes_source() {
        let e: StorageError = std::io::Error::other("boom").into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&StorageError::Empty).is_none());
    }
}
