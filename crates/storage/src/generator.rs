//! Virtual generator blocks: the documented stand-in for datasets too
//! large to materialize.
//!
//! The paper's data-size experiment runs up to 10¹² rows (1 TB of text).
//! ISLA never reads more than `m = z²σ²/e²` rows of such a dataset — the
//! sample size is independent of the data size — so for i.i.d. synthetic
//! data the block does not need to exist on disk at all: sampling a block
//! populated i.i.d. from distribution `D` is, by definition, drawing
//! i.i.d. values from `D`. A [`GeneratorBlock`] therefore carries a
//! distribution plus a *declared* row count and synthesizes samples on
//! demand, exercising exactly the same downstream code path (classify →
//! fold into moments → iterate) as a materialized block.
//!
//! Scans are supported only up to a configurable cap (default 2²⁷ rows):
//! ground truths for generator-backed datasets come from the
//! distribution's closed-form mean, not from scanning. A scan, when
//! permitted, is deterministic in the block's seed.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use isla_stats::distributions::Distribution;

use crate::block::DataBlock;
use crate::error::StorageError;
use crate::kernel::{assert_width_one, ChunkedLane};

/// Default maximum number of rows a [`GeneratorBlock`] scan will produce.
pub const DEFAULT_SCAN_CAP: u64 = 1 << 27;

/// SplitMix64 finalizer, used to derive per-row seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A virtual block of `len` i.i.d. rows from a distribution.
pub struct GeneratorBlock {
    dist: Arc<dyn Distribution>,
    len: u64,
    /// Seed controlling the (deterministic) scan stream.
    scan_seed: u64,
    scan_cap: u64,
}

impl std::fmt::Debug for GeneratorBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GeneratorBlock")
            .field("rows", &self.len)
            .field("scan_seed", &self.scan_seed)
            .finish()
    }
}

impl GeneratorBlock {
    /// Creates a virtual block of `len` rows drawn from `dist`.
    ///
    /// `scan_seed` fixes the content observed by a scan so a
    /// generator block behaves like an (unmaterialized) concrete dataset.
    pub fn new(dist: Arc<dyn Distribution>, len: u64, scan_seed: u64) -> Self {
        Self {
            dist,
            len,
            scan_seed,
            scan_cap: DEFAULT_SCAN_CAP,
        }
    }

    /// Overrides the scan cap (rows). Mostly for tests.
    pub fn with_scan_cap(mut self, cap: u64) -> Self {
        self.scan_cap = cap;
        self
    }

    /// The distribution populating this block.
    pub fn distribution(&self) -> &Arc<dyn Distribution> {
        &self.dist
    }

    /// The exact mean of the populating distribution — the ground truth
    /// for accuracy experiments over this block.
    pub fn true_mean(&self) -> f64 {
        self.dist.mean()
    }
}

impl DataBlock for GeneratorBlock {
    fn len(&self) -> u64 {
        self.len
    }

    fn gather(
        &self,
        columns: &[usize],
        indices: &[u64],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        assert_width_one(columns);
        let w = columns.len();
        for (j, &idx) in indices.iter().enumerate() {
            if idx >= self.len {
                return Err(StorageError::Empty);
            }
            // Deterministic row content: mix (seed, idx) into a one-shot
            // RNG so every read of the same virtual row agrees.
            let mixed = splitmix64(self.scan_seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            // isla-lint: allow(determinism, reason = "content derivation, not an engine stream: a virtual row is a pure function of (block seed, idx)")
            let mut rng = StdRng::seed_from_u64(mixed);
            out[j * w..(j + 1) * w].fill(self.dist.sample(&mut rng));
        }
        Ok(())
    }

    fn draw(
        &self,
        rng: &mut dyn RngCore,
        columns: &[usize],
        indices: &mut [u64],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        // Sampling an i.i.d.-populated block is drawing from its
        // distribution: one sample per row, no index.
        assert_width_one(columns);
        if self.len == 0 {
            return Err(StorageError::Empty);
        }
        let w = columns.len();
        for j in 0..indices.len() {
            out[j * w..(j + 1) * w].fill(self.dist.sample(rng));
        }
        Ok(())
    }

    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        if self.len > self.scan_cap {
            return Err(StorageError::ScanUnsupported {
                len: self.len,
                detail: format!(
                    "virtual block exceeds the scan cap of {} rows; use the distribution's closed-form mean as ground truth",
                    self.scan_cap
                ),
            });
        }
        let mut lane = ChunkedLane::new(columns, visit);
        // isla-lint: allow(determinism, reason = "content derivation, not an engine stream: the scan replays the block's fixed virtual contents")
        let mut rng = StdRng::seed_from_u64(self.scan_seed);
        for _ in 0..self.len {
            lane.push(self.dist.sample(&mut rng));
        }
        lane.flush();
        Ok(())
    }

    fn supports_scan(&self) -> bool {
        self.len <= self.scan_cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockReads;
    use isla_stats::distributions::Normal;
    use rand::rngs::StdRng;

    fn block(len: u64) -> GeneratorBlock {
        GeneratorBlock::new(Arc::new(Normal::new(100.0, 20.0)), len, 42)
    }

    #[test]
    fn sampling_matches_distribution_mean() {
        let b = block(1_000_000_000_000); // one trillion virtual rows
        assert_eq!(b.len(), 1_000_000_000_000);
        let mut rng = StdRng::seed_from_u64(9);
        let mut sum = 0.0;
        let n = 50_000;
        for _ in 0..n {
            sum += b.sample_one(&mut rng).unwrap();
        }
        let mean = sum / n as f64;
        assert!((mean - 100.0).abs() < 0.5, "sample mean {mean}");
    }

    #[test]
    fn scan_is_deterministic_and_capped() {
        let b = block(1000);
        let mut first = Vec::new();
        b.scan(&mut |v| first.push(v)).unwrap();
        let mut second = Vec::new();
        b.scan(&mut |v| second.push(v)).unwrap();
        assert_eq!(first, second, "scan must be deterministic in the seed");
        assert_eq!(first.len(), 1000);

        let big = block(10).with_scan_cap(5);
        assert!(!big.supports_scan());
        assert!(matches!(
            big.scan(&mut |_| {}),
            Err(StorageError::ScanUnsupported { len: 10, .. })
        ));
    }

    #[test]
    fn empty_virtual_block() {
        let b = block(0);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(b.sample_one(&mut rng), Err(StorageError::Empty)));
        assert!(b.is_empty());
    }

    #[test]
    fn exposes_ground_truth() {
        assert_eq!(block(10).true_mean(), 100.0);
    }

    #[test]
    fn row_at_is_deterministic_and_plausible() {
        let b = block(1_000_000);
        let v1 = b.row_at(123_456).unwrap();
        let v2 = b.row_at(123_456).unwrap();
        assert_eq!(v1, v2, "virtual rows must be stable");
        assert_ne!(v1, b.row_at(123_457).unwrap());
        // Row values follow the distribution: mean over many rows ≈ µ.
        let mean: f64 = (0..20_000).map(|i| b.row_at(i).unwrap()).sum::<f64>() / 20_000.0;
        assert!((mean - 100.0).abs() < 1.0, "row mean {mean}");
        assert!(matches!(b.row_at(1_000_000), Err(StorageError::Empty)));
    }
}
