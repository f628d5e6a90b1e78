//! The sampling-phase accumulator (paper Algorithm 1).
//!
//! Every drawn sample is classified against the data boundaries; S and L
//! samples are folded into the `paramS` / `paramL` power sums
//! (`{counter, sum, squareSum, cubeSum}`) and then dropped. This is what
//! makes ISLA storage-free and order-insensitive: the objective function
//! is built from the power sums alone, which are invariant under
//! permutation of the sampling sequence.

use std::cell::RefCell;

use isla_stats::PowerSums;

use crate::boundaries::{DataBoundaries, Region, FOLD_LANE};

/// One S lane and one L lane of [`DataBoundaries::partition`] output.
type FoldLanes = ([f64; FOLD_LANE], [f64; FOLD_LANE]);

thread_local! {
    // `offer_slice`'s partition scratch, kept per thread as the storage
    // kernels keep their sample buffers: a fold runs once per block,
    // group and batch, and zero-filling 4 KB on every call cost as much
    // as folding a small batch. Only the first `ns`/`nl` slots a
    // partition writes are ever read, so stale contents are harmless.
    static FOLD_LANES: RefCell<FoldLanes> =
        const { RefCell::new(([0.0; FOLD_LANE], [0.0; FOLD_LANE])) };
}

/// Accumulated sampling-phase state for one block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleAccumulator {
    boundaries: DataBoundaries,
    param_s: PowerSums,
    param_l: PowerSums,
    total_offered: u64,
}

impl SampleAccumulator {
    /// Creates an empty accumulator over the given boundaries.
    pub fn new(boundaries: DataBoundaries) -> Self {
        Self {
            boundaries,
            param_s: PowerSums::new(),
            param_l: PowerSums::new(),
            total_offered: 0,
        }
    }

    /// Classifies one sample, folding it into the matching region's power
    /// sums (Algorithm 1 lines 4–12). Returns the region for diagnostics.
    ///
    /// The single-value API, for callers that meet samples one at a time
    /// (online rounds, diagnostics); batch consumers use
    /// [`SampleAccumulator::offer_slice`].
    #[inline]
    pub fn offer(&mut self, value: f64) -> Region {
        self.total_offered += 1;
        let region = self.boundaries.classify(value);
        match region {
            Region::Small => self.param_s.update(value),
            Region::Large => self.param_l.update(value),
            _ => {} // "Drop a" — TS, N, TL samples are discarded.
        }
        region
    }

    /// Folds a whole slice of samples, each translated by `+shift` —
    /// the engine's per-batch entry point, and the same state, bit for
    /// bit, as `for v in values { self.offer(v + shift) }`.
    ///
    /// Each lane of 256 values is first partitioned into its S and L
    /// members with branch-free compare-and-advance stores (the same
    /// open/closed endpoints as [`DataBoundaries::classify`]; NaN lands
    /// in neither), then each region's power sums run over its lane in
    /// a tight loop. Why that is bit-neutral:
    /// `paramS` and `paramL` are separate accumulators, so only the
    /// order of values *within* a region can matter, and the partition
    /// preserves it.
    pub fn offer_slice(&mut self, values: &[f64], shift: f64) {
        FOLD_LANES.with_borrow_mut(|(s, l)| {
            for lane in values.chunks(FOLD_LANE) {
                let (ns, nl) = self.boundaries.partition(lane, shift, s, l);
                for &v in &s[..ns] {
                    self.param_s.update(v);
                }
                for &v in &l[..nl] {
                    self.param_l.update(v);
                }
            }
        });
        self.total_offered += values.len() as u64;
    }

    /// Merges another accumulator (same boundaries) into this one.
    ///
    /// This is the online-aggregation primitive of paper §VII-A: a new
    /// round of sampling produces a fresh accumulator that is merged into
    /// the persisted one.
    ///
    /// # Panics
    ///
    /// Panics if the boundaries differ — merging across different data
    /// divisions is meaningless.
    pub fn merge(&mut self, other: &SampleAccumulator) {
        assert_eq!(
            self.boundaries, other.boundaries,
            "cannot merge accumulators over different data boundaries"
        );
        self.param_s.merge(&other.param_s);
        self.param_l.merge(&other.param_l);
        self.total_offered += other.total_offered;
    }

    /// The boundaries this accumulator classifies against.
    pub fn boundaries(&self) -> &DataBoundaries {
        &self.boundaries
    }

    /// `paramS`: power sums of the S samples.
    pub fn param_s(&self) -> &PowerSums {
        &self.param_s
    }

    /// `paramL`: power sums of the L samples.
    pub fn param_l(&self) -> &PowerSums {
        &self.param_l
    }

    /// `u = |S|`.
    pub fn u(&self) -> u64 {
        self.param_s.count()
    }

    /// `v = |L|`.
    pub fn v(&self) -> u64 {
        self.param_l.count()
    }

    /// Total samples offered, including discarded ones.
    pub fn total_offered(&self) -> u64 {
        self.total_offered
    }

    /// The deviation degree `dev = |S|/|L|`, or `None` when `|L| = 0`.
    pub fn dev(&self) -> Option<f64> {
        (self.v() > 0).then(|| self.u() as f64 / self.v() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_accumulator() -> SampleAccumulator {
        // Paper §IV-B Example 1 boundaries.
        SampleAccumulator::new(DataBoundaries::new(6.2, 1.0, 1.0, 3.0))
    }

    #[test]
    fn paper_example_moments() {
        let mut acc = paper_accumulator();
        for v in [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 15.0] {
            acc.offer(v);
        }
        assert_eq!(acc.total_offered(), 8);
        // S = {4, 5}: Σ=9, Σ²=41, Σ³=189.
        assert_eq!(acc.u(), 2);
        assert_eq!(acc.param_s().sum(), 9.0);
        assert_eq!(acc.param_s().sum_sq(), 41.0);
        assert_eq!(acc.param_s().sum_cube(), 189.0);
        // L = {8}: Σ=8, Σ²=64, Σ³=512.
        assert_eq!(acc.v(), 1);
        assert_eq!(acc.param_l().sum(), 8.0);
        assert_eq!(acc.param_l().sum_sq(), 64.0);
        assert_eq!(acc.param_l().sum_cube(), 512.0);
        assert_eq!(acc.dev(), Some(2.0));
    }

    #[test]
    fn order_insensitivity() {
        // The paper's motivating robustness claim: permuting the sampling
        // sequence leaves the accumulated state identical.
        let samples = [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 15.0];
        let mut forward = paper_accumulator();
        let mut backward = paper_accumulator();
        for &v in &samples {
            forward.offer(v);
        }
        for &v in samples.iter().rev() {
            backward.offer(v);
        }
        assert_eq!(forward.param_s(), backward.param_s());
        assert_eq!(forward.param_l(), backward.param_l());
    }

    #[test]
    fn merge_equals_sequential_offers() {
        let samples = [2.0, 4.0, 5.0, 8.0, 8.5, 15.0, 6.0];
        let mut whole = paper_accumulator();
        for &v in &samples {
            whole.offer(v);
        }
        let mut left = paper_accumulator();
        let mut right = paper_accumulator();
        for &v in &samples[..3] {
            left.offer(v);
        }
        for &v in &samples[3..] {
            right.offer(v);
        }
        left.merge(&right);
        assert_eq!(left.param_s(), whole.param_s());
        assert_eq!(left.param_l(), whole.param_l());
        assert_eq!(left.total_offered(), whole.total_offered());
    }

    #[test]
    #[should_panic(expected = "different data boundaries")]
    fn merge_rejects_mismatched_boundaries() {
        let mut a = paper_accumulator();
        let b = SampleAccumulator::new(DataBoundaries::new(0.0, 1.0, 0.5, 2.0));
        a.merge(&b);
    }

    #[test]
    fn dev_none_when_l_empty() {
        let mut acc = paper_accumulator();
        acc.offer(4.0); // S only
        assert_eq!(acc.dev(), None);
        assert_eq!(acc.u(), 1);
        assert_eq!(acc.v(), 0);
    }

    #[test]
    fn offer_reports_regions() {
        let mut acc = paper_accumulator();
        assert_eq!(acc.offer(4.0), Region::Small);
        assert_eq!(acc.offer(8.0), Region::Large);
        assert_eq!(acc.offer(6.0), Region::Normal);
        assert_eq!(acc.offer(0.0), Region::TooSmall);
        assert_eq!(acc.offer(99.0), Region::TooLarge);
        // Discarded regions leave the params untouched.
        assert_eq!(acc.u() + acc.v(), 2);
        assert_eq!(acc.total_offered(), 5);
    }
}
