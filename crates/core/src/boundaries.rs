//! Data boundaries and regions (paper Section IV-A.1).
//!
//! ISLA divides the value domain into five regions around the sketch
//! estimator, following the "3σ rule" but stopping at `p2σ` (data beyond
//! `±2σ` "count for a limited proportion … and are too far away from the
//! middle axis"):
//!
//! ```text
//!   TooSmall   |   Small   |   Normal    |   Large   |  TooLarge
//! ─────────────┼───────────┼─────────────┼───────────┼────────────→
//!        c − p2σ      c − p1σ       c + p1σ      c + p2σ      (c = sketch0)
//! ```
//!
//! Only S and L samples participate in the aggregation: they are
//! "featured enough to represent the whole distribution" while excluding
//! both the over-weighted center and the outlier tails.

/// The five regions of the data division.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// `(−∞, c − p2σ]` — low outliers, discarded.
    TooSmall,
    /// `(c − p2σ, c − p1σ)` — the S region, participates in aggregation.
    Small,
    /// `[c − p1σ, c + p1σ]` — the central region, discarded (its mass is
    /// implied by the S/L shape).
    Normal,
    /// `(c + p1σ, c + p2σ)` — the L region, participates in aggregation.
    Large,
    /// `[c + p2σ, +∞)` — high outliers, discarded (their influence on AVG
    /// is exactly what the leverage scheme eliminates).
    TooLarge,
}

impl Region {
    /// Whether samples in this region participate in the aggregation.
    #[inline]
    pub fn participates(self) -> bool {
        matches!(self, Region::Small | Region::Large)
    }
}

/// Values per lane of the slice fold (`DataBoundaries::partition`):
/// two lanes of this size are 4 KiB of stack, and a lane's S/L members
/// are still in L1 when the power sums run over them.
pub(crate) const FOLD_LANE: usize = 256;

/// The concrete cut points for a given `sketch0` and `σ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataBoundaries {
    center: f64,
    sigma: f64,
    p1: f64,
    p2: f64,
    // Precomputed cuts, in increasing order.
    ts_upper: f64,
    s_upper: f64,
    n_upper: f64,
    l_upper: f64,
}

impl DataBoundaries {
    /// Builds boundaries around `center` (= `sketch0`) with scale `sigma`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p1 < p2`, `sigma > 0`, and `center` is finite —
    /// boundary construction is internal to the pipeline, which validates
    /// configuration up front.
    pub fn new(center: f64, sigma: f64, p1: f64, p2: f64) -> Self {
        assert!(center.is_finite(), "boundary center must be finite");
        assert!(sigma > 0.0 && sigma.is_finite(), "sigma must be positive");
        assert!(0.0 < p1 && p1 < p2 && p2.is_finite(), "need 0 < p1 < p2");
        Self {
            center,
            sigma,
            p1,
            p2,
            ts_upper: center - p2 * sigma,
            s_upper: center - p1 * sigma,
            n_upper: center + p1 * sigma,
            l_upper: center + p2 * sigma,
        }
    }

    /// Classifies a value into its region.
    ///
    /// Endpoint conventions follow the paper exactly: TS is closed above,
    /// S and L are open, N is closed, TL is closed below.
    #[inline]
    pub fn classify(&self, v: f64) -> Region {
        if v <= self.ts_upper {
            Region::TooSmall
        } else if v < self.s_upper {
            Region::Small
        } else if v <= self.n_upper {
            Region::Normal
        } else if v < self.l_upper {
            Region::Large
        } else {
            Region::TooLarge
        }
    }

    /// Splits one lane of at most `FOLD_LANE` values, each translated
    /// by `+shift`, into its S and L members, in order: the S values
    /// land at the front of `s`, the L values at the front of `l`, and
    /// the two counts are returned. Everything else is dropped.
    ///
    /// This is [`DataBoundaries::classify`] for a slice, written as
    /// compare-and-advance stores instead of a five-way branch: every
    /// value is stored to both lanes' write positions and each position
    /// advances only when the value is inside that region, so there is
    /// no data-dependent branch for the predictor to miss (a region test
    /// on sampled data is a coin flip). The tests are the paper's
    /// endpoints exactly — S and L are open intervals — and a NaN fails
    /// all four comparisons, so it lands in neither lane, as `classify`
    /// sends it to a discarded region.
    ///
    /// # Panics
    ///
    /// Panics if `values` is longer than `FOLD_LANE`.
    #[inline]
    pub(crate) fn partition(
        &self,
        values: &[f64],
        shift: f64,
        s: &mut [f64; FOLD_LANE],
        l: &mut [f64; FOLD_LANE],
    ) -> (usize, usize) {
        assert!(values.len() <= FOLD_LANE, "lane too long");
        let (mut ns, mut nl) = (0usize, 0usize);
        for &raw in values {
            let v = raw + shift;
            // `ns`/`nl` count earlier members only, so both stay below
            // `values.len()` at every store.
            s[ns] = v;
            ns += usize::from((v > self.ts_upper) & (v < self.s_upper));
            l[nl] = v;
            nl += usize::from((v > self.n_upper) & (v < self.l_upper));
        }
        (ns, nl)
    }

    /// The boundary center (`sketch0`).
    #[inline]
    pub fn center(&self) -> f64 {
        self.center
    }

    /// The scale `σ` the boundaries were built with.
    #[inline]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Lower edge of the S region, `center − p2σ`.
    ///
    /// All participating (S/L) values exceed this, so the leverage score
    /// monotonicity precondition ("all the data are positive") holds
    /// exactly when this edge is non-negative — see
    /// [`crate::shift`].
    #[inline]
    pub fn s_lower(&self) -> f64 {
        self.ts_upper
    }

    /// Upper edge of the L region, `center + p2σ`.
    #[inline]
    pub fn l_upper(&self) -> f64 {
        self.l_upper
    }

    /// Returns these boundaries translated by `+d` (for the negative-data
    /// shift of the paper's footnote 1).
    pub fn shifted(&self, d: f64) -> Self {
        Self::new(self.center + d, self.sigma, self.p1, self.p2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper §IV-B Example 1: sketch0 = 6.2, p1σ = 1, p2σ = 3 ⇒
    /// S = (3.2, 5.2), L = (7.2, 9.2).
    fn example_boundaries() -> DataBoundaries {
        DataBoundaries::new(6.2, 1.0, 1.0, 3.0)
    }

    #[test]
    fn paper_example_classification() {
        let b = example_boundaries();
        // Sample set {2, 3, 4, 5, 6, 7, 8, 15}: only 4 and 5 are S, 8 is L.
        assert_eq!(b.classify(2.0), Region::TooSmall);
        assert_eq!(b.classify(3.0), Region::TooSmall); // 3.0 ≤ 3.2
        assert_eq!(b.classify(4.0), Region::Small);
        assert_eq!(b.classify(5.0), Region::Small);
        assert_eq!(b.classify(6.0), Region::Normal);
        assert_eq!(b.classify(7.0), Region::Normal); // 7.0 ≤ 7.2
        assert_eq!(b.classify(8.0), Region::Large);
        assert_eq!(b.classify(15.0), Region::TooLarge);
    }

    #[test]
    fn endpoint_conventions() {
        let b = example_boundaries();
        assert_eq!(b.classify(3.2), Region::TooSmall, "TS is closed above");
        assert_eq!(b.classify(3.2 + 1e-12), Region::Small, "S is open below");
        assert_eq!(b.classify(5.2), Region::Normal, "N is closed below");
        assert_eq!(b.classify(7.2), Region::Normal, "N is closed above");
        assert_eq!(b.classify(9.2), Region::TooLarge, "TL is closed below");
        assert_eq!(b.classify(9.2 - 1e-12), Region::Large, "L is open above");
    }

    #[test]
    fn partition_keeps_classify_semantics_at_every_cut_point() {
        let b = example_boundaries();
        let cuts = [3.2, 5.2, 7.2, 9.2];
        let mut values = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
        for c in cuts {
            values.extend([c - 1e-12, c, c + 1e-12]);
        }
        values.extend([2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 15.0]);
        for shift in [0.0, 1.5, -2.0] {
            let (mut s, mut l) = ([0.0; FOLD_LANE], [0.0; FOLD_LANE]);
            let (ns, nl) = b.partition(&values, shift, &mut s, &mut l);
            let shifted = values.iter().map(|v| v + shift);
            let want = |region| -> Vec<u64> {
                shifted
                    .clone()
                    .filter(|&v| b.classify(v) == region)
                    .map(f64::to_bits)
                    .collect()
            };
            let bits = |lane: &[f64]| lane.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&s[..ns]), want(Region::Small), "shift {shift}");
            assert_eq!(bits(&l[..nl]), want(Region::Large), "shift {shift}");
        }
    }

    #[test]
    fn only_s_and_l_participate() {
        assert!(Region::Small.participates());
        assert!(Region::Large.participates());
        assert!(!Region::TooSmall.participates());
        assert!(!Region::Normal.participates());
        assert!(!Region::TooLarge.participates());
    }

    #[test]
    fn shifted_boundaries_translate_classification() {
        let b = example_boundaries();
        let s = b.shifted(100.0);
        assert_eq!(s.center(), 106.2);
        assert_eq!(s.classify(104.0), Region::Small);
        assert_eq!(s.classify(108.0), Region::Large);
        assert_eq!(b.sigma(), s.sigma());
    }

    #[test]
    fn accessors() {
        let b = example_boundaries();
        assert!((b.s_lower() - 3.2).abs() < 1e-12);
        assert!((b.l_upper() - 9.2).abs() < 1e-12);
        assert_eq!(b.center(), 6.2);
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn rejects_zero_sigma() {
        let _ = DataBoundaries::new(0.0, 0.0, 0.5, 2.0);
    }

    #[test]
    #[should_panic(expected = "need 0 < p1 < p2")]
    fn rejects_inverted_ps() {
        let _ = DataBoundaries::new(0.0, 1.0, 2.0, 0.5);
    }
}
