//! The leverage strategy (paper Section IV): deviation scores, region
//! leverage sums, the allocation parameter `q`, and normalization.
//!
//! For a sample `aᵢ` among the S∪L samples, the deviation score is
//! `hᵢ = aᵢ²/Σa²` (the same score the algorithmic-leveraging literature
//! uses to flag influential points). S samples get the leverage score
//! `1 − hᵢ`, L samples `hᵢ` — in both regions this assigns *larger*
//! leverage to values farther from the middle axis, which carry more
//! information about the distribution's shape.
//!
//! Raw scores are then normalized against two constraints:
//!
//! * **Theorem 2**: the leverages of all participating samples sum to 1
//!   (required for the re-weighted probabilities to sum to 1);
//! * **Constraint 2**: the leverage sums of the S and L regions satisfy
//!   `levSum_S / levSum_L = q·u/v`, proportional to the region counts and
//!   adjusted by the allocation parameter `q` which counteracts a deviated
//!   `sketch0` (Section IV-A.4).

use isla_stats::PowerSums;

use crate::boundaries::Region;
use crate::config::{IslaConfig, Q_MODERATE_HI, Q_NEUTRAL_HI};

/// Picks the leverage-allocation parameter `q` from the deviation degree
/// `dev = |S|/|L|` (paper Section IV-A.4).
///
/// * `dev` within the neutral band → `q = 1`;
/// * moderate deviation → `q′ = q_moderate` (default 5);
/// * strong deviation → `q′ = q_strong` (default 10);
/// * `|S| > |L|` (dev > 1) shrinks the S allocation (`q = 1/q′`),
///   otherwise the L allocation (`q = q′`).
pub fn determine_q(dev: f64, config: &IslaConfig) -> f64 {
    debug_assert!(dev > 0.0, "dev must be positive, got {dev}");
    // Express the deviation symmetrically: max(dev, 1/dev) > 1.
    let magnitude = if dev >= 1.0 { dev } else { 1.0 / dev };
    let q_prime = if magnitude <= Q_NEUTRAL_HI {
        return 1.0;
    } else if magnitude <= Q_MODERATE_HI {
        config.q_moderate
    } else {
        config.q_strong
    };
    if dev > 1.0 {
        1.0 / q_prime
    } else {
        q_prime
    }
}

/// The normalized leverage allocation over one block's S/L samples.
///
/// Stores the normalization factors of the paper's Appendix A:
///
/// * `fac_S = (u + v/q)(1 − Σx²/(u·T₂))`
/// * `fac_L = (q·u/v + 1)(Σy²/T₂)`
///
/// where `T₂ = Σx² + Σy²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeverageAllocation {
    q: f64,
    t2: f64,
    fac_s: f64,
    fac_l: f64,
    u: u64,
    v: u64,
}

impl LeverageAllocation {
    /// Builds the allocation from the region power sums and `q`.
    ///
    /// Returns `None` when the allocation is undefined: either region is
    /// empty, or the S/L values are not strictly positive in aggregate
    /// (`Σx² = 0` or `Σy² = 0`), which the shift policy is supposed to
    /// prevent.
    // `!(x > 0.0)` deliberately treats NaN as invalid; `x <= 0.0` would not.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn new(param_s: &PowerSums, param_l: &PowerSums, q: f64) -> Option<Self> {
        let (u, v) = (param_s.count(), param_l.count());
        if u == 0 || v == 0 {
            return None;
        }
        let t2 = param_s.sum_sq() + param_l.sum_sq();
        if !(t2 > 0.0) || !(param_l.sum_sq() > 0.0) || !(q > 0.0) {
            return None;
        }
        let (uf, vf) = (u as f64, v as f64);
        let fac_s = (uf + vf / q) * (1.0 - param_s.sum_sq() / (uf * t2));
        let fac_l = (q * uf / vf + 1.0) * (param_l.sum_sq() / t2);
        if !(fac_s > 0.0) || !(fac_l > 0.0) {
            return None;
        }
        Some(Self {
            q,
            t2,
            fac_s,
            fac_l,
            u,
            v,
        })
    }

    /// The allocation parameter `q` in effect.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// `T₂ = Σx² + Σy²` over the S∪L samples.
    pub fn t2(&self) -> f64 {
        self.t2
    }

    /// The S normalization factor.
    pub fn fac_s(&self) -> f64 {
        self.fac_s
    }

    /// The L normalization factor.
    pub fn fac_l(&self) -> f64 {
        self.fac_l
    }

    /// Theoretical (target) leverage sum of the S region:
    /// `q·u / (q·u + v)`.
    pub fn lev_sum_s(&self) -> f64 {
        let (u, v) = (self.u as f64, self.v as f64);
        self.q * u / (self.q * u + v)
    }

    /// Theoretical (target) leverage sum of the L region:
    /// `v / (q·u + v)`.
    pub fn lev_sum_l(&self) -> f64 {
        let (u, v) = (self.u as f64, self.v as f64);
        v / (self.q * u + v)
    }

    /// The raw (un-normalized) leverage score of a participating sample.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `region` does not participate.
    pub fn original_leverage(&self, value: f64, region: Region) -> f64 {
        let h = value * value / self.t2;
        match region {
            Region::Small => 1.0 - h,
            Region::Large => h,
            _ => {
                debug_assert!(false, "only S/L samples carry leverages");
                0.0
            }
        }
    }

    /// The normalized leverage of a participating sample
    /// (raw leverage divided by the region's normalization factor).
    pub fn normalized_leverage(&self, value: f64, region: Region) -> f64 {
        let raw = self.original_leverage(value, region);
        match region {
            Region::Small => raw / self.fac_s,
            Region::Large => raw / self.fac_l,
            _ => 0.0,
        }
    }

    /// The re-weighted probability of a participating sample
    /// (paper Eq. 2): `prob = α·lev + (1 − α)/(u + v)`.
    pub fn probability(&self, value: f64, region: Region, alpha: f64) -> f64 {
        let uniform = 1.0 / (self.u + self.v) as f64;
        alpha * self.normalized_leverage(value, region) + (1.0 - alpha) * uniform
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_example_params() -> (PowerSums, PowerSums) {
        // Paper §IV-B Example 1 / Table II: S = {4, 5}, L = {8}.
        let param_s: PowerSums = [4.0, 5.0].into_iter().collect();
        let param_l: PowerSums = [8.0].into_iter().collect();
        (param_s, param_l)
    }

    #[test]
    fn table_ii_normalization_factors() {
        let (s, l) = paper_example_params();
        let alloc = LeverageAllocation::new(&s, &l, 1.0).unwrap();
        assert_eq!(alloc.t2(), 105.0);
        // Fac_S = 169/70, Fac_L = 64/35 (Table II).
        assert!((alloc.fac_s() - 169.0 / 70.0).abs() < 1e-12);
        assert!((alloc.fac_l() - 64.0 / 35.0).abs() < 1e-12);
    }

    #[test]
    fn table_ii_leverages_and_probabilities() {
        let (s, l) = paper_example_params();
        let alloc = LeverageAllocation::new(&s, &l, 1.0).unwrap();
        // OriLev: 89/105, 16/21, 64/105 (Table II).
        assert!((alloc.original_leverage(4.0, Region::Small) - 89.0 / 105.0).abs() < 1e-12);
        assert!((alloc.original_leverage(5.0, Region::Small) - 16.0 / 21.0).abs() < 1e-12);
        assert!((alloc.original_leverage(8.0, Region::Large) - 64.0 / 105.0).abs() < 1e-12);
        // NorLev: 178/507, 160/507, 1/3 (Table II).
        assert!((alloc.normalized_leverage(4.0, Region::Small) - 178.0 / 507.0).abs() < 1e-12);
        assert!((alloc.normalized_leverage(5.0, Region::Small) - 160.0 / 507.0).abs() < 1e-12);
        assert!((alloc.normalized_leverage(8.0, Region::Large) - 1.0 / 3.0).abs() < 1e-12);
        // Prob at α = 0.1 accumulates to 5.66489…, which the paper prints
        // rounded as 5.67.
        let alpha = 0.1;
        let answer = 4.0 * alloc.probability(4.0, Region::Small, alpha)
            + 5.0 * alloc.probability(5.0, Region::Small, alpha)
            + 8.0 * alloc.probability(8.0, Region::Large, alpha);
        assert!(
            (answer - 5.664891518737672).abs() < 1e-12,
            "answer {answer}"
        );
    }

    #[test]
    fn theorem_2_probabilities_sum_to_one() {
        let (s, l) = paper_example_params();
        for q in [1.0, 0.2, 5.0] {
            let alloc = LeverageAllocation::new(&s, &l, q).unwrap();
            for alpha in [-0.5, 0.0, 0.1, 0.9] {
                let total = alloc.probability(4.0, Region::Small, alpha)
                    + alloc.probability(5.0, Region::Small, alpha)
                    + alloc.probability(8.0, Region::Large, alpha);
                assert!(
                    (total - 1.0).abs() < 1e-12,
                    "q={q} α={alpha}: Σprob = {total}"
                );
            }
        }
    }

    #[test]
    fn constraint_2_region_sums() {
        let (s, l) = paper_example_params();
        for q in [1.0, 0.2, 5.0, 10.0] {
            let alloc = LeverageAllocation::new(&s, &l, q).unwrap();
            let sum_s = alloc.normalized_leverage(4.0, Region::Small)
                + alloc.normalized_leverage(5.0, Region::Small);
            let sum_l = alloc.normalized_leverage(8.0, Region::Large);
            // levSum_S / levSum_L = q·u/v with u=2, v=1.
            assert!(
                (sum_s / sum_l - q * 2.0).abs() < 1e-9,
                "q={q}: ratio {}",
                sum_s / sum_l
            );
            assert!((sum_s - alloc.lev_sum_s()).abs() < 1e-12);
            assert!((sum_l - alloc.lev_sum_l()).abs() < 1e-12);
            assert!((alloc.lev_sum_s() + alloc.lev_sum_l() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn farther_values_get_larger_leverage() {
        // S region: smaller value (farther from center) → larger leverage.
        let (s, l) = paper_example_params();
        let alloc = LeverageAllocation::new(&s, &l, 1.0).unwrap();
        assert!(
            alloc.original_leverage(4.0, Region::Small)
                > alloc.original_leverage(5.0, Region::Small)
        );
        // L region: larger value (farther from center) → larger leverage.
        let param_l2: PowerSums = [8.0, 9.0].into_iter().collect();
        let alloc2 = LeverageAllocation::new(&s, &param_l2, 1.0).unwrap();
        assert!(
            alloc2.original_leverage(9.0, Region::Large)
                > alloc2.original_leverage(8.0, Region::Large)
        );
    }

    #[test]
    fn allocation_undefined_for_empty_regions() {
        let (s, _) = paper_example_params();
        let empty = PowerSums::new();
        assert!(LeverageAllocation::new(&s, &empty, 1.0).is_none());
        assert!(LeverageAllocation::new(&empty, &s, 1.0).is_none());
        assert!(LeverageAllocation::new(&empty, &empty, 1.0).is_none());
    }

    #[test]
    fn allocation_undefined_for_nonpositive_q_or_zero_squares() {
        let (s, l) = paper_example_params();
        assert!(LeverageAllocation::new(&s, &l, 0.0).is_none());
        assert!(LeverageAllocation::new(&s, &l, -1.0).is_none());
        let zeros: PowerSums = [0.0, 0.0].into_iter().collect();
        assert!(
            LeverageAllocation::new(&s, &zeros, 1.0).is_none(),
            "Σy² = 0 must be rejected"
        );
    }

    #[test]
    fn q_tiers_follow_paper_bands() {
        let cfg = IslaConfig::default();
        // Neutral band (up to 1.03 either way).
        assert_eq!(determine_q(1.0, &cfg), 1.0);
        assert_eq!(determine_q(1.02, &cfg), 1.0);
        assert_eq!(determine_q(0.98, &cfg), 1.0);
        // Moderate band: dev ∈ (0.94,0.97)∪(1.03,1.06) → q′ = 5.
        assert_eq!(determine_q(1.05, &cfg), 1.0 / 5.0, "|S|>|L| shrinks S");
        assert_eq!(determine_q(0.95, &cfg), 5.0, "|S|<|L| boosts S target");
        // Strong: beyond 1.06 → q′ = 10.
        assert_eq!(determine_q(1.2, &cfg), 1.0 / 10.0);
        assert_eq!(determine_q(0.8, &cfg), 10.0);
    }
}
