//! Deviation evaluation and modulation-case selection (paper Section V-B/C).
//!
//! Two indicators drive the modulation strategy:
//!
//! * the sign of `D₀ = c − sketch0` (which estimator starts higher);
//! * the relation of `|S|` and `|L|`: by the symmetry of the S/L windows,
//!   `|S| < |L|` indicates `sketch0 < µ` and `|S| > |L|` indicates
//!   `sketch0 > µ` (the boundary windows slide with `sketch0`, tilting
//!   the region masses — Fig. 5 of the paper).
//!
//! Crossing the two indicators yields the paper's five cases. Note the
//! paper's prose in §V-B(1) states the `|S|`/`|L|` → direction mapping
//! backwards; the mapping used here is the one its own Cases 1–4 and
//! Fig. 5 require (see `DESIGN.md`, "paper errata").

use crate::config::BALANCE_BAND;

/// The five modulation cases of paper Section V-C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModulationCase {
    /// Case 1 — `D₀<0, |S|<|L|`: `c < sketch0 < µ`. Unbalanced sampling;
    /// both estimators increase, the l-estimator faster.
    ChaseUp,
    /// Case 2 — `D₀<0, |S|>|L|`: `c, µ < sketch0`. Sketch decreases, the
    /// l-estimator is nudged up; they converge between the two.
    ConvergeDown,
    /// Case 3 — `D₀>0, |S|<|L|`: `c, µ > sketch0`. Mirror image of
    /// Case 2: sketch increases toward the l-estimator.
    ConvergeUp,
    /// Case 4 — `D₀>0, |S|>|L|`: `c > sketch0 > µ`. Unbalanced sampling;
    /// both decrease, the l-estimator faster (`α` goes negative).
    ChaseDown,
    /// Case 5 — `|S| ≈ |L|`: `sketch0` is already close to `µ`; return it
    /// without iterating.
    Balanced,
}

impl ModulationCase {
    /// The case number used in the paper (1–5).
    pub fn paper_number(self) -> u8 {
        match self {
            ModulationCase::ChaseUp => 1,
            ModulationCase::ConvergeDown => 2,
            ModulationCase::ConvergeUp => 3,
            ModulationCase::ChaseDown => 4,
            ModulationCase::Balanced => 5,
        }
    }

    /// Whether the case moves both estimators in the same direction
    /// (Fig. 1's "estimators on the same side" geometry).
    pub fn is_chase(self) -> bool {
        matches!(self, ModulationCase::ChaseUp | ModulationCase::ChaseDown)
    }
}

/// The evaluated deviation indicators for one block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviationAssessment {
    /// `dev = |S|/|L|` (infinite when `|L| = 0`).
    pub dev: f64,
    /// Initial objective value `D₀ = c − sketch0`.
    pub d0: f64,
    /// The selected modulation case.
    pub case: ModulationCase,
}

/// Selects the modulation case from the region counts and `D₀`.
///
/// `u`/`v` are the S/L sample counts; callers guarantee both are positive
/// (empty regions are handled by the fallback path before assessment).
pub fn assess(u: u64, v: u64, d0: f64) -> DeviationAssessment {
    debug_assert!(u > 0 && v > 0, "assessment requires non-empty regions");
    let dev = u as f64 / v as f64;
    let (lo, hi) = BALANCE_BAND;
    let case = if dev > lo && dev < hi {
        ModulationCase::Balanced
    } else if d0 == 0.0 {
        // The estimators already agree; nothing to modulate.
        ModulationCase::Balanced
    } else {
        match (d0 < 0.0, u < v) {
            (true, true) => ModulationCase::ChaseUp,
            (true, false) => ModulationCase::ConvergeDown,
            (false, true) => ModulationCase::ConvergeUp,
            (false, false) => ModulationCase::ChaseDown,
        }
    };
    DeviationAssessment { dev, d0, case }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_table_matches_paper() {
        // (u, v, d0) → expected case, straight from §V-C.
        let cases = [
            (90u64, 110u64, -1.0, ModulationCase::ChaseUp), // 1
            (110, 90, -1.0, ModulationCase::ConvergeDown),  // 2
            (90, 110, 1.0, ModulationCase::ConvergeUp),     // 3
            (110, 90, 1.0, ModulationCase::ChaseDown),      // 4
            (100, 100, 1.0, ModulationCase::Balanced),      // 5
        ];
        for (u, v, d0, want) in cases {
            let got = assess(u, v, d0);
            assert_eq!(got.case, want, "u={u} v={v} d0={d0}");
        }
    }

    #[test]
    fn paper_numbers_and_chase_flag() {
        assert_eq!(ModulationCase::ChaseUp.paper_number(), 1);
        assert_eq!(ModulationCase::ConvergeDown.paper_number(), 2);
        assert_eq!(ModulationCase::ConvergeUp.paper_number(), 3);
        assert_eq!(ModulationCase::ChaseDown.paper_number(), 4);
        assert_eq!(ModulationCase::Balanced.paper_number(), 5);
        assert!(ModulationCase::ChaseUp.is_chase());
        assert!(ModulationCase::ChaseDown.is_chase());
        assert!(!ModulationCase::ConvergeUp.is_chase());
        assert!(!ModulationCase::Balanced.is_chase());
    }

    #[test]
    fn balance_band_is_open() {
        // dev exactly on the band edge is NOT balanced.
        let a = assess(99, 100, 1.0);
        assert_eq!(a.case, ModulationCase::ConvergeUp, "dev=0.99 on edge");
        let b = assess(995, 1000, 1.0);
        assert_eq!(b.case, ModulationCase::Balanced, "dev=0.995 inside");
    }

    #[test]
    fn zero_d0_short_circuits_to_balanced() {
        let a = assess(50, 100, 0.0);
        assert_eq!(a.case, ModulationCase::Balanced);
        assert_eq!(a.d0, 0.0);
        assert_eq!(a.dev, 0.5);
    }

    #[test]
    fn dev_is_reported() {
        let a = assess(120, 100, -0.5);
        assert!((a.dev - 1.2).abs() < 1e-12);
        assert_eq!(a.d0, -0.5);
    }
}
