//! The iterative modulation scheme (paper Section V-D and Algorithm 2).
//!
//! The objective `D = μ̂ − sketch` is driven to zero geometrically: each
//! iteration shrinks it to `η·D` by solving, for the signed steps
//! `kδα` (movement of the l-estimator) and `δsketch`,
//!
//! ```text
//! kδα − δsketch = (η − 1)·D          (the shrink requirement)
//! min(|kδα|, |δsketch|) = λ·max(…)   (the step-length factor)
//! ```
//!
//! with the direction pattern fixed by the modulation case:
//!
//! * **chase** (Cases 1/4, estimators on the same side of `µ`): both move
//!   in the same direction, the l-estimator faster
//!   (`δsketch = λ·kδα`);
//! * **converge** (Cases 2/3, `µ` between the estimators): they move
//!   toward each other, the l-estimator slower (`|kδα| = λ·|δsketch|`).
//!
//! Because `D` shrinks geometrically, the loop terminates after
//! `⌈log(|D₀|/thr) / log(1/η)⌉` iterations (paper's upper bound), with
//! [`MAX_ITERATIONS`] as a safety net.

use crate::config::{IslaConfig, ModulationStyle, MAX_ITERATIONS};
use crate::deviation::ModulationCase;
use crate::estimator::LinearEstimator;

/// One recorded iteration (diagnostics; enabled by
/// [`IslaConfig::record_trace`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStep {
    /// Objective value before the step.
    pub d: f64,
    /// Signed movement of the l-estimator, `k·δα`.
    pub k_delta_alpha: f64,
    /// Signed movement of the sketch estimator.
    pub delta_sketch: f64,
    /// Leverage degree after the step.
    pub alpha: f64,
    /// Sketch value after the step.
    pub sketch: f64,
}

/// The result of running the modulation loop for one block.
#[derive(Debug, Clone, PartialEq)]
pub struct ModulationOutcome {
    /// The block's aggregation answer `k·α + c` (or `sketch0` for
    /// Case 5), before any interval clamping.
    pub answer: f64,
    /// Final leverage degree `α`.
    pub alpha: f64,
    /// Final sketch value.
    pub sketch: f64,
    /// Iterations executed.
    pub iterations: u32,
    /// The case that drove the strategy.
    pub case: ModulationCase,
    /// True when the loop exited because `|D| ≤ thr` (false only when the
    /// safety cap fired).
    pub converged: bool,
    /// Per-iteration trace when requested.
    pub trace: Option<Vec<IterationStep>>,
}

/// Closed-form upper bound on the number of iterations,
/// `⌈log(|D₀|/thr) / log(1/η)⌉` (paper Section VI-B).
pub fn iteration_bound(d0: f64, threshold: f64, eta: f64) -> u32 {
    if d0.abs() <= threshold {
        return 0;
    }
    ((d0.abs() / threshold).ln() / (1.0 / eta).ln()).ceil() as u32
}

/// Signed steps `(kδα, δsketch)` for the current objective value `d`.
fn step_lengths(
    d: f64,
    case: ModulationCase,
    degenerate_k: bool,
    config: &IslaConfig,
) -> (f64, f64) {
    let shrink = (1.0 - config.eta) * d; // total required |ΔD|, signed
    if degenerate_k {
        // The l-estimator cannot move; the sketch does all the closing:
        // D_new = D − δsketch = ηD ⇒ δsketch = (1−η)D.
        return (0.0, shrink);
    }
    let lambda = config.lambda;
    match case {
        ModulationCase::Balanced => (0.0, 0.0),
        ModulationCase::ChaseUp | ModulationCase::ChaseDown => {
            // Same direction, l-estimator faster: δsketch = λ·kδα,
            // kδα(1−λ) = (η−1)D.
            let k_da = -shrink / (1.0 - lambda);
            (k_da, lambda * k_da)
        }
        ModulationCase::ConvergeUp if config.modulation_style == ModulationStyle::PaperLiteral => {
            // §V-C prose: both increase, sketch faster (kδα = λ·δsketch):
            // δs(λ−1) = (η−1)D ⇒ δs = (1−η)D/(1−λ) > 0 for D > 0.
            let ds = shrink / (1.0 - lambda);
            (lambda * ds, ds)
        }
        ModulationCase::ConvergeDown | ModulationCase::ConvergeUp => {
            // Toward each other: kδα = −λ·(1−η)·D/(1+λ),
            // δsketch = +(1−η)·D/(1+λ).
            let ds = shrink / (1.0 + lambda);
            (-lambda * ds, ds)
        }
    }
}

/// Runs Algorithm 2's iteration phase.
///
/// `sketch0` is the block's initial sketch value; `estimator` carries the
/// Theorem-3 coefficients. The case must come from
/// [`crate::deviation::assess`] on the same inputs.
pub fn iterate(
    estimator: &LinearEstimator,
    sketch0: f64,
    case: ModulationCase,
    config: &IslaConfig,
) -> ModulationOutcome {
    let mut trace = config.record_trace.then(Vec::new);
    if case == ModulationCase::Balanced {
        // Case 5: sketch0 is already a proper answer.
        return ModulationOutcome {
            answer: sketch0,
            alpha: 0.0,
            sketch: sketch0,
            iterations: 0,
            case,
            converged: true,
            trace,
        };
    }

    let degenerate = estimator.is_degenerate();
    let mut alpha = 0.0_f64;
    let mut sketch = sketch0;
    let mut d = estimator.c - sketch0; // D₀ (α starts at 0 so μ̂ = c)
    let mut iterations = 0;
    while d.abs() > config.threshold && iterations < MAX_ITERATIONS {
        let (k_da, ds) = step_lengths(d, case, degenerate, config);
        if !degenerate {
            alpha += k_da / estimator.k;
        }
        sketch += ds;
        if let Some(t) = trace.as_mut() {
            t.push(IterationStep {
                d,
                k_delta_alpha: k_da,
                delta_sketch: ds,
                alpha,
                sketch,
            });
        }
        d *= config.eta;
        iterations += 1;
    }

    ModulationOutcome {
        answer: estimator.evaluate(alpha),
        alpha,
        sketch,
        iterations,
        case,
        converged: d.abs() <= config.threshold,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IslaConfig;

    fn cfg() -> IslaConfig {
        IslaConfig::builder().threshold(1e-9).build().unwrap()
    }

    fn estimator(k: f64, c: f64) -> LinearEstimator {
        LinearEstimator { k, c }
    }

    #[test]
    fn balanced_returns_sketch_unchanged() {
        let out = iterate(
            &estimator(1.0, 105.0),
            100.0,
            ModulationCase::Balanced,
            &cfg(),
        );
        assert_eq!(out.answer, 100.0);
        assert_eq!(out.alpha, 0.0);
        assert_eq!(out.iterations, 0);
        assert!(out.converged);
    }

    /// Converge cases meet at `c − λ·D₀/(1+λ)`: the l-estimator keeps
    /// `1/(1+λ)` of its initial gap advantage.
    #[test]
    fn converge_meeting_point_closed_form() {
        let config = cfg();
        let lam = config.lambda;
        // Case 2: c < sketch0 (D₀ < 0) with u > v.
        let est = estimator(0.7, 99.0);
        let out = iterate(&est, 100.0, ModulationCase::ConvergeDown, &config);
        let d0 = est.c - 100.0;
        let want = est.c - lam * d0 / (1.0 + lam);
        assert!(
            (out.answer - want).abs() < 1e-6,
            "answer {} want {want}",
            out.answer
        );
        // The meeting point lies strictly between c and sketch0.
        assert!(out.answer > est.c && out.answer < 100.0);
        // Case 3 mirrors it.
        let est3 = estimator(0.7, 101.0);
        let out3 = iterate(&est3, 100.0, ModulationCase::ConvergeUp, &config);
        let want3 = est3.c - lam * (est3.c - 100.0) / (1.0 + lam);
        assert!((out3.answer - want3).abs() < 1e-6);
        assert!(out3.answer < est3.c && out3.answer > 100.0);
    }

    /// Chase cases extrapolate to `c − D₀/(1−λ)`, past the sketch, in the
    /// direction of the presumed `µ`.
    #[test]
    fn chase_meeting_point_closed_form() {
        let config = cfg();
        let lam = config.lambda;
        // Case 1: c < sketch0 < µ; both increase past sketch0.
        let est = estimator(0.5, 99.5);
        let out = iterate(&est, 100.0, ModulationCase::ChaseUp, &config);
        let d0 = est.c - 100.0;
        let want = est.c - d0 / (1.0 - lam);
        assert!((out.answer - want).abs() < 1e-6);
        assert!(out.answer > 100.0, "chase must pass the sketch");
        // Case 4: c > sketch0 > µ; α ends negative.
        let est4 = estimator(0.5, 100.5);
        let out4 = iterate(&est4, 100.0, ModulationCase::ChaseDown, &config);
        assert!(out4.answer < 100.0);
        assert!(out4.alpha < 0.0, "case 4 balances with a negative α");
    }

    #[test]
    fn paper_literal_case3_extrapolates_upward() {
        let config = IslaConfig::builder()
            .threshold(1e-9)
            .modulation_style(ModulationStyle::PaperLiteral)
            .build()
            .unwrap();
        let est = estimator(0.7, 101.0);
        let out = iterate(&est, 100.0, ModulationCase::ConvergeUp, &config);
        let d0 = est.c - 100.0;
        let want = est.c + config.lambda * d0 / (1.0 - config.lambda);
        assert!(
            (out.answer - want).abs() < 1e-6,
            "answer {} want {want}",
            out.answer
        );
        assert!(out.answer > est.c, "paper-literal case 3 moves past c");
    }

    #[test]
    fn sketch_and_estimator_meet_at_termination() {
        let config = cfg();
        for (case, c) in [
            (ModulationCase::ConvergeDown, 99.0),
            (ModulationCase::ConvergeUp, 101.0),
            (ModulationCase::ChaseUp, 99.0),
            (ModulationCase::ChaseDown, 101.0),
        ] {
            let est = estimator(0.9, c);
            let out = iterate(&est, 100.0, case, &config);
            assert!(out.converged, "{case:?}");
            assert!(
                (out.answer - out.sketch).abs() <= 2.0 * config.threshold + 1e-9,
                "{case:?}: answer {} sketch {}",
                out.answer,
                out.sketch
            );
        }
    }

    #[test]
    fn iteration_count_matches_closed_form_bound() {
        let config = cfg();
        let est = estimator(1.0, 101.0);
        let out = iterate(&est, 100.0, ModulationCase::ConvergeUp, &config);
        let bound = iteration_bound(est.c - 100.0, config.threshold, config.eta);
        assert_eq!(out.iterations, bound, "η=0.5 halves D exactly per step");
        assert_eq!(bound, 30, "log2(1.0/1e-9) = 29.9 → 30");
    }

    #[test]
    fn below_threshold_needs_no_iteration() {
        let config = cfg();
        let est = estimator(1.0, 100.0 + 1e-12);
        let out = iterate(&est, 100.0, ModulationCase::ConvergeUp, &config);
        assert_eq!(out.iterations, 0);
        assert!(out.converged);
        assert!((out.answer - est.c).abs() < 1e-12);
        assert_eq!(iteration_bound(1e-12, config.threshold, config.eta), 0);
    }

    #[test]
    fn safety_cap_fires_and_is_reported() {
        // |D| halves per iteration: from 1 to 1e-300 takes ~1000, so the
        // cap fires first.
        let config = IslaConfig::builder().threshold(1e-300).build().unwrap();
        let out = iterate(
            &estimator(1.0, 101.0),
            100.0,
            ModulationCase::ConvergeUp,
            &config,
        );
        assert_eq!(out.iterations, MAX_ITERATIONS);
        assert!(!out.converged);
    }

    #[test]
    fn degenerate_k_moves_only_the_sketch() {
        let config = cfg();
        let est = estimator(0.0, 101.0);
        let out = iterate(&est, 100.0, ModulationCase::ConvergeUp, &config);
        assert_eq!(out.alpha, 0.0);
        assert_eq!(out.answer, est.c, "answer stays at c when α cannot act");
        assert!((out.sketch - est.c).abs() < 1e-6, "sketch walks to c");
        assert!(out.converged);
    }

    #[test]
    fn trace_records_every_iteration() {
        let config = IslaConfig::builder()
            .threshold(1e-3)
            .record_trace(true)
            .build()
            .unwrap();
        let est = estimator(1.0, 101.0);
        let out = iterate(&est, 100.0, ModulationCase::ConvergeUp, &config);
        let trace = out.trace.expect("trace requested");
        assert_eq!(trace.len(), out.iterations as usize);
        // d halves every step.
        for w in trace.windows(2) {
            assert!((w[1].d - w[0].d * config.eta).abs() < 1e-12);
        }
        // Converge-up: sketch strictly increases, α strictly decreases.
        for w in trace.windows(2) {
            assert!(w[1].sketch > w[0].sketch);
            assert!(w[1].alpha < w[0].alpha);
        }
    }

    /// The answer is invariant to the magnitude of k: α rescales inversely
    /// so k·α (the movement) is identical. This is the reparametrization
    /// property discussed in DESIGN.md.
    #[test]
    fn answer_invariant_to_k_magnitude() {
        let config = cfg();
        let a = iterate(
            &estimator(0.1, 101.0),
            100.0,
            ModulationCase::ConvergeUp,
            &config,
        );
        let b = iterate(
            &estimator(10.0, 101.0),
            100.0,
            ModulationCase::ConvergeUp,
            &config,
        );
        assert!((a.answer - b.answer).abs() < 1e-9);
        assert!((a.alpha - b.alpha * 100.0).abs() < 1e-9, "α scales as 1/k");
    }
}
