//! Negative-data translation (paper footnote 1).
//!
//! The leverage score `hᵢ = aᵢ²/Σa²` is monotone in the value only for
//! positive data, so the paper translates the distribution "along the x
//! axis by the distance of d to make all the data positive … then
//! move\[s\] back the answer by the distance of d".
//!
//! Only S- and L-region samples ever enter the leverage computation, and
//! every such value exceeds the lower S boundary `sketch0 − p2σ`. A shift
//! is therefore needed exactly when that boundary is too close to zero;
//! data further left (TooSmall region) is discarded regardless of sign.

/// Safety margin, in units of σ, kept between zero and the lower S
/// boundary after shifting. One full σ comfortably covers the sketch
/// estimator's relaxed error (`tₑ·e ≪ σ` in any sane configuration).
const MARGIN_SIGMAS: f64 = 1.0;

/// Computes the translation distance `d ≥ 0`: the smallest `d` that
/// places the lower S boundary at least `MARGIN_SIGMAS`·σ above zero,
/// `d = max(0, (p2 + 1)·σ − sketch0)` — the shift is applied exactly
/// when it is needed.
pub fn compute_shift(sketch0: f64, sigma: f64, p2: f64) -> f64 {
    let s_lower = sketch0 - p2 * sigma;
    let required = MARGIN_SIGMAS * sigma;
    (required - s_lower).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_data_needs_no_shift() {
        // Paper defaults: sketch0 ≈ 100, σ = 20, p2 = 2 ⇒ S lower = 60.
        assert_eq!(compute_shift(100.0, 20.0, 2.0), 0.0);
    }

    #[test]
    fn near_zero_data_is_shifted_clear_of_zero() {
        // Exponential(γ=0.05): mean 20, σ 20, sketch0 ≈ 20:
        // S lower = 20 − 40 = −20 ⇒ shift = 20 − (−20) = 40.
        let d = compute_shift(20.0, 20.0, 2.0);
        assert_eq!(d, 40.0);
        // After shifting, the lower S boundary sits at exactly +σ.
        assert_eq!((20.0 + d) - 2.0 * 20.0, 20.0);
    }

    #[test]
    fn negative_centered_data_is_shifted() {
        let d = compute_shift(-100.0, 10.0, 2.0);
        assert_eq!(d, 130.0);
        assert!((-100.0 + d) - 2.0 * 10.0 >= 10.0);
    }
}
