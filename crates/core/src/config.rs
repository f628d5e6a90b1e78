//! ISLA configuration: the paper's tunables with their §VIII defaults.
//!
//! The parameters the paper fixes rather than tunes — the Case-5 balance
//! band, the two `q` band edges and the iteration cap — are constants,
//! and negative data is always shifted when needed (footnote 1; see
//! [`crate::shift`]).

use crate::error::IslaError;

/// How the modulation steps treat Cases 2 and 3 (see `DESIGN.md` and
/// [`crate::modulation`]).
///
/// The paper's Fig. 1 prescribes that when the accurate value lies between
/// the two estimators they are moved *toward each other*; the prose of
/// Case 3 (Section V-C) instead says both estimators increase. The two
/// readings disagree (the prose version extrapolates past the l-estimator
/// and amplifies its sampling noise by `λ/(1−λ)`), so both are available
/// and the figure-consistent one is the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModulationStyle {
    /// Cases 2/3 move the estimators toward each other (consistent with
    /// Fig. 1 and Theorem 1). Default.
    #[default]
    FigureConsistent,
    /// Cases 2/3 move both estimators in the same direction, exactly as
    /// the prose of Section V-C reads.
    PaperLiteral,
}

/// `dev = |S|/|L|` band treated as balanced (Case 5), open at both ends.
pub const BALANCE_BAND: (f64, f64) = (0.99, 1.01);

/// `dev` band (symmetric, expressed by its upper bound) within which
/// `q = 1`: dev ∈ (1/1.03, 1.03).
pub const Q_NEUTRAL_HI: f64 = 1.03;

/// `dev` band upper bound within which the moderate `q′` applies:
/// dev ∈ (1/1.06, 1.06) outside the neutral band.
pub const Q_MODERATE_HI: f64 = 1.06;

/// Hard cap on modulation iterations (safety net over the closed-form
/// bound `⌈log(|D₀|/thr)/log(1/η)⌉`).
pub const MAX_ITERATIONS: u32 = 64;

/// Full ISLA configuration. Build with [`IslaConfig::builder`]; defaults
/// are the paper's Section VIII experiment parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct IslaConfig {
    /// Desired precision `e` (confidence-interval half width). Default 0.1.
    pub precision: f64,
    /// Confidence `β ∈ (0,1)`. Default 0.95.
    pub confidence: f64,
    /// Inner data-boundary parameter `p1`. Default 0.5.
    pub p1: f64,
    /// Outer data-boundary parameter `p2`. Default 2.0.
    pub p2: f64,
    /// Step-length factor `λ ∈ (0,1)`. Default 0.8.
    pub lambda: f64,
    /// Convergence speed `η ∈ (0,1)`: `D` shrinks to `η·D` per iteration.
    /// Default 0.5.
    pub eta: f64,
    /// Iteration threshold `thr`: the loop halts when `|D| ≤ thr`.
    /// Default `precision / 1000` (set automatically when not overridden).
    pub threshold: f64,
    /// Relaxed-precision factor `tₑ ≥ 1` for the sketch estimator
    /// (`sketch0` is computed to precision `tₑ·e`). Default 2.0.
    pub relaxation: f64,
    /// Size of the pilot sample used to estimate `σ`. Default 1000.
    pub sigma_pilot_size: u64,
    /// Moderate leverage-allocation parameter `q′`. Default 5.
    pub q_moderate: f64,
    /// Strong leverage-allocation parameter `q′` for `dev` beyond the
    /// moderate band. Default 10.
    pub q_strong: f64,
    /// Case 2/3 interpretation. Default [`ModulationStyle::FigureConsistent`].
    pub modulation_style: ModulationStyle,
    /// Clamp per-block answers to the sketch estimator's relaxed
    /// confidence interval (`sketch0 ± tₑ·e`), the modulation boundary the
    /// paper proposes in Section VII-B. Default true.
    pub clamp_to_sketch_interval: bool,
    /// Known standard deviation: when set, the σ-estimation pilot is
    /// skipped. Default `None`.
    pub known_sigma: Option<f64>,
    /// Answer from the blocks' moment sketches when they already know
    /// the answer: when every block carries a width-1, all-finite hook
    /// sketch with a decided zone verdict (no armed fault), the
    /// pre-estimate is pinned to the exact mean `Σa/n` with σ = 0 and
    /// zero pilot draws, and no block executes. Otherwise the pilots
    /// run unchanged. The query executor sets it for a default scalar
    /// ISLA query and leaves it off for a named `METHOD ISLA`. Default
    /// false.
    pub sketch_sigma: bool,
    /// Sample every block of a filtered or grouped row query, even where
    /// block metadata knows its part of the answer. Off (the default), a
    /// block the zone map decides — matching nowhere, or matching
    /// everywhere over finite, fault-free rows whose sketch (per-key
    /// sketch, with at most [`isla_storage::MAX_SKETCH_KEYS`] keys, when
    /// grouped) knows its exact partial — is answered from metadata and
    /// only the rest is sampled by a precision-sized plan; a query whose
    /// every block is decided is pinned to the exact per-group counts
    /// and means with no pilot and no draw. The query executor sets it
    /// for a named `METHOD ISLA`. It changes no cached object — a pinned
    /// lookup files no entry, and the split is made per plan — so it
    /// stays out of [`IslaConfig::fingerprint`].
    pub sample_groups: bool,
    /// Record per-iteration traces in block outcomes (diagnostics).
    /// Default false.
    pub record_trace: bool,
}

impl Default for IslaConfig {
    fn default() -> Self {
        Self {
            precision: 0.1,
            confidence: 0.95,
            p1: 0.5,
            p2: 2.0,
            lambda: 0.8,
            eta: 0.5,
            threshold: 0.1 / 1000.0,
            relaxation: 2.0,
            sigma_pilot_size: 1000,
            q_moderate: 5.0,
            q_strong: 10.0,
            modulation_style: ModulationStyle::FigureConsistent,
            clamp_to_sketch_interval: true,
            known_sigma: None,
            sketch_sigma: false,
            sample_groups: false,
            record_trace: false,
        }
    }
}

impl IslaConfig {
    /// Starts a builder with the paper's defaults.
    pub fn builder() -> IslaConfigBuilder {
        IslaConfigBuilder::default()
    }

    /// A stable digest of every parameter, used to key caches (e.g. the
    /// engine's pre-estimation cache): two configurations fingerprint
    /// equal exactly when every field is bit-identical.
    ///
    /// The fixed parameters ([`BALANCE_BAND`], the `q` band edges,
    /// [`MAX_ITERATIONS`] and tag `0` for the automatic shift) are hashed
    /// too, each in a fixed position: the digest seeds cached pilots, so
    /// its value must not move.
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        for v in [
            self.precision,
            self.confidence,
            self.p1,
            self.p2,
            self.lambda,
            self.eta,
            self.threshold,
            self.relaxation,
            BALANCE_BAND.0,
            BALANCE_BAND.1,
            Q_NEUTRAL_HI,
            Q_MODERATE_HI,
            self.q_moderate,
            self.q_strong,
        ] {
            v.to_bits().hash(&mut h);
        }
        self.sigma_pilot_size.hash(&mut h);
        MAX_ITERATIONS.hash(&mut h);
        match self.modulation_style {
            ModulationStyle::FigureConsistent => 0u8.hash(&mut h),
            ModulationStyle::PaperLiteral => 1u8.hash(&mut h),
        }
        self.clamp_to_sketch_interval.hash(&mut h);
        0u8.hash(&mut h);
        self.known_sigma.map(f64::to_bits).hash(&mut h);
        self.sketch_sigma.hash(&mut h);
        self.record_trace.hash(&mut h);
        h.finish()
    }

    /// Validates every parameter's domain.
    ///
    /// # Errors
    ///
    /// [`IslaError::InvalidConfig`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), IslaError> {
        let fail = |msg: String| Err(IslaError::InvalidConfig(msg));
        if !(self.precision > 0.0 && self.precision.is_finite()) {
            return fail(format!(
                "precision must be positive, got {}",
                self.precision
            ));
        }
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return fail(format!(
                "confidence must be in (0,1), got {}",
                self.confidence
            ));
        }
        if !(self.p1 > 0.0 && self.p1 < self.p2 && self.p2.is_finite()) {
            return fail(format!(
                "boundaries must satisfy 0 < p1 < p2, got p1={}, p2={}",
                self.p1, self.p2
            ));
        }
        if !(self.lambda > 0.0 && self.lambda < 1.0) {
            return fail(format!("lambda must be in (0,1), got {}", self.lambda));
        }
        if !(self.eta > 0.0 && self.eta < 1.0) {
            return fail(format!("eta must be in (0,1), got {}", self.eta));
        }
        if !(self.threshold > 0.0 && self.threshold.is_finite()) {
            return fail(format!(
                "threshold must be positive, got {}",
                self.threshold
            ));
        }
        if !(self.relaxation >= 1.0 && self.relaxation.is_finite()) {
            return fail(format!(
                "relaxation factor must be >= 1, got {}",
                self.relaxation
            ));
        }
        if self.sigma_pilot_size < 2 {
            return fail(format!(
                "sigma pilot needs at least 2 samples, got {}",
                self.sigma_pilot_size
            ));
        }
        if !(self.q_moderate >= 1.0 && self.q_strong >= self.q_moderate) {
            return fail(format!(
                "q' tiers must satisfy 1 <= moderate <= strong, got {} and {}",
                self.q_moderate, self.q_strong
            ));
        }
        if let Some(s) = self.known_sigma {
            if !(s >= 0.0 && s.is_finite()) {
                return fail(format!("known sigma must be non-negative, got {s}"));
            }
        }
        Ok(())
    }
}

/// Builder for [`IslaConfig`].
#[derive(Debug, Clone, Default)]
pub struct IslaConfigBuilder {
    config: IslaConfig,
    threshold_overridden: bool,
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        pub fn $name(mut self, value: $ty) -> Self {
            self.config.$name = value;
            self
        }
    };
}

impl IslaConfigBuilder {
    /// Sets the desired precision `e` (also rescales the default iteration
    /// threshold to `e/1000` unless explicitly overridden).
    pub fn precision(mut self, e: f64) -> Self {
        self.config.precision = e;
        if !self.threshold_overridden {
            self.config.threshold = e / 1000.0;
        }
        self
    }

    /// Sets the iteration threshold `thr` explicitly.
    pub fn threshold(mut self, thr: f64) -> Self {
        self.config.threshold = thr;
        self.threshold_overridden = true;
        self
    }

    setter!(
        /// Sets the confidence `β`.
        confidence: f64
    );
    setter!(
        /// Sets the inner boundary parameter `p1`.
        p1: f64
    );
    setter!(
        /// Sets the outer boundary parameter `p2`.
        p2: f64
    );
    setter!(
        /// Sets the step-length factor `λ`.
        lambda: f64
    );
    setter!(
        /// Sets the convergence speed `η`.
        eta: f64
    );
    setter!(
        /// Sets the sketch relaxation factor `tₑ`.
        relaxation: f64
    );
    setter!(
        /// Sets the σ-pilot sample size.
        sigma_pilot_size: u64
    );
    setter!(
        /// Sets the moderate `q′`.
        q_moderate: f64
    );
    setter!(
        /// Sets the strong `q′`.
        q_strong: f64
    );
    setter!(
        /// Sets the Case 2/3 interpretation.
        modulation_style: ModulationStyle
    );
    setter!(
        /// Enables or disables clamping block answers to the sketch
        /// estimator's relaxed confidence interval (paper §VII-B).
        clamp_to_sketch_interval: bool
    );
    setter!(
        /// Supplies a known σ, skipping the σ-estimation pilot.
        known_sigma: Option<f64>
    );
    setter!(
        /// Lets the block sketches pin the answer when they know it
        /// exactly (see [`IslaConfig::sketch_sigma`]).
        sketch_sigma: bool
    );
    setter!(
        /// Samples a `GROUP BY` the per-key sketches could pin (see
        /// [`IslaConfig::sample_groups`]).
        sample_groups: bool
    );
    setter!(
        /// Enables per-iteration trace recording.
        record_trace: bool
    );

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`IslaError::InvalidConfig`] naming the offending parameter.
    pub fn build(self) -> Result<IslaConfig, IslaError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_viii() {
        let c = IslaConfig::default();
        assert_eq!(c.precision, 0.1);
        assert_eq!(c.confidence, 0.95);
        assert_eq!(c.p1, 0.5);
        assert_eq!(c.p2, 2.0);
        assert_eq!(c.lambda, 0.8);
        assert_eq!(c.eta, 0.5);
        assert_eq!(c.q_moderate, 5.0);
        assert_eq!(c.q_strong, 10.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_rescales_threshold_with_precision() {
        let c = IslaConfig::builder().precision(0.5).build().unwrap();
        assert_eq!(c.threshold, 0.5 / 1000.0);
        let c = IslaConfig::builder()
            .threshold(1e-6)
            .precision(0.5)
            .build()
            .unwrap();
        assert_eq!(c.threshold, 1e-6, "explicit threshold survives");
    }

    #[test]
    fn rejects_bad_parameters() {
        let cases: Vec<(IslaConfigBuilder, &str)> = vec![
            (IslaConfig::builder().precision(0.0), "precision"),
            (IslaConfig::builder().confidence(1.0), "confidence"),
            (IslaConfig::builder().p1(2.5), "p1 < p2"),
            (IslaConfig::builder().lambda(1.0), "lambda"),
            (IslaConfig::builder().eta(0.0), "eta"),
            (IslaConfig::builder().relaxation(0.5), "relaxation"),
            (IslaConfig::builder().sigma_pilot_size(1), "pilot"),
            (IslaConfig::builder().q_moderate(0.5), "q' tiers"),
            (IslaConfig::builder().known_sigma(Some(-1.0)), "known sigma"),
        ];
        for (builder, what) in cases {
            assert!(
                matches!(builder.build(), Err(IslaError::InvalidConfig(_))),
                "expected {what} to be rejected"
            );
        }
    }

    #[test]
    fn fingerprint_separates_distinct_configs() {
        let base = IslaConfig::default();
        assert_eq!(base.fingerprint(), IslaConfig::default().fingerprint());
        let variants = [
            IslaConfig::builder().precision(0.2).build().unwrap(),
            IslaConfig::builder().confidence(0.9).build().unwrap(),
            IslaConfig::builder()
                .known_sigma(Some(1.0))
                .build()
                .unwrap(),
            IslaConfig::builder()
                .modulation_style(ModulationStyle::PaperLiteral)
                .build()
                .unwrap(),
            IslaConfig::builder().sketch_sigma(true).build().unwrap(),
        ];
        for v in &variants {
            assert_ne!(base.fingerprint(), v.fingerprint(), "{v:?}");
        }
        // The grouped pin's opt-out caches nothing of its own, so every
        // digest (and the pilot streams seeded from it) keeps its bits.
        let sampled = IslaConfig::builder().sample_groups(true).build().unwrap();
        assert_eq!(base.fingerprint(), sampled.fingerprint());
    }

    #[test]
    fn threshold_must_be_positive_even_after_precision() {
        let r = IslaConfig::builder().threshold(0.0).build();
        assert!(matches!(r, Err(IslaError::InvalidConfig(_))));
    }
}
