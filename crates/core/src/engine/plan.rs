//! Query plans: validated configuration + pre-estimation, resolved once.
//!
//! A [`QueryPlan`] captures everything the per-block Calculation phase
//! needs — the validated [`IslaConfig`], the [`PreEstimate`] (σ̂,
//! `sketch0`, rate), the negative-data shift, and the data boundaries —
//! so that every scheduler executes the *same* plan and the pipeline's
//! phase logic lives in exactly one place.

use rand::RngCore;

use isla_storage::BlockSet;

use crate::boundaries::DataBoundaries;
use crate::config::IslaConfig;
use crate::engine::RecoveryPolicy;
use crate::error::IslaError;
use crate::pre_estimation::{pre_estimate_with, PreEstimate};
use crate::shift::compute_shift;

/// How the calculation-phase sampling rate is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateSpec {
    /// The precision-derived rate from pre-estimation (Eq. 1).
    Derived,
    /// The derived rate scaled by a factor in `(0, 1]` (the paper's
    /// Table V runs ISLA at `r/3`).
    Scaled(f64),
    /// An explicit absolute rate in `(0, 1]`, ignoring the derived one
    /// (fixed-budget comparisons, deadline capping).
    Absolute(f64),
}

impl RateSpec {
    /// Validates the specification's domain.
    ///
    /// # Errors
    ///
    /// [`IslaError::InvalidConfig`] naming the offending value.
    pub fn validate(self) -> Result<(), IslaError> {
        match self {
            RateSpec::Derived => Ok(()),
            RateSpec::Scaled(f) if f > 0.0 && f <= 1.0 => Ok(()),
            RateSpec::Scaled(f) => Err(IslaError::InvalidConfig(format!(
                "rate factor must be in (0, 1], got {f}"
            ))),
            RateSpec::Absolute(r) if r > 0.0 && r <= 1.0 => Ok(()),
            RateSpec::Absolute(r) => Err(IslaError::InvalidConfig(format!(
                "sampling rate must be in (0, 1], got {r}"
            ))),
        }
    }

    /// The concrete rate this specification resolves to, given the
    /// precision-derived rate.
    pub(crate) fn resolve(self, derived: f64) -> f64 {
        match self {
            RateSpec::Derived => derived,
            RateSpec::Scaled(f) => derived * f,
            RateSpec::Absolute(r) => r,
        }
    }
}

/// The samples a block of `block_len` rows receives at `rate` — the one
/// rounding rule behind every plan's per-block sample size.
pub(crate) fn sample_size(rate: f64, block_len: u64) -> u64 {
    (rate * block_len as f64).round() as u64
}

/// A sampled plan's negative-data shift, shifted `sketch0` and data
/// boundaries, built around a pilot's `sketch0` and σ̂ > 0 — the one
/// construction both plan types make (per group in a row plan).
///
/// # Errors
///
/// [`IslaError::InsufficientData`] when σ̂ or the shifted `sketch0` is
/// not finite: the data's spread or magnitude overflows `f64`, so no
/// boundary can be drawn around it.
pub(crate) fn shifted_boundaries(
    sketch0: f64,
    sigma: f64,
    config: &IslaConfig,
) -> Result<(f64, f64, DataBoundaries), IslaError> {
    let shift = compute_shift(sketch0, sigma, config.p2);
    let center = sketch0 + shift;
    if !(sigma.is_finite() && center.is_finite()) {
        return Err(IslaError::InsufficientData(format!(
            "the pilot's σ̂ ({sigma}) and shifted sketch0 ({center}) must be finite: \
             the data overflows f64"
        )));
    }
    let boundaries = DataBoundaries::new(center, sigma, config.p1, config.p2);
    Ok((shift, center, boundaries))
}

/// A fully resolved execution plan: validated config, pre-estimate,
/// shift, boundaries, and the calculation-phase sampling rate.
///
/// Build one with [`QueryPlan::prepare`] (runs the pilots) or
/// [`QueryPlan::from_pre_estimate`] (reuses a cached pre-estimate and
/// skips the pilots entirely), then hand it to an
/// [`engine scheduler`](crate::engine::BlockScheduler) via
/// [`crate::engine::run_plan`].
#[derive(Debug, Clone)]
pub struct QueryPlan {
    config: IslaConfig,
    pre: PreEstimate,
    shift: f64,
    sketch0_shifted: f64,
    boundaries: Option<DataBoundaries>,
    rate: f64,
    data_size: u64,
}

impl QueryPlan {
    /// Prepares a plan by running strict pre-estimation on `data`.
    ///
    /// # Errors
    ///
    /// Invalid configuration or rate spec, or pre-estimation failures.
    pub fn prepare(
        data: &BlockSet,
        config: &IslaConfig,
        rate: RateSpec,
        rng: &mut dyn RngCore,
    ) -> Result<Self, IslaError> {
        config.validate()?;
        rate.validate()?;
        let pre = pre_estimate_with(data, config, &RecoveryPolicy::strict(), rng)?;
        Self::from_pre_estimate(data, config, pre, rate)
    }

    /// Builds a plan from an already-computed pre-estimate (e.g. from a
    /// [`crate::engine::PreEstimateCache`]), spending no pilot samples.
    ///
    /// # Errors
    ///
    /// Invalid configuration or rate spec; a non-finite σ̂ or shifted
    /// `sketch0`: data whose spread or magnitude overflows `f64`.
    pub fn from_pre_estimate(
        data: &BlockSet,
        config: &IslaConfig,
        pre: PreEstimate,
        rate: RateSpec,
    ) -> Result<Self, IslaError> {
        config.validate()?;
        rate.validate()?;
        let data_size = data.total_len();
        if pre.sigma == 0.0 {
            // A pinned answer (constant data, or the exact mean from the
            // block sketches): no boundaries exist and no blocks will run.
            return Ok(Self {
                config: config.clone(),
                sketch0_shifted: pre.sketch0,
                pre,
                shift: 0.0,
                boundaries: None,
                rate: 0.0,
                data_size,
            });
        }
        let (shift, sketch0_shifted, boundaries) =
            shifted_boundaries(pre.sketch0, pre.sigma, config)?;
        let resolved = rate.resolve(pre.rate);
        Ok(Self {
            config: config.clone(),
            pre,
            shift,
            sketch0_shifted,
            boundaries: Some(boundaries),
            rate: resolved,
            data_size,
        })
    }

    /// A copy of this plan with the calculation-phase rate replaced by an
    /// absolute value (deadline capping). The pre-estimate, shift, and
    /// boundaries are kept — pilots already spent are sunk cost.
    pub fn with_absolute_rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// Whether the pre-estimate pinned the answer (σ = 0): the pilot
    /// found constant data, or the block sketches gave the exact mean
    /// (see [`IslaConfig::sketch_sigma`]). No block execution happens.
    pub fn is_degenerate(&self) -> bool {
        self.pre.sigma == 0.0
    }

    /// The configuration in effect.
    pub fn config(&self) -> &IslaConfig {
        &self.config
    }

    /// The pre-estimation output backing this plan.
    pub fn pre(&self) -> &PreEstimate {
        &self.pre
    }

    /// The negative-data translation applied (0 when none).
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// `sketch0` in the shifted domain.
    pub fn sketch0_shifted(&self) -> f64 {
        self.sketch0_shifted
    }

    /// The resolved calculation-phase sampling rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Total rows `M` across blocks at plan time.
    pub fn data_size(&self) -> u64 {
        self.data_size
    }

    /// The data boundaries (shifted domain).
    ///
    /// # Panics
    ///
    /// Panics on a degenerate plan — degenerate plans short-circuit in
    /// [`crate::engine::run_plan`] and never reach block execution.
    pub fn boundaries(&self) -> DataBoundaries {
        self.boundaries
            // isla-lint: allow(panic-freedom, reason = "documented # Panics contract: run_plan short-circuits degenerate plans before any block executes")
            .expect("degenerate plans never reach block execution")
    }

    /// The sample size a block of `block_len` rows receives.
    pub fn sample_size_for(&self, block_len: u64) -> u64 {
        sample_size(self.rate, block_len)
    }

    /// Total calculation-phase samples the plan will draw over `data`
    /// (equals the executed total: per-block sizes are fixed up front).
    pub fn planned_calculation_samples(&self, data: &BlockSet) -> u64 {
        data.iter().map(|b| self.sample_size_for(b.len())).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isla_datagen::normal_dataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(e: f64) -> IslaConfig {
        IslaConfig::builder().precision(e).build().unwrap()
    }

    #[test]
    fn rate_specs_resolve_and_validate() {
        assert!(RateSpec::Derived.validate().is_ok());
        assert!(RateSpec::Scaled(1.0).validate().is_ok());
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(matches!(
                RateSpec::Scaled(bad).validate(),
                Err(IslaError::InvalidConfig(_))
            ));
            assert!(matches!(
                RateSpec::Absolute(bad).validate(),
                Err(IslaError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn prepare_resolves_rates_against_the_pre_estimate() {
        let ds = normal_dataset(100.0, 20.0, 200_000, 10, 90);
        let derived = {
            let mut rng = StdRng::seed_from_u64(1);
            QueryPlan::prepare(&ds.blocks, &config(0.5), RateSpec::Derived, &mut rng).unwrap()
        };
        let scaled = {
            let mut rng = StdRng::seed_from_u64(1);
            QueryPlan::prepare(
                &ds.blocks,
                &config(0.5),
                RateSpec::Scaled(1.0 / 3.0),
                &mut rng,
            )
            .unwrap()
        };
        let absolute = {
            let mut rng = StdRng::seed_from_u64(1);
            QueryPlan::prepare(&ds.blocks, &config(0.5), RateSpec::Absolute(0.05), &mut rng)
                .unwrap()
        };
        assert_eq!(derived.rate(), derived.pre().rate);
        assert_eq!(scaled.rate(), derived.pre().rate * (1.0 / 3.0));
        assert_eq!(absolute.rate(), 0.05);
        assert!(!derived.is_degenerate());
        assert_eq!(derived.data_size(), 200_000);
        // Planned samples account for rounding per block.
        let planned = absolute.planned_calculation_samples(&ds.blocks);
        assert!((planned as i64 - 10_000).abs() <= 10, "planned {planned}");
        assert!(
            absolute.pre().sigma_pilot_used + absolute.pre().sketch_pilot_used > 0,
            "pilots must be charged"
        );
    }

    #[test]
    fn degenerate_data_produces_a_short_circuit_plan() {
        let data = BlockSet::from_values(vec![3.0; 1_000], 4);
        let mut rng = StdRng::seed_from_u64(2);
        let plan = QueryPlan::prepare(&data, &config(0.1), RateSpec::Derived, &mut rng).unwrap();
        assert!(plan.is_degenerate());
        assert_eq!(plan.rate(), 0.0);
        assert_eq!(plan.pre().sketch0, 3.0);
        assert_eq!(plan.planned_calculation_samples(&data), 0);
    }

    #[test]
    fn absolute_rate_override_keeps_the_pre_estimate() {
        let ds = normal_dataset(100.0, 20.0, 100_000, 5, 91);
        let mut rng = StdRng::seed_from_u64(3);
        let plan =
            QueryPlan::prepare(&ds.blocks, &config(0.5), RateSpec::Derived, &mut rng).unwrap();
        let pre = plan.pre().clone();
        let capped = plan.with_absolute_rate(0.01);
        assert_eq!(capped.rate(), 0.01);
        assert_eq!(capped.pre(), &pre, "re-rating must not re-run pilots");
    }
}
