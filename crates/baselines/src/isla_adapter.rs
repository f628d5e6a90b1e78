//! ISLA behind the common [`Estimator`] interface, for fixed-budget
//! sweeps against the baselines.

use rand::RngCore;

use isla_core::engine::{self, BlockScheduler, RateSpec};
use isla_core::{IslaConfig, IslaError};
use isla_stats::{two_sided_z, WelfordMoments};
use isla_storage::{sample_proportional, BlockSet};

use crate::traits::{check_inputs, Estimator};

/// ISLA with an explicit sample budget.
///
/// A budget `n` is translated into the precision it affords: after a
/// σ pilot, the remainder is split between the sketch pilot and the
/// calculation phase in the `1 : tₑ²` ratio the relaxed-precision design
/// implies, and the precision is set to `e = z·σ̂/√m_calc`. Every drawn
/// sample — pilots included — is charged against the budget.
#[derive(Debug, Clone)]
pub struct IslaEstimator {
    config: IslaConfig,
}

impl IslaEstimator {
    /// Wraps an ISLA configuration (its `precision` is ignored; the
    /// budget determines it).
    ///
    /// # Errors
    ///
    /// [`IslaError::InvalidConfig`] for out-of-domain parameters.
    pub fn new(config: IslaConfig) -> Result<Self, IslaError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The template configuration.
    pub fn config(&self) -> &IslaConfig {
        &self.config
    }
}

impl Default for IslaEstimator {
    fn default() -> Self {
        // isla-lint: allow(panic-freedom, reason = "Default cannot return Result; IslaConfig::default() validity is pinned by a unit test in isla_core")
        Self::new(IslaConfig::default()).expect("default config is valid")
    }
}

impl Estimator for IslaEstimator {
    fn name(&self) -> &'static str {
        "ISLA"
    }

    fn estimate_scheduled(
        &self,
        data: &BlockSet,
        sample_budget: u64,
        scheduler: &dyn BlockScheduler,
        rng: &mut dyn RngCore,
    ) -> Result<f64, IslaError> {
        check_inputs(data, sample_budget)?;
        // σ pilot, charged against the budget.
        let sigma_pilot = self
            .config
            .sigma_pilot_size
            .min(data.total_len())
            .min(sample_budget / 2)
            .max(2);
        if sample_budget <= sigma_pilot + 2 {
            return Err(IslaError::InsufficientData(format!(
                "budget {sample_budget} cannot cover the σ pilot ({sigma_pilot}) plus sampling"
            )));
        }
        let pilot = sample_proportional(data, sigma_pilot, rng)?;
        let moments: WelfordMoments = pilot.into_iter().collect();
        let sigma = moments.std_dev_sample().ok_or_else(|| {
            IslaError::InsufficientData("σ pilot drew fewer than 2 samples".to_string())
        })?;
        if sigma == 0.0 {
            return moments
                .mean()
                .ok_or_else(|| IslaError::InsufficientData("σ pilot drew no samples".to_string()));
        }

        // Split the remainder between the sketch pilot and the
        // calculation phase: pilot = m/tₑ², so m = remaining·tₑ²/(tₑ²+1).
        let remaining = (sample_budget - sigma_pilot) as f64;
        let te_sq = self.config.relaxation * self.config.relaxation;
        let m_calc = (remaining * te_sq / (te_sq + 1.0)).floor().max(2.0);
        // The precision this affords: e = z·σ̂/√m (inverted Eq. 1).
        let precision = two_sided_z(self.config.confidence) * sigma / m_calc.sqrt();

        let mut config = self.config.clone();
        config.precision = precision;
        config.threshold = precision / 1000.0;
        config.known_sigma = Some(sigma);
        Ok(engine::run(data, &config, RateSpec::Derived, scheduler, rng)?.estimate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isla_datagen::normal_dataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn adapter_estimates_within_budget() {
        let ds = normal_dataset(100.0, 20.0, 200_000, 10, 40);
        let mut rng = StdRng::seed_from_u64(41);
        let est = IslaEstimator::default()
            .estimate(&ds.blocks, 60_000, &mut rng)
            .unwrap();
        assert!((est - ds.true_mean).abs() < 1.0, "estimate {est}");
        assert_eq!(IslaEstimator::default().name(), "ISLA");
    }

    #[test]
    fn adapts_to_data_scale() {
        // Heavy-tailed data with σ in the thousands: a fixed precision
        // would explode the pilot; the budget-driven path must cope.
        let ds = isla_datagen::tlc::tlc_dataset_sized(200_000, 10, 42);
        let mut rng = StdRng::seed_from_u64(43);
        let est = IslaEstimator::default()
            .estimate(&ds.blocks, 50_000, &mut rng)
            .unwrap();
        let rel = (est - ds.true_mean).abs() / ds.true_mean;
        assert!(rel < 0.1, "relative error {rel} on estimate {est}");
    }

    #[test]
    fn budget_below_pilot_cost_is_rejected() {
        let ds = normal_dataset(100.0, 20.0, 200_000, 10, 44);
        let mut rng = StdRng::seed_from_u64(45);
        assert!(matches!(
            IslaEstimator::default().estimate(&ds.blocks, 4, &mut rng),
            Err(IslaError::InsufficientData(_))
        ));
    }

    #[test]
    fn constant_data_short_circuits() {
        let data = BlockSet::from_values(vec![8.0; 5_000], 5);
        let mut rng = StdRng::seed_from_u64(46);
        let est = IslaEstimator::default()
            .estimate(&data, 1_000, &mut rng)
            .unwrap();
        assert_eq!(est, 8.0);
    }

    #[test]
    fn bigger_budgets_tighten_the_answer() {
        let ds = normal_dataset(100.0, 20.0, 400_000, 10, 47);
        let mean_err = |budget: u64| {
            let mut total = 0.0;
            for seed in 0..10 {
                let mut rng = StdRng::seed_from_u64(seed);
                let est = IslaEstimator::default()
                    .estimate(&ds.blocks, budget, &mut rng)
                    .unwrap();
                total += (est - ds.true_mean).abs();
            }
            total / 10.0
        };
        assert!(mean_err(100_000) < mean_err(4_000));
    }
}
