//! The top-level ISLA aggregator: Pre-estimation → per-block Calculation
//! → Summarization (the full system of paper Fig. 2).
//!
//! This is a thin wrapper over [`crate::engine`]: it prepares a
//! [`crate::engine::QueryPlan`], executes it on the
//! [`crate::engine::SequentialScheduler`] and returns the engine's own
//! [`EngineResult`].

use rand::RngCore;

use isla_storage::BlockSet;

use crate::config::IslaConfig;
use crate::engine::{self, EngineResult, RateSpec, SequentialScheduler};
use crate::error::IslaError;

/// Executes leverage-based approximate AVG aggregation with the iterative
/// modulation scheme.
///
/// Construct with a validated [`IslaConfig`]; call
/// [`IslaAggregator::aggregate`] per dataset. The aggregator is stateless
/// across calls and can be reused (and shared across threads).
#[derive(Debug, Clone)]
pub struct IslaAggregator {
    config: IslaConfig,
}

impl IslaAggregator {
    /// Creates an aggregator, validating the configuration.
    ///
    /// # Errors
    ///
    /// [`IslaError::InvalidConfig`] for out-of-domain parameters.
    pub fn new(config: IslaConfig) -> Result<Self, IslaError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The configuration in effect.
    pub fn config(&self) -> &IslaConfig {
        &self.config
    }

    /// Runs the full pipeline at the configured sampling rate.
    ///
    /// # Errors
    ///
    /// Storage failures or insufficient data (see [`IslaError`]).
    pub fn aggregate(
        &self,
        data: &BlockSet,
        rng: &mut dyn RngCore,
    ) -> Result<EngineResult, IslaError> {
        self.aggregate_with_rate_factor(data, 1.0, rng)
    }

    /// Runs the pipeline with the main sampling rate scaled by `factor`.
    ///
    /// The paper's Table V experiment runs ISLA at one third of the rate
    /// the precision target demands (`factor = 1/3`) to demonstrate the
    /// sample-efficiency of the leverage scheme.
    ///
    /// # Errors
    ///
    /// [`IslaError::InvalidConfig`] if `factor` is not in `(0, 1]`;
    /// otherwise as [`IslaAggregator::aggregate`].
    pub fn aggregate_with_rate_factor(
        &self,
        data: &BlockSet,
        factor: f64,
        rng: &mut dyn RngCore,
    ) -> Result<EngineResult, IslaError> {
        engine::run(
            data,
            &self.config,
            RateSpec::Scaled(factor),
            &SequentialScheduler,
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isla_datagen::{exponential_dataset, normal_dataset, normal_values};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn aggregator(e: f64) -> IslaAggregator {
        IslaAggregator::new(IslaConfig::builder().precision(e).build().unwrap()).unwrap()
    }

    #[test]
    fn meets_precision_on_paper_default_workload() {
        // N(100, 20²), e = 0.5 (the paper's Table V precision), 10 blocks.
        // The precision contract is probabilistic (β = 0.95), so assert
        // over several seeds: the mean error stays well under e and most
        // runs land inside the interval (calibration: mean |err| ≈ 0.24,
        // ~90% within e).
        let ds = normal_dataset(100.0, 20.0, 600_000, 10, 42);
        let mut total_err = 0.0;
        let mut within = 0;
        let runs = 10;
        for seed in 0..runs {
            let mut rng = StdRng::seed_from_u64(seed);
            let result = aggregator(0.5).aggregate(&ds.blocks, &mut rng).unwrap();
            let err = (result.estimate - ds.true_mean).abs();
            total_err += err;
            within += u32::from(err <= 0.5);
            assert_eq!(result.blocks.len(), 10);
            assert_eq!(result.data_size, 600_000);
            assert!((result.sum_estimate - result.estimate * 600_000.0).abs() < 1e-3);
            assert!(result.total_samples > 0);
            assert!(result.total_samples_with_pilots() > result.total_samples);
        }
        let mean_err = total_err / runs as f64;
        assert!(mean_err < 0.5, "mean |error| {mean_err} exceeds e");
        assert!(within >= 7, "only {within}/{runs} runs inside the interval");
    }

    #[test]
    fn reduced_rate_still_lands_close() {
        // The Table V setting: ISLA at r/3.
        let ds = normal_dataset(100.0, 20.0, 600_000, 10, 43);
        let mut rng = StdRng::seed_from_u64(2);
        let full = aggregator(0.5).aggregate(&ds.blocks, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let third = aggregator(0.5)
            .aggregate_with_rate_factor(&ds.blocks, 1.0 / 3.0, &mut rng)
            .unwrap();
        assert!((third.estimate - ds.true_mean).abs() < 0.5);
        assert!(
            third.total_samples * 2 < full.total_samples,
            "r/3 must draw well under half the samples: {} vs {}",
            third.total_samples,
            full.total_samples
        );
    }

    #[test]
    fn absolute_rate_controls_sample_count() {
        let ds = normal_dataset(100.0, 20.0, 100_000, 10, 49);
        let config = aggregator(0.5).config().clone();
        let run = |rate: f64, rng: &mut StdRng| {
            engine::run(
                &ds.blocks,
                &config,
                RateSpec::Absolute(rate),
                &SequentialScheduler,
                rng,
            )
        };
        let mut rng = StdRng::seed_from_u64(9);
        let result = run(0.05, &mut rng).unwrap();
        // 5% of 100k rows = 5000 samples (± per-block rounding).
        assert!(
            (result.total_samples as i64 - 5_000).abs() <= 10,
            "drew {} samples",
            result.total_samples
        );
        assert!((result.estimate - ds.true_mean).abs() < 2.0);
        let mut rng = StdRng::seed_from_u64(9);
        for rate in [0.0, -1.0, 1.5] {
            assert!(matches!(
                run(rate, &mut rng),
                Err(IslaError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn rejects_bad_rate_factor() {
        let ds = normal_dataset(100.0, 20.0, 1_000, 2, 44);
        let mut rng = StdRng::seed_from_u64(3);
        for factor in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(matches!(
                aggregator(0.5).aggregate_with_rate_factor(&ds.blocks, factor, &mut rng),
                Err(IslaError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn constant_data_short_circuits() {
        let data = BlockSet::from_values(vec![3.25; 5_000], 5);
        let mut rng = StdRng::seed_from_u64(4);
        let result = aggregator(0.1).aggregate(&data, &mut rng).unwrap();
        assert_eq!(result.estimate, 3.25);
        assert!(result.blocks.is_empty());
        assert_eq!(result.sum_estimate, 3.25 * 5_000.0);
    }

    #[test]
    fn negative_data_is_shifted_and_unshifted() {
        // Same normal data translated to be fully negative.
        let values: Vec<f64> = normal_values(100.0, 20.0, 300_000, 45)
            .into_iter()
            .map(|v| v - 400.0)
            .collect();
        let truth = isla_stats::summary::mean(&values).unwrap();
        let data = BlockSet::from_values(values, 10);
        let mut rng = StdRng::seed_from_u64(5);
        let result = aggregator(0.5).aggregate(&data, &mut rng).unwrap();
        assert!(result.shift > 0.0, "auto shift must engage");
        assert!(
            (result.estimate - truth).abs() < 0.5,
            "estimate {} vs truth {truth}",
            result.estimate
        );
    }

    #[test]
    fn exponential_data_works_via_shift() {
        // γ = 0.1 ⇒ mean 10, σ 10; the S window reaches below zero and
        // triggers the auto-shift (paper Table VI workload).
        let ds = exponential_dataset(0.1, 400_000, 10, 46);
        let mut rng = StdRng::seed_from_u64(6);
        let result = aggregator(0.25).aggregate(&ds.blocks, &mut rng).unwrap();
        assert!(result.shift > 0.0);
        assert!(
            (result.estimate - ds.true_mean).abs() < 0.6,
            "estimate {} vs truth {}",
            result.estimate,
            ds.true_mean
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = normal_dataset(100.0, 20.0, 100_000, 5, 47);
        let mut rng1 = StdRng::seed_from_u64(7);
        let mut rng2 = StdRng::seed_from_u64(7);
        let a = aggregator(0.5).aggregate(&ds.blocks, &mut rng1).unwrap();
        let b = aggregator(0.5).aggregate(&ds.blocks, &mut rng2).unwrap();
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.total_samples, b.total_samples);
    }

    #[test]
    fn estimate_is_convex_combination_of_block_answers() {
        let ds = normal_dataset(100.0, 20.0, 200_000, 8, 48);
        let mut rng = StdRng::seed_from_u64(8);
        let result = aggregator(0.5).aggregate(&ds.blocks, &mut rng).unwrap();
        let lo = result
            .blocks
            .iter()
            .map(|b| b.answer)
            .fold(f64::INFINITY, f64::min);
        let hi = result
            .blocks
            .iter()
            .map(|b| b.answer)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(result.estimate >= lo && result.estimate <= hi);
    }
}
