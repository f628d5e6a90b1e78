//! Measure-biased estimators (paper Section VIII-C).
//!
//! sample+seek's measure-biased sampling picks each row with probability
//! proportional to its value (paper Eq. 4). The paper adapts the idea to
//! AVG over uniform samples in two variants:
//!
//! * **MV** (probabilities on values): each sample's weight is
//!   `aᵢ/Σa`, so the estimate collapses to `Σa²/Σa` over the sample —
//!   the size-biased mean, which systematically overestimates AVG
//!   (by exactly `σ²/µ` in expectation; e.g. ≈ +4 for N(100, 20²) —
//!   matching the ≈104 column of the paper's Table III);
//! * **MVB** (probabilities on values and boundaries): samples are
//!   divided by ISLA's data boundaries, each region receives probability
//!   mass `n_R/m`, distributed within the region proportionally to value:
//!   estimate `Σ_R (n_R/m)·(Σ_R a²/Σ_R a)`.

use rand::RngCore;

use isla_core::engine::{derive_block_seeds, scan_blocks, seeded_rng, BlockScheduler};
use isla_core::{DataBoundaries, IslaConfig, IslaError, Region};
use isla_stats::NeumaierSum;
use isla_storage::{proportional_allocation, sample_from_block, sample_proportional, BlockSet};

use crate::traits::{check_inputs, Estimator};

/// MV: measure-biased re-weighting on values.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeasureBiasedValues;

impl Estimator for MeasureBiasedValues {
    fn name(&self) -> &'static str {
        "MV"
    }

    fn estimate_scheduled(
        &self,
        data: &BlockSet,
        sample_budget: u64,
        scheduler: &dyn BlockScheduler,
        rng: &mut dyn RngCore,
    ) -> Result<f64, IslaError> {
        check_inputs(data, sample_budget)?;
        let allocation = proportional_allocation(data, sample_budget);
        let seeds = derive_block_seeds(rng, data.block_count());
        let partials = scan_blocks(scheduler.parallelism(), data, |i, block| {
            let mut block_rng = seeded_rng(seeds[i]);
            let mut sum = NeumaierSum::new();
            let mut sum_sq = NeumaierSum::new();
            sample_from_block(block, allocation[i], &mut block_rng, &mut |v| {
                sum.add(v);
                sum_sq.add(v * v);
            })?;
            Ok((sum.value(), sum_sq.value()))
        })?;
        let mut sum = NeumaierSum::new();
        let mut sum_sq = NeumaierSum::new();
        for (s, sq) in partials {
            sum.add(s);
            sum_sq.add(sq);
        }
        let denominator = sum.value();
        if denominator == 0.0 {
            return Err(IslaError::InsufficientData(
                "measure-biased weights undefined: sampled values sum to zero".to_string(),
            ));
        }
        Ok(sum_sq.value() / denominator)
    }
}

/// MVB: measure-biased re-weighting on values and data boundaries.
///
/// A budget-driven pilot (σ pilot plus a quarter of the budget for
/// `sketch0`) establishes the data boundaries; the remaining samples are
/// classified into the five regions and re-weighted per region.
#[derive(Debug, Clone, Default)]
pub struct MeasureBiasedBoundaries {
    config: IslaConfig,
}

impl MeasureBiasedBoundaries {
    /// Uses the given ISLA configuration for the pilot and boundaries
    /// (`p1`, `p2`, pilot sizes, precision for the pilot sizing).
    pub fn new(config: IslaConfig) -> Result<Self, IslaError> {
        config.validate()?;
        Ok(Self { config })
    }
}

impl Estimator for MeasureBiasedBoundaries {
    fn name(&self) -> &'static str {
        "MVB"
    }

    fn estimate_scheduled(
        &self,
        data: &BlockSet,
        sample_budget: u64,
        scheduler: &dyn BlockScheduler,
        rng: &mut dyn RngCore,
    ) -> Result<f64, IslaError> {
        check_inputs(data, sample_budget)?;
        // Budget-driven pilots: σ from a small pilot, sketch0 from a
        // quarter of the budget.
        let sigma_pilot = self
            .config
            .sigma_pilot_size
            .min(data.total_len())
            .min(sample_budget / 10)
            .max(2);
        let sketch_pilot = (sample_budget / 4).max(1);
        let pilots = sigma_pilot + sketch_pilot;
        if sample_budget <= pilots {
            return Err(IslaError::InsufficientData(format!(
                "budget {sample_budget} consumed entirely by the boundary pilot ({pilots})"
            )));
        }
        let remaining = sample_budget - pilots;
        let sigma_samples = sample_proportional(data, sigma_pilot, rng)?;
        let sigma_moments: isla_stats::WelfordMoments = sigma_samples.into_iter().collect();
        let sigma = sigma_moments.std_dev_sample().unwrap_or(0.0);
        if sigma == 0.0 {
            return sigma_moments
                .mean()
                .ok_or_else(|| IslaError::InsufficientData("σ pilot drew no samples".to_string()));
        }
        let sketch_samples = sample_proportional(data, sketch_pilot, rng)?;
        let sketch0 = sketch_samples.iter().sum::<f64>() / sketch_samples.len() as f64;
        if !(sigma.is_finite() && sketch0.is_finite()) {
            return Err(IslaError::InsufficientData(format!(
                "the pilots' σ̂ ({sigma}) and sketch0 ({sketch0}) must be finite: \
                 the data overflows f64"
            )));
        }
        let boundaries = DataBoundaries::new(sketch0, sigma, self.config.p1, self.config.p2);

        // Per-region streaming sums: count, Σa, Σa² — accumulated per
        // block with seeded streams, then merged, so the classification
        // pass parallelizes without changing the estimate.
        let region_index = |r: Region| match r {
            Region::TooSmall => 0,
            Region::Small => 1,
            Region::Normal => 2,
            Region::Large => 3,
            Region::TooLarge => 4,
        };
        let allocation = proportional_allocation(data, remaining);
        let seeds = derive_block_seeds(rng, data.block_count());
        let partials = scan_blocks(scheduler.parallelism(), data, |i, block| {
            let mut block_rng = seeded_rng(seeds[i]);
            let mut counts = [0u64; 5];
            let mut sums = [NeumaierSum::new(); 5];
            let mut sums_sq = [NeumaierSum::new(); 5];
            sample_from_block(block, allocation[i], &mut block_rng, &mut |v| {
                let r = region_index(boundaries.classify(v));
                counts[r] += 1;
                sums[r].add(v);
                sums_sq[r].add(v * v);
            })?;
            Ok((counts, sums.map(|s| s.value()), sums_sq.map(|s| s.value())))
        })?;
        let mut counts = [0u64; 5];
        let mut sums = [NeumaierSum::new(); 5];
        let mut sums_sq = [NeumaierSum::new(); 5];
        let mut total = 0u64;
        for (block_counts, block_sums, block_sums_sq) in partials {
            for r in 0..5 {
                counts[r] += block_counts[r];
                total += block_counts[r];
                sums[r].add(block_sums[r]);
                sums_sq[r].add(block_sums_sq[r]);
            }
        }
        if total == 0 {
            return Err(IslaError::InsufficientData(
                "no samples drawn after the pilot".to_string(),
            ));
        }

        // Σ_R (n_R/m) · (Σ_R a² / Σ_R a); regions whose values sum to
        // zero contribute their (zero-valued) mean directly.
        let mut estimate = NeumaierSum::new();
        for i in 0..5 {
            if counts[i] == 0 {
                continue;
            }
            let weight = counts[i] as f64 / total as f64;
            let s = sums[i].value();
            if s == 0.0 {
                // All-zero region (possible for TS with zero values).
                continue;
            }
            estimate.add(weight * sums_sq[i].value() / s);
        }
        Ok(estimate.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isla_datagen::{normal_dataset, uniform_dataset};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mv_overestimates_by_sigma_squared_over_mu() {
        // E[MV] = E[a²]/E[a] = µ + σ²/µ = 104 for N(100, 20²) — the
        // paper's Table III MV column sits at ≈104.
        let ds = normal_dataset(100.0, 20.0, 300_000, 10, 20);
        let mut rng = StdRng::seed_from_u64(21);
        let est = MeasureBiasedValues
            .estimate(&ds.blocks, 100_000, &mut rng)
            .unwrap();
        assert!(
            (est - 104.0).abs() < 0.5,
            "MV estimate {est}, expected ≈104"
        );
        assert_eq!(MeasureBiasedValues.name(), "MV");
    }

    #[test]
    fn mv_on_uniform_range_matches_table_vii() {
        // U[1,199]: E[a²]/E[a] = (µ² + σ²)/µ = (10000 + 3267)/100 ≈ 132.7
        // — Table VII reports MV ≈ 132.
        let ds = uniform_dataset(1.0, 199.0, 300_000, 10, 22);
        let mut rng = StdRng::seed_from_u64(23);
        let est = MeasureBiasedValues
            .estimate(&ds.blocks, 100_000, &mut rng)
            .unwrap();
        assert!((est - 132.67).abs() < 1.5, "MV estimate {est}");
    }

    #[test]
    fn mvb_reduces_mv_bias_but_keeps_some() {
        // Table III: MVB ≈ 100.5 on N(100, 20²) vs MV ≈ 104.
        let ds = normal_dataset(100.0, 20.0, 300_000, 10, 24);
        let mvb = MeasureBiasedBoundaries::default();
        let mut errs = 0.0;
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let est = mvb.estimate(&ds.blocks, 150_000, &mut rng).unwrap();
            errs += est - 100.0;
        }
        let mean_bias = errs / 5.0;
        assert!(
            (0.1..1.5).contains(&mean_bias),
            "MVB bias {mean_bias}, expected ≈ +0.5"
        );
        assert_eq!(MeasureBiasedBoundaries::default().name(), "MVB");
    }

    #[test]
    fn mvb_charges_pilot_against_budget() {
        let ds = normal_dataset(100.0, 20.0, 50_000, 5, 25);
        let mvb = MeasureBiasedBoundaries::default();
        let mut rng = StdRng::seed_from_u64(26);
        // A budget that the σ + sketch pilots fully consume is rejected.
        assert!(matches!(
            mvb.estimate(&ds.blocks, 3, &mut rng),
            Err(IslaError::InsufficientData(_))
        ));
        // A small-but-viable budget works (pilots scale with the budget).
        assert!(mvb.estimate(&ds.blocks, 100, &mut rng).is_ok());
    }

    #[test]
    fn mv_rejects_zero_sum_sample() {
        let data = BlockSet::from_values(vec![0.0; 100], 2);
        let mut rng = StdRng::seed_from_u64(27);
        assert!(matches!(
            MeasureBiasedValues.estimate(&data, 10, &mut rng),
            Err(IslaError::InsufficientData(_))
        ));
    }

    #[test]
    fn mvb_handles_constant_data() {
        let data = BlockSet::from_values(vec![5.0; 10_000], 2);
        let mut rng = StdRng::seed_from_u64(28);
        let est = MeasureBiasedBoundaries::default()
            .estimate(&data, 5_000, &mut rng)
            .unwrap();
        assert_eq!(est, 5.0);
    }
}
