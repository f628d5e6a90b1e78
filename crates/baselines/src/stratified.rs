//! Stratified sampling (STS): per-block strata.

use rand::RngCore;

use isla_core::engine::{derive_block_seeds, scan_blocks, seeded_rng, BlockScheduler};
use isla_core::IslaError;
use isla_stats::WelfordMoments;
use isla_storage::{proportional_allocation, sample_from_block, BlockSet};

use crate::traits::{check_inputs, Estimator};

/// How the sample budget is split across strata (blocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Allocation {
    /// Proportional to block size (self-weighting).
    #[default]
    Proportional,
    /// Neyman allocation: proportional to `|Bⱼ|·σⱼ`, with `σⱼ` estimated
    /// from a per-block pilot of the given size (drawn from the same
    /// budget).
    Neyman {
        /// Pilot samples per block for the σⱼ estimates.
        pilot_per_block: u64,
    },
}

/// Stratified sampling with blocks as strata: estimate
/// `Σ (|Bⱼ|/M)·mean(Bⱼ sample)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StratifiedSampling {
    /// Budget split strategy.
    pub allocation: Allocation,
}

impl StratifiedSampling {
    /// Proportional-allocation STS (the paper's comparator).
    pub fn proportional() -> Self {
        Self {
            allocation: Allocation::Proportional,
        }
    }

    /// Neyman-allocation STS.
    pub fn neyman(pilot_per_block: u64) -> Self {
        Self {
            allocation: Allocation::Neyman { pilot_per_block },
        }
    }
}

impl Estimator for StratifiedSampling {
    fn name(&self) -> &'static str {
        match self.allocation {
            Allocation::Proportional => "STS",
            Allocation::Neyman { .. } => "STS-Neyman",
        }
    }

    fn estimate_scheduled(
        &self,
        data: &BlockSet,
        sample_budget: u64,
        scheduler: &dyn BlockScheduler,
        rng: &mut dyn RngCore,
    ) -> Result<f64, IslaError> {
        check_inputs(data, sample_budget)?;
        let total_rows = data.total_len();

        let allocation: Vec<u64> = match self.allocation {
            Allocation::Proportional => proportional_allocation(data, sample_budget),
            Allocation::Neyman { pilot_per_block } => {
                // Spend pilot samples estimating per-block σ, then split
                // the remainder ∝ |Bⱼ|·σⱼ.
                let mut sigmas = Vec::with_capacity(data.block_count());
                let mut pilot_spent = 0u64;
                for block in data.iter() {
                    if block.is_empty() {
                        sigmas.push(0.0);
                        continue;
                    }
                    let take = pilot_per_block.max(2).min(block.len());
                    let mut w = WelfordMoments::new();
                    sample_from_block(block.as_ref(), take, rng, &mut |v| w.update(v))?;
                    pilot_spent += take;
                    sigmas.push(w.std_dev_sample().unwrap_or(0.0));
                }
                let remaining = sample_budget.saturating_sub(pilot_spent);
                if remaining == 0 {
                    return Err(IslaError::InsufficientData(format!(
                        "budget {sample_budget} consumed entirely by Neyman pilots"
                    )));
                }
                let weights: Vec<f64> = data
                    .iter()
                    .zip(&sigmas)
                    .map(|(b, &s)| b.len() as f64 * s)
                    .collect();
                let weight_sum: f64 = weights.iter().sum();
                if weight_sum <= 0.0 {
                    // All strata look constant: fall back to proportional.
                    proportional_allocation(data, remaining)
                } else {
                    weights
                        .iter()
                        .map(|w| ((remaining as f64) * w / weight_sum).round() as u64)
                        .collect()
                }
            }
        };

        // Per-stratum sampling is independent given a per-block seed, so
        // the strata scan in parallel without changing the estimate.
        let seeds = derive_block_seeds(rng, data.block_count());
        let partials = scan_blocks(scheduler.parallelism(), data, |i, block| {
            if block.is_empty() {
                return Ok(None);
            }
            let mut block_rng = seeded_rng(seeds[i]);
            let mut w = WelfordMoments::new();
            // A stratum with no sample still needs a mean: draw one.
            sample_from_block(block, allocation[i].max(1), &mut block_rng, &mut |v| {
                w.update(v)
            })?;
            let mean = w.mean().ok_or_else(|| {
                IslaError::InsufficientData("stratum sample is empty".to_string())
            })?;
            Ok(Some(mean * (block.len() as f64 / total_rows as f64)))
        })?;
        let mut acc = isla_stats::NeumaierSum::new();
        for partial in partials.into_iter().flatten() {
            acc.add(partial);
        }
        Ok(acc.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isla_datagen::normal_dataset;
    use isla_datagen::synthetic::noniid_dataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn proportional_matches_truth_on_iid_data() {
        let ds = normal_dataset(100.0, 20.0, 200_000, 10, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let est = StratifiedSampling::proportional()
            .estimate(&ds.blocks, 40_000, &mut rng)
            .unwrap();
        assert!((est - ds.true_mean).abs() < 0.5, "estimate {est}");
        assert_eq!(StratifiedSampling::proportional().name(), "STS");
    }

    #[test]
    fn stratification_shines_on_noniid_blocks() {
        // Means differ wildly across blocks; stratification removes the
        // across-block variance component, beating US at equal budget.
        let ds = noniid_dataset(100_000, 8);
        let budget = 2_000;
        let mut sts_err = 0.0;
        let mut us_err = 0.0;
        for seed in 0..30 {
            let mut rng = StdRng::seed_from_u64(seed);
            let sts = StratifiedSampling::proportional()
                .estimate(&ds.blocks, budget, &mut rng)
                .unwrap();
            sts_err += (sts - ds.true_mean).abs();
            let mut rng = StdRng::seed_from_u64(seed);
            let us = crate::UniformSampling
                .estimate(&ds.blocks, budget, &mut rng)
                .unwrap();
            us_err += (us - ds.true_mean).abs();
        }
        assert!(
            sts_err < us_err,
            "STS error {sts_err:.3} should beat US error {us_err:.3}"
        );
    }

    #[test]
    fn neyman_beats_proportional_under_variance_skew() {
        // One low-variance giant stratum + one high-variance stratum:
        // Neyman shifts budget to the noisy one.
        let ds = noniid_dataset(100_000, 9);
        let budget = 3_000;
        let (mut ney, mut prop) = (0.0, 0.0);
        for seed in 0..30 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            ney += (StratifiedSampling::neyman(50)
                .estimate(&ds.blocks, budget, &mut rng)
                .unwrap()
                - ds.true_mean)
                .abs();
            let mut rng = StdRng::seed_from_u64(100 + seed);
            prop += (StratifiedSampling::proportional()
                .estimate(&ds.blocks, budget, &mut rng)
                .unwrap()
                - ds.true_mean)
                .abs();
        }
        assert!(
            ney < prop * 1.1,
            "Neyman {ney:.3} should not lose to proportional {prop:.3}"
        );
        assert_eq!(StratifiedSampling::neyman(50).name(), "STS-Neyman");
    }

    #[test]
    fn neyman_rejects_budget_smaller_than_pilots() {
        let ds = normal_dataset(100.0, 20.0, 10_000, 10, 10);
        let mut rng = StdRng::seed_from_u64(11);
        assert!(matches!(
            StratifiedSampling::neyman(100).estimate(&ds.blocks, 500, &mut rng),
            Err(IslaError::InsufficientData(_))
        ));
    }

    #[test]
    fn zero_budget_rejected() {
        let ds = normal_dataset(100.0, 20.0, 1_000, 2, 12);
        let mut rng = StdRng::seed_from_u64(13);
        assert!(StratifiedSampling::proportional()
            .estimate(&ds.blocks, 0, &mut rng)
            .is_err());
    }
}
