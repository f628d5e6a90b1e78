//! Extreme-value aggregation — the paper's in-progress extension
//! (Section VII-D).
//!
//! The paper sketches MAX/MIN under the same framework with two changes:
//!
//! 1. **recorded information**: "only the extreme value is recorded in
//!    each block" — a single running max/min per block instead of the
//!    S/L power sums;
//! 2. **sampling rate**: "a leverage-based sampling rate which considers
//!    the local variance *and* the general conditions of the blocks" —
//!    high-variance blocks need more samples to reach their tails, and
//!    for MAX "the MAX value is more likely to be in the blocks with
//!    generally higher values".
//!
//! We instantiate the sketch concretely: each block's leverage multiplies
//! a unit-free variance term `1 + σᵢ²/σ_pooled²` by a general-condition
//! boost `1 + max(0, (meanᵢ − pooled_mean)/pooled_σ)` (mirrored for
//! MIN) — both factors are dimensionless so neither silently dominates —
//! and block rates follow §VII-C's `rateᵢ = r·M·blevᵢ/|Bᵢ|`.
//!
//! A sample maximum *underestimates* the true maximum (it converges as
//! the sampling rate approaches a full scan); the result therefore
//! reports the sampled extreme as a one-sided bound, which is the
//! well-defined guarantee sampling can give without distributional
//! extrapolation.

use rand::RngCore;

use isla_stats::WelfordMoments;
use isla_storage::{sample_from_block, BlockSet};

use crate::config::IslaConfig;
use crate::error::IslaError;

/// Which extreme to aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExtremeKind {
    /// `MAX(column)`.
    Max,
    /// `MIN(column)`.
    Min,
}

impl ExtremeKind {
    /// Identity element for the running extreme.
    pub(crate) fn identity(self) -> f64 {
        match self {
            ExtremeKind::Max => f64::NEG_INFINITY,
            ExtremeKind::Min => f64::INFINITY,
        }
    }

    /// Folds one value into the running extreme.
    #[inline]
    pub(crate) fn fold(self, acc: f64, v: f64) -> f64 {
        match self {
            ExtremeKind::Max => acc.max(v),
            ExtremeKind::Min => acc.min(v),
        }
    }
}

/// Per-block diagnostics of an extreme-value aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtremeBlockOutcome {
    /// Block index.
    pub block_id: usize,
    /// Block leverage `blevᵢ` (sums to 1 across blocks).
    pub blev: f64,
    /// Local sampling rate.
    pub rate: f64,
    /// Samples drawn.
    pub samples_drawn: u64,
    /// The block's sampled extreme (identity when no samples landed).
    pub extreme: f64,
}

/// The result of an extreme-value aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtremeResult {
    /// The sampled extreme — a one-sided bound on the true extreme
    /// (lower bound for MAX, upper bound for MIN).
    pub estimate: f64,
    /// Which extreme was computed.
    pub kind: ExtremeKind,
    /// Per-block outcomes.
    pub blocks: Vec<ExtremeBlockOutcome>,
    /// Calculation-phase samples drawn.
    pub total_samples: u64,
}

/// Leverage-guided approximate MAX/MIN (paper §VII-D).
#[derive(Debug, Clone)]
pub struct ExtremeAggregator {
    config: IslaConfig,
}

impl ExtremeAggregator {
    /// Creates the aggregator; the configuration supplies the pilot
    /// sizes and the precision/confidence that scale the overall rate.
    ///
    /// # Errors
    ///
    /// [`IslaError::InvalidConfig`] for out-of-domain parameters.
    pub fn new(config: IslaConfig) -> Result<Self, IslaError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// Runs the aggregation.
    ///
    /// # Errors
    ///
    /// Storage failures; [`IslaError::InsufficientData`] on empty data.
    pub fn aggregate(
        &self,
        data: &BlockSet,
        kind: ExtremeKind,
        rng: &mut dyn RngCore,
    ) -> Result<ExtremeResult, IslaError> {
        let cfg = &self.config;
        let data_size = data.total_len();
        if data_size == 0 {
            return Err(IslaError::InsufficientData(
                "block set holds no rows".to_string(),
            ));
        }
        let b = data.block_count();

        // Per-block pilots: local σᵢ and meanᵢ ("the general conditions of
        // the blocks can be described using the average or median").
        let mut locals = Vec::with_capacity(b);
        let mut pooled = WelfordMoments::new();
        for block in data.iter() {
            if block.is_empty() {
                locals.push((0.0, 0.0));
                continue;
            }
            let pilot = cfg.sigma_pilot_size.min(block.len()).max(2);
            let mut w = WelfordMoments::new();
            sample_from_block(block.as_ref(), pilot, rng, &mut |v| {
                w.update(v);
                pooled.update(v);
            })?;
            locals.push((
                w.std_dev_sample().unwrap_or(0.0),
                w.mean().ok_or_else(|| {
                    IslaError::InsufficientData("extreme pilot drew no samples".to_string())
                })?,
            ));
        }
        let pooled_mean = pooled
            .mean()
            .ok_or_else(|| IslaError::InsufficientData("pooled pilot is empty".to_string()))?;
        let pooled_sd = pooled
            .std_dev_sample()
            .unwrap_or(0.0)
            .max(f64::MIN_POSITIVE);

        // Overall rate from Eq. 1 with the pooled σ.
        let overall_rate = if pooled_sd <= f64::MIN_POSITIVE {
            // Constant data: one sample per block settles the extreme.
            1.0 / data_size as f64
        } else {
            isla_stats::sampling_rate(pooled_sd, cfg.precision, cfg.confidence, data_size)
        };

        // Block leverages: variance term × general-condition boost, both
        // unit-free.
        let scores: Vec<f64> = locals
            .iter()
            .map(|&(sigma, mean)| {
                let direction = match kind {
                    ExtremeKind::Max => (mean - pooled_mean) / pooled_sd,
                    ExtremeKind::Min => (pooled_mean - mean) / pooled_sd,
                };
                let variance_term = 1.0 + (sigma * sigma) / (pooled_sd * pooled_sd);
                variance_term * (1.0 + direction.max(0.0))
            })
            .collect();
        let score_sum: f64 = scores.iter().sum();

        let mut blocks = Vec::with_capacity(b);
        let mut total_samples = 0u64;
        let mut estimate = kind.identity();
        for (block_id, block) in data.iter().enumerate() {
            let blev = scores[block_id] / score_sum;
            let rows = block.len();
            if rows == 0 {
                blocks.push(ExtremeBlockOutcome {
                    block_id,
                    blev,
                    rate: 0.0,
                    samples_drawn: 0,
                    extreme: kind.identity(),
                });
                continue;
            }
            let rate = (overall_rate * data_size as f64 * blev / rows as f64).min(1.0);
            let take = ((rate * rows as f64).round() as u64).max(1);
            // "only the extreme value is recorded in each block".
            let mut extreme = kind.identity();
            let mut block_rng = crate::engine::seed::seeded_rng(rng.next_u64());
            sample_from_block(block.as_ref(), take, &mut block_rng, &mut |v| {
                extreme = kind.fold(extreme, v);
            })?;
            total_samples += take;
            estimate = kind.fold(estimate, extreme);
            blocks.push(ExtremeBlockOutcome {
                block_id,
                blev,
                rate,
                samples_drawn: take,
                extreme,
            });
        }

        Ok(ExtremeResult {
            estimate,
            kind,
            blocks,
            total_samples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isla_datagen::normal_values;
    use isla_storage::{BlockSet, RowsBlock};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn aggregator(e: f64) -> ExtremeAggregator {
        ExtremeAggregator::new(IslaConfig::builder().precision(e).build().unwrap()).unwrap()
    }

    fn two_tier_data() -> (BlockSet, f64, f64) {
        // Block 0: low values; block 1: high values holding the max.
        let low = normal_values(50.0, 5.0, 100_000, 1);
        let high = normal_values(150.0, 10.0, 100_000, 2);
        let true_max = low
            .iter()
            .chain(&high)
            .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let true_min = low
            .iter()
            .chain(&high)
            .fold(f64::INFINITY, |a, &b| a.min(b));
        let set = BlockSet::new(vec![
            Arc::new(RowsBlock::new(vec![low])) as Arc<dyn isla_storage::DataBlock>,
            Arc::new(RowsBlock::new(vec![high])),
        ]);
        (set, true_max, true_min)
    }

    #[test]
    fn max_is_a_tight_lower_bound() {
        let (data, true_max, _) = two_tier_data();
        let mut rng = StdRng::seed_from_u64(3);
        let r = aggregator(0.5)
            .aggregate(&data, ExtremeKind::Max, &mut rng)
            .unwrap();
        assert!(
            r.estimate <= true_max,
            "sample max cannot exceed the true max"
        );
        // With tens of thousands of samples in the high block the sample
        // max lands within a few σ-tail units of the truth.
        assert!(
            true_max - r.estimate < 8.0,
            "estimate {} too far below true max {true_max}",
            r.estimate
        );
    }

    #[test]
    fn min_mirrors_max() {
        let (data, _, true_min) = two_tier_data();
        let mut rng = StdRng::seed_from_u64(4);
        let r = aggregator(0.5)
            .aggregate(&data, ExtremeKind::Min, &mut rng)
            .unwrap();
        assert!(r.estimate >= true_min);
        assert!(r.estimate - true_min < 5.0, "estimate {}", r.estimate);
    }

    #[test]
    fn general_condition_boost_favors_the_right_blocks() {
        let (data, _, _) = two_tier_data();
        let mut rng = StdRng::seed_from_u64(5);
        let max_run = aggregator(0.5)
            .aggregate(&data, ExtremeKind::Max, &mut rng)
            .unwrap();
        // MAX boosts the high-mean block (index 1).
        assert!(
            max_run.blocks[1].blev > max_run.blocks[0].blev,
            "MAX must lever the high block: {:?}",
            max_run.blocks.iter().map(|b| b.blev).collect::<Vec<_>>()
        );
        let mut rng = StdRng::seed_from_u64(5);
        let min_run = aggregator(0.5)
            .aggregate(&data, ExtremeKind::Min, &mut rng)
            .unwrap();
        assert!(
            min_run.blocks[0].blev > min_run.blocks[1].blev,
            "MIN must lever the low block"
        );
        // Leverages normalize.
        let total: f64 = max_run.blocks.iter().map(|b| b.blev).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn higher_rates_tighten_the_bound() {
        let (data, true_max, _) = two_tier_data();
        let gap = |e: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            true_max
                - aggregator(e)
                    .aggregate(&data, ExtremeKind::Max, &mut rng)
                    .unwrap()
                    .estimate
        };
        let coarse: f64 = (0..5).map(|s| gap(5.0, s)).sum();
        let fine: f64 = (0..5).map(|s| gap(0.2, s)).sum();
        assert!(
            fine < coarse,
            "tighter precision should shrink the max gap: fine {fine} vs coarse {coarse}"
        );
    }

    #[test]
    fn constant_data_is_exact() {
        let data = BlockSet::from_values(vec![7.0; 10_000], 4);
        let mut rng = StdRng::seed_from_u64(6);
        let r = aggregator(0.5)
            .aggregate(&data, ExtremeKind::Max, &mut rng)
            .unwrap();
        assert_eq!(r.estimate, 7.0);
    }

    #[test]
    fn empty_data_rejected() {
        let data = BlockSet::single(RowsBlock::new(vec![vec![]]));
        let mut rng = StdRng::seed_from_u64(7);
        assert!(matches!(
            aggregator(0.5).aggregate(&data, ExtremeKind::Max, &mut rng),
            Err(IslaError::InsufficientData(_))
        ));
    }
}
