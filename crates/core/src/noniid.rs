//! Non-i.i.d. aggregation (paper Section VII-C): per-block sampling rates
//! and per-block data boundaries.
//!
//! When blocks hold different distributions, a single global `sketch0`
//! and rate work poorly. Following the paper:
//!
//! * blocks with higher local variance get higher sampling rates through
//!   block leverages `blevᵢ = (1 + σᵢ²) / (b + Σσⱼ²)` and
//!   `rateᵢ = r·M·blevᵢ / |Bᵢ|` (capped at 1) — note `Σ blevᵢ = 1`, so
//!   the total expected sample size stays `r·M`;
//! * each block gets its own pilot, `sketch0ᵢ`, and boundaries, and runs
//!   the standard Algorithm 1 + 2 against them.

use rand::RngCore;

use isla_stats::{required_sample_size, WelfordMoments};
use isla_storage::{sample_from_block, BlockReads, BlockSet};

use crate::block_exec::{execute_block, BlockOutcome};
use crate::boundaries::DataBoundaries;
use crate::config::IslaConfig;
use crate::error::IslaError;
use crate::shift::compute_shift;
use crate::summarize::combine_partials;

/// Per-block pre-estimation for the non-i.i.d. pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPreEstimate {
    /// Local standard deviation `σᵢ`.
    pub sigma: f64,
    /// Local sketch `sketch0ᵢ`.
    pub sketch0: f64,
    /// Block leverage `blevᵢ`.
    pub blev: f64,
    /// Local sampling rate `rateᵢ`.
    pub rate: f64,
}

/// The result of a non-i.i.d. aggregation.
#[derive(Debug, Clone)]
pub struct NonIidResult {
    /// The approximate AVG.
    pub estimate: f64,
    /// Total rows `M`.
    pub data_size: u64,
    /// Per-block pre-estimates, in block order.
    pub pre: Vec<BlockPreEstimate>,
    /// Detailed outcomes for blocks that ran the full pipeline
    /// (degenerate/empty blocks are summarized in `pre` only).
    pub blocks: Vec<BlockOutcome>,
    /// Calculation-phase samples drawn.
    pub total_samples: u64,
}

/// ISLA for non-identically-distributed blocks.
#[derive(Debug, Clone)]
pub struct NonIidAggregator {
    config: IslaConfig,
}

impl NonIidAggregator {
    /// Creates the aggregator, validating the configuration.
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

    /// Runs the non-i.i.d. pipeline.
    ///
    /// # Errors
    ///
    /// Storage failures; [`IslaError::InsufficientData`] when the data
    /// cannot support the pilots.
    pub fn aggregate(
        &self,
        data: &BlockSet,
        rng: &mut dyn RngCore,
    ) -> Result<NonIidResult, IslaError> {
        let cfg = &self.config;
        let data_size = data.total_len();
        if data_size == 0 {
            return Err(IslaError::InsufficientData(
                "block set holds no rows".to_string(),
            ));
        }
        let b = data.block_count();

        // Per-block σᵢ pilots; the pooled pilot drives the overall rate.
        let mut sigmas = Vec::with_capacity(b);
        let mut pooled = WelfordMoments::new();
        for block in data.iter() {
            if block.is_empty() {
                sigmas.push(0.0);
                continue;
            }
            let pilot_size = cfg.sigma_pilot_size.min(block.len()).max(2);
            let mut local = WelfordMoments::new();
            sample_from_block(block.as_ref(), pilot_size, rng, &mut |v| {
                local.update(v);
                pooled.update(v);
            })?;
            sigmas.push(local.std_dev_sample().unwrap_or(0.0));
        }
        let overall_sigma = pooled.std_dev_sample().ok_or_else(|| {
            IslaError::InsufficientData("pooled pilot needs at least 2 samples".to_string())
        })?;
        if overall_sigma == 0.0 {
            // Constant data across all blocks: the answer is exact.
            let value = pooled.mean().ok_or_else(|| {
                IslaError::InsufficientData("pooled pilot drew no samples".to_string())
            })?;
            let pre = sigmas
                .iter()
                .map(|&s| BlockPreEstimate {
                    sigma: s,
                    sketch0: value,
                    blev: 1.0 / b as f64,
                    rate: 0.0,
                })
                .collect();
            return Ok(NonIidResult {
                estimate: value,
                data_size,
                pre,
                blocks: Vec::new(),
                total_samples: 0,
            });
        }

        // Overall rate r from the pooled σ (paper: "the samples from the
        // blocks are collected to generate the overall sampling rate r").
        let overall_rate =
            isla_stats::sampling_rate(overall_sigma, cfg.precision, cfg.confidence, data_size);
        let sigma_sq_sum: f64 = sigmas.iter().map(|s| s * s).sum();
        let relaxed_e = cfg.relaxation * cfg.precision;

        let mut pre = Vec::with_capacity(b);
        let mut blocks = Vec::new();
        let mut partials: Vec<(f64, u64)> = Vec::with_capacity(b);
        let mut total_samples = 0u64;
        for (block_id, block) in data.iter().enumerate() {
            let sigma_i = sigmas[block_id];
            let rows = block.len();
            let blev = (1.0 + sigma_i * sigma_i) / (b as f64 + sigma_sq_sum);
            if rows == 0 {
                pre.push(BlockPreEstimate {
                    sigma: sigma_i,
                    sketch0: 0.0,
                    blev,
                    rate: 0.0,
                });
                continue;
            }
            let rate = (overall_rate * data_size as f64 * blev / rows as f64).min(1.0);

            if sigma_i == 0.0 {
                // Locally constant block: one probe pins its mean exactly.
                let mut probe_rng = crate::engine::seed::seeded_rng(rng.next_u64());
                let value = block.sample_one(&mut probe_rng)?;
                pre.push(BlockPreEstimate {
                    sigma: sigma_i,
                    sketch0: value,
                    blev,
                    rate,
                });
                partials.push((value, rows));
                continue;
            }

            // Local sketch pilot at relaxed precision (paper: "a pilot
            // sample set is drawn in each block to calculate sketch0 and
            // σ to generate different data boundaries").
            let pilot = required_sample_size(sigma_i, relaxed_e, cfg.confidence).min(rows);
            let mut local = WelfordMoments::new();
            sample_from_block(block.as_ref(), pilot, rng, &mut |v| local.update(v))?;
            let sketch0 = local.mean().ok_or_else(|| {
                IslaError::InsufficientData("per-block pilot drew no samples".to_string())
            })?;
            pre.push(BlockPreEstimate {
                sigma: sigma_i,
                sketch0,
                blev,
                rate,
            });

            let sample_size = (rate * rows as f64).round() as u64;
            let shift = compute_shift(cfg.shift_policy, sketch0, sigma_i, cfg.p2);
            let boundaries = DataBoundaries::new(sketch0 + shift, sigma_i, cfg.p1, cfg.p2);
            let mut block_rng = crate::engine::seed::seeded_rng(rng.next_u64());
            let outcome = execute_block(
                block.as_ref(),
                block_id,
                sample_size,
                boundaries,
                sketch0 + shift,
                shift,
                cfg,
                &mut block_rng,
            )?;
            total_samples += outcome.samples_drawn;
            partials.push((outcome.answer, rows));
            blocks.push(outcome);
        }

        let estimate = combine_partials(&partials)?;
        Ok(NonIidResult {
            estimate,
            data_size,
            pre,
            blocks,
            total_samples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isla_datagen::synthetic::noniid_dataset;
    use isla_storage::RowsBlock;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn aggregator(e: f64) -> NonIidAggregator {
        NonIidAggregator::new(IslaConfig::builder().precision(e).build().unwrap()).unwrap()
    }

    #[test]
    fn recovers_truth_on_paper_noniid_workload() {
        // Paper §VIII-D: five blocks N(100,20²), N(50,10²), N(80,30²),
        // N(150,60²), N(120,40²), equal sizes, truth 100, e = 0.5.
        let ds = noniid_dataset(1_000_000, 60);
        let mut rng = StdRng::seed_from_u64(1);
        let result = aggregator(0.5).aggregate(&ds.blocks, &mut rng).unwrap();
        assert!(
            (result.estimate - 100.0).abs() < 0.5,
            "estimate {}",
            result.estimate
        );
        assert_eq!(result.pre.len(), 5);
        assert_eq!(result.blocks.len(), 5);
    }

    #[test]
    fn block_leverages_sum_to_one_and_favor_variance() {
        let ds = noniid_dataset(500_000, 61);
        let mut rng = StdRng::seed_from_u64(2);
        let result = aggregator(0.5).aggregate(&ds.blocks, &mut rng).unwrap();
        let blev_sum: f64 = result.pre.iter().map(|p| p.blev).sum();
        assert!((blev_sum - 1.0).abs() < 1e-9, "Σblev = {blev_sum}");
        // Block 3 (σ=60) must out-lever block 1 (σ=10).
        assert!(result.pre[3].blev > result.pre[1].blev * 5.0);
        // And therefore receive a higher sampling rate (equal sizes).
        assert!(result.pre[3].rate > result.pre[1].rate * 5.0);
    }

    #[test]
    fn per_block_sketches_track_local_means() {
        let ds = noniid_dataset(200_000, 62);
        let mut rng = StdRng::seed_from_u64(3);
        let result = aggregator(1.0).aggregate(&ds.blocks, &mut rng).unwrap();
        let truths = [100.0, 50.0, 80.0, 150.0, 120.0];
        for (p, &truth) in result.pre.iter().zip(&truths) {
            assert!(
                (p.sketch0 - truth).abs() < 6.0,
                "sketch0 {} for block with mean {truth}",
                p.sketch0
            );
        }
    }

    #[test]
    fn handles_constant_blocks_exactly() {
        let blocks = BlockSet::new(vec![
            Arc::new(RowsBlock::new(vec![vec![50.0; 10_000]])) as Arc<dyn isla_storage::DataBlock>,
            Arc::new(RowsBlock::new(vec![isla_datagen::normal_values(
                150.0, 10.0, 10_000, 63,
            )])),
        ]);
        let mut rng = StdRng::seed_from_u64(4);
        let result = aggregator(0.5).aggregate(&blocks, &mut rng).unwrap();
        // Truth ≈ (50 + 150)/2 = 100.
        assert!(
            (result.estimate - 100.0).abs() < 1.0,
            "estimate {}",
            result.estimate
        );
        assert_eq!(result.pre[0].sigma, 0.0);
        assert_eq!(result.pre[0].sketch0, 50.0);
        assert_eq!(result.blocks.len(), 1, "only the varying block iterates");
    }

    #[test]
    fn all_constant_data_short_circuits() {
        let blocks = BlockSet::from_values(vec![9.0; 1_000], 4);
        let mut rng = StdRng::seed_from_u64(5);
        let result = aggregator(0.5).aggregate(&blocks, &mut rng).unwrap();
        assert_eq!(result.estimate, 9.0);
        assert!(result.blocks.is_empty());
    }

    #[test]
    fn empty_data_is_rejected() {
        let blocks = BlockSet::single(RowsBlock::new(vec![vec![]]));
        let mut rng = StdRng::seed_from_u64(6);
        assert!(matches!(
            aggregator(0.5).aggregate(&blocks, &mut rng),
            Err(IslaError::InsufficientData(_))
        ));
    }
}
