//! Uniform sampling (US): the textbook AQP baseline.

use rand::Rng;
use rand::RngCore;

use isla_core::engine::{scan_blocks, BlockScheduler};
use isla_core::IslaError;
use isla_stats::NeumaierSum;
use isla_storage::BlockSet;

use crate::traits::{check_inputs, Estimator};

/// Plain uniform sampling over the whole dataset: each draw picks one
/// global row index uniformly at random over all `M` rows, and each
/// block then reads its drawn rows in one positional gather — one RNG
/// draw per sample and one block access per block, the cheapest
/// estimator in the suite.
///
/// Note this is genuinely multinomial across blocks — unlike
/// [`crate::StratifiedSampling`], which fixes per-stratum sample counts
/// deterministically. The difference is exactly the across-block variance
/// component stratification removes.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformSampling;

impl Estimator for UniformSampling {
    fn name(&self) -> &'static str {
        "US"
    }

    fn estimate_scheduled(
        &self,
        data: &BlockSet,
        sample_budget: u64,
        scheduler: &dyn BlockScheduler,
        rng: &mut dyn RngCore,
    ) -> Result<f64, IslaError> {
        check_inputs(data, sample_budget)?;
        // Cumulative row counts for O(log b) block lookup per draw.
        let mut cumulative = Vec::with_capacity(data.block_count());
        let mut acc = 0u64;
        for block in data.iter() {
            acc += block.len();
            cumulative.push(acc);
        }
        let total = acc;
        // All row indices come from the caller's stream up front (the
        // multinomial draw is pure RNG work); only the row *reads* fan
        // out across blocks, so scheduling cannot change the estimate.
        let mut rows_by_block: Vec<Vec<u64>> = vec![Vec::new(); data.block_count()];
        for _ in 0..sample_budget {
            let row = rng.random_range(0..total);
            let idx = cumulative.partition_point(|&c| c <= row);
            let base = if idx == 0 { 0 } else { cumulative[idx - 1] };
            rows_by_block[idx].push(row - base);
        }
        let partials = scan_blocks(scheduler.parallelism(), data, |i, block| {
            let rows = &rows_by_block[i];
            let mut values = vec![0.0; rows.len()];
            // A block drawn no row is not read at all.
            if !rows.is_empty() {
                block.gather(&[0], rows, &mut values)?;
            }
            Ok(values.into_iter().collect::<NeumaierSum>().value())
        })?;
        let mut sum = NeumaierSum::new();
        for partial in partials {
            sum.add(partial);
        }
        Ok(sum.value() / sample_budget as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isla_datagen::normal_dataset;
    use isla_storage::RowsBlock;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    #[test]
    fn converges_to_truth() {
        let ds = normal_dataset(100.0, 20.0, 200_000, 10, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let est = UniformSampling
            .estimate(&ds.blocks, 50_000, &mut rng)
            .unwrap();
        // Expected error sd = 20/√50000 ≈ 0.09.
        assert!((est - ds.true_mean).abs() < 0.4, "estimate {est}");
        assert_eq!(UniformSampling.name(), "US");
    }

    #[test]
    fn error_shrinks_with_budget() {
        let ds = normal_dataset(100.0, 20.0, 200_000, 10, 3);
        let mean_abs_err = |budget: u64| {
            let mut total = 0.0;
            for seed in 0..20 {
                let mut rng = StdRng::seed_from_u64(seed);
                let est = UniformSampling
                    .estimate(&ds.blocks, budget, &mut rng)
                    .unwrap();
                total += (est - ds.true_mean).abs();
            }
            total / 20.0
        };
        assert!(mean_abs_err(40_000) < mean_abs_err(400) / 2.0);
    }

    #[test]
    fn draws_respect_block_sizes() {
        // 90% of rows are 1.0, 10% are 11.0: the sample mean converges to
        // the size-weighted mean 2.0, not the block-mean average 6.0.
        let data = BlockSet::new(vec![
            Arc::new(RowsBlock::new(vec![vec![1.0; 9_000]])) as Arc<dyn isla_storage::DataBlock>,
            Arc::new(RowsBlock::new(vec![vec![11.0; 1_000]])),
        ]);
        let mut rng = StdRng::seed_from_u64(4);
        let est = UniformSampling.estimate(&data, 50_000, &mut rng).unwrap();
        assert!((est - 2.0).abs() < 0.2, "estimate {est}");
    }

    #[test]
    fn rejects_empty_inputs() {
        let ds = normal_dataset(100.0, 20.0, 100, 2, 4);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(matches!(
            UniformSampling.estimate(&ds.blocks, 0, &mut rng),
            Err(IslaError::InsufficientData(_))
        ));
        let empty = BlockSet::single(RowsBlock::new(vec![vec![]]));
        assert!(matches!(
            UniformSampling.estimate(&empty, 10, &mut rng),
            Err(IslaError::InsufficientData(_))
        ));
    }
}
