//! Online aggregation (paper Section VII-A): progressive refinement
//! without storing samples.
//!
//! "In each computing block, paramS and paramL are stored … instead of
//! storing all the samples. … if users would like to continue
//! computations to obtain an answer with a higher precision, then our
//! system can continue computations based on the data boundaries, paramS,
//! and paramL."
//!
//! [`OnlineAggregator`] keeps the data boundaries and the per-block
//! accumulators across rounds; each [`OnlineAggregator::refine`] call
//! draws additional samples into the same accumulators and re-runs only
//! the (cheap) iteration phase.

use rand::RngCore;

use isla_storage::{sample_from_block, BlockSet};

use crate::accumulate::SampleAccumulator;
use crate::block_exec::iteration_phase;
use crate::config::IslaConfig;
use crate::engine::{QueryPlan, RateSpec};
use crate::error::IslaError;
use crate::summarize::combine_partials;

/// The estimate after an online round.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineSnapshot {
    /// Current approximate AVG.
    pub estimate: f64,
    /// Rounds executed so far (the initial round counts as 1).
    pub rounds: u32,
    /// Calculation-phase samples drawn so far, across all rounds.
    pub total_samples: u64,
    /// Per-block `(answer, |S|, |L|)` diagnostics for this snapshot.
    pub block_answers: Vec<(f64, u64, u64)>,
}

/// Progressive ISLA aggregation over a fixed block set.
#[derive(Debug)]
pub struct OnlineAggregator {
    config: IslaConfig,
    data: BlockSet,
    plan: QueryPlan,
    accumulators: Vec<SampleAccumulator>,
    rows: Vec<u64>,
    round_sample_sizes: Vec<u64>,
    rounds: u32,
    total_samples: u64,
}

impl OnlineAggregator {
    /// Runs pre-estimation plus the initial sampling round. The plan
    /// (boundaries, shift, rate) comes from [`crate::engine`] and is
    /// pinned for the aggregator's lifetime — refinement rounds keep
    /// accumulating against the same boundaries.
    ///
    /// # Errors
    ///
    /// As [`crate::IslaAggregator::aggregate`]. Degenerate (σ = 0) data is
    /// rejected here — there is nothing to refine.
    pub fn start(
        data: BlockSet,
        config: IslaConfig,
        rng: &mut dyn RngCore,
    ) -> Result<Self, IslaError> {
        let plan = QueryPlan::prepare(&data, &config, RateSpec::Derived, rng)?;
        if plan.is_degenerate() {
            return Err(IslaError::InsufficientData(
                "constant data needs no online refinement".to_string(),
            ));
        }
        let rows: Vec<u64> = data.iter().map(|b| b.len()).collect();
        let round_sample_sizes: Vec<u64> = rows.iter().map(|&r| plan.sample_size_for(r)).collect();
        let accumulators = vec![SampleAccumulator::new(plan.boundaries()); rows.len()];
        let mut this = Self {
            config,
            data,
            plan,
            accumulators,
            rows,
            round_sample_sizes,
            rounds: 0,
            total_samples: 0,
        };
        this.draw_round(1.0, rng)?;
        Ok(this)
    }

    /// Draws one more round of samples (a `fraction` of the initial
    /// per-block sample sizes) into the persisted accumulators.
    ///
    /// # Errors
    ///
    /// [`IslaError::InvalidConfig`] for a non-positive fraction; storage
    /// errors from sampling.
    pub fn refine(
        &mut self,
        fraction: f64,
        rng: &mut dyn RngCore,
    ) -> Result<OnlineSnapshot, IslaError> {
        if !(fraction > 0.0 && fraction.is_finite()) {
            return Err(IslaError::InvalidConfig(format!(
                "refinement fraction must be positive, got {fraction}"
            )));
        }
        self.draw_round(fraction, rng)?;
        self.snapshot()
    }

    fn draw_round(&mut self, fraction: f64, rng: &mut dyn RngCore) -> Result<(), IslaError> {
        for (block, (acc, &base)) in self
            .data
            .iter()
            .zip(self.accumulators.iter_mut().zip(&self.round_sample_sizes))
        {
            let take = (base as f64 * fraction).round() as u64;
            if take == 0 {
                continue;
            }
            let mut block_rng = crate::engine::seed::seeded_rng(rng.next_u64());
            let shift = self.plan.shift();
            sample_from_block(block.as_ref(), take, &mut block_rng, &mut |v| {
                acc.offer(v + shift);
            })?;
            self.total_samples += take;
        }
        self.rounds += 1;
        Ok(())
    }

    /// Re-runs the iteration phase on the current accumulators.
    ///
    /// # Errors
    ///
    /// [`IslaError::InsufficientData`] when no block holds any rows.
    pub fn snapshot(&self) -> Result<OnlineSnapshot, IslaError> {
        let mut partials = Vec::with_capacity(self.accumulators.len());
        let mut block_answers = Vec::with_capacity(self.accumulators.len());
        for (acc, &rows) in self.accumulators.iter().zip(&self.rows) {
            let phase = iteration_phase(acc, self.plan.sketch0_shifted(), &self.config);
            let answer = phase.answer - self.plan.shift();
            partials.push((answer, rows));
            block_answers.push((answer, acc.u(), acc.v()));
        }
        Ok(OnlineSnapshot {
            estimate: combine_partials(&partials)?,
            rounds: self.rounds,
            total_samples: self.total_samples,
            block_answers,
        })
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Calculation-phase samples drawn so far.
    pub fn total_samples(&self) -> u64 {
        self.total_samples
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
    fn refinement_accumulates_samples_and_stays_accurate() {
        let ds = normal_dataset(100.0, 20.0, 400_000, 10, 50);
        let mut rng = StdRng::seed_from_u64(1);
        let mut online = OnlineAggregator::start(ds.blocks.clone(), config(1.0), &mut rng).unwrap();
        let first = online.snapshot().unwrap();
        assert_eq!(first.rounds, 1);
        // e = 1.0 is a 95% interval; allow 2e for a single seeded run.
        assert!((first.estimate - ds.true_mean).abs() < 2.0);

        let initial_samples = online.total_samples();
        let second = online.refine(1.0, &mut rng).unwrap();
        assert_eq!(second.rounds, 2);
        assert_eq!(second.total_samples, initial_samples * 2);
        assert!((second.estimate - ds.true_mean).abs() < 2.0);

        // Accumulators really persisted: region counts grow.
        let (_, u1, v1) = first.block_answers[0];
        let (_, u2, v2) = second.block_answers[0];
        assert!(u2 > u1 && v2 > v1);
    }

    #[test]
    fn refinement_tightens_the_estimate_on_average() {
        // Across several seeds, 4 extra rounds should shrink the mean
        // absolute error versus round 1.
        let ds = normal_dataset(100.0, 20.0, 300_000, 5, 51);
        let (mut err1, mut err5) = (0.0, 0.0);
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut online =
                OnlineAggregator::start(ds.blocks.clone(), config(2.0), &mut rng).unwrap();
            err1 += (online.snapshot().unwrap().estimate - ds.true_mean).abs();
            for _ in 0..4 {
                online.refine(1.0, &mut rng).unwrap();
            }
            err5 += (online.snapshot().unwrap().estimate - ds.true_mean).abs();
        }
        assert!(
            err5 < err1,
            "5-round error {err5:.4} should beat 1-round error {err1:.4}"
        );
    }

    #[test]
    fn rejects_bad_fraction_and_constant_data() {
        let ds = normal_dataset(100.0, 20.0, 50_000, 5, 52);
        let mut rng = StdRng::seed_from_u64(3);
        let mut online = OnlineAggregator::start(ds.blocks, config(1.0), &mut rng).unwrap();
        assert!(matches!(
            online.refine(0.0, &mut rng),
            Err(IslaError::InvalidConfig(_))
        ));
        assert!(matches!(
            online.refine(f64::NAN, &mut rng),
            Err(IslaError::InvalidConfig(_))
        ));

        let constant = BlockSet::from_values(vec![1.0; 100], 2);
        assert!(matches!(
            OnlineAggregator::start(constant, config(1.0), &mut rng),
            Err(IslaError::InsufficientData(_))
        ));
    }

    #[test]
    fn fractional_refinement_draws_proportionally() {
        let ds = normal_dataset(100.0, 20.0, 100_000, 4, 53);
        let mut rng = StdRng::seed_from_u64(4);
        let mut online = OnlineAggregator::start(ds.blocks, config(1.0), &mut rng).unwrap();
        let base = online.total_samples();
        online.refine(0.5, &mut rng).unwrap();
        let grown = online.total_samples();
        let added = grown - base;
        // Within rounding of half the base round.
        assert!(
            (added as f64 - base as f64 / 2.0).abs() <= online.rows.len() as f64,
            "added {added}, base {base}"
        );
    }
}
