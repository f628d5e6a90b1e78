//! The execution engine: the paper's Pre-estimation → per-block
//! Calculation → Summarization pipeline, owned once.
//!
//! Every caller — the sequential [`crate::IslaAggregator`], the query
//! executor, and library code running the paper's §VII-E distributed and
//! §VII-F time-constrained modes — enters through this module: an
//! execution mode is a [`BlockScheduler`], and a failure policy is one
//! [`RecoveryPolicy`] argument (the `_with` entry points). Between "the
//! pre-estimate is known" and
//! "the partials are merged" there is one code path — admit → per-block
//! seeds → block fan-out → merge → degrade — and the plan type plugged
//! into it ([`QueryPlan`] or the row model's [`RowPlan`]) is the only
//! fork:
//!
//! * **Plan** ([`QueryPlan`]) — validated config + pre-estimate + shift +
//!   boundaries + resolved sampling rate. Build it with pilots
//!   ([`QueryPlan::prepare`]) or from a cached pre-estimate
//!   ([`QueryPlan::from_pre_estimate`] via [`PreEstimateCache`], the
//!   repeated-query fast path);
//! * **Schedule** ([`BlockScheduler`]) — where the per-block Calculation
//!   phase runs and under what sample budget: [`SequentialScheduler`],
//!   [`PooledScheduler`] (crossbeam worker pool), or
//!   [`DeadlineScheduler`] (a budget around any inner scheduler; the
//!   engine applies the one capping rule to whichever plan runs).
//!   Per-block seeds are derived once ([`derive_block_seeds`]) and every
//!   plan goes through the one fan-out ([`scan_blocks_recovering`]), so
//!   every scheduler returns the bit-identical answer for the same RNG
//!   stream;
//! * **Merge** ([`PartialAggregate`]) — associative per-block state that
//!   combines in any completion order and finalizes into the
//!   size-weighted Summarization answer.
//!
//! The ground truth the estimates are compared against runs on the same
//! schedulers: [`exact`] folds every `METHOD EXACT` scan as per-block
//! partials merged in block order, one answer at any worker count.
//!
//! Sampling runs through the storage layer's **batch kernels**
//! ([`isla_storage::kernel`]): the per-block Calculation phase draws
//! whole batches on a reusable thread-local buffer
//! (`BlockReads::sample_rows_batch`; a scalar draw projects it to column
//! 0), bit-identical in
//! values and RNG stream to the scalar loops they replaced — so the
//! determinism guarantees above survive the batching unchanged (pinned
//! by `tests/kernel_identity.rs`).
//!
//! The [`rows`] module generalizes the pipeline to the **row model**:
//! a [`RowSpec`] (aggregated column + compiled predicate + group key)
//! plans per group ([`RowPlan`], with selectivity estimated by the
//! pilots), executes through the same schedulers, and merges through
//! the per-group [`GroupedPartial`] — so `WHERE` and `GROUP BY` run
//! with the same determinism guarantees as the scalar path.
//!
//! ```
//! use isla_core::engine::{self, RateSpec, SequentialScheduler, PooledScheduler};
//! use isla_core::IslaConfig;
//! use isla_storage::BlockSet;
//! use rand::SeedableRng;
//!
//! let data = BlockSet::from_values(
//!     (0..60_000).map(|i| 50.0 + (i % 11) as f64).collect(),
//!     8,
//! );
//! let config = IslaConfig::builder().precision(0.5).build().unwrap();
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let sequential = engine::run(&data, &config, RateSpec::Derived, &SequentialScheduler, &mut rng).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let pooled_scheduler = PooledScheduler::new(4).unwrap();
//! let pooled = engine::run(&data, &config, RateSpec::Derived, &pooled_scheduler, &mut rng).unwrap();
//! assert_eq!(sequential.estimate, pooled.estimate); // scheduling never changes the answer
//! ```

pub mod cache;
pub mod exact;
mod fold;
pub mod partial;
pub mod plan;
pub mod recovery;
pub mod rows;
pub mod scheduler;
pub mod seed;

pub use cache::{
    CacheKey, CacheLookup, CacheStats, EpochCacheStats, Lookup, PreEstimateCache, RowCacheLookup,
};
pub use exact::{
    scan_exact_extreme, scan_exact_filtered_extreme, scan_exact_groups, scan_exact_groups_on,
    scan_exact_mean, GroupExact,
};
pub use partial::{FinalAggregate, GroupedAggregate, GroupedPartial, PartialAggregate};
pub use plan::{QueryPlan, RateSpec};
pub use recovery::{
    run_block_recovering, Backoff, BlockFailure, Degradation, FailureMode, RecoveryPolicy,
    RetryPolicy,
};
pub use rows::{
    execute_row_block, finish_row_pilot_fold, fold_row_pilot_segment, hit_rate_pilot,
    pinned_row_pre_estimate, probe_row_draws, row_pre_estimate_with, run_row_plan_with, run_rows,
    GroupEstimate, GroupPlan, GroupPre, GroupedEngineResult, RowBlockOutcome, RowGroupOutcome,
    RowPilotFold, RowPlan, RowPreEstimate, RowSpec,
};
pub use scheduler::{
    affordable_draws, execute_planned_block, scan_blocks, scan_blocks_recovering, BlockExecution,
    BlockScheduler, DeadlineScheduler, PooledScheduler, SequentialScheduler, WorkerStats,
};
pub use seed::{derive_block_seeds, seeded_rng, stream_seed};

use rand::RngCore;

use isla_storage::{BlockSet, DataBlock};

use crate::block_exec::{execute_block, BlockOutcome};
use crate::config::IslaConfig;
use crate::error::IslaError;
use crate::pre_estimation::PreEstimate;

/// The engine's complete output: the combined answer plus everything the
/// wrapper APIs expose (pre-estimate, shift, per-block outcomes, worker
/// statistics, deadline capping).
#[derive(Debug, Clone)]
pub struct EngineResult {
    /// The approximate AVG — the headline answer.
    pub estimate: f64,
    /// The approximate SUM, `estimate × M`.
    pub sum_estimate: f64,
    /// Total rows `M` across blocks.
    pub data_size: u64,
    /// Pre-estimation output backing the plan.
    pub pre: PreEstimate,
    /// Negative-data translation applied (0 when none).
    pub shift: f64,
    /// Per-block outcomes, in block order.
    pub blocks: Vec<BlockOutcome>,
    /// Calculation-phase samples drawn (excludes pilots).
    pub total_samples: u64,
    /// Per-worker statistics (empty for degenerate short-circuits).
    pub worker_stats: Vec<WorkerStats>,
    /// Whether an admission policy (deadline budget) capped the plan.
    pub time_limited: bool,
    /// Present when a best-effort run dropped failed blocks: the
    /// failure accounting and the honestly widened half-width. `None`
    /// means full coverage — the answer is exactly the strict answer.
    pub degradation: Option<Degradation>,
}

impl EngineResult {
    /// Samples drawn including the pre-estimation pilots.
    pub fn total_samples_with_pilots(&self) -> u64 {
        self.total_samples + self.pre.sigma_pilot_used + self.pre.sketch_pilot_used
    }
}

/// Prepares a plan on `data` (running the pilots) and executes it on
/// `scheduler` — the whole pipeline in one call.
///
/// # Errors
///
/// Invalid configuration/rate, pre-estimation failures, or the first
/// block failure.
pub fn run(
    data: &BlockSet,
    config: &IslaConfig,
    rate: RateSpec,
    scheduler: &dyn BlockScheduler,
    rng: &mut dyn RngCore,
) -> Result<EngineResult, IslaError> {
    let plan = QueryPlan::prepare(data, config, rate, rng)?;
    run_plan(plan, data, scheduler, rng)
}

/// Executes an already-prepared plan on `scheduler`, strictly:
/// [`run_plan_with`] under [`RecoveryPolicy::strict`].
///
/// The scheduler's sample budget is applied first (deadline capping),
/// then per-block seeds are derived from `rng` — one `next_u64` per
/// block in block order — and the Calculation phase fans out.
/// Degenerate plans (σ = 0) short-circuit to the pinned answer without
/// touching blocks or `rng`.
///
/// Every other engine entry point takes its failure policy as one
/// `&RecoveryPolicy` argument; this strict form survives beside
/// [`run_plan_with`] only because the repo benchmark's adapter
/// (`benchmark/src/sut.rs`, frozen) calls it by this name and
/// signature — as it does [`PreEstimateCache::get_or_compute_with`] and
/// the other items listed under "The adapter surface" in
/// `benchmark/README.md`.
///
/// # Errors
///
/// The failure of the lowest-numbered failing block, or
/// [`IslaError::InsufficientData`] when the blocks carry no rows.
pub fn run_plan(
    plan: QueryPlan,
    data: &BlockSet,
    scheduler: &dyn BlockScheduler,
    rng: &mut dyn RngCore,
) -> Result<EngineResult, IslaError> {
    run_plan_with(plan, data, scheduler, &RecoveryPolicy::strict(), rng)
}

/// Executes an already-prepared plan on `scheduler` under `recovery`.
///
/// Under [`FailureMode::BestEffort`], blocks that exhaust their retry
/// budget are dropped: the answer finalizes over the survivors (the
/// size-weighted combine re-normalizes inherently) and
/// [`EngineResult::degradation`] reports the failures, surviving
/// coverage, and widened half-width. Seeds are derived for *every*
/// block before execution, so surviving blocks draw the identical
/// samples a full run would have — a degraded answer is bit-identical
/// across schedulers, worker counts, and reruns.
///
/// # Errors
///
/// Strict mode: the failure of the lowest-numbered failing block.
/// Best-effort: only [`IslaError::InsufficientData`] when *every* block
/// failed (no surviving coverage to estimate from).
pub fn run_plan_with(
    plan: QueryPlan,
    data: &BlockSet,
    scheduler: &dyn BlockScheduler,
    recovery: &RecoveryPolicy,
    rng: &mut dyn RngCore,
) -> Result<EngineResult, IslaError> {
    let run = run_calculation(&plan, plan.config(), data, scheduler, recovery, rng)?;
    let data_size = plan.data_size();
    Ok(EngineResult {
        estimate: run.answer.estimate,
        sum_estimate: run.answer.estimate * data_size as f64,
        data_size,
        pre: plan.pre().clone(),
        shift: plan.shift(),
        blocks: run.answer.blocks,
        total_samples: run.answer.total_samples,
        worker_stats: run.worker_stats,
        time_limited: run.time_limited,
        degradation: run.degradation,
    })
}

/// What a plan plugs into the Calculation-phase spine
/// ([`run_calculation`]): how one block executes, how outcomes merge,
/// and the few numbers admission and degradation need. The two
/// implementors — [`QueryPlan`] and [`RowPlan`] — are the only fork in
/// the pipeline between "the pre-estimate is known" and "the partials
/// are merged".
pub(crate) trait CalcPlan: Sync {
    /// One block's outcome.
    type Outcome: Send;
    /// The merged, finalized answer.
    type Answer;

    /// The plan's own calculation rate (admission never raises it).
    fn rate(&self) -> f64;
    /// Pilot draws the pre-estimate behind this plan spent.
    fn pilot_samples(&self) -> u64;
    /// Whether the Calculation phase draws from block `block_id` at the
    /// plan's rate; a block it does not is offered no draw.
    fn samples(&self, _block_id: usize) -> bool {
        true
    }
    /// The draws a sampled block of `block_len` rows receives at `rate`.
    fn sample_size(&self, rate: f64, block_len: u64) -> u64 {
        plan::sample_size(rate, block_len)
    }
    /// The answer pinned without executing any block, if there is one.
    fn pinned(&self) -> Option<Self::Answer> {
        None
    }
    /// Executes one block: `draws` samples from an RNG seeded by `seed`.
    fn execute_block(
        &self,
        block: &dyn DataBlock,
        block_id: usize,
        seed: u64,
        draws: u64,
    ) -> Result<Self::Outcome, IslaError>;
    /// Whether every answer in the outcome is finite.
    fn is_finite(outcome: &Self::Outcome) -> bool;
    /// A surviving block's `(answer, rows)` for the degradation
    /// assessment; `None` for the answer when the block carries no
    /// evidence of its own (it then stands at the overall estimate).
    fn survivor(outcome: &Self::Outcome) -> (Option<f64>, u64);
    /// Merges the surviving outcomes (handed over in block order).
    fn finalize(&self, outcomes: Vec<Self::Outcome>) -> Result<Self::Answer, IslaError>;
    /// The overall estimate of a finalized answer — known only once
    /// `finalize` has consumed the outcomes, which is why `survivor`
    /// cannot be handed it.
    fn estimate(answer: &Self::Answer) -> f64;
}

/// The spine's product: the plan's finalized answer plus what every
/// run reports the same way.
pub(crate) struct CalcRun<A> {
    pub(crate) answer: A,
    pub(crate) worker_stats: Vec<WorkerStats>,
    pub(crate) time_limited: bool,
    pub(crate) degradation: Option<Degradation>,
}

/// The one admission rule: a plan that wants more samples (pilots
/// included) than `budget` has its calculation rate capped to what the
/// budget leaves after the — already spent — pilots, spread over the
/// rows of the blocks the plan samples ([`CalcPlan::samples`]; `M` for
/// every plan but a split row plan), never above the plan's own rate.
/// Returns the rate to run at and whether it was capped.
///
/// `planned` counts the draws the rate *offers* every sampled block. A
/// row plan reads fewer where a zone map rules a block out (see
/// [`RowBlockOutcome::offered`]), so the rule is conservative there: it
/// may cap a plan whose reads alone would have fit. Tightening it would
/// move the answer bits of `WITHIN` / `SAMPLES` queries and is a
/// separate change.
pub(crate) fn admitted_rate<P: CalcPlan>(
    plan: &P,
    budget: Option<u64>,
    data: &BlockSet,
) -> (f64, bool) {
    let rate = plan.rate();
    let Some(budget) = budget else {
        return (rate, false);
    };
    let pilots = plan.pilot_samples();
    let (mut planned, mut rows) = (0, 0);
    for (_, block) in data.iter().enumerate().filter(|&(b, _)| plan.samples(b)) {
        planned += plan.sample_size(rate, block.len());
        rows += block.len();
    }
    if planned + pilots <= budget {
        return (rate, false);
    }
    let calc_budget = budget.saturating_sub(pilots);
    let capped = (calc_budget as f64 / rows as f64)
        .clamp(f64::MIN_POSITIVE, 1.0)
        .min(rate);
    (capped, true)
}

/// The Calculation phase, once, for either plan type: a pinned answer
/// short-circuits before any RNG draw; otherwise admit (cap the rate to
/// the scheduler's budget), derive every block's seed from `rng`, fan
/// the blocks out, refuse a total loss, merge the survivors, and assess
/// the degradation (against `config`'s precision and confidence) when
/// blocks were dropped.
pub(crate) fn run_calculation<P: CalcPlan>(
    plan: &P,
    config: &IslaConfig,
    data: &BlockSet,
    scheduler: &dyn BlockScheduler,
    recovery: &RecoveryPolicy,
    rng: &mut dyn RngCore,
) -> Result<CalcRun<P::Answer>, IslaError> {
    if let Some(answer) = plan.pinned() {
        return Ok(CalcRun {
            answer,
            worker_stats: Vec::new(),
            time_limited: false,
            degradation: None,
        });
    }
    let (rate, time_limited) = admitted_rate(plan, scheduler.sample_budget(), data);
    let seeds = derive_block_seeds(rng, data.block_count());
    let run =
        scheduler::execute_blocks(plan, rate, data, &seeds, recovery, scheduler.parallelism())?;
    if run.failures.len() >= data.block_count() {
        return Err(IslaError::InsufficientData(
            "every block failed during best-effort execution; no surviving coverage".to_string(),
        ));
    }
    let survivors: Vec<(Option<f64>, u64)> = if run.failures.is_empty() {
        Vec::new()
    } else {
        run.outcomes.iter().map(P::survivor).collect()
    };
    let answer = plan.finalize(run.outcomes)?;
    let degradation = (!run.failures.is_empty()).then(|| {
        let overall = P::estimate(&answer);
        let survivor_answers: Vec<(f64, u64)> = survivors
            .iter()
            .map(|&(own, rows)| (own.unwrap_or(overall), rows))
            .collect();
        let lost_rows: u64 = run
            .failures
            .iter()
            .map(|f| data.block(f.block_id).len())
            .sum();
        Degradation::assess(
            run.failures,
            &survivor_answers,
            lost_rows,
            config.precision,
            config.confidence,
        )
    });
    Ok(CalcRun {
        answer,
        worker_stats: run.worker_stats,
        time_limited,
        degradation,
    })
}

impl CalcPlan for QueryPlan {
    type Outcome = BlockOutcome;
    type Answer = FinalAggregate;

    fn rate(&self) -> f64 {
        self.rate()
    }

    fn pilot_samples(&self) -> u64 {
        self.pre().sigma_pilot_used + self.pre().sketch_pilot_used
    }

    /// A pinned pre-estimate (σ = 0): constant data, or the exact mean
    /// from the block sketches.
    fn pinned(&self) -> Option<FinalAggregate> {
        self.is_degenerate().then(|| FinalAggregate {
            estimate: self.pre().sketch0,
            blocks: Vec::new(),
            total_samples: 0,
        })
    }

    fn execute_block(
        &self,
        block: &dyn DataBlock,
        block_id: usize,
        seed: u64,
        draws: u64,
    ) -> Result<BlockOutcome, IslaError> {
        execute_block(
            block,
            block_id,
            draws,
            self.boundaries(),
            self.sketch0_shifted(),
            self.shift(),
            self.config(),
            &mut seeded_rng(seed),
        )
    }

    fn is_finite(outcome: &BlockOutcome) -> bool {
        outcome.answer.is_finite()
    }

    fn survivor(outcome: &BlockOutcome) -> (Option<f64>, u64) {
        (Some(outcome.answer), outcome.rows)
    }

    fn finalize(&self, outcomes: Vec<BlockOutcome>) -> Result<FinalAggregate, IslaError> {
        PartialAggregate::from(outcomes).finalize()
    }

    fn estimate(answer: &FinalAggregate) -> f64 {
        answer.estimate
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
    fn run_produces_the_classic_pipeline_output() {
        let ds = normal_dataset(100.0, 20.0, 300_000, 10, 63);
        let mut rng = StdRng::seed_from_u64(5);
        let out = run(
            &ds.blocks,
            &config(0.5),
            RateSpec::Derived,
            &SequentialScheduler,
            &mut rng,
        )
        .unwrap();
        assert!((out.estimate - ds.true_mean).abs() < 1.0);
        assert_eq!(out.blocks.len(), 10);
        assert_eq!(out.data_size, 300_000);
        assert!((out.sum_estimate - out.estimate * 300_000.0).abs() < 1e-3);
        assert!(out.total_samples > 0);
        assert!(out.total_samples_with_pilots() > out.total_samples);
        assert!(!out.time_limited);
        assert_eq!(out.worker_stats.len(), 1);
        assert_eq!(out.worker_stats[0].samples_drawn, out.total_samples);
    }

    #[test]
    fn degenerate_data_short_circuits_without_block_execution() {
        let data = BlockSet::from_values(vec![3.25; 5_000], 5);
        let mut rng = StdRng::seed_from_u64(6);
        let out = run(
            &data,
            &config(0.1),
            RateSpec::Derived,
            &SequentialScheduler,
            &mut rng,
        )
        .unwrap();
        assert_eq!(out.estimate, 3.25);
        assert!(out.blocks.is_empty());
        assert!(out.worker_stats.is_empty());
        assert_eq!(out.total_samples, 0);
    }

    #[test]
    fn best_effort_degrades_and_widens_instead_of_failing() {
        use isla_storage::FaultPlan;

        let ds = normal_dataset(100.0, 20.0, 300_000, 10, 65);
        let cfg = config(0.5);
        let faulty = FaultPlan::new(9).lose(0.25).arm(&ds.blocks);

        // Strict mode fails outright on the same faults.
        let mut rng = StdRng::seed_from_u64(8);
        let plan = QueryPlan::prepare(&ds.blocks, &cfg, RateSpec::Derived, &mut rng).unwrap();
        assert!(run_plan(
            plan.clone(),
            &faulty,
            &SequentialScheduler,
            &mut rng.clone()
        )
        .is_err());

        // Best-effort drops the lost blocks and reports the damage.
        let out = run_plan_with(
            plan.clone(),
            &faulty,
            &SequentialScheduler,
            &RecoveryPolicy::best_effort(RetryPolicy::attempts(2)),
            &mut rng,
        )
        .unwrap();
        let degradation = out.degradation.expect("blocks were lost");
        assert!(!degradation.failures.is_empty());
        assert!(degradation.coverage < 1.0 && degradation.coverage > 0.0);
        assert!(degradation.widened_half_width > degradation.base_half_width);
        assert_eq!(degradation.base_half_width, 0.5);
        assert_eq!(
            out.blocks.len() + degradation.failures.len(),
            10,
            "every block either survived or is accounted as failed"
        );
        // Survivors of an i.i.d. dataset still estimate the mean.
        assert!((out.estimate - ds.true_mean).abs() < 2.0);

        // A fault-free best-effort run reports no degradation and the
        // bit-identical strict answer.
        let mut rng = StdRng::seed_from_u64(8);
        let plan2 = QueryPlan::prepare(&ds.blocks, &cfg, RateSpec::Derived, &mut rng).unwrap();
        let mut rng_a = rng.clone();
        let strict = run_plan(plan2.clone(), &ds.blocks, &SequentialScheduler, &mut rng_a).unwrap();
        let best = run_plan_with(
            plan2,
            &ds.blocks,
            &SequentialScheduler,
            &RecoveryPolicy::best_effort(RetryPolicy::attempts(3)),
            &mut rng,
        )
        .unwrap();
        assert!(best.degradation.is_none());
        assert_eq!(strict.estimate, best.estimate);
    }

    #[test]
    fn total_loss_is_an_error_not_a_silent_zero() {
        use isla_storage::FaultPlan;

        let ds = normal_dataset(100.0, 20.0, 60_000, 4, 66);
        let faulty = FaultPlan::new(3).lose(1.0).arm(&ds.blocks);
        let mut rng = StdRng::seed_from_u64(9);
        let plan =
            QueryPlan::prepare(&ds.blocks, &config(0.5), RateSpec::Derived, &mut rng).unwrap();
        let r = run_plan_with(
            plan,
            &faulty,
            &SequentialScheduler,
            &RecoveryPolicy::best_effort(RetryPolicy::default()),
            &mut rng,
        );
        assert!(matches!(r, Err(IslaError::InsufficientData(_))));
    }

    #[test]
    fn deadline_budget_flows_through_as_time_limited() {
        let ds = normal_dataset(100.0, 20.0, 400_000, 10, 64);
        let cfg = config(0.1); // demands far more than the budget below
        let budget = 60_000;
        let scheduler = DeadlineScheduler::new(SequentialScheduler, budget);
        let mut rng = StdRng::seed_from_u64(7);
        let out = run(&ds.blocks, &cfg, RateSpec::Derived, &scheduler, &mut rng).unwrap();
        assert!(out.time_limited);
        // The calculation phase gets whatever the pilots left over, so
        // the total draw (pilots + calc) lands on the budget.
        assert!(
            (out.total_samples_with_pilots() as i64 - budget as i64).abs() <= 10,
            "capped run drew {} of budget {budget}",
            out.total_samples_with_pilots()
        );
        assert!(out.total_samples > 0, "some calculation still ran");
        assert!((out.estimate - ds.true_mean).abs() < 3.0);
    }
}
