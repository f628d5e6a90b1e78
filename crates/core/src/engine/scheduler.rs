//! Block schedulers: where and when the per-block Calculation phase runs.
//!
//! A [`BlockScheduler`] says *where* a plan's blocks run — how many at a
//! time, and under what sample budget — never *what* runs: every plan,
//! scalar or row-model, goes through the one block fan-out in this
//! module. Because per-block seeds are fixed before execution
//! ([`crate::engine::derive_block_seeds`]) and partials re-canonicalize
//! on finalize, **every scheduler produces the bit-identical answer**
//! for the same plan and RNG stream:
//!
//! * [`SequentialScheduler`] — blocks in order on the calling thread;
//! * [`PooledScheduler`] — block tasks scattered over a crossbeam
//!   worker pool, results gathered as they complete;
//! * [`DeadlineScheduler`] — a sample budget stated around any inner
//!   scheduler (the paper's §VII-F time constraint): when the plan
//!   wants more samples than the budget affords, the engine caps the
//!   rate and marks the run time-limited; [`affordable_draws`] turns a
//!   wall-clock deadline into that budget.
//!
//! [`scan_blocks`] is the same fan-out for *non-ISLA* per-block work:
//! the baseline estimators run their block scans through it, so
//! US/STS/MV/MVB/SLEV parallelize with the same worker pool, and so do
//! the `METHOD EXACT` scans ([`super::exact`]).
//!
//! Every per-block attempt runs under the [`super::recovery`] layer:
//! transient storage errors retry with deterministic backoff, worker
//! panics surface as typed [`IslaError::Internal`] errors instead of
//! wedging the pool, and under a best-effort [`RecoveryPolicy`] failed
//! blocks are dropped into a failure list rather than failing the run.
//! A strict run reports the failure with the lowest block id — the same
//! error on every scheduler, whatever order the workers finished in.

use std::time::{Duration, Instant};

use crossbeam::channel;
use rand::RngCore;

use isla_storage::{BlockSet, DataBlock};

use crate::block_exec::BlockOutcome;
use crate::error::IslaError;

use super::plan::QueryPlan;
use super::recovery::{run_block_recovering, BlockFailure, RecoveryPolicy};
use super::CalcPlan;

/// Per-worker execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Blocks this worker processed.
    pub blocks_processed: u64,
    /// Samples this worker drew.
    pub samples_drawn: u64,
}

/// Everything a scheduler needs to execute one plan: the plan itself,
/// the data, and the pre-derived per-block seeds.
#[derive(Debug)]
pub struct BlockExecution<'a> {
    /// The resolved plan.
    pub plan: &'a QueryPlan,
    /// The block set under aggregation.
    pub data: &'a BlockSet,
    /// Per-block RNG seeds, one per block in block order.
    pub seeds: &'a [u64],
    /// Retry and failure-mode policy governing every block attempt.
    pub recovery: &'a RecoveryPolicy,
}

/// Where a plan's per-block Calculation phase runs: how many blocks at
/// a time, and under what sample budget. What runs per block is the
/// plan's business; each block's RNG derives exclusively from its
/// pre-derived seed, so the answer is independent of scheduling.
pub trait BlockScheduler {
    /// Short display name (`"sequential"`, `"pooled"`, …).
    fn name(&self) -> &'static str;

    /// Number of blocks this scheduler works on concurrently.
    fn parallelism(&self) -> usize;

    /// The most samples (pilots included) a run on this scheduler may
    /// spend; `None` when uncapped. The engine applies the capping rule
    /// — the same one for scalar and row plans — before any seed is
    /// drawn.
    fn sample_budget(&self) -> Option<u64> {
        None
    }
}

/// A borrowed scheduler schedules exactly as its referent — what lets a
/// [`DeadlineScheduler`] wrap a `&dyn BlockScheduler` chosen at run time.
impl<S: BlockScheduler + ?Sized> BlockScheduler for &S {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn parallelism(&self) -> usize {
        (**self).parallelism()
    }

    fn sample_budget(&self) -> Option<u64> {
        (**self).sample_budget()
    }
}

/// Executes one block of a plan with its pre-derived seed — the single
/// definition of "run block `i`" shared by every scheduler.
///
/// # Errors
///
/// Propagates storage errors from sampling.
pub fn execute_planned_block(
    exec: &BlockExecution<'_>,
    block_id: usize,
) -> Result<BlockOutcome, IslaError> {
    let block = exec.data.block(block_id);
    exec.plan.execute_block(
        block.as_ref(),
        block_id,
        exec.seeds[block_id],
        exec.plan.sample_size_for(block.len()),
    )
}

/// What the block fan-out hands back for one plan: the surviving
/// blocks' outcomes in block order, who ran them, and who failed.
pub(crate) struct BlockRun<O> {
    pub(crate) outcomes: Vec<O>,
    pub(crate) worker_stats: Vec<WorkerStats>,
    /// Sorted by block id; empty under a strict policy.
    pub(crate) failures: Vec<BlockFailure>,
}

/// The Calculation phase of any plan: every block sampled at `rate`
/// from its own seed, `parallelism` blocks at a time, each attempt
/// under the recovery layer. Non-finite outcomes (corrupt data) are
/// rejected as permanent block failures so they can never poison the
/// merged estimate.
pub(crate) fn execute_blocks<P: CalcPlan>(
    plan: &P,
    rate: f64,
    data: &BlockSet,
    seeds: &[u64],
    recovery: &RecoveryPolicy,
    parallelism: usize,
) -> Result<BlockRun<P::Outcome>, IslaError> {
    let job = |worker: usize, block_id: usize, block: &dyn DataBlock| {
        let draws = if plan.samples(block_id) {
            plan.sample_size(rate, block.len())
        } else {
            0
        };
        let outcome = plan.execute_block(block, block_id, seeds[block_id], draws)?;
        if !P::is_finite(&outcome) {
            return Err(IslaError::InsufficientData(format!(
                "block {block_id} produced a non-finite answer (corrupt data)"
            )));
        }
        Ok((worker, draws, outcome))
    };
    let (slots, failures) = scan_blocks_recovering(parallelism, data, recovery, job)?;
    let mut worker_stats = vec![WorkerStats::default(); parallelism.max(1)];
    let mut outcomes = Vec::with_capacity(slots.len());
    for (worker, draws, outcome) in slots.into_iter().flatten() {
        worker_stats[worker].blocks_processed += 1;
        worker_stats[worker].samples_drawn += draws;
        outcomes.push(outcome);
    }
    Ok(BlockRun {
        outcomes,
        worker_stats,
        failures,
    })
}

/// Runs blocks in order on the calling thread (the classic
/// [`crate::IslaAggregator`] path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SequentialScheduler;

impl BlockScheduler for SequentialScheduler {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn parallelism(&self) -> usize {
        1
    }
}

/// Scatters block tasks across a crossbeam worker-thread pool and
/// gathers results as they complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PooledScheduler {
    workers: usize,
}

impl PooledScheduler {
    /// Creates a pool of `workers` threads.
    ///
    /// # Errors
    ///
    /// [`IslaError::InvalidConfig`] for zero workers.
    pub fn new(workers: usize) -> Result<Self, IslaError> {
        if workers == 0 {
            return Err(IslaError::InvalidConfig(
                "worker count must be positive".to_string(),
            ));
        }
        Ok(Self { workers })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl BlockScheduler for PooledScheduler {
    fn name(&self) -> &'static str {
        "pooled"
    }

    fn parallelism(&self) -> usize {
        self.workers
    }
}

/// States a sample budget around an inner scheduler — the §VII-F
/// time-constraint logic as a scheduling policy.
///
/// When a plan (pilots included) wants more samples than `budget`, the
/// engine caps the calculation rate so the pilot draws plus the
/// calculation phase fit the budget (`(budget − pilots) / M`) and
/// reports the run as time-limited. The pilots themselves are sunk cost
/// — they ran before admission — so the pre-estimate and boundaries are
/// reused as-is and only the calculation phase shrinks.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineScheduler<S> {
    inner: S,
    budget: u64,
}

impl<S: BlockScheduler> DeadlineScheduler<S> {
    /// Wraps `inner` with an affordable-sample budget.
    pub fn new(inner: S, budget: u64) -> Self {
        Self { inner, budget }
    }

    /// The sample budget in effect.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The wrapped scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: BlockScheduler> BlockScheduler for DeadlineScheduler<S> {
    fn name(&self) -> &'static str {
        "deadline"
    }

    fn parallelism(&self) -> usize {
        self.inner.parallelism()
    }

    fn sample_budget(&self) -> Option<u64> {
        let inner = self.inner.sample_budget().unwrap_or(u64::MAX);
        Some(self.budget.min(inner))
    }
}

/// Draws the deadline calibration probe times (paper §VII-F: "according
/// to the workload, the relationship of the sample size and the run time
/// could be obtained").
const CALIBRATION_DRAWS: u64 = 2_000;

/// Fraction of the deadline the calibrated budget aims to use, leaving
/// headroom for the iteration phase and summarization.
const DEADLINE_SAFETY: f64 = 0.8;

/// Sizes the sample a wall-clock `deadline` affords on `data` — the
/// budget of a [`DeadlineScheduler`] (paper §VII-F), calibrated once
/// for the query layer's `WITHIN` and for library callers alike.
///
/// The clock starts on entry: `probe(n, rng)` draws a few thousand rows
/// the way the plan will (plain values for a scalar plan, the spec's
/// projected, zoned read for a row plan or a count), the measured cost
/// per draw prices what is left of the deadline, and a safety margin
/// leaves headroom for everything that is not a draw. The result may be
/// 0 (or too small for a caller's purpose); each caller decides how few
/// draws are too few.
///
/// # Errors
///
/// [`IslaError::InsufficientData`] when `data` holds no rows (there is
/// nothing to time a draw on); the probe's own errors.
pub fn affordable_draws(
    deadline: Duration,
    data: &BlockSet,
    rng: &mut dyn RngCore,
    probe: impl FnOnce(u64, &mut dyn RngCore) -> Result<(), IslaError>,
) -> Result<u64, IslaError> {
    if data.total_len() == 0 {
        return Err(IslaError::InsufficientData(
            "block set holds no rows to time a deadline's draws on".to_string(),
        ));
    }
    let start = Instant::now();
    let draws = CALIBRATION_DRAWS.min(data.total_len());
    probe(draws, rng)?;
    let per_draw = start.elapsed().as_secs_f64() / draws as f64;
    let remaining = deadline.saturating_sub(start.elapsed()).as_secs_f64() * DEADLINE_SAFETY;
    Ok(if per_draw > 0.0 {
        (remaining / per_draw) as u64
    } else {
        u64::MAX
    })
}

/// Runs an arbitrary per-block job over every block, `parallelism` blocks
/// at a time, collecting the results in block order.
///
/// This is the primitive behind the baseline estimators' parallel block
/// scans: jobs carry their own per-block randomness (e.g. seeds derived
/// with [`crate::engine::derive_block_seeds`]), so the result is
/// independent of scheduling, exactly like the ISLA pipeline itself.
///
/// # Errors
///
/// The failure of the lowest-numbered failing block.
pub fn scan_blocks<T, F>(parallelism: usize, data: &BlockSet, job: F) -> Result<Vec<T>, IslaError>
where
    T: Send,
    F: Fn(usize, &dyn DataBlock) -> Result<T, IslaError> + Sync,
{
    let job = |_, block_id: usize, block: &dyn DataBlock| job(block_id, block);
    let (slots, failures) =
        scan_blocks_recovering(parallelism, data, &RecoveryPolicy::strict(), job)?;
    debug_assert!(
        failures.is_empty(),
        "strict scans error instead of degrading"
    );
    slots
        .into_iter()
        .enumerate()
        .map(|(block_id, slot)| {
            slot.ok_or_else(|| {
                IslaError::Internal(format!("block {block_id} produced no scan result"))
            })
        })
        .collect()
}

/// The one "run a job per block with retry, on this thread or on a
/// pool" loop — [`scan_blocks`] under an explicit [`RecoveryPolicy`].
/// `job` sees `(worker, block id, block)`; workers number from 0 and
/// the calling thread is worker 0 when nothing is spawned. Each block's
/// job retries transient failures per the policy, worker panics become
/// typed errors, and under best-effort mode terminal failures leave a
/// `None` slot plus a [`BlockFailure`] entry instead of failing the
/// scan. The failure list is sorted by block id.
///
/// # Errors
///
/// Under strict mode, the failure of the lowest-numbered failing block
/// — the block's own error, unwrapped, at any parallelism; under
/// best-effort, only internal invariant violations.
pub fn scan_blocks_recovering<T, F>(
    parallelism: usize,
    data: &BlockSet,
    recovery: &RecoveryPolicy,
    job: F,
) -> Result<(Vec<Option<T>>, Vec<BlockFailure>), IslaError>
where
    T: Send,
    F: Fn(usize, usize, &dyn DataBlock) -> Result<T, IslaError> + Sync,
{
    let block_count = data.block_count();
    let strict = !recovery.is_best_effort();
    let run_one = |worker: usize, block_id: usize| {
        run_block_recovering(&recovery.retry, block_id, || {
            job(worker, block_id, data.block(block_id).as_ref())
        })
    };
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(block_count, || None);
    let mut failed: Vec<(usize, u32, IslaError)> = Vec::new();

    if parallelism <= 1 || block_count <= 1 {
        for (block_id, slot) in slots.iter_mut().enumerate() {
            match run_one(0, block_id) {
                Ok(value) => *slot = Some(value),
                Err((attempts, error)) => {
                    failed.push((block_id, attempts, error));
                    if strict {
                        break; // in block order, the first failure is the lowest
                    }
                }
            }
        }
    } else {
        let (task_tx, task_rx) = channel::unbounded::<usize>();
        let (reply_tx, reply_rx) = channel::unbounded::<(usize, Result<T, (u32, IslaError)>)>();
        for block_id in 0..block_count {
            task_tx
                .send(block_id)
                .map_err(|_| IslaError::Internal("block task queue closed early".to_string()))?;
        }
        drop(task_tx); // workers drain the queue, then exit
        let run_one = &run_one;
        crossbeam::thread::scope(|scope| {
            for worker in 0..parallelism.min(block_count) {
                let task_rx = task_rx.clone();
                let reply_tx = reply_tx.clone();
                scope.spawn(move |_| {
                    while let Ok(block_id) = task_rx.recv() {
                        if reply_tx
                            .send((block_id, run_one(worker, block_id)))
                            .is_err()
                        {
                            break; // coordinator gone; nothing left to report to
                        }
                    }
                });
            }
            drop(reply_tx);
            for (block_id, result) in reply_rx.iter() {
                match result {
                    Ok(value) => slots[block_id] = Some(value),
                    Err((attempts, error)) => failed.push((block_id, attempts, error)),
                }
            }
        })
        .map_err(|_| IslaError::Internal("a block worker thread panicked".to_string()))?;
    }

    // Completion order carries no meaning: failures report by block id.
    failed.sort_by_key(|&(block_id, _, _)| block_id);
    if strict && !failed.is_empty() {
        return Err(failed.remove(0).2);
    }
    let failures = failed
        .into_iter()
        .map(|(block_id, attempts, error)| BlockFailure {
            block_id,
            attempts,
            error: error.to_string(),
        })
        .collect();
    Ok((slots, failures))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IslaConfig;
    use crate::engine::plan::RateSpec;
    use crate::engine::seed::derive_block_seeds;
    use crate::engine::{run_plan_with, EngineResult};
    use isla_datagen::normal_dataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(e: f64) -> IslaConfig {
        IslaConfig::builder().precision(e).build().unwrap()
    }

    fn plan_and_seeds(data: &BlockSet, cfg: &IslaConfig, seed: u64) -> (QueryPlan, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = QueryPlan::prepare(data, cfg, RateSpec::Derived, &mut rng).unwrap();
        let seeds = derive_block_seeds(&mut rng, data.block_count());
        (plan, seeds)
    }

    /// Runs a prepared plan through the engine on `scheduler`, deriving
    /// the block seeds from `seed`.
    fn run_on(
        plan: &QueryPlan,
        data: &BlockSet,
        scheduler: &dyn BlockScheduler,
        recovery: &RecoveryPolicy,
        seed: u64,
    ) -> Result<EngineResult, IslaError> {
        let mut rng = StdRng::seed_from_u64(seed);
        run_plan_with(plan.clone(), data, scheduler, recovery, &mut rng)
    }

    /// The blocks a best-effort run dropped, in the order it reports them.
    fn failures(run: &EngineResult) -> &[BlockFailure] {
        run.degradation.as_ref().map_or(&[], |d| &d.failures)
    }

    #[test]
    fn pooled_matches_sequential_bit_for_bit() {
        let ds = normal_dataset(100.0, 20.0, 300_000, 12, 95);
        let cfg = config(0.5);
        let (plan, _) = plan_and_seeds(&ds.blocks, &cfg, 7);
        let strict = RecoveryPolicy::strict();
        let seq = run_on(&plan, &ds.blocks, &SequentialScheduler, &strict, 7).unwrap();
        for workers in [1, 3, 6] {
            let pooled = PooledScheduler::new(workers).unwrap();
            let pool = run_on(&plan, &ds.blocks, &pooled, &strict, 7).unwrap();
            assert_eq!(seq.estimate, pool.estimate, "{workers} workers");
            assert_eq!(seq.total_samples, pool.total_samples);
        }
    }

    #[test]
    fn deadline_caps_only_over_budget_plans() {
        let ds = normal_dataset(100.0, 20.0, 200_000, 10, 96);
        let cfg = config(0.5);
        let (plan, _) = plan_and_seeds(&ds.blocks, &cfg, 8);
        let wanted = plan.planned_calculation_samples(&ds.blocks)
            + plan.pre().sigma_pilot_used
            + plan.pre().sketch_pilot_used;

        // Admission as the engine applies it: the scheduler states its
        // budget, the one capping rule resolves the rate.
        let admit = |scheduler: &dyn BlockScheduler| {
            let (rate, limited) =
                crate::engine::admitted_rate(&plan, scheduler.sample_budget(), &ds.blocks);
            (plan.clone().with_absolute_rate(rate), limited)
        };

        let generous = DeadlineScheduler::new(SequentialScheduler, wanted + 1);
        let (admitted, limited) = admit(&generous);
        assert!(!limited);
        assert_eq!(admitted.rate(), plan.rate());

        // One sample over budget: the calculation phase shrinks by the
        // overage (pilots are sunk), and the rate can only go DOWN.
        let calc = plan.planned_calculation_samples(&ds.blocks);
        let pilots = wanted - calc;
        let barely = DeadlineScheduler::new(SequentialScheduler, wanted - 1);
        let (trimmed, limited) = admit(&barely);
        assert!(limited);
        assert!(
            trimmed.rate() < plan.rate(),
            "capping never raises the rate"
        );
        let trimmed_planned = trimmed.planned_calculation_samples(&ds.blocks);
        assert!(
            (trimmed_planned as i64 - (calc as i64 - 1)).abs() <= 10,
            "trimmed to ≈calc−1, planned {trimmed_planned}"
        );

        // A budget the pilots alone exhaust leaves nothing for the
        // calculation phase: every block falls back to the sketch.
        assert!(pilots > 1_000, "sanity: pilots dominate the tiny budget");
        let tight = DeadlineScheduler::new(SequentialScheduler, 1_000);
        let (capped, limited) = admit(&tight);
        assert!(limited);
        assert_eq!(capped.planned_calculation_samples(&ds.blocks), 0);
        assert_eq!(capped.pre(), plan.pre(), "pilots are sunk cost");
        assert_eq!(tight.parallelism(), 1);
        assert_eq!(tight.budget(), 1_000);
        assert_eq!(tight.inner().name(), "sequential");
    }

    #[test]
    fn affordable_draws_prices_the_deadline_by_the_probe() {
        let ds = normal_dataset(100.0, 20.0, 50_000, 5, 98);
        let mut rng = StdRng::seed_from_u64(12);
        let mut probed = 0;
        let generous = affordable_draws(Duration::from_secs(60), &ds.blocks, &mut rng, |n, _| {
            probed = n;
            Ok(())
        })
        .unwrap();
        assert_eq!(probed, CALIBRATION_DRAWS, "the probe times a fixed draw");
        assert!(generous > 1_000_000, "a minute affords {generous} draws");
        let none = affordable_draws(Duration::ZERO, &ds.blocks, &mut rng, |n, rng| {
            isla_storage::sample_proportional(&ds.blocks, n, rng)?;
            Ok(())
        });
        assert_eq!(none.unwrap(), 0, "a spent deadline affords nothing");
    }

    #[test]
    fn affordable_draws_refuses_a_set_with_no_rows() {
        // One block of zero rows: the typed error pre-estimation gives
        // for the same set — the probe (whose proportional allocation
        // panics on an empty set) never runs.
        let empty = BlockSet::new(vec![std::sync::Arc::new(isla_storage::RowsBlock::new(vec![
            vec![],
        ])) as std::sync::Arc<dyn DataBlock>]);
        let mut rng = StdRng::seed_from_u64(13);
        let r = affordable_draws(Duration::from_secs(60), &empty, &mut rng, |n, rng| {
            isla_storage::sample_proportional(&empty, n, rng)?;
            Ok(())
        });
        assert!(matches!(r, Err(IslaError::InsufficientData(_))), "{r:?}");
    }

    #[test]
    fn scan_blocks_preserves_block_order_at_any_parallelism() {
        let ds = normal_dataset(100.0, 20.0, 10_000, 9, 97);
        let expected: Vec<u64> = (0..9).map(|i| ds.blocks.block(i).len()).collect();
        for parallelism in [1, 2, 4, 16] {
            let lens = scan_blocks(parallelism, &ds.blocks, |_, block| Ok(block.len())).unwrap();
            assert_eq!(lens, expected, "parallelism {parallelism}");
        }
    }

    #[test]
    fn scan_blocks_surfaces_job_errors() {
        let ds = normal_dataset(100.0, 20.0, 10_000, 4, 98);
        for parallelism in [1, 3] {
            let r = scan_blocks(parallelism, &ds.blocks, |i, block| {
                if i == 2 {
                    Err(IslaError::InsufficientData("block 2 broke".to_string()))
                } else {
                    Ok(block.len())
                }
            });
            assert!(matches!(r, Err(IslaError::InsufficientData(_))));
        }
    }

    #[test]
    fn strict_scans_report_the_lowest_failing_block_whatever_finishes_first() {
        let ds = normal_dataset(100.0, 20.0, 10_000, 8, 98);
        for parallelism in [1, 2, 4, 7] {
            for _ in 0..20 {
                // On a pool, block 2 holds its failure back until block 5
                // has failed: completion order is 5, then 2.
                let (failed_tx, failed_rx) = channel::unbounded::<()>();
                let r = scan_blocks(parallelism, &ds.blocks, |i, block| {
                    if i == 2 && parallelism > 1 {
                        failed_rx.recv().expect("block 5 signals");
                    }
                    if i == 5 {
                        failed_tx.send(()).expect("the receiver outlives the scan");
                    }
                    if i == 2 || i == 5 {
                        return Err(IslaError::InsufficientData(format!("block {i} broke")));
                    }
                    Ok(block.len())
                });
                match r {
                    Err(IslaError::InsufficientData(msg)) => {
                        assert_eq!(msg, "block 2 broke", "parallelism {parallelism}");
                    }
                    other => panic!("expected block 2's own error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn best_effort_drops_failed_blocks_identically_across_schedulers() {
        use isla_storage::FaultPlan;

        let ds = normal_dataset(100.0, 20.0, 240_000, 8, 95);
        let cfg = config(0.5);
        let (plan, _) = plan_and_seeds(&ds.blocks, &cfg, 21);
        let faulty = FaultPlan::new(404).lose(0.3).arm(&ds.blocks);
        let recovery =
            RecoveryPolicy::best_effort(super::super::recovery::RetryPolicy::attempts(2));

        let seq = run_on(&plan, &faulty, &SequentialScheduler, &recovery, 21).unwrap();
        assert!(
            !failures(&seq).is_empty(),
            "the fault plan must actually lose blocks at 30%"
        );
        assert!(failures(&seq)
            .windows(2)
            .all(|w| w[0].block_id < w[1].block_id));

        for workers in [1, 2, 4, 7] {
            let pooled = PooledScheduler::new(workers).unwrap();
            let pool = run_on(&plan, &faulty, &pooled, &recovery, 21).unwrap();
            assert_eq!(failures(&pool), failures(&seq), "{workers} workers");
            assert_eq!(seq.estimate, pool.estimate, "{workers} workers");
        }

        // The same faults under strict mode fail the run instead.
        let strict = RecoveryPolicy::strict();
        assert!(run_on(&plan, &faulty, &SequentialScheduler, &strict, 21).is_err());
        let pooled = PooledScheduler::new(3).unwrap();
        assert!(run_on(&plan, &faulty, &pooled, &strict, 21).is_err());
    }

    #[test]
    fn transient_faults_recover_without_degradation() {
        use isla_storage::FaultPlan;

        let ds = normal_dataset(100.0, 20.0, 120_000, 6, 95);
        let cfg = config(0.5);
        let (plan, seeds) = plan_and_seeds(&ds.blocks, &cfg, 22);
        let strict = RecoveryPolicy::strict();
        let clean = run_on(&plan, &ds.blocks, &SequentialScheduler, &strict, 22).unwrap();

        // Every block fails twice then recovers: three attempts suffice,
        // and the recovered answer is bit-identical to the clean run
        // because each retry re-seeds from the same per-block seed.
        let faulty = FaultPlan::new(77).transient(1.0, 2).arm(&ds.blocks);
        let recovery =
            RecoveryPolicy::best_effort(super::super::recovery::RetryPolicy::attempts(3));
        let recovered = run_on(&plan, &faulty, &SequentialScheduler, &recovery, 22).unwrap();
        assert!(failures(&recovered).is_empty(), "all blocks recovered");
        assert_eq!(recovered.estimate, clean.estimate);

        // Two attempts are not enough: every block degrades away.
        // Re-arm for fresh counters so the earlier attempts don't count.
        let starved = RecoveryPolicy::best_effort(super::super::recovery::RetryPolicy::attempts(2));
        let faulty = FaultPlan::new(77).transient(1.0, 2).arm(&ds.blocks);
        let exec = BlockExecution {
            plan: &plan,
            data: &faulty,
            seeds: &seeds,
            recovery: &starved,
        };
        let (_, dropped) = scan_blocks_recovering(1, &faulty, &starved, |_, block_id, _| {
            execute_planned_block(&exec, block_id)
        })
        .unwrap();
        assert_eq!(dropped.len(), 6, "every block exhausted its budget");
        assert!(dropped.iter().all(|f| f.attempts == 2));
    }

    #[test]
    fn scan_blocks_recovering_reports_failures_in_block_order() {
        let ds = normal_dataset(100.0, 20.0, 10_000, 5, 98);
        let recovery = RecoveryPolicy::best_effort(Default::default());
        for parallelism in [1, 3] {
            let (slots, failures) =
                scan_blocks_recovering(parallelism, &ds.blocks, &recovery, |_, i, block| {
                    if i % 2 == 0 {
                        Err(IslaError::InsufficientData(format!("block {i} broke")))
                    } else {
                        Ok(block.len())
                    }
                })
                .unwrap();
            let failed: Vec<usize> = failures.iter().map(|f| f.block_id).collect();
            assert_eq!(failed, vec![0, 2, 4], "parallelism {parallelism}");
            assert!(failures.iter().all(|f| f.attempts == 1));
            assert_eq!(slots.iter().filter(|s| s.is_some()).count(), 2);
            assert!(slots[0].is_none() && slots[1].is_some());
        }
    }

    #[test]
    fn pooled_rejects_zero_workers() {
        assert!(matches!(
            PooledScheduler::new(0),
            Err(IslaError::InvalidConfig(_))
        ));
    }

    #[test]
    fn seeds_decide_the_answer_not_the_scheduler() {
        // Changing one seed changes the answer; same seeds across
        // schedulers do not.
        let ds = normal_dataset(100.0, 20.0, 100_000, 5, 99);
        let cfg = config(0.5);
        let (plan, mut seeds) = plan_and_seeds(&ds.blocks, &cfg, 11);
        let strict = RecoveryPolicy::strict();
        let outcomes = |seeds: &[u64]| -> Vec<BlockOutcome> {
            let exec = BlockExecution {
                plan: &plan,
                data: &ds.blocks,
                seeds,
                recovery: &strict,
            };
            (0..2)
                .map(|b| execute_planned_block(&exec, b).unwrap())
                .collect()
        };
        let baseline = outcomes(&seeds);
        seeds[0] = seeds[0].wrapping_add(1);
        let perturbed = outcomes(&seeds);
        // The answer can coincide (clamping), but block 0's sampled
        // regions cannot: a different seed draws different samples.
        assert_ne!(
            (baseline[0].u, baseline[0].v),
            (perturbed[0].u, perturbed[0].v)
        );
        assert_eq!(baseline[1].u, perturbed[1].u, "other seeds untouched");
    }
}
