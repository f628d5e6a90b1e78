//! Property tests for deterministic fault injection and graceful
//! degradation: under a seeded [`FaultPlan`], best-effort answers are a
//! pure function of `(data, plan, query seed)` — independent of worker
//! count and repeatable across runs — and a degraded answer stays
//! inside its *widened* confidence interval around the exact mean of
//! the full (pre-loss) data.

use isla::core::engine::{
    self, PooledScheduler, RateSpec, RecoveryPolicy, RetryPolicy, RowPlan, RowSpec,
    SequentialScheduler,
};
use isla::core::IslaConfig;
use isla::query::{parse, Catalog, ExecPolicy, QueryResult, QuerySession, Table};
use isla::storage::{
    scalar_fallback_set, BlockFault, BlockSet, CmpOp, ColumnPredicate, DataBlock, FaultPlan,
    RowFilter, RowsBlock, Schema, ZoneMatch,
};
use isla_datagen::normal_values;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const BLOCKS: usize = 10;
const ROWS: usize = 120_000;

/// One best-effort query over a freshly armed copy of the plan
/// (arming resets the per-block transient counters, so every call sees
/// the identical fault schedule).
fn degraded_query(
    values: &[f64],
    plan: &FaultPlan,
    workers: usize,
    query_seed: u64,
) -> QueryResult {
    let data = BlockSet::from_values(values.to_vec(), BLOCKS);
    let mut catalog = Catalog::new();
    catalog.register("t", Table::new(vec![("x", plan.arm(&data))]));
    let session = QuerySession::with_policy(
        ExecPolicy::new()
            .pooled(workers)
            .best_effort()
            .retry(RetryPolicy::attempts(3)),
    );
    let query = parse("SELECT AVG(x) FROM t WITH PRECISION 0.5").unwrap();
    let mut rng = StdRng::seed_from_u64(query_seed);
    session.execute(&query, &catalog, &mut rng).unwrap()
}

/// A plan is interesting when it fails some blocks but leaves at least
/// two survivors (total loss is a typed error, not a degraded answer).
fn survivors(plan: &FaultPlan) -> usize {
    (0..BLOCKS)
        .filter(|&i| plan.fault_for(i) != BlockFault::Lost)
        .count()
}

proptest! {
    /// Same fault plan + same query seed ⇒ bit-identical degraded
    /// answers and reports, across repeated runs and across worker
    /// counts 1/2/4/7.
    #[test]
    fn degraded_answers_are_bit_identical_across_workers(
        plan_seed in 0u64..10_000,
        data_seed in 1u64..50,
        query_seed in 0u64..1_000,
        loss in prop_oneof![Just(0.2), Just(0.35)],
    ) {
        let plan = FaultPlan::new(plan_seed).lose(loss).transient(0.4, 2);
        if survivors(&plan) < 2 {
            // Near-total loss is a typed error, not a degraded answer.
            return;
        }
        let values = normal_values(100.0, 20.0, ROWS, data_seed);
        let baseline = degraded_query(&values, &plan, 1, query_seed);
        for workers in [1usize, 2, 4, 7] {
            let run = degraded_query(&values, &plan, workers, query_seed);
            prop_assert_eq!(
                baseline.value.to_bits(),
                run.value.to_bits(),
                "answer differs at {} workers",
                workers
            );
            prop_assert_eq!(
                &baseline.degradation,
                &run.degradation,
                "degradation report differs at {} workers",
                workers
            );
        }
    }

}

/// A degraded answer's widened confidence interval stays honest about
/// the exact (pre-loss) mean. The interval is a `β = 0.95` statement,
/// not an absolute bound, so this asserts coverage the way the paper's
/// own quality experiments do: across a deterministic sweep of fault
/// plans and data sets, ≥ 85% of degraded answers land inside their
/// widened interval (expected ≈ 95%, threshold set 3 binomial σ below
/// it), every answer lands inside 3× it, and the widening itself never
/// narrows.
#[test]
fn degraded_answers_stay_inside_the_widened_interval() {
    let mut cases = 0u32;
    let mut inside = 0u32;
    for plan_seed in 0..96u64 {
        let plan = FaultPlan::new(plan_seed).lose(0.3);
        let alive = survivors(&plan);
        if alive < 2 || alive == BLOCKS {
            // Interesting cases lose something but keep ≥ 2 survivors.
            continue;
        }
        let values = normal_values(100.0, 20.0, ROWS, 50 + plan_seed);
        let exact = values.iter().sum::<f64>() / values.len() as f64;
        let run = degraded_query(&values, &plan, 4, plan_seed ^ 0x5EED);
        let d = run
            .degradation
            .expect("lost blocks must degrade the answer");
        assert!(
            d.widened_half_width >= d.base_half_width,
            "widening never narrows: {} < {}",
            d.widened_half_width,
            d.base_half_width
        );
        assert!(
            d.coverage > 0.0 && d.coverage < 1.0,
            "partial loss means partial coverage, got {}",
            d.coverage
        );
        let stray = (run.value - exact).abs();
        assert!(
            stray <= 3.0 * d.widened_half_width,
            "plan {plan_seed}: answer {} strayed {stray} from exact {exact}, \
             far outside the widened CI ±{}",
            run.value,
            d.widened_half_width
        );
        cases += 1;
        if stray <= d.widened_half_width {
            inside += 1;
        }
    }
    assert!(cases >= 40, "sweep produced only {cases} degraded cases");
    assert!(
        inside * 20 >= cases * 17,
        "widened-CI coverage too low: {inside}/{cases} inside"
    );
}

/// A strict run over two lost blocks reports one error — same variant,
/// same text — whatever the scheduler, the worker count, the plan kind,
/// or the order the workers happened to finish in.
#[test]
fn strict_failures_are_one_error_across_schedulers_and_plan_kinds() {
    use isla::core::engine::{
        self, BlockScheduler, PooledScheduler, QueryPlan, RateSpec, RowPlan, RowSpec,
        SequentialScheduler,
    };
    use isla::core::IslaConfig;
    use std::collections::BTreeSet;

    let data = BlockSet::from_values(normal_values(100.0, 20.0, ROWS, 7), BLOCKS);
    let faults = FaultPlan::new(15).lose(0.25);
    let lost: Vec<usize> = (0..BLOCKS)
        .filter(|&i| faults.fault_for(i) == BlockFault::Lost)
        .collect();
    assert_eq!(lost, [3, 8], "the plan loses two blocks");

    let config = IslaConfig::builder().precision(0.5).build().unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let scalar = QueryPlan::prepare(&data, &config, RateSpec::Derived, &mut rng).unwrap();
    let rows = RowPlan::prepare(
        &data,
        &config,
        RowSpec::column(0),
        RateSpec::Derived,
        &mut rng,
    )
    .unwrap();

    let pools: Vec<PooledScheduler> = [1, 2, 4, 7]
        .into_iter()
        .map(|workers| PooledScheduler::new(workers).unwrap())
        .collect();
    let mut schedulers: Vec<&dyn BlockScheduler> = vec![&SequentialScheduler];
    schedulers.extend(pools.iter().map(|pool| pool as &dyn BlockScheduler));

    let mut errors = BTreeSet::new();
    for _ in 0..20 {
        let faulty = faults.arm(&data);
        for scheduler in &schedulers {
            let scalar_error =
                engine::run_plan(scalar.clone(), &faulty, *scheduler, &mut rng).unwrap_err();
            let row_error = engine::run_row_plan_with(
                &rows,
                &faulty,
                *scheduler,
                &engine::RecoveryPolicy::strict(),
                &mut rng,
            )
            .unwrap_err();
            errors.insert(format!("{scalar_error:?}"));
            errors.insert(format!("{row_error:?}"));
        }
    }
    assert_eq!(errors.len(), 1, "strict errors differ: {errors:#?}");
}

/// A table range-partitioned on `ts` (column 0): twelve blocks of 5 000
/// rows, `amount` (1) drifting with `ts`, `store` (2) a small group key.
fn clustered_sales() -> BlockSet {
    use rand::Rng;
    const N: usize = 60_000;
    let mut rng = StdRng::seed_from_u64(0xFA17);
    let ts: Vec<f64> = (0..N).map(|i| i as f64).collect();
    let amount = ts
        .iter()
        .map(|t| 80.0 + 30.0 * t / N as f64 + rng.random_range(-20.0..20.0))
        .collect();
    let store = (0..N)
        .map(|_| f64::from(rng.random_range(0u32..3)))
        .collect();
    RowsBlock::split(vec![ts, amount, store], 12)
}

/// Everything a caller can see of a run except how many rows it read:
/// the error text, or every answer number as bits plus the degradation
/// report (failure list with attempts and errors, coverage, widths).
type Seen = Result<(Vec<u64>, Option<engine::Degradation>), String>;

/// The zone map of a range-partitioned table decides most blocks of a
/// `ts` range filter — and a sketch survives the loss of its block's
/// data. A verdict must never stand in for a read that would have
/// failed or delivered garbage: over armed `Lost` / `Corrupt` /
/// `Transient` plans, strict and best-effort, sequential and pooled, a
/// clustered filter gives exactly the errors, failure lists and degraded
/// answers it gives with the sketches hidden (`scalar_fallback_set`:
/// every block undecided, the behaviour before zones) — while the
/// healthy blocks the metadata decides are still not read.
#[test]
fn clustered_filters_fail_and_degrade_exactly_as_without_a_sketch() {
    let native = clustered_sales();
    let reference = scalar_fallback_set(&native);
    // `ts > 29 999.5`: blocks 0–5 provably matchless, 6–11 all-match.
    let filter = RowFilter::new(vec![ColumnPredicate {
        column: 0,
        op: CmpOp::Gt,
        value: 29_999.5,
    }]);
    let verdicts: Vec<ZoneMatch> = native.iter().map(|b| b.zone(&filter)).collect();
    assert!(verdicts[..6].iter().all(|v| *v == ZoneMatch::Matchless));
    assert!(verdicts[6..].iter().all(|v| *v == ZoneMatch::AllMatch));

    // The first plan of each kind that strikes both a matchless and an
    // all-match block and spares at least two of each.
    let striking = |make: &dyn Fn(u64) -> FaultPlan| {
        (0u64..)
            .map(make)
            .find(|plan| {
                let hit = |i: usize| plan.fault_for(i) != BlockFault::None;
                let (low, high) = ((0..6).filter(|&i| hit(i)), (6..12).filter(|&i| hit(i)));
                (1..=4).contains(&low.count()) && (1..=4).contains(&high.count())
            })
            .unwrap()
    };
    let plans = [
        ("lost", striking(&|s| FaultPlan::new(s).lose(0.3))),
        ("corrupt", striking(&|s| FaultPlan::new(s).corrupt(0.3))),
        (
            "transient",
            striking(&|s| FaultPlan::new(s).transient(0.3, 2)),
        ),
        (
            "mixed",
            striking(&|s| FaultPlan::new(s).lose(0.15).transient(0.2, 2).corrupt(0.15)),
        ),
    ];
    for (name, plan) in &plans {
        let armed = plan.arm(&native);
        for (i, block) in armed.iter().enumerate() {
            let want = match plan.fault_for(i) {
                BlockFault::None => verdicts[i],
                _ => ZoneMatch::Mixed,
            };
            assert_eq!(block.zone(&filter), want, "{name}: armed block {i}");
        }
    }

    let mut errors = 0;
    let mut degraded = 0;
    let mut read_less = 0;
    let mut tally = |label: &str, native: (Seen, u64), reference: (Seen, u64)| {
        assert_eq!(native.0, reference.0, "{label}");
        match &native.0 {
            Err(_) => errors += 1,
            Ok((_, degradation)) => {
                degraded += usize::from(degradation.is_some());
                assert!(native.1 <= reference.1, "{label}: read more than before");
                read_less += usize::from(native.1 < reference.1);
            }
        }
    };

    // --- The Calculation phase alone: one plan from the clean table,
    // run over each armed copy.
    let cfg = IslaConfig::builder().precision(0.5).build().unwrap();
    let strict = RecoveryPolicy::strict();
    let best_effort = RecoveryPolicy::best_effort(RetryPolicy::attempts(3));
    let pool = PooledScheduler::new(3).unwrap();
    for group_by in [None, Some(2)] {
        let spec = RowSpec {
            agg_column: 1,
            filter: filter.clone(),
            group_by,
        };
        let prepared = RowPlan::prepare(
            &native,
            &cfg,
            spec,
            RateSpec::Derived,
            &mut StdRng::seed_from_u64(3),
        )
        .unwrap();
        for (name, faults) in &plans {
            for recovery in [&strict, &best_effort] {
                for scheduler in [&SequentialScheduler as &dyn engine::BlockScheduler, &pool] {
                    let run = |data: &BlockSet| {
                        let mut rng = StdRng::seed_from_u64(11);
                        let out = engine::run_row_plan_with(
                            &prepared,
                            &faults.arm(data),
                            scheduler,
                            recovery,
                            &mut rng,
                        );
                        let reads = out.as_ref().map_or(0, |o| o.total_samples);
                        let seen = out.map_err(|e| e.to_string()).map(|o| {
                            let mut bits = vec![o.estimate.to_bits(), o.matched_rows.to_bits()];
                            for g in &o.groups {
                                bits.extend([
                                    g.key.to_bits(),
                                    g.estimate.to_bits(),
                                    g.rows_estimate.to_bits(),
                                    g.matched_draws,
                                ]);
                            }
                            (bits, o.degradation)
                        });
                        (seen, reads)
                    };
                    let label = format!(
                        "engine {name} group_by={group_by:?} best_effort={} {}",
                        recovery.is_best_effort(),
                        scheduler.name()
                    );
                    tally(&label, run(&native), run(&reference));
                }
            }
        }
    }

    // --- Whole queries, pilots included (strict pilots fail on the
    // first faulty block they touch; best-effort pilots survive it).
    let statements = [
        "SELECT AVG(amount) FROM sales WHERE ts > 29999.5 WITH PRECISION 0.5",
        "SELECT SUM(amount) FROM sales WHERE ts >= 12500 AND ts < 45000 \
         GROUP BY store WITH PRECISION 0.5",
    ];
    for sql in statements {
        let query = parse(sql).unwrap();
        for (name, faults) in &plans {
            for best_effort in [false, true] {
                for workers in [None, Some(3)] {
                    let run = |data: &BlockSet| {
                        let schema = Schema::of_floats(vec!["ts", "amount", "store"]);
                        let mut catalog = Catalog::new();
                        catalog.register("sales", Table::from_rows(schema, faults.arm(data)));
                        let mut policy = ExecPolicy::new().retry(RetryPolicy::attempts(3));
                        if let Some(workers) = workers {
                            policy = policy.pooled(workers);
                        }
                        if best_effort {
                            policy = policy.best_effort();
                        }
                        let session = QuerySession::with_policy(policy);
                        let out = session.execute(&query, &catalog, &mut StdRng::seed_from_u64(5));
                        let reads = out.as_ref().map_or(0, |r| r.samples_used.unwrap());
                        let seen = out.map_err(|e| e.to_string()).map(|r| {
                            let mut bits =
                                vec![r.value.to_bits(), r.matched_rows.unwrap().to_bits()];
                            for g in r.groups.iter().flatten() {
                                bits.extend([g.key.to_bits(), g.value.to_bits(), g.rows.to_bits()]);
                            }
                            (bits, r.degradation)
                        });
                        (seen, reads)
                    };
                    let label = format!("{sql} / {name} best_effort={best_effort} {workers:?}");
                    tally(&label, run(&native), run(&reference));
                }
            }
        }
    }

    // The sweep saw every outcome it is about.
    assert!(errors >= 8, "only {errors} runs failed");
    assert!(degraded >= 8, "only {degraded} runs degraded");
    assert!(read_less >= 8, "only {read_less} runs read fewer rows");
}
