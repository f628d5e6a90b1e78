//! Integration tests for the `isla_core::engine` layer: scheduling must
//! never change an answer, and the query layer's pre-estimation cache
//! must actually skip the pilots.

use isla::core::engine::{self, PooledScheduler, RateSpec, SequentialScheduler};
use isla::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn config(e: f64) -> IslaConfig {
    IslaConfig::builder().precision(e).build().unwrap()
}

#[test]
fn pooled_scheduler_is_identical_to_sequential_for_all_worker_counts() {
    // The satellite determinism contract: workers 1, 2, 4, 7 at a fixed
    // seed produce the bit-identical output of the sequential scheduler.
    let data = BlockSet::from_values(isla::datagen::normal_values(100.0, 20.0, 350_000, 500), 14);
    let cfg = config(0.5);
    let mut rng = StdRng::seed_from_u64(501);
    let sequential = engine::run(
        &data,
        &cfg,
        RateSpec::Derived,
        &SequentialScheduler,
        &mut rng,
    )
    .unwrap();
    for workers in [1, 2, 4, 7] {
        let mut rng = StdRng::seed_from_u64(501);
        let scheduler = PooledScheduler::new(workers).unwrap();
        let pooled = engine::run(&data, &cfg, RateSpec::Derived, &scheduler, &mut rng).unwrap();
        assert_eq!(
            sequential.estimate, pooled.estimate,
            "{workers} workers changed the estimate"
        );
        assert_eq!(sequential.total_samples, pooled.total_samples);
        assert_eq!(sequential.blocks.len(), pooled.blocks.len());
        for (s, p) in sequential.blocks.iter().zip(&pooled.blocks) {
            assert_eq!(s.block_id, p.block_id);
            assert_eq!(s.answer, p.answer, "block {} diverged", s.block_id);
            assert_eq!((s.u, s.v), (p.u, p.v));
        }
        let pool_blocks: u64 = pooled.worker_stats.iter().map(|w| w.blocks_processed).sum();
        assert_eq!(pool_blocks, 14);
    }
}

#[test]
fn baselines_are_scheduler_invariant() {
    // Every baseline runs its block scans through the engine scheduler
    // with seeds fixed up front, so pooled == sequential bit-for-bit.
    let ds = isla::datagen::normal_values(100.0, 20.0, 120_000, 502);
    let data = BlockSet::from_values(ds, 8);
    let estimators: Vec<Box<dyn Estimator>> = vec![
        Box::new(UniformSampling),
        Box::new(StratifiedSampling::proportional()),
        Box::new(StratifiedSampling::neyman(50)),
        Box::new(MeasureBiasedValues),
        Box::new(MeasureBiasedBoundaries::default()),
        Box::new(Slev::default()),
        Box::new(IslaEstimator::default()),
    ];
    let pooled = PooledScheduler::new(4).unwrap();
    for estimator in &estimators {
        let mut rng = StdRng::seed_from_u64(503);
        let sequential = estimator.estimate(&data, 20_000, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(503);
        let parallel = estimator
            .estimate_scheduled(&data, 20_000, &pooled, &mut rng)
            .unwrap();
        assert_eq!(
            sequential,
            parallel,
            "{} changed under the pooled scheduler",
            estimator.name()
        );
        assert!(
            (sequential - 100.0).abs() < 10.0,
            "{} estimate {sequential} is wild",
            estimator.name()
        );
    }
}

#[test]
fn aggregator_wrappers_agree_with_the_engine() {
    // The public wrappers are thin: IslaAggregator == engine sequential,
    // DistributedAggregator == engine pooled, same RNG stream.
    let data = BlockSet::from_values(isla::datagen::normal_values(50.0, 10.0, 200_000, 504), 10);
    let cfg = config(0.25);

    let mut rng = StdRng::seed_from_u64(505);
    let via_wrapper = IslaAggregator::new(cfg.clone())
        .unwrap()
        .aggregate(&data, &mut rng)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(505);
    let via_engine = engine::run(
        &data,
        &cfg,
        RateSpec::Derived,
        &SequentialScheduler,
        &mut rng,
    )
    .unwrap();
    assert_eq!(via_wrapper.estimate, via_engine.estimate);
    assert_eq!(via_wrapper.total_samples, via_engine.total_samples);

    let mut rng = StdRng::seed_from_u64(505);
    let via_distributed = DistributedAggregator::new(cfg, 3)
        .unwrap()
        .aggregate(&data, &mut rng)
        .unwrap();
    assert_eq!(via_distributed.estimate, via_engine.estimate);
}

#[test]
fn one_capping_rule_serves_scalar_and_row_plans_on_both_fan_outs() {
    use isla::core::engine::{QueryPlan, RowPlan, RowSpec};
    use rand::RngCore;

    // The same data as a scalar plan and as the row plan that is its
    // width-1, filter-free, ungrouped shape.
    let blocks = 10u64;
    let data = BlockSet::from_values(
        isla::datagen::normal_values(100.0, 20.0, 400_000, 510),
        blocks as usize,
    );
    let cfg = config(0.1); // wants far more than the budget below
    let mut rng = StdRng::seed_from_u64(511);
    let scalar = QueryPlan::prepare(&data, &cfg, RateSpec::Derived, &mut rng).unwrap();
    let rows =
        RowPlan::prepare(&data, &cfg, RowSpec::column(0), RateSpec::Derived, &mut rng).unwrap();
    let budget = 60_000u64;
    let on_budget = |spent: u64| spent.abs_diff(budget) <= blocks;

    let fan_outs: [&dyn BlockScheduler; 2] =
        [&SequentialScheduler, &PooledScheduler::new(3).unwrap()];
    let mut uncapped = Vec::new();
    for fan_out in fan_outs {
        let tight = DeadlineScheduler::new(fan_out, budget);
        let s = engine::run_plan(scalar.clone(), &data, &tight, &mut rng.clone()).unwrap();
        let r = engine::run_row_plan(&rows, &data, &tight, &mut rng.clone()).unwrap();
        assert!(s.time_limited && r.time_limited, "{}", fan_out.name());
        assert!(
            on_budget(s.total_samples_with_pilots()),
            "scalar spent {} of {budget}",
            s.total_samples_with_pilots()
        );
        assert!(
            on_budget(r.total_samples + r.pilot_samples),
            "rows spent {} of {budget}",
            r.total_samples + r.pilot_samples
        );

        // A budget nobody reaches caps nothing and moves no answer bit.
        let generous = DeadlineScheduler::new(fan_out, u64::MAX);
        let s_free = engine::run_plan(scalar.clone(), &data, &fan_out, &mut rng.clone()).unwrap();
        let s_wide = engine::run_plan(scalar.clone(), &data, &generous, &mut rng.clone()).unwrap();
        let r_free = engine::run_row_plan(&rows, &data, &fan_out, &mut rng.clone()).unwrap();
        let r_wide = engine::run_row_plan(&rows, &data, &generous, &mut rng.clone()).unwrap();
        assert!(!s_wide.time_limited && !r_wide.time_limited);
        assert_eq!(s_free.estimate.to_bits(), s_wide.estimate.to_bits());
        assert_eq!(r_free.estimate.to_bits(), r_wide.estimate.to_bits());
        assert_eq!(s_free.total_samples, s_wide.total_samples);
        assert_eq!(r_free.total_samples, r_wide.total_samples);
        uncapped.push((s_free.estimate.to_bits(), r_free.estimate.to_bits()));
    }
    assert_eq!(uncapped[0], uncapped[1], "the fan-out moves no answer bit");

    // A degenerate (σ = 0) plan is never capped and draws no seeds.
    let constant = BlockSet::from_values(vec![3.25; 40_000], 4);
    let mut rng = StdRng::seed_from_u64(512);
    let pinned = QueryPlan::prepare(&constant, &cfg, RateSpec::Derived, &mut rng).unwrap();
    assert!(pinned.is_degenerate());
    let mut untouched = rng.clone();
    let starved = DeadlineScheduler::new(SequentialScheduler, 0);
    let out = engine::run_plan(pinned, &constant, &starved, &mut rng).unwrap();
    assert_eq!(out.estimate, 3.25);
    assert!(!out.time_limited && out.total_samples == 0);
    assert_eq!(rng.next_u64(), untouched.next_u64(), "no seed was drawn");
}
