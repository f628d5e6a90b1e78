//! Cross-crate property-based tests on ISLA's core invariants.

use isla::core::accumulate::SampleAccumulator;
use isla::core::config::MAX_ITERATIONS;
use isla::core::engine::{
    self, GroupedPartial, PartialAggregate, RateSpec, RowPlan, RowSpec, SequentialScheduler,
};
use isla::core::{
    assess, combine_partials, iterate, BlockOutcome, DataBoundaries, IslaConfig,
    LeverageAllocation, LinearEstimator, ModulationCase, Region,
};
use isla::stats::PowerSums;
use isla::storage::{CmpOp, ColumnPredicate, RowFilter, RowsBlock};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A synthetic block outcome carrying only the fields summarization
/// reads (answer, rows, samples).
fn outcome(block_id: usize, answer: f64, rows: u64, samples: u64) -> BlockOutcome {
    BlockOutcome {
        block_id,
        answer,
        rows,
        samples_drawn: samples,
        u: 0,
        v: 0,
        dev: None,
        q: 1.0,
        case: None,
        alpha: 0.0,
        iterations: 0,
        clamped: false,
        fallback: None,
        accumulator: SampleAccumulator::new(boundaries()),
        trace: None,
    }
}

/// Strategy: a plausible (u, v, S-values, L-values) sample for the
/// paper's default boundaries around 100 with σ = 20 (S = (60, 90),
/// L = (110, 140)).
fn sample_sets() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (
        proptest::collection::vec(60.001f64..89.999, 1..60),
        proptest::collection::vec(110.001f64..139.999, 1..60),
    )
}

fn boundaries() -> DataBoundaries {
    DataBoundaries::new(100.0, 20.0, 0.5, 2.0)
}

proptest! {
    /// Theorem 2: re-weighted probabilities sum to one for any sample
    /// set, any valid q, any α.
    #[test]
    fn probabilities_sum_to_one(
        (s_vals, l_vals) in sample_sets(),
        q in prop_oneof![Just(1.0), 0.1f64..10.0],
        alpha in -1.0f64..1.0,
    ) {
        let param_s: PowerSums = s_vals.iter().copied().collect();
        let param_l: PowerSums = l_vals.iter().copied().collect();
        let alloc = LeverageAllocation::new(&param_s, &param_l, q).unwrap();
        let total: f64 = s_vals
            .iter()
            .map(|&x| alloc.probability(x, Region::Small, alpha))
            .chain(l_vals.iter().map(|&y| alloc.probability(y, Region::Large, alpha)))
            .sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "Σprob = {total}");
    }

    /// Theorem 3 closed form ≡ explicit probability accumulation.
    #[test]
    fn closed_form_matches_accumulation(
        (s_vals, l_vals) in sample_sets(),
        q in prop_oneof![Just(1.0), 0.2f64..5.0],
        alpha in -0.5f64..1.0,
    ) {
        let param_s: PowerSums = s_vals.iter().copied().collect();
        let param_l: PowerSums = l_vals.iter().copied().collect();
        let est = LinearEstimator::from_moments(&param_s, &param_l, q).unwrap();
        let alloc = LeverageAllocation::new(&param_s, &param_l, q).unwrap();
        let direct: f64 = s_vals
            .iter()
            .map(|&x| x * alloc.probability(x, Region::Small, alpha))
            .chain(
                l_vals
                    .iter()
                    .map(|&y| y * alloc.probability(y, Region::Large, alpha)),
            )
            .sum();
        prop_assert!(
            (est.evaluate(alpha) - direct).abs() < 1e-7,
            "closed {} vs direct {direct}",
            est.evaluate(alpha)
        );
    }

    /// Sampling-order insensitivity: any permutation of the sample
    /// stream yields the identical accumulated state.
    #[test]
    fn accumulator_is_order_insensitive(
        values in proptest::collection::vec(0.0f64..200.0, 1..200),
        rotation in 0usize..199,
    ) {
        let mut forward = SampleAccumulator::new(boundaries());
        for &v in &values {
            forward.offer(v);
        }
        let mut rotated = SampleAccumulator::new(boundaries());
        let k = rotation % values.len();
        for &v in values[k..].iter().chain(&values[..k]) {
            rotated.offer(v);
        }
        // Compensated sums are not bit-commutative; the invariant is that
        // the extracted values agree to a few ULPs (so k and c, and hence
        // the answer, are order-insensitive).
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs());
        prop_assert_eq!(forward.u(), rotated.u());
        prop_assert_eq!(forward.v(), rotated.v());
        for (f, r) in [
            (forward.param_s(), rotated.param_s()),
            (forward.param_l(), rotated.param_l()),
        ] {
            prop_assert!(close(f.sum(), r.sum()));
            prop_assert!(close(f.sum_sq(), r.sum_sq()));
            prop_assert!(close(f.sum_cube(), r.sum_cube()));
        }
    }

    /// The modulation loop always terminates within its closed-form
    /// bound and leaves |μ̂ − sketch| ≤ threshold (when not capped).
    #[test]
    fn iteration_terminates_at_threshold(
        c in 50.0f64..150.0,
        sketch0 in 50.0f64..150.0,
        k in prop_oneof![Just(0.0), -5.0f64..5.0],
        u in 1u64..1000,
        v in 1u64..1000,
    ) {
        let config = IslaConfig::builder().precision(0.1).build().unwrap();
        let est = LinearEstimator { k, c };
        let case = assess(u, v, c - sketch0).case;
        let out = iterate(&est, sketch0, case, &config);
        prop_assert!(out.iterations <= MAX_ITERATIONS);
        if out.converged && case != ModulationCase::Balanced {
            prop_assert!(
                (out.answer - out.sketch).abs() <= 2.0 * config.threshold + 1e-9,
                "answer {} sketch {}",
                out.answer,
                out.sketch
            );
        }
    }

    /// The engine's partial aggregates are absorb-order invariant: any
    /// rotation of the block outcomes, absorbed chunk by chunk back to
    /// front, finalizes to the bit-identical estimate of the in-order
    /// sequential absorb, which in turn equals `combine_partials`
    /// directly.
    #[test]
    fn partial_aggregate_merge_is_order_invariant(
        specs in proptest::collection::vec(
            (0.0f64..1000.0, 1u64..1_000_000, 0u64..50_000),
            1..24,
        ),
        rotation in 0usize..23,
        chunk in 1usize..5,
    ) {
        let outcomes: Vec<BlockOutcome> = specs
            .iter()
            .enumerate()
            .map(|(id, &(answer, rows, samples))| outcome(id, answer, rows, samples))
            .collect();

        // Sequential reference: absorb in block order.
        let mut sequential = PartialAggregate::new();
        for o in &outcomes {
            sequential.absorb(o.clone());
        }
        let reference = sequential.finalize().unwrap();
        let direct = combine_partials(
            &specs.iter().map(|&(a, r, _)| (a, r)).collect::<Vec<_>>(),
        )
        .unwrap();
        prop_assert_eq!(reference.estimate, direct);

        // Adversarial completion order: rotate, then absorb each chunk
        // back to front.
        let k = rotation % outcomes.len();
        let rotated: Vec<BlockOutcome> = outcomes[k..]
            .iter()
            .chain(&outcomes[..k])
            .cloned()
            .collect();
        let mut shuffled = PartialAggregate::new();
        for group in rotated.chunks(chunk) {
            for o in group.iter().rev() {
                shuffled.absorb(o.clone());
            }
        }
        let shuffled = shuffled.finalize().unwrap();
        prop_assert_eq!(shuffled.estimate, reference.estimate, "bit-for-bit");
        prop_assert_eq!(shuffled.total_samples, reference.total_samples);
        let ids: Vec<usize> = shuffled.blocks.iter().map(|o| o.block_id).collect();
        prop_assert_eq!(ids, (0..outcomes.len()).collect::<Vec<_>>());
    }

    /// Summarization is a convex combination: the final answer lies in
    /// the hull of the partial answers, and equal weights give the mean.
    #[test]
    fn summarization_is_convex(
        partials in proptest::collection::vec((0.0f64..1000.0, 1u64..1_000_000), 1..30),
    ) {
        let combined = combine_partials(&partials).unwrap();
        let lo = partials.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
        let hi = partials.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(combined >= lo - 1e-9 && combined <= hi + 1e-9);
    }

    /// Region classification is total, deterministic, and ordered: as the
    /// value increases the region index never decreases.
    #[test]
    fn classification_is_monotone(mut values in proptest::collection::vec(-1e6f64..1e6, 2..100)) {
        let b = boundaries();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let index = |r: Region| match r {
            Region::TooSmall => 0,
            Region::Small => 1,
            Region::Normal => 2,
            Region::Large => 3,
            Region::TooLarge => 4,
        };
        for w in values.windows(2) {
            prop_assert!(index(b.classify(w[0])) <= index(b.classify(w[1])));
        }
    }

    /// Grouped partials are absorb-order invariant on *real*
    /// executions: for random multi-column datasets and random
    /// predicates, any rotation of the per-block grouped outcomes,
    /// absorbed chunk by chunk back to front, finalizes to the
    /// bit-identical per-group estimates of the in-order absorb.
    #[test]
    fn grouped_partial_merge_is_order_invariant(
        xs in proptest::collection::vec(0.0f64..100.0, 60..400),
        threshold in 5.0f64..60.0,
        group_count in 1usize..4,
        rotation in 0usize..7,
        chunk in 1usize..4,
    ) {
        let n = xs.len();
        // Derive the other columns deterministically from x so the
        // dataset stays interesting without extra strategies.
        let ys: Vec<f64> = xs.iter().map(|&x| 0.7 * x + 3.0).collect();
        let regions: Vec<f64> = (0..n).map(|i| (i % group_count) as f64).collect();
        let data = RowsBlock::split(vec![xs, ys, regions], 4);
        let spec = RowSpec {
            agg_column: 0,
            filter: RowFilter::new(vec![ColumnPredicate {
                column: 1,
                op: CmpOp::Gt,
                value: threshold,
            }]),
            group_by: Some(2),
        };
        let config = IslaConfig::builder().precision(2.0).build().unwrap();
        let mut rng = StdRng::seed_from_u64(rotation as u64 * 31 + chunk as u64);
        // Tiny datasets can miss the predicate entirely in the pilots;
        // those cases assert nothing.
        let Ok(plan) = RowPlan::prepare(&data, &config, spec, RateSpec::Derived, &mut rng)
        else {
            return;
        };
        let seeds = engine::derive_block_seeds(&mut rng, data.block_count());
        let outcomes: Vec<_> = (0..data.block_count())
            .map(|i| {
                engine::execute_row_block(&plan, data.block(i).as_ref(), i, seeds[i]).unwrap()
            })
            .collect();

        let mut in_order = GroupedPartial::new();
        for o in &outcomes {
            in_order.absorb(o.clone());
        }
        let reference = in_order.finalize(&plan).unwrap();

        let k = rotation % outcomes.len();
        let rotated: Vec<_> = outcomes[k..].iter().chain(&outcomes[..k]).cloned().collect();
        let mut shuffled = GroupedPartial::new();
        for group in rotated.chunks(chunk) {
            for o in group.iter().rev() {
                shuffled.absorb(o.clone());
            }
        }
        let shuffled = shuffled.finalize(&plan).unwrap();

        prop_assert_eq!(shuffled.groups.len(), reference.groups.len());
        for (s, r) in shuffled.groups.iter().zip(&reference.groups) {
            prop_assert_eq!(s.key, r.key);
            prop_assert_eq!(s.estimate, r.estimate, "bit-for-bit per group");
            prop_assert_eq!(s.rows_estimate, r.rows_estimate);
            prop_assert_eq!(s.matched_draws, r.matched_draws);
        }
        prop_assert_eq!(shuffled.estimate, reference.estimate);
        prop_assert_eq!(shuffled.matched_rows, reference.matched_rows);
        prop_assert_eq!(shuffled.total_samples, reference.total_samples);
    }

    /// The leverage degree interface is a pure reparametrization: scaling
    /// k leaves the final answer unchanged (α rescales inversely).
    #[test]
    fn answer_invariant_to_k_scaling(
        c in 90.0f64..110.0,
        sketch0 in 90.0f64..110.0,
        k in 0.01f64..10.0,
        scale in 0.1f64..100.0,
    ) {
        let config = IslaConfig::builder().precision(0.1).build().unwrap();
        let case = assess(90, 110, c - sketch0).case;
        let a = iterate(&LinearEstimator { k, c }, sketch0, case, &config);
        let b = iterate(&LinearEstimator { k: k * scale, c }, sketch0, case, &config);
        prop_assert!((a.answer - b.answer).abs() < 1e-6);
    }
}

/// The precision contract of the row pipeline, checked at its stated
/// confidence: over many random multi-column datasets and random simple
/// predicates, per-group ISLA estimates land within the stated
/// precision of the `METHOD EXACT` ground truth in at least ~95% of the
/// groups (asserted with a margin at ≥ 85%, binomially safe for this
/// trial count), and *always* within a 2.5× hard envelope. Fully
/// deterministic: every trial is seeded.
#[test]
fn grouped_filtered_estimates_meet_stated_precision_at_confidence() {
    let precision = 1.0;
    let config = IslaConfig::builder().precision(precision).build().unwrap();
    let mut within = 0u32;
    let mut total = 0u32;
    for trial in 0..30u64 {
        let mut setup = StdRng::seed_from_u64(900 + trial);
        // Random shape: group count, per-group means/σ, predicate
        // threshold, block count.
        let group_count = setup.random_range(1..4u64) as usize;
        let specs: Vec<(f64, f64)> = (0..group_count)
            .map(|_| {
                (
                    setup.random_range(60.0..140.0),
                    setup.random_range(6.0..14.0),
                )
            })
            .collect();
        let n = 60_000;
        let blocks = setup.random_range(4..12u64) as usize;
        let threshold = setup.random_range(20.0..55.0);

        // Materialize (x, y, region): y loosely tracks x so the
        // predicate tilts the per-group distributions.
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        let mut region = Vec::with_capacity(n);
        use isla::stats::distributions::{Distribution, Normal};
        let noise = Normal::new(0.0, 6.0);
        for _ in 0..n {
            let r = setup.random_range(0..group_count as u64) as usize;
            let dist = Normal::new(specs[r].0, specs[r].1);
            let xv = dist.sample(&mut setup);
            y.push(0.5 * xv + noise.sample(&mut setup));
            x.push(xv);
            region.push(r as f64);
        }
        let data = RowsBlock::split(vec![x, y, region], blocks);
        let spec = RowSpec {
            agg_column: 0,
            filter: RowFilter::new(vec![ColumnPredicate {
                column: 1,
                op: CmpOp::Gt,
                value: threshold,
            }]),
            group_by: Some(2),
        };

        let exact = engine::scan_exact_groups(&data, &spec).unwrap();
        if exact.iter().any(|g| g.count < 1_000) {
            // A predicate that nearly empties a group is a different
            // regime (the pilots would refuse or pin it); skip.
            continue;
        }
        let mut rng = StdRng::seed_from_u64(7_000 + trial);
        let out = engine::run_rows(
            &data,
            &config,
            spec,
            RateSpec::Derived,
            &SequentialScheduler,
            &mut rng,
        )
        .unwrap();
        assert_eq!(out.groups.len(), exact.len(), "trial {trial}");
        for (g, x) in out.groups.iter().zip(&exact) {
            assert_eq!(g.key, x.key);
            let err = (g.estimate - x.mean).abs();
            assert!(
                err <= 2.5 * precision,
                "trial {trial} group {}: error {err} beyond the hard envelope",
                g.key
            );
            within += u32::from(err <= precision);
            total += 1;
        }
    }
    assert!(total >= 40, "enough grouped trials ran ({total})");
    let frac = f64::from(within) / f64::from(total);
    assert!(
        frac >= 0.85,
        "{within}/{total} group estimates within the stated precision ({frac:.2})"
    );
}
