//! End-to-end integration tests spanning storage → datagen → core →
//! baselines: the full evaluation pipeline at laptop scale.

use isla::prelude::*;
use isla_datagen::{exponential_dataset, normal_dataset, uniform_dataset};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn isla_aggregator(e: f64) -> IslaAggregator {
    IslaAggregator::new(IslaConfig::builder().precision(e).build().unwrap()).unwrap()
}

#[test]
fn isla_meets_precision_across_seeds_on_normal_data() {
    // The headline contract: estimates land within ±e of the truth with
    // roughly the configured confidence (calibration: ≈90-95%).
    let ds = normal_dataset(100.0, 20.0, 500_000, 10, 100);
    let e = 0.5;
    let mut within = 0u64;
    let runs = 20u64;
    for seed in 0..runs {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = isla_aggregator(e).aggregate(&ds.blocks, &mut rng).unwrap();
        within += u64::from((r.estimate - ds.true_mean).abs() <= e);
    }
    assert!(
        within >= runs * 7 / 10,
        "only {within}/{runs} runs within ±{e}"
    );
}

#[test]
fn file_backed_blocks_round_trip_through_the_full_pipeline() {
    // Write one file per block to disk (the paper's Section VIII keeps
    // one .txt per block; here each is a BinaryBlock), open them, and
    // aggregate.
    use isla::storage::BinaryBlock;
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("isla-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let values = isla::datagen::normal_values(100.0, 20.0, 100_000, 101);
    let truth: f64 = values.iter().sum::<f64>() / values.len() as f64;

    let mut blocks: Vec<Arc<dyn DataBlock>> = Vec::new();
    for (i, chunk) in values.chunks(10_000).enumerate() {
        let path = dir.join(format!("block_{i}.blk"));
        blocks.push(Arc::new(BinaryBlock::create(&path, chunk).unwrap()));
    }
    let data = BlockSet::new(blocks);
    assert_eq!(data.total_len(), 100_000);

    let mut rng = StdRng::seed_from_u64(102);
    let r = isla_aggregator(1.0).aggregate(&data, &mut rng).unwrap();
    assert!(
        (r.estimate - truth).abs() < 1.5,
        "estimate {} vs truth {truth}",
        r.estimate
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn binary_blocks_agree_with_memory_blocks() {
    use isla::storage::BinaryBlock;
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("isla-e2e-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let values = isla::datagen::normal_values(50.0, 5.0, 60_000, 103);

    let mem = BlockSet::from_values(values.clone(), 6);
    let mut bin_blocks: Vec<Arc<dyn DataBlock>> = Vec::new();
    for (i, chunk) in values.chunks(10_000).enumerate() {
        let path = dir.join(format!("block_{i}.blk"));
        bin_blocks.push(Arc::new(BinaryBlock::create(&path, chunk).unwrap()));
    }
    let bin = BlockSet::new(bin_blocks);

    // Identical layout + identical seed ⇒ identical estimate.
    let mut rng_a = StdRng::seed_from_u64(104);
    let mut rng_b = StdRng::seed_from_u64(104);
    let a = isla_aggregator(0.25).aggregate(&mem, &mut rng_a).unwrap();
    let b = isla_aggregator(0.25).aggregate(&bin, &mut rng_b).unwrap();
    assert_eq!(a.estimate, b.estimate);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn virtual_trillion_row_dataset_aggregates_in_bounded_samples() {
    // The data-size experiment's substitution: the sample size depends
    // only on (σ, e, β), so a 10¹² row virtual dataset costs the same as
    // a 10⁶ row one.
    let ds =
        isla_datagen::synthetic::virtual_normal_dataset(100.0, 20.0, 1_000_000_000_000, 10, 105);
    let mut rng = StdRng::seed_from_u64(106);
    let r = isla_aggregator(0.5)
        .aggregate(&ds.blocks, &mut rng)
        .unwrap();
    assert!((r.estimate - 100.0).abs() < 1.0, "estimate {}", r.estimate);
    // m = z²σ²/e² ≈ 6147 regardless of M = 10¹².
    assert!(
        r.total_samples_with_pilots() < 50_000,
        "drew {} samples",
        r.total_samples_with_pilots()
    );
}

#[test]
fn isla_beats_mv_and_mvb_on_accuracy_at_equal_budget() {
    // Table III's shape: ISLA ≪ MVB < MV in error on normal data.
    let ds = normal_dataset(100.0, 20.0, 400_000, 10, 107);
    let budget = 120_000;
    let (mut isla_err, mut mv_err, mut mvb_err) = (0.0, 0.0, 0.0);
    for seed in 0..5 {
        let mut rng = StdRng::seed_from_u64(seed);
        isla_err += (IslaEstimator::default()
            .estimate(&ds.blocks, budget, &mut rng)
            .unwrap()
            - ds.true_mean)
            .abs();
        let mut rng = StdRng::seed_from_u64(seed);
        mv_err += (MeasureBiasedValues
            .estimate(&ds.blocks, budget, &mut rng)
            .unwrap()
            - ds.true_mean)
            .abs();
        let mut rng = StdRng::seed_from_u64(seed);
        mvb_err += (MeasureBiasedBoundaries::default()
            .estimate(&ds.blocks, budget, &mut rng)
            .unwrap()
            - ds.true_mean)
            .abs();
    }
    assert!(
        isla_err < mvb_err && mvb_err < mv_err,
        "expected ISLA < MVB < MV, got {isla_err:.3} / {mvb_err:.3} / {mv_err:.3}"
    );
}

#[test]
fn exponential_and_uniform_distributions_keep_isla_sane() {
    // Table VI / Table VII shapes: ISLA tracks the truth where MV
    // overshoots by the size bias.
    let exp = exponential_dataset(0.1, 400_000, 10, 108);
    let mut rng = StdRng::seed_from_u64(109);
    let r = isla_aggregator(0.5)
        .aggregate(&exp.blocks, &mut rng)
        .unwrap();
    assert!(
        (r.estimate - exp.true_mean).abs() < 1.0,
        "exponential: {} vs {}",
        r.estimate,
        exp.true_mean
    );

    let uni = uniform_dataset(1.0, 199.0, 400_000, 10, 110);
    let mut rng = StdRng::seed_from_u64(111);
    let r = isla_aggregator(0.5)
        .aggregate(&uni.blocks, &mut rng)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(111);
    let mv = MeasureBiasedValues
        .estimate(&uni.blocks, 100_000, &mut rng)
        .unwrap();
    assert!(
        (r.estimate - uni.true_mean).abs() < 2.0,
        "uniform: {} vs {}",
        r.estimate,
        uni.true_mean
    );
    assert!(mv > 125.0, "MV must show the ≈132 size bias, got {mv}");
}

#[test]
fn sum_aggregation_scales_avg_by_row_count() {
    let ds = normal_dataset(10.0, 2.0, 100_000, 5, 112);
    let mut rng = StdRng::seed_from_u64(113);
    let r = isla_aggregator(0.1)
        .aggregate(&ds.blocks, &mut rng)
        .unwrap();
    assert_eq!(r.sum_estimate, r.estimate * 100_000.0);
    assert!((r.sum_estimate - 10.0 * 100_000.0).abs() < 0.2 * 100_000.0);
}

#[test]
fn mixture_of_normals_is_handled() {
    // Section VII-B: data "generated by superimposing several normal
    // distributions".
    let ds = isla_datagen::mixture_dataset(
        vec![(0.4, 80.0, 10.0), (0.6, 115.0, 15.0)],
        400_000,
        10,
        114,
    );
    let mut rng = StdRng::seed_from_u64(115);
    let r = isla_aggregator(0.5)
        .aggregate(&ds.blocks, &mut rng)
        .unwrap();
    assert!(
        (r.estimate - ds.true_mean).abs() < 1.5,
        "estimate {} vs truth {}",
        r.estimate,
        ds.true_mean
    );
}
