//! Integration tests for the online-aggregation extension (paper §VII-A).

use isla::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn config(e: f64) -> IslaConfig {
    IslaConfig::builder().precision(e).build().unwrap()
}

#[test]
fn online_rounds_converge_toward_batch_quality() {
    let values = isla::datagen::normal_values(100.0, 20.0, 400_000, 200);
    let truth: f64 = values.iter().sum::<f64>() / values.len() as f64;
    let data = BlockSet::from_values(values, 10);

    // One batch run at precision e versus an online session that starts
    // at 4e and refines three times (≈ the same total samples).
    let mut rng = StdRng::seed_from_u64(201);
    let batch = IslaAggregator::new(config(0.5))
        .unwrap()
        .aggregate(&data, &mut rng)
        .unwrap();

    let mut rng = StdRng::seed_from_u64(202);
    let mut online = OnlineAggregator::start(data, config(2.0), &mut rng).unwrap();
    for _ in 0..15 {
        online.refine(1.0, &mut rng).unwrap();
    }
    let final_snapshot = online.snapshot().unwrap();

    let batch_err = (batch.estimate - truth).abs();
    let online_err = (final_snapshot.estimate - truth).abs();
    assert!(
        online_err < batch_err + 0.6,
        "online error {online_err:.4} should approach batch error {batch_err:.4}"
    );
    assert_eq!(final_snapshot.rounds, 16);
}

#[test]
fn online_over_file_blocks() {
    use isla::storage::BinaryBlock;
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("isla-online-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let values = isla::datagen::normal_values(60.0, 6.0, 50_000, 203);
    let truth: f64 = values.iter().sum::<f64>() / values.len() as f64;
    let mut blocks: Vec<Arc<dyn DataBlock>> = Vec::new();
    for (i, chunk) in values.chunks(10_000).enumerate() {
        let path = dir.join(format!("online_{i}.blk"));
        blocks.push(Arc::new(BinaryBlock::create(&path, chunk).unwrap()));
    }

    let mut rng = StdRng::seed_from_u64(204);
    let mut online = OnlineAggregator::start(BlockSet::new(blocks), config(0.5), &mut rng).unwrap();
    let first = online.snapshot().unwrap();
    let second = online.refine(2.0, &mut rng).unwrap();
    assert!((second.estimate - truth).abs() < 1.0);
    assert!(second.total_samples > first.total_samples * 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshots_are_idempotent() {
    let data = BlockSet::from_values(isla::datagen::normal_values(10.0, 1.0, 60_000, 205), 6);
    let mut rng = StdRng::seed_from_u64(206);
    let online = OnlineAggregator::start(data, config(0.1), &mut rng).unwrap();
    let a = online.snapshot().unwrap();
    let b = online.snapshot().unwrap();
    assert_eq!(a, b, "snapshot must not mutate state");
}
