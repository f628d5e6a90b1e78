//! Distributed aggregation across subsidiaries (paper Section VII-E).
//!
//! "Considering a transnational corporation, massive data are stored
//! distributedly in its subsidiaries all over the world. … computations
//! are processed in each subsidiary. The center node then collects the
//! partial results to generate the final answer."
//!
//! Each subsidiary is a block with its own local sales distribution
//! (non-i.i.d.!), workers process subsidiaries concurrently, and a
//! deadline-bounded variant answers within a wall-clock budget.
//!
//! ```text
//! cargo run --release --example distributed_sales
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use isla::core::engine::{self, RateSpec};
use isla::prelude::*;
use isla::stats::distributions::Normal;
use isla::stats::ConfidenceInterval;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Five subsidiaries with different order-value profiles (the paper's
    // §VIII-D non-i.i.d. parameters), 10M virtual rows each: generator
    // blocks make the "massive" part free while exercising the identical
    // sampling path.
    let profiles: [(&str, f64, f64); 5] = [
        ("Harbin", 100.0, 20.0),
        ("Lyon", 50.0, 10.0),
        ("Austin", 80.0, 30.0),
        ("Osaka", 150.0, 60.0),
        ("Nairobi", 120.0, 40.0),
    ];
    let rows_per_site = 10_000_000u64;
    let blocks: Vec<Arc<dyn DataBlock>> = profiles
        .iter()
        .enumerate()
        .map(|(i, &(_, mean, sd))| {
            Arc::new(GeneratorBlock::new(
                Arc::new(Normal::new(mean, sd)) as Arc<dyn isla::stats::Distribution>,
                rows_per_site,
                1000 + i as u64,
            )) as Arc<dyn DataBlock>
        })
        .collect();
    let data = BlockSet::new(blocks);
    let truth: f64 = profiles.iter().map(|&(_, m, _)| m).sum::<f64>() / profiles.len() as f64;

    println!(
        "transnational sales AVG across {} subsidiaries",
        profiles.len()
    );
    println!("rows: {} ({} per site)", data.total_len(), rows_per_site);
    println!("exact answer: {truth:.3}");
    println!();

    // Non-i.i.d. aggregation: per-site boundaries and variance-driven
    // sampling rates (paper §VII-C), scattered over a worker pool.
    let config = IslaConfig::builder()
        .precision(0.5)
        .confidence(0.95)
        .build()
        .expect("valid configuration");
    let mut rng = StdRng::seed_from_u64(5);
    let noniid = NonIidAggregator::new(config.clone())
        .expect("valid configuration")
        .aggregate(&data, &mut rng)
        .expect("aggregation succeeds");
    println!("non-i.i.d. pipeline (per-site boundaries):");
    for (p, &(name, mean, sd)) in noniid.pre.iter().zip(&profiles) {
        println!(
            "  {name:<8} N({mean:>5.1}, {sd:>4.1}²)  sketch0 {:>8.3}  σ̂ {:>6.2}  rate {:.3e}",
            p.sketch0, p.sigma, p.rate
        );
    }
    println!(
        "  estimate {:.3} (error {:.3}) from {} samples",
        noniid.estimate,
        (noniid.estimate - truth).abs(),
        noniid.total_samples
    );
    println!();

    // The same data scattered over a worker pool: the engine's pooled
    // scheduler, bit-identical to a sequential run.
    let workers = 4;
    let pool = PooledScheduler::new(workers).expect("positive worker count");
    let mut rng = StdRng::seed_from_u64(6);
    let scattered = engine::run(&data, &config, RateSpec::Derived, &pool, &mut rng)
        .expect("aggregation succeeds");
    println!("scatter/gather over {workers} workers (global boundaries):");
    for (i, stats) in scattered.worker_stats.iter().enumerate() {
        println!(
            "  worker {i}: {} sites, {} samples",
            stats.blocks_processed, stats.samples_drawn
        );
    }
    println!(
        "  estimate {:.3} (error {:.3})",
        scattered.estimate,
        (scattered.estimate - truth).abs()
    );
    println!();

    // Deadline-bounded (paper §VII-F): answer in 250 ms, whatever that
    // affords, and report the achieved interval. The engine times a
    // probe draw to size the sample; the same pool runs under that
    // budget.
    let deadline = Duration::from_millis(250);
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(7);
    let affordable = engine::affordable_draws(deadline, &data, &mut rng, |n, rng| {
        isla::storage::sample_proportional(&data, n, rng)?;
        Ok(())
    })
    .expect("calibration succeeds");
    assert!(affordable >= 2, "250 ms affords a mean's two draws");
    let bounded = engine::run(
        &data,
        &config,
        RateSpec::Derived,
        &DeadlineScheduler::new(pool, affordable),
        &mut rng,
    )
    .expect("deadline execution succeeds");
    let achieved = ConfidenceInterval::for_mean(
        bounded.estimate,
        bounded.pre.sigma,
        bounded.total_samples.max(1),
        config.confidence,
    );
    println!("deadline-bounded run ({} ms):", deadline.as_millis());
    println!(
        "  estimate {:.3} ± {:.3} ({}, {:.0} ms)",
        bounded.estimate,
        achieved.half_width,
        if bounded.time_limited {
            "time-limited"
        } else {
            "full precision met"
        },
        start.elapsed().as_secs_f64() * 1e3
    );
}
