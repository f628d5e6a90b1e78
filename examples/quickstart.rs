//! Quickstart: approximate AVG over a block-partitioned dataset.
//!
//! Generates the paper's default workload (N(100, 20²)), runs ISLA at a
//! user-visible precision, and compares the estimate, the exact answer,
//! and the sampling cost.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use isla::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 2 million rows ≈ N(100, 20²) split into 10 blocks — the paper's
    // default synthetic workload at laptop scale.
    let values = isla::datagen::normal_values(100.0, 20.0, 2_000_000, 42);
    let exact: f64 = values.iter().sum::<f64>() / values.len() as f64;
    let data = BlockSet::from_values(values, 10);

    // Ask for AVG within ±0.1 at 95% confidence — the paper's defaults.
    let config = IslaConfig::builder()
        .precision(0.1)
        .confidence(0.95)
        .build()
        .expect("valid configuration");
    let aggregator = IslaAggregator::new(config).expect("valid configuration");

    let mut rng = StdRng::seed_from_u64(7);
    let result = aggregator
        .aggregate(&data, &mut rng)
        .expect("aggregation succeeds");

    println!("ISLA approximate AVG aggregation");
    println!("--------------------------------");
    println!("rows                : {}", result.data_size);
    println!("requested precision : ±0.1 @ 95%");
    println!("sketch estimator    : {:.4}", result.pre.sketch0);
    println!("estimated σ         : {:.4}", result.pre.sigma);
    println!("sampling rate       : {:.6}", result.pre.rate);
    println!(
        "samples drawn       : {} (+{} pilot)",
        result.total_samples,
        result.total_samples_with_pilots() - result.total_samples
    );
    println!();
    println!("estimate            : {:.4}", result.estimate);
    println!("exact answer        : {exact:.4}");
    println!(
        "absolute error      : {:.4}",
        (result.estimate - exact).abs()
    );
    println!(
        "scanned fraction    : {:.2}% of the data",
        100.0 * result.total_samples_with_pilots() as f64 / result.data_size as f64
    );
    println!();
    println!("per-block partial answers:");
    for block in &result.blocks {
        println!(
            "  block {:>2}: answer {:>9.4}  |S|={:<5} |L|={:<5} case {:?}{}",
            block.block_id,
            block.answer,
            block.u,
            block.v,
            block.case.map(|c| c.paper_number()).unwrap_or(5),
            if block.clamped { " (clamped)" } else { "" },
        );
    }

    assert!(
        (result.estimate - exact).abs() < 0.5,
        "estimate should land near the exact answer"
    );
}
