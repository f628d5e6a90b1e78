//! Estimator shoot-out on a skewed workload.
//!
//! Reproduces the spirit of the paper's real-data experiment
//! (Section VIII-G): on a heavily skewed trip-distance-like dataset,
//! compare ISLA against US, STS, MV, MVB and SLEV at the *same* total
//! sample budget and report the error of each.
//!
//! ```text
//! cargo run --release --example compare_estimators
//! ```

use isla::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A TLC-like clustered, highly skewed dataset (scaled down from the
    // published 10.9M rows for example runtime).
    let ds = isla::datagen::tlc::tlc_dataset_sized(1_000_000, 10, 11);
    println!("workload   : {}", ds.name);
    println!("exact AVG  : {:.2}", ds.true_mean);
    let budget = 60_000;
    println!("budget     : {budget} samples for every estimator");
    println!();
    println!(
        "{:<12}{:>14}{:>14}{:>12}",
        "method", "estimate", "abs error", "rel error"
    );

    let estimators: Vec<Box<dyn Estimator>> = vec![
        Box::new(IslaEstimator::default()),
        Box::new(UniformSampling),
        Box::new(StratifiedSampling::proportional()),
        Box::new(MeasureBiasedValues),
        Box::new(MeasureBiasedBoundaries::default()),
        Box::new(Slev::default()),
    ];

    for estimator in &estimators {
        // Same seed for every method: identical randomness budget.
        let mut rng = StdRng::seed_from_u64(99);
        match estimator.estimate(&ds.blocks, budget, &mut rng) {
            Ok(value) => {
                let abs = (value - ds.true_mean).abs();
                println!(
                    "{:<12}{:>14.2}{:>14.2}{:>11.2}%",
                    estimator.name(),
                    value,
                    abs,
                    100.0 * abs / ds.true_mean
                );
            }
            Err(e) => println!("{:<12}failed: {e}", estimator.name()),
        }
    }

    println!();
    println!(
        "MV's systematic overshoot is the size-bias E[a²]/E[a] − µ = σ²/µ; \
         ISLA discards the clustered outlier regions and re-weights the rest."
    );
}
