//! Online aggregation over a sensor fleet (paper Section VII-A).
//!
//! A monitoring dashboard wants the fleet-wide mean temperature at
//! progressively tighter precision while the user watches. ISLA's online
//! mode keeps only the per-block `paramS`/`paramL` power sums between
//! rounds — no samples are stored — and each refinement draws more
//! samples into the same accumulators and re-runs the cheap iteration
//! phase.
//!
//! ```text
//! cargo run --release --example sensor_online
//! ```

use isla::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 8 racks of sensors; readings ≈ N(21.5°C, 1.2²) with rack-local
    // noise baked into the generated values.
    let readings = isla::datagen::normal_values(21.5, 1.2, 1_600_000, 3);
    let exact: f64 = readings.iter().sum::<f64>() / readings.len() as f64;
    let data = BlockSet::from_values(readings, 8);

    // Start coarse: a wide interval answers almost instantly.
    let config = IslaConfig::builder()
        .precision(0.05)
        .confidence(0.95)
        .build()
        .expect("valid configuration");

    let mut rng = StdRng::seed_from_u64(17);
    let mut online =
        OnlineAggregator::start(data, config, &mut rng).expect("pre-estimation succeeds");

    println!("fleet-wide mean temperature, refined online");
    println!("exact answer: {exact:.4} °C");
    println!();
    println!(
        "{:>6}{:>16}{:>12}{:>14}",
        "round", "samples so far", "estimate", "abs error"
    );

    let snapshot = online.snapshot().expect("snapshot succeeds");
    println!(
        "{:>6}{:>16}{:>12.4}{:>14.4}",
        snapshot.rounds,
        snapshot.total_samples,
        snapshot.estimate,
        (snapshot.estimate - exact).abs()
    );

    // The user keeps the dashboard open: four more refinement rounds,
    // each adding another full round of samples.
    for _ in 0..4 {
        let snapshot = online.refine(1.0, &mut rng).expect("refinement succeeds");
        println!(
            "{:>6}{:>16}{:>12.4}{:>14.4}",
            snapshot.rounds,
            snapshot.total_samples,
            snapshot.estimate,
            (snapshot.estimate - exact).abs()
        );
    }

    let last = online.snapshot().expect("snapshot succeeds");
    println!();
    println!(
        "storage held between rounds: 8 blocks × 2 regions × 4 numbers = {} f64s \
         (instead of {} samples)",
        8 * 2 * 4,
        last.total_samples
    );
    assert!((last.estimate - exact).abs() < 0.1);
}
