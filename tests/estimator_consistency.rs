//! Consistency of Algorithms 1–2 at the population level: fed every row
//! of a column, does the iteration phase return the column's mean?
//!
//! Each cell offers a whole 1 M-row column to
//! [`SampleAccumulator::offer_slice`] — boundaries from the
//! distribution's σ around `sketch0`, data shifted clear of zero exactly
//! as the engine shifts it — and runs [`iteration_phase`] with the
//! default [`ModulationStyle::FigureConsistent`]. No sampling noise is
//! left, so a consistent estimator lands on the mean μ: a cell *holds*
//! when `|answer − μ| ≤ TOLERANCE · e`.
//!
//! Cells the estimator fails today are named in [`KNOWN_FAILING`] and
//! asserted to still fail, so a fix flips them on purpose and no cell
//! leaves the grid quietly (as in `calibration.rs`). Every cell's
//! `(answer − μ)/e` prints with `--nocapture`. The test only reads: no
//! answer path moves.

use isla::core::shift::compute_shift;
use isla::core::{iteration_phase, DataBoundaries, SampleAccumulator};
use isla::prelude::*;
use isla::stats::distributions::{Exponential, Normal, UniformRange};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Rows in every column: the whole population is offered.
const ROWS: usize = 1_000_000;

/// The largest `|answer − μ|` a consistent cell may leave, as a share
/// of the precision target `e`.
const TOLERANCE: f64 = 0.1;

/// Cells the estimator fails today, by name, with the `(answer − μ)/e`
/// each measured when it was named:
///
/// * exponential (q = 0.10 at `u/v` ≈ 2.27: the bias is the
///   estimator's own, and only the §VII-B clamp bounds it): at μ
///   −2.00 clamped and −6.96 unclamped; at μ ∓ e −3.00 / −1.00
///   clamped and −7.18 / −6.72 unclamped;
/// * normal: the modulation meets a `sketch0` off by ∓e only part-way,
///   −0.32 / +0.30, clamp or not;
/// * uniform: the same, −0.22 / +0.22.
const KNOWN_FAILING: &[&str] = &[
    "exponential/mu-e/clamped",
    "exponential/mu/clamped",
    "exponential/mu+e/clamped",
    "exponential/mu-e/unclamped",
    "exponential/mu/unclamped",
    "exponential/mu+e/unclamped",
    "normal/mu-e/clamped",
    "normal/mu+e/clamped",
    "normal/mu-e/unclamped",
    "normal/mu+e/unclamped",
    "uniform/mu-e/clamped",
    "uniform/mu+e/clamped",
    "uniform/mu-e/unclamped",
    "uniform/mu+e/unclamped",
];

/// One generated column and the precision its cells ask for.
struct Column {
    name: &'static str,
    values: Vec<f64>,
    /// The column's exact mean.
    mu: f64,
    /// The distribution's σ, which sets the boundaries.
    sigma: f64,
    e: f64,
}

impl Column {
    fn generate(name: &'static str, dist: &dyn Distribution, e: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<f64> = (0..ROWS).map(|_| dist.sample(&mut rng)).collect();
        let mu = values.iter().sum::<f64>() / ROWS as f64;
        Self {
            name,
            values,
            mu,
            sigma: dist.std_dev(),
            e,
        }
    }

    /// `(answer − μ)/e` with `sketch0 = μ + offset·e`.
    fn offset_of_answer(&self, offset: f64, clamp: bool) -> f64 {
        let config = IslaConfig::builder()
            .precision(self.e)
            .clamp_to_sketch_interval(clamp)
            .build()
            .unwrap();
        let sketch0 = self.mu + offset * self.e;
        let shift = compute_shift(sketch0, self.sigma, config.p2);
        let boundaries = DataBoundaries::new(sketch0 + shift, self.sigma, config.p1, config.p2);
        let mut acc = SampleAccumulator::new(boundaries);
        acc.offer_slice(&self.values, shift);
        let answer = iteration_phase(&acc, sketch0 + shift, &config).answer - shift;
        (answer - self.mu) / self.e
    }

    /// Runs the column's six cells and asserts each verdict against
    /// [`KNOWN_FAILING`].
    fn judge(&self) {
        for clamp in [true, false] {
            for (label, offset) in [("mu-e", -1.0), ("mu", 0.0), ("mu+e", 1.0)] {
                let name = format!(
                    "{}/{label}/{}",
                    self.name,
                    if clamp { "clamped" } else { "unclamped" }
                );
                let off = self.offset_of_answer(offset, clamp);
                let holds = off.abs() <= TOLERANCE;
                let known = KNOWN_FAILING.contains(&name.as_str());
                println!("{name:<28} (answer − μ)/e = {off:+.3}");
                assert_eq!(
                    holds, !known,
                    "{name}: (answer − μ)/e = {off:+.3} (known failing: {known}) — a fix flips a named cell on purpose"
                );
            }
        }
    }
}

#[test]
fn normal_column() {
    Column::generate("normal", &Normal::new(100.0, 20.0), 0.5, 1).judge();
}

#[test]
fn uniform_column() {
    Column::generate("uniform", &UniformRange::new(0.0, 100.0), 0.5, 2).judge();
}

#[test]
fn exponential_column() {
    Column::generate("exponential", &Exponential::new(1.0 / 3.0), 0.05, 3).judge();
}
