//! Per-block execution: Algorithm 1 (sampling) + Algorithm 2 (iteration).
//!
//! [`execute_block`] draws the block's share of samples, folds them into a
//! [`SampleAccumulator`], and runs [`iteration_phase`] to produce the
//! block's partial answer. The two phases are public separately because
//! the online-aggregation extension (paper §VII-A) re-runs the iteration
//! phase on accumulators that keep growing across rounds.

use rand::RngCore;

use isla_storage::{sample_row_columns_from_block, DataBlock};

use crate::accumulate::SampleAccumulator;
use crate::boundaries::DataBoundaries;
use crate::config::IslaConfig;
use crate::deviation::{assess, ModulationCase};
use crate::error::IslaError;
use crate::estimator::LinearEstimator;
use crate::leverage::determine_q;
use crate::modulation::{iterate, IterationStep};

/// Why a block fell back to the sketch estimator instead of iterating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fallback {
    /// The block contributed no samples at all (zero sample share).
    NoSamples,
    /// One of the S/L regions captured no samples, so the leverage
    /// allocation is undefined.
    EmptyRegion,
    /// The Theorem-3 coefficients were undefined for the accumulated
    /// moments (degenerate inputs).
    DegenerateEstimator,
}

/// The outcome of executing one block.
#[derive(Debug, Clone)]
pub struct BlockOutcome {
    /// Index of the block within its block set.
    pub block_id: usize,
    /// The partial answer, in the *original* (unshifted) domain.
    pub answer: f64,
    /// Rows in the block (`|Bⱼ|`), the summarization weight.
    pub rows: u64,
    /// Samples drawn in this block.
    pub samples_drawn: u64,
    /// `|S|` after sampling.
    pub u: u64,
    /// `|L|` after sampling.
    pub v: u64,
    /// Deviation degree `|S|/|L|`, when defined.
    pub dev: Option<f64>,
    /// The leverage-allocation parameter `q` used.
    pub q: f64,
    /// The modulation case, when iteration ran.
    pub case: Option<ModulationCase>,
    /// Final leverage degree `α`.
    pub alpha: f64,
    /// Iterations executed.
    pub iterations: u32,
    /// Whether the answer was clamped to the sketch estimator's relaxed
    /// confidence interval (paper §VII-B).
    pub clamped: bool,
    /// Why the block fell back to `sketch0`, if it did.
    pub fallback: Option<Fallback>,
    /// The accumulated sampling state (kept for online refinement).
    pub accumulator: SampleAccumulator,
    /// Iteration trace when requested.
    pub trace: Option<Vec<IterationStep>>,
}

/// Result of the iteration phase alone (shifted domain).
#[derive(Debug, Clone)]
pub struct IterationPhase {
    /// The answer in the shifted domain.
    pub answer: f64,
    /// `q` used (1.0 on fallback).
    pub q: f64,
    /// Case, when iteration ran.
    pub case: Option<ModulationCase>,
    /// Final `α`.
    pub alpha: f64,
    /// Iterations executed.
    pub iterations: u32,
    /// Clamped to the sketch interval?
    pub clamped: bool,
    /// Fallback reason, if any.
    pub fallback: Option<Fallback>,
    /// Iteration trace when requested.
    pub trace: Option<Vec<IterationStep>>,
}

/// Runs Algorithm 2 (plus the §VII-B interval clamp) over accumulated
/// sampling state. `sketch0` must be in the same (shifted) domain as the
/// accumulator's boundaries.
pub fn iteration_phase(
    accumulator: &SampleAccumulator,
    sketch0: f64,
    config: &IslaConfig,
) -> IterationPhase {
    let (u, v) = (accumulator.u(), accumulator.v());
    let fallback = |reason: Fallback| IterationPhase {
        answer: sketch0,
        q: 1.0,
        case: None,
        alpha: 0.0,
        iterations: 0,
        clamped: false,
        fallback: Some(reason),
        trace: None,
    };
    if accumulator.total_offered() == 0 {
        return fallback(Fallback::NoSamples);
    }
    if u == 0 || v == 0 {
        return fallback(Fallback::EmptyRegion);
    }
    let dev = u as f64 / v as f64;
    let q = determine_q(dev, config);
    let Some(estimator) =
        LinearEstimator::from_moments(accumulator.param_s(), accumulator.param_l(), q)
    else {
        return fallback(Fallback::DegenerateEstimator);
    };
    let assessment = assess(u, v, estimator.c - sketch0, config);
    let outcome = iterate(&estimator, sketch0, assessment.case, config);

    // Modulation boundary (paper §VII-B): the sketch estimator's relaxed
    // confidence interval is an assurance on µ; answers outside it are
    // artifacts of over-strong leverage effects.
    let mut answer = outcome.answer;
    let mut clamped = false;
    if config.clamp_to_sketch_interval {
        let half = config.relaxation * config.precision;
        let (lo, hi) = (sketch0 - half, sketch0 + half);
        if answer < lo {
            answer = lo;
            clamped = true;
        } else if answer > hi {
            answer = hi;
            clamped = true;
        }
    }

    IterationPhase {
        answer,
        q,
        case: Some(outcome.case),
        alpha: outcome.alpha,
        iterations: outcome.iterations,
        clamped,
        fallback: None,
        trace: outcome.trace,
    }
}

/// Executes both phases on one block.
///
/// `boundaries` and `sketch0_shifted` live in the shifted domain
/// (`value + shift`); the returned answer is translated back.
///
/// # Errors
///
/// Propagates storage errors from sampling.
#[allow(clippy::too_many_arguments)]
pub fn execute_block(
    block: &dyn DataBlock,
    block_id: usize,
    sample_size: u64,
    boundaries: DataBoundaries,
    sketch0_shifted: f64,
    shift: f64,
    config: &IslaConfig,
    rng: &mut dyn RngCore,
) -> Result<BlockOutcome, IslaError> {
    let mut accumulator = SampleAccumulator::new(boundaries);
    // Batched sampling kernel: each batch's indices are drawn up front
    // and gathered on a reusable thread-local buffer (draw order for
    // in-memory blocks, sorted for file readers — values land in draw
    // order either way), then the batch is folded as one slice: lanes
    // partitioned into S and L without branching, power sums run per
    // lane. Values, RNG stream and accumulator state are bit-identical
    // to the per-sample draw-classify-update loop of Algorithm 1.
    sample_row_columns_from_block(block, Some(&[0]), sample_size, rng, &mut |buf| {
        accumulator.offer_slice(buf.rows(), shift);
    })?;
    let phase = iteration_phase(&accumulator, sketch0_shifted, config);
    Ok(BlockOutcome {
        block_id,
        answer: phase.answer - shift,
        rows: block.len(),
        samples_drawn: sample_size,
        u: accumulator.u(),
        v: accumulator.v(),
        dev: accumulator.dev(),
        q: phase.q,
        case: phase.case,
        alpha: phase.alpha,
        iterations: phase.iterations,
        clamped: phase.clamped,
        fallback: phase.fallback,
        accumulator,
        trace: phase.trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use isla_datagen::normal_values;
    use isla_storage::RowsBlock;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> IslaConfig {
        IslaConfig::builder().precision(0.5).build().unwrap()
    }

    fn normal_block(n: usize, seed: u64) -> RowsBlock {
        RowsBlock::new(vec![normal_values(100.0, 20.0, n, seed)])
    }

    #[test]
    fn block_answer_lands_near_truth() {
        let block = normal_block(200_000, 1);
        let boundaries = DataBoundaries::new(100.0, 20.0, 0.5, 2.0);
        let mut rng = StdRng::seed_from_u64(2);
        let out =
            execute_block(&block, 0, 20_000, boundaries, 100.0, 0.0, &cfg(), &mut rng).unwrap();
        assert!(out.fallback.is_none());
        assert!(
            (out.answer - 100.0).abs() < 1.0,
            "block answer {} too far from 100",
            out.answer
        );
        assert_eq!(out.samples_drawn, 20_000);
        assert_eq!(out.rows, 200_000);
        // Roughly 28.6% of normal mass falls in each of S and L.
        let frac = (out.u + out.v) as f64 / 20_000.0;
        assert!((frac - 0.5716).abs() < 0.03, "S∪L fraction {frac}");
    }

    #[test]
    fn shift_round_trips_the_answer() {
        // Same data, translated far negative: answers must agree after
        // the shift is undone.
        let values = normal_values(100.0, 20.0, 100_000, 3);
        let shifted: Vec<f64> = values.iter().map(|v| v - 500.0).collect();
        let boundaries = DataBoundaries::new(100.0, 20.0, 0.5, 2.0);
        let cfg = cfg();

        let mut rng = StdRng::seed_from_u64(4);
        let plain = execute_block(
            &RowsBlock::new(vec![values]),
            0,
            10_000,
            boundaries,
            100.0,
            0.0,
            &cfg,
            &mut rng,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let moved = execute_block(
            &RowsBlock::new(vec![shifted]),
            0,
            10_000,
            boundaries,
            100.0,
            500.0,
            &cfg,
            &mut rng,
        )
        .unwrap();
        assert!(
            (plain.answer - (moved.answer + 500.0)).abs() < 1e-9,
            "plain {} vs shifted {}",
            plain.answer,
            moved.answer
        );
        assert_eq!(plain.u, moved.u);
        assert_eq!(plain.v, moved.v);
    }

    #[test]
    fn zero_sample_share_falls_back_to_sketch() {
        let block = normal_block(100, 5);
        let boundaries = DataBoundaries::new(100.0, 20.0, 0.5, 2.0);
        let mut rng = StdRng::seed_from_u64(6);
        let out = execute_block(&block, 3, 0, boundaries, 101.5, 0.0, &cfg(), &mut rng).unwrap();
        assert_eq!(out.fallback, Some(Fallback::NoSamples));
        assert_eq!(out.answer, 101.5);
        assert_eq!(out.block_id, 3);
    }

    #[test]
    fn empty_region_falls_back_to_sketch() {
        // All data sits in the N region ⇒ S and L stay empty.
        let block = RowsBlock::new(vec![vec![100.0; 1000]]);
        let boundaries = DataBoundaries::new(100.0, 20.0, 0.5, 2.0);
        let mut rng = StdRng::seed_from_u64(7);
        let out = execute_block(&block, 0, 100, boundaries, 100.2, 0.0, &cfg(), &mut rng).unwrap();
        assert_eq!(out.fallback, Some(Fallback::EmptyRegion));
        assert_eq!(out.answer, 100.2);
        assert_eq!(out.u + out.v, 0);
    }

    #[test]
    fn one_sided_region_falls_back() {
        // Data only below the center: L never fills.
        let block = RowsBlock::new(vec![vec![75.0; 1000]]); // S region for the boundaries
        let boundaries = DataBoundaries::new(100.0, 20.0, 0.5, 2.0);
        let mut rng = StdRng::seed_from_u64(8);
        let out = execute_block(&block, 0, 100, boundaries, 100.0, 0.0, &cfg(), &mut rng).unwrap();
        assert_eq!(out.fallback, Some(Fallback::EmptyRegion));
        assert!(out.u > 0 && out.v == 0);
    }

    #[test]
    fn clamp_keeps_answer_inside_sketch_interval() {
        // Construct a skewed sample where the iteration would exceed the
        // relaxed interval: tiny sample, far-off sketch.
        let cfg = IslaConfig::builder().precision(0.05).build().unwrap();
        let block = RowsBlock::new(vec![(0..1000)
            .map(|i| if i % 2 == 0 { 75.0 } else { 130.0 })
            .collect()]);
        let boundaries = DataBoundaries::new(100.0, 20.0, 0.5, 2.0);
        let mut rng = StdRng::seed_from_u64(9);
        let out = execute_block(&block, 0, 400, boundaries, 100.0, 0.0, &cfg, &mut rng).unwrap();
        let half = cfg.relaxation * cfg.precision;
        assert!(
            out.answer >= 100.0 - half - 1e-12 && out.answer <= 100.0 + half + 1e-12,
            "answer {} outside sketch interval ±{half}",
            out.answer
        );
    }

    #[test]
    fn iteration_phase_is_reusable_for_online_rounds() {
        // Accumulate in two rounds; the second phase run sees both.
        let boundaries = DataBoundaries::new(100.0, 20.0, 0.5, 2.0);
        let cfg = cfg();
        let mut acc = SampleAccumulator::new(boundaries);
        let values = normal_values(100.0, 20.0, 40_000, 10);
        for &v in &values[..20_000] {
            acc.offer(v);
        }
        let first = iteration_phase(&acc, 100.0, &cfg);
        for &v in &values[20_000..] {
            acc.offer(v);
        }
        let second = iteration_phase(&acc, 100.0, &cfg);
        assert!(first.fallback.is_none() && second.fallback.is_none());
        assert!((second.answer - 100.0).abs() < 1.0);
        assert_eq!(acc.total_offered(), 40_000);
    }
}
