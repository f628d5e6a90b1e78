//! # ISLA — An Iterative Scheme for Leverage-based Approximate Aggregation
//!
//! A from-scratch Rust implementation of the approximate AVG/SUM
//! aggregation scheme of Han, Wang, Wan & Li (ICDE 2019). ISLA answers
//! `AVG` queries over block-partitioned data from a small uniform sample,
//! with a user-chosen precision `e` and confidence `β`, by iteratively
//! reconciling two estimators:
//!
//! * the **sketch estimator** — a pilot estimate with a relaxed precision
//!   `tₑ·e`, a "rough picture" of the answer ([`pre_estimation`]);
//! * the **l-estimator** — a leverage-reweighted mean of the samples that
//!   fall in the *Small* and *Large* regions of the data boundaries,
//!   which is a closed-form linear function `μ̂ = k·α + c` of the leverage
//!   degree `α` ([`estimator`], Theorem 3 of the paper).
//!
//! The pipeline per block (the **Calculation module** of the paper's
//! system):
//!
//! 1. classify uniform samples against the data boundaries built from
//!    `sketch0 ± p1σ / ± p2σ` ([`boundaries`]), folding S and L samples
//!    into running power sums — samples are never stored
//!    ([`accumulate`], Algorithm 1);
//! 2. pick the leverage allocation parameter `q` from the deviation
//!    degree `dev = |S|/|L|` ([`leverage`]);
//! 3. derive the modulation case from `sign(D₀)` and `dev`
//!    ([`deviation`], Cases 1–5) and iterate `δα`/`δsketch` steps until
//!    the objective `D = μ̂ − sketch` falls below the threshold
//!    ([`modulation`], Algorithm 2);
//! 4. combine per-block partial answers weighted by block size
//!    ([`summarize`], the **Summarization module**).
//!
//! The pipeline itself is owned by the [`engine`] module — a
//! [`engine::QueryPlan`] (validated config + pre-estimate + boundaries),
//! pluggable [`engine::BlockScheduler`]s (sequential, pooled,
//! deadline-capped) and a mergeable [`engine::PartialAggregate`] — and
//! the top-level entry point [`IslaAggregator`] is a thin wrapper over
//! it, as is the query executor; distributed (§VII-E) and deadline-bounded
//! (§VII-F) runs are [`engine::run`] on a pooled or deadline scheduler.
//! Extensions from the paper's Section VII are implemented in [`online`]
//! (progressive refinement without re-sampling) and [`noniid`]
//! (per-block sampling rates and boundaries for non-identically-
//! distributed blocks).
//!
//! ```
//! use isla_core::{IslaAggregator, IslaConfig};
//! use isla_storage::BlockSet;
//! use rand::SeedableRng;
//!
//! // 100k values around 42.0, split into 10 blocks.
//! let values: Vec<f64> = (0..100_000)
//!     .map(|i| 42.0 + ((i % 97) as f64 - 48.0) / 16.0)
//!     .collect();
//! let data = BlockSet::from_values(values, 10);
//!
//! let config = IslaConfig::builder()
//!     .precision(0.05)
//!     .confidence(0.95)
//!     .build()
//!     .unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let result = IslaAggregator::new(config)
//!     .unwrap()
//!     .aggregate(&data, &mut rng)
//!     .unwrap();
//! assert!((result.estimate - 42.0).abs() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accumulate;
pub mod aggregator;
pub mod block_exec;
pub mod boundaries;
pub mod config;
pub mod continuous;
pub mod deviation;
pub mod engine;
pub mod error;
pub mod estimator;
pub mod extremes;
pub mod leverage;
pub mod modulation;
pub mod noniid;
pub mod online;
pub mod pre_estimation;
pub mod shift;
pub mod summarize;

pub use accumulate::SampleAccumulator;
pub use aggregator::IslaAggregator;
pub use block_exec::{execute_block, iteration_phase, BlockOutcome, Fallback, IterationPhase};
pub use boundaries::{DataBoundaries, Region};
pub use config::{IslaConfig, IslaConfigBuilder, ModulationStyle};
pub use continuous::{ContinuousAnswer, ContinuousQuery};
pub use deviation::{assess, DeviationAssessment, ModulationCase};
pub use error::IslaError;
pub use estimator::LinearEstimator;
pub use extremes::{ExtremeAggregator, ExtremeKind, ExtremeResult};
pub use leverage::{determine_q, LeverageAllocation};
pub use modulation::{iterate, IterationStep, ModulationOutcome};
pub use pre_estimation::{
    finish_pilot_fold, fold_pilot_segment, pinned_pre_estimate, pre_estimate_with, sketched_mean,
    PilotFold, PreEstimate,
};
pub use summarize::combine_partials;
