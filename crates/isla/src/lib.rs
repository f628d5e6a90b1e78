//! # ISLA — An Iterative Scheme for Leverage-based Approximate Aggregation
//!
//! The facade crate of the ISLA workspace: a from-scratch Rust
//! implementation of Han, Wang, Wan & Li's leverage-based approximate
//! aggregation system (ICDE 2019), including every substrate and baseline
//! its evaluation depends on.
//!
//! ## Quick start
//!
//! ```
//! use isla::prelude::*;
//! use rand::SeedableRng;
//!
//! // A dataset: 100k values ≈ N(250, 40²), split into 10 blocks.
//! let values = isla::datagen::normal_values(250.0, 40.0, 100_000, 7);
//! let data = BlockSet::from_values(values, 10);
//!
//! // AVG with precision 1.0 at 95% confidence.
//! let config = IslaConfig::builder().precision(1.0).build().unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let result = IslaAggregator::new(config)
//!     .unwrap()
//!     .aggregate(&data, &mut rng)
//!     .unwrap();
//! // The run is seeded, but the bound is left far slacker than the
//! // configured precision so the example holds on any platform or
//! // RNG stream.
//! assert!((result.estimate - 250.0).abs() < 10.0);
//! ```
//!
//! Or through the SQL-ish query layer:
//!
//! ```
//! use isla::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut catalog = Catalog::new();
//! catalog.register(
//!     "sensors",
//!     Table::new(vec![(
//!         "reading",
//!         BlockSet::from_values(isla::datagen::normal_values(20.0, 3.0, 50_000, 2), 5),
//!     )]),
//! );
//! let query = isla::query::parse(
//!     "SELECT AVG(reading) FROM sensors WITH PRECISION 0.25",
//! ).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//! let answer = isla::query::execute(&query, &catalog, &mut rng).unwrap();
//! assert!((answer.value - 20.0).abs() < 2.5);
//! ```
//!
//! ## Workspace map
//!
//! | crate | contents |
//! |---|---|
//! | [`core`] | the paper's contribution: boundaries, leverages, Theorem-3 estimator, modulation Cases 1–5, Algorithms 1–2, online & non-i.i.d. extensions; the engine whose schedulers run it sequentially, on a worker pool (§VII-E) or under a deadline (§VII-F) |
//! | [`stats`] | statistics substrate: erf/normal quantile, distributions, compensated moments, confidence intervals |
//! | [`storage`] | block storage: in-memory row / zip, binary-file and virtual generator blocks; samplers, moment and per-key sketches, compiled selections |
//! | [`datagen`] | evaluation workloads: synthetic, TPC-H-like lineitem, census/TLC stand-ins |
//! | [`baselines`] | US, STS, MV, MVB, SLEV comparators behind one `Estimator` trait |
//! | [`query`] | `SELECT AVG(col) FROM t WITH PRECISION e` parser + executor |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use isla_baselines as baselines;
pub use isla_core as core;
pub use isla_datagen as datagen;
pub use isla_query as query;
pub use isla_stats as stats;
pub use isla_storage as storage;

/// The most common imports in one place.
pub mod prelude {
    pub use isla_baselines::{
        Estimator, IslaEstimator, MeasureBiasedBoundaries, MeasureBiasedValues, Slev,
        StratifiedSampling, UniformSampling,
    };
    pub use isla_core::engine::{
        BlockScheduler, DeadlineScheduler, EngineResult, PooledScheduler, SequentialScheduler,
    };
    pub use isla_core::noniid::NonIidAggregator;
    pub use isla_core::online::OnlineAggregator;
    pub use isla_core::{IslaAggregator, IslaConfig, IslaError, ModulationStyle};
    pub use isla_query::{execute, parse, Catalog, QueryResult, QuerySession, Table};
    pub use isla_stats::distributions::Distribution;
    pub use isla_storage::{
        BlockSet, ColumnDef, DataBlock, GeneratorBlock, RowFilter, RowsBlock, Schema,
    };
}
