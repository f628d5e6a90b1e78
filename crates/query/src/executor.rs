//! Query execution: dispatches a parsed [`Query`] to ISLA or a baseline.
//!
//! [`QuerySession::execute_table`] binds a query to its table once —
//! `WHERE` and `GROUP BY` compiled against the table's
//! [`isla_storage::Schema`] into an [`engine::RowSpec`] (a pushed-down
//! [`isla_storage::RowFilter`] plus positional group/aggregate columns),
//! the data it reads (the table's rows under a spec, else the aggregated
//! column) — and then makes the one decision of what answers: one arm
//! each for `MAX`/`MIN`, `COUNT(*)`, `METHOD EXACT`, ISLA and the
//! baselines. Each arm branches only where the engine call for a plain
//! column differs from the one for a row spec.
//!
//! - **ISLA** runs the paper's pipeline through [`isla_core::engine`]
//!   as one plan: a plain column is a width-1 row spec
//!   ([`engine::RowSpec::column`]), so every ISLA query runs a
//!   [`RowPlan`] ([`engine::run_row_plan_with`]) behind a session cache
//!   of row pre-estimates keyed by `(table, column, config, query
//!   shape)`, and repeated queries — the heavy-traffic serving scenario
//!   — skip the pilots. The pilot rows estimate the predicate's
//!   selectivity and per-group σ̂/sketch, the rate is sized so *every
//!   group* meets the precision, and `SUM` is scaled by the matched rows
//!   the pilots and the calculation draws estimate together
//!   ([`engine::GroupedPartial::finalize`]). A query gives `WITH
//!   PRECISION e` or `SAMPLES n`, never both; so does a baseline.
//! - **Metadata** answers a default query (no `METHOD` named) where it
//!   knows the answer exactly: an unfiltered `AVG`/`SUM` from the block
//!   sketches ([`isla_core::sketched_mean`], before any plan or cache
//!   entry); under a filter or a `GROUP BY`, every block the zone map
//!   decides — from its sketch, or its per-key sketches when grouped —
//!   while a precision-sized `AVG`/`SUM` samples only the undecided rest
//!   (the residue) and scales its `SUM` by the decided blocks' exact row
//!   counts plus the residue's estimated ones; a query whose every
//!   block is decided draws nothing (`AVG`/`SUM`, and a grouped
//!   `COUNT(*)` with no precision, budget or deadline); and an
//!   ungrouped `COUNT(*) WHERE …` with none of them by counting the
//!   compiled selection.
//! - **Every other filtered `COUNT(*)`** is estimated from the hit rate
//!   of uniform row draws ([`engine::hit_rate_pilot`]), which also
//!   scales a baseline's filtered `SUM`.
//! - **Baselines and sampled `MAX`/`MIN`** draw from the column, or from
//!   one pooled filtered column ([`PooledFilteredColumn`]) under a
//!   predicate; `METHOD EXACT` folds the matching rows block by block on
//!   the session's scheduler ([`engine::exact`]), reading only the
//!   columns the query names.
//!
//! Every filtered path reads a block only where its zone map leaves the
//! predicate undecided. A sum that overflows `f64` — in the sketches, a
//! pilot's σ̂ or an exact scan — is a typed error, never a non-finite
//! answer.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::RngCore;

use isla_baselines::{
    Estimator, MeasureBiasedBoundaries, MeasureBiasedValues, Slev, StratifiedSampling,
    UniformSampling,
};
use isla_core::engine::{
    self, BlockScheduler, CacheKey, CacheStats, DeadlineScheduler, Degradation, FailureMode,
    GroupExact, PooledScheduler, PreEstimateCache, RateSpec, RecoveryPolicy, RetryPolicy,
    RowCacheLookup, RowPlan, RowSpec, SequentialScheduler,
};
use isla_core::{sketched_mean, IslaConfig, IslaError};
use isla_stats::{required_sample_size, WelfordMoments};
use isla_storage::{
    sample_proportional, BlockSet, ColumnPredicate, PooledFilteredColumn, RowFilter,
};

use crate::ast::{AggFunc, Method, Query};
use crate::catalog::{Catalog, Table};
use crate::error::QueryError;

/// Default confidence when the query omits `CONFIDENCE` (the paper's
/// experimental default).
pub const DEFAULT_CONFIDENCE: f64 = 0.95;

/// Pilot rows behind an estimated `COUNT(*) WHERE …` when the query
/// gives no explicit `SAMPLES` budget.
const COUNT_PILOT_ROWS: u64 = 10_000;

/// Salt for the epoch-path pilot streams when the policy sets no
/// [`ExecPolicy::pilot_seed`]. The epoch fold *must* seed from identity
/// (lineage ⊕ salt ⊕ segment), never from the query's RNG — a
/// delta-resumed fold has to replay the exact streams the cached
/// segments drew — so a fixed default stands in when the caller didn't
/// choose one.
const EPOCH_PILOT_SALT: u64 = 0x1517_AB1E_5EA1_ED01;

/// One group's row in a grouped query result.
#[derive(Debug, Clone)]
pub struct GroupRow {
    /// The group key value.
    pub key: f64,
    /// The group's aggregate value.
    pub value: f64,
    /// Estimated (or exact) rows behind the group.
    pub rows: f64,
}

/// The answer to a query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The aggregate value (for grouped queries: the all-groups
    /// combination — per-group answers are in
    /// [`QueryResult::groups`]).
    pub value: f64,
    /// Which aggregate was computed.
    pub agg: AggFunc,
    /// Which method produced it.
    pub method: Method,
    /// Row count of the queried table.
    pub rows: u64,
    /// Samples spent (None for exact/COUNT paths): the pilot draws of a
    /// pre-estimate cache miss plus the rows the calculation phase
    /// read. A filtered ISLA query does not read the blocks whose zone
    /// map proves no row can match, so this can be lower than the draws
    /// its rate planned.
    pub samples_used: Option<u64>,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// The precision the answer was computed for, when applicable.
    pub precision: Option<f64>,
    /// The confidence in effect.
    pub confidence: f64,
    /// True when a `WITHIN` clause forced a smaller sample than the
    /// precision target wanted.
    pub time_limited: bool,
    /// Per-group results (sorted by key) for `GROUP BY` queries.
    pub groups: Option<Vec<GroupRow>>,
    /// Estimated (or exact) rows matching the `WHERE` predicate, when
    /// one was given.
    pub matched_rows: Option<f64>,
    /// Present when a best-effort ISLA run dropped failed blocks: the
    /// failure accounting, surviving coverage, and widened half-width.
    /// `None` means the answer carries full coverage.
    pub degradation: Option<Degradation>,
}

/// Which block scheduler a session places per-block work on: the ISLA
/// calculation phase, the baselines' block reads, and the `METHOD
/// EXACT` scans.
///
/// Per-block seeds are derived identically either way
/// ([`engine::derive_block_seeds`]) and exact partials merge in block
/// order ([`engine::exact`]), so the pooled answer is bit-identical to
/// the sequential one — the choice is purely a resource-placement
/// policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Blocks execute in order on the calling thread (the default).
    #[default]
    Sequential,
    /// Blocks scatter over a worker pool of this many threads.
    Pooled(usize),
}

/// How a [`QuerySession`] executes queries: which scheduler places the
/// per-block work of every method (ISLA's calculation phase, baseline
/// block reads, exact scans), and — for the ISLA paths — an optional
/// per-query admission budget, an optional deterministic pilot seed and
/// the recovery policy.
///
/// The default policy reproduces the classic library behavior:
/// sequential execution, no admission cap, pilots drawn from the
/// query's own RNG.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecPolicy {
    scheduler: SchedulerKind,
    sample_budget: Option<u64>,
    pilot_seed: Option<u64>,
    recovery: RecoveryPolicy,
}

impl ExecPolicy {
    /// The default policy (sequential, uncapped, caller-seeded pilots).
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs per-block work — calculation phase, baseline reads, exact
    /// scans — on a worker pool of `workers` threads (values below 1
    /// are treated as 1).
    #[must_use]
    pub fn pooled(mut self, workers: usize) -> Self {
        self.scheduler = SchedulerKind::Pooled(workers.max(1));
        self
    }

    /// Caps every ISLA query at `budget` samples through the engine's
    /// deadline-admission hook (pilots a cache hit skipped are credited
    /// back, exactly as `WITHIN` budgets are). Queries the cap bites
    /// report `time_limited`.
    #[must_use]
    pub fn sample_budget(mut self, budget: u64) -> Self {
        self.sample_budget = Some(budget);
        self
    }

    /// Derives pilot RNG streams from `(cache key, salt)` instead of
    /// the query's own RNG. With this set, the cached pre-estimate is a
    /// pure function of the key — racing first computations are
    /// idempotent — and a query's answer no longer depends on whether
    /// its own RNG paid for the pilots (miss) or not (hit): the
    /// query stream reaches the calculation phase untouched either
    /// way. This is what makes a shared-cache serving layer
    /// bit-identical to sequential execution.
    #[must_use]
    pub fn pilot_seed(mut self, salt: u64) -> Self {
        self.pilot_seed = Some(salt);
        self
    }

    /// Switches the ISLA paths to best-effort failure handling: blocks
    /// that exhaust their retry budget are dropped, the answer
    /// finalizes over the survivors, and
    /// [`QueryResult::degradation`] reports the damage and the widened
    /// half-width. The default is strict — any block failure fails the
    /// query, byte-for-byte as it always has.
    #[must_use]
    pub fn best_effort(mut self) -> Self {
        self.recovery.mode = FailureMode::BestEffort;
        self
    }

    /// Sets the per-block retry budget (attempts and deterministic
    /// backoff) for transient storage failures on the ISLA paths. The
    /// backoff is slept between attempts of per-block jobs (the
    /// calculation phase) only: best-effort pilots retry a failed batch
    /// at once, up to the same number of attempts (see
    /// [`RetryPolicy`]).
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.recovery.retry = retry;
        self
    }

    /// The configured scheduler kind.
    pub fn scheduler(&self) -> SchedulerKind {
        self.scheduler
    }

    /// The recovery policy in effect on the ISLA paths.
    pub fn recovery(&self) -> RecoveryPolicy {
        self.recovery
    }
}

/// A query-serving session: executes queries while keeping a
/// pre-estimation cache across calls.
///
/// Repeated queries with the same `(table, column, config, shape)` skip
/// the pilot phase entirely — the cached σ̂/`sketch0` (per group, for
/// filtered/grouped queries) feed straight into the engine's plan.
/// Observe the effect through [`QuerySession::cache_stats`].
///
/// The cache is held through an [`Arc`], so sessions created with
/// [`QuerySession::shared`] can serve many clients from one pool of
/// amortized pilot work; [`ExecPolicy`] picks the scheduler, admission
/// budget, and pilot-seeding discipline.
#[derive(Debug, Default)]
pub struct QuerySession {
    pre_cache: Arc<PreEstimateCache>,
    policy: ExecPolicy,
}

impl QuerySession {
    /// Creates a session with an empty cache and the default policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a session with an empty cache and `policy`.
    pub fn with_policy(policy: ExecPolicy) -> Self {
        Self {
            pre_cache: Arc::new(PreEstimateCache::new()),
            policy,
        }
    }

    /// Creates a session over a shared pre-estimation cache — the
    /// serving construction: every session handed the same `Arc` serves
    /// hits from pilot work any of them paid for.
    pub fn shared(pre_cache: Arc<PreEstimateCache>, policy: ExecPolicy) -> Self {
        Self { pre_cache, policy }
    }

    /// The session's pre-estimation cache (shared handle).
    pub fn pre_cache(&self) -> &Arc<PreEstimateCache> {
        &self.pre_cache
    }

    /// Hit/miss counters of the pre-estimation cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.pre_cache.stats()
    }

    /// Invalidates **everything** cached for one table after its data
    /// changed in place: the pre-estimates (all columns, configs, and
    /// query shapes) *and*, when the catalog still holds the table, the
    /// derived caches living on its block sets — compiled selections
    /// and per-block sketches. One entry point, all three caches: the
    /// old per-cache invalidation dropped only the pre-estimates and
    /// left stale selection vectors and sketch zone maps behind.
    pub fn invalidate_table(&self, catalog: &Catalog, table: &str) {
        self.pre_cache.invalidate_table(table);
        if let Ok(t) = catalog.table(table) {
            t.invalidate_caches();
        }
    }

    /// Executes a parsed query against a catalog.
    ///
    /// # Errors
    ///
    /// Catalog resolution failures, invalid clause combinations, or
    /// engine errors — see [`QueryError`].
    pub fn execute(
        &self,
        query: &Query,
        catalog: &Catalog,
        rng: &mut dyn RngCore,
    ) -> Result<QueryResult, QueryError> {
        self.execute_table(query, catalog.table(&query.table)?, rng)
    }

    /// Executes a parsed query against an already-resolved table — the
    /// serving path, where the caller (e.g. a table registry) resolves
    /// `query.table` itself. The table must be the one the query names:
    /// cache keys are derived from `query.table`.
    ///
    /// # Errors
    ///
    /// As [`QuerySession::execute`], minus the table resolution.
    pub fn execute_table(
        &self,
        query: &Query,
        table: &Table,
        rng: &mut dyn RngCore,
    ) -> Result<QueryResult, QueryError> {
        let start = Instant::now();
        let spec = compile_row_spec(query, table)?;
        // A filtered or grouped query reads the table's rows; a plain one
        // its aggregated column alone (a plain COUNT(*) reads neither).
        let data = match (&spec, query.agg) {
            (Some(_), _) | (None, AggFunc::Count) => table.data(),
            (None, _) => {
                table
                    .column_set(&query.column)
                    .ok_or_else(|| QueryError::UnknownColumn {
                        table: query.table.clone(),
                        column: query.column.clone(),
                    })?
            }
        };
        let q = Bound {
            query,
            spec,
            data,
            rows: table.rows(),
            confidence: query.confidence.unwrap_or(DEFAULT_CONFIDENCE),
            start,
            pin: !query.method_named,
        };

        // The one decision of what answers: an arm per aggregate or
        // method, each branching only where the engine call for a plain
        // column differs from the one for a row spec.
        match (query.agg, query.method) {
            // MAX/MIN go through the extreme-value extension (paper
            // §VII-D): a leverage-guided sampled bound, or an exact scan
            // under `METHOD EXACT`.
            (AggFunc::Max | AggFunc::Min, _) => {
                let (value, samples_used) =
                    self.on_scheduler(None, |s| extreme_value(&q, s, rng))?;
                Ok(QueryResult {
                    samples_used,
                    ..q.answer(value)
                })
            }
            (AggFunc::Count, method) if q.spec.is_none() || method != Method::Exact => {
                self.count(&q, rng)
            }
            (_, Method::Exact) => finite_sums(match &q.spec {
                Some(spec) => {
                    let exact =
                        self.on_scheduler(None, |s| engine::scan_exact_groups_on(data, spec, s))?;
                    if exact.is_empty() {
                        return Err(no_matching_row());
                    }
                    q.exact(&exact)
                }
                None => {
                    let mean = self.on_scheduler(None, |s| engine::scan_exact_mean(data, s))?;
                    q.answer(scaled(query.agg, mean, q.rows as f64))
                }
            }),
            (_, Method::Isla) => self.run_isla(q, rng),
            (_, _) => self.run_baseline(&q, rng),
        }
    }

    /// `COUNT(*)` — every form but a filtered or grouped `METHOD EXACT`,
    /// which the exact arm scans. Unfiltered and ungrouped, it is the
    /// table's row count whatever the method. The default form, with no
    /// precision, budget or deadline to honour, is exact where metadata
    /// knows it: grouped, from the per-key block sketches; ungrouped, by
    /// counting the compiled selection. Both are cached across queries.
    /// Every other form is estimated from pilot row draws. The pilot
    /// *is* uniform row sampling, so only ISLA and US name this
    /// estimator truthfully; other methods have no counting analogue.
    fn count(&self, q: &Bound, rng: &mut dyn RngCore) -> Result<QueryResult, QueryError> {
        let (query, data) = (q.query, q.data);
        let Some(spec) = &q.spec else {
            return Ok(QueryResult {
                method: Method::Exact,
                precision: None,
                ..q.answer(q.rows as f64)
            });
        };
        if q.pin
            && query.precision.is_none()
            && query.samples.is_none()
            && query.within_ms.is_none()
        {
            if spec.group_by.is_some() {
                let pinned = engine::pinned_row_pre_estimate(data, &IslaConfig::default(), spec);
                if let Some(pre) = pinned {
                    let mut exact: Vec<GroupExact> = pre
                        .groups
                        .iter()
                        .map(|g| GroupExact {
                            key: g.key,
                            mean: g.sketch0,
                            count: g.pilot_matched,
                        })
                        .collect();
                    exact.sort_by(|a, b| a.key.total_cmp(&b.key));
                    return Ok(q.exact(&exact));
                }
            } else {
                let selection = data.selection_for(&spec.filter)?;
                // A block that cannot be scanned compiles no vector; its
                // matches are then unknown, and the estimate stands.
                if selection.is_complete() {
                    let matched = selection.total_matches() as f64;
                    return Ok(QueryResult {
                        method: Method::Exact,
                        matched_rows: Some(matched),
                        ..q.answer(matched)
                    });
                }
            }
        }
        if !matches!(query.method, Method::Isla | Method::Us) {
            return Err(QueryError::Invalid(format!(
                "COUNT(*) with a predicate supports METHOD ISLA, US, or EXACT, not {:?}",
                query.method
            )));
        }
        self.on_scheduler(None, |s| count_estimate(q, spec, s, rng))
    }

    /// ISLA, the paper's pipeline (Fig. 2): Pre-estimation, then
    /// Calculation, then Summarization, through one plan. A plain column
    /// is a width-1 row spec ([`RowSpec::column`]), so every query runs a
    /// [`RowPlan`] behind the row cache ([`engine::run_row_plan_with`]);
    /// one prelude decides what sizes the draw and prices a `WITHIN`
    /// deadline, and one epilogue ([`QuerySession::calculate`]) runs the
    /// plan. A default plain query the block sketches pin
    /// ([`sketched_mean`]) is answered before any of that: no plan, no
    /// cache entry, no draw.
    fn run_isla(&self, mut q: Bound, rng: &mut dyn RngCore) -> Result<QueryResult, QueryError> {
        let (query, data) = (q.query, q.data);
        let samples = match (query.precision, query.samples) {
            (Some(_), Some(_)) => {
                return Err(QueryError::Invalid(
                    "ISLA sizes its draw from WITH PRECISION e or from SAMPLES n, not both"
                        .to_string(),
                ))
            }
            (None, None) => {
                return Err(QueryError::Invalid(
                    "ISLA needs WITH PRECISION e, or SAMPLES n as an explicit budget".to_string(),
                ))
            }
            (_, samples) => samples,
        };
        // A default query lets metadata answer what it knows exactly — a
        // plain column's mean from the block sketches; under a row spec,
        // every block whose zone map decides the filter, from its sketch
        // or its per-key sketches — and samples only the rest. A named
        // `METHOD ISLA` keeps the paper's pilots and Algorithms 1–2 on
        // every block. `sample_groups` caches nothing and stays out of
        // the cache key.
        let spec = match q.spec.take() {
            Some(spec) => spec,
            None => {
                if q.pin && samples.is_none() {
                    if let Some(mean) = sketched_mean(data) {
                        return Ok(QueryResult {
                            samples_used: Some(0),
                            ..q.answer(scaled(query.agg, mean, q.rows as f64))
                        });
                    }
                }
                RowSpec::column(0)
            }
        };
        let mut config = isla_config(query, q.confidence)?;
        config.sample_groups = !q.pin;
        // A row spec whose every block is decided pins: it is decided
        // here, for the probe and the pre-estimate alike.
        let pin = match samples {
            None => engine::pinned_row_pre_estimate(data, &config, &spec),
            Some(_) => None,
        };

        // The deadline clock starts before any sampling (paper §VII-F);
        // the probe draws as the plan will — the spec's columns, zone
        // verdicts and predicate — so the calibrated per-sample cost is
        // what the pilots and the Calculation phase will pay. A query
        // metadata pins draws nothing, so its deadline has no draw to
        // price: the probe is skipped.
        let affordable = match pin {
            Some(_) => None,
            None => within_draws(query, data, rng, |n, rng| {
                engine::probe_row_draws(data, &spec, n, rng)
            })?,
        };

        // The deadline's and the policy's admission budgets cap an
        // explicit one before its pilots spend it (admission protects the
        // pool even from generous clients).
        let budget = samples.map(|n| {
            self.effective_budget(affordable, 0)
                .map_or(n, |cap| n.min(cap))
        });
        let recovery = &self.policy.recovery;
        let (pre, hit, rate) = match (budget, pin) {
            (Some(n), _) => {
                // Budget-driven: the pilots may spend at most half the
                // explicit budget (uncached — the budget, not the
                // config, sizes them) and the calculation phase spreads
                // whatever the pilots left, so the total draw honours
                // `SAMPLES n` instead of silently dwarfing it.
                let pre = engine::row_pre_estimate_with(
                    data,
                    &config,
                    &spec,
                    (n / 2).max(2),
                    recovery,
                    rng,
                )?;
                let rate = (n.saturating_sub(pre.pilot_rows) as f64 / q.rows as f64)
                    .clamp(f64::MIN_POSITIVE, 1.0);
                (pre, false, RateSpec::Absolute(rate))
            }
            (None, Some(pre)) => (pre, true, RateSpec::Derived),
            (None, None) => {
                // The pin was decided above, so the lookup is told not to
                // ask again; the plan's config still splits the blocks.
                let unpinned = IslaConfig {
                    sample_groups: true,
                    ..config.clone()
                };
                let key = CacheKey::new(&query.table, &query.column, &unpinned, data)
                    .with_row_shape(spec.fingerprint());
                let lookup = self.row_lookup(key, data, &unpinned, &spec, rng)?;
                (lookup.pre, lookup.hit, RateSpec::Derived)
            }
        };
        let plan = RowPlan::from_pre_estimate(data, &config, spec, pre, rate)?;
        let (out, paid) = self.calculate(affordable, plan.pilot_rows(), hit, |s| {
            engine::run_row_plan_with(&plan, data, s, recovery, rng)
        })?;
        let groups = out
            .groups
            .iter()
            .map(|g| GroupRow {
                key: g.key,
                value: scaled(query.agg, g.estimate, g.rows_estimate),
                rows: g.rows_estimate,
            })
            .collect();
        let value = scaled(query.agg, out.estimate, out.matched_rows);
        Ok(QueryResult {
            samples_used: Some(out.total_samples + paid),
            time_limited: out.time_limited || budget != samples,
            degradation: out.degradation,
            ..q.grouped(value, out.matched_rows, groups)
        })
    }

    /// The baselines: the estimator `METHOD` names over the column, or —
    /// under a predicate — over one pooled filtered population, where
    /// rejection runs across the whole set (a matchless block cannot
    /// fail the draw on range-partitioned data) and pooling removes the
    /// block-size weights that would bias stratified combination when
    /// per-block selectivity varies.
    fn run_baseline(&self, q: &Bound, rng: &mut dyn RngCore) -> Result<QueryResult, QueryError> {
        let query = q.query;
        if query.group_by.is_some() {
            return Err(QueryError::Invalid(format!(
                "GROUP BY needs METHOD ISLA or EXACT, not {:?}",
                query.method
            )));
        }
        if query.precision.is_some() && query.samples.is_some() {
            return Err(QueryError::Invalid(format!(
                "METHOD {:?} sizes its draw from WITH PRECISION e or from SAMPLES n, not both",
                query.method
            )));
        }
        let population = population(q.data, q.spec.as_ref())?;
        let budget = baseline_budget(q, &population, rng)?;
        let estimator: Box<dyn Estimator> = match query.method {
            Method::Us => Box::new(UniformSampling),
            Method::Sts => Box::new(StratifiedSampling::proportional()),
            Method::Mv => Box::new(MeasureBiasedValues),
            // MVB only uses the boundary parameters (p1, p2) and
            // budget-driven pilots; precision is not required.
            Method::Mvb => {
                let config = isla_config(query, q.confidence)?;
                Box::new(MeasureBiasedBoundaries::new(config)?)
            }
            Method::Slev => Box::new(Slev::default()),
            Method::Isla | Method::Exact => {
                return Err(QueryError::Internal(
                    "ISLA and EXACT have their own dispatch arms".to_string(),
                ))
            }
        };
        let avg = self.on_scheduler(None, |s| {
            estimator.estimate_scheduled(&population, budget, s, rng)
        })?;
        // SUM needs the population size; under a predicate it is
        // estimated from the hit rate of a row pilot.
        let (rows, matched_rows, samples) = match (&q.spec, query.agg) {
            (Some(spec), AggFunc::Sum) => {
                let pilot = COUNT_PILOT_ROWS.min(q.rows).max(1);
                let (drawn, counts) = engine::hit_rate_pilot(q.data, spec, pilot, rng)?;
                let matched = q.rows as f64 * counts.values().sum::<u64>() as f64 / drawn as f64;
                (matched, Some(matched), budget + drawn)
            }
            _ => (q.rows as f64, None, budget),
        };
        Ok(QueryResult {
            samples_used: Some(samples),
            matched_rows,
            ..q.answer(scaled(query.agg, avg, rows))
        })
    }

    /// The epilogue every ISLA plan shares: runs `calc` on the policy's
    /// scheduler under the admission cap, crediting back the `pilots` a
    /// cache `hit` skipped (never drawn this query), and returns its
    /// answer with the pilot draws this query paid for.
    fn calculate<T>(
        &self,
        affordable: Option<u64>,
        pilots: u64,
        hit: bool,
        calc: impl FnOnce(&dyn BlockScheduler) -> Result<T, IslaError>,
    ) -> Result<(T, u64), QueryError> {
        let (undrawn, paid) = if hit { (pilots, 0) } else { (0, pilots) };
        let out = self.on_scheduler(self.effective_budget(affordable, undrawn), calc)?;
        Ok((out, paid))
    }

    /// Row pre-estimate lookup honouring the pilot-seeding policy.
    ///
    /// Grown sets route through the epoch layer: the pilots fold per
    /// sealed segment (seeded purely from the key's lineage), so a
    /// query after ingest resumes the cached fold over only the new
    /// blocks instead of re-piloting the whole set. Epoch-0 sets keep
    /// the exact-key path: with a pilot seed, the pilots draw from a
    /// stream derived from `(key, salt)` — never from the query's RNG —
    /// so a hit and a miss leave the query stream in the identical
    /// state.
    fn row_lookup(
        &self,
        key: CacheKey,
        data: &BlockSet,
        config: &IslaConfig,
        spec: &RowSpec,
        rng: &mut dyn RngCore,
    ) -> Result<RowCacheLookup, QueryError> {
        let cache = &self.pre_cache;
        let recovery = &self.policy.recovery;
        let found = if data.epoch() > 0 {
            let salt = self.policy.pilot_seed.unwrap_or(EPOCH_PILOT_SALT);
            cache.get_or_compute_rows_epoch(key, data, config, spec, salt)
        } else if let Some(salt) = self.policy.pilot_seed {
            let mut pilot_rng = engine::seeded_rng(engine::stream_seed(key.digest(), salt));
            cache.get_or_compute_rows_with(key, data, config, spec, recovery, &mut pilot_rng)
        } else {
            cache.get_or_compute_rows_with(key, data, config, spec, recovery, rng)
        };
        found.map_err(QueryError::from)
    }

    /// The tightest applicable sample cap: the `WITHIN` deadline's
    /// affordable budget, the policy's admission budget, or both
    /// (minimum) — plus `undrawn_pilots`. Admission compares the cap
    /// against the plan's samples *including* its recorded pilots; the
    /// ones a cache hit skipped were never drawn this query, so they
    /// are credited back: the cache makes the query cheaper, not more
    /// likely to be capped.
    fn effective_budget(&self, affordable: Option<u64>, undrawn_pilots: u64) -> Option<u64> {
        let cap = match (affordable, self.policy.sample_budget) {
            (None, None) => return None,
            (a, b) => a.unwrap_or(u64::MAX).min(b.unwrap_or(u64::MAX)),
        };
        Some(cap.saturating_add(undrawn_pilots))
    }

    /// Runs `run` on the policy's scheduler, under a sample budget when
    /// a cap applies — the one placement rule for every method's
    /// per-block work.
    fn on_scheduler<T, E>(
        &self,
        budget: Option<u64>,
        run: impl FnOnce(&dyn BlockScheduler) -> Result<T, E>,
    ) -> Result<T, QueryError>
    where
        QueryError: From<E>,
    {
        let pool;
        let placed: &dyn BlockScheduler = match self.policy.scheduler {
            SchedulerKind::Sequential => &SequentialScheduler,
            SchedulerKind::Pooled(workers) => {
                pool = PooledScheduler::new(workers)?;
                &pool
            }
        };
        let out = match budget {
            Some(budget) => run(&DeadlineScheduler::new(placed, budget)),
            None => run(placed),
        };
        out.map_err(QueryError::from)
    }
}

/// A query bound to the table it reads: what every dispatch arm shares.
struct Bound<'a> {
    query: &'a Query,
    /// The compiled `WHERE` / `GROUP BY`; `None` for a plain query.
    spec: Option<RowSpec>,
    /// The table's rows under a spec, else the aggregated column.
    data: &'a BlockSet,
    /// Row count of the table.
    rows: u64,
    confidence: f64,
    start: Instant,
    /// No `METHOD` named: metadata may answer where it knows the answer
    /// exactly. A named method always runs its estimator.
    pin: bool,
}

impl Bound<'_> {
    /// An answer of `value` with nothing optional set: the query's own
    /// aggregate, method and precision, no samples, no groups, full
    /// coverage. Arms fill in what they have; `elapsed` is read here, so
    /// build the result last.
    fn answer(&self, value: f64) -> QueryResult {
        QueryResult {
            value,
            agg: self.query.agg,
            method: self.query.method,
            rows: self.rows,
            samples_used: None,
            elapsed: self.start.elapsed(),
            precision: self.query.precision,
            confidence: self.confidence,
            time_limited: false,
            groups: None,
            matched_rows: None,
            degradation: None,
        }
    }

    /// A row-model answer: the per-group rows when the query groups, the
    /// rows matching its `WHERE` when it filters.
    fn grouped(&self, value: f64, matched: f64, groups: Vec<GroupRow>) -> QueryResult {
        QueryResult {
            groups: self.query.group_by.is_some().then_some(groups),
            matched_rows: (!self.query.predicates.is_empty()).then_some(matched),
            ..self.answer(value)
        }
    }

    /// Exact ground truth for a row-model query, shaped from one full
    /// row scan's per-group results (or the per-key sketches' exact
    /// counts). Also where an estimated `COUNT(*)` lands when its
    /// precision asks for more draws than a scan costs — there an empty
    /// scan is the answer 0, so rejecting one (an `AVG` of nothing) is
    /// `METHOD EXACT`'s own check, made before the call.
    fn exact(&self, exact: &[GroupExact]) -> QueryResult {
        let agg = self.query.agg;
        let matched: u64 = exact.iter().map(|g| g.count).sum();
        let groups: Vec<GroupRow> = exact
            .iter()
            .map(|g| GroupRow {
                key: g.key,
                value: scaled(agg, g.mean, g.count as f64),
                rows: g.count as f64,
            })
            .collect();
        let value = match agg {
            AggFunc::Avg => {
                exact.iter().map(|g| g.mean * g.count as f64).sum::<f64>() / matched as f64
            }
            AggFunc::Count => matched as f64,
            // SUM; MAX/MIN never reach a grouped scan.
            _ => groups.iter().map(|g| g.value).sum(),
        };
        QueryResult {
            method: Method::Exact,
            ..self.grouped(value, matched as f64, groups)
        }
    }
}

/// `avg`, a mean over `rows` rows, as the answer `agg` asks for: a `SUM`
/// is `avg × rows`, a `COUNT` the rows themselves.
fn scaled(agg: AggFunc, avg: f64, rows: f64) -> f64 {
    match agg {
        AggFunc::Sum => avg * rows,
        AggFunc::Count => rows,
        _ => avg,
    }
}

/// Compiles a query's `WHERE` / `GROUP BY` against the table schema into
/// an [`engine::RowSpec`]; `None` when the query is plain scalar.
fn compile_row_spec(query: &Query, table: &Table) -> Result<Option<RowSpec>, QueryError> {
    if query.predicates.is_empty() && query.group_by.is_none() {
        return Ok(None);
    }
    let resolve = |name: &str| -> Result<usize, QueryError> {
        table
            .column_index(name)
            .ok_or_else(|| QueryError::UnknownColumn {
                table: query.table.clone(),
                column: name.to_string(),
            })
    };
    // COUNT(*) aggregates no column; any in-bounds position works.
    let agg_column = if query.column.is_empty() {
        0
    } else {
        resolve(&query.column)?
    };
    let predicates = query
        .predicates
        .iter()
        .map(|p| {
            Ok(ColumnPredicate {
                column: resolve(&p.column)?,
                op: p.op,
                value: p.value,
            })
        })
        .collect::<Result<Vec<_>, QueryError>>()?;
    let group_by = match &query.group_by {
        Some(name) => Some(resolve(name)?),
        None => None,
    };
    Ok(Some(RowSpec {
        agg_column,
        filter: RowFilter::new(predicates),
        group_by,
    }))
}

/// `COUNT(*) WHERE …` (optionally grouped): estimated from pilot row
/// draws. An explicit `WITH PRECISION e` sizes the draw so the count's
/// confidence interval half-width is ≤ e (two-stage: a first pilot
/// estimates the hit rate, the second draws what `z²·M²·ŝ(1−ŝ)/e²`
/// still needs); a `WITHIN` deadline caps the total. An empty table
/// counts exactly 0, as a zero-match escalation to a scan would.
fn count_estimate(
    q: &Bound,
    spec: &RowSpec,
    scheduler: &dyn BlockScheduler,
    rng: &mut dyn RngCore,
) -> Result<QueryResult, QueryError> {
    let (query, data, rows) = (q.query, q.data, q.rows);
    if rows == 0 {
        return Ok(q.exact(&[]));
    }
    let mut pilot = query.samples.unwrap_or(COUNT_PILOT_ROWS).min(rows).max(1);
    let mut time_limited = false;
    // The probe is the pilot's own read: the count's columns, the zone
    // verdicts, the predicate.
    let affordable = within_draws(query, data, rng, |n, rng| {
        engine::hit_rate_pilot(data, spec, n, rng).map(drop)
    })?;
    if let Some(affordable) = affordable {
        if affordable < pilot {
            pilot = affordable;
            time_limited = true;
        }
    }
    let (mut drawn, mut counts) = engine::hit_rate_pilot(data, spec, pilot, rng)?;
    if let Some(e) = query.precision {
        // Per raw draw, the count estimator adds M·Bernoulli(s):
        // σ = M·√(s(1−s)). Size the total draw from the stage-1 ŝ.
        let s = counts.values().sum::<u64>() as f64 / drawn as f64;
        let sigma = rows as f64 * (s * (1.0 - s)).sqrt();
        let mut want = if sigma > 0.0 {
            required_sample_size(sigma, e, q.confidence)
        } else {
            drawn
        };
        // With-replacement draws can never beat a full scan: when the
        // precision asks for at least M reads, an exact scan answers
        // with zero error at the same (or lower) cost.
        if want >= rows && !time_limited && data.iter().all(|b| b.supports_scan()) {
            return Ok(q.exact(&engine::scan_exact_groups_on(data, spec, scheduler)?));
        }
        want = want.min(rows);
        if let Some(affordable) = affordable {
            if affordable < want {
                want = affordable;
                time_limited = true;
            }
        }
        if want > drawn {
            let (extra_drawn, extra) = engine::hit_rate_pilot(data, spec, want - drawn, rng)?;
            drawn += extra_drawn;
            for (key, n) in extra {
                *counts.entry(key).or_insert(0) += n;
            }
        }
    }
    let matched: u64 = counts.values().sum();
    let scale = rows as f64 / drawn as f64;
    let mut groups: Vec<GroupRow> = counts
        .into_iter()
        .map(|(bits, n)| GroupRow {
            key: f64::from_bits(bits),
            value: n as f64 * scale,
            rows: n as f64 * scale,
        })
        .collect();
    groups.sort_by(|a, b| a.key.total_cmp(&b.key));
    let value = matched as f64 * scale;
    Ok(QueryResult {
        samples_used: Some(drawn),
        time_limited,
        ..q.grouped(value, value, groups)
    })
}

/// MAX/MIN over the aggregated column, or — under a spec — over the
/// rows matching its filter. `METHOD EXACT` folds the matching rows
/// block by block on `scheduler`; the sampled extreme draws from one
/// pooled filtered column.
fn extreme_value(
    q: &Bound,
    scheduler: &dyn BlockScheduler,
    rng: &mut dyn RngCore,
) -> Result<(f64, Option<u64>), QueryError> {
    let query = q.query;
    // The extreme path answers one value and sizes its own draws with
    // no deadline: a grouping, a budget or a time limit would be
    // silently ignored.
    let ignored = [
        (query.group_by.is_some(), "GROUP BY"),
        (query.samples.is_some(), "SAMPLES"),
        (query.within_ms.is_some(), "WITHIN"),
    ];
    if let Some((_, clause)) = ignored.iter().find(|(given, _)| *given) {
        return Err(QueryError::Invalid(format!(
            "{clause} is not supported for MAX/MIN"
        )));
    }
    let kind = if query.agg == AggFunc::Max {
        isla_core::ExtremeKind::Max
    } else {
        isla_core::ExtremeKind::Min
    };
    if query.method == Method::Exact {
        let extreme = match &q.spec {
            Some(spec) => engine::scan_exact_filtered_extreme(q.data, spec, kind, scheduler)?,
            None => engine::scan_exact_extreme(q.data, kind, scheduler)?,
        };
        return Ok((extreme.ok_or_else(no_matching_row)?, None));
    }
    let population = population(q.data, q.spec.as_ref())?;
    let config = isla_config(query, q.confidence)?;
    let result = isla_core::ExtremeAggregator::new(config)?.aggregate(&population, kind, rng)?;
    Ok((result.estimate, Some(result.total_samples)))
}

/// An exact answer, unless a sum behind it — the answer's or a group's
/// — overflowed `f64`: then there is no exact value to report.
fn finite_sums(result: QueryResult) -> Result<QueryResult, QueryError> {
    let groups = result.groups.iter().flatten();
    if result.value.is_finite() && groups.map(|g| g.value).all(f64::is_finite) {
        return Ok(result);
    }
    Err(IslaError::InsufficientData(
        "the exact sum is not finite: the data overflows f64".to_string(),
    )
    .into())
}

/// The error every filtered path returns when no row matches.
fn no_matching_row() -> QueryError {
    QueryError::Invalid("no row matches the WHERE predicate".to_string())
}

/// What a baseline or a sampled extreme draws from: `data` itself, or —
/// under `spec` — column `spec.agg_column` of the rows matching
/// `spec.filter`, as one pooled block ([`no_matching_row`] when the
/// compiled selection proves there is none, before any draw).
fn population<'a>(
    data: &'a BlockSet,
    spec: Option<&RowSpec>,
) -> Result<Cow<'a, BlockSet>, QueryError> {
    let Some(spec) = spec else {
        return Ok(Cow::Borrowed(data));
    };
    let pooled = PooledFilteredColumn::build(data, spec.agg_column, spec.filter.clone());
    if pooled.match_count() == Some(0) {
        return Err(no_matching_row());
    }
    Ok(Cow::Owned(BlockSet::single(pooled)))
}

/// The draws a `WITHIN ms` clause affords ([`engine::affordable_draws`],
/// probed by `probe`), `None` without the clause.
///
/// # Errors
///
/// The calibration's errors; [`QueryError::Invalid`] when the deadline
/// affords no draw at all.
fn within_draws(
    query: &Query,
    data: &BlockSet,
    rng: &mut dyn RngCore,
    probe: impl FnOnce(u64, &mut dyn RngCore) -> Result<(), IslaError>,
) -> Result<Option<u64>, QueryError> {
    let Some(ms) = query.within_ms else {
        return Ok(None);
    };
    match engine::affordable_draws(Duration::from_millis(ms), data, rng, probe)? {
        0 => Err(QueryError::Invalid(format!(
            "time budget {ms} ms cannot cover any sampling"
        ))),
        draws => Ok(Some(draws)),
    }
}

/// Executes a parsed query with a fresh, uncached [`QuerySession`].
///
/// Serving paths that answer repeated queries should hold a
/// [`QuerySession`] instead, so the pre-estimation cache carries across
/// calls.
///
/// # Errors
///
/// As [`QuerySession::execute`].
pub fn execute(
    query: &Query,
    catalog: &Catalog,
    rng: &mut dyn RngCore,
) -> Result<QueryResult, QueryError> {
    QuerySession::new().execute(query, catalog, rng)
}

/// The ISLA configuration a query implies: its confidence, and its
/// precision when it gives one.
fn isla_config(query: &Query, confidence: f64) -> Result<IslaConfig, QueryError> {
    let builder = IslaConfig::builder().confidence(confidence);
    match query.precision {
        Some(e) => builder.precision(e),
        None => builder,
    }
    .build()
    .map_err(QueryError::from)
}

/// Sample budget for a baseline: explicit `SAMPLES n`, or derived from
/// the precision via Eq. 1 with a pilot σ estimate over `data`.
fn baseline_budget(q: &Bound, data: &BlockSet, rng: &mut dyn RngCore) -> Result<u64, QueryError> {
    if let Some(n) = q.query.samples {
        return Ok(n);
    }
    let precision = q.query.precision.ok_or_else(|| {
        QueryError::Invalid(format!(
            "METHOD {:?} needs SAMPLES n or WITH PRECISION e",
            q.query.method
        ))
    })?;
    if data.total_len() == 0 {
        return Err(IslaError::InsufficientData("block set holds no rows".to_string()).into());
    }
    let pilot_size = 1_000.min(data.total_len()).max(2);
    let pilot = sample_proportional(data, pilot_size, rng).map_err(IslaError::from)?;
    let moments: WelfordMoments = pilot.into_iter().collect();
    let sigma = moments.std_dev_sample().unwrap_or(0.0);
    if sigma == 0.0 {
        return Ok(1);
    }
    Ok(required_sample_size(sigma, precision, q.confidence).min(data.total_len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Table;
    use crate::parser::parse;
    use isla_datagen::normal_values;
    use isla_storage::{ColumnDef, RowsBlock, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let values = normal_values(100.0, 20.0, 300_000, 1);
        let doubled: Vec<f64> = values.iter().map(|v| v * 2.0).collect();
        c.register(
            "trips",
            Table::new(vec![
                ("distance", BlockSet::from_values(values, 10)),
                ("fare", BlockSet::from_values(doubled, 10)),
            ]),
        );
        // A schema-first multi-column table with a categorical region
        // and a margin *correlated* with (not determined by) the amount,
        // so predicates on margin tilt the amount distribution without
        // hard-truncating it.
        let n = 200_000usize;
        let x = normal_values(50.0, 10.0, n, 2);
        let noise = normal_values(0.0, 5.0, n, 3);
        let region: Vec<f64> = (0..n).map(|i| f64::from(u32::from(i % 3 == 0))).collect();
        let y: Vec<f64> = x.iter().zip(&noise).map(|(v, e)| 0.5 * v + e).collect();
        c.register(
            "sales",
            Table::from_rows(
                Schema::new(vec![
                    ColumnDef::float("amount"),
                    ColumnDef::float("margin"),
                    ColumnDef::categorical("store"),
                ]),
                RowsBlock::split(vec![x, y, region], 8),
            ),
        );
        c
    }

    fn run(sql: &str, seed: u64) -> Result<QueryResult, QueryError> {
        let query = parse(sql).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        execute(&query, &catalog(), &mut rng)
    }

    #[test]
    fn avg_with_precision_via_isla() {
        let r = run(
            "SELECT AVG(distance) FROM trips WITH PRECISION 0.5 METHOD ISLA",
            2,
        )
        .unwrap();
        assert!((r.value - 100.0).abs() < 1.0, "value {}", r.value);
        assert_eq!(r.method, Method::Isla);
        assert_eq!(r.rows, 300_000);
        assert!(r.samples_used.unwrap() > 0);
        assert!(!r.time_limited);
        assert_eq!(r.precision, Some(0.5));
        assert_eq!(r.confidence, DEFAULT_CONFIDENCE);
        assert!(r.groups.is_none());
        assert!(r.matched_rows.is_none());
    }

    #[test]
    fn sum_is_avg_times_rows() {
        let r = run("SELECT SUM(distance) FROM trips WITH PRECISION 0.5", 3).unwrap();
        assert!((r.value / 300_000.0 - 100.0).abs() < 1.0);
        assert_eq!(r.agg, AggFunc::Sum);
    }

    #[test]
    fn count_star_is_exact() {
        let r = run("SELECT COUNT(*) FROM trips", 4).unwrap();
        assert_eq!(r.value, 300_000.0);
        assert_eq!(r.method, Method::Exact);
        assert!(r.samples_used.is_none());
    }

    #[test]
    fn exact_method_scans() {
        let r = run("SELECT AVG(distance) FROM trips METHOD EXACT", 5).unwrap();
        // Full-scan truth of this seed's data.
        assert!((r.value - 100.0).abs() < 0.2);
        assert!(r.samples_used.is_none());
    }

    #[test]
    fn baselines_with_explicit_budget() {
        for (method, sql) in [
            (
                Method::Us,
                "SELECT AVG(distance) FROM trips METHOD US SAMPLES 30000",
            ),
            (
                Method::Sts,
                "SELECT AVG(distance) FROM trips METHOD STS SAMPLES 30000",
            ),
            (
                Method::Mv,
                "SELECT AVG(distance) FROM trips METHOD MV SAMPLES 30000",
            ),
        ] {
            let r = run(sql, 6).unwrap();
            assert_eq!(r.method, method);
            assert_eq!(r.samples_used, Some(30_000));
            // MV is biased high by σ²/µ = 4; others are unbiased.
            let tolerance = if method == Method::Mv { 6.0 } else { 1.0 };
            assert!(
                (r.value - 100.0).abs() < tolerance,
                "{method:?} value {}",
                r.value
            );
        }
    }

    #[test]
    fn baseline_budget_derived_from_precision() {
        let r = run(
            "SELECT AVG(distance) FROM trips METHOD US WITH PRECISION 0.5",
            7,
        )
        .unwrap();
        // m ≈ (1.96·20/0.5)² ≈ 6147.
        let used = r.samples_used.unwrap();
        assert!((5_000..8_000).contains(&used), "budget {used}");
        assert!((r.value - 100.0).abs() < 1.5);
    }

    #[test]
    fn different_columns_resolve_independently() {
        let d = run("SELECT AVG(distance) FROM trips WITH PRECISION 0.5", 8).unwrap();
        let f = run("SELECT AVG(fare) FROM trips WITH PRECISION 1.0", 8).unwrap();
        assert!((f.value / d.value - 2.0).abs() < 0.05);
    }

    #[test]
    fn missing_table_column_and_clauses_error() {
        assert!(matches!(
            run("SELECT AVG(x) FROM nope WITH PRECISION 0.5", 9),
            Err(QueryError::UnknownTable(_))
        ));
        assert!(matches!(
            run("SELECT AVG(nope) FROM trips WITH PRECISION 0.5", 10),
            Err(QueryError::UnknownColumn { .. })
        ));
        assert!(matches!(
            run("SELECT AVG(distance) FROM trips", 11),
            Err(QueryError::Invalid(_))
        ));
        assert!(matches!(
            run("SELECT AVG(distance) FROM trips METHOD US", 12),
            Err(QueryError::Invalid(_))
        ));
        // Predicate and grouping columns resolve against the schema too.
        assert!(matches!(
            run(
                "SELECT AVG(distance) FROM trips WHERE nope > 1 WITH PRECISION 0.5",
                13
            ),
            Err(QueryError::UnknownColumn { .. })
        ));
        assert!(matches!(
            run(
                "SELECT AVG(distance) FROM trips GROUP BY nope WITH PRECISION 0.5",
                14
            ),
            Err(QueryError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn isla_with_explicit_budget_only() {
        let r = run(
            "SELECT AVG(distance) FROM trips METHOD ISLA SAMPLES 80000",
            13,
        )
        .unwrap();
        assert!((r.value - 100.0).abs() < 1.0, "value {}", r.value);
        // Each block's draw is rounded from one rate: the budget, up to
        // half a draw a block.
        let used = r.samples_used.unwrap();
        assert!(used.abs_diff(80_000) <= 5, "drew {used} of 80000");
    }

    #[test]
    fn max_and_min_via_the_extremes_extension() {
        let exact_max = run("SELECT MAX(distance) FROM trips METHOD EXACT", 15).unwrap();
        let approx_max = run("SELECT MAX(distance) FROM trips WITH PRECISION 0.5", 15).unwrap();
        assert!(
            approx_max.value <= exact_max.value,
            "sampled max is a lower bound"
        );
        // The sample max sits near the Φ⁻¹(1−1/m) quantile; with m ≈ 2%
        // of M the expected gap to the true max is ≈ 1σ (20) here.
        assert!(
            exact_max.value - approx_max.value < 35.0,
            "sampled max {} too far below exact {}",
            approx_max.value,
            exact_max.value
        );
        assert!(approx_max.samples_used.unwrap() > 0);

        let exact_min = run("SELECT MIN(distance) FROM trips METHOD EXACT", 16).unwrap();
        let approx_min = run("SELECT MIN(distance) FROM trips", 16).unwrap();
        assert!(
            approx_min.value >= exact_min.value,
            "sampled min is an upper bound"
        );
    }

    #[test]
    fn time_constrained_execution_reports_limiting() {
        // A generous budget should not limit; the flag stays false.
        let r = run(
            "SELECT AVG(distance) FROM trips WITH PRECISION 1.0 WITHIN 60000 MS",
            14,
        )
        .unwrap();
        assert!(!r.time_limited);
        assert!((r.value - 100.0).abs() < 2.0);
    }

    #[test]
    fn an_explicit_budget_still_honours_its_deadline() {
        // Regression: `SAMPLES n WITHIN t` on the scalar path returned
        // before the deadline was priced, so it drew all n and never
        // reported the limit. The probe now runs first and the draws are
        // capped at what the deadline affords (far under 50 M in 20 ms).
        let requested = 50_000_000;
        let r = run(
            &format!(
                "SELECT AVG(distance) FROM trips METHOD ISLA SAMPLES {requested} WITHIN 20 MS"
            ),
            17,
        )
        .unwrap();
        assert!(r.time_limited, "the deadline must cap the budget");
        assert!(r.samples_used.unwrap() < requested, "{:?}", r.samples_used);
        assert!((r.value - 100.0).abs() < 2.0, "value {}", r.value);
    }

    #[test]
    fn filtered_avg_tracks_the_exact_filtered_population() {
        let exact = run(
            "SELECT AVG(amount) FROM sales WHERE margin > 25 METHOD EXACT",
            20,
        )
        .unwrap();
        let approx = run(
            "SELECT AVG(amount) FROM sales WHERE margin > 25 WITH PRECISION 0.5",
            21,
        )
        .unwrap();
        // margin ≈ 0.5·amount + noise: the filter tilts the amount
        // distribution upward, so the filtered mean sits above the
        // population mean of 50.
        assert!(exact.value > 52.0, "exact filtered mean {}", exact.value);
        assert!(
            (approx.value - exact.value).abs() <= 0.5,
            "approx {} vs exact {}",
            approx.value,
            exact.value
        );
        let exact_matched = exact.matched_rows.unwrap();
        let approx_matched = approx.matched_rows.unwrap();
        assert!(
            (approx_matched - exact_matched).abs() / exact_matched < 0.1,
            "matched {} vs exact {}",
            approx_matched,
            exact_matched
        );
    }

    #[test]
    fn grouped_query_returns_per_group_rows() {
        let exact = run(
            "SELECT AVG(amount) FROM sales GROUP BY store METHOD EXACT",
            22,
        )
        .unwrap();
        let approx = run(
            "SELECT AVG(amount) FROM sales GROUP BY store WITH PRECISION 0.5",
            23,
        )
        .unwrap();
        let eg = exact.groups.as_ref().unwrap();
        let ag = approx.groups.as_ref().unwrap();
        assert_eq!(eg.len(), 2);
        assert_eq!(ag.len(), 2);
        for (e, a) in eg.iter().zip(ag) {
            assert_eq!(e.key, a.key);
            assert!(
                (e.value - a.value).abs() <= 0.5,
                "group {}: approx {} vs exact {}",
                e.key,
                a.value,
                e.value
            );
        }
    }

    #[test]
    fn filtered_count_is_estimated_not_metadata() {
        let exact = run(
            "SELECT COUNT(*) FROM sales WHERE amount > 50 METHOD EXACT",
            24,
        )
        .unwrap();
        // The default ungrouped count is the compiled selection's.
        let default = run("SELECT COUNT(*) FROM sales WHERE amount > 50", 25).unwrap();
        assert_eq!(default.value, exact.value, "exact, not sampled");
        assert_eq!(default.method, Method::Exact);
        assert_eq!(default.matched_rows, Some(exact.value));
        assert!(default.samples_used.is_none());
        // A budget keeps the estimate.
        let approx = run(
            "SELECT COUNT(*) FROM sales WHERE amount > 50 SAMPLES 10000",
            25,
        )
        .unwrap();
        assert!(approx.samples_used.is_some(), "estimated COUNT samples");
        assert!(exact.samples_used.is_none());
        assert!(
            (approx.value - exact.value).abs() / exact.value < 0.05,
            "count {} vs exact {}",
            approx.value,
            exact.value
        );
        // The estimate comes from draws, not metadata: it is not the
        // table row count.
        assert!(approx.value < 150_000.0);
    }

    #[test]
    fn filtered_sum_scales_by_matched_rows() {
        let exact = run(
            "SELECT SUM(amount) FROM sales WHERE margin > 25 METHOD EXACT",
            26,
        )
        .unwrap();
        let approx = run(
            "SELECT SUM(amount) FROM sales WHERE margin > 25 WITH PRECISION 0.5",
            27,
        )
        .unwrap();
        assert!(
            (approx.value - exact.value).abs() / exact.value < 0.03,
            "sum {} vs exact {}",
            approx.value,
            exact.value
        );
    }

    #[test]
    fn baselines_run_over_filtered_projections() {
        let exact = run(
            "SELECT AVG(amount) FROM sales WHERE amount > 50 METHOD EXACT",
            28,
        )
        .unwrap();
        let us = run(
            "SELECT AVG(amount) FROM sales WHERE amount > 50 METHOD US SAMPLES 20000",
            29,
        )
        .unwrap();
        assert!(
            (us.value - exact.value).abs() < 1.0,
            "US {} vs exact {}",
            us.value,
            exact.value
        );
        // Grouped baselines are rejected with a clear error.
        assert!(matches!(
            run(
                "SELECT AVG(amount) FROM sales GROUP BY store METHOD US SAMPLES 1000",
                30
            ),
            Err(QueryError::Invalid(_))
        ));
    }

    #[test]
    fn budget_driven_filtered_isla_honours_the_explicit_budget() {
        // SAMPLES n without a precision: pilots + calculation together
        // must stay near n, not silently dwarf it.
        let r = run(
            "SELECT AVG(amount) FROM sales WHERE margin > 25 METHOD ISLA SAMPLES 2000",
            34,
        )
        .unwrap();
        let used = r.samples_used.unwrap();
        assert!(
            used <= 2_200,
            "explicit budget of 2000 rows, but {used} were drawn"
        );
        assert!((r.value - 55.6).abs() < 3.0, "value {}", r.value);
    }

    #[test]
    fn filtered_count_with_precision_sizes_the_draw_from_it() {
        let exact = run(
            "SELECT COUNT(*) FROM sales WHERE amount > 50 METHOD EXACT",
            37,
        )
        .unwrap();
        // e = 500 rows on a 200k-row table at ~50% selectivity needs
        // far more than the default 10k pilot:
        // (1.96·200000·0.5/500)² ≈ 154k draws.
        let tight = run(
            "SELECT COUNT(*) FROM sales WHERE amount > 50 WITH PRECISION 500",
            38,
        )
        .unwrap();
        assert!(
            tight.samples_used.unwrap() > 100_000,
            "precision must size the draw, got {} samples",
            tight.samples_used.unwrap()
        );
        assert_eq!(tight.precision, Some(500.0));
        assert!(
            (tight.value - exact.value).abs() <= 500.0,
            "count {} vs exact {} beyond e = 500",
            tight.value,
            exact.value
        );
        // A loose precision needs fewer draws than the default pilot.
        let loose = run(
            "SELECT COUNT(*) FROM sales WHERE amount > 50 WITH PRECISION 50000",
            39,
        )
        .unwrap();
        assert!(loose.samples_used.unwrap() <= tight.samples_used.unwrap());
        assert!((loose.value - exact.value).abs() <= 50_000.0);
        // A precision that would demand more draws than the table has
        // rows falls back to an exact scan — with-replacement sampling
        // could never meet it, and the scan is cheaper anyway.
        let exact_fallback = run(
            "SELECT COUNT(*) FROM sales WHERE amount > 50 WITH PRECISION 10",
            40,
        )
        .unwrap();
        assert_eq!(exact_fallback.method, Method::Exact);
        assert!(exact_fallback.samples_used.is_none());
        assert_eq!(exact_fallback.value, exact.value);
    }

    #[test]
    fn estimated_count_rejects_methods_without_a_counting_analogue() {
        assert!(matches!(
            run(
                "SELECT COUNT(*) FROM sales WHERE amount > 50 METHOD SLEV",
                35
            ),
            Err(QueryError::Invalid(_))
        ));
        // US names the pilot estimator truthfully and is allowed.
        let r = run("SELECT COUNT(*) FROM sales WHERE amount > 50 METHOD US", 36).unwrap();
        assert_eq!(r.method, Method::Us);
        assert!((r.value - 100_000.0).abs() < 8_000.0, "count {}", r.value);
    }

    #[test]
    fn empty_tables_count_zero_and_refuse_the_rest_instead_of_panicking() {
        use isla_storage::DataBlock;
        let mut c = Catalog::new();
        c.register(
            "t",
            Table::from_rows(
                Schema::new(vec![
                    ColumnDef::float("x"),
                    ColumnDef::float("y"),
                    ColumnDef::categorical("g"),
                ]),
                BlockSet::new(vec![
                    Arc::new(RowsBlock::new(vec![Vec::new(); 3])) as Arc<dyn DataBlock>
                ]),
            ),
        );
        c.register(
            "s",
            Table::new(vec![(
                "x",
                BlockSet::new(vec![
                    Arc::new(RowsBlock::new(vec![Vec::new()])) as Arc<dyn DataBlock>
                ]),
            )]),
        );
        let run = |sql: &str| execute(&parse(sql).unwrap(), &c, &mut StdRng::seed_from_u64(1));

        // An empty table's filtered count is exactly 0, as a zero-match
        // escalation to a scan answers it.
        for sql in [
            "SELECT COUNT(*) FROM t WHERE x > 0",
            "SELECT COUNT(*) FROM t WHERE x > 0 WITH PRECISION 5",
        ] {
            let r = run(sql).unwrap();
            assert_eq!(r.value, 0.0, "{sql}");
            assert_eq!(r.method, Method::Exact, "{sql}");
            assert_eq!(r.matched_rows, Some(0.0), "{sql}");
            assert!(r.samples_used.is_none(), "{sql}");
        }
        // A deadline has no draw to time: a typed refusal.
        for sql in [
            "SELECT AVG(y) FROM t WHERE x > 0 WITH PRECISION 0.5 WITHIN 50 MS",
            "SELECT AVG(x) FROM s WITH PRECISION 0.5 WITHIN 50 MS",
        ] {
            assert!(
                matches!(
                    run(sql),
                    Err(QueryError::Engine(IslaError::InsufficientData(_)))
                ),
                "{sql}"
            );
        }
        // Every other form errors with a type, none panics.
        for sql in [
            "SELECT AVG(y) FROM t WHERE x > 0 WITHIN 50 MS",
            "SELECT AVG(y) FROM t WHERE x > 0 WITH PRECISION 0.5",
            "SELECT SUM(y) FROM t WHERE x > 0 METHOD US SAMPLES 100",
            "SELECT AVG(y) FROM t WHERE x > 0 METHOD US WITH PRECISION 0.5",
            "SELECT MAX(y) FROM t WHERE x > 0",
            "SELECT MAX(y) FROM t WHERE x > 0 METHOD EXACT",
            "SELECT AVG(x) FROM s METHOD US WITH PRECISION 0.5",
            "SELECT MIN(x) FROM s METHOD EXACT",
        ] {
            assert!(run(sql).is_err(), "{sql}");
        }
    }

    #[test]
    fn exact_filtered_extremes_compile_no_selection() {
        let c = catalog();
        let sales = c.table("sales").unwrap().data();
        // Unique literals, as an ad-hoc stream sends them: one more than
        // the selection cache holds.
        for i in 0..=isla_storage::selection::SELECTION_CACHE_CAP {
            let agg = if i % 2 == 0 { "MAX" } else { "MIN" };
            let sql = format!(
                "SELECT {agg}(amount) FROM sales WHERE margin > {} METHOD EXACT",
                20.0 + i as f64 / 16.0
            );
            let r = execute(&parse(&sql).unwrap(), &c, &mut StdRng::seed_from_u64(1)).unwrap();
            assert!(r.samples_used.is_none(), "{sql}");
        }
        assert_eq!(sales.selection_cache_len(), 0);
        assert_eq!(sales.selection_stats().builds, 0);
        // The sampled extreme still draws through a compiled selection.
        let sampled = parse("SELECT MAX(amount) FROM sales WHERE margin > 25 WITH PRECISION 0.5");
        execute(&sampled.unwrap(), &c, &mut StdRng::seed_from_u64(2)).unwrap();
        assert_eq!(sales.selection_cache_len(), 1);
    }

    #[test]
    fn filtered_max_respects_the_predicate() {
        let max_all = run("SELECT MAX(amount) FROM sales METHOD EXACT", 31).unwrap();
        let max_low = run(
            "SELECT MAX(amount) FROM sales WHERE amount < 40 METHOD EXACT",
            32,
        )
        .unwrap();
        assert!(max_low.value <= 40.0, "filtered max {}", max_low.value);
        assert!(max_all.value > max_low.value);
        assert!(matches!(
            run("SELECT MAX(amount) FROM sales GROUP BY store", 33),
            Err(QueryError::Invalid(_))
        ));
    }

    /// Runs each statement on one catalog and asserts the typed error
    /// `METHOD EXACT` gives a predicate nothing matches.
    fn assert_no_matching_row(statements: &[String]) {
        let c = catalog();
        for sql in statements {
            match execute(&parse(sql).unwrap(), &c, &mut StdRng::seed_from_u64(41)) {
                Err(QueryError::Invalid(msg)) => {
                    assert_eq!(msg, "no row matches the WHERE predicate", "{sql}")
                }
                other => panic!("{sql}: {other:?}"),
            }
        }
    }

    /// Zero-match predicates: one the zone maps prune on every block,
    /// one every block must scan to find nothing.
    const NOTHING_MATCHES: [&str; 2] = ["amount > 1000000", "store = 0.5"];

    #[test]
    fn sampled_extremes_fail_typed_when_nothing_matches() {
        let statements: Vec<String> = NOTHING_MATCHES
            .iter()
            .flat_map(|filter| {
                [
                    format!("SELECT MAX(amount) FROM sales WHERE {filter}"),
                    format!("SELECT MIN(margin) FROM sales WHERE {filter} WITH PRECISION 0.5"),
                    format!("SELECT MAX(amount) FROM sales WHERE {filter} METHOD EXACT"),
                ]
            })
            .collect();
        assert_no_matching_row(&statements);
    }

    #[test]
    fn filtered_baselines_fail_typed_when_nothing_matches() {
        let statements: Vec<String> = NOTHING_MATCHES
            .iter()
            .flat_map(|filter| {
                ["US", "STS", "MV", "MVB", "SLEV", "EXACT"].map(|method| {
                    format!(
                        "SELECT AVG(amount) FROM sales WHERE {filter} METHOD {method} SAMPLES 200"
                    )
                })
            })
            .collect();
        assert_no_matching_row(&statements);
    }

    #[test]
    fn extremes_reject_a_sample_budget_and_a_time_limit() {
        let c = catalog();
        for (sql, clause) in [
            (
                "SELECT MAX(amount) FROM sales WHERE margin > 26 SAMPLES 1",
                "SAMPLES",
            ),
            ("SELECT MIN(amount) FROM sales SAMPLES 100000", "SAMPLES"),
            (
                "SELECT MAX(amount) FROM sales METHOD EXACT SAMPLES 10",
                "SAMPLES",
            ),
            (
                "SELECT MAX(amount) FROM sales WHERE margin > 26 WITHIN 1 MS",
                "WITHIN",
            ),
            (
                "SELECT MIN(distance) FROM trips WITH PRECISION 0.5 WITHIN 50 MS",
                "WITHIN",
            ),
        ] {
            match execute(&parse(sql).unwrap(), &c, &mut StdRng::seed_from_u64(43)) {
                Err(QueryError::Invalid(msg)) => {
                    assert!(msg.starts_with(clause), "{sql}: {msg}")
                }
                other => panic!("{sql}: {other:?}"),
            }
        }
    }

    /// A catalog with one width-1 column `t.x` over `blocks`.
    fn one_column(blocks: BlockSet) -> Catalog {
        let mut c = Catalog::new();
        c.register("t", Table::new(vec![("x", blocks)]));
        c
    }

    fn run_on(c: &Catalog, session: &QuerySession, sql: &str, seed: u64) -> QueryResult {
        let mut rng = StdRng::seed_from_u64(seed);
        session.execute(&parse(sql).unwrap(), c, &mut rng).unwrap()
    }

    /// 1e7 + N(0, 1): large enough an offset that `Σa² − (Σa)²/n`
    /// cancels to a σ̂ of 0.74.
    fn offset_column() -> Catalog {
        let values = normal_values(1e7, 1.0, 200_000, 61);
        one_column(BlockSet::from_values(values, 8))
    }

    #[test]
    fn default_avg_on_a_large_offset_is_the_exact_mean() {
        let c = offset_column();
        let session = QuerySession::new();
        let exact = run_on(&c, &session, "SELECT AVG(x) FROM t METHOD EXACT", 1);
        let r = run_on(&c, &session, "SELECT AVG(x) FROM t WITH PRECISION 0.01", 2);
        assert!(
            (r.value - exact.value).abs() <= 1e-9 * exact.value.abs(),
            "{} vs exact {}",
            r.value,
            exact.value
        );
        assert_eq!(r.samples_used, Some(0));
        assert_eq!(r.method, Method::Isla);
    }

    #[test]
    fn named_isla_on_a_large_offset_sizes_from_the_pilot_sigma() {
        let c = offset_column();
        let session = QuerySession::new();
        let sql = "SELECT AVG(x) FROM t WITH PRECISION 0.05 METHOD ISLA";
        let r = run_on(&c, &session, sql, 3);
        assert!(
            r.samples_used.unwrap() > 1_000,
            "the pilots and Algorithm 1 ran"
        );
        // The cached pre-estimate sized Eq. 1: m = z²σ²/e² with σ = 1.
        let config = isla_config(&parse(sql).unwrap(), DEFAULT_CONFIDENCE).unwrap();
        let data = c.table("t").unwrap().column("x").unwrap();
        let spec = RowSpec::column(0);
        let lookup = session
            .pre_cache()
            .get_or_compute_rows_with(
                CacheKey::new("t", "x", &config, &data).with_row_shape(spec.fingerprint()),
                &data,
                &config,
                &spec,
                &RecoveryPolicy::strict(),
                &mut StdRng::seed_from_u64(0),
            )
            .unwrap();
        assert!(lookup.hit, "the query filed its pre-estimate");
        let want = 1.959_963_984_540_054_f64.powi(2) / (0.05 * 0.05);
        let got = lookup.pre.groups[0].required_samples as f64;
        assert!(
            (got - want).abs() <= 0.1 * want,
            "required {got} vs z²/e² = {want}"
        );
    }

    #[test]
    fn default_sum_is_the_sketch_total_and_constants_pin_to_their_value() {
        let values = normal_values(40.0, 9.0, 120_000, 62);
        let c = one_column(BlockSet::from_values(values.clone(), 6));
        let session = QuerySession::new();
        let r = run_on(&c, &session, "SELECT SUM(x) FROM t WITH PRECISION 0.5", 4);
        let total: f64 = values.iter().sum();
        assert!(
            (r.value - total).abs() <= 1e-12 * total.abs(),
            "SUM {} vs Σa {total}",
            r.value
        );
        assert_eq!(r.samples_used, Some(0));

        let c = one_column(BlockSet::from_values(vec![7.25; 9_000], 3));
        let r = run_on(&c, &session, "SELECT AVG(x) FROM t WITH PRECISION 0.1", 5);
        assert_eq!(r.value, 7.25);
        assert_eq!(r.samples_used, Some(0));
    }

    /// A block over one in-memory column that may hold non-finite values
    /// (which `RowsBlock` refuses), with a sketch hook that reports them.
    struct RawColumn(Vec<f64>);

    impl isla_storage::DataBlock for RawColumn {
        fn len(&self) -> u64 {
            self.0.len() as u64
        }

        fn gather(
            &self,
            _: &[usize],
            indices: &[u64],
            out: &mut [f64],
        ) -> Result<(), isla_storage::StorageError> {
            for (slot, &i) in out.iter_mut().zip(indices) {
                *slot = *self
                    .0
                    .get(i as usize)
                    .ok_or(isla_storage::StorageError::Empty)?;
            }
            Ok(())
        }

        fn scan_column_chunks(
            &self,
            _: &[usize],
            visit: &mut dyn FnMut(&[&[f64]]),
        ) -> Result<(), isla_storage::StorageError> {
            for chunk in self.0.chunks(isla_storage::SCAN_CHUNK_ROWS) {
                visit(&[chunk]);
            }
            Ok(())
        }

        fn sketch(&self) -> Option<Arc<isla_storage::BlockSketch>> {
            Some(Arc::new(isla_storage::BlockSketch::from_values(&self.0)))
        }
    }

    /// Where the sketches cannot pin the answer, the default query runs
    /// exactly what a named `METHOD ISLA` runs: the same pilots and
    /// Algorithms 1–2, bit for bit. Each runs on a fresh session: the
    /// two share one cache key, so a shared session would serve the
    /// second from the first's pilots.
    fn assert_default_samples_like_named_isla(c: &Catalog, policy: ExecPolicy, what: &str) {
        let run = |sql: &str| run_on(c, &QuerySession::with_policy(policy), sql, 6);
        let default = run("SELECT AVG(x) FROM t WITH PRECISION 0.5");
        let named = run("SELECT AVG(x) FROM t WITH PRECISION 0.5 METHOD ISLA");
        assert_eq!(default.value.to_bits(), named.value.to_bits(), "{what}");
        assert_eq!(default.samples_used, named.samples_used, "{what}");
        assert!(default.samples_used.unwrap() > 1_000, "{what}: sampled");
    }

    #[test]
    fn unsketched_non_finite_or_faulty_blocks_keep_sampling() {
        use isla_storage::{BinaryBlock, DataBlock, FaultPlan};
        let values = normal_values(100.0, 20.0, 40_000, 63);
        let native = BlockSet::from_values(values.clone(), 4);

        let dir = std::env::temp_dir().join(format!("isla-exec-bin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let files: Vec<Arc<dyn DataBlock>> = values
            .chunks(10_000)
            .enumerate()
            .map(|(i, chunk)| {
                let block = BinaryBlock::create(dir.join(format!("b{i}.blk")), chunk).unwrap();
                Arc::new(block) as Arc<dyn DataBlock>
            })
            .collect();
        let binary = one_column(BlockSet::new(files));
        assert_default_samples_like_named_isla(&binary, ExecPolicy::new(), "BinaryBlock");
        std::fs::remove_dir_all(&dir).unwrap();

        let mut poisoned: Vec<Arc<dyn DataBlock>> = native.iter().skip(1).cloned().collect();
        let mut first = values[..10_000].to_vec();
        first[17] = f64::INFINITY;
        poisoned.insert(0, Arc::new(RawColumn(first)));
        let poisoned = one_column(BlockSet::new(poisoned));
        let policy = ExecPolicy::new().best_effort();
        assert_default_samples_like_named_isla(&poisoned, policy, "non-finite block");

        let armed = one_column(FaultPlan::new(31).transient(0.6, 2).arm(&native));
        let policy = ExecPolicy::new()
            .best_effort()
            .retry(RetryPolicy::attempts(3));
        assert_default_samples_like_named_isla(&armed, policy, "armed FaultyBlock");
    }

    /// A row block that counts the zone verdicts asked of it: one per
    /// block each time a query decides its metadata pin.
    struct ZoneCounting(
        Arc<dyn isla_storage::DataBlock>,
        Arc<std::sync::atomic::AtomicUsize>,
    );

    impl isla_storage::DataBlock for ZoneCounting {
        fn len(&self) -> u64 {
            self.0.len()
        }

        fn width(&self) -> usize {
            self.0.width()
        }

        fn gather(
            &self,
            columns: &[usize],
            indices: &[u64],
            out: &mut [f64],
        ) -> Result<(), isla_storage::StorageError> {
            self.0.gather(columns, indices, out)
        }

        fn scan_column_chunks(
            &self,
            columns: &[usize],
            visit: &mut dyn FnMut(&[&[f64]]),
        ) -> Result<(), isla_storage::StorageError> {
            self.0.scan_column_chunks(columns, visit)
        }

        fn sketch(&self) -> Option<Arc<isla_storage::BlockSketch>> {
            self.0.sketch()
        }

        fn zone(&self, filter: &RowFilter) -> isla_storage::ZoneMatch {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.0.zone(filter)
        }
    }

    #[test]
    fn a_pinned_group_by_decides_its_pin_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let x = normal_values(50.0, 10.0, 40_000, 63);
        let g: Vec<f64> = (0..40_000).map(|i| (i % 4) as f64).collect();
        let rows = RowsBlock::split(vec![x, g], 5);
        let zones = Arc::new(AtomicUsize::new(0));
        let counted = (0..rows.block_count())
            .map(|b| {
                Arc::new(ZoneCounting(Arc::clone(rows.block(b)), Arc::clone(&zones)))
                    as Arc<dyn isla_storage::DataBlock>
            })
            .collect();
        let schema = Schema::new(vec![ColumnDef::float("x"), ColumnDef::categorical("g")]);
        let mut c = Catalog::new();
        c.register("t", Table::from_rows(schema, BlockSet::new(counted)));
        let session = QuerySession::new();
        for sql in [
            "SELECT AVG(x) FROM t GROUP BY g WITH PRECISION 0.5",
            "SELECT AVG(x) FROM t GROUP BY g WITH PRECISION 0.5 WITHIN 60000 MS",
        ] {
            zones.store(0, Ordering::Relaxed);
            let r = run_on(&c, &session, sql, 1);
            assert_eq!(r.samples_used, Some(0), "{sql}: pinned");
            assert_eq!(
                zones.load(Ordering::Relaxed),
                5,
                "{sql}: one verdict a block"
            );
        }
        assert_eq!(session.cache_stats().lookups(), 0);
    }
}
