//! Multi-tenant serving layer: one long-lived [`QueryService`] running
//! many concurrent client sessions over shared caches.
//!
//! The paper's interface is a single interactive session; a deployment
//! serves *many* — dashboards, tenants, ad-hoc explorers — against the
//! same tables. The service owns:
//!
//! * a **table registry** (a [`Catalog`] behind an `RwLock`) so tables
//!   can be registered and invalidated while queries run;
//! * one **shared [`QuerySession`]**: every client hits the same
//!   pre-estimation cache, so pilot work any tenant paid for serves
//!   every tenant's repeats, and the per-`BlockSet` selection/sketch
//!   caches are reached through the registry's tables;
//! * an **admission gate** ([`AdmissionGate`]): a bounded number of
//!   queries execute at once, a bounded queue waits, and everything
//!   beyond that is *rejected* with the typed
//!   [`QueryError::Overloaded`] instead of wedging the process. Waiters
//!   are granted **round-robin across tenants**, so one chatty tenant
//!   cannot starve the rest;
//! * a per-query **sample budget** wired through the engine's
//!   deadline-admission hook ([`ExecPolicy::sample_budget`]).
//!
//! Determinism is preserved end to end: the service seeds pilot RNG
//! streams from the cache key ([`ExecPolicy::pilot_seed`]) and every
//! query runs from a caller-supplied seed, so a query's answer is
//! bit-identical whether it ran alone, raced seven other threads, or
//! hit a cache another tenant warmed.
//!
//! ```no_run
//! use isla_query::{QueryService, ServiceConfig, Table};
//! use isla_storage::BlockSet;
//!
//! let service = QueryService::new(ServiceConfig::default());
//! service.register_table(
//!     "trips",
//!     Table::new(vec![("distance", BlockSet::from_values(vec![1.0, 2.0], 1))]),
//! );
//! let client = service.client("dashboard");
//! let result = client
//!     .query("SELECT AVG(distance) FROM trips WITH PRECISION 0.5", 42)
//!     .unwrap();
//! println!("{}", result.value);
//! ```

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};

use isla_core::engine::{self, CacheStats, EpochCacheStats, PreEstimateCache, RecoveryPolicy};
use isla_storage::{
    IngestBuffer, SealedRows, SelectionCacheStats, SketchCacheStats, DEFAULT_ROWS_PER_BLOCK,
};
use rand::RngCore;

use crate::ast::Query;
use crate::catalog::{Catalog, SealedIngest, Table};
use crate::error::QueryError;
use crate::executor::{ExecPolicy, QueryResult, QuerySession};
use crate::parser::parse;

/// Sizing and policy knobs for a [`QueryService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Total worker threads the service may occupy. Divided evenly
    /// across the concurrent-query slots: each admitted query runs on a
    /// pool of `workers / max_concurrent` threads (sequential when that
    /// quotient is 1).
    pub workers: usize,
    /// How many queries may execute at once (the slot count).
    pub max_concurrent: usize,
    /// How many queries may *wait* for a slot before further arrivals
    /// are rejected with [`QueryError::Overloaded`].
    pub queue_depth: usize,
    /// Optional per-query sample cap, enforced through the engine's
    /// deadline-admission hook. Queries it bites report `time_limited`.
    pub sample_budget: Option<u64>,
    /// Salt for key-derived pilot RNG streams (see
    /// [`ExecPolicy::pilot_seed`]). Any constant works; services that
    /// must agree on cached values byte-for-byte should share it.
    pub pilot_seed: u64,
    /// Rows per sealed block on the ingest path: appended rows buffer
    /// until this many accumulate, then seal into one immutable block
    /// (the unit of incrementality) and merge into the table's cached
    /// sampling state.
    pub ingest_rows_per_block: usize,
    /// How queries respond to block failures. The default is
    /// [`RecoveryPolicy::strict`] — one attempt, any failure fails the
    /// query, byte-for-byte the historical behaviour. A best-effort
    /// policy retries transient faults and degrades over survivors with
    /// a widened confidence interval
    /// (see [`isla_core::engine::Degradation`]); such completions are
    /// counted in [`ServiceStats::degraded`] and per tenant. The retry
    /// backoff is slept between attempts of per-block jobs (the
    /// calculation phase) only; best-effort pilots retry a failed batch
    /// at once (see [`isla_core::engine::RetryPolicy`]).
    pub recovery: RecoveryPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
        Self {
            workers,
            max_concurrent: workers.clamp(1, 8),
            queue_depth: 64,
            sample_budget: None,
            pilot_seed: 0x151A_5EED,
            ingest_rows_per_block: DEFAULT_ROWS_PER_BLOCK,
            recovery: RecoveryPolicy::strict(),
        }
    }
}

/// A point-in-time snapshot of the service's admission counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries that passed admission (fast path or granted from the queue).
    pub admitted: u64,
    /// Queries rejected with [`QueryError::Overloaded`].
    pub rejected: u64,
    /// Admitted queries that returned `Ok`.
    pub completed: u64,
    /// Admitted queries that returned an execution error.
    pub failed: u64,
    /// Completed queries that dropped at least one block and answered
    /// best-effort over the survivors (their [`QueryResult`] carries a
    /// `degradation` report). Always a subset of `completed`.
    pub degraded: u64,
    /// Queries executing right now.
    pub in_flight: usize,
    /// Queries waiting for a slot right now.
    pub queued: usize,
    /// Rows accepted through [`QueryService::ingest`].
    pub ingested_rows: u64,
    /// Ingest calls admitted (each is one gate permit).
    pub ingest_batches: u64,
    /// Blocks sealed and merged into tables (ingest + flush).
    pub sealed_blocks: u64,
}

/// Combined derived-cache counters for one table: the selection and
/// sketch caches of its row set and of every scalar column set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableCacheStats {
    /// Selection-cache lookups answered from cache.
    pub selection_hits: u64,
    /// Selection vectors compiled from scratch.
    pub selection_builds: u64,
    /// Sketch-cache lookups answered from cache.
    pub sketch_hits: u64,
    /// Sketches inserted into an empty slot.
    pub sketch_inserted: u64,
    /// Sketch insertions that lost the first-writer race (recomputed
    /// work that was then discarded — the benign duplicate bound).
    pub sketch_raced: u64,
}

impl TableCacheStats {
    fn absorb(&mut self, sel: SelectionCacheStats, sk: SketchCacheStats) {
        self.selection_hits += sel.hits;
        self.selection_builds += sel.builds;
        self.sketch_hits += sk.hits;
        self.sketch_inserted += sk.inserted;
        self.sketch_raced += sk.raced;
    }
}

/// Per-tenant failure accounting, read through
/// [`QueryService::tenant_failures`]. Lets an operator see *whose*
/// queries are failing or degrading without scraping logs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantFailures {
    /// Admitted queries by this tenant that returned an execution error.
    pub failed: u64,
    /// Queries by this tenant that completed best-effort with a
    /// degradation report (dropped blocks, widened interval).
    pub degraded: u64,
}

/// Book-keeping behind the [`AdmissionGate`] mutex.
#[derive(Debug, Default)]
struct GateState {
    /// Permits currently out.
    in_flight: usize,
    /// Tickets currently queued (sum of all queue lengths).
    waiting: usize,
    /// Per-tenant FIFO of waiting tickets. A tenant appears here only
    /// while it has at least one waiter.
    queues: HashMap<String, VecDeque<u64>>,
    /// Round-robin order over tenants with waiters.
    rotation: VecDeque<String>,
    /// Tickets whose slot has been granted but whose thread has not yet
    /// woken to claim it.
    granted: HashSet<u64>,
    /// Next ticket number.
    next_ticket: u64,
}

/// Bounded, tenant-fair admission control.
///
/// `max_concurrent` permits execute at once; up to `queue_depth`
/// arrivals wait; anything past that is rejected immediately with
/// [`QueryError::Overloaded`]. When a permit is released the slot is
/// handed to the *next tenant in rotation* (front ticket of its FIFO),
/// not the globally oldest ticket — so tenants interleave `A B A B`
/// even when `A` enqueued a burst first.
///
/// Built on `std::sync` (`Mutex` + `Condvar`); a poisoned lock is
/// recovered with [`PoisonError::into_inner`] since the state is a
/// plain counter structure that stays consistent across unwinds.
#[derive(Debug)]
pub struct AdmissionGate {
    max_concurrent: usize,
    queue_depth: usize,
    state: Mutex<GateState>,
    wakeup: Condvar,
}

impl AdmissionGate {
    /// A gate with `max_concurrent` execution slots (at least 1) and
    /// room for `queue_depth` waiters.
    pub fn new(max_concurrent: usize, queue_depth: usize) -> Self {
        Self {
            max_concurrent: max_concurrent.max(1),
            queue_depth,
            state: Mutex::new(GateState::default()),
            wakeup: Condvar::new(),
        }
    }

    /// Acquires an execution permit for `tenant`, blocking while the
    /// queue has room and rejecting once it does not.
    ///
    /// # Errors
    ///
    /// [`QueryError::Overloaded`] when all slots are busy and the wait
    /// queue is full.
    pub fn acquire(&self, tenant: &str) -> Result<Permit<'_>, QueryError> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        // Fast path: a free slot and nobody ahead of us.
        if state.in_flight < self.max_concurrent && state.waiting == 0 {
            state.in_flight += 1;
            return Ok(Permit { gate: self });
        }
        if state.waiting >= self.queue_depth {
            return Err(QueryError::Overloaded {
                in_flight: state.in_flight,
                queued: state.waiting,
            });
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.waiting += 1;
        let newly_queued = state.queues.get(tenant).is_none_or(VecDeque::is_empty);
        if newly_queued {
            state.rotation.push_back(tenant.to_string());
        }
        state
            .queues
            .entry(tenant.to_string())
            .or_default()
            .push_back(ticket);
        loop {
            if state.granted.remove(&ticket) {
                // The releasing thread transferred its slot to this
                // ticket without decrementing `in_flight`.
                return Ok(Permit { gate: self });
            }
            state = self
                .wakeup
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Returns a slot: hands it to the next tenant in rotation, or
    /// frees it when nobody waits.
    fn release(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while let Some(tenant) = state.rotation.pop_front() {
            let front = match state.queues.get_mut(&tenant) {
                Some(queue) => queue.pop_front().map(|t| (t, !queue.is_empty())),
                None => None,
            };
            match front {
                Some((ticket, more_waiting)) => {
                    if more_waiting {
                        state.rotation.push_back(tenant);
                    } else {
                        state.queues.remove(&tenant);
                    }
                    state.waiting -= 1;
                    state.granted.insert(ticket);
                    drop(state);
                    self.wakeup.notify_all();
                    return;
                }
                // A rotation entry for a drained tenant should not
                // occur, but tolerate it rather than poison the gate.
                None => {
                    state.queues.remove(&tenant);
                }
            }
        }
        state.in_flight -= 1;
    }

    /// Permits currently out.
    pub fn in_flight(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .in_flight
    }

    /// Tickets currently waiting for a slot.
    pub fn waiting(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .waiting
    }
}

/// An execution slot held by an admitted query; dropped, it hands the
/// slot to the next waiter (round-robin) or frees it.
#[derive(Debug)]
pub struct Permit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.release();
    }
}

#[derive(Debug)]
struct ServiceInner {
    tables: RwLock<Catalog>,
    session: QuerySession,
    gate: AdmissionGate,
    /// Per-table pending-row buffers for the ingest path. Its lock
    /// guards pure memory moves only — sealing scans and catalog
    /// mutation happen outside it.
    buffers: Mutex<HashMap<String, IngestBuffer>>,
    ingest_rows_per_block: usize,
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    degraded: AtomicU64,
    /// Per-tenant failed/degraded counts. Touched only on the failure
    /// and degradation paths, so the happy path never takes this lock.
    tenant_failures: Mutex<HashMap<String, TenantFailures>>,
    ingested_rows: AtomicU64,
    ingest_batches: AtomicU64,
    sealed_blocks: AtomicU64,
}

/// A long-lived, cloneable handle serving queries from many concurrent
/// clients over one set of shared caches. See the [module docs](self)
/// for the architecture; construction is [`QueryService::new`], tables
/// enter through [`QueryService::register_table`], and clients execute
/// through [`QueryService::execute`] or a tenant-bound
/// [`ServiceClient`].
///
/// Cloning is cheap (an `Arc` bump) and every clone shares the same
/// registry, caches, and admission gate — hand one clone per serving
/// thread.
#[derive(Debug, Clone)]
pub struct QueryService {
    inner: Arc<ServiceInner>,
}

impl QueryService {
    /// Builds a service from `config` (zero values are lifted to 1
    /// where a zero would deadlock).
    pub fn new(config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        let max_concurrent = config.max_concurrent.max(1);
        let per_query = (workers / max_concurrent).max(1);
        let mut policy = ExecPolicy::new().pilot_seed(config.pilot_seed);
        if per_query > 1 {
            policy = policy.pooled(per_query);
        }
        policy = policy.retry(config.recovery.retry);
        if config.recovery.is_best_effort() {
            policy = policy.best_effort();
        }
        if let Some(budget) = config.sample_budget {
            policy = policy.sample_budget(budget);
        }
        let session = QuerySession::shared(Arc::new(PreEstimateCache::new()), policy);
        Self {
            inner: Arc::new(ServiceInner {
                tables: RwLock::new(Catalog::new()),
                session,
                gate: AdmissionGate::new(max_concurrent, config.queue_depth),
                buffers: Mutex::new(HashMap::new()),
                ingest_rows_per_block: config.ingest_rows_per_block.max(1),
                admitted: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                failed: AtomicU64::new(0),
                degraded: AtomicU64::new(0),
                tenant_failures: Mutex::new(HashMap::new()),
                ingested_rows: AtomicU64::new(0),
                ingest_batches: AtomicU64::new(0),
                sealed_blocks: AtomicU64::new(0),
            }),
        }
    }

    /// Registers (or replaces) a named table. Replacing a table also
    /// drops every pre-estimate cached for its name — the old entries
    /// describe data the registry no longer serves.
    pub fn register_table(&self, name: impl Into<String>, table: Table) {
        let name = name.into();
        self.inner.session.pre_cache().invalidate_table(&name);
        // A replaced table starts a fresh ingest stream: rows buffered
        // for the old incarnation describe data the registry no longer
        // serves (and may not even share its width).
        self.inner
            .buffers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&name);
        self.inner
            .tables
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .register(name, table);
    }

    /// A handle on the named table: one refcount, taken under the
    /// registry's read guard and held past it, so no guard is ever live
    /// across query execution. The handle shares everything with the
    /// registry's table, and keeps the rows it saw when an ingest later
    /// appends to the registry's (copy on write).
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownTable`] when the name is not registered.
    pub fn table(&self, name: &str) -> Result<Table, QueryError> {
        let tables = self
            .inner
            .tables
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        tables.table(name).cloned()
    }

    /// Invalidates everything cached for one table after an in-place
    /// data mutation: session pre-estimates *and* the table's derived
    /// selection/sketch caches, through the executor's unified entry
    /// point.
    pub fn invalidate_table(&self, name: &str) {
        let tables = self
            .inner
            .tables
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        self.inner.session.invalidate_table(&tables, name);
    }

    /// Executes a parsed query as `tenant`, from `seed`.
    ///
    /// Admission first: the call blocks while the wait queue has room
    /// and fails fast with [`QueryError::Overloaded`] when it does not.
    /// The answer is a deterministic function of `(registered data,
    /// query, seed)` — concurrency, cache state, and tenant interleaving
    /// do not change a single bit of it.
    ///
    /// # Errors
    ///
    /// [`QueryError::Overloaded`] on backpressure, otherwise as
    /// [`QuerySession::execute`].
    pub fn execute(
        &self,
        tenant: &str,
        query: &Query,
        seed: u64,
    ) -> Result<QueryResult, QueryError> {
        let permit = match self.inner.gate.acquire(tenant) {
            Ok(permit) => permit,
            Err(e) => {
                self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        self.inner.admitted.fetch_add(1, Ordering::Relaxed);
        let mut rng = engine::seeded_rng(seed);
        let out = self.execute_admitted(query, &mut rng);
        drop(permit);
        match &out {
            Ok(result) => {
                self.inner.completed.fetch_add(1, Ordering::Relaxed);
                if result.degradation.is_some() {
                    self.inner.degraded.fetch_add(1, Ordering::Relaxed);
                    self.bump_tenant(tenant, |t| t.degraded += 1);
                }
            }
            Err(_) => {
                self.inner.failed.fetch_add(1, Ordering::Relaxed);
                self.bump_tenant(tenant, |t| t.failed += 1);
            }
        };
        out
    }

    /// Appends rows to a table as `tenant`, through the same admission
    /// gate queries use — a chatty ingester competes for slots like any
    /// other tenant and backpressures identically.
    ///
    /// Rows buffer per table and seal into immutable blocks of
    /// [`ServiceConfig::ingest_rows_per_block`] rows; each sealed block's
    /// sketch, zone stats, and per-cached-filter selection vectors are
    /// computed **outside every lock** and then *merged* into the
    /// table's cached sampling state under the registry guard — nothing
    /// cached is invalidated, for this table or any other. Rows below
    /// the seal threshold stay pending (invisible to queries) until a
    /// later ingest or [`QueryService::flush`] seals them.
    ///
    /// Returns the number of blocks sealed by this call.
    ///
    /// # Errors
    ///
    /// [`QueryError::Overloaded`] on backpressure,
    /// [`QueryError::UnknownTable`], or a typed rejection for a row of
    /// the wrong width / with non-finite values (nothing seals then).
    pub fn ingest(
        &self,
        tenant: &str,
        table: &str,
        rows: &[Vec<f64>],
    ) -> Result<usize, QueryError> {
        let permit = match self.inner.gate.acquire(tenant) {
            Ok(permit) => permit,
            Err(e) => {
                self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        let width = self.table(table)?.schema().width();
        let sealed = {
            let mut buffers = self
                .inner
                .buffers
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let buffer = buffers
                .entry(table.to_string())
                .or_insert_with(|| IngestBuffer::new(width, self.inner.ingest_rows_per_block));
            buffer.push_rows(rows.iter().map(Vec::as_slice))?
        };
        self.inner
            .ingested_rows
            .fetch_add(rows.len() as u64, Ordering::Relaxed);
        self.inner.ingest_batches.fetch_add(1, Ordering::Relaxed);
        let appended = self.append_sealed_rows(table, sealed)?;
        drop(permit);
        Ok(appended)
    }

    /// Seals whatever rows are pending for `table` into one (possibly
    /// short) block and merges it in — the way to make a sub-threshold
    /// tail visible to queries. Returns the number of blocks sealed (0
    /// or 1). Gated like [`QueryService::ingest`].
    ///
    /// # Errors
    ///
    /// [`QueryError::Overloaded`] or [`QueryError::UnknownTable`].
    pub fn flush(&self, tenant: &str, table: &str) -> Result<usize, QueryError> {
        let permit = match self.inner.gate.acquire(tenant) {
            Ok(permit) => permit,
            Err(e) => {
                self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        let sealed = self
            .inner
            .buffers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_mut(table)
            .and_then(IngestBuffer::flush);
        let appended = self.append_sealed_rows(table, sealed.into_iter().collect())?;
        drop(permit);
        Ok(appended)
    }

    /// Rows buffered for `table` but not yet sealed into a block.
    pub fn pending_rows(&self, table: &str) -> usize {
        self.inner
            .buffers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(table)
            .map_or(0, IngestBuffer::pending_rows)
    }

    /// Seal-compute outside every lock, merge under the write guard.
    fn append_sealed_rows(
        &self,
        table: &str,
        sealed: Vec<SealedRows>,
    ) -> Result<usize, QueryError> {
        if sealed.is_empty() {
            return Ok(0);
        }
        // The snapshot shares cache handles with the registry table, so
        // seal-time selection vectors cover exactly the filters cached
        // at this moment; filters cached concurrently heal on demand.
        let snapshot = self.table(table)?;
        let batch: Vec<SealedIngest> = sealed
            .into_iter()
            .map(|rows| snapshot.seal_block(rows))
            .collect::<Result<_, _>>()?;
        // Released before the write guard: a live handle would make the
        // append copy the registry's table instead of extending it.
        drop(snapshot);
        let appended = batch.len();
        let mut tables = self
            .inner
            .tables
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        tables.table_mut(table)?.append_sealed(batch);
        drop(tables);
        self.inner
            .sealed_blocks
            .fetch_add(appended as u64, Ordering::Relaxed);
        Ok(appended)
    }

    /// Parses and executes `sql` as `tenant`, from `seed`.
    ///
    /// # Errors
    ///
    /// Parse errors, plus everything [`QueryService::execute`] raises.
    pub fn query(&self, tenant: &str, sql: &str, seed: u64) -> Result<QueryResult, QueryError> {
        let query = parse(sql)?;
        self.execute(tenant, &query, seed)
    }

    /// A tenant-bound handle over a clone of this service.
    pub fn client(&self, tenant: impl Into<String>) -> ServiceClient {
        ServiceClient {
            service: self.clone(),
            tenant: tenant.into(),
        }
    }

    /// Hit/miss counters of the shared pre-estimation cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.session.cache_stats()
    }

    /// Epoch-path counters of the shared pre-estimation cache: how
    /// post-ingest lookups resolved (exact hit / delta fold / cold
    /// fold).
    pub fn epoch_cache_stats(&self) -> EpochCacheStats {
        self.inner.session.pre_cache().epoch_stats()
    }

    /// Derived-cache counters (selections, sketches) summed over one
    /// table's row set and scalar column sets.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownTable`] when the name is not registered.
    pub fn table_cache_stats(&self, name: &str) -> Result<TableCacheStats, QueryError> {
        let table = self.table(name)?;
        let mut stats = TableCacheStats::default();
        stats.absorb(table.data().selection_stats(), table.data().sketch_stats());
        // Column sets carry their own caches, distinct from the row
        // set's — except a one-column zipped table's, whose row set is
        // its column set and so counts twice.
        for column in table.column_names() {
            if let Some(set) = table.column_set(column) {
                stats.absorb(set.selection_stats(), set.sketch_stats());
            }
        }
        Ok(stats)
    }

    /// A snapshot of the admission counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            admitted: self.inner.admitted.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            failed: self.inner.failed.load(Ordering::Relaxed),
            degraded: self.inner.degraded.load(Ordering::Relaxed),
            in_flight: self.inner.gate.in_flight(),
            queued: self.inner.gate.waiting(),
            ingested_rows: self.inner.ingested_rows.load(Ordering::Relaxed),
            ingest_batches: self.inner.ingest_batches.load(Ordering::Relaxed),
            sealed_blocks: self.inner.sealed_blocks.load(Ordering::Relaxed),
        }
    }

    /// The service's admission gate (exposed for tests and benches
    /// that sequence enqueue order).
    pub fn gate(&self) -> &AdmissionGate {
        &self.inner.gate
    }

    /// Failure/degradation counts for one tenant (zeros when the tenant
    /// has never failed or degraded a query).
    pub fn tenant_failures(&self, tenant: &str) -> TenantFailures {
        self.inner
            .tenant_failures
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(tenant)
            .copied()
            .unwrap_or_default()
    }

    fn bump_tenant(&self, tenant: &str, update: impl FnOnce(&mut TenantFailures)) {
        let mut map = self
            .inner
            .tenant_failures
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        update(map.entry(tenant.to_string()).or_default());
    }

    fn execute_admitted(
        &self,
        query: &Query,
        rng: &mut dyn RngCore,
    ) -> Result<QueryResult, QueryError> {
        let table = self.table(&query.table)?;
        // Last-resort panic net: scheduler workers already convert
        // panics into typed errors, but submitting-thread phases (the
        // pilots, planning) can still unwind — and an escaped panic
        // here would wedge the caller without ever releasing counters.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.inner.session.execute_table(query, &table, rng)
        }))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(QueryError::Engine(isla_core::IslaError::Internal(format!(
                "query execution panicked: {msg}"
            ))))
        })
    }
}

/// A [`QueryService`] handle bound to one tenant name — what a
/// connection pool hands to application code.
#[derive(Debug, Clone)]
pub struct ServiceClient {
    service: QueryService,
    tenant: String,
}

impl ServiceClient {
    /// The tenant this client submits as.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The underlying service handle.
    pub fn service(&self) -> &QueryService {
        &self.service
    }

    /// Executes a parsed query as this tenant; see
    /// [`QueryService::execute`].
    ///
    /// # Errors
    ///
    /// As [`QueryService::execute`].
    pub fn execute(&self, query: &Query, seed: u64) -> Result<QueryResult, QueryError> {
        self.service.execute(&self.tenant, query, seed)
    }

    /// Parses and executes `sql` as this tenant; see
    /// [`QueryService::query`].
    ///
    /// # Errors
    ///
    /// As [`QueryService::query`].
    pub fn query(&self, sql: &str, seed: u64) -> Result<QueryResult, QueryError> {
        self.service.query(&self.tenant, sql, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isla_datagen::normal_values;
    use isla_storage::{BlockSet, RowsBlock, Schema};
    use std::sync::mpsc;

    fn service_with_table(config: ServiceConfig) -> QueryService {
        let service = QueryService::new(config);
        let values = normal_values(100.0, 20.0, 100_000, 7);
        service.register_table(
            "trips",
            Table::new(vec![("distance", BlockSet::from_values(values, 8))]),
        );
        service
    }

    #[test]
    fn gate_rejects_when_slots_and_queue_are_full() {
        let gate = AdmissionGate::new(1, 0);
        let held = gate.acquire("a").unwrap();
        let err = gate.acquire("b").unwrap_err();
        match err {
            QueryError::Overloaded { in_flight, queued } => {
                assert_eq!(in_flight, 1);
                assert_eq!(queued, 0);
            }
            other => panic!("expected Overloaded, got {other}"),
        }
        drop(held);
        // Slot is free again.
        drop(gate.acquire("b").unwrap());
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn gate_grants_round_robin_across_tenants() {
        let gate = AdmissionGate::new(1, 8);
        let held = gate.acquire("warm").unwrap();
        let (tx, rx) = mpsc::channel::<&'static str>();
        std::thread::scope(|s| {
            // Enqueue A1, A2, A3, then B1 — sequenced by watching the
            // waiting count, so arrival order is deterministic.
            for (label, tenant, expected_waiting) in [
                ("A1", "a", 1),
                ("A2", "a", 2),
                ("A3", "a", 3),
                ("B1", "b", 4),
            ] {
                let tx = tx.clone();
                let gate = &gate;
                s.spawn(move || {
                    let permit = gate.acquire(tenant).unwrap();
                    tx.send(label).unwrap();
                    drop(permit);
                });
                while gate.waiting() < expected_waiting {
                    std::thread::yield_now();
                }
            }
            drop(held);
            // Grants serialize through the single slot, so receive
            // order IS grant order: round-robin interleaves tenant b
            // ahead of a's queued burst.
            let order: Vec<&str> = (0..4).map(|_| rx.recv().unwrap()).collect();
            assert_eq!(order, ["A1", "B1", "A2", "A3"]);
        });
        assert_eq!(gate.in_flight(), 0);
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn service_answers_queries_and_counts_them() {
        let service = service_with_table(ServiceConfig {
            workers: 2,
            max_concurrent: 1,
            queue_depth: 4,
            sample_budget: None,
            pilot_seed: 1,
            ..ServiceConfig::default()
        });
        let client = service.client("t0");
        let r = client
            .query("SELECT AVG(distance) FROM trips WITH PRECISION 0.5", 11)
            .unwrap();
        assert!((r.value - 100.0).abs() < 2.0, "value {}", r.value);
        let stats = service.stats();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn unknown_table_counts_as_failed_not_rejected() {
        let service = service_with_table(ServiceConfig::default());
        let err = service
            .query("t0", "SELECT AVG(x) FROM missing WITH PRECISION 0.5", 1)
            .unwrap_err();
        assert!(matches!(err, QueryError::UnknownTable(_)));
        let stats = service.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn two_sessions_share_the_pre_estimate_cache() {
        let service = service_with_table(ServiceConfig {
            workers: 1,
            max_concurrent: 1,
            queue_depth: 4,
            sample_budget: None,
            pilot_seed: 9,
            ..ServiceConfig::default()
        });
        // The named method runs the pilots the sketches would pin.
        let sql = "SELECT AVG(distance) FROM trips WITH PRECISION 0.5 METHOD ISLA";
        let a = service.client("tenant-a").query(sql, 100).unwrap();
        let warm = service.cache_stats();
        assert_eq!(warm.misses, 1);
        assert_eq!(warm.hits, 0);
        let b = service.client("tenant-b").query(sql, 100).unwrap();
        let stats = service.cache_stats();
        assert_eq!(stats.hits, 1, "second tenant must hit the shared cache");
        // Key-seeded pilots: the hit skips pilot draws yet the answer
        // is bit-identical — the query stream never paid for pilots.
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        // And the hit visibly skipped the pilot phase.
        assert!(b.samples_used.unwrap() <= a.samples_used.unwrap());
    }

    #[test]
    fn ingest_seals_at_the_threshold_and_queries_see_the_rows() {
        let service = QueryService::new(ServiceConfig {
            ingest_rows_per_block: 1_000,
            pilot_seed: 3,
            ..ServiceConfig::default()
        });
        let values = normal_values(100.0, 20.0, 50_000, 31);
        service.register_table(
            "trips",
            Table::new(vec![("distance", BlockSet::from_values(values, 8))]),
        );
        let rows: Vec<Vec<f64>> = normal_values(100.0, 20.0, 2_500, 32)
            .into_iter()
            .map(|v| vec![v])
            .collect();
        assert_eq!(service.ingest("feeder", "trips", &rows).unwrap(), 2);
        assert_eq!(service.pending_rows("trips"), 500);
        assert_eq!(service.table("trips").unwrap().rows(), 52_000);
        assert_eq!(service.flush("feeder", "trips").unwrap(), 1);
        assert_eq!(service.pending_rows("trips"), 0);
        let table = service.table("trips").unwrap();
        assert_eq!(table.rows(), 52_500);
        assert_eq!(table.data().epoch(), 2, "one epoch per sealed batch");
        let stats = service.stats();
        assert_eq!(stats.ingested_rows, 2_500);
        assert_eq!(stats.ingest_batches, 1);
        assert_eq!(stats.sealed_blocks, 3);
        let r = service
            .query(
                "t0",
                "SELECT AVG(distance) FROM trips WITH PRECISION 0.5",
                41,
            )
            .unwrap();
        assert_eq!(r.rows, 52_500, "queries see every sealed row");
        assert!((r.value - 100.0).abs() < 2.0);
    }

    #[test]
    fn ingest_rejects_bad_rows_without_sealing() {
        let service = service_with_table(ServiceConfig::default());
        let err = service
            .ingest("feeder", "trips", &[vec![1.0, 2.0]])
            .unwrap_err();
        assert!(err.to_string().contains("rejected"), "got {err}");
        assert!(service
            .ingest("feeder", "trips", &[vec![f64::NAN]])
            .is_err());
        assert_eq!(service.stats().sealed_blocks, 0);
        assert_eq!(service.table("trips").unwrap().rows(), 100_000);
        assert!(matches!(
            service.ingest("feeder", "missing", &[vec![1.0]]),
            Err(QueryError::UnknownTable(_))
        ));
    }

    #[test]
    fn a_grown_table_answers_its_exact_mean_through_the_epoch_layer() {
        let service = QueryService::new(ServiceConfig {
            ingest_rows_per_block: 500,
            pilot_seed: 5,
            ..ServiceConfig::default()
        });
        let mut values = normal_values(100.0, 20.0, 20_000, 71);
        service.register_table(
            "trips",
            Table::new(vec![("distance", BlockSet::from_values(values.clone(), 4))]),
        );
        let appended = normal_values(130.0, 5.0, 1_500, 72);
        let rows: Vec<Vec<f64>> = appended.iter().map(|&v| vec![v]).collect();
        service.ingest("feeder", "trips", &rows).unwrap();
        values.extend(appended);
        assert!(service.table("trips").unwrap().data().epoch() > 0);
        let exact = values.iter().sum::<f64>() / values.len() as f64;
        for seed in [1, 2] {
            let r = service
                .query(
                    "t",
                    "SELECT AVG(distance) FROM trips WITH PRECISION 0.5",
                    seed,
                )
                .unwrap();
            assert!(
                (r.value - exact).abs() <= 1e-12 * exact,
                "{} vs exact {exact}",
                r.value
            );
            assert_eq!(r.samples_used, Some(0));
        }
        // The pinned answer never reaches the epoch layer: nothing folds
        // and nothing is filed to hit.
        let epoch = service.epoch_cache_stats();
        assert_eq!((epoch.cold_folds, epoch.exact_hits), (0, 0));
    }

    #[test]
    fn post_ingest_queries_are_bit_identical_to_invalidate_and_recompute() {
        // The tentpole invariant: folding only the delta epochs on top
        // of cached pilot state answers exactly what a cold recompute
        // over the whole grown set answers. METHOD ISLA folds pilots
        // where a default query would read the mean off the sketches.
        let build = || {
            let service = QueryService::new(ServiceConfig {
                ingest_rows_per_block: 500,
                pilot_seed: 77,
                ..ServiceConfig::default()
            });
            let values = normal_values(100.0, 20.0, 40_000, 51);
            service.register_table(
                "trips",
                Table::new(vec![("distance", BlockSet::from_values(values, 8))]),
            );
            service
        };
        let incremental = build();
        let recompute = build();
        let sql = "SELECT AVG(distance) FROM trips WITH PRECISION 0.5 METHOD ISLA";
        for round in 0..3u64 {
            let rows: Vec<Vec<f64>> = normal_values(95.0, 18.0, 1_000, 60 + round)
                .into_iter()
                .map(|v| vec![v])
                .collect();
            incremental.ingest("feeder", "trips", &rows).unwrap();
            recompute.ingest("feeder", "trips", &rows).unwrap();
            // The strawman throws everything away after every append.
            recompute.invalidate_table("trips");
            let a = incremental.query("t", sql, 900 + round).unwrap();
            let b = recompute.query("t", sql, 900 + round).unwrap();
            assert_eq!(
                a.value.to_bits(),
                b.value.to_bits(),
                "round {round}: incremental answer must match recompute"
            );
        }
        // The incremental service resumed cached folds; the strawman
        // cold-folded every round.
        let warm = incremental.epoch_cache_stats();
        assert_eq!(
            warm.cold_folds, 1,
            "only the first post-ingest query is cold"
        );
        assert_eq!(warm.delta_folds, 2);
        assert_eq!(recompute.epoch_cache_stats().cold_folds, 3);
        // A repeat without new data is an exact epoch hit.
        let before = incremental.epoch_cache_stats().exact_hits;
        incremental.query("t", sql, 1_234).unwrap();
        assert_eq!(incremental.epoch_cache_stats().exact_hits, before + 1);
    }

    #[test]
    fn ingest_leaves_other_tables_and_columns_untouched() {
        let service = QueryService::new(ServiceConfig {
            ingest_rows_per_block: 250,
            pilot_seed: 13,
            ..ServiceConfig::default()
        });
        let a = normal_values(100.0, 20.0, 30_000, 71);
        let b = normal_values(50.0, 5.0, 30_000, 72);
        service.register_table(
            "trips",
            Table::new(vec![
                ("distance", BlockSet::from_values(a, 6)),
                ("fare", BlockSet::from_values(b, 6)),
            ]),
        );
        let other = normal_values(10.0, 1.0, 10_000, 73);
        service.register_table(
            "other",
            Table::new(vec![("x", BlockSet::from_values(other, 4))]),
        );
        let sql = "SELECT AVG(x) FROM other WITH PRECISION 0.5 METHOD ISLA";
        service.query("t", sql, 1).unwrap();
        let len_before = service.inner.session.pre_cache().len();
        let rows: Vec<Vec<f64>> = (0..250)
            .map(|i| vec![100.0 + f64::from(i % 10), 50.0])
            .collect();
        service.ingest("feeder", "trips", &rows).unwrap();
        assert_eq!(
            service.inner.session.pre_cache().len(),
            len_before,
            "ingest must not invalidate anything for any table"
        );
        let hits_before = service.cache_stats().hits;
        service.query("t", sql, 2).unwrap();
        assert_eq!(
            service.cache_stats().hits,
            hits_before + 1,
            "the untouched table's estimate still serves from cache"
        );
    }

    /// A row-model `sales` table (amount, margin) in 4 blocks, sealing
    /// ingested rows 500 to a block.
    fn service_with_sales() -> QueryService {
        let service = QueryService::new(ServiceConfig {
            ingest_rows_per_block: 500,
            pilot_seed: 5,
            ..ServiceConfig::default()
        });
        let amount = normal_values(100.0, 20.0, 20_000, 91);
        let margin = normal_values(30.0, 5.0, 20_000, 92);
        service.register_table(
            "sales",
            Table::from_rows(
                Schema::of_floats(vec!["amount", "margin"]),
                RowsBlock::split(vec![amount, margin], 4),
            ),
        );
        service
    }

    fn sales_rows(n: usize, seed: u64) -> Vec<Vec<f64>> {
        normal_values(80.0, 10.0, n, seed)
            .into_iter()
            .map(|v| vec![v, v / 4.0])
            .collect()
    }

    #[test]
    fn a_table_handle_keeps_its_rows_when_the_registry_table_grows() {
        let service = service_with_sales();
        let before = service.table("sales").unwrap();
        let query = parse("SELECT AVG(amount) FROM sales WITH PRECISION 0.5").unwrap();
        let answer = |table: &Table| {
            QuerySession::new()
                .execute_table(&query, table, &mut engine::seeded_rng(17))
                .unwrap()
        };
        let first = answer(&before);
        assert_eq!(
            service
                .ingest("feeder", "sales", &sales_rows(500, 93))
                .unwrap(),
            1
        );
        // The handle taken before the ingest still sees its own rows...
        assert_eq!(before.rows(), 20_000);
        assert_eq!(before.data().block_count(), 4);
        assert_eq!(before.column("amount").unwrap().block_count(), 4);
        let again = answer(&before);
        assert_eq!(again.value.to_bits(), first.value.to_bits());
        assert_eq!(again.samples_used, first.samples_used);
        // ...while the registry's table has the appended block.
        let after = service.table("sales").unwrap();
        assert_eq!(after.rows(), 20_500);
        assert_eq!(after.data().block_count(), 5);
        assert_eq!(answer(&after).rows, 20_500);
    }

    #[test]
    fn ingest_extends_a_row_tables_column_sets_in_step_with_its_rows() {
        let service = service_with_sales();
        let rows = sales_rows(1_000, 94);
        assert_eq!(service.ingest("feeder", "sales", &rows).unwrap(), 2);
        let table = service.table("sales").unwrap();
        let amount = table.column("amount").unwrap();
        assert_eq!(amount.block_count(), 6);
        assert_eq!(amount.total_len(), 21_000);
        assert_eq!(amount.epoch_marks(), table.data().epoch_marks());
        // The new blocks hold the ingested amounts, in order.
        let mut appended = Vec::new();
        for block in amount.iter().skip(4) {
            assert_eq!(block.width(), 1);
            block
                .scan_column_chunks(&[0], &mut |chunk| appended.extend_from_slice(chunk[0]))
                .unwrap();
        }
        let want: Vec<f64> = rows.iter().map(|row| row[0]).collect();
        assert_eq!(appended, want);
    }

    #[test]
    fn register_table_again_drops_its_pre_estimates() {
        let service = service_with_table(ServiceConfig::default());
        let sql = "SELECT AVG(distance) FROM trips WITH PRECISION 0.5 METHOD ISLA";
        service.query("t", sql, 5).unwrap();
        assert_eq!(service.inner.session.pre_cache().len(), 1);
        let fresh = normal_values(50.0, 5.0, 50_000, 8);
        service.register_table(
            "trips",
            Table::new(vec![("distance", BlockSet::from_values(fresh, 8))]),
        );
        assert_eq!(service.inner.session.pre_cache().len(), 0);
        let r = service.query("t", sql, 5).unwrap();
        assert!((r.value - 50.0).abs() < 2.0, "value {}", r.value);
        assert_eq!(
            service.cache_stats().misses,
            2,
            "the re-registered table must re-pilot, not serve stale estimates"
        );
    }
}
