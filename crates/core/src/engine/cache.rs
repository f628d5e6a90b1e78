//! Pre-estimation caching for repeated queries.
//!
//! The heavy-traffic scenario: the same query shape arrives millions of
//! times against the same catalog table. The pilots (σ estimation + the
//! relaxed-precision sketch) are the only phase whose output depends
//! solely on `(data, config)` — so a [`PreEstimateCache`] keyed by
//! `(table, column, config, data shape)` lets every repeat skip the
//! pilot phase entirely and go straight to planning.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use rand::RngCore;

use isla_storage::{BlockSet, EpochMark};

use crate::config::IslaConfig;
use crate::error::IslaError;
use crate::pre_estimation::{
    finish_pilot_fold, fold_pilot_segment, pinned_pre_estimate, pre_estimate_with, PilotFold,
    PreEstimate,
};

use super::recovery::RecoveryPolicy;
use super::rows::{
    finish_row_pilot_fold, fold_row_pilot_segment, pinned_row_pre_estimate, row_pre_estimate_with,
    RowPilotFold, RowPreEstimate, RowSpec,
};

/// A cache key: the catalog coordinates of a column, the configuration
/// fingerprint, the data's shape (row count + block count), and the
/// query shape (predicate + group-by fingerprint).
///
/// Folding the data shape in means a re-registered table of a different
/// size misses instead of serving a stale σ̂/rate computed for the old
/// data. Folding the *query* shape in means a pre-estimate computed for
/// an unfiltered query can never be reused for a filtered or grouped
/// one — their selectivities, sketches, and rates describe different
/// populations. A same-shape content change is invisible to the key —
/// callers that mutate data in place must invalidate explicitly
/// ([`PreEstimateCache::invalidate`] / [`PreEstimateCache::clear`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    table: String,
    column: String,
    config: u64,
    rows: u64,
    blocks: usize,
    query_shape: u64,
}

/// Maximum entries each pre-estimate map holds. Keys embed what a
/// request can vary freely — the config fingerprint (`WITH PRECISION
/// <literal>`) and, for row shapes, predicate *literals* (`WHERE ts >
/// <now>`) — so a workload with per-request literals would otherwise
/// grow a map without bound; past the cap an arbitrary entry is evicted
/// per insert.
const MAX_ENTRIES: usize = 1_024;

impl CacheKey {
    /// Builds a key for `table.column` under `config`, bound to `data`'s
    /// shape, for the plain (unfiltered, ungrouped) query shape.
    pub fn new(table: &str, column: &str, config: &IslaConfig, data: &BlockSet) -> Self {
        Self {
            table: table.to_string(),
            column: column.to_string(),
            config: config.fingerprint(),
            rows: data.total_len(),
            blocks: data.block_count(),
            query_shape: 0,
        }
    }

    /// Binds the key to a row-model query shape (the
    /// [`RowSpec::fingerprint`] of its predicate + group-by + aggregated
    /// column), so filtered/grouped estimates key separately from plain
    /// ones and from each other.
    pub fn with_row_shape(mut self, shape: u64) -> Self {
        self.query_shape = shape;
        self
    }

    /// The key with its data-shape fields zeroed: the *lineage* of a
    /// column under a config and query shape, stable across appends.
    /// Epoch-layer entries key by lineage because an append changes the
    /// shape (so exact keys would always miss) while leaving every
    /// already-folded segment's contribution valid — the lineage is the
    /// identity that survives growth.
    pub fn lineage(&self) -> Self {
        Self {
            rows: 0,
            blocks: 0,
            ..self.clone()
        }
    }

    /// A stable 64-bit digest of the key — the seed material for
    /// deterministic pilot derivation: a serving layer that seeds the
    /// pilot RNG from `digest() ⊕ salt` makes the cached entry a pure
    /// function of the key, so racing first computations are idempotent
    /// and a query's answer no longer depends on whether *its own* RNG
    /// paid for the pilots (hit) or not (miss).
    pub fn digest(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// Hit/miss counters, observable by callers (e.g. integration tests and
/// serving dashboards).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (pilot phase skipped).
    pub hits: u64,
    /// Lookups that ran the pilots and populated the cache.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Epoch-path counters: how lookups against appendable sets resolved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochCacheStats {
    /// Entry covered the set's current epoch exactly — no folding at all.
    pub exact_hits: u64,
    /// Entry was valid for an older epoch — only the delta segments were
    /// folded on top of the cached pilot state.
    pub delta_folds: u64,
    /// No usable entry — every segment was folded from scratch.
    pub cold_folds: u64,
}

/// The result of one cache lookup: the estimate, and whether the pilots
/// were skipped to get it.
#[derive(Debug, Clone)]
pub struct Lookup<P> {
    /// The pre-estimate (cached or freshly computed).
    pub pre: P,
    /// Whether the pilots were skipped (`true` on a cache hit).
    pub hit: bool,
}

/// The result of one scalar cache lookup.
pub type CacheLookup = Lookup<PreEstimate>;

/// The result of one row-model cache lookup.
pub type RowCacheLookup = Lookup<RowPreEstimate>;

/// A cached epoch-fold: the pilot fold state and finished estimate as of
/// `epoch`, plus the shape `(blocks, rows)` the set had then — checked
/// against the set's [`isla_storage::EpochMark`] history on lookup so a
/// re-registered (different-lineage-content) set can never resume a fold
/// that doesn't describe its blocks.
#[derive(Debug, Clone)]
struct EpochEntry<F, P> {
    epoch: u64,
    blocks: usize,
    rows: u64,
    fold: F,
    pre: P,
}

/// The lookup counters, shared by both populations.
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    epoch_exact: AtomicU64,
    epoch_delta: AtomicU64,
    epoch_cold: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Inserts under [`MAX_ENTRIES`]: a full map gives up an arbitrary
/// entry first — any victim is merely a future miss.
fn insert_bounded<V>(map: &mut HashMap<CacheKey, V>, key: CacheKey, value: V) {
    if map.len() >= MAX_ENTRIES && !map.contains_key(&key) {
        if let Some(victim) = map.keys().next().cloned() {
            map.remove(&victim);
        }
    }
    map.insert(key, value);
}

/// One population of pre-estimates `P` with resumable pilot folds `F`:
/// an exact layer keyed by the full [`CacheKey`] and an epoch layer
/// keyed by its lineage. Both lookups are written once here; the scalar
/// and row populations differ only in what computes a miss.
#[derive(Debug)]
struct Layers<F, P> {
    exact: Mutex<HashMap<CacheKey, P>>,
    epoch: Mutex<HashMap<CacheKey, EpochEntry<F, P>>>,
}

impl<F, P> Default for Layers<F, P> {
    fn default() -> Self {
        Self {
            exact: Mutex::default(),
            epoch: Mutex::default(),
        }
    }
}

impl<F: Clone + Default, P: Clone> Layers<F, P> {
    /// Exact-key lookup: the cached estimate, or `compute`'s — run with
    /// no lock held — cached under `key`. A failed computation leaves
    /// the layer untouched.
    fn lookup_exact(
        &self,
        counters: &Counters,
        key: CacheKey,
        compute: impl FnOnce() -> Result<P, IslaError>,
    ) -> Result<Lookup<P>, IslaError> {
        if let Some(pre) = self.exact.lock().get(&key).cloned() {
            bump(&counters.hits);
            return Ok(Lookup { pre, hit: true });
        }
        let pre = compute()?;
        bump(&counters.misses);
        insert_bounded(&mut self.exact.lock(), key, pre.clone());
        Ok(Lookup { pre, hit: false })
    }

    /// Epoch-aware lookup: the cached estimate when it covers `data`'s
    /// current epoch; the cached fold resumed over only the segments
    /// sealed since, when it is older but still describes this set's
    /// history; a cold fold of every segment otherwise. `fold_segment`
    /// folds one segment (its block range, its mark, the lineage digest
    /// that seeds its pilots); `finish` turns the fold into the
    /// estimate. Both run with no lock held.
    fn lookup_epoch(
        &self,
        counters: &Counters,
        key: &CacheKey,
        data: &BlockSet,
        segments: fn(&F) -> u64,
        mut fold_segment: impl FnMut(&mut F, Range<usize>, &EpochMark, u64) -> Result<(), IslaError>,
        finish: impl FnOnce(&F) -> Result<P, IslaError>,
    ) -> Result<Lookup<P>, IslaError> {
        let epoch = data.epoch();
        let blocks = data.block_count();
        let rows = data.total_len();
        let lineage = key.lineage();
        let cached = self.epoch.lock().get(&lineage).cloned();
        let (mut fold, resume) = match cached {
            Some(e) if e.epoch == epoch && e.blocks == blocks && e.rows == rows => {
                bump(&counters.hits);
                bump(&counters.epoch_exact);
                return Ok(Lookup {
                    pre: e.pre,
                    hit: true,
                });
            }
            Some(e)
                if entry_resumes(e.epoch, e.blocks, e.rows, epoch, data)
                    && segments(&e.fold) == e.epoch + 1 =>
            {
                bump(&counters.epoch_delta);
                (e.fold, e.epoch + 1)
            }
            _ => {
                bump(&counters.epoch_cold);
                (F::default(), 0)
            }
        };
        let digest = lineage.digest();
        let mut start = 0usize;
        for (si, mark) in data.epoch_marks().iter().enumerate() {
            if si as u64 >= resume {
                fold_segment(&mut fold, start..mark.blocks, mark, digest)?;
            }
            start = mark.blocks;
        }
        let pre = finish(&fold)?;
        bump(&counters.misses);
        let mut entries = self.epoch.lock();
        // A racing lookup against a *newer* snapshot already folded
        // further: keep the longer fold — ours is merely a prefix.
        if entries.get(&lineage).is_none_or(|e| e.epoch <= epoch) {
            let entry = EpochEntry {
                epoch,
                blocks,
                rows,
                fold,
                pre: pre.clone(),
            };
            insert_bounded(&mut entries, lineage, entry);
        }
        drop(entries);
        Ok(Lookup { pre, hit: false })
    }

    fn invalidate(&self, key: &CacheKey) {
        self.exact.lock().remove(key);
        self.epoch.lock().remove(&key.lineage());
    }

    fn retain(&self, keep: impl Fn(&CacheKey) -> bool) {
        self.exact.lock().retain(|k, _| keep(k));
        self.epoch.lock().retain(|k, _| keep(k));
    }
}

/// A thread-safe cache of [`PreEstimate`]s (scalar queries) and
/// [`RowPreEstimate`]s (filtered/grouped queries) keyed by [`CacheKey`].
///
/// The two populations never alias: scalar keys carry query shape 0 and
/// live in the scalar layers; row keys carry the spec's fingerprint and
/// live in the row layers. Hit/miss counters are shared.
#[derive(Debug, Default)]
pub struct PreEstimateCache {
    scalar: Layers<PilotFold, PreEstimate>,
    rows: Layers<RowPilotFold, RowPreEstimate>,
    counters: Counters,
}

impl PreEstimateCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached pre-estimate for `key`, or runs the pilots on
    /// `data` under `recovery` and caches the result. A miss runs the
    /// pilots through [`pre_estimate_with`], so best-effort sessions
    /// survive failing blocks during pre-estimation. A best-effort entry
    /// describes the plan's surviving data and is served to later lookups
    /// of the same key regardless of their mode — keys are
    /// config-fingerprinted, and sessions hold one policy for their
    /// lifetime, so entries never mix modes within a session.
    ///
    /// # Errors
    ///
    /// Pre-estimation failures (the cache is left untouched).
    pub fn get_or_compute_with(
        &self,
        key: CacheKey,
        data: &BlockSet,
        config: &IslaConfig,
        recovery: &RecoveryPolicy,
        rng: &mut dyn RngCore,
    ) -> Result<CacheLookup, IslaError> {
        self.scalar.lookup_exact(&self.counters, key, || {
            pre_estimate_with(data, config, recovery, rng)
        })
    }

    /// Returns the cached row pre-estimate for `key`, or runs the
    /// row-model pilots on `data` under `recovery` (see
    /// [`PreEstimateCache::get_or_compute_with`]) and caches the result.
    ///
    /// `key` should carry the spec's [`RowSpec::fingerprint`] (via
    /// [`CacheKey::with_row_shape`]) so distinct predicates/groupings
    /// key separately.
    ///
    /// A filtered or grouped query block metadata pins (see
    /// [`IslaConfig::sample_groups`]) gets the pinned estimate instead:
    /// no entry is filed, no pilot drawn, no counter moves, and the
    /// lookup reports a hit.
    ///
    /// # Errors
    ///
    /// Row pre-estimation failures (the cache is left untouched).
    pub fn get_or_compute_rows_with(
        &self,
        key: CacheKey,
        data: &BlockSet,
        config: &IslaConfig,
        spec: &RowSpec,
        recovery: &RecoveryPolicy,
        rng: &mut dyn RngCore,
    ) -> Result<RowCacheLookup, IslaError> {
        if let Some(pre) = pinned_row_pre_estimate(data, config, spec) {
            return Ok(RowCacheLookup { pre, hit: true });
        }
        self.rows.lookup_exact(&self.counters, key, || {
            row_pre_estimate_with(data, config, spec, u64::MAX, recovery, rng)
        })
    }

    /// Epoch-aware lookup for appendable sets: returns the cached
    /// estimate when it covers `data`'s current epoch, resumes the
    /// cached pilot fold over only the segments sealed since the entry's
    /// epoch when it is older but still valid, and cold-folds every
    /// segment otherwise. Entries key by [`CacheKey::lineage`] so an
    /// append never orphans them.
    ///
    /// Each segment's pilots draw from an RNG seeded purely by
    /// `(lineage digest, salt, segment index)`, so a delta-resumed fold
    /// is bit-identical to a cold fold of the same history — callers
    /// never pass an RNG, and a hit and a miss leave no stream anywhere.
    ///
    /// A set whose answer the block sketches pin (see
    /// [`IslaConfig::sketch_sigma`]) gets the pinned estimate before the
    /// epoch layer is touched: no entry is filed, no segment folds, no
    /// counter moves, and the lookup reports a hit (no pilot ran).
    ///
    /// # Errors
    ///
    /// Pre-estimation failures (the cache is left untouched).
    pub fn get_or_compute_epoch(
        &self,
        key: CacheKey,
        data: &BlockSet,
        config: &IslaConfig,
        salt: u64,
    ) -> Result<CacheLookup, IslaError> {
        if let Some(pre) = pinned_pre_estimate(data, config) {
            return Ok(CacheLookup { pre, hit: true });
        }
        self.scalar.lookup_epoch(
            &self.counters,
            &key,
            data,
            PilotFold::segments,
            |fold, blocks, _, digest| fold_pilot_segment(fold, data, blocks, config, digest, salt),
            |fold| finish_pilot_fold(fold, data, config),
        )
    }

    /// Row-model analog of [`PreEstimateCache::get_or_compute_epoch`]:
    /// epoch-aware lookup for filtered/grouped queries over appendable
    /// sets, keyed by the lineage of a shape-bound key (carry the spec's
    /// fingerprint via [`CacheKey::with_row_shape`]). A filtered or
    /// grouped query block metadata pins gets the pinned estimate before
    /// the epoch layer is touched, as in
    /// [`PreEstimateCache::get_or_compute_epoch`].
    ///
    /// # Errors
    ///
    /// Row pre-estimation failures (the cache is left untouched).
    pub fn get_or_compute_rows_epoch(
        &self,
        key: CacheKey,
        data: &BlockSet,
        config: &IslaConfig,
        spec: &RowSpec,
        salt: u64,
    ) -> Result<RowCacheLookup, IslaError> {
        if let Some(pre) = pinned_row_pre_estimate(data, config, spec) {
            return Ok(RowCacheLookup { pre, hit: true });
        }
        self.rows.lookup_epoch(
            &self.counters,
            &key,
            data,
            RowPilotFold::segments,
            |fold, blocks, mark, digest| {
                fold_row_pilot_segment(fold, data, blocks, mark.rows, config, spec, digest, salt)
            },
            |fold| finish_row_pilot_fold(fold, data.total_len(), config),
        )
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
        }
    }

    /// Whether an entry exists for exactly this key (scalar or row
    /// population, decided by the key's query shape). A pure probe: no
    /// counters move, nothing is computed — the tool for pinning *which*
    /// key a caller populated (e.g. that a named plain `METHOD ISLA`
    /// filed its entry under its row-shape key).
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.scalar.exact.lock().contains_key(key) || self.rows.exact.lock().contains_key(key)
    }

    /// Number of exact-key entries (scalar + row).
    pub fn len(&self) -> usize {
        self.scalar.exact.lock().len() + self.rows.exact.lock().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current epoch-path counters.
    pub fn epoch_stats(&self) -> EpochCacheStats {
        EpochCacheStats {
            exact_hits: self.counters.epoch_exact.load(Ordering::Relaxed),
            delta_folds: self.counters.epoch_delta.load(Ordering::Relaxed),
            cold_folds: self.counters.epoch_cold.load(Ordering::Relaxed),
        }
    }

    /// Drops one entry (e.g. after the underlying table changed).
    ///
    /// Note a filtered/grouped entry is only reachable with its exact
    /// query-shape fingerprint; after mutating a table in place, prefer
    /// [`PreEstimateCache::invalidate_table`], which drops *every*
    /// shape's entries for that table.
    pub fn invalidate(&self, key: &CacheKey) {
        self.scalar.invalidate(key);
        self.rows.invalidate(key);
    }

    /// Drops every entry — scalar and row, all query shapes, exact and
    /// epoch layers — for a table, the invalidation to use after
    /// mutating its data in place. Appends never need this: the epoch
    /// layer validates its entries against the set's mark history
    /// itself.
    pub fn invalidate_table(&self, table: &str) {
        self.scalar.retain(|k| k.table != table);
        self.rows.retain(|k| k.table != table);
    }

    /// Drops every entry. Counters are preserved.
    pub fn clear(&self) {
        self.scalar.retain(|_| false);
        self.rows.retain(|_| false);
    }
}

/// Whether a cached fold at `entry_epoch` with shape `(entry_blocks,
/// entry_rows)` can be resumed against `data` at `current_epoch`: it
/// must describe a strictly earlier epoch whose recorded mark matches —
/// a mismatch means the set is a different lineage (re-registered,
/// projected differently) and the fold's segments do not describe these
/// blocks.
fn entry_resumes(
    entry_epoch: u64,
    entry_blocks: usize,
    entry_rows: u64,
    current_epoch: u64,
    data: &BlockSet,
) -> bool {
    entry_epoch < current_epoch
        && usize::try_from(entry_epoch)
            .ok()
            .and_then(|i| data.epoch_marks().get(i))
            .is_some_and(|m| m.blocks == entry_blocks && m.rows == entry_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use isla_datagen::normal_dataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(e: f64) -> IslaConfig {
        IslaConfig::builder().precision(e).build().unwrap()
    }

    #[test]
    fn second_lookup_hits_and_skips_the_pilots() {
        let ds = normal_dataset(100.0, 20.0, 100_000, 10, 60);
        let cache = PreEstimateCache::new();
        let cfg = config(0.5);
        let mut rng = StdRng::seed_from_u64(1);
        let first = cache
            .get_or_compute_with(
                CacheKey::new("t", "c", &cfg, &ds.blocks),
                &ds.blocks,
                &cfg,
                &RecoveryPolicy::strict(),
                &mut rng,
            )
            .unwrap();
        assert!(!first.hit);
        let mut rng = StdRng::seed_from_u64(2);
        let second = cache
            .get_or_compute_with(
                CacheKey::new("t", "c", &cfg, &ds.blocks),
                &ds.blocks,
                &cfg,
                &RecoveryPolicy::strict(),
                &mut rng,
            )
            .unwrap();
        assert!(second.hit);
        assert_eq!(second.pre, first.pre, "hit returns the cached estimate");
        // A hit consumes no randomness: the stream is exactly where the
        // seed left it.
        let mut check = StdRng::seed_from_u64(2);
        assert_eq!(rng.next_u64(), check.next_u64());
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.stats().lookups(), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_coordinates_or_configs_miss() {
        let ds = normal_dataset(100.0, 20.0, 50_000, 5, 61);
        let cache = PreEstimateCache::new();
        let cfg = config(0.5);
        let tighter = config(0.1);
        let mut rng = StdRng::seed_from_u64(3);
        for key in [
            CacheKey::new("t", "a", &cfg, &ds.blocks),
            CacheKey::new("t", "b", &cfg, &ds.blocks),
            CacheKey::new("u", "a", &cfg, &ds.blocks),
            CacheKey::new("t", "a", &tighter, &ds.blocks),
        ] {
            let lookup = cache
                .get_or_compute_with(key, &ds.blocks, &cfg, &RecoveryPolicy::strict(), &mut rng)
                .unwrap();
            assert!(!lookup.hit);
        }
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 4 });
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn reshaped_data_misses_instead_of_serving_stale_estimates() {
        // The same catalog coordinates over data of a different size (or
        // block layout) must not reuse the old σ̂/rate.
        let small = normal_dataset(100.0, 20.0, 50_000, 5, 65);
        let grown = normal_dataset(100.0, 20.0, 80_000, 5, 65);
        let cache = PreEstimateCache::new();
        let cfg = config(0.5);
        let mut rng = StdRng::seed_from_u64(5);
        cache
            .get_or_compute_with(
                CacheKey::new("t", "c", &cfg, &small.blocks),
                &small.blocks,
                &cfg,
                &RecoveryPolicy::strict(),
                &mut rng,
            )
            .unwrap();
        let after_growth = cache
            .get_or_compute_with(
                CacheKey::new("t", "c", &cfg, &grown.blocks),
                &grown.blocks,
                &cfg,
                &RecoveryPolicy::strict(),
                &mut rng,
            )
            .unwrap();
        assert!(!after_growth.hit, "grown table must re-run the pilots");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn unfiltered_pre_estimates_never_serve_filtered_queries() {
        // Regression: before the query-shape fingerprint, a cached
        // unfiltered pre-estimate keyed only by (table, column, config,
        // data shape) would have been served to a filtered query over
        // the same column — whose population (selectivity, sketch,
        // rate) is entirely different.
        use crate::engine::rows::RowSpec;
        use isla_storage::{CmpOp, ColumnPredicate, RowFilter, RowsBlock};

        let n = 50_000usize;
        let x: Vec<f64> = isla_datagen::normal_values(100.0, 20.0, n, 66);
        let y: Vec<f64> = x.iter().map(|v| v * 0.5).collect();
        let data = RowsBlock::split(vec![x, y], 5);
        let cache = PreEstimateCache::new();
        let cfg = config(0.5);

        // The unfiltered (scalar) query populates the scalar map.
        let mut rng = StdRng::seed_from_u64(6);
        let plain = cache
            .get_or_compute_with(
                CacheKey::new("t", "x", &cfg, &data),
                &data,
                &cfg,
                &RecoveryPolicy::strict(),
                &mut rng,
            )
            .unwrap();
        assert!(!plain.hit);

        // The filtered query over the same column must MISS, not reuse
        // the unfiltered estimate.
        let spec = RowSpec {
            agg_column: 0,
            filter: RowFilter::new(vec![ColumnPredicate {
                column: 1,
                op: CmpOp::Gt,
                value: 50.0,
            }]),
            group_by: None,
        };
        let key = CacheKey::new("t", "x", &cfg, &data).with_row_shape(spec.fingerprint());
        let filtered = cache
            .get_or_compute_rows_with(
                key.clone(),
                &data,
                &cfg,
                &spec,
                &RecoveryPolicy::strict(),
                &mut rng,
            )
            .unwrap();
        assert!(!filtered.hit, "filtered query must re-run the pilots");
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        // The filtered population really is different: roughly half the
        // rows match.
        assert!(filtered.pre.selectivity < 0.7 && filtered.pre.selectivity > 0.3);

        // Repeating the same filtered shape hits; a *different*
        // predicate misses again.
        let repeat = cache
            .get_or_compute_rows_with(key, &data, &cfg, &spec, &RecoveryPolicy::strict(), &mut rng)
            .unwrap();
        assert!(repeat.hit);
        let other_spec = RowSpec {
            filter: RowFilter::new(vec![ColumnPredicate {
                column: 1,
                op: CmpOp::Gt,
                value: 55.0,
            }]),
            ..spec.clone()
        };
        let other_key =
            CacheKey::new("t", "x", &cfg, &data).with_row_shape(other_spec.fingerprint());
        let other = cache
            .get_or_compute_rows_with(
                other_key,
                &data,
                &cfg,
                &other_spec,
                &RecoveryPolicy::strict(),
                &mut rng,
            )
            .unwrap();
        assert!(!other.hit, "a different predicate is a different entry");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 3 });
        assert_eq!(cache.len(), 3);

        // Table-level invalidation reaches every shape's entries —
        // per-key invalidation cannot enumerate the fingerprints.
        cache.invalidate_table("t");
        assert!(cache.is_empty(), "all shapes dropped for the table");
        let after = cache
            .get_or_compute_rows_with(
                CacheKey::new("t", "x", &cfg, &data).with_row_shape(spec.fingerprint()),
                &data,
                &cfg,
                &spec,
                &RecoveryPolicy::strict(),
                &mut rng,
            )
            .unwrap();
        assert!(!after.hit, "invalidation forces a recompute");
    }

    #[test]
    fn sketch_sigma_and_pilot_sigma_never_share_a_slot() {
        // The `sketch_sigma` flag is fingerprint-hashed: a query whose
        // answer the block sketches pinned and one whose σ came from the
        // sampling pilot describe different plans and must key
        // separately — an executor that derived its key before toggling
        // the flag would silently alias them.
        let ds = normal_dataset(100.0, 20.0, 50_000, 5, 63);
        let cache = PreEstimateCache::new();
        let pilot_cfg = config(0.5);
        let mut sketch_cfg = config(0.5);
        sketch_cfg.sketch_sigma = true;
        let pilot_key = CacheKey::new("t", "c", &pilot_cfg, &ds.blocks);
        let sketch_key = CacheKey::new("t", "c", &sketch_cfg, &ds.blocks);
        assert_ne!(pilot_key, sketch_key, "the flag is part of the key");
        assert_ne!(pilot_key.digest(), sketch_key.digest());
        let mut rng = StdRng::seed_from_u64(8);
        cache
            .get_or_compute_with(
                sketch_key.clone(),
                &ds.blocks,
                &sketch_cfg,
                &RecoveryPolicy::strict(),
                &mut rng,
            )
            .unwrap();
        assert!(cache.contains(&sketch_key));
        assert!(
            !cache.contains(&pilot_key),
            "a pinned entry must not answer pilot-σ probes"
        );
        let pilot = cache
            .get_or_compute_with(
                pilot_key.clone(),
                &ds.blocks,
                &pilot_cfg,
                &RecoveryPolicy::strict(),
                &mut rng,
            )
            .unwrap();
        assert!(!pilot.hit, "pilot-σ lookup misses, never aliases");
        assert_eq!(cache.len(), 2);
        // digest() is a stable function of the key alone.
        assert_eq!(pilot_key.digest(), pilot_key.clone().digest());
    }

    #[test]
    fn epoch_delta_fold_is_bit_identical_to_a_cold_fold() {
        let mut ds = normal_dataset(100.0, 20.0, 60_000, 6, 70);
        let extra = normal_dataset(105.0, 22.0, 20_000, 2, 71);
        let cfg = config(0.5);
        let warm = PreEstimateCache::new();
        let key = |d: &BlockSet| CacheKey::new("t", "c", &cfg, d);
        let salt = 0xA5;
        let first = warm
            .get_or_compute_epoch(key(&ds.blocks), &ds.blocks, &cfg, salt)
            .unwrap();
        assert!(!first.hit);
        // Two sealed appends: two new epochs on top of the folded one.
        for i in 0..extra.blocks.block_count() {
            ds.blocks
                .append_block(extra.blocks.block(i).clone())
                .unwrap();
        }
        assert_eq!(ds.blocks.epoch(), 2);
        let delta = warm
            .get_or_compute_epoch(key(&ds.blocks), &ds.blocks, &cfg, salt)
            .unwrap();
        assert!(!delta.hit, "a grown set re-folds the delta");
        // A cold cache replaying the full history must agree bit for bit.
        let cold = PreEstimateCache::new();
        let full = cold
            .get_or_compute_epoch(key(&ds.blocks), &ds.blocks, &cfg, salt)
            .unwrap();
        assert_eq!(delta.pre, full.pre, "delta resume ≡ cold replay");
        assert_eq!(
            warm.epoch_stats(),
            EpochCacheStats {
                exact_hits: 0,
                delta_folds: 1,
                cold_folds: 1,
            }
        );
        assert_eq!(cold.epoch_stats().cold_folds, 1);
        // Repeating at the same epoch is an exact hit with no folding.
        let hit = warm
            .get_or_compute_epoch(key(&ds.blocks), &ds.blocks, &cfg, salt)
            .unwrap();
        assert!(hit.hit);
        assert_eq!(hit.pre, full.pre);
        assert_eq!(warm.epoch_stats().exact_hits, 1);
        // A different salt is a different pilot stream.
        let other = PreEstimateCache::new();
        let salted = other
            .get_or_compute_epoch(key(&ds.blocks), &ds.blocks, &cfg, salt + 1)
            .unwrap();
        assert_ne!(salted.pre, full.pre, "salt must move the streams");
    }

    proptest::proptest! {
        /// Satellite invariant: for ANY append schedule, serving from the
        /// cached fold plus a pilot over only the new epochs is
        /// bit-identical to a cold full pre-estimate of the grown set.
        #[test]
        fn cached_delta_folds_match_cold_replay_for_any_append_schedule(
            initial_blocks in 2usize..6,
            schedule in proptest::collection::vec((1usize..4, 500usize..3_000), 1..5),
            seed in 0u64..(1 << 48),
        ) {
            let cfg = config(0.5);
            let mut ds = normal_dataset(100.0, 20.0, 24_000, initial_blocks, seed);
            let warm = PreEstimateCache::new();
            let salt = 0x5EED;
            let mut latest = warm
                .get_or_compute_epoch(CacheKey::new("t", "c", &cfg, &ds.blocks), &ds.blocks, &cfg, salt)
                .unwrap();
            for (i, (blocks, rows)) in schedule.iter().copied().enumerate() {
                let extra = normal_dataset(
                    100.0 + i as f64,
                    20.0,
                    rows.max(blocks),
                    blocks,
                    seed.wrapping_add(i as u64 + 1),
                );
                for b in 0..extra.blocks.block_count() {
                    ds.blocks.append_block(extra.blocks.block(b).clone()).unwrap();
                }
                latest = warm
                    .get_or_compute_epoch(
                        CacheKey::new("t", "c", &cfg, &ds.blocks),
                        &ds.blocks,
                        &cfg,
                        salt,
                    )
                    .unwrap();
            }
            let cold = PreEstimateCache::new()
                .get_or_compute_epoch(CacheKey::new("t", "c", &cfg, &ds.blocks), &ds.blocks, &cfg, salt)
                .unwrap();
            proptest::prop_assert_eq!(latest.pre, cold.pre);
            // Only the very first lookup folded from scratch; every
            // post-append lookup resumed the cached fold.
            proptest::prop_assert_eq!(warm.epoch_stats().cold_folds, 1);
            proptest::prop_assert_eq!(warm.epoch_stats().delta_folds, schedule.len() as u64);
            // One epoch per appended block, on top of the initial mark.
            let appended: usize = schedule.iter().map(|(blocks, _)| blocks).sum();
            proptest::prop_assert_eq!(ds.blocks.epoch(), appended as u64);
        }
    }

    #[test]
    fn epoch_row_delta_matches_cold_and_foreign_history_cold_folds() {
        use crate::engine::rows::RowSpec;
        use isla_storage::{CmpOp, ColumnPredicate, RowFilter, RowsBlock};
        use std::sync::Arc;

        let n = 40_000usize;
        let x = isla_datagen::normal_values(100.0, 20.0, n, 72);
        let y: Vec<f64> = x.iter().map(|v| v * 0.5).collect();
        let mut data = RowsBlock::split(vec![x, y], 4);
        let spec = RowSpec {
            agg_column: 0,
            filter: RowFilter::new(vec![ColumnPredicate {
                column: 1,
                op: CmpOp::Gt,
                value: 45.0,
            }]),
            group_by: None,
        };
        let cfg = config(0.5);
        let key =
            |d: &BlockSet| CacheKey::new("t", "x", &cfg, d).with_row_shape(spec.fingerprint());
        let warm = PreEstimateCache::new();
        warm.get_or_compute_rows_epoch(key(&data), &data, &cfg, &spec, 7)
            .unwrap();
        let x2 = isla_datagen::normal_values(90.0, 15.0, 8_000, 73);
        let y2: Vec<f64> = x2.iter().map(|v| v * 0.5).collect();
        data.append_block(Arc::new(RowsBlock::new(vec![x2, y2])))
            .unwrap();
        let delta = warm
            .get_or_compute_rows_epoch(key(&data), &data, &cfg, &spec, 7)
            .unwrap();
        let cold = PreEstimateCache::new();
        let full = cold
            .get_or_compute_rows_epoch(key(&data), &data, &cfg, &spec, 7)
            .unwrap();
        assert_eq!(delta.pre, full.pre, "row delta resume ≡ cold replay");
        assert_eq!(warm.epoch_stats().delta_folds, 1);
        let repeat = warm
            .get_or_compute_rows_epoch(key(&data), &data, &cfg, &spec, 7)
            .unwrap();
        assert!(repeat.hit);

        // A set whose mark history disagrees with the cached entry's
        // shape (same lineage coordinates, different actual blocks)
        // must cold-fold, never resume a fold that doesn't describe it.
        let x3 = isla_datagen::normal_values(100.0, 20.0, n / 2, 74);
        let y3: Vec<f64> = x3.iter().map(|v| v * 0.5).collect();
        let mut foreign = RowsBlock::split(vec![x3, y3], 3);
        let x4 = isla_datagen::normal_values(100.0, 20.0, 1_000, 75);
        let y4: Vec<f64> = x4.iter().map(|v| v * 0.5).collect();
        foreign
            .append_block(Arc::new(RowsBlock::new(vec![x4, y4])))
            .unwrap();
        let before = warm.epoch_stats().cold_folds;
        warm.get_or_compute_rows_epoch(key(&foreign), &foreign, &cfg, &spec, 7)
            .unwrap();
        assert_eq!(
            warm.epoch_stats().cold_folds,
            before + 1,
            "mismatched epoch history must not resume the cached fold"
        );
    }

    #[test]
    fn per_request_precisions_cannot_grow_the_scalar_layers_past_the_cap() {
        use crate::engine::seed::{seeded_rng, stream_seed};

        // What an ad-hoc workload sends: a fresh precision literal — so
        // a fresh config fingerprint, so a fresh key — on every request.
        let ds = normal_dataset(100.0, 20.0, 4_000, 2, 67);
        let mut grown = normal_dataset(100.0, 20.0, 4_000, 2, 67);
        let extra = normal_dataset(100.0, 20.0, 1_000, 1, 68);
        grown
            .blocks
            .append_block(extra.blocks.block(0).clone())
            .unwrap();
        let cache = PreEstimateCache::new();
        let salt = 0x5A17;
        let request = |i: usize| {
            let cfg = config(0.5 + i as f64 * 1e-3);
            let key = CacheKey::new("t", "c", &cfg, &ds.blocks);
            (cfg, key)
        };
        // Pilots seeded from the key alone: a recomputation after an
        // eviction must reproduce the evicted estimate bit for bit.
        let lookup = |i: usize| {
            let (cfg, key) = request(i);
            let mut rng = seeded_rng(stream_seed(key.digest(), salt));
            cache
                .get_or_compute_with(key, &ds.blocks, &cfg, &RecoveryPolicy::strict(), &mut rng)
                .unwrap()
        };
        let first: Vec<PreEstimate> = (0..MAX_ENTRIES + 76)
            .map(|i| {
                let (cfg, _) = request(i);
                let key = CacheKey::new("t", "c", &cfg, &grown.blocks);
                cache
                    .get_or_compute_epoch(key, &grown.blocks, &cfg, salt)
                    .unwrap();
                let found = lookup(i);
                assert!(!found.hit);
                found.pre
            })
            .collect();
        assert_eq!(cache.len(), MAX_ENTRIES, "the exact layer stops at the cap");
        assert_eq!(cache.scalar.epoch.lock().len(), MAX_ENTRIES);
        assert_eq!(cache.stats().misses as usize, 2 * (MAX_ENTRIES + 76));

        // An evicted key is simply a miss again.
        let evicted = (0..first.len())
            .find(|&i| !cache.contains(&request(i).1))
            .expect("76 keys were evicted");
        let again = lookup(evicted);
        assert!(!again.hit, "an evicted entry recomputes");
        assert_eq!(again.pre, first[evicted], "to the bit-identical estimate");
        assert!(lookup(evicted).hit, "and is cached again");
        assert_eq!(cache.len(), MAX_ENTRIES);
    }

    #[test]
    fn invalidate_and_clear_force_recomputation() {
        let ds = normal_dataset(100.0, 20.0, 50_000, 5, 62);
        let cache = PreEstimateCache::new();
        let cfg = config(0.5);
        let key = CacheKey::new("t", "c", &cfg, &ds.blocks);
        let mut rng = StdRng::seed_from_u64(4);
        cache
            .get_or_compute_with(
                key.clone(),
                &ds.blocks,
                &cfg,
                &RecoveryPolicy::strict(),
                &mut rng,
            )
            .unwrap();
        cache.invalidate(&key);
        assert!(cache.is_empty());
        let lookup = cache
            .get_or_compute_with(
                key.clone(),
                &ds.blocks,
                &cfg,
                &RecoveryPolicy::strict(),
                &mut rng,
            )
            .unwrap();
        assert!(!lookup.hit, "invalidation forces a recompute");
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 2, "counters survive clear");
    }
}
