//! Row-model execution: predicate and `GROUP BY` pushdown through the
//! engine.
//!
//! The scalar pipeline answers `AVG(col)` over a whole column. Real
//! workloads filter and group; this module generalizes every phase to
//! row tuples:
//!
//! * **Pre-estimation** ([`row_pre_estimate_with`]) — pilot rows are drawn
//!   proportionally across blocks, evaluated against the compiled
//!   [`RowFilter`], and partitioned by group key. The pilots yield the
//!   predicate's selectivity, each group's share of the raw rows, and a
//!   per-group `σ̂`/`sketch0`;
//! * **Planning** ([`RowPlan`]) — per-group shift, boundaries, and the
//!   calculation rate, sized as the *maximum* over groups of
//!   `m_g / (share_g · M)` so that every group's expected matched sample
//!   meets the precision target, not just the population average;
//! * **Metadata** — unless [`IslaConfig::sample_groups`] is set, a
//!   precision-sized plan answers every block whose zone map decides the
//!   filter from block metadata: a block that matches everywhere gives
//!   its exact row count and `Σa` (per key when grouped) from its
//!   sketch, one that matches nowhere gives nothing, and only the rest —
//!   the residue — is sampled, at a rate scaled to the residue's share
//!   of each group. Under a filter, `SUM`'s row count is then exact over
//!   the decided blocks and *estimated* over the residue; a plan whose
//!   every block is decided is exact ([`pinned_row_pre_estimate`]);
//! * **Calculation** ([`execute_row_block`]) — one uniform row draw per
//!   sample, the filter selecting a batch of tuples at a time, each
//!   match's aggregated value folded into *that group's* accumulator
//!   (the row fold, `super::fold`), per-group iteration per block;
//! * **Projection** — every phase that touches rows (pilot draws,
//!   calculation draws, the exact scan) asks storage for only the
//!   columns the spec reads, `{agg} ∪ filter columns ∪ {group_by}`, and
//!   evaluates the spec re-indexed against that compact tuple: a
//!   sampled row costs what the query reads, not what the table holds;
//! * **Zones** — every filtered draw first asks the block what its
//!   min/max zone map already decides ([`DataBlock::zone`]): a block
//!   that provably matches nothing is not read at all, and one that
//!   provably matches everywhere is read without the filter's columns
//!   and without the per-row test. A skipped draw is a draw whose
//!   outcome the metadata decided, so it still counts wherever a rate
//!   or a share is computed ([`RowBlockOutcome::offered`], `pilot_rows`)
//!   and answers do not move a bit; only [`RowBlockOutcome::draws`] —
//!   rows actually read — falls;
//! * **Summarization** ([`super::GroupedPartial`]) — a per-group
//!   mergeable map that combines in any completion order and weights
//!   each block's per-group answer by its estimated matched row count,
//!   plus the decided blocks' exact partials.
//!
//! [`run_rows`] ties the phases together on any [`BlockScheduler`]; as
//! in the scalar engine, per-block seeds are derived up front so every
//! scheduler returns the bit-identical grouped answer.

use std::collections::BTreeMap;

use rand::RngCore;

use isla_stats::{required_sample_size, NeumaierSum, WelfordMoments};
use isla_storage::{
    proportional_allocation, sample_row_columns_from_block,
    sample_row_columns_from_block_surviving, skip_row_draws, BlockSet, ColumnMoments, DataBlock,
    RowFilter, RowSampleBuf, ZoneMatch,
};

use super::fold::{stage, tuple_fields, GroupKeys, Groups, UNGROUPED_KEY};
use super::seed;
use crate::accumulate::SampleAccumulator;
use crate::block_exec::{iteration_phase, Fallback};
use crate::boundaries::DataBoundaries;
use crate::config::IslaConfig;
use crate::error::IslaError;

use super::partial::{GroupedAggregate, GroupedPartial};
use super::plan::{sample_size, shifted_boundaries, RateSpec};
use super::recovery::RecoveryPolicy;
use super::scheduler::BlockScheduler;
use super::{run_calculation, CalcPlan};

/// What a row-model query computes: the aggregated column, the compiled
/// predicate, and the optional group-by column.
#[derive(Debug, Clone, PartialEq)]
pub struct RowSpec {
    /// Positional index of the aggregated column.
    pub agg_column: usize,
    /// Compiled `WHERE` conjunction ([`RowFilter::all`] when absent).
    pub filter: RowFilter,
    /// Positional index of the `GROUP BY` column, when grouping.
    pub group_by: Option<usize>,
}

impl RowSpec {
    /// A spec aggregating one column with no predicate and no grouping
    /// (the scalar pipeline's shape).
    pub fn column(agg_column: usize) -> Self {
        Self {
            agg_column,
            filter: RowFilter::all(),
            group_by: None,
        }
    }

    /// The widest column index the spec touches.
    fn max_column(&self) -> usize {
        self.agg_column
            .max(self.group_by.unwrap_or(0))
            .max(self.filter.max_column().unwrap_or(0))
    }

    /// Validates the spec against every block's tuple width — per
    /// block, not against the set's widest member, so a heterogeneous
    /// set fails here with a typed error instead of panicking
    /// mid-execution on a narrow block's row.
    ///
    /// # Errors
    ///
    /// [`IslaError::InvalidConfig`] when a referenced column is out of
    /// any block's width.
    pub fn validate(&self, data: &BlockSet) -> Result<(), IslaError> {
        for (i, block) in data.iter().enumerate() {
            if self.max_column() >= block.width() {
                return Err(IslaError::InvalidConfig(format!(
                    "row spec references column {} but block {i} rows are {} wide",
                    self.max_column(),
                    block.width()
                )));
            }
        }
        Ok(())
    }

    /// The group key of a row: the group column's value bits, or the
    /// single all-rows key when ungrouped.
    #[inline]
    pub fn group_key(&self, row: &[f64]) -> u64 {
        match self.group_by {
            Some(col) => row[col].to_bits(),
            None => UNGROUPED_KEY,
        }
    }

    /// A stable digest of the query shape (aggregated column, predicate,
    /// group-by), used to key pre-estimation caches: a cached estimate
    /// for one shape can never serve another.
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.agg_column.hash(&mut h);
        self.group_by.hash(&mut h);
        self.filter.fingerprint().hash(&mut h);
        h.finish()
    }
}

/// The columns a spec reads and the spec re-indexed against them.
///
/// `columns` is `{agg_column} ∪ filter columns ∪ {group_by}`, ascending
/// and de-duplicated — what the row kernels are asked to gather and the
/// exact scan to assemble. `spec` is the same query with every column
/// index replaced by its position in `columns`, so it evaluates against
/// the compact tuple exactly as the original evaluates against the full
/// row: the same comparisons on the same values in the same conjunct
/// order (re-indexing is monotone, so [`RowFilter`]'s canonical order
/// is preserved). A spec that reads every column projects to itself.
#[derive(Debug, Clone)]
pub(super) struct Projection {
    pub(super) columns: Vec<usize>,
    pub(super) spec: RowSpec,
}

impl Projection {
    pub(super) fn of(spec: &RowSpec) -> Self {
        let (columns, filter) = spec
            .filter
            .projected([spec.agg_column].into_iter().chain(spec.group_by));
        // Every referenced column is in `columns`, so its position is
        // the count of smaller entries.
        let at = |col: usize| columns.partition_point(|&c| c < col);
        let spec = RowSpec {
            agg_column: at(spec.agg_column),
            filter,
            group_by: spec.group_by.map(at),
        };
        Self { columns, spec }
    }
}

/// How a spec's draws and scans read a block, by what the block's zone
/// map decides about the filter ([`DataBlock::zone`]). One read loop
/// serves every verdict; only the projection handed to it differs.
#[derive(Debug, Clone)]
pub(super) struct ZonedRead {
    /// The spec's filter in the blocks' own column indices — what the
    /// zone map is asked about.
    pub(super) filter: RowFilter,
    /// Undecided blocks: the spec's full read set, the predicate tested
    /// on every row.
    pub(super) tested: Projection,
    /// Blocks where every row provably matches: the spec with its
    /// filter dropped — only the aggregate (+ group) columns are read
    /// and no row is tested.
    pub(super) proven: Projection,
}

impl ZonedRead {
    pub(super) fn of(spec: &RowSpec) -> Self {
        Self {
            filter: spec.filter.clone(),
            tested: Projection::of(spec),
            proven: Projection::of(&RowSpec {
                filter: RowFilter::all(),
                ..spec.clone()
            }),
        }
    }

    /// The read a hit count makes of `spec`: its filter and group
    /// columns, never the aggregate. A count aggregates no column, so a
    /// column it reads anyway — the group column, else a filter column —
    /// stands in for the aggregate, and every projection holds only
    /// what the count reads (an ungrouped all-match block's stand-in is
    /// never read: the verdict alone is its count).
    fn counting(spec: &RowSpec) -> Self {
        let agg_column = spec
            .group_by
            .or_else(|| spec.filter.max_column())
            .unwrap_or(0);
        Self::of(&RowSpec {
            agg_column,
            ..spec.clone()
        })
    }

    /// The projection to read `block` through, or `None` when no row of
    /// it can match and there is nothing to read.
    pub(super) fn of_block(&self, block: &dyn DataBlock) -> Option<&Projection> {
        match block.zone(&self.filter) {
            ZoneMatch::Matchless => None,
            ZoneMatch::AllMatch => Some(&self.proven),
            ZoneMatch::Mixed => Some(&self.tested),
        }
    }
}

/// Pre-estimation output for one group of a row-model query.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupPre {
    /// Group key (bit pattern of the group column value).
    pub key_bits: u64,
    /// Group key as a value.
    pub key: f64,
    /// Estimated standard deviation of the aggregated column within the
    /// group's matching rows (0 for effectively constant groups).
    pub sigma: f64,
    /// The group's sketch estimator.
    pub sketch0: f64,
    /// Fraction of *raw* rows that match the predicate and belong to
    /// this group.
    pub share: f64,
    /// Matched pilot samples behind these estimates.
    pub pilot_matched: u64,
    /// Required matched samples `m_g = ⌈z²σ_g²/e²⌉`.
    pub required_samples: u64,
}

/// Pre-estimation output for a row-model query: per-group estimates
/// plus the predicate's selectivity, all from pilot row draws.
#[derive(Debug, Clone, PartialEq)]
pub struct RowPreEstimate {
    /// Per-group estimates, sorted by key bits.
    pub groups: Vec<GroupPre>,
    /// Estimated fraction of rows matching the predicate.
    pub selectivity: f64,
    /// Derived calculation rate: `max_g m_g / (share_g · M)`, clamped to
    /// `(0, 1]` (0 when every group is constant).
    pub rate: f64,
    /// Raw pilot rows drawn (both pilot passes) — every index draw the
    /// pilots spent, including the draws on blocks whose zone map
    /// already decided the predicate and that were therefore not read:
    /// the denominator of `selectivity` and of every group share. 0 when
    /// block metadata pinned the estimate
    /// ([`pinned_row_pre_estimate`]): then every group's `pilot_matched`
    /// is its exact row count and its `sketch0` its exact mean.
    pub pilot_rows: u64,
}

/// Minimum raw pilot rows behind a non-trivial predicate's hit-rate
/// estimate (relative error ≈ √(1/n) ≈ 1% at moderate selectivity).
pub const SELECTIVITY_PILOT_ROWS: u64 = 10_000;

/// Runs row-model pre-estimation under `recovery`: two pilot passes of
/// proportional row draws, filtered and partitioned by group.
///
/// The first pass (sized like the scalar σ pilot) estimates the
/// selectivity, the group shares, and a first per-group `σ̂`; the second
/// pass extends the draw until the *smallest* group's matched sample
/// supports its relaxed-precision sketch, exactly as the scalar sketch
/// pilot does for the whole column.
///
/// `max_pilot_rows` caps the total pilot rows (`u64::MAX` for none) —
/// the budget-driven path (`SAMPLES n` without a precision) uses it so
/// the pilots can never silently dwarf the caller's explicit budget.
/// The recovery policy works as in
/// [`crate::pre_estimation::pre_estimate_with`]: strict fails on the
/// first block failure; best-effort draws the pilots through the
/// surviving row sampler (transient retries in place, failed blocks
/// skipped, corrupt rows dropped).
///
/// # Errors
///
/// [`IslaError::InsufficientData`] when the data is empty, no pilot
/// row matches the predicate, or (best-effort) every pilot draw was
/// lost; storage errors from sampling in strict mode.
pub fn row_pre_estimate_with(
    data: &BlockSet,
    config: &IslaConfig,
    spec: &RowSpec,
    max_pilot_rows: u64,
    recovery: &RecoveryPolicy,
    rng: &mut dyn RngCore,
) -> Result<RowPreEstimate, IslaError> {
    let data_size = data.total_len();
    if data_size == 0 {
        return Err(IslaError::InsufficientData(
            "block set holds no rows".to_string(),
        ));
    }
    spec.validate(data)?;
    let read = ZonedRead::of(spec);

    let mut st = RowPilotFold::new();

    // Pilot 1: selectivity, group shares, first σ̂ per group.
    let pilot1 = config
        .sigma_pilot_size
        .min(data_size)
        .min(max_pilot_rows)
        .max(2);
    pilot_draw_rows(data, &read, pilot1, recovery, rng, &mut st)?;
    if st.matched == 0 {
        return Err(IslaError::InsufficientData(format!(
            "predicate matched none of {} pilot rows; selectivity is effectively zero",
            st.drawn
        )));
    }

    // Pilot 2: extend until every group's matched sample supports its
    // relaxed-precision sketch (`tₑ·e`), as the scalar sketch pilot —
    // and, under a non-trivial predicate, until the hit rate itself is
    // tight: the selectivity scales `SUM`/`COUNT`, so its relative
    // error (≈ √(1/draws) at moderate selectivity) must not dominate
    // the answer.
    let pilot2 = pilot_extension_want(&st, config, spec)
        .min(data_size)
        .min(max_pilot_rows)
        .saturating_sub(st.drawn);
    if pilot2 > 0 {
        pilot_draw_rows(data, &read, pilot2, recovery, rng, &mut st)?;
    }

    finish_row_pilot_state(&st, data_size, config)
}

/// The row pre-estimate block metadata pins, when
/// [`IslaConfig::sample_groups`] is off and the spec filters or groups
/// (a plain column's pin is [`crate::sketched_mean`]): every
/// block's zone verdict for the filter is decided ([`DataBlock::zone`];
/// an armed fault or a non-finite value answers `Mixed`), and every
/// block that matches everywhere knows its exact partial — ungrouped,
/// from the finite aggregated column of its [`DataBlock::sketch`] hook;
/// grouped, from a [`isla_storage::KeyedSketch`] of the aggregated
/// column by the group column with finite moments under every key
/// ([`BlockSet::keyed_sketches`]). Each group is then exact: σ = 0,
/// `sketch0` its mean (the common value when constant), `pilot_matched`
/// its row count, share and selectivity over the set's rows, rate 0 and
/// no pilot row. `None` — run the pilots — otherwise, or when no row
/// matches.
///
/// Zone verdicts are asked first, so a query that cannot pin reads no
/// sketch; the keyed sketches it builds are cached on the set.
pub fn pinned_row_pre_estimate(
    data: &BlockSet,
    config: &IslaConfig,
    spec: &RowSpec,
) -> Option<RowPreEstimate> {
    if !Decided::applies(config, spec) {
        return None;
    }
    spec.validate(data).ok()?;
    // Any undecided block with rows rules the pin out before a sketch
    // is read.
    let verdicts = zone_verdicts(data, spec);
    let mut blocks = data.iter().zip(&verdicts);
    if blocks.any(|(b, &v)| v == ZoneMatch::Mixed && !b.is_empty()) {
        return None;
    }
    let decided = Decided::of(data, spec, verdicts);
    let matched: u64 = decided.groups.iter().map(|g| g.rows).sum();
    if decided.residue_rows > 0 || matched == 0 {
        return None;
    }
    let data_size = data.total_len() as f64;
    let groups = decided
        .groups
        .iter()
        .map(|g| GroupPre {
            key_bits: g.key_bits,
            key: f64::from_bits(g.key_bits),
            sigma: 0.0,
            sketch0: g.mean(),
            share: g.rows as f64 / data_size,
            pilot_matched: g.rows,
            required_samples: 0,
        })
        .collect();
    Some(RowPreEstimate {
        groups,
        selectivity: matched as f64 / data_size,
        rate: 0.0,
        pilot_rows: 0,
    })
}

/// Each block's zone verdict for `spec`'s filter.
fn zone_verdicts(data: &BlockSet, spec: &RowSpec) -> Vec<ZoneMatch> {
    data.iter().map(|b| b.zone(&spec.filter)).collect()
}

/// One key's exact rows over the blocks whose partial metadata knows:
/// how many, and their Σa, min and max.
#[derive(Debug, Clone)]
pub(super) struct DecidedGroup {
    pub(super) key_bits: u64,
    pub(super) rows: u64,
    sum: NeumaierSum,
    min: f64,
    max: f64,
}

impl DecidedGroup {
    /// The exact mean: the common value when constant, else `Σa / rows`.
    pub(super) fn mean(&self) -> f64 {
        if self.min == self.max {
            self.min
        } else {
            self.sum.value() / self.rows as f64
        }
    }

    /// The exact `Σa`.
    pub(super) fn sum(&self) -> f64 {
        self.sum.value()
    }
}

/// What block metadata decides of a spec over a set: which blocks must
/// be sampled — the residue — and the exact per-key partials of the
/// rest. A block that provably matches nothing contributes nothing. A
/// block that provably matches everywhere contributes its sketch's row
/// count and `Σa` (per key when grouped), unless that sketch is missing
/// or holds a non-finite value, or the block matches only in part: those
/// are the residue. When any key's `Σa` overflows, every block that
/// matches is residue.
#[derive(Debug, Clone)]
pub(super) struct Decided {
    /// Per block: whether it is sampled.
    sampled: Vec<bool>,
    /// Rows of the sampled blocks.
    residue_rows: u64,
    /// The decided blocks' partials per key, ascending by key bits.
    groups: Vec<DecidedGroup>,
}

impl Decided {
    /// Whether metadata may answer part of `spec` under `config`: with
    /// [`IslaConfig::sample_groups`] off, for a spec that filters or
    /// groups.
    fn applies(config: &IslaConfig, spec: &RowSpec) -> bool {
        !config.sample_groups && (spec.group_by.is_some() || !spec.filter.is_trivial())
    }

    /// The split of `data` under `spec`, given each block's zone verdict
    /// for its filter.
    fn of(data: &BlockSet, spec: &RowSpec, verdicts: Vec<ZoneMatch>) -> Self {
        let mut sampled: Vec<bool> = verdicts.iter().map(|&v| v == ZoneMatch::Mixed).collect();
        // Folds a matching block's part of one key in. Blocks arrive in
        // order, so each key's sum adds its parts in block order.
        let mut groups: Vec<DecidedGroup> = Vec::new();
        let mut add = |key_bits: u64, rows: u64, m: &ColumnMoments| {
            if rows == 0 {
                return;
            }
            let at = groups
                .binary_search_by_key(&key_bits, |g| g.key_bits)
                .unwrap_or_else(|at| {
                    let group = DecidedGroup {
                        key_bits,
                        rows: 0,
                        sum: NeumaierSum::new(),
                        min: f64::INFINITY,
                        max: f64::NEG_INFINITY,
                    };
                    groups.insert(at, group);
                    at
                });
            let group = &mut groups[at];
            group.rows += rows;
            group.sum.add(m.sum);
            group.min = group.min.min(m.min);
            group.max = group.max.max(m.max);
        };
        let matching: Vec<usize> = (0..verdicts.len())
            .filter(|&b| verdicts[b] == ZoneMatch::AllMatch)
            .collect();
        match spec.group_by {
            Some(group_by) => {
                let sketches = data.keyed_sketches(&matching, group_by, spec.agg_column);
                for (&b, sketch) in matching.iter().zip(sketches) {
                    match sketch.filter(|s| s.keys().iter().all(|k| k.moments.non_finite == 0)) {
                        Some(sketch) => {
                            for k in sketch.keys() {
                                add(k.key_bits, k.rows, &k.moments);
                            }
                        }
                        None => sampled[b] = true,
                    }
                }
            }
            None => {
                for &b in &matching {
                    let sketch = data.block(b).sketch();
                    let column = sketch.as_deref().and_then(|s| {
                        let m = s.column(spec.agg_column)?;
                        (m.non_finite == 0).then_some((s.rows, m))
                    });
                    match column {
                        Some((rows, m)) => add(UNGROUPED_KEY, rows, m),
                        None => sampled[b] = true,
                    }
                }
            }
        }
        // A key whose Σa overflows has no exact partial: metadata then
        // decides nothing, and every matching block is sampled.
        if groups.iter().any(|g| !g.sum().is_finite()) {
            for &b in &matching {
                sampled[b] = true;
            }
            groups.clear();
        }
        let residue_rows = data
            .iter()
            .zip(&sampled)
            .filter(|(_, &s)| s)
            .map(|(b, _)| b.len())
            .sum();
        Self {
            sampled,
            residue_rows,
            groups,
        }
    }

    /// Whether block `block_id` is sampled (a block the split never saw
    /// is).
    pub(super) fn samples(&self, block_id: usize) -> bool {
        self.sampled.get(block_id).copied().unwrap_or(true)
    }

    /// Rows of the sampled blocks.
    pub(super) fn residue_rows(&self) -> u64 {
        self.residue_rows
    }

    /// The decided partial of the key `key_bits`, if any decided row
    /// holds it.
    pub(super) fn group(&self, key_bits: u64) -> Option<&DecidedGroup> {
        self.groups
            .binary_search_by_key(&key_bits, |g| g.key_bits)
            .ok()
            .map(|i| &self.groups[i])
    }

    /// The decided keys, ascending by key bits.
    pub(super) fn groups(&self) -> &[DecidedGroup] {
        &self.groups
    }

    /// The residue's calculation rate: each group's pilot rate
    /// `m_g / N̂_g` scaled by `min(1, R / N̂_g)`, the most of the group's
    /// matched rows the residue's `R` rows can hold, and the largest over
    /// groups. Only the residue's share of a group's mean is uncertain,
    /// and its weight is at most `R / N̂_g`, so the group's residue draw
    /// still meets its precision target.
    fn residue_rate(&self, pre: &RowPreEstimate, data_size: u64) -> f64 {
        let residue = self.residue_rows as f64;
        pre.groups
            .iter()
            .filter(|g| g.sigma > 0.0)
            .map(|g| {
                let matched = g.share * data_size as f64;
                g.required_samples as f64 / matched * (residue / matched).min(1.0)
            })
            .fold(0.0, f64::max)
            .min(1.0)
    }
}

/// Draws `n` proportional pilot rows into the accumulated pilot state:
/// the shared inner loop of the one-shot and epoch-fold row pilots.
/// Per block, only the read set its zone verdict calls for is gathered,
/// and each batch goes through the row fold (`super::fold`): the
/// re-indexed spec's filter selects the matching tuples and each group
/// folds its matches in draw order. A block that provably matches
/// nothing is not read: its share of the allocation still counts as
/// drawn (every one a miss) and still consumes its index draws, so the
/// state and `rng` end up exactly where reading and rejecting every row
/// would leave them.
fn pilot_draw_rows(
    data: &BlockSet,
    read: &ZonedRead,
    n: u64,
    recovery: &RecoveryPolicy,
    rng: &mut dyn RngCore,
    st: &mut RowPilotFold,
) -> Result<(), IslaError> {
    let allocation = proportional_allocation(data, n);
    for (block, &take) in data.iter().zip(&allocation) {
        let block = block.as_ref();
        let Some(read) = read.of_block(block) else {
            skip_row_draws(block.len(), take, rng);
            st.drawn += take;
            continue;
        };
        let columns = Some(read.columns.as_slice());
        let mut fold = |buf: &mut RowSampleBuf| {
            let (drawn, matched) = st.moments.fold_batch(&read.spec, buf, |m, v| m.update(v));
            st.drawn += drawn;
            st.matched += matched;
        };
        if recovery.is_best_effort() {
            let attempts = recovery.retry.max_attempts;
            sample_row_columns_from_block_surviving(block, columns, take, attempts, rng, &mut fold);
        } else {
            sample_row_columns_from_block(block, columns, take, rng, &mut fold)?;
        }
    }
    Ok(())
}

/// Draws `n` proportional rows the way a plan for `spec` reads them —
/// projected and zoned, as the pilots and the Calculation phase draw —
/// and folds them as the pilots do: what a `WITHIN` deadline probe has
/// to time. Leaves `rng` where `n` full-width row draws would.
///
/// # Errors
///
/// [`IslaError::InsufficientData`] when `n > 0` and the set holds no
/// rows; [`IslaError::InvalidConfig`] when the spec does not fit a
/// block; storage errors from sampling.
pub fn probe_row_draws(
    data: &BlockSet,
    spec: &RowSpec,
    n: u64,
    rng: &mut dyn RngCore,
) -> Result<(), IslaError> {
    require_rows(data, n)?;
    spec.validate(data)?;
    let mut fold = RowPilotFold::new();
    pilot_draw_rows(
        data,
        &ZonedRead::of(spec),
        n,
        &RecoveryPolicy::strict(),
        rng,
        &mut fold,
    )
}

/// The hit-rate pilot behind an estimated `COUNT(*) WHERE …` (both
/// stages), its grouped form and the filtered-`SUM` baseline's scale
/// (paper §III-B): `n` proportional row draws, and per group key the
/// draws that matched `spec`'s filter. Returns the draws — always `n`,
/// the denominator of every hit rate — and the per-key hit counts (keys
/// without a hit are absent).
///
/// Draws read only the filter and group columns, and only where the
/// zone map leaves the count open: a block that provably matches
/// nothing is not read (every draw a miss), one that provably matches
/// everywhere is read for its group column alone — ungrouped, not at
/// all (every draw a hit). Each draw still takes its index from `rng`,
/// so the counts and the stream are those of testing every full row.
///
/// # Errors
///
/// As [`probe_row_draws`].
pub fn hit_rate_pilot(
    data: &BlockSet,
    spec: &RowSpec,
    n: u64,
    rng: &mut dyn RngCore,
) -> Result<(u64, BTreeMap<u64, u64>), IslaError> {
    require_rows(data, n)?;
    spec.validate(data)?;
    let read = ZonedRead::counting(spec);
    // Ungrouped hits are the selections' lengths; grouped ones are
    // counted per discovered key.
    let mut hits = 0u64;
    let mut groups: Groups<u64> = Groups::default();
    for (block, &take) in data.iter().zip(&proportional_allocation(data, n)) {
        let block = block.as_ref();
        let projection = match block.zone(&read.filter) {
            ZoneMatch::Matchless => None,
            ZoneMatch::AllMatch if spec.group_by.is_none() => {
                hits += take;
                None
            }
            ZoneMatch::AllMatch => Some(&read.proven),
            ZoneMatch::Mixed => Some(&read.tested),
        };
        let Some(projection) = projection else {
            skip_row_draws(block.len(), take, rng);
            continue;
        };
        let spec = &projection.spec;
        let columns = Some(projection.columns.as_slice());
        sample_row_columns_from_block(block, columns, take, rng, &mut |buf| {
            if spec.group_by.is_none() {
                hits += buf.select(&spec.filter, 0).1.len() as u64;
            } else {
                groups.fold_batch(spec, buf, |count, _| *count += 1);
            }
        })?;
    }
    let mut counts: BTreeMap<u64, u64> = groups.iter().map(|(key, &count)| (key, count)).collect();
    if hits > 0 {
        counts.insert(UNGROUPED_KEY, hits);
    }
    Ok((n, counts))
}

/// The typed error for drawing `n > 0` rows from a set that has none
/// (where [`proportional_allocation`] would panic).
fn require_rows(data: &BlockSet, n: u64) -> Result<(), IslaError> {
    if n > 0 && data.total_len() == 0 {
        return Err(IslaError::InsufficientData(
            "block set holds no rows".to_string(),
        ));
    }
    Ok(())
}

/// How many *raw* pilot rows the accumulated state wants in total: the
/// second-pilot target (per-group relaxed-precision sample over the
/// group's share, floored by the selectivity pilot under a non-trivial
/// predicate). Pure function of the state — the one-shot and fold paths
/// share it so their extension logic cannot drift.
fn pilot_extension_want(st: &RowPilotFold, config: &IslaConfig, spec: &RowSpec) -> u64 {
    let relaxed_e = config.relaxation * config.precision;
    let mut want_raw = if spec.filter.is_trivial() {
        0
    } else {
        SELECTIVITY_PILOT_ROWS
    };
    for (_, m) in st.moments.iter() {
        let sigma = m.std_dev_sample().unwrap_or(0.0);
        if sigma > 0.0 {
            let m_rel = required_sample_size(sigma, relaxed_e, config.confidence);
            let share = m.count() as f64 / st.drawn as f64;
            want_raw = want_raw.max((m_rel as f64 / share).ceil() as u64);
        }
    }
    want_raw
}

/// Turns accumulated pilot state into the final [`RowPreEstimate`] for
/// a data set of `data_size` rows. Shared by the one-shot pilot and the
/// epoch fold's [`finish_row_pilot_fold`], so the two paths compute
/// group estimates, selectivity, and the derived rate with the same
/// arithmetic.
fn finish_row_pilot_state(
    st: &RowPilotFold,
    data_size: u64,
    config: &IslaConfig,
) -> Result<RowPreEstimate, IslaError> {
    let drawn = st.drawn;
    let selectivity = st.matched as f64 / drawn as f64;
    let mut groups = Vec::with_capacity(st.moments.len());
    let mut rate: f64 = 0.0;
    for (key_bits, m) in st.moments.iter() {
        let sigma = m.std_dev_sample().unwrap_or(0.0);
        let share = m.count() as f64 / drawn as f64;
        let required = if sigma > 0.0 {
            required_sample_size(sigma, config.precision, config.confidence)
        } else {
            1
        };
        if sigma > 0.0 {
            rate = rate.max(required as f64 / (share * data_size as f64));
        }
        groups.push(GroupPre {
            key_bits,
            key: f64::from_bits(key_bits),
            sigma,
            sketch0: m.mean().ok_or_else(|| {
                IslaError::Internal("pilot group tracked with no matched samples".to_string())
            })?,
            share,
            pilot_matched: m.count(),
            required_samples: required,
        });
    }
    Ok(RowPreEstimate {
        groups,
        selectivity,
        rate: rate.min(1.0),
        pilot_rows: drawn,
    })
}

/// Resumable state of the **epoch-segmented** row pilot fold — the
/// row-model sibling of [`crate::pre_estimation::PilotFold`]. Per-group
/// [`WelfordMoments`] (keyed by group bits, ascending), raw-draw and match
/// counters, and the number of epoch segments folded. Segment pilot
/// streams derive from *(lineage digest, salt, segment index)*, so a
/// cold fold over segments `0..=E` and a cached fold resumed at `k+1`
/// run the identical operation sequence — the bit-identity the
/// epoch-delta cache relies on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowPilotFold {
    moments: Groups<WelfordMoments>,
    drawn: u64,
    matched: u64,
    segments: u64,
}

impl RowPilotFold {
    /// The empty fold — the cold-run starting state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of epoch segments folded so far.
    pub fn segments(&self) -> u64 {
        self.segments
    }
}

/// Folds one epoch segment — the blocks `blocks` of `data`, holding
/// rows `..rows_through` cumulatively — into the row pilot state.
///
/// Every sizing decision here is a pure function of the fold state, the
/// segment's own blocks, and `rows_through` (the set's row count *as of
/// that epoch*, from [`isla_storage::EpochMark`]); never of the set's
/// final shape. That is what keeps a cached fold (computed when the
/// segment was the newest) bit-identical to a cold fold replaying the
/// same segment after later appends.
///
/// # Errors
///
/// Storage errors from sampling, and [`IslaError::InvalidConfig`] when
/// the spec does not fit the segment's blocks. The fold should be
/// discarded on error.
#[allow(clippy::too_many_arguments)]
pub fn fold_row_pilot_segment(
    fold: &mut RowPilotFold,
    data: &BlockSet,
    blocks: std::ops::Range<usize>,
    rows_through: u64,
    config: &IslaConfig,
    spec: &RowSpec,
    lineage: u64,
    salt: u64,
) -> Result<(), IslaError> {
    let seg_rows: u64 = blocks.clone().map(|i| data.block(i).len()).sum();
    let segment = fold.segments;
    fold.segments += 1;
    if seg_rows == 0 {
        return Ok(());
    }
    let seg = data.subrange(blocks);
    spec.validate(&seg)?;
    let read = ZonedRead::of(spec);
    let mut rng = seed::seeded_rng(seed::stream_seed(seed::stream_seed(lineage, salt), segment));
    // Pilot 1 share: the configured pilot over this segment's rows.
    let pilot1 = config.sigma_pilot_size.min(seg_rows).max(2);
    // The fold stays strict in every mode: a partially-folded segment
    // is not resumable, so block failures must surface as errors.
    pilot_draw_rows(
        &seg,
        &read,
        pilot1,
        &RecoveryPolicy::strict(),
        &mut rng,
        fold,
    )?;
    // Pilot 2 share: extend toward the accumulated state's raw-row
    // target, capped by the epoch's cumulative rows (the one-shot's
    // data-size cap, frozen at this segment's epoch) and by the
    // segment itself.
    let pilot2 = pilot_extension_want(fold, config, spec)
        .min(rows_through)
        .saturating_sub(fold.drawn)
        .min(seg_rows);
    if pilot2 > 0 {
        pilot_draw_rows(
            &seg,
            &read,
            pilot2,
            &RecoveryPolicy::strict(),
            &mut rng,
            fold,
        )?;
    }
    Ok(())
}

/// Finishes the row fold into a [`RowPreEstimate`] for the whole of a
/// set with `data_size` rows — required samples and the derived rate
/// come from the final shape, group moments from the accumulated fold.
///
/// # Errors
///
/// [`IslaError::InsufficientData`] when no folded pilot row matched the
/// predicate (selectivity is effectively zero).
pub fn finish_row_pilot_fold(
    fold: &RowPilotFold,
    data_size: u64,
    config: &IslaConfig,
) -> Result<RowPreEstimate, IslaError> {
    if data_size == 0 || fold.drawn == 0 {
        return Err(IslaError::InsufficientData(
            "row pilot fold covered no rows".to_string(),
        ));
    }
    if fold.matched == 0 {
        return Err(IslaError::InsufficientData(format!(
            "predicate matched none of {} pilot rows; selectivity is effectively zero",
            fold.drawn
        )));
    }
    finish_row_pilot_state(fold, data_size, config)
}

/// One group's resolved execution state inside a [`RowPlan`].
#[derive(Debug, Clone)]
pub struct GroupPlan {
    /// The pre-estimation output backing this group.
    pub pre: GroupPre,
    /// Negative-data translation for this group (0 when none).
    pub shift: f64,
    /// The group's `sketch0` in its shifted domain.
    pub sketch0_shifted: f64,
    /// The group's data boundaries (shifted domain); `None` for
    /// constant groups, whose answer is pinned to `sketch0`, and in a
    /// plan split by block metadata, whose residue answers by raw means.
    pub boundaries: Option<DataBoundaries>,
}

/// A fully resolved row-model plan: validated config, compiled spec,
/// per-group pre-estimates/shifts/boundaries, and the calculation rate.
#[derive(Debug, Clone)]
pub struct RowPlan {
    config: IslaConfig,
    spec: RowSpec,
    // Derived once per plan: the spec's read sets and the spec
    // re-indexed against each.
    read: ZonedRead,
    groups: Vec<GroupPlan>,
    // The groups' keys, in the same order, for routing rows to them.
    keys: GroupKeys,
    selectivity: f64,
    pilot_rows: u64,
    rate: f64,
    data_size: u64,
    // The metadata split of a precision-sized default plan: the blocks
    // whose partial is known exactly, and the residue sampled at `rate`.
    // `None`: every block is sampled.
    decided: Option<Decided>,
}

impl RowPlan {
    /// Prepares a plan by running row pre-estimation on `data`.
    ///
    /// # Errors
    ///
    /// Invalid configuration/rate/spec, or pre-estimation failures.
    pub fn prepare(
        data: &BlockSet,
        config: &IslaConfig,
        spec: RowSpec,
        rate: RateSpec,
        rng: &mut dyn RngCore,
    ) -> Result<Self, IslaError> {
        config.validate()?;
        rate.validate()?;
        let pre = row_pre_estimate_with(
            data,
            config,
            &spec,
            u64::MAX,
            &RecoveryPolicy::strict(),
            rng,
        )?;
        Self::from_pre_estimate(data, config, spec, pre, rate)
    }

    /// Builds a plan from an already-computed row pre-estimate (e.g.
    /// from a [`super::PreEstimateCache`]), spending no pilot rows.
    ///
    /// With [`IslaConfig::sample_groups`] off, a precision-sized plan
    /// (any rate but [`RateSpec::Absolute`]) for a spec that filters or
    /// groups, over a sampled pre-estimate, splits the blocks by what
    /// their metadata decides: a block that provably matches everywhere
    /// and whose sketch knows its partial is answered exactly from it
    /// and never drawn, a block that provably matches nothing
    /// contributes nothing, and only the rest — the residue — is
    /// sampled, at the pilot rate scaled down to the residue's share of
    /// each group, and answered by its raw matched means. A plan whose
    /// every block is decided pins. Where no block's partial is known
    /// exactly, the plan is the unsplit one.
    ///
    /// # Errors
    ///
    /// Invalid configuration or rate spec; a sampled group whose σ̂ or
    /// shifted `sketch0` is not finite.
    pub fn from_pre_estimate(
        data: &BlockSet,
        config: &IslaConfig,
        spec: RowSpec,
        pre: RowPreEstimate,
        rate: RateSpec,
    ) -> Result<Self, IslaError> {
        config.validate()?;
        rate.validate()?;
        spec.validate(data)?;
        let data_size = data.total_len();
        let split = pre.pilot_rows > 0
            && Decided::applies(config, &spec)
            && !matches!(rate, RateSpec::Absolute(_));
        let decided = split
            .then(|| zone_verdicts(data, &spec))
            .filter(|verdicts| verdicts.contains(&ZoneMatch::AllMatch))
            .map(|verdicts| Decided::of(data, &spec, verdicts))
            .filter(|d| !d.groups().is_empty());
        let groups = pre
            .groups
            .iter()
            .map(|g| {
                // A split plan's residue blocks answer by their raw
                // matched means: their rows need not follow the
                // population the pilot sketched, so Algorithm 2 around
                // that sketch would pull them toward it.
                if g.sigma == 0.0 || decided.is_some() {
                    return Ok(GroupPlan {
                        pre: g.clone(),
                        shift: 0.0,
                        sketch0_shifted: g.sketch0,
                        boundaries: None,
                    });
                }
                let (shift, sketch0_shifted, boundaries) =
                    shifted_boundaries(g.sketch0, g.sigma, config)?;
                Ok(GroupPlan {
                    pre: g.clone(),
                    shift,
                    sketch0_shifted,
                    boundaries: Some(boundaries),
                })
            })
            .collect::<Result<_, IslaError>>()?;
        let keys = GroupKeys::new(pre.groups.iter().map(|g| g.key_bits).collect());
        let derived = decided
            .as_ref()
            .map_or(pre.rate, |d| d.residue_rate(&pre, data_size));
        Ok(Self {
            config: config.clone(),
            read: ZonedRead::of(&spec),
            spec,
            groups,
            keys,
            selectivity: pre.selectivity,
            pilot_rows: pre.pilot_rows,
            rate: rate.resolve(derived),
            data_size,
            decided,
        })
    }

    /// A copy of this plan with the calculation rate replaced by an
    /// absolute value (deadline capping); pilots already spent are sunk.
    pub fn with_absolute_rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// The configuration in effect.
    pub fn config(&self) -> &IslaConfig {
        &self.config
    }

    /// The compiled spec.
    pub fn spec(&self) -> &RowSpec {
        &self.spec
    }

    /// Per-group execution state, sorted by group key bits.
    pub fn groups(&self) -> &[GroupPlan] {
        &self.groups
    }

    /// The predicate's estimated selectivity.
    pub fn selectivity(&self) -> f64 {
        self.selectivity
    }

    /// Raw pilot rows the pre-estimation spent.
    pub fn pilot_rows(&self) -> u64 {
        self.pilot_rows
    }

    /// The resolved calculation-phase sampling rate over *raw* rows —
    /// of the residue's blocks alone when the plan is split.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Total rows `M` across blocks at plan time.
    pub fn data_size(&self) -> u64 {
        self.data_size
    }

    /// The raw-row sample size a sampled block of `block_len` rows
    /// receives.
    pub fn sample_size_for(&self, block_len: u64) -> u64 {
        self.sample_size_at(self.rate, block_len)
    }

    /// The raw-row sample size a sampled block of `block_len` rows
    /// receives at `rate`. A split plan's residue rate is the least its
    /// precision target needs, so its draw rounds up; a rate admission
    /// capped below it rounds as every plan's does.
    fn sample_size_at(&self, rate: f64, block_len: u64) -> u64 {
        if self.decided.is_some() && rate >= self.rate {
            (rate * block_len as f64).ceil() as u64
        } else {
            sample_size(rate, block_len)
        }
    }

    /// Total calculation-phase row draws the plan offers the blocks of
    /// `data` it samples — an upper bound on the rows it reads. A block
    /// whose zone map rules every row out is counted in full, like
    /// admission does (see `admitted_rate`): the bound is what budgets
    /// are checked against, and it does not depend on where the
    /// matching rows sit. A split plan offers its decided blocks nothing.
    pub fn planned_calculation_samples(&self, data: &BlockSet) -> u64 {
        data.iter()
            .enumerate()
            .filter(|&(b, _)| self.samples(b))
            .map(|(_, block)| self.sample_size_for(block.len()))
            .sum()
    }

    /// Whether the calculation phase draws from block `block_id`: every
    /// block, but a split plan's decided ones.
    pub fn samples(&self, block_id: usize) -> bool {
        self.decided.as_ref().is_none_or(|d| d.samples(block_id))
    }

    /// The metadata split, when the plan has one.
    pub(super) fn decided(&self) -> Option<&Decided> {
        self.decided.as_ref()
    }

    /// The exact answer of a plan metadata pins — built from a pinned
    /// pre-estimate ([`pinned_row_pre_estimate`]), or split with an
    /// empty residue: each group's mean and exact row count, no draw.
    /// `None` for a sampled plan.
    pub(crate) fn pinned_answer(&self) -> Option<GroupedAggregate> {
        let exact = |key: f64, estimate: f64, rows: u64| GroupEstimate {
            key,
            estimate,
            rows_estimate: rows as f64,
            matched_draws: 0,
            planned: true,
        };
        // Only a pinned pre-estimate spends no pilot row.
        let mut groups: Vec<GroupEstimate> = if self.pilot_rows == 0 {
            self.groups
                .iter()
                .map(|g| exact(g.pre.key, g.pre.sketch0, g.pre.pilot_matched))
                .collect()
        } else {
            let decided = self.decided.as_ref().filter(|d| d.residue_rows() == 0)?;
            decided
                .groups()
                .iter()
                .map(|g| exact(f64::from_bits(g.key_bits), g.mean(), g.rows))
                .collect()
        };
        groups.sort_by(|a, b| a.key.total_cmp(&b.key));
        let matched_rows: f64 = groups.iter().map(|g| g.rows_estimate).sum();
        let estimate = groups
            .iter()
            .map(|g| g.estimate * g.rows_estimate)
            .sum::<f64>()
            / matched_rows;
        Some(GroupedAggregate {
            groups,
            estimate,
            matched_rows,
            total_samples: 0,
        })
    }

    /// Index of the planned group with the given key bits (the groups
    /// are sorted by key bits).
    pub(crate) fn group_index(&self, key_bits: u64) -> Option<usize> {
        self.keys.index(key_bits)
    }
}

/// One group's outcome within one block.
#[derive(Debug, Clone)]
pub struct RowGroupOutcome {
    /// Group key bits (canonical identity).
    pub key_bits: u64,
    /// Group key as a value.
    pub key: f64,
    /// Raw draws in this block that matched the predicate and this
    /// group — the block's weight contribution for the group.
    pub matched: u64,
    /// The group's partial answer in this block (original domain).
    pub answer: f64,
    /// `|S|` after sampling.
    pub u: u64,
    /// `|L|` after sampling.
    pub v: u64,
    /// Iterations executed.
    pub iterations: u32,
    /// Whether the answer was clamped to the group's sketch interval.
    pub clamped: bool,
    /// Why the group fell back to its sketch, if it did.
    pub fallback: Option<Fallback>,
    /// Whether the group was known to the plan (seen by the pilots).
    /// Unplanned groups surface with their raw sample mean.
    pub planned: bool,
}

/// The outcome of executing one block under a [`RowPlan`]: per-group
/// partial answers plus the draw accounting that turns matched counts
/// into summarization weights.
#[derive(Debug, Clone)]
pub struct RowBlockOutcome {
    /// Index of the block within its block set.
    pub block_id: usize,
    /// Rows in the block.
    pub rows: u64,
    /// Rows read from the block: the draws actually gathered — what the
    /// calculation phase cost. Zero when the block's zone map proved
    /// that none of the offered draws could match.
    pub draws: u64,
    /// Raw row draws the plan offered the block. Each was either read
    /// or decided by the zone map (a certain miss), so this — not
    /// `draws` — is the denominator that turns `matched` into the
    /// block's matched-row weight `|Bⱼ| · matched / offered`.
    pub offered: u64,
    /// Per-group outcomes, sorted by key bits.
    pub groups: Vec<RowGroupOutcome>,
}

/// Executes one block of a row plan with a pre-derived seed — the
/// row-model analogue of [`super::execute_planned_block`].
///
/// # Errors
///
/// Propagates storage errors from sampling.
pub fn execute_row_block(
    plan: &RowPlan,
    block: &dyn DataBlock,
    block_id: usize,
    seed: u64,
) -> Result<RowBlockOutcome, IslaError> {
    plan.execute_block(block, block_id, seed, plan.sample_size_for(block.len()))
}

/// [`execute_row_block`] at an explicit draw count — what the spine
/// calls, so an admission cap never has to rewrite the plan.
fn execute_row_block_drawing(
    plan: &RowPlan,
    block: &dyn DataBlock,
    block_id: usize,
    seed: u64,
    offered: u64,
) -> Result<RowBlockOutcome, IslaError> {
    if !plan.samples(block_id) {
        // A split plan's decided block: its partial is the plan's.
        return Ok(RowBlockOutcome {
            block_id,
            rows: block.len(),
            draws: 0,
            offered: 0,
            groups: Vec::new(),
        });
    }
    let mut rng = super::seed::seeded_rng(seed);
    // What the zone map decides is not sampled: a block that cannot
    // match is read zero times (every offered draw is a known miss, and
    // the groups below finalize exactly as over all-rejected draws); one
    // that matches everywhere is drawn through the filter-less read set.
    let (read, draws) = match plan.read.of_block(block) {
        Some(read) => (read, offered),
        None => (&plan.read.tested, 0),
    };
    let spec = &read.spec;
    let planned = plan.groups();
    let mut folds: Vec<GroupFold> = planned
        .iter()
        .map(|g| GroupFold {
            acc: g.boundaries.map(SampleAccumulator::new),
            raw: NeumaierSum::new(),
            matched: 0,
        })
        .collect();
    // Groups the pilots never saw: tracked by raw mean so they still
    // surface in the answer instead of silently vanishing.
    let mut extras: BTreeMap<u64, (NeumaierSum, u64)> = BTreeMap::new();

    // Batched row sampling through the row fold. Each batch draws its
    // indices up front and gathers only the columns the spec reads, in
    // draw order, on a reusable thread-local buffer; the filter selects
    // the matching tuples and each is staged in its group's lane (also
    // in the buffer), and each lane is folded as one slice per batch.
    // Same RNG stream, same values into the same accumulators in the
    // same order as the per-row draw-match-offer loop, so
    // pooled-vs-sequential bit-identity is untouched.
    let width = read.columns.len();
    let columns = Some(read.columns.as_slice());
    sample_row_columns_from_block(block, columns, draws, &mut rng, &mut |buf| {
        let (rows, selected, lanes) = buf.select(&spec.filter, planned.len() + 1);
        let (key_of, value_of) = tuple_fields(spec, rows, width);
        let selected_rows = || selected.iter().map(|&i| i as usize);
        if !stage(
            &plan.keys,
            selected_rows(),
            key_of.as_ref(),
            &value_of,
            lanes,
        ) {
            let key = |i| key_of.as_ref().map_or(UNGROUPED_KEY, |key_of| key_of(i));
            for i in selected_rows().filter(|&i| plan.group_index(key(i)).is_none()) {
                let entry = extras.entry(key(i)).or_insert((NeumaierSum::new(), 0));
                entry.0.add(value_of(i));
                entry.1 += 1;
            }
        }
        for ((fold, lane), g) in folds.iter_mut().zip(lanes.iter()).zip(planned) {
            fold.matched += lane.len() as u64;
            match fold.acc.as_mut() {
                Some(acc) => acc.offer_slice(lane, g.shift),
                // Boundary-less plan groups (constant, or matched by too
                // few pilot rows for a σ̂) fold their calculation draws
                // into a raw mean, so an under-piloted group is answered
                // by its samples rather than pinned to a single pilot
                // value.
                None => lane.iter().for_each(|&v| fold.raw.add(v)),
            }
        }
    })?;

    let mut groups: Vec<RowGroupOutcome> = Vec::with_capacity(planned.len() + extras.len());
    for (g, fold) in planned.iter().zip(&folds) {
        let outcome = match &fold.acc {
            Some(acc) => {
                let phase = iteration_phase(acc, g.sketch0_shifted, plan.config());
                RowGroupOutcome {
                    key_bits: g.pre.key_bits,
                    key: g.pre.key,
                    matched: fold.matched,
                    answer: phase.answer - g.shift,
                    u: acc.u(),
                    v: acc.v(),
                    iterations: phase.iterations,
                    clamped: phase.clamped,
                    fallback: phase.fallback,
                    planned: true,
                }
            }
            // No boundaries: a constant group (the raw mean IS the
            // pinned value) or an under-piloted one (the raw mean of
            // the calculation draws beats the single pilot value);
            // with no draws at all, the pilot sketch is all there is.
            None => RowGroupOutcome {
                key_bits: g.pre.key_bits,
                key: g.pre.key,
                matched: fold.matched,
                answer: if fold.matched > 0 {
                    fold.raw.value() / fold.matched as f64
                } else {
                    g.pre.sketch0
                },
                u: 0,
                v: 0,
                iterations: 0,
                clamped: false,
                fallback: (fold.matched == 0).then_some(Fallback::NoSamples),
                planned: true,
            },
        };
        groups.push(outcome);
    }
    if !extras.is_empty() {
        groups.extend(
            extras
                .into_iter()
                .map(|(key_bits, (sum, n))| RowGroupOutcome {
                    key_bits,
                    key: f64::from_bits(key_bits),
                    matched: n,
                    answer: sum.value() / n as f64,
                    u: 0,
                    v: 0,
                    iterations: 0,
                    clamped: false,
                    fallback: Some(Fallback::NoSamples),
                    planned: false,
                }),
        );
        // Planned groups are already key-sorted; an unplanned key
        // interleaves.
        groups.sort_by_key(|g| g.key_bits);
    }
    Ok(RowBlockOutcome {
        block_id,
        rows: block.len(),
        draws,
        offered,
        groups,
    })
}

/// One planned group's calculation-phase state within one block.
struct GroupFold {
    /// Algorithm-1 state; `None` for boundary-less groups.
    acc: Option<SampleAccumulator>,
    /// Raw sum of matched values, for boundary-less groups.
    raw: NeumaierSum,
    /// Raw draws that matched the predicate and this group.
    matched: u64,
}

/// One group's finalized estimate.
#[derive(Debug, Clone)]
pub struct GroupEstimate {
    /// The group key value.
    pub key: f64,
    /// The group's approximate AVG.
    pub estimate: f64,
    /// Estimated rows in the group matching the predicate
    /// (the summarization weight; also `SUM = estimate × rows_estimate`).
    pub rows_estimate: f64,
    /// Matched calculation draws behind the estimate.
    pub matched_draws: u64,
    /// Whether the pilots planned this group (false: the estimate is a
    /// raw mean of whatever the calculation phase caught).
    pub planned: bool,
}

/// The engine's complete row-model output.
#[derive(Debug, Clone)]
pub struct GroupedEngineResult {
    /// Per-group estimates, sorted by key value.
    pub groups: Vec<GroupEstimate>,
    /// The overall filtered AVG (weight-combined across groups).
    pub estimate: f64,
    /// Estimated rows matching the predicate across all groups.
    pub matched_rows: f64,
    /// The predicate's estimated selectivity from the pilots.
    pub selectivity: f64,
    /// Total rows `M` across blocks.
    pub data_size: u64,
    /// Rows the calculation phase read (excludes pilots): the draws
    /// offered to the blocks minus those a zone map decided unread.
    pub total_samples: u64,
    /// Pilot rows spent by pre-estimation.
    pub pilot_samples: u64,
    /// Whether the scheduler's admission policy (deadline budget)
    /// capped the plan.
    pub time_limited: bool,
    /// Present when a best-effort run dropped failed blocks (see
    /// [`crate::engine::EngineResult::degradation`]). `None` means
    /// full coverage.
    pub degradation: Option<super::recovery::Degradation>,
}

/// Prepares a row plan on `data` (running the pilots) and executes it on
/// `scheduler` — the whole row-model pipeline in one call.
///
/// # Errors
///
/// Invalid configuration/rate/spec, pre-estimation failures, or the
/// first block failure.
pub fn run_rows(
    data: &BlockSet,
    config: &IslaConfig,
    spec: RowSpec,
    rate: RateSpec,
    scheduler: &dyn BlockScheduler,
    rng: &mut dyn RngCore,
) -> Result<GroupedEngineResult, IslaError> {
    let plan = RowPlan::prepare(data, config, spec, rate, rng)?;
    run_row_plan_with(&plan, data, scheduler, &RecoveryPolicy::strict(), rng)
}

/// Executes an already-prepared row plan on `scheduler` under
/// `recovery`.
///
/// Exactly the scalar engine's Calculation phase with a row plan
/// plugged in (the row-model analogue of
/// [`crate::engine::run_plan_with`]): the scheduler's sample budget is
/// applied first (deadline capping), then per-block seeds are derived
/// from `rng` — one `next_u64` per block in block order — and the
/// per-block work fans out at the scheduler's parallelism. Grouped
/// partials merge order-invariantly, so every scheduler returns the
/// bit-identical per-group answers for the same RNG stream. Best-effort
/// runs drop failed blocks, finalize the per-group answers over the
/// survivors, and report the failure accounting and widened half-width.
///
/// # Errors
///
/// Strict mode: the failure of the lowest-numbered failing block, or
/// [`IslaError::InsufficientData`] when no group holds any weight.
/// Best-effort: [`IslaError::InsufficientData`] when every block failed
/// or no group holds any weight over the survivors.
pub fn run_row_plan_with(
    plan: &RowPlan,
    data: &BlockSet,
    scheduler: &dyn BlockScheduler,
    recovery: &RecoveryPolicy,
    rng: &mut dyn RngCore,
) -> Result<GroupedEngineResult, IslaError> {
    let run = run_calculation(plan, plan.config(), data, scheduler, recovery, rng)?;
    Ok(GroupedEngineResult {
        groups: run.answer.groups,
        estimate: run.answer.estimate,
        matched_rows: run.answer.matched_rows,
        selectivity: plan.selectivity(),
        data_size: plan.data_size(),
        total_samples: run.answer.total_samples,
        pilot_samples: plan.pilot_rows(),
        time_limited: run.time_limited,
        degradation: run.degradation,
    })
}

impl CalcPlan for RowPlan {
    type Outcome = RowBlockOutcome;
    type Answer = GroupedAggregate;

    fn rate(&self) -> f64 {
        self.rate()
    }

    fn pilot_samples(&self) -> u64 {
        self.pilot_rows()
    }

    fn samples(&self, block_id: usize) -> bool {
        self.samples(block_id)
    }

    fn sample_size(&self, rate: f64, block_len: u64) -> u64 {
        self.sample_size_at(rate, block_len)
    }

    /// The block sketches' exact answer, when they pinned the plan.
    fn pinned(&self) -> Option<GroupedAggregate> {
        self.pinned_answer()
    }

    fn execute_block(
        &self,
        block: &dyn DataBlock,
        block_id: usize,
        seed: u64,
        draws: u64,
    ) -> Result<RowBlockOutcome, IslaError> {
        execute_row_block_drawing(self, block, block_id, seed, draws)
    }

    fn is_finite(outcome: &RowBlockOutcome) -> bool {
        outcome.groups.iter().all(|g| g.answer.is_finite())
    }

    /// The block's matched-weighted mean across groups; a block with no
    /// matched draw stands at the overall estimate (zero spread).
    fn survivor(outcome: &RowBlockOutcome) -> (Option<f64>, u64) {
        let matched: u64 = outcome.groups.iter().map(|g| g.matched).sum();
        let weighted: f64 = outcome
            .groups
            .iter()
            .map(|g| g.answer * g.matched as f64)
            .sum();
        let own = (matched > 0).then(|| weighted / matched as f64);
        (own, outcome.rows)
    }

    fn finalize(&self, outcomes: Vec<RowBlockOutcome>) -> Result<GroupedAggregate, IslaError> {
        GroupedPartial::from(outcomes).finalize(self)
    }

    fn estimate(answer: &GroupedAggregate) -> f64 {
        answer.estimate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{scan_exact_groups, GroupExact, PooledScheduler, SequentialScheduler};
    use isla_storage::{CmpOp, ColumnPredicate, RowsBlock};
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    fn config(e: f64) -> IslaConfig {
        IslaConfig::builder().precision(e).build().unwrap()
    }

    /// Three groups (0, 1, 2) with means 80 / 100 / 120 on x, a `y`
    /// column correlated with x, deterministic in `seed`.
    fn grouped_set(n: usize, blocks: usize, seed: u64) -> BlockSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        let mut region = Vec::with_capacity(n);
        let normal = isla_stats::distributions::Normal::new(0.0, 1.0);
        use isla_stats::distributions::Distribution;
        for _ in 0..n {
            let r = rng.random_range(0..3u64) as f64;
            let xv = 80.0 + 20.0 * r + 10.0 * normal.sample(&mut rng);
            let yv = 0.5 * xv + 5.0 * normal.sample(&mut rng);
            x.push(xv);
            y.push(yv);
            region.push(r);
        }
        RowsBlock::split(vec![x, y, region], blocks)
    }

    fn filtered_grouped_spec() -> RowSpec {
        RowSpec {
            agg_column: 0,
            filter: RowFilter::new(vec![ColumnPredicate {
                column: 1,
                op: CmpOp::Gt,
                value: 45.0,
            }]),
            group_by: Some(2),
        }
    }

    #[test]
    fn pre_estimation_finds_groups_shares_and_selectivity() {
        let data = grouped_set(120_000, 8, 1);
        let spec = filtered_grouped_spec();
        let mut rng = StdRng::seed_from_u64(2);
        let pre = row_pre_estimate_with(
            &data,
            &config(1.0),
            &spec,
            u64::MAX,
            &RecoveryPolicy::strict(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(pre.groups.len(), 3);
        let exact = scan_exact_groups(&data, &spec).unwrap();
        let exact_sel = exact.iter().map(|g| g.count).sum::<u64>() as f64 / 120_000.0;
        assert!(
            (pre.selectivity - exact_sel).abs() < 0.03,
            "selectivity {} vs exact {exact_sel}",
            pre.selectivity
        );
        for (g, e) in pre.groups.iter().zip(&exact) {
            assert_eq!(g.key, e.key);
            assert!(
                (g.sketch0 - e.mean).abs() < 2.0,
                "group {} sketch {} vs exact {}",
                g.key,
                g.sketch0,
                e.mean
            );
            assert!(g.sigma > 0.0 && g.share > 0.0);
        }
        assert!(pre.rate > 0.0 && pre.rate <= 1.0);
        assert!(pre.pilot_rows >= 1000);
    }

    #[test]
    fn grouped_estimates_meet_precision_against_exact() {
        let data = grouped_set(150_000, 10, 3);
        let spec = filtered_grouped_spec();
        let e = 0.5;
        let mut rng = StdRng::seed_from_u64(4);
        let out = run_rows(
            &data,
            &config(e),
            spec.clone(),
            RateSpec::Derived,
            &SequentialScheduler,
            &mut rng,
        )
        .unwrap();
        let exact = scan_exact_groups(&data, &spec).unwrap();
        assert_eq!(out.groups.len(), exact.len());
        for (g, x) in out.groups.iter().zip(&exact) {
            assert_eq!(g.key, x.key);
            assert!(
                (g.estimate - x.mean).abs() <= e,
                "group {}: estimate {} vs exact {} (e = {e})",
                g.key,
                g.estimate,
                x.mean
            );
            assert!(
                (g.rows_estimate - x.count as f64).abs() / (x.count as f64) < 0.1,
                "group {}: rows {} vs exact {}",
                g.key,
                g.rows_estimate,
                x.count
            );
        }
        assert!(out.total_samples > 0);
        assert!(out.pilot_samples > 0);
        // The overall estimate is the weight-combination of the groups.
        let direct: f64 = out
            .groups
            .iter()
            .map(|g| g.estimate * g.rows_estimate)
            .sum::<f64>()
            / out.matched_rows;
        assert!((out.estimate - direct).abs() < 1e-9);
    }

    #[test]
    fn schedulers_agree_bit_for_bit_on_grouped_answers() {
        let data = grouped_set(60_000, 9, 5);
        let spec = filtered_grouped_spec();
        let run_with = |scheduler: &dyn BlockScheduler| {
            let mut rng = StdRng::seed_from_u64(6);
            run_rows(
                &data,
                &config(1.0),
                spec.clone(),
                RateSpec::Derived,
                scheduler,
                &mut rng,
            )
            .unwrap()
        };
        let sequential = run_with(&SequentialScheduler);
        for workers in [1, 2, 4, 7] {
            let pooled = run_with(&PooledScheduler::new(workers).unwrap());
            assert_eq!(pooled.groups.len(), sequential.groups.len());
            for (p, s) in pooled.groups.iter().zip(&sequential.groups) {
                assert_eq!(p.key, s.key, "{workers} workers");
                assert_eq!(p.estimate, s.estimate, "{workers} workers");
                assert_eq!(p.rows_estimate, s.rows_estimate);
                assert_eq!(p.matched_draws, s.matched_draws);
            }
            assert_eq!(pooled.estimate, sequential.estimate);
            assert_eq!(pooled.total_samples, sequential.total_samples);
        }
    }

    #[test]
    fn scalar_spec_reduces_to_one_group() {
        let data = grouped_set(50_000, 5, 7);
        let spec = RowSpec::column(0);
        let mut rng = StdRng::seed_from_u64(8);
        let out = run_rows(
            &data,
            &config(1.0),
            spec,
            RateSpec::Derived,
            &SequentialScheduler,
            &mut rng,
        )
        .unwrap();
        assert_eq!(out.groups.len(), 1);
        assert!((out.selectivity - 1.0).abs() < 1e-12);
        let exact = data.exact_mean().unwrap();
        assert!(
            (out.estimate - exact).abs() < 1.0,
            "estimate {} vs exact {exact}",
            out.estimate
        );
    }

    #[test]
    fn constant_groups_are_pinned_without_sampling_noise() {
        // Column x is constant within each group.
        let n = 10_000;
        let x: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 5.0 } else { 9.0 }).collect();
        let region: Vec<f64> = (0..n).map(|i| f64::from(u32::from(i % 2 == 0))).collect();
        let data = RowsBlock::split(vec![x, region], 4);
        let spec = RowSpec {
            agg_column: 0,
            filter: RowFilter::all(),
            group_by: Some(1),
        };
        let mut rng = StdRng::seed_from_u64(9);
        let out = run_rows(
            &data,
            &config(0.1),
            spec,
            RateSpec::Derived,
            &SequentialScheduler,
            &mut rng,
        )
        .unwrap();
        assert_eq!(out.groups.len(), 2);
        assert_eq!(out.groups[0].key, 0.0);
        assert_eq!(out.groups[0].estimate, 9.0);
        assert_eq!(out.groups[1].key, 1.0);
        assert_eq!(out.groups[1].estimate, 5.0);
    }

    #[test]
    fn deadline_scheduler_caps_row_plans_and_reports_it() {
        use crate::engine::DeadlineScheduler;
        let data = grouped_set(100_000, 8, 13);
        let spec = filtered_grouped_spec();
        let cfg = config(0.5);
        let mut rng = StdRng::seed_from_u64(14);
        let plan = RowPlan::prepare(&data, &cfg, spec, RateSpec::Derived, &mut rng).unwrap();
        let wanted = plan.planned_calculation_samples(&data) + plan.pilot_rows();

        let tight = DeadlineScheduler::new(SequentialScheduler, wanted / 2);
        let out =
            run_row_plan_with(&plan, &data, &tight, &RecoveryPolicy::strict(), &mut rng).unwrap();
        assert!(out.time_limited, "half the wanted budget must cap");
        assert!(
            out.total_samples + out.pilot_samples <= wanted / 2 + 10,
            "capped run drew {} of budget {}",
            out.total_samples + out.pilot_samples,
            wanted / 2
        );
        assert!(out.total_samples > 0, "some calculation still ran");

        let generous = DeadlineScheduler::new(SequentialScheduler, wanted + 1);
        let out = run_row_plan_with(&plan, &data, &generous, &RecoveryPolicy::strict(), &mut rng)
            .unwrap();
        assert!(!out.time_limited);
    }

    #[test]
    fn under_piloted_rare_groups_answer_from_their_samples_not_one_pilot_row() {
        // Group 1 holds 0.1% of the rows with values far from group 0:
        // the pilots see at most a stray row of it (σ̂ undefined), so it
        // gets no boundaries — but its calculation draws must still
        // drive the answer instead of a single pilot value.
        let n = 100_000usize;
        let mut rng = StdRng::seed_from_u64(21);
        let mut x = Vec::with_capacity(n);
        let mut region = Vec::with_capacity(n);
        use isla_stats::distributions::{Distribution, Normal};
        let common = Normal::new(100.0, 10.0);
        let rare = Normal::new(500.0, 20.0);
        for i in 0..n {
            if i % 1000 == 0 {
                x.push(rare.sample(&mut rng));
                region.push(1.0);
            } else {
                x.push(common.sample(&mut rng));
                region.push(0.0);
            }
        }
        let data = RowsBlock::split(vec![x, region], 8);
        let spec = RowSpec {
            agg_column: 0,
            filter: RowFilter::all(),
            group_by: Some(1),
        };
        // Fabricate the under-piloted state directly: one pilot row hit
        // the rare group, on an unlucky tail value (430, two σ below
        // the group mean of 500). σ̂ is undefined from one sample, so
        // the plan gives the group no boundaries.
        let pre = RowPreEstimate {
            groups: vec![
                GroupPre {
                    key_bits: 0f64.to_bits(),
                    key: 0.0,
                    sigma: 10.0,
                    sketch0: 100.0,
                    share: 0.999,
                    pilot_matched: 999,
                    required_samples: 1_537,
                },
                GroupPre {
                    key_bits: 1f64.to_bits(),
                    key: 1.0,
                    sigma: 0.0,
                    sketch0: 430.0,
                    share: 0.001,
                    pilot_matched: 1,
                    required_samples: 1,
                },
            ],
            selectivity: 1.0,
            rate: 0.05,
            pilot_rows: 1_000,
        };
        // Every block sampled: unfiltered, the per-key sketches would
        // answer them all.
        let sampled = IslaConfig::builder()
            .precision(0.5)
            .sample_groups(true)
            .build()
            .unwrap();
        let plan =
            RowPlan::from_pre_estimate(&data, &sampled, spec, pre, RateSpec::Derived).unwrap();
        let rare_plan = &plan.groups()[1];
        assert!(rare_plan.pre.pilot_matched < 2);
        assert!(rare_plan.boundaries.is_none());
        let mut rng = StdRng::seed_from_u64(22);
        let out = run_row_plan_with(
            &plan,
            &data,
            &SequentialScheduler,
            &RecoveryPolicy::strict(),
            &mut rng,
        )
        .unwrap();
        let rare_est = out.groups.iter().find(|g| g.key == 1.0).unwrap();
        assert!(rare_est.matched_draws > 0, "rate sampled the rare group");
        assert!(
            (rare_est.estimate - 500.0).abs() < 40.0,
            "rare group estimate {} should track its population (≈500), not the \
             single unlucky pilot row at 430",
            rare_est.estimate
        );
    }

    #[test]
    fn heterogeneous_block_widths_are_rejected_not_panicked() {
        use std::sync::Arc;
        let data = BlockSet::new(vec![
            Arc::new(RowsBlock::new(vec![vec![1.0; 100]])) as Arc<dyn isla_storage::DataBlock>,
            Arc::new(RowsBlock::new(vec![vec![1.0; 100], vec![2.0; 100]])),
        ]);
        let spec = RowSpec {
            agg_column: 0,
            filter: RowFilter::new(vec![ColumnPredicate {
                column: 1,
                op: CmpOp::Gt,
                value: 0.0,
            }]),
            group_by: None,
        };
        assert!(matches!(
            spec.validate(&data),
            Err(IslaError::InvalidConfig(_))
        ));
    }

    #[test]
    fn zero_selectivity_predicates_are_rejected_at_pre_estimation() {
        let data = grouped_set(5_000, 3, 10);
        let spec = RowSpec {
            agg_column: 0,
            filter: RowFilter::new(vec![ColumnPredicate {
                column: 0,
                op: CmpOp::Gt,
                value: 1e9,
            }]),
            group_by: None,
        };
        let mut rng = StdRng::seed_from_u64(11);
        assert!(matches!(
            row_pre_estimate_with(
                &data,
                &config(0.5),
                &spec,
                u64::MAX,
                &RecoveryPolicy::strict(),
                &mut rng
            ),
            Err(IslaError::InsufficientData(_))
        ));
    }

    #[test]
    fn specs_validate_column_bounds_and_fingerprint_shapes() {
        let data = grouped_set(1_000, 2, 12);
        let bad = RowSpec {
            agg_column: 5,
            filter: RowFilter::all(),
            group_by: None,
        };
        assert!(matches!(
            bad.validate(&data),
            Err(IslaError::InvalidConfig(_))
        ));

        let scalar = RowSpec::column(0);
        let filtered = filtered_grouped_spec();
        let ungrouped = RowSpec {
            group_by: None,
            ..filtered_grouped_spec()
        };
        assert_ne!(scalar.fingerprint(), filtered.fingerprint());
        assert_ne!(filtered.fingerprint(), ungrouped.fingerprint());
        assert_eq!(
            filtered.fingerprint(),
            filtered_grouped_spec().fingerprint()
        );
    }

    #[test]
    fn projection_reads_the_spec_columns_and_reindexes_the_spec() {
        // Columns referenced in descending order, the agg column also
        // filtered on, the group-by column also filtered on, and a
        // duplicated conjunct.
        let pred = |column, op, value| ColumnPredicate { column, op, value };
        let spec = RowSpec {
            agg_column: 5,
            filter: RowFilter::new(vec![
                pred(7, CmpOp::Gt, 1.0),
                pred(5, CmpOp::Le, 9.0),
                pred(2, CmpOp::Ne, 4.0),
                pred(7, CmpOp::Gt, 1.0),
            ]),
            group_by: Some(2),
        };
        let read = Projection::of(&spec);
        assert_eq!(read.columns, vec![2, 5, 7]);
        assert_eq!(read.spec.agg_column, 1);
        assert_eq!(read.spec.group_by, Some(0));
        let reindexed: Vec<usize> = read
            .spec
            .filter
            .predicates()
            .iter()
            .map(|p| p.column)
            .collect();
        assert_eq!(reindexed, vec![0, 1, 2, 2], "conjunct order is preserved");

        // A spec that reads every column projects to itself.
        let full = RowSpec {
            agg_column: 1,
            filter: RowFilter::new(vec![pred(0, CmpOp::Lt, 3.0)]),
            group_by: Some(2),
        };
        let read = Projection::of(&full);
        assert_eq!(read.columns, vec![0, 1, 2]);
        assert_eq!(read.spec, full);
    }

    proptest::proptest! {
        /// The re-indexed spec on the compact tuple decides exactly
        /// what the original spec decides on the full row: same match,
        /// same group key, same aggregated value.
        #[test]
        fn projected_spec_agrees_with_the_spec_on_every_row(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let width = rng.random_range(1usize..=6);
            let ops = [CmpOp::Gt, CmpOp::Lt, CmpOp::Ge, CmpOp::Le, CmpOp::Eq, CmpOp::Ne];
            let preds = (0..rng.random_range(0usize..4))
                .map(|_| ColumnPredicate {
                    column: rng.random_range(0..width),
                    op: ops[rng.random_range(0..ops.len())],
                    value: rng.random_range(0u32..4) as f64,
                })
                .collect();
            let spec = RowSpec {
                agg_column: rng.random_range(0..width),
                filter: RowFilter::new(preds),
                group_by: rng.random_bool(0.5).then(|| rng.random_range(0..width)),
            };
            let read = Projection::of(&spec);
            for _ in 0..64 {
                let row: Vec<f64> = (0..width).map(|_| rng.random_range(0u32..4) as f64).collect();
                let tuple: Vec<f64> = read.columns.iter().map(|&c| row[c]).collect();
                proptest::prop_assert_eq!(read.spec.filter.matches(&tuple), spec.filter.matches(&row));
                proptest::prop_assert_eq!(read.spec.group_key(&tuple), spec.group_key(&row));
                proptest::prop_assert_eq!(tuple[read.spec.agg_column], row[spec.agg_column]);
            }
        }
    }

    #[test]
    fn exact_groups_scan_matches_hand_computation() {
        let data = RowsBlock::split(
            vec![
                vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                vec![0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
            ],
            2,
        );
        let spec = RowSpec {
            agg_column: 0,
            filter: RowFilter::new(vec![ColumnPredicate {
                column: 0,
                op: CmpOp::Gt,
                value: 1.5,
            }]),
            group_by: Some(1),
        };
        let exact = scan_exact_groups(&data, &spec).unwrap();
        assert_eq!(
            exact,
            vec![
                GroupExact {
                    key: 0.0,
                    mean: 4.0,
                    count: 2
                },
                GroupExact {
                    key: 1.0,
                    mean: 4.0,
                    count: 3
                },
            ]
        );
    }
}
