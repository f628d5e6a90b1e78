//! Standing queries over appendable block sets.
//!
//! A [`ContinuousQuery`] registers an AVG/SUM/COUNT (optionally
//! filtered/grouped) query once — running the pilots and pinning a
//! [`RowPlan`] — and from then on absorbs each sealed append in
//! O(new blocks): the per-block Calculation phase runs only over blocks
//! it has not seen, folding their [`crate::engine::RowBlockOutcome`]s into a held
//! [`GroupedPartial`]. Because each block's seed is a pure function of
//! the registration seed and the block's index
//! ([`seed::stream_seed`]), absorbing a growth history batch-by-batch
//! is bit-identical to absorbing it in one call — the standing query's
//! answer depends on *what* was appended, never on how the appends were
//! batched.
//!
//! The plan itself is deliberately frozen at registration: the paper's
//! scheme prices its sampling rate from the pilot σ̂, and re-piloting on
//! every append would make the standing answer drift with batching.
//! Callers that want the rate re-priced (say, after the data's σ has
//! visibly moved) simply re-register.

use isla_storage::BlockSet;

use crate::config::IslaConfig;
use crate::engine::rows::{execute_row_block, row_pre_estimate_with, RowPlan, RowSpec};
use crate::engine::seed;
use crate::engine::{GroupedAggregate, GroupedPartial, RateSpec, RecoveryPolicy};
use crate::error::IslaError;

/// The scalar answers of a standing query, derived from one finalized
/// snapshot: the filtered AVG, the SUM it implies, and the matching row
/// COUNT — all estimates with the plan's precision.
#[derive(Debug, Clone, PartialEq)]
pub struct ContinuousAnswer {
    /// Estimated AVG over matching rows.
    pub avg: f64,
    /// Estimated SUM over matching rows (`avg × count`).
    pub sum: f64,
    /// Estimated number of matching rows.
    pub count: f64,
}

/// A registered standing query: a pinned [`RowPlan`] plus the mergeable
/// per-block state absorbed so far.
#[derive(Debug, Clone)]
pub struct ContinuousQuery {
    plan: RowPlan,
    partial: GroupedPartial,
    blocks_seen: usize,
    rows_seen: u64,
    seed: u64,
}

impl ContinuousQuery {
    /// Registers a standing query over `data`: runs the row pilots
    /// (seeded from `seed`), pins the resulting plan, and absorbs every
    /// block already present.
    ///
    /// # Errors
    ///
    /// Invalid spec/config, pilot failures, or block execution errors.
    pub fn register(
        data: &BlockSet,
        config: &IslaConfig,
        spec: RowSpec,
        seed: u64,
    ) -> Result<Self, IslaError> {
        spec.validate(data)?;
        let mut rng = seed::seeded_rng(seed);
        let pre = row_pre_estimate_with(
            data,
            config,
            &spec,
            u64::MAX,
            &RecoveryPolicy::strict(),
            &mut rng,
        )?;
        let plan = RowPlan::from_pre_estimate(data, config, spec, pre, RateSpec::Derived)?;
        let mut query = Self {
            plan,
            partial: GroupedPartial::new(),
            blocks_seen: 0,
            rows_seen: 0,
            seed,
        };
        query.update(data)?;
        Ok(query)
    }

    /// Absorbs every block of `data` this query has not yet seen and
    /// returns how many there were — O(new blocks), the standing-query
    /// contract. Blocks are identified positionally: pass the same
    /// (grown) set the query was registered on, or any snapshot of it
    /// at a later epoch.
    ///
    /// # Errors
    ///
    /// [`IslaError::InvalidConfig`] when `data` holds *fewer* blocks
    /// than this query has absorbed (an older snapshot, or a different
    /// set), or when a new block is too narrow for the spec; block
    /// execution errors otherwise.
    pub fn update(&mut self, data: &BlockSet) -> Result<usize, IslaError> {
        let count = data.block_count();
        if count < self.blocks_seen {
            return Err(IslaError::InvalidConfig(format!(
                "standing query has absorbed {} blocks but the set holds only {count} — \
                 update must see the same set at the same or a later epoch",
                self.blocks_seen
            )));
        }
        if count == self.blocks_seen {
            return Ok(0);
        }
        self.plan
            .spec()
            .validate(&data.subrange(self.blocks_seen..count))?;
        let mut absorbed = 0usize;
        for i in self.blocks_seen..count {
            let block = data.block(i);
            let block_seed = seed::stream_seed(self.seed, i as u64);
            let outcome = execute_row_block(&self.plan, block.as_ref(), i, block_seed)?;
            self.partial.absorb(outcome);
            self.rows_seen += block.len();
            absorbed += 1;
        }
        self.blocks_seen = count;
        Ok(absorbed)
    }

    /// Finalizes the absorbed state into per-group estimates without
    /// disturbing it — the standing query keeps running.
    ///
    /// # Errors
    ///
    /// [`IslaError::InsufficientData`] when nothing absorbed carries
    /// weight (e.g. no block has been absorbed yet).
    pub fn snapshot(&self) -> Result<GroupedAggregate, IslaError> {
        self.partial.clone().finalize(&self.plan)
    }

    /// Convenience: a snapshot reduced to the scalar AVG/SUM/COUNT
    /// answers.
    ///
    /// # Errors
    ///
    /// Same as [`ContinuousQuery::snapshot`].
    pub fn answer(&self) -> Result<ContinuousAnswer, IslaError> {
        let agg = self.snapshot()?;
        Ok(ContinuousAnswer {
            avg: agg.estimate,
            sum: agg.estimate * agg.matched_rows,
            count: agg.matched_rows,
        })
    }

    /// The pinned plan (frozen at registration).
    pub fn plan(&self) -> &RowPlan {
        &self.plan
    }

    /// Blocks absorbed so far.
    pub fn blocks_seen(&self) -> usize {
        self.blocks_seen
    }

    /// Rows across absorbed blocks.
    pub fn rows_seen(&self) -> u64 {
        self.rows_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isla_storage::{CmpOp, ColumnPredicate, RowFilter, RowsBlock};
    use std::sync::Arc;

    fn config(e: f64) -> IslaConfig {
        IslaConfig::builder().precision(e).build().unwrap()
    }

    fn two_col(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let x = isla_datagen::normal_values(100.0, 20.0, n, seed);
        let y: Vec<f64> = x.iter().map(|v| v * 0.5).collect();
        (x, y)
    }

    fn filtered_spec() -> RowSpec {
        RowSpec {
            agg_column: 0,
            filter: RowFilter::new(vec![ColumnPredicate {
                column: 1,
                op: CmpOp::Gt,
                value: 45.0,
            }]),
            group_by: None,
        }
    }

    #[test]
    fn batched_updates_match_one_shot_absorption_bit_for_bit() {
        let (x, y) = two_col(40_000, 80);
        let mut data = RowsBlock::split(vec![x, y], 4);
        let cfg = config(0.5);
        let mut stepped = ContinuousQuery::register(&data, &cfg, filtered_spec(), 9).unwrap();
        let mut oneshot = stepped.clone();
        // Grow by four single-block seals, updating `stepped` per seal
        // and `oneshot` only at the end.
        for i in 0..4u64 {
            let (x2, y2) = two_col(5_000, 81 + i);
            data.append_block(Arc::new(RowsBlock::new(vec![x2, y2])))
                .unwrap();
            assert_eq!(stepped.update(&data).unwrap(), 1);
        }
        assert_eq!(oneshot.update(&data).unwrap(), 4);
        assert_eq!(stepped.blocks_seen(), 8);
        assert_eq!(stepped.rows_seen(), 60_000);
        let a = stepped.answer().unwrap();
        let b = oneshot.answer().unwrap();
        assert_eq!(a, b, "batching must never change the standing answer");
        assert!(a.avg > 90.0 && a.avg < 110.0);
        assert!(a.count > 0.0 && a.count <= 60_000.0);
        assert!((a.sum - a.avg * a.count).abs() < 1e-9);
    }

    #[test]
    fn update_is_idempotent_at_a_fixed_epoch_and_rejects_older_sets() {
        let (x, y) = two_col(20_000, 82);
        let mut data = RowsBlock::split(vec![x, y], 2);
        let cfg = config(0.5);
        let mut q = ContinuousQuery::register(&data, &cfg, filtered_spec(), 11).unwrap();
        let before = q.snapshot().unwrap().estimate;
        assert_eq!(q.update(&data).unwrap(), 0, "nothing new, nothing drawn");
        assert_eq!(q.snapshot().unwrap().estimate, before);
        // A pre-append snapshot taken now...
        let stale = data.clone();
        let (x2, y2) = two_col(3_000, 83);
        data.append_block(Arc::new(RowsBlock::new(vec![x2, y2])))
            .unwrap();
        q.update(&data).unwrap();
        // ...is rejected once the query has absorbed past it.
        assert!(q.update(&stale).is_err(), "older snapshots must be refused");
    }

    #[test]
    fn grouped_standing_query_tracks_every_group() {
        let n = 30_000usize;
        let x = isla_datagen::normal_values(50.0, 10.0, n, 84);
        let g: Vec<f64> = (0..n).map(|i| f64::from((i % 3) as u32)).collect();
        let mut data = RowsBlock::split(vec![x, g], 3);
        let cfg = config(0.5);
        let spec = RowSpec {
            agg_column: 0,
            filter: RowFilter::all(),
            group_by: Some(1),
        };
        let mut q = ContinuousQuery::register(&data, &cfg, spec, 13).unwrap();
        let x2 = isla_datagen::normal_values(50.0, 10.0, 6_000, 85);
        let g2: Vec<f64> = (0..6_000).map(|i| f64::from((i % 3) as u32)).collect();
        data.append_block(Arc::new(RowsBlock::new(vec![x2, g2])))
            .unwrap();
        q.update(&data).unwrap();
        let agg = q.snapshot().unwrap();
        assert_eq!(agg.groups.len(), 3, "all three groups survive appends");
        for group in &agg.groups {
            assert!(group.estimate > 40.0 && group.estimate < 60.0);
        }
    }
}
