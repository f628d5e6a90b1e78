//! Mergeable partial aggregation state.
//!
//! Per-block [`BlockOutcome`]s are independent and weight-combinable, so
//! the Summarization module reduces to an associative merge: partials
//! built on different workers (or machines) combine in any completion
//! order, and [`PartialAggregate::finalize`] re-canonicalizes by block id
//! before the size-weighted combination — making the final answer
//! bit-for-bit identical to a sequential run no matter how the blocks
//! were scheduled.

use std::collections::BTreeMap;

use crate::block_exec::BlockOutcome;
use crate::error::IslaError;
use crate::summarize::combine_partials;

use super::rows::{GroupEstimate, RowBlockOutcome, RowPlan};

/// Mergeable per-block aggregation state.
///
/// Outcomes may be absorbed in any completion order (pooled workers,
/// shards, machines): [`PartialAggregate::finalize`] re-orders them
/// canonically, so the answer does not change.
#[derive(Debug, Clone, Default)]
pub struct PartialAggregate {
    outcomes: Vec<BlockOutcome>,
    total_samples: u64,
}

/// The finalized product of a partial aggregation.
#[derive(Debug, Clone)]
pub struct FinalAggregate {
    /// The size-weighted combined answer (the paper's Summarization).
    pub estimate: f64,
    /// Per-block outcomes, sorted by block id.
    pub blocks: Vec<BlockOutcome>,
    /// Calculation-phase samples drawn across all blocks.
    pub total_samples: u64,
}

/// A partial holding `outcomes`, as absorbing them one by one in that
/// order would build it.
impl From<Vec<BlockOutcome>> for PartialAggregate {
    fn from(outcomes: Vec<BlockOutcome>) -> Self {
        Self {
            total_samples: outcomes.iter().map(|o| o.samples_drawn).sum(),
            outcomes,
        }
    }
}

impl PartialAggregate {
    /// An empty partial.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one block outcome to this partial.
    pub fn absorb(&mut self, outcome: BlockOutcome) {
        self.total_samples += outcome.samples_drawn;
        self.outcomes.push(outcome);
    }

    /// Canonicalizes (sorts by block id) and combines the partial answers
    /// weighted by block size.
    ///
    /// # Errors
    ///
    /// [`IslaError::InsufficientData`] when the held blocks carry no rows.
    pub fn finalize(mut self) -> Result<FinalAggregate, IslaError> {
        self.outcomes.sort_by_key(|o| o.block_id);
        debug_assert!(
            self.outcomes
                .windows(2)
                .all(|w| w[0].block_id < w[1].block_id),
            "duplicate block id in partial aggregate"
        );
        let partials: Vec<(f64, u64)> = self.outcomes.iter().map(|o| (o.answer, o.rows)).collect();
        let estimate = combine_partials(&partials)?;
        Ok(FinalAggregate {
            estimate,
            blocks: self.outcomes,
            total_samples: self.total_samples,
        })
    }
}

/// The per-group generalization of [`PartialAggregate`]: a mergeable
/// map from group key to per-block partial answers.
///
/// Like the scalar partial, outcomes absorb in any completion order:
/// [`GroupedPartial::finalize`] re-orders them canonically (blocks by
/// id, groups by key), so they finalize to bit-identical per-group
/// estimates.
#[derive(Debug, Clone, Default)]
pub struct GroupedPartial {
    outcomes: Vec<RowBlockOutcome>,
    total_samples: u64,
}

/// The finalized product of a grouped partial aggregation.
#[derive(Debug, Clone)]
pub struct GroupedAggregate {
    /// Per-group estimates, sorted by key value.
    pub groups: Vec<GroupEstimate>,
    /// The overall filtered AVG (weight-combined across groups).
    pub estimate: f64,
    /// Estimated rows matching the predicate across all groups.
    pub matched_rows: f64,
    /// Rows the calculation phase read across all blocks
    /// (`Σ` [`RowBlockOutcome::draws`]).
    pub total_samples: u64,
}

/// A grouped partial holding `outcomes`, as absorbing them one by one
/// in that order would build it.
impl From<Vec<RowBlockOutcome>> for GroupedPartial {
    fn from(outcomes: Vec<RowBlockOutcome>) -> Self {
        Self {
            total_samples: outcomes.iter().map(|o| o.draws).sum(),
            outcomes,
        }
    }
}

impl GroupedPartial {
    /// An empty grouped partial.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one block outcome to this partial.
    pub fn absorb(&mut self, outcome: RowBlockOutcome) {
        self.total_samples += outcome.draws;
        self.outcomes.push(outcome);
    }

    /// Canonicalizes (blocks by id, groups by key) and combines each
    /// group's per-block answers, weighted by the block's estimated
    /// matched row count `|Bⱼ| · matchedⱼ/offeredⱼ` — the row-model
    /// generalization of size-weighted Summarization. Both denominators
    /// count the draws *offered* ([`RowBlockOutcome::offered`]): a draw
    /// a zone map decided without reading the row is still a draw that
    /// missed.
    ///
    /// Unsplit, each group's population size (`rows_estimate`, the
    /// `SUM`/`COUNT` scale) pools the pilot and calculation draws, the
    /// lowest-variance estimate both phases can support, and plan
    /// groups that caught no calculation draw anywhere keep their pilot
    /// estimate (`sketch0`). A split plan adds each group's exact rows
    /// and `Σa` over its decided blocks to the residue's weighted
    /// partials, whose row weights are scaled from the residue blocks
    /// that drew to the residue's rows. A group the residue's draws
    /// caught none of is its decided part alone; one with no decided row
    /// either, or any group when no residue block drew at all, keeps its
    /// pilot estimate, unless its decided rows alone outnumber it. A plan
    /// metadata pinned finalizes to its exact answer, whatever its
    /// blocks drew.
    ///
    /// # Errors
    ///
    /// [`IslaError::InsufficientData`] when no group carries any weight,
    /// or when the combined estimate is not finite.
    pub fn finalize(mut self, plan: &RowPlan) -> Result<GroupedAggregate, IslaError> {
        if let Some(answer) = plan.pinned_answer() {
            return finite(GroupedAggregate {
                total_samples: self.total_samples,
                ..answer
            });
        }
        self.outcomes.sort_by_key(|o| o.block_id);
        debug_assert!(
            self.outcomes
                .windows(2)
                .all(|w| w[0].block_id < w[1].block_id),
            "duplicate block id in grouped partial"
        );
        let total_offered: u64 = self.outcomes.iter().map(|o| o.offered).sum();
        let pooled_draws = plan.pilot_rows() + total_offered;
        // Rows of the blocks that were offered draws.
        let mut drawn_rows = 0u64;
        // key bits → (key, Σw, Σw·answer, Σmatched, planned)
        let mut acc: BTreeMap<u64, (f64, f64, f64, u64, bool)> = BTreeMap::new();
        for outcome in &self.outcomes {
            if outcome.offered == 0 {
                continue;
            }
            drawn_rows += outcome.rows;
            let offered = outcome.offered as f64;
            for g in &outcome.groups {
                let w = outcome.rows as f64 * g.matched as f64 / offered;
                let entry = acc
                    .entry(g.key_bits)
                    .or_insert((g.key, 0.0, 0.0, 0, g.planned));
                entry.1 += w;
                entry.2 += w * g.answer;
                entry.3 += g.matched;
                entry.4 &= g.planned;
            }
        }
        // Plan groups the calculation phase missed entirely keep their
        // pilot estimate; keys only decided blocks hold are exact.
        for g in plan.groups() {
            acc.entry(g.pre.key_bits)
                .or_insert((g.pre.key, 0.0, 0.0, 0, true));
        }
        let decided = plan.decided();
        for g in decided.map_or(&[][..], |d| d.groups()) {
            acc.entry(g.key_bits)
                .or_insert((f64::from_bits(g.key_bits), 0.0, 0.0, 0, false));
        }
        let data_size = plan.data_size() as f64;
        let mut groups: Vec<GroupEstimate> = acc
            .into_iter()
            .map(|(key_bits, (key, w, wa, matched, planned))| {
                let plan_group = plan.group_index(key_bits).map(|i| &plan.groups()[i]);
                let pilot_matched = plan_group.map_or(0, |g| g.pre.pilot_matched);
                let (estimate, rows_estimate) = match decided {
                    None => {
                        let rows =
                            data_size * (pilot_matched + matched) as f64 / pooled_draws as f64;
                        // No calculation draw matched: the pilot's sketch
                        // is all there is (planned groups only — unplanned
                        // groups exist exactly because a draw matched
                        // them).
                        let pilot = plan_group.map_or(0.0, |g| g.pre.sketch0);
                        (if w > 0.0 { wa / w } else { pilot }, rows)
                    }
                    Some(decided) => {
                        let exact = decided.group(key_bits);
                        let exact_rows = exact.map_or(0, |g| g.rows) as f64;
                        let pilot = plan_group.map(|g| (g.pre.sketch0, g.pre.share * data_size));
                        if w > 0.0 {
                            // The residue's weighted draws, scaled from the
                            // residue blocks that drew to all of them.
                            let rows = w * decided.residue_rows() as f64 / drawn_rows as f64;
                            match exact {
                                Some(x) => (
                                    (x.sum() + rows * (wa / w)) / (exact_rows + rows),
                                    exact_rows + rows,
                                ),
                                None => (wa / w, rows),
                            }
                        } else {
                            match (exact, pilot) {
                                // No residue block drew: the pilot's whole
                                // group, unless the decided rows alone
                                // outnumber it.
                                (Some(_), Some(p)) if drawn_rows == 0 && p.1 > exact_rows => p,
                                // The residue drew none of the key.
                                (Some(x), _) => (x.mean(), exact_rows),
                                (None, Some(p)) => p,
                                (None, None) => (0.0, 0.0),
                            }
                        }
                    }
                };
                GroupEstimate {
                    key,
                    estimate,
                    rows_estimate,
                    matched_draws: matched,
                    planned,
                }
            })
            .filter(|g| g.rows_estimate > 0.0)
            .collect();
        groups.sort_by(|a, b| a.key.total_cmp(&b.key));
        let matched_rows: f64 = groups.iter().map(|g| g.rows_estimate).sum();
        if matched_rows <= 0.0 || groups.is_empty() {
            return Err(IslaError::InsufficientData(
                "no group carries any weight after summarization".to_string(),
            ));
        }
        let estimate = groups
            .iter()
            .map(|g| g.estimate * g.rows_estimate)
            .sum::<f64>()
            / matched_rows;
        finite(GroupedAggregate {
            groups,
            estimate,
            matched_rows,
            total_samples: self.total_samples,
        })
    }
}

/// `answer`, unless its combined estimate overflowed `f64`.
fn finite(answer: GroupedAggregate) -> Result<GroupedAggregate, IslaError> {
    if answer.estimate.is_finite() {
        Ok(answer)
    } else {
        Err(IslaError::InsufficientData(
            "the combined estimate is not finite: the data overflows f64".to_string(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulate::SampleAccumulator;
    use crate::boundaries::DataBoundaries;

    fn outcome(block_id: usize, answer: f64, rows: u64, samples: u64) -> BlockOutcome {
        BlockOutcome {
            block_id,
            answer,
            rows,
            samples_drawn: samples,
            u: 0,
            v: 0,
            dev: None,
            q: 1.0,
            case: None,
            alpha: 0.0,
            iterations: 0,
            clamped: false,
            fallback: None,
            accumulator: SampleAccumulator::new(DataBoundaries::new(100.0, 20.0, 0.5, 2.0)),
            trace: None,
        }
    }

    #[test]
    fn merge_order_does_not_change_the_answer() {
        let outcomes = [
            outcome(0, 10.0, 100, 5),
            outcome(1, 20.0, 300, 6),
            outcome(2, 30.0, 600, 7),
        ];
        let mut forward = PartialAggregate::new();
        for o in &outcomes {
            forward.absorb(o.clone());
        }
        let mut reversed = PartialAggregate::new();
        for o in outcomes.iter().rev() {
            reversed.absorb(o.clone());
        }
        let a = forward.finalize().unwrap();
        let b = reversed.finalize().unwrap();
        assert_eq!(a.estimate, b.estimate, "bit-for-bit order invariance");
        assert_eq!(a.total_samples, b.total_samples);
        assert_eq!(a.blocks.len(), 3);
        assert!(a.blocks.windows(2).all(|w| w[0].block_id < w[1].block_id));
    }

    #[test]
    fn finalize_matches_direct_summarization() {
        let mut partial = PartialAggregate::new();
        partial.absorb(outcome(1, 110.0, 100, 3));
        partial.absorb(outcome(0, 10.0, 900, 2));
        let out = partial.finalize().unwrap();
        let direct = combine_partials(&[(10.0, 900), (110.0, 100)]).unwrap();
        assert_eq!(out.estimate, direct);
        assert_eq!(out.total_samples, 5);
    }

    #[test]
    fn empty_partial_fails_to_finalize() {
        assert!(matches!(
            PartialAggregate::new().finalize(),
            Err(IslaError::InsufficientData(_))
        ));
    }
}
