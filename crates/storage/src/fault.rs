//! Deterministic fault injection: seeded chaos for the execution stack.
//!
//! A [`FaultPlan`] assigns each block of a [`BlockSet`] one fault from a
//! seeded derivation — transient unavailability that recovers after a
//! fixed number of attempts, permanent block loss, latency stalls
//! (straggler simulation), or non-finite value corruption — and
//! [`FaultPlan::arm`] wraps every block in a [`FaultyBlock`] decorator
//! that injects the assigned fault at each data-plane access.
//!
//! **Determinism law.** The fault assigned to block `i` is a pure
//! function of `(plan seed, i)` via the same splitmix64 finalizer the
//! engine uses for stream derivation, and transient attempt counters
//! live *per block* — so which accesses fail, and how many retries each
//! block needs, is independent of worker count and scheduling order.
//! Rerunning the same armed plan with the same engine seed reproduces
//! the same degraded answer bit for bit.
//!
//! **Scope.** Faults bite the data plane only — [`DataBlock::gather`],
//! [`DataBlock::draw`] and [`DataBlock::scan_column_chunks`], one gate
//! (and one transient counter bump) per call, before any RNG draw or
//! delivered chunk — so every [`crate::BlockReads`] adapter is gated
//! exactly once per access. Metadata — lengths, widths, and the O(1)
//! [`DataBlock::sketch`] hook — passes through unchanged, mirroring a
//! real system where the catalog survives a data node: pre-estimation
//! stays plannable while the calculation phase sees the failure. The
//! one exception is [`DataBlock::zone`]: a verdict there *replaces*
//! reads, so a block with an armed fault answers
//! [`ZoneMatch::Mixed`] and no consumer skips past the fault gate on
//! the strength of the surviving sketch.
//!
//! With no fault assigned the decorator is a single enum check per
//! call before forwarding to the inner block's own reads (overhead gated
//! ≤2% by `exp_faults`), so disarmed wrapping stays bit-identical to the
//! bare block (pinned by `tests/kernel_identity.rs`).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::RngCore;

use crate::block::DataBlock;
use crate::blockset::BlockSet;
use crate::error::StorageError;
use crate::filter::RowFilter;
use crate::selection::ZoneMatch;

/// Splitmix64 finalizer — the storage-side twin of the engine's
/// `stream_seed`, kept dependency-free so fault derivation needs no RNG
/// construction (and stays out of the determinism lint's way).
fn mix(digest: u64, salt: u64) -> u64 {
    let mut z = digest ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the mixed bits of `(seed, block, salt)`.
fn unit(seed: u64, block: u64, salt: u64) -> f64 {
    (mix(mix(seed, block), salt) >> 11) as f64 / (1u64 << 53) as f64
}

/// The fault a plan assigned to one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockFault {
    /// No fault: every access forwards untouched.
    None,
    /// The first `failures` data-plane accesses fail with
    /// [`StorageError::Unavailable`], then the block recovers.
    Transient {
        /// Failing accesses before recovery.
        failures: u32,
    },
    /// Every data-plane access fails with [`StorageError::BlockLost`].
    Lost,
    /// Accesses succeed but every value read from the block is replaced
    /// with NaN — silent corruption the engine must detect downstream.
    Corrupt,
}

/// A seeded, deterministic chaos schedule over a block set.
///
/// Probabilities assign faults per block (loss takes precedence over
/// transient, transient over corruption; a stall composes with any of
/// them). The assignment for block `i` depends only on `(seed, i)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    transient_prob: f64,
    transient_failures: u32,
    loss_prob: f64,
    corrupt_prob: f64,
    stall_prob: f64,
    stall: Duration,
}

impl FaultPlan {
    /// A plan with the given seed and no faults armed — wrapping with
    /// it exercises the pass-through hook only.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            transient_prob: 0.0,
            transient_failures: 0,
            loss_prob: 0.0,
            corrupt_prob: 0.0,
            stall_prob: 0.0,
            stall: Duration::ZERO,
        }
    }

    /// Marks each block transient with probability `prob`; an afflicted
    /// block fails its first `failures` accesses, then recovers.
    pub fn transient(mut self, prob: f64, failures: u32) -> Self {
        self.transient_prob = prob.clamp(0.0, 1.0);
        self.transient_failures = failures;
        self
    }

    /// Permanently loses each block with probability `prob`.
    pub fn lose(mut self, prob: f64) -> Self {
        self.loss_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Corrupts each block's values to NaN with probability `prob`.
    pub fn corrupt(mut self, prob: f64) -> Self {
        self.corrupt_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Stalls each block's accesses by `delay` with probability `prob`
    /// — the in-process straggler.
    pub fn stall(mut self, prob: f64, delay: Duration) -> Self {
        self.stall_prob = prob.clamp(0.0, 1.0);
        self.stall = delay;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault this plan assigns to block `block_id` — a pure
    /// function of `(seed, block_id)`, independent of arming order.
    pub fn fault_for(&self, block_id: usize) -> BlockFault {
        let b = block_id as u64;
        if unit(self.seed, b, 1) < self.loss_prob {
            return BlockFault::Lost;
        }
        if self.transient_failures > 0 && unit(self.seed, b, 2) < self.transient_prob {
            return BlockFault::Transient {
                failures: self.transient_failures,
            };
        }
        if unit(self.seed, b, 3) < self.corrupt_prob {
            return BlockFault::Corrupt;
        }
        BlockFault::None
    }

    /// The stall this plan assigns to block `block_id`, if any.
    pub fn stall_for(&self, block_id: usize) -> Option<Duration> {
        (!self.stall.is_zero() && unit(self.seed, block_id as u64, 4) < self.stall_prob)
            .then_some(self.stall)
    }

    /// Wraps every block of `data` in a [`FaultyBlock`] carrying its
    /// assigned fault, returning a new set (fresh derived-state caches,
    /// fresh per-block attempt counters — re-arming resets the chaos).
    /// Block ids, sizes, and order are preserved.
    pub fn arm(&self, data: &BlockSet) -> BlockSet {
        let blocks: Vec<Arc<dyn DataBlock>> = (0..data.block_count())
            .map(|i| {
                Arc::new(FaultyBlock::new(
                    Arc::clone(data.block(i)),
                    self.fault_for(i),
                    self.stall_for(i),
                )) as Arc<dyn DataBlock>
            })
            .collect();
        BlockSet::new(blocks)
    }
}

/// A [`DataBlock`] decorator that injects one [`BlockFault`] into the
/// data plane while forwarding metadata untouched.
pub struct FaultyBlock {
    inner: Arc<dyn DataBlock>,
    fault: BlockFault,
    stall: Option<Duration>,
    /// Failed accesses so far (transient faults only). Per-block state:
    /// attempt counting is local to the block, so recovery timing does
    /// not depend on what other blocks or workers are doing.
    attempts: AtomicU32,
}

impl FaultyBlock {
    /// Wraps `inner` with a fault and an optional stall.
    pub fn new(inner: Arc<dyn DataBlock>, fault: BlockFault, stall: Option<Duration>) -> Self {
        Self {
            inner,
            fault,
            stall,
            attempts: AtomicU32::new(0),
        }
    }

    /// The assigned fault.
    pub fn fault(&self) -> BlockFault {
        self.fault
    }

    /// Failed accesses counted so far.
    pub fn attempts(&self) -> u32 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// The per-access fault gate: stalls if assigned, then fails while
    /// the fault demands it. `Ok(true)` means values must be corrupted.
    fn guard(&self) -> Result<bool, StorageError> {
        if let Some(delay) = self.stall {
            std::thread::sleep(delay);
        }
        match self.fault {
            BlockFault::None => Ok(false),
            BlockFault::Corrupt => Ok(true),
            BlockFault::Lost => Err(StorageError::BlockLost {
                detail: "injected permanent loss".to_string(),
            }),
            BlockFault::Transient { failures } => {
                // One counter bump per failed access. Accesses after
                // recovery leave the counter untouched, so `attempts()`
                // reports exactly the injected failures.
                let prior = self
                    .attempts
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                        (n < failures).then(|| n + 1)
                    });
                match prior {
                    Ok(n) => Err(StorageError::Unavailable {
                        attempt: n + 1,
                        detail: format!("injected transient fault ({} of {failures})", n + 1),
                    }),
                    Err(_) => Ok(false), // recovered
                }
            }
        }
    }
}

impl std::fmt::Debug for FaultyBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyBlock")
            .field("fault", &self.fault)
            .field("stall", &self.stall)
            .field("attempts", &self.attempts())
            .finish()
    }
}

impl DataBlock for FaultyBlock {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn width(&self) -> usize {
        self.inner.width()
    }

    fn gather(
        &self,
        columns: &[usize],
        indices: &[u64],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        let corrupt = self.guard()?;
        self.inner.gather(columns, indices, out)?;
        if corrupt {
            out.fill(f64::NAN);
        }
        Ok(())
    }

    fn draw(
        &self,
        rng: &mut dyn RngCore,
        columns: &[usize],
        indices: &mut [u64],
        out: &mut [f64],
    ) -> Result<(), StorageError> {
        // The gate runs before the first index draw: a failed access
        // consumes no RNG, so an in-place retry replays the same draws.
        let corrupt = self.guard()?;
        self.inner.draw(rng, columns, indices, out)?;
        if corrupt {
            out.fill(f64::NAN);
        }
        Ok(())
    }

    fn scan_column_chunks(
        &self,
        columns: &[usize],
        visit: &mut dyn FnMut(&[&[f64]]),
    ) -> Result<(), StorageError> {
        let corrupt = self.guard()?;
        if !corrupt {
            return self.inner.scan_column_chunks(columns, visit);
        }
        let mut nan: Vec<f64> = Vec::new();
        self.inner.scan_column_chunks(columns, &mut |chunk| {
            nan.clear();
            nan.resize(chunk.first().map_or(0, |col| col.len()), f64::NAN);
            visit(&vec![nan.as_slice(); chunk.len()]);
        })
    }

    fn supports_scan(&self) -> bool {
        self.inner.supports_scan()
    }

    fn sketch(&self) -> Option<Arc<crate::sketch::BlockSketch>> {
        // Metadata plane: sketches survive data faults (see module docs).
        self.inner.sketch()
    }

    fn zone(&self, filter: &RowFilter) -> ZoneMatch {
        // A zone verdict stands in for reads, and an armed fault makes
        // the reads differ from what the (forwarded) sketch describes:
        // they fail, or deliver NaN. Undecided, so every draw still goes
        // through the gate — errors, retries and corrupt rows surface
        // exactly as they do without a sketch.
        match self.fault {
            BlockFault::None => self.inner.zone(filter),
            _ => ZoneMatch::Mixed,
        }
    }

    fn project(&self, _col: usize) -> Option<Arc<dyn DataBlock>> {
        // Projections would bypass the fault gate; fall back to the
        // generic column view, which routes reads through this block.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockReads;
    use crate::rows::RowsBlock;

    fn mem(n: u64) -> Arc<dyn DataBlock> {
        Arc::new(RowsBlock::new(vec![(0..n).map(|i| i as f64).collect()]))
    }

    fn rng() -> impl RngCore {
        // Test-gated code is exempt from the determinism lint: engine
        // streams still flow through engine::seed.
        rand::rngs::StdRng::seed_from_u64(7)
    }
    use rand::SeedableRng;

    #[test]
    fn fault_assignment_is_a_pure_function_of_seed_and_block() {
        let plan = FaultPlan::new(42).lose(0.3).transient(0.3, 2).corrupt(0.2);
        let first: Vec<BlockFault> = (0..64).map(|i| plan.fault_for(i)).collect();
        let second: Vec<BlockFault> = (0..64).map(|i| plan.fault_for(i)).collect();
        assert_eq!(first, second);
        // The mix actually assigns every kind at these rates.
        assert!(first.iter().any(|f| matches!(f, BlockFault::Lost)));
        assert!(first
            .iter()
            .any(|f| matches!(f, BlockFault::Transient { .. })));
        assert!(first.iter().any(|f| matches!(f, BlockFault::Corrupt)));
        assert!(first.iter().any(|f| matches!(f, BlockFault::None)));
        // A different seed reshuffles the assignment.
        let other = FaultPlan::new(43).lose(0.3).transient(0.3, 2).corrupt(0.2);
        let shuffled: Vec<BlockFault> = (0..64).map(|i| other.fault_for(i)).collect();
        assert_ne!(first, shuffled);
    }

    #[test]
    fn disarmed_block_is_a_pure_pass_through() {
        let inner = mem(100);
        let faulty = FaultyBlock::new(Arc::clone(&inner), BlockFault::None, None);
        let mut a = rng();
        let mut b = rng();
        assert_eq!(
            faulty.sample_one(&mut a).unwrap(),
            inner.sample_one(&mut b).unwrap()
        );
        assert_eq!(faulty.len(), 100);
        assert_eq!(faulty.row_at(3).unwrap(), 3.0);
        assert_eq!(faulty.attempts(), 0);
    }

    #[test]
    fn transient_fault_recovers_after_n_attempts() {
        let faulty = FaultyBlock::new(mem(10), BlockFault::Transient { failures: 3 }, None);
        let mut r = rng();
        for expect in 1..=3u32 {
            match faulty.sample_one(&mut r) {
                Err(StorageError::Unavailable { attempt, .. }) => assert_eq!(attempt, expect),
                other => panic!("expected Unavailable, got {other:?}"),
            }
        }
        assert!(faulty.sample_one(&mut r).is_ok(), "recovered");
        assert!(faulty.row_at(0).is_ok());
        assert_eq!(faulty.attempts(), 3, "recovered accesses do not count");
    }

    #[test]
    fn lost_block_never_recovers_and_corrupt_block_yields_nan() {
        let lost = FaultyBlock::new(mem(10), BlockFault::Lost, None);
        let mut r = rng();
        for _ in 0..5 {
            assert!(matches!(
                lost.sample_one(&mut r),
                Err(StorageError::BlockLost { .. })
            ));
        }
        assert!(matches!(
            lost.scan(&mut |_| {}),
            Err(StorageError::BlockLost { .. })
        ));

        let corrupt = FaultyBlock::new(mem(10), BlockFault::Corrupt, None);
        assert!(corrupt.sample_one(&mut r).unwrap().is_nan());
        assert!(corrupt.row_at(4).unwrap().is_nan());
        let mut seen = Vec::new();
        corrupt.scan(&mut |v| seen.push(v)).unwrap();
        assert_eq!(seen.len(), 10);
        assert!(seen.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn batched_access_respects_the_fault_gate() {
        let corrupt = FaultyBlock::new(mem(50), BlockFault::Corrupt, None);
        let mut r = rng();
        crate::kernel::with_row_sample_buf(|buf| {
            buf.project(Some(&[0]));
            corrupt.sample_rows_batch(8, &mut r, buf).unwrap();
            assert_eq!(buf.rows().len(), 8);
            assert!(buf.rows().iter().all(|v| v.is_nan()));
        });
        let mut chunked = Vec::new();
        corrupt
            .scan_chunks(&mut |c| chunked.extend_from_slice(c))
            .unwrap();
        assert!(chunked.iter().all(|v| v.is_nan()));

        let transient = FaultyBlock::new(mem(50), BlockFault::Transient { failures: 1 }, None);
        crate::kernel::with_row_sample_buf(|buf| {
            buf.project(Some(&[0]));
            assert!(transient.sample_rows_batch(8, &mut r, buf).is_err());
            transient.sample_rows_batch(8, &mut r, buf).unwrap();
        });
    }

    #[test]
    fn arm_wraps_every_block_and_preserves_shape() {
        let data = BlockSet::from_values((0..1000).map(|i| i as f64).collect(), 8);
        let plan = FaultPlan::new(5).lose(0.25);
        let armed = plan.arm(&data);
        assert_eq!(armed.block_count(), data.block_count());
        assert_eq!(armed.total_len(), data.total_len());
        for i in 0..armed.block_count() {
            assert_eq!(armed.block(i).len(), data.block(i).len());
            // Wrapped with the plan's fault: exactly the lost blocks fail.
            let lost = plan.fault_for(i) == BlockFault::Lost;
            assert_eq!(armed.block(i).row_at(0).is_err(), lost, "block {i}");
        }
        // Arming twice yields fresh attempt counters but identical faults.
        let rearmed = plan.arm(&data);
        for i in 0..armed.block_count() {
            assert_eq!(
                armed.block(i).row_at(0).is_err(),
                rearmed.block(i).row_at(0).is_err(),
                "block {i}"
            );
        }
    }

    #[test]
    fn stall_delays_but_does_not_fail() {
        let plan = FaultPlan::new(1).stall(1.0, Duration::from_millis(1));
        assert_eq!(plan.stall_for(0), Some(Duration::from_millis(1)));
        let stalled = FaultyBlock::new(mem(10), BlockFault::None, Some(Duration::from_millis(1)));
        let start = std::time::Instant::now();
        let mut r = rng();
        stalled.sample_one(&mut r).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(1));
        assert_eq!(FaultPlan::new(1).stall_for(0), None, "zero stall disarms");
    }

    #[test]
    fn metadata_passes_through_faults() {
        let lost = FaultyBlock::new(mem(10), BlockFault::Lost, None);
        assert_eq!(lost.len(), 10);
        assert_eq!(lost.width(), 1);
        assert!(lost.supports_scan());
        assert!(lost.sketch().is_some(), "mem blocks carry a sketch hook");
        assert!(
            lost.project(0).is_none(),
            "projection routes through the gate"
        );
    }

    #[test]
    fn armed_faults_decide_no_zone() {
        use crate::filter::{CmpOp, ColumnPredicate};
        // Rows 0..10: `> 100` is provably matchless, `>= 0` provably
        // matches every row — on the bare block and through a disarmed
        // wrapper. An armed fault makes the reads differ from what the
        // sketch says, so the wrapper must leave every draw to the gate.
        let pred = |op, value| {
            RowFilter::new(vec![ColumnPredicate {
                column: 0,
                op,
                value,
            }])
        };
        let (matchless, all) = (pred(CmpOp::Gt, 100.0), pred(CmpOp::Ge, 0.0));
        assert_eq!(mem(10).zone(&matchless), ZoneMatch::Matchless);
        assert_eq!(mem(10).zone(&all), ZoneMatch::AllMatch);
        let disarmed = FaultyBlock::new(mem(10), BlockFault::None, None);
        assert_eq!(disarmed.zone(&matchless), ZoneMatch::Matchless);
        assert_eq!(disarmed.zone(&all), ZoneMatch::AllMatch);
        for fault in [
            BlockFault::Lost,
            BlockFault::Corrupt,
            BlockFault::Transient { failures: 1 },
        ] {
            let armed: Arc<dyn DataBlock> = Arc::new(FaultyBlock::new(mem(10), fault, None));
            assert!(armed.sketch().is_some(), "{fault:?}: the sketch survives");
            assert_eq!(armed.zone(&matchless), ZoneMatch::Mixed, "{fault:?}");
            assert_eq!(armed.zone(&all), ZoneMatch::Mixed, "{fault:?}");
        }
    }
}
