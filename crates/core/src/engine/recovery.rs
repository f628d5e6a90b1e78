//! Retry, failure accounting, and CI-widening graceful degradation.
//!
//! The paper's estimator makes partial failure survivable by
//! construction: per-block partial answers merge order-invariantly and
//! combine by size-weighted averaging, so an answer computed from the
//! blocks that *did* respond is still a valid estimate of the surviving
//! coverage — it just carries a wider confidence interval. This module
//! holds the three pieces that turn that observation into policy:
//!
//! * [`RetryPolicy`] — how many attempts each block gets and the
//!   deterministic backoff between them. Retries are worthwhile only
//!   for *transient* failures ([`isla_storage::StorageError::is_transient`]);
//!   permanent errors, corrupt data, and worker panics fail the block
//!   immediately.
//! * [`FailureMode`] — what a failed block does to the query:
//!   [`FailureMode::Strict`] (the default) fails the whole run exactly
//!   as the engine always has; [`FailureMode::BestEffort`] drops the
//!   block, finalizes over the survivors (the size-weighted combine
//!   re-normalizes over surviving rows inherently), and reports a
//!   [`Degradation`].
//! * [`Degradation`] — the honest accounting of a degraded answer:
//!   which blocks failed after how many attempts, the surviving
//!   coverage fraction, and the widened half-width.
//!
//! **Retry law.** Each attempt of block `i` re-seeds its RNG from the
//! same pre-derived `seeds[i]`, so a retried block draws the identical
//! samples as an untroubled first attempt — retries never perturb the
//! answer, only latency. Backoff delays are pure functions of the
//! attempt number (no jitter entropy), so chaos tests reproduce
//! bit-for-bit.
//!
//! **CI-widening law.** Let `c` be the surviving-row fraction and
//! `φ = 1 − c` the lost fraction. The sampling half-width scales as
//! `e/√c` (the same per-row sampling rate now covers only `c` of the
//! population), and the lost blocks contribute a between-block term
//! `z_β · φ · s_b · √(1/b_lost + 1/b_surv)` where `s_b` is the
//! size-weighted standard deviation of the surviving block answers —
//! the exchangeability (blocks-missing-at-random) estimate of how far
//! the lost blocks' mean can sit from the survivors'. The widened
//! half-width is the root-sum-square of the two terms; with fewer than
//! two surviving answers the between-block term is unestimable and
//! only the coverage scaling applies.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use crate::error::IslaError;

/// Deterministic delay schedule between retry attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backoff {
    /// Retry immediately.
    #[default]
    None,
    /// The same delay before every retry.
    Fixed(Duration),
    /// `base · 2^(attempt−1)`, saturating at `cap`.
    Exponential {
        /// Delay before the first retry.
        base: Duration,
        /// Upper bound on any single delay.
        cap: Duration,
    },
}

impl Backoff {
    /// The delay to sleep after failed attempt `attempt` (1-based) —
    /// a pure function of the attempt number, so retry timing carries
    /// no entropy.
    pub fn delay(&self, attempt: u32) -> Duration {
        match *self {
            Backoff::None => Duration::ZERO,
            Backoff::Fixed(d) => d,
            Backoff::Exponential { base, cap } => {
                let factor = 1u32 << attempt.saturating_sub(1).min(16);
                base.saturating_mul(factor).min(cap)
            }
        }
    }
}

/// How many attempts each block gets, and how long to wait between
/// them. The default — one attempt, no backoff — is exactly the
/// engine's historical fail-fast behavior.
///
/// Only per-block jobs on a scheduler — the calculation phase among
/// them — sleep by [`RetryPolicy::backoff`] between attempts
/// ([`run_block_recovering`]). Best-effort pilots (the scalar and row
/// pilot draws) read only [`RetryPolicy::max_attempts`]: they retry a
/// failed batch in place at once, with no delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per block (the first try included). Clamped to a
    /// minimum of 1.
    pub max_attempts: u32,
    /// Delay schedule between attempts.
    pub backoff: Backoff,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 1,
            backoff: Backoff::None,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` tries and no backoff.
    pub fn attempts(max_attempts: u32) -> Self {
        Self {
            max_attempts,
            backoff: Backoff::None,
        }
    }

    /// Sets the backoff schedule.
    pub fn with_backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = backoff;
        self
    }
}

/// What a block failure does to the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailureMode {
    /// Any block failure fails the whole run (the historical default).
    #[default]
    Strict,
    /// Failed blocks are dropped; the answer finalizes over the
    /// survivors with a widened confidence interval and a
    /// [`Degradation`] report.
    BestEffort,
}

/// The scheduler-layer recovery policy: retries plus failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryPolicy {
    /// Per-block retry budget.
    pub retry: RetryPolicy,
    /// Strict or best-effort failure handling.
    pub mode: FailureMode,
}

impl RecoveryPolicy {
    /// The historical contract: one attempt, fail-fast.
    pub fn strict() -> Self {
        Self::default()
    }

    /// Best-effort degradation with the given retry budget.
    pub fn best_effort(retry: RetryPolicy) -> Self {
        Self {
            retry,
            mode: FailureMode::BestEffort,
        }
    }

    /// Whether failed blocks degrade instead of failing the run.
    pub fn is_best_effort(&self) -> bool {
        matches!(self.mode, FailureMode::BestEffort)
    }
}

/// One block's terminal failure: it exhausted its retry budget (or hit
/// a permanent error) and was dropped or failed the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockFailure {
    /// Index of the failed block within its block set.
    pub block_id: usize,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// The final attempt's error.
    pub error: String,
}

/// Runs one block's work under a retry policy, converting panics into
/// typed errors.
///
/// Transient errors ([`IslaError::Storage`] whose source
/// `is_transient()`) are retried up to `policy.max_attempts` with the
/// policy's backoff; permanent errors and panics fail immediately —
/// a panic is a bug and a permanent error reproduces on every retry,
/// so spending the budget on either only adds latency.
///
/// # Errors
///
/// `(attempts_made, final_error)` when the block is given up on.
pub fn run_block_recovering<T>(
    policy: &RetryPolicy,
    block_id: usize,
    mut attempt_fn: impl FnMut() -> Result<T, IslaError>,
) -> Result<T, (u32, IslaError)> {
    let max_attempts = policy.max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match catch_unwind(AssertUnwindSafe(&mut attempt_fn)) {
            Ok(Ok(value)) => return Ok(value),
            Ok(Err(e)) => {
                let transient = matches!(&e, IslaError::Storage(s) if s.is_transient());
                if transient && attempt < max_attempts {
                    let delay = policy.backoff.delay(attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    continue;
                }
                return Err((attempt, e));
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                return Err((
                    attempt,
                    IslaError::Internal(format!(
                        "worker panicked while executing block {block_id}: {msg}"
                    )),
                ));
            }
        }
    }
}

/// The honest accounting of a degraded (best-effort) answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// Terminal block failures, sorted by block id.
    pub failures: Vec<BlockFailure>,
    /// Rows the failed blocks held (coverage the answer is missing).
    pub lost_rows: u64,
    /// Surviving-row fraction `c = surviving / (surviving + lost)`.
    pub coverage: f64,
    /// The configured half-width `e` the full answer would have carried.
    pub base_half_width: f64,
    /// The half-width honest for the surviving coverage (see the
    /// CI-widening law in the module docs). Always ≥ `base_half_width`.
    pub widened_half_width: f64,
}

impl Degradation {
    /// Assesses the degradation of a run that dropped `failures` and
    /// finalized over `survivor_answers` (per-block `(answer, rows)`
    /// pairs). `precision`/`confidence` are the plan's `e` and `β`.
    ///
    /// A pure function of its arguments — bit-identical across
    /// schedulers and worker counts once `failures` is sorted.
    pub fn assess(
        mut failures: Vec<BlockFailure>,
        survivor_answers: &[(f64, u64)],
        lost_rows: u64,
        precision: f64,
        confidence: f64,
    ) -> Self {
        failures.sort_by_key(|f| f.block_id);
        let surviving_rows: u64 = survivor_answers.iter().map(|&(_, rows)| rows).sum();
        let total = surviving_rows + lost_rows;
        let coverage = if total == 0 {
            0.0
        } else {
            surviving_rows as f64 / total as f64
        };
        let phi = 1.0 - coverage;
        // Sampling term: the planned per-row rate over c of the rows.
        let sampling = if coverage > 0.0 {
            precision / coverage.sqrt()
        } else {
            f64::INFINITY
        };
        // Between-block term: how far the lost blocks' mean may sit
        // from the surviving mean, under block exchangeability.
        let b_surv = survivor_answers.len();
        let b_lost = failures.len();
        let between = if b_surv >= 2 && b_lost >= 1 && surviving_rows > 0 {
            let w_total = surviving_rows as f64;
            let mean = survivor_answers
                .iter()
                .map(|&(a, rows)| a * rows as f64)
                .sum::<f64>()
                / w_total;
            let var = survivor_answers
                .iter()
                .map(|&(a, rows)| rows as f64 * (a - mean) * (a - mean))
                .sum::<f64>()
                / w_total;
            let z = isla_stats::two_sided_z(confidence);
            z * phi * var.sqrt() * (1.0 / b_lost as f64 + 1.0 / b_surv as f64).sqrt()
        } else {
            0.0
        };
        let widened = (sampling * sampling + between * between).sqrt();
        Self {
            failures,
            lost_rows,
            coverage,
            base_half_width: precision,
            widened_half_width: widened.max(precision),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isla_storage::StorageError;

    #[test]
    fn backoff_is_a_pure_function_of_the_attempt() {
        assert_eq!(Backoff::None.delay(1), Duration::ZERO);
        assert_eq!(
            Backoff::Fixed(Duration::from_millis(5)).delay(3),
            Duration::from_millis(5)
        );
        let exp = Backoff::Exponential {
            base: Duration::from_millis(2),
            cap: Duration::from_millis(10),
        };
        assert_eq!(exp.delay(1), Duration::from_millis(2));
        assert_eq!(exp.delay(2), Duration::from_millis(4));
        assert_eq!(exp.delay(3), Duration::from_millis(8));
        assert_eq!(exp.delay(4), Duration::from_millis(10), "capped");
        assert_eq!(exp.delay(60), Duration::from_millis(10), "shift saturates");
    }

    #[test]
    fn default_policy_is_the_historical_contract() {
        let policy = RecoveryPolicy::default();
        assert_eq!(policy.retry.max_attempts, 1);
        assert_eq!(policy.retry.backoff, Backoff::None);
        assert!(!policy.is_best_effort());
        assert_eq!(policy, RecoveryPolicy::strict());
        assert!(RecoveryPolicy::best_effort(RetryPolicy::attempts(3)).is_best_effort());
    }

    #[test]
    fn transient_errors_retry_and_permanent_errors_do_not() {
        let mut calls = 0u32;
        let out: Result<u32, _> = run_block_recovering(&RetryPolicy::attempts(5), 0, || {
            calls += 1;
            if calls < 3 {
                Err(IslaError::Storage(StorageError::Unavailable {
                    attempt: calls,
                    detail: "flaky".into(),
                }))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out.unwrap(), 3, "recovered on the third attempt");

        let mut calls = 0u32;
        let out: Result<u32, _> = run_block_recovering(&RetryPolicy::attempts(5), 1, || {
            calls += 1;
            Err(IslaError::Storage(StorageError::BlockLost {
                detail: "gone".into(),
            }))
        });
        let (attempts, e) = out.unwrap_err();
        assert_eq!(attempts, 1, "permanent errors are not retried");
        assert_eq!(calls, 1);
        assert!(e.to_string().contains("permanently lost"));
    }

    #[test]
    fn retry_budget_exhaustion_reports_the_attempt_count() {
        let out: Result<u32, _> = run_block_recovering(&RetryPolicy::attempts(3), 2, || {
            Err(IslaError::Storage(StorageError::Unavailable {
                attempt: 0,
                detail: "still down".into(),
            }))
        });
        let (attempts, _) = out.unwrap_err();
        assert_eq!(attempts, 3);
    }

    #[test]
    fn panics_surface_as_typed_internal_errors_without_retry() {
        let mut calls = 0u32;
        let out: Result<u32, _> = run_block_recovering(&RetryPolicy::attempts(4), 7, || {
            calls += 1;
            panic!("poisoned worker");
        });
        let (attempts, e) = out.unwrap_err();
        assert_eq!(attempts, 1, "a panic is a bug, not a retry candidate");
        assert_eq!(calls, 1);
        assert!(matches!(e, IslaError::Internal(_)));
        assert!(e.to_string().contains("block 7"));
        assert!(e.to_string().contains("poisoned worker"));
    }

    fn failure(block_id: usize) -> BlockFailure {
        BlockFailure {
            block_id,
            attempts: 1,
            error: "lost".into(),
        }
    }

    #[test]
    fn degradation_widens_monotonically_with_loss() {
        let survivors = [(100.0, 1000u64), (101.0, 1000), (99.0, 1000)];
        let one = Degradation::assess(vec![failure(3)], &survivors, 1000, 0.5, 0.95);
        assert_eq!(one.failures.len(), 1);
        assert_eq!(one.lost_rows, 1000);
        assert!((one.coverage - 0.75).abs() < 1e-12);
        assert!(one.widened_half_width > one.base_half_width);

        let two = Degradation::assess(vec![failure(3), failure(4)], &survivors, 2000, 0.5, 0.95);
        assert!((two.coverage - 0.6).abs() < 1e-12);
        assert!(
            two.widened_half_width > one.widened_half_width,
            "more loss, wider interval"
        );
    }

    #[test]
    fn degradation_is_deterministic_and_sorts_failures() {
        let survivors = [(100.0, 500u64), (102.0, 700)];
        let a = Degradation::assess(vec![failure(5), failure(1)], &survivors, 800, 0.1, 0.95);
        let b = Degradation::assess(vec![failure(1), failure(5)], &survivors, 800, 0.1, 0.95);
        assert_eq!(a, b, "failure order does not change the assessment");
        assert_eq!(a.failures[0].block_id, 1);
        assert_eq!(a.failures[1].block_id, 5);
    }

    #[test]
    fn lone_survivor_still_widens_by_coverage() {
        let d = Degradation::assess(vec![failure(1)], &[(100.0, 500u64)], 500, 0.5, 0.95);
        assert!((d.coverage - 0.5).abs() < 1e-12);
        // One survivor: no between-block estimate, coverage scaling only.
        assert!((d.widened_half_width - 0.5 / 0.5f64.sqrt()).abs() < 1e-12);

        let none = Degradation::assess(vec![failure(0)], &[], 500, 0.5, 0.95);
        assert_eq!(none.coverage, 0.0);
        assert!(none.widened_half_width.is_infinite());
    }
}
