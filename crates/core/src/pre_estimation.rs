//! The Pre-estimation module (paper Section III): sampling rate and the
//! sketch estimator.
//!
//! Two pilot passes over the block set:
//!
//! 1. a fixed-size uniform pilot (proportional across blocks) estimates
//!    the standard deviation `σ`, from which the main sampling rate
//!    `r = z²σ²/(M·e²)` follows (Eq. 1). The paper notes σ "is subject to
//!    error … \[but\] hardly has any effect on the answers" since it only
//!    sizes the sample and the boundaries;
//! 2. a second pilot sized for the *relaxed* precision `tₑ·e` produces
//!    `sketch0` with the relaxed confidence interval
//!    `(sketch0 − tₑ·e, sketch0 + tₑ·e)` — the precision assurance that
//!    later bounds the modulation (Section VII-B).
//!
//! When [`IslaConfig::sketch_sigma`] is set and metadata already knows
//! the answer ([`sketched_mean`]: every block carries a width-1,
//! all-finite moment sketch whose zone verdict for the trivial filter is
//! decided, and `Σa` stays finite) — both pilots are skipped: the pre-estimate is *pinned* to the exact mean `Σa/n`
//! with σ = 0, a zero-width interval and zero pilot draws, so the
//! plan's degenerate short-circuit answers without executing a block.
//! Anything short of that (a sketch-less or non-finite block, an armed
//! fault) runs both pilots unchanged.

use rand::RngCore;

use isla_stats::{required_sample_size, sampling_rate, ConfidenceInterval, WelfordMoments};
use isla_storage::{
    sample_proportional, sample_proportional_surviving, BlockSet, DataBlock, RowFilter, ZoneMatch,
};

use crate::config::IslaConfig;
use crate::engine::recovery::RecoveryPolicy;
use crate::engine::seed::{seeded_rng, stream_seed};
use crate::error::IslaError;

/// Output of the Pre-estimation module.
#[derive(Debug, Clone, PartialEq)]
pub struct PreEstimate {
    /// Estimated (or configured) standard deviation `σ`; 0 when the
    /// answer is pinned — constant data, or an exact mean read from the
    /// block sketches — and no block needs to execute.
    pub sigma: f64,
    /// The sketch estimator's initial value `sketch0`.
    pub sketch0: f64,
    /// Main sampling rate `r = m/M`, clamped to `(0, 1]` (0 when pinned
    /// from metadata).
    pub rate: f64,
    /// Required total sample size `m = ⌈z²σ²/e²⌉`.
    pub required_samples: u64,
    /// Samples consumed by the σ pilot (0 when σ was known).
    pub sigma_pilot_used: u64,
    /// Samples consumed by the sketch pilot.
    pub sketch_pilot_used: u64,
    /// The relaxed confidence interval of `sketch0`
    /// (`± tₑ·e` at confidence `β`).
    pub sketch_interval: ConfidenceInterval,
}

/// Runs pre-estimation over a block set under `recovery`.
///
/// Strict mode ([`RecoveryPolicy::strict`]) fails the pilots on the
/// first block failure. Best-effort mode draws the pilots through
/// the surviving samplers
/// ([`isla_storage::sample_proportional_surviving`]): transient block
/// errors retry in place up to the policy's attempt budget, permanently
/// failed blocks contribute nothing, and non-finite (corrupt) draws are
/// filtered — so the pilot's σ̂ and `sketch0` describe the surviving
/// data the main phase will actually sample. Because fault decorators
/// fail before consuming RNG draws, a recovered pilot consumes the
/// identical stream an untroubled one would, keeping cached
/// pre-estimates deterministic under races.
///
/// Note the epoch-segmented fold ([`fold_pilot_segment`]) stays strict:
/// a partial fold is not resumable, so grown sets surface pilot-phase
/// block failures as errors in either mode.
///
/// # Errors
///
/// * [`IslaError::InsufficientData`] when the data cannot support the
///   pilots (empty data, or fewer than 2 σ-pilot samples) — and, in
///   best-effort mode, on total pilot loss;
/// * [`IslaError::Storage`] on block access failures in strict mode.
pub fn pre_estimate_with(
    data: &BlockSet,
    config: &IslaConfig,
    recovery: &RecoveryPolicy,
    rng: &mut dyn RngCore,
) -> Result<PreEstimate, IslaError> {
    let data_size = data.total_len();
    if data_size == 0 {
        return Err(IslaError::InsufficientData(
            "block set holds no rows".to_string(),
        ));
    }

    if let Some(pinned) = pinned_pre_estimate(data, config) {
        return Ok(pinned);
    }

    // Pilot 1: estimate σ, unless configured.
    let (sigma, sigma_pilot_used) = match config.known_sigma {
        Some(s) => (s, 0),
        None => {
            let pilot_size = config.sigma_pilot_size.min(data_size);
            if pilot_size < 2 {
                return Err(IslaError::InsufficientData(format!(
                    "σ pilot needs at least 2 samples, data has {data_size} rows"
                )));
            }
            let pilot = draw_pilot(data, pilot_size, recovery, rng)?;
            let moments: WelfordMoments = pilot.into_iter().collect();
            let sigma = moments.std_dev_sample().ok_or_else(|| {
                IslaError::InsufficientData("σ pilot produced fewer than 2 samples".to_string())
            })?;
            (sigma, pilot_size)
        }
    };

    // Degenerate data (σ = 0): one sample pins the answer exactly; the
    // caller is expected to shortcut on `sigma == 0`.
    if sigma == 0.0 {
        let value = *draw_pilot(data, 1, recovery, rng)?
            .first()
            .ok_or_else(|| IslaError::InsufficientData("pilot drew no samples".to_string()))?;
        return Ok(PreEstimate {
            sigma,
            sketch0: value,
            rate: 1.0 / data_size as f64,
            required_samples: 1,
            sigma_pilot_used,
            sketch_pilot_used: 1,
            sketch_interval: ConfidenceInterval {
                center: value,
                half_width: 0.0,
                confidence: config.confidence,
            },
        });
    }

    // Pilot 2: sketch0 at relaxed precision tₑ·e.
    let relaxed_e = config.relaxation * config.precision;
    let sketch_pilot = required_sample_size(sigma, relaxed_e, config.confidence).min(data_size);
    let samples = draw_pilot(data, sketch_pilot, recovery, rng)?;
    let moments: WelfordMoments = samples.into_iter().collect();
    let sketch0 = moments
        .mean()
        .ok_or_else(|| IslaError::InsufficientData("sketch pilot drew no samples".to_string()))?;

    let required_samples = required_sample_size(sigma, config.precision, config.confidence);
    let rate = sampling_rate(sigma, config.precision, config.confidence, data_size);

    Ok(PreEstimate {
        sigma,
        sketch0,
        rate,
        required_samples,
        sigma_pilot_used,
        sketch_pilot_used: sketch_pilot,
        sketch_interval: ConfidenceInterval {
            center: sketch0,
            half_width: relaxed_e,
            confidence: config.confidence,
        },
    })
}

/// One proportional pilot draw under the recovery policy: the exact
/// historical [`sample_proportional`] in strict mode, the surviving
/// sampler in best-effort mode.
fn draw_pilot(
    data: &BlockSet,
    n: u64,
    recovery: &RecoveryPolicy,
    rng: &mut dyn RngCore,
) -> Result<Vec<f64>, IslaError> {
    if recovery.is_best_effort() {
        Ok(sample_proportional_surviving(
            data,
            n,
            recovery.retry.max_attempts,
            rng,
        ))
    } else {
        Ok(sample_proportional(data, n, rng)?)
    }
}

/// Resumable state of the **epoch-segmented** scalar pilot fold.
///
/// An appendable [`BlockSet`] grows in sealed epochs; this fold runs
/// the σ and sketch pilots one epoch segment at a time and accumulates
/// their [`WelfordMoments`]. The segment streams are derived from the
/// cache key's lineage digest and a salt — never from a caller RNG — so
/// the draw sequence is a pure function of *(lineage, salt, segment
/// index, segment blocks)*. That gives the central delta-maintenance
/// property, pinned by tests: folding segments `0..=E` from an empty
/// state (a cold run) and resuming a cached state at segment `k+1` are
/// the **same** operation sequence, so the finished
/// [`PreEstimate`]s are bit-identical.
///
/// Sequential [`WelfordMoments::update`] folds are exactly resumable
/// (the state after n updates does not depend on where a snapshot was
/// taken), which is what makes the cached state sufficient.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PilotFold {
    sigma_pilot: WelfordMoments,
    sketch_pilot: WelfordMoments,
    sigma_pilot_used: u64,
    sketch_pilot_used: u64,
    segments: u64,
}

impl PilotFold {
    /// The empty fold — the cold-run starting state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of epoch segments folded so far.
    pub fn segments(&self) -> u64 {
        self.segments
    }
}

/// Folds one epoch segment — the blocks `blocks` of `data` — into the
/// pilot state. `lineage` is the cache key's epoch-independent digest
/// and `salt` the pilot-stream salt; together with the fold's segment
/// counter they derive this segment's private RNG stream.
///
/// An empty segment (all its blocks hold zero rows) advances the
/// segment counter and draws nothing.
///
/// # Errors
///
/// [`IslaError::Storage`] on block access failures; the fold's segment
/// counter is advanced, pilot state is partial — discard the fold.
pub fn fold_pilot_segment(
    fold: &mut PilotFold,
    data: &BlockSet,
    blocks: std::ops::Range<usize>,
    config: &IslaConfig,
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
    let mut rng = seeded_rng(stream_seed(stream_seed(lineage, salt), segment));
    // σ pilot share of the segment: the configured pilot size, capped
    // by the segment (draws are with replacement, so a short segment
    // just contributes fewer points to the accumulated moments).
    if config.known_sigma.is_none() {
        let n1 = config.sigma_pilot_size.min(seg_rows);
        let pilot = sample_proportional(&seg, n1, &mut rng)?;
        for v in pilot {
            fold.sigma_pilot.update(v);
        }
        fold.sigma_pilot_used += n1;
    }
    // Sketch pilot share, sized from the σ̂ accumulated *so far* (a
    // deterministic function of the fold state — both cold and delta
    // runs see the same σ̂ here). At least one draw per non-empty
    // segment keeps sketch0 defined even for degenerate σ.
    let sigma_now = config
        .known_sigma
        .unwrap_or_else(|| fold.sigma_pilot.std_dev_sample().unwrap_or(0.0));
    let relaxed_e = config.relaxation * config.precision;
    let n2 = required_sample_size(sigma_now, relaxed_e, config.confidence).clamp(1, seg_rows);
    let samples = sample_proportional(&seg, n2, &mut rng)?;
    for v in samples {
        fold.sketch_pilot.update(v);
    }
    fold.sketch_pilot_used += n2;
    Ok(())
}

/// Finishes the fold into a [`PreEstimate`] for the *whole* of `data`.
/// Pure function of the fold state, the set's current shape, and the
/// config: `rate` and `required_samples` are recomputed from the final
/// σ̂ and row count. A set whose answer metadata pins
/// ([`IslaConfig::sketch_sigma`]) is not folded at all: the epoch
/// lookup returns the pinned estimate instead of calling this.
///
/// # Errors
///
/// [`IslaError::InsufficientData`] when the accumulated pilots cannot
/// support an estimate (empty data, or fewer than 2 σ-pilot samples).
pub fn finish_pilot_fold(
    fold: &PilotFold,
    data: &BlockSet,
    config: &IslaConfig,
) -> Result<PreEstimate, IslaError> {
    let data_size = data.total_len();
    if data_size == 0 {
        return Err(IslaError::InsufficientData(
            "block set holds no rows".to_string(),
        ));
    }
    let sigma = match config.known_sigma {
        Some(s) => s,
        None => fold.sigma_pilot.std_dev_sample().ok_or_else(|| {
            IslaError::InsufficientData("σ pilot fold holds fewer than 2 samples".to_string())
        })?,
    };
    if sigma == 0.0 {
        // Degenerate data: any pilot sample pins the answer (every
        // non-empty segment drew at least one sketch-pilot sample).
        let value = fold
            .sketch_pilot
            .mean()
            .or_else(|| fold.sigma_pilot.mean())
            .ok_or_else(|| IslaError::InsufficientData("pilot fold drew no samples".to_string()))?;
        return Ok(PreEstimate {
            sigma,
            sketch0: value,
            rate: 1.0 / data_size as f64,
            required_samples: 1,
            sigma_pilot_used: fold.sigma_pilot_used,
            sketch_pilot_used: fold.sketch_pilot_used,
            sketch_interval: ConfidenceInterval {
                center: value,
                half_width: 0.0,
                confidence: config.confidence,
            },
        });
    }
    let relaxed_e = config.relaxation * config.precision;
    let sketch0 = fold.sketch_pilot.mean().ok_or_else(|| {
        IslaError::InsufficientData("sketch pilot fold drew no samples".to_string())
    })?;
    Ok(PreEstimate {
        sigma,
        sketch0,
        rate: sampling_rate(sigma, config.precision, config.confidence, data_size),
        required_samples: required_sample_size(sigma, config.precision, config.confidence),
        sigma_pilot_used: fold.sigma_pilot_used,
        sketch_pilot_used: fold.sketch_pilot_used,
        sketch_interval: ConfidenceInterval {
            center: sketch0,
            half_width: relaxed_e,
            confidence: config.confidence,
        },
    })
}

/// The pre-estimate block metadata pins, when
/// [`IslaConfig::sketch_sigma`] is set and [`sketched_mean`] knows the
/// mean: σ = 0, `sketch0` = that mean, a zero-width interval and no
/// pilot draws. `None` — run the pilots — otherwise.
pub fn pinned_pre_estimate(data: &BlockSet, config: &IslaConfig) -> Option<PreEstimate> {
    if !config.sketch_sigma {
        return None;
    }
    let value = sketched_mean(data)?;
    Some(PreEstimate {
        sigma: 0.0,
        sketch0: value,
        rate: 0.0,
        required_samples: 0,
        sigma_pilot_used: 0,
        sketch_pilot_used: 0,
        sketch_interval: ConfidenceInterval {
            center: value,
            half_width: 0.0,
            confidence: config.confidence,
        },
    })
}

/// The exact mean of a width-1 set read from block metadata alone, when
/// every block's hook sketch ([`DataBlock::sketch`]) is width-1 and
/// all-finite with a decided zone verdict for the trivial filter
/// ([`DataBlock::zone`], which an armed fault answers `Mixed`): `Σa/n`,
/// or the common value itself when `min == max`. `None` when a block
/// falls short of that, when the set holds no rows, or when `Σa`
/// overflows to a non-finite value.
///
/// Hooks are a pure function of the blocks, unlike the scan-backed
/// sketch cache, so every caller decides alike however warm that cache
/// is.
pub fn sketched_mean(data: &BlockSet) -> Option<f64> {
    let everything = RowFilter::all();
    let mut rows = 0u64;
    let mut sum = 0.0;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for block in data.iter() {
        if block.zone(&everything) == ZoneMatch::Mixed {
            return None;
        }
        let sketch = block.sketch()?;
        let m = sketch.column(0).filter(|_| sketch.width() == 1)?;
        if m.non_finite > 0 {
            return None;
        }
        rows += sketch.rows;
        sum += m.sum;
        min = min.min(m.min);
        max = max.max(m.max);
    }
    if rows == 0 || !sum.is_finite() {
        return None;
    }
    Some(if min == max { min } else { sum / rows as f64 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use isla_datagen::normal_values;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(e: f64) -> IslaConfig {
        IslaConfig::builder().precision(e).build().unwrap()
    }

    #[test]
    fn estimates_sigma_and_sketch_on_normal_data() {
        let data = BlockSet::from_values(normal_values(100.0, 20.0, 400_000, 1), 10);
        let mut rng = StdRng::seed_from_u64(2);
        let pre =
            pre_estimate_with(&data, &config(0.5), &RecoveryPolicy::strict(), &mut rng).unwrap();
        assert!((pre.sigma - 20.0).abs() < 2.0, "σ̂ = {}", pre.sigma);
        // sketch0 within the relaxed interval of the truth (w.h.p.).
        assert!(
            (pre.sketch0 - 100.0).abs() < 2.0 * 0.5 * 3.0,
            "sketch0 {}",
            pre.sketch0
        );
        assert_eq!(pre.sigma_pilot_used, 1000);
        // m = (1.96·σ̂/0.5)², r = m/M.
        let want_m = isla_stats::required_sample_size(pre.sigma, 0.5, 0.95);
        assert_eq!(pre.required_samples, want_m);
        assert!((pre.rate - want_m as f64 / 400_000.0).abs() < 1e-12);
        assert_eq!(pre.sketch_interval.half_width, 1.0); // tₑ·e = 2·0.5
        assert_eq!(pre.sketch_interval.center, pre.sketch0);
    }

    #[test]
    fn known_sigma_skips_first_pilot() {
        let data = BlockSet::from_values(normal_values(100.0, 20.0, 50_000, 3), 5);
        let cfg = IslaConfig::builder()
            .precision(0.5)
            .known_sigma(Some(20.0))
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let pre = pre_estimate_with(&data, &cfg, &RecoveryPolicy::strict(), &mut rng).unwrap();
        assert_eq!(pre.sigma, 20.0);
        assert_eq!(pre.sigma_pilot_used, 0);
    }

    #[test]
    fn sketch_sigma_skips_the_pilot_with_exact_moments() {
        let values = normal_values(100.0, 20.0, 40_000, 11);
        let data = BlockSet::from_values(values.clone(), 8);
        let cfg = IslaConfig::builder()
            .precision(0.5)
            .sketch_sigma(true)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let pre = pre_estimate_with(&data, &cfg, &RecoveryPolicy::strict(), &mut rng).unwrap();
        assert_eq!(
            (pre.sigma_pilot_used, pre.sketch_pilot_used),
            (0, 0),
            "the sketches replace both pilots"
        );
        assert_eq!(pre.sigma, 0.0, "σ = 0 pins the plan");
        assert_eq!(pre.required_samples, 0);
        let exact = values.iter().sum::<f64>() / values.len() as f64;
        assert!(
            (pre.sketch0 - exact).abs() <= 1e-12 * exact,
            "sketch0 {} vs exact mean {exact}",
            pre.sketch0
        );
        assert_eq!(pre.sketch_interval.center, pre.sketch0);
        assert_eq!(pre.sketch_interval.half_width, 0.0);
        // The pinned estimate does not touch the caller's stream.
        let mut fresh = StdRng::seed_from_u64(12);
        assert_eq!(rng.next_u64(), fresh.next_u64());
    }

    #[test]
    fn sketch_sigma_detects_constant_data_exactly() {
        let data = BlockSet::from_values(vec![7.5; 1000], 4);
        let cfg = IslaConfig::builder()
            .precision(0.1)
            .sketch_sigma(true)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let pre = pre_estimate_with(&data, &cfg, &RecoveryPolicy::strict(), &mut rng).unwrap();
        assert_eq!(pre.sigma, 0.0, "min == max proves σ = 0 from metadata");
        assert_eq!(pre.sigma_pilot_used + pre.sketch_pilot_used, 0);
        assert_eq!(pre.sketch0, 7.5, "the common value, not a rounded Σa/n");
        assert_eq!(pre.required_samples, 0);
    }

    #[test]
    fn sketch_sigma_runs_the_pilots_over_an_armed_fault_plan() {
        use isla_storage::FaultPlan;
        let cfg = IslaConfig::builder()
            .precision(0.5)
            .sketch_sigma(true)
            .build()
            .unwrap();
        let mut plain = cfg.clone();
        plain.sketch_sigma = false;
        let policy = RecoveryPolicy::best_effort(crate::engine::RetryPolicy::attempts(3));
        let pilots = |data: &BlockSet, cfg: &IslaConfig| {
            let mut rng = StdRng::seed_from_u64(16);
            pre_estimate_with(data, cfg, &policy, &mut rng).unwrap()
        };
        let clean = BlockSet::from_values(normal_values(100.0, 20.0, 40_000, 18), 8);
        assert_eq!(
            pilots(&clean, &cfg).sigma_pilot_used,
            0,
            "the clean set pins"
        );

        // An armed block answers `Mixed`: its reads may fail or differ
        // from what its forwarded sketch describes.
        let armed = FaultPlan::new(31).transient(0.6, 2).arm(&clean);
        assert!(pinned_pre_estimate(&armed, &cfg).is_none());
        let recovered = pilots(&armed, &cfg);
        assert_eq!(recovered, pilots(&armed, &plain));
        assert_eq!(recovered.sigma_pilot_used, 1000, "the pilots ran");
    }

    #[test]
    fn sketch_sigma_falls_back_to_the_pilot_without_sketches() {
        let data = isla_storage::scalar_fallback_set(&BlockSet::from_values(
            normal_values(100.0, 20.0, 40_000, 14),
            8,
        ));
        let cfg = IslaConfig::builder()
            .precision(0.5)
            .sketch_sigma(true)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(15);
        let pre = pre_estimate_with(&data, &cfg, &RecoveryPolicy::strict(), &mut rng).unwrap();
        assert_eq!(
            pre.sigma_pilot_used, 1000,
            "sketch-less blocks fall back to the sampling pilot"
        );
        assert!((pre.sigma - 20.0).abs() < 2.0, "σ̂ = {}", pre.sigma);
        let mut plain = cfg.clone();
        plain.sketch_sigma = false;
        let mut rng = StdRng::seed_from_u64(15);
        let want = pre_estimate_with(&data, &plain, &RecoveryPolicy::strict(), &mut rng).unwrap();
        assert_eq!(pre, want, "the fallback is today's pilot, bit for bit");
    }

    #[test]
    fn rate_saturates_on_tiny_data() {
        let data = BlockSet::from_values(normal_values(100.0, 20.0, 50, 2), 2);
        let mut rng = StdRng::seed_from_u64(5);
        let pre =
            pre_estimate_with(&data, &config(0.5), &RecoveryPolicy::strict(), &mut rng).unwrap();
        assert_eq!(pre.rate, 1.0, "required m exceeds M → full scan rate");
        assert_eq!(pre.sigma_pilot_used, 50);
    }

    #[test]
    fn degenerate_constant_data_short_circuits() {
        let data = BlockSet::from_values(vec![7.5; 1000], 4);
        let mut rng = StdRng::seed_from_u64(6);
        let pre =
            pre_estimate_with(&data, &config(0.1), &RecoveryPolicy::strict(), &mut rng).unwrap();
        assert_eq!(pre.sigma, 0.0);
        assert_eq!(pre.sketch0, 7.5);
        assert_eq!(pre.required_samples, 1);
        assert_eq!(pre.sketch_interval.half_width, 0.0);
    }

    #[test]
    fn empty_data_is_rejected() {
        let data = BlockSet::single(isla_storage::RowsBlock::new(vec![vec![]]));
        let mut rng = StdRng::seed_from_u64(7);
        assert!(matches!(
            pre_estimate_with(&data, &config(0.1), &RecoveryPolicy::strict(), &mut rng),
            Err(IslaError::InsufficientData(_))
        ));
    }

    #[test]
    fn single_row_cannot_estimate_sigma() {
        let data = BlockSet::from_values(vec![3.0], 1);
        let mut rng = StdRng::seed_from_u64(8);
        assert!(matches!(
            pre_estimate_with(&data, &config(0.1), &RecoveryPolicy::strict(), &mut rng),
            Err(IslaError::InsufficientData(_))
        ));
        // …unless σ is known.
        let cfg = IslaConfig::builder()
            .precision(0.1)
            .known_sigma(Some(1.0))
            .build()
            .unwrap();
        let pre = pre_estimate_with(&data, &cfg, &RecoveryPolicy::strict(), &mut rng).unwrap();
        assert_eq!(pre.rate, 1.0);
    }

    #[test]
    fn best_effort_pilots_recover_transients_bit_for_bit() {
        use isla_storage::FaultPlan;
        let data = BlockSet::from_values(normal_values(100.0, 20.0, 80_000, 17), 8);
        let faulty = FaultPlan::new(31).transient(0.6, 2).arm(&data);
        let policy = RecoveryPolicy::best_effort(crate::engine::RetryPolicy::attempts(3));
        let mut rng = StdRng::seed_from_u64(18);
        let clean =
            pre_estimate_with(&data, &config(0.5), &RecoveryPolicy::strict(), &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(18);
        let recovered = pre_estimate_with(&faulty, &config(0.5), &policy, &mut rng).unwrap();
        assert_eq!(clean, recovered, "in-place retries are stream-neutral");
    }

    #[test]
    fn best_effort_pilots_survive_lost_blocks_where_strict_fails() {
        use isla_storage::{BlockFault, FaultPlan};
        let data = BlockSet::from_values(normal_values(100.0, 20.0, 80_000, 19), 8);
        // Pick the first seed whose plan loses some but not all blocks.
        let plan = (0..64)
            .map(|s| FaultPlan::new(s).lose(0.4))
            .find(|p| {
                let lost = (0..8)
                    .filter(|&i| p.fault_for(i) == BlockFault::Lost)
                    .count();
                (1..=6).contains(&lost)
            })
            .expect("some seed under 64 must lose 1..=6 of 8 blocks");
        let faulty = plan.arm(&data);
        let mut rng = StdRng::seed_from_u64(20);
        assert!(
            matches!(
                pre_estimate_with(&faulty, &config(0.5), &RecoveryPolicy::strict(), &mut rng),
                Err(IslaError::Storage(_))
            ),
            "strict pilots propagate the block loss"
        );
        let policy = RecoveryPolicy::best_effort(crate::engine::RetryPolicy::attempts(2));
        let mut rng = StdRng::seed_from_u64(20);
        let pre = pre_estimate_with(&faulty, &config(0.5), &policy, &mut rng).unwrap();
        assert!(
            (pre.sigma - 20.0).abs() < 3.0,
            "σ̂ from survivors: {}",
            pre.sigma
        );
        assert!((pre.sketch0 - 100.0).abs() < 3.0, "sketch0 {}", pre.sketch0);
    }

    #[test]
    fn tighter_precision_needs_more_samples() {
        let data = BlockSet::from_values(normal_values(100.0, 20.0, 200_000, 9), 10);
        let mut rng = StdRng::seed_from_u64(10);
        let loose =
            pre_estimate_with(&data, &config(0.5), &RecoveryPolicy::strict(), &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let tight =
            pre_estimate_with(&data, &config(0.1), &RecoveryPolicy::strict(), &mut rng).unwrap();
        assert!(tight.required_samples > loose.required_samples * 20);
        assert!(tight.sketch_pilot_used > loose.sketch_pilot_used);
    }
}
