//! SLEV: classical algorithmic leveraging (Ma, Mahoney & Yu), the
//! full-data leverage-sampling technique ISLA's related-work section
//! contrasts against.
//!
//! SLEV computes the exact leverage score of *every* row —
//! `hᵢ = aᵢ²/Σa²` over the full dataset — blends it with the uniform
//! probability, `πᵢ = λ·hᵢ·(n/Σh)/n + (1−λ)/n` (here simply
//! `πᵢ = λ·hᵢ + (1−λ)/n` since `Σh = 1`), draws biased samples, and
//! corrects with inverse-probability (Horvitz–Thompson) weights:
//! `(1/m)·Σ aᵢ/(n·πᵢ)` — an unbiased estimator of the mean.
//!
//! Classically that needs **two full scans** of the data (one for
//! `Σa²`, one to draw from the biased distribution) — exactly the
//! "requires recording all the data" drawback that motivates ISLA, and
//! what [`Slev::estimate_dense`] still does for the efficiency bench.
//!
//! The default path instead prices rows from per-block **moment
//! sketches** ([`isla_storage::BlockSketch`]): `Σa²` is the sum of the
//! cached per-block `sum_sq` entries, and the biased distribution
//! factorizes exactly as a two-level mixture that never materializes
//! the data —
//!
//! * with probability `λ`, draw the **leverage** component: pick a
//!   block proportionally to its `Σa²`, then draw a row with
//!   probability ∝ `v²` *within* the block by rejection against the
//!   block's `max(min², max²)` envelope (uniform proposals through the
//!   batch sampling kernel, accepted iff `u·maxsq ≤ v²`);
//! * otherwise draw the **uniform** component: pick a block
//!   proportionally to its row count and a uniform row inside it.
//!
//! Marginally every row keeps the exact `πᵢ = λ·vᵢ²/Σa² + (1−λ)/n`, so
//! the Horvitz–Thompson correction is unchanged and the estimator stays
//! unbiased — but the cost is metadata plus O(samples), not O(rows).
//! A heavy-tailed block whose envelope keeps rejecting (acceptance
//! `E[v²]/maxsq` near zero) deterministically escalates to its exact
//! within-block distribution — one scan of that block only.

use std::sync::Arc;

use rand::Rng;
use rand::RngCore;

use isla_core::engine::{scan_blocks, BlockScheduler};
use isla_core::IslaError;
use isla_storage::{
    sample_from_block, with_row_sample_buf, BlockReads, BlockSet, BlockSketch, StorageError,
    SAMPLE_BATCH_ROWS,
};

use crate::traits::{check_inputs, Estimator};

/// Full-data algorithmic leveraging with blend factor `λ ∈ (0, 1]`.
#[derive(Debug, Clone, Copy)]
pub struct Slev {
    /// Leverage/uniform blend: 1.0 is pure leverage sampling (LEV),
    /// 0.9 is the SLEV setting recommended by Ma et al.
    pub lambda: f64,
}

impl Default for Slev {
    fn default() -> Self {
        Self { lambda: 0.9 }
    }
}

/// Wasted proposals tolerated per accepted leverage draw before a
/// block's rejection sampler escalates to the exact within-block
/// distribution (plus a flat grace so tiny requests never escalate).
const REJECTION_ESCALATION_FACTOR: u64 = 64;
const REJECTION_ESCALATION_GRACE: u64 = 1_024;

impl Slev {
    /// Creates a SLEV estimator with the given blend factor.
    ///
    /// # Panics
    ///
    /// Panics unless `λ ∈ (0, 1]`.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda > 0.0 && lambda <= 1.0,
            "SLEV blend must be in (0,1], got {lambda}"
        );
        Self { lambda }
    }

    /// The blended sampling probability of value `v`.
    #[inline]
    fn pi(&self, v: f64, sum_sq: f64, nf: f64) -> f64 {
        self.lambda * (v * v / sum_sq) + (1.0 - self.lambda) / nf
    }

    /// The Horvitz–Thompson contribution of one drawn value.
    #[inline]
    fn ht_term(&self, v: f64, sum_sq: f64, nf: f64) -> f64 {
        v / (nf * self.pi(v, sum_sq, nf))
    }

    /// The pre-sketch SLEV: materialize every value, fold `Σa²`, build
    /// the full cumulative biased distribution, then draw from it —
    /// two passes over the data, O(rows) time and memory.
    ///
    /// Kept callable so the efficiency bench can measure exactly what
    /// the sketched path saves; it is also the semantics of record the
    /// sketched estimator is validated against (both are unbiased
    /// samplers of the same `πᵢ`).
    ///
    /// # Errors
    ///
    /// Storage scan failures, or [`StorageError::Empty`] for a rowless
    /// dataset.
    pub fn estimate_dense(
        &self,
        data: &BlockSet,
        sample_budget: u64,
        scheduler: &dyn BlockScheduler,
        rng: &mut dyn RngCore,
    ) -> Result<f64, IslaError> {
        check_inputs(data, sample_budget)?;
        // Scan 1: materialize values and Σa² (the storage cost ISLA
        // avoids), one scan per block through the scheduler — merged in
        // block order, so the value layout matches a single global scan.
        let scans = scan_blocks(scheduler.parallelism(), data, |_, block| {
            // Cap the up-front reservation: `len()` is a *claimed* size,
            // and unscannable virtual blocks claim trillions of rows —
            // the scan must get the chance to refuse before we allocate.
            let mut values = Vec::with_capacity(block.len().min(1 << 20) as usize);
            let mut sum_sq = 0.0f64;
            // Chunked scan kernel: whole slices append and fold, same
            // value order as the scalar scan.
            block
                .scan_chunks(&mut |chunk| {
                    values.extend_from_slice(chunk);
                    for &v in chunk {
                        sum_sq += v * v;
                    }
                })
                .map_err(IslaError::from)?;
            Ok((values, sum_sq))
        })?;
        let mut values = Vec::new();
        let mut sum_sq = 0.0f64;
        for (block_values, block_sum_sq) in scans {
            values.extend(block_values);
            sum_sq += block_sum_sq;
        }
        let n = values.len();
        if n == 0 {
            return Err(IslaError::Storage(StorageError::Empty));
        }
        if sum_sq == 0.0 {
            // All-zero data: the mean is exactly zero.
            return Ok(0.0);
        }

        // Build the cumulative biased distribution πᵢ = λhᵢ + (1−λ)/n.
        let nf = n as f64;
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for &v in &values {
            acc += self.pi(v, sum_sq, nf);
            cumulative.push(acc);
        }
        let total = acc; // ≈ 1, up to rounding

        // Scan 2 (sampling): m biased draws with HT correction.
        let mut estimate = isla_stats::NeumaierSum::new();
        for _ in 0..sample_budget {
            let u: f64 = rng.random_range(0.0..total);
            let idx = match cumulative.binary_search_by(|c| c.total_cmp(&u)) {
                Ok(i) => (i + 1).min(n - 1),
                Err(i) => i.min(n - 1),
            };
            estimate.add(self.ht_term(values[idx], sum_sq, nf));
        }
        Ok(estimate.value() / sample_budget as f64)
    }
}

impl Estimator for Slev {
    fn name(&self) -> &'static str {
        "SLEV"
    }

    fn estimate_scheduled(
        &self,
        data: &BlockSet,
        sample_budget: u64,
        scheduler: &dyn BlockScheduler,
        rng: &mut dyn RngCore,
    ) -> Result<f64, IslaError> {
        check_inputs(data, sample_budget)?;

        // Metadata pass: per-block moments from the sketch layer (O(1)
        // Arc clones for hooked blocks, one cached scan otherwise).
        let sketches = data.sketches().map_err(IslaError::from)?;
        let mut per_block: Vec<Arc<BlockSketch>> = Vec::with_capacity(data.block_count());
        for (idx, block) in data.iter().enumerate() {
            match sketches.block(idx) {
                Some(s) => per_block.push(Arc::clone(s)),
                None => {
                    // No sketch means the block cannot scan at all, so
                    // SLEV cannot price its rows: surface the block's
                    // own refusal (the same error the dense path hits).
                    block.scan_chunks(&mut |_| {}).map_err(IslaError::from)?;
                    return Err(IslaError::Storage(StorageError::ScanUnsupported {
                        len: block.len(),
                        detail: "block yields no moment sketch".into(),
                    }));
                }
            }
        }
        // Sketch min/max bound finite values only: a non-finite value
        // would invalidate the rejection envelope, so such (third-party)
        // blocks take the dense path, which prices them exactly as it
        // always did.
        if per_block
            .iter()
            .any(|s| s.column(0).is_some_and(|m| m.non_finite > 0))
        {
            return self.estimate_dense(data, sample_budget, scheduler, rng);
        }

        // Per-block stats in block order. SLEV is a scalar estimator:
        // like the dense scan, it reads column 0 of wider blocks.
        let b_count = per_block.len();
        let mut cum_rows = Vec::with_capacity(b_count);
        let mut cum_lev = Vec::with_capacity(b_count);
        let mut sumsq_b = Vec::with_capacity(b_count);
        let mut maxsq_b = Vec::with_capacity(b_count);
        let mut n_total = 0u64;
        let mut s_total = 0.0f64;
        for s in &per_block {
            let m = s.column(0).copied().unwrap_or_default();
            n_total += s.rows;
            cum_rows.push(n_total);
            s_total += m.sum_sq;
            cum_lev.push(s_total);
            sumsq_b.push(m.sum_sq);
            maxsq_b.push(if s.rows == 0 {
                0.0
            } else {
                (m.min * m.min).max(m.max * m.max)
            });
        }
        if n_total == 0 {
            return Err(IslaError::Storage(StorageError::Empty));
        }
        if s_total == 0.0 {
            // All-zero data: the mean is exactly zero.
            return Ok(0.0);
        }
        let nf = n_total as f64;

        // Mixture pass: assign every draw to (component, block). One
        // uniform per draw picks the component (u < λ: leverage) AND,
        // rescaled, the block — ∝ Σa² for leverage, ∝ rows for uniform.
        let mut lev_count = vec![0u64; b_count];
        let mut uni_count = vec![0u64; b_count];
        for _ in 0..sample_budget {
            let u: f64 = rng.random_range(0.0..1.0);
            if u < self.lambda {
                let target = (u / self.lambda) * s_total;
                let mut b = cum_lev.partition_point(|&c| c <= target);
                if b == b_count {
                    // fp edge: u/λ rounded up to 1.0 — fall back to the
                    // last block carrying leverage mass.
                    b -= 1;
                    while b > 0 && sumsq_b[b] == 0.0 {
                        b -= 1;
                    }
                }
                lev_count[b] += 1;
            } else {
                let row = ((u - self.lambda) / (1.0 - self.lambda) * nf) as u64;
                let b = cum_rows
                    .partition_point(|&c| c <= row.min(n_total - 1))
                    .min(b_count - 1);
                uni_count[b] += 1;
            }
        }

        // Sampling pass, block by block (deterministic order, so the
        // answer is reproducible for a given rng stream).
        let mut estimate = isla_stats::NeumaierSum::new();
        for (b, block) in data.iter().enumerate() {
            // Leverage draws: uniform proposals through the batch
            // kernel, accepted against the block's squared envelope.
            let need = lev_count[b];
            let mut accepted = 0u64;
            let mut proposed = 0u64;
            let msq = maxsq_b[b];
            while accepted < need {
                if proposed > accepted * REJECTION_ESCALATION_FACTOR + REJECTION_ESCALATION_GRACE {
                    break;
                }
                let chunk = (need - accepted)
                    .saturating_mul(3)
                    .clamp(64, SAMPLE_BATCH_ROWS);
                with_row_sample_buf(|buf| -> Result<(), IslaError> {
                    buf.project(Some(&[0]));
                    block
                        .sample_rows_batch(chunk, rng, buf)
                        .map_err(IslaError::from)?;
                    for &v in buf.rows() {
                        if accepted == need {
                            break;
                        }
                        let accept_u: f64 = rng.random_range(0.0..1.0);
                        if accept_u * msq < v * v {
                            estimate.add(self.ht_term(v, s_total, nf));
                            accepted += 1;
                        }
                    }
                    Ok(())
                })?;
                proposed += chunk;
            }
            if accepted < need {
                // Escalation: the envelope keeps rejecting (a heavy
                // tail dwarfing the bulk), so materialize this block's
                // exact v² distribution once and draw the remainder
                // directly — one scan of one block, still far from the
                // dense path's full-data scans.
                self.draw_exact_leverage(
                    block.as_ref(),
                    need - accepted,
                    s_total,
                    nf,
                    rng,
                    &mut estimate,
                )?;
            }

            // Uniform draws: plain batched uniforms, always accepted.
            sample_from_block(block.as_ref(), uni_count[b], rng, &mut |v| {
                estimate.add(self.ht_term(v, s_total, nf));
            })?;
        }
        Ok(estimate.value() / sample_budget as f64)
    }
}

impl Slev {
    /// Draws `need` leverage samples from `block`'s exact within-block
    /// v² distribution (the rejection sampler's escalation path).
    fn draw_exact_leverage(
        &self,
        block: &dyn isla_storage::DataBlock,
        need: u64,
        s_total: f64,
        nf: f64,
        rng: &mut dyn RngCore,
        estimate: &mut isla_stats::NeumaierSum,
    ) -> Result<(), IslaError> {
        let mut values = Vec::with_capacity(block.len().min(1 << 20) as usize);
        block
            .scan_chunks(&mut |chunk| values.extend_from_slice(chunk))
            .map_err(IslaError::from)?;
        let mut cumulative = Vec::with_capacity(values.len());
        let mut acc = 0.0f64;
        for &v in &values {
            acc += v * v;
            cumulative.push(acc);
        }
        if acc == 0.0 {
            // A zero-mass block can only receive leverage draws through
            // the fp block-pick edge; those draws contribute nothing.
            return Ok(());
        }
        let n = values.len();
        for _ in 0..need {
            let u: f64 = rng.random_range(0.0..acc);
            let idx = match cumulative.binary_search_by(|c| c.total_cmp(&u)) {
                Ok(i) => (i + 1).min(n - 1),
                Err(i) => i.min(n - 1),
            };
            estimate.add(self.ht_term(values[idx], s_total, nf));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isla_datagen::normal_dataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unbiased_on_normal_data() {
        let ds = normal_dataset(100.0, 20.0, 50_000, 5, 30);
        let mut total = 0.0;
        let runs = 10;
        for seed in 0..runs {
            let mut rng = StdRng::seed_from_u64(seed);
            total += Slev::default()
                .estimate(&ds.blocks, 20_000, &mut rng)
                .unwrap();
        }
        let mean = total / runs as f64;
        assert!(
            (mean - ds.true_mean).abs() < 0.3,
            "mean of SLEV estimates {mean} vs truth {}",
            ds.true_mean
        );
        assert_eq!(Slev::default().name(), "SLEV");
    }

    #[test]
    fn dense_path_is_also_unbiased() {
        use isla_core::engine::SequentialScheduler;
        let ds = normal_dataset(100.0, 20.0, 50_000, 5, 30);
        let mut total = 0.0;
        let runs = 10;
        for seed in 0..runs {
            let mut rng = StdRng::seed_from_u64(seed);
            total += Slev::default()
                .estimate_dense(&ds.blocks, 20_000, &SequentialScheduler, &mut rng)
                .unwrap();
        }
        let mean = total / runs as f64;
        assert!(
            (mean - ds.true_mean).abs() < 0.3,
            "mean of dense SLEV estimates {mean} vs truth {}",
            ds.true_mean
        );
    }

    #[test]
    fn pure_leverage_sampling_also_works() {
        // λ = 1 (LEV): heavier variance on near-zero values but still
        // unbiased; all values here are far from zero.
        let ds = normal_dataset(100.0, 20.0, 20_000, 4, 31);
        let mut rng = StdRng::seed_from_u64(32);
        let est = Slev::new(1.0)
            .estimate(&ds.blocks, 20_000, &mut rng)
            .unwrap();
        assert!((est - ds.true_mean).abs() < 1.0, "estimate {est}");
    }

    #[test]
    fn heavy_tailed_blocks_escalate_to_the_exact_distribution() {
        // One huge outlier in a sea of near-zeros: the squared envelope
        // accepts ~1/n of proposals, so the rejection sampler must
        // escalate instead of spinning — and the estimate must stay
        // unbiased (the outlier dominates Σa², so leverage draws almost
        // always return it).
        let n = 10_000usize;
        let mut values = vec![0.001; n];
        values[n - 1] = 1_000.0;
        let true_mean = values.iter().sum::<f64>() / n as f64;
        let data = BlockSet::from_values(values, 4);
        let mut total = 0.0;
        let runs = 20;
        for seed in 0..runs {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            total += Slev::default().estimate(&data, 2_000, &mut rng).unwrap();
        }
        let mean = total / runs as f64;
        assert!(
            (mean - true_mean).abs() < 0.05 * true_mean.abs().max(1.0),
            "mean of estimates {mean} vs truth {true_mean}"
        );
    }

    #[test]
    fn all_zero_data_short_circuits() {
        let data = BlockSet::from_values(vec![0.0; 500], 2);
        let mut rng = StdRng::seed_from_u64(33);
        assert_eq!(Slev::default().estimate(&data, 100, &mut rng).unwrap(), 0.0);
    }

    #[test]
    #[should_panic(expected = "SLEV blend must be in (0,1]")]
    fn rejects_zero_lambda() {
        let _ = Slev::new(0.0);
    }

    #[test]
    fn refuses_unscannable_virtual_data() {
        use isla_stats::distributions::Normal;
        use isla_storage::GeneratorBlock;
        use std::sync::Arc;
        // SLEV needs moments of the full data; a trillion-row virtual
        // block has none and must error, not silently mis-estimate.
        let block = GeneratorBlock::new(Arc::new(Normal::new(100.0, 20.0)), 1_000_000_000_000, 1);
        let data = BlockSet::single(block);
        let mut rng = StdRng::seed_from_u64(34);
        assert!(matches!(
            Slev::default().estimate(&data, 100, &mut rng),
            Err(IslaError::Storage(StorageError::ScanUnsupported { .. }))
        ));
    }
}
