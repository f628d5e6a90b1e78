//! The traced run: where a workload's time goes, layer by layer.
//!
//! (a) *Op spans*: the op list on one client, one span per op, with the
//! program's counters read before and after. (b) *Layer replay*: each
//! shape class walked step by step through the public pipeline
//! ([`crate::sut::replay`]) with nested spans; self time = span −
//! children; per-layer figures are weighted by how often the workload
//! runs each class. End-to-end numbers are never taken from here.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::gen::mix;
use crate::run::{run_trial, start_sut, Calibration, OpRecord, Trial};
use crate::span::{self_time_by_name, SpanLog};
use crate::stats;
use crate::sut::json::Json;
use crate::sut::replay::{self, BlockSplit, ReplayCache, Replayed};
use crate::sut::Sut;
use crate::workload::{self, Op, Phase, Workload};

pub struct Traced {
    pub workload: &'static str,
    pub op_spans: usize,
    pub replay_spans: usize,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Everything of the trace file but the spans, and the spans.
    pub trace_header: Json,
    pub spans: Vec<Json>,
}

/// The time buckets a query's latency is split into (µs per query).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Buckets {
    pub parse: f64,
    pub admission: f64,
    pub cache_lookup: f64,
    pub pre_estimation: f64,
    pub plan: f64,
    pub block_setup: f64,
    pub kernel: f64,
    pub fold: f64,
    pub modulation: f64,
    pub merge: f64,
    pub other: f64,
}

impl Buckets {
    fn named(&self) -> [(&'static str, f64); 11] {
        [
            ("share.parse", self.parse),
            ("share.admission", self.admission),
            ("share.cache_lookup", self.cache_lookup),
            ("share.pre_estimation", self.pre_estimation),
            ("share.plan", self.plan),
            ("share.block_setup", self.block_setup),
            ("share.kernel", self.kernel),
            ("share.fold", self.fold),
            ("share.modulation", self.modulation),
            ("share.merge", self.merge),
            ("share.other", self.other),
        ]
    }

    pub fn total(&self) -> f64 {
        self.named().iter().map(|(_, v)| v).sum()
    }

    fn add_scaled(&mut self, other: &Buckets, weight: f64) {
        self.parse += other.parse * weight;
        self.admission += other.admission * weight;
        self.cache_lookup += other.cache_lookup * weight;
        self.pre_estimation += other.pre_estimation * weight;
        self.plan += other.plan * weight;
        self.block_setup += other.block_setup * weight;
        self.kernel += other.kernel * weight;
        self.fold += other.fold * weight;
        self.modulation += other.modulation * weight;
        self.merge += other.merge * weight;
        self.other += other.other * weight;
    }

    /// Sampling work: what scales with the sample count.
    pub fn sampling(&self) -> f64 {
        self.kernel + self.fold
    }

    /// The per-query fixed path: everything that does not scale with the
    /// sample count and is not a pilot.
    pub fn fixed_path(&self) -> f64 {
        self.total() - self.sampling() - self.pre_estimation
    }
}

/// Splits one class's mean per-query self times into buckets.
/// `by_name` holds µs per query by span name; the block spans' total is
/// split by the out-of-line measurements in `split`.
pub fn bucketize(by_name: &BTreeMap<&'static str, f64>, split: &BlockSplit) -> Buckets {
    let get = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    let block_total = get("block_exec");
    // The parts cannot exceed the whole they were measured beside.
    let setup = split.setup_us.min(block_total);
    let kernel = split.kernel_us.min(block_total - setup);
    let modulation = split.modulation_us.min(block_total - setup - kernel);
    Buckets {
        parse: get("parser.parse"),
        admission: get("service.admission") + get("service.snapshot"),
        cache_lookup: get("cache.lookup"),
        pre_estimation: get("pre_estimation.scalar") + get("pre_estimation.rows"),
        plan: get("plan.build"),
        block_setup: setup,
        kernel: kernel
            + get("kernel.sample")
            + get("kernel.sample_rows")
            + get("kernel.scan")
            + get("kernel.scan_rows"),
        fold: block_total - setup - kernel - modulation,
        modulation,
        merge: get("partial.merge"),
        other: get("query")
            + get("executor.resolve")
            + get("selection.lookup")
            + get("extremes.aggregate"),
    }
}

/// What replaying one statement measured.
struct Replay {
    reps: usize,
    /// Mean µs per replayed query, by span name (self time).
    by_name: BTreeMap<&'static str, f64>,
    split: BlockSplit,
    replayed: Replayed,
    /// Median replayed root duration, µs.
    replay_us: f64,
    /// Pilot cost of one cold pre-estimate (the priming query): time
    /// and samples.
    pre_estimation_ms: f64,
    pilot_samples: u64,
}

/// One shape class: its place in the workload and its replay.
struct ClassProfile {
    sql: String,
    /// Ops of this class in the workload's op list.
    weight: f64,
    /// Median latency of the class in the op pass, µs.
    service_us: f64,
    buckets: Buckets,
    replay: Replay,
}

impl std::ops::Deref for ClassProfile {
    type Target = Replay;
    fn deref(&self) -> &Replay {
        &self.replay
    }
}

const MAX_REPS: usize = 40;

fn profile_class(
    sut: &Sut,
    pilot_seed: u64,
    sql: &str,
    cold: bool,
    budget_s: f64,
    seed: u64,
    log: &mut SpanLog,
) -> Result<Replay, String> {
    // The priming query is the cold one: it fills the cache the warm
    // repetitions hit, and gives the pilot's cost on every workload.
    let mut cache = ReplayCache::default();
    let first_span = log.len();
    let prime_start = Instant::now();
    let pilot_samples = replay::query(sut, pilot_seed, &cache, sql, seed, log, None)?.pilot_samples;
    let prime_s = prime_start.elapsed().as_secs_f64();
    let pre_estimation_ms = log.spans()[first_span..]
        .iter()
        .filter(|s| s.name.starts_with("pre_estimation."))
        .map(|s| s.duration_us())
        .sum::<f64>()
        / 1e3;
    let reps = ((budget_s / prime_s.max(1e-6)) as usize).clamp(3, MAX_REPS);
    let from = log.len();
    let mut replayed = Replayed::default();
    for rep in 0..reps {
        if cold {
            cache = ReplayCache::default();
        }
        replayed = replay::query(
            sut,
            pilot_seed,
            &cache,
            sql,
            mix(seed, rep as u64 + 1),
            log,
            None,
        )?;
    }
    let until = log.len();
    // One more pass also measures, out of line, what a block span's self
    // time is made of; its own spans are not part of the profile.
    if cold {
        cache = ReplayCache::default();
    }
    let mut split = BlockSplit::default();
    replay::query(
        sut,
        pilot_seed,
        &cache,
        sql,
        mix(seed, 0),
        log,
        Some(&mut split),
    )?;
    let spans = spans_rebased(&log.spans()[from..until]);
    let by_name: BTreeMap<&'static str, f64> = self_time_by_name(&spans, |_| true)
        .into_iter()
        .map(|(name, (total, _))| (name, total / reps as f64))
        .collect();
    let roots: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "query")
        .map(|s| s.duration_us())
        .collect();
    let replay_us = stats::median(&roots);
    Ok(Replay {
        reps,
        by_name,
        split,
        replayed,
        replay_us,
        pre_estimation_ms,
        pilot_samples,
    })
}

/// Spans of a log suffix with ids and parents rebased to the suffix, so
/// the self-time arithmetic can index them.
fn spans_rebased(spans: &[crate::span::Span]) -> Vec<crate::span::Span> {
    let base = spans.first().map_or(0, |s| s.id);
    spans
        .iter()
        .map(|s| crate::span::Span {
            id: s.id - base,
            parent: s.parent.and_then(|p| p.checked_sub(base)),
            ..s.clone()
        })
        .collect()
}

fn flat_ops(workload: &Workload) -> Vec<Option<&Op>> {
    let mut flat = Vec::new();
    for phase in &workload.phases {
        match phase {
            Phase::Ingest { .. } => flat.push(None),
            Phase::Queries { ops, .. } => flat.extend(ops.iter().map(Some)),
        }
    }
    flat
}

fn weighted_mean(values: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (sum, weight) = values.fold((0.0, 0.0), |(s, w), (v, wt)| (s + v * wt, w + wt));
    if weight > 0.0 {
        sum / weight
    } else {
        0.0
    }
}

pub fn run(name: &'static str, seed: u64, seconds: f64, smoke: bool) -> Traced {
    let (inputs, workload, _, _) =
        workload::prepare(name, seed, smoke).expect("workload names are checked");
    let scale = workload.scale;
    let mut notes = Vec::new();
    let mut failures = Vec::new();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // (a) Op spans on one client. The spans are the per-op timestamps the
    // end-to-end run keeps anyway, so tracing adds nothing to a query;
    // two identical passes give the figure and its noise floor.
    let calibration = Calibration::new();
    let plain = run_trial(&workload, &inputs, &calibration, seed, 0, 1);
    let traced: Trial = run_trial(&workload, &inputs, &calibration, seed, 0, 1);
    let qps = |t: &Trial| t.queries().count() as f64 / t.wall_s;
    m.insert("trace.overhead_frac", 1.0 - qps(&traced) / qps(&plain));
    let mut log = SpanLog::new();
    for r in &traced.records {
        let name = if r.class.is_some() {
            "op.query"
        } else {
            "op.ingest"
        };
        log.record(r.index as u32, name, r.start_us, r.end_us);
    }
    let op_spans = log.len();
    failures.extend(traced.failures.iter().cloned());
    let mut failed = traced.failed();
    let mut attempted = traced.records.len() as u64;

    let counters = traced.sut.counters().since(&traced.counters_before);
    let lookups = (counters.pre_hits + counters.pre_misses).max(1);
    for (name, value) in [
        ("service.admitted", counters.admitted),
        ("service.rejected", counters.rejected),
        ("service.failed", counters.failed),
        ("service.degraded", counters.degraded),
        ("cache.pre_hits", counters.pre_hits),
        ("cache.pre_misses", counters.pre_misses),
        ("selection.hits", counters.selection_hits),
        ("selection.builds", counters.selection_builds),
        ("sketch.hits", counters.sketch_hits),
        ("sketch.inserted", counters.sketch_inserted),
        ("ingest.sealed_blocks", counters.sealed_blocks),
        ("cache.epoch_exact_hits", counters.epoch_exact_hits),
        ("cache.epoch_delta_folds", counters.epoch_delta_folds),
        ("cache.epoch_cold_folds", counters.epoch_cold_folds),
    ] {
        m.insert(name, value as f64);
    }
    m.insert(
        "cache.pre_hit_rate",
        counters.pre_hits as f64 / lookups as f64,
    );
    let timings = crate::run::timings(&traced);
    m.insert("ingest.rows_per_s", timings.ingest_rows_per_s);
    m.insert("ingest.call_p50_ms", timings.ingest_p50_ms);
    m.insert("ingest.call_p99_ms", timings.ingest_p99_ms);
    m.insert("ingest.fresh_query_p50_ms", timings.fresh_query_p50_ms);
    let (samples, _) = traced.samples();
    m.insert("block_exec.samples", samples as f64);

    // (b) Layer replay, class by class, on the traced service.
    let ops = flat_ops(&workload);
    let pilot_seed = traced.pilot_seed;
    let cold = workload.warm_up.is_empty();
    let budget_s = seconds * 0.4 / workload.classes.len() as f64;
    let mut profiles: Vec<ClassProfile> = Vec::new();
    for (class, shape) in workload.classes.iter().enumerate() {
        let sql = shape.sql();
        let records: Vec<&OpRecord> = traced
            .queries()
            .filter(|r| r.class == Some(class))
            .collect();
        if records.is_empty() {
            continue;
        }
        let steady: Vec<&OpRecord> = records.iter().copied().filter(|r| !r.fresh).collect();
        let service_us = 1e3
            * stats::median(
                &(if steady.is_empty() { &records } else { &steady })
                    .iter()
                    .map(|r| r.latency_ms())
                    .collect::<Vec<_>>(),
            );
        attempted += 1;
        match profile_class(
            &traced.sut,
            pilot_seed,
            &sql,
            cold,
            budget_s,
            mix(seed, 0x7E71A7 + class as u64),
            &mut log,
        ) {
            Ok(measured) => {
                let replayed = measured.replayed;
                // Same statement, same cache state ⇒ the replay must plan
                // exactly the samples the service reported.
                let reference = records
                    .iter()
                    .rev()
                    .find(|r| !r.fresh && ops[r.index].is_some_and(|op| op.sql == sql));
                if let (true, Some(r)) = (replayed.scalar_isla || replayed.row_isla, reference) {
                    if r.samples_used != replayed.samples {
                        failed += 1;
                        failures.push(format!(
                            "replay of `{sql}` planned {:?} samples, the service used {:?}",
                            replayed.samples, r.samples_used
                        ));
                    }
                }
                profiles.push(ClassProfile {
                    sql,
                    weight: records.len() as f64,
                    service_us,
                    buckets: bucketize(&measured.by_name, &measured.split),
                    replay: measured,
                });
            }
            Err(e) => {
                failed += 1;
                failures.push(format!("replay of `{sql}`: {e}"));
            }
        }
    }
    let replay_spans = log.len() - op_spans;

    let span_mean = |name: &'static str| {
        weighted_mean(
            profiles
                .iter()
                .filter(|p| p.by_name.contains_key(name))
                .map(|p| (p.by_name[name], p.weight)),
        )
    };
    m.insert("parser.parse_us", span_mean("parser.parse"));
    m.insert("service.snapshot_us", span_mean("service.snapshot"));
    m.insert("cache.lookup_hit_us", span_mean("cache.lookup"));
    m.insert("plan.build_us", span_mean("plan.build"));
    m.insert("partial.merge_us", span_mean("partial.merge"));
    let isla = |p: &&ClassProfile| p.replayed.blocks > 0;
    let per_block = |f: fn(&ClassProfile) -> f64| {
        weighted_mean(
            profiles
                .iter()
                .filter(isla)
                .map(|p| (f(p) / p.replayed.blocks as f64, p.weight)),
        )
    };
    m.insert(
        "block_exec.us_per_block",
        per_block(|p| p.by_name.get("block_exec").copied().unwrap_or(0.0)),
    );
    m.insert(
        "modulation.iterate_us",
        per_block(|p| p.split.modulation_us),
    );
    m.insert(
        "modulation.iterations_per_block",
        per_block(|p| p.replayed.iterations as f64),
    );
    m.insert(
        "block_exec.fallback_blocks",
        profiles
            .iter()
            .map(|p| p.replayed.fallback_blocks as f64 * p.weight)
            .sum(),
    );
    m.insert(
        "block_exec.blocks",
        profiles
            .iter()
            .map(|p| p.replayed.blocks as f64 * p.weight)
            .sum(),
    );
    let ns_per_sample = |pick: fn(&Replayed) -> bool| {
        let (us, samples) = profiles
            .iter()
            .filter(|p| pick(&p.replayed) && p.replayed.calc_samples > 0)
            .fold((0.0, 0.0), |(us, n), p| {
                (
                    us + p.by_name.get("block_exec").copied().unwrap_or(0.0) * p.weight,
                    n + p.replayed.calc_samples as f64 * p.weight,
                )
            });
        if samples > 0.0 {
            us * 1e3 / samples
        } else {
            0.0
        }
    };
    m.insert(
        "block_exec.scalar_ns_per_sample",
        ns_per_sample(|r| r.scalar_isla),
    );
    m.insert(
        "block_exec.rows_ns_per_sample",
        ns_per_sample(|r| r.row_isla),
    );
    let pilots = |pick: fn(&Replayed) -> bool| {
        weighted_mean(
            profiles
                .iter()
                .filter(|p| pick(&p.replayed))
                .map(|p| (p.pre_estimation_ms, p.weight)),
        )
    };
    m.insert("pre_estimation.scalar_ms", pilots(|r| r.scalar_isla));
    m.insert("pre_estimation.rows_ms", pilots(|r| r.row_isla));
    m.insert(
        "executor.self_us",
        weighted_mean(
            profiles
                .iter()
                .map(|p| ((p.service_us - p.replay_us).max(0.0), p.weight)),
        ),
    );
    let mut mix_buckets = Buckets::default();
    for p in &profiles {
        mix_buckets.add_scaled(&p.buckets, p.weight);
    }
    let total = mix_buckets.total().max(f64::MIN_POSITIVE);
    for (name, value) in mix_buckets.named() {
        m.insert(name, value / total);
    }
    m.insert("share.fixed_path", mix_buckets.fixed_path() / total);
    m.insert("share.sampling", mix_buckets.sampling() / total);

    // (c) Layers the query path only reaches sideways: storage kernels,
    // the scheduler pair, the gate, and the cold/append paths.
    let pilot_samples = weighted_mean(
        profiles
            .iter()
            .filter(isla)
            .map(|p| (p.pilot_samples as f64, p.weight)),
    );
    let draws_per_block = weighted_mean(profiles.iter().filter(isla).map(|p| {
        (
            p.replayed.calc_samples as f64 / p.replayed.blocks as f64,
            p.weight,
        )
    }));
    let mut side = || -> Result<(), String> {
        m.insert("pre_estimation.pilot_samples", pilot_samples);
        let k = replay::kernels(
            &traced.sut,
            draws_per_block.max(64.0) as u64,
            25.0,
            mix(seed, 0xCE11),
        )?;
        m.insert("kernel.sample_ns_per_draw", k.sample_ns_per_draw);
        m.insert("kernel.sample_rows_ns_per_draw", k.sample_rows_ns_per_draw);
        m.insert("kernel.filtered_ns_per_draw", k.filtered_ns_per_draw);
        m.insert("kernel.scan_ns_per_row", k.scan_ns_per_row);
        m.insert("kernel.scan_rows_ns_per_row", k.scan_rows_ns_per_row);
        m.insert("kernel.fold_ns_per_sample", k.fold_ns_per_sample);
        let heaviest = profiles
            .iter()
            .filter(|p| p.replayed.scalar_isla)
            .max_by_key(|p| p.replayed.calc_samples)
            .map_or("SELECT AVG(distance) FROM trips WITH PRECISION 0.5", |p| {
                p.sql.as_str()
            });
        let (sequential_ms, pooled_ms, spawn_us) =
            replay::scheduler(&traced.sut, pilot_seed, heaviest, 7)?;
        m.insert("scheduler.sequential_ms", sequential_ms);
        m.insert("scheduler.pooled_ms", pooled_ms);
        m.insert(
            "scheduler.pool_speedup",
            sequential_ms / pooled_ms.max(f64::MIN_POSITIVE),
        );
        m.insert("scheduler.spawn_us", spawn_us);
        let (admission_us, handoff_us, overhead_us) = replay::service(&traced.sut, 2_000)?;
        m.insert("service.admission_us", admission_us);
        m.insert("service.handoff_us", handoff_us);
        m.insert("service.overhead_us", overhead_us);
        let scratch = start_sut(&workload, &inputs, pilot_seed);
        let own_batches: Vec<Vec<Vec<f64>>>;
        let batches = if workload.batches.is_empty() {
            own_batches = (0..3)
                .map(|_| inputs.sales.rows(0..scale.batch_rows))
                .collect();
            &own_batches[..]
        } else {
            &workload.batches[..workload.batches.len().min(5)]
        };
        let row_sql = profiles.iter().find(|p| p.replayed.row_isla).map_or(
            "SELECT AVG(amount) FROM sales WHERE margin > 25 WITH PRECISION 0.4",
            |p| p.sql.as_str(),
        );
        let c = replay::cold_and_append(
            &scratch,
            pilot_seed,
            25.0,
            (scale.sales_rows / 2) as f64,
            batches,
            row_sql,
        )?;
        m.insert("selection.build_ms", c.selection_build_ms);
        m.insert("selection.pruned_blocks", c.selection_pruned_blocks);
        m.insert("sketch.scan_ms", c.sketch_scan_ms);
        m.insert("ingest.push_ns_per_row", c.push_ns_per_row);
        m.insert("ingest.seal_ms", c.seal_ms);
        m.insert("ingest.append_us", c.append_us);
        m.insert("pre_estimation.delta_resume_ms", c.delta_resume_ms);
        Ok(())
    };
    attempted += 1;
    if let Err(e) = side() {
        failed += 1;
        failures.push(format!("layer probes: {e}"));
    }

    // How much of the service's latency the replay accounts for. The
    // replay runs blocks in order; where the service gives a query
    // several workers, its latency is set against the pooled speed-up.
    let per_query_workers = workload.sut.workers / workload.sut.max_concurrent;
    let speedup = if per_query_workers > 1 {
        m.get("scheduler.pool_speedup")
            .copied()
            .unwrap_or(1.0)
            .max(1.0)
    } else {
        1.0
    };
    let replayed_total: f64 = profiles.iter().map(|p| p.replay_us * p.weight).sum();
    let service_total: f64 = profiles.iter().map(|p| p.service_us * p.weight).sum();
    let cover = if service_total > 0.0 {
        replayed_total / (service_total * speedup)
    } else {
        0.0
    };
    m.insert("trace.replay_cover_frac", cover);
    if !(0.7..=1.1).contains(&cover) {
        notes.push(format!(
            "the replay covers {cover:.2} of the service's latency: outside 0.7–1.1 it no longer represents the path"
        ));
    }

    for p in &profiles {
        let b = &p.buckets;
        notes.push(format!(
            "class x{:<5} service {:>9.1} us, replay {:>9.1} us = fixed {:>7.1} + sampling {:>9.1} + pilots {:>8.1} (other {:.1}): {}",
            p.weight,
            p.service_us,
            p.replay_us,
            b.fixed_path(),
            b.sampling(),
            b.pre_estimation,
            b.other,
            p.sql
        ));
    }
    let class_docs = profiles
        .iter()
        .map(|p| {
            let mut pairs = vec![
                ("sql", Json::str(p.sql.as_str())),
                ("ops_in_workload", Json::num(p.weight)),
                ("replays", Json::num(p.reps as f64)),
                ("service_latency_us", Json::num(p.service_us)),
                ("replay_latency_us", Json::num(p.replay_us)),
            ];
            for (name, value) in p.buckets.named() {
                pairs.push((name, Json::num(value)));
            }
            Json::obj(pairs)
        })
        .collect();
    let spans = log
        .spans()
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("id", Json::num(f64::from(s.id))),
                (
                    "parent",
                    s.parent
                        .map_or(Json::num(-1.0), |p| Json::num(f64::from(p))),
                ),
                ("query", Json::num(f64::from(s.query))),
                ("name", Json::str(s.name)),
                ("start_us", Json::num(s.start_us)),
                ("end_us", Json::num(s.end_us)),
            ])
        })
        .collect();
    let trace_header = Json::obj(vec![
        ("workload", Json::str(name)),
        ("seed", Json::num(seed as f64)),
        ("op_spans", Json::num(op_spans as f64)),
        ("classes", Json::Arr(class_docs)),
    ]);
    Traced {
        workload: name,
        op_spans,
        replay_spans,
        metrics: m,
        notes,
        failures,
        attempted,
        failed,
        trace_header,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_time_splits_into_setup_kernel_fold_and_modulation() {
        let by_name: BTreeMap<&'static str, f64> = [
            ("query", 3.0),
            ("parser.parse", 5.0),
            ("service.admission", 1.0),
            ("service.snapshot", 2.0),
            ("cache.lookup", 4.0),
            ("plan.build", 6.0),
            ("block_exec", 100.0),
            ("partial.merge", 7.0),
        ]
        .into_iter()
        .collect();
        let split = BlockSplit {
            setup_us: 10.0,
            kernel_us: 50.0,
            modulation_us: 15.0,
        };
        let b = bucketize(&by_name, &split);
        assert_eq!(
            (b.block_setup, b.kernel, b.modulation, b.fold),
            (10.0, 50.0, 15.0, 25.0)
        );
        assert_eq!(b.admission, 3.0);
        assert_eq!(b.total(), 128.0);
        assert_eq!(b.sampling(), 75.0);
        assert_eq!(b.fixed_path(), 53.0);
        // Out-of-line parts measured larger than the whole are capped.
        let b = bucketize(
            &by_name,
            &BlockSplit {
                setup_us: 80.0,
                kernel_us: 90.0,
                modulation_us: 9.0,
            },
        );
        assert_eq!(
            (b.block_setup, b.kernel, b.modulation, b.fold),
            (80.0, 20.0, 0.0, 0.0)
        );
    }

    #[test]
    fn shares_are_weighted_by_the_shape_mix() {
        let light = Buckets {
            parse: 10.0,
            kernel: 10.0,
            ..Buckets::default()
        };
        let heavy = Buckets {
            parse: 10.0,
            kernel: 990.0,
            ..Buckets::default()
        };
        let mut mix = Buckets::default();
        mix.add_scaled(&light, 99.0);
        mix.add_scaled(&heavy, 1.0);
        assert_eq!(mix.parse, 1_000.0);
        assert_eq!(mix.kernel, 1_980.0);
        assert!((mix.sampling() / mix.total() - 1_980.0 / 2_980.0).abs() < 1e-12);
        assert_eq!(weighted_mean([(1.0, 1.0), (3.0, 3.0)].into_iter()), 2.5);
        assert_eq!(weighted_mean(std::iter::empty()), 0.0);
    }
}
