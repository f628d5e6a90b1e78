//! The end-to-end run: trials on fresh services, closed-loop clients,
//! every answer judged, metrics per trial. Tracing is off here; the
//! traced run ([`crate::trace`]) reuses [`run_trial`] with one client
//! and a timeline, and never feeds an end-to-end number.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use crate::gen::{mix, Sales};
use crate::stats;
use crate::sut::{Answer, Counters, Sut};
use crate::workload::{judge, Inputs, Phase, Workload, BLOCKS};

/// One timed operation, as a client recorded it.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Position in the trial's op list (ingest calls included).
    pub index: usize,
    /// Shape class; `None` for an ingest call.
    pub class: Option<usize>,
    pub fresh: bool,
    /// Offsets from the trial's start, in µs.
    pub start_us: f64,
    pub end_us: f64,
    pub failed: bool,
    pub samples_used: Option<u64>,
    pub err_ratios: Vec<f64>,
    /// Digest of the answer's bits.
    pub digest: u64,
}

impl OpRecord {
    pub fn latency_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Everything one trial produced.
pub struct Trial {
    pub setup_s: f64,
    /// How slow the machine ran during this trial.
    pub speed: Speed,
    pub wall_s: f64,
    pub records: Vec<OpRecord>,
    /// First few failing statements, for the report.
    pub failures: Vec<String>,
    /// The service of the trial, kept for the traced run.
    pub sut: Sut,
    /// Its pilot salt, and its counters when the timed ops began.
    pub pilot_seed: u64,
    pub counters_before: Counters,
}

impl Trial {
    pub fn queries(&self) -> impl Iterator<Item = &OpRecord> {
        self.records.iter().filter(|r| r.class.is_some())
    }

    pub fn ingests(&self) -> impl Iterator<Item = &OpRecord> {
        self.records.iter().filter(|r| r.class.is_none())
    }

    pub fn failed(&self) -> u64 {
        self.records.iter().filter(|r| r.failed).count() as u64
    }

    /// Order-independent digest of every answer of the trial.
    pub fn checksum(&self) -> u64 {
        self.records.iter().fold(0u64, |acc, r| {
            acc.wrapping_add(mix(r.digest, r.index as u64))
        })
    }

    /// Sum and count of `samples_used` over queries that report it.
    pub fn samples(&self) -> (u64, u64) {
        self.queries()
            .filter_map(|r| r.samples_used)
            .fold((0, 0), |(sum, n), s| (sum + s, n + 1))
    }

    /// Sorted `|error|/e` of every approximate AVG answer.
    pub fn err_ratios(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .queries()
            .flat_map(|r| r.err_ratios.iter().copied())
            .collect();
        stats::sort(&mut all);
        all
    }

    /// What must repeat exactly when the same ops run on the same seeds.
    fn deterministic_part(&self) -> (u64, u64, (u64, u64), Vec<u64>) {
        (
            self.checksum(),
            self.failed(),
            self.samples(),
            self.err_ratios().iter().map(|v| v.to_bits()).collect(),
        )
    }
}

fn answer_digest(answer: &Result<Answer, String>) -> u64 {
    match answer {
        Err(_) => u64::MAX,
        Ok(a) => {
            let mut d = mix(a.value.to_bits(), a.samples_used.unwrap_or(u64::MAX));
            for (key, value) in &a.groups {
                d = mix(d ^ key.to_bits(), value.to_bits());
            }
            d
        }
    }
}

/// A fresh service over the workload's base tables.
pub fn start_sut(workload: &Workload, inputs: &Inputs, pilot_seed: u64) -> Sut {
    Sut::start(
        &workload.sut,
        pilot_seed,
        &inputs.trips.columns(),
        &inputs.sales.columns(workload.scale.sales_rows),
        &Sales::CATEGORICAL,
        BLOCKS,
    )
}

/// Builds a fresh service and runs the warm-up statements: everything
/// `setup_s` covers.
fn set_up(workload: &Workload, inputs: &Inputs, run_seed: u64, pilot_seed: u64) -> Sut {
    let sut = start_sut(workload, inputs, pilot_seed);
    let client = sut.client("warm-up");
    for (i, sql) in workload.warm_up.iter().enumerate() {
        // Failures here resurface in the timed ops; nothing to judge.
        let _ = client.query(sql, mix(run_seed, 0x0A11_0000 + i as u64));
    }
    sut
}

/// The machine-speed reference: a fixed kernel of the benchmark's own —
/// random gathers over a 32 MB array feeding a floating-point and an
/// integer dependency chain, so it slows with memory contention and with
/// a contended core alike — run as 2 000 short bursts on every client
/// thread just before and just after a trial's ops.
///
/// On the shared 2-core reference box the whole machine drifts by tens
/// of percent over minutes (measured: the same binary and seed gave 69 k
/// and 97 k qps twenty minutes apart). Two statistics of the bursts
/// follow the two ways the program feels that:
///
/// * the bursts' **total** time moves with everything that takes cycles
///   away, including the host time-slicing the vCPUs — like throughput;
/// * the **median** burst (~13 µs, the size of a small query) ignores
///   time-slicing, which hits few bursts hard, and moves only when the
///   machine computes or loads more slowly — like a latency percentile.
///
/// Rates and durations are reported at `total / nominal` speed, latency
/// percentiles at `median burst / nominal` speed, and both factors are
/// printed. The kernel shares no code with the program, so nothing the
/// program does can move it.
pub struct Calibration {
    data: Vec<f64>,
}

/// The two machine-speed factors of one trial (1 = the reference box
/// undisturbed; above 1 = slower).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speed {
    /// For rates and durations.
    pub throughput: f64,
    /// For latency percentiles.
    pub latency: f64,
}

impl Calibration {
    const BURSTS: usize = 2_000;
    const STEPS_PER_BURST: usize = 1_000;
    /// One burst on the undisturbed reference box.
    pub const NOMINAL_BURST_S: f64 = 13e-6;

    pub fn new() -> Self {
        Self {
            data: (0..(1usize << 22)).map(|i| (i % 1_000) as f64).collect(),
        }
    }

    /// Runs the kernel once; returns the bursts' total and median time
    /// over their nominal values.
    pub fn run(&self, salt: u64) -> Speed {
        let mut x = salt | 1;
        let mut hash = salt;
        let mut sum = 0.0;
        let mut bursts = Vec::with_capacity(Self::BURSTS);
        for _ in 0..Self::BURSTS {
            let t = Instant::now();
            for _ in 0..Self::STEPS_PER_BURST {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                sum = sum * 0.999 + self.data[(x >> 42) as usize];
                hash = mix(hash ^ x, 1);
            }
            bursts.push(t.elapsed().as_secs_f64());
        }
        std::hint::black_box((sum, hash));
        Speed {
            throughput: bursts.iter().sum::<f64>() / (Self::NOMINAL_BURST_S * Self::BURSTS as f64),
            latency: stats::median(&bursts) / Self::NOMINAL_BURST_S,
        }
    }
}

/// The mean of speed factors measured around one trial.
fn mean_speed(samples: &[Speed]) -> Speed {
    let n = samples.len().max(1) as f64;
    Speed {
        throughput: samples.iter().map(|s| s.throughput).sum::<f64>() / n,
        latency: samples.iter().map(|s| s.latency).sum::<f64>() / n,
    }
}

/// What one client thread brings back from a trial.
struct ClientLog {
    records: Vec<OpRecord>,
    failures: Vec<String>,
    wall_s: f64,
    /// Calibration before and after the ops.
    speeds: [Speed; 2],
}

/// Runs one trial. Op `i` runs from a seed derived from
/// `(run_seed, seed_epoch, i)`, so two trials of one seed epoch must
/// agree bit for bit whatever the thread interleaving.
pub fn run_trial(
    workload: &Workload,
    inputs: &Inputs,
    calibration: &Calibration,
    run_seed: u64,
    seed_epoch: u64,
    clients: usize,
) -> Trial {
    // Pilot streams are salted per seed epoch: every trial with fresh
    // query seeds also draws fresh pre-estimates, so the quality metrics
    // pool independent pilots, not one pilot many times.
    let pilot_seed = mix(run_seed, 0x9110_7000 + seed_epoch);
    let set_up_start = Instant::now();
    let sut = set_up(workload, inputs, run_seed, pilot_seed);
    let setup_s = set_up_start.elapsed().as_secs_f64();
    let counters_before = sut.counters();

    let op_seed = mix(run_seed, 0x5EED_0000 + seed_epoch);
    let cursors: Vec<AtomicUsize> = workload
        .phases
        .iter()
        .map(|_| AtomicUsize::new(0))
        .collect();
    let mut offsets = Vec::with_capacity(workload.phases.len());
    let mut next = 0usize;
    for phase in &workload.phases {
        offsets.push(next);
        next += match phase {
            Phase::Ingest { .. } => 1,
            Phase::Queries { ops, .. } => ops.len(),
        };
    }
    let barrier = Barrier::new(clients);
    let epoch = Instant::now();
    let since = |t: Instant| t.duration_since(epoch).as_secs_f64() * 1e6;

    let per_client: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let client = sut.client(&format!("client-{id}"));
                let (sut, barrier, cursors, offsets) = (&sut, &barrier, &cursors, &offsets);
                scope.spawn(move || {
                    let mut records = Vec::new();
                    let mut failures = Vec::new();
                    barrier.wait();
                    let cal_before = calibration.run(id as u64);
                    barrier.wait();
                    let start = Instant::now();
                    for (p, phase) in workload.phases.iter().enumerate() {
                        match phase {
                            Phase::Ingest { batch } if id == 0 => {
                                let rows = &workload.batches[*batch];
                                let t0 = Instant::now();
                                let sealed = sut.ingest(rows);
                                let t1 = Instant::now();
                                // One batch is one block; anything else
                                // leaves rows the oracle counted unseen.
                                let failed = sealed != Ok(1);
                                if failed {
                                    failures.push(format!("ingest batch {batch}: {sealed:?}"));
                                }
                                records.push(OpRecord {
                                    index: offsets[p],
                                    class: None,
                                    fresh: false,
                                    start_us: since(t0),
                                    end_us: since(t1),
                                    failed,
                                    samples_used: None,
                                    err_ratios: Vec::new(),
                                    digest: rows.len() as u64,
                                });
                            }
                            Phase::Ingest { .. } => {}
                            Phase::Queries { ops, fresh } => loop {
                                let i = cursors[p].fetch_add(1, Ordering::Relaxed);
                                let Some(op) = ops.get(i) else { break };
                                let index = offsets[p] + i;
                                let t0 = Instant::now();
                                let answer = client.query(&op.sql, mix(op_seed, index as u64));
                                let t1 = Instant::now();
                                let verdict = judge(&op.expect, &answer);
                                if verdict.failed && failures.len() < 5 {
                                    failures.push(format!("{} -> {answer:?}", op.sql));
                                }
                                records.push(OpRecord {
                                    index,
                                    class: Some(op.class),
                                    fresh: *fresh,
                                    start_us: since(t0),
                                    end_us: since(t1),
                                    failed: verdict.failed,
                                    samples_used: answer.as_ref().ok().and_then(|a| a.samples_used),
                                    err_ratios: verdict.err_ratios,
                                    digest: answer_digest(&answer),
                                });
                            },
                        }
                        barrier.wait();
                    }
                    let wall = start.elapsed().as_secs_f64();
                    let cal_after = calibration.run(id as u64 + 77);
                    ClientLog {
                        records,
                        failures,
                        wall_s: wall,
                        speeds: [cal_before, cal_after],
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let wall_s = per_client.iter().map(|c| c.wall_s).fold(0.0, f64::max);
    let speed = mean_speed(&per_client.iter().flat_map(|c| c.speeds).collect::<Vec<_>>());
    let mut records = Vec::new();
    let mut failures = Vec::new();
    for client in per_client {
        records.extend(client.records);
        failures.extend(client.failures);
    }
    records.sort_by_key(|r| r.index);
    failures.truncate(5);
    Trial {
        setup_s,
        speed,
        wall_s,
        records,
        failures,
        sut,
        pilot_seed,
        counters_before,
    }
}

/// Per-trial values of the timing metrics.
#[derive(Debug, Clone)]
pub struct TrialTimings {
    /// The trial's machine-speed factors; every rate and duration below
    /// is already at `throughput` speed, every percentile at `latency`.
    pub speed: Speed,
    pub setup_s: f64,
    pub qps: f64,
    pub query_p50_ms: f64,
    pub query_p99_ms: f64,
    /// The highest percentile with ≥ 10 samples beyond it, and its value.
    pub top: Option<(f64, f64)>,
    pub ingest_rows_per_s: f64,
    pub ingest_p50_ms: f64,
    pub ingest_p99_ms: f64,
    pub fresh_query_p50_ms: f64,
}

pub fn timings(trial: &Trial) -> TrialTimings {
    let mut lat: Vec<f64> = trial.queries().map(OpRecord::latency_ms).collect();
    stats::sort(&mut lat);
    let mut fresh: Vec<f64> = trial
        .queries()
        .filter(|r| r.fresh)
        .map(OpRecord::latency_ms)
        .collect();
    stats::sort(&mut fresh);
    let mut ingest: Vec<f64> = trial.ingests().map(OpRecord::latency_ms).collect();
    stats::sort(&mut ingest);
    let ingest_rows: u64 = trial.ingests().map(|r| r.digest).sum();
    let ingest_s: f64 = ingest.iter().sum::<f64>() / 1e3;
    let Speed {
        throughput,
        latency,
    } = trial.speed;
    TrialTimings {
        speed: trial.speed,
        setup_s: trial.setup_s / throughput,
        qps: lat.len() as f64 / trial.wall_s * throughput,
        query_p50_ms: stats::quantile_sorted(&lat, 0.5) / latency,
        query_p99_ms: stats::quantile_sorted(&lat, 0.99) / latency,
        top: stats::top_supported_quantile(lat.len())
            .map(|q| (q, stats::quantile_sorted(&lat, q) / latency)),
        ingest_rows_per_s: if ingest_s > 0.0 {
            ingest_rows as f64 / ingest_s * throughput
        } else {
            0.0
        },
        ingest_p50_ms: stats::quantile_sorted(&ingest, 0.5) / latency,
        ingest_p99_ms: stats::quantile_sorted(&ingest, 0.99) / latency,
        fresh_query_p50_ms: stats::quantile_sorted(&fresh, 0.5) / latency,
    }
}

/// The result of one workload's end-to-end run.
pub struct RunResult {
    pub workload: &'static str,
    pub gen_s: f64,
    pub oracle_s: f64,
    pub queries_per_trial: usize,
    pub ingests_per_trial: usize,
    pub clients: usize,
    pub trials: Vec<TrialTimings>,
    /// Per-trial checksums (trial 1 replays trial 0's seeds).
    pub checksums: Vec<u64>,
    /// Pooled over the trials with distinct seeds.
    pub samples_per_query: f64,
    pub coverage: f64,
    pub err_ratio_p50: f64,
    pub err_ratio_max: f64,
    pub quality_answers: usize,
    /// Per shape class: statement, AVG answers, covered, worst `|err|/e`.
    pub class_quality: Vec<(String, usize, usize, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// `None` when fewer than two trials ran.
    pub deterministic: Option<bool>,
    pub peak_rss_mb: f64,
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` so each workload of a multi-workload process reports
/// its own peak. Best effort: without permission the peak is cumulative.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The seed epoch of trial `t`: trial 1 replays trial 0 (the
/// determinism check), every later trial draws fresh query seeds so the
/// quality metrics pool independent answers.
fn seed_epoch(trial: usize) -> u64 {
    trial.saturating_sub(1) as u64
}

/// Generates inputs, builds the workload and runs trials until
/// `seconds` of measured time have passed (at least `min_trials`).
pub fn run_workload(
    name: &'static str,
    seed: u64,
    seconds: f64,
    smoke: bool,
    min_trials: usize,
) -> RunResult {
    reset_peak_rss();
    let (inputs, workload, gen_s, oracle_s) =
        crate::workload::prepare(name, seed, smoke).expect("workload names are checked");

    let calibration = Calibration::new();
    let mut trials = Vec::new();
    let mut checksums = Vec::new();
    let mut measured = 0.0;
    let mut first: Option<Trial> = None;
    let mut deterministic = None;
    let (mut samples_sum, mut samples_n) = (0u64, 0u64);
    let mut ratios: Vec<f64> = Vec::new();
    let mut class_quality: Vec<(String, usize, usize, f64)> = workload
        .classes
        .iter()
        .map(|c| (c.sql(), 0, 0, 0.0))
        .collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures = Vec::new();
    while trials.len() < min_trials || measured < seconds {
        let index = trials.len();
        let trial = run_trial(
            &workload,
            &inputs,
            &calibration,
            seed,
            seed_epoch(index),
            workload.clients,
        );
        measured += trial.wall_s;
        trials.push(timings(&trial));
        checksums.push(trial.checksum());
        attempted += trial.records.len() as u64;
        failed += trial.failed();
        if failures.len() < 5 {
            failures.extend(trial.failures.iter().cloned());
        }
        if index == 1 {
            let reference = first.take().expect("trial 0 is kept for trial 1");
            deterministic = Some(reference.deterministic_part() == trial.deterministic_part());
        } else {
            let (sum, n) = trial.samples();
            samples_sum += sum;
            samples_n += n;
            ratios.extend(trial.err_ratios());
            for r in trial.queries() {
                let entry = &mut class_quality[r.class.expect("queries carry a class")];
                for &ratio in &r.err_ratios {
                    entry.1 += 1;
                    entry.2 += usize::from(ratio <= 1.0);
                    entry.3 = entry.3.max(ratio);
                }
            }
            if index == 0 {
                first = Some(trial);
            }
        }
    }
    stats::sort(&mut ratios);
    let covered = ratios.iter().filter(|&&r| r <= 1.0).count();
    RunResult {
        workload: workload.name,
        gen_s,
        oracle_s,
        queries_per_trial: workload.query_count(),
        ingests_per_trial: workload.ingest_count(),
        clients: workload.clients,
        trials,
        checksums,
        samples_per_query: samples_sum as f64 / samples_n.max(1) as f64,
        coverage: covered as f64 / ratios.len().max(1) as f64,
        err_ratio_p50: stats::quantile_sorted(&ratios, 0.5),
        err_ratio_max: ratios.last().copied().unwrap_or(0.0),
        quality_answers: ratios.len(),
        class_quality,
        attempted,
        failed,
        failures,
        deterministic,
        peak_rss_mb: peak_rss_mb(),
    }
}
