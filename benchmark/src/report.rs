//! Printing: one line per metric, then the one-line JSON result; and the
//! full result document `--out` writes for `compare`.

use crate::run::{RunResult, TrialTimings};
use crate::spec::{self, Spec, END_TO_END, PER_LAYER};
use crate::stats;
use crate::sut::json::{self, Json};
use crate::trace::Traced;

fn hex(v: u64) -> Json {
    Json::str(format!("{v:016x}"))
}

/// A metric with its per-trial values (one value for pooled metrics).
fn metric_entry(unit: &str, value: f64, trials: &[f64]) -> Json {
    Json::obj(vec![
        ("value", Json::num(value)),
        ("unit", Json::str(unit)),
        (
            "trials",
            Json::Arr(trials.iter().map(|v| Json::num(*v)).collect()),
        ),
    ])
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    spec::compact(&Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", spec::metrics_object(metrics)),
    ]))
}

fn print_metric(workload: &str, name: &str, unit: &str, value: f64, trials: &[f64]) {
    if trials.len() > 1 {
        let s = stats::summarize(trials);
        println!(
            "{workload:<15} {name:<34} {value:>14.4} {unit:<6} [min {:.4} .. max {:.4}, {} trials]",
            s.min,
            s.max,
            trials.len()
        );
    } else {
        println!("{workload:<15} {name:<34} {value:>14.4} {unit}");
    }
}

/// Prints an end-to-end result; returns whether it is correct and its
/// document.
pub fn end_to_end(r: &RunResult) -> (bool, Json) {
    let w = r.workload;
    let column = |f: fn(&TrialTimings) -> f64| -> Vec<f64> { r.trials.iter().map(f).collect() };
    let per_trial: [(&str, Vec<f64>); 4] = [
        ("setup_s", column(|t| t.setup_s)),
        ("qps", column(|t| t.qps)),
        ("query_p50_ms", column(|t| t.query_p50_ms)),
        ("query_p99_ms", column(|t| t.query_p99_ms)),
    ];
    let pooled: [(&str, f64); 4] = [
        ("samples_per_query", r.samples_per_query),
        ("coverage", r.coverage),
        ("err_ratio_p50", r.err_ratio_p50),
        ("peak_rss_mb", r.peak_rss_mb),
    ];
    let rows: Vec<(&str, &str, f64, Vec<f64>)> = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            if let Some((_, trials)) = per_trial.iter().find(|(n, _)| *n == name) {
                (name, unit, stats::median(trials), trials.clone())
            } else {
                let value = pooled
                    .iter()
                    .find(|(n, _)| *n == name)
                    .expect("every end-to-end metric is per-trial or pooled")
                    .1;
                (name, unit, value, vec![value])
            }
        })
        .collect();

    println!(
        "{w}: {} queries + {} ingest calls per trial, {} clients, {} trials; generated in {:.3} s, oracle {:.3} s",
        r.queries_per_trial,
        r.ingests_per_trial,
        r.clients,
        r.trials.len(),
        r.gen_s,
        r.oracle_s
    );
    for (name, unit, value, trials) in &rows {
        print_metric(w, name, unit, *value, trials);
    }
    // Ungated context the same run measured anyway.
    if let Some((q, _)) = r.trials.first().and_then(|t| t.top) {
        let values: Vec<f64> = r
            .trials
            .iter()
            .filter_map(|t| t.top.map(|(_, v)| v))
            .collect();
        print_metric(
            w,
            &format!("query_p{}_ms (ungated)", q * 100.0),
            "ms",
            stats::median(&values),
            &values,
        );
    }
    // Timings above are at reference-machine speed; these are the
    // factors they were divided by (1 = the reference box undisturbed).
    let speed = column(|t| t.speed.throughput);
    let pace = column(|t| t.speed.latency);
    print_metric(
        w,
        "speed_factor.throughput (ungated)",
        "ratio",
        stats::median(&speed),
        &speed,
    );
    print_metric(
        w,
        "speed_factor.latency (ungated)",
        "ratio",
        stats::median(&pace),
        &pace,
    );
    println!(
        "{w:<15} quality over {} AVG answers: worst error {:.3} e; failed {} of {} ops",
        r.quality_answers, r.err_ratio_max, r.failed, r.attempted
    );
    for (sql, n, covered, worst) in r.class_quality.iter().filter(|c| c.1 > 0) {
        println!(
            "{w:<15}   coverage {:.3} worst {worst:.2} e over {n:>6} answers: {sql}",
            *covered as f64 / *n as f64
        );
    }
    if r.ingests_per_trial > 0 {
        for (name, unit, f) in [
            (
                "ingest_rows_per_s (ungated)",
                "1/s",
                (|t| t.ingest_rows_per_s) as fn(&TrialTimings) -> f64,
            ),
            ("ingest_p50_ms (ungated)", "ms", |t| t.ingest_p50_ms),
            ("ingest_p99_ms (ungated)", "ms", |t| t.ingest_p99_ms),
            ("fresh_query_p50_ms (ungated)", "ms", |t| {
                t.fresh_query_p50_ms
            }),
        ] {
            let values = column(f);
            print_metric(w, name, unit, stats::median(&values), &values);
        }
    }
    for failure in &r.failures {
        println!("{w:<15} FAILED {failure}");
    }
    match r.deterministic {
        Some(true) => println!("{w:<15} determinism: trial 1 repeated trial 0 bit for bit"),
        Some(false) => {
            println!("{w:<15} DETERMINISM VIOLATED: trial 1 differs from trial 0 on the same seeds")
        }
        None => {}
    }
    let correct = r.failed == 0 && r.deterministic != Some(false);
    let flat: Vec<(&str, &str, f64)> = rows.iter().map(|(n, u, v, _)| (*n, *u, *v)).collect();
    println!("{}", result_line(correct, r.attempted, r.failed, &flat));

    let document = Json::obj(vec![
        ("workload", Json::str(w)),
        ("mode", Json::str("end_to_end")),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(r.attempted as f64)),
        ("failed", Json::num(r.failed as f64)),
        (
            "metrics",
            Json::Obj(
                rows.iter()
                    .map(|(name, unit, value, trials)| {
                        (name.to_string(), metric_entry(unit, *value, trials))
                    })
                    .collect(),
            ),
        ),
        (
            "info",
            Json::obj(vec![
                ("trials", Json::num(r.trials.len() as f64)),
                ("queries_per_trial", Json::num(r.queries_per_trial as f64)),
                ("ingests_per_trial", Json::num(r.ingests_per_trial as f64)),
                ("clients", Json::num(r.clients as f64)),
                ("quality_answers", Json::num(r.quality_answers as f64)),
                ("err_ratio_max", Json::num(r.err_ratio_max)),
                ("gen_s", Json::num(r.gen_s)),
                ("oracle_s", Json::num(r.oracle_s)),
                (
                    "checksums",
                    Json::Arr(r.checksums.iter().map(|c| hex(*c)).collect()),
                ),
                (
                    "speed_throughput",
                    Json::Arr(speed.iter().map(|v| Json::num(*v)).collect()),
                ),
                (
                    "speed_latency",
                    Json::Arr(pace.iter().map(|v| Json::num(*v)).collect()),
                ),
            ]),
        ),
    ]);
    (correct, document)
}

/// Prints a traced result and writes its spans; returns whether it is
/// correct and its document.
pub fn traced(t: &Traced, trace_path: &str) -> (bool, Json) {
    let w = t.workload;
    println!(
        "{w}: traced run, {} op spans + {} replay spans; tracing is on, so no end-to-end number is taken from it",
        t.op_spans, t.replay_spans
    );
    let rows: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, t.metrics.get(name).copied().unwrap_or(0.0)))
        .collect();
    for (name, unit, value) in &rows {
        print_metric(w, name, unit, *value, &[]);
    }
    for note in &t.notes {
        println!("{w:<15} NOTE {note}");
    }
    for failure in &t.failures {
        println!("{w:<15} FAILED {failure}");
    }
    match write_file(trace_path, &trace_file(&t.trace_header, &t.spans)) {
        Ok(()) => println!("{w:<15} spans written to {trace_path}"),
        Err(e) => println!("{w:<15} NOTE could not write {trace_path}: {e}"),
    }
    let correct = t.failed == 0;
    println!("{}", result_line(correct, t.attempted, t.failed, &rows));
    let document = Json::obj(vec![
        ("workload", Json::str(w)),
        ("mode", Json::str("traced")),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(t.attempted as f64)),
        ("failed", Json::num(t.failed as f64)),
        (
            "metrics",
            Json::Obj(
                rows.iter()
                    .map(|(name, unit, value)| {
                        (name.to_string(), metric_entry(unit, *value, &[*value]))
                    })
                    .collect(),
            ),
        ),
    ]);
    (correct, document)
}

/// The trace file: the header pretty-printed, then `"spans"` with one
/// span per line (tens of thousands of them stay greppable and small).
fn trace_file(header: &Json, spans: &[Json]) -> String {
    let mut text = header.render();
    // `render` ends an object with "\n}\n"; reopen it for one more key.
    text.truncate(text.trim_end().len() - 1);
    let text = text.trim_end().to_string();
    let lines: Vec<String> = spans
        .iter()
        .map(|s| format!("    {}", spec::compact(s)))
        .collect();
    format!("{text},\n  \"spans\": [\n{}\n  ]\n}}\n", lines.join(",\n"))
}

/// `--smoke` self-check: the document carries exactly the metrics
/// `BENCHMARK.json` declares for its mode, all finite.
pub fn validate(document: &Json, spec: &Spec, traced: bool) -> Result<(), String> {
    let declared = if traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let Some(Json::Obj(metrics)) = json::get(document, "metrics") else {
        return Err("document has no metrics object".to_string());
    };
    if metrics.len() != declared.len() {
        return Err(format!(
            "{} metrics emitted, {} declared",
            metrics.len(),
            declared.len()
        ));
    }
    for d in declared {
        let entry = metrics
            .iter()
            .find(|(name, _)| *name == d.name)
            .map(|(_, entry)| entry)
            .ok_or(format!("declared metric {} was not emitted", d.name))?;
        match (json::get(entry, "value"), json::get(entry, "unit")) {
            (Some(Json::Num(v)), Some(Json::Str(u))) if v.is_finite() && *u == d.unit => {}
            _ => {
                return Err(format!(
                    "metric {} lacks a finite value in {}",
                    d.name, d.unit
                ))
            }
        }
        if !traced && matches!(json::get(entry, "value"), Some(Json::Num(v)) if *v == 0.0) {
            return Err(format!("end-to-end metric {} is zero", d.name));
        }
    }
    Ok(())
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Writes every workload's document plus the run metadata.
pub fn write_document(
    path: &str,
    args: &crate::Args,
    documents: Vec<(&'static str, Json)>,
) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let document = Json::obj(vec![
        (
            "meta",
            Json::obj(vec![
                ("seed", Json::num(args.seed as f64)),
                ("seconds", Json::num(args.seconds)),
                (
                    "scale",
                    Json::str(if args.smoke { "smoke" } else { "full" }),
                ),
                ("traced", Json::Bool(args.trace)),
                ("nproc", Json::num(nproc as f64)),
                ("rustc", Json::str(rustc_version())),
            ]),
        ),
        (
            "workloads",
            Json::Arr(documents.into_iter().map(|(_, d)| d).collect()),
        ),
    ]);
    write_file(path, &document.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_file_is_valid_json_with_one_span_per_line() {
        let header = Json::obj(vec![
            ("workload", Json::str("w")),
            ("classes", Json::Arr(vec![])),
        ]);
        let span =
            |id: f64| Json::obj(vec![("id", Json::num(id)), ("name", Json::str("op.query"))]);
        let text = trace_file(&header, &[span(0.0), span(1.0)]);
        let parsed = json::parse(&text).expect("the trace file parses");
        assert_eq!(json::get(&parsed, "workload"), Some(&Json::str("w")));
        match json::get(&parsed, "spans") {
            Some(Json::Arr(spans)) => assert_eq!(spans, &vec![span(0.0), span(1.0)]),
            other => panic!("spans missing: {other:?}"),
        }
        assert_eq!(text.lines().filter(|l| l.contains("op.query")).count(), 2);
    }
}
