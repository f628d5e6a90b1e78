//! `compare A.json B.json`: applies the bounds of `BENCHMARK.json` to
//! two result documents (`--out` files), A the parent and B the change.
//!
//! Per workload × end-to-end metric the verdict is
//! * `regressed`  — B's median is worse than A's by more than the bound;
//! * `unresolved` — the trial-to-trial spread of either side (twice the
//!   median absolute deviation, as a share of the median) is wider than
//!   the bound, so medians cannot settle it — unless every trial of one
//!   side beats every trial of the other;
//! * `ok` otherwise.

use std::process::ExitCode;

use crate::spec::{Declared, Spec};
use crate::stats;
use crate::sut::json::{self, Json};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regressed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better { a - b } else { b - a };
    if a == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

/// Spread of one side's trials as a share of their median: twice the
/// median absolute deviation — the interquartile range of well-behaved
/// trials, but not thrown by the one slow first trial (cold pages) that
/// most runs have.
fn spread(trials: &[f64]) -> f64 {
    let median = stats::median(trials);
    if median == 0.0 {
        return 0.0;
    }
    let deviations: Vec<f64> = trials.iter().map(|t| (t - median).abs()).collect();
    2.0 * stats::median(&deviations) / median.abs()
}

/// The verdict for one metric given both sides' per-trial values.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let (sa, sb) = (stats::summarize(a), stats::summarize(b));
    let by_medians = if worse_by(sa.median, sb.median, higher_is_better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    if spread(a).max(spread(b)) <= bound {
        return by_medians;
    }
    // Too noisy for medians — unless the sides do not even overlap.
    let (b_all_better, b_all_worse) = if higher_is_better {
        (sb.min > sa.max, sb.max < sa.min)
    } else {
        (sb.max < sa.min, sb.min > sa.max)
    };
    if b_all_better {
        Verdict::Ok
    } else if b_all_worse {
        by_medians.max(Verdict::Unresolved)
    } else {
        Verdict::Unresolved
    }
}

fn workloads(doc: &Json) -> Vec<&Json> {
    match json::get(doc, "workloads") {
        Some(Json::Arr(items)) => items.iter().collect(),
        _ => Vec::new(),
    }
}

fn text<'a>(value: &'a Json, key: &str) -> Option<&'a str> {
    match json::get(value, key) {
        Some(Json::Str(s)) => Some(s),
        _ => None,
    }
}

fn trials(workload: &Json, metric: &str) -> Vec<f64> {
    let Some(Json::Obj(metrics)) = json::get(workload, "metrics") else {
        return Vec::new();
    };
    let Some((_, entry)) = metrics.iter().find(|(name, _)| name == metric) else {
        return Vec::new();
    };
    match json::get(entry, "trials") {
        Some(Json::Arr(values)) => values
            .iter()
            .filter_map(|v| if let Json::Num(n) = v { Some(*n) } else { None })
            .collect(),
        _ => Vec::new(),
    }
}

fn checksums(workload: &Json) -> Vec<String> {
    match json::get(workload, "info.checksums") {
        Some(Json::Arr(values)) => values
            .iter()
            .filter_map(|v| {
                if let Json::Str(s) = v {
                    Some(s.clone())
                } else {
                    None
                }
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Compares two documents; prints one line per workload × metric and one
/// row per workload. Returns the worst verdict.
pub fn compare_documents(spec: &Spec, a: &Json, b: &Json) -> Verdict {
    let mut worst = Verdict::Ok;
    for wa in workloads(a) {
        let Some(name) = text(wa, "workload") else {
            continue;
        };
        if text(wa, "mode") != Some("end_to_end") {
            continue;
        }
        let Some(wb) = workloads(b)
            .into_iter()
            .find(|w| text(w, "workload") == Some(name) && text(w, "mode") == Some("end_to_end"))
        else {
            println!("{name:<15} missing from the second file: unresolved");
            worst = worst.max(Verdict::Unresolved);
            continue;
        };
        let mut row = Verdict::Ok;
        for Declared {
            name: metric,
            unit,
            higher_is_better,
            bound,
        } in &spec.end_to_end
        {
            let (ta, tb) = (trials(wa, metric), trials(wb, metric));
            let v = verdict(&ta, &tb, *higher_is_better, bound.unwrap_or(0.0));
            row = row.max(v);
            let (ma, mb) = (stats::median(&ta), stats::median(&tb));
            println!(
                "{name:<15} {metric:<20} {ma:>14.4} -> {mb:>14.4} {unit:<6} {:+7.2}% worse (bound {:.0}%)  {}",
                100.0 * worse_by(ma, mb, *higher_is_better),
                100.0 * bound.unwrap_or(0.0),
                v.label()
            );
        }
        // Same seed, same code ⇒ the common trials agree bit for bit.
        let (ca, cb) = (checksums(wa), checksums(wb));
        let common = ca.len().min(cb.len());
        let same_answers = ca[..common] == cb[..common];
        println!(
            "{name:<15} answers of the {common} common trials {}",
            if same_answers {
                "are bit-identical"
            } else {
                "DIFFER (different seed or different answers)"
            }
        );
        println!("{name:<15} => {}", row.label());
        worst = worst.max(row);
    }
    worst
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn run(spec_path: &str, a: &str, b: &str) -> ExitCode {
    let loaded = Spec::load(spec_path).and_then(|s| Ok((s, load(a)?, load(b)?)));
    match loaded {
        Ok((spec, a, b)) => match compare_documents(&spec, &a, &b) {
            Verdict::Ok => ExitCode::SUCCESS,
            _ => ExitCode::FAILURE,
        },
        Err(e) => {
            eprintln!("isla-benchmark compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_decide_when_trials_are_tight() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better, bound 10 %.
        assert_eq!(
            verdict(&a, &[105.0, 106.0, 104.0, 105.5, 104.5], false, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &[115.0, 116.0, 114.0, 115.5, 114.5], false, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &[50.0, 51.0, 49.0, 50.5, 49.5], false, 0.1),
            Verdict::Ok
        );
        // Higher is better: the same numbers flip.
        assert_eq!(
            verdict(&a, &[85.0, 86.0, 84.0, 85.5, 84.5], true, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &[115.0, 116.0, 114.0, 115.5, 114.5], true, 0.1),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_sides_do_not_overlap() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            verdict(&noisy, &[85.0, 105.0, 125.0, 95.0, 115.0], false, 0.1),
            Verdict::Unresolved
        );
        // Every trial of B beats every trial of A: resolved in B's favour.
        assert_eq!(
            verdict(&noisy, &[40.0, 60.0, 70.0, 50.0, 55.0], false, 0.1),
            Verdict::Ok
        );
        // Every trial of B loses to every trial of A.
        assert_eq!(
            verdict(&noisy, &[140.0, 160.0, 170.0, 150.0, 155.0], false, 0.1),
            Verdict::Regressed
        );
        assert_eq!(verdict(&[], &noisy, false, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn single_value_metrics_compare_directly() {
        assert_eq!(verdict(&[0.95], &[0.94], true, 0.02), Verdict::Ok);
        assert_eq!(verdict(&[0.95], &[0.90], true, 0.02), Verdict::Regressed);
        assert_eq!(verdict(&[0.0], &[1.0], false, 0.1), Verdict::Regressed);
    }

    #[test]
    fn documents_are_compared_workload_by_workload() {
        let spec = Spec::parse(
            r#"{"workloads": [{"name": "w"}],
                "end_to_end": [{"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .expect("spec parses");
        let doc = |trials: &str, sum: &str| {
            json::parse(&format!(
                r#"{{"workloads": [{{"workload": "w", "mode": "end_to_end",
                    "metrics": {{"qps": {{"value": 1, "unit": "1/s", "trials": {trials}}}}},
                    "info": {{"checksums": ["{sum}"]}}}}]}}"#
            ))
            .expect("document parses")
        };
        let a = doc("[100, 101, 99]", "aa");
        assert_eq!(
            compare_documents(&spec, &a, &doc("[100, 102, 98]", "aa")),
            Verdict::Ok
        );
        assert_eq!(
            compare_documents(&spec, &a, &doc("[80, 81, 79]", "aa")),
            Verdict::Regressed
        );
        let empty = json::parse(r#"{"workloads": []}"#).expect("parses");
        assert_eq!(compare_documents(&spec, &a, &empty), Verdict::Unresolved);
    }
}
