//! The metric contract: names and units as the binary emits them, the
//! reader for `BENCHMARK.json` (which fixes directions and bounds), and
//! single-line JSON output.

use std::fmt::Write as _;

use crate::sut::json::{self, Json};

/// End-to-end metrics, in print order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("samples_per_query", "count"),
    ("coverage", "ratio"),
    ("err_ratio_p50", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 71] = [
    // Fixed per-query path → query_p50_ms / qps on dashboard_warm.
    ("parser.parse_us", "us"),
    ("service.admission_us", "us"),
    ("service.handoff_us", "us"),
    ("service.overhead_us", "us"),
    ("service.snapshot_us", "us"),
    ("service.admitted", "count"),
    ("service.rejected", "count"),
    ("service.failed", "count"),
    ("service.degraded", "count"),
    ("executor.self_us", "us"),
    ("cache.lookup_hit_us", "us"),
    ("cache.pre_hits", "count"),
    ("cache.pre_misses", "count"),
    ("cache.pre_hit_rate", "ratio"),
    ("plan.build_us", "us"),
    ("block_exec.us_per_block", "us"),
    ("modulation.iterate_us", "us"),
    ("modulation.iterations_per_block", "count"),
    ("block_exec.fallback_blocks", "count"),
    ("partial.merge_us", "us"),
    // Sampling kernels and fold → query_p50_ms / qps on kernel_heavy.
    ("kernel.sample_ns_per_draw", "ns"),
    ("kernel.sample_rows_ns_per_draw", "ns"),
    ("kernel.filtered_ns_per_draw", "ns"),
    ("kernel.scan_ns_per_row", "ns"),
    ("kernel.scan_rows_ns_per_row", "ns"),
    ("kernel.fold_ns_per_sample", "ns"),
    ("block_exec.scalar_ns_per_sample", "ns"),
    ("block_exec.rows_ns_per_sample", "ns"),
    ("block_exec.samples", "count"),
    ("block_exec.blocks", "count"),
    ("scheduler.sequential_ms", "ms"),
    ("scheduler.pooled_ms", "ms"),
    ("scheduler.pool_speedup", "ratio"),
    ("scheduler.spawn_us", "us"),
    // Pilots and cache builds → adhoc_cold.
    ("pre_estimation.scalar_ms", "ms"),
    ("pre_estimation.rows_ms", "ms"),
    ("pre_estimation.pilot_samples", "count"),
    ("selection.build_ms", "ms"),
    ("selection.hits", "count"),
    ("selection.builds", "count"),
    ("selection.pruned_blocks", "count"),
    ("sketch.scan_ms", "ms"),
    ("sketch.hits", "count"),
    ("sketch.inserted", "count"),
    // Append path → ingest_mixed.
    ("ingest.push_ns_per_row", "ns"),
    ("ingest.seal_ms", "ms"),
    ("ingest.append_us", "us"),
    ("ingest.sealed_blocks", "count"),
    ("ingest.rows_per_s", "1/s"),
    ("ingest.call_p50_ms", "ms"),
    ("ingest.call_p99_ms", "ms"),
    ("ingest.fresh_query_p50_ms", "ms"),
    ("pre_estimation.delta_resume_ms", "ms"),
    ("cache.epoch_exact_hits", "count"),
    ("cache.epoch_delta_folds", "count"),
    ("cache.epoch_cold_folds", "count"),
    // Where a query's time goes, frequency-weighted over the shape mix.
    ("share.parse", "ratio"),
    ("share.admission", "ratio"),
    ("share.cache_lookup", "ratio"),
    ("share.pre_estimation", "ratio"),
    ("share.plan", "ratio"),
    ("share.block_setup", "ratio"),
    ("share.kernel", "ratio"),
    ("share.fold", "ratio"),
    ("share.modulation", "ratio"),
    ("share.merge", "ratio"),
    ("share.other", "ratio"),
    ("share.fixed_path", "ratio"),
    ("share.sampling", "ratio"),
    // The instrument itself.
    ("trace.overhead_frac", "ratio"),
    ("trace.replay_cover_frac", "ratio"),
];

/// One declared end-to-end metric, as `BENCHMARK.json` fixes it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark reads back.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

fn declared(entry: &Json) -> Result<Declared, String> {
    let text = |key: &str| match json::get(entry, key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(format!("metric entry lacks string `{key}`")),
    };
    let better = text("better")?;
    Ok(Declared {
        name: text("name")?,
        unit: text("unit")?,
        higher_is_better: match better.as_str() {
            "higher" => true,
            "lower" => false,
            other => return Err(format!("`better` must be higher or lower, got {other}")),
        },
        bound: match json::get(entry, "bound") {
            Some(Json::Num(b)) => Some(*b),
            _ => None,
        },
    })
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| match json::get(&doc, key) {
            Some(Json::Arr(items)) => Ok(items.clone()),
            _ => Err(format!("BENCHMARK.json lacks array `{key}`")),
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| match json::get(w, "name") {
                    Some(Json::Str(s)) => Ok(s.clone()),
                    _ => Err("workload entry lacks `name`".to_string()),
                })
                .collect::<Result<_, _>>()?,
            end_to_end: list("end_to_end")?
                .iter()
                .map(declared)
                .collect::<Result<_, _>>()?,
            per_layer: list("per_layer")?
                .iter()
                .map(declared)
                .collect::<Result<_, _>>()?,
        })
    }

    pub fn load(path: &str) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Spec::parse(&text)
    }

    /// Checks that the file declares exactly what the binary emits.
    pub fn check_against_binary(&self) -> Result<(), String> {
        let valid = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let same = |what: &str, file: &[Declared], binary: &[(&str, &str)]| {
            let file: Vec<(&str, &str)> = file
                .iter()
                .map(|d| (d.name.as_str(), d.unit.as_str()))
                .collect();
            if file == binary {
                Ok(())
            } else {
                Err(format!(
                    "{what}: BENCHMARK.json and the binary disagree on names or units"
                ))
            }
        };
        same("end_to_end", &self.end_to_end, &END_TO_END)?;
        same("per_layer", &self.per_layer, &PER_LAYER)?;
        let names: Vec<&str> = self.workloads.iter().map(String::as_str).collect();
        if names != crate::workload::NAMES {
            return Err("workloads: BENCHMARK.json and the binary disagree".to_string());
        }
        for name in self
            .end_to_end
            .iter()
            .chain(&self.per_layer)
            .map(|d| d.name.as_str())
            .chain(names)
        {
            if !valid(name) {
                return Err(format!("name {name:?} is outside [A-Za-z0-9_.-]{{1,64}}"));
            }
        }
        Ok(())
    }
}

/// Renders a JSON value on one line.
pub fn compact(value: &Json) -> String {
    let mut out = String::new();
    write_compact(value, &mut out);
    out
}

fn write_compact(value: &Json, out: &mut String) {
    match value {
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (key, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write!(out, "{}: ", Json::str(key.as_str()).render().trim_end())
                    .expect("string write");
                write_compact(item, out);
            }
            out.push('}');
        }
        // Scalars render on one line already.
        scalar => out.push_str(scalar.render().trim_end()),
    }
}

/// `{"name": {"value": v, "unit": u}, …}` for the result line.
pub fn metrics_object(values: &[(&str, &str, f64)]) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|(name, unit, value)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("value", Json::num(*value)),
                        ("unit", Json::str(*unit)),
                    ]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_what_the_binary_emits() {
        let spec =
            Spec::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        spec.check_against_binary().expect("names and units agree");
        assert!(spec
            .end_to_end
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec.per_layer.iter().all(|d| d.bound.is_none()));
        let setup = &spec.end_to_end[0];
        assert_eq!(
            (setup.name.as_str(), setup.higher_is_better),
            ("setup_s", false)
        );
    }

    #[test]
    fn compact_output_is_one_line_and_round_trips() {
        let doc = Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::num(12.0)),
            (
                "metrics",
                metrics_object(&[("qps", "1/s", 1234.5678), ("a.b", "us", 0.0)]),
            ),
            (
                "list",
                Json::Arr(vec![Json::num(1.0), Json::str("x \"y\"")]),
            ),
        ]);
        let line = compact(&doc);
        assert!(!line.contains('\n'));
        assert_eq!(json::parse(&line).expect("compact output parses"), doc);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"metrics\": {\"qps\": {\"value\": 1234.5678, \"unit\": \"1/s\"}"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
