//! Support library for the ISLA experiment harness.
//!
//! `benches/exp_paper.rs` regenerates every table and figure of the
//! paper's evaluation (Section VIII), one section each; the other bench
//! targets measure the engine's layers. `DESIGN.md` indexes both. This
//! crate holds the shared plumbing: aligned console tables that double
//! as CSV writers (under `target/experiments/`), a median wall-time
//! helper, error-statistics helpers, and the paper's published numbers
//! for side-by-side comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// Directory experiment CSVs are written to: `<target dir>/experiments`.
///
/// Resolution order: an explicit `CARGO_TARGET_DIR` override (a
/// relative override is anchored at the workspace root, since bench
/// and test processes run with a per-crate working directory), then
/// `<workspace root>/target`, where the workspace root is found by
/// walking up from this crate's manifest — so the path survives crate
/// moves within the workspace.
pub fn experiments_dir() -> PathBuf {
    let target = match std::env::var_os("CARGO_TARGET_DIR").map(PathBuf::from) {
        Some(dir) if dir.is_absolute() => dir,
        Some(dir) => workspace_root().join(dir),
        None => workspace_root().join("target"),
    };
    let dir = target.join("experiments");
    fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// The path a machine-readable benchmark artifact is written to:
/// `<workspace root>/BENCH_<name>.json`. Living at the repo root (not
/// under `target/`), these files make the perf trajectory diffable
/// across commits.
pub fn bench_json_path(name: &str) -> PathBuf {
    workspace_root().join(format!("BENCH_{name}.json"))
}

/// Finds the enclosing workspace root: the nearest ancestor of this
/// crate's manifest directory whose `Cargo.toml` declares `[workspace]`.
/// Falls back to the manifest directory itself if none is found.
fn workspace_root() -> PathBuf {
    let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    for dir in manifest_dir.ancestors().skip(1) {
        let candidate = dir.join("Cargo.toml");
        if let Ok(contents) = fs::read_to_string(&candidate) {
            if contents.contains("[workspace]") {
                return dir.to_path_buf();
            }
        }
    }
    manifest_dir
}

/// An aligned console table that is simultaneously captured as CSV.
pub struct Report {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Starts a report named after the experiment id (e.g. `table3`).
    pub fn new(name: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            name: name.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Convenience: adds a row of displayable cells.
    pub fn row_of(&mut self, cells: &[&dyn Display]) {
        self.row(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Prints the aligned table and writes `target/experiments/<name>.csv`.
    pub fn finish(self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let print_row = |cells: &[String]| {
            let line: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("  {}", line.join("  "));
        };
        println!();
        print_row(&self.headers);
        println!(
            "  {}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            print_row(row);
        }
        println!();

        let path = experiments_dir().join(format!("{}.csv", self.name));
        let mut file =
            std::io::BufWriter::new(fs::File::create(&path).expect("create experiment csv"));
        writeln!(file, "{}", self.headers.join(",")).expect("write csv header");
        for row in &self.rows {
            writeln!(file, "{}", row.join(",")).expect("write csv row");
        }
        file.flush().expect("flush csv");
        println!("  [written {}]", path.display());
    }
}

/// Formats a float with fixed precision for table cells.
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// A dependency-free JSON value tree for benchmark artifacts, plus a
/// minimal parser used to validate emitted files (the CI smoke step
/// runs it so the schema cannot silently rot).
pub mod json {
    use std::fmt::Write as _;

    /// A JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// A finite number.
        Num(f64),
        /// A string.
        Str(String),
        /// A boolean.
        Bool(bool),
        /// An ordered array.
        Arr(Vec<Json>),
        /// An object with insertion-ordered keys.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// Convenience: an object from key/value pairs.
        pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
            Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        }

        /// Convenience: a string value.
        pub fn str(s: impl Into<String>) -> Json {
            Json::Str(s.into())
        }

        /// Convenience: a numeric value.
        ///
        /// # Panics
        ///
        /// Panics on a non-finite number — JSON has no encoding for it,
        /// and a NaN in a perf artifact is always a harness bug.
        pub fn num(v: f64) -> Json {
            assert!(v.is_finite(), "JSON numbers must be finite, got {v}");
            Json::Num(v)
        }

        /// Renders the value as pretty-printed JSON.
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.render_into(&mut out, 0);
            out.push('\n');
            out
        }

        fn render_into(&self, out: &mut String, depth: usize) {
            let pad = "  ".repeat(depth + 1);
            let close = "  ".repeat(depth);
            match self {
                Json::Num(v) => {
                    write!(out, "{v}").expect("string write");
                }
                Json::Bool(b) => {
                    write!(out, "{b}").expect("string write");
                }
                Json::Str(s) => {
                    out.push('"');
                    for c in s.chars() {
                        match c {
                            '"' => out.push_str("\\\""),
                            '\\' => out.push_str("\\\\"),
                            '\n' => out.push_str("\\n"),
                            '\t' => out.push_str("\\t"),
                            c if (c as u32) < 0x20 => {
                                write!(out, "\\u{:04x}", c as u32).expect("string write");
                            }
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                }
                Json::Arr(items) => {
                    if items.is_empty() {
                        out.push_str("[]");
                        return;
                    }
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        out.push_str(if i == 0 { "\n" } else { ",\n" });
                        out.push_str(&pad);
                        item.render_into(out, depth + 1);
                    }
                    out.push('\n');
                    out.push_str(&close);
                    out.push(']');
                }
                Json::Obj(pairs) => {
                    if pairs.is_empty() {
                        out.push_str("{}");
                        return;
                    }
                    out.push('{');
                    for (i, (k, v)) in pairs.iter().enumerate() {
                        out.push_str(if i == 0 { "\n" } else { ",\n" });
                        out.push_str(&pad);
                        Json::Str(k.clone()).render_into(out, depth + 1);
                        out.push_str(": ");
                        v.render_into(out, depth + 1);
                    }
                    out.push('\n');
                    out.push_str(&close);
                    out.push('}');
                }
            }
        }
    }

    /// Parses `text` as a single JSON value — the validation half of
    /// the round trip. Accepts exactly what [`Json::render`] emits
    /// (plus `null`, rejected as un-renderable) and nothing exotic.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes: Vec<char> = text.chars().collect();
        let mut pos = 0usize;
        let value = parse_value(&bytes, &mut pos)?;
        skip_ws(&bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at offset {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[char], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_whitespace() {
            *pos += 1;
        }
    }

    fn expect(b: &[char], pos: &mut usize, c: char) -> Result<(), String> {
        if b.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {c:?} at offset {pos}", pos = *pos))
        }
    }

    fn parse_value(b: &[char], pos: &mut usize) -> Result<Json, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some('{') => {
                *pos += 1;
                let mut pairs = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&'}') {
                    *pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    skip_ws(b, pos);
                    let Json::Str(key) = parse_string(b, pos)? else {
                        unreachable!("parse_string returns Str")
                    };
                    skip_ws(b, pos);
                    expect(b, pos, ':')?;
                    pairs.push((key, parse_value(b, pos)?));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(',') => *pos += 1,
                        Some('}') => {
                            *pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
                    }
                }
            }
            Some('[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(parse_value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(',') => *pos += 1,
                        Some(']') => {
                            *pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
                    }
                }
            }
            Some('"') => parse_string(b, pos),
            Some('t') if b[*pos..].starts_with(&['t', 'r', 'u', 'e']) => {
                *pos += 4;
                Ok(Json::Bool(true))
            }
            Some('f') if b[*pos..].starts_with(&['f', 'a', 'l', 's', 'e']) => {
                *pos += 5;
                Ok(Json::Bool(false))
            }
            Some(c) if *c == '-' || c.is_ascii_digit() => {
                let start = *pos;
                while *pos < b.len()
                    && (b[*pos].is_ascii_digit() || matches!(b[*pos], '-' | '+' | '.' | 'e' | 'E'))
                {
                    *pos += 1;
                }
                let text: String = b[start..*pos].iter().collect();
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number {text:?} at offset {start}"))
            }
            other => Err(format!("unexpected {other:?} at offset {}", *pos)),
        }
    }

    fn parse_string(b: &[char], pos: &mut usize) -> Result<Json, String> {
        expect(b, pos, '"')?;
        let mut s = String::new();
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                '"' => return Ok(Json::Str(s)),
                '\\' => {
                    let esc = b.get(*pos).copied().ok_or("truncated escape")?;
                    *pos += 1;
                    match esc {
                        '"' => s.push('"'),
                        '\\' => s.push('\\'),
                        'n' => s.push('\n'),
                        't' => s.push('\t'),
                        'u' => {
                            let hex: String = b
                                .get(*pos..*pos + 4)
                                .ok_or("truncated \\u escape")?
                                .iter()
                                .collect();
                            *pos += 4;
                            let code = u32::from_str_radix(&hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            s.push(char::from_u32(code).ok_or("invalid codepoint")?);
                        }
                        other => return Err(format!("unknown escape \\{other}")),
                    }
                }
                c => s.push(c),
            }
        }
        Err("unterminated string".to_string())
    }

    /// Looks up a dotted path (`"sections.filtered_sampling"`) in a
    /// parsed value, for schema validation.
    pub fn get<'a>(value: &'a Json, path: &str) -> Option<&'a Json> {
        let mut cur = value;
        for part in path.split('.') {
            match cur {
                Json::Obj(pairs) => {
                    cur = &pairs.iter().find(|(k, _)| k == part)?.1;
                }
                _ => return None,
            }
        }
        Some(cur)
    }
}

/// Mean absolute error of a set of estimates against a truth.
pub fn mean_abs_error(estimates: &[f64], truth: f64) -> f64 {
    estimates.iter().map(|e| (e - truth).abs()).sum::<f64>() / estimates.len() as f64
}

/// Fraction of estimates within ±e of the truth.
pub fn within_fraction(estimates: &[f64], truth: f64, e: f64) -> f64 {
    estimates
        .iter()
        .filter(|&&x| (x - truth).abs() <= e)
        .count() as f64
        / estimates.len() as f64
}

/// The median of `values`: the upper of the two middle values when their
/// count is even.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    values[values.len() / 2]
}

/// Calls `f` once per run index `0..runs` and returns the [`median`]
/// wall time of a call, in milliseconds, with the last call's output.
///
/// # Panics
///
/// Panics if `runs` is 0.
pub fn median_ms<T>(runs: u64, mut f: impl FnMut(u64) -> T) -> (f64, T) {
    assert!(runs > 0, "median_ms needs at least one run");
    let mut times = Vec::new();
    let mut last = None;
    for run in 0..runs {
        let start = Instant::now();
        let out = f(run);
        times.push(start.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    (median(times), last.expect("runs > 0"))
}

/// Published numbers from the paper, for side-by-side reporting.
pub mod paper {
    /// Table III averages over 10 datasets (e = 0.1, truth 100).
    pub const TABLE3_ISLA_AVG: f64 = 100.0296;
    /// Table III MV average.
    pub const TABLE3_MV_AVG: f64 = 104.0036;
    /// Table III MVB average.
    pub const TABLE3_MVB_AVG: f64 = 100.515;
    /// Table IV: sketch0 of the modulation-ability experiment.
    pub const TABLE4_SKETCH0: f64 = 99.676;
    /// Table IV per-block averages (ISLA / MV / MVB).
    pub const TABLE4_AVGS: (f64, f64, f64) = (100.003, 104.049, 100.558);
    /// Table V ISLA answers (e = 0.5, rate r/3).
    pub const TABLE5_ISLA: [f64; 5] = [100.158, 99.8936, 100.136, 99.8917, 100.178];
    /// Table V US answers (rate r).
    pub const TABLE5_US: [f64; 5] = [99.6591, 99.8918, 99.8675, 99.7068, 99.8371];
    /// Table V STS answers (rate r).
    pub const TABLE5_STS: [f64; 5] = [99.7996, 100.084, 100.261, 99.7332, 99.1607];
    /// Table VI: (γ, accurate, ISLA, MV, MVB).
    pub const TABLE6: [(f64, f64, f64, f64, f64); 4] = [
        (0.05, 20.0, 19.8713, 39.7174, 21.8042),
        (0.10, 10.0, 9.53488, 20.2711, 11.0635),
        (0.15, 6.67, 6.32677, 13.2486, 7.30495),
        (0.20, 5.0, 4.60377, 10.3369, 5.49333),
    ];
    /// Table VII ranges: ISLA ≈ 99.5–99.85, MV ≈ 132, MVB ≈ 92.8–95.4.
    pub const TABLE7_MV_CENTER: f64 = 132.0;
    /// §VIII-F run times (ms, 20 runs, 600M rows): ISLA, MV, MVB, US, STS.
    pub const EFFICIENCY_MS: [(&str, f64); 5] = [
        ("ISLA", 31_979.0),
        ("MV", 61_718.0),
        ("MVB", 70_584.0),
        ("US", 25_989.0),
        ("STS", 84_294.0),
    ];
    /// §VIII-G salary: truth and per-method answers (ISLA at half budget).
    pub const SALARY: (f64, [(&str, f64); 5]) = (
        1740.38,
        [
            ("ISLA", 1731.48),
            ("MV", 2326.78),
            ("MVB", 1798.78),
            ("US", 1742.79),
            ("STS", 1740.37),
        ],
    );
    /// §VIII-G TLC trip distance ×1000: truth and per-method answers.
    pub const TLC: (f64, [(&str, f64); 5]) = (
        4648.2,
        [
            ("ISLA", 4515.73),
            ("MV", 7426.37),
            ("MVB", 3298.09),
            ("US", 2908.53),
            ("STS", 4289.08),
        ],
    );
    /// §VIII-A data-size sweep answers for 10⁸…10¹² rows.
    pub const DATA_SIZE: [(f64, f64); 5] = [
        (1e8, 99.9927),
        (1e9, 99.9999),
        (1e10, 100.0119),
        (1e11, 100.0035),
        (1e12, 100.0004),
    ];
    /// §VIII-D non-i.i.d. answers (truth 100, e = 0.5).
    pub const NONIID: [f64; 5] = [99.8538, 100.066, 100.194, 100.321, 99.8333];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_helpers() {
        let est = [99.0, 101.0, 100.2];
        assert!((mean_abs_error(&est, 100.0) - (1.0 + 1.0 + 0.2) / 3.0).abs() < 1e-12);
        assert!((within_fraction(&est, 100.0, 0.5) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(fmt(1.23456, 2), "1.23");
    }

    #[test]
    fn median_takes_the_middle_or_the_upper_middle() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(vec![7.5]), 7.5);
    }

    #[test]
    fn median_ms_calls_every_run_in_order() {
        for runs in [5, 6] {
            let mut seen = Vec::new();
            let (ms, last) = median_ms(runs, |run| {
                seen.push(run);
                run * 10
            });
            assert_eq!(seen, (0..runs).collect::<Vec<_>>());
            assert_eq!(last, (runs - 1) * 10);
            assert!(ms >= 0.0 && ms.is_finite());
        }
    }

    #[test]
    fn report_writes_csv() {
        let mut r = Report::new("unit_test_report", &["a", "b"]);
        r.row(vec!["1".into(), "2".into()]);
        r.row_of(&[&3.5, &"x"]);
        r.finish();
        let path = experiments_dir().join("unit_test_report.csv");
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,b\n1,2\n3.5,x"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn experiments_dir_resolves_under_the_active_target_dir() {
        let dir = experiments_dir();
        assert!(dir.exists(), "{} should exist", dir.display());
        assert_eq!(dir.file_name().unwrap(), "experiments");
        if std::env::var_os("CARGO_TARGET_DIR").is_none() {
            let parent = dir.parent().unwrap();
            assert_eq!(parent.file_name().unwrap(), "target");
            assert!(
                parent.parent().unwrap().join("Cargo.toml").exists(),
                "target dir should sit in the workspace root"
            );
        }
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn report_rejects_ragged_rows() {
        let mut r = Report::new("ragged", &["a", "b"]);
        r.row(vec!["1".into()]);
    }

    #[test]
    fn json_round_trips() {
        use super::json::{get, parse, Json};
        let doc = Json::obj(vec![
            ("bench", Json::str("kernels")),
            ("speedup", Json::num(2.5)),
            ("ok", Json::Bool(true)),
            (
                "rows",
                Json::Arr(vec![Json::num(1.0), Json::num(-2e3), Json::num(0.125)]),
            ),
            ("nested", Json::obj(vec![("k", Json::str("v \"quoted\""))])),
            ("empty", Json::Arr(vec![])),
        ]);
        let text = doc.render();
        let parsed = parse(&text).expect("rendered JSON parses");
        assert_eq!(parsed, doc);
        assert_eq!(get(&parsed, "nested.k"), Some(&Json::str("v \"quoted\"")));
        assert_eq!(get(&parsed, "speedup"), Some(&Json::Num(2.5)));
        assert!(get(&parsed, "missing.path").is_none());
        assert!(parse("{\"unterminated\": ").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn json_rejects_nan() {
        let _ = super::json::Json::num(f64::NAN);
    }

    #[test]
    fn bench_json_path_sits_at_the_workspace_root() {
        let path = bench_json_path("unit_test");
        assert_eq!(path.file_name().unwrap(), "BENCH_unit_test.json");
        assert!(path.parent().unwrap().join("Cargo.toml").exists());
    }
}
