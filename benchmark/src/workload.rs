//! The four workloads: fixed, seeded op lists with reference answers.
//!
//! A workload is a list of phases. Clients pull ops of a query phase
//! from one shared counter (closed loop) and all meet at the phase's
//! end, so the order of phases — and with it every cache state a query
//! can observe — is the same in every trial.

use crate::gen::{sales_scan, ByStore, Pred, PredCol, Sales, Stat, ThresholdIndex, Trips};
use crate::sut::{Answer, SutConfig};

/// Workload names, normative: later issues cite them.
pub const NAMES: [&str; 4] = [
    "dashboard_warm",
    "adhoc_cold",
    "kernel_heavy",
    "ingest_mixed",
];

/// Blocks per table (both tables, every scale).
pub const BLOCKS: usize = 16;

/// Table sizes for one run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub trips_rows: usize,
    pub sales_rows: usize,
    /// Rows appended per ingest call (`ingest_mixed` only).
    pub batch_rows: usize,
    /// Ingest rounds per trial (`ingest_mixed` only).
    pub rounds: usize,
    /// Multiplies every workload's op count.
    pub ops_factor: f64,
}

impl Scale {
    /// Base scale, ≈ 40 MB of columns.
    pub const BASE: Scale = Scale {
        trips_rows: 1_000_000,
        sales_rows: 500_000,
        batch_rows: 20_000,
        rounds: 40,
        ops_factor: 1.0,
    };
    /// Heavy scale, ×8 ≈ 320 MB: random gathers miss L2 and, on ordinary
    /// boxes, the last-level cache.
    pub const HEAVY: Scale = Scale {
        trips_rows: 8_000_000,
        sales_rows: 4_000_000,
        ..Scale::BASE
    };
    /// `--smoke`: seconds-scale, same shapes.
    pub const SMOKE: Scale = Scale {
        trips_rows: 60_000,
        sales_rows: 40_000,
        batch_rows: 2_000,
        rounds: 4,
        ops_factor: 0.05,
    };
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Avg,
    Sum,
    Count,
    Max,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    Isla,
    Exact,
    /// `METHOD US SAMPLES n`.
    Uniform(u64),
}

/// One query shape; with its literals filled in it is one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub agg: Agg,
    /// `Some(col)`: unfiltered scalar over `trips.col`; `None`:
    /// `sales.amount` under the clauses below.
    pub trips_col: Option<&'static str>,
    pub pred: Option<Pred>,
    /// `AND store = 1`.
    pub store1: bool,
    /// `GROUP BY store`.
    pub by_store: bool,
    pub precision: Option<f64>,
    pub confidence: Option<f64>,
    pub method: Method,
}

impl Shape {
    fn trips(agg: Agg, col: &'static str, e: f64) -> Shape {
        Shape {
            agg,
            trips_col: Some(col),
            pred: None,
            store1: false,
            by_store: false,
            precision: Some(e),
            confidence: None,
            method: Method::Isla,
        }
    }

    fn sales(agg: Agg, e: f64) -> Shape {
        Shape {
            trips_col: None,
            ..Shape::trips(agg, "", e)
        }
    }

    fn margin_gt(mut self, gt: f64) -> Shape {
        self.pred = Some(Pred {
            col: PredCol::Margin,
            gt,
        });
        self
    }

    fn ts_gt(mut self, gt: f64) -> Shape {
        self.pred = Some(Pred {
            col: PredCol::Ts,
            gt,
        });
        self
    }

    fn and_store1(mut self) -> Shape {
        self.store1 = true;
        self
    }

    fn grouped(mut self) -> Shape {
        self.by_store = true;
        self
    }

    fn exact(mut self) -> Shape {
        self.method = Method::Exact;
        self.precision = None;
        self
    }

    fn no_precision(mut self) -> Shape {
        self.precision = None;
        self
    }

    pub fn sql(&self) -> String {
        let mut s = String::from("SELECT ");
        let (column, table) = match self.trips_col {
            Some(col) => (col, "trips"),
            None => ("amount", "sales"),
        };
        match self.agg {
            Agg::Avg => s += &format!("AVG({column})"),
            Agg::Sum => s += &format!("SUM({column})"),
            Agg::Max => s += &format!("MAX({column})"),
            Agg::Count => s += "COUNT(*)",
        }
        s += &format!(" FROM {table}");
        let mut conjuncts = Vec::new();
        if let Some(p) = self.pred {
            conjuncts.push(format!("{} > {}", p.col.name(), p.gt));
        }
        if self.store1 {
            conjuncts.push("store = 1".to_string());
        }
        if !conjuncts.is_empty() {
            s += &format!(" WHERE {}", conjuncts.join(" AND "));
        }
        if self.by_store {
            s += " GROUP BY store";
        }
        if let Some(e) = self.precision {
            s += &format!(" WITH PRECISION {e}");
        }
        if let Some(c) = self.confidence {
            s += &format!(" CONFIDENCE {c}");
        }
        match self.method {
            Method::Isla => {}
            Method::Exact => s += " METHOD EXACT",
            Method::Uniform(n) => s += &format!(" METHOD US SAMPLES {n}"),
        }
        s
    }
}

/// How an answer is judged against its reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Exact method or metadata: relative difference ≤ 1e-9.
    Exact,
    /// Approximate: fails beyond `tol`; with `e` set it is an AVG answer
    /// and feeds `coverage` / `err_ratio_p50`.
    Approx { tol: f64, e: Option<f64> },
    /// Sampled extreme: any value in `[floor, reference]`.
    LowerBound { floor: f64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    pub value: f64,
    pub rule: Rule,
}

/// Reference for one op: the headline value and, for `GROUP BY`, each
/// group's.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    pub total: Reference,
    pub groups: Vec<(f64, Reference)>,
}

/// Where an approximate answer stops being a tail and becomes a defect,
/// in units of its precision `e`. An answer follows its cached
/// pre-estimate's `sketch0`, which is itself only good to about `e`
/// (relaxed precision 2e at 95 %): over 4 000 independent pilots per
/// shape the unchanged code reaches 2.7e on the scalar path, so a line
/// at 3e would trip about once in a few thousand pilots. 5e needs a 5σ
/// pilot. `coverage` and `err_ratio_p50` watch everything below it.
const FAIL_AT_E: f64 = 5.0;
/// Estimated counts (and sums that embed one) are judged at 5 %.
const COUNT_TOLERANCE: f64 = 0.05;

impl Shape {
    /// The reference for this shape given exact aggregates of the rows
    /// it selects: `scalar` for a `trips` column, `by_store` for `sales`.
    fn expect(&self, scalar: Option<Stat>, by_store: ByStore) -> Expect {
        let one = |stat: Stat, embeds_count: bool, quality: bool| -> Reference {
            let n = stat.count as f64;
            match (self.agg, self.method) {
                (Agg::Count, Method::Isla) if self.pred.is_some() || self.store1 => Reference {
                    value: n,
                    rule: Rule::Approx {
                        tol: COUNT_TOLERANCE * n,
                        e: None,
                    },
                },
                (Agg::Count, _) => Reference {
                    value: n,
                    rule: Rule::Exact,
                },
                (Agg::Max, Method::Exact) => Reference {
                    value: stat.max,
                    rule: Rule::Exact,
                },
                (Agg::Max, _) => Reference {
                    value: stat.max,
                    rule: Rule::LowerBound { floor: stat.mean() },
                },
                (Agg::Avg, Method::Exact) => Reference {
                    value: stat.mean(),
                    rule: Rule::Exact,
                },
                (Agg::Sum, Method::Exact) => Reference {
                    value: stat.sum,
                    rule: Rule::Exact,
                },
                (Agg::Avg, Method::Uniform(samples)) => Reference {
                    value: stat.mean(),
                    rule: Rule::Approx {
                        tol: FAIL_AT_E * 1.96 * stat.std_dev() / (samples as f64).sqrt(),
                        e: None,
                    },
                },
                (Agg::Avg, Method::Isla) => {
                    let e = self.precision.expect("ISLA AVG shapes carry a precision");
                    Reference {
                        value: stat.mean(),
                        rule: Rule::Approx {
                            tol: FAIL_AT_E * e,
                            e: quality.then_some(e),
                        },
                    }
                }
                (Agg::Sum, _) => {
                    // SUM = AVG × M: judged on the equivalent relative
                    // error; a filtered or grouped SUM multiplies by an
                    // *estimated* count and gets the count's tolerance.
                    let e = self.precision.expect("ISLA SUM shapes carry a precision");
                    let mut tol = FAIL_AT_E * e * n;
                    if embeds_count {
                        tol = tol.max(COUNT_TOLERANCE * stat.sum.abs());
                    }
                    Reference {
                        value: stat.sum,
                        rule: Rule::Approx { tol, e: None },
                    }
                }
            }
        };
        if let Some(stat) = scalar {
            return Expect {
                total: one(stat, false, true),
                groups: Vec::new(),
            };
        }
        let selected: Vec<(f64, Stat)> = [(0.0, by_store[0]), (1.0, by_store[1])]
            .into_iter()
            .filter(|(key, _)| !self.store1 || *key == 1.0)
            .collect();
        let all = selected
            .iter()
            .fold(Stat::default(), |acc, (_, s)| acc.merged(*s));
        let embeds_count = self.pred.is_some() || self.store1 || self.by_store;
        Expect {
            // A grouped query's headline is the all-groups combination;
            // only its groups count towards coverage.
            total: one(all, embeds_count, !self.by_store),
            groups: if self.by_store {
                selected
                    .iter()
                    .map(|(key, s)| (*key, one(*s, true, true)))
                    .collect()
            } else {
                Vec::new()
            },
        }
    }
}

/// The outcome of judging one answer.
#[derive(Debug, Default, PartialEq)]
pub struct Verdict {
    pub failed: bool,
    /// `|error| / e` of every approximate AVG answer in the op.
    pub err_ratios: Vec<f64>,
}

fn judge_one(reference: &Reference, got: f64, verdict: &mut Verdict) {
    if !got.is_finite() {
        verdict.failed = true;
        return;
    }
    let err = (got - reference.value).abs();
    match reference.rule {
        Rule::Exact => {
            if err > 1e-9 * reference.value.abs().max(1e-300) {
                verdict.failed = true;
            }
        }
        Rule::Approx { tol, e } => {
            if err > tol {
                verdict.failed = true;
            }
            if let Some(e) = e {
                verdict.err_ratios.push(err / e);
            }
        }
        Rule::LowerBound { floor } => {
            if got < floor || got > reference.value * (1.0 + 1e-9) {
                verdict.failed = true;
            }
        }
    }
}

/// Judges an answer (or an error) against the op's reference.
pub fn judge(expect: &Expect, answer: &Result<Answer, String>) -> Verdict {
    let mut verdict = Verdict::default();
    let Ok(answer) = answer else {
        verdict.failed = true;
        return verdict;
    };
    judge_one(&expect.total, answer.value, &mut verdict);
    if answer.groups.len() != expect.groups.len() {
        verdict.failed = true;
        return verdict;
    }
    for ((want_key, reference), (got_key, got)) in expect.groups.iter().zip(&answer.groups) {
        if want_key != got_key {
            verdict.failed = true;
            return verdict;
        }
        judge_one(reference, *got, &mut verdict);
    }
    verdict
}

/// One query with its reference.
#[derive(Debug, Clone)]
pub struct Op {
    /// Index into [`Workload::classes`] — the shape with its literals
    /// stripped, the unit the traced run replays and weights by.
    pub class: usize,
    pub sql: String,
    pub expect: Expect,
}

pub enum Phase {
    /// One `ingest` call with batch `batch` on client 0; others wait.
    Ingest { batch: usize },
    /// Queries shared by all clients. `fresh`: each is the first of its
    /// shape since the table last changed.
    Queries { ops: Vec<Op>, fresh: bool },
}

pub struct Workload {
    pub name: &'static str,
    pub scale: Scale,
    pub sut: SutConfig,
    pub clients: usize,
    /// Statements run once, untimed, during set-up (warm caches).
    pub warm_up: Vec<String>,
    /// One representative per shape class.
    pub classes: Vec<Shape>,
    pub phases: Vec<Phase>,
    /// Pre-generated ingest batches.
    pub batches: Vec<Vec<Vec<f64>>>,
}

impl Workload {
    /// Queries per trial.
    pub fn query_count(&self) -> usize {
        self.phases
            .iter()
            .map(|p| match p {
                Phase::Queries { ops, .. } => ops.len(),
                Phase::Ingest { .. } => 0,
            })
            .sum()
    }

    /// Ingest calls per trial.
    pub fn ingest_count(&self) -> usize {
        self.phases
            .iter()
            .filter(|p| matches!(p, Phase::Ingest { .. }))
            .count()
    }
}

/// Generated inputs of one run.
pub struct Inputs {
    pub trips: Trips,
    /// Base rows followed by every ingest batch's rows.
    pub sales: Sales,
}

impl Inputs {
    /// Generates both tables (two threads; the program is not running
    /// yet, so this does not count against the ≤ 2 load threads).
    pub fn generate(scale: &Scale, sales_total: usize, seed: u64) -> Inputs {
        std::thread::scope(|s| {
            let trips = s.spawn(|| Trips::generate(scale.trips_rows, seed));
            let sales = Sales::generate(sales_total, seed);
            Inputs {
                trips: trips.join().expect("trips generator panicked"),
                sales,
            }
        })
    }
}

/// Exact aggregates for shapes with fixed literals, by plain scans.
struct ScanOracle<'a> {
    inputs: &'a Inputs,
    rows: usize,
}

impl ScanOracle<'_> {
    /// Exact aggregates of the rows `shape` selects, in the form
    /// [`Shape::expect`] takes.
    fn stats(&self, shape: &Shape) -> (Option<Stat>, ByStore) {
        match shape.trips_col {
            Some(col) => (
                Some(Stat::of(self.inputs.trips.column(col))),
                ByStore::default(),
            ),
            None => {
                let mut by_store = ByStore::default();
                sales_scan(&self.inputs.sales, 0..self.rows, shape.pred, &mut by_store);
                (None, by_store)
            }
        }
    }

    fn expect(&self, shape: &Shape) -> Expect {
        let (scalar, by_store) = self.stats(shape);
        shape.expect(scalar, by_store)
    }
}

fn scaled(n: usize, scale: &Scale) -> usize {
    ((n as f64 * scale.ops_factor).round() as usize).max(1)
}

/// The twelve small dashboard shapes. Every precision is loose enough
/// for ~150–300 samples: measured on this code a warm query's fixed path
/// costs ~10–15 µs and a sample ~35 ns (gather + fold), so only below a
/// few hundred samples does the fixed path, not sampling, do most of the
/// work. (Estimated `COUNT(*) WHERE` and sampled `MAX` draw ≥ 10 k rows
/// whatever the precision; they live in `adhoc_cold` and `ingest_mixed`.)
fn dashboard_shapes(sales_rows: usize) -> Vec<Shape> {
    let half_ts = (sales_rows / 2) as f64;
    vec![
        Shape::trips(Agg::Avg, "distance", 2.5),
        Shape::trips(Agg::Sum, "fare", 6.5),
        Shape {
            confidence: Some(0.99),
            ..Shape::trips(Agg::Avg, "tip", 0.5)
        },
        Shape::trips(Agg::Avg, "fare", 6.0),
        Shape::sales(Agg::Avg, 1.6).margin_gt(25.0),
        Shape::sales(Agg::Avg, 2.4).margin_gt(20.0).and_store1(),
        Shape::sales(Agg::Avg, 2.4).grouped(),
        Shape::trips(Agg::Sum, "distance", 2.8),
        Shape::sales(Agg::Avg, 1.3),
        Shape::sales(Agg::Sum, 1.5),
        Shape::sales(Agg::Avg, 1.6).ts_gt(half_ts),
        Shape::trips(Agg::Count, "distance", 0.0).no_precision(),
    ]
}

/// The `sales` shapes `ingest_mixed` runs after every append: row-model
/// ISLA (pre-estimates resume over the new epoch), the estimated count,
/// and the sampled filtered `MAX` whose cached selection vector grows by
/// a tail at seal time.
fn ingest_shapes(sales_rows: usize) -> Vec<Shape> {
    vec![
        Shape::sales(Agg::Avg, 0.4).margin_gt(25.0),
        Shape::sales(Agg::Avg, 0.6).margin_gt(20.0).and_store1(),
        Shape::sales(Agg::Avg, 0.5).grouped(),
        Shape::sales(Agg::Count, 0.0).margin_gt(25.0).no_precision(),
        Shape::sales(Agg::Max, 0.5).margin_gt(30.0),
        Shape::sales(Agg::Avg, 0.4).ts_gt((sales_rows / 2) as f64),
    ]
}

fn ops_cycling(classes: &[Shape], count: usize, expects: &[Expect]) -> Vec<Op> {
    (0..count)
        .map(|i| {
            let class = i % classes.len();
            Op {
                class,
                sql: classes[class].sql(),
                expect: expects[class].clone(),
            }
        })
        .collect()
}

fn dashboard_warm(scale: Scale, inputs: &Inputs) -> Workload {
    let classes = dashboard_shapes(scale.sales_rows);
    let oracle = ScanOracle {
        inputs,
        rows: scale.sales_rows,
    };
    let expects: Vec<Expect> = classes.iter().map(|s| oracle.expect(s)).collect();
    let ops = ops_cycling(&classes, scaled(72_000, &scale), &expects);
    Workload {
        name: "dashboard_warm",
        scale,
        sut: SutConfig {
            workers: 2,
            max_concurrent: 2,
            ingest_rows_per_block: scale.batch_rows,
        },
        clients: 2,
        warm_up: classes.iter().map(Shape::sql).collect(),
        classes,
        phases: vec![Phase::Queries { ops, fresh: false }],
        batches: Vec::new(),
    }
}

/// Shape classes of `adhoc_cold`.
const ADHOC_CLASSES: usize = 17;

/// Sixteen-op cycle of `adhoc_cold`, every op with literals no other op
/// has. Eleven are row-model ISLA (they fill and overflow the
/// pre-estimate row cache), two build selection vectors (filtered
/// MAX, sampled and exact — the row-ISLA path never touches the
/// selection cache), the rest cover the scalar pilots, the exact row
/// scan and the estimated count.
fn adhoc_op(i: usize, scale: &Scale) -> (usize, Shape) {
    // Unique per op: precision for scalar shapes, thresholds otherwise.
    let step = i as f64;
    let e = |base: f64| base * (1.0 + step * 1e-4);
    let margin = 22.0 + (step * 0.618_033_988_75).fract() * 6.0 + step * 1e-7;
    let ts = (scale.sales_rows as f64) * (0.2 + (step * 0.381_966_011_25).fract() * 0.6);
    // The exact slot alternates two shapes; the second is class 16.
    let class = if i % 32 == 13 { 16 } else { i % 16 };
    let shape = match class {
        0 => Shape::trips(Agg::Avg, "distance", e(0.5)),
        1 => Shape::trips(Agg::Sum, "fare", e(1.5)),
        2..=4 => Shape::sales(Agg::Avg, 0.4).margin_gt(margin),
        5 | 6 => Shape::sales(Agg::Avg, 0.5).margin_gt(margin).grouped(),
        7 => Shape::sales(Agg::Avg, 0.6).ts_gt(ts).and_store1(),
        8 | 9 => Shape::sales(Agg::Avg, 0.4).ts_gt(ts),
        10 => Shape::sales(Agg::Avg, 0.6).margin_gt(margin).and_store1(),
        11 => Shape::sales(Agg::Avg, 0.5).ts_gt(ts).grouped(),
        12 => Shape::sales(Agg::Max, 0.5).margin_gt(margin + 4.0),
        13 => Shape::sales(Agg::Avg, 0.0).margin_gt(margin).exact(),
        14 => Shape::sales(Agg::Count, 0.0)
            .margin_gt(margin)
            .no_precision(),
        15 => Shape::sales(Agg::Avg, e(0.5)).grouped(),
        _ => Shape::sales(Agg::Max, 0.0).ts_gt(ts).exact(),
    };
    (class, shape)
}

fn adhoc_cold(scale: Scale, inputs: &Inputs) -> Workload {
    // At least one full alternation, so every class has a representative.
    let count = scaled(1_600, &scale).max(32);
    let by_margin = ThresholdIndex::build(&inputs.sales, scale.sales_rows, PredCol::Margin);
    let by_ts = ThresholdIndex::build(&inputs.sales, scale.sales_rows, PredCol::Ts);
    let mut unfiltered = ByStore::default();
    sales_scan(&inputs.sales, 0..scale.sales_rows, None, &mut unfiltered);
    let trips_stats: Vec<(&str, Stat)> = ["distance", "fare"]
        .iter()
        .map(|&c| (c, Stat::of(inputs.trips.column(c))))
        .collect();
    let mut classes: Vec<Option<Shape>> = vec![None; ADHOC_CLASSES];
    let ops = (0..count)
        .map(|i| {
            let (class, shape) = adhoc_op(i, &scale);
            classes[class].get_or_insert(shape);
            let expect = match (shape.trips_col, shape.pred) {
                (Some(col), _) => {
                    let stat = trips_stats
                        .iter()
                        .find(|(c, _)| *c == col)
                        .expect("known column")
                        .1;
                    shape.expect(Some(stat), ByStore::default())
                }
                (None, None) => shape.expect(None, unfiltered),
                (None, Some(p)) => {
                    let index = match p.col {
                        PredCol::Margin => &by_margin,
                        PredCol::Ts => &by_ts,
                    };
                    shape.expect(None, index.above(p.gt))
                }
            };
            Op {
                class,
                sql: shape.sql(),
                expect,
            }
        })
        .collect();
    Workload {
        name: "adhoc_cold",
        scale,
        sut: SutConfig {
            workers: 2,
            max_concurrent: 2,
            ingest_rows_per_block: scale.batch_rows,
        },
        clients: 2,
        warm_up: Vec::new(),
        classes: classes
            .into_iter()
            .map(|c| c.expect("every class occurs in the first 32 ops"))
            .collect(),
        phases: vec![Phase::Queries { ops, fresh: false }],
        batches: Vec::new(),
    }
}

/// Precision variants per `kernel_heavy` class. At ~0.4 M samples the
/// sketch pilot is as large as its relaxed precision allows and no
/// larger, so each cached pre-estimate pulls every answer that reuses it
/// the same way; ten keys per class (all warmed in set-up) keep the
/// quality metrics from resting on nine pilots.
const HEAVY_VARIANTS: usize = 10;

/// The paper's regime: tight precision on big tables, ~0.3–0.6 M samples
/// per query, so time ≈ samples × ns/draw. Nine of ten ops are
/// precision-driven (they carry the quality metrics); one alternates the
/// exact chunk scan, the exact filtered row scan and a uniform-sampling
/// baseline.
fn kernel_heavy(scale: Scale, inputs: &Inputs) -> Workload {
    // Precisions scale with 1/√rows so smoke tables are not oversampled.
    let tight = (Scale::HEAVY.sales_rows as f64 / scale.sales_rows as f64).sqrt();
    let e = |base: f64| (base * tight * 1e4).round() / 1e4;
    // Filters are on `ts`, which is independent of `amount`: under a
    // `margin` filter the matching population is skewed and the answer
    // carries a precision-independent bias that tight precisions expose
    // (README, named defects).
    let rows = scale.sales_rows as f64;
    let classes = vec![
        Shape::trips(Agg::Avg, "distance", e(0.06)),
        Shape::sales(Agg::Avg, e(0.04)).ts_gt((rows * 0.5).floor()),
        Shape::sales(Agg::Avg, e(0.05)).grouped(),
        Shape::trips(Agg::Avg, "fare", e(0.15)),
        Shape::trips(Agg::Sum, "fare", e(0.16)),
        Shape {
            confidence: Some(0.99),
            ..Shape::trips(Agg::Avg, "fare", e(0.2))
        },
        Shape::sales(Agg::Avg, e(0.05)).ts_gt((rows * 0.25).floor()),
        Shape::sales(Agg::Avg, e(0.06)).grouped(),
        Shape::trips(Agg::Avg, "distance", e(0.07)),
        Shape::trips(Agg::Avg, "distance", 0.0).exact(),
        Shape::sales(Agg::Avg, 0.0).margin_gt(25.0).exact(),
        Shape {
            method: Method::Uniform((400_000.0 / (tight * tight)) as u64),
            ..Shape::trips(Agg::Avg, "distance", 0.0).no_precision()
        },
    ];
    let oracle = ScanOracle {
        inputs,
        rows: scale.sales_rows,
    };
    let stats: Vec<(Option<Stat>, ByStore)> = classes.iter().map(|s| oracle.stats(s)).collect();
    let count = scaled(200, &scale).max(10);
    let ops: Vec<Op> = (0..count)
        .map(|i| {
            // Slot 9 of each ten rotates through the three odd shapes.
            let class = if i % 10 == 9 {
                9 + (i / 10) % 3
            } else {
                i % 10
            };
            let mut shape = classes[class];
            if let Some(base) = shape.precision {
                let variant = (i / 10) % HEAVY_VARIANTS;
                shape.precision = Some(base * (1.0 + 0.003 * variant as f64));
            }
            Op {
                class,
                sql: shape.sql(),
                expect: shape.expect(stats[class].0, stats[class].1),
            }
        })
        .collect();
    let mut warm_up: Vec<String> = ops.iter().map(|op| op.sql.clone()).collect();
    warm_up.sort();
    warm_up.dedup();
    Workload {
        name: "kernel_heavy",
        scale,
        sut: SutConfig {
            workers: 2,
            max_concurrent: 1,
            ingest_rows_per_block: scale.batch_rows,
        },
        clients: 1,
        warm_up,
        classes,
        phases: vec![Phase::Queries { ops, fresh: false }],
        batches: Vec::new(),
    }
}

/// Writes beside reads: each round appends one batch to `sales`, then
/// runs every shape once (fresh: the delta-resume path) and eighteen
/// more (warm) — 24 queries a round.
fn ingest_mixed(scale: Scale, inputs: &Inputs) -> Workload {
    let classes = ingest_shapes(scale.sales_rows);
    let mut running: Vec<ByStore> = classes
        .iter()
        .map(|shape| {
            let mut by_store = ByStore::default();
            sales_scan(
                &inputs.sales,
                0..scale.sales_rows,
                shape.pred,
                &mut by_store,
            );
            by_store
        })
        .collect();
    let mut phases = Vec::new();
    let mut batches = Vec::new();
    for round in 0..scale.rounds {
        let start = scale.sales_rows + round * scale.batch_rows;
        let range = start..start + scale.batch_rows;
        for (shape, by_store) in classes.iter().zip(&mut running) {
            sales_scan(&inputs.sales, range.clone(), shape.pred, by_store);
        }
        batches.push(inputs.sales.rows(range));
        phases.push(Phase::Ingest { batch: round });
        let expects: Vec<Expect> = classes
            .iter()
            .zip(&running)
            .map(|(shape, by_store)| shape.expect(None, *by_store))
            .collect();
        let all = ops_cycling(&classes, 24, &expects);
        let (fresh, warm) = all.split_at(classes.len());
        phases.push(Phase::Queries {
            ops: fresh.to_vec(),
            fresh: true,
        });
        phases.push(Phase::Queries {
            ops: warm.to_vec(),
            fresh: false,
        });
    }
    Workload {
        name: "ingest_mixed",
        scale,
        sut: SutConfig {
            workers: 2,
            max_concurrent: 2,
            ingest_rows_per_block: scale.batch_rows,
        },
        clients: 2,
        warm_up: classes.iter().map(Shape::sql).collect(),
        classes,
        phases,
        batches,
    }
}

/// The scale a workload runs at.
pub fn scale_of(name: &str, smoke: bool) -> Scale {
    match (smoke, name) {
        (true, _) => Scale::SMOKE,
        (false, "kernel_heavy") => Scale::HEAVY,
        (false, _) => Scale::BASE,
    }
}

/// Rows `sales` must hold for the workload: the base table plus, for
/// `ingest_mixed`, every batch.
pub fn sales_total(name: &str, scale: &Scale) -> usize {
    match name {
        "ingest_mixed" => scale.sales_rows + scale.rounds * scale.batch_rows,
        _ => scale.sales_rows,
    }
}

/// Generates the inputs of the named workload and builds it; also
/// returns the generation and oracle times, which no metric includes.
pub fn prepare(name: &str, seed: u64, smoke: bool) -> Option<(Inputs, Workload, f64, f64)> {
    let scale = scale_of(name, smoke);
    let t = std::time::Instant::now();
    let inputs = Inputs::generate(&scale, sales_total(name, &scale), seed);
    let gen_s = t.elapsed().as_secs_f64();
    let t = std::time::Instant::now();
    let workload = build(name, scale, &inputs)?;
    Some((inputs, workload, gen_s, t.elapsed().as_secs_f64()))
}

/// Builds the named workload over `inputs` (computing every reference).
pub fn build(name: &str, scale: Scale, inputs: &Inputs) -> Option<Workload> {
    Some(match name {
        "dashboard_warm" => dashboard_warm(scale, inputs),
        "adhoc_cold" => adhoc_cold(scale, inputs),
        "kernel_heavy" => kernel_heavy(scale, inputs),
        "ingest_mixed" => ingest_mixed(scale, inputs),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(value: f64, groups: &[(f64, f64)]) -> Result<Answer, String> {
        Ok(Answer {
            value,
            groups: groups.to_vec(),
            samples_used: Some(1),
        })
    }

    #[test]
    fn sql_text_covers_every_clause() {
        assert_eq!(
            Shape::trips(Agg::Avg, "tip", 0.1).sql(),
            "SELECT AVG(tip) FROM trips WITH PRECISION 0.1"
        );
        assert_eq!(
            Shape::sales(Agg::Avg, 0.6)
                .margin_gt(20.0)
                .and_store1()
                .sql(),
            "SELECT AVG(amount) FROM sales WHERE margin > 20 AND store = 1 WITH PRECISION 0.6"
        );
        assert_eq!(
            Shape::sales(Agg::Sum, 0.5).grouped().sql(),
            "SELECT SUM(amount) FROM sales GROUP BY store WITH PRECISION 0.5"
        );
        assert_eq!(
            Shape::sales(Agg::Max, 0.0).ts_gt(7.0).exact().sql(),
            "SELECT MAX(amount) FROM sales WHERE ts > 7 METHOD EXACT"
        );
        assert_eq!(
            Shape::trips(Agg::Count, "distance", 0.0)
                .no_precision()
                .sql(),
            "SELECT COUNT(*) FROM trips"
        );
    }

    #[test]
    fn judging_follows_the_rules() {
        let stat = Stat::of(&[10.0, 20.0, 30.0, 40.0]);
        // AVG at e = 1: inside e counts as covered, beyond 5e fails.
        let avg = Shape::trips(Agg::Avg, "distance", 1.0).expect(Some(stat), ByStore::default());
        let v = judge(&avg, &answer(25.5, &[]));
        assert_eq!((v.failed, v.err_ratios.clone()), (false, vec![0.5]));
        let v = judge(&avg, &answer(29.9, &[]));
        assert!(!v.failed && (v.err_ratios[0] - 4.9).abs() < 1e-12);
        assert!(judge(&avg, &answer(30.1, &[])).failed);
        assert!(judge(&avg, &answer(f64::NAN, &[])).failed);
        assert!(judge(&avg, &Err("overloaded".into())).failed);
        // Exact: 1e-9 relative.
        let exact = Shape::trips(Agg::Avg, "distance", 0.0)
            .exact()
            .expect(Some(stat), ByStore::default());
        assert!(!judge(&exact, &answer(25.0 + 1e-12, &[])).failed);
        assert!(judge(&exact, &answer(25.0 + 1e-6, &[])).failed);
        assert!(judge(&exact, &answer(25.0, &[])).err_ratios.is_empty());
        // Unfiltered SUM: 5e × rows.
        let sum = Shape::trips(Agg::Sum, "fare", 1.0).expect(Some(stat), ByStore::default());
        assert!(!judge(&sum, &answer(100.0 + 19.9, &[])).failed);
        assert!(judge(&sum, &answer(100.0 + 20.1, &[])).failed);
        // Sampled MAX is a lower bound above the mean.
        let by_store = [Stat::of(&[1.0, 9.0]), Stat::of(&[5.0])];
        let max = Shape::sales(Agg::Max, 0.5).expect(None, by_store);
        assert!(!judge(&max, &answer(8.0, &[])).failed);
        assert!(judge(&max, &answer(9.5, &[])).failed);
        assert!(judge(&max, &answer(4.0, &[])).failed);
    }

    #[test]
    fn grouped_answers_are_judged_per_group() {
        let by_store = [Stat::of(&[10.0, 12.0]), Stat::of(&[20.0, 22.0, 24.0])];
        let shape = Shape::sales(Agg::Avg, 1.0).grouped();
        let expect = shape.expect(None, by_store);
        assert_eq!(expect.groups.len(), 2);
        assert_eq!(expect.total.value, 88.0 / 5.0);
        let v = judge(&expect, &answer(17.6, &[(0.0, 11.5), (1.0, 22.0)]));
        assert!(!v.failed);
        // Two group answers feed the quality metrics, the headline none.
        assert_eq!(v.err_ratios, vec![0.5, 0.0]);
        assert!(judge(&expect, &answer(17.6, &[(0.0, 11.0)])).failed);
        assert!(judge(&expect, &answer(17.6, &[(0.0, 11.0), (2.0, 22.0)])).failed);
        assert!(judge(&expect, &answer(17.6, &[(0.0, 11.0), (1.0, 28.0)])).failed);
        // `AND store = 1` keeps one store and no groups.
        let only1 = Shape::sales(Agg::Avg, 1.0)
            .and_store1()
            .expect(None, by_store);
        assert_eq!((only1.total.value, only1.groups.len()), (22.0, 0));
        // Estimated COUNT: 5 %.
        let count = Shape::sales(Agg::Count, 0.0)
            .margin_gt(1.0)
            .no_precision()
            .expect(None, by_store);
        assert_eq!(count.total.value, 5.0);
        assert!(!judge(&count, &answer(5.2, &[])).failed);
        assert!(judge(&count, &answer(5.3, &[])).failed);
    }

    #[test]
    fn workloads_have_their_declared_structure() {
        let scale = Scale::SMOKE;
        for name in NAMES {
            let inputs = Inputs::generate(&scale, sales_total(name, &scale), 3);
            let w = build(name, scale, &inputs).expect("known workload");
            assert_eq!(w.name, name);
            assert!(w.query_count() > 0);
            assert!(w.clients <= 2);
            for phase in &w.phases {
                if let Phase::Queries { ops, .. } = phase {
                    assert!(ops.iter().all(|op| op.class < w.classes.len()));
                }
            }
        }
        let inputs = Inputs::generate(&scale, sales_total("ingest_mixed", &scale), 3);
        let w = build("ingest_mixed", scale, &inputs).expect("known workload");
        assert_eq!(w.ingest_count(), scale.rounds);
        assert_eq!(w.query_count(), 24 * scale.rounds);
        assert_eq!(w.batches[0].len(), scale.batch_rows);
        // References grow with the table.
        let counts: Vec<f64> = w
            .phases
            .iter()
            .filter_map(|p| match p {
                Phase::Queries { ops, fresh: true } => Some(ops[3].expect.total.value),
                _ => None,
            })
            .collect();
        assert!(counts.windows(2).all(|w| w[1] > w[0]));
        assert!(build("nope", scale, &inputs).is_none());
    }

    #[test]
    fn concurrent_first_queries_never_share_a_pre_estimate() {
        // Two shapes with one pre-estimate key (same table, column,
        // filter, grouping, precision, confidence) racing after an append
        // would make `samples_used` depend on who ran first.
        let scale = Scale::SMOKE;
        for name in ["dashboard_warm", "ingest_mixed"] {
            let inputs = Inputs::generate(&scale, sales_total(name, &scale), 3);
            let w = build(name, scale, &inputs).expect("known workload");
            let precise: Vec<String> = w
                .classes
                .iter()
                .filter(|c| c.precision.is_some() && c.agg != Agg::Max)
                .map(|c| {
                    let mut key = *c;
                    key.agg = Agg::Avg;
                    key.sql()
                })
                .collect();
            let distinct: std::collections::HashSet<&String> = precise.iter().collect();
            assert_eq!(
                distinct.len(),
                precise.len(),
                "{name}: two shapes share a key"
            );
        }
    }

    #[test]
    fn adhoc_ops_never_repeat_a_query() {
        let texts: std::collections::HashSet<String> = (0..1_600)
            .map(|i| adhoc_op(i, &Scale::BASE).1.sql())
            .collect();
        assert_eq!(texts.len(), 1_600);
    }
}
