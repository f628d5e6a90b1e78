//! The calibration grid: does each answer path keep the `(e, β)`
//! promise its query makes?
//!
//! Every trial runs on a fresh [`QueryService`] whose `pilot_seed` is
//! the trial number, so no two trials share a pilot. A cell's coverage
//! is the share of its trials whose answer lies within `e` of the exact
//! answer, and a cell *holds* when that share is at least `β − tol`,
//! with `tol` three binomial standard errors at the cell's trial count.
//!
//! Cells the current code does not hold are named in [`KNOWN_FAILING`]
//! and asserted to still fail, so a fix flips them on purpose and no
//! cell leaves the grid quietly. Every cell's coverage, median
//! `|error|/e` and mean samples print with `--nocapture`.

use isla::datagen::{exponential_dataset, normal_dataset, uniform_dataset, Dataset};
use isla::prelude::*;
use isla::query::{Method, QueryService, ServiceConfig};
use isla::storage::ColumnDef;

/// Independent pilots (one fresh service each) per cell.
const TRIALS: u64 = 200;
/// The confidence every cell asks for (the query default).
const BETA: f64 = 0.95;

/// Cells the code fails today, by name. Every scalar `METHOD ISLA` cell
/// under-covers (0.84–0.90 here, 0.26 on the exponential column): the
/// pilot's `sketch0` and Algorithm 2's answer carry error the interval
/// does not, and on skewed data the §VII-B clamp pins the answer near
/// `sketch0 − 2e`. `METHOD US` at the same samples holds on every
/// column.
const KNOWN_FAILING: &[&str] = &[
    "isla/normal",
    "isla/exponential",
    "isla/uniform",
    "isla/offset",
];

/// Three binomial standard errors of a share `p` over `n` trials.
fn tolerance(p: f64, n: u64) -> f64 {
    3.0 * (p * (1.0 - p) / n as f64).sqrt()
}

/// One cell's trials: `(error, samples)` per trial, judged against `e`.
struct Cell {
    name: String,
    e: f64,
    errors: Vec<f64>,
    samples: Vec<u64>,
}

impl Cell {
    fn new(name: String, e: f64) -> Self {
        Self {
            name,
            e,
            errors: Vec::new(),
            samples: Vec::new(),
        }
    }

    fn push(&mut self, error: f64, samples: Option<u64>) {
        self.errors.push(error);
        self.samples.push(samples.unwrap_or(0));
    }

    fn coverage(&self) -> f64 {
        let hits = self.errors.iter().filter(|err| err.abs() <= self.e).count();
        hits as f64 / self.errors.len() as f64
    }

    fn holds(&self) -> bool {
        self.coverage() >= BETA - tolerance(BETA, self.errors.len() as u64)
    }

    /// Prints the cell's row and asserts its verdict against
    /// [`KNOWN_FAILING`].
    fn judge(&self) {
        let mut ratios: Vec<f64> = self.errors.iter().map(|err| err.abs() / self.e).collect();
        ratios.sort_by(f64::total_cmp);
        let mean_samples = self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64;
        eprintln!(
            "{:<22} coverage {:.3}  median |err|/e {:.3}  mean samples {:.0}",
            self.name,
            self.coverage(),
            ratios[ratios.len() / 2],
            mean_samples
        );
        let known = KNOWN_FAILING.contains(&self.name.as_str());
        assert_eq!(
            self.holds(),
            !known,
            "{}: coverage {:.3} (known failing: {known}) — a fix flips a named cell on purpose",
            self.name,
            self.coverage()
        );
    }
}

/// A fresh single-worker service holding `table`, its pilots seeded by
/// `trial`.
fn service(trial: u64, name: &str, table: Table) -> QueryService {
    let service = QueryService::new(ServiceConfig {
        workers: 1,
        max_concurrent: 1,
        queue_depth: 1,
        pilot_seed: trial,
        ..ServiceConfig::default()
    });
    service.register_table(name, table);
    service
}

/// The scalar cells of one column: the default query (answered from
/// the block sketches), a named `METHOD ISLA`, and `METHOD US` at the
/// samples ISLA spent on the same trial.
fn scalar_cells(column: &str, data: Dataset, e: f64) {
    let table = Table::new(vec![("x", data.blocks)]);
    let truth = data.true_mean;
    let mut default = Cell::new(format!("default/{column}"), e);
    let mut isla = Cell::new(format!("isla/{column}"), e);
    let mut us = Cell::new(format!("us/{column}"), e);
    for trial in 0..TRIALS {
        let service = service(trial, "c", table.clone());
        let ask = |sql: &str| service.query("calibration", sql, trial).unwrap();
        let answer = ask(&format!("SELECT AVG(x) FROM c WITH PRECISION {e}"));
        assert!(
            (answer.value - truth).abs() <= 1e-9 * truth.abs(),
            "default/{column} trial {trial}: {} vs exact {truth}",
            answer.value
        );
        assert_eq!(answer.samples_used, Some(0), "default/{column}");
        default.push(answer.value - truth, answer.samples_used);

        let answer = ask(&format!(
            "SELECT AVG(x) FROM c WITH PRECISION {e} METHOD ISLA"
        ));
        assert_eq!(answer.method, Method::Isla);
        let n = answer.samples_used.unwrap();
        isla.push(answer.value - truth, answer.samples_used);

        let answer = ask(&format!("SELECT AVG(x) FROM c METHOD US SAMPLES {n}"));
        us.push(answer.value - truth, answer.samples_used);
    }
    assert_eq!(default.coverage(), 1.0);
    for cell in [&default, &isla, &us] {
        cell.judge();
    }
}

#[test]
fn normal_column() {
    scalar_cells("normal", normal_dataset(100.0, 20.0, 160_000, 16, 1), 1.0);
}

#[test]
fn exponential_column() {
    scalar_cells(
        "exponential",
        exponential_dataset(1.0 / 3.0, 160_000, 16, 2),
        0.15,
    );
}

#[test]
fn uniform_column() {
    scalar_cells("uniform", uniform_dataset(1.0, 199.0, 160_000, 16, 3), 3.0);
}

/// 1e7 + N(0, 1): a plain-sum variance `Σa² − (Σa)²/n` cancels here
/// (σ̂ ≈ 0.74), and the mean is still exact from the sketches.
#[test]
fn large_offset_column() {
    scalar_cells("offset", normal_dataset(1e7, 1.0, 160_000, 16, 4), 0.05);
}

/// A two-column table whose `margin` spreads over `[0, 100)`.
fn sales() -> Table {
    let n = 100_000;
    let amount = isla::datagen::normal_values(50.0, 10.0, n, 5);
    let margin: Vec<f64> = (0..n as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64 * 100.0)
        .collect();
    Table::from_rows(
        Schema::new(vec![ColumnDef::float("amount"), ColumnDef::float("margin")]),
        RowsBlock::split(vec![amount, margin], 8),
    )
}

/// The threshold of trial `trial`: spread over the margin range.
fn threshold(trial: u64) -> f64 {
    (trial.wrapping_mul(0xD1B5_4A32_D192_ED03) >> 11) as f64 / (1u64 << 53) as f64 * 100.0
}

#[test]
fn default_count_where_is_the_exact_count() {
    let service = service(0, "sales", sales());
    for trial in 0..TRIALS {
        let t = threshold(trial);
        let ask = |sql: String| service.query("calibration", &sql, trial).unwrap();
        let exact = ask(format!(
            "SELECT COUNT(*) FROM sales WHERE margin > {t} METHOD EXACT"
        ));
        let default = ask(format!("SELECT COUNT(*) FROM sales WHERE margin > {t}"));
        assert_eq!(default.value, exact.value, "threshold {t}");
        assert_eq!(default.samples_used, None);
    }
}

/// `WITH PRECISION h` sizes the count's draw so its half-width is `h`
/// rows at `β`.
#[test]
fn count_with_precision_covers_its_half_width() {
    let h = 700.0;
    let table = sales();
    let mut cell = Cell::new("count/precision".to_string(), h);
    for trial in 0..TRIALS {
        let service = service(trial, "sales", table.clone());
        let t = threshold(trial);
        let ask = |sql: String| service.query("calibration", &sql, trial).unwrap();
        let exact = ask(format!(
            "SELECT COUNT(*) FROM sales WHERE margin > {t} METHOD EXACT"
        ));
        let approx = ask(format!(
            "SELECT COUNT(*) FROM sales WHERE margin > {t} WITH PRECISION {h}"
        ));
        cell.push(approx.value - exact.value, approx.samples_used);
    }
    cell.judge();
}

/// `amount` ~ N(50, 10²) keyed by a `store` in {0, 1}, skewed 2:1.
fn stores() -> Table {
    let n = 120_000;
    let amount = isla::datagen::normal_values(50.0, 10.0, n, 6);
    let store: Vec<f64> = (0..n).map(|i| f64::from(u8::from(i % 3 == 0))).collect();
    Table::from_rows(
        Schema::new(vec![
            ColumnDef::float("amount"),
            ColumnDef::categorical("store"),
        ]),
        RowsBlock::split(vec![amount, store], 8),
    )
}

/// The grouped cells: each group's answer is one trial of the cell. The
/// default query is read off the per-key block sketches (exact, no
/// draw); a named `METHOD ISLA` samples every group to `e`.
#[test]
fn grouped_cells() {
    let e = 0.5;
    let table = stores();
    let truth: Vec<(f64, f64)> = service(0, "sales", table.clone())
        .query(
            "calibration",
            "SELECT AVG(amount) FROM sales GROUP BY store METHOD EXACT",
            0,
        )
        .unwrap()
        .groups
        .unwrap()
        .iter()
        .map(|g| (g.key, g.value))
        .collect();
    assert_eq!(truth.len(), 2);
    let mut default = Cell::new("default/grouped".to_string(), e);
    let mut isla = Cell::new("isla/grouped".to_string(), e);
    for trial in 0..TRIALS {
        let service = service(trial, "sales", table.clone());
        for (cell, tail) in [(&mut default, ""), (&mut isla, " METHOD ISLA")] {
            let answer = service
                .query(
                    "calibration",
                    &format!(
                        "SELECT AVG(amount) FROM sales GROUP BY store WITH PRECISION {e}{tail}"
                    ),
                    trial,
                )
                .unwrap();
            let groups = answer.groups.unwrap();
            assert_eq!(groups.len(), truth.len());
            for (g, &(key, exact)) in groups.iter().zip(&truth) {
                assert_eq!(g.key, key);
                cell.push(g.value - exact, answer.samples_used);
            }
        }
    }
    assert_eq!(default.coverage(), 1.0);
    assert!(default.samples.iter().all(|&n| n == 0), "no draw");
    for cell in [&default, &isla] {
        cell.judge();
    }
}

/// A table range-partitioned on `ts` (the row id): eight blocks of
/// 15 000 rows, `amount` ~ 40 + 20·ts/n + N(0, 10²) drifting with `ts`,
/// `store` in {0, 1, 2}. A `ts` range filter leaves the block its cut
/// falls in undecided and decides every other block.
fn timeline() -> Table {
    let n = 120_000;
    let noise = isla::datagen::normal_values(0.0, 10.0, n, 7);
    let ts: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let amount = ts
        .iter()
        .zip(&noise)
        .map(|(t, e)| 40.0 + 20.0 * t / n as f64 + e)
        .collect();
    let store = (0..n).map(|i| (i % 3) as f64).collect();
    Table::from_rows(
        Schema::new(vec![
            ColumnDef::float("ts"),
            ColumnDef::float("amount"),
            ColumnDef::categorical("store"),
        ]),
        RowsBlock::split(vec![ts, amount, store], 8),
    )
}

/// The range-filtered cells: `ts > t` with the cut `t` inside a block
/// (a different one each trial), ungrouped and by `store`. The default
/// query answers the blocks the zone map decides exactly and samples
/// only the cut block; its named `METHOD ISLA` twin samples every block.
#[test]
fn range_filtered_cells() {
    let e = 0.5;
    let table = timeline();
    let mut cells = [
        Cell::new("default/range-filtered".to_string(), e),
        Cell::new("isla/range-filtered".to_string(), e),
        Cell::new("default/range-grouped".to_string(), e),
        Cell::new("isla/range-grouped".to_string(), e),
    ];
    for trial in 0..TRIALS {
        // A cut between 10% and 90% of the rows, off every block edge.
        let t = (12_000.0 + threshold(trial) * 960.0).floor() + 0.5;
        // Each form on a service of its own, so each pays its pilots.
        let ask = |sql: String| {
            service(trial, "timeline", table.clone())
                .query("calibration", &sql, trial)
                .unwrap()
        };
        for (at, by) in [(0, ""), (2, " GROUP BY store")] {
            let base = format!("SELECT AVG(amount) FROM timeline WHERE ts > {t}{by}");
            let exact = ask(format!("{base} METHOD EXACT"));
            for (cell, tail) in [(at, ""), (at + 1, " METHOD ISLA")] {
                let answer = ask(format!("{base} WITH PRECISION {e}{tail}"));
                let cell = &mut cells[cell];
                match (&answer.groups, &exact.groups) {
                    (Some(groups), Some(truth)) => {
                        assert_eq!(groups.len(), truth.len());
                        for (g, want) in groups.iter().zip(truth) {
                            assert_eq!(g.key, want.key);
                            cell.push(g.value - want.value, answer.samples_used);
                        }
                    }
                    _ => cell.push(answer.value - exact.value, answer.samples_used),
                }
            }
        }
    }
    let mean = |cell: &Cell| cell.samples.iter().sum::<u64>() as f64 / cell.samples.len() as f64;
    for pair in cells.chunks(2) {
        assert!(
            mean(&pair[0]) < mean(&pair[1]),
            "{} draws {} a query, its named twin {}",
            pair[0].name,
            mean(&pair[0]),
            mean(&pair[1])
        );
    }
    for cell in &cells {
        cell.judge();
    }
}
