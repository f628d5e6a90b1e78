//! A tiny interactive shell over the query layer (paper Section II-C's
//! query interface).
//!
//! Registers five demo tables and reads queries from stdin. When stdin
//! is not a terminal (or `--script` is passed), it runs a scripted demo
//! instead, so the example is exercisable in CI.
//!
//! ```text
//! cargo run --release --example query_shell
//! isla> SELECT AVG(trip_distance) FROM trips WITH PRECISION 10
//! isla> SELECT AVG(salary) FROM census METHOD US SAMPLES 20000
//! isla> SELECT COUNT(*) FROM lineitem
//! ```

use std::io::{BufRead, IsTerminal, Write};

use isla::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    // Scaled-down evaluation datasets; see isla-datagen for provenance.
    let trips = isla::datagen::tlc::tlc_dataset_sized(400_000, 10, 1);
    catalog.register(
        "trips",
        Table::new(vec![("trip_distance", trips.blocks.clone())]),
    );
    let census = isla::datagen::salary::salary_dataset_sized(299_285, 10, 2);
    catalog.register(
        "census",
        Table::new(vec![("salary", census.blocks.clone())]),
    );
    let lineitem = isla::datagen::tpch::lineitem_column_dataset(
        isla::datagen::tpch::LineitemColumn::ExtendedPrice,
        600_000,
        10,
        3,
    );
    catalog.register(
        "lineitem",
        Table::new(vec![("l_extendedprice", lineitem.blocks.clone())]),
    );
    // A schema-aware multi-column table: amount per region, with a
    // correlated margin — the predicate / GROUP BY demo.
    let sales = isla::datagen::three_region_dataset(300_000, 10, 4);
    catalog.register("sales", Table::from_rows(sales.schema, sales.blocks));
    // A meter log range-partitioned on `ts` (the row id): ten blocks of
    // 30 000 rows, so a `ts` range filter leaves only the block its cut
    // falls in undecided.
    let rows = 300_000;
    let ts: Vec<f64> = (0..rows).map(|i| i as f64).collect();
    let load = isla::datagen::normal_values(60.0, 15.0, rows, 5);
    catalog.register(
        "meter",
        Table::from_rows(
            Schema::new(vec![ColumnDef::float("ts"), ColumnDef::float("load")]),
            RowsBlock::split(vec![ts, load], 10),
        ),
    );
    catalog
}

fn run_one(line: &str, catalog: &Catalog, rng: &mut StdRng) {
    match isla::query::parse(line) {
        Ok(query) => match isla::query::execute(&query, catalog, rng) {
            Ok(result) => {
                println!(
                    "  {:?} = {:.4}   [{:?}, {} rows{}{}{}, {:.1} ms]",
                    result.agg,
                    result.value,
                    result.method,
                    result.rows,
                    match result.matched_rows {
                        Some(m) => format!(", ≈{m:.0} matched"),
                        None => String::new(),
                    },
                    match result.samples_used {
                        Some(s) => format!(", {s} samples"),
                        None => String::new(),
                    },
                    if result.time_limited {
                        ", time-limited"
                    } else {
                        ""
                    },
                    result.elapsed.as_secs_f64() * 1e3
                );
                if let Some(groups) = &result.groups {
                    for g in groups {
                        println!(
                            "    group {:>6} : {:>12.4}  (≈{:.0} rows)",
                            g.key, g.value, g.rows
                        );
                    }
                }
            }
            Err(e) => println!("  error: {e}"),
        },
        Err(e) => println!("  error: {e}"),
    }
}

fn main() {
    let catalog = build_catalog();
    let mut rng = StdRng::seed_from_u64(1234);
    let scripted = std::env::args().any(|a| a == "--script") || !std::io::stdin().is_terminal();

    println!("ISLA query shell — tables: {:?}", catalog.table_names());
    println!("grammar: SELECT AVG(col)|SUM(col)|MAX(col)|MIN(col)|COUNT(*) FROM table");
    println!("         [WHERE col (>|<|>=|<=|=|!=) lit [AND ...]] [GROUP BY col]");
    println!("         [WITH PRECISION e] [CONFIDENCE b] [METHOD m] [SAMPLES n] [WITHIN t MS]");
    println!();

    if scripted {
        let demo = [
            "SELECT COUNT(*) FROM trips",
            // Exact from the block sketches: no sample drawn.
            "SELECT AVG(trip_distance) FROM trips WITH PRECISION 25",
            // The paper's pilots and Algorithms 1–2.
            "SELECT AVG(trip_distance) FROM trips WITH PRECISION 25 METHOD ISLA",
            "SELECT AVG(trip_distance) FROM trips METHOD EXACT",
            "SELECT AVG(salary) FROM census METHOD US SAMPLES 20000",
            "SELECT AVG(salary) FROM census METHOD MV SAMPLES 20000",
            "SELECT SUM(l_extendedprice) FROM lineitem WITH PRECISION 200",
            "SELECT AVG(l_extendedprice) FROM lineitem WITH PRECISION 100 WITHIN 2000 MS",
            "SELECT MAX(l_extendedprice) FROM lineitem",
            "SELECT MAX(l_extendedprice) FROM lineitem METHOD EXACT",
            // The row model: predicates and grouping over `sales`.
            "SELECT AVG(x) FROM sales WHERE y > 50 WITH PRECISION 0.5",
            "SELECT AVG(x) FROM sales WHERE y > 50 GROUP BY region WITH PRECISION 0.5",
            "SELECT AVG(x) FROM sales WHERE y > 50 GROUP BY region METHOD EXACT",
            "SELECT SUM(x) FROM sales WHERE y > 50 AND region != 2 WITH PRECISION 0.5",
            "SELECT COUNT(*) FROM sales WHERE y > 50",
            "SELECT COUNT(*) FROM sales WHERE y > 50 GROUP BY region",
            // Estimated from the hit rate of 10 000 row draws.
            "SELECT COUNT(*) FROM sales WHERE y > 50 SAMPLES 10000",
            // A baseline and a sampled extreme over the matching rows.
            "SELECT AVG(x) FROM sales WHERE y > 50 METHOD US SAMPLES 20000",
            "SELECT MAX(x) FROM sales WHERE y > 50",
            // Exact from the per-key block sketches: no sample drawn.
            "SELECT AVG(x) FROM sales GROUP BY region WITH PRECISION 0.5",
            "SELECT COUNT(*) FROM sales GROUP BY region",
            // A cut inside block 5: the default answers blocks 6–9 from
            // their sketches and samples block 5 alone; the named method
            // samples every block.
            "SELECT AVG(load) FROM meter WHERE ts > 175000 WITH PRECISION 0.1",
            "SELECT AVG(load) FROM meter WHERE ts > 175000 WITH PRECISION 0.1 METHOD ISLA",
            "SELECT SUM(load) FROM meter WHERE ts > 175000 WITH PRECISION 0.1",
            "SELECT SUM(load) FROM meter WHERE ts > 175000 WITH PRECISION 0.1 METHOD ISLA",
            // Refused with a typed error: two clauses that size one draw,
            // and a grouping the extremes cannot answer.
            "SELECT AVG(x) FROM sales WHERE y > 50 WITH PRECISION 0.5 SAMPLES 1000",
            "SELECT MAX(x) FROM sales GROUP BY region",
        ];
        for line in demo {
            println!("isla> {line}");
            run_one(line, &catalog, &mut rng);
        }
        return;
    }

    let stdin = std::io::stdin();
    loop {
        print!("isla> ");
        std::io::stdout().flush().expect("stdout flush");
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                if line.eq_ignore_ascii_case("quit") || line.eq_ignore_ascii_case("exit") {
                    break;
                }
                run_one(line, &catalog, &mut rng);
            }
            Err(e) => {
                eprintln!("stdin error: {e}");
                break;
            }
        }
    }
}
