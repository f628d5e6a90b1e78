//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! isla-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                [--smoke] [--out FILE] [--trace-out FILE] [--spec FILE]
//! isla-benchmark compare A.json B.json [--spec FILE]
//! ```
//!
//! Without `--workload` every workload runs in turn. The last line of
//! each workload's output is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`. The exit code is non-zero on a correctness
//! failure.

mod compare;
mod gen;
mod report;
mod run;
mod span;
mod spec;
mod stats;
mod sut;
mod trace;
mod workload;

use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    trace_out: Option<String>,
    spec: String,
    positional: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: None,
        trace_out: None,
        spec: "BENCHMARK.json".to_string(),
        positional: Vec::new(),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                // `--trace 0|1` (driver form) or bare `--trace`.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("--out")?),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--spec" => args.spec = value("--spec")?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("isla-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.positional.first().map(String::as_str) == Some("compare") {
        return match args.positional.as_slice() {
            [_, a, b] => compare::run(&args.spec, a, b),
            _ => {
                eprintln!("usage: isla-benchmark compare A.json B.json [--spec FILE]");
                ExitCode::from(2)
            }
        };
    }
    if !args.positional.is_empty() {
        eprintln!(
            "isla-benchmark: unexpected argument {:?}",
            args.positional[0]
        );
        return ExitCode::from(2);
    }
    let names: Vec<&'static str> = match &args.workload {
        None => workload::NAMES.to_vec(),
        Some(name) => match workload::NAMES.iter().find(|n| *n == name) {
            Some(n) => vec![*n],
            None => {
                eprintln!(
                    "isla-benchmark: unknown workload {name}; known: {:?}",
                    workload::NAMES
                );
                return ExitCode::from(2);
            }
        },
    };
    // `--smoke` also validates the output schema against BENCHMARK.json.
    let spec = if args.smoke {
        match spec::Spec::load(&args.spec).and_then(|s| s.check_against_binary().map(|()| s)) {
            Ok(spec) => Some(spec),
            Err(e) => {
                eprintln!("isla-benchmark: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    // One trial in smoke mode; otherwise `--seconds` of them and at least
    // three, so that medians exist and trial 1 can replay trial 0.
    let (min_trials, seconds) = if args.smoke {
        (1, 0.0)
    } else {
        (3, args.seconds)
    };
    let mut correct = true;
    let mut documents = Vec::new();
    for name in names {
        let (ok, document) = if args.trace {
            let traced = trace::run(name, args.seed, seconds, args.smoke);
            let path = args
                .trace_out
                .clone()
                .unwrap_or_else(|| format!("benchmark/out/trace-{name}.json"));
            report::traced(&traced, &path)
        } else {
            let result = run::run_workload(name, args.seed, seconds, args.smoke, min_trials);
            report::end_to_end(&result)
        };
        if let Some(spec) = &spec {
            if let Err(e) = report::validate(&document, spec, args.trace) {
                eprintln!("isla-benchmark: schema check failed for {name}: {e}");
                correct = false;
            }
        }
        correct &= ok;
        documents.push((name, document));
    }
    if let Some(path) = &args.out {
        if let Err(e) = report::write_document(path, &args, documents) {
            eprintln!("isla-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
