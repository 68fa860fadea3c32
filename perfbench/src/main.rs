//! `perfbench --workload NAME --seed N --seconds S --trace 0|1` runs one
//! workload and prints its metrics; `perfbench compare BASE HEAD` reads
//! two files of such outputs and flags regressions.

use std::process::ExitCode;

use serde::Value;

use perfbench::compare::{self, BENCHMARK_JSON};
use perfbench::run::{Bench, Metric, Outcome};
use perfbench::stamp::stamp;
use perfbench::workload;

const USAGE: &str = "usage: perfbench --workload batch|online|large_k --seed N --seconds S --trace 0|1\n       perfbench compare BASE_OUTPUT HEAD_OUTPUT";

struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let at = args.iter().position(|a| a == flag);
        at.and_then(|i| args.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let workload = workload::find(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes a whole number")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn json(v: &Value) -> String {
    serde_json::to_string(v).expect("finite metrics serialize")
}

/// `{"name": {"value": v, "unit": u}, ...}`
fn metrics_object(metrics: &[Metric]) -> Value {
    object(
        metrics
            .iter()
            .map(|m| {
                let v = object(vec![
                    ("value", Value::F64(m.value)),
                    ("unit", Value::Str(m.unit.into())),
                ]);
                (m.name, v)
            })
            .collect(),
    )
}

fn run(a: &Args) -> ExitCode {
    let bench = Bench::new(a.workload, a.seed);
    let Outcome {
        metrics,
        attempted,
        failed,
        samples,
        ungated,
    } = if a.trace {
        bench.per_layer(a.seconds)
    } else {
        bench.end_to_end(a.seconds)
    };
    let error_rate = failed as f64 / attempted as f64;
    for m in metrics.iter().chain(&ungated) {
        eprintln!("{:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "{:<28} {:>14.6} ({failed} of {attempted} calls)",
        "error_rate", error_rate
    );
    let detail = object(vec![
        ("stamp", stamp(a.workload.name, a.workload.k, a.seed)),
        ("trace", Value::U64(u64::from(a.trace))),
        ("error_rate", Value::F64(error_rate)),
        (
            "samples",
            object(
                samples
                    .into_iter()
                    .map(|(k, n)| (k, Value::U64(n)))
                    .collect(),
            ),
        ),
        ("ungated", metrics_object(&ungated)),
    ]);
    println!("{}", json(&object(vec![("perfbench", detail)])));
    let correct = failed == 0;
    println!(
        "{}",
        json(&object(vec![
            ("correct", Value::Bool(correct)),
            ("attempted", Value::U64(attempted)),
            ("failed", Value::U64(failed)),
            ("metrics", metrics_object(&metrics)),
        ]))
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_files(base: &str, head: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|s| compare::parse_runs(&s))
    };
    let specs = compare::specs(BENCHMARK_JSON).expect("BENCHMARK.json is well formed");
    match load(base).and_then(|b| compare::compare(&b, &load(head)?, &specs)) {
        Ok(rows) => {
            print!("{}", compare::render(&rows));
            if rows.iter().any(|r| r.regressed) {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("refused: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [base, head] => compare_files(base, head),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    match parse(&args) {
        Ok(a) => run(&a),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
