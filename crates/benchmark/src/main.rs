#![deny(unsafe_code)]

//! The repository benchmark.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out PATH]
//! benchmark --all [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out PATH]
//! benchmark compare A.jsonl B.jsonl
//! ```
//!
//! A run prints one `name value unit` line per metric, then, as the last
//! line of stdout, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Untraced runs report the end-to-end metrics; `--trace`
//! runs report the per-layer metrics and write their spans to
//! `target/benchmark/trace-<workload>.json`. `--seconds` defaults to
//! `run_seconds` in BENCHMARK.json, and the benchmark contract passes it
//! on every run; `--quick` runs the fewest ops instead. `--out` appends
//! the result, tagged with its workload and seed, to a file `compare`
//! reads. `--all` runs every workload in its own process. See README.md.

mod compare;
mod digest;
mod layers;
mod spans;
mod stats;
mod workload;

use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

use atc_bench::json::Value;

use workload::{Outcome, Params, WORKLOADS};

const USAGE: &str = "usage: benchmark --workload NAME|--all [--seed N] [--seconds S] \
[--trace [0|1]] [--quick] [--out PATH]\n       benchmark compare A.jsonl B.jsonl";

/// The benchmark's contract: workloads, metrics, bounds and run length.
const SPEC: &str = include_str!("../../../BENCHMARK.json");

/// `run_seconds` from [`SPEC`].
fn run_seconds() -> Result<f64, String> {
    atc_bench::json::parse(SPEC)?
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("BENCHMARK.json has no numeric run_seconds".into())
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    all: bool,
    params: Params,
    trace: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        params: Params {
            seed: 42,
            seconds: run_seconds()?,
            quick: false,
        },
        trace: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("missing value for {name}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("--workload")?.clone()),
            "--all" => a.all = true,
            "--seed" => {
                let v = value("--seed")?;
                a.params.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                a.params.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                // A bare `--trace` turns tracing on; `--trace 0|1` sets it.
                a.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--quick" => a.params.quick = true,
            "--out" => a.out = Some(value("--out")?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.params.quick {
        a.params.seconds = 0.0;
    }
    match (&a.workload, a.all) {
        (Some(_), true) | (None, false) => Err("give exactly one of --workload or --all".into()),
        (Some(w), false) if workload::find(w).is_none() => {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            Err(format!(
                "unknown workload {w:?}; known: {}",
                known.join(", ")
            ))
        }
        _ => Ok(a),
    }
}

fn result_json(o: &Outcome) -> Vec<(String, Value)> {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            let entry = vec![
                ("value".to_string(), Value::from(m.value)),
                ("unit".to_string(), Value::String(m.unit.to_string())),
            ];
            (m.name.to_string(), Value::Object(entry))
        })
        .collect();
    vec![
        ("correct".into(), Value::Bool(o.correct)),
        ("attempted".into(), Value::Number(o.attempted as f64)),
        ("failed".into(), Value::Number(o.failed as f64)),
        ("metrics".into(), Value::Object(metrics)),
    ]
}

fn run_one(name: &str, a: &Args) -> Result<(), String> {
    let w = workload::find(name).ok_or(format!("unknown workload {name:?}"))?;
    let outcome = if a.trace {
        w.run_traced(&a.params)?
    } else {
        w.run(&a.params)?
    };
    if a.trace {
        let path = workload::bench_dir()?.join(format!("trace-{name}.json"));
        std::fs::write(&path, spans::to_chrome(name, &outcome.spans))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "benchmark: {} spans -> {}",
            outcome.spans.len(),
            path.display()
        );
    }
    for m in &outcome.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    let result = result_json(&outcome);
    if let Some(path) = &a.out {
        let mut tagged = vec![
            ("workload".to_string(), Value::String(name.to_string())),
            ("seed".to_string(), Value::Number(a.params.seed as f64)),
            ("trace".to_string(), Value::Bool(a.trace)),
        ];
        tagged.extend(result.iter().cloned());
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {path}: {e}"))?;
        writeln!(f, "{}", Value::Object(tagged).render())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{}", Value::Object(result).render());
    Ok(())
}

/// `--all`: one child process per workload (each gets its own peak
/// RSS), relaying their output; the last line sums their tallies and
/// prefixes each metric with its workload.
fn run_all(args: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let rest: Vec<&String> = args.iter().filter(|s| *s != "--all").collect();
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut metrics = Vec::new();
    for w in &WORKLOADS {
        let out = Command::new(&exe)
            .arg("--workload")
            .arg(w.name)
            .args(&rest)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let v = atc_bench::json::parse(last)
            .ok()
            .filter(|_| out.status.success())
            .ok_or(format!("workload {} failed ({})", w.name, out.status))?;
        correct &= v.get("correct") == Some(&Value::Bool(true));
        attempted += v.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
        failed += v.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        if let Some(Value::Object(ms)) = v.get("metrics") {
            metrics.extend(
                ms.iter()
                    .map(|(k, m)| (format!("{}/{k}", w.name), m.clone())),
            );
        }
    }
    let summary = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Number(attempted)),
        ("failed".into(), Value::Number(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", summary.render());
    Ok(())
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare needs two result files".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let gates = compare::gates(SPEC)?;
    let a = compare::runs(&read(a)?)?;
    let b = compare::runs(&read(b)?)?;
    let (table, flagged) = compare::compare(&a, &b, &gates);
    print!("{table}");
    Ok(flagged)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match run_compare(&args[1..]) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let parsed = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &parsed.workload {
        Some(name) => run_one(name, &parsed),
        None => run_all(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&args("--workload pr_tempo --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("pr_tempo"));
        assert_eq!((a.params.seed, a.params.seconds, a.trace), (7, 10.0, true));
        let a = parse(&args("--workload pr_tempo --trace 0")).unwrap();
        assert!(!a.trace);
        assert_eq!(a.params.seconds, run_seconds().unwrap());
        let a = parse(&args("--all --trace --quick")).unwrap();
        assert!(a.all && a.trace && a.params.quick);
        assert_eq!(a.params.seconds, 0.0, "--quick runs the fewest ops");
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload pr_tempo --all",
            "--workload pr_tempo --seed x",
            "--workload pr_tempo --seconds -1",
            "--workload pr_tempo --frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} parsed");
        }
    }
}
