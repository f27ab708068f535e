//! CI validator for machine-readable JSON artifacts. Dispatches on the
//! document's `schema` field: `atc-bench-v1` trajectory files are
//! checked for a non-empty result list with the expected keys,
//! `atc-telemetry-v1` documents via
//! [`atc_bench::telemetry::check_telemetry`]. With `--stream` the file
//! is an `atc-telemetry-stream-v1` JSONL time series instead, validated
//! via [`atc_bench::stream::check_stream`] (checksums, contiguous
//! epochs, and exact delta-sum reconciliation against the final
//! cumulative snapshot); `--min-epochs N` additionally requires at
//! least N epoch lines.
//!
//! ```text
//! cargo run -p atc-bench --bin check_bench_json -- BENCH_sim.json
//! cargo run -p atc-bench --bin check_bench_json -- --stream --min-epochs 4 telemetry.jsonl
//! ```

use std::process::ExitCode;

use atc_bench::json::{self, Value};
use atc_bench::stream::check_stream;
use atc_bench::telemetry::{check_telemetry, TELEMETRY_SCHEMA};

fn check(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing \"schema\" string")?;
    if schema == TELEMETRY_SCHEMA {
        check_telemetry(&doc)?;
        let n = doc.get("counters").map_or(0, |c| match c {
            Value::Object(members) => members.len(),
            _ => 0,
        });
        return Ok(format!("{n} counters"));
    }
    if schema != "atc-bench-v1" {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let results = doc
        .get("results")
        .and_then(Value::as_array)
        .ok_or("missing \"results\" array")?;
    if results.is_empty() {
        return Err("\"results\" is empty".to_string());
    }
    for (i, r) in results.iter().enumerate() {
        let name = r
            .get("name")
            .and_then(Value::as_str)
            .ok_or(format!("result {i}: missing \"name\" string"))?;
        for key in ["samples", "min_ns", "median_ns", "mean_ns"] {
            let x = r
                .get(key)
                .and_then(Value::as_f64)
                .ok_or(format!("result {i} ({name}): missing {key:?} number"))?;
            if x < 0.0 || x.is_nan() {
                return Err(format!("result {i} ({name}): {key} = {x} is invalid"));
            }
        }
        // Throughput entries carry both elems and the derived rate, and
        // the rate must be a usable number: a missing key (degenerate
        // 0 ns median), a non-finite value, or a negative one all mean
        // the measurement cannot be trusted.
        if r.get("elems").is_some() {
            let rate = r
                .get("elems_per_s")
                .and_then(Value::as_f64)
                .ok_or(format!("result {i} ({name}): elems without elems_per_s"))?;
            if !rate.is_finite() || rate < 0.0 {
                return Err(format!(
                    "result {i} ({name}): elems_per_s = {rate} is not a finite non-negative rate"
                ));
            }
        }
    }
    check_fault_counters(results)?;
    check_streaming_overhead(results)?;
    Ok(format!("{} results", results.len()))
}

/// Gate attached streaming against the detached baseline. The
/// `sim_throughput` bench records `machine/baseline+streaming` — the
/// same baseline run while a sampler thread drains delta snapshots to a
/// `telemetry.jsonl` — and the design target is ≤3% overhead. The CI
/// gate is deliberately looser (0.8x) and
/// compares best-case `min_ns` rather than the median: CI smokes run
/// with 2 samples, where one scheduler hiccup doubles the median but
/// leaves the minimum intact, and a genuine hot-path regression slows
/// every sample including the fastest. The committed trajectory
/// records the real numbers.
fn check_streaming_overhead(results: &[Value]) -> Result<(), String> {
    let min_ns = |name: &str| {
        results
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some(name))
            .and_then(|r| r.get("min_ns"))
            .and_then(Value::as_f64)
    };
    let (Some(plain), Some(streaming)) = (
        min_ns("machine/baseline"),
        min_ns("machine/baseline+streaming"),
    ) else {
        return Ok(());
    };
    if plain > 0.0 && streaming > plain / 0.8 {
        return Err(format!(
            "machine/baseline+streaming (best {streaming:.0} ns) is over 1.25x the detached \
             baseline (best {plain:.0} ns) — streaming attachment regressed the hot path"
        ));
    }
    Ok(())
}

/// Gate the deterministic fault-exercise counters emitted by the
/// `harness_scaling` bench. The exercise is fully deterministic (fixed
/// job sets, attempt-keyed failures, hand-built file damage), so each
/// counter — encoded with `elems_per_s` holding the count itself — must
/// match its exact expected value when present; drift means a scheduler
/// retry, deadline-watchdog, or manifest-recovery path regressed.
fn check_fault_counters(results: &[Value]) -> Result<(), String> {
    const EXPECTED: [(&str, f64); 3] = [
        ("harness/retries", 6.0),
        ("harness/timeouts", 1.0),
        ("harness/corrupt_records", 2.0),
    ];
    let lookup = |name: &str| {
        results
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some(name))
    };
    let present = EXPECTED.iter().filter(|(n, _)| lookup(n).is_some()).count();
    if present == 0 {
        return Ok(()); // trajectory predates the fault exercise
    }
    for (name, expected) in EXPECTED {
        let r = lookup(name).ok_or(format!(
            "fault counters are incomplete: {name} missing while others are present"
        ))?;
        let got = r
            .get("elems_per_s")
            .and_then(Value::as_f64)
            .ok_or(format!("{name}: missing elems_per_s"))?;
        if got != expected {
            return Err(format!(
                "{name}: expected exactly {expected}, got {got} — a fault path regressed"
            ));
        }
    }
    Ok(())
}

/// Non-gating worker-scaling report: print suite throughput at 1 vs 4
/// workers and their ratio when both lines exist in the trajectory.
/// Purely informational — single-core CI boxes cannot hit a parallel
/// speedup, so this never affects the exit code.
fn scaling_report(path: &str) {
    let rate = |results: &[Value], name: &str| -> Option<f64> {
        results
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some(name))
            .and_then(|r| r.get("elems_per_s"))
            .and_then(Value::as_f64)
    };
    let parsed = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok());
    let results = parsed
        .as_ref()
        .and_then(|doc| doc.get("results"))
        .and_then(Value::as_array);
    let rates = results.map(|r| (rate(r, "harness/suite_w1"), rate(r, "harness/suite_w4")));
    match rates {
        Some((Some(w1), Some(w4))) if w1 > 0.0 => println!(
            "scaling report (non-gating): suite_w1 {w1:.0} jobs/s, suite_w4 {w4:.0} jobs/s, w4/w1 {:.2}x",
            w4 / w1
        ),
        _ => println!("scaling report (non-gating): suite_w1/suite_w4 not present in {path}"),
    }
}

/// Perf-floor gate: `--min-ratio <name>:<rate>:<mult>` requires the
/// named throughput line's **best-case** rate (elems / min_ns) to be at
/// least `rate × mult`, where `<rate>` is the committed trajectory's
/// elems_per_s and `<mult>` the required multiple (1.0 = no-regression
/// floor). Best-case rather than the median for the same reason as the
/// streaming gate: CI smokes run two samples on loaded boxes, where one
/// scheduler hiccup wrecks the median but leaves the minimum intact,
/// while a genuine hot-path regression slows every sample including the
/// fastest.
fn check_min_ratio(path: &str, spec: &str) -> Result<String, String> {
    let mut parts = spec.rsplitn(3, ':');
    let (mult, rate, name) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(r), Some(n)) => (m, r, n),
        _ => {
            return Err(format!(
                "--min-ratio wants <name>:<rate>:<mult>, got {spec:?}"
            ))
        }
    };
    let base: f64 = rate
        .parse()
        .map_err(|_| format!("--min-ratio: {rate:?} is not a rate"))?;
    let mult: f64 = mult
        .parse()
        .map_err(|_| format!("--min-ratio: {mult:?} is not a multiple"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let results = doc
        .get("results")
        .and_then(Value::as_array)
        .ok_or("missing \"results\" array")?;
    let r = results
        .iter()
        .find(|r| r.get("name").and_then(Value::as_str) == Some(name))
        .ok_or(format!("--min-ratio: no result named {name:?} in {path}"))?;
    let elems = r
        .get("elems")
        .and_then(Value::as_f64)
        .ok_or(format!("{name}: not a throughput line (no elems)"))?;
    let min_ns = r
        .get("min_ns")
        .and_then(Value::as_f64)
        .filter(|&ns| ns > 0.0)
        .ok_or(format!("{name}: invalid min_ns"))?;
    let best = elems / min_ns * 1e9;
    let floor = base * mult;
    if best < floor {
        return Err(format!(
            "{name}: best-case {best:.0} elem/s is below the perf floor {floor:.0} \
             ({base:.0} × {mult}) — the timing core regressed"
        ));
    }
    Ok(format!(
        "{name} best {best:.0} elem/s ≥ floor {floor:.0} ({:.2}x committed)",
        best / base
    ))
}

/// The value following `--min-epochs`, so the positional-path scan can
/// skip it.
fn min_epoch_value(args: &[String]) -> Option<&String> {
    args.iter()
        .position(|a| a == "--min-epochs")
        .and_then(|i| args.get(i + 1))
}

/// The value following `--min-ratio`, likewise skipped by the
/// positional-path scan.
fn min_ratio_value(args: &[String]) -> Option<&String> {
    args.iter()
        .position(|a| a == "--min-ratio")
        .and_then(|i| args.get(i + 1))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let report = args.iter().any(|a| a == "--scaling-report");
    let stream = args.iter().any(|a| a == "--stream");
    let min_epochs = match args.iter().position(|a| a == "--min-epochs") {
        Some(i) => match args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) {
            Some(n) => n,
            None => {
                eprintln!("check_bench_json: --min-epochs takes a number");
                return ExitCode::from(2);
            }
        },
        None => 0,
    };
    let positional = |a: &&String| {
        !a.starts_with("--")
            && Some(*a) != min_epoch_value(&args)
            && Some(*a) != min_ratio_value(&args)
    };
    let Some(path) = args.iter().find(positional) else {
        eprintln!(
            "usage: check_bench_json [--scaling-report] [--stream [--min-epochs N]] \
             [--min-ratio name:rate:mult] <file>"
        );
        return ExitCode::from(2);
    };
    if stream {
        return match std::fs::read_to_string(path)
            .map_err(|e| format!("could not read {path}: {e}"))
            .and_then(|text| check_stream(&text, min_epochs))
        {
            Ok(what) => {
                println!("{path}: ok ({what})");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("check_bench_json: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match check(path) {
        Ok(what) => {
            println!("{path}: ok ({what})");
            if let Some(spec) = min_ratio_value(&args) {
                match check_min_ratio(path, spec) {
                    Ok(msg) => println!("{path}: perf floor ok ({msg})"),
                    Err(e) => {
                        eprintln!("check_bench_json: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if report {
                scaling_report(path);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("check_bench_json: {e}");
            ExitCode::FAILURE
        }
    }
}
