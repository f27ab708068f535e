//! The `atc-telemetry-stream-v1` JSONL schema: checksummed,
//! delta-encoded counter time series.
//!
//! A stream file is one JSON object per line, each line sealed with a
//! whole-line FNV-1a checksum exactly like the v2 job manifest:
//!
//! ```text
//! {"schema":"atc-telemetry-stream-v1","v":1,"cadence_us":50000,"ck":"…"}
//! {"epoch":0,"t_us":50112,"counters":{"harness.jobs_done":3},"ck":"…"}
//! {"epoch":1,"t_us":100254,"counters":{…},"ck":"…"}
//! {"final":true,"epochs":2,"t_us":100260,"counters":{…cumulative…},"ck":"…"}
//! ```
//!
//! * the **header** pins the schema and the sampler cadence;
//! * each **epoch** line carries only the counters that moved since the
//!   previous epoch (signed deltas — gauges decrease);
//! * the single **final** line carries the cumulative snapshot.
//!
//! [`check_stream`] validates structure *and* arithmetic: every line's
//! checksum, contiguous epoch numbering, non-decreasing timestamps, and
//! the telescoping invariant — per-counter delta sums must reproduce the
//! final cumulative snapshot exactly. `check_bench_json --stream` gates
//! CI on it.

use crate::fnv1a;
use crate::json::{self, Value};

/// Schema identifier in the stream header line.
pub const STREAM_SCHEMA: &str = "atc-telemetry-stream-v1";

/// Render `doc` (must be an object) as one sealed line: the object with
/// a trailing `"ck"` member holding the FNV-1a hash of everything
/// before it. The v2 job manifest seals its records with this too.
pub fn seal(doc: &Value) -> String {
    let body = doc.render();
    debug_assert!(body.ends_with('}'), "seal() takes an object");
    let trunk = &body[..body.len() - 1];
    format!("{trunk},\"ck\":\"{:016x}\"}}", fnv1a(trunk.as_bytes()))
}

/// Verify and strip a sealed line's checksum, returning the parsed
/// object.
///
/// # Errors
///
/// A message naming the defect: missing/mismatched checksum or invalid
/// JSON.
pub fn unseal(line: &str) -> Result<Value, String> {
    let at = line.rfind(",\"ck\":\"").ok_or("line has no checksum")?;
    let trunk = &line[..at];
    let want = format!("{trunk},\"ck\":\"{:016x}\"}}", fnv1a(trunk.as_bytes()));
    if want != line {
        return Err("checksum mismatch".to_string());
    }
    json::parse(&format!("{trunk}}}")).map_err(|e| format!("invalid JSON: {e}"))
}

/// The sealed header line for a stream sampled every `cadence_us`
/// microseconds.
pub fn header_line(cadence_us: u64) -> String {
    seal(&Value::Object(vec![
        ("schema".into(), Value::String(STREAM_SCHEMA.into())),
        ("v".into(), Value::Number(1.0)),
        ("cadence_us".into(), Value::Number(cadence_us as f64)),
    ]))
}

/// The sealed line for one epoch of sparse counter deltas at `t_us`
/// microseconds since the sampler started.
pub fn epoch_line(epoch: u64, t_us: u64, counters: &[(&str, i64)]) -> String {
    let members = counters
        .iter()
        .map(|&(n, d)| (n.to_string(), Value::Number(d as f64)))
        .collect();
    seal(&Value::Object(vec![
        ("epoch".into(), Value::Number(epoch as f64)),
        ("t_us".into(), Value::Number(t_us as f64)),
        ("counters".into(), Value::Object(members)),
    ]))
}

/// The sealed final line: cumulative counter values after `epochs`
/// epochs.
pub fn final_line(epochs: u64, t_us: u64, counters: &[(&str, u64)]) -> String {
    let members = counters
        .iter()
        .map(|&(n, v)| (n.to_string(), Value::Number(v as f64)))
        .collect();
    seal(&Value::Object(vec![
        ("final".into(), Value::Bool(true)),
        ("epochs".into(), Value::Number(epochs as f64)),
        ("t_us".into(), Value::Number(t_us as f64)),
        ("counters".into(), Value::Object(members)),
    ]))
}

fn integer(v: &Value, what: &str) -> Result<i64, String> {
    let x = v.as_f64().ok_or(format!("{what} is not a number"))?;
    if x.fract() != 0.0 || x.abs() > 2f64.powi(53) {
        return Err(format!("{what} = {x} is not an exact integer"));
    }
    Ok(x as i64)
}

/// Validate a whole `atc-telemetry-stream-v1` file.
///
/// Checks every line's checksum, the header schema, contiguous epoch
/// numbering from 0, non-decreasing timestamps, that at least
/// `min_epochs` epochs were recorded, that exactly one final line
/// closes the file, and — the point of the format — that per-counter
/// delta sums reproduce the final cumulative snapshot exactly.
///
/// Returns a human-readable summary on success.
///
/// # Errors
///
/// A message naming the first offending line and defect.
pub fn check_stream(text: &str, min_epochs: u64) -> Result<String, String> {
    let mut lines = text.lines().enumerate().filter(|(_, l)| !l.is_empty());
    let (_, header) = lines.next().ok_or("stream is empty")?;
    let header = unseal(header).map_err(|e| format!("line 1 (header): {e}"))?;
    match header.get("schema").and_then(Value::as_str) {
        Some(s) if s == STREAM_SCHEMA => {}
        other => return Err(format!("header schema {other:?}, want {STREAM_SCHEMA:?}")),
    }
    integer(header.get("v").unwrap_or(&Value::Null), "header v")?;
    let cadence = integer(
        header.get("cadence_us").unwrap_or(&Value::Null),
        "header cadence_us",
    )?;
    if cadence < 0 {
        return Err(format!("header cadence_us = {cadence} is negative"));
    }

    let mut sums: Vec<(String, i64)> = Vec::new();
    let mut epochs: u64 = 0;
    let mut last_t: i64 = -1;
    let mut fin: Option<Value> = None;
    for (i, line) in lines {
        let n = i + 1;
        if fin.is_some() {
            return Err(format!("line {n}: content after the final line"));
        }
        let doc = unseal(line).map_err(|e| format!("line {n}: {e}"))?;
        let counters = match doc.get("counters") {
            Some(Value::Object(members)) => members,
            _ => return Err(format!("line {n}: missing \"counters\" object")),
        };
        let t = integer(doc.get("t_us").unwrap_or(&Value::Null), "t_us")
            .map_err(|e| format!("line {n}: {e}"))?;
        if t < last_t {
            return Err(format!("line {n}: t_us {t} went backwards (last {last_t})"));
        }
        last_t = t;
        if doc.get("final") == Some(&Value::Bool(true)) {
            fin = Some(doc.clone());
            continue;
        }
        let e = integer(doc.get("epoch").unwrap_or(&Value::Null), "epoch")
            .map_err(|e| format!("line {n}: {e}"))?;
        if e != epochs as i64 {
            return Err(format!(
                "line {n}: epoch {e}, expected {epochs} (contiguous)"
            ));
        }
        epochs += 1;
        for (name, v) in counters {
            let d = integer(v, &format!("counter {name}")).map_err(|e| format!("line {n}: {e}"))?;
            match sums.iter_mut().find(|(n, _)| n == name) {
                Some((_, s)) => *s += d,
                None => sums.push((name.clone(), d)),
            }
        }
    }
    let fin = fin.ok_or("stream has no final line")?;
    let fin_epochs = integer(fin.get("epochs").unwrap_or(&Value::Null), "final epochs")?;
    if fin_epochs != epochs as i64 {
        return Err(format!(
            "final line claims {fin_epochs} epochs, file has {epochs}"
        ));
    }
    if epochs < min_epochs {
        return Err(format!(
            "only {epochs} epochs recorded, need >= {min_epochs}"
        ));
    }
    let fin_counters = match fin.get("counters") {
        Some(Value::Object(members)) => members,
        _ => return Err("final line: missing \"counters\" object".to_string()),
    };
    // The telescoping check, both directions: every final counter must
    // equal its delta sum, and no delta sum may survive outside the
    // final snapshot.
    for (name, v) in fin_counters {
        let want = integer(v, &format!("final counter {name}"))?;
        let got = sums.iter().find(|(n, _)| n == name).map_or(0, |&(_, s)| s);
        if got != want {
            return Err(format!(
                "counter {name}: delta sum {got} != final cumulative {want}"
            ));
        }
    }
    for (name, s) in &sums {
        if *s != 0 && !fin_counters.iter().any(|(n, _)| n == name) {
            return Err(format!(
                "counter {name}: delta sum {s} but absent from the final snapshot"
            ));
        }
    }
    Ok(format!(
        "{epochs} epochs, {} counters reconciled",
        fin_counters.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stream() -> String {
        let mut out = String::new();
        out.push_str(&header_line(50_000));
        out.push('\n');
        out.push_str(&epoch_line(
            0,
            50_100,
            &[("jobs.done", 3), ("jobs.running", 2)],
        ));
        out.push('\n');
        out.push_str(&epoch_line(
            1,
            100_200,
            &[("jobs.done", 4), ("jobs.running", -2)],
        ));
        out.push('\n');
        out.push_str(&final_line(
            2,
            100_205,
            &[("jobs.done", 7), ("jobs.running", 0)],
        ));
        out.push('\n');
        out
    }

    #[test]
    fn valid_stream_reconciles() {
        let summary = check_stream(&sample_stream(), 2).expect("valid stream");
        assert!(summary.contains("2 epochs"), "{summary}");
    }

    #[test]
    fn seal_round_trips_and_detects_flips() {
        let line = header_line(1000);
        assert!(unseal(&line).is_ok());
        let flipped = line.replace("1000", "1001");
        assert!(unseal(&flipped).unwrap_err().contains("checksum"));
    }

    #[test]
    fn broken_streams_are_rejected() {
        let good = sample_stream();
        // Delta sum mismatch.
        let bad = good.replace("\"jobs.done\":7", "\"jobs.done\":8");
        // Re-seal the tampered final line so only arithmetic fails.
        let mut lines: Vec<&str> = bad.lines().collect();
        let resealed = seal(&unseal_tamper(lines[3]));
        lines[3] = &resealed;
        let err = check_stream(&(lines.join("\n") + "\n"), 1).unwrap_err();
        assert!(err.contains("delta sum"), "{err}");

        // Epoch gap.
        let gap = good.replace("\"epoch\":1", "\"epoch\":2");
        let mut lines: Vec<&str> = gap.lines().collect();
        let resealed = seal(&unseal_tamper(lines[2]));
        lines[2] = &resealed;
        let err = check_stream(&(lines.join("\n") + "\n"), 1).unwrap_err();
        assert!(err.contains("contiguous"), "{err}");

        // Too few epochs.
        let err = check_stream(&good, 5).unwrap_err();
        assert!(err.contains("need >= 5"), "{err}");

        // Missing final line.
        let trunc: Vec<&str> = good.lines().take(3).collect();
        let err = check_stream(&(trunc.join("\n") + "\n"), 1).unwrap_err();
        assert!(err.contains("no final line"), "{err}");
    }

    /// Parse a sealed line ignoring its (now stale) checksum — test
    /// helper for building deliberately tampered-but-resealed lines.
    fn unseal_tamper(line: &str) -> Value {
        let at = line.rfind(",\"ck\":\"").expect("sealed line");
        json::parse(&format!("{}}}", &line[..at])).expect("object")
    }
}
