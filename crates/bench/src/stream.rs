//! The `atc-telemetry-stream-v1` telemetry stream: checksummed,
//! delta-encoded counter time series, the sampler thread that writes
//! them and the checker that validates them.
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
//!   previous epoch (signed deltas from [`Registry::delta_since`] —
//!   gauges decrease);
//! * the single **final** line carries the cumulative snapshot.
//!
//! The [`Sampler`] is the one writer. Every tick it calls a
//! caller-supplied snapshot closure (for a sweep, relaxed atomic loads of
//! the harness progress counters, so workers never contend with it) and
//! appends one epoch line. On [`stop`](Sampler::stop) it takes one last
//! snapshot, writes its epoch, pads zero-delta epochs up to 4, and
//! closes the file with the final line from the *same* snapshot, so the
//! per-counter delta sums reconcile exactly whatever instant the stop
//! landed on.
//!
//! [`check_stream`] validates structure *and* arithmetic: every line's
//! checksum, the header version, contiguous epoch numbering,
//! non-negative non-decreasing timestamps, and
//! the telescoping invariant — per-counter delta sums must reproduce the
//! final cumulative snapshot exactly. `check_bench_json --stream` gates
//! CI on it.

use std::fs::File;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use atc_obs::Registry;

use crate::fnv1a;
use crate::json::{self, Value};

/// Schema identifier in the stream header line.
pub const STREAM_SCHEMA: &str = "atc-telemetry-stream-v1";

/// Epochs every stream is padded to at stop, so even a run shorter than
/// one cadence passes `check_bench_json --stream --min-epochs 4`.
const MIN_EPOCHS: u64 = 4;

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

/// How often the [`Sampler`] samples and where its stream lands.
#[derive(Debug)]
pub struct StreamOptions {
    /// Sampling period (floored at 1 ms).
    pub cadence: Duration,
    /// Write the `atc-telemetry-stream-v1` JSONL here (truncating).
    /// Without a path the sampler still calls the snapshot closure every
    /// tick, which is how a live progress line runs on its own.
    pub telemetry_path: Option<PathBuf>,
}

/// Handle to the running sampler thread.
#[derive(Debug)]
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<io::Result<u64>>,
}

impl Sampler {
    /// Write the header and start a thread that calls `snapshot` once per
    /// `opts.cadence` and once more at [`stop`](Self::stop).
    ///
    /// # Errors
    ///
    /// Creating the telemetry file, writing its header, or spawning the
    /// thread.
    pub fn start<F>(snapshot: F, opts: StreamOptions) -> io::Result<Sampler>
    where
        F: Fn() -> Registry + Send + 'static,
    {
        let cadence = opts.cadence.max(Duration::from_millis(1));
        let mut writer = Writer {
            file: opts.telemetry_path.map(File::create).transpose()?,
            start: Instant::now(),
            prev: Registry::new(),
            epochs: 0,
        };
        writer.line(vec![
            ("schema", Value::String(STREAM_SCHEMA.into())),
            ("v", Value::Number(1.0)),
            ("cadence_us", Value::Number(cadence.as_micros() as f64)),
        ])?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("atc-sampler".into())
            .spawn(move || writer.run(&snapshot, cadence, &flag))?;
        Ok(Sampler { stop, handle })
    }

    /// Signal the thread, join it, and return the number of epochs
    /// written (padding included).
    ///
    /// # Errors
    ///
    /// Any write error the sampler hit, or a generic error if the
    /// thread panicked.
    pub fn stop(self) -> io::Result<u64> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .map_err(|_| io::Error::other("sampler thread panicked"))?
    }
}

/// The stream's one writer: the file, the snapshot the next epoch is
/// diffed against, and the epoch counter.
struct Writer {
    file: Option<File>,
    start: Instant,
    prev: Registry,
    epochs: u64,
}

impl Writer {
    fn run(
        &mut self,
        snapshot: &dyn Fn() -> Registry,
        cadence: Duration,
        stop: &AtomicBool,
    ) -> io::Result<u64> {
        loop {
            // Sleep in short slices so stop() never waits a full cadence.
            let tick_end = Instant::now() + cadence;
            while Instant::now() < tick_end && !stop.load(Ordering::SeqCst) {
                std::thread::sleep(cadence.min(Duration::from_millis(5)));
            }
            if stop.load(Ordering::SeqCst) {
                break;
            }
            self.epoch(&snapshot())?;
        }
        let last = snapshot();
        self.epoch(&last)?;
        while self.epochs < MIN_EPOCHS {
            self.epoch(&last)?;
        }
        let counters = last
            .counters()
            .iter()
            .map(|&(n, v)| (n.to_string(), Value::Number(v as f64)))
            .collect();
        self.line(vec![
            ("final", Value::Bool(true)),
            ("epochs", Value::Number(self.epochs as f64)),
            ("t_us", self.t_us()),
            ("counters", Value::Object(counters)),
        ])?;
        Ok(self.epochs)
    }

    /// Append the epoch line for `snap`: the counters that moved since
    /// the previous epoch's snapshot.
    fn epoch(&mut self, snap: &Registry) -> io::Result<()> {
        let counters = snap
            .delta_since(&self.prev)
            .into_iter()
            .map(|(n, d)| (n.to_string(), Value::Number(d as f64)))
            .collect();
        self.prev.clone_from(snap);
        self.epochs += 1;
        self.line(vec![
            ("epoch", Value::Number((self.epochs - 1) as f64)),
            ("t_us", self.t_us()),
            ("counters", Value::Object(counters)),
        ])
    }

    fn t_us(&self) -> Value {
        Value::Number(self.start.elapsed().as_micros() as f64)
    }

    fn line(&mut self, members: Vec<(&str, Value)>) -> io::Result<()> {
        let Some(f) = &mut self.file else {
            return Ok(());
        };
        let doc = Value::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect());
        writeln!(f, "{}", seal(&doc))
    }
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
/// Checks every line's checksum, the header schema and version (1),
/// contiguous epoch numbering from 0, non-negative, non-decreasing
/// timestamps, that at least
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
    let v = integer(header.get("v").unwrap_or(&Value::Null), "header v")?;
    if v != 1 {
        return Err(format!("header v = {v}, want 1"));
    }
    let cadence = integer(
        header.get("cadence_us").unwrap_or(&Value::Null),
        "header cadence_us",
    )?;
    if cadence < 0 {
        return Err(format!("header cadence_us = {cadence} is negative"));
    }

    let mut sums: Vec<(String, i64)> = Vec::new();
    let mut epochs: u64 = 0;
    let mut last_t: i64 = 0;
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
        if t < 0 {
            return Err(format!("line {n}: t_us {t} is negative"));
        }
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

    /// Seal one line given as JSON text.
    fn sealed(doc: &str) -> String {
        seal(&json::parse(doc).expect("test line is JSON"))
    }

    fn sample_stream() -> String {
        [
            r#"{"schema":"atc-telemetry-stream-v1","v":1,"cadence_us":50000}"#,
            r#"{"epoch":0,"t_us":50100,"counters":{"jobs.done":3,"jobs.running":2}}"#,
            r#"{"epoch":1,"t_us":100200,"counters":{"jobs.done":4,"jobs.running":-2}}"#,
            r#"{"final":true,"epochs":2,"t_us":100205,"counters":{"jobs.done":7,"jobs.running":0}}"#,
        ]
        .iter()
        .map(|l| sealed(l) + "\n")
        .collect()
    }

    #[test]
    fn valid_stream_reconciles() {
        let summary = check_stream(&sample_stream(), 2).expect("valid stream");
        assert!(summary.contains("2 epochs"), "{summary}");
    }

    #[test]
    fn seal_round_trips_and_detects_flips() {
        let line = sealed(r#"{"cadence_us":1000}"#);
        assert!(unseal(&line).is_ok());
        let flipped = line.replace("1000", "1001");
        assert!(unseal(&flipped).unwrap_err().contains("checksum"));
    }

    /// `good` with one substring replaced in line `at` and the line
    /// re-sealed, so only the checker's arithmetic can object.
    fn tampered(good: &str, at: usize, from: &str, to: &str) -> String {
        let mut lines: Vec<String> = good.lines().map(str::to_string).collect();
        let trunk = &lines[at][..lines[at].rfind(",\"ck\":\"").expect("sealed line")];
        assert!(trunk.contains(from), "{from} not in line {at}");
        lines[at] = sealed(&format!("{}}}", trunk.replace(from, to)));
        lines.join("\n") + "\n"
    }

    #[test]
    fn broken_streams_are_rejected() {
        let good = sample_stream();
        let cases = [
            (
                tampered(&good, 3, "\"jobs.done\":7", "\"jobs.done\":8"),
                "delta sum",
            ),
            (
                tampered(&good, 2, "\"epoch\":1", "\"epoch\":2"),
                "contiguous",
            ),
            // A future version must not validate as v1.
            (tampered(&good, 0, "\"v\":1", "\"v\":2"), "header v = 2"),
            // The first line's timestamp must not be negative either.
            (
                tampered(&good, 1, "\"t_us\":50100", "\"t_us\":-1"),
                "negative",
            ),
        ];
        for (text, want) in cases {
            let err = check_stream(&text, 1).unwrap_err();
            assert!(err.contains(want), "want {want:?}: {err}");
        }

        // Too few epochs.
        let err = check_stream(&good, 5).unwrap_err();
        assert!(err.contains("need >= 5"), "{err}");

        // Missing final line.
        let trunc: Vec<&str> = good.lines().take(3).collect();
        let err = check_stream(&(trunc.join("\n") + "\n"), 1).unwrap_err();
        assert!(err.contains("no final line"), "{err}");
    }
}
