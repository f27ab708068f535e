//! Crash-tolerant checkpoint/resume via an append-only `manifest.jsonl`
//! job store.
//!
//! Every terminal job outcome is one JSON line keyed by the job's
//! deterministic key (and its FNV-1a hash as a short id), sealed by a
//! per-record FNV-1a checksum over the rendered line:
//!
//! ```json
//! {"v":2,"key":"tempo/mcf/s42/test/w1000/m10000","hash":"8b1f...cd02",
//!  "status":"ok","attempts":1,"wall_us":5123,
//!  "metrics":{"ipc":0.612,"llc_mpki":11.3},"error":null,"ck":"9a41...77c0"}
//! ```
//!
//! Appends write through: [`Manifest::append`] writes its record's
//! whole `line\n` to the file before it returns, so every record a job
//! produced is in the file (the kernel's page cache, which survives
//! process death) the moment its append returns. A crash — including a
//! SIGKILL mid-`write(2)` — loses at most the records not yet appended,
//! whose jobs simply re-execute on resume, plus leaves damage that
//! [`Manifest::open`] recovers from rather than erroring on:
//!
//! * a **torn trailing line** (no newline) is dropped and truncated
//!   away so future appends start on a clean boundary;
//! * a **corrupt interior line** (checksum mismatch, bad JSON, bytes
//!   that are not UTF-8, an old `v:1` record) is *skipped and logged* —
//!   its job re-executes and a fresh record is appended;
//! * a **duplicate key** (a `--retry-failed` resume re-ran a job whose
//!   failed record stays in the file) resolves **last-writer-wins**,
//!   making record replay idempotent.
//!
//! Anything recovery had to repair is summarized in one stderr line,
//! exposed via [`Manifest::recovery`] for the suite's end-of-run tally,
//! and reported once to the pass's [`Progress`] when
//! [`run_with_manifest_opts`] ends.
//!
//! Metric values are `f64`s rendered with Rust's shortest round-trip
//! formatting, so a value read back from the manifest is bit-identical
//! to the value the job produced — this is what makes resumed and
//! fresh sweeps aggregate to byte-identical tables. Non-finite values
//! cannot round-trip through JSON (they would render as `null`), so
//! [`Metrics::push`] drops them; absent metrics render as `n/a`
//! downstream, same as a failed job.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use atc_bench::json::Value;
use atc_bench::stream::{seal, unseal};

use crate::fault::FaultPlan;
use crate::progress::Progress;
use crate::scheduler::{JobCtx, JobError, JobRun, JobStatus, Scheduler};
use crate::spec::key_hash;

/// Named scalar results of one job, in insertion order.
///
/// Only finite values are stored: NaN/inf cannot survive a JSON
/// round-trip, so they are dropped at insertion and the metric is simply
/// absent (rendered `n/a` by consumers).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// An empty metric set.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Record `name = value`; non-finite values are dropped, and a
    /// repeated name overwrites the earlier value in place.
    pub fn push(&mut self, name: &str, value: f64) {
        if !value.is_finite() {
            return;
        }
        if let Some(slot) = self.0.iter_mut().find(|(n, _)| n == name) {
            slot.1 = value;
        } else {
            self.0.push((name.to_string(), value));
        }
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// All `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no metrics were recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn to_json(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(n, v)| (n.clone(), Value::Number(*v)))
                .collect(),
        )
    }

    fn from_json(v: &Value) -> Result<Metrics, String> {
        let Value::Object(members) = v else {
            return Err("metrics is not an object".into());
        };
        let mut m = Metrics::new();
        for (name, value) in members {
            let x = value
                .as_f64()
                .ok_or_else(|| format!("metric {name:?} is not a number"))?;
            m.push(name, x);
        }
        Ok(m)
    }
}

impl<const N: usize> From<[(&str, f64); N]> for Metrics {
    fn from(pairs: [(&str, f64); N]) -> Self {
        let mut m = Metrics::new();
        for (n, v) in pairs {
            m.push(n, v);
        }
        m
    }
}

/// Manifest line format version written by this crate.
const MANIFEST_VERSION: f64 = 2.0;

/// One manifest line: a job's terminal outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The job's deterministic key.
    pub key: String,
    /// `"ok"`, `"failed"`, or `"panicked"`; a line with any other
    /// status fails to parse, so its job re-executes on resume.
    pub status: String,
    /// Attempts consumed.
    pub attempts: u32,
    /// Wall-clock microseconds across all attempts.
    pub wall_micros: u64,
    /// Metrics — complete for `ok`, salvaged partials (possibly empty)
    /// for `failed`, empty for `panicked`.
    pub metrics: Metrics,
    /// Error message for `failed`/`panicked`.
    pub error: Option<String>,
}

impl Record {
    /// Whether the job completed successfully.
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }

    /// Convert a scheduler [`JobRun`] into a manifest record, salvaging
    /// partial metrics from failed jobs.
    pub fn from_run(run: &JobRun<Metrics>) -> Record {
        let (status, metrics, error) = match &run.status {
            JobStatus::Ok(m) => ("ok", m.clone(), None),
            JobStatus::Failed(err) => (
                "failed",
                err.partial.clone().unwrap_or_default(),
                Some(err.message.clone()),
            ),
            JobStatus::Panicked(msg) => ("panicked", Metrics::new(), Some(msg.clone())),
        };
        Record {
            key: run.key.clone(),
            status: status.to_string(),
            attempts: run.attempts,
            wall_micros: run.wall_micros,
            metrics,
            error,
        }
    }

    /// FNV-1a hash of the key (the short job id persisted next to it).
    pub fn hash(&self) -> u64 {
        key_hash(&self.key)
    }

    /// Render this record as one checksummed manifest line (no trailing
    /// newline). The `ck` field is the FNV-1a hash of every byte of the
    /// line before it, so any single-byte damage — torn writes, bit
    /// rot, hand edits — fails verification on read.
    pub fn to_json_line(&self) -> String {
        let error = match &self.error {
            Some(msg) => Value::String(msg.clone()),
            None => Value::Null,
        };
        seal(&Value::Object(vec![
            ("v".into(), Value::Number(MANIFEST_VERSION)),
            ("key".into(), Value::String(self.key.clone())),
            (
                "hash".into(),
                Value::String(format!("{:016x}", self.hash())),
            ),
            ("status".into(), Value::String(self.status.clone())),
            ("attempts".into(), Value::Number(f64::from(self.attempts))),
            ("wall_us".into(), Value::Number(self.wall_micros as f64)),
            ("metrics".into(), self.metrics.to_json()),
            ("error".into(), error),
        ]))
    }

    /// Parse one checksummed manifest line.
    ///
    /// # Errors
    ///
    /// A description of the damage: missing/mismatched checksum, bad
    /// JSON, an unsupported version (including pre-checksum `v:1`
    /// lines), a key/hash mismatch, or missing fields.
    pub fn from_json_line(line: &str) -> Result<Record, String> {
        let v = unseal(line)?;
        let version = v.get("v").and_then(Value::as_f64).ok_or("missing v")?;
        if version != MANIFEST_VERSION {
            return Err(format!("unsupported manifest version {version}"));
        }
        let key = v
            .get("key")
            .and_then(Value::as_str)
            .ok_or("missing key")?
            .to_string();
        let hash = v
            .get("hash")
            .and_then(Value::as_str)
            .ok_or("missing hash")?;
        let hash = u64::from_str_radix(hash, 16).map_err(|_| "hash is not hex")?;
        if hash != key_hash(&key) {
            return Err(format!("hash mismatch for key {key:?}"));
        }
        let status = v
            .get("status")
            .and_then(Value::as_str)
            .ok_or("missing status")?;
        if !matches!(status, "ok" | "failed" | "panicked") {
            return Err(format!("unknown status {status:?}"));
        }
        let attempts = v
            .get("attempts")
            .and_then(Value::as_f64)
            .ok_or("missing attempts")? as u32;
        let wall_micros = v
            .get("wall_us")
            .and_then(Value::as_f64)
            .ok_or("missing wall_us")? as u64;
        let metrics = Metrics::from_json(v.get("metrics").ok_or("missing metrics")?)?;
        let error = match v.get("error") {
            None | Some(Value::Null) => None,
            Some(Value::String(msg)) => Some(msg.clone()),
            Some(_) => return Err("error is neither null nor a string".into()),
        };
        Ok(Record {
            key,
            status: status.to_string(),
            attempts,
            wall_micros,
            metrics,
            error,
        })
    }
}

/// What [`Manifest::open`] had to repair while loading an existing
/// manifest.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Recovery {
    /// Distinct records loaded (after last-writer-wins deduplication).
    pub recovered: usize,
    /// Complete lines that failed checksum/parse and were skipped
    /// (their jobs will re-execute; the lines stay in the file and are
    /// superseded by the fresh appends).
    pub corrupt: usize,
    /// Whether a torn trailing line (no newline — a crash mid-write)
    /// was dropped and truncated away.
    pub torn_tail: bool,
    /// Records superseded by a later record for the same key
    /// (idempotent replay: last writer wins). Grows if appends
    /// supersede further records after open.
    pub duplicates: usize,
}

impl Recovery {
    /// Whether recovery repaired anything worth reporting.
    pub fn is_noteworthy(&self) -> bool {
        self.corrupt > 0 || self.torn_tail || self.duplicates > 0
    }
}

/// An append-only JSONL checkpoint file with write-through appends,
/// checksummed records, and skip-and-log recovery.
#[derive(Debug)]
pub struct Manifest {
    path: PathBuf,
    file: File,
    /// Distinct records, one per key (last writer wins).
    records: Vec<Record>,
    /// key → index into `records`.
    index: HashMap<String, usize>,
    /// `sync_data` at checkpoint boundaries.
    fsync: bool,
    /// Fault injection for append tearing (tests and robustness smokes).
    fault: Option<FaultPlan>,
    /// Records appended so far (the torn-fault roll key).
    appends: u64,
    /// What `open` repaired, plus append-time supersedes.
    recovery: Recovery,
    /// The part of `recovery` already reported to a [`Progress`].
    reported: Recovery,
}

impl Manifest {
    /// Open `path`, creating it if absent.
    ///
    /// With `resume = false` the file is truncated — every job will
    /// execute fresh. With `resume = true` existing records are loaded
    /// and their jobs will be skipped. Recovery never errors on damage
    /// (see the module docs): torn tails are truncated, corrupt lines
    /// are skipped and logged, duplicate keys resolve last-writer-wins.
    /// Anything repaired is summarized on stderr and available via
    /// [`recovery`](Self::recovery).
    ///
    /// # Errors
    ///
    /// Only real I/O failures (open, read, truncate).
    pub fn open(path: impl Into<PathBuf>, resume: bool) -> io::Result<Manifest> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(!resume)
            .open(&path)?;

        // Bytes, not a `String`: a line that is not UTF-8 (bit rot, a
        // torn multi-byte write) is one corrupt record, not a failed open.
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut records: Vec<Record> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut recovery = Recovery::default();
        let mut complete_end = 0u64;
        let mut offset = 0u64;
        for segment in bytes.split_inclusive(|&b| b == b'\n') {
            offset += segment.len() as u64;
            let Some(mut line) = segment.strip_suffix(b"\n") else {
                // Torn trailing line: the process died mid-write. Drop
                // it; its job re-executes.
                recovery.torn_tail = true;
                break;
            };
            complete_end = offset;
            while let Some(rest) = line.strip_suffix(b"\r") {
                line = rest;
            }
            if line.is_empty() {
                continue;
            }
            let parsed = std::str::from_utf8(line)
                .map_err(|e| e.to_string())
                .and_then(Record::from_json_line);
            match parsed {
                Ok(r) => match index.get(&r.key) {
                    Some(&i) => {
                        records[i] = r;
                        recovery.duplicates += 1;
                    }
                    None => {
                        index.insert(r.key.clone(), records.len());
                        records.push(r);
                    }
                },
                Err(_) => recovery.corrupt += 1,
            }
        }
        if recovery.torn_tail {
            // Truncate the torn bytes so future appends start on a
            // clean line boundary. (Corrupt *complete* lines stay in
            // place — they are skipped on every load and their keys are
            // superseded by fresh appends.)
            file.set_len(complete_end)?;
        }
        file.seek(SeekFrom::End(0))?;
        recovery.recovered = records.len();
        if recovery.is_noteworthy() {
            eprintln!(
                "manifest recovery ({}): {} record(s) loaded, {} corrupt line(s) skipped, \
                 {} duplicate record(s) superseded{}",
                path.display(),
                recovery.recovered,
                recovery.corrupt,
                recovery.duplicates,
                if recovery.torn_tail {
                    ", torn tail truncated"
                } else {
                    ""
                },
            );
        }

        Ok(Manifest {
            path,
            file,
            records,
            index,
            fsync: false,
            fault: None,
            appends: 0,
            recovery,
            reported: Recovery::default(),
        })
    }

    /// `sync_data` the file at every [`checkpoint`](Self::checkpoint)
    /// boundary, making checkpoints durable against power loss, not
    /// just process death.
    pub fn with_fsync(mut self, fsync: bool) -> Manifest {
        self.fsync = fsync;
        self
    }

    /// Inject the given [`FaultPlan`]'s torn-write faults into appends.
    pub fn with_faults(mut self, plan: FaultPlan) -> Manifest {
        self.fault = Some(plan);
        self
    }

    /// The manifest's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// What [`open`](Self::open) repaired, plus any append-time
    /// supersedes since.
    pub fn recovery(&self) -> &Recovery {
        &self.recovery
    }

    /// All distinct records (one per key, last writer wins), in
    /// first-write order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Number of distinct records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the manifest holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record for `key`, if present (last write wins).
    pub fn get(&self, key: &str) -> Option<&Record> {
        self.index.get(key).map(|&i| &self.records[i])
    }

    /// Whether `key` has a terminal record (any status).
    pub fn contains(&self, key: &str) -> bool {
        self.index.contains_key(key)
    }

    /// Append one record: its line is written to the file before this
    /// returns, and the record is visible to
    /// [`get`](Self::get)/[`records`](Self::records), superseding any
    /// earlier record for the same key.
    pub fn append(&mut self, record: Record) -> io::Result<()> {
        let mut line = record.to_json_line().into_bytes();
        line.push(b'\n');
        let index = self.appends;
        self.appends += 1;
        let torn = self
            .fault
            .as_ref()
            .is_some_and(|plan| plan.torn_append(index));
        // An injected torn write reaches the file cut mid-line with no
        // newline — exactly the shape a crash mid-`write(2)` leaves
        // behind. The in-memory state moves on as if the write
        // succeeded, so the damage is only discovered by the next
        // recovery, as in a real crash.
        let len = if torn {
            (line.len() - 1) / 2
        } else {
            line.len()
        };
        self.file.write_all(&line[..len])?;
        match self.index.get(&record.key) {
            Some(&i) => {
                self.records[i] = record;
                self.recovery.duplicates += 1;
            }
            None => {
                self.index.insert(record.key.clone(), self.records.len());
                self.records.push(record);
            }
        }
        Ok(())
    }

    /// A durability barrier: `sync_data` when
    /// [`with_fsync`](Self::with_fsync) is on, a no-op otherwise. Resume
    /// correctness needs no barrier (every append has already reached
    /// the kernel, which keeps the page cache coherent across process
    /// death); the sync hardens checkpoints against machine-level loss.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        if self.fsync {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Report to `progress` what recovery repaired and appends
    /// superseded since the last report.
    fn report_recovery(&mut self, progress: &Progress) {
        let (now, before) = (&self.recovery, &self.reported);
        progress.recovered(
            &self.path,
            now.corrupt - before.corrupt,
            now.duplicates - before.duplicates,
            now.torn_tail && !before.torn_tail,
        );
        self.reported = now.clone();
    }
}

/// Result of [`run_with_manifest_opts`]: one record per job in **spec
/// order**, plus how many jobs actually executed vs. were resumed from
/// the manifest.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One terminal record per submitted job, in submission order.
    pub records: Vec<Record>,
    /// Jobs that executed in this process.
    pub executed: usize,
    /// Jobs satisfied from the manifest without executing.
    pub resumed: usize,
}

/// Policy knobs for [`run_with_manifest_opts`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepOptions {
    /// Treat non-`ok` manifest records (failed, panicked, timed out) as
    /// absent: their jobs re-execute and the fresh record supersedes
    /// the old one (last writer wins). Off by default — a failure is a
    /// terminal record.
    pub retry_failed: bool,
}

/// Execute `jobs` through `scheduler`, skipping any whose key already
/// has a usable record in `manifest` and **streaming** a record for
/// each fresh execution: records are written through from the worker
/// threads the moment jobs complete, so a crash mid-sweep loses at most
/// the jobs still running — never the whole pass. At its end the pass
/// reports to `progress`, once, what the manifest's recovery repaired
/// and its appends superseded since the last report.
///
/// The returned records are in spec order regardless of worker count or
/// completion order, and metric values round-trip bit-exactly through
/// the manifest — so a resumed sweep aggregates byte-identically to a
/// fresh one.
///
/// # Errors
///
/// Only manifest I/O fails the sweep; job failures and panics are
/// recorded per job.
pub fn run_with_manifest_opts<P, F>(
    scheduler: &Scheduler,
    progress: &Progress,
    manifest: &mut Manifest,
    jobs: &[(String, P)],
    runner: F,
    opts: SweepOptions,
) -> io::Result<SweepOutcome>
where
    P: Sync,
    F: Fn(&str, &P, &JobCtx) -> Result<Metrics, JobError> + Sync,
{
    let usable = |r: &&Record| !opts.retry_failed || r.is_ok();
    let mut slots: Vec<Option<Record>> = jobs
        .iter()
        .map(|(key, _)| manifest.get(key).filter(usable).cloned())
        .collect();
    let resumed = slots.iter().filter(|s| s.is_some()).count();
    progress.jobs_resumed(resumed as u64);

    let missing: Vec<(usize, (String, &P))> = jobs
        .iter()
        .enumerate()
        .filter(|(i, _)| slots[*i].is_none())
        .map(|(i, (key, payload))| (i, (key.clone(), payload)))
        .collect();
    let missing_jobs: Vec<(String, &P)> = missing.iter().map(|(_, j)| j.clone()).collect();

    // Stream completions into the manifest from the worker threads. The
    // mutex serializes appends only — job execution never waits on it
    // beyond the append itself. The first append error is remembered
    // and re-raised after the pass (workers keep running; their results
    // still come back in-memory).
    let append_err: Mutex<Option<io::Error>> = Mutex::new(None);
    let runs = {
        let shared = Mutex::new(&mut *manifest);
        scheduler.run_hooked(
            &missing_jobs,
            progress,
            |key, payload: &&P, ctx| runner(key, payload, ctx),
            |run| {
                let record = Record::from_run(run);
                let mut mf = shared.lock().unwrap_or_else(|e| e.into_inner());
                if let Err(e) = mf.append(record) {
                    let mut slot = append_err.lock().unwrap_or_else(|e| e.into_inner());
                    slot.get_or_insert(e);
                }
            },
        )
    };
    manifest.report_recovery(progress);
    if let Some(e) = append_err.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(e);
    }
    let executed = runs.len();
    for ((idx, _), run) in missing.iter().zip(&runs) {
        slots[*idx] = Some(Record::from_run(run));
    }
    // Checkpoint boundary: everything recorded this pass must be
    // durable before the caller can rely on `--resume`.
    manifest.checkpoint()?;

    let records = slots
        .into_iter()
        .map(|s| s.expect("every job has a cached or fresh record"))
        .collect();
    Ok(SweepOutcome {
        records,
        executed,
        resumed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempPath(PathBuf);
    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn temp_manifest(name: &str) -> TempPath {
        let mut p = std::env::temp_dir();
        p.push(format!("atc-harness-{name}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        TempPath(p)
    }

    fn record(key: &str, status: &str, ipc: Option<f64>) -> Record {
        let mut metrics = Metrics::new();
        if let Some(x) = ipc {
            metrics.push("ipc", x);
        }
        Record {
            key: key.to_string(),
            status: status.to_string(),
            attempts: 1,
            wall_micros: 42,
            metrics,
            error: (status != "ok").then(|| "boom".to_string()),
        }
    }

    #[test]
    fn metrics_drop_non_finite_and_overwrite_in_place() {
        let mut m = Metrics::new();
        m.push("a", 1.5);
        m.push("b", f64::NAN);
        m.push("c", f64::INFINITY);
        m.push("a", 2.5);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get("a"), Some(2.5));
        assert_eq!(m.get("b"), None);
    }

    #[test]
    // 11.300000000000001 is deliberately one ulp off 11.3: the whole
    // point is that serialization preserves the exact bits.
    #[allow(clippy::excessive_precision)]
    fn record_round_trips_bit_exactly() {
        let mut metrics = Metrics::new();
        // Awkward values: thirds don't have finite binary expansions.
        metrics.push("ipc", 2.0 / 3.0);
        metrics.push("mpki", 11.300000000000001);
        metrics.push("tiny", 1e-300);
        let r = Record {
            key: "tempo/mcf/s42/test/w1000/m10000".into(),
            status: "ok".into(),
            attempts: 2,
            wall_micros: 123_456,
            metrics,
            error: None,
        };
        let line = r.to_json_line();
        let back = Record::from_json_line(&line).expect("round trip");
        assert_eq!(back, r);
        assert_eq!(back.metrics.get("ipc"), Some(2.0 / 3.0));
        assert_eq!(back.metrics.get("mpki"), Some(11.300000000000001));
    }

    #[test]
    fn record_line_bytes_are_pinned() {
        // Manifests outlive the process: the exact bytes, checksum
        // included, must not move when the rendering code does.
        let mut metrics = Metrics::new();
        metrics.push("ipc", 2.0 / 3.0);
        metrics.push("llc_mpki", 11.3);
        let r = Record {
            key: "tempo/mcf/s42/test/w1000/m10000".into(),
            status: "failed".into(),
            attempts: 2,
            wall_micros: 123_456,
            metrics,
            error: Some("deadlock: \"stuck\"".into()),
        };
        let line = r.to_json_line();
        assert_eq!(
            line,
            "{\"v\":2,\"key\":\"tempo/mcf/s42/test/w1000/m10000\",\
             \"hash\":\"7ca7541390443714\",\"status\":\"failed\",\"attempts\":2,\
             \"wall_us\":123456,\"metrics\":{\"ipc\":0.6666666666666666,\
             \"llc_mpki\":11.3},\"error\":\"deadlock: \\\"stuck\\\"\",\
             \"ck\":\"57c7615d70f4b98c\"}"
        );
        assert_eq!(Record::from_json_line(&line), Ok(r));
    }

    #[test]
    fn checksum_rejects_any_single_byte_damage() {
        let good = record("a/b/s1/test/w1/m2", "ok", Some(1.0)).to_json_line();
        assert!(Record::from_json_line(&good).is_ok());
        // Damage anywhere — key, metrics digits, status — must fail the
        // checksum, not just key-vs-hash consistency.
        for (from, to) in [("a/x", "a/y"), ("1", "2"), ("ok", "ko")] {
            let tampered = good.replacen(from, to, 1);
            if tampered != good {
                assert!(
                    Record::from_json_line(&tampered).is_err(),
                    "damage {from}->{to} must be caught"
                );
            }
        }
        assert!(Record::from_json_line("{\"v\":2}").is_err(), "no checksum");
        assert!(Record::from_json_line("not json").is_err());
        // A v1 line (pre-checksum format) is unsupported damage too.
        let v1 = "{\"v\":1,\"key\":\"k\",\"hash\":\"0\",\"status\":\"ok\",\
                  \"attempts\":1,\"wall_us\":1,\"metrics\":{},\"error\":null}";
        assert!(Record::from_json_line(v1).is_err());
    }

    #[test]
    fn manifest_appends_and_resumes() {
        let tmp = temp_manifest("resume");
        {
            let mut m = Manifest::open(&tmp.0, false).unwrap();
            m.append(record("k1", "ok", Some(1.0))).unwrap();
            m.append(record("k2", "failed", None)).unwrap();
        }
        let m = Manifest::open(&tmp.0, true).unwrap();
        assert_eq!(m.len(), 2);
        assert!(m.contains("k1"));
        assert!(m.contains("k2"), "failed records are terminal too");
        assert!(!m.contains("k3"));
        assert_eq!(m.get("k1").unwrap().metrics.get("ipc"), Some(1.0));
        assert!(!m.recovery().is_noteworthy(), "clean file, clean recovery");
        // resume = false truncates.
        let m = Manifest::open(&tmp.0, false).unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn torn_trailing_line_is_dropped_and_truncated() {
        let tmp = temp_manifest("tail");
        {
            let mut m = Manifest::open(&tmp.0, false).unwrap();
            m.append(record("k1", "ok", Some(1.0))).unwrap();
        }
        // Simulate a crash mid-append: partial JSON, no newline.
        {
            let mut f = OpenOptions::new().append(true).open(&tmp.0).unwrap();
            f.write_all(b"{\"v\":2,\"key\":\"k2").unwrap();
        }
        let mut m = Manifest::open(&tmp.0, true).unwrap();
        assert_eq!(m.len(), 1, "partial line dropped");
        assert!(m.recovery().torn_tail);
        assert_eq!(m.recovery().corrupt, 0);
        m.append(record("k2", "ok", Some(2.0))).unwrap();
        // The file is clean again: both lines parse, nothing to repair.
        let m = Manifest::open(&tmp.0, true).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.get("k2").unwrap().metrics.get("ipc"), Some(2.0));
        assert!(!m.recovery().is_noteworthy());
    }

    #[test]
    fn appended_record_is_on_disk_even_if_the_manifest_is_forgotten() {
        let tmp = temp_manifest("write-through");
        let mut m = Manifest::open(&tmp.0, false).unwrap();
        m.append(record("k1", "ok", Some(1.0))).unwrap();
        // On disk the moment `append` returns, before any checkpoint.
        assert!(Manifest::open(&tmp.0, true).unwrap().contains("k1"));
        m.append(record("k2", "ok", Some(2.0))).unwrap();
        // Simulate a crash: the process dies without a checkpoint or a
        // drop. Nothing appended is lost.
        std::mem::forget(m);
        let m = Manifest::open(&tmp.0, true).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.get("k2").unwrap().metrics.get("ipc"), Some(2.0));
        assert!(!m.recovery().is_noteworthy());
    }

    #[test]
    fn corrupt_interior_line_is_skipped_and_logged_not_fatal() {
        let tmp = temp_manifest("interior");
        let good = record("k1", "ok", Some(1.0)).to_json_line();
        let flipped = record("k2", "ok", Some(2.0))
            .to_json_line()
            .replace("k2", "kX");
        std::fs::write(&tmp.0, format!("garbage\n{flipped}\n{good}\n")).unwrap();
        let m = Manifest::open(&tmp.0, true).unwrap();
        assert_eq!(m.len(), 1, "only the intact record loads");
        assert!(m.contains("k1"));
        assert_eq!(m.recovery().corrupt, 2);
        assert!(!m.recovery().torn_tail);
        // The corrupt lines stay in place; a rewrite would risk the
        // good suffix. They are skipped again on every load.
        let text = std::fs::read_to_string(&tmp.0).unwrap();
        assert!(text.starts_with("garbage\n"));
    }

    #[test]
    fn non_utf8_line_is_one_corrupt_record_and_its_job_reruns() {
        let tmp = temp_manifest("non-utf8");
        let line = |i: u64| record(&format!("job{i}"), "ok", Some(i as f64)).to_json_line();
        // job1's record is lost to a line that is not UTF-8.
        let mut bytes = format!("{}\n", line(0)).into_bytes();
        bytes.extend_from_slice(b"\xff garbage\n");
        bytes.extend_from_slice(format!("{}\n", line(2)).as_bytes());
        std::fs::write(&tmp.0, &bytes).unwrap();

        let mut m = Manifest::open(&tmp.0, true).expect("damage never fails the open");
        assert_eq!(m.len(), 2, "every intact record loads");
        assert!(m.contains("job0") && m.contains("job2"));
        assert_eq!(m.recovery().corrupt, 1);
        assert!(!m.recovery().torn_tail);

        let progress = Progress::new();
        let jobs: Vec<(String, u64)> = (0..3).map(|i| (format!("job{i}"), i)).collect();
        let run = |_k: &str, i: &u64, _ctx: &JobCtx| Ok(Metrics::from([("x", *i as f64)]));
        let out = run_with_manifest_opts(
            &Scheduler::new(1),
            &progress,
            &mut m,
            &jobs,
            run,
            SweepOptions::default(),
        )
        .unwrap();
        assert_eq!(
            (out.executed, out.resumed),
            (1, 2),
            "only the lost job runs"
        );
        assert_eq!(out.records[1].key, "job1");
        let snap = progress.snapshot();
        assert_eq!(snap.counter_value("harness.corrupt_records"), Some(1));
    }

    #[test]
    fn a_pass_reports_recovery_once_on_the_manifest_track() {
        use crate::events::{EventLog, JobEventKind, MANIFEST_WORKER};
        use std::sync::Arc;

        let tmp = temp_manifest("recover-events");
        let good = record("job0", "ok", Some(1.0)).to_json_line();
        let dupe = record("job0", "ok", Some(2.0)).to_json_line();
        // Two corrupt lines + a duplicate key + a torn tail: every
        // damage category in one file.
        std::fs::write(&tmp.0, format!("garbage\n{good}\nbad\n{dupe}\n{{torn")).unwrap();
        let mut m = Manifest::open(&tmp.0, true).unwrap();
        let log = Arc::new(EventLog::default());
        let progress = Progress::traced(Arc::clone(&log));
        let jobs: Vec<(String, u64)> = (0..2).map(|i| (format!("job{i}"), i)).collect();
        let run = |_k: &str, i: &u64, _ctx: &JobCtx| Ok(Metrics::from([("x", *i as f64)]));
        for _ in 0..2 {
            // The second pass on the same manifest repairs nothing new.
            run_with_manifest_opts(
                &Scheduler::new(1),
                &progress,
                &mut m,
                &jobs,
                run,
                SweepOptions::default(),
            )
            .unwrap();
        }
        let recovers: Vec<_> = log
            .drain()
            .into_iter()
            .filter(|e| e.kind == JobEventKind::Recover)
            .collect();
        let details: Vec<&str> = recovers.iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(
            details,
            [
                "corrupt line skipped",
                "corrupt line skipped",
                "duplicate record superseded",
                "torn tail truncated"
            ]
        );
        for e in &recovers {
            assert_eq!(e.worker, MANIFEST_WORKER);
            assert_eq!(e.key, tmp.0.display().to_string());
        }
        let snap = progress.snapshot();
        assert_eq!(snap.counter_value("harness.corrupt_records"), Some(2));
        assert_eq!(snap.counter_value("harness.duplicate_records"), Some(1));
    }

    #[test]
    fn sealed_lines_with_unknown_status_are_corrupt_and_rerun() {
        // A correctly sealed line whose status is not a terminal job
        // outcome is damage, not a record: resume must re-run its job
        // rather than treat it as done.
        for status in ["queued", "cancelled", "bogus"] {
            let line = record("job1", status, None).to_json_line();
            let err = Record::from_json_line(&line).unwrap_err();
            assert!(err.contains("unknown status"), "{status}: {err}");

            let tmp = temp_manifest(&format!("status-{status}"));
            let good = record("job0", "ok", Some(0.0)).to_json_line();
            std::fs::write(&tmp.0, format!("{good}\n{line}\n")).unwrap();
            let mut manifest = Manifest::open(&tmp.0, true).unwrap();
            assert_eq!(manifest.recovery().corrupt, 1, "{status}");
            assert!(!manifest.contains("job1"), "{status}");

            let jobs: Vec<(String, u64)> = (0..2).map(|i| (format!("job{i}"), i)).collect();
            let run = |_k: &str, i: &u64, _ctx: &JobCtx| Ok(Metrics::from([("x", *i as f64)]));
            let out = run_with_manifest_opts(
                &Scheduler::new(1),
                &Progress::new(),
                &mut manifest,
                &jobs,
                run,
                SweepOptions::default(),
            )
            .unwrap();
            assert_eq!((out.executed, out.resumed), (1, 1), "{status}");
            assert!(out.records.iter().all(Record::is_ok), "{status}");
        }
    }

    #[test]
    fn duplicate_records_resolve_last_writer_wins() {
        // Satellite regression: a transient retry after a partial
        // append can legally write the same key twice. Replay must be
        // idempotent — the later record supersedes the earlier one
        // instead of erroring or double-counting.
        let tmp = temp_manifest("dupes");
        {
            let mut m = Manifest::open(&tmp.0, false).unwrap();
            m.append(record("k1", "failed", None)).unwrap();
            m.append(record("k2", "ok", Some(9.0))).unwrap();
            m.append(record("k1", "ok", Some(7.0))).unwrap();
        }
        let m = Manifest::open(&tmp.0, true).unwrap();
        assert_eq!(m.len(), 2, "k1 deduplicated");
        assert_eq!(m.recovery().duplicates, 1);
        let k1 = m.get("k1").unwrap();
        assert!(k1.is_ok(), "the later (successful) record wins");
        assert_eq!(k1.metrics.get("ipc"), Some(7.0));
        // In-memory appends supersede the same way.
        let mut m = Manifest::open(&tmp.0, true).unwrap();
        m.append(record("k2", "ok", Some(10.0))).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.get("k2").unwrap().metrics.get("ipc"), Some(10.0));
    }

    #[test]
    fn injected_torn_flush_tears_like_a_real_crash() {
        let tmp = temp_manifest("torn-fault");
        {
            // Tear only the second append (append index 1).
            let plan = FaultPlan::parse("1:torn@key=flush1").unwrap();
            let mut m = Manifest::open(&tmp.0, false).unwrap().with_faults(plan);
            m.append(record("k1", "ok", Some(1.0))).unwrap(); // append 0: clean
            m.append(record("k2", "ok", Some(2.0))).unwrap(); // append 1: torn
            std::mem::forget(m); // crash before anything else lands
        }
        let m = Manifest::open(&tmp.0, true).unwrap();
        assert_eq!(m.len(), 1, "torn record lost, clean record kept");
        assert!(m.contains("k1"));
        assert!(m.recovery().torn_tail, "tear truncated on recovery");
        // After recovery the file is clean: re-append and reload.
        drop(m);
        let mut m = Manifest::open(&tmp.0, true).unwrap();
        m.append(record("k2", "ok", Some(2.0))).unwrap();
        m.checkpoint().unwrap();
        let m = Manifest::open(&tmp.0, true).unwrap();
        assert_eq!(m.len(), 2);
        assert!(!m.recovery().is_noteworthy());
    }

    #[test]
    fn checkpoint_with_fsync_persists() {
        let tmp = temp_manifest("fsync");
        let mut m = Manifest::open(&tmp.0, false).unwrap().with_fsync(true);
        m.append(record("k1", "ok", Some(1.0))).unwrap();
        m.checkpoint().unwrap();
        assert_eq!(Manifest::open(&tmp.0, true).unwrap().len(), 1);
    }

    #[test]
    fn run_with_manifest_executes_only_missing_jobs() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let tmp = temp_manifest("run");
        let jobs: Vec<(String, u64)> = (0..6).map(|i| (format!("job{i}"), i)).collect();
        let scheduler = Scheduler::new(2);

        let calls = AtomicU32::new(0);
        let run = |_k: &str, i: &u64, _ctx: &JobCtx| {
            calls.fetch_add(1, Ordering::SeqCst);
            if *i == 4 {
                return Err(JobError::permanent("bad").with_partial(Metrics::from([("x", 0.5)])));
            }
            Ok(Metrics::from([("x", *i as f64)]))
        };

        // First pass: run only the first half.
        {
            let mut manifest = Manifest::open(&tmp.0, false).unwrap();
            let progress = Progress::new();
            let out = run_with_manifest_opts(
                &scheduler,
                &progress,
                &mut manifest,
                &jobs[..3],
                run,
                SweepOptions::default(),
            )
            .unwrap();
            assert_eq!(out.executed, 3);
            assert_eq!(out.resumed, 0);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 3);

        // Second pass over all six: only the missing three execute.
        let mut manifest = Manifest::open(&tmp.0, true).unwrap();
        let progress = Progress::new();
        let out = run_with_manifest_opts(
            &scheduler,
            &progress,
            &mut manifest,
            &jobs,
            run,
            SweepOptions::default(),
        )
        .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 6);
        assert_eq!(out.executed, 3);
        assert_eq!(out.resumed, 3);
        assert_eq!(out.records.len(), 6);
        for (i, rec) in out.records.iter().enumerate() {
            assert_eq!(rec.key, format!("job{i}"));
            if i == 4 {
                assert_eq!(rec.status, "failed");
                assert_eq!(rec.metrics.get("x"), Some(0.5), "partial salvaged");
                assert_eq!(rec.error.as_deref(), Some("bad"));
            } else {
                assert!(rec.is_ok());
                assert_eq!(rec.metrics.get("x"), Some(i as f64));
            }
        }
        let snap = progress.snapshot();
        assert_eq!(snap.counter_value("harness.jobs_resumed"), Some(3));

        // Third pass: fully resumed, nothing executes, failed job is NOT
        // retried (its failure is a terminal record).
        let mut manifest = Manifest::open(&tmp.0, true).unwrap();
        let progress = Progress::new();
        let out = run_with_manifest_opts(
            &scheduler,
            &progress,
            &mut manifest,
            &jobs,
            run,
            SweepOptions::default(),
        )
        .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 6);
        assert_eq!(out.executed, 0);
        assert_eq!(out.resumed, 6);

        // Fourth pass with retry_failed: exactly the failed job re-runs
        // and its fresh record supersedes the old one.
        let mut manifest = Manifest::open(&tmp.0, true).unwrap();
        let progress = Progress::new();
        let out = run_with_manifest_opts(
            &scheduler,
            &progress,
            &mut manifest,
            &jobs,
            run,
            SweepOptions { retry_failed: true },
        )
        .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 7);
        assert_eq!(out.executed, 1);
        assert_eq!(out.resumed, 5);
    }

    #[test]
    fn records_stream_to_disk_before_the_end_of_run_barrier() {
        // The crash-tolerance linchpin: records must reach the file as
        // jobs complete, not after the whole pass — otherwise SIGKILL
        // mid-run loses everything.
        let tmp = temp_manifest("stream");
        let jobs: Vec<(String, u64)> = (0..4).map(|i| (format!("job{i}"), i)).collect();
        let mut manifest = Manifest::open(&tmp.0, false).unwrap();
        let progress = Progress::new();
        let path = tmp.0.clone();
        let out = run_with_manifest_opts(
            &Scheduler::new(1),
            &progress,
            &mut manifest,
            &jobs,
            move |key: &str, i: &u64, _ctx: &JobCtx| {
                if key == "job3" {
                    // By the time the last job runs, the first three
                    // records are already in the file.
                    let text = std::fs::read_to_string(&path).unwrap();
                    let on_disk = text.lines().count();
                    assert_eq!(on_disk, 3, "{on_disk} records on disk before job3");
                }
                Ok(Metrics::from([("x", *i as f64)]))
            },
            SweepOptions::default(),
        )
        .unwrap();
        assert_eq!(out.executed, 4);
    }
}
