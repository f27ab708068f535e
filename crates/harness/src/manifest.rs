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
//! Appends are buffered: records accumulate in memory and reach the
//! file in batches (every [`Manifest::DEFAULT_FLUSH_EVERY`] records, on
//! an explicit [`Manifest::flush`]/[`Manifest::checkpoint`], and on
//! drop), so a sweep pays one syscall pair per batch instead of per
//! job. Each flush writes whole `line\n` records; a crash — including a
//! SIGKILL mid-`write(2)` — can at worst lose the *unflushed tail*,
//! whose jobs simply re-execute on resume, plus leave damage that
//! [`Manifest::open`] recovers from rather than erroring on:
//!
//! * a **torn trailing line** (no newline) is dropped and truncated
//!   away so future appends start on a clean boundary;
//! * a **corrupt interior line** (checksum mismatch, bad JSON, an old
//!   `v:1` record) is *skipped and logged* — its job re-executes and a
//!   fresh record is appended;
//! * a **duplicate key** (a retry that re-ran a job whose record did
//!   reach the file, e.g. after a torn flush lost the tail *after* the
//!   record's bytes landed) resolves **last-writer-wins**, making
//!   record replay idempotent.
//!
//! Anything recovery had to repair is summarized in one stderr line and
//! exposed via [`Manifest::recovery`] for the suite's end-of-run tally.
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
use std::sync::{Arc, Mutex};

use atc_bench::json::Value;
use atc_bench::stream::{seal, unseal};

use crate::events::{EventLog, JobEventKind, MANIFEST_WORKER};
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

/// An append-only JSONL checkpoint file with buffered writes,
/// checksummed records, and skip-and-log recovery.
#[derive(Debug)]
pub struct Manifest {
    path: PathBuf,
    file: File,
    /// Distinct records, one per key (last writer wins).
    records: Vec<Record>,
    /// key → index into `records`.
    index: HashMap<String, usize>,
    /// Serialized records not yet written to the file.
    buf: Vec<u8>,
    /// Records currently sitting in `buf`.
    pending: usize,
    /// Auto-flush threshold: `append` flushes once this many records
    /// are buffered.
    flush_every: usize,
    /// `sync_data` at checkpoint boundaries.
    fsync: bool,
    /// Fault injection for flush tearing (tests and robustness smokes).
    fault: Option<FaultPlan>,
    /// Flushes performed so far (the torn-fault roll key).
    flushes: u64,
    /// What `open` repaired, plus append-time supersedes.
    recovery: Recovery,
    /// Lifecycle event log; flushes are recorded on the manifest track.
    events: Option<Arc<EventLog>>,
}

impl Manifest {
    /// Records buffered between automatic flushes.
    pub const DEFAULT_FLUSH_EVERY: usize = 32;

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
        Self::open_with_events(path, resume, None)
    }

    /// [`open`](Self::open) with recovery diagnostics routed through an
    /// [`EventLog`] instead of ad-hoc stderr: anything noteworthy
    /// (corrupt lines, superseded duplicates, a truncated torn tail)
    /// lands as [`JobEventKind::Recover`] events on the manifest's own
    /// track, so server-side recoveries show up on the Perfetto
    /// timeline. With `events = None` the stderr summary of
    /// [`open`](Self::open) is kept. The log is also retained for flush
    /// events, as if [`with_events`](Self::with_events) had been called.
    ///
    /// # Errors
    ///
    /// Only real I/O failures (open, read, truncate).
    pub fn open_with_events(
        path: impl Into<PathBuf>,
        resume: bool,
        events: Option<Arc<EventLog>>,
    ) -> io::Result<Manifest> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(!resume)
            .open(&path)?;

        let mut text = String::new();
        file.read_to_string(&mut text)?;

        let mut records: Vec<Record> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut recovery = Recovery::default();
        let mut complete_end = 0u64;
        let mut offset = 0u64;
        for segment in text.split_inclusive('\n') {
            offset += segment.len() as u64;
            if !segment.ends_with('\n') {
                // Torn trailing line: the process died mid-write. Drop
                // it; its job re-executes.
                recovery.torn_tail = true;
                break;
            }
            complete_end = offset;
            let line = segment.trim_end_matches(['\n', '\r']);
            if line.is_empty() {
                continue;
            }
            match Record::from_json_line(line) {
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
            match &events {
                // One Recover event per damage category, on the
                // manifest track, keyed by the store path — the
                // trace-event renderer shows them as instants.
                Some(log) => {
                    let key = path.display().to_string();
                    let recover = |detail: &str| {
                        log.record(MANIFEST_WORKER, JobEventKind::Recover, &key, 0, detail);
                    };
                    if recovery.corrupt > 0 {
                        recover(&format!("{} corrupt line(s) skipped", recovery.corrupt));
                    }
                    if recovery.duplicates > 0 {
                        recover(&format!(
                            "{} duplicate record(s) superseded",
                            recovery.duplicates
                        ));
                    }
                    if recovery.torn_tail {
                        recover("torn tail truncated");
                    }
                }
                None => eprintln!(
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
                ),
            }
        }

        Ok(Manifest {
            path,
            file,
            records,
            index,
            buf: Vec::new(),
            pending: 0,
            flush_every: Self::DEFAULT_FLUSH_EVERY,
            fsync: false,
            fault: None,
            flushes: 0,
            recovery,
            events,
        })
    }

    /// Override the auto-flush threshold (floored at 1). The default
    /// batches [`Self::DEFAULT_FLUSH_EVERY`] records; crash-sensitive
    /// runs set 1 to persist every record immediately.
    pub fn with_flush_every(mut self, records: usize) -> Manifest {
        self.flush_every = records.max(1);
        self
    }

    /// `sync_data` the file at every [`checkpoint`](Self::checkpoint)
    /// boundary, making checkpoints durable against power loss, not
    /// just process death.
    pub fn with_fsync(mut self, fsync: bool) -> Manifest {
        self.fsync = fsync;
        self
    }

    /// Inject the given [`FaultPlan`]'s torn-write faults into flushes.
    pub fn with_faults(mut self, plan: FaultPlan) -> Manifest {
        self.fault = Some(plan);
        self
    }

    /// Record every flush into `log` on the manifest's own track
    /// ([`MANIFEST_WORKER`](crate::events::MANIFEST_WORKER)), with the
    /// record count and whether fault injection tore it.
    pub fn with_events(mut self, log: Arc<EventLog>) -> Manifest {
        self.events = Some(log);
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

    /// Append one record to the write buffer. The record is immediately
    /// visible to [`get`](Self::get)/[`records`](Self::records) —
    /// superseding any earlier record for the same key — and reaches
    /// the file on the next automatic or explicit
    /// [`flush`](Self::flush) (at worst on drop).
    pub fn append(&mut self, record: Record) -> io::Result<()> {
        self.buf.extend_from_slice(record.to_json_line().as_bytes());
        self.buf.push(b'\n');
        self.pending += 1;
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
        if self.pending >= self.flush_every {
            self.flush()?;
        }
        Ok(())
    }

    /// Write all buffered records to the file. Call at checkpoint
    /// boundaries (end of a scheduling pass, before handing the path to
    /// another process); records not yet flushed when the process dies
    /// are lost and their jobs re-execute on `--resume`.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let flush_index = self.flushes;
        self.flushes += 1;
        let torn = self
            .fault
            .as_ref()
            .is_some_and(|plan| plan.torn_flush(flush_index));
        if torn {
            // Injected torn write: the last buffered record reaches the
            // file cut mid-line with no newline — exactly the shape a
            // crash mid-`write(2)` leaves behind. The in-memory state
            // moves on as if the flush succeeded, so the damage is only
            // discovered by the next recovery, as in a real crash.
            let cut = torn_cut(&self.buf);
            self.file.write_all(&self.buf[..cut])?;
        } else {
            self.file.write_all(&self.buf)?;
        }
        self.file.flush()?;
        if let Some(log) = &self.events {
            let detail = format!(
                "{} record(s){}",
                self.pending,
                if torn { ", torn" } else { "" }
            );
            log.record(MANIFEST_WORKER, JobEventKind::Flush, "", 0, &detail);
        }
        self.buf.clear();
        self.pending = 0;
        Ok(())
    }

    /// A durability barrier: [`flush`](Self::flush), then `sync_data`
    /// when [`with_fsync`](Self::with_fsync) is on. Resume correctness
    /// only needs the flush (the kernel keeps the page cache coherent
    /// across process death); the sync hardens checkpoints against
    /// machine-level loss.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        self.flush()?;
        if self.fsync {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Records appended but not yet flushed to the file.
    pub fn pending(&self) -> usize {
        self.pending
    }
}

/// Where an injected torn write cuts the flush buffer: mid-way through
/// the final record's line, dropping its newline.
fn torn_cut(buf: &[u8]) -> usize {
    debug_assert!(buf.ends_with(b"\n"));
    let body = &buf[..buf.len() - 1];
    let last_start = body.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    last_start + (body.len() - last_start) / 2
}

impl Drop for Manifest {
    /// Best-effort final flush: a cleanly dropped manifest loses
    /// nothing even if the caller never flushed explicitly. If the
    /// flush *fails*, the loss is reported — `pending()` records that
    /// never reached the file — instead of being swallowed.
    fn drop(&mut self) {
        let pending = self.pending;
        if self.flush().is_err() && pending > 0 {
            eprintln!(
                "warning: manifest {}: final flush failed, {pending} unflushed record(s) \
                 lost (their jobs will re-execute on --resume)",
                self.path.display(),
            );
        }
    }
}

/// Result of [`run_with_manifest`]: one record per job in **spec
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

/// [`run_with_manifest_opts`] with default [`SweepOptions`].
///
/// # Errors
///
/// Only manifest I/O fails the sweep; job failures and panics are
/// recorded per job.
pub fn run_with_manifest<P, F>(
    scheduler: &Scheduler,
    progress: &Progress,
    manifest: &mut Manifest,
    jobs: &[(String, P)],
    runner: F,
) -> io::Result<SweepOutcome>
where
    P: Sync,
    F: Fn(&str, &P, &JobCtx) -> Result<Metrics, JobError> + Sync,
{
    run_with_manifest_opts(
        scheduler,
        progress,
        manifest,
        jobs,
        runner,
        SweepOptions::default(),
    )
}

/// Execute `jobs` through `scheduler`, skipping any whose key already
/// has a usable record in `manifest` and **streaming** a record for
/// each fresh execution: records are appended (and batch-flushed) from
/// the worker threads the moment jobs complete, so a crash mid-sweep
/// loses at most the unflushed tail — never the whole pass.
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
    let runs = {
        let shared = Mutex::new(&mut *manifest);
        let append_err: Mutex<Option<io::Error>> = Mutex::new(None);
        let runs = scheduler.run_hooked(
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
        );
        if let Some(e) = append_err.into_inner().unwrap_or_else(|e| e.into_inner()) {
            return Err(e);
        }
        runs
    };
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
        m.flush().unwrap();
        // The file is clean again: both lines parse, nothing to repair.
        let m = Manifest::open(&tmp.0, true).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.get("k2").unwrap().metrics.get("ipc"), Some(2.0));
        assert!(!m.recovery().is_noteworthy());
    }

    #[test]
    fn appends_are_buffered_until_flush_or_drop() {
        let tmp = temp_manifest("buffered");
        let mut m = Manifest::open(&tmp.0, false).unwrap().with_flush_every(3);
        m.append(record("k1", "ok", Some(1.0))).unwrap();
        m.append(record("k2", "ok", Some(2.0))).unwrap();
        // Visible in memory, not yet on disk.
        assert_eq!(m.pending(), 2);
        assert!(m.contains("k2"));
        assert!(Manifest::open(&tmp.0, true).unwrap().is_empty());
        // Third append crosses the threshold and auto-flushes.
        m.append(record("k3", "ok", Some(3.0))).unwrap();
        assert_eq!(m.pending(), 0);
        assert_eq!(Manifest::open(&tmp.0, true).unwrap().len(), 3);
        // A buffered tail reaches the file on drop.
        m.append(record("k4", "ok", Some(4.0))).unwrap();
        assert_eq!(m.pending(), 1);
        drop(m);
        let m = Manifest::open(&tmp.0, true).unwrap();
        assert_eq!(m.len(), 4);
        assert_eq!(m.get("k4").unwrap().metrics.get("ipc"), Some(4.0));
    }

    #[test]
    fn unflushed_tail_is_lost_on_crash_and_reexecutes_on_resume() {
        let tmp = temp_manifest("crash");
        let mut m = Manifest::open(&tmp.0, false).unwrap().with_flush_every(100);
        m.append(record("k1", "ok", Some(1.0))).unwrap();
        m.flush().unwrap();
        m.append(record("k2", "ok", Some(2.0))).unwrap();
        // Simulate a crash: the process dies without flush or drop.
        std::mem::forget(m);
        // Only the flushed prefix survives; k2's job is simply missing
        // and will re-execute under --resume.
        let m = Manifest::open(&tmp.0, true).unwrap();
        assert_eq!(m.len(), 1);
        assert!(m.contains("k1"));
        assert!(!m.contains("k2"));
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
    fn open_with_events_routes_recovery_onto_the_manifest_track() {
        let tmp = temp_manifest("recover-events");
        let good = record("k1", "ok", Some(1.0)).to_json_line();
        let dupe = record("k1", "ok", Some(2.0)).to_json_line();
        // Corrupt line + duplicate key + torn tail: all three damage
        // categories in one file.
        std::fs::write(&tmp.0, format!("garbage\n{good}\n{dupe}\n{{torn")).unwrap();
        let log = Arc::new(EventLog::default());
        let m = Manifest::open_with_events(&tmp.0, true, Some(Arc::clone(&log))).unwrap();
        assert!(m.recovery().is_noteworthy());
        let events = log.drain();
        let recovers: Vec<_> = events
            .iter()
            .filter(|e| e.kind == JobEventKind::Recover)
            .collect();
        assert_eq!(recovers.len(), 3, "one event per damage category");
        for e in &recovers {
            assert_eq!(e.worker, MANIFEST_WORKER);
            assert_eq!(e.key, tmp.0.display().to_string());
        }
        let details: Vec<&str> = recovers.iter().map(|e| e.detail.as_str()).collect();
        assert!(details.iter().any(|d| d.contains("corrupt")), "{details:?}");
        assert!(
            details.iter().any(|d| d.contains("duplicate")),
            "{details:?}"
        );
        assert!(
            details.iter().any(|d| d.contains("torn tail")),
            "{details:?}"
        );
        // The log stays attached: a flush records on the same track.
        drop(m);
        let mut m = Manifest::open_with_events(&tmp.0, true, Some(Arc::clone(&log))).unwrap();
        m.append(record("k2", "ok", Some(3.0))).unwrap();
        m.flush().unwrap();
        assert!(log
            .drain()
            .iter()
            .any(|e| e.kind == JobEventKind::Flush && e.worker == MANIFEST_WORKER));
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
            let out = run_with_manifest(
                &Scheduler::new(1),
                &Progress::new(),
                &mut manifest,
                &jobs,
                run,
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
            // Tear only the second flush (flush index 1).
            let plan = FaultPlan::parse("1:torn@key=flush1").unwrap();
            let mut m = Manifest::open(&tmp.0, false)
                .unwrap()
                .with_flush_every(1)
                .with_faults(plan);
            m.append(record("k1", "ok", Some(1.0))).unwrap(); // flush 0: clean
            m.append(record("k2", "ok", Some(2.0))).unwrap(); // flush 1: torn
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
        let mut m = Manifest::open(&tmp.0, false)
            .unwrap()
            .with_fsync(true)
            .with_flush_every(100);
        m.append(record("k1", "ok", Some(1.0))).unwrap();
        assert_eq!(m.pending(), 1);
        m.checkpoint().unwrap();
        assert_eq!(m.pending(), 0);
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
            let out =
                run_with_manifest(&scheduler, &progress, &mut manifest, &jobs[..3], run).unwrap();
            assert_eq!(out.executed, 3);
            assert_eq!(out.resumed, 0);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 3);

        // Second pass over all six: only the missing three execute.
        let mut manifest = Manifest::open(&tmp.0, true).unwrap();
        let progress = Progress::new();
        let out = run_with_manifest(&scheduler, &progress, &mut manifest, &jobs, run).unwrap();
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
        let out = run_with_manifest(&scheduler, &progress, &mut manifest, &jobs, run).unwrap();
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
        // jobs complete (batched by flush_every), not after the whole
        // pass — otherwise SIGKILL mid-run loses everything.
        let tmp = temp_manifest("stream");
        let jobs: Vec<(String, u64)> = (0..4).map(|i| (format!("job{i}"), i)).collect();
        let mut manifest = Manifest::open(&tmp.0, false).unwrap().with_flush_every(1);
        let progress = Progress::new();
        let path = tmp.0.clone();
        let out = run_with_manifest(
            &Scheduler::new(1),
            &progress,
            &mut manifest,
            &jobs,
            move |key: &str, i: &u64, _ctx: &JobCtx| {
                if key == "job3" {
                    // By the time the last job runs, the first three
                    // records are already durable on disk.
                    let text = std::fs::read_to_string(&path).unwrap();
                    let on_disk = text.lines().count();
                    assert!(on_disk >= 3, "only {on_disk} records on disk before job3");
                }
                Ok(Metrics::from([("x", *i as f64)]))
            },
        )
        .unwrap();
        assert_eq!(out.executed, 4);
    }
}
