//! Sweep progress wired into `atc-obs`: the one place a job lifecycle
//! transition is reported.
//!
//! The worker loop, the attempt loop, the deadline watchdog, the fault
//! plan and [`run_with_manifest_opts`](crate::run_with_manifest_opts)
//! each make one call per transition — [`claimed`](Progress::claimed),
//! [`started`](Progress::started), [`retried`](Progress::retried),
//! [`timed_out`](Progress::timed_out), [`cancelled`](Progress::cancelled),
//! [`faulted`](Progress::faulted), [`finished`](Progress::finished),
//! [`recovered`](Progress::recovered). That call updates the counters
//! below and, when the `Progress` was built with
//! [`traced`](Progress::traced), also stores the transition as a
//! [`JobEvent`](crate::JobEvent) in the bounded timeline. Every counter
//! named after a transition is therefore a fold over that timeline.
//!
//! The counters are plain `AtomicU64`s so a sampler thread (see
//! `atc_bench::stream`) can read a consistent-enough snapshot at any
//! cadence without ever contending with the workers:
//!
//! | name                    | kind      | meaning                              |
//! |-------------------------|-----------|--------------------------------------|
//! | `harness.jobs_queued`   | counter   | jobs submitted to the scheduler      |
//! | `harness.jobs_running`  | gauge     | jobs claimed and not yet finished    |
//! | `harness.jobs_done`     | counter   | jobs that finished `ok`              |
//! | `harness.jobs_failed`   | counter   | jobs that finished `failed`          |
//! | `harness.jobs_panicked` | counter   | jobs that finished `panicked`        |
//! | `harness.jobs_retried`  | counter   | transient-error retry attempts       |
//! | `harness.jobs_resumed`  | counter   | jobs satisfied from a manifest       |
//! | `harness.jobs_timeout`  | counter   | attempts cancelled by the deadline   |
//! | `harness.corrupt_records`   | counter | manifest lines skipped by recovery |
//! | `harness.duplicate_records` | counter | manifest records superseded by a   |
//! |                             |         | later write for the same key       |
//! | `harness.instrs_done`   | counter   | instructions simulated by finished jobs |
//! | `harness.job_wall_us`   | histogram | per-job wall time, microseconds      |
//!
//! Counter updates are lock-free `Relaxed` RMWs — each counter is
//! independent, and the delta stream only needs per-counter (not
//! cross-counter) consistency to telescope. The wall-time histogram
//! stays behind a mutex taken once per finished job, and a traced
//! timeline takes its own mutex once per transition;
//! [`snapshot`](Progress::snapshot) rebuilds the ordinary [`Registry`]
//! the rest of the telemetry stack consumes.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use atc_obs::{Log2Histogram, Registry};

use crate::events::{EventLog, JobEventKind, MANIFEST_WORKER};
use crate::scheduler::JobRun;

/// Thread-safe progress accounting for one scheduler run (or several —
/// counters accumulate across `run` calls on the same `Progress`).
#[derive(Debug, Default)]
pub struct Progress {
    queued: AtomicU64,
    running: AtomicU64,
    done: AtomicU64,
    failed: AtomicU64,
    panicked: AtomicU64,
    retried: AtomicU64,
    resumed: AtomicU64,
    timeout: AtomicU64,
    corrupt: AtomicU64,
    duplicate: AtomicU64,
    instrs: AtomicU64,
    wall_us: Mutex<Log2Histogram>,
    timeline: Option<Arc<EventLog>>,
}

impl Progress {
    /// A fresh progress registry with every counter at zero and no
    /// timeline.
    pub fn new() -> Self {
        Progress::default()
    }

    /// A fresh progress registry that also stores every reported
    /// transition in `timeline`, which the caller drains after the run
    /// (the suite's `--trace-out`).
    pub fn traced(timeline: Arc<EventLog>) -> Self {
        Progress {
            timeline: Some(timeline),
            ..Progress::default()
        }
    }

    /// Store one transition in the timeline, if there is one.
    fn event(&self, worker: u32, kind: JobEventKind, key: &str, attempt: u32, detail: &str) {
        if let Some(log) = &self.timeline {
            log.record(worker, kind, key, attempt, detail);
        }
    }

    /// `n` jobs submitted to the scheduler.
    pub fn jobs_queued(&self, n: u64) {
        self.queued.fetch_add(n, Relaxed);
    }

    /// `n` jobs were satisfied from the manifest without executing.
    pub fn jobs_resumed(&self, n: u64) {
        self.resumed.fetch_add(n, Relaxed);
    }

    /// Worker `worker` claimed job `key`; it runs until
    /// [`finished`](Self::finished).
    pub fn claimed(&self, worker: u32, key: &str) {
        self.running.fetch_add(1, Relaxed);
        self.event(worker, JobEventKind::Claim, key, 0, "");
    }

    /// Attempt `attempt` of job `key` began executing.
    pub fn started(&self, worker: u32, key: &str, attempt: u32) {
        self.event(worker, JobEventKind::Start, key, attempt, "");
    }

    /// Attempt `attempt` of job `key` failed transiently (`why`);
    /// another attempt follows.
    pub fn retried(&self, worker: u32, key: &str, attempt: u32, why: &str) {
        self.retried.fetch_add(1, Relaxed);
        self.event(worker, JobEventKind::Retry, key, attempt, why);
    }

    /// The deadline watchdog cancelled the attempt running on `worker`
    /// (whose key the worker's concurrent start names).
    pub fn timed_out(&self, worker: u32) {
        self.timeout.fetch_add(1, Relaxed);
        self.event(worker, JobEventKind::Timeout, "", 0, "deadline exceeded");
    }

    /// Attempt `attempt` of job `key` ended with its cancel token
    /// cancelled.
    pub fn cancelled(&self, worker: u32, key: &str, attempt: u32) {
        self.event(
            worker,
            JobEventKind::Cancel,
            key,
            attempt,
            "attempt token cancelled",
        );
    }

    /// The fault plan injected `what` into attempt `attempt` of job
    /// `key`.
    pub fn faulted(&self, worker: u32, key: &str, attempt: u32, what: &str) {
        self.event(worker, JobEventKind::Fault, key, attempt, what);
    }

    /// `run` reached its terminal status on `worker`. The scheduler
    /// reports each job here exactly once, after its completion hook
    /// returned.
    pub fn finished<R>(&self, worker: u32, run: &JobRun<R>) {
        // Saturating decrement: the gauge must not wrap, whatever order
        // a lost worker's job is reported in.
        let _ = self
            .running
            .fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(1)));
        let tag = run.status.tag();
        let id = match tag {
            "ok" => &self.done,
            "failed" => &self.failed,
            _ => &self.panicked,
        };
        id.fetch_add(1, Relaxed);
        self.lock_hist().record(run.wall_micros);
        self.event(worker, JobEventKind::Finish, &run.key, run.attempts, tag);
    }

    /// Manifest recovery at `path` skipped `corrupt` lines, superseded
    /// `duplicates` records and, with `torn_tail`, truncated a torn
    /// tail: one `recover` event each, on the manifest's track.
    pub fn recovered(&self, path: &Path, corrupt: usize, duplicates: usize, torn_tail: bool) {
        self.corrupt.fetch_add(corrupt as u64, Relaxed);
        self.duplicate.fetch_add(duplicates as u64, Relaxed);
        if self.timeline.is_none() {
            return;
        }
        let key = path.display().to_string();
        let recover =
            |detail: &str| self.event(MANIFEST_WORKER, JobEventKind::Recover, &key, 0, detail);
        (0..corrupt).for_each(|_| recover("corrupt line skipped"));
        (0..duplicates).for_each(|_| recover("duplicate record superseded"));
        if torn_tail {
            recover("torn tail truncated");
        }
    }

    /// A finished job simulated `n` instructions (feeds the live
    /// reporter's aggregate instructions/s).
    pub fn add_instructions(&self, n: u64) {
        self.instrs.fetch_add(n, Relaxed);
    }

    fn lock_hist(&self) -> std::sync::MutexGuard<'_, Log2Histogram> {
        // The histogram holds plain integers; a panic cannot leave it
        // inconsistent, so poison is safe to ignore.
        self.wall_us.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// An owned snapshot of the registry (counters and the wall-time
    /// histogram) for printing, export, or delta streaming. Counter
    /// reads are relaxed atomic loads — a sampler calling this
    /// mid-sweep costs the workers nothing.
    pub fn snapshot(&self) -> Registry {
        let mut reg = Registry::new();
        for (name, v) in [
            ("harness.jobs_queued", &self.queued),
            ("harness.jobs_running", &self.running),
            ("harness.jobs_done", &self.done),
            ("harness.jobs_failed", &self.failed),
            ("harness.jobs_panicked", &self.panicked),
            ("harness.jobs_retried", &self.retried),
            ("harness.jobs_resumed", &self.resumed),
            ("harness.jobs_timeout", &self.timeout),
            ("harness.corrupt_records", &self.corrupt),
            ("harness.duplicate_records", &self.duplicate),
            ("harness.instrs_done", &self.instrs),
        ] {
            let id = reg.counter(name);
            reg.set(id, v.load(Relaxed));
        }
        let id = reg.histogram("harness.job_wall_us");
        reg.merge_histogram(id, &self.lock_hist());
        reg
    }
}

/// The live stderr progress line for `snap`, a [`Progress`] snapshot
/// taken `elapsed` into a sweep of `total_jobs`: jobs done / inflight /
/// retried, aggregate instructions per second, an ETA extrapolated from
/// the completion rate, and the stream cache's residency `(streams,
/// footprint_bytes)`.
pub fn live_line(
    snap: &Registry,
    total_jobs: u64,
    elapsed: Duration,
    (streams, bytes): (usize, usize),
) -> String {
    let c = |name: &str| snap.counter_value(name).unwrap_or(0);
    let terminal = c("harness.jobs_done") + c("harness.jobs_failed") + c("harness.jobs_panicked");
    let secs = elapsed.as_secs_f64().max(1e-9);
    let mut line = format!(
        "progress: {terminal}/{total_jobs} done, {} inflight, {} retried",
        c("harness.jobs_running"),
        c("harness.jobs_retried"),
    );
    let instrs = c("harness.instrs_done");
    if instrs > 0 {
        line.push_str(&format!(", {:.2}M instr/s", instrs as f64 / secs / 1e6));
    }
    if terminal > 0 && terminal < total_jobs {
        let eta = secs / terminal as f64 * (total_jobs - terminal) as f64;
        line.push_str(&format!(", ETA {eta:.0}s"));
    }
    line.push_str(&format!(
        ", cache {streams} streams / {:.1} MiB",
        bytes as f64 / (1024.0 * 1024.0)
    ));
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{JobError, JobStatus};

    fn run(status: JobStatus<()>, wall_micros: u64) -> JobRun<()> {
        JobRun {
            key: "job".into(),
            attempts: 1,
            wall_micros,
            status,
        }
    }

    fn ok(wall_micros: u64) -> JobRun<()> {
        run(JobStatus::Ok(()), wall_micros)
    }

    #[test]
    fn lifecycle_counters_track_one_job() {
        let p = Progress::new();
        p.jobs_queued(3);
        p.claimed(0, "job");
        let snap = p.snapshot();
        assert_eq!(snap.counter_value("harness.jobs_running"), Some(1));
        p.started(0, "job", 1);
        p.retried(0, "job", 1, "flaky");
        p.finished(0, &ok(1234));
        p.jobs_resumed(2);
        p.timed_out(0);
        p.recovered(Path::new("m.jsonl"), 3, 1, true);
        p.add_instructions(20_000);
        let snap = p.snapshot();
        assert_eq!(snap.counter_value("harness.jobs_queued"), Some(3));
        assert_eq!(snap.counter_value("harness.jobs_running"), Some(0));
        assert_eq!(snap.counter_value("harness.jobs_done"), Some(1));
        assert_eq!(snap.counter_value("harness.jobs_retried"), Some(1));
        assert_eq!(snap.counter_value("harness.jobs_resumed"), Some(2));
        assert_eq!(snap.counter_value("harness.jobs_timeout"), Some(1));
        assert_eq!(snap.counter_value("harness.corrupt_records"), Some(3));
        assert_eq!(snap.counter_value("harness.duplicate_records"), Some(1));
        assert_eq!(snap.counter_value("harness.instrs_done"), Some(20_000));
        let hist = snap.histogram_by_name("harness.job_wall_us").unwrap();
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.sum(), 1234);
    }

    #[test]
    fn failed_and_panicked_route_to_their_counters() {
        let p = Progress::new();
        p.claimed(0, "job");
        p.finished(0, &run(JobStatus::Failed(JobError::permanent("x")), 1));
        p.claimed(0, "job");
        p.finished(0, &run(JobStatus::Panicked("boom".into()), 1));
        let snap = p.snapshot();
        assert_eq!(snap.counter_value("harness.jobs_failed"), Some(1));
        assert_eq!(snap.counter_value("harness.jobs_panicked"), Some(1));
        assert_eq!(snap.counter_value("harness.jobs_running"), Some(0));
    }

    #[test]
    fn running_gauge_saturates_at_zero() {
        let p = Progress::new();
        p.finished(0, &ok(1));
        let snap = p.snapshot();
        assert_eq!(snap.counter_value("harness.jobs_running"), Some(0));
    }

    #[test]
    fn traced_progress_stores_each_transition_once() {
        let log = Arc::new(EventLog::new(64));
        let p = Progress::traced(Arc::clone(&log));
        p.claimed(2, "job");
        p.started(2, "job", 1);
        p.faulted(2, "job", 1, "transient");
        p.retried(2, "job", 1, "transient");
        p.started(2, "job", 2);
        p.timed_out(2);
        p.cancelled(2, "job", 2);
        p.finished(2, &ok(5));
        p.recovered(Path::new("m.jsonl"), 2, 1, true);
        let kinds: Vec<&str> = log.drain().iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            kinds,
            [
                "claim", "start", "fault", "retry", "start", "timeout", "cancel", "finish",
                "recover", "recover", "recover", "recover"
            ]
        );
        // An untraced Progress keeps the same counters and no events.
        let untraced = Progress::new();
        untraced.recovered(Path::new("m.jsonl"), 2, 1, true);
        assert_eq!(
            untraced.snapshot().counter_value("harness.corrupt_records"),
            Some(2)
        );
    }

    #[test]
    fn live_line_renders_rates_and_eta() {
        let progress = Progress::new();
        progress.jobs_queued(8);
        for _ in 0..4 {
            progress.claimed(0, "job");
            progress.add_instructions(500_000);
            progress.finished(0, &ok(100));
        }
        progress.claimed(0, "job");
        let snap = progress.snapshot();
        let line = live_line(&snap, 8, Duration::from_secs(2), (12, 4 * 1024 * 1024));
        assert_eq!(
            line,
            "progress: 4/8 done, 1 inflight, 0 retried, 1.00M instr/s, ETA 2s, \
             cache 12 streams / 4.0 MiB"
        );
    }
}
