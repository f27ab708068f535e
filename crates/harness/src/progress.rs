//! Sweep progress wired into `atc-obs`.
//!
//! The scheduler's workers report through a shared [`Progress`], whose
//! counters are plain `AtomicU64`s so a sampler thread (see
//! `atc_bench::stream`) can read a consistent-enough snapshot at any
//! cadence without ever contending with the workers:
//!
//! | name                    | kind      | meaning                              |
//! |-------------------------|-----------|--------------------------------------|
//! | `harness.jobs_queued`   | counter   | jobs submitted to the scheduler      |
//! | `harness.jobs_running`  | gauge     | jobs currently executing             |
//! | `harness.jobs_done`     | counter   | jobs that returned `Ok`              |
//! | `harness.jobs_failed`   | counter   | jobs that exhausted their attempts   |
//! | `harness.jobs_panicked` | counter   | jobs whose runner panicked           |
//! | `harness.jobs_retried`  | counter   | transient-error retry attempts       |
//! | `harness.jobs_resumed`  | counter   | jobs satisfied from a manifest       |
//! | `harness.jobs_timeout`  | counter   | attempts cancelled by the deadline   |
//! | `harness.corrupt_records`   | counter | manifest lines skipped by recovery |
//! | `harness.duplicate_records` | counter | manifest records superseded by a   |
//! |                             |         | later write for the same key       |
//! | `harness.instrs_done`   | counter   | instructions simulated by finished jobs |
//! | `harness.job_wall_us`   | histogram | per-job wall time, microseconds      |
//!
//! Worker-side updates are lock-free `Relaxed` RMWs — each counter is
//! independent, and the delta stream only needs per-counter (not
//! cross-counter) consistency to telescope. The one non-atomic piece,
//! the wall-time histogram, stays behind a mutex taken once per job
//! terminal status; [`snapshot`](Progress::snapshot) rebuilds the
//! ordinary [`Registry`] the rest of the telemetry stack consumes.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Duration;

use atc_obs::{Log2Histogram, Registry};

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
}

impl Progress {
    /// A fresh progress registry with every counter at zero.
    pub fn new() -> Self {
        Progress::default()
    }

    /// `n` jobs submitted to the scheduler.
    pub fn jobs_queued(&self, n: u64) {
        self.queued.fetch_add(n, Relaxed);
    }

    /// A job began executing.
    pub fn job_started(&self) {
        self.running.fetch_add(1, Relaxed);
    }

    /// A job reached a terminal status (`"ok"`, `"failed"` or
    /// `"panicked"`) after `wall_micros` of wall time.
    pub fn job_finished(&self, tag: &str, wall_micros: u64) {
        // Saturating decrement: the gauge must not wrap, whatever order
        // a lost worker's job is reported in.
        let _ = self
            .running
            .fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(1)));
        let id = match tag {
            "ok" => &self.done,
            "failed" => &self.failed,
            _ => &self.panicked,
        };
        id.fetch_add(1, Relaxed);
        self.lock_hist().record(wall_micros);
    }

    /// A transient failure is being retried.
    pub fn job_retried(&self) {
        self.retried.fetch_add(1, Relaxed);
    }

    /// `n` jobs were satisfied from the manifest without executing.
    pub fn jobs_resumed(&self, n: u64) {
        self.resumed.fetch_add(n, Relaxed);
    }

    /// The deadline watchdog cancelled a running attempt.
    pub fn job_timeout(&self) {
        self.timeout.fetch_add(1, Relaxed);
    }

    /// Manifest recovery skipped `n` corrupt records.
    pub fn corrupt_records(&self, n: u64) {
        self.corrupt.fetch_add(n, Relaxed);
    }

    /// Manifest recovery superseded `n` duplicate records (last writer
    /// wins).
    pub fn duplicate_records(&self, n: u64) {
        self.duplicate.fetch_add(n, Relaxed);
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

    #[test]
    fn lifecycle_counters_track_one_job() {
        let p = Progress::new();
        p.jobs_queued(3);
        p.job_started();
        let snap = p.snapshot();
        assert_eq!(snap.counter_value("harness.jobs_running"), Some(1));
        p.job_retried();
        p.job_finished("ok", 1234);
        p.jobs_resumed(2);
        p.job_timeout();
        p.corrupt_records(3);
        p.duplicate_records(1);
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
        p.job_started();
        p.job_finished("failed", 1);
        p.job_started();
        p.job_finished("panicked", 1);
        let snap = p.snapshot();
        assert_eq!(snap.counter_value("harness.jobs_failed"), Some(1));
        assert_eq!(snap.counter_value("harness.jobs_panicked"), Some(1));
        assert_eq!(snap.counter_value("harness.jobs_running"), Some(0));
    }

    #[test]
    fn running_gauge_saturates_at_zero() {
        let p = Progress::new();
        p.job_finished("ok", 1);
        let snap = p.snapshot();
        assert_eq!(snap.counter_value("harness.jobs_running"), Some(0));
    }

    #[test]
    fn live_line_renders_rates_and_eta() {
        let progress = Progress::new();
        progress.jobs_queued(8);
        for _ in 0..4 {
            progress.job_started();
            progress.add_instructions(500_000);
            progress.job_finished("ok", 100);
        }
        progress.job_started();
        let snap = progress.snapshot();
        let line = live_line(&snap, 8, Duration::from_secs(2), (12, 4 * 1024 * 1024));
        assert_eq!(
            line,
            "progress: 4/8 done, 1 inflight, 0 retried, 1.00M instr/s, ETA 2s, \
             cache 12 streams / 4.0 MiB"
        );
    }
}
