//! Harness lifecycle events: a bounded, timestamped log of what every
//! worker did, precise enough to reconstruct each worker's timeline.
//!
//! A [`Progress`](crate::Progress) built with
//! [`Progress::traced`](crate::Progress::traced) owns an [`EventLog`]:
//! every lifecycle transition it is told about (claim, start, retry,
//! timeout, cancel, fault, finish, recover) updates its counters *and*
//! lands here as one [`JobEvent`]. An untraced `Progress` keeps only
//! the counters. After the run, the suite drains the log and renders it
//! as a Chrome/Perfetto trace-event timeline — one track per worker,
//! plus the manifest's — via `atc_bench::trace_event` (`--trace-out`).
//!
//! The log is bounded: past `capacity` events, new records are counted
//! in [`dropped`](EventLog::dropped) instead of growing without limit.
//! Recording takes a mutex, but only once per job lifecycle transition,
//! never on the simulator's per-instruction hot path.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// Synthetic worker id for the manifest's own track (recovery events).
pub const MANIFEST_WORKER: u32 = u32::MAX - 1;

/// What happened to a job (or the harness around it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobEventKind {
    /// A worker pulled the job from the queue.
    Claim,
    /// An attempt began executing.
    Start,
    /// A transient failure; another attempt will follow after backoff.
    Retry,
    /// The deadline watchdog cancelled the running attempt.
    Timeout,
    /// The attempt observed its cancel token cancelled when it ended.
    Cancel,
    /// The job reached a terminal status (detail = `ok`/`failed`/…).
    Finish,
    /// The fault plan injected a fault (detail names it).
    Fault,
    /// Manifest recovery repaired one thing (detail = a skipped corrupt
    /// line, a superseded duplicate record, or a truncated torn tail).
    Recover,
}

impl JobEventKind {
    /// Stable lowercase label (trace-event name).
    pub fn label(self) -> &'static str {
        match self {
            JobEventKind::Claim => "claim",
            JobEventKind::Start => "start",
            JobEventKind::Retry => "retry",
            JobEventKind::Timeout => "timeout",
            JobEventKind::Cancel => "cancel",
            JobEventKind::Finish => "finish",
            JobEventKind::Fault => "fault",
            JobEventKind::Recover => "recover",
        }
    }
}

/// One timestamped lifecycle event.
#[derive(Debug, Clone)]
pub struct JobEvent {
    /// Microseconds since the log was created.
    pub t_us: u64,
    /// Worker index, or [`MANIFEST_WORKER`].
    pub worker: u32,
    /// What happened.
    pub kind: JobEventKind,
    /// Job key (the manifest path for recovery events; empty for a
    /// timeout, whose key the worker's concurrent start names).
    pub key: String,
    /// Attempt number (1-based; 0 where not applicable).
    pub attempt: u32,
    /// Free-form detail: terminal status, fault name, what recovery
    /// repaired.
    pub detail: String,
}

/// Bounded, shared, timestamped event log.
#[derive(Debug)]
pub struct EventLog {
    start: Instant,
    events: Mutex<Vec<JobEvent>>,
    capacity: usize,
    dropped: AtomicU64,
}

/// Default capacity: generous for a full sweep (a job contributes a
/// handful of events), small next to one simulation's working set.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new(DEFAULT_EVENT_CAPACITY)
    }
}

impl EventLog {
    /// A log holding at most `capacity` events (at least one).
    pub fn new(capacity: usize) -> Self {
        EventLog {
            start: Instant::now(),
            events: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Microseconds since the log was created (the timeline origin).
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Record one event, dropping (and counting) it past capacity.
    pub fn record(&self, worker: u32, kind: JobEventKind, key: &str, attempt: u32, detail: &str) {
        let ev = JobEvent {
            t_us: self.now_us(),
            worker,
            kind,
            key: key.to_string(),
            attempt,
            detail: detail.to_string(),
        };
        let mut events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        if events.len() >= self.capacity {
            self.dropped.fetch_add(1, Relaxed);
            return;
        }
        events.push(ev);
    }

    /// Events recorded but not kept (log at capacity).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take every event, oldest-first by record order (timestamps are
    /// monotone per worker; cross-worker order is the lock order).
    pub fn drain(&self) -> Vec<JobEvent> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_timestamped_events_in_order() {
        let log = EventLog::new(16);
        log.record(0, JobEventKind::Claim, "job/a", 0, "");
        log.record(0, JobEventKind::Start, "job/a", 1, "");
        log.record(1, JobEventKind::Finish, "job/b", 1, "ok");
        let events = log.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, JobEventKind::Claim);
        assert_eq!(events[2].detail, "ok");
        assert!(events[0].t_us <= events[1].t_us);
        assert!(log.is_empty(), "drain empties the log");
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn capacity_bounds_the_log() {
        let log = EventLog::new(2);
        for i in 0..5 {
            log.record(0, JobEventKind::Start, "k", i, "");
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
    }

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(JobEventKind::Claim.label(), "claim");
        assert_eq!(JobEventKind::Fault.label(), "fault");
        assert_eq!(JobEventKind::Recover.label(), "recover");
    }
}
