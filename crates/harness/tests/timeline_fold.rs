//! The harness counters are a fold over the lifecycle timeline.
//!
//! Every transition is reported by one call to `Progress`, which counts
//! it and, when traced, stores it as an event. So after a faulted pass
//! (injected panics, transient errors, stalls cut short by the deadline
//! and torn appends) and a healing resume over a manifest with a planted
//! corrupt line, each `harness.*` counter must equal the number of its
//! events in the timeline, and each job's events must read claim →
//! start → … → finish on one worker's track.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use atc_harness::{
    run_with_manifest_opts, EventLog, FaultPlan, JobCtx, JobError, JobEvent, JobEventKind,
    Manifest, Metrics, Progress, Scheduler, SweepOptions, MANIFEST_WORKER,
};

const JOBS: usize = 24;

struct TempPath(PathBuf);
impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn runner(_key: &str, i: &u64, ctx: &JobCtx) -> Result<Metrics, JobError> {
    if ctx.cancel.is_cancelled() {
        return Err(JobError::permanent("cancelled by deadline"));
    }
    Ok(Metrics::from([("i", *i as f64)]))
}

/// Check one pass's events job by job: exactly one claim first and one
/// finish last, every event on the claiming worker's track, and one
/// start per attempt the finish reports.
fn check_job_timelines(events: &[JobEvent], jobs: &[(String, u64)], executed: usize) {
    let mut by_key: BTreeMap<&str, Vec<&JobEvent>> = BTreeMap::new();
    for e in events {
        if matches!(e.kind, JobEventKind::Timeout | JobEventKind::Recover) {
            continue;
        }
        by_key.entry(e.key.as_str()).or_default().push(e);
    }
    assert_eq!(by_key.len(), executed, "one timeline per executed job");
    for (key, evs) in &by_key {
        assert!(jobs.iter().any(|(k, _)| k == key), "unknown key {key}");
        let kinds: Vec<JobEventKind> = evs.iter().map(|e| e.kind).collect();
        let count = |kind| kinds.iter().filter(|&&k| k == kind).count();
        assert_eq!(
            kinds.first(),
            Some(&JobEventKind::Claim),
            "{key}: {kinds:?}"
        );
        assert_eq!(
            kinds.last(),
            Some(&JobEventKind::Finish),
            "{key}: {kinds:?}"
        );
        assert_eq!(count(JobEventKind::Claim), 1, "{key}: {kinds:?}");
        assert_eq!(count(JobEventKind::Finish), 1, "{key}: {kinds:?}");
        assert_eq!(kinds[1], JobEventKind::Start, "{key}: {kinds:?}");
        let finish = evs.last().unwrap();
        assert_eq!(
            count(JobEventKind::Start) as u32,
            finish.attempt,
            "{key}: one start per attempt: {kinds:?}"
        );
        assert!(
            evs.iter().all(|e| e.worker == evs[0].worker),
            "{key}: events span several tracks"
        );
    }
}

#[test]
fn counters_are_a_fold_over_the_timeline() {
    let tmp = TempPath(
        std::env::temp_dir().join(format!("atc-harness-fold-{}.jsonl", std::process::id())),
    );
    let jobs: Vec<(String, u64)> = (0..JOBS as u64).map(|i| (format!("job{i}"), i)).collect();
    let log = Arc::new(EventLog::default());
    let progress = Progress::traced(Arc::clone(&log));

    // Faulted pass: injected stalls outlast the deadline, so the
    // watchdog cancels those attempts mid-stall.
    let plan = FaultPlan::parse("5:panic@0.15,transient@0.3,stall100@0.2,torn@0.25").unwrap();
    let scheduler = Scheduler::new(2)
        .with_retries(2)
        .with_deadline(Duration::from_millis(10))
        .with_faults(plan.clone());
    let mut manifest = Manifest::open(&tmp.0, false).unwrap().with_faults(plan);
    let faulted = run_with_manifest_opts(
        &scheduler,
        &progress,
        &mut manifest,
        &jobs,
        runner,
        SweepOptions::default(),
    )
    .unwrap();
    drop(manifest);
    let mut events = log.drain();
    check_job_timelines(&events, &jobs, faulted.executed);
    let tally = |status: &str| {
        faulted
            .records
            .iter()
            .filter(|r| r.status == status)
            .count()
    };
    assert!(tally("panicked") > 0, "no injected panic fired");
    assert!(tally("failed") > 0, "no attempt failed");

    // Healing pass: faults off, a corrupt line planted ahead of the
    // records, failed and panicked records re-executed.
    let text = std::fs::read_to_string(&tmp.0).unwrap();
    std::fs::write(&tmp.0, format!("planted corrupt line\n{text}")).unwrap();
    let mut manifest = Manifest::open(&tmp.0, true).unwrap();
    let torn = manifest.recovery().corrupt > 1 || manifest.recovery().torn_tail;
    assert!(torn, "no injected torn append reached the file");
    let healed = run_with_manifest_opts(
        &Scheduler::new(2),
        &progress,
        &mut manifest,
        &jobs,
        runner,
        SweepOptions { retry_failed: true },
    )
    .unwrap();
    assert!(healed.records.iter().all(|r| r.is_ok()));
    let resumed_events = log.drain();
    check_job_timelines(&resumed_events, &jobs, healed.executed);
    events.extend(resumed_events);
    assert_eq!(log.dropped(), 0);

    let snap = progress.snapshot();
    let counter = |name: &str| snap.counter_value(name).unwrap();
    let of = |kind: JobEventKind, detail: Option<&str>| {
        events
            .iter()
            .filter(|e| e.kind == kind && detail.is_none_or(|d| e.detail == d))
            .count() as u64
    };
    assert!(counter("harness.jobs_retried") > 0, "no transient retry");
    assert!(counter("harness.jobs_timeout") > 0, "no deadline timeout");
    assert!(
        counter("harness.duplicate_records") > 0,
        "nothing superseded"
    );
    assert_eq!(
        counter("harness.jobs_queued"),
        of(JobEventKind::Claim, None)
    );
    assert_eq!(
        counter("harness.jobs_done"),
        of(JobEventKind::Finish, Some("ok"))
    );
    assert_eq!(
        counter("harness.jobs_failed"),
        of(JobEventKind::Finish, Some("failed"))
    );
    assert_eq!(
        counter("harness.jobs_panicked"),
        of(JobEventKind::Finish, Some("panicked"))
    );
    assert_eq!(
        counter("harness.jobs_running"),
        of(JobEventKind::Claim, None) - of(JobEventKind::Finish, None)
    );
    assert_eq!(counter("harness.jobs_running"), 0);
    assert_eq!(
        counter("harness.jobs_retried"),
        of(JobEventKind::Retry, None)
    );
    assert_eq!(
        counter("harness.jobs_timeout"),
        of(JobEventKind::Timeout, None)
    );
    assert_eq!(
        counter("harness.corrupt_records"),
        of(JobEventKind::Recover, Some("corrupt line skipped"))
    );
    assert_eq!(
        counter("harness.duplicate_records"),
        of(JobEventKind::Recover, Some("duplicate record superseded"))
    );
    assert!(events
        .iter()
        .filter(|e| e.kind == JobEventKind::Recover)
        .all(|e| e.worker == MANIFEST_WORKER));
    // Counters with no transition of their own.
    assert_eq!(
        counter("harness.jobs_resumed"),
        (healed.resumed + faulted.resumed) as u64
    );
    let wall = snap.histogram_by_name("harness.job_wall_us").unwrap();
    assert_eq!(wall.count(), of(JobEventKind::Finish, None));
}
