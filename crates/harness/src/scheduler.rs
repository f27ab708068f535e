//! Bounded worker pool with per-job panic capture, bounded retry,
//! deadlines, and deterministic fault injection.
//!
//! A fixed pool of workers runs over [`std::thread::scope`] — no
//! detached threads, no unsafe, no external crates. The workers share
//! one atomic cursor over the job list: each claims the next index in
//! spec order until the cursor passes the end, then exits. Each
//! finished job lands in its own result slot, so results come back in
//! **spec order** (the order jobs were submitted), regardless of
//! completion order, and downstream aggregation is deterministic for
//! any worker count.
//!
//! Failure containment, per job:
//! * a panic inside the runner is caught ([`std::panic::catch_unwind`])
//!   and becomes [`JobStatus::Panicked`] — it never takes down the pool
//!   and is never retried;
//! * a [`JobError`] marked `transient` (e.g. the simulator's deadlock
//!   watchdog) is retried up to the configured bound — after a seeded
//!   exponential backoff when one is configured — then recorded as
//!   [`JobStatus::Failed`] with any salvaged partial metrics;
//! * a permanent `JobError` fails immediately;
//! * with a per-job deadline configured, a watchdog thread cancels the
//!   over-budget attempt's [`CancelToken`]; a cooperative runner winds
//!   down with partial metrics and the job fails permanently (the same
//!   deadline would cancel a retry too);
//! * a panic that escapes a worker (say, from the completion hook of
//!   [`Scheduler::run_hooked`]) loses that worker and only its
//!   in-flight job, which comes back [`JobStatus::Panicked`]; the other
//!   workers keep claiming from the cursor.
//!
//! Every attempt receives a [`JobCtx`] carrying its cancellation token
//! and attempt number; runners that ignore it keep working unchanged
//! (cancellation is cooperative). An optional [`FaultPlan`] injects
//! panics, transient errors, and stalls *around* the runner for
//! robustness smokes — `None` costs one branch per attempt.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use atc_types::CancelToken;

use crate::events::{EventLog, JobEventKind};
use crate::fault::{backoff_delay, FaultPlan};
use crate::manifest::Metrics;
use crate::progress::Progress;

/// A job failure reported by the runner (as opposed to a panic).
#[derive(Debug, Clone, PartialEq)]
pub struct JobError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Whether retrying the job could plausibly succeed (e.g. a
    /// watchdog-triggered deadlock heuristic). Permanent errors —
    /// invalid configs, workload errors, cancelled deadlines — must set
    /// this `false`.
    pub transient: bool,
    /// Metrics salvaged from a partial run, if the runner could produce
    /// any before failing.
    pub partial: Option<Metrics>,
}

impl JobError {
    /// A permanent failure with no salvaged metrics.
    pub fn permanent(message: impl Into<String>) -> Self {
        JobError {
            message: message.into(),
            transient: false,
            partial: None,
        }
    }

    /// A transient failure (eligible for retry).
    pub fn transient(message: impl Into<String>) -> Self {
        JobError {
            message: message.into(),
            transient: true,
            partial: None,
        }
    }

    /// Attach salvaged partial metrics.
    pub fn with_partial(mut self, partial: Metrics) -> Self {
        self.partial = Some(partial);
        self
    }
}

/// Terminal outcome of one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus<R> {
    /// The runner returned a result.
    Ok(R),
    /// The runner returned an error on every attempt.
    Failed(JobError),
    /// The runner panicked (message extracted from the payload when it
    /// is a string).
    Panicked(String),
}

impl<R> JobStatus<R> {
    /// Short status tag used in manifests and summaries.
    pub fn tag(&self) -> &'static str {
        match self {
            JobStatus::Ok(_) => "ok",
            JobStatus::Failed(_) => "failed",
            JobStatus::Panicked(_) => "panicked",
        }
    }
}

/// One executed job: its key, how many attempts it took, how long it
/// ran, and how it ended.
#[derive(Debug, Clone)]
pub struct JobRun<R> {
    /// The job's deterministic key.
    pub key: String,
    /// Attempts consumed (1 = first try succeeded or failed permanently).
    pub attempts: u32,
    /// Wall-clock time across all attempts, in microseconds.
    pub wall_micros: u64,
    /// Terminal status.
    pub status: JobStatus<R>,
}

/// Per-attempt context handed to the runner.
///
/// `cancel` is a fresh token per attempt; the deadline watchdog (when
/// configured) cancels it once the attempt overruns its budget, and a
/// cooperative runner — e.g. one passing it to the simulator's
/// `Machine::run_cancellable`, `run_smt` or `run_multicore` — winds
/// down with partial metrics.
#[derive(Debug, Clone)]
pub struct JobCtx {
    /// Cooperative cancellation flag for this attempt.
    pub cancel: CancelToken,
    /// Attempt number, starting at 1.
    pub attempt: u32,
}

/// Fixed-size worker pool over one shared job cursor.
#[derive(Debug, Clone, Default)]
pub struct Scheduler {
    workers: usize,
    retries: u32,
    deadline: Option<Duration>,
    backoff_base: Duration,
    backoff_seed: u64,
    fault: Option<FaultPlan>,
    events: Option<Arc<EventLog>>,
}

impl Scheduler {
    /// A scheduler with `workers` threads (clamped to at least 1), no
    /// retries, no deadline, no backoff, no fault injection.
    pub fn new(workers: usize) -> Self {
        Scheduler {
            workers: workers.max(1),
            ..Scheduler::default()
        }
    }

    /// Retry jobs whose error is transient up to `retries` extra times.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Cancel any single attempt that runs longer than `deadline`
    /// (cooperative: the runner must poll its [`JobCtx::cancel`]).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sleep a seeded exponential backoff before each transient retry:
    /// `base * 2^(attempt-2)` plus up to one `base` of deterministic
    /// jitter. A zero base (the default) retries immediately.
    pub fn with_backoff(mut self, base: Duration, seed: u64) -> Self {
        self.backoff_base = base;
        self.backoff_seed = seed;
        self
    }

    /// Inject the given [`FaultPlan`] around every attempt.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Record every job lifecycle transition (claim, attempt start,
    /// retry, timeout, cancellation, terminal status, injected faults)
    /// into `log`, timestamped on the log's timeline. The suite drains
    /// the log into a Chrome/Perfetto trace (`--trace-out`).
    pub fn with_events(mut self, log: Arc<EventLog>) -> Self {
        self.events = Some(log);
        self
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Execute `jobs` and return one [`JobRun`] per job **in input
    /// order**.
    ///
    /// `runner` is called as `runner(key, payload, ctx)` from worker
    /// threads; it must be `Sync` (shared by reference) and panic-safe
    /// in the sense that a panic poisons nothing outside the job itself.
    /// If a worker thread is lost entirely (a panic outside
    /// `catch_unwind`, such as one from [`run_hooked`](Self::run_hooked)'s
    /// hook), only its in-flight job is lost: it is reported as
    /// [`JobStatus::Panicked`], and the other workers run the rest.
    pub fn run<P, R, F>(
        &self,
        jobs: &[(String, P)],
        progress: &Progress,
        runner: F,
    ) -> Vec<JobRun<R>>
    where
        P: Sync,
        R: Send,
        F: Fn(&str, &P, &JobCtx) -> Result<R, JobError> + Sync,
    {
        self.run_hooked(jobs, progress, runner, |_run| {})
    }

    /// [`run`](Self::run), additionally calling `on_complete` from the
    /// worker thread the moment each job reaches its terminal status —
    /// in *completion* order, before the end-of-run barrier. This is the
    /// streaming hook checkpointing uses to persist records as they
    /// land, so a crash mid-sweep loses at most the unflushed tail
    /// rather than the whole pass. The hook runs outside the per-job
    /// panic capture: a panicking hook loses its worker, and the job it
    /// was completing comes back [`JobStatus::Panicked`].
    pub fn run_hooked<P, R, F, H>(
        &self,
        jobs: &[(String, P)],
        progress: &Progress,
        runner: F,
        on_complete: H,
    ) -> Vec<JobRun<R>>
    where
        P: Sync,
        R: Send,
        F: Fn(&str, &P, &JobCtx) -> Result<R, JobError> + Sync,
        H: Fn(&JobRun<R>) + Sync,
    {
        let total = jobs.len();
        progress.jobs_queued(total as u64);
        if total == 0 {
            return Vec::new();
        }

        // Never spawn more workers than there are jobs: a short tail
        // (total < --jobs) otherwise pays thread spawn/join for workers
        // whose first claim comes up empty.
        let workers = self.workers.min(total);

        // The next unclaimed index in spec order. `Relaxed` suffices:
        // the cursor publishes no data (the job list is shared read-only
        // and results go through the slot mutexes).
        let next = AtomicUsize::new(0);
        // One result slot per job, filled by whichever worker ran it.
        let slots: Vec<Mutex<Option<JobRun<R>>>> = (0..total).map(|_| Mutex::new(None)).collect();
        // One published attempt per worker for the deadline watchdog:
        // (start instant, that attempt's cancel token).
        let running: Vec<Mutex<Option<(Instant, CancelToken)>>> =
            (0..workers).map(|_| Mutex::new(None)).collect();
        // Set once every worker is joined; stops the deadline watchdog.
        let joined = AtomicBool::new(false);

        std::thread::scope(|scope| {
            if let Some(deadline) = self.deadline {
                let (running, joined) = (&running, &joined);
                let events = self.events.as_deref();
                scope.spawn(move || {
                    deadline_watchdog(deadline, running, joined, progress, events);
                });
            }
            let handles: Vec<_> = (0..workers)
                .map(|wid| {
                    let (next, slots, running) = (&next, &slots, &running);
                    let (runner, on_complete) = (&runner, &on_complete);
                    scope.spawn(move || loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some((key, payload)) = jobs.get(idx) else {
                            break;
                        };
                        if let Some(log) = &self.events {
                            log.record(wid as u32, JobEventKind::Claim, key, 0, "");
                        }
                        let run = self.execute_one(
                            wid as u32,
                            key,
                            payload,
                            runner,
                            progress,
                            &running[wid],
                        );
                        on_complete(&run);
                        // Counted only once the hook has returned: a job
                        // whose hook panics is counted by the lost-worker
                        // fallback below instead, so each job reaches
                        // `Progress` exactly once.
                        progress.job_finished(run.status.tag(), run.wall_micros);
                        *lock(&slots[idx]) = Some(run);
                    })
                })
                .collect();
            // A worker lost to a panic has already unwound; the others
            // drained the cursor. Joining here (not at scope end) keeps
            // that panic from propagating, and releases the watchdog.
            for handle in handles {
                let _ = handle.join();
            }
            joined.store(true, Ordering::Relaxed);
        });

        // A lost worker leaves its in-flight job's slot empty; report it
        // as a panic instead of panicking ourselves.
        slots
            .into_iter()
            .zip(jobs)
            .map(|(slot, (key, _))| {
                let slot = slot.into_inner().unwrap_or_else(|e| e.into_inner());
                slot.unwrap_or_else(|| {
                    progress.job_finished("panicked", 0);
                    let run = JobRun {
                        key: key.clone(),
                        attempts: 0,
                        wall_micros: 0,
                        status: JobStatus::Panicked("worker thread lost".into()),
                    };
                    on_complete(&run);
                    run
                })
            })
            .collect()
    }

    /// Run one job to its terminal status: catch panics, retry transient
    /// errors (after any configured backoff) up to the retry bound,
    /// publish each attempt to the deadline watchdog, and inject any
    /// configured faults around the runner. The caller reports the
    /// terminal status to `progress`.
    fn execute_one<P, R, F>(
        &self,
        wid: u32,
        key: &str,
        payload: &P,
        runner: &F,
        progress: &Progress,
        slot: &Mutex<Option<(Instant, CancelToken)>>,
    ) -> JobRun<R>
    where
        F: Fn(&str, &P, &JobCtx) -> Result<R, JobError>,
    {
        progress.job_started();
        let events = self.events.as_deref();
        let emit = |kind: JobEventKind, attempt: u32, detail: &str| {
            if let Some(log) = events {
                log.record(wid, kind, key, attempt, detail);
            }
        };
        let start = Instant::now();
        let mut attempts = 0u32;
        let status = loop {
            attempts += 1;
            let ctx = JobCtx {
                cancel: CancelToken::new(),
                attempt: attempts,
            };
            emit(JobEventKind::Start, attempts, "");
            *lock(slot) = Some((Instant::now(), ctx.cancel.clone()));
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Some(plan) = &self.fault {
                    // Injected stalls sleep here; injected panics and
                    // transient errors surface exactly like runner ones.
                    plan.before_attempt(key, attempts, events.map(|log| (log, wid)))?;
                }
                runner(key, payload, &ctx)
            }));
            *lock(slot) = None;
            if ctx.cancel.is_cancelled() {
                emit(JobEventKind::Cancel, attempts, "attempt token cancelled");
            }
            match outcome {
                Ok(Ok(result)) => break JobStatus::Ok(result),
                Ok(Err(err)) => {
                    if err.transient && attempts <= self.retries {
                        progress.job_retried();
                        emit(JobEventKind::Retry, attempts, &err.message);
                        let delay =
                            backoff_delay(self.backoff_base, self.backoff_seed, key, attempts + 1);
                        if !delay.is_zero() {
                            std::thread::sleep(delay);
                        }
                        continue;
                    }
                    break JobStatus::Failed(err);
                }
                Err(panic) => break JobStatus::Panicked(panic_message(panic.as_ref())),
            }
        };
        let wall_micros = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        emit(JobEventKind::Finish, attempts, status.tag());
        JobRun {
            key: key.to_string(),
            attempts,
            wall_micros,
            status,
        }
    }
}

/// Scan the published attempts every few milliseconds and cancel any
/// that overran `deadline`, until `joined` says every worker is gone.
/// Counts each cancellation once (the token latches, so a cancelled
/// attempt is skipped on later scans).
fn deadline_watchdog(
    deadline: Duration,
    running: &[Mutex<Option<(Instant, CancelToken)>>],
    joined: &AtomicBool,
    progress: &Progress,
    events: Option<&EventLog>,
) {
    let tick = (deadline / 8).clamp(Duration::from_millis(1), Duration::from_millis(25));
    while !joined.load(Ordering::Relaxed) {
        for (wid, slot) in running.iter().enumerate() {
            let guard = lock(slot);
            if let Some((started, token)) = guard.as_ref() {
                if started.elapsed() > deadline && !token.is_cancelled() {
                    token.cancel();
                    progress.job_timeout();
                    if let Some(log) = events {
                        // Attributed to the worker's track: the key is
                        // not published in the slot, but the concurrent
                        // Start/Cancel events on the same track name it.
                        log.record(
                            wid as u32,
                            JobEventKind::Timeout,
                            "",
                            0,
                            "deadline exceeded",
                        );
                    }
                }
            }
        }
        std::thread::sleep(tick);
    }
}

/// Lock a watchdog or result slot, tolerating poison: both hold plain
/// data that a panic cannot leave half-written.
fn lock<T>(s: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    s.lock().unwrap_or_else(|e| e.into_inner())
}

/// Extract a printable message from a panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atc_obs::Registry;
    use std::sync::atomic::AtomicU32;

    fn keys(n: usize) -> Vec<(String, u64)> {
        (0..n).map(|i| (format!("job{i}"), i as u64)).collect()
    }

    #[test]
    fn results_come_back_in_spec_order_for_any_worker_count() {
        let jobs = keys(37);
        for workers in [1, 2, 4, 8] {
            let progress = Progress::new();
            let runs = Scheduler::new(workers).run(&jobs, &progress, |_key, &i, ctx| {
                assert_eq!(ctx.attempt, 1);
                assert!(!ctx.cancel.is_cancelled());
                // Reverse-ish durations so completion order differs from
                // spec order.
                if i % 5 == 0 {
                    std::thread::yield_now();
                }
                Ok::<u64, JobError>(i * 2)
            });
            assert_eq!(runs.len(), 37);
            for (i, run) in runs.iter().enumerate() {
                assert_eq!(run.key, format!("job{i}"));
                assert_eq!(run.status, JobStatus::Ok(i as u64 * 2));
                assert_eq!(run.attempts, 1);
            }
            let snap = progress.snapshot();
            assert_eq!(snap.counter_value("harness.jobs_queued"), Some(37));
            assert_eq!(snap.counter_value("harness.jobs_done"), Some(37));
            assert_eq!(snap.counter_value("harness.jobs_running"), Some(0));
            assert_eq!(snap.counter_value("harness.jobs_failed"), Some(0));
            assert_eq!(
                snap.histogram_by_name("harness.job_wall_us")
                    .unwrap()
                    .count(),
                37
            );
        }
    }

    #[test]
    fn panics_become_per_job_records_not_pool_aborts() {
        let jobs = keys(8);
        let progress = Progress::new();
        let runs = Scheduler::new(4).run(&jobs, &progress, |_key, &i, _ctx| {
            if i == 3 {
                panic!("job {i} exploded");
            }
            Ok::<u64, JobError>(i)
        });
        assert_eq!(runs.len(), 8);
        assert_eq!(runs[3].status, JobStatus::Panicked("job 3 exploded".into()));
        for (i, run) in runs.iter().enumerate() {
            if i != 3 {
                assert_eq!(run.status, JobStatus::Ok(i as u64));
            }
        }
        let snap = progress.snapshot();
        assert_eq!(snap.counter_value("harness.jobs_panicked"), Some(1));
        assert_eq!(snap.counter_value("harness.jobs_done"), Some(7));
    }

    #[test]
    fn transient_errors_retry_up_to_bound_and_permanent_do_not() {
        let jobs = vec![("flaky".to_string(), ()), ("broken".to_string(), ())];
        let flaky_calls = AtomicU32::new(0);
        let broken_calls = AtomicU32::new(0);
        let progress = Progress::new();
        let runs = Scheduler::new(2)
            .with_retries(2)
            .run(&jobs, &progress, |key, (), ctx| {
                if key == "flaky" {
                    // Succeeds on the third attempt.
                    let call = flaky_calls.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(ctx.attempt, call + 1, "ctx reports the attempt number");
                    if call < 2 {
                        return Err(JobError::transient("watchdog"));
                    }
                    Ok(1u64)
                } else {
                    broken_calls.fetch_add(1, Ordering::SeqCst);
                    Err(JobError::permanent("bad config"))
                }
            });
        assert_eq!(runs[0].status, JobStatus::Ok(1));
        assert_eq!(runs[0].attempts, 3);
        assert_eq!(
            runs[1].status,
            JobStatus::Failed(JobError::permanent("bad config"))
        );
        assert_eq!(runs[1].attempts, 1);
        assert_eq!(broken_calls.load(Ordering::SeqCst), 1);
        let snap = progress.snapshot();
        assert_eq!(snap.counter_value("harness.jobs_retried"), Some(2));
        assert_eq!(snap.counter_value("harness.jobs_failed"), Some(1));
    }

    #[test]
    fn transient_error_exhausts_retries_then_fails_with_partial() {
        let jobs = vec![("always".to_string(), ())];
        let calls = AtomicU32::new(0);
        let progress = Progress::new();
        let runs = Scheduler::new(1)
            .with_retries(1)
            .run(&jobs, &progress, |_key, (), _ctx| {
                calls.fetch_add(1, Ordering::SeqCst);
                Err::<u64, _>(
                    JobError::transient("deadlock").with_partial(Metrics::from([("ipc", 0.5)])),
                )
            });
        assert_eq!(calls.load(Ordering::SeqCst), 2, "1 try + 1 retry");
        assert_eq!(runs[0].attempts, 2);
        match &runs[0].status {
            JobStatus::Failed(err) => {
                assert!(err.transient);
                assert_eq!(err.partial.as_ref().unwrap().get("ipc"), Some(0.5));
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        let progress = Progress::new();
        let runs = Scheduler::new(4).run(&Vec::<(String, ())>::new(), &progress, |_k, (), _c| {
            Ok::<u64, JobError>(0)
        });
        assert!(runs.is_empty());
    }

    #[test]
    fn deadline_watchdog_cancels_runaway_jobs() {
        let jobs = vec![("slow".to_string(), ()), ("fast".to_string(), ())];
        let progress = Progress::new();
        let runs = Scheduler::new(2)
            .with_deadline(Duration::from_millis(30))
            .run(&jobs, &progress, |key, (), ctx| {
                if key == "slow" {
                    // Cooperative runaway: loop until cancelled.
                    let start = Instant::now();
                    while !ctx.cancel.is_cancelled() {
                        assert!(
                            start.elapsed() < Duration::from_secs(10),
                            "watchdog never fired"
                        );
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    return Err(JobError::permanent("cancelled by deadline")
                        .with_partial(Metrics::from([("progress", 0.5)])));
                }
                Ok(Metrics::from([("progress", 1.0)]))
            });
        match &runs[0].status {
            JobStatus::Failed(err) => {
                assert!(err.message.contains("deadline"));
                assert_eq!(err.partial.as_ref().unwrap().get("progress"), Some(0.5));
            }
            other => panic!("expected deadline failure, got {other:?}"),
        }
        assert!(matches!(runs[1].status, JobStatus::Ok(_)));
        let snap = progress.snapshot();
        assert_eq!(snap.counter_value("harness.jobs_timeout"), Some(1));
        assert_eq!(snap.counter_value("harness.jobs_failed"), Some(1));
        assert_eq!(snap.counter_value("harness.jobs_done"), Some(1));
    }

    #[test]
    fn fast_jobs_never_see_the_watchdog() {
        let jobs = keys(16);
        let progress = Progress::new();
        let runs = Scheduler::new(4)
            .with_deadline(Duration::from_secs(30))
            .run(&jobs, &progress, |_key, &i, _ctx| Ok::<u64, JobError>(i));
        assert!(runs.iter().all(|r| matches!(r.status, JobStatus::Ok(_))));
        let snap = progress.snapshot();
        assert_eq!(snap.counter_value("harness.jobs_timeout"), Some(0));
    }

    #[test]
    fn injected_faults_panic_stall_and_retry_deterministically() {
        let plan = FaultPlan::parse("11:panic@key=explode,transient@key=flaky").unwrap();
        let jobs = vec![
            ("calm".to_string(), ()),
            ("explode".to_string(), ()),
            ("flaky-forever".to_string(), ()),
        ];
        let progress = Progress::new();
        let runs = Scheduler::new(2).with_retries(2).with_faults(plan).run(
            &jobs,
            &progress,
            |_key, (), _ctx| Ok(Metrics::from([("x", 1.0)])),
        );
        assert!(matches!(runs[0].status, JobStatus::Ok(_)));
        match &runs[1].status {
            JobStatus::Panicked(msg) => assert!(msg.contains("fault-injected"), "{msg}"),
            other => panic!("expected injected panic, got {other:?}"),
        }
        // key= fires every attempt: the transient fault exhausts all
        // retries — deterministically attempts = 1 + retries.
        assert_eq!(runs[2].attempts, 3);
        match &runs[2].status {
            JobStatus::Failed(err) => assert!(err.transient),
            other => panic!("expected exhausted retries, got {other:?}"),
        }
        let snap = progress.snapshot();
        assert_eq!(snap.counter_value("harness.jobs_retried"), Some(2));
    }

    #[test]
    fn backoff_delays_transient_retries() {
        let jobs = vec![("flaky".to_string(), ())];
        let calls = AtomicU32::new(0);
        let progress = Progress::new();
        let start = Instant::now();
        let runs = Scheduler::new(1)
            .with_retries(2)
            .with_backoff(Duration::from_millis(10), 42)
            .run(&jobs, &progress, |_key, (), _ctx| {
                if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                    return Err(JobError::transient("flaky"));
                }
                Ok(1u64)
            });
        assert_eq!(runs[0].status, JobStatus::Ok(1));
        // Two retries: >= 10ms + 20ms of backoff must have elapsed.
        assert!(
            start.elapsed() >= Duration::from_millis(30),
            "elapsed {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn run_hooked_streams_completions_before_the_barrier() {
        let jobs = keys(9);
        let progress = Progress::new();
        let seen = Mutex::new(Vec::new());
        let runs = Scheduler::new(3).run_hooked(
            &jobs,
            &progress,
            |_key, &i, _ctx| Ok::<u64, JobError>(i),
            |run| seen.lock().unwrap().push(run.key.clone()),
        );
        assert_eq!(runs.len(), 9);
        let mut seen = seen.into_inner().unwrap();
        seen.sort();
        let mut expect: Vec<String> = jobs.iter().map(|(k, _)| k.clone()).collect();
        expect.sort();
        assert_eq!(
            seen, expect,
            "every completion reached the hook exactly once"
        );
    }

    /// Run `scheduler` over eight jobs on a helper thread, with a
    /// completion hook that panics once, on `job3`; returns the runs and
    /// the final progress snapshot. Waits with a bound, so a pool that
    /// hangs after losing the worker fails the test instead of stalling
    /// the suite.
    fn run_with_a_panicking_hook(scheduler: Scheduler) -> (Vec<JobRun<u64>>, Registry) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let fired = AtomicBool::new(false);
            let progress = Progress::new();
            let runs = scheduler.run_hooked(
                &keys(8),
                &progress,
                |_key, &i, _ctx| Ok::<u64, JobError>(i),
                |run| {
                    if run.key == "job3" && !fired.swap(true, Ordering::SeqCst) {
                        panic!("completion hook exploded");
                    }
                },
            );
            let _ = tx.send((runs, progress.snapshot()));
        });
        rx.recv_timeout(Duration::from_secs(30))
            .expect("the pool never returned after losing a worker")
    }

    #[test]
    fn a_lost_worker_loses_only_its_in_flight_job() {
        for scheduler in [
            Scheduler::new(2),
            // The deadline watchdog must wind down too.
            Scheduler::new(2).with_deadline(Duration::from_secs(30)),
        ] {
            let (runs, snap) = run_with_a_panicking_hook(scheduler);
            assert_eq!(runs.len(), 8);
            for (i, run) in runs.iter().enumerate() {
                assert_eq!(run.key, format!("job{i}"));
                if i == 3 {
                    assert_eq!(run.status, JobStatus::Panicked("worker thread lost".into()));
                } else {
                    assert_eq!(run.status, JobStatus::Ok(i as u64));
                }
            }
            // Each job's terminal status reaches `Progress` once.
            let c = |name: &str| snap.counter_value(name).unwrap();
            assert_eq!(c("harness.jobs_done"), 7);
            assert_eq!(c("harness.jobs_panicked"), 1);
            assert_eq!(
                c("harness.jobs_done") + c("harness.jobs_failed") + c("harness.jobs_panicked"),
                8
            );
            assert_eq!(c("harness.jobs_running"), 0);
            let wall = snap.histogram_by_name("harness.job_wall_us").unwrap();
            assert_eq!(wall.count(), 8);
        }
    }
}
