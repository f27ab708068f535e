//! Run the full experiment suite — every figure and table — as one
//! checkpointed, work-stealing process.
//!
//! Jobs shared between figures (the baseline feeds almost every one)
//! run exactly once, the append-only manifest makes interrupted sweeps
//! resumable, and the rendered tables depend only on recorded metrics,
//! so stdout is byte-identical for any `--jobs` value and across
//! resumes. With `--check`, every job must succeed and the paper's
//! claims ([`atc_experiments::claims`]) are evaluated over the same
//! recorded metrics; verdicts go to stderr.
//!
//! ```text
//! suite [common flags] [--jobs N] [--manifest PATH] [--resume]
//!       [--figures fig14,fig17,...] [--retries N]
//!       [--max-jobs N] [--assert-executed N]
//!       [--fault-plan SEED:SPEC] [--deadline-ms N] [--backoff-ms N]
//!       [--flush-every N] [--fsync] [--retry-failed]
//!       [--progress[=INTERVAL]] [--telemetry-out PATH]
//!       [--trace-out PATH]
//! ```
//!
//! * `--manifest PATH`   checkpoint file (default `suite-manifest.jsonl`)
//! * `--resume`          reuse completed jobs from the manifest
//! * `--figures a,b`     run a subset of sweeps (default: all; a name
//!   given twice is an error)
//! * `--retries N`       retry budget for transient (deadlock) failures
//! * `--max-jobs N`      stop after scheduling the first N jobs (CI
//!   resume smoke: run half, rerun with `--resume`)
//! * `--assert-executed N` with `--check`: fail unless exactly N jobs
//!   were executed (not resumed) this run
//! * `--fault-plan S:F`  seeded fault injection, e.g.
//!   `42:panic@0.1,transient@0.2,stall50@key=mcf,torn@0.5` (robustness
//!   smokes; see `atc_harness::fault`)
//! * `--deadline-ms N`   per-job deadline; a watchdog cancels attempts
//!   that exceed it, salvaging partial metrics
//! * `--backoff-ms N`    base delay for seeded exponential backoff
//!   between transient retries (default 0 = immediate)
//! * `--flush-every N`   manifest records buffered per write batch
//!   (default 32; 1 = persist every record immediately)
//! * `--fsync`           `sync_data` the manifest at checkpoints
//! * `--retry-failed`    with `--resume`: re-execute failed/panicked
//!   records instead of treating them as terminal
//! * `--progress[=INTERVAL]` live stderr progress line each sampling
//!   tick (`50ms`, `2s`, or a plain millisecond count; default 250ms):
//!   jobs done/inflight/retried, aggregate instructions/s, an ETA from
//!   the sweep catalog, and stream-cache residency
//! * `--telemetry-out PATH` stream delta-encoded progress snapshots to
//!   a checksummed `atc-telemetry-stream-v1` JSONL file (validated by
//!   `check_bench_json --stream`; padded to at least 4 epochs at stop)
//! * `--trace-out PATH`  export the job lifecycle timeline (claim /
//!   start / retry / timeout / cancel / finish / fault / flush, one
//!   track per worker) as Chrome/Perfetto trace-event JSON
//!
//! Tables go to stdout; progress, timing, and the end-of-run fault
//! tally go to stderr — stdout stays byte-identical across resumes,
//! worker counts, fault plans, and streaming flags (as long as every
//! job eventually succeeds).

use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use atc_bench::json::Value;
use atc_bench::stream::{Sampler, StreamOptions};
use atc_bench::trace_event::TraceEvents;
use atc_experiments::claims::{claims, evaluate, Verdict};
use atc_experiments::sweeps::{build_jobs, catalog, render_sweep, sweeps, Budget, SweepDef};
use atc_experiments::{Checks, Opts};
use atc_harness::{
    live_line, run_with_manifest_opts, EventLog, FaultPlan, JobEvent, JobEventKind, Manifest,
    Metrics, Progress, Scheduler, SweepOptions, MANIFEST_WORKER,
};
use atc_workloads::trace::TraceCache;

#[derive(Debug)]
struct SuiteArgs {
    manifest: String,
    resume: bool,
    figures: Option<Vec<String>>,
    retries: u32,
    max_jobs: Option<usize>,
    assert_executed: Option<usize>,
    fault_plan: Option<String>,
    deadline_ms: Option<u64>,
    backoff_ms: u64,
    flush_every: Option<usize>,
    fsync: bool,
    retry_failed: bool,
    progress: Option<Duration>,
    telemetry_out: Option<String>,
    trace_out: Option<String>,
}

impl Default for SuiteArgs {
    fn default() -> Self {
        SuiteArgs {
            manifest: "suite-manifest.jsonl".to_string(),
            resume: false,
            figures: None,
            retries: 1,
            max_jobs: None,
            assert_executed: None,
            fault_plan: None,
            deadline_ms: None,
            backoff_ms: 0,
            flush_every: None,
            fsync: false,
            retry_failed: false,
            progress: None,
            telemetry_out: None,
            trace_out: None,
        }
    }
}

/// Parse a `--progress` interval: `50ms`, `2s`, or a bare millisecond
/// count.
fn parse_interval(v: &str) -> Result<Duration, String> {
    let (digits, scale_ms) = if let Some(d) = v.strip_suffix("ms") {
        (d, 1)
    } else if let Some(d) = v.strip_suffix('s') {
        (d, 1_000)
    } else {
        (v, 1)
    };
    match digits.parse::<u64>() {
        Ok(n) if n > 0 => Ok(Duration::from_millis(n * scale_ms)),
        _ => Err(format!("bad interval {v:?} (want e.g. 50ms, 2s, or 250)")),
    }
}

/// Split suite-specific flags out of the argument list; everything else
/// goes to [`Opts::parse_from`].
fn split_args(args: impl Iterator<Item = String>) -> Result<(SuiteArgs, Vec<String>), String> {
    let mut suite = SuiteArgs::default();
    let mut rest = Vec::new();
    let mut it = args;
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        let numeric = |name: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{name} needs a number, got {v:?}"))
        };
        match a.as_str() {
            "--manifest" => suite.manifest = value("--manifest")?,
            "--resume" => suite.resume = true,
            "--figures" => {
                suite.figures = Some(
                    value("--figures")?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .collect(),
                )
            }
            "--retries" => suite.retries = numeric("--retries", value("--retries")?)? as u32,
            "--max-jobs" => {
                suite.max_jobs = Some(numeric("--max-jobs", value("--max-jobs")?)? as usize)
            }
            "--assert-executed" => {
                suite.assert_executed =
                    Some(numeric("--assert-executed", value("--assert-executed")?)? as usize)
            }
            "--fault-plan" => suite.fault_plan = Some(value("--fault-plan")?),
            "--deadline-ms" => {
                suite.deadline_ms = Some(numeric("--deadline-ms", value("--deadline-ms")?)?)
            }
            "--backoff-ms" => suite.backoff_ms = numeric("--backoff-ms", value("--backoff-ms")?)?,
            "--flush-every" => {
                suite.flush_every =
                    Some(numeric("--flush-every", value("--flush-every")?)? as usize)
            }
            "--fsync" => suite.fsync = true,
            "--retry-failed" => suite.retry_failed = true,
            "--progress" => suite.progress = Some(Duration::from_millis(250)),
            s if s.starts_with("--progress=") => {
                suite.progress = Some(parse_interval(&s["--progress=".len()..])?)
            }
            "--telemetry-out" => suite.telemetry_out = Some(value("--telemetry-out")?),
            "--trace-out" => suite.trace_out = Some(value("--trace-out")?),
            _ => rest.push(a),
        }
    }
    Ok((suite, rest))
}

/// Drain the lifecycle event log into a Perfetto-loadable trace file:
/// one track per worker (plus a manifest track), each
/// `start → retry/cancel/finish` attempt rendered as a complete span
/// and everything else (claims, timeouts, faults, flushes) as instants.
/// Returns the number of trace events written.
fn write_trace(path: &str, log: &EventLog) -> std::io::Result<usize> {
    let events = log.drain();
    if log.dropped() > 0 {
        eprintln!(
            "suite: trace: {} event(s) dropped at capacity",
            log.dropped()
        );
    }
    let mut trace = TraceEvents::new();
    trace.process_name(1, "atc suite");
    let mut tracks: Vec<u32> = Vec::new();
    let mut open: HashMap<u32, JobEvent> = HashMap::new();
    for ev in &events {
        if !tracks.contains(&ev.worker) {
            tracks.push(ev.worker);
        }
        let closes_span = matches!(
            ev.kind,
            JobEventKind::Retry | JobEventKind::Cancel | JobEventKind::Finish
        );
        if ev.kind == JobEventKind::Start {
            open.insert(ev.worker, ev.clone());
            continue;
        }
        if closes_span {
            if let Some(start) = open.remove(&ev.worker) {
                trace.complete(
                    &start.key,
                    "attempt",
                    1,
                    start.worker,
                    start.t_us,
                    ev.t_us.saturating_sub(start.t_us),
                    vec![
                        ("attempt".into(), Value::Number(f64::from(start.attempt))),
                        ("end".into(), Value::String(ev.kind.label().into())),
                        ("detail".into(), Value::String(ev.detail.clone())),
                    ],
                );
            }
        }
        if ev.kind != JobEventKind::Finish {
            let mut args = Vec::new();
            if !ev.key.is_empty() {
                args.push(("key".into(), Value::String(ev.key.clone())));
            }
            if ev.attempt > 0 {
                args.push(("attempt".into(), Value::Number(f64::from(ev.attempt))));
            }
            if !ev.detail.is_empty() {
                args.push(("detail".into(), Value::String(ev.detail.clone())));
            }
            trace.instant(ev.kind.label(), "lifecycle", 1, ev.worker, ev.t_us, args);
        }
    }
    // A start without a terminal event (e.g. the log filled up) still
    // deserves a mark on its track.
    for (_, start) in open {
        trace.instant(
            "start (unterminated)",
            "lifecycle",
            1,
            start.worker,
            start.t_us,
            vec![("key".into(), Value::String(start.key))],
        );
    }
    tracks.sort_unstable();
    for wid in tracks {
        let name = match wid {
            MANIFEST_WORKER => "manifest".to_string(),
            _ => format!("worker {wid}"),
        };
        trace.thread_name(1, wid, &name);
    }
    let n = trace.len();
    std::fs::write(path, trace.render())?;
    Ok(n)
}

fn select_figures(figures: Option<&[String]>) -> Result<Vec<SweepDef>, String> {
    let all = sweeps();
    let Some(wanted) = figures else {
        return Ok(all);
    };
    let mut out: Vec<SweepDef> = Vec::new();
    for name in wanted {
        if out.iter().any(|d| d.name == name.as_str()) {
            return Err(format!("figure {name:?} given twice"));
        }
        match all.iter().find(|d| d.name == name.as_str()) {
            Some(d) => out.push(d.clone()),
            None => {
                let known: Vec<&str> = all.iter().map(|d| d.name).collect();
                return Err(format!(
                    "unknown figure {name:?}; available: {}",
                    known.join(", ")
                ));
            }
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let (suite, rest) = match split_args(std::env::args().skip(1)) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let opts = match Opts::parse_from(rest) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: suite [--seed N] [--scale test|small|paper] [--warmup N] \
                 [--instructions N] [--benchmarks a,b,c] [--jobs N] [--csv] [--check] \
                 [--manifest PATH] [--resume] [--figures a,b] [--retries N] \
                 [--max-jobs N] [--assert-executed N] [--fault-plan SEED:SPEC] \
                 [--deadline-ms N] [--backoff-ms N] [--flush-every N] [--fsync] \
                 [--retry-failed] [--progress[=INTERVAL]] [--telemetry-out PATH] \
                 [--trace-out PATH]"
            );
            return ExitCode::from(2);
        }
    };

    let defs = match select_figures(suite.figures.as_deref()) {
        Ok(d) => d,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let budget = Budget {
        scale: opts.scale,
        seed: opts.seed,
        warmup: opts.warmup,
        measure: opts.measure,
    };
    let mut jobs = match build_jobs(&defs, &catalog(), &opts.benchmarks, budget) {
        Ok(j) => j,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let total = jobs.len();
    if let Some(cap) = suite.max_jobs {
        jobs.truncate(cap);
        if jobs.len() < total {
            eprintln!("suite: --max-jobs capped {total} jobs to {}", jobs.len());
        }
    }

    let fault = match suite.fault_plan.as_deref().map(FaultPlan::parse) {
        None => None,
        Some(Ok(plan)) => Some(plan),
        Some(Err(msg)) => {
            eprintln!("error: bad --fault-plan: {msg}");
            return ExitCode::from(2);
        }
    };

    // Lifecycle event capture only costs anything when a trace export
    // was requested. Created before the manifest opens so recovery
    // diagnostics (corrupt/duplicate/torn records) land on the event
    // log as `recover` instants instead of ad-hoc stderr lines.
    let events = if suite.trace_out.is_some() {
        Some(Arc::new(EventLog::new(
            atc_harness::events::DEFAULT_EVENT_CAPACITY,
        )))
    } else {
        None
    };
    let mut manifest = match Manifest::open_with_events(
        std::path::Path::new(&suite.manifest),
        suite.resume,
        events.clone(),
    ) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: cannot open manifest {}: {e}", suite.manifest);
            return ExitCode::FAILURE;
        }
    };
    if let Some(n) = suite.flush_every {
        manifest = manifest.with_flush_every(n);
    }
    manifest = manifest.with_fsync(suite.fsync);
    if let Some(plan) = &fault {
        manifest = manifest.with_faults(plan.clone());
    }

    let mut scheduler = Scheduler::new(opts.worker_count())
        .with_retries(suite.retries)
        .with_backoff(Duration::from_millis(suite.backoff_ms), opts.seed);
    if let Some(ms) = suite.deadline_ms {
        scheduler = scheduler.with_deadline(Duration::from_millis(ms));
    }
    if let Some(plan) = &fault {
        scheduler = scheduler.with_faults(plan.clone());
        eprintln!("suite: fault plan active (seed {})", plan.seed());
    }
    if let Some(log) = &events {
        scheduler = scheduler.with_events(Arc::clone(log));
    }
    let progress = Arc::new(Progress::new());
    eprintln!(
        "suite: {} jobs across {} sweeps on {} workers (manifest: {})",
        jobs.len(),
        defs.len(),
        scheduler.workers(),
        suite.manifest,
    );
    let t0 = Instant::now();
    // Captured instruction streams are shared by every job that
    // consumes the same (bench, scale, seed, length); capture happens
    // lazily inside the workers, once per distinct stream.
    let traces = Arc::new(TraceCache::new());
    let sampler = if suite.progress.is_some() || suite.telemetry_out.is_some() {
        // Each sampler tick snapshots the progress counters and, with
        // --progress, prints the live line.
        let live = suite.progress.is_some();
        let total_jobs = jobs.len() as u64;
        let (progress, cache) = (Arc::clone(&progress), Arc::clone(&traces));
        let snapshot = move || {
            let snap = progress.snapshot();
            if live {
                let residency = (cache.streams(), cache.footprint_bytes());
                eprintln!("{}", live_line(&snap, total_jobs, t0.elapsed(), residency));
            }
            snap
        };
        let opts = StreamOptions {
            cadence: suite.progress.unwrap_or(Duration::from_millis(250)),
            telemetry_path: suite.telemetry_out.as_ref().map(Into::into),
        };
        match Sampler::start(snapshot, opts) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("error: cannot start telemetry sampler: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let outcome = match run_with_manifest_opts(
        &scheduler,
        &progress,
        &mut manifest,
        &jobs,
        |_key, job, ctx| {
            let out = job.run(&traces, &ctx.cancel);
            if out.is_ok() {
                progress.add_instructions(job.instructions());
            }
            out
        },
        SweepOptions {
            retry_failed: suite.retry_failed,
        },
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: manifest write failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Fold what recovery repaired (plus run-time supersedes) into the
    // progress counters before the sampler takes its final snapshot,
    // then print the end-of-run fault tally.
    let recovery = manifest.recovery().clone();
    progress.corrupt_records(recovery.corrupt as u64);
    progress.duplicate_records(recovery.duplicates as u64);
    if let Some(sampler) = sampler {
        match sampler.stop() {
            Ok(epochs) => {
                if let Some(path) = &suite.telemetry_out {
                    eprintln!("suite: telemetry stream: {epochs} epoch(s) -> {path}");
                }
            }
            Err(e) => {
                eprintln!("error: telemetry sampler failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let (Some(path), Some(log)) = (&suite.trace_out, &events) {
        match write_trace(path, log) {
            Ok(n) => eprintln!("suite: trace timeline: {n} event(s) -> {path}"),
            Err(e) => {
                eprintln!("error: cannot write trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let snap = progress.snapshot();
    let counter = |name: &str| snap.counter_value(name).unwrap_or(0);
    let failed: Vec<_> = outcome.records.iter().filter(|r| !r.is_ok()).collect();
    eprintln!(
        "suite: {} executed, {} resumed, {} failed in {:.1}s",
        outcome.executed,
        outcome.resumed,
        failed.len(),
        t0.elapsed().as_secs_f64(),
    );
    eprintln!(
        "suite: fault tally: {} retried, {} timed out, {} panicked, {} corrupt record(s) \
         skipped, {} duplicate record(s) superseded{}{}",
        counter("harness.jobs_retried"),
        counter("harness.jobs_timeout"),
        counter("harness.jobs_panicked"),
        recovery.corrupt,
        recovery.duplicates,
        if recovery.torn_tail {
            ", torn manifest tail truncated"
        } else {
            ""
        },
        if manifest.pending() > 0 {
            " (unflushed records pending!)"
        } else {
            ""
        },
    );
    eprintln!(
        "suite: {} instruction streams captured ({:.1} MiB shared)",
        traces.streams(),
        traces.footprint_bytes() as f64 / (1024.0 * 1024.0),
    );
    for r in &failed {
        eprintln!(
            "suite: {} job {}: {}",
            r.status,
            r.key,
            r.error.as_deref().unwrap_or("unknown error"),
        );
    }

    // Render every sweep purely from recorded metrics: deterministic
    // stdout regardless of worker count, retries, or resume history.
    let ok_metrics: HashMap<&str, &Metrics> = outcome
        .records
        .iter()
        .filter(|r| r.is_ok())
        .map(|r| (r.key.as_str(), &r.metrics))
        .collect();
    let lookup = |key: &str| ok_metrics.get(key).copied();
    for def in &defs {
        let table = render_sweep(def, &opts.benchmarks, budget, &lookup);
        opts.emit(def.title, &table);
    }

    if !opts.check {
        return if failed.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let mut checks = Checks::new();
    checks.claim(
        outcome.records.len() == jobs.len(),
        &format!(
            "every job has a manifest record ({}/{})",
            outcome.records.len(),
            jobs.len()
        ),
    );
    for r in &failed {
        let partial = r
            .metrics
            .get("instructions")
            .map(|n| format!(" (partial: {n:.0} instructions retired)"))
            .unwrap_or_default();
        checks.claim(
            false,
            &format!(
                "job {} {}: {}{partial}",
                r.key,
                r.status,
                r.error.as_deref().unwrap_or("unknown error"),
            ),
        );
    }
    checks.claim(!ok_metrics.is_empty(), "at least one job produced metrics");
    // The paper's claims over the same records; each evaluated claim
    // counts as one check.
    let claims = claims();
    let mut skipped: BTreeMap<&str, usize> = BTreeMap::new();
    for (claim, verdict) in
        claims
            .iter()
            .zip(evaluate(&claims, &defs, &opts.benchmarks, budget, &lookup))
    {
        match verdict {
            Verdict::Passed(_) => checks.claim(true, claim.name),
            Verdict::Failed(why) => checks.claim(
                false,
                &format!("claim {}: {}: {why}", claim.name, claim.text),
            ),
            Verdict::NotEvaluated(why) => *skipped.entry(why).or_default() += 1,
        }
    }
    let not_evaluated: usize = skipped.values().sum();
    let reasons: Vec<String> = skipped.iter().map(|(w, n)| format!("{n} {w}")).collect();
    eprintln!(
        "suite: claims: {} evaluated, {not_evaluated} not evaluated{}",
        claims.len() - not_evaluated,
        if reasons.is_empty() {
            String::new()
        } else {
            format!(" ({})", reasons.join(", "))
        },
    );
    if let Some(expected) = suite.assert_executed {
        checks.claim(
            outcome.executed == expected,
            &format!(
                "expected exactly {expected} freshly executed jobs, got {}",
                outcome.executed
            ),
        );
    }
    checks.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &str) -> Vec<String> {
        list.split(',').map(String::from).collect()
    }

    #[test]
    fn figures_select_in_the_given_order() {
        let defs = select_figures(Some(&names("fig16,fig14"))).unwrap();
        let got: Vec<&str> = defs.iter().map(|d| d.name).collect();
        assert_eq!(got, ["fig16", "fig14"]);
        assert_eq!(select_figures(None).unwrap().len(), sweeps().len());
    }

    #[test]
    fn repeated_or_unknown_figure_is_an_error() {
        let err = select_figures(Some(&names("fig14,fig16,fig14"))).unwrap_err();
        assert!(err.contains("\"fig14\" given twice"), "got {err:?}");
        let err = select_figures(Some(&names("fig99"))).unwrap_err();
        assert!(err.contains("unknown figure"), "got {err:?}");
    }
}
