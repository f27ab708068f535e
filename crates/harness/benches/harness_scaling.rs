//! Suite wall-time vs. worker count.
//!
//! Runs the same 18-job sweep (9 benchmarks × {baseline, tempo} at test
//! scale) through the scheduler, whose workers claim jobs from one
//! shared cursor, at 1 and 2 workers, and reports each as a throughput
//! bench (elems = jobs). Only the worker counts the 2-vCPU development
//! host really has are timed: more workers than cores measure
//! oversubscription, not the scheduler. Jobs replay instruction streams
//! from a shared `TraceCache` — the suite's production path — so
//! per-job cost excludes generator setup. The nine streams are captured
//! once, before timing, mirroring the suite where capture is a one-off
//! amortized across every config.
//!
//! A derived `harness/speedup_w2` line records the w2/w1 throughput
//! ratio — its `elems_per_s` JSON field holds the ratio itself — so the
//! scaling factor is tracked in the trajectory. The curve goes into
//! `BENCH_sim.json` next to the simulator benches (use `--append` to
//! merge rather than overwrite):
//!
//! ```text
//! cargo bench -p atc-harness --bench harness_scaling -- \
//!     --samples 3 --append --json BENCH_sim.json
//! ```
//!
//! After the timed curve, an untimed **fault exercise** drives the
//! scheduler's retry path, the deadline watchdog, and manifest
//! recovery once each, and records the resulting counters as derived
//! `harness/retries`, `harness/timeouts` and `harness/corrupt_records`
//! lines (same encoding as `speedup_w2`: `elems_per_s` *is* the count).
//! The exercise is fully deterministic, so `check_bench_json` gates on
//! the exact expected values — a silent regression in any of those
//! failure paths turns the trajectory check red.

use std::time::{Duration, Instant};

use atc_core::Enhancement;
use atc_harness::{JobError, JobStatus, Manifest, Metrics, Progress, Scheduler};
use atc_sim::{run_one_replay, SimConfig};
use atc_workloads::trace::{StreamKey, TraceCache};
use atc_workloads::{BenchmarkId, Scale};

const WARMUP: u64 = 2_000;
const MEASURE: u64 = 20_000;

fn main() {
    let mut reporter = atc_bench::Reporter::from_env();

    let configs = [
        ("base", SimConfig::baseline()),
        ("tempo", SimConfig::with_enhancement(Enhancement::Tempo)),
    ];
    let jobs: Vec<(String, (SimConfig, BenchmarkId))> = configs
        .into_iter()
        .flat_map(|(label, cfg)| {
            BenchmarkId::ALL
                .into_iter()
                .map(move |bench| (format!("{label}/{}", bench.name()), (cfg.clone(), bench)))
        })
        .collect();

    // Pre-capture the nine shared streams so every timed iteration
    // measures steady-state replay throughput, not one-off capture.
    let traces = TraceCache::new();
    for bench in BenchmarkId::ALL {
        traces.get(stream_of(bench));
    }

    let total_jobs = jobs.len() as u64;
    for workers in [1usize, 2] {
        let scheduler = Scheduler::new(workers);
        reporter.bench_throughput(&format!("harness/suite_w{workers}"), 3, total_jobs, || {
            let progress = Progress::new();
            let runs =
                scheduler.run(
                    &jobs,
                    &progress,
                    |_key, (cfg, bench), _ctx| match run_one_replay(
                        cfg,
                        traces.get(stream_of(*bench)),
                        WARMUP,
                        MEASURE,
                    ) {
                        Ok(stats) => Ok(Metrics::from([("ipc", stats.core.ipc())])),
                        Err(failure) => Err(JobError::permanent(failure.error.to_string())),
                    },
                );
            assert!(
                runs.iter().all(|r| matches!(r.status, JobStatus::Ok(_))),
                "scaling bench expects every job to succeed"
            );
            runs.len()
        });
    }

    // Derived scaling factor: median w2 throughput over median w1
    // throughput. Encoded so the JSON line's `elems_per_s` field *is*
    // the ratio: elems = speedup × 1000 over a fixed 1000 s denominator.
    let rate = |name: &str| {
        reporter
            .results()
            .iter()
            .find(|r| r.name == name)
            .and_then(|r| r.elems_per_sec())
    };
    if let (Some(w1), Some(w2)) = (rate("harness/suite_w1"), rate("harness/suite_w2")) {
        let speedup = w2 / w1;
        println!("harness/speedup_w2: {speedup:.3}x (w2 {w2:.0} jobs/s vs w1 {w1:.0} jobs/s)");
        const SECOND_NS: u64 = 1_000_000_000;
        reporter.record(atc_bench::BenchResult {
            name: "harness/speedup_w2".to_string(),
            samples: 0, // derived, not timed
            min_ns: 1000 * SECOND_NS,
            median_ns: 1000 * SECOND_NS,
            mean_ns: 1000 * SECOND_NS,
            elems: Some((speedup * 1000.0).round() as u64),
        });
    }

    clamp_exercise();

    for (name, count) in fault_exercise() {
        println!("{name}: {count}");
        const SECOND_NS: u64 = 1_000_000_000;
        reporter.record(atc_bench::BenchResult {
            name: name.to_string(),
            samples: 0, // derived, not timed
            min_ns: 1000 * SECOND_NS,
            median_ns: 1000 * SECOND_NS,
            mean_ns: 1000 * SECOND_NS,
            elems: Some(count * 1000),
        });
    }

    reporter.finish();
}

/// Regression check for the worker clamp: a job list shorter than the
/// worker pool must not spin up idle workers (an 18-job sweep across 8
/// workers is where the spawn/join overhead of never-fed workers showed
/// up). Claim events record the worker index,
/// so the check is direct: with 2 jobs offered to an 8-worker
/// scheduler, no worker id ≥ 2 may ever touch the queue.
fn clamp_exercise() {
    let log = std::sync::Arc::new(atc_harness::EventLog::new(64));
    let jobs: Vec<(String, u64)> = (0..2).map(|i| (format!("tail/j{i}"), i)).collect();
    let progress = Progress::traced(log.clone());
    let runs = Scheduler::new(8).run(&jobs, &progress, |_key, &i, _ctx| {
        Ok(Metrics::from([("i", i as f64)]))
    });
    assert!(
        runs.iter().all(|r| matches!(r.status, JobStatus::Ok(_))),
        "clamp exercise jobs must succeed"
    );
    let worker_ids: Vec<u32> = log
        .drain()
        .iter()
        .map(|e| e.worker)
        .filter(|&w| w < atc_harness::MANIFEST_WORKER)
        .collect();
    assert!(
        !worker_ids.is_empty() && worker_ids.iter().all(|&w| (w as usize) < jobs.len()),
        "worker pool not clamped to queue length: ids {worker_ids:?} for {} jobs",
        jobs.len()
    );
    println!(
        "harness/clamp: {} worker(s) observed for {} jobs",
        worker_ids
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len(),
        jobs.len()
    );
}

/// Drive the scheduler's retry path, the deadline watchdog, and
/// manifest recovery once each and return the observed counters.
/// Everything here is deterministic — fixed job sets, attempt-keyed
/// failures, a guaranteed-runaway job, hand-built file damage — so the
/// counts are exact constants that `check_bench_json` can gate on.
fn fault_exercise() -> [(&'static str, u64); 3] {
    // Retry path: six jobs each fail transiently on their first attempt
    // and succeed on the second — exactly six retries.
    let jobs: Vec<(String, u64)> = (0..6).map(|i| (format!("retry/j{i}"), i)).collect();
    let progress = Progress::new();
    let runs = Scheduler::new(2)
        .with_retries(2)
        .run(&jobs, &progress, |_key, &i, ctx| {
            if ctx.attempt == 1 {
                return Err(JobError::transient("first attempt always fails"));
            }
            Ok(Metrics::from([("i", i as f64)]))
        });
    assert!(
        runs.iter().all(|r| matches!(r.status, JobStatus::Ok(_))),
        "every retried job must succeed on its second attempt"
    );
    let retries = counter(&progress, "harness.jobs_retried");

    // Deadline path: one cooperative runaway job loops until the
    // watchdog cancels its token — exactly one timeout.
    let jobs = vec![("runaway".to_string(), ())];
    let progress = Progress::new();
    let runs = Scheduler::new(1)
        .with_deadline(Duration::from_millis(20))
        .run(&jobs, &progress, |_key, (), ctx| {
            let start = Instant::now();
            while !ctx.cancel.is_cancelled() {
                assert!(
                    start.elapsed() < Duration::from_secs(10),
                    "watchdog never fired"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            Err::<Metrics, _>(JobError::permanent("cancelled by deadline"))
        });
    assert!(matches!(runs[0].status, JobStatus::Failed(_)));
    let timeouts = counter(&progress, "harness.jobs_timeout");

    // Recovery path: a manifest with two intact records, one garbage
    // line, and one checksum-damaged line — exactly two corrupt lines
    // skipped on open.
    let path = std::env::temp_dir().join(format!(
        "atc-harness-bench-faults-{}.jsonl",
        std::process::id()
    ));
    let damaged = {
        let mut m = Manifest::open(&path, false).expect("open scratch manifest");
        for key in ["good/a", "good/b", "doomed/c"] {
            m.append(sample_record(key)).expect("append");
        }
        m.checkpoint().expect("checkpoint");
        let text = std::fs::read_to_string(&path).expect("read back");
        // Damage the last record's checksum and plant a garbage line.
        format!("garbage line\n{}", text.replace("doomed/c", "doomed/X"))
    };
    std::fs::write(&path, damaged).expect("write damage");
    let m = Manifest::open(&path, true).expect("recovery never errors");
    assert_eq!(m.len(), 2, "the intact records load");
    let corrupt = m.recovery().corrupt as u64;
    drop(m);
    let _ = std::fs::remove_file(&path);

    [
        ("harness/retries", retries),
        ("harness/timeouts", timeouts),
        ("harness/corrupt_records", corrupt),
    ]
}

fn counter(progress: &Progress, name: &str) -> u64 {
    progress.snapshot().counter_value(name).unwrap_or(0)
}

fn sample_record(key: &str) -> atc_harness::Record {
    atc_harness::Record {
        key: key.to_string(),
        status: "ok".to_string(),
        attempts: 1,
        wall_micros: 1,
        metrics: Metrics::from([("ipc", 1.0)]),
        error: None,
    }
}

fn stream_of(bench: BenchmarkId) -> StreamKey {
    StreamKey {
        bench,
        scale: Scale::Test,
        seed: 42,
        len: WARMUP + MEASURE,
    }
}
