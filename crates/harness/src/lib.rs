#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Checkpointed parallel sweep orchestrator for the ATC experiment
//! suite.
//!
//! The reproduction's experiments are cartesian sweeps — configuration
//! deltas × benchmarks × seeds under an instruction budget. This crate
//! turns those sweeps into a declarative, resumable job system:
//!
//! 1. [`JobSpec`] ([`spec`]) — a job's deterministic identity, whose
//!    [`key`](JobSpec::key) names the job in spec-ordered job lists and
//!    in the manifest.
//! 2. [`Scheduler`] ([`scheduler`]) — a bounded worker pool over
//!    [`std::thread::scope`] whose workers claim jobs in spec order from
//!    one shared atomic cursor, with per-job panic capture, bounded
//!    retry of transient (injected) failures with seeded exponential
//!    backoff, and a per-job deadline watchdog that cancels runaway
//!    attempts through each attempt's [`JobCtx`] cancellation token. A
//!    worker lost to a panic loses only its in-flight job.
//! 3. [`Manifest`] / [`run_with_manifest_opts`] ([`manifest`]) —
//!    append-only `manifest.jsonl` checkpointing with checksummed
//!    records and skip-and-log recovery: rerunning a half-finished (or
//!    crashed) sweep re-executes only the jobs without a usable terminal
//!    record, and metric values round-trip bit-exactly so resumed
//!    aggregation is byte-identical to a fresh run. Each record is
//!    written through to the file as its job completes, so even SIGKILL
//!    loses at most the jobs still running.
//! 4. [`Progress`] ([`progress`]) — the one place a job lifecycle
//!    transition (claim / start / retry / timeout / cancel / fault /
//!    finish / recover) is reported: queued/running/done/failed/
//!    panicked/timeout counters and a per-job wall-time histogram in an
//!    `atc-obs` [`Registry`](atc_obs::Registry), plus, when built with
//!    [`Progress::traced`], a bounded timeline of those transitions.
//! 5. [`FaultPlan`] ([`fault`]) — seeded, deterministic fault injection
//!    (panics, transient errors, stalls, torn manifest writes) for
//!    exercising every failure path above from tests and CI smokes.
//! 6. [`EventLog`] ([`events`]) + [`live_line`] ([`progress`]) —
//!    streaming observability: a traced [`Progress`]'s timestamped
//!    lifecycle events for trace-event timelines, and the live stderr
//!    progress line rendered from a [`Progress`] snapshot. The
//!    `atc_bench::stream::Sampler` thread takes those snapshots (through
//!    a closure over the `Progress`) and writes them, delta-encoded,
//!    into a checksummed `telemetry.jsonl` (`atc-telemetry-stream-v1`).
//!
//! The crate knows nothing about the simulator: jobs carry an opaque
//! payload and a runner closure, and config deltas are referenced by
//! *label* (the experiment layer owns the label → `SimConfig` catalog).
//! That keeps the dependency arrow pointing the right way — experiments
//! depend on the harness, never vice versa.
//!
//! # Example
//!
//! ```
//! use atc_harness::{
//!     run_with_manifest_opts, JobSpec, Manifest, Metrics, Progress, Scheduler, SweepOptions,
//! };
//! use atc_workloads::{BenchmarkId, Scale};
//!
//! let jobs: Vec<(String, JobSpec)> = ["base", "tempo"]
//!     .into_iter()
//!     .map(|config| JobSpec {
//!         config: config.to_string(),
//!         bench: BenchmarkId::Mcf,
//!         seed: 42,
//!         scale: Scale::Test,
//!         warmup: 100,
//!         measure: 1_000,
//!     })
//!     .map(|spec| (spec.key(), spec))
//!     .collect();
//! assert_eq!(jobs[0].0, "base/mcf/s42/test/w100/m1000");
//!
//! let dir = std::env::temp_dir().join(format!("atc-harness-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let mut manifest = Manifest::open(dir.join("manifest.jsonl"), false).unwrap();
//! let progress = Progress::new();
//! let out = run_with_manifest_opts(
//!     &Scheduler::new(2),
//!     &progress,
//!     &mut manifest,
//!     &jobs,
//!     |_key, spec, _ctx| Ok(Metrics::from([("seed", spec.seed as f64)])),
//!     SweepOptions::default(),
//! )
//! .unwrap();
//! assert_eq!(out.executed, 2);
//! assert!(out.records.iter().all(|r| r.is_ok()));
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod events;
pub mod fault;
pub mod manifest;
pub mod progress;
pub mod scheduler;
pub mod spec;

pub use events::{EventLog, JobEvent, JobEventKind, MANIFEST_WORKER};
pub use fault::FaultPlan;
pub use manifest::{
    run_with_manifest_opts, Manifest, Metrics, Record, Recovery, SweepOptions, SweepOutcome,
};
pub use progress::{live_line, Progress};
pub use scheduler::{JobCtx, JobError, JobRun, JobStatus, Scheduler};
pub use spec::{key_hash, JobSpec};
