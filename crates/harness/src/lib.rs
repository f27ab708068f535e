#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Checkpointed parallel sweep orchestrator for the ATC experiment
//! suite.
//!
//! The reproduction's experiments are cartesian sweeps — configuration
//! deltas × benchmarks × seeds under an instruction budget. This crate
//! turns those sweeps into a declarative, resumable job system:
//!
//! 1. [`JobSpec`] / [`Grid`] ([`spec`]) — a job's deterministic identity
//!    and the builder that expands sweeps into spec-ordered job lists.
//! 2. [`Scheduler`] ([`scheduler`]) — a bounded work-stealing worker
//!    pool over [`std::thread::scope`] with per-job panic capture,
//!    bounded retry of transient failures (with seeded exponential
//!    backoff), and a per-job deadline watchdog that cancels runaway
//!    attempts through each attempt's [`JobCtx`] cancellation token.
//! 3. [`Manifest`] / [`run_with_manifest`] ([`manifest`]) — append-only
//!    `manifest.jsonl` checkpointing with checksummed records and
//!    skip-and-log recovery: rerunning a half-finished (or crashed)
//!    sweep re-executes only the jobs without a usable terminal record,
//!    and metric values round-trip bit-exactly so resumed aggregation
//!    is byte-identical to a fresh run. Records stream to disk as jobs
//!    complete, so even SIGKILL loses at most the unflushed tail.
//! 4. [`Progress`] ([`progress`]) — queued/running/done/failed/panicked
//!    /timeout counters and a per-job wall-time histogram in an
//!    `atc-obs` [`Registry`](atc_obs::Registry).
//! 5. [`FaultPlan`] ([`fault`]) — seeded, deterministic fault injection
//!    (panics, transient errors, stalls, torn manifest writes) for
//!    exercising every failure path above from tests and CI smokes.
//! 6. [`EventLog`] ([`events`]) + [`live_line`] ([`progress`]) —
//!    streaming observability: timestamped job lifecycle events (claim /
//!    start / retry / timeout / cancel / finish / flush) for trace-event
//!    timelines, and the live stderr progress line rendered from a
//!    [`Progress`] snapshot. The `atc_bench::stream::Sampler` thread
//!    takes those snapshots (through a closure over the `Progress`) and
//!    writes them, delta-encoded, into a checksummed `telemetry.jsonl`
//!    (`atc-telemetry-stream-v1`).
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
//! use atc_harness::{Grid, Manifest, Metrics, Progress, Scheduler, run_with_manifest};
//! use atc_workloads::{BenchmarkId, Scale};
//!
//! let specs = Grid::new()
//!     .configs(["base", "tempo"])
//!     .benchmarks(&[BenchmarkId::Mcf])
//!     .scale(Scale::Test)
//!     .budget(100, 1_000)
//!     .build();
//! let jobs: Vec<(String, atc_harness::JobSpec)> =
//!     specs.into_iter().map(|s| (s.key(), s)).collect();
//!
//! let dir = std::env::temp_dir().join(format!("atc-harness-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let mut manifest = Manifest::open(dir.join("manifest.jsonl"), false).unwrap();
//! let progress = Progress::new();
//! let out = run_with_manifest(
//!     &Scheduler::new(2),
//!     &progress,
//!     &mut manifest,
//!     &jobs,
//!     |_key, spec, _ctx| Ok(Metrics::from([("seed", spec.seed as f64)])),
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

pub use events::{EventLog, JobEvent, JobEventKind, MANIFEST_WORKER, WATCHDOG_WORKER};
pub use fault::FaultPlan;
pub use manifest::{
    run_with_manifest, run_with_manifest_opts, Manifest, Metrics, Record, Recovery, SweepOptions,
    SweepOutcome,
};
pub use progress::{live_line, Progress};
pub use scheduler::{JobCtx, JobError, JobRun, JobStatus, Scheduler};
pub use spec::{key_hash, Grid, JobSpec};
