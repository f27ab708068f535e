#![warn(missing_docs)]
#![deny(unsafe_code)]

//! The full-system trace-driven simulator.
//!
//! [`Machine`](machine::Machine) wires together the out-of-order core
//! model (`atc-cpu`), the translation engine (`atc-vm`: DTLB, STLB, PSCs,
//! five-level page table and walker), a three-level data-cache hierarchy
//! with pluggable replacement (`atc-cache`), data prefetchers
//! (`atc-prefetch`), the paper's enhancements (`atc-core`: T-policies,
//! ATP, TEMPO, ideal oracles) and a DDR5 DRAM model (`atc-dram`).
//!
//! Page-walk reads travel through the same caches as data (PTE blocks are
//! ordinary 64-byte lines), each fill is tagged with its
//! [`AccessClass`](atc_types::AccessClass), and demand loads whose
//! translation walked the page table are tagged as *replay* loads — the
//! paper's machinery, end to end.
//!
//! Every access takes one path: a core's L1D and L2C, then the
//! cores' shared side (the LLC, DRAM and the ideal oracles, held
//! together as one uncore value), and it reports one outcome: when the
//! data is ready and which level served it. ATP, TEMPO and the
//! serving-level tallies behind Figs 3 and 7
//! ([`RunStats::service_translation`], [`RunStats::service_replay`])
//! all read that outcome; the tallies are counted once, in the core,
//! and telemetry copies them from [`RunStats`] when it snapshots.
//!
//! Runs are fallible: invalid configurations surface as
//! [`SimError::Config`](atc_types::SimError), and a machine whose memory
//! system stops answering aborts with
//! [`SimError::Deadlock`](atc_types::SimError) wrapped in a
//! [`SimFailure`] that still carries the partial statistics.
//!
//! # Run entries
//!
//! Six entries, one engine: every topology runs the same interleaved
//! loop around the one per-instruction step.
//!
//! * [`Machine::run`](machine::Machine::run) and
//!   [`Machine::run_cancellable`](machine::Machine::run_cancellable) —
//!   one core, the one-thread case of the engine;
//! * [`run_one`] and [`run_one_replay`] — build a machine and run a
//!   generator or a captured trace;
//! * [`run_smt`] and [`run_multicore`] — 2-way SMT and the shared-LLC
//!   multicore, each taking a [`CancelToken`](atc_types::CancelToken)
//!   as its last parameter.
//!
//! Each thread decodes [`DEFAULT_BATCH`] records at a time.
//!
//! # Example
//!
//! ```
//! use atc_sim::{SimConfig, run_one};
//! use atc_workloads::{BenchmarkId, Scale};
//!
//! let cfg = SimConfig::baseline();
//! let stats = run_one(&cfg, BenchmarkId::Mcf, Scale::Test, 42, 10_000, 50_000)?;
//! assert_eq!(stats.core.instructions, 50_000);
//! assert!(stats.core.ipc() > 0.0);
//! # Ok::<(), atc_sim::SimFailure>(())
//! ```

pub mod machine;
pub mod multicore;
pub mod smt;
pub mod telemetry;

pub use atc_obs::TelemetrySnapshot;
pub use machine::{Machine, Probes, RunStats, SimConfig, SimFailure, DEFAULT_BATCH};
pub use multicore::run_multicore;
pub use smt::run_smt;
pub use telemetry::TelemetryConfig;

use std::sync::Arc;

use atc_workloads::trace::{Trace, TraceReplay};
use atc_workloads::{BenchmarkId, Scale};

/// Build a machine, run `bench` for `warmup` + `measure` instructions,
/// and return the measured statistics.
///
/// # Errors
///
/// Returns a [`SimFailure`] for an invalid configuration (no partial
/// statistics) or a deadlocked run (partial statistics attached).
pub fn run_one(
    cfg: &SimConfig,
    bench: BenchmarkId,
    scale: Scale,
    seed: u64,
    warmup: u64,
    measure: u64,
) -> Result<RunStats, SimFailure> {
    let mut wl = bench.build(scale, seed);
    let mut machine = Machine::new(cfg)?;
    machine.run(wl.as_mut(), warmup, measure)
}

/// [`run_one`], but replaying a shared captured trace instead of
/// re-running the synthetic generator.
///
/// The generators are deterministic per (benchmark, scale, seed), so a
/// trace of `warmup + measure` instructions captured once (see
/// [`atc_workloads::trace::TraceCache`]) yields statistics byte-identical
/// to driving the generator directly — while every config of a sweep
/// skips the generator's setup (graph build, footprint mapping) and its
/// per-instruction cost.
///
/// # Errors
///
/// Returns a [`SimFailure`] for an invalid configuration (no partial
/// statistics) or a deadlocked run (partial statistics attached).
pub fn run_one_replay(
    cfg: &SimConfig,
    trace: Arc<Trace>,
    warmup: u64,
    measure: u64,
) -> Result<RunStats, SimFailure> {
    let mut wl = TraceReplay::shared(trace);
    let mut machine = Machine::new(cfg)?;
    machine.run(&mut wl, warmup, measure)
}
