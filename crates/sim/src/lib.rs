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
//! Runs are fallible: invalid configurations surface as
//! [`SimError::Config`](atc_types::SimError), and a machine whose memory
//! system stops answering aborts with
//! [`SimError::Deadlock`](atc_types::SimError) wrapped in a
//! [`SimFailure`] that still carries the partial statistics.
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
pub use multicore::{
    run_multicore, run_multicore_cancellable, run_multicore_lanes, run_multicore_lanes_cancellable,
};
pub use smt::{run_smt, run_smt_cancellable};
pub use telemetry::TelemetryConfig;

use std::sync::Arc;

use atc_types::CancelToken;
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

/// [`run_one_replay`] under a cooperative [`CancelToken`].
///
/// The access loop polls the token every
/// [`CANCEL_POLL_INSTRS`](machine::CANCEL_POLL_INSTRS) instructions; a
/// cancelled run fails with
/// [`SimError::Cancelled`](atc_types::SimError::Cancelled) and partial
/// statistics attached, exactly like a deadlock.
///
/// # Errors
///
/// As [`run_one_replay`], plus a cancellation failure once the token is
/// observed cancelled.
pub fn run_one_replay_cancel(
    cfg: &SimConfig,
    trace: Arc<Trace>,
    warmup: u64,
    measure: u64,
    cancel: &CancelToken,
) -> Result<RunStats, SimFailure> {
    let mut wl = TraceReplay::shared(trace);
    let mut machine = Machine::new(cfg)?;
    machine.run_cancellable(&mut wl, warmup, measure, cancel)
}
