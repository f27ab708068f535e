//! 2-way SMT: two hardware threads sharing one core's entire memory
//! hierarchy (DTLB, STLB, PSCs, L1D, L2C, LLC, DRAM), each with its own
//! ROB — the paper's §V SMT configuration.
//!
//! Threads run disjoint address spaces (each workload's virtual addresses
//! are relocated by a per-thread offset, modelling distinct processes on
//! the SMT pair), interleaved by the engine the shared multicore uses.

use atc_cpu::CoreStats;
use atc_types::{CancelToken, SimError};
use atc_workloads::Workload;

use crate::machine::{CoreCtx, SimConfig};
use crate::multicore::{reject_probes, run_shared};

/// Result of an SMT run: per-thread measured statistics.
#[derive(Debug, Clone)]
pub struct SmtStats {
    /// Statistics for thread 0 and thread 1.
    pub threads: [CoreStats; 2],
}

/// Run two workloads as a 2-way SMT pair under a cooperative
/// [`CancelToken`]. Each thread executes `warmup` instructions of
/// warmup and `measure` measured instructions; a thread that finishes
/// early stops issuing (the other keeps the hierarchy to itself for its
/// tail, as in multi-programmed methodology).
///
/// # Errors
///
/// Returns [`SimError::Config`] for an invalid machine configuration or
/// a `cfg` that attaches any [`Probes`](crate::Probes),
/// [`SimError::Deadlock`] if either thread's clock stops making forward
/// progress (see [`SimConfig::watchdog_cycles`]), and
/// [`SimError::Cancelled`] once the token is observed cancelled.
pub fn run_smt(
    cfg: &SimConfig,
    wl0: &mut dyn Workload,
    wl1: &mut dyn Workload,
    warmup: u64,
    measure: u64,
    cancel: &CancelToken,
) -> Result<SmtStats, SimError> {
    reject_probes(cfg, "smt")?;
    cfg.machine.validate()?;
    let mut core = [CoreCtx::new(cfg)?];
    let stats = run_shared(cfg, &mut core, &mut [wl0, wl1], warmup, measure, cancel)?;
    let threads = stats.try_into().expect("one result per thread");
    Ok(SmtStats { threads })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atc_workloads::{BenchmarkId, Scale};

    #[test]
    fn smt_runs_both_threads() {
        let cfg = SimConfig::baseline();
        let mut a = BenchmarkId::Mcf.build(Scale::Test, 1);
        let mut b = BenchmarkId::Xalancbmk.build(Scale::Test, 2);
        let s = run_smt(
            &cfg,
            a.as_mut(),
            b.as_mut(),
            2_000,
            10_000,
            &CancelToken::new(),
        )
        .expect("smt runs");
        assert_eq!(s.threads[0].instructions, 10_000);
        assert_eq!(s.threads[1].instructions, 10_000);
        assert!(s.threads[0].ipc() > 0.0);
        assert!(s.threads[1].ipc() > 0.0);
    }

    #[test]
    fn sharing_slows_threads_vs_alone() {
        let cfg = SimConfig::baseline();
        // Alone run of mcf.
        let mut alone_wl = BenchmarkId::Mcf.build(Scale::Test, 1);
        let mut m = crate::Machine::new(&cfg).unwrap();
        let alone = m.run(alone_wl.as_mut(), 2_000, 10_000).unwrap();

        let mut a = BenchmarkId::Mcf.build(Scale::Test, 1);
        let mut b = BenchmarkId::Pr.build(Scale::Test, 2);
        let shared = run_smt(
            &cfg,
            a.as_mut(),
            b.as_mut(),
            2_000,
            10_000,
            &CancelToken::new(),
        )
        .unwrap();
        assert!(
            shared.threads[0].cycles > alone.core.cycles,
            "shared {} !> alone {}",
            shared.threads[0].cycles,
            alone.core.cycles
        );
    }
}
