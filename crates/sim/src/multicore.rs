//! Multi-core multi-programmed mode: N cores with private MMU/L1D/L2C,
//! sharing one LLC (2 MiB per core) and the DRAM channels — the paper's
//! 8-core evaluation (§V) — and the interleaved engine every topology
//! runs on: the single-core machine, 2-way SMT and the shared multicore.

use atc_cpu::{CoreStats, RobModel};
use atc_types::{CancelToken, SimError};
use atc_workloads::{Instr, Workload};

use crate::machine::{
    deadlock_diag, exec_instr_opts, CoreCtx, SimConfig, Uncore, CANCEL_POLL_INSTRS, DEFAULT_BATCH,
};

/// Per-thread virtual-address-space offset (bit 47: above every workload
/// base, well inside the 57-bit VA), so threads and cores run disjoint
/// address spaces.
const THREAD_VA_STRIDE: u64 = 1 << 47;

/// One thread's core, its decoded-but-not-executed records and its
/// progress through the current phase.
struct Thread {
    core: usize,
    batch: Vec<Instr>,
    next: usize,
    done: u64,
}

/// The simulator's one run loop: thread `i` runs `wls[i]` on core
/// `i % cores.len()` with ROB `robs[i]`, and every core shares `uncore`
/// (built by the caller from `cfg`, already scaled for the core count).
/// The single-core machine is the one-core, one-thread case.
///
/// Each step executes one instruction of the unfinished thread whose ROB
/// clock lags most (lowest index on ties), which approximates
/// fine-grained sharing without a cycle-accurate scheduler; a thread
/// that finishes its phase early stops issuing. A thread decodes
/// [`DEFAULT_BATCH`] records at a time through [`Workload::next_batch`],
/// never past the end of the phase. After `warmup` instructions per
/// thread every statistic resets, then `measure` more run.
///
/// `cancel` is polled whenever the instruction count, over both phases
/// and every thread, reaches the next [`CANCEL_POLL_INSTRS`] threshold;
/// [`SimError::Cancelled`] reports that count. The deadlock watchdog
/// stays per instruction (a ROB-full dispatch can jump the clock on any
/// instruction). On an error the ROBs hold the partial state.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_interleaved(
    cfg: &SimConfig,
    cores: &mut [CoreCtx],
    uncore: &mut Uncore,
    robs: &mut [RobModel],
    wls: &mut [&mut dyn Workload],
    warmup: u64,
    measure: u64,
    cancel: &CancelToken,
) -> Result<(), SimError> {
    let watchdog = cfg.watchdog_cycles.max(1);
    let mut threads: Vec<Thread> = (0..wls.len())
        .map(|i| Thread {
            core: i % cores.len(),
            batch: Vec::with_capacity(DEFAULT_BATCH),
            next: 0,
            done: 0,
        })
        .collect();
    let mut retired: u64 = 0;
    let mut next_poll: u64 = 0;
    for (phase, budget) in [warmup, measure].into_iter().enumerate() {
        for t in threads.iter_mut() {
            t.done = 0;
        }
        loop {
            if retired >= next_poll {
                if cancel.is_cancelled() {
                    return Err(SimError::Cancelled {
                        instructions: retired,
                    });
                }
                next_poll = retired + CANCEL_POLL_INSTRS;
            }
            let mut pick: Option<(usize, u64)> = None;
            for (i, t) in threads.iter().enumerate() {
                if t.done < budget {
                    let now = robs[i].now();
                    if pick.is_none_or(|(_, p)| now < p) {
                        pick = Some((i, now));
                    }
                }
            }
            let Some((i, before)) = pick else { break };
            let t = &mut threads[i];
            if t.next == t.batch.len() {
                let n = (budget - t.done).min(DEFAULT_BATCH as u64) as usize;
                wls[i].next_batch(&mut t.batch, n);
                t.next = 0;
            }
            let instr = t.batch[t.next];
            t.next += 1;
            t.done += 1;
            retired += 1;
            let core = &mut cores[t.core];
            exec_instr_opts(
                core,
                uncore,
                &mut robs[i],
                instr,
                i as u64 * THREAD_VA_STRIDE,
                cfg.ignore_deps,
            )?;
            if robs[i].now().saturating_sub(before) > watchdog {
                let diag = deadlock_diag(&robs[i], core, uncore, before);
                return Err(SimError::Deadlock(Box::new(diag)));
            }
        }
        if phase == 0 {
            for c in cores.iter_mut() {
                c.reset_stats();
            }
            uncore.reset_stats();
            for r in robs.iter_mut() {
                r.reset_measurement();
            }
        }
    }
    Ok(())
}

/// [`run_interleaved`] on a fresh [`Uncore`] and one ROB per
/// thread: the SMT and shared-multicore topologies. Returns each
/// thread's measured statistics.
pub(crate) fn run_shared(
    cfg: &SimConfig,
    cores: &mut [CoreCtx],
    wls: &mut [&mut dyn Workload],
    warmup: u64,
    measure: u64,
    cancel: &CancelToken,
) -> Result<Vec<CoreStats>, SimError> {
    let mut uncore = Uncore::new(cfg, cores[0].dppred.as_ref(), cores.len())?;
    let mut robs: Vec<RobModel> = wls
        .iter()
        .map(|_| RobModel::new(&cfg.machine.core))
        .collect();
    run_interleaved(
        cfg,
        cores,
        &mut uncore,
        &mut robs,
        wls,
        warmup,
        measure,
        cancel,
    )?;
    Ok(robs.into_iter().map(RobModel::finish).collect())
}

/// Run `workloads.len()` cores, each executing `warmup` + `measure`
/// instructions against private L1D/L2C/TLBs and a shared, size-scaled
/// LLC, under a cooperative [`CancelToken`] polled every
/// [`CANCEL_POLL_INSTRS`] interleaved instructions. Returns per-core
/// measured statistics.
///
/// # Errors
///
/// Returns [`SimError::Config`] when `workloads` is empty or the scaled
/// machine configuration is invalid, [`SimError::Deadlock`] if any
/// core's clock stops making forward progress (see
/// [`SimConfig::watchdog_cycles`]), and [`SimError::Cancelled`] once the
/// token is observed cancelled.
pub fn run_multicore(
    cfg: &SimConfig,
    workloads: &mut [Box<dyn Workload>],
    warmup: u64,
    measure: u64,
    cancel: &CancelToken,
) -> Result<Vec<CoreStats>, SimError> {
    if workloads.is_empty() {
        return Err(SimError::config("multicore: need at least one workload"));
    }
    let n = workloads.len();
    let mut mcfg = cfg.clone();
    mcfg.machine = mcfg.machine.with_llc_scaled_for_cores(n);
    // One DDR channel per four cores, as in Table I.
    mcfg.machine.dram.channels = n.div_ceil(4);
    mcfg.machine.validate()?;
    let mut cores: Vec<CoreCtx> = (0..n)
        .map(|_| CoreCtx::new(&mcfg))
        .collect::<Result<_, _>>()?;
    let mut wls: Vec<&mut dyn Workload> = workloads
        .iter_mut()
        .map(|w| &mut **w as &mut dyn Workload)
        .collect();
    run_shared(&mcfg, &mut cores, &mut wls, warmup, measure, cancel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;
    use atc_workloads::{BenchmarkId, Scale};

    #[test]
    fn four_core_mix_runs() {
        let cfg = SimConfig::baseline();
        let mut wls: Vec<Box<dyn Workload>> = [
            BenchmarkId::Mcf,
            BenchmarkId::Pr,
            BenchmarkId::Xalancbmk,
            BenchmarkId::Canneal,
        ]
        .iter()
        .enumerate()
        .map(|(i, b)| b.build(Scale::Test, i as u64 + 1))
        .collect();
        let stats =
            run_multicore(&cfg, &mut wls, 1_000, 5_000, &CancelToken::new()).expect("mix runs");
        assert_eq!(stats.len(), 4);
        for s in &stats {
            assert_eq!(s.instructions, 5_000);
            assert!(s.ipc() > 0.0);
        }
    }

    #[test]
    fn single_core_multicore_matches_machine_shape() {
        // One core of the interleaved engine is the single-core machine.
        let cfg = SimConfig::baseline();
        let mut wls: Vec<Box<dyn Workload>> = vec![BenchmarkId::Cc.build(Scale::Test, 5)];
        let stats = run_multicore(&cfg, &mut wls, 1_000, 5_000, &CancelToken::new())
            .expect("single core runs");
        let mut wl = BenchmarkId::Cc.build(Scale::Test, 5);
        let mut m = Machine::new(&cfg).expect("valid config");
        let alone = m.run(wl.as_mut(), 1_000, 5_000).expect("alone run");
        assert_eq!(format!("{stats:?}"), format!("{:?}", [alone.core]));
    }

    #[test]
    fn empty_mix_is_a_config_error() {
        let cfg = SimConfig::baseline();
        let mut wls: Vec<Box<dyn Workload>> = Vec::new();
        let err = run_multicore(&cfg, &mut wls, 100, 100, &CancelToken::new()).unwrap_err();
        assert!(matches!(err, SimError::Config(_)), "{err}");
    }
}
