//! Multi-core multi-programmed mode: N cores with private MMU/L1D/L2C,
//! sharing one LLC (2 MiB per core) and the DRAM channels — the paper's
//! 8-core evaluation (§V) — and the interleaved engine it shares with
//! 2-way SMT.

use atc_cpu::{CoreStats, RobModel};
use atc_dram::Dram;
use atc_types::{CancelToken, SimError};
use atc_workloads::Workload;

use crate::machine::{
    build_llc, deadlock_diag, exec_instr_opts, CoreCtx, Machine, SimConfig, CANCEL_POLL_INSTRS,
};

/// Per-thread virtual-address-space offset (bit 47: above every workload
/// base, well inside the 57-bit VA), so threads and cores run disjoint
/// address spaces.
const THREAD_VA_STRIDE: u64 = 1 << 47;

/// The interleaved engine behind SMT and the shared multicore: thread
/// `i` runs `wls[i]` on core `i % cores.len()` with its own ROB, and
/// every core shares one LLC and DRAM built from `cfg` (already scaled
/// for the core count; under DpPred the LLC's CbPred reads core 0's
/// dead-page table). Each step executes one instruction of the
/// unfinished thread whose ROB clock lags most (lowest index on ties),
/// which approximates fine-grained sharing without a cycle-accurate
/// scheduler; a thread that finishes its phase early stops issuing.
/// `cancel` is polled every [`CANCEL_POLL_INSTRS`] interleaved
/// instructions. Returns each thread's measured statistics.
pub(crate) fn run_interleaved(
    cfg: &SimConfig,
    cores: &mut [CoreCtx],
    wls: &mut [&mut dyn Workload],
    warmup: u64,
    measure: u64,
    cancel: &CancelToken,
) -> Result<Vec<CoreStats>, SimError> {
    let watchdog = cfg.watchdog_cycles.max(1);
    let mut llc = build_llc(cfg, cores[0].dppred.as_ref(), cores.len())?;
    let mut dram = Dram::new(&cfg.machine.dram);
    let mut robs: Vec<RobModel> = wls
        .iter()
        .map(|_| RobModel::new(&cfg.machine.core))
        .collect();
    for (phase, budget) in [warmup, measure].into_iter().enumerate() {
        let mut done = vec![0u64; wls.len()];
        let mut retired: u64 = 0;
        let mut next_poll: u64 = 0;
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
            for (i, d) in done.iter().enumerate() {
                if *d < budget {
                    let now = robs[i].now();
                    if pick.is_none_or(|(_, t)| now < t) {
                        pick = Some((i, now));
                    }
                }
            }
            let Some((i, before)) = pick else { break };
            let core = &mut cores[i % cores.len()];
            exec_instr_opts(
                core,
                &mut llc,
                &mut dram,
                &cfg.ideal,
                &mut robs[i],
                wls[i].next_instr(),
                i as u64 * THREAD_VA_STRIDE,
                cfg.ignore_deps,
            )?;
            if robs[i].now().saturating_sub(before) > watchdog {
                let diag = deadlock_diag(&robs[i], core, &llc, before);
                return Err(SimError::Deadlock(Box::new(diag)));
            }
            done[i] += 1;
            retired += 1;
        }
        if phase == 0 {
            for c in cores.iter_mut() {
                c.reset_stats();
            }
            llc.reset_stats();
            dram.reset_stats();
            for r in robs.iter_mut() {
                r.reset_measurement();
            }
        }
    }
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
    run_interleaved(&mcfg, &mut cores, &mut wls, warmup, measure, cancel)
}

/// Partitioned-lane multicore: each core owns its *entire* hierarchy —
/// private L1D/L2C/TLBs as in [`run_multicore`], plus its own 2 MiB LLC
/// slice and DRAM channel — so lanes never interact and can be simulated
/// concurrently, one [`Machine`] per lane on its
/// own OS thread.
///
/// This is the way-partitioned/channel-partitioned operating point of
/// the shared configuration: the shared mode scales the LLC to 2 MiB ×
/// cores and gives one channel per four cores; the lane slice hands each
/// core exactly its capacity share (the channel share rounds up to one
/// private channel). Contention disappears, which is the point — lanes
/// become embarrassingly parallel, and the lane-ordered merge makes the
/// result independent of thread scheduling: any `jobs >= 1` produces
/// byte-identical statistics (`jobs == 1` runs the serial twin on the
/// caller's thread; `ci.sh` diffs the two).
///
/// Every lane polls `cancel` exactly as
/// [`Machine::run_cancellable`] does.
///
/// # Errors
///
/// Returns [`SimError::Config`] when `workloads` is empty, `jobs == 0`,
/// or the machine configuration is invalid; lane failures (deadlock,
/// cancellation) surface as the error of the lowest-numbered failing
/// lane, again independent of scheduling.
pub fn run_multicore_lanes(
    cfg: &SimConfig,
    workloads: &mut [Box<dyn Workload>],
    warmup: u64,
    measure: u64,
    jobs: usize,
    cancel: &CancelToken,
) -> Result<Vec<CoreStats>, SimError> {
    if workloads.is_empty() {
        return Err(SimError::config(
            "multicore lanes: need at least one workload",
        ));
    }
    if jobs == 0 {
        return Err(SimError::config("multicore lanes: jobs must be >= 1"));
    }
    cfg.machine.validate()?;

    let run_lane = |wl: &mut Box<dyn Workload>| -> Result<CoreStats, SimError> {
        let stats = Machine::new(cfg)?
            .run_cancellable(wl.as_mut(), warmup, measure, cancel)
            .map_err(|failure| failure.error)?;
        Ok(stats.core)
    };

    let n = workloads.len();
    let mut results: Vec<Option<Result<CoreStats, SimError>>> = (0..n).map(|_| None).collect();
    if jobs == 1 || n == 1 {
        // Serial twin: the reference the concurrent path must match
        // byte-for-byte.
        for (wl, slot) in workloads.iter_mut().zip(results.iter_mut()) {
            *slot = Some(run_lane(wl));
        }
    } else {
        // Static lane striping: worker k owns lanes k, k + jobs, …, and
        // writes only its own lanes' result slots. The merge below reads
        // a fully lane-indexed vector, so thread scheduling cannot
        // reorder anything observable.
        type LaneSlot<'a> = (
            &'a mut Box<dyn Workload>,
            &'a mut Option<Result<CoreStats, SimError>>,
        );
        let workers = jobs.min(n);
        let mut per_worker: Vec<Vec<LaneSlot<'_>>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, pair) in workloads.iter_mut().zip(results.iter_mut()).enumerate() {
            per_worker[i % workers].push(pair);
        }
        std::thread::scope(|s| {
            let run_lane = &run_lane;
            for worker in per_worker {
                s.spawn(move || {
                    for (wl, slot) in worker {
                        *slot = Some(run_lane(wl));
                    }
                });
            }
        });
    }

    // Lane-ordered merge: the earliest lane's error wins deterministically.
    let mut out = Vec::with_capacity(n);
    for slot in results {
        out.push(slot.expect("every lane writes its slot")?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn lane_mix() -> Vec<Box<dyn Workload>> {
        [
            BenchmarkId::Mcf,
            BenchmarkId::Pr,
            BenchmarkId::Xalancbmk,
            BenchmarkId::Canneal,
        ]
        .iter()
        .enumerate()
        .map(|(i, b)| b.build(Scale::Test, i as u64 + 1))
        .collect()
    }

    #[test]
    fn lanes_match_serial_twin_at_every_job_count() {
        let cfg = SimConfig::baseline();
        let serial =
            run_multicore_lanes(&cfg, &mut lane_mix(), 1_000, 5_000, 1, &CancelToken::new())
                .expect("serial twin");
        for jobs in [2, 3, 4, 7] {
            let concurrent = run_multicore_lanes(
                &cfg,
                &mut lane_mix(),
                1_000,
                5_000,
                jobs,
                &CancelToken::new(),
            )
            .expect("concurrent lanes");
            assert_eq!(concurrent.len(), serial.len());
            for (lane, (c, s)) in concurrent.iter().zip(&serial).enumerate() {
                assert_eq!(
                    (c.instructions, c.cycles),
                    (s.instructions, s.cycles),
                    "lane {lane} diverged at jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn lanes_are_independent_single_core_machines() {
        // Each lane owns its private hierarchy slice, so lane stats must
        // equal a standalone single-core run of the same workload.
        let cfg = SimConfig::baseline();
        let stats =
            run_multicore_lanes(&cfg, &mut lane_mix(), 1_000, 5_000, 2, &CancelToken::new())
                .expect("lanes");
        for (i, (b, lane)) in [
            BenchmarkId::Mcf,
            BenchmarkId::Pr,
            BenchmarkId::Xalancbmk,
            BenchmarkId::Canneal,
        ]
        .iter()
        .zip(&stats)
        .enumerate()
        {
            let mut wl = b.build(Scale::Test, i as u64 + 1);
            let mut m = Machine::new(&cfg).expect("machine");
            let alone = m.run(wl.as_mut(), 1_000, 5_000).expect("alone run");
            assert_eq!(lane.cycles, alone.core.cycles, "lane {i} ({})", b.name());
            assert_eq!(lane.instructions, alone.core.instructions);
        }
    }

    #[test]
    fn lanes_reject_zero_jobs_and_empty_mixes() {
        let cfg = SimConfig::baseline();
        let err = run_multicore_lanes(&cfg, &mut lane_mix(), 100, 100, 0, &CancelToken::new())
            .unwrap_err();
        assert!(matches!(err, SimError::Config(_)), "{err}");
        let mut empty: Vec<Box<dyn Workload>> = Vec::new();
        let err =
            run_multicore_lanes(&cfg, &mut empty, 100, 100, 2, &CancelToken::new()).unwrap_err();
        assert!(matches!(err, SimError::Config(_)), "{err}");
    }

    #[test]
    fn cancelled_lanes_surface_cancellation() {
        let cfg = SimConfig::baseline();
        let token = CancelToken::new();
        token.cancel();
        let err = run_multicore_lanes(&cfg, &mut lane_mix(), 1_000, 5_000, 2, &token).unwrap_err();
        assert!(matches!(err, SimError::Cancelled { .. }), "{err}");
    }
}
