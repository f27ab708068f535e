//! The single-core machine and the shared memory-path logic reused by
//! the SMT and multi-core drivers.

use std::slice;

use crate::multicore::run_interleaved;
use crate::telemetry::{SimTelemetry, TelemetryConfig};
use atc_cache::{Cache, Probe};
use atc_core::{Atp, DpPred, IdealConfig, PolicyChoice, Tempo};
use atc_cpu::{CompletionKind, CoreStats, RobModel};
use atc_dram::{Dram, DramStats};
use atc_obs::{TelemetrySnapshot, WalkHop, MAX_WALK_HOPS};
use atc_prefetch::{PrefetchContext, PrefetchRequest, Prefetcher, PrefetcherKind};
use atc_stats::{ClassCounters, Histogram};
use atc_types::{
    config::MachineConfig, AccessClass, AccessInfo, CancelToken, DeadlockDiag, LineAddr, MemLevel,
    SimError, VirtAddr,
};
use atc_vm::tlb::TlbStats;
use atc_vm::{TranslationEngine, TranslationQuery, WalkPlan};
use atc_workloads::{Instr, MemOp, Workload};

/// Latency charged to a virtual-address prefetch whose page missed the
/// STLB: the prefetch "doesn't proceed till the STLB fills" (§III's
/// late-IPCP effect), approximated by a typical walk latency.
const PREFETCH_STLB_MISS_DELAY: u64 = 120;

/// Instructions between [`CancelToken`] polls in the run loop
/// (`multicore::run_interleaved`). Coarse enough to amortize the atomic
/// load to nothing, fine enough that a deadline overshoots by at most a
/// few microseconds of simulated work.
///
/// The loop counts instructions over both phases and every thread and
/// compares against a *next-poll threshold* (`retired >= next_poll`)
/// rather than a divisibility test, so the poll cannot be stepped over
/// whatever the phase lengths.
pub const CANCEL_POLL_INSTRS: u64 = 4096;

/// Records each thread of the run loop decodes per
/// [`Workload::next_batch`] call (fewer at the end of a phase, so a run
/// never decodes past its budget): big enough to amortize the per-batch
/// decode dispatch, small enough that a batch of `Instr` stays in L1.
pub const DEFAULT_BATCH: usize = 64;

/// Optional measurement probes (recall distances, telemetry).
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// Track recall distance at the L2C for these classes (empty list =
    /// all classes; `None` = probe off).
    pub l2c_recall: Option<Vec<AccessClass>>,
    /// Track recall distance at the LLC for these classes.
    pub llc_recall: Option<Vec<AccessClass>>,
    /// Track recall distance of translations at the STLB (Fig 18).
    pub stlb_recall: bool,
    /// Attach the telemetry layer: counters, latency histograms and
    /// sampled walk/replay spans, snapshotted into
    /// [`RunStats::telemetry`]. `None` = detached (zero overhead beyond
    /// one branch per event).
    pub telemetry: Option<TelemetryConfig>,
}

impl Probes {
    /// Recall-distance cap (distances beyond it count as overflow).
    pub const CAP: usize = 200;

    /// True when any probe is attached.
    pub(crate) fn any(&self) -> bool {
        self.l2c_recall.is_some()
            || self.llc_recall.is_some()
            || self.stlb_recall
            || self.telemetry.is_some()
    }
}

/// Full simulator configuration: machine + policies + enhancements.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Hardware parameters (Table I defaults).
    pub machine: MachineConfig,
    /// L2C replacement policy (paper: DRRIP baseline, T-DRRIP enhanced).
    pub l2c_policy: PolicyChoice,
    /// LLC replacement policy (paper: SHiP baseline, T-SHiP enhanced).
    pub llc_policy: PolicyChoice,
    /// Enable the ATP replay-load prefetcher.
    pub atp: bool,
    /// Enable TEMPO at the DRAM controller.
    pub tempo: bool,
    /// Hardware data prefetcher (Fig 8 / Fig 15 baselines).
    pub prefetcher: PrefetcherKind,
    /// Ideal-cache oracles (Fig 2).
    pub ideal: IdealConfig,
    /// Enable the §V-B comparison mechanism: DpPred dead-page bypass at
    /// the STLB plus CbPred dead-block insertion at the LLC (overrides
    /// `llc_policy`).
    pub dppred: bool,
    /// Ablation: ignore address dependencies between loads (restores the
    /// unbounded-MLP model; shows why dependent issue matters for Fig 1).
    pub ignore_deps: bool,
    /// Forward-progress watchdog: if the core clock advances by more than
    /// this many cycles across a single instruction (the ROB head is
    /// stuck waiting on memory that will never answer), the run aborts
    /// with [`SimError::Deadlock`]. The default is far above any latency
    /// a correctly configured memory system can produce.
    pub watchdog_cycles: u64,
    /// Measurement probes.
    pub probes: Probes,
}

impl SimConfig {
    /// The paper's strong baseline: DRRIP at L2C, SHiP at LLC, no data
    /// prefetcher, no enhancements.
    pub fn baseline() -> Self {
        SimConfig {
            machine: MachineConfig::default(),
            l2c_policy: PolicyChoice::Drrip,
            llc_policy: PolicyChoice::Ship,
            atp: false,
            tempo: false,
            prefetcher: PrefetcherKind::None,
            ideal: IdealConfig::none(),
            dppred: false,
            ignore_deps: false,
            watchdog_cycles: 2_000_000,
            probes: Probes::default(),
        }
    }

    /// A point on the paper's cumulative enhancement ladder (Fig 14).
    pub fn with_enhancement(e: atc_core::Enhancement) -> Self {
        let mut cfg = SimConfig::baseline();
        if e.has_tdrrip() {
            cfg.l2c_policy = PolicyChoice::TDrrip;
        }
        if e.has_tship() {
            cfg.llc_policy = PolicyChoice::TShip;
        }
        cfg.atp = e.has_atp();
        cfg.tempo = e.has_tempo();
        cfg
    }
}

/// Per-core private state: MMU, L1D, L2C, prefetchers, enhancements.
pub(crate) struct CoreCtx {
    pub mmu: TranslationEngine,
    pub l1d: Cache,
    pub l2c: Cache,
    pub l1_pf: Option<Box<dyn Prefetcher>>,
    pub l2_pf: Option<Box<dyn Prefetcher>>,
    pub atp: Option<Atp>,
    pub tempo: Option<Tempo>,
    pub dppred: Option<DpPred>,
    pub service_translation: [u64; 4],
    pub service_replay: [u64; 4],
    pub telem: Option<Box<SimTelemetry>>,
}

impl CoreCtx {
    pub(crate) fn new(cfg: &SimConfig) -> Result<Self, SimError> {
        let m = &cfg.machine;
        let l1d = Cache::new(
            "L1D",
            m.l1d.sets(),
            m.l1d.ways,
            m.l1d.latency,
            m.l1d.mshr_entries,
            // L1D keeps LRU in all configurations (the paper leaves it
            // untouched: optimizing L1D for rare classes hurts
            // non-replays).
            PolicyChoice::Lru.build_impl(m.l1d.sets(), m.l1d.ways),
        )?;
        let mut l2c = Cache::new(
            "L2C",
            m.l2c.sets(),
            m.l2c.ways,
            m.l2c.latency,
            m.l2c.mshr_entries,
            cfg.l2c_policy.build_impl(m.l2c.sets(), m.l2c.ways),
        )?;
        if let Some(classes) = &cfg.probes.l2c_recall {
            l2c.enable_recall_probe(Probes::CAP, classes);
        }
        let mut mmu = TranslationEngine::new(m);
        if cfg.probes.stlb_recall {
            mmu.stlb_mut().enable_recall_probe(Probes::CAP);
        }
        let pf = cfg.prefetcher.build();
        let (l1_pf, l2_pf) = if cfg.prefetcher.at_l1d() {
            (pf, None)
        } else {
            (None, pf)
        };
        Ok(CoreCtx {
            mmu,
            l1d,
            l2c,
            l1_pf,
            l2_pf,
            atp: cfg.atp.then(Atp::new),
            tempo: cfg.tempo.then(Tempo::new),
            dppred: cfg.dppred.then(DpPred::new),
            service_translation: [0; 4],
            service_replay: [0; 4],
            telem: cfg
                .probes
                .telemetry
                .as_ref()
                .map(|t| Box::new(SimTelemetry::new(t))),
        })
    }

    pub(crate) fn reset_stats(&mut self) {
        self.mmu.reset_stats();
        self.l1d.reset_stats();
        self.l2c.reset_stats();
        self.service_translation = [0; 4];
        self.service_replay = [0; 4];
        if let Some(t) = &mut self.telem {
            t.reset();
        }
    }
}

/// The cores' shared side of the memory system: the LLC, DRAM and the
/// ideal-cache oracles (Fig 2) every access path consults.
pub(crate) struct Uncore {
    pub llc: Cache,
    pub dram: Dram,
    pub ideal: IdealConfig,
}

impl Uncore {
    /// The uncore shared by `cores` cores (LLC MSHRs scale with the core
    /// count): `cfg.llc_policy`, or CbPred on `dppred`'s dead-page table
    /// when [`SimConfig::dppred`] is set, with the recall probe
    /// [`Probes::llc_recall`] asks for. Every topology builds its uncore
    /// here.
    pub(crate) fn new(
        cfg: &SimConfig,
        dppred: Option<&DpPred>,
        cores: usize,
    ) -> Result<Self, SimError> {
        let m = &cfg.machine;
        let policy = match dppred {
            // CbPred replaces the LLC policy and shares DpPred's table.
            Some(p) => (Box::new(p.cbpred_policy(m.llc.sets(), m.llc.ways))
                as Box<dyn atc_cache::policy::ReplacementPolicy>)
                .into(),
            None => cfg.llc_policy.build_impl(m.llc.sets(), m.llc.ways),
        };
        let mut llc = Cache::new(
            "LLC",
            m.llc.sets(),
            m.llc.ways,
            m.llc.latency,
            m.llc.mshr_entries * cores,
            policy,
        )?;
        if let Some(classes) = &cfg.probes.llc_recall {
            llc.enable_recall_probe(Probes::CAP, classes);
        }
        Ok(Uncore {
            llc,
            dram: Dram::new(&m.dram),
            ideal: cfg.ideal,
        })
    }

    pub(crate) fn reset_stats(&mut self) {
        self.llc.reset_stats();
        self.dram.reset_stats();
    }
}

/// What one access through the hierarchy did.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AccessOutcome {
    /// Cycle the requester's data is ready (before the fill when an
    /// ideal oracle answers early).
    pub ready: u64,
    /// Level that served the access.
    pub served: MemLevel,
}

/// Walk `core`'s hierarchy from `start` for `info` arriving at `cycle`.
/// Missed levels along the path are filled with the final ready time;
/// ideal-oracle levels answer the requester early while the real miss
/// still consumes bandwidth.
pub(crate) fn access_path(
    core: &mut CoreCtx,
    uncore: &mut Uncore,
    info: &AccessInfo,
    cycle: u64,
    start: MemLevel,
) -> AccessOutcome {
    let mut levels = [&mut core.l1d, &mut core.l2c, &mut uncore.llc];
    let mut t = cycle;
    // The set index and first empty way each missed level's probe
    // computed: a fixed inline buffer keeps this per-access path
    // allocation-free and lets the fill below skip the set
    // recomputation and the residency/empty-way rescans.
    let mut missed = [(0usize, None); 3];
    let mut oracle_ready: Option<u64> = None;
    let mut hit = None;
    // Hoisted once per access: with no oracle configured (the common
    // case), the per-level `applies` test is skipped entirely.
    let ideal_active = uncore.ideal.any();

    for (i, cache) in levels.iter_mut().enumerate().skip(start.index()) {
        match cache.probe(info, t) {
            Probe::Ready(ready) => {
                hit = Some(AccessOutcome {
                    ready,
                    served: MemLevel::ALL[i],
                });
                break;
            }
            Probe::Miss { set, empty } => {
                if ideal_active
                    && oracle_ready.is_none()
                    && uncore.ideal.applies(MemLevel::ALL[i], info.class)
                {
                    oracle_ready = Some(t + cache.latency());
                }
                missed[i] = (set, empty);
                t += cache.latency();
            }
        }
    }

    let out = hit.unwrap_or_else(|| AccessOutcome {
        ready: uncore.dram.access(info.line, t),
        served: MemLevel::Dram,
    });
    // Every level from `start` to the one that served the access missed.
    let filled = levels.iter_mut().zip(missed).take(out.served.index());
    for (cache, (set, empty)) in filled.skip(start.index()) {
        let _ = cache.insert_miss_at(set, empty, info, out.ready, cycle);
    }
    AccessOutcome {
        ready: oracle_ready.map_or(out.ready, |o| o.min(out.ready)),
        ..out
    }
}

/// Execute a page walk: play each PTE read through the caches, trigger
/// ATP/TEMPO on the leaf read, install TLB/PSC entries. Returns the cycle
/// the translation resolves.
pub(crate) fn do_walk(
    core: &mut CoreCtx,
    uncore: &mut Uncore,
    ip: u64,
    plan: &WalkPlan,
    block_in_page: u64,
    start_time: u64,
) -> u64 {
    let mut t = start_time;
    // Per-PTE-read hop record for the telemetry span tracer; a fixed
    // stack buffer keeps the walk path allocation-free.
    let mut hops = [WalkHop::PAD; MAX_WALK_HOPS];
    let mut hop_count = 0usize;
    for step in &plan.steps {
        let info = AccessInfo::demand(
            ip,
            step.pte_addr.line(),
            AccessClass::Translation(step.level),
        );
        let AccessOutcome { ready, served } = access_path(core, uncore, &info, t, MemLevel::L1d);
        if step.level.is_leaf() {
            core.service_translation[served.index()] += 1;
            // ATP: leaf PTE hit at L2C/LLC → prefetch the replay block
            // right away, into the level that held the PTE.
            if let Some(atp) = &mut core.atp {
                if let Some(pf) = atp.on_leaf_pte_access(served, plan.data_pfn, block_in_page) {
                    let pf_info = AccessInfo::prefetch(ip, pf.line, AccessClass::ReplayData);
                    let start = match pf.trigger_level {
                        MemLevel::L2c => MemLevel::L2c,
                        _ => MemLevel::Llc,
                    };
                    access_path(core, uncore, &pf_info, ready, start);
                }
            }
            // TEMPO: leaf PTE served by DRAM → the controller fetches the
            // replay block back-to-back and fills the LLC.
            if served == MemLevel::Dram {
                if let Some(tempo) = &mut core.tempo {
                    let pf = tempo.on_leaf_pte_dram(plan.data_pfn, block_in_page);
                    let pf_info = AccessInfo::prefetch(ip, pf.line, AccessClass::ReplayData);
                    let llc = &mut uncore.llc;
                    if !llc.contains(pf.line) && llc.mshr_merge(&pf_info, ready).is_none() {
                        let dram_ready = uncore.dram.access(pf.line, ready);
                        let _ = llc.insert_miss(&pf_info, dram_ready, ready);
                    }
                }
            }
        }
        if hop_count < MAX_WALK_HOPS {
            hops[hop_count] = WalkHop {
                level: step.level,
                served,
                latency: ready.saturating_sub(t),
            };
            hop_count += 1;
        }
        t = ready;
    }
    if let Some(tm) = &mut core.telem {
        tm.on_walk_complete(start_time, t, &hops[..hop_count]);
    }
    // DpPred (§V-B comparison): STLB bypass and eviction training.
    let fill_stlb = match &core.dppred {
        Some(p) => !p.should_bypass_stlb(ip),
        None => true,
    };
    let evicted = core.mmu.complete_walk_tracked(plan, ip, fill_stlb);
    if let (Some(p), Some(ev)) = (&core.dppred, evicted) {
        p.on_stlb_eviction(&ev);
    }
    t
}

/// Issue prefetch candidates produced by a prefetcher observing `core`'s
/// demand stream: the [`Candidates`](atc_prefetch::Candidates) of one
/// access, so at most [`atc_prefetch::MAX_DEGREE`] of them.
pub(crate) fn issue_prefetches(
    core: &mut CoreCtx,
    uncore: &mut Uncore,
    reqs: &[PrefetchRequest],
    ip: u64,
    cycle: u64,
    from_l1: bool,
) {
    for req in reqs {
        match *req {
            PrefetchRequest::Phys(line) => {
                if core.l2c.contains(line) {
                    continue;
                }
                let info = AccessInfo::prefetch(ip, line, AccessClass::NonReplayData);
                access_path(core, uncore, &info, cycle, MemLevel::L2c);
            }
            PrefetchRequest::Virt(va) => {
                // Virtual prefetch must translate first; an STLB miss
                // delays it (late prefetch), it does not fill the TLBs.
                let vpn = va.vpn();
                let (pfn, delay) = match core
                    .mmu
                    .dtlb()
                    .peek(vpn)
                    .or_else(|| core.mmu.stlb().peek(vpn))
                {
                    Some(pfn) => (pfn, 0),
                    None => {
                        // Consult the page table read-only: a speculative
                        // prefetch must never allocate a mapping for a
                        // page the program has not touched.
                        let Some(pfn) = core.mmu.page_table().translate(vpn) else {
                            continue;
                        };
                        (pfn, PREFETCH_STLB_MISS_DELAY)
                    }
                };
                let line = LineAddr::new((pfn.raw() << 6) | va.block_in_page());
                let start = if from_l1 {
                    MemLevel::L1d
                } else {
                    MemLevel::L2c
                };
                if (from_l1 && core.l1d.contains(line)) || (!from_l1 && core.l2c.contains(line)) {
                    continue;
                }
                let info = AccessInfo::prefetch(ip, line, AccessClass::NonReplayData);
                access_path(core, uncore, &info, cycle + delay, start);
            }
        }
    }
}

/// Execute one instruction against the memory system and push it into
/// `rob`: the simulator's only per-instruction step, shared by the
/// single-core loops, SMT and multi-core. `va_offset` relocates the
/// workload's address space (used to give SMT threads / cores disjoint
/// address spaces); `ignore_deps` is the dependency ablation
/// ([`SimConfig::ignore_deps`]).
///
/// # Errors
///
/// Propagates [`SimError::Walk`] from the translation engine (a
/// corrupted page-table path; unreachable with demand mapping).
pub(crate) fn exec_instr_opts(
    core: &mut CoreCtx,
    uncore: &mut Uncore,
    rob: &mut RobModel,
    instr: Instr,
    va_offset: u64,
    ignore_deps: bool,
) -> Result<(), SimError> {
    let at = rob.dispatch();
    let Some(op) = instr.op else {
        rob.push(CompletionKind::NonMemory);
        return Ok(());
    };
    let (va_raw, is_store) = match op {
        MemOp::Load(a) => (a.raw(), false),
        MemOp::Store(a) => (a.raw(), true),
    };
    let va = VirtAddr::new(va_raw + va_offset);
    let ip = instr.ip;
    // Address-dependent ops (pointer chases, gathers) cannot issue until
    // the producing load returns.
    let at = if instr.dep && !ignore_deps {
        at.max(rob.last_load_completion())
    } else {
        at
    };

    // --- Translation ---
    let query = core.mmu.query(va.vpn())?;
    let dtlb_lat = core.mmu.dtlb_latency();
    let stlb_lat = core.mmu.stlb_latency();
    let psc_lat = core.mmu.psc_latency();
    let (trans_done, pfn, walked) = match query {
        TranslationQuery::DtlbHit(pfn) => (at + dtlb_lat, pfn, false),
        TranslationQuery::StlbHit(pfn) => (at + dtlb_lat + stlb_lat, pfn, false),
        TranslationQuery::Walk(plan) => {
            let walk_start = at + dtlb_lat + stlb_lat + psc_lat;
            let done = do_walk(core, uncore, ip, &plan, va.block_in_page(), walk_start);
            (done, plan.data_pfn, true)
        }
    };

    // --- Data access ---
    let line = LineAddr::new((pfn.raw() << 6) | va.block_in_page());
    let class = if is_store {
        AccessClass::Store
    } else if walked {
        AccessClass::ReplayData
    } else {
        AccessClass::NonReplayData
    };
    let info = AccessInfo::demand(ip, line, class);

    // L1D prefetcher observes the demand stream (virtual addresses).
    // The residency pre-probe (a full set scan) only runs when a
    // prefetcher is attached — without one, nothing consumes it.
    if let Some(pf) = &mut core.l1_pf {
        let ctx = PrefetchContext {
            ip,
            line,
            vaddr: va,
            hit: core.l1d.contains(line),
        };
        let reqs = pf.on_access(&ctx);
        if !reqs.is_empty() {
            issue_prefetches(core, uncore, &reqs, ip, trans_done, true);
        }
    }

    let AccessOutcome {
        ready: data_done,
        served,
    } = access_path(core, uncore, &info, trans_done, MemLevel::L1d);
    if class == AccessClass::ReplayData {
        core.service_replay[served.index()] += 1;
    }
    if let Some(tm) = &mut core.telem {
        // Close a traced replay span for this line first, then (for
        // replay loads) open a new one — a replayed line must not close
        // its own span.
        tm.on_demand_access(line.raw(), data_done, served);
        if class == AccessClass::ReplayData {
            tm.on_replay_fill(line.raw(), trans_done, data_done, served);
        }
    }

    // L2C prefetcher observes accesses that reached the L2C.
    if served != MemLevel::L1d {
        if let Some(pf) = &mut core.l2_pf {
            let ctx = PrefetchContext {
                ip,
                line,
                vaddr: va,
                hit: served == MemLevel::L2c,
            };
            let reqs = pf.on_access(&ctx);
            if !reqs.is_empty() {
                issue_prefetches(core, uncore, &reqs, ip, trans_done, false);
            }
        }
    }

    if is_store {
        // Stores retire without waiting for their data.
        rob.push(CompletionKind::Store);
    } else {
        rob.note_load_completion(data_done);
        rob.push(CompletionKind::Load {
            trans_done,
            data_done,
            walked,
        });
    }
    Ok(())
}

/// Snapshot the machine state behind a stuck ROB head into a
/// [`DeadlockDiag`] (the payload of [`SimError::Deadlock`]).
pub(crate) fn deadlock_diag(
    rob: &RobModel,
    core: &CoreCtx,
    uncore: &Uncore,
    last_progress_cycle: u64,
) -> DeadlockDiag {
    let now = rob.now();
    DeadlockDiag {
        cycle: now,
        last_progress_cycle,
        instructions: rob.dispatched(),
        rob_occupancy: rob.occupancy(),
        rob_head: rob.head_desc(),
        mshr_outstanding: [
            core.l1d.mshr().outstanding_at(now),
            core.l2c.mshr().outstanding_at(now),
            uncore.llc.mshr().outstanding_at(now),
        ],
        walks_completed: core.mmu.walk_count(),
    }
}

/// Measured statistics of one run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Core cycles / instructions / stall attribution.
    pub core: CoreStats,
    /// L1D per-class hit/miss counters.
    pub l1d: ClassCounters,
    /// L2C per-class hit/miss counters.
    pub l2c: ClassCounters,
    /// LLC per-class hit/miss counters.
    pub llc: ClassCounters,
    /// DTLB hit/miss statistics.
    pub dtlb: TlbStats,
    /// STLB hit/miss statistics.
    pub stlb: TlbStats,
    /// Page walks performed.
    pub walks: u64,
    /// Pages mapped in the page table when statistics were collected.
    /// Only demand accesses may grow this; speculative prefetches must
    /// not (see `issue_prefetches`).
    pub mapped_pages: u64,
    /// PSC `(hits, misses)`.
    pub psc: (u64, u64),
    /// DRAM access statistics.
    pub dram: DramStats,
    /// Leaf-translation responses by serving level (Fig 3, "T").
    pub service_translation: [u64; 4],
    /// Replay-load responses by serving level (Fig 3, "R").
    pub service_replay: [u64; 4],
    /// ATP prefetches issued.
    pub atp_issued: u64,
    /// TEMPO prefetches issued.
    pub tempo_issued: u64,
    /// LLC `(prefetch fills, useful prefetches)`.
    pub llc_prefetch: (u64, u64),
    /// L2C `(prefetch fills, useful prefetches)`.
    pub l2c_prefetch: (u64, u64),
    /// LLC `(dead, total)` evictions for replay-load blocks (§III).
    pub llc_replay_evictions: (u64, u64),
    /// L2C `(dead, total)` evictions of translation (PTE) blocks.
    pub l2c_pte_evictions: (u64, u64),
    /// LLC `(dead, total)` evictions of translation (PTE) blocks.
    pub llc_pte_evictions: (u64, u64),
    /// L2C recall-distance histogram, when probed.
    pub l2c_recall: Option<Histogram>,
    /// LLC recall-distance histogram, when probed.
    pub llc_recall: Option<Histogram>,
    /// STLB recall-distance histogram, when probed (Fig 18).
    pub stlb_recall: Option<Histogram>,
    /// Telemetry snapshot, when the telemetry probe was attached
    /// (boxed: the snapshot carries every counter, histogram and span
    /// sample).
    pub telemetry: Option<Box<TelemetrySnapshot>>,
}

impl RunStats {
    /// MPKI of `class` at the LLC.
    pub fn llc_mpki(&self, class: AccessClass) -> f64 {
        self.llc.mpki(class, self.core.instructions)
    }

    /// MPKI of `class` at the L2C.
    pub fn l2c_mpki(&self, class: AccessClass) -> f64 {
        self.l2c.mpki(class, self.core.instructions)
    }

    /// STLB misses per kilo-instruction.
    pub fn stlb_mpki(&self) -> f64 {
        self.stlb.mpki(self.core.instructions)
    }

    /// Fraction (0..=1) of leaf translations serviced at or before the
    /// given level ("on-chip hit rate" when `level = Llc`). Returns
    /// `f64::NAN` when no walks occurred — a walk-free run has no
    /// translation hit rate, perfect or otherwise.
    pub fn translation_hit_fraction_upto(&self, level: MemLevel) -> f64 {
        let total: u64 = self.service_translation.iter().sum();
        if total == 0 {
            return f64::NAN;
        }
        let upto: u64 = self.service_translation[..=level.index()].iter().sum();
        upto as f64 / total as f64
    }
}

/// A failed simulation run: the error, plus whatever statistics had been
/// gathered before the failure (so a deadlocked configuration still
/// reports how far it got).
#[derive(Debug)]
pub struct SimFailure {
    /// What went wrong.
    pub error: SimError,
    /// Statistics collected up to the failure point, when the machine had
    /// started executing (boxed: `RunStats` is large).
    pub partial: Option<Box<RunStats>>,
}

impl SimFailure {
    /// Whether retrying the same run could plausibly succeed (see
    /// [`SimError::is_transient`]): true only for watchdog-reported
    /// deadlocks, which sweep schedulers retry a bounded number of
    /// times before recording the failure with these partial stats.
    pub fn is_transient(&self) -> bool {
        self.error.is_transient()
    }
}

impl std::fmt::Display for SimFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.error)?;
        if let Some(p) = &self.partial {
            write!(
                f,
                " (partial stats: {} instructions in {} cycles)",
                p.core.instructions, p.core.cycles
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for SimFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

impl From<SimError> for SimFailure {
    fn from(error: SimError) -> Self {
        SimFailure {
            error,
            partial: None,
        }
    }
}

/// The single-core machine.
pub struct Machine {
    cfg: SimConfig,
    core: CoreCtx,
    uncore: Uncore,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("l2c_policy", &self.core.l2c.policy_name())
            .field("llc_policy", &self.uncore.llc.policy_name())
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Build a machine from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the machine configuration fails
    /// [`MachineConfig::validate`] (bad geometry, zero-capacity MSHRs, …).
    pub fn new(cfg: &SimConfig) -> Result<Self, SimError> {
        cfg.machine.validate()?;
        let core = CoreCtx::new(cfg)?;
        let uncore = Uncore::new(cfg, core.dppred.as_ref(), 1)?;
        Ok(Machine {
            cfg: cfg.clone(),
            core,
            uncore,
        })
    }

    /// Run `warmup` instructions (state only), then `measure` instructions
    /// with statistics, and return the measured statistics.
    ///
    /// # Errors
    ///
    /// Returns a [`SimFailure`] wrapping [`SimError::Deadlock`] if the
    /// core clock jumps by more than `watchdog_cycles` across a single
    /// instruction — the ROB head is waiting on memory that will never
    /// (within any plausible latency) answer. The failure carries the
    /// statistics gathered so far, so a sweep can report the broken
    /// configuration instead of hanging or lying.
    pub fn run(
        &mut self,
        wl: &mut dyn Workload,
        warmup: u64,
        measure: u64,
    ) -> Result<RunStats, SimFailure> {
        self.run_cancellable(wl, warmup, measure, &CancelToken::new())
    }

    /// [`run`](Self::run) under a cooperative [`CancelToken`]: the run
    /// loop polls the token at every [`CANCEL_POLL_INSTRS`]-instruction
    /// threshold and aborts with [`SimError::Cancelled`], salvaging the
    /// statistics gathered so far exactly like the deadlock watchdog
    /// does. Sweep schedulers use this to enforce per-job deadlines
    /// without killing the worker thread.
    ///
    /// The machine is the one-core, one-thread case of the interleaved
    /// engine SMT and the shared multicore run on: it decodes
    /// [`DEFAULT_BATCH`] records at a time through
    /// [`Workload::next_batch`], then executes them one by one, in
    /// program order. The deadlock watchdog stays per-instruction (a
    /// ROB-full dispatch can jump the clock on any instruction).
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run), plus [`SimError::Cancelled`] (with partial
    /// statistics) once the token is observed cancelled.
    pub fn run_cancellable(
        &mut self,
        wl: &mut dyn Workload,
        warmup: u64,
        measure: u64,
        cancel: &CancelToken,
    ) -> Result<RunStats, SimFailure> {
        let mut robs = [RobModel::new(&self.cfg.machine.core)];
        let run = run_interleaved(
            &self.cfg,
            slice::from_mut(&mut self.core),
            &mut self.uncore,
            &mut robs,
            &mut [wl],
            warmup,
            measure,
            cancel,
        );
        let [rob] = robs;
        match run {
            Ok(()) => Ok(self.collect(rob.finish())),
            Err(error) => Err(self.failure(rob, error)),
        }
    }

    /// A failed run, salvaging the statistics gathered so far.
    #[cold]
    fn failure(&mut self, rob: RobModel, error: SimError) -> SimFailure {
        SimFailure {
            error,
            partial: Some(Box::new(self.collect(rob.finish()))),
        }
    }

    fn collect(&mut self, core_stats: CoreStats) -> RunStats {
        let flush = |h: Option<&mut atc_stats::recall::RecallProbe>| -> Option<Histogram> {
            h.map(|p| {
                p.flush_open_windows();
                p.histogram().clone()
            })
        };
        let (core, llc) = (&mut self.core, &mut self.uncore.llc);
        let mut stats = RunStats {
            core: core_stats,
            l1d: core.l1d.stats().clone(),
            l2c: core.l2c.stats().clone(),
            llc: llc.stats().clone(),
            dtlb: core.mmu.dtlb().stats(),
            stlb: core.mmu.stlb().stats(),
            walks: core.mmu.walk_count(),
            mapped_pages: core.mmu.page_table().mapped_pages(),
            psc: core.mmu.pscs().stats(),
            dram: self.uncore.dram.stats(),
            service_translation: core.service_translation,
            service_replay: core.service_replay,
            atp_issued: core.atp.as_ref().map_or(0, |a| a.issued()),
            tempo_issued: core.tempo.as_ref().map_or(0, |t| t.issued()),
            llc_prefetch: llc.prefetch_stats(),
            l2c_prefetch: core.l2c.prefetch_stats(),
            llc_replay_evictions: llc.eviction_stats_for(AccessClass::ReplayData),
            l2c_pte_evictions: core.l2c.pte_eviction_stats(),
            llc_pte_evictions: llc.pte_eviction_stats(),
            l2c_recall: flush(core.l2c.recall_probe_mut()),
            llc_recall: flush(llc.recall_probe_mut()),
            stlb_recall: flush(core.mmu.stlb_mut().recall_probe_mut()),
            telemetry: None,
        };
        if let Some(tm) = core.telem.as_mut() {
            let (l1d, l2c) = (&core.l1d, &core.l2c);
            tm.ingest(&stats, l1d, l2c, llc);
            let resident = |line: u64| {
                let la = LineAddr::new(line);
                l1d.contains(la) || l2c.contains(la) || llc.contains(la)
            };
            stats.telemetry = Some(Box::new(tm.snapshot(resident, stats.core.cycles)));
        }
        stats
    }

    /// The shared LLC (diagnostics).
    pub fn llc(&self) -> &Cache {
        &self.uncore.llc
    }

    /// The private L2C (diagnostics).
    pub fn l2c(&self) -> &Cache {
        &self.core.l2c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atc_types::PtLevel;
    use atc_workloads::{BenchmarkId, Scale};

    fn quick(cfg: &SimConfig, bench: BenchmarkId) -> RunStats {
        let mut wl = bench.build(Scale::Test, 3);
        let mut m = Machine::new(cfg).expect("valid config");
        m.run(wl.as_mut(), 5_000, 30_000).expect("run completes")
    }

    /// Shrink the STLB so Test-scale footprints (a few MiB) still miss
    /// it, producing walks and replay loads.
    fn small_stlb(mut cfg: SimConfig) -> SimConfig {
        cfg.machine.stlb.entries = 256;
        cfg
    }

    #[test]
    fn baseline_runs_and_counts_instructions() {
        let s = quick(&SimConfig::baseline(), BenchmarkId::Mcf);
        assert_eq!(s.core.instructions, 30_000);
        assert!(s.core.cycles > 30_000 / 6, "cycles={}", s.core.cycles);
        assert!(s.core.ipc() > 0.0);
        assert!(s.walks > 0, "mcf must walk the page table");
        assert!(s.stlb.misses > 0);
    }

    #[test]
    fn replay_loads_appear_only_with_walks() {
        let s = quick(&small_stlb(SimConfig::baseline()), BenchmarkId::Canneal);
        let replay_accesses = s.l1d.accesses(AccessClass::ReplayData);
        assert!(replay_accesses > 0, "canneal should produce replay loads");
        assert_eq!(
            s.walks,
            s.service_translation.iter().sum::<u64>(),
            "every walk services exactly one leaf translation"
        );
    }

    #[test]
    fn translations_are_cached_in_data_hierarchy() {
        let s = quick(&small_stlb(SimConfig::baseline()), BenchmarkId::Pr);
        let t = AccessClass::Translation(PtLevel::L1);
        assert!(s.l2c.accesses(t) > 0, "leaf PTE reads must reach L2C");
        // Some walks are serviced on-chip.
        assert!(s.translation_hit_fraction_upto(MemLevel::Llc) > 0.2);
    }

    #[test]
    fn atp_issues_prefetches_and_hits() {
        let cfg = small_stlb(SimConfig::with_enhancement(atc_core::Enhancement::Atp));
        let s = quick(&cfg, BenchmarkId::Pr);
        assert!(s.atp_issued > 0, "ATP should trigger on leaf PTE hits");
        let (fills, useful) = s.llc_prefetch;
        let (fills2, useful2) = s.l2c_prefetch;
        assert!(fills + fills2 > 0);
        assert!(useful + useful2 > 0, "ATP prefetches must be consumed");
    }

    #[test]
    fn tempo_triggers_on_dram_translations() {
        let cfg = small_stlb(SimConfig::with_enhancement(atc_core::Enhancement::Tempo));
        let s = quick(&cfg, BenchmarkId::Canneal);
        // With a cold-ish hierarchy some leaf PTEs reach DRAM.
        assert!(s.atp_issued + s.tempo_issued > 0);
    }

    #[test]
    fn ideal_llc_for_translations_speeds_up() {
        let base_cfg = small_stlb(SimConfig::baseline());
        let mut base_wl = BenchmarkId::Canneal.build(Scale::Test, 3);
        let mut m1 = Machine::new(&base_cfg).unwrap();
        let base = m1.run(base_wl.as_mut(), 5_000, 40_000).unwrap();

        let mut cfg = small_stlb(SimConfig::baseline());
        cfg.ideal = IdealConfig::both_levels_both_classes();
        let mut wl2 = BenchmarkId::Canneal.build(Scale::Test, 3);
        let mut m2 = Machine::new(&cfg).unwrap();
        let ideal = m2.run(wl2.as_mut(), 5_000, 40_000).unwrap();
        assert!(
            ideal.core.cycles < base.core.cycles,
            "ideal {} !< base {}",
            ideal.core.cycles,
            base.core.cycles
        );
    }

    #[test]
    fn probes_produce_histograms() {
        let mut cfg = small_stlb(SimConfig::baseline());
        cfg.probes = Probes {
            l2c_recall: Some(vec![AccessClass::Translation(PtLevel::L1)]),
            llc_recall: Some(vec![AccessClass::Translation(PtLevel::L1)]),
            stlb_recall: true,
            telemetry: None,
        };
        let s = quick(&cfg, BenchmarkId::Canneal);
        assert!(s.l2c_recall.is_some());
        assert!(s.llc_recall.is_some());
        let stlb = s.stlb_recall.expect("stlb probe on");
        assert!(stlb.count() > 0, "evicted STLB entries must be observed");
    }

    #[test]
    fn prefetchers_run_end_to_end() {
        for kind in [
            PrefetcherKind::NextLine,
            PrefetcherKind::Ipcp,
            PrefetcherKind::Spp,
            PrefetcherKind::Isb,
        ] {
            let mut cfg = SimConfig::baseline();
            cfg.prefetcher = kind;
            let s = quick(&cfg, BenchmarkId::Xalancbmk);
            assert_eq!(s.core.instructions, 30_000, "{:?}", kind);
        }
    }

    #[test]
    fn dppred_bypasses_and_trains_end_to_end() {
        let mut cfg = small_stlb(SimConfig::baseline());
        cfg.dppred = true;
        let mut wl = BenchmarkId::Canneal.build(Scale::Test, 3);
        let mut m = Machine::new(&cfg).unwrap();
        assert_eq!(m.llc().policy_name(), "CbPred");
        let s = m.run(wl.as_mut(), 10_000, 40_000).unwrap();
        assert_eq!(s.core.instructions, 40_000);
        // canneal's cold pages die unused, so DpPred must learn to
        // bypass some STLB fills.
        let (trainings, _bypasses) = m.core.dppred.as_ref().unwrap().stats();
        assert!(trainings > 0, "DpPred saw no STLB evictions");
    }

    #[test]
    fn ignore_deps_changes_timing_only() {
        let mut a_cfg = small_stlb(SimConfig::baseline());
        let mut b_cfg = a_cfg.clone();
        b_cfg.ignore_deps = true;
        let a = {
            let mut wl = BenchmarkId::Mcf.build(Scale::Test, 3);
            Machine::new(&a_cfg)
                .unwrap()
                .run(wl.as_mut(), 5_000, 30_000)
                .unwrap()
        };
        let b = {
            let mut wl = BenchmarkId::Mcf.build(Scale::Test, 3);
            Machine::new(&b_cfg)
                .unwrap()
                .run(wl.as_mut(), 5_000, 30_000)
                .unwrap()
        };
        // mcf's serial pointer chase: removing dependencies must speed
        // it up dramatically...
        assert!(
            b.core.cycles < a.core.cycles,
            "{} !< {}",
            b.core.cycles,
            a.core.cycles
        );
        // ...without changing the access stream (same STLB misses).
        assert_eq!(a.stlb.misses, b.stlb.misses);
        a_cfg.ignore_deps = false; // silence unused-mut lint paths
        let _ = a_cfg;
    }

    #[test]
    fn trace_replay_drives_the_machine() {
        use atc_workloads::trace::{capture, TraceReplay};
        let cfg = small_stlb(SimConfig::baseline());
        let mut orig = BenchmarkId::Tc.build(Scale::Test, 5);
        let trace = capture(orig.as_mut(), 20_000);
        let mut replay = TraceReplay::new(trace);
        let mut m = Machine::new(&cfg).unwrap();
        let s = m.run(&mut replay, 2_000, 15_000).unwrap();
        assert_eq!(s.core.instructions, 15_000);
        assert!(s.stlb.misses > 0);
    }

    #[test]
    fn virtual_prefetches_to_unmapped_pages_are_dropped() {
        // Regression: a Virt prefetch whose VPN missed the TLBs used to
        // call `ensure_mapped`, growing the page table speculatively.
        let mut m = Machine::new(&SimConfig::baseline()).unwrap();
        let va = VirtAddr::new(0x5_0000_0000);
        let before = m.core.mmu.page_table().mapped_pages();
        issue_prefetches(
            &mut m.core,
            &mut m.uncore,
            &[PrefetchRequest::Virt(va)],
            0x400,
            0,
            true,
        );
        assert_eq!(
            m.core.mmu.page_table().mapped_pages(),
            before,
            "prefetch to an unmapped page must not allocate a mapping"
        );
        assert_eq!(m.core.l1d.prefetch_stats().0, 0, "prefetch must be dropped");

        // Once the page is demand-mapped (but still absent from the
        // TLBs), the prefetch proceeds on the delayed path.
        m.core.mmu.page_table_mut().ensure_mapped(va.vpn());
        issue_prefetches(
            &mut m.core,
            &mut m.uncore,
            &[PrefetchRequest::Virt(va)],
            0x400,
            0,
            true,
        );
        assert_eq!(m.core.l1d.prefetch_stats().0, 1, "mapped page prefetches");
    }

    #[test]
    fn prefetchers_do_not_grow_the_page_table() {
        // Same workload stream with and without IPCP must touch exactly
        // the same set of pages (workload generation is timing-free).
        let none = quick(&small_stlb(SimConfig::baseline()), BenchmarkId::Xalancbmk);
        let mut cfg = small_stlb(SimConfig::baseline());
        cfg.prefetcher = PrefetcherKind::Ipcp;
        let ipcp = quick(&cfg, BenchmarkId::Xalancbmk);
        assert_eq!(
            none.mapped_pages, ipcp.mapped_pages,
            "a speculative prefetcher must not perturb the page table"
        );
    }

    #[test]
    fn zero_walk_run_has_undefined_translation_fraction() {
        // Regression: a walk-free RunStats used to report a "perfect"
        // 100% on-chip translation hit rate.
        let mut wl = BenchmarkId::Mcf.build(Scale::Test, 3);
        let mut m = Machine::new(&SimConfig::baseline()).unwrap();
        let s = m.run(wl.as_mut(), 0, 0).expect("empty run is healthy");
        assert_eq!(s.walks, 0);
        assert!(s.translation_hit_fraction_upto(MemLevel::Llc).is_nan());
    }

    #[test]
    fn deterministic_across_runs() {
        let a = quick(&SimConfig::baseline(), BenchmarkId::Cc);
        let b = quick(&SimConfig::baseline(), BenchmarkId::Cc);
        assert_eq!(a.core.cycles, b.core.cycles);
        assert_eq!(a.llc.total_misses(), b.llc.total_misses());
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let mut cfg = SimConfig::baseline();
        cfg.machine.l1d.ways = 16; // 48 KiB / 16 ways = 48 sets: not a power of two
        let err = Machine::new(&cfg).unwrap_err();
        assert!(matches!(err, SimError::Config(_)), "{err}");
        assert!(err.to_string().contains("power of two"), "{err}");

        let mut cfg2 = SimConfig::baseline();
        cfg2.machine.l2c.mshr_entries = 0;
        assert!(Machine::new(&cfg2).is_err());
    }

    #[test]
    fn watchdog_turns_livelock_into_deadlock_error() {
        // Memory that effectively never answers: every DRAM access takes
        // billions of cycles, so the first miss parks the ROB head until
        // a cycle the watchdog classifies as "never".
        // Large enough that one access dwarfs the watchdog window, small
        // enough that a few hundred chained misses cannot overflow u64.
        const NEVER: u64 = 1_000_000_000_000;
        let mut cfg = small_stlb(SimConfig::baseline());
        cfg.machine.dram.row_hit_cycles = NEVER;
        cfg.machine.dram.row_miss_cycles = NEVER;
        cfg.watchdog_cycles = 1_000_000;
        let mut wl = BenchmarkId::Mcf.build(Scale::Test, 3);
        let mut m = Machine::new(&cfg).expect("config itself is well-formed");
        let fail = m.run(wl.as_mut(), 5_000, 30_000).unwrap_err();
        assert!(
            fail.error.is_deadlock(),
            "expected deadlock, got: {}",
            fail.error
        );
        let SimError::Deadlock(diag) = &fail.error else {
            unreachable!()
        };
        assert!(diag.cycle > diag.last_progress_cycle + cfg.watchdog_cycles);
        assert!(
            diag.instructions > 0,
            "some instructions dispatched before the stall"
        );
        assert!(
            diag.rob_head.contains("load"),
            "head should be a stuck load: {}",
            diag.rob_head
        );
        // Partial statistics are still delivered and non-trivial.
        let partial = fail.partial.as_ref().expect("partial stats present");
        assert!(partial.core.instructions > 0);
        assert!(partial.core.cycles > 0);
        let msg = fail.to_string();
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(msg.contains("partial stats"), "{msg}");
    }

    #[test]
    fn telemetry_detached_by_default() {
        let s = quick(&small_stlb(SimConfig::baseline()), BenchmarkId::Mcf);
        assert!(s.telemetry.is_none());
        // PTE-eviction stats are cheap and always collected.
        assert!(s.l2c_pte_evictions.1 >= s.l2c_pte_evictions.0);
    }

    #[test]
    fn telemetry_counters_reconcile_with_run_stats() {
        let mut cfg = small_stlb(SimConfig::baseline());
        cfg.probes.telemetry = Some(TelemetryConfig {
            span_sample_every: 8,
            span_capacity: 64,
        });
        let s = quick(&cfg, BenchmarkId::Canneal);
        let t = s.telemetry.as_ref().expect("telemetry attached");
        let c = |name: &str| t.counter(name).expect(name);

        assert_eq!(c("walk.count"), s.walks);
        for (i, lvl) in ["l1d", "l2c", "llc", "dram"].iter().enumerate() {
            assert_eq!(
                t.counter(&format!("walk.leaf_served.{lvl}")).unwrap(),
                s.service_translation[i]
            );
            assert_eq!(
                t.counter(&format!("replay.served.{lvl}")).unwrap(),
                s.service_replay[i]
            );
        }
        assert_eq!(c("replay.count"), s.service_replay.iter().sum::<u64>());
        assert_eq!(c("core.instructions"), s.core.instructions);
        assert_eq!(c("core.cycles"), s.core.cycles);
        assert_eq!(c("stall.translation_cycles"), s.core.stalls.stlb_walk);
        assert_eq!(c("stall.replay_cycles"), s.core.stalls.replay_data);
        assert_eq!(c("stall.regular_cycles"), s.core.stalls.non_replay_data);
        assert_eq!(c("tlb.stlb.misses"), s.stlb.misses);
        assert_eq!(c("dram.requests"), s.dram.requests);

        // Per-level hit/miss groups partition the ClassCounters totals.
        for (lvl, cc) in [("l1d", &s.l1d), ("l2c", &s.l2c), ("llc", &s.llc)] {
            let hits = c(&format!("{lvl}.hits.translation"))
                + c(&format!("{lvl}.hits.replay"))
                + c(&format!("{lvl}.hits.regular"));
            let misses = c(&format!("{lvl}.misses.translation"))
                + c(&format!("{lvl}.misses.replay"))
                + c(&format!("{lvl}.misses.regular"));
            assert_eq!(misses, cc.total_misses(), "{lvl} misses");
            assert_eq!(hits + misses, cc.total_accesses(), "{lvl} accesses");
        }

        assert_eq!(c("l2c.pte_evict.dead"), s.l2c_pte_evictions.0);
        assert_eq!(c("l2c.pte_evict.total"), s.l2c_pte_evictions.1);
        assert_eq!(c("llc.pte_evict.total"), s.llc_pte_evictions.1);
        // Every PTE eviction is attributed to exactly one evictor class.
        for lvl in ["l2c", "llc"] {
            let by: u64 = ["translation", "replay", "regular", "prefetch"]
                .iter()
                .map(|k| c(&format!("{lvl}.pte_evicted_by.{k}")))
                .sum();
            assert_eq!(by, c(&format!("{lvl}.pte_evict.total")), "{lvl} evictors");
        }

        // Latency histograms observe one value per walk / replay.
        let wh = t.histogram("walk.latency_cycles").expect("walk hist");
        assert_eq!(wh.count(), s.walks);
        assert!(wh.p50() <= wh.p95() && wh.p95() <= wh.p99());
        let rh = t.histogram("replay.latency_cycles").expect("replay hist");
        assert_eq!(rh.count(), s.service_replay.iter().sum::<u64>());
    }

    #[test]
    fn telemetry_spans_are_sampled_and_well_formed() {
        let mut cfg = small_stlb(SimConfig::baseline());
        cfg.probes.telemetry = Some(TelemetryConfig {
            span_sample_every: 4,
            span_capacity: 128,
        });
        let s = quick(&cfg, BenchmarkId::Canneal);
        let t = s.telemetry.as_ref().unwrap();
        assert_eq!(t.span_sample_every, 4);
        assert!(!t.walk_spans.is_empty(), "walks occurred, spans sampled");
        for w in &t.walk_spans {
            assert!(w.end >= w.start);
            assert!(!w.hops().is_empty());
            let leaf = w.hops().last().unwrap();
            assert!(leaf.level.is_leaf(), "last hop reads the leaf PTE");
        }
        assert!(!t.replay_spans.is_empty(), "replay loads traced");
        for r in &t.replay_spans {
            assert!(r.fill_done >= r.walk_done);
            assert!(r.outcome_cycle >= r.fill_done);
        }
    }

    #[test]
    fn telemetry_rides_along_in_failure_partials() {
        const NEVER: u64 = 1_000_000_000_000;
        let mut cfg = small_stlb(SimConfig::baseline());
        cfg.machine.dram.row_hit_cycles = NEVER;
        cfg.machine.dram.row_miss_cycles = NEVER;
        cfg.watchdog_cycles = 1_000_000;
        cfg.probes.telemetry = Some(TelemetryConfig::default());
        let mut wl = BenchmarkId::Mcf.build(Scale::Test, 3);
        let mut m = Machine::new(&cfg).unwrap();
        let fail = m.run(wl.as_mut(), 5_000, 30_000).unwrap_err();
        assert!(fail.error.is_deadlock());
        let partial = fail.partial.as_ref().expect("partial stats");
        let t = partial.telemetry.as_ref().expect("telemetry in partial");
        assert_eq!(
            t.counter("core.instructions"),
            Some(partial.core.instructions)
        );
    }

    #[test]
    fn watchdog_default_is_silent_on_healthy_runs() {
        let cfg = small_stlb(SimConfig::baseline());
        assert_eq!(cfg.watchdog_cycles, 2_000_000);
        let mut wl = BenchmarkId::Mcf.build(Scale::Test, 3);
        let mut m = Machine::new(&cfg).unwrap();
        assert!(m.run(wl.as_mut(), 5_000, 30_000).is_ok());
    }
}
