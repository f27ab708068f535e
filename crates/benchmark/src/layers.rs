//! Host cost of one machine run, split by crate and measured from
//! outside the simulator.
//!
//! Three steps:
//!
//! 1. *Real run.* `Machine::new` + `Machine::run` on the op's stream,
//!    timed as a whole.
//! 2. *Recording drive.* The same stream is driven through each crate's
//!    public API the way the machine's step does it, logging every call
//!    with its arguments: decode, `TranslationEngine::query` and
//!    `complete_walk_tracked`, `Cache::probe` and `insert_miss_at` per
//!    level, `Dram::access`, `RobModel::dispatch` and `push`,
//!    `Prefetcher::on_access`, ATP and TEMPO. A configuration the machine
//!    runs on its fast pre-pass (no prefetcher) is driven with that
//!    pass's calls instead: `dtlb_lookup` then `query_after_dtlb_miss`,
//!    `probe_fast` at the L1D, and a demand fill waiting for
//!    `mshr_full_wakeup` when its MSHR file is full. The drive's
//!    statistics must digest equal to the real run's. That proves the
//!    drive reaches the same state through the same public calls, though
//!    not that the machine made exactly these calls: the event wheel
//!    sits between them.
//! 3. *Isolated replays.* Each crate's call log is replayed against a
//!    fresh instance in batches of [`BATCH`] calls, one span per batch,
//!    so `Instant` overhead stays small.
//!
//! A layer's `busy_frac` is its replay time over the real run's time;
//! what no layer accounts for (the batch drain, the fast/general arms,
//! the event wheel, ATP/TEMPO triggers) is `sim.glue_frac`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use atc_cache::{Cache, Probe};
use atc_core::{Atp, PolicyChoice, Tempo};
use atc_cpu::{CompletionKind, RobModel};
use atc_dram::Dram;
use atc_prefetch::{PrefetchContext, PrefetchRequest, Prefetcher, Spp};
use atc_sim::{Machine, RunStats, SimConfig};
use atc_types::{AccessClass, AccessInfo, LineAddr, MemLevel, SimError, Vpn};
use atc_vm::walker::{TranslationQuery, WalkPlan};
use atc_vm::TranslationEngine;
use atc_workloads::trace::{Trace, TraceReplay};
use atc_workloads::{Instr, MemOp, Workload};

use crate::digest::stats_digest;
use crate::spans::Recorder;
use crate::stats::median;

/// Calls per timed span in the isolated replays.
pub const BATCH: usize = 4096;

/// Mirrors `atc-sim`'s cap on prefetch candidates issued per access (a
/// private constant there; a drift shows as a digest mismatch).
const MAX_PREFETCH_PER_ACCESS: usize = 4;
/// Mirrors `atc-sim`'s delay for a virtual prefetch that missed the STLB
/// (private there too).
const PREFETCH_STLB_MISS_DELAY: u64 = 120;
/// The batch size `Machine::run` decodes with.
const DECODE_BATCH: usize = atc_sim::DEFAULT_BATCH;

const LEVELS: [MemLevel; 3] = [MemLevel::L1d, MemLevel::L2c, MemLevel::Llc];

/// Per-layer measurements of one op.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Statistics of the real run (its measured window).
    pub stats: RunStats,
    /// Median `Machine::new` time, ns.
    pub machine_new_ns: f64,
    /// Median real `Machine::run` time, ns.
    pub run_ns: f64,
    /// Instructions the run executed (warm-up + measured).
    pub instructions: u64,
    /// Median isolated replay time per layer, ns.
    pub decode_ns: f64,
    /// See [`decode_ns`](Self::decode_ns).
    pub vm_ns: f64,
    /// Per cache level (L1D, L2C, LLC).
    pub cache_ns: [f64; 3],
    /// See [`decode_ns`](Self::decode_ns).
    pub dram_ns: f64,
    /// See [`decode_ns`](Self::decode_ns).
    pub rob_ns: f64,
    /// Replay time of the attached prefetcher's calls (0 with none).
    pub prefetch_ns: f64,
    /// Translations queried.
    pub queries: u64,
    /// Probes per cache level.
    pub probes: [u64; 3],
    /// DRAM accesses.
    pub dram_accesses: u64,
    /// ns per `on_access` call: of the attached prefetcher, or, with
    /// none attached, of SPP fed the accesses that reached the L2C.
    pub on_access_ns: f64,
}

impl Analysis {
    /// Share of the real run each layer's isolated replay accounts for,
    /// as `(layer, fraction)`.
    pub fn busy(&self) -> [(&'static str, f64); 6] {
        let f = |ns: f64| ns / self.run_ns;
        [
            ("workloads", f(self.decode_ns)),
            ("vm", f(self.vm_ns)),
            ("cache", f(self.cache_ns.iter().sum())),
            ("prefetch", f(self.prefetch_ns)),
            ("dram", f(self.dram_ns)),
            ("cpu", f(self.rob_ns)),
        ]
    }

    /// What the layers' replays leave of the real run.
    pub fn glue_frac(&self) -> f64 {
        1.0 - self.busy().iter().map(|(_, b)| b).sum::<f64>()
    }
}

/// Measure one op (`cfg` over `trace`, `warmup` + `measure`
/// instructions) `reps` times, recording spans into `rec`.
///
/// # Errors
///
/// A configuration the recording drive does not model (ideal oracles,
/// DpPred, recall probes, telemetry), a simulation failure, or a
/// recording drive whose statistics differ from the real run's.
pub fn analyse(
    cfg: &SimConfig,
    trace: &Arc<Trace>,
    warmup: u64,
    measure: u64,
    reps: usize,
    rec: &Recorder,
) -> Result<Analysis, String> {
    let p = &cfg.probes;
    if cfg.ideal.any()
        || cfg.dppred
        || p.telemetry.is_some()
        || p.l2c_recall.is_some()
        || p.llc_recall.is_some()
        || p.stlb_recall
    {
        return Err("layer analysis models plain configurations only".into());
    }
    let mut drive = Drive::new(cfg).map_err(|e| e.to_string())?;
    let mut stream = TraceReplay::shared(Arc::clone(trace));
    for i in 0..warmup + measure {
        if i == warmup {
            drive.reset_stats();
        }
        drive.exec(stream.next_instr()).map_err(|e| e.to_string())?;
    }
    let (shadow, log) = drive.finish();

    let mut new_ns = Vec::new();
    let mut run_ns = Vec::new();
    let mut layer_ns: [Vec<f64>; 9] = Default::default();
    let mut stats = None;
    for _ in 0..reps {
        let t = Instant::now();
        let mut machine = Machine::new(cfg).map_err(|e| e.to_string())?;
        new_ns.push(t.elapsed().as_nanos() as f64);
        let mut wl = TraceReplay::shared(Arc::clone(trace));
        let (s, ns) = rec.timed("Machine::run", "sim", None, |_| {
            machine.run(&mut wl, warmup, measure)
        });
        run_ns.push(ns as f64);
        stats = Some(s.map_err(|f| f.to_string())?);
        let replays = replay_all(cfg, trace, warmup + measure, &log, rec)?;
        for (acc, ns) in layer_ns.iter_mut().zip(replays) {
            acc.push(ns);
        }
    }
    let stats = stats.ok_or("layer analysis needs at least one repetition")?;
    if stats_digest(&stats) != stats_digest(&shadow) {
        return Err("the recording drive diverged from Machine::run".into());
    }
    let m: Vec<f64> = layer_ns.iter().map(|v| median(v)).collect();
    let pf_calls = log.pf.len().max(log.l2_ctx.len()).max(1) as f64;
    Ok(Analysis {
        stats,
        machine_new_ns: median(&new_ns),
        run_ns: median(&run_ns),
        instructions: warmup + measure,
        decode_ns: m[0],
        vm_ns: m[1],
        cache_ns: [m[2], m[3], m[4]],
        dram_ns: m[5],
        rob_ns: m[6],
        prefetch_ns: if log.pf.is_empty() { 0.0 } else { m[7] },
        queries: log.queries,
        probes: log.probes,
        dram_accesses: log.dram.len() as u64,
        on_access_ns: m[7].max(m[8]) / pf_calls,
    })
}

/// Replay every layer's log once against fresh instances; returns the
/// total time per log in the order of [`Analysis`]'s fields (decode, vm,
/// L1D, L2C, LLC, DRAM, ROB, prefetcher, SPP stand-in).
fn replay_all(
    cfg: &SimConfig,
    trace: &Arc<Trace>,
    instructions: u64,
    log: &Log,
    rec: &Recorder,
) -> Result<[f64; 9], String> {
    let mut out = [0.0; 9];

    let mut stream = TraceReplay::shared(Arc::clone(trace));
    let mut buf: Vec<Instr> = Vec::with_capacity(DECODE_BATCH);
    let decode_batches = instructions.div_ceil(DECODE_BATCH as u64) as usize;
    let per_span = BATCH / DECODE_BATCH;
    out[0] = batched(
        rec,
        "workloads",
        "next_batch",
        decode_batches,
        per_span,
        |_| {
            stream.next_batch(&mut buf, DECODE_BATCH);
            black_box(&buf);
        },
    );

    let mut mmu = TranslationEngine::new(&cfg.machine);
    out[1] = batched(rec, "vm", "query", log.vm.len(), BATCH, |i| {
        match log.vm[i] {
            VmOp::Query(vpn, ip) => {
                if let Ok(TranslationQuery::Walk(plan)) = mmu.query(vpn) {
                    black_box(mmu.complete_walk_tracked(&plan, ip, true));
                }
            }
            VmOp::Lookup(vpn, ip) => {
                if black_box(mmu.dtlb_lookup(vpn)).is_none() {
                    if let Ok(TranslationQuery::Walk(plan)) = mmu.query_after_dtlb_miss(vpn) {
                        black_box(mmu.complete_walk_tracked(&plan, ip, true));
                    }
                }
            }
            VmOp::Peek(vpn) => {
                black_box(peek(&mmu, vpn));
            }
        }
    });

    let caches = build_caches(cfg).map_err(|e| e.to_string())?;
    for (lvl, mut cache) in caches.into_iter().enumerate() {
        let ops = &log.cache[lvl];
        let mut last_miss = (0, None);
        out[2 + lvl] = batched(
            rec,
            "cache",
            LEVELS[lvl].label(),
            ops.len(),
            BATCH,
            |i| match ops[i] {
                CacheOp::Probe(info, t) => {
                    if let Probe::Miss { set, empty } = cache.probe(&info, t) {
                        last_miss = (set, empty);
                    }
                }
                CacheOp::ProbeFast(info, t) => {
                    if let Probe::Miss { set, empty } = cache.probe_fast(&info, t) {
                        last_miss = (set, empty);
                    }
                }
                CacheOp::Wakeup(t) => {
                    black_box(cache.mshr_full_wakeup(t));
                }
                CacheOp::InsertAt(info, ready, t) => {
                    black_box(cache.insert_miss_at(last_miss.0, last_miss.1, &info, ready, t));
                }
                CacheOp::Contains(line) => {
                    black_box(cache.contains(line));
                }
                CacheOp::Merge(info, t) => {
                    black_box(cache.mshr_merge(&info, t));
                }
                CacheOp::Insert(info, ready, t) => {
                    black_box(cache.insert_miss(&info, ready, t));
                }
            },
        );
    }

    let mut dram = Dram::new(&cfg.machine.dram);
    out[5] = batched(rec, "dram", "access", log.dram.len(), BATCH, |i| {
        let (line, t) = log.dram[i];
        black_box(dram.access(line, t));
    });

    let mut rob = RobModel::new(&cfg.machine.core);
    out[6] = batched(rec, "cpu", "dispatch+push", log.rob.len(), BATCH, |i| {
        let (kind, dep) = log.rob[i];
        rob.dispatch();
        if dep {
            black_box(rob.last_load_completion());
        }
        if let CompletionKind::Load { data_done, .. } = kind {
            rob.note_load_completion(data_done);
        }
        rob.push(kind);
    });

    for (slot, calls, pf) in [
        (7, &log.pf, cfg.prefetcher.build()),
        (
            8,
            &log.l2_ctx,
            Some(Box::new(Spp::new()) as Box<dyn Prefetcher>),
        ),
    ] {
        if let Some(mut pf) = pf {
            out[slot] = batched(rec, "prefetch", pf.name(), calls.len(), BATCH, |i| {
                black_box(pf.on_access(&calls[i]));
            });
        }
    }
    Ok(out)
}

/// Run `f(0..n)` in spans of `per_span` calls; total time in ns.
fn batched(
    rec: &Recorder,
    layer: &'static str,
    what: &str,
    n: usize,
    per_span: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let mut total = 0;
    for start in (0..n).step_by(per_span.max(1)) {
        let end = (start + per_span).min(n);
        let ((), ns) = rec.timed(what, layer, None, |_| (start..end).for_each(&mut f));
        total += ns;
    }
    total as f64
}

fn peek(mmu: &TranslationEngine, vpn: Vpn) -> Option<atc_types::Pfn> {
    mmu.dtlb()
        .peek(vpn)
        .or_else(|| mmu.stlb().peek(vpn))
        .or_else(|| mmu.page_table().translate(vpn))
}

/// L1D, L2C and LLC as `Machine::new` builds them (L1D always LRU).
fn build_caches(cfg: &SimConfig) -> Result<[Cache; 3], SimError> {
    let m = &cfg.machine;
    let level = |name, c: &atc_types::CacheLevelConfig, policy: PolicyChoice| {
        Cache::new(
            name,
            c.sets(),
            c.ways,
            c.latency,
            c.mshr_entries,
            policy.build_impl(c.sets(), c.ways),
        )
    };
    Ok([
        level("L1D", &m.l1d, PolicyChoice::Lru)?,
        level("L2C", &m.l2c, cfg.l2c_policy)?,
        level("LLC", &m.llc, cfg.llc_policy)?,
    ])
}

#[derive(Debug, Clone, Copy)]
enum VmOp {
    /// `query(vpn)`, then `complete_walk_tracked(plan, ip, true)` when
    /// it walked.
    Query(Vpn, u64),
    /// The fast pre-pass's translation: `dtlb_lookup(vpn)`, then on a
    /// miss `query_after_dtlb_miss(vpn)` and, when it walked,
    /// `complete_walk_tracked(plan, ip, true)`.
    Lookup(Vpn, u64),
    /// A virtual prefetch's read-only translation.
    Peek(Vpn),
}

#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Probe(AccessInfo, u64),
    /// The fast pre-pass's L1D probe.
    ProbeFast(AccessInfo, u64),
    /// The fast pre-pass's check for a full MSHR file before a fill.
    Wakeup(u64),
    /// Fill after a missed probe, into the set/way that probe reported.
    InsertAt(AccessInfo, u64, u64),
    Contains(LineAddr),
    Merge(AccessInfo, u64),
    Insert(AccessInfo, u64, u64),
}

/// Every call the recording drive made, per crate.
#[derive(Debug, Default)]
struct Log {
    vm: Vec<VmOp>,
    queries: u64,
    cache: [Vec<CacheOp>; 3],
    probes: [u64; 3],
    dram: Vec<(LineAddr, u64)>,
    /// `(completion, address-dependent)` per instruction.
    rob: Vec<(CompletionKind, bool)>,
    /// Calls into the attached prefetcher.
    pf: Vec<PrefetchContext>,
    /// With no prefetcher attached: the accesses that reached the L2C.
    l2_ctx: Vec<PrefetchContext>,
}

/// The machine's step, driven through each crate's public API with every
/// call logged: the fast pre-pass (`exec_fast`) when no prefetcher is
/// attached, as `Machine::run` decides, else the general step
/// (`exec_instr_opts`).
struct Drive {
    mmu: TranslationEngine,
    caches: [Cache; 3],
    dram: Dram,
    rob: RobModel,
    l1_pf: Option<Box<dyn Prefetcher>>,
    l2_pf: Option<Box<dyn Prefetcher>>,
    atp: Option<Atp>,
    tempo: Option<Tempo>,
    ignore_deps: bool,
    fast: bool,
    service_translation: [u64; 4],
    service_replay: [u64; 4],
    log: Log,
}

impl Drive {
    fn new(cfg: &SimConfig) -> Result<Drive, SimError> {
        cfg.machine.validate()?;
        let pf = cfg.prefetcher.build();
        let (l1_pf, l2_pf) = if cfg.prefetcher.at_l1d() {
            (pf, None)
        } else {
            (None, pf)
        };
        Ok(Drive {
            mmu: TranslationEngine::new(&cfg.machine),
            caches: build_caches(cfg)?,
            dram: Dram::new(&cfg.machine.dram),
            rob: RobModel::new(&cfg.machine.core),
            // `analyse` admits no ideal oracle or telemetry, so the
            // prefetcher alone decides the machine's path.
            fast: l1_pf.is_none() && l2_pf.is_none(),
            l1_pf,
            l2_pf,
            atp: cfg.atp.then(Atp::new),
            tempo: cfg.tempo.then(Tempo::new),
            ignore_deps: cfg.ignore_deps,
            service_translation: [0; 4],
            service_replay: [0; 4],
            log: Log::default(),
        })
    }

    /// End of warm-up: zero statistics, keep state (as `Machine` does).
    fn reset_stats(&mut self) {
        self.mmu.reset_stats();
        for c in &mut self.caches {
            c.reset_stats();
        }
        self.dram.reset_stats();
        self.service_translation = [0; 4];
        self.service_replay = [0; 4];
        self.rob.reset_measurement();
    }

    fn exec(&mut self, instr: Instr) -> Result<(), SimError> {
        let at = self.rob.dispatch();
        let Some(op) = instr.op else {
            self.push(CompletionKind::NonMemory, false);
            return Ok(());
        };
        let (va, is_store) = match op {
            MemOp::Load(a) => (a, false),
            MemOp::Store(a) => (a, true),
        };
        let ip = instr.ip;
        let dep = instr.dep && !self.ignore_deps;
        let at = if dep {
            at.max(self.rob.last_load_completion())
        } else {
            at
        };

        let vpn = va.vpn();
        self.log.queries += 1;
        let query = if self.fast {
            self.log.vm.push(VmOp::Lookup(vpn, ip));
            match self.mmu.dtlb_lookup(vpn) {
                Some(pfn) => TranslationQuery::DtlbHit(pfn),
                None => self.mmu.query_after_dtlb_miss(vpn)?,
            }
        } else {
            self.log.vm.push(VmOp::Query(vpn, ip));
            self.mmu.query(vpn)?
        };
        let dtlb_lat = self.mmu.dtlb_latency();
        let stlb_lat = self.mmu.stlb_latency();
        let (trans_done, pfn, walked) = match query {
            TranslationQuery::DtlbHit(pfn) => (at + dtlb_lat, pfn, false),
            TranslationQuery::StlbHit(pfn) => (at + dtlb_lat + stlb_lat, pfn, false),
            TranslationQuery::Walk(plan) => {
                let start = at + dtlb_lat + stlb_lat + self.mmu.psc_latency();
                let done = self.walk(ip, &plan, va.block_in_page(), start);
                (done, plan.data_pfn, true)
            }
        };

        let line = LineAddr::new((pfn.raw() << 6) | va.block_in_page());
        let class = if is_store {
            AccessClass::Store
        } else if walked {
            AccessClass::ReplayData
        } else {
            AccessClass::NonReplayData
        };
        let info = AccessInfo::demand(ip, line, class);
        if self.l1_pf.is_some() {
            let hit = self.contains(0, line);
            let ctx = PrefetchContext {
                ip,
                line,
                vaddr: va,
                hit,
            };
            self.log.pf.push(ctx);
            let reqs = self.l1_pf.as_mut().map(|pf| pf.on_access(&ctx));
            if let Some(reqs) = reqs.filter(|r| !r.is_empty()) {
                self.issue_prefetches(&reqs, ip, trans_done, true);
            }
        }
        let (data_done, served) = self.access_path(&info, trans_done, 0, self.fast);
        if class == AccessClass::ReplayData {
            self.service_replay[served.index()] += 1;
        }
        if served != MemLevel::L1d {
            let ctx = PrefetchContext {
                ip,
                line,
                vaddr: va,
                hit: served == MemLevel::L2c,
            };
            if let Some(pf) = &mut self.l2_pf {
                self.log.pf.push(ctx);
                let reqs = pf.on_access(&ctx);
                if !reqs.is_empty() {
                    self.issue_prefetches(&reqs, ip, trans_done, false);
                }
            } else if self.l1_pf.is_none() {
                self.log.l2_ctx.push(ctx);
            }
        }
        if is_store {
            self.push(CompletionKind::Store, dep);
        } else {
            self.rob.note_load_completion(data_done);
            self.push(
                CompletionKind::Load {
                    trans_done,
                    data_done,
                    walked,
                },
                dep,
            );
        }
        Ok(())
    }

    fn push(&mut self, kind: CompletionKind, dep: bool) {
        self.log.rob.push((kind, dep));
        self.rob.push(kind);
    }

    fn walk(&mut self, ip: u64, plan: &WalkPlan, block_in_page: u64, start: u64) -> u64 {
        let mut t = start;
        for step in plan.steps.iter() {
            let info = AccessInfo::demand(
                ip,
                step.pte_addr.line(),
                AccessClass::Translation(step.level),
            );
            let (ready, served) = self.access_path(&info, t, 0, false);
            if step.level.is_leaf() {
                self.service_translation[served.index()] += 1;
                let atp = self
                    .atp
                    .as_mut()
                    .and_then(|a| a.on_leaf_pte_access(served, plan.data_pfn, block_in_page));
                if let Some(pf) = atp {
                    let pf_info = AccessInfo::prefetch(ip, pf.line, AccessClass::ReplayData);
                    let start = if pf.trigger_level == MemLevel::L2c {
                        1
                    } else {
                        2
                    };
                    self.access_path(&pf_info, ready, start, false);
                }
                if served == MemLevel::Dram {
                    if let Some(tempo) = &mut self.tempo {
                        let pf = tempo.on_leaf_pte_dram(plan.data_pfn, block_in_page);
                        let pf_info = AccessInfo::prefetch(ip, pf.line, AccessClass::ReplayData);
                        if !self.contains(2, pf.line) && self.merge(2, &pf_info, ready).is_none() {
                            let dram_ready = self.dram_access(pf.line, ready);
                            self.log.cache[2].push(CacheOp::Insert(pf_info, dram_ready, ready));
                            self.caches[2].insert_miss(&pf_info, dram_ready, ready);
                        }
                    }
                }
            }
            t = ready;
        }
        self.mmu.complete_walk_tracked(plan, ip, true);
        t
    }

    fn issue_prefetches(&mut self, reqs: &[PrefetchRequest], ip: u64, cycle: u64, from_l1: bool) {
        for req in reqs.iter().take(MAX_PREFETCH_PER_ACCESS) {
            let (line, start, t) = match *req {
                PrefetchRequest::Phys(line) => {
                    if self.contains(1, line) {
                        continue;
                    }
                    (line, 1, cycle)
                }
                PrefetchRequest::Virt(va) => {
                    let vpn = va.vpn();
                    self.log.vm.push(VmOp::Peek(vpn));
                    let resident = self
                        .mmu
                        .dtlb()
                        .peek(vpn)
                        .or_else(|| self.mmu.stlb().peek(vpn));
                    let (pfn, delay) = match resident {
                        Some(pfn) => (pfn, 0),
                        None => match self.mmu.page_table().translate(vpn) {
                            Some(pfn) => (pfn, PREFETCH_STLB_MISS_DELAY),
                            None => continue,
                        },
                    };
                    let line = LineAddr::new((pfn.raw() << 6) | va.block_in_page());
                    let start = if from_l1 { 0 } else { 1 };
                    if self.contains(start, line) {
                        continue;
                    }
                    (line, start, cycle + delay)
                }
            };
            let info = AccessInfo::prefetch(ip, line, AccessClass::NonReplayData);
            self.access_path(&info, t, start, false);
        }
    }

    /// `access_path` without ideal oracles: probe from level `start`
    /// down, serve from DRAM on a full miss, fill every missed level.
    /// With `fast` (the fast pre-pass's demand access, as the machine's
    /// `drive_miss_chain` resolves it) the L1D probe is `probe_fast`, and
    /// a fill into a full MSHR file is made at the file's wakeup cycle
    /// with its ready time shifted by the wait.
    fn access_path(
        &mut self,
        info: &AccessInfo,
        cycle: u64,
        start: usize,
        fast: bool,
    ) -> (u64, MemLevel) {
        let mut t = cycle;
        let mut missed = [(0usize, 0usize, None); 3];
        let mut n_missed = 0;
        let mut outcome = None;
        for (lvl, &level) in LEVELS.iter().enumerate().skip(start) {
            self.log.probes[lvl] += 1;
            let probe = if fast && lvl == 0 {
                self.log.cache[lvl].push(CacheOp::ProbeFast(*info, t));
                self.caches[lvl].probe_fast(info, t)
            } else {
                self.log.cache[lvl].push(CacheOp::Probe(*info, t));
                self.caches[lvl].probe(info, t)
            };
            match probe {
                Probe::Ready(r) => {
                    outcome = Some((r, level));
                    break;
                }
                Probe::Miss { set, empty } => {
                    missed[n_missed] = (lvl, set, empty);
                    n_missed += 1;
                    t += self.caches[lvl].latency();
                }
            }
        }
        let (ready, served) = match outcome {
            Some(o) => o,
            None => (self.dram_access(info.line, t), MemLevel::Dram),
        };
        for &(lvl, set, empty) in &missed[..n_missed] {
            let woken = if fast {
                self.log.cache[lvl].push(CacheOp::Wakeup(cycle));
                self.caches[lvl].mshr_full_wakeup(cycle)
            } else {
                None
            };
            let (fill_ready, at) = woken.map_or((ready, cycle), |w| (ready + (w - cycle), w));
            self.log.cache[lvl].push(CacheOp::InsertAt(*info, fill_ready, at));
            self.caches[lvl].insert_miss_at(set, empty, info, fill_ready, at);
        }
        (ready, served)
    }

    fn contains(&mut self, lvl: usize, line: LineAddr) -> bool {
        self.log.cache[lvl].push(CacheOp::Contains(line));
        self.caches[lvl].contains(line)
    }

    fn merge(&mut self, lvl: usize, info: &AccessInfo, cycle: u64) -> Option<u64> {
        self.log.cache[lvl].push(CacheOp::Merge(*info, cycle));
        self.caches[lvl].mshr_merge(info, cycle)
    }

    fn dram_access(&mut self, line: LineAddr, cycle: u64) -> u64 {
        self.log.dram.push((line, cycle));
        self.dram.access(line, cycle)
    }

    /// The drive's statistics, in the shape `Machine::run` reports, and
    /// its call log.
    fn finish(self) -> (RunStats, Log) {
        let [l1d, l2c, llc] = &self.caches;
        let stats = RunStats {
            core: self.rob.finish(),
            l1d: l1d.stats().clone(),
            l2c: l2c.stats().clone(),
            llc: llc.stats().clone(),
            dtlb: self.mmu.dtlb().stats(),
            stlb: self.mmu.stlb().stats(),
            walks: self.mmu.walk_count(),
            mapped_pages: self.mmu.page_table().mapped_pages(),
            psc: self.mmu.pscs().stats(),
            dram: self.dram.stats(),
            service_translation: self.service_translation,
            service_replay: self.service_replay,
            atp_issued: self.atp.as_ref().map_or(0, Atp::issued),
            tempo_issued: self.tempo.as_ref().map_or(0, Tempo::issued),
            llc_prefetch: llc.prefetch_stats(),
            l2c_prefetch: l2c.prefetch_stats(),
            llc_replay_evictions: llc.eviction_stats_for(AccessClass::ReplayData),
            l2c_pte_evictions: l2c.pte_eviction_stats(),
            llc_pte_evictions: llc.pte_eviction_stats(),
            l2c_recall: None,
            llc_recall: None,
            stlb_recall: None,
            telemetry: None,
        };
        (stats, self.log)
    }
}
