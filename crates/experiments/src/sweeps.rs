//! Declarative catalog of every figure's sweep for the suite runner.
//!
//! This module is the single definition of every figure and table the
//! [`suite`](../bin/suite.rs) runner executes through `atc-harness`
//! (the paper's claims about them live beside it, in
//! [`claims`](crate::claims)):
//!
//! * [`catalog`] — every configuration delta the paper sweeps, as
//!   `label → SimConfig`. Labels are the harness job keys' first
//!   component, so two sweeps that share a config (fig 4 and fig 12
//!   both run the SHiP baseline, every speedup figure reruns `base`)
//!   share the *job*, not just the label.
//! * [`sweeps`] — one [`SweepDef`] per figure/table: which configs to
//!   run, which metric each column shows, and how to aggregate the
//!   footer (geomean for ratios, arithmetic mean for raw metrics).
//! * [`metrics_of`] — the fixed `RunStats → Metrics` projection every
//!   single-core job records into the manifest. The projection is the
//!   contract that makes resumed sweeps render byte-identical tables:
//!   every value a table cell needs must be captured here.

use std::collections::BTreeMap;

use atc_core::{Enhancement, IdealConfig, PolicyChoice};
use atc_harness::{JobError, JobSpec, Metrics};
use atc_prefetch::PrefetcherKind;
use atc_sim::{run_multicore, run_smt, Machine, Probes, RunStats, SimConfig, SimFailure};
use atc_stats::table::Table;
use atc_stats::{geomean, harmonic_speedup};
use atc_types::{AccessClass, CancelToken, MemLevel, PtLevel};
use atc_workloads::trace::{StreamKey, TraceCache};
use atc_workloads::{BenchmarkId, Scale, Workload};

/// Every configuration delta the suite sweeps, as ordered
/// `(label, config)` pairs. Labels never contain `/` (they are the
/// first key component).
pub fn catalog() -> Vec<(&'static str, SimConfig)> {
    let base = SimConfig::baseline;
    let with_llc = |p: PolicyChoice| {
        let mut c = base();
        c.llc_policy = p;
        c
    };
    let with_pf = |mut c: SimConfig, k: PrefetcherKind| {
        c.prefetcher = k;
        c
    };
    let with_ideal = |i: IdealConfig| {
        let mut c = base();
        c.ideal = i;
        c
    };
    let with_stlb = |mut c: SimConfig, entries: usize| {
        c.machine.stlb.entries = entries;
        c
    };
    let with_l2c = |mut c: SimConfig, size: usize, ways: usize, lat: u64| {
        c.machine.l2c.size_bytes = size;
        c.machine.l2c.ways = ways;
        c.machine.l2c.latency = lat;
        c
    };
    let with_llc_geom = |mut c: SimConfig, size: usize, lat: u64| {
        c.machine.llc.size_bytes = size;
        c.machine.llc.latency = lat;
        c
    };
    let tempo = || SimConfig::with_enhancement(Enhancement::Tempo);

    let mut v: Vec<(&'static str, SimConfig)> = vec![
        ("base", base()),
        // Fig 14 cumulative enhancement ladder.
        ("tdrrip", SimConfig::with_enhancement(Enhancement::TDrrip)),
        ("tship", SimConfig::with_enhancement(Enhancement::TShip)),
        ("atp", SimConfig::with_enhancement(Enhancement::Atp)),
        ("tempo", tempo()),
        // Fig 2 idealized hierarchies.
        ("ideal-llc-t", with_ideal(IdealConfig::llc_translations())),
        ("ideal-llc-r", with_ideal(IdealConfig::llc_replays())),
        ("ideal-llc-tr", with_ideal(IdealConfig::llc_both())),
        (
            "ideal-l2t-llc-tr",
            with_ideal(IdealConfig::l2c_translations_llc_both()),
        ),
        (
            "ideal-l2-llc-tr",
            with_ideal(IdealConfig::both_levels_both_classes()),
        ),
        // Figs 4/6/12: LLC replacement policies over the baseline
        // ("base" itself is the SHiP point).
        ("llc-lru", with_llc(PolicyChoice::Lru)),
        ("llc-srrip", with_llc(PolicyChoice::Srrip)),
        ("llc-drrip", with_llc(PolicyChoice::Drrip)),
        ("llc-hawkeye", with_llc(PolicyChoice::Hawkeye)),
        ("llc-newsign", with_llc(PolicyChoice::ShipNewSign)),
        ("llc-thawkeye", with_llc(PolicyChoice::THawkeye)),
        // Fig 12 / ablation: T-SHiP at the LLC with the baseline L2C.
        ("tship-only", with_llc(PolicyChoice::TShip)),
        ("tship-pin-only", with_llc(PolicyChoice::TShipPinOnly)),
        // Fig 10: replays inserted at RRPV 0 instead of the T-policies'
        // placement.
        ("tpol-rrpv0", {
            let mut c = base();
            c.l2c_policy = PolicyChoice::TDrripReplayZero;
            c.llc_policy = PolicyChoice::TShipReplayZero;
            c
        }),
        // Ablation extras.
        ("atp-base", {
            let mut c = base();
            c.atp = true;
            c
        }),
        ("nodeps", {
            let mut c = base();
            c.ignore_deps = true;
            c
        }),
        // §V-B competing predictor.
        ("dppred", {
            let mut c = base();
            c.dppred = true;
            c
        }),
        // Figs 8/15: data prefetchers, without and with the full stack.
        ("pf-ipcp", with_pf(base(), PrefetcherKind::Ipcp)),
        ("pf-spp", with_pf(base(), PrefetcherKind::Spp)),
        ("pf-bingo", with_pf(base(), PrefetcherKind::Bingo)),
        ("pf-isb", with_pf(base(), PrefetcherKind::Isb)),
        ("tempo-pf-ipcp", with_pf(tempo(), PrefetcherKind::Ipcp)),
        ("tempo-pf-spp", with_pf(tempo(), PrefetcherKind::Spp)),
        ("tempo-pf-bingo", with_pf(tempo(), PrefetcherKind::Bingo)),
        ("tempo-pf-isb", with_pf(tempo(), PrefetcherKind::Isb)),
        // Fig 19: STLB sensitivity (2048 is the default = base/tempo).
        ("stlb512-base", with_stlb(base(), 512)),
        ("stlb512-tempo", with_stlb(tempo(), 512)),
        ("stlb1024-base", with_stlb(base(), 1024)),
        ("stlb1024-tempo", with_stlb(tempo(), 1024)),
        ("stlb4096-base", with_stlb(base(), 4096)),
        ("stlb4096-tempo", with_stlb(tempo(), 4096)),
        // Fig 20: L2C sensitivity (512 KiB/8w/10cy is the default).
        ("l2c256k-base", with_l2c(base(), 256 * 1024, 8, 9)),
        ("l2c256k-tempo", with_l2c(tempo(), 256 * 1024, 8, 9)),
        ("l2c768k-base", with_l2c(base(), 768 * 1024, 12, 11)),
        ("l2c768k-tempo", with_l2c(tempo(), 768 * 1024, 12, 11)),
        ("l2c1m-base", with_l2c(base(), 1024 * 1024, 16, 12)),
        ("l2c1m-tempo", with_l2c(tempo(), 1024 * 1024, 16, 12)),
        // Fig 21: LLC sensitivity (2 MiB/20cy is the default).
        ("llc1m-base", with_llc_geom(base(), 1 << 20, 18)),
        ("llc1m-tempo", with_llc_geom(tempo(), 1 << 20, 18)),
        ("llc4m-base", with_llc_geom(base(), 4 << 20, 22)),
        ("llc4m-tempo", with_llc_geom(tempo(), 4 << 20, 22)),
        ("llc8m-base", with_llc_geom(base(), 8 << 20, 24)),
        ("llc8m-tempo", with_llc_geom(tempo(), 8 << 20, 24)),
    ];

    // Probe-carrying variants (figs 5/7/18): identical machine to
    // `base`, but the recall probes only collect when enabled, so they
    // are distinct jobs.
    let mut recall_t = base();
    recall_t.probes = Probes {
        l2c_recall: Some(vec![AccessClass::Translation(PtLevel::L1)]),
        llc_recall: Some(vec![AccessClass::Translation(PtLevel::L1)]),
        stlb_recall: false,
        telemetry: None,
    };
    v.push(("recall-t", recall_t));

    let mut recall_r = base();
    recall_r.probes = Probes {
        l2c_recall: Some(vec![AccessClass::ReplayData]),
        llc_recall: Some(vec![AccessClass::ReplayData]),
        stlb_recall: false,
        telemetry: None,
    };
    v.push(("recall-r", recall_r));

    let mut recall_stlb = base();
    recall_stlb.probes = Probes {
        l2c_recall: None,
        llc_recall: None,
        stlb_recall: true,
        telemetry: None,
    };
    v.push(("recall-stlb", recall_stlb));

    v
}

/// The fixed `RunStats → Metrics` projection recorded into the
/// manifest. Non-finite values (e.g. the on-chip translation fraction
/// of a walk-free run) are dropped by [`Metrics::push`] and render as
/// `n/a`.
pub fn metrics_of(s: &RunStats) -> Metrics {
    let t = AccessClass::Translation(PtLevel::L1);
    let r = AccessClass::ReplayData;
    let n = AccessClass::NonReplayData;
    let mut m = Metrics::new();
    m.push("cycles", s.core.cycles as f64);
    m.push("instructions", s.core.instructions as f64);
    m.push("ipc", s.core.ipc());
    m.push("stlb_mpki", s.stlb_mpki());
    m.push("l2c_mpki_replay", s.l2c_mpki(r));
    m.push("l2c_mpki_nonreplay", s.l2c_mpki(n));
    m.push("l2c_mpki_ptl1", s.l2c_mpki(t));
    m.push("llc_mpki_replay", s.llc_mpki(r));
    m.push("llc_mpki_nonreplay", s.llc_mpki(n));
    m.push("llc_mpki_ptl1", s.llc_mpki(t));
    m.push("onchip_t", s.translation_hit_fraction_upto(MemLevel::Llc));
    let replays: u64 = s.service_replay.iter().sum();
    if replays > 0 {
        m.push(
            "replay_dram_frac",
            s.service_replay[3] as f64 / replays as f64,
        );
    }
    m.push("atp_issued", s.atp_issued as f64);
    m.push("tempo_issued", s.tempo_issued as f64);
    m.push("walk_stall_mean", s.core.walk_stall_hist.mean());
    m.push("replay_stall_mean", s.core.replay_stall_hist.mean());
    m.push("nonreplay_stall_mean", s.core.non_replay_stall_hist.mean());
    m.push("trans_stall", s.core.stalls.translation_related() as f64);
    m.push("total_stall", s.core.stalls.total() as f64);
    let (dead, total) = s.llc_replay_evictions;
    if total > 0 {
        m.push("replay_dead_frac", dead as f64 / total as f64);
    }
    for (name, hist) in [
        ("llc_recall", &s.llc_recall),
        ("l2c_recall", &s.l2c_recall),
        ("stlb_recall", &s.stlb_recall),
    ] {
        if let Some(h) = hist {
            if h.count() > 0 {
                let below = h.fraction_below(50);
                m.push(&format!("{name}_le50"), below);
                m.push(&format!("{name}_gt50"), 1.0 - below);
            }
        }
    }
    m
}

/// One executable unit of a sweep, carrying everything the runner needs
/// (config, workload(s), seed and budget). The key is derived alongside
/// the payload so they can never drift apart.
#[derive(Debug, Clone)]
pub enum SweepJob {
    /// A single-core run.
    Single {
        /// Machine configuration.
        cfg: SimConfig,
        /// Benchmark.
        bench: BenchmarkId,
        /// Scale / seed / warmup / measure.
        budget: Budget,
    },
    /// A 2-way SMT run; thread 1 uses `seed + 1`.
    Smt {
        /// Machine configuration.
        cfg: SimConfig,
        /// Thread 0 / thread 1 benchmarks.
        pair: (BenchmarkId, BenchmarkId),
        /// Scale / seed / warmup / measure (per thread).
        budget: Budget,
    },
    /// An N-core multi-programmed run; core `i` uses `seed + i`.
    Multicore {
        /// Machine configuration.
        cfg: SimConfig,
        /// Per-core benchmarks.
        benches: Vec<BenchmarkId>,
        /// Scale / seed / warmup / measure (per core).
        budget: Budget,
    },
}

/// Scale, seed and instruction budget shared by every job kind.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Workload scale.
    pub scale: Scale,
    /// Base RNG seed.
    pub seed: u64,
    /// Warmup instructions (per core/thread).
    pub warmup: u64,
    /// Measured instructions (per core/thread).
    pub measure: u64,
}

impl Budget {
    fn key_suffix(&self) -> String {
        format!(
            "s{}/{}/w{}/m{}",
            self.seed,
            self.scale.name(),
            self.warmup,
            self.measure
        )
    }

    /// The SMT budget convention (fig 17): half per thread.
    pub fn for_smt(mut self) -> Budget {
        self.warmup /= 2;
        self.measure /= 2;
        self
    }

    /// The 8-core budget convention (multicore mixes): a quarter per
    /// core, floored so short CI budgets still exercise the machine.
    pub fn for_multicore(mut self) -> Budget {
        self.measure = (self.measure / 4).max(100_000);
        self.warmup = (self.warmup / 4).max(20_000);
        self
    }
}

impl SweepJob {
    /// The instruction streams this job consumes, as trace-cache keys.
    ///
    /// Every stream is the full warmup + measure budget of one
    /// core/thread; SMT thread 1 runs `seed + 1` and multicore core `i`
    /// runs `seed + i`, matching the simulators' conventions.
    pub fn streams(&self) -> Vec<StreamKey> {
        let key = |bench: BenchmarkId, budget: &Budget, lane: u64| StreamKey {
            bench,
            scale: budget.scale,
            seed: budget.seed + lane,
            len: budget.warmup + budget.measure,
        };
        match self {
            SweepJob::Single { bench, budget, .. } => vec![key(*bench, budget, 0)],
            SweepJob::Smt { pair, budget, .. } => {
                vec![key(pair.0, budget, 0), key(pair.1, budget, 1)]
            }
            SweepJob::Multicore {
                benches, budget, ..
            } => benches
                .iter()
                .enumerate()
                .map(|(i, b)| key(*b, budget, i as u64))
                .collect(),
        }
    }

    /// Measured instructions this job simulates across all its
    /// cores/threads — what a finished job contributes to the live
    /// reporter's aggregate instructions-per-second rate.
    pub fn instructions(&self) -> u64 {
        match self {
            SweepJob::Single { budget, .. } => budget.measure,
            SweepJob::Smt { budget, .. } => budget.measure * 2,
            SweepJob::Multicore {
                benches, budget, ..
            } => budget.measure * benches.len() as u64,
        }
    }

    /// Execute the job and project its statistics into [`Metrics`].
    ///
    /// The instruction streams are pulled from `traces`, so every config
    /// of a sweep replays the same shared capture instead of re-running
    /// the synthetic generator (see [`TraceCache`]); capture happens
    /// lazily on the first job that needs a stream.
    ///
    /// `cancel` is polled cooperatively inside the access loops: the
    /// scheduler's deadline watchdog cancels it to reclaim a runaway
    /// job, which then fails with whatever partial statistics the run
    /// had produced.
    ///
    /// # Errors
    ///
    /// Every simulation failure becomes a *permanent* [`JobError`]: a
    /// run is deterministic, so a retry would deadlock at the same cycle
    /// or hit the same deadline. Partial statistics are salvaged when
    /// the machine had started executing.
    pub fn run(&self, traces: &TraceCache, cancel: &CancelToken) -> Result<Metrics, JobError> {
        let streams = self.streams();
        match self {
            SweepJob::Single { cfg, budget, .. } => {
                let run = || -> Result<RunStats, SimFailure> {
                    let mut wl = traces.replay(streams[0]);
                    Machine::new(cfg)?.run_cancellable(
                        &mut wl,
                        budget.warmup,
                        budget.measure,
                        cancel,
                    )
                };
                match run() {
                    Ok(stats) => Ok(metrics_of(&stats)),
                    Err(failure) => {
                        let err = JobError::permanent(failure.error.to_string());
                        Err(match &failure.partial {
                            Some(partial) => err.with_partial(metrics_of(partial)),
                            None => err,
                        })
                    }
                }
            }
            SweepJob::Smt { cfg, budget, .. } => {
                let mut w0 = traces.replay(streams[0]);
                let mut w1 = traces.replay(streams[1]);
                let stats = run_smt(cfg, &mut w0, &mut w1, budget.warmup, budget.measure, cancel)
                    .map_err(|e| JobError::permanent(e.to_string()))?;
                let mut m = Metrics::new();
                for (i, thread) in stats.threads.iter().enumerate() {
                    m.push(&format!("cycles{i}"), thread.cycles as f64);
                    m.push(&format!("ipc{i}"), thread.ipc());
                }
                Ok(m)
            }
            SweepJob::Multicore { cfg, budget, .. } => {
                let mut wls: Vec<Box<dyn Workload>> = streams
                    .iter()
                    .map(|&k| Box::new(traces.replay(k)) as Box<dyn Workload>)
                    .collect();
                let cores = run_multicore(cfg, &mut wls, budget.warmup, budget.measure, cancel)
                    .map_err(|e| JobError::permanent(e.to_string()))?;
                let mut m = Metrics::new();
                for (i, core) in cores.iter().enumerate() {
                    m.push(&format!("cycles{i}"), core.cycles as f64);
                    m.push(&format!("ipc{i}"), core.ipc());
                }
                Ok(m)
            }
        }
    }
}

/// How a table cell is derived from manifest records.
#[derive(Debug, Clone, Copy)]
pub enum ColValue {
    /// `metrics[name]` of this column's config.
    Metric(&'static str),
    /// `metric(base config) / metric(this config)` — a speedup when the
    /// metric is `cycles`, a reduction factor for stall metrics.
    Ratio {
        /// Label of the config in the numerator.
        base: &'static str,
        /// Metric divided.
        metric: &'static str,
    },
}

/// Cell formatting.
#[derive(Debug, Clone, Copy)]
pub enum Fmt {
    /// Two decimals.
    F2,
    /// Three decimals.
    F3,
    /// Percentage with one decimal.
    Pct,
    /// Integer.
    Int,
}

impl Fmt {
    /// Render a value for a table cell.
    pub fn render(self, x: f64) -> String {
        match self {
            Fmt::F2 => crate::f2(x),
            Fmt::F3 => crate::f3(x),
            Fmt::Pct => crate::pct(x),
            Fmt::Int => format!("{:.0}", x),
        }
    }
}

/// One column of a per-benchmark sweep table.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// Column header.
    pub header: &'static str,
    /// Config label whose record feeds the cell.
    pub config: &'static str,
    /// How the cell value is derived.
    pub value: ColValue,
    /// How the cell is printed.
    pub fmt: Fmt,
}

const fn metric(
    header: &'static str,
    config: &'static str,
    name: &'static str,
    fmt: Fmt,
) -> Column {
    Column {
        header,
        config,
        value: ColValue::Metric(name),
        fmt,
    }
}

const fn speedup(header: &'static str, config: &'static str) -> Column {
    ratio(header, config, "base", "cycles")
}

const fn ratio(
    header: &'static str,
    config: &'static str,
    base: &'static str,
    metric: &'static str,
) -> Column {
    Column {
        header,
        config,
        value: ColValue::Ratio { base, metric },
        fmt: Fmt::F3,
    }
}

/// The rows of a sweep: one per benchmark, or one per SMT/multicore mix.
#[derive(Debug, Clone)]
pub enum SweepKind {
    /// Rows = benchmarks, cells = [`Column`]s.
    PerBench(Vec<Column>),
    /// Rows = 2-thread mixes; the cell is the harmonic speedup of
    /// `tempo` over `base` (fig 17).
    Smt(Vec<(BenchmarkId, BenchmarkId)>),
    /// Rows = named N-core mixes; the cell is the harmonic speedup of
    /// `tempo` over `base` (§V multicore).
    Multicore(Vec<(&'static str, Vec<BenchmarkId>)>),
}

/// One figure/table of the paper as a declarative sweep.
#[derive(Debug, Clone)]
pub struct SweepDef {
    /// Short name used by `--figures` (e.g. `fig14`).
    pub name: &'static str,
    /// Table title printed above the rendered sweep.
    pub title: &'static str,
    /// Row/column structure.
    pub kind: SweepKind,
}

/// The paper's SMT mixes (fig 17).
pub const SMT_MIXES: [(BenchmarkId, BenchmarkId); 8] = [
    (BenchmarkId::Xalancbmk, BenchmarkId::Xalancbmk),
    (BenchmarkId::Canneal, BenchmarkId::Xalancbmk),
    (BenchmarkId::Radii, BenchmarkId::Bf),
    (BenchmarkId::Pr, BenchmarkId::Cc),
    (BenchmarkId::Tc, BenchmarkId::Pr),
    (BenchmarkId::Pr, BenchmarkId::Xalancbmk),
    (BenchmarkId::Bf, BenchmarkId::Mis),
    (BenchmarkId::Cc, BenchmarkId::Radii),
];

/// The representative 8-core mixes (§V). Slugs are stable key
/// components; keep them frozen or old manifests stop matching.
pub fn multicore_mixes() -> Vec<(&'static str, Vec<BenchmarkId>)> {
    use BenchmarkId::*;
    vec![
        ("homog-low", vec![Xalancbmk; 8]),
        ("homog-high", vec![Pr; 8]),
        ("high-high", vec![Pr, Cc, Pr, Cc, Pr, Cc, Pr, Cc]),
        (
            "mixed-all",
            vec![Xalancbmk, Tc, Canneal, Mis, Mcf, Bf, Radii, Pr],
        ),
        (
            "high-low",
            vec![
                Pr, Xalancbmk, Cc, Xalancbmk, Radii, Xalancbmk, Bf, Xalancbmk,
            ],
        ),
        (
            "med-heavy",
            vec![Tc, Canneal, Mis, Mcf, Tc, Canneal, Mis, Mcf],
        ),
    ]
}

/// Every sweep of the suite, in paper order.
pub fn sweeps() -> Vec<SweepDef> {
    vec![
        SweepDef {
            name: "fig01",
            title: "Fig 1: head-of-ROB stall cycles per stalling load (baseline)",
            kind: SweepKind::PerBench(vec![
                metric("walk-avg", "base", "walk_stall_mean", Fmt::F2),
                metric("replay-avg", "base", "replay_stall_mean", Fmt::F2),
                metric("nonreplay-avg", "base", "nonreplay_stall_mean", Fmt::F2),
            ]),
        },
        SweepDef {
            name: "fig02",
            title: "Fig 2: speedup with idealized translation/replay caching",
            kind: SweepKind::PerBench(vec![
                speedup("LLC(T)", "ideal-llc-t"),
                speedup("LLC(R)", "ideal-llc-r"),
                speedup("LLC(TR)", "ideal-llc-tr"),
                speedup("L2C(T)+LLC(TR)", "ideal-l2t-llc-tr"),
                speedup("L2C+LLC(TR)", "ideal-l2-llc-tr"),
            ]),
        },
        SweepDef {
            name: "fig03",
            title: "Fig 3: where translations and replays are serviced (baseline)",
            kind: SweepKind::PerBench(vec![
                metric("T-onchip", "base", "onchip_t", Fmt::Pct),
                metric("R-DRAM", "base", "replay_dram_frac", Fmt::Pct),
            ]),
        },
        SweepDef {
            name: "fig04",
            title: "Fig 4: LLC translation (PTL1) MPKI by replacement policy",
            kind: SweepKind::PerBench(vec![
                metric("LRU", "llc-lru", "llc_mpki_ptl1", Fmt::F2),
                metric("SRRIP", "llc-srrip", "llc_mpki_ptl1", Fmt::F2),
                metric("DRRIP", "llc-drrip", "llc_mpki_ptl1", Fmt::F2),
                metric("SHiP", "base", "llc_mpki_ptl1", Fmt::F2),
                metric("Hawkeye", "llc-hawkeye", "llc_mpki_ptl1", Fmt::F2),
            ]),
        },
        SweepDef {
            name: "fig05",
            title: "Fig 5: translation recalls within 50 unique accesses",
            kind: SweepKind::PerBench(vec![
                metric("LLC<50", "recall-t", "llc_recall_le50", Fmt::Pct),
                metric("L2C<50", "recall-t", "l2c_recall_le50", Fmt::Pct),
            ]),
        },
        SweepDef {
            name: "fig06",
            title: "Fig 6: LLC replay MPKI by replacement policy (+dead fraction)",
            kind: SweepKind::PerBench(vec![
                metric("LRU", "llc-lru", "llc_mpki_replay", Fmt::F2),
                metric("SRRIP", "llc-srrip", "llc_mpki_replay", Fmt::F2),
                metric("DRRIP", "llc-drrip", "llc_mpki_replay", Fmt::F2),
                metric("SHiP", "base", "llc_mpki_replay", Fmt::F2),
                metric("Hawkeye", "llc-hawkeye", "llc_mpki_replay", Fmt::F2),
                metric("dead%", "base", "replay_dead_frac", Fmt::Pct),
            ]),
        },
        SweepDef {
            name: "fig07",
            title: "Fig 7: replay recalls beyond 50 unique accesses",
            kind: SweepKind::PerBench(vec![
                metric("LLC>50", "recall-r", "llc_recall_gt50", Fmt::Pct),
                metric("L2C>50", "recall-r", "l2c_recall_gt50", Fmt::Pct),
            ]),
        },
        SweepDef {
            name: "fig08",
            title: "Fig 8: LLC replay MPKI under data prefetchers (baseline)",
            kind: SweepKind::PerBench(vec![
                metric("none", "base", "llc_mpki_replay", Fmt::F2),
                metric("IPCP", "pf-ipcp", "llc_mpki_replay", Fmt::F2),
                metric("SPP", "pf-spp", "llc_mpki_replay", Fmt::F2),
                metric("Bingo", "pf-bingo", "llc_mpki_replay", Fmt::F2),
                metric("ISB", "pf-isb", "llc_mpki_replay", Fmt::F2),
            ]),
        },
        SweepDef {
            name: "fig10",
            title: "Fig 10: T-policies vs inserting replays at RRPV 0",
            kind: SweepKind::PerBench(vec![
                speedup("T-policies", "tship"),
                speedup("replay@0", "tpol-rrpv0"),
            ]),
        },
        SweepDef {
            name: "fig12",
            title: "Fig 12: LLC translation MPKI — NewSign and T-policies",
            kind: SweepKind::PerBench(vec![
                metric("SHiP", "base", "llc_mpki_ptl1", Fmt::F2),
                metric("NewSign", "llc-newsign", "llc_mpki_ptl1", Fmt::F2),
                metric("T-SHiP", "tship-only", "llc_mpki_ptl1", Fmt::F2),
                metric("Hawkeye", "llc-hawkeye", "llc_mpki_ptl1", Fmt::F2),
                metric("T-Hawkeye", "llc-thawkeye", "llc_mpki_ptl1", Fmt::F2),
            ]),
        },
        SweepDef {
            name: "fig14",
            title: "Fig 14: normalized performance of the enhancement ladder",
            kind: SweepKind::PerBench(vec![
                speedup("T-DRRIP", "tdrrip"),
                speedup("+T-SHiP", "tship"),
                speedup("+ATP", "atp"),
                speedup("+TEMPO", "tempo"),
                metric("onchip-T%", "tempo", "onchip_t", Fmt::Pct),
                metric("ATP-pf", "tempo", "atp_issued", Fmt::Int),
                metric("TEMPO-pf", "tempo", "tempo_issued", Fmt::Int),
            ]),
        },
        SweepDef {
            name: "fig15",
            title: "Fig 15: full-stack speedup under data prefetchers",
            kind: SweepKind::PerBench(vec![
                speedup("no-pf", "tempo"),
                ratio("IPCP", "tempo-pf-ipcp", "pf-ipcp", "cycles"),
                ratio("SPP", "tempo-pf-spp", "pf-spp", "cycles"),
                ratio("Bingo", "tempo-pf-bingo", "pf-bingo", "cycles"),
                ratio("ISB", "tempo-pf-isb", "pf-isb", "cycles"),
            ]),
        },
        SweepDef {
            name: "fig16",
            title: "Fig 16: translation-related stall reduction (base/TEMPO ratio)",
            kind: SweepKind::PerBench(vec![
                ratio("trans-stall-x", "tempo", "base", "trans_stall"),
                metric("base-stall", "base", "trans_stall", Fmt::Int),
                metric("tempo-stall", "tempo", "trans_stall", Fmt::Int),
            ]),
        },
        SweepDef {
            name: "fig17",
            title: "Fig 17: 2-way SMT harmonic speedup (full stack vs baseline)",
            kind: SweepKind::Smt(SMT_MIXES.to_vec()),
        },
        SweepDef {
            name: "fig18",
            title: "Fig 18: STLB recalls beyond 50 unique translations",
            kind: SweepKind::PerBench(vec![metric(
                "STLB>50",
                "recall-stlb",
                "stlb_recall_gt50",
                Fmt::Pct,
            )]),
        },
        SweepDef {
            name: "fig19",
            title: "Fig 19: full-stack speedup vs STLB size",
            kind: SweepKind::PerBench(vec![
                ratio("512", "stlb512-tempo", "stlb512-base", "cycles"),
                ratio("1024", "stlb1024-tempo", "stlb1024-base", "cycles"),
                speedup("2048", "tempo"),
                ratio("4096", "stlb4096-tempo", "stlb4096-base", "cycles"),
            ]),
        },
        SweepDef {
            name: "fig20",
            title: "Fig 20: full-stack speedup vs L2C size",
            kind: SweepKind::PerBench(vec![
                ratio("256KB", "l2c256k-tempo", "l2c256k-base", "cycles"),
                speedup("512KB", "tempo"),
                ratio("768KB", "l2c768k-tempo", "l2c768k-base", "cycles"),
                ratio("1MB", "l2c1m-tempo", "l2c1m-base", "cycles"),
            ]),
        },
        SweepDef {
            name: "fig21",
            title: "Fig 21: full-stack speedup vs LLC size",
            kind: SweepKind::PerBench(vec![
                ratio("1MB", "llc1m-tempo", "llc1m-base", "cycles"),
                speedup("2MB", "tempo"),
                ratio("4MB", "llc4m-tempo", "llc4m-base", "cycles"),
                ratio("8MB", "llc8m-tempo", "llc8m-base", "cycles"),
            ]),
        },
        SweepDef {
            name: "table2",
            title: "Table II: benchmark characterization (baseline)",
            kind: SweepKind::PerBench(vec![
                metric("STLB", "base", "stlb_mpki", Fmt::F2),
                metric("L2C-replay", "base", "l2c_mpki_replay", Fmt::F2),
                metric("L2C-nonreplay", "base", "l2c_mpki_nonreplay", Fmt::F2),
                metric("L2C-PTL1", "base", "l2c_mpki_ptl1", Fmt::F2),
                metric("LLC-replay", "base", "llc_mpki_replay", Fmt::F2),
                metric("LLC-nonreplay", "base", "llc_mpki_nonreplay", Fmt::F2),
                metric("LLC-PTL1", "base", "llc_mpki_ptl1", Fmt::F2),
            ]),
        },
        SweepDef {
            name: "multicore",
            title: "§V multi-core: 8-core mixes, harmonic speedup",
            kind: SweepKind::Multicore(multicore_mixes()),
        },
        SweepDef {
            name: "dppred",
            title: "§V-B: enhancements vs CbPred+DpPred",
            kind: SweepKind::PerBench(vec![
                speedup("DpPred", "dppred"),
                speedup("full-stack", "tempo"),
            ]),
        },
        SweepDef {
            name: "ablation",
            title: "Ablation: each mechanism alone and combined (speedup)",
            kind: SweepKind::PerBench(vec![
                speedup("T-DRRIP", "tdrrip"),
                speedup("T-SHiP-only", "tship-only"),
                speedup("both-T", "tship"),
                speedup("NewSign", "llc-newsign"),
                speedup("pin-only", "tship-pin-only"),
                speedup("ATP@base", "atp-base"),
                speedup("ATP@T", "atp"),
                speedup("no-deps", "nodeps"),
            ]),
        },
    ]
}

/// The config labels a per-benchmark sweep's columns read, each once,
/// in first-use order (a ratio's base right after its column's config).
pub fn column_configs(columns: &[Column]) -> Vec<&'static str> {
    let mut labels: Vec<&'static str> = Vec::new();
    for col in columns {
        let base = match col.value {
            ColValue::Ratio { base, .. } => Some(base),
            ColValue::Metric(_) => None,
        };
        for label in std::iter::once(col.config).chain(base) {
            if !labels.contains(&label) {
                labels.push(label);
            }
        }
    }
    labels
}

/// Expand `defs` into the deduplicated harness job list, in
/// deterministic spec order. Jobs shared between sweeps (`base` feeds
/// nearly every figure) appear once.
pub fn build_jobs(
    defs: &[SweepDef],
    catalog: &[(&'static str, SimConfig)],
    benchmarks: &[BenchmarkId],
    budget: Budget,
) -> Result<Vec<(String, SweepJob)>, String> {
    let lookup: BTreeMap<&str, &SimConfig> = catalog.iter().map(|(l, c)| (*l, c)).collect();
    let config = |label: &str| -> Result<SimConfig, String> {
        lookup
            .get(label)
            .map(|c| (*c).clone())
            .ok_or_else(|| format!("sweep references unknown config label {label:?}"))
    };

    let mut jobs: Vec<(String, SweepJob)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut push = |key: String, job: SweepJob| {
        if seen.insert(key.clone()) {
            jobs.push((key, job));
        }
    };

    for def in defs {
        match &def.kind {
            SweepKind::PerBench(columns) => {
                for label in column_configs(columns) {
                    let cfg = config(label)?;
                    for &bench in benchmarks {
                        let spec = JobSpec {
                            config: label.to_string(),
                            bench,
                            seed: budget.seed,
                            scale: budget.scale,
                            warmup: budget.warmup,
                            measure: budget.measure,
                        };
                        push(
                            spec.key(),
                            SweepJob::Single {
                                cfg: cfg.clone(),
                                bench,
                                budget,
                            },
                        );
                    }
                }
            }
            SweepKind::Smt(pairs) => {
                let b = budget.for_smt();
                for label in ["base", "tempo"] {
                    let cfg = config(label)?;
                    for &pair in pairs {
                        push(
                            smt_key(label, pair, b),
                            SweepJob::Smt {
                                cfg: cfg.clone(),
                                pair,
                                budget: b,
                            },
                        );
                    }
                }
            }
            SweepKind::Multicore(mixes) => {
                let b = budget.for_multicore();
                for label in ["base", "tempo"] {
                    let cfg = config(label)?;
                    for (slug, benches) in mixes {
                        push(
                            mc_key(label, slug, b),
                            SweepJob::Multicore {
                                cfg: cfg.clone(),
                                benches: benches.clone(),
                                budget: b,
                            },
                        );
                    }
                }
            }
        }
    }
    Ok(jobs)
}

/// Manifest key of a single-core job (the [`JobSpec`] key).
pub fn single_key(label: &str, bench: BenchmarkId, b: Budget) -> String {
    JobSpec {
        config: label.to_string(),
        bench,
        seed: b.seed,
        scale: b.scale,
        warmup: b.warmup,
        measure: b.measure,
    }
    .key()
}

/// Manifest key of an SMT pair job (`b` is the already-halved budget).
pub fn smt_key(label: &str, pair: (BenchmarkId, BenchmarkId), b: Budget) -> String {
    format!(
        "smt-{label}/{}-{}/{}",
        pair.0.name(),
        pair.1.name(),
        b.key_suffix()
    )
}

/// Manifest key of a multicore mix job (`b` is the per-core budget).
pub fn mc_key(label: &str, slug: &str, b: Budget) -> String {
    format!("mc-{label}/{slug}/{}", b.key_suffix())
}

/// The values behind one rendered sweep: per row, its label and one
/// value per column (`None` where an input is missing), plus the
/// footer. [`render_sweep`] prints exactly these values, and the
/// [`claims`](crate::claims) read them.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepValues {
    /// Value-column headers, in order (the row-label column excluded).
    pub headers: Vec<&'static str>,
    /// `(row label, one value per column)` for each row.
    pub rows: Vec<(String, Vec<Option<f64>>)>,
    /// Per column: the geomean of a ratio (or SMT/multicore) column,
    /// the mean of a metric column in a pure-metric table, `None` for
    /// a metric column beside ratios or a column with no values.
    pub footer: Vec<Option<f64>>,
}

/// Compute one sweep's [`SweepValues`] from recorded metrics.
///
/// `lookup` maps a manifest key to the metrics of a *successful* record
/// (return `None` for missing or failed jobs).
pub fn sweep_values<'m>(
    def: &SweepDef,
    benchmarks: &[BenchmarkId],
    budget: Budget,
    lookup: &dyn Fn(&str) -> Option<&'m Metrics>,
) -> SweepValues {
    let hspeedup = |rows: Vec<(String, Option<f64>)>| {
        let present: Vec<f64> = rows.iter().filter_map(|r| r.1).collect();
        SweepValues {
            headers: vec!["hspeedup"],
            rows: rows.into_iter().map(|(l, v)| (l, vec![v])).collect(),
            footer: vec![(!present.is_empty()).then(|| geomean(&present))],
        }
    };
    // Harmonic speedup of `tempo` over `base` across `n` cores/threads.
    let harmonic = |base: Option<&Metrics>, enh: Option<&Metrics>, n: usize| {
        let (base, enh) = (base?, enh?);
        let ratios: Option<Vec<f64>> = (0..n)
            .map(|i| {
                let name = format!("cycles{i}");
                Some(base.get(&name)? / enh.get(&name)?)
            })
            .collect();
        ratios.map(|r| harmonic_speedup(&r))
    };
    match &def.kind {
        SweepKind::PerBench(columns) => {
            let mut col_vals: Vec<Vec<f64>> = vec![Vec::new(); columns.len()];
            let rows = benchmarks
                .iter()
                .map(|&bench| {
                    let get = |label: &str, name: &str| {
                        lookup(&single_key(label, bench, budget)).and_then(|m| m.get(name))
                    };
                    let vals = columns
                        .iter()
                        .map(|col| match col.value {
                            ColValue::Metric(name) => get(col.config, name),
                            ColValue::Ratio { base, metric } => {
                                match (get(base, metric), get(col.config, metric)) {
                                    (Some(n), Some(d)) if d != 0.0 => Some(n / d),
                                    _ => None,
                                }
                            }
                        })
                        .collect::<Vec<_>>();
                    for (acc, v) in col_vals.iter_mut().zip(&vals) {
                        acc.extend(*v);
                    }
                    (bench.name().to_string(), vals)
                })
                .collect();
            let any_ratio = columns
                .iter()
                .any(|c| matches!(c.value, ColValue::Ratio { .. }));
            let footer = columns
                .iter()
                .zip(&col_vals)
                .map(|(col, vals)| match col.value {
                    _ if vals.is_empty() => None,
                    ColValue::Ratio { .. } => Some(geomean(vals)),
                    ColValue::Metric(_) if any_ratio => None,
                    ColValue::Metric(_) => Some(vals.iter().sum::<f64>() / vals.len() as f64),
                })
                .collect();
            SweepValues {
                headers: columns.iter().map(|c| c.header).collect(),
                rows,
                footer,
            }
        }
        SweepKind::Smt(pairs) => {
            let b = budget.for_smt();
            hspeedup(
                pairs
                    .iter()
                    .map(|&pair| {
                        let h = harmonic(
                            lookup(&smt_key("base", pair, b)),
                            lookup(&smt_key("tempo", pair, b)),
                            2,
                        );
                        (format!("{}-{}", pair.0.name(), pair.1.name()), h)
                    })
                    .collect(),
            )
        }
        SweepKind::Multicore(mixes) => {
            let b = budget.for_multicore();
            hspeedup(
                mixes
                    .iter()
                    .map(|(slug, benches)| {
                        let h = harmonic(
                            lookup(&mc_key("base", slug, b)),
                            lookup(&mc_key("tempo", slug, b)),
                            benches.len(),
                        );
                        (slug.to_string(), h)
                    })
                    .collect(),
            )
        }
    }
}

/// Render one sweep from recorded metrics as an aligned [`Table`].
///
/// Cells whose inputs are missing render as `n/a`; the footer is the
/// geomean of each ratio column (blank for raw-metric columns in a
/// mixed table) or the arithmetic mean of a pure-metric table (see
/// [`sweep_values`]). Rendering touches only the recorded metrics, so
/// a resumed or differently-parallel run produces byte-identical
/// output.
pub fn render_sweep<'m>(
    def: &SweepDef,
    benchmarks: &[BenchmarkId],
    budget: Budget,
    lookup: &dyn Fn(&str) -> Option<&'m Metrics>,
) -> Table {
    let values = sweep_values(def, benchmarks, budget, lookup);
    let (label, fmts, footer_label, blank): (_, Vec<Fmt>, _, Vec<bool>) = match &def.kind {
        SweepKind::PerBench(columns) => {
            let any_ratio = columns
                .iter()
                .any(|c| matches!(c.value, ColValue::Ratio { .. }));
            (
                "benchmark",
                columns.iter().map(|c| c.fmt).collect(),
                if any_ratio { "geomean" } else { "mean" },
                columns
                    .iter()
                    .map(|c| any_ratio && matches!(c.value, ColValue::Metric(_)))
                    .collect(),
            )
        }
        SweepKind::Smt(_) => ("mix (T0-T1)", vec![Fmt::F3], "geomean", vec![false]),
        SweepKind::Multicore(_) => ("mix", vec![Fmt::F3], "geomean", vec![false]),
    };
    let cell = |fmt: &Fmt, v: &Option<f64>| match v {
        Some(x) => fmt.render(*x),
        None => "n/a".to_string(),
    };
    let mut headers = vec![label];
    headers.extend(&values.headers);
    let mut table = Table::new(&headers);
    for (row_label, vals) in &values.rows {
        let mut row = vec![row_label.clone()];
        row.extend(fmts.iter().zip(vals).map(|(f, v)| cell(f, v)));
        table.row(&row);
    }
    let mut footer = vec![footer_label.to_string()];
    footer.extend(
        fmts.iter()
            .zip(&values.footer)
            .zip(&blank)
            .map(|((f, v), &blank)| if blank { String::new() } else { cell(f, v) }),
    );
    table.row(&footer);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_labels_are_unique_and_slash_free() {
        let cat = catalog();
        let mut seen = std::collections::HashSet::new();
        for (label, _) in &cat {
            assert!(!label.contains('/'), "{label} contains '/'");
            assert!(seen.insert(*label), "duplicate label {label}");
        }
        assert!(cat.len() > 40, "catalog unexpectedly small: {}", cat.len());
    }

    #[test]
    fn every_sweep_reference_resolves() {
        let cat = catalog();
        let defs = sweeps();
        let jobs = build_jobs(
            &defs,
            &cat,
            &[BenchmarkId::Mcf],
            Budget {
                scale: Scale::Test,
                seed: 42,
                warmup: 10,
                measure: 100,
            },
        )
        .expect("all labels resolve");
        assert!(!jobs.is_empty());
        // Keys are unique by construction.
        let keys: std::collections::HashSet<_> = jobs.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys.len(), jobs.len());
    }

    #[test]
    fn shared_configs_are_deduplicated_across_sweeps() {
        let cat = catalog();
        let defs = sweeps();
        let benches = [BenchmarkId::Mcf, BenchmarkId::Pr];
        let budget = Budget {
            scale: Scale::Test,
            seed: 42,
            warmup: 10,
            measure: 100,
        };
        let all = build_jobs(&defs, &cat, &benches, budget).unwrap();
        // `base` feeds figs 1/3/4/6/8 and every speedup denominator, yet
        // appears exactly once per benchmark.
        let base_jobs = all.iter().filter(|(k, _)| k.starts_with("base/")).count();
        assert_eq!(base_jobs, benches.len());
    }

    /// Seeded property test: across the full sweep catalog, no two
    /// distinct (bench, scale, seed) stream specs share a cached trace,
    /// and equal specs always share one. Random budgets drive the key's
    /// length component through different values per round.
    #[test]
    fn trace_cache_keys_are_collision_free_across_the_catalog() {
        use std::collections::HashMap;
        use std::sync::Arc;

        let cat = catalog();
        let defs = sweeps();
        let benches = [BenchmarkId::Mcf, BenchmarkId::Pr, BenchmarkId::Canneal];
        let mut rng = atc_types::rng::SimRng::seed_from_u64(0x5eed_cafe);
        for _round in 0..3 {
            let budget = Budget {
                scale: Scale::Test,
                seed: 40 + rng.next_below(8),
                warmup: 10 + rng.next_below(50),
                measure: 100 + rng.next_below(400),
            };
            let jobs = build_jobs(&defs, &cat, &benches, budget).unwrap();
            let cache = TraceCache::new();
            // Spec → the Arc the cache hands out for it.
            let mut by_spec: HashMap<StreamKey, Arc<atc_workloads::trace::Trace>> = HashMap::new();
            for (_key, job) in &jobs {
                for stream in job.streams() {
                    let t = cache.get(stream);
                    match by_spec.get(&stream) {
                        // Same spec: must be the same shared capture.
                        Some(prev) => assert!(
                            Arc::ptr_eq(prev, &t),
                            "{stream:?}: same spec returned distinct captures"
                        ),
                        None => {
                            // Distinct spec: must not alias any other
                            // spec's capture.
                            for (other, prev) in &by_spec {
                                assert!(
                                    !Arc::ptr_eq(prev, &t),
                                    "{stream:?} and {other:?} share a cached stream"
                                );
                            }
                            by_spec.insert(stream, t);
                        }
                    }
                }
            }
            assert_eq!(
                cache.streams(),
                by_spec.len(),
                "cache captured exactly one stream per distinct spec"
            );
            assert!(
                by_spec.len() > benches.len(),
                "catalog exercises SMT/multicore seed lanes too"
            );
        }
    }

    #[test]
    fn smt_halves_and_multicore_quarters_the_budget() {
        let b = Budget {
            scale: Scale::Small,
            seed: 42,
            warmup: 200_000,
            measure: 2_000_000,
        };
        let smt = b.for_smt();
        assert_eq!((smt.warmup, smt.measure), (100_000, 1_000_000));
        let mc = b.for_multicore();
        assert_eq!((mc.warmup, mc.measure), (50_000, 500_000));
        // Tiny CI budgets hit the multicore floor.
        let tiny = Budget {
            warmup: 1_000,
            measure: 8_000,
            ..b
        }
        .for_multicore();
        assert_eq!((tiny.warmup, tiny.measure), (20_000, 100_000));
    }

    #[test]
    fn a_deadlocked_job_is_attempted_once() {
        use atc_harness::{JobStatus, Progress, Scheduler};

        // Memory that never answers trips the deadlock watchdog. A run
        // is deterministic, so a retry would deadlock at the same cycle:
        // even with a retry budget the job fails on its first attempt,
        // with its partial statistics.
        const NEVER: u64 = 1_000_000_000_000;
        let mut cfg = SimConfig::baseline();
        cfg.machine.dram.row_hit_cycles = NEVER;
        cfg.machine.dram.row_miss_cycles = NEVER;
        cfg.watchdog_cycles = 1_000_000;
        let job = SweepJob::Single {
            cfg,
            bench: BenchmarkId::Mcf,
            budget: Budget {
                scale: Scale::Test,
                seed: 3,
                warmup: 5_000,
                measure: 30_000,
            },
        };
        let traces = TraceCache::new();
        let runs = Scheduler::new(1).with_retries(1).run(
            &[("deadlock".to_string(), job)],
            &Progress::new(),
            |_key, job, ctx| job.run(&traces, &ctx.cancel),
        );
        assert_eq!(runs[0].attempts, 1);
        match &runs[0].status {
            JobStatus::Failed(err) => {
                assert!(err.message.contains("deadlock"), "{}", err.message);
                assert!(!err.transient);
                assert!(err.partial.is_some(), "partial metrics salvaged");
            }
            other => panic!("expected a failed job, got {other:?}"),
        }
    }
}
