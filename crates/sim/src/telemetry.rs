//! Simulator-side telemetry: what to count, when to sample, and how to
//! snapshot.
//!
//! [`SimTelemetry`] owns an `atc-obs` [`Registry`] and [`SpanTracer`]
//! and is attached per core via `Probes::telemetry`. The division of
//! labour:
//!
//! * **Hot path** (`on_walk_complete`, `on_replay_fill`,
//!   `on_demand_access`): the walk and replay latency histograms and
//!   span sampling, through pre-registered handles and a fixed-capacity
//!   open-span table — no allocation, no name lookups. When no telemetry
//!   is attached the simulator skips these calls entirely
//!   (`Option::is_none`), so the detached cost is one branch.
//! * **Snapshot time** (`ingest`, `snapshot`): every counter is copied
//!   in by name once per run, from [`RunStats`] (walks and replays by
//!   serving level, stall attribution, TLB/PSC/DRAM statistics) and from
//!   the caches' own per-class counters. Nothing the run already counts
//!   is counted a second time here.
//!
//! Span sampling is 1-in-N (`TelemetryConfig::span_sample_every`): every
//! walk and replay feeds its latency histogram, but only each Nth is
//! traced as a span, bounding both ring-buffer churn and open-replay
//! tracking.

use atc_cache::Cache;
use atc_obs::{
    HistId, Registry, ReplayOutcome, ReplaySpan, SpanTracer, TelemetrySnapshot, WalkHop, WalkSpan,
    MAX_WALK_HOPS,
};
use atc_types::{AccessClass, MemLevel, PtLevel};

use crate::machine::RunStats;

/// Telemetry probe configuration (`Probes::telemetry`).
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Trace every Nth walk / replay as a span (≥ 1; 1 = every event).
    pub span_sample_every: u64,
    /// Ring-buffer capacity per span kind.
    pub span_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            span_sample_every: 64,
            span_capacity: 256,
        }
    }
}

/// Open replay samples tracked at once; the oldest retires as
/// [`ReplayOutcome::Open`] when a new sample would exceed this.
const OPEN_CAP: usize = 16;

/// `[concat!(prefix, key), ..]`: one `&'static str` counter name per key.
macro_rules! names {
    ($prefix:expr, [$($key:literal),* $(,)?]) => {
        [$(concat!($prefix, $key)),*]
    };
}

/// Per-serving-level counter names, indexed by [`MemLevel::index`].
const WALK_LEAF_SERVED: [&str; 4] = names!("walk.leaf_served.", ["l1d", "l2c", "llc", "dram"]);
const REPLAY_SERVED: [&str; 4] = names!("replay.served.", ["l1d", "l2c", "llc", "dram"]);

/// Snapshot-time counter names for the cache level `$lvl`, in the order
/// [`SimTelemetry::ingest_cache`] yields their values. Groups follow the
/// paper's taxonomy: translation = PTE reads at any level, replay =
/// replay loads, regular = everything else demand, prefetch separate.
macro_rules! cache_names {
    ($lvl:literal) => {
        names!(
            concat!($lvl, "."),
            [
                "hits.translation",
                "hits.replay",
                "hits.regular",
                "misses.translation",
                "misses.replay",
                "misses.regular",
                "fills.translation",
                "fills.replay",
                "fills.regular",
                "fills.prefetch",
                "evict.dead",
                "evict.total",
                "pte_evict.dead",
                "pte_evict.total",
                "pte_evicted_by.translation",
                "pte_evicted_by.replay",
                "pte_evicted_by.regular",
                "pte_evicted_by.prefetch",
            ]
        )
    };
}

/// Per-core telemetry state (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct SimTelemetry {
    reg: Registry,
    tracer: SpanTracer,
    sample_every: u64,
    walk_seq: u64,
    replay_seq: u64,
    open: Vec<ReplaySpan>,
    walk_latency: HistId,
    replay_latency: HistId,
}

impl SimTelemetry {
    pub(crate) fn new(cfg: &TelemetryConfig) -> Self {
        let mut reg = Registry::new();
        // Registered first so the walk and replay counters lead the
        // snapshot; `ingest` sets them from `RunStats`.
        for name in ["walk.count"]
            .into_iter()
            .chain(WALK_LEAF_SERVED)
            .chain(["replay.count"])
            .chain(REPLAY_SERVED)
        {
            reg.counter(name);
        }
        SimTelemetry {
            walk_latency: reg.histogram("walk.latency_cycles"),
            replay_latency: reg.histogram("replay.latency_cycles"),
            reg,
            tracer: SpanTracer::new(cfg.span_capacity),
            sample_every: cfg.span_sample_every.max(1),
            walk_seq: 0,
            replay_seq: 0,
            open: Vec::with_capacity(OPEN_CAP),
        }
    }

    /// A page walk finished: `hops` holds one entry per PTE read, leaf
    /// last.
    pub(crate) fn on_walk_complete(&mut self, start: u64, end: u64, hops: &[WalkHop]) {
        self.reg
            .observe(self.walk_latency, end.saturating_sub(start));
        self.walk_seq += 1;
        if self.walk_seq.is_multiple_of(self.sample_every) {
            let n = hops.len().min(MAX_WALK_HOPS);
            let mut padded = [WalkHop::PAD; MAX_WALK_HOPS];
            padded[..n].copy_from_slice(&hops[..n]);
            self.tracer.walk_span(&WalkSpan {
                start,
                end,
                hops: padded,
                hop_count: n as u8,
            });
        }
    }

    /// A demand data access completed: closes the open replay span for
    /// `line`, if one is being traced. A re-access served on-chip is a
    /// reuse; one that had to go back to DRAM means the replayed block
    /// was evicted before reuse — it died.
    #[inline]
    pub(crate) fn on_demand_access(&mut self, line: u64, cycle: u64, served: MemLevel) {
        if self.open.is_empty() {
            return;
        }
        if let Some(pos) = self.open.iter().position(|s| s.line == line) {
            let mut span = self.open.swap_remove(pos);
            span.outcome = if served == MemLevel::Dram {
                ReplayOutcome::Dead
            } else {
                ReplayOutcome::Reused
            };
            // An access that merged into the still-outstanding replay
            // miss reports a completion before the fill; the reuse
            // really happens at fill time, so clamp.
            span.outcome_cycle = cycle.max(span.fill_done);
            self.tracer.replay_span(&span);
        }
    }

    /// A replay load's data arrived. Call *after*
    /// [`on_demand_access`](Self::on_demand_access) for the same access,
    /// so a replay of an already-traced line closes the old span first.
    pub(crate) fn on_replay_fill(
        &mut self,
        line: u64,
        walk_done: u64,
        fill_done: u64,
        served: MemLevel,
    ) {
        self.reg
            .observe(self.replay_latency, fill_done.saturating_sub(walk_done));
        self.replay_seq += 1;
        if self.replay_seq.is_multiple_of(self.sample_every) {
            if self.open.len() == OPEN_CAP {
                let oldest = self.open.remove(0);
                self.tracer.replay_span(&oldest);
            }
            self.open.push(ReplaySpan {
                line,
                walk_done,
                fill_done,
                served,
                outcome: ReplayOutcome::Open,
                outcome_cycle: fill_done,
            });
        }
    }

    /// Zero all telemetry at the warmup boundary.
    pub(crate) fn reset(&mut self) {
        self.reg.reset();
        self.tracer.clear();
        self.open.clear();
        self.walk_seq = 0;
        self.replay_seq = 0;
    }

    fn set(&mut self, name: &'static str, v: u64) {
        let id = self.reg.counter(name);
        self.reg.set(id, v);
    }

    /// Copy `c`'s per-class counters in under `names` (a
    /// [`cache_names!`] list).
    fn ingest_cache(&mut self, names: &[&'static str; 18], c: &Cache) {
        let s = c.stats();
        let (fills, by) = (c.fills_by_class(), c.translation_evicted_by());
        // Sum a per-class value over the taxonomy's three demand groups.
        let groups = |f: &dyn Fn(AccessClass) -> u64| {
            let regular = [
                AccessClass::NonReplayData,
                AccessClass::Store,
                AccessClass::Instruction,
            ];
            [
                f(AccessClass::Translation(PtLevel::L1)) + f(AccessClass::Translation(PtLevel::L2)),
                f(AccessClass::ReplayData),
                regular.into_iter().map(f).sum(),
            ]
        };
        let (dead, total) = c.eviction_stats();
        let (pte_dead, pte_total) = c.pte_eviction_stats();
        let values = groups(&|cl| s.hits(cl))
            .into_iter()
            .chain(groups(&|cl| s.misses(cl)))
            .chain(groups(&|cl| fills[cl.stat_index()]))
            .chain([c.prefetch_stats().0, dead, total, pte_dead, pte_total])
            .chain(groups(&|cl| by[cl.stat_index()]))
            .chain([by[Cache::PREFETCH_EVICTOR]]);
        for (name, v) in names.iter().zip(values) {
            self.set(name, v);
        }
    }

    /// Copy the run's statistics into the registry. Called once, from
    /// `Machine::collect`.
    pub(crate) fn ingest(&mut self, s: &RunStats, l1d: &Cache, l2c: &Cache, llc: &Cache) {
        self.set("walk.count", s.walks);
        for (name, v) in WALK_LEAF_SERVED.into_iter().zip(s.service_translation) {
            self.set(name, v);
        }
        self.set("replay.count", s.service_replay.iter().sum());
        for (name, v) in REPLAY_SERVED.into_iter().zip(s.service_replay) {
            self.set(name, v);
        }
        let core = &s.core;
        self.set("core.instructions", core.instructions);
        self.set("core.cycles", core.cycles);
        self.set("stall.translation_cycles", core.stalls.stlb_walk);
        self.set("stall.replay_cycles", core.stalls.replay_data);
        self.set("stall.regular_cycles", core.stalls.non_replay_data);
        self.set("stall.other_cycles", core.stalls.other);
        self.ingest_cache(&cache_names!("l1d"), l1d);
        self.ingest_cache(&cache_names!("l2c"), l2c);
        self.ingest_cache(&cache_names!("llc"), llc);
        self.set("tlb.dtlb.hits", s.dtlb.hits);
        self.set("tlb.dtlb.misses", s.dtlb.misses);
        self.set("tlb.stlb.hits", s.stlb.hits);
        self.set("tlb.stlb.misses", s.stlb.misses);
        self.set("psc.hits", s.psc.0);
        self.set("psc.misses", s.psc.1);
        self.set("dram.requests", s.dram.requests);
        self.set("dram.row_hits", s.dram.row_hits);
        self.set("dram.row_misses", s.dram.row_misses);
    }

    /// Close out open replay samples (`resident` says whether a line is
    /// still cached anywhere: gone and unreused means it died) and copy
    /// everything into an owned snapshot.
    pub(crate) fn snapshot(
        &mut self,
        resident: impl Fn(u64) -> bool,
        now: u64,
    ) -> TelemetrySnapshot {
        while let Some(mut span) = self.open.pop() {
            span.outcome = if resident(span.line) {
                ReplayOutcome::Open
            } else {
                ReplayOutcome::Dead
            };
            // `now` is the measured-phase cycle count; span timestamps
            // are absolute core time, so clamp to keep close ≥ fill.
            span.outcome_cycle = now.max(span.fill_done);
            self.tracer.replay_span(&span);
        }
        TelemetrySnapshot {
            counters: self.reg.counters().to_vec(),
            histograms: self.reg.histograms().to_vec(),
            span_sample_every: self.sample_every,
            walk_spans: self.tracer.walk_spans(),
            replay_spans: self.tracer.replay_spans(),
            spans_dropped: self.tracer.dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn telem(sample_every: u64) -> SimTelemetry {
        SimTelemetry::new(&TelemetryConfig {
            span_sample_every: sample_every,
            span_capacity: 16,
        })
    }

    fn hop(served: MemLevel) -> WalkHop {
        WalkHop {
            level: PtLevel::L1,
            served,
            latency: 20,
        }
    }

    #[test]
    fn walks_counted_always_sampled_one_in_n() {
        let mut t = telem(4);
        for i in 0..8u64 {
            t.on_walk_complete(i * 100, i * 100 + 30, &[hop(MemLevel::L2c)]);
        }
        assert_eq!(
            t.reg
                .histogram_by_name("walk.latency_cycles")
                .unwrap()
                .count(),
            8
        );
        let snap = t.snapshot(|_| true, 1_000);
        assert_eq!(snap.walk_spans.len(), 2, "every 4th walk is traced");
    }

    #[test]
    fn replay_reuse_closes_span_as_reused() {
        let mut t = telem(1);
        t.on_replay_fill(0x40, 100, 150, MemLevel::Dram);
        // A later demand access served on-chip: reuse.
        t.on_demand_access(0x40, 300, MemLevel::L1d);
        let snap = t.snapshot(|_| true, 1_000);
        assert_eq!(snap.replay_spans.len(), 1);
        let s = snap.replay_spans[0];
        assert_eq!(s.outcome, ReplayOutcome::Reused);
        assert_eq!(s.outcome_cycle, 300);
        assert_eq!(snap.histogram("replay.latency_cycles").unwrap().count(), 1);
    }

    #[test]
    fn replay_refetched_from_dram_is_dead() {
        let mut t = telem(1);
        t.on_replay_fill(0x40, 100, 150, MemLevel::Llc);
        t.on_demand_access(0x40, 900, MemLevel::Dram);
        let snap = t.snapshot(|_| true, 1_000);
        assert_eq!(snap.replay_spans[0].outcome, ReplayOutcome::Dead);
    }

    #[test]
    fn snapshot_flushes_open_spans_by_residency() {
        let mut t = telem(1);
        t.on_replay_fill(0x40, 100, 150, MemLevel::Dram);
        t.on_replay_fill(0x80, 200, 260, MemLevel::Dram);
        // 0x40 still resident (open), 0x80 evicted unreused (dead).
        let snap = t.snapshot(|line| line == 0x40, 5_000);
        let outcome = |line: u64| {
            snap.replay_spans
                .iter()
                .find(|s| s.line == line)
                .unwrap()
                .outcome
        };
        assert_eq!(outcome(0x40), ReplayOutcome::Open);
        assert_eq!(outcome(0x80), ReplayOutcome::Dead);
    }

    #[test]
    fn unsampled_replays_still_count_but_do_not_trace() {
        let mut t = telem(1_000_000);
        t.on_replay_fill(0x40, 100, 150, MemLevel::Dram);
        t.on_demand_access(0x40, 300, MemLevel::L1d);
        let snap = t.snapshot(|_| true, 1_000);
        assert_eq!(snap.histogram("replay.latency_cycles").unwrap().count(), 1);
        assert!(snap.replay_spans.is_empty());
    }

    #[test]
    fn open_table_overflow_retires_oldest_as_open() {
        let mut t = telem(1);
        for i in 0..(OPEN_CAP as u64 + 3) {
            t.on_replay_fill(0x1000 + i * 0x40, i, i + 50, MemLevel::Dram);
        }
        // Three spans were forced out while still open.
        let forced: Vec<_> = t.tracer.replay_spans();
        assert_eq!(forced.len(), 3);
        assert!(forced.iter().all(|s| s.outcome == ReplayOutcome::Open));
    }

    #[test]
    fn reset_zeroes_counters_and_spans() {
        let mut t = telem(1);
        t.on_walk_complete(0, 40, &[hop(MemLevel::Dram)]);
        t.on_replay_fill(0x40, 0, 60, MemLevel::Dram);
        t.reset();
        let snap = t.snapshot(|_| true, 0);
        assert_eq!(snap.histogram("walk.latency_cycles").unwrap().count(), 0);
        assert_eq!(snap.histogram("replay.latency_cycles").unwrap().count(), 0);
        assert!(snap.walk_spans.is_empty() && snap.replay_spans.is_empty());
    }
}
