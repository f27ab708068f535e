//! Telemetry study: run one workload with the telemetry layer attached
//! and print the paper-style observability tables — head-of-ROB stall
//! attribution (Fig 1), PTE-eviction sources at L2C/LLC (§III), and
//! walk / replay latency percentiles — then cross-check every telemetry
//! counter against the simulator's own `RunStats` and optionally write
//! the `atc-telemetry-v1` JSON document.
//!
//! ```text
//! cargo run --release --example telemetry_study -- \
//!     [--scale test|small] [--warmup N] [--measure N] [--json PATH]
//! ```
//!
//! Exits nonzero if any telemetry counter disagrees with `RunStats`,
//! or if the streaming delta epochs (prefix runs of the same workload
//! diffed with `Registry::delta_since`) fail to sum back to the final
//! cumulative snapshot: both sides are accumulated independently, so
//! agreement is a real end-to-end check, not a tautology.

use std::collections::HashMap;
use std::process::ExitCode;

use atc_bench::telemetry::telemetry_to_json;
use atc_obs::{Registry, TelemetrySnapshot};
use atc_sim::{run_one, SimConfig, TelemetryConfig};
use atc_stats::table::Table;
use atc_workloads::{BenchmarkId, Scale};

fn pct(num: u64, den: u64) -> String {
    if den == 0 {
        return "n/a".to_string();
    }
    format!("{:.1}%", num as f64 * 100.0 / den as f64)
}

fn main() -> ExitCode {
    let mut scale = Scale::Test;
    let mut warmup: u64 = 20_000;
    let mut measure: u64 = 120_000;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| panic!("{arg} needs a value"));
        match arg.as_str() {
            "--scale" => {
                scale = match val().as_str() {
                    "test" => Scale::Test,
                    "small" => Scale::Small,
                    other => panic!("unknown scale {other:?} (use test|small)"),
                }
            }
            "--warmup" => warmup = val().parse().expect("--warmup takes a number"),
            "--measure" => measure = val().parse().expect("--measure takes a number"),
            "--json" => json_path = Some(val()),
            other => panic!("unknown flag {other:?}"),
        }
    }

    // Small STLB so the Test-scale footprint still walks; telemetry
    // attached with dense span sampling for a short run.
    let bench = BenchmarkId::Canneal;
    let mut cfg = SimConfig::baseline();
    cfg.machine.stlb.entries = 256;
    cfg.probes.telemetry = Some(TelemetryConfig {
        span_sample_every: 32,
        span_capacity: 256,
    });

    println!("running {bench:?} for {measure} instructions with telemetry attached...\n");
    let s = match run_one(&cfg, bench, scale, 42, warmup, measure) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("telemetry_study: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let t = s.telemetry.as_ref().expect("telemetry was attached");
    let c = |name: &str| {
        t.counter(name)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };

    // --- Stall attribution (the Fig 1 story) ---
    let stalls = [
        ("translation (STLB walk)", c("stall.translation_cycles")),
        ("replay data", c("stall.replay_cycles")),
        ("regular data", c("stall.regular_cycles")),
        ("other", c("stall.other_cycles")),
    ];
    let total: u64 = stalls.iter().map(|&(_, v)| v).sum();
    let mut table = Table::new(&["stall cause", "cycles", "share"]);
    for (cause, cycles) in stalls {
        table.row(&[cause.to_string(), cycles.to_string(), pct(cycles, total)]);
    }
    println!(
        "head-of-ROB stall attribution ({} core cycles):",
        c("core.cycles")
    );
    println!("{}", table.render());

    // --- PTE evictions and who caused them (§III) ---
    let mut table = Table::new(&[
        "level",
        "PTE evictions",
        "dead",
        "by transl",
        "by replay",
        "by regular",
        "by prefetch",
    ]);
    for lvl in ["l2c", "llc"] {
        let total = c(&format!("{lvl}.pte_evict.total"));
        table.row(&[
            lvl.to_uppercase(),
            total.to_string(),
            pct(c(&format!("{lvl}.pte_evict.dead")), total),
            pct(c(&format!("{lvl}.pte_evicted_by.translation")), total),
            pct(c(&format!("{lvl}.pte_evicted_by.replay")), total),
            pct(c(&format!("{lvl}.pte_evicted_by.regular")), total),
            pct(c(&format!("{lvl}.pte_evicted_by.prefetch")), total),
        ]);
    }
    println!("PTE (translation-block) evictions:");
    println!("{}", table.render());

    // --- Latency distributions ---
    let mut table = Table::new(&["distribution", "count", "mean", "p50", "p95", "p99", "max"]);
    for name in ["walk.latency_cycles", "replay.latency_cycles"] {
        let h = t.histogram(name).expect("latency histogram present");
        table.row(&[
            name.to_string(),
            h.count().to_string(),
            format!("{:.1}", h.mean()),
            h.p50().to_string(),
            h.p95().to_string(),
            h.p99().to_string(),
            h.max().to_string(),
        ]);
    }
    println!("latency distributions (cycles):");
    println!("{}", table.render());
    println!(
        "span samples: {} walk, {} replay (1 in {}, {} dropped)\n",
        t.walk_spans.len(),
        t.replay_spans.len(),
        t.span_sample_every,
        t.spans_dropped
    );

    // --- Reconciliation: telemetry vs RunStats, exact ---
    let mut errors: Vec<String> = Vec::new();
    let mut checked = 0u32;
    let mut check = |what: &str, got: u64, want: u64| {
        checked += 1;
        if got != want {
            errors.push(format!("{what}: telemetry {got} != RunStats {want}"));
        }
    };
    check(
        "core.instructions",
        c("core.instructions"),
        s.core.instructions,
    );
    check("core.cycles", c("core.cycles"), s.core.cycles);
    check("walk.count", c("walk.count"), s.walks);
    for (i, lvl) in ["l1d", "l2c", "llc", "dram"].iter().enumerate() {
        check(
            &format!("walk.leaf_served.{lvl}"),
            c(&format!("walk.leaf_served.{lvl}")),
            s.service_translation[i],
        );
        check(
            &format!("replay.served.{lvl}"),
            c(&format!("replay.served.{lvl}")),
            s.service_replay[i],
        );
    }
    check(
        "replay.count",
        c("replay.count"),
        s.service_replay.iter().sum::<u64>(),
    );
    check(
        "stall.translation_cycles",
        c("stall.translation_cycles"),
        s.core.stalls.stlb_walk,
    );
    check(
        "stall.replay_cycles",
        c("stall.replay_cycles"),
        s.core.stalls.replay_data,
    );
    check(
        "stall.regular_cycles",
        c("stall.regular_cycles"),
        s.core.stalls.non_replay_data,
    );
    check("tlb.stlb.misses", c("tlb.stlb.misses"), s.stlb.misses);
    check("dram.requests", c("dram.requests"), s.dram.requests);
    check(
        "l2c.pte_evict.dead",
        c("l2c.pte_evict.dead"),
        s.l2c_pte_evictions.0,
    );
    check(
        "l2c.pte_evict.total",
        c("l2c.pte_evict.total"),
        s.l2c_pte_evictions.1,
    );
    check(
        "llc.pte_evict.dead",
        c("llc.pte_evict.dead"),
        s.llc_pte_evictions.0,
    );
    check(
        "llc.pte_evict.total",
        c("llc.pte_evict.total"),
        s.llc_pte_evictions.1,
    );
    for (lvl, cc) in [("l1d", &s.l1d), ("l2c", &s.l2c), ("llc", &s.llc)] {
        let misses = c(&format!("{lvl}.misses.translation"))
            + c(&format!("{lvl}.misses.replay"))
            + c(&format!("{lvl}.misses.regular"));
        check(&format!("{lvl} demand misses"), misses, cc.total_misses());
    }
    let wh = t.histogram("walk.latency_cycles").expect("walk histogram");
    check("walk latency samples", wh.count(), s.walks);

    if !errors.is_empty() {
        eprintln!("telemetry does NOT reconcile with RunStats:");
        for e in &errors {
            eprintln!("  {e}");
        }
        return ExitCode::FAILURE;
    }
    println!("telemetry reconciles exactly with RunStats ({checked} counters checked).");

    // --- Streaming deltas: replay the run as four cumulative epochs ---
    // Prefix runs (¼, ½, ¾ of the budget, same seed) give real
    // intermediate snapshots; the full run above is the last epoch.
    // With each epoch diffed against the one before it
    // (`Registry::delta_since`), the per-counter delta sums must
    // telescope back to the final cumulative snapshot exactly, or the
    // delta encoder lost or invented events.
    let registry_of = |snap: &TelemetrySnapshot| {
        let mut reg = Registry::new();
        for &(name, v) in &snap.counters {
            let id = reg.counter(name);
            reg.set(id, v);
        }
        reg
    };
    let mut prev = Registry::new();
    let mut epochs = 0;
    let mut sums: HashMap<&'static str, i64> = HashMap::new();
    let mut epoch = |snap: Registry| {
        for (name, d) in snap.delta_since(&prev) {
            *sums.entry(name).or_default() += d;
        }
        prev = snap;
        epochs += 1;
    };
    for k in 1..4u64 {
        let prefix = (measure * k / 4).max(1);
        let snap = match run_one(&cfg, bench, scale, 42, warmup, prefix) {
            Ok(ps) => ps.telemetry.expect("telemetry was attached"),
            Err(e) => {
                eprintln!("telemetry_study: prefix run ({prefix} instructions) failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        epoch(registry_of(&snap));
    }
    epoch(registry_of(t));
    println!("telemetry stream: {epochs} epoch(s) over {measure} instructions");
    let mut stream_errors: Vec<String> = Vec::new();
    for &(name, v) in &t.counters {
        let sum = sums.remove(name).unwrap_or(0);
        if sum != v as i64 {
            stream_errors.push(format!("{name}: delta sum {sum} != final {v}"));
        }
    }
    for (name, sum) in sums {
        if sum != 0 {
            stream_errors.push(format!(
                "{name}: deltas sum to {sum} but the counter is absent from the final snapshot"
            ));
        }
    }
    if !stream_errors.is_empty() {
        eprintln!("stream deltas do NOT sum back to the final snapshot:");
        for e in &stream_errors {
            eprintln!("  {e}");
        }
        return ExitCode::FAILURE;
    }
    println!(
        "stream deltas sum back to the final snapshot ({} counters).",
        t.counters.len()
    );

    if let Some(path) = json_path {
        let doc = telemetry_to_json(t);
        if let Err(e) = std::fs::write(&path, doc.render()) {
            eprintln!("telemetry_study: could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
