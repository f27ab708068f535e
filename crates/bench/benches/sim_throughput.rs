//! End-to-end simulator throughput: instructions simulated per second
//! for the baseline, the fully-enhanced machine, and the baseline with
//! the telemetry layer attached (its overhead is the delta against the
//! plain baseline). This is the bench behind `BENCH_sim.json` (see
//! `ci.sh` and DESIGN.md).
//!
//! `machine/baseline+streaming` re-measures the plain baseline while
//! the suite's sampler thread (`atc_bench::stream::Sampler`) drains a
//! shared counter into a checksummed `atc-telemetry-stream-v1` file at
//! a 10 ms cadence. The delta against `machine/baseline` is the
//! attached-streaming overhead; `check_bench_json` gates it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use atc_bench::stream::{check_stream, Sampler, StreamOptions};
use atc_bench::Reporter;
use atc_core::Enhancement;
use atc_obs::Registry;
use atc_sim::{Machine, SimConfig, TelemetryConfig};
use atc_workloads::{BenchmarkId, Scale};

const N: u64 = 50_000;

/// Build the one-counter registry the bench sampler snapshots.
fn bench_registry(instrs: u64) -> Registry {
    let mut r = Registry::new();
    let id = r.counter("bench.instrs");
    r.set(id, instrs);
    r
}

fn main() {
    let mut reporter = Reporter::from_env();
    println!("sim_throughput: {N} measured instructions per iteration");
    for (label, e, telemetry) in [
        ("baseline", Enhancement::Baseline, false),
        ("full", Enhancement::Tempo, false),
        ("baseline+telemetry", Enhancement::Baseline, true),
    ] {
        reporter.bench_throughput(&format!("machine/{label}"), 10, N, || {
            let mut cfg = SimConfig::with_enhancement(e);
            cfg.machine.stlb.entries = 256; // Test-scale pressure
            if telemetry {
                cfg.probes.telemetry = Some(TelemetryConfig::default());
            }
            let mut wl = BenchmarkId::Mcf.build(Scale::Test, 3);
            let mut m = Machine::new(&cfg).expect("valid config");
            m.run(wl.as_mut(), 5_000, N).expect("healthy run")
        });
    }
    // Two concurrent lanes through the partitioned-lane engine, 2 × N
    // instructions per iteration. On a single hardware thread this runs
    // at roughly per-lane speed (the lanes time-slice); with real cores
    // the wall clock approaches the slower lane alone. Either way the
    // stats are byte-identical to the serial twin — see lane_mix and
    // the ci.sh determinism diff.
    reporter.bench_throughput("machine/multicore_w2", 10, 2 * N, || {
        let mut cfg = SimConfig::with_enhancement(Enhancement::Baseline);
        cfg.machine.stlb.entries = 256;
        let mut wls: Vec<Box<dyn atc_workloads::Workload>> = vec![
            BenchmarkId::Mcf.build(Scale::Test, 3),
            BenchmarkId::Xalancbmk.build(Scale::Test, 4),
        ];
        let cancel = atc_types::CancelToken::new();
        atc_sim::run_multicore_lanes(&cfg, &mut wls, 5_000, N, 2, &cancel).expect("healthy lanes")
    });
    // A/B for attached streaming: the same baseline workload while a
    // sampler thread writes delta epochs — the workers only touch one
    // relaxed atomic per iteration, so the delta should be noise.
    let instrs = Arc::new(AtomicU64::new(0));
    let path = std::env::temp_dir().join(format!("atc-bench-stream-{}.jsonl", std::process::id()));
    let sampler = {
        let instrs = Arc::clone(&instrs);
        let opts = StreamOptions {
            cadence: Duration::from_millis(10),
            telemetry_path: Some(path.clone()),
        };
        Sampler::start(move || bench_registry(instrs.load(Ordering::Relaxed)), opts)
            .expect("sampler starts")
    };
    reporter.bench_throughput("machine/baseline+streaming", 10, N, || {
        let mut cfg = SimConfig::with_enhancement(Enhancement::Baseline);
        cfg.machine.stlb.entries = 256;
        let mut wl = BenchmarkId::Mcf.build(Scale::Test, 3);
        let mut m = Machine::new(&cfg).expect("valid config");
        let out = m.run(wl.as_mut(), 5_000, N).expect("healthy run");
        instrs.fetch_add(N, Ordering::Relaxed);
        out
    });
    let epochs = sampler.stop().expect("stream writes");
    let text = std::fs::read_to_string(&path).expect("stream readable");
    let report = check_stream(&text, 1).expect("stream reconciles");
    println!("streaming sampler: {epochs} epoch(s), {report}");
    std::fs::remove_file(&path).ok();

    let rate = |name: &str| {
        reporter
            .results()
            .iter()
            .find(|r| r.name == name)
            .and_then(|r| r.elems_per_sec())
    };
    if let (Some(plain), Some(telem)) =
        (rate("machine/baseline"), rate("machine/baseline+telemetry"))
    {
        println!(
            "telemetry overhead: {:+.1}% instructions/s vs detached baseline",
            (plain / telem - 1.0) * 100.0
        );
    }
    if let (Some(plain), Some(streaming)) =
        (rate("machine/baseline"), rate("machine/baseline+streaming"))
    {
        println!(
            "streaming overhead: {:+.1}% instructions/s vs detached baseline",
            (plain / streaming - 1.0) * 100.0
        );
    }
    reporter.finish();
}
