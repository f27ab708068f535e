//! End-to-end simulator throughput: instructions simulated per second
//! for the baseline, the fully-enhanced machine, the baseline with the
//! telemetry layer attached (its overhead is the delta against the
//! plain baseline), and the shared 8-core multicore. This is the bench
//! behind `BENCH_sim.json` (see `ci.sh` and DESIGN.md).
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
use atc_sim::{run_multicore, Machine, SimConfig, TelemetryConfig};
use atc_types::CancelToken;
use atc_workloads::{BenchmarkId, Scale, Workload};

const N: u64 = 50_000;

/// The 8-core "mixed-all" mix of the suite's multicore sweep.
const MULTICORE8: [BenchmarkId; 8] = [
    BenchmarkId::Xalancbmk,
    BenchmarkId::Tc,
    BenchmarkId::Canneal,
    BenchmarkId::Mis,
    BenchmarkId::Mcf,
    BenchmarkId::Bf,
    BenchmarkId::Radii,
    BenchmarkId::Pr,
];

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
    // The shared 8-core engine behind the paper's multicore figure: the
    // "mixed-all" mix, one core per benchmark, sharing one LLC and the
    // DRAM channels; elems counts every core's measured instructions.
    reporter.bench_throughput(
        "machine/multicore8",
        10,
        MULTICORE8.len() as u64 * N,
        || {
            let mut cfg = SimConfig::with_enhancement(Enhancement::Baseline);
            cfg.machine.stlb.entries = 256;
            let mut wls: Vec<Box<dyn Workload>> = MULTICORE8
                .iter()
                .zip(1..)
                .map(|(b, seed)| b.build(Scale::Test, seed))
                .collect();
            run_multicore(&cfg, &mut wls, 5_000, N, &CancelToken::new()).expect("healthy run")
        },
    );
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

    // Best-case rates (elems / min_ns), as check_bench_json's gates
    // compare: with few samples a median is one noisy sample.
    let best_rate = |name: &str| {
        let r = reporter.results().iter().find(|r| r.name == name)?;
        let elems = r.elems?;
        (r.min_ns > 0).then(|| elems as f64 * 1e9 / r.min_ns as f64)
    };
    let plain = best_rate("machine/baseline");
    for (label, name) in [
        ("telemetry", "machine/baseline+telemetry"),
        ("streaming", "machine/baseline+streaming"),
    ] {
        if let (Some(plain), Some(attached)) = (plain, best_rate(name)) {
            println!(
                "{label} overhead: {:+.1}% best-case instructions/s vs detached baseline",
                (plain / attached - 1.0) * 100.0
            );
        }
    }
    reporter.finish();
}
