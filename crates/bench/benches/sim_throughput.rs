//! End-to-end simulator throughput: instructions simulated per second
//! for the baseline, the fully-enhanced machine, and the baseline with
//! the telemetry layer attached (its overhead is the delta against the
//! plain baseline). This is the bench behind `BENCH_sim.json` (see
//! `ci.sh` and DESIGN.md).
//!
//! The baseline is measured twice: once through the default batched run
//! loop (`machine/baseline`, batch = [`DEFAULT_BATCH`]) and once at
//! batch size 1 (`machine/baseline@b1`), which drives every instruction
//! through the same step with no decode amortization. The pair is
//! the A/B evidence for the batched core: `check_bench_json` fails the
//! trajectory if the default batch ever drops well below the batch-1
//! reference.
//!
//! `machine/baseline+streaming` re-measures the plain baseline while a
//! sampler thread (the shape `atc_harness::Sampler` uses) drains a
//! shared counter into a checksummed `atc-telemetry-stream-v1` file at
//! a 10 ms cadence. The delta against `machine/baseline` is the
//! attached-streaming overhead; `check_bench_json` gates it.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use atc_bench::stream::{check_stream, epoch_line, final_line, header_line};
use atc_bench::Reporter;
use atc_core::Enhancement;
use atc_obs::{Registry, SnapshotStream};
use atc_sim::{Machine, SimConfig, TelemetryConfig, DEFAULT_BATCH};
use atc_workloads::{BenchmarkId, Scale};

const N: u64 = 50_000;

/// Build the one-counter registry the bench sampler snapshots.
fn bench_registry(instrs: u64) -> Registry {
    let mut r = Registry::new();
    let id = r.counter("bench.instrs");
    r.set(id, instrs);
    r
}

/// Sample `instrs` every 10 ms into an `atc-telemetry-stream-v1` file
/// until `stop`; close with the reconciling final line. Returns epochs.
fn stream_sampler(
    path: std::path::PathBuf,
    instrs: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<u64> {
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{}", header_line(10_000))?;
    let mut stream = SnapshotStream::new();
    let t0 = Instant::now();
    let t_us = |t0: &Instant| u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(10));
        let d = stream.next_delta(&bench_registry(instrs.load(Ordering::Relaxed)));
        writeln!(f, "{}", epoch_line(d.epoch, t_us(&t0), &d.counters))?;
    }
    let snap = bench_registry(instrs.load(Ordering::Relaxed));
    let d = stream.next_delta(&snap);
    writeln!(f, "{}", epoch_line(d.epoch, t_us(&t0), &d.counters))?;
    let counters: Vec<(&str, u64)> = snap.counters().iter().map(|&(n, v)| (n, v)).collect();
    writeln!(f, "{}", final_line(stream.epochs(), t_us(&t0), &counters))?;
    f.flush()?;
    Ok(stream.epochs())
}

fn main() {
    let mut reporter = Reporter::from_env();
    println!("sim_throughput: {N} measured instructions per iteration");
    for (label, e, telemetry, batch) in [
        ("baseline", Enhancement::Baseline, false, DEFAULT_BATCH),
        ("baseline@b1", Enhancement::Baseline, false, 1),
        ("full", Enhancement::Tempo, false, DEFAULT_BATCH),
        (
            "baseline+telemetry",
            Enhancement::Baseline,
            true,
            DEFAULT_BATCH,
        ),
    ] {
        reporter.bench_throughput(&format!("machine/{label}"), 10, N, || {
            let mut cfg = SimConfig::with_enhancement(e);
            cfg.machine.stlb.entries = 256; // Test-scale pressure
            if telemetry {
                cfg.probes.telemetry = Some(TelemetryConfig::default());
            }
            let mut wl = BenchmarkId::Mcf.build(Scale::Test, 3);
            let mut m = Machine::new(&cfg).expect("valid config");
            m.run_batched(wl.as_mut(), 5_000, N, batch)
                .expect("healthy run")
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
        atc_sim::run_multicore_lanes(&cfg, &mut wls, 5_000, N, 2).expect("healthy lanes")
    });
    // A/B for attached streaming: the same baseline workload while a
    // sampler thread writes delta epochs — the workers only touch one
    // relaxed atomic per iteration, so the delta should be noise.
    let instrs = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let path = std::env::temp_dir().join(format!("atc-bench-stream-{}.jsonl", std::process::id()));
    let sampler = {
        let (path, instrs, stop) = (path.clone(), Arc::clone(&instrs), Arc::clone(&stop));
        std::thread::spawn(move || stream_sampler(path, instrs, stop))
    };
    reporter.bench_throughput("machine/baseline+streaming", 10, N, || {
        let mut cfg = SimConfig::with_enhancement(Enhancement::Baseline);
        cfg.machine.stlb.entries = 256;
        let mut wl = BenchmarkId::Mcf.build(Scale::Test, 3);
        let mut m = Machine::new(&cfg).expect("valid config");
        let out = m
            .run_batched(wl.as_mut(), 5_000, N, DEFAULT_BATCH)
            .expect("healthy run");
        instrs.fetch_add(N, Ordering::Relaxed);
        out
    });
    stop.store(true, Ordering::Relaxed);
    let epochs = sampler
        .join()
        .expect("sampler thread")
        .expect("stream writes");
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
    if let (Some(batched), Some(b1)) = (rate("machine/baseline"), rate("machine/baseline@b1")) {
        println!(
            "batched core: {:+.1}% instructions/s vs batch-1 reference",
            (batched / b1 - 1.0) * 100.0
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
