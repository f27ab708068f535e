//! Partitioned-lane multicore smoke: a fixed four-lane mix through
//! [`run_multicore_lanes`], one `Machine` per lane, with `--jobs`
//! selecting the worker-thread count.
//!
//! The whole point of this binary is the determinism contract: lanes are
//! independent and the merge is lane-ordered, so stdout must be
//! **byte-identical** at every `--jobs` value. `ci.sh` runs it at
//! `--jobs 1` (the serial twin) and `--jobs 4` (concurrent lanes) and
//! diffs the two — any scheduling-dependent divergence in the lane
//! engine turns CI red.
//!
//! Shape checks (`--check`): every lane retires exactly the measured
//! instruction budget and reports a positive IPC.

use std::process::ExitCode;

use atc_experiments::{f3, Checks, Opts};
use atc_sim::{run_multicore_lanes, SimConfig};
use atc_stats::table::Table;
use atc_types::CancelToken;
use atc_workloads::{BenchmarkId, Workload};

/// The fixed lane mix: one Low, one Medium and two High STLB-MPKI
/// benchmarks, so the lanes exercise visibly different walk behaviour.
const LANES: [BenchmarkId; 4] = [
    BenchmarkId::Mcf,
    BenchmarkId::Pr,
    BenchmarkId::Xalancbmk,
    BenchmarkId::Canneal,
];

fn main() -> ExitCode {
    let opts = Opts::parse();
    // Four lanes: scale per-lane volume down as the other multi-core
    // figures do.
    let measure = (opts.measure / 4).max(50_000);
    let warmup = (opts.warmup / 4).max(10_000);
    let jobs = if opts.jobs > 0 { opts.jobs } else { 1 };

    let mut wls: Vec<Box<dyn Workload>> = LANES
        .iter()
        .enumerate()
        .map(|(i, b)| b.build(opts.scale, opts.seed + i as u64))
        .collect();
    let cfg = SimConfig::baseline();
    let cancel = CancelToken::new();
    let stats = match run_multicore_lanes(&cfg, &mut wls, warmup, measure, jobs, &cancel) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lane mix failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut table = Table::new(&["lane", "bench", "instructions", "cycles", "ipc"]);
    for (i, (bench, s)) in LANES.iter().zip(&stats).enumerate() {
        table.row(&[
            i.to_string(),
            bench.name().to_string(),
            s.instructions.to_string(),
            s.cycles.to_string(),
            f3(s.ipc()),
        ]);
    }
    opts.emit(
        "partitioned-lane multicore: per-lane stats (jobs-invariant)",
        &table,
    );

    if !opts.check {
        return ExitCode::SUCCESS;
    }
    let mut checks = Checks::new();
    for (bench, s) in LANES.iter().zip(&stats) {
        checks.claim(
            s.instructions == measure,
            &format!("{} retires the measured budget", bench.name()),
        );
        checks.claim(s.ipc() > 0.0, &format!("{} ipc > 0", bench.name()));
    }
    checks.finish()
}
