//! Figure-regeneration benches: timed miniature versions of the paper's
//! key experiments (the Table II characterization, the Fig 14 ladder,
//! the Fig 4 policy sweep), so `cargo bench` demonstrates each
//! experiment kernel end to end; run the `suite` binary of
//! `atc-experiments` for full-budget reproductions.

use atc_bench::Reporter;
use atc_core::{Enhancement, PolicyChoice};
use atc_sim::{run_one, SimConfig};
use atc_workloads::{BenchmarkId, Scale};

const N: u64 = 30_000;

fn small(mut cfg: SimConfig) -> SimConfig {
    cfg.machine.stlb.entries = 256;
    cfg
}

fn main() {
    let mut reporter = Reporter::from_env();
    println!("fig_kernels: {N} measured instructions per iteration");
    reporter.bench("table2_characterize_mcf", 10, || {
        let cfg = small(SimConfig::baseline());
        run_one(&cfg, BenchmarkId::Mcf, Scale::Test, 42, 5_000, N).expect("healthy run")
    });

    for e in [
        Enhancement::Baseline,
        Enhancement::TShip,
        Enhancement::Tempo,
    ] {
        reporter.bench(&format!("fig14_ladder_pr/{}", e.label()), 10, || {
            let cfg = small(SimConfig::with_enhancement(e));
            run_one(&cfg, BenchmarkId::Pr, Scale::Test, 42, 5_000, N).expect("healthy run")
        });
    }

    for p in [PolicyChoice::Lru, PolicyChoice::Ship, PolicyChoice::Hawkeye] {
        reporter.bench(&format!("fig4_policy_canneal/{}", p.label()), 10, || {
            let mut cfg = small(SimConfig::baseline());
            cfg.llc_policy = p;
            run_one(&cfg, BenchmarkId::Canneal, Scale::Test, 42, 5_000, N).expect("healthy run")
        });
    }
    reporter.finish();
}
