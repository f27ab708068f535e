//! Running an 8-core multi-programmed mix (the paper's §V multi-core
//! evaluation in miniature): private L1D/L2C/TLBs per core, a shared
//! 16 MiB LLC, and the enhancement ladder's effect on each core.
//!
//! ```text
//! cargo run --release --example multicore_mix
//! ```

use atc_core::Enhancement;
use atc_sim::{run_multicore, SimConfig};
use atc_stats::harmonic_speedup;
use atc_types::CancelToken;
use atc_workloads::{BenchmarkId, Scale, Workload};

fn main() {
    use BenchmarkId::*;
    let mix = [Pr, Xalancbmk, Cc, Canneal, Radii, Mcf, Bf, Tc];
    let (warmup, measure) = (20_000, 120_000);

    let run = |cfg: &SimConfig| {
        let mut wls: Vec<Box<dyn Workload>> = mix
            .iter()
            .enumerate()
            .map(|(i, b)| b.build(Scale::Small, i as u64 + 1))
            .collect();
        run_multicore(cfg, &mut wls, warmup, measure, &CancelToken::new())
            .expect("mix runs to completion")
    };

    println!("8-core heterogeneous mix, {measure} instructions per core\n");
    let base = run(&SimConfig::baseline());
    let enh = run(&SimConfig::with_enhancement(Enhancement::Tempo));

    println!(
        "{:<10} {:>12} {:>12} {:>9}",
        "core", "base IPC", "enh IPC", "speedup"
    );
    let mut speedups = Vec::new();
    for (i, b) in mix.iter().enumerate() {
        let s = base[i].cycles as f64 / enh[i].cycles as f64;
        speedups.push(s);
        println!(
            "{:<10} {:>12.3} {:>12.3} {:>9.3}",
            b.name(),
            base[i].ipc(),
            enh[i].ipc(),
            s
        );
    }
    println!(
        "\nharmonic speedup of the mix: {:.3}",
        harmonic_speedup(&speedups)
    );
}
