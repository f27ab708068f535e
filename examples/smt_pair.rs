//! Running a 2-way SMT pair (Fig 17 in miniature): two threads share one
//! core's TLBs, caches and DRAM; the enhancements are evaluated with
//! harmonic speedup.
//!
//! ```text
//! cargo run --release --example smt_pair
//! ```

use atc_core::Enhancement;
use atc_sim::{run_smt, SimConfig};
use atc_stats::harmonic_speedup;
use atc_types::CancelToken;
use atc_workloads::{BenchmarkId, Scale};

fn main() {
    let (a, b) = (BenchmarkId::Pr, BenchmarkId::Cc);
    let (warmup, measure) = (50_000, 250_000);

    let run = |cfg: &SimConfig| {
        let mut w0 = a.build(Scale::Small, 1);
        let mut w1 = b.build(Scale::Small, 2);
        let cancel = CancelToken::new();
        run_smt(cfg, w0.as_mut(), w1.as_mut(), warmup, measure, &cancel)
            .expect("pair runs to completion")
    };

    let base = run(&SimConfig::baseline());
    let enh = run(&SimConfig::with_enhancement(Enhancement::Tempo));

    println!("SMT pair: {} + {}", a.name(), b.name());
    for (i, name) in [a.name(), b.name()].iter().enumerate() {
        println!(
            "thread {i} ({name:>3}): baseline IPC {:.3} -> enhanced IPC {:.3}",
            base.threads[i].ipc(),
            enh.threads[i].ipc()
        );
    }
    let speedups: Vec<f64> = (0..2)
        .map(|i| base.threads[i].cycles as f64 / enh.threads[i].cycles as f64)
        .collect();
    println!(
        "harmonic speedup of the enhancements: {:.3}",
        harmonic_speedup(&speedups)
    );
}
