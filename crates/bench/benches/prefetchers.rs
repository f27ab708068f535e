//! Micro-benchmarks of prefetcher training/prediction throughput on a
//! mixed sequential + irregular access stream: one `prefetch/<label>`
//! entry per prefetcher, 20k `on_access` calls per iteration.
//!
//! ```text
//! cargo bench -p atc-bench --bench prefetchers -- --samples 3 --append --json BENCH_sim.json
//! ```

use atc_bench::Reporter;
use atc_prefetch::{PrefetchContext, PrefetcherKind};
use atc_types::{LineAddr, VirtAddr};

fn stream(i: u64) -> PrefetchContext {
    // Alternate a dense run with pseudo-random jumps.
    let line = if i % 4 != 3 {
        1000 + i
    } else {
        (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % (1 << 24)
    };
    PrefetchContext {
        ip: 0x400 + (i % 8),
        line: LineAddr::new(line),
        vaddr: VirtAddr::new(line << 6),
        hit: i.is_multiple_of(2),
    }
}

fn main() {
    let mut reporter = Reporter::from_env();
    println!("prefetcher_on_access: 20k accesses per iteration");
    for kind in [
        PrefetcherKind::NextLine,
        PrefetcherKind::Ipcp,
        PrefetcherKind::Spp,
        PrefetcherKind::Bingo,
        PrefetcherKind::Isb,
    ] {
        reporter.bench(&format!("prefetch/{}", kind.label()), 20, || {
            let mut pf = kind.build().expect("buildable");
            let mut emitted = 0usize;
            for i in 0..20_000u64 {
                emitted += pf.on_access(&stream(i)).len();
            }
            emitted
        });
    }
    reporter.finish();
}
