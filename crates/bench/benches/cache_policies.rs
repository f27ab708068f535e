//! Micro-benchmarks of the cache core under each replacement policy:
//! lookup/fill throughput on a mixed hit/miss stream.

use atc_bench::Reporter;
use atc_cache::Cache;
use atc_core::PolicyChoice;
use atc_types::{AccessClass, AccessInfo, LineAddr};

fn drive(cache: &mut Cache, n: u64) -> u64 {
    let mut hits = 0;
    for i in 0..n {
        // 50% reuse of a hot window, 50% streaming.
        let line = if i.is_multiple_of(2) {
            i % 256
        } else {
            10_000 + i
        };
        let info = AccessInfo::demand(
            0x400 + (i % 16),
            LineAddr::new(line),
            AccessClass::NonReplayData,
        );
        match cache.lookup(&info, i) {
            Some(_) => hits += 1,
            None => {
                cache.insert_miss(&info, i + 40, i);
            }
        }
    }
    hits
}

fn main() {
    let mut reporter = Reporter::from_env();
    println!("cache_policy_access: 20k mixed accesses per iteration");
    for policy in [
        PolicyChoice::Lru,
        PolicyChoice::Srrip,
        PolicyChoice::Drrip,
        PolicyChoice::Ship,
        PolicyChoice::Hawkeye,
        PolicyChoice::TShip,
    ] {
        reporter.bench(&format!("policy/{}", policy.label()), 20, || {
            let mut cache = Cache::new("bench", 1024, 8, 10, 16, policy.build_impl(1024, 8))
                .expect("valid bench geometry");
            drive(&mut cache, 20_000)
        });
    }
    reporter.finish();
}
