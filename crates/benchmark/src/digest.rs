//! Pinned correctness: digests of simulated results.
//!
//! A single-machine op is digested over a fixed projection of
//! [`RunStats`]; a catalog pass over its rendered tables. The projection
//! names every field it reads, so a field added to `RunStats` later does
//! not move the digest. `expected.json` pins the digests of the full
//! (non-`--quick`) workloads for a few seeds; other seeds, and quick
//! runs, are checked for run-to-run determinism only.

use std::fmt::Write as _;

use atc_bench::json;
use atc_harness::key_hash;
use atc_sim::RunStats;
use atc_stats::ClassCounters;
use atc_types::{AccessClass, PtLevel};

/// One class per `ClassCounters` slot (non-leaf translation levels share
/// a slot, so `Translation(L2)` stands for all of them).
const CLASSES: [AccessClass; AccessClass::STAT_CLASSES] = [
    AccessClass::NonReplayData,
    AccessClass::ReplayData,
    AccessClass::Translation(PtLevel::L1),
    AccessClass::Translation(PtLevel::L2),
    AccessClass::Store,
    AccessClass::Instruction,
];

/// The fixed projection of `s` that [`stats_digest`] hashes.
pub fn projection(s: &RunStats) -> String {
    let mut p = String::new();
    let c = &s.core;
    let st = &c.stalls;
    let _ = write!(
        p,
        "core {} {} stalls {} {} {} {}",
        c.instructions, c.cycles, st.stlb_walk, st.replay_data, st.non_replay_data, st.other
    );
    let levels: [(&str, &ClassCounters); 3] = [("l1d", &s.l1d), ("l2c", &s.l2c), ("llc", &s.llc)];
    for (name, counters) in levels {
        let _ = write!(p, "|{name}");
        for class in CLASSES {
            let _ = write!(p, " {}/{}", counters.accesses(class), counters.hits(class));
        }
    }
    let _ = write!(
        p,
        "|tlb {} {} {} {}|walks {} psc {} {}|dram {} {} {}",
        s.dtlb.hits,
        s.dtlb.misses,
        s.stlb.hits,
        s.stlb.misses,
        s.walks,
        s.psc.0,
        s.psc.1,
        s.dram.row_hits,
        s.dram.row_misses,
        s.dram.requests
    );
    let _ = write!(
        p,
        "|service {:?} {:?}|atp {} tempo {}",
        s.service_translation, s.service_replay, s.atp_issued, s.tempo_issued
    );
    for (a, b) in [
        s.llc_prefetch,
        s.l2c_prefetch,
        s.llc_replay_evictions,
        s.l2c_pte_evictions,
        s.llc_pte_evictions,
    ] {
        let _ = write!(p, "|{a} {b}");
    }
    p
}

/// FNV-1a digest of [`projection`].
pub fn stats_digest(s: &RunStats) -> u64 {
    key_hash(&projection(s))
}

/// FNV-1a digest of a catalog pass's rendered tables.
pub fn text_digest(rendered: &str) -> u64 {
    key_hash(rendered)
}

/// The digest `expected.json` pins for `workload` at `seed`, if any.
///
/// # Errors
///
/// A malformed `expected.json` (it is compiled into the binary, so this
/// is a build-time mistake surfaced at the first run).
pub fn pinned(workload: &str, seed: u64) -> Result<Option<u64>, String> {
    let doc =
        json::parse(include_str!("../expected.json")).map_err(|e| format!("expected.json: {e}"))?;
    let Some(hex) = doc
        .get("digests")
        .and_then(|d| d.get(&seed.to_string()))
        .and_then(|d| d.get(workload))
    else {
        return Ok(None);
    };
    let hex = hex
        .as_str()
        .and_then(|h| h.strip_prefix("0x"))
        .ok_or_else(|| format!("expected.json: {workload}@{seed} is not a 0x-prefixed string"))?;
    u64::from_str_radix(hex, 16)
        .map(Some)
        .map_err(|e| format!("expected.json: {workload}@{seed}: {e}"))
}
