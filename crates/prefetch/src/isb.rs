//! ISB — Irregular Stream Buffer (Jain & Lin, MICRO 2013), simplified.
//!
//! ISB linearises an irregular physical miss stream into a *structural*
//! address space: consecutive misses from the same training stream are
//! given consecutive structural addresses (PS map: physical→structural;
//! SP map: structural→physical). On an access whose physical address has
//! a structural mapping, the prefetcher reads ahead `degree` structural
//! slots and issues the corresponding physical lines — reproducing a
//! previously observed traversal order, page boundaries notwithstanding.
//! This is why ISB is the one prior prefetcher that covers some replay
//! loads in the paper (§III).

use atc_types::{FastMap, LineAddr};

use crate::{Candidates, PrefetchContext, PrefetchRequest, Prefetcher};

/// Prefetch degree (structural read-ahead, within [`crate::MAX_DEGREE`]).
const DEGREE: u64 = 3;
/// Capacity of the PS/SP maps (on-chip metadata is finite; the real ISB
/// pages metadata to DRAM keyed by TLB residency).
const MAP_CAP: usize = 1 << 20;

/// The ISB temporal prefetcher.
#[derive(Debug)]
pub struct Isb {
    ps: FastMap<u64, u64>,
    sp: FastMap<u64, u64>,
    next_structural: u64,
    /// Last structural address assigned/observed per training stream
    /// (keyed by trigger IP, the stream predictor surrogate).
    stream_cursor: FastMap<u64, u64>,
}

impl Isb {
    /// Create an ISB prefetcher.
    pub fn new() -> Self {
        Isb {
            ps: FastMap::default(),
            sp: FastMap::default(),
            next_structural: 0,
            stream_cursor: FastMap::default(),
        }
    }

    fn assign(&mut self, phys: u64, structural: u64) {
        if self.ps.len() >= MAP_CAP {
            self.ps.clear();
            self.sp.clear();
            self.stream_cursor.clear();
        }
        self.ps.insert(phys, structural);
        self.sp.insert(structural, phys);
    }
}

impl Default for Isb {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for Isb {
    fn name(&self) -> &'static str {
        "ISB"
    }

    fn on_access(&mut self, ctx: &PrefetchContext) -> Candidates {
        let phys = ctx.line.raw();

        // --- Training: extend this stream's structural run. ---
        let structural = match self.ps.get(&phys) {
            Some(&s) => s,
            None => {
                // Append to the stream: place after the stream's cursor if
                // the next structural slot is free, else open a new run.
                let s = match self.stream_cursor.get(&ctx.ip) {
                    Some(&cursor) if !self.sp.contains_key(&(cursor + 1)) => cursor + 1,
                    _ => {
                        // New run: leave a gap so runs don't fuse.
                        let s = self.next_structural;
                        self.next_structural += 256;
                        s
                    }
                };
                self.assign(phys, s);
                s
            }
        };
        self.stream_cursor.insert(ctx.ip, structural);

        // --- Prediction: read ahead in structural space. ---
        (1..=DEGREE)
            .filter_map(|d| self.sp.get(&(structural + d)))
            .map(|&p| PrefetchRequest::Phys(LineAddr::new(p)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atc_types::VirtAddr;

    fn ctx(ip: u64, line: u64) -> PrefetchContext {
        PrefetchContext {
            ip,
            line: LineAddr::new(line),
            vaddr: VirtAddr::new(line << 6),
            hit: false,
        }
    }

    #[test]
    fn second_traversal_is_prefetched() {
        let mut p = Isb::new();
        // Irregular but repeatable sequence, far-apart pages.
        let seq = [100u64, 9000, 42, 77777, 1234, 500000];
        for &l in &seq {
            p.on_access(&ctx(5, l));
        }
        // Replay the sequence: at element 0 the prefetcher should emit
        // the following elements.
        let reqs = p.on_access(&ctx(5, seq[0]));
        let lines: Vec<u64> = reqs
            .iter()
            .map(|r| match r {
                PrefetchRequest::Phys(l) => l.raw(),
                _ => panic!("ISB is physical"),
            })
            .collect();
        assert_eq!(lines, vec![9000, 42, 77777]);
    }

    #[test]
    fn crosses_pages_freely() {
        let mut p = Isb::new();
        let seq = [64u64, 64 * 1000, 64 * 50_000];
        for &l in &seq {
            p.on_access(&ctx(1, l));
        }
        let reqs = p.on_access(&ctx(1, seq[0]));
        assert!(!reqs.is_empty());
        if let PrefetchRequest::Phys(l) = reqs[0] {
            assert_ne!(l.raw() / 64, seq[0] / 64, "must cross the page");
        }
    }

    #[test]
    fn independent_streams_do_not_interleave() {
        let mut p = Isb::new();
        // Two IPs with interleaved accesses.
        p.on_access(&ctx(1, 10));
        p.on_access(&ctx(2, 2000));
        p.on_access(&ctx(1, 20));
        p.on_access(&ctx(2, 3000));
        p.on_access(&ctx(1, 30));
        let reqs = p.on_access(&ctx(1, 10));
        let lines: Vec<u64> = reqs
            .iter()
            .filter_map(|r| match r {
                PrefetchRequest::Phys(l) => Some(l.raw()),
                _ => None,
            })
            .collect();
        assert_eq!(
            lines,
            vec![20, 30],
            "stream 1 replays without stream 2 lines"
        );
    }

    #[test]
    fn cold_stream_is_silent() {
        let mut p = Isb::new();
        assert!(p.on_access(&ctx(9, 777)).is_empty());
    }
}
