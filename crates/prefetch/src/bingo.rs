//! Bingo spatial prefetcher (Bakhshalipour et al., HPCA 2019),
//! simplified.
//!
//! Bingo records the *footprint* (bit-vector of touched lines) of each
//! 4 KiB region and associates it with the long "PC+Address" and short
//! "PC+Offset" events of the region's trigger access. When a region is
//! re-entered, the stored footprint is prefetched — long event preferred,
//! short event as fallback. Prefetches never leave the trigger region
//! (page), the limitation Fig 8 exploits. A footprint wider than
//! [`MAX_DEGREE`](crate::MAX_DEGREE) yields its lowest lines: the
//! candidates are emitted in ascending line order and the list stops
//! when it is full.

use atc_types::{FastMap, LineAddr};

use crate::{Candidates, PrefetchContext, PrefetchRequest, Prefetcher};

/// Lines per 4 KiB region.
const REGION_LINES: u64 = 64;
/// Active (accumulating) regions tracked at once.
const ACTIVE_CAP: usize = 128;
/// Stored footprints per event table.
const HISTORY_CAP: usize = 8192;

#[derive(Debug, Clone)]
struct ActiveRegion {
    trigger_ip: u64,
    trigger_offset: u8,
    footprint: u64, // bit per line
    lru: u64,
}

/// The Bingo prefetcher.
#[derive(Debug)]
pub struct Bingo {
    active: FastMap<u64, ActiveRegion>,
    /// Long event: (ip, region) → footprint.
    by_ip_addr: FastMap<(u64, u64), u64>,
    /// Short event: (ip, offset) → footprint.
    by_ip_offset: FastMap<(u64, u8), u64>,
    clock: u64,
}

impl Bingo {
    /// Create a Bingo prefetcher.
    pub fn new() -> Self {
        Bingo {
            active: FastMap::default(),
            by_ip_addr: FastMap::default(),
            by_ip_offset: FastMap::default(),
            clock: 0,
        }
    }

    fn retire_region(&mut self, region: u64, r: ActiveRegion) {
        if self.by_ip_addr.len() >= HISTORY_CAP {
            self.by_ip_addr.clear();
        }
        if self.by_ip_offset.len() >= HISTORY_CAP {
            self.by_ip_offset.clear();
        }
        self.by_ip_addr.insert((r.trigger_ip, region), r.footprint);
        self.by_ip_offset
            .insert((r.trigger_ip, r.trigger_offset), r.footprint);
    }
}

impl Default for Bingo {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for Bingo {
    fn name(&self) -> &'static str {
        "Bingo"
    }

    fn on_access(&mut self, ctx: &PrefetchContext) -> Candidates {
        self.clock += 1;
        let region = ctx.line.raw() / REGION_LINES;
        let offset = (ctx.line.raw() % REGION_LINES) as u8;

        if let Some(r) = self.active.get_mut(&region) {
            // Accumulate the footprint; no new prediction mid-region.
            r.footprint |= 1 << offset;
            r.lru = self.clock;
            return Candidates::new();
        }

        // Region (re-)entered: evict the oldest active region if full
        // (`lru` is a unique clock value, so the minimum is unique and
        // independent of the map's iteration order).
        if self.active.len() >= ACTIVE_CAP {
            let (&oldest, _) = self
                .active
                .iter()
                .min_by_key(|(_, r)| r.lru)
                .expect("non-empty");
            let r = self.active.remove(&oldest).expect("present");
            self.retire_region(oldest, r);
        }
        self.active.insert(
            region,
            ActiveRegion {
                trigger_ip: ctx.ip,
                trigger_offset: offset,
                footprint: 1 << offset,
                lru: self.clock,
            },
        );

        // Predict from history: long event first, then short.
        let footprint = self
            .by_ip_addr
            .get(&(ctx.ip, region))
            .or_else(|| self.by_ip_offset.get(&(ctx.ip, offset)))
            .copied()
            .unwrap_or(0);
        // Every recorded line but the trigger, lowest first.
        let mut rest = footprint & !(1 << offset);
        let mut out = Candidates::new();
        while rest != 0 && !out.is_full() {
            let bit = rest.trailing_zeros() as u64;
            out.push(PrefetchRequest::Phys(LineAddr::new(
                region * REGION_LINES + bit,
            )));
            rest &= rest - 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_DEGREE;
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
    fn replays_recorded_footprint_on_reentry() {
        let mut b = Bingo::new();
        // Visit region 2 touching offsets 0, 3, 7.
        b.on_access(&ctx(42, 128));
        b.on_access(&ctx(42, 131));
        b.on_access(&ctx(42, 135));
        // Force region retirement by flooding with other regions.
        for i in 0..200u64 {
            b.on_access(&ctx(1, (10 + i) * 64));
        }
        // Re-enter region 2 with the same trigger.
        let reqs = b.on_access(&ctx(42, 128));
        let lines: Vec<u64> = reqs
            .iter()
            .map(|r| match r {
                PrefetchRequest::Phys(l) => l.raw(),
                _ => panic!("Bingo is physical"),
            })
            .collect();
        assert!(lines.contains(&131));
        assert!(lines.contains(&135));
        assert!(
            !lines.contains(&128),
            "trigger line itself is not prefetched"
        );
    }

    #[test]
    fn prefetches_stay_in_region() {
        let mut b = Bingo::new();
        b.on_access(&ctx(7, 64));
        b.on_access(&ctx(7, 65));
        for i in 0..200u64 {
            b.on_access(&ctx(1, (10 + i) * 64));
        }
        let reqs = b.on_access(&ctx(7, 64));
        for r in reqs {
            if let PrefetchRequest::Phys(l) = r {
                assert_eq!(l.raw() / 64, 1, "left the region");
            }
        }
    }

    #[test]
    fn short_event_generalises_to_new_regions() {
        let mut b = Bingo::new();
        // Train trigger (ip=9, offset=0) with footprint {0,1,2}.
        b.on_access(&ctx(9, 0));
        b.on_access(&ctx(9, 1));
        b.on_access(&ctx(9, 2));
        for i in 0..200u64 {
            b.on_access(&ctx(1, (10 + i) * 64));
        }
        // New region, same (ip, offset) event.
        let reqs = b.on_access(&ctx(9, 300 * 64));
        assert_eq!(reqs.len(), 2, "footprint minus trigger line");
    }

    #[test]
    fn wide_footprint_yields_its_lowest_lines() {
        let mut b = Bingo::new();
        // Footprint {0, 2, 3, 5, 8, 9, 11} of region 4, trigger offset 5.
        for off in [5u64, 0, 2, 3, 8, 9, 11] {
            b.on_access(&ctx(3, 4 * 64 + off));
        }
        for i in 0..200u64 {
            b.on_access(&ctx(1, (10 + i) * 64));
        }
        let reqs = b.on_access(&ctx(3, 4 * 64 + 5));
        let expect = [0u64, 2, 3, 8].map(|o| PrefetchRequest::Phys(LineAddr::new(4 * 64 + o)));
        assert_eq!(reqs.len(), MAX_DEGREE);
        assert_eq!(reqs, expect, "lowest four lines other than the trigger");
    }

    #[test]
    fn cold_region_is_silent() {
        let mut b = Bingo::new();
        assert!(b.on_access(&ctx(5, 640)).is_empty());
    }
}
