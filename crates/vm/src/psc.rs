//! Paging-structure caches (PSCs).
//!
//! Four fully-associative, LRU caches — PSCL5/4/3/2 — each caching the
//! recently-read PTEs of one intermediate page-table level. A hit in
//! PSCL*k* supplies the frame of the level-(*k*−1) table, so the walk can
//! skip levels 5..=*k*. All four are probed in parallel in one cycle and,
//! per the paper, "in case of more than one hit, the farthest level is
//! considered as it minimizes the page table walk latency".

use atc_types::{config::PscConfig, PtLevel, Vpn};

/// One fully-associative PSC level with true-LRU replacement.
#[derive(Debug, Clone)]
struct PscLevel {
    /// Entries as `(tag, lru_stamp)`; capacity-bounded.
    entries: Vec<(u64, u64)>,
    capacity: usize,
    clock: u64,
}

impl PscLevel {
    fn new(capacity: usize) -> Self {
        PscLevel {
            entries: Vec::with_capacity(capacity),
            capacity,
            clock: 0,
        }
    }

    fn lookup(&mut self, tag: u64) -> bool {
        self.clock += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == tag) {
            e.1 = self.clock;
            true
        } else {
            false
        }
    }

    fn fill(&mut self, tag: u64) {
        self.clock += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == tag) {
            e.1 = self.clock;
            return;
        }
        if self.entries.len() == self.capacity {
            let (victim_idx, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.1)
                .expect("non-empty");
            self.entries.swap_remove(victim_idx);
        }
        self.entries.push((tag, self.clock));
    }
}

/// The PSCL5..PSCL2 array.
///
/// # Example
///
/// ```
/// use atc_types::{config::PscConfig, PtLevel, Vpn};
/// use atc_vm::PscArray;
///
/// let mut pscs = PscArray::new(&PscConfig::default());
/// let vpn = Vpn::new(0x12345);
/// assert_eq!(pscs.lookup(vpn), None);
/// pscs.fill_from_walk(vpn, PtLevel::L5);
/// // All intermediate levels were read: the deepest (PSCL2) hit wins.
/// assert_eq!(pscs.lookup(vpn), Some(PtLevel::L2));
/// ```
#[derive(Debug, Clone)]
pub struct PscArray {
    /// Index 0 → PSCL2, …, index 3 → PSCL5.
    levels: [PscLevel; 4],
    hits: u64,
    misses: u64,
}

/// PSC levels cover intermediate levels 2..=5 (the leaf has the TLBs).
fn idx_of(level: PtLevel) -> usize {
    (level.number() - 2) as usize
}

/// Tag for PSCL*k*: the VPN bits above the level-(k−1) index — every VPN
/// sharing the same level-(k−1) table shares this tag.
fn tag_of(vpn: Vpn, level: PtLevel) -> u64 {
    vpn.raw() >> (9 * (level.number() as u32 - 1))
}

impl PscArray {
    /// Build from configured sizes.
    pub fn new(cfg: &PscConfig) -> Self {
        PscArray {
            levels: [
                PscLevel::new(cfg.pscl2_entries),
                PscLevel::new(cfg.pscl3_entries),
                PscLevel::new(cfg.pscl4_entries),
                PscLevel::new(cfg.pscl5_entries),
            ],
            hits: 0,
            misses: 0,
        }
    }

    /// Probe all PSCs in parallel; returns the *deepest* level with a hit
    /// (`Some(PtLevel::L2)` best — only the leaf PTE remains to read), or
    /// `None` when the walk must start from the root.
    pub fn lookup(&mut self, vpn: Vpn) -> Option<PtLevel> {
        let mut best = None;
        // Probe shallowest-first so the deepest hit overwrites.
        for level in [PtLevel::L5, PtLevel::L4, PtLevel::L3, PtLevel::L2] {
            if self.levels[idx_of(level)].lookup(tag_of(vpn, level)) {
                best = Some(level);
            }
        }
        if best.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        best
    }

    /// After a walk that *started* at `start_level`, install every
    /// intermediate PTE that was read (levels `start_level ..= 2`).
    pub fn fill_from_walk(&mut self, vpn: Vpn, start_level: PtLevel) {
        let mut lvl = start_level;
        loop {
            if lvl.is_leaf() {
                break;
            }
            self.levels[idx_of(lvl)].fill(tag_of(vpn, lvl));
            match lvl.next_towards_leaf() {
                Some(next) => lvl = next,
                None => break,
            }
        }
    }

    /// `(hits, misses)` of whole-array lookups.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Zero hit/miss counters while keeping contents (post-warmup).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pscs() -> PscArray {
        PscArray::new(&PscConfig::default())
    }

    #[test]
    fn cold_lookup_misses() {
        let mut p = pscs();
        assert_eq!(p.lookup(Vpn::new(42)), None);
        assert_eq!(p.stats(), (0, 1));
    }

    #[test]
    fn full_walk_fill_gives_deepest_hit() {
        let mut p = pscs();
        let vpn = Vpn::new(0xABCDE);
        p.fill_from_walk(vpn, PtLevel::L5);
        assert_eq!(p.lookup(vpn), Some(PtLevel::L2));
    }

    #[test]
    fn partial_walk_fills_only_walked_levels() {
        let mut p = pscs();
        let vpn = Vpn::new(0xABCDE);
        // Walk started at L2 (PSCL3 hit earlier): only PSCL2 refreshed.
        p.fill_from_walk(vpn, PtLevel::L2);
        assert_eq!(p.lookup(vpn), Some(PtLevel::L2));
        // A VPN sharing the L3 table but not the L2 tag must miss: only
        // PSCL2 was filled, and its tag differs.
        let sibling = Vpn::new(vpn.raw() ^ (1 << 10)); // differ in L2 index
        assert_eq!(p.lookup(sibling), None);
    }

    #[test]
    fn neighbours_share_intermediate_entries() {
        let mut p = pscs();
        let a = Vpn::new(0x1000_0000);
        p.fill_from_walk(a, PtLevel::L5);
        // A page in the same leaf table (same vpn>>9) hits PSCL2.
        let b = Vpn::new(a.raw() + 5);
        assert_eq!(p.lookup(b), Some(PtLevel::L2));
        // A page in the same L2 table but different leaf table hits PSCL3.
        let c = Vpn::new(a.raw() + (3 << 9));
        assert_eq!(p.lookup(c), Some(PtLevel::L3));
        // Same L3 table, different L2 table → PSCL4.
        let d = Vpn::new(a.raw() + (3 << 18));
        assert_eq!(p.lookup(d), Some(PtLevel::L4));
        // Same L4 table, different L3 table → PSCL5.
        let e = Vpn::new(a.raw() + (3 << 27));
        assert_eq!(p.lookup(e), Some(PtLevel::L5));
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let cfg = PscConfig {
            pscl5_entries: 2,
            ..PscConfig::default()
        };
        let mut p = PscArray::new(&cfg);
        // Fill PSCL5 with three distinct L5 regions; capacity 2.
        let r = |i: u64| Vpn::new(i << 36); // distinct L5 tags
        p.fill_from_walk(r(1), PtLevel::L5);
        p.fill_from_walk(r(2), PtLevel::L5);
        // Touch r(1) so r(2) becomes LRU in PSCL5.
        assert_eq!(p.lookup(r(1)), Some(PtLevel::L2));
        p.fill_from_walk(r(3), PtLevel::L5);
        // r(2)'s L5 entry evicted; deeper PSCs for r(2) still hold
        // entries, so lookup still hits at some deeper level — check
        // PSCL5 directly through a VPN sharing only the L5 tag.
        let same_l5_as_2 = Vpn::new((2 << 36) | (7 << 27));
        assert_eq!(
            p.lookup(same_l5_as_2),
            None,
            "PSCL5 entry should be evicted"
        );
        let same_l5_as_3 = Vpn::new((3 << 36) | (7 << 27));
        assert_eq!(p.lookup(same_l5_as_3), Some(PtLevel::L5));
    }
}
