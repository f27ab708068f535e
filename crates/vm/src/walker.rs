//! Page-table walker and the combined translation engine.
//!
//! [`TranslationEngine`] bundles the DTLB, STLB, PSCs and page table and
//! answers translation queries the way the modelled hardware does:
//!
//! 1. DTLB lookup (1 cycle);
//! 2. on miss, STLB lookup (8 cycles);
//! 3. on miss, parallel PSC probe picks the deepest cached level, and a
//!    [`WalkPlan`] is produced listing the physical PTE address read at
//!    each remaining level, ending at the leaf (level 1).
//!
//! The *simulator* plays the plan's reads through the data-cache
//! hierarchy (PTE blocks are cached like data, per the paper) and then
//! calls [`TranslationEngine::complete_walk`] to install TLB and PSC
//! entries. Each [`WalkStep`] also tells the caches the page-table level
//! it touches, which is how the paper's `IsLeafLevel` PTW flag reaches
//! the hierarchy to drive T-policies and the ATP prefetcher.

use atc_types::{config::MachineConfig, Pfn, PhysAddr, PtLevel, SimError, Vpn};

use crate::page_table::PageTable;
use crate::psc::PscArray;
use crate::tlb::Tlb;

/// One page-walk memory read: the PTE's physical address and its level.
/// `level.is_leaf()` is the walker's `IsLeafLevel` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkStep {
    /// Page-table level being read (L5 … L1).
    pub level: PtLevel,
    /// Physical address of the 8-byte PTE (its 64-byte block is what the
    /// caches see).
    pub pte_addr: PhysAddr,
}

/// A walk's PTE reads, stored inline: a radix walk has at most five
/// steps, so a fixed array avoids a heap allocation per page walk on
/// the hot translation path. Derefs to `[WalkStep]` for iteration,
/// indexing and `len()`.
#[derive(Clone, Copy)]
pub struct WalkSteps {
    steps: [WalkStep; 5],
    len: u8,
}

impl WalkSteps {
    const EMPTY_STEP: WalkStep = WalkStep {
        level: PtLevel::L1,
        pte_addr: PhysAddr::new(0),
    };

    /// An empty step list.
    pub const fn new() -> Self {
        WalkSteps {
            steps: [Self::EMPTY_STEP; 5],
            len: 0,
        }
    }

    /// Append a step.
    ///
    /// # Panics
    ///
    /// Panics if five steps are already stored (a radix walk cannot
    /// read more than five levels).
    pub fn push(&mut self, step: WalkStep) {
        self.steps[self.len as usize] = step;
        self.len += 1;
    }
}

impl Default for WalkSteps {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for WalkSteps {
    type Target = [WalkStep];
    #[inline]
    fn deref(&self) -> &[WalkStep] {
        &self.steps[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a WalkSteps {
    type Item = &'a WalkStep;
    type IntoIter = std::slice::Iter<'a, WalkStep>;
    fn into_iter(self) -> Self::IntoIter {
        self[..].iter()
    }
}

impl std::fmt::Debug for WalkSteps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for WalkSteps {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for WalkSteps {}

/// The ordered reads a page walk must perform after the PSC probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkPlan {
    /// The virtual page being translated.
    pub vpn: Vpn,
    /// Level the walk starts at (L5 when no PSC hit).
    pub start_level: PtLevel,
    /// Reads in walk order; the last is always the leaf (L1) PTE.
    pub steps: WalkSteps,
    /// The translation the walk will produce.
    pub data_pfn: Pfn,
}

/// Outcome of a translation query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslationQuery {
    /// Hit in the first-level DTLB.
    DtlbHit(Pfn),
    /// Missed DTLB, hit STLB (the DTLB has been refilled).
    StlbHit(Pfn),
    /// Missed both TLBs; the page table must be walked.
    Walk(WalkPlan),
}

impl TranslationQuery {
    /// The walk plan, if a walk is required.
    pub fn walk(&self) -> Option<&WalkPlan> {
        match self {
            TranslationQuery::Walk(p) => Some(p),
            _ => None,
        }
    }

    /// True if this query hit the DTLB.
    pub fn is_dtlb_hit(&self) -> bool {
        matches!(self, TranslationQuery::DtlbHit(_))
    }
}

/// DTLB + STLB + PSCs + page table, glued together.
#[derive(Debug)]
pub struct TranslationEngine {
    dtlb: Tlb,
    stlb: Tlb,
    pscs: PscArray,
    page_table: PageTable,
    psc_latency: u64,
    walks: u64,
}

impl TranslationEngine {
    /// Build the translation machinery for a machine configuration.
    pub fn new(cfg: &MachineConfig) -> Self {
        TranslationEngine {
            dtlb: Tlb::new(&cfg.dtlb),
            stlb: Tlb::new(&cfg.stlb),
            pscs: PscArray::new(&cfg.psc),
            page_table: PageTable::new(),
            psc_latency: cfg.psc.latency,
            walks: 0,
        }
    }

    /// Translate `vpn`, advancing TLB/PSC state. Unmapped pages are
    /// demand-mapped first (the simulated OS has a warm page table).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Walk`] if the page-table path is missing — the
    /// demand-mapping above makes that unreachable in normal operation,
    /// but a corrupted PSC resume level would surface here instead of
    /// panicking.
    pub fn query(&mut self, vpn: Vpn) -> Result<TranslationQuery, SimError> {
        // TLB hits short-circuit the radix descent: an entry can only
        // have been filled by a completed walk, whose plan came from
        // `ensure_mapped` — so the page is mapped and the cached PFN is
        // the page table's answer.
        if let Some(p) = self.dtlb_lookup(vpn) {
            return Ok(TranslationQuery::DtlbHit(p));
        }
        self.query_after_dtlb_miss(vpn)
    }

    /// First-level DTLB probe alone (advancing its LRU/statistics). The
    /// benchmark's per-layer drive calls it directly and only falls into
    /// [`query_after_dtlb_miss`](Self::query_after_dtlb_miss) on a miss;
    /// `dtlb_lookup` followed by `query_after_dtlb_miss` is exactly
    /// [`query`](Self::query).
    #[inline]
    pub fn dtlb_lookup(&mut self, vpn: Vpn) -> Option<Pfn> {
        self.dtlb.lookup(vpn)
    }

    /// Continue a translation whose DTLB probe already missed: STLB
    /// lookup (refilling the DTLB on a hit), else build the walk plan.
    ///
    /// Must only be called after [`dtlb_lookup`](Self::dtlb_lookup)
    /// returned `None` for the same `vpn` — it does not repeat the DTLB
    /// probe, so calling it cold would skip that level's statistics.
    ///
    /// # Errors
    ///
    /// As [`query`](Self::query).
    pub fn query_after_dtlb_miss(&mut self, vpn: Vpn) -> Result<TranslationQuery, SimError> {
        if let Some(p) = self.stlb.lookup(vpn) {
            self.dtlb.fill(vpn, p);
            return Ok(TranslationQuery::StlbHit(p));
        }
        let pfn = self.page_table.ensure_mapped(vpn);
        self.walks += 1;
        let start_level = match self.pscs.lookup(vpn) {
            // PSCL-k hit supplies the level-(k-1) table frame: resume
            // there. PSC levels are ≥ 2, so there is always a next level.
            Some(hit_level) => hit_level.next_towards_leaf().ok_or(SimError::Walk {
                vpn: vpn.raw(),
                level: hit_level.number(),
            })?,
            None => PtLevel::L5,
        };
        let mut steps = WalkSteps::new();
        self.page_table
            .pte_addrs_from(vpn, start_level, |level, pte_addr| {
                steps.push(WalkStep { level, pte_addr });
            })?;
        Ok(TranslationQuery::Walk(WalkPlan {
            vpn,
            start_level,
            steps,
            data_pfn: pfn,
        }))
    }

    /// Finish a walk: install PSC entries for every intermediate level
    /// read, fill the STLB and DTLB, and return the translation.
    pub fn complete_walk(&mut self, plan: &WalkPlan) -> Pfn {
        self.complete_walk_tracked(plan, 0, true);
        plan.data_pfn
    }

    /// [`complete_walk`](Self::complete_walk) with dead-page-predictor
    /// hooks: records `fill_ip` on the new STLB entry, optionally
    /// bypasses the STLB (`fill_stlb = false`, DpPred's dead-page
    /// bypass), and returns the evicted STLB entry for training.
    pub fn complete_walk_tracked(
        &mut self,
        plan: &WalkPlan,
        fill_ip: u64,
        fill_stlb: bool,
    ) -> Option<crate::tlb::EvictedTlbEntry> {
        self.pscs.fill_from_walk(plan.vpn, plan.start_level);
        let evicted = if fill_stlb {
            self.stlb.fill_tracked(plan.vpn, plan.data_pfn, fill_ip)
        } else {
            None
        };
        self.dtlb.fill(plan.vpn, plan.data_pfn);
        evicted
    }

    /// DTLB access latency (cycles).
    #[inline]
    pub fn dtlb_latency(&self) -> u64 {
        self.dtlb.latency()
    }

    /// STLB access latency (cycles).
    #[inline]
    pub fn stlb_latency(&self) -> u64 {
        self.stlb.latency()
    }

    /// PSC probe latency (cycles).
    #[inline]
    pub fn psc_latency(&self) -> u64 {
        self.psc_latency
    }

    /// Total page walks performed.
    pub fn walk_count(&self) -> u64 {
        self.walks
    }

    /// Zero TLB/PSC/walk counters while keeping contents (post-warmup).
    pub fn reset_stats(&mut self) {
        self.walks = 0;
        self.dtlb.reset_stats();
        self.stlb.reset_stats();
        self.pscs.reset_stats();
    }

    /// The first-level data TLB.
    pub fn dtlb(&self) -> &Tlb {
        &self.dtlb
    }

    /// The second-level (unified) TLB.
    pub fn stlb(&self) -> &Tlb {
        &self.stlb
    }

    /// Mutable STLB access (e.g. to enable its recall probe).
    pub fn stlb_mut(&mut self) -> &mut Tlb {
        &mut self.stlb
    }

    /// The paging-structure caches.
    pub fn pscs(&self) -> &PscArray {
        &self.pscs
    }

    /// The backing page table.
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Mutable page table (workload pre-mapping).
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atc_types::VirtAddr;

    fn engine() -> TranslationEngine {
        TranslationEngine::new(&MachineConfig::default())
    }

    #[test]
    fn cold_query_walks_all_five_levels() {
        let mut e = engine();
        let q = e.query(Vpn::new(0x123456)).unwrap();
        let plan = q.walk().expect("must walk");
        assert_eq!(plan.start_level, PtLevel::L5);
        assert_eq!(plan.steps.len(), 5);
        assert_eq!(plan.steps[0].level, PtLevel::L5);
        assert_eq!(plan.steps[4].level, PtLevel::L1);
        assert!(plan.steps[4].level.is_leaf());
    }

    #[test]
    fn walk_then_dtlb_hit_then_stlb_hit() {
        let mut e = engine();
        let vpn = Vpn::new(0x42);
        let plan = e.query(vpn).unwrap().walk().unwrap().clone();
        let pfn = e.complete_walk(&plan);
        assert!(matches!(e.query(vpn).unwrap(), TranslationQuery::DtlbHit(p) if p == pfn));
        // Evict from DTLB by filling conflicting entries; the DTLB has 16
        // sets × 4 ways, so 5 co-set VPNs evict it.
        for i in 1..=5u64 {
            let v = Vpn::new(0x42 + i * 16);
            let p = e.query(v).unwrap();
            if let TranslationQuery::Walk(plan) = p {
                e.complete_walk(&plan);
            }
        }
        assert!(matches!(e.query(vpn).unwrap(), TranslationQuery::StlbHit(p) if p == pfn));
    }

    #[test]
    fn psc_shortens_second_walk_in_same_region() {
        let mut e = engine();
        let a = Vpn::new(0x10_0000);
        let plan = e.query(a).unwrap().walk().unwrap().clone();
        e.complete_walk(&plan);
        // Neighbouring page in same leaf table: PSCL2 hit ⇒ 1-step walk
        // (only the leaf PTE).
        let b = Vpn::new(0x10_0001);
        let plan_b = e.query(b).unwrap().walk().unwrap().clone();
        assert_eq!(plan_b.start_level, PtLevel::L1);
        assert_eq!(plan_b.steps.len(), 1);
        assert!(plan_b.steps[0].level.is_leaf());
    }

    #[test]
    fn walk_plan_translation_matches_page_table() {
        let mut e = engine();
        let vpn = VirtAddr::new(0xABCD_EF01_2345).vpn();
        let plan = e.query(vpn).unwrap().walk().unwrap().clone();
        let pfn = e.complete_walk(&plan);
        assert_eq!(e.page_table().translate(vpn), Some(pfn));
        assert_eq!(plan.data_pfn, pfn);
    }

    #[test]
    fn split_query_composes_to_query() {
        // Two engines fed the same probe sequence, one through `query`,
        // one through `dtlb_lookup` + `query_after_dtlb_miss`, must end
        // in identical TLB/PSC/walk state.
        let mut whole = engine();
        let mut split = engine();
        let vpns: Vec<Vpn> = (0..64u64)
            .map(|i| Vpn::new((i * 37) % 24)) // revisits force hits at both levels
            .collect();
        for &vpn in &vpns {
            let a = whole.query(vpn).unwrap();
            let b = match split.dtlb_lookup(vpn) {
                Some(p) => TranslationQuery::DtlbHit(p),
                None => split.query_after_dtlb_miss(vpn).unwrap(),
            };
            assert_eq!(a, b);
            if let TranslationQuery::Walk(plan) = &a {
                whole.complete_walk(plan);
                split.complete_walk(plan);
            }
        }
        assert_eq!(whole.walk_count(), split.walk_count());
        assert_eq!(whole.dtlb().stats(), split.dtlb().stats());
        assert_eq!(whole.stlb().stats(), split.stlb().stats());
    }

    #[test]
    fn walk_count_increments_only_on_walks() {
        let mut e = engine();
        let vpn = Vpn::new(7);
        let plan = e.query(vpn).unwrap().walk().unwrap().clone();
        e.complete_walk(&plan);
        e.query(vpn).unwrap(); // DTLB hit
        assert_eq!(e.walk_count(), 1);
    }

    #[test]
    fn leaf_step_block_is_shared_by_neighbour_pages() {
        let mut e = engine();
        let a = Vpn::new(0x8000);
        let b = Vpn::new(0x8001);
        let plan_a = e.query(a).unwrap().walk().unwrap().clone();
        e.complete_walk(&plan_a);
        let plan_b = e.query(b).unwrap().walk().unwrap().clone();
        let leaf_a = plan_a.steps.last().unwrap().pte_addr.line();
        let leaf_b = plan_b.steps.last().unwrap().pte_addr.line();
        assert_eq!(leaf_a, leaf_b, "adjacent pages share a leaf PTE block");
    }
}
