//! DpPred + CbPred — the dead-page / dead-block predictor proposal the
//! paper compares against in §V-B (Mazumdar, Mitra & Basu, "Dead Page
//! and Dead Block Predictors: Cleaning TLBs and Caches Together",
//! HPCA 2021), simplified.
//!
//! * **DpPred** watches STLB evictions: entries evicted without reuse
//!   are *dead pages*. A table of saturating counters indexed by the
//!   installing load's IP learns which IPs produce dead pages, and later
//!   walks by those IPs *bypass* the STLB (install only in the DTLB),
//!   freeing STLB capacity for live pages.
//! * **CbPred** extends the prediction to the LLC: data fills whose IP
//!   is classified dead-page are inserted with maximum eviction priority
//!   (effective bypass), cleaning the LLC of dead blocks.
//!
//! The paper's argument — reproduced by the suite's `dppred` sweep and
//! its claims — is that this helps LLC capacity but cannot *expedite*
//! the costly translation misses themselves (dead TLB entries have long
//! recall distances, Fig 18), so the T-policies + ATP still win.

use std::sync::{Arc, Mutex, MutexGuard};

use atc_cache::policy::{fold_hash16, ReplacementPolicy, SatCounter, Ship, RRPV_MAX};
use atc_types::AccessInfo;
use atc_vm::tlb::EvictedTlbEntry;

/// Lock the shared table, tolerating poison: the table holds plain
/// counters, so state left by a panicking holder is still consistent.
fn lock_table(table: &Mutex<DeadPageTable>) -> MutexGuard<'_, DeadPageTable> {
    table.lock().unwrap_or_else(|e| e.into_inner())
}

/// Predictor table size (matches the proposal's ~11 KB budget at 2 bits
/// per entry).
const TABLE_ENTRIES: usize = 4096;
/// 2-bit counters; high half ⇒ the IP's pages die unused.
const COUNTER_MAX: u32 = 3;

/// Shared dead-page classification, trained at the STLB and consulted at
/// both the STLB fill path and the LLC insertion path.
#[derive(Debug)]
pub struct DeadPageTable {
    counters: Vec<SatCounter>,
    trainings: u64,
    bypasses: u64,
}

impl DeadPageTable {
    /// Create an untrained table (everything predicted live).
    pub fn new() -> Self {
        DeadPageTable {
            counters: vec![SatCounter::new(0, COUNTER_MAX); TABLE_ENTRIES],
            trainings: 0,
            bypasses: 0,
        }
    }

    #[inline]
    fn index(ip: u64) -> usize {
        fold_hash16(ip) as usize % TABLE_ENTRIES
    }

    /// Train on an evicted STLB entry: dead (unreused) entries push the
    /// installing IP towards "dead", reused ones pull it back.
    pub fn train(&mut self, fill_ip: u64, reused: bool) {
        self.trainings += 1;
        let c = &mut self.counters[Self::index(fill_ip)];
        if reused {
            c.dec();
        } else {
            c.inc();
        }
    }

    /// Is a page installed by `ip` predicted dead?
    pub fn predict_dead(&self, ip: u64) -> bool {
        self.counters[Self::index(ip)].is_high()
    }

    /// Record a bypass decision (statistics).
    pub fn note_bypass(&mut self) {
        self.bypasses += 1;
    }

    /// `(trainings, bypasses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.trainings, self.bypasses)
    }
}

impl Default for DeadPageTable {
    fn default() -> Self {
        Self::new()
    }
}

/// The DpPred mechanism: a shared, thread-safe dead-page table.
#[derive(Debug, Clone)]
pub struct DpPred {
    table: Arc<Mutex<DeadPageTable>>,
}

impl DpPred {
    /// Create a fresh predictor.
    pub fn new() -> Self {
        DpPred {
            table: Arc::new(Mutex::new(DeadPageTable::new())),
        }
    }

    /// Should the STLB fill for a walk triggered by `ip` be bypassed?
    pub fn should_bypass_stlb(&self, ip: u64) -> bool {
        let mut t = lock_table(&self.table);
        if t.predict_dead(ip) {
            t.note_bypass();
            true
        } else {
            false
        }
    }

    /// Train on an STLB eviction outcome.
    pub fn on_stlb_eviction(&self, evicted: &EvictedTlbEntry) {
        lock_table(&self.table).train(evicted.fill_ip, evicted.reused);
    }

    /// Build the companion CbPred LLC policy sharing this table.
    pub fn cbpred_policy(&self, sets: usize, ways: usize) -> CbPredPolicy {
        CbPredPolicy {
            inner: Ship::new(sets, ways),
            table: Arc::clone(&self.table),
        }
    }

    /// `(trainings, bypasses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        lock_table(&self.table).stats()
    }
}

impl Default for DpPred {
    fn default() -> Self {
        Self::new()
    }
}

/// CbPred at the LLC: conventional SHiP (as in the original proposal),
/// with demand data fills from dead-page IPs inserted for immediate
/// eviction.
#[derive(Debug)]
pub struct CbPredPolicy {
    inner: Ship,
    table: Arc<Mutex<DeadPageTable>>,
}

impl CbPredPolicy {
    /// Read a block's RRPV (tests).
    pub fn rrpv(&self, set: usize, way: usize) -> u8 {
        self.inner.rrpv(set, way)
    }
}

impl ReplacementPolicy for CbPredPolicy {
    fn name(&self) -> &'static str {
        "CbPred"
    }

    fn on_fill(&mut self, set: usize, way: usize, info: &AccessInfo) {
        self.inner.on_fill(set, way, info);
        if info.class.is_demand_load() && lock_table(&self.table).predict_dead(info.ip) {
            self.inner.set_rrpv(set, way, RRPV_MAX);
        }
    }

    fn on_hit(&mut self, set: usize, way: usize, info: &AccessInfo) {
        self.inner.on_hit(set, way, info);
    }

    fn victim(&mut self, set: usize, info: &AccessInfo) -> usize {
        self.inner.victim(set, info)
    }

    fn on_evict(&mut self, set: usize, way: usize) {
        self.inner.on_evict(set, way);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atc_types::{AccessClass, LineAddr, Vpn};

    fn dead_eviction(ip: u64) -> EvictedTlbEntry {
        EvictedTlbEntry {
            vpn: Vpn::new(1),
            fill_ip: ip,
            reused: false,
        }
    }

    fn live_eviction(ip: u64) -> EvictedTlbEntry {
        EvictedTlbEntry {
            vpn: Vpn::new(1),
            fill_ip: ip,
            reused: true,
        }
    }

    #[test]
    fn untrained_table_predicts_live() {
        let p = DpPred::new();
        assert!(!p.should_bypass_stlb(0x400));
    }

    #[test]
    fn dead_evictions_train_towards_bypass() {
        let p = DpPred::new();
        for _ in 0..3 {
            p.on_stlb_eviction(&dead_eviction(0x400));
        }
        assert!(p.should_bypass_stlb(0x400));
        // Other IPs unaffected.
        assert!(!p.should_bypass_stlb(0x500));
        let (trainings, bypasses) = p.stats();
        assert_eq!(trainings, 3);
        assert_eq!(bypasses, 1);
    }

    #[test]
    fn reuse_pulls_prediction_back() {
        let p = DpPred::new();
        for _ in 0..3 {
            p.on_stlb_eviction(&dead_eviction(7));
        }
        assert!(p.should_bypass_stlb(7));
        for _ in 0..3 {
            p.on_stlb_eviction(&live_eviction(7));
        }
        assert!(!p.should_bypass_stlb(7));
    }

    #[test]
    fn cbpred_policy_bypasses_dead_ip_fills() {
        let p = DpPred::new();
        for _ in 0..3 {
            p.on_stlb_eviction(&dead_eviction(0x42));
        }
        let mut pol = p.cbpred_policy(4, 4);
        let dead = AccessInfo::demand(0x42, LineAddr::new(1), AccessClass::NonReplayData);
        pol.on_fill(0, 0, &dead);
        assert_eq!(pol.rrpv(0, 0), RRPV_MAX);
        let live = AccessInfo::demand(0x43, LineAddr::new(2), AccessClass::NonReplayData);
        pol.on_fill(0, 1, &live);
        assert!(pol.rrpv(0, 1) < RRPV_MAX);
        assert_eq!(pol.name(), "CbPred");
    }

    #[test]
    fn cbpred_leaves_translations_alone() {
        use atc_types::PtLevel;
        let p = DpPred::new();
        for _ in 0..3 {
            p.on_stlb_eviction(&dead_eviction(0x42));
        }
        let mut pol = p.cbpred_policy(4, 4);
        let t = AccessInfo::demand(
            0x42,
            LineAddr::new(3),
            AccessClass::Translation(PtLevel::L1),
        );
        pol.on_fill(0, 2, &t);
        // Translation fills follow plain SHiP (the proposal is unaware of
        // them — the paper's criticism).
        assert!(pol.rrpv(0, 2) < RRPV_MAX);
    }
}
