//! The set-associative cache core.
//!
//! [`Cache`] stores tags/state and delegates replacement to a
//! [`ReplacementPolicy`](crate::policy::ReplacementPolicy). Timing is
//! call-based: lookups and fills carry the current cycle, and the MSHR
//! file keeps in-flight misses visible so later requests merge with them.
//!
//! # Hot-path data layout
//!
//! Every simulated instruction probes several cache levels, so the
//! per-way scan is the hottest loop in the simulator. Tags and line
//! metadata are stored in *split parallel arrays*:
//!
//! * `tags: Vec<u64>` — one word per way, `EMPTY_TAG` (`u64::MAX`)
//!   marking an invalid way. A set's ways are contiguous, so a lookup
//!   scans `ways × 8` bytes of one or two cache lines with no `Option`
//!   discriminant and no pointer chasing.
//! * `meta: Vec<LineMeta>` — class/dirty/prefetched/reused bookkeeping,
//!   only touched on a hit or a fill.
//!
//! Set selection is a mask (`line & (sets - 1)`) rather than a modulo,
//! which is why [`Cache::new`] requires a power-of-two set count (the
//! machine-level `MachineConfig::validate` already guarantees it).

use atc_stats::recall::RecallProbe;
use atc_stats::ClassCounters;
use atc_types::{AccessClass, AccessInfo, LineAddr, SimError};

use crate::mshr::Mshr;
use crate::policy::PolicyImpl;

/// Tag value marking an empty (invalid) way. Physical line addresses are
/// bounded far below this (57-bit VA space, frame allocator counts up),
/// so no real line can collide with it; `fill` debug-asserts that.
const EMPTY_TAG: u64 = u64::MAX;

/// A resident cache line's bookkeeping, parallel to its tag.
#[derive(Debug, Clone, Copy)]
struct LineMeta {
    class: AccessClass,
    dirty: bool,
    prefetched: bool,
    reused: bool,
}

impl LineMeta {
    /// Placeholder metadata behind an [`EMPTY_TAG`]; never read.
    const EMPTY: LineMeta = LineMeta {
        class: AccessClass::NonReplayData,
        dirty: false,
        prefetched: false,
        reused: false,
    };
}

/// Outcome of a combined MSHR-merge + tag probe (see [`Cache::probe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The line hit (or merged with an in-flight fill): data is usable
    /// at the returned cycle.
    Ready(u64),
    /// The line missed. The set index and the first empty way observed
    /// during the probe's tag scan are carried along so the eventual
    /// [`Cache::insert_miss_at`] neither recomputes the set, rescans it
    /// for residency, nor rescans it for a free way.
    Miss {
        /// Set index of the missing line.
        set: usize,
        /// First empty way in the set, if any (a miss scans every way,
        /// so this is exactly what `find_empty_way` would report).
        empty: Option<usize>,
    },
}

/// Information about an evicted line, returned from fills so the caller
/// can account for write-backs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The evicted block address.
    pub addr: LineAddr,
    /// Whether it was dirty (needs write-back).
    pub dirty: bool,
    /// The class that last filled it.
    pub class: AccessClass,
    /// Whether it was ever reused after its fill.
    pub reused: bool,
}

/// Bit position of `class` in the recall-class bitmask. Distinct for
/// every class *including* each page-table level, so filtering is exact
/// (unlike `stat_index`, which buckets non-leaf translations together).
#[inline]
fn class_bit(class: AccessClass) -> u16 {
    let bit = match class {
        AccessClass::NonReplayData => 0,
        AccessClass::ReplayData => 1,
        // Translation levels 1..=5 map to bits 2..=6.
        AccessClass::Translation(l) => 1 + l.number() as u32,
        AccessClass::Store => 7,
        AccessClass::Instruction => 8,
    };
    1 << bit
}

/// One level of the cache hierarchy.
#[derive(Debug)]
pub struct Cache {
    name: &'static str,
    sets: usize,
    ways: usize,
    latency: u64,
    /// `sets - 1`; valid because `sets` is a power of two.
    set_mask: u64,
    /// Per-way tags, `EMPTY_TAG` = invalid. Indexed `set * ways + way`.
    tags: Vec<u64>,
    /// Per-way metadata, parallel to `tags`.
    meta: Vec<LineMeta>,
    policy: PolicyImpl,
    mshr: Mshr,
    stats: ClassCounters,
    recall: Option<RecallProbe>,
    /// Bitmask of classes the recall probe tracks (see [`class_bit`]);
    /// all-ones when the probe tracks every class.
    recall_mask: u16,
    writebacks: u64,
    prefetch_fills: u64,
    prefetch_useful: u64,
    evictions_dead: u64,
    evictions_total: u64,
    evictions_dead_by_class: [u64; AccessClass::STAT_CLASSES],
    evictions_total_by_class: [u64; AccessClass::STAT_CLASSES],
    /// Demand fills (new insertions, not resident refills) by class;
    /// prefetch insertions are counted in `prefetch_fills` instead.
    fills_by_class: [u64; AccessClass::STAT_CLASSES],
    /// Translation (PTE) blocks evicted, indexed by the *incoming* fill
    /// that displaced them (see [`Cache::EVICTOR_SLOTS`]).
    translation_evicted_by: [u64; Cache::EVICTOR_SLOTS],
}

impl Cache {
    /// Create a cache level.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if `sets`, `ways` or `mshr_entries`
    /// is zero, or if `sets` is not a power of two (set selection is a
    /// mask).
    pub fn new(
        name: &'static str,
        sets: usize,
        ways: usize,
        latency: u64,
        mshr_entries: usize,
        policy: impl Into<PolicyImpl>,
    ) -> Result<Self, SimError> {
        if sets == 0 || ways == 0 {
            return Err(SimError::config(format!(
                "{name}: cache geometry must be non-zero (sets={sets}, ways={ways})"
            )));
        }
        if !sets.is_power_of_two() {
            return Err(SimError::config(format!(
                "{name}: set count {sets} is not a power of two (set index is a mask)"
            )));
        }
        if ways > usize::BITS as usize {
            return Err(SimError::config(format!(
                "{name}: associativity {ways} exceeds {} (way scans use a word-wide mask)",
                usize::BITS
            )));
        }
        let mshr = Mshr::new(mshr_entries).map_err(|e| SimError::config(format!("{name}: {e}")))?;
        Ok(Cache {
            name,
            sets,
            ways,
            latency,
            set_mask: sets as u64 - 1,
            tags: vec![EMPTY_TAG; sets * ways],
            meta: vec![LineMeta::EMPTY; sets * ways],
            policy: policy.into(),
            mshr,
            stats: ClassCounters::default(),
            recall: None,
            recall_mask: u16::MAX,
            writebacks: 0,
            prefetch_fills: 0,
            prefetch_useful: 0,
            evictions_dead: 0,
            evictions_total: 0,
            evictions_dead_by_class: [0; AccessClass::STAT_CLASSES],
            evictions_total_by_class: [0; AccessClass::STAT_CLASSES],
            fills_by_class: [0; AccessClass::STAT_CLASSES],
            translation_evicted_by: [0; Cache::EVICTOR_SLOTS],
        })
    }

    /// Slots in [`translation_evicted_by`](Self::translation_evicted_by):
    /// one per [`AccessClass::stat_index`] value for demand evictors,
    /// plus a final slot for prefetch evictors of any class.
    pub const EVICTOR_SLOTS: usize = AccessClass::STAT_CLASSES + 1;

    /// Index of the prefetch slot in
    /// [`translation_evicted_by`](Self::translation_evicted_by).
    pub const PREFETCH_EVICTOR: usize = AccessClass::STAT_CLASSES;

    /// Cache name ("L1D", "L2C", "LLC").
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Hit latency in cycles.
    #[inline]
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// The replacement policy's reported name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Attach a recall-distance probe restricted to the given classes
    /// (e.g. only leaf translations for Fig 5, only replays for Fig 7).
    /// Pass an empty slice to probe every class.
    pub fn enable_recall_probe(&mut self, cap: usize, classes: &[AccessClass]) {
        self.recall = Some(RecallProbe::new(self.sets, cap));
        self.recall_mask = if classes.is_empty() {
            u16::MAX
        } else {
            classes.iter().fold(0, |mask, &c| mask | class_bit(c))
        };
    }

    #[inline]
    fn recall_tracks(&self, class: AccessClass) -> bool {
        self.recall_mask & class_bit(class) != 0
    }

    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        (line.raw() & self.set_mask) as usize
    }

    #[inline]
    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Way holding `line` in `set`, if resident — a contiguous scan over
    /// the set's tag words.
    #[inline]
    fn find_way(&self, set: usize, line: LineAddr) -> Option<usize> {
        let base = set * self.ways;
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == line.raw())
    }

    /// First empty way in `set`, if any.
    #[inline]
    fn find_empty_way(&self, set: usize) -> Option<usize> {
        let base = set * self.ways;
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == EMPTY_TAG)
    }

    /// One scan over `set`: `Ok(way)` if `line` is resident, else
    /// `Err(first_empty_way)`. A miss visits every way, so the empty way
    /// falls out of the same pass and matches [`find_empty_way`]
    /// (`Self::find_empty_way`) exactly.
    #[inline]
    fn find_way_or_empty(&self, set: usize, line: LineAddr) -> Result<usize, Option<usize>> {
        let base = set * self.ways;
        // Branchless empty tracking: a bitmask of empty ways accumulates
        // alongside the match scan (associativity never exceeds the word
        // width), and the first empty way is its lowest set bit.
        let mut empty_mask = 0usize;
        for (w, &t) in self.tags[base..base + self.ways].iter().enumerate() {
            if t == line.raw() {
                return Ok(w);
            }
            empty_mask |= usize::from(t == EMPTY_TAG) << w;
        }
        Err((empty_mask != 0).then(|| empty_mask.trailing_zeros() as usize))
    }

    /// If `info.line` has an in-flight MSHR fill at `cycle`, merge and
    /// return its completion cycle. Counts as a miss for statistics (the
    /// block is not yet usable).
    pub fn mshr_merge(&mut self, info: &AccessInfo, cycle: u64) -> Option<u64> {
        let ready = self.mshr.merge(info.line, cycle, info.is_prefetch)?;
        if !info.is_prefetch {
            self.stats.record(info.class, false);
        }
        Some(ready)
    }

    /// Look up `info.line` at `cycle`. On a hit, returns the completion
    /// cycle (`cycle + latency`) and updates promotion/statistics. On a
    /// miss returns `None` (statistics updated; caller descends the
    /// hierarchy and then calls [`insert_miss`](Self::insert_miss)).
    pub fn lookup(&mut self, info: &AccessInfo, cycle: u64) -> Option<u64> {
        let set = self.set_of(info.line);
        self.lookup_at(set, info, cycle)
    }

    /// One combined miss-path probe: MSHR merge first (an in-flight fill
    /// answers before the tags are consulted, exactly like
    /// [`mshr_merge`](Self::mshr_merge) followed by
    /// [`lookup`](Self::lookup)), then a tag lookup. On a miss the set
    /// index is returned for the caller to pass to
    /// [`insert_miss_at`](Self::insert_miss_at).
    #[inline]
    pub fn probe(&mut self, info: &AccessInfo, cycle: u64) -> Probe {
        if let Some(ready) = self.mshr_merge(info, cycle) {
            return Probe::Ready(ready);
        }
        let set = self.set_of(info.line);
        self.feed_recall(set, info);
        match self.probe_set(set, info, cycle) {
            Ok(ready) => Probe::Ready(ready),
            Err(empty) => Probe::Miss { set, empty },
        }
    }

    /// [`probe`](Self::probe) for a cache known to carry no recall
    /// probe (the machine only ever attaches recall probes at the
    /// L2C/LLC/STLB); the benchmark's per-layer drive uses it as its L1D
    /// entry point. Statistics,
    /// promotion and MSHR behaviour are identical to `probe`; the only
    /// thing skipped is the per-access recall branch.
    #[inline]
    pub fn probe_fast(&mut self, info: &AccessInfo, cycle: u64) -> Probe {
        debug_assert!(
            self.recall.is_none(),
            "probe_fast on a cache with a recall probe attached"
        );
        if let Some(ready) = self.mshr_merge(info, cycle) {
            return Probe::Ready(ready);
        }
        let set = self.set_of(info.line);
        match self.probe_set(set, info, cycle) {
            Ok(ready) => Probe::Ready(ready),
            Err(empty) => Probe::Miss { set, empty },
        }
    }

    /// Feed a demand access to the recall probe, if one is attached and
    /// tracks this class. Recall distance is a property of the demand
    /// stream, so prefetches are never fed.
    #[inline]
    fn feed_recall(&mut self, set: usize, info: &AccessInfo) {
        if !info.is_prefetch && self.recall.is_some() && self.recall_tracks(info.class) {
            if let Some(probe) = &mut self.recall {
                probe.on_access(set, info.line);
            }
        }
    }

    /// [`lookup`](Self::lookup) with the set index already computed.
    fn lookup_at(&mut self, set: usize, info: &AccessInfo, cycle: u64) -> Option<u64> {
        self.feed_recall(set, info);
        self.probe_set(set, info, cycle).ok()
    }

    /// Single-scan lookup core: `Ok(ready)` on a hit (statistics and
    /// promotion updated), `Err(first_empty_way)` on a miss (miss
    /// recorded). The empty way rides along from the same tag scan so
    /// the eventual [`insert_miss_at`](Self::insert_miss_at) does not
    /// rescan the set for a free way.
    #[inline]
    fn probe_set(
        &mut self,
        set: usize,
        info: &AccessInfo,
        cycle: u64,
    ) -> Result<u64, Option<usize>> {
        match self.find_way_or_empty(set, info.line) {
            Ok(w) => {
                if !info.is_prefetch {
                    self.stats.record(info.class, true);
                }
                let slot = self.slot(set, w);
                let m = self.meta[slot];
                if m.prefetched && !m.reused && !info.is_prefetch {
                    self.prefetch_useful += 1;
                }
                let m = &mut self.meta[slot];
                if !info.is_prefetch {
                    m.reused = true;
                }
                if info.class == AccessClass::Store {
                    m.dirty = true;
                }
                self.policy.on_hit(set, w, info);
                Ok(cycle + self.latency)
            }
            Err(empty) => {
                if !info.is_prefetch {
                    self.stats.record(info.class, false);
                }
                Err(empty)
            }
        }
    }

    /// Probe for residency without perturbing statistics, LRU state, or
    /// the recall probe.
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find_way(self.set_of(line), line).is_some()
    }

    /// Handle a miss: allocate an MSHR entry completing at `ready`
    /// (possibly delayed if the file is full), fill the line, and return
    /// `(completion_cycle, evicted_line)`.
    ///
    /// The caller must have ruled out an in-flight fill for the line
    /// first — via [`probe`](Self::probe) (which merges before the tag
    /// lookup) or an explicit [`mshr_merge`](Self::mshr_merge) — exactly
    /// as every hierarchy access path does.
    pub fn insert_miss(
        &mut self,
        info: &AccessInfo,
        ready: u64,
        cycle: u64,
    ) -> (u64, Option<EvictedLine>) {
        let ready = self
            .mshr
            .allocate(info.line, cycle, ready, info.is_prefetch);
        let evicted = self.fill(info);
        (ready, evicted)
    }

    /// Full-MSHR-file probe, used by the benchmark's per-layer drive: if
    /// a fill at `cycle` would stall for a free register, count the
    /// stall and return the wakeup cycle so the caller can defer the
    /// fill there (see
    /// [`Mshr::full_wakeup`](crate::Mshr::full_wakeup)). `None` means
    /// the fill can proceed immediately via
    /// [`insert_miss_at`](Self::insert_miss_at).
    pub fn mshr_full_wakeup(&mut self, cycle: u64) -> Option<u64> {
        self.mshr.full_wakeup(cycle)
    }

    /// [`insert_miss`](Self::insert_miss) for a line a just-failed
    /// [`probe`](Self::probe) reported missing from `set` with `empty`
    /// as the first free way: the fill skips the set-index computation,
    /// the residency rescan, and the empty-way rescan (nothing can have
    /// filled into the set between the probe and this call on the
    /// single-threaded access path — each level is probed once and
    /// filled once per access).
    pub fn insert_miss_at(
        &mut self,
        set: usize,
        empty: Option<usize>,
        info: &AccessInfo,
        ready: u64,
        cycle: u64,
    ) -> (u64, Option<EvictedLine>) {
        let ready = self
            .mshr
            .allocate(info.line, cycle, ready, info.is_prefetch);
        debug_assert_eq!(set, self.set_of(info.line), "probe/fill set mismatch");
        debug_assert!(
            self.find_way(set, info.line).is_none(),
            "insert_miss_at on a resident line"
        );
        debug_assert_eq!(
            empty,
            self.find_empty_way(set),
            "probe/fill empty-way mismatch"
        );
        let evicted = self.fill_new(set, empty, info);
        (ready, evicted)
    }

    /// Fill `info.line` into its set, evicting if necessary. Returns the
    /// eviction, if any. Exposed separately for oracles and tests; the
    /// normal miss path is [`insert_miss`](Self::insert_miss).
    pub fn fill(&mut self, info: &AccessInfo) -> Option<EvictedLine> {
        debug_assert_ne!(
            info.line.raw(),
            EMPTY_TAG,
            "line address collides with the empty-way sentinel"
        );
        let set = self.set_of(info.line);
        // One scan finds both the resident way (refill) and, failing
        // that, the first empty way — instead of a residency scan
        // followed by a separate empty-way scan.
        let base = set * self.ways;
        let mut empty = None;
        let mut resident = None;
        for (w, &t) in self.tags[base..base + self.ways].iter().enumerate() {
            if t == info.line.raw() {
                resident = Some(w);
                break;
            }
            if empty.is_none() && t == EMPTY_TAG {
                empty = Some(w);
            }
        }
        // Refill of a resident line (e.g. prefetch raced demand): just
        // update class/flags. The class must follow the latest fill so
        // eviction/dead-block accounting attributes the block correctly,
        // and a demand refill consumes any prefetched status.
        if let Some(w) = resident {
            let slot = self.slot(set, w);
            let m = &mut self.meta[slot];
            m.class = info.class;
            m.dirty |= info.class == AccessClass::Store;
            if !info.is_prefetch {
                m.prefetched = false;
            }
            return None;
        }
        self.fill_new(set, empty, info)
    }

    /// Insert a non-resident line into `set`, using `empty` if the scan
    /// found a free way, else evicting the policy's victim.
    fn fill_new(
        &mut self,
        set: usize,
        empty: Option<usize>,
        info: &AccessInfo,
    ) -> Option<EvictedLine> {
        debug_assert_ne!(
            info.line.raw(),
            EMPTY_TAG,
            "line address collides with the empty-way sentinel"
        );
        let way = match empty {
            Some(w) => w,
            None => {
                let w = self.policy.victim(set, info);
                assert!(w < self.ways, "policy returned way {w} ≥ {}", self.ways);
                w
            }
        };
        let slot = self.slot(set, way);
        let evicted = if self.tags[slot] != EMPTY_TAG {
            let old_addr = LineAddr::new(self.tags[slot]);
            let old = self.meta[slot];
            self.policy.on_evict(set, way);
            self.evictions_total += 1;
            self.evictions_total_by_class[old.class.stat_index()] += 1;
            if old.class.is_translation() {
                let evictor = if info.is_prefetch {
                    Cache::PREFETCH_EVICTOR
                } else {
                    info.class.stat_index()
                };
                self.translation_evicted_by[evictor] += 1;
            }
            if !old.reused {
                self.evictions_dead += 1;
                self.evictions_dead_by_class[old.class.stat_index()] += 1;
            }
            if old.dirty {
                self.writebacks += 1;
            }
            if self.recall_tracks(old.class) {
                if let Some(probe) = &mut self.recall {
                    probe.on_evict(set, old_addr);
                }
            }
            Some(EvictedLine {
                addr: old_addr,
                dirty: old.dirty,
                class: old.class,
                reused: old.reused,
            })
        } else {
            None
        };
        self.tags[slot] = info.line.raw();
        self.meta[slot] = LineMeta {
            class: info.class,
            dirty: info.class == AccessClass::Store,
            prefetched: info.is_prefetch,
            reused: false,
        };
        self.policy.on_fill(set, way, info);
        if info.is_prefetch {
            self.prefetch_fills += 1;
        } else {
            self.fills_by_class[info.class.stat_index()] += 1;
        }
        evicted
    }

    /// `(set, way)` of a resident line, if present — used by T-policies
    /// to adjust a just-filled block's RRPV.
    pub fn locate(&self, line: LineAddr) -> Option<(usize, usize)> {
        let set = self.set_of(line);
        self.find_way(set, line).map(|w| (set, w))
    }

    /// Per-class hit/miss statistics.
    pub fn stats(&self) -> &ClassCounters {
        &self.stats
    }

    /// Write-backs performed.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// `(prefetch fills, useful prefetches)` — useful = demand hit on a
    /// not-yet-reused prefetched line, plus demand merges that caught an
    /// in-flight prefetch (late-but-useful).
    pub fn prefetch_stats(&self) -> (u64, u64) {
        (
            self.prefetch_fills,
            self.prefetch_useful + self.mshr.prefetch_useful_merges(),
        )
    }

    /// `(dead evictions, total evictions)`: dead = never reused after
    /// fill (the paper's §III "blocks storing replay loads are dead"
    /// metric).
    pub fn eviction_stats(&self) -> (u64, u64) {
        (self.evictions_dead, self.evictions_total)
    }

    /// `(dead evictions, total evictions)` restricted to blocks whose
    /// fill was of `class`.
    pub fn eviction_stats_for(&self, class: AccessClass) -> (u64, u64) {
        let i = class.stat_index();
        (
            self.evictions_dead_by_class[i],
            self.evictions_total_by_class[i],
        )
    }

    /// `(dead evictions, total evictions)` of translation (PTE) blocks,
    /// summed over every page-table level.
    pub fn pte_eviction_stats(&self) -> (u64, u64) {
        let leaf = AccessClass::Translation(atc_types::PtLevel::L1).stat_index();
        let upper = AccessClass::Translation(atc_types::PtLevel::L2).stat_index();
        (
            self.evictions_dead_by_class[leaf] + self.evictions_dead_by_class[upper],
            self.evictions_total_by_class[leaf] + self.evictions_total_by_class[upper],
        )
    }

    /// Demand fills (new insertions) by [`AccessClass::stat_index`];
    /// prefetch insertions are in [`prefetch_stats`](Self::prefetch_stats).
    pub fn fills_by_class(&self) -> &[u64; AccessClass::STAT_CLASSES] {
        &self.fills_by_class
    }

    /// Translation (PTE) evictions indexed by the incoming fill that
    /// displaced them: [`AccessClass::stat_index`] for demand fills,
    /// [`Cache::PREFETCH_EVICTOR`] for prefetches.
    pub fn translation_evicted_by(&self) -> &[u64; Cache::EVICTOR_SLOTS] {
        &self.translation_evicted_by
    }

    /// The MSHR file (diagnostics).
    pub fn mshr(&self) -> &Mshr {
        &self.mshr
    }

    /// Zero all measurement counters while keeping cache contents and
    /// policy state (used after simulation warmup).
    pub fn reset_stats(&mut self) {
        self.stats = ClassCounters::default();
        self.mshr.reset_stats();
        self.writebacks = 0;
        self.prefetch_fills = 0;
        self.prefetch_useful = 0;
        self.evictions_dead = 0;
        self.evictions_total = 0;
        self.evictions_dead_by_class = [0; AccessClass::STAT_CLASSES];
        self.evictions_total_by_class = [0; AccessClass::STAT_CLASSES];
        self.fills_by_class = [0; AccessClass::STAT_CLASSES];
        self.translation_evicted_by = [0; Cache::EVICTOR_SLOTS];
    }

    /// The recall probe, if enabled.
    pub fn recall_probe(&self) -> Option<&RecallProbe> {
        self.recall.as_ref()
    }

    /// Mutable recall probe (to flush open windows at end of run).
    pub fn recall_probe_mut(&mut self) -> Option<&mut RecallProbe> {
        self.recall.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Lru;
    use atc_types::PtLevel;

    fn mk(sets: usize, ways: usize) -> Cache {
        Cache::new("T", sets, ways, 10, 4, Lru::new(sets, ways)).expect("test geometry is valid")
    }

    #[test]
    fn bad_geometry_is_an_error_not_a_panic() {
        let err = Cache::new("T", 0, 2, 10, 4, Lru::new(1, 2)).unwrap_err();
        assert!(err.to_string().contains("geometry"), "{err}");
        let err = Cache::new("T", 4, 2, 10, 0, Lru::new(4, 2)).unwrap_err();
        assert!(err.to_string().contains("capacity"), "{err}");
    }

    #[test]
    fn non_power_of_two_sets_is_an_error() {
        let err = Cache::new("T", 3, 2, 10, 4, Lru::new(3, 2)).unwrap_err();
        assert!(err.to_string().contains("power of two"), "{err}");
    }

    fn load(line: u64) -> AccessInfo {
        AccessInfo::demand(0x400, LineAddr::new(line), AccessClass::NonReplayData)
    }

    #[test]
    fn miss_fill_hit_cycle_accounting() {
        let mut c = mk(4, 2);
        let a = load(64);
        assert_eq!(c.lookup(&a, 100), None);
        let (ready, ev) = c.insert_miss(&a, 300, 100);
        assert_eq!(ready, 300);
        assert!(ev.is_none());
        assert_eq!(c.lookup(&a, 400), Some(410));
        assert_eq!(c.stats().hits(AccessClass::NonReplayData), 1);
        assert_eq!(c.stats().misses(AccessClass::NonReplayData), 1);
    }

    #[test]
    fn probe_fast_matches_probe_without_a_recall_probe() {
        // Two identical caches driven by the same stream, one through
        // `probe`, one through `probe_fast`: outcomes and statistics
        // must stay in lockstep (hits, misses, MSHR merges, fills).
        let mut a = mk(4, 2);
        let mut b = mk(4, 2);
        let stream: &[(u64, u64)] = &[
            (64, 0),
            (64, 5),    // merge while in flight
            (64, 400),  // hit after fill
            (128, 410), // same set, miss
            (320, 420), // evicts
            (64, 430),
        ];
        for &(line, cycle) in stream {
            let info = load(line);
            let pa = a.probe(&info, cycle);
            let pb = b.probe_fast(&info, cycle);
            assert_eq!(pa, pb, "line {line} at {cycle}");
            if let Probe::Miss { set, empty } = pa {
                let fa = a.insert_miss_at(set, empty, &info, cycle + 200, cycle);
                let fb = b.insert_miss_at(set, empty, &info, cycle + 200, cycle);
                assert_eq!(fa, fb);
            }
        }
        assert_eq!(format!("{:?}", a.stats()), format!("{:?}", b.stats()));
        assert_eq!(a.mshr().merges(), b.mshr().merges());
        assert_eq!(a.mshr().allocations(), b.mshr().allocations());
    }

    #[test]
    fn mshr_merge_before_ready() {
        let mut c = mk(4, 2);
        let a = load(64);
        c.lookup(&a, 0);
        c.insert_miss(&a, 200, 0);
        // While in flight, another request merges instead of hitting.
        assert_eq!(c.mshr_merge(&a, 100), Some(200));
        // After completion the merge path no longer applies.
        assert_eq!(c.mshr_merge(&a, 200), None);
        assert!(c.lookup(&a, 201).is_some());
    }

    #[test]
    fn eviction_reports_dirty_and_reuse() {
        let mut c = mk(1, 1);
        let mut store = load(1);
        store.class = AccessClass::Store;
        c.fill(&store);
        // Evict by filling a different line.
        let ev = c.fill(&load(2)).expect("eviction");
        assert!(ev.dirty);
        assert!(!ev.reused);
        assert_eq!(ev.class, AccessClass::Store);
        assert_eq!(c.writebacks(), 1);
        assert_eq!(c.eviction_stats(), (1, 1));
    }

    #[test]
    fn reused_block_not_counted_dead() {
        let mut c = mk(1, 1);
        c.fill(&load(1));
        c.lookup(&load(1), 0);
        c.fill(&load(2));
        assert_eq!(c.eviction_stats(), (0, 1));
    }

    #[test]
    fn associativity_is_bounded() {
        let mut c = mk(2, 2);
        // Four lines mapping to set 0 (even addresses).
        for i in 0..4u64 {
            c.fill(&load(i * 2));
        }
        let resident = (0..4u64)
            .filter(|&i| c.contains(LineAddr::new(i * 2)))
            .count();
        assert_eq!(resident, 2);
    }

    #[test]
    fn prefetch_fill_then_demand_hit_counts_useful() {
        let mut c = mk(4, 2);
        let p = AccessInfo::prefetch(0, LineAddr::new(8), AccessClass::ReplayData);
        c.insert_miss(&p, 50, 0);
        assert_eq!(c.prefetch_stats(), (1, 0));
        // Prefetch lookups don't pollute class stats.
        assert_eq!(c.stats().total_accesses(), 0);
        let d = AccessInfo::demand(1, LineAddr::new(8), AccessClass::ReplayData);
        assert!(c.lookup(&d, 100).is_some());
        assert_eq!(c.prefetch_stats(), (1, 1));
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = mk(4, 2);
        c.fill(&load(4));
        let mut st = load(4);
        st.class = AccessClass::Store;
        c.lookup(&st, 0);
        // Set 0 has ways {4}; fill 8 (second way) then 12 to force the
        // eviction of line 4 (LRU after the store hit refreshed... fill 8
        // makes it newer, so 4 is LRU).
        c.fill(&load(8));
        let ev = c.fill(&load(12)).expect("line 4 evicted");
        assert_eq!(ev.addr, LineAddr::new(4));
        assert!(ev.dirty);
    }

    #[test]
    fn refill_of_resident_line_evicts_nothing() {
        let mut c = mk(2, 2);
        c.fill(&load(2));
        assert!(c.fill(&load(2)).is_none());
        assert!(c.contains(LineAddr::new(2)));
    }

    #[test]
    fn demand_refill_updates_class_and_consumes_prefetched_state() {
        // Regression: the resident-refill path used to update only
        // `dirty`, leaving the prefetch's class in eviction accounting
        // and the `prefetched` flag armed.
        let mut c = mk(1, 1);
        let pf = AccessInfo::prefetch(0, LineAddr::new(5), AccessClass::NonReplayData);
        c.fill(&pf);
        // Demand refill of the resident line with a different class.
        let demand = AccessInfo::demand(1, LineAddr::new(5), AccessClass::ReplayData);
        assert!(c.fill(&demand).is_none());
        // The refill consumed the block: a later demand hit is not a
        // "useful prefetch" anymore.
        c.lookup(&demand, 0);
        assert_eq!(c.prefetch_stats(), (1, 0));
        // Eviction accounting attributes the block to the demand class.
        let ev = c.fill(&load(7)).expect("eviction");
        assert_eq!(ev.class, AccessClass::ReplayData);
        assert_eq!(c.eviction_stats_for(AccessClass::ReplayData), (0, 1));
        assert_eq!(c.eviction_stats_for(AccessClass::NonReplayData), (0, 0));
    }

    #[test]
    fn prefetch_refill_keeps_prefetched_state() {
        let mut c = mk(1, 1);
        let pf = AccessInfo::prefetch(0, LineAddr::new(5), AccessClass::ReplayData);
        c.fill(&pf);
        c.fill(&pf);
        // Still counts as a useful prefetch when demand arrives.
        let d = AccessInfo::demand(1, LineAddr::new(5), AccessClass::ReplayData);
        assert!(c.lookup(&d, 0).is_some());
        assert_eq!(c.prefetch_stats().1, 1);
    }

    #[test]
    fn recall_probe_filters_classes() {
        let mut c = mk(1, 1);
        c.enable_recall_probe(32, &[AccessClass::Translation(PtLevel::L1)]);
        // Data line evicted: not tracked.
        c.fill(&load(1));
        c.fill(&load(2));
        assert_eq!(c.recall_probe().unwrap().open_windows(), 0);
        // Translation line evicted: tracked.
        let t = AccessInfo::demand(9, LineAddr::new(3), AccessClass::Translation(PtLevel::L1));
        c.fill(&t);
        c.fill(&load(4));
        assert_eq!(c.recall_probe().unwrap().open_windows(), 1);
    }

    #[test]
    fn recall_class_mask_distinguishes_translation_levels() {
        // The bitmask must be exact per page-table level, not bucketed
        // like `stat_index` (which merges non-leaf levels).
        let mut c = mk(1, 1);
        c.enable_recall_probe(32, &[AccessClass::Translation(PtLevel::L2)]);
        let l3 = AccessInfo::demand(9, LineAddr::new(1), AccessClass::Translation(PtLevel::L3));
        c.fill(&l3);
        c.fill(&load(2));
        assert_eq!(c.recall_probe().unwrap().open_windows(), 0);
        let l2 = AccessInfo::demand(9, LineAddr::new(3), AccessClass::Translation(PtLevel::L2));
        c.fill(&l2);
        c.fill(&load(4));
        assert_eq!(c.recall_probe().unwrap().open_windows(), 1);
    }

    #[test]
    fn fills_counted_by_class_excluding_refills_and_prefetches() {
        let mut c = mk(1, 2);
        c.fill(&load(1));
        c.fill(&load(1)); // resident refill: not a new fill
        let t = AccessInfo::demand(9, LineAddr::new(3), AccessClass::Translation(PtLevel::L1));
        c.fill(&t);
        let pf = AccessInfo::prefetch(0, LineAddr::new(5), AccessClass::ReplayData);
        c.fill(&pf); // prefetch insertion: counted as prefetch, not class
        let fills = c.fills_by_class();
        assert_eq!(fills[AccessClass::NonReplayData.stat_index()], 1);
        assert_eq!(fills[t.class.stat_index()], 1);
        assert_eq!(fills[AccessClass::ReplayData.stat_index()], 0);
        assert_eq!(c.prefetch_stats().0, 1);
    }

    #[test]
    fn translation_evictions_attributed_to_incoming_fill() {
        let mut c = mk(1, 1);
        let t = AccessInfo::demand(9, LineAddr::new(1), AccessClass::Translation(PtLevel::L1));
        // PTE evicted by a demand load.
        c.fill(&t);
        c.fill(&load(2));
        // PTE evicted by a prefetch.
        c.fill(&t);
        let pf = AccessInfo::prefetch(0, LineAddr::new(4), AccessClass::ReplayData);
        c.fill(&pf);
        // Data evicted by data: no PTE attribution.
        c.fill(&load(6));
        let by = c.translation_evicted_by();
        assert_eq!(by[AccessClass::NonReplayData.stat_index()], 1);
        assert_eq!(by[Cache::PREFETCH_EVICTOR], 1);
        assert_eq!(by.iter().sum::<u64>(), 2);
        assert_eq!(c.pte_eviction_stats(), (2, 2), "both PTEs died unreused");
    }

    #[test]
    fn pte_eviction_stats_sum_all_levels() {
        let mut c = mk(1, 1);
        let leaf = AccessInfo::demand(9, LineAddr::new(1), AccessClass::Translation(PtLevel::L1));
        let upper = AccessInfo::demand(9, LineAddr::new(3), AccessClass::Translation(PtLevel::L4));
        c.fill(&leaf);
        c.lookup(&leaf, 0); // reused
        c.fill(&upper); // evicts leaf (reused)
        c.fill(&load(5)); // evicts upper (dead)
        assert_eq!(c.pte_eviction_stats(), (1, 2));
        c.reset_stats();
        assert_eq!(c.pte_eviction_stats(), (0, 0));
        assert_eq!(c.fills_by_class().iter().sum::<u64>(), 0);
        assert_eq!(c.translation_evicted_by().iter().sum::<u64>(), 0);
    }

    #[test]
    fn locate_finds_resident_way() {
        let mut c = mk(4, 2);
        c.fill(&load(12));
        let (set, way) = c.locate(LineAddr::new(12)).unwrap();
        assert_eq!(set, 0);
        assert!(way < 2);
        assert_eq!(c.locate(LineAddr::new(999)), None);
    }
}
