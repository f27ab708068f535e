//! Property-style tests over the core data structures and invariants:
//! page table, TLB LRU, caches, RRIP bounds, recall probe, MSHR merging,
//! and histograms.
//!
//! Each test runs many randomized cases driven by the in-tree seeded
//! [`SimRng`] (no external property-testing dependency), so failures
//! reproduce deterministically: the panic message names the fixed seed
//! and case index.

use atc_cache::policy::{Drrip, Lru, ReplacementPolicy, Ship, Srrip, RRPV_MAX};
use atc_cache::{Cache, Mshr};
use atc_prefetch::{PrefetchContext, PrefetchRequest, Prefetcher};
use atc_stats::recall::RecallProbe;
use atc_stats::Histogram;
use atc_types::{AccessClass, AccessInfo, LineAddr, PtLevel, SimRng, VirtAddr, Vpn};
use atc_vm::{PageTable, Tlb};
use atc_workloads::trace::{Trace, TraceReplay};
use atc_workloads::{Instr, MemOp, Workload};
use std::collections::{HashMap, HashSet, VecDeque};

/// Randomized cases per property.
const CASES: u64 = 48;

/// Per-case RNG: deterministic, distinct across tests and cases.
fn rng_for(test_tag: u64, case: u64) -> SimRng {
    SimRng::seed_from_u64(0x5EED_0000_0000_0000 ^ (test_tag << 32) ^ case)
}

/// `len` uniform in `[lo, hi)`.
fn rand_len(rng: &mut SimRng, lo: u64, hi: u64) -> usize {
    (lo + rng.next_below(hi - lo)) as usize
}

#[test]
fn page_table_translations_are_stable_and_unique() {
    for case in 0..CASES {
        let mut rng = rng_for(1, case);
        let n = rand_len(&mut rng, 1, 200);
        let vpns: Vec<u64> = (0..n).map(|_| rng.next_below(1 << 30)).collect();
        let mut pt = PageTable::new();
        let mut seen: HashMap<u64, _> = HashMap::new();
        for &v in &vpns {
            let pfn = pt.ensure_mapped(Vpn::new(v));
            if let Some(prev) = seen.insert(v, pfn) {
                assert_eq!(prev, pfn, "case {case}: remap changed translation");
            }
        }
        // Distinct VPNs never share a frame.
        let frames: HashSet<_> = seen.values().collect();
        assert_eq!(frames.len(), seen.len(), "case {case}: frame collision");
        // And translate() agrees with ensure_mapped().
        for (&v, &pfn) in &seen {
            assert_eq!(pt.translate(Vpn::new(v)), Some(pfn), "case {case}: vpn {v}");
        }
    }
}

#[test]
fn pte_addresses_never_collide_across_vpns() {
    for case in 0..CASES {
        let mut rng = rng_for(2, case);
        let target = rand_len(&mut rng, 2, 64);
        let mut vpns = HashSet::new();
        while vpns.len() < target {
            vpns.insert(rng.next_below(1 << 24));
        }
        let mut pt = PageTable::new();
        for &v in &vpns {
            pt.ensure_mapped(Vpn::new(v));
        }
        // Leaf PTE byte addresses are unique per VPN.
        let mut seen = HashSet::new();
        for &v in &vpns {
            let a = pt
                .pte_addr(Vpn::new(v), PtLevel::L1)
                .expect("mapped vpn has a leaf PTE");
            assert!(
                seen.insert(a),
                "case {case}: leaf PTE address collision for vpn {v}"
            );
        }
    }
}

#[test]
fn tlb_matches_reference_lru_model() {
    use atc_types::{config::TlbConfig, Pfn};
    for case in 0..CASES {
        let mut rng = rng_for(3, case);
        let n = rand_len(&mut rng, 1, 400);
        // 1-set fully-associative TLB vs a reference LRU list.
        let mut tlb = Tlb::new(&TlbConfig {
            entries: 4,
            ways: 4,
            latency: 1,
        });
        let mut reference: VecDeque<u64> = VecDeque::new(); // front = MRU
        for _ in 0..n {
            let v = rng.next_below(64);
            let is_fill = rng.chance(0.5);
            let vpn = Vpn::new(v * 4); // entries/ways = 1 set: everything maps to set 0
            if is_fill {
                if let Some(pos) = reference.iter().position(|&x| x == v) {
                    reference.remove(pos);
                } else if reference.len() == 4 {
                    reference.pop_back();
                }
                reference.push_front(v);
                tlb.fill(vpn, Pfn::new(v));
            } else {
                let hit = tlb.lookup(vpn).is_some();
                let ref_hit = reference.contains(&v);
                assert_eq!(hit, ref_hit, "case {case}: lookup divergence on {v}");
                if ref_hit {
                    let pos = reference.iter().position(|&x| x == v).unwrap();
                    reference.remove(pos);
                    reference.push_front(v);
                }
            }
        }
    }
}

#[test]
fn cache_never_exceeds_associativity() {
    let sets = 8usize;
    let ways = 4usize;
    for case in 0..CASES {
        let mut rng = rng_for(4, case);
        let n = rand_len(&mut rng, 1, 500);
        let mut c =
            Cache::new("P", sets, ways, 1, 4, Lru::new(sets, ways)).expect("valid test geometry");
        // The cycle advances per access and each fill is ready
        // immediately, so no MSHR entry outlives the access that
        // allocated it (`insert_miss` requires the caller to have ruled
        // out an in-flight fill, as the hierarchy access paths do).
        for t in 0..n as u64 {
            let l = rng.next_below(512);
            let info = AccessInfo::demand(1, LineAddr::new(l), AccessClass::NonReplayData);
            if c.lookup(&info, t).is_none() {
                c.insert_miss(&info, t, t);
            }
        }
        for set in 0..sets as u64 {
            let resident = (0..512u64)
                .filter(|&l| l % sets as u64 == set && c.contains(LineAddr::new(l)))
                .count();
            assert!(
                resident <= ways,
                "case {case}: set {set} holds {resident} lines"
            );
        }
    }
}

/// Reference model of the pre-tag-array cache: per-way `Option<u64>`
/// lines scanned linearly, modulo set selection, first-empty-way fill,
/// and true-LRU stamps — the behavior the split tag array must preserve
/// bit for bit.
struct RefCache {
    sets: usize,
    ways: usize,
    lines: Vec<Option<u64>>,
    stamp: Vec<u64>,
    clock: u64,
}

impl RefCache {
    fn new(sets: usize, ways: usize) -> Self {
        RefCache {
            sets,
            ways,
            lines: vec![None; sets * ways],
            stamp: vec![0; sets * ways],
            clock: 0,
        }
    }

    fn touch(&mut self, slot: usize) {
        self.clock += 1;
        self.stamp[slot] = self.clock;
    }

    /// Access `line`: `(hit, evicted_line)`.
    fn access(&mut self, line: u64) -> (bool, Option<u64>) {
        let set = line as usize % self.sets;
        let base = set * self.ways;
        for w in 0..self.ways {
            if self.lines[base + w] == Some(line) {
                self.touch(base + w);
                return (true, None);
            }
        }
        let way = (0..self.ways)
            .find(|&w| self.lines[base + w].is_none())
            .unwrap_or_else(|| {
                (0..self.ways)
                    .min_by_key(|&w| self.stamp[base + w])
                    .expect("ways > 0")
            });
        let evicted = self.lines[base + way];
        self.lines[base + way] = Some(line);
        self.touch(base + way);
        (false, evicted)
    }

    fn contains(&self, line: u64) -> bool {
        let base = (line as usize % self.sets) * self.ways;
        self.lines[base..base + self.ways].contains(&Some(line))
    }
}

#[test]
fn tag_array_cache_matches_reference_scan_model() {
    // Drive the real cache and the reference through the same 10k-access
    // random streams and demand identical hits, misses, evictions, and
    // final contents.
    let (sets, ways) = (16usize, 4usize);
    for case in 0..8u64 {
        let mut rng = rng_for(15, case);
        let mut c =
            Cache::new("P", sets, ways, 1, 4, Lru::new(sets, ways)).expect("valid test geometry");
        let mut reference = RefCache::new(sets, ways);
        let (mut hits, mut evictions) = (0u64, 0u64);
        // The cycle advances per access with immediately-ready fills so
        // the MSHR stays empty (the reference model has no MSHR; see
        // `insert_miss`'s merge-first contract).
        for i in 0..10_000u64 {
            let line = rng.next_below(4096);
            let info = AccessInfo::demand(1, LineAddr::new(line), AccessClass::NonReplayData);
            let (ref_hit, ref_evicted) = reference.access(line);
            match c.lookup(&info, i) {
                Some(_) => {
                    assert!(ref_hit, "case {case} access {i}: spurious hit on {line}");
                    hits += 1;
                }
                None => {
                    assert!(!ref_hit, "case {case} access {i}: spurious miss on {line}");
                    let (_, ev) = c.insert_miss(&info, i, i);
                    assert_eq!(
                        ev.map(|e| e.addr.raw()),
                        ref_evicted,
                        "case {case} access {i}: eviction divergence on {line}"
                    );
                    evictions += u64::from(ev.is_some());
                }
            }
        }
        let total_hits = c.stats().total_accesses() - c.stats().total_misses();
        assert_eq!(total_hits, hits, "case {case}: hit total");
        assert_eq!(c.eviction_stats().1, evictions, "case {case}: evictions");
        for line in 0..4096u64 {
            assert_eq!(
                c.contains(LineAddr::new(line)),
                reference.contains(line),
                "case {case}: residency divergence on {line}"
            );
        }
    }
}

#[test]
fn srrip_rrpvs_stay_bounded() {
    for case in 0..CASES {
        let mut rng = rng_for(5, case);
        let n = rand_len(&mut rng, 1, 300);
        let mut p = Srrip::new(4, 4);
        let info = AccessInfo::demand(0, LineAddr::new(0), AccessClass::NonReplayData);
        for _ in 0..n {
            let set = rng.next_below(4) as usize;
            let way = rng.next_below(4) as usize;
            match rng.next_below(3) {
                0 => p.on_fill(set, way, &info),
                1 => p.on_hit(set, way, &info),
                _ => {
                    let v = p.victim(set, &info);
                    assert!(v < 4, "case {case}: victim {v} out of range");
                }
            }
            for w in 0..4 {
                assert!(
                    p.rrpv(set, w) <= RRPV_MAX,
                    "case {case}: RRPV out of bounds"
                );
            }
        }
    }
}

#[test]
fn ship_victims_are_always_in_range() {
    for case in 0..CASES {
        let mut rng = rng_for(6, case);
        let n = rand_len(&mut rng, 1, 300);
        let mut p = Ship::new(4, 4);
        for i in 0..n {
            let set = rng.next_below(4) as usize;
            let ip = rng.next_below(32);
            let info = AccessInfo::demand(ip, LineAddr::new(ip), AccessClass::NonReplayData);
            match i % 3 {
                0 => p.on_fill(set, i % 4, &info),
                1 => p.on_hit(set, i % 4, &info),
                _ => {
                    let v = p.victim(set, &info);
                    assert!(v < 4, "case {case}: victim {v} out of range");
                }
            }
        }
    }
}

#[test]
fn recall_probe_matches_naive_reference() {
    for case in 0..CASES {
        let mut rng = rng_for(7, case);
        let n = rand_len(&mut rng, 1, 300);
        // One set; cap high enough to never overflow.
        let mut probe = RecallProbe::new(1, 1000);
        // Reference: open windows as (victim, unique set of lines seen).
        let mut open: Vec<(u64, HashSet<u64>)> = Vec::new();
        let mut recorded: Vec<u64> = Vec::new();
        for _ in 0..n {
            let line = rng.next_below(24);
            let is_evict = rng.chance(0.5);
            if is_evict {
                open.retain(|w| w.0 != line);
                open.push((line, HashSet::new()));
                probe.on_evict(0, LineAddr::new(line));
            } else {
                let mut closed = None;
                open.retain(|w| {
                    if w.0 == line {
                        closed = Some(w.1.len() as u64);
                        false
                    } else {
                        true
                    }
                });
                for w in open.iter_mut() {
                    w.1.insert(line);
                }
                if let Some(d) = closed {
                    recorded.push(d);
                }
                probe.on_access(0, LineAddr::new(line));
            }
        }
        let hist = probe.histogram();
        assert_eq!(hist.count(), recorded.len() as u64, "case {case}: count");
        assert_eq!(hist.sum(), recorded.iter().sum::<u64>(), "case {case}: sum");
    }
}

#[test]
fn mshr_merge_returns_allocated_ready() {
    for case in 0..CASES {
        let mut rng = rng_for(8, case);
        let n = rand_len(&mut rng, 1, 40);
        let mut m = Mshr::new(64).expect("valid capacity");
        let mut expected: HashMap<u64, u64> = HashMap::new();
        for _ in 0..n {
            let line = rng.next_below(64);
            let extra = 1 + rng.next_below(499);
            if let Some(&r) = expected.get(&line) {
                // Merge before expiry must return the stored ready.
                if let Some(got) = m.merge(LineAddr::new(line), 0, false) {
                    assert_eq!(got, r, "case {case}: merge returned wrong ready");
                }
            } else {
                let ready = m.allocate(LineAddr::new(line), 0, extra, false);
                expected.insert(line, ready);
            }
        }
    }
}

#[test]
fn mshr_never_leaks_entries_over_random_fill_drain_cycles() {
    // Robustness property: after arbitrary protocol-honoring
    // interleavings of allocates, merges, and time advances, the file
    // never exceeds its capacity and fully drains once the clock passes
    // every outstanding fill. "Protocol-honoring" means merge-first:
    // a miss allocates only after `merge` found nothing in flight,
    // exactly like every hierarchy access path.
    for case in 0..CASES {
        let mut rng = rng_for(9, case);
        let capacity = 1 + rand_len(&mut rng, 1, 16);
        let mut m = Mshr::new(capacity).expect("valid capacity");
        let mut cycle = 0u64;
        let mut max_ready = 0u64;
        let ops = rand_len(&mut rng, 50, 400);
        for _ in 0..ops {
            match rng.next_below(3) {
                0 => {
                    let line = LineAddr::new(rng.next_below(32));
                    let latency = 1 + rng.next_below(200);
                    let pf = rng.chance(0.3);
                    let ready = match m.merge(line, cycle, pf) {
                        Some(ready) => ready, // already in flight: merged
                        None => m.allocate(line, cycle, cycle + latency, pf),
                    };
                    max_ready = max_ready.max(ready);
                }
                1 => {
                    let line = LineAddr::new(rng.next_below(32));
                    if let Some(ready) = m.merge(line, cycle, rng.chance(0.3)) {
                        assert!(ready > cycle, "case {case}: merged an expired entry");
                        max_ready = max_ready.max(ready);
                    }
                }
                _ => {
                    cycle += rng.next_below(100);
                }
            }
            assert!(
                m.in_flight(cycle) <= capacity,
                "case {case}: {} entries exceed capacity {capacity}",
                m.in_flight(cycle),
            );
        }
        // Drain: once the clock passes every fill, nothing may linger.
        let after = max_ready + 1;
        assert_eq!(
            m.in_flight(after),
            0,
            "case {case}: MSHR leaked entries past cycle {after}"
        );
        assert_eq!(
            m.outstanding_at(after),
            0,
            "case {case}: read-only probe disagrees"
        );
    }
}

/// An independent reference MSHR file: the model as it stood before the
/// compacting sweep. One `Vec` of `(line, ready, is_prefetch)` in
/// register order, swept with `swap_remove` behind a watermark that a
/// merge's retire may leave low, the earliest fill found by a scan. It
/// counts the events the comparison must exercise.
struct RefMshr {
    regs: Vec<(u64, u64, bool)>,
    capacity: usize,
    min_ready: u64,
    merges: u64,
    allocations: u64,
    full_stalls: u64,
    prefetch_useful: u64,
    stale_retires: u64,
}

impl RefMshr {
    fn new(capacity: usize) -> Self {
        RefMshr {
            regs: Vec::new(),
            capacity,
            min_ready: u64::MAX,
            merges: 0,
            allocations: 0,
            full_stalls: 0,
            prefetch_useful: 0,
            stale_retires: 0,
        }
    }

    fn expire(&mut self, cycle: u64) {
        if cycle < self.min_ready {
            return;
        }
        let (mut i, mut min) = (0, u64::MAX);
        while i < self.regs.len() {
            if self.regs[i].1 <= cycle {
                self.regs.swap_remove(i);
            } else {
                min = min.min(self.regs[i].1);
                i += 1;
            }
        }
        self.min_ready = min;
    }

    fn earliest(&self) -> u64 {
        self.regs.iter().map(|r| r.1).min().unwrap()
    }

    fn merge(&mut self, line: u64, cycle: u64, pf: bool) -> Option<u64> {
        let i = self.regs.iter().position(|r| r.0 == line)?;
        if self.regs[i].1 <= cycle {
            self.regs.swap_remove(i);
            self.stale_retires += 1;
            return None;
        }
        self.merges += 1;
        let r = &mut self.regs[i];
        if !pf && r.2 {
            self.prefetch_useful += 1;
            r.2 = false;
        }
        Some(r.1)
    }

    fn allocate(&mut self, line: u64, cycle: u64, ready: u64, pf: bool) -> u64 {
        self.expire(cycle);
        let mut ready = ready;
        if self.regs.len() >= self.capacity {
            let earliest = self.earliest();
            ready += earliest.saturating_sub(cycle);
            self.full_stalls += 1;
            self.expire(earliest);
        }
        self.allocations += 1;
        self.regs.push((line, ready, pf));
        self.min_ready = self.min_ready.min(ready);
        ready
    }

    fn full_wakeup(&mut self, cycle: u64) -> Option<u64> {
        self.expire(cycle);
        if self.regs.len() < self.capacity {
            return None;
        }
        self.full_stalls += 1;
        Some(self.earliest())
    }

    fn in_flight(&mut self, cycle: u64) -> usize {
        self.expire(cycle);
        self.regs.len()
    }

    fn outstanding_at(&self, cycle: u64) -> usize {
        self.regs.iter().filter(|r| r.1 > cycle).count()
    }
}

#[test]
fn mshr_matches_reference_model() {
    // Call cycles wander back and forth around a slowly advancing clock,
    // as walks and prefetches probe ahead of the next dispatch, so when
    // an entry is swept is observable. A small line pool makes merges,
    // retires of completed fills and full stalls common; its lines are
    // random 40-bit words, so some share a presence-filter bit.
    let (mut merges, mut retires, mut stalls, mut wakeups, mut useful) = (0, 0, 0, 0, 0);
    for case in 0..CASES {
        let mut rng = rng_for(15, case);
        let capacity = [1, 2, 16][case as usize % 3];
        let pool: Vec<u64> = (0..capacity + 3).map(|_| rng.next_below(1 << 40)).collect();
        let mut m = Mshr::new(capacity).expect("valid capacity");
        let mut reference = RefMshr::new(capacity);
        let mut now = 0u64;
        for step in 0..rand_len(&mut rng, 300, 1200) {
            let cycle = now + rng.next_below(256);
            let line = pool[rng.next_below(pool.len() as u64) as usize];
            let pf = rng.chance(0.3);
            let what = match rng.next_below(10) {
                0..=3 => {
                    // One access: merge first, allocate on a miss.
                    let got = m.merge(LineAddr::new(line), cycle, pf);
                    assert_eq!(
                        got,
                        reference.merge(line, cycle, pf),
                        "case {case} step {step}"
                    );
                    if got.is_none() {
                        let ready = cycle + 1 + rng.next_below(128);
                        assert_eq!(
                            m.allocate(LineAddr::new(line), cycle, ready, pf),
                            reference.allocate(line, cycle, ready, pf),
                            "case {case} step {step}: allocate"
                        );
                    }
                    "access"
                }
                4 | 5 => {
                    let got = m.merge(LineAddr::new(line), cycle, pf);
                    assert_eq!(
                        got,
                        reference.merge(line, cycle, pf),
                        "case {case} step {step}"
                    );
                    "merge"
                }
                6 => {
                    let got = m.in_flight(cycle);
                    assert_eq!(got, reference.in_flight(cycle), "case {case} step {step}");
                    "in_flight"
                }
                7 => {
                    let got = m.full_wakeup(cycle);
                    assert_eq!(got, reference.full_wakeup(cycle), "case {case} step {step}");
                    wakeups += u64::from(got.is_some());
                    "full_wakeup"
                }
                _ => {
                    now += rng.next_below(48);
                    "advance"
                }
            };
            for probe in [cycle, now, now + 96] {
                assert_eq!(
                    m.outstanding_at(probe),
                    reference.outstanding_at(probe),
                    "case {case} step {step} after {what}: outstanding_at({probe})"
                );
            }
            let counters = (
                m.merges(),
                m.allocations(),
                m.full_stalls(),
                m.prefetch_useful_merges(),
            );
            let want = (
                reference.merges,
                reference.allocations,
                reference.full_stalls,
                reference.prefetch_useful,
            );
            assert_eq!(
                counters, want,
                "case {case} step {step} after {what}: counters"
            );
        }
        merges += reference.merges;
        retires += reference.stale_retires;
        stalls += reference.full_stalls;
        useful += reference.prefetch_useful;
    }
    assert!(merges > 1000, "merges barely exercised: {merges}");
    assert!(retires > 100, "stale retires barely exercised: {retires}");
    assert!(stalls > 1000, "full stalls barely exercised: {stalls}");
    assert!(wakeups > 500, "full wakeups barely exercised: {wakeups}");
    assert!(
        useful > 100,
        "late-but-useful prefetches barely exercised: {useful}"
    );
}

#[test]
fn drrip_victims_in_range_and_psel_bounded() {
    for case in 0..CASES {
        let mut rng = rng_for(10, case);
        let n = rand_len(&mut rng, 1, 400);
        let mut p = Drrip::new(64, 8);
        let info = AccessInfo::demand(3, LineAddr::new(0), AccessClass::NonReplayData);
        for i in 0..n {
            let set = rng.next_below(64) as usize;
            match rng.next_below(3) {
                0 => p.on_fill(set, i % 8, &info),
                1 => p.on_hit(set, i % 8, &info),
                _ => {
                    let v = p.victim(set, &info);
                    assert!(v < 8, "case {case}: victim {v} out of range");
                }
            }
            assert!(p.psel() <= 1023, "case {case}: PSEL overflow");
        }
    }
}

#[test]
fn spatial_prefetchers_never_cross_pages() {
    for case in 0..CASES {
        let mut rng = rng_for(11, case);
        let n = rand_len(&mut rng, 1, 300);
        let mut spp = atc_prefetch::Spp::new();
        let mut bingo = atc_prefetch::Bingo::new();
        for _ in 0..n {
            let l = rng.next_below(1 << 20);
            let ctx = PrefetchContext {
                ip: 9,
                line: LineAddr::new(l),
                vaddr: VirtAddr::new(l << 6),
                hit: false,
            };
            for req in spp.on_access(&ctx).into_iter().chain(bingo.on_access(&ctx)) {
                match req {
                    PrefetchRequest::Phys(p) => {
                        assert_eq!(p.raw() >> 6, l >> 6, "case {case}: crossed a page boundary");
                    }
                    PrefetchRequest::Virt(_) => {
                        panic!("case {case}: spatial PF emitted virtual")
                    }
                }
            }
        }
    }
}

/// An independent reference SPP: the model as first written, on `std`
/// SipHash maps with a heap `Vec` of deltas per signature, sharing
/// nothing with `atc_prefetch::Spp` but the request type. It counts
/// evictions among tied weakest deltas and lookups among tied strongest
/// ones, so the test can show it exercised both tie-breaks.
#[derive(Default)]
struct RefSpp {
    /// page → (signature, last offset).
    pages: HashMap<u64, (u16, u8)>,
    patterns: HashMap<u16, RefPattern>,
    tied_evictions: u64,
    tied_best: u64,
}

#[derive(Default)]
struct RefPattern {
    deltas: Vec<(i8, u32)>,
    total: u32,
}

impl RefSpp {
    fn train(&mut self, sig: u16, delta: i8) {
        let p = self.patterns.entry(sig).or_default();
        p.total += 1;
        if let Some(e) = p.deltas.iter_mut().find(|e| e.0 == delta) {
            e.1 += 1;
            return;
        }
        if p.deltas.len() >= 4 {
            // The first of the weakest goes; the last entry takes its slot.
            let (i, &(_, c)) = p
                .deltas
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.1)
                .unwrap();
            if p.deltas.iter().filter(|e| e.1 == c).count() > 1 {
                self.tied_evictions += 1;
            }
            p.deltas.swap_remove(i);
        }
        p.deltas.push((delta, 1));
    }

    /// The last of the strongest deltas and its confidence.
    fn best(&mut self, sig: u16) -> Option<(i8, f64)> {
        let p = self.patterns.get(&sig)?;
        let &(d, c) = p.deltas.iter().max_by_key(|e| e.1)?;
        if p.deltas.iter().filter(|e| e.1 == c).count() > 1 {
            self.tied_best += 1;
        }
        Some((d, c as f64 / p.total as f64))
    }

    fn on_access(&mut self, line: u64) -> Vec<PrefetchRequest> {
        let sig_of = |sig: u16, delta: i8| ((sig << 3) ^ (delta as u16 & 0x3F)) & 0xFFF;
        let (page, offset) = (line >> 6, (line & 0x3F) as u8);
        if self.pages.len() >= 4096 && !self.pages.contains_key(&page) {
            self.pages.clear();
        }
        let (sig, trained) = match self.pages.get(&page).copied() {
            None => {
                self.pages.insert(page, (0, offset));
                (0, false)
            }
            Some((sig, last)) if offset == last => (sig, false),
            Some((sig, last)) => {
                let delta = offset as i8 - last as i8;
                self.train(sig, delta);
                let next = sig_of(sig, delta);
                self.pages.insert(page, (next, offset));
                (next, true)
            }
        };
        let mut out = Vec::new();
        if !trained && sig == 0 {
            return out;
        }
        let (mut sig, mut conf, mut off) = (sig, 1.0f64, offset as i64);
        for _ in 0..4 {
            let Some((delta, c)) = self.best(sig) else {
                break;
            };
            conf *= c;
            off += delta as i64;
            if conf < 0.4 || !(0..64).contains(&off) {
                break;
            }
            out.push(PrefetchRequest::Phys(LineAddr::new(
                (page << 6) | off as u64,
            )));
            sig = sig_of(sig, delta);
        }
        out
    }
}

#[test]
fn spp_matches_reference_model() {
    let (mut emitted, mut tied_evictions, mut tied_best, mut page_clears) = (0, 0, 0, 0);
    for case in 0..CASES {
        let mut rng = rng_for(14, case);
        let mut spp = atc_prefetch::Spp::new();
        let mut reference = RefSpp::default();
        // Per-case stream shape: 0 random lines over 8192 pages (enough
        // distinct pages to clear the page table), 1 per-page strides,
        // 2 a random walk over a few pages drawing from six deltas, so
        // signatures see more than four deltas and tied counters.
        let kind = case % 3;
        let n = rand_len(&mut rng, 2000, 9000);
        let mut cursor = [0u64; 8];
        let strides: Vec<u64> = (0..8).map(|_| 1 + rng.next_below(3)).collect();
        let mut pages_seen = HashSet::new();
        for i in 0..n {
            let line = match kind {
                0 => rng.next_below(1 << 19),
                1 => {
                    let p = rng.next_below(8) as usize;
                    cursor[p] = (cursor[p] + strides[p]) % 64;
                    ((p as u64 + 100) << 6) | cursor[p]
                }
                _ => {
                    let p = rng.next_below(4) as usize;
                    let delta = [1u64, 2, 3, 5, 62, 63][rng.next_below(6) as usize];
                    cursor[p] = (cursor[p] + delta) % 64;
                    ((p as u64 + 7) << 6) | cursor[p]
                }
            };
            if pages_seen.insert(line >> 6) && pages_seen.len() > 4096 {
                pages_seen.clear();
                pages_seen.insert(line >> 6);
                page_clears += 1;
            }
            let ctx = PrefetchContext {
                ip: 3,
                line: LineAddr::new(line),
                vaddr: VirtAddr::new(line << 6),
                hit: false,
            };
            let want = reference.on_access(line);
            let got = spp.on_access(&ctx);
            assert_eq!(&*got, &want[..], "case {case} access {i} line {line}");
            emitted += want.len();
        }
        tied_evictions += reference.tied_evictions;
        tied_best += reference.tied_best;
    }
    assert!(emitted > 1000, "streams too quiet: {emitted} candidates");
    assert!(
        tied_evictions > 100,
        "tied evictions barely exercised: {tied_evictions}"
    );
    assert!(
        tied_best > 100,
        "best-delta ties barely exercised: {tied_best}"
    );
    assert!(page_clears > 0, "page-table clear never exercised");
}

/// An independent reference Bingo: the model as first written, on `std`
/// SipHash maps, evicting the least recently touched active region by a
/// scan over all of them. It counts evictions and history predictions.
#[derive(Default)]
struct RefBingo {
    /// region → (trigger ip, trigger offset, footprint, last touch).
    active: HashMap<u64, (u64, u64, u64, u64)>,
    by_ip_addr: HashMap<(u64, u64), u64>,
    by_ip_offset: HashMap<(u64, u64), u64>,
    clock: u64,
    evictions: u64,
    predictions: u64,
    history_clears: u64,
}

impl RefBingo {
    fn on_access(&mut self, ip: u64, line: u64) -> Vec<PrefetchRequest> {
        self.clock += 1;
        let (region, offset) = (line / 64, line % 64);
        if let Some(r) = self.active.get_mut(&region) {
            r.2 |= 1 << offset;
            r.3 = self.clock;
            return Vec::new();
        }
        if self.active.len() >= 128 {
            let (&oldest, _) = self.active.iter().min_by_key(|(_, r)| r.3).unwrap();
            let (tip, toff, footprint, _) = self.active.remove(&oldest).unwrap();
            for table in [&mut self.by_ip_addr, &mut self.by_ip_offset] {
                if table.len() >= 8192 {
                    table.clear();
                    self.history_clears += 1;
                }
            }
            self.by_ip_addr.insert((tip, oldest), footprint);
            self.by_ip_offset.insert((tip, toff), footprint);
            self.evictions += 1;
        }
        self.active
            .insert(region, (ip, offset, 1 << offset, self.clock));
        let footprint = self
            .by_ip_addr
            .get(&(ip, region))
            .or_else(|| self.by_ip_offset.get(&(ip, offset)))
            .copied()
            .unwrap_or(0);
        self.predictions += u64::from(footprint != 0);
        (0..64)
            .filter(|&b| b != offset && footprint >> b & 1 == 1)
            .take(4)
            .map(|b| PrefetchRequest::Phys(LineAddr::new(region * 64 + b)))
            .collect()
    }
}

#[test]
fn bingo_matches_reference_model() {
    let (mut emitted, mut evictions, mut predictions, mut clears) = (0, 0, 0, 0);
    for case in 0..CASES {
        let mut rng = rng_for(16, case);
        let mut bingo = atc_prefetch::Bingo::new();
        let mut reference = RefBingo::default();
        // A few hundred regions, each visited in bursts: more than the
        // 128 active regions, so the table evicts and re-entered
        // regions replay their footprints. Every eighth case is long
        // and draws from enough regions to clear the history table.
        let (regions, n) = if case % 8 == 7 {
            (1 << 20, 45_000)
        } else {
            (150 + rng.next_below(300), rand_len(&mut rng, 2000, 9000))
        };
        let mut i = 0;
        while i < n {
            let region = rng.next_below(regions);
            let ip = 1 + rng.next_below(6);
            for _ in 0..rand_len(&mut rng, 1, 8) {
                let line = region * 64 + rng.next_below(16) * (1 + ip % 3);
                let ctx = PrefetchContext {
                    ip,
                    line: LineAddr::new(line),
                    vaddr: VirtAddr::new(line << 6),
                    hit: false,
                };
                let want = reference.on_access(ip, line);
                let got = bingo.on_access(&ctx);
                assert_eq!(&*got, &want[..], "case {case} access {i} line {line}");
                emitted += want.len();
                i += 1;
            }
        }
        evictions += reference.evictions;
        predictions += reference.predictions;
        clears += reference.history_clears;
    }
    assert!(emitted > 100_000, "streams too quiet: {emitted} candidates");
    assert!(
        evictions > 50_000,
        "evictions barely exercised: {evictions}"
    );
    assert!(
        predictions > 50_000,
        "predictions barely exercised: {predictions}"
    );
    assert!(clears > 0, "history-table clear never exercised");
}

#[test]
fn isb_only_predicts_previously_seen_lines() {
    for case in 0..CASES {
        let mut rng = rng_for(12, case);
        let n = rand_len(&mut rng, 1, 300);
        let mut isb = atc_prefetch::Isb::new();
        let mut seen = HashSet::new();
        for _ in 0..n {
            let l = rng.next_below(4096);
            let ctx = PrefetchContext {
                ip: 5,
                line: LineAddr::new(l),
                vaddr: VirtAddr::new(l << 6),
                hit: false,
            };
            for req in isb.on_access(&ctx) {
                if let PrefetchRequest::Phys(p) = req {
                    assert!(
                        seen.contains(&p.raw()),
                        "case {case}: ISB invented line {}",
                        p.raw()
                    );
                }
            }
            seen.insert(l);
        }
    }
}

#[test]
fn trace_serialization_round_trips() {
    for case in 0..CASES {
        let mut rng = rng_for(13, case);
        let n = rand_len(&mut rng, 1, 200);
        let mut t = Trace::new();
        let mut originals = Vec::new();
        for _ in 0..n {
            let ip = rng.next_below(1 << 48);
            let addr = rng.next_below(1 << 57);
            let i = match rng.next_below(4) {
                0 => Instr::alu(ip),
                1 => Instr::load(ip, VirtAddr::new(addr)),
                2 => Instr::load_dep(ip, VirtAddr::new(addr)),
                _ => Instr::store(ip, VirtAddr::new(addr)),
            };
            t.push(&i);
            originals.push(i);
        }
        let mut buf = Vec::new();
        t.to_writer(&mut buf).unwrap();
        let t2 = Trace::from_reader(&buf[..]).unwrap();
        let mut rp = TraceReplay::new(t2);
        for orig in &originals {
            let got = rp.next_instr();
            assert_eq!(&got, orig, "case {case}: trace round-trip diverged");
        }
    }
}

#[test]
fn workload_memops_stay_in_57_bits() {
    use atc_workloads::{BenchmarkId, Scale};
    for seed in 0..CASES {
        for b in [BenchmarkId::Pr, BenchmarkId::Mcf, BenchmarkId::Canneal] {
            let mut wl = b.build(Scale::Test, seed);
            for _ in 0..500 {
                if let Some(MemOp::Load(a) | MemOp::Store(a)) = wl.next_instr().op {
                    assert!(
                        a.raw() < 1 << 57,
                        "seed {seed}: {} emitted a >57-bit VA",
                        b.name()
                    );
                }
            }
        }
    }
}

#[test]
fn histogram_count_and_sum_are_exact() {
    for case in 0..CASES {
        let mut rng = rng_for(14, case);
        let n = rand_len(&mut rng, 0, 200);
        let samples: Vec<u64> = (0..n).map(|_| rng.next_below(10_000)).collect();
        let mut h = Histogram::new(10, 50);
        for &s in &samples {
            h.record(s);
        }
        assert_eq!(h.count(), samples.len() as u64, "case {case}: count");
        assert_eq!(h.sum(), samples.iter().sum::<u64>(), "case {case}: sum");
        assert_eq!(
            h.max(),
            samples.iter().max().copied().unwrap_or(0),
            "case {case}: max"
        );
        let below = h.fraction_below(100);
        let expect = if samples.is_empty() {
            0.0
        } else {
            samples.iter().filter(|&&s| s < 100).count() as f64 / samples.len() as f64
        };
        assert!((below - expect).abs() < 1e-9, "case {case}: fraction_below");
    }
}

#[test]
fn telemetry_counters_reconcile_with_run_stats_exactly() {
    use atc_sim::{run_one, SimConfig, TelemetryConfig};
    use atc_workloads::{BenchmarkId, Scale};
    // Full simulator runs are costly; a handful of randomized
    // (benchmark, seed, length) cases still exercises every counter.
    let benches = [
        BenchmarkId::Mcf,
        BenchmarkId::Canneal,
        BenchmarkId::Pr,
        BenchmarkId::Xalancbmk,
    ];
    for case in 0..8 {
        let mut rng = rng_for(16, case);
        let bench = benches[rng.next_below(benches.len() as u64) as usize];
        let seed = rng.next_below(1 << 20);
        let measure = 20_000 + rng.next_below(20_000);
        let mut cfg = SimConfig::baseline();
        cfg.machine.stlb.entries = 256; // force walks at Test scale
        cfg.probes.telemetry = Some(TelemetryConfig {
            span_sample_every: 1 + rng.next_below(64),
            span_capacity: 128,
        });
        let s = run_one(&cfg, bench, Scale::Test, seed, 5_000, measure)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        let t = s.telemetry.as_ref().expect("telemetry attached");
        let c = |name: &str| {
            t.counter(name)
                .unwrap_or_else(|| panic!("case {case}: counter {name} missing"))
        };

        // The snapshot copies its counters from RunStats and the caches;
        // they must agree bit-for-bit. The latency histograms below are
        // fed by the hot hooks alone, so their sample counts are the
        // independent check.
        assert_eq!(c("core.instructions"), s.core.instructions, "case {case}");
        assert_eq!(c("core.cycles"), s.core.cycles, "case {case}");
        assert_eq!(c("walk.count"), s.walks, "case {case}");
        assert_eq!(
            c("replay.count"),
            s.service_replay.iter().sum::<u64>(),
            "case {case}"
        );
        for (i, lvl) in ["l1d", "l2c", "llc", "dram"].iter().enumerate() {
            assert_eq!(
                t.counter(&format!("walk.leaf_served.{lvl}")),
                Some(s.service_translation[i]),
                "case {case}: walk.leaf_served.{lvl}"
            );
            assert_eq!(
                t.counter(&format!("replay.served.{lvl}")),
                Some(s.service_replay[i]),
                "case {case}: replay.served.{lvl}"
            );
        }
        assert_eq!(
            c("stall.translation_cycles"),
            s.core.stalls.stlb_walk,
            "case {case}"
        );
        assert_eq!(
            c("stall.replay_cycles"),
            s.core.stalls.replay_data,
            "case {case}"
        );
        assert_eq!(
            c("stall.regular_cycles"),
            s.core.stalls.non_replay_data,
            "case {case}"
        );
        assert_eq!(c("tlb.dtlb.hits"), s.dtlb.hits, "case {case}");
        assert_eq!(c("tlb.stlb.misses"), s.stlb.misses, "case {case}");
        assert_eq!(c("psc.hits"), s.psc.0, "case {case}");
        assert_eq!(c("dram.requests"), s.dram.requests, "case {case}");
        for (lvl, cc) in [("l1d", &s.l1d), ("l2c", &s.l2c), ("llc", &s.llc)] {
            let hits = c(&format!("{lvl}.hits.translation"))
                + c(&format!("{lvl}.hits.replay"))
                + c(&format!("{lvl}.hits.regular"));
            let misses = c(&format!("{lvl}.misses.translation"))
                + c(&format!("{lvl}.misses.replay"))
                + c(&format!("{lvl}.misses.regular"));
            assert_eq!(misses, cc.total_misses(), "case {case}: {lvl} misses");
            assert_eq!(
                hits + misses,
                cc.total_accesses(),
                "case {case}: {lvl} accesses"
            );
        }
        assert_eq!(
            (c("l2c.pte_evict.dead"), c("l2c.pte_evict.total")),
            s.l2c_pte_evictions,
            "case {case}: l2c pte evictions"
        );
        assert_eq!(
            (c("llc.pte_evict.dead"), c("llc.pte_evict.total")),
            s.llc_pte_evictions,
            "case {case}: llc pte evictions"
        );
        // Walk/replay latency histograms observe one sample per event.
        let wh = t.histogram("walk.latency_cycles").expect("walk hist");
        assert_eq!(wh.count(), s.walks, "case {case}: walk latency samples");
        let rh = t.histogram("replay.latency_cycles").expect("replay hist");
        assert_eq!(
            rh.count(),
            s.service_replay.iter().sum::<u64>(),
            "case {case}: replay latency samples"
        );
    }
}
