//! Hawkeye (Jain & Lin, ISCA 2016): replacement trained against Belady's
//! OPT over a sampled history.
//!
//! * **OPTgen** replays the access stream of sampled sets with an
//!   occupancy vector to decide whether OPT would have hit each reuse;
//! * the **Hawkeye predictor** (3-bit counters indexed by signature)
//!   learns which signatures load cache-friendly blocks;
//! * blocks predicted friendly insert at RRPV=0, averse at RRPV=7
//!   (3-bit RRPV), and friendly insertions age the rest of the set.
//!
//! As with SHiP, the [`SignatureMode`] parameter selects between the
//! original IP signature and the paper's per-class translation-conscious
//! signature (T-Hawkeye).

use atc_types::{AccessInfo, FastMap, LineAddr, SignatureMode};

use super::{fold_hash16, ReplacementPolicy, SatCounter};

/// 3-bit RRPV maximum (cache-averse).
pub const HK_RRPV_MAX: u8 = 7;
/// Friendly blocks age up to 6, never becoming averse by aging alone.
const HK_AGE_LIMIT: u8 = 6;
/// Predictor entries (13-bit index).
const PREDICTOR_ENTRIES: usize = 8 * 1024;
/// 3-bit predictor counters.
const PREDICTOR_MAX: u32 = 7;
/// Sample every 16th set.
const SAMPLE_STRIDE: usize = 16;

#[derive(Debug, Clone, Copy)]
struct LineMeta {
    rrpv: u8,
    signature: u16,
    friendly: bool,
    outcome: bool,
    valid: bool,
}

/// OPTgen state for one sampled set.
#[derive(Debug)]
struct Sampler {
    /// Usage history window in set-local time quanta (8 × ways).
    window: u64,
    capacity: u32,
    time: u64,
    /// line → (last access time, signature index of last accessor).
    last: FastMap<LineAddr, (u64, u16)>,
    /// Circular occupancy vector indexed by `time % window`.
    occupancy: Vec<u32>,
}

/// Outcome of an OPTgen query for one reuse.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum OptDecision {
    Hit(u16),  // OPT hits; train this signature up
    Miss(u16), // OPT misses; train this signature down
    Cold,      // first touch: no training
}

impl Sampler {
    fn new(ways: usize) -> Self {
        let window = (8 * ways) as u64;
        Sampler {
            window,
            capacity: ways as u32,
            time: 0,
            last: FastMap::default(),
            occupancy: vec![0; window as usize],
        }
    }

    /// Record an access and return OPT's verdict for the reuse it closes.
    fn access(&mut self, line: LineAddr, sig: u16) -> OptDecision {
        let t = self.time;
        self.time += 1;
        // Open the new time slot.
        self.occupancy[(t % self.window) as usize] = 0;
        let decision = match self.last.get(&line) {
            Some(&(t_prev, sig_prev)) if t - t_prev < self.window && t > t_prev => {
                let fits =
                    (t_prev..t).all(|i| self.occupancy[(i % self.window) as usize] < self.capacity);
                if fits {
                    for i in t_prev..t {
                        self.occupancy[(i % self.window) as usize] += 1;
                    }
                    OptDecision::Hit(sig_prev)
                } else {
                    OptDecision::Miss(sig_prev)
                }
            }
            Some(&(_, sig_prev)) => OptDecision::Miss(sig_prev), // beyond window
            None => OptDecision::Cold,
        };
        self.last.insert(line, (t, sig));
        // Bound the map: drop entries outside the history window.
        if self.last.len() > 4 * self.window as usize {
            let horizon = t.saturating_sub(self.window);
            self.last.retain(|_, &mut (lt, _)| lt >= horizon);
        }
        decision
    }
}

/// The Hawkeye replacement policy.
#[derive(Debug)]
pub struct Hawkeye {
    meta: Vec<LineMeta>,
    ways: usize,
    predictor: Vec<SatCounter>,
    samplers: FastMap<usize, Sampler>,
    mode: SignatureMode,
}

impl Hawkeye {
    /// Create Hawkeye metadata for a `sets × ways` cache with plain IP
    /// signatures.
    pub fn new(sets: usize, ways: usize) -> Self {
        Self::with_mode(sets, ways, SignatureMode::IpOnly)
    }

    /// Create Hawkeye with an explicit signature mode (PerClass =
    /// T-Hawkeye's signatures).
    pub fn with_mode(sets: usize, ways: usize, mode: SignatureMode) -> Self {
        assert!(sets > 0 && ways > 0);
        let samplers = (0..sets)
            .step_by(SAMPLE_STRIDE)
            .map(|s| (s, Sampler::new(ways)))
            .collect();
        Hawkeye {
            meta: vec![
                LineMeta {
                    rrpv: HK_RRPV_MAX,
                    signature: 0,
                    friendly: false,
                    outcome: false,
                    valid: false
                };
                sets * ways
            ],
            ways,
            predictor: vec![SatCounter::new(4, PREDICTOR_MAX); PREDICTOR_ENTRIES],
            samplers,
            mode,
        }
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    #[inline]
    fn sig_index(&self, info: &AccessInfo) -> u16 {
        let sig = self.mode.signature(info.ip, info.class);
        fold_hash16(sig) % PREDICTOR_ENTRIES as u16
    }

    fn train(&mut self, decision: OptDecision) {
        match decision {
            OptDecision::Hit(sig) => self.predictor[sig as usize].inc(),
            OptDecision::Miss(sig) => self.predictor[sig as usize].dec(),
            OptDecision::Cold => {}
        }
    }

    fn sample(&mut self, set: usize, info: &AccessInfo) {
        let sig = self.sig_index(info);
        if let Some(sampler) = self.samplers.get_mut(&set) {
            let d = sampler.access(info.line, sig);
            self.train(d);
        }
    }

    /// Read a block's current RRPV (diagnostics / T-Hawkeye).
    pub fn rrpv(&self, set: usize, way: usize) -> u8 {
        self.meta[set * self.ways + way].rrpv
    }

    /// Override a block's RRPV (used by T-Hawkeye's leaf-translation
    /// insertion).
    pub fn set_rrpv(&mut self, set: usize, way: usize, v: u8) {
        debug_assert!(v <= HK_RRPV_MAX);
        let i = self.idx(set, way);
        self.meta[i].rrpv = v;
    }

    /// The signature mode in use.
    pub fn mode(&self) -> SignatureMode {
        self.mode
    }

    /// Predictor counter for an access's signature (tests).
    pub fn predictor_value(&self, info: &AccessInfo) -> u32 {
        self.predictor[self.sig_index(info) as usize].get()
    }

    /// Whether the predictor currently classifies this signature
    /// cache-friendly.
    pub fn predicts_friendly(&self, info: &AccessInfo) -> bool {
        self.predictor[self.sig_index(info) as usize].is_high()
    }
}

impl ReplacementPolicy for Hawkeye {
    fn name(&self) -> &'static str {
        match self.mode {
            SignatureMode::IpOnly => "Hawkeye",
            SignatureMode::PerClass => "Hawkeye+NewSign",
        }
    }

    fn on_fill(&mut self, set: usize, way: usize, info: &AccessInfo) {
        self.sample(set, info);
        let sig = self.sig_index(info);
        let friendly = self.predictor[sig as usize].is_high();
        if friendly {
            // Age the rest of the set so older friendly blocks drift
            // towards eviction relative to fresh ones.
            let base = set * self.ways;
            for w in 0..self.ways {
                if w != way {
                    let m = &mut self.meta[base + w];
                    if m.valid && m.rrpv < HK_AGE_LIMIT {
                        m.rrpv += 1;
                    }
                }
            }
        }
        let i = self.idx(set, way);
        self.meta[i] = LineMeta {
            rrpv: if friendly { 0 } else { HK_RRPV_MAX },
            signature: sig,
            friendly,
            outcome: false,
            valid: true,
        };
    }

    fn on_hit(&mut self, set: usize, way: usize, info: &AccessInfo) {
        self.sample(set, info);
        let friendly_now = self.predicts_friendly(info);
        let i = self.idx(set, way);
        let m = &mut self.meta[i];
        m.outcome = true;
        if friendly_now {
            m.rrpv = 0;
        }
    }

    fn victim(&mut self, set: usize, _info: &AccessInfo) -> usize {
        let base = set * self.ways;
        // Prefer an averse block (RRPV=7); otherwise the oldest
        // (highest-RRPV) block.
        if let Some(w) = (0..self.ways).find(|&w| self.meta[base + w].rrpv == HK_RRPV_MAX) {
            return w;
        }
        (0..self.ways)
            .max_by_key(|&w| self.meta[base + w].rrpv)
            .expect("ways > 0")
    }

    fn on_evict(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        let m = self.meta[i];
        if m.valid && m.friendly && !m.outcome {
            // A predicted-friendly block died without reuse: detrain.
            self.predictor[m.signature as usize].dec();
        }
        self.meta[i].valid = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atc_types::{AccessClass, PtLevel};

    fn load(ip: u64, line: u64) -> AccessInfo {
        AccessInfo::demand(ip, LineAddr::new(line), AccessClass::NonReplayData)
    }

    fn translation(ip: u64, line: u64) -> AccessInfo {
        AccessInfo::demand(
            ip,
            LineAddr::new(line),
            AccessClass::Translation(PtLevel::L1),
        )
    }

    #[test]
    fn optgen_hits_within_capacity() {
        let mut s = Sampler::new(4);
        // A, B, A: reuse of A with one intervening unique line fits.
        assert_eq!(s.access(LineAddr::new(1), 10), OptDecision::Cold);
        assert_eq!(s.access(LineAddr::new(2), 11), OptDecision::Cold);
        assert_eq!(s.access(LineAddr::new(1), 10), OptDecision::Hit(10));
    }

    #[test]
    fn optgen_misses_when_interval_saturated() {
        let mut s = Sampler::new(1); // capacity 1
        s.access(LineAddr::new(1), 10);
        s.access(LineAddr::new(2), 11);
        s.access(LineAddr::new(2), 11); // occupies the interval
                                        // A's reuse interval now saturated at time of B's liveness.
        let d = s.access(LineAddr::new(1), 10);
        assert_eq!(d, OptDecision::Miss(10));
    }

    #[test]
    fn optgen_beyond_window_is_miss() {
        let mut s = Sampler::new(1); // window = 8
        s.access(LineAddr::new(1), 10);
        for i in 0..10 {
            s.access(LineAddr::new(100 + i), 11);
        }
        assert_eq!(s.access(LineAddr::new(1), 10), OptDecision::Miss(10));
    }

    #[test]
    fn friendly_fill_inserts_zero_averse_inserts_max() {
        let mut p = Hawkeye::new(SAMPLE_STRIDE * 2, 4);
        let a = load(1, 100);
        // Fresh predictor is weakly friendly (4/7).
        p.on_fill(1, 0, &a);
        assert_eq!(p.rrpv(1, 0), 0);
        // Detrain the signature to averse.
        for _ in 0..5 {
            p.on_fill(1, 1, &a);
            p.on_evict(1, 1);
        }
        assert!(!p.predicts_friendly(&a));
        p.on_fill(1, 2, &a);
        assert_eq!(p.rrpv(1, 2), HK_RRPV_MAX);
    }

    #[test]
    fn friendly_fill_ages_other_blocks() {
        let mut p = Hawkeye::new(SAMPLE_STRIDE * 2, 4);
        let a = load(1, 100);
        let b = load(2, 200);
        p.on_fill(1, 0, &a);
        assert_eq!(p.rrpv(1, 0), 0);
        p.on_fill(1, 1, &b);
        assert_eq!(p.rrpv(1, 0), 1, "older block aged by friendly fill");
    }

    #[test]
    fn victim_prefers_averse_block() {
        let mut p = Hawkeye::new(SAMPLE_STRIDE * 2, 4);
        let a = load(1, 100);
        for w in 0..4 {
            p.on_fill(1, w, &a);
        }
        p.set_rrpv(1, 2, HK_RRPV_MAX);
        assert_eq!(p.victim(1, &a), 2);
    }

    #[test]
    fn sampled_set_trains_predictor_via_optgen() {
        let mut p = Hawkeye::new(SAMPLE_STRIDE * 2, 4);
        let ip = 77;
        let start = p.predictor_value(&load(ip, 0));
        // In sampled set 0: drive A,B,A,B,… reuse that OPT would hit.
        for i in 0..20u64 {
            let line = 1000 + (i % 2);
            p.on_fill(0, (i % 4) as usize, &load(ip, line));
        }
        assert!(p.predictor_value(&load(ip, 0)) >= start);
    }

    #[test]
    fn per_class_mode_separates_translation_predictor_state() {
        let mut p = Hawkeye::with_mode(SAMPLE_STRIDE * 2, 4, SignatureMode::PerClass);
        let d = load(9, 1);
        let t = translation(9, 2);
        // Detrain the data signature.
        for _ in 0..6 {
            p.on_fill(1, 0, &d);
            p.on_evict(1, 0);
        }
        assert!(!p.predicts_friendly(&d));
        assert!(
            p.predicts_friendly(&t),
            "translation signature must be unaffected"
        );
    }

    #[test]
    fn averse_hit_does_not_reset_rrpv() {
        let mut p = Hawkeye::new(SAMPLE_STRIDE * 2, 4);
        let a = load(5, 50);
        for _ in 0..6 {
            p.on_fill(1, 1, &a);
            p.on_evict(1, 1);
        }
        assert!(!p.predicts_friendly(&a));
        p.on_fill(1, 0, &a);
        assert_eq!(p.rrpv(1, 0), HK_RRPV_MAX);
        p.on_hit(1, 0, &a);
        assert_eq!(p.rrpv(1, 0), HK_RRPV_MAX);
    }
}
