//! Cache replacement policies.
//!
//! A policy owns the per-line replacement metadata for a cache of known
//! geometry and is driven by three events, matching the paper's
//! insertion / promotion / eviction decomposition:
//!
//! * [`on_fill`](ReplacementPolicy::on_fill) — a block was inserted
//!   (insertion sub-policy);
//! * [`on_hit`](ReplacementPolicy::on_hit) — a resident block was reused
//!   (promotion sub-policy);
//! * [`victim`](ReplacementPolicy::victim) — choose a way to evict from a
//!   full set (eviction sub-policy), followed by
//!   [`on_evict`](ReplacementPolicy::on_evict) for training.

mod hawkeye;
mod lru;
mod rrip;
mod ship;

pub use hawkeye::{Hawkeye, HK_RRPV_MAX};
pub use lru::Lru;
pub use rrip::{Brrip, Drrip, Srrip, RRPV_LONG, RRPV_MAX};
pub use ship::Ship;

use atc_types::AccessInfo;

/// A pluggable cache replacement policy.
///
/// Implementations are constructed for a fixed geometry (`sets × ways`)
/// and must keep any per-line metadata themselves; the cache core only
/// stores tags. All way indices are `< ways` and set indices `< sets`.
pub trait ReplacementPolicy: std::fmt::Debug + Send {
    /// Short policy name used in reports ("LRU", "DRRIP", "T-SHiP", …).
    fn name(&self) -> &'static str;

    /// A block was filled into `(set, way)` by the access described in
    /// `info`.
    fn on_fill(&mut self, set: usize, way: usize, info: &AccessInfo);

    /// The resident block at `(set, way)` got a hit from `info`.
    fn on_hit(&mut self, set: usize, way: usize, info: &AccessInfo);

    /// Choose a victim way in a *full* `set` for the incoming access
    /// `info`. Implementations may mutate internal state (e.g. RRIP
    /// aging).
    fn victim(&mut self, set: usize, info: &AccessInfo) -> usize;

    /// The block at `(set, way)` has been evicted (after [`victim`](Self::victim) or an
    /// external invalidation). Policies use this for negative training.
    fn on_evict(&mut self, set: usize, way: usize);
}

/// Dispatch wrapper the cache core stores its policy behind.
///
/// The stock policies the hot configurations use (LRU at L1D, the RRIP
/// family at L2C, SHiP at the LLC) get their own variants so every
/// `on_hit`/`victim`/`on_fill`/`on_evict` on the access path is a
/// statically-dispatched — and inlinable — call instead of a virtual
/// one; anything else (T-policies, Hawkeye, CbPred, test doubles) rides
/// in the [`Dyn`](PolicyImpl::Dyn) variant with unchanged behaviour.
#[derive(Debug)]
pub enum PolicyImpl {
    /// Least-recently-used.
    Lru(Lru),
    /// Static RRIP.
    Srrip(Srrip),
    /// Dynamic (set-dueling) RRIP.
    Drrip(Drrip),
    /// SHiP (either signature mode).
    Ship(Ship),
    /// Everything else, virtually dispatched.
    Dyn(Box<dyn ReplacementPolicy>),
}

macro_rules! dispatch {
    ($self:expr, $p:ident => $call:expr) => {
        match $self {
            PolicyImpl::Lru($p) => $call,
            PolicyImpl::Srrip($p) => $call,
            PolicyImpl::Drrip($p) => $call,
            PolicyImpl::Ship($p) => $call,
            PolicyImpl::Dyn($p) => $call,
        }
    };
}

impl PolicyImpl {
    /// Short policy name used in reports.
    pub fn name(&self) -> &'static str {
        dispatch!(self, p => p.name())
    }

    /// Forward of [`ReplacementPolicy::on_fill`].
    #[inline]
    pub fn on_fill(&mut self, set: usize, way: usize, info: &AccessInfo) {
        dispatch!(self, p => p.on_fill(set, way, info));
    }

    /// Forward of [`ReplacementPolicy::on_hit`].
    #[inline]
    pub fn on_hit(&mut self, set: usize, way: usize, info: &AccessInfo) {
        dispatch!(self, p => p.on_hit(set, way, info));
    }

    /// Forward of [`ReplacementPolicy::victim`].
    #[inline]
    pub fn victim(&mut self, set: usize, info: &AccessInfo) -> usize {
        dispatch!(self, p => p.victim(set, info))
    }

    /// Forward of [`ReplacementPolicy::on_evict`].
    #[inline]
    pub fn on_evict(&mut self, set: usize, way: usize) {
        dispatch!(self, p => p.on_evict(set, way));
    }
}

impl From<Lru> for PolicyImpl {
    fn from(p: Lru) -> Self {
        PolicyImpl::Lru(p)
    }
}

impl From<Srrip> for PolicyImpl {
    fn from(p: Srrip) -> Self {
        PolicyImpl::Srrip(p)
    }
}

impl From<Drrip> for PolicyImpl {
    fn from(p: Drrip) -> Self {
        PolicyImpl::Drrip(p)
    }
}

impl From<Ship> for PolicyImpl {
    fn from(p: Ship) -> Self {
        PolicyImpl::Ship(p)
    }
}

impl From<Box<dyn ReplacementPolicy>> for PolicyImpl {
    fn from(p: Box<dyn ReplacementPolicy>) -> Self {
        PolicyImpl::Dyn(p)
    }
}

/// Saturating counter helper used by SHiP/Hawkeye predictors and DRRIP's
/// PSEL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SatCounter {
    value: u32,
    max: u32,
}

impl SatCounter {
    /// A counter in `0..=max` starting at `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `initial > max`.
    pub fn new(initial: u32, max: u32) -> Self {
        assert!(initial <= max);
        SatCounter {
            value: initial,
            max,
        }
    }

    /// Saturating increment.
    #[inline]
    pub fn inc(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Saturating decrement.
    #[inline]
    pub fn dec(&mut self) {
        self.value = self.value.saturating_sub(1);
    }

    /// Current value.
    #[inline]
    pub fn get(self) -> u32 {
        self.value
    }

    /// True if the counter is in its upper half (≥ (max+1)/2).
    #[inline]
    pub fn is_high(self) -> bool {
        self.value >= self.max.div_ceil(2)
    }
}

/// A stable 64→16-bit hash for signature tables (xorshift-multiply fold).
#[inline]
pub fn fold_hash16(x: u64) -> u16 {
    let mut h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 32;
    (h & 0xFFFF) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_counter_bounds() {
        let mut c = SatCounter::new(0, 3);
        c.dec();
        assert_eq!(c.get(), 0);
        for _ in 0..10 {
            c.inc();
        }
        assert_eq!(c.get(), 3);
        assert!(c.is_high());
        c.dec();
        c.dec();
        assert_eq!(c.get(), 1);
        assert!(!c.is_high());
    }

    #[test]
    #[should_panic]
    fn sat_counter_rejects_bad_initial() {
        SatCounter::new(5, 3);
    }

    #[test]
    fn fold_hash_spreads_low_bit_changes() {
        // Not a distribution test, just non-triviality.
        assert_ne!(fold_hash16(1), fold_hash16(2));
        assert_ne!(fold_hash16(0x1000), fold_hash16(0x1001));
    }
}
