#![warn(missing_docs)]
#![deny(unsafe_code)]

//! The paper's contribution: address-translation-conscious caching and
//! prefetching.
//!
//! * [`tpolicy`] — **T-DRRIP**, **T-SHiP** and **T-Hawkeye**: wrappers
//!   over the baseline policies that (a) insert *leaf-level translation*
//!   fills with the lowest eviction priority (RRPV=0), (b) insert *replay
//!   load* fills at the L2C with the highest eviction priority (RRPV=3,
//!   because replay blocks are dead), and (c) switch SHiP/Hawkeye to the
//!   per-class translation-conscious signatures.
//! * [`atp`] — the **Address-Translation-initiated replay-load
//!   Prefetcher**: when a page walk's *leaf* PTE read hits at L2C or LLC,
//!   the corresponding replay data block is prefetched immediately,
//!   inserted with eviction priority. Non-speculative, hence 100 %
//!   accurate.
//! * [`tempo`] — **TEMPO** (Bhattacharjee, ASPLOS 2017): when the leaf
//!   PTE read goes all the way to DRAM, the memory controller prefetches
//!   the replay data block back-to-back with the PTE.
//! * [`ideal`] — the Fig 2 oracle filters (ideal L2C/LLC for
//!   translations / replays / both).
//! * [`Enhancement`] — the paper's cumulative configuration ladder
//!   (baseline → T-DRRIP → +T-SHiP → +ATP → +TEMPO) used across the
//!   evaluation.

pub mod atp;
pub mod dppred;
pub mod ideal;
pub mod tempo;
pub mod tpolicy;

pub use atp::{Atp, AtpPrefetch};
pub use dppred::{CbPredPolicy, DpPred};
pub use ideal::IdealConfig;
pub use tempo::{Tempo, TempoPrefetch};
pub use tpolicy::{TDrrip, THawkeye, TShip};

use atc_cache::policy::{Drrip, Hawkeye, Lru, PolicyImpl, Ship, Srrip};
use atc_types::SignatureMode;

/// The paper's cumulative enhancement ladder (Fig 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Enhancement {
    /// DRRIP at L2C, SHiP at LLC — the paper's strong baseline.
    #[default]
    Baseline,
    /// + T-DRRIP at the L2C.
    TDrrip,
    /// + T-SHiP at the LLC (includes T-DRRIP).
    TShip,
    /// + the ATP prefetcher (includes T-DRRIP and T-SHiP).
    Atp,
    /// + TEMPO at the DRAM controller (includes everything).
    Tempo,
}

impl Enhancement {
    /// All steps of the ladder in order.
    pub const ALL: [Enhancement; 5] = [
        Enhancement::Baseline,
        Enhancement::TDrrip,
        Enhancement::TShip,
        Enhancement::Atp,
        Enhancement::Tempo,
    ];

    /// Is T-DRRIP active at the L2C?
    pub fn has_tdrrip(self) -> bool {
        self != Enhancement::Baseline
    }

    /// Is T-SHiP active at the LLC?
    pub fn has_tship(self) -> bool {
        matches!(
            self,
            Enhancement::TShip | Enhancement::Atp | Enhancement::Tempo
        )
    }

    /// Is the ATP prefetcher active?
    pub fn has_atp(self) -> bool {
        matches!(self, Enhancement::Atp | Enhancement::Tempo)
    }

    /// Is TEMPO active at the DRAM controller?
    pub fn has_tempo(self) -> bool {
        self == Enhancement::Tempo
    }

    /// Label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            Enhancement::Baseline => "baseline",
            Enhancement::TDrrip => "T-DRRIP",
            Enhancement::TShip => "+T-SHiP",
            Enhancement::Atp => "+ATP",
            Enhancement::Tempo => "+TEMPO",
        }
    }
}

/// Selection of an LLC (or L2C) replacement policy by name, spanning the
/// paper's baselines and enhanced variants. Used by the experiment
/// binaries (Figs 4, 6, 12) and the simulator builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyChoice {
    /// True LRU.
    Lru,
    /// Static RRIP.
    Srrip,
    /// Dynamic RRIP (set dueling).
    Drrip,
    /// SHiP with original IP signatures.
    Ship,
    /// Hawkeye with original IP signatures.
    Hawkeye,
    /// SHiP with per-class signatures only (the paper's "NewSign" step of
    /// Fig 12, without the RRPV=0 translation insertion).
    ShipNewSign,
    /// Full T-SHiP (new signatures + leaf translations at RRPV=0).
    TShip,
    /// Full T-Hawkeye.
    THawkeye,
    /// T-DRRIP (used at the L2C).
    TDrrip,
    /// Fig 10 mis-configuration: T-DRRIP that also inserts replay loads
    /// at RRPV=0, demonstrating why replays must insert dead.
    TDrripReplayZero,
    /// Fig 10 mis-configuration: T-SHiP with demand replay loads forced
    /// to RRPV=0.
    TShipReplayZero,
    /// Ablation: T-SHiP's RRPV=0 translation pinning *without* the
    /// per-class signatures.
    TShipPinOnly,
}

impl PolicyChoice {
    /// Instantiate the policy for a `sets × ways` cache, behind the
    /// cache core's static-dispatch wrapper: the stock policies land in
    /// their concrete [`PolicyImpl`] variants (keeping every policy
    /// callback on the simulator's hot path inlinable), the T-policies
    /// and Hawkeye fall back to virtual dispatch.
    pub fn build_impl(self, sets: usize, ways: usize) -> PolicyImpl {
        match self {
            PolicyChoice::Lru => Lru::new(sets, ways).into(),
            PolicyChoice::Srrip => Srrip::new(sets, ways).into(),
            PolicyChoice::Drrip => Drrip::new(sets, ways).into(),
            PolicyChoice::Ship => Ship::new(sets, ways).into(),
            PolicyChoice::ShipNewSign => {
                Ship::with_mode(sets, ways, SignatureMode::PerClass).into()
            }
            PolicyChoice::Hawkeye => PolicyImpl::Dyn(Box::new(Hawkeye::new(sets, ways))),
            PolicyChoice::TShip => PolicyImpl::Dyn(Box::new(TShip::new(sets, ways))),
            PolicyChoice::THawkeye => PolicyImpl::Dyn(Box::new(THawkeye::new(sets, ways))),
            PolicyChoice::TDrrip => PolicyImpl::Dyn(Box::new(TDrrip::new(sets, ways))),
            PolicyChoice::TDrripReplayZero => {
                PolicyImpl::Dyn(Box::new(TDrrip::with_replay_rrpv(sets, ways, 0)))
            }
            PolicyChoice::TShipReplayZero => {
                PolicyImpl::Dyn(Box::new(TShip::with_forced_replay_rrpv(sets, ways, 0)))
            }
            PolicyChoice::TShipPinOnly => PolicyImpl::Dyn(Box::new(TShip::with_signature_mode(
                sets,
                ways,
                SignatureMode::IpOnly,
            ))),
        }
    }

    /// Label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            PolicyChoice::Lru => "LRU",
            PolicyChoice::Srrip => "SRRIP",
            PolicyChoice::Drrip => "DRRIP",
            PolicyChoice::Ship => "SHiP",
            PolicyChoice::Hawkeye => "Hawkeye",
            PolicyChoice::ShipNewSign => "SHiP+NewSign",
            PolicyChoice::TShip => "T-SHiP",
            PolicyChoice::THawkeye => "T-Hawkeye",
            PolicyChoice::TDrrip => "T-DRRIP",
            PolicyChoice::TDrripReplayZero => "T-DRRIP(R=0)",
            PolicyChoice::TShipReplayZero => "T-SHiP(R=0)",
            PolicyChoice::TShipPinOnly => "T-SHiP(pin-only)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_flags_are_cumulative() {
        assert!(!Enhancement::Baseline.has_tdrrip());
        assert!(Enhancement::TDrrip.has_tdrrip());
        assert!(!Enhancement::TDrrip.has_tship());
        assert!(Enhancement::TShip.has_tdrrip());
        assert!(Enhancement::TShip.has_tship());
        assert!(!Enhancement::TShip.has_atp());
        assert!(Enhancement::Atp.has_atp());
        assert!(!Enhancement::Atp.has_tempo());
        assert!(Enhancement::Tempo.has_atp());
        assert!(Enhancement::Tempo.has_tempo());
    }

    #[test]
    fn all_policies_build() {
        for p in [
            PolicyChoice::Lru,
            PolicyChoice::Srrip,
            PolicyChoice::Drrip,
            PolicyChoice::Ship,
            PolicyChoice::Hawkeye,
            PolicyChoice::ShipNewSign,
            PolicyChoice::TShip,
            PolicyChoice::THawkeye,
            PolicyChoice::TDrrip,
            PolicyChoice::TDrripReplayZero,
            PolicyChoice::TShipReplayZero,
            PolicyChoice::TShipPinOnly,
        ] {
            let b = p.build_impl(64, 8);
            assert!(!b.name().is_empty());
            assert!(!p.label().is_empty());
        }
    }
}
