#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Shared foundation types for the address-translation-conscious (ATC)
//! cache-hierarchy simulator.
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`addr`] — newtypes for virtual/physical addresses, page numbers and
//!   cache-line addresses, plus the 57-bit five-level radix split used by
//!   the paper's Sunny-Cove-like machine.
//! * [`access`] — the classification of memory traffic the paper's
//!   mechanisms key on: leaf/intermediate *translations*, *replay* data
//!   loads (data loads whose translation missed the STLB), and
//!   *non-replay* data loads.
//! * [`config`] — the full machine configuration with defaults matching
//!   Table I of the paper (ROB, TLBs, PSCs, caches, DRAM), with
//!   [`config::MachineConfig::validate`] for fail-fast sweeps.
//! * [`cancel`] — the cooperative [`cancel::CancelToken`] the run loops
//!   poll so sweep schedulers can reclaim runaway jobs with partial
//!   statistics instead of hanging on them.
//! * [`error`] — the typed [`error::SimError`] every fallible layer of the
//!   simulator reports instead of panicking.
//! * [`hash`] — [`hash::FastMap`], a `HashMap` on an in-tree Fx-style
//!   hasher for the model tables probed on every simulated access.
//! * [`rng`] — the in-tree deterministic [`rng::SimRng`]
//!   (SplitMix64-seeded xoshiro256**) used by workloads and property
//!   tests, keeping the workspace free of external dependencies.
//!
//! # Example
//!
//! ```
//! use atc_types::addr::{VirtAddr, PtLevel};
//!
//! let va = VirtAddr::new(0x1234_5678_9abc);
//! assert_eq!(va.pt_index(PtLevel::L1), (0x1234_5678_9abc_u64 >> 12) & 0x1ff);
//! ```

pub mod access;
pub mod addr;
pub mod cancel;
pub mod config;
pub mod error;
pub mod hash;
pub mod rng;

pub use access::{AccessClass, AccessInfo, MemLevel, SignatureMode};
pub use addr::{LineAddr, Pfn, PhysAddr, PtLevel, VirtAddr, Vpn, PAGE_SHIFT, PAGE_SIZE};
pub use cancel::CancelToken;
pub use config::{CacheLevelConfig, CoreConfig, DramConfig, MachineConfig, PscConfig, TlbConfig};
pub use error::{DeadlockDiag, SimError};
pub use hash::FastMap;
pub use rng::SimRng;
