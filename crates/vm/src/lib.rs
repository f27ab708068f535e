#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Virtual-memory substrate: five-level radix page table, physical frame
//! allocation, TLBs, paging-structure caches (PSCs), and the page-table
//! walker.
//!
//! The cache hierarchy is *not* in this crate: page-walk reads are
//! expressed as [`WalkStep`]s carrying the physical
//! address of each PTE block, and the simulator plays those reads through
//! the data caches — exactly how the paper's machine caches "eight
//! contiguous translations of all the page table levels" in 64-byte
//! blocks.
//!
//! # Example
//!
//! ```
//! use atc_types::{config::MachineConfig, VirtAddr};
//! use atc_vm::TranslationEngine;
//!
//! let cfg = MachineConfig::default();
//! let mut mmu = TranslationEngine::new(&cfg);
//! let va = VirtAddr::new(0x7000_1234_5678);
//! // First touch: DTLB and STLB miss, full five-level walk.
//! let q = mmu.query(va.vpn())?;
//! let walk = q.walk().expect("cold TLBs must walk").clone();
//! assert_eq!(walk.steps.len(), 5);
//! let pfn = mmu.complete_walk(&walk);
//! // Second touch: DTLB hit.
//! let q2 = mmu.query(va.vpn())?;
//! assert!(q2.is_dtlb_hit());
//! assert_eq!(mmu.page_table().translate(va.vpn()), Some(pfn));
//! # Ok::<(), atc_types::SimError>(())
//! ```

pub mod frame;
pub mod page_table;
pub mod psc;
pub mod tlb;
pub mod walker;

pub use frame::FrameAllocator;
pub use page_table::PageTable;
pub use psc::PscArray;
pub use tlb::{Tlb, TlbStats};
pub use walker::{TranslationEngine, TranslationQuery, WalkPlan, WalkStep};
