//! Five-level radix page table.
//!
//! Mirrors the LA57 layout: each table is one 4 KiB physical frame holding
//! 512 eight-byte PTEs; the level-*k* PTE for a VPN lives at
//! `table_frame(k).base + index_k * 8`, and eight neighbouring PTEs share
//! one 64-byte cache block. [`PageTable::pte_addr`] exposes those
//! physical PTE addresses so the walker's reads can be played through the
//! data-cache hierarchy.

use atc_types::addr::PTE_SIZE;
use atc_types::{Pfn, PhysAddr, PtLevel, SimError, Vpn};

use crate::frame::FrameAllocator;

/// An interior or leaf radix node. Every node is backed by one physical
/// frame (`frame`) so its PTEs have real physical addresses.
#[derive(Debug)]
struct Node {
    frame: Pfn,
    children: Vec<Option<Box<Node>>>, // interior levels
    leaves: Vec<Option<Pfn>>,         // leaf level (L1 tables)
}

impl Node {
    fn new_interior(frame: Pfn) -> Self {
        Node {
            frame,
            children: (0..512).map(|_| None).collect(),
            leaves: Vec::new(),
        }
    }

    fn new_leaf_table(frame: Pfn) -> Self {
        Node {
            frame,
            children: Vec::new(),
            leaves: vec![None; 512],
        }
    }
}

/// A demand-populated five-level page table with its own frame allocator.
///
/// # Example
///
/// ```
/// use atc_types::{PtLevel, Vpn};
/// use atc_vm::PageTable;
///
/// let mut pt = PageTable::new();
/// let vpn = Vpn::new(0xabcde);
/// assert_eq!(pt.translate(vpn), None);
/// let pfn = pt.ensure_mapped(vpn);
/// assert_eq!(pt.translate(vpn), Some(pfn));
/// // The leaf PTE has a stable physical address:
/// let a = pt.pte_addr(vpn, PtLevel::L1)?;
/// assert_eq!(a, pt.pte_addr(vpn, PtLevel::L1)?);
/// # Ok::<(), atc_types::SimError>(())
/// ```
#[derive(Debug)]
pub struct PageTable {
    root: Node,
    alloc: FrameAllocator,
    mapped_pages: u64,
}

impl PageTable {
    /// Create an empty page table (only the root/CR3 frame allocated).
    pub fn new() -> Self {
        let mut alloc = FrameAllocator::new();
        let root_frame = alloc.alloc();
        PageTable {
            root: Node::new_interior(root_frame),
            alloc,
            mapped_pages: 0,
        }
    }

    /// The frame of the root (level-5) table — the CR3 contents.
    pub fn cr3(&self) -> Pfn {
        self.root.frame
    }

    /// Number of data pages currently mapped.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Translate a VPN to its PFN, or `None` if unmapped.
    pub fn translate(&self, vpn: Vpn) -> Option<Pfn> {
        let mut node = &self.root;
        for level in [PtLevel::L5, PtLevel::L4, PtLevel::L3, PtLevel::L2] {
            let idx = vpn.pt_index(level) as usize;
            node = node.children[idx].as_deref()?;
        }
        node.leaves[vpn.pt_index(PtLevel::L1) as usize]
    }

    /// Map `vpn` (allocating a data frame and any missing tables) or
    /// return its existing mapping. All workload first-touches funnel
    /// through here, modelling demand paging with a warm page table.
    pub fn ensure_mapped(&mut self, vpn: Vpn) -> Pfn {
        // Split borrows: walk down creating interior nodes.
        let alloc = &mut self.alloc;
        let mut node = &mut self.root;
        for level in [PtLevel::L5, PtLevel::L4, PtLevel::L3] {
            let idx = vpn.pt_index(level) as usize;
            node = node.children[idx]
                .get_or_insert_with(|| Box::new(Node::new_interior(alloc.alloc())));
        }
        // L2 node's children are leaf *tables*.
        let idx2 = vpn.pt_index(PtLevel::L2) as usize;
        let leaf_table = node.children[idx2]
            .get_or_insert_with(|| Box::new(Node::new_leaf_table(alloc.alloc())));
        let idx1 = vpn.pt_index(PtLevel::L1) as usize;
        if let Some(pfn) = leaf_table.leaves[idx1] {
            return pfn;
        }
        let pfn = alloc.alloc();
        leaf_table.leaves[idx1] = Some(pfn);
        self.mapped_pages += 1;
        pfn
    }

    /// Physical address of the PTE consulted at `level` while walking
    /// `vpn`. The VPN must already be mapped (tables exist); call
    /// [`ensure_mapped`](Self::ensure_mapped) first.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Walk`] if the path to `level` has not been
    /// populated.
    pub fn pte_addr(&self, vpn: Vpn, level: PtLevel) -> Result<PhysAddr, SimError> {
        let table_frame = self.table_frame(vpn, level)?;
        let idx = vpn.pt_index(level);
        Ok(table_frame.addr_with_offset(idx * PTE_SIZE))
    }

    /// Visit the PTE address read at `start` and every level below it,
    /// in walk order, using a single radix descent — the per-level
    /// [`pte_addr`](Self::pte_addr) restarts from the root on each
    /// call, which makes building a full walk plan quadratic in depth.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Walk`] if the path to the leaf has not been
    /// populated.
    pub fn pte_addrs_from(
        &self,
        vpn: Vpn,
        start: PtLevel,
        mut visit: impl FnMut(PtLevel, PhysAddr),
    ) -> Result<(), SimError> {
        let mut node = &self.root;
        let mut cur = PtLevel::L5;
        loop {
            if cur.number() <= start.number() {
                let idx = vpn.pt_index(cur);
                visit(cur, node.frame.addr_with_offset(idx * PTE_SIZE));
            }
            let Some(next) = cur.next_towards_leaf() else {
                return Ok(()); // the leaf PTE was just visited
            };
            let idx = vpn.pt_index(cur) as usize;
            node = node.children[idx].as_deref().ok_or(SimError::Walk {
                vpn: vpn.raw(),
                level: cur.number(),
            })?;
            cur = next;
        }
    }

    /// Frame of the table read at `level` for `vpn` (L5 = CR3 frame).
    fn table_frame(&self, vpn: Vpn, level: PtLevel) -> Result<Pfn, SimError> {
        let mut node = &self.root;
        // Descend from L5 until we reach the node whose table is read at
        // `level`: the L5 table is the root itself.
        let mut cur = PtLevel::L5;
        while cur != level {
            let idx = vpn.pt_index(cur) as usize;
            node = node.children[idx].as_deref().ok_or(SimError::Walk {
                vpn: vpn.raw(),
                level: cur.number(),
            })?;
            cur = cur.next_towards_leaf().ok_or(SimError::Walk {
                vpn: vpn.raw(),
                level: cur.number(),
            })?;
        }
        Ok(node.frame)
    }
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atc_types::addr::{PTES_PER_BLOCK, VA_BITS};

    #[test]
    fn unmapped_translates_to_none() {
        let pt = PageTable::new();
        assert_eq!(pt.translate(Vpn::new(123)), None);
    }

    #[test]
    fn map_then_translate() {
        let mut pt = PageTable::new();
        let vpn = Vpn::new(0x12_3456_789a);
        let pfn = pt.ensure_mapped(vpn);
        assert_eq!(pt.translate(vpn), Some(pfn));
        // Idempotent.
        assert_eq!(pt.ensure_mapped(vpn), pfn);
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut pt = PageTable::new();
        let a = pt.ensure_mapped(Vpn::new(1));
        let b = pt.ensure_mapped(Vpn::new(2));
        assert_ne!(a, b);
        assert_eq!(pt.mapped_pages(), 2);
    }

    #[test]
    fn pte_addrs_differ_per_level_and_are_stable() {
        let mut pt = PageTable::new();
        let vpn = Vpn::new(0xdeadbeef);
        pt.ensure_mapped(vpn);
        let mut addrs = Vec::new();
        for lvl in PtLevel::WALK_ORDER {
            addrs.push(pt.pte_addr(vpn, lvl).expect("mapped path exists"));
        }
        for i in 0..addrs.len() {
            for j in (i + 1)..addrs.len() {
                assert_ne!(addrs[i], addrs[j], "levels {i}/{j} collide");
            }
        }
        assert_eq!(pt.pte_addr(vpn, PtLevel::L3).unwrap(), addrs[2]);
    }

    #[test]
    fn pte_addrs_from_matches_per_level_pte_addr() {
        let mut pt = PageTable::new();
        let vpn = Vpn::new(0x3_1415_9265);
        pt.ensure_mapped(vpn);
        for start in PtLevel::WALK_ORDER {
            let mut got = Vec::new();
            pt.pte_addrs_from(vpn, start, |lvl, addr| got.push((lvl, addr)))
                .expect("mapped path exists");
            let mut want = Vec::new();
            let mut lvl = Some(start);
            while let Some(l) = lvl {
                want.push((l, pt.pte_addr(vpn, l).unwrap()));
                lvl = l.next_towards_leaf();
            }
            assert_eq!(got, want, "walk from {start:?} diverged");
        }
    }

    #[test]
    fn pte_addrs_from_unmapped_is_a_walk_error() {
        let pt = PageTable::new();
        let err = pt
            .pte_addrs_from(Vpn::new(1 << 29), PtLevel::L1, |_, _| {})
            .unwrap_err();
        assert!(matches!(err, SimError::Walk { level: 5, .. }), "{err}");
    }

    #[test]
    fn l5_pte_lives_in_cr3_frame() {
        let mut pt = PageTable::new();
        let vpn = Vpn::new(0xabcdef);
        pt.ensure_mapped(vpn);
        assert_eq!(pt.pte_addr(vpn, PtLevel::L5).unwrap().pfn(), pt.cr3());
    }

    #[test]
    fn eight_neighbouring_pages_share_a_leaf_pte_block() {
        let mut pt = PageTable::new();
        let base = Vpn::new(0x4000);
        let mut lines = std::collections::HashSet::new();
        for i in 0..PTES_PER_BLOCK {
            let vpn = Vpn::new(base.raw() + i);
            pt.ensure_mapped(vpn);
            lines.insert(pt.pte_addr(vpn, PtLevel::L1).unwrap().line());
        }
        assert_eq!(lines.len(), 1, "8 PTEs must share one 64-byte block");
        // The ninth page starts a new block.
        let vpn9 = Vpn::new(base.raw() + PTES_PER_BLOCK);
        pt.ensure_mapped(vpn9);
        assert!(!lines.contains(&pt.pte_addr(vpn9, PtLevel::L1).unwrap().line()));
    }

    #[test]
    fn pages_in_different_l2_regions_use_different_leaf_tables() {
        let mut pt = PageTable::new();
        let a = Vpn::new(0);
        let b = Vpn::new(512); // next L1 table
        pt.ensure_mapped(a);
        pt.ensure_mapped(b);
        assert_ne!(
            pt.pte_addr(a, PtLevel::L1).unwrap().pfn(),
            pt.pte_addr(b, PtLevel::L1).unwrap().pfn()
        );
        // But they share every level above L1's table... except index may
        // differ: the L2 PTE addresses differ (different entries of the
        // same L2 table frame).
        assert_eq!(
            pt.pte_addr(a, PtLevel::L2).unwrap().pfn(),
            pt.pte_addr(b, PtLevel::L2).unwrap().pfn()
        );
    }

    #[test]
    fn pte_addr_of_unmapped_is_a_walk_error() {
        let pt = PageTable::new();
        let err = pt.pte_addr(Vpn::new(1 << 30), PtLevel::L1).unwrap_err();
        assert!(
            matches!(err, SimError::Walk { level: 5, .. }),
            "unmapped VPN must fail at the root level: {err}"
        );
        assert!(err.to_string().contains("path missing"), "{err}");
    }

    #[test]
    fn full_va_width_round_trips() {
        let mut pt = PageTable::new();
        let max_vpn = Vpn::new((1 << (VA_BITS - 12)) - 1);
        let pfn = pt.ensure_mapped(max_vpn);
        assert_eq!(pt.translate(max_vpn), Some(pfn));
    }
}
