//! IPCP — Instruction Pointer Classifier-based spatial Prefetching
//! (Pakalapati & Panda, ISCA 2020), simplified.
//!
//! IPCP classifies load IPs at the L1D and prefetches in *virtual*
//! address space, so it may cross page boundaries. This model implements
//! the two classes that matter for the paper's workloads:
//!
//! * **CS (constant stride)** — per-IP stride detection with a 2-bit
//!   confidence counter and degree scaled by confidence;
//! * **GS (global stream)** — a global next-line stream direction used
//!   when an IP is unclassified but the global access run is dense.
//!
//! The signature-pattern (CPLX) class adds little on the irregular,
//! pointer-chasing workloads studied here (which is the paper's point —
//! IPCP "fails to hide the ROB stalls because of a replay load").

use atc_types::{FastMap, VirtAddr};

use crate::{Candidates, PrefetchContext, PrefetchRequest, Prefetcher};

#[derive(Debug, Clone, Copy)]
struct IpEntry {
    last_vaddr: u64,
    stride: i64,
    confidence: u8, // 0..=3
}

/// The IPCP prefetcher (CS + GS classes, virtual-address prefetching).
#[derive(Debug)]
pub struct Ipcp {
    ip_table: FastMap<u64, IpEntry>,
    /// Global stream state: last line-granular VA and a run counter.
    global_last_line: u64,
    global_run: u32,
    max_table: usize,
}

/// Degree at full confidence (within [`crate::MAX_DEGREE`]).
const FULL_DEGREE: i64 = 3;
/// IP table capacity (IPCP uses a 64-entry table per the paper's ~1 KB
/// budget; a few hundred is generous but keeps behaviour stable).
const TABLE_CAP: usize = 1024;

impl Ipcp {
    /// Create an IPCP prefetcher.
    pub fn new() -> Self {
        Ipcp {
            ip_table: FastMap::default(),
            global_last_line: 0,
            global_run: 0,
            max_table: TABLE_CAP,
        }
    }
}

impl Default for Ipcp {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for Ipcp {
    fn name(&self) -> &'static str {
        "IPCP"
    }

    fn on_access(&mut self, ctx: &PrefetchContext) -> Candidates {
        let va = ctx.vaddr.raw();
        let va_line = va >> 6;
        let mut out = Candidates::new();

        // --- CS class: per-IP constant stride, at line granularity. ---
        if self.ip_table.len() >= self.max_table && !self.ip_table.contains_key(&ctx.ip) {
            self.ip_table.clear(); // cheap generational reset
        }
        let entry = self.ip_table.entry(ctx.ip).or_insert(IpEntry {
            last_vaddr: va_line,
            stride: 0,
            confidence: 0,
        });
        let observed = va_line as i64 - entry.last_vaddr as i64;
        if observed != 0 {
            if observed == entry.stride {
                entry.confidence = (entry.confidence + 1).min(3);
            } else {
                if entry.confidence > 0 {
                    entry.confidence -= 1;
                }
                if entry.confidence == 0 {
                    entry.stride = observed;
                }
            }
            entry.last_vaddr = va_line;
        }
        if entry.confidence >= 2 && entry.stride != 0 {
            let degree = if entry.confidence == 3 {
                FULL_DEGREE
            } else {
                2
            };
            for d in 1..=degree {
                let target = va_line as i64 + entry.stride * d;
                if target > 0 {
                    out.push(PrefetchRequest::Virt(VirtAddr::new((target as u64) << 6)));
                }
            }
            return out;
        }

        // --- GS class: dense global forward stream. ---
        if va_line == self.global_last_line + 1 {
            self.global_run += 1;
        } else if va_line != self.global_last_line {
            self.global_run = 0;
        }
        self.global_last_line = va_line;
        if self.global_run >= 3 {
            for d in 1..=2u64 {
                out.push(PrefetchRequest::Virt(VirtAddr::new((va_line + d) << 6)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atc_types::LineAddr;

    fn ctx(ip: u64, va: u64) -> PrefetchContext {
        PrefetchContext {
            ip,
            line: LineAddr::new(va >> 6),
            vaddr: VirtAddr::new(va),
            hit: false,
        }
    }

    #[test]
    fn constant_stride_is_learned_and_prefetched() {
        let mut p = Ipcp::new();
        let stride = 128u64; // 2 lines
        let mut reqs = Candidates::new();
        for i in 0..6 {
            reqs = p.on_access(&ctx(7, 0x10_0000 + i * stride));
        }
        assert!(!reqs.is_empty(), "confident stride must prefetch");
        let expect = VirtAddr::new(((0x10_0000 + 5 * stride) >> 6 << 6) + 128);
        assert_eq!(reqs[0], PrefetchRequest::Virt(expect));
    }

    #[test]
    fn stride_crosses_page_boundaries() {
        let mut p = Ipcp::new();
        // Stride of one page: trains fine, prefetches next pages.
        let mut reqs = Candidates::new();
        for i in 0..6 {
            reqs = p.on_access(&ctx(9, 0x40_0000 + i * 4096));
        }
        assert!(!reqs.is_empty());
        if let PrefetchRequest::Virt(v) = reqs[0] {
            assert_ne!(v.vpn(), VirtAddr::new(0x40_0000 + 5 * 4096).vpn());
        } else {
            panic!("IPCP prefetches virtual addresses");
        }
    }

    #[test]
    fn random_accesses_stay_quiet() {
        let mut p = Ipcp::new();
        let mut total = 0;
        let mut x = 12345u64;
        for _ in 0..100 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            total += p.on_access(&ctx(11, x % (1 << 40))).len();
        }
        assert!(
            total < 20,
            "irregular stream should rarely trigger ({total})"
        );
    }

    #[test]
    fn global_stream_detects_dense_runs() {
        let mut p = Ipcp::new();
        let mut reqs = Candidates::new();
        // Different IPs touching sequential lines.
        for i in 0..8u64 {
            reqs = p.on_access(&ctx(100 + i, 0x200_0000 + i * 64));
        }
        assert!(!reqs.is_empty(), "dense run triggers GS prefetch");
    }
}
