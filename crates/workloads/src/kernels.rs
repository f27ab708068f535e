//! Ligra-style graph kernels emitting instruction streams.
//!
//! Each kernel executes its real traversal loop over a synthetic
//! power-law graph, drawn one vertex at a time by a [`GraphStream`] as
//! the kernel's cursor reaches it, and narrates it as instructions:
//! sequential loads over the (simulated) CSR arrays, *irregular*
//! loads/stores to per-vertex property arrays indexed by edge targets,
//! and per-benchmark amounts of ALU work. The irregular property
//! accesses are what miss the STLB and produce the paper's replay loads;
//! the ALU density controls where each benchmark lands in Table II's
//! MPKI bands.

use atc_types::rng::SimRng;
use std::collections::VecDeque;

use atc_types::VirtAddr;

use crate::graph::GraphStream;
use crate::{Instr, Scale, Workload};

/// CSR offsets array base (8 B entries).
const OFFSETS_BASE: u64 = 0x1000_0000_0000;
/// CSR targets array base (4 B entries).
const TARGETS_BASE: u64 = 0x2000_0000_0000;
/// Primary property array base (rank / label / dist / flag; 8 B).
const PROP_A_BASE: u64 = 0x3000_0000_0000;
/// Secondary property array base (new rank / next mask; 8 B).
const PROP_B_BASE: u64 = 0x4000_0000_0000;

fn a_offsets(v: usize) -> VirtAddr {
    VirtAddr::new(OFFSETS_BASE + v as u64 * 8)
}
fn a_targets(e: usize) -> VirtAddr {
    VirtAddr::new(TARGETS_BASE + e as u64 * 4)
}
fn a_prop_a(v: usize) -> VirtAddr {
    VirtAddr::new(PROP_A_BASE + v as u64 * 8)
}
fn a_prop_b(v: usize) -> VirtAddr {
    VirtAddr::new(PROP_B_BASE + v as u64 * 8)
}

/// Shared kernel chassis: the graph's vertex cursor, an instruction
/// buffer, and a seeded RNG.
#[derive(Debug)]
struct Chassis {
    graph: GraphStream,
    buf: VecDeque<Instr>,
    rng: SimRng,
}

impl Chassis {
    fn new(scale: Scale, seed: u64) -> Self {
        let (n, d) = GraphStream::dims_for(scale);
        Chassis {
            graph: GraphStream::new(n, d, seed),
            buf: VecDeque::with_capacity(256),
            rng: SimRng::seed_from_u64(seed ^ 0xA5A5_5A5A),
        }
    }
}

/// A kernel type over a [`Chassis`], plus any extra fields, each built
/// from the chassis graph by the function after its `=`.
macro_rules! graph_kernel {
    (
        $(#[$meta:meta])* $name:ident $({ $($field:ident: $fty:ty = $init:path),* })?,
        $bench:literal, $ip:literal, $refill:item
    ) => {
        $(#[$meta])*
        #[derive(Debug)]
        pub struct $name {
            ch: Chassis,
            $($($field: $fty,)*)?
        }

        impl $name {
            /// Build the kernel over a fresh synthetic graph.
            pub fn new(scale: Scale, seed: u64) -> Self {
                let ch = Chassis::new(scale, seed);
                $name { $($($field: $init(&ch.graph),)*)? ch }
            }

            const IP: u64 = $ip;

            $refill
        }

        impl Workload for $name {
            fn name(&self) -> &'static str {
                $bench
            }

            fn next_instr(&mut self) -> Instr {
                if self.ch.buf.is_empty() {
                    self.refill();
                }
                self.ch.buf.pop_front().expect("refill pushes instructions")
            }

            // Bulk decode: same refill cadence and stream as the scalar
            // path, minus the per-instruction `pop_front`.
            fn next_batch(&mut self, out: &mut Vec<Instr>, n: usize) {
                out.clear();
                out.reserve(n);
                while out.len() < n {
                    if self.ch.buf.is_empty() {
                        self.refill();
                    }
                    let take = (n - out.len()).min(self.ch.buf.len());
                    crate::drain_front(out, &mut self.ch.buf, take);
                }
            }
        }
    };
}

graph_kernel!(
    /// PageRank: per vertex, accumulate `rank[target]` over every edge.
    /// Memory-dense (almost no ALU padding per edge) and fully irregular
    /// — the highest STLB MPKI of the suite, as in Table II.
    PageRank,
    "pr",
    0x0001_0000,
    fn refill(&mut self) {
        let ch = &mut self.ch;
        let (v, e0) = ch.graph.next_vertex();
        let ip = Self::IP;
        ch.buf.push_back(Instr::load(ip, a_offsets(v)));
        for (e, &t) in (e0..).zip(ch.graph.targets()) {
            let t = t as usize;
            ch.buf.push_back(Instr::load(ip + 1, a_targets(e)));
            ch.buf.push_back(Instr::load_dep(ip + 2, a_prop_a(t)));
            ch.buf.push_back(Instr::alu(ip + 4));
        }
        ch.buf.push_back(Instr::alu(ip + 5));
        ch.buf.push_back(Instr::store(ip + 3, a_prop_b(v)));
    }
);

graph_kernel!(
    /// Connected components by label propagation: per vertex, read every
    /// neighbour's label, keep the minimum, write back when it shrinks.
    ConnectedComponents,
    "cc",
    0x0002_0000,
    fn refill(&mut self) {
        let ch = &mut self.ch;
        let (v, e0) = ch.graph.next_vertex();
        let ip = Self::IP;
        ch.buf.push_back(Instr::load(ip, a_offsets(v)));
        ch.buf.push_back(Instr::load(ip + 6, a_prop_a(v)));
        for (e, &t) in (e0..).zip(ch.graph.targets()) {
            let t = t as usize;
            ch.buf.push_back(Instr::load(ip + 1, a_targets(e)));
            ch.buf.push_back(Instr::load_dep(ip + 2, a_prop_a(t)));
            ch.buf.push_back(Instr::alu(ip + 4));
            ch.buf.push_back(Instr::alu(ip + 5));
        }
        if ch.rng.next_f32() < 0.3 {
            ch.buf.push_back(Instr::store(ip + 3, a_prop_a(v)));
        }
    }
);

graph_kernel!(
    /// Bellman-Ford single-source shortest paths: frontier-based edge
    /// relaxation. Inactive vertices cost a cheap sequential flag check;
    /// active ones relax all out-edges with irregular `dist` reads and
    /// occasional irregular writes.
    BellmanFord,
    "bf",
    0x0003_0000,
    fn refill(&mut self) {
        let ch = &mut self.ch;
        let (v, e0) = ch.graph.next_vertex();
        let ip = Self::IP;
        // Frontier membership check (sequential bitmap load).
        ch.buf.push_back(Instr::load(ip, a_prop_b(v / 64)));
        ch.buf.push_back(Instr::alu(ip + 7));
        if ch.rng.next_f32() >= 0.22 {
            return; // not in frontier this pass
        }
        ch.buf.push_back(Instr::load(ip + 8, a_offsets(v)));
        for (e, &t) in (e0..).zip(ch.graph.targets()) {
            let t = t as usize;
            ch.buf.push_back(Instr::load(ip + 1, a_targets(e)));
            ch.buf.push_back(Instr::load_dep(ip + 2, a_prop_a(t)));
            ch.buf.push_back(Instr::alu(ip + 4));
            ch.buf.push_back(Instr::alu(ip + 5));
            ch.buf.push_back(Instr::alu(ip + 9));
            if ch.rng.next_f32() < 0.15 {
                ch.buf.push_back(Instr::store(ip + 3, a_prop_a(t)));
            }
        }
    }
);

graph_kernel!(
    /// Graph radii estimation via multi-source BFS with 64-bit visit
    /// masks: per edge, merge the neighbour's mask into the vertex's next
    /// mask.
    Radii,
    "radii",
    0x0004_0000,
    fn refill(&mut self) {
        let ch = &mut self.ch;
        let (v, e0) = ch.graph.next_vertex();
        let ip = Self::IP;
        ch.buf.push_back(Instr::load(ip, a_offsets(v)));
        ch.buf.push_back(Instr::load(ip + 6, a_prop_b(v)));
        for (e, &t) in (e0..).zip(ch.graph.targets()) {
            let t = t as usize;
            ch.buf.push_back(Instr::load(ip + 1, a_targets(e)));
            ch.buf.push_back(Instr::load_dep(ip + 2, a_prop_a(t)));
            ch.buf.push_back(Instr::alu(ip + 4));
            ch.buf.push_back(Instr::alu(ip + 5));
            ch.buf.push_back(Instr::alu(ip + 9));
            ch.buf.push_back(Instr::alu(ip + 10));
            ch.buf.push_back(Instr::alu(ip + 11));
        }
        ch.buf.push_back(Instr::store(ip + 3, a_prop_b(v)));
    }
);

graph_kernel!(
    /// Maximal independent set: per vertex, read every neighbour's state
    /// flag with moderate ALU work per edge, occasionally flipping the
    /// vertex's own flag.
    Mis,
    "mis",
    0x0005_0000,
    fn refill(&mut self) {
        let ch = &mut self.ch;
        let (v, e0) = ch.graph.next_vertex();
        let ip = Self::IP;
        ch.buf.push_back(Instr::load(ip, a_offsets(v)));
        ch.buf.push_back(Instr::load(ip + 6, a_prop_a(v)));
        ch.buf.push_back(Instr::alu(ip + 7));
        for (e, &t) in (e0..).zip(ch.graph.targets()) {
            let t = t as usize;
            ch.buf.push_back(Instr::load(ip + 1, a_targets(e)));
            ch.buf.push_back(Instr::load_dep(ip + 2, a_prop_a(t)));
            for k in 0..10 {
                ch.buf.push_back(Instr::alu(ip + 8 + (k % 4)));
            }
        }
        if ch.rng.next_f32() < 0.2 {
            ch.buf.push_back(Instr::store(ip + 3, a_prop_a(v)));
        }
    }
);

graph_kernel!(
    /// Triangle counting by sorted adjacency-list intersection: jump to a
    /// neighbour's adjacency run (one irregular offset read) then scan it
    /// sequentially with two-pointer compares. Mostly sequential ⇒
    /// medium STLB MPKI.
    ///
    /// The jump needs a random neighbour's adjacency run, so tc alone
    /// keeps the graph's offsets array on the host.
    TriangleCount { offsets: Vec<u64> = GraphStream::offsets },
    "tc",
    0x0006_0000,
    fn refill(&mut self) {
        let ch = &mut self.ch;
        let (v, e0) = ch.graph.next_vertex();
        let ip = Self::IP;
        ch.buf.push_back(Instr::load(ip, a_offsets(v)));
        for (e, &u) in (e0..).zip(ch.graph.targets()) {
            let u = u as usize;
            ch.buf.push_back(Instr::load(ip + 1, a_targets(e)));
            // Intersections against already-resident lists are skipped
            // cheaply; a fraction jump to u's adjacency (irregular offset
            // read) and scan it sequentially (two-pointer intersection).
            if ch.rng.next_f32() >= 0.15 {
                ch.buf.push_back(Instr::alu(ip + 7));
                continue;
            }
            ch.buf.push_back(Instr::load_dep(ip + 2, a_offsets(u)));
            let first = self.offsets[u] as usize;
            let end = self.offsets[u + 1] as usize;
            // Bounded merge window.
            for e2 in first..end.min(first + 16) {
                ch.buf.push_back(Instr::load(ip + 6, a_targets(e2)));
                ch.buf.push_back(Instr::alu(ip + 4));
                ch.buf.push_back(Instr::alu(ip + 5));
            }
        }
    }
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemOp;
    use std::collections::HashSet;

    fn touched_pages(wl: &mut dyn Workload, n: usize) -> HashSet<u64> {
        let mut pages = HashSet::new();
        for _ in 0..n {
            if let Some(op) = wl.next_instr().op {
                let addr = match op {
                    MemOp::Load(a) | MemOp::Store(a) => a,
                };
                pages.insert(addr.vpn().raw());
            }
        }
        pages
    }

    #[test]
    fn pagerank_touches_many_pages() {
        let mut pr = PageRank::new(Scale::Test, 3);
        let pages = touched_pages(&mut pr, 100_000);
        assert!(pages.len() > 60, "only {} pages", pages.len());
    }

    #[test]
    fn pagerank_is_memory_dense() {
        let mut pr = PageRank::new(Scale::Test, 3);
        let mem = (0..10_000).filter(|_| pr.next_instr().op.is_some()).count();
        assert!(mem * 2 > 10_000, "pr should be >50% memory ops, got {mem}");
    }

    #[test]
    fn mis_has_more_compute_than_pr() {
        let mut pr = PageRank::new(Scale::Test, 3);
        let mut mis = Mis::new(Scale::Test, 3);
        let pr_mem = (0..20_000).filter(|_| pr.next_instr().op.is_some()).count();
        let mis_mem = (0..20_000)
            .filter(|_| mis.next_instr().op.is_some())
            .count();
        assert!(mis_mem < pr_mem);
    }

    #[test]
    fn tc_is_dominated_by_sequential_scans() {
        // The ip+6 scan loads should outnumber the ip+2 irregular jumps.
        let mut tc = TriangleCount::new(Scale::Test, 5);
        let mut seq = 0;
        let mut irr = 0;
        for _ in 0..50_000 {
            let i = tc.next_instr();
            if i.ip == TriangleCount::IP + 6 {
                seq += 1;
            } else if i.ip == TriangleCount::IP + 2 {
                irr += 1;
            }
        }
        assert!(seq > irr, "seq={seq} irr={irr}");
    }

    #[test]
    fn bf_emits_stores() {
        let mut bf = BellmanFord::new(Scale::Test, 7);
        let stores = (0..50_000)
            .filter(|_| matches!(bf.next_instr().op, Some(MemOp::Store(_))))
            .count();
        assert!(stores > 100, "stores={stores}");
    }

    #[test]
    fn kernels_wrap_around_the_vertex_set() {
        let mut cc = ConnectedComponents::new(Scale::Test, 1);
        // Consume far more instructions than one pass emits; must not
        // panic and must keep producing.
        for _ in 0..300_000 {
            let _ = cc.next_instr();
        }
    }
}
