#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Synthetic workload generators standing in for the paper's benchmarks.
//!
//! The paper evaluates on SPEC CPU2017 (`xalancbmk`, `mcf`), PARSEC
//! (`canneal`) and Ligra graph kernels (`tc`, `mis`, `bf`, `radii`, `cc`,
//! `pr`). We cannot ship SPEC binaries or trace files, so each benchmark
//! is modelled as an *address-stream generator* that reproduces the
//! properties the paper's mechanisms are sensitive to (see DESIGN.md):
//!
//! * data footprint far beyond the 8 MiB STLB reach, so STLB MPKI lands
//!   in the paper's Low / Medium / High bands (Table II);
//! * genuinely irregular access patterns (graph kernels run real
//!   label-propagation / rank / traversal loops over a synthetic
//!   power-law graph) so spatial prefetchers fail;
//! * per-benchmark instruction mixes (ALU ops between memory ops) and
//!   store ratios.
//!
//! Every generator is an infinite, deterministic (seeded) stream of
//! [`Instr`]; the simulator consumes as many instructions as the
//! experiment asks for.
//!
//! # Example
//!
//! ```
//! use atc_workloads::{BenchmarkId, Scale, Workload};
//!
//! let mut wl = BenchmarkId::Pr.build(Scale::Test, 42);
//! let i = wl.next_instr();
//! assert!(i.ip != 0);
//! ```

pub mod graph;
pub mod kernels;
pub mod spec;
pub mod trace;

use atc_types::VirtAddr;

/// A memory operation attached to an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// A demand load from the given virtual address.
    Load(VirtAddr),
    /// A store to the given virtual address.
    Store(VirtAddr),
}

/// One instruction of the synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// The instruction pointer (stable per static code location, as
    /// signature-based policies require).
    pub ip: u64,
    /// The memory operation, if this instruction touches memory.
    pub op: Option<MemOp>,
    /// True when this memory operation's *address* depends on the value
    /// of the most recent load (pointer dereference / indexed gather):
    /// it cannot issue until that load completes. This is what makes
    /// irregular codes latency-bound rather than bandwidth-bound.
    pub dep: bool,
}

impl Instr {
    /// An ALU/branch instruction.
    pub fn alu(ip: u64) -> Self {
        Instr {
            ip,
            op: None,
            dep: false,
        }
    }

    /// An independent load (address known at dispatch).
    pub fn load(ip: u64, addr: VirtAddr) -> Self {
        Instr {
            ip,
            op: Some(MemOp::Load(addr)),
            dep: false,
        }
    }

    /// A dependent load: its address comes from the previous load's
    /// value (e.g. `rank[edge.target]`, `node->next`).
    pub fn load_dep(ip: u64, addr: VirtAddr) -> Self {
        Instr {
            ip,
            op: Some(MemOp::Load(addr)),
            dep: true,
        }
    }

    /// A store instruction.
    pub fn store(ip: u64, addr: VirtAddr) -> Self {
        Instr {
            ip,
            op: Some(MemOp::Store(addr)),
            dep: false,
        }
    }
}

/// An infinite instruction stream.
pub trait Workload: Send {
    /// Benchmark name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Produce the next instruction.
    fn next_instr(&mut self) -> Instr;

    /// Decode the next `n` instructions into `out` (clearing it first).
    ///
    /// Semantically identical to calling [`next_instr`](Self::next_instr)
    /// `n` times; the bulk form exists so the simulator's batched run
    /// loop pays one dynamic dispatch per batch instead of one per
    /// instruction (the default body is monomorphized per implementor,
    /// so its internal `next_instr` calls are static). Overrides with a
    /// cheaper chunked decode (e.g. trace replay) must yield exactly the
    /// same stream.
    fn next_batch(&mut self, out: &mut Vec<Instr>, n: usize) {
        out.clear();
        out.reserve(n);
        for _ in 0..n {
            out.push(self.next_instr());
        }
    }
}

/// Move the first `take` buffered instructions into `out` as (at most)
/// two slice copies — the `VecDeque`'s contiguous halves — instead of an
/// element-at-a-time drain. Order is preserved exactly.
#[inline]
pub(crate) fn drain_front(
    out: &mut Vec<Instr>,
    buf: &mut std::collections::VecDeque<Instr>,
    take: usize,
) {
    let (a, b) = buf.as_slices();
    let from_a = take.min(a.len());
    out.extend_from_slice(&a[..from_a]);
    out.extend_from_slice(&b[..take - from_a]);
    buf.drain(..take);
}

/// Footprint scaling so tests stay fast while experiments use
/// paper-band footprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Tiny graphs/arrays for unit/integration tests (≈2–8 MiB).
    Test,
    /// Default experiment scale (≈32–96 MiB, ≫ 8 MiB STLB reach).
    #[default]
    Small,
    /// Closest to the paper's 200–400 MiB simulated regions.
    Paper,
}

impl Scale {
    /// Lower-case name, as used in CLI flags and harness job keys.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }

    /// Parse from [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Scale> {
        [Scale::Test, Scale::Small, Scale::Paper]
            .into_iter()
            .find(|sc| sc.name() == s)
    }
}

/// The nine benchmarks of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkId {
    /// SPEC CPU2017 XML transformer: low STLB MPKI.
    Xalancbmk,
    /// Ligra triangle counting: medium.
    Tc,
    /// PARSEC simulated annealing: medium.
    Canneal,
    /// Ligra maximal independent set: medium.
    Mis,
    /// SPEC CPU2017 network simplex: medium.
    Mcf,
    /// Ligra Bellman-Ford: high.
    Bf,
    /// Ligra graph radii estimation: high.
    Radii,
    /// Ligra connected components: high.
    Cc,
    /// Ligra PageRank: high.
    Pr,
}

impl BenchmarkId {
    /// All benchmarks in Table II order (ascending STLB MPKI).
    pub const ALL: [BenchmarkId; 9] = [
        BenchmarkId::Xalancbmk,
        BenchmarkId::Tc,
        BenchmarkId::Canneal,
        BenchmarkId::Mis,
        BenchmarkId::Mcf,
        BenchmarkId::Bf,
        BenchmarkId::Radii,
        BenchmarkId::Cc,
        BenchmarkId::Pr,
    ];

    /// Benchmark name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkId::Xalancbmk => "xalancbmk",
            BenchmarkId::Tc => "tc",
            BenchmarkId::Canneal => "canneal",
            BenchmarkId::Mis => "mis",
            BenchmarkId::Mcf => "mcf",
            BenchmarkId::Bf => "bf",
            BenchmarkId::Radii => "radii",
            BenchmarkId::Cc => "cc",
            BenchmarkId::Pr => "pr",
        }
    }

    /// Parse from the paper's benchmark name.
    pub fn parse(s: &str) -> Option<BenchmarkId> {
        Self::ALL.into_iter().find(|b| b.name() == s)
    }

    /// Instantiate the generator.
    pub fn build(self, scale: Scale, seed: u64) -> Box<dyn Workload> {
        match self {
            BenchmarkId::Xalancbmk => Box::new(spec::Xalancbmk::new(scale, seed)),
            BenchmarkId::Tc => Box::new(kernels::TriangleCount::new(scale, seed)),
            BenchmarkId::Canneal => Box::new(spec::Canneal::new(scale, seed)),
            BenchmarkId::Mis => Box::new(kernels::Mis::new(scale, seed)),
            BenchmarkId::Mcf => Box::new(spec::Mcf::new(scale, seed)),
            BenchmarkId::Bf => Box::new(kernels::BellmanFord::new(scale, seed)),
            BenchmarkId::Radii => Box::new(kernels::Radii::new(scale, seed)),
            BenchmarkId::Cc => Box::new(kernels::ConnectedComponents::new(scale, seed)),
            BenchmarkId::Pr => Box::new(kernels::PageRank::new(scale, seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_build_and_stream() {
        for b in BenchmarkId::ALL {
            let mut wl = b.build(Scale::Test, 7);
            assert_eq!(wl.name(), b.name());
            let mut mem = 0;
            for _ in 0..10_000 {
                if wl.next_instr().op.is_some() {
                    mem += 1;
                }
            }
            assert!(mem > 500, "{}: too few memory ops ({mem})", b.name());
            assert!(mem < 9_500, "{}: no compute at all ({mem})", b.name());
        }
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        for b in [BenchmarkId::Pr, BenchmarkId::Mcf, BenchmarkId::Canneal] {
            let mut a = b.build(Scale::Test, 11);
            let mut c = b.build(Scale::Test, 11);
            for _ in 0..5_000 {
                assert_eq!(a.next_instr(), c.next_instr());
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = BenchmarkId::Pr.build(Scale::Test, 1);
        let mut b = BenchmarkId::Pr.build(Scale::Test, 2);
        let same = (0..2000)
            .filter(|_| a.next_instr() == b.next_instr())
            .count();
        assert!(same < 2000);
    }

    #[test]
    fn parse_round_trips() {
        for b in BenchmarkId::ALL {
            assert_eq!(BenchmarkId::parse(b.name()), Some(b));
        }
        assert_eq!(BenchmarkId::parse("nope"), None);
    }
}
