//! Synthetic power-law graphs, generated one vertex at a time.
//!
//! The Ligra benchmarks run over real web/social graphs; we generate a
//! skewed random graph with the properties that matter for the memory
//! system: a heavy-tailed degree distribution (a few hub vertices absorb
//! many edges and stay cache/TLB-resident, the long tail misses) and no
//! spatial correlation between a vertex's neighbours (defeating spatial
//! prefetchers, as Fig 8 requires).
//!
//! The graph is a pure function of its seed: vertex `v`'s out-degree and
//! targets are the next draws of one RNG after those of vertices
//! `0..v`. A kernel visits only a small prefix of a `Small`-scale graph,
//! so [`GraphStream`] draws each vertex when the kernel's cursor reaches
//! it instead of materialising the CSR arrays up front; the arrays exist
//! only as simulated address space.

use crate::Scale;
use atc_types::rng::SimRng;

/// Draw one vertex: its out-degree, then `edge` once per out-edge with
/// the RNG positioned at that edge's target draw (exactly one
/// `next_f64`, i.e. one `next_u64`). Returns the degree.
///
/// [`GraphStream::next_vertex`] and [`GraphStream::offsets`] both go
/// through here, so they consume the RNG identically.
fn draw_vertex(rng: &mut SimRng, avg_degree: usize, mut edge: impl FnMut(&mut SimRng)) -> usize {
    // Out-degree: heavy-tailed around avg_degree (between 1 and 4×avg,
    // skewed low).
    let u: f64 = rng.next_f64();
    let deg = ((avg_degree as f64) * (0.25 + 3.75 * u * u * u)).max(1.0) as usize;
    for _ in 0..deg {
        edge(rng);
    }
    deg
}

/// A cursor over a synthetic power-law directed graph in CSR order.
///
/// Each [`next_vertex`](Self::next_vertex) yields the next vertex `v`
/// and the CSR slot of its first edge (`offsets[v]`), and leaves its
/// targets in a reused buffer. After vertex `n - 1` the stream re-seeds
/// and starts again at vertex 0, edge slot 0, reproducing the same
/// graph.
#[derive(Debug, Clone)]
pub struct GraphStream {
    n: usize,
    avg_degree: usize,
    seed: u64,
    rng: SimRng,
    /// The vertex the next call yields.
    v: usize,
    /// Its first edge slot.
    edge: usize,
    /// Targets of the vertex last yielded.
    targets: Vec<u32>,
}

impl GraphStream {
    /// A stream over the synthetic graph with `n` vertices and about
    /// `n * avg_degree` edges. Targets are skewed towards low vertex IDs
    /// (hubs) via an inverse-power transform.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `avg_degree == 0`.
    pub fn new(n: usize, avg_degree: usize, seed: u64) -> Self {
        assert!(n > 0 && avg_degree > 0);
        GraphStream {
            n,
            avg_degree,
            seed,
            rng: SimRng::seed_from_u64(seed),
            v: 0,
            edge: 0,
            targets: Vec::with_capacity(4 * avg_degree),
        }
    }

    /// Graph size for a benchmark scale: `(vertices, avg_degree)`.
    ///
    /// The out-degree is `d·(0.25 + 3.75·u³)` for uniform `u`, with mean
    /// `d·(0.25 + 3.75/4)` = 1.1875·d (7.125 at d = 6, 9.5 at d = 8);
    /// truncating it to an integer costs about half an edge per vertex.
    /// The sizes below are simulated address space only (8 B offsets and
    /// properties, 4 B targets): the host never holds these arrays.
    pub fn dims_for(scale: Scale) -> (usize, usize) {
        match scale {
            // 16k vertices, ~149k edges: < 1 MiB, fast for tests.
            Scale::Test => (16 * 1024, 8),
            // 6M vertices ×8B = 46 MiB per property array; ~39.6M edges
            // ×4B = 151 MiB: footprint ≫ STLB reach, and the leaf-PTE
            // working set (hundreds of KiB) overflows L1D/L2C so PTE
            // blocks genuinely compete in the hierarchy.
            Scale::Small => (6_000_000, 6),
            // 8M vertices, ~72.7M edges: 338 MiB of CSR arrays, 460 MiB
            // with both property arrays, the paper's region-of-interest
            // footprint.
            Scale::Paper => (8_000_000, 8),
        }
    }

    /// Draw the next vertex in CSR order, wrapping to vertex 0 after the
    /// last. Returns `(v, first_edge)`; the vertex's targets are then in
    /// [`targets`](Self::targets), edge slot `first_edge + i` pointing at
    /// `targets()[i]`.
    pub fn next_vertex(&mut self) -> (usize, usize) {
        if self.v == self.n {
            self.rng = SimRng::seed_from_u64(self.seed);
            self.v = 0;
            self.edge = 0;
        }
        let n = self.n;
        let targets = &mut self.targets;
        targets.clear();
        let deg = draw_vertex(&mut self.rng, self.avg_degree, |rng| {
            // Hub-skew: a high power of a uniform variate concentrates
            // targets heavily on low IDs (web/social graphs route most
            // edges through hubs) without eliminating the tail.
            let t: f64 = rng.next_f64();
            targets.push(((t.powi(6) * n as f64) as usize % n) as u32);
        });
        let at = (self.v, self.edge);
        self.v += 1;
        self.edge += deg;
        at
    }

    /// Targets of the vertex last yielded by
    /// [`next_vertex`](Self::next_vertex).
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// The graph's whole CSR offsets array (`n + 1` entries:
    /// `offsets[v]..offsets[v + 1]` are `v`'s edge slots), independent
    /// of the cursor. Skips the target arithmetic but advances the RNG
    /// exactly as [`next_vertex`](Self::next_vertex) does.
    pub fn offsets(&self) -> Vec<u64> {
        let mut rng = SimRng::seed_from_u64(self.seed);
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut edge = 0u64;
        offsets.push(edge);
        for _ in 0..self.n {
            edge += draw_vertex(&mut rng, self.avg_degree, |rng| {
                rng.next_u64();
            }) as u64;
            offsets.push(edge);
        }
        offsets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One full pass: every vertex's `(first_edge, targets)`.
    fn one_pass(g: &mut GraphStream) -> Vec<(usize, Vec<u32>)> {
        (0..g.n)
            .map(|_| {
                let (_, e) = g.next_vertex();
                (e, g.targets().to_vec())
            })
            .collect()
    }

    #[test]
    fn generates_requested_size() {
        let g = GraphStream::new(1000, 8, 3);
        let offsets = g.offsets();
        assert_eq!(offsets.len(), 1001);
        let e = offsets[1000];
        assert!(e > 4000 && e < 24_000, "edges = {e}");
    }

    #[test]
    fn edges_index_validly() {
        let mut g = GraphStream::new(500, 6, 1);
        for (v, (_, targets)) in one_pass(&mut g).into_iter().enumerate() {
            assert!(!targets.is_empty(), "vertex {v} has no edges");
            for t in targets {
                assert!((t as usize) < g.n);
            }
        }
    }

    #[test]
    fn degree_distribution_is_skewed_to_hubs() {
        let mut g = GraphStream::new(10_000, 8, 5);
        // In-degree of the lowest 10% of IDs should hold a large share of
        // all edges (hub skew).
        let mut indeg = vec![0u64; g.n];
        let mut edges = 0;
        for (_, targets) in one_pass(&mut g) {
            edges += targets.len();
            for t in targets {
                indeg[t as usize] += 1;
            }
        }
        let hub_share: u64 = indeg[..1000].iter().sum();
        let frac = hub_share as f64 / edges as f64;
        assert!(frac > 0.2, "hub share too small: {frac}");
        assert!(frac < 0.9, "degenerate hub share: {frac}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = GraphStream::new(2000, 5, 9);
        let mut b = GraphStream::new(2000, 5, 9);
        assert_eq!(one_pass(&mut a), one_pass(&mut b));
        assert_eq!(a.offsets(), b.offsets());
        let mut c = GraphStream::new(2000, 5, 10);
        assert_ne!(one_pass(&mut a), one_pass(&mut c));
    }

    #[test]
    fn dims_scale_up() {
        let (tv, _) = GraphStream::dims_for(Scale::Test);
        let (sv, _) = GraphStream::dims_for(Scale::Small);
        let (pv, _) = GraphStream::dims_for(Scale::Paper);
        assert!(tv < sv && sv < pv);
    }
}
