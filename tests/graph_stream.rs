//! `GraphStream` against an independent reference: the eager CSR
//! generator it replaced, kept here as the oracle. The stream must yield
//! exactly the reference's edge slots and targets across wraps, its
//! offsets-only pass must equal the reference offsets, and a kernel
//! driven by it must repeat itself after each pass over the vertices.

use atc_types::rng::SimRng;
use atc_workloads::graph::GraphStream;
use atc_workloads::trace::capture;
use atc_workloads::{BenchmarkId, Scale};

const SEEDS: [u64; 4] = [0, 7, 42, 0xDEAD_BEEF];

/// The eager generator: `(offsets, targets)` of the whole graph.
fn reference(n: usize, avg_degree: usize, seed: u64) -> (Vec<u64>, Vec<u32>) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::with_capacity(n * avg_degree);
    offsets.push(0u64);
    for _ in 0..n {
        let u: f64 = rng.next_f64();
        let deg = ((avg_degree as f64) * (0.25 + 3.75 * u * u * u)).max(1.0) as usize;
        for _ in 0..deg {
            let t: f64 = rng.next_f64();
            let target = (t.powi(6) * n as f64) as usize % n;
            targets.push(target as u32);
        }
        offsets.push(targets.len() as u64);
    }
    (offsets, targets)
}

#[test]
fn stream_yields_the_reference_graph_across_wraps() {
    for seed in SEEDS {
        for (n, d) in [(257, 6), (257, 8), (1, 3)] {
            let (offsets, targets) = reference(n, d, seed);
            let mut g = GraphStream::new(n, d, seed);
            for pass in 0..3 {
                for v in 0..n {
                    let (sv, e) = g.next_vertex();
                    let at = format!("seed {seed} n {n} d {d} pass {pass} vertex {v}");
                    assert_eq!((sv, e as u64), (v, offsets[v]), "{at}");
                    let run = offsets[v] as usize..offsets[v + 1] as usize;
                    assert_eq!(g.targets(), &targets[run], "{at}");
                }
            }
        }
    }
}

#[test]
fn offsets_pass_equals_the_reference_offsets() {
    for seed in SEEDS {
        for (n, d) in [(257, 6), (4096, 8)] {
            let offsets = GraphStream::new(n, d, seed).offsets();
            assert_eq!(offsets, reference(n, d, seed).0, "seed {seed} n {n}");
        }
    }
}

#[test]
fn pagerank_capture_repeats_after_each_pass() {
    let (n, d) = GraphStream::dims_for(Scale::Test);
    for seed in [3, 42] {
        // pr narrates a vertex as an offsets load, three instructions per
        // edge, then an ALU op and a store: one pass is 3n + 3E long.
        let edges = reference(n, d, seed).1.len();
        let pass = 3 * n + 3 * edges;
        let mut pr = BenchmarkId::Pr.build(Scale::Test, seed);
        let trace = capture(pr.as_mut(), 2 * pass + 1000);
        for i in pass..trace.len() {
            assert_eq!(trace.get(i), trace.get(i - pass), "seed {seed}: instr {i}");
        }
    }
}
