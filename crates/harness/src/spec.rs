//! Job identity: deterministic job keys for sweep jobs.
//!
//! A [`JobSpec`] is the identity of one simulation run — a configuration
//! *label* (the config-delta name, e.g. `tempo` or `stlb512-base`), a
//! benchmark, a seed, a workload scale and an instruction budget. Two
//! runs with equal specs are the same experiment: the simulator is
//! deterministic in all of these, so the spec's [`key`](JobSpec::key) is
//! a content address for the result and the manifest checkpoints on it.
//!
//! The harness deliberately stores config *labels*, not machine
//! configurations: the experiment layer owns the label → `SimConfig`
//! catalog, keeping this crate free of simulator types and keeping keys
//! stable, human-readable strings.

use atc_workloads::{BenchmarkId, Scale};

/// FNV-1a 64-bit hash of a job key — the manifest's short job id.
///
/// FNV-1a is stable across platforms and releases (unlike
/// `DefaultHasher`), which matters because hashes are persisted in
/// `manifest.jsonl` files that outlive the process.
pub fn key_hash(key: &str) -> u64 {
    atc_bench::fnv1a(key.as_bytes())
}

/// The deterministic identity of one simulation job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Config-delta label (the experiment layer maps it to a `SimConfig`).
    pub config: String,
    /// Benchmark to run.
    pub bench: BenchmarkId,
    /// RNG seed.
    pub seed: u64,
    /// Workload footprint scale.
    pub scale: Scale,
    /// Warmup instructions.
    pub warmup: u64,
    /// Measured instructions.
    pub measure: u64,
}

impl JobSpec {
    /// The canonical manifest key: every field that influences the
    /// simulator's output, in a fixed order.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/s{}/{}/w{}/m{}",
            self.config,
            self.bench.name(),
            self.seed,
            self.scale.name(),
            self.warmup,
            self.measure
        )
    }

    /// FNV-1a hash of [`key`](Self::key).
    pub fn hash(&self) -> u64 {
        key_hash(&self.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_stable_and_hash_matches_fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(key_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(key_hash("a"), 0xaf63_dc4c_8601_ec8c);
        let spec = JobSpec {
            config: "tempo".into(),
            bench: BenchmarkId::Pr,
            seed: 42,
            scale: Scale::Test,
            warmup: 1_000,
            measure: 10_000,
        };
        assert_eq!(spec.key(), "tempo/pr/s42/test/w1000/m10000");
        assert_eq!(spec.hash(), key_hash(&spec.key()));
    }
}
