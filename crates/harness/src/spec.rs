//! Declarative sweep descriptions: deterministic job keys and cartesian
//! grids.
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

/// Builder for a cartesian sweep: configs × benchmarks × seeds under one
/// instruction budget.
///
/// # Example
///
/// ```
/// use atc_harness::Grid;
/// use atc_workloads::{BenchmarkId, Scale};
///
/// let jobs = Grid::new()
///     .configs(["base", "tempo"])
///     .benchmarks(&[BenchmarkId::Mcf, BenchmarkId::Pr])
///     .seeds([42])
///     .scale(Scale::Test)
///     .budget(1_000, 10_000)
///     .build();
/// assert_eq!(jobs.len(), 4);
/// assert_eq!(jobs[0].key(), "base/mcf/s42/test/w1000/m10000");
/// ```
#[derive(Debug, Clone)]
pub struct Grid {
    configs: Vec<String>,
    benchmarks: Vec<BenchmarkId>,
    seeds: Vec<u64>,
    scale: Scale,
    warmup: u64,
    measure: u64,
}

impl Default for Grid {
    fn default() -> Self {
        Grid::new()
    }
}

impl Grid {
    /// An empty grid with the experiment defaults (seed 42, `Small`
    /// scale, 200 k warmup + 2 M measured instructions).
    pub fn new() -> Self {
        Grid {
            configs: Vec::new(),
            benchmarks: Vec::new(),
            seeds: vec![42],
            scale: Scale::Small,
            warmup: 200_000,
            measure: 2_000_000,
        }
    }

    /// Set the config-delta labels.
    pub fn configs<I, S>(mut self, configs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.configs = configs.into_iter().map(Into::into).collect();
        self
    }

    /// Set the benchmarks.
    pub fn benchmarks(mut self, benchmarks: &[BenchmarkId]) -> Self {
        self.benchmarks = benchmarks.to_vec();
        self
    }

    /// Set the seeds.
    pub fn seeds<I: IntoIterator<Item = u64>>(mut self, seeds: I) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Set the workload scale.
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// Set the instruction budget.
    pub fn budget(mut self, warmup: u64, measure: u64) -> Self {
        self.warmup = warmup;
        self.measure = measure;
        self
    }

    /// Expand the cartesian product in config-major, then benchmark,
    /// then seed order. The expansion order is the *spec order* that
    /// aggregation preserves regardless of completion order.
    pub fn build(&self) -> Vec<JobSpec> {
        let mut out = Vec::with_capacity(self.configs.len() * self.benchmarks.len());
        for config in &self.configs {
            for &bench in &self.benchmarks {
                for &seed in &self.seeds {
                    out.push(JobSpec {
                        config: config.clone(),
                        bench,
                        seed,
                        scale: self.scale,
                        warmup: self.warmup,
                        measure: self.measure,
                    });
                }
            }
        }
        out
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

    #[test]
    fn grid_expands_config_major() {
        let jobs = Grid::new()
            .configs(["a", "b"])
            .benchmarks(&[BenchmarkId::Mcf, BenchmarkId::Pr])
            .seeds([1, 2])
            .scale(Scale::Test)
            .budget(10, 20)
            .build();
        assert_eq!(jobs.len(), 8);
        let keys: Vec<String> = jobs.iter().map(JobSpec::key).collect();
        assert_eq!(keys[0], "a/mcf/s1/test/w10/m20");
        assert_eq!(keys[1], "a/mcf/s2/test/w10/m20");
        assert_eq!(keys[2], "a/pr/s1/test/w10/m20");
        assert_eq!(keys[4], "b/mcf/s1/test/w10/m20");
        // All keys distinct.
        let set: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(set.len(), keys.len());
    }

    #[test]
    fn default_budget_matches_experiment_defaults() {
        let jobs = Grid::new()
            .configs(["base"])
            .benchmarks(&[BenchmarkId::Mcf])
            .build();
        assert_eq!(jobs[0].seed, 42);
        assert_eq!(jobs[0].warmup, 200_000);
        assert_eq!(jobs[0].measure, 2_000_000);
        assert_eq!(jobs[0].scale, Scale::Small);
    }
}
