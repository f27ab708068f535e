#![deny(unsafe_code)]

//! Root meta-crate: re-exports the whole ATC simulator stack under one
//! name, so downstream users can depend on a single crate.
//!
//! See the [README](https://example.com/atc-sim) for the architecture
//! overview, DESIGN.md for the system inventory, and EXPERIMENTS.md for
//! the paper-vs-measured reproduction record.
//!
//! # Example
//!
//! ```
//! use atc::sim::{run_one, SimConfig};
//! use atc::workloads::{BenchmarkId, Scale};
//!
//! let cfg = SimConfig::baseline();
//! let stats = run_one(&cfg, BenchmarkId::Mcf, Scale::Test, 42, 1_000, 5_000)?;
//! assert_eq!(stats.core.instructions, 5_000);
//! # Ok::<(), atc::sim::SimFailure>(())
//! ```

pub use atc_bench as bench;
pub use atc_cache as cache;
pub use atc_core as core_policies;
pub use atc_cpu as cpu;
pub use atc_dram as dram;
pub use atc_harness as harness;
pub use atc_obs as obs;
pub use atc_prefetch as prefetch;
pub use atc_sim as sim;
pub use atc_stats as stats;
pub use atc_types as types;
pub use atc_vm as vm;
pub use atc_workloads as workloads;
