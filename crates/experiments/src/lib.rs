#![deny(unsafe_code)]

//! The paper's experiments: every figure and table as one declarative
//! [`sweeps`] catalog, the paper's claims about them as [`claims`]
//! data, and the options the binaries share.
//!
//! The `suite` binary regenerates every figure in one checkpointed
//! process through `atc-harness`; with `--check` it also evaluates the
//! claims. `table1_config` prints the static machine parameters, and
//! `lane_mix` is the multicore lane-determinism smoke. They accept the
//! same flags:
//!
//! ```text
//! --seed N            RNG seed (default 42)
//! --scale test|small|paper   workload footprint (default small)
//! --warmup N          warmup instructions per run (default 200000)
//! --instructions N    measured instructions per run (default 2000000)
//! --benchmarks a,b,c  subset of benchmarks (default: all nine)
//! --jobs N            worker threads (default: one per available core)
//! --csv               emit CSV instead of an aligned table
//! --check             check the paper's claims and exit non-zero on a
//!                     failure
//! ```

use std::process::ExitCode;

use atc_stats::table::Table;
use atc_workloads::{BenchmarkId, Scale};

pub mod claims;
pub mod sweeps;

/// Parsed common command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// RNG seed.
    pub seed: u64,
    /// Workload scale.
    pub scale: Scale,
    /// Warmup instructions.
    pub warmup: u64,
    /// Measured instructions.
    pub measure: u64,
    /// Benchmarks to run.
    pub benchmarks: Vec<BenchmarkId>,
    /// Emit CSV.
    pub csv: bool,
    /// Check the paper's claims.
    pub check: bool,
    /// Worker threads for parallel sweeps (0 = one per available core).
    pub jobs: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            seed: 42,
            scale: Scale::Small,
            warmup: 200_000,
            measure: 2_000_000,
            benchmarks: BenchmarkId::ALL.to_vec(),
            csv: false,
            check: false,
            jobs: 0,
        }
    }
}

impl Opts {
    /// Parse `std::env::args()`; exits the process with a usage message
    /// on malformed input.
    pub fn parse() -> Opts {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(o) => o,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: [--seed N] [--scale test|small|paper] [--warmup N] \
                     [--instructions N] [--benchmarks a,b,c] [--jobs N] [--csv] [--check]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parse from an explicit argument iterator (testable).
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags or malformed values.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Opts, String> {
        let mut o = Opts::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
            let numeric = |name: &str, v: String| {
                v.parse::<u64>()
                    .map_err(|_| format!("{name} needs a number, got {v:?}"))
            };
            match a.as_str() {
                "--seed" => o.seed = numeric("--seed", value("--seed")?)?,
                "--warmup" => o.warmup = numeric("--warmup", value("--warmup")?)?,
                "--instructions" => {
                    o.measure = numeric("--instructions", value("--instructions")?)?
                }
                "--scale" => {
                    o.scale = match value("--scale")?.as_str() {
                        "test" => Scale::Test,
                        "small" => Scale::Small,
                        "paper" => Scale::Paper,
                        other => return Err(format!("unknown scale {other:?} (test|small|paper)")),
                    }
                }
                "--benchmarks" => {
                    o.benchmarks = Vec::new();
                    for s in value("--benchmarks")?.split(',') {
                        let b = BenchmarkId::parse(s.trim())
                            .ok_or_else(|| format!("unknown benchmark {s:?}"))?;
                        if o.benchmarks.contains(&b) {
                            return Err(format!("benchmark {s:?} given twice"));
                        }
                        o.benchmarks.push(b);
                    }
                }
                "--jobs" => o.jobs = numeric("--jobs", value("--jobs")?)? as usize,
                "--csv" => o.csv = true,
                "--check" => o.check = true,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(o)
    }

    /// Worker-thread count for parallel sweeps: `--jobs` when given,
    /// otherwise one per available core.
    pub fn worker_count(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism().map_or(4, usize::from)
        }
    }

    /// Print the table in the selected format.
    pub fn emit(&self, title: &str, table: &Table) {
        if self.csv {
            print!("{}", table.render_csv());
        } else {
            println!("{title}");
            println!("{}", table.render());
        }
    }
}

/// Accumulates `--check` assertion results; prints failures and converts
/// to an exit code.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
    passes: usize,
}

impl Checks {
    /// Create an empty check set.
    pub fn new() -> Self {
        Checks::default()
    }

    /// Assert a qualitative claim.
    pub fn claim(&mut self, ok: bool, description: &str) {
        if ok {
            self.passes += 1;
        } else {
            self.failures.push(description.to_string());
        }
    }

    /// Report and convert to an exit code (0 iff no failures).
    pub fn finish(self) -> ExitCode {
        for f in &self.failures {
            eprintln!("CHECK FAILED: {f}");
        }
        eprintln!(
            "checks: {} passed, {} failed",
            self.passes,
            self.failures.len()
        );
        if self.failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }

    /// Number of failed claims so far.
    pub fn failed(&self) -> usize {
        self.failures.len()
    }
}

/// Format a float with 2 decimals (tables).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a ratio as a percentage with 1 decimal. NaN (e.g. a hit
/// fraction over zero events) renders as `n/a` rather than `NaN%`.
pub fn pct(x: f64) -> String {
    if x.is_nan() {
        "n/a".to_string()
    } else {
        format!("{:.1}%", x * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_all_benchmarks() {
        let o = Opts::default();
        assert_eq!(o.benchmarks.len(), 9);
        assert_eq!(o.seed, 42);
    }

    #[test]
    fn parse_flags() {
        let o = Opts::parse_from(
            [
                "--seed",
                "7",
                "--scale",
                "test",
                "--benchmarks",
                "pr,mcf",
                "--csv",
                "--check",
                "--warmup",
                "10",
                "--instructions",
                "100",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .expect("well-formed flags parse");
        assert_eq!(o.seed, 7);
        assert_eq!(o.scale, Scale::Test);
        assert_eq!(o.benchmarks, vec![BenchmarkId::Pr, BenchmarkId::Mcf]);
        assert!(o.csv);
        assert!(o.check);
        assert_eq!(o.warmup, 10);
        assert_eq!(o.measure, 100);
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = Opts::parse_from(["--bogus".to_string()]).unwrap_err();
        assert!(err.contains("unknown flag"), "got {err:?}");
        let err = Opts::parse_from(["--seed".to_string()]).unwrap_err();
        assert!(err.contains("missing value"), "got {err:?}");
        let err = Opts::parse_from(["--seed".to_string(), "abc".to_string()]).unwrap_err();
        assert!(err.contains("needs a number"), "got {err:?}");
    }

    #[test]
    fn repeated_benchmark_is_an_error() {
        let args = ["--benchmarks", "pr,mcf,pr"].map(String::from);
        let err = Opts::parse_from(args).unwrap_err();
        assert!(err.contains("\"pr\" given twice"), "got {err:?}");
    }

    #[test]
    fn checks_track_failures() {
        let mut c = Checks::new();
        c.claim(true, "fine");
        c.claim(false, "broken");
        assert_eq!(c.failed(), 1);
    }

    #[test]
    fn jobs_flag_parses() {
        let o = Opts::parse_from(["--jobs".to_string(), "3".to_string()]).unwrap();
        assert_eq!(o.jobs, 3);
        assert_eq!(o.worker_count(), 3);
        assert!(Opts::default().worker_count() >= 1);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f3(0.1234), "0.123");
        assert_eq!(pct(0.051), "5.1%");
        assert_eq!(pct(f64::NAN), "n/a");
    }
}
