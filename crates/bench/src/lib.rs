#![deny(unsafe_code)]

//! Plain micro-benchmark harness. Each file in `benches/` is a
//! `harness = false` main that times closures with `std::time::Instant`
//! — no external benchmarking dependency, so `cargo bench` works fully
//! offline.
//!
//! Every measurement prints a human-readable line *and* a
//! machine-readable JSON line, and a [`Reporter`] collects all results
//! so `--json <path>` writes the run to a file (the repo's perf
//! trajectory lives in `BENCH_sim.json`; see DESIGN.md for the schema).
//!
//! ```text
//! cargo bench -p atc-bench --bench sim_throughput -- --samples 2 --json BENCH_sim.json
//! ```

pub mod json;
pub mod stream;
pub mod telemetry;
pub mod trace_event;

use std::time::{Duration, Instant};

/// 64-bit FNV-1a of `bytes`: the workspace's one persisted hash (job
/// keys, manifest and telemetry-stream checksums, fault-plan dice,
/// pinned test digests). Unlike `DefaultHasher` it is stable across
/// platforms and releases, which matters for values written to disk.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One benchmark measurement: sorted-sample timing statistics plus the
/// optional per-iteration element count for throughput benches.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name, e.g. `machine/baseline`.
    pub name: String,
    /// Timed iterations measured.
    pub samples: u32,
    /// Fastest iteration, nanoseconds.
    pub min_ns: u64,
    /// Median iteration, nanoseconds.
    pub median_ns: u64,
    /// Mean iteration, nanoseconds.
    pub mean_ns: u64,
    /// Elements processed per iteration (throughput benches).
    pub elems: Option<u64>,
}

impl BenchResult {
    /// Median throughput in elements per second, when `elems` is known
    /// and a finite rate exists. A sub-nanosecond iteration whose median
    /// rounds to 0 ns has no meaningful rate (the division would produce
    /// `inf`), so it reports `None` rather than a non-finite number.
    pub fn elems_per_sec(&self) -> Option<f64> {
        let elems = self.elems?;
        if self.median_ns == 0 {
            return None;
        }
        let rate = elems as f64 * 1e9 / self.median_ns as f64;
        rate.is_finite().then_some(rate)
    }

    /// The result as one JSON object (the per-bench stdout line and the
    /// elements of the `--json` file).
    pub fn to_json(&self) -> json::Value {
        let mut obj = vec![
            ("name".to_string(), json::Value::String(self.name.clone())),
            (
                "samples".to_string(),
                json::Value::from(self.samples as f64),
            ),
            ("min_ns".to_string(), json::Value::from(self.min_ns as f64)),
            (
                "median_ns".to_string(),
                json::Value::from(self.median_ns as f64),
            ),
            (
                "mean_ns".to_string(),
                json::Value::from(self.mean_ns as f64),
            ),
        ];
        if let Some(e) = self.elems {
            obj.push(("elems".to_string(), json::Value::from(e as f64)));
            // Only a finite rate is emitted: a degenerate measurement
            // (median 0 ns) must surface as a missing key that
            // `check_bench_json` rejects, not as NaN smuggled into the
            // trajectory file.
            if let Some(rate) = self.elems_per_sec() {
                obj.push(("elems_per_s".to_string(), json::Value::from(rate)));
            }
        }
        json::Value::Object(obj)
    }
}

/// Time `f`: one untimed warmup run, then `samples` timed iterations
/// with the return value passed through [`std::hint::black_box`].
fn measure<T>(
    name: &str,
    samples: u32,
    elems: Option<u64>,
    mut f: impl FnMut() -> T,
) -> BenchResult {
    let samples = samples.max(1);
    std::hint::black_box(f());
    let mut times = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed());
    }
    times.sort();
    let total: Duration = times.iter().sum();
    BenchResult {
        name: name.to_string(),
        samples,
        min_ns: times[0].as_nanos() as u64,
        median_ns: median(&times).as_nanos() as u64,
        mean_ns: (total / samples).as_nanos() as u64,
        elems,
    }
}

/// Median of non-empty sorted `times`: the middle sample, or the mean of
/// the two middle samples for an even count (so two samples do not
/// report the slower one).
fn median(times: &[Duration]) -> Duration {
    let mid = times.len() / 2;
    if times.len().is_multiple_of(2) {
        (times[mid - 1] + times[mid]) / 2
    } else {
        times[mid]
    }
}

fn print_result(r: &BenchResult) {
    let median = Duration::from_nanos(r.median_ns);
    match r.elems_per_sec() {
        Some(rate) => {
            println!(
                "{:<44} median {median:>11.2?}  ({rate:>12.0} elem/s)",
                r.name
            );
        }
        None => {
            let min = Duration::from_nanos(r.min_ns);
            let mean = Duration::from_nanos(r.mean_ns);
            println!(
                "{:<44} min {min:>11.2?}  median {median:>11.2?}  mean {mean:>11.2?}",
                r.name
            );
        }
    }
    println!("{}", r.to_json().render());
}

/// Collects [`BenchResult`]s and handles the shared bench command line:
///
/// * `--samples N` overrides each bench's default sample count (CI smoke
///   runs pass a small N);
/// * `--json PATH` writes all results to `PATH` on [`finish`](Self::finish);
/// * `--append` merges into an existing `--json` file instead of
///   overwriting it: results with the same name are replaced, results
///   from other benches are kept (so several bench binaries can share
///   one `BENCH_sim.json`).
///
/// Unknown arguments are ignored — `cargo bench` passes `--bench` (and
/// filter strings) through to `harness = false` binaries.
#[derive(Debug, Default)]
pub struct Reporter {
    samples_override: Option<u32>,
    json_path: Option<String>,
    append: bool,
    results: Vec<BenchResult>,
}

impl Reporter {
    /// Build from `std::env::args()`.
    pub fn from_env() -> Reporter {
        Self::from_args(std::env::args().skip(1))
    }

    /// Build from an explicit argument list (testable).
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Reporter {
        let mut r = Reporter::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--samples" => {
                    r.samples_override = it.next().and_then(|v| v.parse().ok());
                }
                "--json" => {
                    r.json_path = it.next();
                }
                "--append" => {
                    r.append = true;
                }
                _ => {} // cargo's --bench etc.
            }
        }
        r
    }

    fn samples(&self, default: u32) -> u32 {
        self.samples_override.unwrap_or(default).max(1)
    }

    /// Time `f` and record/print the result.
    pub fn bench<T>(&mut self, name: &str, default_samples: u32, f: impl FnMut() -> T) {
        let r = measure(name, self.samples(default_samples), None, f);
        print_result(&r);
        self.results.push(r);
    }

    /// Time `f`, which processes `elems` items per iteration, and
    /// record/print the result with throughput.
    pub fn bench_throughput<T>(
        &mut self,
        name: &str,
        default_samples: u32,
        elems: u64,
        f: impl FnMut() -> T,
    ) {
        let r = measure(name, self.samples(default_samples), Some(elems), f);
        print_result(&r);
        self.results.push(r);
    }

    /// Record a pre-computed result without timing anything — for
    /// derived lines (e.g. a ratio of two measured benches) that should
    /// land in the `--json` document alongside timed results. Same-name
    /// merge semantics under `--append` apply as for timed results.
    pub fn record(&mut self, r: BenchResult) {
        print_result(&r);
        self.results.push(r);
    }

    /// Results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// The whole run as the `atc-bench-v1` JSON document.
    pub fn to_json(&self) -> json::Value {
        json::Value::Object(vec![
            (
                "schema".to_string(),
                json::Value::String("atc-bench-v1".to_string()),
            ),
            (
                "results".to_string(),
                json::Value::Array(self.results.iter().map(BenchResult::to_json).collect()),
            ),
        ])
    }

    /// Write the JSON document to the `--json` path, if one was given.
    /// Call once at the end of each bench main.
    pub fn finish(self) {
        if let Some(path) = &self.json_path {
            let doc = if self.append {
                match merge_into_existing(path, &self.results) {
                    Ok(doc) => doc,
                    Err(e) => {
                        eprintln!("error: could not merge into {path}: {e}");
                        std::process::exit(1);
                    }
                }
            } else {
                self.to_json()
            }
            .render();
            if let Err(e) = std::fs::write(path, doc + "\n") {
                eprintln!("error: could not write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote {} results to {path}", self.results.len());
        }
    }
}

/// Merge `fresh` results into the `atc-bench-v1` document at `path`:
/// same-name results are replaced in place, other results are kept, and
/// genuinely new names are appended. A missing file merges into an
/// empty document; a file that is not an `atc-bench-v1` document is an
/// error (refuse to clobber something else).
fn merge_into_existing(path: &str, fresh: &[BenchResult]) -> Result<json::Value, String> {
    let mut results: Vec<json::Value> = match std::fs::read_to_string(path) {
        Ok(text) => {
            let doc = json::parse(&text).map_err(|e| format!("existing file: {e}"))?;
            if doc.get("schema").and_then(json::Value::as_str) != Some("atc-bench-v1") {
                return Err("existing file is not an atc-bench-v1 document".to_string());
            }
            doc.get("results")
                .and_then(json::Value::as_array)
                .ok_or("existing file has no results array")?
                .to_vec()
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.to_string()),
    };
    for r in fresh {
        let json = r.to_json();
        let existing = results
            .iter_mut()
            .find(|v| v.get("name").and_then(json::Value::as_str) == Some(r.name.as_str()));
        match existing {
            Some(slot) => *slot = json,
            None => results.push(json),
        }
    }
    Ok(json::Value::Object(vec![
        (
            "schema".to_string(),
            json::Value::String("atc-bench-v1".to_string()),
        ),
        ("results".to_string(), json::Value::Array(results)),
    ]))
}

/// One-shot [`Reporter::bench`] without result collection (kept for
/// ad-hoc timing; bench mains should prefer a [`Reporter`]).
pub fn bench<T>(name: &str, samples: u32, f: impl FnMut() -> T) {
    print_result(&measure(name, samples.max(1), None, f));
}

/// One-shot [`Reporter::bench_throughput`] without result collection.
pub fn bench_throughput<T>(name: &str, samples: u32, elems: u64, f: impl FnMut() -> T) {
    print_result(&measure(name, samples.max(1), Some(elems), f));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_averages_the_middle_pair_of_an_even_count() {
        let ms = |v: &[u64]| {
            v.iter()
                .map(|&m| Duration::from_millis(m))
                .collect::<Vec<_>>()
        };
        assert_eq!(median(&ms(&[10, 14])), Duration::from_millis(12));
        assert_eq!(
            median(&ms(&[10, 11, 20, 30])),
            Duration::from_micros(15_500)
        );
        assert_eq!(median(&ms(&[7])), Duration::from_millis(7));
        assert_eq!(median(&ms(&[10, 11, 30])), Duration::from_millis(11));
    }

    #[test]
    fn reporter_parses_flags_and_ignores_cargo_noise() {
        let r = Reporter::from_args(
            ["--bench", "--samples", "3", "--json", "out.json", "filter"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(r.samples(20), 3);
        assert_eq!(r.json_path.as_deref(), Some("out.json"));
        let r = Reporter::from_args(std::iter::empty());
        assert_eq!(r.samples(20), 20);
        assert!(r.json_path.is_none());
        assert!(!r.append);
        let r = Reporter::from_args(["--append".to_string()]);
        assert!(r.append);
    }

    fn result(name: &str, median_ns: u64) -> BenchResult {
        BenchResult {
            name: name.into(),
            samples: 1,
            min_ns: median_ns,
            median_ns,
            mean_ns: median_ns,
            elems: None,
        }
    }

    #[test]
    fn append_merges_by_name_and_keeps_others() {
        let path =
            std::env::temp_dir().join(format!("atc-bench-append-{}.json", std::process::id()));
        let path_str = path.to_str().unwrap();
        let _ = std::fs::remove_file(&path);

        // Missing file: merge into an empty document.
        let doc = merge_into_existing(path_str, &[result("a", 10)]).unwrap();
        std::fs::write(&path, doc.render()).unwrap();

        // Replace `a`, keep nothing else, add `b`.
        let doc = merge_into_existing(path_str, &[result("a", 20), result("b", 30)]).unwrap();
        let results = doc.get("results").and_then(json::Value::as_array).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("name").and_then(json::Value::as_str),
            Some("a")
        );
        assert_eq!(
            results[0].get("median_ns").and_then(json::Value::as_f64),
            Some(20.0)
        );
        assert_eq!(
            results[1].get("name").and_then(json::Value::as_str),
            Some("b")
        );

        // Refuse to clobber a non-bench document.
        std::fs::write(&path, "{\"schema\":\"something-else\"}").unwrap();
        assert!(merge_into_existing(path_str, &[result("a", 1)]).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn results_collect_and_serialize() {
        let mut r = Reporter::from_args(["--samples".to_string(), "2".to_string()]);
        r.bench("unit/a", 20, || 1 + 1);
        r.bench_throughput("unit/b", 20, 1000, || std::hint::black_box(0u64));
        assert_eq!(r.results().len(), 2);
        assert_eq!(r.results()[0].samples, 2);
        let doc = r.to_json().render();
        let parsed = json::parse(&doc).expect("self-emitted JSON parses");
        assert_eq!(
            parsed.get("schema").and_then(json::Value::as_str),
            Some("atc-bench-v1")
        );
        let results = parsed
            .get("results")
            .and_then(json::Value::as_array)
            .expect("results array");
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("name").and_then(json::Value::as_str),
            Some("unit/a")
        );
        assert!(results[1]
            .get("median_ns")
            .and_then(json::Value::as_f64)
            .is_some());
        assert!(results[1]
            .get("elems_per_s")
            .and_then(json::Value::as_f64)
            .is_some());
    }

    #[test]
    fn derived_results_are_recorded_verbatim() {
        let mut r = Reporter::from_args(std::iter::empty());
        r.record(BenchResult {
            name: "derived/ratio".into(),
            samples: 0,
            min_ns: 1_000_000_000_000,
            median_ns: 1_000_000_000_000,
            mean_ns: 1_000_000_000_000,
            elems: Some(1_500),
        });
        assert_eq!(r.results().len(), 1);
        // elems_per_s encodes the derived scalar: 1500 / 1000 s = 1.5.
        assert_eq!(r.results()[0].elems_per_sec(), Some(1.5));
    }

    #[test]
    fn zero_duration_rate_is_none_and_omitted_from_json() {
        // A closure so fast its median rounds to 0 ns must not emit a
        // non-finite rate: `elems_per_sec` is None and the JSON line
        // omits `elems_per_s` entirely (check_bench_json then rejects
        // the degenerate measurement instead of passing NaN through).
        let r = BenchResult {
            name: "degenerate".into(),
            samples: 1,
            min_ns: 0,
            median_ns: 0,
            mean_ns: 0,
            elems: Some(1_000),
        };
        assert_eq!(r.elems_per_sec(), None);
        let obj = r.to_json();
        assert!(obj.get("elems").is_some());
        assert!(
            obj.get("elems_per_s").is_none(),
            "degenerate rate must be omitted, got {}",
            obj.render()
        );
    }

    #[test]
    fn throughput_is_elems_over_median() {
        let r = BenchResult {
            name: "x".into(),
            samples: 1,
            min_ns: 500,
            median_ns: 1_000,
            mean_ns: 1_000,
            elems: Some(2_000),
        };
        assert_eq!(r.elems_per_sec(), Some(2e9));
        let no_elems = BenchResult { elems: None, ..r };
        assert_eq!(no_elems.elems_per_sec(), None);
    }
}
