//! Smoke test: every workload of `BENCHMARK.json`, untraced and traced,
//! in `--quick` mode (test-scale inputs, a few ops). The untraced run
//! must emit exactly the `end_to_end` metrics and the traced run exactly
//! the `per_layer` metrics, each finite and carrying the unit the spec
//! names; both must report a correct, failure-free run.

use std::path::{Path, PathBuf};
use std::process::Command;

use atc_bench::json::{self, Value};

fn spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn names<'a>(spec: &'a Value, list: &str) -> Vec<(&'a str, &'a str)> {
    spec.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit");
            (field("name"), field("unit"))
        })
        .collect()
}

struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let spec = spec();
    let scratch =
        Scratch(std::env::temp_dir().join(format!("atc-benchmark-smoke-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).expect("scratch dir");
    let workloads = spec.get("workloads").and_then(Value::as_array).unwrap();
    for w in workloads {
        let name = w.get("name").and_then(Value::as_str).unwrap();
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
                .args(["--workload", name, "--quick"])
                .args(["--seed", "42", "--trace", trace])
                .current_dir(&scratch.0)
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{name} --trace {trace}: {}\n{stdout}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
            assert_eq!(last.get("correct"), Some(&Value::Bool(true)), "{name}");
            assert_eq!(last.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(last.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            let Some(Value::Object(metrics)) = last.get("metrics") else {
                panic!("{name}: no metrics object");
            };
            let expected = names(&spec, list);
            let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let wanted: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
            assert_eq!(emitted, wanted, "{name} --trace {trace}: metric set");
            for ((metric, m), (_, unit)) in metrics.iter().zip(&expected) {
                let value = m.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{name}: {metric} = {:?} is not a finite number",
                    m.get("value")
                );
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    Some(*unit),
                    "{name}: {metric} unit"
                );
            }
        }
        let trace = scratch
            .0
            .join("target/benchmark")
            .join(format!("trace-{name}.json"));
        let doc = std::fs::read_to_string(&trace).expect("traced run exports its spans");
        assert!(
            json::parse(&doc).is_ok(),
            "{} is valid JSON",
            trace.display()
        );
    }
}
