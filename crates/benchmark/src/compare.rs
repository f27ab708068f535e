//! `benchmark compare A B`: two sets of runs, side by side.
//!
//! `A` and `B` are files of result lines as `--out` appends them (one
//! JSON object per run). For each workload × end-to-end metric named in
//! `BENCHMARK.json`, each side's median and quartiles are printed, and a
//! pair is flagged when `B`'s median is worse than `A`'s by more than
//! the metric's bound, or when a side's quartile spread exceeds the
//! bound (the comparison is then unresolved). Set-up time is judged on
//! its median only, as its spread is not gated.

use std::collections::{BTreeMap, BTreeSet};

use atc_bench::json::{self, Value};

use crate::stats::{median, quartiles};

/// One gated end-to-end metric from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Metric name.
    pub name: String,
    /// Unit, for display.
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Allowed worsening, as a share of the baseline median.
    pub bound: f64,
}

/// Read the `end_to_end` gates of a `BENCHMARK.json` document.
///
/// # Errors
///
/// Malformed JSON or a gate missing one of its keys.
pub fn gates(spec: &str) -> Result<Vec<Gate>, String> {
    let doc = json::parse(spec)?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|g| {
            let field = |k: &str| g.get(k).ok_or(format!("end_to_end entry without {k:?}"));
            let text = |k: &str| {
                field(k)?
                    .as_str()
                    .map(str::to_string)
                    .ok_or(format!("{k:?} is not a string"))
            };
            Ok(Gate {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: field("bound")?
                    .as_f64()
                    .ok_or("\"bound\" is not a number")?,
            })
        })
        .collect()
}

/// Values per `(workload, metric)` over every run in a results file.
pub type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Collect every run line of a results file.
///
/// # Errors
///
/// A line that is not a JSON object with `workload` and `metrics`.
pub fn runs(text: &str) -> Result<Runs, String> {
    let mut out = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", n + 1);
        let v = json::parse(line).map_err(|e| bad(&e))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let Some(Value::Object(metrics)) = v.get("metrics") else {
            return Err(bad("no metrics object"));
        };
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(out)
}

/// Render the comparison table; the flag is `true` when any pair is
/// worse than its bound or unresolved.
pub fn compare(a: &Runs, b: &Runs, gates: &[Gate]) -> (String, bool) {
    let mut out = String::new();
    let mut flagged = false;
    out.push_str(&format!(
        "{:<14} {:<13} {:>37} {:>37} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "bound"
    ));
    let workloads: BTreeSet<&String> = a.keys().chain(b.keys()).map(|(w, _)| w).collect();
    for w in workloads {
        for g in gates {
            let key = (w.clone(), g.name.clone());
            let (Some(xa), Some(xb)) = (a.get(&key), b.get(&key)) else {
                out.push_str(&format!("{w:<14} {:<13} missing on one side\n", g.name));
                flagged = true;
                continue;
            };
            let (ma, mb) = (median(xa), median(xb));
            let change = (mb - ma) / ma;
            let worse = if g.higher_is_better { -change } else { change };
            let spread = |x: &[f64]| {
                let (q1, q3) = quartiles(x);
                (q3 - q1) / median(x)
            };
            let noisy = g.name != "setup_s" && (spread(xa) > g.bound || spread(xb) > g.bound);
            let verdict = if worse > g.bound {
                "WORSE"
            } else if noisy {
                "unresolved"
            } else {
                "ok"
            };
            flagged |= verdict != "ok";
            let side = |x: &[f64]| {
                let (q1, q3) = quartiles(x);
                format!("{:.4e} [{:.4e}, {:.4e}] ({})", median(x), q1, q3, x.len())
            };
            out.push_str(&format!(
                "{w:<14} {:<13} {:>37} {:>37} {:>+7.2}% {:>5.0}%  {verdict}\n",
                g.name,
                side(xa),
                side(xb),
                change * 100.0,
                g.bound * 100.0
            ));
        }
    }
    (out, flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"end_to_end": [
        {"name": "instr_per_s", "unit": "instr/s", "better": "higher", "bound": 0.1},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#;

    fn line(workload: &str, ips: f64, wall: f64) -> String {
        format!(
            r#"{{"workload":"{workload}","metrics":{{"instr_per_s":{{"value":{ips},"unit":"instr/s"}},"wall_s":{{"value":{wall},"unit":"s"}}}}}}"#
        )
    }

    #[test]
    fn flags_only_pairs_outside_their_bound() {
        let g = gates(SPEC).unwrap();
        let a: String = (0..5)
            .map(|i| line("w", 100.0 + f64::from(i), 1.0) + "\n")
            .collect();
        // 5% slower: inside the bound.
        let b: String = (0..5)
            .map(|i| line("w", 95.0 + f64::from(i), 1.05) + "\n")
            .collect();
        let (table, flagged) = compare(&runs(&a).unwrap(), &runs(&b).unwrap(), &g);
        assert!(!flagged, "{table}");
        // 20% lower throughput: flagged, and only that metric.
        let c: String = (0..5)
            .map(|i| line("w", 80.0 + f64::from(i), 1.0) + "\n")
            .collect();
        let (table, flagged) = compare(&runs(&a).unwrap(), &runs(&c).unwrap(), &g);
        assert!(flagged);
        assert_eq!(table.matches("WORSE").count(), 1, "{table}");
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(runs("{\"metrics\":{}}").is_err());
        assert!(runs("not json").is_err());
        assert!(gates("{}").is_err());
    }
}
