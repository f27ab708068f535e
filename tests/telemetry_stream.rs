//! The `atc-telemetry-stream-v1` stream end to end.
//!
//! * **Sampler over a sweep's progress** — the shared sampler snapshots a
//!   harness `Progress` while another thread bumps its counters; the file
//!   passes `check_stream(.., 4)` and its final line carries the
//!   counters' final values.
//! * **Line bytes** — header, epoch and final lines written by the
//!   sampler for fixed snapshots, compared byte for byte with lines
//!   recorded from the line builders that preceded the sampler-owned
//!   writer. Only `t_us` is not fixed: each line's own checksum is
//!   verified, then its `t_us` is set to 1000 and the line re-sealed
//!   before the comparison.
//! * **Delta encoding** — `Registry::delta_since` is sparse and signed,
//!   closes out vanished counters, and its deltas telescope to the last
//!   snapshot under a seeded random increment schedule.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use atc_bench::fnv1a;
use atc_bench::json::Value;
use atc_bench::stream::{check_stream, unseal, Sampler, StreamOptions};
use atc_harness::Progress;
use atc_obs::Registry;

/// A per-test stream path under the temp dir.
fn stream_path(test: &str) -> PathBuf {
    std::env::temp_dir().join(format!("atc-telemetry-{test}-{}.jsonl", std::process::id()))
}

/// Write a stream from `snapshot` at `cadence`, calling `run` between
/// start and stop; returns the epoch count and the file's lines.
fn sample(
    test: &str,
    cadence: Duration,
    snapshot: impl Fn() -> Registry + Send + 'static,
    run: impl FnOnce(),
) -> (u64, Vec<String>) {
    let path = stream_path(test);
    let opts = StreamOptions {
        cadence,
        telemetry_path: Some(path.clone()),
    };
    let sampler = Sampler::start(snapshot, opts).expect("sampler starts");
    run();
    let epochs = sampler.stop().expect("stream writes");
    let text = std::fs::read_to_string(&path).expect("stream readable");
    std::fs::remove_file(&path).ok();
    (epochs, text.lines().map(str::to_string).collect())
}

/// A registry holding `(name, value)` counters in order.
fn registry(counters: &[(&'static str, u64)]) -> Registry {
    let mut reg = Registry::new();
    for &(name, v) in counters {
        let id = reg.counter(name);
        reg.set(id, v);
    }
    reg
}

/// `line` after checking its checksum, with its `t_us` value set to
/// 1000 and the checksum recomputed.
fn at_t1000(line: &str) -> String {
    unseal(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    let trunk = &line[..line.rfind(",\"ck\":\"").expect("sealed line")];
    let Some(at) = trunk.find("\"t_us\":").map(|i| i + "\"t_us\":".len()) else {
        return line.to_string();
    };
    let end = at + trunk[at..].find(',').expect("t_us is not the last member");
    let trunk = format!("{}1000{}", &trunk[..at], &trunk[end..]);
    format!("{trunk},\"ck\":\"{:016x}\"}}", fnv1a(trunk.as_bytes()))
}

#[test]
fn sampler_over_progress_reconciles() {
    let progress = Arc::new(Progress::new());
    progress.jobs_queued(10);
    let worker = Arc::clone(&progress);
    let snap = Arc::clone(&progress);
    let (epochs, lines) = sample(
        "progress",
        Duration::from_millis(2),
        move || snap.snapshot(),
        move || {
            std::thread::spawn(move || {
                for i in 0..10 {
                    worker.job_started();
                    worker.add_instructions(1_000);
                    worker.job_finished(if i % 4 == 3 { "failed" } else { "ok" }, 50);
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
            .join()
            .expect("worker thread");
        },
    );
    assert!(epochs >= 4, "padded to 4 epochs: {epochs}");
    assert_eq!(lines.len() as u64, epochs + 2, "header + epochs + final");
    let text = lines.join("\n") + "\n";
    let report = check_stream(&text, 4).expect("stream validates and reconciles");
    assert!(report.contains("reconciled"), "{report}");

    let fin = unseal(lines.last().unwrap()).unwrap();
    let counter = |name: &str| {
        fin.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_f64)
    };
    assert_eq!(counter("harness.jobs_done"), Some(8.0));
    assert_eq!(counter("harness.jobs_failed"), Some(2.0));
    assert_eq!(counter("harness.jobs_running"), Some(0.0));
    assert_eq!(counter("harness.instrs_done"), Some(10_000.0));
}

#[test]
fn sampler_without_a_file_still_samples_and_pads() {
    let calls = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&calls);
    let sampler = Sampler::start(
        move || {
            seen.fetch_add(1, Ordering::Relaxed);
            Registry::new()
        },
        StreamOptions {
            cadence: Duration::from_millis(1),
            telemetry_path: None,
        },
    )
    .expect("sampler starts");
    std::thread::sleep(Duration::from_millis(5));
    let epochs = sampler.stop().expect("no file, no write error");
    assert!(epochs >= 4, "{epochs}");
    assert!(calls.load(Ordering::Relaxed) >= 1);
}

/// A stream stopped before its first tick: the header, the stop-time
/// epoch, three zero-delta padding epochs and the final line, which
/// keeps the zero counter the epochs omit.
#[test]
fn stop_time_lines_match_the_recorded_bytes() {
    let (epochs, lines) = sample(
        "bytes",
        Duration::from_secs(3600),
        || registry(&[("jobs.done", 3), ("jobs.idle", 0), ("jobs.running", 2)]),
        || {},
    );
    assert_eq!(epochs, 4);
    let lines: Vec<String> = lines.iter().map(|l| at_t1000(l)).collect();
    assert_eq!(
        lines,
        [
            r#"{"schema":"atc-telemetry-stream-v1","v":1,"cadence_us":3600000000,"ck":"94670f3e65d7cac0"}"#,
            r#"{"epoch":0,"t_us":1000,"counters":{"jobs.done":3,"jobs.running":2},"ck":"cc9b3cc628b51322"}"#,
            r#"{"epoch":1,"t_us":1000,"counters":{},"ck":"c55482019309a145"}"#,
            r#"{"epoch":2,"t_us":1000,"counters":{},"ck":"e4af7c63dca2e840"}"#,
            r#"{"epoch":3,"t_us":1000,"counters":{},"ck":"2fe11ca659c7e9d3"}"#,
            r#"{"final":true,"epochs":4,"t_us":1000,"counters":{"jobs.done":3,"jobs.idle":0,"jobs.running":2},"ck":"78ac8963f2bcd663"}"#,
        ]
    );
}

/// A ticking stream whose second snapshot moves one counter up and a
/// gauge down: epoch 1 carries the signed deltas.
#[test]
fn tick_lines_match_the_recorded_bytes() {
    let calls = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&calls);
    let (_, lines) = sample(
        "ticks",
        Duration::from_millis(1),
        move || match seen.fetch_add(1, Ordering::SeqCst) {
            0 => registry(&[("jobs.done", 3), ("jobs.running", 2)]),
            _ => registry(&[("jobs.done", 7), ("jobs.running", 0)]),
        },
        || {
            while calls.load(Ordering::SeqCst) < 2 {
                std::thread::sleep(Duration::from_millis(1));
            }
        },
    );
    assert_eq!(
        lines[..3].iter().map(|l| at_t1000(l)).collect::<Vec<_>>(),
        [
            r#"{"schema":"atc-telemetry-stream-v1","v":1,"cadence_us":1000,"ck":"5096a1061c1a4ac0"}"#,
            r#"{"epoch":0,"t_us":1000,"counters":{"jobs.done":3,"jobs.running":2},"ck":"cc9b3cc628b51322"}"#,
            r#"{"epoch":1,"t_us":1000,"counters":{"jobs.done":4,"jobs.running":-2},"ck":"94ba104cedfdd821"}"#,
        ]
    );
    check_stream(&(lines.join("\n") + "\n"), 4).expect("stream reconciles");
}

#[test]
fn deltas_are_sparse_and_signed() {
    let mut reg = Registry::new();
    let up = reg.counter("up");
    let gauge = reg.counter("gauge");
    reg.counter("idle");

    reg.add(up, 5);
    reg.add(gauge, 2);
    let e0 = reg.clone();
    assert_eq!(e0.delta_since(&Registry::new()), [("up", 5), ("gauge", 2)]);

    reg.add(up, 1);
    reg.sub(gauge, 2);
    assert_eq!(reg.delta_since(&e0), [("up", 1), ("gauge", -2)]);
    assert!(reg.delta_since(&reg.clone()).is_empty(), "nothing moved");
}

#[test]
fn vanished_counters_are_closed_out() {
    let old = registry(&[("gone", 7)]);
    assert_eq!(Registry::new().delta_since(&old), [("gone", -7)]);
}

/// For every counter, the sum of all epoch deltas equals the final
/// snapshot value, whatever the interleaving of increments, decrements
/// and sampling points.
#[test]
fn delta_sums_telescope_to_final_snapshot() {
    const NAMES: [&str; 4] = ["a", "b", "gauge", "late"];
    for seed in 0..8u64 {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ (seed.wrapping_mul(0xd134_2543_de82_ef95));
        let mut next = move || {
            // xorshift64*: deterministic, no external deps.
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mut reg = Registry::new();
        let mut prev = Registry::new();
        let mut sums: HashMap<&'static str, i64> = HashMap::new();
        let mut epoch = |reg: &Registry, prev: &mut Registry| {
            for (n, d) in reg.delta_since(prev) {
                *sums.entry(n).or_default() += d;
            }
            *prev = reg.clone();
        };
        for step in 0..200 {
            let roll = next();
            let name = NAMES[(roll % 3) as usize + usize::from(step > 100 && roll % 7 == 0)];
            let id = reg.counter(name);
            if name == "gauge" && roll % 5 == 0 {
                reg.sub(id, next() % 4);
            } else {
                reg.add(id, next() % 9);
            }
            if next() % 11 == 0 {
                epoch(&reg, &mut prev);
            }
        }
        epoch(&reg, &mut prev);
        for &(name, v) in reg.counters() {
            assert_eq!(
                sums.get(name).copied().unwrap_or(0),
                v as i64,
                "seed {seed}: counter {name} does not telescope"
            );
        }
    }
}
