//! Process-death smoke: SIGKILL the suite mid-sweep, then prove
//! `--resume` completes the run with stdout **byte-identical** to an
//! uninterrupted run.
//!
//! The crash point is chosen by a fault plan rather than a timer:
//! fig16's job list puts the `tempo/*` jobs ahead of the `base/*` jobs,
//! so stalling `key=base/` guarantees the tempo records land (each is
//! written to the manifest as its job completes) while the base jobs
//! are parked inside their injected stall — the poller waits for the
//! first durable record and kills the child deep inside that window.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use atc_harness::Record;

/// Common flags: tiny budget, two benchmarks, one figure — enough to
/// have distinct `tempo/*` and `base/*` jobs without a slow test.
const COMMON: &[&str] = &[
    "--figures",
    "fig16",
    "--benchmarks",
    "mcf,xalancbmk",
    "--scale",
    "test",
    "--seed",
    "42",
    "--warmup",
    "2000",
    "--instructions",
    "20000",
    "--jobs",
    "2",
];

/// fig16 over two benchmarks: {tempo, base} × {mcf, xalancbmk}.
const TOTAL_JOBS: usize = 4;

struct TempDir(PathBuf);
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn temp_dir(name: &str) -> TempDir {
    let p = std::env::temp_dir().join(format!("atc-crash-resume-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    TempDir(p)
}

fn suite(manifest: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_suite"));
    cmd.args(COMMON)
        .arg("--manifest")
        .arg(manifest)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd
}

fn run_suite(manifest: &Path, extra: &[&str]) -> Output {
    let out = suite(manifest, extra).output().expect("spawn suite");
    assert!(
        out.status.success(),
        "suite failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Complete, checksum-valid records currently in the manifest file.
/// Reads the raw bytes rather than `Manifest::open` — the child still
/// owns the file, and recovery-time truncation must not race it.
fn durable_records(manifest: &Path) -> Vec<Record> {
    let Ok(text) = std::fs::read_to_string(manifest) else {
        return Vec::new();
    };
    text.split_inclusive('\n')
        .filter(|seg| seg.ends_with('\n'))
        .filter_map(|seg| Record::from_json_line(seg.trim_end()).ok())
        .collect()
}

#[test]
fn sigkill_mid_sweep_then_resume_is_byte_identical() {
    let dir = temp_dir("sigkill");

    // Reference: one uninterrupted run.
    let reference = run_suite(&dir.0.join("reference.jsonl"), &[]);
    assert!(!reference.stdout.is_empty(), "reference rendered no tables");

    // Crashed run: base/* jobs park in a 30 s injected stall, so only
    // tempo records can become durable, each the moment its job
    // completes.
    let manifest = dir.0.join("crashed.jsonl");
    let mut child: Child = suite(&manifest, &["--fault-plan", "42:stall30000@key=base/"])
        .spawn()
        .expect("spawn suite under fault plan");

    // Wait for the first durable record, then SIGKILL the child while
    // the base jobs are still inside their stall window.
    let deadline = Instant::now() + Duration::from_secs(120);
    let progressed = loop {
        let durable = durable_records(&manifest);
        if !durable.is_empty() {
            break durable;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("suite exited ({status}) before any record became durable");
        }
        assert!(
            Instant::now() < deadline,
            "no durable record within 120 s; manifest never progressed"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    child.kill().expect("SIGKILL the suite");
    let _ = child.wait();

    assert!(
        progressed.len() < TOTAL_JOBS,
        "crash point too late: all {TOTAL_JOBS} records already durable"
    );
    for r in &progressed {
        assert!(
            r.key.starts_with("tempo/"),
            "only tempo jobs could finish under the base/ stall, got {}",
            r.key
        );
    }

    // Resume without the fault plan: exactly the lost jobs re-execute,
    // and stdout is byte-identical to the uninterrupted run.
    let lost = TOTAL_JOBS - durable_records(&manifest).len();
    let resumed = run_suite(
        &manifest,
        &[
            "--resume",
            "--check",
            "--assert-executed",
            &lost.to_string(),
        ],
    );
    assert_eq!(
        resumed.stdout,
        reference.stdout,
        "resumed stdout differs from the uninterrupted run\n--- resumed stderr ---\n{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
}

#[test]
fn fault_plan_failures_are_recorded_then_healed_by_retry_failed_resume() {
    let dir = temp_dir("faulted");
    let manifest = dir.0.join("faulted.jsonl");

    // Reference: clean run, no faults.
    let reference = run_suite(&dir.0.join("reference.jsonl"), &[]);

    // Faulted pass: deterministic seeded panics, transient errors,
    // stalls, and torn manifest appends. Jobs may legitimately end
    // `failed`/`panicked`, so a non-zero exit is acceptable here — what
    // matters is that the process survives and records *something* for
    // every job it ran.
    let out = suite(
        &manifest,
        &[
            "--retries",
            "2",
            "--backoff-ms",
            "1",
            "--deadline-ms",
            "60000",
            "--fault-plan",
            "7:panic@0.4,transient@0.4,stall5@0.4,torn@0.5",
        ],
    )
    .output()
    .expect("spawn faulted suite");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("fault plan active"),
        "fault plan not engaged:\n{stderr}"
    );
    assert!(
        stderr.contains("fault tally:"),
        "end-of-run tally missing:\n{stderr}"
    );

    // Healing pass: resume with faults off, re-executing failed and
    // panicked records. Every job now succeeds and the rendered tables
    // match the clean reference byte-for-byte.
    let healed = run_suite(&manifest, &["--resume", "--retry-failed", "--check"]);
    assert_eq!(
        healed.stdout,
        reference.stdout,
        "healed stdout differs from the clean run\n--- healed stderr ---\n{}",
        String::from_utf8_lossy(&healed.stderr)
    );
}
