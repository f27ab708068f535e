//! Seeded property test for crash-tolerant manifest recovery.
//!
//! The crash model for an append-only file is a byte prefix: whatever
//! the kernel had written when the process died. For a valid manifest,
//! **every** byte prefix must (a) recover cleanly — complete lines load,
//! a torn trailing line is dropped, never an error — and (b) leave
//! `--resume` re-executing exactly the jobs whose records were lost.

use std::path::PathBuf;

use atc_harness::{
    run_with_manifest_opts, JobCtx, JobError, Manifest, Metrics, Progress, Record, Scheduler,
    SweepOptions,
};
use atc_types::SimRng;

struct TempPath(PathBuf);
impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn temp_path(name: &str) -> TempPath {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "atc-harness-prefix-{name}-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    TempPath(p)
}

/// Generate `n` records with seeded-random metrics (including awkward
/// values that stress bit-exact round-tripping).
fn seeded_records(seed: u64, n: usize) -> Vec<Record> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let mut metrics = Metrics::new();
            metrics.push("ipc", rng.next_f64() * 3.0);
            metrics.push("mpki", f64::from(rng.next_u32()) / 7.0);
            let failed = rng.chance(0.2);
            Record {
                key: format!("cfg{}/bench{}/s{seed}/j{i}", i % 3, i % 5),
                status: if failed { "failed" } else { "ok" }.to_string(),
                attempts: 1 + (rng.next_u64() % 3) as u32,
                wall_micros: rng.next_u64() % 1_000_000,
                metrics,
                error: failed.then(|| "seeded failure".to_string()),
            }
        })
        .collect()
}

#[test]
fn every_byte_prefix_recovers_cleanly_and_resumes_exactly_the_missing_jobs() {
    let seed = 0xa7c_2026;
    let records = seeded_records(seed, 8);
    let tmp = temp_path("full");
    {
        let mut m = Manifest::open(&tmp.0, false).unwrap();
        for r in &records {
            m.append(r.clone()).unwrap();
        }
        m.checkpoint().unwrap();
    }
    let full = std::fs::read(&tmp.0).unwrap();
    let newline_offsets: Vec<usize> = full
        .iter()
        .enumerate()
        .filter_map(|(i, &b)| (b == b'\n').then_some(i))
        .collect();
    assert_eq!(newline_offsets.len(), records.len(), "one line per record");

    let jobs: Vec<(String, usize)> = records
        .iter()
        .enumerate()
        .map(|(i, r)| (r.key.clone(), i))
        .collect();

    for cut in 0..=full.len() {
        let prefix = &full[..cut];
        // How many whole lines survive this crash point.
        let complete = newline_offsets.iter().filter(|&&nl| nl < cut).count();

        let tmp = temp_path(&format!("cut{cut}"));
        std::fs::write(&tmp.0, prefix).unwrap();

        // (a) Recovery is clean: complete-line records load verbatim, a
        // torn trailing line is dropped — never an error.
        let mut m = Manifest::open(&tmp.0, true)
            .unwrap_or_else(|e| panic!("prefix of {cut} bytes failed recovery: {e}"));
        assert_eq!(m.len(), complete, "prefix of {cut} bytes");
        for r in &records[..complete] {
            assert_eq!(m.get(&r.key), Some(r), "record round-trips bit-exactly");
        }
        let torn = cut
            > newline_offsets
                .get(complete.wrapping_sub(1))
                .map_or(0, |&nl| nl + 1)
            && complete < records.len();
        assert_eq!(m.recovery().torn_tail, torn, "prefix of {cut} bytes");
        assert_eq!(
            m.recovery().corrupt,
            0,
            "a prefix is never interior-corrupt"
        );

        // (b) Resume re-executes exactly the jobs the crash lost.
        let progress = Progress::new();
        let executed_keys = std::sync::Mutex::new(Vec::new());
        let out = run_with_manifest_opts(
            &Scheduler::new(2),
            &progress,
            &mut m,
            &jobs,
            |key: &str, &i: &usize, _ctx: &JobCtx| {
                executed_keys.lock().unwrap().push(key.to_string());
                // Re-execution regenerates the same metrics (jobs are
                // deterministic); failed records resume as-is and are
                // not retried.
                let r = &records[i];
                if r.is_ok() {
                    Ok(r.metrics.clone())
                } else {
                    Err(JobError::permanent("seeded failure"))
                }
            },
            SweepOptions::default(),
        )
        .unwrap();
        assert_eq!(out.resumed, complete, "prefix of {cut} bytes");
        assert_eq!(out.executed, records.len() - complete);
        let mut executed = executed_keys.into_inner().unwrap();
        executed.sort();
        let mut expected: Vec<String> = records[complete..].iter().map(|r| r.key.clone()).collect();
        expected.sort();
        assert_eq!(executed, expected, "exactly the missing jobs re-executed");
    }
}
