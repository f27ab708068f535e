//! The four workloads, and the end-to-end and traced runs over them.
//!
//! Every workload is a list of catalog jobs built by `build_jobs`: a
//! single-machine workload is one job of the sweep catalog, replayed as
//! a closed loop of *ops* (one `run_one_replay` each, one process, one
//! thread); `catalog_test` is the whole catalog, regenerated as *passes*
//! on two harness workers.
//!
//! An op (pass, set-up repetition) always does the same work, so its host
//! time only grows when something else holds the core. On a shared host
//! these times are bimodal, and the slow mode lasts from seconds to
//! minutes, so a run reports the fastest op (pass, set-up repetition) it
//! saw: the one statistic that does not flip between modes. Set-up is
//! repeated between the timed units, so that, like them, some of its
//! repetitions fall outside a slow stretch.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use atc_experiments::sweeps::{
    build_jobs, catalog, render_sweep, single_key, sweeps, Budget, ColValue, Column, Fmt, SweepDef,
    SweepJob, SweepKind,
};
use atc_harness::{
    run_with_manifest_opts, JobCtx, JobError, Manifest, Metrics, Progress, Record, Scheduler,
    SweepOptions,
};
use atc_sim::{run_one_replay, SimConfig};
use atc_workloads::trace::{capture, StreamKey, Trace, TraceCache};
use atc_workloads::{BenchmarkId, Scale};

use crate::digest::{pinned, stats_digest, text_digest};
use crate::layers::{analyse, Analysis};
use crate::spans::{Recorder, Span};
use crate::stats::{median, minimum, percentile};

/// After each timed unit the set-up is repeated while it has taken less
/// than this share of the run so far, so its repetitions are spread over
/// the whole run; `setup_s` is the fastest of them.
const SETUP_SHARE: f64 = 0.1;
/// Fewest set-up repetitions a run makes.
const SETUP_REPS: usize = 5;
/// Harness workers for the catalog (the development host has 2 vCPUs).
const CATALOG_WORKERS: usize = 2;
/// Ops per untraced/traced half of a single-machine traced round.
const OPS_PER_ROUND: usize = 4;
/// Fewest timed ops (catalog passes) a run makes, however short.
const MIN_OPS: usize = 3;
const MIN_PASSES: usize = 2;

/// What a workload runs.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// One catalog job (`label` on `bench`), replayed op after op.
    Single {
        label: &'static str,
        bench: BenchmarkId,
    },
    /// Every sweep of the catalog on every benchmark.
    Catalog,
}

/// A named benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name used by `--workload` and in `BENCHMARK.json`.
    pub name: &'static str,
    kind: Kind,
}

/// Every workload, in `--all` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "xalan_base",
        kind: Kind::Single {
            label: "base",
            bench: BenchmarkId::Xalancbmk,
        },
    },
    Workload {
        name: "pr_tempo",
        kind: Kind::Single {
            label: "tempo",
            bench: BenchmarkId::Pr,
        },
    },
    Workload {
        name: "pr_tempo_spp",
        kind: Kind::Single {
            label: "tempo-pf-spp",
            bench: BenchmarkId::Pr,
        },
    },
    Workload {
        name: "catalog_test",
        kind: Kind::Catalog,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How a run is shaped.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Measurement time; at least [`MIN_OPS`] ops or [`MIN_PASSES`]
    /// passes (one round, when traced) run.
    pub seconds: f64,
    /// Test-scale inputs and tiny budgets, for the smoke test.
    pub quick: bool,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Every op succeeded and matched its reference digest.
    pub correct: bool,
    /// Ops (single-machine) or jobs (catalog) attempted.
    pub attempted: u64,
    /// Of those, the ones that failed or mismatched.
    pub failed: u64,
    /// Metrics, in emission order.
    pub metrics: Vec<Metric>,
    /// Spans of a traced run (empty otherwise).
    pub spans: Vec<Span>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything a run needs, built by the run's first set-up repetition.
struct Setup {
    kind: Kind,
    defs: Vec<SweepDef>,
    benches: Vec<BenchmarkId>,
    budget: Budget,
    catalog: Vec<(&'static str, SimConfig)>,
    jobs: Vec<(String, SweepJob)>,
    /// Single-machine only: the op's stream.
    single: Option<SingleSetup>,
    /// The digest every op/pass must reproduce, when `expected.json`
    /// pins one for this seed.
    pinned: Option<u64>,
    manifest: PathBuf,
    /// Seconds per set-up repetition.
    total_s: Vec<f64>,
    /// Milliseconds per repetition of each set-up step.
    build_jobs_ms: Vec<f64>,
    build_ms: Vec<f64>,
    capture_ms: Vec<f64>,
}

struct SingleSetup {
    trace: Arc<Trace>,
    key: StreamKey,
}

impl Setup {
    /// One set-up repetition: the job list, and for a single-machine
    /// workload the op's stream and a first `Machine` (catalog: a fresh
    /// manifest). The run's first repetition keeps what it built.
    fn repeat(&mut self) -> Result<(), String> {
        let t0 = Instant::now();
        let jobs = build_jobs(&self.defs, &self.catalog, &self.benches, self.budget)?;
        self.build_jobs_ms.push(ms(t0));
        match self.kind {
            Kind::Catalog => {
                Manifest::open(&self.manifest, false).map_err(|e| e.to_string())?;
            }
            Kind::Single { bench, .. } => {
                let b = self.budget;
                let t1 = Instant::now();
                let mut wl = bench.build(b.scale, b.seed);
                self.build_ms.push(ms(t1));
                let t2 = Instant::now();
                let captured = capture(wl.as_mut(), (b.warmup + b.measure) as usize);
                self.capture_ms.push(ms(t2));
                atc_sim::Machine::new(single_cfg(&jobs)?).map_err(|e| e.to_string())?;
                self.single.get_or_insert_with(|| SingleSetup {
                    trace: Arc::new(captured),
                    key: StreamKey {
                        bench,
                        scale: b.scale,
                        seed: b.seed,
                        len: b.warmup + b.measure,
                    },
                });
            }
        }
        self.total_s.push(t0.elapsed().as_secs_f64());
        if self.jobs.is_empty() {
            self.jobs = jobs;
        }
        Ok(())
    }

    /// Time `unit` until `seconds` have passed and at least `min_units`
    /// ran, repeating the set-up after each unit while it has taken less
    /// than [`SETUP_SHARE`] of the run; each unit's time.
    fn measure(
        &mut self,
        seconds: f64,
        min_units: usize,
        mut unit: impl FnMut(&Setup) -> Result<f64, String>,
    ) -> Result<Vec<f64>, String> {
        let mut times = Vec::new();
        let start = Instant::now();
        while times.len() < min_units || start.elapsed().as_secs_f64() < seconds {
            times.push(unit(self)?);
            while self.total_s.iter().sum::<f64>() < SETUP_SHARE * start.elapsed().as_secs_f64() {
                self.repeat()?;
            }
        }
        while self.total_s.len() < SETUP_REPS {
            self.repeat()?;
        }
        Ok(times)
    }

    /// The single-machine op's config, stream and stream key.
    fn op(&self) -> Result<(SimConfig, Arc<Trace>, StreamKey), String> {
        let single = self
            .single
            .as_ref()
            .ok_or("not a single-machine workload")?;
        Ok((
            single_cfg(&self.jobs)?.clone(),
            Arc::clone(&single.trace),
            single.key,
        ))
    }
}

impl Workload {
    fn budget(&self, p: &Params) -> Budget {
        let (scale, warmup, measure) = match (self.kind, p.quick) {
            (Kind::Single { .. }, false) => (Scale::Small, 50_000, 200_000),
            (Kind::Catalog, false) => (Scale::Test, 10_000, 50_000),
            (_, true) => (Scale::Test, 2_000, 20_000),
        };
        Budget {
            scale,
            seed: p.seed,
            warmup,
            measure,
        }
    }

    fn defs(&self) -> (Vec<SweepDef>, Vec<BenchmarkId>) {
        match self.kind {
            Kind::Catalog => (sweeps(), BenchmarkId::ALL.to_vec()),
            Kind::Single { label, bench } => {
                let def = SweepDef {
                    name: self.name,
                    title: self.name,
                    kind: SweepKind::PerBench(vec![Column {
                        header: "ipc",
                        config: label,
                        value: ColValue::Metric("ipc"),
                        fmt: Fmt::F3,
                    }]),
                };
                (vec![def], vec![bench])
            }
        }
    }

    /// The run's first set-up repetition.
    fn setup(&self, p: &Params) -> Result<Setup, String> {
        let (defs, benches) = self.defs();
        if let Kind::Catalog = self.kind {
            bench_dir()?;
        }
        let mut s = Setup {
            kind: self.kind,
            defs,
            benches,
            budget: self.budget(p),
            catalog: catalog(),
            jobs: Vec::new(),
            single: None,
            pinned: if p.quick {
                None
            } else {
                pinned(self.name, p.seed)?
            },
            manifest: PathBuf::from(BENCH_DIR)
                .join(format!("manifest-{}.jsonl", std::process::id())),
            total_s: Vec::new(),
            build_jobs_ms: Vec::new(),
            build_ms: Vec::new(),
            capture_ms: Vec::new(),
        };
        s.repeat()?;
        Ok(s)
    }

    /// The untraced run: end-to-end metrics only.
    ///
    /// # Errors
    ///
    /// Set-up failures (bad catalog reference, manifest I/O); simulation
    /// failures are counted, not returned.
    pub fn run(&self, p: &Params) -> Result<Outcome, String> {
        let mut s = self.setup(p)?;
        let mut check = Check::new(s.pinned);
        let (units, instructions) = match self.kind {
            Kind::Single { .. } => {
                let ((cfg, trace, _), b) = (s.op()?, s.budget);
                let op = || run_one_replay(&cfg, Arc::clone(&trace), b.warmup, b.measure);
                check.reference(op().ok().as_ref().map(stats_digest));
                let units = s.measure(p.seconds, MIN_OPS, |_| {
                    let t = Instant::now();
                    let out = op();
                    let secs = t.elapsed().as_secs_f64();
                    check.op(out.ok().as_ref().map(stats_digest), 1);
                    Ok(secs)
                })?;
                (units, (b.warmup + b.measure) as f64)
            }
            Kind::Catalog => {
                let (reference, _) = catalog_pass(&s, None)?;
                check.reference(reference.digest());
                let units = s.measure(p.seconds, MIN_PASSES, |s| {
                    let (pass, _) = catalog_pass(s, None)?;
                    check.pass(&pass);
                    Ok(pass.wall_s)
                })?;
                (units, simulated_instructions(&s.jobs) as f64)
            }
        };
        let _ = std::fs::remove_file(&s.manifest);
        eprintln!(
            "benchmark: {} timed units, median {:.6} s, fastest {:.6} s; \
             {} set-up repetitions, median {:.6} s, fastest {:.6} s",
            units.len(),
            median(&units),
            minimum(&units),
            s.total_s.len(),
            median(&s.total_s),
            minimum(&s.total_s)
        );
        let wall_s = minimum(&units);
        Ok(check.finish(
            vec![
                metric("setup_s", minimum(&s.total_s), "s"),
                metric("instr_per_s", instructions / wall_s, "instr/s"),
                metric("wall_s", wall_s, "s"),
                metric("peak_rss_mib", peak_rss_mib()?, "MiB"),
            ],
            Vec::new(),
        ))
    }

    /// The traced run: alternating untraced and traced rounds through
    /// the harness, then the per-layer analysis of one representative
    /// op. Emits the per-layer metrics.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run), plus a failed layer analysis.
    pub fn run_traced(&self, p: &Params) -> Result<Outcome, String> {
        let mut s = self.setup(p)?;
        let rec = Recorder::default();
        let mut check = Check::new(s.pinned);
        let mut t = TracedRounds::default();
        let reps = if p.quick { 2 } else { 5 };
        let (analysis, build_ms, capture_ms) = match self.kind {
            Kind::Single { .. } => {
                let ((cfg, trace, key), b) = (s.op()?, s.budget);
                check.reference(
                    run_one_replay(&cfg, Arc::clone(&trace), b.warmup, b.measure)
                        .ok()
                        .as_ref()
                        .map(stats_digest),
                );
                let traces = TraceCache::new();
                let claimed = Mutex::new(HashSet::from([key]));
                rec.time("capture", "workloads", None, |_| traces.get(key));
                // Both halves run the same copies of the job through the
                // same harness path; only the recorder differs.
                let copies: Vec<(String, SweepJob)> = (0..OPS_PER_ROUND)
                    .map(|i| (format!("{}#{i}", s.jobs[0].0), s.jobs[0].1.clone()))
                    .collect();
                s.measure(p.seconds, 1, |s| {
                    let pass = harness_pass(&copies, 1, &traces, &claimed, &s.manifest, None)?;
                    check.jobs(&pass);
                    t.untraced_s.push(pass.wall_s);
                    let pass =
                        harness_pass(&copies, 1, &traces, &claimed, &s.manifest, Some(&rec))?;
                    check.jobs(&pass);
                    let last = &pass.records[pass.records.len() - 1];
                    let lookup = |key: &str| (key == s.jobs[0].0).then_some(&last.metrics);
                    rec.time("render", "experiments", None, |_| render_tables(s, &lookup));
                    t.note(&pass, 1);
                    Ok(pass.wall_s)
                })?;
                let analysis = analyse(&cfg, &trace, b.warmup, b.measure, reps, &rec)?;
                (analysis, median(&s.build_ms), median(&s.capture_ms))
            }
            Kind::Catalog => {
                let (reference, _) = catalog_pass(&s, None)?;
                check.reference(reference.digest());
                let mut traces = None;
                s.measure(p.seconds, 1, |s| {
                    let (pass, _) = catalog_pass(s, None)?;
                    t.untraced_s.push(pass.wall_s);
                    check.pass(&pass);
                    let (pass, cache) = catalog_pass(s, Some(&rec))?;
                    check.pass(&pass);
                    t.note(&pass, CATALOG_WORKERS);
                    traces = Some(cache);
                    Ok(pass.wall_s)
                })?;
                let traces = traces.ok_or("no traced round ran")?;
                // The representative op: the catalog's TEMPO job on `pr`.
                let b = s.budget;
                let key = single_key("tempo", BenchmarkId::Pr, b);
                let (_, job) = s
                    .jobs
                    .iter()
                    .find(|(k, _)| *k == key)
                    .ok_or_else(|| format!("catalog has no job {key}"))?;
                let SweepJob::Single { cfg, .. } = job else {
                    return Err(format!("{key} is not a single-machine job"));
                };
                let (mut build_ms, mut capture_ms) = (Vec::new(), Vec::new());
                for _ in 0..reps {
                    let t1 = Instant::now();
                    let mut wl = BenchmarkId::Pr.build(b.scale, b.seed);
                    build_ms.push(ms(t1));
                    let t2 = Instant::now();
                    capture(wl.as_mut(), (b.warmup + b.measure) as usize);
                    capture_ms.push(ms(t2));
                }
                let trace = traces.get(job.streams()[0]);
                let analysis = analyse(cfg, &trace, b.warmup, b.measure, reps, &rec)?;
                (analysis, median(&build_ms), median(&capture_ms))
            }
        };
        let _ = std::fs::remove_file(&s.manifest);
        if analysis.glue_frac() < 0.0 {
            check.flag("the isolated layer replays took longer than the real run");
        }
        let spans = rec.spans();
        let metrics = layer_metrics(&s, &t, &spans, &analysis, build_ms, capture_ms);
        Ok(check.finish(metrics, spans))
    }
}

/// The config of a single-machine workload's one job.
fn single_cfg(jobs: &[(String, SweepJob)]) -> Result<&atc_sim::SimConfig, String> {
    match jobs {
        [(_, SweepJob::Single { cfg, .. })] => Ok(cfg),
        _ => Err("a single-machine workload must build exactly one single-core job".into()),
    }
}

/// Where the benchmark keeps its scratch manifests and trace exports,
/// relative to the directory it runs in.
const BENCH_DIR: &str = "target/benchmark";

/// [`BENCH_DIR`], created if missing.
pub fn bench_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(BENCH_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Instructions the jobs simulate, warm-up included, over every lane.
fn simulated_instructions(jobs: &[(String, SweepJob)]) -> u64 {
    jobs.iter()
        .flat_map(|(_, j)| j.streams())
        .map(|k| k.len)
        .sum()
}

/// Correctness tally: every op or pass must succeed and reproduce the
/// reference digest (the pinned one when `expected.json` has it, else
/// the untimed first op's).
struct Check {
    pinned: Option<u64>,
    reference: Option<u64>,
    correct: bool,
    attempted: u64,
    failed: u64,
}

impl Check {
    fn new(pinned: Option<u64>) -> Check {
        Check {
            pinned,
            reference: None,
            correct: true,
            attempted: 0,
            failed: 0,
        }
    }

    /// The untimed first op's digest (`None` when it failed).
    fn reference(&mut self, digest: Option<u64>) {
        match digest {
            Some(d) => eprintln!("benchmark: reference digest {d:#018x}"),
            None => eprintln!("benchmark: the reference op failed"),
        }
        if digest.is_none() || (self.pinned.is_some() && digest != self.pinned) {
            self.correct = false;
        }
        self.reference = self.pinned.or(digest);
    }

    /// Tally `n` ops that produced `digest` (`None` = failed).
    fn op(&mut self, digest: Option<u64>, n: u64) {
        self.attempted += n;
        if digest.is_none() || digest != self.reference {
            self.failed += n;
        }
    }

    /// Tally a pass of single-machine copies: each non-ok job fails.
    fn jobs(&mut self, pass: &PassOut) {
        self.attempted += pass.records.len() as u64;
        self.failed += pass.failed_jobs();
    }

    /// Tally a catalog pass: each non-ok job fails, and a table digest
    /// mismatch fails the whole pass.
    fn pass(&mut self, pass: &PassOut) {
        let jobs = pass.records.len() as u64;
        match pass.digest() {
            Some(d) if Some(d) == self.reference => {
                self.attempted += jobs;
                self.failed += pass.failed_jobs();
            }
            _ => self.op(None, jobs.max(1)),
        }
    }

    /// Mark the run incorrect for a reason no op tally covers.
    fn flag(&mut self, why: &str) {
        eprintln!("benchmark: {why}");
        self.correct = false;
    }

    fn finish(self, metrics: Vec<Metric>, spans: Vec<Span>) -> Outcome {
        Outcome {
            correct: self.correct && self.failed == 0,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
            spans,
        }
    }
}

/// One harness pass.
struct PassOut {
    records: Vec<Record>,
    rendered: Option<String>,
    wall_s: f64,
    /// `(start, end)` ns on the recorder's clock (traced passes only).
    window: Option<(u64, u64)>,
}

impl PassOut {
    fn failed_jobs(&self) -> u64 {
        self.records.iter().filter(|r| !r.is_ok()).count() as u64
    }

    /// Digest of the rendered tables; `None` unless every job succeeded
    /// (the `suite --check` condition).
    fn digest(&self) -> Option<u64> {
        let rendered = self.rendered.as_deref()?;
        (self.failed_jobs() == 0 && !self.records.is_empty()).then(|| text_digest(rendered))
    }
}

/// Run `jobs` through a fresh manifest and `workers` harness workers.
/// With a recorder, every job runs inside a `harness` span whose
/// children time its trace-cache accesses (`workloads`: `capture` for
/// the first request of a stream, `wait` for the rest) and its
/// simulation (`sim`).
fn harness_pass(
    jobs: &[(String, SweepJob)],
    workers: usize,
    traces: &TraceCache,
    claimed: &Mutex<HashSet<StreamKey>>,
    manifest: &Path,
    rec: Option<&Recorder>,
) -> Result<PassOut, String> {
    let run = |key: &str, job: &SweepJob, ctx: &JobCtx| -> Result<Metrics, JobError> {
        let Some(rec) = rec else {
            return job.run(traces, &ctx.cancel);
        };
        rec.time(key, "harness", None, |id| {
            for stream in job.streams() {
                let first = claimed.lock().expect("claim set poisoned").insert(stream);
                let what = if first { "capture" } else { "wait" };
                rec.time(what, "workloads", Some(id), |_| traces.get(stream));
            }
            rec.time(key, "sim", Some(id), |_| job.run(traces, &ctx.cancel))
        })
    };
    bench_dir()?;
    let start_ns = rec.map(Recorder::now_ns);
    let t = Instant::now();
    let mut manifest = Manifest::open(manifest, false).map_err(|e| e.to_string())?;
    let scheduler = Scheduler::new(workers).with_retries(1);
    let outcome = run_with_manifest_opts(
        &scheduler,
        &Progress::new(),
        &mut manifest,
        jobs,
        run,
        SweepOptions::default(),
    )
    .map_err(|e| format!("manifest: {e}"))?;
    Ok(PassOut {
        records: outcome.records,
        rendered: None,
        wall_s: t.elapsed().as_secs_f64(),
        window: start_ns.zip(rec.map(Recorder::now_ns)),
    })
}

/// One full catalog regeneration: lazy capture into a fresh trace cache,
/// every job, then every table rendered (the pass's wall time includes
/// all three). Returns the cache too, for the layer analysis.
fn catalog_pass(s: &Setup, rec: Option<&Recorder>) -> Result<(PassOut, TraceCache), String> {
    let t = Instant::now();
    let traces = TraceCache::new();
    let claimed = Mutex::default();
    let mut pass = harness_pass(
        &s.jobs,
        CATALOG_WORKERS,
        &traces,
        &claimed,
        &s.manifest,
        rec,
    )?;
    let ok: HashMap<&str, &Metrics> = pass
        .records
        .iter()
        .filter(|r| r.is_ok())
        .map(|r| (r.key.as_str(), &r.metrics))
        .collect();
    let lookup = |key: &str| ok.get(key).copied();
    let rendered = match rec {
        Some(rec) => rec.time("render", "experiments", None, |_| render_tables(s, &lookup)),
        None => render_tables(s, &lookup),
    };
    pass.rendered = Some(rendered);
    pass.wall_s = t.elapsed().as_secs_f64();
    Ok((pass, traces))
}

fn render_tables<'m>(s: &Setup, lookup: &dyn Fn(&str) -> Option<&'m Metrics>) -> String {
    let mut out = String::new();
    for def in &s.defs {
        let table = render_sweep(def, &s.benches, s.budget, lookup);
        out.push_str(def.title);
        out.push('\n');
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

/// What the traced rounds measured.
#[derive(Debug, Default)]
struct TracedRounds {
    rounds: usize,
    /// Wall time of each untraced half.
    untraced_s: Vec<f64>,
    /// Wall time of each traced half.
    traced_s: Vec<f64>,
    /// `(window, workers)` of each traced pass.
    windows: Vec<((u64, u64), usize)>,
    jobs: u64,
    jobs_failed: u64,
    retries: u64,
}

impl TracedRounds {
    fn note(&mut self, pass: &PassOut, workers: usize) {
        self.rounds += 1;
        self.traced_s.push(pass.wall_s);
        if let Some(w) = pass.window {
            // The scheduler never runs more workers than jobs.
            self.windows
                .push((w, workers.min(pass.records.len()).max(1)));
        }
        self.jobs += pass.records.len() as u64;
        self.jobs_failed += pass.failed_jobs();
        self.retries += pass
            .records
            .iter()
            .map(|r| u64::from(r.attempts.saturating_sub(1)))
            .sum::<u64>();
    }
}

/// Build the per-layer metric list of a traced run.
fn layer_metrics(
    s: &Setup,
    t: &TracedRounds,
    spans: &[Span],
    a: &Analysis,
    build_ms: f64,
    capture_ms: f64,
) -> Vec<Metric> {
    let st = &a.stats;
    let kilo = st.core.instructions.max(1) as f64 / 1000.0;
    let pki = |n: u64| n as f64 / kilo;
    let frac = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let span_ms = |keep: &dyn Fn(&Span) -> bool| -> Vec<f64> {
        spans
            .iter()
            .filter(|sp| keep(sp))
            .map(|sp| sp.dur_ns() as f64 * 1e-6)
            .collect()
    };
    let span_s = |layer: &str, name: &str| -> f64 {
        span_ms(&|sp| sp.layer == layer && sp.name == name)
            .iter()
            .sum::<f64>()
            * 1e-3
    };
    let (busy, tail_s, gaps_ms) = harness_shape(spans, &t.windows);
    let translation_misses = st
        .llc
        .misses(atc_types::AccessClass::Translation(atc_types::PtLevel::L1))
        + st.llc
            .misses(atc_types::AccessClass::Translation(atc_types::PtLevel::L2));
    let b = a.busy();
    let busy_of = |layer: &str| b.iter().find(|(l, _)| *l == layer).map_or(0.0, |(_, f)| *f);
    // Simulations inside harness jobs (the analysis's runs have no parent).
    let op_ms = span_ms(&|sp| sp.layer == "sim" && sp.parent.is_some());
    let capture_s = span_s("workloads", "capture");
    let wait_s = span_s("workloads", "wait");
    let trace_mib = s
        .jobs
        .iter()
        .flat_map(|(_, j)| j.streams())
        .collect::<HashSet<_>>()
        .into_iter()
        .map(TraceCache::stream_bytes)
        .sum::<usize>() as f64
        / (1024.0 * 1024.0);
    let overhead = minimum(&t.untraced_s) / minimum(&t.traced_s) - 1.0;
    vec![
        metric("workloads.build_ms", build_ms, "ms"),
        metric("workloads.capture_ms", capture_ms, "ms"),
        metric(
            "workloads.decode_ns_per_instr",
            a.decode_ns / a.instructions as f64,
            "ns",
        ),
        metric("workloads.busy_frac", busy_of("workloads"), "ratio"),
        metric("workloads.catalog_capture_s", capture_s, "s"),
        metric("workloads.capture_wait_s", wait_s, "s"),
        metric("workloads.trace_mib", trace_mib, "MiB"),
        metric("vm.dtlb_mpki", pki(st.dtlb.misses), "mpki"),
        metric("vm.stlb_mpki", pki(st.stlb.misses), "mpki"),
        metric("vm.walks_pki", pki(st.walks), "pki"),
        metric(
            "vm.psc_hit_frac",
            frac(st.psc.0, st.psc.0 + st.psc.1),
            "ratio",
        ),
        metric("vm.query_ns", a.vm_ns / a.queries.max(1) as f64, "ns"),
        metric("vm.busy_frac", busy_of("vm"), "ratio"),
        metric("cache.l1d.mpki", pki(st.l1d.total_misses()), "mpki"),
        metric("cache.l2c.mpki", pki(st.l2c.total_misses()), "mpki"),
        metric("cache.llc.mpki", pki(st.llc.total_misses()), "mpki"),
        metric(
            "cache.llc.translation_mpki",
            pki(translation_misses),
            "mpki",
        ),
        metric(
            "cache.llc.replay_mpki",
            pki(st.llc.misses(atc_types::AccessClass::ReplayData)),
            "mpki",
        ),
        metric(
            "cache.l1d.probe_ns",
            a.cache_ns[0] / a.probes[0].max(1) as f64,
            "ns",
        ),
        metric(
            "cache.l2c.probe_ns",
            a.cache_ns[1] / a.probes[1].max(1) as f64,
            "ns",
        ),
        metric(
            "cache.llc.probe_ns",
            a.cache_ns[2] / a.probes[2].max(1) as f64,
            "ns",
        ),
        metric("cache.busy_frac", busy_of("cache"), "ratio"),
        metric("prefetch.l2c_fills_pki", pki(st.l2c_prefetch.0), "pki"),
        metric(
            "prefetch.l2c_useful_frac",
            frac(st.l2c_prefetch.1, st.l2c_prefetch.0),
            "ratio",
        ),
        metric("prefetch.on_access_ns", a.on_access_ns, "ns"),
        metric("prefetch.busy_frac", busy_of("prefetch"), "ratio"),
        metric("core.atp_issued_pki", pki(st.atp_issued), "pki"),
        metric("core.tempo_issued_pki", pki(st.tempo_issued), "pki"),
        metric(
            "core.l2c_pte_dead_frac",
            frac(st.l2c_pte_evictions.0, st.l2c_pte_evictions.1),
            "ratio",
        ),
        metric(
            "core.llc_replay_dead_frac",
            frac(st.llc_replay_evictions.0, st.llc_replay_evictions.1),
            "ratio",
        ),
        metric("dram.requests_pki", pki(st.dram.requests), "pki"),
        metric(
            "dram.row_hit_frac",
            frac(st.dram.row_hits, st.dram.requests),
            "ratio",
        ),
        metric(
            "dram.access_ns",
            a.dram_ns / a.dram_accesses.max(1) as f64,
            "ns",
        ),
        metric("dram.busy_frac", busy_of("dram"), "ratio"),
        metric("cpu.ipc", st.core.ipc(), "instr/cycle"),
        metric(
            "cpu.walk_stall_frac",
            frac(st.core.stalls.stlb_walk, st.core.cycles),
            "ratio",
        ),
        metric(
            "cpu.replay_stall_frac",
            frac(st.core.stalls.replay_data, st.core.cycles),
            "ratio",
        ),
        metric(
            "cpu.rob_ns_per_instr",
            a.rob_ns / a.instructions as f64,
            "ns",
        ),
        metric("cpu.busy_frac", busy_of("cpu"), "ratio"),
        metric("sim.machine_new_ms", a.machine_new_ns * 1e-6, "ms"),
        metric(
            "sim.run_ns_per_instr",
            a.run_ns / a.instructions as f64,
            "ns",
        ),
        metric("sim.glue_frac", a.glue_frac(), "ratio"),
        metric("sim.op_ms_p50", percentile(&op_ms, 50.0), "ms"),
        metric("sim.op_ms_p95", percentile(&op_ms, 95.0), "ms"),
        metric("harness.jobs", t.jobs as f64, "count"),
        metric("harness.jobs_failed", t.jobs_failed as f64, "count"),
        metric("harness.retries", t.retries as f64, "count"),
        metric("harness.worker_busy_frac", busy, "ratio"),
        metric("harness.tail_s", tail_s, "s"),
        metric("harness.gap_ms_p50", median(&gaps_ms), "ms"),
        metric("experiments.build_jobs_ms", median(&s.build_jobs_ms), "ms"),
        metric(
            "experiments.render_ms",
            median(&span_ms(&|sp| sp.layer == "experiments")),
            "ms",
        ),
        metric("trace.overhead_frac", overhead, "ratio"),
    ]
}

/// Worker occupancy over the traced passes: the sum of job spans over
/// `workers x pass wall`, the median tail (pass end minus the moment
/// the first worker ran out of jobs), and the gaps between consecutive
/// jobs on one worker, in ms.
fn harness_shape(spans: &[Span], windows: &[((u64, u64), usize)]) -> (f64, f64, Vec<f64>) {
    let (mut busy_ns, mut capacity_ns) = (0u64, 0u64);
    let mut tails = Vec::new();
    let mut gaps = Vec::new();
    for &((start, end), workers) in windows {
        let mut by_track: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for sp in spans
            .iter()
            .filter(|sp| sp.layer == "harness" && sp.start_ns >= start && sp.end_ns <= end)
        {
            busy_ns += sp.dur_ns();
            by_track
                .entry(sp.track)
                .or_default()
                .push((sp.start_ns, sp.end_ns));
        }
        capacity_ns += (end - start) * workers as u64;
        let first_idle = by_track
            .values()
            .filter_map(|v| v.iter().map(|&(_, e)| e).max())
            .min()
            .unwrap_or(end);
        tails.push((end - first_idle) as f64 * 1e-9);
        for v in by_track.values_mut() {
            v.sort_unstable();
            gaps.extend(
                v.windows(2)
                    .map(|w| w[1].0.saturating_sub(w[0].1) as f64 * 1e-6),
            );
        }
    }
    (
        busy_ns as f64 / capacity_ns.max(1) as f64,
        median(&tails),
        gaps,
    )
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An op whose config differs from the pinned one (half the STLB)
    /// must count as failed, not be accepted as a new reference.
    #[test]
    fn a_perturbed_config_is_reported_as_failed() {
        let p = Params {
            seed: 42,
            seconds: 0.0,
            quick: false,
        };
        let s = find("xalan_base").unwrap().setup(&p).unwrap();
        assert!(
            s.pinned.is_some(),
            "expected.json pins xalan_base at seed 42"
        );
        let (mut cfg, trace, _) = s.op().unwrap();
        let b = s.budget;
        let digest = |cfg: &SimConfig| {
            run_one_replay(cfg, Arc::clone(&trace), b.warmup, b.measure)
                .ok()
                .as_ref()
                .map(stats_digest)
        };
        let mut check = Check::new(s.pinned);
        check.reference(digest(&cfg));
        check.op(digest(&cfg), 1);
        cfg.machine.stlb.entries /= 2;
        check.op(digest(&cfg), 1);
        let out = check.finish(Vec::new(), Vec::new());
        assert_eq!((out.attempted, out.failed, out.correct), (2, 1, false));
    }
}
