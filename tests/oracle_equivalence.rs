//! Oracle suite for the simulator's run loops.
//!
//! * **Pinned digests** — FNV-1a digests of the exhaustive `Debug`
//!   rendering of `RunStats` (every counter, histogram and telemetry
//!   snapshot) for a fixed config × benchmark matrix, for randomized
//!   configurations, and for the partial statistics of a deadlocked
//!   run; and of `SmtStats` and the shared multicore's per-core
//!   `CoreStats` for base and tempo, with and without `ignore_deps`.
//!   Each was recorded from an earlier implementation of the loop it
//!   pins, so they are references independent of the current code.
//! * **Cancellation** — the poll threshold is observed even when it
//!   falls inside a decode batch, counted over both phases and every
//!   thread in the machine, the shared multicore and SMT alike.
//! * **Observation** — attaching telemetry must not change what runs.
//! * **Multi-context modes** — the shared multicore on one workload
//!   must equal `Machine::run`, DpPred included; `run_multicore` and
//!   `run_smt` must be run-to-run deterministic and honour
//!   `SimConfig::ignore_deps`.

use atc_bench::fnv1a;
use atc_core::{Enhancement, IdealConfig, PolicyChoice};
use atc_prefetch::PrefetcherKind;
use atc_sim::machine::CANCEL_POLL_INSTRS;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use atc_sim::{
    run_multicore, run_smt, Machine, RunStats, SimConfig, TelemetryConfig, DEFAULT_BATCH,
};
use atc_types::rng::SimRng;
use atc_types::{CancelToken, SimError};
use atc_workloads::{BenchmarkId, Instr, Scale, Workload};

const BENCHES: [BenchmarkId; 4] = [
    BenchmarkId::Mcf,
    BenchmarkId::Canneal,
    BenchmarkId::Pr,
    BenchmarkId::Xalancbmk,
];

fn digest(s: &RunStats) -> String {
    format!("{s:?}")
}

/// `cfg` with a 256-entry STLB: Test-scale footprints then walk the
/// page table and issue replay loads.
fn walk_heavy(mut cfg: SimConfig) -> SimConfig {
    cfg.machine.stlb.entries = 256;
    cfg
}

fn random_config(rng: &mut SimRng) -> SimConfig {
    let mut cfg = SimConfig::baseline();
    cfg.l2c_policy = match rng.next_below(4) {
        0 => PolicyChoice::Lru,
        1 => PolicyChoice::Srrip,
        2 => PolicyChoice::Drrip,
        _ => PolicyChoice::TDrrip,
    };
    cfg.llc_policy = match rng.next_below(3) {
        0 => PolicyChoice::Ship,
        1 => PolicyChoice::TShip,
        _ => PolicyChoice::Drrip,
    };
    cfg.atp = rng.next_below(2) == 0;
    cfg.tempo = rng.next_below(2) == 0;
    cfg.dppred = rng.next_below(4) == 0;
    cfg.ignore_deps = rng.next_below(4) == 0;
    cfg.prefetcher = match rng.next_below(5) {
        0 | 1 => PrefetcherKind::None,
        2 => PrefetcherKind::NextLine,
        3 => PrefetcherKind::Ipcp,
        _ => PrefetcherKind::Spp,
    };
    cfg.ideal = match rng.next_below(4) {
        0 | 1 => IdealConfig::none(),
        2 => IdealConfig::llc_both(),
        _ => IdealConfig::both_levels_both_classes(),
    };
    if rng.next_below(2) == 0 {
        cfg.machine.stlb.entries = 256;
    }
    if rng.next_below(3) == 0 {
        cfg.probes.telemetry = Some(TelemetryConfig {
            span_sample_every: 8,
            span_capacity: 32,
        });
    }
    if rng.next_below(4) == 0 {
        cfg.probes.stlb_recall = true;
    }
    cfg
}

/// Digest of the concatenated `RunStats` renderings of
/// [`randomized_config_digests_are_pinned`]'s eight runs.
const RANDOMIZED_PIN: u64 = 0xa677_9ce4_3953_c67b;

/// Randomized configurations (policies, enhancements, prefetchers,
/// oracles, telemetry, recall probes), led by the walk-heavy baseline
/// with nothing attached on a miss-heavy and a walk-heavy benchmark:
/// their statistics, telemetry counters included, match the digest
/// recorded when a scalar reference loop still checked the batched one
/// at batch sizes {1, 7, 64, 4096}.
#[test]
fn randomized_config_digests_are_pinned() {
    let mut rng = SimRng::seed_from_u64(0xba7c4);
    let mut cases = vec![
        (walk_heavy(SimConfig::baseline()), BenchmarkId::Mcf, 3),
        (walk_heavy(SimConfig::baseline()), BenchmarkId::Canneal, 3),
    ];
    for _ in 0..6 {
        let cfg = random_config(&mut rng);
        let bench = BENCHES[rng.next_below(BENCHES.len() as u64) as usize];
        let seed = 1 + rng.next_below(1000);
        cases.push((cfg, bench, seed));
    }
    let mut all = String::new();
    for (cfg, bench, seed) in &cases {
        let mut wl = bench.build(Scale::Test, *seed);
        let mut m = Machine::new(cfg).expect("valid config");
        all.push_str(&digest(
            &m.run(wl.as_mut(), 1_000, 5_000).expect("healthy run"),
        ));
    }
    assert_eq!(
        fnv1a(all.as_bytes()),
        RANDOMIZED_PIN,
        "randomized-config RunStats moved; cases: {cases:?}"
    );
}

/// Digest of a deadlocked run's error diagnostic and partial
/// `RunStats`, recorded alongside [`RANDOMIZED_PIN`].
const DEADLOCK_PIN: u64 = 0xb5cd_00fc_9681_739a;

/// A `SimFailure` is pinned too: the deadlock watchdog fires per
/// instruction, so the error diagnostic and the salvaged partial
/// statistics do not depend on where a decode batch ends.
#[test]
fn deadlock_partial_stats_are_pinned() {
    const NEVER: u64 = 1_000_000_000_000;
    let mut cfg = walk_heavy(SimConfig::baseline());
    cfg.machine.dram.row_hit_cycles = NEVER;
    cfg.machine.dram.row_miss_cycles = NEVER;
    cfg.watchdog_cycles = 1_000_000;

    let mut wl = BenchmarkId::Mcf.build(Scale::Test, 3);
    let mut m = Machine::new(&cfg).expect("valid config");
    let fail = m.run(wl.as_mut(), 2_000, 20_000).unwrap_err();
    assert!(fail.error.is_deadlock(), "{}", fail.error);
    let partial = fail.partial.as_ref().expect("partial stats present");
    let rendered = format!("{:?} || {}", fail.error, digest(partial));
    assert_eq!(
        fnv1a(rendered.as_bytes()),
        DEADLOCK_PIN,
        "failure digest moved: {rendered}"
    );
}

/// Counts the records every thread of a run decodes in one shared
/// counter and cancels the token when the count reaches `after`:
/// mid-batch from the run loop's point of view (each thread decodes a
/// batch at a time).
struct CancelAfter {
    inner: Box<dyn Workload>,
    token: CancelToken,
    after: u64,
    decoded: Arc<AtomicU64>,
}

impl Workload for CancelAfter {
    fn name(&self) -> &'static str {
        "cancel-after"
    }

    fn next_instr(&mut self) -> Instr {
        if self.decoded.fetch_add(1, Ordering::Relaxed) + 1 == self.after {
            self.token.cancel();
        }
        self.inner.next_instr()
    }
}

/// Regression for the divisibility poll: a warm-up that is not a
/// multiple of [`DEFAULT_BATCH`] leaves every later batch boundary off
/// the multiples of `CANCEL_POLL_INSTRS`, so an `is_multiple_of` poll
/// would never fire and the run would ignore cancellation entirely. The
/// threshold comparison must observe the token within one poll stride,
/// and the count it reports covers both phases and every thread: when
/// the token is cancelled at the `AFTER`-th decoded record, at most one
/// batch per thread is decoded but not yet executed. The machine, a
/// one-workload shared multicore and an SMT pair run the same loop.
#[test]
fn cancellation_observed_mid_batch_with_non_dividing_batch_size() {
    const WARMUP: u64 = 1_000;
    const AFTER: u64 = 5_000;
    const MEASURE: u64 = 40_000;
    assert!(!WARMUP.is_multiple_of(DEFAULT_BATCH as u64));

    let mix = |benches: &[(BenchmarkId, u64)]| {
        let token = CancelToken::new();
        let decoded = Arc::new(AtomicU64::new(0));
        let wls: Vec<Box<dyn Workload>> = benches
            .iter()
            .map(|&(b, seed)| {
                Box::new(CancelAfter {
                    inner: b.build(Scale::Test, seed),
                    token: token.clone(),
                    after: AFTER,
                    decoded: Arc::clone(&decoded),
                }) as Box<dyn Workload>
            })
            .collect();
        (token, wls)
    };
    let check = |topology: &str, threads: u64, error: SimError| {
        let SimError::Cancelled { instructions } = error else {
            panic!("{topology}: expected cancellation, got: {error}");
        };
        let earliest = AFTER - threads * DEFAULT_BATCH as u64;
        assert!(
            (earliest..=AFTER + CANCEL_POLL_INSTRS).contains(&instructions),
            "{topology}: cancel observed at {instructions}, expected within one poll \
             stride of {AFTER} decoded records"
        );
        assert!(
            instructions < threads * (WARMUP + MEASURE),
            "{topology}: run must not complete"
        );
        instructions
    };

    let (token, mut wls) = mix(&[(BenchmarkId::Mcf, 3)]);
    let mut m = Machine::new(&SimConfig::baseline()).unwrap();
    let fail = m
        .run_cancellable(wls[0].as_mut(), WARMUP, MEASURE, &token)
        .expect_err("run must abort once the token is cancelled");
    let instructions = check("machine", 1, fail.error);
    let partial = fail.partial.expect("cancellation salvages partial stats");
    assert_eq!(partial.core.instructions, instructions - WARMUP);

    let (token, mut wls) = mix(&[(BenchmarkId::Mcf, 3)]);
    let error = run_multicore(&SimConfig::baseline(), &mut wls, WARMUP, MEASURE, &token)
        .expect_err("multicore must abort once the token is cancelled");
    check("one-core multicore", 1, error);

    let (token, mut wls) = mix(&[(BenchmarkId::Mcf, 3), (BenchmarkId::Pr, 4)]);
    let (a, b) = wls.split_at_mut(1);
    let error = run_smt(
        &SimConfig::baseline(),
        a[0].as_mut(),
        b[0].as_mut(),
        WARMUP,
        MEASURE,
        &token,
    )
    .expect_err("SMT must abort once the token is cancelled");
    check("SMT", 2, error);
}

/// The pinned matrix: catalog configs `base`, `tempo`, `tempo` with a
/// 256-entry STLB, `pf-spp` and `nodeps`, each on mcf and pr.
fn pinned_matrix() -> Vec<(&'static str, SimConfig)> {
    let tempo = || SimConfig::with_enhancement(Enhancement::Tempo);
    let mut pf_spp = SimConfig::baseline();
    pf_spp.prefetcher = PrefetcherKind::Spp;
    let mut nodeps = SimConfig::baseline();
    nodeps.ignore_deps = true;
    vec![
        ("base", SimConfig::baseline()),
        ("tempo", tempo()),
        ("tempo-stlb256", walk_heavy(tempo())),
        ("pf-spp", pf_spp),
        ("nodeps", nodeps),
    ]
}

/// Digests of `format!("{:?}", RunStats)` for [`pinned_matrix`] × {mcf,
/// pr} at test scale, seed 42, 2k warm-up + 20k measured instructions,
/// in matrix order (mcf then pr per config).
const PINNED: [u64; 10] = [
    0xfd1b_41aa_2daa_e7dc,
    0x1dff_a57c_7665_d422,
    0xbb05_ddd3_c4de_4f0d,
    0xffb6_9d9b_5ecf_8f0d,
    0x5ab4_88fc_1ec3_4236,
    0xffb6_9d9b_5ecf_8f0d,
    0xef10_a68a_83ef_250f,
    0x99b7_5d4f_9d81_3d5d,
    0x47f2_9342_305e_0d55,
    0x7993_b468_30e2_9a2f,
];

#[test]
fn run_stats_digests_are_pinned() {
    let mut got = Vec::new();
    for (name, cfg) in pinned_matrix() {
        for bench in [BenchmarkId::Mcf, BenchmarkId::Pr] {
            let mut wl = bench.build(Scale::Test, 42);
            let mut m = Machine::new(&cfg).expect("valid config");
            let stats = m.run(wl.as_mut(), 2_000, 20_000).expect("healthy run");
            got.push((name, bench.name(), fnv1a(digest(&stats).as_bytes())));
        }
    }
    let digests: Vec<u64> = got.iter().map(|&(_, _, d)| d).collect();
    assert_eq!(digests, PINNED, "RunStats digests moved: {got:#x?}");
}

/// Attaching the telemetry probe observes a run without changing it:
/// with the snapshot cleared, the statistics equal the detached run's.
#[test]
fn attaching_telemetry_does_not_change_the_run() {
    let detached = walk_heavy(SimConfig::with_enhancement(Enhancement::Tempo));
    let mut attached = detached.clone();
    attached.probes.telemetry = Some(TelemetryConfig::default());
    for bench in [BenchmarkId::Pr, BenchmarkId::Mcf] {
        let run = |cfg: &SimConfig| {
            let mut wl = bench.build(Scale::Test, 7);
            let mut m = Machine::new(cfg).expect("valid config");
            m.run(wl.as_mut(), 2_000, 20_000).expect("healthy run")
        };
        let mut observed = run(&attached);
        assert!(observed.telemetry.take().is_some(), "telemetry attached");
        assert!(observed.walks > 0, "{}: config must walk", bench.name());
        assert_eq!(
            fnv1a(digest(&observed).as_bytes()),
            fnv1a(digest(&run(&detached)).as_bytes()),
            "{}: attaching telemetry changed the run",
            bench.name()
        );
    }
}

/// Randomized configuration for the multi-context modes: policies
/// (concrete and virtually-dispatched), enhancements, oracle filters,
/// prefetchers, STLB pressure and dependency handling.
fn random_multi_config(rng: &mut SimRng) -> SimConfig {
    let mut cfg = SimConfig::baseline();
    cfg.l2c_policy = match rng.next_below(3) {
        0 => PolicyChoice::Lru,
        1 => PolicyChoice::Drrip,
        _ => PolicyChoice::TDrrip,
    };
    cfg.llc_policy = match rng.next_below(3) {
        0 => PolicyChoice::Ship,
        1 => PolicyChoice::TShip,
        _ => PolicyChoice::Srrip,
    };
    cfg.atp = rng.next_below(2) == 0;
    cfg.tempo = rng.next_below(2) == 0;
    cfg.ignore_deps = rng.next_below(4) == 0;
    cfg.prefetcher = match rng.next_below(3) {
        0 | 1 => PrefetcherKind::None,
        _ => PrefetcherKind::NextLine,
    };
    if rng.next_below(3) == 0 {
        cfg.ideal = IdealConfig::llc_both();
    }
    if rng.next_below(2) == 0 {
        cfg.machine.stlb.entries = 256;
    }
    cfg
}

fn random_mix(rng: &mut SimRng, lanes: usize) -> Vec<(BenchmarkId, u64)> {
    (0..lanes)
        .map(|_| {
            let b = BENCHES[rng.next_below(BENCHES.len() as u64) as usize];
            (b, 1 + rng.next_below(1000))
        })
        .collect()
}

fn build_mix(mix: &[(BenchmarkId, u64)]) -> Vec<Box<dyn Workload>> {
    mix.iter().map(|(b, s)| b.build(Scale::Test, *s)).collect()
}

fn shared_multicore(cfg: &SimConfig, mix: &[(BenchmarkId, u64)]) -> String {
    let stats = run_multicore(cfg, &mut build_mix(mix), 2_000, 10_000, &CancelToken::new())
        .expect("shared run");
    format!("{stats:?}")
}

fn smt(cfg: &SimConfig, mix: &[(BenchmarkId, u64)]) -> String {
    let mut wls = build_mix(mix);
    let (a, b) = wls.split_at_mut(1);
    let stats = run_smt(
        cfg,
        a[0].as_mut(),
        b[0].as_mut(),
        2_000,
        10_000,
        &CancelToken::new(),
    )
    .expect("smt run");
    format!("{stats:?}")
}

/// The shared-mode matrix: base and tempo, with and without
/// `ignore_deps`.
fn shared_matrix() -> Vec<(&'static str, SimConfig)> {
    let nodeps = |mut cfg: SimConfig| {
        cfg.ignore_deps = true;
        cfg
    };
    let tempo = || SimConfig::with_enhancement(Enhancement::Tempo);
    vec![
        ("base", SimConfig::baseline()),
        ("base-nodeps", nodeps(SimConfig::baseline())),
        ("tempo", tempo()),
        ("tempo-nodeps", nodeps(tempo())),
    ]
}

const SMT_MIXES: [&[(BenchmarkId, u64)]; 2] = [
    &[(BenchmarkId::Mcf, 1), (BenchmarkId::Pr, 2)],
    &[(BenchmarkId::Canneal, 3), (BenchmarkId::Xalancbmk, 4)],
];

const MULTICORE_MIXES: [&[(BenchmarkId, u64)]; 2] = [
    &[(BenchmarkId::Mcf, 1), (BenchmarkId::Pr, 2)],
    &[
        (BenchmarkId::Canneal, 3),
        (BenchmarkId::Xalancbmk, 4),
        (BenchmarkId::Pr, 5),
        (BenchmarkId::Mcf, 6),
    ],
];

/// Digests of `format!("{:?}", SmtStats)` for [`shared_matrix`] ×
/// [`SMT_MIXES`] (2k warm-up + 10k measured per thread), in matrix
/// order, recorded when SMT still ran its own interleave loop.
const SMT_PINNED: [u64; 8] = [
    0xafc6_9fdb_da4b_42cb,
    0xc466_328f_15c7_7d2a,
    0xb42b_76b7_9b00_4cc4,
    0x9ee6_ac72_ac09_b4c3,
    0xa5c0_c83b_e73c_81b0,
    0xb77e_d227_4adc_ae29,
    0xf08e_3b30_2150_9134,
    0x4ce1_70fc_8906_eb36,
];

/// Digests of the shared multicore's `format!("{:?}", Vec<CoreStats>)`
/// for [`shared_matrix`] × [`MULTICORE_MIXES`], recorded with
/// [`SMT_PINNED`] when the shared multicore ran its own loop.
const MULTICORE_PINNED: [u64; 8] = [
    0x743c_0cae_9f79_c4d7,
    0xba67_4f84_509d_0e44,
    0xbad1_1119_895b_f817,
    0xaa0d_7a36_5b2a_fc1c,
    0x1bc1_1075_7b18_3732,
    0x1536_065b_c0fe_e564,
    0xa418_45d9_db5c_e29e,
    0x088e_1363_29fa_c9bb,
];

#[test]
fn smt_digests_are_pinned() {
    let mut got = Vec::new();
    for (name, cfg) in shared_matrix() {
        for mix in SMT_MIXES {
            got.push((name, fnv1a(smt(&cfg, mix).as_bytes())));
        }
    }
    let digests: Vec<u64> = got.iter().map(|&(_, d)| d).collect();
    assert_eq!(digests, SMT_PINNED, "SmtStats digests moved: {got:#x?}");
}

#[test]
fn shared_multicore_digests_are_pinned() {
    let mut got = Vec::new();
    for (name, cfg) in shared_matrix() {
        for mix in MULTICORE_MIXES {
            got.push((name, fnv1a(shared_multicore(&cfg, mix).as_bytes())));
        }
    }
    let digests: Vec<u64> = got.iter().map(|&(_, d)| d).collect();
    assert_eq!(
        digests, MULTICORE_PINNED,
        "multicore CoreStats digests moved: {got:#x?}"
    );
}

/// One core of the shared multicore is the single-core machine, DpPred
/// included: the LLC runs CbPred on the core's dead-page table in both.
#[test]
fn one_core_multicore_with_dppred_matches_machine_run() {
    let mut cfg = SimConfig::baseline();
    cfg.dppred = true;
    let (warmup, measure) = (10_000, 300_000);
    let mut wls = vec![BenchmarkId::Mcf.build(Scale::Small, 42)];
    let shared =
        run_multicore(&cfg, &mut wls, warmup, measure, &CancelToken::new()).expect("shared run");
    let mut wl = BenchmarkId::Mcf.build(Scale::Small, 42);
    let mut m = Machine::new(&cfg).expect("valid config");
    let alone = m.run(wl.as_mut(), warmup, measure).expect("alone run");
    assert_eq!(format!("{shared:?}"), format!("{:?}", [alone.core]));
}

#[test]
fn shared_multicore_is_deterministic_under_random_configs() {
    let mut rng = SimRng::seed_from_u64(0xd00f);
    for trial in 0..3u64 {
        let cfg = random_multi_config(&mut rng);
        // 2 or 4 cores: the shared mode scales the LLC by the core
        // count, which must keep the set count a power of two.
        let cores = if rng.next_below(2) == 0 { 2 } else { 4 };
        let mix = random_mix(&mut rng, cores);
        assert_eq!(
            shared_multicore(&cfg, &mix),
            shared_multicore(&cfg, &mix),
            "trial {trial} (mix {mix:?}): shared multicore not run-to-run deterministic\ncfg: {cfg:?}"
        );
    }
}

#[test]
fn smt_is_deterministic_under_random_configs() {
    let mut rng = SimRng::seed_from_u64(0x57a7);
    for trial in 0..3u64 {
        let cfg = random_multi_config(&mut rng);
        let mix = random_mix(&mut rng, 2);
        assert_eq!(
            smt(&cfg, &mix),
            smt(&cfg, &mix),
            "trial {trial} (mix {mix:?}): SMT not run-to-run deterministic\ncfg: {cfg:?}"
        );
    }
}

/// The dependency ablation reaches the shared modes: an mcf pair's
/// serial pointer chase runs in fewer cycles with `ignore_deps` set, in
/// SMT and in the shared multicore alike.
#[test]
fn smt_and_shared_multicore_honour_ignore_deps() {
    let mix = [(BenchmarkId::Mcf, 3), (BenchmarkId::Mcf, 4)];
    let deps = SimConfig::baseline();
    let mut nodeps = deps.clone();
    nodeps.ignore_deps = true;

    let smt_cycles = |cfg: &SimConfig| {
        let mut wls = build_mix(&mix);
        let (a, b) = wls.split_at_mut(1);
        let stats = run_smt(
            cfg,
            a[0].as_mut(),
            b[0].as_mut(),
            2_000,
            20_000,
            &CancelToken::new(),
        )
        .expect("smt run");
        stats.threads.iter().map(|t| t.cycles).sum::<u64>()
    };
    let (with, without) = (smt_cycles(&deps), smt_cycles(&nodeps));
    assert!(
        without < with,
        "SMT: ignore_deps {without} !< {with} cycles"
    );

    let multicore_cycles = |cfg: &SimConfig| {
        run_multicore(
            cfg,
            &mut build_mix(&mix),
            2_000,
            20_000,
            &CancelToken::new(),
        )
        .expect("shared run")
        .iter()
        .map(|c| c.cycles)
        .sum::<u64>()
    };
    let (with, without) = (multicore_cycles(&deps), multicore_cycles(&nodeps));
    assert!(
        without < with,
        "multicore: ignore_deps {without} !< {with} cycles"
    );
}
