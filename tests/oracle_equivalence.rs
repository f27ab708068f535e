//! Oracle suite for the simulator's single timing path.
//!
//! * **Scalar vs batched** — `Machine::run_batched` must be observably
//!   identical to the scalar reference loop (`Machine::run_scalar`):
//!   byte-identical `RunStats` (compared through their exhaustive
//!   `Debug` rendering, which covers every counter, histogram and
//!   telemetry snapshot) at batch sizes {1, 7, 64, 4096} across
//!   randomized configurations, including the partial statistics of a
//!   deadlocked run and cancellation mid-batch.
//! * **Pinned digests** — the FNV-1a digest of that rendering for a
//!   fixed config × benchmark matrix, recorded when the batched loop
//!   still had a separate pre-pass. Both loops now share one
//!   per-instruction step, so these pins are the reference that is
//!   independent of it.
//! * **Observation** — attaching telemetry must not change what runs.
//! * **Multi-context modes** — `run_multicore_lanes` (one `Machine` per
//!   lane) must match a scalar-oracle run of each lane at every worker
//!   count; `run_multicore` and `run_smt` must be run-to-run
//!   deterministic and honour `SimConfig::ignore_deps`.

use atc_bench::fnv1a;
use atc_core::{Enhancement, IdealConfig, PolicyChoice};
use atc_prefetch::PrefetcherKind;
use atc_sim::machine::CANCEL_POLL_INSTRS;
use atc_sim::{
    run_multicore, run_multicore_lanes, run_smt, Machine, RunStats, SimConfig, TelemetryConfig,
};
use atc_types::rng::SimRng;
use atc_types::{CancelToken, SimError};
use atc_workloads::{BenchmarkId, Instr, Scale, Workload};

/// 7 and 4096 bracket the interesting cases: 7 never divides the cancel
/// stride, 4096 exceeds any phase remainder the tests use.
const BATCHES: [usize; 4] = [1, 7, 64, 4096];

const BENCHES: [BenchmarkId; 4] = [
    BenchmarkId::Mcf,
    BenchmarkId::Canneal,
    BenchmarkId::Pr,
    BenchmarkId::Xalancbmk,
];

fn digest(s: &RunStats) -> String {
    format!("{s:?}")
}

fn run_scalar(cfg: &SimConfig, bench: BenchmarkId, seed: u64, warmup: u64, measure: u64) -> String {
    let mut wl = bench.build(Scale::Test, seed);
    let mut m = Machine::new(cfg).expect("valid config");
    digest(
        &m.run_scalar(wl.as_mut(), warmup, measure)
            .expect("scalar run"),
    )
}

fn run_batched(
    cfg: &SimConfig,
    bench: BenchmarkId,
    seed: u64,
    warmup: u64,
    measure: u64,
    batch: usize,
) -> String {
    let mut wl = bench.build(Scale::Test, seed);
    let mut m = Machine::new(cfg).expect("valid config");
    digest(
        &m.run_batched(wl.as_mut(), warmup, measure, batch)
            .expect("batched run"),
    )
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

/// Randomized configurations (policies, enhancements, prefetchers,
/// oracles, telemetry, recall probes), led by the walk-heavy baseline
/// with nothing attached on a miss-heavy and a walk-heavy benchmark:
/// every batch size reproduces the scalar loop's statistics byte for
/// byte, telemetry counters included.
#[test]
fn randomized_configs_match_scalar_at_every_batch_size() {
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
    for (case, (cfg, bench, seed)) in cases.iter().enumerate() {
        let reference = run_scalar(cfg, *bench, *seed, 1_000, 5_000);
        for batch in BATCHES {
            let got = run_batched(cfg, *bench, *seed, 1_000, 5_000, batch);
            assert_eq!(
                got,
                reference,
                "case {case} ({}, seed {seed}, batch {batch}): batched stats diverge\ncfg: {cfg:?}",
                bench.name()
            );
        }
    }
}

/// A `SimFailure` must be batch-invariant too: the deadlock watchdog
/// fires per instruction in both loops, so the error diagnostic and the
/// salvaged partial statistics are identical at every batch size.
#[test]
fn deadlock_partial_stats_match_scalar_at_every_batch_size() {
    const NEVER: u64 = 1_000_000_000_000;
    let mut cfg = walk_heavy(SimConfig::baseline());
    cfg.machine.dram.row_hit_cycles = NEVER;
    cfg.machine.dram.row_miss_cycles = NEVER;
    cfg.watchdog_cycles = 1_000_000;

    let fail_digest = |fail: atc_sim::SimFailure| {
        let partial = fail.partial.as_ref().expect("partial stats present");
        format!("{:?} || {}", fail.error, digest(partial))
    };

    let mut wl = BenchmarkId::Mcf.build(Scale::Test, 3);
    let mut m = Machine::new(&cfg).expect("valid config");
    let reference = fail_digest(m.run_scalar(wl.as_mut(), 2_000, 20_000).unwrap_err());
    for batch in BATCHES {
        let mut wl = BenchmarkId::Mcf.build(Scale::Test, 3);
        let mut m = Machine::new(&cfg).expect("valid config");
        let got = fail_digest(
            m.run_batched(wl.as_mut(), 2_000, 20_000, batch)
                .unwrap_err(),
        );
        assert_eq!(got, reference, "batch={batch}: failure digest diverges");
    }
}

/// A zero batch size is a configuration error, not a hang or a panic.
#[test]
fn zero_batch_size_is_a_config_error() {
    let mut wl = BenchmarkId::Mcf.build(Scale::Test, 3);
    let mut m = Machine::new(&SimConfig::baseline()).unwrap();
    let fail = m.run_batched(wl.as_mut(), 100, 100, 0).unwrap_err();
    assert!(matches!(fail.error, SimError::Config(_)), "{}", fail.error);
}

/// Cancels its token after issuing `after` instructions, mid-batch from
/// the run loop's point of view (decode happens a batch at a time).
struct CancelAfter {
    inner: Box<dyn Workload>,
    token: CancelToken,
    after: u64,
    issued: u64,
}

impl Workload for CancelAfter {
    fn name(&self) -> &'static str {
        "cancel-after"
    }

    fn next_instr(&mut self) -> Instr {
        self.issued += 1;
        if self.issued == self.after {
            self.token.cancel();
        }
        self.inner.next_instr()
    }
}

/// Regression for the divisibility poll: with a batch size that does not
/// divide `CANCEL_POLL_INSTRS`, the retired counter steps over every
/// multiple of 4096, so an `is_multiple_of` poll would never fire and
/// the run would ignore cancellation entirely. The threshold comparison
/// must observe the token within one poll stride plus one batch.
#[test]
fn cancellation_observed_mid_batch_with_non_dividing_batch_size() {
    const AFTER: u64 = 5_000;
    const MEASURE: u64 = 40_000;
    const BATCH: usize = 7; // 4096 % 7 != 0, and 7 ∤ 4096
    assert!(!CANCEL_POLL_INSTRS.is_multiple_of(BATCH as u64));

    let token = CancelToken::new();
    let mut wl = CancelAfter {
        inner: BenchmarkId::Mcf.build(Scale::Test, 3),
        token: token.clone(),
        after: AFTER,
        issued: 0,
    };
    let mut m = Machine::new(&SimConfig::baseline()).unwrap();
    let fail = m
        .run_batched_cancellable(&mut wl, 0, MEASURE, BATCH, &token)
        .expect_err("run must abort once the token is cancelled");
    let SimError::Cancelled { instructions } = fail.error else {
        panic!("expected cancellation, got: {}", fail.error);
    };
    assert!(
        (AFTER..AFTER + 2 * CANCEL_POLL_INSTRS).contains(&instructions),
        "cancel observed at {instructions}, expected within one poll stride of {AFTER}"
    );
    assert!(instructions < MEASURE, "run must not complete");
    let partial = fail.partial.expect("cancellation salvages partial stats");
    assert_eq!(partial.core.instructions, instructions);
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

/// `run_multicore_lanes` runs one `Machine` per lane on its own thread;
/// every lane's `CoreStats` must equal a standalone scalar-oracle run of
/// that lane's workload, at every worker count.
#[test]
fn lanes_match_the_scalar_oracle_under_random_configs() {
    let mut rng = SimRng::seed_from_u64(0x3e77_0b1a);
    for trial in 0..5u64 {
        let cfg = random_multi_config(&mut rng);
        let lanes = 2 + rng.next_below(2) as usize;
        let mix = random_mix(&mut rng, lanes);
        let oracle: Vec<String> = mix
            .iter()
            .map(|(b, s)| {
                let mut wl = b.build(Scale::Test, *s);
                let mut m = Machine::new(&cfg).expect("valid config");
                let stats = m.run_scalar(wl.as_mut(), 1_000, 4_000).expect("oracle run");
                format!("{:?}", stats.core)
            })
            .collect();
        for jobs in [1usize, 2, 5] {
            let got = run_multicore_lanes(&cfg, &mut build_mix(&mix), 1_000, 4_000, jobs)
                .expect("lane run");
            let got: Vec<String> = got.iter().map(|c| format!("{c:?}")).collect();
            assert_eq!(
                got, oracle,
                "trial {trial} (mix {mix:?}, jobs {jobs}): lane stats diverge from the \
                 scalar oracle\ncfg: {cfg:?}"
            );
        }
    }
}

fn shared_multicore(cfg: &SimConfig, mix: &[(BenchmarkId, u64)]) -> String {
    let stats = run_multicore(cfg, &mut build_mix(mix), 1_000, 4_000).expect("shared run");
    format!("{stats:?}")
}

fn smt(cfg: &SimConfig, mix: &[(BenchmarkId, u64)]) -> String {
    let mut wls = build_mix(mix);
    let (a, b) = wls.split_at_mut(1);
    let stats = run_smt(cfg, a[0].as_mut(), b[0].as_mut(), 1_000, 4_000).expect("smt run");
    format!("{stats:?}")
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
        let stats = run_smt(cfg, a[0].as_mut(), b[0].as_mut(), 2_000, 20_000).expect("smt run");
        stats.threads.iter().map(|t| t.cycles).sum::<u64>()
    };
    let (with, without) = (smt_cycles(&deps), smt_cycles(&nodeps));
    assert!(
        without < with,
        "SMT: ignore_deps {without} !< {with} cycles"
    );

    let multicore_cycles = |cfg: &SimConfig| {
        run_multicore(cfg, &mut build_mix(&mix), 2_000, 20_000)
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
