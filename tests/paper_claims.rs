//! The paper's claims as data (`atc_experiments::claims`): every claim
//! resolves against the sweep catalog, and `evaluate` passes, fails and
//! leaves claims unevaluated the way `suite --check` relies on.

use std::collections::{HashMap, HashSet};

use atc_experiments::claims::{claims, evaluate, Claim, Class, Expect, Verdict};
use atc_experiments::sweeps::{build_jobs, catalog, metrics_of, sweeps, Budget, SweepDef};
use atc_harness::Metrics;
use atc_sim::run_one;
use atc_types::CancelToken;
use atc_workloads::trace::TraceCache;
use atc_workloads::{BenchmarkId, Scale};

fn budget(class: Class) -> Budget {
    let (scale, warmup, measure) = class.budget();
    Budget {
        scale,
        seed: 42,
        warmup,
        measure,
    }
}

fn claim(name: &str) -> Claim {
    claims()
        .into_iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("no claim {name}"))
}

fn sweep(name: &str) -> SweepDef {
    sweeps().into_iter().find(|d| d.name == name).unwrap()
}

/// An `ok` record for every job of `defs` on all nine benchmarks, its
/// metrics chosen by config label.
fn records(
    defs: &[SweepDef],
    b: Budget,
    metrics: impl Fn(&str) -> Vec<(&'static str, f64)>,
) -> HashMap<String, Metrics> {
    build_jobs(defs, &catalog(), &BenchmarkId::ALL, b)
        .unwrap()
        .into_iter()
        .map(|(key, _)| {
            let mut m = Metrics::new();
            for (name, v) in metrics(key.split('/').next().unwrap()) {
                m.push(name, v);
            }
            (key, m)
        })
        .collect()
}

fn verdict(c: &Claim, defs: &[SweepDef], b: Budget, recs: &HashMap<String, Metrics>) -> Verdict {
    let lookup = |key: &str| recs.get(key);
    evaluate(std::slice::from_ref(c), defs, &BenchmarkId::ALL, b, &lookup).remove(0)
}

#[test]
fn every_claim_resolves_against_the_catalog() {
    let defs = sweeps();
    let cat = catalog();
    let experiments = include_str!("../EXPERIMENTS.md");
    let all = claims();
    let names: HashSet<&str> = all.iter().map(|c| c.name).collect();
    assert_eq!(names.len(), all.len(), "claim names are unique");

    let mut reads: HashMap<&str, HashSet<&str>> = HashMap::new();
    for c in &all {
        let def = defs
            .iter()
            .find(|d| d.name == c.sweep)
            .unwrap_or_else(|| panic!("{}: no sweep {}", c.name, c.sweep));
        for (config, metric) in c.reads(def).unwrap_or_else(|e| panic!("{}: {e}", c.name)) {
            reads.entry(config).or_default().insert(metric);
        }
        if let Expect::Diverges(tag) = c.expect {
            assert!(
                experiments.contains(&format!("**{tag} —")),
                "{}: EXPERIMENTS.md does not describe {tag}",
                c.name
            );
        }
    }
    // At the golden budget mcf evicts from every probed structure, so
    // each metric a claim reads is one `metrics_of` records.
    for (config, metrics) in reads {
        let (_, cfg) = cat
            .iter()
            .find(|(l, _)| *l == config)
            .unwrap_or_else(|| panic!("no catalog config {config}"));
        let stats = run_one(cfg, BenchmarkId::Mcf, Scale::Small, 42, 10_000, 50_000).unwrap();
        let recorded = metrics_of(&stats);
        for m in metrics {
            assert!(recorded.get(m).is_some(), "{config} records no {m}");
        }
    }
}

#[test]
fn a_holding_claim_fails_when_an_operand_flips() {
    let defs = [sweep("fig14")];
    let c = claim("fig14/ladder-gains");
    let b = budget(c.class);
    let cycles = |tempo: f64| {
        move |label: &str| match label {
            "base" => vec![("cycles", 100.0)],
            "tempo" => vec![("cycles", tempo)],
            _ => vec![("cycles", 95.0)],
        }
    };
    let v = verdict(&c, &defs, b, &records(&defs, b, cycles(90.0)));
    assert!(matches!(v, Verdict::Passed(_)), "{v:?}");
    let v = verdict(&c, &defs, b, &records(&defs, b, cycles(110.0)));
    assert!(matches!(v, Verdict::Failed(_)), "{v:?}");
}

#[test]
fn a_divergence_fails_when_it_flips_to_the_papers_outcome() {
    let defs = [sweep("fig04")];
    let c = claim("fig04/hawkeye-above-lru");
    assert_eq!(c.expect, Expect::Diverges("D1"));
    let b = budget(c.class);
    let mpki = |hawkeye: f64| {
        move |label: &str| match label {
            "llc-hawkeye" => vec![("llc_mpki_ptl1", hawkeye)],
            "llc-lru" => vec![("llc_mpki_ptl1", 3.1)],
            _ => vec![("llc_mpki_ptl1", 3.0)],
        }
    };
    let v = verdict(&c, &defs, b, &records(&defs, b, mpki(2.7)));
    assert!(matches!(v, Verdict::Passed(_)), "{v:?}");
    match verdict(&c, &defs, b, &records(&defs, b, mpki(4.5))) {
        Verdict::Failed(why) => assert!(why.contains("D1 flipped"), "{why}"),
        v => panic!("expected a failure, got {v:?}"),
    }
}

#[test]
fn a_missing_record_fails_the_claim() {
    let defs = [sweep("fig14")];
    let c = claim("fig14/ladder-gains");
    let b = budget(c.class);
    let mut recs = records(&defs, b, |_| vec![("cycles", 100.0)]);
    let key = recs.keys().find(|k| k.starts_with("atp/")).unwrap().clone();
    recs.remove(&key);
    match verdict(&c, &defs, b, &recs) {
        Verdict::Failed(why) => assert!(why.contains(&key), "{why}"),
        v => panic!("expected a failure, got {v:?}"),
    }
}

fn not_evaluated(c: &Claim, defs: &[SweepDef], benches: &[BenchmarkId], b: Budget) -> &'static str {
    let none = |_: &str| -> Option<&Metrics> { None };
    match evaluate(std::slice::from_ref(c), defs, benches, b, &none).remove(0) {
        Verdict::NotEvaluated(why) => why,
        v => panic!("{}: expected not evaluated, got {v:?}", c.name),
    }
}

#[test]
fn subsets_and_small_budgets_leave_claims_unevaluated() {
    let all = sweeps();
    let tempo = claim("fig14/ladder-gains");
    let full = budget(Class::Full);
    assert_eq!(
        not_evaluated(&tempo, &all, &[BenchmarkId::Pr, BenchmarkId::Mcf], full),
        "benchmark subset"
    );
    assert_eq!(
        not_evaluated(&tempo, &[sweep("fig16")], &BenchmarkId::ALL, full),
        "sweep not selected"
    );
    // Fig 7's cross-class claim also reads Fig 5's translation probes.
    assert_eq!(
        not_evaluated(
            &claim("fig07/translations-recall-shorter"),
            &[sweep("fig07")],
            &BenchmarkId::ALL,
            full
        ),
        "reads a config outside the selected sweeps"
    );
    let d5 = claim("fig14/no-degrade-mcf");
    assert_eq!(d5.class, Class::Full);
    for small in [Class::Smoke, Class::Golden] {
        assert_eq!(
            not_evaluated(&d5, &all, &BenchmarkId::ALL, budget(small)),
            "budget below its class"
        );
    }
}

/// `suite --figures fig14 --check` at the smoke budget: the Fig 14
/// claims pass, and fail once `tempo`'s config is perturbed.
#[test]
fn perturbing_tempo_fails_the_fig14_claims() {
    let defs = [sweep("fig14")];
    let b = budget(Class::Smoke);
    let traces = TraceCache::new();
    let run = |cat: &[(&'static str, atc_sim::SimConfig)], only: &str| {
        build_jobs(&defs, cat, &BenchmarkId::ALL, b)
            .unwrap()
            .into_iter()
            .filter(|(key, _)| key.starts_with(only))
            .map(|(key, job)| (key, job.run(&traces, &CancelToken::new()).unwrap()))
            .collect::<HashMap<_, _>>()
    };
    let fig14: Vec<Claim> = claims()
        .into_iter()
        .filter(|c| c.sweep == "fig14")
        .collect();
    let failures = |recs: &HashMap<String, Metrics>| {
        let lookup = |key: &str| recs.get(key);
        evaluate(&fig14, &defs, &BenchmarkId::ALL, b, &lookup)
            .into_iter()
            .zip(&fig14)
            .filter(|(v, _)| matches!(v, Verdict::Failed(_)))
            .map(|(_, c)| c.name)
            .collect::<Vec<_>>()
    };

    let mut recs = run(&catalog(), "");
    assert_eq!(failures(&recs), Vec::<&str>::new());

    let mut cat = catalog();
    let tempo = cat.iter_mut().find(|(l, _)| *l == "tempo").unwrap();
    tempo.1.machine.l2c.latency *= 4;
    recs.extend(run(&cat, "tempo/"));
    let failed = failures(&recs);
    assert!(failed.contains(&"fig14/ladder-gains"), "{failed:?}");
}
