//! Deterministic fault injection for exercising the harness's failure
//! paths.
//!
//! A [`FaultPlan`] is parsed from a compact spec string —
//! `<seed>:<fault>[,<fault>...]` — and threaded into the scheduler and
//! manifest. Each fault names a *kind* and a *trigger*:
//!
//! | spec              | effect                                            |
//! |-------------------|---------------------------------------------------|
//! | `panic@0.25`      | ~25 % of attempts panic inside the runner         |
//! | `transient@0.5`   | ~50 % of attempts fail with a transient error     |
//! | `stall250@0.1`    | ~10 % of attempts sleep 250 ms before running     |
//! | `torn@0.5`        | ~50 % of manifest flushes tear their last record  |
//! | `panic@key=mcf`   | every attempt whose job key contains `mcf` panics |
//!
//! Triggers are either a rate in `[0, 1]` rolled deterministically per
//! `(seed, kind, key, attempt)`, or `key=<substr>` which fires on every
//! matching attempt. Torn-write rolls key on the manifest's *flush
//! index* (`flush<N>` plays the role of the job key), so injection is
//! independent of worker scheduling and a faulted run is reproducible
//! bit-for-bit from its seed.
//!
//! The plan is held behind an `Option` everywhere it is consulted; the
//! default (`None`) adds one branch per job attempt and per flush —
//! nothing on the simulator's per-access path.

use std::time::Duration;

use atc_bench::fnv1a;

use crate::events::{EventLog, JobEventKind};
use crate::scheduler::JobError;

/// What a fault does when its trigger fires.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FaultKind {
    /// Panic inside the runner (exercises `catch_unwind` containment).
    Panic,
    /// Fail the attempt with a transient [`JobError`] (exercises retry
    /// and backoff).
    Transient,
    /// Sleep this long before running the attempt (exercises the
    /// deadline watchdog).
    Stall(Duration),
    /// Tear a manifest flush mid-record (exercises torn-tail recovery).
    Torn,
}

impl FaultKind {
    /// Stable domain tag mixed into the per-decision hash so distinct
    /// fault kinds roll independent dice for the same key.
    fn domain(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Transient => "transient",
            FaultKind::Stall(_) => "stall",
            FaultKind::Torn => "torn",
        }
    }
}

/// When a fault fires.
#[derive(Debug, Clone, PartialEq)]
enum Trigger {
    /// Fire on this fraction of rolls, chosen by a seeded hash of
    /// `(seed, kind, key, attempt)`.
    Rate(f64),
    /// Fire on every attempt whose key contains this substring.
    KeySubstr(String),
}

/// One injected fault: a kind plus its trigger.
#[derive(Debug, Clone, PartialEq)]
struct Fault {
    kind: FaultKind,
    trigger: Trigger,
}

/// A seeded, deterministic set of injected faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Parse `<seed>:<fault>[,<fault>...]` (see the module docs for the
    /// fault grammar).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed component.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let (seed, rest) = spec
            .split_once(':')
            .ok_or("fault plan must be <seed>:<fault>[,<fault>...]")?;
        let seed: u64 = seed
            .trim()
            .parse()
            .map_err(|_| format!("fault-plan seed {seed:?} is not a u64"))?;
        let mut faults = Vec::new();
        for part in rest.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            faults.push(parse_fault(part)?);
        }
        if faults.is_empty() {
            return Err("fault plan lists no faults".into());
        }
        Ok(FaultPlan { seed, faults })
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Deterministic roll for `(kind, key, attempt)`: does this fault
    /// fire?
    fn fires(&self, fault: &Fault, key: &str, attempt: u32) -> bool {
        match &fault.trigger {
            Trigger::KeySubstr(sub) => key.contains(sub.as_str()),
            Trigger::Rate(rate) => {
                let h = decision_hash(self.seed, fault.kind.domain(), key, attempt);
                // Map the top 53 bits onto [0, 1).
                let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
                unit < *rate
            }
        }
    }

    /// Consult the plan before running attempt `attempt` of job `key`.
    ///
    /// May sleep (an injected stall), panic (an injected panic — caught
    /// by the scheduler like any runner panic), or return a transient
    /// [`JobError`] the caller must report instead of running the job.
    /// Returns `Ok(())` when no fault fires.
    ///
    /// # Errors
    ///
    /// An injected transient failure, tagged `fault-injected` so logs
    /// distinguish it from organic errors.
    ///
    /// # Panics
    ///
    /// An injected panic — deliberately, to exercise panic containment.
    pub fn before_attempt(&self, key: &str, attempt: u32) -> Result<(), JobError> {
        self.before_attempt_traced(key, attempt, None, 0)
    }

    /// [`before_attempt`](Self::before_attempt), additionally recording
    /// every fired fault into `events` (when attached) on worker `wid`'s
    /// track — including the panic, recorded *before* unwinding so the
    /// timeline shows the injection, not just the resulting panic.
    ///
    /// # Errors / Panics
    ///
    /// As [`before_attempt`](Self::before_attempt).
    pub fn before_attempt_traced(
        &self,
        key: &str,
        attempt: u32,
        events: Option<&EventLog>,
        wid: u32,
    ) -> Result<(), JobError> {
        let emit = |detail: &str| {
            if let Some(log) = events {
                log.record(wid, JobEventKind::Fault, key, attempt, detail);
            }
        };
        for fault in &self.faults {
            match fault.kind {
                FaultKind::Stall(dur) => {
                    if self.fires(fault, key, attempt) {
                        emit(&format!("stall {}ms", dur.as_millis()));
                        std::thread::sleep(dur);
                    }
                }
                FaultKind::Panic => {
                    if self.fires(fault, key, attempt) {
                        emit("panic");
                        panic!("fault-injected panic (key {key}, attempt {attempt})");
                    }
                }
                FaultKind::Transient => {
                    if self.fires(fault, key, attempt) {
                        emit("transient");
                        return Err(JobError::transient(format!(
                            "fault-injected transient error (key {key}, attempt {attempt})"
                        )));
                    }
                }
                FaultKind::Torn => {}
            }
        }
        Ok(())
    }

    /// Whether the `flush_index`-th manifest flush should tear. The roll
    /// keys on `flush<N>` instead of a job key, so torn writes land at
    /// the same flushes regardless of worker timing.
    pub fn torn_flush(&self, flush_index: u64) -> bool {
        let key = format!("flush{flush_index}");
        self.faults
            .iter()
            .filter(|f| f.kind == FaultKind::Torn)
            .any(|f| self.fires(f, &key, 0))
    }

    /// Whether the plan injects any stall faults (used by schedulers to
    /// size watchdog expectations in smokes).
    pub fn has_stalls(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::Stall(_)))
    }
}

/// Parse one `<kind>@<trigger>` component.
fn parse_fault(part: &str) -> Result<Fault, String> {
    let (kind, trigger) = part
        .split_once('@')
        .ok_or_else(|| format!("fault {part:?} must be <kind>@<rate|key=substr>"))?;
    let kind = if kind == "panic" {
        FaultKind::Panic
    } else if kind == "transient" {
        FaultKind::Transient
    } else if kind == "torn" {
        FaultKind::Torn
    } else if let Some(ms) = kind.strip_prefix("stall") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("stall duration {ms:?} is not a millisecond count"))?;
        FaultKind::Stall(Duration::from_millis(ms))
    } else {
        return Err(format!(
            "unknown fault kind {kind:?} (expected panic, transient, stall<MS>, or torn)"
        ));
    };
    let trigger = if let Some(sub) = trigger.strip_prefix("key=") {
        if sub.is_empty() {
            return Err("key= trigger needs a non-empty substring".into());
        }
        Trigger::KeySubstr(sub.to_string())
    } else {
        let rate: f64 = trigger
            .parse()
            .map_err(|_| format!("trigger {trigger:?} is neither a rate nor key=<substr>"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("rate {rate} is outside [0, 1]"));
        }
        Trigger::Rate(rate)
    };
    Ok(Fault { kind, trigger })
}

/// FNV-1a mix of `(seed, domain, key, attempt)` — one independent,
/// reproducible die per decision.
fn decision_hash(seed: u64, domain: &str, key: &str, attempt: u32) -> u64 {
    let bytes = [
        &seed.to_le_bytes()[..],
        domain.as_bytes(),
        key.as_bytes(),
        &attempt.to_le_bytes(),
    ]
    .concat();
    fnv1a(&bytes)
}

/// Seeded exponential backoff before retry `attempt` (2, 3, …) of job
/// `key`: `base * 2^(attempt-2)` plus up to one `base` of deterministic
/// jitter hashed from `(seed, key, attempt)`. A zero base disables
/// backoff entirely (the default).
pub fn backoff_delay(base: Duration, seed: u64, key: &str, attempt: u32) -> Duration {
    if base.is_zero() || attempt < 2 {
        return Duration::ZERO;
    }
    let exp = (attempt - 2).min(16);
    let step = base.saturating_mul(1u32 << exp);
    let jitter_unit =
        (decision_hash(seed, "backoff", key, attempt) >> 11) as f64 / (1u64 << 53) as f64;
    step + Duration::from_secs_f64(base.as_secs_f64() * jitter_unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::key_hash;

    #[test]
    fn parses_every_kind_and_trigger() {
        let p = FaultPlan::parse("42:panic@0.25,transient@key=mcf,stall250@0.1,torn@1").unwrap();
        assert_eq!(p.seed(), 42);
        assert_eq!(p.faults.len(), 4);
        assert_eq!(p.faults[0].kind, FaultKind::Panic);
        assert_eq!(p.faults[0].trigger, Trigger::Rate(0.25));
        assert_eq!(p.faults[1].trigger, Trigger::KeySubstr("mcf".to_string()));
        assert_eq!(
            p.faults[2].kind,
            FaultKind::Stall(Duration::from_millis(250))
        );
        assert!(p.has_stalls());
        assert_eq!(p.faults[3].kind, FaultKind::Torn);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "no-colon",
            "x:panic@0.5",
            "1:",
            "1:panic",
            "1:explode@0.5",
            "1:panic@1.5",
            "1:panic@key=",
            "1:stallfast@0.5",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn rolls_are_deterministic_and_rate_shaped() {
        let p = FaultPlan::parse("7:transient@0.5").unwrap();
        let q = FaultPlan::parse("7:transient@0.5").unwrap();
        let mut fired = 0;
        for i in 0..400 {
            let key = format!("job{i}");
            let a = p.fires(&p.faults[0], &key, 1);
            assert_eq!(a, q.fires(&q.faults[0], &key, 1), "same seed, same rolls");
            fired += u32::from(a);
        }
        // A 50 % rate over 400 independent rolls lands well inside
        // [120, 280] unless the hash is badly biased.
        assert!((120..=280).contains(&fired), "fired {fired}/400");
        // A different seed reshuffles the decisions.
        let r = FaultPlan::parse("8:transient@0.5").unwrap();
        let differs = (0..400).any(|i| {
            let key = format!("job{i}");
            p.fires(&p.faults[0], &key, 1) != r.fires(&r.faults[0], &key, 1)
        });
        assert!(differs, "seed must matter");
    }

    #[test]
    fn rate_extremes_never_and_always_fire() {
        let never = FaultPlan::parse("1:panic@0").unwrap();
        let always = FaultPlan::parse("1:panic@1").unwrap();
        for i in 0..64 {
            let key = format!("k{i}");
            assert!(!never.fires(&never.faults[0], &key, 1));
            assert!(always.fires(&always.faults[0], &key, 1));
        }
    }

    #[test]
    fn key_trigger_matches_substring() {
        let p = FaultPlan::parse("1:transient@key=mcf").unwrap();
        assert!(p.before_attempt("tempo/mcf/s42", 1).is_err());
        assert!(p.before_attempt("tempo/pr/s42", 1).is_ok());
        // key= fires on every attempt: retries keep failing.
        assert!(p.before_attempt("tempo/mcf/s42", 3).is_err());
    }

    #[test]
    fn torn_rolls_key_on_flush_index() {
        let p = FaultPlan::parse("3:torn@0.5").unwrap();
        let pattern: Vec<bool> = (0..32).map(|i| p.torn_flush(i)).collect();
        let again: Vec<bool> = (0..32).map(|i| p.torn_flush(i)).collect();
        assert_eq!(pattern, again);
        assert!(pattern.iter().any(|&b| b), "some flush tears at rate 0.5");
        assert!(!pattern.iter().all(|&b| b), "not every flush tears");
        // A torn-only plan injects nothing into job attempts.
        assert!(p.before_attempt("tempo/mcf/s42", 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "fault-injected panic")]
    fn injected_panic_panics() {
        let p = FaultPlan::parse("1:panic@key=boom").unwrap();
        let _ = p.before_attempt("job/boom/1", 1);
    }

    #[test]
    fn backoff_grows_exponentially_with_seeded_jitter() {
        let base = Duration::from_millis(10);
        assert_eq!(backoff_delay(Duration::ZERO, 1, "k", 5), Duration::ZERO);
        assert_eq!(backoff_delay(base, 1, "k", 1), Duration::ZERO, "first try");
        let d2 = backoff_delay(base, 1, "k", 2);
        let d3 = backoff_delay(base, 1, "k", 3);
        let d4 = backoff_delay(base, 1, "k", 4);
        assert!(d2 >= base && d2 < base * 2, "{d2:?}");
        assert!(d3 >= base * 2 && d3 < base * 3, "{d3:?}");
        assert!(d4 >= base * 4 && d4 < base * 5, "{d4:?}");
        assert_eq!(d3, backoff_delay(base, 1, "k", 3), "deterministic");
    }

    #[test]
    fn decision_hash_matches_key_hash_family() {
        // Both hash through atc_bench::fnv1a: stable values, and the
        // domain separates the dice of one (seed, key, attempt).
        assert_eq!(key_hash("x"), key_hash("x"));
        assert_eq!(
            decision_hash(1, "panic", "x", 1),
            decision_hash(1, "panic", "x", 1)
        );
        assert_ne!(
            decision_hash(1, "panic", "x", 1),
            decision_hash(1, "transient", "x", 1)
        );
    }

    #[test]
    fn decision_hash_outputs_are_pinned() {
        // Fault plans replay by seed, so every die must keep its value
        // across refactors of the hash.
        let key = "tempo/mcf/s42/test/w1000/m10000";
        assert_eq!(decision_hash(0, "", "", 0), 0x5467_b0da_1d10_6495);
        assert_eq!(decision_hash(1, "panic", "x", 1), 0x0dcf_1bc4_feff_7224);
        assert_eq!(
            decision_hash(42, "transient", key, 3),
            0x4198_3806_6963_424d
        );
        assert_eq!(
            decision_hash(u64::MAX, "torn", "flush", u32::MAX),
            0x1495_c565_c596_498e
        );
    }
}
