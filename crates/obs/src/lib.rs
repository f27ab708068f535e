#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Telemetry layer for the ATC simulator.
//!
//! * [`Registry`] — named [`Counter`](CounterId)s and log2-bucketed
//!   [`Log2Histogram`]s behind integer handles. Handles are resolved by
//!   name once at attach time; the hot path is a bounds-checked array
//!   increment with no allocation and no hashing.
//! * [`SpanTracer`] — event spans for page walks and replay loads,
//!   recorded into a bounded ring buffer (see [`span`]).
//! * [`TelemetrySnapshot`] — an owned end-of-run copy of everything,
//!   exported as the `atc-telemetry-v1` JSON document by `atc-bench`.
//!
//! The crate deliberately knows nothing about the simulator: the sim
//! crate decides what to count, when to sample, and when to snapshot.
//!
//! # Example
//!
//! ```
//! use atc_obs::Registry;
//!
//! let mut reg = Registry::new();
//! let walks = reg.counter("walk.count");
//! let lat = reg.histogram("walk.latency_cycles");
//! reg.inc(walks);
//! reg.observe(lat, 54);
//! assert_eq!(reg.counter_value("walk.count"), Some(1));
//! ```

pub mod hist;
pub mod span;

pub use hist::{Log2Histogram, LOG2_BUCKETS};
pub use span::{ReplayOutcome, ReplaySpan, SpanTracer, WalkHop, WalkSpan, MAX_WALK_HOPS};

/// Handle to a named counter in a [`Registry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle to a named histogram in a [`Registry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(u32);

/// A registry of named `u64` counters and [`Log2Histogram`]s.
///
/// Registration (`counter`/`histogram`) is a linear name scan and may
/// grow the backing vectors; updates through the returned handles are
/// plain indexed arithmetic. Register at attach time, update on the hot
/// path.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: Vec<(&'static str, u64)>,
    hists: Vec<(&'static str, Log2Histogram)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Handle for the counter `name`, registering it at zero if new.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| *n == name) {
            return CounterId(i as u32);
        }
        self.counters.push((name, 0));
        CounterId((self.counters.len() - 1) as u32)
    }

    /// Handle for the histogram `name`, registering it empty if new.
    pub fn histogram(&mut self, name: &'static str) -> HistId {
        if let Some(i) = self.hists.iter().position(|(n, _)| *n == name) {
            return HistId(i as u32);
        }
        self.hists.push((name, Log2Histogram::new()));
        HistId((self.hists.len() - 1) as u32)
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0 as usize].1 += 1;
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0 as usize].1 += n;
    }

    /// Overwrite a counter (snapshot-time ingestion of externally
    /// accumulated totals).
    #[inline]
    pub fn set(&mut self, id: CounterId, v: u64) {
        self.counters[id.0 as usize].1 = v;
    }

    /// Subtract `n` from a counter, saturating at zero. Counters used as
    /// gauges (e.g. jobs currently running) decrement through this.
    #[inline]
    pub fn sub(&mut self, id: CounterId, n: u64) {
        let v = &mut self.counters[id.0 as usize].1;
        *v = v.saturating_sub(n);
    }

    /// Record a histogram sample.
    #[inline]
    pub fn observe(&mut self, id: HistId, v: u64) {
        self.hists[id.0 as usize].1.record(v);
    }

    /// Current value of a counter handle.
    pub fn value(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize].1
    }

    /// Current value of the counter `name`, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The histogram `name`, if registered.
    pub fn histogram_by_name(&self, name: &str) -> Option<&Log2Histogram> {
        self.hists.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// All counters in registration order.
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// All histograms in registration order.
    pub fn histograms(&self) -> &[(&'static str, Log2Histogram)] {
        &self.hists
    }

    /// Merge another registry's values into this one by name,
    /// registering names this registry lacks.
    pub fn merge(&mut self, other: &Registry) {
        for &(name, v) in &other.counters {
            let id = self.counter(name);
            self.add(id, v);
        }
        for (name, h) in &other.hists {
            let id = self.histogram(name);
            self.hists[id.0 as usize].1.merge(h);
        }
    }

    /// Merge an externally accumulated histogram into the one behind
    /// `id` (snapshot-time ingestion, the histogram analogue of
    /// [`set`](Self::set)).
    pub fn merge_histogram(&mut self, id: HistId, h: &Log2Histogram) {
        self.hists[id.0 as usize].1.merge(h);
    }

    /// Per-counter change since `epoch`, an earlier snapshot of this
    /// registry (or an empty one). Returns sparse `(name, delta)` pairs
    /// — counters whose value did not move are omitted — in this
    /// registry's registration order, with counters new since `epoch`
    /// reported at their full value. Deltas are signed because gauges
    /// (e.g. jobs currently running) legitimately decrease.
    ///
    /// The deltas telescope: for any sequence of snapshots
    /// `e0, e1, .., en`, summing `e1.delta_since(&e0)` through
    /// `en.delta_since(&e_{n-1})` per counter reproduces `en` exactly.
    /// The telemetry stream (`atc_bench::stream`) writes one such delta
    /// per epoch line, and its checker gates on that invariant.
    pub fn delta_since(&self, epoch: &Registry) -> Vec<(&'static str, i64)> {
        let mut out = Vec::new();
        for &(name, now) in &self.counters {
            let base = epoch.counter_value(name).unwrap_or(0);
            let delta = now as i64 - base as i64;
            if delta != 0 {
                out.push((name, delta));
            }
        }
        // A counter can only vanish if the registry was rebuilt from
        // scratch between epochs; close it out so sums still telescope.
        for &(name, base) in &epoch.counters {
            if base != 0 && self.counter_value(name).is_none() {
                out.push((name, -(base as i64)));
            }
        }
        out
    }

    /// Zero every counter and histogram, keeping registrations (and
    /// therefore every outstanding handle) valid.
    pub fn reset(&mut self) {
        for (_, v) in &mut self.counters {
            *v = 0;
        }
        for (_, h) in &mut self.hists {
            h.reset();
        }
    }
}

/// An owned end-of-run copy of a registry plus the sampled spans — what
/// `RunStats` carries and what the `atc-telemetry-v1` JSON document
/// serializes.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Counter `(name, value)` pairs in registration order.
    pub counters: Vec<(&'static str, u64)>,
    /// Histogram `(name, histogram)` pairs in registration order.
    pub histograms: Vec<(&'static str, Log2Histogram)>,
    /// The producer's span sampling period (1-in-N).
    pub span_sample_every: u64,
    /// Sampled walk spans, oldest-first.
    pub walk_spans: Vec<WalkSpan>,
    /// Sampled replay spans, oldest-first.
    pub replay_spans: Vec<ReplaySpan>,
    /// Spans overwritten in the ring buffer.
    pub spans_dropped: u64,
}

impl TelemetrySnapshot {
    /// Value of the counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_once_and_accumulate() {
        let mut r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        assert_eq!(a, b, "same name yields the same handle");
        r.inc(a);
        r.add(b, 4);
        assert_eq!(r.counter_value("x"), Some(5));
        assert_eq!(r.value(a), 5);
        assert_eq!(r.counter_value("missing"), None);
        r.set(a, 2);
        assert_eq!(r.value(a), 2);
        r.sub(a, 1);
        assert_eq!(r.value(a), 1);
        r.sub(a, 10);
        assert_eq!(r.value(a), 0, "sub saturates at zero");
    }

    #[test]
    fn histograms_register_once_and_observe() {
        let mut r = Registry::new();
        let h = r.histogram("lat");
        assert_eq!(r.histogram("lat"), h);
        r.observe(h, 100);
        r.observe(h, 300);
        let hist = r.histogram_by_name("lat").unwrap();
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.sum(), 400);
    }

    #[test]
    fn merge_by_name_handles_disjoint_registries() {
        let mut a = Registry::new();
        let ca = a.counter("shared");
        a.add(ca, 10);
        let ha = a.histogram("h");
        a.observe(ha, 1);

        let mut b = Registry::new();
        let cb = b.counter("only_b");
        b.add(cb, 7);
        let cs = b.counter("shared");
        b.add(cs, 5);
        let hb = b.histogram("h");
        b.observe(hb, 9);

        a.merge(&b);
        assert_eq!(a.counter_value("shared"), Some(15));
        assert_eq!(a.counter_value("only_b"), Some(7));
        assert_eq!(a.histogram_by_name("h").unwrap().count(), 2);
    }

    #[test]
    fn reset_keeps_handles_valid() {
        let mut r = Registry::new();
        let c = r.counter("c");
        let h = r.histogram("h");
        r.inc(c);
        r.observe(h, 3);
        r.reset();
        assert_eq!(r.value(c), 0);
        assert_eq!(r.histogram_by_name("h").unwrap().count(), 0);
        // Handles still point at the same names.
        r.inc(c);
        assert_eq!(r.counter_value("c"), Some(1));
    }

    #[test]
    fn snapshot_lookup_helpers() {
        let mut r = Registry::new();
        let c = r.counter("c");
        r.add(c, 3);
        let h = r.histogram("h");
        r.observe(h, 8);
        let snap = TelemetrySnapshot {
            counters: r.counters().to_vec(),
            histograms: r.histograms().to_vec(),
            span_sample_every: 64,
            walk_spans: Vec::new(),
            replay_spans: Vec::new(),
            spans_dropped: 0,
        };
        assert_eq!(snap.counter("c"), Some(3));
        assert_eq!(snap.counter("zzz"), None);
        assert_eq!(snap.histogram("h").unwrap().max(), 8);
        assert!(snap.histogram("zzz").is_none());
    }
}
