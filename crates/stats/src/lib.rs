#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Statistics and measurement infrastructure for the ATC simulator.
//!
//! * [`ClassCounters`] — per-[`AccessClass`]
//!   access/hit/miss counters with MPKI helpers, attached to every cache
//!   and TLB.
//! * [`Histogram`] — fixed-bucket histogram used for stall-cycle and
//!   recall-distance distributions.
//! * [`recall::RecallProbe`] — measures the paper's *recall distance*
//!   (unique accesses to a set between a block's eviction and its next
//!   request; Figs 5, 7, 18).
//! * [`StallBreakdown`] — head-of-ROB stall cycles attributed to STLB
//!   walks, replay data and non-replay data (Figs 1, 16).
//! * [`table`] — plain-text / CSV table rendering for experiment
//!   binaries.

pub mod recall;
pub mod table;

use atc_types::AccessClass;

/// Per-class access/hit/miss counters.
///
/// # Example
///
/// ```
/// use atc_stats::ClassCounters;
/// use atc_types::AccessClass;
///
/// let mut c = ClassCounters::default();
/// c.record(AccessClass::ReplayData, false);
/// c.record(AccessClass::ReplayData, true);
/// assert_eq!(c.misses(AccessClass::ReplayData), 1);
/// assert_eq!(c.hits(AccessClass::ReplayData), 1);
/// assert!((c.mpki(AccessClass::ReplayData, 1000) - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ClassCounters {
    accesses: [u64; AccessClass::STAT_CLASSES],
    hits: [u64; AccessClass::STAT_CLASSES],
}

impl ClassCounters {
    /// Record one access of `class`; `hit` says whether it hit.
    #[inline]
    pub fn record(&mut self, class: AccessClass, hit: bool) {
        let i = class.stat_index();
        self.accesses[i] += 1;
        if hit {
            self.hits[i] += 1;
        }
    }

    /// Total accesses of `class`.
    #[inline]
    pub fn accesses(&self, class: AccessClass) -> u64 {
        self.accesses[class.stat_index()]
    }

    /// Hits of `class`.
    #[inline]
    pub fn hits(&self, class: AccessClass) -> u64 {
        self.hits[class.stat_index()]
    }

    /// Misses of `class`.
    #[inline]
    pub fn misses(&self, class: AccessClass) -> u64 {
        let i = class.stat_index();
        self.accesses[i] - self.hits[i]
    }

    /// Misses summed over every class.
    pub fn total_misses(&self) -> u64 {
        (0..AccessClass::STAT_CLASSES)
            .map(|i| self.accesses[i] - self.hits[i])
            .sum()
    }

    /// Accesses summed over every class.
    pub fn total_accesses(&self) -> u64 {
        self.accesses.iter().sum()
    }

    /// Misses per kilo-instruction for `class`, given the retired
    /// instruction count.
    pub fn mpki(&self, class: AccessClass, instructions: u64) -> f64 {
        if instructions == 0 {
            return 0.0;
        }
        self.misses(class) as f64 * 1000.0 / instructions as f64
    }

    /// Hit rate (0..=1) for `class`; 1.0 when the class saw no accesses.
    pub fn hit_rate(&self, class: AccessClass) -> f64 {
        let a = self.accesses(class);
        if a == 0 {
            return 1.0;
        }
        self.hits(class) as f64 / a as f64
    }

    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &ClassCounters) {
        for i in 0..AccessClass::STAT_CLASSES {
            self.accesses[i] += other.accesses[i];
            self.hits[i] += other.hits[i];
        }
    }
}

/// A histogram over `u64` samples with uniform buckets plus an overflow
/// bucket, tracking count, sum, and max.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Histogram {
    bucket_width: u64,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Create a histogram with `buckets` buckets of `bucket_width` each;
    /// samples at or above `buckets * bucket_width` land in the overflow
    /// bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width == 0` or `buckets == 0`.
    pub fn new(bucket_width: u64, buckets: usize) -> Self {
        assert!(bucket_width > 0 && buckets > 0);
        Histogram {
            bucket_width,
            buckets: vec![0; buckets],
            overflow: 0,
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record a sample.
    #[inline]
    pub fn record(&mut self, sample: u64) {
        // `idx < len` ⟺ `sample < width × len`, so overflow samples skip
        // the division entirely, and in-range samples of a small-limit
        // histogram (the common stall/recall geometries) divide in 32
        // bits — the divider is a runtime field, so the compiler cannot
        // strength-reduce it for us.
        let width = self.bucket_width;
        let limit = width.saturating_mul(self.buckets.len() as u64);
        if sample >= limit {
            self.overflow += 1;
        } else if limit <= u32::MAX as u64 {
            self.buckets[(sample as u32 / width as u32) as usize] += 1;
        } else {
            self.buckets[(sample / width) as usize] += 1;
        }
        self.count += 1;
        self.sum += sample;
        self.max = self.max.max(sample);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Fraction (0..=1) of samples strictly below `threshold`.
    /// `threshold` should be a multiple of the bucket width for an exact
    /// answer; otherwise the containing bucket is excluded.
    pub fn fraction_below(&self, threshold: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let full = (threshold / self.bucket_width) as usize;
        let below: u64 = self.buckets.iter().take(full).sum();
        below as f64 / self.count as f64
    }

    /// Iterate `(bucket_low_edge, count)` pairs, the overflow bucket last
    /// with its low edge at `buckets * width`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let w = self.bucket_width;
        let n = self.buckets.len() as u64;
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, &c)| (i as u64 * w, c))
            .chain(std::iter::once((n * w, self.overflow)))
    }

    /// Merge another histogram with identical geometry.
    ///
    /// # Panics
    ///
    /// Panics if widths or bucket counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bucket_width, other.bucket_width);
        assert_eq!(self.buckets.len(), other.buckets.len());
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Head-of-ROB stall cycles attributed by cause — the paper's Fig 1 / 16
/// taxonomy. A demand load that missed the STLB contributes its walk wait
/// to `stlb_walk` and its subsequent data wait to `replay_data`.
#[derive(Debug, Clone, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StallBreakdown {
    /// Cycles the ROB head waited on an outstanding page walk.
    pub stlb_walk: u64,
    /// Cycles the ROB head waited on replay-load data.
    pub replay_data: u64,
    /// Cycles the ROB head waited on non-replay-load data.
    pub non_replay_data: u64,
    /// Any other head stall (stores, structural).
    pub other: u64,
}

impl StallBreakdown {
    /// Total attributed head-of-ROB stall cycles.
    pub fn total(&self) -> u64 {
        self.stlb_walk + self.replay_data + self.non_replay_data + self.other
    }

    /// Stall cycles caused by STLB misses and their replays (the cycles
    /// the paper's mechanisms target).
    pub fn translation_related(&self) -> u64 {
        self.stlb_walk + self.replay_data
    }

    /// Merge another breakdown into this one.
    pub fn merge(&mut self, other: &StallBreakdown) {
        self.stlb_walk += other.stlb_walk;
        self.replay_data += other.replay_data;
        self.non_replay_data += other.non_replay_data;
        self.other += other.other;
    }
}

/// Relative performance of a variant vs. a baseline, in the paper's
/// "reduction in execution time" sense: `speedup = base_cycles /
/// variant_cycles`.
///
/// # Panics
///
/// Panics if `variant_cycles` is zero.
pub fn speedup(base_cycles: u64, variant_cycles: u64) -> f64 {
    assert!(variant_cycles > 0, "variant ran for zero cycles");
    base_cycles as f64 / variant_cycles as f64
}

/// Percentage improvement corresponding to [`speedup`].
pub fn improvement_pct(base_cycles: u64, variant_cycles: u64) -> f64 {
    (speedup(base_cycles, variant_cycles) - 1.0) * 100.0
}

/// Harmonic mean of per-thread speedups, the paper's SMT/multi-core
/// metric.
///
/// # Panics
///
/// Panics if `speedups` is empty or contains a non-positive value.
pub fn harmonic_speedup(speedups: &[f64]) -> f64 {
    assert!(!speedups.is_empty());
    let inv_sum: f64 = speedups
        .iter()
        .map(|&s| {
            assert!(s > 0.0, "speedup must be positive");
            1.0 / s
        })
        .sum();
    speedups.len() as f64 / inv_sum
}

/// Geometric mean of a slice of positive values (used to average
/// normalized performance across benchmarks).
///
/// # Panics
///
/// Panics if `values` is empty or contains a non-positive value.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atc_types::addr::PtLevel;

    #[test]
    fn counters_track_by_class() {
        let mut c = ClassCounters::default();
        c.record(AccessClass::NonReplayData, true);
        c.record(AccessClass::NonReplayData, false);
        c.record(AccessClass::Translation(PtLevel::L1), false);
        assert_eq!(c.accesses(AccessClass::NonReplayData), 2);
        assert_eq!(c.misses(AccessClass::NonReplayData), 1);
        assert_eq!(c.misses(AccessClass::Translation(PtLevel::L1)), 1);
        assert_eq!(c.hits(AccessClass::Translation(PtLevel::L1)), 0);
        assert_eq!(c.total_misses(), 2);
        assert_eq!(c.total_accesses(), 3);
    }

    #[test]
    fn mpki_math() {
        let mut c = ClassCounters::default();
        for _ in 0..30 {
            c.record(AccessClass::ReplayData, false);
        }
        assert!((c.mpki(AccessClass::ReplayData, 2000) - 15.0).abs() < 1e-12);
        assert_eq!(c.mpki(AccessClass::ReplayData, 0), 0.0);
    }

    #[test]
    fn hit_rate_defaults_to_one_when_untouched() {
        let c = ClassCounters::default();
        assert_eq!(c.hit_rate(AccessClass::Store), 1.0);
    }

    #[test]
    fn counters_merge() {
        let mut a = ClassCounters::default();
        let mut b = ClassCounters::default();
        a.record(AccessClass::ReplayData, true);
        b.record(AccessClass::ReplayData, false);
        a.merge(&b);
        assert_eq!(a.accesses(AccessClass::ReplayData), 2);
        assert_eq!(a.misses(AccessClass::ReplayData), 1);
    }

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new(10, 5);
        for s in [0, 9, 10, 49, 50, 1000] {
            h.record(s);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1000);
        // 0,9 in bucket 0; 10 in bucket 1; 49 in bucket 4; 50 & 1000 overflow.
        let buckets: Vec<_> = h.iter().collect();
        assert_eq!(buckets[0], (0, 2));
        assert_eq!(buckets[1], (10, 1));
        assert_eq!(buckets[4], (40, 1));
        assert_eq!(buckets[5], (50, 2));
        assert!((h.fraction_below(50) - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(10, 3);
        let mut b = Histogram::new(10, 3);
        a.record(5);
        b.record(25);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 500);
    }

    #[test]
    #[should_panic]
    fn histogram_merge_rejects_mismatched_geometry() {
        let mut a = Histogram::new(10, 3);
        let b = Histogram::new(5, 3);
        a.merge(&b);
    }

    #[test]
    fn stall_breakdown_totals() {
        let s = StallBreakdown {
            stlb_walk: 10,
            replay_data: 20,
            non_replay_data: 5,
            other: 1,
        };
        assert_eq!(s.total(), 36);
        assert_eq!(s.translation_related(), 30);
    }

    #[test]
    fn speedup_and_improvement() {
        assert!((speedup(200, 100) - 2.0).abs() < 1e-12);
        assert!((improvement_pct(105, 100) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_of_equal_speedups_is_identity() {
        assert!((harmonic_speedup(&[1.5, 1.5]) - 1.5).abs() < 1e-12);
        let h = harmonic_speedup(&[1.0, 2.0]);
        assert!((h - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn geomean_rejects_nonpositive() {
        geomean(&[1.0, 0.0]);
    }
}
