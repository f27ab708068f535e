//! Event spans and their recorder.
//!
//! A [`SpanTracer`] receives *completed* spans: a [`WalkSpan`] when a
//! page walk finishes (one [`WalkHop`] per PTE read, recording which
//! level of the hierarchy answered it), and a [`ReplaySpan`] when a
//! replay load's lifetime resolves (reused, dead, or still open at
//! snapshot time). It is a bounded ring buffer per span kind that
//! overwrites the oldest span once full and counts what it dropped. The
//! sampling decision (1-in-N) is the *producer's* job — the tracer
//! stores whatever it is given.

use atc_types::{MemLevel, PtLevel};

/// One PTE read within a page walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkHop {
    /// Page-table level read (L5 … L1; L1 is the leaf).
    pub level: PtLevel,
    /// Hierarchy level that answered the read.
    pub served: MemLevel,
    /// Cycles this read took.
    pub latency: u64,
}

impl WalkHop {
    /// Filler value for the unused tail of a fixed hop array; never
    /// exposed through [`WalkSpan::hops`].
    pub const PAD: WalkHop = WalkHop {
        level: PtLevel::L1,
        served: MemLevel::L1d,
        latency: 0,
    };
}

/// Maximum hops in a walk: one per page-table level.
pub const MAX_WALK_HOPS: usize = 5;

/// A completed page walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkSpan {
    /// Cycle the first PTE read issued.
    pub start: u64,
    /// Cycle the leaf PTE read completed.
    pub end: u64,
    /// Per-level reads, `hops[..hop_count]` valid.
    pub hops: [WalkHop; MAX_WALK_HOPS],
    /// Number of valid hops (1..=5; fewer when a PSC hit skipped levels).
    pub hop_count: u8,
}

impl WalkSpan {
    /// The walk's valid hops, in walk order (root-most first).
    pub fn hops(&self) -> &[WalkHop] {
        &self.hops[..self.hop_count as usize]
    }

    /// Total walk latency in cycles.
    pub fn latency(&self) -> u64 {
        self.end - self.start
    }
}

/// How a traced replay load's lifetime ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// The block was demand-accessed again while resident.
    Reused,
    /// The block was evicted (or refetched from DRAM) before any reuse.
    Dead,
    /// The run ended while the block was still resident and unreused.
    Open,
}

impl ReplayOutcome {
    /// Lowercase label used in JSON export.
    pub fn label(self) -> &'static str {
        match self {
            ReplayOutcome::Reused => "reused",
            ReplayOutcome::Dead => "dead",
            ReplayOutcome::Open => "open",
        }
    }
}

/// The lifetime of one sampled replay load: walk completion → replay
/// fill → first reuse or dead eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplaySpan {
    /// Physical line address of the replayed block.
    pub line: u64,
    /// Cycle the triggering walk completed.
    pub walk_done: u64,
    /// Cycle the replay data arrived.
    pub fill_done: u64,
    /// Hierarchy level that served the replay.
    pub served: MemLevel,
    /// How the block's lifetime ended.
    pub outcome: ReplayOutcome,
    /// Cycle the outcome was decided (reuse cycle, eviction-detection
    /// cycle, or snapshot cycle for `Open`).
    pub outcome_cycle: u64,
}

/// Bounded ring-buffer span recorder: keeps the most recent `capacity`
/// spans of each kind, counting overwrites. Buffers are preallocated at
/// construction; recording never allocates.
#[derive(Debug, Clone)]
pub struct SpanTracer {
    capacity: usize,
    walk: Vec<WalkSpan>,
    walk_next: usize,
    replay: Vec<ReplaySpan>,
    replay_next: usize,
    dropped: u64,
}

impl SpanTracer {
    /// A tracer holding up to `capacity` spans of each kind (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpanTracer {
            capacity,
            walk: Vec::with_capacity(capacity),
            walk_next: 0,
            replay: Vec::with_capacity(capacity),
            replay_next: 0,
            dropped: 0,
        }
    }

    /// Recorded walk spans, oldest-first.
    pub fn walk_spans(&self) -> Vec<WalkSpan> {
        let mut out = Vec::with_capacity(self.walk.len());
        out.extend_from_slice(&self.walk[self.walk_next..]);
        out.extend_from_slice(&self.walk[..self.walk_next]);
        out
    }

    /// Recorded replay spans, oldest-first.
    pub fn replay_spans(&self) -> Vec<ReplaySpan> {
        let mut out = Vec::with_capacity(self.replay.len());
        out.extend_from_slice(&self.replay[self.replay_next..]);
        out.extend_from_slice(&self.replay[..self.replay_next]);
        out
    }

    /// Spans overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Discard all recorded spans (keeps the allocation).
    pub fn clear(&mut self) {
        self.walk.clear();
        self.walk_next = 0;
        self.replay.clear();
        self.replay_next = 0;
        self.dropped = 0;
    }

    /// Record a completed page walk.
    pub fn walk_span(&mut self, span: &WalkSpan) {
        if self.walk.len() < self.capacity {
            self.walk.push(*span);
        } else {
            self.walk[self.walk_next] = *span;
            self.walk_next = (self.walk_next + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Record a replay load whose lifetime resolved.
    pub fn replay_span(&mut self, span: &ReplaySpan) {
        if self.replay.len() < self.capacity {
            self.replay.push(*span);
        } else {
            self.replay[self.replay_next] = *span;
            self.replay_next = (self.replay_next + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk(start: u64) -> WalkSpan {
        let mut hops = [WalkHop::PAD; MAX_WALK_HOPS];
        hops[0] = WalkHop {
            level: PtLevel::L1,
            served: MemLevel::L2c,
            latency: 14,
        };
        WalkSpan {
            start,
            end: start + 14,
            hops,
            hop_count: 1,
        }
    }

    fn replay(line: u64) -> ReplaySpan {
        ReplaySpan {
            line,
            walk_done: 100,
            fill_done: 150,
            served: MemLevel::Dram,
            outcome: ReplayOutcome::Reused,
            outcome_cycle: 400,
        }
    }

    #[test]
    fn hops_accessor_hides_padding() {
        let w = walk(7);
        assert_eq!(w.hops().len(), 1);
        assert_eq!(w.hops()[0].served, MemLevel::L2c);
        assert_eq!(w.latency(), 14);
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut t = SpanTracer::new(3);
        for i in 0..5u64 {
            t.walk_span(&walk(i));
        }
        assert_eq!(t.dropped(), 2);
        let starts: Vec<u64> = t.walk_spans().iter().map(|s| s.start).collect();
        assert_eq!(starts, vec![2, 3, 4], "oldest-first, newest retained");
    }

    #[test]
    fn replay_ring_is_independent_of_walk_ring() {
        let mut t = SpanTracer::new(2);
        t.walk_span(&walk(0));
        t.replay_span(&replay(1));
        t.replay_span(&replay(2));
        t.replay_span(&replay(3));
        assert_eq!(t.walk_spans().len(), 1);
        let lines: Vec<u64> = t.replay_spans().iter().map(|s| s.line).collect();
        assert_eq!(lines, vec![2, 3]);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn clear_empties_without_losing_capacity() {
        let mut t = SpanTracer::new(2);
        t.walk_span(&walk(0));
        t.walk_span(&walk(1));
        t.walk_span(&walk(2));
        t.clear();
        assert_eq!(t.walk_spans().len(), 0);
        assert_eq!(t.dropped(), 0);
        t.walk_span(&walk(9));
        assert_eq!(t.walk_spans()[0].start, 9);
    }

    #[test]
    fn outcome_labels() {
        assert_eq!(ReplayOutcome::Reused.label(), "reused");
        assert_eq!(ReplayOutcome::Dead.label(), "dead");
        assert_eq!(ReplayOutcome::Open.label(), "open");
    }
}
