//! Spans the benchmark records around its calls into each crate.
//!
//! Spans are kept in memory while the traced run executes and written
//! once at exit as Chrome trace-event JSON (one track per worker), which
//! Perfetto and `chrome://tracing` load directly.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use atc_bench::json::Value;
use atc_bench::trace_event::TraceEvents;

/// One timed interval on a track.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id; children name it as their `parent`.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// What ran (a job key, a call batch, a set-up step).
    pub name: String,
    /// The crate the span times (`sim`, `harness`, `vm`, ...).
    pub layer: &'static str,
    /// Timeline track: a worker, or the thread that ran the call.
    pub track: u32,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Thread-safe in-memory span store.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    tracks: Mutex<HashMap<ThreadId, u32>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            tracks: Mutex::new(HashMap::new()),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The calling thread's track: tracks are numbered in the order
    /// threads first record, so harness workers get one track each.
    pub fn track(&self) -> u32 {
        let mut tracks = self.tracks.lock().expect("track map poisoned");
        let next = tracks.len() as u32;
        *tracks.entry(std::thread::current().id()).or_insert(next)
    }

    /// Run `f` inside a span on the calling thread's track. `f` receives
    /// the new span's id so it can open children.
    pub fn time<R>(
        &self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        self.timed(name, layer, parent, f).0
    }

    /// [`time`](Self::time), also returning the span's duration in ns.
    pub fn timed<R>(
        &self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> (R, u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let span = Span {
            id,
            parent,
            name: name.into(),
            layer,
            track: self.track(),
            start_ns,
            end_ns,
        };
        self.spans.lock().expect("span store poisoned").push(span);
        (out, end_ns - start_ns)
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Self time of every span, index-aligned with `spans`: its duration
/// minus the part of its interval that its children cover. Children are
/// clipped to the parent's interval and overlapping children count once,
/// so a self time is never negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Render `spans` as Chrome trace-event JSON: one track per recording
/// thread, each span a complete event carrying its layer and self time.
pub fn to_chrome(workload: &str, spans: &[Span]) -> String {
    let mut trace = TraceEvents::new();
    trace.process_name(1, &format!("benchmark {workload}"));
    let mut tracks: Vec<u32> = spans.iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for t in tracks {
        trace.thread_name(1, t, &format!("track {t}"));
    }
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        trace.complete(
            &s.name,
            s.layer,
            1,
            s.track,
            s.start_ns / 1000,
            s.dur_ns() / 1000,
            vec![("self_us".into(), Value::Number(self_ns as f64 / 1000.0))],
        );
    }
    trace.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            layer: "test",
            track: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_never_negative() {
        let spans = vec![
            span(1, None, 0, 100),
            // Overlapping children count once; one spills past the end.
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 90, 120),
            // A grandchild is charged to its own parent only.
            span(5, Some(2), 12, 14),
            // Children covering the whole parent leave zero, not less.
            span(6, None, 200, 210),
            span(7, Some(6), 195, 215),
            span(8, Some(6), 200, 210),
        ];
        assert_eq!(self_times(&spans), vec![50, 18, 30, 30, 2, 0, 20, 10]);
    }

    #[test]
    fn recorder_nests_and_renders_loadable_json() {
        let rec = Recorder::default();
        rec.time("outer", "sim", None, |id| {
            rec.time("inner", "vm", Some(id), |_| std::hint::black_box(3) + 1)
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(self_times(&spans).iter().all(|&s| s <= spans[1].dur_ns()));
        let doc = atc_bench::json::parse(&to_chrome("t", &spans)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 4, "process + thread names + two spans");
    }
}
