//! Chrome/Perfetto trace-event exporter.
//!
//! Builds the classic `chrome://tracing` JSON object format — a
//! `traceEvents` array of complete (`ph:"X"`), instant (`ph:"i"`) and
//! metadata (`ph:"M"`) events — which both `chrome://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev) load directly. The
//! suite maps the harness's job lifecycle events onto one track (`tid`)
//! per worker.
//!
//! Timestamps (`ts`) and durations (`dur`) are microseconds, per the
//! trace-event spec.

use crate::json::Value;

/// Builder for a trace-event JSON document.
#[derive(Debug, Clone, Default)]
pub struct TraceEvents {
    events: Vec<Value>,
}

fn base_event(
    name: &str,
    cat: &str,
    ph: &str,
    pid: u32,
    tid: u32,
    ts_us: u64,
) -> Vec<(String, Value)> {
    vec![
        ("name".into(), Value::String(name.into())),
        ("cat".into(), Value::String(cat.into())),
        ("ph".into(), Value::String(ph.into())),
        ("ts".into(), Value::Number(ts_us as f64)),
        ("pid".into(), Value::Number(f64::from(pid))),
        ("tid".into(), Value::Number(f64::from(tid))),
    ]
}

impl TraceEvents {
    /// An empty trace.
    pub fn new() -> Self {
        TraceEvents::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A complete (`ph:"X"`) event: a span of `dur_us` starting at
    /// `ts_us` on track `(pid, tid)`.
    #[allow(clippy::too_many_arguments)] // mirrors the trace-event field list
    pub fn complete(
        &mut self,
        name: &str,
        cat: &str,
        pid: u32,
        tid: u32,
        ts_us: u64,
        dur_us: u64,
        args: Vec<(String, Value)>,
    ) {
        let mut ev = base_event(name, cat, "X", pid, tid, ts_us);
        ev.push(("dur".into(), Value::Number(dur_us as f64)));
        if !args.is_empty() {
            ev.push(("args".into(), Value::Object(args)));
        }
        self.events.push(Value::Object(ev));
    }

    /// An instant (`ph:"i"`, thread-scoped) event at `ts_us`.
    pub fn instant(
        &mut self,
        name: &str,
        cat: &str,
        pid: u32,
        tid: u32,
        ts_us: u64,
        args: Vec<(String, Value)>,
    ) {
        let mut ev = base_event(name, cat, "i", pid, tid, ts_us);
        ev.push(("s".into(), Value::String("t".into())));
        if !args.is_empty() {
            ev.push(("args".into(), Value::Object(args)));
        }
        self.events.push(Value::Object(ev));
    }

    /// Name the process `pid` in the timeline UI.
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.metadata("process_name", pid, None, name);
    }

    /// Name the track `(pid, tid)` in the timeline UI.
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.metadata("thread_name", pid, Some(tid), name);
    }

    fn metadata(&mut self, kind: &str, pid: u32, tid: Option<u32>, name: &str) {
        let mut ev = vec![
            ("name".into(), Value::String(kind.into())),
            ("ph".into(), Value::String("M".into())),
            ("pid".into(), Value::Number(f64::from(pid))),
        ];
        if let Some(tid) = tid {
            ev.push(("tid".into(), Value::Number(f64::from(tid))));
        }
        ev.push((
            "args".into(),
            Value::Object(vec![("name".into(), Value::String(name.into()))]),
        ));
        self.events.push(Value::Object(ev));
    }

    /// Render the trace as the JSON object format Perfetto loads:
    /// `{"traceEvents":[...],"displayTimeUnit":"ms"}`.
    pub fn render(&self) -> String {
        Value::Object(vec![
            ("traceEvents".into(), Value::Array(self.events.clone())),
            ("displayTimeUnit".into(), Value::String("ms".into())),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn render_is_loadable_trace_json() {
        let mut t = TraceEvents::new();
        t.thread_name(1, 3, "worker 3");
        t.complete(
            "job/a",
            "attempt",
            1,
            3,
            100,
            250,
            vec![("attempt".into(), Value::Number(1.0))],
        );
        t.instant("retry", "fault", 1, 3, 400, vec![]);
        assert_eq!(t.len(), 3);
        let doc = json::parse(&t.render()).expect("trace renders valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 3);
        let span = &events[1];
        assert_eq!(span.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(span.get("ts").and_then(Value::as_f64), Some(100.0));
        assert_eq!(span.get("dur").and_then(Value::as_f64), Some(250.0));
        assert_eq!(span.get("tid").and_then(Value::as_f64), Some(3.0));
    }
}
