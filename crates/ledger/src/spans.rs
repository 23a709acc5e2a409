//! The benchmark's own spans: one around every call it makes into a layer.
//!
//! Spans are recorded from the benchmark's files only (instrumenting the
//! program is a later change), kept in memory per generator thread, and
//! written as Chrome `trace_event` JSON when the workload ends. A span is
//! named `<layer>.<call>`; spans of one operation share its request id and
//! point at the span that caused them.

use crate::json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub tid: u32,
}

/// Process-wide span store. Recording is off until [`SpanLog::enable_from`]
/// names the instant tracing starts, so one run can measure a plain
/// stretch and a traced stretch against the same deployment.
pub struct SpanLog {
    t0: Instant,
    on_from_ns: AtomicU64,
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new(t0: Instant) -> Self {
        SpanLog {
            t0,
            on_from_ns: AtomicU64::new(u64::MAX),
            next_id: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    /// The instant every span time counts from.
    pub fn epoch(&self) -> Instant {
        self.t0
    }

    /// Nanoseconds since the log's epoch — the clock every span uses.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Record spans that start at or after `offset_ns`.
    pub fn enable_from(&self, offset_ns: u64) {
        // Relaxed: the flag publishes no other data.
        self.on_from_ns.store(offset_ns, Ordering::Relaxed);
    }

    pub fn is_on_at(&self, start_ns: u64) -> bool {
        start_ns >= self.on_from_ns.load(Ordering::Relaxed)
    }

    /// A recorder for one thread; its spans join the log when it drops.
    pub fn thread(&self, tid: u32) -> ThreadSpans<'_> {
        ThreadSpans {
            log: self,
            tid,
            buf: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.done.lock().expect("span log poisoned").len()
    }

    /// Chrome `trace_event` JSON (`ph: "X"` complete events, µs units).
    pub fn to_chrome_json(&self) -> String {
        let spans = self.done.lock().expect("span log poisoned");
        let events = spans.iter().map(|s| {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            json::object([
                ("name", json::string(s.name)),
                ("cat", json::string(layer)),
                ("ph", json::string("X")),
                ("ts", json::number(s.start_ns as f64 / 1e3)),
                (
                    "dur",
                    json::number(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                ),
                ("pid", json::number(1.0)),
                ("tid", json::number(s.tid as f64)),
                (
                    "args",
                    json::object([
                        ("id", json::number(s.id as f64)),
                        ("parent", json::number(s.parent as f64)),
                        ("request", json::number(s.request as f64)),
                    ]),
                ),
            ])
        });
        json::object([("traceEvents", json::array(events))])
    }
}

pub struct ThreadSpans<'a> {
    log: &'a SpanLog,
    tid: u32,
    buf: Vec<Span>,
}

impl ThreadSpans<'_> {
    /// Record a finished span; returns its id (0 while recording is off),
    /// for use as the `parent` of the spans it caused.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u64,
        request: u64,
    ) -> u64 {
        if !self.log.is_on_at(start_ns) {
            return 0;
        }
        let id = self.log.next_id.fetch_add(1, Ordering::Relaxed);
        self.buf.push(Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            request,
            tid: self.tid,
        });
        id
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let start = self.log.now_ns();
        let out = f();
        let end = self.log.now_ns();
        self.record(name, start, end, 0, request);
        out
    }
}

impl Drop for ThreadSpans<'_> {
    fn drop(&mut self) {
        if let Ok(mut done) = self.log.done.lock() {
            done.append(&mut self.buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_only_once_enabled_and_link_to_parents() {
        let log = SpanLog::new(Instant::now());
        {
            let mut t = log.thread(1);
            assert_eq!(t.record("load.op", 10, 20, 0, 7), 0, "off by default");
            log.enable_from(100);
            assert_eq!(t.record("load.op", 50, 120, 0, 7), 0, "started too early");
            let parent = t.record("load.op", 100, 200, 0, 8);
            assert!(parent > 0);
            let child = t.record("services.put", 110, 190, parent, 8);
            assert!(child > parent);
        }
        assert_eq!(log.len(), 2);
        let doc = log.to_chrome_json();
        assert!(doc.starts_with("{\"traceEvents\": [{"));
        assert!(doc.contains("\"name\": \"services.put\""));
        assert!(doc.contains("\"cat\": \"services\""));
        assert!(doc.contains("\"request\": 8"));
    }
}
