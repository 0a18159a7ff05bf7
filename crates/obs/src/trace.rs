//! Structured tracing: spans with ids/parents and typed attributes,
//! fanned out to pluggable sinks.
//!
//! A *span* is a named interval `[start, end]` stamped with the
//! caller-provided [`SimTime`]s (no wall-clock reads here — the same
//! tracer serves the virtual-clock experiment harness and the live
//! daemon). An *instant event* is a span with `start == end`. Parent
//! links build per-container trees: the container-lifetime span is the
//! root, allocation grants and suspension waits hang off it.
//!
//! Sinks:
//!
//! * [`RingSink`] — bounded in-memory ring; what the live daemon keeps
//!   for the Chrome-trace export.
//! * [`CollectorSink`] — unbounded, for tests (the golden-trace
//!   regression diffs its contents via [`render_canonical`]).

use convgpu_sim_core::sync::Mutex;
use convgpu_sim_core::time::SimTime;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Unique id (allocation order).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Span name (e.g. `container`, `suspend_wait`, `alloc`).
    pub name: String,
    /// Owning container, if the span is container-scoped.
    pub container: Option<u64>,
    /// Interval start.
    pub start: SimTime,
    /// Interval end (`== start` for instant events).
    pub end: SimTime,
    /// Typed attributes, in insertion order.
    pub attrs: Vec<(String, String)>,
}

/// A destination for finished spans.
pub trait SpanSink: Send + Sync {
    /// Record one span.
    fn record(&self, span: &SpanRecord);
}

/// Span source: allocates ids and fans finished spans out to sinks.
#[derive(Default)]
pub struct Tracer {
    next_id: AtomicU64,
    sinks: Mutex<Vec<Arc<dyn SpanSink>>>,
}

impl Tracer {
    /// A tracer with no sinks (emits are dropped until one is added).
    pub fn new() -> Self {
        Tracer {
            next_id: AtomicU64::new(1),
            sinks: Mutex::new(Vec::new()),
        }
    }

    /// Attach a sink; every subsequently emitted span is delivered.
    pub fn add_sink(&self, sink: Arc<dyn SpanSink>) {
        self.sinks.lock().push(sink);
    }

    /// Reserve a span id (for spans whose end is not yet known — the
    /// caller emits the finished record later under the same id).
    pub fn next_span_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Deliver a finished span to every sink.
    pub fn emit(&self, span: SpanRecord) {
        let sinks = self.sinks.lock();
        for sink in sinks.iter() {
            sink.record(&span);
        }
    }

    /// Emit a completed interval span; returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        name: &str,
        container: Option<u64>,
        parent: Option<u64>,
        start: SimTime,
        end: SimTime,
        attrs: &[(&str, &str)],
    ) -> u64 {
        let id = self.next_span_id();
        self.emit(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            container,
            start,
            end,
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
        id
    }

    /// Emit an instant event (zero-length span); returns its id.
    pub fn instant(
        &self,
        name: &str,
        container: Option<u64>,
        parent: Option<u64>,
        at: SimTime,
        attrs: &[(&str, &str)],
    ) -> u64 {
        self.span(name, container, parent, at, at, attrs)
    }
}

/// Bounded in-memory ring of the most recent spans.
pub struct RingSink {
    capacity: usize,
    buf: Mutex<VecDeque<SpanRecord>>,
}

impl RingSink {
    /// A ring retaining up to `capacity` spans (older spans drop).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity,
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
        }
    }

    /// Copy out the retained spans, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.buf.lock().iter().cloned().collect()
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.lock().is_empty()
    }
}

impl SpanSink for RingSink {
    fn record(&self, span: &SpanRecord) {
        let mut buf = self.buf.lock();
        if self.capacity == 0 {
            return;
        }
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(span.clone());
    }
}

/// Unbounded collector for tests.
#[derive(Default)]
pub struct CollectorSink {
    spans: Mutex<Vec<SpanRecord>>,
}

impl CollectorSink {
    /// An empty collector.
    pub fn new() -> Self {
        CollectorSink::default()
    }

    /// Copy out everything collected so far.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.spans.lock().clone()
    }

    /// Drain the collector.
    pub fn take(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.spans.lock())
    }
}

impl SpanSink for CollectorSink {
    fn record(&self, span: &SpanRecord) {
        self.spans.lock().push(span.clone());
    }
}

/// JSON string escaping for the hand-rolled writers (the obs crate does
/// not depend on the ipc JSON codec — dependencies run the other way).
pub(crate) fn escape_json(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Render spans as a canonical, diffable tree: ids remapped to
/// first-seen ordinals, absolute timestamps dropped (only the relative
/// order of span starts survives), children indented under parents.
///
/// This is what the golden-trace regression test compares, so the same
/// scenario run under a real or virtual clock — or on a machine of any
/// speed — canonicalizes identically as long as the *order* of
/// scheduler decisions is the same.
pub fn render_canonical(records: &[SpanRecord]) -> String {
    let mut sorted: Vec<&SpanRecord> = records.iter().collect();
    sorted.sort_by_key(|s| (s.start, s.id));
    // Remap ids in sorted order.
    let mut ordinal = std::collections::HashMap::new();
    for (i, s) in sorted.iter().enumerate() {
        ordinal.insert(s.id, i + 1);
    }
    let mut children: std::collections::HashMap<Option<u64>, Vec<&SpanRecord>> =
        std::collections::HashMap::new();
    for s in &sorted {
        // A dangling parent (e.g. evicted from a ring) renders as a root.
        let parent = s.parent.filter(|p| ordinal.contains_key(p));
        children.entry(parent).or_default().push(s);
    }
    let mut out = String::new();
    let mut stack: Vec<(&SpanRecord, usize)> = Vec::new();
    if let Some(roots) = children.get(&None) {
        for r in roots.iter().rev() {
            stack.push((r, 0));
        }
    }
    while let Some((s, depth)) = stack.pop() {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str("- ");
        out.push_str(&s.name);
        if let Some(c) = s.container {
            out.push_str(&format!(" container=cnt-{c:04}"));
        }
        out.push_str(if s.start == s.end {
            " [instant]"
        } else {
            " [span]"
        });
        for (k, v) in &s.attrs {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        if let Some(kids) = children.get(&Some(s.id)) {
            for k in kids.iter().rev() {
                stack.push((k, depth + 1));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn tracer_fans_out_to_all_sinks() {
        let tracer = Tracer::new();
        let ring = Arc::new(RingSink::new(8));
        let coll = Arc::new(CollectorSink::new());
        tracer.add_sink(ring.clone());
        tracer.add_sink(coll.clone());
        let id = tracer.span("work", Some(1), None, t(1), t(2), &[("k", "v")]);
        assert!(id > 0);
        assert_eq!(ring.len(), 1);
        assert_eq!(coll.records().len(), 1);
        assert_eq!(coll.records()[0].attrs[0], ("k".into(), "v".into()));
    }

    #[test]
    fn ring_sink_evicts_oldest() {
        let ring = RingSink::new(2);
        for i in 0..4u64 {
            ring.record(&SpanRecord {
                id: i,
                parent: None,
                name: format!("s{i}"),
                container: None,
                start: t(i),
                end: t(i),
                attrs: vec![],
            });
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].name, "s2");
        assert_eq!(snap[1].name, "s3");
    }

    #[test]
    fn canonical_rendering_is_id_and_time_invariant() {
        let mk = |id, parent, name: &str, start, end| SpanRecord {
            id,
            parent,
            name: name.into(),
            container: Some(1),
            start: t(start),
            end: t(end),
            attrs: vec![],
        };
        // Same tree twice, with shifted ids and times.
        let a = vec![
            mk(10, None, "container", 1, 9),
            mk(11, Some(10), "alloc", 2, 2),
            mk(12, Some(10), "suspend_wait", 3, 5),
        ];
        let b = vec![
            mk(70, None, "container", 101, 109),
            mk(71, Some(70), "alloc", 102, 102),
            mk(75, Some(70), "suspend_wait", 103, 105),
        ];
        assert_eq!(render_canonical(&a), render_canonical(&b));
        let text = render_canonical(&a);
        assert!(
            text.contains("- container container=cnt-0001 [span]"),
            "{text}"
        );
        assert!(
            text.contains("  - alloc container=cnt-0001 [instant]"),
            "{text}"
        );
    }

    #[test]
    fn canonical_rendering_orders_siblings_by_start() {
        let mk = |id, start| SpanRecord {
            id,
            parent: None,
            name: format!("n{id}"),
            container: None,
            start: t(start),
            end: t(start),
            attrs: vec![],
        };
        // Emitted out of start order.
        let spans = vec![mk(1, 5), mk(2, 1)];
        let text = render_canonical(&spans);
        let first = text.lines().next().unwrap();
        assert!(first.contains("n2"), "earliest start renders first: {text}");
    }
}
