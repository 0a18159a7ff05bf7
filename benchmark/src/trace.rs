//! The benchmark's own spans: recorded around the calls into each layer,
//! kept in memory, stitched into per-op trees after the run and written
//! out as a Chrome trace. Nothing inside the program is instrumented.
//!
//! A span carries the container it concerns. One container's calls are
//! sequential (one pid, closed loop), so the spans of one container nest
//! by time: `cuda_call ⊃ endpoint_call ⊃ handler ⊃ node_handler`, with
//! `device_call` beside `endpoint_call` under `cuda_call`. The stitcher
//! rebuilds parents from that nesting; the server side never needs to be
//! told which client call it is serving.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary: `cuda_call`, `device_call`, `endpoint_call`,
    /// `handler`, `node_handler`, or a lifecycle name on `churn`.
    pub name: &'static str,
    /// The call made at that boundary (CUDA API or request kind).
    pub kind: &'static str,
    /// Container concerned; 0 = none (ignored by the stitcher).
    pub container: u64,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Span length.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

const SHARDS: usize = 16;

/// In-memory span store shared by every decorator of a traced sub-run.
pub struct Tracer {
    origin: Instant,
    // Sharded by container: the client and server threads of one
    // container take turns, so pushes almost never contend.
    shards: Vec<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
        })
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a span that started at `start_ns` and ends now.
    pub fn record(&self, name: &'static str, kind: &'static str, container: u64, start_ns: u64) {
        self.record_span(name, kind, container, start_ns, self.now_ns());
    }

    /// Record a span with both ends given.
    pub fn record_span(
        &self,
        name: &'static str,
        kind: &'static str,
        container: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.shards[container as usize % SHARDS]
            .lock()
            .expect("span shard")
            .push(Span {
                name,
                kind,
                container,
                start_ns,
                end_ns,
            });
    }

    /// Take every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.append(&mut shard.lock().expect("span shard"));
        }
        all
    }
}

/// Nesting depth by name; breaks ties between spans that start on the
/// same nanosecond and orders the Chrome-trace lanes.
fn rank(name: &str) -> u8 {
    match name {
        "lifecycle" => 0,
        "cuda_call" | "create" => 1,
        "endpoint_call" | "device_call" => 2,
        "handler" => 3,
        "node_handler" => 4,
        _ => 5,
    }
}

/// Spans with their reconstructed tree.
pub struct Stitched {
    /// Sorted by `(container, start)`.
    pub spans: Vec<Span>,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Vec<Option<usize>>,
    /// Op id shared by a root and everything under it:
    /// `container << 24 | sequence of the root within the container`.
    pub op: Vec<u64>,
    /// Effective end: a child that outlives its parent (a server thread
    /// returning from `on_request` after the client already has the
    /// reply) is clamped to the parent's end for the arithmetic.
    pub end_eff: Vec<u64>,
    /// Self time: the span minus the part its children cover.
    pub self_ns: Vec<u64>,
}

/// Rebuild parents, op ids and self times from time nesting.
pub fn stitch(mut spans: Vec<Span>) -> Stitched {
    spans.retain(|s| s.container != 0);
    spans.sort_by(|a, b| {
        (
            a.container,
            a.start_ns,
            rank(a.name),
            std::cmp::Reverse(a.end_ns),
        )
            .cmp(&(
                b.container,
                b.start_ns,
                rank(b.name),
                std::cmp::Reverse(b.end_ns),
            ))
    });
    let n = spans.len();
    let mut parent = vec![None; n];
    let mut op = vec![0u64; n];
    let mut end_eff: Vec<u64> = spans.iter().map(|s| s.end_ns).collect();
    let mut child_ns = vec![0u64; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut current = 0u64;
    let mut root_seq = 0u64;
    for i in 0..n {
        if spans[i].container != current {
            current = spans[i].container;
            root_seq = 0;
            stack.clear();
        }
        while let Some(&top) = stack.last() {
            if end_eff[top] <= spans[i].start_ns {
                stack.pop();
            } else {
                break;
            }
        }
        match stack.last() {
            Some(&top) => {
                parent[i] = Some(top);
                op[i] = op[top];
                end_eff[i] = end_eff[i].min(end_eff[top]);
                child_ns[top] += end_eff[i] - spans[i].start_ns;
            }
            None => {
                op[i] = (current << 24) | root_seq;
                root_seq += 1;
            }
        }
        stack.push(i);
    }
    let self_ns = (0..n)
        .map(|i| (end_eff[i] - spans[i].start_ns).saturating_sub(child_ns[i]))
        .collect();
    Stitched {
        spans,
        parent,
        op,
        end_eff,
        self_ns,
    }
}

impl Stitched {
    /// Effective duration of span `i`.
    pub fn dur_eff(&self, i: usize) -> u64 {
        self.end_eff[i] - self.spans[i].start_ns
    }

    /// Durations of every span called `name` (optionally one `kind`).
    pub fn durations(&self, name: &str, kind: Option<&str>) -> Vec<f64> {
        self.select(name, kind, |s, i| s.dur_eff(i))
    }

    /// Self times of every span called `name` (optionally one `kind`).
    pub fn self_times(&self, name: &str, kind: Option<&str>) -> Vec<f64> {
        self.select(name, kind, |s, i| s.self_ns[i])
    }

    fn select(&self, name: &str, kind: Option<&str>, f: impl Fn(&Self, usize) -> u64) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name && kind.is_none_or(|k| self.spans[i].kind == k))
            .map(|i| f(self, i) as f64)
            .collect()
    }

    /// Whether span `i` sits under the layer that should enclose it.
    fn nests(&self, i: usize) -> bool {
        let parent = self.parent[i].map(|p| self.spans[p].name);
        match self.spans[i].name {
            "lifecycle" => parent.is_none(),
            // On `churn` the calls sit under their container's
            // lifecycle span; elsewhere they are the roots.
            "cuda_call" | "create" => matches!(parent, None | Some("lifecycle")),
            // register / close are issued by the front end, not
            // through the wrapper, so they may be roots.
            "endpoint_call" => matches!(parent, None | Some("cuda_call")),
            "device_call" => matches!(parent, Some("cuda_call")),
            "handler" => matches!(parent, Some("endpoint_call")),
            // The router forwards `alloc_request` from a thread of
            // its own, after its front handler has returned; the
            // node's span then sits directly under the client's.
            "node_handler" => matches!(parent, Some("handler" | "endpoint_call")),
            _ => true,
        }
    }

    /// Spans whose parent is not the layer that should enclose them:
    /// the check behind "the spans nest".
    pub fn nesting_violations(&self) -> usize {
        (0..self.spans.len()).filter(|&i| !self.nests(i)).count()
    }

    /// The first misplaced span and its parent, for the failure message.
    pub fn first_violation(&self) -> Option<String> {
        let i = (0..self.spans.len()).find(|&i| !self.nests(i))?;
        Some(format!(
            "{:?} under {:?}",
            self.spans[i],
            self.parent[i].map(|p| &self.spans[p])
        ))
    }
}

/// At most this many spans go into a Chrome trace file.
pub const CHROME_SPAN_CAP: usize = 120_000;

/// Write the first [`CHROME_SPAN_CAP`] spans as Chrome trace events
/// (`chrome://tracing`, Perfetto). One lane per nesting level.
pub fn write_chrome(path: &Path, st: &Stitched) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\":[\n")?;
    let n = st.spans.len().min(CHROME_SPAN_CAP);
    for i in 0..n {
        let s = &st.spans[i];
        let parent = match st.parent[i] {
            Some(p) => p as i64,
            None => -1,
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\
             \"args\":{{\"id\":{},\"parent\":{},\"op\":{},\"self_ns\":{}}}}}{}",
            s.name,
            s.kind,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.container,
            rank(s.name),
            i,
            parent,
            st.op[i],
            st.self_ns[i],
            if i + 1 == n { "" } else { "," },
        )?;
    }
    out.write_all(b"]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, container: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            kind: "k",
            container,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // One op of container 7: cuda_call 0..100 holds a device_call
        // 5..15 and an endpoint_call 20..90, which holds a handler
        // 30..70, which holds a node_handler 40..50. A second container
        // interleaves and must not disturb the tree.
        let st = stitch(vec![
            span("handler", 7, 30, 70),
            span("cuda_call", 7, 0, 100),
            span("cuda_call", 9, 10, 60),
            span("node_handler", 7, 40, 50),
            span("endpoint_call", 7, 20, 90),
            span("device_call", 7, 5, 15),
            span("endpoint_call", 9, 20, 50),
            span("cuda_call", 7, 100, 130),
        ]);
        let idx = |name: &str, c: u64, start: u64| {
            st.spans
                .iter()
                .position(|s| s.name == name && s.container == c && s.start_ns == start)
                .unwrap()
        };
        let root = idx("cuda_call", 7, 0);
        assert_eq!(st.parent[root], None);
        assert_eq!(st.self_ns[root], 100 - 10 - 70);
        let ep = idx("endpoint_call", 7, 20);
        assert_eq!(st.parent[ep], Some(root));
        assert_eq!(st.self_ns[ep], 70 - 40);
        let h = idx("handler", 7, 30);
        assert_eq!(st.parent[h], Some(ep));
        assert_eq!(st.self_ns[h], 40 - 10);
        let nh = idx("node_handler", 7, 40);
        assert_eq!(st.parent[nh], Some(h));
        assert_eq!(st.self_ns[nh], 10);
        // Every span of the op shares the root's id; the next root of the
        // same container gets the next sequence number.
        for i in [ep, h, nh, idx("device_call", 7, 5)] {
            assert_eq!(st.op[i], st.op[root]);
        }
        assert_eq!(st.op[idx("cuda_call", 7, 100)], st.op[root] + 1);
        assert_ne!(st.op[idx("cuda_call", 9, 10)] >> 24, 7);
        // Self times of one op add up to the root's duration exactly.
        let total: u64 = (0..st.spans.len())
            .filter(|&i| st.op[i] == st.op[root])
            .map(|i| st.self_ns[i])
            .sum();
        assert_eq!(total, 100);
        assert_eq!(st.nesting_violations(), 0);
    }

    #[test]
    fn a_child_outliving_its_parent_is_clamped() {
        // The server thread returns from on_request (95) after the
        // client already holds the reply (90).
        let st = stitch(vec![
            span("endpoint_call", 1, 10, 90),
            span("handler", 1, 20, 95),
        ]);
        assert_eq!(st.parent[1], Some(0));
        assert_eq!(st.dur_eff(1), 70);
        assert_eq!(st.self_ns[0], 80 - 70);
    }

    #[test]
    fn misplaced_spans_are_counted() {
        let st = stitch(vec![
            span("handler", 1, 10, 20),
            span("cuda_call", 1, 30, 40),
        ]);
        assert_eq!(st.nesting_violations(), 1);
    }
}
