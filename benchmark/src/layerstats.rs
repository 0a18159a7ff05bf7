//! Per-layer numbers read off the spans of a traced sub-run.

use crate::probes::Layer;
use crate::run::SubRun;
use crate::stats;
use crate::trace::{stitch, Stitched};

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Stitch a traced sub-run's spans and reduce them to layer metrics.
/// `routed` says the first server hop is the router, so the scheduler
/// service's handler is the `node_handler` span.
pub fn from_spans(run: &SubRun, routed: bool) -> (Layer, Stitched) {
    let st = stitch(run.spans.clone());
    let mut out = Layer::new();
    out.insert("obs.spans", st.spans.len() as f64);

    let cuda = st.durations("cuda_call", None);
    if cuda.is_empty() || !st.durations("lifecycle", None).is_empty() {
        // `churn`: lifecycle spans only; its layers come from probes.
        return (out, st);
    }
    let ops = cuda.len() as f64;
    out.insert(
        "wrapper.self_us_p50",
        us(stats::median(&st.self_times("cuda_call", None))),
    );
    let wrapped_calls = (0..st.spans.len())
        .filter(|&i| {
            st.spans[i].name == "endpoint_call"
                && st.parent[i].is_some_and(|p| st.spans[p].name == "cuda_call")
        })
        .count();
    out.insert("wrapper.endpoint_calls_per_op", wrapped_calls as f64 / ops);
    out.insert(
        "gpu_sim.device_call_ns_p50",
        stats::median(&st.durations("device_call", None)),
    );
    let rtt_self = st.self_times("endpoint_call", None);
    out.insert("ipc.rtt_self_us_p50", us(stats::quantile(&rtt_self, 0.50)));
    out.insert("ipc.rtt_self_us_p95", us(stats::quantile(&rtt_self, 0.95)));

    let service_handler = if routed { "node_handler" } else { "handler" };
    let busy = st.durations(service_handler, None);
    out.insert("core.handler.busy_us_p50", us(stats::quantile(&busy, 0.50)));
    out.insert("core.handler.busy_us_p95", us(stats::quantile(&busy, 0.95)));
    out.insert(
        "core.handler.alloc_request_us_p50",
        us(stats::median(
            &st.durations(service_handler, Some("alloc_request")),
        )),
    );
    out.insert(
        "core.handler.busy_share",
        busy.iter().sum::<f64>() / (run.wall_s * 1e9).max(1.0),
    );

    if routed {
        // Router cost of a forwarded call: the front handler's span
        // minus the node handler's inside it. `alloc_request` is
        // forwarded from a thread of its own, so its front span covers
        // only the spawn and is left out; `register` adds placement and
        // the journal's place record and is reported on its own.
        let forward: Vec<f64> = (0..st.spans.len())
            .filter(|&i| {
                st.spans[i].name == "handler"
                    && !matches!(st.spans[i].kind, "alloc_request" | "register")
            })
            .map(|i| st.self_ns[i] as f64)
            .collect();
        out.insert(
            "core.router.forward_us_p50",
            us(stats::quantile(&forward, 0.50)),
        );
        out.insert(
            "core.router.forward_us_p95",
            us(stats::quantile(&forward, 0.95)),
        );
        out.insert(
            "core.router.register_us_p50",
            us(stats::median(&st.self_times("handler", Some("register")))),
        );
    }

    // Medians do not add up the way means do; that the layers' p50s
    // still sum to about the op's p50 is what says no layer's cost hides
    // in a tail.
    let self_sum: f64 = self_time_table(&st).iter().map(|(_, v)| v).sum();
    out.insert("obs.layer_self_sum_us", self_sum);
    (out, st)
}

/// Each layer's share of an op, in us, by span name, the way ISSUE 11's
/// model adds the layers up: the p50 self time of one span of that layer
/// times the spans of that layer per op, over everything under a
/// `cuda_call` root.
pub fn self_time_table(st: &Stitched) -> Vec<(&'static str, f64)> {
    let ops = st.durations("cuda_call", None).len().max(1) as f64;
    let mut table: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for i in 0..st.spans.len() {
        let mut root = i;
        while let Some(p) = st.parent[root] {
            root = p;
        }
        if st.spans[root].name != "cuda_call" {
            continue;
        }
        let name = st.spans[i].name;
        match table.iter_mut().find(|(n, _)| *n == name) {
            Some(row) => row.1.push(st.self_ns[i] as f64),
            None => table.push((name, vec![st.self_ns[i] as f64])),
        }
    }
    table
        .into_iter()
        .map(|(name, selfs)| (name, us(stats::median(&selfs)) * selfs.len() as f64 / ops))
        .collect()
}
