//! The workloads, plus the wrapped-client driver the two
//! socket-script workloads share.

pub mod churn;
pub mod node_json;
pub mod routed_journal;
pub mod sched_contended;

use crate::gen::{ContainerScript, CudaOp};
use crate::layers::{
    Bytes, ContainerId, CudaApi, CudaError, DevicePtr, SchedulerEndpoint, TracedCuda, WrapperModule,
};
use crate::run::{CheckResult, SubCx, SubRun};
use crate::trace::Tracer;
use std::sync::Arc;
use std::time::Instant;

/// Client threads (and connections) of the live workloads: the box has
/// two cores, and load comes from one process with at most that many.
pub const CLIENTS: usize = 2;

/// Container ids from here up belong to warm-up and resident containers;
/// timed containers count from 1.
pub const UNTIMED_ID_BASE: u64 = 1_000_000;

/// The spans of the timed containers. The warm-up's last handler span
/// can land after the timed phase has begun (the server thread records
/// it after the client already holds the reply), so spans are told apart
/// by container id, not by when they were drained.
pub fn timed_spans(tracer: &Tracer) -> Vec<crate::trace::Span> {
    let mut spans = tracer.drain();
    spans.retain(|s| s.container < UNTIMED_ID_BASE);
    spans
}

/// Run one sub-run of the named workload.
pub fn sub_run(workload: &str, cx: &SubCx) -> CheckResult<SubRun> {
    match workload {
        "node_json" => node_json::sub_run(cx),
        "sched_contended" => sched_contended::sub_run(cx),
        "routed_journal" | "routed_journal_2cpu" => routed_journal::sub_run(cx),
        "churn" => churn::sub_run(cx),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Ops one second of `--seconds` buys on each workload: calibrated once
/// on the reference box so that a run measures for about `--seconds`,
/// then frozen — the op count per sub-run is the same on every commit,
/// so CPU per op, memory and the exact counts compare like for like.
pub fn ops_per_second(workload: &str) -> u64 {
    match workload {
        "node_json" => node_json::OPS_PER_SECOND,
        "sched_contended" => sched_contended::OPS_PER_SECOND,
        "routed_journal" => routed_journal::OPS_PER_SECOND,
        "routed_journal_2cpu" => routed_journal::OPS_PER_SECOND_2CPU,
        "churn" => churn::OPS_PER_SECOND,
        _ => 0,
    }
}

/// CPUs a workload is defined on. Every workload but one runs pinned to
/// a single CPU: a wake-up across this VM's two vCPUs costs more than the
/// op it serves and comes out differently run by run (README, "Noise
/// facts"). `routed_journal_2cpu` is the same stack on two, so that what
/// only parallel threads can show — lock contention, serialisation, the
/// cross-CPU wake-ups themselves — is measured somewhere.
pub fn cpus(workload: &str) -> usize {
    match workload {
        "routed_journal_2cpu" => 2,
        _ => 1,
    }
}

/// What one client thread measured.
#[derive(Default)]
pub struct ClientStats {
    pub lat_us: Vec<f64>,
    pub create_us: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
}

impl ClientStats {
    /// Fold the client threads' stats into the sub-run record.
    pub fn merge_into(all: Vec<ClientStats>, run: &mut SubRun) {
        for s in all {
            run.lat_us.extend(s.lat_us);
            run.create_us.extend(s.create_us);
            run.ops += s.ops;
            run.failed += s.failed;
        }
    }
}

/// Drive one container's script through a `WrapperModule`: register,
/// one pid, the calls (each timed as one op), process exit, close.
/// `timed` is off for the warm-up containers of a sub-run's set-up.
pub fn drive_container(
    endpoint: &Arc<dyn SchedulerEndpoint>,
    raw: &Arc<dyn CudaApi>,
    tracer: Option<&Arc<Tracer>>,
    id: ContainerId,
    script: &ContainerScript,
    timed: bool,
    stats: &mut ClientStats,
) {
    let pid = 100_000 + id.as_u64();
    let created = Instant::now();
    if endpoint.register(id, script.limit).is_err() {
        // Without a registration nothing below can succeed: charge the
        // whole script as failed rather than hang or panic.
        stats.ops += script.ops.len() as u64;
        stats.failed += script.ops.len() as u64;
        return;
    }
    let api: Arc<dyn CudaApi> = match tracer {
        Some(t) => {
            let device = TracedCuda::wrap(Arc::clone(raw), t, "device_call", id);
            let module = Arc::new(WrapperModule::new(id, device, Arc::clone(endpoint)));
            TracedCuda::wrap(module, t, "cuda_call", id)
        }
        None => Arc::new(WrapperModule::new(
            id,
            Arc::clone(raw),
            Arc::clone(endpoint),
        )),
    };
    let mut lifecycle_ok = api.cuda_register_fat_binary(pid).is_ok();
    if timed {
        stats
            .create_us
            .push(created.elapsed().as_nanos() as f64 / 1e3);
    }

    let mut live: Vec<DevicePtr> = Vec::with_capacity(16);
    for op in &script.ops {
        let t0 = Instant::now();
        let ok = match *op {
            CudaOp::Malloc { mib } => keep(&mut live, api.cuda_malloc(pid, Bytes::mib(mib.into()))),
            CudaOp::MallocManaged { mib } => keep(
                &mut live,
                api.cuda_malloc_managed(pid, Bytes::mib(mib.into())),
            ),
            CudaOp::MallocPitch { width, height } => keep(
                &mut live,
                api.cuda_malloc_pitch(pid, Bytes::new(width.into()), height.into())
                    .map(|(ptr, _pitch)| ptr),
            ),
            CudaOp::Free { slot } => {
                let ptr = live.swap_remove(usize::from(slot));
                api.cuda_free(pid, ptr).is_ok()
            }
            CudaOp::MemGetInfo => api.cuda_mem_get_info(pid).is_ok(),
            // The deliberate over-limit request: a rejection is the
            // correct outcome, anything else is a failure.
            CudaOp::Probe => matches!(
                api.cuda_malloc(pid, script.limit + Bytes::new(1)),
                Err(CudaError::SchedulerRejected)
            ),
        };
        if timed {
            stats.lat_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            stats.ops += 1;
            stats.failed += u64::from(!ok);
        }
    }

    lifecycle_ok &= api.cuda_unregister_fat_binary(pid).is_ok();
    lifecycle_ok &= endpoint.container_close(id).is_ok();
    if timed && !lifecycle_ok {
        stats.failed += 1;
    }
}

fn keep(live: &mut Vec<DevicePtr>, result: Result<DevicePtr, CudaError>) -> bool {
    match result {
        Ok(ptr) => {
            live.push(ptr);
            true
        }
        Err(_) => {
            // Keep the script's slot numbering intact: a null pointer
            // is legal to free.
            live.push(DevicePtr::NULL);
            false
        }
    }
}
