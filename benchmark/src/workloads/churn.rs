//! `churn` — container lifecycle through the whole front end (Fig. 5):
//! `ConVGpu::start` (UNIX-socket transport) + `run_container`. Every
//! container pays `nvidia_docker.run` (register, request_dir/mkdir,
//! engine create+start), a per-container socket bind + connect + thread,
//! one pid with the 66 MiB context charge, three `cudaMalloc`s, exit and
//! the plugin-delivered close.
//!
//! Two client threads keep two containers alive at once. Each declares
//! 512 MiB on the 5 GiB card and allocates 3×128 MiB, so **no** container
//! suspends: ten fit at once, and a container that registers before its
//! predecessors' closes have travelled engine → plugin → scheduler still
//! finds a full guarantee. (With 1.5 GiB and three fitting, a host that
//! stole half the VM's CPU time let the closes fall four behind: 121
//! suspensions in 5 600 lifecycles.) The ISSUE's sizes (3 GiB limit,
//! 3×900 MiB) made the later container suspend only when its peer had
//! not yet exited — a race between one container's run phase and the
//! other's creation, both a few hundred microseconds — and about half
//! did: a bimodal lifecycle. Making all of them suspend needs the holder
//! to outlive the newcomer's creation, i.e. a long run phase, which
//! would bury the create/close cost this workload is for. So none
//! suspend; `sched_contended` is where suspension is measured.
//!
//! An op is one container lifecycle: `run_container` call → the program
//! has exited. A `ConVGpu` keeps one accept thread and one listening
//! socket per container it ever ran, so a sub-run is a series of fresh
//! instances ("generations") of [`GENERATION`] containers each; only the
//! lifecycle loops are timed.

use super::CLIENTS;
use crate::layers::{
    start_convgpu, Bytes, ContainerId, ContainerState, FnProgram, RunCommand, SchedulerBackend,
};
use crate::run::{ensure, CheckResult, Meter, SubCx, SubRun};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// See `workloads::ops_per_second`.
pub const OPS_PER_SECOND: u64 = 2_800;

/// Containers one `ConVGpu` instance runs before it is replaced.
pub const GENERATION: u64 = 400;

/// Declared limit and size of each malloc, in MiB; with the 66 MiB
/// context charge the three mallocs stay under the limit.
pub const LIMIT_MIB: u64 = 512;
pub const MALLOC_MIB: u64 = 128;
pub const MALLOCS: usize = 3;

struct ClientOut {
    lat_us: Vec<f64>,
    create_us: Vec<f64>,
    failed: u64,
    last: Option<ContainerId>,
}

/// Run `count` lifecycles on one client thread. `key_base` numbers the
/// lifecycles for the traced run's spans.
fn client_loop(
    convgpu: &crate::layers::ConVGpu,
    count: u64,
    key_base: u64,
    cx: &SubCx,
    timed: bool,
) -> ClientOut {
    let mut out = ClientOut {
        lat_us: Vec::with_capacity(count as usize),
        create_us: Vec::with_capacity(count as usize),
        failed: 0,
        last: None,
    };
    for i in 0..count {
        let key = key_base + i;
        let tracer = if timed { cx.tracer.clone() } else { None };
        let origin = Instant::now();
        let span0 = tracer.as_ref().map(|t| t.now_ns());
        // Nanoseconds from `origin` to the program's first instruction:
        // the end of the Fig. 5 creation window.
        let usable_ns = Arc::new(AtomicU64::new(0));
        let usable = Arc::clone(&usable_ns);
        let program_tracer = tracer.clone();
        let program = FnProgram::new("churn", move |api, pid, _clock| {
            usable.store(origin.elapsed().as_nanos() as u64, Ordering::Relaxed);
            if let (Some(t), Some(t0)) = (&program_tracer, span0) {
                t.record("create", "run_container", key, t0);
            }
            for _ in 0..MALLOCS {
                let t0 = program_tracer.as_ref().map(|t| t.now_ns());
                api.cuda_malloc(pid, Bytes::mib(MALLOC_MIB))?;
                if let (Some(t), Some(t0)) = (&program_tracer, t0) {
                    t.record("cuda_call", "cudaMalloc", key, t0);
                }
            }
            // No frees: process exit reclaims, as a short job's would.
            Ok(())
        });
        let cmd = RunCommand::new("cuda-app").nvidia_memory(format!("{LIMIT_MIB}m"));
        let ok = match convgpu.run_container(cmd, Box::new(program)) {
            Ok(session) => {
                out.last = Some(session.container);
                session.wait().is_ok()
            }
            Err(_) => false,
        };
        if let (Some(t), Some(t0)) = (&tracer, span0) {
            t.record("lifecycle", "container", key, t0);
        }
        if timed {
            out.lat_us.push(origin.elapsed().as_nanos() as f64 / 1e3);
            out.create_us
                .push(usable_ns.load(Ordering::Relaxed) as f64 / 1e3);
            out.failed += u64::from(!ok);
        }
    }
    out
}

/// One generation: a fresh `ConVGpu`, warm-up lifecycles, `count` timed
/// lifecycles from `CLIENTS` threads, the books checked, torn down.
fn generation(cx: &SubCx, gen: u64, count: u64, warm: u64, run: &mut SubRun) -> CheckResult<()> {
    let tracing = cx.tracer.is_some();
    let setup_started = Instant::now();
    let base = cx.dir.join(format!("g{gen}"));
    let convgpu = start_convgpu(&base).map_err(|e| format!("churn: start: {e}"))?;
    let barrier = Barrier::new(CLIENTS + 1);
    let share = |total: u64, t: usize| {
        total / CLIENTS as u64 + u64::from((t as u64) < total % CLIENTS as u64)
    };

    let mut segment = SubRun::default();
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let (convgpu, barrier) = (&convgpu, &barrier);
                scope.spawn(move || {
                    client_loop(convgpu, share(warm, t), 0, cx, false);
                    barrier.wait(); // set-up done
                    barrier.wait(); // timed phase starts
                    let key_base = 1 + (gen * CLIENTS as u64 + t as u64) * 1_000_000;
                    client_loop(convgpu, share(count, t), key_base, cx, true)
                })
            })
            .collect();
        barrier.wait();
        run.setup_s += setup_started.elapsed().as_secs_f64();
        let meter = Meter::start(tracing);
        barrier.wait();
        let outs = handles
            .into_iter()
            .map(|h| h.join().expect("churn client panicked"))
            .collect();
        meter.finish(tracing, &mut segment);
        outs
    });
    run.wall_s += segment.wall_s;
    run.cpu_user_s += segment.cpu_user_s;
    run.cpu_sys_s += segment.cpu_sys_s;
    run.vol_ctx_switches += segment.vol_ctx_switches;
    run.threads = run.threads.max(segment.threads);
    run.peak_rss_mib = run.peak_rss_mib.max(segment.peak_rss_mib);

    // The last closes travel engine → plugin → scheduler on their own
    // thread; let them land before reading the books.
    for out in &outs {
        if let Some(id) = out.last {
            ensure!(
                convgpu.wait_closed(id, Duration::from_secs(10)),
                "churn: container {id} never closed"
            );
        }
    }
    let total = count + warm;
    let (mut suspensions, mut grants) = (0u64, 0u64);
    convgpu.service().with_backend(|b| -> CheckResult<()> {
        let s = b.primary();
        let mut closed = 0u64;
        for r in s.containers() {
            closed += u64::from(r.state == ContainerState::Closed);
            suspensions += r.suspend_episodes;
            grants += r.granted_allocs;
        }
        // `closes_sent` is private to `ConVGpu`; a `Closed` record per
        // container says the same, since only the plugin closes here.
        ensure!(
            closed == total,
            "churn: {closed} containers closed, ran {total}"
        );
        ensure!(
            s.total_assigned() == Bytes::ZERO,
            "churn: {} still assigned",
            s.total_assigned()
        );
        ensure!(
            grants == total * MALLOCS as u64,
            "churn: {grants} grants on the books, expected {}",
            total * MALLOCS as u64
        );
        b.check_invariants()
            .map_err(|e| format!("churn: invariant: {e}"))
    })?;
    let (free, device_total) = convgpu.device().mem_info();
    ensure!(
        free == device_total,
        "churn: device holds {} after the run",
        device_total - free
    );
    convgpu.shutdown();

    *run.layer.entry("scheduler.core.suspensions").or_default() += suspensions as f64;
    *run.layer.entry("scheduler.core.resumes").or_default() += suspensions as f64;
    *run.layer.entry("churn.grants").or_default() += grants as f64;
    for out in outs {
        run.ops += out.lat_us.len() as u64;
        run.failed += out.failed;
        run.lat_us.extend(out.lat_us);
        run.create_us.extend(out.create_us);
    }
    Ok(())
}

pub fn sub_run(cx: &SubCx) -> CheckResult<SubRun> {
    let mut run = SubRun {
        label: "best-fit".into(),
        ..SubRun::default()
    };
    let generations = cx.ops.div_ceil(GENERATION).max(1);
    // Warm-up lifecycles per generation: enough for both clients to
    // reach the steady alternation before timing starts.
    let warm = (cx.warm_ops / generations).max(2 * CLIENTS as u64);
    let mut left = cx.ops.max(CLIENTS as u64);
    for gen in 0..generations {
        let count = left.min(GENERATION);
        left -= count;
        generation(cx, gen, count, warm, &mut run)?;
    }
    // Set-up as one instance pays it, not the sum over generations.
    run.setup_s /= generations as f64;

    let grants = run.layer.remove("churn.grants").unwrap_or(0.0);
    let suspensions = run.layer["scheduler.core.suspensions"];
    run.layer.insert(
        "scheduler.core.fast_path_share",
        1.0 - suspensions / grants.max(1.0),
    );
    // The lifecycle must be unimodal: sized so that nothing suspends.
    // (A stray one needs eight closes to stall behind a descheduled
    // plugin thread; tolerate 1 % — two in a smoke run — never a mode.)
    let stray_only = suspensions <= (run.ops as f64 / 100.0).max(2.0);
    ensure!(
        stray_only,
        "churn: {suspensions} suspensions over {} lifecycles on a workload sized to have none",
        run.ops
    );
    if let Some(t) = &cx.tracer {
        run.spans = t.drain();
    }
    Ok(run)
}
