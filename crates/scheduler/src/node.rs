//! A node's request handling, without I/O: [`on`] maps one wire
//! [`Request`] to its backend transition, and returns what to answer,
//! which parked requests to resume and in which order. It takes no lock
//! and reads no clock, socket or file. The daemon
//! (`SchedulerService::serve`, `convgpu-core`) calls it under its lock;
//! the model checker (`convgpu-audit`) delivers every event through it.
//! A parked request needs no state here: it waits in its container's
//! pending queue.

use crate::backend::SchedulerBackend;
use crate::core::{AllocOutcome, ResumeAction};
use convgpu_ipc::message::{AllocDecision, Request, Response};
use convgpu_sim_core::time::SimTime;

/// The caller's side of a [`Step`].
#[derive(Debug, PartialEq)]
pub enum Answer {
    /// Answer the caller with this.
    Now(Response),
    /// The request is parked under this ticket: the [`ResumeAction`] of
    /// a later step carries its answer.
    Parked(u64),
}

/// What one request produced.
#[derive(Debug)]
pub struct Step {
    /// The caller's answer, or the ticket it waits under.
    pub answer: Answer,
    /// The parked requests this step answers, each once.
    pub resumes: Vec<ResumeAction>,
    /// Send `answer` before `resumes`. An `alloc_request` answers its own
    /// caller before the resumes its give-back produced; every other kind
    /// resumes first.
    pub answer_first: bool,
}

/// Apply `req` to `backend` at `now`. A refused request is answered with
/// `error` and changes nothing; so are `request_dir` and `query_metrics`,
/// which the daemon answers itself from its file system and registry.
pub fn on<B: SchedulerBackend>(backend: &mut B, req: Request, now: SimTime) -> Step {
    let answered = |(response, resumes)| Step {
        answer: Answer::Now(response),
        resumes,
        answer_first: false,
    };
    let ok = |resumes| (Response::Ok, resumes);
    let result = match req {
        Request::AllocRequest {
            container,
            pid,
            size,
            api,
        } => {
            let (outcome, resumes) = match backend.alloc_request(container, pid, size, api, now) {
                Ok(decided) => decided,
                Err(e) => return answered((error(e), Vec::new())),
            };
            let alloc = |decision| Answer::Now(Response::Alloc { decision });
            let answer = match outcome {
                AllocOutcome::Granted => alloc(AllocDecision::Granted),
                AllocOutcome::Rejected => alloc(AllocDecision::Rejected),
                AllocOutcome::Suspended { ticket } => Answer::Parked(ticket),
            };
            return Step {
                answer,
                resumes,
                answer_first: true,
            };
        }
        Request::Register { container, limit } => backend
            .register(container, limit, now)
            .map(|_| ok(Vec::new())),
        Request::AllocDone {
            container,
            pid,
            addr,
            size,
        } => backend
            .alloc_done(container, pid, addr, size, now)
            .map(|()| ok(Vec::new())),
        Request::AllocFailed {
            container,
            pid,
            size,
        } => backend.alloc_failed(container, pid, size, now).map(ok),
        Request::Free {
            container,
            pid,
            addr,
        } => backend
            .free(container, pid, addr, now)
            .map(|(size, resumes)| (Response::Freed { size }, resumes)),
        Request::MemInfo { container, pid } => backend
            .mem_info(container, pid)
            .map(|(free, total)| (Response::MemInfo { free, total }, Vec::new())),
        Request::ProcessExit { container, pid } => {
            backend.process_exit(container, pid, now).map(ok)
        }
        Request::ContainerClose { container } => backend.container_close(container, now).map(ok),
        Request::QueryTopology => {
            let (kind, devices) = (backend.topology_kind().to_string(), backend.devices());
            Ok((Response::Topology { kind, devices }, Vec::new()))
        }
        Request::QueryHome { container } => Ok((
            match backend.home_of(container) {
                Some(device) => Response::Home {
                    node: String::new(),
                    device: device as u64,
                },
                None => error(format!("container {container} is not registered")),
            },
            Vec::new(),
        )),
        Request::Ping => Ok((Response::Pong, Vec::new())),
        // Clusters are the router's; nothing answers the retired
        // migration kinds.
        Request::QueryCluster | Request::Migrate { .. } | Request::QueryMigrations => {
            Ok((error("not a cluster daemon"), Vec::new()))
        }
        Request::RequestDir { .. } | Request::QueryMetrics => {
            Ok((error("answered by the daemon, not the books"), Vec::new()))
        }
    };
    answered(result.unwrap_or_else(|e| (error(e), Vec::new())))
}

/// A refusal, as the wire carries it.
pub fn error(e: impl std::fmt::Display) -> Response {
    Response::Error {
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{Scheduler, SchedulerConfig};
    use crate::policy::PolicyKind;
    use convgpu_ipc::message::ApiKind;
    use convgpu_sim_core::ids::ContainerId;
    use convgpu_sim_core::units::Bytes;

    /// A Best-Fit device of 1000 MiB with no context charge: `a` holds
    /// all of its 600 MiB limit, `b` 400 of its 600, and `c` (limit 400)
    /// is parked on its first 100 MiB under the returned ticket.
    fn parked_behind_a_full_device() -> (Scheduler, u64) {
        let mut s = Scheduler::new(
            SchedulerConfig {
                ctx_overhead: Bytes::ZERO,
                ..SchedulerConfig::with_capacity(Bytes::mib(1000))
            },
            PolicyKind::BestFit.build(0),
        );
        let mut t = 0;
        let mut step = |s: &mut Scheduler, req| {
            t += 1;
            on(s, req, SimTime::from_nanos(t))
        };
        for (id, limit) in [(1, 600), (2, 600), (3, 400)] {
            let req = Request::Register {
                container: ContainerId(id),
                limit: Bytes::mib(limit),
            };
            assert_eq!(step(&mut s, req).answer, Answer::Now(Response::Ok));
        }
        let parked = step(&mut s, alloc(3, 100));
        let Answer::Parked(ticket) = parked.answer else {
            panic!("c must park: {parked:?}");
        };
        (s, ticket)
    }

    fn alloc(id: u64, mib: u64) -> Request {
        Request::AllocRequest {
            container: ContainerId(id),
            pid: id,
            size: Bytes::mib(mib),
            api: ApiKind::Malloc,
        }
    }

    fn granted(id: u64, ticket: u64) -> ResumeAction {
        ResumeAction {
            container: ContainerId(id),
            pid: id,
            ticket,
            decision: AllocDecision::Granted,
        }
    }

    /// `b` asks past the 400 MiB it holds and parks; the give-back of its
    /// unused 400 completes `c`'s guarantee (Best-Fit: the 400 fits `c`'s
    /// deficit, not `b`'s 600). The caller's side (its park) comes before
    /// `c`'s resume.
    #[test]
    fn an_alloc_request_answers_its_caller_before_its_give_backs_resumes() {
        let (mut s, c_ticket) = parked_behind_a_full_device();
        let step = on(&mut s, alloc(2, 500), SimTime::from_nanos(10));
        assert!(matches!(step.answer, Answer::Parked(t) if t != c_ticket));
        assert_eq!(step.resumes, [granted(3, c_ticket)]);
        assert!(step.answer_first);
        s.check_invariants().unwrap();
    }

    /// `a`'s close hands its 600 MiB to `c`: the resume comes before the
    /// close's `ok`.
    #[test]
    fn a_container_close_resumes_before_it_answers() {
        let (mut s, c_ticket) = parked_behind_a_full_device();
        let close = Request::ContainerClose {
            container: ContainerId(1),
        };
        let step = on(&mut s, close, SimTime::from_nanos(10));
        assert_eq!(step.answer, Answer::Now(Response::Ok));
        assert_eq!(step.resumes, [granted(3, c_ticket)]);
        assert!(!step.answer_first);
        s.check_invariants().unwrap();
    }

    /// A refused request is answered with `error` and changes nothing.
    #[test]
    fn a_refusal_is_an_error_answer() {
        let (mut s, _) = parked_behind_a_full_device();
        let before = s.fingerprint();
        let step = on(&mut s, alloc(9, 1), SimTime::from_nanos(10));
        assert!(matches!(step.answer, Answer::Now(Response::Error { .. })));
        assert!(step.resumes.is_empty());
        assert_eq!(s.fingerprint(), before);
    }
}
