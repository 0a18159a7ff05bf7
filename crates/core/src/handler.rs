//! Socket request handler: hands each wire message to the service.
//!
//! What a message *does* is decided in one place,
//! [`SchedulerService::call`]. The handler adds the one thing a socket
//! needs on top: a connection thread must never block, so an
//! `alloc_request` — the one message whose answer may be withheld — goes
//! through the deferred path, which parks the [`Reply`] instead of the
//! thread.

use crate::service::SchedulerService;
use convgpu_ipc::message::Request;
use convgpu_ipc::server::{ConnId, Reply, RequestHandler};
use std::sync::Arc;

/// The [`RequestHandler`] a daemon binds on its one socket — the
/// listener every container reaches through the link in its volume.
pub struct ServiceHandler {
    service: Arc<SchedulerService>,
}

impl ServiceHandler {
    /// Wrap `service`.
    pub fn new(service: Arc<SchedulerService>) -> Self {
        ServiceHandler { service }
    }
}

impl RequestHandler for ServiceHandler {
    fn on_request(&self, _conn: ConnId, req: Request, reply: Reply) {
        match req {
            // May park the reply — the suspension mechanism.
            Request::AllocRequest {
                container,
                pid,
                size,
                api,
            } => self
                .service
                .alloc_request_deferred(container, pid, size, api, reply),
            req => reply.send(self.service.call(req)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use convgpu_ipc::client::SchedulerClient;
    use convgpu_ipc::endpoint::SchedulerEndpoint;
    use convgpu_ipc::message::{AllocDecision, ApiKind};
    use convgpu_ipc::server::SocketServer;
    use convgpu_scheduler::core::{Scheduler, SchedulerConfig};
    use convgpu_scheduler::policy::PolicyKind;
    use convgpu_sim_core::clock::RealClock;
    use convgpu_sim_core::ids::ContainerId;
    use convgpu_sim_core::units::Bytes;
    use std::time::Duration;

    fn stack(
        name: &str,
        capacity_mib: u64,
    ) -> (SocketServer, SchedulerClient, Arc<SchedulerService>) {
        let dir = std::env::temp_dir().join(format!(
            "convgpu-handler-test-{}-{}",
            std::process::id(),
            name
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let svc = Arc::new(SchedulerService::new(
            Scheduler::new(
                SchedulerConfig::with_capacity(Bytes::mib(capacity_mib)),
                PolicyKind::Fifo.build(0),
            ),
            RealClock::handle(),
            dir.clone(),
        ));
        let server = SocketServer::bind(
            &dir.join("sched.sock"),
            Arc::new(ServiceHandler::new(Arc::clone(&svc))),
        )
        .unwrap();
        let client = SchedulerClient::connect(server.path()).unwrap();
        (server, client, svc)
    }

    #[test]
    fn full_protocol_over_real_socket() {
        let (server, client, svc) = stack("full", 5120);
        client.ping().unwrap();
        client.register(ContainerId(1), Bytes::mib(512)).unwrap();
        let dir = client.request_dir(ContainerId(1)).unwrap();
        assert!(dir.ends_with("cnt-0001"));
        assert_eq!(
            client
                .request_alloc(ContainerId(1), 5, Bytes::mib(256), ApiKind::Malloc)
                .unwrap(),
            AllocDecision::Granted
        );
        client
            .alloc_done(ContainerId(1), 5, 0xF00, Bytes::mib(256))
            .unwrap();
        // The container's view hides the 66 MiB context charge: free =
        // limit - its own allocations.
        assert_eq!(
            client.mem_info(ContainerId(1), 5).unwrap(),
            (Bytes::mib(512 - 256), Bytes::mib(512))
        );
        assert_eq!(
            client.free(ContainerId(1), 5, 0xF00).unwrap(),
            Bytes::mib(256)
        );
        client.process_exit(ContainerId(1), 5).unwrap();
        client.container_close(ContainerId(1)).unwrap();
        svc.with_scheduler(|s| s.check_invariants().unwrap());
        server.shutdown();
    }

    #[test]
    fn suspension_works_over_real_socket() {
        let (server, client, _svc) = stack("suspend", 1200);
        client.register(ContainerId(1), Bytes::mib(1000)).unwrap();
        client.register(ContainerId(2), Bytes::mib(1000)).unwrap();
        client
            .request_alloc(ContainerId(1), 1, Bytes::mib(1000), ApiKind::Malloc)
            .unwrap();
        let client = Arc::new(client);
        let c2 = Arc::clone(&client);
        let t0 = std::time::Instant::now();
        let waiter = std::thread::spawn(move || {
            c2.request_alloc(ContainerId(2), 2, Bytes::mib(1000), ApiKind::Malloc)
        });
        std::thread::sleep(Duration::from_millis(40));
        assert!(!waiter.is_finished(), "suspended request must be parked");
        client.container_close(ContainerId(1)).unwrap();
        assert_eq!(waiter.join().unwrap().unwrap(), AllocDecision::Granted);
        assert!(t0.elapsed() >= Duration::from_millis(40));
        server.shutdown();
    }

    #[test]
    fn errors_travel_the_wire() {
        let (server, client, _svc) = stack("errors", 1000);
        let err = client
            .request_alloc(ContainerId(77), 1, Bytes::mib(1), ApiKind::Malloc)
            .unwrap_err();
        assert!(err.to_string().contains("unknown container"), "{err}");
        server.shutdown();
    }
}
