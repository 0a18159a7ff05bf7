//! The lock-order check of `convgpu::sim::sync` (docs/LINT.md), on the
//! three shapes it exists for, with real mutexes and a real `Reply` over a
//! socket:
//!
//! * a state lock released before the reply is sent — passes;
//! * two locks taken in both orders (AB/BA) — aborts, naming both
//!   `Mutex::new` sites;
//! * a reply sent while the state lock is held — aborts, naming that lock.
//!
//! An aborting shape runs in a child: an `#[ignore]`d test that its parent
//! re-runs by exact name from `current_exe()`. The child does nothing unless
//! it was run that way (`--exact`), so `--include-ignored` stays safe.
//! Release builds have no checker: there the children must succeed.

use convgpu::ipc::client::SchedulerClient;
use convgpu::ipc::message::{Request, Response};
use convgpu::ipc::server::{ConnId, Reply, RequestHandler, SocketServer};
use convgpu::sim::sync::Mutex;
use std::os::unix::process::ExitStatusExt;
use std::process::Command;
use std::sync::Arc;

/// A service whose one lock guards a counter, answering pings.
struct Service {
    state: Mutex<u64>,
    reply_under_guard: bool,
}

impl RequestHandler for Service {
    fn on_request(&self, _conn: ConnId, _req: Request, reply: Reply) {
        if self.reply_under_guard {
            let mut state = self.state.lock();
            *state += 1;
            reply.send(Response::Pong);
        } else {
            {
                let mut state = self.state.lock();
                *state += 1;
            }
            reply.send(Response::Pong);
        }
    }
}

/// The service plus the site of its state lock's `Mutex::new`.
fn service(reply_under_guard: bool) -> (Service, String) {
    let (state, line) = (Mutex::new(0), line!());
    let service = Service {
        state,
        reply_under_guard,
    };
    (service, format!("{}:{line}:", file!()))
}

/// Serve `service` on a fresh socket and ping it once.
fn ping(service: Service, tag: &str) -> Response {
    let dir = std::env::temp_dir().join(format!(
        "convgpu-itest-lock-order-{}-{tag}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let server = SocketServer::bind(&dir.join("s.sock"), Arc::new(service)).unwrap();
    let client = SchedulerClient::connect(server.path()).unwrap();
    let resp = client.request(Request::Ping).unwrap();
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    resp
}

/// Two locks and the sites of their `Mutex::new`s.
fn two_locks() -> ([Mutex<u64>; 2], [String; 2]) {
    let (a, a_line) = (Mutex::new(1), line!());
    let (b, b_line) = (Mutex::new(2), line!());
    let site = |line| format!("{}:{line}:", file!());
    ([a, b], [site(a_line), site(b_line)])
}

/// True only in a child its parent started by exact name.
fn is_child() -> bool {
    std::env::args().any(|a| a == "--exact")
}

/// Re-run the ignored test `child` alone; return whether it aborted, and
/// its stderr.
fn run_child(child: &str) -> (bool, String) {
    let out = Command::new(std::env::current_exe().unwrap())
        .args([child, "--exact", "--ignored", "--nocapture"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let aborted = out.status.signal() == Some(6);
    if !aborted {
        assert!(out.status.success(), "{child} failed: {stderr}");
    }
    (aborted, stderr)
}

#[test]
fn state_released_before_the_reply_passes() {
    let (service, _) = service(false);
    assert_eq!(ping(service, "clean"), Response::Pong);
}

#[test]
#[ignore = "aborts by design; run by ab_ba_cycle_aborts_naming_both_sites"]
fn child_ab_ba() {
    if !is_child() {
        return;
    }
    let ([a, b], _) = two_locks();
    let forward = *a.lock() + *b.lock();
    let backward = {
        let b = b.lock();
        let a = a.lock();
        *a + *b
    };
    assert_eq!(forward, backward);
}

#[test]
fn ab_ba_cycle_aborts_naming_both_sites() {
    let (aborted, stderr) = run_child("child_ab_ba");
    assert_eq!(aborted, cfg!(debug_assertions), "{stderr}");
    if aborted {
        assert!(stderr.contains("lock-order cycle"), "{stderr}");
        for site in two_locks().1 {
            assert!(stderr.contains(&site), "{site} missing from:\n{stderr}");
        }
    }
}

#[test]
#[ignore = "aborts by design; run by reply_under_guard_aborts_naming_the_lock"]
fn child_reply_under_guard() {
    if !is_child() {
        return;
    }
    let (service, _) = service(true);
    assert_eq!(ping(service, "under-guard"), Response::Pong);
}

#[test]
fn reply_under_guard_aborts_naming_the_lock() {
    let (aborted, stderr) = run_child("child_reply_under_guard");
    assert_eq!(aborted, cfg!(debug_assertions), "{stderr}");
    if aborted {
        assert!(stderr.contains("socket write while holding"), "{stderr}");
        let (_, site) = service(true);
        assert!(stderr.contains(&site), "{site} missing from:\n{stderr}");
    }
}
