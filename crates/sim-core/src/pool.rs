//! Reused threads for jobs that may block: [`ThreadPool`].
//!
//! Three kinds of work in the live middleware each want a thread of their
//! own for as long as they last — a server connection's reader loop, a
//! container's program, and a router's forwarded `alloc_request` (which
//! blocks for as long as the node suspends the container). None of them
//! may queue behind another, so a fixed-size pool is no answer; a fresh OS
//! thread per job is, but it costs a `clone` + stack map + exit per
//! job. A [`ThreadPool`] keeps the threads whose job returned parked
//! for the next one instead.

use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SendError, SyncSender};
use std::sync::{Arc, Weak};

/// Work handed to a pool thread: everything it needs lives inside the
/// closure and is dropped when it returns.
type Job = Box<dyn FnOnce() + Send>;

/// What travels over a thread's hand-off channel: the job, and the
/// channel's own sender. The thread puts `back` on the idle list when the
/// job is done and keeps no sender while parked — so dropping the list is
/// what wakes it (`recv` fails once the last sender is gone).
struct HandOff {
    job: Job,
    back: SyncSender<HandOff>,
}

/// The hand-off senders of the threads parked at this instant.
type IdleList = Mutex<Vec<SyncSender<HandOff>>>;

/// Idle threads kept for reuse. Steady traffic needs one per job in flight
/// at once; what a burst (a suspension storm, many connections at once)
/// created beyond this exits instead of parking.
pub const MAX_IDLE_THREADS: usize = 8;

/// Threads that run jobs and, between jobs, park for reuse.
///
/// A job may block for as long as it likes, so it never queues behind
/// another one: it goes to a thread that is parked *right now* — listed
/// idle, which a thread does only after its previous job returned, and
/// unlisted under the list's lock by whoever takes it — and when none is,
/// to a new thread. Live threads therefore equal the peak number of
/// concurrent jobs. After its job a thread lists itself (most recent last,
/// taken first: the warm one is reused) and parks, unless
/// [`MAX_IDLE_THREADS`] are parked already, in which case it exits.
///
/// A thread whose job panics dies with it, unlisted: the next job goes to
/// another thread. Threads hold only a [`Weak`] to the list, so they keep
/// nothing alive: dropping the pool drops the listed senders, which wakes
/// and ends every parked thread; a busy one finds the list gone when its
/// job returns, and exits.
///
/// A reused thread may carry a stale `unpark` token from an earlier job:
/// code that parks must re-check its condition after every wake-up.
pub struct ThreadPool {
    idle: Arc<IdleList>,
    /// Threads created so far; names them `<name>-N`.
    spawned: AtomicU64,
    name: &'static str,
}

impl ThreadPool {
    /// An empty pool whose threads are named `<name>-1`, `<name>-2`, ….
    pub fn new(name: &'static str) -> Self {
        ThreadPool {
            idle: Arc::new(Mutex::new(Vec::new())),
            spawned: AtomicU64::new(0),
            name,
        }
    }

    /// Run `job` on a pool thread without waiting for it. Returns whether
    /// a thread had to be created for it.
    pub fn run(&self, job: impl FnOnce() + Send + 'static) -> bool {
        let mut job: Job = Box::new(job);
        loop {
            // Unlist under the lock, hand over outside it.
            let Some(tx) = self.idle.lock().pop() else {
                break;
            };
            let back = tx.clone();
            match tx.send(HandOff { job, back }) {
                Ok(()) => return false,
                // That thread is gone (it died parked): the job comes back
                // and goes to the next one, or to a new thread.
                Err(SendError(returned)) => job = returned.job,
            }
        }
        let n = self.spawned.fetch_add(1, Ordering::Relaxed) + 1;
        let idle = Arc::downgrade(&self.idle);
        // Detached: nobody can join a thread whose job may block without
        // bound; it ends by itself once the list is gone.
        std::thread::Builder::new()
            .name(format!("{}-{n}", self.name))
            .spawn(move || worker_loop(&idle, job))
            .expect("spawn pool thread");
        true
    }

    /// Threads created so far.
    pub fn spawned(&self) -> u64 {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Threads parked at this instant, waiting for a job.
    pub fn parked(&self) -> usize {
        self.idle.lock().len()
    }
}

/// Body of a pool thread: run the job it was created for, then whatever
/// is handed to it while it is parked on the idle list.
fn worker_loop(idle: &Weak<IdleList>, first: Job) {
    // One slot: a listed thread is handed at most one job before it is
    // unlisted, so `send` never blocks the caller of `run`.
    let (tx, rx) = sync_channel(1);
    let mut next = Some(HandOff {
        job: first,
        back: tx,
    });
    while let Some(HandOff { job, back }) = next {
        job();
        match idle.upgrade() {
            Some(list) => {
                let mut parked = list.lock();
                if parked.len() >= MAX_IDLE_THREADS {
                    return;
                }
                parked.push(back);
            }
            None => return,
        }
        // Parked holding neither the list nor a sender: when the list
        // goes, so does the last sender, and `recv` fails.
        next = rx.recv().ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::time::Duration;

    /// Poll `cond` (threads list themselves and exit on their own time)
    /// for up to five seconds.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        for _ in 0..5_000 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("never happened: {what}");
    }

    /// A job that reports `tag` when it has run.
    fn reporting(done: &Sender<u32>, tag: u32) -> Job {
        let done = done.clone();
        Box::new(move || done.send(tag).unwrap())
    }

    /// A job that blocks until its gate is opened (a suspended forward),
    /// then reports `tag`.
    fn gated(done: &Sender<u32>, tag: u32) -> (Job, Sender<()>) {
        let (open, gate) = channel::<()>();
        let done = done.clone();
        let job: Job = Box::new(move || {
            let _ = gate.recv();
            done.send(tag).unwrap();
        });
        (job, open)
    }

    fn next(done: &Receiver<u32>) -> u32 {
        done.recv_timeout(Duration::from_secs(5))
            .expect("the job never ran")
    }

    /// Live pool threads: each holds one `Weak` to the idle list.
    fn live(pool: &ThreadPool) -> usize {
        Arc::weak_count(&pool.idle)
    }

    fn pool() -> ThreadPool {
        ThreadPool::new("convgpu-pool-test")
    }

    #[test]
    fn sequential_jobs_reuse_one_thread() {
        let pool = pool();
        let (done, ran) = channel();
        for i in 0..200 {
            let created = pool.run(reporting(&done, i));
            assert_eq!(created, i == 0, "job {i}");
            assert_eq!(next(&ran), i);
            eventually("the thread parks again", || pool.parked() == 1);
        }
        assert_eq!(pool.spawned(), 1);
        assert_eq!(live(&pool), 1);
    }

    #[test]
    fn a_job_never_queues_behind_a_blocked_one() {
        let pool = pool();
        let (done, ran) = channel();
        let (blocked, open) = gated(&done, 1);
        assert!(pool.run(blocked));
        // The only thread is busy (not listed): the next job gets its own
        // thread and finishes while the first is still blocked.
        assert!(pool.run(reporting(&done, 2)));
        assert_eq!(next(&ran), 2);
        eventually("the second thread parks", || pool.parked() == 1);
        // ... which is the one reused now, the first still being busy.
        assert!(!pool.run(reporting(&done, 3)));
        assert_eq!(next(&ran), 3);
        open.send(()).unwrap();
        assert_eq!(next(&ran), 1);
        eventually("both park", || pool.parked() == 2);
        assert_eq!(pool.spawned(), 2);
    }

    #[test]
    fn idle_threads_are_capped() {
        let pool = pool();
        let (done, ran) = channel();
        let storm = MAX_IDLE_THREADS + 4;
        let gates: Vec<_> = (0..storm)
            .map(|i| {
                let (job, open) = gated(&done, i as u32);
                assert!(pool.run(job), "all earlier ones are blocked: a new thread");
                open
            })
            .collect();
        assert_eq!(live(&pool), storm);
        for open in gates {
            open.send(()).unwrap();
        }
        for _ in 0..storm {
            next(&ran);
        }
        eventually("the surplus exits, the rest park", || {
            live(&pool) == MAX_IDLE_THREADS && pool.parked() == MAX_IDLE_THREADS
        });
        // The parked ones serve what comes next; nothing is created.
        assert!(!pool.run(reporting(&done, 99)));
        assert_eq!(next(&ran), 99);
        assert_eq!(pool.spawned(), storm as u64);
    }

    #[test]
    fn a_job_handed_to_a_vanished_thread_still_runs() {
        let (done, ran) = channel();
        // A listed thread that is gone: its receiver with it.
        let vanished = || sync_channel::<HandOff>(1).0;

        // Nobody else idle: the job comes back and gets a new thread.
        let pool = pool();
        pool.idle.lock().push(vanished());
        assert!(pool.run(reporting(&done, 1)));
        assert_eq!(next(&ran), 1);
        eventually("the new thread parks", || pool.parked() == 1);

        // A live one listed below two dead ones: the job reaches it.
        pool.idle.lock().extend([vanished(), vanished()]);
        assert!(!pool.run(reporting(&done, 2)));
        assert_eq!(next(&ran), 2);
        eventually("it parks again, the dead are unlisted", || {
            pool.parked() == 1
        });
        assert_eq!(pool.spawned(), 1);
    }

    #[test]
    fn a_panicking_job_does_not_wedge_the_pool() {
        let pool = pool();
        let (done, ran) = channel();
        assert!(pool.run(reporting(&done, 1)));
        assert_eq!(next(&ran), 1);
        eventually("the thread parks", || pool.parked() == 1);
        // The parked thread takes the panicking job and dies with it,
        // unlisted: the next job gets a new thread and runs.
        assert!(!pool.run(|| panic!("a job panics")));
        eventually("the panicked thread is gone", || live(&pool) == 0);
        assert!(pool.run(reporting(&done, 2)));
        assert_eq!(next(&ran), 2);
        eventually("the new thread parks", || pool.parked() == 1);
        assert!(!pool.run(reporting(&done, 3)));
        assert_eq!(next(&ran), 3);
        assert_eq!(pool.spawned(), 2);
    }

    #[test]
    fn dropping_the_pool_ends_parked_threads_now_and_busy_ones_after_their_job() {
        use std::cell::RefCell;
        use std::sync::mpsc::{RecvTimeoutError, TryRecvError};
        thread_local! {
            /// Dropped when the thread ends: its receiver disconnects.
            static ALIVE: RefCell<Option<Sender<()>>> = const { RefCell::new(None) };
        }
        // Wrap `job` so that its thread's end can be observed.
        let watched = |job: Job| -> (Job, Receiver<()>) {
            let (alive, ended) = channel();
            let job: Job = Box::new(move || {
                ALIVE.with(|slot| *slot.borrow_mut() = Some(alive));
                job();
            });
            (job, ended)
        };
        let gone = |ended: &Receiver<()>| {
            ended.recv_timeout(Duration::from_secs(5)) == Err(RecvTimeoutError::Disconnected)
        };

        let pool = pool();
        let (done, ran) = channel();
        let (blocked, open) = gated(&done, 1);
        let (blocked, busy_ended) = watched(blocked);
        let (quick, parked_ended) = watched(reporting(&done, 2));
        pool.run(blocked);
        pool.run(quick);
        assert_eq!(next(&ran), 2);
        eventually("the second thread parks", || pool.parked() == 1);

        drop(pool);
        assert!(gone(&parked_ended), "a parked thread outlived the pool");
        assert_eq!(busy_ended.try_recv(), Err(TryRecvError::Empty));
        open.send(()).unwrap();
        assert_eq!(next(&ran), 1);
        assert!(gone(&busy_ended), "a thread parked on a dropped pool");
    }
}
