//! Poison-free lock wrappers over `std::sync`, with a lock-order check in
//! debug builds.
//!
//! The workspace builds in a sealed environment with no external crates, so
//! the `parking_lot` primitives the live middleware originally used are
//! provided here as thin wrappers over `std::sync`. Two differences from the
//! raw std API matter to callers:
//!
//! * `lock()` returns the guard directly instead of a `Result`. A poisoned
//!   lock is *recovered*, not propagated: the scheduler state is guarded by
//!   invariants (`Scheduler::check_invariants`), not by poisoning, and a
//!   panicking workload thread must not wedge the middleware for every
//!   other container.
//! * [`Condvar::wait`] takes `&mut MutexGuard` (parking_lot style) so wait
//!   loops read `while *guard == x { cv.wait(&mut guard) }`.
//!
//! clippy.toml bans the std `lock` / `try_lock` / `read` / `write` /
//! `try_read` / `try_write` methods everywhere else, tests included, so
//! every lock in the workspace goes through this module.
//!
//! # Lock order (debug builds only)
//!
//! Two rules keep the daemon live: no two locks are ever taken in both
//! orders, and no socket is written while a lock is held (a peer that stops
//! reading must never wedge a scheduler lock). With `debug_assertions` on,
//! this module checks both on every lock the running code takes, in the
//! style of Linux lockdep:
//!
//! * A lock's **class** is the source location of its `Mutex::new` (or
//!   `Default::default`) call, so every mutex built at one site is one
//!   class.
//! * Each thread lists the guards it holds. A blocking [`Mutex::lock`]
//!   adds an edge from every held class to the new one, in one graph for
//!   the whole process, after checking that the new class does not already
//!   reach the held one: if it does, the two orders form a cycle. A
//!   successful [`Mutex::try_lock`] cannot deadlock and adds no edge; nor
//!   does a lock nested inside its own class.
//! * [`assert_unguarded_write`] — called by the socket's `Write` impl —
//!   fails if the thread holds any guard except the one whose data is the
//!   stream being written (`Reply::send` writes through the stream's own
//!   mutex).
//!
//! A violation prints the classes and acquisition sites involved plus a
//! backtrace to stderr, then aborts: a panic on a server connection thread
//! would be swallowed and leave its peer hanging. Release builds compile
//! none of this.

#![allow(
    clippy::disallowed_methods,
    reason = "the poison-recovering wrappers are the one caller of the std lock methods"
)]

use std::fmt;
use std::ops::{Deref, DerefMut};
#[cfg(debug_assertions)]
use std::panic::Location;
use std::sync::{self, TryLockError};

/// A mutual-exclusion lock whose `lock()` never returns `Err`.
pub struct Mutex<T: ?Sized>(Inner<T>);

/// Release builds hold the bare std mutex, so the check compiles away;
/// debug builds pair it with its class.
#[cfg(not(debug_assertions))]
type Inner<T> = sync::Mutex<T>;
#[cfg(debug_assertions)]
type Inner<T> = lockdep::Classed<T>;

/// RAII guard returned by [`Mutex::lock`].
///
/// Wraps the std guard in an `Option` so [`Condvar::wait`] can hand the
/// guard to std's by-value `wait` through a `&mut` borrow; the slot is
/// always refilled before `wait` returns, so deref never observes `None`.
/// A waiting guard stays on its thread's held list.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard is always present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard is always present")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(g) = &self.inner {
            lockdep::released(lockdep::addr(&**g));
        }
    }
}

impl<T> Mutex<T> {
    /// Create a new mutex guarding `value`.
    #[cfg_attr(debug_assertions, track_caller)]
    pub const fn new(value: T) -> Self {
        Mutex(Inner::new(value))
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, recovering from poison.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        lockdep::before_lock(self.0.class, Location::caller());
        let g = self.0.lock().unwrap_or_else(|e| e.into_inner());
        #[cfg(debug_assertions)]
        lockdep::acquired(self.0.class, lockdep::addr(&*g), Location::caller());
        MutexGuard { inner: Some(g) }
    }

    /// Try to acquire the lock without blocking.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.0.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(TryLockError::Poisoned(e)) => Some(MutexGuard {
                inner: Some(e.into_inner()),
            }),
            Err(TryLockError::WouldBlock) => None,
        };
        #[cfg(debug_assertions)]
        if let Some(g) = &guard {
            lockdep::acquired(self.0.class, lockdep::addr(&**g), Location::caller());
        }
        guard
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    #[cfg_attr(debug_assertions, track_caller)]
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// Abort unless every guard the calling thread holds guards `stream`
/// itself: a socket write may hold only its own stream's mutex.
#[cfg(debug_assertions)]
pub fn assert_unguarded_write<T: ?Sized>(stream: &T) {
    lockdep::assert_only_held(lockdep::addr(stream));
}

/// The debug-build lock graph (module docs, "Lock order").
#[cfg(debug_assertions)]
mod lockdep {
    use std::cell::RefCell;
    use std::collections::{BTreeMap, VecDeque};
    use std::fmt::Write as _;
    use std::io::Write as _;
    use std::ops::{Deref, DerefMut};
    use std::panic::Location;
    use std::sync;

    type Site = &'static Location<'static>;

    /// A std mutex and its class: where it was built.
    pub(super) struct Classed<T: ?Sized> {
        pub(super) class: Site,
        mutex: sync::Mutex<T>,
    }

    impl<T> Classed<T> {
        #[track_caller]
        pub(super) const fn new(value: T) -> Self {
            Classed {
                class: Location::caller(),
                mutex: sync::Mutex::new(value),
            }
        }

        pub(super) fn into_inner(self) -> sync::LockResult<T> {
            self.mutex.into_inner()
        }
    }

    impl<T: ?Sized> Deref for Classed<T> {
        type Target = sync::Mutex<T>;
        fn deref(&self) -> &sync::Mutex<T> {
            &self.mutex
        }
    }

    impl<T: ?Sized> DerefMut for Classed<T> {
        fn deref_mut(&mut self) -> &mut sync::Mutex<T> {
            &mut self.mutex
        }
    }

    /// One guard a thread holds.
    struct Held {
        class: Site,
        addr: usize,
        taken_at: Site,
    }

    /// Where an edge was first seen: the `from` lock's acquisition site,
    /// then the `to` lock's.
    type Witness = (Site, Site);

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    /// Class → the classes taken while holding it.
    type Graph = BTreeMap<Site, BTreeMap<Site, Witness>>;

    static GRAPH: sync::Mutex<Graph> = sync::Mutex::new(BTreeMap::new());

    pub(super) fn addr<T: ?Sized>(data: &T) -> usize {
        std::ptr::from_ref(data).cast::<()>().addr()
    }

    /// Record (and check) the edges a blocking lock of `class` adds.
    pub(super) fn before_lock(class: Site, taken_at: Site) {
        let _ = HELD.try_with(|held| {
            let held = held.borrow();
            if held.iter().all(|h| h.class == class) {
                return;
            }
            let mut graph = GRAPH.lock().unwrap_or_else(|e| e.into_inner());
            for h in held.iter().filter(|h| h.class != class) {
                if graph.get(h.class).is_some_and(|to| to.contains_key(class)) {
                    continue;
                }
                if let Some(path) = path(&graph, class, h.class) {
                    let mut report = format!(
                        "lock-order cycle: taking {} at {taken_at} while holding {} \
                         (taken at {}), but an earlier path took them the other way:\n",
                        name(class),
                        name(h.class),
                        h.taken_at,
                    );
                    for (from, to, (from_at, to_at)) in path {
                        let _ = writeln!(
                            report,
                            "  {} held since {from_at}, then {} taken at {to_at}",
                            name(from),
                            name(to),
                        );
                    }
                    fail(report);
                }
                graph
                    .entry(h.class)
                    .or_default()
                    .insert(class, (h.taken_at, taken_at));
            }
        });
    }

    pub(super) fn acquired(class: Site, addr: usize, taken_at: Site) {
        let held = Held {
            class,
            addr,
            taken_at,
        };
        let _ = HELD.try_with(|list| list.borrow_mut().push(held));
    }

    pub(super) fn released(addr: usize) {
        let _ = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            if let Some(i) = held.iter().rposition(|h| h.addr == addr) {
                held.remove(i);
            }
        });
    }

    pub(super) fn assert_only_held(stream: usize) {
        let _ = HELD.try_with(|held| {
            let held = held.borrow();
            let others: Vec<&Held> = held.iter().filter(|h| h.addr != stream).collect();
            if others.is_empty() {
                return;
            }
            let mut report = String::from("socket write while holding a lock:\n");
            for h in others {
                let _ = writeln!(report, "  {} taken at {}", name(h.class), h.taken_at);
            }
            fail(report);
        });
    }

    fn name(class: Site) -> String {
        format!("the lock built at {class}")
    }

    /// The edges of a shortest path `from` → `to`, if there is one.
    fn path(graph: &Graph, from: Site, to: Site) -> Option<Vec<(Site, Site, Witness)>> {
        let mut parent = BTreeMap::from([(from, from)]);
        let mut queue = VecDeque::from([from]);
        while let Some(at) = queue.pop_front() {
            if at == to {
                let mut edges = Vec::new();
                let mut cur = to;
                while cur != from {
                    let prev = parent[cur];
                    edges.push((prev, cur, graph[prev][cur]));
                    cur = prev;
                }
                edges.reverse();
                return Some(edges);
            }
            for &next in graph.get(at).into_iter().flat_map(BTreeMap::keys) {
                if !parent.contains_key(next) {
                    parent.insert(next, at);
                    queue.push_back(next);
                }
            }
        }
        None
    }

    /// Print the report and a backtrace, then abort. Written straight to
    /// stderr, past the test harness' output capture.
    fn fail(report: String) -> ! {
        let bt = std::backtrace::Backtrace::force_capture();
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err, "\n{report}backtrace:\n{bt}");
        let _ = err.flush();
        std::process::abort();
    }
}

/// Condition variable paired with [`Mutex`]; `wait` re-binds the guard in
/// place so call sites keep the familiar `cv.wait(&mut guard)` shape.
#[derive(Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Block until notified, releasing `guard` while parked.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard is always present");
        let g = self.0.wait(g).unwrap_or_else(|e| e.into_inner());
        guard.inner = Some(g);
    }

    /// Block until notified or `timeout` elapses. Returns `true` if the
    /// wait timed out.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: std::time::Duration) -> bool {
        let g = guard.inner.take().expect("guard is always present");
        let (g, res) = match self.0.wait_timeout(g, timeout) {
            Ok(pair) => pair,
            Err(e) => e.into_inner(),
        };
        guard.inner = Some(g);
        res.timed_out()
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn mutex_recovers_from_poison() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn try_lock_contended_returns_none() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        });
        thread::sleep(Duration::from_millis(10));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        waiter.join().expect("waiter thread");
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn class_is_the_construction_site() {
        let (m, line) = (Mutex::new(0), line!());
        assert_eq!((m.0.class.file(), m.0.class.line()), (file!(), line));
        let d: Mutex<u8> = Mutex::default();
        assert_eq!(d.0.class.line(), line + 2);
    }

    // The shapes the check must let through; a false cycle aborts this
    // test binary. The aborting shapes are in tests/lock_order.rs.
    #[test]
    fn try_lock_and_same_class_nesting_add_no_edge() {
        let (a, b) = (Mutex::new(0), Mutex::new(0));
        {
            let _a = a.lock();
            let _b = b.try_lock().expect("uncontended");
        }
        {
            let _b = b.lock();
            let _a = a.lock();
        }

        let same: Vec<Mutex<u8>> = (0..2).map(|_| Mutex::new(0)).collect();
        {
            let _first = same[0].lock();
            let _second = same[1].lock();
        }
        let _second = same[1].lock();
        let _first = same[0].lock();
    }
}
