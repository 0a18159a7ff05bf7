//! Poison-free lock wrappers over `std::sync`.
//!
//! The workspace builds in a sealed environment with no external crates, so
//! the `parking_lot` primitives the live middleware originally used are
//! provided here as thin wrappers over `std::sync`. Two differences from the
//! raw std API matter to callers:
//!
//! * `lock()` / `read()` / `write()` return the guard directly instead of a
//!   `Result`. A poisoned lock is *recovered*, not propagated: the scheduler
//!   state is guarded by invariants (`Scheduler::check_invariants`), not by
//!   poisoning, and a panicking workload thread must not wedge the
//!   middleware for every other container.
//! * [`Condvar::wait`] takes `&mut MutexGuard` (parking_lot style) so wait
//!   loops read `while *guard == x { cv.wait(&mut guard) }`.
//!
//! clippy.toml bans the std `lock` / `try_lock` / `read` / `write` /
//! `try_read` / `try_write` methods everywhere else, tests included, so
//! every lock in the workspace goes through this module.

#![allow(
    clippy::disallowed_methods,
    reason = "the poison-recovering wrappers are the one caller of the std lock methods"
)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, TryLockError};

/// A mutual-exclusion lock whose `lock()` never returns `Err`.
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// RAII guard returned by [`Mutex::lock`].
///
/// Wraps the std guard in an `Option` so [`Condvar::wait`] can hand the
/// guard to std's by-value `wait` through a `&mut` borrow; the slot is
/// always refilled before `wait` returns, so deref never observes `None`.
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

impl<T> Mutex<T> {
    /// Create a new mutex guarding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, recovering from poison.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let g = self.0.lock().unwrap_or_else(|e| e.into_inner());
        MutexGuard { inner: Some(g) }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(TryLockError::Poisoned(e)) => Some(MutexGuard {
                inner: Some(e.into_inner()),
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
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

/// A reader-writer lock whose `read()`/`write()` never return `Err`.
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

/// Shared-access guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
/// Exclusive-access guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Create a new reader-writer lock guarding `value`.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared access, recovering from poison.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire exclusive access, recovering from poison.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
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
    fn rwlock_roundtrip() {
        let l = RwLock::new(vec![1, 2]);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
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
}
