//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to a crates.io mirror, so the
//! workspace vendors the tiny API subset it uses: [`Mutex`] and [`RwLock`]
//! with parking_lot's non-poisoning semantics, implemented over
//! `std::sync`. Poisoned std locks are recovered transparently (parking_lot
//! has no poisoning), which matches how the simulator treats panicking
//! activations: the supervising thread inspects shared state afterwards.
//!
//! Additionally, the shim reports to the simulator: when the `rustwren`
//! kernel installs [`hooks::SimHooks`], every acquisition is counted, and a
//! simulated task that finds a lock held panics instead of blocking (it
//! could only be held across a yield, and blocking there would wedge the
//! simulation). See the [`hooks`] module. Off the simulation everything
//! behaves exactly like `std::sync`.

#![warn(missing_docs)]

pub mod hooks;

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{PoisonError, TryLockError, TryLockResult};

use hooks::LockOp;

/// The guard of a try-acquire, `None` when the lock is held; a poisoned
/// lock is recovered.
fn recovered<G>(attempt: TryLockResult<G>) -> Option<G> {
    match attempt {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

fn addr_of<T: ?Sized>(x: &T) -> usize {
    std::ptr::from_ref(x).cast::<()>() as usize
}

/// Wraps `inner`, a guard of the lock at `addr`, reporting the acquisition
/// to the hooks (when installed).
fn reported<G>(h: Option<&'static dyn hooks::SimHooks>, addr: usize, inner: G) -> Guard<G> {
    let release = h.is_some_and(|h| h.lock_acquired(addr)).then_some(addr);
    Guard { inner, release }
}

/// Acquires the lock at `addr` with `try_acquire`, reporting the
/// acquisition; a lock found held is reported as `op` to the hooks (which
/// panic on a simulated task) and then taken with the blocking `acquire`.
fn acquired<G>(
    addr: usize,
    op: LockOp,
    try_acquire: impl FnOnce() -> TryLockResult<G>,
    acquire: impl FnOnce() -> G,
) -> Guard<G> {
    let h = hooks::get();
    let inner = match h {
        None => acquire(),
        Some(h) => recovered(try_acquire()).unwrap_or_else(|| {
            h.lock_held(op);
            acquire()
        }),
    };
    reported(h, addr, inner)
}

/// A `std::sync` guard that reports its release to the hooks when its
/// acquisition asked for it. Dereferences to the protected data.
pub struct Guard<G> {
    inner: G,
    /// The lock's address, when the release is reported.
    release: Option<usize>,
}

impl<G> Drop for Guard<G> {
    fn drop(&mut self) {
        if let Some(addr) = self.release {
            if let Some(h) = hooks::get() {
                h.lock_released(addr);
            }
        }
    }
}

impl<G: Deref> Deref for Guard<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.inner
    }
}

impl<G: DerefMut> DerefMut for Guard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.inner
    }
}

impl<G: fmt::Debug> fmt::Debug for Guard<G> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.inner, f)
    }
}

/// A mutual-exclusion primitive; `lock()` never returns a poison error.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available. A simulated
    /// task that finds it held panics instead.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        acquired(
            addr_of(self),
            LockOp::Mutex,
            || self.inner.try_lock(),
            || self.inner.lock().unwrap_or_else(PoisonError::into_inner),
        )
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.inner, f)
    }
}

/// RAII guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = Guard<std::sync::MutexGuard<'a, T>>;

/// A reader-writer lock; `read()`/`write()` never return poison errors.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new lock holding `value`.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access. A simulated task that finds a writer
    /// holding the lock panics instead of blocking.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        acquired(
            addr_of(self),
            LockOp::RwRead,
            || self.inner.try_read(),
            || self.inner.read().unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Attempts to acquire shared read access without blocking. Returns
    /// `None` if a writer holds the lock.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let g = recovered(self.inner.try_read())?;
        Some(reported(hooks::get(), addr_of(self), g))
    }

    /// Acquires exclusive write access. A simulated task that finds the
    /// lock held panics instead of blocking.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        acquired(
            addr_of(self),
            LockOp::RwWrite,
            || self.inner.try_write(),
            || self.inner.write().unwrap_or_else(PoisonError::into_inner),
        )
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.inner, f)
    }
}

/// RAII guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = Guard<std::sync::RwLockReadGuard<'a, T>>;

/// RAII guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = Guard<std::sync::RwLockWriteGuard<'a, T>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_many_readers() {
        let l = RwLock::new(5);
        let r1 = l.read();
        let r2 = l.read();
        assert_eq!(*r1 + *r2, 10);
    }

    #[test]
    fn try_read_fails_cleanly_under_a_writer() {
        let l = RwLock::new(3);
        let r = l.try_read().expect("uncontended try_read wins");
        assert_eq!(*r, 3);
        drop(r);
        let w = l.write();
        assert!(l.try_read().is_none(), "writer blocks try_read");
        drop(w);
        assert!(l.try_read().is_some());
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 0);
    }
}
