//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to a crates.io mirror, so the
//! workspace vendors the tiny API subset it uses: [`Mutex`] and [`RwLock`]
//! with parking_lot's non-poisoning semantics, implemented over
//! `std::sync`. Poisoned std locks are recovered transparently (parking_lot
//! has no poisoning), which matches how the simulator treats panicking
//! activations: the supervising thread inspects shared state afterwards.
//!
//! Additionally, the shim is the simulator's **lock instrumentation point**:
//! when the `rustwren` kernel installs [`hooks::SimHooks`], operations on
//! simulated threads are reported (feeding lock-order analysis and schedule
//! exploration) and contended acquisitions are *virtualized* — parked in
//! the simulator instead of the OS — so an AB-BA mistake inside the system
//! under test surfaces as a diagnosable simulation deadlock, never an OS
//! hang. See the [`hooks`] module. Off the simulation everything behaves
//! exactly like `std::sync`.

#![warn(missing_docs)]

pub mod hooks;

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{PoisonError, TryLockError};

use hooks::LockOp;

fn addr_of<T: ?Sized>(x: &T) -> usize {
    std::ptr::from_ref(x).cast::<()>() as usize
}

fn lock_std<'a, T: ?Sized>(m: &'a std::sync::Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn try_lock_std<'a, T: ?Sized>(m: &'a std::sync::Mutex<T>) -> Option<std::sync::MutexGuard<'a, T>> {
    match m.try_lock() {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
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
    /// Acquires the mutex, blocking until it is available. On a simulated
    /// thread, contended acquisitions block in *virtual* time.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = |g| MutexGuard {
            lock: self,
            inner: Some(g),
        };
        let Some(h) = hooks::get() else {
            return guard(lock_std(&self.inner));
        };
        h.preemption("mutex.lock");
        let addr = addr_of(self);
        loop {
            if let Some(g) = try_lock_std(&self.inner) {
                h.lock_acquired(addr, LockOp::Mutex);
                return guard(g);
            }
            if !h.block_for_lock(addr, LockOp::Mutex) {
                // Not a simulated thread: a real blocking acquire is safe.
                let g = lock_std(&self.inner);
                h.lock_acquired(addr, LockOp::Mutex);
                return guard(g);
            }
        }
    }

    /// Attempts to acquire the mutex without blocking, in either real or
    /// virtual time. Returns `None` if it is held. This is the only safe
    /// acquisition inside a `spawn_light` poll, which runs on a borrowed
    /// stack and must never park.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let g = try_lock_std(&self.inner)?;
        if let Some(h) = hooks::get() {
            h.lock_acquired(addr_of(self), LockOp::Mutex);
        }
        Some(MutexGuard {
            lock: self,
            inner: Some(g),
        })
    }
}

impl<T: ?Sized> Drop for Mutex<T> {
    fn drop(&mut self) {
        if let Some(h) = hooks::get() {
            h.lock_destroyed(addr_of(self));
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.inner, f)
    }
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    /// Releases the std guard and reports it, in that order: waiters woken
    /// by the hooks retry `try_lock` and must be able to win.
    fn drop(&mut self) {
        if let Some(g) = self.inner.take() {
            drop(g);
            if let Some(h) = hooks::get() {
                h.lock_released(addr_of(self.lock), LockOp::Mutex);
            }
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

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
    /// Acquires shared read access; contended acquisitions on simulated
    /// threads block in virtual time.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let addr = addr_of(self);
        let Some(h) = hooks::get() else {
            return RwLockReadGuard {
                lock: self,
                inner: Some(self.inner.read().unwrap_or_else(PoisonError::into_inner)),
            };
        };
        h.preemption("rwlock.read");
        loop {
            match self.inner.try_read() {
                Ok(g) => {
                    h.lock_acquired(addr, LockOp::RwRead);
                    return RwLockReadGuard {
                        lock: self,
                        inner: Some(g),
                    };
                }
                Err(TryLockError::Poisoned(p)) => {
                    h.lock_acquired(addr, LockOp::RwRead);
                    return RwLockReadGuard {
                        lock: self,
                        inner: Some(p.into_inner()),
                    };
                }
                Err(TryLockError::WouldBlock) => {
                    if !h.block_for_lock(addr, LockOp::RwRead) {
                        let g = self.inner.read().unwrap_or_else(PoisonError::into_inner);
                        h.lock_acquired(addr, LockOp::RwRead);
                        return RwLockReadGuard {
                            lock: self,
                            inner: Some(g),
                        };
                    }
                }
            }
        }
    }

    /// Attempts to acquire shared read access without blocking, in either
    /// real or virtual time. Returns `None` if a writer holds the lock.
    /// Like [`Mutex::try_lock`], this is the only safe acquisition inside
    /// a `spawn_light` poll.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let g = match self.inner.try_read() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        if let Some(h) = hooks::get() {
            h.lock_acquired(addr_of(self), LockOp::RwRead);
        }
        Some(RwLockReadGuard {
            lock: self,
            inner: Some(g),
        })
    }

    /// Acquires exclusive write access; contended acquisitions on simulated
    /// threads block in virtual time.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let addr = addr_of(self);
        let Some(h) = hooks::get() else {
            return RwLockWriteGuard {
                lock: self,
                inner: Some(self.inner.write().unwrap_or_else(PoisonError::into_inner)),
            };
        };
        h.preemption("rwlock.write");
        loop {
            match self.inner.try_write() {
                Ok(g) => {
                    h.lock_acquired(addr, LockOp::RwWrite);
                    return RwLockWriteGuard {
                        lock: self,
                        inner: Some(g),
                    };
                }
                Err(TryLockError::Poisoned(p)) => {
                    h.lock_acquired(addr, LockOp::RwWrite);
                    return RwLockWriteGuard {
                        lock: self,
                        inner: Some(p.into_inner()),
                    };
                }
                Err(TryLockError::WouldBlock) => {
                    if !h.block_for_lock(addr, LockOp::RwWrite) {
                        let g = self.inner.write().unwrap_or_else(PoisonError::into_inner);
                        h.lock_acquired(addr, LockOp::RwWrite);
                        return RwLockWriteGuard {
                            lock: self,
                            inner: Some(g),
                        };
                    }
                }
            }
        }
    }
}

impl<T: ?Sized> Drop for RwLock<T> {
    fn drop(&mut self) {
        if let Some(h) = hooks::get() {
            h.lock_destroyed(addr_of(self));
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.inner, f)
    }
}

/// RAII guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(g) = self.inner.take() {
            drop(g);
            if let Some(h) = hooks::get() {
                h.lock_released(addr_of(self.lock), LockOp::RwRead);
            }
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// RAII guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(g) = self.inner.take() {
            drop(g);
            if let Some(h) = hooks::get() {
                h.lock_released(addr_of(self.lock), LockOp::RwWrite);
            }
        }
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

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
    fn try_lock_fails_cleanly_under_contention() {
        let m = Mutex::new(7);
        {
            let g = m.try_lock().expect("uncontended try_lock wins");
            assert_eq!(*g, 7);
            assert!(m.try_lock().is_none(), "held mutex must not re-lock");
        }
        assert!(m.try_lock().is_some(), "released mutex is available");
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
