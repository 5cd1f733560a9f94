//! Internal, non-poisoning wrappers over `std::sync` for the kernel's own
//! state.
//!
//! The kernel cannot use the `parking_lot` shim: that shim is instrumented
//! and *virtualized* — contended operations are routed back into the kernel
//! (see [`crate::vlock`]) so schedule exploration can interleave and observe
//! them. The kernel's state lock, each waiter's `sync` and `held` locks and
//! other bookkeeping must stay ordinary OS-level primitives, invisible to
//! the scheduler and the lock-order recorder, or every hook would recurse
//! into itself. (A blocked thread itself parks with `std::thread::park`.)

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// Non-poisoning `std::sync::Mutex`, kernel-internal.
pub(crate) struct RawMutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> RawMutex<T> {
    pub(crate) const fn new(value: T) -> RawMutex<T> {
        RawMutex {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> RawMutex<T> {
    pub(crate) fn lock(&self) -> RawMutexGuard<'_, T> {
        RawMutexGuard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }
}

/// RAII guard returned by [`RawMutex::lock`].
pub(crate) struct RawMutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for RawMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RawMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}
