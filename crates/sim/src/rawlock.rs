//! Internal, non-poisoning wrappers over `std::sync` for the kernel's own
//! state.
//!
//! The kernel cannot use the `parking_lot` shim: that shim reports to the
//! kernel (see [`crate::vlock`]), counting every acquisition by a simulated
//! thread and refusing one that finds its lock held. The kernel's state
//! lock, each waiter's `sync` and `held` locks and other bookkeeping must
//! stay ordinary OS-level primitives, invisible to the hooks: the dispatch
//! loop takes them while another thread holds them for a moment, and they
//! would count in `lock_acquisitions`. (A blocked thread itself parks with
//! `std::thread::park`.)

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
