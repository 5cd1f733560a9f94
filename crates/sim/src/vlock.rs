//! Shim locks under the kernel.
//!
//! This module is the kernel side of the `parking_lot` shim's
//! [`hooks`](parking_lot::hooks). The kernel runs one simulated task at a
//! time, so a simulated task can find a shim lock held only when its holder
//! yielded (slept, waited or awaited) while holding it, or when it asks
//! again for a lock it holds itself. Nothing handles that: the task that
//! finds the lock held panics, naming the lock kind and itself, where
//! blocking would wedge the simulation (the holder cannot run again until
//! the blocked task yields). A thread outside the simulation blocks for
//! real.
//!
//! An acquisition by a simulated task counts in
//! [`KernelStats::lock_acquisitions`](crate::KernelStats::lock_acquisitions).
//! While an exploring scheduler is installed, the acquisition and its
//! release also put the lock into the running segment's footprint, so two
//! segments that share state only through a shim lock do not count as
//! independent (see [`Choice::segment`](crate::Choice::segment)).

use parking_lot::hooks::{self, LockOp, SimHooks};

use crate::kernel::try_with_current;

struct KernelHooks;

impl SimHooks for KernelHooks {
    fn lock_acquired(&self, addr: usize) -> bool {
        try_with_current(|k, _| k.lock_acquired(addr)).unwrap_or(false)
    }

    fn lock_released(&self, addr: usize) {
        try_with_current(|k, _| k.touch_lock(addr));
    }

    fn lock_held(&self, op: LockOp) {
        let Some(task) = try_with_current(|_, w| w.name().to_string()) else {
            return;
        };
        let (kind, at) = match op {
            LockOp::Mutex => ("mutex", "mutex.lock"),
            LockOp::RwRead => ("rwlock", "rwlock.read"),
            LockOp::RwWrite => ("rwlock", "rwlock.write"),
        };
        panic!(
            "shim lock held across a yield: task `{task}` found a {kind} held ({at}) \
             by a task suspended without releasing it, or by itself"
        );
    }
}

/// Installs the kernel hooks into the shim, once per process.
pub(crate) fn install() {
    static HOOKS: KernelHooks = KernelHooks;
    hooks::install(&HOOKS);
}
