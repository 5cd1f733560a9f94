//! Simulation hooks.
//!
//! The `rustwren` simulator installs a [`SimHooks`] implementation at kernel
//! start-up. Once installed, every acquisition in this shim is counted (and,
//! while the simulator explores schedules, it and the matching release are
//! reported with the lock's address), and a lock found held is reported
//! before the caller blocks on it. The simulator runs one simulated task at
//! a time, so a simulated task finds a lock held only when the holder
//! yielded while holding it, or is the task itself: the hooks panic then,
//! naming the lock kind and the task, where a real blocking acquire would
//! wedge the process (the holder cannot run again until the blocked task
//! yields).
//!
//! Without hooks installed (or on threads the hooks do not recognize as
//! simulated), every operation falls back to plain `std::sync` behavior.

use std::sync::OnceLock;

/// The flavor of a lock operation being reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockOp {
    /// `Mutex` exclusive acquisition.
    Mutex,
    /// `RwLock` shared acquisition.
    RwRead,
    /// `RwLock` exclusive acquisition.
    RwWrite,
}

/// Callbacks from the shim into the simulator.
///
/// `addr` is the address of the lock object: an identity while it lives.
pub trait SimHooks: Sync {
    /// The calling thread acquired the lock at `addr`. Returns whether the
    /// guard must report its release to
    /// [`lock_released`](SimHooks::lock_released).
    fn lock_acquired(&self, addr: usize) -> bool;

    /// The calling thread released the lock at `addr`, whose acquisition
    /// asked for the report.
    fn lock_released(&self, addr: usize);

    /// The calling thread found the lock it asks for with `op` held, and
    /// is about to block on it. Panics when the thread is a simulated
    /// task; returns on any other thread, which then blocks for real.
    fn lock_held(&self, op: LockOp);
}

static HOOKS: OnceLock<&'static dyn SimHooks> = OnceLock::new();

/// Installs the process-wide hooks. The first installation wins; later calls
/// are no-ops (the simulator installs one stateless router that dispatches
/// per-thread).
pub fn install(hooks: &'static dyn SimHooks) {
    let _ = HOOKS.set(hooks);
}

pub(crate) fn get() -> Option<&'static dyn SimHooks> {
    HOOKS.get().copied()
}
