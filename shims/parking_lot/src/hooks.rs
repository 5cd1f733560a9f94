//! Simulation hooks.
//!
//! The `rustwren` simulator installs a [`SimHooks`] implementation at kernel
//! start-up. Once installed, every `Mutex`/`RwLock` operation in this shim
//! reports to the hooks, and *blocking* operations on simulated
//! threads are **virtualized**: instead of parking the OS thread while the
//! simulated holder is itself virtually asleep (which would wedge the whole
//! process), the contended thread parks in the simulator's scheduler and is
//! retried when the lock is released. This is what lets the schedule
//! explorer interleave lock acquisitions and detect AB-BA deadlocks as
//! clean simulation deadlocks rather than OS hangs.
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
/// All `addr` values are the address of the lock object, valid as an
/// identity until the corresponding [`lock_destroyed`](SimHooks::lock_destroyed)
/// call.
pub trait SimHooks: Sync {
    /// A potential preemption point, called *before* the operation `op`.
    fn preemption(&self, op: &'static str);

    /// The calling thread failed a try-acquire on `addr`. Returns `true` if
    /// the thread is simulated and was virtually blocked until the lock may
    /// be available (the caller then retries); `false` to fall back to a
    /// real blocking acquire.
    fn block_for_lock(&self, addr: usize, op: LockOp) -> bool;

    /// The calling thread acquired `addr`.
    fn lock_acquired(&self, addr: usize, op: LockOp);

    /// The calling thread released `addr`.
    fn lock_released(&self, addr: usize, op: LockOp);

    /// The lock at `addr` was dropped.
    fn lock_destroyed(&self, addr: usize);
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
