//! Virtualized shim locks.
//!
//! This module is the kernel side of the `parking_lot` shim's
//! [`hooks`](parking_lot::hooks): it turns lock operations performed by
//! *simulated* threads into kernel-visible events — but only when someone
//! needs to see them.
//!
//! * **An uncontended lock costs the kernel nothing.** An acquisition
//!   pushes a hold onto the acquiring thread's own list and a release pops
//!   it, through the borrowed thread context (no clone, no registry, no
//!   state lock). The kernel state is entered only while a thread is parked
//!   on some shim lock, or while an exploring scheduler or the lock-order
//!   recorder observes every lock operation; a lock gets its kernel entry
//!   (wait queue, wait-for-graph resource, registry slot) at its first park,
//!   or on first touch in those two modes.
//! * **Contended acquisitions block in virtual time.** A simulated thread
//!   that fails a try-lock parks in the kernel (with a wait-for-graph
//!   resource, so deadlock reports name the lock and, read off the blocked
//!   threads' holds, its holders) and retries when a release wakes it.
//!   Without this, a thread that blocks *virtually* while holding a std
//!   mutex would wedge every other simulated thread that touches the lock
//!   at the OS level — an undiagnosable hang instead of a clean simulation
//!   deadlock.
//! * **Every acquisition/release feeds the lock-order recorder** (when
//!   enabled) and counts toward the exploring scheduler's segment
//!   footprints.
//!
//! Operations from threads that are not simulated fall back to plain std
//! behavior inside the shim and are invisible here. Sharing a shim lock
//! between simulated and non-simulated threads is not supported while the
//! simulated side contends (the release would not know which kernel to
//! wake); nothing in this workspace does that.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex as StdMutex, OnceLock, PoisonError};

use parking_lot::hooks::{self, LockOp, SimHooks};

use crate::kernel::{try_kernel, try_with_current, Kernel, WeakKernel};

/// Process-wide map from lock address to the kernels that track it,
/// so a `Drop` on *any* thread (simulated or not) can clear the tracking
/// state before the address is reused. Never held together with a kernel
/// state lock.
fn registry() -> &'static StdMutex<HashMap<usize, Vec<WeakKernel>>> {
    static REGISTRY: OnceLock<StdMutex<HashMap<usize, Vec<WeakKernel>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| StdMutex::new(HashMap::new()))
}

/// The registry's length, so a drop can skip the registry while it tracks
/// nothing. Stored only under the registry lock. `Relaxed` is enough: a
/// drop runs after whatever handed the dropped object over, which orders
/// it after any `track_addr` of that object.
static TRACKED: AtomicUsize = AtomicUsize::new(0);

pub(crate) fn track_addr(addr: usize, kernel: &Kernel) {
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    let kernels = reg.entry(addr).or_default();
    if !kernels.iter().any(|w| w.is(kernel)) {
        kernels.push(kernel.downgrade());
    }
    TRACKED.store(reg.len(), Ordering::Relaxed);
}

fn untrack_addr(addr: usize) -> Vec<Kernel> {
    if TRACKED.load(Ordering::Relaxed) == 0 {
        return Vec::new();
    }
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    let kernels = reg.remove(&addr).unwrap_or_default();
    TRACKED.store(reg.len(), Ordering::Relaxed);
    kernels.iter().filter_map(WeakKernel::upgrade).collect()
}

struct KernelHooks;

impl SimHooks for KernelHooks {
    fn preemption(&self, op: &'static str) {
        // The probe may yield, and the thread context must not stay
        // borrowed across a yield: clone the kernel, only when exploring.
        if let Some(k) = try_with_current(|k, _| k.is_exploring().then(|| k.clone())).flatten() {
            k.preemption_point(op);
        }
    }

    fn block_for_lock(&self, addr: usize, op: LockOp) -> bool {
        match try_kernel() {
            Some(k) => k.vlock_block(addr, op),
            None => false,
        }
    }

    fn lock_acquired(&self, addr: usize, op: LockOp) {
        try_with_current(|k, w| k.vlock_acquired(addr, op, w));
    }

    fn lock_released(&self, addr: usize, op: LockOp) {
        try_with_current(|k, w| k.vlock_released(addr, op, w));
    }

    fn lock_destroyed(&self, addr: usize) {
        for k in untrack_addr(addr) {
            k.vlock_destroyed(addr);
        }
    }
}

/// Installs the kernel hooks into the shim, once per process.
pub(crate) fn install() {
    static HOOKS: KernelHooks = KernelHooks;
    hooks::install(&HOOKS);
}
