//! One-shot events (virtual-time latches).

use std::fmt;
use std::sync::Arc;

use crate::kernel::{
    current_waiter, deny_blocking_in_light_step, Kernel, Label, Resource, State, Waiter,
};
use crate::rawlock::RawMutex;

#[derive(Default)]
struct EventState {
    fired: bool,
    waiters: Vec<Arc<Waiter>>,
}

struct EventInner {
    kernel: Kernel,
    /// Wait-for-graph resource this event's waits are attributed to.
    res: Resource,
    /// Whether the event made `res` itself (and a fire discharges the
    /// firer's hold of it) or borrows a caller-provided resource.
    owns_res: bool,
    state: RawMutex<EventState>,
}

/// A one-shot event: threads [`wait`](Event::wait) until some other thread
/// [`fire`](Event::fire)s it. Firing is idempotent. Cheap to clone.
///
/// # Examples
///
/// ```
/// use rustwren_sim::{Kernel, sync::Event};
/// use std::time::Duration;
///
/// let kernel = Kernel::new();
/// kernel.clone().run("client", move || {
///     let ev = Event::new(&rustwren_sim::kernel());
///     let ev2 = ev.clone();
///     rustwren_sim::spawn("firer", move || {
///         rustwren_sim::sleep(Duration::from_secs(2));
///         ev2.fire();
///     });
///     ev.wait();
///     assert_eq!(rustwren_sim::now().as_secs_f64(), 2.0);
/// });
/// ```
#[derive(Clone)]
pub struct Event {
    inner: Arc<EventInner>,
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Event")
            .field("fired", &self.is_fired())
            .finish()
    }
}

impl Event {
    /// Creates an unfired event on `kernel`, labelled `event#N` in deadlock
    /// diagnostics.
    pub fn new(kernel: &Kernel) -> Event {
        Event::named(kernel, Label::Generated)
    }

    /// Creates an unfired event whose deadlock diagnostics carry `label`
    /// (e.g. the name of the activation the event stands for). The label is
    /// kept as given and rendered only when a report reads it.
    pub fn named(kernel: &Kernel, label: impl Into<Label>) -> Event {
        Event::with(kernel, kernel.create_resource("event", label), true)
    }

    /// Creates an unfired event whose waits are attributed to an existing
    /// diagnostic resource `res` (e.g. a platform-wide capacity pool) rather
    /// than a fresh one. The event borrows `res`: firing drops no hold of it.
    pub fn for_resource(kernel: &Kernel, res: &Resource) -> Event {
        Event::with(kernel, res.clone(), false)
    }

    fn with(kernel: &Kernel, res: Resource, owns_res: bool) -> Event {
        Event {
            inner: Arc::new(EventInner {
                kernel: kernel.clone(),
                res,
                owns_res,
                state: RawMutex::new(EventState::default()),
            }),
        }
    }

    /// Records the current thread as the holder of this event — the thread
    /// expected to fire it — so deadlock reports can draw the waiter→holder
    /// edge. Purely diagnostic; a no-op on unregistered threads.
    ///
    /// The hold lives on the marking thread, and only that thread's own
    /// [`fire`](Event::fire) drops it. Every marker in this workspace fires
    /// its own event (a spawned thread's join, a `fan_out` lane, an
    /// activation's completion). A hold left by a marker whose event
    /// someone else fired is inert — nothing can block on a fired event —
    /// and goes with its thread.
    pub fn mark_holder(&self) {
        self.inner.kernel.hold_resource(&self.inner.res);
    }

    /// Fires the event, waking all current and future waiters (in arrival
    /// order). Idempotent. Drops the firing thread's own hold of an event
    /// it [marked](Event::mark_holder).
    pub fn fire(&self) {
        let kernel = &self.inner.kernel;
        kernel.preemption_point("event.fire");
        if self.inner.owns_res {
            // The obligation this event stood for is discharged.
            kernel.release_resource(&self.inner.res);
        }
        let mut st = kernel.lock_state();
        let waiters = {
            let mut ev = self.inner.state.lock();
            if ev.fired {
                return;
            }
            ev.fired = true;
            std::mem::take(&mut ev.waiters)
        };
        // The fire belongs to the firing thread's running segment.
        kernel.with_own_waiter(|_| st.touch(self.inner.res.id));
        for w in &waiters {
            Kernel::wake_locked(&mut st, w);
        }
    }

    /// Whether the event has fired.
    pub fn is_fired(&self) -> bool {
        self.inner.state.lock().fired
    }

    /// Blocks the current simulated thread until the event fires.
    ///
    /// Returns immediately if already fired.
    ///
    /// # Panics
    ///
    /// Panics if the calling thread is not registered with this kernel, or
    /// is polling a lightweight task (which waits by returning
    /// [`LightStep::Wait`](crate::LightStep::Wait) instead).
    pub fn wait(&self) {
        deny_blocking_in_light_step("event.wait");
        let waiter = current_waiter(&self.inner.kernel, "Event::wait");
        self.inner.kernel.preemption_point("event.wait");
        loop {
            let Some(res) = self.enlist_locked(&mut self.inner.kernel.lock_state(), &waiter) else {
                return;
            };
            self.inner.kernel.block_current(Some(res), "event.wait");
        }
    }

    /// The registration half of a wait, shared by [`wait`](Event::wait) and
    /// the dispatch loop's handling of `LightStep::Wait`. With the kernel
    /// state lock held (kernel lock first, then the event's own — the same
    /// order as `fire`): a fired event joins the running segment's
    /// footprint and returns `None`; otherwise `waiter` joins the waiter
    /// list (once) and the resource to block on is returned.
    pub(crate) fn enlist_locked(&self, st: &mut State, waiter: &Arc<Waiter>) -> Option<Resource> {
        let mut ev = self.inner.state.lock();
        if ev.fired {
            st.touch(self.inner.res.id);
            return None;
        }
        if !ev.waiters.iter().any(|w| w.id() == waiter.id()) {
            ev.waiters.push(Arc::clone(waiter));
        }
        drop(ev);
        let res = self.inner.res.clone();
        st.touch(res.id);
        Some(res)
    }

    /// Whether this event lives on `kernel`.
    pub(crate) fn is_on(&self, kernel: &Kernel) -> bool {
        self.inner.kernel.same_as(kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn wait_after_fire_returns_immediately() {
        let k = Kernel::new();
        k.run("client", || {
            let ev = Event::new(&crate::kernel());
            ev.fire();
            ev.wait();
            assert_eq!(crate::now().as_nanos(), 0);
        });
    }

    #[test]
    fn fire_is_idempotent() {
        let k = Kernel::new();
        k.run("client", || {
            let ev = Event::new(&crate::kernel());
            ev.fire();
            ev.fire();
            assert!(ev.is_fired());
        });
    }

    #[test]
    fn multiple_waiters_all_wake() {
        let k = Kernel::new();
        k.run("client", || {
            let ev = Event::new(&crate::kernel());
            let handles: Vec<_> = (0..20)
                .map(|i| {
                    let ev = ev.clone();
                    crate::spawn(format!("w{i}"), move || {
                        ev.wait();
                        crate::now()
                    })
                })
                .collect();
            crate::sleep(Duration::from_secs(3));
            ev.fire();
            for h in handles {
                assert_eq!(h.join().as_secs_f64(), 3.0);
            }
        });
    }

    #[test]
    fn waiters_block_in_virtual_time_not_wall_time() {
        let k = Kernel::new();
        let wall = std::time::Instant::now();
        k.run("client", || {
            let ev = Event::new(&crate::kernel());
            let ev2 = ev.clone();
            let h = crate::spawn("firer", move || {
                crate::sleep(Duration::from_secs(86_400));
                ev2.fire();
            });
            ev.wait();
            h.join();
        });
        assert!(wall.elapsed() < Duration::from_secs(5));
    }
}
