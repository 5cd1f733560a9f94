//! Straight-line resumable code: `async` bodies on the two vehicles.
//!
//! A [`LightStep`] state machine can be written by hand, one `match` arm per
//! suspension point, or by the compiler: an `async` block that awaits
//! [`sleep`], [`wait`] and [`thread`] *is* such a machine. Each of those
//! three is a leaf future that, the first time it is polled, leaves the
//! `LightStep` it stands for with whoever polled it and returns `Pending`;
//! the poller parks on that step and polls again. No executor, no waker
//! (`Waker::noop()`: nothing here is woken, the kernel re-polls) and no
//! `unsafe` are involved.
//!
//! Two pollers drive the same code to the same virtual timeline:
//! [`light`] makes a future the poll function of a
//! [`Kernel::spawn_light`](crate::Kernel::spawn_light) task, and
//! [`block_on`] runs one to completion on the calling simulated thread,
//! blocking where the task would have parked — as a promoted task's thread
//! goes on polling it. [`resume`] is the single poll both are built
//! on. [`catch_unwind`] contains a panic — a refused blocking call and an
//! over-long sleep included — in the code it wraps, on either vehicle.
//!
//! ```
//! use rustwren_sim::{task, Kernel};
//! use std::time::Duration;
//!
//! async fn two_naps() -> u32 {
//!     task::sleep(Duration::from_secs(1)).await;
//!     task::sleep(Duration::from_secs(2)).await;
//!     7
//! }
//!
//! let kernel = Kernel::new();
//! kernel.clone().run("client", move || {
//!     // As a light task (no OS thread)…
//!     rustwren_sim::spawn_light("napper", task::light(async { two_naps().await; }));
//!     // …and, the same code, blocking on this thread.
//!     assert_eq!(task::block_on(two_naps()), 7);
//!     assert_eq!(rustwren_sim::now().as_secs_f64(), 3.0);
//! });
//! ```

use std::any::Any;
use std::cell::Cell;
use std::future::Future;
use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};
use std::pin::{pin, Pin};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use crate::kernel::{run_blocking, try_with_current, LightStep};
use crate::sync::Event;

thread_local! {
    /// What the leaf polled last on this OS thread asks to park on; taken
    /// by [`resume`] as soon as that poll returns.
    static REQUEST: Cell<Option<LightStep>> = const { Cell::new(None) };
}

/// The leaf future behind [`sleep`], [`wait`] and [`thread`]: pending
/// exactly once, to hand its step to the poller.
#[derive(Debug)]
#[must_use = "futures do nothing unless awaited"]
pub struct Suspend(Option<LightStep>);

impl Future for Suspend {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        // (Qualified: to rustwren-lint a `.take()` here is a call to every
        // method of that name, and every poll reaches this one.)
        match Option::take(&mut self.0) {
            Some(step) => {
                REQUEST.set(Some(step));
                Poll::Pending
            }
            None => Poll::Ready(()),
        }
    }
}

/// Suspends for `d` of virtual time ([`LightStep::Sleep`]); a zero `d`
/// does not suspend at all, as a zero [`crate::sleep`] does not.
pub fn sleep(d: Duration) -> Suspend {
    Suspend((!d.is_zero()).then_some(LightStep::Sleep(d)))
}

/// Suspends until `event` has fired ([`LightStep::Wait`]).
pub fn wait(event: &Event) -> Suspend {
    Suspend(Some(LightStep::Wait(event.clone())))
}

/// Asks for an OS thread ([`LightStep::Thread`]): what follows the `.await`
/// may block. Costs nothing where the code already runs on one.
pub fn thread() -> Suspend {
    Suspend(Some(LightStep::Thread))
}

/// Polls `fut` to its next suspension point: `Continue(step)` is what it
/// asked to park on before the next call, `Break(value)` that it finished.
///
/// # Panics
///
/// Panics if `fut` is pending on anything but this module's leaves — there
/// is no waker, so nothing else could ever resume it.
pub fn resume<F: Future + ?Sized>(fut: Pin<&mut F>) -> ControlFlow<F::Output, LightStep> {
    match fut.poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(value) => ControlFlow::Break(value),
        Poll::Pending => ControlFlow::Continue(REQUEST.take().expect(
            "resumable code may only await rustwren_sim::task::{sleep, wait, thread} \
             (directly or through other resumable code)",
        )),
    }
}

/// `fut`, with a panic from any of its polls caught and returned: what
/// [`std::panic::catch_unwind`] is to a call. See [`catch_unwind`].
#[derive(Debug)]
#[must_use = "futures do nothing unless awaited"]
pub struct CatchUnwind<F>(F);

/// Contains `fut`'s panics: the result is `Err(payload)` if any poll of it
/// panicked. That covers what the kernel refuses on `fut`'s behalf — a
/// blocking call made before [`thread`] was awaited — and a [`sleep`] too
/// long for the virtual clock: the deadline the kernel is about to compute
/// is computed here first, while its overflow is still `fut`'s own panic
/// and not that of whichever bystander is dispatching.
///
/// `fut` must be `Unpin`: box it, or `pin!` it where it is awaited.
pub fn catch_unwind<F: Future + Unpin>(fut: F) -> CatchUnwind<F> {
    CatchUnwind(fut)
}

impl<F: Future + Unpin> Future for CatchUnwind<F> {
    type Output = Result<F::Output, Box<dyn Any + Send>>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let inner = Pin::new(&mut self.0);
        let polled = panic::catch_unwind(AssertUnwindSafe(|| {
            let flow = resume(inner);
            if let ControlFlow::Continue(LightStep::Sleep(d)) = &flow {
                let _deadline = try_with_current(|kernel, _| kernel.now() + *d);
            }
            flow
        }));
        match polled {
            Ok(ControlFlow::Continue(step)) => {
                REQUEST.set(Some(step));
                Poll::Pending
            }
            Ok(ControlFlow::Break(value)) => Poll::Ready(Ok(value)),
            Err(payload) => Poll::Ready(Err(payload)),
        }
    }
}

/// `fut` as the poll function of a lightweight task:
/// `kernel.spawn_light(name, task::light(async move { … }))`.
pub fn light(
    fut: impl Future<Output = ()> + Send + 'static,
) -> impl FnMut() -> LightStep + Send + 'static {
    let mut fut = Box::pin(fut);
    move || match resume(fut.as_mut()) {
        ControlFlow::Continue(step) => step,
        ControlFlow::Break(()) => LightStep::Done,
    }
}

/// Runs `fut` to completion on the calling simulated thread, blocking
/// wherever it suspends — how one resumable implementation also serves
/// callers that are ordinary blocking code.
///
/// # Panics
///
/// Panics if the calling thread is not registered with a kernel and `fut`
/// suspends, or — like any blocking call — from inside a light poll.
// (Inlined so that `fut` is built in place on the caller's frame, not there
// and here: this sits beneath every blocking COS call on a thousand thread
// stacks.)
#[inline(always)]
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let mut fut = pin!(fut);
    let mut value = None;
    run_blocking(|| match resume(fut.as_mut()) {
        ControlFlow::Continue(step) => step,
        ControlFlow::Break(v) => {
            value = Some(v);
            LightStep::Done
        }
    });
    value.expect("run_blocking returns once the poll reports Done")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kernel, now, spawn, spawn_light, Kernel};
    use std::sync::{Arc, Mutex};

    /// The same `async fn` as a light task and under `block_on`: same
    /// timeline, and past `thread().await` it may block on either.
    #[test]
    fn one_body_runs_on_both_vehicles() {
        async fn body(go: Event, log: Arc<Mutex<Vec<u64>>>) {
            let note = || log.lock().unwrap().push(now().as_nanos() / 1_000_000);
            sleep(Duration::from_millis(5)).await;
            note();
            wait(&go).await;
            note();
            sleep(Duration::ZERO).await;
            thread().await;
            crate::sleep(Duration::from_millis(7));
            note();
        }
        let run = |light: bool| {
            let k = Kernel::new();
            let log = Arc::new(Mutex::new(Vec::new()));
            let seen = Arc::clone(&log);
            k.run("client", move || {
                let go = Event::new(&kernel());
                let done = Event::new(&kernel());
                let (go2, done2) = (go.clone(), done.clone());
                if light {
                    spawn_light(
                        "body",
                        super::light(async move {
                            body(go2, seen).await;
                            done2.fire();
                        }),
                    );
                } else {
                    spawn("body", move || {
                        block_on(body(go2, seen));
                        done2.fire();
                    });
                }
                crate::sleep(Duration::from_millis(20));
                go.fire();
                done.wait();
            });
            let log = log.lock().unwrap().clone();
            (log, k.now(), k.stats().timers_scheduled)
        };
        assert_eq!(run(true), run(false));
        assert_eq!(run(true).0, [5, 20, 27]);
    }

    /// What `catch_unwind` contains, on both vehicles with the same
    /// message: a panic, a sleep past the end of the clock, and — on the
    /// light vehicle, where the kernel refuses it — a blocking call.
    #[test]
    fn catch_unwind_contains_the_wrapped_code_on_both_vehicles() {
        async fn body(what: u8) -> u8 {
            sleep(Duration::from_millis(5)).await;
            match what {
                0 => panic!("boom"),
                1 => sleep(Duration::from_millis(u64::MAX)).await,
                2 => crate::sleep(Duration::from_millis(1)),
                _ => {}
            }
            what
        }
        let run = |light: bool, what: u8| {
            let k = Kernel::new();
            let caught = Arc::new(Mutex::new(None));
            let seen = Arc::clone(&caught);
            k.run("client", move || {
                let done = Event::new(&kernel());
                let fired = done.clone();
                let contained = async move {
                    let result = catch_unwind(pin!(body(what))).await;
                    let message = result.map_err(|p| match p.downcast_ref::<&str>() {
                        Some(text) => Some((*text).to_owned()),
                        None => p.downcast_ref::<String>().cloned(),
                    });
                    *seen.lock().unwrap() = Some(message);
                    fired.fire();
                };
                if light {
                    spawn_light("body", super::light(contained));
                } else {
                    spawn("body", move || block_on(contained));
                }
                done.wait();
            });
            let caught = caught.lock().unwrap().take();
            (caught.expect("the body ran"), k.stats().timers_scheduled)
        };
        for light in [true, false] {
            assert_eq!(run(light, 0), (Err(Some("boom".to_owned())), 1));
            let (overflow, timers) = run(light, 1);
            let message = overflow.expect_err("contained").expect("a message");
            assert!(message.contains("virtual time overflow"), "{message}");
            assert_eq!(timers, 1, "the sleep was never scheduled");
            assert_eq!(run(light, 3), (Ok(3), 1));
        }
        let refused = run(true, 2).0.expect_err("refused").expect("a message");
        assert!(
            refused.contains("attempted a blocking operation"),
            "{refused}"
        );
        assert_eq!(run(false, 2), (Ok(2), 2));
    }

    #[test]
    #[should_panic(expected = "resumable code may only await")]
    fn awaiting_a_foreign_future_is_refused() {
        block_on(std::future::pending::<()>());
    }
}
