//! # rustwren-sim — deterministic virtual-time kernel
//!
//! The foundation of the IBM-PyWren reproduction: a discrete-event
//! simulation kernel whose processes are stackless state machines where
//! they only charge time and wait on events ([`spawn_light`]), and are given
//! a **real OS thread** at the point they reach arbitrary Rust code that
//! blocks ([`LightStep::Thread`]; a [`spawn`]ed closure asks for its thread
//! at once). Whenever a
//! process sleeps or waits on a primitive from [`sync`], it suspends in
//! *virtual* time, and the kernel advances the clock to the next pending
//! deadline once every registered process is blocked. A 2,000-function, 60-second-per-function cloud experiment thus
//! completes in a fraction of a second of wall time, with timings that are a
//! pure function of the configured cost models.
//!
//! ## Quickstart
//!
//! ```
//! use rustwren_sim::Kernel;
//! use std::time::Duration;
//!
//! let kernel = Kernel::new();
//! let elapsed = kernel.run("client", || {
//!     let start = rustwren_sim::now();
//!     let workers: Vec<_> = (0..100)
//!         .map(|i| rustwren_sim::spawn(format!("fn-{i}"), || {
//!             rustwren_sim::sleep(Duration::from_secs(60)); // modeled compute
//!         }))
//!         .collect();
//!     for w in workers { w.join(); }
//!     rustwren_sim::now() - start
//! });
//! assert_eq!(elapsed, Duration::from_secs(60)); // fully parallel
//! ```
//!
//! ## Modules
//!
//! * [`sync`] — [`sync::Event`], the one primitive that blocks in virtual
//!   time.
//! * [`task`] — straight-line resumable code: `async` bodies over three
//!   leaf futures (sleep, wait for an event, ask for a thread), polled as a
//!   light task or driven to completion on a thread.
//! * [`NetworkProfile`] — latency/bandwidth/loss cost model used by the
//!   object-store and FaaS simulators.
//! * [`hash`] — deterministic mixing used for per-request jitter so repeated
//!   runs produce identical virtual timelines.
//! * [`chaos`] — seed-deterministic fault injection (outage windows, payload
//!   corruption, crash points, cold-start storms) scheduled on the virtual
//!   clock.
//! * [`sched`] — pluggable schedulers (FIFO, seeded random, replay) that
//!   decide which ready thread runs at every kernel choice point, plus the
//!   sparse [`ScheduleTrace`] token format used to replay failing schedules.
//!
//! `parking_lot` shim locks are plain locks here: the kernel counts their
//! acquisitions ([`KernelStats::lock_acquisitions`]), and a simulated task
//! that finds one held panics ("shim lock held across a yield"), since one
//! task runs at a time and only a holder that suspended can still hold it.
//! While exploring, a lock joins the footprint of the segments that take
//! and release it ([`Choice::segment`]).

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod hash;
mod kernel;
mod net;
mod rawlock;
pub mod sched;
pub mod sync;
pub mod task;
mod time;
mod vlock;

pub use chaos::{
    ChaosEngine, ChaosStats, CorruptMode, FaultPlan, FaultRecord, PathScope, TimeWindow,
};
pub use kernel::{
    exploring, fan_out, kernel, now, sleep, spawn, spawn_light, Kernel, KernelStats, Label,
    LightStep, Resource, SimJoinHandle,
};
pub use net::{backoff, NetworkProfile};
pub use sched::{
    Choice, ChoiceKind, FifoScheduler, RandomScheduler, ReplayScheduler, ScheduleTrace, Scheduler,
    TraceEntry,
};
pub use time::SimInstant;
