//! The virtual-time synchronization primitive.
//!
//! A thread waiting on an [`Event`] counts as blocked for the kernel,
//! allowing the clock to advance. Wakes are delivered at the current
//! virtual instant. [`Event`] is the only blocking primitive: hand-offs,
//! latches and admission gates are all built from it (plus
//! [`SimJoinHandle::join`](crate::SimJoinHandle::join) and
//! [`sleep`](crate::sleep), which live outside this module). The
//! `parking_lot` shim locks never block a simulated task: one that finds a
//! lock held panics (see the crate docs).
//!
//! An event carries its own [`crate::Resource`], a node of the kernel's
//! wait-for graph that registers nothing: blocked threads record which
//! resource they wait on, and the thread expected to fire is recorded as
//! holder, so a simulation deadlock panics with the actual wait-for cycle
//! instead of a bare thread list. Its label is rendered only then.
//!
//! Lock ordering (internal invariant): the kernel state lock is always
//! acquired *before* the event's own lock, and both are released before a
//! thread parks.

mod event;

pub use event::Event;
