//! # rustwren — IBM-PyWren in Rust over a simulated IBM Cloud
//!
//! Facade crate re-exporting the whole reproduction of *Serverless Data
//! Analytics in the IBM Cloud* (Middleware Industry 2018):
//!
//! * [`sim`] — deterministic virtual-time kernel and network cost models.
//! * [`store`] — IBM Cloud Object Storage simulator.
//! * [`faas`] — IBM Cloud Functions / Apache OpenWhisk simulator.
//! * [`core`] — the IBM-PyWren framework itself: executors, futures,
//!   map/map_reduce, data discovery & partitioning, composability, massive
//!   function spawning.
//! * [`analyze`] — pre-flight job-plan linter: predicts self-deadlocks,
//!   throttle storms and limit violations before any function is invoked.
//! * [`verify`] — schedule-exploration model checker: seeded random and
//!   bounded-exhaustive interleaving search with delta-debugged replayable
//!   failing traces.
//! * [`workloads`] — the paper's workloads: synthetic Airbnb reviews, tone
//!   analysis, mergesort, compute-bound tasks.
//!
//! See `examples/quickstart.rs` for the canonical end-to-end flow.

#![deny(unsafe_code)]

pub use rustwren_analyze as analyze;
pub use rustwren_core as core;
pub use rustwren_faas as faas;
pub use rustwren_sim as sim;
pub use rustwren_store as store;
pub use rustwren_verify as verify;
pub use rustwren_workloads as workloads;
