//! The `ledger` benchmark's parts; `main.rs` is the command line over them
//! and `tests/ledger.rs` reads records back through [`json`] and holds
//! `BENCHMARK.json` to [`catalog`].

pub mod catalog;
pub mod compare;
pub mod host;
pub mod json;
pub mod probes;
pub mod run;
pub mod trace;
pub mod workloads;
