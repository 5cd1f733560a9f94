//! # rustwren-core — IBM-PyWren in Rust
//!
//! A full reproduction of the serverless data-analytics framework from
//! *Serverless Data Analytics in the IBM Cloud* (Middleware Industry 2018),
//! running over simulated IBM Cloud substrates ([`rustwren_faas`],
//! [`rustwren_store`], [`rustwren_sim`]).
//!
//! The paper's Table 2 API maps directly:
//!
//! | Paper                   | Here                                        |
//! |-------------------------|---------------------------------------------|
//! | `pw.ibm_cf_executor()`  | [`SimCloud::executor`]`().build()`          |
//! | `call_async(f, data)`   | [`Executor::call_async`]                    |
//! | `map(f, data)`          | [`Executor::map`]                           |
//! | `map_reduce(mf, d, rf)` | [`Executor::map_reduce`]                    |
//! | `wait(when, futures)`   | [`Executor::wait`] with [`WaitPolicy`]      |
//! | `get_result()`          | [`Executor::get_result`]                    |
//!
//! ## Quickstart
//!
//! ```
//! use rustwren_core::{SimCloud, Value};
//!
//! let cloud = SimCloud::builder().build();
//! cloud.register_fn("my_function", |_ctx: &rustwren_core::TaskCtx, v: Value| {
//!     Ok(Value::Int(v.as_i64().ok_or("expected int")? + 7))
//! });
//! let results = cloud.run(|| {
//!     let exec = cloud.executor().build()?;              // pw.ibm_cf_executor()
//!     exec.map("my_function", [3i64.into(), 6i64.into(), 9i64.into()])?;
//!     exec.get_result()                                   // [10, 13, 16]
//! })?;
//! assert_eq!(results[0], Value::Int(10));
//! # Ok::<(), rustwren_core::PywrenError>(())
//! ```
//!
//! ## Feature map (Table 1 of the paper)
//!
//! * **Broader MapReduce** — [`Executor::map_reduce`], including
//!   [`MapReduceOpts::reducer_one_per_object`] (the `reduceByKey`-like mode).
//! * **Data discovery & partitioning** — [`partition`] module; chunk-size or
//!   object-granularity splits, newline-aligned range reads.
//! * **Composability** — [`TaskCtx::executor`] gives any running function an
//!   executor (a resumable one awaits [`Executor::map_async`]); returned
//!   future-sets are awaited transparently by [`Executor::get_result`].
//! * **Docker runtimes** — executors select a runtime image
//!   ([`ExecutorBuilder::runtime`]); custom images are shared through the
//!   platform's registry.
//! * **Massive function spawning** — [`SpawnStrategy::RemoteInvoker`]
//!   (§5.1), versus the classic [`SpawnStrategy::Direct`].
//! * **Pre-flight plan analysis** — every job is linted against the
//!   platform limits before invocation ([`AnalyzeMode`], rules W001–W008
//!   from [`rustwren_analyze`]); `Deny` mode rejects doomed plans with
//!   [`PywrenError::Plan`].
//! * **Partitioned shuffle data plane** — [`Executor::map_shuffle_reduce`]
//!   with sort-and-spill segments, hash/range [`Partitioner`]s, map-side
//!   combiners, empty-partition elision, a bounded-fan-in streaming merge
//!   on the reduce side, and a COS-vs-relay exchange ablation
//!   ([`ExchangeMode`]).
//! * **Chaos engineering & data integrity** — a deterministic
//!   fault-injection plan ([`FaultPlan`], installed via
//!   [`SimCloudBuilder::chaos`]) schedules COS outages/brownouts, payload
//!   corruption, activation crashes and cold-start storms on the virtual
//!   clock; every staged object is checksum-stamped ([`wire::stamp`]) and
//!   verified on read, surfacing corruption as typed
//!   [`PywrenError::Integrity`] errors that the [`RetryPolicy`] heals.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cloud;
pub mod compose;
mod config;
mod convert;
mod error;
mod executor;
mod future;
pub mod invoker;
mod job;
pub mod partition;
mod registry;
mod shuffle;
pub mod stats;
mod task;
pub mod wire;

pub use cloud::{SimCloud, SimCloudBuilder};
pub use compose::SEQUENCE_FN;
pub use config::{ExecutorConfig, RetryPolicy, SpawnStrategy, SpeculationConfig};
pub use convert::FromValue;
pub use error::{PywrenError, Result};
pub use executor::{
    Executor, ExecutorBuilder, GetResultOpts, MapReduceOpts, ShuffleOpts, TaskTiming,
};
pub use future::{ResponseFuture, WaitPolicy, FUTURES_MARKER};
pub use job::{PHASE_AFTER_COMPUTE, PHASE_AFTER_PUT, PHASE_BEFORE_RUN, PHASE_INVOKER};
pub use partition::{DataSource, ObjectRef};
pub use registry::{FunctionRegistry, RemoteFn, SizedFn, DEFAULT_CODE_SIZE};
pub use rustwren_analyze::{
    analyze, AnalyzeMode, CloudProfile, Diagnostic, JobPlan, PlanHints, Rule, Severity,
    ShuffleShape, SpawnProfile,
};
pub use rustwren_sim::chaos::{
    ChaosStats, CorruptMode, FaultPlan, FaultRecord, PathScope, TimeWindow,
};
pub use rustwren_store::OpCounts;
pub use shuffle::{ExchangeMode, Partitioner, ShufflePlane, MAX_REDUCERS};
pub use stats::{CosOpStats, RecoveryStats};
pub use task::TaskCtx;
pub use wire::Value;
