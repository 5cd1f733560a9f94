//! The executor: IBM-PyWren's first-citizen object (§4.1–§4.2).

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use rustwren_analyze::{analyze, AnalyzeMode, CloudProfile, Diagnostic, JobPlan, Severity};
use rustwren_faas::{ActivationId, FaasClient, Outcome, TenantId, ThrottleSignal};
use rustwren_sim::hash::{hash2, hash_str};
use rustwren_sim::{task, NetworkProfile, SimInstant};
use rustwren_store::{CosClient, OpCounters};

use crate::cloud::SimCloud;
use crate::config::{backoff_delay, ExecutorConfig, RetryPolicy, SpawnStrategy, SpeculationConfig};
use crate::error::{PywrenError, Result};
use crate::future::{
    exec_prefix, func_key, DoneSet, ResponseFuture, StatusWatch, TaskStatus, WaitPolicy,
};
use crate::invoker::{agent_action_name, deploy_agent, spawn_tasks};
use crate::job::{AgentPayload, TaskSpec, INLINE_MAX_BYTES};
use crate::partition::{discover, partition_objects, DataSource};
use crate::shuffle::{ExchangeMode, Partitioner, ShufflePlane, MAX_REDUCERS};
use crate::stats::{CosOpStats, RecoveryStats};
use crate::wire::{Value, Writer};

/// Client threads used to upload task inputs to COS before invocation, and
/// to download results after it.
const UPLOAD_THREADS: usize = 64;

/// How often an in-cloud reducer polls COS for its map inputs.
const REDUCE_POLL_INTERVAL: Duration = Duration::from_millis(1000);

/// Fraction of a job's tasks that must be done before its stragglers are
/// considered for speculation.
const SPECULATE_DONE_FRACTION: f64 = 0.75;

/// A pending task becomes a straggler once it has been out for longer than
/// this multiple of the median completion time of its job's done tasks.
const STRAGGLER_FACTOR: f64 = 2.0;

/// Completed tasks a job needs before its median completion time is
/// trusted for speculation.
const SPECULATE_MIN_DONE: usize = 5;

/// Cap on speculative copies per job.
const MAX_SPECULATIVE: usize = 16;

/// Consecutive status-poll failures tolerated (when retry is enabled)
/// before `wait`/`get_result` give up — rides out bounded COS outage
/// windows instead of surfacing the first transient listing error.
const MAX_POLL_FAILURES: u32 = 16;

/// Re-fetch budget for a checksum-stamped object that fails verification:
/// the stored bytes are intact, only the read was corrupted, so a refetch
/// normally heals it.
const INTEGRITY_REFETCHES: u32 = 3;

/// Options for [`Executor::map_reduce`] (§4.3).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapReduceOpts {
    /// Split objects into chunks of this many (logical) bytes; `None` means
    /// one partition per object ("data object granularity").
    pub chunk_size: Option<u64>,
    /// Run one reducer per source object key — the paper's
    /// `reducer_one_per_object=True`, a `reduceByKey`-like mode.
    pub reducer_one_per_object: bool,
}

/// Options for [`Executor::map_shuffle_reduce`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShuffleOpts {
    /// Number of parallel reducers (each owns a slice of the key space).
    /// Capped at [`MAX_REDUCERS`]; absurd values are rejected at submit.
    pub reducers: usize,
    /// Chunk size for splitting storage objects; `None` = per object.
    pub chunk_size: Option<u64>,
    /// Physical layout of map outputs. [`ShufflePlane`] has one value, so
    /// this selects nothing; the field stays because the frozen `ledger`
    /// benchmark source spells `ShuffleOpts { plane, exchange, .. }`.
    pub plane: ShufflePlane,
    /// How partitions travel. [`ExchangeMode`] has one value, so this
    /// selects nothing; the field stays because the frozen `ledger`
    /// benchmark source spells it.
    pub exchange: ExchangeMode,
    /// Key-to-reducer assignment: seeded hash (default) or explicit ranges
    /// (see [`Partitioner::range_from_samples`] for the sampled-histogram
    /// CloudSort setup).
    pub partitioner: Partitioner,
    /// Optional registered function applied map-side to each sorted key
    /// group (`{"k", "vs": [...]}` → combined value) before spilling —
    /// a MapReduce combiner.
    pub combiner: Option<String>,
    /// Maximum sorted runs a reducer merges at once; more runs take extra
    /// merge rounds, bounding reduce-side memory. Minimum 2.
    pub merge_fanin: usize,
}

impl Default for ShuffleOpts {
    fn default() -> ShuffleOpts {
        ShuffleOpts {
            reducers: 4,
            chunk_size: None,
            plane: ShufflePlane::Partitioned,
            exchange: ExchangeMode::Cos,
            partitioner: Partitioner::Hash,
            combiner: None,
            merge_fanin: 16,
        }
    }
}

/// Options for [`Executor::get_result_with`].
#[derive(Clone, Default)]
pub struct GetResultOpts {
    /// Give up after this much virtual time.
    pub timeout: Option<Duration>,
    /// Progress callback `(done, total)`, the library's "progress bar".
    pub progress: Option<Arc<dyn Fn(usize, usize) + Send + Sync>>,
}

impl fmt::Debug for GetResultOpts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GetResultOpts")
            .field("timeout", &self.timeout)
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

/// Per-task bookkeeping for automatic fault recovery: one entry per task
/// the executor submitted, in its [`Job`]'s `tasks`.
#[derive(Default)]
struct TaskRecovery {
    /// The inlined task descriptor, encoded once at submit, when the task's
    /// input rode inside the activation payload: retries and re-invocations
    /// must re-ship it, because no staged input object exists in COS to
    /// fall back on.
    inline: Option<Bytes>,
    /// Executions so far (1 after the initial invocation).
    attempts: u32,
    /// When the latest primary execution was invoked.
    invoked_at: SimInstant,
    /// The latest primary activation, where the client issued the
    /// invocation itself; `None` under remote-invoker spawning.
    activation: Option<ActivationId>,
    /// Virtual-time deadline of a scheduled re-invocation (backoff).
    retry_at: Option<SimInstant>,
    /// A speculative copy is already out for this task.
    speculated: bool,
    /// Observed completion latency (seconds) once confirmed `done`.
    done_elapsed: Option<f64>,
    /// No attempts left; the error status in COS is final.
    exhausted: bool,
}

/// One job about to be submitted: its task list plus the facts only its
/// submitter knows, which the task specs do not carry.
#[derive(Default)]
struct Stage {
    specs: Vec<TaskSpec>,
    /// Per-job extra data merged into every task's input.
    extra: Option<Value>,
    /// The partitioner's chunk size (pre-flight plan input).
    chunk_size: Option<u64>,
    /// Logical size of the largest source object (pre-flight plan input).
    max_object_bytes: Option<u64>,
    /// Submit the job [guarded](Job::guarded); otherwise its futures are
    /// tracked for `get_result`.
    guarded: bool,
}

/// What the client remembers about one submitted job.
struct Job {
    /// The function every task of the job runs, for re-invoking them.
    func_name: String,
    /// An internal stage (the map phase behind a tracked reducer): the
    /// recovery pass watches and heals its tasks, but their results are
    /// never returned to the caller. Without this, a map task dying under
    /// fault injection would starve its reducer forever. Lasts until the
    /// `get_result` that gathers the flow.
    guarded: bool,
    /// Automatic re-invocations spent so far, enforcing
    /// [`RetryPolicy::job_retry_budget`].
    retries_spent: u32,
    /// Recovery state of each launched task, indexed by task number.
    tasks: Vec<TaskRecovery>,
}

/// Everything the executor keeps per job on the client, behind one lock
/// (the paper's client holds a list of futures and leaves every other fact
/// in COS, §4.2). The lock is never held across a COS or FaaS call, or a
/// sleep.
#[derive(Default)]
struct JobTable {
    /// The executor and bucket whose jobs these are. Job and task numbers
    /// start over in every executor, so a future of another one — handed in
    /// for resolving (composition), or by mistake — may carry numbers that
    /// are also a job's here, and must still find nothing.
    exec_id: String,
    bucket: String,
    /// The futures the next `get_result` returns, in submission order.
    pending: Vec<ResponseFuture>,
    /// Every job submitted and not yet swept by `clean`, by job id.
    jobs: BTreeMap<u64, Job>,
    /// Recovery counters; `faults_injected` is filled in on read.
    stats: RecoveryStats,
}

impl JobTable {
    /// The job `f` belongs to, if it is one of this executor's.
    fn job(&self, f: &ResponseFuture) -> Option<&Job> {
        self.jobs.get(&f.job_id()).filter(|_| self.owns(f))
    }

    fn owns(&self, f: &ResponseFuture) -> bool {
        f.exec_id() == self.exec_id && f.bucket() == self.bucket
    }

    fn task(&self, f: &ResponseFuture) -> Option<&TaskRecovery> {
        self.job(f)?.tasks.get(f.task() as usize)
    }

    fn job_mut(&mut self, f: &ResponseFuture) -> Option<&mut Job> {
        let own = self.owns(f);
        self.jobs.get_mut(&f.job_id()).filter(|_| own)
    }

    fn task_mut(&mut self, f: &ResponseFuture) -> Option<&mut TaskRecovery> {
        self.job_mut(f)?.tasks.get_mut(f.task() as usize)
    }

    /// The payload that (re-)runs task `f`: its job's function plus the
    /// inline descriptor retained at submit, which must be re-shipped
    /// because an inline task has no staged input to fall back on.
    fn payload(&self, f: &ResponseFuture) -> Option<AgentPayload> {
        let job = self.job(f)?;
        let task = job.tasks.get(f.task() as usize)?;
        Some(AgentPayload::new(f, &job.func_name, task.inline.clone()))
    }

    /// Forgets every job and pending future; the counters stay.
    fn clear(&mut self) {
        self.pending.clear();
        self.jobs.clear();
    }
}

struct ExecInner {
    cloud: SimCloud,
    config: ExecutorConfig,
    /// The executor's id and its storage bucket, which every future of its
    /// jobs shares.
    exec_id: Arc<str>,
    bucket: Arc<str>,
    /// Tenant namespace this executor submits under (feeds W009 and the
    /// per-tenant admission plane).
    namespace: String,
    agent_action: String,
    job_seq: AtomicU64,
    table: parking_lot::Mutex<JobTable>,
    /// Client for the polling/gathering phase (status LISTs, recovery
    /// probes, result fetches, cleanup) — its op counters feed
    /// [`CosOpStats::polling`].
    cos: CosClient,
    /// Client for the staging phase (func blob, task-input uploads,
    /// discovery) — its op counters feed [`CosOpStats::staging`].
    cos_stage: CosClient,
    faas: FaasClient,
    /// Fleet-wide 429/shed pressure observed by this executor's clients;
    /// the retry scheduler's circuit breaker reads its `open_until`
    /// deadline so backoffs never land inside a window the platform
    /// already said is full.
    throttle_signal: Arc<ThrottleSignal>,
}

/// An IBM-PyWren executor bound to one runtime and one network position.
/// Cheap to clone; clones share the pending-futures set.
///
/// Mirrors the paper's Table 2 API: [`call_async`](Executor::call_async),
/// [`map`](Executor::map), [`map_reduce`](Executor::map_reduce),
/// [`wait`](Executor::wait), [`get_result`](Executor::get_result).
#[derive(Clone)]
pub struct Executor {
    inner: Arc<ExecInner>,
}

impl fmt::Debug for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("exec_id", &self.inner.exec_id)
            .field("runtime", &self.inner.config.runtime)
            // lint: allow(L011) — false positive: the guard is a temporary
            // dropped inside the `.field(...)` expression, not held to scope
            // end as the static order rule conservatively assumes, and the
            // trailing `.finish(` edge is a name over-approximation onto
            // unrelated impls. L011 reports a kind pair once, at its first
            // site in scan order, and this is that site for mutex→mutex: the
            // table lock is never held across a call that locks
            .field("pending", &self.inner.table.lock().pending.len())
            .finish()
    }
}

/// Builder returned by [`SimCloud::executor`].
#[derive(Debug)]
pub struct ExecutorBuilder {
    cloud: SimCloud,
    config: ExecutorConfig,
    net: Option<NetworkProfile>,
    namespace: String,
}

impl ExecutorBuilder {
    pub(crate) fn new(cloud: SimCloud) -> ExecutorBuilder {
        ExecutorBuilder {
            cloud,
            config: ExecutorConfig::default(),
            net: None,
            namespace: rustwren_faas::DEFAULT_NAMESPACE.to_owned(),
        }
    }

    /// Binds this executor to a tenant namespace: its invocations go
    /// through that tenant's quota, rate limit and admission queue on the
    /// platform (see [`rustwren_faas::TenantConfig`]).
    pub fn namespace(mut self, namespace: impl Into<String>) -> ExecutorBuilder {
        self.namespace = namespace.into();
        self
    }

    /// Selects the runtime image (the paper's
    /// `ibm_cf_executor(runtime='matplotlib')`).
    pub fn runtime(mut self, runtime: impl Into<String>) -> ExecutorBuilder {
        self.config.runtime = runtime.into();
        self
    }

    /// Selects the invocation strategy.
    pub fn spawn(mut self, spawn: SpawnStrategy) -> ExecutorBuilder {
        self.config.spawn = spawn;
        self
    }

    /// Sets the client-side status poll interval.
    pub fn poll_interval(mut self, interval: Duration) -> ExecutorBuilder {
        self.config.poll_interval = interval;
        self
    }

    /// Sets the bucket where jobs are staged.
    pub fn storage_bucket(mut self, bucket: impl Into<String>) -> ExecutorBuilder {
        self.config.storage_bucket = bucket.into();
        self
    }

    /// Overrides the executor's network position (defaults to the cloud's
    /// client network; in-cloud executors use the data-center profile).
    pub fn network(mut self, net: NetworkProfile) -> ExecutorBuilder {
        self.net = Some(net);
        self
    }

    /// Enables automatic retry of failed tasks during polling.
    pub fn retry(mut self, policy: RetryPolicy) -> ExecutorBuilder {
        self.config.retry = policy;
        self
    }

    /// Enables speculative execution of straggler tasks.
    pub fn speculation(mut self, speculation: SpeculationConfig) -> ExecutorBuilder {
        self.config.speculation = speculation;
        self
    }

    /// Selects the pre-flight analysis mode (defaults to the
    /// `RUSTWREN_ANALYZE` environment variable, then
    /// [`AnalyzeMode::Warn`]).
    pub fn analyze(mut self, mode: AnalyzeMode) -> ExecutorBuilder {
        self.config.analyze = mode;
        self
    }

    /// Supplies hints the analyzer cannot infer from the task list:
    /// nesting shape of recursive jobs, per-task cost estimates.
    pub fn plan_hints(mut self, hints: rustwren_analyze::PlanHints) -> ExecutorBuilder {
        self.config.plan_hints = hints;
        self
    }

    /// Builds the executor, deploying the agent action for its runtime.
    ///
    /// # Errors
    ///
    /// Fails if the runtime image is unknown to the Docker registry, or
    /// with [`PywrenError::Config`] for a degenerate spawn strategy (zero
    /// client threads, group size or invoker threads).
    pub fn build(self) -> Result<Executor> {
        match self.config.spawn {
            SpawnStrategy::Direct { client_threads: 0 } => {
                return Err(PywrenError::Config(
                    "spawn strategy needs at least one client thread".into(),
                ));
            }
            SpawnStrategy::RemoteInvoker { group_size: 0, .. } => {
                return Err(PywrenError::Config(
                    "remote invoker group size must be non-zero".into(),
                ));
            }
            SpawnStrategy::RemoteInvoker {
                invoker_threads: 0, ..
            } => {
                return Err(PywrenError::Config(
                    "remote invoker thread count must be non-zero".into(),
                ));
            }
            _ => {}
        }
        deploy_agent(&self.cloud, &self.config.runtime)?;
        self.cloud
            .store()
            .ensure_bucket(&self.config.storage_bucket);
        let exec_id = self.cloud.next_exec_id();
        let net = self
            .net
            .unwrap_or_else(|| self.cloud.client_network().clone());
        let seed = hash2(self.cloud.inner.seed, hash2(0xE0EC, hash_str(&exec_id)));
        let cos = CosClient::new(self.cloud.store(), net.clone(), seed);
        // Same timing/seed behaviour, separate op-count ledger: per-phase
        // operation budgets stay attributable (CosOpStats).
        let cos_stage = cos.clone().with_counters(OpCounters::shared());
        let throttle_signal = ThrottleSignal::new();
        let faas = FaasClient::new(self.cloud.functions(), net, hash2(seed, 0xFA))
            .with_throttle_signal(Arc::clone(&throttle_signal))
            .with_namespace(TenantId::new(&self.namespace));
        let agent_action = agent_action_name(&self.config.runtime);
        let table = JobTable {
            exec_id: exec_id.clone(),
            bucket: self.config.storage_bucket.clone(),
            ..JobTable::default()
        };
        Ok(Executor {
            inner: Arc::new(ExecInner {
                cloud: self.cloud,
                bucket: Arc::from(self.config.storage_bucket.as_str()),
                config: self.config,
                exec_id: Arc::from(exec_id),
                namespace: self.namespace,
                agent_action,
                job_seq: AtomicU64::new(1),
                table: parking_lot::Mutex::new(table),
                cos,
                cos_stage,
                faas,
                throttle_signal,
            }),
        })
    }
}

impl Executor {
    /// This executor's unique id (tracks its objects in COS).
    pub fn exec_id(&self) -> &str {
        &self.inner.exec_id
    }

    /// The executor's configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.inner.config
    }

    /// The cloud this executor targets.
    pub fn cloud(&self) -> &SimCloud {
        &self.inner.cloud
    }

    /// Runs one function asynchronously (§4.2 `call_async`). Non-blocking:
    /// returns a future tracked by this executor.
    ///
    /// # Errors
    ///
    /// Unknown function, storage errors while staging, or invocation errors.
    pub fn call_async(&self, func: &str, input: Value) -> Result<ResponseFuture> {
        let futures = task::block_on(self.map_async(func, [input]))?;
        futures
            .into_iter()
            .next()
            .ok_or_else(|| PywrenError::Config(format!("submit returned no future for `{func}`")))
    }

    /// Runs one function per input value in parallel (§4.2 `map`).
    /// Non-blocking.
    ///
    /// # Errors
    ///
    /// Unknown function, storage errors while staging, or invocation errors.
    pub fn map(
        &self,
        func: &str,
        inputs: impl IntoIterator<Item = Value>,
    ) -> Result<Vec<ResponseFuture>> {
        task::block_on(self.map_async(func, inputs))
    }

    /// [`map`](Executor::map) as resumable code, which `map` drives on the
    /// caller's thread: with [`resolve_async`](Executor::resolve_async), how
    /// a function registered with [`SimCloud::register_resumable_fn`]
    /// composes (§4.4) without an OS thread.
    ///
    /// # Errors
    ///
    /// As [`map`](Executor::map).
    ///
    /// # Examples
    ///
    /// A function that maps two children and gathers their results:
    ///
    /// ```
    /// use rustwren_core::{GetResultOpts, SimCloud, TaskCtx, Value};
    ///
    /// let cloud = SimCloud::builder().build();
    /// cloud.register_resumable_fn("inc", |_: TaskCtx, v: Value| async move {
    ///     Ok(Value::Int(v.as_i64().ok_or("int")? + 1))
    /// });
    /// cloud.register_resumable_fn("both", |ctx: TaskCtx, v: Value| async move {
    ///     let x = v.as_i64().ok_or("int")?;
    ///     let exec = ctx.executor().map_err(|e| e.to_string())?;
    ///     let children = exec
    ///         .map_async("inc", [Value::Int(x), Value::Int(10 * x)])
    ///         .await
    ///         .map_err(|e| e.to_string())?;
    ///     let results = exec
    ///         .resolve_async(&children, &GetResultOpts::default())
    ///         .await
    ///         .map_err(|e| e.to_string())?;
    ///     Ok(Value::List(results))
    /// });
    /// let results = cloud.run(|| {
    ///     let exec = cloud.executor().build()?;
    ///     exec.call_async("both", Value::Int(4))?;
    ///     exec.get_result()
    /// })?;
    /// assert_eq!(results, vec![Value::List(vec![Value::Int(5), Value::Int(41)])]);
    /// // Parent and children ran as light tasks: no OS thread was started.
    /// assert_eq!(cloud.kernel().stats().os_threads_spawned, 0);
    /// # Ok::<(), rustwren_core::PywrenError>(())
    /// ```
    pub async fn map_async(
        &self,
        func: &str,
        inputs: impl IntoIterator<Item = Value>,
    ) -> Result<Vec<ResponseFuture>> {
        let stage = Stage {
            specs: inputs.into_iter().map(TaskSpec::Value).collect(),
            ..Stage::default()
        };
        self.submit(func, stage).await
    }

    /// Runs a MapReduce flow (§4.2–§4.3): discovers and partitions `source`,
    /// maps `map_func` over every partition, then runs `reduce_func` over
    /// the partial results — one reducer in total, or one per source object
    /// with [`MapReduceOpts::reducer_one_per_object`]. Non-blocking; the
    /// returned (and tracked) futures are the *reducer* outputs.
    ///
    /// # Errors
    ///
    /// Unknown functions, discovery/staging storage errors, invocation
    /// errors, or [`PywrenError::Config`] for a zero `chunk_size`.
    pub fn map_reduce(
        &self,
        map_func: &str,
        source: DataSource,
        reduce_func: &str,
        opts: MapReduceOpts,
    ) -> Result<Vec<ResponseFuture>> {
        let lowered = self.lower_source(&source, opts.chunk_size)?;
        task::block_on(self.submit_map_reduce(map_func, lowered, reduce_func, opts))
    }

    /// Submits a MapReduce flow over a [lowered](Executor::lower_source) source.
    async fn submit_map_reduce(
        &self,
        map_func: &str,
        (map_stage, groups): (Stage, Vec<String>),
        reduce_func: &str,
        opts: MapReduceOpts,
    ) -> Result<Vec<ResponseFuture>> {
        self.submit_stages(map_func, map_stage, reduce_func, |map_futures| {
            let poll = REDUCE_POLL_INTERVAL;
            if !opts.reducer_one_per_object {
                return vec![TaskSpec::Reduce {
                    deps: map_futures.to_vec(),
                    group: None,
                    poll,
                }];
            }
            // Order-preserving dedup: first-appearance order decides reducer
            // order, with a set alongside so this stays O(n) rather than the
            // former `Vec::contains` scan over every prior group.
            let mut seen_set: HashSet<&str> = HashSet::with_capacity(groups.len());
            let mut seen: Vec<String> = Vec::new();
            for g in &groups {
                if seen_set.insert(g.as_str()) {
                    seen.push(g.clone());
                }
            }
            seen.into_iter()
                .map(|g| TaskSpec::Reduce {
                    deps: map_futures
                        .iter()
                        .zip(&groups)
                        .filter(|(_, fg)| **fg == g)
                        .map(|(f, _)| f.clone())
                        .collect(),
                    group: Some(g),
                    poll,
                })
                .collect()
        })
        .await
    }

    /// Lowers a data source to the map stage over it — one task per value,
    /// or per partition of the discovered objects — plus each task's reducer
    /// group: the key of its source object, empty for plain values.
    fn lower_source(
        &self,
        source: &DataSource,
        chunk_size: Option<u64>,
    ) -> Result<(Stage, Vec<String>)> {
        // Validate regardless of source: a Values source never reaches the
        // partitioner, and a silently ignored chunk_size would make the
        // same options behave differently across sources.
        if chunk_size == Some(0) {
            return Err(PywrenError::Config("chunk_size must be non-zero".into()));
        }
        let mut stage = Stage {
            chunk_size,
            ..Stage::default()
        };
        let groups = match source {
            DataSource::Values(values) => {
                stage.specs = values.iter().cloned().map(TaskSpec::Value).collect();
                vec![String::new(); values.len()]
            }
            _ => {
                let objects = discover(&self.inner.cos_stage, source)?;
                stage.max_object_bytes = objects.iter().map(|o| o.meta.logical_size).max();
                let parts = partition_objects(&objects, chunk_size)?;
                let groups = parts.iter().map(|p| p.key.clone()).collect();
                stage.specs = parts.into_iter().map(TaskSpec::Partition).collect();
                groups
            }
        };
        Ok((stage, groups))
    }

    /// The tail every MapReduce flow shares: submit the map stage *guarded*
    /// (watched and healed by the recovery pass, never returned to the
    /// caller), build the reduce stage from its futures, and submit that.
    async fn submit_stages(
        &self,
        map_func: &str,
        mut map_stage: Stage,
        reduce_func: &str,
        reduce_specs: impl FnOnce(&[ResponseFuture]) -> Vec<TaskSpec>,
    ) -> Result<Vec<ResponseFuture>> {
        map_stage.guarded = true;
        let map_futures = self.submit(map_func, map_stage).await?;
        let reduce_stage = Stage {
            specs: reduce_specs(&map_futures),
            ..Stage::default()
        };
        self.submit(reduce_func, reduce_stage).await
    }

    /// [`map_reduce`](Executor::map_reduce) with per-job *extra data*: the
    /// entries of `extra` (a map value) are merged into every map task's
    /// input. This is how iterative algorithms ship small mutable state —
    /// e.g. the current k-means centroids — alongside the partitioned
    /// dataset, without re-uploading the data each round.
    ///
    /// # Errors
    ///
    /// Same as [`map_reduce`](Executor::map_reduce), plus
    /// [`PywrenError::Config`] if `extra` is not a [`Value::Map`].
    pub fn map_reduce_with_extra(
        &self,
        map_func: &str,
        source: DataSource,
        reduce_func: &str,
        opts: MapReduceOpts,
        extra: Value,
    ) -> Result<Vec<ResponseFuture>> {
        if extra.as_map().is_none() {
            return Err(PywrenError::Config("extra data must be a map value".into()));
        }
        let (mut map_stage, groups) = self.lower_source(&source, opts.chunk_size)?;
        map_stage.extra = Some(extra);
        task::block_on(self.submit_map_reduce(map_func, (map_stage, groups), reduce_func, opts))
    }

    /// Runs a MapReduce flow **with a shuffle stage**: `map_func` runs once
    /// per input/partition and must return a list of `{"k": key, "v":
    /// value}` pairs; the agents partition those pairs `opts.reducers` ways
    /// (`opts.partitioner`) into sorted per-reducer runs — one segment
    /// object per map, small runs inline in the map's status — then
    /// `opts.reducers` parallel reducers each merge their runs and receive
    /// `{"index", "groups": {key: [values…]}}` for their share of the key
    /// space. Non-blocking; the tracked futures are the reducer outputs, in
    /// reducer-index order.
    ///
    /// Data shuffling is what §2 of the paper singles out as the open
    /// challenge of serverless MapReduce. The exchange goes through object
    /// storage, the approach Corral/Lambada take.
    ///
    /// # Errors
    ///
    /// Unknown functions, discovery/staging storage errors, invocation
    /// errors, or [`PywrenError::Config`] for an inconsistent `opts`:
    /// `reducers` zero or beyond [`MAX_REDUCERS`], a zero `chunk_size`, a
    /// range partitioner whose boundaries don't match `reducers`, a
    /// `merge_fanin` below 2, or an unregistered `combiner`.
    pub fn map_shuffle_reduce(
        &self,
        map_func: &str,
        source: DataSource,
        reduce_func: &str,
        opts: ShuffleOpts,
    ) -> Result<Vec<ResponseFuture>> {
        if opts.reducers == 0 {
            return Err(PywrenError::Config(
                "shuffle needs at least one reducer".into(),
            ));
        }
        if opts.reducers > MAX_REDUCERS {
            return Err(PywrenError::Config(format!(
                "{} reducers exceeds the supported maximum of {MAX_REDUCERS}",
                opts.reducers
            )));
        }
        if opts.merge_fanin < 2 {
            return Err(PywrenError::Config("merge_fanin must be at least 2".into()));
        }
        opts.partitioner
            .validate(opts.reducers)
            .map_err(PywrenError::Config)?;
        if let Some(comb) = &opts.combiner {
            if !self.inner.cloud.registry().contains(comb) {
                return Err(PywrenError::Config(format!(
                    "combiner `{comb}` is not registered"
                )));
            }
        }
        let (mut map_stage, _groups) = self.lower_source(&source, opts.chunk_size)?;
        map_stage.specs = map_stage
            .specs
            .into_iter()
            .map(|inner| TaskSpec::ShuffleMap {
                inner: Box::new(inner),
                reducers: opts.reducers,
                partitioner: opts.partitioner.clone(),
                combiner: opts.combiner.clone(),
            })
            .collect();
        let stages = self.submit_stages(map_func, map_stage, reduce_func, |map_futures| {
            (0..opts.reducers)
                .map(|index| TaskSpec::ShuffleReduce {
                    bucket: Arc::clone(&self.inner.bucket),
                    exec_id: Arc::clone(&self.inner.exec_id),
                    // A map stage without tasks has no job to name and no
                    // dependency to wait for.
                    map_job: map_futures.first().map_or(0, ResponseFuture::job_id),
                    maps: map_futures.len() as u32,
                    index,
                    poll: REDUCE_POLL_INTERVAL,
                    reducers: opts.reducers,
                    fanin: opts.merge_fanin,
                })
                .collect()
        });
        task::block_on(stages)
    }

    /// Builds the pre-flight [`JobPlan`] the analyzer sees for `stage`
    /// submitted under the name `func`: task count, resolved spawn
    /// strategy, partition sizes, reducer fan-in, shuffle shape, plus the
    /// configured [`rustwren_analyze::PlanHints`]. `largest_desc` is the
    /// encoded length of the largest task descriptor, which sizes the
    /// per-task payload estimate (W003) *regardless* of inline eligibility — an
    /// oversized descriptor lands in container memory either way (inline in
    /// the activation payload, or staged and fetched whole), and filtering
    /// to inline-eligible ones once made exactly the pathological
    /// descriptors invisible to the analyzer.
    fn plan_for(&self, func: &str, stage: &Stage, largest_desc: Option<usize>) -> JobPlan {
        fn spec_bytes(spec: &TaskSpec) -> Option<u64> {
            match spec {
                TaskSpec::Partition(p) => Some(p.logical_len()),
                TaskSpec::ShuffleMap { inner, .. } => spec_bytes(inner),
                _ => None,
            }
        }
        let specs = stage.specs.as_slice();
        let mut plan = JobPlan::new(func, specs.len());
        plan.spawn = self.inner.config.spawn.profile_for(specs.len());
        plan.chunk_size = stage.chunk_size;
        plan.max_object_bytes = stage.max_object_bytes;
        plan.partition_bytes = specs.iter().filter_map(spec_bytes).collect();
        // A lone reducer consuming every map output is the W006 hot-spot;
        // sharded reduce stages (one task per group/index) spread the fan-in.
        plan.reducer_fanin = match specs {
            [TaskSpec::Reduce { deps, .. }] => Some(deps.len()),
            [TaskSpec::ShuffleReduce { maps, .. }] => Some(*maps as usize),
            _ => None,
        };
        // The shuffle's data-plane shape (map fan-out × partition count,
        // W008) is read off the map stage's specs.
        if let Some(TaskSpec::ShuffleMap { reducers, .. }) = specs.first() {
            plan.shuffle = Some(rustwren_analyze::ShuffleShape {
                maps: specs.len(),
                partitions: *reducers,
                segmented: true,
                via_relay: false,
            });
        }
        plan.est_payload_bytes = largest_desc.map(|b| b as u64);
        plan.retry_max_attempts = self.inner.config.retry.max_attempts.max(1);
        // At most one backup per task and MAX_SPECULATIVE per job: the
        // in-flight width speculation can add (W007, W009).
        plan.speculative_copies = if self.inner.config.speculation.enabled {
            specs.len().min(MAX_SPECULATIVE) as u32
        } else {
            0
        };
        // The submitting tenant's quota (W009): only platforms that define
        // a TenantConfig for this namespace have one.
        if let Some(quota) = self
            .inner
            .cloud
            .functions()
            .tenant_quota(&self.inner.namespace)
        {
            plan.tenant_namespace = Some(self.inner.namespace.clone());
            plan.tenant_quota = Some(quota);
        }
        plan.apply_hints(&self.inner.config.plan_hints);
        plan
    }

    /// Runs the pre-flight analyzer over an explicit [`JobPlan`] against
    /// this executor's platform limits, returning the findings without
    /// acting on them — the what-if API.
    pub fn analyze_plan(&self, plan: &JobPlan) -> Vec<Diagnostic> {
        let profile = CloudProfile::from(self.inner.cloud.functions().limits());
        analyze(plan, &profile)
    }

    /// Pre-flight gate: analyze the would-be job before anything is staged
    /// or invoked, honoring the configured [`AnalyzeMode`].
    fn preflight(&self, func: &str, stage: &Stage, largest_desc: Option<usize>) -> Result<()> {
        let mode = self.inner.config.analyze;
        if mode == AnalyzeMode::Off {
            return Ok(());
        }
        let plan = self.plan_for(func, stage, largest_desc);
        let diagnostics = self.analyze_plan(&plan);
        if diagnostics.is_empty() {
            return Ok(());
        }
        if mode == AnalyzeMode::Deny && diagnostics.iter().any(|d| d.severity == Severity::Error) {
            return Err(PywrenError::Plan { diagnostics });
        }
        for d in &diagnostics {
            // lint: allow(L005) — Warn mode's user-facing preflight report;
            // stderr is the contract (RUSTWREN_ANALYZE=warn)
            eprintln!("[rustwren-analyze] {d}");
        }
        Ok(())
    }

    /// Stages one job (function blob + per-task inputs), fires its
    /// invocations with the configured spawn strategy and, unless it is
    /// guarded, tracks its futures for `get_result`.
    async fn submit(&self, func: &str, stage: Stage) -> Result<Vec<ResponseFuture>> {
        // Size the task descriptors up front: the analyzer needs their sizes
        // (inline inputs count toward the activation payload), and each is
        // then written once, into a buffer of its size.
        let extra = stage.extra.as_ref();
        let lens: Vec<usize> = stage.specs.iter().map(|s| s.encoded_len(extra)).collect();
        self.preflight(func, &stage, lens.iter().copied().max())?;
        let registry = self.inner.cloud.registry();
        let Some(f) = registry.get(func) else {
            return Err(PywrenError::UnknownFunction(func.to_owned()));
        };
        let job_id = self.inner.job_seq.fetch_add(1, Ordering::Relaxed);
        let guarded = stage.guarded;
        self.inner.table.lock().jobs.insert(
            job_id,
            Job {
                func_name: func.to_owned(),
                guarded,
                retries_spent: 0,
                tasks: Vec::with_capacity(lens.len()),
            },
        );
        let bucket = &self.inner.config.storage_bucket;
        let exec_id = &self.inner.exec_id;

        // 1. Stage the "serialized function" once per job (checksum-stamped
        // and vouched for, like every staged object).
        let blob = crate::wire::stamp(&vec![0u8; f.code_size() as usize]);
        let key = func_key(exec_id, job_id);
        self.inner
            .cos_stage
            .put_vouched_async(bucket, &key, blob)
            .await?;

        // 2. Stage the per-task inputs from a client upload pool — except
        // descriptors small enough to ride inline in the activation payload,
        // which skip COS entirely (no input PUT here, no input GET in the
        // agent).
        let mut futures: Vec<ResponseFuture> = Vec::with_capacity(lens.len());
        let mut payloads: Vec<AgentPayload> = Vec::with_capacity(lens.len());
        let mut uploads: Vec<(String, Bytes)> = Vec::new();
        for (task, (spec, len)) in stage.specs.iter().zip(lens).enumerate() {
            let fut = self.future(job_id, task as u32);
            let inline = if len <= INLINE_MAX_BYTES {
                Some(spec.encode(Writer::new(len), extra))
            } else {
                uploads.push((fut.input_key(), spec.encode(Writer::stamped(len), extra)));
                None
            };
            payloads.push(AgentPayload::new(&fut, func, inline));
            futures.push(fut);
        }
        let stage = Arc::new((self.inner.cos_stage.clone(), bucket.clone()));
        let upload = move |(key, data): (String, Bytes)| {
            let stage = Arc::clone(&stage);
            async move { stage.0.put_vouched_async(&stage.1, &key, data).await }
        };
        rustwren_sim::fan_out("upload", UPLOAD_THREADS, uploads, upload).await?;

        // 3. Invoke.
        self.launch_first_attempts(payloads).await?;
        if !guarded {
            let mut table = self.inner.table.lock();
            table.pending.extend(futures.iter().cloned());
        }
        Ok(futures)
    }

    /// The one launch path for first attempts (a submitted job, a manual
    /// [`reinvoke`](Executor::reinvoke)): invokes one agent per payload with
    /// the configured spawn strategy and starts each task's recovery
    /// bookkeeping afresh, retaining its inline descriptor for re-shipping.
    async fn launch_first_attempts(&self, payloads: Vec<AgentPayload>) -> Result<()> {
        let ids = self.invoke_agents(&payloads).await?;
        let now = self.inner.cloud.kernel().now();
        let mut table = self.inner.table.lock();
        for (p, id) in payloads.into_iter().zip(ids) {
            // No job: a concurrent `clean` swept it mid-launch.
            let Some(job) = table.jobs.get_mut(&p.fut.job_id()) else {
                continue;
            };
            // A fresh first attempt (at submit, or by a manual `reinvoke`),
            // not a counted automatic retry.
            let fresh = TaskRecovery {
                inline: p.inline,
                attempts: 1,
                invoked_at: now,
                activation: id,
                ..TaskRecovery::default()
            };
            match job.tasks.get_mut(p.fut.task() as usize) {
                Some(task) => *task = fresh,
                // A submit launches tasks 0..n in order, so a task the job
                // does not hold yet is its next one.
                None => job.tasks.push(fresh),
            }
        }
        Ok(())
    }

    /// Invokes one agent per payload with the configured spawn strategy.
    async fn invoke_agents(&self, payloads: &[AgentPayload]) -> Result<Vec<Option<ActivationId>>> {
        let spawn = &self.inner.config.spawn;
        spawn_tasks(&self.inner.faas, spawn, &self.inner.agent_action, payloads).await
    }

    /// The automatic fault-recovery pass, run between status polls by
    /// [`wait`](Executor::wait) and [`resolve`](Executor::resolve). A no-op
    /// unless [`RetryPolicy`] or [`SpeculationConfig`] is enabled, so the
    /// default executor behaves exactly like the original IBM-PyWren
    /// client: failures surface from `get_result` and recovery is a manual
    /// [`reinvoke`](Executor::reinvoke).
    ///
    /// Three sub-passes:
    ///
    /// 1. **Classify completed statuses.** A status object's presence only
    ///    means a task *finished* — failed tasks leave `state = "error"`.
    ///    Newly completed tasks are verified once: successes record their
    ///    completion latency (feeding the speculation median); failures are
    ///    stripped of their status/result and re-scheduled with exponential
    ///    backoff while attempts remain.
    /// 2. **Handle pending tasks.** Due retries are re-invoked. Tasks with
    ///    no status are checked against the platform's activation outcome:
    ///    one that died without reporting (crash, timeout, lost status
    ///    write) is retried like any other failure — or, out of attempts,
    ///    has an error status written on its behalf so the job terminates
    ///    with a clear [`PywrenError::Task`] instead of polling forever.
    /// 3. **Speculate on stragglers.** Once enough of a job is done, tasks
    ///    out for longer than twice the median completion time get a
    ///    duplicate invocation; whichever copy finishes first supplies the
    ///    status and result (the agent never overwrites a `done` status
    ///    with an error).
    async fn recover(
        &self,
        watched: &[ResponseFuture],
        done: &mut DoneSet,
        listed_prefixes: u64,
    ) -> Result<()> {
        let (retry, speculation) = (&self.inner.config.retry, &self.inner.config.speculation);
        if !retry.enabled() && !speculation.enabled {
            return Ok(());
        }
        // The recovery pass derives "which tasks have a status" from the
        // poll tick's listing snapshot (`done`) instead of re-listing the
        // same prefixes itself — one LIST per prefix per cycle, not two.
        self.inner.table.lock().stats.lists_saved += listed_prefixes;
        self.classify_completed(watched, done, retry).await?;
        self.handle_pending(watched, done, retry).await?;
        if speculation.enabled {
            self.speculate(watched, done).await?;
        }
        Ok(())
    }

    /// Recovery sub-pass 1: see [`recover`](Executor::recover).
    async fn classify_completed(
        &self,
        watched: &[ResponseFuture],
        done: &mut DoneSet,
        retry: &RetryPolicy,
    ) -> Result<()> {
        let now = self.inner.cloud.kernel().now();
        let unclassified: Vec<(usize, &ResponseFuture)> = {
            let table = self.inner.table.lock();
            watched
                .iter()
                .enumerate()
                .filter(|(i, _)| done.contains(*i))
                .filter(|(_, f)| {
                    table
                        .task(f)
                        .is_some_and(|r| r.done_elapsed.is_none() && !r.exhausted)
                })
                .collect()
        };
        for (i, f) in unclassified {
            // A status that fails its checksum stamp is classified as an
            // error finish (and so retried/exhausted below) rather than
            // re-polled forever: the object itself may be damaged, so only
            // a re-execution reliably heals it.
            let key = f.status_key();
            let read = crate::job::get_verified_async(&self.inner.cos, f.bucket(), &key).await;
            let status = read.and_then(|raw| TaskStatus::decode(raw, f));
            let (succeeded, integrity) = match status {
                Ok(status) => (status.error().is_none(), false),
                Err(PywrenError::Integrity { .. }) => (false, true),
                // Intact bytes that are no status: finished, and failed.
                Err(PywrenError::Wire(_) | PywrenError::Task { .. }) => (false, false),
                Err(_) => {
                    // Vanished between LIST and GET, or unreachable this
                    // round: treat as still pending and re-poll.
                    done.remove(i);
                    continue;
                }
            };
            if succeeded {
                if let Some(r) = self.inner.table.lock().task_mut(f) {
                    r.done_elapsed = Some(now.duration_since(r.invoked_at).as_secs_f64());
                }
            } else if retry.enabled() && self.reserve_retry(f, retry) {
                // The task finished with an error status and has a retry left.
                if integrity {
                    self.inner.table.lock().stats.integrity_retries += 1;
                }
                self.schedule_retry(f, now).await?;
                done.remove(i);
            } else {
                let mut table = self.inner.table.lock();
                if integrity {
                    table.stats.integrity_failures += 1;
                }
                if retry.enabled() {
                    table.stats.retries_exhausted += 1;
                }
                if let Some(r) = table.task_mut(f) {
                    r.exhausted = true;
                }
                // Left in `done`: fetch_result surfaces the final error.
            }
        }
        Ok(())
    }

    /// Recovery sub-pass 2: see [`recover`](Executor::recover).
    async fn handle_pending(
        &self,
        watched: &[ResponseFuture],
        done: &mut DoneSet,
        retry: &RetryPolicy,
    ) -> Result<()> {
        enum Action {
            Reinvoke,
            Classify(ActivationId, u32),
            PresumeDead(u32),
        }
        let now = self.inner.cloud.kernel().now();
        let actions: Vec<(usize, &ResponseFuture, Action)> = {
            let table = self.inner.table.lock();
            watched
                .iter()
                .enumerate()
                .filter(|(i, _)| !done.contains(*i))
                .filter_map(|(i, f)| {
                    let r = table.task(f).filter(|r| !r.exhausted)?;
                    let action = match (r.retry_at, r.activation) {
                        (Some(t), _) if now >= t => Action::Reinvoke,
                        (Some(_), _) => return None,
                        (None, Some(id)) if retry.enabled() => Action::Classify(id, r.attempts),
                        // No activation id (remote-invoker spawning) and no
                        // status: if the task has been out past the
                        // presumed-dead deadline, its invoker likely died
                        // before ever spawning it.
                        (None, None)
                            if retry.enabled()
                                && retry.presumed_dead_after.is_some_and(|dead| {
                                    now.duration_since(r.invoked_at) >= dead
                                }) =>
                        {
                            Action::PresumeDead(r.attempts)
                        }
                        (None, _) => return None,
                    };
                    Some((i, f, action))
                })
                .collect()
        };
        for (i, f, action) in actions {
            match action {
                Action::Reinvoke => self.relaunch(f, false).await?,
                Action::Classify(id, attempts) => {
                    let Some(outcome) = self.inner.cloud.functions().outcome(id) else {
                        continue; // still running
                    };
                    // The activation finished but left no status: a silent
                    // death (crash, timeout, or lost status write).
                    let (retryable, message) = match &outcome {
                        Outcome::Success => continue, // status write in flight
                        Outcome::Failed(m) => (true, format!("died without status: {m}")),
                        Outcome::Crashed(m) => (true, format!("crashed: {m}")),
                        Outcome::TimedOut => {
                            (false, "hit the platform execution time limit".to_owned())
                        }
                    };
                    if retryable && self.reserve_retry(f, retry) {
                        self.schedule_retry(f, now).await?;
                    } else {
                        // Out of attempts (or unretryable): write the error
                        // status the agent could not, so the job terminates
                        // with a diagnosable failure instead of hanging.
                        let message = format!("{message} (after {attempts} attempt(s))");
                        self.repair_status(f, &message, retryable, now).await?;
                        done.insert(i);
                    }
                }
                Action::PresumeDead(attempts) => {
                    if self.reserve_retry(f, retry) {
                        // Same treatment as a silent death.
                        self.schedule_retry(f, now).await?;
                    } else {
                        let dead = retry.presumed_dead_after.unwrap_or_default();
                        let message = format!(
                            "presumed dead: no activation and no status after {dead:?} \
                             (after {attempts} attempt(s))"
                        );
                        self.repair_status(f, &message, true, now).await?;
                        done.insert(i);
                    }
                }
            }
        }
        Ok(())
    }

    /// Deletes `f`'s completion markers, so that polling sees the rerun and
    /// not the attempt before it.
    async fn clear_completion(&self, f: &ResponseFuture) -> Result<()> {
        let cos = &self.inner.cos;
        cos.delete_async(f.bucket(), &f.status_key()).await?;
        cos.delete_async(f.bucket(), &f.result_key()).await?;
        Ok(())
    }

    /// Books one automatic re-invocation of `f`'s task: `true` when the
    /// task has attempts left and its job has retry budget left. Otherwise
    /// `false` — counting the denial when it was
    /// [`RetryPolicy::job_retry_budget`] that ran out — and the task
    /// surfaces its final error instead of retrying against a sick
    /// platform.
    fn reserve_retry(&self, f: &ResponseFuture, retry: &RetryPolicy) -> bool {
        let mut table = self.inner.table.lock();
        let Some(job) = table.job_mut(f) else {
            return false;
        };
        let attempts_left = job
            .tasks
            .get(f.task() as usize)
            .is_some_and(|r| r.attempts < retry.max_attempts);
        if !attempts_left {
            return false;
        }
        if retry
            .job_retry_budget
            .is_some_and(|budget| job.retries_spent >= budget)
        {
            table.stats.retries_denied_budget += 1;
            return false;
        }
        job.retries_spent += 1;
        true
    }

    /// Gives a failed or silently dead task another execution: drops the
    /// last one's partial writes (an error status, a result without a
    /// status, a status that landed after our LIST) and schedules the
    /// re-invocation after a backoff.
    async fn schedule_retry(&self, f: &ResponseFuture, now: SimInstant) -> Result<()> {
        self.clear_completion(f).await?;
        if let Some(r) = self.inner.table.lock().task_mut(f) {
            let key = (f.job_id(), f.task());
            r.retry_at = Some(self.retry_deadline(key, r.attempts, now));
        }
        Ok(())
    }

    /// Writes a (stamped) error status on behalf of a task that died
    /// without reporting one, and marks it exhausted: whatever error status
    /// is in COS is final. `out_of_retries` says the task would have been
    /// retried had it attempts and budget left.
    async fn repair_status(
        &self,
        f: &ResponseFuture,
        message: &str,
        out_of_retries: bool,
        now: SimInstant,
    ) -> Result<()> {
        let start = self
            .inner
            .table
            .lock()
            .task(f)
            .map_or(0.0, |r| r.invoked_at.as_secs_f64());
        let status = TaskStatus::new(Some(message), start, now.as_secs_f64());
        status.put_async(&self.inner.cos, f).await?;
        let mut table = self.inner.table.lock();
        table.stats.statuses_repaired += 1;
        if out_of_retries {
            table.stats.retries_exhausted += 1;
        }
        if let Some(r) = table.task_mut(f) {
            r.exhausted = true;
        }
        Ok(())
    }

    /// Recovery sub-pass 3: see [`recover`](Executor::recover).
    async fn speculate(&self, watched: &[ResponseFuture], done: &DoneSet) -> Result<()> {
        let now = self.inner.cloud.kernel().now();
        let mut stragglers: Vec<&ResponseFuture> = Vec::new();
        {
            let table = self.inner.table.lock();
            // Tasks still out and eligible for a backup copy, with how long
            // they have been out, by job: relaunches are issued in job-id
            // order (relaunch order is sim-visible).
            let mut candidates: BTreeMap<u64, Vec<(&ResponseFuture, f64)>> = BTreeMap::new();
            let pending = watched
                .iter()
                .enumerate()
                .filter(|(i, _)| !done.contains(*i));
            for (_, f) in pending {
                let eligible = table.task(f).filter(|r| {
                    r.done_elapsed.is_none()
                        && !r.exhausted
                        && !r.speculated
                        && r.retry_at.is_none()
                });
                if let Some(r) = eligible {
                    candidates
                        .entry(f.job_id())
                        .or_default()
                        .push((f, now.duration_since(r.invoked_at).as_secs_f64()));
                }
            }
            for (job_id, candidates) in candidates {
                let Some(job) = table.jobs.get(&job_id) else {
                    continue;
                };
                let mut elapsed: Vec<f64> =
                    job.tasks.iter().filter_map(|r| r.done_elapsed).collect();
                if elapsed.len() < SPECULATE_MIN_DONE
                    || (elapsed.len() as f64) < SPECULATE_DONE_FRACTION * job.tasks.len() as f64
                {
                    continue;
                }
                elapsed.sort_by(f64::total_cmp);
                let Some(median) = elapsed.get(elapsed.len() / 2) else {
                    continue;
                };
                let threshold = STRAGGLER_FACTOR * median;
                let speculated = job.tasks.iter().filter(|r| r.speculated).count();
                stragglers.extend(
                    candidates
                        .into_iter()
                        .filter(|(_, pending_for)| *pending_for > threshold)
                        .map(|(f, _)| f)
                        .take(MAX_SPECULATIVE.saturating_sub(speculated)),
                );
            }
        }
        for f in stragglers {
            self.relaunch(f, true).await?;
        }
        Ok(())
    }

    /// Re-invokes one task: as a fresh primary attempt (retry), or as a
    /// duplicate backup copy (speculation) that leaves the primary's
    /// bookkeeping untouched.
    async fn relaunch(&self, f: &ResponseFuture, speculative: bool) -> Result<()> {
        let Some(payload) = self.inner.table.lock().payload(f) else {
            return Ok(());
        };
        let ids = self.invoke_agents(&[payload]).await?;
        let id = ids.into_iter().next().flatten();
        let now = self.inner.cloud.kernel().now();
        let mut table = self.inner.table.lock();
        let Some(r) = table.task_mut(f) else {
            return Ok(());
        };
        if speculative {
            r.speculated = true;
            table.stats.speculative_launches += 1;
        } else {
            r.attempts += 1;
            r.invoked_at = now;
            r.activation = id;
            r.retry_at = None;
            table.stats.retries += 1;
        }
        Ok(())
    }

    /// When the next retry of task `key` should fire: jittered backoff,
    /// pushed past any open `retry_after` circuit-breaker deadline the
    /// platform has published (so a fleet under 429 pressure drains
    /// instead of amplifying).
    fn retry_deadline(&self, key: (u64, u32), attempts: u32, now: SimInstant) -> SimInstant {
        let at = now + backoff_delay(key, attempts);
        match self.inner.throttle_signal.open_until(now) {
            Some(open) => at.max(open),
            None => at,
        }
    }

    /// Counters of the automatic fault recovery performed so far.
    pub fn recovery_stats(&self) -> RecoveryStats {
        let stats = self.inner.table.lock().stats;
        RecoveryStats {
            faults_injected: self
                .inner
                .cloud
                .kernel()
                .chaos()
                .map_or(0, |c| c.stats().total()),
            ..stats
        }
    }

    /// Per-phase COS operation counts for this executor: client-side
    /// staging, client-side polling/gathering, and in-cloud agent traffic.
    /// The agent phase is tallied by the FaaS platform, so it covers every
    /// executor sharing the cloud; the client phases are exclusively this
    /// executor's. Benches and tests assert operation budgets from these
    /// instead of inferring them from virtual timings.
    pub fn cos_op_stats(&self) -> CosOpStats {
        CosOpStats {
            staging: self.inner.cos_stage.counters().snapshot(),
            polling: self.inner.cos.counters().snapshot(),
            agent: self.inner.cloud.functions().agent_op_counts(),
        }
    }

    /// Splits the tracked futures into `(done, pending)` under `policy`
    /// (§4.2 `wait`): `Always` returns immediately; `AnyCompleted` blocks
    /// until at least one task is done; `AllCompleted` blocks until all are.
    ///
    /// # Errors
    ///
    /// Storage errors from status polling.
    pub fn wait(&self, policy: WaitPolicy) -> Result<(Vec<ResponseFuture>, Vec<ResponseFuture>)> {
        let tracked: Vec<ResponseFuture> = self.inner.table.lock().pending.clone();
        if tracked.is_empty() {
            return Ok((Vec::new(), Vec::new()));
        }
        let done = task::block_on(self.poll_until(&tracked, |done| {
            let done_tracked = (0..tracked.len()).filter(|&i| done.contains(i)).count();
            Ok(match policy {
                WaitPolicy::Always => true,
                WaitPolicy::AnyCompleted => done_tracked > 0,
                WaitPolicy::AllCompleted => done_tracked == tracked.len(),
            })
        }))?;
        let (mut finished, mut pending) = (Vec::new(), Vec::new());
        for (i, f) in tracked.into_iter().enumerate() {
            if done.contains(i) {
                finished.push(f);
            } else {
                pending.push(f);
            }
        }
        Ok((finished, pending))
    }

    /// The one poll loop behind [`wait`](Executor::wait) and
    /// [`resolve`](Executor::resolve). Each tick takes one listing snapshot
    /// of which of `futures` and the [guarded](Executor::with_guarded)
    /// stages' futures have a status object, runs the
    /// [`recover`](Executor::recover) pass over it — which consumes the same
    /// snapshot instead of re-listing the identical prefixes in the same
    /// cycle, and accounts the operations it avoided
    /// ([`RecoveryStats::lists_saved`]) — and asks `satisfied` about the
    /// resulting done set; then sleeps one poll interval. Returns the done
    /// set `satisfied` accepted, or its error (a deadline is its business).
    /// The done set is indexed like `futures`, which lead the watched
    /// slice.
    /// With retry on, up to [`MAX_POLL_FAILURES`] consecutive failed ticks
    /// are ridden out.
    async fn poll_until(
        &self,
        futures: &[ResponseFuture],
        mut satisfied: impl FnMut(&DoneSet) -> Result<bool>,
    ) -> Result<DoneSet> {
        let watched = self.with_guarded(futures);
        let watch = StatusWatch::new(&watched);
        let mut done = watch.done_set();
        let retrying = self.inner.config.retry.enabled();
        let mut poll_failures = 0u32;
        loop {
            let tick = async {
                let landed = watch.landed(&self.inner.cos).await?;
                done.clear();
                for i in landed {
                    done.insert(i);
                }
                self.recover(&watched, &mut done, watch.prefixes()).await
            };
            match tick.await {
                Ok(()) => {
                    poll_failures = 0;
                    if satisfied(&done)? {
                        return Ok(done);
                    }
                }
                Err(_) if retrying && poll_failures < MAX_POLL_FAILURES => poll_failures += 1,
                Err(e) => return Err(e),
            }
            task::sleep(self.inner.config.poll_interval).await;
        }
    }

    /// Collects the results of every tracked future, in submission order,
    /// then clears the tracked set (§4.2 `get_result`). Composition-aware:
    /// results that are future-sets (returned by in-cloud executors) are
    /// awaited transparently.
    ///
    /// # Errors
    ///
    /// [`PywrenError::Task`] if any task failed, storage errors from
    /// polling/fetching.
    pub fn get_result(&self) -> Result<Vec<Value>> {
        self.get_result_with(GetResultOpts::default())
    }

    /// [`get_result`](Executor::get_result) with a timeout and/or progress
    /// callback.
    ///
    /// # Errors
    ///
    /// Additionally [`PywrenError::Timeout`] if the deadline passes.
    pub fn get_result_with(&self, opts: GetResultOpts) -> Result<Vec<Value>> {
        let futures: Vec<ResponseFuture> = std::mem::take(&mut self.inner.table.lock().pending);
        let result = self.resolve(&futures, &opts);
        // The jobs behind these futures are finished (or surfaced a final
        // error); their internal stages no longer need guarding.
        for job in self.inner.table.lock().jobs.values_mut() {
            job.guarded = false;
        }
        result
    }

    /// The union of `futures` and the guarded internal-stage futures, for
    /// the poll/recover loop to watch.
    fn with_guarded(&self, futures: &[ResponseFuture]) -> Vec<ResponseFuture> {
        let mut watched = futures.to_vec();
        let table = self.inner.table.lock();
        for (&job_id, job) in table.jobs.iter().filter(|(_, job)| job.guarded) {
            for task in 0..job.tasks.len() as u32 {
                let g = self.future(job_id, task);
                if !futures.contains(&g) {
                    watched.push(g);
                }
            }
        }
        watched
    }

    /// The future of task `task` of this executor's job `job_id`.
    fn future(&self, job_id: u64, task: u32) -> ResponseFuture {
        ResponseFuture::named(&self.inner.bucket, &self.inner.exec_id, job_id, task)
    }

    /// Resolves an explicit set of futures (used by composition and tests).
    ///
    /// # Errors
    ///
    /// Same as [`get_result_with`](Executor::get_result_with).
    pub fn resolve(&self, futures: &[ResponseFuture], opts: &GetResultOpts) -> Result<Vec<Value>> {
        task::block_on(self.resolve_async(futures, opts))
    }

    /// [`resolve`](Executor::resolve) as resumable code, which `resolve`
    /// drives on the caller's thread; see [`map_async`](Executor::map_async).
    ///
    /// # Errors
    ///
    /// As [`resolve`](Executor::resolve).
    pub async fn resolve_async(
        &self,
        futures: &[ResponseFuture],
        opts: &GetResultOpts,
    ) -> Result<Vec<Value>> {
        let deadline = opts.timeout.map(|t| self.inner.cloud.kernel().now() + t);
        self.resolve_by(futures, deadline, opts.progress.as_deref())
            .await
    }

    /// [`resolve_async`](Executor::resolve_async) by an absolute `deadline`:
    /// a composed result's sub-job is awaited by the same deadline, and
    /// reports no progress.
    async fn resolve_by(
        &self,
        futures: &[ResponseFuture],
        deadline: Option<SimInstant>,
        progress: Option<&(dyn Fn(usize, usize) + Send + Sync)>,
    ) -> Result<Vec<Value>> {
        if futures.is_empty() {
            return Ok(Vec::new());
        }
        self.poll_until(futures, |done| {
            let done_tracked = (0..futures.len()).filter(|&i| done.contains(i)).count();
            if let Some(cb) = progress {
                cb(done_tracked, futures.len());
            }
            if done_tracked == futures.len() {
                return Ok(true);
            }
            match deadline {
                Some(d) if self.inner.cloud.kernel().now() >= d => Err(PywrenError::Timeout {
                    done: done_tracked,
                    pending: futures.len() - done_tracked,
                }),
                _ => Ok(false),
            }
        })
        .await?;

        // Download results from a client pool, as the Python client does —
        // serial WAN fetches would dwarf the job itself at scale.
        if let [only] = futures {
            return Ok(vec![self.fetch_result(only, deadline).await?]);
        }
        let exec = self.clone();
        let fetch = move |f: ResponseFuture| {
            let exec = exec.clone();
            async move { exec.fetch_result(&f, deadline).await }
        };
        rustwren_sim::fan_out("results", UPLOAD_THREADS, futures.to_vec(), fetch).await
    }

    /// Reads a checksum-stamped staged object, re-fetching up to
    /// [`INTEGRITY_REFETCHES`] times on stamp failures (the stored object is
    /// intact; only the read path corrupts). Healed refetches count as
    /// integrity retries; an exhausted budget surfaces the typed
    /// [`PywrenError::Integrity`] error and counts as an integrity failure.
    async fn fetch_verified(&self, bucket: &str, key: &str) -> Result<Bytes> {
        let mut integrity_attempts = 0u32;
        let mut storage_attempts = 0u32;
        loop {
            match crate::job::get_verified_async(&self.inner.cos, bucket, key).await {
                Ok(payload) => {
                    if integrity_attempts > 0 {
                        self.inner.table.lock().stats.integrity_retries += 1;
                    }
                    return Ok(payload);
                }
                Err(e @ PywrenError::Integrity { .. }) => {
                    integrity_attempts += 1;
                    if integrity_attempts > INTEGRITY_REFETCHES {
                        self.inner.table.lock().stats.integrity_failures += 1;
                        return Err(e);
                    }
                }
                // With retry on, ride out transient storage failures the
                // same way the polling loop does — the COS client's own
                // per-request retries have already been exhausted here.
                Err(e @ PywrenError::Storage(_)) if self.inner.config.retry.enabled() => {
                    storage_attempts += 1;
                    if storage_attempts > INTEGRITY_REFETCHES {
                        return Err(e);
                    }
                    task::sleep(self.inner.config.poll_interval).await;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Fetches one completed task's result, following future-set markers:
    /// a sub-job is awaited in place, by the caller's `deadline`.
    async fn fetch_result(
        &self,
        f: &ResponseFuture,
        deadline: Option<SimInstant>,
    ) -> Result<Value> {
        let status = self.fetch_verified(f.bucket(), &f.status_key()).await?;
        let staged = async { self.fetch_verified(f.bucket(), &f.result_key()).await };
        let value = TaskStatus::decode(status, f)?
            .into_result(f, staged)
            .await?;
        match ResponseFuture::set_from_value(&value) {
            Ok(Some(subfutures)) => {
                // Composition-aware: transparently await the sub-job. A
                // single-future set (e.g. one sequence stage) yields its
                // bare value; fan-outs yield the list.
                let sub = self.resolve_nested(&subfutures, deadline).await?;
                Ok(<[Value; 1]>::try_from(sub).map_or_else(Value::List, |[only]| only))
            }
            Ok(None) => Ok(value),
            Err(m) => Err(PywrenError::Task {
                task: f.label(),
                message: format!("malformed future set: {m}"),
            }),
        }
    }

    /// [`resolve_by`](Executor::resolve_by), boxed as the named `Send`
    /// future that `fetch_result`'s recursion through a sub-job needs.
    fn resolve_nested<'a>(
        &'a self,
        futures: &'a [ResponseFuture],
        deadline: Option<SimInstant>,
    ) -> Pin<Box<dyn Future<Output = Result<Vec<Value>>> + Send + 'a>> {
        Box::pin(self.resolve_by(futures, deadline, None))
    }

    /// Number of futures currently tracked for `get_result`.
    pub fn pending_count(&self) -> usize {
        self.inner.table.lock().pending.len()
    }

    /// Deletes every COS object this executor staged (function blobs,
    /// inputs, statuses, results, shuffle partitions) — PyWren's `clean()`.
    /// Returns how many objects were removed. Pending futures and every
    /// job record are forgotten: resolving or re-invoking previously
    /// returned futures afterwards will fail.
    ///
    /// # Errors
    ///
    /// Storage errors from listing or deleting.
    pub fn clean(&self) -> Result<usize> {
        let bucket = &self.inner.config.storage_bucket;
        let prefix = exec_prefix(&self.inner.exec_id);
        let mut keys = Vec::new();
        let listing = self.inner.cos.list_each_async(bucket, &prefix, |o| {
            keys.push(o.key().to_owned());
        });
        task::block_on(listing)?;
        for key in &keys {
            self.inner.cos.delete(bucket, key)?;
        }
        self.inner.cloud.inner.statuses.forget(&prefix);
        // The objects the table describes are gone; an entry kept here would
        // outlive them (each task retains its inline descriptor) and let
        // `reinvoke` launch agents that can only fail.
        let mut table = self.inner.table.lock();
        table.stats.cleaned_objects += keys.len() as u64;
        table.clear();
        Ok(keys.len())
    }

    /// Re-invokes tasks of this executor (e.g. after a
    /// [`PywrenError::Task`] from `get_result`): staged inputs are still in
    /// COS and inline inputs are re-shipped from the executor's retained
    /// descriptors, so the agents simply run again, overwriting the old
    /// status and result. The futures are tracked again for `get_result`.
    ///
    /// # Errors
    ///
    /// [`PywrenError::UnknownFunction`] for futures of other executors, or
    /// of jobs swept by [`clean`](Executor::clean) (their function is
    /// unknown here) — checked for every future before anything is touched
    /// — storage errors while clearing old statuses, or invocation errors.
    pub fn reinvoke(&self, futures: &[ResponseFuture]) -> Result<()> {
        let payloads = {
            let table = self.inner.table.lock();
            futures
                .iter()
                .map(|f| {
                    table.payload(f).ok_or_else(|| {
                        PywrenError::UnknownFunction(format!(
                            "task {} is not one this executor submitted and still holds",
                            f.label()
                        ))
                    })
                })
                .collect::<Result<Vec<_>>>()?
        };
        task::block_on(async {
            for f in futures {
                self.clear_completion(f).await?;
            }
            self.launch_first_attempts(payloads).await
        })?;
        self.inner
            .table
            .lock()
            .pending
            .extend(futures.iter().cloned());
        Ok(())
    }

    /// Fetches the execution metadata the agents recorded in each task's
    /// status object ("some metadata about the status of the invocations,
    /// such as execution times, are stored back in COS" — §4.2). The tasks
    /// must have completed.
    ///
    /// # Errors
    ///
    /// Storage errors, or [`PywrenError::Task`] for statuses that are
    /// missing or malformed.
    pub fn task_timings(&self, futures: &[ResponseFuture]) -> Result<Vec<TaskTiming>> {
        task::block_on(async {
            let mut timings = Vec::with_capacity(futures.len());
            for f in futures {
                let raw = self.fetch_verified(f.bucket(), &f.status_key()).await?;
                let status = TaskStatus::decode(raw, f)?;
                timings.push(TaskTiming {
                    task: f.label(),
                    start_secs: status.start,
                    end_secs: status.end,
                    succeeded: status.error().is_none(),
                });
            }
            Ok(timings)
        })
    }
}

/// Per-task execution metadata recovered from a status object.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskTiming {
    /// Task label, e.g. `"e1/2/t00003"`.
    pub task: String,
    /// Virtual time the function body started, in seconds.
    pub start_secs: f64,
    /// Virtual time the function body ended, in seconds.
    pub end_secs: f64,
    /// Whether the task reported success.
    pub succeeded: bool,
}

impl TaskTiming {
    /// Execution duration in seconds.
    pub fn duration_secs(&self) -> f64 {
        (self.end_secs - self.start_secs).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::TaskSpec;
    use crate::task::TaskCtx;

    /// Regression (W003 blind spot): descriptors above the inline-payload
    /// threshold must still size `est_payload_bytes` — they land in
    /// container memory whether inlined or staged-and-fetched.
    #[test]
    fn plan_counts_oversized_descriptors_toward_payload_estimate() {
        let cloud = crate::SimCloud::builder().seed(5).build();
        cloud.register_fn("id", |_ctx: &TaskCtx, v: Value| Ok(v));
        cloud.run(|| {
            let exec = cloud.executor().build().unwrap();
            let big = Value::bytes(vec![7u8; 2 * 1024 * 1024]);
            let small = Value::Int(1);
            let stage = |specs: &[TaskSpec]| Stage {
                specs: specs.to_vec(),
                ..Stage::default()
            };
            let specs = [TaskSpec::Value(small.clone()), TaskSpec::Value(big.clone())];
            let largest = |specs: &[TaskSpec]| specs.iter().map(|s| s.encoded_len(None)).max();
            let plan = exec.plan_for("id", &stage(&specs), largest(&specs));
            let est = plan.est_payload_bytes.expect("estimate present");
            assert!(
                est >= 2 * 1024 * 1024,
                "largest descriptor must size the estimate, got {est}"
            );

            // Small-only jobs keep a small estimate — the fix widens what
            // is counted, not the numbers themselves.
            let plan = exec.plan_for("id", &stage(&specs[..1]), largest(&specs[..1]));
            assert!(plan.est_payload_bytes.expect("estimate") < 1024);
        });
    }

    /// Executors once seeded their COS/FaaS jitter from the *length* of
    /// their id, so `e1`…`e9` drew one stream: the same request at the same
    /// instant cost every one of them the same.
    #[test]
    fn executor_jitter_is_seeded_by_the_executor_id() {
        // What the cloud's first two executors are each charged for the
        // same GET issued at the same virtual instant.
        let charges = |seed: u64| -> Vec<Duration> {
            let cloud = crate::SimCloud::builder().seed(seed).build();
            cloud.store().ensure_bucket("b");
            cloud
                .store()
                .put("b", "k", Bytes::from_static(b"payload"))
                .expect("stages");
            cloud.run(|| {
                let execs: Vec<Executor> = (0..2)
                    .map(|_| cloud.executor().build().expect("builds"))
                    .collect();
                let probe = |exec: Executor| async move {
                    let issued = rustwren_sim::now();
                    exec.inner.cos.get_async("b", "k").await?;
                    Ok::<_, PywrenError>(rustwren_sim::now().duration_since(issued))
                };
                task::block_on(rustwren_sim::fan_out("probe", execs.len(), execs, probe))
                    .expect("both GETs succeed")
            })
        };
        let (first, again) = (charges(5), charges(5));
        assert_ne!(first[0], first[1], "e1 and e2 drew the same jitter");
        assert_eq!(first, again, "same seed, same executor: same charge");
    }

    /// The recovery pass is the same code on either vehicle: one job, with
    /// crashes taking some first attempts and a straggler drawing a
    /// speculative copy, resolved once by the blocking `resolve` on the
    /// client's thread and once by `resolve_async` in a light task, retries
    /// and speculates the same way at the same virtual instants.
    #[test]
    fn the_recovery_pass_runs_the_same_in_a_light_task() {
        let run = |light: bool| {
            let plan = rustwren_sim::FaultPlan::new(5)
                .crash(
                    crate::PHASE_AFTER_COMPUTE,
                    rustwren_sim::TimeWindow::always(),
                    0.5,
                )
                .limit_fires(3);
            let cloud = crate::SimCloud::builder()
                .seed(23)
                .client_network(NetworkProfile::lan())
                .chaos(plan)
                .build();
            cloud.register_resumable_fn("nap", |ctx: TaskCtx, v: Value| async move {
                let x = v.as_i64().ok_or("int")?;
                let secs = if x == 11 { 20.0 } else { 0.2 };
                task::sleep(ctx.activation().scaled(Duration::from_secs_f64(secs))).await;
                Ok(Value::Int(x + 1))
            });
            let observed = cloud.run(|| {
                let exec = cloud
                    .executor()
                    .retry(RetryPolicy::with_attempts(3))
                    .speculation(SpeculationConfig::on())
                    .build()
                    .unwrap();
                let futures = exec.map("nap", (0..12).map(Value::Int)).unwrap();
                let results = if light {
                    let slot = Arc::new(parking_lot::Mutex::new(None));
                    let done = rustwren_sim::sync::Event::new(&rustwren_sim::kernel());
                    let (resolver, filled, fired) = (exec.clone(), Arc::clone(&slot), done.clone());
                    let resolve = async move {
                        let results = resolver
                            .resolve_async(&futures, &GetResultOpts::default())
                            .await;
                        *filled.lock() = Some(results);
                        fired.fire();
                    };
                    rustwren_sim::spawn_light("resolver", task::light(resolve));
                    done.wait();
                    let results = slot.lock().take();
                    results.expect("the light task resolved the job")
                } else {
                    exec.resolve(&futures, &GetResultOpts::default())
                };
                // The straggler's primary runs out either way.
                rustwren_sim::sleep(Duration::from_secs(60));
                (results, exec.recovery_stats(), exec.cos_op_stats())
            });
            (observed, cloud.kernel().now())
        };
        let blocking = run(false);
        assert_eq!(blocking, run(true));
        let ((results, recovery, _), _) = &blocking;
        assert_eq!(results, &Ok((1..=12).map(Value::Int).collect::<Vec<_>>()));
        assert!(recovery.retries > 0, "{recovery:?}");
        assert!(recovery.speculative_launches > 0, "{recovery:?}");
    }

    /// W009 wiring: an executor bound to a configured tenant namespace
    /// stamps that tenant's quota onto the plan; the default namespace on
    /// a tenant-less platform stamps nothing.
    #[test]
    fn plan_carries_the_submitting_tenants_quota() {
        let platform = rustwren_faas::PlatformConfig {
            tenants: vec![rustwren_faas::TenantConfig::new("acme", 2)],
            ..rustwren_faas::PlatformConfig::default()
        };
        let cloud = crate::SimCloud::builder()
            .seed(5)
            .platform(platform)
            .build();
        cloud.register_fn("id", |_ctx: &TaskCtx, v: Value| Ok(v));
        cloud.run(|| {
            let exec = cloud.executor().namespace("acme").build().unwrap();
            let stage = Stage {
                specs: (0..5).map(|i| TaskSpec::Value(Value::Int(i))).collect(),
                ..Stage::default()
            };
            let largest = stage.specs.iter().map(|s| s.encoded_len(None)).max();
            let plan = exec.plan_for("id", &stage, largest);
            assert_eq!(plan.tenant_namespace.as_deref(), Some("acme"));
            assert_eq!(plan.tenant_quota, Some(2));
            assert!(
                exec.analyze_plan(&plan)
                    .iter()
                    .any(|d| d.rule == rustwren_analyze::Rule::W009),
                "a 5-task wave against a quota of 2 must trip W009"
            );

            // Default namespace with no TenantConfig: no quota on the plan.
            let exec = cloud.executor().build().unwrap();
            let plan = exec.plan_for("id", &stage, largest);
            assert_eq!(plan.tenant_quota, None);
            assert!(
                !exec
                    .analyze_plan(&plan)
                    .iter()
                    .any(|d| d.rule == rustwren_analyze::Rule::W009),
                "no tenant, no W009"
            );
        });
    }

    /// What the done set must keep from tick to tick, through the public
    /// `wait`: a landed error status that the retry clears is not done, on
    /// its tick or the next; a status repaired for a task that died without
    /// one is done on the tick that wrote it; a future tracked twice is done
    /// or pending twice; and each side of the split keeps submission order.
    #[test]
    fn done_set_follows_retries_repairs_and_duplicates_tick_by_tick() {
        // Task 2's agent dies after computing, with no status written.
        let plan = rustwren_sim::FaultPlan::new(7).crash(
            crate::PHASE_AFTER_COMPUTE,
            rustwren_sim::TimeWindow::between(Duration::from_secs(8), Duration::from_secs(14)),
            1.0,
        );
        let cloud = crate::SimCloud::builder()
            .seed(31)
            .client_network(NetworkProfile::lan())
            .chaos(plan)
            .build();
        let failed_once = Arc::new(parking_lot::Mutex::new(false));
        let first = Arc::clone(&failed_once);
        cloud.register_resumable_fn("step", move |ctx: TaskCtx, v: Value| {
            let first = Arc::clone(&first);
            async move {
                let x = v.as_i64().ok_or("int")?;
                let secs = [1.0, 0.2, 10.0, 25.0]
                    .get(x as usize)
                    .copied()
                    .unwrap_or(1.0);
                task::sleep(ctx.activation().scaled(Duration::from_secs_f64(secs))).await;
                // Task 1's first attempt fails.
                if x == 1 && !std::mem::replace(&mut *first.lock(), true) {
                    return Err("first attempt fails".to_owned());
                }
                Ok(Value::Int(x))
            }
        });
        let (splits, stats, result) = cloud.run(|| {
            // One retry for the whole job: task 1's takes it, so task 2's
            // death is repaired instead.
            let retry = RetryPolicy {
                job_retry_budget: Some(1),
                ..RetryPolicy::with_attempts(2)
            };
            let exec = cloud.executor().retry(retry).build().unwrap();
            let futures = exec.map("step", (0..4).map(Value::Int)).unwrap();
            let tasks = |fs: Vec<ResponseFuture>| fs.iter().map(|f| f.task()).collect::<Vec<_>>();
            let split = |policy| {
                let (done, pending) = exec.wait(policy).unwrap();
                (tasks(done), tasks(pending))
            };
            let mut splits = vec![split(WaitPolicy::AnyCompleted), split(WaitPolicy::Always)];
            rustwren_sim::sleep(Duration::from_secs(18));
            splits.push(split(WaitPolicy::Always));
            let repaired = exec.recovery_stats().statuses_repaired;
            exec.reinvoke(&futures[..1]).unwrap();
            splits.push(split(WaitPolicy::Always));
            splits.push(split(WaitPolicy::AllCompleted));
            (
                splits,
                (repaired, exec.recovery_stats().retries),
                exec.get_result(),
            )
        });
        let split = |done: &[u32], pending: &[u32]| (done.to_vec(), pending.to_vec());
        assert_eq!(
            splits,
            vec![
                split(&[0], &[1, 2, 3]),
                split(&[0], &[1, 2, 3]),
                split(&[0, 1, 2], &[3]),
                split(&[1, 2], &[0, 3, 0]),
                split(&[0, 1, 2, 3, 0], &[]),
            ]
        );
        assert_eq!(stats, (1, 1));
        let err = result.unwrap_err().to_string();
        assert!(err.contains("crashed"), "{err}");
    }
}
