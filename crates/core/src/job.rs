//! Job staging and the in-cloud function agent.
//!
//! A *job* is one `call_async`/`map`/`map_reduce` submission. The client
//! stages into COS, per job: one **function blob** (the modeled serialized
//! user code) and one **input object** per task whose descriptor is too big
//! to ride in the activation payload; it then invokes the agent action once
//! per task with a small descriptor payload. The agent — the code that runs
//! inside every IBM-PyWren container — obtains the blob (container-local
//! cache, else COS) and the input, executes the user function from the
//! registry, and writes a **status** object back to COS, which the client
//! polls; a result too big to ride inside the status goes to its own
//! **result** object first.
//!
//! COS layout (per executor `e`, job `j`, task `n`):
//!
//! ```text
//! jobs/e/j/func            the function blob
//! jobs/e/j/t00000/input    task input descriptor (> INLINE_MAX_BYTES only)
//! jobs/e/j/t00000/result   encoded result value (> INLINE_MAX_BYTES only)
//! jobs/e/j/t00000/status   {"state": "done"|"error", timings…, result?}
//! ```

use std::any::Any;
use std::future::Future;
use std::pin::Pin;
use std::sync::Weak;
use std::time::Duration;

use bytes::Bytes;
use rustwren_faas::{ActionError, ActivationCtx};
use rustwren_sim::hash::hash2;
use rustwren_sim::task;
use rustwren_store::CosClient;

use crate::cloud::{CloudInner, SimCloud};
use crate::error::PywrenError;
use crate::future::{func_key, ResponseFuture, StatusMemo, StatusView, StatusWatch, TaskStatus};
use crate::partition::{read_aligned_async, Partition};
use crate::registry::Registered;
use crate::shuffle::{
    merge_runs, segment_key, sort_run, ExchangeMode, KeyedPair, Partitioner, MAX_REDUCERS,
};
use crate::task::TaskCtx;
use crate::wire::{self, Value, ValueRef};

/// Chaos crash phase: the agent has decoded its payload but not yet run the
/// user function (models a container dying mid-download).
pub const PHASE_BEFORE_RUN: &str = "agent:before-run";
/// Chaos crash phase: the user function finished but the result was not yet
/// written to COS.
pub const PHASE_AFTER_COMPUTE: &str = "agent:after-compute";
/// Chaos crash phase: the result object was written but the `done` status
/// was not — the client sees a task with a result and no status.
pub const PHASE_AFTER_PUT: &str = "agent:after-put";
/// Chaos crash phase: a remote invoker activation dies before spawning its
/// task group (models an invoker kill — its tasks never get activations).
pub const PHASE_INVOKER: &str = "invoker";

/// Panics if the installed chaos engine schedules a crash for `phase` now.
/// `token` individualizes the draw (the activation id, typically).
pub(crate) fn chaos_crash_point(phase: &str, token: u64) {
    if let Some(chaos) = rustwren_sim::chaos::current() {
        if chaos.should_crash(phase, token) {
            // lint: allow(L009) — killing the activation is the point of an
            // injected chaos crash; recovery paths are what the test exercises
            panic!("chaos: injected crash at {phase}");
        }
    }
}

/// Writes `value` as a staged object under the end-to-end checksum stamp,
/// encoded and stamped in one buffer. Every staged object (func, input,
/// status, result, shuffle slice) is written stamped — here, or where the
/// writes are batched — so readers can always demand a valid stamp.
pub(crate) async fn put_stamped(
    cos: &CosClient,
    bucket: &str,
    key: &str,
    value: &Value,
) -> Result<(), rustwren_store::StoreError> {
    cos.put_async(bucket, key, value.stamped())
        .await
        .map(|_| ())
}

/// Reads issued for one stamped object before a bad stamp is final.
const VERIFY_READS: u32 = 3;

/// The one verified-read loop: a stamp failure means the *read* was
/// corrupted — the stored object is intact — so a couple of immediate
/// re-fetches usually heal it without burning a whole task attempt. Returns
/// the first read that verifies, as (the whole stamped bytes, their
/// payload); `integrity` turns the last read's stamp failure into the
/// caller's error.
async fn read_verified<E, R>(
    read: impl Fn() -> R,
    integrity: impl Fn(wire::WireError) -> E,
) -> Result<(Bytes, Bytes), E>
where
    R: Future<Output = Result<Bytes, E>>,
{
    let mut reads = 1;
    loop {
        let raw = read().await?;
        match wire::verified_payload(&raw) {
            Ok(payload) => return Ok((raw, payload)),
            Err(e) if reads == VERIFY_READS => return Err(integrity(e)),
            Err(_) => reads += 1,
        }
    }
}

/// Reads a staged object and verifies its checksum stamp, returning the
/// *whole stamped representation* (magic + checksum + payload) — the form
/// the container-local blob cache stores, so cache hits can be re-validated
/// against the same stamp — and the payload in it. Surfaces failure as
/// [`PywrenError::Integrity`].
async fn get_stamped(
    cos: &CosClient,
    bucket: &str,
    key: &str,
) -> crate::error::Result<(Bytes, Bytes)> {
    read_verified(
        || async {
            cos.get_async(bucket, key)
                .await
                .map_err(PywrenError::Storage)
        },
        |e| PywrenError::Integrity {
            key: format!("{bucket}/{key}"),
            detail: e.to_string(),
        },
    )
    .await
}

/// Reads a staged object and verifies its checksum stamp, surfacing a
/// failure as the typed [`PywrenError::Integrity`].
pub(crate) async fn get_verified_async(
    cos: &CosClient,
    bucket: &str,
    key: &str,
) -> crate::error::Result<Bytes> {
    let (_stamped, payload) = get_stamped(cos, bucket, key).await?;
    Ok(payload)
}

/// Inline-vs-staged threshold, by encoded size. A task descriptor at or
/// below it rides inside the activation payload instead of behind a staged
/// `…/input` object; a result at or below it rides inside the status object
/// instead of behind a `…/result` object; a shuffle slice at or below it
/// rides inside the map's status manifest instead of in the segment object.
/// Anything larger is staged, keeping payloads and statuses within platform
/// limits.
pub(crate) const INLINE_MAX_BYTES: usize = 64 * 1024;

/// The small payload carried by each agent invocation. A descriptor of at
/// most [`INLINE_MAX_BYTES`] rides along (`inline`), eliminating the staged
/// input object and its PUT/GET round trip.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AgentPayload {
    pub bucket: String,
    pub exec_id: String,
    pub job_id: u64,
    pub task: u32,
    pub func_name: String,
    /// Inlined task descriptor: when set, the agent uses this instead of
    /// fetching `…/input` from COS (which is never staged for such tasks).
    pub inline: Option<Value>,
}

impl AgentPayload {
    /// The payload that (re-)runs task `f` as `func_name`.
    pub(crate) fn new(f: &ResponseFuture, func_name: &str, inline: Option<Value>) -> AgentPayload {
        AgentPayload {
            bucket: f.bucket().to_owned(),
            exec_id: f.exec_id().to_owned(),
            job_id: f.job_id(),
            task: f.task(),
            func_name: func_name.to_owned(),
            inline,
        }
    }

    pub(crate) fn encode(&self) -> Bytes {
        let mut v = Value::map()
            .with("bucket", self.bucket.as_str())
            .with("exec", self.exec_id.as_str())
            .with("job", self.job_id as i64)
            .with("task", i64::from(self.task))
            .with("func", self.func_name.as_str());
        if let Some(inline) = &self.inline {
            v = v.with("inline", inline.clone());
        }
        v.encode()
    }

    pub(crate) fn decode(raw: &[u8]) -> Result<AgentPayload, String> {
        let mut v = Value::decode(raw).map_err(|e| e.to_string())?;
        let inline = match &mut v {
            Value::Map(m) => m.remove("inline"),
            _ => None,
        };
        Ok(AgentPayload {
            bucket: v.req_str("bucket")?.to_owned(),
            exec_id: v.req_str("exec")?.to_owned(),
            job_id: v.req_int("job")?,
            task: v.req_int("task")?,
            func_name: v.req_str("func")?.to_owned(),
            inline,
        })
    }

    pub(crate) fn future(&self) -> ResponseFuture {
        ResponseFuture::new(&self.bucket, &self.exec_id, self.job_id, self.task)
    }
}

/// Task input descriptors, stored as the task's `input` object.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TaskSpec {
    /// A plain value (the `map()` path).
    Value(Value),
    /// A storage partition the agent must fetch and align (`map_reduce`).
    Partition(Partition),
    /// A reduce task: wait for `deps`, gather their results.
    Reduce {
        deps: Vec<ResponseFuture>,
        group: Option<String>,
        poll: Duration,
    },
    /// A shuffling map task: run the inner spec's function, then partition
    /// its `(key, value)` output pairs across `reducers` partitions through
    /// COS.
    ShuffleMap {
        inner: Box<TaskSpec>,
        reducers: usize,
        partitioner: Partitioner,
        /// Optional registered combiner function applied map-side to each
        /// sorted key group before the partition is spilled.
        combiner: Option<String>,
    },
    /// A shuffle-reduce task: wait for tasks `0..maps` of the map job, fetch
    /// this reducer's partition from every map (via each map's status
    /// manifest), merge the sorted runs under the `fanin` budget, group
    /// pairs by key, and hand the groups to the reduce function.
    ShuffleReduce {
        /// The map job, by reference rather than as `maps` futures: the
        /// descriptor stays O(1) in the map fan-out (an M-future list once
        /// made big reduce descriptors invisible to W003's payload sizing).
        bucket: String,
        exec_id: String,
        map_job: u64,
        maps: u32,
        index: usize,
        poll: Duration,
        reducers: usize,
        fanin: usize,
    },
}

impl TaskSpec {
    pub(crate) fn to_value(&self) -> Value {
        match self {
            TaskSpec::Value(v) => Value::map().with("kind", "value").with("value", v.clone()),
            TaskSpec::Partition(p) => Value::map()
                .with("kind", "partition")
                .with("part", p.to_value()),
            TaskSpec::Reduce { deps, group, poll } => {
                let group_v = group
                    .as_deref()
                    .map_or(Value::Null, |g| Value::Str(g.to_owned()));
                Value::map()
                    .with("kind", "reduce")
                    .with(
                        "deps",
                        Value::List(deps.iter().map(ResponseFuture::to_value).collect()),
                    )
                    .with("group", group_v)
                    .with("poll_ms", poll.as_millis() as i64)
            }
            TaskSpec::ShuffleMap {
                inner,
                reducers,
                partitioner,
                combiner,
            } => {
                let mut v = Value::map()
                    .with("kind", "shuffle-map")
                    .with("inner", inner.to_value())
                    .with("reducers", *reducers as i64)
                    .with("exch", ExchangeMode::Cos.as_str())
                    .with("part", partitioner.to_value());
                if let Some(c) = combiner {
                    v = v.with("comb", c.as_str());
                }
                v
            }
            TaskSpec::ShuffleReduce {
                bucket,
                exec_id,
                map_job,
                maps,
                index,
                poll,
                reducers,
                fanin,
            } => Value::map()
                .with("kind", "shuffle-reduce")
                .with("index", *index as i64)
                .with("poll_ms", poll.as_millis() as i64)
                .with("reducers", *reducers as i64)
                .with("exch", ExchangeMode::Cos.as_str())
                .with("fanin", *fanin as i64)
                .with(
                    "depr",
                    Value::map()
                        .with("bucket", bucket.as_str())
                        .with("exec", exec_id.as_str())
                        .with("job", *map_job as i64)
                        .with("n", i64::from(*maps)),
                ),
        }
    }
}

/// The agent: runs inside every IBM-PyWren function container. Resumable:
/// it suspends only at `.await`s, so it rides a light task up to the point,
/// if any, where it asks for a thread: a function registered blocking asks
/// inside its call.
// lint: entry(hot_path)
// lint: entry(sim_path)
pub(crate) async fn run_agent(
    cloud: Weak<CloudInner>,
    ctx: ActivationCtx,
    raw_payload: Bytes,
) -> Result<Bytes, ActionError> {
    let inner = cloud
        .upgrade()
        .ok_or_else(|| ActionError("cloud was torn down".into()))?;
    let cloud = SimCloud::from_inner(inner);
    let payload =
        AgentPayload::decode(&raw_payload).map_err(|e| ActionError(format!("bad payload: {e}")))?;
    let cos = ctx.cos_client();
    let fut = payload.future();
    let started = ctx.now().as_secs_f64();
    let crash_token = hash2(ctx.activation_id().0, 0xA6E7);

    chaos_crash_point(PHASE_BEFORE_RUN, crash_token);
    let outcome = execute_task(&cloud, &ctx, &cos, &payload).await;

    let ended = ctx.now().as_secs_f64();
    // Best-effort status/result write: the client's wait() relies on it.
    match outcome {
        Ok((result, shuf)) => {
            chaos_crash_point(PHASE_AFTER_COMPUTE, crash_token);
            let mut status = TaskStatus::new(None, started, ended);
            if let Some(manifest) = shuf {
                status = status.with_shuf(manifest);
            }
            if result.encoded_len() <= INLINE_MAX_BYTES {
                status = status.with_result(result);
            } else {
                put_stamped(&cos, &payload.bucket, &fut.result_key(), &result)
                    .await
                    .map_err(|e| ActionError(format!("writing result: {e}")))?;
            }
            chaos_crash_point(PHASE_AFTER_PUT, crash_token);
            status
                .put_async(&cos, &fut)
                .await
                .map_err(|e| ActionError(format!("writing status: {e}")))?;
            Ok(Bytes::from_static(b"ok"))
        }
        Err(msg) => {
            // Under speculative execution two copies of the task race; a
            // completed `done` status must never be clobbered by a slower
            // copy's error (first successful completion wins). A status
            // that fails its stamp check is treated as not-done: wrongly
            // overwriting a corrupted-on-read `done` status is safe (the
            // stored object wins at most once), silently keeping a bad one
            // is not.
            let done_already = get_verified_async(&cos, fut.bucket(), &fut.status_key())
                .await
                .and_then(|raw| TaskStatus::decode(raw, &fut))
                .is_ok_and(|s| s.error().is_none());
            if !done_already {
                TaskStatus::new(Some(&msg), started, ended)
                    .put_async(&cos, &fut)
                    .await
                    .map_err(|e| ActionError(format!("writing status: {e}")))?;
            }
            Err(ActionError(msg))
        }
    }
}

/// Runs the task described by `payload`, returning its result value plus —
/// for shuffle maps — the partition manifest to embed in the status object.
/// Every kind's input and output I/O is resumable; what may block is the
/// user's code, which asks for a thread itself when registered blocking.
async fn execute_task(
    cloud: &SimCloud,
    ctx: &ActivationCtx,
    cos: &CosClient,
    payload: &AgentPayload,
) -> Result<(Value, Option<Value>), String> {
    let fut = payload.future();
    // Download the "pickled" function, as the real agent does — via the
    // warm-container blob cache.
    let _code = fetch_func_blob(ctx, cos, payload).await?;
    let desc = match &payload.inline {
        // The descriptor rode inside the activation payload: no staged
        // input object exists for this task.
        Some(desc) => desc.clone(),
        None => {
            let input_raw = get_verified_async(cos, &payload.bucket, &fut.input_key())
                .await
                .map_err(|e| format!("fetching input: {e}"))?;
            Value::decode(&input_raw).map_err(|e| format!("decoding input: {e}"))?
        }
    };

    let task_ctx = TaskCtx::new(ctx.clone(), cloud.clone());
    let kind = desc.req_str("kind")?;
    let func = cloud
        .registry()
        .lookup(&payload.func_name)
        .ok_or_else(|| format!("function `{}` not registered", payload.func_name))?;
    match kind {
        "shuffle-map" => {
            let params = ShuffleMapParams::from_desc(&desc)?;
            let inner = desc.get("inner").ok_or("missing field `inner`")?;
            let input = build_input(ctx, cos, inner).await?;
            let output = call_task(&func, &task_ctx, input).await?;
            boxed(|| write_shuffle_output(cloud, cos, payload, &fut, &task_ctx, output, &params))
                .await
                .map(|(result, manifest)| (result, Some(manifest)))
        }
        "shuffle-reduce" => {
            let input = boxed(|| build_shuffle_reduce_input(cloud, ctx, cos, &desc)).await?;
            call_task(&func, &task_ctx, input).await.map(|r| (r, None))
        }
        _ => {
            let input = build_input(ctx, cos, &desc).await?;
            call_task(&func, &task_ctx, input).await.map(|r| (r, None))
        }
    }
}

/// The future `make` builds, on the heap: each kind's gather is boxed, so
/// that a `value` task's agent does not carry a reducer's locals. Out of
/// line, so that the future is built in this frame and not the caller's:
/// unpolled it is already as big as everything it will ever hold, and the
/// caller's poll frame stays beneath every poll of it — on a thread, beneath
/// the user's function; on the light vehicle, on top of whichever thread
/// dispatches.
#[inline(never)]
fn boxed<F: Future>(make: impl FnOnce() -> F) -> Pin<Box<F>> {
    Box::pin(make())
}

/// Calls the task's own function where the agent is, on either vehicle (a
/// function registered blocking asks for its thread inside,
/// [`FunctionRegistry::register`](crate::FunctionRegistry::register)): a
/// panic is the task's error.
async fn call_task(func: &Registered, ctx: &TaskCtx, input: Value) -> Result<Value, String> {
    match task::catch_unwind((func.start)(ctx.clone(), input)).await {
        Ok(result) => result,
        Err(p) => Err(format!("function panicked: {}", panic_text(&p))),
    }
}

/// The descriptor's reducer count, bounded before anything allocates one
/// bucket per reducer for it.
fn reducers_of(desc: &Value) -> Result<usize, String> {
    match usize::try_from(desc.req_i64("reducers")?) {
        Ok(n) if (1..=MAX_REDUCERS).contains(&n) => Ok(n),
        _ => Err(format!("field `reducers` must be in 1..={MAX_REDUCERS}")),
    }
}

/// Decoded shuffle-map descriptor fields (partitioning policy).
#[derive(Debug)]
struct ShuffleMapParams {
    reducers: usize,
    partitioner: Partitioner,
    combiner: Option<String>,
}

impl ShuffleMapParams {
    fn from_desc(desc: &Value) -> Result<ShuffleMapParams, String> {
        let reducers = reducers_of(desc)?;
        ExchangeMode::from_wire(desc.req_str("exch")?)?;
        Ok(ShuffleMapParams {
            reducers,
            partitioner: Partitioner::from_value(desc.get("part").ok_or("missing field `part`")?)?,
            combiner: desc.get("comb").and_then(Value::as_str).map(str::to_owned),
        })
    }
}

/// Fetches the job's function blob, serving warm-container repeats from the
/// [`rustwren_faas::BlobCache`]: a 1,000-task job over 100 containers pays
/// ~100 func GETs instead of 1,000. The cache holds the *stamped* bytes, so
/// every hit is re-validated against the end-to-end checksum: an entry
/// poisoned in container memory (the chaos engine's `PoisonCache` fault)
/// fails validation, is dropped, and heals via a fresh COS fetch —
/// corruption never silently reaches the user function.
async fn fetch_func_blob(
    ctx: &ActivationCtx,
    cos: &CosClient,
    payload: &AgentPayload,
) -> Result<Bytes, String> {
    let key = func_key(&payload.exec_id, payload.job_id);
    let cache = ctx.blob_cache();
    if let Some(mut stamped) = cache.get(&key) {
        if let Some(chaos) = rustwren_sim::chaos::current() {
            let token = hash2(ctx.activation_id().0, 0xCACE);
            if let Some(poisoned) = chaos.poison_cached_blob(&payload.bucket, &key, token, &stamped)
            {
                // The fault corrupts the cached copy itself, not just this
                // read — keep the damage in the cache so the heal is real.
                stamped = Bytes::from(poisoned);
                cache.insert(&key, stamped.clone());
            }
        }
        if let Ok(code) = wire::verified_payload(&stamped) {
            ctx.note_blob_cache(true);
            return Ok(code);
        }
        cache.remove(&key);
        let (fresh, code) = get_stamped(cos, &payload.bucket, &key)
            .await
            .map_err(|e| format!("refetching poisoned cached function: {e}"))?;
        cache.insert(&key, fresh);
        ctx.note_blob_cache_heal();
        return Ok(code);
    }
    let (stamped, code) = get_stamped(cos, &payload.bucket, &key)
        .await
        .map_err(|e| format!("fetching function: {e}"))?;
    cache.insert(&key, stamped);
    ctx.note_blob_cache(false);
    Ok(code)
}

/// Partitions a shuffling map task's `(key, value)` pairs across the
/// reducers through COS; returns the summary stored as the task result plus
/// the partition manifest embedded in the task's status object (`"shuf"`).
///
/// Empty partitions are never written — the manifest records them as
/// absent, so a reducer can distinguish "this map produced nothing for me"
/// (run on) from "this map's data went missing" (typed loss error) under
/// chaos: the per-reducer entry is `Null`.
async fn write_shuffle_output(
    cloud: &SimCloud,
    cos: &CosClient,
    payload: &AgentPayload,
    fut: &ResponseFuture,
    task_ctx: &TaskCtx,
    output: Value,
    params: &ShuffleMapParams,
) -> Result<(Value, Value), String> {
    let Value::List(pairs) = output else {
        return Err("shuffle map functions must return a list of {k, v} pairs".to_owned());
    };
    let reducers = params.reducers;
    let total = pairs.len();
    // The output is taken apart, not copied: each pair moves into its
    // bucket whole, beside the one copy of its key the sort compares by.
    let mut buckets: Vec<Vec<KeyedPair>> = vec![Vec::new(); reducers];
    for pair in pairs {
        let key = pair.req_str("k")?.to_owned();
        let bucket = buckets.get_mut(params.partitioner.bucket_of(&key, reducers));
        bucket
            .ok_or("internal: partitioner chose a bucket past the last reducer")?
            .push((key, pair));
    }
    let prefix = fut.task_prefix();
    let summary = |manifest: Value| {
        (
            Value::map()
                .with("pairs", total as i64)
                .with("reducers", reducers as i64),
            manifest,
        )
    };

    // Sort each spill (so reducers merge instead of re-sorting), optionally
    // fold each key group through the combiner.
    let combiner = match &params.combiner {
        None => None,
        Some(name) => Some((
            name.as_str(),
            cloud
                .registry()
                .lookup(name)
                .ok_or_else(|| format!("combiner `{name}` is not registered"))?,
        )),
    };
    for bucket in &mut buckets {
        sort_run(bucket);
        if let Some((name, func)) = &combiner {
            *bucket = combine_run(std::mem::take(bucket), name, func, task_ctx).await?;
        }
    }

    // One *segment* object per map. Tiny slices ride inline in the manifest
    // itself (the status PUT delivers them for free, like inline results);
    // bigger ones are individually stamped and concatenated so each reducer
    // range-GETs exactly its slice.
    let mut parts: Vec<Value> = Vec::with_capacity(reducers);
    let mut segment: Vec<u8> = Vec::new();
    for bucket in buckets {
        if bucket.is_empty() {
            parts.push(Value::Null);
            continue;
        }
        let list = Value::List(bucket.into_iter().map(|(_, p)| p).collect());
        if list.encoded_len() <= INLINE_MAX_BYTES {
            parts.push(Value::map().with("d", list));
        } else {
            let stamped = list.stamped();
            let off = segment.len();
            segment.extend_from_slice(&stamped);
            parts.push(
                Value::map()
                    .with("o", off as i64)
                    .with("l", stamped.len() as i64),
            );
        }
    }
    if !segment.is_empty() {
        // Slices carry their own stamps (range reads can't verify a whole-
        // object stamp), so the segment is PUT raw.
        cos.put_async(&payload.bucket, &segment_key(&prefix), Bytes::from(segment))
            .await
            .map_err(|e| format!("writing shuffle segment: {e}"))?;
    }
    Ok(summary(
        Value::map()
            .with("n", reducers as i64)
            .with("k", "seg")
            .with("parts", Value::List(parts)),
    ))
}

/// Folds each group of consecutive equal keys in a sorted run through the
/// map-side combiner, yielding one `{k, v}` pair per distinct key. The
/// combiner sees `{"k": key, "vs": [values…]}` and returns the combined
/// value (singletons included, so its semantics don't depend on luck of
/// partition sizes).
async fn combine_run(
    run: Vec<KeyedPair>,
    name: &str,
    func: &Registered,
    task_ctx: &TaskCtx,
) -> Result<Vec<KeyedPair>, String> {
    let mut out: Vec<KeyedPair> = Vec::new();
    let mut run = run.into_iter().peekable();
    while let Some((key, first)) = run.next() {
        let mut vs = vec![value_of(first)];
        while let Some((_, pair)) = run.next_if(|(k, _)| *k == key) {
            vs.push(value_of(pair));
        }
        let input = Value::map()
            .with("k", key.as_str())
            .with("vs", Value::List(vs));
        let combined = match task::catch_unwind((func.start)(task_ctx.clone(), input)).await {
            Ok(r) => r.map_err(|e| format!("combiner `{name}` failed for key `{key}`: {e}"))?,
            Err(p) => {
                return Err(format!(
                    "combiner `{name}` panicked for key `{key}`: {}",
                    panic_text(&p)
                ))
            }
        };
        let pair = Value::map().with("k", key.as_str()).with("v", combined);
        out.push((key, pair));
    }
    Ok(out)
}

/// The `v` of a `{k, v}` pair, moved out of it.
fn value_of(pair: Value) -> Value {
    match pair {
        Value::Map(mut fields) => fields.remove("v").unwrap_or(Value::Null),
        _ => Value::Null,
    }
}

/// A reduce descriptor's poll interval, in whole milliseconds: at least one.
fn poll_of(desc: &Value) -> Result<Duration, String> {
    match u64::try_from(desc.req_i64("poll_ms")?) {
        Ok(ms) if ms >= 1 => Ok(Duration::from_millis(ms)),
        _ => Err("field `poll_ms` must be at least 1".to_owned()),
    }
}

/// Decoded shuffle-reduce descriptor fields.
#[derive(Debug)]
struct ShuffleReduceParams {
    deps: Vec<ResponseFuture>,
    index: usize,
    poll: Duration,
    fanin: usize,
}

impl ShuffleReduceParams {
    fn from_desc(desc: &Value) -> Result<ShuffleReduceParams, String> {
        let depr = desc.get("depr").ok_or("missing field `depr`")?;
        let bucket = depr.req_str("bucket")?;
        let exec = depr.req_str("exec")?;
        let in_depr = |e: String| format!("in `depr`: {e}");
        let job: u64 = depr.req_int("job").map_err(in_depr)?;
        let maps: u32 = depr.req_int("n").map_err(in_depr)?;
        let reducers = reducers_of(desc)?;
        let index = match usize::try_from(desc.req_i64("index")?) {
            Ok(i) if i < reducers => i,
            _ => return Err(format!("field `index` must be in 0..{reducers}")),
        };
        let fanin = match usize::try_from(desc.req_i64("fanin")?) {
            Ok(f) if f >= 2 => f,
            _ => return Err("field `fanin` must be at least 2".to_owned()),
        };
        let poll = poll_of(desc)?;
        ExchangeMode::from_wire(desc.req_str("exch")?)?;
        Ok(ShuffleReduceParams {
            deps: (0..maps)
                .map(|t| ResponseFuture::new(bucket, exec, job, t))
                .collect(),
            index,
            poll,
            fanin,
        })
    }
}

/// Gathers one reducer's shuffle partitions from every map task, merges the
/// runs, and groups the pairs by key.
async fn build_shuffle_reduce_input(
    cloud: &SimCloud,
    ctx: &ActivationCtx,
    cos: &CosClient,
    desc: &Value,
) -> Result<Value, String> {
    let p = ShuffleReduceParams::from_desc(desc)?;

    // Gather each map's partition as soon as its status lands, slotted by
    // dep index; runs are then merged in dep order, so the grouped output is
    // bitwise-identical to a barrier-then-gather pass.
    let mut slots: Vec<Option<Run>> = vec![None; p.deps.len()];
    let mut landed = DepWatch::new(ctx, cos, &p.deps, p.poll);
    while let Some((i, d)) = landed.next_landed().await? {
        let run = fetch_shuffle_run(cloud, cos, d, p.index).await?;
        if let Some(slot) = slots.get_mut(i) {
            *slot = Some(run);
        }
    }
    Ok(Value::map()
        .with("index", p.index as i64)
        .with("groups", group_runs(&filled(slots)?, p.fanin)?))
}

/// One map's sorted run for this reducer, left in the verified bytes it
/// arrived in (a status or a segment slice), with the offsets of each pair's
/// `k` string and `v`: nothing per pair is built.
#[derive(Debug, Clone, Default)]
struct Run {
    bytes: Bytes,
    pairs: Vec<(usize, Option<usize>)>,
}

impl Run {
    /// The pairs of the list at `at` in `bytes`, which a validating walk has
    /// checked; fails as taking the decoded list apart would.
    fn within(bytes: Bytes, at: usize) -> Result<Run, String> {
        let pair = |p: ValueRef<'_>| {
            let k = p.get("k").filter(|k| k.as_str().is_some());
            let k = k.ok_or("missing or non-string field `k`")?;
            Ok((k.offset(), p.get("v").map(|v| v.offset())))
        };
        let items = ValueRef::at_offset(&bytes, at).items();
        let items = items.ok_or("shuffle object must hold a list")?;
        let pairs = items.map(pair).collect::<Result<_, String>>()?;
        Ok(Run { bytes, pairs })
    }

    /// [`within`](Run::within) a slice no walk has checked yet, first
    /// checked end to end with the error decoding it would give.
    fn parse(bytes: Bytes) -> Result<Run, String> {
        ValueRef::parse_entries(&bytes, |_, _| {})
            .map_err(|e| format!("decoding shuffle data: {e}"))?;
        Run::within(bytes, 0)
    }

    /// The pairs as `(k, v)` views into the bytes.
    fn views(&self) -> Result<Vec<(&str, Option<ValueRef<'_>>)>, String> {
        let at = |pos| ValueRef::at_offset(&self.bytes, pos);
        let key = |k| at(k).as_str().ok_or("internal: a run's key moved");
        let view = |&(k, v): &(usize, Option<usize>)| Ok((key(k)?, v.map(at)));
        self.pairs.iter().map(view).collect()
    }
}

/// The reduce function's `groups`: the runs' views merged under `fanin`, then
/// one `String` per distinct key and one built `v` (or `Null`) per pair.
fn group_runs(runs: &[Run], fanin: usize) -> Result<Value, String> {
    let views = runs.iter().map(Run::views).collect::<Result<_, _>>()?;
    let mut merged = merge_runs(views, fanin).0;
    // Sorted already, unless some run was not: its key's values still group.
    merged.sort_by_key(|&(key, _)| key);
    let mut groups: Vec<(String, Value)> = Vec::new();
    for (key, v) in merged {
        let v = v.map_or(Ok(Value::Null), ValueRef::to_value);
        let v = v.map_err(|e| format!("decoding shuffle data: {e}"))?;
        match groups.last_mut() {
            Some((last, Value::List(values))) if last == key => values.push(v),
            _ => groups.push((key.to_owned(), Value::List(vec![v]))),
        }
    }
    Ok(Value::Map(groups.into_iter().collect()))
}

/// What each dependency's slot was filled with, in dependency order.
fn filled<T>(slots: Vec<Option<T>>) -> Result<Vec<T>, String> {
    let deps = slots.len();
    let filled = slots.into_iter().enumerate().map(|(i, slot)| {
        // An unfilled slot is an internal protocol bug; surface it as a
        // typed task error (retry/speculation can heal it) instead of
        // panicking the agent.
        slot.ok_or_else(|| format!("internal: dependency {i} of {deps} was never fetched"))
    });
    filled.collect()
}

/// Fetches reducer `index`'s partition run from one finished map task,
/// using the map's status manifest to tell elided-empty partitions apart
/// from lost data.
async fn fetch_shuffle_run(
    cloud: &SimCloud,
    cos: &CosClient,
    d: &ResponseFuture,
    index: usize,
) -> Result<Run, String> {
    // The status was checked end to end by the first of the reducers to
    // read these bytes, which also found every reducer's entry of its
    // manifest, and an inline run stays in its bytes.
    let status = dep_status(cos, d, Some(&cloud.inner.statuses)).await?;
    let manifest = status.shuf().ok_or_else(|| {
        format!(
            "status of map task {} carries no shuffle manifest",
            d.label()
        )
    })?;
    let kind = manifest.get("k").and_then(|k| k.as_str());
    match kind.ok_or("missing or non-string field `k`")? {
        "seg" => match seg_part(status.shuf_part(index), index)? {
            SegPart::Elided => Ok(Run::default()),
            SegPart::Inline(at) => Run::within(status.bytes().clone(), at),
            SegPart::Span(off, len) => {
                let key = segment_key(&d.task_prefix());
                let raw = get_slice_verified(cos, d.bucket(), &key, off, len)
                    .await
                    .map_err(|e| format!("map task {}: {e}", d.label()))?;
                Run::parse(raw)
            }
        },
        other => Err(format!("unknown shuffle manifest kind `{other}`")),
    }
}

/// Where a `seg` manifest's entry says a reducer's run is: nowhere (the
/// partition was empty), inline in the status at an offset, or in the
/// segment object at an offset and length.
#[derive(Debug)]
enum SegPart {
    Elided,
    Inline(usize),
    Span(u64, u64),
}

/// Reads reducer `index`'s entry of a `seg` manifest (`None`: there is no
/// such entry): `null`, a map with the inline list under `d`, or a map with
/// the span's `o` and `l`.
fn seg_part(entry: Option<ValueRef<'_>>, index: usize) -> Result<SegPart, String> {
    let entry = entry.ok_or_else(|| format!("manifest has no entry for partition {index}"))?;
    if entry.is_null() {
        return Ok(SegPart::Elided);
    }
    if let Some(inline) = entry.get("d") {
        return Ok(SegPart::Inline(inline.offset()));
    }
    let span = |k: &str| {
        let n = entry.get(k).and_then(|n| n.as_i64());
        let n = n.ok_or_else(|| format!("missing or non-int field `{k}`"))?;
        u64::try_from(n).map_err(|_| format!("field `{k}` is out of range: {n}"))
    };
    Ok(SegPart::Span(span("o")?, span("l")?))
}

/// Range-reads one stamped slice out of a shuffle segment object and
/// verifies its checksum (re-fetching on a bad read, like
/// [`get_stamped`]). A missing segment is a typed loss error — the
/// manifest said the slice exists.
async fn get_slice_verified(
    cos: &CosClient,
    bucket: &str,
    key: &str,
    off: u64,
    len: u64,
) -> Result<Bytes, String> {
    let read = || async {
        let slice = cos.get_range_async(bucket, key, off, off + len).await;
        slice.map_err(|e| match e {
            rustwren_store::StoreError::NoSuchKey { .. } => {
                format!("shuffle segment {bucket}/{key} was written but is now missing (lost): {e}")
            }
            e => format!("fetching shuffle slice: {e}"),
        })
    };
    let integrity =
        |e| format!("integrity failure reading shuffle slice {bucket}/{key}@{off}: {e}");
    let (_stamped, slice) = read_verified(read, integrity).await?;
    Ok(slice)
}

/// Reads the status object of finished map task `d`, through `memo` if
/// given; a status that did not finish `done` is an error carrying its
/// message.
async fn dep_status(
    cos: &CosClient,
    d: &ResponseFuture,
    memo: Option<&StatusMemo>,
) -> Result<StatusView, String> {
    let key = d.status_key();
    let read = get_verified_async(cos, d.bucket(), &key).await;
    let status = read
        .and_then(|raw| match memo {
            Some(memo) => memo.decode(key, raw, d),
            None => TaskStatus::decode(raw, d),
        })
        .map_err(|e| format!("fetching dep status: {e}"))?;
    match status.error() {
        Some(msg) => Err(format!("map task {} failed: {msg}", d.label())),
        None => Ok(status),
    }
}

/// Materializes the user function's input from the task descriptor,
/// merging any job-level `extra` entries into map-shaped inputs. A plain
/// value is its own input; the kinds that read COS do so in boxed futures
/// of their own.
async fn build_input(ctx: &ActivationCtx, cos: &CosClient, desc: &Value) -> Result<Value, String> {
    let input = match desc.req_str("kind")? {
        "value" => desc.get("value").cloned().unwrap_or(Value::Null),
        "partition" => boxed(|| partition_input(cos, desc)).await?,
        "reduce" => boxed(|| reduce_input(ctx, cos, desc)).await?,
        other => return Err(format!("unknown task kind `{other}`")),
    };
    let Some(extra) = desc.get("extra").and_then(Value::as_map) else {
        return Ok(input);
    };
    match input {
        Value::Map(mut m) => {
            for (k, v) in extra {
                m.entry(k.clone()).or_insert_with(|| v.clone());
            }
            Ok(Value::Map(m))
        }
        other => Ok(Value::map()
            .with("value", other)
            .with("extra", Value::Map(extra.clone()))),
    }
}

/// A partition task's input: the partition's line-aligned bytes.
async fn partition_input(cos: &CosClient, desc: &Value) -> Result<Value, String> {
    let part = Partition::from_value(desc.get("part").ok_or("missing field `part`")?)?;
    let data = read_aligned_async(cos, &part)
        .await
        .map_err(|e| e.to_string())?;
    Ok(part
        .to_value()
        .with("group", part.key.as_str())
        .with("data", Value::bytes(data.to_vec())))
}

/// A reduce task's input: its dependencies' results, gathered in
/// *completion order* as each status lands instead of after the full
/// barrier, and slotted by dep index — so the reduce function still sees
/// them in submission order, and only the download timing changes.
async fn reduce_input(ctx: &ActivationCtx, cos: &CosClient, desc: &Value) -> Result<Value, String> {
    let deps = desc
        .req_list("deps")?
        .iter()
        .map(ResponseFuture::from_value)
        .collect::<Result<Vec<_>, _>>()?;
    let poll = poll_of(desc)?;
    let group = desc.get("group").cloned().unwrap_or(Value::Null);

    let mut slots: Vec<Option<Value>> = vec![None; deps.len()];
    let mut landed = DepWatch::new(ctx, cos, &deps, poll);
    while let Some((i, d)) = landed.next_landed().await? {
        let staged = async { get_verified_async(cos, d.bucket(), &d.result_key()).await };
        let result = dep_status(cos, d, None).await?.into_result(d, staged).await;
        let result = result.map_err(|e| format!("fetching dep result: {e}"))?;
        if let Some(slot) = slots.get_mut(i) {
            *slot = Some(result);
        }
    }
    Ok(Value::map()
        .with("group", group)
        .with("results", Value::List(filled(slots)?)))
}

/// "The reduce function will wait for all the partial results before
/// processing them" (§4.3) — as a [`StatusWatch`] polled every `poll` that
/// yields each dependency *as its status lands*, so a reducer's downloads
/// overlap the stragglers still running rather than queueing behind a full
/// barrier. The one gather loop, for `reduce` and `shuffle-reduce` alike.
struct DepWatch<'a> {
    ctx: &'a ActivationCtx,
    cos: &'a CosClient,
    deps: &'a [ResponseFuture],
    poll: Duration,
    watch: StatusWatch,
    /// Per dependency, whether it has been yielded; and how many have.
    seen: Vec<bool>,
    done: usize,
    /// What the last poll found landed and has not been looked at yet;
    /// `None` before the first poll.
    landed: Option<std::vec::IntoIter<usize>>,
}

impl<'a> DepWatch<'a> {
    fn new(
        ctx: &'a ActivationCtx,
        cos: &'a CosClient,
        deps: &'a [ResponseFuture],
        poll: Duration,
    ) -> DepWatch<'a> {
        DepWatch {
            ctx,
            cos,
            deps,
            poll,
            watch: StatusWatch::new(deps),
            seen: vec![false; deps.len()],
            done: 0,
            landed: None,
        }
    }

    /// The next dependency whose status has landed, with its index, polling
    /// for as long as there is time; `None` once each has been yielded.
    async fn next_landed(&mut self) -> Result<Option<(usize, &'a ResponseFuture)>, String> {
        loop {
            for i in self.landed.iter_mut().flatten() {
                if let (Some(seen @ false), Some(d)) = (self.seen.get_mut(i), self.deps.get(i)) {
                    *seen = true;
                    self.done += 1;
                    return Ok(Some((i, d)));
                }
            }
            if self.landed.is_some() {
                if self.done >= self.deps.len() {
                    return Ok(None);
                }
                if self.ctx.remaining() < self.poll {
                    let (done, deps) = (self.done, self.deps.len());
                    return Err(format!(
                        "reducer ran out of time waiting for {done}/{deps} map results"
                    ));
                }
                task::sleep(self.poll).await;
            }
            let landed = self.watch.landed(self.cos).await;
            let landed = landed.map_err(|e| format!("listing statuses: {e}"))?;
            self.landed = Some(landed.into_iter());
        }
    }
}

fn panic_text(p: &Box<dyn Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `v` (a map value) without its field `key`.
    fn without(v: &Value, key: &str) -> Value {
        let mut m = v.as_map().expect("a map value").clone();
        assert!(m.remove(key).is_some(), "no field `{key}` to strip");
        Value::Map(m)
    }

    fn sample_payload(inline: Option<Value>) -> AgentPayload {
        let f = ResponseFuture::new("rustwren-runtime", "e1", 4, 9);
        AgentPayload::new(&f, "tone", inline)
    }

    #[test]
    fn agent_payload_roundtrip() {
        let p = sample_payload(None);
        assert_eq!(AgentPayload::decode(&p.encode()), Ok(p));
    }

    #[test]
    fn agent_payload_carries_inline_desc() {
        let p = sample_payload(Some(Value::map().with("kind", "value").with("value", 7i64)));
        let decoded = AgentPayload::decode(&p.encode()).expect("decodes");
        assert_eq!(decoded, p);
        assert_eq!(
            decoded
                .inline
                .as_ref()
                .and_then(|d| d.get("kind"))
                .and_then(Value::as_str),
            Some("value")
        );
    }

    /// Payload bytes are priced by `request_cost` and feed every jitter
    /// draw, so `kernel_equiv` moves if one byte does. Up to commit b610208
    /// this payload also carried `batch=true`, `cache=true` and
    /// `ilmax=65536`, constants that selected nothing: 40 bytes (11 + 11 +
    /// 18) that PR 16's re-bless took off the wire. The literal is the
    /// encoding since.
    #[test]
    fn agent_payload_encoding_is_pinned() {
        let p = sample_payload(Some(Value::map().with("kind", "value").with("value", 7i64)));
        let pinned: &[u8] = b"\x07\x06\x00\x00\x00\
            \x06\x00\x00\x00bucket\x04\x10\x00\x00\x00rustwren-runtime\
            \x04\x00\x00\x00exec\x04\x02\x00\x00\x00e1\
            \x04\x00\x00\x00func\x04\x04\x00\x00\x00tone\
            \x06\x00\x00\x00inline\x07\x02\x00\x00\x00\
            \x04\x00\x00\x00kind\x04\x05\x00\x00\x00value\
            \x05\x00\x00\x00value\x02\x07\x00\x00\x00\x00\x00\x00\x00\
            \x03\x00\x00\x00job\x02\x04\x00\x00\x00\x00\x00\x00\x00\
            \x04\x00\x00\x00task\x02\t\x00\x00\x00\x00\x00\x00\x00";
        assert_eq!(&p.encode()[..], pinned);
    }

    /// The shuffle descriptors are priced payload bytes too. Both still
    /// carry `"exch": "cos"`, the one exchange: these literals were taken
    /// while a second exchange existed, and pass unchanged since.
    #[test]
    fn shuffle_descriptor_encodings_are_pinned() {
        let map = TaskSpec::ShuffleMap {
            inner: Box::new(TaskSpec::Value(Value::Int(1))),
            reducers: 8,
            partitioner: Partitioner::Hash,
            combiner: Some("sum".into()),
        };
        let pinned: &[u8] = b"\x07\x06\x00\x00\x00\
            \x04\x00\x00\x00comb\x04\x03\x00\x00\x00sum\
            \x04\x00\x00\x00exch\x04\x03\x00\x00\x00cos\
            \x05\x00\x00\x00inner\x07\x02\x00\x00\x00\
            \x04\x00\x00\x00kind\x04\x05\x00\x00\x00value\
            \x05\x00\x00\x00value\x02\x01\x00\x00\x00\x00\x00\x00\x00\
            \x04\x00\x00\x00kind\x04\x0b\x00\x00\x00shuffle-map\
            \x04\x00\x00\x00part\x00\
            \x08\x00\x00\x00reducers\x02\x08\x00\x00\x00\x00\x00\x00\x00";
        assert_eq!(&map.to_value().encode()[..], pinned);
        let pinned: &[u8] = b"\x07\x07\x00\x00\x00\
            \x04\x00\x00\x00depr\x07\x04\x00\x00\x00\
            \x06\x00\x00\x00bucket\x04\x01\x00\x00\x00b\
            \x04\x00\x00\x00exec\x04\x01\x00\x00\x00e\
            \x03\x00\x00\x00job\x02\x01\x00\x00\x00\x00\x00\x00\x00\
            \x01\x00\x00\x00n\x02\x04\x00\x00\x00\x00\x00\x00\x00\
            \x04\x00\x00\x00exch\x04\x03\x00\x00\x00cos\
            \x05\x00\x00\x00fanin\x02\x10\x00\x00\x00\x00\x00\x00\x00\
            \x05\x00\x00\x00index\x02\x03\x00\x00\x00\x00\x00\x00\x00\
            \x04\x00\x00\x00kind\x04\x0e\x00\x00\x00shuffle-reduce\
            \x07\x00\x00\x00poll_ms\x02\xf4\x01\x00\x00\x00\x00\x00\x00\
            \x08\x00\x00\x00reducers\x02\x08\x00\x00\x00\x00\x00\x00\x00";
        assert_eq!(&sample_shuffle_reduce(4).encode()[..], pinned);
    }

    #[test]
    fn agent_payload_decode_rejects_any_missing_field() {
        let full = Value::decode(&sample_payload(None).encode()).expect("decodes");
        for key in ["bucket", "exec", "job", "task", "func"] {
            let err = AgentPayload::decode(&without(&full, key).encode());
            assert!(err.is_err(), "payload without `{key}` decoded: {err:?}");
        }
    }

    #[test]
    fn agent_payload_decode_rejects_garbage() {
        assert!(AgentPayload::decode(b"nonsense").is_err());
        assert!(AgentPayload::decode(&Value::map().with("bucket", "b").encode()).is_err());
        // Once truncated (`task`) or wrapped (`job`) into another task's.
        let full = Value::decode(&sample_payload(None).encode()).expect("decodes");
        for (key, bad) in [("task", -1i64), ("task", 1 << 32), ("job", -1)] {
            let err = AgentPayload::decode(&full.clone().with(key, bad).encode());
            let err = err.expect_err("out of range");
            assert!(err.contains(&format!("`{key}`")), "{key} = {bad}: {err}");
        }
    }

    #[test]
    fn task_specs_encode_their_kind() {
        let v = TaskSpec::Value(Value::Int(5)).to_value();
        assert_eq!(v.req_str("kind"), Ok("value"));
        let p = TaskSpec::Partition(Partition {
            bucket: "b".into(),
            key: "k".into(),
            start: 0,
            end: 10,
            index: 0,
        })
        .to_value();
        assert_eq!(p.req_str("kind"), Ok("partition"));
        let r = TaskSpec::Reduce {
            deps: vec![ResponseFuture::new("b", "e", 1, 0)],
            group: Some("nyc".into()),
            poll: Duration::from_millis(500),
        }
        .to_value();
        assert_eq!(r.req_str("kind"), Ok("reduce"));
        assert_eq!(r.req_i64("poll_ms"), Ok(500));
        assert_eq!(r.get("group").and_then(Value::as_str), Some("nyc"));
    }

    fn sample_shuffle_reduce(maps: u32) -> Value {
        TaskSpec::ShuffleReduce {
            bucket: "b".into(),
            exec_id: "e".into(),
            map_job: 1,
            maps,
            index: 3,
            poll: Duration::from_millis(500),
            reducers: 8,
            fanin: 16,
        }
        .to_value()
    }

    #[test]
    fn shuffle_reduce_descriptor_stays_compact_at_high_fanin() {
        // A reducer over 1,000 maps once carried 1,000 inlined futures in
        // its descriptor — big enough to evade W003's payload estimate and
        // bloat every activation. The map job travels as a constant-size
        // reference.
        let v = sample_shuffle_reduce(1_000);
        assert!(
            v.encoded_len() < 256,
            "1,000-dep descriptor must be a compact reference, was {} bytes",
            v.encoded_len()
        );
        let deps: Vec<ResponseFuture> = (0..1_000)
            .map(|t| ResponseFuture::new("b", "e", 1, t))
            .collect();
        let params = ShuffleReduceParams::from_desc(&v).expect("decodes");
        assert_eq!(params.deps, deps);
        assert_eq!((params.index, params.fanin), (3, 16));
    }

    #[test]
    fn shuffle_descriptors_reject_any_missing_field() {
        // Each of these once fell back to a default (one reducer, fan-in
        // 16, the COS exchange, the hash partitioner) and ran a protocol the
        // client did not ask for.
        let reduce = sample_shuffle_reduce(4);
        assert!(ShuffleReduceParams::from_desc(&reduce).is_ok());
        for key in ["index", "poll_ms", "reducers", "exch", "fanin", "depr"] {
            let r = ShuffleReduceParams::from_desc(&without(&reduce, key));
            assert!(r.is_err(), "reduce descriptor without `{key}`: {r:?}");
        }
        let depr = reduce.get("depr").expect("depr");
        for key in ["bucket", "exec", "job", "n"] {
            let desc = reduce.clone().with("depr", without(depr, key));
            let r = ShuffleReduceParams::from_desc(&desc);
            assert!(r.is_err(), "reduce descriptor without `depr.{key}`: {r:?}");
        }

        let map = TaskSpec::ShuffleMap {
            inner: Box::new(TaskSpec::Value(Value::Int(1))),
            reducers: 8,
            partitioner: Partitioner::Hash,
            combiner: None,
        }
        .to_value();
        assert!(ShuffleMapParams::from_desc(&map).is_ok());
        for key in ["reducers", "exch", "part"] {
            let r = ShuffleMapParams::from_desc(&without(&map, key));
            assert!(r.is_err(), "map descriptor without `{key}`: {r:?}");
        }

        // Out-of-range integers were once clamped into something plausible
        // (`reducers = i64::MAX` reached `vec![Vec::new(); reducers]`, an
        // `index` past the last reducer read a neighbour's partition or
        // none, `n` was truncated to 32 bits, `fanin = 0` became 2, a
        // `poll_ms` of 0 or less a 1 ms poll).
        for (key, bad) in [
            ("reducers", 0),
            ("reducers", -1),
            ("reducers", MAX_REDUCERS as i64 + 1),
            ("reducers", i64::MAX),
            ("index", -1),
            ("index", 8),
            ("fanin", 1),
            ("fanin", 0),
            ("fanin", -3),
            ("poll_ms", 0),
            ("poll_ms", -1),
            ("poll_ms", i64::MIN),
        ] {
            let r = ShuffleReduceParams::from_desc(&reduce.clone().with(key, bad));
            assert!(r.is_err(), "reduce descriptor with `{key}` = {bad}: {r:?}");
        }
        // …and a negative `depr.job` wrapped into a job number near 2^64.
        for (key, bad) in [
            ("n", -1),
            ("n", i64::from(u32::MAX) + 1),
            ("job", -1),
            ("job", i64::MIN),
        ] {
            let desc = reduce.clone().with("depr", depr.clone().with(key, bad));
            let err = ShuffleReduceParams::from_desc(&desc).expect_err("out of range");
            let named = err.contains("`depr`") && err.contains(&format!("`{key}`"));
            assert!(named, "reduce descriptor with `depr.{key}` = {bad}: {err}");
        }
        for bad in [0, -1, MAX_REDUCERS as i64 + 1, i64::MAX] {
            let r = ShuffleMapParams::from_desc(&map.clone().with("reducers", bad));
            assert!(r.is_err(), "map descriptor with `reducers` = {bad}: {r:?}");
        }
        // The retired relay exchange is refused by name, not run over COS.
        for bad in ["relay", "", "COS"] {
            let err = ShuffleReduceParams::from_desc(&reduce.clone().with("exch", bad));
            let err = err.expect_err("one exchange");
            assert!(
                err.contains(&format!("`{bad}`")),
                "reduce `exch` = {bad}: {err}"
            );
            let err = ShuffleMapParams::from_desc(&map.clone().with("exch", bad));
            let err = err.expect_err("one exchange");
            assert!(
                err.contains(&format!("`{bad}`")),
                "map `exch` = {bad}: {err}"
            );
        }
        let edge = reduce
            .clone()
            .with("index", 7i64)
            .with("fanin", 2i64)
            .with("poll_ms", 1i64);
        assert!(ShuffleReduceParams::from_desc(&edge).is_ok());
    }

    #[test]
    fn reduce_descriptor_rejects_a_garbage_poll() {
        // The plain reduce descriptor's `poll_ms` went through the same
        // clamp to 1 ms as the shuffle reducer's.
        let reduce = TaskSpec::Reduce {
            deps: vec![ResponseFuture::new("b", "e", 1, 0)],
            group: None,
            poll: Duration::from_millis(500),
        }
        .to_value();
        assert_eq!(poll_of(&reduce), Ok(Duration::from_millis(500)));
        assert!(poll_of(&without(&reduce, "poll_ms")).is_err());
        assert!(poll_of(&reduce.clone().with("poll_ms", "500")).is_err());
        for bad in [0, -1, i64::MIN] {
            let err = poll_of(&reduce.clone().with("poll_ms", bad)).expect_err("garbage poll");
            assert!(err.contains("`poll_ms`"), "poll_ms = {bad}: {err}");
        }
        let edge = reduce.clone().with("poll_ms", 1i64);
        assert_eq!(poll_of(&edge), Ok(Duration::from_millis(1)));
    }

    #[test]
    fn reducer_rejects_a_done_map_status_without_a_manifest() {
        // Such a status once read as "every partition is a whole object
        // under its channel key", and the reducer went and fetched one. A
        // manifest of the retired relay exchange is an unknown kind.
        let cloud = SimCloud::builder().seed(3).build();
        cloud.store().ensure_bucket("b");
        cloud.run(|| {
            let cos = CosClient::new(cloud.store(), rustwren_sim::NetworkProfile::lan(), 3);
            let d = ResponseFuture::new("b", "e1", 1, 0);
            let status = TaskStatus::new(None, 0.0, 1.0);
            task::block_on(status.put_async(&cos, &d)).expect("status");
            let pairs = Value::List(vec![Value::map().with("k", "x").with("v", 1i64)]);
            let channel = format!("{}/shuffle-0000", d.task_prefix());
            task::block_on(put_stamped(&cos, "b", &channel, &pairs)).expect("partition");
            let run = fetch_shuffle_run(&cloud, &cos, &d, 0);
            let err = task::block_on(run).expect_err("no manifest, no fetch");
            assert!(err.contains("no shuffle manifest"), "{err}");

            let relay = Value::map().with("n", 4i64).with("k", "relay");
            let status = TaskStatus::new(None, 0.0, 1.0).with_shuf(relay);
            task::block_on(status.put_async(&cos, &d)).expect("status");
            let run = fetch_shuffle_run(&cloud, &cos, &d, 0);
            let err = task::block_on(run).expect_err("an unknown manifest kind");
            assert_eq!(err, "unknown shuffle manifest kind `relay`");
        });
    }

    #[test]
    fn reducer_refuses_a_span_that_fits_no_offset_before_reading() {
        // A negative `o` was once read as 0: with an `l` equal to slice 0's
        // length, reducer 1 was handed reducer 0's pairs and no error.
        let cloud = SimCloud::builder().seed(3).build();
        cloud.store().ensure_bucket("b");
        cloud.run(|| {
            let cos = CosClient::new(cloud.store(), rustwren_sim::NetworkProfile::lan(), 3);
            let d = ResponseFuture::new("b", "e1", 1, 0);
            let slice0 = Value::List(vec![Value::map().with("k", "a").with("v", 1i64)]).stamped();
            let len = slice0.len() as i64;
            cos.put("b", &segment_key(&d.task_prefix()), slice0)
                .expect("segment");
            let fetch = |o: i64, l: i64| {
                let span = |o: i64, l: i64| Value::map().with("o", o).with("l", l);
                let parts = Value::List(vec![span(0, len), span(o, l)]);
                let manifest = Value::map().with("n", 2i64).with("k", "seg");
                let status =
                    TaskStatus::new(None, 0.0, 1.0).with_shuf(manifest.with("parts", parts));
                task::block_on(status.put_async(&cos, &d)).expect("status");
                let before = cos.counters().snapshot();
                let run = task::block_on(fetch_shuffle_run(&cloud, &cos, &d, 1));
                (run, cos.counters().snapshot().since(&before).gets)
            };
            let (run, gets) = fetch(0, len);
            assert_eq!((run.map(|r| r.pairs.len()), gets), (Ok(1), 2));
            for (o, l, field) in [(-1, len, "`o`"), (i64::MIN, len, "`o`"), (0, -len, "`l`")] {
                let (run, gets) = fetch(o, l);
                let err = run.expect_err("a span that fits no offset");
                assert!(err.contains(field), "o = {o}, l = {l}: {err}");
                assert_eq!(gets, 1, "o = {o}, l = {l}: the status GET alone");
            }
        });
    }

    /// The reference the reducer is checked against — its input as it was
    /// built before runs stayed in their bytes: each slice decoded into a
    /// `Value` and taken apart into whole pairs, ...
    fn reference_run(encoded: &[u8]) -> Result<Vec<KeyedPair>, String> {
        let v = Value::decode(encoded).map_err(|e| format!("decoding shuffle data: {e}"))?;
        let Value::List(pairs) = v else {
            return Err("shuffle object must hold a list".to_owned());
        };
        let keyed = |p: Value| Ok((p.req_str("k")?.to_owned(), p));
        pairs.into_iter().map(keyed).collect()
    }

    /// ... the whole pairs merged, and each `v` moved into its key's group.
    fn reference_groups(runs: Vec<Vec<KeyedPair>>, fanin: usize) -> Value {
        let mut groups = std::collections::BTreeMap::new();
        for (key, pair) in merge_runs(runs, fanin).0 {
            let group = groups.entry(key).or_insert_with(|| Value::List(Vec::new()));
            if let Value::List(values) = group {
                values.push(value_of(pair));
            }
        }
        Value::Map(groups)
    }

    /// One map's partition for the reducer under test: elided, or its pair
    /// list inline in the manifest, or encoded behind `filler` bytes of the
    /// segment.
    #[derive(Debug, Clone)]
    enum Slice {
        Elided,
        Inline(Value),
        Segment { filler: usize, encoded: Vec<u8> },
    }

    /// A slice as a map writes one — sorted, keys repeating, some pairs
    /// without a `v` — or one a writer failed to sort (one in four), or,
    /// one time in eleven, damaged: no list (1), an item that is no map
    /// (2), no `k` (3), a `k` that is no string (4), or a segment slice
    /// that is no value at all (5).
    fn slice() -> impl Strategy<Value = Slice> {
        let pairs = prop::collection::vec(("[a-c]{1,2}", prop::option::of(any::<i64>())), 0..6);
        let shape = (0u8..3, 0u8..4, 0u8..55, 0usize..24);
        (shape, pairs).prop_map(|((kind, order, damage, filler), mut pairs)| {
            if order > 0 {
                pairs.sort_by(|a, b| a.0.cmp(&b.0));
            }
            let pair = |(k, v): (String, Option<i64>)| match v {
                Some(v) => Value::map().with("k", k).with("v", v),
                None => Value::map().with("k", k),
            };
            let mut items: Vec<Value> = pairs.into_iter().map(pair).collect();
            match damage {
                2 => items.push(Value::Int(7)),
                3 => items.push(Value::map().with("v", 1i64)),
                4 => items.push(Value::map().with("k", 5i64).with("v", 1i64)),
                _ => {}
            }
            let list = if damage == 1 {
                Value::Int(3)
            } else {
                Value::List(items)
            };
            match kind {
                0 => Slice::Elided,
                1 if damage != 5 => Slice::Inline(list),
                _ => {
                    let mut encoded = list.encode().to_vec();
                    if damage == 5 {
                        encoded.pop();
                    }
                    Slice::Segment { filler, encoded }
                }
            }
        })
    }

    /// Each slice written as map task `t`'s partition 1 of 2 and fetched by
    /// reducer 1, in order: the run and the reference fail at the same map
    /// with the same message, or neither fails and the groups are equal.
    fn check_reducer_input(slices: &[Slice], fanin: usize) -> Result<(), String> {
        let cloud = SimCloud::builder().seed(5).build();
        cloud.store().ensure_bucket("b");
        cloud.run(|| {
            let cos = CosClient::new(cloud.store(), rustwren_sim::NetworkProfile::lan(), 5);
            let (mut runs, mut reference) = (Vec::new(), Vec::new());
            for (t, slice) in (0u32..).zip(slices) {
                let d = ResponseFuture::new("b", "e", 1, t);
                let (entry, encoded) = match slice {
                    Slice::Elided => (Value::Null, None),
                    Slice::Inline(list) => (
                        Value::map().with("d", list.clone()),
                        Some(list.encode().to_vec()),
                    ),
                    Slice::Segment { filler, encoded } => {
                        let stamped = wire::stamp(encoded);
                        let mut segment = vec![0xEE; *filler];
                        segment.extend_from_slice(&stamped);
                        let key = segment_key(&d.task_prefix());
                        cos.put("b", &key, Bytes::from(segment)).expect("segment");
                        let span = Value::map().with("o", *filler).with("l", stamped.len());
                        (span, Some(encoded.clone()))
                    }
                };
                let parts = Value::List(vec![Value::Null, entry]);
                let manifest = Value::map().with("n", 2i64).with("k", "seg");
                let status =
                    TaskStatus::new(None, 0.0, 1.0).with_shuf(manifest.with("parts", parts));
                task::block_on(status.put_async(&cos, &d)).expect("status");
                let run = task::block_on(fetch_shuffle_run(&cloud, &cos, &d, 1));
                match (run, encoded.map_or(Ok(Vec::new()), |e| reference_run(&e))) {
                    (Ok(run), Ok(pairs)) => {
                        runs.push(run);
                        reference.push(pairs);
                    }
                    (Err(got), Err(want)) if got == want => return Ok(()),
                    (got, want) => return Err(format!("map {t}: run {got:?}, reference {want:?}")),
                }
            }
            let (got, want) = (group_runs(&runs, fanin), reference_groups(reference, fanin));
            if got.as_ref() != Ok(&want) {
                return Err(format!("groups {got:?}, reference {want:?}"));
            }
            Ok(())
        })
    }

    /// What the decoded entry says, as [`seg_part`] must read it: which
    /// kind of slice, and the inline value under `d` or the span.
    fn reference_seg_part(entry: Option<&Value>, index: usize) -> Result<(&str, Value), String> {
        let entry = entry.ok_or_else(|| format!("manifest has no entry for partition {index}"))?;
        if entry.is_null() {
            return Ok(("elided", Value::Null));
        }
        if let Some(inline) = entry.get("d") {
            return Ok(("inline", inline.clone()));
        }
        let span = |k: &str| {
            let n = entry.get(k).and_then(Value::as_i64);
            let n = n.ok_or_else(|| format!("missing or non-int field `{k}`"))?;
            u64::try_from(n).map_err(|_| format!("field `{k}` is out of range: {n}"))
        };
        Ok(("span", span_value(span("o")?, span("l")?)))
    }

    /// A span as the reference reports one; each half came from an `i64`.
    fn span_value(o: u64, l: u64) -> Value {
        Value::from(vec![Value::Int(o as i64), Value::Int(l as i64)])
    }

    /// [`seg_part`] on `bytes` as reducer `index`'s entry: never a panic,
    /// whether or not the bytes are a value; and, on bytes a walk accepts,
    /// the reference's slice or its error.
    fn check_seg_part(bytes: &[u8], index: usize) -> Result<(), String> {
        let got = seg_part(Some(ValueRef::at_offset(bytes, 0)), index);
        let Ok(decoded) = Value::decode(bytes) else {
            return Ok(());
        };
        ValueRef::parse_entries(bytes, |_, _| {}).map_err(|e| format!("walk: {e}"))?;
        let got = got.and_then(|part| match part {
            SegPart::Elided => Ok(("elided", Value::Null)),
            SegPart::Inline(at) => match ValueRef::at_offset(bytes, at).to_value() {
                Ok(inline) => Ok(("inline", inline)),
                Err(e) => Err(e.to_string()),
            },
            SegPart::Span(o, l) => Ok(("span", span_value(o, l))),
        });
        let want = reference_seg_part(Some(&decoded), index);
        if got != want {
            return Err(format!("{decoded:?}: read {got:?}, reference {want:?}"));
        }
        Ok(())
    }

    /// A manifest entry as a map writes one (`null`, an inline list, a
    /// span), as one may arrive mangled (fields missing, repeated or
    /// mistyped, a span out of range), or any value.
    fn seg_entry() -> impl Strategy<Value = Vec<u8>> {
        let field = prop_oneof![
            any::<i64>().prop_map(Value::Int),
            (0i64..1 << 20).prop_map(Value::Int),
            corpus::value(),
        ];
        let key = prop::sample::select(vec!["d", "o", "l", "o", "l", "x"]);
        let entries = prop::collection::vec((key.prop_map(str::to_owned), field), 0..5);
        prop_oneof![
            Just(Value::Null.encode().to_vec()),
            corpus::value().prop_map(|d| Value::map().with("d", d).encode().to_vec()),
            (0i64..1 << 20, 0i64..1 << 20).prop_map(|(o, l)| Value::map()
                .with("o", o)
                .with("l", l)
                .encode()
                .to_vec()),
            entries.prop_map(|entries| corpus::encode_entries(&entries)),
            corpus::value().prop_map(|v| v.encode().to_vec()),
        ]
    }

    #[test]
    fn seg_part_without_an_entry_is_a_typed_error() {
        let err = seg_part(None, 3).expect_err("no entry");
        assert_eq!(err, "manifest has no entry for partition 3");
    }

    /// A CloudSort-shaped job, M maps by R reducers: every reducer GETs and
    /// verifies every map's status, and each status is walked once.
    #[test]
    fn each_map_status_is_walked_once_per_cloud() {
        let (maps, reducers) = (6, 5);
        let cloud = SimCloud::builder().seed(11).build();
        cloud.register_fn("spread", |_ctx: &crate::TaskCtx, v: Value| {
            let n = v.as_i64().ok_or("int")?;
            let pair = |k: i64| Value::map().with("k", format!("k{k}")).with("v", n);
            Ok(Value::List((0..16).map(pair).collect()))
        });
        cloud.register_fn("count", |_ctx: &crate::TaskCtx, v: Value| {
            let groups = v.get("groups").and_then(Value::as_map).ok_or("no groups")?;
            Ok(Value::from(groups.len()))
        });
        let counts = cloud.run(|| {
            let exec = cloud.executor().build()?;
            let source = crate::DataSource::Values((0..maps).map(Value::from).collect());
            let opts = crate::ShuffleOpts {
                reducers,
                ..crate::ShuffleOpts::default()
            };
            exec.map_shuffle_reduce("spread", source, "count", opts)?;
            exec.get_result()
        });
        let keys: i64 = counts
            .expect("the job")
            .iter()
            .filter_map(Value::as_i64)
            .sum();
        assert_eq!(keys, 16, "every key reduced once");
        let (walked, reused) = cloud.inner.statuses.counts();
        assert_eq!(walked, maps as u64, "one walk per map status");
        assert_eq!(
            walked + reused,
            (maps * reducers) as u64,
            "one read per map and reducer"
        );
    }

    use crate::wire::corpus;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn seg_part_reads_any_entry_as_the_decoded_reference(
            entry in seg_entry(),
            index in 0usize..4,
            damage in corpus::damage(),
        ) {
            for bytes in corpus::damaged(&entry, damage) {
                check_seg_part(&bytes, index).map_err(TestCaseError::fail)?;
            }
        }

        #[test]
        fn reducer_input_from_views_is_the_decoded_reference(
            slices in prop::collection::vec(slice(), 1..12),
            fanin in 2usize..17,
        ) {
            check_reducer_input(&slices, fanin).map_err(TestCaseError::fail)?;
        }
    }
}
