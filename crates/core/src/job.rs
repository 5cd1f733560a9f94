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
use std::sync::{Arc, Weak};
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
use crate::shuffle::{merge_runs, segment_key, ExchangeMode, Partitioner, Route, MAX_REDUCERS};
use crate::task::TaskCtx;
use crate::wire::{self, required, required_int, Entries, Value, ValueRef, Writer, STAMP_LEN};

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
/// encoded and stamped in one buffer, and vouched for: the checksum was
/// just computed over these very bytes. Every staged object (func, input,
/// status, result, shuffle slice) is written stamped — here, where the
/// writes are batched, or as a status is — so readers can always demand a
/// valid stamp.
pub(crate) async fn put_stamped(
    cos: &CosClient,
    bucket: &str,
    key: &str,
    value: &Value,
) -> Result<(), rustwren_store::StoreError> {
    cos.put_vouched_async(bucket, key, value.stamped()).await
}

/// Reads issued for one stamped object before a bad stamp is final.
const VERIFY_READS: u32 = 3;

/// The one verified-read loop: a stamp failure means the *read* was
/// corrupted — the stored object is intact — so a couple of immediate
/// re-fetches usually heal it without burning a whole task attempt. `read`
/// returns the bytes and whether they are the very allocation a vouching
/// writer stamped ([`CosClient::get_vouched_async`]); such a read's stamp
/// is the one its writer computed over these bytes, so only its payload is
/// taken, and every other read has its stamp checked
/// ([`wire::verified_payload`]). Returns the first read that passes, as
/// (the whole stamped bytes, their payload); `integrity` turns the last
/// read's stamp failure into the caller's error.
async fn read_verified<E, R>(
    read: impl Fn() -> R,
    integrity: impl Fn(wire::WireError) -> E,
) -> Result<(Bytes, Bytes), E>
where
    R: Future<Output = Result<(Bytes, bool), E>>,
{
    let mut reads = 1;
    loop {
        let (raw, vouched) = read().await?;
        let payload = match vouched {
            true => raw
                .try_slice(STAMP_LEN..)
                .ok_or(wire::WireError::MissingStamp),
            false => wire::verified_payload(&raw),
        };
        match payload {
            Ok(payload) => return Ok((raw, payload)),
            Err(e) if reads == VERIFY_READS => return Err(integrity(e)),
            Err(_) => reads += 1,
        }
    }
}

/// Reads a staged object and checks its stamp ([`read_verified`]),
/// returning the *whole stamped representation* (magic + checksum +
/// payload) — the form the container-local blob cache stores — and the
/// payload in it. Surfaces failure as [`PywrenError::Integrity`].
async fn get_stamped(
    cos: &CosClient,
    bucket: &str,
    key: &str,
) -> crate::error::Result<(Bytes, Bytes)> {
    read_verified(
        || async {
            cos.get_vouched_async(bucket, key)
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

/// Reads a staged object and checks its checksum stamp, surfacing a
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

/// The small payload carried by each agent invocation, bytes from submit to
/// agent: the client encodes a task's descriptor once, a remote invoker
/// hands the agent a slice of its own payload, and the agent reads the
/// fields in place. A descriptor of at most [`INLINE_MAX_BYTES`] rides along
/// (`inline`), eliminating the staged input object and its PUT/GET round
/// trip.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AgentPayload {
    /// The task this payload (re-)runs.
    pub fut: ResponseFuture,
    pub func_name: String,
    /// Inlined task descriptor, encoded: when set, the agent decodes this
    /// instead of fetching `…/input` from COS (which is never staged for
    /// such tasks).
    pub inline: Option<Bytes>,
}

impl AgentPayload {
    /// The payload that (re-)runs task `f` as `func_name`.
    pub(crate) fn new(f: &ResponseFuture, func_name: &str, inline: Option<Bytes>) -> AgentPayload {
        AgentPayload {
            fut: f.clone(),
            func_name: func_name.to_owned(),
            inline,
        }
    }

    /// Exact length of what [`encode_into`](AgentPayload::encode_into) writes.
    pub(crate) fn encoded_len(&self) -> usize {
        Writer::measure(|w| self.encode_into(w))
    }

    /// Writes the payload as the map it is, the descriptor's bytes spliced
    /// in as they were encoded at submit.
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        let mut fields = w.map_header(5 + usize::from(self.inline.is_some()));
        fields.key("bucket").str(self.fut.bucket());
        fields.key("exec").str(self.fut.exec_id());
        fields.key("func").str(&self.func_name);
        if let Some(desc) = &self.inline {
            fields.key("inline").raw(desc);
        }
        fields.key("job").int(self.fut.job_id() as i64);
        fields.key("task").int(i64::from(self.fut.task()));
    }

    pub(crate) fn encode(&self) -> Bytes {
        let mut w = Writer::new(self.encoded_len());
        self.encode_into(&mut w);
        w.finish()
    }

    /// Reads a payload in the one pass that validates it; the inline
    /// descriptor is a slice of `raw`, not a copy.
    pub(crate) fn decode(raw: &Bytes) -> Result<AgentPayload, String> {
        // The last entry under a key wins, as it would decoding into a map.
        let (mut bucket, mut exec, mut func, mut job, mut task) = (None, None, None, None, None);
        let mut inline = None;
        ValueRef::parse_entries(raw, |key, v, end| match key {
            "bucket" => bucket = Some(v),
            "exec" => exec = Some(v),
            "func" => func = Some(v),
            "job" => job = Some(v),
            "task" => task = Some(v),
            "inline" => inline = Some(v.offset()..end),
            _ => {}
        })
        .map_err(|e| e.to_string())?;
        fn text<'a>(v: Option<ValueRef<'a>>, key: &str) -> Result<&'a str, String> {
            required(v.and_then(|v| v.as_str()), key, "string")
        }
        let (bucket, exec) = (text(bucket, "bucket")?, text(exec, "exec")?);
        let job = required_int(job.and_then(|v| v.as_i64()), "job")?;
        let task = required_int(task.and_then(|v| v.as_i64()), "task")?;
        Ok(AgentPayload {
            fut: ResponseFuture::new(bucket, exec, job, task),
            func_name: text(func, "func")?.to_owned(),
            inline: inline.and_then(|span| raw.try_slice(span)),
        })
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
        bucket: Arc<str>,
        exec_id: Arc<str>,
        map_job: u64,
        maps: u32,
        index: usize,
        poll: Duration,
        reducers: usize,
        fanin: usize,
    },
}

impl TaskSpec {
    /// Exact length of the descriptor [`encode`](TaskSpec::encode) writes,
    /// with `extra` merged in.
    pub(crate) fn encoded_len(&self, extra: Option<&Value>) -> usize {
        Writer::measure(|w| self.encode_into(w, extra))
    }

    /// The descriptor with `extra` merged in, written once into `w`, a
    /// writer sized by [`encoded_len`](TaskSpec::encoded_len): plain to ride
    /// inline in a payload, stamped to be staged.
    pub(crate) fn encode(&self, mut w: Writer, extra: Option<&Value>) -> Bytes {
        self.encode_into(&mut w, extra);
        w.finish()
    }

    /// Writes the descriptor as the map it is, `extra` where its key sorts.
    fn encode_into(&self, w: &mut Writer, extra: Option<&Value>) {
        let count = |fields: usize| fields + usize::from(extra.is_some());
        let exch = ExchangeMode::Cos.as_str();
        match self {
            TaskSpec::Value(v) => {
                let mut fields = w.map_header(count(2));
                extra_entry(&mut fields, extra);
                fields.key("kind").str("value");
                fields.key("value").value(v);
            }
            TaskSpec::Partition(p) => {
                let mut fields = w.map_header(count(2));
                extra_entry(&mut fields, extra);
                fields.key("kind").str("partition");
                p.encode_into(fields.key("part"));
            }
            TaskSpec::Reduce { deps, group, poll } => {
                let mut fields = w.map_header(count(4));
                let list = fields.key("deps");
                list.list_header(deps.len());
                for d in deps {
                    d.encode_into(list);
                }
                extra_entry(&mut fields, extra);
                match group {
                    Some(g) => fields.key("group").str(g),
                    None => fields.key("group").null(),
                }
                fields.key("kind").str("reduce");
                fields.key("poll_ms").int(poll.as_millis() as i64);
            }
            TaskSpec::ShuffleMap {
                inner,
                reducers,
                partitioner,
                combiner,
            } => {
                let mut fields = w.map_header(count(5 + usize::from(combiner.is_some())));
                if let Some(c) = combiner {
                    fields.key("comb").str(c);
                }
                fields.key("exch").str(exch);
                extra_entry(&mut fields, extra);
                inner.encode_into(fields.key("inner"), None);
                fields.key("kind").str("shuffle-map");
                partitioner.encode_into(fields.key("part"));
                fields.key("reducers").int(*reducers as i64);
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
            } => {
                let mut fields = w.map_header(count(7));
                let mut depr = fields.key("depr").map_header(4);
                depr.key("bucket").str(bucket);
                depr.key("exec").str(exec_id);
                depr.key("job").int(*map_job as i64);
                depr.key("n").int(i64::from(*maps));
                fields.key("exch").str(exch);
                extra_entry(&mut fields, extra);
                fields.key("fanin").int(*fanin as i64);
                fields.key("index").int(*index as i64);
                fields.key("kind").str("shuffle-reduce");
                fields.key("poll_ms").int(poll.as_millis() as i64);
                fields.key("reducers").int(*reducers as i64);
            }
        }
    }
}

/// A descriptor's `extra` entry, if it has one.
fn extra_entry(fields: &mut Entries<'_, '_>, extra: Option<&Value>) {
    if let Some(extra) = extra {
        fields.key("extra").value(extra);
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
    let fut = &payload.fut;
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
                status = status.with_manifest(manifest);
            }
            if result.encoded_len() <= INLINE_MAX_BYTES {
                status = status.with_result(result);
            } else {
                put_stamped(&cos, fut.bucket(), &fut.result_key(), &result)
                    .await
                    .map_err(|e| ActionError(format!("writing result: {e}")))?;
            }
            chaos_crash_point(PHASE_AFTER_PUT, crash_token);
            status
                .put_async(&cos, fut)
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
                .and_then(|raw| TaskStatus::decode(raw, fut))
                .is_ok_and(|s| s.error().is_none());
            if !done_already {
                TaskStatus::new(Some(&msg), started, ended)
                    .put_async(&cos, fut)
                    .await
                    .map_err(|e| ActionError(format!("writing status: {e}")))?;
            }
            Err(ActionError(msg))
        }
    }
}

/// Runs the task described by `payload`, returning its result value plus —
/// for shuffle maps — the encoded partition manifest to embed in the status
/// object.
/// Every kind's input and output I/O is resumable; what may block is the
/// user's code, which asks for a thread itself when registered blocking.
async fn execute_task(
    cloud: &SimCloud,
    ctx: &ActivationCtx,
    cos: &CosClient,
    payload: &AgentPayload,
) -> Result<(Value, Option<Bytes>), String> {
    let fut = &payload.fut;
    // Download the "pickled" function, as the real agent does — via the
    // warm-container blob cache.
    let _code = fetch_func_blob(ctx, cos, payload).await?;
    // The descriptor is read in place, and what is built of it is the
    // user's input (and, for the kinds that need them, their parameters).
    let staged;
    let desc = match &payload.inline {
        // The descriptor rode inside the activation payload, whose parse
        // checked it: no staged input object exists for this task.
        Some(desc) => desc,
        None => {
            staged = get_verified_async(cos, fut.bucket(), &fut.input_key())
                .await
                .map_err(|e| format!("fetching input: {e}"))?;
            ValueRef::parse_entries(&staged, |_, _, _| {})
                .map_err(|e| format!("decoding input: {e}"))?;
            &staged
        }
    };
    let desc = ValueRef::at_offset(desc, 0);

    let task_ctx = TaskCtx::new(ctx.clone(), cloud.clone());
    let kind = required(desc.get("kind").and_then(|k| k.as_str()), "kind", "string")?;
    let func = cloud
        .registry()
        .lookup(&payload.func_name)
        .ok_or_else(|| format!("function `{}` not registered", payload.func_name))?;
    match kind {
        "shuffle-map" => {
            let params = ShuffleMapParams::from_desc(desc)?;
            let inner = desc.get("inner").ok_or("missing field `inner`")?;
            let input = build_input(ctx, cos, inner).await?;
            let output = call_task(&func, &task_ctx, input).await?;
            boxed(|| write_shuffle_output(cloud, cos, fut, &task_ctx, output, &params))
                .await
                .map(|(result, manifest)| (result, Some(manifest)))
        }
        "shuffle-reduce" => {
            let desc = built(desc)?;
            let input = boxed(|| build_shuffle_reduce_input(cloud, ctx, cos, &desc)).await?;
            call_task(&func, &task_ctx, input).await.map(|r| (r, None))
        }
        _ => {
            let input = build_input(ctx, cos, desc).await?;
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

/// A descriptor's reducer count (its `reducers` field, if an integer),
/// bounded before anything allocates one bucket per reducer for it.
fn reducers_of(reducers: Option<i64>) -> Result<usize, String> {
    match usize::try_from(required(reducers, "reducers", "int")?) {
        Ok(n) if (1..=MAX_REDUCERS).contains(&n) => Ok(n),
        _ => Err(format!("field `reducers` must be in 1..={MAX_REDUCERS}")),
    }
}

/// Decoded shuffle-map descriptor fields (partitioning policy), read in
/// place: a range partitioner's boundaries and the combiner's name are
/// slices of the descriptor.
#[derive(Debug)]
struct ShuffleMapParams<'a> {
    reducers: usize,
    route: Route<'a>,
    combiner: Option<&'a str>,
}

impl<'a> ShuffleMapParams<'a> {
    fn from_desc(desc: ValueRef<'a>) -> Result<ShuffleMapParams<'a>, String> {
        let reducers = reducers_of(desc.get("reducers").and_then(|n| n.as_i64()))?;
        let exch = desc.get("exch").and_then(|e| e.as_str());
        ExchangeMode::from_wire(required(exch, "exch", "string")?)?;
        let part = desc.get("part").ok_or("missing field `part`")?;
        Ok(ShuffleMapParams {
            reducers,
            route: Route::from_view(part)?,
            combiner: desc.get("comb").and_then(|c| c.as_str()),
        })
    }
}

/// Fetches the job's function blob, serving warm-container repeats from the
/// [`rustwren_faas::BlobCache`]: a 1,000-task job over 100 containers pays
/// ~100 func GETs instead of 1,000. The cache holds the *stamped* bytes of a
/// read that passed [`read_verified`], so a hit is taken as it is — except
/// an entry poisoned in container memory (the chaos engine's `PoisonCache`
/// fault), a copy, whose stamp is checked: it fails, is dropped, and heals
/// via a fresh COS fetch — corruption never silently reaches the user
/// function.
async fn fetch_func_blob(
    ctx: &ActivationCtx,
    cos: &CosClient,
    payload: &AgentPayload,
) -> Result<Bytes, String> {
    let (bucket, key) = (
        payload.fut.bucket(),
        func_key(payload.fut.exec_id(), payload.fut.job_id()),
    );
    let cache = ctx.blob_cache();
    let hit = cache.get(&key).map(|stamped| {
        let token = hash2(ctx.activation_id().0, 0xCACE);
        let chaos = rustwren_sim::chaos::current();
        match chaos.and_then(|chaos| chaos.poison_cached_blob(bucket, &key, token, &stamped)) {
            // The fault corrupts the cached copy itself, not just this
            // read — keep the damage in the cache so the heal is real.
            Some(poisoned) => {
                let poisoned = Bytes::from(poisoned);
                cache.insert(&key, poisoned.clone());
                wire::verified_payload(&poisoned).ok()
            }
            None => stamped.try_slice(STAMP_LEN..),
        }
    });
    if let Some(Some(code)) = hit {
        ctx.note_blob_cache(true);
        return Ok(code);
    }
    let heal = hit.is_some();
    if heal {
        cache.remove(&key);
    }
    let (stamped, code) = get_stamped(cos, bucket, &key)
        .await
        .map_err(|e| match heal {
            true => format!("refetching poisoned cached function: {e}"),
            false => format!("fetching function: {e}"),
        })?;
    cache.insert(&key, stamped);
    match heal {
        true => ctx.note_blob_cache_heal(),
        false => ctx.note_blob_cache(false),
    }
    Ok(code)
}

/// Partitions a shuffling map task's `(key, value)` pairs across the
/// reducers through COS; returns the summary stored as the task result plus
/// the partition manifest embedded in the task's status object (`"shuf"`),
/// encoded.
///
/// Empty partitions are never written — the manifest records them as
/// absent, so a reducer can distinguish "this map produced nothing for me"
/// (run on) from "this map's data went missing" (typed loss error) under
/// chaos: the per-reducer entry is `Null`.
async fn write_shuffle_output(
    cloud: &SimCloud,
    cos: &CosClient,
    fut: &ResponseFuture,
    task_ctx: &TaskCtx,
    output: Value,
    params: &ShuffleMapParams<'_>,
) -> Result<(Value, Bytes), String> {
    let combiner = |name: &str| -> Result<_, String> {
        let lookup = cloud.registry().lookup(name);
        let func = lookup.ok_or_else(|| format!("combiner `{name}` is not registered"))?;
        Ok(move |input| task::catch_unwind((func.start)(task_ctx.clone(), input)))
    };
    let spill = spill(output, params, combiner).await?;
    if !spill.segment.is_empty() {
        // Slices carry their own stamps (range reads can't verify a whole-
        // object stamp), so the segment is PUT raw.
        let key = segment_key(&fut.task_prefix());
        cos.put_async(fut.bucket(), &key, Bytes::from(spill.segment))
            .await
            .map_err(|e| format!("writing shuffle segment: {e}"))?;
    }
    let summary = Value::map()
        .with("pairs", spill.pairs as i64)
        .with("reducers", params.reducers as i64);
    Ok((summary, spill.manifest))
}

/// A shuffle map's output as written: how many pairs it had, the encoded
/// manifest of its runs, and the segment of the runs too big to ride in the
/// manifest (empty: there is no segment object).
#[derive(Debug)]
struct Spill {
    pairs: usize,
    manifest: Bytes,
    segment: Vec<u8>,
}

/// What one combiner call returns: the function's own result, or its panic.
type Combined = Result<Result<Value, String>, Box<dyn Any + Send>>;

/// Sorts a shuffle map's output into one run per reducer (so reducers merge
/// instead of re-sorting) and writes the runs: each pair whole, or, with a
/// combiner, one `{k, v}` per key, `v` what the combiner made of the key's
/// values. `combiner` resolves the combiner's name once every pair is known
/// to be good. The combiner sees `{"k": key, "vs": [values…]}` (singletons
/// included, so its semantics don't depend on luck of partition sizes),
/// made in place of the group's first pair; nothing else is built.
async fn spill<C, F>(
    output: Value,
    params: &ShuffleMapParams<'_>,
    combiner: impl FnOnce(&str) -> Result<C, String>,
) -> Result<Spill, String>
where
    C: FnMut(Value) -> F,
    F: Future<Output = Combined>,
{
    let Value::List(mut pairs) = output else {
        return Err("shuffle map functions must return a list of {k, v} pairs".to_owned());
    };
    let reducers = params.reducers;
    // Each pair's reducer and key, sorted as the runs hold them: by reducer,
    // then key, equal keys in emission order (the sort is stable).
    let mut order = Vec::with_capacity(pairs.len());
    for (i, pair) in pairs.iter().enumerate() {
        let key = pair.req_str("k")?;
        match params.route.bucket_of(key, reducers) {
            b if b < reducers => order.push((b, key, i)),
            _ => return Err("internal: partitioner chose a bucket past the last reducer".into()),
        }
    }
    order.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    let total = pairs.len();
    let (manifest, segment) = match params.combiner {
        None => {
            let whole = |&(b, _, i): &(usize, &str, usize)| Some((b, pairs.get(i)?));
            let runs: Vec<(usize, &Value)> = order.iter().filter_map(whole).collect();
            write_runs(&runs, reducers)
        }
        Some(name) => {
            let order = order.into_iter().map(|(b, _, i)| (b, i)).collect();
            let combined = combine_groups(&mut pairs, order, name, combiner(name)?).await?;
            write_runs(&combined, reducers)
        }
    };
    Ok(Spill {
        pairs: total,
        manifest,
        segment,
    })
}

/// Folds each key group of `pairs`, in `order` (reducer and pair index,
/// sorted), through the combiner `name`: one `(reducer, (key, v))` per
/// key. Each group folds into its first pair, whose key is copied out
/// before the pair is handed over.
async fn combine_groups<F: Future<Output = Combined>>(
    pairs: &mut [Value],
    order: Vec<(usize, usize)>,
    name: &str,
    mut combine: impl FnMut(Value) -> F,
) -> Result<Vec<(usize, (String, Value))>, String> {
    let mut combined = Vec::new();
    let mut order = order.into_iter().peekable();
    while let Some((bucket, first)) = order.next() {
        let key = key_at(pairs, first).ok_or("internal: a pair lost its key")?;
        let key = key.to_owned();
        let mut vs = vec![take_value(pairs.get_mut(first))];
        while let Some((_, i)) = order.next_if(|&(_, i)| key_at(pairs, i) == Some(&key)) {
            vs.push(take_value(pairs.get_mut(i)));
        }
        let Some(Value::Map(mut input)) = pairs.get_mut(first).map(std::mem::take) else {
            return Err("internal: a pair lost its key".to_owned());
        };
        input.retain(|k, _| k == "k");
        input.insert("vs".to_owned(), Value::List(vs));
        let v = match combine(Value::Map(input)).await {
            Ok(r) => r.map_err(|e| format!("combiner `{name}` failed for key `{key}`: {e}"))?,
            Err(p) => {
                return Err(format!(
                    "combiner `{name}` panicked for key `{key}`: {}",
                    panic_text(&p)
                ))
            }
        };
        combined.push((bucket, (key, v)));
    }
    Ok(combined)
}

/// The key of pair `i`.
fn key_at(pairs: &[Value], i: usize) -> Option<&str> {
    pairs.get(i)?.get("k")?.as_str()
}

/// The `v` of a `{k, v}` pair, taken out of it (`null` if it has none).
fn take_value(pair: Option<&mut Value>) -> Value {
    let v = pair.and_then(|pair| match pair {
        Value::Map(fields) => fields.get_mut("v").map(std::mem::take),
        _ => None,
    });
    v.unwrap_or(Value::Null)
}

/// One pair of a reducer's run, as the manifest or a segment slice holds it.
trait RunItem {
    fn encode_into(&self, w: &mut Writer);
}

/// A pair whole, as the map function returned it.
impl RunItem for &Value {
    fn encode_into(&self, w: &mut Writer) {
        w.value(self);
    }
}

/// A key with what the combiner made of its values: `{k, v}`.
impl RunItem for (String, Value) {
    fn encode_into(&self, w: &mut Writer) {
        let mut fields = w.map_header(2);
        fields.key("k").str(&self.0);
        fields.key("v").value(&self.1);
    }
}

/// Writes `items`, sorted by reducer, as a `seg` manifest of `reducers`
/// runs, and the segment of the runs it does not hold. One *segment*
/// object per map: a tiny run rides inline in the manifest itself (the
/// status PUT delivers it for free, like inline results), as `{"d": run}`;
/// a bigger one is stamped on its own and appended to the segment, so each
/// reducer range-GETs exactly its slice, found at `{"o": offset, "l":
/// length}`; an empty one is `null`. The manifest is measured, then
/// written, by the same code; the slices are written once.
fn write_runs<T: RunItem>(items: &[(usize, T)], reducers: usize) -> (Bytes, Vec<u8>) {
    let runs = || items.chunk_by(|a, b| a.0 == b.0);
    let lens: Vec<usize> = runs()
        .map(|run| Writer::measure(|w| write_run(w, run)))
        .collect();
    let spilled = lens.iter().filter(|&&len| len > INLINE_MAX_BYTES);
    let mut segment = Vec::with_capacity(spilled.map(|len| STAMP_LEN + len).sum());
    // Writes the manifest, and each spilled run onto `segment` if given.
    let manifest = |w: &mut Writer, mut segment: Option<&mut Vec<u8>>| {
        let mut fields = w.map_header(3);
        fields.key("k").str("seg");
        fields.key("n").int(reducers as i64);
        let parts = fields.key("parts");
        parts.list_header(reducers);
        let (mut runs, mut off) = (runs().zip(&lens).peekable(), 0);
        for r in 0..reducers {
            let of_r = |(run, _): &(&[(usize, T)], _)| run.first().is_some_and(|&(b, _)| b == r);
            match runs.next_if(of_r) {
                None => parts.null(),
                Some((run, &len)) if len <= INLINE_MAX_BYTES => {
                    write_run(parts.map_header(1).key("d"), run);
                }
                Some((run, &len)) => {
                    if let Some(segment) = segment.as_deref_mut() {
                        let mut slice = Writer::stamped_onto(std::mem::take(segment), len);
                        write_run(&mut slice, run);
                        *segment = slice.finish_vec();
                    }
                    let mut at = parts.map_header(2);
                    at.key("l").int((STAMP_LEN + len) as i64);
                    at.key("o").int(off as i64);
                    off += STAMP_LEN + len;
                }
            }
        }
    };
    let mut w = Writer::new(Writer::measure(|w| manifest(w, None)));
    manifest(&mut w, Some(&mut segment));
    (w.finish(), segment)
}

/// One run's items as the list they are.
fn write_run<T: RunItem>(w: &mut Writer, run: &[(usize, T)]) {
    w.list_header(run.len());
    for (_, item) in run {
        item.encode_into(w);
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
        let reducers = reducers_of(desc.get("reducers").and_then(Value::as_i64))?;
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
        // Siblings of one future, sharing its names.
        let map_job = ResponseFuture::new(bucket, exec, job, 0);
        Ok(ShuffleReduceParams {
            deps: (0..maps).map(|t| map_job.sibling(t)).collect(),
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
        // One pass over each pair's entries; the last of a repeated key
        // wins, as it would decoding into a map.
        let pair = |p: ValueRef<'_>| {
            let (mut k, mut v) = (None, None);
            for (key, value) in p.entries().into_iter().flatten() {
                match key {
                    "k" => k = Some(value),
                    "v" => v = Some(value),
                    _ => {}
                }
            }
            let k = k.filter(|k| k.as_str().is_some());
            let k = k.ok_or("missing or non-string field `k`")?;
            Ok((k.offset(), v.map(|v| v.offset())))
        };
        let items = ValueRef::at_offset(&bytes, at).items();
        let items = items.ok_or("shuffle object must hold a list")?;
        let pairs = items.map(pair).collect::<Result<_, String>>()?;
        Ok(Run { bytes, pairs })
    }

    /// [`within`](Run::within) a slice no walk has checked yet, first
    /// checked end to end with the error decoding it would give.
    fn parse(bytes: Bytes) -> Result<Run, String> {
        ValueRef::parse_entries(&bytes, |_, _, _| {})
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
        slice.map(|slice| (slice, false)).map_err(|e| match e {
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
    let status = read.and_then(|raw| match memo {
        Some(memo) => memo.decode(key, raw, d),
        None => TaskStatus::decode(raw, d),
    });
    let status = status.map_err(|e| format!("fetching dep status: {e}"))?;
    match status.error() {
        Some(msg) => Err(format!("map task {} failed: {msg}", d.label())),
        None => Ok(status),
    }
}

/// Materializes the user function's input from the task descriptor,
/// merging any job-level `extra` entries into map-shaped inputs. A plain
/// value is its own input, and the one part of the descriptor built; the
/// kinds that read COS do so in boxed futures of their own.
async fn build_input(
    ctx: &ActivationCtx,
    cos: &CosClient,
    desc: ValueRef<'_>,
) -> Result<Value, String> {
    let input = match required(desc.get("kind").and_then(|k| k.as_str()), "kind", "string")? {
        "value" => desc.get("value").map_or(Ok(Value::Null), built)?,
        "partition" => {
            let desc = built(desc)?;
            boxed(|| partition_input(cos, &desc)).await?
        }
        "reduce" => {
            let desc = built(desc)?;
            boxed(|| reduce_input(ctx, cos, &desc)).await?
        }
        other => return Err(format!("unknown task kind `{other}`")),
    };
    let Some(Value::Map(extra)) = desc.get("extra").map(built).transpose()? else {
        return Ok(input);
    };
    match input {
        Value::Map(mut m) => {
            for (k, v) in extra {
                m.entry(k).or_insert(v);
            }
            Ok(Value::Map(m))
        }
        other => Ok(Value::map()
            .with("value", other)
            .with("extra", Value::Map(extra))),
    }
}

/// The value under a view of a checked descriptor.
fn built(v: ValueRef<'_>) -> Result<Value, String> {
    v.to_value().map_err(|e| format!("decoding input: {e}"))
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
    use crate::shuffle::tests::{sort_run, KeyedPair};

    impl TaskSpec {
        /// The descriptor as a value: what [`encode`](TaskSpec::encode) writes
        /// without `extra`, built the way the client built every descriptor
        /// before it was written field by field.
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
                            .with("bucket", &**bucket)
                            .with("exec", &**exec_id)
                            .with("job", *map_job as i64)
                            .with("n", i64::from(*maps)),
                    ),
            }
        }
    }

    /// [`ShuffleMapParams::from_desc`] of `desc`'s encoding, or its error.
    fn map_params(desc: &Value) -> Result<(), String> {
        let encoded = desc.encode();
        ShuffleMapParams::from_desc(ValueRef::at_offset(&encoded, 0)).map(drop)
    }

    /// `v` (a map value) without its field `key`.
    fn without(v: &Value, key: &str) -> Value {
        let mut m = v.as_map().expect("a map value").clone();
        assert!(m.remove(key).is_some(), "no field `{key}` to strip");
        Value::Map(m)
    }

    fn sample_payload(inline: Option<Value>) -> AgentPayload {
        let f = ResponseFuture::new("rustwren-runtime", "e1", 4, 9);
        AgentPayload::new(&f, "tone", inline.map(|desc| desc.encode()))
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
        let desc = decoded.inline.map(|d| Value::decode(&d));
        let desc = desc.expect("inline").expect("a descriptor");
        assert_eq!(desc.req_str("kind"), Ok("value"));
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

    /// The payloads `spawn_tasks` hands the remote invoker action for
    /// `payloads` in groups of `group_size`, as that action receives them.
    fn invoker_groups(payloads: &[AgentPayload], group_size: usize) -> Vec<Bytes> {
        use crate::invoker::{spawn_tasks, INVOKER_ACTION};
        use rustwren_faas::{ActionConfig, CloudFunctions, FaasClient, PlatformConfig};
        use rustwren_sim::Kernel;
        use rustwren_store::ObjectStore;
        use std::sync::{Arc, Mutex};

        let kernel = Kernel::new();
        let store = ObjectStore::new(&kernel);
        let faas = CloudFunctions::new(&kernel, &store, PlatformConfig::default());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let record = Arc::clone(&seen);
        let invoker = move |_ctx: ActivationCtx, payload: Bytes| {
            record.lock().expect("not poisoned").push(payload);
            async { Ok(Bytes::new()) }
        };
        faas.register_resumable(INVOKER_ACTION, ActionConfig::default(), invoker)
            .expect("a fresh platform");
        let strategy = crate::SpawnStrategy::RemoteInvoker {
            group_size,
            invoker_threads: 3,
        };
        kernel.run("client", || {
            let client = FaasClient::new(&faas, rustwren_sim::NetworkProfile::lan(), 1);
            let spawned = spawn_tasks(&client, &strategy, "rustwren-agent@rt", payloads);
            task::block_on(spawned).expect("spawned");
            task::block_on(task::sleep(Duration::from_secs(60)));
        });
        let groups = seen.lock().expect("not poisoned").clone();
        groups
    }

    /// A payload as an agent decodes it, with or without a descriptor.
    fn payload(task: i64, inline: Option<Value>) -> AgentPayload {
        let mut v = Value::map()
            .with("bucket", "b")
            .with("exec", "e1")
            .with("job", 3i64)
            .with("task", task)
            .with("func", "f");
        if let Some(desc) = inline {
            v = v.with("inline", desc);
        }
        AgentPayload::decode(&v.encode()).expect("a payload")
    }

    /// The group payload is priced bytes, as the agent payloads inside it
    /// are: `{action, tasks: [payload bytes…], threads}`.
    #[test]
    fn invoker_group_encoding_is_pinned() {
        let desc = Value::map().with("kind", "value").with("value", 7i64);
        let groups = invoker_groups(&[payload(0, Some(desc)), payload(1, None)], 2);
        let pinned: &[u8] = b"\x07\x03\x00\x00\x00\
            \x06\x00\x00\x00action\x04\x11\x00\x00\x00rustwren-agent@rt\
            \x05\x00\x00\x00tasks\x06\x02\x00\x00\x00\
            \x05\x86\x00\x00\x00\x07\x06\x00\x00\x00\
            \x06\x00\x00\x00bucket\x04\x01\x00\x00\x00b\
            \x04\x00\x00\x00exec\x04\x02\x00\x00\x00e1\
            \x04\x00\x00\x00func\x04\x01\x00\x00\x00f\
            \x06\x00\x00\x00inline\x07\x02\x00\x00\x00\
            \x04\x00\x00\x00kind\x04\x05\x00\x00\x00value\
            \x05\x00\x00\x00value\x02\x07\x00\x00\x00\x00\x00\x00\x00\
            \x03\x00\x00\x00job\x02\x03\x00\x00\x00\x00\x00\x00\x00\
            \x04\x00\x00\x00task\x02\x00\x00\x00\x00\x00\x00\x00\x00\
            \x05S\x00\x00\x00\x07\x05\x00\x00\x00\
            \x06\x00\x00\x00bucket\x04\x01\x00\x00\x00b\
            \x04\x00\x00\x00exec\x04\x02\x00\x00\x00e1\
            \x04\x00\x00\x00func\x04\x01\x00\x00\x00f\
            \x03\x00\x00\x00job\x02\x03\x00\x00\x00\x00\x00\x00\x00\
            \x04\x00\x00\x00task\x02\x01\x00\x00\x00\x00\x00\x00\x00\
            \x07\x00\x00\x00threads\x02\x03\x00\x00\x00\x00\x00\x00\x00";
        assert_eq!(groups.len(), 1);
        assert_eq!(&groups[0][..], pinned);
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
        assert!(AgentPayload::decode(&Bytes::from_static(b"nonsense")).is_err());
        assert!(AgentPayload::decode(&Value::map().with("bucket", "b").encode()).is_err());
        // Once truncated (`task`) or wrapped (`job`) into another task's.
        let full = Value::decode(&sample_payload(None).encode()).expect("decodes");
        for (key, bad) in [("task", -1i64), ("task", 1 << 32), ("job", -1)] {
            let err = AgentPayload::decode(&full.clone().with(key, bad).encode());
            let err = err.expect_err("out of range");
            assert!(err.contains(&format!("`{key}`")), "{key} = {bad}: {err}");
        }
    }

    /// The payload reader this one replaced, as the reference: the whole
    /// payload decoded into a `Value`, then the descriptor moved out of it.
    fn reference_payload(raw: &[u8]) -> Result<(AgentPayload, Option<Value>), String> {
        let mut v = Value::decode(raw).map_err(|e| e.to_string())?;
        let inline = match &mut v {
            Value::Map(m) => m.remove("inline"),
            _ => None,
        };
        let (bucket, exec) = (v.req_str("bucket")?, v.req_str("exec")?);
        let fields = AgentPayload {
            fut: ResponseFuture::new(bucket, exec, v.req_int("job")?, v.req_int("task")?),
            func_name: v.req_str("func")?.to_owned(),
            inline: None,
        };
        Ok((fields, inline))
    }

    /// [`AgentPayload::decode`] makes of `bytes` what the reference does:
    /// the same error text, or the same fields and a descriptor that is a
    /// slice of the payload and decodes to the reference's.
    fn check_payload(bytes: &[u8]) -> Result<(), String> {
        let raw = Bytes::copy_from_slice(bytes);
        match (AgentPayload::decode(&raw), reference_payload(bytes)) {
            (Err(got), Err(want)) if got == want => Ok(()),
            (Ok(mut got), Ok((want, want_desc))) => {
                let desc = got.inline.take();
                let (payload, within) =
                    (raw.as_ptr_range(), desc.as_ref().map(|d| d.as_ptr_range()));
                let shared =
                    within.is_none_or(|d| payload.start <= d.start && d.end <= payload.end);
                let desc = desc.map(|d| Value::decode(&d));
                if got != want || desc != want_desc.clone().map(Ok) || !shared {
                    return Err(format!(
                        "decode {got:?} with {desc:?} (shared: {shared}), reference {want:?} with {want_desc:?}"
                    ));
                }
                Ok(())
            }
            (got, want) => Err(format!("decode {got:?}, reference {want:?}")),
        }
    }

    /// A payload as the client writes one.
    fn written_payload() -> impl Strategy<Value = Vec<u8>> {
        let text = || "[a-z0-9@-]{0,12}";
        let fields = ((text(), text(), text()), (any::<u64>(), any::<u32>()));
        (fields, prop::option::of(corpus::value())).prop_map(
            |(((bucket, exec, func), (job, task)), desc)| {
                let f = ResponseFuture::new(&bucket, &exec, job, task);
                let p = AgentPayload::new(&f, &func, desc.map(|d| d.encode()));
                p.encode().to_vec()
            },
        )
    }

    /// A payload's map as no client writes one: a whole payload's fields
    /// followed by entries that repeat, and so override, them — right and
    /// wrong types, integers out of range — and one it ignores.
    fn mangled_payload() -> impl Strategy<Value = Vec<u8>> {
        let key = prop::sample::select(vec![
            "bucket", "exec", "job", "task", "func", "inline", "other",
        ]);
        let value = prop_oneof![
            "[a-z]{0,6}".prop_map(Value::Str),
            any::<i64>().prop_map(Value::Int),
            (0i64..1 << 33).prop_map(Value::Int),
            corpus::value(),
        ];
        let overrides = prop::collection::vec((key.prop_map(str::to_owned), value), 0..4);
        (any::<u32>(), overrides).prop_map(|(task, overrides)| {
            let fields = [
                ("bucket", Value::from("b")),
                ("exec", Value::from("e1")),
                ("func", Value::from("f")),
                ("job", Value::Int(3)),
                ("task", Value::from(task)),
            ];
            let fields = fields.into_iter().map(|(k, v)| (k.to_owned(), v));
            corpus::encode_entries(&fields.chain(overrides).collect::<Vec<_>>())
        })
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
        assert!(map_params(&map).is_ok());
        for key in ["reducers", "exch", "part"] {
            let r = map_params(&without(&map, key));
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
            let r = map_params(&map.clone().with("reducers", bad));
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
            let err = map_params(&map.clone().with("exch", bad));
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

    /// The `v` of a `{k, v}` pair, moved out of it.
    fn value_of(pair: Value) -> Value {
        match pair {
            Value::Map(mut fields) => fields.remove("v").unwrap_or(Value::Null),
            _ => Value::Null,
        }
    }

    /// The map-side writer [`spill`] replaced, as the reference: the output
    /// taken apart into one owned key and whole pair per pair, bucketed,
    /// each bucket sorted and folded through the combiner into new `{k, v}`
    /// pairs, and the manifest built as a `Value` — returned with the
    /// segment and the pair count.
    async fn reference_spill<C, F>(
        output: Value,
        params: &ShuffleMapParams<'_>,
        combiner: impl FnOnce(&str) -> Result<C, String>,
    ) -> Result<(Value, Vec<u8>, usize), String>
    where
        C: FnMut(Value) -> F,
        F: Future<Output = Combined>,
    {
        let Value::List(pairs) = output else {
            return Err("shuffle map functions must return a list of {k, v} pairs".to_owned());
        };
        let reducers = params.reducers;
        let total = pairs.len();
        let mut buckets: Vec<Vec<KeyedPair>> = vec![Vec::new(); reducers];
        for pair in pairs {
            let key = pair.req_str("k")?.to_owned();
            let bucket = buckets.get_mut(params.route.bucket_of(&key, reducers));
            bucket
                .ok_or("internal: partitioner chose a bucket past the last reducer")?
                .push((key, pair));
        }
        let mut combiner = match params.combiner {
            None => None,
            Some(name) => Some((name, combiner(name)?)),
        };
        for bucket in &mut buckets {
            sort_run(bucket);
            if let Some((name, combine)) = &mut combiner {
                *bucket = reference_combine_run(std::mem::take(bucket), name, combine).await?;
            }
        }
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
        let manifest = Value::map()
            .with("n", reducers as i64)
            .with("k", "seg")
            .with("parts", Value::List(parts));
        Ok((manifest, segment, total))
    }

    /// The reference's combine step: a new `{"k", "vs"}` input per key
    /// group, and a new `{k, v}` pair for what the combiner returns.
    async fn reference_combine_run<F: Future<Output = Combined>>(
        run: Vec<KeyedPair>,
        name: &str,
        combine: &mut impl FnMut(Value) -> F,
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
            let combined = match combine(input).await {
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

    /// The test's combiner: its own input back, so the bytes written show
    /// every input it saw; it fails on key `x` and panics on key `y`.
    fn echo(input: Value) -> std::future::Ready<Combined> {
        std::future::ready(match input.get("k").and_then(Value::as_str) {
            Some("x") => Ok(Err("no x".to_owned())),
            Some("y") => Err(Box::new("no y")),
            _ => Ok(Ok(input)),
        })
    }

    /// A future that is ready at its first poll, polled once.
    fn ready<T>(fut: impl Future<Output = T>) -> T {
        match task::resume(std::pin::pin!(fut)) {
            std::ops::ControlFlow::Break(out) => out,
            std::ops::ControlFlow::Continue(_) => panic!("a ready future suspended"),
        }
    }

    /// [`spill`] writes of `output` what the reference does: the same error,
    /// or the same status bytes around its manifest, the same segment and
    /// the same pair count. `known` says whether the combiner named, if
    /// any, is registered.
    fn check_spill(
        output: Value,
        params: &ShuffleMapParams<'_>,
        known: bool,
    ) -> Result<(), String> {
        let combiner = |name: &str| match known {
            true => Ok(echo),
            false => Err(format!("combiner `{name}` is not registered")),
        };
        let got = ready(spill(output.clone(), params, combiner));
        let want = ready(reference_spill(output, params, combiner));
        let status =
            |result: usize| TaskStatus::new(None, 0.0, 1.0).with_result(Value::from(result));
        match (got, want) {
            (Err(got), Err(want)) if got == want => Ok(()),
            (Ok(got), Ok((manifest, segment, pairs))) => {
                let got_status = status(got.pairs).with_manifest(got.manifest.clone());
                let want_status = status(pairs).with_shuf(manifest);
                if got_status.encode() != want_status.encode() || got.segment != segment {
                    return Err(format!(
                        "wrote {got:?}, reference {want_status:?} with {segment:?}"
                    ));
                }
                Ok(())
            }
            (got, want) => Err(format!("spill {got:?}, reference {want:?}")),
        }
    }

    /// A map output as a map function returns one — keys repeating, pairs
    /// without a `v` or with fields besides `k` and `v`, now and then a `v`
    /// big enough that its run spills past [`INLINE_MAX_BYTES`] into the
    /// segment — or, one time in nine, damaged: no list (1), an item that is
    /// no map (2), no `k` (3), a `k` that is no string (4).
    fn map_output() -> impl Strategy<Value = Value> {
        let int = || any::<i64>().prop_map(|v| Some(Value::Int(v)));
        let v = prop_oneof![
            int(),
            int(),
            int(),
            Just(None),
            corpus::value().prop_map(Some),
            (0usize..3).prop_map(|n| Some(Value::bytes(vec![7u8; n * 30_000]))),
        ];
        let extra = prop::option::of((prop::sample::select(vec!["vs", "w", "a"]), any::<i64>()));
        let pair = ("[a-dxy]{1,2}", v, extra).prop_map(|(k, v, extra)| {
            let mut pair = Value::map().with("k", k);
            if let Some(v) = v {
                pair = pair.with("v", v);
            }
            if let Some((key, x)) = extra {
                pair = pair.with(key, x);
            }
            pair
        });
        let pairs = prop::collection::vec(pair, 0..24);
        (pairs, 0u8..36, any::<usize>()).prop_map(|(mut pairs, damage, at)| {
            let bad = match damage {
                1 => return Value::Int(3),
                2 => Some(Value::Int(7)),
                3 => Some(Value::map().with("v", 1i64)),
                4 => Some(Value::map().with("k", 5i64).with("v", 1i64)),
                _ => None,
            };
            if let Some(bad) = bad {
                pairs.insert(at % (pairs.len() + 1), bad);
            }
            Value::List(pairs)
        })
    }

    /// A shuffle map's routing: the hash partitioner, or a range one whose
    /// boundaries put every key of [`map_output`] somewhere.
    fn route() -> impl Strategy<Value = (usize, Route<'static>)> {
        prop_oneof![
            (1usize..6).prop_map(|n| (n, Route::Hash)),
            prop::collection::vec(
                prop::sample::select(vec!["a", "b", "bz", "c", "d", "x"]),
                0..4
            )
            .prop_map(|mut bounds| {
                bounds.sort_unstable();
                (bounds.len() + 1, Route::Range(bounds))
            }),
        ]
    }

    /// Each map output spills as the reference's does, for the shapes a
    /// proptest rarely draws: a combiner that fails or panics on the second
    /// group, runs on both sides of the inline threshold, every partition
    /// empty.
    #[test]
    fn map_side_writer_matches_the_reference_at_its_edges() {
        let pair = |k: &str, v: Value| Value::map().with("k", k).with("v", v);
        let big = |n: usize| Value::bytes(vec![1u8; n]);
        let hash = |reducers, combiner| ShuffleMapParams {
            reducers,
            route: Route::Hash,
            combiner,
        };
        let outputs = [
            Value::List(vec![
                pair("a", 1.into()),
                pair("x", 2.into()),
                pair("a", 3.into()),
            ]),
            Value::List(vec![pair("a", 1.into()), pair("y", 2.into())]),
            Value::List(vec![
                pair("a", big(INLINE_MAX_BYTES - 40)),
                pair("a", big(20)),
            ]),
            Value::List(vec![
                pair("a", big(INLINE_MAX_BYTES)),
                pair("b", big(3)),
                pair("c", big(INLINE_MAX_BYTES)),
            ]),
            Value::List(Vec::new()),
            Value::Int(1),
            // Many equal keys: their values keep emission order.
            (0..200)
                .map(|i| pair(["a", "b", "c"][i % 3], Value::from(i)))
                .collect(),
        ];
        for output in outputs {
            for params in [
                hash(1, None),
                hash(3, None),
                hash(1, Some("echo")),
                hash(4, Some("echo")),
            ] {
                for known in [true, false] {
                    check_spill(output.clone(), &params, known)
                        .unwrap_or_else(|e| panic!("{output:?} {params:?}: {e}"));
                }
            }
        }
        let err = ready(spill(Value::Int(1), &hash(2, None), |_| Ok(echo))).expect_err("no list");
        assert_eq!(
            err,
            "shuffle map functions must return a list of {k, v} pairs"
        );
    }

    /// A task descriptor as a submit may make one.
    fn task_spec() -> impl Strategy<Value = TaskSpec> {
        let text = || "[a-z0-9/-]{0,8}";
        let partition = ((text(), text()), (any::<u32>(), any::<u32>()), 0usize..1000)
            .prop_map(|((bucket, key), (start, len), index)| {
                let (start, end) = (u64::from(start), u64::from(start) + u64::from(len));
                TaskSpec::Partition(Partition {
                    bucket,
                    key,
                    start,
                    end,
                    index,
                })
            })
            .boxed();
        let value = corpus::value().prop_map(TaskSpec::Value).boxed();
        let inner = prop_oneof![value.clone(), partition.clone()];
        let future = (text(), text(), any::<u64>(), any::<u32>())
            .prop_map(|(b, e, j, t)| ResponseFuture::new(&b, &e, j, t));
        let poll = (1u64..100_000).prop_map(Duration::from_millis);
        let reduce = (
            prop::collection::vec(future, 0..4),
            prop::option::of(text()),
            poll.clone(),
        )
            .prop_map(|(deps, group, poll)| TaskSpec::Reduce { deps, group, poll });
        let partitioner = prop_oneof![
            Just(Partitioner::Hash),
            prop::collection::vec(text(), 0..5)
                .prop_map(|boundaries| Partitioner::Range { boundaries }),
        ];
        let shuffle_map = (inner, 1usize..100, partitioner, prop::option::of(text())).prop_map(
            |(inner, reducers, partitioner, combiner)| TaskSpec::ShuffleMap {
                inner: Box::new(inner),
                reducers,
                partitioner,
                combiner,
            },
        );
        let shuffle_reduce = (
            (text(), text(), any::<u64>(), any::<u32>()),
            (0usize..99, poll, 1usize..100, 2usize..64),
        )
            .prop_map(
                |((bucket, exec_id, map_job, maps), (index, poll, reducers, fanin))| {
                    TaskSpec::ShuffleReduce {
                        bucket: bucket.into(),
                        exec_id: exec_id.into(),
                        map_job,
                        maps,
                        index,
                        poll,
                        reducers,
                        fanin,
                    }
                },
            );
        prop_oneof![value, partition, reduce, shuffle_map, shuffle_reduce]
    }

    /// `spec` with `extra` written in one pass is what the client encoded
    /// before, its value with `extra` merged in — plain and stamped — and
    /// its length is the length written.
    fn check_descriptor(spec: &TaskSpec, extra: Option<&Value>) -> Result<(), String> {
        let mut want = spec.to_value();
        if let Some(extra) = extra {
            want = want.with("extra", extra.clone());
        }
        let len = spec.encoded_len(extra);
        let plain = spec.encode(Writer::new(len), extra);
        let stamped = spec.encode(Writer::stamped(len), extra);
        if plain != want.encode() || stamped != want.stamped() || len != want.encoded_len() {
            return Err(format!(
                "{spec:?} with {extra:?}: wrote {plain:?}, reference {want:?}"
            ));
        }
        Ok(())
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
        ValueRef::parse_entries(bytes, |_, _, _| {}).map_err(|e| format!("walk: {e}"))?;
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

    /// A cloud for a CloudSort-shaped job: `spread` maps an int to 16
    /// pairs, `count` counts a reducer's groups.
    fn shuffle_cloud() -> SimCloud {
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
        cloud
    }

    /// Runs `spread` over `0..maps` shuffled to `reducers` `count`s.
    fn shuffle(exec: &crate::Executor, maps: usize, reducers: usize) -> crate::Result<Vec<Value>> {
        let source = crate::DataSource::Values((0..maps).map(Value::from).collect());
        let opts = crate::ShuffleOpts {
            reducers,
            ..crate::ShuffleOpts::default()
        };
        exec.map_shuffle_reduce("spread", source, "count", opts)?;
        exec.get_result()
    }

    /// A CloudSort-shaped job, M maps by R reducers: every reducer GETs and
    /// verifies every map's status, and each status is walked once.
    #[test]
    fn each_map_status_is_walked_once_per_cloud() {
        let (maps, reducers) = (6, 5);
        let cloud = shuffle_cloud();
        let counts = cloud.run(|| shuffle(&cloud.executor().build()?, maps, reducers));
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

    /// `clean` deletes an executor's statuses, and the memo lets go of
    /// their views with them; another executor's stay.
    #[test]
    fn clean_drops_the_memo_views_of_its_statuses() {
        let cloud = shuffle_cloud();
        let prefixes = cloud
            .run(|| {
                let (kept, cleaned) = (cloud.executor().build()?, cloud.executor().build()?);
                shuffle(&kept, 3, 2)?;
                shuffle(&cleaned, 4, 2)?;
                cleaned.clean()?;
                Ok::<_, crate::PywrenError>((
                    kept.exec_id().to_owned(),
                    cleaned.exec_id().to_owned(),
                ))
            })
            .expect("the jobs");
        let kept_under = |exec_id: &str| {
            cloud
                .inner
                .statuses
                .kept_under(&crate::future::exec_prefix(exec_id))
        };
        assert_eq!(
            kept_under(&prefixes.0),
            3,
            "the other executor's views stay"
        );
        assert_eq!(kept_under(&prefixes.1), 0, "no view outlives its status");
    }

    use crate::wire::corpus;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn agent_payload_decode_matches_the_reference_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            check_payload(&bytes).map_err(TestCaseError::fail)?;
        }

        #[test]
        fn agent_payload_decode_matches_the_reference_on_damaged_payloads(
            payload in prop_oneof![written_payload(), mangled_payload()],
            damage in corpus::damage(),
        ) {
            for bytes in corpus::damaged(&payload, damage) {
                check_payload(&bytes).map_err(TestCaseError::fail)?;
            }
        }

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
        fn map_side_writer_matches_the_reference(
            output in map_output(),
            routing in route(),
            combiner in prop::option::of(Just("echo")),
            unknown in 0u8..20,
        ) {
            let (reducers, route) = routing;
            let params = ShuffleMapParams { reducers, route, combiner };
            check_spill(output, &params, unknown != 0).map_err(TestCaseError::fail)?;
        }

        #[test]
        fn task_descriptors_are_written_as_the_reference_encodes_them(
            spec in task_spec(),
            extra in prop::option::of(corpus::value()),
        ) {
            check_descriptor(&spec, extra.as_ref()).map_err(TestCaseError::fail)?;
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
