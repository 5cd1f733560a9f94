//! Invocation strategies, including massive function spawning (§5.1).
//!
//! `Direct` reproduces the original PyWren behaviour: the client issues
//! every invocation itself from a small thread pool — each call paying the
//! client's (possibly WAN) network latency. `RemoteInvoker` is the paper's
//! *massive function spawning* mechanism: the client invokes a few remote
//! invoker functions, each of which fires a group of invocations from
//! inside the cloud, collapsing 38 s of WAN spawning into ~8 s.

use std::sync::{Arc, Weak};

use bytes::Bytes;
use rustwren_analyze::SpawnProfile;
use rustwren_faas::{
    ActionConfig, ActionError, ActivationCtx, ActivationId, FaasClient, InvokeError,
};

use crate::cloud::{CloudInner, SimCloud};
use crate::config::SpawnStrategy;
use crate::error::{PywrenError, Result};
use crate::job::AgentPayload;
use crate::wire::{self, required, Value, ValueRef, Writer, HEADER_LEN, NUM_LEN};

/// Name of the remote invoker system action.
pub const INVOKER_ACTION: &str = "rustwren-invoker";

/// Name of the agent action for a given runtime image.
pub fn agent_action_name(runtime: &str) -> String {
    format!("rustwren-agent@{runtime}")
}

/// Deploys the agent action for `runtime` if not already present.
pub(crate) fn deploy_agent(cloud: &SimCloud, runtime: &str) -> Result<()> {
    let name = agent_action_name(runtime);
    if cloud.functions().has_action(&name) {
        return Ok(());
    }
    let weak = cloud.downgrade();
    cloud
        .functions()
        // lint: allow(L008) — false positives of name-based dispatch: the
        // agent's `ctx.now()` reaches the kernel's own `RawMutex::lock`
        // (resolved onto the shim's), the COS client's `self.charge(..)` (a
        // `task::sleep`) resolves onto ActivationCtx::charge. The shim locks
        // the agent takes are never held across a suspension, and a blocking
        // call before it has asked for a thread is refused by the kernel and
        // booked `Crashed`. Guarded by crates/core/tests/vehicles.rs and
        // tests/verify.rs light_agents_conserve_activations_under_faults_and_every_schedule
        .register_resumable(
            &name,
            ActionConfig::with_runtime(runtime).memory_mb(512),
            move |ctx: ActivationCtx, payload: Bytes| {
                crate::job::run_agent(weak.clone(), ctx, payload)
            },
        )
        .map_err(|e| PywrenError::UnknownFunction(format!("agent runtime: {e}")))
}

/// Deploys the remote invoker system action (called at cloud build).
pub(crate) fn deploy_invoker(cloud: &SimCloud) {
    let weak: Weak<CloudInner> = cloud.downgrade();
    cloud
        .functions()
        // lint: allow(L008) — false positives of name-based dispatch, as on
        // the agent above: the group's `tasks.len()` resolves onto
        // BlobCache::len (a shim lock), and an `Option::map` (the cloud's
        // `weak.upgrade()`, the group reader's `Iterator::map`) onto
        // Executor::map. The invoker's own suspensions are
        // `FaasClient::invoke_async`'s `task::sleep`s and the fan-out's
        // `task::wait`. Guarded by
        // crates/core/tests/vehicles.rs
        // a_map_of_compute_tasks_starts_no_thread_at_all and tests/verify.rs
        // light_lanes_conserve_activations_under_faults_and_every_schedule
        .register_resumable(
            INVOKER_ACTION,
            ActionConfig::default(),
            move |ctx: ActivationCtx, payload: Bytes| {
                let alive = weak.upgrade().is_some();
                async move {
                    if !alive {
                        return Err(ActionError("cloud torn down".into()));
                    }
                    run_invoker(ctx, payload).await
                }
            },
        )
        // lint: allow(L004) — runs once at cloud build, not in an
        // activation; `build()` has no error channel, and a platform too
        // small for its own system action must fail loudly at construction
        .expect("invoker deploys on a fresh platform");
}

/// Body of the remote invoker function: fire every invocation in its group
/// from inside the cloud, over `threads` concurrent streams. Resumable, like
/// its lanes: an invoker activation never takes a thread.
async fn run_invoker(
    ctx: ActivationCtx,
    payload: Bytes,
) -> std::result::Result<Bytes, ActionError> {
    let (action, threads, tasks) = read_group(&payload).map_err(ActionError)?;

    // Chaos invoker-kill: die before spawning the group, so none of this
    // invoker's tasks ever receives an activation — exercising the
    // client-side recovery path for tasks with no id and no status.
    crate::job::chaos_crash_point(
        crate::job::PHASE_INVOKER,
        rustwren_sim::hash::hash2(ctx.activation_id().0, 0x1412),
    );

    let count = tasks.len();
    invoke_each("invoker", threads, &ctx.faas_client(), action, tasks)
        .await
        .map_err(|e| ActionError(e.to_string()))?;
    Ok(Value::Int(count as i64).encode())
}

/// A remote invoker's payload, `{action, tasks, threads}`, written into one
/// buffer: each agent payload is encoded in place as a byte string of
/// `tasks`.
fn encode_group(action: &str, threads: usize, group: &[AgentPayload]) -> Bytes {
    let tasks: usize = group.iter().map(|p| HEADER_LEN + p.encoded_len()).sum();
    let len = HEADER_LEN
        + wire::key_len("action")
        + HEADER_LEN
        + action.len()
        + wire::key_len("tasks")
        + HEADER_LEN
        + tasks
        + wire::key_len("threads")
        + NUM_LEN;
    let mut w = Writer::new(len);
    let mut fields = w.map_header(3);
    fields.key("action").str(action);
    let tasks = fields.key("tasks");
    tasks.list_header(group.len());
    for p in group {
        tasks.bytes_header(p.encoded_len());
        p.encode_into(tasks);
    }
    fields.key("threads").int(threads as i64);
    w.finish()
}

/// A remote invoker's payload read in the one pass that validates it: the
/// agent action, the lane count (at least one) and each task's payload, a
/// slice of `payload` rather than a copy.
fn read_group(payload: &Bytes) -> std::result::Result<(&str, usize, Vec<Bytes>), String> {
    // The last entry under a key wins, as it would decoding into a map.
    let (mut action, mut threads, mut tasks) = (None, None, None);
    ValueRef::parse_entries(payload, |key, v, _| match key {
        "action" => action = Some(v),
        "threads" => threads = Some(v),
        "tasks" => tasks = Some(v),
        _ => {}
    })
    .map_err(|e| format!("bad invoker payload: {e}"))?;
    let action = required(action.and_then(|v| v.as_str()), "action", "string")?;
    let threads = required(threads.and_then(|v| v.as_i64()), "threads", "int")?;
    let tasks = required(tasks.and_then(|v| v.items()), "tasks", "list")?;
    let task = |t: ValueRef<'_>| {
        let task = t.bytes_span().and_then(|span| payload.try_slice(span));
        task.ok_or_else(|| "task payload must be bytes".to_owned())
    };
    let tasks = tasks.map(task).collect::<std::result::Result<_, _>>()?;
    Ok((action, threads.max(1) as usize, tasks))
}

/// Invokes `action` once per payload over `lanes` fan-out lanes of `client`;
/// the activation ids come back in payload order.
async fn invoke_each(
    prefix: &str,
    lanes: usize,
    client: &FaasClient,
    action: &str,
    payloads: Vec<Bytes>,
) -> std::result::Result<Vec<ActivationId>, InvokeError> {
    let shared = Arc::new((client.clone(), action.to_owned()));
    rustwren_sim::fan_out(prefix, lanes, payloads, move |p| {
        let shared = Arc::clone(&shared);
        async move { shared.0.invoke_async(&shared.1, p).await }
    })
    .await
}

/// Issues one agent invocation per payload according to `strategy`, using
/// the executor's FaaS client. Returns once every invocation is accepted,
/// with one entry per payload: the agent's [`ActivationId`] where the client
/// issued the invocation itself (`Direct`), or `None` when a remote invoker
/// issued it (the ids stay inside the cloud).
pub(crate) async fn spawn_tasks(
    faas: &FaasClient,
    strategy: &SpawnStrategy,
    agent_action: &str,
    payloads: &[AgentPayload],
) -> Result<Vec<Option<ActivationId>>> {
    let count = payloads.len();
    // Degenerate strategies (zero threads, zero group size) are rejected at
    // executor build time.
    match strategy.profile_for(count) {
        SpawnProfile::Direct { client_threads } => {
            let encoded: Vec<Bytes> = payloads.iter().map(AgentPayload::encode).collect();
            let ids = invoke_each("spawn", client_threads, faas, agent_action, encoded).await?;
            Ok(ids.into_iter().map(Some).collect())
        }
        SpawnProfile::RemoteInvoker {
            group_size,
            invoker_threads,
        } => {
            let groups: Vec<Bytes> = payloads
                .chunks(group_size)
                .map(|group| encode_group(agent_action, invoker_threads, group))
                .collect();
            // The handful of invoker calls still leave the client over its
            // own network, from a small pool. The agent activation ids are
            // issued inside the cloud and never reported back.
            invoke_each("spawn", 5, faas, INVOKER_ACTION, groups).await?;
            Ok(vec![None; count])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::future::ResponseFuture;

    /// The group reader this one replaced, as the reference: the whole
    /// group decoded into a `Value`, each task's payload copied out of it.
    fn reference_group(payload: &[u8]) -> std::result::Result<(String, usize, Vec<Bytes>), String> {
        let v = Value::decode(payload).map_err(|e| format!("bad invoker payload: {e}"))?;
        let action = v.req_str("action")?.to_owned();
        let threads = v.req_i64("threads")?.max(1) as usize;
        let tasks = v.req_list("tasks")?.iter().map(|t| {
            t.as_bytes()
                .map(Bytes::copy_from_slice)
                .ok_or_else(|| "task payload must be bytes".to_owned())
        });
        Ok((
            action,
            threads,
            tasks.collect::<std::result::Result<_, _>>()?,
        ))
    }

    /// [`read_group`] makes of `bytes` what the reference does: the same
    /// error text, or the same action, lane count and task payloads, each
    /// a slice of the group's bytes.
    fn check_group(bytes: &[u8]) -> std::result::Result<(), String> {
        let payload = Bytes::copy_from_slice(bytes);
        let got = read_group(&payload);
        let want = reference_group(bytes);
        let got = got.map(|(action, threads, tasks)| (action.to_owned(), threads, tasks));
        if got != want {
            return Err(format!("read {got:?}, reference {want:?}"));
        }
        let group = payload.as_ptr_range();
        let shared = |t: &Bytes| group.start <= t.as_ptr() && t.as_ptr_range().end <= group.end;
        match got {
            Ok((_, _, tasks)) if !tasks.iter().all(shared) => {
                Err("a task's payload was copied out of the group".to_owned())
            }
            _ => Ok(()),
        }
    }

    /// A group as the client writes one, of payloads with and without a
    /// descriptor.
    fn written_group() -> impl Strategy<Value = Vec<u8>> {
        let task = (any::<u32>(), prop::option::of(corpus::value()));
        let tasks = prop::collection::vec(task, 0..4);
        ("[a-z@-]{0,12}", 0usize..200, tasks).prop_map(|(action, threads, tasks)| {
            let payloads: Vec<AgentPayload> = tasks
                .into_iter()
                .map(|(task, desc)| {
                    let f = ResponseFuture::new("b", "e1", 3, task);
                    AgentPayload::new(&f, "f", desc.map(|d| d.encode()))
                })
                .collect();
            encode_group(&action, threads, &payloads).to_vec()
        })
    }

    /// A group's map as no client writes one: a whole group's fields
    /// followed by entries that repeat, and so override, them — right and
    /// wrong types, tasks that are no byte strings — and one it ignores.
    fn mangled_group() -> impl Strategy<Value = Vec<u8>> {
        let key = prop::sample::select(vec!["action", "threads", "tasks", "other"]);
        let bytes = prop::collection::vec(any::<u8>(), 0..16).prop_map(Value::Bytes);
        let tasks = prop::collection::vec(prop_oneof![bytes.clone(), bytes, corpus::value()], 0..4);
        let value = prop_oneof![
            "[a-z]{0,6}".prop_map(Value::Str),
            any::<i64>().prop_map(Value::Int),
            tasks.prop_map(Value::List),
            corpus::value(),
        ];
        let overrides = prop::collection::vec((key.prop_map(str::to_owned), value), 0..4);
        (any::<i64>(), overrides).prop_map(|(threads, overrides)| {
            let fields = [
                ("action", Value::from("a")),
                ("tasks", Value::List(vec![Value::bytes(vec![1, 2])])),
                ("threads", Value::Int(threads)),
            ];
            let fields = fields.into_iter().map(|(k, v)| (k.to_owned(), v));
            corpus::encode_entries(&fields.chain(overrides).collect::<Vec<_>>())
        })
    }

    use crate::wire::corpus;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn group_reader_matches_the_reference_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            check_group(&bytes).map_err(TestCaseError::fail)?;
        }

        #[test]
        fn group_reader_matches_the_reference_on_damaged_groups(
            group in prop_oneof![written_group(), mangled_group()],
            damage in corpus::damage(),
        ) {
            for bytes in corpus::damaged(&group, damage) {
                check_group(&bytes).map_err(TestCaseError::fail)?;
            }
        }
    }

    #[test]
    fn agent_names_are_per_runtime() {
        assert_eq!(
            agent_action_name("python-jessie:3"),
            "rustwren-agent@python-jessie:3"
        );
        assert_ne!(agent_action_name("a"), agent_action_name("b"));
    }
}
