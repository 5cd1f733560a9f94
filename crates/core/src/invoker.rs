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
use crate::wire::Value;

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
        // the agent above: the payload's `Value::get` resolves onto
        // FunctionRegistry::get, RelayTier::get and CosClient::get. The
        // invoker's own suspensions are `FaasClient::invoke_async`'s
        // `task::sleep`s, the platform's `locked` and the fan-out's
        // `task::wait`. Guarded by crates/core/tests/vehicles.rs
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
    let v =
        Value::decode(&payload).map_err(|e| ActionError(format!("bad invoker payload: {e}")))?;
    let action = v.req_str("action").map_err(ActionError)?.to_owned();
    let threads = v.req_i64("threads").map_err(ActionError)?.max(1) as usize;
    let tasks: Vec<Bytes> = v
        .req_list("tasks")
        .map_err(ActionError)?
        .iter()
        .map(|t| {
            t.as_bytes()
                .map(Bytes::copy_from_slice)
                .ok_or_else(|| ActionError("task payload must be bytes".into()))
        })
        .collect::<std::result::Result<_, _>>()?;

    // Chaos invoker-kill: die before spawning the group, so none of this
    // invoker's tasks ever receives an activation — exercising the
    // client-side recovery path for tasks with no id and no status.
    crate::job::chaos_crash_point(
        crate::job::PHASE_INVOKER,
        rustwren_sim::hash::hash2(ctx.activation_id().0, 0x1412),
    );

    let count = tasks.len();
    invoke_each("invoker", threads, &ctx.faas_client(), &action, tasks)
        .await
        .map_err(|e| ActionError(e.to_string()))?;
    Ok(Value::Int(count as i64).encode())
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
                .map(|group| {
                    Value::map()
                        .with("action", agent_action)
                        .with("threads", invoker_threads as i64)
                        .with(
                            "tasks",
                            Value::List(
                                group
                                    .iter()
                                    .map(|p| Value::bytes(p.encode().to_vec()))
                                    .collect(),
                            ),
                        )
                        .encode()
                })
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

    #[test]
    fn agent_names_are_per_runtime() {
        assert_eq!(
            agent_action_name("python-jessie:3"),
            "rustwren-agent@python-jessie:3"
        );
        assert_ne!(agent_action_name("a"), agent_action_name("b"));
    }
}
