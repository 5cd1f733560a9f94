//! First-class function composition (§4.4).
//!
//! The paper describes *sequences* — `f3 = f2 ∘ f1`, realized by having
//! each function call the next via `call_async` — and *nested parallelism*
//! (functions spawning parallel sub-jobs). Nested parallelism needs no
//! special support: a function builds an executor with
//! [`crate::TaskCtx::executor`] and awaits
//! [`Executor::map_async`](crate::Executor::map_async) and
//! [`Executor::resolve_async`](crate::Executor::resolve_async) (see the
//! example there), or returns [`crate::TaskCtx::futures_value`]. Sequences
//! get the helper here: a pre-registered driver function, composed on that
//! same surface, that runs each stage in the cloud and feeds its output to
//! the next, so the client gets back one future for the whole chain.

use crate::error::{PywrenError, Result};
use crate::executor::{Executor, GetResultOpts};
use crate::future::ResponseFuture;
use crate::registry::FunctionRegistry;
use crate::task::TaskCtx;
use crate::wire::Value;

/// Name of the pre-registered sequence driver function.
pub const SEQUENCE_FN: &str = "rustwren-sequence";

/// Registers the sequence driver on `registry` (done at cloud build): it
/// awaits `map_async` and `resolve_async`, so it needs no thread.
pub(crate) fn register_sequence_driver(registry: &FunctionRegistry) {
    // lint: allow(L008) — name dispatch (`Value::get` → CosClient::get), as on
    // the agent; guarded by vehicles.rs a_sequence_of_resumable_stages_starts_no_thread
    registry.register_resumable(SEQUENCE_FN, |ctx: TaskCtx, input: Value| async move {
        let funcs = input.req_list("funcs")?;
        let value = input.get("value").cloned().unwrap_or(Value::Null);
        let Some((first, rest)) = funcs.split_first() else {
            return Ok(value); // empty chain: identity
        };
        let first = first.as_str().ok_or("function names must be strings")?;

        // Run this stage in the cloud we are already inside of.
        let exec = ctx.executor().map_err(|e| e.to_string())?;
        let futs = exec
            .map_async(first, [value])
            .await
            .map_err(|e| e.to_string())?;
        let mut outputs = exec
            .resolve_async(&futs, &GetResultOpts::default())
            .await
            .map_err(|e| e.to_string())?;
        let output = outputs
            .pop()
            .ok_or("resolve returned no output for the stage future")?;

        if rest.is_empty() {
            return Ok(output);
        }
        // Tail-call ourselves with the remaining stages — this is exactly
        // the paper's "each function calls the next in the sequence".
        let next = Value::map()
            .with("funcs", Value::List(rest.to_vec()))
            .with("value", output);
        let futs = exec
            .map_async(SEQUENCE_FN, [next])
            .await
            .map_err(|e| e.to_string())?;
        Ok(ctx.futures_value(&futs))
    });
}

impl Executor {
    /// Runs `funcs` as a sequence `fN ∘ … ∘ f1` on `input`, entirely inside
    /// the cloud: the client gets one future; each stage's output feeds the
    /// next stage. Non-blocking, like `call_async`.
    ///
    /// The result collected by [`get_result`](Executor::get_result) is the
    /// final stage's output. (Intermediate futures are followed
    /// transparently by the composition-aware collector.)
    ///
    /// # Errors
    ///
    /// [`PywrenError::UnknownFunction`] if any stage is unregistered
    /// (validated client-side before anything is staged), or the usual
    /// staging/invocation errors.
    ///
    /// # Examples
    ///
    /// ```
    /// use rustwren_core::{SimCloud, TaskCtx, Value};
    ///
    /// let cloud = SimCloud::builder().build();
    /// cloud.register_fn("add7", |_: &TaskCtx, v: Value| {
    ///     Ok(Value::Int(v.as_i64().ok_or("int")? + 7))
    /// });
    /// cloud.register_fn("double", |_: &TaskCtx, v: Value| {
    ///     Ok(Value::Int(v.as_i64().ok_or("int")? * 2))
    /// });
    /// let results = cloud.run(|| {
    ///     let exec = cloud.executor().build()?;
    ///     exec.call_sequence(&["add7", "double"], Value::Int(3))?; // (3+7)*2
    ///     exec.get_result()
    /// })?;
    /// assert_eq!(results, vec![Value::Int(20)]);
    /// # Ok::<(), rustwren_core::PywrenError>(())
    /// ```
    pub fn call_sequence(&self, funcs: &[&str], input: Value) -> Result<ResponseFuture> {
        for f in funcs {
            if !self.cloud().registry().contains(f) {
                return Err(PywrenError::UnknownFunction((*f).to_owned()));
            }
        }
        let chain = Value::map()
            .with(
                "funcs",
                Value::List(funcs.iter().map(|f| Value::from(*f)).collect()),
            )
            .with("value", input);
        self.call_async(SEQUENCE_FN, chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_is_registered_on_fresh_clouds() {
        let cloud = crate::SimCloud::builder().build();
        assert!(cloud.registry().contains(SEQUENCE_FN));
    }

    #[test]
    fn unknown_stage_is_rejected_client_side() {
        let cloud = crate::SimCloud::builder().build();
        cloud.register_fn("known", |_: &TaskCtx, v: Value| Ok(v));
        cloud.run(|| {
            let exec = cloud.executor().build().unwrap();
            let err = exec
                .call_sequence(&["known", "ghost"], Value::Null)
                .unwrap_err();
            assert!(matches!(err, PywrenError::UnknownFunction(name) if name == "ghost"));
        });
    }

    #[test]
    fn empty_sequence_is_identity() {
        let cloud = crate::SimCloud::builder().build();
        let results = cloud.run(|| {
            let exec = cloud.executor().build().unwrap();
            exec.call_sequence(&[], Value::Int(9)).unwrap();
            exec.get_result().unwrap()
        });
        assert_eq!(results, vec![Value::Int(9)]);
    }
}
