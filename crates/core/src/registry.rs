//! The function registry: Rust's stand-in for pickled user code.
//!
//! PyWren ships the user's function to the cloud by pickling it. Rust has no
//! closure serialization, so user functions are registered once under a name
//! on the [`crate::SimCloud`]; the client then ships the *name* plus a
//! function blob of the declared [`code_size`](RemoteFn::code_size) (so the
//! COS upload/download path carries realistic payloads), and the in-cloud
//! agent looks the name up at execution time.

use std::collections::HashMap;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;

use parking_lot::RwLock;
use rustwren_sim::task;

use crate::task::TaskCtx;
use crate::wire::Value;

/// Default modeled size of a serialized user function (pickled PyWren
/// functions are typically a few KB).
pub const DEFAULT_CODE_SIZE: u64 = 8 * 1024;

/// A user function runnable by IBM-PyWren executors.
///
/// Implemented for all `Fn(&TaskCtx, Value) -> Result<Value, String>`
/// closures; implement manually to override [`code_size`](RemoteFn::code_size).
pub trait RemoteFn: Send + Sync {
    /// Runs the function on one input.
    ///
    /// # Errors
    ///
    /// A message describing the application failure; it is recorded in the
    /// task's status object and surfaced as [`crate::PywrenError::Task`].
    fn call(&self, ctx: &TaskCtx, input: Value) -> Result<Value, String>;

    /// Modeled size in bytes of this function's serialized form (the blob
    /// uploaded to COS once per job).
    fn code_size(&self) -> u64 {
        DEFAULT_CODE_SIZE
    }
}

impl<F> RemoteFn for F
where
    F: Fn(&TaskCtx, Value) -> Result<Value, String> + Send + Sync,
{
    fn call(&self, ctx: &TaskCtx, input: Value) -> Result<Value, String> {
        self(ctx, input)
    }
}

/// Wraps a function with an explicit modeled code size.
pub struct SizedFn<F> {
    inner: F,
    code_size: u64,
}

impl<F> SizedFn<F> {
    /// Wraps `inner`, declaring its serialized form to be `code_size` bytes.
    pub fn new(inner: F, code_size: u64) -> SizedFn<F> {
        SizedFn { inner, code_size }
    }
}

impl<F> fmt::Debug for SizedFn<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SizedFn")
            .field("code_size", &self.code_size)
            .finish()
    }
}

impl<F: RemoteFn> RemoteFn for SizedFn<F> {
    fn call(&self, ctx: &TaskCtx, input: Value) -> Result<Value, String> {
        self.inner.call(ctx, input)
    }

    fn code_size(&self) -> u64 {
        self.code_size
    }
}

/// One call of a registered function.
pub(crate) type Call = Pin<Box<dyn Future<Output = Result<Value, String>> + Send>>;

/// A registered function in the one form the registry keeps: resumable
/// code that starts one call. A blocking registration asks for its thread
/// inside ([`FunctionRegistry::register`]).
pub(crate) struct Registered {
    /// Starts one call.
    pub(crate) start: Box<dyn Fn(TaskCtx, Value) -> Call + Send + Sync>,
    code_size: u64,
}

/// The blocking view of the one form: the same code, driven to completion
/// on the caller's thread.
impl RemoteFn for Registered {
    fn call(&self, ctx: &TaskCtx, input: Value) -> Result<Value, String> {
        task::block_on((self.start)(ctx.clone(), input))
    }

    fn code_size(&self) -> u64 {
        self.code_size
    }
}

/// A shared name → function table. Cheap to clone.
#[derive(Clone, Default)]
pub struct FunctionRegistry {
    fns: Arc<RwLock<HashMap<String, Arc<Registered>>>>,
}

impl fmt::Debug for FunctionRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FunctionRegistry")
            // lint: allow(L011) — false positive: the read guard is a
            // temporary dropped inside the `.field(...)` expression, not held
            // to scope end as the static order rule conservatively assumes,
            // and the trailing `.finish(` edge is a name over-approximation
            .field("functions", &self.fns.read().len())
            .finish()
    }
}

impl FunctionRegistry {
    /// Creates an empty registry.
    pub fn new() -> FunctionRegistry {
        FunctionRegistry::default()
    }

    /// Registers `f` under `name`, replacing any previous function. `f` may
    /// block — charge time, use the COS client, run sub-jobs — so each call
    /// asks for an OS thread before it calls `f`.
    pub fn register<F>(&self, name: &str, f: F)
    where
        F: RemoteFn + 'static,
    {
        let code_size = f.code_size();
        let f = Arc::new(f);
        self.insert(name, code_size, move |ctx: TaskCtx, input: Value| {
            let f = Arc::clone(&f);
            async move {
                // The thread first: `f` may block (charge time, use the
                // blocking COS client, run sub-jobs).
                task::thread().await;
                f.call(&ctx, input)
            }
        });
    }

    /// Registers the *resumable* function `f` under `name`, replacing any
    /// previous function: `f(ctx, input)` is `async` code that suspends only
    /// by awaiting [`rustwren_sim::task`]'s leaves (directly, or through
    /// other resumable code such as the COS client's `*_async` operations or
    /// [`Executor::map_async`](crate::Executor::map_async)), so the agent
    /// runs it without an OS thread, as a task of any kind or as a combiner.
    /// Through [`get`](FunctionRegistry::get)`.call(..)` the same code is
    /// driven to completion on the caller's thread.
    pub fn register_resumable<F, R>(&self, name: &str, f: F)
    where
        F: Fn(TaskCtx, Value) -> R + Send + Sync + 'static,
        R: Future<Output = Result<Value, String>> + Send + 'static,
    {
        self.insert(name, DEFAULT_CODE_SIZE, f);
    }

    /// Stores `f` under `name` as the one form, replacing any previous
    /// function.
    fn insert<F, R>(&self, name: &str, code_size: u64, f: F)
    where
        F: Fn(TaskCtx, Value) -> R + Send + Sync + 'static,
        R: Future<Output = Result<Value, String>> + Send + 'static,
    {
        let f = Arc::new(f);
        // `f` itself runs inside the future, so that a panic in it is a
        // panic in a poll, which is where the agent catches them.
        let start = Box::new(move |ctx: TaskCtx, input: Value| -> Call {
            let f = Arc::clone(&f);
            Box::pin(async move { f(ctx, input).await })
        });
        let entry = Arc::new(Registered { start, code_size });
        self.fns.write().insert(name.to_owned(), entry);
    }

    /// Looks a function up by name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn RemoteFn>> {
        self.lookup(name).map(|f| f as Arc<dyn RemoteFn>)
    }

    /// The function under `name`, in the form the agent awaits.
    pub(crate) fn lookup(&self, name: &str) -> Option<Arc<Registered>> {
        self.fns.read().get(name).cloned()
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.fns.read().contains_key(name)
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<_> = self.fns.read().keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add_seven() -> impl RemoteFn {
        |_ctx: &TaskCtx, input: Value| {
            let x = input.as_i64().ok_or("expected int")?;
            Ok(Value::Int(x + 7))
        }
    }

    #[test]
    fn register_and_lookup() {
        let reg = FunctionRegistry::new();
        reg.register("add7", add_seven());
        assert!(reg.contains("add7"));
        assert!(!reg.contains("mul2"));
        assert!(reg.get("add7").is_some());
    }

    #[test]
    fn default_code_size_is_a_few_kb() {
        let reg = FunctionRegistry::new();
        reg.register("add7", add_seven());
        assert_eq!(
            reg.get("add7").map(|f| f.code_size()),
            Some(DEFAULT_CODE_SIZE)
        );
    }

    #[test]
    fn sized_fn_overrides_code_size() {
        let reg = FunctionRegistry::new();
        reg.register("big", SizedFn::new(add_seven(), 5 << 20));
        assert_eq!(reg.get("big").map(|f| f.code_size()), Some(5 << 20));
    }

    #[test]
    fn clones_share_registrations() {
        let reg = FunctionRegistry::new();
        let reg2 = reg.clone();
        reg.register("f", add_seven());
        assert!(reg2.contains("f"));
    }

    #[test]
    fn names_are_sorted() {
        let reg = FunctionRegistry::new();
        reg.register("zeta", add_seven());
        reg.register("alpha", add_seven());
        assert_eq!(reg.names(), vec!["alpha".to_owned(), "zeta".to_owned()]);
    }
}
