//! [`TaskCtx`]: what a user function sees while it runs in the cloud.

use std::fmt;
use std::time::Duration;

use rustwren_faas::{ActivationCtx, ActivationId};
use rustwren_sim::{NetworkProfile, SimInstant};
use rustwren_store::CosClient;

use crate::cloud::SimCloud;
use crate::config::SpawnStrategy;
use crate::executor::ExecutorBuilder;
use crate::future::ResponseFuture;
use crate::wire::Value;

/// The execution context passed to every [`crate::RemoteFn`].
///
/// Besides the virtual clock and modeled-compute charging, it exposes
/// [`executor`](TaskCtx::executor) — an in-cloud executor over the
/// data-center network. This is the paper's *dynamic composability* (§4.4):
/// any function can spawn further parallel jobs with two lines of code, with
/// no predeployment.
#[derive(Clone)]
pub struct TaskCtx {
    activation: ActivationCtx,
    cloud: SimCloud,
}

impl fmt::Debug for TaskCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskCtx")
            .field("activation", &self.activation.activation_id())
            .finish()
    }
}

impl TaskCtx {
    pub(crate) fn new(activation: ActivationCtx, cloud: SimCloud) -> TaskCtx {
        TaskCtx { activation, cloud }
    }

    /// The id of the activation running this task.
    pub fn activation_id(&self) -> ActivationId {
        self.activation.activation_id()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimInstant {
        self.activation.now()
    }

    /// Charges `d` of modeled CPU work (scaled by the container's speed).
    pub fn charge(&self, d: Duration) {
        self.activation.charge(d);
    }

    /// Time remaining before the platform's execution limit.
    pub fn remaining(&self) -> Duration {
        self.activation.remaining()
    }

    /// A COS client over the in-cloud network.
    pub fn cos(&self) -> CosClient {
        self.activation.cos_client()
    }

    /// The cloud this task runs in.
    pub fn cloud(&self) -> &SimCloud {
        &self.cloud
    }

    /// The underlying FaaS activation context.
    pub fn activation(&self) -> &ActivationCtx {
        &self.activation
    }

    /// An executor builder positioned *inside* the cloud (data-center
    /// network, modest direct-spawn pool) — customize then `build()`.
    pub fn executor_builder(&self) -> ExecutorBuilder {
        ExecutorBuilder::new(self.cloud.clone())
            .network(NetworkProfile::datacenter())
            .spawn(SpawnStrategy::Direct { client_threads: 4 })
    }

    /// An in-cloud executor with default settings (the two-line composition
    /// hook from the paper's `foo()` example): a resumable function awaits
    /// its [`map_async`](crate::Executor::map_async) (see the example there).
    ///
    /// # Errors
    ///
    /// Executor construction errors (e.g. unknown runtime).
    pub fn executor(&self) -> crate::error::Result<crate::executor::Executor> {
        self.executor_builder().build()
    }

    /// Wraps futures into a marker value; returning it from a function makes
    /// the client's `get_result()` transparently await them (§4.2's
    /// "composition-aware" collection).
    pub fn futures_value(&self, futures: &[ResponseFuture]) -> Value {
        ResponseFuture::set_to_value(futures)
    }
}
