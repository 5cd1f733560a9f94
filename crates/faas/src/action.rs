//! Actions: the functions the platform runs.

use std::fmt;
use std::time::Duration;

use bytes::Bytes;
use rustwren_sim::sync::Event;

use crate::error::ActionError;
use crate::platform::ActivationCtx;
use crate::runtime::DEFAULT_RUNTIME;

/// A deployable function. Implemented automatically for closures of the
/// right shape; implement manually to carry state or configuration.
///
/// The action's final `Bytes` are its result payload, stored in the
/// activation record (and, in IBM-PyWren, usually *also* written to COS by
/// the function agent).
pub trait Action: Send + Sync {
    /// Runs the function. `ctx` gives access to the virtual clock, compute
    /// charging, the object store, and (for composability) the platform
    /// itself.
    ///
    /// # Errors
    ///
    /// Application-level failures; the platform records them as
    /// [`crate::Outcome::Failed`].
    fn invoke(&self, ctx: &ActivationCtx, payload: Bytes) -> Result<Bytes, ActionError>;
}

impl<F> Action for F
where
    F: Fn(&ActivationCtx, Bytes) -> Result<Bytes, ActionError> + Send + Sync,
{
    fn invoke(&self, ctx: &ActivationCtx, payload: Bytes) -> Result<Bytes, ActionError> {
        self(ctx, payload)
    }
}

/// What a [`ResumableBody`]'s poll asks the platform to do next.
#[derive(Debug)]
pub enum BodyStep {
    /// Resume after this much virtual time — how a resumable body charges
    /// modeled compute ([`ActivationCtx::scaled`] applies the container's
    /// speed factor). A zero duration resumes immediately.
    Sleep(Duration),
    /// Resume once this event has fired (immediately if it already has).
    Wait(Event),
    /// Resume at once, on an OS thread of the activation's own: from its
    /// next resume on, the body may call anything that blocks. This is how
    /// a [`CloudFunctions::register_action`](crate::CloudFunctions::register_action)
    /// closure runs (asked for before it is called), and how a resumable
    /// body reaches code it does not own — a user function, say — part way
    /// through. Asking again once on a thread is a no-op.
    Thread,
    /// The body is finished, with the action's result.
    Done(Result<Bytes, ActionError>),
}

/// The body of one activation of a *resumable* action: a state machine the
/// platform polls, instead of a function it calls and waits for. It may
/// charge time and wait on events — by returning the matching [`BodyStep`],
/// never by calling anything that blocks — so the platform runs the whole
/// activation as a lightweight task with no OS thread behind it.
///
/// Which kind an action is follows from how it was registered
/// ([`CloudFunctions::register_action`](crate::CloudFunctions::register_action)
/// for a blocking [`Action`],
/// [`CloudFunctions::register_resumable`](crate::CloudFunctions::register_resumable)
/// for this); nothing else selects between them. Implemented automatically
/// for closures of the right shape.
pub trait ResumableBody: Send {
    /// Runs the body to its next suspension point. Called again after each
    /// `Sleep`/`Wait` it returned has elapsed/fired, and never after `Done`.
    /// A panic, like a panic in an [`Action`], is recorded as
    /// [`crate::Outcome::Crashed`]; that includes the kernel's refusal of a
    /// blocking call (`ctx.charge`, a COS or FaaS client) made from here.
    fn resume(&mut self, ctx: &ActivationCtx) -> BodyStep;
}

impl<F> ResumableBody for F
where
    F: FnMut(&ActivationCtx) -> BodyStep + Send,
{
    fn resume(&mut self, ctx: &ActivationCtx) -> BodyStep {
        self(ctx)
    }
}

/// Deployment configuration of one action (`wsk action create` flags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionConfig {
    /// Runtime image to run inside; must exist in the Docker registry.
    pub runtime: String,
    /// Memory per container in MB (512 MB limit in the paper).
    pub memory_mb: u32,
    /// Per-invocation execution time limit (600 s in the paper).
    pub timeout: Duration,
}

impl Default for ActionConfig {
    fn default() -> ActionConfig {
        ActionConfig {
            runtime: DEFAULT_RUNTIME.to_owned(),
            memory_mb: 256,
            timeout: Duration::from_secs(600),
        }
    }
}

impl ActionConfig {
    /// Config with a specific runtime image.
    pub fn with_runtime(runtime: impl Into<String>) -> ActionConfig {
        ActionConfig {
            runtime: runtime.into(),
            ..ActionConfig::default()
        }
    }

    /// Sets the memory request (builder-style).
    pub fn memory_mb(mut self, mb: u32) -> ActionConfig {
        self.memory_mb = mb;
        self
    }

    /// Sets the execution time limit (builder-style).
    pub fn timeout(mut self, timeout: Duration) -> ActionConfig {
        self.timeout = timeout;
        self
    }
}

impl fmt::Display for ActionConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "runtime={} mem={}MB timeout={:?}",
            self.runtime, self.memory_mb, self.timeout
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_limits() {
        let c = ActionConfig::default();
        assert_eq!(c.runtime, DEFAULT_RUNTIME);
        assert_eq!(c.timeout, Duration::from_secs(600));
        assert!(c.memory_mb <= 512);
    }

    #[test]
    fn builder_methods_chain() {
        let c = ActionConfig::with_runtime("custom:1")
            .memory_mb(512)
            .timeout(Duration::from_secs(60));
        assert_eq!(c.runtime, "custom:1");
        assert_eq!(c.memory_mb, 512);
        assert_eq!(c.timeout, Duration::from_secs(60));
    }
}
