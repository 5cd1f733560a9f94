//! Actions: the functions the platform runs.

use std::fmt;
use std::time::Duration;

use bytes::Bytes;

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
