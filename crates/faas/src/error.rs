//! FaaS platform error types.

use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Error returned when submitting an invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvokeError {
    /// No action registered under this name.
    ActionNotFound(String),
    /// The namespace hit a rate or concurrency limit (HTTP 429 in
    /// OpenWhisk). The caller should back off and retry.
    Throttled {
        /// The configured limit that was exceeded (concurrent invocations
        /// or invocations per minute, whichever fired).
        limit: usize,
        /// Deterministic server-side hint: how long to wait before the
        /// request has a chance of being admitted (the remainder of the
        /// rate window for rate throttles, a fixed 5 s drain estimate for
        /// concurrency throttles). [`FaasClient`](crate::FaasClient)
        /// sleeps exactly this long before it retries.
        retry_after: Duration,
    },
    /// The tenant's bounded admission queue is full and the invocation was
    /// shed — the platform's graceful-degradation answer to sustained
    /// overload (retrying immediately will not help; the queue must drain).
    ShedLoad {
        /// Namespace whose queue overflowed.
        namespace: String,
        /// The configured queue depth that was exceeded.
        queue_depth: usize,
    },
    /// The (simulated) network failed the request after all retries.
    Network {
        /// Action that was being invoked.
        action: String,
        /// Attempts made before giving up.
        attempts: u32,
    },
}

impl fmt::Display for InvokeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvokeError::ActionNotFound(a) => write!(f, "action not found: {a}"),
            InvokeError::Throttled { limit, retry_after } => {
                write!(
                    f,
                    "throttled: invocation limit of {limit} reached (retry after {:.3}s)",
                    retry_after.as_secs_f64()
                )
            }
            InvokeError::ShedLoad {
                namespace,
                queue_depth,
            } => {
                write!(
                    f,
                    "load shed: admission queue for namespace {namespace} is full \
                     (depth {queue_depth})"
                )
            }
            InvokeError::Network { action, attempts } => {
                write!(
                    f,
                    "network failure invoking {action} after {attempts} attempt(s)"
                )
            }
        }
    }
}

impl Error for InvokeError {}

/// Error returned when constructing a platform from an invalid
/// configuration (e.g. a degenerate tenant set). Produced at build time so
/// misconfiguration never turns into silent clamping or runtime starvation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaasError {
    /// A tenant configuration was rejected.
    InvalidTenant {
        /// The offending namespace (empty when the tenant *set* as a whole
        /// was rejected, e.g. weights summing to zero).
        namespace: String,
        /// Why it was rejected.
        reason: String,
    },
}

impl fmt::Display for FaasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaasError::InvalidTenant { namespace, reason } if namespace.is_empty() => {
                write!(f, "invalid tenant set: {reason}")
            }
            FaasError::InvalidTenant { namespace, reason } => {
                write!(f, "invalid tenant {namespace}: {reason}")
            }
        }
    }
}

impl Error for FaasError {}

/// Error returned when registering an action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterError {
    /// The requested runtime image is not in the Docker registry.
    UnknownRuntime(String),
    /// The requested memory exceeds the platform's per-function limit.
    MemoryLimitExceeded {
        /// Memory the action asked for.
        requested_mb: u32,
        /// Maximum the platform allows (512 MB in the paper).
        limit_mb: u32,
    },
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterError::UnknownRuntime(r) => {
                write!(
                    f,
                    "unknown runtime image: {r} (push it to the registry first)"
                )
            }
            RegisterError::MemoryLimitExceeded {
                requested_mb,
                limit_mb,
            } => write!(
                f,
                "requested {requested_mb} MB exceeds the per-function limit of {limit_mb} MB"
            ),
        }
    }
}

impl Error for RegisterError {}

/// Error produced *by an action* while it runs (the user function failed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionError(pub String);

impl fmt::Display for ActionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "action failed: {}", self.0)
    }
}

impl Error for ActionError {}

impl From<String> for ActionError {
    fn from(msg: String) -> ActionError {
        ActionError(msg)
    }
}

impl From<&str> for ActionError {
    fn from(msg: &str) -> ActionError {
        ActionError(msg.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert_eq!(
            InvokeError::ActionNotFound("f".into()).to_string(),
            "action not found: f"
        );
        let throttled = InvokeError::Throttled {
            limit: 1000,
            retry_after: Duration::from_secs(5),
        };
        assert!(throttled.to_string().contains("1000"));
        assert!(throttled.to_string().contains("5.000"));
        let shed = InvokeError::ShedLoad {
            namespace: "acme".into(),
            queue_depth: 8,
        };
        assert!(shed.to_string().contains("acme"));
        assert!(shed.to_string().contains('8'));
        assert!(RegisterError::UnknownRuntime("x".into())
            .to_string()
            .contains("registry"));
        assert!(FaasError::InvalidTenant {
            namespace: "acme".into(),
            reason: "zero quota".into()
        }
        .to_string()
        .contains("acme"));
        assert!(FaasError::InvalidTenant {
            namespace: String::new(),
            reason: "weights sum to zero".into()
        }
        .to_string()
        .contains("tenant set"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<InvokeError>();
        assert_send_sync::<RegisterError>();
        assert_send_sync::<ActionError>();
        assert_send_sync::<FaasError>();
    }
}
