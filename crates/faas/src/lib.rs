//! # rustwren-faas — IBM Cloud Functions / Apache OpenWhisk simulator
//!
//! The compute substrate of the IBM-PyWren reproduction. It models the
//! platform behaviours the paper's experiments measure:
//!
//! * Docker-style **runtimes** shared through a registry, with node-local
//!   image caches and first-pull latency ([`DockerRegistry`],
//!   [`RuntimeImage`]);
//! * a **container pool** with cold/warm starts, idle expiry and LRU
//!   eviction over a fixed cluster capacity ([`CloudFunctions`]);
//! * per-namespace **concurrency limits** with 429 throttling
//!   ([`InvokeError::Throttled`]), the paper's 1,000-invocation default;
//! * a multi-tenant **admission plane**: per-tenant quotas and rate
//!   limits ([`TenantConfig`]), weighted-round-robin fair queuing with
//!   bounded depth and load shedding ([`InvokeError::ShedLoad`]), and
//!   pluggable keep-alive/prewarm policies ([`KeepAlivePolicy`]) with
//!   per-tenant warm-pool accounting ([`TenantStats`]);
//! * the **600 s / 512 MB** execution and memory limits;
//! * **activation records** ([`ActivationRecord`]) from which concurrency
//!   timelines (paper Figs 2–3) are reconstructed;
//! * a timed REST **client** ([`FaasClient`]) charging WAN or data-center
//!   network costs per call, with retry on failure and throttling.
//!
//! Actions are ordinary Rust values implementing [`Action`] (closures
//! work). Inside an action, [`ActivationCtx`] exposes the virtual clock,
//! modeled-compute charging, COS access and — crucially for IBM-PyWren's
//! composability — the ability to invoke further functions.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod action;
mod activation;
mod client;
mod error;
mod platform;
mod runtime;
mod tenant;

pub use action::{Action, ActionConfig};
pub use activation::{ActivationId, ActivationRecord, Outcome, Phase};
pub use client::{FaasClient, ThrottleSignal};
pub use error::{ActionError, FaasError, InvokeError, RegisterError};
pub use platform::{
    ActionStats, ActivationCtx, BillingReport, BlobCache, CloudFunctions, PlatformConfig,
    PlatformLimits, PlatformStats,
};
pub use runtime::{DockerRegistry, RuntimeImage, DEFAULT_RUNTIME};
pub use tenant::{KeepAlivePolicy, TenantConfig, TenantId, TenantStats, DEFAULT_NAMESPACE};
