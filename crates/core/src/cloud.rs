//! [`SimCloud`]: one simulated IBM Cloud — kernel, COS, Cloud Functions and
//! the function registry, wired together.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use rustwren_faas::{CloudFunctions, PlatformConfig};
use rustwren_sim::chaos::{ChaosEngine, ChaosStats, FaultPlan, FaultRecord};
use rustwren_sim::{Kernel, NetworkProfile};
use rustwren_store::ObjectStore;

use crate::executor::ExecutorBuilder;
use crate::future::StatusMemo;
use crate::registry::{FunctionRegistry, RemoteFn};

pub(crate) struct CloudInner {
    pub(crate) kernel: Kernel,
    pub(crate) store: ObjectStore,
    pub(crate) faas: CloudFunctions,
    pub(crate) registry: FunctionRegistry,
    pub(crate) client_net: NetworkProfile,
    pub(crate) exec_seq: AtomicU64,
    pub(crate) seed: u64,
    /// What shuffle reducers have read of map statuses.
    pub(crate) statuses: StatusMemo,
}

/// A complete simulated IBM Cloud plus the client's network position.
/// Cheap to clone. The entry point of the whole library.
///
/// # Examples
///
/// ```
/// use rustwren_core::{SimCloud, Value};
///
/// let cloud = SimCloud::builder().seed(7).build();
/// cloud.register_fn("add7", |_ctx: &rustwren_core::TaskCtx, v: Value| {
///     Ok(Value::Int(v.as_i64().ok_or("expected int")? + 7))
/// });
/// let results = cloud.run(|| {
///     let exec = cloud.executor().build()?;
///     exec.map("add7", [Value::Int(3), Value::Int(6), Value::Int(9)])?;
///     exec.get_result()
/// })?;
/// assert_eq!(results, vec![Value::Int(10), Value::Int(13), Value::Int(16)]);
/// # Ok::<(), rustwren_core::PywrenError>(())
/// ```
#[derive(Clone)]
pub struct SimCloud {
    pub(crate) inner: Arc<CloudInner>,
}

impl fmt::Debug for SimCloud {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimCloud")
            .field("client_net", &self.inner.client_net)
            .field("functions", &self.inner.registry)
            .finish()
    }
}

impl SimCloud {
    /// Starts building a cloud.
    pub fn builder() -> SimCloudBuilder {
        SimCloudBuilder {
            platform: PlatformConfig::default(),
            client_net: NetworkProfile::wan(),
            seed: 0xC10D,
            chaos: None,
            kernel: None,
        }
    }

    pub(crate) fn from_inner(inner: Arc<CloudInner>) -> SimCloud {
        SimCloud { inner }
    }

    pub(crate) fn downgrade(&self) -> Weak<CloudInner> {
        Arc::downgrade(&self.inner)
    }

    /// The virtual-time kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.inner.kernel
    }

    /// The object-storage service.
    pub fn store(&self) -> &ObjectStore {
        &self.inner.store
    }

    /// The Cloud Functions service.
    pub fn functions(&self) -> &CloudFunctions {
        &self.inner.faas
    }

    /// The function registry (Rust's stand-in for pickled code).
    pub fn registry(&self) -> &FunctionRegistry {
        &self.inner.registry
    }

    /// The client's network profile (WAN laptop by default).
    pub fn client_network(&self) -> &NetworkProfile {
        &self.inner.client_net
    }

    /// Registers a user function under `name`; see [`RemoteFn`].
    pub fn register_fn<F>(&self, name: &str, f: F)
    where
        F: RemoteFn + 'static,
    {
        self.inner.registry.register(name, f);
    }

    /// Registers a resumable user function under `name`; see
    /// [`FunctionRegistry::register_resumable`].
    pub fn register_resumable_fn<F, R>(&self, name: &str, f: F)
    where
        F: Fn(crate::TaskCtx, crate::Value) -> R + Send + Sync + 'static,
        R: std::future::Future<Output = Result<crate::Value, String>> + Send + 'static,
    {
        self.inner.registry.register_resumable(name, f);
    }

    /// Enters the simulation on the calling thread as "the client" and runs
    /// `f` to completion in virtual time.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f`, including simulation deadlocks.
    pub fn run<T>(&self, f: impl FnOnce() -> T) -> T {
        self.inner.kernel.run("client", f)
    }

    /// Starts building an executor (the paper's `pw.ibm_cf_executor()`).
    pub fn executor(&self) -> ExecutorBuilder {
        ExecutorBuilder::new(self.clone())
    }

    pub(crate) fn next_exec_id(&self) -> String {
        format!("e{}", self.inner.exec_seq.fetch_add(1, Ordering::Relaxed))
    }

    /// Counters of faults the installed chaos engine has fired so far
    /// (zeroes when the cloud was built without a [`FaultPlan`]).
    pub fn chaos_stats(&self) -> ChaosStats {
        self.inner
            .kernel
            .chaos()
            .map(|c| c.stats())
            .unwrap_or_default()
    }

    /// The injected-fault timeline so far, sorted by virtual time — equal
    /// across runs with the same seed and [`FaultPlan`]. Empty when no plan
    /// was installed.
    pub fn fault_log(&self) -> Vec<FaultRecord> {
        self.inner
            .kernel
            .chaos()
            .map(|c| c.fault_log())
            .unwrap_or_default()
    }
}

/// Builder for [`SimCloud`].
#[derive(Debug)]
pub struct SimCloudBuilder {
    platform: PlatformConfig,
    client_net: NetworkProfile,
    seed: u64,
    chaos: Option<FaultPlan>,
    kernel: Option<Kernel>,
}

impl SimCloudBuilder {
    /// Replaces the FaaS platform configuration.
    pub fn platform(mut self, config: PlatformConfig) -> SimCloudBuilder {
        self.platform = config;
        self
    }

    /// Sets the client's network position (default: high-latency WAN, the
    /// paper's evaluation setup).
    pub fn client_network(mut self, net: NetworkProfile) -> SimCloudBuilder {
        self.client_net = net;
        self
    }

    /// Seeds every deterministic draw in the cloud.
    pub fn seed(mut self, seed: u64) -> SimCloudBuilder {
        self.seed = seed;
        self
    }

    /// Installs a deterministic fault-injection plan: every service in this
    /// cloud consults the resulting [`ChaosEngine`] at its hook points, so
    /// the same seed and plan replay the exact same fault timeline.
    pub fn chaos(mut self, plan: FaultPlan) -> SimCloudBuilder {
        self.chaos = Some(plan);
        self
    }

    /// Builds the cloud on an externally supplied kernel instead of a fresh
    /// one. This is how the `rustwren-verify` model checker drives a full
    /// cloud under its exploration schedulers: it configures a kernel
    /// (scheduler, lock-order recording) and hands it to the builder.
    pub fn kernel(mut self, kernel: Kernel) -> SimCloudBuilder {
        self.kernel = Some(kernel);
        self
    }

    /// Builds the cloud and deploys the IBM-PyWren system actions.
    ///
    /// # Panics
    ///
    /// Panics on an invalid platform configuration (e.g. a degenerate
    /// tenant set); use [`try_build`](SimCloudBuilder::try_build) to get
    /// the typed error instead.
    pub fn build(self) -> SimCloud {
        match self.try_build() {
            Ok(cloud) => cloud,
            // lint: allow(L004) — construction-time config validation;
            // never reached on the simulated hot path
            Err(e) => panic!("invalid cloud config: {e}"),
        }
    }

    /// Builds the cloud, surfacing invalid platform configuration (such as
    /// a tenant with a zero quota) as [`crate::PywrenError::Config`].
    ///
    /// # Errors
    ///
    /// [`crate::PywrenError::Config`] when the platform rejects its
    /// configuration at build time.
    pub fn try_build(mut self) -> crate::Result<SimCloud> {
        self.platform.seed = rustwren_sim::hash::hash2(self.seed, self.platform.seed);
        let kernel = self.kernel.take().unwrap_or_default();
        if let Some(plan) = self.chaos.take() {
            kernel.install_chaos(Arc::new(ChaosEngine::new(plan)));
        }
        let store = ObjectStore::new(&kernel);
        let faas = CloudFunctions::try_new(&kernel, &store, self.platform)
            .map_err(|e| crate::PywrenError::Config(e.to_string()))?;
        let inner = Arc::new(CloudInner {
            kernel,
            store,
            faas,
            registry: FunctionRegistry::new(),
            client_net: self.client_net,
            exec_seq: AtomicU64::new(1),
            seed: self.seed,
            statuses: StatusMemo::default(),
        });
        let cloud = SimCloud { inner };
        crate::invoker::deploy_invoker(&cloud);
        crate::compose::register_sequence_driver(cloud.registry());
        Ok(cloud)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Value;

    #[test]
    fn builder_defaults_to_wan_client() {
        let cloud = SimCloud::builder().build();
        assert_eq!(cloud.client_network(), &NetworkProfile::wan());
    }

    #[test]
    fn register_fn_is_visible_in_registry() {
        let cloud = SimCloud::builder().build();
        cloud.register_fn("f", |_ctx: &crate::TaskCtx, v: Value| Ok(v));
        assert!(cloud.registry().contains("f"));
    }

    #[test]
    fn exec_ids_are_unique() {
        let cloud = SimCloud::builder().build();
        assert_ne!(cloud.next_exec_id(), cloud.next_exec_id());
    }

    #[test]
    fn invoker_action_is_deployed() {
        let cloud = SimCloud::builder().build();
        assert!(cloud.functions().has_action(crate::invoker::INVOKER_ACTION));
    }

    #[test]
    fn try_build_rejects_degenerate_tenants() {
        let cfg = PlatformConfig {
            tenants: vec![rustwren_faas::TenantConfig::new("acme", 0)],
            ..PlatformConfig::default()
        };
        let err = SimCloud::builder().platform(cfg).try_build().unwrap_err();
        assert!(matches!(err, crate::PywrenError::Config(_)), "{err}");
        assert!(err.to_string().contains("acme"), "{err}");
    }
}
