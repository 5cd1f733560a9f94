//! The Cloud Functions platform: scheduling, container pool, activations.
//!
//! Models the parts of IBM Cloud Functions (Apache OpenWhisk) the paper's
//! experiments exercise:
//!
//! * a **container pool** over a fixed cluster capacity, with per-action
//!   warm containers, cold starts, node-local image caches and first-pull
//!   latency, idle expiry and LRU eviction;
//! * a per-namespace **concurrent invocation limit** (1,000 by default,
//!   increasable — the paper's Fig 3 runs 2,000) enforced with `429`-style
//!   [`InvokeError::Throttled`] rejections;
//! * the per-function **600 s execution limit** and **512 MB memory limit**;
//! * **activation records** with submit/start/end timestamps, from which the
//!   benchmark harness reconstructs the paper's concurrency timelines;
//! * heterogeneous container performance (a deterministic per-container
//!   speed factor), reproducing the execution-time variability visible in
//!   the paper's Fig 3 ("some functions ran fast while others slow").

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::future::Future;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::pin::{pin, Pin};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard};
use rustwren_sim::hash::{hash2, unit_f64};
use rustwren_sim::sync::Event;
use rustwren_sim::{task, Kernel, NetworkProfile, Resource, SimInstant};
use rustwren_store::{CosClient, ObjectStore, OpCounters, OpCounts};

use crate::action::{Action, ActionConfig};
use crate::activation::{ActivationId, ActivationRecord, Outcome, Phase};
use crate::client::FaasClient;
use crate::error::{ActionError, FaasError, InvokeError, RegisterError};
use crate::runtime::DockerRegistry;
use crate::tenant::{
    ArrivalHistory, KeepAlivePolicy, KeepDecision, TenantConfig, TenantId, TenantStats,
    DEFAULT_NAMESPACE,
};

/// Time to reuse a warm container.
const WARM_START: Duration = Duration::from_millis(8);

/// Per-worker image pull bandwidth in bytes/second.
const PULL_BANDWIDTH: u64 = 200 * 1024 * 1024;

/// Price per GB-second of function execution (IBM Cloud Functions charged
/// $0.000017/GB-s at the time of the paper).
const PRICE_PER_GB_SECOND: f64 = 0.000_017;

/// Deterministic `retry_after` hint attached to *concurrency* 429s
/// (rate-limit 429s hint the exact window remainder instead). A drain
/// estimate: how long a rejected caller should wait before a slot has
/// plausibly freed.
const RETRY_AFTER_HINT: Duration = Duration::from_secs(5);

/// Cluster-level configuration; the calibration constants behind every
/// timing experiment. Defaults are calibrated once against the numbers the
/// paper itself reports (see `EXPERIMENTS.md`) and then held fixed. Four
/// calibration values are not settable: a warm start takes 8 ms, a worker
/// pulls images at 200 MiB/s, execution is billed at $0.000017 per
/// GB-second, and a concurrency 429 hints `retry_after` = 5 s.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// Maximum concurrent activations per namespace (paper: 1,000 default,
    /// "can be increased if needed").
    pub concurrency_limit: usize,
    /// Maximum invocations accepted per namespace per minute (OpenWhisk's
    /// second throttle dimension). Defaults high enough not to interfere
    /// with the paper's experiments (IBM raised limits on request).
    pub invocations_per_minute: u64,
    /// Total containers the cluster can host at once.
    pub cluster_containers: usize,
    /// Number of worker hosts (affects image-cache locality only).
    pub workers: usize,
    /// Time to start a fresh container (image already local).
    pub cold_start: Duration,
    /// Control-plane processing time per invocation request.
    pub api_overhead: Duration,
    /// Hard per-invocation execution limit (paper: 600 s).
    pub max_exec_time: Duration,
    /// Per-function memory limit in MB (paper: 512 MB).
    pub memory_limit_mb: u32,
    /// Containers run at a deterministic speed in
    /// `[1 - speed_variation, 1 + speed_variation]`.
    pub speed_variation: f64,
    /// Network between functions and in-cloud services (COS, control plane).
    pub internal_net: NetworkProfile,
    /// Seed for all deterministic per-container/per-request draws.
    pub seed: u64,
    /// Container keep-alive/prewarm policy: by default idle warm
    /// containers are reclaimed after 600 s
    /// ([`KeepAlivePolicy::FixedTtl`]). Tenants may override it per
    /// namespace via [`TenantConfig::keep_alive`].
    pub keep_alive: KeepAlivePolicy,
    /// Tenant set for multi-tenant serving. Empty (the default) keeps the
    /// platform single-tenant: every invocation lands in the
    /// [`DEFAULT_NAMESPACE`] under the global limits only. Validated at
    /// build time ([`CloudFunctions::try_new`]).
    pub tenants: Vec<TenantConfig>,
}

impl Default for PlatformConfig {
    fn default() -> PlatformConfig {
        PlatformConfig {
            concurrency_limit: 1_000,
            invocations_per_minute: 1_000_000,
            cluster_containers: 2_600,
            workers: 120,
            cold_start: Duration::from_millis(420),
            api_overhead: Duration::from_millis(40),
            max_exec_time: Duration::from_secs(600),
            memory_limit_mb: 512,
            speed_variation: 0.12,
            internal_net: NetworkProfile::datacenter(),
            seed: 0xF00D,
            keep_alive: KeepAlivePolicy::fixed(Duration::from_secs(600)),
            tenants: Vec::new(),
        }
    }
}

/// The platform limits a pre-flight job planner needs to know about —
/// the subset of [`PlatformConfig`] that caps what a job may ask for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformLimits {
    /// Maximum concurrent activations per namespace.
    pub concurrency_limit: usize,
    /// Maximum invocations accepted per namespace per minute.
    pub invocations_per_minute: u64,
    /// Hard per-invocation execution limit.
    pub max_exec_time: Duration,
    /// Per-function memory limit in MB.
    pub memory_limit_mb: u32,
}

impl PlatformConfig {
    /// The limit metadata of this configuration.
    pub fn limits(&self) -> PlatformLimits {
        PlatformLimits {
            concurrency_limit: self.concurrency_limit,
            invocations_per_minute: self.invocations_per_minute,
            max_exec_time: self.max_exec_time,
            memory_limit_mb: self.memory_limit_mb,
        }
    }
}

struct Container {
    /// Unique container id, used to derive the deterministic speed factor
    /// and as the order-independent LRU-eviction tie-break.
    id: u64,
    /// The warm pool it idles in, and the tenant whose warm-pool accounting
    /// it bills to. Containers never migrate across tenants.
    key: PoolKey,
    worker: usize,
    /// Relative CPU speed; `charge(d)` takes `d / speed` of virtual time.
    speed: f64,
    last_used: SimInstant,
    /// When the container is reclaimed if it stays idle in the warm pool
    /// (set by the keep-alive policy on release).
    expires_at: SimInstant,
    /// When the container entered the warm pool; `None` while running.
    /// Basis for per-tenant warm-pool-seconds accounting.
    warmed_since: Option<SimInstant>,
    /// Container-local blob cache. Follows the container through warm
    /// reuse and dies with it on LRU eviction, idle expiry, or
    /// capacity-handoff destruction — exactly the lifetime of `/tmp` in a
    /// real OpenWhisk container.
    cache: BlobCache,
}

/// Warm-pool key: one tenant's one action. Compared and hashed as the pair
/// it is — a formatted `namespace/action` would let `t` + `x/f` and `t/x` +
/// `f` share containers, and neither half forbids a `/` (agent actions are
/// named after `org/image:tag` runtimes).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct PoolKey {
    tenant: TenantId,
    action: Arc<str>,
}

impl fmt::Display for PoolKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.tenant, self.action)
    }
}

/// An activation's task name, `act-{id}`: formatted on the stack (an id is
/// always 16 hex digits) and copied once, into the `Arc<str>` its task and
/// completion event share.
fn activation_name(id: ActivationId) -> Arc<str> {
    use std::io::Write;
    let mut name = [0u8; 20];
    let written = write!(name.as_mut_slice(), "act-{id}").is_ok();
    match std::str::from_utf8(&name) {
        Ok(name) if written => Arc::from(name),
        _ => Arc::from(format!("act-{id}")),
    }
}

/// Virtual-time backoff before resumable code that found a platform lock
/// held tries again (see [`locked`]).
const LOCK_RETRY: Duration = Duration::from_micros(100);

/// Takes a platform lock from resumable code. Activations and prewarms run
/// as light tasks, on a borrowed stack that must never park, so contention
/// is a [`LOCK_RETRY`] sleep and another try. The guard is not `Send`: the
/// compiler rejects holding it across an `.await`, so a poll never parks
/// holding a platform lock, nor holds two.
async fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    loop {
        if let Some(guard) = mutex.try_lock() {
            return guard;
        }
        task::sleep(LOCK_RETRY).await;
    }
}

/// A container-local byte cache, handed to actions through
/// [`ActivationCtx::blob_cache`]. Entries live exactly as long as the
/// container: warm reuse sees earlier entries, while eviction, idle expiry
/// and cold starts begin empty. Cheap to clone (shared handle).
///
/// The platform attaches no validity semantics — consumers that care about
/// integrity (e.g. checksum-stamped blobs) must validate entries on hit and
/// [`remove`](BlobCache::remove) anything that fails.
#[derive(Clone, Default)]
pub struct BlobCache {
    entries: Arc<Mutex<HashMap<String, Bytes>>>,
}

impl fmt::Debug for BlobCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlobCache")
            .field("entries", &self.entries.lock().len())
            .finish()
    }
}

impl BlobCache {
    /// An empty cache.
    pub fn new() -> BlobCache {
        BlobCache::default()
    }

    /// The cached bytes under `key`, if present.
    pub fn get(&self, key: &str) -> Option<Bytes> {
        self.entries.lock().get(key).cloned()
    }

    /// Stores `data` under `key`, replacing any previous entry.
    pub fn insert(&self, key: &str, data: Bytes) {
        self.entries.lock().insert(key.to_owned(), data);
    }

    /// Drops the entry under `key` (e.g. after failed validation).
    pub fn remove(&self, key: &str) {
        self.entries.lock().remove(key);
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

enum Handoff {
    /// A warm container for the waiter's action.
    Warm(Container),
    /// Capacity was reserved; allocate a fresh container.
    Capacity,
}

struct CapacityWaiter {
    /// The waiting activation: the key its [`Handoff`] is left under.
    id: ActivationId,
    /// The warm pool the waiter can be handed a container of.
    key: PoolKey,
    event: Event,
}

/// What one attempt to obtain a container came to: the container (whether
/// it starts cold, and after pulling how many image bytes), or what to park
/// on before the next attempt.
type Attempt = Result<(Container, bool, Option<u64>), task::Suspend>;

/// What is left of a release once the pool lock is dropped.
enum Released {
    /// The container, or its capacity, went to this waiter: wake it.
    Wake(Event),
    /// The container was destroyed ahead of a predicted arrival: schedule
    /// its replacement.
    Prewarm {
        key: PoolKey,
        at: SimInstant,
        until: SimInstant,
        generation: u64,
    },
    /// It idles in the warm pool, or is gone.
    Settled,
}

/// One per-minute rate-limit window: fixed, opened by the first request
/// seen at or after the previous window's end (the first opens at t = 0).
#[derive(Default)]
struct RateWindow {
    start: SimInstant,
    /// Invocations accepted in the window.
    count: u64,
}

impl RateWindow {
    const LENGTH: Duration = Duration::from_secs(60);

    /// Rolls the window if it has ended, then checks whether one more
    /// invocation fits under `limit`. Consumes nothing: the caller
    /// [`record`](RateWindow::record)s once the invocation is accepted.
    ///
    /// # Errors
    ///
    /// The remainder of the window (the exact `retry_after`) when full.
    fn check(&mut self, now: SimInstant, limit: u64) -> Result<(), Duration> {
        if now.duration_since(self.start) >= RateWindow::LENGTH {
            self.start = now;
            self.count = 0;
        }
        if self.count >= limit {
            return Err(self.start + RateWindow::LENGTH - now);
        }
        Ok(())
    }

    fn record(&mut self) {
        self.count += 1;
    }
}

/// What the tenant admission plane decided for one invocation (computed
/// while the tenant is mutably borrowed, applied to the global pool after).
enum TenantAdmission {
    /// Quota and global concurrency allow: run immediately.
    Admit,
    /// Park in the tenant's FIFO admission queue.
    Queue,
    /// Queue full: shed with the configured depth.
    Shed(usize),
    /// Per-tenant rate limit hit.
    Throttle { limit: usize, retry_after: Duration },
}

/// Runtime state of one tenant.
struct TenantState {
    cfg: TenantConfig,
    /// Admitted-and-unfinished activations (counts against the quota).
    inflight: usize,
    /// FIFO admission queue (bounded by `cfg.queue_depth`): the gate
    /// events of parked invocations, fired on admission.
    queue: VecDeque<Event>,
    /// Smooth weighted-round-robin credit; the dispatcher picks the
    /// highest-credit eligible tenant and debits the round's total weight.
    wrr_credit: i64,
    rate: RateWindow,
    stats: TenantStats,
}

impl TenantState {
    fn new(cfg: TenantConfig) -> TenantState {
        TenantState {
            cfg,
            inflight: 0,
            queue: VecDeque::new(),
            wrr_credit: 0,
            rate: RateWindow::default(),
            stats: TenantStats::default(),
        }
    }
}

struct PoolState {
    total_containers: usize,
    /// The namespace-wide per-minute rate limit.
    rate: RateWindow,
    warm: HashMap<PoolKey, Vec<Container>>,
    waiters: VecDeque<CapacityWaiter>,
    /// What releasing activations left for the capacity waiters they woke,
    /// until each waiter's next poll collects it.
    handoffs: HashMap<ActivationId, Handoff>,
    inflight: usize,
    worker_rr: usize,
    worker_images: Vec<HashSet<String>>,
    next_container_id: u64,
    next_activation_id: u64,
    stats: PlatformStats,
    // BTreeMap, not HashMap: the admission dispatcher iterates tenants to
    // pick the next one, so the order must not depend on the hasher.
    tenants: BTreeMap<String, TenantState>,
    /// Per-pool inter-arrival history (hybrid keep-alive policies only;
    /// lookups by key, never iterated).
    arrivals: HashMap<PoolKey, ArrivalHistory>,
    /// The completion event of each unfinished activation: `wait`'s index.
    /// An activation removes its own in its last pool section, just before
    /// firing it. A fixed hasher: with removals, a random one would make
    /// the table's growth, and so its allocations, differ run to run.
    completions: HashMap<ActivationId, Event, BuildHasherDefault<DefaultHasher>>,
}

/// Aggregate statistics for one action; see
/// [`CloudFunctions::action_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActionStats {
    /// Total invocations accepted.
    pub invocations: u64,
    /// Completed successfully.
    pub successes: u64,
    /// Completed with an error, timeout or crash.
    pub failures: u64,
    /// Accepted but not yet finished.
    pub in_flight: u64,
    /// Started in a cold container.
    pub cold_starts: u64,
    /// Mean execution duration over completed activations.
    pub mean_exec: Duration,
}

/// What a run would have cost for real: the "sub-second billing" the
/// paper's introduction leads with. See [`CloudFunctions::billing_report`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BillingReport {
    /// Completed activations billed.
    pub activations: u64,
    /// Total billed GB-seconds (memory × execution time, per activation).
    pub gb_seconds: f64,
    /// Estimated cost at IBM Cloud Functions' price at the time of the
    /// paper, $0.000017 per GB-second.
    pub estimated_usd: f64,
}

/// Aggregate platform counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlatformStats {
    /// Invocations accepted.
    pub submitted: u64,
    /// Invocations completed (any outcome).
    pub completed: u64,
    /// Invocations rejected with 429.
    pub throttled: u64,
    /// Containers started cold.
    pub cold_starts: u64,
    /// Warm container reuses.
    pub warm_starts: u64,
    /// Image pulls performed.
    pub image_pulls: u64,
    /// Invocations shed because a tenant's admission queue was full.
    pub shed: u64,
    /// Invocations that had to wait in a tenant admission queue.
    pub queued: u64,
    /// Containers started ahead of a predicted arrival (hybrid keep-alive
    /// prewarms; not counted in `cold_starts` — no activation paid them).
    pub prewarmed: u64,
    /// Activations that hit the execution time limit.
    pub timeouts: u64,
    /// Container-local blob-cache hits reported by actions.
    pub blob_cache_hits: u64,
    /// Container-local blob-cache misses reported by actions.
    pub blob_cache_misses: u64,
    /// Cache entries that failed validation on hit and were refetched.
    pub blob_cache_heals: u64,
}

/// One activation's body, started.
type Body = Pin<Box<dyn Future<Output = Result<Bytes, ActionError>> + Send>>;

struct RegisteredAction {
    /// Starts one activation's body from its context and payload.
    start: Box<dyn Fn(ActivationCtx, Bytes) -> Body + Send + Sync>,
    config: ActionConfig,
}

struct Inner {
    kernel: Kernel,
    store: ObjectStore,
    config: PlatformConfig,
    registry: DockerRegistry,
    actions: Mutex<HashMap<String, Arc<RegisteredAction>>>,
    pool: Mutex<PoolState>,
    // BTreeMap, not HashMap: `action_stats` and `billing_report` iterate
    // the records (the latter summing f64s), so the order must not depend
    // on the hasher.
    records: Mutex<BTreeMap<ActivationId, ActivationRecord>>,
    /// Wait-for-graph resource standing for the cluster's container
    /// capacity; activations hold it while they own a container, and
    /// capacity waiters block on it.
    capacity_res: Resource,
    /// Wait-for-graph resource standing for tenant admission slots;
    /// admitted activations hold it, queued invocations block on it — so a
    /// wedged admission queue shows *which* activations pin the quota.
    admission_res: Resource,
    /// COS operations issued from inside activations (the "agent" phase),
    /// tallied across every [`ActivationCtx::cos_client`].
    agent_ops: Arc<OpCounters>,
    /// Blob-cache lookups reported by bodies, the `blob_cache_*` fields of
    /// [`PlatformStats`]. Atomics, not pool fields, because a body notes
    /// them mid-poll, where the pool lock may not be waited for.
    blob_cache_hits: AtomicU64,
    blob_cache_misses: AtomicU64,
    blob_cache_heals: AtomicU64,
}

/// A simulated IBM Cloud Functions deployment. Cheap to clone.
///
/// # Examples
///
/// ```
/// use rustwren_faas::{ActionConfig, CloudFunctions, PlatformConfig};
/// use rustwren_sim::Kernel;
/// use rustwren_store::ObjectStore;
/// use bytes::Bytes;
///
/// let kernel = Kernel::new();
/// let store = ObjectStore::new(&kernel);
/// let faas = CloudFunctions::new(&kernel, &store, PlatformConfig::default());
/// faas.register_action(
///     "double",
///     ActionConfig::default(),
///     |_ctx: &rustwren_faas::ActivationCtx, payload: Bytes| {
///         let n: u8 = payload[0];
///         Ok(Bytes::from(vec![n * 2]))
///     },
/// )?;
/// kernel.run("client", || {
///     let id = faas.invoke("double", Bytes::from_static(&[21])).unwrap();
///     let record = faas.wait(id);
///     assert_eq!(record.result.unwrap()[0], 42);
/// });
/// # Ok::<(), rustwren_faas::RegisterError>(())
/// ```
#[derive(Clone)]
pub struct CloudFunctions {
    inner: Arc<Inner>,
}

impl fmt::Debug for CloudFunctions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pool = self.inner.pool.lock();
        f.debug_struct("CloudFunctions")
            .field("inflight", &pool.inflight)
            .field("containers", &pool.total_containers)
            .field("concurrency_limit", &self.inner.config.concurrency_limit)
            .finish()
    }
}

impl CloudFunctions {
    /// Creates a platform over `kernel` whose functions can reach `store`.
    ///
    /// # Panics
    ///
    /// Panics if [`PlatformConfig::tenants`] is invalid; multi-tenant
    /// platforms should prefer [`CloudFunctions::try_new`], which rejects a
    /// degenerate tenant set as a typed [`FaasError`] instead.
    pub fn new(kernel: &Kernel, store: &ObjectStore, config: PlatformConfig) -> CloudFunctions {
        match CloudFunctions::try_new(kernel, store, config) {
            Ok(faas) => faas,
            // lint: allow(L004) — construction-time config error, not a
            // hot path; `try_new` is the non-panicking channel
            Err(e) => panic!("invalid platform config: {e}"),
        }
    }

    /// Creates a platform over `kernel`, validating the tenant set.
    ///
    /// # Errors
    ///
    /// [`FaasError::InvalidTenant`] for an empty namespace, zero quota,
    /// zero queue depth, zero/degenerate weights, or duplicate namespaces.
    pub fn try_new(
        kernel: &Kernel,
        store: &ObjectStore,
        config: PlatformConfig,
    ) -> Result<CloudFunctions, FaasError> {
        TenantConfig::validate_set(&config.tenants)?;
        let workers = config.workers.max(1);
        let tenants: BTreeMap<String, TenantState> = config
            .tenants
            .iter()
            .map(|t| (t.namespace.clone(), TenantState::new(t.clone())))
            .collect();
        Ok(CloudFunctions {
            inner: Arc::new(Inner {
                kernel: kernel.clone(),
                store: store.clone(),
                registry: DockerRegistry::new(),
                actions: Mutex::new(HashMap::new()),
                pool: Mutex::new(PoolState {
                    total_containers: 0,
                    rate: RateWindow::default(),
                    warm: HashMap::new(),
                    waiters: VecDeque::new(),
                    handoffs: HashMap::new(),
                    inflight: 0,
                    worker_rr: 0,
                    worker_images: vec![HashSet::new(); workers],
                    next_container_id: 0,
                    next_activation_id: 1,
                    stats: PlatformStats::default(),
                    tenants,
                    arrivals: HashMap::new(),
                    completions: HashMap::default(),
                }),
                records: Mutex::new(BTreeMap::new()),
                capacity_res: kernel.create_resource("capacity", "cluster-containers"),
                admission_res: kernel.create_resource("admission", "tenant-admission"),
                agent_ops: OpCounters::shared(),
                blob_cache_hits: AtomicU64::new(0),
                blob_cache_misses: AtomicU64::new(0),
                blob_cache_heals: AtomicU64::new(0),
                config,
            }),
        })
    }

    /// The Docker registry functions' runtimes are pulled from.
    pub fn registry(&self) -> &DockerRegistry {
        &self.inner.registry
    }

    /// The platform's configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.inner.config
    }

    /// The platform's limit metadata, for pre-flight job planners.
    pub fn limits(&self) -> PlatformLimits {
        self.inner.config.limits()
    }

    /// The kernel this platform runs on.
    pub fn kernel(&self) -> &Kernel {
        &self.inner.kernel
    }

    /// The object store functions can reach.
    pub fn store(&self) -> &ObjectStore {
        &self.inner.store
    }

    /// Aggregate counters.
    pub fn stats(&self) -> PlatformStats {
        let inner = &self.inner;
        PlatformStats {
            blob_cache_hits: inner.blob_cache_hits.load(Ordering::Relaxed),
            blob_cache_misses: inner.blob_cache_misses.load(Ordering::Relaxed),
            blob_cache_heals: inner.blob_cache_heals.load(Ordering::Relaxed),
            ..inner.pool.lock().stats
        }
    }

    /// Snapshot of the COS operations issued from inside activations (every
    /// client handed out by [`ActivationCtx::cos_client`] tallies here).
    pub fn agent_op_counts(&self) -> OpCounts {
        self.inner.agent_ops.snapshot()
    }

    /// Registers (deploys) an action under `name`. Its body may call
    /// anything — COS and FaaS clients, `ctx.charge`, user code that blocks
    /// — so the body of each activation is "ask for a thread, then call
    /// `action`": the activation queues, waits for capacity and boots as
    /// every activation does, without a stack, and gets its OS thread when
    /// `action` is about to run.
    ///
    /// # Errors
    ///
    /// [`RegisterError::UnknownRuntime`] if the configured runtime image is
    /// not in the registry; [`RegisterError::MemoryLimitExceeded`] if the
    /// memory request exceeds the platform limit.
    pub fn register_action<A>(
        &self,
        name: &str,
        config: ActionConfig,
        action: A,
    ) -> Result<(), RegisterError>
    where
        A: Action + 'static,
    {
        let action = Arc::new(action);
        self.register_resumable(name, config, move |ctx: ActivationCtx, payload: Bytes| {
            let action = Arc::clone(&action);
            async move {
                task::thread().await;
                // lint: allow(L008) — `action` may block, and may: the line
                // above has put the activation on an OS thread of its own,
                // where `LightScope`/`IN_LIGHT_STEP` no longer apply; guarded
                // by crates/faas/tests/vehicles.rs (every scenario drives one
                // body both ways) and kernel.rs
                // promoted_task_reproduces_the_all_thread_schedule
                action.invoke(&ctx, payload)
            }
        })
    }

    /// Registers (deploys) a *resumable* action under `name`: `start(ctx,
    /// payload)` is one activation's body, `async` code that suspends only
    /// by awaiting [`rustwren_sim::task`]'s leaves (directly, or through
    /// other resumable code such as the COS client's `*_async` operations).
    /// It is started once the activation has its container, and polled, not
    /// called: such activations run as lightweight tasks — no OS thread,
    /// unless and until the body awaits [`task::thread`] — on the same
    /// lifecycle and the same virtual timeline as a blocking action that
    /// charges the same time. A panic in the body is recorded as
    /// [`Outcome::Crashed`]; that includes the kernel's refusal of a
    /// blocking call (`ctx.charge`, a COS or FaaS client) made before it
    /// has asked for a thread.
    ///
    /// # Errors
    ///
    /// As [`register_action`](CloudFunctions::register_action).
    pub fn register_resumable<F, B>(
        &self,
        name: &str,
        config: ActionConfig,
        start: F,
    ) -> Result<(), RegisterError>
    where
        F: Fn(ActivationCtx, Bytes) -> B + Send + Sync + 'static,
        B: Future<Output = Result<Bytes, ActionError>> + Send + 'static,
    {
        let start = Box::new(move |ctx, payload| Box::pin(start(ctx, payload)) as Body);
        if !self.inner.registry.contains(&config.runtime) {
            return Err(RegisterError::UnknownRuntime(config.runtime.clone()));
        }
        if config.memory_mb > self.inner.config.memory_limit_mb {
            return Err(RegisterError::MemoryLimitExceeded {
                requested_mb: config.memory_mb,
                limit_mb: self.inner.config.memory_limit_mb,
            });
        }
        self.inner.actions.lock().insert(
            name.to_owned(),
            Arc::new(RegisteredAction { start, config }),
        );
        Ok(())
    }

    /// Whether an action is registered.
    pub fn has_action(&self, name: &str) -> bool {
        self.inner.actions.lock().contains_key(name)
    }

    /// Submits an invocation under the [`DEFAULT_NAMESPACE`]
    /// (platform-side; no client network cost — use [`FaasClient`] from
    /// simulated actors). Non-blocking: returns as soon as the activation
    /// is accepted and scheduled.
    ///
    /// # Errors
    ///
    /// [`InvokeError::ActionNotFound`], [`InvokeError::Throttled`], or —
    /// for tenants with a full admission queue — [`InvokeError::ShedLoad`].
    pub fn invoke(&self, action: &str, payload: Bytes) -> Result<ActivationId, InvokeError> {
        self.invoke_in(DEFAULT_NAMESPACE, action, payload)
    }

    /// Submits an invocation billed to `namespace`.
    ///
    /// A namespace with a [`TenantConfig`] goes through the tenant
    /// admission plane: its per-minute rate limit first, then either
    /// immediate admission (quota and global concurrency permitting), a
    /// bounded FIFO admission queue drained by weighted round-robin across
    /// tenants, or — queue full — load shedding. A namespace without a
    /// tenant config (including the default) sees the paper's single-tenant
    /// behaviour under the global limits only.
    ///
    /// # Errors
    ///
    /// [`InvokeError::ActionNotFound`], [`InvokeError::Throttled`] (with a
    /// deterministic `retry_after` hint), or [`InvokeError::ShedLoad`].
    pub fn invoke_in(
        &self,
        namespace: &str,
        action: &str,
        payload: Bytes,
    ) -> Result<ActivationId, InvokeError> {
        task::block_on(self.invoke_in_async(namespace, action, payload))
    }

    /// [`invoke_in`](CloudFunctions::invoke_in), resumable — the one
    /// admission body: it takes the platform locks as the lifecycle does
    /// ([`locked`]), so a fan-out lane can submit without a thread.
    ///
    /// # Errors
    ///
    /// As [`invoke_in`](CloudFunctions::invoke_in).
    pub async fn invoke_in_async(
        &self,
        namespace: &str,
        action: &str,
        payload: Bytes,
    ) -> Result<ActivationId, InvokeError> {
        let registered = locked(&self.inner.actions)
            .await
            .get(action)
            .cloned()
            .ok_or_else(|| InvokeError::ActionNotFound(action.to_owned()))?;

        let now = self.inner.kernel.now();
        let policy = self.effective_policy(namespace);
        let (id, gate, key, name, completion) = {
            let mut pool = locked(&self.inner.pool).await;
            let limit = self.inner.config.invocations_per_minute;
            if let Err(retry_after) = pool.rate.check(now, limit) {
                pool.stats.throttled += 1;
                return Err(InvokeError::Throttled {
                    limit: limit as usize,
                    retry_after,
                });
            }

            let global_inflight_ok = pool.inflight < self.inner.config.concurrency_limit;
            let gate = if let Some(t) = pool.tenants.get_mut(namespace) {
                // Tenant plane: rate limit, then admit / queue / shed.
                // The tenant borrow is scoped so the global pool fields can
                // be updated once the decision is known.
                let limit = t.cfg.invocations_per_minute;
                let decision = if let Err(retry_after) = t.rate.check(now, limit) {
                    t.stats.throttled += 1;
                    TenantAdmission::Throttle {
                        limit: limit as usize,
                        retry_after,
                    }
                } else if t.queue.is_empty()
                    && t.inflight < t.cfg.concurrency_quota
                    && global_inflight_ok
                {
                    t.inflight += 1;
                    t.stats.submitted += 1;
                    t.rate.record();
                    TenantAdmission::Admit
                } else if t.queue.len() < t.cfg.queue_depth {
                    t.stats.submitted += 1;
                    t.stats.queued += 1;
                    t.rate.record();
                    TenantAdmission::Queue
                } else {
                    // Shed requests are refused, so they cost no rate budget.
                    t.stats.shed += 1;
                    TenantAdmission::Shed(t.cfg.queue_depth)
                };
                match decision {
                    TenantAdmission::Throttle { limit, retry_after } => {
                        pool.stats.throttled += 1;
                        return Err(InvokeError::Throttled { limit, retry_after });
                    }
                    TenantAdmission::Shed(queue_depth) => {
                        pool.stats.shed += 1;
                        return Err(InvokeError::ShedLoad {
                            namespace: namespace.to_owned(),
                            queue_depth,
                        });
                    }
                    TenantAdmission::Admit => {
                        pool.inflight += 1;
                        None
                    }
                    TenantAdmission::Queue => {
                        pool.stats.queued += 1;
                        // The gate is pushed onto the queue below, once
                        // the activation id is allocated.
                        Some(Event::for_resource(
                            &self.inner.kernel,
                            &self.inner.admission_res,
                        ))
                    }
                }
            } else {
                // Single-tenant plane: the paper's global limits.
                if pool.inflight >= self.inner.config.concurrency_limit {
                    pool.stats.throttled += 1;
                    return Err(InvokeError::Throttled {
                        limit: self.inner.config.concurrency_limit,
                        retry_after: RETRY_AFTER_HINT,
                    });
                }
                pool.inflight += 1;
                None
            };

            pool.rate.record();
            pool.stats.submitted += 1;
            let id = ActivationId(pool.next_activation_id);
            pool.next_activation_id += 1;
            // The task's name is its completion event's label too.
            let name = activation_name(id);
            let completion = Event::named(&self.inner.kernel, Arc::clone(&name));
            pool.completions.insert(id, completion.clone());

            if let Some(gate) = &gate {
                if let Some(t) = pool.tenants.get_mut(namespace) {
                    t.queue.push_back(gate.clone());
                }
            }
            let key = PoolKey {
                tenant: TenantId::new(namespace),
                action: Arc::from(action),
            };

            // Feed the hybrid keep-alive histogram (arrivals of accepted
            // invocations only; shed and throttled requests carry no
            // demand signal the pool could act on).
            if let KeepAlivePolicy::HybridHistogram {
                bucket, buckets, ..
            } = &policy
            {
                pool.arrivals
                    .entry(key.clone())
                    .or_insert_with(|| ArrivalHistory::new(*buckets))
                    .record(now, *bucket);
            }
            (id, gate, key, name, completion)
        };

        locked(&self.inner.records).await.insert(
            id,
            ActivationRecord {
                id,
                action: key.action.to_string(),
                tenant: key.tenant.clone(),
                submitted: now,
                started: None,
                ended: None,
                phase: Phase::Submitted,
                cold_start: false,
                worker: None,
                result: None,
                logs: Vec::new(),
            },
        );

        // Every activation starts without a stack; one whose body blocks
        // asks for a thread when it gets there.
        self.inner.kernel.spawn_light(
            name,
            task::light(activation(
                self.clone(),
                id,
                key,
                registered,
                payload,
                gate,
                completion,
            )),
        );
        Ok(id)
    }

    /// Admits queued invocations while global concurrency and per-tenant
    /// quotas allow, picking tenants by smooth weighted round-robin
    /// (deterministic: namespace order breaks credit ties). Returns the
    /// admission gates to fire *after* the pool lock is released.
    fn dispatch_queued_locked(&self, pool: &mut PoolState) -> Vec<Event> {
        let mut fired = Vec::new();
        while pool.inflight < self.inner.config.concurrency_limit {
            let mut total_weight: i64 = 0;
            let mut best: Option<(i64, String)> = None;
            for (ns, t) in pool.tenants.iter_mut() {
                if t.queue.is_empty() || t.inflight >= t.cfg.concurrency_quota {
                    continue;
                }
                let w = i64::from(t.cfg.weight);
                total_weight += w;
                t.wrr_credit += w;
                // Strictly-greater keeps the first (lowest) namespace on
                // credit ties — deterministic because `tenants` is ordered.
                if best.as_ref().is_none_or(|(c, _)| t.wrr_credit > *c) {
                    best = Some((t.wrr_credit, ns.clone()));
                }
            }
            let Some((_, ns)) = best else { break };
            let Some(t) = pool.tenants.get_mut(&ns) else {
                break;
            };
            t.wrr_credit -= total_weight;
            let Some(gate) = t.queue.pop_front() else {
                break;
            };
            t.inflight += 1;
            pool.inflight += 1;
            fired.push(gate);
        }
        fired
    }

    /// The keep-alive policy in effect for `namespace`: the tenant's
    /// override, else the platform's.
    fn effective_policy(&self, namespace: &str) -> KeepAlivePolicy {
        let cfg = &self.inner.config;
        cfg.tenants
            .iter()
            .find(|t| t.namespace == namespace)
            .and_then(|t| t.keep_alive.clone())
            .unwrap_or_else(|| cfg.keep_alive.clone())
    }

    /// Per-tenant serving counters, including warm-pool seconds accrued by
    /// containers currently idling in the pool. Returns `None` for a
    /// namespace without a tenant config.
    pub fn tenant_stats(&self, namespace: &str) -> Option<TenantStats> {
        let now = self.inner.kernel.now();
        let pool = self.inner.pool.lock();
        let t = pool.tenants.get(namespace)?;
        let mut stats = t.stats;
        // lint: allow(L003) — summing f64 idle times is order-sensitive
        // only through float rounding; containers are per-key vectors and
        // each key contributes independently of map order… but to keep the
        // sum bit-stable we fold in (tenant, id) order.
        let mut live: Vec<(u64, f64)> = Vec::new();
        for v in pool.warm.values() {
            for c in v {
                if c.key.tenant.as_str() == namespace {
                    if let Some(since) = c.warmed_since {
                        live.push((c.id, now.duration_since(since).as_secs_f64()));
                    }
                }
            }
        }
        live.sort_by_key(|&(id, _)| id);
        for (_, secs) in live {
            stats.warm_pool_seconds += secs;
        }
        Some(stats)
    }

    /// The concurrency quota configured for `namespace`, if it is a tenant.
    pub fn tenant_quota(&self, namespace: &str) -> Option<usize> {
        self.inner
            .config
            .tenants
            .iter()
            .find(|t| t.namespace == namespace)
            .map(|t| t.concurrency_quota)
    }

    /// Configured tenant namespaces, in deterministic (sorted) order.
    pub fn tenant_namespaces(&self) -> Vec<String> {
        self.inner.pool.lock().tenants.keys().cloned().collect()
    }

    /// Current depth of a tenant's admission queue.
    pub fn queue_depth(&self, namespace: &str) -> Option<usize> {
        self.inner
            .pool
            .lock()
            .tenants
            .get(namespace)
            .map(|t| t.queue.len())
    }

    /// Blocks (in virtual time) until activation `id` completes and returns
    /// its final record.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never issued by this platform.
    pub fn wait(&self, id: ActivationId) -> ActivationRecord {
        match self.wait_checked(id) {
            Some(record) => record,
            // lint: allow(L009) — caller contract (documented # Panics); the
            // hot-path edge is a `.wait(` name over-approximation, activations
            // never call the client-side wait
            None => panic!("unknown activation {id}"),
        }
    }

    /// Like [`wait`](CloudFunctions::wait), but returns `None` for an id
    /// this platform never issued instead of panicking.
    pub fn wait_checked(&self, id: ActivationId) -> Option<ActivationRecord> {
        // A finished activation is out of the index; its record is final.
        let event = self.inner.pool.lock().completions.get(&id).cloned();
        if let Some(event) = event {
            event.wait();
        }
        self.record(id)
    }

    /// Snapshot of an activation's record, if the id is known.
    pub fn record(&self, id: ActivationId) -> Option<ActivationRecord> {
        self.inner.records.lock().get(&id).cloned()
    }

    /// Terminal outcome of an activation, if it has finished — a cheap,
    /// network-free query (frameworks use it to tell a task that died
    /// without reporting from one that is merely slow).
    pub fn outcome(&self, id: ActivationId) -> Option<Outcome> {
        match &self.inner.records.lock().get(&id)?.phase {
            Phase::Done(o) => Some(o.clone()),
            _ => None,
        }
    }

    /// All activation records, sorted by id (submission order).
    pub fn records(&self) -> Vec<ActivationRecord> {
        let mut v: Vec<_> = self.inner.records.lock().values().cloned().collect();
        v.sort_by_key(|r| r.id);
        v
    }

    /// Activation records of one action, sorted by id — the equivalent of
    /// `wsk activation list <action>`.
    pub fn activations_for(&self, action: &str) -> Vec<ActivationRecord> {
        let mut v: Vec<_> = self
            .inner
            .records
            .lock()
            .values()
            .filter(|r| r.action == action)
            .cloned()
            .collect();
        v.sort_by_key(|r| r.id);
        v
    }

    /// Aggregate statistics for one action's completed activations.
    pub fn action_stats(&self, action: &str) -> ActionStats {
        let records = self.inner.records.lock();
        let mut stats = ActionStats::default();
        let mut total_exec = Duration::ZERO;
        for r in records.values().filter(|r| r.action == action) {
            stats.invocations += 1;
            match &r.phase {
                Phase::Done(o) => {
                    if o.is_success() {
                        stats.successes += 1;
                    } else {
                        stats.failures += 1;
                    }
                    if let Some(d) = r.exec_duration() {
                        total_exec += d;
                    }
                }
                _ => stats.in_flight += 1,
            }
            if r.cold_start {
                stats.cold_starts += 1;
            }
        }
        let done = stats.successes + stats.failures;
        if done > 0 {
            stats.mean_exec = total_exec / done as u32;
        }
        stats
    }

    /// Sums billed GB-seconds over all completed activations: each is
    /// charged its configured memory for its execution duration, at
    /// sub-second granularity — the billing model the paper's introduction
    /// highlights.
    pub fn billing_report(&self) -> BillingReport {
        let actions = self.inner.actions.lock();
        let records = self.inner.records.lock();
        let mut report = BillingReport::default();
        for r in records.values() {
            let Some(exec) = r.exec_duration() else {
                continue;
            };
            let memory_gb = actions
                .get(&r.action)
                .map_or(0.25, |a| f64::from(a.config.memory_mb) / 1024.0);
            report.activations += 1;
            report.gb_seconds += memory_gb * exec.as_secs_f64();
        }
        report.estimated_usd = report.gb_seconds * PRICE_PER_GB_SECOND;
        report
    }

    fn append_log(&self, id: ActivationId, line: String) {
        if let Some(r) = self.inner.records.lock().get_mut(&id) {
            r.logs.push(line);
        }
    }

    /// Current number of accepted-but-unfinished activations.
    pub fn inflight(&self) -> usize {
        self.inner.pool.lock().inflight
    }

    /// Image size in bytes for `registered`'s runtime (0 if unknown), or
    /// `None` when a concurrent `docker push` holds the registry lock: a
    /// poll reschedules itself instead of parking there.
    fn image_bytes(&self, registered: &RegisteredAction) -> Option<u64> {
        let size = self
            .inner
            .registry
            .try_size_bytes(&registered.config.runtime)
            .ok()?;
        Some(size.unwrap_or(0))
    }

    /// How long pulling `bytes` of image takes a worker.
    fn pull_time(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 / PULL_BANDWIDTH as f64)
    }

    /// Starts a fresh container in capacity already claimed; also returns
    /// the image bytes its worker has to pull first, if any.
    fn make_container_locked(
        &self,
        pool: &mut PoolState,
        key: &PoolKey,
        registered: &RegisteredAction,
        image_bytes: u64,
        prewarm: bool,
    ) -> (Container, Option<u64>) {
        let cfg = &self.inner.config;
        let worker = pool.worker_rr % cfg.workers.max(1);
        pool.worker_rr += 1;
        let id = pool.next_container_id;
        pool.next_container_id += 1;
        if prewarm {
            pool.stats.prewarmed += 1;
            if let Some(t) = pool.tenants.get_mut(key.tenant.as_str()) {
                t.stats.prewarmed += 1;
            }
        } else {
            pool.stats.cold_starts += 1;
        }

        // (`worker` is `% cfg.workers`, so its image cache exists.)
        let runtime = &registered.config.runtime;
        let mut pull = None;
        if let Some(images) = pool.worker_images.get_mut(worker) {
            if !images.contains(runtime) {
                images.insert(runtime.clone());
                pool.stats.image_pulls += 1;
                pull = Some(image_bytes);
            }
        }

        let spread = cfg.speed_variation;
        let speed = 1.0 - spread + 2.0 * spread * unit_f64(hash2(cfg.seed, id ^ 0xC0F_FEE));
        let now = self.inner.kernel.now();
        (
            Container {
                id,
                key: key.clone(),
                worker,
                speed,
                last_used: now,
                // Read only in the warm pool, which it enters through
                // `release_locked` or `prewarm`; both set the real deadline.
                expires_at: now,
                warmed_since: None,
                cache: BlobCache::new(),
            },
            pull,
        )
    }

    /// Obtains activation `id` a container, however many attempts and
    /// capacity hand-offs that takes, and pays its image pull; returns it
    /// and whether it starts cold.
    async fn obtain_container(
        &self,
        id: ActivationId,
        key: &PoolKey,
        registered: &RegisteredAction,
    ) -> (Container, bool) {
        let inner = &self.inner;
        let mut admitted = false;
        loop {
            let attempt = {
                let mut pool = locked(&inner.pool).await;
                // The tenant table is fixed at construction, so looking the
                // namespace up in it is the one test of "does this
                // activation go through the tenant plane", here and below.
                if !admitted && pool.tenants.contains_key(key.tenant.as_str()) {
                    // Admitted: this activation now pins a tenant quota
                    // slot; queued invocations blocked on admission point
                    // here in wait-for graphs until it is released.
                    inner.kernel.hold_resource(&inner.admission_res);
                }
                admitted = true;
                self.attempt_locked(&mut pool, id, key, registered)
            };
            match attempt {
                Ok((container, cold, pull)) => {
                    if let Some(bytes) = pull {
                        task::sleep(self.pull_time(bytes)).await;
                    }
                    return (container, cold);
                }
                Err(park) => park.await,
            }
        }
    }

    /// One attempt, under the pool lock, to obtain activation `id` a
    /// container: what a releasing activation handed it, else warm reuse,
    /// fresh allocation, LRU eviction or — the cluster being full of busy
    /// containers — a place in the capacity queue.
    fn attempt_locked(
        &self,
        pool: &mut PoolState,
        id: ActivationId,
        key: &PoolKey,
        registered: &RegisteredAction,
    ) -> Attempt {
        let inner = &self.inner;
        // Owning a container pins cluster capacity in wait-for graphs.
        let own = |container, cold, pull| {
            inner.kernel.hold_resource(&inner.capacity_res);
            Ok((container, cold, pull))
        };
        match pool.handoffs.remove(&id) {
            Some(Handoff::Warm(container)) => {
                pool.stats.warm_starts += 1;
                return own(container, false, None);
            }
            // Capacity stays reserved: the granter destroyed its container
            // without decrementing the total.
            Some(Handoff::Capacity) => {
                let Some(image_bytes) = self.image_bytes(registered) else {
                    pool.handoffs.insert(id, Handoff::Capacity);
                    return Err(task::sleep(LOCK_RETRY));
                };
                let (container, pull) =
                    self.make_container_locked(pool, key, registered, image_bytes, false);
                return own(container, true, pull);
            }
            // Not a woken waiter (or woken with nothing left for it): take
            // a turn like everyone else.
            None => {}
        }
        let now = inner.kernel.now();
        CloudFunctions::expire_idle_locked(pool, now);

        // Chaos cold-start storms bypass the warm pool: the warm
        // container stays idle (it may still expire) while the
        // activation pays the full cold-start path.
        let storm = inner.kernel.chaos().filter(|c| c.cold_storm_active());
        let bypass = storm.filter(|_| pool.warm.get(key).is_some_and(|v| !v.is_empty()));
        if bypass.is_none() {
            if let Some(mut c) = pool.warm.get_mut(key).and_then(Vec::pop) {
                CloudFunctions::credit_warm_time_locked(pool, &c, now);
                c.warmed_since = None;
                pool.stats.warm_starts += 1;
                return own(c, false, None);
            }
        }

        // A fresh container it is. Its image size is the one thing that can
        // send this attempt back, so it is resolved before anything counts.
        let Some(image_bytes) = self.image_bytes(registered) else {
            return Err(task::sleep(LOCK_RETRY));
        };
        if let Some(chaos) = bypass {
            chaos.record_forced_cold(&key.action);
        }
        let has_capacity = pool.total_containers < inner.config.cluster_containers
            || CloudFunctions::evict_lru_locked(pool, now);
        if has_capacity {
            pool.total_containers += 1;
            let (container, pull) =
                self.make_container_locked(pool, key, registered, image_bytes, false);
            return own(container, true, pull);
        }

        // Cluster is full of busy containers: wait for a handoff. The wait
        // is attributed to the shared capacity resource, so a wedged
        // cluster shows *which* activations hold containers.
        let event = Event::for_resource(&inner.kernel, &inner.capacity_res);
        let park = task::wait(&event);
        pool.waiters.push_back(CapacityWaiter {
            id,
            key: key.clone(),
            event,
        });
        Err(park)
    }

    /// Returns an activation's container, under the pool lock: to a
    /// capacity waiter if there is one, else wherever the keep-alive policy
    /// says.
    fn release_locked(&self, pool: &mut PoolState, mut container: Container) -> Released {
        let now = self.inner.kernel.now();
        container.last_used = now;
        // Prefer a waiter for the same tenant+action (warm handoff), then
        // any waiter (destroy this container, grant its capacity)…
        let same_key = pool.waiters.iter().position(|w| w.key == container.key);
        if let Some(w) = same_key.and_then(|idx| pool.waiters.remove(idx)) {
            pool.handoffs.insert(w.id, Handoff::Warm(container));
            return Released::Wake(w.event);
        }
        if let Some(w) = pool.waiters.pop_front() {
            pool.handoffs.insert(w.id, Handoff::Capacity);
            return Released::Wake(w.event);
        }
        // …otherwise ask the keep-alive policy.
        let policy = self.effective_policy(container.key.tenant.as_str());
        let history = pool.arrivals.get(&container.key);
        let decision = history.map_or(KeepDecision::KeepUntil(now + self.idle_ttl(&policy)), |h| {
            h.decide(&policy, now)
        });
        match decision {
            KeepDecision::KeepUntil(until) => {
                container.expires_at = until;
                container.warmed_since = Some(now);
                pool.warm
                    .entry(container.key.clone())
                    .or_default()
                    .push(container);
                Released::Settled
            }
            // Destroy immediately: the predicted gap to the next arrival
            // makes idling more expensive than a prewarm.
            KeepDecision::Release { prewarm } => {
                let generation = history.map_or(0, |h| h.generation);
                pool.total_containers -= 1;
                match prewarm {
                    Some((at, until)) => Released::Prewarm {
                        key: container.key,
                        at,
                        until,
                        generation,
                    },
                    None => Released::Settled,
                }
            }
        }
    }

    /// The fixed idle TTL equivalent of `policy`, for containers with no
    /// arrival history yet.
    fn idle_ttl(&self, policy: &KeepAlivePolicy) -> Duration {
        match policy {
            KeepAlivePolicy::FixedTtl { ttl } => *ttl,
            KeepAlivePolicy::HybridHistogram { fallback_ttl, .. } => *fallback_ttl,
        }
    }

    /// Schedules a [`prewarm`] of `key`'s pool just before the predicted
    /// next arrival, as a lightweight task.
    fn schedule_prewarm(&self, key: PoolKey, at: SimInstant, until: SimInstant, generation: u64) {
        let now = self.inner.kernel.now();
        if at <= now || until <= at {
            return;
        }
        let delay = at.duration_since(now);
        self.inner.kernel.spawn_light(
            format!("prewarm-{key}-{generation}"),
            task::light(prewarm(self.clone(), key, delay, until, generation)),
        );
    }

    /// Admission half of a prewarm: re-validates the prediction and, if it
    /// still stands, claims cluster capacity and builds the container (to
    /// be started after pulling the returned image bytes, if any). `None`:
    /// the prediction no longer stands, the pool is already warm, or the
    /// cluster is full — abandon the prewarm.
    async fn prewarm_admit(
        &self,
        key: &PoolKey,
        generation: u64,
    ) -> Option<(Container, Option<u64>)> {
        let inner = &self.inner;
        let registered = locked(&inner.actions).await.get(&*key.action).cloned()?;
        let image_bytes = loop {
            match self.image_bytes(&registered) {
                Some(bytes) => break bytes,
                None => task::sleep(LOCK_RETRY).await,
            }
        };
        let mut pool = locked(&inner.pool).await;
        let now = inner.kernel.now();
        let fresh = pool
            .arrivals
            .get(key)
            .is_some_and(|h| h.generation == generation);
        if !fresh {
            return None; // a newer arrival re-predicted
        }
        // Reclamation is lazy, so reap before the warm check: a corpse
        // whose keep-alive window already closed must not stand the
        // prewarm down.
        Self::expire_idle_locked(&mut pool, now);
        if pool.warm.get(key).is_some_and(|v| !v.is_empty()) {
            return None; // already warm
        }
        if pool.total_containers >= inner.config.cluster_containers {
            return None; // best-effort: never evict
        }
        pool.total_containers += 1;
        Some(self.make_container_locked(&mut pool, key, &registered, image_bytes, true))
    }

    /// Credits `container`'s warm-pool idle time (from `warmed_since` to
    /// `until`) to its tenant's accounting.
    fn credit_warm_time_locked(pool: &mut PoolState, container: &Container, until: SimInstant) {
        if let Some(since) = container.warmed_since {
            if let Some(t) = pool.tenants.get_mut(container.key.tenant.as_str()) {
                t.stats.warm_pool_seconds += until.duration_since(since).as_secs_f64();
            }
        }
    }

    fn expire_idle_locked(pool: &mut PoolState, now: SimInstant) {
        // Two passes keep the borrows disjoint: collect expired idle time
        // per tenant, then credit it.
        let mut credits: BTreeMap<String, f64> = BTreeMap::new();
        let mut reclaimed = 0;
        // lint: allow(L003) — retain + count is order-insensitive, and the
        // per-tenant credit sums accumulate via an ordered BTreeMap
        for v in pool.warm.values_mut() {
            let before = v.len();
            v.retain(|c| {
                if c.expires_at > now {
                    return true;
                }
                if let Some(since) = c.warmed_since {
                    // The policy intended the container to die at
                    // `expires_at`; reclamation is lazy, so bill the idle
                    // time the policy chose, not the scan instant.
                    *credits.entry(c.key.tenant.as_str().to_owned()).or_default() +=
                        c.expires_at.duration_since(since).as_secs_f64();
                }
                false
            });
            reclaimed += before - v.len();
        }
        pool.total_containers -= reclaimed;
        for (ns, secs) in credits {
            if let Some(t) = pool.tenants.get_mut(&ns) {
                t.stats.warm_pool_seconds += secs;
            }
        }
    }

    /// Destroys the least-recently-used idle container to make room.
    /// Returns whether one was evicted (leaving `total_containers`
    /// decremented, i.e. one slot free).
    fn evict_lru_locked(pool: &mut PoolState, now: SimInstant) -> bool {
        // Tie-break equal `last_used` on container id: `warm` is a HashMap,
        // and its iteration order must never leak into which container dies
        // (determinism, see the sim kernel's serialization contract).
        let mut oldest: Option<(&PoolKey, usize, SimInstant, u64)> = None;
        // lint: allow(L003) — the (last_used, id) tie-break above makes the
        // selection independent of iteration order
        for (key, v) in &pool.warm {
            for (i, c) in v.iter().enumerate() {
                if oldest.is_none_or(|(_, _, t, id)| (c.last_used, c.id) < (t, id)) {
                    oldest = Some((key, i, c.last_used, c.id));
                }
            }
        }
        if let Some((key, idx, ..)) = oldest.map(|(k, i, t, id)| (k.clone(), i, t, id)) {
            if let Some(v) = pool.warm.get_mut(&key) {
                if idx < v.len() {
                    let c = v.remove(idx);
                    Self::credit_warm_time_locked(pool, &c, now);
                    pool.total_containers -= 1;
                    return true;
                }
            }
        }
        false
    }
}

/// One activation from admission to completion: the single lifecycle every
/// invocation runs, read top to bottom. It performs the same kernel
/// operations in the same order whichever vehicle polls it — a light task
/// until its body asks for a thread, that thread from then on — so virtual
/// timelines do not depend on the vehicle. Platform locks are only ever
/// taken through [`locked`]: a poll never parks on one.
// lint: allow(L008) — false positives of name-based dispatch: the pool's
// std-map `.get` and the kernel's own `RawMutex::lock` (under `Kernel::now`)
// resolve onto CosClient::get (and through it Event::wait) and the shim's
// Mutex::lock. Every platform lock here is taken through
// `locked`, a try_lock that retries via `task::sleep`, and the guard cannot
// be held across an `.await` (it is not `Send`); the body is rooted where it
// is registered. Guarded by
// lifecycle_reschedules_its_poll_on_a_contended_platform_lock and tests/verify.rs
// serving_burst_conserves_activations_under_every_schedule
// lint: entry(hot_path)
// lint: entry(sim_path)
async fn activation(
    platform: CloudFunctions,
    id: ActivationId,
    key: PoolKey,
    registered: Arc<RegisteredAction>,
    payload: Bytes,
    gate: Option<Event>,
    completion: Event,
) {
    let inner = &*platform.inner;
    let cfg = &inner.config;
    // This activation is the one that will fire the completion event;
    // record it so waiter→activation edges appear in deadlock reports.
    completion.mark_holder();
    // Queued invocations park here until the weighted round-robin
    // dispatcher admits them.
    if let Some(gate) = gate {
        task::wait(&gate).await;
    }

    let (container, cold) = platform.obtain_container(id, &key, &registered).await;
    task::sleep(if cold { cfg.cold_start } else { WARM_START }).await;

    let started = {
        let mut records = locked(&inner.records).await;
        let started = inner.kernel.now();
        if let Some(r) = records.get_mut(&id) {
            r.started = Some(started);
            r.cold_start = cold;
            r.worker = Some(container.worker);
            r.phase = Phase::Running;
        }
        started
    };
    {
        let mut pool = locked(&inner.pool).await;
        if let Some(t) = pool.tenants.get_mut(key.tenant.as_str()) {
            if cold {
                t.stats.cold_starts += 1;
            } else {
                t.stats.warm_starts += 1;
            }
        }
    }

    let deadline = started + registered.config.timeout.min(cfg.max_exec_time);
    let ctx = ActivationCtx {
        platform: platform.clone(),
        id,
        tenant: key.tenant.clone(),
        action: Arc::clone(&key.action),
        speed: container.speed,
        started,
        deadline,
        worker: container.worker,
        cache: container.cache.clone(),
    };
    // The body: started and polled under `catch_unwind`, it parks wherever
    // it awaits, and everything a blocking action calls runs on top of this
    // poll — on as many thread stacks as there are concurrent activations.
    let body = pin!(async { (registered.start)(ctx, payload).await });
    let result = task::catch_unwind(body).await;
    let ended = inner.kernel.now();
    let (outcome, result) = match result {
        Ok(Ok(bytes)) if ended <= deadline => (Outcome::Success, Some(bytes)),
        Ok(Ok(_)) => (Outcome::TimedOut, None),
        Ok(Err(_)) if ended > deadline => (Outcome::TimedOut, None),
        Ok(Err(e)) => (Outcome::Failed(e.0), None),
        Err(p) => (Outcome::Crashed(panic_message(&p)), None),
    };
    let timed_out = matches!(outcome, Outcome::TimedOut);
    {
        let mut records = locked(&inner.records).await;
        if let Some(r) = records.get_mut(&id) {
            r.ended = Some(ended);
            r.result = result;
            r.phase = Phase::Done(outcome);
        }
    }

    let released = {
        let mut pool = locked(&inner.pool).await;
        platform.release_locked(&mut pool, container)
    };
    match released {
        Released::Wake(waiter) => waiter.fire(),
        Released::Prewarm {
            key,
            at,
            until,
            generation,
        } => platform.schedule_prewarm(key, at, until, generation),
        Released::Settled => {}
    }
    inner.kernel.release_resource(&inner.capacity_res);

    let gates = {
        let mut pool = locked(&inner.pool).await;
        pool.inflight -= 1;
        pool.stats.completed += 1;
        if timed_out {
            pool.stats.timeouts += 1;
        }
        if let Some(t) = pool.tenants.get_mut(key.tenant.as_str()) {
            t.inflight -= 1;
            t.stats.completed += 1;
            inner.kernel.release_resource(&inner.admission_res);
        }
        pool.completions.remove(&id);
        // A concurrency slot (and possibly a quota slot) just freed: admit
        // queued work before anyone observes the completion.
        platform.dispatch_queued_locked(&mut pool)
    };
    for gate in gates {
        gate.fire();
    }
    completion.fire();
}

/// The prewarm pipeline: starts a warm container for `key`'s pool `delay`
/// from now, just before the predicted next arrival, to idle there until
/// `until`. Best-effort: abandoned if newer arrivals supersede the
/// prediction (`generation`), a warm container already exists, or the
/// cluster is full.
// lint: allow(L008) — false positives of name-based dispatch, as on
// `activation`: std-map `.get` lookups resolve onto CosClient::get, the
// kernel's `RawMutex::lock` onto the shim's, and the registry's
// `try_size_bytes` sits beside a `push` this never calls; every lock here
// is `locked` or try_read. Guarded by
// prewarm_backs_off_on_contended_platform_locks
async fn prewarm(
    platform: CloudFunctions,
    key: PoolKey,
    delay: Duration,
    until: SimInstant,
    generation: u64,
) {
    let inner = &*platform.inner;
    task::sleep(delay).await;
    let Some((mut container, pull)) = platform.prewarm_admit(&key, generation).await else {
        return;
    };
    // Pay the image pull and cold start on the prewarm timer's dime — the
    // whole point is that no activation waits for them.
    if let Some(bytes) = pull {
        task::sleep(platform.pull_time(bytes)).await;
    }
    task::sleep(inner.config.cold_start).await;
    let mut pool = locked(&inner.pool).await;
    let now = inner.kernel.now();
    if until <= now {
        // The keep-alive window closed while the container started.
        pool.total_containers -= 1;
        return;
    }
    container.last_used = now;
    container.expires_at = until;
    container.warmed_since = Some(now);
    pool.warm.entry(key).or_default().push(container);
}

fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_owned()
    }
}

/// Execution context handed to an [`Action`]: the function's view of the
/// cloud from inside its container. Cloneable so frameworks can embed it in
/// their own task contexts.
#[derive(Clone)]
pub struct ActivationCtx {
    platform: CloudFunctions,
    id: ActivationId,
    action: Arc<str>,
    tenant: TenantId,
    speed: f64,
    started: SimInstant,
    deadline: SimInstant,
    worker: usize,
    cache: BlobCache,
}

impl fmt::Debug for ActivationCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActivationCtx")
            .field("id", &self.id)
            .field("action", &self.action)
            .field("worker", &self.worker)
            .field("speed", &self.speed)
            .finish()
    }
}

impl ActivationCtx {
    /// This activation's id.
    pub fn activation_id(&self) -> ActivationId {
        self.id
    }

    /// The tenant (namespace) this activation was invoked under.
    pub fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    /// Index of the worker host running this container.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Current virtual time.
    pub fn now(&self) -> SimInstant {
        self.platform.inner.kernel.now()
    }

    /// When this activation started executing.
    pub fn started(&self) -> SimInstant {
        self.started
    }

    /// Time left before the execution limit fires.
    pub fn remaining(&self) -> Duration {
        self.deadline.duration_since(self.now())
    }

    /// How long `d` of modeled CPU work takes on this container: `d`
    /// scaled by its speed factor (slower containers take proportionally
    /// longer — the Fig 3 variability). What a resumable body awaits
    /// [`task::sleep`] for to charge `d`.
    pub fn scaled(&self, d: Duration) -> Duration {
        d.div_f64(self.speed)
    }

    /// Charges `d` of modeled CPU work by sleeping for
    /// [`scaled`](ActivationCtx::scaled)`(d)`. Blocks, so only a blocking
    /// action may call it.
    pub fn charge(&self, d: Duration) {
        rustwren_sim::sleep(self.scaled(d));
    }

    /// Appends a line to this activation's log (OpenWhisk captures stdout
    /// into the activation record), stamped with the virtual time.
    pub fn log(&self, message: impl AsRef<str>) {
        let line = format!("[{}] {}", self.now(), message.as_ref());
        self.platform.append_log(self.id, line);
    }

    /// This container's local blob cache. Entries persist across warm
    /// reuses of the container and disappear with it (eviction, idle
    /// expiry, cold start) — consumers must validate entries on hit.
    pub fn blob_cache(&self) -> &BlobCache {
        &self.cache
    }

    /// Records a blob-cache lookup in [`PlatformStats`].
    pub fn note_blob_cache(&self, hit: bool) {
        let inner = &self.platform.inner;
        let count = if hit {
            &inner.blob_cache_hits
        } else {
            &inner.blob_cache_misses
        };
        count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a cache entry that failed validation on hit and was healed
    /// by a refetch from storage.
    pub fn note_blob_cache_heal(&self) {
        let heals = &self.platform.inner.blob_cache_heals;
        heals.fetch_add(1, Ordering::Relaxed);
    }

    /// A COS client over the in-cloud network, seeded per-activation. All
    /// its operations tally into the platform's agent-phase counters
    /// ([`CloudFunctions::agent_op_counts`]).
    pub fn cos_client(&self) -> CosClient {
        CosClient::new(
            &self.platform.inner.store,
            self.platform.inner.config.internal_net.clone(),
            hash2(self.platform.inner.config.seed, self.id.0),
        )
        .with_counters(Arc::clone(&self.platform.inner.agent_ops))
    }

    /// A Cloud Functions client over the in-cloud network — the
    /// composability hook: actions use this to spawn further functions.
    pub fn faas_client(&self) -> FaasClient {
        FaasClient::new(
            &self.platform,
            self.platform.inner.config.internal_net.clone(),
            hash2(self.platform.inner.config.seed, self.id.0 ^ 0xFAA5),
        )
        .with_namespace(self.tenant.clone())
    }

    /// The platform running this activation.
    pub fn platform(&self) -> &CloudFunctions {
        &self.platform
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rustwren_sim::LightStep;
    use std::ops::ControlFlow;

    fn setup(config: PlatformConfig) -> (Kernel, CloudFunctions) {
        let kernel = Kernel::new();
        let store = ObjectStore::new(&kernel);
        let faas = CloudFunctions::new(&kernel, &store, config);
        (kernel, faas)
    }

    fn echo_action() -> impl Action {
        |_ctx: &ActivationCtx, payload: Bytes| Ok(payload)
    }

    #[test]
    fn rate_window_checks_without_consuming_and_rolls_at_60s() {
        let at = |s: u64| SimInstant::ZERO + Duration::from_secs(s);
        let just_before_60 = SimInstant::from_nanos(60_000_000_000 - 1);
        let mut w = RateWindow::default();
        // `check` consumes nothing: only `record` spends budget.
        for _ in 0..5 {
            assert_eq!(w.check(at(10), 1), Ok(()));
        }
        w.record();
        // Full: `retry_after` is the remainder of the window opened at t=0.
        assert_eq!(w.check(at(10), 1), Err(Duration::from_secs(50)));
        assert_eq!(w.check(just_before_60, 1), Err(Duration::from_nanos(1)));
        // Rolls at exactly 60 s; the new window starts at the roll instant.
        assert_eq!(w.check(at(60), 1), Ok(()));
        w.record();
        assert_eq!(w.check(at(90), 1), Err(Duration::from_secs(30)));
    }

    /// The sleep `step`, one poll of resumable code driven by hand, asked
    /// for.
    fn slept<T: fmt::Debug>(step: ControlFlow<T, LightStep>) -> Duration {
        match step {
            ControlFlow::Continue(LightStep::Sleep(d)) => d,
            other => panic!("expected a sleep, got {other:?}"),
        }
    }

    #[test]
    fn prewarm_backs_off_on_contended_platform_locks() {
        // A prewarm runs as a light task on a borrowed stack: parking
        // there aborts the simulation (lint rule L008). Polled by hand,
        // one poll at a time, each one that finds a platform lock held
        // must ask for a `LOCK_RETRY` sleep instead of blocking, and lose
        // or double-count nothing for it.
        let (kernel, faas) = setup(PlatformConfig::default());
        faas.register_action("echo", ActionConfig::default(), echo_action())
            .unwrap();
        let key = PoolKey {
            tenant: TenantId::new("ns"),
            action: Arc::from("echo"),
        };
        kernel.run("client", || {
            let inner = &faas.inner;
            // A fresh prediction, so that admission claims capacity.
            let mut pool = inner.pool.lock();
            pool.arrivals.insert(key.clone(), ArrivalHistory::new(4));
            drop(pool);
            let delay = Duration::from_secs(1);
            let until = SimInstant::ZERO + Duration::from_secs(60);
            let mut prewarm = pin!(prewarm(faas.clone(), key.clone(), delay, until, 0));
            let mut poll = || task::resume(prewarm.as_mut());
            assert_eq!(slept(poll()), delay);

            let actions = inner.actions.lock();
            assert_eq!(slept(poll()), LOCK_RETRY);
            drop(actions);
            let pool = inner.pool.lock();
            assert_eq!(slept(poll()), LOCK_RETRY);
            assert_eq!(pool.total_containers, 0);
            drop(pool);

            // Admitted: the image pull, then the cold start…
            assert_eq!(slept(poll()), faas.pull_time(340 * 1024 * 1024));
            assert_eq!(inner.pool.lock().total_containers, 1);
            assert_eq!(slept(poll()), inner.config.cold_start);
            // …and a contended install keeps the container for a later poll.
            let pool = inner.pool.lock();
            assert_eq!(slept(poll()), LOCK_RETRY);
            assert!(pool.warm.is_empty());
            drop(pool);
            assert!(poll().is_break());
            let pool = inner.pool.lock();
            assert_eq!(pool.warm.get(&key).map(Vec::len), Some(1));
            assert_eq!((pool.total_containers, pool.stats.prewarmed), (1, 1));
        });
    }

    /// A resumable body that charges `millis` and echoes its payload.
    fn register_charging(faas: &CloudFunctions, name: &str, millis: u64) {
        let body = move |ctx: ActivationCtx, p: Bytes| async move {
            task::sleep(ctx.scaled(Duration::from_millis(millis))).await;
            Ok(p)
        };
        faas.register_resumable(name, ActionConfig::default(), body)
            .unwrap();
    }

    #[test]
    fn lifecycle_reschedules_its_poll_on_a_contended_platform_lock() {
        // An activation runs as a light task on a borrowed stack: parking
        // there would wedge the dispatcher. Nothing in the tree sleeps
        // holding a platform lock, so this test's client does, across each
        // region of the lifecycle in turn: the region that finds its lock
        // taken must back off `LOCK_RETRY` at a time and carry on, unharmed,
        // once it is free.
        let run = |hog: Option<(bool, Duration, Duration)>| {
            let (kernel, faas) = setup(PlatformConfig {
                speed_variation: 0.0,
                ..PlatformConfig::default()
            });
            register_charging(&faas, "serve", 1_000);
            let record = kernel.run("client", || {
                let id = faas.invoke("serve", Bytes::from_static(b"x")).unwrap();
                if let Some((hog_records, from, to)) = hog {
                    rustwren_sim::sleep(from);
                    let _records = hog_records.then(|| faas.inner.records.lock());
                    let _pool = (!hog_records).then(|| faas.inner.pool.lock());
                    rustwren_sim::sleep(to - from);
                }
                faas.wait(id)
            });
            assert!(record.is_success(), "{:?}", record.phase);
            assert_eq!(record.result.as_deref(), Some(&b"x"[..]));
            assert_eq!(faas.inflight(), 0);
            let completed = kernel.now().duration_since(record.submitted);
            (record, completed, kernel.stats().light_polls)
        };
        let (clean, clean_completed, clean_polls) = run(None);
        let since_submit = |t: Option<SimInstant>| t.unwrap().duration_since(clean.submitted);
        let (started, ended) = (since_submit(clean.started), since_submit(clean.ended));
        assert_eq!(clean_completed, ended);
        // The lock each region takes, and how long after the invocation the
        // activation reaches it (`finish` takes the pool right behind
        // `release`, in the same poll).
        let regions = [
            ("obtain", false, Duration::ZERO),
            ("started", true, started),
            ("running", false, started),
            ("ended", true, ended),
            ("release", false, ended),
        ];
        for (region, hog_records, reached) in regions {
            let from = reached.saturating_sub(Duration::from_millis(500));
            let to = reached + Duration::from_secs(1);
            let (record, completed, polls) = run(Some((hog_records, from, to)));
            // The completion is late by what the hog cost the region, to
            // within the back-off.
            let late = completed - clean_completed;
            assert!(late >= Duration::from_secs(1), "{region}: {late:?}");
            assert!(
                late < Duration::from_secs(1) + 2 * LOCK_RETRY,
                "{region}: {late:?}"
            );
            assert!(polls > clean_polls + 1_000, "{region}: it kept polling");
            assert_eq!(record.cold_start, clean.cold_start);
        }
    }

    #[test]
    fn capacity_handoff_waits_out_a_registry_push_and_conserves_containers() {
        // One container's worth of cluster: `b` queues for capacity behind
        // `a`, and is woken with `a`'s capacity while the registry is
        // mid-push, so it cannot size the image of the container it was
        // just granted. It must put the hand-off back and retry, not lose
        // the capacity or claim it twice.
        let (kernel, faas) = setup(PlatformConfig {
            cluster_containers: 1,
            speed_variation: 0.0,
            ..PlatformConfig::default()
        });
        register_charging(&faas, "a", 1_000);
        register_charging(&faas, "b", 1_000);
        kernel.run("client", || {
            let inner = &faas.inner;
            let a = faas.invoke("a", Bytes::new()).unwrap();
            let b = faas.invoke("b", Bytes::new()).unwrap();
            rustwren_sim::sleep(Duration::from_secs(3));
            assert_eq!(inner.pool.lock().waiters.len(), 1, "b queued for capacity");
            let push = inner.registry.pushing();
            let released = faas.wait(a).ended.unwrap();
            rustwren_sim::sleep(Duration::from_secs(1));
            let pool = inner.pool.lock();
            assert!(matches!(pool.handoffs.get(&b), Some(Handoff::Capacity)));
            assert_eq!(pool.total_containers, 1, "a's capacity, still reserved");
            drop(pool);
            let polls = kernel.stats().light_polls;
            assert!(polls > 1_000, "it kept polling");
            drop(push);
            let pushed = rustwren_sim::now();

            let record = faas.wait(b);
            assert!(record.is_success() && record.cold_start);
            let boot = faas.pull_time(340 * 1024 * 1024) + inner.config.cold_start;
            let started = record.started.unwrap();
            assert!(released < pushed && started >= pushed + boot);
            assert!(started < pushed + boot + 2 * LOCK_RETRY);
            let pool = inner.pool.lock();
            assert_eq!(pool.total_containers, 1);
            assert!(pool.handoffs.is_empty() && pool.waiters.is_empty());
            assert_eq!((pool.inflight, pool.stats.cold_starts), (0, 2));
        });
    }

    #[test]
    fn invoke_unknown_action_errors() {
        let (kernel, faas) = setup(PlatformConfig::default());
        kernel.run("client", || {
            assert_eq!(
                faas.invoke("missing", Bytes::new()),
                Err(InvokeError::ActionNotFound("missing".into()))
            );
        });
    }

    #[test]
    fn register_with_unknown_runtime_errors() {
        let (_kernel, faas) = setup(PlatformConfig::default());
        let err = faas
            .register_action("f", ActionConfig::with_runtime("ghost:1"), echo_action())
            .unwrap_err();
        assert_eq!(err, RegisterError::UnknownRuntime("ghost:1".into()));
    }

    #[test]
    fn register_over_memory_limit_errors() {
        let (_kernel, faas) = setup(PlatformConfig::default());
        let err = faas
            .register_action("f", ActionConfig::default().memory_mb(4096), echo_action())
            .unwrap_err();
        assert!(matches!(err, RegisterError::MemoryLimitExceeded { .. }));
    }

    #[test]
    fn echo_roundtrip_with_cold_start_timing() {
        let (kernel, faas) = setup(PlatformConfig::default());
        faas.register_action("echo", ActionConfig::default(), echo_action())
            .unwrap();
        kernel.run("client", || {
            let id = faas.invoke("echo", Bytes::from_static(b"ping")).unwrap();
            let r = faas.wait(id);
            assert!(r.is_success());
            assert_eq!(r.result.unwrap().as_ref(), b"ping");
            assert!(r.cold_start);
            // Cold start + image pull happened before execution.
            let cfg = faas.config();
            let pull = Duration::from_secs_f64(340.0 * 1024.0 * 1024.0 / PULL_BANDWIDTH as f64);
            assert_eq!(
                r.started.unwrap().duration_since(r.submitted),
                pull + cfg.cold_start
            );
        });
    }

    #[test]
    fn second_invocation_reuses_warm_container() {
        let (kernel, faas) = setup(PlatformConfig::default());
        faas.register_action("echo", ActionConfig::default(), echo_action())
            .unwrap();
        kernel.run("client", || {
            let id1 = faas.invoke("echo", Bytes::new()).unwrap();
            faas.wait(id1);
            let id2 = faas.invoke("echo", Bytes::new()).unwrap();
            let r2 = faas.wait(id2);
            assert!(!r2.cold_start);
        });
        assert_eq!(faas.stats().cold_starts, 1);
        assert_eq!(faas.stats().warm_starts, 1);
        assert_eq!(faas.stats().image_pulls, 1);
    }

    #[test]
    fn cold_storm_bypasses_warm_pool() {
        use rustwren_sim::chaos::{ChaosEngine, FaultPlan, TimeWindow};
        use std::sync::Arc;

        let (kernel, faas) = setup(PlatformConfig::default());
        kernel.install_chaos(Arc::new(ChaosEngine::new(
            FaultPlan::new(7).cold_storm(TimeWindow::starting_at(Duration::from_secs(60))),
        )));
        faas.register_action("echo", ActionConfig::default(), echo_action())
            .unwrap();
        let chaos = kernel.chaos().unwrap();
        kernel.run("client", || {
            let id1 = faas.invoke("echo", Bytes::new()).unwrap();
            faas.wait(id1);
            // Outside the storm window a warm start is still possible.
            let id2 = faas.invoke("echo", Bytes::new()).unwrap();
            assert!(!faas.wait(id2).cold_start);
            rustwren_sim::sleep(Duration::from_secs(60));
            // Inside the window the warm container is bypassed.
            let id3 = faas.invoke("echo", Bytes::new()).unwrap();
            assert!(faas.wait(id3).cold_start);
        });
        assert_eq!(chaos.stats().forced_cold_starts, 1);
        assert_eq!(faas.stats().cold_starts, 2);
        assert_eq!(faas.stats().warm_starts, 1);
    }

    #[test]
    fn blob_cache_survives_warm_reuse_and_dies_with_container() {
        let (kernel, faas) = setup(PlatformConfig {
            keep_alive: KeepAlivePolicy::fixed(Duration::from_secs(30)),
            ..PlatformConfig::default()
        });
        faas.register_action(
            "cachey",
            ActionConfig::default(),
            |ctx: &ActivationCtx, _p: Bytes| {
                let cache = ctx.blob_cache();
                let had = cache.get("blob").is_some();
                ctx.note_blob_cache(had);
                cache.insert("blob", Bytes::from_static(b"payload"));
                Ok(Bytes::from(vec![u8::from(had)]))
            },
        )
        .unwrap();
        kernel.run("client", || {
            // Cold container: miss, then populate.
            let id = faas.invoke("cachey", Bytes::new()).unwrap();
            assert_eq!(faas.wait(id).result.unwrap()[0], 0);
            // Warm reuse: the cache entry is still there.
            let id = faas.invoke("cachey", Bytes::new()).unwrap();
            assert_eq!(faas.wait(id).result.unwrap()[0], 1);
            // Idle past the timeout: container (and cache) reclaimed.
            rustwren_sim::sleep(Duration::from_secs(60));
            let id = faas.invoke("cachey", Bytes::new()).unwrap();
            let r = faas.wait(id);
            assert!(r.cold_start);
            assert_eq!(r.result.unwrap()[0], 0);
        });
        let stats = faas.stats();
        assert_eq!(stats.blob_cache_hits, 1);
        assert_eq!(stats.blob_cache_misses, 2);
    }

    #[test]
    fn cos_client_tallies_into_agent_op_counts() {
        let (kernel, faas) = setup(PlatformConfig::default());
        faas.store().create_bucket("b").unwrap();
        faas.store()
            .put("b", "k", Bytes::from_static(b"data"))
            .unwrap();
        faas.register_action(
            "reader",
            ActionConfig::default(),
            |ctx: &ActivationCtx, _p: Bytes| {
                ctx.cos_client()
                    .get("b", "k")
                    .map_err(|e| ActionError(e.to_string()))
            },
        )
        .unwrap();
        kernel.run("client", || {
            let id = faas.invoke("reader", Bytes::new()).unwrap();
            assert!(faas.wait(id).is_success());
        });
        let counts = faas.agent_op_counts();
        assert_eq!(counts.gets, 1);
        assert_eq!(counts.bytes_in, 4);
    }

    #[test]
    fn concurrency_limit_throttles() {
        let cfg = PlatformConfig {
            concurrency_limit: 5,
            ..PlatformConfig::default()
        };
        let (kernel, faas) = setup(cfg);
        faas.register_action(
            "slow",
            ActionConfig::default(),
            |ctx: &ActivationCtx, _p: Bytes| {
                ctx.charge(Duration::from_secs(60));
                Ok(Bytes::new())
            },
        )
        .unwrap();
        kernel.run("client", || {
            let ids: Vec<_> = (0..5)
                .map(|_| faas.invoke("slow", Bytes::new()).unwrap())
                .collect();
            assert_eq!(
                faas.invoke("slow", Bytes::new()),
                Err(InvokeError::Throttled {
                    limit: 5,
                    retry_after: Duration::from_secs(5),
                })
            );
            for id in ids {
                faas.wait(id);
            }
            // After completion there is room again.
            let id = faas.invoke("slow", Bytes::new()).unwrap();
            faas.wait(id);
        });
        assert_eq!(faas.stats().throttled, 1);
    }

    #[test]
    fn activation_names_are_formatted_as_before() {
        for id in [0, 1, 0xdead_beef, u64::MAX] {
            let id = ActivationId(id);
            assert_eq!(&*activation_name(id), format!("act-{id}"));
        }
    }

    #[test]
    fn action_error_is_recorded() {
        let (kernel, faas) = setup(PlatformConfig::default());
        faas.register_action(
            "bad",
            ActionConfig::default(),
            |_ctx: &ActivationCtx, _p: Bytes| -> Result<Bytes, ActionError> {
                Err(ActionError("no such city".into()))
            },
        )
        .unwrap();
        kernel.run("client", || {
            let id = faas.invoke("bad", Bytes::new()).unwrap();
            let r = faas.wait(id);
            assert_eq!(r.phase, Phase::Done(Outcome::Failed("no such city".into())));
            assert!(r.result.is_none());
        });
    }

    #[test]
    fn panic_in_action_is_contained() {
        let (kernel, faas) = setup(PlatformConfig::default());
        faas.register_action(
            "crash",
            ActionConfig::default(),
            |_ctx: &ActivationCtx, _p: Bytes| -> Result<Bytes, ActionError> {
                panic!("segfault simulation")
            },
        )
        .unwrap();
        kernel.run("client", || {
            let id = faas.invoke("crash", Bytes::new()).unwrap();
            let r = faas.wait(id);
            assert!(matches!(
                r.phase,
                Phase::Done(Outcome::Crashed(ref m)) if m.contains("segfault")
            ));
        });
    }

    #[test]
    fn execution_time_limit_times_out() {
        let (kernel, faas) = setup(PlatformConfig::default());
        faas.register_action(
            "tooslow",
            ActionConfig::default().timeout(Duration::from_secs(10)),
            |ctx: &ActivationCtx, _p: Bytes| {
                ctx.charge(Duration::from_secs(60));
                Ok(Bytes::new())
            },
        )
        .unwrap();
        kernel.run("client", || {
            let id = faas.invoke("tooslow", Bytes::new()).unwrap();
            let r = faas.wait(id);
            assert_eq!(r.phase, Phase::Done(Outcome::TimedOut));
        });
        assert_eq!(faas.stats().timeouts, 1);
    }

    #[test]
    fn cluster_capacity_queues_excess_invocations() {
        let cfg = PlatformConfig {
            cluster_containers: 2,
            concurrency_limit: 100,
            speed_variation: 0.0,
            ..PlatformConfig::default()
        };
        let (kernel, faas) = setup(cfg);
        faas.register_action(
            "work",
            ActionConfig::default(),
            |ctx: &ActivationCtx, _p: Bytes| {
                ctx.charge(Duration::from_secs(10));
                Ok(Bytes::new())
            },
        )
        .unwrap();
        kernel.run("client", || {
            let ids: Vec<_> = (0..6)
                .map(|_| faas.invoke("work", Bytes::new()).unwrap())
                .collect();
            for id in ids {
                let r = faas.wait(id);
                assert!(r.is_success());
            }
            // 6 tasks through 2 containers, 10s each: at least 30s of
            // virtual time (plus starts).
            assert!(rustwren_sim::now().as_secs_f64() >= 30.0);
        });
    }

    #[test]
    fn concurrent_functions_run_in_parallel() {
        let cfg = PlatformConfig {
            speed_variation: 0.0,
            ..PlatformConfig::default()
        };
        let (kernel, faas) = setup(cfg);
        faas.register_action(
            "work",
            ActionConfig::default(),
            |ctx: &ActivationCtx, _p: Bytes| {
                ctx.charge(Duration::from_secs(50));
                Ok(Bytes::new())
            },
        )
        .unwrap();
        kernel.run("client", || {
            let ids: Vec<_> = (0..100)
                .map(|_| faas.invoke("work", Bytes::new()).unwrap())
                .collect();
            for id in ids {
                faas.wait(id);
            }
            // 100 parallel 50s functions finish in ~50s + starts, not 5000s.
            let elapsed = rustwren_sim::now().as_secs_f64();
            assert!(elapsed < 60.0, "elapsed {elapsed}");
        });
    }

    #[test]
    fn speed_variation_spreads_execution_times() {
        let (kernel, faas) = setup(PlatformConfig::default());
        faas.register_action(
            "work",
            ActionConfig::default(),
            |ctx: &ActivationCtx, _p: Bytes| {
                ctx.charge(Duration::from_secs(60));
                Ok(Bytes::new())
            },
        )
        .unwrap();
        kernel.run("client", || {
            let ids: Vec<_> = (0..50)
                .map(|_| faas.invoke("work", Bytes::new()).unwrap())
                .collect();
            for id in ids {
                faas.wait(id);
            }
        });
        let durations: Vec<f64> = faas
            .records()
            .iter()
            .filter_map(|r| r.exec_duration())
            .map(|d| d.as_secs_f64())
            .collect();
        let min = durations.iter().cloned().fold(f64::MAX, f64::min);
        let max = durations.iter().cloned().fold(0.0, f64::max);
        assert!(max - min > 2.0, "expected spread, got {min}..{max}");
    }

    #[test]
    fn outcome_query_tracks_completion() {
        let (kernel, faas) = setup(PlatformConfig::default());
        faas.register_action("echo", ActionConfig::default(), echo_action())
            .unwrap();
        faas.register_action(
            "bad",
            ActionConfig::default(),
            |_ctx: &ActivationCtx, _p: Bytes| -> Result<Bytes, ActionError> {
                Err(ActionError("boom".into()))
            },
        )
        .unwrap();
        kernel.run("client", || {
            let id = faas.invoke("echo", Bytes::new()).unwrap();
            assert_eq!(faas.outcome(id), None, "still in flight");
            faas.wait(id);
            assert_eq!(faas.outcome(id), Some(Outcome::Success));
            let id = faas.invoke("bad", Bytes::new()).unwrap();
            faas.wait(id);
            assert_eq!(faas.outcome(id), Some(Outcome::Failed("boom".into())));
            assert_eq!(faas.outcome(ActivationId(999_999)), None);
        });
    }

    #[test]
    fn finished_activations_leave_the_wait_index() {
        let (kernel, faas) = setup(PlatformConfig::default());
        faas.register_action("echo", ActionConfig::default(), echo_action())
            .unwrap();
        let ids = kernel.run("client", || {
            let ids: Vec<_> = (0..20)
                .map(|i| faas.invoke("echo", Bytes::from(vec![i])).unwrap())
                .collect();
            rustwren_sim::sleep(Duration::from_secs(10));
            ids
        });
        assert!(faas.inner.pool.lock().completions.is_empty());
        kernel.run("client", || {
            for (i, id) in ids.iter().enumerate() {
                let record = faas.wait(*id);
                assert_eq!(record.phase, Phase::Done(Outcome::Success));
                assert_eq!(record.result, Some(Bytes::from(vec![i as u8])));
            }
            assert_eq!(faas.wait_checked(ActivationId(999_999)), None);
        });
    }

    #[test]
    fn records_capture_timeline() {
        let (kernel, faas) = setup(PlatformConfig::default());
        faas.register_action("echo", ActionConfig::default(), echo_action())
            .unwrap();
        kernel.run("client", || {
            let id = faas.invoke("echo", Bytes::new()).unwrap();
            faas.wait(id);
        });
        let records = faas.records();
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert!(r.submitted <= r.started.unwrap());
        assert!(r.started.unwrap() <= r.ended.unwrap());
    }

    #[test]
    fn composability_action_invokes_action() {
        let (kernel, faas) = setup(PlatformConfig::default());
        faas.register_action("inner", ActionConfig::default(), echo_action())
            .unwrap();
        faas.register_action(
            "outer",
            ActionConfig::default(),
            |ctx: &ActivationCtx, payload: Bytes| {
                let client = ctx.faas_client();
                let id = client
                    .invoke("inner", payload)
                    .map_err(|e| ActionError(e.to_string()))?;
                let record = ctx.platform().wait(id);
                record
                    .result
                    .ok_or_else(|| ActionError("inner failed".into()))
            },
        )
        .unwrap();
        kernel.run("client", || {
            let id = faas.invoke("outer", Bytes::from_static(b"nested")).unwrap();
            let r = faas.wait(id);
            assert_eq!(r.result.unwrap().as_ref(), b"nested");
        });
    }
}
