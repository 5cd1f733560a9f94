//! The timed Cloud Functions client.
//!
//! [`FaasClient`] is how simulated actors reach the platform's REST API:
//! each invocation request pays a network round trip (WAN for the laptop
//! client, data-center latency for in-cloud callers like the remote invoker
//! function) plus the control-plane overhead, and can fail or be throttled —
//! in which case it retries with backoff, exactly the behaviour that makes
//! WAN spawning slow in the paper's §5.1.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use rustwren_sim::hash::{hash2, hash_str};
use rustwren_sim::{task, NetworkProfile, SimInstant};

use crate::activation::ActivationId;
use crate::error::InvokeError;
use crate::platform::CloudFunctions;
use crate::tenant::TenantId;

/// Shared observer of throttle pressure across a fleet of clients — the
/// circuit-breaker half of the `retry_after` protocol. Every 429 any
/// wired-up client receives is counted, and the server's `retry_after`
/// deadline is published so *other* clients (and the executor's retry
/// scheduler) can hold fire until the platform said it is worth retrying,
/// instead of amplifying the storm.
#[derive(Debug, Default)]
pub struct ThrottleSignal {
    throttles: AtomicU64,
    sheds: AtomicU64,
    /// Latest server-provided "retry after" deadline, as nanos of virtual
    /// time since the sim epoch (0 = no open circuit).
    open_until_nanos: AtomicU64,
}

impl ThrottleSignal {
    /// Creates a fresh signal with no pressure recorded.
    pub fn new() -> Arc<ThrottleSignal> {
        Arc::new(ThrottleSignal::default())
    }

    /// Total 429 responses observed by clients sharing this signal.
    pub fn throttles(&self) -> u64 {
        self.throttles.load(Ordering::Relaxed)
    }

    /// Total load-shed responses observed.
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }

    /// The latest instant any server hint said to back off until, if one
    /// is still in the future of `now`.
    pub fn open_until(&self, now: SimInstant) -> Option<SimInstant> {
        let nanos = self.open_until_nanos.load(Ordering::Relaxed);
        let at = SimInstant::ZERO + Duration::from_nanos(nanos);
        (at > now).then_some(at)
    }

    pub(crate) fn record_throttle(&self, until: SimInstant) {
        self.throttles.fetch_add(1, Ordering::Relaxed);
        let nanos = until.duration_since(SimInstant::ZERO).as_nanos() as u64;
        self.open_until_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    pub(crate) fn record_shed(&self) {
        self.sheds.fetch_add(1, Ordering::Relaxed);
    }
}

/// How many 429-throttled attempts an invocation tolerates before giving up.
const MAX_THROTTLE_ATTEMPTS: u32 = 200;

/// A virtual-time client for [`CloudFunctions`]. Cheap to clone. Like
/// [`rustwren_store::CosClient`], request tokens are a pure function of
/// `(seed, action, virtual instant)`, so concurrent clones never perturb
/// each other's jitter or failure draws.
#[derive(Clone)]
pub struct FaasClient {
    platform: CloudFunctions,
    net: NetworkProfile,
    seed: u64,
    namespace: TenantId,
    max_attempts: u32,
    signal: Option<Arc<ThrottleSignal>>,
}

impl fmt::Debug for FaasClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaasClient")
            .field("net", &self.net)
            .field("max_attempts", &self.max_attempts)
            .finish()
    }
}

impl FaasClient {
    /// Creates a client reaching `platform` over `net`.
    pub fn new(platform: &CloudFunctions, net: NetworkProfile, seed: u64) -> FaasClient {
        FaasClient {
            platform: platform.clone(),
            net,
            seed,
            namespace: TenantId::default_namespace(),
            max_attempts: 5,
            signal: None,
        }
    }

    /// Binds this client to a tenant namespace: invocations go through
    /// that tenant's quota, rate limit and admission queue.
    pub fn with_namespace(mut self, namespace: TenantId) -> FaasClient {
        self.namespace = namespace;
        self
    }

    /// Attaches a shared [`ThrottleSignal`] so 429/shed pressure seen by
    /// this client is visible to the whole fleet.
    pub fn with_throttle_signal(mut self, signal: Arc<ThrottleSignal>) -> FaasClient {
        self.signal = Some(signal);
        self
    }

    /// The platform this client talks to.
    pub fn platform(&self) -> &CloudFunctions {
        &self.platform
    }

    /// The network profile this client charges.
    pub fn network(&self) -> &NetworkProfile {
        &self.net
    }

    /// Invokes `action` asynchronously, charging one API round trip.
    /// Retries transparently on network failure and throttling.
    ///
    /// Throttled (429) requests are retried much more patiently than failed
    /// ones — up to 200 attempts with backoff capped at 2 s — because a full
    /// namespace only drains when running functions finish, which for the
    /// paper's 50–60 s tasks takes far longer than a network blip.
    ///
    /// # Errors
    ///
    /// [`InvokeError::ActionNotFound`] immediately, or
    /// [`InvokeError::Network`] / [`InvokeError::Throttled`] after
    /// exhausting retries.
    pub fn invoke(&self, action: &str, payload: Bytes) -> Result<ActivationId, InvokeError> {
        task::block_on(self.invoke_async(action, payload))
    }

    /// [`invoke`](FaasClient::invoke), resumable: the request cost and both
    /// back-offs are `task::sleep`s, so the one loop serves a light task
    /// awaiting it (a fan-out lane) and a thread calling `invoke`.
    ///
    /// # Errors
    ///
    /// As [`invoke`](FaasClient::invoke).
    pub async fn invoke_async(
        &self,
        action: &str,
        payload: Bytes,
    ) -> Result<ActivationId, InvokeError> {
        let api_overhead = self.platform.config().api_overhead;
        let path = hash_str(action);
        let mut net_attempts = 0;
        let mut throttle_attempts = 0;
        loop {
            let token = hash2(self.seed, hash2(path, rustwren_sim::now().as_nanos()));
            task::sleep(self.net.request_cost(payload.len() as u64, token) + api_overhead).await;
            if self.net.fails(token) {
                net_attempts += 1;
                if net_attempts >= self.max_attempts {
                    return Err(InvokeError::Network {
                        action: action.to_owned(),
                        attempts: net_attempts,
                    });
                }
                task::sleep(rustwren_sim::backoff(
                    Duration::from_millis(40),
                    net_attempts,
                ))
                .await;
                continue;
            }
            match self
                .platform
                .invoke_in_async(self.namespace.as_str(), action, payload.clone())
                .await
            {
                Ok(id) => return Ok(id),
                Err(e @ InvokeError::ActionNotFound(_)) => return Err(e),
                Err(e @ InvokeError::ShedLoad { .. }) => {
                    // Shed means the admission queue is full: retrying only
                    // feeds the storm. Surface it to the caller (and the
                    // fleet-wide signal) and let job-level policy decide.
                    if let Some(s) = &self.signal {
                        s.record_shed();
                    }
                    return Err(e);
                }
                Err(InvokeError::Throttled { limit, retry_after }) => {
                    throttle_attempts += 1;
                    if let Some(s) = &self.signal {
                        s.record_throttle(rustwren_sim::now() + retry_after);
                    }
                    if throttle_attempts >= MAX_THROTTLE_ATTEMPTS {
                        return Err(InvokeError::Throttled { limit, retry_after });
                    }
                    // The server told us exactly when capacity may free;
                    // sleeping any less just buys another 429.
                    task::sleep(retry_after.max(Duration::from_millis(1))).await;
                }
                Err(e @ InvokeError::Network { .. }) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionConfig;
    use crate::platform::{ActivationCtx, PlatformConfig};
    use rustwren_sim::Kernel;
    use rustwren_store::ObjectStore;

    impl FaasClient {
        /// This client, making `attempts` attempts per invocation against
        /// network failures before giving up.
        fn with_max_attempts(mut self, attempts: u32) -> FaasClient {
            self.max_attempts = attempts;
            self
        }
    }

    fn setup(config: PlatformConfig) -> (Kernel, CloudFunctions) {
        let kernel = Kernel::new();
        let store = ObjectStore::new(&kernel);
        let faas = CloudFunctions::new(&kernel, &store, config);
        faas.register_action(
            "echo",
            ActionConfig::default(),
            |_ctx: &ActivationCtx, p: Bytes| Ok(p),
        )
        .unwrap();
        (kernel, faas)
    }

    #[test]
    fn wan_invocation_costs_more_than_lan() {
        let (kernel, faas) = setup(PlatformConfig::default());
        let (wan_cost, lan_cost) = kernel.run("client", || {
            let wan = FaasClient::new(&faas, NetworkProfile::wan(), 1);
            let lan = FaasClient::new(&faas, NetworkProfile::lan(), 2);
            let t0 = rustwren_sim::now();
            wan.invoke("echo", Bytes::new()).unwrap();
            let t1 = rustwren_sim::now();
            lan.invoke("echo", Bytes::new()).unwrap();
            let t2 = rustwren_sim::now();
            (t1 - t0, t2 - t1)
        });
        assert!(wan_cost > lan_cost * 2, "wan={wan_cost:?} lan={lan_cost:?}");
    }

    #[test]
    fn throttling_is_retried_until_capacity_frees() {
        let cfg = PlatformConfig {
            concurrency_limit: 2,
            ..PlatformConfig::default()
        };
        let (kernel, faas) = setup(cfg);
        faas.register_action(
            "slow",
            ActionConfig::default(),
            |ctx: &ActivationCtx, _p: Bytes| {
                ctx.charge(Duration::from_secs(2));
                Ok(Bytes::new())
            },
        )
        .unwrap();
        kernel.run("client", || {
            let client = FaasClient::new(&faas, NetworkProfile::lan(), 1).with_max_attempts(30);
            // 6 sequential-submit invocations through a limit of 2: the
            // client's retry loop absorbs the 429s.
            let ids: Vec<_> = (0..6)
                .map(|_| client.invoke("slow", Bytes::new()).unwrap())
                .collect();
            for id in ids {
                assert!(faas.wait(id).is_success());
            }
        });
        assert!(faas.stats().throttled > 0, "expected some 429s");
    }

    #[test]
    fn unknown_action_fails_fast_without_retry() {
        let (kernel, faas) = setup(PlatformConfig::default());
        kernel.run("client", || {
            let client = FaasClient::new(&faas, NetworkProfile::lan(), 1);
            assert_eq!(
                client.invoke("ghost", Bytes::new()),
                Err(InvokeError::ActionNotFound("ghost".into()))
            );
        });
    }

    /// One `invoke` of "slow" on a platform of concurrency 1 that is busy
    /// for its first 2 s when `busy`: what came back, when, and what it
    /// took (429s, sleeps, and the last `retry_after` deadline a 429
    /// named) — through the blocking entry on the client's thread, or the
    /// resumable one awaited by a light task.
    fn invoke_once(
        light: bool,
        net: NetworkProfile,
        busy: bool,
    ) -> (
        Result<ActivationId, InvokeError>,
        SimInstant,
        u64,
        u64,
        Option<SimInstant>,
    ) {
        let cfg = PlatformConfig {
            concurrency_limit: 1,
            ..PlatformConfig::default()
        };
        let (kernel, faas) = setup(cfg);
        let slow = |ctx: &ActivationCtx, _p: Bytes| {
            ctx.charge(Duration::from_secs(2));
            Ok(Bytes::new())
        };
        faas.register_action("slow", ActionConfig::default(), slow)
            .unwrap();
        let signal = ThrottleSignal::new();
        let client = FaasClient::new(&faas, net, 9)
            .with_max_attempts(3)
            .with_throttle_signal(Arc::clone(&signal));
        // When it returned, and how many sleeps that took.
        let seen = || {
            let timers = rustwren_sim::kernel().stats().timers_scheduled;
            (rustwren_sim::now(), timers)
        };
        let (result, (at, timers)) = kernel.run("client", || {
            if busy {
                faas.invoke("slow", Bytes::new()).unwrap();
            }
            if !light {
                return (client.invoke("slow", Bytes::new()), seen());
            }
            let done = rustwren_sim::sync::Event::new(&rustwren_sim::kernel());
            let slot = Arc::new(std::sync::Mutex::new(None));
            let (fired, filled) = (done.clone(), Arc::clone(&slot));
            rustwren_sim::spawn_light(
                "driver",
                task::light(async move {
                    let result = client.invoke_async("slow", Bytes::new()).await;
                    *filled.lock().unwrap() = Some((result, seen()));
                    fired.fire();
                }),
            );
            done.wait();
            let returned = slot.lock().unwrap().take();
            returned.expect("the driver finished")
        });
        let retry_at = signal.open_until(SimInstant::ZERO);
        (result, at, signal.throttles(), timers, retry_at)
    }

    /// A 429 on a platform of concurrency 1 kept busy for its first 2 s:
    /// the client sleeps exactly the server's `retry_after` (5 s), so one
    /// retry after a single 429 is admitted, at a pinned virtual instant.
    #[test]
    fn a_throttled_invocation_retries_once_at_the_retry_after_instant() {
        let (result, at, throttles, _, retry_at) = invoke_once(false, NetworkProfile::lan(), true);
        assert!(result.is_ok(), "{result:?}");
        assert_eq!(throttles, 1);
        // The 429 came back one LAN round trip in, at 0.042469736 s.
        let retry_at = retry_at.expect("a 429 named its deadline");
        assert_eq!(
            retry_at,
            SimInstant::ZERO + Duration::from_nanos(5_042_469_736)
        );
        assert!(at > retry_at, "returned at {at}, before its retry");
    }

    /// Same token draws, same sleeps, same order: a success, a network
    /// failure, and a 429 backed off until its `retry_after`.
    #[test]
    fn invoke_and_invoke_async_take_the_same_virtual_time() {
        let lossy = NetworkProfile::lan().with_failure_rate(1.0);
        for (net, busy) in [
            (NetworkProfile::lan(), false),
            (lossy, false),
            (NetworkProfile::lan(), true),
        ] {
            let blocking = invoke_once(false, net.clone(), busy);
            let resumable = invoke_once(true, net.clone(), busy);
            assert_eq!(blocking, resumable, "{net} busy={busy}");
            let (result, at, throttles, _, retry_at) = blocking;
            assert_eq!(result.is_ok(), net.failure_rate < 1.0, "{result:?}");
            assert_eq!(throttles > 0, busy);
            assert_eq!(retry_at.is_some(), busy);
            assert_eq!(at.as_secs_f64() > 2.0, busy, "{at}");
        }
    }

    /// The back-off factor once overflowed at the 33rd consecutive failure:
    /// a panic in debug builds, a wrap to a zero back-off in release.
    #[test]
    fn a_retry_budget_past_33_ends_in_the_typed_error() {
        let (kernel, faas) = setup(PlatformConfig::default());
        kernel.run("client", || {
            let client = FaasClient::new(&faas, NetworkProfile::lan().with_failure_rate(1.0), 1)
                .with_max_attempts(40);
            assert_eq!(
                client.invoke("echo", Bytes::new()),
                Err(InvokeError::Network {
                    action: "echo".into(),
                    attempts: 40
                })
            );
            // Every back-off was taken: none wrapped to zero.
            let slept = rustwren_sim::now().duration_since(SimInstant::ZERO);
            let owed: Duration = (1..40)
                .map(|n| rustwren_sim::backoff(Duration::from_millis(40), n))
                .sum();
            assert!(slept > owed, "{slept:?} vs {owed:?}");
        });
    }

    #[test]
    fn certain_network_failure_exhausts_attempts() {
        let (kernel, faas) = setup(PlatformConfig::default());
        kernel.run("client", || {
            let client = FaasClient::new(&faas, NetworkProfile::lan().with_failure_rate(1.0), 1)
                .with_max_attempts(3);
            assert_eq!(
                client.invoke("echo", Bytes::new()),
                Err(InvokeError::Network {
                    action: "echo".into(),
                    attempts: 3
                })
            );
        });
    }
}
