//! Admission-plane integration tests: FIFO ordering within a tenant,
//! weighted fair dispatch without starvation, and bitwise-deterministic
//! replay of a two-tenant burst.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;
use rustwren_faas::{
    ActionConfig, ActivationCtx, CloudFunctions, InvokeError, KeepAlivePolicy, PlatformConfig,
    TenantConfig,
};
use rustwren_sim::Kernel;
use rustwren_store::ObjectStore;

fn setup(config: PlatformConfig) -> (Kernel, CloudFunctions) {
    let kernel = Kernel::new();
    let store = ObjectStore::new(&kernel);
    (kernel.clone(), CloudFunctions::new(&kernel, &store, config))
}

fn charge_action(secs: u64) -> impl rustwren_faas::Action {
    move |ctx: &ActivationCtx, p: Bytes| {
        ctx.charge(Duration::from_secs(secs));
        Ok(p)
    }
}

#[test]
fn admission_queue_is_fifo_within_a_tenant() {
    // Quota 1: the first invocation is admitted, the rest wait in the
    // tenant's admission queue and must start in submission order.
    let cfg = PlatformConfig {
        tenants: vec![TenantConfig::new("acme", 1)],
        ..PlatformConfig::default()
    };
    let (kernel, faas) = setup(cfg);
    let started: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let started2 = Arc::clone(&started);
    faas.register_action(
        "f",
        ActionConfig::default(),
        move |ctx: &ActivationCtx, p: Bytes| {
            started2.lock().unwrap().push(p[0]);
            ctx.charge(Duration::from_secs(1));
            Ok(p)
        },
    )
    .unwrap();
    kernel.run("client", || {
        let ids: Vec<_> = (0u8..6)
            .map(|i| {
                faas.invoke_in("acme", "f", Bytes::copy_from_slice(&[i]))
                    .unwrap()
            })
            .collect();
        for id in ids {
            assert!(faas.wait(id).is_success());
        }
    });
    assert_eq!(
        *started.lock().unwrap(),
        vec![0, 1, 2, 3, 4, 5],
        "queued invocations must be admitted in submission order"
    );
    let stats = faas.tenant_stats("acme").unwrap();
    assert_eq!(stats.submitted, 6);
    assert_eq!(stats.queued, 5, "all but the first had to queue");
    assert_eq!(stats.shed, 0);
}

#[test]
fn full_admission_queue_sheds_with_depth() {
    let cfg = PlatformConfig {
        tenants: vec![TenantConfig::new("acme", 1).queue_depth(2)],
        ..PlatformConfig::default()
    };
    let (kernel, faas) = setup(cfg);
    faas.register_action("f", ActionConfig::default(), charge_action(5))
        .unwrap();
    kernel.run("client", || {
        // 1 admitted + 2 queued fill the tenant; the 4th is shed.
        let ids: Vec<_> = (0..3)
            .map(|_| faas.invoke_in("acme", "f", Bytes::new()).unwrap())
            .collect();
        match faas.invoke_in("acme", "f", Bytes::new()) {
            Err(InvokeError::ShedLoad {
                namespace,
                queue_depth,
            }) => {
                assert_eq!(namespace, "acme");
                assert_eq!(queue_depth, 2);
            }
            other => panic!("expected ShedLoad, got {other:?}"),
        }
        for id in ids {
            assert!(faas.wait(id).is_success());
        }
    });
    assert_eq!(faas.tenant_stats("acme").unwrap().shed, 1);
}

#[test]
fn shed_requests_do_not_consume_rate_budget() {
    // The rate limit is "invocations *accepted* per minute": a request the
    // tenant refused must not also count against it.
    let cfg = PlatformConfig {
        tenants: vec![TenantConfig::new("acme", 1).queue_depth(1).rate_limit(3)],
        ..PlatformConfig::default()
    };
    let (kernel, faas) = setup(cfg);
    faas.register_action("f", ActionConfig::default(), charge_action(5))
        .unwrap();
    kernel.run("client", || {
        let invoke = || faas.invoke_in("acme", "f", Bytes::new());
        let admitted = invoke().unwrap();
        let queued = invoke().unwrap();
        // Third: queue full. Fourth: still only two accepted of the three
        // allowed, so it is shed again rather than throttled.
        for _ in 0..2 {
            assert!(matches!(invoke(), Err(InvokeError::ShedLoad { .. })));
        }
        assert!(faas.wait(admitted).is_success());
        assert!(faas.wait(queued).is_success());
        // Room again, in the same minute: the third accepted invocation
        // uses up the budget and the next one is throttled.
        let third = invoke().unwrap();
        assert!(matches!(invoke(), Err(InvokeError::Throttled { .. })));
        assert!(faas.wait(third).is_success());
    });
    let stats = faas.tenant_stats("acme").unwrap();
    assert_eq!((stats.submitted, stats.shed, stats.throttled), (3, 2, 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// No tenant starves under global contention: whatever the quota,
    /// weight and backlog mix, every accepted invocation of every tenant
    /// eventually completes (a starved queue entry would deadlock the
    /// simulation, and a lost count would show in `completed`).
    #[test]
    fn weighted_dispatch_never_starves_a_tenant(
        shape in (1usize..3, 1u32..5, 1u32..5),
        backlog in (2usize..7, 2usize..7),
    ) {
        let (quota, weight_a, weight_b) = shape;
        let (jobs_a, jobs_b) = backlog;
        let cfg = PlatformConfig {
            // Global capacity below the sum of quotas, so freed slots are
            // contended and the weighted round-robin actually arbitrates.
            concurrency_limit: 2,
            tenants: vec![
                TenantConfig::new("a", quota).weight(weight_a).queue_depth(16),
                TenantConfig::new("b", quota).weight(weight_b).queue_depth(16),
            ],
            ..PlatformConfig::default()
        };
        let (kernel, faas) = setup(cfg);
        faas.register_action("f", ActionConfig::default(), charge_action(1))
            .unwrap();
        kernel.run("client", || {
            let mut ids = Vec::new();
            for i in 0..jobs_a.max(jobs_b) {
                if i < jobs_a {
                    ids.push(faas.invoke_in("a", "f", Bytes::new()).unwrap());
                }
                if i < jobs_b {
                    ids.push(faas.invoke_in("b", "f", Bytes::new()).unwrap());
                }
            }
            for id in ids {
                prop_assert!(faas.wait(id).is_success());
            }
            Ok(())
        })?;
        prop_assert_eq!(faas.tenant_stats("a").unwrap().completed, jobs_a as u64);
        prop_assert_eq!(faas.tenant_stats("b").unwrap().completed, jobs_b as u64);
    }
}

#[test]
fn a_slash_in_a_namespace_or_action_name_never_shares_a_warm_container() {
    // Neither half of a warm-pool key forbids `/` (agent actions are named
    // after `org/image:tag` runtimes): tenant `t` running `x/f` and tenant
    // `t/x` running `f` must stay apart — each starts cold in a container
    // of its own, sees only its own blob cache, and is billed its own
    // warm-pool time.
    let cfg = PlatformConfig {
        tenants: vec![TenantConfig::new("t", 1), TenantConfig::new("t/x", 1)],
        ..PlatformConfig::default()
    };
    let (kernel, faas) = setup(cfg);
    // Returns what the container's cache held, then leaves a mark in it.
    let cachey = |ctx: &ActivationCtx, mark: Bytes| {
        let found = ctx.blob_cache().get("mark").unwrap_or_default();
        ctx.blob_cache().insert("mark", mark);
        Ok(found)
    };
    for name in ["x/f", "f"] {
        faas.register_action(name, ActionConfig::default(), cachey)
            .unwrap();
    }
    let records = kernel.run("client", || {
        let first = faas.invoke_in("t", "x/f", Bytes::from_static(b"t's"));
        let first = faas.wait(first.unwrap());
        rustwren_sim::sleep(Duration::from_secs(10));
        let second = faas.invoke_in("t/x", "f", Bytes::from_static(b"t/x's"));
        let second = faas.wait(second.unwrap());
        rustwren_sim::sleep(Duration::from_secs(10));
        assert!(first.cold_start && second.cold_start);
        assert_eq!(second.result.as_deref(), Some(&b""[..]), "an empty cache");
        assert_ne!(first.worker, second.worker, "a container of its own");
        [first, second]
    });
    for record in records {
        let ns = record.tenant.as_str();
        let stats = faas.tenant_stats(ns).unwrap();
        assert_eq!((stats.cold_starts, stats.warm_starts), (1, 0), "{ns}");
        // Each container idles from its own activation's end to now.
        let idle = kernel.now().duration_since(record.ended.unwrap());
        assert_eq!(stats.warm_pool_seconds, idle.as_secs_f64(), "{ns}");
    }
}

#[test]
fn hybrid_prewarm_serves_periodic_arrivals_warm() {
    // Regression for two prewarm blind spots: (a) the histogram's head
    // quantile is a bucket *upper* edge, so a strictly periodic gap that
    // quantizes into the bucket's interior used to beat every prewarm by
    // a fraction of a bucket; (b) a prewarm used to stand down for an
    // expired warm corpse nobody had lazily reaped yet. With both fixed,
    // a hybrid tenant on a steady period warms up after the histogram's
    // min-sample warmup and later arrivals are served warm.
    let cfg = PlatformConfig {
        tenants: vec![TenantConfig::new("cron", 2)
            .keep_alive(KeepAlivePolicy::hybrid(Duration::from_secs(10)))],
        ..PlatformConfig::default()
    };
    let (kernel, faas) = setup(cfg);
    faas.register_action("f", ActionConfig::default(), charge_action(1))
        .unwrap();
    let colds = kernel.run("client", || {
        (0..10)
            .map(|_| {
                let id = faas.invoke_in("cron", "f", Bytes::new()).unwrap();
                let r = faas.wait(id);
                assert!(r.is_success());
                rustwren_sim::sleep(Duration::from_secs(30));
                r.cold_start
            })
            .collect::<Vec<_>>()
    });
    let stats = faas.tenant_stats("cron").unwrap();
    assert!(
        colds.iter().take(4).all(|&c| c),
        "the histogram needs min_samples gaps before predicting: {colds:?}"
    );
    assert!(
        stats.prewarmed >= 2,
        "the hybrid policy must prewarm ahead of predicted arrivals: {stats:?}"
    );
    assert!(
        stats.warm_starts >= 2,
        "prewarmed containers must serve later periodic arrivals warm: colds={colds:?} {stats:?}"
    );
}

/// One full two-tenant burst run: a victim submitting steadily while a
/// noisy tenant floods far past its quota and queue. Returns everything
/// observable: per-tenant stats and the full per-activation timeline.
fn burst_run() -> (Vec<rustwren_faas::TenantStats>, Vec<String>) {
    let cfg = PlatformConfig {
        concurrency_limit: 4,
        tenants: vec![
            TenantConfig::new("victim", 2).queue_depth(8),
            TenantConfig::new("noisy", 2).queue_depth(8),
        ],
        ..PlatformConfig::default()
    };
    let (kernel, faas) = setup(cfg);
    faas.register_action("f", ActionConfig::default(), charge_action(2))
        .unwrap();
    let faas2 = faas.clone();
    let timeline = kernel.run("client", || {
        let noisy = {
            let faas = faas2.clone();
            rustwren_sim::spawn("noisy", move || {
                let mut ids = Vec::new();
                for _ in 0..40 {
                    if let Ok(id) = faas.invoke_in("noisy", "f", Bytes::new()) {
                        ids.push(id);
                    }
                    rustwren_sim::sleep(Duration::from_millis(50));
                }
                ids
            })
        };
        let mut ids = Vec::new();
        for _ in 0..10 {
            ids.push(faas2.invoke_in("victim", "f", Bytes::new()).unwrap());
            rustwren_sim::sleep(Duration::from_millis(200));
        }
        ids.extend(noisy.join());
        ids.sort();
        ids.into_iter()
            .map(|id| {
                let r = faas2.wait(id);
                format!(
                    "{id} {} {:?} {:?} {:?} cold={}",
                    r.tenant, r.submitted, r.started, r.ended, r.cold_start
                )
            })
            .collect::<Vec<String>>()
    });
    let stats = ["victim", "noisy"]
        .iter()
        .map(|ns| faas.tenant_stats(ns).unwrap())
        .collect();
    (stats, timeline)
}

#[test]
fn two_tenant_burst_replays_bitwise() {
    let (stats_a, timeline_a) = burst_run();
    let (stats_b, timeline_b) = burst_run();
    assert_eq!(timeline_a, timeline_b, "identical runs must replay bitwise");
    assert_eq!(stats_a, stats_b);
    // The burst actually overloaded the noisy tenant...
    assert!(
        stats_a[1].shed > 0,
        "noisy must overflow its queue: {stats_a:?}"
    );
    // ...while the victim lost nothing.
    assert_eq!(stats_a[0].completed, 10);
    assert_eq!(stats_a[0].shed, 0);
}
