//! Container-pool and observability tests for the FaaS platform.

use std::time::Duration;

use bytes::Bytes;
use rustwren_faas::{
    ActionConfig, ActivationCtx, CloudFunctions, KeepAlivePolicy, Outcome, Phase, PlatformConfig,
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
fn idle_containers_expire_after_timeout() {
    let cfg = PlatformConfig {
        keep_alive: KeepAlivePolicy::fixed(Duration::from_secs(30)),
        ..PlatformConfig::default()
    };
    let (kernel, faas) = setup(cfg);
    faas.register_action("f", ActionConfig::default(), charge_action(1))
        .unwrap();
    kernel.run("client", || {
        let id = faas.invoke("f", Bytes::new()).unwrap();
        faas.wait(id);
        // Within the idle window: warm reuse.
        rustwren_sim::sleep(Duration::from_secs(10));
        let id = faas.invoke("f", Bytes::new()).unwrap();
        assert!(!faas.wait(id).cold_start);
        // Past the idle window: the container was reclaimed, cold again.
        rustwren_sim::sleep(Duration::from_secs(60));
        let id = faas.invoke("f", Bytes::new()).unwrap();
        assert!(faas.wait(id).cold_start);
    });
}

#[test]
fn lru_eviction_reuses_capacity_across_actions() {
    // Cluster of 2 containers; fill it with idle containers of action A,
    // then run action B: B must evict rather than queue forever.
    let cfg = PlatformConfig {
        cluster_containers: 2,
        ..PlatformConfig::default()
    };
    let (kernel, faas) = setup(cfg);
    faas.register_action("a", ActionConfig::default(), charge_action(1))
        .unwrap();
    faas.register_action("b", ActionConfig::default(), charge_action(1))
        .unwrap();
    kernel.run("client", || {
        let ids: Vec<_> = (0..2)
            .map(|_| faas.invoke("a", Bytes::new()).unwrap())
            .collect();
        for id in ids {
            faas.wait(id);
        }
        // Both slots now hold idle `a` containers.
        let id = faas.invoke("b", Bytes::new()).unwrap();
        let r = faas.wait(id);
        assert!(r.is_success());
        assert!(r.cold_start, "b got a fresh container via eviction");
    });
}

#[test]
fn same_action_handoff_prefers_warm_containers() {
    // One container slot, many queued invocations of the same action: all
    // after the first should be warm (container handoff).
    let cfg = PlatformConfig {
        cluster_containers: 1,
        ..PlatformConfig::default()
    };
    let (kernel, faas) = setup(cfg);
    faas.register_action("f", ActionConfig::default(), charge_action(2))
        .unwrap();
    kernel.run("client", || {
        let ids: Vec<_> = (0..5)
            .map(|_| faas.invoke("f", Bytes::new()).unwrap())
            .collect();
        let records: Vec<_> = ids.into_iter().map(|id| faas.wait(id)).collect();
        let colds = records.iter().filter(|r| r.cold_start).count();
        assert_eq!(colds, 1, "only the first container start is cold");
    });
    assert_eq!(faas.stats().warm_starts, 4);
}

#[test]
fn image_pull_charged_once_per_worker() {
    let cfg = PlatformConfig {
        workers: 2,
        ..PlatformConfig::default()
    };
    let (kernel, faas) = setup(cfg);
    faas.register_action("f", ActionConfig::default(), charge_action(1))
        .unwrap();
    kernel.run("client", || {
        // 4 concurrent cold containers over 2 workers: 2 pulls, not 4.
        let ids: Vec<_> = (0..4)
            .map(|_| faas.invoke("f", Bytes::new()).unwrap())
            .collect();
        for id in ids {
            faas.wait(id);
        }
    });
    assert_eq!(faas.stats().image_pulls, 2);
    assert_eq!(faas.stats().cold_starts, 4);
}

#[test]
fn activation_logs_are_captured_with_timestamps() {
    let (kernel, faas) = setup(PlatformConfig::default());
    faas.register_action(
        "chatty",
        ActionConfig::default(),
        |ctx: &ActivationCtx, p: Bytes| {
            ctx.log("starting up");
            ctx.charge(Duration::from_secs(3));
            ctx.log("done working");
            Ok(p)
        },
    )
    .unwrap();
    kernel.run("client", || {
        let id = faas.invoke("chatty", Bytes::new()).unwrap();
        let r = faas.wait(id);
        assert_eq!(r.logs.len(), 2);
        assert!(r.logs[0].contains("starting up"));
        assert!(r.logs[1].contains("done working"));
        // Timestamps are virtual instants; the second is later.
        assert!(r.logs[0] < r.logs[1] || r.logs[0].len() != r.logs[1].len());
    });
}

#[test]
fn activations_for_filters_by_action() {
    let (kernel, faas) = setup(PlatformConfig::default());
    faas.register_action("x", ActionConfig::default(), charge_action(1))
        .unwrap();
    faas.register_action("y", ActionConfig::default(), charge_action(1))
        .unwrap();
    kernel.run("client", || {
        for _ in 0..3 {
            faas.wait(faas.invoke("x", Bytes::new()).unwrap());
        }
        faas.wait(faas.invoke("y", Bytes::new()).unwrap());
    });
    assert_eq!(faas.activations_for("x").len(), 3);
    assert_eq!(faas.activations_for("y").len(), 1);
    assert!(faas.activations_for("z").is_empty());
}

#[test]
fn action_stats_aggregate_outcomes() {
    let (kernel, faas) = setup(PlatformConfig::default());
    faas.register_action(
        "mixed",
        ActionConfig::default(),
        |ctx: &ActivationCtx, p: Bytes| {
            ctx.charge(Duration::from_secs(4));
            if p.is_empty() {
                Err(rustwren_faas::ActionError("empty payload".into()))
            } else {
                Ok(p)
            }
        },
    )
    .unwrap();
    kernel.run("client", || {
        for i in 0..5 {
            let payload = if i % 5 == 0 {
                Bytes::new()
            } else {
                Bytes::from_static(b"x")
            };
            faas.wait(faas.invoke("mixed", payload).unwrap());
        }
    });
    let stats = faas.action_stats("mixed");
    assert_eq!(stats.invocations, 5);
    assert_eq!(stats.successes, 4);
    assert_eq!(stats.failures, 1);
    assert_eq!(stats.in_flight, 0);
    let mean = stats.mean_exec.as_secs_f64();
    assert!((3.0..6.0).contains(&mean), "mean exec {mean}");
}

#[test]
fn queued_activation_of_different_action_gets_capacity_grant() {
    // One slot, action A runs long; B queues and must get the slot when A
    // finishes (capacity handoff with container destruction).
    let cfg = PlatformConfig {
        cluster_containers: 1,
        ..PlatformConfig::default()
    };
    let (kernel, faas) = setup(cfg);
    faas.register_action("long", ActionConfig::default(), charge_action(20))
        .unwrap();
    faas.register_action("short", ActionConfig::default(), charge_action(1))
        .unwrap();
    kernel.run("client", || {
        let a = faas.invoke("long", Bytes::new()).unwrap();
        let b = faas.invoke("short", Bytes::new()).unwrap();
        let rb = faas.wait(b);
        assert!(rb.is_success());
        assert!(rb.cold_start, "different action cannot reuse A's container");
        let ra = faas.wait(a);
        assert!(ra.ended.unwrap() < rb.ended.unwrap());
    });
}

#[test]
fn timeout_outcome_is_not_success_in_stats() {
    let (kernel, faas) = setup(PlatformConfig::default());
    faas.register_action(
        "slowpoke",
        ActionConfig::default().timeout(Duration::from_secs(2)),
        charge_action(30),
    )
    .unwrap();
    kernel.run("client", || {
        let id = faas.invoke("slowpoke", Bytes::new()).unwrap();
        let r = faas.wait(id);
        assert_eq!(r.phase, Phase::Done(Outcome::TimedOut));
    });
    let stats = faas.action_stats("slowpoke");
    assert_eq!(stats.failures, 1);
    assert_eq!(stats.successes, 0);
}

#[test]
fn per_minute_rate_limit_throttles_and_recovers() {
    let cfg = PlatformConfig {
        invocations_per_minute: 5,
        ..PlatformConfig::default()
    };
    let (kernel, faas) = setup(cfg);
    faas.register_action("f", ActionConfig::default(), charge_action(1))
        .unwrap();
    kernel.run("client", || {
        for _ in 0..5 {
            faas.wait(faas.invoke("f", Bytes::new()).unwrap());
        }
        // Sixth invocation within the same minute: 429.
        assert!(matches!(
            faas.invoke("f", Bytes::new()),
            Err(rustwren_faas::InvokeError::Throttled { limit: 5, .. })
        ));
        // A minute later the window resets.
        rustwren_sim::sleep(Duration::from_secs(61));
        assert!(faas.invoke("f", Bytes::new()).is_ok());
    });
    assert_eq!(faas.stats().throttled, 1);
}

#[test]
fn billing_charges_memory_times_duration() {
    let (kernel, faas) = setup(PlatformConfig::default());
    faas.register_action(
        "f",
        ActionConfig::default().memory_mb(512),
        charge_action(10),
    )
    .unwrap();
    kernel.run("client", || {
        for _ in 0..4 {
            faas.wait(faas.invoke("f", Bytes::new()).unwrap());
        }
    });
    let bill = faas.billing_report();
    assert_eq!(bill.activations, 4);
    // 4 × 0.5 GB × ~10s (±12% container speed) ≈ 20 GB-s.
    assert!(
        (17.0..24.0).contains(&bill.gb_seconds),
        "gb_seconds {}",
        bill.gb_seconds
    );
    let expected_usd = bill.gb_seconds * 0.000_017;
    assert!((bill.estimated_usd - expected_usd).abs() < 1e-12);
}

#[test]
fn billing_is_zero_before_any_completion() {
    let (_kernel, faas) = setup(PlatformConfig::default());
    let bill = faas.billing_report();
    assert_eq!(bill.activations, 0);
    assert_eq!(bill.gb_seconds, 0.0);
}
