//! Vehicle equivalence: one activation lifecycle, two ways to ride it.
//!
//! Every scenario runs twice on fresh kernels under FIFO, with one `async`
//! body — once registered as it is (each activation a lightweight task
//! throughout), once driven by `task::block_on` inside a blocking closure
//! (each activation is given an OS thread when that closure is about to be
//! called, and charges its time blocked on it) — and everything an
//! observer can see
//! must agree: every activation record, the platform and tenant counters,
//! the bill, the final clock and the kernel's own counters (all but the
//! two that count the vehicle itself). Between them the scenarios walk
//! every edge of the lifecycle. This is the safety net under each later
//! conversion of a blocking body to a resumable one.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use rustwren_faas::{
    ActionConfig, ActionError, ActivationCtx, ActivationId, ActivationRecord, BillingReport,
    CloudFunctions, KeepAlivePolicy, Outcome, Phase, PlatformConfig, PlatformStats, TenantConfig,
    TenantStats,
};
use rustwren_sim::chaos::{ChaosEngine, FaultPlan, TimeWindow};
use rustwren_sim::{task, Kernel, KernelStats, SimInstant};
use rustwren_store::ObjectStore;

#[derive(Clone, Copy)]
enum Vehicle {
    Thread,
    Light,
}

/// How the body ends once it has charged its time.
#[derive(Clone, Copy)]
enum Ending {
    Echo,
    Fail,
    Panic,
}

/// The payload of the test action: how long to charge, then how to end.
fn work(millis: u64, ending: Ending) -> Bytes {
    let mut p = millis.to_le_bytes().to_vec();
    p.push(ending as u8);
    Bytes::from(p)
}

/// The test action: charge, then end. One piece of resumable code for both
/// vehicles.
async fn body(ctx: ActivationCtx, p: Bytes) -> Result<Bytes, ActionError> {
    let millis = u64::from_le_bytes(p[..8].try_into().expect("8-byte duration"));
    task::sleep(ctx.scaled(Duration::from_millis(millis))).await;
    match p[8] {
        e if e == Ending::Echo as u8 => Ok(p),
        e if e == Ending::Fail as u8 => Err("no such city".into()),
        _ => panic!("segfault simulation"),
    }
}

/// Registers [`body`] under `name`, to ride `vehicle`.
fn register(faas: &CloudFunctions, vehicle: Vehicle, name: &str, config: ActionConfig) {
    match vehicle {
        Vehicle::Thread => faas.register_action(name, config, |ctx: &ActivationCtx, p: Bytes| {
            task::block_on(body(ctx.clone(), p))
        }),
        Vehicle::Light => faas.register_resumable(name, config, body),
    }
    .expect("the default runtime is always registered");
}

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
struct Observed {
    records: Vec<ActivationRecord>,
    platform: PlatformStats,
    tenants: Vec<(String, TenantStats)>,
    billing: BillingReport,
    inflight: usize,
    now: SimInstant,
    /// `light_polls`, `os_threads_spawned` and `thread_handoffs` zeroed:
    /// they count the vehicle, which is the one thing meant to differ.
    kernel: KernelStats,
}

#[derive(Default)]
struct Setup {
    platform: PlatformConfig,
    action: ActionConfig,
    chaos: Option<FaultPlan>,
}

fn run(vehicle: Vehicle, setup: &Setup, scenario: &dyn Fn(&CloudFunctions)) -> Observed {
    let kernel = Kernel::new();
    if let Some(plan) = &setup.chaos {
        kernel.install_chaos(Arc::new(ChaosEngine::new(plan.clone())));
    }
    let store = ObjectStore::new(&kernel);
    let faas = CloudFunctions::new(&kernel, &store, setup.platform.clone());
    for name in ["serve", "other"] {
        register(&faas, vehicle, name, setup.action.clone());
    }
    kernel.run("client", || scenario(&faas));
    assert!(
        kernel.frozen_light_tasks().is_empty(),
        "the scenario waits for everything it started"
    );
    let stats = kernel.stats();
    let activations = faas.records().len() as u64;
    match vehicle {
        Vehicle::Thread => assert_eq!(stats.os_threads_spawned, activations),
        // The client's thread alone: no turn passes between OS threads.
        Vehicle::Light => assert_eq!((stats.os_threads_spawned, stats.thread_handoffs), (0, 0)),
    }
    Observed {
        records: faas.records(),
        platform: faas.stats(),
        tenants: faas
            .tenant_namespaces()
            .into_iter()
            .map(|ns| {
                let stats = faas.tenant_stats(&ns).expect("listed namespace");
                (ns, stats)
            })
            .collect(),
        billing: faas.billing_report(),
        inflight: faas.inflight(),
        now: kernel.now(),
        kernel: KernelStats {
            light_polls: 0,
            os_threads_spawned: 0,
            thread_handoffs: 0,
            ..stats
        },
    }
}

/// Runs `scenario` on both vehicles, asserts they agree, and returns what
/// both observed so the caller can check the scenario reached its edge.
fn on_both_vehicles(setup: Setup, scenario: impl Fn(&CloudFunctions)) -> Observed {
    let thread = run(Vehicle::Thread, &setup, &scenario);
    let light = run(Vehicle::Light, &setup, &scenario);
    assert_eq!(thread, light, "thread-backed vs light");
    assert_eq!(light.inflight, 0);
    light
}

fn invoke(faas: &CloudFunctions, action: &str, payload: Bytes) -> ActivationId {
    faas.invoke(action, payload).expect("within the limits")
}

fn outcomes(seen: &Observed) -> Vec<Outcome> {
    seen.records
        .iter()
        .map(|r| match &r.phase {
            Phase::Done(o) => o.clone(),
            other => panic!("activation {} still {other:?}", r.id),
        })
        .collect()
}

#[test]
fn cold_start_with_image_pull_then_warm_reuse() {
    let seen = on_both_vehicles(Setup::default(), |faas| {
        for _ in 0..3 {
            let id = invoke(faas, "serve", work(250, Ending::Echo));
            assert!(faas.wait(id).is_success());
        }
    });
    let cfg = PlatformConfig::default();
    // A 340 MiB image at the platform's 200 MiB/s pull bandwidth.
    let pull = Duration::from_secs_f64(340.0 * 1024.0 * 1024.0 / (200.0 * 1024.0 * 1024.0));
    let first = &seen.records[0];
    assert!(first.cold_start);
    assert_eq!(
        first.started.unwrap().duration_since(first.submitted),
        pull + cfg.cold_start
    );
    assert_eq!(first.result.as_ref().unwrap(), &work(250, Ending::Echo));
    assert_eq!(
        (
            seen.platform.cold_starts,
            seen.platform.warm_starts,
            seen.platform.image_pulls
        ),
        (1, 2, 1)
    );
}

#[test]
fn queued_admission_is_released_by_weighted_round_robin() {
    let setup = Setup {
        platform: PlatformConfig {
            concurrency_limit: 2,
            speed_variation: 0.0,
            tenants: vec![
                TenantConfig::new("a", 2).queue_depth(16),
                TenantConfig::new("b", 2).weight(3).queue_depth(16),
            ],
            ..PlatformConfig::default()
        },
        ..Setup::default()
    };
    let seen = on_both_vehicles(setup, |faas| {
        let mut ids = Vec::new();
        for _ in 0..4 {
            for ns in ["a", "b"] {
                let id = faas.invoke_in(ns, "serve", work(1_000, Ending::Echo));
                ids.push(id.expect("queue has room"));
            }
        }
        for id in ids {
            assert!(faas.wait(id).is_success());
        }
    });
    assert_eq!(seen.platform.queued, 6, "all but the first two waited");
    // The gates open by weight, not by arrival: `b` (weight 3) has drained
    // its three queued invocations while `a`, which queued each of its own
    // first, still has two to go.
    let mut gated: Vec<&ActivationRecord> = seen.records[2..].iter().collect();
    gated.sort_by_key(|r| (r.started, r.id));
    let order: String = gated.iter().map(|r| r.tenant.as_str()).collect();
    assert!(order.ends_with("aa"), "{order}");
}

#[test]
fn capacity_waiters_get_a_warm_or_a_capacity_handoff() {
    let setup = Setup {
        platform: PlatformConfig {
            cluster_containers: 2,
            concurrency_limit: 100,
            speed_variation: 0.0,
            ..PlatformConfig::default()
        },
        ..Setup::default()
    };
    let seen = on_both_vehicles(setup, |faas| {
        // Two containers, both busy with `serve`; then two more `serve`
        // (warm hand-off: same pool key) and two `other` (capacity
        // hand-off: the released container is destroyed for them).
        let ids: Vec<_> = ["serve", "serve", "other", "serve", "other", "serve"]
            .into_iter()
            .map(|action| invoke(faas, action, work(10_000, Ending::Echo)))
            .collect();
        for id in ids {
            assert!(faas.wait(id).is_success());
        }
    });
    let cold_of = |action: &str| {
        seen.records
            .iter()
            .filter(|r| r.action == action)
            .map(|r| r.cold_start)
            .collect::<Vec<_>>()
    };
    assert_eq!(cold_of("serve"), [true, true, false, false]);
    assert_eq!(cold_of("other"), [true, true]);
    assert!(seen.now.as_secs_f64() >= 30.0, "six tasks, two at a time");
}

#[test]
fn full_cluster_evicts_the_least_recently_used_idle_container() {
    let setup = Setup {
        platform: PlatformConfig {
            cluster_containers: 2,
            ..PlatformConfig::default()
        },
        ..Setup::default()
    };
    let seen = on_both_vehicles(setup, |faas| {
        // Fill the cluster with two idle `serve` containers, one older.
        let first = invoke(faas, "serve", work(100, Ending::Echo));
        let second = invoke(faas, "serve", work(5_000, Ending::Echo));
        faas.wait(first);
        faas.wait(second);
        // `other` has no warm container: the older `serve` one is evicted.
        let id = invoke(faas, "other", work(100, Ending::Echo));
        assert!(faas.wait(id).cold_start);
        // The younger `serve` container survived and is reused warm.
        let id = invoke(faas, "serve", work(100, Ending::Echo));
        let r = faas.wait(id);
        assert!(!r.cold_start);
        assert_eq!(r.worker, faas.wait(second).worker);
    });
    assert_eq!(seen.platform.cold_starts, 3);
}

#[test]
fn cold_storm_bypasses_the_warm_pool() {
    let setup = Setup {
        chaos: Some(FaultPlan::new(7).cold_storm(TimeWindow::starting_at(Duration::from_secs(60)))),
        ..Setup::default()
    };
    let seen = on_both_vehicles(setup, |faas| {
        let id = invoke(faas, "serve", work(100, Ending::Echo));
        faas.wait(id);
        // Outside the storm window a warm start is still possible.
        let id = invoke(faas, "serve", work(100, Ending::Echo));
        assert!(!faas.wait(id).cold_start);
        rustwren_sim::sleep(Duration::from_secs(60));
        // Inside it the idle warm container is passed over.
        let id = invoke(faas, "serve", work(100, Ending::Echo));
        assert!(faas.wait(id).cold_start);
    });
    assert_eq!(
        (seen.platform.cold_starts, seen.platform.warm_starts),
        (2, 1)
    );
}

#[test]
fn body_past_its_deadline_times_out() {
    let setup = Setup {
        action: ActionConfig::default().timeout(Duration::from_secs(10)),
        ..Setup::default()
    };
    let seen = on_both_vehicles(setup, |faas| {
        let slow = invoke(faas, "serve", work(60_000, Ending::Echo));
        let slow_and_failing = invoke(faas, "serve", work(60_000, Ending::Fail));
        faas.wait(slow);
        faas.wait(slow_and_failing);
    });
    assert_eq!(outcomes(&seen), [Outcome::TimedOut, Outcome::TimedOut]);
    assert_eq!(seen.platform.timeouts, 2);
    assert!(seen.records.iter().all(|r| r.result.is_none()));
}

#[test]
fn body_returning_err_fails() {
    let seen = on_both_vehicles(Setup::default(), |faas| {
        let id = invoke(faas, "serve", work(100, Ending::Fail));
        faas.wait(id);
    });
    assert_eq!(outcomes(&seen), [Outcome::Failed("no such city".into())]);
}

#[test]
fn panicking_body_crashes_but_releases_its_container_and_slots() {
    let setup = Setup {
        platform: PlatformConfig {
            concurrency_limit: 1,
            cluster_containers: 1,
            tenants: vec![TenantConfig::new("t", 1).queue_depth(4)],
            ..PlatformConfig::default()
        },
        ..Setup::default()
    };
    let seen = on_both_vehicles(setup, |faas| {
        // One slot, one container: the second invocation can only run if
        // the crashed first one gave both back.
        let crash = faas.invoke_in("t", "serve", work(100, Ending::Panic));
        let after = faas.invoke_in("t", "serve", work(100, Ending::Echo));
        let r = faas.wait(crash.expect("admitted"));
        assert!(
            matches!(&r.phase, Phase::Done(Outcome::Crashed(m)) if m.contains("segfault")),
            "{:?}",
            r.phase
        );
        let r = faas.wait(after.expect("queued"));
        assert!(r.is_success());
        assert!(!r.cold_start, "the crashed activation's container is warm");
    });
    assert_eq!(seen.tenants[0].1.completed, 2);
    assert_eq!(seen.platform.queued, 1);
}

/// A charge too long for the virtual clock is the charging activation's
/// crash on either vehicle — refused inside the blocking sleep on a thread,
/// and as the body's own step on a light task — never a panic on whichever
/// bystander (here the client, inside `wait`) was dispatching when the
/// timer would have been scheduled.
#[test]
fn charge_past_the_end_of_the_clock_crashes_that_activation_alone() {
    let setup = Setup {
        platform: PlatformConfig {
            concurrency_limit: 1,
            cluster_containers: 1,
            tenants: vec![TenantConfig::new("t", 1).queue_depth(4)],
            ..PlatformConfig::default()
        },
        ..Setup::default()
    };
    let seen = on_both_vehicles(setup, |faas| {
        let forever = faas.invoke_in("t", "serve", work(u64::MAX, Ending::Echo));
        let after = faas.invoke_in("t", "serve", work(100, Ending::Echo));
        let r = faas.wait(forever.expect("admitted"));
        assert!(
            matches!(&r.phase, Phase::Done(Outcome::Crashed(m)) if m.contains("virtual time overflow")),
            "{:?}",
            r.phase
        );
        let r = faas.wait(after.expect("queued"));
        assert!(r.is_success());
        assert!(!r.cold_start, "the crashed activation's container is warm");
    });
    assert_eq!(seen.tenants[0].1.completed, 2);
}

#[test]
fn hybrid_keep_alive_release_schedules_a_prewarm() {
    let setup = Setup {
        platform: PlatformConfig {
            tenants: vec![TenantConfig::new("cron", 2)
                .keep_alive(KeepAlivePolicy::hybrid(Duration::from_secs(10)))],
            ..PlatformConfig::default()
        },
        ..Setup::default()
    };
    let seen = on_both_vehicles(setup, |faas| {
        for _ in 0..10 {
            let id = faas.invoke_in("cron", "serve", work(1_000, Ending::Echo));
            assert!(faas.wait(id.expect("admitted")).is_success());
            rustwren_sim::sleep(Duration::from_secs(30));
        }
    });
    let cron = &seen.tenants[0].1;
    assert!(cron.prewarmed >= 2, "releases scheduled prewarms: {cron:?}");
    assert!(cron.warm_starts >= 2, "and they served arrivals: {cron:?}");
}

/// What only the light vehicle can do wrong: a client that returns without
/// waiting leaves real activations frozen mid-flight. They are listed by
/// name, not dropped, and the next `Kernel::run` carries them to `Done`.
#[test]
fn fire_and_forget_activation_is_listed_then_finishes_under_the_next_run() {
    let kernel = Kernel::new();
    let store = ObjectStore::new(&kernel);
    let faas = CloudFunctions::new(&kernel, &store, PlatformConfig::default());
    register(&faas, Vehicle::Light, "serve", ActionConfig::default());
    let ids = kernel.run("client", || {
        let ids = [(); 2].map(|()| invoke(&faas, "serve", work(1_000, Ending::Echo)));
        // Long enough for the first poll of each, not for the cold start.
        rustwren_sim::sleep(Duration::from_millis(100));
        ids
    });
    assert_eq!(
        kernel.frozen_light_tasks(),
        ids.map(|id| format!("act-{id}"))
    );
    assert_eq!(faas.inflight(), 2);
    assert!(ids.iter().all(|&id| faas.outcome(id).is_none()));

    kernel.run("second", || {
        for id in ids {
            assert!(faas.wait(id).is_success());
        }
    });
    assert!(kernel.frozen_light_tasks().is_empty());
    assert_eq!(faas.inflight(), 0);
    assert_eq!(kernel.stats().os_threads_spawned, 0);
}
