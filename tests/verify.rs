//! Clean-sweep model checking of the full framework: `map` and
//! `map_reduce` jobs (retry and speculation enabled) explored under the
//! seeded random scheduler. Every schedule must produce the bitwise result
//! of the FIFO reference run, with no panic: no deadlock and no shim lock
//! found held across a yield.

use rustwren::core::{
    DataSource, MapReduceOpts, RetryPolicy, SimCloud, SpeculationConfig, TaskCtx, Value,
};
use rustwren::sim::{Kernel, NetworkProfile};
use rustwren::verify::{explore, Budget, Strategy};

/// 100 random schedules per job shape (plus the FIFO reference), ≥ 200
/// explored schedules across the suite, on a fixed seed so CI is
/// reproducible.
const SCHEDULES: usize = 100;

/// Base seed: `RUSTWREN_VERIFY_SEED` when set (the CI matrix), mixed with a
/// per-test default so the two sweeps stay decorrelated.
fn budget(default_seed: u64, label: &str) -> Budget {
    let seed = std::env::var("RUSTWREN_VERIFY_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map_or(default_seed, |s| {
            s.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ default_seed
        });
    Budget {
        schedules: SCHEDULES,
        strategy: Strategy::Random {
            seed,
            preempt_probability: 0.05,
        },
        label: label.to_string(),
    }
}

/// A cloud whose executor runs with retry and speculation on — the
/// concurrency-heavy configuration (pending-set bookkeeping, duplicate
/// completions, backoff timers) the checker is pointed at.
fn cloud_on(kernel: Kernel) -> SimCloud {
    SimCloud::builder()
        .seed(7)
        .client_network(NetworkProfile::lan())
        .kernel(kernel)
        .build()
}

fn map_job(kernel: Kernel) -> Vec<Value> {
    let cloud = cloud_on(kernel);
    cloud.register_fn("add7", |_ctx: &TaskCtx, x: Value| {
        Ok(Value::Int(x.as_i64().ok_or("int")? + 7))
    });
    cloud.run(|| {
        let exec = cloud
            .executor()
            .retry(RetryPolicy::with_attempts(3))
            .speculation(SpeculationConfig::on())
            .build()
            .unwrap();
        exec.map("add7", (0..6).map(Value::Int).collect::<Vec<_>>())
            .unwrap();
        exec.get_result().unwrap()
    })
}

fn map_reduce_job(kernel: Kernel) -> Vec<Value> {
    let cloud = cloud_on(kernel);
    cloud.register_fn("double", |_ctx: &TaskCtx, x: Value| {
        Ok(Value::Int(x.as_i64().ok_or("int")? * 2))
    });
    cloud.register_fn("sum", |_ctx: &TaskCtx, input: Value| {
        let total: i64 = input
            .req_list("results")?
            .iter()
            .filter_map(Value::as_i64)
            .sum();
        Ok(Value::Int(total))
    });
    cloud.run(|| {
        let exec = cloud
            .executor()
            .retry(RetryPolicy::with_attempts(3))
            .speculation(SpeculationConfig::on())
            .build()
            .unwrap();
        exec.map_reduce(
            "double",
            DataSource::Values((1..=5).map(Value::Int).collect()),
            "sum",
            MapReduceOpts::default(),
        )
        .unwrap();
        exec.get_result().unwrap()
    })
}

#[test]
fn map_job_is_schedule_independent() {
    let report = explore(map_job, &budget(101, "sweep-map"));
    assert!(report.ok(), "{report}");
    assert_eq!(report.schedules, SCHEDULES + 1);
}

#[test]
fn map_reduce_job_is_schedule_independent() {
    let report = explore(map_reduce_job, &budget(202, "sweep-map-reduce"));
    assert!(report.ok(), "{report}");
    assert_eq!(report.schedules, SCHEDULES + 1);
}

/// Two tenants contending for a global concurrency limit below the sum of
/// their quotas: every invocation beyond the limit parks on the tenant
/// admission queue's gate events, and freed slots are granted by weighted
/// round-robin. The sweep hunts the admission plane for lost wakeups
/// (a queued gate nobody fires) and lock cycles; the returned completion
/// counts are schedule-independent even though admission order is not.
fn tenant_admission_job(kernel: Kernel) -> (u64, u64, usize) {
    let cloud = SimCloud::builder()
        .seed(7)
        .client_network(NetworkProfile::lan())
        .platform(rustwren::faas::PlatformConfig {
            concurrency_limit: 2,
            tenants: vec![
                rustwren::faas::TenantConfig::new("a", 2).queue_depth(16),
                rustwren::faas::TenantConfig::new("b", 2)
                    .weight(3)
                    .queue_depth(16),
            ],
            ..rustwren::faas::PlatformConfig::default()
        })
        .kernel(kernel)
        .build();
    let faas = cloud.functions().clone();
    faas.register_action(
        "f",
        rustwren::faas::ActionConfig::default(),
        |ctx: &rustwren::faas::ActivationCtx, p: bytes::Bytes| {
            ctx.charge(std::time::Duration::from_secs(1));
            Ok(p)
        },
    )
    .unwrap();
    let successes = cloud.run(|| {
        let faas2 = faas.clone();
        let driver_b = rustwren_sim::spawn("driver-b", move || {
            (0..4)
                .map(|_| faas2.invoke_in("b", "f", bytes::Bytes::new()).unwrap())
                .collect::<Vec<_>>()
        });
        let mut ids: Vec<_> = (0..4)
            .map(|_| faas.invoke_in("a", "f", bytes::Bytes::new()).unwrap())
            .collect();
        ids.extend(driver_b.join());
        ids.into_iter()
            .filter(|&id| faas.wait(id).is_success())
            .count()
    });
    let completed = |ns: &str| cloud.functions().tenant_stats(ns).unwrap().completed;
    (completed("a"), completed("b"), successes)
}

#[test]
fn tenant_admission_is_schedule_independent() {
    let report = explore(tenant_admission_job, &budget(303, "sweep-admission"));
    assert!(report.ok(), "{report}");
    assert_eq!(report.schedules, SCHEDULES + 1);
}

/// A mixed lightweight/thread-backed scenario aimed at the light-task
/// wakeup plumbing. Eight light state-machine tasks (two sleep phases
/// each, staggered durations) each fire their own [`Event`]; a
/// thread-backed aggregator waits on all eight in order, and a
/// thread-backed observer waits on the first. Light polls run on the
/// dispatcher thread, so a schedule that preempts between a poll and the
/// gate firing must still wake every waiter — the sweep asserts no lost
/// wakeups and that completion counts and the final virtual clock are
/// bitwise schedule-independent.
fn light_task_job(kernel: Kernel) -> (usize, usize, u64, u64) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use rustwren::sim::sync::Event;
    use rustwren::sim::LightStep;

    let k = kernel.clone();
    kernel.run("client", move || {
        let done = Arc::new(AtomicUsize::new(0));
        let gates: Vec<Event> = (0..8)
            .map(|i| Event::named(&k, format!("light-{i}-done")))
            .collect();
        for (i, gate) in gates.iter().cloned().enumerate() {
            let done = Arc::clone(&done);
            let mut phase = 0u8;
            rustwren_sim::spawn_light(format!("light-{i}"), move || match phase {
                0 => {
                    phase = 1;
                    LightStep::Sleep(Duration::from_millis(5 + (i as u64 % 3) * 10))
                }
                1 => {
                    phase = 2;
                    LightStep::Sleep(Duration::from_millis(20))
                }
                _ => {
                    done.fetch_add(1, Ordering::Relaxed);
                    gate.fire();
                    LightStep::Done
                }
            });
        }
        let observer = rustwren_sim::spawn("observer", {
            let gate = gates[0].clone();
            move || {
                gate.wait();
                rustwren_sim::now().as_nanos()
            }
        });
        let aggregator = rustwren_sim::spawn("aggregator", {
            let done = Arc::clone(&done);
            move || {
                for gate in &gates {
                    gate.wait();
                }
                done.load(Ordering::Relaxed)
            }
        });
        let gate_vt = observer.join();
        let all_done = aggregator.join();
        (
            all_done,
            done.load(Ordering::Relaxed),
            gate_vt,
            rustwren_sim::now().as_nanos(),
        )
    })
}

#[test]
fn light_tasks_are_schedule_independent_and_lose_no_wakeup() {
    let report = explore(light_task_job, &budget(404, "sweep-light-tasks"));
    assert!(report.ok(), "{report}");
    assert_eq!(report.schedules, SCHEDULES + 1);
}

/// The joint fault × schedule slice: a two-tenant open-loop burst against
/// resumable `serve` — every activation a light task interleaving with the
/// two preemptible driver threads — optionally with a cold-start storm
/// over the burst. Whatever the schedule, the books must balance when the
/// client is done, and that is asserted here, per schedule; the returned
/// totals are what every schedule must agree on.
///
/// Each driver also invokes `careless` once: a resumable body that calls
/// the blocking `ctx.charge`. The kernel refuses the call; the platform
/// must book that one activation as `Crashed` with the kernel's diagnostic
/// and carry on — not unwind the dispatcher it was polled on.
fn serving_burst_job(kernel: Kernel, storm: bool) -> (u64, u64, u64) {
    use std::time::Duration;

    use rustwren::faas::{
        ActionConfig, ActivationCtx, InvokeError, Outcome, Phase, PlatformConfig, TenantConfig,
    };
    use rustwren::sim::{FaultPlan, TimeWindow};
    use rustwren::workloads::serving::{
        self, Arrival, BurstWindow, TenantTraffic, TraceConfig, SERVE_FN,
    };

    const QUOTA: usize = 2;
    let traffic = [
        TenantTraffic::periodic("alpha", Duration::from_secs(2)),
        TenantTraffic::poisson("beta", 1.0).with_burst(BurstWindow {
            start: Duration::from_secs(4),
            len: Duration::from_secs(4),
            multiplier: 8.0,
        }),
    ];
    // Fixed-TTL keep-alive (the default): no prewarm task outlives the run,
    // so a light task still listed afterwards is a stranded activation.
    let mut builder = SimCloud::builder()
        .seed(7)
        .client_network(NetworkProfile::lan())
        .platform(PlatformConfig {
            concurrency_limit: 3,
            cluster_containers: 3,
            tenants: traffic
                .iter()
                .map(|t| TenantConfig::new(t.namespace.as_str(), QUOTA).queue_depth(4))
                .collect(),
            ..PlatformConfig::default()
        })
        .kernel(kernel.clone());
    if storm {
        let window = TimeWindow::between(Duration::from_secs(3), Duration::from_secs(9));
        builder = builder.chaos(FaultPlan::new(11).cold_storm(window));
    }
    let cloud = builder.build();
    let faas = cloud.functions().clone();
    serving::register(&faas).expect("register serve");
    let careless = |ctx: ActivationCtx, p: bytes::Bytes| async move {
        ctx.charge(Duration::from_millis(50)); // blocks: refused
        Ok(p)
    };
    faas.register_resumable("careless", ActionConfig::default(), careless)
        .expect("register careless");
    let horizon = Duration::from_secs(12);
    let trace = serving::generate(&traffic, &TraceConfig { horizon, seed: 7 });

    let (ok, crashed) = cloud.run(|| {
        let origin = rustwren_sim::now();
        let drivers: Vec<_> = traffic
            .iter()
            .enumerate()
            .map(|(idx, t)| {
                let arrivals: Vec<Arrival> =
                    trace.iter().filter(|a| a.tenant == idx).copied().collect();
                let (faas, ns) = (faas.clone(), t.namespace.clone());
                rustwren_sim::spawn(format!("driver-{ns}"), move || {
                    let mut ids = Vec::new();
                    let mut send =
                        |action: &str, payload| match faas.invoke_in(&ns, action, payload) {
                            Ok(id) => ids.push(id),
                            Err(InvokeError::Throttled { .. } | InvokeError::ShedLoad { .. }) => {}
                            Err(e) => panic!("driver {ns}: unexpected invoke error: {e}"),
                        };
                    send("careless", bytes::Bytes::new());
                    for a in arrivals {
                        let due = origin + a.at;
                        let now = rustwren_sim::now();
                        if due > now {
                            rustwren_sim::sleep(due.duration_since(now));
                        }
                        send(SERVE_FN, serving::payload(a.exec));
                    }
                    ids
                })
            })
            .collect();
        let (mut ok, mut crashed) = (0u64, 0u64);
        for id in drivers.into_iter().flat_map(|d| d.join()) {
            // Every wait returns, and with a finished record.
            match faas.wait(id).phase {
                Phase::Done(Outcome::Success) => ok += 1,
                Phase::Done(Outcome::Crashed(why)) => {
                    assert!(why.contains("attempted a blocking operation"), "{why}");
                    crashed += 1;
                }
                other => panic!("activation {id}: {other:?}"),
            }
        }
        (ok, crashed)
    });

    let attempted = trace.len() as u64 + traffic.len() as u64;
    let stats = faas.stats();
    assert_eq!(
        stats.completed + stats.shed + stats.throttled,
        attempted,
        "{stats:?}"
    );
    assert_eq!(stats.submitted, stats.completed, "{stats:?}");
    assert_eq!(ok + crashed, stats.completed, "every wait returned");
    assert_eq!(faas.inflight(), 0);
    assert!(
        stats.queued > 0 && stats.shed > 0,
        "the burst bites: {stats:?}"
    );
    assert_eq!(storm, cloud.chaos_stats().forced_cold_starts > 0);
    let records = faas.records();
    for t in &traffic {
        let ns = t.namespace.as_str();
        let tenant = faas.tenant_stats(ns).expect("configured tenant");
        assert_eq!(tenant.submitted, tenant.completed, "{ns}: {tenant:?}");
        assert_eq!(faas.queue_depth(ns), Some(0));
        // Never above its quota: sweep the tenant's running intervals.
        let mut edges: Vec<(rustwren::sim::SimInstant, i32)> = records
            .iter()
            .filter(|r| r.tenant.as_str() == ns)
            .flat_map(|r| [(r.started.unwrap(), 1), (r.ended.unwrap(), -1)])
            .collect();
        edges.sort();
        let peak = edges.iter().scan(0, |n, (_, d)| {
            *n += d;
            Some(*n)
        });
        assert!(peak.max().unwrap_or(0) <= QUOTA as i32, "{ns} over quota");
    }
    assert_eq!(kernel.frozen_light_tasks(), Vec::<String>::new());
    assert_eq!(kernel.stats().os_threads_spawned, traffic.len() as u64);
    (
        attempted,
        stats.completed + stats.shed + stats.throttled,
        crashed,
    )
}

#[test]
fn serving_burst_conserves_activations_under_every_schedule() {
    let report = explore(
        |kernel| serving_burst_job(kernel, false),
        &budget(505, "sweep-serving-burst"),
    );
    assert!(report.ok(), "{report}");
    assert_eq!(report.schedules, SCHEDULES + 1);
}

#[test]
fn serving_burst_conserves_activations_under_a_cold_storm_and_every_schedule() {
    let report = explore(
        |kernel| serving_burst_job(kernel, true),
        &budget(606, "sweep-serving-burst-cold-storm"),
    );
    assert!(report.ok(), "{report}");
    assert_eq!(report.schedules, SCHEDULES + 1);
}

/// What a [`light_map_job`] run is put through.
#[derive(Clone, Copy, PartialEq)]
enum Faults {
    None,
    /// COS attempts fail (through back-off, sometimes to
    /// `StoreError::Network`) and agents crash after they computed.
    Agents,
    /// Massive spawning with the first remote invoker killed before it
    /// spawns its group, from a client whose network drops a fifth of its
    /// requests (invocations and COS alike, sometimes past their retries).
    Lanes,
}

/// The joint fault × schedule slice for the light vehicle: a small `map` of
/// a resumable function, so that every agent activation — lifecycle, COS
/// round trips, the function itself — and, since PR 24, every pool lane and
/// remote invoker is a light task interleaving with the one preemptible
/// thread there is, the client's. Asserted here, per schedule: the job
/// gives the oracle's results or a typed error, and once the client has
/// also waited out every activation it caused (a retried task's earlier
/// attempt may outlive `get_result`, an invoker a failed `map`) the
/// platform's books balance, no light task — lane, invoker or agent — is
/// left registered, and no OS thread was ever started. What every schedule
/// must then agree on is only how many tasks there were.
fn light_map_job(kernel: Kernel, faults: Faults) -> usize {
    use std::time::Duration;

    use rustwren::core::{
        FaultPlan, PathScope, PywrenError, SpawnStrategy, TimeWindow, PHASE_AFTER_COMPUTE,
        PHASE_INVOKER,
    };
    use rustwren::sim::task;

    const TASKS: i64 = 6;
    let (plan, loss, spawn) = match faults {
        Faults::None => (None, 0.0, SpawnStrategy::default()),
        Faults::Agents => {
            let plan = FaultPlan::new(13)
                .cos_brownout(PathScope::prefix("jobs/"), TimeWindow::always(), 0.25)
                .crash(PHASE_AFTER_COMPUTE, TimeWindow::always(), 0.5)
                .limit_fires(3);
            (Some(plan), 0.0, SpawnStrategy::default())
        }
        Faults::Lanes => {
            let plan = FaultPlan::new(13)
                .crash(PHASE_INVOKER, TimeWindow::always(), 1.0)
                .once();
            let spawn = SpawnStrategy::RemoteInvoker {
                group_size: 2,
                invoker_threads: 2,
            };
            (Some(plan), 0.2, spawn)
        }
    };
    let mut builder = SimCloud::builder()
        .seed(7)
        .client_network(NetworkProfile::lan().with_failure_rate(loss))
        .kernel(kernel.clone());
    if let Some(plan) = plan {
        builder = builder.chaos(plan);
    }
    let cloud = builder.build();
    cloud.register_resumable_fn("add7", |ctx: TaskCtx, x: Value| async move {
        task::sleep(ctx.activation().scaled(Duration::from_millis(40))).await;
        Ok(Value::Int(x.as_i64().ok_or("int")? + 7))
    });
    let faas = cloud.functions();
    let result = cloud.run(|| {
        let exec = cloud
            .executor()
            .spawn(spawn)
            .retry(RetryPolicy {
                // What notices the tasks of the killed invoker.
                presumed_dead_after: (faults == Faults::Lanes).then_some(Duration::from_secs(5)),
                ..RetryPolicy::with_attempts(3)
            })
            .build()
            .unwrap();
        let result = exec
            .map("add7", (0..TASKS).map(Value::Int).collect::<Vec<_>>())
            .and_then(|_| exec.get_result());
        // An invoker still running starts activations of its own.
        let mut waited = 0;
        while waited < faas.records().len() {
            let records = faas.records();
            for record in &records[waited..] {
                faas.wait(record.id);
            }
            waited = records.len();
        }
        result
    });
    match result {
        Ok(values) => assert_eq!(values, (7..7 + TASKS).map(Value::Int).collect::<Vec<_>>()),
        Err(PywrenError::Task { .. } | PywrenError::Storage(_)) if faults != Faults::None => {}
        Err(PywrenError::Invoke(_)) if faults == Faults::Lanes => {}
        Err(e) => panic!("untyped or unexpected failure: {e:?}"),
    }
    let stats = faas.stats();
    assert_eq!(stats.submitted, stats.completed, "{stats:?}");
    assert_eq!(faas.inflight(), 0);
    assert_eq!(kernel.frozen_light_tasks(), Vec::<String>::new());
    let chaos = cloud.chaos_stats();
    assert_eq!(faults == Faults::Agents, chaos.cos_faults > 0);
    assert_eq!(faults == Faults::Lanes, chaos.crashes == 1 && loss > 0.0);
    // The function is resumable, the inputs plain values and the lanes
    // light: the one thread is the client's.
    assert_eq!(kernel.stats().os_threads_spawned, 0);
    TASKS as usize
}

#[test]
fn light_agents_give_the_oracles_results_under_every_schedule() {
    let report = explore(
        |kernel| light_map_job(kernel, Faults::None),
        &budget(707, "sweep-light-agents"),
    );
    assert!(report.ok(), "{report}");
    assert_eq!(report.schedules, SCHEDULES + 1);
}

#[test]
fn light_agents_conserve_activations_under_faults_and_every_schedule() {
    let report = explore(
        |kernel| light_map_job(kernel, Faults::Agents),
        &budget(808, "sweep-light-agents-faults"),
    );
    assert!(report.ok(), "{report}");
    assert_eq!(report.schedules, SCHEDULES + 1);
}

#[test]
fn light_lanes_conserve_activations_under_faults_and_every_schedule() {
    let report = explore(
        |kernel| light_map_job(kernel, Faults::Lanes),
        &budget(909, "sweep-light-lanes-faults"),
    );
    assert!(report.ok(), "{report}");
    assert_eq!(report.schedules, SCHEDULES + 1);
}

/// Threads in the token ring, and rounds the token makes.
const RING_THREADS: usize = 8;
const RING_ROUNDS: usize = 100;

/// A token ring of blocking threads: eight `spawn`ed threads pass the
/// token, one [`Event`](rustwren::sim::sync::Event) per turn, 100 times
/// around, sleeping 1–3 ms in each turn. Nearly every turn passes the
/// kernel's turn to another OS thread, woken after the kernel lock drops:
/// a wake lost there hangs the ring, and a thread that runs out of turn
/// fails the holder's check. Returns the turns taken and the virtual end.
fn token_ring_job(kernel: Kernel) -> (u64, u64) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use rustwren::sim::sync::Event;

    let turns = RING_THREADS * RING_ROUNDS;
    let k = kernel.clone();
    kernel.run("client", move || {
        let tokens: Arc<Vec<Event>> = Arc::new((0..=turns).map(|_| Event::new(&k)).collect());
        let taken = Arc::new(AtomicU64::new(0));
        let holders: Vec<_> = (0..RING_THREADS)
            .map(|i| {
                let (tokens, taken) = (Arc::clone(&tokens), Arc::clone(&taken));
                rustwren_sim::spawn(format!("ring-{i}"), move || {
                    for turn in (i..turns).step_by(RING_THREADS) {
                        tokens[turn].wait();
                        assert_eq!(taken.load(Ordering::Relaxed), turn as u64, "out of turn");
                        rustwren_sim::sleep(Duration::from_millis(1 + turn as u64 % 3));
                        taken.fetch_add(1, Ordering::Relaxed);
                        tokens[turn + 1].fire();
                    }
                })
            })
            .collect();
        tokens[0].fire();
        for holder in holders {
            holder.join();
        }
        (
            taken.load(Ordering::Relaxed),
            rustwren_sim::now().as_nanos(),
        )
    })
}

#[test]
fn token_ring_of_blocking_threads_loses_no_wakeup_under_every_schedule() {
    let fifo = Kernel::new();
    let turns = (RING_THREADS * RING_ROUNDS) as u64;
    let sleeps_ms: u64 = (0..turns).map(|turn| 1 + turn % 3).sum();
    assert_eq!(token_ring_job(fifo.clone()), (turns, sleeps_ms * 1_000_000));
    // One hand-off ends every turn (to the next holder, or last to the
    // client); one more starts the ring (the last thread to enlist hands
    // over to the first, whose sleep is due); and in the last round each
    // holder but the first sleeps while the client, joining it, runs and
    // blocks again: two more per turn.
    let rounds_end = 2 * (RING_THREADS as u64 - 1);
    assert_eq!(fifo.stats().thread_handoffs, turns + 1 + rounds_end);

    let report = explore(token_ring_job, &budget(1010, "sweep-token-ring"));
    assert!(report.ok(), "{report}");
    assert_eq!(report.schedules, SCHEDULES + 1);
}
