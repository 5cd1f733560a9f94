//! Failure-injection tests: the framework under hostile network and
//! platform conditions.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rustwren::core::{
    GetResultOpts, PywrenError, RecoveryStats, RetryPolicy, SimCloud, SpeculationConfig, TaskCtx,
    Value, WaitPolicy,
};
use rustwren::faas::PlatformConfig;
use rustwren::sim::NetworkProfile;

#[test]
fn lossy_internal_network_still_completes_jobs() {
    // Agents' COS traffic (code fetch, input fetch, result/status writes)
    // rides the internal network; give it a 5% loss rate. The COS client's
    // retries must absorb it.
    let platform = PlatformConfig {
        internal_net: NetworkProfile::datacenter().with_failure_rate(0.05),
        ..PlatformConfig::default()
    };
    let cloud = SimCloud::builder()
        .seed(31)
        .platform(platform)
        .client_network(NetworkProfile::lan())
        .build();
    cloud.register_fn("id", |_ctx: &TaskCtx, v: Value| Ok(v));
    let results = cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map("id", (0..60).map(Value::from)).unwrap();
        exec.get_result().unwrap()
    });
    assert_eq!(results.len(), 60);
}

#[test]
fn flaky_function_recovers_via_reinvoke() {
    // A function that fails its first execution per task and succeeds on
    // the rerun — the client-side retry workflow.
    let attempts = Arc::new(AtomicUsize::new(0));
    let attempts2 = Arc::clone(&attempts);
    let cloud = SimCloud::builder()
        .seed(32)
        .client_network(NetworkProfile::lan())
        .build();
    cloud.register_fn("flaky", move |_ctx: &TaskCtx, v: Value| {
        if attempts2.fetch_add(1, Ordering::Relaxed) < 3 {
            Err("transient dependency outage".into())
        } else {
            Ok(v)
        }
    });
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        let futures = exec.map("flaky", (0..3).map(Value::from)).unwrap();
        let err = exec.get_result().unwrap_err();
        assert!(matches!(err, PywrenError::Task { .. }));

        // Re-invoke everything; the second executions succeed.
        exec.reinvoke(&futures).unwrap();
        let results = exec.get_result().unwrap();
        assert_eq!(results, (0..3).map(Value::from).collect::<Vec<_>>());
    });
    assert_eq!(attempts.load(Ordering::Relaxed), 6, "each task ran twice");
}

#[test]
fn reinvoke_rejects_foreign_futures() {
    let cloud = SimCloud::builder()
        .seed(33)
        .client_network(NetworkProfile::lan())
        .build();
    cloud.register_fn("id", |_ctx: &TaskCtx, v: Value| Ok(v));
    cloud.run(|| {
        let e1 = cloud.executor().build().unwrap();
        let e2 = cloud.executor().build().unwrap();
        let futs = e1.map("id", [Value::Int(1)]).unwrap();
        let _ = e1.get_result().unwrap();
        let err = e2.reinvoke(&futs).unwrap_err();
        assert!(matches!(err, PywrenError::UnknownFunction(_)));
    });
}

#[test]
fn foreign_futures_with_aliasing_numbers_touch_nothing_of_either_executor() {
    // Job and task numbers start over in every executor, so `e2/1/t00000`
    // carries the numbers of one of e1's own tasks. e1 once took it for
    // that task: `reinvoke` deleted e2's status and result and ran e1's
    // function onto e2's keys, and the recovery pass booked e2's failure
    // against e1's record and retried it the same way.
    let cloud = SimCloud::builder()
        .seed(37)
        .client_network(NetworkProfile::lan())
        .build();
    cloud.register_fn("one", |_ctx: &TaskCtx, _: Value| Ok(Value::Int(1)));
    cloud.register_fn("two", |_ctx: &TaskCtx, _: Value| Ok(Value::Int(2)));
    cloud.register_fn("broken", |_ctx: &TaskCtx, _: Value| Err("no".into()));
    cloud.run(|| {
        let e1 = cloud
            .executor()
            .retry(RetryPolicy::with_attempts(3))
            .build()
            .unwrap();
        let e2 = cloud.executor().build().unwrap();
        e1.map("one", [Value::Null]).unwrap();
        let foreign = e2.map("two", [Value::Null]).unwrap();
        e2.wait(WaitPolicy::AllCompleted).unwrap();

        let submitted = cloud.functions().stats().submitted;
        let err = e1.reinvoke(&foreign).unwrap_err();
        assert!(matches!(err, PywrenError::UnknownFunction(_)), "{err:?}");
        assert_eq!(cloud.functions().stats().submitted, submitted);
        let f = &foreign[0];
        assert!(cloud.store().exists(f.bucket(), &f.status_key()));
        assert_eq!(e2.get_result().unwrap(), vec![Value::Int(2)]);

        // The second job of each: e2's fails, and e1 — retries on — is
        // asked to resolve it while its own job 2 is still unclassified.
        e1.map("one", [Value::Null]).unwrap();
        let foreign = e2.map("broken", [Value::Null]).unwrap();
        let err = e1.resolve(&foreign, &GetResultOpts::default()).unwrap_err();
        assert!(
            matches!(&err, PywrenError::Task { message, .. } if message.contains("no")),
            "{err:?}"
        );
        let stats = e1.recovery_stats();
        let untouched = RecoveryStats {
            lists_saved: stats.lists_saved,
            ..RecoveryStats::default()
        };
        assert_eq!(stats, untouched);
        assert_eq!(e1.get_result().unwrap(), vec![Value::Int(1); 2]);
    });
}

#[test]
fn reducer_times_out_when_maps_never_finish() {
    // Maps outlive the reducer's execution limit; the reducer must give up
    // with a clear error instead of hanging.
    let platform = PlatformConfig {
        max_exec_time: Duration::from_secs(30),
        ..PlatformConfig::default()
    };
    let cloud = SimCloud::builder()
        .seed(34)
        .platform(platform)
        .client_network(NetworkProfile::lan())
        .build();
    cloud.register_fn("eternal-map", |ctx: &TaskCtx, v: Value| {
        ctx.charge(Duration::from_secs(300));
        Ok(Value::List(vec![v]))
    });
    cloud.register_fn("reduce", |_ctx: &TaskCtx, v: Value| Ok(v));
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map_reduce(
            "eternal-map",
            rustwren::core::DataSource::Values(vec![Value::Int(1)]),
            "reduce",
            rustwren::core::MapReduceOpts::default(),
        )
        .unwrap();
        let err = exec.get_result().unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("ran out of time") || msg.contains("waiting"),
            "unexpected error: {msg}"
        );
    });
}

#[test]
fn hopeless_client_network_surfaces_invoke_errors() {
    let cloud = SimCloud::builder()
        .seed(35)
        .client_network(NetworkProfile::lan().with_failure_rate(1.0))
        .build();
    cloud.register_fn("id", |_ctx: &TaskCtx, v: Value| Ok(v));
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        // Staging to COS fails before anything is invoked.
        let err = exec.map("id", [Value::Int(1)]).unwrap_err();
        assert!(matches!(
            err,
            PywrenError::Storage(_) | PywrenError::Invoke(_)
        ));
    });
}

#[test]
fn mixed_failures_report_only_failed_tasks() {
    let cloud = SimCloud::builder()
        .seed(36)
        .client_network(NetworkProfile::lan())
        .build();
    cloud.register_fn("odd-fails", |_ctx: &TaskCtx, v: Value| {
        let n = v.as_i64().ok_or("int")?;
        if n % 2 == 1 {
            Err(format!("task {n} refused"))
        } else {
            Ok(v)
        }
    });
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        let futures = exec.map("odd-fails", (0..6).map(Value::from)).unwrap();
        assert!(exec.get_result().is_err());
        // Individual inspection via task timings: statuses exist for all,
        // with success flags telling them apart.
        let timings = exec.task_timings(&futures).unwrap();
        let failed: Vec<_> = timings.iter().filter(|t| !t.succeeded).collect();
        assert_eq!(failed.len(), 3);
    });
}

/// Registers a function that fails each task's first execution for every
/// fourth input and succeeds on any rerun, tracking executions per input.
fn register_transient(cloud: &SimCloud) -> Arc<Mutex<HashMap<i64, usize>>> {
    let executions = Arc::new(Mutex::new(HashMap::<i64, usize>::new()));
    let tracker = Arc::clone(&executions);
    cloud.register_fn("transient", move |_ctx: &TaskCtx, v: Value| {
        let n = v.as_i64().ok_or("int")?;
        let run = {
            let mut seen = tracker.lock().unwrap();
            let count = seen.entry(n).or_insert(0);
            *count += 1;
            *count
        };
        if run == 1 && n % 4 == 0 {
            Err(format!("task {n}: transient dependency outage"))
        } else {
            Ok(v)
        }
    });
    executions
}

#[test]
fn retry_policy_absorbs_transient_failures_without_reinvoke() {
    // A 50-task map over a 5%-lossy internal network, with per-task
    // transient function failures on top, completes through the automatic
    // retry policy alone — no manual reinvoke().
    let platform = PlatformConfig {
        internal_net: NetworkProfile::datacenter().with_failure_rate(0.05),
        ..PlatformConfig::default()
    };
    let cloud = SimCloud::builder()
        .seed(37)
        .platform(platform)
        .client_network(NetworkProfile::lan())
        .build();
    register_transient(&cloud);
    let (results, stats) = cloud.run(|| {
        let exec = cloud
            .executor()
            .retry(RetryPolicy::with_attempts(3))
            .build()
            .unwrap();
        exec.map("transient", (0..50).map(Value::from)).unwrap();
        let results = exec.get_result().unwrap();
        (results, exec.recovery_stats())
    });
    assert_eq!(results, (0..50).map(Value::from).collect::<Vec<_>>());
    assert!(stats.retries > 0, "failures were retried: {stats:?}");
    assert_eq!(stats.retries_exhausted, 0, "{stats:?}");
}

#[test]
fn job_retry_budget_caps_total_reinvocations() {
    // Ten always-failing tasks under a generous per-task attempt limit but
    // a job-wide budget of 3: the executor stops re-invoking after 3
    // retries instead of grinding 10 × (attempts − 1) executions against a
    // persistently sick dependency.
    let cloud = SimCloud::builder().seed(39).build();
    cloud.register_fn(
        "doomed",
        |_ctx: &TaskCtx, _v: Value| -> Result<Value, String> { Err("permanently down".into()) },
    );
    let stats = cloud.run(|| {
        let exec = cloud
            .executor()
            .retry(RetryPolicy::with_attempts(5).with_job_budget(3))
            .build()
            .unwrap();
        exec.map("doomed", (0..10).map(Value::from)).unwrap();
        let results = exec.get_result();
        assert!(results.is_err(), "doomed job must fail");
        exec.recovery_stats()
    });
    assert_eq!(stats.retries, 3, "budget caps retries: {stats:?}");
    assert!(
        stats.retries_denied_budget > 0,
        "denials are counted: {stats:?}"
    );
}

#[test]
fn recovery_is_deterministic_per_seed() {
    // Backoff jitter, straggler detection and every injected fault draw
    // from the run's seed: two identical runs must take identical recovery
    // actions, not merely both succeed.
    let run = || -> RecoveryStats {
        let platform = PlatformConfig {
            internal_net: NetworkProfile::datacenter().with_failure_rate(0.05),
            ..PlatformConfig::default()
        };
        let cloud = SimCloud::builder()
            .seed(38)
            .platform(platform)
            .client_network(NetworkProfile::lan())
            .build();
        register_transient(&cloud);
        cloud.run(|| {
            let exec = cloud
                .executor()
                .retry(RetryPolicy::with_attempts(4))
                .speculation(SpeculationConfig::on())
                .build()
                .unwrap();
            exec.map("transient", (0..50).map(Value::from)).unwrap();
            exec.get_result().unwrap();
            exec.recovery_stats()
        })
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seed, same recovery actions");
    assert!(first.total_actions() > 0, "the runs exercised recovery");
}

#[test]
fn speculative_copies_rescue_stragglers_without_corrupting_results() {
    // One task stalls ~10× longer than the rest, but only on its first
    // execution — a slow node, not a slow task. Speculation launches a
    // backup copy; whichever copy finishes first supplies the status and
    // result, and the duplicate completion must not corrupt anything.
    let cloud = SimCloud::builder()
        .seed(39)
        .client_network(NetworkProfile::lan())
        .build();
    let executions = Arc::new(Mutex::new(HashMap::<i64, usize>::new()));
    let tracker = Arc::clone(&executions);
    cloud.register_fn("sometimes-slow", move |ctx: &TaskCtx, v: Value| {
        let n = v.as_i64().ok_or("int")?;
        let run = {
            let mut seen = tracker.lock().unwrap();
            let count = seen.entry(n).or_insert(0);
            *count += 1;
            *count
        };
        if n == 59 && run == 1 {
            ctx.charge(Duration::from_secs(100));
        } else {
            ctx.charge(Duration::from_secs(2));
        }
        Ok(v)
    });
    let (results, stats) = cloud.run(|| {
        let exec = cloud
            .executor()
            .speculation(SpeculationConfig::on())
            .build()
            .unwrap();
        exec.map("sometimes-slow", (0..60).map(Value::from))
            .unwrap();
        let results = exec.get_result().unwrap();
        (results, exec.recovery_stats())
    });
    assert_eq!(results, (0..60).map(Value::from).collect::<Vec<_>>());
    assert!(stats.speculative_launches >= 1, "{stats:?}");
    assert_eq!(stats.retries, 0, "no failures, only a straggler: {stats:?}");
    let runs = executions.lock().unwrap();
    assert_eq!(runs[&59], 2, "the straggler ran exactly one backup copy");
}

// ---------------------------------------------------------------------------
// Deterministic chaos engine + end-to-end integrity: the acceptance harness.
//
// Every run below must terminate (the kernel panics on deadlock), and must
// either produce results bitwise-identical to a fault-free run at the same
// seed or fail with a clean typed error — never silently corrupted output.
// ---------------------------------------------------------------------------

use proptest::prelude::*;
use rustwren::core::{
    CorruptMode, DataSource, FaultPlan, MapReduceOpts, PathScope, SpawnStrategy, TimeWindow,
    PHASE_AFTER_COMPUTE, PHASE_AFTER_PUT, PHASE_BEFORE_RUN, PHASE_INVOKER,
};

/// Task count for the harness jobs: enough fan-out to hit every hook.
const TASKS: i64 = 24;

#[derive(Clone, Copy, Debug, PartialEq)]
enum JobKind {
    Map,
    MapReduce,
}

fn chaos_cloud(seed: u64, plan: Option<FaultPlan>) -> SimCloud {
    let mut builder = SimCloud::builder()
        .seed(seed)
        .client_network(NetworkProfile::lan());
    if let Some(plan) = plan {
        builder = builder.chaos(plan);
    }
    builder.build()
}

fn register_pure_fns(cloud: &SimCloud) {
    cloud.register_fn("square", |_ctx: &TaskCtx, v: Value| {
        let n = v.as_i64().ok_or("int")?;
        Ok(Value::Int(n * n))
    });
    cloud.register_fn("sum", |_ctx: &TaskCtx, v: Value| {
        let total: i64 = v
            .req_list("results")?
            .iter()
            .filter_map(Value::as_i64)
            .sum();
        Ok(Value::Int(total))
    });
}

/// Runs one harness job on `cloud`, returning its results and the
/// executor's recovery counters.
fn run_job(
    cloud: &SimCloud,
    kind: JobKind,
    retry: RetryPolicy,
) -> rustwren::core::Result<(Vec<Value>, RecoveryStats)> {
    register_pure_fns(cloud);
    cloud.run(|| {
        let exec = cloud.executor().retry(retry).build()?;
        match kind {
            JobKind::Map => {
                exec.map("square", (0..TASKS).map(Value::from))?;
            }
            JobKind::MapReduce => {
                exec.map_reduce(
                    "square",
                    DataSource::Values((0..TASKS).map(Value::from).collect()),
                    "sum",
                    MapReduceOpts::default(),
                )?;
            }
        }
        let results = exec.get_result()?;
        Ok((results, exec.recovery_stats()))
    })
}

/// The fault-free reference output for `kind` at `seed`.
fn fault_free(seed: u64, kind: JobKind) -> Vec<Value> {
    let cloud = chaos_cloud(seed, None);
    run_job(&cloud, kind, RetryPolicy::disabled())
        .expect("fault-free run succeeds")
        .0
}

/// A recovery policy generous enough to outlast every sweep plan.
fn sweep_retry() -> RetryPolicy {
    RetryPolicy {
        presumed_dead_after: Some(Duration::from_secs(10)),
        ..RetryPolicy::with_attempts(8)
    }
}

/// The fault schedules swept by the acceptance harness, seeded per run.
fn sweep_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "brownout",
            FaultPlan::new(seed).cos_brownout(
                PathScope::any(),
                TimeWindow::between(Duration::ZERO, Duration::from_secs(30)),
                0.25,
            ),
        ),
        (
            "outage",
            FaultPlan::new(seed).cos_outage(
                PathScope::prefix("jobs/"),
                TimeWindow::between(Duration::from_secs(2), Duration::from_secs(4)),
            ),
        ),
        (
            "corruption",
            FaultPlan::new(seed)
                .corrupt_get(
                    PathScope::prefix("jobs/"),
                    TimeWindow::always(),
                    CorruptMode::FlipByte,
                    0.2,
                )
                .corrupt_get(
                    PathScope::prefix("jobs/"),
                    TimeWindow::always(),
                    CorruptMode::Truncate,
                    0.1,
                ),
        ),
        (
            "crashes",
            FaultPlan::new(seed)
                .crash(PHASE_BEFORE_RUN, TimeWindow::always(), 0.15)
                .crash(PHASE_AFTER_COMPUTE, TimeWindow::always(), 0.1)
                .crash(PHASE_AFTER_PUT, TimeWindow::always(), 0.1)
                .cold_storm(TimeWindow::between(Duration::ZERO, Duration::from_secs(10))),
        ),
    ]
}

/// The sweep's seed matrix: three baked-in seeds, plus an optional extra
/// from `RUSTWREN_CHAOS_SEED` so CI can fan the sweep out over fresh seeds
/// without touching the source.
fn sweep_seeds() -> Vec<u64> {
    let mut seeds = vec![41u64, 42, 43];
    if let Some(extra) = std::env::var("RUSTWREN_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    {
        if !seeds.contains(&extra) {
            seeds.push(extra);
        }
    }
    seeds
}

#[test]
fn chaos_sweep_terminates_with_identical_results_or_typed_errors() {
    let mut runs = 0u32;
    let mut successes = 0u32;
    let mut faults = 0u64;
    let seeds = sweep_seeds();
    for seed in seeds.iter().copied() {
        for kind in [JobKind::Map, JobKind::MapReduce] {
            let expected = fault_free(seed, kind);
            for (name, plan) in sweep_plans(seed) {
                runs += 1;
                let cloud = chaos_cloud(seed, Some(plan));
                let outcome = run_job(&cloud, kind, sweep_retry());
                faults += cloud.chaos_stats().total();
                match outcome {
                    Ok((results, _)) => {
                        assert_eq!(
                            results, expected,
                            "seed {seed} plan {name} {kind:?}: silent corruption"
                        );
                        successes += 1;
                    }
                    Err(e) => {
                        // A typed error is an acceptable outcome; garbage
                        // results or a hang are not.
                        eprintln!("seed {seed} plan {name} {kind:?}: {e}");
                        assert!(
                            !e.to_string().is_empty(),
                            "seed {seed} plan {name} {kind:?}"
                        );
                    }
                }
            }
        }
    }
    assert_eq!(runs, seeds.len() as u32 * 2 * 4);
    assert!(faults > 0, "the sweep injected faults");
    assert!(
        successes * 4 >= runs * 3,
        "recovery healed most runs: {successes}/{runs}"
    );
}

#[test]
fn fault_timeline_replays_exactly_for_same_seed_and_plan() {
    let mk_plan = || {
        FaultPlan::new(77)
            .cos_brownout(
                PathScope::any(),
                TimeWindow::between(Duration::ZERO, Duration::from_secs(20)),
                0.3,
            )
            .corrupt_get(
                PathScope::prefix("jobs/"),
                TimeWindow::always(),
                CorruptMode::FlipByte,
                0.15,
            )
            .crash(PHASE_BEFORE_RUN, TimeWindow::always(), 0.1)
    };
    // The property under test is *replay*, not survival: whether the run
    // heals or dies with a typed error, the second run must do exactly the
    // same thing at exactly the same virtual instants. MapReduce exercises
    // paths a plain map never touches (reducer agents polling and fetching
    // map results mid-fault), so both job shapes are pinned.
    for kind in [JobKind::Map, JobKind::MapReduce] {
        let run = || {
            let cloud = chaos_cloud(9, Some(mk_plan()));
            let outcome = run_job(&cloud, kind, sweep_retry())
                .map(|(results, _)| results)
                .map_err(|e| e.to_string());
            (outcome, cloud.fault_log(), cloud.chaos_stats())
        };
        let (outcome1, log1, stats1) = run();
        let (outcome2, log2, stats2) = run();
        assert!(!log1.is_empty(), "the plan fired ({kind:?})");
        assert_eq!(log1, log2, "same seed + plan, same fault timeline");
        assert_eq!(stats1, stats2);
        assert_eq!(outcome1, outcome2);
    }
}

#[test]
fn integrity_faults_are_counted_and_healed() {
    // The seed must make at least one object fail all three reads of the
    // lowest-level verified read (1 in 64 at this rate), or every fault
    // heals below the counters asserted on. 61 did until PR 16 re-rolled
    // the jitter (and with it every time-derived fault draw); 63 does now.
    let seed = 63;
    let expected = fault_free(seed, JobKind::Map);
    let plan = FaultPlan::new(seed).corrupt_get(
        PathScope::prefix("jobs/"),
        TimeWindow::always(),
        CorruptMode::FlipByte,
        0.25,
    );
    let cloud = chaos_cloud(seed, Some(plan));
    let (results, stats) =
        run_job(&cloud, JobKind::Map, RetryPolicy::with_attempts(6)).expect("corruption healed");
    assert_eq!(results, expected, "healed run matches the baseline");
    assert!(cloud.chaos_stats().corruptions > 0);
    assert_eq!(stats.faults_injected, cloud.chaos_stats().total());
    assert!(
        stats.integrity_retries + stats.retries > 0,
        "corrupted reads were detected and recovered: {stats:?}"
    );
}

#[test]
fn total_corruption_surfaces_typed_integrity_error_not_garbage() {
    let plan = FaultPlan::new(62).corrupt_get(
        PathScope::prefix("jobs/"),
        TimeWindow::always(),
        CorruptMode::FlipByte,
        1.0,
    );
    let cloud = chaos_cloud(62, Some(plan));
    register_pure_fns(&cloud);
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map("square", (0..4).map(Value::from)).unwrap();
        let err = exec.get_result().unwrap_err();
        assert!(
            matches!(err, PywrenError::Integrity { .. }),
            "typed integrity error, got: {err}"
        );
        assert!(exec.recovery_stats().integrity_failures > 0);
    });
}

#[test]
fn invoker_kill_is_presumed_dead_and_respawned() {
    let seed = 55;
    let expected = fault_free(seed, JobKind::Map);
    let plan = FaultPlan::new(seed)
        .crash(PHASE_INVOKER, TimeWindow::always(), 1.0)
        .once();
    let cloud = chaos_cloud(seed, Some(plan));
    register_pure_fns(&cloud);
    let (results, stats) = cloud.run(|| {
        let exec = cloud
            .executor()
            .spawn(SpawnStrategy::RemoteInvoker {
                group_size: 8,
                invoker_threads: 2,
            })
            .retry(RetryPolicy {
                presumed_dead_after: Some(Duration::from_secs(5)),
                ..RetryPolicy::with_attempts(3)
            })
            .build()
            .unwrap();
        exec.map("square", (0..TASKS).map(Value::from)).unwrap();
        (exec.get_result().unwrap(), exec.recovery_stats())
    });
    assert_eq!(results, expected);
    assert_eq!(cloud.chaos_stats().crashes, 1, "exactly one invoker died");
    assert!(
        stats.retries >= 1,
        "the dead invoker's tasks were respawned: {stats:?}"
    );
}

#[test]
fn clean_deletes_staged_objects_and_counts_them() {
    let cloud = chaos_cloud(60, None);
    register_pure_fns(&cloud);
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map("square", (0..5).map(Value::from)).unwrap();
        exec.get_result().unwrap();
        let deleted = exec.clean().unwrap();
        assert!(deleted > 0, "the job staged objects");
        assert_eq!(exec.recovery_stats().cleaned_objects, deleted as u64);
        assert_eq!(exec.clean().unwrap(), 0, "nothing left to delete");
    });
}

/// Regression for the hot-path unwrap pay-down: corruption retries can no
/// longer heal when *every* GET under `jobs/` is truncated forever, so the
/// run must end in a typed [`PywrenError`] at the client — never a panic
/// out of the agent, gather, or stats paths (which used to `unwrap` on
/// exactly these reads).
#[test]
fn unhealable_corruption_is_a_typed_error_not_a_panic() {
    let plan = FaultPlan::new(97).corrupt_get(
        PathScope::prefix("jobs/"),
        TimeWindow::always(),
        CorruptMode::Truncate,
        1.0,
    );
    let cloud = chaos_cloud(97, Some(plan));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_job(&cloud, JobKind::Map, RetryPolicy::with_attempts(2))
    }));
    let result = outcome.expect("unhealable corruption must surface as Err, not a panic");
    let err = result.expect_err("no results can survive total corruption");
    match &err {
        PywrenError::Integrity { .. } | PywrenError::Task { .. } => {}
        other => panic!("expected an Integrity or Task error, got: {other}"),
    }
    assert!(cloud.chaos_stats().total() > 0, "the plan fired");
}

/// One fault of the given kind, armed to fire exactly once at `t`.
fn single_fault_plan(seed: u64, kind: u32, t: Duration) -> FaultPlan {
    let window = TimeWindow::between(t, t + Duration::from_secs(1));
    let open_ended = TimeWindow::starting_at(t);
    let plan = FaultPlan::new(seed);
    match kind {
        0 => plan.cos_outage(PathScope::any(), window).once(),
        1 => plan.cos_brownout(PathScope::any(), window, 1.0).once(),
        2 => plan
            .corrupt_get(
                PathScope::prefix("jobs/"),
                open_ended,
                CorruptMode::FlipByte,
                1.0,
            )
            .once(),
        3 => plan
            .corrupt_get(
                PathScope::prefix("jobs/"),
                open_ended,
                CorruptMode::Truncate,
                1.0,
            )
            .once(),
        4 => plan.crash(PHASE_BEFORE_RUN, open_ended, 1.0).once(),
        5 => plan.crash(PHASE_AFTER_COMPUTE, open_ended, 1.0).once(),
        6 => plan.crash(PHASE_AFTER_PUT, open_ended, 1.0).once(),
        _ => plan.cold_storm(TimeWindow::between(t, t + Duration::from_secs(5))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any single injected fault — every kind, at an arbitrary firing time —
    /// with recovery enabled yields results identical to the fault-free
    /// baseline at the same seed.
    #[test]
    fn any_single_fault_is_absorbed(kind in 0u32..8, at_secs in 0u64..20, seed in 100u64..200) {
        let plan = single_fault_plan(seed, kind, Duration::from_secs(at_secs));
        let expected = fault_free(seed, JobKind::Map);
        let cloud = chaos_cloud(seed, Some(plan));
        let retry = RetryPolicy {
            presumed_dead_after: Some(Duration::from_secs(8)),
            ..RetryPolicy::with_attempts(4)
        };
        let (results, _) = run_job(&cloud, JobKind::Map, retry)
            .expect("a single fault with recovery enabled is always absorbed");
        prop_assert_eq!(results, expected);
    }
}
