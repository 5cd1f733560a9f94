//! Vehicle equivalence for the agent: one implementation, two ways to run
//! a user function.
//!
//! Every scenario runs the same jobs twice on fresh clouds under FIFO —
//! once with the user functions registered blocking (`register_fn`: each
//! call asks for an OS thread before the function runs), once resumable
//! (`register_resumable_fn`: a task of any kind — map, partition, reduce,
//! shuffle map with its combiner, shuffle reduce — never leaves its light
//! task) — and everything an observer can see must
//! agree: results or errors, every activation record, the platform's
//! counters, the COS operations of each phase, recovery counters, the bill,
//! the fault timeline, the final clock and the kernel's own counters (all
//! but the two that count the vehicle itself). `crates/faas/tests/vehicles.rs`
//! does the same for the activation lifecycle beneath.

use std::time::Duration;

use bytes::Bytes;
use rustwren_core::{
    CorruptMode, CosOpStats, DataSource, Executor, FaultPlan, FaultRecord, GetResultOpts,
    MapReduceOpts, PathScope, RecoveryStats, RetryPolicy, ShuffleOpts, SimCloud, SpawnStrategy,
    TaskCtx, TimeWindow, Value, PHASE_AFTER_COMPUTE, PHASE_AFTER_PUT, PHASE_BEFORE_RUN,
};
use rustwren_faas::{
    ActivationRecord, BillingReport, Outcome, Phase, PlatformConfig, PlatformStats,
};
use rustwren_sim::{task, KernelStats, NetworkProfile, SimInstant};

/// A test function's behaviour, apart from how it charges its time: how
/// long to charge, then what to return. Panics where the function should.
type Behaviour = fn(Value) -> (Duration, Result<Value, String>);

/// `map` tasks: `{"x", "mode"}` → `x + 1`, an error, a panic, or a result
/// too big to ride inside the status object.
fn work(v: Value) -> (Duration, Result<Value, String>) {
    let x = v.get("x").and_then(Value::as_i64).unwrap_or(0);
    let result = match v.get("mode").and_then(Value::as_str) {
        Some("fail") => Err(format!("no such city: {x}")),
        Some("panic") => panic!("segfault simulation {x}"),
        Some("big") => Ok(Value::bytes(vec![x as u8; 100 * 1024])),
        _ => Ok(Value::Int(x + 1)),
    };
    (Duration::from_millis(200 + 10 * x as u64), result)
}

/// Partition tasks: `{"data"}` → byte count.
fn count(v: Value) -> (Duration, Result<Value, String>) {
    let n = v.get("data").and_then(Value::as_bytes).map(<[u8]>::len);
    let n = n.ok_or("no data".to_owned());
    (Duration::from_millis(300), n.map(|n| Value::Int(n as i64)))
}

/// Reduce tasks: `{"results"}` → their sum.
fn sum(v: Value) -> (Duration, Result<Value, String>) {
    let total = v.req_list("results").map(|r| {
        let total: i64 = r.iter().filter_map(Value::as_i64).sum();
        Value::Int(total)
    });
    (Duration::from_millis(50), total)
}

/// Shuffle map: `{"data"}` → one `{k, v: 1}` pair per word.
fn words(v: Value) -> (Duration, Result<Value, String>) {
    let text = v.get("data").and_then(Value::as_bytes).unwrap_or_default();
    let pairs = String::from_utf8_lossy(text)
        .split_whitespace()
        .map(|w| Value::map().with("k", w).with("v", 1i64))
        .collect();
    (Duration::from_millis(150), Ok(Value::List(pairs)))
}

/// Combiner and shuffle reducer in one: sums `vs`, or every group.
fn add_up(v: Value) -> (Duration, Result<Value, String>) {
    let total = |vs: &Value| -> i64 {
        vs.as_list()
            .into_iter()
            .flatten()
            .filter_map(Value::as_i64)
            .sum()
    };
    let out = match (v.get("vs"), v.get("groups").and_then(Value::as_map)) {
        (Some(vs), _) => Value::Int(total(vs)),
        (None, Some(groups)) => Value::Map(
            groups
                .iter()
                .map(|(k, vs)| (k.clone(), Value::Int(total(vs))))
                .collect(),
        ),
        _ => return (Duration::ZERO, Err("neither `vs` nor `groups`".into())),
    };
    (Duration::from_millis(20), Ok(out))
}

const FUNCTIONS: [(&str, Behaviour); 5] = [
    ("work", work),
    ("count", count),
    ("sum", sum),
    ("words", words),
    ("add-up", add_up),
];

fn register(cloud: &SimCloud, resumable: bool) {
    for (name, behaviour) in FUNCTIONS {
        if resumable {
            cloud.register_resumable_fn(name, move |ctx: TaskCtx, v: Value| async move {
                let (d, result) = behaviour(v);
                task::sleep(ctx.activation().scaled(d)).await;
                result
            });
        } else {
            cloud.register_fn(name, move |ctx: &TaskCtx, v: Value| {
                let (d, result) = behaviour(v);
                ctx.charge(d);
                result
            });
        }
    }
}

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per job, its results or the error `get_result` gave.
    jobs: Vec<Result<Vec<Value>, String>>,
    records: Vec<ActivationRecord>,
    platform: PlatformStats,
    cos: CosOpStats,
    recovery: RecoveryStats,
    billing: BillingReport,
    faults: Vec<FaultRecord>,
    now: SimInstant,
    /// `light_polls` and `os_threads_spawned` zeroed: they count the
    /// vehicle, which is the one thing meant to differ.
    kernel: KernelStats,
}

#[derive(Default)]
struct Setup {
    chaos: Option<FaultPlan>,
    retry: Option<RetryPolicy>,
    /// Few enough that containers are reused warm within one job.
    containers: Option<usize>,
}

type Jobs<'a> = &'a dyn Fn(&Executor) -> Vec<Result<Vec<Value>, String>>;

fn run(resumable: bool, setup: &Setup, jobs: Jobs<'_>) -> (Observed, KernelStats) {
    let mut platform = PlatformConfig::default();
    if let Some(n) = setup.containers {
        platform.cluster_containers = n;
    }
    let mut builder = SimCloud::builder()
        .seed(23)
        .platform(platform)
        .client_network(NetworkProfile::lan());
    if let Some(plan) = &setup.chaos {
        builder = builder.chaos(plan.clone());
    }
    let cloud = builder.build();
    register(&cloud, resumable);
    let store = cloud.store();
    store.create_bucket("docs").expect("fresh bucket");
    for (key, text) in [
        ("a.txt", "apple banana apple\ncherry banana apple\n"),
        ("b.txt", "banana date\napple date fig\n"),
    ] {
        let text = text.repeat(40);
        store.put("docs", key, Bytes::from(text)).expect("staged");
    }
    let (jobs, cos, recovery) = cloud.run(|| {
        let mut builder = cloud.executor();
        if let Some(retry) = &setup.retry {
            builder = builder.retry(retry.clone());
        }
        let exec = builder.build().expect("executor");
        let jobs = jobs(&exec);
        // Whatever a failed or retried task left behind runs out.
        rustwren_sim::sleep(Duration::from_secs(120));
        (jobs, exec.cos_op_stats(), exec.recovery_stats())
    });
    let faas = cloud.functions();
    assert_eq!(faas.inflight(), 0, "every activation finished");
    assert!(cloud.kernel().frozen_light_tasks().is_empty());
    let stats = cloud.kernel().stats();
    let observed = Observed {
        jobs,
        records: faas.records(),
        platform: faas.stats(),
        cos,
        recovery,
        billing: faas.billing_report(),
        faults: cloud.fault_log(),
        now: cloud.kernel().now(),
        kernel: KernelStats {
            light_polls: 0,
            os_threads_spawned: 0,
            ..stats
        },
    };
    (observed, stats)
}

/// Runs `jobs` with blocking and with resumable functions, asserts the two
/// runs agree, and returns what both observed plus each run's raw kernel
/// counters (blocking first).
fn on_both_vehicles(
    setup: Setup,
    jobs: impl Fn(&Executor) -> Vec<Result<Vec<Value>, String>>,
) -> (Observed, [KernelStats; 2]) {
    let (blocking, blocking_stats) = run(false, &setup, &jobs);
    let (resumable, resumable_stats) = run(true, &setup, &jobs);
    assert_eq!(blocking, resumable, "blocking vs resumable functions");
    (resumable, [blocking_stats, resumable_stats])
}

fn finish(exec: &Executor) -> Result<Vec<Value>, String> {
    exec.get_result().map_err(|e| e.to_string())
}

fn inputs(n: i64, mode: &str) -> Vec<Value> {
    (0..n)
        .map(|x| Value::map().with("x", x).with("mode", mode))
        .collect()
}

fn map_job(exec: &Executor, n: i64, mode: &str) -> Result<Vec<Value>, String> {
    exec.map("work", inputs(n, mode)).expect("submits");
    finish(exec)
}

/// How many of the activations were the agent's.
fn agents(seen: &Observed) -> u64 {
    let agent = |r: &&ActivationRecord| r.action.starts_with("rustwren-agent");
    seen.records.iter().filter(agent).count() as u64
}

fn word_count(exec: &Executor) -> Result<Vec<Value>, String> {
    exec.map_shuffle_reduce(
        "words",
        DataSource::bucket("docs"),
        "add-up",
        ShuffleOpts {
            reducers: 3,
            chunk_size: Some(1_000),
            combiner: Some("add-up".into()),
            ..ShuffleOpts::default()
        },
    )
    .expect("submits");
    finish(exec)
}

fn outcomes(seen: &Observed) -> Vec<&Outcome> {
    seen.records
        .iter()
        .map(|r| match &r.phase {
            Phase::Done(o) => o,
            other => panic!("activation {} still {other:?}", r.id),
        })
        .collect()
}

#[test]
fn every_job_shape_runs_the_same_on_either_vehicle() {
    let (seen, [blocking, resumable]) = on_both_vehicles(Setup::default(), |exec| {
        let map = map_job(exec, 12, "ok");
        exec.map_reduce(
            "count",
            DataSource::bucket("docs"),
            "sum",
            MapReduceOpts {
                chunk_size: Some(500),
                ..MapReduceOpts::default()
            },
        )
        .expect("submits");
        let map_reduce = finish(exec);
        vec![map, map_reduce, word_count(exec)]
    });
    assert_eq!(seen.jobs[0], Ok((1..=12).map(Value::Int).collect()));
    assert_eq!(seen.jobs[1], Ok(vec![Value::Int(40 * (39 + 27))]));
    let words: i64 = seen.jobs[2]
        .as_ref()
        .expect("shuffle finished")
        .iter()
        .flat_map(|r| r.as_map().expect("a reducer's map").values())
        .filter_map(Value::as_i64)
        .sum();
    assert_eq!(words, 40 * 11);
    assert!(outcomes(&seen).iter().all(|o| o.is_success()));
    // The count that is the point: with blocking functions every agent
    // activation ends up on a thread, for the call; with resumable ones
    // none does, whatever the kind: 12 `map` tasks, the partition maps and
    // their reducer, the shuffle maps with their combiner and the three
    // shuffle reducers.
    assert!(agents(&seen) > 12 + 3);
    assert_eq!(
        blocking.os_threads_spawned - resumable.os_threads_spawned,
        agents(&seen)
    );
    assert!(resumable.light_polls > blocking.light_polls);
}

/// A reducer waits out its maps — a LIST per poll, then a status GET per
/// map — without a thread to park: of the nine agents here none takes one.
#[test]
fn a_resumable_reducer_over_eight_maps_holds_no_thread() {
    let (seen, [blocking, resumable]) = on_both_vehicles(Setup::default(), |exec| {
        let source = DataSource::Values(inputs(8, "ok"));
        exec.map_reduce("work", source, "sum", MapReduceOpts::default())
            .expect("submits");
        vec![finish(exec)]
    });
    assert_eq!(seen.jobs[0], Ok(vec![Value::Int((1..=8).sum())]));
    assert_eq!(agents(&seen), 9);
    assert_eq!(
        blocking.os_threads_spawned - resumable.os_threads_spawned,
        9
    );
}

#[test]
fn failing_panicking_and_oversized_results_agree() {
    let (seen, _) = on_both_vehicles(Setup::default(), |exec| {
        vec![
            map_job(exec, 3, "fail"),
            map_job(exec, 3, "panic"),
            map_job(exec, 3, "big"),
        ]
    });
    let fail = seen.jobs[0].as_ref().expect_err("the function failed");
    assert!(fail.contains("no such city"), "{fail}");
    let panic = seen.jobs[1].as_ref().expect_err("the function panicked");
    assert!(
        panic.contains("function panicked: segfault simulation"),
        "{panic}"
    );
    // Above `INLINE_MAX_BYTES`: each went through its own result object.
    let big = seen.jobs[2].as_ref().expect("big results arrive");
    assert_eq!(big[2], Value::bytes(vec![2u8; 100 * 1024]));
    assert!(seen.cos.agent.bytes_out > 3 * 100 * 1024);
}

#[test]
fn crash_points_fire_at_the_same_three_phases() {
    for phase in [PHASE_BEFORE_RUN, PHASE_AFTER_COMPUTE, PHASE_AFTER_PUT] {
        let setup = Setup {
            chaos: Some(
                FaultPlan::new(5)
                    .crash(phase, TimeWindow::always(), 1.0)
                    .limit_fires(2),
            ),
            retry: Some(RetryPolicy::with_attempts(3)),
            ..Setup::default()
        };
        let (seen, _) = on_both_vehicles(setup, |exec| vec![map_job(exec, 6, "ok")]);
        assert_eq!(
            seen.jobs[0],
            Ok((1..=6).map(Value::Int).collect()),
            "{phase}"
        );
        let crashed = outcomes(&seen)
            .iter()
            .filter(|o| matches!(o, Outcome::Crashed(m) if m.contains(phase)))
            .count();
        assert_eq!(crashed, 2, "{phase}");
        assert_eq!(seen.recovery.retries, 2, "{phase}");
    }
}

#[test]
fn cos_failures_back_off_to_a_network_error_on_either_vehicle() {
    // The agents boot at about 2.1 s (image pull, cold start): their
    // function GETs fall inside the outage, all four attempts of each, and
    // so do the PUTs of the error statuses that would have said so.
    let outage = TimeWindow::between(Duration::from_secs(2), Duration::from_secs(4));
    let setup = Setup {
        chaos: Some(FaultPlan::new(7).cos_outage(PathScope::prefix("jobs/"), outage)),
        retry: Some(RetryPolicy::with_attempts(4)),
        ..Setup::default()
    };
    let (seen, _) = on_both_vehicles(setup, |exec| vec![map_job(exec, 4, "ok")]);
    assert_eq!(seen.jobs[0], Ok((1..=4).map(Value::Int).collect()));
    let gave_up = outcomes(&seen)
        .iter()
        .filter(|o| matches!(o, Outcome::Failed(m) if m.contains("after 4 attempt(s)")))
        .count();
    assert!(gave_up >= 4, "{:?}", outcomes(&seen));
    assert!(!seen.faults.is_empty());
}

#[test]
fn corrupted_reads_and_poisoned_cache_entries_heal_on_either_vehicle() {
    let setup = Setup {
        chaos: Some(
            FaultPlan::new(11)
                .corrupt_get(
                    PathScope::prefix("jobs/"),
                    TimeWindow::always(),
                    CorruptMode::FlipByte,
                    0.2,
                )
                .poison_cache(PathScope::prefix("jobs/"), TimeWindow::always(), 0.5),
        ),
        retry: Some(RetryPolicy::with_attempts(3)),
        containers: Some(4),
    };
    let (seen, _) = on_both_vehicles(setup, |exec| vec![map_job(exec, 24, "ok")]);
    assert_eq!(seen.jobs[0], Ok((1..=24).map(Value::Int).collect()));
    assert!(seen.platform.blob_cache_hits > 0, "{:?}", seen.platform);
    assert!(seen.platform.blob_cache_heals > 0, "{:?}", seen.platform);
    let corrupted = seen
        .faults
        .iter()
        .filter(|f| f.what.contains("corrupt"))
        .count();
    assert!(corrupted > 0, "{:?}", seen.faults);
}

/// A function registered resumable that blocks anyway is refused by the
/// kernel at the call, and the agent reports it as it reports any panic in
/// a user function: the task fails, the activation and the client do not.
#[test]
fn a_resumable_function_that_blocks_fails_its_task_only() {
    let cloud = SimCloud::builder()
        .seed(3)
        .client_network(NetworkProfile::lan())
        .build();
    cloud.register_resumable_fn("careless", |ctx: TaskCtx, v: Value| async move {
        ctx.charge(Duration::from_millis(10));
        Ok(v)
    });
    let err = cloud.run(|| {
        let exec = cloud.executor().build().expect("executor");
        exec.map("careless", [Value::Int(1)]).expect("submits");
        exec.get_result().expect_err("the task failed")
    });
    let err = err.to_string();
    assert!(err.contains("function panicked"), "{err}");
    assert!(
        err.contains("attempted a blocking operation (sleep)"),
        "{err}"
    );
    let records = cloud.functions().records();
    let agent = records.last().expect("the agent activation");
    assert!(
        matches!(&agent.phase, Phase::Done(Outcome::Failed(_))),
        "{:?}",
        agent.phase
    );
    assert_eq!(
        cloud.kernel().stats().os_threads_spawned,
        0,
        "nothing asked for one: the client's lanes are light too"
    );
}

/// A fan-out of `compute` tasks — `map_fanout` in small — runs on the
/// client's thread alone, however it is spawned: the agents, the remote
/// invokers and every pool lane (`spawn-*`, `invoker-*`, `results-*`) are
/// light tasks.
#[test]
fn a_map_of_compute_tasks_starts_no_thread_at_all() {
    let direct = SpawnStrategy::Direct { client_threads: 5 };
    for (spawn, invokers) in [(SpawnStrategy::massive(), 3), (direct, 0)] {
        let cloud = SimCloud::builder()
            .seed(3)
            .client_network(NetworkProfile::lan())
            .build();
        rustwren_workloads::compute::register(&cloud);
        let results = cloud.run(|| {
            let exec = cloud.executor().spawn(spawn).build().expect("executor");
            let inputs = (0..300).map(|_| rustwren_workloads::compute::input(1.0));
            exec.map(rustwren_workloads::compute::COMPUTE_FN, inputs)
                .expect("submits");
            exec.get_result().expect("finishes")
        });
        assert_eq!(results, vec![Value::Float(1.0); 300]);
        let stats = cloud.kernel().stats();
        assert_eq!(stats.os_threads_spawned, 0, "{stats:?}");
        assert_eq!(cloud.functions().stats().completed, 300 + invokers);
        assert!(stats.light_polls >= 300 * 4, "{stats:?}");
    }
}

/// Composition: a result that is a future set is awaited in place, in the
/// `results-*` lane that meets it — a light task, so the only threads are
/// the ones `delegate`, a blocking function, asks for — and at the same
/// virtual instants as when the lane took a thread to wait.
#[test]
fn a_results_lane_awaits_a_future_set_without_a_thread() {
    let run_with = |nested: i64| {
        let cloud = SimCloud::builder()
            .seed(3)
            .client_network(NetworkProfile::lan())
            .build();
        register(&cloud, true);
        cloud.register_fn("delegate", move |ctx: &TaskCtx, v: Value| {
            let x = v.as_i64().ok_or("int")?;
            if x >= nested {
                return Ok(Value::Int(x + 1));
            }
            let exec = ctx.executor().map_err(|e| e.to_string())?;
            let sub = exec.map("work", inputs(2, "ok"));
            Ok(ctx.futures_value(&sub.map_err(|e| e.to_string())?))
        });
        let results = cloud.run(|| {
            let exec = cloud.executor().build().expect("executor");
            exec.map("delegate", (0..4).map(Value::Int))
                .expect("submits");
            exec.get_result().expect("finishes")
        });
        let sub = Value::List(vec![Value::Int(1), Value::Int(2)]);
        let expected = (0..4).map(|x| {
            if x < nested {
                sub.clone()
            } else {
                Value::Int(x + 1)
            }
        });
        assert_eq!(results, expected.collect::<Vec<_>>());
        let threads = cloud.kernel().stats().os_threads_spawned;
        (threads, cloud.kernel().now().as_nanos())
    };
    // `delegate`'s four agents take a thread each; nothing else does.
    assert_eq!(run_with(0), (4, 2_665_133_461));
    assert_eq!(run_with(2), (4, 4_757_354_015));
}

/// The sequence driver is resumable: a chain of resumable stages runs on
/// the client's thread alone, and ends with the value, at the instant, it
/// did when every driver took a thread.
#[test]
fn a_sequence_of_resumable_stages_starts_no_thread() {
    let cloud = SimCloud::builder()
        .seed(3)
        .client_network(NetworkProfile::lan())
        .build();
    for (name, k) in [("add7", 7), ("double", 2), ("negate", -1)] {
        cloud.register_resumable_fn(name, move |ctx: TaskCtx, v: Value| async move {
            let x = v.as_i64().ok_or("int")?;
            task::sleep(ctx.activation().scaled(Duration::from_millis(100))).await;
            Ok(Value::Int(if k == 7 { x + 7 } else { x * k }))
        });
    }
    let results = cloud.run(|| {
        let exec = cloud.executor().build().expect("executor");
        exec.call_sequence(&["add7", "double", "negate"], Value::Int(3))
            .expect("submits");
        exec.get_result().expect("finishes")
    });
    assert_eq!(results, vec![Value::Int(-20)]);
    assert_eq!(cloud.kernel().now().as_nanos(), 6_334_559_819);
    let stats = cloud.kernel().stats();
    assert_eq!(stats.os_threads_spawned, 0, "{stats:?}");
}

/// A node of a composed tree: `{"x", "depth"}`; its two children are
/// `2x+1` and `2x+2`, one level down.
fn tree_node(v: &Value) -> Result<(i64, i64, [Value; 2]), String> {
    let (x, depth) = (v.req_i64("x")?, v.req_i64("depth")?);
    let child = |x: i64| Value::map().with("x", x).with("depth", depth - 1);
    Ok((x, depth, [child(2 * x + 1), child(2 * x + 2)]))
}

/// Composition under both registrations: a depth-2 tree (seven
/// activations) whose inner nodes map their two children and gather them —
/// blocking on `map`/`resolve`, or resumable on `map_async`/`resolve_async`.
/// Both give the same results, activation records, final clock and kernel
/// counters but the vehicle's own; only the blocking nodes take threads.
#[test]
fn a_composed_tree_runs_the_same_under_either_registration() {
    const TICK: Duration = Duration::from_millis(100);
    let run = |resumable: bool| {
        let cloud = SimCloud::builder()
            .seed(3)
            .client_network(NetworkProfile::lan())
            .build();
        if resumable {
            cloud.register_resumable_fn("tree", |ctx: TaskCtx, v: Value| async move {
                let (x, depth, children) = tree_node(&v)?;
                let mut sum = x;
                if depth > 0 {
                    let exec = ctx.executor().map_err(|e| e.to_string())?;
                    let futures = exec
                        .map_async("tree", children)
                        .await
                        .map_err(|e| e.to_string())?;
                    let results = exec
                        .resolve_async(&futures, &GetResultOpts::default())
                        .await
                        .map_err(|e| e.to_string())?;
                    sum = results.iter().filter_map(Value::as_i64).sum();
                }
                task::sleep(ctx.activation().scaled(TICK)).await;
                Ok(Value::Int(sum))
            });
        } else {
            cloud.register_fn("tree", |ctx: &TaskCtx, v: Value| {
                let (x, depth, children) = tree_node(&v)?;
                let mut sum = x;
                if depth > 0 {
                    let exec = ctx.executor().map_err(|e| e.to_string())?;
                    let futures = exec.map("tree", children).map_err(|e| e.to_string())?;
                    let results = exec
                        .resolve(&futures, &GetResultOpts::default())
                        .map_err(|e| e.to_string())?;
                    sum = results.iter().filter_map(Value::as_i64).sum();
                }
                ctx.charge(TICK);
                Ok(Value::Int(sum))
            });
        }
        let results = cloud.run(|| {
            let exec = cloud.executor().build().expect("executor");
            let root = Value::map().with("x", 1i64).with("depth", 2i64);
            exec.call_async("tree", root).expect("submits");
            let results = exec.get_result().expect("finishes");
            // The root's activation runs out.
            rustwren_sim::sleep(Duration::from_secs(60));
            results
        });
        assert_eq!(cloud.functions().inflight(), 0, "every activation finished");
        let stats = cloud.kernel().stats();
        let vehicle = KernelStats {
            light_polls: 0,
            os_threads_spawned: 0,
            ..stats
        };
        let seen = (
            results,
            cloud.functions().records(),
            cloud.kernel().now(),
            vehicle,
        );
        (seen, stats.os_threads_spawned)
    };
    let (blocking, blocking_threads) = run(false);
    let (resumable, resumable_threads) = run(true);
    assert_eq!(blocking, resumable, "blocking vs resumable composition");
    assert_eq!(resumable.0, vec![Value::Int(7 + 8 + 9 + 10)]);
    assert_eq!(resumable.1.len(), 7);
    assert_eq!((blocking_threads, resumable_threads), (7, 0));
}

/// `mergesort_compose` in small: the workload's tree of depth 2 starts no
/// OS thread.
#[test]
fn mergesort_composes_without_a_thread() {
    use rustwren_workloads::mergesort;
    let cloud = SimCloud::builder()
        .seed(3)
        .client_network(NetworkProfile::lan())
        .build();
    mergesort::register(&cloud);
    let results = cloud.run(|| {
        let exec = cloud.executor().build().expect("executor");
        exec.call_async(mergesort::MERGESORT_FN, mergesort::input(1, 1_000, 2))
            .expect("submits");
        exec.get_result().expect("finishes")
    });
    let sorted = mergesort::decode_i64s(results[0].as_bytes().expect("bytes"));
    assert_eq!(sorted.len(), 1_000);
    assert_eq!(cloud.functions().records().len(), 7);
    let stats = cloud.kernel().stats();
    assert_eq!(stats.os_threads_spawned, 0, "{stats:?}");
}
