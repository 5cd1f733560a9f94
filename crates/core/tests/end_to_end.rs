//! End-to-end tests of the executor API over the simulated cloud.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use rustwren_core::{
    DataSource, GetResultOpts, MapReduceOpts, PywrenError, RetryPolicy, SimCloud, SpawnStrategy,
    TaskCtx, Value, WaitPolicy,
};
use rustwren_sim::NetworkProfile;

fn test_cloud() -> SimCloud {
    SimCloud::builder()
        .seed(11)
        .client_network(NetworkProfile::lan())
        .build()
}

fn register_add7(cloud: &SimCloud) {
    cloud.register_fn("add7", |_ctx: &TaskCtx, v: Value| {
        Ok(Value::Int(v.as_i64().ok_or("expected int")? + 7))
    });
}

#[test]
fn call_async_roundtrip() {
    let cloud = test_cloud();
    register_add7(&cloud);
    let results = cloud.run(|| {
        let exec = cloud.executor().build()?;
        let fut = exec.call_async("add7", Value::Int(35))?;
        assert_eq!(fut.task(), 0);
        exec.get_result()
    });
    assert_eq!(results.unwrap(), vec![Value::Int(42)]);
}

#[test]
fn map_preserves_input_order() {
    let cloud = test_cloud();
    register_add7(&cloud);
    let results = cloud.run(|| {
        let exec = cloud.executor().build()?;
        exec.map("add7", (0..50).map(Value::from))?;
        exec.get_result()
    });
    let expected: Vec<Value> = (7..57).map(Value::from).collect();
    assert_eq!(results.unwrap(), expected);
}

#[test]
fn unknown_function_fails_client_side() {
    let cloud = test_cloud();
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        let err = exec.map("ghost", [Value::Int(1)]).unwrap_err();
        assert!(matches!(err, PywrenError::UnknownFunction(_)));
    });
}

#[test]
fn task_error_is_reported_with_label() {
    let cloud = test_cloud();
    cloud.register_fn("half", |_ctx: &TaskCtx, v: Value| {
        let x = v.as_i64().ok_or("expected int")?;
        if x % 2 == 1 {
            return Err(format!("{x} is odd"));
        }
        Ok(Value::Int(x / 2))
    });
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map("half", [Value::Int(4), Value::Int(3)]).unwrap();
        let err = exec.get_result().unwrap_err();
        match err {
            PywrenError::Task { task, message } => {
                assert!(task.contains("t00001"), "wrong task: {task}");
                assert_eq!(message, "3 is odd");
            }
            other => panic!("expected Task error, got {other:?}"),
        }
    });
}

#[test]
fn panicking_function_is_contained_as_task_error() {
    let cloud = test_cloud();
    cloud.register_fn(
        "boom",
        |_ctx: &TaskCtx, _v: Value| -> Result<Value, String> { panic!("kaboom") },
    );
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map("boom", [Value::Null]).unwrap();
        let err = exec.get_result().unwrap_err();
        assert!(matches!(
            err,
            PywrenError::Task { message, .. } if message.contains("kaboom")
        ));
    });
}

#[test]
fn wait_always_is_nonblocking() {
    let cloud = test_cloud();
    cloud.register_fn("slow", |ctx: &TaskCtx, v: Value| {
        ctx.charge(Duration::from_secs(30));
        Ok(v)
    });
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map("slow", (0..4).map(Value::from)).unwrap();
        let t0 = rustwren_sim::now();
        let (done, pending) = exec.wait(WaitPolicy::Always).unwrap();
        // One LIST round trip only, nowhere near the 30s task time.
        assert!((rustwren_sim::now() - t0).as_secs_f64() < 5.0);
        assert!(done.is_empty());
        assert_eq!(pending.len(), 4);
    });
}

#[test]
fn wait_any_unblocks_on_first_completion() {
    let cloud = test_cloud();
    cloud.register_fn("var", |ctx: &TaskCtx, v: Value| {
        let secs = v.as_i64().ok_or("int")? as u64;
        ctx.charge(Duration::from_secs(secs));
        Ok(v)
    });
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map("var", [Value::Int(5), Value::Int(300)]).unwrap();
        let (done, pending) = exec.wait(WaitPolicy::AnyCompleted).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(pending.len(), 1);
        let now = rustwren_sim::now().as_secs_f64();
        assert!(now < 100.0, "waited too long: {now}");
        // Drain so nothing is left half-tracked.
        let results = exec.get_result().unwrap();
        assert_eq!(results.len(), 2);
    });
}

#[test]
fn wait_all_returns_everything_done() {
    let cloud = test_cloud();
    register_add7(&cloud);
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map("add7", (0..8).map(Value::from)).unwrap();
        let (done, pending) = exec.wait(WaitPolicy::AllCompleted).unwrap();
        assert_eq!(done.len(), 8);
        assert!(pending.is_empty());
    });
}

#[test]
fn get_result_timeout_fires() {
    let cloud = test_cloud();
    cloud.register_fn("forever", |ctx: &TaskCtx, v: Value| {
        ctx.charge(Duration::from_secs(500));
        Ok(v)
    });
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map("forever", [Value::Null]).unwrap();
        let err = exec
            .get_result_with(GetResultOpts {
                timeout: Some(Duration::from_secs(10)),
                progress: None,
            })
            .unwrap_err();
        assert_eq!(
            err,
            PywrenError::Timeout {
                done: 0,
                pending: 1
            }
        );
    });
}

#[test]
fn progress_callback_reports_completion() {
    let cloud = test_cloud();
    register_add7(&cloud);
    let calls = Arc::new(AtomicUsize::new(0));
    let calls2 = Arc::clone(&calls);
    let cloud2 = cloud.clone();
    cloud.run(move || {
        let exec = cloud2.executor().build().unwrap();
        exec.map("add7", (0..5).map(Value::from)).unwrap();
        let results = exec
            .get_result_with(GetResultOpts {
                timeout: None,
                progress: Some(Arc::new(move |done, total| {
                    assert!(done <= total);
                    assert_eq!(total, 5);
                    calls2.fetch_add(1, Ordering::Relaxed);
                })),
            })
            .unwrap();
        assert_eq!(results.len(), 5);
    });
    assert!(calls.load(Ordering::Relaxed) >= 1);
}

#[test]
fn map_reduce_over_bucket_with_single_reducer() {
    let cloud = test_cloud();
    // Map: count lines in the partition; reduce: sum the counts.
    cloud.register_fn("count_lines", |_ctx: &TaskCtx, v: Value| {
        let data = v.get("data").and_then(Value::as_bytes).ok_or("no data")?;
        Ok(Value::Int(
            data.iter().filter(|&&b| b == b'\n').count() as i64
        ))
    });
    cloud.register_fn("sum", |_ctx: &TaskCtx, v: Value| {
        let results = v.req_list("results")?;
        Ok(Value::Int(results.iter().filter_map(Value::as_i64).sum()))
    });

    let store = cloud.store().clone();
    store.create_bucket("reviews").unwrap();
    store
        .put("reviews", "a.txt", Bytes::from_static(b"one\ntwo\nthree\n"))
        .unwrap();
    store
        .put("reviews", "b.txt", Bytes::from_static(b"four\nfive\n"))
        .unwrap();

    let results = cloud.run(|| {
        let exec = cloud.executor().build()?;
        exec.map_reduce(
            "count_lines",
            DataSource::bucket("reviews"),
            "sum",
            MapReduceOpts {
                chunk_size: Some(6),
                reducer_one_per_object: false,
            },
        )?;
        exec.get_result()
    });
    assert_eq!(results.unwrap(), vec![Value::Int(5)]);
}

#[test]
fn map_reduce_reducer_one_per_object() {
    let cloud = test_cloud();
    cloud.register_fn("count_lines", |_ctx: &TaskCtx, v: Value| {
        let data = v.get("data").and_then(Value::as_bytes).ok_or("no data")?;
        Ok(Value::Int(
            data.iter().filter(|&&b| b == b'\n').count() as i64
        ))
    });
    cloud.register_fn("sum_city", |_ctx: &TaskCtx, v: Value| {
        let group = v.req_str("group")?.to_owned();
        let total: i64 = v
            .req_list("results")?
            .iter()
            .filter_map(Value::as_i64)
            .sum();
        Ok(Value::map().with("city", group).with("lines", total))
    });

    let store = cloud.store().clone();
    store.create_bucket("reviews").unwrap();
    store
        .put("reviews", "ams.txt", Bytes::from_static(b"a\nb\n"))
        .unwrap();
    store
        .put("reviews", "nyc.txt", Bytes::from_static(b"c\nd\ne\n"))
        .unwrap();

    let results = cloud.run(|| {
        let exec = cloud.executor().build()?;
        exec.map_reduce(
            "count_lines",
            DataSource::bucket("reviews"),
            "sum_city",
            MapReduceOpts {
                chunk_size: Some(4),
                reducer_one_per_object: true,
            },
        )?;
        exec.get_result()
    });
    let results = results.unwrap();
    assert_eq!(results.len(), 2, "one reducer per city object");
    let lines_for = |city: &str| {
        results
            .iter()
            .find(|r| r.get("city").and_then(Value::as_str) == Some(city))
            .and_then(|r| r.get("lines").and_then(Value::as_i64))
    };
    assert_eq!(lines_for("ams.txt"), Some(2));
    assert_eq!(lines_for("nyc.txt"), Some(3));
}

#[test]
fn map_reduce_over_values_source() {
    let cloud = test_cloud();
    cloud.register_fn("square", |_ctx: &TaskCtx, v: Value| {
        let x = v.as_i64().ok_or("int")?;
        Ok(Value::Int(x * x))
    });
    cloud.register_fn("sum", |_ctx: &TaskCtx, v: Value| {
        Ok(Value::Int(
            v.req_list("results")?
                .iter()
                .filter_map(Value::as_i64)
                .sum(),
        ))
    });
    let results = cloud.run(|| {
        let exec = cloud.executor().build()?;
        exec.map_reduce(
            "square",
            DataSource::Values((1..=4).map(Value::from).collect()),
            "sum",
            MapReduceOpts::default(),
        )?;
        exec.get_result()
    });
    assert_eq!(results.unwrap(), vec![Value::Int(30)]);
}

#[test]
fn composition_nested_map_resolves_transparently() {
    let cloud = test_cloud();
    register_add7(&cloud);
    cloud.register_fn("foo", |ctx: &TaskCtx, _v: Value| {
        // §4.4's example: a function that spawns a parallel sub-job and
        // returns its futures.
        let exec = ctx.executor().map_err(|e| e.to_string())?;
        let futs = exec
            .map("add7", (0..10).map(Value::from))
            .map_err(|e| e.to_string())?;
        Ok(ctx.futures_value(&futs))
    });
    let results = cloud.run(|| {
        let exec = cloud.executor().build()?;
        exec.call_async("foo", Value::Null)?;
        exec.get_result()
    });
    let results = results.unwrap();
    assert_eq!(results.len(), 1);
    let inner = results[0].as_list().expect("sub-results list");
    let got: Vec<i64> = inner.iter().filter_map(Value::as_i64).collect();
    assert_eq!(got, (7..17).collect::<Vec<_>>());
}

/// A composed job honours the caller's timeout as a whole: its sub-job is
/// awaited against the deadline `get_result_with` began with, not a fresh
/// one counted from when the outer task finished.
#[test]
fn a_composed_result_times_out_at_the_callers_deadline() {
    let cloud = test_cloud();
    cloud.register_fn("slow", |ctx: &TaskCtx, v: Value| {
        ctx.charge(Duration::from_secs(6));
        Ok(v)
    });
    cloud.register_fn("delegate", |ctx: &TaskCtx, v: Value| {
        ctx.charge(Duration::from_secs(4));
        let exec = ctx.executor().map_err(|e| e.to_string())?;
        let futs = exec.map("slow", [v]).map_err(|e| e.to_string())?;
        Ok(ctx.futures_value(&futs))
    });
    let timeout = Duration::from_secs(8);
    let (err, waited) = cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.call_async("delegate", Value::Int(1)).unwrap();
        let start = rustwren_sim::now();
        let err = exec
            .get_result_with(GetResultOpts {
                timeout: Some(timeout),
                progress: None,
            })
            .expect_err("the sub-job lands after the caller's deadline");
        (err, rustwren_sim::now().duration_since(start))
    });
    assert!(matches!(err, PywrenError::Timeout { .. }), "{err:?}");
    let tick = cloud.executor().build().unwrap().config().poll_interval;
    assert!(waited < timeout + tick, "waited {waited:?}");
}

/// The progress callback counts the futures the caller passed, and only
/// those: a composed result's sub-job reports nothing.
#[test]
fn progress_counts_only_the_callers_futures() {
    let cloud = test_cloud();
    register_add7(&cloud);
    cloud.register_fn("fan", |ctx: &TaskCtx, _v: Value| {
        let exec = ctx.executor().map_err(|e| e.to_string())?;
        let futs = exec
            .map("add7", (0..2).map(Value::from))
            .map_err(|e| e.to_string())?;
        Ok(ctx.futures_value(&futs))
    });
    let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
    let log = Arc::clone(&seen);
    let results = cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map("fan", (0..3).map(Value::from)).unwrap();
        exec.get_result_with(GetResultOpts {
            timeout: None,
            progress: Some(Arc::new(move |done, total| {
                log.lock().unwrap().push((done, total));
            })),
        })
    });
    let sub = Value::List(vec![Value::Int(7), Value::Int(8)]);
    assert_eq!(results.unwrap(), vec![sub; 3]);
    let seen = seen.lock().unwrap();
    assert!(!seen.is_empty());
    assert!(seen.iter().all(|&(_, total)| total == 3), "{seen:?}");
}

#[test]
fn sequence_composition_chains_functions() {
    let cloud = test_cloud();
    cloud.register_fn("add7", |_ctx: &TaskCtx, v: Value| {
        Ok(Value::Int(v.as_i64().ok_or("int")? + 7))
    });
    cloud.register_fn("then_double", |ctx: &TaskCtx, v: Value| {
        // f2 ∘ f1: invoke add7 remotely, then double its result locally.
        let exec = ctx.executor().map_err(|e| e.to_string())?;
        let fut = exec.call_async("add7", v).map_err(|e| e.to_string())?;
        let results = exec
            .resolve(&[fut], &GetResultOpts::default())
            .map_err(|e| e.to_string())?;
        let x = results[0].as_i64().ok_or("int result")?;
        Ok(Value::Int(x * 2))
    });
    let results = cloud.run(|| {
        let exec = cloud.executor().build()?;
        exec.call_async("then_double", Value::Int(3))?;
        exec.get_result()
    });
    assert_eq!(results.unwrap(), vec![Value::Int(20)]);
}

#[test]
fn massive_spawning_strategy_produces_same_results() {
    let cloud = test_cloud();
    register_add7(&cloud);
    let results = cloud.run(|| {
        let exec = cloud.executor().spawn(SpawnStrategy::massive()).build()?;
        exec.map("add7", (0..250).map(Value::from))?;
        exec.get_result()
    });
    let expected: Vec<Value> = (7..257).map(Value::from).collect();
    assert_eq!(results.unwrap(), expected);
}

#[test]
fn massive_spawning_is_faster_from_wan() {
    let run = |strategy: SpawnStrategy| {
        let cloud = SimCloud::builder()
            .seed(5)
            .client_network(NetworkProfile::wan())
            .build();
        cloud.register_fn("task", |ctx: &TaskCtx, v: Value| {
            ctx.charge(Duration::from_secs(50));
            Ok(v)
        });
        cloud.run(|| {
            let t0 = rustwren_sim::now();
            let exec = cloud.executor().spawn(strategy).build().unwrap();
            exec.map("task", (0..400).map(Value::from)).unwrap();
            exec.get_result().unwrap();
            (rustwren_sim::now() - t0).as_secs_f64()
        })
    };
    let direct = run(SpawnStrategy::Direct { client_threads: 5 });
    let massive = run(SpawnStrategy::massive());
    assert!(
        massive < direct,
        "massive spawning ({massive:.1}s) should beat direct WAN spawning ({direct:.1}s)"
    );
}

#[test]
fn custom_runtime_requires_registry_image() {
    let cloud = test_cloud();
    cloud.run(|| {
        let err = cloud.executor().runtime("ghost:1").build().unwrap_err();
        assert!(matches!(err, PywrenError::UnknownFunction(_)));

        cloud.functions().registry().push(
            rustwren_faas::RuntimeImage::new("alice/matplotlib:1", 420 << 20)
                .with_package("matplotlib"),
        );
        assert!(cloud
            .executor()
            .runtime("alice/matplotlib:1")
            .build()
            .is_ok());
    });
}

#[test]
fn two_executors_are_isolated() {
    let cloud = test_cloud();
    register_add7(&cloud);
    cloud.run(|| {
        let e1 = cloud.executor().build().unwrap();
        let e2 = cloud.executor().build().unwrap();
        assert_ne!(e1.exec_id(), e2.exec_id());
        e1.map("add7", [Value::Int(1)]).unwrap();
        e2.map("add7", [Value::Int(100)]).unwrap();
        assert_eq!(e1.get_result().unwrap(), vec![Value::Int(8)]);
        assert_eq!(e2.get_result().unwrap(), vec![Value::Int(107)]);
    });
}

#[test]
fn get_result_with_nothing_pending_is_empty() {
    let cloud = test_cloud();
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        assert_eq!(exec.get_result().unwrap(), Vec::<Value>::new());
        let (done, pending) = exec.wait(WaitPolicy::AllCompleted).unwrap();
        assert!(done.is_empty() && pending.is_empty());
    });
}

#[test]
fn results_survive_for_late_resolution() {
    let cloud = test_cloud();
    register_add7(&cloud);
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        let futs = exec.map("add7", [Value::Int(1)]).unwrap();
        let _ = exec.get_result().unwrap();
        // Futures can be re-resolved explicitly even after get_result.
        let again = exec.resolve(&futs, &GetResultOpts::default()).unwrap();
        assert_eq!(again, vec![Value::Int(8)]);
    });
}

#[test]
fn call_sequence_runs_stages_in_order() {
    let cloud = test_cloud();
    register_add7(&cloud);
    cloud.register_fn("triple", |_ctx: &TaskCtx, v: Value| {
        Ok(Value::Int(v.as_i64().ok_or("int")? * 3))
    });
    cloud.register_fn("negate", |_ctx: &TaskCtx, v: Value| {
        Ok(Value::Int(-v.as_i64().ok_or("int")?))
    });
    let results = cloud.run(|| {
        let exec = cloud.executor().build()?;
        // negate(triple(add7(1))) = -(3 * 8) = -24
        exec.call_sequence(&["add7", "triple", "negate"], Value::Int(1))?;
        exec.get_result()
    });
    assert_eq!(results.unwrap(), vec![Value::Int(-24)]);
}

#[test]
fn sequence_stage_error_propagates_to_client() {
    let cloud = test_cloud();
    register_add7(&cloud);
    cloud.register_fn(
        "explode",
        |_ctx: &TaskCtx, _v: Value| -> Result<Value, String> { Err("stage two failed".into()) },
    );
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.call_sequence(&["add7", "explode", "add7"], Value::Int(1))
            .unwrap();
        let err = exec.get_result().unwrap_err();
        assert!(
            matches!(&err, PywrenError::Task { message, .. } if message.contains("stage two failed")),
            "unexpected error: {err:?}"
        );
    });
}

#[test]
fn auto_strategy_picks_by_job_size() {
    use rustwren_core::SpawnStrategy;
    assert_eq!(
        SpawnStrategy::Auto { threshold: 100 }.resolve_for(99),
        SpawnStrategy::default()
    );
    assert_eq!(
        SpawnStrategy::Auto { threshold: 100 }.resolve_for(100),
        SpawnStrategy::massive()
    );

    // End-to-end: a big Auto job actually goes through the remote invoker.
    let cloud = test_cloud();
    register_add7(&cloud);
    cloud.run(|| {
        let exec = cloud
            .executor()
            .spawn(SpawnStrategy::Auto { threshold: 50 })
            .build()
            .unwrap();
        exec.map("add7", (0..120).map(Value::from)).unwrap();
        let results = exec.get_result().unwrap();
        assert_eq!(results.len(), 120);
    });
    let invoker_runs = cloud
        .functions()
        .activations_for(rustwren_core::invoker::INVOKER_ACTION)
        .len();
    assert!(
        invoker_runs >= 2,
        "expected invoker groups, saw {invoker_runs}"
    );
}

#[test]
fn task_timings_expose_execution_metadata() {
    let cloud = test_cloud();
    cloud.register_fn("work", |ctx: &TaskCtx, v: Value| {
        let secs = v.as_i64().ok_or("int")? as u64;
        ctx.charge(Duration::from_secs(secs));
        Ok(v)
    });
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        let futs = exec.map("work", [Value::Int(2), Value::Int(10)]).unwrap();
        exec.get_result().unwrap();
        let timings = exec.task_timings(&futs).unwrap();
        assert_eq!(timings.len(), 2);
        assert!(timings.iter().all(|t| t.succeeded));
        assert!(timings[0].duration_secs() >= 1.5);
        assert!(
            timings[1].duration_secs() > timings[0].duration_secs(),
            "10s task must run longer than 2s task"
        );
    });
}

#[test]
fn invoker_groups_handle_remainders() {
    // 250 tasks with groups of 100 → 3 invoker functions (100, 100, 50).
    let cloud = test_cloud();
    register_add7(&cloud);
    cloud.run(|| {
        let exec = cloud
            .executor()
            .spawn(SpawnStrategy::RemoteInvoker {
                group_size: 100,
                invoker_threads: 2,
            })
            .build()
            .unwrap();
        exec.map("add7", (0..250).map(Value::from)).unwrap();
        let results = exec.get_result().unwrap();
        assert_eq!(results.len(), 250);
    });
    let invokers = cloud
        .functions()
        .activations_for(rustwren_core::invoker::INVOKER_ACTION);
    assert_eq!(invokers.len(), 3);
    assert!(invokers.iter().all(|r| r.is_success()));
}

#[test]
fn custom_storage_bucket_is_respected() {
    let cloud = test_cloud();
    register_add7(&cloud);
    cloud.run(|| {
        let exec = cloud
            .executor()
            .storage_bucket("my-own-bucket")
            .build()
            .unwrap();
        exec.map("add7", [Value::Int(1)]).unwrap();
        exec.get_result().unwrap();
    });
    let staged = cloud.store().list("my-own-bucket", "jobs/").unwrap();
    assert!(!staged.is_empty(), "artifacts landed in the custom bucket");
}

#[test]
fn longer_poll_interval_costs_latency_but_same_results() {
    let run = |poll_ms: u64| {
        let cloud = test_cloud();
        register_add7(&cloud);
        let cloud2 = cloud.clone();
        cloud.run(move || {
            let exec = cloud2
                .executor()
                .poll_interval(Duration::from_millis(poll_ms))
                .build()
                .unwrap();
            exec.map("add7", [Value::Int(1)]).unwrap();
            let r = exec.get_result().unwrap();
            (r, rustwren_sim::now().as_secs_f64())
        })
    };
    let (r_fast, t_fast) = run(100);
    let (r_slow, t_slow) = run(5_000);
    assert_eq!(r_fast, r_slow);
    assert!(
        t_slow > t_fast + 1.0,
        "coarser polling must add completion latency: {t_fast} vs {t_slow}"
    );
}

#[test]
fn executor_network_override_changes_costs() {
    // Same cloud/WAN default, but an executor pinned to the datacenter
    // network finishes the same job much faster.
    let run = |use_dc: bool| {
        let cloud = SimCloud::builder()
            .seed(44)
            .client_network(NetworkProfile::wan())
            .build();
        register_add7(&cloud);
        let cloud2 = cloud.clone();
        cloud.run(move || {
            let mut builder = cloud2.executor();
            if use_dc {
                builder = builder.network(NetworkProfile::datacenter());
            }
            let exec = builder.build().unwrap();
            exec.map("add7", (0..20).map(Value::from)).unwrap();
            exec.get_result().unwrap();
            rustwren_sim::now().as_secs_f64()
        })
    };
    let wan = run(false);
    let dc = run(true);
    assert!(
        dc < wan,
        "datacenter executor ({dc}) should beat WAN ({wan})"
    );
}

#[test]
fn clean_removes_all_staged_objects() {
    let cloud = test_cloud();
    register_add7(&cloud);
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map("add7", (0..5).map(Value::from)).unwrap();
        exec.get_result().unwrap();
        let prefix = format!("jobs/{}/", exec.exec_id());
        assert!(!cloud
            .store()
            .list("rustwren-runtime", &prefix)
            .unwrap()
            .is_empty());

        let removed = exec.clean().unwrap();
        // Inline inputs (the default data path) never reach COS: only the
        // func blob plus each task's status and result are staged.
        assert_eq!(removed, 1 + 5, "blob + statuses (results ride inside)");
        assert!(cloud
            .store()
            .list("rustwren-runtime", &prefix)
            .unwrap()
            .is_empty());

        // Inputs and results too big to ride inline are objects of their
        // own, and `clean` removes those too.
        cloud.register_fn("echo", |_ctx: &TaskCtx, v: Value| Ok(v));
        let big = Value::bytes(vec![1u8; 100_000]);
        exec.map("echo", vec![big; 5]).unwrap();
        exec.get_result().unwrap();
        let removed = exec.clean().unwrap();
        assert_eq!(removed, 1 + 5 * 3, "blob + inputs + statuses + results");
    });
}

/// `clean()` once deleted the objects but kept the records that describe
/// them (one retained inline descriptor per task ever submitted, the job's
/// function, its spent retries). A cleaned future is unknown again, and
/// re-invoking it launches nothing; the counters, which describe the
/// executor and not a job, survive the sweep.
#[test]
fn clean_forgets_the_jobs_it_swept() {
    let cloud = test_cloud();
    register_add7(&cloud);
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        let old = exec.map("add7", (0..3).map(Value::from)).unwrap();
        exec.get_result().unwrap();
        let removed = exec.clean().unwrap();
        assert_eq!(removed, 1 + 3, "blob + statuses");
        assert_eq!(exec.recovery_stats().cleaned_objects, 4);
        assert_eq!(exec.clean().unwrap(), 0, "nothing left to sweep");
        assert_eq!(exec.recovery_stats().cleaned_objects, 4);

        let submitted = cloud.functions().stats().submitted;
        let err = exec.reinvoke(&old).unwrap_err();
        assert!(matches!(err, PywrenError::UnknownFunction(_)), "{err:?}");
        assert_eq!(
            cloud.functions().stats().submitted,
            submitted,
            "no agent may be launched for a job whose func blob is gone"
        );
        assert_eq!(exec.pending_count(), 0);

        // The executor itself is still usable.
        exec.map("add7", [Value::Int(1)]).unwrap();
        assert_eq!(exec.get_result().unwrap(), vec![Value::Int(8)]);
    });
}

/// The map stage behind a tracked reducer is *guarded*: its record in the
/// executor's job table tells the recovery pass to watch and heal its tasks,
/// while `get_result` returns the reducer's value only. Unwatched, a map
/// task that failed once would fail its reducer on every attempt.
#[test]
fn guarded_map_task_is_healed_but_never_returned() {
    let cloud = test_cloud();
    let runs_of_three = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&runs_of_three);
    cloud.register_fn("square_flaky", move |_ctx: &TaskCtx, v: Value| {
        let x = v.as_i64().ok_or("int")?;
        if x == 3 && counter.fetch_add(1, Ordering::SeqCst) == 0 {
            return Err("first execution of input 3 fails".into());
        }
        Ok(Value::Int(x * x))
    });
    cloud.register_fn("sum", |_ctx: &TaskCtx, v: Value| {
        Ok(Value::Int(
            v.req_list("results")?
                .iter()
                .filter_map(Value::as_i64)
                .sum(),
        ))
    });
    cloud.run(|| {
        let exec = cloud
            .executor()
            .retry(RetryPolicy::with_attempts(4))
            .build()
            .unwrap();
        let reducers = exec
            .map_reduce(
                "square_flaky",
                DataSource::Values((1..=4).map(Value::from).collect()),
                "sum",
                MapReduceOpts::default(),
            )
            .unwrap();
        assert_eq!(reducers.len(), 1);
        assert_eq!(exec.pending_count(), 1, "only the reducer is tracked");

        assert_eq!(exec.get_result().unwrap(), vec![Value::Int(30)]);
        assert_eq!(
            runs_of_three.load(Ordering::SeqCst),
            2,
            "the map task reran"
        );
        let stats = exec.recovery_stats();
        assert!(stats.retries >= 1, "recover re-invoked it: {stats:?}");
        assert_eq!(stats.retries_exhausted, 0, "{stats:?}");
        assert_eq!(exec.pending_count(), 0);
    });
}

/// A remote invoker whose early lane fails must still join its other lanes
/// before it reports: once its activation record says `ended`, nothing may
/// still be invoking agents on its behalf.
///
/// The tenant runs the invoker plus one agent, queues one more and accepts
/// three invocations per minute; an invocation round trip costs a second,
/// far longer than a warm agent runs. Minute one: the invoker and two
/// agents use up the rate budget, so all four lanes are throttled until
/// the window reopens. Minute two: the four lanes retry at the same
/// instant; one agent is admitted, one queued, and the other two lanes are
/// shed from the full queue — those lanes fail. The two surviving lanes
/// keep invoking for another minute and more.
#[test]
fn failed_invoker_lane_does_not_abandon_the_live_ones() {
    let platform = rustwren_faas::PlatformConfig {
        api_overhead: Duration::from_secs(1),
        tenants: vec![rustwren_faas::TenantConfig::new("acme", 2)
            .queue_depth(1)
            .rate_limit(3)],
        ..rustwren_faas::PlatformConfig::default()
    };
    let cloud = SimCloud::builder()
        .seed(11)
        .client_network(NetworkProfile::lan())
        .platform(platform)
        .build();
    register_add7(&cloud);
    cloud.run(|| {
        let exec = cloud
            .executor()
            .namespace("acme")
            .analyze(rustwren_core::AnalyzeMode::Off)
            .spawn(SpawnStrategy::RemoteInvoker {
                group_size: 12,
                invoker_threads: 4,
            })
            .build()
            .unwrap();
        exec.map("add7", (0..12).map(Value::from)).unwrap();
        rustwren_sim::sleep(Duration::from_secs(300));

        let records = cloud.functions().records();
        let invokers: Vec<_> = records
            .iter()
            .filter(|r| r.action == rustwren_core::invoker::INVOKER_ACTION)
            .collect();
        assert_eq!(invokers.len(), 1);
        assert!(
            !invokers[0].is_success(),
            "the scenario must make a lane fail"
        );
        let ended = invokers[0].ended.expect("invoker finished");
        let agents: Vec<_> = records
            .iter()
            .filter(|r| r.action.starts_with("rustwren-agent@"))
            .collect();
        assert!(
            agents.len() > 4,
            "the surviving lanes must have kept invoking, got {} agents",
            agents.len()
        );
        for agent in agents {
            assert!(
                agent.submitted <= ended,
                "agent {:?} was submitted at {:?}, after its invoker reported \
                 failure at {ended:?}",
                agent.id,
                agent.submitted
            );
        }
    });
}
