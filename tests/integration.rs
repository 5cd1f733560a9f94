//! Cross-crate integration tests: the full IBM-PyWren pipeline over all
//! four substrates (kernel, COS, Cloud Functions, core framework).

use bytes::Bytes;
use rustwren::core::{
    DataSource, MapReduceOpts, PywrenError, SimCloud, SpawnStrategy, TaskCtx, Value,
};
use rustwren::faas::PlatformConfig;
use rustwren::sim::NetworkProfile;
use rustwren::workloads::{airbnb, compute, mergesort, tone};
use std::time::Duration;

#[test]
fn paper_fig1_flow() {
    // The exact Fig 1 walkthrough: serialize, stage in COS, invoke, pull.
    let cloud = SimCloud::builder().seed(1).build();
    cloud.register_fn("my_function", |_ctx: &TaskCtx, x: Value| {
        Ok(Value::Int(x.as_i64().ok_or("int")? + 7))
    });
    let results = cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map("my_function", [Value::Int(3), Value::Int(6), Value::Int(9)])
            .unwrap();
        exec.get_result().unwrap()
    });
    assert_eq!(
        results,
        vec![Value::Int(10), Value::Int(13), Value::Int(16)]
    );
    // The flow left artifacts in COS, as in Fig 1. With the default data
    // path these small results ride inside the status objects, so no
    // separate `…/result` object exists.
    let staged = cloud.store().list("rustwren-runtime", "jobs/").unwrap();
    assert!(staged.iter().any(|m| m.key.ends_with("/func")));
    assert!(staged.iter().any(|m| m.key.ends_with("/status")));
    assert!(!staged.iter().any(|m| m.key.ends_with("/result")));

    // The original Fig 1 layout — one object per artifact — is what a task
    // too big for the activation payload and the status object still gets:
    // a 100 KB input is staged as `…/input`, and its echo as `…/result`.
    let cloud = SimCloud::builder().seed(1).build();
    cloud.register_fn("my_function", |_ctx: &TaskCtx, x: Value| Ok(x));
    let big = Value::bytes(vec![3u8; 100_000]);
    let results = cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map("my_function", [big.clone()]).unwrap();
        exec.get_result().unwrap()
    });
    assert_eq!(results, vec![big]);
    let staged = cloud.store().list("rustwren-runtime", "jobs/").unwrap();
    assert!(staged.iter().any(|m| m.key.ends_with("/input")));
    assert!(staged.iter().any(|m| m.key.ends_with("/result")));
}

#[test]
fn tone_analysis_end_to_end_small() {
    let cloud = SimCloud::builder()
        .seed(2)
        .client_network(NetworkProfile::lan())
        .build();
    let dataset = airbnb::generate(cloud.store(), "reviews", 1 << 15, 2).expect("stages");
    tone::register(&cloud);
    let results = cloud.run(|| {
        let exec = cloud
            .executor()
            .spawn(SpawnStrategy::massive())
            .build()
            .unwrap();
        exec.map_reduce(
            tone::TONE_MAP_FN,
            DataSource::bucket(&dataset.bucket),
            tone::TONE_REDUCE_FN,
            MapReduceOpts {
                chunk_size: Some(64 << 20),
                reducer_one_per_object: true,
            },
        )
        .unwrap();
        exec.get_result().unwrap()
    });
    assert_eq!(results.len(), 33, "one reducer result per city");
    for city in &results {
        let comments = city.get("comments").and_then(Value::as_i64).unwrap_or(0);
        assert!(comments > 0, "every city has sampled comments");
        assert!(city
            .get("svg")
            .and_then(Value::as_str)
            .is_some_and(|s| s.starts_with("<svg")));
    }
}

#[test]
fn speedup_grows_as_chunks_shrink() {
    // Table 3's core claim, at test scale: halving the chunk size increases
    // concurrency and reduces execution time.
    let run = |chunk_mb: u64| {
        let cloud = SimCloud::builder()
            .seed(3)
            .client_network(NetworkProfile::lan())
            .build();
        let dataset = airbnb::generate(cloud.store(), "reviews", 1 << 15, 3).expect("stages");
        tone::register(&cloud);
        let cloud2 = cloud.clone();
        cloud.run(move || {
            let t0 = rustwren::sim::now();
            let exec = cloud2
                .executor()
                .spawn(SpawnStrategy::massive())
                .build()
                .unwrap();
            exec.map_reduce(
                tone::TONE_MAP_FN,
                DataSource::bucket(&dataset.bucket),
                tone::TONE_REDUCE_FN,
                MapReduceOpts {
                    chunk_size: Some(chunk_mb << 20),
                    reducer_one_per_object: true,
                },
            )
            .unwrap();
            exec.get_result().unwrap();
            (rustwren::sim::now() - t0).as_secs_f64()
        })
    };
    let t64 = run(64);
    let t16 = run(16);
    assert!(
        t16 < t64 * 0.6,
        "16MB chunks ({t16:.0}s) should be much faster than 64MB ({t64:.0}s)"
    );
}

#[test]
fn network_failures_are_absorbed_by_retries() {
    let cloud = SimCloud::builder()
        .seed(4)
        .client_network(NetworkProfile::lan().with_failure_rate(0.1))
        .build();
    compute::register(&cloud);
    let results = cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map(compute::COMPUTE_FN, (0..30).map(|_| compute::input(1.0)))
            .unwrap();
        exec.get_result().unwrap()
    });
    assert_eq!(results.len(), 30);
}

#[test]
fn throttling_with_patient_retries_completes() {
    let platform = PlatformConfig {
        concurrency_limit: 8,
        cluster_containers: 16,
        ..PlatformConfig::default()
    };
    let cloud = SimCloud::builder()
        .seed(5)
        .platform(platform)
        .client_network(NetworkProfile::lan())
        .build();
    compute::register(&cloud);
    let results = cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map(compute::COMPUTE_FN, (0..40).map(|_| compute::input(2.0)))
            .unwrap();
        exec.get_result().unwrap()
    });
    assert_eq!(results.len(), 40);
    assert!(
        cloud.functions().stats().throttled > 0,
        "the experiment should actually have hit 429s"
    );
}

#[test]
fn mergesort_composition_across_crates() {
    let cloud = SimCloud::builder()
        .seed(6)
        .client_network(NetworkProfile::lan())
        .build();
    mergesort::register(&cloud);
    let sorted = cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.call_async(mergesort::MERGESORT_FN, mergesort::input(5, 3_000, 2))
            .unwrap();
        let results = exec.get_result().unwrap();
        mergesort::decode_i64s(results[0].as_bytes().unwrap())
    });
    assert_eq!(sorted.len(), 3_000);
    assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    // Depth 2 means 7 mergesort agent activations (1 root + 2 + 4).
    let sort_activations = cloud
        .functions()
        .records()
        .iter()
        .filter(|r| r.action.starts_with("rustwren-agent@"))
        .count();
    assert_eq!(sort_activations, 7);
}

#[test]
fn sequential_baseline_vs_parallel_speedup_shape() {
    // A miniature Table 3: parallel beats sequential by roughly the
    // concurrency factor.
    let cloud = SimCloud::builder()
        .seed(7)
        .client_network(NetworkProfile::lan())
        .build();
    let dataset = airbnb::generate(cloud.store(), "reviews", 1 << 15, 7).expect("stages");
    tone::register(&cloud);
    let cloud2 = cloud.clone();
    let dataset2 = dataset.clone();
    let (seq, par) = cloud.run(move || {
        let (_, seq) =
            rustwren::workloads::baseline::sequential_tone_analysis(&cloud2, &dataset2).unwrap();
        let t0 = rustwren::sim::now();
        let exec = cloud2
            .executor()
            .spawn(SpawnStrategy::massive())
            .build()
            .unwrap();
        exec.map_reduce(
            tone::TONE_MAP_FN,
            DataSource::bucket(&dataset2.bucket),
            tone::TONE_REDUCE_FN,
            MapReduceOpts {
                chunk_size: Some(16 << 20),
                reducer_one_per_object: true,
            },
        )
        .unwrap();
        exec.get_result().unwrap();
        (seq.as_secs_f64(), (rustwren::sim::now() - t0).as_secs_f64())
    });
    let speedup = seq / par;
    assert!(
        speedup > 8.0,
        "expected >8x speedup at 16MB chunks, got {speedup:.1}x ({seq:.0}s -> {par:.0}s)"
    );
}

#[test]
fn store_and_faas_share_one_virtual_clock() {
    let cloud = SimCloud::builder().seed(8).build();
    cloud.register_fn("stamp", |ctx: &TaskCtx, _v: Value| {
        ctx.charge(Duration::from_secs(5));
        Ok(Value::Float(ctx.now().as_secs_f64()))
    });
    cloud.store().create_bucket("extra").unwrap();
    let (fn_time, client_time) = cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.call_async("stamp", Value::Null).unwrap();
        let results = exec.get_result().unwrap();
        (
            results[0].as_f64().unwrap(),
            rustwren::sim::now().as_secs_f64(),
        )
    });
    assert!(fn_time > 5.0, "function observed its own charge");
    assert!(
        client_time > fn_time,
        "client time includes result collection"
    );
    // The out-of-band bucket write carries the same clock.
    cloud
        .store()
        .put("extra", "k", Bytes::from_static(b"x"))
        .unwrap();
    let meta = cloud.store().head("extra", "k").unwrap();
    assert_eq!(meta.last_modified, cloud.kernel().now());
}

#[test]
fn empty_bucket_map_reduce_is_a_clean_error() {
    let cloud = SimCloud::builder().seed(9).build();
    tone::register(&cloud);
    cloud.store().create_bucket("void").unwrap();
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        let err = exec
            .map_reduce(
                tone::TONE_MAP_FN,
                DataSource::bucket("void"),
                tone::TONE_REDUCE_FN,
                MapReduceOpts::default(),
            )
            .unwrap_err();
        assert!(matches!(err, PywrenError::EmptyDataSource(_)));
    });
}

#[test]
fn deterministic_across_identical_clouds() {
    let run = || {
        let cloud = SimCloud::builder()
            .seed(77)
            .client_network(NetworkProfile::wan())
            .build();
        compute::register(&cloud);
        cloud.run(|| {
            let exec = cloud
                .executor()
                .spawn(SpawnStrategy::massive())
                .build()
                .unwrap();
            exec.map(compute::COMPUTE_FN, (0..50).map(|_| compute::input(10.0)))
                .unwrap();
            exec.get_result().unwrap();
            rustwren::sim::now().as_nanos()
        })
    };
    assert_eq!(
        run(),
        run(),
        "same seed must give identical virtual timelines"
    );
}

/// Bitwise replay of the speculative/billed paths. Speculation relaunches
/// stragglers by scanning the in-flight job table, and the billing report
/// sums `f64` GB-seconds over the activation records; both tables iterate
/// in key order (BTreeMap), so two identical runs must agree *bitwise* —
/// on results, on the virtual clock, and on every billing float.
#[test]
fn speculative_replay_is_bitwise_identical() {
    let run = || {
        let cloud = SimCloud::builder()
            .seed(23)
            .client_network(NetworkProfile::lan())
            .build();
        cloud.register_fn("cube", |_ctx: &TaskCtx, v: Value| {
            let n = v.as_i64().ok_or("int")?;
            Ok(Value::Int(n * n * n))
        });
        let results = cloud.run(|| {
            let exec = cloud
                .executor()
                .speculation(rustwren::core::SpeculationConfig::on())
                .retry(rustwren::core::RetryPolicy::with_attempts(3))
                .build()
                .unwrap();
            exec.map("cube", (0..40).map(Value::Int)).unwrap();
            let results = exec.get_result().unwrap();
            (results, rustwren::sim::now().as_nanos())
        });
        let billing = cloud.functions().billing_report();
        (
            results,
            billing.activations,
            billing.gb_seconds.to_bits(),
            billing.estimated_usd.to_bits(),
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.0, b.0, "results and virtual timeline must replay exactly");
    assert_eq!(a.1, b.1, "same activations billed");
    assert_eq!(
        a.2, b.2,
        "GB-second summation must not depend on record iteration order"
    );
    assert_eq!(a.3, b.3, "estimated cost must replay bitwise");
}
