//! Data-path tests: inline payloads, the warm-container function-blob
//! cache, and batched dep-watching must never change *what* a job computes
//! — and must cost exactly the COS round trips README's per-task table says.

use rustwren::core::{
    DataSource, FaultPlan, MapReduceOpts, PathScope, SimCloud, TaskCtx, TimeWindow, Value,
};
use rustwren::faas::PlatformConfig;
use rustwren::sim::NetworkProfile;

use bytes::Bytes;
use proptest::prelude::*;

const BUCKET: &str = "rustwren-runtime";

/// `rustwren_core`'s inline-vs-staged threshold (crate-private there;
/// README "The data path" documents the value).
const INLINE_MAX_BYTES: usize = 64 * 1024;

fn cloud_with(seed: u64, plan: Option<FaultPlan>) -> SimCloud {
    // A small container pool forces warm reuse inside a single job — the
    // regime where the blob cache (and cache poisoning) actually engages.
    let platform = PlatformConfig {
        cluster_containers: 8,
        ..PlatformConfig::default()
    };
    let mut builder = SimCloud::builder()
        .seed(seed)
        .platform(platform)
        .client_network(NetworkProfile::lan());
    if let Some(plan) = plan {
        builder = builder.chaos(plan);
    }
    let cloud = builder.build();
    cloud.register_fn("add7", |_ctx: &TaskCtx, v: Value| {
        Ok(Value::Int(v.as_i64().ok_or("int")? + 7))
    });
    cloud
}

/// Encoded size of the descriptor the executor builds for a plain
/// `map(value)` task — reconstructed here so the test can pin the exact
/// boundary.
fn value_desc_len(v: &Value) -> usize {
    Value::map()
        .with("kind", "value")
        .with("value", v.clone())
        .encoded_len()
}

/// Keys under this executor's job prefix that end in `suffix`.
fn staged_keys(cloud: &SimCloud, exec_id: &str, suffix: &str) -> Vec<String> {
    cloud
        .store()
        .list(BUCKET, &format!("jobs/{exec_id}/"))
        .unwrap()
        .into_iter()
        .map(|m| m.key)
        .filter(|k| k.ends_with(suffix))
        .collect()
}

#[test]
fn inline_and_staged_runs_are_bitwise_identical_across_thresholds() {
    let cloud = cloud_with(5, None);
    let byte_sum = |bytes: &[u8]| Value::Int(bytes.iter().map(|&b| i64::from(b)).sum());
    cloud.register_fn("byte_sum", move |_ctx: &TaskCtx, v: Value| {
        Ok(byte_sum(v.as_bytes().ok_or("bytes")?))
    });
    cloud.register_fn("zeros", |_ctx: &TaskCtx, v: Value| {
        Ok(Value::bytes(vec![0u8; v.as_i64().ok_or("int")? as usize]))
    });
    // Input leg: task 0's descriptor encodes to exactly the threshold and
    // rides in the activation payload; task 1's is one byte over and is
    // staged. Which path carried the bytes must not show in the result.
    let body = |len: usize| -> Vec<u8> { (0..len).map(|i| (i % 251) as u8).collect() };
    let fits = INLINE_MAX_BYTES - value_desc_len(&Value::bytes(Vec::new()));
    let inputs = [Value::bytes(body(fits)), Value::bytes(body(fits + 1))];
    assert_eq!(value_desc_len(&inputs[0]), INLINE_MAX_BYTES);
    assert_eq!(value_desc_len(&inputs[1]), INLINE_MAX_BYTES + 1);
    let expected = [byte_sum(&body(fits)), byte_sum(&body(fits + 1))];
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        let futures = exec.map("byte_sum", inputs.clone()).unwrap();
        assert_eq!(exec.get_result().unwrap(), expected);
        assert_eq!(
            staged_keys(&cloud, exec.exec_id(), "/input"),
            [format!("{}/input", futures[1].task_prefix())],
            "only the over-threshold descriptor is staged"
        );

        // Return leg, same threshold: a result that encodes to exactly
        // the threshold rides in the status object, one byte more gets a
        // `…/result` object of its own.
        let fits = INLINE_MAX_BYTES - Value::bytes(Vec::new()).encoded_len();
        let futures = exec
            .map("zeros", [fits, fits + 1].map(|n| Value::Int(n as i64)))
            .unwrap();
        let results = exec.get_result().unwrap();
        assert_eq!(results[0].encoded_len(), INLINE_MAX_BYTES);
        assert_eq!(results[1], Value::bytes(vec![0u8; fits + 1]));
        assert_eq!(
            staged_keys(&cloud, exec.exec_id(), "/result"),
            [futures[1].result_key()],
            "only the over-threshold result is staged"
        );
    });
}

#[test]
fn inline_and_cache_cut_cos_ops_without_changing_results() {
    // README "The data path", per-task table, for 50 small tasks.
    let cloud = cloud_with(6, None);
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map("add7", (0..50).map(Value::from)).unwrap();
        let results = exec.get_result().unwrap();
        assert_eq!(
            results,
            (0..50).map(|n| Value::Int(n + 7)).collect::<Vec<_>>()
        );
        assert!(staged_keys(&cloud, exec.exec_id(), "/input").is_empty());
        assert!(staged_keys(&cloud, exec.exec_id(), "/result").is_empty());
        let ops = exec.cos_op_stats();
        let platform = cloud.functions().stats();
        assert_eq!(ops.staging.puts, 1, "the func blob, no input PUTs");
        assert_eq!(ops.agent.puts, 50, "one status PUT per task");
        assert_eq!(
            ops.agent.gets, platform.blob_cache_misses,
            "func GETs on cold containers only, no input GETs"
        );
        assert_eq!(
            platform.blob_cache_hits + platform.blob_cache_misses,
            50,
            "every task consulted the cache"
        );
        assert!(platform.blob_cache_hits > 0, "8 containers, 50 tasks");
        assert_eq!(
            ops.polling.gets, 50,
            "one status GET per task, no result GETs"
        );
    });
}

#[test]
fn poisoned_cache_entries_heal_via_refetch() {
    // Poison *every* cache hit: each warm-container reuse of the func blob
    // fails its stamp check, drops the entry, and refetches from COS. The
    // job must still complete with correct results — corruption never
    // reaches the user function.
    let plan =
        FaultPlan::new(91).poison_cache(PathScope::prefix("jobs/"), TimeWindow::always(), 1.0);
    let cloud = cloud_with(91, Some(plan));
    let results = cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map("add7", (0..40).map(Value::from)).unwrap();
        exec.get_result().unwrap()
    });
    assert_eq!(
        results,
        (0..40).map(|n| Value::Int(n + 7)).collect::<Vec<_>>()
    );
    let stats = cloud.functions().stats();
    assert!(stats.blob_cache_misses > 0, "cold containers populate");
    assert!(stats.blob_cache_heals > 0, "poisoned hits healed");
    assert_eq!(
        cloud.chaos_stats().cache_poisons,
        stats.blob_cache_heals,
        "every poison fired was caught and healed"
    );
}

#[test]
fn warm_containers_hit_the_cache_and_cold_jobs_repopulate() {
    let cloud = cloud_with(17, None);
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map("add7", (0..40).map(Value::from)).unwrap();
        exec.get_result().unwrap();
        let first = cloud.functions().stats();
        assert!(first.blob_cache_misses > 0, "cold containers fetch");
        assert!(
            first.blob_cache_hits > first.blob_cache_misses,
            "warm reuse dominates: {} hits vs {} misses",
            first.blob_cache_hits,
            first.blob_cache_misses
        );
        assert_eq!(first.blob_cache_heals, 0, "no chaos, no heals");

        // A second job stages a fresh func blob under a new key: warm
        // containers must re-fetch it (a per-job miss), never serve the
        // previous job's blob.
        exec.map("add7", (0..40).map(Value::from)).unwrap();
        exec.get_result().unwrap();
        let second = cloud.functions().stats();
        assert!(second.blob_cache_misses > first.blob_cache_misses);
    });
}

#[test]
fn chaos_run_with_cache_and_inline_replays_bitwise() {
    // Determinism gate for the new data path: same seed + same plan must
    // reproduce the same results, fault timeline and virtual end time with
    // inline payloads and the blob cache enabled (the defaults).
    let mk_plan =
        || FaultPlan::new(43).poison_cache(PathScope::prefix("jobs/"), TimeWindow::always(), 0.5);
    let run = || {
        let cloud = cloud_with(44, Some(mk_plan()));
        let (results, end) = cloud.run(|| {
            let exec = cloud.executor().build().unwrap();
            exec.map("add7", (0..30).map(Value::from)).unwrap();
            let results = exec.get_result().unwrap();
            (results, rustwren::sim::now().as_nanos())
        });
        (results, end, cloud.fault_log(), cloud.chaos_stats())
    };
    let (r1, t1, log1, stats1) = run();
    let (r2, t2, log2, stats2) = run();
    assert!(!log1.is_empty(), "the plan fired");
    assert_eq!(r1, r2, "same results");
    assert_eq!(t1, t2, "same virtual end time");
    assert_eq!(log1, log2, "same fault timeline");
    assert_eq!(stats1, stats2);
}

/// One storage object per distinct name, sized to split into `chunks`
/// partitions of 64 bytes each.
fn seed_objects(cloud: &SimCloud, bucket: &str, sizes: &[usize]) {
    cloud.store().create_bucket(bucket).unwrap();
    for (i, &chunks) in sizes.iter().enumerate() {
        let line = b"0123456789012345678901234567890\n"; // 32 bytes
        let body: Vec<u8> = line.iter().copied().cycle().take(chunks * 64).collect();
        cloud
            .store()
            .put(bucket, &format!("obj-{i:03}"), Bytes::from(body))
            .unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `reducer_one_per_object` must spawn exactly one reducer per distinct
    /// source object, in first-appearance (listing) order, regardless of
    /// how many partitions each object splits into — the order-preserving
    /// dedup rewrite cannot change what the old quadratic scan produced.
    #[test]
    fn reducer_order_matches_first_appearance_of_groups(
        sizes in prop::collection::vec(1usize..4, 1..8),
        seed in 0u64..500,
    ) {
        let cloud = SimCloud::builder()
            .seed(seed)
            .client_network(NetworkProfile::lan())
            .build();
        cloud.register_fn("one", |_ctx: &TaskCtx, _v: Value| Ok(Value::Int(1)));
        cloud.register_fn("group_of", |_ctx: &TaskCtx, v: Value| {
            Ok(v.get("group").cloned().unwrap_or(Value::Null))
        });
        seed_objects(&cloud, "data", &sizes);
        let results = cloud.run(|| {
            let exec = cloud.executor().build().unwrap();
            exec.map_reduce(
                "one",
                DataSource::bucket("data"),
                "group_of",
                MapReduceOpts {
                    chunk_size: Some(64),
                    reducer_one_per_object: true,
                },
            )
            .unwrap();
            exec.get_result().unwrap()
        });
        let expected: Vec<Value> = (0..sizes.len())
            .map(|i| Value::Str(format!("obj-{i:03}")))
            .collect();
        prop_assert_eq!(results, expected);
    }
}
