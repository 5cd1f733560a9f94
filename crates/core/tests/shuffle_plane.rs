//! Shuffle data-plane acceptance tests: both exchanges against a sequential
//! oracle, empty partition elision, combiners, submit-time validation, and
//! typed errors under chaos.

use std::collections::BTreeMap;
use std::time::Duration;

use rustwren_core::{
    CorruptMode, DataSource, ExchangeMode, FaultPlan, Partitioner, PathScope, PywrenError,
    ShuffleOpts, SimCloud, TaskCtx, TimeWindow, Value, MAX_REDUCERS,
};
use rustwren_sim::NetworkProfile;

fn test_cloud(seed: u64) -> SimCloud {
    SimCloud::builder()
        .seed(seed)
        .client_network(NetworkProfile::lan())
        .build()
}

/// The `(word, value)` pairs the `emit-pairs` map emits for input `n`.
fn pairs_of(n: i64) -> impl Iterator<Item = (&'static str, i64)> {
    const WORDS: [&str; 6] = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];
    (0..12).map(move |i| (WORDS[((n + i) % 6) as usize], n + i))
}

/// Map: each input int emits (word, n) pairs over a fixed vocabulary.
/// Reduce: sums the values per word. Deterministic and key-skewed enough
/// to exercise multi-run merges.
fn register_sum_job(cloud: &SimCloud) {
    cloud.register_fn("emit-pairs", |_ctx: &TaskCtx, v: Value| {
        let n = v.as_i64().ok_or("int")?;
        Ok(Value::List(
            pairs_of(n)
                .map(|(k, v)| Value::map().with("k", k).with("v", v))
                .collect(),
        ))
    });
    cloud.register_fn("sum-per-key", |_ctx: &TaskCtx, v: Value| {
        let groups = v.get("groups").and_then(Value::as_map).ok_or("groups")?;
        Ok(Value::Map(
            groups
                .iter()
                .map(|(k, vals)| {
                    let sum: i64 = vals
                        .as_list()
                        .map_or(0, |l| l.iter().filter_map(Value::as_i64).sum());
                    (k.clone(), Value::Int(sum))
                })
                .collect(),
        ))
    });
    cloud.register_fn("sum-combiner", |_ctx: &TaskCtx, v: Value| {
        let sum: i64 = v.req_list("vs")?.iter().filter_map(Value::as_i64).sum();
        Ok(Value::Int(sum))
    });
}

fn run_sum_job(seed: u64, opts: ShuffleOpts) -> Vec<Value> {
    let cloud = test_cloud(seed);
    register_sum_job(&cloud);
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map_shuffle_reduce(
            "emit-pairs",
            DataSource::Values((0..20).map(Value::from).collect()),
            "sum-per-key",
            opts.clone(),
        )
        .unwrap();
        exec.get_result().unwrap()
    })
}

#[test]
fn all_planes_produce_bitwise_identical_results() {
    // The oracle: the same input pairs, sorted and summed per key in one
    // sequential pass with no cloud underneath.
    let mut oracle: BTreeMap<String, i64> = BTreeMap::new();
    for (k, v) in (0..20).flat_map(pairs_of) {
        *oracle.entry(k.to_owned()).or_default() += v;
    }

    let outputs: Vec<Vec<Value>> = [ExchangeMode::Cos, ExchangeMode::Relay]
        .into_iter()
        .map(|exchange| {
            run_sum_job(
                77,
                ShuffleOpts {
                    reducers: 4,
                    exchange,
                    ..ShuffleOpts::default()
                },
            )
        })
        .collect();
    for (exchange, reducers) in ["cos", "relay"].iter().zip(&outputs) {
        // Every key lands on exactly one reducer, with the oracle's sum.
        let mut got: BTreeMap<String, i64> = BTreeMap::new();
        for r in reducers {
            for (k, v) in r.as_map().expect("reducer output is a map") {
                let sum = v.as_i64().expect("int sum");
                assert!(
                    got.insert(k.clone(), sum).is_none(),
                    "{exchange}: key `{k}` on two reducers"
                );
            }
        }
        assert_eq!(got, oracle, "{exchange} exchange != sequential oracle");
    }
    // Bitwise: the encoded wire bytes agree, not just structural equality.
    for (r, (a, b)) in outputs[0].iter().zip(&outputs[1]).enumerate() {
        assert_eq!(
            a.encode(),
            b.encode(),
            "reducer {r} bytes differ across exchanges"
        );
    }
}

#[test]
fn small_fanin_merge_matches_single_round_merge() {
    // Many maps + tiny fan-in forces multiple merge rounds on the reduce
    // side; the grouped output must not depend on the round structure.
    let narrow = run_sum_job(
        78,
        ShuffleOpts {
            reducers: 2,
            merge_fanin: 2,
            ..ShuffleOpts::default()
        },
    );
    let wide = run_sum_job(
        78,
        ShuffleOpts {
            reducers: 2,
            merge_fanin: 64,
            ..ShuffleOpts::default()
        },
    );
    assert_eq!(narrow, wide);
}

#[test]
fn empty_partitions_are_elided_not_put() {
    // Sparse: every map emits a single key, so 15 of 16 partitions are
    // empty for every map. A plane that PUT all 16 per map regardless would
    // cost O(M×R) objects.
    let opts = ShuffleOpts {
        reducers: 16,
        ..ShuffleOpts::default()
    };
    let cloud = test_cloud(79);
    cloud.register_fn("emit-one-key", |_ctx: &TaskCtx, v: Value| {
        let n = v.as_i64().ok_or("int")?;
        Ok(Value::List(vec![Value::map()
            .with("k", "lonely")
            .with("v", n)]))
    });
    register_sum_job(&cloud);
    let (results, sparse_puts) = cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map_shuffle_reduce(
            "emit-one-key",
            DataSource::Values((0..10).map(Value::from).collect()),
            "sum-per-key",
            opts,
        )
        .unwrap();
        let results = exec.get_result().unwrap();
        (results, exec.cos_op_stats().agent.puts)
    });
    // All sixteen reducers complete: fifteen see declared-absent
    // partitions and report empty maps instead of waiting or failing.
    assert_eq!(results.len(), 16);
    let total: i64 = results
        .iter()
        .filter_map(|r| r.as_map())
        .flat_map(|m| m.values().map(|v| v.as_i64().unwrap_or(0)))
        .sum();
    assert_eq!(total, (0..10).sum::<i64>());
    // One status PUT per task and nothing else: the 150 empty partitions
    // cost no object, and the 10 one-pair slices ride in the manifests.
    assert_eq!(sparse_puts, 10 + 16, "agent PUTs");
}

#[test]
fn combiner_preserves_sums_and_runs_map_side() {
    let plain = run_sum_job(
        80,
        ShuffleOpts {
            reducers: 3,
            ..ShuffleOpts::default()
        },
    );
    let combined = run_sum_job(
        80,
        ShuffleOpts {
            reducers: 3,
            combiner: Some("sum-combiner".into()),
            ..ShuffleOpts::default()
        },
    );
    // Summing is associative+commutative, so pre-aggregating map-side must
    // not change any reducer's per-key totals.
    assert_eq!(plain, combined);
}

#[test]
fn range_partitioner_yields_globally_sorted_reducer_ranges() {
    let cloud = test_cloud(81);
    cloud.register_fn("emit-key", |_ctx: &TaskCtx, v: Value| {
        let n = v.as_i64().ok_or("int")?;
        Ok(Value::List(vec![Value::map()
            .with("k", format!("key-{:03}", (n * 37) % 100))
            .with("v", 1i64)]))
    });
    cloud.register_fn("collect-keys", |_ctx: &TaskCtx, v: Value| {
        let groups = v.get("groups").and_then(Value::as_map).ok_or("groups")?;
        Ok(Value::List(
            groups.keys().map(|k| Value::from(k.as_str())).collect(),
        ))
    });
    let samples: Vec<String> = (0..100)
        .map(|n| format!("key-{:03}", (n * 37) % 100))
        .collect();
    let part = Partitioner::range_from_samples(samples, 4);
    let results = cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map_shuffle_reduce(
            "emit-key",
            DataSource::Values((0..100).map(Value::from).collect()),
            "collect-keys",
            ShuffleOpts {
                reducers: 4,
                partitioner: part.clone(),
                ..ShuffleOpts::default()
            },
        )
        .unwrap();
        exec.get_result().unwrap()
    });
    // Concatenating reducer outputs in index order gives a globally sorted
    // key sequence — the CloudSort property.
    let flat: Vec<String> = results
        .iter()
        .flat_map(|r| r.as_list().unwrap().iter())
        .map(|k| k.as_str().unwrap().to_owned())
        .collect();
    assert_eq!(flat.len(), 100);
    assert!(flat.windows(2).all(|w| w[0] < w[1]), "not sorted: {flat:?}");
}

#[test]
fn submit_rejects_absurd_configs_with_typed_errors() {
    let cloud = test_cloud(82);
    register_sum_job(&cloud);
    let cases: Vec<(ShuffleOpts, &str)> = vec![
        (
            ShuffleOpts {
                reducers: MAX_REDUCERS + 1,
                ..ShuffleOpts::default()
            },
            "exceeds the supported maximum",
        ),
        (
            ShuffleOpts {
                reducers: 0,
                ..ShuffleOpts::default()
            },
            "at least one reducer",
        ),
        (
            ShuffleOpts {
                merge_fanin: 1,
                ..ShuffleOpts::default()
            },
            "merge_fanin",
        ),
        (
            ShuffleOpts {
                combiner: Some("not-registered".into()),
                ..ShuffleOpts::default()
            },
            "not registered",
        ),
        (
            ShuffleOpts {
                reducers: 4,
                partitioner: Partitioner::Range {
                    boundaries: vec!["m".into()],
                },
                ..ShuffleOpts::default()
            },
            "boundary",
        ),
    ];
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        for (opts, needle) in &cases {
            let err = exec
                .map_shuffle_reduce(
                    "emit-pairs",
                    DataSource::Values(vec![Value::Int(1)]),
                    "sum-per-key",
                    opts.clone(),
                )
                .unwrap_err();
            assert!(
                matches!(err, PywrenError::Config(_)),
                "expected Config error, got: {err}"
            );
            assert!(
                err.to_string().contains(needle),
                "missing `{needle}`: {err}"
            );
        }
    });
}

#[test]
fn corrupted_shuffle_data_is_a_typed_error_not_a_panic() {
    // Maps compute long enough that a corruption window opening mid-job
    // hits only the reduce phase's fetches. The reducer must surface a
    // typed error (the old code path panicked in the agent on any dep
    // fetch irregularity), and the job must not hang.
    let plan = FaultPlan::new(84).corrupt_get(
        PathScope::prefix("jobs/"),
        TimeWindow::starting_at(Duration::from_secs(8)),
        CorruptMode::FlipByte,
        1.0,
    );
    let cloud = SimCloud::builder()
        .seed(84)
        .client_network(NetworkProfile::lan())
        .chaos(plan)
        .build();
    cloud.register_fn("slow-emit", |ctx: &TaskCtx, v: Value| {
        ctx.charge(Duration::from_secs(10));
        let n = v.as_i64().ok_or("int")?;
        Ok(Value::List(vec![Value::map().with("k", "x").with("v", n)]))
    });
    register_sum_job(&cloud);
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        exec.map_shuffle_reduce(
            "slow-emit",
            DataSource::Values((0..4).map(Value::from).collect()),
            "sum-per-key",
            ShuffleOpts {
                reducers: 2,
                ..ShuffleOpts::default()
            },
        )
        .unwrap();
        let err = exec.get_result().unwrap_err();
        assert!(
            matches!(
                err,
                PywrenError::Task { .. } | PywrenError::Integrity { .. }
            ),
            "typed error, got: {err}"
        );
    });
    assert!(cloud.chaos_stats().corruptions > 0, "the fault plan fired");
}
