//! Shuffle-exchange ablation — a CloudSort-style virtual 100 GB sort.
//!
//! The same range-partitioned sort runs over both exchanges of the
//! partitioned plane (the comparison *A Milestone for FaaS Pipelines*
//! makes):
//!
//! 1. **partitioned** — exchanged through COS: sorted runs are elided when
//!    empty, inlined into the map's status manifest when small, or packed
//!    into a single per-map segment object fetched by byte range.
//! 2. **relay** — exchanged through a simulated low-latency VM relay tier
//!    instead of COS (the ablation the paper's §5 discussion of
//!    storage-mediated communication motivates).
//!
//! Prints the comparison table and writes `BENCH_shuffle.json`
//! (`target/bench/shuffle.json` under `--smoke`), then fails (exit 1)
//! unless the relay arm strictly beats the partitioned arm on COS
//! operations — the regression gate CI runs in smoke mode. Both arms'
//! reducer reports must also pass the CloudSort global verification (no
//! record lost, ranges ordered and disjoint).
//!
//! Run: `cargo run --release -p rustwren-bench --bin shuffle`

use std::fmt::Write as _;

use rustwren_bench::{fmt_secs, BenchArgs, Table};
use rustwren_core::stats::CosOpStats;
use rustwren_core::{ExchangeMode, Partitioner, ShuffleOpts, SimCloud};
use rustwren_faas::PlatformConfig;
use rustwren_sim::NetworkProfile;
use rustwren_store::{OpCounts, RelayOpCounts};
use rustwren_workloads::cloudsort::{self, CloudSortConfig, RangeReport};

/// One measured shuffle arm.
struct Arm {
    name: &'static str,
    secs: f64,
    ops: CosOpStats,
    relay: RelayOpCounts,
    reports: Vec<RangeReport>,
}

/// Headroom above the map fan-out so nothing throttles; containers well
/// below the task count so the job runs in waves over warm containers.
fn platform(tasks: usize) -> PlatformConfig {
    PlatformConfig {
        concurrency_limit: tasks + tasks / 10 + 50,
        cluster_containers: (tasks / 4).max(10),
        ..PlatformConfig::default()
    }
}

fn run_arm(name: &'static str, seed: u64, cfg: CloudSortConfig, exchange: ExchangeMode) -> Arm {
    let cloud = SimCloud::builder()
        .seed(seed)
        .platform(platform(cfg.maps))
        .client_network(NetworkProfile::lan())
        .build();
    cloudsort::register(&cloud);
    cloudsort::stage(cloud.store(), "cloudsort", &cfg).expect("stage cloudsort input");
    let partitioner = Partitioner::range_from_samples(cloudsort::sample_keys(&cfg), cfg.reducers);
    let cloud2 = cloud.clone();
    let (secs, ops, results) = cloud.run(move || {
        let t0 = rustwren_sim::now().as_nanos();
        let exec = cloud2.executor().build().expect("executor");
        cloudsort::submit(
            &exec,
            "cloudsort",
            &cfg,
            ShuffleOpts {
                exchange,
                partitioner,
                ..ShuffleOpts::default()
            },
        )
        .expect("submit");
        let results = exec.get_result().expect("results");
        let secs = (rustwren_sim::now().as_nanos() - t0) as f64 / 1e9;
        (secs, exec.cos_op_stats(), results)
    });
    let reports = cloudsort::verify(&results, &cfg)
        .unwrap_or_else(|e| panic!("arm {name}: sort verification failed: {e}"));
    Arm {
        name,
        secs,
        ops,
        relay: cloud.relay().stats(),
        reports,
    }
}

fn ops_json(o: OpCounts) -> String {
    format!(
        "{{\"gets\":{},\"puts\":{},\"lists\":{},\"heads\":{},\"deletes\":{},\"bytes_in\":{},\"bytes_out\":{}}}",
        o.gets, o.puts, o.lists, o.heads, o.deletes, o.bytes_in, o.bytes_out
    )
}

fn arm_json(a: &Arm) -> String {
    format!(
        "{{\"name\":\"{}\",\"virtual_secs\":{:.3},\"staging\":{},\"polling\":{},\"agent\":{},\"total_cos_ops\":{},\"total_cos_bytes\":{},\"relay_ops\":{},\"relay_bytes\":{}}}",
        a.name,
        a.secs,
        ops_json(a.ops.staging),
        ops_json(a.ops.polling),
        ops_json(a.ops.agent),
        a.ops.total_ops(),
        a.ops.total_bytes(),
        a.relay.total_ops(),
        a.relay.total_bytes(),
    )
}

fn main() {
    let args = BenchArgs::parse();
    let cfg = if args.smoke {
        CloudSortConfig::smoke(args.seed)
    } else {
        CloudSortConfig::full(args.seed)
    };

    println!("== Shuffle-exchange ablation: CloudSort-style virtual sort ==");
    println!(
        "   ({} GB logical, {} maps x {} MB, {} reducers, {} containers)\n",
        cfg.logical_bytes / 1_000_000_000,
        cfg.maps,
        cfg.bytes_per_map() / 1_000_000,
        cfg.reducers,
        platform(cfg.maps).cluster_containers
    );

    let arms = [
        run_arm("partitioned", args.seed, cfg, ExchangeMode::Cos),
        run_arm("relay", args.seed, cfg, ExchangeMode::Relay),
    ];

    let mut table = Table::new(&[
        "Arm",
        "Virtual time",
        "Agent ops",
        "Polling ops",
        "Total COS ops",
        "Relay ops",
    ]);
    for a in &arms {
        table.row(&[
            a.name.to_owned(),
            fmt_secs(a.secs),
            a.ops.agent.total_ops().to_string(),
            a.ops.polling.total_ops().to_string(),
            a.ops.total_ops().to_string(),
            a.relay.total_ops().to_string(),
        ]);
    }
    println!("{table}");

    let (part, relay) = (&arms[0], &arms[1]);
    println!(
        "relay vs partitioned: {} -> {} COS ops ({} relay ops take the data plane off COS)\n",
        part.ops.total_ops(),
        relay.ops.total_ops(),
        relay.relay.total_ops()
    );

    // Identical reducer ranges across arms: the ablation changes the
    // exchange, never the sorted output.
    assert_eq!(
        part.reports, relay.reports,
        "relay exchange changed the sort output"
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"logical_bytes\":{},\"maps\":{},\"reducers\":{},\"record_bytes\":{},\"seed\":{},\"smoke\":{},\"arms\":[",
        cfg.logical_bytes, cfg.maps, cfg.reducers, cfg.record_bytes, args.seed, args.smoke
    );
    for (i, a) in arms.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&arm_json(a));
    }
    json.push_str("]}\n");
    args.write_bench_json("shuffle", &json);

    // Regression gates, at any scale.
    assert!(
        relay.ops.total_ops() < part.ops.total_ops(),
        "relay ({} COS ops) must be cheaper than partitioned ({})",
        relay.ops.total_ops(),
        part.ops.total_ops()
    );
    assert!(
        relay.relay.total_ops() > 0,
        "relay arm must actually use the relay tier"
    );
}
