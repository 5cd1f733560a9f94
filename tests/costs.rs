//! The cost ratchet: exact counts of what a scenario costs the host,
//! checked against `costs.toml` beside `lint.toml`.
//!
//! Four scenarios, each on a fresh cloud at a fixed seed:
//!
//! * `map_massive_1000`, the paper's massive spawning (§5.1) at 1,000
//!   tasks: one `map` of `compute` tasks fired through remote invokers.
//! * `map_reduce_4x50`, a `map_reduce` over four objects of fifty
//!   partitions each with one reducer per object (§4.3, the Airbnb job's
//!   shape): four in-cloud reducers that poll the job's statuses by LIST
//!   while the maps run.
//! * `cloudsort_24x8`, the smoke CloudSort (24 maps, 8 reducers, seed 42)
//!   on the partitioned shuffle plane with its combiner, on the ledger's
//!   platform shape: the shuffle's map-side writer and reduce-side merge.
//! * `mergesort_d2`, Fig 4's mergesort (§4.4) at depth 2 over 20,000
//!   integers on a LAN cloud: seven nested activations, each internal one
//!   awaiting its two children's runs and merging them.
//!
//! Over its `cloud.run` a test counts heap allocations and the bytes they
//! asked for (a counting global allocator, installed in this test binary
//! only: `alloc`, `alloc_zeroed` and `realloc` each count once), and the
//! kernel's events (clock advances, timers scheduled and threads started,
//! as the ledger sums them), light polls and shim-lock acquisitions. The
//! whole job runs on the test's own thread (it starts no OS thread, which
//! the test checks), and only that thread's allocations count: the test
//! harness's other threads, the other scenario's among them, allocate when
//! they please. So each
//! count repeats exactly from run to run: same seed, same program, same
//! counts.
//!
//! A count above its line in `costs.toml` fails: the change costs more. A
//! count below its line fails too, naming the count to lower the line to:
//! the file only goes down, and raising a line is an edit that the change's
//! CHANGES.md entry names and justifies.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use bytes::Bytes;
use rustwren::core::{
    DataSource, MapReduceOpts, Partitioner, ShuffleOpts, ShufflePlane, SimCloud, SpawnStrategy,
    TaskCtx, Value,
};
use rustwren::faas::PlatformConfig;
use rustwren::sim::{task, KernelStats, NetworkProfile};
use rustwren::workloads::cloudsort::{self, CloudSortConfig};
use rustwren::workloads::compute;
use rustwren::workloads::mergesort;

/// The system allocator, counting what it is asked for.
struct Counting;

thread_local! {
    /// This thread's allocations and the bytes they asked for, while it
    /// counts.
    static COUNTS: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

fn count(bytes: usize) {
    let _ = COUNTS.try_with(|c| {
        if let Some((n, b)) = c.get() {
            c.set(Some((n + 1, b + bytes as u64)));
        }
    });
}

// SAFETY: every call is forwarded to `System` unchanged, with the caller's
// own arguments; the counting touches a thread-local `Cell` only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What the kernel did, as the ledger's `sim.events` sums it.
fn events(k: &KernelStats) -> u64 {
    k.clock_advances + k.timers_scheduled + k.threads_started
}

/// A cloud at seed 42 with room for `tasks` activations at once, as the
/// ledger's `map_fanout` gives its job.
fn cloud_for(tasks: usize) -> SimCloud {
    let limit = tasks + tasks / 10 + 50;
    let platform = PlatformConfig {
        concurrency_limit: limit,
        cluster_containers: limit + 200,
        ..PlatformConfig::default()
    };
    SimCloud::builder()
        .seed(42)
        .platform(platform)
        .client_network(NetworkProfile::lan())
        .build()
}

/// Runs `job` on `cloud` and returns its value with what it cost this
/// thread, by the names `costs.toml` gives them.
fn counted<T>(cloud: &SimCloud, job: impl FnOnce() -> T) -> (T, Vec<(&'static str, u64)>) {
    let kernel_before = cloud.kernel().stats();
    COUNTS.set(Some((0, 0)));
    let value = cloud.run(job);
    let (allocations, bytes) = COUNTS.take().unwrap_or_default();
    let kernel = cloud.kernel().stats();
    assert_eq!(
        kernel.os_threads_spawned, kernel_before.os_threads_spawned,
        "the job ran on OS threads whose allocations this thread does not see"
    );
    let counts = vec![
        ("allocations", allocations),
        ("allocated_bytes", bytes),
        ("kernel_events", events(&kernel) - events(&kernel_before)),
        (
            "light_polls",
            kernel.light_polls - kernel_before.light_polls,
        ),
        (
            "lock_acquisitions",
            kernel.lock_acquisitions - kernel_before.lock_acquisitions,
        ),
    ];
    (value, counts)
}

const TASKS: usize = 1_000;

fn map_massive() -> Vec<(&'static str, u64)> {
    let cloud = cloud_for(TASKS);
    compute::register(&cloud);
    let inputs: Vec<Value> = (0..TASKS).map(|_| compute::input(1.0)).collect();
    let (results, counts) = counted(&cloud, || {
        let exec = cloud.executor().spawn(SpawnStrategy::massive()).build()?;
        exec.map(compute::COMPUTE_FN, inputs)?;
        exec.get_result()
    });
    let results = results.expect("the job");
    assert_eq!(results.len(), TASKS);
    assert!(
        results.iter().all(|v| *v == Value::Float(1.0)),
        "{results:?}"
    );
    counts
}

const OBJECTS: usize = 4;
const PARTITIONS: u64 = 50;
const CHUNK: u64 = 1 << 20;

fn map_reduce() -> Vec<(&'static str, u64)> {
    let cloud = cloud_for(OBJECTS * PARTITIONS as usize);
    // Each map takes about a second per partition's logical MiB, spread by
    // its container's speed, so the reducers see the maps land over
    // several polls.
    cloud.register_resumable_fn("chunk", |ctx: TaskCtx, input: Value| async move {
        let mib = (input.req_i64("end")? - input.req_i64("start")?) as f64 / CHUNK as f64;
        task::sleep(ctx.activation().scaled(Duration::from_secs_f64(mib))).await;
        Ok(Value::Int(1))
    });
    cloud.register_resumable_fn("count", |_ctx: TaskCtx, input: Value| async move {
        let results = input.req_list("results")?;
        Ok(Value::Int(results.iter().filter_map(Value::as_i64).sum()))
    });
    let store = cloud.store();
    store.ensure_bucket("cities");
    for city in 0..OBJECTS {
        let data = Bytes::from(vec![b'x'; 64]);
        store
            .put_scaled("cities", &format!("city-{city}"), data, PARTITIONS * CHUNK)
            .expect("setup put");
    }
    let (results, counts) = counted(&cloud, || {
        let exec = cloud.executor().build()?;
        let opts = MapReduceOpts {
            chunk_size: Some(CHUNK),
            reducer_one_per_object: true,
        };
        exec.map_reduce("chunk", DataSource::bucket("cities"), "count", opts)?;
        exec.get_result()
    });
    let results = results.expect("the job");
    assert_eq!(results, vec![Value::Int(PARTITIONS as i64); OBJECTS]);
    counts
}

fn cloudsort() -> Vec<(&'static str, u64)> {
    let cfg = CloudSortConfig::smoke(42);
    // The ledger's `cloudsort` platform: room for every map at once, and
    // fewer containers than maps, so the job runs in waves over warm ones.
    let platform = PlatformConfig {
        concurrency_limit: cfg.maps + cfg.maps / 10 + 50,
        cluster_containers: (cfg.maps / 4).max(10),
        ..PlatformConfig::default()
    };
    let cloud = SimCloud::builder()
        .seed(cfg.seed)
        .platform(platform)
        .client_network(NetworkProfile::lan())
        .build();
    cloudsort::register(&cloud);
    cloudsort::stage(cloud.store(), "cloudsort", &cfg).expect("setup stage");
    let partitioner = Partitioner::range_from_samples(cloudsort::sample_keys(&cfg), cfg.reducers);
    let (results, counts) = counted(&cloud, || {
        let exec = cloud.executor().build()?;
        let opts = ShuffleOpts {
            plane: ShufflePlane::Partitioned,
            partitioner,
            combiner: Some(cloudsort::CLOUDSORT_COMBINE_FN.into()),
            ..ShuffleOpts::default()
        };
        cloudsort::submit(&exec, "cloudsort", &cfg, opts)?;
        exec.get_result()
    });
    let reports = cloudsort::verify(&results.expect("the job"), &cfg).expect("a sorted run");
    assert_eq!(reports.len(), cfg.reducers);
    counts
}

const SORTED: u64 = 20_000;

fn mergesort_d2() -> Vec<(&'static str, u64)> {
    let cloud = SimCloud::builder()
        .seed(42)
        .client_network(NetworkProfile::lan())
        .build();
    mergesort::register(&cloud);
    let (results, counts) = counted(&cloud, || {
        let exec = cloud.executor().build()?;
        exec.call_async(mergesort::MERGESORT_FN, mergesort::input(42, SORTED, 2))?;
        exec.get_result()
    });
    let results = results.expect("the job");
    let run = results.first().and_then(Value::as_bytes).expect("a run");
    let sorted = mergesort::decode_i64s(run);
    assert_eq!(sorted.len() as u64, SORTED);
    assert!(sorted.is_sorted(), "the run is not sorted");
    counts
}

/// The `name = count` lines of `table` in `costs.toml`.
fn pinned(table: &str) -> Vec<(String, u64)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/costs.toml");
    let text = std::fs::read_to_string(path).expect("costs.toml beside lint.toml");
    let header = format!("[{table}]");
    let mut lines = text.lines().map(str::trim);
    assert!(
        lines.any(|l| l == header),
        "costs.toml has no table {header}"
    );
    lines
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, count) = l.split_once('=').expect("`name = count`");
            let count = count.trim().parse().expect("a count");
            (name.trim().to_owned(), count)
        })
        .collect()
}

/// Checks `measured` against the lines of `table`.
fn check(table: &str, measured: &[(&str, u64)]) {
    let pinned = pinned(table);
    let names: Vec<&str> = pinned.iter().map(|(n, _)| n.as_str()).collect();
    let measured_names: Vec<&str> = measured.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, measured_names, "costs.toml's lines");
    let mut wrong = Vec::new();
    for ((name, want), (_, got)) in pinned.iter().zip(measured) {
        if got > want {
            wrong.push(format!("{name} rose from {want} to {got}"));
        } else if got < want {
            wrong.push(format!(
                "{name} fell from {want} to {got}: lower its line to {got}"
            ));
        }
    }
    assert!(wrong.is_empty(), "{table}: {}", wrong.join("; "));
}

#[test]
fn costs_of_a_massive_spawn_map_are_pinned() {
    check("map_massive_1000", &map_massive());
}

#[test]
fn costs_of_a_map_reduce_with_polling_reducers_are_pinned() {
    check("map_reduce_4x50", &map_reduce());
}

#[test]
fn costs_of_a_cloudsort_shuffle_are_pinned() {
    check("cloudsort_24x8", &cloudsort());
}

#[test]
fn costs_of_a_depth_two_mergesort_are_pinned() {
    check("mergesort_d2", &mergesort_d2());
}
