//! The cost ratchet: exact counts of what one scenario costs the host,
//! checked against `costs.toml` beside `lint.toml`.
//!
//! The scenario is the paper's massive spawning (§5.1) at 1,000 tasks: one
//! `map` of `compute` tasks fired through remote invokers, on a fresh cloud
//! at a fixed seed. Over its `cloud.run` the test counts heap allocations
//! and the bytes they asked for (a counting global allocator, installed in
//! this test binary only: `alloc`, `alloc_zeroed` and `realloc` each count
//! once), and the kernel's events (clock advances, timers scheduled and
//! threads started, as the ledger sums them) and light polls. The whole job
//! runs on the test's own thread (it starts no OS thread, which the test
//! checks), and only that thread's allocations count: the test harness's
//! other threads allocate when they please. So each count repeats exactly
//! from run to run: same seed, same program, same counts.
//!
//! A count above its line in `costs.toml` fails: the change costs more. A
//! count below its line fails too, naming the count to lower the line to:
//! the file only goes down, and raising a line is an edit that the change's
//! CHANGES.md entry names and justifies.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use rustwren::core::{SimCloud, SpawnStrategy, Value};
use rustwren::faas::PlatformConfig;
use rustwren::sim::{KernelStats, NetworkProfile};
use rustwren::workloads::compute;

/// The system allocator, counting what it is asked for.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations count.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` unchanged, with the caller's
// own arguments; the counting touches atomics only.
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

const TASKS: usize = 1_000;

/// What the kernel did, as the ledger's `sim.events` sums it.
fn events(k: &KernelStats) -> u64 {
    k.clock_advances + k.timers_scheduled + k.threads_started
}

/// The scenario's counts, by the names `costs.toml` gives them.
fn map_massive() -> Vec<(&'static str, u64)> {
    // Room for every task and the invokers at once, as the ledger's
    // `map_fanout` gives its job.
    let limit = TASKS + TASKS / 10 + 50;
    let platform = PlatformConfig {
        concurrency_limit: limit,
        cluster_containers: limit + 200,
        ..PlatformConfig::default()
    };
    let cloud = SimCloud::builder()
        .seed(42)
        .platform(platform)
        .client_network(NetworkProfile::lan())
        .build();
    compute::register(&cloud);
    let inputs: Vec<Value> = (0..TASKS).map(|_| compute::input(1.0)).collect();

    let kernel_before = cloud.kernel().stats();
    COUNTING.set(true);
    let results = cloud.run(|| {
        let exec = cloud.executor().spawn(SpawnStrategy::massive()).build()?;
        exec.map(compute::COMPUTE_FN, inputs)?;
        exec.get_result()
    });
    COUNTING.set(false);
    let kernel = cloud.kernel().stats();

    assert_eq!(
        kernel.os_threads_spawned, kernel_before.os_threads_spawned,
        "the job ran on OS threads whose allocations this thread does not see"
    );
    let results = results.expect("the job");
    assert_eq!(results.len(), TASKS);
    assert!(
        results.iter().all(|v| *v == Value::Float(1.0)),
        "{results:?}"
    );
    vec![
        ("allocations", ALLOCATIONS.load(Ordering::Relaxed)),
        ("allocated_bytes", ALLOCATED_BYTES.load(Ordering::Relaxed)),
        ("kernel_events", events(&kernel) - events(&kernel_before)),
        (
            "light_polls",
            kernel.light_polls - kernel_before.light_polls,
        ),
    ]
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

#[test]
fn costs_of_a_massive_spawn_map_are_pinned() {
    let measured = map_massive();
    let pinned = pinned("map_massive_1000");
    let names: Vec<&str> = pinned.iter().map(|(n, _)| n.as_str()).collect();
    let measured_names: Vec<&str> = measured.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, measured_names, "costs.toml's lines");
    let mut wrong = Vec::new();
    for ((name, want), (_, got)) in pinned.iter().zip(&measured) {
        if got > want {
            wrong.push(format!("{name} rose from {want} to {got}"));
        } else if got < want {
            wrong.push(format!(
                "{name} fell from {want} to {got}: lower its line to {got}"
            ));
        }
    }
    assert!(wrong.is_empty(), "map_massive_1000: {}", wrong.join("; "));
}
