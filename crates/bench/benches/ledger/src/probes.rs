//! Layer probes: closed-loop micro-drivers that time each run-path
//! crate's public functions in isolation.
//!
//! A probe answers "what does one unit of this layer's work cost on this
//! host", and it is sized from the workload it follows, not from invented
//! constants: the store probes replay the object inventory the traced
//! iteration left behind (same keys, same sizes), the wire probes re-encode
//! the payloads found in the executor's bucket, the kernel probes run in
//! waves as wide as the workload's peak concurrency. A probe whose layer
//! the workload never enters reports 0.
//!
//! Every probe is capped in wall time ([`Caps`]) or by a task count,
//! whichever comes first, so a traced run stays well inside its budget. Unit costs
//! times the traced iteration's counts give the `*.est_busy_s` estimates;
//! those overlap (a COS op is also kernel events) and may exceed `wall_s`.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rustwren_analyze::{analyze, CloudProfile};
use rustwren_core::partition::partition_objects;
use rustwren_core::wire::{stamp, verify_stamped};
use rustwren_core::{SimCloud, Value};
use rustwren_faas::{ActionConfig, ActivationCtx, CloudFunctions, PlatformConfig};
use rustwren_sim::{Kernel, LightStep};
use rustwren_store::{CosClient, ObjectStore};
use rustwren_workloads::{cloudsort, mergesort, tone};

use crate::catalog::Values;
use crate::trace::kernel_events;
use crate::workloads::{discovered, Outcome, Workload};

/// Wall-time caps of the probe loops; `--smoke` divides them by ten.
#[derive(Debug, Clone, Copy)]
struct Caps {
    /// One single-threaded probe loop.
    plain: Duration,
    /// Each kernel probe and the platform probe: these spawn OS threads,
    /// so they need longer to settle.
    threaded: Duration,
}

impl Caps {
    fn new(smoke: bool) -> Caps {
        let ms = |full: u64| Duration::from_millis(if smoke { full / 10 } else { full });
        Caps {
            plain: ms(150),
            threaded: ms(1_000),
        }
    }
}

/// Runs `round` (which performs `units` units of work and returns them)
/// until `cap` has passed, and returns nanoseconds per unit.
fn ns_per_unit(cap: Duration, mut round: impl FnMut() -> u64) -> f64 {
    let started = Instant::now();
    let mut units = 0u64;
    loop {
        units += round();
        let elapsed = started.elapsed();
        if elapsed >= cap || units == 0 {
            return if units == 0 {
                0.0
            } else {
                elapsed.as_nanos() as f64 / units as f64
            };
        }
    }
}

/// Two-phase sleepers released in waves, with the client waiting out each
/// wave on the virtual clock — as lightweight tasks on the dispatch loop
/// or as one OS thread each. Host nanoseconds per kernel event.
fn sim_probe(light: bool, tasks: usize, wave: usize, cap: Duration) -> f64 {
    let kernel = Kernel::new();
    let done = Arc::new(AtomicUsize::new(0));
    let done2 = Arc::clone(&done);
    let started = Instant::now();
    let launched = kernel.run("client", move || {
        let mut launched = 0usize;
        while launched < tasks && started.elapsed() < cap {
            let n = wave.min(tasks - launched);
            for i in launched..launched + n {
                let startup = Duration::from_millis(5 + (i % 7) as u64 * 5);
                let exec = Duration::from_millis(60);
                let done = Arc::clone(&done2);
                if light {
                    let mut step = 0u8;
                    rustwren_sim::spawn_light("task", move || match step {
                        0 => {
                            step = 1;
                            LightStep::Sleep(startup)
                        }
                        1 => {
                            step = 2;
                            LightStep::Sleep(exec)
                        }
                        _ => {
                            done.fetch_add(1, Ordering::Relaxed);
                            LightStep::Done
                        }
                    });
                } else {
                    rustwren_sim::spawn("task", move || {
                        rustwren_sim::sleep(startup);
                        rustwren_sim::sleep(exec);
                        done.fetch_add(1, Ordering::Relaxed);
                    });
                }
            }
            launched += n;
            // Longest task: 35 ms startup + 60 ms exec; 100 ms covers it.
            rustwren_sim::sleep(Duration::from_millis(100));
        }
        launched
    });
    let elapsed = started.elapsed();
    assert_eq!(
        done.load(Ordering::Relaxed),
        launched,
        "kernel probe: not every sleeper completed"
    );
    elapsed.as_nanos() as f64 / kernel_events(&kernel.stats()).max(1) as f64
}

/// `invoke` + `wait` of a no-op action in batches as wide as the warm
/// pool: no executor, no COS. Host nanoseconds per activation.
fn faas_probe(batch: usize, cap: Duration) -> f64 {
    let kernel = Kernel::new();
    let store = ObjectStore::new(&kernel);
    let faas = CloudFunctions::new(
        &kernel,
        &store,
        PlatformConfig {
            concurrency_limit: batch,
            cluster_containers: batch,
            ..PlatformConfig::default()
        },
    );
    faas.register_action(
        "noop",
        ActionConfig::default(),
        |_ctx: &ActivationCtx, payload: Bytes| Ok(payload),
    )
    .expect("the default runtime is always registered");
    let started = Instant::now();
    let activations = kernel.run("client", || {
        let mut n = 0u64;
        while n < 20_000 && started.elapsed() < cap {
            let ids: Vec<_> = (0..batch)
                .map(|_| faas.invoke("noop", Bytes::new()).expect("within the limit"))
                .collect();
            for id in ids {
                assert!(faas.wait(id).is_success(), "no-op activation failed");
            }
            n += batch as u64;
        }
        n
    });
    started.elapsed().as_nanos() as f64 / activations.max(1) as f64
}

/// One object the traced iteration left in its store.
struct Stored {
    bucket: String,
    key: String,
    data: Bytes,
}

fn inventory(store: &ObjectStore) -> Vec<Stored> {
    let mut all = Vec::new();
    for bucket in store.list_buckets() {
        for meta in store.list(&bucket, "").unwrap_or_default() {
            if let Ok(data) = store.get(&bucket, &meta.key) {
                all.push(Stored {
                    bucket: bucket.clone(),
                    key: meta.key,
                    data,
                });
            }
        }
    }
    all
}

fn store_probes(cloud: &SimCloud, objects: &[Stored], cap: Duration, out: &mut Values) {
    const NAMES: [&str; 7] = [
        "store.probe.put_ns_per_op",
        "store.probe.get_ns_per_op",
        "store.probe.range_get_ns_per_op",
        "store.probe.list_ns_per_op",
        "store.probe.copy_ns_per_kib",
        "store.probe.client_get_virtual_ms",
        "store.probe.client_put_virtual_ms",
    ];
    if objects.is_empty() {
        for name in NAMES {
            out.set(name, 0.0);
        }
        return;
    }
    let kernel = Kernel::new();
    let store = ObjectStore::new(&kernel);
    for o in objects {
        store.ensure_bucket(&o.bucket);
    }
    let ops = objects.len() as u64;
    out.set(
        NAMES[0],
        ns_per_unit(cap, || {
            for o in objects {
                black_box(store.put(&o.bucket, &o.key, o.data.clone())).expect("bucket exists");
            }
            ops
        }),
    );
    out.set(
        NAMES[1],
        ns_per_unit(cap, || {
            for o in objects {
                black_box(store.get(&o.bucket, &o.key)).expect("just stored");
            }
            ops
        }),
    );
    out.set(
        NAMES[2],
        ns_per_unit(cap, || {
            let mut n = 0;
            for o in objects.iter().filter(|o| o.data.len() >= 4) {
                let len = o.data.len() as u64;
                black_box(store.get_range(&o.bucket, &o.key, len / 4, len - len / 4))
                    .expect("range inside the object");
                n += 1;
            }
            n
        }),
    );
    // The workload's LISTs are prefix listings of one job directory.
    let mut prefixes: Vec<(&str, &str)> = objects
        .iter()
        .map(|o| {
            let dir = o.key.rfind('/').map_or("", |i| &o.key[..=i]);
            (o.bucket.as_str(), dir)
        })
        .collect();
    prefixes.sort_unstable();
    prefixes.dedup();
    out.set(
        NAMES[3],
        ns_per_unit(cap, || {
            for (bucket, prefix) in &prefixes {
                black_box(store.list(bucket, prefix)).expect("bucket exists");
            }
            prefixes.len() as u64
        }),
    );
    // The store's byte-proportional work is the content ETag on PUT (GET
    // hands out a shared slice), so move the largest objects through it.
    let mut largest: Vec<&Stored> = objects.iter().collect();
    largest.sort_by_key(|o| std::cmp::Reverse(o.data.len()));
    largest.truncate(8);
    let kib = largest.iter().map(|o| o.data.len() as u64).sum::<u64>() as f64 / 1024.0;
    out.set(
        NAMES[4],
        ns_per_unit(cap, || {
            for o in &largest {
                black_box(store.put(&o.bucket, &o.key, o.data.clone())).expect("bucket exists");
                black_box(store.get(&o.bucket, &o.key)).expect("just stored");
            }
            1
        }) / kib.max(f64::MIN_POSITIVE),
    );
    // What one agent-side COS round trip costs on the virtual clock, at
    // the workload's median object size over the platform's internal net.
    let mut sizes: Vec<usize> = objects.iter().map(|o| o.data.len()).collect();
    sizes.sort_unstable();
    let body = Bytes::from(vec![0u8; sizes[sizes.len() / 2]]);
    let client = CosClient::new(&store, cloud.functions().config().internal_net.clone(), 1);
    store.ensure_bucket("probe");
    let (put_ms, get_ms) = kernel.run("client", || {
        const OPS: u32 = 64;
        let t0 = rustwren_sim::now();
        for i in 0..OPS {
            client
                .put("probe", &format!("k{i}"), body.clone())
                .expect("fault-free put");
        }
        let t1 = rustwren_sim::now();
        for i in 0..OPS {
            client
                .get("probe", &format!("k{i}"))
                .expect("fault-free get");
        }
        let t2 = rustwren_sim::now();
        let per_op = |d: Duration| d.as_secs_f64() * 1e3 / f64::from(OPS);
        (per_op(t1.duration_since(t0)), per_op(t2.duration_since(t1)))
    });
    out.set(NAMES[5], get_ms);
    out.set(NAMES[6], put_ms);
}

/// Re-runs the four wire steps over the stamped payloads found in the
/// executor's bucket — the workload's own payload shapes.
fn wire_probes(objects: &[Stored], cap: Duration, out: &mut Values) {
    const NAMES: [&str; 4] = [
        "core.wire.probe.verify_ns_per_kib",
        "core.wire.probe.decode_ns_per_kib",
        "core.wire.probe.encode_ns_per_kib",
        "core.wire.probe.stamp_ns_per_kib",
    ];
    let stamped: Vec<&Bytes> = objects
        .iter()
        .map(|o| &o.data)
        .filter(|d| verify_stamped(d).is_ok_and(|p| Value::decode(p).is_ok()))
        .collect();
    if stamped.is_empty() {
        for name in NAMES {
            out.set(name, 0.0);
        }
        return;
    }
    let payloads: Vec<&[u8]> = stamped
        .iter()
        .map(|d| verify_stamped(d).expect("filtered above"))
        .collect();
    let values: Vec<Value> = payloads
        .iter()
        .map(|p| Value::decode(p).expect("filtered above"))
        .collect();
    let encoded: Vec<Bytes> = values.iter().map(Value::encode).collect();
    let kib = payloads.iter().map(|p| p.len() as u64).sum::<u64>() as f64 / 1024.0;
    let per_kib = |round_ns: f64| round_ns / kib.max(f64::MIN_POSITIVE);
    out.set(
        NAMES[0],
        per_kib(ns_per_unit(cap, || {
            for d in &stamped {
                black_box(verify_stamped(d)).expect("verified above");
            }
            1
        })),
    );
    out.set(
        NAMES[1],
        per_kib(ns_per_unit(cap, || {
            for p in &payloads {
                black_box(Value::decode(p)).expect("decoded above");
            }
            1
        })),
    );
    out.set(
        NAMES[2],
        per_kib(ns_per_unit(cap, || {
            for v in &values {
                black_box(v.encode());
            }
            1
        })),
    );
    out.set(
        NAMES[3],
        per_kib(ns_per_unit(cap, || {
            for e in &encoded {
                black_box(stamp(e));
            }
            1
        })),
    );
}

fn partition_probe(cloud: &SimCloud, outcome: &Outcome, cap: Duration, out: &mut Values) {
    const NAME: &str = "core.partition.probe.ns_per_partition";
    let Some((bucket, chunk)) = outcome.partitioned else {
        out.set(NAME, 0.0);
        return;
    };
    let objects = discovered(cloud, bucket);
    out.set(
        NAME,
        ns_per_unit(cap, || {
            black_box(partition_objects(black_box(&objects), chunk))
                .expect("non-zero chunk")
                .len() as u64
        }),
    );
}

fn analyze_probe(cloud: &SimCloud, outcome: &Outcome, cap: Duration, out: &mut Values) {
    let Some(plan) = &outcome.plan else {
        out.set("analyze.probe.plan_ns", 0.0);
        out.set("analyze.diagnostics", 0.0);
        return;
    };
    let profile = CloudProfile::from(cloud.functions().limits());
    out.set("analyze.diagnostics", analyze(plan, &profile).len() as f64);
    out.set(
        "analyze.probe.plan_ns",
        ns_per_unit(cap, || {
            black_box(analyze(black_box(plan), &profile));
            1
        }),
    );
}

/// Times the user functions' real compute and returns the estimate of how
/// much of it one iteration runs (unit cost × the workload's own sizes).
fn workload_probes(w: &Workload, objects: &[Stored], cap: Duration, out: &mut Values) -> f64 {
    let (mut tone_ns, mut sort_ns, mut merge_ns, mut busy_ns) = (0.0, 0.0, 0.0, 0.0);
    match w {
        Workload::AirbnbTone { .. } => {
            let reviews: Vec<&Bytes> = objects
                .iter()
                .filter(|o| o.key.ends_with(".csv"))
                .map(|o| &o.data)
                .collect();
            let kib = reviews.iter().map(|d| d.len() as u64).sum::<u64>() as f64 / 1024.0;
            tone_ns = ns_per_unit(cap, || {
                for d in &reviews {
                    black_box(tone::analyze_lines(d));
                }
                1
            }) / kib.max(f64::MIN_POSITIVE);
            // Every physical byte is analyzed once across the map tasks.
            busy_ns = tone_ns * kib;
        }
        Workload::Cloudsort { cfg } => {
            let mut map = 0;
            sort_ns = ns_per_unit(cap, || {
                let mut keys: Vec<String> = (0..cfg.samples_per_map)
                    .map(|i| cloudsort::sort_key(cfg.seed, map % cfg.maps, i))
                    .collect();
                keys.sort_unstable();
                black_box(keys);
                map += 1;
                cfg.samples_per_map as u64
            });
            busy_ns = sort_ns * (cfg.maps * cfg.samples_per_map) as f64;
        }
        Workload::MergesortCompose { seed, n, depth } => {
            // The root's merge: two sorted halves arrive encoded.
            let half = |s: u64, len: u64| {
                let mut v = mergesort::generate(s, len as usize);
                v.sort_unstable();
                mergesort::encode_i64s(&v)
            };
            let (left, right) = (half(*seed, n / 2), half(seed + 1, n - n / 2));
            merge_ns = ns_per_unit(cap, || {
                let merged = mergesort::merge(
                    mergesort::decode_i64s(&left),
                    mergesort::decode_i64s(&right),
                );
                black_box(mergesort::encode_i64s(&merged));
                *n
            });
            // Every level of the tree merges all n elements once.
            busy_ns = merge_ns * (*n * u64::from(*depth)) as f64;
        }
        Workload::MapFanout { .. } | Workload::ServingBurst { .. } => {}
    }
    out.set("workloads.probe.tone_ns_per_kib", tone_ns);
    out.set("workloads.probe.sort_ns_per_record", sort_ns);
    out.set("workloads.probe.merge_ns_per_elem", merge_ns);
    busy_ns / 1e9
}

/// Runs every probe against the traced iteration's cloud and derives the
/// per-layer busy-time estimates from that iteration's counts.
pub fn run(w: &Workload, cloud: &SimCloud, outcome: &Outcome, wall_s: f64, smoke: bool) -> Values {
    let mut out = Values::default();
    let counts = &outcome.exact;
    let caps = Caps::new(smoke);

    let wave = (counts.req("faas.peak_concurrency") as usize).clamp(1, 2_000);
    let light_ns = sim_probe(true, 1_000_000, wave, caps.threaded);
    let thread_ns = sim_probe(false, 10_000, wave, caps.threaded);
    out.set("sim.probe.light_ns_per_event", light_ns);
    out.set("sim.probe.thread_ns_per_event", thread_ns);
    // Light tasks are polled on the dispatch loop; every other event is a
    // hand-off to a parked OS thread.
    let light = counts.req("sim.light_polls");
    let threaded = (counts.req("sim.events") - light).max(0.0);
    let sim_busy = (threaded * thread_ns + light * light_ns) / 1e9;
    out.set("sim.est_busy_s", sim_busy);

    let objects = inventory(cloud.store());
    store_probes(cloud, &objects, caps.plain, &mut out);
    let store_busy = ((counts.req("store.gets") + counts.req("store.heads"))
        * out.req("store.probe.get_ns_per_op")
        + counts.req("store.puts") * out.req("store.probe.put_ns_per_op")
        + counts.req("store.lists") * out.req("store.probe.list_ns_per_op"))
        / 1e9;
    out.set("store.est_busy_s", store_busy);

    let activation_ns = faas_probe(wave.min(16), caps.threaded);
    out.set("faas.probe.invoke_wait_ns_per_activation", activation_ns);
    let faas_busy = counts.req("faas.completed") * activation_ns / 1e9;
    out.set("faas.est_busy_s", faas_busy);

    wire_probes(&objects, caps.plain, &mut out);
    let wire_busy = (counts.req("store.bytes_out") / 1024.0
        * (out.req("core.wire.probe.encode_ns_per_kib")
            + out.req("core.wire.probe.stamp_ns_per_kib"))
        + counts.req("store.bytes_in") / 1024.0
            * (out.req("core.wire.probe.verify_ns_per_kib")
                + out.req("core.wire.probe.decode_ns_per_kib")))
        / 1e9;
    out.set("core.wire.est_busy_s", wire_busy);

    partition_probe(cloud, outcome, caps.plain, &mut out);
    analyze_probe(cloud, outcome, caps.plain, &mut out);
    let workloads_busy = workload_probes(w, &objects, caps.plain, &mut out);
    out.set("workloads.est_busy_s", workloads_busy);

    out.set(
        "bench.unattributed_s",
        wall_s - sim_busy - store_busy - faas_busy - wire_busy - workloads_busy,
    );
    out
}
