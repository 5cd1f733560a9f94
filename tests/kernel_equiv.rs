//! Bitwise-equivalence suite for the run path (DESIGN §4, §14).
//!
//! Each scenario runs a full workload on a fresh kernel and folds
//! everything an observer could see — results, kernel counters, the final
//! virtual clock, and the `RUSTWREN_SCHEDULE` trace token — into one
//! fingerprint string. A refactor that promises to preserve the observable
//! sequence (the kernel fast path of PR 9, the consolidations of PRs 12–15)
//! must reproduce every golden below bit for bit.
//!
//! The goldens have been re-blessed once, at PR 16, whose purpose was to
//! move them: it took 40 dead bytes off every priced agent payload and
//! `plane` off the shuffle descriptors, seeded executor jitter from the
//! executor id instead of its length, folded the executor's five per-job
//! tables into one lock, and dropped the platform's `tenanted` flag. The
//! first two re-roll jitter (`vt=` of nine constants moved; `r=`, `adv=`,
//! `tmr=` and `thr=` of none); the last two renumber preemption points
//! (`trace=` of `RAND_MAP_REDUCE` and `RAND_CLOUDSORT`). `FIFO_BURST`, which
//! has no executor and no payload, did not move. CHANGES.md (PR 16) lists
//! each constant before and after with its reason.
//!
//! PR 17 made the activation lifecycle one resumable state machine that
//! takes platform locks with `try_lock` (no preemption probe) where
//! `run_activation` took them with `lock` (one probe each), and made
//! `serve` a resumable body. Every `FIFO_*` constant held bit for bit —
//! `FIFO_BURST` now runs all its activations as light tasks, so its not
//! moving is the equivalence proof. Of the `RAND_*` constants `r=`, `adv=`,
//! `tmr=`, `thr=` and `vt=` held everywhere; the `trace=` token of five of
//! the six moved (all but `RAND_MAP[1]`) because dropping those probes
//! renumbers the later choice points on the thread vehicle. Re-captured
//! once; CHANGES.md (PR 17) lists each before and after.
//!
//! PR 24 took the client's pool lanes (`spawn-*`, `upload-*`, `results-*`),
//! the remote invoker and its lanes off OS threads: `fan_out` lanes are
//! light tasks, which have no preemption probe, where each thread lane had
//! one per `lock()`, `Event::fire` and `Event::wait` it made. Every `FIFO_*`
//! constant held bit for bit, and so did `r=`, `adv=`, `tmr=`, `thr=` and
//! `vt=` of all six `RAND_*` (a light lane counts in `threads_started` as
//! the thread it replaced); the `trace=` token of all six moved, because the
//! lanes' probes are gone and the choice points after them renumber.
//! Re-captured once; CHANGES.md (PR 24) lists each before and after.
//!
//! To re-bless after another *intentional* semantic change (new choice
//! points, different workload shape, different priced bytes), run:
//!
//! ```text
//! RUSTWREN_BLESS=1 cargo test --test kernel_equiv -- --nocapture
//! ```
//!
//! and paste the printed fingerprints over the constants, stating per
//! constant why it moved. For any other change, needing to re-bless *is*
//! the failure this suite exists to catch.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use rustwren::core::{
    DataSource, ExchangeMode, MapReduceOpts, Partitioner, RetryPolicy, ShuffleOpts, ShufflePlane,
    SimCloud, SpeculationConfig, TaskCtx, Value,
};
use rustwren::faas::{ActivationId, InvokeError, KeepAlivePolicy, PlatformConfig, TenantConfig};
use rustwren::sim::hash::{hash2, hash_str};
use rustwren::sim::{Kernel, NetworkProfile, RandomScheduler};
use rustwren::workloads::cloudsort::{self, CloudSortConfig};
use rustwren::workloads::compute::{self, COMPUTE_FN};
use rustwren::workloads::serving::{self, BurstWindow, TenantTraffic, TraceConfig, SERVE_FN};

/// Folds a stream of strings into a single order-sensitive digest.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0x9E37_79B9_7F4A_7C15)
    }
    fn add(&mut self, part: &str) {
        self.0 = hash2(self.0, hash_str(part));
    }
    fn add_dbg(&mut self, part: &impl std::fmt::Debug) {
        self.add(&format!("{part:?}"));
    }
}

/// Everything observable about a finished run, captured *inside* the
/// simulation (while the client is the only running thread, so every
/// field is a pure function of program order).
fn seal(kernel: &Kernel, digest: Digest) -> String {
    let st = kernel.stats();
    format!(
        "r={:016x} adv={} tmr={} thr={} vt={} trace={}",
        digest.0,
        st.clock_advances,
        st.timers_scheduled,
        st.threads_started,
        kernel.now().as_nanos(),
        kernel.schedule_trace().token(),
    )
}

fn cloud_on(kernel: Kernel) -> SimCloud {
    SimCloud::builder()
        .seed(7)
        .client_network(NetworkProfile::lan())
        .kernel(kernel)
        .build()
}

/// 6-task map with retry + speculation — the executor's concurrency-heavy
/// configuration (pending sets, backoff timers, duplicate completions).
fn map_scenario(kernel: Kernel) -> String {
    let cloud = cloud_on(kernel.clone());
    cloud.register_fn("add7", |_ctx: &TaskCtx, x: Value| {
        Ok(Value::Int(x.as_i64().ok_or("int")? + 7))
    });
    cloud.run(|| {
        let exec = cloud
            .executor()
            .retry(RetryPolicy::with_attempts(3))
            .speculation(SpeculationConfig::on())
            .build()
            .unwrap();
        exec.map("add7", (0..6).map(Value::Int).collect::<Vec<_>>())
            .unwrap();
        let results = exec.get_result().unwrap();
        let mut d = Digest::new();
        for v in &results {
            d.add_dbg(v);
        }
        seal(&kernel, d)
    })
}

/// map_reduce over the same executor configuration.
fn map_reduce_scenario(kernel: Kernel) -> String {
    let cloud = cloud_on(kernel.clone());
    cloud.register_fn("double", |_ctx: &TaskCtx, x: Value| {
        Ok(Value::Int(x.as_i64().ok_or("int")? * 2))
    });
    cloud.register_fn("sum", |_ctx: &TaskCtx, input: Value| {
        let total: i64 = input
            .req_list("results")?
            .iter()
            .filter_map(Value::as_i64)
            .sum();
        Ok(Value::Int(total))
    });
    cloud.run(|| {
        let exec = cloud
            .executor()
            .retry(RetryPolicy::with_attempts(3))
            .speculation(SpeculationConfig::on())
            .build()
            .unwrap();
        exec.map_reduce(
            "double",
            DataSource::Values((1..=5).map(Value::Int).collect()),
            "sum",
            MapReduceOpts::default(),
        )
        .unwrap();
        let results = exec.get_result().unwrap();
        let mut d = Digest::new();
        for v in &results {
            d.add_dbg(v);
        }
        seal(&kernel, d)
    })
}

/// Small CloudSort on the partitioned shuffle plane with a combiner —
/// exercises the store (staging, intermediate exchange, LIST storms) and
/// the shuffle data plane end to end.
fn cloudsort_scenario(kernel: Kernel) -> String {
    let cfg = CloudSortConfig {
        maps: 6,
        reducers: 4,
        logical_bytes: 60_000_000,
        samples_per_map: 32,
        seed: 9,
    };
    let cloud = SimCloud::builder()
        .seed(9)
        .client_network(NetworkProfile::lan())
        .kernel(kernel.clone())
        .build();
    cloudsort::register(&cloud);
    cloudsort::stage(cloud.store(), "cloudsort", &cfg).expect("stages");
    let part = Partitioner::range_from_samples(cloudsort::sample_keys(&cfg), cfg.reducers);
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        cloudsort::submit(
            &exec,
            "cloudsort",
            &cfg,
            ShuffleOpts {
                plane: ShufflePlane::Partitioned,
                exchange: ExchangeMode::Cos,
                partitioner: part.clone(),
                combiner: Some(cloudsort::CLOUDSORT_COMBINE_FN.into()),
                ..ShuffleOpts::default()
            },
        )
        .unwrap();
        let results = exec.get_result().unwrap();
        let reports = cloudsort::verify(&results, &cfg).expect("sort invariants hold");
        let mut d = Digest::new();
        for r in &reports {
            d.add_dbg(r);
        }
        seal(&kernel, d)
    })
}

/// Two-tenant burst trace under the hybrid keep-alive policy — drives the
/// admission plane, warm-pool accounting, and the prewarm timers the
/// light-task runtime absorbs.
fn burst_scenario(kernel: Kernel, horizon: Duration) -> String {
    let traffic = vec![
        TenantTraffic::periodic("alpha", Duration::from_secs(4)),
        TenantTraffic::poisson("beta", 0.8).with_burst(BurstWindow {
            start: Duration::from_secs(20),
            len: Duration::from_secs(15),
            multiplier: 6.0,
        }),
    ];
    let cloud = SimCloud::builder()
        .seed(7)
        .client_network(NetworkProfile::lan())
        .platform(PlatformConfig {
            concurrency_limit: 8,
            keep_alive: KeepAlivePolicy::hybrid(Duration::from_secs(6)),
            tenants: vec![
                TenantConfig::new("alpha", 4).queue_depth(32),
                TenantConfig::new("beta", 4).queue_depth(32),
            ],
            ..PlatformConfig::default()
        })
        .kernel(kernel.clone())
        .build();
    serving::register(cloud.functions()).expect("register serve action");
    let trace = serving::generate(&traffic, &TraceConfig { horizon, seed: 7 });
    let faas = cloud.functions().clone();
    type DriverOut = (usize, Vec<ActivationId>, u64, u64);
    let collected: Arc<Mutex<Vec<DriverOut>>> = Arc::new(Mutex::new(Vec::new()));
    cloud.run(|| {
        let origin = rustwren_sim::now();
        let handles: Vec<_> = traffic
            .iter()
            .enumerate()
            .map(|(idx, t)| {
                let arrivals: Vec<serving::Arrival> =
                    trace.iter().filter(|a| a.tenant == idx).copied().collect();
                let faas = faas.clone();
                let ns = t.namespace.clone();
                let collected = Arc::clone(&collected);
                rustwren_sim::spawn(format!("driver-{ns}"), move || {
                    let mut ids = Vec::new();
                    let (mut throttled, mut shed) = (0u64, 0u64);
                    for a in arrivals {
                        let target = origin + a.at;
                        let now = rustwren_sim::now();
                        if target > now {
                            rustwren_sim::sleep(target.duration_since(now));
                        }
                        match faas.invoke_in(&ns, SERVE_FN, serving::payload(a.exec)) {
                            Ok(id) => ids.push(id),
                            Err(InvokeError::Throttled { .. }) => throttled += 1,
                            Err(InvokeError::ShedLoad { .. }) => shed += 1,
                            Err(e) => panic!("driver {ns}: unexpected invoke error: {e}"),
                        }
                    }
                    collected.lock().unwrap().push((idx, ids, throttled, shed));
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        let mut drivers = collected.lock().unwrap().clone();
        drivers.sort_by_key(|(idx, ..)| *idx);
        let mut d = Digest::new();
        for (idx, ids, throttled, shed) in drivers {
            let ok = ids.iter().filter(|&&id| faas.wait(id).is_success()).count();
            d.add(&format!("tenant={idx} ok={ok} thr={throttled} shed={shed}"));
        }
        for ns in ["alpha", "beta"] {
            d.add_dbg(&faas.tenant_stats(ns).unwrap());
        }
        seal(&kernel, d)
    })
}

// ---------------------------------------------------------------------------
// Goldens. `FIFO_*` pin results + stats + virtual timing under the default
// FIFO scheduler. `RAND_*` pin the choice-point sequence
// (`RUSTWREN_SCHEDULE` token) under the seeded random scheduler — the proof
// that a refactor presents the verifier with the identical interleaving
// space.
// ---------------------------------------------------------------------------

const BLESS_ENV: &str = "RUSTWREN_BLESS";

/// Trace horizon of the burst scenario `FIFO_BURST` was captured on.
const BURST_HORIZON: Duration = Duration::from_secs(60);

fn check(label: &str, golden: &str, got: &str) {
    if std::env::var(BLESS_ENV).is_ok() {
        println!("GOLDEN {label} = \"{got}\"");
        return;
    }
    assert_eq!(got, golden, "{label}: fingerprint diverged from the golden");
}

/// Seeds for the random-scheduler trace goldens. Chosen arbitrarily;
/// what matters is that the recorded token is stable.
const RAND_SEEDS: [u64; 2] = [11, 4242];

fn with_random(kernel: &Kernel, seed: u64) {
    kernel.set_scheduler(Box::new(
        RandomScheduler::new(seed).with_preempt_probability(0.05),
    ));
}

#[test]
fn map_fifo_fingerprint_is_stable() {
    check("FIFO_MAP", FIFO_MAP, &map_scenario(Kernel::new()));
}

#[test]
fn map_reduce_fifo_fingerprint_is_stable() {
    check(
        "FIFO_MAP_REDUCE",
        FIFO_MAP_REDUCE,
        &map_reduce_scenario(Kernel::new()),
    );
}

#[test]
fn cloudsort_fifo_fingerprint_is_stable() {
    check(
        "FIFO_CLOUDSORT",
        FIFO_CLOUDSORT,
        &cloudsort_scenario(Kernel::new()),
    );
}

#[test]
fn burst_trace_fifo_fingerprint_is_stable() {
    check(
        "FIFO_BURST",
        FIFO_BURST,
        &burst_scenario(Kernel::new(), BURST_HORIZON),
    );
}

/// `serve` is a resumable body, so the burst's activations (and its
/// prewarms) are light tasks: the only OS threads the scenario ever creates
/// are its two drivers, however many arrivals they send.
#[test]
fn burst_activations_never_start_an_os_thread() {
    let stats_after = |horizon| {
        let kernel = Kernel::new();
        burst_scenario(kernel.clone(), horizon);
        kernel.stats()
    };
    let (pinned, doubled) = (stats_after(BURST_HORIZON), stats_after(2 * BURST_HORIZON));
    assert_eq!(pinned.threads_started, 104, "what FIFO_BURST pins");
    assert!(doubled.threads_started > 150, "{doubled:?}");
    assert_eq!(
        (pinned.os_threads_spawned, doubled.os_threads_spawned),
        (2, 2)
    );
    assert!(pinned.light_polls > 0);
}

/// The burst takes its platform locks uncontended: no thread ever parks on
/// one, and the number of acquisitions is a pure function of the seed.
#[test]
fn burst_locks_are_uncontended_and_counted_deterministically() {
    let stats = || {
        let kernel = Kernel::new();
        burst_scenario(kernel.clone(), BURST_HORIZON);
        kernel.stats()
    };
    let (first, second) = (stats(), stats());
    assert_eq!(first.lock_parks, 0, "{first:?}");
    assert!(first.lock_acquisitions > 0, "{first:?}");
    assert_eq!(first, second);
}

/// Turns passed between OS threads under FIFO, an exact count per shape.
/// A resumable job runs on the client's thread alone and passes none: the
/// cloudsort shape, and the map shape over a resumable function. Each of
/// the map shape's six blocking `add7` calls takes a thread of its own and
/// passes the turn on when it exits; the burst's two driver threads pass
/// it back and forth.
#[test]
fn thread_handoffs_are_exact_per_shape_and_zero_when_resumable() {
    let handoffs = |scenario: &dyn Fn(Kernel)| {
        let kernel = Kernel::new();
        scenario(kernel.clone());
        (
            kernel.stats().os_threads_spawned,
            kernel.stats().thread_handoffs,
        )
    };
    let resumable_map = |kernel: Kernel| {
        let cloud = cloud_on(kernel);
        compute::register(&cloud);
        cloud.run(|| {
            let exec = cloud.executor().build().unwrap();
            exec.map(
                COMPUTE_FN,
                (0..6)
                    .map(|i| compute::input(f64::from(i)))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            exec.get_result().unwrap()
        });
    };
    assert_eq!(handoffs(&resumable_map), (0, 0), "map, resumable");
    assert_eq!(
        handoffs(&|k| drop(cloudsort_scenario(k))),
        (0, 0),
        "FIFO_CLOUDSORT's shape"
    );
    assert_eq!(
        handoffs(&|k| drop(map_scenario(k))),
        (6, 6),
        "FIFO_MAP's shape"
    );
    assert_eq!(
        handoffs(&|k| drop(map_reduce_scenario(k))),
        (6, 9),
        "FIFO_MAP_REDUCE's shape"
    );
    assert_eq!(
        handoffs(&|k| drop(burst_scenario(k, BURST_HORIZON))),
        (2, 28),
        "FIFO_BURST's shape"
    );
}

#[test]
fn map_random_schedule_fingerprints_are_stable() {
    for (i, &seed) in RAND_SEEDS.iter().enumerate() {
        let kernel = Kernel::new();
        with_random(&kernel, seed);
        check(
            &format!("RAND_MAP[{i}]"),
            RAND_MAP[i],
            &map_scenario(kernel),
        );
    }
}

#[test]
fn map_reduce_random_schedule_fingerprints_are_stable() {
    for (i, &seed) in RAND_SEEDS.iter().enumerate() {
        let kernel = Kernel::new();
        with_random(&kernel, seed);
        check(
            &format!("RAND_MAP_REDUCE[{i}]"),
            RAND_MAP_REDUCE[i],
            &map_reduce_scenario(kernel),
        );
    }
}

#[test]
fn cloudsort_random_schedule_fingerprints_are_stable() {
    for (i, &seed) in RAND_SEEDS.iter().enumerate() {
        let kernel = Kernel::new();
        with_random(&kernel, seed);
        check(
            &format!("RAND_CLOUDSORT[{i}]"),
            RAND_CLOUDSORT[i],
            &cloudsort_scenario(kernel),
        );
    }
}

// `FIFO_*` captured with RUSTWREN_BLESS=1 at PR 16 (the re-bless; see the
// header); `FIFO_BURST` is the PR 8 capture: that scenario has no executor
// and no agent payload, so nothing in the re-bless reached it. The `trace=`
// tokens of `RAND_*` are the PR 24 capture (all six moved; see the header).
const FIFO_MAP: &str = "r=610214d1d0716dec adv=42 tmr=54 thr=18 vt=2778387049 trace=v1:";
const FIFO_MAP_REDUCE: &str = "r=dd2c71163533fe08 adv=50 tmr=62 thr=13 vt=2888057780 trace=v1:";
const FIFO_CLOUDSORT: &str = "r=9a876e1b9c41e132 adv=114 tmr=135 thr=24 vt=3952332348 trace=v1:";
const FIFO_BURST: &str = "r=7b0471a08affaf50 adv=312 tmr=312 thr=104 vt=59766401093 trace=v1:";
const RAND_MAP: [&str; 2] = [
    "r=610214d1d0716dec adv=42 tmr=54 thr=18 vt=2778387049 trace=v1:0p1,1r4,3r1,6t2,7t3,8t1,11t4,12t2,13t2,15t2,18t1,20r4,22r3,23r1,24r1",
    "r=610214d1d0716dec adv=42 tmr=54 thr=18 vt=2778387049 trace=v1:3r2,4r1,5t1,6t2,9r1,19t2,20t2,21t2,22t1,23t2,24t1,25t2,26t1,28r3,29r4,30r2,31r2,32r1",
];
const RAND_MAP_REDUCE: [&str; 2] = [
    "r=dd2c71163533fe08 adv=50 tmr=62 thr=13 vt=2888057780 trace=v1:0p1,1r4,3r1,6t2,7t3,8t1,15t2,17t1,18t1,19t3",
    "r=dd2c71163533fe08 adv=50 tmr=62 thr=13 vt=2888057780 trace=v1:3r2,4r1,5t1,6t2,8r1,11t1,15r1,21t1,22t3,23t2,24t1,25t1,26t1,27t2",
];
const RAND_CLOUDSORT: [&str; 2] = [
    "r=9a876e1b9c41e132 adv=114 tmr=135 thr=24 vt=3952332348 trace=v1:0p1,1r4,3r1,6t2,7t3,8t1,11p1,13r1,14r1,19t1,22t3,23t1,24t2,26t3,27t2,28t1,29t3,30t3,31t1,32t1,33t3,34t2,35t1,37r2,38r1",
    "r=9a876e1b9c41e132 adv=114 tmr=135 thr=24 vt=3952332348 trace=v1:3r2,4r1,5t1,6t2,9r1,18r3,19r2,20r1,21t3,23t2,25t1,28t3,30t1,31t1,32t3,36t2,37t1,38t1,39t2,45r1",
];
