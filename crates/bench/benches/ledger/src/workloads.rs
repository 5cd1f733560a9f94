//! The five workloads and what one iteration of each measures.
//!
//! Every workload is driven through the public API only, the way a user
//! of the library would drive it; the seed feeds the dataset, the arrival
//! trace and the `SimCloud` seed and nothing else reaches the program
//! (`AnalyzeMode` is pinned so `RUSTWREN_ANALYZE` cannot).
//!
//! * `map_fanout` — activation lifecycle on OS threads plus executor
//!   staging/polling; almost no payload bytes, charge-only bodies.
//! * `cloudsort` — store and shuffle plane: ~20k small-object
//!   GET/PUT/LIST, each a virtual sleep.
//! * `serving_burst` — admission, weighted round-robin and warm pool only:
//!   no executor, no wire, zero COS ops. Open loop on the virtual clock.
//! * `airbnb_tone` — the paper's Table 3 job: read-only ranged GETs on 33
//!   large objects, data discovery + partitioner, real tone analysis.
//! * `mergesort_compose` — composability: bodies that block on the PyWren
//!   API, few multi-MB payloads through wire + store.
//!
//! Job workloads are a closed loop with one client thread. An iteration
//! builds a fresh cloud, registers, stages, runs, verifies its output and
//! collects every deterministic metric from the crates' public stats.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rustwren_analyze::{JobPlan, ShuffleShape, SpawnProfile};
use rustwren_core::invoker::INVOKER_ACTION;
use rustwren_core::partition::{partition_objects, DiscoveredObject, Partition};
use rustwren_core::stats::max_concurrency;
use rustwren_core::{
    AnalyzeMode, CosOpStats, DataSource, ExchangeMode, Executor, ExecutorBuilder, MapReduceOpts,
    Partitioner, PlanHints, RecoveryStats, ShuffleOpts, ShufflePlane, SimCloud, SpawnStrategy,
    Value,
};
use rustwren_faas::{ActivationRecord, InvokeError, PlatformConfig, TenantConfig};
use rustwren_sim::{NetworkProfile, SimInstant};
use rustwren_workloads::cloudsort::{self, CloudSortConfig};
use rustwren_workloads::serving::{self, BurstWindow, ExecMix, TenantTraffic, TraceConfig};
use rustwren_workloads::{airbnb, compute, mergesort, tone};

use crate::catalog::Values;
use crate::trace::{kernel_events, Total, Tracer};

const MB: u64 = 1 << 20;
const AGENT_PREFIX: &str = "rustwren-agent@";
const SORT_BUCKET: &str = "cloudsort";
const REVIEWS_BUCKET: &str = "reviews";
const SERVING_TENANTS: [&str; 2] = ["victim", "noisy"];

/// What one workload runs, at full or `--smoke` scale.
#[derive(Debug, Clone)]
pub enum Workload {
    /// `Executor::map` of `tasks` one-second `compute` tasks, massive
    /// spawning, LAN client (§5.1/§6.1 shape).
    MapFanout { seed: u64, tasks: usize },
    /// `map_shuffle_reduce` on the partitioned plane through COS, range
    /// partitioner + combiner.
    Cloudsort { cfg: CloudSortConfig },
    /// `CloudFunctions::invoke_in` direct: a victim tenant at 4/s and a
    /// noisy tenant at 4/s that doubles its rate over the middle half of
    /// the horizon. Quotas 8 + 8, admission queues of 256.
    ServingBurst { seed: u64, horizon: Duration },
    /// `map_reduce` over `DataSource::bucket` with one reducer per city,
    /// massive spawning, WAN client.
    AirbnbTone { seed: u64, scale: u64, chunk: u64 },
    /// `call_async(MERGESORT_FN)` with `PlanHints`: a recursion tree of
    /// `2^(depth+1) - 1` nested activations.
    MergesortCompose { seed: u64, n: u64, depth: u32 },
}

impl Workload {
    pub fn new(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
        Some(match name {
            "map_fanout" => Workload::MapFanout {
                seed,
                tasks: if smoke { 200 } else { 5_000 },
            },
            "cloudsort" => Workload::Cloudsort {
                cfg: if smoke {
                    CloudSortConfig::smoke(seed)
                } else {
                    CloudSortConfig::full(seed)
                },
            },
            "serving_burst" => Workload::ServingBurst {
                seed,
                horizon: Duration::from_secs(if smoke { 120 } else { 1_200 }),
            },
            "airbnb_tone" => Workload::AirbnbTone {
                seed,
                scale: if smoke { 1 << 14 } else { 512 },
                chunk: if smoke { 16 * MB } else { 2 * MB },
            },
            // Keep N <= 500k: at 2-5 M ints the wall time of one
            // iteration varied 0.65-5.8 s from run to run.
            "mergesort_compose" => Workload::MergesortCompose {
                seed,
                n: if smoke { 20_000 } else { 500_000 },
                depth: if smoke { 2 } else { 4 },
            },
            _ => return None,
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            Workload::MapFanout { .. } => "map_fanout",
            Workload::Cloudsort { .. } => "cloudsort",
            Workload::ServingBurst { .. } => "serving_burst",
            Workload::AirbnbTone { .. } => "airbnb_tone",
            Workload::MergesortCompose { .. } => "mergesort_compose",
        }
    }

    /// What `attempted`/`failed` count on this workload.
    pub fn op_noun(&self) -> &'static str {
        match self {
            Workload::ServingBurst { .. } => "arrivals",
            _ => "tasks",
        }
    }
}

/// Host seconds of one iteration's regions.
#[derive(Debug, Clone, Copy)]
pub struct HostTimes {
    /// From `SimCloud::run` entry to all results gathered: the timed region.
    pub wall_s: f64,
    /// Staging inputs (dataset generation included).
    pub stage_s: f64,
    /// Verifying the output.
    pub verify_s: f64,
}

/// Everything one iteration measured.
#[derive(Debug)]
pub struct Outcome {
    pub host: HostTimes,
    /// Every virtual-clock and count metric, end-to-end and per-layer:
    /// all iterations of a run must agree on these bit-for-bit.
    pub exact: Values,
    pub attempted: u64,
    pub failed: u64,
    /// Completed activations behind the latency percentiles.
    pub latency_samples: u64,
    /// The job's pre-flight plan as the executor would assemble it, for
    /// the analyzer probe (`None` when no job is submitted).
    pub plan: Option<JobPlan>,
    /// Bucket and chunk size the job partitions, for the partition probe.
    pub partitioned: Option<(&'static str, Option<u64>)>,
}

/// What the body running inside `SimCloud::run` hands back.
struct JobRun {
    results: Vec<Value>,
    virtual_end: SimInstant,
    cos: CosOpStats,
    recovery: RecoveryStats,
}

/// What the probes need to know about a job beyond its counts.
struct JobShape {
    plan: JobPlan,
    /// Bucket and chunk size the job partitions, and into how many.
    partitioned: Option<(&'static str, Option<u64>)>,
    partitions: u64,
}

/// Runs one iteration. The cloud is returned so the caller decides when it
/// is torn down (and so the traced iteration's store can size the probes).
pub fn run_iteration(w: &Workload, tracer: &mut Tracer) -> Result<(Outcome, SimCloud), String> {
    match w {
        Workload::MapFanout { seed, tasks } => map_fanout(*seed, *tasks, tracer),
        Workload::Cloudsort { cfg } => cloudsort_job(cfg, tracer),
        Workload::ServingBurst { seed, horizon } => serving_burst(*seed, *horizon, tracer),
        Workload::AirbnbTone { seed, scale, chunk } => airbnb_tone(*seed, *scale, *chunk, tracer),
        Workload::MergesortCompose { seed, n, depth } => {
            mergesort_compose(*seed, *n, *depth, tracer)
        }
    }
}

/// The objects of `bucket` as data discovery would report them.
pub fn discovered(cloud: &SimCloud, bucket: &str) -> Vec<DiscoveredObject> {
    cloud
        .store()
        .list(bucket, "")
        .unwrap_or_default()
        .into_iter()
        .map(|meta| DiscoveredObject {
            bucket: bucket.to_owned(),
            meta,
        })
        .collect()
}

fn build_cloud(
    tracer: &mut Tracer,
    seed: u64,
    platform: PlatformConfig,
    client: NetworkProfile,
) -> SimCloud {
    let span = tracer.begin("SimCloud::builder().build", None);
    let cloud = SimCloud::builder()
        .seed(seed)
        .platform(platform)
        .client_network(client)
        .build();
    tracer.end(span, Some(&cloud));
    cloud
}

/// The shared body of the four job workloads: build an executor, submit,
/// gather — each call into `core` under its own span — inside one
/// `SimCloud::run`, which is the timed region.
fn run_job(
    cloud: &SimCloud,
    tracer: &mut Tracer,
    configure: impl FnOnce(ExecutorBuilder) -> ExecutorBuilder,
    submit: impl FnOnce(&Executor) -> rustwren_core::Result<()>,
) -> Result<(JobRun, f64), String> {
    let run = tracer.begin("SimCloud::run", Some(cloud));
    let job = cloud.run(|| -> Result<JobRun, String> {
        let span = tracer.begin("ExecutorBuilder::build", Some(cloud));
        let exec = configure(cloud.executor().analyze(AnalyzeMode::Warn))
            .build()
            .map_err(|e| format!("executor build: {e}"))?;
        tracer.end(span, Some(cloud));

        let span = tracer.begin("submit", Some(cloud));
        submit(&exec).map_err(|e| format!("submit: {e}"))?;
        tracer.end(span, Some(cloud));

        let span = tracer.begin("get_result", Some(cloud));
        let results = exec.get_result().map_err(|e| format!("get_result: {e}"))?;
        tracer.end(span, Some(cloud));

        Ok(JobRun {
            results,
            virtual_end: rustwren_sim::now(),
            cos: exec.cos_op_stats(),
            recovery: exec.recovery_stats(),
        })
    });
    let wall_s = tracer.end(run, Some(cloud));
    Ok((job?, wall_s))
}

fn spawn_profile(spawn: &SpawnStrategy, tasks: usize) -> SpawnProfile {
    match spawn.resolve_for(tasks) {
        SpawnStrategy::RemoteInvoker {
            group_size,
            invoker_threads,
        } => SpawnProfile::RemoteInvoker {
            group_size,
            invoker_threads,
        },
        SpawnStrategy::Direct { client_threads } => SpawnProfile::Direct { client_threads },
        SpawnStrategy::Auto { .. } => unreachable!("resolve_for returns a concrete strategy"),
    }
}

fn map_fanout(seed: u64, tasks: usize, tracer: &mut Tracer) -> Result<(Outcome, SimCloud), String> {
    // The invoker activations count against the namespace limit too.
    let limit = tasks + tasks / 10 + 50;
    let platform = PlatformConfig {
        concurrency_limit: limit,
        cluster_containers: limit + 200,
        ..PlatformConfig::default()
    };
    let cloud = build_cloud(tracer, seed, platform, NetworkProfile::lan());

    let span = tracer.begin("compute::register", Some(&cloud));
    compute::register(&cloud);
    tracer.end(span, Some(&cloud));

    let span = tracer.begin("stage", Some(&cloud));
    let inputs: Vec<Value> = (0..tasks).map(|_| compute::input(1.0)).collect();
    let stage_s = tracer.end(span, Some(&cloud));

    let spawn = SpawnStrategy::massive();
    let mut plan = JobPlan::new(compute::COMPUTE_FN, tasks);
    plan.spawn = spawn_profile(&spawn, tasks);
    plan.est_payload_bytes = inputs.first().map(|v| v.encoded_len() as u64);

    let (job, wall_s) = run_job(
        &cloud,
        tracer,
        |b| b.spawn(spawn),
        |exec| exec.map(compute::COMPUTE_FN, inputs).map(drop),
    )?;

    let span = tracer.begin("verify", Some(&cloud));
    if job.results.len() != tasks {
        return Err(format!("{} results for {tasks} tasks", job.results.len()));
    }
    if let Some(bad) = job.results.iter().find(|v| **v != Value::Float(1.0)) {
        return Err(format!("a compute task returned {bad:?}, not 1.0"));
    }
    let verify_s = tracer.end(span, Some(&cloud));

    let host = HostTimes {
        wall_s,
        stage_s,
        verify_s,
    };
    let shape = JobShape {
        plan,
        partitioned: None,
        partitions: 0,
    };
    let outcome = job_outcome(&cloud, &job, host, shape);
    Ok((outcome, cloud))
}

fn cloudsort_job(
    cfg: &CloudSortConfig,
    tracer: &mut Tracer,
) -> Result<(Outcome, SimCloud), String> {
    // Headroom above the map fan-out so nothing throttles; containers well
    // below the task count so the job runs in waves over warm containers.
    let platform = PlatformConfig {
        concurrency_limit: cfg.maps + cfg.maps / 10 + 50,
        cluster_containers: (cfg.maps / 4).max(10),
        ..PlatformConfig::default()
    };
    let cloud = build_cloud(tracer, cfg.seed, platform, NetworkProfile::lan());

    let span = tracer.begin("cloudsort::register", Some(&cloud));
    cloudsort::register(&cloud);
    tracer.end(span, Some(&cloud));

    let span = tracer.begin("cloudsort::stage", Some(&cloud));
    cloudsort::stage(cloud.store(), SORT_BUCKET, cfg).map_err(|e| format!("stage: {e}"))?;
    let partitioner = Partitioner::range_from_samples(cloudsort::sample_keys(cfg), cfg.reducers);
    let stage_s = tracer.end(span, Some(&cloud));

    let mut plan = JobPlan::new(cloudsort::CLOUDSORT_MAP_FN, cfg.maps);
    plan.spawn = spawn_profile(&SpawnStrategy::default(), cfg.maps);
    plan.max_object_bytes = Some(cfg.bytes_per_map());
    plan.partition_bytes = vec![cfg.bytes_per_map(); cfg.maps];
    plan.shuffle = Some(ShuffleShape {
        maps: cfg.maps,
        partitions: cfg.reducers,
        segmented: true,
        via_relay: false,
    });

    let opts = ShuffleOpts {
        plane: ShufflePlane::Partitioned,
        exchange: ExchangeMode::Cos,
        partitioner,
        combiner: Some(cloudsort::CLOUDSORT_COMBINE_FN.into()),
        ..ShuffleOpts::default()
    };
    let (job, wall_s) = run_job(
        &cloud,
        tracer,
        |b| b,
        |exec| cloudsort::submit(exec, SORT_BUCKET, cfg, opts).map(drop),
    )?;

    let span = tracer.begin("verify", Some(&cloud));
    cloudsort::verify(&job.results, cfg).map_err(|e| format!("sort invariants: {e}"))?;
    let verify_s = tracer.end(span, Some(&cloud));

    let host = HostTimes {
        wall_s,
        stage_s,
        verify_s,
    };
    let shape = JobShape {
        plan,
        partitioned: Some((SORT_BUCKET, None)),
        partitions: cfg.maps as u64,
    };
    let outcome = job_outcome(&cloud, &job, host, shape);
    Ok((outcome, cloud))
}

fn airbnb_tone(
    seed: u64,
    scale: u64,
    chunk: u64,
    tracer: &mut Tracer,
) -> Result<(Outcome, SimCloud), String> {
    let platform = PlatformConfig {
        concurrency_limit: 1_100,
        cluster_containers: 1_300,
        ..PlatformConfig::default()
    };
    let cloud = build_cloud(tracer, seed, platform, NetworkProfile::wan());

    let span = tracer.begin("airbnb::generate", Some(&cloud));
    let dataset = airbnb::generate(cloud.store(), REVIEWS_BUCKET, scale, seed)
        .map_err(|e| format!("stage reviews: {e}"))?;
    let stage_s = tracer.end(span, Some(&cloud));

    let span = tracer.begin("tone::register", Some(&cloud));
    tone::register(&cloud);
    tracer.end(span, Some(&cloud));

    // The partitions the executor's own discovery + partitioner will cut.
    let partitions: Vec<u64> = partition_objects(&discovered(&cloud, REVIEWS_BUCKET), Some(chunk))
        .map_err(|e| format!("partition reviews: {e}"))?
        .iter()
        .map(Partition::logical_len)
        .collect();
    let spawn = SpawnStrategy::massive();
    let mut plan = JobPlan::new(tone::TONE_MAP_FN, partitions.len());
    plan.spawn = spawn_profile(&spawn, partitions.len());
    plan.chunk_size = Some(chunk);
    plan.max_object_bytes = airbnb::CITIES.iter().map(|c| c.1).max();
    let map_tasks = partitions.len() as u64;
    plan.partition_bytes = partitions;

    let (job, wall_s) = run_job(
        &cloud,
        tracer,
        |b| b.spawn(spawn),
        |exec| {
            exec.map_reduce(
                tone::TONE_MAP_FN,
                DataSource::bucket(&dataset.bucket),
                tone::TONE_REDUCE_FN,
                MapReduceOpts {
                    chunk_size: Some(chunk),
                    reducer_one_per_object: true,
                },
            )
            .map(drop)
        },
    )?;

    let span = tracer.begin("verify", Some(&cloud));
    if job.results.len() != airbnb::CITIES.len() {
        return Err(format!(
            "{} tone maps for {} cities",
            job.results.len(),
            airbnb::CITIES.len()
        ));
    }
    for city in &job.results {
        let svg = city.get("svg").and_then(Value::as_str).unwrap_or("");
        if !svg.starts_with("<svg") {
            return Err(format!(
                "reducer for {:?} rendered no map",
                city.get("city")
            ));
        }
    }
    let verify_s = tracer.end(span, Some(&cloud));

    let host = HostTimes {
        wall_s,
        stage_s,
        verify_s,
    };
    let shape = JobShape {
        plan,
        partitioned: Some((REVIEWS_BUCKET, Some(chunk))),
        partitions: map_tasks,
    };
    let outcome = job_outcome(&cloud, &job, host, shape);
    Ok((outcome, cloud))
}

fn mergesort_compose(
    seed: u64,
    n: u64,
    depth: u32,
    tracer: &mut Tracer,
) -> Result<(Outcome, SimCloud), String> {
    let cloud = build_cloud(
        tracer,
        seed,
        PlatformConfig::default(),
        NetworkProfile::wan(),
    );

    let span = tracer.begin("mergesort::register", Some(&cloud));
    mergesort::register(&cloud);
    tracer.end(span, Some(&cloud));

    let span = tracer.begin("stage", Some(&cloud));
    let input = mergesort::input(seed, n, depth);
    let stage_s = tracer.end(span, Some(&cloud));

    // Declare the recursion shape so the pre-flight analyzer can prove the
    // tree fits inside the namespace concurrency limit (rule W001).
    let hints = PlanHints {
        nesting_depth: depth,
        nested_fanout: 2,
        ..PlanHints::default()
    };
    let mut plan = JobPlan::new(mergesort::MERGESORT_FN, 1);
    plan.spawn = spawn_profile(&SpawnStrategy::default(), 1);
    plan.est_payload_bytes = Some(input.encoded_len() as u64);
    plan.apply_hints(&hints);

    let (job, wall_s) = run_job(
        &cloud,
        tracer,
        |b| b.plan_hints(hints),
        |exec| exec.call_async(mergesort::MERGESORT_FN, input).map(drop),
    )?;

    let span = tracer.begin("verify", Some(&cloud));
    let sorted = job
        .results
        .first()
        .and_then(Value::as_bytes)
        .map(mergesort::decode_i64s)
        .ok_or("mergesort returned no bytes")?;
    if sorted.len() as u64 != n {
        return Err(format!("{} of {n} elements came back", sorted.len()));
    }
    if !sorted.windows(2).all(|w| w[0] <= w[1]) {
        return Err("mergesort output is not sorted".to_owned());
    }
    let verify_s = tracer.end(span, Some(&cloud));

    let host = HostTimes {
        wall_s,
        stage_s,
        verify_s,
    };
    let shape = JobShape {
        plan,
        partitioned: None,
        partitions: 0,
    };
    let outcome = job_outcome(&cloud, &job, host, shape);
    Ok((outcome, cloud))
}

/// What one serving driver (one simulated thread per tenant) reports.
#[derive(Debug, Clone)]
struct DriverOut {
    tenant: usize,
    ids: Vec<rustwren_faas::ActivationId>,
    refused: u64,
    late_max: Duration,
    /// Traced iterations only: what the `invoke_in` calls cost.
    traced: Option<Total>,
}

fn serving_burst(
    seed: u64,
    horizon: Duration,
    tracer: &mut Tracer,
) -> Result<(Outcome, SimCloud), String> {
    // Global capacity equals the sum of the two quotas, so the only thing
    // protecting the victim is its quota and the weighted fair queue. The
    // burst doubles the noisy tenant to ~70% of what its quota can serve:
    // its queue builds (about one arrival in ten waits) but, 256 deep,
    // never overflows, so no operation fails on any seed.
    let platform = PlatformConfig {
        concurrency_limit: 16,
        cluster_containers: 16,
        tenants: SERVING_TENANTS
            .iter()
            .map(|ns| TenantConfig::new(*ns, 8).queue_depth(256))
            .collect(),
        ..PlatformConfig::default()
    };
    let cloud = build_cloud(tracer, seed, platform, NetworkProfile::wan());

    let span = tracer.begin("serving::register", Some(&cloud));
    serving::register(cloud.functions()).map_err(|e| format!("register serve: {e}"))?;
    tracer.end(span, Some(&cloud));

    let span = tracer.begin("serving::generate", Some(&cloud));
    let traffic = [
        TenantTraffic::poisson(SERVING_TENANTS[0], 4.0).with_exec(ExecMix {
            min: Duration::from_millis(200),
            alpha: 1.8,
            cap: Duration::from_secs(2),
        }),
        TenantTraffic::poisson(SERVING_TENANTS[1], 4.0)
            .with_exec(ExecMix {
                min: Duration::from_millis(300),
                alpha: 1.6,
                cap: Duration::from_secs(3),
            })
            .with_burst(BurstWindow {
                start: horizon / 4,
                len: horizon / 2,
                multiplier: 2.0,
            }),
    ];
    let trace = serving::generate(&traffic, &TraceConfig { horizon, seed });
    let stage_s = tracer.end(span, Some(&cloud));

    let faas = cloud.functions().clone();
    let traced = tracer.enabled();
    let collected: Arc<Mutex<Vec<DriverOut>>> = Arc::new(Mutex::new(Vec::new()));

    let run = tracer.begin("SimCloud::run", Some(&cloud));
    let (completed, virtual_end) = cloud.run(|| {
        let origin = rustwren_sim::now();
        let handles: Vec<_> = traffic
            .iter()
            .enumerate()
            .map(|(tenant, t)| {
                let arrivals: Vec<serving::Arrival> = trace
                    .iter()
                    .filter(|a| a.tenant == tenant)
                    .copied()
                    .collect();
                let faas = faas.clone();
                let ns = t.namespace.clone();
                let collected = Arc::clone(&collected);
                rustwren_sim::spawn(format!("driver-{ns}"), move || {
                    let mut out = DriverOut {
                        tenant,
                        ids: Vec::with_capacity(arrivals.len()),
                        refused: 0,
                        late_max: Duration::ZERO,
                        traced: None,
                    };
                    let first = Instant::now();
                    let virtual_start = rustwren_sim::now().as_nanos();
                    let mut busy = Duration::ZERO;
                    for a in arrivals {
                        // Open loop: every arrival is sent when it is due,
                        // whatever happened to the ones before it.
                        let due = origin + a.at;
                        let now = rustwren_sim::now();
                        if due > now {
                            rustwren_sim::sleep(due.duration_since(now));
                        } else {
                            out.late_max = out.late_max.max(now.duration_since(due));
                        }
                        let payload = serving::payload(a.exec);
                        let call = traced.then(Instant::now);
                        let reply = faas.invoke_in(&ns, serving::SERVE_FN, payload);
                        if let Some(call) = call {
                            busy += call.elapsed();
                        }
                        match reply {
                            Ok(id) => out.ids.push(id),
                            Err(InvokeError::Throttled { .. } | InvokeError::ShedLoad { .. }) => {
                                out.refused += 1;
                            }
                            // Anything else (a missing action) is a harness bug.
                            Err(e) => panic!("driver {ns}: unexpected invoke error: {e}"),
                        }
                    }
                    if traced {
                        out.traced = Some(Total {
                            envelope: (first, Instant::now()),
                            virtual_ns: (virtual_start, rustwren_sim::now().as_nanos()),
                            calls: out.ids.len() as u64 + out.refused,
                            busy_ns: busy.as_nanos() as u64,
                        });
                    }
                    collected.lock().expect("driver collector").push(out);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        let wait = tracer.begin("wait", Some(&cloud));
        let drivers = collected.lock().expect("driver collector").clone();
        let completed = drivers
            .iter()
            .flat_map(|d| &d.ids)
            .filter(|&&id| faas.wait(id).is_success())
            .count() as u64;
        tracer.end(wait, Some(&cloud));
        (completed, rustwren_sim::now())
    });
    let wall_s = tracer.end(run, Some(&cloud));

    let mut drivers = std::mem::take(&mut *collected.lock().expect("driver collector"));
    drivers.sort_by_key(|d| d.tenant);
    for d in &drivers {
        if let Some(total) = d.traced {
            tracer.record_total("invoke_in", total);
        }
    }

    let span = tracer.begin("verify", Some(&cloud));
    let arrivals = trace.len() as u64;
    let refused: u64 = drivers.iter().map(|d| d.refused).sum();
    let accepted: u64 = drivers.iter().map(|d| d.ids.len() as u64).sum();
    let stats = cloud.functions().stats();
    if accepted + refused != arrivals {
        return Err(format!(
            "{accepted} accepted + {refused} refused != {arrivals} arrivals"
        ));
    }
    if stats.shed + stats.throttled != refused || stats.completed != accepted {
        return Err(format!(
            "platform counted {} shed + {} throttled and {} completed; drivers saw {refused} \
             refused and {accepted} accepted",
            stats.shed, stats.throttled, stats.completed
        ));
    }
    let verify_s = tracer.end(span, Some(&cloud));

    let late_max = drivers.iter().map(|d| d.late_max).max().unwrap_or_default();
    let mut exact = Values::default();
    let platform = collect_platform(&cloud, virtual_end, serving::SERVE_FN, &mut exact);
    collect_store(&CosOpStats::default(), &mut exact);
    collect_core(&RecoveryStats::default(), 0, &mut exact);
    exact.set(
        "bench.gen_late_virtual_ms_max",
        late_max.as_secs_f64() * 1e3,
    );
    let failed = arrivals - completed;
    exact.set("failed_share", failed as f64 / arrivals.max(1) as f64);
    let outcome = Outcome {
        host: HostTimes {
            wall_s,
            stage_s,
            verify_s,
        },
        exact,
        attempted: arrivals,
        failed,
        latency_samples: platform.latency_samples,
        plan: None,
        partitioned: None,
    };
    Ok((outcome, cloud))
}

fn job_outcome(cloud: &SimCloud, job: &JobRun, host: HostTimes, shape: JobShape) -> Outcome {
    let mut exact = Values::default();
    let platform = collect_platform(cloud, job.virtual_end, AGENT_PREFIX, &mut exact);
    collect_store(&job.cos, &mut exact);
    collect_core(&job.recovery, shape.partitions, &mut exact);
    // A closed loop cannot run late.
    exact.set("bench.gen_late_virtual_ms_max", 0.0);
    // One agent activation per task (retries are off), so the agent
    // records are the tasks attempted; `get_result` already failed the
    // iteration if any of them errored.
    let (attempted, failed) = (platform.agents, platform.agents_failed);
    exact.set("failed_share", failed as f64 / attempted.max(1) as f64);
    Outcome {
        host,
        exact,
        attempted,
        failed,
        latency_samples: platform.latency_samples,
        plan: Some(shape.plan),
        partitioned: shape.partitioned,
    }
}

struct PlatformCounts {
    latency_samples: u64,
    agents: u64,
    agents_failed: u64,
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted_ms(durations: impl Iterator<Item = Duration>) -> Vec<f64> {
    let mut ms: Vec<f64> = durations.map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// `sim`, `faas`, `workloads` counts and the platform-side end-to-end
/// metrics, from `KernelStats`, `PlatformStats`, `TenantStats`, the
/// billing report and the activation records. `body_prefix` selects the
/// activations that ran user code.
fn collect_platform(
    cloud: &SimCloud,
    virtual_end: SimInstant,
    body_prefix: &str,
    out: &mut Values,
) -> PlatformCounts {
    let faas = cloud.functions();
    let records = faas.records();

    out.set("virtual_s", virtual_end.as_secs_f64());
    let total = sorted_ms(records.iter().filter_map(ActivationRecord::total_duration));
    out.set("activation_p50_virtual_ms", nearest_rank(&total, 0.50));
    out.set("activation_p99_virtual_ms", nearest_rank(&total, 0.99));
    out.set("billed_gb_s", faas.billing_report().gb_seconds);

    let k = cloud.kernel().stats();
    out.set("sim.events", kernel_events(&k) as f64);
    out.set("sim.clock_advances", k.clock_advances as f64);
    out.set("sim.timers_scheduled", k.timers_scheduled as f64);
    out.set("sim.threads_started", k.threads_started as f64);
    out.set("sim.light_polls", k.light_polls as f64);

    let p = faas.stats();
    out.set("faas.submitted", p.submitted as f64);
    out.set("faas.completed", p.completed as f64);
    out.set("faas.cold_starts", p.cold_starts as f64);
    out.set("faas.warm_starts", p.warm_starts as f64);
    out.set("faas.prewarmed", p.prewarmed as f64);
    out.set("faas.queued", p.queued as f64);
    out.set("faas.shed", p.shed as f64);
    out.set("faas.throttled", p.throttled as f64);
    out.set("faas.timeouts", p.timeouts as f64);
    out.set("faas.image_pulls", p.image_pulls as f64);
    let started = p.cold_starts + p.warm_starts;
    out.set(
        "faas.cold_start_rate",
        p.cold_starts as f64 / started.max(1) as f64,
    );
    let lookups = p.blob_cache_hits + p.blob_cache_misses;
    out.set(
        "faas.blob_cache_hit_rate",
        p.blob_cache_hits as f64 / lookups.max(1) as f64,
    );
    out.set("faas.peak_concurrency", max_concurrency(&records) as f64);
    let queue_wait = sorted_ms(
        records
            .iter()
            .filter_map(|r| r.started.map(|s| s.duration_since(r.submitted))),
    );
    out.set(
        "faas.queue_wait_p99_virtual_ms",
        nearest_rank(&queue_wait, 0.99),
    );
    let exec = sorted_ms(records.iter().filter_map(ActivationRecord::exec_duration));
    out.set("faas.exec_p50_virtual_ms", nearest_rank(&exec, 0.50));
    out.set(
        "faas.warm_pool_s",
        faas.tenant_namespaces()
            .iter()
            .filter_map(|ns| faas.tenant_stats(ns))
            .map(|t| t.warm_pool_seconds)
            // Not `sum()`: an empty f64 sum is -0.0.
            .fold(0.0, |a, b| a + b),
    );

    out.set(
        "workloads.compute_virtual_s",
        records
            .iter()
            .filter(|r| r.action.starts_with(body_prefix))
            .filter_map(ActivationRecord::exec_duration)
            .map(|d| d.as_secs_f64())
            .fold(0.0, |a, b| a + b),
    );
    let agents: Vec<&ActivationRecord> = records
        .iter()
        .filter(|r| r.action.starts_with(AGENT_PREFIX))
        .collect();
    // The client enters the simulation at virtual zero, so the job starts
    // there: the spawn phase (`JobReport::invocation_phase`) is over when
    // the last agent is running.
    out.set(
        "core.spawn_phase_virtual_s",
        agents
            .iter()
            .filter_map(|r| r.started)
            .max()
            .map_or(0.0, |last_start| last_start.as_secs_f64()),
    );
    out.set(
        "core.invoker_activations",
        records
            .iter()
            .filter(|r| r.action == INVOKER_ACTION)
            .count() as f64,
    );
    out.set("core.agent_activations", agents.len() as f64);
    PlatformCounts {
        latency_samples: total.len() as u64,
        agents: agents.len() as u64,
        agents_failed: agents.iter().filter(|r| !r.is_success()).count() as u64,
    }
}

fn collect_store(cos: &CosOpStats, out: &mut Values) {
    out.set("cos_ops", cos.total_ops() as f64);
    out.set("cos_bytes", cos.total_bytes() as f64);
    out.set("store.staging_ops", cos.staging.total_ops() as f64);
    out.set("store.polling_ops", cos.polling.total_ops() as f64);
    out.set("store.agent_ops", cos.agent.total_ops() as f64);
    let phases = [cos.staging, cos.polling, cos.agent];
    let sum = |f: fn(&rustwren_core::OpCounts) -> u64| phases.iter().map(f).sum::<u64>() as f64;
    out.set("store.gets", sum(|p| p.gets));
    out.set("store.puts", sum(|p| p.puts));
    out.set("store.lists", sum(|p| p.lists));
    out.set("store.heads", sum(|p| p.heads));
    out.set("store.bytes_in", sum(|p| p.bytes_in));
    out.set("store.bytes_out", sum(|p| p.bytes_out));
}

fn collect_core(recovery: &RecoveryStats, partitions: u64, out: &mut Values) {
    out.set("core.recovery_actions", recovery.total_actions() as f64);
    out.set("core.integrity_retries", recovery.integrity_retries as f64);
    out.set("core.partition.partitions", partitions as f64);
}
