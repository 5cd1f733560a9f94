//! The paper's evaluation (§5.1, Figs 2–5, Table 3), the virtual-time
//! ablations and the serving A/B, one function per experiment.
//!
//! Each function runs its experiment on fresh simulated clouds and returns
//! typed rows: virtual durations, counts and concurrency points. Every
//! report's `Display` prints the paper's numbers beside the measured ones,
//! which is what the `reproduce` binary shows. Virtual time is
//! deterministic, so the same [`BenchArgs`] always yield the same rows.

use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use rustwren_core::stats::{concurrency_series, ConcurrencyPoint, JobReport};
use rustwren_core::{
    CorruptMode, DataSource, ExecutorBuilder, FaultPlan, MapReduceOpts, ObjectRef, PathScope,
    PlanHints, RetryPolicy, SimCloud, SimCloudBuilder, SizedFn, SpawnStrategy, SpeculationConfig,
    TaskCtx, TimeWindow, Value, PHASE_BEFORE_RUN,
};
use rustwren_faas::{
    ActivationRecord, InvokeError, KeepAlivePolicy, PlatformConfig, TenantConfig, TenantStats,
};
use rustwren_sim::{NetworkProfile, SimInstant};
use rustwren_workloads::serving::{
    self as serve, Arrival, BurstWindow, ExecMix, TenantTraffic, TraceConfig, SERVE_FN,
};
use rustwren_workloads::{airbnb, baseline, compute, mergesort, tone};

use crate::{ascii_series, fmt_secs, BenchArgs, Table};

const MB: u64 = 1 << 20;

/// A platform whose namespace limit fits `limit` activations, with 200
/// spare containers in the cluster.
fn platform_for(limit: usize) -> PlatformConfig {
    PlatformConfig {
        concurrency_limit: limit,
        cluster_containers: limit + 200,
        ..PlatformConfig::default()
    }
}

/// A cloud at `seed` whose client sits behind a WAN link, as the paper's
/// did.
fn wan_cloud(seed: u64) -> SimCloudBuilder {
    SimCloud::builder()
        .seed(seed)
        .client_network(NetworkProfile::wan())
}

/// The agent activations `cloud` ran: every function but the invokers.
fn agents(cloud: &SimCloud) -> Vec<ActivationRecord> {
    let records = cloud.functions().records().into_iter();
    records
        .filter(|r| r.action.starts_with("rustwren-agent@"))
        .collect()
}

/// Headroom above `n` agents for the invoker functions (the paper raised
/// the namespace limit when needed).
fn spawn_limit(n: usize) -> usize {
    n + n / 10 + 50
}

/// One `map` of compute tasks: when its functions ran, measured from the
/// instant the client started the job.
#[derive(Debug, Clone, PartialEq)]
pub struct Spawn {
    /// Functions invoked.
    pub tasks: usize,
    /// Time until every function is up and running.
    pub invocation: Duration,
    /// Time until the last function finished.
    pub total: Duration,
    /// The shortest and the longest function execution.
    pub exec: (Duration, Duration),
    /// Running functions over time (the paper's black line).
    pub series: Vec<ConcurrencyPoint>,
}

impl Spawn {
    /// Peak simultaneous running functions.
    pub fn peak(&self) -> usize {
        self.series.iter().map(|&(_, c)| c).max().unwrap_or(0)
    }

    fn chart(&self, f: &mut fmt::Formatter<'_>, label: impl fmt::Display) -> fmt::Result {
        writeln!(f, "--- {label} ---")?;
        writeln!(f, "{}", ascii_series(&self.series, 72, 10))
    }
}

/// Maps `func` over `inputs` from `cloud`'s client, on an executor that
/// `configure` sets up, and gathers the results: the virtual instant the
/// job started and how long it took.
fn timed_map(
    cloud: &SimCloud,
    configure: impl FnOnce(ExecutorBuilder) -> ExecutorBuilder,
    func: &str,
    inputs: impl IntoIterator<Item = Value>,
) -> (SimInstant, Duration) {
    cloud.run(|| {
        let t0 = rustwren_sim::now();
        let exec = configure(cloud.executor()).build().expect("executor");
        exec.map(func, inputs).expect("map");
        exec.get_result().expect("results");
        (t0, rustwren_sim::now() - t0)
    })
}

/// Runs `n` compute tasks of `task_secs` each under `strategy`, from a
/// `client` network, in a namespace limited to `limit` activations.
fn spawn_job(
    seed: u64,
    limit: usize,
    client: NetworkProfile,
    strategy: SpawnStrategy,
    n: usize,
    task_secs: f64,
) -> Spawn {
    let cloud = SimCloud::builder()
        .seed(seed)
        .platform(platform_for(limit))
        .client_network(client)
        .build();
    compute::register(&cloud);
    let tasks = (0..n).map(|_| compute::input(task_secs));
    let (t0, _) = timed_map(&cloud, |b| b.spawn(strategy), compute::COMPUTE_FN, tasks);
    let records = agents(&cloud);
    let report = JobReport::from_records(&records).expect("agents ran");
    assert_eq!(report.count, n, "every function must have run");
    let exec = || records.iter().filter_map(ActivationRecord::exec_duration);
    Spawn {
        tasks: n,
        invocation: report.invocation_phase(t0),
        total: report.total(t0),
        exec: (exec().min().expect("ran"), exec().max().expect("ran")),
        series: concurrency_series(&records),
    }
}

/// §5.1's scenarios: (client and spawning strategy, the paper's
/// invocation phase).
pub const SEC51_PAPER: [(&str, &str); 4] = [
    ("LAN client, direct", "~8s"),
    ("WAN client, direct", "~40s"),
    ("WAN client, single remote invoker", "~20s"),
    ("WAN client, invoker groups of 100", "~8s"),
];

/// §5.1's invocation-time table: one job per scenario of [`SEC51_PAPER`].
#[derive(Debug, Clone, PartialEq)]
pub struct Sec51(pub Vec<Spawn>);

/// §5.1 — Massive Function Spawning: 1,000 invocations of a 50 s task. The
/// paper: ~8 s from a low-latency network, ~40 s from a high-latency one,
/// ~20 s through a single remote invoker and ~8 s with grouped remote
/// invokers (100 invocations per group).
pub fn sec51(args: BenchArgs) -> Sec51 {
    let n = args.scaled(1_000, 60);
    let direct = SpawnStrategy::Direct { client_threads: 5 };
    let invoker = |group_size| SpawnStrategy::RemoteInvoker {
        group_size,
        invoker_threads: 2,
    };
    let scenarios = [
        (NetworkProfile::lan(), direct.clone()),
        (NetworkProfile::wan(), direct),
        (NetworkProfile::wan(), invoker(n)),
        (NetworkProfile::wan(), invoker(args.scaled(100, 10))),
    ];
    let jobs = scenarios
        .into_iter()
        .map(|(client, strategy)| spawn_job(args.seed, spawn_limit(n), client, strategy, n, 50.0));
    Sec51(jobs.collect())
}

impl fmt::Display for Sec51 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0[0].tasks;
        writeln!(
            f,
            "== §5.1 Massive Function Spawning: {n} invocations of a 50s task ==\n"
        )?;
        let mut table = Table::new(&["Scenario", "Paper", "Invocation phase", "Total job"]);
        for (s, (scenario, paper)) in self.0.iter().zip(SEC51_PAPER) {
            table.row(&[
                scenario.to_owned(),
                paper.to_owned(),
                fmt_secs(s.invocation.as_secs_f64()),
                fmt_secs(s.total.as_secs_f64()),
            ]);
        }
        writeln!(f, "{table}")?;
        writeln!(
            f,
            "(invocation phase = time until all {n} functions are up and running)"
        )
    }
}

/// Fig 2's strategies: (label, the paper's invocation phase, its total).
pub const FIG2_PAPER: [(&str, &str, &str); 2] = [
    ("Local (direct from client)", "38s", "88s"),
    ("Massive function spawning", "8s", "58s"),
];

/// Fig 2: one job per strategy of [`FIG2_PAPER`].
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2(pub Vec<Spawn>);

/// Fig 2 — local invocation against massive function spawning: 1,000
/// invocations of a 50 s task from a WAN client. The paper: local
/// invocation finishes its invocation phase in 38 s and the job in 88 s;
/// massive spawning reaches full concurrency in 8 s and finishes in 58 s.
pub fn fig2(args: BenchArgs) -> Fig2 {
    let n = args.scaled(1_000, 60);
    let local = SpawnStrategy::Direct { client_threads: 5 };
    let jobs = [local, SpawnStrategy::massive()]
        .map(|s| spawn_job(args.seed, spawn_limit(n), NetworkProfile::wan(), s, n, 50.0));
    Fig2(jobs.into())
}

impl fmt::Display for Fig2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Fig 2: local invocation vs massive function spawning ==\n   \
             ({} functions x 50s compute, WAN client)\n",
            self.0[0].tasks
        )?;
        let mut table = Table::new(&[
            "Strategy",
            "Invocation phase",
            "Paper",
            "Total",
            "Paper total",
            "Peak concurrency",
        ]);
        for (s, (label, paper, paper_total)) in self.0.iter().zip(FIG2_PAPER) {
            s.chart(f, label)?;
            table.row(&[
                label.to_owned(),
                fmt_secs(s.invocation.as_secs_f64()),
                paper.to_owned(),
                fmt_secs(s.total.as_secs_f64()),
                paper_total.to_owned(),
                s.peak().to_string(),
            ]);
        }
        writeln!(f, "{table}")
    }
}

/// Fig 3: one job per workload size.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3(pub Vec<Spawn>);

/// Fig 3 — elasticity: 500, 1,000, 1,500 and 2,000 concurrent invocations
/// of a ~60 s task with massive spawning. The paper: full concurrency is
/// reached in every case, with visible per-function execution-time
/// variability.
pub fn fig3(args: BenchArgs) -> Fig3 {
    let workloads: &[usize] = if args.smoke {
        &[30, 60]
    } else {
        &[500, 1_000, 1_500, 2_000]
    };
    let default_limit = PlatformConfig::default().concurrency_limit;
    let jobs = workloads.iter().map(|&n| {
        let limit = spawn_limit(n).max(default_limit);
        let massive = SpawnStrategy::massive();
        spawn_job(args.seed, limit, NetworkProfile::wan(), massive, n, 60.0)
    });
    Fig3(jobs.collect())
}

impl fmt::Display for Fig3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Fig 3: elasticity and concurrency (massive spawning, ~60s tasks) ==\n"
        )?;
        let mut table = Table::new(&[
            "Workload",
            "Peak concurrency",
            "Full concurrency?",
            "Invocation phase",
            "Exec time spread",
            "Total",
        ]);
        for s in &self.0 {
            let (n, peak) = (s.tasks, s.peak());
            s.chart(f, format_args!("{n} concurrent invocations"))?;
            table.row(&[
                n.to_string(),
                peak.to_string(),
                if peak == n {
                    "yes".into()
                } else {
                    format!("NO ({peak}/{n})")
                },
                fmt_secs(s.invocation.as_secs_f64()),
                format!(
                    "{}..{}",
                    fmt_secs(s.exec.0.as_secs_f64()),
                    fmt_secs(s.exec.1.as_secs_f64())
                ),
                fmt_secs(s.total.as_secs_f64()),
            ]);
        }
        writeln!(f, "{table}")?;
        f.write_str(
            "(paper: the concurrency line meets the target size in all four workloads;\n \
             execution times vary between functions due to cluster heterogeneity)\n",
        )
    }
}

/// Fig 4: mergesort time by array size and function-tree depth.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4 {
    /// Array sizes, one row each.
    pub sizes: Vec<u64>,
    /// Tree depths, one column each.
    pub depths: Vec<u32>,
    /// `times[i][j]`: sorting `sizes[i]` integers at `depths[j]`.
    pub times: Vec<Vec<Duration>>,
}

impl Fig4 {
    /// The fastest depth for `sizes[row]`.
    pub fn best_depth(&self, row: usize) -> u32 {
        self.depths
            .iter()
            .zip(&self.times[row])
            .min_by_key(|&(_, t)| *t)
            .map(|(d, _)| *d)
            .expect("non-empty")
    }
}

/// Fig 4 — sorts N ∈ [500 K, 25 M] integers at depths 0..=4 (2^d leaf
/// functions, nested parallelism per §4.4). The paper: time grows linearly
/// in N, deeper trees win at larger N, and gains flatten past d = 3.
pub fn fig4(args: BenchArgs) -> Fig4 {
    let (sizes, depths) = if args.smoke {
        (vec![20_000, 50_000], vec![0, 1, 2])
    } else {
        (
            vec![500_000, 1_000_000, 5_000_000, 10_000_000, 25_000_000],
            vec![0, 1, 2, 3, 4],
        )
    };
    let times = sizes
        .iter()
        .map(|&n| depths.iter().map(|&d| fig4_cell(args.seed, n, d)).collect())
        .collect();
    Fig4 {
        sizes,
        depths,
        times,
    }
}

/// One Fig 4 cell: the virtual time of sorting `n` integers at `depth`.
pub fn fig4_cell(seed: u64, n: u64, depth: u32) -> Duration {
    let cloud = wan_cloud(seed).build();
    mergesort::register(&cloud);
    cloud.run(|| {
        let t0 = rustwren_sim::now();
        // Declare the recursion shape so the pre-flight analyzer can prove
        // the tree fits inside the namespace concurrency limit (rule W001).
        let exec = cloud
            .executor()
            .plan_hints(PlanHints {
                nesting_depth: depth,
                nested_fanout: 2,
                ..PlanHints::default()
            })
            .build()
            .expect("executor");
        exec.call_async(mergesort::MERGESORT_FN, mergesort::input(seed, n, depth))
            .expect("call_async");
        let results = exec.get_result().expect("results");
        let sorted =
            mergesort::decode_i64s(results[0].as_bytes().expect("mergesort returns bytes"));
        assert_eq!(sorted.len() as u64, n, "all elements sorted");
        assert!(
            sorted.windows(2).all(|w| w[0] <= w[1]),
            "output must be sorted"
        );
        drop::<Vec<Value>>(results);
        rustwren_sim::now() - t0
    })
}

fn format_n(n: u64) -> String {
    if n >= 1_000_000 {
        format!("{}M", n / 1_000_000)
    } else {
        format!("{}K", n / 1_000)
    }
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Fig 4: mergesort execution time vs N, by function-tree depth d ==\n"
        )?;
        let mut header = vec!["N".to_owned()];
        header.extend(self.depths.iter().map(|d| format!("d={d}")));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut table = Table::new(&header_refs);
        for (&n, times) in self.sizes.iter().zip(&self.times) {
            let mut cells = vec![format_n(n)];
            cells.extend(times.iter().map(|t| fmt_secs(t.as_secs_f64())));
            table.row(&cells);
        }
        writeln!(f, "{table}")?;
        writeln!(
            f,
            "(paper shape: linear in N; deeper trees help at large N; gains flatten past d=3)\n"
        )?;
        for row in [0, self.sizes.len() - 1] {
            let n = format_n(self.sizes[row]);
            writeln!(f, "best depth at N={n}: d={}", self.best_depth(row))?;
        }
        Ok(())
    }
}

/// Where `reproduce fig5` writes the SVG tone maps.
const FIG5_DIR: &str = "target/fig5";

/// Fig 5: one rendered tone map per city, in the reducers' output order.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5(pub Vec<CityMap>);

/// One city's tone map.
#[derive(Debug, Clone, PartialEq)]
pub struct CityMap {
    /// The city's object name (`new-york.csv`).
    pub city: String,
    /// Sampled good comments.
    pub positive: i64,
    /// Sampled neutral comments.
    pub neutral: i64,
    /// Sampled bad comments.
    pub negative: i64,
    /// The rendered map.
    pub svg: String,
}

impl CityMap {
    /// `target/fig5/<city>.svg`.
    pub fn svg_path(&self) -> PathBuf {
        PathBuf::from(FIG5_DIR).join(format!("{}.svg", self.city.trim_end_matches(".csv")))
    }
}

impl Fig5 {
    /// Writes every city's map to [`CityMap::svg_path`].
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or writing a file.
    pub fn write_svgs(&self) -> std::io::Result<()> {
        std::fs::create_dir_all(FIG5_DIR)?;
        for c in &self.0 {
            std::fs::write(c.svg_path(), &c.svg)?;
        }
        Ok(())
    }
}

/// Fig 5 — runs the §6.4 MapReduce over a subset of cities; each reducer
/// renders one city's tone map (green good, blue neutral, red bad). The
/// New York map corresponds to the paper's Fig 5.
pub fn fig5(args: BenchArgs) -> Fig5 {
    let cities: &[&str] = if args.smoke {
        &["new-york"]
    } else {
        &["new-york", "amsterdam", "barcelona", "san-francisco"]
    };
    let scale = if args.smoke { 1 << 14 } else { 256 };
    let cloud = wan_cloud(args.seed).build();
    let dataset = airbnb::generate(cloud.store(), "reviews", scale, args.seed)
        .expect("stage reviews dataset");
    tone::register(&cloud);
    let keys: Vec<ObjectRef> = cities
        .iter()
        .map(|c| ObjectRef::new(dataset.bucket.clone(), airbnb::AirbnbDataset::key(c)))
        .collect();
    let results = cloud.run(|| {
        let exec = cloud
            .executor()
            .spawn(SpawnStrategy::massive())
            .build()
            .expect("executor");
        exec.map_reduce(
            tone::TONE_MAP_FN,
            DataSource::Keys(keys),
            tone::TONE_REDUCE_FN,
            MapReduceOpts {
                chunk_size: Some(8 << 20),
                reducer_one_per_object: true,
            },
        )
        .expect("map_reduce");
        exec.get_result().expect("results")
    });
    let count = |city: &Value, k| city.get(k).and_then(Value::as_i64).unwrap_or(0);
    let text = |city: &Value, k| {
        city.get(k)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("tone map without `{k}`"))
            .to_owned()
    };
    let maps = results
        .iter()
        .map(|city| CityMap {
            city: text(city, "city"),
            positive: count(city, "positive"),
            neutral: count(city, "neutral"),
            negative: count(city, "negative"),
            svg: text(city, "svg"),
        })
        .collect();
    Fig5(maps)
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Fig 5: tone maps (green good / blue neutral / red bad) ==\n"
        )?;
        for c in &self.0 {
            writeln!(
                f,
                "{}: {} good / {} neutral / {} bad (sampled) -> {}",
                c.city,
                c.positive,
                c.neutral,
                c.negative,
                c.svg_path().display()
            )?;
        }
        Ok(())
    }
}

/// The paper's Table 3: (chunk MB, executors, exec seconds, speed-up).
pub const TABLE3_PAPER: [(u64, usize, f64, f64); 6] = [
    (64, 47, 471.0, 10.95),
    (32, 72, 297.0, 17.37),
    (16, 129, 181.0, 28.51),
    (8, 242, 112.0, 46.07),
    (4, 471, 63.0, 81.90),
    (2, 923, 38.0, 135.79),
];

/// Table 3: the sequential baseline and one row per chunk size.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3 {
    /// The sequential notebook baseline's duration.
    pub sequential: Duration,
    /// Sampled comments the baseline analyzed.
    pub comments: u64,
    /// One row per chunk size, largest first.
    pub rows: Vec<Table3Row>,
}

/// One Table 3 chunk size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table3Row {
    /// Chunk size in MB.
    pub chunk_mb: u64,
    /// Map-phase function executors.
    pub executors: usize,
    /// The MapReduce job's duration.
    pub exec: Duration,
}

impl Table3 {
    /// The sequential baseline's duration over `row`'s.
    pub fn speedup(&self, row: &Table3Row) -> f64 {
        self.sequential.as_secs_f64() / row.exec.as_secs_f64()
    }
}

/// Table 3 — §6.4's Airbnb tone analysis: the synthetic 33-city / 1.9 GB
/// (logical) dataset, the sequential notebook baseline, then `map_reduce`
/// at chunk sizes 64→2 MB with one reducer per city and massive spawning.
pub fn table3(args: BenchArgs) -> Table3 {
    let chunks: Vec<u64> = if args.smoke {
        vec![64, 16]
    } else {
        TABLE3_PAPER.iter().map(|p| p.0).collect()
    };
    let scale = if args.smoke { 1 << 14 } else { 512 };

    let seq_cloud = table3_cloud(args.seed);
    let dataset = airbnb::generate(seq_cloud.store(), "reviews", scale, args.seed)
        .expect("stage reviews dataset");
    let (summaries, sequential) = seq_cloud
        .run(|| baseline::sequential_tone_analysis(&seq_cloud, &dataset).expect("baseline"));
    let rows = chunks
        .into_iter()
        .map(|chunk_mb| {
            let (executors, exec) = table3_chunk(args.seed, scale, chunk_mb * MB);
            Table3Row {
                chunk_mb,
                executors,
                exec,
            }
        })
        .collect();
    Table3 {
        sequential,
        comments: summaries.iter().map(|s| s.comments).sum(),
        rows,
    }
}

fn table3_cloud(seed: u64) -> SimCloud {
    wan_cloud(seed).platform(platform_for(1_100)).build()
}

fn table3_chunk(seed: u64, scale: u64, chunk_bytes: u64) -> (usize, Duration) {
    let cloud = table3_cloud(seed);
    let dataset =
        airbnb::generate(cloud.store(), "reviews", scale, seed).expect("stage reviews dataset");
    tone::register(&cloud);
    cloud.run(|| {
        let t0 = rustwren_sim::now();
        let exec = cloud
            .executor()
            .spawn(SpawnStrategy::massive())
            .build()
            .expect("executor");
        exec.map_reduce(
            tone::TONE_MAP_FN,
            DataSource::bucket(&dataset.bucket),
            tone::TONE_REDUCE_FN,
            MapReduceOpts {
                chunk_size: Some(chunk_bytes),
                reducer_one_per_object: true,
            },
        )
        .expect("map_reduce");
        let results = exec.get_result().expect("results");
        assert_eq!(results.len(), 33, "one tone map per city");
        for city in &results {
            let svg = city.get("svg").and_then(Value::as_str).expect("svg result");
            assert!(svg.starts_with("<svg"), "reducer rendered a map");
        }
        let elapsed = rustwren_sim::now() - t0;
        // Map executors: agent activations but the 33 reducers.
        (agents(&cloud).len() - 33, elapsed)
    })
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== Table 3: Airbnb tone-analysis MapReduce ==")?;
        writeln!(
            f,
            "   (33 cities, {:.2} GB logical, {} comments in the paper)\n",
            airbnb::AirbnbDataset::total_logical_size() as f64 / 1e9,
            airbnb::TOTAL_COMMENTS
        )?;
        let seq = fmt_secs(self.sequential.as_secs_f64());
        writeln!(
            f,
            "sequential baseline: {seq} (paper: 5160s = 1h26m), {} sampled comments analyzed\n",
            self.comments
        )?;
        let mut table = Table::new(&[
            "Chunk",
            "Executors",
            "Paper exec.",
            "Measured exec.",
            "Paper speedup",
            "Measured speedup",
        ]);
        table.row(&[
            "sequential".into(),
            "0".into(),
            "5160s".into(),
            seq,
            "1x (base)".into(),
            "1x (base)".into(),
        ]);
        for r in &self.rows {
            let paper = TABLE3_PAPER.iter().find(|p| p.0 == r.chunk_mb);
            let &(_, paper_executors, paper_secs, paper_speedup) = paper.expect("known chunk");
            table.row(&[
                format!("{}MB", r.chunk_mb),
                format!("{} (paper {paper_executors})", r.executors),
                fmt_secs(paper_secs),
                fmt_secs(r.exec.as_secs_f64()),
                format!("{paper_speedup:.2}x"),
                format!("{:.2}x", self.speedup(r)),
            ]);
        }
        writeln!(f, "{table}")?;
        writeln!(
            f,
            "(executors = map-phase function executors; one reducer per city renders its map)"
        )
    }
}

/// One ablation: the virtual time of one job under one design choice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ablation {
    /// The design choice ablated.
    pub group: &'static str,
    /// The variant's setting.
    pub variant: String,
    /// The job's virtual duration.
    pub time: Duration,
}

/// The ablation table: one row per (group, variant), in group order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ablations(pub Vec<Ablation>);

const ABLATION_TASKS: usize = 60;

fn ablation_cloud(seed: u64) -> SimCloud {
    let cloud = wan_cloud(seed).build();
    compute::register(&cloud);
    cloud
}

fn sixty_tasks() -> impl Iterator<Item = Value> {
    (0..ABLATION_TASKS).map(|_| compute::input(10.0))
}

/// Sixty ten-second compute tasks on `cloud` under `strategy`, polling
/// every `poll`, timed.
fn ablation_job(cloud: &SimCloud, strategy: SpawnStrategy, poll: Duration) -> Duration {
    let configure = |b: ExecutorBuilder| b.spawn(strategy).poll_interval(poll);
    timed_map(cloud, configure, compute::COMPUTE_FN, sixty_tasks()).1
}

/// The virtual time of one `map` of 60 tasks on a seeded cloud, per design
/// choice DESIGN.md calls out: the remote-invoker group size, the direct
/// spawner's client threads, the serialized function's size, the status
/// poll interval, warm against cold containers, straggler speculation
/// against a one-off 10× straggler, and healing injected faults per fault
/// family. Each group runs on its own fixed seed (1–7), whatever `--seed`
/// says, so the table is one fixed set of numbers.
pub fn ablations() -> Ablations {
    let poll = Duration::from_millis(500);
    let direct = SpawnStrategy::Direct { client_threads: 5 };
    let mut rows = Vec::new();
    let mut push = |group, variant: String, time| {
        rows.push(Ablation {
            group,
            variant,
            time,
        });
    };
    for group_size in [ABLATION_TASKS, 20, 10, 5] {
        let strategy = SpawnStrategy::RemoteInvoker {
            group_size,
            invoker_threads: 2,
        };
        let time = ablation_job(&ablation_cloud(1), strategy, poll);
        push("invoker_group_size", format!("group={group_size}"), time);
    }
    for client_threads in [1, 5, 16] {
        let strategy = SpawnStrategy::Direct { client_threads };
        let time = ablation_job(&ablation_cloud(2), strategy, poll);
        push(
            "direct_client_threads",
            format!("threads={client_threads}"),
            time,
        );
    }
    for kb in [8u64, 1024, 4096] {
        push("func_blob_size", format!("{kb}KB"), fat_blob_job(kb));
    }
    for ms in [100u64, 500, 2000] {
        let time = ablation_job(
            &ablation_cloud(4),
            direct.clone(),
            Duration::from_millis(ms),
        );
        push("poll_interval", format!("{ms}ms"), time);
    }
    let cold = ablation_cloud(5);
    push(
        "container_pool",
        "cold(first job)".into(),
        ablation_job(&cold, direct.clone(), poll),
    );
    let warm = ablation_cloud(5);
    ablation_job(&warm, direct.clone(), poll);
    push(
        "container_pool",
        "warm(second job)".into(),
        ablation_job(&warm, direct, poll),
    );
    for (on, variant) in [(false, "speculation=off"), (true, "speculation=on")] {
        push("straggler_speculation", variant.into(), straggler_job(on));
    }
    let always = TimeWindow::always();
    let plans = [
        ("fault-free", None),
        (
            "brownout p=0.15",
            Some(FaultPlan::new(101).cos_brownout(PathScope::any(), always, 0.15)),
        ),
        (
            "corrupt-get p=0.2",
            Some(FaultPlan::new(102).corrupt_get(
                PathScope::prefix("jobs/"),
                always,
                CorruptMode::FlipByte,
                0.2,
            )),
        ),
        (
            "crash before-run p=0.1",
            Some(FaultPlan::new(103).crash(PHASE_BEFORE_RUN, always, 0.1)),
        ),
    ];
    for (variant, plan) in plans {
        push("chaos_recovery", variant.into(), chaos_job(plan));
    }
    Ablations(rows)
}

/// The cost of shipping a fat closure: a `kb`-KiB function blob.
fn fat_blob_job(kb: u64) -> Duration {
    let cloud = ablation_cloud(3);
    cloud.register_fn(
        "fat",
        SizedFn::new(
            |ctx: &TaskCtx, v: Value| {
                ctx.charge(Duration::from_secs(10));
                Ok(v)
            },
            kb * 1024,
        ),
    );
    timed_map(&cloud, |b| b, "fat", (0..ABLATION_TASKS).map(Value::from)).1
}

/// Task 0 takes 10× the others' time on its first execution only (a slow
/// node, not a slow task): without speculation the job waits it out, with
/// it a backup copy finishes in normal time.
fn straggler_job(speculation: bool) -> Duration {
    let cloud = ablation_cloud(6);
    let executions = Mutex::new(HashMap::<i64, usize>::new());
    cloud.register_fn("sometimes-slow", move |ctx: &TaskCtx, v: Value| {
        let n = v.as_i64().ok_or("int")?;
        let run = {
            let mut seen = executions.lock().unwrap();
            let count = seen.entry(n).or_insert(0);
            *count += 1;
            *count
        };
        let secs = if n == 0 && run == 1 { 100 } else { 10 };
        ctx.charge(Duration::from_secs(secs));
        Ok(v)
    });
    let spec = if speculation {
        SpeculationConfig::on()
    } else {
        SpeculationConfig::disabled()
    };
    let tasks = (0..ABLATION_TASKS as i64).map(Value::from);
    timed_map(&cloud, |b| b.speculation(spec), "sometimes-slow", tasks).1
}

/// The same seeded job with retries on, under `plan`'s injected faults.
fn chaos_job(plan: Option<FaultPlan>) -> Duration {
    let mut builder = wan_cloud(7);
    if let Some(plan) = plan {
        builder = builder.chaos(plan);
    }
    let cloud = builder.build();
    compute::register(&cloud);
    let configure = |b: ExecutorBuilder| {
        b.retry(RetryPolicy::with_attempts(6))
            .poll_interval(Duration::from_millis(500))
    };
    timed_map(&cloud, configure, compute::COMPUTE_FN, sixty_tasks()).1
}

impl fmt::Display for Ablations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Ablations: virtual time of one {ABLATION_TASKS}-task job per design choice ==\n"
        )?;
        let mut table = Table::new(&["Group", "Variant", "Virtual time"]);
        for a in &self.0 {
            table.row(&[
                a.group.to_owned(),
                a.variant.clone(),
                format!("{:.3?}", a.time),
            ]);
        }
        writeln!(f, "{table}")
    }
}

/// One tenant's measurements from one serving replay.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRow {
    /// The tenant's namespace.
    pub namespace: String,
    /// Invocations the tenant's sender attempted.
    pub submitted: u64,
    /// Invocations that completed successfully.
    pub completed: u64,
    /// Median submit-to-end latency of completed invocations, ms.
    pub p50_ms: f64,
    /// 99th-percentile submit-to-end latency, ms.
    pub p99_ms: f64,
    /// Share of the tenant's starts that were cold.
    pub cold_rate: f64,
    /// Container-idle seconds kept warm for the tenant.
    pub warm_pool_secs: f64,
    /// Containers started ahead of a predicted arrival.
    pub prewarmed: u64,
    /// Invocations shed by admission (platform and client side).
    pub shed: u64,
    /// Invocations throttled (HTTP 429).
    pub throttled: u64,
}

/// One replayed serving arm.
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    /// The arm's label.
    pub name: &'static str,
    /// The trace's length.
    pub horizon: Duration,
    /// One row per tenant, in traffic order.
    pub tenants: Vec<TenantRow>,
}

impl Arm {
    /// Cold-start rate over every completed invocation of the arm.
    pub fn cold_start_rate(&self) -> f64 {
        let cold: f64 = self
            .tenants
            .iter()
            .map(|t| t.cold_rate * t.completed as f64)
            .sum();
        let done: f64 = self.tenants.iter().map(|t| t.completed as f64).sum();
        cold / done.max(1.0)
    }

    /// Container-idle seconds over every tenant: the warm pool's cost.
    pub fn warm_pool_secs(&self) -> f64 {
        self.tenants.iter().map(|t| t.warm_pool_secs).sum()
    }

    /// The row of tenant `namespace`.
    ///
    /// # Panics
    ///
    /// Panics if the arm has no such tenant.
    pub fn tenant(&self, namespace: &str) -> &TenantRow {
        self.tenants
            .iter()
            .find(|t| t.namespace == namespace)
            .unwrap_or_else(|| panic!("no tenant `{namespace}` in arm {}", self.name))
    }
}

/// The multi-tenant serving A/B: a keep-alive policy comparison and a
/// noisy-neighbor fairness check.
#[derive(Debug, Clone, PartialEq)]
pub struct Serving {
    /// The seed every arm replayed.
    pub seed: u64,
    /// Keep-alive A/B, fixed-TTL arm.
    pub fixed: Arm,
    /// Keep-alive A/B, hybrid-histogram arm over the same trace.
    pub hybrid: Arm,
    /// The victim tenant alone.
    pub victim_isolated: Arm,
    /// The victim beside a noisy tenant bursting 10×.
    pub burst: Arm,
    /// Whether a second burst replay on the same seed was identical.
    pub replay_bitwise: bool,
}

impl Serving {
    /// The four arms, in the order they ran.
    pub fn arms(&self) -> [&Arm; 4] {
        [
            &self.fixed,
            &self.hybrid,
            &self.victim_isolated,
            &self.burst,
        ]
    }

    /// The gates a serving change must keep, one message per violation:
    /// the burst replays bitwise; the hybrid-histogram arm's cold-start
    /// rate beats fixed-TTL's at no more than 1.05× its warm-pool cost;
    /// the victim's p99 under the 10× burst stays within 2× its isolated
    /// baseline; and the burst does trip admission control.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if !self.replay_bitwise {
            failures.push("identical seeds must replay the burst timeline bitwise".to_owned());
        }
        let (fixed_rate, hybrid_rate) =
            (self.fixed.cold_start_rate(), self.hybrid.cold_start_rate());
        if hybrid_rate >= fixed_rate {
            failures.push(format!(
                "gate a: hybrid cold-start rate ({hybrid_rate:.3}) must beat fixed-TTL ({fixed_rate:.3})"
            ));
        }
        let (fixed_cost, hybrid_cost) = (self.fixed.warm_pool_secs(), self.hybrid.warm_pool_secs());
        if hybrid_cost > fixed_cost * 1.05 {
            failures.push(format!(
                "gate a: hybrid warm-pool cost ({hybrid_cost:.1}s) must not exceed \
                 1.05x fixed-TTL ({fixed_cost:.1}s)"
            ));
        }
        let p99_iso = self.victim_isolated.tenant("victim").p99_ms;
        let p99_burst = self.burst.tenant("victim").p99_ms;
        if p99_burst > p99_iso * 2.0 {
            failures.push(format!(
                "gate b: victim p99 under burst ({p99_burst:.1}ms) must stay within \
                 2x its isolated baseline ({p99_iso:.1}ms)"
            ));
        }
        let noisy = self.burst.tenant("noisy");
        if noisy.shed + noisy.throttled == 0 {
            failures.push("gate b: the 10x burst must actually trip admission control".to_owned());
        }
        failures
    }
}

/// Serving — replays seeded Azure-Functions-style arrival traces against
/// the platform's tenant admission plane: the same periodic multi-tenant
/// trace under fixed-TTL and hybrid-histogram keep-alive, then a victim
/// tenant alone and beside a noisy tenant bursting 10×, the burst twice.
pub fn serving(args: BenchArgs) -> Serving {
    let ka_horizon = Duration::from_secs(args.scaled(900, 300) as u64);
    let fair_horizon = Duration::from_secs(args.scaled(300, 120) as u64);
    let ka_traffic = keepalive_traffic();
    let ttl = Duration::from_secs(20);
    let keepalive = |name, policy| {
        replay(
            name,
            args.seed,
            keepalive_platform(&ka_traffic, policy),
            &ka_traffic,
            ka_horizon,
        )
    };
    let fixed = keepalive("fixed-ttl", KeepAlivePolicy::fixed(ttl));
    let hybrid = keepalive("hybrid-histogram", KeepAlivePolicy::hybrid(ttl));
    let fair = |name, traffic: &[TenantTraffic]| {
        replay(name, args.seed, fairness_platform(), traffic, fair_horizon)
    };
    let victim_isolated = fair("victim-isolated", &[victim_traffic()]);
    let burst_traffic = [victim_traffic(), noisy_traffic(fair_horizon)];
    let burst = fair("noisy-burst", &burst_traffic);
    let replay_bitwise = fair("noisy-burst", &burst_traffic) == burst;
    Serving {
        seed: args.seed,
        fixed,
        hybrid,
        victim_isolated,
        burst,
        replay_bitwise,
    }
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

/// Replays `traffic` over `horizon` open-loop: one sender thread per
/// tenant, so arrivals are never delayed by earlier invocations' latency.
fn replay(
    name: &'static str,
    seed: u64,
    platform: PlatformConfig,
    traffic: &[TenantTraffic],
    horizon: Duration,
) -> Arm {
    let cloud = SimCloud::builder().seed(seed).platform(platform).build();
    serve::register(cloud.functions()).expect("register serve action");
    let trace = serve::generate(traffic, &TraceConfig { horizon, seed });
    let faas = cloud.functions().clone();

    let tenants = cloud.run(|| {
        let origin = rustwren_sim::now();
        let handles: Vec<_> = traffic
            .iter()
            .enumerate()
            .map(|(idx, t)| {
                let arrivals: Vec<Arrival> =
                    trace.iter().filter(|a| a.tenant == idx).copied().collect();
                let faas = faas.clone();
                let ns = t.namespace.clone();
                rustwren_sim::spawn(format!("sender-{ns}"), move || {
                    let mut ids = Vec::new();
                    let (mut throttled, mut shed) = (0u64, 0u64);
                    for a in arrivals {
                        let target = origin + a.at;
                        let now = rustwren_sim::now();
                        if target > now {
                            rustwren_sim::sleep(target.duration_since(now));
                        }
                        match faas.invoke_in(&ns, SERVE_FN, serve::payload(a.exec)) {
                            Ok(id) => ids.push(id),
                            Err(InvokeError::Throttled { .. }) => throttled += 1,
                            Err(InvokeError::ShedLoad { .. }) => shed += 1,
                            Err(e) => panic!("sender {ns}: unexpected invoke error: {e}"),
                        }
                    }
                    (ids, throttled, shed)
                })
            })
            .collect();
        let sent: Vec<_> = handles.into_iter().map(|h| h.join()).collect();

        // Latencies: submit → end, completed activations only.
        let mut out = Vec::new();
        for (t, (ids, client_throttled, client_shed)) in traffic.iter().zip(sent) {
            let mut lat_ms: Vec<f64> = Vec::new();
            let mut completed = 0u64;
            for id in &ids {
                let record = faas.wait(*id);
                if record.is_success() {
                    completed += 1;
                    if let Some(d) = record.total_duration() {
                        lat_ms.push(d.as_secs_f64() * 1e3);
                    }
                }
            }
            lat_ms.sort_by(f64::total_cmp);
            let stats: TenantStats = faas.tenant_stats(&t.namespace).unwrap_or_default();
            out.push(TenantRow {
                namespace: t.namespace.clone(),
                submitted: ids.len() as u64 + client_throttled + client_shed,
                completed,
                p50_ms: percentile(&lat_ms, 0.50),
                p99_ms: percentile(&lat_ms, 0.99),
                cold_rate: stats.cold_start_rate(),
                warm_pool_secs: stats.warm_pool_seconds,
                prewarmed: stats.prewarmed,
                shed: stats.shed + client_shed,
                throttled: stats.throttled + client_throttled,
            });
        }
        out
    });
    Arm {
        name,
        horizon,
        tenants,
    }
}

/// Ample quotas (admission never interferes) under the keep-alive policy
/// being compared.
fn keepalive_platform(tenants: &[TenantTraffic], policy: KeepAlivePolicy) -> PlatformConfig {
    PlatformConfig {
        keep_alive: policy,
        tenants: tenants
            .iter()
            .map(|t| TenantConfig::new(&t.namespace, 8))
            .collect(),
        concurrency_limit: 64,
        cluster_containers: 64,
        ..PlatformConfig::default()
    }
}

/// Periodic timer-style tenants whose inter-arrival gaps exceed the fixed
/// TTL: the population where histogram prewarming pays.
fn keepalive_traffic() -> Vec<TenantTraffic> {
    [28u64, 33, 38, 43]
        .iter()
        .enumerate()
        .map(|(i, period)| {
            TenantTraffic::periodic(format!("cron-{i}"), Duration::from_secs(*period)).with_exec(
                ExecMix {
                    min: Duration::from_millis(120),
                    alpha: 2.0,
                    cap: Duration::from_secs(1),
                },
            )
        })
        .collect()
}

/// Global capacity equals the sum of the two quotas, so the only thing
/// protecting the victim is its quota and the weighted fair queue.
fn fairness_platform() -> PlatformConfig {
    PlatformConfig {
        tenants: vec![
            TenantConfig::new("victim", 8).queue_depth(64),
            TenantConfig::new("noisy", 8).queue_depth(64),
        ],
        concurrency_limit: 16,
        cluster_containers: 16,
        ..PlatformConfig::default()
    }
}

fn victim_traffic() -> TenantTraffic {
    TenantTraffic::poisson("victim", 4.0).with_exec(ExecMix {
        min: Duration::from_millis(200),
        alpha: 1.8,
        cap: Duration::from_secs(2),
    })
}

fn noisy_traffic(horizon: Duration) -> TenantTraffic {
    TenantTraffic::poisson("noisy", 4.0)
        .with_exec(ExecMix {
            min: Duration::from_millis(300),
            alpha: 1.6,
            cap: Duration::from_secs(3),
        })
        .with_burst(BurstWindow {
            start: horizon / 4,
            len: horizon / 2,
            multiplier: 10.0,
        })
}

impl fmt::Display for Serving {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Multi-tenant serving: admission control + keep-alive ablation ==\n   \
             (keep-alive horizon {}s, fairness horizon {}s, seed {})\n",
            self.fixed.horizon.as_secs(),
            self.burst.horizon.as_secs(),
            self.seed
        )?;
        let mut table = Table::new(&[
            "Arm", "Tenant", "Done", "p50", "p99", "Cold%", "WarmSec", "Prewarm", "Shed", "429",
        ]);
        for a in self.arms() {
            for t in &a.tenants {
                table.row(&[
                    a.name.to_owned(),
                    t.namespace.clone(),
                    t.completed.to_string(),
                    format!("{:.0}ms", t.p50_ms),
                    format!("{:.0}ms", t.p99_ms),
                    format!("{:.1}%", t.cold_rate * 100.0),
                    format!("{:.0}", t.warm_pool_secs),
                    t.prewarmed.to_string(),
                    t.shed.to_string(),
                    t.throttled.to_string(),
                ]);
            }
        }
        writeln!(f, "{table}")?;
        writeln!(
            f,
            "keep-alive: cold-start rate {:.1}% -> {:.1}%, warm-pool cost {:.0}s -> {:.0}s",
            self.fixed.cold_start_rate() * 100.0,
            self.hybrid.cold_start_rate() * 100.0,
            self.fixed.warm_pool_secs(),
            self.hybrid.warm_pool_secs()
        )?;
        let noisy = self.burst.tenant("noisy");
        writeln!(
            f,
            "fairness: victim p99 {:.0}ms isolated -> {:.0}ms under 10x burst \
             (noisy shed {} / throttled {})\n",
            self.victim_isolated.tenant("victim").p99_ms,
            self.burst.tenant("victim").p99_ms,
            noisy.shed,
            noisy.throttled
        )
    }
}
