//! One run of one workload: warm-up, timed iterations, the optional
//! traced iteration with its probes, and the record all of that becomes.
//!
//! End-to-end numbers come from the untraced iterations only. Every
//! iteration — warm-up, timed and traced — must agree bit-for-bit on every
//! virtual-clock and count metric, or the run fails: a simulator whose
//! simulated statistics move between two runs of one seed has a
//! determinism bug, and no host number measured on it means anything.

use std::time::{Duration, Instant};

use crate::catalog::{MetricDef, END_TO_END, LAYERS, ZERO_PRONE};
use crate::json::Json;
use crate::probes;
use crate::trace::{Span, Tracer};
use crate::workloads::{run_iteration, HostTimes, Outcome, Workload};

/// Timed iterations never drop below this, however short `--seconds` is:
/// a median of fewer samples is not worth reporting.
const MIN_ITERATIONS: usize = 4;
/// `--smoke` runs exactly this many, so its records are comparable.
const SMOKE_ITERATIONS: usize = 2;

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub smoke: bool,
    pub trace: bool,
    /// Time budget of the timed iterations, set-up included.
    pub seconds: f64,
    pub host: Host,
}

/// Where the run happened; results that depend on threads name it.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// `available_parallelism` before pinning.
    pub nproc: usize,
    /// The one CPU the process was pinned to (see `host`), if it was.
    pub pinned_cpu: Option<usize>,
    /// Whether malloc was held to one arena.
    pub single_arena: bool,
}

/// One metric of a finished run.
#[derive(Debug, Clone)]
pub struct Measured {
    pub def: MetricDef,
    pub value: f64,
    /// Per-iteration samples behind a host median (empty otherwise).
    pub samples: Vec<f64>,
}

#[derive(Debug)]
pub struct Record {
    pub workload: &'static str,
    pub seed: u64,
    pub smoke: bool,
    pub iterations: usize,
    pub host: Host,
    pub op_noun: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub latency_samples: u64,
    pub e2e: Vec<Measured>,
    /// Empty unless the run was traced.
    pub layers: Vec<Measured>,
    pub spans: Vec<Span>,
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, so the ledger's spreads read
/// the same as the driver's. Needs two samples; fewer give `(x, x)`.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - 4j,
    // taken after the clamp, so a short sample extrapolates.
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Peak resident set of this process so far, from `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

struct Timed {
    host: HostTimes,
    /// Everything the iteration did outside the timed region: build,
    /// register, stage, verify, collect the stats, tear down.
    setup_s: f64,
}

/// Runs one untraced iteration, tear-down included, and checks it against
/// the reference outcome.
fn timed_iteration(
    w: &Workload,
    tracer: &mut Tracer,
    reference: Option<&Outcome>,
) -> Result<(Timed, Outcome), String> {
    let started = Instant::now();
    tracer.start_iteration(false);
    let (outcome, cloud) = run_iteration(w, tracer)?;
    drop(cloud);
    let total_s = started.elapsed().as_secs_f64();
    if let Some(reference) = reference {
        check_replay(reference, &outcome)?;
    }
    let timed = Timed {
        host: outcome.host,
        setup_s: total_s - outcome.host.wall_s,
    };
    Ok((timed, outcome))
}

fn check_replay(reference: &Outcome, outcome: &Outcome) -> Result<(), String> {
    let mut diff = reference.exact.diff(&outcome.exact);
    if (reference.attempted, reference.failed) != (outcome.attempted, outcome.failed) {
        diff.push(format!(
            "attempted/failed: {}/{} vs {}/{}",
            reference.attempted, reference.failed, outcome.attempted, outcome.failed
        ));
    }
    if diff.is_empty() {
        return Ok(());
    }
    Err(format!(
        "two iterations of one seed disagree on deterministic metrics: {}",
        diff.join("; ")
    ))
}

pub fn run_workload(w: &Workload, opts: &RunOpts) -> Result<Record, String> {
    let mut tracer = Tracer::default();

    let (warmup, reference) = timed_iteration(w, &mut tracer, None)?;
    let warmup_s = warmup.host.wall_s + warmup.setup_s;

    let (floor, budget) = if opts.smoke {
        (SMOKE_ITERATIONS, Duration::ZERO)
    } else {
        (MIN_ITERATIONS, Duration::from_secs_f64(opts.seconds))
    };
    let loop_started = Instant::now();
    let mut timed = Vec::new();
    while timed.len() < floor || loop_started.elapsed() < budget {
        timed.push(timed_iteration(w, &mut tracer, Some(&reference))?.0);
    }
    // Before the traced iteration and the probes, which would raise it.
    let peak_rss_mb = peak_rss_mb()?;
    let column = |f: fn(&Timed) -> f64| timed.iter().map(f).collect::<Vec<f64>>();
    let walls = column(|t| t.host.wall_s);
    let setups = column(|t| t.setup_s);
    let wall_s = median(&walls);

    let e2e = END_TO_END
        .iter()
        .map(|m| {
            let (value, samples) = match m.def.name {
                "setup_s" => (median(&setups), setups.clone()),
                "wall_s" => (wall_s, walls.clone()),
                "peak_rss_mb" => (peak_rss_mb, Vec::new()),
                name => (reference.exact.req(name), Vec::new()),
            };
            Measured {
                def: m.def,
                value,
                samples,
            }
        })
        .collect();

    let mut layers = Vec::new();
    if opts.trace {
        tracer.start_iteration(true);
        let (traced, cloud) = run_iteration(w, &mut tracer)?;
        check_replay(&reference, &traced)?;

        let mut host = probes::run(w, &cloud, &traced, wall_s, opts.smoke);
        drop(cloud);
        // `serving_burst` runs no `core` code and has no such spans.
        let span_secs = |name: &str| {
            let span = tracer.named(name).next();
            span.map_or((0.0, 0.0), |s| (s.host_secs(), s.virtual_secs()))
        };
        let (build_s, _) = span_secs("ExecutorBuilder::build");
        let (submit_s, submit_virtual_s) = span_secs("submit");
        let (gather_s, gather_virtual_s) = span_secs("get_result");
        host.set("core.executor.build_s", build_s);
        host.set("core.executor.submit_s", submit_s);
        host.set("core.executor.gather_s", gather_s);
        host.set("core.executor.submit_virtual_s", submit_virtual_s);
        host.set("core.executor.gather_virtual_s", gather_virtual_s);
        host.set(
            "sim.events_per_wall_s",
            reference.exact.req("sim.events") / wall_s,
        );
        let (q1, q3) = quartiles(&walls);
        host.set("bench.iterations", timed.len() as f64);
        host.set(
            "bench.wall_s_min",
            walls.iter().copied().fold(f64::INFINITY, f64::min),
        );
        host.set(
            "bench.wall_s_max",
            walls.iter().copied().fold(0.0, f64::max),
        );
        host.set("bench.wall_s_iqr", q3 - q1);
        host.set("bench.warmup_s", warmup_s);
        host.set("bench.stage_s", median(&column(|t| t.host.stage_s)));
        host.set("bench.verify_s", median(&column(|t| t.host.verify_s)));
        host.set(
            "bench.trace_overhead_pct",
            (traced.host.wall_s - wall_s) / wall_s * 100.0,
        );
        // `check_replay` above already failed the run otherwise.
        host.set("bench.replay_identical", 1.0);

        layers = LAYERS
            .iter()
            .map(|def| Measured {
                def: *def,
                value: reference
                    .exact
                    .get(def.name)
                    .unwrap_or_else(|| host.req(def.name)),
                samples: Vec::new(),
            })
            .collect();
    }

    Ok(Record {
        workload: w.name(),
        seed: opts.seed,
        smoke: opts.smoke,
        iterations: timed.len(),
        host: opts.host,
        op_noun: w.op_noun(),
        attempted: reference.attempted,
        failed: reference.failed,
        latency_samples: reference.latency_samples,
        e2e,
        layers,
        spans: tracer.spans().to_vec(),
    })
}

impl Measured {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("value", Json::Num(self.value)),
            ("unit", Json::from(self.def.unit)),
            ("clock", Json::from(self.def.clock.as_str())),
        ];
        if !self.samples.is_empty() {
            pairs.push((
                "samples",
                Json::Arr(self.samples.iter().map(|&s| Json::Num(s)).collect()),
            ));
        }
        Json::obj(pairs)
    }
}

impl Record {
    /// The one record schema: `workload, seed, smoke, iterations, e2e{},
    /// layers{}, spans[]` (plus what the failure share was counted over).
    pub fn to_json(&self) -> Json {
        let metrics = |ms: &[Measured]| Json::obj(ms.iter().map(|m| (m.def.name, m.to_json())));
        Json::obj([
            ("workload", Json::from(self.workload)),
            ("seed", Json::from(self.seed)),
            ("smoke", Json::from(self.smoke)),
            ("iterations", Json::from(self.iterations as u64)),
            (
                "host",
                Json::obj([
                    ("nproc", Json::from(self.host.nproc as u64)),
                    (
                        "pinned_cpu",
                        self.host
                            .pinned_cpu
                            .map_or(Json::Null, |c| Json::from(c as u64)),
                    ),
                    ("single_arena", Json::from(self.host.single_arena)),
                ]),
            ),
            (
                "ops",
                Json::obj([
                    ("counted", Json::from(self.op_noun)),
                    ("attempted", Json::from(self.attempted)),
                    ("failed", Json::from(self.failed)),
                ]),
            ),
            ("latency_samples", Json::from(self.latency_samples)),
            ("e2e", metrics(&self.e2e)),
            ("layers", metrics(&self.layers)),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .enumerate()
                        .map(|(id, s)| s.to_json(id))
                        .collect(),
                ),
            ),
        ])
    }

    /// The result line of the benchmark contract: with `--trace 0` every
    /// end-to-end metric `BENCHMARK.json` bounds, with `--trace 1` every
    /// per-layer metric it lists.
    pub fn contract_line(&self) -> String {
        let zero_prone = |m: &&Measured| ZERO_PRONE.contains(&m.def.name);
        let listed: Vec<&Measured> = if self.layers.is_empty() {
            self.e2e.iter().filter(|m| !zero_prone(m)).collect()
        } else {
            self.e2e
                .iter()
                .filter(zero_prone)
                .chain(&self.layers)
                .collect()
        };
        Json::obj([
            ("correct", Json::from(true)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                Json::obj(listed.iter().map(|m| {
                    (
                        m.def.name,
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::from(m.def.unit)),
                        ]),
                    )
                })),
            ),
        ])
        .render()
    }

    /// Every metric by name and unit, for a person to read.
    pub fn print(&self) {
        println!(
            "== ledger: {}  seed {}  {}  {} timed iterations  nproc {}, {}, {} ==",
            self.workload,
            self.seed,
            if self.smoke {
                "SMOKE scale"
            } else {
                "full scale"
            },
            self.iterations,
            self.host.nproc,
            self.host
                .pinned_cpu
                .map_or("NOT pinned".to_owned(), |c| format!("pinned to CPU {c}")),
            if self.host.single_arena {
                "one malloc arena"
            } else {
                "default malloc arenas"
            },
        );
        println!("end-to-end (untraced iterations)");
        for m in &self.e2e {
            let note = match m.def.name {
                "setup_s" | "wall_s" => {
                    let (q1, q3) = quartiles(&m.samples);
                    format!(
                        "median of {}, quartiles {q1:.6} .. {q3:.6}",
                        m.samples.len()
                    )
                }
                "activation_p50_virtual_ms" | "activation_p99_virtual_ms" => {
                    format!("nearest rank over {} activations", self.latency_samples)
                }
                "failed_share" => format!(
                    "{} failed / {} {} attempted",
                    self.failed, self.attempted, self.op_noun
                ),
                // The model is validated against the paper in shape only
                // (EXPERIMENTS.md); these are for information, not gated.
                "virtual_s" if self.workload == "airbnb_tone" && !self.smoke => {
                    "paper Table 3, 2 MB row: 38 s".to_owned()
                }
                _ => String::new(),
            };
            print_metric(m, &note);
        }
        if self.layers.is_empty() {
            return;
        }
        println!(
            "per-layer (traced iteration, probes, {} spans)",
            self.spans.len()
        );
        for m in &self.layers {
            let note = match m.def.name {
                "core.spawn_phase_virtual_s" if self.workload == "map_fanout" && !self.smoke => {
                    "paper §5.1, 1,000 functions: ~8 s"
                }
                _ => "",
            };
            print_metric(m, note);
        }
    }
}

fn print_metric(m: &Measured, note: &str) {
    // Six decimals at least: virtual metrics are compared exactly.
    let value = if m.value.fract() == 0.0 && m.value.abs() < 1e15 {
        format!("{:.0}", m.value)
    } else {
        format!("{:.6}", m.value)
    };
    println!(
        "  {:<44} {:>20} {:<7} [{}]{}{}",
        m.def.name,
        value,
        m.def.unit,
        m.def.clock.as_str(),
        if note.is_empty() { "" } else { "  " },
        note
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.25, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // method extrapolates past a two-point sample.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
