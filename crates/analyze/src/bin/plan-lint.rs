//! `plan-lint` — CLI front-end for the rustwren-analyze rules (W001–W009),
//! with human and `--format json` machine-readable output so CI can archive
//! plan-lint reports alongside rustwren-lint reports.
//!
//! With no plan flags it lints the built-in suite of canonical paper-shaped
//! plans (the Table 3 tone-map sweep, nested mergesort, CloudSort's
//! shuffle, a hyperparameter-search storm). A single custom plan can be
//! described with flags instead:
//!
//! ```text
//! cargo run -p rustwren-analyze --bin plan-lint -- \
//!     --label sweep --tasks 2000 --nesting-depth 2 --nested-fanout 2 \
//!     --format json --out target/analyze/plan-lint.json
//! ```
//!
//! Exit codes: 0 when no error-severity finding fired (warnings do not
//! fail the run unless `--deny-warnings`), 1 when one did, 2 on usage or
//! I/O errors.

use std::process::ExitCode;
use std::time::Duration;

use rustwren_analyze::report::PlanFindings;
use rustwren_analyze::{analyze, report, CloudProfile, JobPlan, Severity, ShuffleShape};

const USAGE: &str = "\
usage: plan-lint [options]

output:
  --format human|json     report format (default human)
  --out FILE              also write the report to FILE
  --deny-warnings         exit 1 on warnings, not just errors

platform profile (defaults: the paper's IBM Cloud limits):
  --concurrency N         namespace concurrency limit
  --memory-mb N           per-action memory limit
  --exec-secs N           per-invocation execution limit
  --shuffle-budget N      COS op budget for a job's shuffle plane

plan (omit all to lint the built-in canonical suite):
  --label S               plan label
  --tasks N               top-level task count
  --chunk-bytes N         requested partition chunk size
  --max-object-bytes N    largest single input object
  --payload-bytes N       estimated serialized payload per task
  --task-secs F           estimated modeled compute per task
  --nesting-depth N       nested invocation levels below the top tasks
  --nested-fanout N       children per parent at each nested level
  --reducer-fanin N       map outputs consumed by a single reducer
  --retry N               max invocation attempts per task
  --spec-copies N         speculative backup copies per straggler
  --shuffle M:R[:seg]     shuffle shape (maps:partitions)
  --tenant NS:QUOTA       submitting tenant namespace and concurrency quota
";

struct Args {
    format_json: bool,
    out: Option<String>,
    deny_warnings: bool,
    profile: CloudProfile,
    plan: Option<JobPlan>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        format_json: false,
        out: None,
        deny_warnings: false,
        profile: CloudProfile::default(),
        plan: None,
    };
    let mut plan = JobPlan::new("custom", 0);
    let mut plan_touched = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--format" => {
                args.format_json = match value("--format")?.as_str() {
                    "json" => true,
                    "human" => false,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--out" => args.out = Some(value("--out")?),
            "--deny-warnings" => args.deny_warnings = true,
            "--concurrency" => args.profile.concurrency_limit = parse(&value("--concurrency")?)?,
            "--memory-mb" => args.profile.memory_limit_mb = parse(&value("--memory-mb")?)?,
            "--exec-secs" => {
                args.profile.max_exec_time = Duration::from_secs(parse(&value("--exec-secs")?)?);
            }
            "--shuffle-budget" => {
                args.profile.shuffle_op_budget = parse(&value("--shuffle-budget")?)?;
            }
            "--label" => {
                plan.label = value("--label")?;
                plan_touched = true;
            }
            "--tasks" => {
                plan.tasks = parse(&value("--tasks")?)?;
                plan_touched = true;
            }
            "--chunk-bytes" => {
                plan.chunk_size = Some(parse(&value("--chunk-bytes")?)?);
                plan_touched = true;
            }
            "--max-object-bytes" => {
                plan.max_object_bytes = Some(parse(&value("--max-object-bytes")?)?);
                plan_touched = true;
            }
            "--payload-bytes" => {
                plan.est_payload_bytes = Some(parse(&value("--payload-bytes")?)?);
                plan_touched = true;
            }
            "--task-secs" => {
                let secs: f64 = parse(&value("--task-secs")?)?;
                plan.est_task_duration = Some(Duration::from_secs_f64(secs));
                plan_touched = true;
            }
            "--nesting-depth" => {
                plan.nesting_depth = parse(&value("--nesting-depth")?)?;
                plan_touched = true;
            }
            "--nested-fanout" => {
                plan.nested_fanout = parse(&value("--nested-fanout")?)?;
                plan_touched = true;
            }
            "--reducer-fanin" => {
                plan.reducer_fanin = Some(parse(&value("--reducer-fanin")?)?);
                plan_touched = true;
            }
            "--retry" => {
                plan.retry_max_attempts = parse(&value("--retry")?)?;
                plan_touched = true;
            }
            "--spec-copies" => {
                plan.speculative_copies = parse(&value("--spec-copies")?)?;
                plan_touched = true;
            }
            "--shuffle" => {
                plan.shuffle = Some(parse_shuffle(&value("--shuffle")?)?);
                plan_touched = true;
            }
            "--tenant" => {
                let spec = value("--tenant")?;
                let (ns, quota) = spec
                    .split_once(':')
                    .ok_or_else(|| format!("--tenant needs NS:QUOTA, got `{spec}`"))?;
                plan.tenant_namespace = Some(ns.to_owned());
                plan.tenant_quota = Some(parse(quota)?);
                plan_touched = true;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if plan_touched {
        args.plan = Some(plan);
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad numeric value `{s}`"))
}

fn parse_shuffle(spec: &str) -> Result<ShuffleShape, String> {
    let mut parts = spec.split(':');
    let maps = parse(parts.next().unwrap_or_default())?;
    let partitions = parse(
        parts
            .next()
            .ok_or_else(|| format!("--shuffle needs M:R, got `{spec}`"))?,
    )?;
    let mut shape = ShuffleShape {
        maps,
        partitions,
        segmented: false,
        via_relay: false,
    };
    for extra in parts {
        match extra {
            "seg" | "segmented" => shape.segmented = true,
            other => return Err(format!("unknown shuffle modifier `{other}`")),
        }
    }
    Ok(shape)
}

/// The canonical suite: the paper's workload shapes, including the
/// pathological corners every W-rule exists for.
fn builtin_suite() -> Vec<JobPlan> {
    let mut suite = Vec::new();
    // Table 3 tone-map sweep: 1.9 GB over 2..64 MB chunks.
    for (mb, tasks) in [(64u64, 47usize), (16, 129), (2, 923)] {
        let mut plan = JobPlan::new(format!("tone-map@{mb}MB"), tasks);
        plan.chunk_size = Some(mb << 20);
        plan.max_object_bytes = Some(176_406_762);
        plan.partition_bytes = vec![mb << 20; tasks];
        suite.push(plan);
    }
    // Fig 4 mergesort: nested composition, depth 5, fanout 2.
    let mut mergesort = JobPlan::new("mergesort-d5", 1);
    mergesort.nesting_depth = 5;
    mergesort.nested_fanout = 2;
    suite.push(mergesort);
    // CloudSort-style shuffle on the segmented plane.
    let mut cloudsort = JobPlan::new("cloudsort-seg", 400);
    cloudsort.shuffle = Some(ShuffleShape {
        maps: 400,
        partitions: 100,
        segmented: true,
        via_relay: false,
    });
    suite.push(cloudsort);
    // Hyperparameter storm: 2,000-wide map with retries and speculation.
    let mut storm = JobPlan::new("hyperparam-storm", 2_000);
    storm.retry_max_attempts = 3;
    storm.speculative_copies = 1;
    suite.push(storm);
    // Multi-tenant serving wave: a map sized to the global limit but far
    // beyond the submitting tenant's quota (W009).
    let mut wave = JobPlan::new("serving-wave", 64);
    wave.tenant_namespace = Some("acme".to_owned());
    wave.tenant_quota = Some(8);
    suite.push(wave);
    suite
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("plan-lint: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let plans = match args.plan {
        Some(p) => vec![p],
        None => builtin_suite(),
    };
    let findings: Vec<PlanFindings> = plans
        .iter()
        .map(|p| (p.label.clone(), analyze(p, &args.profile)))
        .collect();
    let rendered = if args.format_json {
        report::json(&findings)
    } else {
        report::human(&findings)
    };
    print!("{rendered}");
    if let Some(out) = &args.out {
        let path = std::path::Path::new(out);
        if let Some(parent) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("plan-lint: creating {}: {e}", parent.display());
                return ExitCode::from(2);
            }
        }
        // The artifact is always JSON regardless of the console format.
        let artifact = if args.format_json {
            rendered
        } else {
            report::json(&findings)
        };
        if let Err(e) = std::fs::write(path, artifact) {
            eprintln!("plan-lint: writing {out}: {e}");
            return ExitCode::from(2);
        }
    }
    let failing = findings.iter().flat_map(|(_, d)| d).any(|d| {
        d.severity == Severity::Error || (args.deny_warnings && d.severity == Severity::Warning)
    });
    if failing {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
