//! `ledger` — one two-clock benchmark for the rustwren simulator.
//!
//! Five named workloads, ten end-to-end metrics on two clocks (host wall
//! time and memory; virtual time, counts and cost), and — in a separate
//! traced iteration — spans around the harness's own calls into each layer
//! plus layer probes, so a later change can say which layer it moved and
//! which workloads must stay flat. See `BENCHMARK.md` beside this crate.
//!
//! ```text
//! ledger --workload <name>|all [--seed N] [--seconds S] [--trace [0|1]]
//!        [--smoke] [--out FILE]
//! ledger compare A.jsonl B.jsonl
//! ```
//!
//! Every run verifies its outputs and prints every metric by name and
//! unit; the last line of standard output is the result object of the
//! benchmark contract (`BENCHMARK.json` at the repository root). `--out`
//! appends the full record, one JSON object per line.

use std::io::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

use ledger::catalog::WORKLOADS;
use ledger::run::{self, Host, RunOpts};
use ledger::workloads::Workload;
use ledger::{compare, host};

const USAGE: &str = "usage: ledger --workload <name>|all [--seed N] [--seconds S] \
[--trace [0|1]] [--smoke] [--out FILE]\n       ledger compare A.jsonl B.jsonl\n\
workloads: map_fanout cloudsort serving_burst airbnb_tone mergesort_compose";

/// Exit code for a failed run or a `worse` verdict.
const FAILED: u8 = 1;
/// Exit code for a command line or input file the ledger refuses.
const REFUSED: u8 = 2;

struct Args {
    workload: String,
    opts: RunOpts,
    out: Option<String>,
}

fn parse(args: &[String], host: Host) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        opts: RunOpts {
            seed: 42,
            smoke: false,
            trace: false,
            // `run_seconds` of BENCHMARK.json.
            seconds: 15.0,
            host,
        },
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = value("--workload")?,
            "--seed" => {
                parsed.opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer".to_owned())?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_owned())?;
                if !(0.0..=3_600.0).contains(&s) {
                    return Err("--seconds must be between 0 and 3600".to_owned());
                }
                parsed.opts.seconds = s;
            }
            "--out" => parsed.out = Some(value("--out")?),
            "--smoke" => parsed.opts.smoke = true,
            // A bare `--trace` turns tracing on; the benchmark driver
            // always passes `--trace 0` or `--trace 1`.
            "--trace" => {
                parsed.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload `{}` is not one of the five",
            parsed.workload
        ));
    }
    if let (true, Some(out)) = (parsed.opts.smoke, &parsed.out) {
        // A smoke record must never land on a committed results file.
        if !Path::new(out)
            .components()
            .any(|c| c.as_os_str() == "target")
        {
            return Err(format!("--smoke writes only under target/; `{out}` is not"));
        }
    }
    Ok(parsed)
}

fn append(path: &str, line: &str) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{path}: {e}");
    if let Some(dir) = Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(io)?;
    writeln!(file, "{line}").map_err(io)?;
    file.flush().map_err(io)
}

fn run_one(args: &Args) -> Result<(), String> {
    let w = Workload::new(&args.workload, args.opts.seed, args.opts.smoke)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let record = run::run_workload(&w, &args.opts)?;
    record.print();
    if let Some(out) = &args.out {
        append(out, &record.to_json().render())?;
    }
    println!("{}", record.contract_line());
    Ok(())
}

/// `--workload all`: one child process per workload, so each one's
/// `peak_rss_mb` is its own and not the high-water mark of those before.
fn run_all(raw: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let at = raw
        .iter()
        .position(|a| a == "--workload")
        .expect("parsed above")
        + 1;
    for name in WORKLOADS {
        let mut child_args = raw.to_vec();
        child_args[at] = name.to_owned();
        let status = Command::new(&exe)
            .args(&child_args)
            .status()
            .map_err(|e| format!("cannot start the {name} run: {e}"))?;
        if !status.success() {
            return Err(format!("the {name} run failed ({status})"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = raw.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(REFUSED);
        };
        return match compare::compare(a, b) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(FAILED),
            Err(e) => {
                eprintln!("ledger compare: {e}");
                ExitCode::from(REFUSED)
            }
        };
    }
    // Before anything spawns a thread: children and simulated threads
    // inherit the CPU mask, and malloc's arena limit must precede them.
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let unsteady = |e: String| eprintln!("ledger: host metrics will be noisy: {e}");
    let host = Host {
        nproc,
        pinned_cpu: host::pin_to_one_cpu().map_err(unsteady).ok(),
        single_arena: host::single_malloc_arena().map_err(unsteady).is_ok(),
    };
    // The seed is the only input: these two variables would otherwise
    // reach the kernel's scheduler and the executor's analyzer mode.
    std::env::remove_var("RUSTWREN_SCHEDULE");
    std::env::remove_var("RUSTWREN_ANALYZE");
    let args = match parse(&raw, host) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(REFUSED);
        }
    };
    let result = if args.workload == "all" {
        run_all(&raw)
    } else {
        run_one(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(FAILED)
        }
    }
}
