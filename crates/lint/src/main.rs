//! `rustwren-lint` CLI.
//!
//! ```text
//! rustwren-lint [--root DIR] [--check] [--format human|json] [--out FILE]
//!               [--baseline FILE] [--lock-report FILE] [--update-baseline]
//!               [--graph-out FILE] [--explain Lxxx]
//! ```
//!
//! Exit codes: 0 clean, 1 new violations or suppression/baseline errors
//! (only under `--check`), 2 usage or I/O failure.

use std::path::PathBuf;
use std::process::ExitCode;

use rustwren_lint::runner::{run, update_baseline, Options};
use rustwren_lint::{report, Rule};

struct Args {
    options: Options,
    check: bool,
    format_json: bool,
    out: Option<PathBuf>,
    update: bool,
    graph_out: Option<PathBuf>,
}

fn usage() -> String {
    let rules: Vec<String> = Rule::ALL
        .iter()
        .map(|r| format!("  {r}  {}", r.description()))
        .collect();
    format!(
        "rustwren-lint — workspace sim-safety & determinism linter\n\n\
         USAGE: rustwren-lint [--root DIR] [--check] [--format human|json]\n\
                [--out FILE] [--baseline FILE] [--lock-report FILE]\n\
                [--update-baseline] [--graph-out FILE] [--explain Lxxx]\n\n\
         --root DIR          workspace root (default: nearest dir with lint.toml\n\
                             or Cargo.toml, walking up from the cwd)\n\
         --check             exit 1 on any violation above the ratchet baseline\n\
         --format human|json stdout format (default human)\n\
         --out FILE          additionally write the JSON report to FILE\n\
         --baseline FILE     baseline path (default lint.toml)\n\
         --lock-report FILE  L007/L011 dynamic lock-exercise report\n\
                             (default target/verify/lock-exercise.txt)\n\
         --update-baseline   rewrite the baseline to the current counts\n\
         --graph-out FILE    write the workspace call graph as JSON\n\
         --explain Lxxx      print the rule's long-form documentation and exit\n\n\
         RULES:\n{}\n",
        rules.join("\n")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut root: Option<PathBuf> = None;
    let mut check = false;
    let mut format_json = false;
    let mut out = None;
    let mut update = false;
    let mut baseline: Option<PathBuf> = None;
    let mut lock_report: Option<PathBuf> = None;
    let mut graph_out: Option<PathBuf> = None;

    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        let mut value = |flag: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} needs a value\n\n{}", usage()))
        };
        match a.as_str() {
            "--root" => root = Some(PathBuf::from(value("--root")?)),
            "--check" => check = true,
            "--format" => {
                format_json = match value("--format")?.as_str() {
                    "json" => true,
                    "human" => false,
                    other => return Err(format!("unknown format `{other}`")),
                }
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--baseline" => baseline = Some(PathBuf::from(value("--baseline")?)),
            "--lock-report" => lock_report = Some(PathBuf::from(value("--lock-report")?)),
            "--update-baseline" => update = true,
            "--graph-out" => graph_out = Some(PathBuf::from(value("--graph-out")?)),
            "--explain" => {
                let id = value("--explain")?;
                if id == "L006" {
                    println!(
                        "L006 — unbounded channel construction: retired in PR 15, when \
                         the sim kernel's channels were deleted. The number stays reserved."
                    );
                    std::process::exit(0);
                }
                let Some(rule) = Rule::parse(&id) else {
                    return Err(format!(
                        "unknown rule `{id}` (valid: {})",
                        Rule::ALL
                            .iter()
                            .map(Rule::as_str)
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                };
                println!("{}", rule.explain());
                std::process::exit(0);
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag `{other}`\n\n{}", usage())),
        }
    }

    let root = root.unwrap_or_else(find_root);
    let mut options = Options::new(root);
    if let Some(b) = baseline {
        options.baseline_path = b;
    }
    if let Some(l) = lock_report {
        options.lock_report_path = l;
    }
    Ok(Args {
        options,
        check,
        format_json,
        out,
        update,
        graph_out,
    })
}

/// Nearest ancestor of the cwd holding `lint.toml` (preferred) or a
/// workspace `Cargo.toml`; falls back to the cwd itself.
fn find_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = cwd.clone();
    loop {
        if dir.join("lint.toml").is_file() {
            return dir;
        }
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return dir;
        }
        match dir.parent() {
            Some(p) => dir = p.to_owned(),
            None => return cwd,
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let outcome = run(&args.options);

    if args.update {
        if let Err(e) = update_baseline(&args.options, &outcome) {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
        println!("baseline updated: {}", args.options.baseline_path.display());
    }

    if args.format_json {
        print!("{}", report::json(&outcome));
    } else {
        print!("{}", report::human(&outcome));
    }
    if let Some(path) = &args.out {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(path, report::json(&outcome)) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &args.graph_out {
        let Some(graph) = &outcome.graph else {
            eprintln!("error: no call graph was built");
            return ExitCode::from(2);
        };
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(path, graph.to_json()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if args.check && !outcome.clean() && !args.update {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
