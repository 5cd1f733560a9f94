//! `reproduce` — prints the paper's evaluation, one experiment or all.
//!
//! ```text
//! cargo run --release -p rustwren-bench --bin reproduce -- <experiment> [--smoke] [--seed N]
//!
//! experiments:
//!   sec51      §5.1 invocation-time table
//!   fig2       local invocation vs massive function spawning
//!   fig3       elasticity at 500..2,000 concurrent invocations
//!   fig4       mergesort time by N and function-tree depth
//!   fig5       tone maps, written as SVGs under target/fig5/
//!   table3     Airbnb tone-analysis MapReduce
//!   ablations  virtual time per design choice (fixed seeds)
//!   serving    keep-alive A/B and noisy-neighbor fairness, gated
//!   all        every experiment above, in order
//!
//! flags:
//!   --smoke    reduced-scale variant
//!   --seed N   deterministic seed (default 42)
//! ```
//!
//! Exits 2 on a bad argument, and 1 when a serving gate fails.

use rustwren_bench::{paper, BenchArgs};

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &str = "sec51|fig2|fig3|fig4|fig5|table3|ablations|serving";

fn usage() -> ! {
    eprintln!("usage: reproduce <{EXPERIMENTS}|all> [--smoke] [--seed N]");
    std::process::exit(2);
}

/// Prints one experiment; `false` when one of its gates failed.
fn reproduce(experiment: &str, args: BenchArgs) -> bool {
    match experiment {
        "sec51" => print!("{}", paper::sec51(args)),
        "fig2" => print!("{}", paper::fig2(args)),
        "fig3" => print!("{}", paper::fig3(args)),
        "fig4" => print!("{}", paper::fig4(args)),
        "fig5" => {
            let maps = paper::fig5(args);
            maps.write_svgs().expect("writing the tone maps");
            print!("{maps}");
        }
        "table3" => print!("{}", paper::table3(args)),
        "ablations" => print!("{}", paper::ablations()),
        "serving" => {
            let report = paper::serving(args);
            print!("{report}");
            let failures = report.gate_failures();
            for failure in &failures {
                eprintln!("serving gate failed: {failure}");
            }
            return failures.is_empty();
        }
        _ => unreachable!("experiment names are checked before running"),
    }
    true
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let experiments: Vec<&str> = match argv.next() {
        Some(name) if name == "all" => EXPERIMENTS.split('|').collect(),
        Some(name) => match EXPERIMENTS.split('|').find(|e| *e == name) {
            Some(e) => vec![e],
            None => usage(),
        },
        None => usage(),
    };
    let mut args = BenchArgs::default();
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--seed" => {
                args.seed = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }
    let mut gates_held = true;
    for (i, experiment) in experiments.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        gates_held &= reproduce(experiment, args);
    }
    if !gates_held {
        std::process::exit(1);
    }
}
