//! Smoke tests: every paper experiment runs end to end at smoke scale in
//! process, `reproduce all --smoke` runs as a process, and both binaries
//! reject bad arguments. (The ablations have no smoke scale, and the
//! serving gates at smoke scale run in the root package's
//! `tests/reproduce.rs`.)

use std::process::{Command, Output};

use rustwren_bench::{paper, BenchArgs};

fn smoke() -> BenchArgs {
    BenchArgs {
        smoke: true,
        seed: 42,
    }
}

#[test]
fn sec51_smoke() {
    let sec51 = paper::sec51(smoke());
    assert_eq!(sec51.0.len(), paper::SEC51_PAPER.len());
    for s in &sec51.0 {
        assert_eq!((s.tasks, s.peak()), (60, 60));
        assert!(s.invocation < s.total);
    }
    assert!(sec51
        .to_string()
        .contains("WAN client, invoker groups of 100"));
}

#[test]
fn fig2_smoke() {
    let fig = paper::fig2(smoke());
    // At 60 tasks one invoker is no faster than the client: only the
    // full-scale shape (tests/reproduce.rs) compares the phases.
    let peaks: Vec<usize> = fig.0.iter().map(|s| s.peak()).collect();
    assert_eq!(peaks, [60, 60]);
    assert!(fig.to_string().contains('#'), "concurrency chart missing");
}

#[test]
fn fig3_smoke() {
    let fig = paper::fig3(smoke());
    let targets: Vec<(usize, usize)> = fig.0.iter().map(|s| (s.tasks, s.peak())).collect();
    assert_eq!(targets, [(30, 30), (60, 60)]);
    assert!(!fig.to_string().contains("NO ("));
}

#[test]
fn fig4_smoke() {
    let fig = paper::fig4(smoke());
    assert_eq!(fig.times.len(), 2);
    assert!(fig.times.iter().all(|row| row.len() == 3));
    assert!(fig.to_string().contains("best depth at N=50K"));
}

#[test]
fn fig5_smoke() {
    let fig = paper::fig5(smoke());
    assert_eq!(fig.0.len(), 1);
    let ny = &fig.0[0];
    assert_eq!(ny.svg_path().to_str(), Some("target/fig5/new-york.svg"));
    assert!(ny.svg.starts_with("<svg"));
    assert!(ny.positive + ny.neutral + ny.negative > 0);
}

#[test]
fn table3_smoke() {
    let table = paper::table3(smoke());
    let executors: Vec<(u64, usize)> = table
        .rows
        .iter()
        .map(|r| (r.chunk_mb, r.executors))
        .collect();
    assert_eq!(executors, [(64, 47), (16, 129)]);
    assert!(table.speedup(&table.rows[0]) < table.speedup(&table.rows[1]));
}

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce")
}

#[test]
fn reproduce_all_smoke_prints_every_experiment() {
    let output = reproduce(&["all", "--smoke"]);
    let out = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "reproduce all --smoke failed:\n{out}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    for header in [
        "== §5.1",
        "== Fig 2",
        "== Fig 3",
        "== Fig 4",
        "== Fig 5",
        "== Table 3",
        "== Ablations",
        "== Multi-tenant serving",
    ] {
        assert!(out.contains(header), "`{header}` missing:\n{out}");
    }
    assert!(std::path::Path::new("target/fig5/new-york.svg").exists());
}

#[test]
fn reproduce_rejects_bad_arguments() {
    for args in [
        &[][..],
        &["fig9"],
        &["sec51", "--bogus"],
        &["sec51", "--seed"],
        &["sec51", "--seed", "x"],
    ] {
        let output = reproduce(args);
        assert_eq!(output.status.code(), Some(2), "reproduce {args:?}");
        assert!(output.stdout.is_empty(), "reproduce {args:?} ran");
        assert!(String::from_utf8_lossy(&output.stderr).starts_with("usage: reproduce"));
    }
}

#[test]
fn demo_runs_every_scenario() {
    for scenario in ["map", "shuffle", "pi", "sort"] {
        let output = Command::new(env!("CARGO_BIN_EXE_demo"))
            .args([scenario, "--tasks", "12", "--network", "lan"])
            .output()
            .expect("spawn demo");
        assert!(
            output.status.success(),
            "demo {scenario} failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let out = String::from_utf8_lossy(&output.stdout);
        assert!(out.contains("virtual time:"), "demo {scenario}:\n{out}");
    }
}

#[test]
fn demo_rejects_bad_flags() {
    let output = Command::new(env!("CARGO_BIN_EXE_demo"))
        .args(["map", "--bogus"])
        .output()
        .expect("spawn demo");
    assert!(!output.status.success());
}
