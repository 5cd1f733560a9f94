//! End-to-end checks of the `ledger` binary at `--smoke` scale: the record
//! schema is complete, the deterministic clock replays bit-for-bit between
//! two processes, `compare` catches a doctored regression and refuses
//! smoke records, and the root `BENCHMARK.json` lists exactly the metrics
//! the catalog defines.

use std::path::{Path, PathBuf};
use std::process::Command;

use ledger::catalog::{END_TO_END, LAYERS, WORKLOADS, ZERO_PRONE};
use ledger::json::Json;

fn ledger() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ledger"))
}

/// A scratch file under this package's (git-ignored) `target/`, which is
/// also the only place `--smoke` agrees to write.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/ledger-test");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn smoke_all(out: &Path) -> Vec<Json> {
    let run = ledger()
        .args(["--smoke", "--workload", "all", "--trace", "--out"])
        .arg(out)
        .output()
        .expect("start ledger");
    assert!(
        run.status.success(),
        "ledger --smoke --workload all failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    read_records(out)
}

fn read_records(path: &Path) -> Vec<Json> {
    std::fs::read_to_string(path)
        .expect("read records")
        .lines()
        .map(|l| Json::parse(l).expect("a record is one JSON object per line"))
        .collect()
}

fn write_records(path: &Path, records: &[Json]) {
    let text: String = records.iter().map(|r| r.render() + "\n").collect();
    std::fs::write(path, text).expect("write records");
}

/// Replaces `record[path...]`, which must exist.
fn set(record: &mut Json, path: &[&str], value: Json) {
    let Json::Obj(pairs) = record else {
        panic!("{path:?}: not an object");
    };
    let slot = pairs
        .iter_mut()
        .find(|(k, _)| k == path[0])
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no field `{}`", path[0]));
    match &path[1..] {
        [] => *slot = value,
        rest => set(slot, rest, value),
    }
}

fn num(record: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(record, |at, key| at.get(key))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no number at {path:?}"))
}

#[test]
fn smoke_runs_are_complete_replayable_and_comparable() {
    let (path_1, path_2) = (scratch("run1.jsonl"), scratch("run2.jsonl"));
    let (first, second) = (smoke_all(&path_1), smoke_all(&path_2));

    // Schema: five records, every end-to-end and per-layer name on each.
    for records in [&first, &second] {
        let names: Vec<&str> = records
            .iter()
            .map(|r| r.get("workload").and_then(Json::as_str).expect("workload"))
            .collect();
        assert_eq!(names, WORKLOADS);
    }
    for r in &first {
        let workload = r.get("workload").and_then(Json::as_str).expect("workload");
        assert_eq!(r.get("smoke"), Some(&Json::Bool(true)), "{workload}");
        assert_eq!(num(r, &["seed"]), 42.0, "{workload}");
        assert!(num(r, &["iterations"]) >= 2.0, "{workload}");
        for (section, names) in [
            ("e2e", END_TO_END.iter().map(|m| m.def).collect::<Vec<_>>()),
            ("layers", LAYERS.to_vec()),
        ] {
            let present = r.get(section).and_then(Json::as_obj).expect(section);
            assert_eq!(present.len(), names.len(), "{workload}.{section}");
            for def in names {
                let m = r.get(section).and_then(|s| s.get(def.name));
                let m = m.unwrap_or_else(|| panic!("{workload}: no {section} `{}`", def.name));
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{}",
                    def.name
                );
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
                assert_eq!(
                    m.get("clock").and_then(Json::as_str),
                    Some(def.clock.as_str())
                );
            }
        }
        for never_zero in [
            "setup_s",
            "wall_s",
            "peak_rss_mb",
            "virtual_s",
            "billed_gb_s",
        ] {
            assert!(
                num(r, &["e2e", never_zero, "value"]) > 0.0,
                "{workload}.{never_zero}"
            );
        }
        assert_eq!(num(r, &["e2e", "failed_share", "value"]), 0.0, "{workload}");
        assert_eq!(num(r, &["layers", "bench.replay_identical", "value"]), 1.0);
        let spans = r.get("spans").and_then(Json::as_arr).expect("spans");
        let named = |n: &str| {
            spans
                .iter()
                .any(|s| s.get("name").and_then(Json::as_str) == Some(n))
        };
        assert!(named("SimCloud::builder().build") && named("SimCloud::run") && named("verify"));
        assert_eq!(
            named("get_result"),
            workload != "serving_burst",
            "{workload}"
        );
        assert_eq!(
            named("invoke_in"),
            workload == "serving_burst",
            "{workload}"
        );
    }
    // The bypass workload really bypasses the store.
    assert_eq!(num(&first[2], &["e2e", "cos_ops", "value"]), 0.0);
    assert!(num(&first[1], &["e2e", "cos_ops", "value"]) > 0.0);

    // Two processes, one seed: every virtual and count metric agrees to
    // the bit.
    for (a, b) in first.iter().zip(&second) {
        for section in ["e2e", "layers"] {
            for (name, m) in a.get(section).and_then(Json::as_obj).expect(section) {
                if m.get("clock").and_then(Json::as_str) == Some("host") {
                    continue;
                }
                let (va, vb) = (
                    num(a, &[section, name, "value"]),
                    num(b, &[section, name, "value"]),
                );
                assert_eq!(va.to_bits(), vb.to_bits(), "{name}: {va} vs {vb}");
            }
        }
    }

    // `compare` refuses smoke records outright.
    let refused = ledger()
        .arg("compare")
        .args([&path_1, &path_2])
        .output()
        .expect("start ledger compare");
    assert_eq!(refused.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("--smoke"));

    // Passed off as full-scale records, a run agrees with itself, and a
    // hand-doctored +20% `wall_s` on one workload is flagged.
    let mut base = first.clone();
    for r in &mut base {
        set(r, &["smoke"], Json::Bool(false));
    }
    let mut doctored = base.clone();
    let wall = num(&doctored[3], &["e2e", "wall_s", "value"]);
    set(
        &mut doctored[3],
        &["e2e", "wall_s", "value"],
        Json::Num(wall * 1.2),
    );
    let (path_a, path_b) = (scratch("base.jsonl"), scratch("doctored.jsonl"));
    write_records(&path_a, &base);
    write_records(&path_b, &doctored);

    let same = ledger()
        .arg("compare")
        .args([&path_a, &path_a])
        .output()
        .expect("start ledger compare");
    let table = String::from_utf8_lossy(&same.stdout).into_owned();
    assert_eq!(same.status.code(), Some(0), "{table}");
    assert!(!table.contains("worse"), "{table}");

    let worse = ledger()
        .arg("compare")
        .args([&path_a, &path_b])
        .output()
        .expect("start ledger compare");
    let table = String::from_utf8_lossy(&worse.stdout).into_owned();
    assert_eq!(worse.status.code(), Some(1), "{table}");
    let flagged: Vec<&str> = table.lines().filter(|l| l.contains("worse")).collect();
    assert_eq!(flagged.len(), 1, "{table}");
    assert!(flagged[0].contains("airbnb_tone") && flagged[0].contains("wall_s"));

    // A virtual metric is exact: the smallest increase is a regression.
    let mut drifted = base.clone();
    let v = num(&drifted[0], &["e2e", "virtual_s", "value"]);
    set(
        &mut drifted[0],
        &["e2e", "virtual_s", "value"],
        Json::Num(v + 1e-9),
    );
    write_records(&path_b, &drifted);
    let exact = ledger()
        .arg("compare")
        .args([&path_a, &path_b])
        .output()
        .expect("start ledger compare");
    assert_eq!(exact.status.code(), Some(1));
}

#[test]
fn smoke_refuses_to_write_outside_target() {
    let run = ledger()
        .args([
            "--smoke",
            "--workload",
            "map_fanout",
            "--out",
            "BENCH_ledger.jsonl",
        ])
        .output()
        .expect("start ledger");
    assert_eq!(run.status.code(), Some(2));
    assert!(!Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("BENCH_ledger.jsonl")
        .exists());
}

#[test]
fn the_last_stdout_line_is_the_contract_object() {
    for (trace, listed) in [
        ("0", END_TO_END.len() - ZERO_PRONE.len()),
        ("1", LAYERS.len() + ZERO_PRONE.len()),
    ] {
        let run = ledger()
            .args([
                "--smoke",
                "--workload",
                "mergesort_compose",
                "--seed",
                "7",
                "--seconds",
                "1",
            ])
            .args(["--trace", trace])
            .output()
            .expect("start ledger");
        assert!(run.status.success());
        let stdout = String::from_utf8_lossy(&run.stdout).into_owned();
        let result = Json::parse(stdout.lines().last().expect("output")).expect("result line");
        let keys: Vec<&str> = result
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert!(num(&result, &["attempted"]) >= 1.0);
        assert_eq!(num(&result, &["failed"]), 0.0);
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics");
        assert_eq!(metrics.len(), listed, "--trace {trace}");
    }
}

/// `BENCHMARK.json` at the repository root is what the benchmark driver
/// reads; it must name exactly what the catalog defines.
#[test]
fn benchmark_json_matches_the_catalog() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../..");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = spec
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let list = |key: &str| spec.get(key).and_then(Json::as_arr).expect("array");
    let pairs = |key: &str| -> Vec<(String, String)> {
        list(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect("string").to_owned();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |defs: Vec<ledger::catalog::MetricDef>| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned()))
            .collect()
    };
    let (zero_prone, bounded): (Vec<_>, Vec<_>) = END_TO_END
        .iter()
        .map(|m| m.def)
        .partition(|d| ZERO_PRONE.contains(&d.name));
    assert_eq!(pairs("end_to_end"), own(bounded));
    assert_eq!(
        pairs("per_layer"),
        own(zero_prone.into_iter().chain(LAYERS).collect())
    );
    for m in list("end_to_end") {
        assert_eq!(m.get("better").and_then(Json::as_str), Some("lower"));
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let workloads: Vec<&str> = list("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    // The one directory the benchmark lives in is this package's.
    let paths: Vec<&str> = list("paths").iter().filter_map(Json::as_str).collect();
    assert_eq!(paths, ["crates/bench/benches/ledger"]);
    assert!(root.join(paths[0]).join("Cargo.toml").exists());
    assert!(list("command")
        .iter()
        .any(|a| a.as_str() == Some("crates/bench/benches/ledger/Cargo.toml")));
}
