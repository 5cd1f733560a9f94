//! Planted-violation fixture corpus: one minimal bad snippet per rule
//! L001–L005 asserting the rule fires, a suppressed twin asserting
//! `// lint: allow(…)` silences it, and end-to-end ratchet behavior and
//! L012's tree-wide name search over synthetic workspaces in a temp
//! directory.

use std::fs;
use std::path::{Path, PathBuf};

use rustwren_lint::lexer::scan_source;
use rustwren_lint::rules::check_file;
use rustwren_lint::runner::{run, update_baseline, Options};
use rustwren_lint::{baseline, Rule};

/// `(rule, path-in-scope, bad snippet, suppressed twin)` — the corpus for
/// the per-file rules.
fn corpus() -> Vec<(Rule, &'static str, &'static str, &'static str)> {
    vec![
        (
            Rule::L001,
            "crates/core/src/planted.rs",
            "fn f() { let t = Instant::now(); }\n",
            "fn f() { let t = Instant::now(); } // lint: allow(L001) — fixture\n",
        ),
        (
            Rule::L002,
            "crates/core/src/planted.rs",
            "fn f() { std::thread::sleep(d); }\n",
            "fn f() { std::thread::sleep(d); } // lint: allow(L002) — fixture\n",
        ),
        (
            Rule::L003,
            "crates/core/src/planted.rs",
            "struct S { m: HashMap<String, u32> }\n\
             fn f(s: &S) -> Vec<u32> { s.m.values().cloned().collect() }\n",
            "struct S { m: HashMap<String, u32> }\n\
             // lint: allow(L003) — fixture\n\
             fn f(s: &S) -> Vec<u32> { s.m.values().cloned().collect() }\n",
        ),
        (
            Rule::L004,
            "crates/core/src/planted.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint: allow(L004) — fixture\n",
        ),
        (
            Rule::L005,
            "crates/core/src/planted.rs",
            "fn f() { println!(\"hi\"); }\n",
            "fn f() { println!(\"hi\"); } // lint: allow(L005) — fixture\n",
        ),
    ]
}

#[test]
fn every_per_file_rule_fires_on_its_planted_snippet() {
    for (rule, path, bad, _) in corpus() {
        let scan = scan_source(path, bad);
        let hits: Vec<_> = check_file(&scan)
            .into_iter()
            .filter(|v| v.rule == rule)
            .collect();
        assert!(!hits.is_empty(), "{rule} did not fire on its fixture");
        for v in &hits {
            assert!(
                !scan.is_suppressed(v.rule, v.line),
                "{rule} fixture should not be suppressed"
            );
        }
    }
}

#[test]
fn every_suppressed_twin_is_silenced() {
    for (rule, path, _, twin) in corpus() {
        let scan = scan_source(path, twin);
        assert!(
            scan.suppression_errors.is_empty(),
            "{rule} twin has suppression errors: {:?}",
            scan.suppression_errors
        );
        let hits: Vec<_> = check_file(&scan)
            .into_iter()
            .filter(|v| v.rule == rule)
            .collect();
        assert!(!hits.is_empty(), "{rule} twin should still detect the site");
        for v in hits {
            assert!(
                scan.is_suppressed(v.rule, v.line),
                "{rule} twin not suppressed at line {}",
                v.line
            );
        }
    }
}

#[test]
fn stray_spawn_inside_the_sim_crate_is_caught() {
    // `kernel.rs` is the only sanctioned OS-thread spawn site; a stray
    // `thread::spawn` planted in any sibling module must fire L002.
    let bad = "fn f() { thread::spawn(move || poll()); }\n";
    for path in [
        "crates/sim/src/chaos.rs",
        "crates/sim/src/sync/channel.rs",
        "crates/sim/src/lib.rs",
    ] {
        let hits: Vec<_> = check_file(&scan_source(path, bad))
            .into_iter()
            .filter(|v| v.rule == Rule::L002)
            .collect();
        assert_eq!(hits.len(), 1, "stray spawn in {path} not caught");
    }
    assert!(
        check_file(&scan_source("crates/sim/src/kernel.rs", bad))
            .iter()
            .all(|v| v.rule != Rule::L002),
        "the kernel spawn site itself stays exempt"
    );
}

#[test]
fn unknown_rule_suppression_is_itself_an_error() {
    let scan = scan_source(
        "crates/core/src/planted.rs",
        "fn f() {} // lint: allow(L999) — no such rule\n",
    );
    assert_eq!(scan.suppression_errors.len(), 1);
    assert!(scan.suppression_errors[0].contains("unknown rule"));
}

#[test]
fn reasonless_suppression_is_an_error() {
    let scan = scan_source(
        "crates/core/src/planted.rs",
        "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint: allow(L004)\n",
    );
    assert_eq!(scan.suppression_errors.len(), 1);
    assert!(scan.suppression_errors[0].contains("no reason"));
}

// ---------------------------------------------------------------------------
// End-to-end ratchet behavior over a synthetic workspace
// ---------------------------------------------------------------------------

/// Creates an empty synthetic workspace under the temp dir.
fn workspace(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rustwren-lint-fixture-{}-{name}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("crates/core/src")).expect("mkdir");
    dir
}

fn plant(root: &Path, rel: &str, src: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    fs::write(path, src).expect("write fixture");
}

#[test]
fn planted_violation_fails_check_and_baseline_absorbs_it() {
    let root = workspace("ratchet");
    plant(
        &root,
        "crates/core/src/planted.rs",
        "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    let opts = Options::new(&root);

    // No baseline: the planted violation is new.
    let outcome = run(&opts);
    assert!(!outcome.clean());
    assert_eq!(outcome.new_violations.len(), 1);
    assert_eq!(outcome.new_violations[0].rule, Rule::L004);

    // Ratcheting the baseline to the current counts makes the tree clean…
    let text = update_baseline(&opts, &outcome).expect("update");
    assert!(text.contains("[baseline.L004]"));
    assert!(text.contains("\"crates/core/src/planted.rs\" = 1"));
    let outcome = run(&opts);
    assert!(outcome.clean(), "{:?}", outcome.new_violations);
    assert_eq!(outcome.baselined, 1);

    // …a second violation in the same file overflows the baseline…
    plant(
        &root,
        "crates/core/src/planted.rs",
        "fn f(x: Option<u32>) -> u32 { x.unwrap() }\nfn g(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    let outcome = run(&opts);
    assert!(!outcome.clean());
    assert_eq!(outcome.new_violations.len(), 1);
    assert_eq!(outcome.baselined, 1);

    // …and fixing both makes the baseline stale: clean, with a ratchet
    // improvement prompting --update-baseline.
    plant(
        &root,
        "crates/core/src/planted.rs",
        "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n",
    );
    let outcome = run(&opts);
    assert!(outcome.clean());
    assert_eq!(outcome.improvements.len(), 1);
    assert!(outcome.improvements[0].contains("--update-baseline"));

    // --update-baseline after the fix drops the entry entirely.
    let text = update_baseline(&opts, &outcome).expect("update");
    assert!(!text.contains("[baseline.L004]"));
    let cfg = baseline::parse(&text).expect("canonical output parses");
    assert!(cfg.baseline.is_empty());

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn allow_entries_and_inline_suppressions_keep_the_tree_clean() {
    let root = workspace("allow");
    plant(
        &root,
        "crates/core/src/planted.rs",
        "fn f() { let t = Instant::now(); }\n\
         fn g(x: Option<u32>) -> u32 { x.unwrap() } // lint: allow(L004) — fixture\n",
    );
    plant(
        &root,
        "lint.toml",
        "[allow.L001]\n\"crates/core/src/planted.rs\" = \"fixture wall clock\"\n",
    );
    let outcome = run(&Options::new(&root));
    assert!(outcome.clean(), "{:?}", outcome.new_violations);
    assert_eq!(outcome.allowed, 1);
    assert_eq!(outcome.suppressed, 1);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn suppression_ratchet_fails_above_its_count_and_update_lowers_it() {
    let root = workspace("suppressions");
    let unwrap = "fn g(x: Option<u32>) -> u32 { x.unwrap() } // lint: allow(L004) — fixture\n";
    plant(
        &root,
        "crates/core/src/planted.rs",
        &format!("{unwrap}{}", unwrap.replace("fn g", "fn h")),
    );
    // Neither the linter's own tree nor the shims count.
    plant(&root, "crates/lint/src/rules.rs", unwrap);
    plant(&root, "shims/bytes/src/lib.rs", unwrap);
    let opts = Options::new(&root);

    plant(&root, "lint.toml", "[ratchet]\nsuppressions = 1\n");
    let outcome = run(&opts);
    assert_eq!(outcome.inline_suppressions, 2);
    assert!(!outcome.clean(), "2 suppressions above a ratchet of 1");
    assert!(
        outcome
            .errors
            .iter()
            .any(|e| e.contains("above the ratchet of 1")),
        "{:?}",
        outcome.errors
    );

    // Paying one down below the recorded count is clean, and prompts a
    // tighter ratchet…
    plant(&root, "lint.toml", "[ratchet]\nsuppressions = 3\n");
    let outcome = run(&opts);
    assert!(outcome.clean(), "{:?}", outcome.errors);
    assert_eq!(outcome.improvements.len(), 1, "{:?}", outcome.improvements);
    // …which --update-baseline records; it never raises the count.
    let text = update_baseline(&opts, &outcome).expect("update");
    assert!(text.contains("[ratchet]\nsuppressions = 2\n"), "{text}");
    assert_eq!(
        baseline::parse(&text).expect("parses").suppressions,
        Some(2)
    );
    let outcome = run(&opts);
    assert!(outcome.clean() && outcome.improvements.is_empty());
    plant(
        &root,
        "crates/core/src/planted.rs",
        &format!("{unwrap}{unwrap}{unwrap}").replacen("fn g", "fn h", 1),
    );
    let text = update_baseline(&opts, &run(&opts)).expect("update");
    assert!(text.contains("suppressions = 2\n"), "{text}");
    assert!(!run(&opts).clean());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn malformed_baseline_is_a_hard_error() {
    let root = workspace("badtoml");
    plant(&root, "crates/core/src/ok.rs", "fn f() {}\n");
    plant(&root, "lint.toml", "[allow.L404]\n\"x.rs\" = \"nope\"\n");
    let outcome = run(&Options::new(&root));
    assert!(!outcome.clean());
    assert!(outcome.errors[0].contains("unknown rule"));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn l012_fires_on_pub_fns_nothing_but_their_own_unit_tests_name() {
    let root = workspace("l012");
    plant(
        &root,
        "crates/core/src/lib.rs",
        "pub fn orphan() {}\n\
         pub fn tested_only() {}\n\
         pub fn called_from_tests_dir() {}\n\
         pub fn called_from_the_ledger() {}\n\
         pub(crate) fn crate_private() {}\n\
         #[cfg(test)]\n\
         mod tests {\n    #[test]\n    fn t() { super::tested_only(); }\n}\n",
    );
    plant(
        &root,
        "crates/store/tests/it.rs",
        "#[test]\nfn t() { rustwren_core::called_from_tests_dir(); }\n",
    );
    plant(
        &root,
        "crates/bench/benches/ledger/src/main.rs",
        "fn main() { rustwren_core::called_from_the_ledger(); }\n",
    );
    // A name in a comment or a string is no use; a binary's `pub fn` is
    // rustc's to find.
    plant(
        &root,
        "crates/bench/src/bin/tool.rs",
        "// orphan()\npub fn helper() -> &'static str { \"tested_only\" }\nfn main() {}\n",
    );
    let outcome = run(&Options::new(&root));
    let hits: Vec<(&str, usize)> = outcome
        .new_violations
        .iter()
        .filter(|v| v.rule == Rule::L012)
        .map(|v| (v.file.as_str(), v.line))
        .collect();
    assert_eq!(
        hits,
        [("crates/core/src/lib.rs", 1), ("crates/core/src/lib.rs", 2)]
    );
    let _ = fs::remove_dir_all(&root);
}
