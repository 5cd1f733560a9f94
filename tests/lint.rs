//! rustwren-lint's workspace pass under `cargo test`: the same run as
//! `rustwren-lint --check`, so a new finding (a panicking index on a light
//! path, L009, say) or one inline `lint: allow` past `lint.toml`'s
//! suppression ratchet fails the test suite and not only CI's lint job.
//!
//! The dynamic cross-checks (L007's lock inventory, L011's lock orders)
//! read the model checker's lock-exercise export, which `tests/verify.rs`
//! writes and CI's lint job produces before it lints. This test runs the
//! pass without that report, so it never reads one a previous build left
//! behind; `tests/verify.rs` checks L011's containment on its own.

use std::path::{Path, PathBuf};

use rustwren_lint::baseline;
use rustwren_lint::report;
use rustwren_lint::runner::{run, Options};

#[test]
fn workspace_lints_clean_within_the_suppression_ratchet() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let opts = Options {
        lock_report_path: PathBuf::from("target/lint/no-lock-exercise.txt"),
        ..Options::new(root)
    };
    let outcome = run(&opts);
    assert!(outcome.clean(), "{}", report::human(&outcome));
    assert!(
        outcome
            .notes
            .iter()
            .any(|n| n.starts_with("L007/L011 skipped")),
        "the pass read a lock-exercise report: {:?}",
        outcome.notes
    );

    let config = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml");
    let ratchet = baseline::parse(&config)
        .expect("lint.toml parses")
        .suppressions
        .expect("lint.toml sets a suppression ratchet");
    assert!(
        outcome.inline_suppressions <= ratchet,
        "{} inline suppressions, lint.toml allows {ratchet}",
        outcome.inline_suppressions
    );
}
