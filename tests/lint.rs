//! rustwren-lint's workspace pass under `cargo test`: the same run as
//! `rustwren-lint --check`, so a new finding (a panicking index on a light
//! path, L009, say) or one inline `lint: allow` past `lint.toml`'s
//! suppression ratchet fails the test suite and not only CI's lint job.

use std::path::Path;

use rustwren_lint::baseline;
use rustwren_lint::report;
use rustwren_lint::runner::{run, Options};

#[test]
fn workspace_lints_clean_within_the_suppression_ratchet() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let outcome = run(&Options::new(root));
    assert!(outcome.clean(), "{}", report::human(&outcome));

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
