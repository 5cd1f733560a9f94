//! The committed `lint.toml` — allowlist + ratchet baseline.
//!
//! The file is a deliberately tiny TOML subset (flat sections, scalar
//! entries keyed by a quoted file path, or by name in `[ratchet]`) so the
//! linter stays dependency-free:
//!
//! ```toml
//! # Permanent, reviewed exemptions: every violation of <rule> in <file>
//! # is allowed, with the reason on record.
//! [allow.L001]
//! "crates/sim/src/kernel.rs" = "the deadlock watchdog measures real time"
//!
//! # The ratchet: known debt as per-rule, per-file violation counts.
//! # New violations (count above baseline) fail CI; fixes lower the
//! # baseline via `rustwren-lint --update-baseline`.
//! [baseline.L004]
//! "crates/bench/src/lib.rs" = 3
//!
//! # The suppression ratchet: inline `lint: allow` markers outside
//! # crates/lint and shims/. More fail CI; `--update-baseline` lowers it.
//! [ratchet]
//! suppressions = 27
//! ```
//!
//! Anything else — unknown sections, unknown rules, malformed entries —
//! is a hard parse error: a typo that silently widens the allowlist is
//! worse than a build break.

use std::collections::BTreeMap;

use crate::Rule;

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintConfig {
    /// `(rule, file)` → reason: permanent, reviewed exemptions.
    pub allow: BTreeMap<(Rule, String), String>,
    /// `(rule, file)` → violation count: the ratchet.
    pub baseline: BTreeMap<(Rule, String), usize>,
    /// Most inline suppressions allowed outside `crates/lint` and
    /// `shims/`; `None` when the file sets no suppression ratchet.
    pub suppressions: Option<usize>,
}

impl LintConfig {
    /// The baselined count for `(rule, file)` (0 when absent).
    pub fn baseline_for(&self, rule: Rule, file: &str) -> usize {
        self.baseline
            .get(&(rule, file.to_owned()))
            .copied()
            .unwrap_or(0)
    }

    /// Whether `(rule, file)` is on the allowlist.
    pub fn is_allowed(&self, rule: Rule, file: &str) -> bool {
        self.allow.contains_key(&(rule, file.to_owned()))
    }
}

enum Section {
    None,
    Allow(Rule),
    Baseline(Rule),
    Ratchet,
}

/// Parses the `lint.toml` text.
///
/// # Errors
///
/// Returns a `file:line: message` string for any construct outside the
/// supported subset.
pub fn parse(text: &str) -> Result<LintConfig, String> {
    let mut cfg = LintConfig::default();
    let mut section = Section::None;
    for (idx, raw) in text.lines().enumerate() {
        let n = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(head) = line.strip_prefix('[') {
            let Some(head) = head.strip_suffix(']') else {
                return Err(format!("lint.toml:{n}: unterminated section header"));
            };
            section = match head.split_once('.') {
                Some(("allow", r)) => Section::Allow(parse_rule(r, n)?),
                Some(("baseline", r)) => Section::Baseline(parse_rule(r, n)?),
                None if head == "ratchet" => Section::Ratchet,
                _ => {
                    return Err(format!(
                        "lint.toml:{n}: unknown section `[{head}]` \
                         (expected `[allow.Lxxx]`, `[baseline.Lxxx]` or `[ratchet]`)"
                    ))
                }
            };
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("lint.toml:{n}: expected `\"file\" = value`"));
        };
        let key = key.trim();
        let value = value.trim();
        let file = || {
            key.strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .map(str::to_owned)
                .ok_or_else(|| format!("lint.toml:{n}: file key must be double-quoted"))
        };
        match section {
            Section::None => {
                return Err(format!("lint.toml:{n}: entry outside any section"));
            }
            Section::Ratchet => {
                if key != "suppressions" {
                    return Err(format!(
                        "lint.toml:{n}: unknown ratchet `{key}` (expected `suppressions`)"
                    ));
                }
                let max = value
                    .parse()
                    .map_err(|_| format!("lint.toml:{n}: ratchet count must be an integer"))?;
                cfg.suppressions = Some(max);
            }
            Section::Allow(rule) => {
                let file = file()?;
                let reason = value
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| {
                        format!("lint.toml:{n}: allow reason must be a quoted string")
                    })?;
                if reason.trim().is_empty() {
                    return Err(format!("lint.toml:{n}: allow reason must not be empty"));
                }
                cfg.allow.insert((rule, file), reason.to_owned());
            }
            Section::Baseline(rule) => {
                let file = file()?;
                let count: usize = value
                    .parse()
                    .map_err(|_| format!("lint.toml:{n}: baseline count must be an integer"))?;
                if count == 0 {
                    return Err(format!(
                        "lint.toml:{n}: zero baseline entries must be deleted, not kept"
                    ));
                }
                cfg.baseline.insert((rule, file), count);
            }
        }
    }
    Ok(cfg)
}

fn parse_rule(s: &str, line: usize) -> Result<Rule, String> {
    Rule::parse(s.trim()).ok_or_else(|| format!("lint.toml:{line}: unknown rule `{s}`"))
}

/// Serializes `cfg` back to canonical `lint.toml` text (sorted, stable —
/// `--update-baseline` rewrites must diff minimally).
pub fn serialize(cfg: &LintConfig) -> String {
    let mut out = String::new();
    out.push_str(
        "# rustwren-lint configuration: allowlist + ratchet baseline.\n\
         #\n\
         # [allow.Lxxx]   — permanent, reviewed exemptions (file = \"reason\").\n\
         # [baseline.Lxxx] — known debt as per-file violation counts. New\n\
         #                   violations fail CI; pay debt down and shrink the\n\
         #                   counts with `cargo run -p rustwren-lint -- --update-baseline`.\n\
         # Line-level suppressions live in the source instead:\n\
         #   // lint: allow(Lxxx) — reason\n",
    );
    for rule in Rule::ALL {
        let entries: Vec<_> = cfg.allow.iter().filter(|((r, _), _)| *r == rule).collect();
        if entries.is_empty() {
            continue;
        }
        out.push_str(&format!("\n[allow.{rule}]\n"));
        for ((_, file), reason) in entries {
            out.push_str(&format!("\"{file}\" = \"{reason}\"\n"));
        }
    }
    for rule in Rule::ALL {
        let entries: Vec<_> = cfg
            .baseline
            .iter()
            .filter(|((r, _), c)| *r == rule && **c > 0)
            .collect();
        if entries.is_empty() {
            continue;
        }
        out.push_str(&format!("\n[baseline.{rule}]\n"));
        for ((_, file), count) in entries {
            out.push_str(&format!("\"{file}\" = {count}\n"));
        }
    }
    if let Some(max) = cfg.suppressions {
        out.push_str(&format!(
            "\n# Inline suppressions outside crates/lint and shims/: more fail\n\
             # --check; --update-baseline lowers the count as they are paid down.\n\
             [ratchet]\nsuppressions = {max}\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut cfg = LintConfig::default();
        cfg.allow.insert(
            (Rule::L001, "crates/sim/src/kernel.rs".into()),
            "watchdog".into(),
        );
        cfg.baseline
            .insert((Rule::L004, "crates/bench/src/lib.rs".into()), 3);
        let text = serialize(&cfg);
        assert_eq!(parse(&text).expect("round trip"), cfg);
        cfg.suppressions = Some(27);
        let text = serialize(&cfg);
        assert!(text.contains("[ratchet]\nsuppressions = 27\n"), "{text}");
        assert_eq!(parse(&text).expect("round trip"), cfg);
    }

    #[test]
    fn lookups() {
        let cfg = parse("[allow.L002]\n\"a.rs\" = \"r\"\n[baseline.L004]\n\"b.rs\" = 2\n")
            .expect("parses");
        assert!(cfg.is_allowed(Rule::L002, "a.rs"));
        assert!(!cfg.is_allowed(Rule::L002, "b.rs"));
        assert_eq!(cfg.baseline_for(Rule::L004, "b.rs"), 2);
        assert_eq!(cfg.baseline_for(Rule::L004, "a.rs"), 0);
    }

    #[test]
    fn rejects_unknown_rules_sections_and_zero_counts() {
        assert!(parse("[allow.L099]\n").is_err());
        assert!(parse("[frobnicate]\n").is_err());
        assert!(parse("[baseline.L004]\n\"a.rs\" = 0\n").is_err());
        assert!(parse("\"a.rs\" = 1\n").is_err());
        assert!(parse("[allow.L001]\n\"a.rs\" = \"\"\n").is_err());
        assert!(parse("[ratchet]\nunwraps = 3\n").is_err());
        assert!(parse("[ratchet]\nsuppressions = many\n").is_err());
    }

    /// SplitMix64: the test's own seeded generator (the crate has no
    /// dependencies to take one from).
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn text(&mut self, alphabet: &[char], max: usize) -> String {
            (0..=self.below(max))
                .map(|_| alphabet[self.below(alphabet.len())])
                .collect()
        }
    }

    /// `parse(serialize(cfg)) == cfg` over generated configs: any rule,
    /// any count above zero (a zero entry is deleted, not kept), reasons
    /// with quotes, `=`, `#` and non-ASCII in them. A file key holds no `=`
    /// (the key ends at the first one) and no reason or key a line break.
    #[test]
    fn serialized_configs_parse_back_to_themselves() {
        let path: Vec<char> = "abcxyz019/._-\"".chars().collect();
        let reason: Vec<char> = "ab z#=\"'[]—é.".chars().collect();
        let mut g = Gen(0x11D7);
        for _ in 0..500 {
            let mut cfg = LintConfig::default();
            for _ in 0..g.below(6) {
                let rule = Rule::ALL[g.below(Rule::ALL.len())];
                let text = format!("x{}", g.text(&reason, 12));
                cfg.allow.insert((rule, g.text(&path, 16)), text);
            }
            for _ in 0..g.below(6) {
                let rule = Rule::ALL[g.below(Rule::ALL.len())];
                let count = 1 + g.below(1 << 20);
                cfg.baseline.insert((rule, g.text(&path, 16)), count);
            }
            cfg.suppressions = g.next().is_multiple_of(3).then(|| g.below(100));
            let text = serialize(&cfg);
            assert_eq!(parse(&text).as_ref(), Ok(&cfg), "{text}");
        }
    }

    /// What `parse` may return for `text`: a config, or an error that names
    /// a line of `text`. Anything else — a panic included — fails the test.
    fn assert_parses_or_names_a_line(text: &str) {
        let Err(e) = parse(text) else { return };
        let line = e
            .strip_prefix("lint.toml:")
            .and_then(|rest| rest.split_once(": "))
            .and_then(|(n, _)| n.parse::<usize>().ok());
        let lines = text.lines().count();
        assert!(
            line.is_some_and(|n| (1..=lines).contains(&n)),
            "{e:?} names no line of {text:?}"
        );
    }

    /// Every single-bit flip, every truncation and every inserted line of
    /// the committed `lint.toml` parses or fails with `lint.toml:N:`.
    #[test]
    fn damaged_committed_config_parses_or_names_the_line() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../lint.toml");
        let committed = std::fs::read(path).expect("the committed lint.toml");
        assert!(parse(&String::from_utf8_lossy(&committed)).is_ok());
        for i in 0..committed.len() {
            for bit in 0..8 {
                let mut flipped = committed.clone();
                flipped[i] ^= 1 << bit;
                assert_parses_or_names_a_line(&String::from_utf8_lossy(&flipped));
            }
            assert_parses_or_names_a_line(&String::from_utf8_lossy(&committed[..i]));
        }
        let text = String::from_utf8_lossy(&committed);
        let lines: Vec<&str> = text.lines().collect();
        let inserts = [
            "[",
            "]",
            "[]",
            "[allow]",
            "[allow.L001",
            "[allow.]",
            "[baseline.L999]",
            "[ratchet.x]",
            "=",
            "==",
            "\"\" = \"\"",
            "\" = \"",
            "\"a.rs\" = 0",
            "\"a.rs\" = -1",
            "\"a.rs\" = 99999999999999999999999",
            "\"a.rs\" = \"r\"",
            "\"a.rs\" = 3",
            "a.rs = 3",
            "suppressions =",
            "suppressions = 1",
            "x",
            "\t",
        ];
        for at in 0..=lines.len() {
            for insert in inserts {
                let mut damaged = lines.clone();
                damaged.insert(at, insert);
                assert_parses_or_names_a_line(&damaged.join("\n"));
            }
        }
    }
}
