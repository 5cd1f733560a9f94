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
}
