//! The workspace pass: walk, scan, apply suppressions/allowlist, and
//! compare against the ratchet baseline.
//!
//! The pass is two-phase. Phase one scans every file for the per-line
//! rules (L001–L005) while accumulating the symbol index; phase two
//! builds the workspace call graph from the index and runs the
//! interprocedural rules (L008–L010) and L012's name search over the whole
//! tree.
//! Interprocedural violations go through the same suppression → allow →
//! baseline funnel as per-line ones, keyed by the file and line each
//! violation anchors to.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::baseline::LintConfig;
use crate::graph::{self, CallGraph};
use crate::lexer::{scan_source, FileScan};
use crate::reach;
use crate::rules::{check_file, l012_uncalled_pub_fns};
use crate::symbols;
use crate::{Rule, Violation};

/// Directory components that are never read: generated output and the
/// linter's planted-violation fixtures.
const NEVER_DIRS: [&str; 4] = ["target", ".git", "fixtures", "node_modules"];

/// Directory components whose code the per-file and call-graph rules skip:
/// test, bench and example code legitimately unwraps, sleeps and prints.
/// L012 still reads the names it uses.
const SKIP_DIRS: [&str; 3] = ["tests", "benches", "examples"];

/// Trees whose inline suppressions the suppression ratchet does not count:
/// the linter's own rule text and fixtures, and the vendored shims.
const RATCHET_EXEMPT: [&str; 2] = ["crates/lint/", "shims/"];

/// Options for one linter run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workspace root (the directory holding `Cargo.toml` and `lint.toml`).
    pub root: PathBuf,
    /// Baseline path, relative to `root` unless absolute.
    pub baseline_path: PathBuf,
}

impl Options {
    /// Defaults rooted at `root`: `lint.toml`.
    pub fn new(root: impl Into<PathBuf>) -> Options {
        Options {
            root: root.into(),
            baseline_path: PathBuf::from("lint.toml"),
        }
    }

    fn resolve(&self, p: &Path) -> PathBuf {
        if p.is_absolute() {
            p.to_owned()
        } else {
            self.root.join(p)
        }
    }
}

/// The result of a full workspace pass.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Violations above the baseline — these fail `--check`.
    pub new_violations: Vec<Violation>,
    /// Hard errors (malformed suppressions, unparsable baseline) — these
    /// also fail `--check`.
    pub errors: Vec<String>,
    /// Violations absorbed by the ratchet baseline.
    pub baselined: usize,
    /// Violations silenced by inline `lint: allow` markers.
    pub suppressed: usize,
    /// Violations covered by `[allow]` entries.
    pub allowed: usize,
    /// `(rule, file)` keys whose current count is *below* the baseline —
    /// the ratchet can be tightened.
    pub improvements: Vec<String>,
    /// Informational notes (the call graph's size, the suppression
    /// ratchet's count).
    pub notes: Vec<String>,
    /// Current violation totals per rule, after suppression/allow but
    /// before baseline subtraction.
    pub counts: BTreeMap<Rule, usize>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Inline suppressions outside `crates/lint` and `shims/`: what the
    /// suppression ratchet in `lint.toml` bounds.
    pub inline_suppressions: usize,
    /// Current per-(rule, file) counts — the input to `--update-baseline`.
    pub current: BTreeMap<(Rule, String), usize>,
    /// The workspace call graph the interprocedural rules ran on
    /// (exported by `--graph-out`).
    pub graph: Option<CallGraph>,
}

impl Outcome {
    /// Whether `--check` should exit 0.
    pub fn clean(&self) -> bool {
        self.new_violations.is_empty() && self.errors.is_empty()
    }
}

/// Runs the full pass.
pub fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    for r in Rule::ALL {
        out.counts.insert(r, 0);
    }

    let cfg = match load_config(opts) {
        Ok(c) => c,
        Err(e) => {
            out.errors.push(e);
            LintConfig::default()
        }
    };

    let (files, readers) = collect_files(&opts.root);
    out.files_scanned = files.len();

    let mut scans: Vec<FileScan> = Vec::new();
    let mut defs: Vec<symbols::FnDef> = Vec::new();
    for rel in &files {
        let abs = opts.root.join(rel);
        let Ok(src) = fs::read_to_string(&abs) else {
            continue; // non-UTF8 or unreadable: nothing lexical to check
        };
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let scan = scan_source(&rel_str, &src);
        out.errors.extend(scan.suppression_errors.iter().cloned());
        if !RATCHET_EXEMPT.iter().any(|t| rel_str.starts_with(t)) {
            out.inline_suppressions += scan.suppressions.len();
        }
        defs.extend(symbols::extract(&scan, &mut out.errors));

        for v in check_file(&scan) {
            if scan.is_suppressed(v.rule, v.line) {
                out.suppressed += 1;
                continue;
            }
            if cfg.is_allowed(v.rule, &v.file) {
                out.allowed += 1;
                continue;
            }
            *out.counts.entry(v.rule).or_insert(0) += 1;
            *out.current.entry((v.rule, v.file.clone())).or_insert(0) += 1;
            out.new_violations.push(v);
        }
        scans.push(scan);
    }

    let readers: Vec<FileScan> = readers
        .iter()
        .filter_map(|rel| {
            let src = fs::read_to_string(opts.root.join(rel)).ok()?;
            Some(scan_source(&rel.to_string_lossy().replace('\\', "/"), &src))
        })
        .collect();

    let graph = graph::build(defs);
    interprocedural(&graph, &scans, &readers, &cfg, &mut out);
    out.graph = Some(graph);

    apply_baseline(&cfg, &mut out);
    apply_suppression_ratchet(&cfg, &mut out);
    out.new_violations
        .sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    out
}

/// Phase two: the call-graph rules and L012, funneled through the same
/// suppression/allow machinery as the per-line rules.
fn interprocedural(
    graph: &CallGraph,
    scans: &[FileScan],
    readers: &[FileScan],
    cfg: &LintConfig,
    out: &mut Outcome,
) {
    let lights = graph.light_roots.len();
    let hot = graph
        .defs
        .iter()
        .filter(|d| d.entries.iter().any(|e| e == "hot_path"))
        .count();
    let sim = graph
        .defs
        .iter()
        .filter(|d| d.entries.iter().any(|e| e == "sim_path"))
        .count();
    let edge_count: usize = graph.edges.iter().map(Vec::len).sum();
    out.notes.push(format!(
        "call graph: {} definitions, {} edges, {} unresolved call(s); roots: \
         {lights} light root(s), {hot} hot_path, {sim} sim_path",
        graph.defs.len(),
        edge_count,
        graph.unresolved,
    ));

    let by_path: BTreeMap<&str, &FileScan> = scans.iter().map(|s| (s.path.as_str(), s)).collect();
    let suppressed = |rule: Rule, file: &str, line: usize| {
        by_path
            .get(file)
            .is_some_and(|s| s.is_suppressed(rule, line))
    };

    let mut found: Vec<Violation> = Vec::new();
    found.extend(reach::l008(graph, |file, line| {
        suppressed(Rule::L008, file, line)
    }));
    found.extend(reach::l009(graph));
    found.extend(reach::l010(graph, |f| cfg.is_allowed(Rule::L001, f)));
    found.extend(l012_uncalled_pub_fns(scans, readers));

    for v in found {
        if suppressed(v.rule, &v.file, v.line) {
            out.suppressed += 1;
            continue;
        }
        if cfg.is_allowed(v.rule, &v.file) {
            out.allowed += 1;
            continue;
        }
        *out.counts.entry(v.rule).or_insert(0) += 1;
        *out.current.entry((v.rule, v.file.clone())).or_insert(0) += 1;
        out.new_violations.push(v);
    }
}

fn load_config(opts: &Options) -> Result<LintConfig, String> {
    let path = opts.resolve(&opts.baseline_path);
    match fs::read_to_string(&path) {
        Ok(text) => crate::baseline::parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(LintConfig::default()),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

/// Drops baselined violations and records improvements. Violations are
/// currently all in `new_violations`; keep only the overflow above each
/// `(rule, file)` baseline, preferring to drop the earliest (they are the
/// longest-standing debt).
fn apply_baseline(cfg: &LintConfig, out: &mut Outcome) {
    let mut budget: BTreeMap<(Rule, String), usize> = cfg.baseline.clone();
    let mut kept = Vec::new();
    // Violations are grouped per key in scan order; consume budget first.
    for v in std::mem::take(&mut out.new_violations) {
        let key = (v.rule, v.file.clone());
        match budget.get_mut(&key) {
            Some(b) if *b > 0 => {
                *b -= 1;
                out.baselined += 1;
            }
            _ => kept.push(v),
        }
    }
    out.new_violations = kept;
    for ((rule, file), remaining) in budget {
        if remaining > 0 {
            let current = cfg.baseline_for(rule, &file) - remaining;
            out.improvements.push(format!(
                "{rule} in {file}: {current} violation(s), baseline allows \
                 {}; tighten with --update-baseline",
                cfg.baseline_for(rule, &file)
            ));
        }
    }
}

/// Holds the inline-suppression count to the `[ratchet]` in `lint.toml`:
/// more is an error, fewer an improvement to record.
fn apply_suppression_ratchet(cfg: &LintConfig, out: &mut Outcome) {
    let Some(max) = cfg.suppressions else {
        return;
    };
    let count = out.inline_suppressions;
    let outside = "outside crates/lint and shims/";
    out.notes.push(format!(
        "suppression ratchet: {count} inline suppression(s) {outside}, lint.toml allows {max}"
    ));
    if count > max {
        out.errors.push(format!(
            "{count} inline suppression(s) {outside}, above the ratchet of {max} in \
             lint.toml: fix the finding instead of suppressing it"
        ));
    } else if count < max {
        out.improvements.push(format!(
            "inline suppressions {outside}: {count}, ratchet allows {max}; \
             tighten with --update-baseline"
        ));
    }
}

/// Collects `.rs` files as sorted workspace-relative paths, skipping
/// [`NEVER_DIRS`]: first those the rules lint (under `crates/` and
/// `shims/`, outside [`SKIP_DIRS`]), then those L012 only reads names from
/// (the rest of those trees, and the root package's `src/`, `tests/` and
/// `examples/`).
fn collect_files(root: &Path) -> (Vec<PathBuf>, Vec<PathBuf>) {
    let mut all = Vec::new();
    for top in ["crates", "shims", "src", "tests", "examples"] {
        walk(&root.join(top), root, &mut all);
    }
    all.sort();
    all.into_iter().partition(|rel| {
        let mut dirs = rel.components().map(|c| c.as_os_str().to_string_lossy());
        let top = dirs.next();
        matches!(top.as_deref(), Some("crates" | "shims"))
            && !dirs.any(|d| SKIP_DIRS.contains(&d.as_ref()))
    })
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().collect();
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for e in entries {
        let path = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if NEVER_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, root, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_owned());
            }
        }
    }
}

/// Rewrites the baseline file so every current violation count becomes
/// the new ratchet position, and the suppression ratchet the current
/// count when that is lower (it never rises). Returns the serialized text.
///
/// # Errors
///
/// Propagates baseline parse/IO failures as display strings.
pub fn update_baseline(opts: &Options, outcome: &Outcome) -> Result<String, String> {
    let path = opts.resolve(&opts.baseline_path);
    let mut cfg = match fs::read_to_string(&path) {
        Ok(text) => crate::baseline::parse(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => LintConfig::default(),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    cfg.baseline = outcome
        .current
        .iter()
        .filter(|(_, c)| **c > 0)
        .map(|(k, c)| (k.clone(), *c))
        .collect();
    cfg.suppressions = cfg
        .suppressions
        .map(|max| max.min(outcome.inline_suppressions));
    let text = crate::baseline::serialize(&cfg);
    fs::write(&path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(text)
}
