//! The workspace pass: walk, scan, apply suppressions/allowlist, compare
//! against the ratchet baseline, and cross-check the L007 lock inventory
//! against the model checker's dynamic lock-exercise report.
//!
//! The pass is two-phase. Phase one scans every file for the per-line
//! rules (L001–L005) while accumulating the symbol index; phase two
//! builds the workspace call graph from the index and runs the
//! interprocedural rules (L008–L011) plus the L007 cross-check.
//! Interprocedural violations go through the same suppression → allow →
//! baseline funnel as per-line ones, keyed by the file and line each
//! violation anchors to.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use crate::baseline::LintConfig;
use crate::graph::{self, CallGraph};
use crate::lexer::{scan_source, FileScan};
use crate::reach;
use crate::rules::{check_file, lock_sites, LockSite};
use crate::symbols;
use crate::{Rule, Violation};

/// Directory components that are never scanned: generated output, test
/// and bench code (which legitimately unwraps/sleeps/prints), and the
/// linter's planted-violation fixtures.
const SKIP_DIRS: [&str; 7] = [
    "target",
    ".git",
    "tests",
    "benches",
    "examples",
    "fixtures",
    "node_modules",
];

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
    /// Lock-exercise report path for L007, relative to `root` unless
    /// absolute. Missing file ⇒ L007 degrades to a note.
    pub lock_report_path: PathBuf,
}

impl Options {
    /// Defaults rooted at `root`: `lint.toml` and
    /// `target/verify/lock-exercise.txt`.
    pub fn new(root: impl Into<PathBuf>) -> Options {
        Options {
            root: root.into(),
            baseline_path: PathBuf::from("lint.toml"),
            lock_report_path: PathBuf::from("target/verify/lock-exercise.txt"),
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
    /// Informational notes (e.g. L007 skipped for lack of dynamic data).
    pub notes: Vec<String>,
    /// Current violation totals per rule, after suppression/allow but
    /// before baseline subtraction.
    pub counts: BTreeMap<Rule, usize>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Inline suppressions outside `crates/lint` and `shims/`: what the
    /// suppression ratchet in `lint.toml` bounds.
    pub inline_suppressions: usize,
    /// The L007 static lock inventory.
    pub lock_sites: Vec<LockSite>,
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

    let files = collect_files(&opts.root);
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
        out.lock_sites.extend(lock_sites(&scan));
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

    let graph = graph::build(defs);
    let exercise = load_lock_exercise(opts, &mut out);
    interprocedural(&graph, &scans, &cfg, exercise.as_ref(), &mut out);
    l007_cross_check(&cfg, exercise.as_ref(), &mut out);
    out.graph = Some(graph);

    apply_baseline(&cfg, &mut out);
    apply_suppression_ratchet(&cfg, &mut out);
    out.new_violations
        .sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    out
}

/// Phase two: the call-graph rules, funneled through the same
/// suppression/allow machinery as the per-line rules.
fn interprocedural(
    graph: &CallGraph,
    scans: &[FileScan],
    cfg: &LintConfig,
    exercise: Option<&LockExercise>,
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

    let static_edges = reach::static_lock_edges(graph);
    match exercise {
        Some(ex) if ex.edge_count.is_some() || !ex.edges.is_empty() => {
            out.notes.push(format!(
                "L011: {} static lock-order edge(s) vs {} dynamically exercised",
                static_edges.len(),
                ex.edges.len()
            ));
            found.extend(reach::l011(&static_edges, &ex.edges, ex.runs));
        }
        Some(_) => out.notes.push(
            "L011 skipped: lock-exercise report predates edge export \
             (regenerate: `cargo test --release --test verify lock_exercise_export`)"
                .to_owned(),
        ),
        None => {} // missing-report note already emitted by the loader
    }

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

/// Recursively collects `.rs` files under `crates/` and `shims/`,
/// skipping [`SKIP_DIRS`], as sorted workspace-relative paths.
fn collect_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["crates", "shims"] {
        walk(&root.join(top), root, &mut out);
    }
    out.sort();
    out
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
            if SKIP_DIRS.contains(&name.as_ref()) {
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

// ---------------------------------------------------------------------------
// L007 — static inventory × dynamic lock-exercise report
// ---------------------------------------------------------------------------

/// Distinct exercised lock instances per kind, parsed from the report the
/// model-checker sweep writes (`rustwren::verify::write_lock_exercise`).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LockExercise {
    /// Explored schedules merged into the report.
    pub runs: usize,
    /// kind → distinct instance count.
    pub kinds: BTreeMap<String, usize>,
    /// Kind-level lock-order edges the explored schedules exercised
    /// (`edge mutex rwlock` lines) — L011's dynamic half.
    pub edges: BTreeSet<(String, String)>,
    /// The report's declared edge count (`edges N`). `None` means the
    /// report predates edge export, and L011 degrades to a note rather
    /// than treating every static order as untested.
    pub edge_count: Option<usize>,
}

/// Parses the `lock-exercise.txt` format: `runs N`, `kind <name> <n>`,
/// `edges N` and `edge <from> <to>` lines, `#` comments.
pub fn parse_lock_exercise(text: &str) -> Result<LockExercise, String> {
    let mut ex = LockExercise::default();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("runs") => {
                ex.runs = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("lock-exercise:{}: bad runs line", idx + 1))?;
            }
            Some("kind") => {
                let name = parts
                    .next()
                    .ok_or_else(|| format!("lock-exercise:{}: missing kind", idx + 1))?;
                let count: usize = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("lock-exercise:{}: bad count", idx + 1))?;
                *ex.kinds.entry(name.to_owned()).or_insert(0) += count;
            }
            Some("edges") => {
                ex.edge_count = Some(
                    parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("lock-exercise:{}: bad edges line", idx + 1))?,
                );
            }
            Some("edge") => {
                let from = parts
                    .next()
                    .ok_or_else(|| format!("lock-exercise:{}: missing edge source", idx + 1))?;
                let to = parts
                    .next()
                    .ok_or_else(|| format!("lock-exercise:{}: missing edge target", idx + 1))?;
                ex.edges.insert((from.to_owned(), to.to_owned()));
            }
            Some("key") => {} // per-instance detail, informational
            _ => return Err(format!("lock-exercise:{}: unknown line `{line}`", idx + 1)),
        }
    }
    Ok(ex)
}

/// Reads and parses the lock-exercise report; a missing file degrades to
/// a note (L007 and L011 are skipped), a malformed one is a hard error.
fn load_lock_exercise(opts: &Options, out: &mut Outcome) -> Option<LockExercise> {
    let path = opts.resolve(&opts.lock_report_path);
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(_) => {
            out.notes.push(format!(
                "L007/L011 skipped: no lock-exercise report at {} (run the model-checker \
                 sweep first: `cargo test --release --test verify lock_exercise_export`)",
                path.display()
            ));
            return None;
        }
    };
    match parse_lock_exercise(&text) {
        Ok(e) => Some(e),
        Err(e) => {
            out.errors.push(e);
            None
        }
    }
}

/// The cross-check proper, shared with the fixture tests: static lock
/// sites of a kind the explored schedules never touched are reported —
/// the model checker's clean verdict says nothing about those locks.
pub fn check_lock_exercise(sites: &[LockSite], exercise: &LockExercise) -> Vec<Violation> {
    let mut by_kind: BTreeMap<&str, Vec<&LockSite>> = BTreeMap::new();
    for s in sites {
        by_kind.entry(s.kind).or_default().push(s);
    }
    let mut out = Vec::new();
    for (kind, sites) in by_kind {
        let exercised = exercise.kinds.get(kind).copied().unwrap_or(0);
        if exercised > 0 {
            continue;
        }
        let mut listing: Vec<String> = sites
            .iter()
            .take(5)
            .map(|s| format!("{}:{}", s.file, s.line))
            .collect();
        if sites.len() > 5 {
            listing.push(format!("… {} more", sites.len() - 5));
        }
        out.push(Violation {
            rule: Rule::L007,
            file: "<workspace>".to_owned(),
            line: 0,
            message: format!(
                "{} static {kind} construction site(s) but no {kind} instance appears \
                 in the dynamic lock-order graph over {} explored schedule(s); the \
                 checker's clean verdict does not cover them: {}",
                sites.len(),
                exercise.runs,
                listing.join(", ")
            ),
        });
    }
    out
}

fn l007_cross_check(cfg: &LintConfig, exercise: Option<&LockExercise>, out: &mut Outcome) {
    let Some(exercise) = exercise else {
        return; // missing/malformed report: note or error already recorded
    };
    out.notes.push(format!(
        "L007: cross-checked {} static lock site(s) against {} explored schedule(s)",
        out.lock_sites.len(),
        exercise.runs
    ));
    for v in check_lock_exercise(&out.lock_sites, exercise) {
        if cfg.is_allowed(v.rule, &v.file) {
            out.allowed += 1;
            continue;
        }
        *out.counts.entry(v.rule).or_insert(0) += 1;
        *out.current.entry((v.rule, v.file.clone())).or_insert(0) += 1;
        out.new_violations.push(v);
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
