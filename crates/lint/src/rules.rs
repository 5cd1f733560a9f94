//! The per-file rule engines.
//!
//! Every engine works on a [`FileScan`] — blanked source in which only
//! code bytes survive — and returns raw [`Violation`]s. Inline
//! suppressions, the `[allow]` list and the ratchet baseline are applied
//! later by [`crate::runner`]; test spans (`#[cfg(test)]` items, files
//! under `tests/`/`benches/`/`examples/`) are excluded here because test
//! code legitimately unwraps, sleeps and prints.

use std::collections::BTreeMap;

use crate::lexer::FileScan;
use crate::{Rule, Violation};

/// Where a rule looks, given a workspace-relative path. Scopes are part
/// of the rule definition (documented in DESIGN §12), not configuration:
/// moving a file into scope is supposed to surface its debt.
pub fn rule_applies(rule: Rule, path: &str) -> bool {
    let lib_src = path.starts_with("crates/") && path.contains("/src/");
    match rule {
        // Wall clocks poison virtual time everywhere, shims included.
        Rule::L001 => path.starts_with("crates/") || path.starts_with("shims/"),
        // `Kernel::promote` in `kernel.rs` is the one OS-thread start site
        // in the workspace (`Kernel::spawn` is a light task that asks it
        // for a thread); the parking_lot shim bridges those threads into
        // the kernel. Everything else in `crates/sim` rides the dispatch
        // loop and is held to the same standard as the rest of the tree.
        Rule::L002 => path != "crates/sim/src/kernel.rs" && !path.starts_with("shims/parking_lot/"),
        Rule::L003 => lib_src,
        // Agent / executor / shuffle / workload hot paths: a panic here
        // kills a simulated activation instead of surfacing a task error.
        Rule::L004 => [
            "crates/core/src/",
            "crates/store/src/",
            "crates/faas/src/",
            "crates/workloads/src/",
        ]
        .iter()
        .any(|p| path.starts_with(p)),
        // Library crates must not write to stdio; binaries may.
        Rule::L005 => {
            lib_src
                && !path.contains("/bin/")
                && !path.ends_with("/main.rs")
                && !path.starts_with("crates/bench/")
        }
        // Interprocedural rules run on the workspace call graph
        // ([`crate::reach`]); their roots and sinks carry their own
        // scoping, so every scanned file feeds the symbol index.
        Rule::L008 | Rule::L009 | Rule::L010 => true,
        // Public surface of library crates and shims; a binary's `pub fn`
        // is rustc's dead-code lint's to find.
        Rule::L012 => {
            (lib_src || path.starts_with("shims/"))
                && !path.contains("/bin/")
                && !path.ends_with("/main.rs")
        }
    }
}

/// Runs every in-scope per-file rule over `scan`.
pub fn check_file(scan: &FileScan) -> Vec<Violation> {
    let mut out = Vec::new();
    if rule_applies(Rule::L001, &scan.path) {
        l001_wall_clock(scan, &mut out);
    }
    if rule_applies(Rule::L002, &scan.path) {
        l002_os_thread(scan, &mut out);
    }
    if rule_applies(Rule::L003, &scan.path) {
        l003_hash_order(scan, &mut out);
    }
    if rule_applies(Rule::L004, &scan.path) {
        l004_unwrap(scan, &mut out);
    }
    if rule_applies(Rule::L005, &scan.path) {
        l005_print(scan, &mut out);
    }
    out
}

// ---------------------------------------------------------------------------
// Pattern helpers
// ---------------------------------------------------------------------------

/// All occurrences of `pat` on non-test lines, as `(1-indexed line, byte
/// column)`. With `boundary`, the preceding char must not be an
/// identifier char (so `SimInstant::now` never matches `Instant::now`).
fn find_all(scan: &FileScan, pat: &str, boundary: bool) -> Vec<(usize, usize)> {
    let mut hits = Vec::new();
    for (idx, line) in scan.lines.iter().enumerate() {
        if scan.line_is_test.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let mut from = 0;
        while let Some(p) = line[from..].find(pat) {
            let col = from + p;
            from = col + pat.len();
            if boundary {
                let before = line[..col].chars().next_back();
                if before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
                    continue;
                }
            }
            hits.push((idx + 1, col));
        }
    }
    hits
}

/// The blanked text from `(line, col)` forward until `stmts` statement
/// ends (`;`), `max` chars, or the enclosing block closes (brace depth
/// below the start) — the look-ahead window used to recognize
/// order-insensitive sinks. Stopping at the closing brace keeps a `sort`
/// in the *next* function from laundering this one's iteration.
fn window_after(scan: &FileScan, line: usize, col: usize, stmts: usize, max: usize) -> String {
    let mut out = String::new();
    let mut semis = 0;
    let mut depth: i64 = 0;
    let mut idx = line - 1;
    let mut start = col;
    while idx < scan.lines.len() && out.len() < max {
        let l = &scan.lines[idx];
        for c in l[start.min(l.len())..].chars() {
            match c {
                '{' => depth += 1,
                '}' if depth == 0 => return out,
                '}' => depth -= 1,
                _ => {}
            }
            out.push(c);
            if c == ';' {
                semis += 1;
                if semis >= stmts {
                    return out;
                }
            }
            if out.len() >= max {
                return out;
            }
        }
        out.push(' ');
        idx += 1;
        start = 0;
    }
    out
}

/// The blanked text leading up to `(line, col)`: the tail of up to two
/// previous lines plus the current line's prefix — the receiver-chain
/// context for method-call rules.
fn context_before(scan: &FileScan, line: usize, col: usize) -> String {
    let idx = line - 1;
    let mut out = String::new();
    for back in (1..=2).rev() {
        if idx >= back {
            out.push_str(&scan.lines[idx - back]);
            out.push(' ');
        }
    }
    let l = &scan.lines[idx];
    out.push_str(&l[..col.min(l.len())]);
    out
}

/// The receiver chain ending at `context`'s tail: identifiers joined by
/// `.`/`::`, with balanced `(…)` call arguments skipped, scanned
/// backwards. Leading whitespace is skipped once so wrapped chains
/// (`map\n    .keys()`) still resolve. Returns the `.`-separated
/// segments, innermost receiver first.
fn receiver_chain(context: &str) -> Vec<String> {
    let chars: Vec<char> = context.chars().collect();
    let mut i = chars.len();
    while i > 0 && chars[i - 1].is_whitespace() {
        i -= 1;
    }
    let mut depth = 0usize;
    let end = i;
    while i > 0 {
        let c = chars[i - 1];
        let ok = match c {
            ')' => {
                depth += 1;
                true
            }
            '(' => {
                if depth == 0 {
                    false
                } else {
                    depth -= 1;
                    true
                }
            }
            _ if depth > 0 => true, // inside call args: anything goes
            c if c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == ':' => true,
            '&' | '*' => true,
            _ => false,
        };
        if !ok {
            break;
        }
        i -= 1;
    }
    let chain: String = chars[i..end].iter().collect();
    chain
        .split('.')
        .map(|seg| {
            seg.trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .to_owned()
        })
        .filter(|s| !s.is_empty())
        .collect()
}

// ---------------------------------------------------------------------------
// L001 — wall clocks
// ---------------------------------------------------------------------------

fn l001_wall_clock(scan: &FileScan, out: &mut Vec<Violation>) {
    for pat in ["Instant::now", "SystemTime::now"] {
        for (line, _) in find_all(scan, pat, true) {
            out.push(Violation {
                rule: Rule::L001,
                file: scan.path.clone(),
                line,
                message: format!(
                    "`{pat}` reads the wall clock; simulated code must use the kernel's \
                     virtual time (`SimInstant`) or be allowlisted in lint.toml"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// L002 — OS threading
// ---------------------------------------------------------------------------

fn l002_os_thread(scan: &FileScan, out: &mut Vec<Violation>) {
    for pat in [
        "std::thread::",
        "thread::spawn(",
        "thread::sleep(",
        "thread::yield_now",
        "thread::Builder",
    ] {
        for (line, col) in find_all(scan, pat, true) {
            // `std::thread::` already covers the qualified forms; skip
            // double-reporting `thread::spawn(` inside `std::thread::spawn(`.
            if pat != "std::thread::" {
                let before = context_before(scan, line, col);
                if before.ends_with("std::") {
                    continue;
                }
            }
            out.push(Violation {
                rule: Rule::L002,
                file: scan.path.clone(),
                line,
                message: format!(
                    "`{pat}` uses OS threading outside the sim kernel; use \
                     `rustwren_sim::spawn`/`sleep` so the scheduler stays in control"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// L003 — hash-order iteration
// ---------------------------------------------------------------------------

/// Order-insensitive sinks: if the look-ahead window shows the iteration
/// immediately sorted or reduced commutatively, hash order cannot escape.
const ORDER_SINKS: [&str; 9] = [
    "sort", ".sum()", ".sum::<", ".count()", ".min(", ".max(", ".any(", ".all(", "BTree",
];

fn l003_hash_order(scan: &FileScan, out: &mut Vec<Violation>) {
    let names = hash_bound_names(scan);
    if names.is_empty() {
        return;
    }
    // Method-style iteration on a hash-bound receiver.
    for pat in [
        ".keys()",
        ".values()",
        ".values_mut()",
        ".into_keys()",
        ".into_values()",
        ".drain(",
    ] {
        for (line, col) in find_all(scan, pat, false) {
            let recv = context_before(scan, line, col);
            let chain = receiver_chain(&recv);
            if !chain.iter().any(|seg| names.iter().any(|n| n == seg)) {
                continue;
            }
            if is_order_insensitive(scan, line, col) {
                continue;
            }
            out.push(l003_violation(scan, line, pat));
        }
    }
    // `for x in map` / `for x in &map` over a hash-bound name.
    for (idx, l) in scan.lines.iter().enumerate() {
        if scan.line_is_test.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let Some(fpos) = l.find("for ") else { continue };
        let Some(inpos) = l[fpos..].find(" in ").map(|p| fpos + p + 4) else {
            continue;
        };
        let head = l[inpos..]
            .trim_start_matches(['&', ' '])
            .trim_start_matches("mut ");
        let expr: String = head
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '.')
            .collect();
        if head[expr.len()..].starts_with('(') {
            continue; // method call (`map.values()`); handled above
        }
        let is_hash = expr.split('.').any(|seg| names.iter().any(|n| n == seg));
        if is_hash && !is_order_insensitive(scan, idx + 1, inpos) {
            out.push(l003_violation(scan, idx + 1, "for … in"));
        }
    }
}

fn l003_violation(scan: &FileScan, line: usize, what: &str) -> Violation {
    Violation {
        rule: Rule::L003,
        file: scan.path.clone(),
        line,
        message: format!(
            "`{what}` iterates a HashMap/HashSet and the order escapes; use a \
             BTreeMap/BTreeSet, sort the collected result, or reduce commutatively"
        ),
    }
}

fn is_order_insensitive(scan: &FileScan, line: usize, col: usize) -> bool {
    let w = window_after(scan, line, col, 2, 500);
    ORDER_SINKS.iter().any(|s| w.contains(s))
}

/// Names bound to `HashMap`/`HashSet` in this file: struct fields,
/// typed lets/params (`name: … HashMap<…>`) and `let name = HashMap::new()`.
fn hash_bound_names(scan: &FileScan) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for (idx, l) in scan.lines.iter().enumerate() {
        if scan.line_is_test.get(idx).copied().unwrap_or(false) {
            continue;
        }
        for pat in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(p) = l[from..].find(pat) {
                let at = from + p;
                from = at + pat.len();
                let pre = l[..at].chars().next_back();
                if pre.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
                    continue;
                }
                if let Some(name) = binding_name(&l[..at]) {
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
            }
        }
    }
    names
}

/// Given the text before a `HashMap`/`HashSet` token, recovers the bound
/// name: the identifier before the last `:` when only type-ish characters
/// separate them, or the `let` binding on the same line.
fn binding_name(before: &str) -> Option<String> {
    // `let [mut] name` anywhere earlier on the line.
    if let Some(lp) = before.rfind("let ") {
        let rest = before[lp + 4..].trim_start().trim_start_matches("mut ");
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() {
            return Some(name);
        }
    }
    // `name: Arc<Mutex<HashMap<…` — identifier before the last *single*
    // `:` (path separators `::` don't count), provided only type syntax
    // separates them.
    let bytes = before.as_bytes();
    let cp = before.char_indices().rev().find_map(|(pos, ch)| {
        if ch != ':' {
            return None;
        }
        let prev = pos > 0 && bytes[pos - 1] == b':';
        let next = bytes.get(pos + 1) == Some(&b':');
        (!prev && !next).then_some(pos)
    })?;
    let gap = &before[cp + 1..];
    if !gap
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || " \t<>,&():'_".contains(c))
    {
        return None;
    }
    let head = before[..cp].trim_end();
    let name: String = head
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(name)
    }
}

// ---------------------------------------------------------------------------
// L004 — unwrap/expect on hot paths
// ---------------------------------------------------------------------------

fn l004_unwrap(scan: &FileScan, out: &mut Vec<Violation>) {
    for name in ["unwrap", "expect"] {
        for line in method_call_lines(scan, name) {
            out.push(Violation {
                rule: Rule::L004,
                file: scan.path.clone(),
                line,
                message: format!(
                    "`.{name}` on an agent hot path panics the simulated activation; \
                     return a typed `PywrenError` so the failure surfaces as a task error"
                ),
            });
        }
    }
}

/// Lines carrying a `.name(` method call, matched token-wise so chains
/// split across lines (`foo.\n    unwrap()`) are found: the identifier
/// must be word-bounded, the next significant char (same or following
/// lines) must be `(`, and the previous significant char — scanned
/// backwards across lines — must be `.`.
pub fn method_call_lines(scan: &FileScan, name: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    for (line, col) in find_all(scan, name, true) {
        let idx = line - 1;
        let l = &scan.lines[idx];
        let end = col + name.len();
        if l[end..]
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            continue;
        }
        if next_sig_char(scan, idx, end) != Some('(') {
            continue;
        }
        if prev_sig_char(scan, idx, col) != Some('.') {
            continue;
        }
        hits.push(line);
    }
    hits
}

/// First non-whitespace char at or after `(line_idx, col)`, looking
/// across up to two following lines.
fn next_sig_char(scan: &FileScan, line_idx: usize, col: usize) -> Option<char> {
    for (n, line) in scan.lines.iter().enumerate().skip(line_idx).take(3) {
        let start = if n == line_idx {
            col.min(line.len())
        } else {
            0
        };
        if let Some(c) = line[start..].chars().find(|c| !c.is_whitespace()) {
            return Some(c);
        }
    }
    None
}

/// Last non-whitespace char before `(line_idx, col)`, looking across up
/// to two preceding lines.
fn prev_sig_char(scan: &FileScan, line_idx: usize, col: usize) -> Option<char> {
    for back in 0..3 {
        if back > line_idx {
            break;
        }
        let n = line_idx - back;
        let line = &scan.lines[n];
        let end = if back == 0 {
            col.min(line.len())
        } else {
            line.len()
        };
        if let Some(c) = line[..end].chars().rev().find(|c| !c.is_whitespace()) {
            return Some(c);
        }
    }
    None
}

// ---------------------------------------------------------------------------
// L005 — stdio prints in library code
// ---------------------------------------------------------------------------

fn l005_print(scan: &FileScan, out: &mut Vec<Violation>) {
    for pat in ["println!", "eprintln!", "print!", "eprint!", "dbg!"] {
        for (line, _) in find_all(scan, pat, true) {
            out.push(Violation {
                rule: Rule::L005,
                file: scan.path.clone(),
                line,
                message: format!(
                    "`{pat}` writes to stdio from library code; return the text to the \
                     caller or gate it behind an explicit reporting API"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// L012 — public functions nothing calls
// ---------------------------------------------------------------------------

/// What an identifier in code is.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Name {
    Use,
    /// The name a `fn` item defines.
    Fn,
    /// The name a plain `pub fn` (not `pub(crate)`) defines.
    PubFn,
}

/// L012 over the whole tree: every `pub fn` in an in-scope file of
/// `linted` whose name no code in `linted` or `readers` (test, bench and
/// example files, which only contribute uses) spells. A definition is not
/// a use, and neither is the defining file's own `#[cfg(test)]` code.
pub fn l012_uncalled_pub_fns(linted: &[FileScan], readers: &[FileScan]) -> Vec<Violation> {
    let mut uses: BTreeMap<&str, usize> = BTreeMap::new();
    for scan in linted.iter().chain(readers) {
        for (_, name, kind) in names(scan) {
            if kind == Name::Use {
                *uses.entry(name).or_insert(0) += 1;
            }
        }
    }
    let mut out = Vec::new();
    for scan in linted.iter().filter(|s| rule_applies(Rule::L012, &s.path)) {
        let is_test = |line: usize| scan.line_is_test.get(line - 1).copied().unwrap_or(false);
        let found = names(scan);
        for &(line, name, _) in found
            .iter()
            .filter(|(l, _, kind)| *kind == Name::PubFn && !is_test(*l))
        {
            let own_tests = found
                .iter()
                .filter(|(l, n, kind)| *kind == Name::Use && *n == name && is_test(*l))
                .count();
            if uses.get(name).copied().unwrap_or(0) == own_tests {
                out.push(Violation {
                    rule: Rule::L012,
                    file: scan.path.clone(),
                    line,
                    message: format!(
                        "`pub fn {name}` is named nowhere in the tree (src, tests, examples, \
                         benches) outside its own unit tests; delete it with whatever only \
                         it keeps alive"
                    ),
                });
            }
        }
    }
    out
}

/// The identifiers of `scan`'s code as `(1-indexed line, name, kind)`.
fn names(scan: &FileScan) -> Vec<(usize, &str, Name)> {
    // Words split at every non-identifier char: punctuation leaves an ""
    // token behind, so `pub(crate) fn` does not read as `pub fn`.
    let toks: Vec<(usize, &str)> = scan
        .lines
        .iter()
        .enumerate()
        .flat_map(|(idx, line)| {
            line.split_whitespace()
                .flat_map(|w| w.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')))
                .map(move |tok| (idx + 1, tok))
        })
        .collect();
    let mut out = Vec::new();
    for (i, &(line, tok)) in toks.iter().enumerate() {
        if !tok.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_') {
            continue;
        }
        let kind = if i > 0 && toks[i - 1].1 == "fn" {
            let mut j = i - 1;
            while j > 0 && ["const", "async", "unsafe", "extern"].contains(&toks[j - 1].1) {
                j -= 1;
            }
            if j > 0 && toks[j - 1].1 == "pub" {
                Name::PubFn
            } else {
                Name::Fn
            }
        } else {
            Name::Use
        };
        out.push((line, tok, kind));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan_source;

    fn violations(path: &str, src: &str) -> Vec<Violation> {
        check_file(&scan_source(path, src))
    }

    #[test]
    fn l001_matches_wall_clocks_not_sim_instant() {
        let v = violations(
            "crates/core/src/x.rs",
            "let a = Instant::now();\nlet b = SimInstant::now(k);\nlet c = std::time::SystemTime::now();\n",
        );
        let l001: Vec<_> = v.iter().filter(|v| v.rule == Rule::L001).collect();
        assert_eq!(l001.len(), 2);
        assert_eq!(l001[0].line, 1);
        assert_eq!(l001[1].line, 3);
    }

    #[test]
    fn l002_everywhere_except_the_kernel_spawn_site() {
        let src = "std::thread::sleep(d);\n";
        assert_eq!(violations("crates/core/src/x.rs", src).len(), 1);
        // Only `kernel.rs` may touch OS threads inside the sim crate…
        assert!(violations("crates/sim/src/kernel.rs", src).is_empty());
        // …its siblings are in scope like everything else.
        assert_eq!(violations("crates/sim/src/chaos.rs", src).len(), 1);
        assert_eq!(violations("crates/sim/src/sync/mutex.rs", src).len(), 1);
    }

    #[test]
    fn l003_flags_escaping_iteration_not_sorted_collects() {
        let src = "struct S { m: HashMap<String, u32> }\n\
                   fn bad(s: &S) -> Vec<u32> { s.m.values().cloned().collect() }\n\
                   fn good(s: &S) -> Vec<u32> { let mut v: Vec<_> = s.m.values().cloned().collect(); v.sort(); v }\n";
        let v = violations("crates/core/src/x.rs", src);
        let l003: Vec<_> = v.iter().filter(|v| v.rule == Rule::L003).collect();
        assert_eq!(l003.len(), 1, "{l003:?}");
        assert_eq!(l003[0].line, 2);
    }

    #[test]
    fn l003_flags_for_loops_over_hash_maps() {
        let src = "let mut m = HashMap::new();\nfor (k, v) in &m { out.push(v); }\n";
        let v = violations("crates/core/src/x.rs", src);
        assert!(
            v.iter().any(|v| v.rule == Rule::L003 && v.line == 2),
            "{v:?}"
        );
    }

    #[test]
    fn l004_hot_paths_only_and_not_unwrap_or() {
        let src = "let a = x.unwrap();\nlet b = x.unwrap_or(0);\nlet c = x.expect(\"m\");\n";
        let v = violations("crates/core/src/job.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == Rule::L004).count(), 2);
        assert!(violations("crates/analyze/src/lib.rs", src)
            .iter()
            .all(|v| v.rule != Rule::L004));
    }

    #[test]
    fn l004_sees_chains_split_across_lines() {
        // PR 10 regression: the per-line matcher missed wrapped chains.
        let src = "let a = x\n    .unwrap();\nlet b = y.\n    expect(\"msg\");\n\
                   fn unwrap(x: u32) {}\nlet c = unwrap(3);\n";
        let v = violations("crates/core/src/job.rs", src);
        let l004: Vec<_> = v.iter().filter(|v| v.rule == Rule::L004).collect();
        assert_eq!(l004.len(), 2, "{l004:?}");
        assert_eq!(l004[0].line, 2);
        assert_eq!(l004[1].line, 4);
    }

    #[test]
    fn l005_library_but_not_bins() {
        let src = "eprintln!(\"x\");\n";
        assert_eq!(violations("crates/core/src/executor.rs", src).len(), 1);
        assert!(violations("crates/bench/src/bin/fig4.rs", src).is_empty());
        assert!(violations("crates/lint/src/main.rs", src).is_empty());
    }

    #[test]
    fn test_spans_are_skipped() {
        let src =
            "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn t() { y.unwrap(); }\n}\n";
        let v = violations("crates/core/src/x.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == Rule::L004).count(), 1);
    }
}
