//! Symbol extraction: `fn`/`impl`/`trait` definitions and the light
//! roots handed to `spawn_light`, recovered from the blanked token stream.
//!
//! This is the first layer of the interprocedural engine (DESIGN §15):
//! it turns each [`FileScan`] into a list of [`FnDef`]s, where every
//! definition carries the call sites and primitive sites found in its
//! body. The extractor is still syn-free — a single forward pass over
//! the blanked characters, tracking brace depth and a scope stack — so
//! the crate stays dependency-free and keeps working on files `rustc`
//! would reject.
//!
//! Scope rules:
//!
//! - A `fn` inside an `impl Type` / `trait Type` block records `Type` as
//!   its receiver; free functions record none.
//! - Ordinary closures belong to their enclosing function: calls inside
//!   them are attributed to it (a closure runs with its creator's
//!   constraints until proven otherwise).
//! - A *block-bodied* closure passed to `spawn_light(...)` becomes its
//!   own synthetic definition (`is_light_closure`), because it runs on
//!   the kernel's dispatch loop under the no-blocking rule while its
//!   enclosing function does not. An expression-bodied closure argument
//!   stays attributed to the parent — over-approximating the parent,
//!   under-approximating the closure — which is why CONTRIBUTING asks
//!   for block bodies in `spawn_light` calls.
//! - Resumable code is handed over as `spawn_light(.., task::light(..))`.
//!   An `async` block directly inside that `light(` is a synthetic
//!   definition like the closure; a call directly inside it — the
//!   `async fn` whose future is the task — is marked
//!   [`CallSite::light_root`], and its callees are L008 roots.
//! - The same holds for the code handed to `register_resumable(...)`: the
//!   platform polls it from inside an activation, so a closure there —
//!   block-bodied, or `|..| async move { .. }` — is a light closure too.
//! - `#[cfg(test)]` definitions are extracted but flagged `in_test`;
//!   the graph builder drops them.

use crate::lexer::FileScan;

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(...)` — unqualified.
    Free {
        /// Callee name.
        name: String,
    },
    /// `Qual::foo(...)` — the last two path segments; `Qual` may be a
    /// type, a trait, a module, or a crate.
    Qualified {
        /// Last path segment before the callee name.
        qualifier: String,
        /// Callee name.
        name: String,
    },
    /// `recv.foo(...)` — method syntax; the receiver's type is unknown.
    Method {
        /// Method name.
        name: String,
    },
}

impl CallKind {
    /// The bare callee name.
    pub fn name(&self) -> &str {
        match self {
            CallKind::Free { name }
            | CallKind::Qualified { name, .. }
            | CallKind::Method { name } => name,
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// 1-indexed line of the callee name token.
    pub line: usize,
    /// How the callee is named.
    pub kind: CallKind,
    /// Whether the call builds the future of a lightweight task
    /// (`spawn_light(.., task::light(callee(..)))`): the callee then runs
    /// under the no-blocking rule, as a light closure does.
    pub light_root: bool,
}

/// The class of a primitive site recorded per function body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// A site that can panic: `unwrap`/`expect`, a panicking macro, or
    /// an index expression.
    Panic,
    /// A wall-clock read (`Instant::now`, `SystemTime::now`).
    WallClock,
    /// An instrumented-lock acquisition; the payload is the dynamic
    /// graph's kind name (`mutex`, `rwlock`).
    LockAcquire(&'static str),
}

/// One primitive site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimSite {
    /// 1-indexed line.
    pub line: usize,
    /// Site class.
    pub kind: SiteKind,
    /// What was matched (`"unwrap"`, `"panic!"`, `"index"`, …).
    pub what: &'static str,
}

/// One function definition (or `spawn_light` closure).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Workspace-relative path.
    pub file: String,
    /// 1-indexed line of the `fn` keyword (for closures: of the
    /// `spawn_light` call).
    pub line: usize,
    /// Bare name (`"wait"`), or `"{spawn_light@N}"` for closures.
    pub name: String,
    /// `impl`/`trait` type the definition lives in, if any.
    pub receiver: Option<String>,
    /// Whether this is a closure (or `async` block) handed to
    /// `spawn_light` or `register_resumable`.
    pub is_light_closure: bool,
    /// Entry-point sets this definition is annotated into
    /// (`// lint: entry(hot_path)`).
    pub entries: Vec<String>,
    /// Whether the definition is inside a `#[cfg(test)]` span.
    pub in_test: bool,
    /// Call sites in the body (closures included, nested fns excluded).
    pub calls: Vec<CallSite>,
    /// Primitive sites in the body.
    pub sites: Vec<PrimSite>,
}

impl FnDef {
    /// `Type::name`-style display id for reports.
    pub fn display(&self) -> String {
        match &self.receiver {
            Some(r) => format!("{}::{}", r, self.name),
            None => self.name.clone(),
        }
    }
}

/// Keywords that can directly precede `(` without being calls.
const NON_CALL_KEYWORDS: [&str; 14] = [
    "if", "while", "match", "return", "for", "in", "as", "move", "else", "break", "continue",
    "loop", "unsafe", "where",
];

/// Panicking macros recorded as [`SiteKind::Panic`].
const PANIC_MACROS: [(&str, &str); 7] = [
    ("panic", "panic!"),
    ("unreachable", "unreachable!"),
    ("todo", "todo!"),
    ("unimplemented", "unimplemented!"),
    ("assert", "assert!"),
    ("assert_eq", "assert_eq!"),
    ("assert_ne", "assert_ne!"),
];

/// Panicking methods recorded as [`SiteKind::Panic`] (empty-args or not).
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];

/// Empty-args lock acquisition methods → dynamic-graph kind name. Only
/// the zero-argument forms are matched: `.read()`/`.write()` with
/// arguments are I/O, not parking_lot.
const LOCK_METHODS: [(&str, &str); 3] =
    [("lock", "mutex"), ("read", "rwlock"), ("write", "rwlock")];

/// Calls whose closure (or `task::light(..)`) argument runs in a light
/// poll.
const LIGHT_CALLS: [&str; 2] = ["spawn_light", "register_resumable"];

/// Where the scan is relative to an open `spawn_light(`-like call.
#[derive(Default)]
struct LightCall {
    /// Minimum paren depth of the open call, waiting for a `|…| {` closure
    /// or a `light(` argument.
    open: Option<usize>,
    /// Line of the call: where its synthetic definition is anchored.
    line: usize,
    /// Paren depth directly inside an open `light(` within that call.
    future: Option<usize>,
    /// A synthetic definition was pushed; the next `{` opens its scope.
    ready: bool,
}

enum ScopeKind {
    Plain,
    Impl(String),
    Fn(usize),
    Light(usize),
}

enum Pending {
    /// Saw `fn`, waiting for the name.
    FnKeyword,
    /// Saw `fn name…`, waiting for the body `{` (or `;`).
    FnBody { name: String, line: usize },
    /// Inside an `impl …` header; tracks the current type candidate and
    /// angle-bracket depth.
    ImplHeader { candidate: String, angle: i32 },
    /// Inside a `trait Name…` header; keeps the first name only.
    TraitHeader { name: String },
}

/// Extracts every [`FnDef`] from `scan`. Entry markers from the scan are
/// attached to the first definition at or after the marked line;
/// unattached markers are appended to `errors`.
pub fn extract(scan: &FileScan, errors: &mut Vec<String>) -> Vec<FnDef> {
    let mut defs: Vec<FnDef> = Vec::new();
    let mut scopes: Vec<ScopeKind> = Vec::new();
    let mut pending: Option<Pending> = None;
    let mut light = LightCall::default();
    let mut paren_depth = 0usize;
    // Last non-whitespace char (across lines) and the one before it.
    let mut prev_sig = ' ';
    let mut prev_sig2 = ' ';
    // Last identifier token (for `Qual::name(` qualifier recovery).
    let mut last_ident = String::new();

    let flat: Vec<(usize, Vec<char>)> = scan
        .lines
        .iter()
        .enumerate()
        .map(|(i, l)| (i + 1, l.chars().collect()))
        .collect();

    fn current_fn(scopes: &[ScopeKind]) -> Option<usize> {
        scopes.iter().rev().find_map(|s| match s {
            ScopeKind::Fn(i) | ScopeKind::Light(i) => Some(*i),
            _ => None,
        })
    }
    fn current_impl(scopes: &[ScopeKind]) -> Option<String> {
        scopes.iter().rev().find_map(|s| match s {
            ScopeKind::Impl(t) => Some(t.clone()),
            _ => None,
        })
    }
    // Opens the synthetic definition of a closure or `async` block handed
    // to the open light call: the next `{` is its scope.
    let open_light =
        |defs: &mut Vec<FnDef>, scopes: &[ScopeKind], light: &mut LightCall, in_test: bool| {
            let line = light.line;
            let parent = current_fn(scopes).map(|i| defs[i].name.as_str());
            let name = match parent {
                Some(parent) => format!("{{spawn_light in {parent}@{line}}}"),
                None => format!("{{spawn_light@{line}}}"),
            };
            defs.push(FnDef {
                file: scan.path.clone(),
                line,
                name,
                receiver: None,
                is_light_closure: true,
                entries: Vec::new(),
                in_test,
                calls: Vec::new(),
                sites: Vec::new(),
            });
            *light = LightCall {
                ready: true,
                ..LightCall::default()
            };
        };

    for (li, (line_no, chars)) in flat.iter().enumerate() {
        let line_no = *line_no;
        let in_test = scan.line_is_test.get(li).copied().unwrap_or(false);
        let mut ci = 0usize;
        while ci < chars.len() {
            let c = chars[ci];

            if c.is_ascii_alphabetic() || c == '_' {
                let start = ci;
                while ci < chars.len() && (chars[ci].is_ascii_alphanumeric() || chars[ci] == '_') {
                    ci += 1;
                }
                let tok: String = chars[start..ci].iter().collect();
                let next = next_sig(chars, ci);

                // Header-state tokens. (`impl` in a signature — `x: impl
                // Trait`, `-> impl Trait` — opens no header.)
                let in_signature = matches!(pending, Some(Pending::FnBody { .. }));
                match &mut pending {
                    Some(Pending::FnKeyword) => {
                        pending = Some(Pending::FnBody {
                            name: tok.clone(),
                            line: line_no,
                        });
                    }
                    Some(Pending::ImplHeader { candidate, angle }) => {
                        if tok == "for" {
                            candidate.clear();
                        } else if *angle == 0
                            && tok != "where"
                            && tok != "dyn"
                            && (candidate.is_empty() || prev_sig != ':')
                        {
                            *candidate = tok.clone();
                        }
                    }
                    Some(Pending::TraitHeader { name }) => {
                        if name.is_empty() {
                            *name = tok.clone();
                        }
                    }
                    _ => match tok.as_str() {
                        "fn" => pending = Some(Pending::FnKeyword),
                        "impl" if !in_signature => {
                            pending = Some(Pending::ImplHeader {
                                candidate: String::new(),
                                angle: 0,
                            })
                        }
                        "trait" => {
                            pending = Some(Pending::TraitHeader {
                                name: String::new(),
                            })
                        }
                        // `task::light(async [move] { … })`.
                        "async" if light.future == Some(paren_depth) => {
                            open_light(&mut defs, &scopes, &mut light, in_test);
                        }
                        _ => {
                            scan_body_token(
                                &tok,
                                line_no,
                                in_test,
                                next,
                                chars,
                                ci,
                                prev_sig,
                                prev_sig2,
                                &last_ident,
                                &mut defs,
                                &scopes,
                                &mut light,
                                paren_depth,
                            );
                        }
                    },
                }

                prev_sig2 = if tok.len() >= 2 { ' ' } else { prev_sig };
                prev_sig = chars[ci - 1];
                last_ident = tok;
                continue;
            }

            match c {
                '(' => paren_depth += 1,
                ')' => {
                    paren_depth = paren_depth.saturating_sub(1);
                    if light.future.is_some_and(|d| paren_depth < d) {
                        light.future = None;
                    }
                    if light.open.is_some_and(|d| paren_depth < d) {
                        light.open = None; // call closed without a block closure
                    }
                }
                '|' if light.open.is_some_and(|d| paren_depth >= d) && prev_sig != '|' => {
                    // Closure parameter list inside the spawn_light call.
                    let mut cj = ci + 1;
                    if chars.get(cj) == Some(&'|') {
                        cj += 1;
                    } else {
                        while cj < chars.len() && chars[cj] != '|' {
                            cj += 1;
                        }
                        cj = (cj + 1).min(chars.len());
                    }
                    // `|…| {` or `|…| async [move] {`.
                    let rest: String = chars[cj.min(chars.len())..].iter().collect();
                    let rest = rest.trim_start();
                    let body = rest.strip_prefix("async").map_or(rest, |r| {
                        let r = r.trim_start();
                        r.strip_prefix("move").map_or(r, str::trim_start)
                    });
                    if body.starts_with('{') {
                        open_light(&mut defs, &scopes, &mut light, in_test);
                    }
                    prev_sig2 = prev_sig;
                    prev_sig = '|';
                    ci = cj;
                    continue;
                }
                '{' => {
                    let kind = match pending.take() {
                        Some(Pending::FnBody { name, line }) => {
                            defs.push(FnDef {
                                file: scan.path.clone(),
                                line,
                                name,
                                receiver: current_impl(&scopes),
                                is_light_closure: false,
                                entries: Vec::new(),
                                in_test,
                                calls: Vec::new(),
                                sites: Vec::new(),
                            });
                            ScopeKind::Fn(defs.len() - 1)
                        }
                        Some(Pending::ImplHeader { candidate, .. }) if !candidate.is_empty() => {
                            ScopeKind::Impl(candidate)
                        }
                        Some(Pending::TraitHeader { name }) if !name.is_empty() => {
                            ScopeKind::Impl(name)
                        }
                        _ => {
                            if light.ready {
                                light.ready = false;
                                ScopeKind::Light(defs.len() - 1)
                            } else {
                                ScopeKind::Plain
                            }
                        }
                    };
                    scopes.push(kind);
                }
                '}' => {
                    scopes.pop();
                }
                ';' => {
                    if matches!(
                        pending,
                        Some(Pending::FnBody { .. }) | Some(Pending::FnKeyword)
                    ) {
                        pending = None; // trait method declaration without a body
                    }
                }
                '<' => {
                    if let Some(Pending::ImplHeader { angle, .. }) = &mut pending {
                        *angle += 1;
                    }
                }
                '>' => {
                    if let Some(Pending::ImplHeader { angle, .. }) = &mut pending {
                        *angle -= 1;
                    }
                }
                // Index expression: `x[`, `)[`, `][` — never `#[`
                // attributes, `![` macro brackets, or type positions.
                '[' if (prev_sig.is_ascii_alphanumeric()
                    || prev_sig == '_'
                    || prev_sig == ')'
                    || prev_sig == ']')
                    && !in_test
                    && pending.is_none() =>
                {
                    if let Some(fi) = current_fn(&scopes) {
                        defs[fi].sites.push(PrimSite {
                            line: line_no,
                            kind: SiteKind::Panic,
                            what: "index",
                        });
                    }
                }
                _ => {}
            }
            if !c.is_whitespace() {
                prev_sig2 = prev_sig;
                prev_sig = c;
            }
            ci += 1;
        }
    }

    // Attach entry markers to the first definition at or after their line.
    for mark in &scan.entries {
        let target = defs
            .iter_mut()
            .filter(|d| d.line >= mark.line)
            .min_by_key(|d| d.line);
        match target {
            Some(d) if d.line <= mark.line + 8 => {
                if !d.entries.contains(&mark.set) {
                    d.entries.push(mark.set.clone());
                }
            }
            _ => errors.push(format!(
                "{}:{}: entry marker `{}` does not annotate any fn definition \
                 (it must directly precede one)",
                scan.path, mark.line, mark.set
            )),
        }
    }
    defs
}

/// Next non-space character on the same line at or after `from`.
fn next_sig(chars: &[char], from: usize) -> Option<char> {
    chars[from.min(chars.len())..]
        .iter()
        .copied()
        .find(|c| !c.is_whitespace())
}

/// Whether the call's argument list is empty: `name()` with only
/// whitespace between the parens (same line).
fn empty_args(chars: &[char], after_name: usize) -> bool {
    let mut i = after_name;
    while i < chars.len() && chars[i].is_whitespace() {
        i += 1;
    }
    if chars.get(i) != Some(&'(') {
        return false;
    }
    i += 1;
    while i < chars.len() && chars[i].is_whitespace() {
        i += 1;
    }
    chars.get(i) == Some(&')')
}

/// Handles one identifier token inside a function body: records call
/// sites and primitive sites on the innermost enclosing definition.
#[allow(clippy::too_many_arguments)]
fn scan_body_token(
    tok: &str,
    line_no: usize,
    in_test: bool,
    next: Option<char>,
    chars: &[char],
    after: usize,
    prev_sig: char,
    prev_sig2: char,
    last_ident: &str,
    defs: &mut [FnDef],
    scopes: &[ScopeKind],
    light: &mut LightCall,
    paren_depth: usize,
) {
    let fi = scopes.iter().rev().find_map(|s| match s {
        ScopeKind::Fn(i) | ScopeKind::Light(i) => Some(*i),
        _ => None,
    });
    let Some(fi) = fi else { return };
    if in_test {
        return;
    }

    // Macro invocation `name!(…`.
    if next == Some('!') {
        if let Some((_, what)) = PANIC_MACROS.iter().find(|(m, _)| *m == tok) {
            defs[fi].sites.push(PrimSite {
                line: line_no,
                kind: SiteKind::Panic,
                what,
            });
        }
        return;
    }
    if next != Some('(') {
        return;
    }
    if NON_CALL_KEYWORDS.contains(&tok) {
        return;
    }

    let is_method = prev_sig == '.';
    let is_qualified = prev_sig == ':' && prev_sig2 == ':';

    // Primitive sites.
    if is_method {
        if PANIC_METHODS.contains(&tok) {
            defs[fi].sites.push(PrimSite {
                line: line_no,
                kind: SiteKind::Panic,
                what: if tok == "unwrap" { "unwrap" } else { "expect" },
            });
        }
        if empty_args(chars, after) {
            if let Some((_, kind)) = LOCK_METHODS.iter().find(|(m, _)| *m == tok) {
                defs[fi].sites.push(PrimSite {
                    line: line_no,
                    kind: SiteKind::LockAcquire(kind),
                    what: kind,
                });
            }
        }
    }
    if is_qualified && tok == "now" && (last_ident == "Instant" || last_ident == "SystemTime") {
        defs[fi].sites.push(PrimSite {
            line: line_no,
            kind: SiteKind::WallClock,
            what: if last_ident == "Instant" {
                "Instant::now"
            } else {
                "SystemTime::now"
            },
        });
    }

    // Call site.
    let kind = if is_method {
        CallKind::Method {
            name: tok.to_owned(),
        }
    } else if is_qualified {
        CallKind::Qualified {
            qualifier: last_ident.to_owned(),
            name: tok.to_owned(),
        }
    } else {
        CallKind::Free {
            name: tok.to_owned(),
        }
    };
    let light_root = light.future == Some(paren_depth);
    if LIGHT_CALLS.contains(&tok) {
        *light = LightCall {
            open: Some(paren_depth + 1),
            line: line_no,
            ..LightCall::default()
        };
    } else if tok == "light" && light.open.is_some_and(|d| paren_depth >= d) {
        light.future = Some(paren_depth + 1);
    }
    defs[fi].calls.push(CallSite {
        line: line_no,
        kind,
        light_root,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan_source;

    fn defs(src: &str) -> Vec<FnDef> {
        let mut errs = Vec::new();
        let out = extract(&scan_source("crates/core/src/x.rs", src), &mut errs);
        assert!(errs.is_empty(), "{errs:?}");
        out
    }

    #[test]
    fn free_fns_and_impl_methods() {
        let d = defs(
            "pub fn top(x: u32) -> u32 { helper(x) }\n\
             impl Widget {\n    fn helper(&self) { self.other(); }\n}\n\
             impl Display for Gadget {\n    fn fmt(&self) {}\n}\n",
        );
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].name, "top");
        assert_eq!(d[0].receiver, None);
        assert_eq!(d[1].display(), "Widget::helper");
        assert_eq!(d[2].display(), "Gadget::fmt");
        assert_eq!(
            d[0].calls,
            vec![CallSite {
                line: 1,
                kind: CallKind::Free {
                    name: "helper".into()
                },
                light_root: false,
            }]
        );
        assert_eq!(
            d[1].calls[0].kind,
            CallKind::Method {
                name: "other".into()
            }
        );
    }

    #[test]
    fn qualified_calls_record_the_qualifier() {
        let d = defs("fn f() { Event::wait(ev); rustwren_sim::sleep(d); }\n");
        assert_eq!(
            d[0].calls[0].kind,
            CallKind::Qualified {
                qualifier: "Event".into(),
                name: "wait".into()
            }
        );
        assert_eq!(
            d[0].calls[1].kind,
            CallKind::Qualified {
                qualifier: "rustwren_sim".into(),
                name: "sleep".into()
            }
        );
    }

    #[test]
    fn spawn_light_closures_become_their_own_defs() {
        let d = defs(
            "fn parent(k: &Kernel) {\n\
                 k.spawn_light(\"t\", move || {\n\
                     helper();\n\
                     LightStep::Done\n\
                 });\n\
                 after();\n\
             }\n",
        );
        assert_eq!(d.len(), 2);
        assert!(d[1].is_light_closure);
        assert!(d[1].calls.iter().any(|c| c.kind.name() == "helper"));
        // The closure's calls are NOT attributed to the parent, but the
        // parent keeps its own (spawn_light itself, after).
        assert!(d[0].calls.iter().all(|c| c.kind.name() != "helper"));
        assert!(d[0].calls.iter().any(|c| c.kind.name() == "after"));
    }

    #[test]
    fn ordinary_closures_belong_to_the_enclosing_fn() {
        let d = defs("fn f(v: Vec<u32>) { v.iter().map(|x| helper(x)).count(); }\n");
        assert_eq!(d.len(), 1);
        assert!(d[0].calls.iter().any(|c| c.kind.name() == "helper"));
    }

    #[test]
    fn panic_wallclock_and_lock_sites() {
        let d = defs(
            "fn f(x: Option<u32>, m: &Mutex<u32>, v: &[u32]) {\n\
                 x.unwrap();\n\
                 x.expect(\"m\");\n\
                 panic!(\"boom\");\n\
                 let t = Instant::now();\n\
                 let g = m.lock();\n\
                 let r = rw.read();\n\
                 let e = v[0];\n\
             }\n",
        );
        let kinds: Vec<&str> = d[0].sites.iter().map(|s| s.what).collect();
        assert!(kinds.contains(&"unwrap"));
        assert!(kinds.contains(&"expect"));
        assert!(kinds.contains(&"panic!"));
        assert!(kinds.contains(&"Instant::now"));
        assert!(kinds.contains(&"mutex"));
        assert!(kinds.contains(&"rwlock"));
        assert!(kinds.contains(&"index"));
    }

    #[test]
    fn multiline_method_chains_are_seen() {
        let d = defs("fn f(x: Option<u32>) {\n    x.\n        unwrap();\n}\n");
        assert_eq!(d[0].sites.len(), 1);
        assert_eq!(d[0].sites[0].what, "unwrap");
        assert_eq!(d[0].sites[0].line, 3);
    }

    #[test]
    fn io_write_with_args_is_not_a_lock() {
        let d = defs("fn f(w: &mut W, l: &L) { w.write(buf); let g = l.write(); }\n");
        let locks: Vec<_> = d[0]
            .sites
            .iter()
            .filter(|s| matches!(s.kind, SiteKind::LockAcquire(_)))
            .collect();
        assert_eq!(locks.len(), 1);
        assert_eq!(locks[0].what, "rwlock");
    }

    #[test]
    fn test_spans_are_excluded_but_tracked() {
        let d = defs(
            "fn live() { x.unwrap(); }\n\
             #[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n",
        );
        assert_eq!(d.len(), 2);
        assert!(!d[0].in_test);
        assert!(d[1].in_test);
        assert!(d[1].sites.is_empty(), "test bodies record no sites");
    }

    #[test]
    fn trait_default_methods_get_the_trait_receiver() {
        let d =
            defs("trait Pollable {\n    fn poll(&self) { self.step(); }\n    fn step(&self);\n}\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].display(), "Pollable::poll");
    }

    #[test]
    fn entry_markers_attach_to_the_next_fn() {
        let mut errs = Vec::new();
        let d = extract(
            &scan_source(
                "crates/core/src/x.rs",
                "// lint: entry(hot_path)\npub fn agent() {}\nfn other() {}\n",
            ),
            &mut errs,
        );
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(d[0].entries, vec!["hot_path".to_owned()]);
        assert!(d[1].entries.is_empty());
    }

    #[test]
    fn dangling_entry_marker_is_an_error() {
        let mut errs = Vec::new();
        extract(
            &scan_source(
                "crates/core/src/x.rs",
                "// lint: entry(hot_path)\nconst X: u32 = 1;\n",
            ),
            &mut errs,
        );
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("entry marker"));
    }
}
