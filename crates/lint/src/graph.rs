//! Call-graph construction over the extracted symbol index.
//!
//! Edges are resolved with a conservative name+receiver heuristic
//! (DESIGN §15). The design goal is *soundness for the reachability
//! rules*: when in doubt, add the edge. Method calls over-approximate to
//! every impl of that name workspace-wide (we have no type inference);
//! qualified calls match by receiver type, module file stem, or crate
//! alias; free calls prefer the same file, then the same crate, then the
//! workspace. The cost is false edges — the rules absorb them with
//! reviewed suppressions — the benefit is that a clean report means no
//! path exists under any dispatch the heuristics consider possible.

use std::collections::{BTreeMap, BTreeSet};

use crate::symbols::{CallKind, FnDef};

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Callee node index.
    pub callee: usize,
    /// 1-indexed call-site line in the caller's file.
    pub line: usize,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// Nodes: every non-test definition, light closures included.
    pub defs: Vec<FnDef>,
    /// Adjacency: `edges[i]` are the resolved callees of `defs[i]`,
    /// deduplicated per callee (first call-site line wins).
    pub edges: Vec<Vec<Edge>>,
    /// Call sites that resolved to no definition (external/std calls,
    /// tuple-struct constructors). Kept as a statistic for the report.
    pub unresolved: usize,
    /// L008's roots, ascending: every light closure, and every definition
    /// a `spawn_light(.., task::light(callee(..)))` call site resolves to.
    pub light_roots: Vec<usize>,
}

/// `crates/core/src/job.rs` → `Some(("core", "rustwren_core"))`;
/// `shims/parking_lot/src/lib.rs` → `Some(("parking_lot", "parking_lot"))`.
fn crate_of(file: &str) -> Option<(String, String)> {
    let mut parts = file.split('/');
    let root = parts.next()?;
    let name = parts.next()?.to_owned();
    let alias = match root {
        "crates" => format!("rustwren_{}", name.replace('-', "_")),
        "shims" => name.replace('-', "_"),
        _ => return None,
    };
    Some((name, alias))
}

/// `crates/sim/src/sync/event.rs` → `"event"`.
fn file_stem(file: &str) -> &str {
    file.rsplit('/')
        .next()
        .unwrap_or(file)
        .trim_end_matches(".rs")
}

/// Builds the call graph from the extracted definitions. `#[cfg(test)]`
/// definitions are dropped: test-only paths are allowed to block, panic
/// and read clocks.
pub fn build(defs: Vec<FnDef>) -> CallGraph {
    let defs: Vec<FnDef> = defs.into_iter().filter(|d| !d.in_test).collect();

    // Name indexes. Light closures have synthetic names and are never
    // call targets.
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, d) in defs.iter().enumerate() {
        if d.is_light_closure {
            continue;
        }
        let index = if d.receiver.is_some() {
            &mut methods
        } else {
            &mut free
        };
        index.entry(d.name.as_str()).or_default().push(i);
    }

    let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); defs.len()];
    let mut unresolved = 0usize;
    let mut light_roots: BTreeSet<usize> = (0..defs.len())
        .filter(|&i| defs[i].is_light_closure)
        .collect();

    for (i, caller) in defs.iter().enumerate() {
        let caller_crate = crate_of(&caller.file);
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        for call in &caller.calls {
            let targets: Vec<usize> = match &call.kind {
                CallKind::Method { name } => {
                    methods.get(name.as_str()).cloned().unwrap_or_default()
                }
                CallKind::Qualified { qualifier, name } => {
                    let mut v: Vec<usize> = Vec::new();
                    if qualifier == "Self" {
                        if let Some(list) = methods.get(name.as_str()) {
                            v.extend(
                                list.iter()
                                    .copied()
                                    .filter(|&t| defs[t].receiver == caller.receiver),
                            );
                        }
                    } else {
                        // Type- or trait-qualified: receiver match.
                        if let Some(list) = methods.get(name.as_str()) {
                            v.extend(
                                list.iter()
                                    .copied()
                                    .filter(|&t| defs[t].receiver.as_deref() == Some(qualifier)),
                            );
                        }
                        // Module- or crate-qualified free fn.
                        if let Some(list) = free.get(name.as_str()) {
                            v.extend(list.iter().copied().filter(|&t| {
                                let tf = &defs[t].file;
                                file_stem(tf) == qualifier
                                    || crate_of(tf).is_some_and(|(n, a)| {
                                        n == *qualifier
                                            || a == *qualifier
                                            || (qualifier == "crate"
                                                && caller_crate.as_ref().map(|(cn, _)| cn)
                                                    == Some(&n))
                                    })
                            }));
                        }
                    }
                    v
                }
                CallKind::Free { name } => {
                    let all = free.get(name.as_str()).cloned().unwrap_or_default();
                    let same_file: Vec<usize> = all
                        .iter()
                        .copied()
                        .filter(|&t| defs[t].file == caller.file)
                        .collect();
                    if !same_file.is_empty() {
                        same_file
                    } else {
                        let same_crate: Vec<usize> = all
                            .iter()
                            .copied()
                            .filter(|&t| {
                                crate_of(&defs[t].file).map(|(n, _)| n)
                                    == caller_crate.as_ref().map(|(n, _)| n.clone())
                            })
                            .collect();
                        if !same_crate.is_empty() {
                            same_crate
                        } else {
                            all
                        }
                    }
                }
            };
            if targets.is_empty() {
                unresolved += 1;
                continue;
            }
            if call.light_root {
                light_roots.extend(&targets);
            }
            for t in targets {
                if seen.insert(t) {
                    edges[i].push(Edge {
                        callee: t,
                        line: call.line,
                    });
                }
            }
        }
    }

    CallGraph {
        defs,
        edges,
        unresolved,
        light_roots: light_roots.into_iter().collect(),
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl CallGraph {
    /// Serializes the graph as JSON for the CI artifact: nodes (with
    /// entry sets and light-closure flags) plus `[caller, callee, line]`
    /// edge triples.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"nodes\": [\n");
        for (i, d) in self.defs.iter().enumerate() {
            let entries = d
                .entries
                .iter()
                .map(|e| format!("\"{}\"", esc(e)))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "    {{\"id\": {}, \"name\": \"{}\", \"receiver\": {}, \"file\": \"{}\", \
                 \"line\": {}, \"light\": {}, \"entries\": [{}]}}{}\n",
                i,
                esc(&d.name),
                match &d.receiver {
                    Some(r) => format!("\"{}\"", esc(r)),
                    None => "null".to_owned(),
                },
                esc(&d.file),
                d.line,
                self.light_roots.binary_search(&i).is_ok(),
                entries,
                if i + 1 == self.defs.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n  \"edges\": [\n");
        let total: usize = self.edges.iter().map(Vec::len).sum();
        let mut n = 0usize;
        for (i, es) in self.edges.iter().enumerate() {
            for e in es {
                n += 1;
                out.push_str(&format!(
                    "    [{}, {}, {}]{}\n",
                    i,
                    e.callee,
                    e.line,
                    if n == total { "" } else { "," }
                ));
            }
        }
        out.push_str(&format!(
            "  ],\n  \"unresolved_calls\": {}\n}}\n",
            self.unresolved
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan_source;
    use crate::symbols::extract;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let mut defs = Vec::new();
        let mut errs = Vec::new();
        for (path, src) in files {
            defs.extend(extract(&scan_source(path, src), &mut errs));
        }
        assert!(errs.is_empty(), "{errs:?}");
        build(defs)
    }

    fn idx(g: &CallGraph, display: &str) -> usize {
        g.defs
            .iter()
            .position(|d| d.display() == display)
            .unwrap_or_else(|| panic!("no def {display}"))
    }

    fn callees(g: &CallGraph, from: &str) -> Vec<String> {
        g.edges[idx(g, from)]
            .iter()
            .map(|e| g.defs[e.callee].display())
            .collect()
    }

    #[test]
    fn free_call_prefers_same_file_then_crate_then_workspace() {
        let g = graph(&[
            (
                "crates/core/src/a.rs",
                "fn caller() { helper(); }\nfn helper() {}\n",
            ),
            ("crates/core/src/b.rs", "fn helper() {}\n"),
            ("crates/faas/src/c.rs", "fn helper() {}\n"),
        ]);
        // Shadowed names: same-file helper wins outright.
        assert_eq!(callees(&g, "caller"), vec!["helper".to_owned()]);
        assert_eq!(
            g.defs[g.edges[idx(&g, "caller")][0].callee].file,
            "crates/core/src/a.rs"
        );
    }

    #[test]
    fn free_call_falls_back_to_same_crate() {
        let g = graph(&[
            ("crates/core/src/a.rs", "fn caller() { helper(); }\n"),
            ("crates/core/src/b.rs", "fn helper() {}\n"),
            ("crates/faas/src/c.rs", "fn helper() {}\n"),
        ]);
        let es = &g.edges[idx(&g, "caller")];
        assert_eq!(es.len(), 1);
        assert_eq!(g.defs[es[0].callee].file, "crates/core/src/b.rs");
    }

    #[test]
    fn method_calls_over_approximate_to_all_impls() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "fn caller(x: &X) { x.wait(); }\n\
             impl Event { fn wait(&self) {} }\n\
             impl Barrier { fn wait(&self) {} }\n",
        )]);
        let mut cs = callees(&g, "caller");
        cs.sort();
        assert_eq!(
            cs,
            vec!["Barrier::wait".to_owned(), "Event::wait".to_owned()]
        );
    }

    #[test]
    fn qualified_calls_match_receiver_or_module_or_crate_alias() {
        let g = graph(&[
            (
                "crates/core/src/a.rs",
                "fn caller() { Event::wait(e); event::notify(); rustwren_sim::sleep(d); }\n",
            ),
            (
                "crates/sim/src/sync/event.rs",
                "impl Event { fn wait(&self) {} }\nfn notify() {}\n",
            ),
            ("crates/sim/src/kernel.rs", "fn sleep(d: Duration) {}\n"),
        ]);
        let mut cs = callees(&g, "caller");
        cs.sort();
        assert_eq!(
            cs,
            vec![
                "Event::wait".to_owned(),
                "notify".to_owned(),
                "sleep".to_owned()
            ]
        );
    }

    #[test]
    fn self_calls_stay_inside_the_impl() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "impl A { fn f(&self) { Self::g(); } fn g() {} }\n\
             impl B { fn g() {} }\n",
        )]);
        assert_eq!(callees(&g, "A::f"), vec!["A::g".to_owned()]);
    }

    #[test]
    fn cycles_are_representable() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "fn ping() { pong(); }\nfn pong() { ping(); }\n",
        )]);
        assert_eq!(callees(&g, "ping"), vec!["pong".to_owned()]);
        assert_eq!(callees(&g, "pong"), vec!["ping".to_owned()]);
    }

    #[test]
    fn test_defs_are_dropped_and_closures_are_not_targets() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "fn live(k: &K) { k.spawn_light(\"t\", || { work(); LightStep::Done }); }\n\
             fn work() {}\n\
             #[cfg(test)]\nmod tests { fn t() { work(); } }\n",
        )]);
        assert!(g.defs.iter().all(|d| !d.in_test));
        let light = g.defs.iter().position(|d| d.is_light_closure).unwrap();
        assert_eq!(
            g.edges[light]
                .iter()
                .map(|e| g.defs[e.callee].display())
                .collect::<Vec<_>>(),
            vec!["work".to_owned()]
        );
    }

    #[test]
    fn json_export_is_well_formed_enough() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "// lint: entry(hot_path)\nfn root() { leaf(); }\nfn leaf() {}\n",
        )]);
        let j = g.to_json();
        assert!(j.contains("\"name\": \"root\""));
        assert!(j.contains("\"entries\": [\"hot_path\"]"));
        assert!(j.contains("\"edges\""));
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
