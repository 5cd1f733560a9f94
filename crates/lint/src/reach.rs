//! Reachability queries over the call graph: the interprocedural rules
//! L008–L011 (DESIGN §15).
//!
//! All four rules are transitive-closure arguments, not line matches:
//!
//! - **L008** walks from every light root — a closure or resumable code
//!   handed to `spawn_light` — and reports paths to blocking kernel
//!   primitives: the static form of the kernel's `IN_LIGHT_STEP` runtime
//!   panic.
//! - **L009** walks from `entry(hot_path)` functions to panic sites,
//!   closing L004's direct-call-only blind spot.
//! - **L010** walks from `entry(sim_path)` functions to wall-clock reads
//!   in L001-*allowlisted* files: the per-file allow entry says the file
//!   may read wall clocks for its own purposes, reachability proves the
//!   read leaks into a simulated path.
//! - **L011** projects the call graph onto lock-acquisition order and
//!   diffs it against the dynamic lock-order graph from rustwren-verify.
//!
//! Every violation message carries the full call chain so the report is
//! actionable without re-running the query by hand.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::graph::CallGraph;
use crate::rules::rule_applies;
use crate::symbols::{FnDef, SiteKind};
use crate::{Rule, Violation};

/// Unvisited sentinel for the BFS parent array.
const UNSEEN: usize = usize::MAX;

/// Multi-source BFS. Returns the parent array (`parents[root] == root`);
/// nodes for which `stop` is true are visited but not expanded — rules
/// use this to report the *first* sink on a path instead of everything
/// behind it — and call sites for which `cut(file, line)` is true are not
/// followed.
fn bfs(
    graph: &CallGraph,
    roots: &[usize],
    stop: impl Fn(usize) -> bool,
    cut: impl Fn(&str, usize) -> bool,
) -> Vec<usize> {
    let mut parents = vec![UNSEEN; graph.defs.len()];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for &r in roots {
        if parents[r] == UNSEEN {
            parents[r] = r;
            queue.push_back(r);
        }
    }
    while let Some(n) = queue.pop_front() {
        if stop(n) {
            continue;
        }
        for e in &graph.edges[n] {
            if cut(&graph.defs[n].file, e.line) {
                continue;
            }
            if parents[e.callee] == UNSEEN {
                parents[e.callee] = n;
                queue.push_back(e.callee);
            }
        }
    }
    parents
}

/// The call chain from the BFS root to `node`, rendered as
/// `root → … → node`, truncated in the middle when longer than 8 hops.
fn chain(graph: &CallGraph, parents: &[usize], node: usize) -> String {
    let mut path = vec![node];
    let mut cur = node;
    while parents[cur] != cur {
        cur = parents[cur];
        path.push(cur);
    }
    path.reverse();
    let names: Vec<String> = if path.len() > 8 {
        let mut v: Vec<String> = path[..4].iter().map(|&i| graph.defs[i].display()).collect();
        v.push(format!("… {} more …", path.len() - 7));
        v.extend(
            path[path.len() - 3..]
                .iter()
                .map(|&i| graph.defs[i].display()),
        );
        v
    } else {
        path.iter().map(|&i| graph.defs[i].display()).collect()
    };
    names.join(" → ")
}

/// Whether `def` is a blocking kernel primitive: calling it parks the
/// current task on the virtual-time scheduler. The parking_lot shim's
/// `Mutex::lock` is deliberately absent — it spins via `try_lock` and
/// never blocks the dispatcher. The free `sleep` is the kernel's: the
/// function of the same name in `crates/sim/src/task.rs` builds the leaf
/// future a resumable body awaits, which is how such a body *avoids*
/// blocking.
pub fn is_blocking_sink(def: &FnDef) -> bool {
    if !def.file.starts_with("crates/sim/src") {
        return false;
    }
    match (def.receiver.as_deref(), def.name.as_str()) {
        (Some("Event"), "wait") => true,
        (Some("Kernel"), "sleep" | "block_current" | "block_current_with") => true,
        (None, "sleep") => def.file.ends_with("/kernel.rs"),
        _ => false,
    }
}

/// L008: blocking primitives statically reachable from light roots
/// ([`CallGraph::light_roots`]). One violation per (root,
/// first-sink-on-path) pair, anchored at the root (that is where the
/// restructuring happens).
///
/// `promoted(file, line)` says that the call site on that line carries an
/// inline `allow(L008)`: what it calls runs after the task has asked for
/// an OS thread (`LightStep::Thread`), where blocking is allowed, so the
/// walk does not follow it. Every other edge out of the same function is
/// still followed.
pub fn l008(graph: &CallGraph, promoted: impl Fn(&str, usize) -> bool) -> Vec<Violation> {
    let mut out = Vec::new();
    for &root in &graph.light_roots {
        let parents = bfs(
            graph,
            &[root],
            |n| is_blocking_sink(&graph.defs[n]),
            &promoted,
        );
        for (i, d) in graph.defs.iter().enumerate() {
            if parents[i] == UNSEEN || !is_blocking_sink(d) {
                continue;
            }
            out.push(Violation {
                rule: Rule::L008,
                file: graph.defs[root].file.clone(),
                line: graph.defs[root].line,
                message: format!(
                    "blocking primitive `{}` ({}:{}) is statically reachable from this \
                     light root via {}; a light poll must not block — await \
                     `task::sleep`/use try_ variants, ask for a thread first, or \
                     suppress with a reason if the dispatch is impossible",
                    d.display(),
                    d.file,
                    d.line,
                    chain(graph, &parents, i)
                ),
            });
        }
    }
    out
}

/// L009: panic sites transitively reachable from `entry(hot_path)`
/// functions. `unwrap`/`expect` sites inside L004's per-line scope are
/// skipped (L004 already reports them line-by-line); `crates/sim` is
/// excluded entirely — kernel invariant panics are the sim's documented
/// failure mode, not an agent reliability bug.
pub fn l009(graph: &CallGraph) -> Vec<Violation> {
    let roots: Vec<usize> = (0..graph.defs.len())
        .filter(|&i| graph.defs[i].entries.iter().any(|e| e == "hot_path"))
        .collect();
    let parents = bfs(graph, &roots, |_| false, |_, _| false);
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    for (i, d) in graph.defs.iter().enumerate() {
        if parents[i] == UNSEEN || d.file.starts_with("crates/sim/") {
            continue;
        }
        for site in &d.sites {
            if site.kind != SiteKind::Panic {
                continue;
            }
            let is_unwrap = site.what == "unwrap" || site.what == "expect";
            if is_unwrap && rule_applies(Rule::L004, &d.file) {
                continue;
            }
            // One report per line: `a[i][j]` is one fix, not two findings.
            if !seen.insert((d.file.clone(), site.line)) {
                continue;
            }
            out.push(Violation {
                rule: Rule::L009,
                file: d.file.clone(),
                line: site.line,
                message: format!(
                    "panic site `{}` in `{}` is reachable from an agent hot path \
                     ({}); a panic here kills the activation — return a typed error \
                     along the chain",
                    site.what,
                    d.display(),
                    chain(graph, &parents, i)
                ),
            });
        }
    }
    out
}

/// L010: wall-clock reads transitively reachable from `entry(sim_path)`
/// functions. Only sites in files `is_l001_allowed` covers are sinks:
/// everywhere else L001 already reports the site per-line, so a second
/// report would be noise — the reachability argument adds information
/// exactly where the per-file audit granted an exemption.
pub fn l010(graph: &CallGraph, is_l001_allowed: impl Fn(&str) -> bool) -> Vec<Violation> {
    let roots: Vec<usize> = (0..graph.defs.len())
        .filter(|&i| graph.defs[i].entries.iter().any(|e| e == "sim_path"))
        .collect();
    let parents = bfs(graph, &roots, |_| false, |_, _| false);
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    for (i, d) in graph.defs.iter().enumerate() {
        if parents[i] == UNSEEN || !is_l001_allowed(&d.file) {
            continue;
        }
        for site in &d.sites {
            if site.kind != SiteKind::WallClock {
                continue;
            }
            if !seen.insert((d.file.clone(), site.line)) {
                continue;
            }
            out.push(Violation {
                rule: Rule::L010,
                file: d.file.clone(),
                line: site.line,
                message: format!(
                    "`{}` in `{}` is reachable from a simulated path ({}); the file's \
                     L001 allow entry covers its own wall-clock use, but this read \
                     leaks into virtual time — thread the kernel clock through instead",
                    site.what,
                    d.display(),
                    chain(graph, &parents, i)
                ),
            });
        }
    }
    out
}

/// A kind-level static lock-order edge: `(held, acquired)` with the
/// example holding-acquisition site it was derived from.
pub type StaticLockEdges = BTreeMap<(&'static str, &'static str), (String, usize)>;

fn kind_bit(kind: &str) -> u8 {
    match kind {
        "mutex" => 1,
        "rwlock" => 2,
        _ => 0,
    }
}

const KINDS: [&str; 2] = ["mutex", "rwlock"];

fn kinds_of(mask: u8) -> impl Iterator<Item = &'static str> {
    KINDS.into_iter().filter(move |k| mask & kind_bit(k) != 0)
}

/// Derives the static lock-order edge set from the call graph: edge
/// `held → acquired` when a function acquires `acquired` — directly
/// later in its body, or anywhere inside a callee reachable from a call
/// after the acquisition — while `held` is (conservatively assumed)
/// still held. Acquisition sites count only in L011's file scope, which
/// mirrors L007's instrumented-lock crates.
pub fn static_lock_edges(graph: &CallGraph) -> StaticLockEdges {
    let n = graph.defs.len();
    let in_scope: Vec<bool> = graph
        .defs
        .iter()
        .map(|d| rule_applies(Rule::L011, &d.file))
        .collect();

    // Transitive "kinds acquired anywhere inside" per definition, by
    // fixpoint over the (cyclic) graph.
    let mut mask: Vec<u8> = graph
        .defs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            if !in_scope[i] {
                return 0;
            }
            d.sites
                .iter()
                .filter_map(|s| match s.kind {
                    SiteKind::LockAcquire(k) => Some(kind_bit(k)),
                    _ => None,
                })
                .fold(0u8, |m, b| m | b)
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            let mut m = mask[i];
            for e in &graph.edges[i] {
                m |= mask[e.callee];
            }
            if m != mask[i] {
                mask[i] = m;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut edges: StaticLockEdges = BTreeMap::new();
    for (i, d) in graph.defs.iter().enumerate() {
        if !in_scope[i] {
            continue;
        }
        let acquisitions: Vec<(usize, &'static str, usize)> = d
            .sites
            .iter()
            .enumerate()
            .filter_map(|(si, s)| match s.kind {
                SiteKind::LockAcquire(k) => Some((si, k, s.line)),
                _ => None,
            })
            .collect();
        for &(si, held, held_line) in &acquisitions {
            // Held from the acquisition to the end of the function
            // (guards usually live to scope end); any later acquisition
            // nests under it.
            for &(sj, acq, acq_line) in &acquisitions {
                if sj != si && acq_line >= held_line {
                    edges
                        .entry((held, acq))
                        .or_insert_with(|| (d.file.clone(), held_line));
                }
            }
            for e in &graph.edges[i] {
                if e.line < held_line {
                    continue;
                }
                for acq in kinds_of(mask[e.callee]) {
                    edges
                        .entry((held, acq))
                        .or_insert_with(|| (d.file.clone(), held_line));
                }
            }
        }
    }
    edges
}

/// L011: static lock-order edges the dynamic lock-order graph never
/// exercised. `dynamic` is the kind-level edge set parsed from the
/// verify export; `runs` is its explored-schedule count.
pub fn l011(
    static_edges: &StaticLockEdges,
    dynamic: &BTreeSet<(String, String)>,
    runs: usize,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (&(held, acq), (file, line)) in static_edges {
        if dynamic.contains(&(held.to_owned(), acq.to_owned())) {
            continue;
        }
        out.push(Violation {
            rule: Rule::L011,
            file: file.clone(),
            line: *line,
            message: format!(
                "static lock order {held}→{acq} (acquire a {acq} while holding the \
                 {held} taken here) is never exercised by the dynamic lock-order \
                 graph over {runs} explored schedule(s) — a deadlock cycle through \
                 this order would go undetected; add a verify scenario that drives \
                 the nested acquisition, or suppress with a reason if the order is \
                 a heuristic artifact"
            ),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build;
    use crate::lexer::scan_source;
    use crate::symbols::extract;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let mut defs = Vec::new();
        let mut errs = Vec::new();
        for (path, src) in files {
            defs.extend(extract(&scan_source(path, src), &mut errs));
        }
        assert!(errs.is_empty(), "{errs:?}");
        build(defs)
    }

    const EVENT_WAIT: (&str, &str) = (
        "crates/sim/src/sync/event.rs",
        "impl Event { pub fn wait(&self) { block(); } }\n",
    );

    #[test]
    fn l008_finds_two_hop_blocking_path() {
        let g = graph_of(&[
            (
                "crates/faas/src/platform.rs",
                "fn arm(k: &Kernel) {\n\
                     k.spawn_light(\"t\", move || {\n\
                         helper();\n\
                         LightStep::Done\n\
                     });\n\
                 }\n\
                 fn helper() { Event::wait(ev); }\n",
            ),
            EVENT_WAIT,
        ]);
        let v = l008(&g, |_, _| false);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].file, "crates/faas/src/platform.rs");
        assert_eq!(v[0].line, 2, "anchored at the closure");
        assert!(
            v[0].message.contains("helper → Event::wait"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn l008_clean_closure_is_clean() {
        let g = graph_of(&[
            (
                "crates/faas/src/platform.rs",
                "fn arm(k: &Kernel) {\n\
                     k.spawn_light(\"t\", move || { step(); LightStep::Done });\n\
                 }\n\
                 fn step() { compute(); }\nfn compute() {}\n",
            ),
            EVENT_WAIT,
        ]);
        assert!(l008(&g, |_, _| false).is_empty());
    }

    #[test]
    fn l008_does_not_report_past_the_first_sink() {
        // Event::wait itself calls the kernel block primitive; only the
        // first sink on the path is reported.
        let g = graph_of(&[
            (
                "crates/faas/src/platform.rs",
                "fn arm(k: &Kernel) { k.spawn_light(\"t\", || { Event::wait(e); LightStep::Done }); }\n",
            ),
            (
                "crates/sim/src/sync/event.rs",
                "impl Event { pub fn wait(&self) { Kernel::block_current(k); } }\n",
            ),
            (
                "crates/sim/src/kernel.rs",
                "impl Kernel { pub fn block_current(&self) {} }\n",
            ),
        ]);
        let v = l008(&g, |_, _| false);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("Event::wait"));
    }

    #[test]
    fn l009_transitive_panic_with_l004_dedup() {
        let g = graph_of(&[
            (
                "crates/core/src/job.rs",
                "// lint: entry(hot_path)\nfn run_agent() { helper(); cost::estimate(); }\n",
            ),
            (
                // Outside L004's scope: unwrap here is L009's to report.
                "crates/analyze/src/cost.rs",
                "pub fn estimate() { x.unwrap(); }\n",
            ),
            (
                // Inside L004's scope: unwrap is L004 territory, but the
                // panic! macro is still L009's.
                "crates/core/src/util.rs",
                "pub fn helper() { y.unwrap(); panic!(\"boom\"); }\n",
            ),
        ]);
        let v = l009(&g);
        let files: Vec<(&str, usize)> = v.iter().map(|v| (v.file.as_str(), v.line)).collect();
        assert!(files.contains(&("crates/analyze/src/cost.rs", 1)), "{v:?}");
        assert!(
            v.iter()
                .any(|v| v.file == "crates/core/src/util.rs" && v.message.contains("panic!")),
            "{v:?}"
        );
        assert!(
            !v.iter()
                .any(|v| v.message.contains("`unwrap`") && v.file == "crates/core/src/util.rs"),
            "L004-scope unwrap must not double-report: {v:?}"
        );
    }

    #[test]
    fn l009_unreachable_panic_is_clean() {
        let g = graph_of(&[
            (
                "crates/core/src/job.rs",
                "// lint: entry(hot_path)\nfn run_agent() { safe(); }\nfn safe() {}\n",
            ),
            (
                "crates/analyze/src/cost.rs",
                "pub fn lonely() { x.unwrap(); }\n",
            ),
        ]);
        assert!(l009(&g).is_empty());
    }

    #[test]
    fn l010_reaches_into_l001_allowed_files_only() {
        let g = graph_of(&[
            (
                "crates/sim/src/kernel.rs",
                "// lint: entry(sim_path)\nfn advance() { measure(); plain(); }\n",
            ),
            (
                "crates/verify/src/lib.rs",
                "pub fn measure() { let t = Instant::now(); }\n",
            ),
            (
                "crates/core/src/a.rs",
                "pub fn plain() { let t = Instant::now(); }\n",
            ),
        ]);
        let v = l010(&g, |f| f == "crates/verify/src/lib.rs");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].file, "crates/verify/src/lib.rs");
        assert!(v[0].message.contains("Instant::now"));
    }

    #[test]
    fn static_lock_edges_direct_and_through_calls() {
        let direct = "fn nested(a: &M, b: &M) {\n\
                          let ga = a.lock();\n\
                          let gb = b.read();\n\
                      }\n";
        let through_call = "fn outer(a: &M) {\n\
                                let ga = a.lock();\n\
                                helper();\n\
                            }\n\
                            fn helper() { r.write(); }\n";
        for src in [direct, through_call] {
            let e = static_lock_edges(&graph_of(&[("crates/core/src/registry.rs", src)]));
            assert!(e.contains_key(&("mutex", "rwlock")), "{e:?}");
            assert!(
                !e.contains_key(&("rwlock", "mutex")),
                "order matters: {e:?}"
            );
        }
    }

    #[test]
    fn out_of_scope_acquisitions_do_not_create_edges() {
        let g = graph_of(&[(
            "crates/sim/src/kernel.rs",
            "fn f(a: &M, b: &M) { let ga = a.lock(); let gb = b.read(); }\n",
        )]);
        assert!(static_lock_edges(&g).is_empty());
    }

    #[test]
    fn l011_reports_only_unexercised_orders() {
        let mut st = StaticLockEdges::new();
        st.insert(("mutex", "mutex"), ("crates/core/src/a.rs".into(), 3));
        st.insert(("mutex", "rwlock"), ("crates/core/src/b.rs".into(), 9));
        let dynamic: BTreeSet<(String, String)> = [("mutex".to_owned(), "mutex".to_owned())]
            .into_iter()
            .collect();
        let v = l011(&st, &dynamic, 42);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].file, "crates/core/src/b.rs");
        assert!(v[0].message.contains("mutex→rwlock"));
        assert!(v[0].message.contains("42 explored"));
    }
}
