//! Cross-run lock-order analysis (Goodlock-style deadlock prediction).
//!
//! The schedule explorer hands this module one
//! [`RunOrderReport`](rustwren_sim::RunOrderReport) per explored schedule.
//! [`merge_reports`] unifies the per-run graphs by the instances' stable
//! cross-run keys and searches the merged graph for *potential* deadlocks —
//! lock-order cycles that never fired on any explored schedule but could
//! fire on another one.
//!
//! A cycle survives into the report only if it passes three classic
//! suppression filters:
//!
//! 1. **Thread diversity** — all edges taken by one thread can never
//!    deadlock (a single thread cannot wait on itself through a lock
//!    cycle).
//! 2. **Gate lock** — if some common lock was held on *every* observation
//!    of every edge, that gate serializes the critical sections and the
//!    cycle cannot close.
//! 3. **Happens-before** — if in every run that observed the cycle's edges
//!    the observations were ordered by *true* ordering primitives
//!    (spawn/join, events, channels, ...), the program order itself
//!    prevents the inversion (e.g. init-then-handoff phases). Lock-only
//!    serialization deliberately does not count: the explorer could have
//!    reversed it.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use rustwren_sim::{LockInstance, RunOrderReport, SyncKind, VectorClock};

/// Bound on reported cycle length; longer cycles are almost always echoes
/// of a shorter one through the same instances.
const MAX_CYCLE_LEN: usize = 4;
/// Bound on the number of reported cycles.
const MAX_CYCLES: usize = 32;

/// A potential deadlock: locks acquired in cyclic order across threads.
#[derive(Debug, Clone)]
pub struct LockCycle {
    /// Labels of the participating instances, in cycle order (the last
    /// entry is acquired while holding the first).
    pub labels: Vec<String>,
    /// Threads observed taking part in the inversion.
    pub threads: BTreeSet<String>,
    /// Whether every edge of the cycle was seen inside one single run
    /// (stronger evidence than a cross-run merge).
    pub single_run: bool,
}

impl fmt::Display for LockCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lock-order cycle: {}", self.labels.join(" -> "))?;
        write!(f, " -> {}", self.labels[0])?;
        let threads: Vec<&str> = self.threads.iter().map(String::as_str).collect();
        write!(f, " [threads: {}]", threads.join(", "))?;
        if !self.single_run {
            write!(f, " [merged across runs]")?;
        }
        Ok(())
    }
}

/// The verdict of [`merge_reports`] over a set of explored schedules.
#[derive(Debug, Clone, Default)]
pub struct LockOrderReport {
    /// Surviving lock-order cycles, shortest first.
    pub cycles: Vec<LockCycle>,
    /// Number of runs merged.
    pub runs: usize,
    /// Every sync object the explored schedules touched, deduplicated by
    /// merge key. This is the dynamic half of rustwren-lint's L007
    /// cross-check: static lock sites of a kind absent here were never
    /// exercised, so a clean verdict says nothing about them.
    pub instances: Vec<LockInstance>,
    /// Kind-level projection of the exercised lock-order edges: `(held,
    /// acquired)` when some schedule acquired an `acquired`-kind object
    /// while holding a `held`-kind one. This is the dynamic half of
    /// rustwren-lint's L011 cross-check — a static nesting order whose
    /// kind pair is absent here was never driven by any explored
    /// schedule, so the deadlock detector's clean verdict does not cover
    /// it.
    pub kind_edges: BTreeSet<(SyncKind, SyncKind)>,
}

impl LockOrderReport {
    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.cycles.is_empty()
    }
}

impl fmt::Display for LockOrderReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "lock-order analysis over {} run(s): clean", self.runs);
        }
        writeln!(
            f,
            "lock-order analysis over {} run(s): {} cycle(s)",
            self.runs,
            self.cycles.len()
        )?;
        for c in &self.cycles {
            writeln!(f, "  {c}")?;
        }
        Ok(())
    }
}

/// One observation of a merged edge inside a particular run.
struct EdgeObs {
    run: usize,
    clock: VectorClock,
}

struct MergedEdge {
    threads: BTreeSet<String>,
    /// Intersection over all observations of the other locks held — the
    /// gate-lock candidates, by merged instance index.
    guards: BTreeSet<usize>,
    obs: Vec<EdgeObs>,
}

/// Merges per-run reports by instance key and runs cycle detection over the
/// union graph.
pub fn merge_reports(reports: &[RunOrderReport]) -> LockOrderReport {
    let mut key_to_idx: HashMap<&str, usize> = HashMap::new();
    let mut keys: Vec<String> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    let mut kinds: Vec<SyncKind> = Vec::new();
    let mut edges: BTreeMap<(usize, usize), MergedEdge> = BTreeMap::new();

    for (run, rep) in reports.iter().enumerate() {
        // Map this run's local instance indices to merged indices.
        let local: Vec<usize> = rep
            .instances
            .iter()
            .map(|inst| {
                *key_to_idx.entry(inst.key.as_str()).or_insert_with(|| {
                    keys.push(inst.key.clone());
                    labels.push(inst.label.clone());
                    kinds.push(inst.kind);
                    labels.len() - 1
                })
            })
            .collect();
        for e in &rep.edges {
            let (from, to) = (local[e.from], local[e.to]);
            if from == to {
                continue;
            }
            let guards: BTreeSet<usize> = e.guards.iter().map(|&g| local[g]).collect();
            let merged = edges.entry((from, to)).or_insert_with(|| MergedEdge {
                threads: BTreeSet::new(),
                guards: guards.clone(),
                obs: Vec::new(),
            });
            merged.threads.extend(e.threads.iter().cloned());
            merged.guards.retain(|g| guards.contains(g));
            merged.obs.push(EdgeObs {
                run,
                clock: e.clock.clone(),
            });
        }
    }

    let cycles = find_cycles(labels.len(), &edges)
        .into_iter()
        .filter_map(|cycle| judge_cycle(&cycle, &edges, &labels))
        .take(MAX_CYCLES)
        .collect();

    let instances = keys
        .into_iter()
        .zip(labels.iter().cloned())
        .zip(kinds.iter().copied())
        .map(|((key, label), kind)| LockInstance { key, kind, label })
        .collect();

    let kind_edges = edges
        .keys()
        .map(|&(from, to)| (kinds[from], kinds[to]))
        .collect();

    LockOrderReport {
        cycles,
        runs: reports.len(),
        instances,
        kind_edges,
    }
}

/// Enumerates simple cycles of length 2..=[`MAX_CYCLE_LEN`] in the merged
/// graph. Each cycle is reported once, rooted at its smallest node index.
fn find_cycles(n: usize, edges: &BTreeMap<(usize, usize), MergedEdge>) -> Vec<Vec<usize>> {
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(from, to) in edges.keys() {
        succ[from].push(to);
    }
    let mut cycles = Vec::new();
    let mut path = Vec::new();
    for root in 0..n {
        dfs(root, root, &succ, &mut path, &mut cycles);
        if cycles.len() >= MAX_CYCLES * 4 {
            break;
        }
    }
    cycles.sort_by_key(Vec::len);
    cycles
}

fn dfs(
    root: usize,
    node: usize,
    succ: &[Vec<usize>],
    path: &mut Vec<usize>,
    cycles: &mut Vec<Vec<usize>>,
) {
    path.push(node);
    for &next in &succ[node] {
        if next == root && path.len() >= 2 {
            cycles.push(path.clone());
        } else if next > root && !path.contains(&next) && path.len() < MAX_CYCLE_LEN {
            dfs(root, next, succ, path, cycles);
        }
    }
    path.pop();
}

/// Applies the three suppression filters; returns the reportable cycle or
/// `None`.
fn judge_cycle(
    cycle: &[usize],
    edges: &BTreeMap<(usize, usize), MergedEdge>,
    labels: &[String],
) -> Option<LockCycle> {
    let cycle_edges: Vec<&MergedEdge> = cycle
        .iter()
        .enumerate()
        .map(|(i, &from)| &edges[&(from, cycle[(i + 1) % cycle.len()])])
        .collect();

    // 1. Thread diversity: a single thread cannot deadlock with itself.
    let mut threads: BTreeSet<String> = BTreeSet::new();
    for e in &cycle_edges {
        threads.extend(e.threads.iter().cloned());
    }
    if threads.len() < 2 {
        return None;
    }

    // 2. Gate lock: a lock held on every observation of every edge
    //    serializes the critical sections.
    let mut gates = cycle_edges[0].guards.clone();
    for e in &cycle_edges[1..] {
        gates.retain(|g| e.guards.contains(g));
    }
    gates.retain(|g| !cycle.contains(g));
    if !gates.is_empty() {
        return None;
    }

    // 3. Happens-before. Evidence of a real race is one run where all the
    //    cycle's edges appear with at least one logically-concurrent pair.
    //    Edges that never co-occur in a run but appear in inverted order
    //    across schedules are also evidence: the order is schedule-chosen.
    //    Only when every co-occurrence is fully HB-ordered is the cycle a
    //    phased (init-then-handoff) pattern, and suppressed.
    let mut runs_with_all: Vec<usize> = cycle_edges[0].obs.iter().map(|o| o.run).collect();
    for e in &cycle_edges[1..] {
        let runs: BTreeSet<usize> = e.obs.iter().map(|o| o.run).collect();
        runs_with_all.retain(|r| runs.contains(r));
    }
    let single_run = !runs_with_all.is_empty();
    if single_run {
        let ordered_in_every_run = runs_with_all.iter().all(|&r| {
            let clocks: Vec<&VectorClock> = cycle_edges
                .iter()
                .filter_map(|e| e.obs.iter().find(|o| o.run == r).map(|o| &o.clock))
                .collect();
            clocks
                .iter()
                .enumerate()
                .all(|(i, a)| clocks[i + 1..].iter().all(|b| a.comparable(b)))
        });
        if ordered_in_every_run {
            return None;
        }
    }

    Some(LockCycle {
        labels: cycle.iter().map(|&i| labels[i].clone()).collect(),
        threads,
        single_run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rustwren_sim::{Kernel, RandomScheduler};
    use std::sync::Arc;
    use std::time::Duration;

    /// Runs `body` on a fresh kernel with lock-order recording enabled and
    /// returns the run's report.
    fn record(seed: Option<u64>, body: impl FnOnce() + Send + 'static) -> RunOrderReport {
        let kernel = Kernel::new();
        if let Some(seed) = seed {
            kernel.set_scheduler(Box::new(RandomScheduler::new(seed)));
        }
        kernel.record_lock_orders();
        kernel.clone().run("client", body);
        kernel.take_order_report().expect("recording was enabled")
    }

    fn ab_ba(flip: bool) -> RunOrderReport {
        record(None, move || {
            let a = Arc::new(parking_lot::Mutex::new(0u64));
            let b = Arc::new(parking_lot::Mutex::new(0u64));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let h1 = rustwren_sim::spawn("t1", move || {
                let _ga = a2.lock();
                rustwren_sim::sleep(Duration::from_millis(1));
                let _gb = b2.lock();
            });
            let (a3, b3) = (Arc::clone(&a), Arc::clone(&b));
            let h2 = rustwren_sim::spawn("t2", move || {
                // Arrive later so the schedule passes; the inversion is
                // only *potential*.
                rustwren_sim::sleep(Duration::from_millis(10));
                if flip {
                    let _gb = b3.lock();
                    let _ga = a3.lock();
                } else {
                    let _ga = a3.lock();
                    let _gb = b3.lock();
                }
            });
            h1.join();
            h2.join();
        })
    }

    #[test]
    fn ab_ba_inversion_is_reported_from_a_passing_run() {
        let report = merge_reports(&[ab_ba(true)]);
        assert_eq!(report.cycles.len(), 1, "{report}");
        assert!(report.cycles[0].single_run);
        assert_eq!(report.cycles[0].threads.len(), 2);
    }

    #[test]
    fn consistent_order_is_clean() {
        let report = merge_reports(&[ab_ba(false)]);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn cross_run_inversion_is_reported() {
        // Each run on its own is consistent; together they prove the order
        // is schedule-dependent. Anonymous instances merge across runs by
        // first-toucher identity, so the client pins both locks' keys by
        // touching them in a fixed order before the workers run.
        let run = |invert: bool| {
            record(None, move || {
                let a = Arc::new(parking_lot::Mutex::new(0u64));
                let b = Arc::new(parking_lot::Mutex::new(0u64));
                drop(a.lock());
                drop(b.lock());
                let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                let name = if invert { "t2" } else { "t1" };
                rustwren_sim::spawn(name, move || {
                    if invert {
                        let _gb = b2.lock();
                        let _ga = a2.lock();
                    } else {
                        let _ga = a2.lock();
                        let _gb = b2.lock();
                    }
                })
                .join();
            })
        };
        let report = merge_reports(&[run(false), run(true)]);
        assert_eq!(report.cycles.len(), 1, "{report}");
        assert!(!report.cycles[0].single_run);
    }

    #[test]
    fn gate_lock_suppresses_the_cycle() {
        let report = merge_reports(&[record(None, || {
            let gate = Arc::new(parking_lot::Mutex::new(0u64));
            let a = Arc::new(parking_lot::Mutex::new(0u64));
            let b = Arc::new(parking_lot::Mutex::new(0u64));
            let (g2, a2, b2) = (Arc::clone(&gate), Arc::clone(&a), Arc::clone(&b));
            let h1 = rustwren_sim::spawn("t1", move || {
                let _gg = g2.lock();
                let _ga = a2.lock();
                let _gb = b2.lock();
            });
            let (g3, a3, b3) = (Arc::clone(&gate), Arc::clone(&a), Arc::clone(&b));
            let h2 = rustwren_sim::spawn("t2", move || {
                rustwren_sim::sleep(Duration::from_millis(5));
                let _gg = g3.lock();
                let _gb = b3.lock();
                let _ga = a3.lock();
            });
            h1.join();
            h2.join();
        })]);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn join_ordered_phases_are_suppressed() {
        // t1 finishes (A then B) and is joined before t2 starts (B then A):
        // true ordering, no deadlock possible.
        let report = merge_reports(&[record(None, || {
            let a = Arc::new(parking_lot::Mutex::new(0u64));
            let b = Arc::new(parking_lot::Mutex::new(0u64));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            rustwren_sim::spawn("t1", move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            })
            .join();
            let (a3, b3) = (Arc::clone(&a), Arc::clone(&b));
            rustwren_sim::spawn("t2", move || {
                let _gb = b3.lock();
                let _ga = a3.lock();
            })
            .join();
        })]);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn report_display_is_stable() {
        let clean = LockOrderReport {
            runs: 3,
            ..LockOrderReport::default()
        };
        assert_eq!(
            clean.to_string(),
            "lock-order analysis over 3 run(s): clean"
        );
        let dirty = merge_reports(&[ab_ba(true)]);
        let text = dirty.to_string();
        let mut lines = text.lines();
        assert_eq!(
            lines.next(),
            Some("lock-order analysis over 1 run(s): 1 cycle(s)"),
            "{text}"
        );
        let cycle = lines.next().unwrap_or_default();
        assert!(cycle.starts_with("  lock-order cycle:"), "{text}");
        assert!(cycle.contains("->"), "{text}");
        assert_eq!(lines.next(), None, "{text}");
    }
}
