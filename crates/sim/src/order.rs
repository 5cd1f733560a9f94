//! Per-run lock-order recording for deadlock *prediction*.
//!
//! When enabled ([`crate::Kernel::record_lock_orders`]), the kernel observes
//! every acquisition of an instrumented lock — the `parking_lot` shim's
//! `Mutex`/`RwLock` — and records *order edges*: while holding `A`, the
//! thread acquired `B`. Each edge carries the set of other locks held at the
//! time (the *guard set*, for gate-lock suppression) and a vector-clock
//! timestamp (for happens-before suppression).
//!
//! Crucially, **lock operations do not advance the vector clocks** — only
//! true ordering primitives do (spawn/join, events).
//! Two critical sections serialized merely by a mutex are still *logically
//! concurrent*: the lock could have been taken in the other order. This is
//! what lets cycle detection over the merged graphs report an AB-BA deadlock
//! found on a schedule where it never fired, while init-then-handoff phases
//! (ordered by a join) stay suppressed.
//!
//! The per-run output is a [`RunOrderReport`]; `rustwren-analyze` merges
//! reports from many explored schedules and runs cycle detection.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use crate::kernel::{Label, Resource};

/// The class of an instrumented synchronization object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SyncKind {
    /// `parking_lot` shim mutex.
    Mutex,
    /// `parking_lot` shim reader-writer lock.
    RwLock,
    /// [`crate::sync::Event`].
    Event,
}

impl fmt::Display for SyncKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SyncKind::Mutex => "mutex",
            SyncKind::RwLock => "rwlock",
            SyncKind::Event => "event",
        };
        f.write_str(s)
    }
}

/// Which identifier space a raw sync-object key lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Space {
    /// Shim objects, keyed by address (valid until destroyed).
    Addr,
    /// Kernel primitives, keyed by their [`crate::Resource`]'s id.
    Resource,
}

/// A vector clock over simulated-thread ids.
///
/// `a.le(b)` means every event in `a`'s history is in `b`'s history — `a`
/// happened before (or is) `b`. Incomparable clocks are logically
/// concurrent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorClock(BTreeMap<u64, u64>);

impl VectorClock {
    /// Advances this thread's own component.
    pub(crate) fn tick(&mut self, tid: u64) {
        *self.0.entry(tid).or_insert(0) += 1;
    }

    /// Joins `other` into `self` (component-wise max).
    pub(crate) fn join(&mut self, other: &VectorClock) {
        for (&t, &c) in &other.0 {
            let e = self.0.entry(t).or_insert(0);
            *e = (*e).max(c);
        }
    }

    /// Whether `self` happened before or equals `other`.
    pub fn le(&self, other: &VectorClock) -> bool {
        self.0
            .iter()
            .all(|(t, c)| other.0.get(t).copied().unwrap_or(0) >= *c)
    }

    /// Whether the two clocks are ordered either way (not concurrent).
    pub fn comparable(&self, other: &VectorClock) -> bool {
        self.le(other) || other.le(self)
    }
}

/// One instrumented sync object observed during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockInstance {
    /// Cross-run merge key: stable across schedules of the same program for
    /// labeled kernel primitives (`kind:label`); first-toucher-derived for
    /// anonymous shim objects.
    pub key: String,
    /// Object class.
    pub kind: SyncKind,
    /// Human-readable label for reports.
    pub label: String,
}

/// An observed acquisition order: some thread acquired `to` while holding
/// `from`.
#[derive(Debug, Clone)]
pub struct OrderEdge {
    /// Index into [`RunOrderReport::instances`] of the held lock.
    pub from: usize,
    /// Index into [`RunOrderReport::instances`] of the acquired lock.
    pub to: usize,
    /// Names of the threads observed making this acquisition.
    pub threads: BTreeSet<String>,
    /// Instances (beyond `from`) held on **every** observation — candidate
    /// gate locks.
    pub guards: BTreeSet<usize>,
    /// Vector clock of the first observation.
    pub clock: VectorClock,
}

/// Everything the recorder observed during one run.
#[derive(Debug, Clone, Default)]
pub struct RunOrderReport {
    /// The sync objects touched, in first-touch order.
    pub instances: Vec<LockInstance>,
    /// The acquired-while-holding edges, deduplicated per (from, to).
    pub edges: Vec<OrderEdge>,
}

struct ThreadState {
    name: String,
    clock: VectorClock,
    /// Currently held lock instances, innermost last (with re-entry counts
    /// collapsed by repetition).
    held: Vec<usize>,
}

/// The per-run recorder. Lives inside the kernel state and is driven by the
/// sync primitives and the virtual-lock layer, always under the kernel
/// state lock.
pub(crate) struct OrderRecorder {
    instances: Vec<LockInstance>,
    by_raw: HashMap<(Space, u64), usize>,
    threads: HashMap<u64, ThreadState>,
    /// Per-object clocks for true-ordering (non-lock) primitives.
    object_clocks: HashMap<usize, VectorClock>,
    edges: HashMap<(usize, usize), OrderEdge>,
    /// Per (kind, first-toucher) counter for anonymous-object keys.
    anon_seq: HashMap<(SyncKind, String), u64>,
}

impl OrderRecorder {
    pub(crate) fn new() -> OrderRecorder {
        OrderRecorder {
            instances: Vec::new(),
            by_raw: HashMap::new(),
            threads: HashMap::new(),
            object_clocks: HashMap::new(),
            edges: HashMap::new(),
            anon_seq: HashMap::new(),
        }
    }

    fn thread(&mut self, tid: u64, name: &str) -> &mut ThreadState {
        self.threads.entry(tid).or_insert_with(|| ThreadState {
            name: name.to_owned(),
            clock: VectorClock::default(),
            held: Vec::new(),
        })
    }

    /// Resolves (or creates) the instance for a raw object key.
    ///
    /// `label` is the primitive's diagnostic label. Anonymous objects
    /// ([`Label::Generated`]) get a key derived from the first thread that touched them and
    /// a per-(kind, thread) sequence number — stable across schedules as
    /// long as each thread touches its objects in a deterministic program
    /// order, which cooperative serialization guarantees per thread.
    fn intern(
        &mut self,
        space: Space,
        raw: u64,
        kind: SyncKind,
        label: &Label,
        toucher: &str,
    ) -> usize {
        if let Some(&i) = self.by_raw.get(&(space, raw)) {
            return i;
        }
        let (key, display) = if let Label::Generated = label {
            let seq = self.anon_seq.entry((kind, toucher.to_owned())).or_insert(0);
            *seq += 1;
            let key = format!("{kind}:@{toucher}#{seq}");
            (key.clone(), key)
        } else {
            (format!("{kind}:{label}"), format!("{kind} `{label}`"))
        };
        let idx = self.instances.len();
        self.instances.push(LockInstance {
            key,
            kind,
            label: display,
        });
        self.by_raw.insert((space, raw), idx);
        idx
    }

    /// The instance of the shim object at `addr`: anonymous, so keyed by
    /// its first toucher.
    pub(crate) fn intern_addr(&mut self, addr: usize, kind: SyncKind, toucher: &str) -> usize {
        self.intern(Space::Addr, addr as u64, kind, &Label::Generated, toucher)
    }

    /// The instance of an event on `res`, keyed by its label if it has one.
    pub(crate) fn intern_event(&mut self, res: &Resource, toucher: &str) -> usize {
        self.intern(
            Space::Resource,
            res.id,
            SyncKind::Event,
            &res.label,
            toucher,
        )
    }

    /// Forgets the instance of the destroyed shim object at `addr`, so a
    /// reused address becomes a fresh instance.
    pub(crate) fn forget_addr(&mut self, addr: usize) {
        self.by_raw.remove(&(Space::Addr, addr as u64));
    }

    /// Records that thread `tid` acquired lock `inst` (mutex/rwlock):
    /// emits order edges against everything currently held.
    pub(crate) fn acquired(&mut self, tid: u64, name: &str, inst: usize) {
        let t = self.thread(tid, name);
        let held = t.held.clone();
        let clock = t.clock.clone();
        let tname = t.name.clone();
        t.held.push(inst);
        for &from in &held {
            if from == inst {
                continue;
            }
            let guards: BTreeSet<usize> = held
                .iter()
                .copied()
                .filter(|&g| g != from && g != inst)
                .collect();
            match self.edges.get_mut(&(from, inst)) {
                Some(e) => {
                    e.threads.insert(tname.clone());
                    e.guards.retain(|g| guards.contains(g));
                }
                None => {
                    self.edges.insert(
                        (from, inst),
                        OrderEdge {
                            from,
                            to: inst,
                            threads: BTreeSet::from([tname.clone()]),
                            guards,
                            clock: clock.clone(),
                        },
                    );
                }
            }
        }
    }

    /// Records that thread `tid` released lock `inst` (innermost matching
    /// entry).
    pub(crate) fn released(&mut self, tid: u64, name: &str, inst: usize) {
        let t = self.thread(tid, name);
        if let Some(pos) = t.held.iter().rposition(|&h| h == inst) {
            t.held.remove(pos);
        }
    }

    /// True-ordering publish: the thread's history becomes visible to later
    /// acquirers of `inst` (event fire).
    pub(crate) fn publish(&mut self, tid: u64, name: &str, inst: usize) {
        let t = self.thread(tid, name);
        t.clock.tick(tid);
        let snapshot = t.clock.clone();
        self.object_clocks.entry(inst).or_default().join(&snapshot);
    }

    /// True-ordering acquire: the thread inherits the history published to
    /// `inst` (event wait-return).
    pub(crate) fn observe(&mut self, tid: u64, name: &str, inst: usize) {
        let obj = self.object_clocks.get(&inst).cloned().unwrap_or_default();
        let t = self.thread(tid, name);
        t.clock.join(&obj);
        t.clock.tick(tid);
    }

    /// Child thread inherits the parent's history at spawn.
    pub(crate) fn spawned(&mut self, parent: u64, parent_name: &str, child: u64, child_name: &str) {
        let pclock = {
            let p = self.thread(parent, parent_name);
            p.clock.tick(parent);
            p.clock.clone()
        };
        let c = self.thread(child, child_name);
        c.clock.join(&pclock);
        c.clock.tick(child);
    }

    /// Finalizes the run into its report.
    pub(crate) fn into_report(self) -> RunOrderReport {
        let mut edges: Vec<OrderEdge> = self.edges.into_values().collect();
        edges.sort_by_key(|e| (e.from, e.to));
        RunOrderReport {
            instances: self.instances,
            edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_clock_ordering() {
        let mut a = VectorClock::default();
        let mut b = VectorClock::default();
        a.tick(1);
        b.join(&a);
        b.tick(2);
        assert!(a.le(&b));
        assert!(!b.le(&a));
        assert!(a.comparable(&b));
        let mut c = VectorClock::default();
        c.tick(3);
        assert!(!c.comparable(&b), "independent histories are concurrent");
    }

    #[test]
    fn edges_carry_guard_intersection() {
        let mut r = OrderRecorder::new();
        let g = r.intern(Space::Addr, 1, SyncKind::Mutex, &Label::Static("gate"), "t");
        let a = r.intern(Space::Addr, 2, SyncKind::Mutex, &Label::Static("a"), "t");
        let b = r.intern(Space::Addr, 3, SyncKind::Mutex, &Label::Static("b"), "t");
        // t1: g, a, b — edge a→b guarded by g.
        r.acquired(1, "t1", g);
        r.acquired(1, "t1", a);
        r.acquired(1, "t1", b);
        r.released(1, "t1", b);
        r.released(1, "t1", a);
        r.released(1, "t1", g);
        // t2: a, b without g — guard intersection becomes empty.
        r.acquired(2, "t2", a);
        r.acquired(2, "t2", b);
        let rep = r.into_report();
        let ab = rep
            .edges
            .iter()
            .find(|e| e.from == a && e.to == b)
            .expect("edge a→b recorded");
        assert!(ab.guards.is_empty(), "guard set is the intersection");
        assert_eq!(ab.threads.len(), 2);
    }

    #[test]
    fn anonymous_keys_are_stable_per_toucher() {
        let mut r1 = OrderRecorder::new();
        let i1 = r1.intern_addr(0xdead, SyncKind::Mutex, "worker");
        let mut r2 = OrderRecorder::new();
        let i2 = r2.intern_addr(0xbeef, SyncKind::Mutex, "worker");
        assert_eq!(
            r1.instances[i1].key, r2.instances[i2].key,
            "key is independent of the address"
        );
    }

    #[test]
    fn destroyed_addresses_get_fresh_instances() {
        let mut r = OrderRecorder::new();
        let i1 = r.intern_addr(7, SyncKind::Mutex, "t");
        r.forget_addr(7);
        let i2 = r.intern_addr(7, SyncKind::Mutex, "t");
        assert_ne!(i1, i2);
    }
}
