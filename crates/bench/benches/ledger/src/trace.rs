//! Spans around the harness's own calls into each layer.
//!
//! One [`Tracer`] brackets every region of an iteration. It always hands
//! back the region's host time — that is how the end-to-end timings are
//! taken — but only a *traced* iteration pays for the rest: reading the
//! virtual clock, snapshotting the layers' public stats at both
//! boundaries, and keeping the span. Spans live in memory and are written
//! with the record when the run ends; the in-program tracing of ROADMAP
//! item 4 is a later change.

use std::time::Instant;

use rustwren_core::SimCloud;
use rustwren_sim::KernelStats;

use crate::json::Json;

/// One recorded region. Times are nanoseconds: host since the tracer was
/// created, virtual since the iteration's kernel started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    /// Spans of one iteration share this id.
    pub iteration: u32,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub virtual_start_ns: u64,
    pub virtual_end_ns: u64,
    /// What the layers' counters did between the two boundaries.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn host_secs(&self) -> f64 {
        (self.host_end_ns - self.host_start_ns) as f64 / 1e9
    }

    pub fn virtual_secs(&self) -> f64 {
        (self.virtual_end_ns - self.virtual_start_ns) as f64 / 1e9
    }

    pub fn to_json(&self, id: usize) -> Json {
        Json::obj([
            ("id", Json::from(id as u64)),
            ("name", Json::from(self.name)),
            (
                "parent",
                self.parent.map_or(Json::Null, |p| Json::from(p as u64)),
            ),
            ("iteration", Json::from(u64::from(self.iteration))),
            ("host_start_ns", Json::from(self.host_start_ns)),
            ("host_end_ns", Json::from(self.host_end_ns)),
            ("virtual_start_ns", Json::from(self.virtual_start_ns)),
            ("virtual_end_ns", Json::from(self.virtual_end_ns)),
            (
                "counts",
                Json::obj(self.counts.iter().map(|&(k, v)| (k, Json::from(v)))),
            ),
        ])
    }
}

/// Scheduler events a kernel has processed — every dispatch decision:
/// the definition of `sim.events` everywhere in the ledger.
pub fn kernel_events(stats: &KernelStats) -> u64 {
    stats.clock_advances + stats.timers_scheduled + stats.threads_started
}

/// The counters read at every span boundary of a traced iteration.
#[derive(Debug, Clone, Copy, Default)]
struct Snapshot {
    virtual_ns: u64,
    events: u64,
    threads_started: u64,
    submitted: u64,
    completed: u64,
    agent_ops: u64,
    agent_bytes: u64,
}

impl Snapshot {
    fn take(cloud: &SimCloud) -> Snapshot {
        let k = cloud.kernel().stats();
        let p = cloud.functions().stats();
        let a = cloud.functions().agent_op_counts();
        Snapshot {
            virtual_ns: cloud.kernel().now().as_nanos(),
            events: kernel_events(&k),
            threads_started: k.threads_started,
            submitted: p.submitted,
            completed: p.completed,
            agent_ops: a.total_ops(),
            agent_bytes: a.bytes_in + a.bytes_out,
        }
    }

    fn since(&self, start: &Snapshot) -> Vec<(&'static str, u64)> {
        vec![
            ("sim.events", self.events - start.events),
            (
                "sim.threads_started",
                self.threads_started - start.threads_started,
            ),
            ("faas.submitted", self.submitted - start.submitted),
            ("faas.completed", self.completed - start.completed),
            ("store.agent_ops", self.agent_ops - start.agent_ops),
            ("store.agent_bytes", self.agent_bytes - start.agent_bytes),
        ]
    }
}

/// The sum of many short calls made from another simulated thread (a
/// serving driver's `invoke_in`s): `busy_ns` is the host time actually
/// spent inside the `calls` calls, while the envelopes run from the first
/// call to the last.
#[derive(Debug, Clone, Copy)]
pub struct Total {
    pub envelope: (Instant, Instant),
    pub virtual_ns: (u64, u64),
    pub calls: u64,
    pub busy_ns: u64,
}

/// A region opened by [`Tracer::begin`] and not yet closed.
#[derive(Debug)]
pub struct Open {
    name: &'static str,
    started: Instant,
    /// Set only on a traced iteration.
    traced: Option<(usize, Snapshot)>,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    iteration: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: false,
            iteration: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Tracer {
    /// Starts the next iteration; its spans are kept only when `traced`.
    pub fn start_iteration(&mut self, traced: bool) {
        self.iteration += 1;
        self.enabled = traced;
        self.stack.clear();
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The traced spans called `name`, in the order they were opened.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Opens a region. `cloud` is `None` only before the iteration's cloud
    /// exists (the span then has no virtual clock or counters to read).
    pub fn begin(&mut self, name: &'static str, cloud: Option<&SimCloud>) -> Open {
        let traced = self.enabled.then(|| {
            let at = cloud.map(Snapshot::take).unwrap_or_default();
            let index = self.spans.len();
            self.spans.push(Span {
                name,
                parent: self.stack.last().copied(),
                iteration: self.iteration,
                host_start_ns: 0,
                host_end_ns: 0,
                virtual_start_ns: at.virtual_ns,
                virtual_end_ns: at.virtual_ns,
                counts: Vec::new(),
            });
            self.stack.push(index);
            (index, at)
        });
        // Read the host clock last on the way in and first on the way
        // out, so a traced span does not time its own bookkeeping.
        let started = Instant::now();
        Open {
            name,
            started,
            traced,
        }
    }

    /// Closes a region and returns its host time in seconds.
    pub fn end(&mut self, open: Open, cloud: Option<&SimCloud>) -> f64 {
        let ended = Instant::now();
        if let Some((index, at)) = open.traced {
            assert_eq!(
                self.stack.pop(),
                Some(index),
                "ledger bug: span `{}` closed out of order",
                open.name
            );
            let span = &mut self.spans[index];
            span.host_start_ns = (open.started - self.origin).as_nanos() as u64;
            span.host_end_ns = (ended - self.origin).as_nanos() as u64;
            if let Some(cloud) = cloud {
                let now = Snapshot::take(cloud);
                span.virtual_end_ns = now.virtual_ns;
                span.counts = now.since(&at);
            }
        }
        (ended - open.started).as_secs_f64()
    }

    /// Records a [`Total`] measured on another simulated thread.
    pub fn record_total(&mut self, name: &'static str, total: Total) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            iteration: self.iteration,
            host_start_ns: (total.envelope.0 - self.origin).as_nanos() as u64,
            host_end_ns: (total.envelope.1 - self.origin).as_nanos() as u64,
            virtual_start_ns: total.virtual_ns.0,
            virtual_end_ns: total.virtual_ns.1,
            counts: vec![("calls", total.calls), ("busy_ns", total.busy_ns)],
        });
    }
}
