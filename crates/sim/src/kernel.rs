//! The virtual-time kernel.
//!
//! A simulated process is a *waiter* registered with a [`Kernel`], on one of
//! two vehicles: a **real OS thread**, which may run arbitrary blocking
//! code, or a **lightweight task** ([`Kernel::spawn_light`]), a state machine
//! the dispatch loop polls inline and which suspends only by returning a
//! [`LightStep`]. Both share one waiter-id counter, one ready queue and one
//! timer heap, so which vehicle a process rides is invisible to scheduling —
//! including when it changes: a light task whose poll returns
//! [`LightStep::Thread`] is *promoted*, mid-turn, onto an OS thread that goes
//! on polling it, the one way to get one ([`Kernel::spawn`] asks at its first
//! poll; a [`Kernel::run`] caller brings its own). Each waiter is either
//! *runnable* (executing Rust code) or *blocked* (sleeping until a virtual
//! deadline, or waiting on a synchronization primitive from
//! [`crate::sync`]). Virtual time advances only when every waiter is
//! blocked: the kernel then pops the earliest pending timer, moves the clock
//! to its deadline, and wakes its waiter. Signals always wake waiters at the
//! *current* virtual instant.
//!
//! # Determinism: cooperative serialization
//!
//! The kernel runs **at most one simulated thread at a time**. A wake (timer
//! expiry, event fire, lock release) does not start the woken thread;
//! it appends the thread to a FIFO *ready queue*. Only when the currently
//! running thread blocks (or exits) does the kernel dispatch the next ready
//! thread; when the ready queue is empty it pops exactly one timer — the
//! earliest `(deadline, seq)` — and dispatches its waiter. Threads spawned
//! from inside the simulation likewise start parked and join the ready
//! queue.
//!
//! This cooperative hand-off makes the entire simulation a pure function of
//! program order: two threads due at the same virtual instant execute in
//! timer-sequence order, never concurrently, so lock-acquisition order,
//! resource-pool picks and id assignment can never depend on OS scheduling.
//! Same seed ⇒ bit-identical run, which is what lets the chaos engine
//! ([`crate::chaos`]) promise exact fault-timeline replay.
//!
//! Because a thread-backed process is an ordinary thread, arbitrary user
//! code — including code that spawns further simulated threads mid-flight —
//! runs unmodified inside the simulation. This is what lets the IBM-PyWren
//! composability features (functions that create executors and spawn
//! sub-jobs) execute inside simulated cloud functions. Code that only
//! charges time or waits on events needs no stack of its own and rides a
//! light task instead.
//!
//! # Deadlocks
//!
//! If every registered thread is blocked and no timer is pending, the
//! simulation can never progress. The kernel draws a **wait-for graph** for
//! exactly this moment: a blocked thread records the [`Resource`] it waits
//! on, and every thread carries its own list of *holds* (a shim lock, an
//! admission slot, the right to fire an event), pushed and popped by the
//! thread itself. Holders are read off the blocked threads, and labels off
//! the resources' own handles, only when the report is drawn: the kernel
//! keeps no registry, so a hold costs its thread a push and a pop, a new
//! event costs an id, and neither costs the kernel anything. On deadlock
//! the kernel panics with a diagnostic that lists each blocked thread, the
//! resource it waits on and that resource's holders — and, when the
//! blocked-on/held-by edges close a cycle, prints the cycle itself:
//!
//! ```text
//! simulation deadlock at t=1.234s: all 3 registered thread(s) are blocked and no timer is pending
//!   - thread `act-1` blocked on event.wait (event `act-2`, held by `act-2`)
//!   - thread `act-2` blocked on event.wait (admission `tenant-admission`, held by `act-1`)
//!   - thread `client` blocked on event.wait (event `act-1`, held by `act-1`)
//! wait-for cycle: `act-1` -[event `act-2`]-> `act-2` -[admission `tenant-admission`]-> `act-1`
//! ```
//!
//! Every blocked thread is woken into the panic (not just the thread that
//! detected the deadlock), so the report propagates out of [`Kernel::run`]
//! even when the detecting thread was a background activation.

use std::any::Any;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::pin;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::{self, Thread};
use std::time::Duration;

use parking_lot::hooks::LockOp;

use crate::order::{OrderRecorder, RunOrderReport, SyncKind};
use crate::rawlock::{RawMutex, RawMutexGuard};
use crate::sched::{Choice, ChoiceKind, FifoScheduler, ReplayScheduler, ScheduleTrace, Scheduler};
use crate::sync::Event;
use crate::task;
use crate::time::SimInstant;

thread_local! {
    static CURRENT: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
    /// Set while the dispatch loop is stepping a lightweight task on this
    /// OS thread. Guards against blocking kernel operations (which would
    /// wedge the dispatcher itself) and preemption probes (which would
    /// park the dispatcher where nothing wakes it).
    static IN_LIGHT_STEP: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

#[derive(Clone)]
struct ThreadCtx {
    kernel: Kernel,
    waiter: Arc<Waiter>,
}

/// One step of a lightweight task (see [`Kernel::spawn_light`]).
///
/// A lightweight task is a state machine driven by the kernel's dispatch
/// loop: each poll runs to the task's next suspension point and returns
/// how to proceed. Steps run inline on whichever OS thread is currently
/// dispatching, so they must not block — the only ways to suspend are to
/// return [`LightStep::Sleep`] or [`LightStep::Wait`], and the way to run
/// code that does block is to return [`LightStep::Thread`] first.
#[derive(Debug, Clone)]
pub enum LightStep {
    /// Re-poll after this much virtual time. A zero duration re-polls
    /// immediately (no timer is scheduled), mirroring how
    /// [`Kernel::sleep`] treats a zero-duration sleep as a no-op.
    Sleep(Duration),
    /// Re-poll once this event has fired: the task parks in the event's
    /// waiter list exactly as a thread inside [`Event::wait`] does (same
    /// FIFO wake position, same `event.wait` entry in deadlock reports).
    /// An event that has already fired re-polls immediately.
    Wait(Event),
    /// Re-poll at once, on an OS thread of the task's own: from this poll
    /// on the task may block. It keeps its waiter id and its turn — it is
    /// not re-queued — so the schedule is the one an all-thread run has;
    /// the polls continue under `run_blocking`, where this step is a
    /// no-op (the code already has its thread). Counted in
    /// [`KernelStats::os_threads_spawned`], not again in `threads_started`.
    Thread,
    /// The task is finished; the kernel forgets it.
    Done,
}

/// A registered lightweight task.
struct LightTask {
    /// The state-machine poll function.
    poll: Box<dyn FnMut() -> LightStep + Send>,
    /// The event the task parked on with [`LightStep::Wait`], re-checked
    /// before its next poll.
    parked_on: Option<Event>,
}

/// Per-thread parking slot shared between the thread and its wakers.
///
/// `name` is an interned `Arc<str>`: wait-for-graph edges and deadlock
/// reports clone the handle, never the string.
pub(crate) struct Waiter {
    id: u64,
    name: Arc<str>,
    /// The OS thread that runs this waiter's turns and parks in
    /// [`Kernel::park_until_released`] between them. `None` for a
    /// lightweight task: the dispatch loop polls its state machine inline
    /// instead of releasing it.
    thread: Option<Thread>,
    /// Counts in [`State::light_live`]: a light task, but not a
    /// [`Kernel::spawn`]ed one, which counts as its thread from the start.
    freezes: bool,
    sync: RawMutex<WaiterSync>,
    /// What this thread holds, in the order it took it. Only the thread
    /// itself pushes and pops; the deadlock report reads it under the
    /// state lock. A leaf lock: nothing takes the state lock under it.
    held: RawMutex<Vec<Held>>,
}

/// One hold of a thread, for the wait-for graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Held {
    /// The shim lock at this address. It maps to a resource only once
    /// someone has parked on the lock, which is the only time a report can
    /// need it.
    Lock(usize),
    /// A resource: an admission slot, the right to fire an event.
    Resource(u64),
}

#[derive(Default)]
struct WaiterSync {
    /// A wake was delivered and not yet consumed.
    notified: bool,
    /// The owning thread has decremented the runnable count and sits in
    /// `blocked` until a wake moves it to the ready queue.
    parked: bool,
    /// The dispatcher released this thread to run. A woken thread stays
    /// parked (in the ready queue) until released — this is what serializes
    /// execution to one simulated thread at a time.
    released: bool,
    /// The wake was a failure broadcast: the woken thread must re-raise the
    /// recorded report (a deadlock's, usually) instead of resuming.
    failed: bool,
}

impl Waiter {
    /// Stable identifier, used by primitives to deduplicate wait-queue
    /// entries under spurious wakes.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    fn new(id: u64, name: Arc<str>, thread: Option<Thread>, freezes: bool) -> Arc<Waiter> {
        Arc::new(Waiter {
            id,
            name,
            thread,
            freezes,
            sync: RawMutex::new(WaiterSync::default()),
            held: RawMutex::new(Vec::new()),
        })
    }

    /// Drops the latest of this thread's holds equal to `h`, if any.
    fn unhold(&self, h: Held) {
        let mut held = self.held.lock();
        if let Some(i) = held.iter().rposition(|x| *x == h) {
            held.remove(i);
        }
    }
}

/// Outcome of one dispatch attempt (see `Kernel::release_next_locked`).
enum Release {
    /// Ready queue empty — nothing to dispatch.
    None,
    /// This thread-backed waiter was released: its `released` flag is set,
    /// and its OS thread is woken once the state lock is dropped (see
    /// `Kernel::pass_turn`).
    Thread(Arc<Waiter>),
    /// A lightweight waiter was selected; the caller must poll its state
    /// machine inline.
    Light(Arc<Waiter>),
}

/// RAII scope for polling a lightweight task: swaps the calling OS
/// thread's simulation identity to the task and flags the poll so
/// blocking operations and preemption probes know a dispatcher is on the
/// stack. Restores both on drop (including during unwinding, so a
/// panicking poll leaves the dispatcher thread's identity intact).
struct LightScope {
    prev: Option<ThreadCtx>,
}

impl LightScope {
    fn enter(kernel: &Kernel, waiter: &Arc<Waiter>) -> LightScope {
        let prev = CURRENT.with(|c| {
            c.borrow_mut().replace(ThreadCtx {
                kernel: kernel.clone(),
                waiter: Arc::clone(waiter),
            })
        });
        IN_LIGHT_STEP.with(|f| f.set(true));
        LightScope { prev }
    }
}

impl Drop for LightScope {
    fn drop(&mut self) {
        IN_LIGHT_STEP.with(|f| f.set(false));
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

struct TimerEntry {
    deadline: u64,
    seq: u64,
    waiter: Arc<Waiter>,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

/// A node of the wait-for graph: anything a simulated thread can block on
/// while another thread is responsible for releasing it — a lock, an event's
/// fire.
///
/// Synchronization primitives make their own; simulation layers (like the
/// FaaS platform's container capacity) may make further ones with
/// [`Kernel::create_resource`] and record holds with
/// [`Kernel::hold_resource`] / [`Kernel::release_resource`]. The handle
/// carries its kind and label, and only a deadlock report or the lock-order
/// recorder renders them. The graph is purely diagnostic — it never affects
/// scheduling — but it is what lets a deadlock panic name the cycle instead
/// of just listing blocked threads.
#[derive(Debug, Clone)]
pub struct Resource {
    /// Allocated in program order: holds, exploration footprints and
    /// lock-order instances are keyed by it.
    pub(crate) id: u64,
    /// Resource kind, e.g. `"mutex"` or `"event"`.
    kind: &'static str,
    pub(crate) label: Label,
}

/// The instance label of a [`Resource`], kept as its parts.
#[derive(Debug, Clone)]
pub enum Label {
    /// None supplied: rendered `kind#id`. Its numbering varies across
    /// schedules, so the lock-order recorder keys the resource by its first
    /// toucher instead.
    Generated,
    /// A fixed label, e.g. `tenant-admission`.
    Static(&'static str),
    /// A prefix and a shared name, e.g. `join:` and a spawned task's name.
    Named(&'static str, Arc<str>),
}

impl From<&'static str> for Label {
    fn from(label: &'static str) -> Label {
        Label::Static(label)
    }
}

impl From<Arc<str>> for Label {
    fn from(label: Arc<str>) -> Label {
        Label::Named("", label)
    }
}

impl From<String> for Label {
    fn from(label: String) -> Label {
        Label::from(Arc::<str>::from(label))
    }
}

/// A supplied label as written; [`Label::Generated`] renders empty, its
/// `kind#id` being the [`Resource`]'s to render.
impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Generated => Ok(()),
            Label::Static(label) => f.write_str(label),
            Label::Named(prefix, name) => write!(f, "{prefix}{name}"),
        }
    }
}

/// ``kind `label` ``, as deadlock reports and wait-for cycles print it.
impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.label {
            Label::Generated => write!(f, "{0} `{0}#{1}`", self.kind, self.id),
            label => write!(f, "{} `{label}`", self.kind),
        }
    }
}

impl Resource {
    /// A resource with the next id of `ids`, the kernel's counter: an atomic,
    /// so an event is made without the state lock, and in program order,
    /// since simulated threads run one at a time.
    fn new(ids: &AtomicU64, kind: &'static str, label: Label) -> Resource {
        let id = ids.fetch_add(1, Ordering::Relaxed);
        Resource { id, kind, label }
    }
}

/// Virtualized shim lock (`parking_lot` `Mutex`/`RwLock`): threads parked in
/// the kernel waiting to retry a contended acquisition.
struct VlockEntry {
    res: Resource,
    /// Arrival-order queue of threads to wake (all at once) on release.
    waiters: VecDeque<Arc<Waiter>>,
}

/// Diagnostic record for one blocked thread.
struct BlockedInfo {
    waiter: Arc<Waiter>,
    /// The blocking operation, e.g. `"event.wait"`.
    reason: &'static str,
    /// The resource being waited on, when the primitive has one.
    resource: Option<Resource>,
}

pub(crate) struct State {
    now: u64,
    next_waiter_id: u64,
    timer_seq: u64,
    /// Registered threads currently executing (not blocked). Under
    /// cooperative serialization this is 0 or 1 except for externally
    /// entered threads ([`Kernel::run`] callers).
    runnable: usize,
    /// Registered threads total (runnable + blocked).
    live: usize,
    /// Of `live`, how many are lightweight tasks that freeze
    /// ([`Waiter::freezes`]). When `live == light_live` no thread-backed
    /// work remains: the dispatch loop stops and any remaining light tasks
    /// freeze (there is no observer left — the analogue of background OS
    /// threads dying at process exit).
    light_live: usize,
    /// Threads woken (or freshly spawned) but not yet dispatched, in
    /// deterministic FIFO order.
    ready: VecDeque<Arc<Waiter>>,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    /// waiter id → what it is blocked on, for deadlock diagnostics.
    // BTreeMap so the deadlock report and wake-all broadcast iterate in
    // waiter-id order, independent of the hasher.
    blocked: BTreeMap<u64, BlockedInfo>,
    /// Set once the simulation has failed — a deadlock was detected, or the
    /// poll of a promoted task panicked with nobody to hand the panic to;
    /// every thread that wakes or blocks afterwards panics with this report.
    failure: Option<Arc<str>>,
    stats: KernelStats,
    /// The active scheduling policy (default: [`FifoScheduler`]).
    scheduler: Box<dyn Scheduler>,
    /// Cached `scheduler.exploring()`; gates all choice-point accounting.
    exploring: bool,
    /// Global choice-point counter (see [`crate::sched`]).
    choice_step: u64,
    /// Non-default decisions made so far — the replay trace. Kept behind
    /// an `Arc` so [`Kernel::schedule_trace`] is a cheap snapshot; the
    /// recording sites copy-on-write only while a snapshot is live.
    trace: Arc<ScheduleTrace>,
    /// waiter id → lightweight-task state machine, for waiters spawned
    /// with [`Kernel::spawn_light`]. The task is taken out of the map
    /// while a step runs (the state lock is dropped during it).
    light_tasks: HashMap<u64, LightTask>,
    /// Sync-resource tokens touched since the last choice point (the
    /// running segment's footprint, for independence-based pruning).
    segment: Vec<u64>,
    /// Lock-order recorder, present while recording is enabled.
    order: Option<OrderRecorder>,
    /// addr → virtualized shim-lock state, for the locks someone parked on
    /// (and, while exploring or recording, for every lock touched).
    vlocks: HashMap<usize, VlockEntry>,
}

impl State {
    /// Schedules a timer that wakes `waiter` after `d` of virtual time.
    ///
    /// # Panics
    ///
    /// Panics, before anything is registered, if the deadline is beyond the
    /// virtual clock's range ([`SimInstant`]'s `+`).
    fn schedule_timer(&mut self, d: Duration, waiter: &Arc<Waiter>) {
        let deadline = (SimInstant::from_nanos(self.now) + d).as_nanos();
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.stats.timers_scheduled += 1;
        self.timers.push(Reverse(TimerEntry {
            deadline,
            seq,
            waiter: Arc::clone(waiter),
        }));
    }

    /// Registers the lightweight task `poll`, parked in the ready queue, as
    /// a child of `parent` (see [`Kernel::spawn_light`]) that counts in
    /// `light_live` if it `freezes`.
    fn spawn_light(
        &mut self,
        name: Arc<str>,
        parent: Option<Arc<Waiter>>,
        freezes: bool,
        poll: impl FnMut() -> LightStep + Send + 'static,
    ) {
        self.live += 1;
        self.light_live += usize::from(freezes);
        self.stats.threads_started += 1;
        let id = self.next_waiter_id;
        self.next_waiter_id += 1;
        let waiter = Waiter::new(id, Arc::clone(&name), None, freezes);
        if let (Some(p), Some(order)) = (&parent, self.order.as_mut()) {
            // Happens-before: the task inherits the spawner's history.
            order.spawned(p.id, &p.name, id, &name);
        }
        waiter.sync.lock().notified = true;
        self.ready.push_back(waiter);
        self.light_tasks.insert(
            id,
            LightTask {
                poll: Box::new(poll),
                parked_on: None,
            },
        );
    }

    /// Appends `res` to the running segment's footprint (exploring only).
    pub(crate) fn touch(&mut self, res: u64) {
        if self.exploring {
            self.segment.push(res);
        }
    }

    /// Records a true-ordering publish on `res` (event fire): `w`'s history
    /// becomes visible to later observers.
    pub(crate) fn rec_publish(&mut self, res: &Resource, w: &Waiter) {
        self.touch(res.id);
        if let Some(order) = self.order.as_mut() {
            let inst = order.intern_event(res, &w.name);
            order.publish(w.id, &w.name, inst);
        }
    }

    /// Records a true-ordering observe on `res` (event wait-return): `w`
    /// inherits the published history.
    pub(crate) fn rec_observe(&mut self, res: &Resource, w: &Waiter) {
        self.touch(res.id);
        if let Some(order) = self.order.as_mut() {
            let inst = order.intern_event(res, &w.name);
            order.observe(w.id, &w.name, inst);
        }
    }

    /// The entry of the virtualized shim lock at `addr`, made on first
    /// touch with a resource id from `ids`.
    fn vlock_locked(&mut self, addr: usize, op: LockOp, ids: &AtomicU64) -> &mut VlockEntry {
        self.vlocks.entry(addr).or_insert_with(|| VlockEntry {
            res: Resource::new(ids, lockop_kind(op), Label::Generated),
            waiters: VecDeque::new(),
        })
    }

    fn vrec_acquired(&mut self, addr: usize, res: u64, op: LockOp, w: &Waiter) {
        self.touch(res);
        if let Some(order) = self.order.as_mut() {
            let inst = order.intern_addr(addr, lockop_sync(op), &w.name);
            order.acquired(w.id, &w.name, inst);
        }
    }

    fn vrec_released(&mut self, addr: usize, res: u64, op: LockOp, w: &Waiter) {
        self.touch(res);
        if let Some(order) = self.order.as_mut() {
            let inst = order.intern_addr(addr, lockop_sync(op), &w.name);
            order.released(w.id, &w.name, inst);
        }
    }
}

/// The wait-for-graph resource kind of a shim lock operation.
fn lockop_kind(op: LockOp) -> &'static str {
    match op {
        LockOp::Mutex => "mutex",
        LockOp::RwRead | LockOp::RwWrite => "rwlock",
    }
}

/// The blocking reason shown in deadlock reports for a shim lock operation.
fn lockop_reason(op: LockOp) -> &'static str {
    match op {
        LockOp::Mutex => "mutex.lock",
        LockOp::RwRead => "rwlock.read",
        LockOp::RwWrite => "rwlock.write",
    }
}

/// The lock-order recorder class of a shim lock operation.
fn lockop_sync(op: LockOp) -> SyncKind {
    match op {
        LockOp::Mutex => SyncKind::Mutex,
        LockOp::RwRead | LockOp::RwWrite => SyncKind::RwLock,
    }
}

/// Counters describing kernel activity, for tests and reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Number of times the clock advanced to a new timer deadline.
    pub clock_advances: u64,
    /// Total timers scheduled via sleeps.
    pub timers_scheduled: u64,
    /// Total simulated threads ever spawned or entered (lightweight tasks
    /// count: they are simulated threads without the OS thread).
    pub threads_started: u64,
    /// Lightweight-task state-machine polls run inline on the dispatch
    /// loop (one per [`Kernel::spawn`]: the poll that asks for its thread).
    pub light_polls: u64,
    /// OS threads actually created: promotions ([`LightStep::Thread`], one
    /// per [`Kernel::spawn`]) and nothing else.
    pub os_threads_spawned: u64,
    /// Dispatches that passed the turn from one OS thread to another: each
    /// costs a wake of the next thread and a park of the one that blocked.
    /// A thread released by its own dispatch loop (the one it ran when it
    /// blocked) keeps running and is not counted, nor is a promotion.
    pub thread_handoffs: u64,
    /// `parking_lot` shim-lock acquisitions by simulated threads.
    pub lock_acquisitions: u64,
    /// Simulated threads parked in virtual time on a contended shim lock.
    pub lock_parks: u64,
}

/// [`Inner::flags`] bit: an exploring scheduler is installed.
const FLAG_EXPLORING: u8 = 1;
/// Set once a chaos engine is installed, so the per-request
/// [`Kernel::chaos`] probe is a single atomic load in the common
/// no-chaos case instead of a mutex acquisition.
const FLAG_CHAOS: u8 = 2;
/// [`Inner::flags`] bit: lock-order recording is on.
const FLAG_RECORDING: u8 = 4;

/// Stack size of every simulated thread. Large fan-out experiments spawn
/// thousands of threads; 1 MiB keeps address-space usage modest.
const STACK_SIZE: usize = 1 << 20;

struct Inner {
    state: RawMutex<State>,
    chaos: RawMutex<Option<Arc<crate::chaos::ChaosEngine>>>,
    /// Lock-free mirror of scheduler and recording mode, checked by
    /// preemption probes and shim-lock hooks before taking the state lock.
    /// The exploring and recording bits are mutated only under it.
    flags: AtomicU8,
    /// Entries in the shim locks' wait queues ([`VlockEntry::waiters`]);
    /// changed only under the state lock. While it is zero and the flags
    /// observe nothing, a shim-lock acquisition or release has no one to
    /// tell and stays off the state lock. `Relaxed` is enough: a thread
    /// that parked raised it under the state lock, the dispatcher that next
    /// takes that lock writes the released thread's `released` under its
    /// `sync` lock, and the released thread takes that lock to read the
    /// flag before it returns; a light task runs on the dispatcher itself.
    /// Locks order all of it; the wake-up signal carries no ordering.
    parked_on_locks: AtomicUsize,
    /// [`KernelStats::lock_acquisitions`], counted off the state lock.
    lock_acquisitions: AtomicU64,
    /// The next resource id (see [`Resource::new`]).
    next_resource_id: AtomicU64,
}

/// A deterministic virtual-time kernel. Cheap to clone (shared handle).
///
/// # Examples
///
/// ```
/// use rustwren_sim::Kernel;
/// use std::time::Duration;
///
/// let kernel = Kernel::new();
/// let elapsed = kernel.clone().run("client", move || {
///     let start = rustwren_sim::now();
///     let child = rustwren_sim::spawn("child", || {
///         rustwren_sim::sleep(Duration::from_secs(50));
///         7
///     });
///     assert_eq!(child.join(), 7);
///     rustwren_sim::now() - start
/// });
/// assert_eq!(elapsed, Duration::from_secs(50));
/// ```
#[derive(Clone)]
pub struct Kernel {
    inner: Arc<Inner>,
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("Kernel")
            .field("now", &SimInstant::from_nanos(st.now))
            .field("live", &st.live)
            .field("runnable", &st.runnable)
            .field("pending_timers", &st.timers.len())
            .finish()
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

impl Kernel {
    /// Creates a kernel.
    ///
    /// When the `RUSTWREN_SCHEDULE` environment variable holds a `v1:` trace
    /// token (printed by schedule exploration on failure), the kernel starts
    /// with a [`ReplayScheduler`] for it, reproducing that exact schedule.
    ///
    /// # Panics
    ///
    /// Panics if `RUSTWREN_SCHEDULE` is set but malformed.
    pub fn new() -> Kernel {
        let kernel = Kernel {
            inner: Arc::new(Inner {
                state: RawMutex::new(State {
                    now: 0,
                    next_waiter_id: 0,
                    timer_seq: 0,
                    runnable: 0,
                    live: 0,
                    light_live: 0,
                    ready: VecDeque::new(),
                    timers: BinaryHeap::new(),
                    blocked: BTreeMap::new(),
                    failure: None,
                    stats: KernelStats::default(),
                    scheduler: Box::new(FifoScheduler),
                    exploring: false,
                    choice_step: 0,
                    trace: Arc::new(ScheduleTrace::default()),
                    light_tasks: HashMap::new(),
                    segment: Vec::new(),
                    order: None,
                    vlocks: HashMap::new(),
                }),
                chaos: RawMutex::new(None),
                flags: AtomicU8::new(0),
                parked_on_locks: AtomicUsize::new(0),
                lock_acquisitions: AtomicU64::new(0),
                next_resource_id: AtomicU64::new(0),
            }),
        };
        crate::vlock::install();
        if let Ok(token) = std::env::var("RUSTWREN_SCHEDULE") {
            if !token.is_empty() {
                let replay = ReplayScheduler::from_token(&token)
                    .unwrap_or_else(|e| panic!("invalid RUSTWREN_SCHEDULE: {e}"));
                kernel.set_scheduler(Box::new(replay));
            }
        }
        kernel
    }

    /// Installs a scheduling policy and resets choice-point accounting (step
    /// counter, replay trace, segment footprint). Call between runs, on an
    /// idle kernel; the policy applies to every subsequent dispatch.
    pub fn set_scheduler(&self, scheduler: Box<dyn Scheduler>) {
        let exploring = scheduler.exploring();
        let mut st = self.inner.state.lock();
        st.scheduler = scheduler;
        st.exploring = exploring;
        st.choice_step = 0;
        st.trace = Arc::new(ScheduleTrace::default());
        st.segment.clear();
        self.set_flag(FLAG_EXPLORING, exploring);
    }

    fn set_flag(&self, flag: u8, on: bool) {
        if on {
            self.inner.flags.fetch_or(flag, Ordering::Relaxed);
        } else {
            self.inner.flags.fetch_and(!flag, Ordering::Relaxed);
        }
    }

    pub(crate) fn is_exploring(&self) -> bool {
        self.inner.flags.load(Ordering::Relaxed) & FLAG_EXPLORING != 0
    }

    /// The non-default scheduling decisions made since the scheduler was
    /// installed — the sparse replay trace. Empty under [`FifoScheduler`].
    ///
    /// Returns a shared snapshot: the call is one `Arc` clone, not a deep
    /// copy of the trace. Recording after the snapshot copies-on-write, so
    /// the snapshot stays frozen at the moment it was taken.
    pub fn schedule_trace(&self) -> Arc<ScheduleTrace> {
        Arc::clone(&self.inner.state.lock().trace)
    }

    /// Starts (or restarts) lock-order recording: every instrumented lock
    /// acquisition and true-ordering operation from now on feeds a per-run
    /// order graph. See [`crate::order`].
    pub fn record_lock_orders(&self) {
        let mut st = self.inner.state.lock();
        st.order = Some(OrderRecorder::new());
        self.set_flag(FLAG_RECORDING, true);
    }

    /// Finalizes lock-order recording and returns the run's report, or
    /// `None` when recording was never started.
    pub fn take_order_report(&self) -> Option<RunOrderReport> {
        let mut st = self.inner.state.lock();
        self.set_flag(FLAG_RECORDING, false);
        st.order.take().map(OrderRecorder::into_report)
    }

    /// Installs a fault-injection engine on this kernel. Substrates running
    /// on the kernel's simulated threads reach it via
    /// [`chaos::current`](crate::chaos::current). Installing replaces any
    /// previous engine.
    pub fn install_chaos(&self, engine: Arc<crate::chaos::ChaosEngine>) {
        *self.inner.chaos.lock() = Some(engine);
        self.inner.flags.fetch_or(FLAG_CHAOS, Ordering::Relaxed);
    }

    /// The fault-injection engine installed on this kernel, if any.
    /// Lock-free `None` when no engine was ever installed — the common
    /// case, probed once per simulated store/network request.
    pub fn chaos(&self) -> Option<Arc<crate::chaos::ChaosEngine>> {
        if self.inner.flags.load(Ordering::Relaxed) & FLAG_CHAOS == 0 {
            return None;
        }
        self.inner.chaos.lock().clone()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimInstant {
        SimInstant::from_nanos(self.inner.state.lock().now)
    }

    /// Kernel activity counters.
    pub fn stats(&self) -> KernelStats {
        KernelStats {
            lock_acquisitions: self.inner.lock_acquisitions.load(Ordering::Relaxed),
            ..self.inner.state.lock().stats
        }
    }

    /// Number of registered simulated threads (runnable + blocked).
    pub fn live_threads(&self) -> usize {
        self.inner.state.lock().live
    }

    /// A new resource for wait-for-graph deadlock diagnostics. Takes no
    /// lock and registers nothing.
    ///
    /// `kind` is the resource class (`"event"`, `"capacity"`, ...); `label`
    /// names the instance ([`Label::Generated`] renders as `kind#N`).
    pub fn create_resource(&self, kind: &'static str, label: impl Into<Label>) -> Resource {
        Resource::new(&self.inner.next_resource_id, kind, label.into())
    }

    /// Records a hold of `res` on the current thread, so deadlock reports
    /// can point at it. Purely diagnostic; a no-op when the calling thread is
    /// not simulated (or registered with a different kernel).
    pub fn hold_resource(&self, res: &Resource) {
        self.with_own_waiter(|w| w.held.lock().push(Held::Resource(res.id)));
    }

    /// Drops one of the current thread's holds of `res`. A no-op when the
    /// calling thread is not simulated (or registered with a different
    /// kernel): such a thread recorded no hold to drop, and a hold another
    /// thread recorded is that thread's to drop.
    pub fn release_resource(&self, res: &Resource) {
        self.with_own_waiter(|w| w.unhold(Held::Resource(res.id)));
    }

    /// Applies `f` to the current thread's waiter when the thread is
    /// registered with this kernel, without cloning the thread context.
    pub(crate) fn with_own_waiter(&self, f: impl FnOnce(&Waiter)) {
        try_with_current(|k, w| {
            if k.same_as(self) {
                f(w);
            }
        });
    }

    /// Registers the calling OS thread as a simulated thread named `name`,
    /// runs `f`, then deregisters. This is the entry point of a simulation:
    /// the closure plays the role of the IBM-PyWren *client*.
    ///
    /// # Panics
    ///
    /// Panics if the calling thread is already registered with a kernel, or
    /// if the simulation deadlocks while `f` (or anything it spawned) runs.
    pub fn run<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        CURRENT.with(|c| {
            assert!(
                c.borrow().is_none(),
                "Kernel::run: thread is already registered with a kernel"
            );
        });
        let waiter = {
            let mut st = self.inner.state.lock();
            st.live += 1;
            st.runnable += 1;
            st.stats.threads_started += 1;
            let id = st.next_waiter_id;
            st.next_waiter_id += 1;
            Waiter::new(id, Arc::from(name), Some(thread::current()), false)
        };
        CURRENT.with(|c| {
            *c.borrow_mut() = Some(ThreadCtx {
                kernel: self.clone(),
                waiter: Arc::clone(&waiter),
            })
        });
        let result = panic::catch_unwind(AssertUnwindSafe(f));
        CURRENT.with(|c| *c.borrow_mut() = None);
        self.deregister(&waiter);
        match result {
            Ok(v) => v,
            Err(p) => panic::resume_unwind(self.augment_panic(p)),
        }
    }

    /// Appends the schedule replay token to a string panic payload when an
    /// exploring scheduler is installed, so every failure a schedule
    /// explorer provokes carries its own reproduction recipe.
    fn augment_panic(&self, payload: Box<dyn Any + Send>) -> Box<dyn Any + Send> {
        if !self.is_exploring() {
            return payload;
        }
        match panic_text(payload.as_ref()) {
            Some(mut s) if !s.contains("RUSTWREN_SCHEDULE=") => {
                let token = self.inner.state.lock().trace.token();
                let _ = write!(s, "\nschedule: RUSTWREN_SCHEDULE={token}");
                Box::new(s)
            }
            _ => payload,
        }
    }

    /// Spawns a simulated thread running `f` and returns a join handle.
    ///
    /// A lightweight task whose first poll asks for its thread: it starts
    /// *parked* in the ready queue, whoever spawns it, and runs (at the
    /// current virtual instant) once the dispatcher reaches it — preserving
    /// one-thread-at-a-time determinism. Until then it counts as a thread:
    /// it never freezes, and outlives a spawner that does not join it.
    pub fn spawn<T, F>(&self, name: impl Into<String>, f: F) -> SimJoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.spawn_joinable(name.into(), false, async move {
            task::thread().await;
            f()
        })
    }

    /// Starts `body` as a lightweight task that may freeze ([`Waiter::freezes`])
    /// and returns the handle that joins it: the one join of
    /// [`Kernel::spawn`] and [`fan_out`]'s lanes. The task holds its
    /// `join:{name}` event (a stuck one shows in wait-for cycles), runs
    /// `body` with its panics caught, fills the slot and fires.
    fn spawn_joinable<T: Send + 'static>(
        &self,
        name: String,
        freezes: bool,
        body: impl Future<Output = T> + Send + 'static,
    ) -> SimJoinHandle<T> {
        let name: Arc<str> = name.into();
        let done = Event::named(self, Label::Named("join:", Arc::clone(&name)));
        let slot = Arc::new(RawMutex::new(None));
        let (fired, filled) = (done.clone(), Arc::clone(&slot));
        let parent = try_current_waiter(self);
        // lint: allow(L008) — false positives of name-based dispatch: the
        // slot's `RawMutex::lock` resolves onto the shim's Mutex::lock, and
        // `Event::fire`'s exploration-only probe (which stands down in a
        // light poll) onto Event::wait. What `body` does is its caller's:
        // `spawn`'s asks for a thread first, and a lane's blocking call is
        // refused by the kernel and re-raised by the joiner. Guarded by
        // fan_out_reraises_a_lane_panic_in_the_joiner
        self.inner.state.lock().spawn_light(
            name,
            parent,
            freezes,
            task::light(async move {
                fired.mark_holder();
                let result = task::catch_unwind(pin!(body)).await;
                *filled.lock() = Some(result);
                fired.fire();
            }),
        );
        SimJoinHandle { done, slot }
    }

    /// Spawns a *lightweight* simulated task: a state machine polled
    /// inline by the kernel's dispatch loop, with **no OS thread** behind
    /// it.
    ///
    /// The task occupies exactly the same scheduling slots a thread would —
    /// it gets a waiter id from the same counter, joins the ready queue at
    /// the same position, counts in [`KernelStats::threads_started`],
    /// schedules timers through the same heap, and appears in deadlock
    /// reports while sleeping — so FIFO order, `RUSTWREN_SCHEDULE` tokens
    /// and exploring schedulers see the identical choice points. What
    /// changes is purely the execution mechanism: instead of a wake, a park
    /// and an OS context switch per step, the dispatcher calls `f` directly.
    ///
    /// Each poll must run to the task's next suspension point and return a
    /// [`LightStep`]: `Sleep(d)` schedules a timer and re-polls once it
    /// fires (zero duration re-polls immediately, like a zero-duration
    /// [`Kernel::sleep`]); `Wait(event)` parks the task on the event and
    /// re-polls once it fires (immediately if it already has); `Thread`
    /// re-polls at once on an OS thread of the task's own; `Done`
    /// retires the task. Because polls run on the dispatching OS thread, a
    /// poll must **never block** — calling any blocking kernel operation
    /// (sleep, event wait, lock a contended shim lock, …) from inside a
    /// poll panics with a diagnostic, before the operation registers
    /// anything. Code that blocks inside calls it does not own returns
    /// `Thread` first, as every [`Kernel::spawn`]ed closure does at its
    /// first poll. A poll that panics fails the whole run with its message,
    /// like a deadlock.
    ///
    /// May be called from inside or outside the simulation; either way the
    /// task starts parked in the ready queue and first polls when the
    /// dispatcher reaches it. A light task still pending when the last
    /// thread-backed waiter exits freezes — the analogue of a detached
    /// background thread dying at process exit — so immortal pollers
    /// cannot wedge [`Kernel::run`]'s return. Frozen tasks stay registered:
    /// [`Kernel::frozen_light_tasks`] lists them, and they resume under the
    /// next [`Kernel::run`].
    pub fn spawn_light(
        &self,
        name: impl Into<Arc<str>>,
        f: impl FnMut() -> LightStep + Send + 'static,
    ) {
        let parent = try_current_waiter(self);
        let mut st = self.inner.state.lock();
        st.spawn_light(name.into(), parent, true, f);
    }

    /// Names of the lightweight tasks still registered, in waiter-id (spawn)
    /// order. Called after [`Kernel::run`] returns, this is what froze at
    /// exit: work that was started and that nobody waited for.
    pub fn frozen_light_tasks(&self) -> Vec<String> {
        let st = self.inner.state.lock();
        let mut tasks: Vec<(u64, &Arc<str>)> = st
            .blocked
            .values()
            .map(|b| &b.waiter)
            .chain(&st.ready)
            .filter(|w| w.freezes)
            .map(|w| (w.id, &w.name))
            .collect();
        tasks.sort_unstable_by_key(|&(id, _)| id);
        tasks
            .into_iter()
            .map(|(_, name)| name.to_string())
            .collect()
    }

    /// Suspends the current simulated thread for `d` of virtual time.
    ///
    /// This is also how simulated *compute* is modeled: CPU-bound work runs
    /// for real, then charges its modeled duration by sleeping.
    ///
    /// # Panics
    ///
    /// Panics if the calling thread is not registered with this kernel.
    pub fn sleep(&self, d: Duration) {
        if d.is_zero() {
            return;
        }
        deny_blocking_in_light_step("sleep");
        let waiter = current_ctx("Kernel::sleep").waiter;
        self.inner.state.lock().schedule_timer(d, &waiter);
        self.block_current_with(&waiter, None, "sleep");
    }

    /// Blocks the current thread until some primitive wakes its waiter.
    ///
    /// Internal: synchronization primitives register the waiter in their own
    /// queues first, then call this. `resource` is the wait-for-graph edge:
    /// the resource whose release this thread is waiting for, if any.
    pub(crate) fn block_current(&self, resource: Option<Resource>, reason: &'static str) {
        let ctx = current_ctx("block");
        assert!(
            Arc::ptr_eq(&ctx.kernel.inner, &self.inner),
            "thread registered with a different kernel"
        );
        self.block_current_with(&ctx.waiter, resource, reason);
    }

    fn block_current_with(
        &self,
        waiter: &Arc<Waiter>,
        resource: Option<Resource>,
        reason: &'static str,
    ) {
        {
            let mut st = self.inner.state.lock();
            if let Some(report) = &st.failure {
                // The simulation already failed; refuse to park forever.
                panic!("{report}");
            }
            {
                let mut ws = waiter.sync.lock();
                if ws.notified {
                    // A wake raced in before we could park; consume it.
                    ws.notified = false;
                    return;
                }
                ws.parked = true;
            }
            st.runnable -= 1;
            st.blocked.insert(
                waiter.id,
                BlockedInfo {
                    waiter: Arc::clone(waiter),
                    reason,
                    resource,
                },
            );
            self.pass_turn(st, Some(waiter));
        }
        if Self::park_until_released(waiter) {
            let report = self
                .inner
                .state
                .lock()
                .failure
                .clone()
                .expect("failure broadcast without a recorded report");
            panic!("{report}");
        }
    }

    /// Wakes `waiter` at the current virtual instant. Must be called with the
    /// kernel state lock held.
    ///
    /// The waiter does not start running: if parked, it moves to the ready
    /// queue and runs only when [`release_next_locked`] dispatches it — one
    /// simulated thread at a time, in deterministic FIFO order.
    ///
    /// [`release_next_locked`]: Kernel::release_next_locked
    pub(crate) fn wake_locked(st: &mut State, waiter: &Arc<Waiter>) {
        let mut ws = waiter.sync.lock();
        if ws.notified {
            return;
        }
        ws.notified = true;
        if ws.parked {
            ws.parked = false;
            st.blocked.remove(&waiter.id);
            st.ready.push_back(Arc::clone(waiter));
        }
    }

    /// Dispatches the next ready task, if any. Must be called with the
    /// kernel state lock held.
    ///
    /// With an exploring scheduler installed and ≥ 2 ready tasks, this is
    /// a *Ready* choice point: the scheduler picks which task runs. The
    /// default (index 0, queue front) reproduces historical FIFO dispatch.
    /// Either kind of waiter is handed back to the caller ([`Kernel::drive`]):
    /// a thread-backed one marked released, for its thread to be woken once
    /// the state lock drops; a lightweight one to be polled inline.
    fn release_next_locked(st: &mut State) -> Release {
        if st.ready.is_empty() {
            return Release::None;
        }
        let idx = if st.exploring && st.ready.len() > 1 {
            let candidates: Vec<u64> = st.ready.iter().map(|w| w.id).collect();
            let segment = std::mem::take(&mut st.segment);
            let step = st.choice_step;
            st.choice_step += 1;
            let picked = st
                .scheduler
                .choose(&Choice {
                    kind: ChoiceKind::Ready,
                    step,
                    candidates: &candidates,
                    segment: &segment,
                })
                .min(candidates.len() - 1);
            if picked != 0 {
                Arc::make_mut(&mut st.trace).record(step, ChoiceKind::Ready, picked);
            }
            picked
        } else {
            0
        };
        let w = st.ready.remove(idx).expect("index in range");
        if w.thread.is_none() {
            w.sync.lock().notified = false;
            return Release::Light(w);
        }
        st.runnable += 1;
        w.sync.lock().released = true;
        Release::Thread(w)
    }

    /// Runs the dispatch loop until a thread-backed waiter is runnable —
    /// polling lightweight tasks inline and advancing the clock as needed.
    ///
    /// Also stops when *only* lightweight tasks remain live (`live ==
    /// light_live`, including zero): with no thread-backed observer left,
    /// further progress would be unobservable, and an immortal light
    /// poller must not wedge [`Kernel::deregister`]. Remaining light tasks
    /// simply freeze, like background OS threads at process exit. While a
    /// thread-backed caller is blocked (not deregistered) it counts in
    /// `live`, so for it the condition reduces to `runnable > 0`.
    ///
    /// Returns the thread-backed waiter it released, if it released one
    /// (rather than promoting a light task, or stopping with only light
    /// tasks left): the caller wakes it, after dropping the state lock.
    fn drive<'a>(
        &'a self,
        mut st: RawMutexGuard<'a, State>,
    ) -> (RawMutexGuard<'a, State>, Option<Arc<Waiter>>) {
        loop {
            if st.runnable > 0 || st.live == st.light_live {
                return (st, None);
            }
            match Self::release_next_locked(&mut st) {
                Release::Thread(w) => return (st, Some(w)),
                Release::Light(w) => st = self.run_light_step(st, &w),
                Release::None => Self::advance_locked(&mut st),
            }
        }
    }

    /// Runs the dispatch loop for `me`, which has just given up its turn
    /// (`None`: a thread leaving the simulation), and wakes the thread it
    /// released. The wake comes after the state lock drops, so the woken
    /// thread does not wake into a held lock. There is no wake when the
    /// released thread is `me`: it finds `released` set in
    /// [`Kernel::park_until_released`] and runs on without parking.
    fn pass_turn(&self, st: RawMutexGuard<'_, State>, me: Option<&Arc<Waiter>>) {
        let (mut st, released) = self.drive(st);
        let Some(next) = released.filter(|w| me.is_none_or(|me| !Arc::ptr_eq(me, w))) else {
            return;
        };
        st.stats.thread_handoffs += 1;
        drop(st);
        if let Some(thread) = &next.thread {
            thread.unpark();
        }
    }

    /// Parks the calling thread, the one behind `waiter`, until a dispatch
    /// releases it, and consumes the release. Returns whether the release
    /// was a failure broadcast. `released` is re-checked under `sync` after
    /// every return from `park`, so a wake that comes early (before the
    /// thread parks) or late (meant for an earlier turn), and a spurious
    /// one, are all harmless.
    fn park_until_released(waiter: &Waiter) -> bool {
        loop {
            {
                let mut ws = waiter.sync.lock();
                if ws.released {
                    ws.released = false;
                    ws.notified = false;
                    debug_assert!(!ws.parked, "dispatch must clear `parked`");
                    return std::mem::take(&mut ws.failed);
                }
            }
            thread::park();
        }
    }

    /// Polls the lightweight task behind `w` once (re-polling immediately
    /// on zero-duration sleeps and already-fired events), with the state
    /// lock dropped and the calling OS thread temporarily impersonating the
    /// task — so kernel operations, chaos draws and lock-order edges
    /// performed inside the poll are attributed to the task, exactly as if
    /// it ran on its own thread.
    fn run_light_step<'a>(
        &'a self,
        mut st: RawMutexGuard<'a, State>,
        w: &Arc<Waiter>,
    ) -> RawMutexGuard<'a, State> {
        let LightTask {
            mut poll,
            mut parked_on,
        } = st
            .light_tasks
            .remove(&w.id)
            .expect("lightweight waiter has a registered task");
        loop {
            // A task that parked on (or just asked to wait for) an event
            // checks it the way a thread resumes inside `Event::wait`'s
            // loop: fired means observe and carry on, anything else parks.
            if let Some(event) = &parked_on {
                if let Some(res) = event.enlist_locked(&mut st, w) {
                    Self::park_light_locked(&mut st, w, "event.wait", Some(res));
                    st.light_tasks.insert(w.id, LightTask { poll, parked_on });
                    return st;
                }
            }
            st.stats.light_polls += 1;
            let now = SimInstant::from_nanos(st.now);
            drop(st);
            parked_on = None;
            let polled = {
                let _scope = LightScope::enter(self, w);
                panic::catch_unwind(AssertUnwindSafe(|| {
                    let step = poll();
                    // A step the kernel cannot honour is refused here,
                    // while the panic is still the task's own and nothing
                    // of the task is registered: a sleep past the end of
                    // the clock (as `sleep` refuses it), a foreign event.
                    match &step {
                        LightStep::Sleep(d) => {
                            let _deadline = now + *d;
                        }
                        LightStep::Wait(event) => assert!(
                            event.is_on(self),
                            "LightStep::Wait: event belongs to a different kernel"
                        ),
                        LightStep::Thread | LightStep::Done => {}
                    }
                    step
                }))
            };
            let step = polled.unwrap_or_else(|p| {
                // Unwinds through whoever is dispatching, as it always
                // has; but that may be a background thread nobody joins.
                self.fail_with_poll_panic(w, p.as_ref());
                panic::resume_unwind(p)
            });
            match step {
                LightStep::Done => {
                    drop(poll);
                    let mut st = self.inner.state.lock();
                    st.live -= 1;
                    st.light_live -= usize::from(w.freezes);
                    return st;
                }
                LightStep::Sleep(d) => {
                    st = self.inner.state.lock();
                    if !d.is_zero() {
                        st.schedule_timer(d, w);
                        Self::park_light_locked(&mut st, w, "sleep", None);
                        st.light_tasks.insert(w.id, LightTask { poll, parked_on });
                        return st;
                    }
                }
                LightStep::Wait(event) => {
                    parked_on = Some(event);
                    st = self.inner.state.lock();
                }
                LightStep::Thread => return self.promote(self.inner.state.lock(), w, poll),
            }
        }
    }

    /// Fails the simulation with the panic of lightweight task `w`'s poll,
    /// so that it reaches [`Kernel::run`]'s caller whichever OS thread the
    /// poll happened to run on.
    fn fail_with_poll_panic(&self, w: &Waiter, payload: &(dyn Any + Send)) {
        let mut st = self.inner.state.lock();
        if st.failure.is_none() {
            let text = panic_text(payload);
            let text = text.as_deref().unwrap_or("(no message)");
            let report = format!("lightweight task `{}` panicked: {text}", w.name);
            Self::fail_locked(&mut st, Arc::from(report));
        }
    }

    /// Gives the running lightweight task behind `w` an OS thread of its
    /// own and continues its polls there, through [`run_blocking`]. The
    /// task is mid-turn — the dispatcher popped it and was polling it — and
    /// stays so: it becomes the one runnable thread, under the same waiter
    /// id, exactly as if it had been a thread all along and had just been
    /// released. The thread is started with the state lock held, so its
    /// first kernel operation comes after the dispatcher has seen
    /// `runnable > 0` and stood down. This is the one place a simulated
    /// process gets an OS thread; the thread builds its own waiter, so the
    /// waiter knows its thread from the start.
    fn promote<'a>(
        &'a self,
        mut st: RawMutexGuard<'a, State>,
        w: &Arc<Waiter>,
        poll: Box<dyn FnMut() -> LightStep + Send>,
    ) -> RawMutexGuard<'a, State> {
        st.light_live -= usize::from(w.freezes);
        st.runnable += 1;
        st.stats.os_threads_spawned += 1;
        // Nothing else refers to a *running* light task's waiter (it is in
        // no timer, waiter list or queue), so the thread gets a fresh one,
        // holding what the task held.
        let (id, name) = (w.id, Arc::clone(&w.name));
        let held = std::mem::take(&mut *w.held.lock());
        let kernel = self.clone();
        thread::Builder::new()
            .name(w.name.to_string())
            .stack_size(STACK_SIZE)
            .spawn(move || {
                let waiter = Waiter::new(id, name, Some(thread::current()), false);
                *waiter.held.lock() = held;
                CURRENT.with(|c| {
                    *c.borrow_mut() = Some(ThreadCtx {
                        kernel: kernel.clone(),
                        waiter: Arc::clone(&waiter),
                    })
                });
                let result = panic::catch_unwind(AssertUnwindSafe(|| run_blocking(poll)));
                CURRENT.with(|c| *c.borrow_mut() = None);
                if let Err(p) = result {
                    kernel.fail_with_poll_panic(&waiter, p.as_ref());
                }
                kernel.deregister(&waiter);
            })
            .expect("failed to spawn OS thread for a promoted lightweight task");
        st
    }

    /// Marks the lightweight waiter `w` blocked, as `block_current_with`
    /// does for a thread that is about to park.
    fn park_light_locked(
        st: &mut State,
        w: &Arc<Waiter>,
        reason: &'static str,
        resource: Option<Resource>,
    ) {
        w.sync.lock().parked = true;
        st.blocked.insert(
            w.id,
            BlockedInfo {
                waiter: Arc::clone(w),
                reason,
                resource,
            },
        );
    }

    /// Records `report` as the simulation's failure and releases every
    /// thread-backed waiter into it, outside the dispatch order: no
    /// dispatcher will run again, so each blocked thread — and each one
    /// queued to run, when the failure is not a deadlock — must wake to
    /// re-raise the report. Lightweight tasks have no parked OS thread to
    /// do so; they stay where they are (and in a deadlock report's list).
    fn fail_locked(st: &mut State, report: Arc<str>) {
        st.failure = Some(report);
        let blocked: Vec<Arc<Waiter>> = st.blocked.values().map(|b| &b.waiter).cloned().collect();
        let ready = std::mem::take(&mut st.ready);
        for w in blocked.iter().chain(&ready) {
            let Some(thread) = &w.thread else { continue };
            let mut ws = w.sync.lock();
            ws.failed = true;
            ws.notified = true;
            ws.released = true;
            ws.parked = false;
            st.blocked.remove(&w.id);
            st.runnable += 1;
            thread.unpark();
        }
        st.ready = ready.into_iter().filter(|w| w.thread.is_none()).collect();
    }

    pub(crate) fn lock_state(&self) -> RawMutexGuard<'_, State> {
        self.inner.state.lock()
    }

    /// A potential preemption probe at an instrumented sync operation.
    ///
    /// Free unless an exploring scheduler is installed (one atomic load).
    /// While exploring, and when at least one other thread is ready, this is
    /// a *Preempt* choice point: a "yes" sends the running thread to the
    /// back of the ready queue and dispatches another — the interleaving
    /// that exposes atomicity bugs between a check and its act.
    pub(crate) fn preemption_point(&self, _op: &'static str) {
        if !self.is_exploring() {
            return;
        }
        if IN_LIGHT_STEP.with(std::cell::Cell::get) {
            // A lightweight poll runs *on* the dispatcher; yielding here
            // would park the dispatch loop where nothing wakes it.
            // Light tasks interleave only at their Sleep boundaries.
            return;
        }
        let Some(waiter) = try_current_waiter(self) else {
            return;
        };
        let mut st = self.inner.state.lock();
        if !st.exploring || st.ready.is_empty() || st.failure.is_some() {
            return;
        }
        let candidates = [waiter.id];
        let segment = std::mem::take(&mut st.segment);
        let step = st.choice_step;
        st.choice_step += 1;
        let yield_now = st.scheduler.preempt(&Choice {
            kind: ChoiceKind::Preempt,
            step,
            candidates: &candidates,
            segment: &segment,
        });
        if !yield_now {
            return;
        }
        Arc::make_mut(&mut st.trace).record(step, ChoiceKind::Preempt, 1);
        // Yield: rejoin the ready queue at the back and run the dispatch
        // loop. No blocked-map entry — the thread is ready, not blocked, so
        // a deadlock cannot be declared while it is queued
        // (release_next_locked always succeeds).
        st.ready.push_back(Arc::clone(&waiter));
        st.runnable -= 1;
        self.pass_turn(st, Some(&waiter));
        // A failure broadcast is re-raised at this thread's next block,
        // which finds the recorded failure first.
        Self::park_until_released(&waiter);
    }

    /// Advances the clock to the earliest timer deadline and wakes that one
    /// timer's waiter (into the ready queue). Timers sharing a deadline are
    /// popped one per call, in `seq` order, so their threads execute
    /// serially and deterministically rather than racing.
    ///
    /// # Panics
    ///
    /// Panics with a wait-for-graph diagnostic if no timer is pending
    /// (deadlock). Before panicking it records the report and wakes *every*
    /// blocked thread into the same panic, so the report propagates out of
    /// [`Kernel::run`] no matter which thread detected the deadlock.
    fn advance_locked(st: &mut State) {
        let deadline = match st.timers.peek() {
            Some(Reverse(e)) => e.deadline,
            None => {
                let report: Arc<str> = Arc::from(Self::deadlock_report_locked(st).as_str());
                Self::fail_locked(st, Arc::clone(&report));
                panic!("{report}");
            }
        };
        debug_assert!(deadline >= st.now, "timer scheduled in the past");
        if deadline > st.now {
            st.stats.clock_advances += 1;
        }
        st.now = deadline;
        let entry = if st.exploring {
            // Timer choice point: pop everything due at this deadline (the
            // heap yields ascending seq), let the scheduler pick one, push
            // the rest back. Index 0 (lowest seq) is the historical default.
            let mut due: Vec<TimerEntry> = Vec::new();
            while st
                .timers
                .peek()
                .is_some_and(|Reverse(e)| e.deadline == deadline)
            {
                due.push(st.timers.pop().expect("peeked entry exists").0);
            }
            let idx = if due.len() > 1 {
                let candidates: Vec<u64> = due.iter().map(|e| e.seq).collect();
                let segment = std::mem::take(&mut st.segment);
                let step = st.choice_step;
                st.choice_step += 1;
                let picked = st
                    .scheduler
                    .choose(&Choice {
                        kind: ChoiceKind::Timer,
                        step,
                        candidates: &candidates,
                        segment: &segment,
                    })
                    .min(due.len() - 1);
                if picked != 0 {
                    Arc::make_mut(&mut st.trace).record(step, ChoiceKind::Timer, picked);
                }
                picked
            } else {
                0
            };
            let e = due.remove(idx);
            for rest in due {
                st.timers.push(Reverse(rest));
            }
            e
        } else {
            st.timers.pop().expect("peeked entry exists").0
        };
        Self::wake_locked(st, &entry.waiter);
    }

    /// Who holds what, read off the blocked threads' own holds: resource id
    /// → its holders, each once, in waiter-id order. At a deadlock every
    /// registered thread is blocked, so this is every holder there is. A
    /// shim-lock hold maps through the lock's entry, which exists for any
    /// lock a thread is blocked on.
    fn holders_locked(st: &State) -> HashMap<u64, Vec<&Waiter>> {
        let mut holders: HashMap<u64, Vec<&Waiter>> = HashMap::new();
        for b in st.blocked.values() {
            for h in b.waiter.held.lock().iter() {
                let res = match *h {
                    Held::Lock(addr) => st.vlocks.get(&addr).map(|e| e.res.id),
                    Held::Resource(res) => Some(res),
                };
                if let Some(res) = res {
                    let of = holders.entry(res).or_default();
                    if of.last().is_none_or(|w| w.id != b.waiter.id) {
                        of.push(&b.waiter);
                    }
                }
            }
        }
        holders
    }

    /// Renders the deadlock report: one line per blocked thread (with the
    /// resource it waits on and that resource's holders, when known),
    /// followed by the wait-for cycle if the blocked-on/held-by edges close
    /// one.
    fn deadlock_report_locked(st: &State) -> String {
        let holders = Self::holders_locked(st);
        let mut lines: Vec<String> = Vec::new();
        for b in st.blocked.values() {
            let mut line = format!("  - thread `{}` blocked on {}", b.waiter.name, b.reason);
            if let Some(res) = &b.resource {
                let _ = write!(line, " ({res}");
                if let Some(of) = holders.get(&res.id) {
                    let names: Vec<String> = of.iter().map(|w| format!("`{}`", w.name)).collect();
                    let _ = write!(line, ", held by {}", names.join(", "));
                }
                line.push(')');
            }
            lines.push(line);
        }
        lines.sort();
        let mut report = format!(
            "simulation deadlock at t={}: all {} registered thread(s) are blocked \
             and no timer is pending\n{}",
            SimInstant::from_nanos(st.now),
            st.live,
            lines.join("\n"),
        );
        if let Some(cycle) = Self::find_cycle_locked(st, &holders) {
            report.push('\n');
            report.push_str(&cycle);
        }
        if st.exploring {
            let _ = write!(report, "\nschedule: RUSTWREN_SCHEDULE={}", st.trace.token());
        }
        report
    }

    /// Searches the wait-for graph (edge: blocked thread → blocked holder of
    /// the resource it waits on) for a cycle and renders it:
    ///
    /// ```text
    /// wait-for cycle: `a` -[event `e2`]-> `b` -[event `e1`]-> `a`
    /// ```
    fn find_cycle_locked(st: &State, holders: &HashMap<u64, Vec<&Waiter>>) -> Option<String> {
        // Deterministic adjacency: waiter id → [(holder id, resource)], in
        // holder-id order.
        let ids: Vec<u64> = st.blocked.keys().copied().collect();
        let mut adj: HashMap<u64, Vec<(u64, &Resource)>> = HashMap::new();
        for (wid, b) in &st.blocked {
            if let Some(res) = &b.resource {
                let outs = holders.get(&res.id).map_or(&[][..], Vec::as_slice);
                adj.insert(*wid, outs.iter().map(|w| (w.id, res)).collect());
            }
        }
        // Iterative DFS; `via[n]` is the resource whose edge reached `n`.
        let mut color: HashMap<u64, u8> = HashMap::new(); // 1 = on stack, 2 = done
        let mut via: HashMap<u64, &Resource> = HashMap::new();
        for &start in &ids {
            if color.contains_key(&start) {
                continue;
            }
            color.insert(start, 1);
            let mut stack: Vec<(u64, usize)> = vec![(start, 0)];
            while let Some(&(node, idx)) = stack.last() {
                let edges = adj.get(&node).map_or(&[][..], Vec::as_slice);
                if idx >= edges.len() {
                    color.insert(node, 2);
                    stack.pop();
                    continue;
                }
                stack.last_mut().expect("stack is non-empty").1 += 1;
                let (next, res) = edges[idx];
                match color.get(&next) {
                    None => {
                        color.insert(next, 1);
                        via.insert(next, res);
                        stack.push((next, 0));
                    }
                    Some(1) => {
                        // Back edge `node` -> `next`: the stack slice from
                        // `next` to the top is the cycle.
                        let pos = stack
                            .iter()
                            .position(|(n, _)| *n == next)
                            .expect("back edge target is on the stack");
                        let cycle: Vec<u64> = stack[pos..].iter().map(|(n, _)| *n).collect();
                        let name = |id: u64| format!("`{}`", st.blocked[&id].waiter.name);
                        let mut s = format!("wait-for cycle: {}", name(cycle[0]));
                        for &n in &cycle[1..] {
                            let _ = write!(s, " -[{}]-> {}", via[&n], name(n));
                        }
                        let _ = write!(s, " -[{res}]-> {}", name(cycle[0]));
                        return Some(s);
                    }
                    Some(_) => {}
                }
            }
        }
        None
    }

    /// Removes a thread from the registered set, advancing the clock if it
    /// was the last runnable one.
    ///
    /// A thread that dies *while blocked* (its blocking panicked, e.g. on
    /// deadlock detection) already gave up its runnable slot; detect that via
    /// the blocked map. While unwinding — or once a deadlock was declared —
    /// we also skip the advance loop: the simulation is already failing and
    /// advancing could panic again, turning the panic into an abort.
    fn deregister(&self, waiter: &Arc<Waiter>) {
        let mut st = self.inner.state.lock();
        st.live -= 1;
        if st.blocked.remove(&waiter.id).is_none() {
            st.runnable -= 1;
        }
        if thread::panicking() || st.failure.is_some() {
            return;
        }
        self.pass_turn(st, None);
    }

    /// Whether `other` is a handle to this same kernel.
    pub(crate) fn same_as(&self, other: &Kernel) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    pub(crate) fn downgrade(&self) -> WeakKernel {
        WeakKernel(Arc::downgrade(&self.inner))
    }

    // ---- Virtualized shim locks (see `crate::vlock`) --------------------

    /// The calling simulated thread failed a try-acquire on the shim lock at
    /// `addr`: park it (in virtual time, with a wait-for-graph edge) until a
    /// release wakes it to retry. Returns `false` when the caller is not a
    /// simulated thread of this kernel.
    pub(crate) fn vlock_block(&self, addr: usize, op: LockOp) -> bool {
        let Some(w) = try_current_waiter(self) else {
            return false;
        };
        deny_blocking_in_light_step(lockop_reason(op));
        crate::vlock::track_addr(addr, self);
        let res = {
            let mut st = self.inner.state.lock();
            st.stats.lock_parks += 1;
            let entry = st.vlock_locked(addr, op, &self.inner.next_resource_id);
            if !entry.waiters.iter().any(|x| x.id == w.id) {
                entry.waiters.push_back(Arc::clone(&w));
                self.inner.parked_on_locks.fetch_add(1, Ordering::Relaxed);
            }
            let res = entry.res.clone();
            st.touch(res.id);
            res
        };
        self.block_current_with(&w, Some(res), lockop_reason(op));
        true
    }

    /// The state lock for an acquisition or release of the shim lock at
    /// `addr`, or `None` when no one needs to hear of it: no thread is
    /// parked on any shim lock (a release has no one to wake), and neither
    /// an exploring scheduler (footprints) nor the lock-order recorder is
    /// observing every lock operation. Those two modes give the lock its
    /// entry on first touch, as they always have; otherwise a lock gets one
    /// when a thread first parks on it. The check needs no lock: simulated
    /// threads run one at a time, and a thread enters a wait queue under
    /// the state lock before it parks.
    fn vlock_state(&self, addr: usize, op: LockOp) -> Option<RawMutexGuard<'_, State>> {
        let observed = self.inner.flags.load(Ordering::Relaxed) & (FLAG_EXPLORING | FLAG_RECORDING);
        if observed == 0 && self.inner.parked_on_locks.load(Ordering::Relaxed) == 0 {
            return None;
        }
        if observed != 0 {
            crate::vlock::track_addr(addr, self);
        }
        let mut st = self.inner.state.lock();
        if observed != 0 {
            st.vlock_locked(addr, op, &self.inner.next_resource_id);
        }
        Some(st)
    }

    /// The calling thread `w` acquired the shim lock at `addr`: record the
    /// hold on `w`, leave the lock's wait queue, feed the lock-order
    /// recorder.
    pub(crate) fn vlock_acquired(&self, addr: usize, op: LockOp, w: &Waiter) {
        // A load and a store, not a read-modify-write: simulated threads
        // run one at a time and hand over to each other through locks.
        let count = &self.inner.lock_acquisitions;
        count.store(count.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        w.held.lock().push(Held::Lock(addr));
        let Some(mut st) = self.vlock_state(addr, op) else {
            return;
        };
        let Some(entry) = st.vlocks.get_mut(&addr) else {
            return;
        };
        let res = entry.res.id;
        if let Some(pos) = entry.waiters.iter().position(|x| x.id == w.id) {
            entry.waiters.remove(pos);
            self.inner.parked_on_locks.fetch_sub(1, Ordering::Relaxed);
        }
        st.vrec_acquired(addr, res, op, w);
    }

    /// The calling thread `w` released the shim lock at `addr`: drop the
    /// hold and wake every virtually parked waiter to retry (losers
    /// re-park).
    pub(crate) fn vlock_released(&self, addr: usize, op: LockOp, w: &Waiter) {
        w.unhold(Held::Lock(addr));
        let Some(mut st) = self.vlock_state(addr, op) else {
            return;
        };
        let Some(entry) = st.vlocks.get_mut(&addr) else {
            return;
        };
        let (res, waiters) = (entry.res.id, entry.waiters.drain(..).collect::<Vec<_>>());
        self.inner
            .parked_on_locks
            .fetch_sub(waiters.len(), Ordering::Relaxed);
        st.vrec_released(addr, res, op, w);
        for waiter in &waiters {
            Self::wake_locked(&mut st, waiter);
        }
    }

    /// The shim lock at `addr` was dropped (possibly on a foreign thread):
    /// clear all tracking so a reused address becomes a fresh instance.
    pub(crate) fn vlock_destroyed(&self, addr: usize) {
        let mut st = self.inner.state.lock();
        let Some(entry) = st.vlocks.remove(&addr) else {
            return;
        };
        self.inner
            .parked_on_locks
            .fetch_sub(entry.waiters.len(), Ordering::Relaxed);
        if let Some(order) = st.order.as_mut() {
            order.forget_addr(addr);
        }
        for w in &entry.waiters {
            Self::wake_locked(&mut st, w);
        }
    }
}

/// Weak kernel handle used by the shim-lock destroy-routing registry.
pub(crate) struct WeakKernel(Weak<Inner>);

impl WeakKernel {
    pub(crate) fn upgrade(&self) -> Option<Kernel> {
        self.0.upgrade().map(|inner| Kernel { inner })
    }

    pub(crate) fn is(&self, kernel: &Kernel) -> bool {
        std::ptr::eq(self.0.as_ptr(), Arc::as_ptr(&kernel.inner))
    }
}

/// Handle to a simulated thread spawned with [`Kernel::spawn`] or
/// [`crate::spawn`] (and, inside the kernel, to a [`fan_out`] lane).
pub struct SimJoinHandle<T> {
    done: Event,
    slot: Arc<RawMutex<Option<thread::Result<T>>>>,
}

impl<T> fmt::Debug for SimJoinHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimJoinHandle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl<T> SimJoinHandle<T> {
    /// Blocks (in virtual time) until the thread finishes and returns its
    /// result.
    ///
    /// # Panics
    ///
    /// Re-raises the thread's panic, like [`std::thread::JoinHandle::join`]
    /// followed by `unwrap`.
    pub fn join(self) -> T {
        task::block_on(self.join_async())
    }

    /// [`join`](SimJoinHandle::join), resumable: suspends until the task
    /// has finished.
    pub(crate) async fn join_async(self) -> T {
        task::wait(&self.done).await;
        let result = self.slot.lock().take().expect("filled before it fires");
        result.unwrap_or_else(|p| panic::resume_unwind(p))
    }

    /// Whether the thread has finished (without blocking).
    pub fn is_finished(&self) -> bool {
        self.done.is_fired()
    }
}

/// Returns the current thread's waiter, asserting it is registered with
/// `kernel`. Used by synchronization primitives to enqueue themselves.
pub(crate) fn current_waiter(kernel: &Kernel, op: &'static str) -> Arc<Waiter> {
    let ctx = current_ctx(op);
    assert!(
        Arc::ptr_eq(&ctx.kernel.inner, &kernel.inner),
        "{op}: thread is registered with a different kernel"
    );
    ctx.waiter
}

/// Returns the current thread's waiter when it is registered with `kernel`,
/// `None` otherwise (unregistered thread, or a different kernel). Used by
/// hooks that must never panic on foreign threads and may block (a park,
/// a preemption probe) or outlive the call (a spawn's parent edge).
pub(crate) fn try_current_waiter(kernel: &Kernel) -> Option<Arc<Waiter>> {
    CURRENT
        .with(|c| c.borrow().clone())
        .and_then(|ctx| Arc::ptr_eq(&ctx.kernel.inner, &kernel.inner).then_some(ctx.waiter))
}

/// Panics when called from inside a lightweight poll: a blocking operation
/// there would park the dispatch loop itself. Every blocking entry point
/// calls this *before* it registers a timer or a waiter-list entry, so a
/// caller that catches the panic (the FaaS platform records it as a crashed
/// activation) is left with nothing stale to wake it later.
pub(crate) fn deny_blocking_in_light_step(reason: &str) {
    if IN_LIGHT_STEP.with(std::cell::Cell::get) {
        panic!(
            "lightweight task `{}` attempted a blocking operation ({reason}); \
             a light task may only suspend by returning LightStep::Sleep or \
             LightStep::Wait — to block, first await task::thread() (or return LightStep::Thread)",
            current_ctx("light step").waiter.name
        );
    }
}

fn current_ctx(op: &str) -> ThreadCtx {
    CURRENT.with(|c| {
        c.borrow().clone().unwrap_or_else(|| {
            panic!(
                "{op}: calling thread is not a simulated thread \
                 (enter the simulation via Kernel::run or Kernel::spawn)"
            )
        })
    })
}

/// Virtual time on the current simulated thread's kernel.
///
/// # Panics
///
/// Panics if the calling thread is not registered with a kernel.
pub fn now() -> SimInstant {
    current_ctx("rustwren_sim::now").kernel.now()
}

/// Sleeps the current simulated thread for `d` of virtual time.
///
/// # Panics
///
/// Panics if the calling thread is not registered with a kernel.
pub fn sleep(d: Duration) {
    let ctx = current_ctx("rustwren_sim::sleep");
    ctx.kernel.sleep(d);
}

/// Spawns a simulated thread on the current thread's kernel ([`Kernel::spawn`]).
///
/// # Panics
///
/// Panics if the calling thread is not registered with a kernel.
pub fn spawn<T, F>(name: impl Into<String>, f: F) -> SimJoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let ctx = current_ctx("rustwren_sim::spawn");
    ctx.kernel.spawn(name, f)
}

/// Runs `f` over `items` on a pool of lightweight tasks — the one fan-out
/// pool behind invocation, upload, download and multipart lanes. Resumable:
/// a light task awaits it, blocking code drives it through
/// [`task::block_on`](crate::task::block_on).
///
/// Items are dealt round-robin into `min(lanes, items.len())` non-empty
/// lanes (item `k` goes to lane `k % lanes`); lane `t` is a light task
/// named `"{prefix}-{t}"` that feeds its items to `f` in order, awaiting
/// each, and stops at its first error. Every lane is joined, in lane order,
/// before this returns: the outputs in input order, or the error of the
/// lowest-numbered failing lane. No items, no tasks.
///
/// The observable sequence is the contract, not just the result: golden
/// fingerprints fold `threads_started`, the final clock and the schedule
/// trace, so lane count, names, spawn order and join order here are all
/// load-bearing — a lane abandoned unjoined would also keep issuing
/// requests after its caller reported failure.
///
/// # Panics
///
/// Panics if the calling thread is not registered with a kernel, or
/// re-raises a lane's panic (a blocking call `f` made without asking for a
/// thread included: the kernel refuses it inside the lane).
pub async fn fan_out<T, U, E, F, R>(
    prefix: &str,
    lanes: usize,
    items: Vec<T>,
    f: F,
) -> Result<Vec<U>, E>
where
    T: Send + 'static,
    U: Send + 'static,
    E: Send + 'static,
    F: Fn(T) -> R + Send + Sync + 'static,
    R: Future<Output = Result<U, E>> + Send + 'static,
{
    let n = items.len();
    let lanes = lanes.max(1).min(n);
    let mut chunks: Vec<Vec<T>> = (0..lanes).map(|_| Vec::new()).collect();
    for (k, item) in items.into_iter().enumerate() {
        chunks[k % lanes].push(item);
    }
    let f = Arc::new(f);
    let joins: Vec<_> = chunks
        .into_iter()
        .enumerate()
        .map(|(t, chunk)| {
            let f = Arc::clone(&f);
            kernel().spawn_joinable(format!("{prefix}-{t}"), true, async move {
                let mut outputs = Vec::with_capacity(chunk.len());
                for item in chunk {
                    outputs.push(f(item).await?);
                }
                Ok::<_, E>(outputs)
            })
        })
        .collect();
    let mut outputs = Vec::with_capacity(lanes);
    let mut first_err = None;
    for lane in joins {
        match lane.join_async().await {
            Ok(lane) => outputs.push(lane.into_iter()),
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok((0..n)
            .map(|k| {
                outputs[k % lanes]
                    .next()
                    .expect("every lane yields one output per item it was dealt")
            })
            .collect()),
    }
}

/// Spawns a lightweight task on the current thread's kernel — see
/// [`Kernel::spawn_light`].
///
/// # Panics
///
/// Panics if the calling thread is not registered with a kernel.
pub fn spawn_light(name: impl Into<Arc<str>>, f: impl FnMut() -> LightStep + Send + 'static) {
    let ctx = current_ctx("rustwren_sim::spawn_light");
    ctx.kernel.spawn_light(name, f);
}

/// Runs a lightweight task's state machine on the calling simulated
/// thread instead: each step the dispatch loop would have parked the task
/// for becomes the blocking call of the same name. A promoted task's polls
/// continue here, and [`task::block_on`] drives a future through it: this is
/// how code that must ride a thread (because something it calls blocks)
/// shares one state machine with code that need not.
///
/// # Panics
///
/// Panics if the calling thread is not registered with a kernel.
pub(crate) fn run_blocking<P: FnMut() -> LightStep>(mut poll: P) {
    loop {
        match poll() {
            LightStep::Sleep(d) => sleep(d),
            LightStep::Wait(event) => event.wait(),
            // Already on one.
            LightStep::Thread => {}
            LightStep::Done => return,
        }
    }
}

/// The message of a panic payload, when it is one of the two string types
/// `panic!` produces.
fn panic_text(payload: &(dyn Any + Send)) -> Option<String> {
    match payload.downcast_ref::<String>() {
        Some(s) => Some(s.clone()),
        None => payload
            .downcast_ref::<&'static str>()
            .map(|s| (*s).to_owned()),
    }
}

/// The kernel of the current simulated thread.
///
/// # Panics
///
/// Panics if the calling thread is not registered with a kernel.
pub fn kernel() -> Kernel {
    current_ctx("rustwren_sim::kernel").kernel
}

/// The kernel of the current simulated thread, or `None` when the calling
/// thread is not registered with one. Used by hooks (e.g. fault injection)
/// that must stay silent off the simulation.
pub(crate) fn try_kernel() -> Option<Kernel> {
    CURRENT.with(|c| c.borrow().clone()).map(|ctx| ctx.kernel)
}

/// Applies `f` to the current thread's kernel and waiter without cloning
/// the thread context — the zero-refcount-traffic variant of
/// [`try_kernel`] for per-operation hooks. The context stays borrowed while
/// `f` runs, so `f` must not yield or block: a light poll dispatched
/// meanwhile would swap the context.
pub(crate) fn try_with_current<R>(f: impl FnOnce(&Kernel, &Waiter) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_ref().map(|ctx| f(&ctx.kernel, &ctx.waiter)))
}

/// Whether the calling thread is a simulated thread of a kernel that is
/// currently exploring schedules. Lets a process-wide panic hook silence
/// the expected panics of schedule exploration without touching panics
/// from anywhere else.
pub fn exploring() -> bool {
    try_with_current(|k, _| k.is_exploring()).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero() {
        let k = Kernel::new();
        assert_eq!(k.now(), SimInstant::ZERO);
    }

    #[test]
    fn sleep_advances_virtual_clock_only() {
        let k = Kernel::new();
        let wall = std::time::Instant::now();
        k.run("client", || {
            sleep(Duration::from_secs(3600));
            assert_eq!(now(), SimInstant::ZERO + Duration::from_secs(3600));
        });
        assert!(
            wall.elapsed() < Duration::from_secs(5),
            "slept in wall time"
        );
    }

    #[test]
    fn zero_sleep_is_noop() {
        let k = Kernel::new();
        k.run("client", || {
            sleep(Duration::ZERO);
            assert_eq!(now(), SimInstant::ZERO);
        });
    }

    #[test]
    fn concurrent_sleeps_overlap() {
        let k = Kernel::new();
        k.run("client", || {
            let a = spawn("a", || sleep(Duration::from_secs(10)));
            let b = spawn("b", || sleep(Duration::from_secs(10)));
            a.join();
            b.join();
            // Two concurrent 10s sleeps take 10s, not 20s.
            assert_eq!(now(), SimInstant::ZERO + Duration::from_secs(10));
        });
    }

    #[test]
    fn sequential_sleeps_accumulate() {
        let k = Kernel::new();
        k.run("client", || {
            sleep(Duration::from_secs(1));
            sleep(Duration::from_secs(2));
            assert_eq!(now(), SimInstant::ZERO + Duration::from_secs(3));
        });
    }

    #[test]
    fn join_returns_value_at_completion_time() {
        let k = Kernel::new();
        k.run("client", || {
            let h = spawn("worker", || {
                sleep(Duration::from_millis(1500));
                42
            });
            assert_eq!(h.join(), 42);
            assert_eq!(now(), SimInstant::ZERO + Duration::from_millis(1500));
        });
    }

    #[test]
    fn join_after_completion_does_not_block() {
        let k = Kernel::new();
        k.run("client", || {
            let h = spawn("fast", || 1);
            sleep(Duration::from_secs(1));
            assert!(h.is_finished());
            assert_eq!(h.join(), 1);
            assert_eq!(now(), SimInstant::ZERO + Duration::from_secs(1));
        });
    }

    #[test]
    fn nested_spawns_work() {
        let k = Kernel::new();
        let total = k.run("client", || {
            let h = spawn("outer", || {
                let inner = spawn("inner", || {
                    sleep(Duration::from_secs(5));
                    10
                });
                inner.join() + 1
            });
            h.join()
        });
        assert_eq!(total, 11);
        assert_eq!(k.now(), SimInstant::ZERO + Duration::from_secs(5));
    }

    /// Drives `scenario` on both vehicles, each on a fresh kernel: on the
    /// client thread through `block_on`, then awaited inside a light task.
    fn on_both_vehicles<S>(scenario: impl Fn() -> S)
    where
        S: Future<Output = ()> + Send + 'static,
    {
        Kernel::new().run("client", || task::block_on(scenario()));
        Kernel::new().run("client", || {
            let done = Event::new(&kernel());
            let (body, fired) = (scenario(), done.clone());
            spawn_light(
                "driver",
                task::light(async move {
                    body.await;
                    fired.fire();
                }),
            );
            done.wait();
        });
    }

    #[test]
    fn many_lanes_fan_out() {
        on_both_vehicles(|| async {
            let before = kernel().stats();
            let out = fan_out("w", 200, (0..200u64).collect(), |i| async move {
                task::sleep(Duration::from_millis(10 * (i % 7 + 1))).await;
                Ok::<_, ()>(i)
            });
            let sum: u64 = out.await.expect("no lane fails").into_iter().sum();
            assert_eq!(sum, (0..200).sum::<u64>());
            assert_eq!(now(), SimInstant::ZERO + Duration::from_millis(70));
            // A lane counts as the thread it replaced, and is none.
            let after = kernel().stats();
            assert_eq!(after.threads_started - before.threads_started, 200);
            assert_eq!(after.os_threads_spawned, before.os_threads_spawned);
        });
    }

    #[test]
    #[should_panic(expected = "simulation deadlock")]
    fn deadlock_is_detected() {
        let k = Kernel::new();
        k.run("client", || {
            let ev = Event::new(&kernel());
            ev.wait(); // nobody will ever fire it
        });
    }

    #[test]
    fn deadlock_report_includes_wait_for_cycle() {
        let k = Kernel::new();
        let panic = panic::catch_unwind(AssertUnwindSafe(|| {
            k.run("client", || {
                // ABBA: `a` owes `e1` and waits for `e2`; `b` the reverse.
                let e1 = Event::named(&kernel(), "e1");
                let e2 = Event::named(&kernel(), "e2");
                let (e1b, e2b) = (e1.clone(), e2.clone());
                let a = spawn("a", move || {
                    e1.mark_holder();
                    sleep(Duration::from_secs(1));
                    e2.wait(); // deadlocks against `b`
                    e1.fire();
                });
                let _b = spawn("b", move || {
                    e2b.mark_holder();
                    sleep(Duration::from_secs(1));
                    e1b.wait(); // deadlocks against `a`
                    e2b.fire();
                });
                a.join();
            });
        }))
        .expect_err("deadlock must panic");
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is the report string");
        assert!(msg.contains("simulation deadlock"), "missing header: {msg}");
        assert!(
            msg.contains("blocked on event.wait (event `e2`, held by `b`)"),
            "missing holder info: {msg}"
        );
        assert!(msg.contains("wait-for cycle:"), "missing cycle: {msg}");
        assert!(
            msg.contains("-[event `e2`]-> `b` -[event `e1`]-> `a`"),
            "missing cycle edges: {msg}"
        );
    }

    #[test]
    fn join_deadlock_names_joined_thread() {
        let k = Kernel::new();
        let panic = panic::catch_unwind(AssertUnwindSafe(|| {
            k.run("client", || {
                let ev = Event::new(&kernel());
                let h = spawn("stuck", move || ev.wait()); // nobody fires it
                h.join();
            });
        }))
        .expect_err("deadlock must panic");
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is the report string");
        assert!(
            msg.contains("blocked on event.wait (event `join:stuck`, held by `stuck`)"),
            "missing join edge: {msg}"
        );
    }

    #[test]
    fn panic_in_child_propagates_through_join() {
        let k = Kernel::new();
        let caught = k.run("client", || {
            let h = spawn("bad", || panic!("boom"));
            panic::catch_unwind(AssertUnwindSafe(|| h.join())).is_err()
        });
        assert!(caught);
    }

    /// The dealt item's lane, recovered from the task name `fan_out` gave
    /// it: proof of both the naming and the round-robin deal.
    fn lane_of_current_task() -> usize {
        let waiter = current_ctx("lane_of_current_task").waiter;
        (waiter.name)
            .strip_prefix("lane-")
            .expect("prefix")
            .parse()
            .expect("index")
    }

    #[test]
    fn fan_out_chunking_covers_all_items_in_input_order() {
        on_both_vehicles(|| async {
            let before = kernel().stats().threads_started;
            let out = fan_out("lane", 3, (0..10usize).collect(), |i| async move {
                // Later items finish first, so completion order is the
                // reverse of input order.
                task::sleep(Duration::from_millis(100 - 10 * i as u64)).await;
                Ok::<_, ()>((i, lane_of_current_task()))
            })
            .await
            .expect("no lane fails");
            assert_eq!(kernel().stats().threads_started - before, 3);
            let expected: Vec<_> = (0..10).map(|i| (i, i % 3)).collect();
            assert_eq!(out, expected);
        });
    }

    #[test]
    fn fan_out_chunking_with_more_lanes_than_items() {
        on_both_vehicles(|| async {
            let before = kernel().stats().threads_started;
            let out = fan_out("lane", 8, vec![1, 2], |i| async move {
                Ok::<_, ()>((i, lane_of_current_task()))
            });
            assert_eq!(out.await, Ok(vec![(1, 0), (2, 1)]));
            assert_eq!(kernel().stats().threads_started - before, 2);
        });
    }

    #[test]
    fn fan_out_over_no_items_starts_no_task() {
        on_both_vehicles(|| async {
            let before = kernel().stats().threads_started;
            let out = fan_out(
                "lane",
                4,
                Vec::<u8>::new(),
                |i| async move { Ok::<_, ()>(i) },
            );
            assert_eq!(out.await, Ok(Vec::new()));
            assert_eq!(kernel().stats().threads_started, before);
        });
    }

    #[test]
    fn fan_out_joins_every_lane_and_reports_the_lowest_failing_one() {
        on_both_vehicles(|| async {
            let ran = Arc::new(RawMutex::new(Vec::new()));
            let ran2 = Arc::clone(&ran);
            let start = now();
            // Lanes: 0 ← {0, 3, 6}, 1 ← {1, 4, 7}, 2 ← {2, 5}. Lane 1 fails
            // first in time (item 1, t = 1 s), lane 0 later (item 3, t = 4 s);
            // lane 2 is healthy and slowest (t = 10 s).
            let out = fan_out("lane", 3, (0..8u64).collect(), move |i| {
                let ran = Arc::clone(&ran2);
                async move {
                    task::sleep(Duration::from_secs(match i % 3 {
                        0 => 2,
                        1 => 1,
                        _ => 5,
                    }))
                    .await;
                    ran.lock().push(i);
                    match i {
                        1 | 3 => Err(format!("item {i}")),
                        _ => Ok(i),
                    }
                }
            });
            // The lowest-numbered failing lane wins, not the earliest.
            assert_eq!(out.await, Err("item 3".to_owned()));
            // Returns only after the slowest lane has finished.
            assert_eq!(now() - start, Duration::from_secs(10));
            // A failed lane stops at its first error (6, 4 and 7 never
            // run); the other lanes run to their own end.
            let mut ran = ran.lock().clone();
            ran.sort_unstable();
            assert_eq!(ran, vec![0, 1, 2, 3, 5]);
        });
    }

    /// A lane's panic — its own, or the kernel's refusal of a blocking call
    /// it made without asking for a thread — is the joiner's, not the run's.
    #[test]
    fn fan_out_reraises_a_lane_panic_in_the_joiner() {
        on_both_vehicles(|| async {
            for (bad, expected) in [(1, "lane boom"), (2, "attempted a blocking operation")] {
                let out = fan_out("lane", 3, vec![0u8, 1, 2], move |i| async move {
                    task::sleep(Duration::from_millis(1)).await;
                    match i {
                        1 if bad == 1 => panic!("lane boom"),
                        2 if bad == 2 => sleep(Duration::from_millis(1)),
                        _ => {}
                    }
                    Ok::<_, ()>(i)
                });
                let payload = task::catch_unwind(pin!(out)).await.expect_err("re-raised");
                let text = panic_text(payload.as_ref()).expect("a message");
                assert!(text.contains(expected), "{text}");
            }
            assert!(kernel().inner.state.lock().failure.is_none());
        });
    }

    #[test]
    fn stats_count_advances() {
        let k = Kernel::new();
        k.run("client", || {
            sleep(Duration::from_secs(1));
            sleep(Duration::from_secs(1));
        });
        let stats = k.stats();
        assert_eq!(stats.clock_advances, 2);
        assert_eq!(stats.timers_scheduled, 2);
        assert_eq!(stats.threads_started, 1);
    }

    #[test]
    fn run_can_be_called_twice_sequentially() {
        let k = Kernel::new();
        k.run("first", || sleep(Duration::from_secs(1)));
        k.run("second", || sleep(Duration::from_secs(1)));
        // Clock persists across runs.
        assert_eq!(k.now(), SimInstant::ZERO + Duration::from_secs(2));
    }

    /// Runs a workload whose outcome depends on the schedule: six threads
    /// repeatedly sleep to the *same* deadlines (timer choices) and append
    /// to a shared shim-locked log (ready choices + preemption probes).
    fn interleaving_probe(k: &Kernel) -> Vec<u64> {
        k.run("client", || {
            let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let hs: Vec<_> = (0..6)
                .map(|i| {
                    let log = Arc::clone(&log);
                    spawn(format!("t{i}"), move || {
                        for _ in 0..3 {
                            sleep(Duration::from_millis(10));
                            log.lock().push(i);
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join();
            }
            let order = log.lock().clone();
            order
        })
    }

    #[test]
    fn fifo_records_no_schedule_trace() {
        let k = Kernel::new();
        let _ = interleaving_probe(&k);
        assert!(k.schedule_trace().is_empty());
    }

    #[test]
    fn random_schedule_is_deterministic_and_replayable() {
        use crate::sched::RandomScheduler;
        let k1 = Kernel::new();
        k1.set_scheduler(Box::new(RandomScheduler::new(42)));
        let o1 = interleaving_probe(&k1);
        let trace = k1.schedule_trace();

        // Same seed, fresh kernel: bit-identical interleaving.
        let k2 = Kernel::new();
        k2.set_scheduler(Box::new(RandomScheduler::new(42)));
        assert_eq!(interleaving_probe(&k2), o1);

        // Replaying the recorded trace reproduces the interleaving AND
        // re-records the identical trace.
        let k3 = Kernel::new();
        k3.set_scheduler(Box::new(ReplayScheduler::new(&trace)));
        assert_eq!(interleaving_probe(&k3), o1);
        assert_eq!(k3.schedule_trace(), trace);
    }

    #[test]
    fn exploring_panic_payloads_carry_schedule_token() {
        use crate::sched::RandomScheduler;
        let k = Kernel::new();
        k.set_scheduler(Box::new(RandomScheduler::new(7)));
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            k.run("client", || panic!("boom {}", 42));
        }))
        .expect_err("must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("augmented payload is a String");
        assert!(msg.contains("boom 42"), "original message kept: {msg}");
        assert!(
            msg.contains("schedule: RUSTWREN_SCHEDULE=v1:"),
            "replay token appended: {msg}"
        );
    }

    #[test]
    fn non_exploring_panic_payloads_are_untouched() {
        let k = Kernel::new();
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            k.run("client", || panic!("plain"));
        }))
        .expect_err("must panic");
        let msg = err.downcast_ref::<&'static str>().expect("str payload");
        assert_eq!(*msg, "plain");
    }

    #[test]
    fn simultaneous_deadlines_wake_together() {
        let k = Kernel::new();
        k.run("client", || {
            let hs: Vec<_> = (0..10)
                .map(|i| spawn(format!("t{i}"), || sleep(Duration::from_secs(1))))
                .collect();
            for h in hs {
                h.join();
            }
            assert_eq!(now(), SimInstant::ZERO + Duration::from_secs(1));
        });
        // One advance should have woken all ten sleepers.
        assert_eq!(k.stats().clock_advances, 1);
    }

    // ---- Lightweight tasks (DESIGN §14) ---------------------------------

    /// A light task and a thread doing the same sleep sequence observe the
    /// same clock, count identically in `threads_started`/`timers_scheduled`
    /// and interleave in the same FIFO positions.
    #[test]
    fn light_task_matches_thread_schedule() {
        fn run(light: bool) -> (Vec<(String, u64)>, KernelStats, SimInstant) {
            let k = Kernel::new();
            let log: Arc<RawMutex<Vec<(String, u64)>>> = Arc::new(RawMutex::new(Vec::new()));
            let out = Arc::clone(&log);
            let end = k.run("client", move || {
                let worker_log = Arc::clone(&log);
                if light {
                    let mut phase = 0u32;
                    spawn_light("worker", move || {
                        phase += 1;
                        worker_log
                            .lock()
                            .push((format!("w{phase}"), now().as_nanos() / 1_000_000_000));
                        if phase < 3 {
                            LightStep::Sleep(Duration::from_secs(2))
                        } else {
                            LightStep::Done
                        }
                    });
                } else {
                    spawn("worker", move || {
                        for phase in 1..=3u32 {
                            worker_log
                                .lock()
                                .push((format!("w{phase}"), now().as_nanos() / 1_000_000_000));
                            if phase < 3 {
                                sleep(Duration::from_secs(2));
                            }
                        }
                    });
                }
                for i in 0..3u32 {
                    sleep(Duration::from_secs(1));
                    log.lock()
                        .push((format!("c{i}"), now().as_nanos() / 1_000_000_000));
                }
                sleep(Duration::from_secs(10));
                now()
            });
            let events = out.lock().clone();
            (events, k.stats(), end)
        }
        let (ev_thread, st_thread, end_thread) = run(false);
        let (ev_light, st_light, end_light) = run(true);
        assert_eq!(ev_thread, ev_light, "identical interleaving");
        assert_eq!(end_thread, end_light);
        assert_eq!(st_thread.threads_started, st_light.threads_started);
        assert_eq!(st_thread.timers_scheduled, st_light.timers_scheduled);
        assert_eq!(st_thread.clock_advances, st_light.clock_advances);
        assert_eq!(st_thread.light_polls, 1, "the spawn's, asking for it");
        assert_eq!(st_light.light_polls, 3);
    }

    /// Zero-duration sleeps re-poll immediately without scheduling timers,
    /// mirroring `Kernel::sleep`'s zero no-op.
    #[test]
    fn light_task_zero_sleep_repolls_inline() {
        let k = Kernel::new();
        let polls = Arc::new(RawMutex::new(0u32));
        let seen = Arc::clone(&polls);
        k.run("client", move || {
            spawn_light("zero", move || {
                let mut n = seen.lock();
                *n += 1;
                if *n < 5 {
                    LightStep::Sleep(Duration::ZERO)
                } else {
                    LightStep::Done
                }
            });
            sleep(Duration::from_secs(1));
        });
        assert_eq!(*polls.lock(), 5);
        assert_eq!(k.stats().light_polls, 5);
        // Only the client's own sleep scheduled a timer.
        assert_eq!(k.stats().timers_scheduled, 1);
    }

    /// Light tasks still pending when the last thread-backed waiter exits
    /// freeze in place: with no observer left the clock stops, mirroring
    /// how detached background threads die at process exit. Crucially the
    /// frozen task does NOT drag virtual time forward past the end of the
    /// observable program.
    #[test]
    fn pending_light_tasks_freeze_at_run_exit() {
        let k = Kernel::new();
        let fired = Arc::new(RawMutex::new(false));
        let flag = Arc::clone(&fired);
        k.run("client", move || {
            spawn_light("late", move || {
                *flag.lock() = true;
                LightStep::Sleep(Duration::from_secs(3600))
            });
        });
        assert!(!*fired.lock(), "frozen before its first poll");
        assert_eq!(k.live_threads(), 1, "frozen task still registered");
        assert_eq!(k.now(), SimInstant::ZERO, "clock did not advance for it");
        assert_eq!(k.stats().light_polls, 0);
    }

    /// A light task that tries to block panics with a diagnostic instead of
    /// wedging the dispatch loop.
    #[test]
    fn light_task_blocking_panics_with_diagnostic() {
        let k = Kernel::new();
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            k.run("client", || {
                spawn_light("bad", || {
                    sleep(Duration::from_secs(1)); // blocking — forbidden
                    LightStep::Done
                });
                sleep(Duration::from_secs(5));
            });
        }))
        .expect_err("must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| (*err.downcast_ref::<&str>().unwrap()).to_owned());
        assert!(
            msg.contains("lightweight task `bad` attempted a blocking operation"),
            "got: {msg}"
        );
    }

    /// An immortal light poller neither deadlocks the kernel (its timer
    /// keeps the clock advancing while threads wait) nor wedges
    /// `Kernel::run`'s exit (it freezes once only light tasks remain).
    #[test]
    fn immortal_light_poller_neither_deadlocks_nor_wedges_exit() {
        let k = Kernel::new();
        k.run("client", || {
            spawn_light("ticker", || LightStep::Sleep(Duration::from_secs(1)));
            sleep(Duration::from_millis(3500));
        });
        // Polled at t=0s,1s,2s,3s while the client slept; frozen afterwards.
        assert_eq!(k.stats().light_polls, 4);
        assert_eq!(k.now(), SimInstant::ZERO + Duration::from_millis(3500));
    }

    /// One state machine (sleep, wait for the client's event, sleep, fire its
    /// own event) on both vehicles: the light task and the thread running
    /// it through `run_blocking` take the same FIFO wake positions, so a
    /// bystander woken by the same event interleaves identically and every
    /// counter but `light_polls`/`os_threads_spawned`/`thread_handoffs`
    /// agrees.
    #[test]
    fn light_wait_matches_thread_wait_schedule() {
        fn run(light: bool) -> (Vec<(&'static str, u64)>, KernelStats, SimInstant) {
            let k = Kernel::new();
            let log: Arc<RawMutex<Vec<(&'static str, u64)>>> = Arc::new(RawMutex::new(Vec::new()));
            let out = Arc::clone(&log);
            let end = k.run("client", move || {
                let note = {
                    let log = Arc::clone(&log);
                    move |what| log.lock().push((what, now().as_nanos() / 1_000_000))
                };
                let go = Event::named(&kernel(), "go");
                let finished = Event::named(&kernel(), "finished");
                let machine = {
                    let (go, finished, note) = (go.clone(), finished.clone(), note.clone());
                    let mut phase = 0u32;
                    move || {
                        phase += 1;
                        match phase {
                            1 => LightStep::Sleep(Duration::from_millis(5)),
                            2 => {
                                note("machine waits");
                                LightStep::Wait(go.clone())
                            }
                            3 => {
                                note("machine woke");
                                LightStep::Sleep(Duration::from_millis(7))
                            }
                            _ => {
                                note("machine done");
                                finished.fire();
                                LightStep::Done
                            }
                        }
                    }
                };
                if light {
                    spawn_light("machine", machine);
                } else {
                    spawn("machine", move || run_blocking(machine));
                }
                // Enlists on `go` after the machine does (t = 5 ms < 6 ms).
                let bystander = spawn("bystander", {
                    let (go, note) = (go.clone(), note.clone());
                    move || {
                        sleep(Duration::from_millis(6));
                        go.wait();
                        note("bystander woke");
                    }
                });
                sleep(Duration::from_millis(20));
                go.fire();
                finished.wait();
                note("client saw finish");
                bystander.join();
                now()
            });
            let events = out.lock().clone();
            (events, k.stats(), end)
        }
        let (ev_thread, st_thread, end_thread) = run(false);
        let (ev_light, st_light, end_light) = run(true);
        assert_eq!(
            ev_thread,
            vec![
                ("machine waits", 5),
                ("machine woke", 20),
                ("bystander woke", 20),
                ("machine done", 27),
                ("client saw finish", 27),
            ]
        );
        assert_eq!(ev_thread, ev_light, "identical interleaving");
        assert_eq!(end_thread, end_light);
        assert_eq!(
            KernelStats {
                light_polls: 0,
                os_threads_spawned: 0,
                thread_handoffs: 0,
                ..st_light
            },
            KernelStats {
                light_polls: 0,
                os_threads_spawned: 0,
                thread_handoffs: 0,
                ..st_thread
            }
        );
        // The machine's four, plus one per spawn: the poll that asks for
        // the spawned closure's thread.
        assert_eq!(st_light.light_polls, 4 + 1);
        assert_eq!(st_thread.light_polls, 2);
        // The bystander; plus, on the thread vehicle, the machine itself.
        assert_eq!(st_light.os_threads_spawned, 1);
        assert_eq!(st_thread.os_threads_spawned, 2);
        // Turns passed between OS threads: every one of the machine's
        // blocks is one more on the thread vehicle; on the light one the
        // bystander's sleep releases the bystander itself, at no cost.
        assert_eq!(
            (st_light.thread_handoffs, st_thread.thread_handoffs),
            (3, 7)
        );
    }

    /// Waiting on an event that has already fired re-polls at once: no
    /// timer, no park, the clock does not move.
    #[test]
    fn light_wait_on_fired_event_repolls_inline() {
        let k = Kernel::new();
        let polls = k.clone().run("client", move || {
            let ev = Event::new(&kernel());
            ev.fire();
            let polls = Arc::new(RawMutex::new(0u32));
            let seen = Arc::clone(&polls);
            spawn_light("eager", move || {
                let mut n = seen.lock();
                *n += 1;
                if *n < 3 {
                    LightStep::Wait(ev.clone())
                } else {
                    LightStep::Done
                }
            });
            sleep(Duration::from_secs(1));
            assert_eq!(now(), SimInstant::ZERO + Duration::from_secs(1));
            let n = *polls.lock();
            n
        });
        assert_eq!(polls, 3);
        assert_eq!(k.stats().light_polls, 3);
        assert_eq!(k.stats().timers_scheduled, 1, "only the client's sleep");
        assert!(k.frozen_light_tasks().is_empty());
    }

    /// A light task parked on an event shows up in the deadlock report like
    /// a thread would: `event.wait`, the event, its holder — and closes the
    /// wait-for cycle through the blocked thread that holds it.
    #[test]
    fn deadlock_report_includes_light_task_parked_on_event() {
        let k = Kernel::new();
        let panic = panic::catch_unwind(AssertUnwindSafe(|| {
            k.run("client", || {
                // `worker` (a thread) owes `e1` and waits for `e2`; the
                // light task `lt` owes `e2` and waits for `e1`.
                let e1 = Event::named(&kernel(), "e1");
                let e2 = Event::named(&kernel(), "e2");
                let (e1w, e2l) = (e1.clone(), e2.clone());
                let mut polled = false;
                spawn_light("lt", move || {
                    assert!(!polled, "never woken: `e1` never fires");
                    polled = true;
                    e2l.mark_holder();
                    LightStep::Wait(e1.clone())
                });
                let worker = spawn("worker", move || {
                    e1w.mark_holder();
                    sleep(Duration::from_secs(1));
                    e2.wait(); // deadlocks against `lt`
                    e1w.fire();
                });
                worker.join();
            });
        }))
        .expect_err("deadlock must panic");
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is the report string");
        assert!(msg.contains("simulation deadlock"), "missing header: {msg}");
        assert!(
            msg.contains("thread `lt` blocked on event.wait (event `e1`, held by `worker`)"),
            "missing the light task's line: {msg}"
        );
        assert!(
            msg.contains("wait-for cycle: `worker` -[event `e2`]-> `lt` -[event `e1`]-> `worker`"),
            "missing cycle: {msg}"
        );
    }

    /// What froze at exit is listed, in spawn order, and is still runnable:
    /// a second `Kernel::run` polls it to completion.
    #[test]
    fn frozen_light_tasks_are_listed_and_resume_under_the_next_run() {
        let k = Kernel::new();
        let finished = Arc::new(RawMutex::new(Vec::new()));
        let log = Arc::clone(&finished);
        k.run("client", move || {
            let gate = Event::named(&kernel(), "gate");
            for (name, first) in [("sleeper", None), ("parked", Some(gate.clone()))] {
                let log = Arc::clone(&log);
                let mut phase = 0u32;
                spawn_light(name, move || {
                    phase += 1;
                    match (phase, &first) {
                        (1, None) => LightStep::Sleep(Duration::from_secs(5)),
                        (1, Some(gate)) => LightStep::Wait(gate.clone()),
                        _ => {
                            log.lock().push(name);
                            LightStep::Done
                        }
                    }
                });
            }
            // Never polled at all: still in the ready queue at exit.
            spawn_light("unpolled", || LightStep::Done);
            let opener = gate.clone();
            let mut opened = false;
            spawn_light("opener", move || {
                if opened {
                    opener.fire();
                    return LightStep::Done;
                }
                opened = true;
                LightStep::Sleep(Duration::from_secs(2))
            });
            sleep(Duration::from_secs(1));
        });
        assert_eq!(
            k.frozen_light_tasks(),
            ["sleeper", "parked", "opener"],
            "`unpolled` ran to Done at its first poll; the rest froze mid-flight"
        );
        assert!(finished.lock().is_empty());
        k.run("second", || sleep(Duration::from_secs(10)));
        assert!(k.frozen_light_tasks().is_empty());
        assert_eq!(*finished.lock(), ["parked", "sleeper"]);
        assert_eq!(k.live_threads(), 0);
    }

    /// `os_threads_spawned` counts promotions and nothing else: a `spawn`
    /// is one, and so is a light task that awaits `task::thread()`; a light
    /// task that never asks is none. `threads_started` counts every
    /// simulated process once, whatever it rides, and `light_polls` only
    /// the polls run inline: a `spawn`'s is the one that asks for its
    /// thread.
    #[test]
    fn os_threads_spawned_counts_promotions_only() {
        let k = Kernel::new();
        k.run("client", || {
            for i in 0..5 {
                spawn_light(format!("l{i}"), || LightStep::Done);
            }
            for i in 0..2 {
                let body = async {
                    task::thread().await;
                    sleep(Duration::from_secs(1));
                };
                spawn_light(format!("p{i}"), task::light(body));
            }
            let hs: Vec<_> = (0..3).map(|i| spawn(format!("t{i}"), || ())).collect();
            for h in hs {
                h.join();
            }
            sleep(Duration::from_secs(2));
        });
        let stats = k.stats();
        assert_eq!(stats.threads_started, 1 + 5 + 2 + 3);
        assert_eq!(stats.os_threads_spawned, 2 + 3);
        assert_eq!(stats.light_polls, 5 + 2 + 3);
    }

    /// Two spawned threads whose sleeps alternate (`a` wakes at 10, 20, …
    /// ms, `b` at 5, 15, …): every timer but `b`'s first passes the turn to
    /// the other thread, and a thread woken by its own dispatch loop is no
    /// hand-off. A thread sleeping alone never hands off at all.
    #[test]
    fn thread_handoffs_count_turns_passed_between_os_threads() {
        const ROUNDS: u64 = 50;
        let k = Kernel::new();
        k.run("client", || {
            let a = spawn("a", || {
                for _ in 0..ROUNDS {
                    sleep(Duration::from_millis(10));
                }
            });
            let b = spawn("b", || {
                sleep(Duration::from_millis(5));
                for _ in 0..ROUNDS {
                    sleep(Duration::from_millis(10));
                }
            });
            a.join();
            b.join();
        });
        // `a`'s ROUNDS timers and the ROUNDS - 1 of `b`'s between them;
        // then `a` exits to the client, the client blocks in `b.join()`
        // until `b`'s last timer, and `b` exits to the client.
        assert_eq!(k.stats().thread_handoffs, 2 * ROUNDS - 1 + 3);
        assert_eq!(
            k.now(),
            SimInstant::ZERO + Duration::from_millis(5 + 10 * ROUNDS)
        );

        let alone = Kernel::new();
        alone.run("client", || {
            for _ in 0..ROUNDS {
                sleep(Duration::from_millis(10));
            }
        });
        assert_eq!(alone.stats().thread_handoffs, 0);
    }

    /// A spawned closure counts as the thread it asks for from the moment
    /// it is spawned: a spawner that leaves `Kernel::run` without joining
    /// it leaves it to run to the end, never frozen, and the clock to the
    /// instant its last sleep ends.
    #[test]
    fn spawned_thread_outlives_an_unjoined_spawner() {
        let k = Kernel::new();
        let (finished, ended) = std::sync::mpsc::channel();
        k.run("client", move || {
            spawn("orphan", move || {
                sleep(Duration::from_secs(5));
                spawn("grandchild", || sleep(Duration::from_secs(2))).join();
                finished.send(now()).expect("the test is waiting");
            });
        });
        assert!(k.frozen_light_tasks().is_empty());
        let end = ended.recv().expect("the orphan ran to the end");
        assert_eq!(end, SimInstant::ZERO + Duration::from_secs(7));
        assert_eq!(k.now(), end);
        assert!(k.frozen_light_tasks().is_empty());
    }

    /// A spawn from outside the simulation starts parked, as a light task
    /// does: it first runs when the next `Kernel::run` dispatches.
    #[test]
    fn spawn_from_off_the_simulation_starts_parked() {
        let k = Kernel::new();
        let ran_at = Arc::new(RawMutex::new(None));
        let seen = Arc::clone(&ran_at);
        let early = k.spawn("early", move || *seen.lock() = Some(now()));
        assert_eq!(k.stats().light_polls, 0);
        assert!(ran_at.lock().is_none() && !early.is_finished());
        k.run("client", || {
            sleep(Duration::from_secs(1));
            early.join();
        });
        assert_eq!(*ran_at.lock(), Some(SimInstant::ZERO));
        assert_eq!(k.stats().os_threads_spawned, 1);
    }

    /// A poll that catches the blocking-operation panic is left with nothing
    /// stale: the refused `sleep` scheduled no timer and the refused `wait`
    /// joined no waiter list, so neither can wake the task early later.
    #[test]
    fn refused_blocking_operations_leave_nothing_registered() {
        let k = Kernel::new();
        let polled_at = k.clone().run("client", || {
            let never = Event::named(&kernel(), "never");
            let fired_later = never.clone();
            let polled_at = Arc::new(RawMutex::new(Vec::new()));
            let log = Arc::clone(&polled_at);
            let mut first = true;
            spawn_light("careless", move || {
                log.lock().push(now().as_nanos() / 1_000_000_000);
                if !first {
                    return LightStep::Done;
                }
                first = false;
                for refused in [
                    panic::catch_unwind(|| sleep(Duration::from_secs(1))),
                    panic::catch_unwind(AssertUnwindSafe(|| never.wait())),
                ] {
                    assert!(refused.is_err());
                }
                LightStep::Sleep(Duration::from_secs(10))
            });
            sleep(Duration::from_secs(5));
            fired_later.fire();
            sleep(Duration::from_secs(10));
            let log = polled_at.lock().clone();
            log
        });
        assert_eq!(polled_at, [0, 10], "woken by its own timer only");
        assert_eq!(
            k.stats().timers_scheduled,
            3,
            "two client sleeps, one task sleep"
        );
    }

    /// A task that takes a thread part-way — two steps as a state machine,
    /// then blocking calls from inside its poll — is, to everything else,
    /// the thread it would have been from the start (a `spawn`, promoted at
    /// its first poll): same interleaving with a bystander, same counters
    /// (the thread is counted as created, the simulated process is not
    /// counted twice), nothing left registered. The expected log is the one
    /// a born OS thread produced, before `spawn` was a promotion too.
    #[test]
    fn promoted_task_reproduces_the_all_thread_schedule() {
        type Log = Vec<(&'static str, u64)>;
        fn run(k: &Kernel, promote: bool) -> (Log, KernelStats, SimInstant) {
            let log: Arc<RawMutex<Log>> = Arc::new(RawMutex::new(Vec::new()));
            let out = Arc::clone(&log);
            let end = k.run("client", move || {
                let note = {
                    let log = Arc::clone(&log);
                    move |what| log.lock().push((what, now().as_nanos() / 1_000_000))
                };
                let go = Event::named(&kernel(), "go");
                let machine = {
                    let (go, note) = (go.clone(), note.clone());
                    let mut phase = 0u32;
                    move || {
                        phase += 1;
                        match phase {
                            1 => LightStep::Sleep(Duration::from_millis(5)),
                            2 => LightStep::Thread,
                            _ => {
                                note("machine blocks");
                                go.wait();
                                note("machine woke");
                                sleep(Duration::from_millis(7));
                                note("machine done");
                                LightStep::Done
                            }
                        }
                    }
                };
                if promote {
                    spawn_light("machine", machine);
                } else {
                    spawn("machine", move || run_blocking(machine));
                }
                // Same deadlines as the machine's, to give a scheduler
                // timer and ready choices between the two.
                let bystander = spawn("bystander", {
                    let (go, note) = (go.clone(), note.clone());
                    move || {
                        sleep(Duration::from_millis(5));
                        go.wait();
                        note("bystander woke");
                        sleep(Duration::from_millis(7));
                        note("bystander done");
                    }
                });
                sleep(Duration::from_millis(20));
                go.fire();
                bystander.join();
                sleep(Duration::from_millis(1));
                now()
            });
            let events = out.lock().clone();
            (events, k.stats(), end)
        }
        let (thread, light) = (Kernel::new(), Kernel::new());
        let (ev_thread, st_thread, end_thread) = run(&thread, false);
        let (ev_light, st_light, end_light) = run(&light, true);
        assert_eq!(
            ev_thread,
            vec![
                ("machine blocks", 5),
                ("machine woke", 20),
                ("bystander woke", 20),
                ("machine done", 27),
                ("bystander done", 27),
            ]
        );
        assert_eq!(ev_thread, ev_light, "identical interleaving");
        assert_eq!(end_thread, end_light);
        assert_eq!(
            KernelStats {
                light_polls: 0,
                thread_handoffs: 0,
                ..st_light
            },
            KernelStats {
                light_polls: 0,
                thread_handoffs: 0,
                ..st_thread
            },
            "promotion counts an OS thread and no second simulated process"
        );
        // The light machine's first sleep is polled on the dispatcher, not
        // handed to a thread of its own.
        assert_eq!(
            (st_thread.thread_handoffs, st_light.thread_handoffs),
            (8, 7)
        );
        // One poll per spawn (machine and bystander), or the machine's two
        // until it asked plus the bystander's.
        assert_eq!((st_thread.light_polls, st_light.light_polls), (2, 3));
        assert_eq!(st_light.os_threads_spawned, 2);
        assert!(light.frozen_light_tasks().is_empty());
        assert_eq!(light.live_threads(), 0);

        // Under a random schedule the promoting run is as replayable as
        // any other: the recorded token reproduces it, decision for
        // decision.
        use crate::sched::RandomScheduler;
        let random = Kernel::new();
        random.set_scheduler(Box::new(RandomScheduler::new(19)));
        let (ev_random, ..) = run(&random, true);
        let trace = random.schedule_trace();
        assert!(!trace.is_empty(), "the scenario offers choices");
        let replay = Kernel::new();
        replay.set_scheduler(Box::new(ReplayScheduler::new(&trace)));
        assert_eq!(run(&replay, true).0, ev_random);
        assert_eq!(replay.schedule_trace(), trace);
    }

    /// A promoted task blocked on an event is a blocked thread: it is in
    /// the deadlock report under the task's name, holder edge and all.
    #[test]
    fn deadlock_report_includes_promoted_task_parked_on_event() {
        let k = Kernel::new();
        let panic = panic::catch_unwind(AssertUnwindSafe(|| {
            k.run("client", || {
                let never = Event::named(&kernel(), "never");
                let done = Event::named(&kernel(), "done");
                let (waited, fired) = (never.clone(), done.clone());
                let mut on_thread = false;
                spawn_light("lt", move || {
                    if !std::mem::replace(&mut on_thread, true) {
                        fired.mark_holder();
                        return LightStep::Thread;
                    }
                    waited.wait(); // nobody fires it
                    fired.fire();
                    LightStep::Done
                });
                done.wait();
            });
        }))
        .expect_err("deadlock must panic");
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is the report string");
        assert!(
            msg.contains("thread `lt` blocked on event.wait (event `never`)"),
            "missing the promoted task's line: {msg}"
        );
        assert!(
            msg.contains("thread `client` blocked on event.wait (event `done`, held by `lt`)"),
            "the holder mark survived the promotion: {msg}"
        );
    }

    /// A poll that panics fails the run with its message, whether it was
    /// still being polled inline (here by `queued` on its way out: a thread
    /// whose own panic nobody would see) or had taken a thread (and has no
    /// caller at all): every thread is woken into the report.
    #[test]
    fn poll_panicking_after_promotion_is_reported_like_one_before() {
        for promote in [false, true] {
            let k = Kernel::new();
            let err = panic::catch_unwind(AssertUnwindSafe(|| {
                k.run("client", || {
                    // Ready, not blocked, when the poll panics: it must be
                    // released into the failure too, or `run` never ends.
                    let queued = spawn("queued", || sleep(Duration::from_secs(1)));
                    let mut polls = 0u32;
                    spawn_light("bad", move || {
                        polls += 1;
                        match polls {
                            1 => LightStep::Sleep(Duration::from_secs(1)),
                            2 if promote => LightStep::Thread,
                            _ => panic!("boom in poll {polls}"),
                        }
                    });
                    sleep(Duration::from_secs(5));
                    queued.join();
                });
            }))
            .expect_err("must panic");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .expect("a formatted panic message");
            let poll = if promote { 3 } else { 2 };
            assert_eq!(
                msg,
                format!("lightweight task `bad` panicked: boom in poll {poll}"),
                "promote={promote}"
            );
        }
    }

    /// A sleep too long for the clock is refused as the *task's* panic —
    /// its name on the dispatching thread, nothing scheduled — exactly as
    /// `sleep` refuses it on a thread.
    #[test]
    fn light_sleep_past_the_end_of_the_clock_panics_as_the_task() {
        fn message(light: bool) -> String {
            let k = Kernel::new();
            let err = panic::catch_unwind(AssertUnwindSafe(|| {
                k.run("client", || {
                    let forever = Duration::from_millis(u64::MAX);
                    if light {
                        spawn_light("late", move || {
                            assert_eq!(&*current_ctx("test").waiter.name, "late");
                            LightStep::Sleep(forever)
                        });
                        sleep(Duration::from_secs(1));
                    } else {
                        spawn("late", move || sleep(forever)).join();
                    }
                });
            }))
            .expect_err("must panic");
            assert_eq!(k.stats().timers_scheduled, u64::from(light));
            err.downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| err.downcast_ref::<String>().cloned())
                .expect("a string payload")
        }
        assert!(message(true).contains("virtual time overflow"));
        assert_eq!(message(true), message(false));
    }

    /// The deadlock report of `scenario`, run as the client of a fresh
    /// kernel.
    fn deadlock_report(scenario: impl FnOnce()) -> String {
        let k = Kernel::new();
        let panic = panic::catch_unwind(AssertUnwindSafe(|| k.run("client", scenario)))
            .expect_err("deadlock must panic");
        let msg = panic_text(panic.as_ref()).expect("panic payload is the report string");
        assert!(msg.contains("simulation deadlock"), "missing header: {msg}");
        msg
    }

    /// A parked `worker` waiting on resource `res` (through an event that
    /// borrows it) while the client joins it.
    fn block_worker_on(res: &Resource) {
        let gate = Event::for_resource(&kernel(), res);
        spawn("worker", move || gate.wait()).join();
    }

    /// Holds on a resource are the holder's own: each hold needs its own
    /// release, and the report names the thread for as long as one is left.
    #[test]
    fn resource_holds_are_read_off_the_holder() {
        for (holds, named) in [(2, true), (1, false)] {
            let msg = deadlock_report(move || {
                let k = kernel();
                let res = k.create_resource("admission", "gate");
                for _ in 0..holds {
                    k.hold_resource(&res);
                }
                k.release_resource(&res);
                block_worker_on(&res);
            });
            let line = "thread `worker` blocked on event.wait (admission `gate`";
            let held = format!("{line}, held by `client`)");
            assert_eq!(msg.contains(&held), named, "{msg}");
            assert!(msg.contains(line), "{msg}");
            assert_eq!(msg.contains("wait-for cycle: `client`"), named, "{msg}");
        }
    }

    /// A release from a thread that is not simulated has no hold of its own
    /// to drop, and drops nobody else's.
    #[test]
    fn release_off_the_simulation_drops_no_one_elses_hold() {
        let msg = deadlock_report(|| {
            let k = kernel();
            let res = k.create_resource("admission", "gate");
            k.hold_resource(&res);
            let (foreign, held) = (k.clone(), res.clone());
            std::thread::spawn(move || foreign.release_resource(&held))
                .join()
                .expect("the foreign release returns");
            block_worker_on(&res);
        });
        assert!(
            msg.contains(
                "thread `worker` blocked on event.wait (admission `gate`, held by `client`)"
            ),
            "{msg}"
        );
        assert!(
            msg.contains(
                "wait-for cycle: `client` -[event `join:worker`]-> `worker` \
                 -[admission `gate`]-> `client`"
            ),
            "{msg}"
        );
    }

    /// AB-BA over two shim mutexes under the FIFO schedule: each thread
    /// sleeps between its two locks, so both park, and the report names the
    /// holders and the cycle through the two `mutex` resources. A lock gets
    /// its resource when a thread first parks on it: `b` (parked on first)
    /// is `mutex#2`, after the two join events.
    #[test]
    fn fifo_abba_over_shim_mutexes_names_holders_and_cycle() {
        let msg = deadlock_report(|| {
            let a = Arc::new(parking_lot::Mutex::new(()));
            let b = Arc::new(parking_lot::Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t1 = spawn("t1", move || {
                let _a = a.lock();
                sleep(Duration::from_secs(1));
                let _b = b.lock();
            });
            let _t2 = spawn("t2", move || {
                let _b = b2.lock();
                sleep(Duration::from_secs(1));
                let _a = a2.lock();
            });
            t1.join();
        });
        for expected in [
            "thread `t1` blocked on mutex.lock (mutex `mutex#2`, held by `t2`)",
            "thread `t2` blocked on mutex.lock (mutex `mutex#3`, held by `t1`)",
            "wait-for cycle: `t1` -[mutex `mutex#2`]-> `t2` -[mutex `mutex#3`]-> `t1`",
        ] {
            assert!(msg.contains(expected), "missing `{expected}`: {msg}");
        }
    }

    /// A shared `RwLock` held by two readers that then block for good: the
    /// writer that parks on it names both.
    #[test]
    fn rwlock_readers_are_all_named_as_holders() {
        let msg = deadlock_report(|| {
            let lock = Arc::new(parking_lot::RwLock::new(()));
            let never = Event::named(&kernel(), "never");
            for name in ["r1", "r2"] {
                let (lock, never) = (Arc::clone(&lock), never.clone());
                spawn(name, move || {
                    let _shared = lock.read();
                    never.wait();
                });
            }
            spawn("writer", move || {
                sleep(Duration::from_secs(1));
                drop(lock.write());
            })
            .join();
        });
        assert!(
            msg.contains("thread `writer` blocked on rwlock.write (rwlock `rwlock#"),
            "{msg}"
        );
        assert!(msg.contains("`, held by `r1`, `r2`)"), "{msg}");
    }

    /// A contended shim mutex parks its loser in virtual time, and the
    /// kernel counts both acquisitions and the park.
    #[test]
    fn contended_shim_mutex_counts_a_park() {
        let k = Kernel::new();
        k.run("client", || {
            let m = Arc::new(parking_lot::Mutex::new(0u32));
            let m2 = Arc::clone(&m);
            let holder = spawn("holder", move || {
                let mut g = m2.lock();
                sleep(Duration::from_secs(1));
                *g += 1;
            });
            sleep(Duration::from_millis(1));
            *m.lock() += 1;
            assert_eq!(now(), SimInstant::ZERO + Duration::from_secs(1));
            holder.join();
            assert_eq!(*m.lock(), 2);
        });
        let st = k.stats();
        assert_eq!(st.lock_parks, 1);
        assert_eq!(st.lock_acquisitions, 3);
    }

    /// Labels nobody supplied are rendered from the kind and the id, and
    /// are no merge key: the recorder keys an unlabelled event and a shim
    /// mutex by their first toucher, a labelled join event by its label.
    #[test]
    fn generated_labels_and_merge_keys_are_pinned() {
        let msg = deadlock_report(|| {
            let ev = Event::new(&kernel());
            spawn("stuck", move || ev.wait()).join();
        });
        assert_eq!(
            msg,
            "simulation deadlock at t=0.000000s: all 2 registered thread(s) are blocked \
             and no timer is pending\n  \
             - thread `client` blocked on event.wait (event `join:stuck`, held by `stuck`)\n  \
             - thread `stuck` blocked on event.wait (event `event#0`)"
        );
        let k = Kernel::new();
        k.record_lock_orders();
        k.run("client", || {
            let m = Arc::new(parking_lot::Mutex::new(()));
            let ev = Event::new(&kernel());
            let (m2, ev2) = (Arc::clone(&m), ev.clone());
            let t1 = spawn("t1", move || {
                let _held = m2.lock();
                sleep(Duration::from_secs(1));
                ev2.fire();
            });
            sleep(Duration::from_millis(1));
            drop(m.lock());
            ev.wait();
            t1.join();
        });
        assert_eq!(k.stats().lock_parks, 1);
        let report = k.take_order_report().expect("recording was on");
        let instances: Vec<(&str, SyncKind, &str)> = report
            .instances
            .iter()
            .map(|i| (i.key.as_str(), i.kind, i.label.as_str()))
            .collect();
        assert_eq!(
            instances,
            [
                ("mutex:@t1#1", SyncKind::Mutex, "mutex:@t1#1"),
                ("event:@t1#1", SyncKind::Event, "event:@t1#1"),
                ("event:join:t1", SyncKind::Event, "event `join:t1`"),
            ]
        );
    }

    /// A hold taken while a light task is polled inline travels with it to
    /// the thread it is promoted onto.
    #[test]
    fn hold_taken_before_promotion_survives_it() {
        let msg = deadlock_report(|| {
            let k = kernel();
            let res = k.create_resource("admission", "gate");
            let (never, held) = (Event::named(&k, "never"), res.clone());
            let mut on_thread = false;
            spawn_light("lt", move || {
                if !std::mem::replace(&mut on_thread, true) {
                    kernel().hold_resource(&held);
                    return LightStep::Thread;
                }
                never.wait();
                LightStep::Done
            });
            block_worker_on(&res);
        });
        assert!(
            msg.contains("thread `worker` blocked on event.wait (admission `gate`, held by `lt`)"),
            "{msg}"
        );
    }

    /// Firing an event drops the firer's hold of it, so a long-lived thread
    /// that marks and fires many events accumulates nothing.
    #[test]
    fn marking_and_firing_events_leaves_no_holds() {
        Kernel::new().run("client", || {
            for i in 0..1_000 {
                let ev = Event::named(&kernel(), format!("ev-{i}"));
                ev.mark_holder();
                ev.fire();
            }
            let waiter = current_ctx("test").waiter;
            assert!(waiter.held.lock().is_empty());
        });
    }

    /// `schedule_trace` snapshots are frozen at the moment they are taken;
    /// later recording copies-on-write instead of mutating the snapshot.
    #[test]
    fn schedule_trace_snapshot_is_frozen() {
        let k = Kernel::new();
        k.set_scheduler(Box::new(crate::sched::RandomScheduler::new(7)));
        let before = k.schedule_trace();
        assert!(before.entries.is_empty());
        k.run("client", || {
            let hs: Vec<_> = (0..4)
                .map(|i| {
                    spawn(format!("t{i}"), move || {
                        sleep(Duration::from_millis(10 * (i + 1) as u64));
                    })
                })
                .collect();
            for h in hs {
                h.join();
            }
        });
        let after = k.schedule_trace();
        assert!(before.entries.is_empty(), "snapshot unchanged");
        assert!(
            !after.entries.is_empty(),
            "random schedule recorded decisions"
        );
    }
}
