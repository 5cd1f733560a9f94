//! # rustwren-verify — schedule-exploration model checker
//!
//! Runs a simulated program many times under adversarial schedulers and
//! checks two invariants on every run:
//!
//! * **No panic** — including kernel-detected deadlocks, which surface as
//!   panics carrying the wait-for-graph report, and a shim lock found held
//!   across a yield.
//! * **Bitwise result equality** — every schedule must produce exactly the
//!   result of the reference FIFO run; any divergence is a race made
//!   visible.
//!
//! The choice points are the kernel's: which ready task runs, which of the
//! timers due at one instant fires first, and whether a thread yields at an
//! event's fire or wait. Shim locks are no choice point: the kernel runs one
//! task at a time, so a lock no task holds across a yield is atomic.
//!
//! Every run records its scheduling decisions as a sparse
//! [`ScheduleTrace`]. When a run fails, the trace is minimized by delta
//! debugging ([ddmin]) — each candidate subset is *replayed* and kept only
//! if it reproduces the same failure signature — and the result is printed
//! as a `RUSTWREN_SCHEDULE=<token>` one-liner: export that variable and
//! re-run the same test binary to step through the exact failing
//! interleaving under a debugger.
//!
//! ```
//! use rustwren_verify::{explore, Budget};
//!
//! let report = explore(
//!     |kernel| {
//!         kernel.run("client", || {
//!             let h = rustwren_sim::spawn("worker", || 21 * 2);
//!             h.join()
//!         })
//!     },
//!     &Budget::dfs(20, 2),
//! );
//! assert!(report.ok(), "{report}");
//! ```
//!
//! [ddmin]: https://doi.org/10.1109/32.988498

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex as StdMutex, OnceLock, PoisonError};

use rustwren_sim::{
    Choice, ChoiceKind, FifoScheduler, Kernel, RandomScheduler, ReplayScheduler, ScheduleTrace,
    Scheduler, TraceEntry,
};

/// Hard cap on shrink replays, so delta debugging cannot dominate a test
/// run even for pathological traces.
const MAX_SHRINK_REPLAYS: usize = 600;

/// How schedules are generated.
#[derive(Debug, Clone, Copy)]
pub enum Strategy {
    /// Seeded PCT-style randomized search: good bug-finding per schedule,
    /// scales to long programs.
    Random {
        /// Base seed; schedule `i` uses `seed + i`.
        seed: u64,
        /// Per-probe preemption probability (0.0..=1.0).
        preempt_probability: f64,
    },
    /// Bounded-preemption exhaustive search (iterative-deepening DFS over
    /// the choice tree) with adjacent-independent-transposition pruning.
    /// Only viable for small programs.
    Dfs {
        /// Maximum preemptions injected per schedule.
        max_preemptions: usize,
    },
}

/// How much exploration to buy.
#[derive(Debug, Clone)]
pub struct Budget {
    /// Maximum schedules to run (the reference FIFO run is extra).
    pub schedules: usize,
    /// Schedule generation strategy.
    pub strategy: Strategy,
    /// Label used for trace artifacts written to `RUSTWREN_TRACE_DIR`.
    pub label: String,
}

impl Budget {
    /// Bounded-exhaustive exploration of up to `schedules` schedules with
    /// at most `max_preemptions` injected preemptions each.
    pub fn dfs(schedules: usize, max_preemptions: usize) -> Budget {
        Budget {
            schedules,
            strategy: Strategy::Dfs { max_preemptions },
            label: "explore".to_string(),
        }
    }

    /// Names the exploration for `RUSTWREN_TRACE_DIR` artifacts.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Budget {
        self.label = label.into();
        self
    }
}

/// A failing schedule, minimized and replayable.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The full failure text (panic payload or result-mismatch
    /// description), including the kernel-appended schedule token.
    pub message: String,
    /// The stable first line used to match failures across replays.
    pub signature: String,
    /// The complete trace of the failing run.
    pub trace: ScheduleTrace,
    /// The delta-debugged minimal trace that still reproduces `signature`.
    pub shrunk: ScheduleTrace,
    /// Replays spent shrinking.
    pub shrink_replays: usize,
}

impl Failure {
    /// The `RUSTWREN_SCHEDULE` token of the minimal failing schedule.
    pub fn schedule(&self) -> String {
        self.shrunk.token()
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.signature)?;
        writeln!(
            f,
            "  replay: RUSTWREN_SCHEDULE={} ({} decision(s), shrunk from {} in {} replay(s))",
            self.shrunk.token(),
            self.shrunk.entries.len(),
            self.trace.entries.len(),
            self.shrink_replays
        )?;
        write!(f, "{}", self.message)
    }
}

/// The outcome of [`explore`].
#[derive(Debug)]
pub struct Report {
    /// Schedules actually run (including the FIFO reference, excluding
    /// shrink replays).
    pub schedules: usize,
    /// The first failing schedule found, if any.
    pub failure: Option<Failure>,
}

impl Report {
    /// True when no schedule failed.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.failure {
            Some(fail) => write!(f, "FAILED after {} schedule(s): {fail}", self.schedules),
            None => write!(f, "{} schedule(s) passed", self.schedules),
        }
    }
}

// ---------------------------------------------------------------------------
// Quiet panic hook
// ---------------------------------------------------------------------------

static QUIET_DEPTH: AtomicUsize = AtomicUsize::new(0);

/// While any exploration is active, silences the default panic printout for
/// panics raised *on exploring simulated threads* — they are the expected
/// mechanism of schedule search, and thousands of backtraces would bury the
/// one report that matters. All other panics print as usual.
struct QuietGuard;

impl QuietGuard {
    fn new() -> QuietGuard {
        static INSTALLED: OnceLock<()> = OnceLock::new();
        INSTALLED.get_or_init(|| {
            let prev = panic::take_hook();
            panic::set_hook(Box::new(move |info| {
                if QUIET_DEPTH.load(Ordering::Relaxed) > 0 && rustwren_sim::exploring() {
                    return;
                }
                prev(info);
            }));
        });
        QUIET_DEPTH.fetch_add(1, Ordering::Relaxed);
        QuietGuard
    }
}

impl Drop for QuietGuard {
    fn drop(&mut self) {
        QUIET_DEPTH.fetch_sub(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Single-run harness
// ---------------------------------------------------------------------------

struct RunOutcome<R> {
    /// `Err` carries the panic payload text.
    result: Result<R, String>,
    trace: ScheduleTrace,
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn run_once<R, F>(program: &F, scheduler: Box<dyn Scheduler>) -> RunOutcome<R>
where
    F: Fn(Kernel) -> R,
{
    let kernel = Kernel::new();
    kernel.set_scheduler(scheduler);
    let result = panic::catch_unwind(AssertUnwindSafe(|| program(kernel.clone())));
    if result.is_err() {
        // A failing run's spawned threads are still unwinding on their own
        // OS threads (the deadlock broadcast wakes each into a re-raise,
        // and nothing joins them once the client unwound). Wait for them to
        // deregister — their panic hooks run before that — so their
        // expected panics cannot outlive the quiet window and leak a
        // backtrace after exploration returns.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while kernel.live_threads() > 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
    }
    RunOutcome {
        result: result.map_err(|p| panic_text(p.as_ref())),
        trace: kernel.schedule_trace().as_ref().clone(),
    }
}

/// The stable identity of a failure: its first line for panics, a fixed
/// marker for result mismatches (the mismatching values may differ between
/// the original failure and a shrunk replay) and for deadlocks (whose
/// header embeds the virtual timestamp, which legitimately varies with the
/// schedule).
fn signature(message: &str) -> String {
    if message.starts_with("result mismatch") {
        return "result mismatch".to_string();
    }
    let first = message.lines().next().unwrap_or(message);
    if first.starts_with("simulation deadlock") {
        return "simulation deadlock".to_string();
    }
    first.to_string()
}

// ---------------------------------------------------------------------------
// explore
// ---------------------------------------------------------------------------

/// Explores schedules of `program` under `budget`.
///
/// `program` receives a fresh [`Kernel`] per schedule (pre-configured with
/// the exploration scheduler) and is expected to
/// drive it with [`Kernel::run`] and return the job's result. The first,
/// reference run uses the plain FIFO scheduler and defines the expected
/// result; every explored schedule must reproduce it bitwise.
pub fn explore<R, F>(program: F, budget: &Budget) -> Report
where
    R: PartialEq + fmt::Debug,
    F: Fn(Kernel) -> R,
{
    let _quiet = QuietGuard::new();

    let baseline = run_once(&program, Box::new(FifoScheduler));
    let expected = match baseline.result {
        Ok(r) => r,
        Err(message) => {
            // Fails even without exploration: report with the (empty-ish)
            // FIFO trace; nothing to shrink.
            let failure = Failure {
                signature: signature(&message),
                message,
                trace: baseline.trace.clone(),
                shrunk: baseline.trace,
                shrink_replays: 0,
            };
            write_artifact(&budget.label, &failure);
            return Report {
                schedules: 1,
                failure: Some(failure),
            };
        }
    };

    let mut schedules = 1;
    let run_schedule = |scheduler: Box<dyn Scheduler>, schedules: &mut usize| -> Option<Failure> {
        let out = run_once(&program, scheduler);
        *schedules += 1;
        let message = match out.result {
            Err(m) => m,
            Ok(r) if r != expected => {
                format!(
                    "result mismatch: expected {expected:?}, got {r:?}\n\
                     schedule: RUSTWREN_SCHEDULE={}",
                    out.trace.token()
                )
            }
            Ok(_) => return None,
        };
        Some(shrink(&program, &expected, out.trace, message))
    };

    let failure = match budget.strategy {
        Strategy::Random {
            seed,
            preempt_probability,
        } => {
            let mut found = None;
            for i in 0..budget.schedules {
                let sched = RandomScheduler::new(seed.wrapping_add(i as u64))
                    .with_preempt_probability(preempt_probability);
                if let Some(f) = run_schedule(Box::new(sched), &mut schedules) {
                    found = Some(f);
                    break;
                }
            }
            found
        }
        Strategy::Dfs { max_preemptions } => {
            let mut found = None;
            let mut stack: Vec<Vec<u32>> = vec![Vec::new()];
            while let Some(prefix) = stack.pop() {
                if schedules > budget.schedules {
                    break;
                }
                let log = Arc::new(StdMutex::new(Vec::new()));
                let sched = DfsScheduler::new(prefix.clone(), max_preemptions, Arc::clone(&log));
                if let Some(f) = run_schedule(Box::new(sched), &mut schedules) {
                    found = Some(f);
                    break;
                }
                let records = log.lock().unwrap_or_else(PoisonError::into_inner);
                push_extensions(&prefix, &records, &mut stack, max_preemptions);
            }
            found
        }
    };

    if let Some(f) = &failure {
        write_artifact(&budget.label, f);
    }
    Report { schedules, failure }
}

/// Replays `program` once under the schedule encoded in `token` (a
/// `RUSTWREN_SCHEDULE` value) and returns the program's result, or the
/// panic text if the replayed schedule fails.
///
/// # Errors
///
/// `Err` carries either the token parse error or the replayed failure's
/// panic text.
pub fn replay<R, F>(program: F, token: &str) -> Result<R, String>
where
    F: Fn(Kernel) -> R,
{
    let _quiet = QuietGuard::new();
    let sched = ReplayScheduler::from_token(token)?;
    run_once(&program, Box::new(sched)).result
}

// ---------------------------------------------------------------------------
// Shrinking (ddmin)
// ---------------------------------------------------------------------------

/// Minimizes a failing trace by delta debugging: repeatedly drop chunks of
/// decisions and keep the candidate iff *replaying* it reproduces the same
/// failure signature. Shrink acceptance therefore doubles as replay
/// verification — the returned trace is known-good by construction.
fn shrink<R, F>(program: &F, expected: &R, trace: ScheduleTrace, message: String) -> Failure
where
    R: PartialEq + fmt::Debug,
    F: Fn(Kernel) -> R,
{
    let sig = signature(&message);
    let mut replays = 0usize;
    let mut reproduces = |entries: &[TraceEntry]| -> bool {
        if replays >= MAX_SHRINK_REPLAYS {
            return false;
        }
        replays += 1;
        let t = ScheduleTrace::from_entries(entries.to_vec());
        let out: RunOutcome<R> = run_once(program, Box::new(ReplayScheduler::new(&t)));
        match out.result {
            Err(m) => signature(&m) == sig,
            Ok(r) => sig == "result mismatch" && r != *expected,
        }
    };

    let mut current = trace.entries.clone();
    let mut n = 2usize;
    while current.len() >= 2 && n >= 2 {
        let chunk = current.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let candidate: Vec<TraceEntry> = current[..start]
                .iter()
                .chain(&current[end..])
                .copied()
                .collect();
            if !candidate.is_empty() && reproduces(&candidate) {
                current = candidate;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if n >= current.len() {
                break;
            }
            n = (n * 2).min(current.len());
        }
    }
    // A trace can sometimes shrink to a single decision.
    if current.len() == 1 && !reproduces(&[]) {
        // keep the single entry
    } else if current.len() == 1 {
        current.clear();
    }

    Failure {
        message,
        signature: sig,
        trace,
        shrunk: ScheduleTrace::from_entries(current),
        shrink_replays: replays,
    }
}

// ---------------------------------------------------------------------------
// Bounded-exhaustive DFS
// ---------------------------------------------------------------------------

/// One decision the DFS scheduler made, with everything the driver needs to
/// enumerate the untaken siblings.
#[derive(Debug, Clone)]
struct BranchRecord {
    kind: ChoiceKind,
    candidates: Vec<u64>,
    chosen: usize,
    /// Footprint of the segment executed *before* this choice point (sync
    /// resources touched since the previous one).
    footprint: Vec<u64>,
}

/// Exhaustive explorer: follows a fixed decision prefix, takes the default
/// everywhere past it, and logs every choice point so the driver can
/// enumerate the untaken branches. Preemptions are bounded per schedule —
/// the classic result that most concurrency bugs need only a few.
#[derive(Debug)]
pub struct DfsScheduler {
    prefix: Vec<u32>,
    pos: usize,
    max_preemptions: usize,
    preemptions_used: usize,
    log: Arc<StdMutex<Vec<BranchRecord>>>,
}

impl DfsScheduler {
    fn new(
        prefix: Vec<u32>,
        max_preemptions: usize,
        log: Arc<StdMutex<Vec<BranchRecord>>>,
    ) -> DfsScheduler {
        DfsScheduler {
            prefix,
            pos: 0,
            max_preemptions,
            preemptions_used: 0,
            log,
        }
    }

    fn record(&mut self, c: &Choice<'_>, chosen: usize) {
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(BranchRecord {
                kind: c.kind,
                candidates: c.candidates.to_vec(),
                chosen,
                footprint: c.segment.to_vec(),
            });
        self.pos += 1;
    }
}

impl Scheduler for DfsScheduler {
    fn choose(&mut self, c: &Choice<'_>) -> usize {
        let idx = (self.prefix.get(self.pos).copied().unwrap_or(0) as usize)
            .min(c.candidates.len().saturating_sub(1));
        self.record(c, idx);
        idx
    }

    fn preempt(&mut self, c: &Choice<'_>) -> bool {
        let wanted = self.prefix.get(self.pos) == Some(&1);
        let yes = wanted && self.preemptions_used < self.max_preemptions;
        if yes {
            self.preemptions_used += 1;
        }
        self.record(c, usize::from(yes));
        yes
    }

    fn exploring(&self) -> bool {
        true
    }
}

fn disjoint(a: &[u64], b: &[u64]) -> bool {
    !a.iter().any(|x| b.contains(x))
}

/// Enumerates the unexplored siblings of a completed run. To visit each
/// decision sequence exactly once, alternatives are only generated at
/// positions past the fixed prefix (earlier positions were enumerated by
/// ancestor runs); pruned alternatives are schedules that merely transpose
/// two adjacent segments with disjoint footprints — by independence they
/// reach the state the explorer has already seen.
fn push_extensions(
    prefix: &[u32],
    records: &[BranchRecord],
    stack: &mut Vec<Vec<u32>>,
    max_preemptions: usize,
) {
    for n in (prefix.len()..records.len()).rev() {
        let rec = &records[n];
        let alternatives: std::ops::Range<usize> = match rec.kind {
            ChoiceKind::Preempt => {
                let used = records[..n]
                    .iter()
                    .filter(|r| r.kind == ChoiceKind::Preempt && r.chosen == 1)
                    .count();
                // `chosen` past the prefix is always 0 here; the alternative
                // is "yes", budget permitting.
                if used < max_preemptions && rec.chosen == 0 {
                    1..2
                } else {
                    0..0
                }
            }
            _ => (rec.chosen + 1)..rec.candidates.len(),
        };
        for alt in alternatives.rev() {
            if rec.kind == ChoiceKind::Ready && is_equivalent_transposition(records, n, alt) {
                continue;
            }
            let mut decisions: Vec<u32> = Vec::with_capacity(n + 1);
            decisions.extend_from_slice(prefix);
            decisions.resize(n, 0);
            decisions.push(alt as u32);
            stack.push(decisions);
        }
    }
}

/// Whether picking `alt` at position `n` merely swaps the transitions of
/// positions `n` and `n+1`, and those transitions touched disjoint sync
/// resources — an independent transposition that provably reaches an
/// already-visited state.
fn is_equivalent_transposition(records: &[BranchRecord], n: usize, alt: usize) -> bool {
    let (Some(next), Some(after)) = (records.get(n + 1), records.get(n + 2)) else {
        return false;
    };
    if next.kind != ChoiceKind::Ready {
        return false;
    }
    let alt_id = records[n].candidates.get(alt);
    let next_id = next.candidates.get(next.chosen);
    match (alt_id, next_id) {
        (Some(a), Some(b)) if a == b => {
            // transition(n)'s footprint is the segment of choice n+1;
            // transition(n+1)'s is the segment of choice n+2.
            disjoint(&next.footprint, &after.footprint)
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Trace artifacts
// ---------------------------------------------------------------------------

/// Writes the shrunk failing trace to `$RUSTWREN_TRACE_DIR/<label>.trace`
/// (for CI artifact upload). Best-effort: any I/O failure is ignored.
fn write_artifact(label: &str, failure: &Failure) {
    let Ok(dir) = std::env::var("RUSTWREN_TRACE_DIR") else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    let _ = std::fs::create_dir_all(&dir);
    let safe: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    let body = format!(
        "RUSTWREN_SCHEDULE={}\nfull-trace: {}\nsignature: {}\n\n{}\n",
        failure.shrunk.token(),
        failure.trace.token(),
        failure.signature,
        failure.message
    );
    let _ = std::fs::write(format!("{dir}/{safe}.trace"), body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn clean_program_passes_random_exploration() {
        let report = explore(
            |kernel| {
                kernel.run("client", || {
                    let hs: Vec<_> = (0..4)
                        .map(|i| rustwren_sim::spawn(format!("w{i}"), move || i * 2))
                        .collect();
                    hs.into_iter().map(|h| h.join()).sum::<i32>()
                })
            },
            &Budget {
                schedules: 25,
                strategy: Strategy::Random {
                    seed: 11,
                    preempt_probability: 0.1,
                },
                label: "explore".to_string(),
            },
        );
        assert!(report.ok(), "{report}");
        assert_eq!(report.schedules, 26);
    }

    #[test]
    fn clean_program_passes_dfs_exploration() {
        let report = explore(
            |kernel| {
                kernel.run("client", || {
                    let a = rustwren_sim::spawn("a", || {
                        rustwren_sim::sleep(Duration::from_millis(1));
                        1u64
                    });
                    let b = rustwren_sim::spawn("b", || {
                        rustwren_sim::sleep(Duration::from_millis(1));
                        2u64
                    });
                    a.join() + b.join()
                })
            },
            &Budget::dfs(40, 2),
        );
        assert!(report.ok(), "{report}");
        assert!(report.schedules > 1, "DFS explored alternatives");
    }

    #[test]
    fn signature_extraction() {
        assert_eq!(signature("boom\nschedule: X"), "boom");
        assert_eq!(
            signature("result mismatch: expected 1, got 2"),
            "result mismatch"
        );
        assert_eq!(
            signature("simulation deadlock at t=1.2s: all 3 blocked\nwaits..."),
            "simulation deadlock"
        );
    }

    #[test]
    fn replay_rejects_bad_tokens() {
        let r: Result<(), String> = replay(|_k| (), "v9:zzz");
        assert!(r.is_err());
    }
}
