//! Pluggable scheduling: choice points, schedule traces and the
//! [`Scheduler`] implementations used by schedule exploration.
//!
//! # Choice points
//!
//! Under cooperative serialization the kernel makes exactly three kinds of
//! scheduling decision:
//!
//! * **Ready** — which thread in the ready queue to dispatch next
//!   (historically: FIFO `pop_front`).
//! * **Timer** — which of several timers sharing the earliest deadline to
//!   pop first (historically: lowest sequence number).
//! * **Preempt** — whether the running thread yields at an instrumented
//!   preemption point (an event fire or wait; historically: never).
//!
//! A decision only counts as a *choice point* when it is non-trivial: a
//! Ready/Timer pick among ≥ 2 candidates, or any Preempt probe while
//! another thread is ready. The kernel numbers choice points with a global
//! step counter; because the simulation is a pure function of the decision
//! sequence, the step numbering is identical across runs that make the same
//! decisions — which is what makes sparse traces replayable.
//!
//! # Trace tokens
//!
//! A [`ScheduleTrace`] records only the *non-default* decisions (index ≠ 0,
//! or "yes" for preempts) as `(step, kind, index)` triples and renders them
//! as a compact token:
//!
//! ```text
//! v1:17r1,44p1,102t2
//! ```
//!
//! meaning: at choice point 17 pick ready candidate 1, at 44 preempt, at
//! 102 pick timer candidate 2; every unlisted choice point takes the
//! default (FIFO) decision. Setting `RUSTWREN_SCHEDULE=<token>` replays the
//! schedule exactly — see [`ReplayScheduler`].

use std::collections::HashMap;
use std::fmt;

use crate::hash;

/// What kind of scheduling decision a choice point is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChoiceKind {
    /// Pick which ready thread to dispatch; candidates are waiter ids.
    Ready,
    /// Pick which same-deadline timer to pop; candidates are timer seqs.
    Timer,
    /// Decide whether the running thread yields at a preemption point.
    Preempt,
}

impl ChoiceKind {
    fn letter(self) -> char {
        match self {
            ChoiceKind::Ready => 'r',
            ChoiceKind::Timer => 't',
            ChoiceKind::Preempt => 'p',
        }
    }

    fn from_letter(c: char) -> Option<ChoiceKind> {
        match c {
            'r' => Some(ChoiceKind::Ready),
            't' => Some(ChoiceKind::Timer),
            'p' => Some(ChoiceKind::Preempt),
            _ => None,
        }
    }
}

/// One scheduling decision offered to a [`Scheduler`].
#[derive(Debug)]
pub struct Choice<'a> {
    /// The kind of decision.
    pub kind: ChoiceKind,
    /// Global choice-point number (deterministic given prior decisions).
    pub step: u64,
    /// Candidate identities: waiter ids for [`ChoiceKind::Ready`], timer
    /// sequence numbers for [`ChoiceKind::Timer`], and `[current]` for
    /// [`ChoiceKind::Preempt`].
    pub candidates: &'a [u64],
    /// Sync-resource tokens touched since the previous choice point, i.e.
    /// the footprint of the segment the running thread just executed: event
    /// resource ids, and shim locks by address (so tokens compare only
    /// within one run). Used by exhaustive explorers for
    /// independence-based pruning.
    pub segment: &'a [u64],
}

/// A pluggable scheduling policy for the kernel.
///
/// The contract: given an identical decision history, the kernel presents an
/// identical sequence of [`Choice`]s (same steps, kinds and candidate
/// lists), so any deterministic `Scheduler` yields a reproducible run.
/// Implementations must therefore derive decisions only from the `Choice`
/// and their own deterministic state — never from wall time or ambient
/// randomness.
pub trait Scheduler: Send {
    /// Picks the index (into `c.candidates`) of the candidate to run.
    /// Out-of-range returns are clamped to the last candidate.
    fn choose(&mut self, c: &Choice<'_>) -> usize;

    /// Whether the running thread should yield at a preemption point.
    /// Only consulted while [`Scheduler::exploring`] is true and at least
    /// one other thread is ready.
    fn preempt(&mut self, c: &Choice<'_>) -> bool {
        let _ = c;
        false
    }

    /// True for schedulers that explore non-default interleavings. While
    /// false (the default), the kernel skips choice-point accounting and
    /// preemption probes entirely, keeping the historical FIFO fast path
    /// bit-for-bit identical.
    fn exploring(&self) -> bool {
        false
    }
}

/// The historical kernel policy: FIFO ready queue, timers in sequence
/// order, no preemption. This is the default and reproduces pre-exploration
/// timelines bit-for-bit.
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn choose(&mut self, _c: &Choice<'_>) -> usize {
        0
    }
}

/// A seeded, PCT-style randomized scheduler.
///
/// Each thread gets a pseudo-random priority derived from the seed; ready
/// picks dispatch the highest-priority candidate. At each preemption point
/// the running thread yields with a small probability, and a preempted
/// thread is demoted to a fresh low priority — approximating PCT's priority
/// change points. Fully deterministic per seed.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    seed: u64,
    /// Preemption probability in thousandths (0..=1000).
    preempt_millis: u64,
    priorities: HashMap<u64, u64>,
}

impl RandomScheduler {
    /// Creates a scheduler exploring the schedule determined by `seed`,
    /// with the default 10% preemption probability.
    pub fn new(seed: u64) -> RandomScheduler {
        RandomScheduler {
            seed,
            preempt_millis: 100,
            priorities: HashMap::new(),
        }
    }

    /// Sets the per-probe preemption probability (clamped to `0.0..=1.0`).
    #[must_use]
    pub fn with_preempt_probability(mut self, p: f64) -> RandomScheduler {
        self.preempt_millis = ((p.clamp(0.0, 1.0) * 1000.0) as u64).min(1000);
        self
    }

    fn priority(&mut self, id: u64) -> u64 {
        let seed = self.seed;
        *self
            .priorities
            .entry(id)
            .or_insert_with(|| hash::hash2(seed, id) | (1 << 63))
    }
}

impl Scheduler for RandomScheduler {
    fn choose(&mut self, c: &Choice<'_>) -> usize {
        match c.kind {
            // Highest-priority ready thread runs, like PCT.
            ChoiceKind::Ready => {
                let mut best = 0;
                let mut best_pri = 0;
                for (i, &id) in c.candidates.iter().enumerate() {
                    let pri = self.priority(id);
                    if pri > best_pri {
                        best_pri = pri;
                        best = i;
                    }
                }
                best
            }
            // Timers have no thread identity worth biasing; sample uniformly.
            ChoiceKind::Timer => {
                (hash::hash2(self.seed ^ 0x7133, c.step) as usize) % c.candidates.len().max(1)
            }
            ChoiceKind::Preempt => 0,
        }
    }

    fn preempt(&mut self, c: &Choice<'_>) -> bool {
        let current = c.candidates.first().copied().unwrap_or(0);
        let roll = hash::hash2(self.seed ^ 0x9e3d, hash::hash2(c.step, current)) % 1000;
        if roll < self.preempt_millis {
            // Demote the preempted thread: it re-enters the ready queue with
            // a fresh priority drawn from the low band, so the yield actually
            // hands the CPU to someone else (PCT priority change point).
            self.priorities.insert(
                current,
                hash::hash2(self.seed ^ 0x51ce, c.step) & ((1 << 62) - 1),
            );
            true
        } else {
            false
        }
    }

    fn exploring(&self) -> bool {
        true
    }
}

/// Replays a recorded [`ScheduleTrace`]: every listed choice point takes the
/// recorded decision, every other one the default. Built from a
/// `RUSTWREN_SCHEDULE` token by the kernel at construction time.
#[derive(Debug, Clone)]
pub struct ReplayScheduler {
    decisions: HashMap<u64, (ChoiceKind, u32)>,
}

impl ReplayScheduler {
    /// Creates a replayer for `trace`.
    pub fn new(trace: &ScheduleTrace) -> ReplayScheduler {
        ReplayScheduler {
            decisions: trace
                .entries
                .iter()
                .map(|e| (e.step, (e.kind, e.index)))
                .collect(),
        }
    }

    /// Parses a `v1:` token and creates a replayer for it.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed token component.
    pub fn from_token(token: &str) -> Result<ReplayScheduler, String> {
        ScheduleTrace::parse(token).map(|t| ReplayScheduler::new(&t))
    }

    fn lookup(&self, c: &Choice<'_>) -> Option<u32> {
        match self.decisions.get(&c.step) {
            Some(&(kind, index)) if kind == c.kind => Some(index),
            // A recorded decision whose kind no longer matches the choice
            // point at this step: the trace came from a different execution
            // — routine when delta debugging drops entries and renumbers
            // every later step. Fall back to the default decision instead of
            // panicking: schedulers run inside kernel dispatch (sometimes on
            // an exiting thread), where a panic would strand every other
            // simulated thread on a dispatch that never happens.
            Some(_) => None,
            None => None,
        }
    }
}

impl Scheduler for ReplayScheduler {
    fn choose(&mut self, c: &Choice<'_>) -> usize {
        self.lookup(c).map_or(0, |i| i as usize)
    }

    fn preempt(&mut self, c: &Choice<'_>) -> bool {
        self.lookup(c) == Some(1)
    }

    fn exploring(&self) -> bool {
        true
    }
}

/// One recorded non-default decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Global choice-point number the decision was made at.
    pub step: u64,
    /// The kind of decision.
    pub kind: ChoiceKind,
    /// Chosen candidate index (1 = "yes" for preempts).
    pub index: u32,
}

impl TraceEntry {
    /// This decision as one part of a token: `{step}{kind letter}{index}`.
    fn part(&self) -> String {
        format!("{}{}{}", self.step, self.kind.letter(), self.index)
    }
}

/// A sparse record of the non-default scheduling decisions of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleTrace {
    /// The recorded decisions, in step order.
    pub entries: Vec<TraceEntry>,
}

impl ScheduleTrace {
    /// A trace with the given entries (sorted by step).
    pub fn from_entries(mut entries: Vec<TraceEntry>) -> ScheduleTrace {
        entries.sort_by_key(|e| e.step);
        ScheduleTrace { entries }
    }

    /// Whether any non-default decision was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records a non-default decision.
    pub fn record(&mut self, step: u64, kind: ChoiceKind, index: usize) {
        self.entries.push(TraceEntry {
            step,
            kind,
            index: u32::try_from(index).expect("candidate index fits u32"),
        });
    }

    /// Renders the `v1:` replay token, e.g. `v1:17r1,44p1`.
    pub fn token(&self) -> String {
        let parts: Vec<String> = self.entries.iter().map(TraceEntry::part).collect();
        format!("v1:{}", parts.join(","))
    }

    /// Parses a `v1:` token as [`ScheduleTrace::token`] renders one, steps
    /// strictly increasing: nothing else is accepted.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed token component.
    pub fn parse(token: &str) -> Result<ScheduleTrace, String> {
        let body = token
            .strip_prefix("v1:")
            .ok_or_else(|| format!("schedule token must start with `v1:`, got `{token}`"))?;
        let mut entries: Vec<TraceEntry> = Vec::new();
        if body.is_empty() {
            return Ok(ScheduleTrace { entries });
        }
        for (i, part) in body.split(',').enumerate() {
            if part.is_empty() {
                return Err(format!("`{body}`: part {i} is empty"));
            }
            let letter_at = part
                .find(|c: char| !c.is_ascii_digit())
                .ok_or_else(|| format!("`{part}`: missing kind letter"))?;
            let (step_s, rest) = part.split_at(letter_at);
            let mut rest_chars = rest.chars();
            let kind = rest_chars
                .next()
                .and_then(ChoiceKind::from_letter)
                .ok_or_else(|| format!("`{part}`: unknown kind letter"))?;
            let step = step_s
                .parse::<u64>()
                .map_err(|e| format!("`{part}`: bad step: {e}"))?;
            let index = rest_chars
                .as_str()
                .parse::<u32>()
                .map_err(|e| format!("`{part}`: bad index: {e}"))?;
            let entry = TraceEntry { step, kind, index };
            if entry.part() != part {
                return Err(format!("`{part}`: not as a token renders it"));
            }
            if let Some(prev) = entries.last().filter(|prev| prev.step >= step) {
                return Err(format!("`{part}`: step does not follow step {}", prev.step));
            }
            entries.push(entry);
        }
        Ok(ScheduleTrace { entries })
    }
}

impl fmt::Display for ScheduleTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.token())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_roundtrip() {
        let mut t = ScheduleTrace::default();
        t.record(17, ChoiceKind::Ready, 1);
        t.record(44, ChoiceKind::Preempt, 1);
        t.record(102, ChoiceKind::Timer, 2);
        assert_eq!(t.token(), "v1:17r1,44p1,102t2");
        assert_eq!(ScheduleTrace::parse(&t.token()).unwrap(), t);
    }

    #[test]
    fn empty_token_roundtrip() {
        let t = ScheduleTrace::default();
        assert_eq!(t.token(), "v1:");
        assert!(ScheduleTrace::parse("v1:").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        for (token, part) in [
            ("v2:1r1", "v1:"),
            ("v1:12x3", "`12x3`"),
            ("v1:r1", "`r1`"),
            ("v1:9r", "`9r`"),
            ("v1:5r+1", "`5r+1`"),
            ("v1:5r01", "`5r01`"),
            ("v1:05r1", "`05r1`"),
            ("v1:3r1,,4r1", "part 1 is empty"),
            ("v1:3r1,", "part 1 is empty"),
            ("v1:,3r1", "part 0 is empty"),
            ("v1:9r1,3r1", "`3r1`"),
            ("v1:5r1,5t2", "`5t2`"),
            ("v1:18446744073709551616r1", "bad step"),
            ("v1:1r4294967296", "bad index"),
        ] {
            let err = ScheduleTrace::parse(token).expect_err(token);
            assert!(err.contains(part), "{token}: {err}");
        }
    }

    /// Every token `token()` can render parses, down to the widest numbers,
    /// and re-renders byte for byte.
    #[test]
    fn accepted_tokens_rerender_byte_for_byte() {
        for token in [
            "v1:",
            "v1:0r0",
            "v1:0p1,7t0,18446744073709551615r4294967295",
        ] {
            let trace = ScheduleTrace::parse(token).expect(token);
            assert_eq!(trace.token(), token);
        }
    }

    proptest::proptest! {
        /// Whatever `parse` accepts is what `token()` renders back.
        #[test]
        fn accepted_garbage_rerenders_byte_for_byte(
            parts in proptest::prop::collection::vec(("[0-9]{1,3}", "[rtpx]", "[0-9+]{1,2}"), 0..5)
        ) {
            let parts: Vec<String> = parts.into_iter().map(|(s, k, i)| s + &k + &i).collect();
            let token = format!("v1:{}", parts.join(","));
            if let Ok(trace) = ScheduleTrace::parse(&token) {
                proptest::prop_assert_eq!(trace.token(), token);
            }
        }

        /// A recorded trace survives `token()` and `parse` unchanged.
        #[test]
        fn random_traces_round_trip(
            entries in proptest::prop::collection::vec((1u64..1_000, 0usize..3, 0u32..5), 0..20)
        ) {
            let mut trace = ScheduleTrace::default();
            let mut step = 0;
            for (gap, kind, index) in entries {
                step += gap;
                let kind = [ChoiceKind::Ready, ChoiceKind::Timer, ChoiceKind::Preempt][kind];
                trace.record(step, kind, index as usize);
            }
            proptest::prop_assert_eq!(ScheduleTrace::parse(&trace.token()), Ok(trace));
        }
    }

    #[test]
    fn random_scheduler_is_deterministic_per_seed() {
        let run = |seed| {
            let mut s = RandomScheduler::new(seed);
            let mut picks = Vec::new();
            for step in 0..50 {
                let c = Choice {
                    kind: ChoiceKind::Ready,
                    step,
                    candidates: &[3, 8, 21],
                    segment: &[],
                };
                picks.push(s.choose(&c));
                let p = Choice {
                    kind: ChoiceKind::Preempt,
                    step: step + 1000,
                    candidates: &[8],
                    segment: &[],
                };
                picks.push(usize::from(s.preempt(&p)));
            }
            picks
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds explore differently");
    }

    #[test]
    fn replay_follows_recorded_decisions() {
        let mut t = ScheduleTrace::default();
        t.record(5, ChoiceKind::Ready, 2);
        t.record(9, ChoiceKind::Preempt, 1);
        let mut r = ReplayScheduler::new(&t);
        let c5 = Choice {
            kind: ChoiceKind::Ready,
            step: 5,
            candidates: &[1, 2, 3],
            segment: &[],
        };
        let c6 = Choice {
            kind: ChoiceKind::Ready,
            step: 6,
            candidates: &[1, 2, 3],
            segment: &[],
        };
        let p9 = Choice {
            kind: ChoiceKind::Preempt,
            step: 9,
            candidates: &[1],
            segment: &[],
        };
        let p10 = Choice {
            kind: ChoiceKind::Preempt,
            step: 10,
            candidates: &[1],
            segment: &[],
        };
        assert_eq!(r.choose(&c5), 2);
        assert_eq!(r.choose(&c6), 0, "unlisted steps take the default");
        assert!(r.preempt(&p9));
        assert!(!r.preempt(&p10));
    }

    #[test]
    fn replay_tolerates_kind_divergence() {
        let mut t = ScheduleTrace::default();
        t.record(5, ChoiceKind::Timer, 1);
        let mut r = ReplayScheduler::new(&t);
        let c = Choice {
            kind: ChoiceKind::Ready,
            step: 5,
            candidates: &[1, 2],
            segment: &[],
        };
        // A Timer decision landing on a Ready step (the trace came from a
        // different execution, e.g. a shrinking candidate): take the default
        // rather than panicking mid-dispatch.
        assert_eq!(r.choose(&c), 0);
        let p = Choice {
            kind: ChoiceKind::Preempt,
            step: 5,
            candidates: &[1],
            segment: &[],
        };
        assert!(!r.preempt(&p));
    }
}
