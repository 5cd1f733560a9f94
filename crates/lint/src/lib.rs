//! # rustwren-lint — workspace sim-safety & determinism linter
//!
//! The platform's core guarantees — bit-for-bit replay
//! (`RUSTWREN_SCHEDULE`), deterministic chaos timelines, and the model
//! checker's schedule exploration — all hinge on *source-level*
//! invariants that `rustc` cannot enforce: no wall clocks in simulated
//! code, no OS threads outside the kernel, no hash-iteration order
//! leaking into sim-visible output, no panics on agent hot paths. This
//! crate enforces them as a rustc-tidy-style static pass over the whole
//! workspace: a lightweight comment/string-aware scanner ([`lexer`])
//! feeding per-file rule engines ([`rules`]), governed by a committed
//! ratchet baseline ([`baseline`], `lint.toml`): new violations fail CI,
//! fixes lower the baseline, and `// lint: allow(Lxxx) — reason` grants
//! reviewed line-level exemptions.
//!
//! | Rule | Detects |
//! |------|---------|
//! | L001 | wall-clock APIs (`Instant::now`, `SystemTime::now`) outside the allowlist |
//! | L002 | OS threading/sleep (`std::thread::*`) outside `crates/sim`'s kernel |
//! | L003 | `HashMap`/`HashSet` iteration escaping into order-sensitive output |
//! | L004 | `unwrap()`/`expect()` on agent/executor/shuffle hot paths |
//! | L005 | `println!`/`eprintln!`/`dbg!` in library crates |
//! | L006 | *retired (unbounded channel construction; number reserved)* |
//! | L007 | *retired (static lock sites unexercised by explored schedules; number reserved)* |
//! | L008 | blocking sim primitive reachable from a light root (`spawn_light`) |
//! | L009 | panic site transitively reachable from an agent hot path |
//! | L010 | wall-clock API transitively reachable from a simulated path |
//! | L011 | *retired (static lock orders unexercised by the dynamic lock graph; number reserved)* |
//! | L012 | `pub fn` in library or shim code whose name nothing else in the tree spells |
//!
//! L001–L005 are per-line lexical rules; L012 is a name search over the
//! whole tree, tests, examples and benches included; L008–L010 are
//! *interprocedural*: they run on a workspace-wide call graph
//! ([`symbols`] → [`graph`] → [`reach`]) with conservative
//! over-approximating edge resolution, so a clean report is a proof over
//! all call paths the heuristics can see, not just the paths tests happen
//! to execute (DESIGN §15).
//!
//! The crate is dependency-free (std only) so it builds and runs even
//! when the rest of the workspace is broken, and consistent with the
//! offline shim policy (no `syn`, no `toml`, no `serde`).

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod baseline;
pub mod graph;
pub mod lexer;
pub mod reach;
pub mod report;
pub mod rules;
pub mod runner;
pub mod symbols;

/// Identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // variants documented by the crate-level table
pub enum Rule {
    L001,
    L002,
    L003,
    L004,
    L005,
    L008,
    L009,
    L010,
    L012,
}

impl Rule {
    /// Every rule, in order.
    pub const ALL: [Rule; 9] = [
        Rule::L001,
        Rule::L002,
        Rule::L003,
        Rule::L004,
        Rule::L005,
        Rule::L008,
        Rule::L009,
        Rule::L010,
        Rule::L012,
    ];

    /// Stable textual id (`"L001"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Rule::L001 => "L001",
            Rule::L002 => "L002",
            Rule::L003 => "L003",
            Rule::L004 => "L004",
            Rule::L005 => "L005",
            Rule::L008 => "L008",
            Rule::L009 => "L009",
            Rule::L010 => "L010",
            Rule::L012 => "L012",
        }
    }

    /// One-line description for reports.
    pub fn description(&self) -> &'static str {
        match self {
            Rule::L001 => "wall-clock API in simulated code",
            Rule::L002 => "OS threading outside the sim kernel",
            Rule::L003 => "hash-order iteration escaping into output",
            Rule::L004 => "unwrap/expect on an agent hot path",
            Rule::L005 => "print macro in library code",
            Rule::L008 => "blocking primitive reachable from a light root",
            Rule::L009 => "panic site reachable from an agent hot path",
            Rule::L010 => "wall-clock API reachable from a simulated path",
            Rule::L012 => "pub fn that nothing in the tree calls",
        }
    }

    /// Long-form explanation for `--explain Lxxx`: what the rule proves,
    /// why the invariant matters, and how to fix or suppress a finding.
    pub fn explain(&self) -> &'static str {
        match self {
            Rule::L001 => {
                "L001 — wall-clock API in simulated code\n\
                 \n\
                 Flags direct calls to `Instant::now` / `SystemTime::now` in\n\
                 simulated crates. The sim kernel owns virtual time; reading the\n\
                 OS clock makes timelines depend on host speed and breaks\n\
                 bit-for-bit replay (RUSTWREN_SCHEDULE).\n\
                 \n\
                 Fix: take time from the kernel (`Kernel::now`) or thread a\n\
                 timestamp in from the caller. Files that legitimately measure\n\
                 wall time (bench harnesses) carry `[allow.L001]` entries in\n\
                 lint.toml with a reason.\n\
                 \n\
                 See also L010, the interprocedural version: a helper that calls\n\
                 `Instant::now` is flagged when any `entry(sim_path)` function\n\
                 can reach it."
            }
            Rule::L002 => {
                "L002 — OS threading outside the sim kernel\n\
                 \n\
                 Flags `std::thread::spawn` / `sleep` / `JoinHandle` outside\n\
                 `crates/sim`'s kernel. OS threads escape the virtual-time\n\
                 scheduler: their interleavings are invisible to the model\n\
                 checker and non-deterministic under replay. All concurrency\n\
                 must go through `Kernel::spawn` / `spawn_light`: the one start\n\
                 site of an OS thread is the kernel's `promote`, which gives a\n\
                 light task that asks for one (`task::thread().await`, as every\n\
                 `spawn`ed closure does first) a thread of its own."
            }
            Rule::L003 => {
                "L003 — hash-order iteration escaping into output\n\
                 \n\
                 Flags iteration over `HashMap`/`HashSet` flowing into\n\
                 order-sensitive sinks (Vec collection, serialization, output).\n\
                 Hash iteration order varies per process, so it breaks bitwise\n\
                 goldens. Fix: `BTreeMap`/`BTreeSet`, or sort before emitting."
            }
            Rule::L004 => {
                "L004 — unwrap/expect on an agent hot path\n\
                 \n\
                 Flags `.unwrap()` / `.expect(` in core/store/faas/workloads\n\
                 sources. A panic inside an activation kills the whole agent\n\
                 where the paper's model requires a typed error that retry and\n\
                 speculation can handle. Fix: propagate with `?` and a typed\n\
                 error. The matcher is token-based: chains split across lines\n\
                 (`foo.\\n    unwrap()`) are found.\n\
                 \n\
                 See also L009, the interprocedural version covering helpers\n\
                 called from hot paths."
            }
            Rule::L005 => {
                "L005 — print macro in library code\n\
                 \n\
                 Flags `println!` / `eprintln!` / `dbg!` in library crates.\n\
                 Library output corrupts the structured trace/golden streams the\n\
                 harnesses compare. Fix: use the tracing hooks or return data."
            }
            Rule::L008 => {
                "L008 — blocking primitive reachable from a light root\n\
                 \n\
                 Interprocedural. What is handed to `spawn_light` — a closure,\n\
                 or resumable code as `task::light(async { .. })` /\n\
                 `task::light(an_async_fn(..))` — runs as a poll on the kernel\n\
                 dispatch loop, and so does an action body handed to\n\
                 `register_resumable`; calling a blocking primitive\n\
                 (`Event::wait`, `sleep`, `Kernel::block_current`) from inside it\n\
                 would block the dispatcher itself — the kernel panics at\n\
                 runtime (kernel.rs `IN_LIGHT_STEP`). This rule proves the\n\
                 absence statically: it walks the call graph from every such\n\
                 light root and reports any path to a blocking sink, with the\n\
                 full call chain in the message.\n\
                 \n\
                 Fix: write the poll as `async` code awaiting\n\
                 `rustwren_sim::task::{sleep, wait}` (leaf futures, not sinks).\n\
                 The parking_lot shim's `Mutex::lock` is NOT a blocking sink:\n\
                 it never parks a simulated task (one that finds the lock held\n\
                 panics), and its guard cannot live across an `.await`.\n\
                 \n\
                 Code that runs after the task has asked for an OS thread\n\
                 (`task::thread().await`) may block. Say so at the call that\n\
                 enters it: `// lint: allow(L008) — reason` on a call-site line\n\
                 stops the walk from following that call (and nothing else in\n\
                 the function).\n\
                 \n\
                 False positives come from over-approximated method dispatch\n\
                 (any `.wait(` resolves to every `wait` impl). Suppress at the\n\
                 root's line (the `spawn_light` call, or the `async fn`) with\n\
                 `// lint: allow(L008) — reason`."
            }
            Rule::L009 => {
                "L009 — panic site reachable from an agent hot path\n\
                 \n\
                 Interprocedural L004. Roots are functions annotated\n\
                 `// lint: entry(hot_path)` (the agent body, executor submit\n\
                 paths, platform invoke paths). Sinks are panic sites in any\n\
                 function transitively reachable from a root: `panic!`-family\n\
                 macros, index expressions, and `unwrap`/`expect` in files\n\
                 outside L004's per-line scope (inside it, L004 already reports\n\
                 them line-by-line). `crates/sim` is excluded — kernel invariant\n\
                 panics are the sim's documented failure mode, not an agent\n\
                 reliability bug.\n\
                 \n\
                 Fix: return a typed error along the whole chain. Suppress at\n\
                 the sink line with `// lint: allow(L009) — reason`."
            }
            Rule::L010 => {
                "L010 — wall-clock API reachable from a simulated path\n\
                 \n\
                 Interprocedural L001. Roots are functions annotated\n\
                 `// lint: entry(sim_path)`. Sinks are `Instant::now` /\n\
                 `SystemTime::now` sites in files carrying an `[allow.L001]`\n\
                 entry: the per-file exemption says the file may read wall\n\
                 clocks for its own purposes (bench harness, verify timing);\n\
                 reachability proves the read leaks into a simulated path,\n\
                 which the per-file audit cannot see. Non-allowlisted files\n\
                 need no second report — L001 already flags them per line.\n\
                 \n\
                 Fix: thread virtual time in from the kernel. Suppress at the\n\
                 sink line with `// lint: allow(L010) — reason`."
            }
            Rule::L012 => {
                "L012 — pub fn that nothing in the tree calls\n\
                 \n\
                 rustc's dead-code lint covers every function except a `pub`\n\
                 one, whose callers a library cannot see; this workspace can.\n\
                 A `pub fn` in the non-test code of a library crate or a shim is\n\
                 flagged when its name appears nowhere else in the tree: in no\n\
                 `src/`, `tests/`, `examples/` or `benches/` (the ledger's home).\n\
                 Comments and strings are blanked; a definition is not a use,\n\
                 nor is the defining file's own `#[cfg(test)]` code.\n\
                 \n\
                 Fix: delete it, with what only it kept alive. Baseline: 0."
            }
        }
    }

    /// Parses `"L001"` … `"L012"` (not the retired `"L006"`, `"L007"` and
    /// `"L011"`).
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.as_str() == s)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-indexed line; 0 for file-level findings.
    pub line: usize,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: {}: {}", self.rule, self.file, self.message)
        } else {
            write!(
                f,
                "{}: {}:{}: {}",
                self.rule, self.file, self.line, self.message
            )
        }
    }
}
