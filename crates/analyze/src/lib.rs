//! # rustwren-analyze — pre-flight job-plan linter
//!
//! IBM-PyWren jobs fail in expensive ways: a nested map whose parents
//! exhaust the namespace concurrency limit self-deadlocks (parents hold
//! every slot while waiting on children that can never start), a 2,000-way
//! fan-out slams into the 429 throttle, a fat partition blows the 512 MB
//! action memory limit mid-run. All of these are *predictable from the job
//! plan alone* — before a single function is invoked or a single byte is
//! staged to COS.
//!
//! This crate is that predictor. The executor (or a bench binary) hands
//! [`analyze`] a structured [`JobPlan`] plus a [`CloudProfile`] describing
//! the platform limits, and gets back a list of [`Diagnostic`]s:
//!
//! | Rule | Severity | Detects |
//! |------|----------|---------|
//! | W001 | error/warning | nested-concurrency self-deadlock against the concurrency limit |
//! | W002 | warning | throttle storm (429s) from fan-out or invocation-rate bursts |
//! | W003 | error | per-task payload exceeding the action memory limit |
//! | W004 | error/warning | estimated per-task compute vs the execution time limit |
//! | W005 | warning | degenerate partitions (empty chunks, zero tasks) |
//! | W006 | warning | single-reducer fan-in hot-spot |
//! | W007 | warning | retry x speculation amplification of a full-width map beyond the concurrency limit |
//! | W008 | warning | shuffle data-plane COS operations (map fan-out x partition count) beyond the op budget |
//! | W009 | warning | spawn wave exceeding the submitting tenant's concurrency quota |
//!
//! How diagnostics are acted on is the caller's choice via [`AnalyzeMode`]:
//! `Warn` prints them, `Deny` turns error-severity findings into a hard
//! rejection before invocation.
//!
//! ```
//! use rustwren_analyze::{analyze, CloudProfile, JobPlan, PlanHints};
//!
//! let profile = CloudProfile::default(); // paper limits: 1000 / 600 s / 512 MB
//! let mut plan = JobPlan::new("mergesort", 512);
//! plan.nesting_depth = 4;
//! plan.nested_fanout = 2;
//! let diags = analyze(&plan, &profile);
//! assert!(diags.iter().any(|d| d.rule == rustwren_analyze::Rule::W001));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::time::Duration;

use rustwren_faas::PlatformLimits;

/// Identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are documented by the module-level table
pub enum Rule {
    W001,
    W002,
    W003,
    W004,
    W005,
    W006,
    W007,
    W008,
    W009,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rule::W001 => "W001",
            Rule::W002 => "W002",
            Rule::W003 => "W003",
            Rule::W004 => "W004",
            Rule::W005 => "W005",
            Rule::W006 => "W006",
            Rule::W007 => "W007",
            Rule::W008 => "W008",
            Rule::W009 => "W009",
        })
    }
}

/// How bad a finding is.
///
/// `Error` findings describe plans that *cannot* succeed (deadlock,
/// memory-limit kill); [`AnalyzeMode::Deny`] rejects on these.
/// `Warning` findings describe plans that will run degraded (429 retries,
/// stragglers) but can complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Degraded but survivable.
    Warning,
    /// The plan cannot succeed as written.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding from the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// How severe the finding is.
    pub severity: Severity,
    /// What is wrong, with the numbers that prove it.
    pub message: String,
    /// What to change to make the finding go away.
    pub suggestion: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}: {}\n  help: {}",
            self.rule, self.severity, self.message, self.suggestion
        )
    }
}

/// Platform limits the analyzer lints against.
///
/// Defaults to the paper's IBM Cloud Functions values; build one from a live
/// platform with `CloudProfile::from(functions.limits())`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloudProfile {
    /// Maximum concurrent activations per namespace (paper: 1,000).
    pub concurrency_limit: usize,
    /// Maximum invocations accepted per minute.
    pub invocations_per_minute: u64,
    /// Hard per-invocation execution limit (paper: 600 s).
    pub max_exec_time: Duration,
    /// Per-action memory limit in MB (paper: 512 MB).
    pub memory_limit_mb: u32,
    /// COS request budget a single job's shuffle data plane should stay
    /// under (W008). Object stores rate-limit per prefix and bill per
    /// request, so an M×R exchange can dominate a job's cost and latency
    /// long before any hard platform limit trips.
    pub shuffle_op_budget: u64,
}

impl Default for CloudProfile {
    fn default() -> Self {
        CloudProfile {
            concurrency_limit: 1000,
            invocations_per_minute: 1_000_000,
            max_exec_time: Duration::from_secs(600),
            memory_limit_mb: 512,
            shuffle_op_budget: 100_000,
        }
    }
}

impl From<PlatformLimits> for CloudProfile {
    fn from(l: PlatformLimits) -> Self {
        CloudProfile {
            concurrency_limit: l.concurrency_limit,
            invocations_per_minute: l.invocations_per_minute,
            max_exec_time: l.max_exec_time,
            memory_limit_mb: l.memory_limit_mb,
            shuffle_op_budget: CloudProfile::default().shuffle_op_budget,
        }
    }
}

/// The shape of a job's shuffle data plane, for W008's operation estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShuffleShape {
    /// Map tasks feeding the shuffle.
    pub maps: usize,
    /// Partitions (reducers) each map's output is split into.
    pub partitions: usize,
    /// Whether maps spill one concatenated segment per task (true) instead
    /// of one object per (map, reducer) pair (false).
    pub segmented: bool,
    /// Nothing reads it: the VM relay exchange it once named is retired
    /// (every shuffle goes through COS). The field stays because the frozen
    /// `ledger` benchmark source spells it.
    pub via_relay: bool,
}

/// How the client will spawn the job's invocations (paper §3.1 / Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpawnProfile {
    /// The client thread pool POSTs every invocation itself.
    Direct {
        /// Number of client-side invoker threads.
        client_threads: usize,
    },
    /// A remote invoker function fans groups of invocations out from inside
    /// the cloud, so invocation-spawn itself consumes concurrency slots.
    RemoteInvoker {
        /// Invocations delegated to each remote invoker activation.
        group_size: usize,
        /// Threads each remote invoker runs.
        invoker_threads: usize,
    },
}

/// Optional caller-supplied knowledge the executor cannot infer from the
/// task list: expected recursion shape and per-task cost estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanHints {
    /// Estimated serialized payload per task, in bytes.
    pub est_payload_bytes: Option<u64>,
    /// Estimated modeled compute per task.
    pub est_task_duration: Option<Duration>,
    /// Levels of *nested* `call_async`/`map` below the top-level tasks
    /// (0 = flat job).
    pub nesting_depth: u32,
    /// Children each nested level spawns per parent.
    pub nested_fanout: u32,
}

/// A structured description of a job, assembled by the executor before it
/// stages anything, or by hand for what-if analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct JobPlan {
    /// Human-readable label (usually the registered function name).
    pub label: String,
    /// Number of top-level tasks the job submits.
    pub tasks: usize,
    /// How invocations are spawned.
    pub spawn: SpawnProfile,
    /// Requested chunk size for data partitioning, if any.
    pub chunk_size: Option<u64>,
    /// Largest single input object, if known.
    pub max_object_bytes: Option<u64>,
    /// Logical byte length of each data partition, if the job is data-driven.
    pub partition_bytes: Vec<u64>,
    /// Estimated serialized payload per task, in bytes.
    pub est_payload_bytes: Option<u64>,
    /// Estimated modeled compute per task.
    pub est_task_duration: Option<Duration>,
    /// Levels of nested invocation below the top-level tasks.
    pub nesting_depth: u32,
    /// Children each nested level spawns per parent.
    pub nested_fanout: u32,
    /// Number of map results a single reducer consumes, if the job has a
    /// reduce stage.
    pub reducer_fanin: Option<usize>,
    /// Maximum invocation attempts per task under the executor's retry
    /// policy (1 = no retries).
    pub retry_max_attempts: u32,
    /// Speculative backup copies the job can have in flight at once, over
    /// all its tasks: the extra in-flight width speculation adds (0 =
    /// speculation disabled).
    pub speculative_copies: u32,
    /// Shape of the job's shuffle data plane, if it has one (W008).
    pub shuffle: Option<ShuffleShape>,
    /// Namespace the job is submitted under, when the platform defines a
    /// tenant for it (W009).
    pub tenant_namespace: Option<String>,
    /// The submitting tenant's concurrency quota, when the platform
    /// defines one (W009).
    pub tenant_quota: Option<usize>,
}

impl JobPlan {
    /// A flat plan with `tasks` top-level tasks and defaults everywhere else.
    pub fn new(label: impl Into<String>, tasks: usize) -> Self {
        JobPlan {
            label: label.into(),
            tasks,
            spawn: SpawnProfile::Direct { client_threads: 64 },
            chunk_size: None,
            max_object_bytes: None,
            partition_bytes: Vec::new(),
            est_payload_bytes: None,
            est_task_duration: None,
            nesting_depth: 0,
            nested_fanout: 0,
            reducer_fanin: None,
            retry_max_attempts: 1,
            speculative_copies: 0,
            shuffle: None,
            tenant_namespace: None,
            tenant_quota: None,
        }
    }

    /// Fold caller-supplied [`PlanHints`] into the plan. Hints only fill
    /// gaps or raise the recursion shape — they never erase what the
    /// executor inferred from the task list.
    pub fn apply_hints(&mut self, hints: &PlanHints) {
        if self.est_payload_bytes.is_none() {
            self.est_payload_bytes = hints.est_payload_bytes;
        }
        if self.est_task_duration.is_none() {
            self.est_task_duration = hints.est_task_duration;
        }
        if hints.nesting_depth > self.nesting_depth {
            self.nesting_depth = hints.nesting_depth;
            self.nested_fanout = hints.nested_fanout;
        }
    }

    /// Total simultaneously-live activations if every level of the nested
    /// tree is in flight at once, split into (parents, leaves).
    ///
    /// Parents matter for deadlock (they hold a concurrency slot *while
    /// blocking* on children); leaves only add throttle pressure.
    fn nested_population(&self) -> (u128, u128) {
        let tasks = self.tasks as u128;
        let fanout = u128::from(self.nested_fanout.max(1));
        let depth = self.nesting_depth;
        if depth == 0 {
            return (0, tasks);
        }
        let mut parents: u128 = 0;
        let mut level = tasks;
        for _ in 0..depth {
            parents = parents.saturating_add(level);
            level = level.saturating_mul(fanout);
        }
        (parents, level)
    }
}

/// Execution mode for the pre-flight analyzer, selected on
/// `ExecutorConfig` or via the `RUSTWREN_ANALYZE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalyzeMode {
    /// Skip analysis entirely.
    Off,
    /// Run the analyzer and report findings, but never block the job.
    #[default]
    Warn,
    /// Reject the job with an error before invocation if any
    /// [`Severity::Error`] finding fires.
    Deny,
}

impl AnalyzeMode {
    /// Read the mode from the `RUSTWREN_ANALYZE` environment variable
    /// (`off` / `warn` / `deny`, case-insensitive). Unset or unrecognized
    /// values fall back to [`AnalyzeMode::Warn`].
    pub fn from_env() -> Self {
        match std::env::var("RUSTWREN_ANALYZE") {
            Ok(v) => match v.to_ascii_lowercase().as_str() {
                "off" | "0" | "false" => AnalyzeMode::Off,
                "deny" => AnalyzeMode::Deny,
                _ => AnalyzeMode::Warn,
            },
            Err(_) => AnalyzeMode::Warn,
        }
    }
}

/// Run every rule against `plan` under `profile` and return the findings,
/// most severe first.
pub fn analyze(plan: &JobPlan, profile: &CloudProfile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    rule_w001_nested_deadlock(plan, profile, &mut diags);
    rule_w002_throttle_storm(plan, profile, &mut diags);
    rule_w003_payload_memory(plan, profile, &mut diags);
    rule_w004_exec_time(plan, profile, &mut diags);
    rule_w005_degenerate_partitions(plan, &mut diags);
    rule_w006_reducer_fanin(plan, &mut diags);
    rule_w007_retry_speculation_amplification(plan, profile, &mut diags);
    rule_w008_shuffle_op_budget(plan, profile, &mut diags);
    rule_w009_tenant_quota(plan, &mut diags);
    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
    diags
}

/// W001: nested self-deadlock. Parents block on children while holding a
/// concurrency slot; if the parents alone can fill the namespace limit, the
/// leaves can never start and the whole tree wedges.
fn rule_w001_nested_deadlock(plan: &JobPlan, profile: &CloudProfile, out: &mut Vec<Diagnostic>) {
    if plan.nesting_depth == 0 || plan.tasks == 0 {
        return;
    }
    let (parents, leaves) = plan.nested_population();
    let limit = profile.concurrency_limit as u128;
    if parents >= limit {
        out.push(Diagnostic {
            rule: Rule::W001,
            severity: Severity::Error,
            message: format!(
                "nested job `{}` self-deadlocks: {} blocking parent activation(s) \
                 (tasks={}, depth={}, fanout={}) fill the concurrency limit of {} \
                 before any leaf can start",
                plan.label, parents, plan.tasks, plan.nesting_depth, plan.nested_fanout, limit
            ),
            suggestion: format!(
                "reduce nesting depth/fanout so blocking parents stay below {limit}, \
                 or flatten the recursion into a single map stage"
            ),
        });
    } else if parents.saturating_add(leaves) > limit {
        out.push(Diagnostic {
            rule: Rule::W001,
            severity: Severity::Warning,
            message: format!(
                "nested job `{}` oversubscribes concurrency: {} parent(s) + {} leaf task(s) \
                 exceed the limit of {}; leaves will queue behind blocked parents and may \
                 deadlock under unlucky scheduling",
                plan.label, parents, leaves, limit
            ),
            suggestion: format!(
                "keep the full nested tree (parents + leaves) within {limit} concurrent \
                 activations, or run the leaf level as a separate flat map"
            ),
        });
    }
}

/// W002: throttle storm. Fan-out beyond the concurrency limit or a burst
/// beyond the per-minute rate limit gets 429s and client retry loops.
fn rule_w002_throttle_storm(plan: &JobPlan, profile: &CloudProfile, out: &mut Vec<Diagnostic>) {
    if plan.tasks > profile.concurrency_limit {
        out.push(Diagnostic {
            rule: Rule::W002,
            severity: Severity::Warning,
            message: format!(
                "job `{}` submits {} tasks against a concurrency limit of {}: expect \
                 429 throttling and retry churn for the overflow",
                plan.label, plan.tasks, profile.concurrency_limit
            ),
            suggestion: format!(
                "split the job into waves of at most {} tasks, or raise the namespace \
                 concurrency limit",
                profile.concurrency_limit
            ),
        });
    }
    let (parents, leaves) = plan.nested_population();
    let total = parents.saturating_add(leaves);
    if total > u128::from(profile.invocations_per_minute) {
        out.push(Diagnostic {
            rule: Rule::W002,
            severity: Severity::Warning,
            message: format!(
                "job `{}` issues {} total invocation(s), above the per-minute rate \
                 limit of {}: the tail of the burst will be rejected with 429s",
                plan.label, total, profile.invocations_per_minute
            ),
            suggestion: "pace invocation spawning across more than one minute".to_string(),
        });
    }
}

/// W003: per-task payload vs the action memory limit. An action that loads
/// a partition larger than its memory allocation is killed by the platform.
fn rule_w003_payload_memory(plan: &JobPlan, profile: &CloudProfile, out: &mut Vec<Diagnostic>) {
    let limit_bytes = u64::from(profile.memory_limit_mb) * 1024 * 1024;
    let biggest = plan
        .est_payload_bytes
        .into_iter()
        .chain(plan.partition_bytes.iter().copied())
        .chain(plan.chunk_size)
        .max();
    if let Some(biggest) = biggest {
        if biggest > limit_bytes {
            out.push(Diagnostic {
                rule: Rule::W003,
                severity: Severity::Error,
                message: format!(
                    "job `{}` hands at least one task {} bytes of input, above the \
                     {} MB action memory limit: the activation will be killed",
                    plan.label, biggest, profile.memory_limit_mb
                ),
                suggestion: format!(
                    "shrink the chunk size so every partition fits in {} MB with \
                     working-set headroom",
                    profile.memory_limit_mb
                ),
            });
        }
    }
}

/// W004: estimated per-task compute vs the execution time limit.
fn rule_w004_exec_time(plan: &JobPlan, profile: &CloudProfile, out: &mut Vec<Diagnostic>) {
    let Some(est) = plan.est_task_duration else {
        return;
    };
    let limit = profile.max_exec_time;
    if est > limit {
        out.push(Diagnostic {
            rule: Rule::W004,
            severity: Severity::Error,
            message: format!(
                "job `{}` estimates {:?} of compute per task, above the hard {:?} \
                 execution limit: every task will be killed mid-flight",
                plan.label, est, limit
            ),
            suggestion: "split each task's work across more, smaller tasks".to_string(),
        });
    } else if est.as_secs_f64() > limit.as_secs_f64() * 0.8 {
        out.push(Diagnostic {
            rule: Rule::W004,
            severity: Severity::Warning,
            message: format!(
                "job `{}` estimates {:?} of compute per task, within 20% of the {:?} \
                 execution limit: stragglers or cold-start overhead may push tasks over",
                plan.label, est, limit
            ),
            suggestion: "leave more headroom below the execution limit".to_string(),
        });
    }
}

/// W005: degenerate partitions — empty jobs, empty chunks, chunk sizes that
/// cannot split the largest object.
fn rule_w005_degenerate_partitions(plan: &JobPlan, out: &mut Vec<Diagnostic>) {
    if plan.tasks == 0 {
        out.push(Diagnostic {
            rule: Rule::W005,
            severity: Severity::Warning,
            message: format!("job `{}` has zero tasks: nothing will run", plan.label),
            suggestion: "check the input listing or partitioner configuration".to_string(),
        });
        return;
    }
    let empty = plan.partition_bytes.iter().filter(|&&b| b == 0).count();
    if empty > 0 {
        out.push(Diagnostic {
            rule: Rule::W005,
            severity: Severity::Warning,
            message: format!(
                "job `{}` has {} empty partition(s) out of {}: those tasks pay full \
                 invocation overhead to process zero bytes",
                plan.label, empty, plan.tasks
            ),
            suggestion: "filter zero-length inputs before partitioning".to_string(),
        });
    }
    if let (Some(chunk), Some(max_obj)) = (plan.chunk_size, plan.max_object_bytes) {
        if chunk >= max_obj && plan.tasks > 1 && !plan.partition_bytes.is_empty() {
            out.push(Diagnostic {
                rule: Rule::W005,
                severity: Severity::Warning,
                message: format!(
                    "job `{}` uses chunk size {} >= largest object ({} bytes): chunking \
                     is a no-op and parallelism comes only from the object count",
                    plan.label, chunk, max_obj
                ),
                suggestion: "drop the chunk size or set it below the object size to \
                             actually split objects"
                    .to_string(),
            });
        }
    }
}

/// W006: single-reducer fan-in hot-spot (paper §4: the reduce stage reads
/// every map output through one activation's NIC).
fn rule_w006_reducer_fanin(plan: &JobPlan, out: &mut Vec<Diagnostic>) {
    const FANIN_THRESHOLD: usize = 100;
    if let Some(fanin) = plan.reducer_fanin {
        if fanin > FANIN_THRESHOLD {
            out.push(Diagnostic {
                rule: Rule::W006,
                severity: Severity::Warning,
                message: format!(
                    "job `{}` funnels {} map output(s) into a single reducer: the \
                     reduce stage serializes on one activation's network bandwidth",
                    plan.label, fanin
                ),
                suggestion: "use a shuffle (partitioned reduce) to spread fan-in across \
                             multiple reducers"
                    .to_string(),
            });
        }
    }
}

/// W007: retry x speculation amplification. A map that fits the
/// concurrency limit on paper can still storm the throttle once the
/// speculation layer's backups widen the in-flight width and the retry
/// policy multiplies the total invocation volume.
fn rule_w007_retry_speculation_amplification(
    plan: &JobPlan,
    profile: &CloudProfile,
    out: &mut Vec<Diagnostic>,
) {
    let attempts = u128::from(plan.retry_max_attempts.max(1));
    let copies = u128::from(plan.speculative_copies);
    if attempts == 1 && copies == 0 {
        return;
    }
    let tasks = plan.tasks as u128;
    let limit = profile.concurrency_limit as u128;
    // Worst-case simultaneously-live activations: every task plus every
    // backup copy in flight at once.
    let width = tasks.saturating_add(copies);
    if tasks <= limit && width > limit {
        let volume = width.saturating_mul(attempts);
        out.push(Diagnostic {
            rule: Rule::W007,
            severity: Severity::Warning,
            message: format!(
                "job `{}` fits the concurrency limit at {} task(s), but {} speculative \
                 cop(ies) amplify the in-flight width to {} against a limit of {} \
                 (worst-case {} invocation(s) with {} retry attempt(s)): backups will \
                 throttle the very stragglers they are meant to cover",
                plan.label, tasks, copies, width, limit, volume, attempts
            ),
            suggestion: format!(
                "cap speculation so tasks + copies stays within {limit}, lower the \
                 retry budget, or split the map into waves"
            ),
        });
    }
}

/// W008: shuffle data-plane operation budget. The exchange's COS request
/// count scales with map fan-out × partition count — `2·M·R` (a PUT and a
/// GET per pair) on the whole-object layout, `M·(1 + R)` (one segment PUT
/// per map, one slice GET per pair) when segmented — and a big enough
/// product throttles the job's own key prefix and dominates its request
/// bill.
fn rule_w008_shuffle_op_budget(plan: &JobPlan, profile: &CloudProfile, out: &mut Vec<Diagnostic>) {
    let Some(shape) = plan.shuffle else {
        return;
    };
    let maps = shape.maps as u128;
    let partitions = shape.partitions as u128;
    let pairs = maps.saturating_mul(partitions);
    let est_ops = if shape.segmented {
        maps.saturating_add(pairs)
    } else {
        pairs.saturating_mul(2)
    };
    let budget = u128::from(profile.shuffle_op_budget);
    if est_ops > budget {
        let layout = if shape.segmented {
            "M x (1 + R) segmented"
        } else {
            "2 x M x R whole-object"
        };
        out.push(Diagnostic {
            rule: Rule::W008,
            severity: Severity::Warning,
            message: format!(
                "job `{}` shuffles {} map output(s) across {} partition(s): ~{} COS \
                 operation(s) on the {} exchange, above the {} op budget — the \
                 data plane will dominate the request bill and throttle its own \
                 key prefix",
                plan.label, shape.maps, shape.partitions, est_ops, layout, budget
            ),
            suggestion: "use the partitioned (segmented) plane with fewer partitions, \
                         or add a map-side combiner"
                .to_string(),
        });
    }
}

/// W009: spawn wave vs the submitting tenant's concurrency quota. A map
/// sized to the *global* concurrency limit still stalls when the tenant's
/// own quota is smaller: the overflow waits in the tenant's bounded
/// admission queue and, past its depth, is shed outright. Speculative
/// copies widen the wave by their number, as they do for W007.
fn rule_w009_tenant_quota(plan: &JobPlan, out: &mut Vec<Diagnostic>) {
    let Some(quota) = plan.tenant_quota else {
        return;
    };
    let wave = (plan.tasks as u128).saturating_add(u128::from(plan.speculative_copies));
    if plan.tasks == 0 || wave <= quota as u128 {
        return;
    }
    let ns = plan.tenant_namespace.as_deref().unwrap_or("<unnamed>");
    out.push(Diagnostic {
        rule: Rule::W009,
        severity: Severity::Warning,
        message: format!(
            "job `{}` spawns a wave of {} activation(s) under tenant `{}` whose \
             concurrency quota is {}: the overflow queues in the tenant's bounded \
             admission queue and is shed once the queue fills",
            plan.label, wave, ns, quota
        ),
        suggestion: format!(
            "split the job into waves of at most {quota} task(s), raise tenant \
             `{ns}`'s concurrency quota, or deepen its admission queue"
        ),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(limit: usize) -> CloudProfile {
        CloudProfile {
            concurrency_limit: limit,
            ..CloudProfile::default()
        }
    }

    fn rules(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn w001_fires_on_parent_saturation() {
        // 4 roots, depth 2, fanout 2: parents = 4 + 8 = 12 >= limit 10.
        let mut plan = JobPlan::new("mergesort", 4);
        plan.nesting_depth = 2;
        plan.nested_fanout = 2;
        let diags = analyze(&plan, &profile(10));
        let w001 = diags.iter().find(|d| d.rule == Rule::W001).expect("W001");
        assert_eq!(w001.severity, Severity::Error);
        assert!(w001.message.contains("self-deadlock"), "{}", w001.message);
    }

    #[test]
    fn w001_warns_when_only_leaves_overflow() {
        // parents = 4, leaves = 8; 4 < 10 but 12 > 10.
        let mut plan = JobPlan::new("mergesort", 4);
        plan.nesting_depth = 1;
        plan.nested_fanout = 2;
        let diags = analyze(&plan, &profile(10));
        let w001 = diags.iter().find(|d| d.rule == Rule::W001).expect("W001");
        assert_eq!(w001.severity, Severity::Warning);
    }

    #[test]
    fn w001_silent_on_safe_nesting_and_flat_jobs() {
        let mut plan = JobPlan::new("mergesort", 2);
        plan.nesting_depth = 1;
        plan.nested_fanout = 2;
        // parents = 2, total = 6, limit 10: safe.
        assert!(!rules(&analyze(&plan, &profile(10))).contains(&Rule::W001));
        // Flat job, even a huge one, can never W001.
        let flat = JobPlan::new("flat", 100_000);
        assert!(!rules(&analyze(&flat, &profile(10))).contains(&Rule::W001));
    }

    #[test]
    fn w002_fires_on_fanout_above_concurrency() {
        let plan = JobPlan::new("hyperparam", 2_000);
        let diags = analyze(&plan, &CloudProfile::default());
        assert!(rules(&diags).contains(&Rule::W002));
        assert!(diags.iter().all(|d| d.severity == Severity::Warning));
        let small = JobPlan::new("hyperparam", 900);
        assert!(!rules(&analyze(&small, &CloudProfile::default())).contains(&Rule::W002));
    }

    #[test]
    fn w002_fires_on_rate_limit_burst() {
        let prof = CloudProfile {
            invocations_per_minute: 500,
            concurrency_limit: 5_000,
            ..CloudProfile::default()
        };
        let plan = JobPlan::new("burst", 600);
        let diags = analyze(&plan, &prof);
        assert!(diags
            .iter()
            .any(|d| d.rule == Rule::W002 && d.message.contains("per-minute")));
        let ok = JobPlan::new("burst", 400);
        assert!(!rules(&analyze(&ok, &prof)).contains(&Rule::W002));
    }

    #[test]
    fn w003_fires_on_oversized_partition() {
        let mut plan = JobPlan::new("sort", 4);
        plan.partition_bytes = vec![1 << 20, 600 << 20];
        let diags = analyze(&plan, &CloudProfile::default());
        let w003 = diags.iter().find(|d| d.rule == Rule::W003).expect("W003");
        assert_eq!(w003.severity, Severity::Error);
        plan.partition_bytes = vec![1 << 20, 64 << 20];
        assert!(!rules(&analyze(&plan, &CloudProfile::default())).contains(&Rule::W003));
    }

    #[test]
    fn w003_considers_chunk_size_and_estimate() {
        let mut plan = JobPlan::new("sort", 4);
        plan.chunk_size = Some(1 << 30);
        assert!(rules(&analyze(&plan, &CloudProfile::default())).contains(&Rule::W003));
        let mut plan = JobPlan::new("sort", 4);
        plan.est_payload_bytes = Some(1 << 30);
        assert!(rules(&analyze(&plan, &CloudProfile::default())).contains(&Rule::W003));
    }

    #[test]
    fn w004_error_above_limit_warning_near_limit() {
        let mut plan = JobPlan::new("video", 8);
        plan.est_task_duration = Some(Duration::from_secs(700));
        let diags = analyze(&plan, &CloudProfile::default());
        let w004 = diags.iter().find(|d| d.rule == Rule::W004).expect("W004");
        assert_eq!(w004.severity, Severity::Error);

        plan.est_task_duration = Some(Duration::from_secs(550));
        let diags = analyze(&plan, &CloudProfile::default());
        let w004 = diags.iter().find(|d| d.rule == Rule::W004).expect("W004");
        assert_eq!(w004.severity, Severity::Warning);

        plan.est_task_duration = Some(Duration::from_secs(60));
        assert!(!rules(&analyze(&plan, &CloudProfile::default())).contains(&Rule::W004));
    }

    #[test]
    fn w005_fires_on_empty_partitions_and_zero_tasks() {
        let mut plan = JobPlan::new("scan", 3);
        plan.partition_bytes = vec![10, 0, 20];
        assert!(rules(&analyze(&plan, &CloudProfile::default())).contains(&Rule::W005));

        let empty = JobPlan::new("scan", 0);
        assert!(rules(&analyze(&empty, &CloudProfile::default())).contains(&Rule::W005));

        let mut ok = JobPlan::new("scan", 3);
        ok.partition_bytes = vec![10, 10, 20];
        assert!(!rules(&analyze(&ok, &CloudProfile::default())).contains(&Rule::W005));
    }

    #[test]
    fn w005_fires_on_noop_chunking() {
        let mut plan = JobPlan::new("scan", 4);
        plan.chunk_size = Some(1 << 20);
        plan.max_object_bytes = Some(512 << 10);
        plan.partition_bytes = vec![512 << 10; 4];
        assert!(rules(&analyze(&plan, &CloudProfile::default())).contains(&Rule::W005));
    }

    #[test]
    fn w006_fires_on_wide_fanin_only() {
        let mut plan = JobPlan::new("wordcount", 512);
        plan.reducer_fanin = Some(512);
        assert!(rules(&analyze(&plan, &CloudProfile::default())).contains(&Rule::W006));
        plan.reducer_fanin = Some(32);
        assert!(!rules(&analyze(&plan, &CloudProfile::default())).contains(&Rule::W006));
        plan.reducer_fanin = None;
        assert!(!rules(&analyze(&plan, &CloudProfile::default())).contains(&Rule::W006));
    }

    #[test]
    fn w007_fires_only_when_amplification_crosses_the_limit() {
        // 990 tasks fit a limit of 1000, but 16 backup copies in flight
        // make 1006 simultaneously-live activations.
        let mut plan = JobPlan::new("map", 990);
        plan.speculative_copies = 16;
        plan.retry_max_attempts = 3;
        let diags = analyze(&plan, &CloudProfile::default());
        let w007 = diags.iter().find(|d| d.rule == Rule::W007).expect("W007");
        assert_eq!(w007.severity, Severity::Warning);
        assert!(w007.message.contains("to 1006 against"), "{}", w007.message);
        assert!(!w007.message.contains("  "), "{}", w007.message);

        // Amplified width within the limit: silent.
        let mut ok = JobPlan::new("map", 984);
        ok.speculative_copies = 16;
        ok.retry_max_attempts = 3;
        assert!(!rules(&analyze(&ok, &CloudProfile::default())).contains(&Rule::W007));

        // No amplification features enabled: silent even when wide (that is
        // W002's job).
        let wide = JobPlan::new("map", 2_000);
        assert!(!rules(&analyze(&wide, &CloudProfile::default())).contains(&Rule::W007));

        // Already wider than the limit without speculation: W002 owns it.
        let mut over = JobPlan::new("map", 1_500);
        over.speculative_copies = 16;
        assert!(!rules(&analyze(&over, &CloudProfile::default())).contains(&Rule::W007));
    }

    #[test]
    fn w008_fires_on_over_partitioned_whole_object_plan() {
        // 2,000 maps × 128 partitions on the whole-object layout:
        // 2 × 2,000 × 128 = 512,000 ops against a 100,000 budget.
        let mut plan = JobPlan::new("sort", 2_000);
        plan.shuffle = Some(ShuffleShape {
            maps: 2_000,
            partitions: 128,
            segmented: false,
            via_relay: false,
        });
        let diags = analyze(&plan, &CloudProfile::default());
        let w008 = diags.iter().find(|d| d.rule == Rule::W008).expect("W008");
        assert_eq!(w008.severity, Severity::Warning);
        assert!(w008.message.contains("512000"), "{}", w008.message);
    }

    #[test]
    fn w008_respects_segmentation_and_budget() {
        // The same fan-out segmented: 2,000 × (1 + 128) = 258,000 — still
        // over budget, but less than half the whole-object count.
        let mut plan = JobPlan::new("sort", 2_000);
        plan.shuffle = Some(ShuffleShape {
            maps: 2_000,
            partitions: 128,
            segmented: true,
            via_relay: false,
        });
        let diags = analyze(&plan, &CloudProfile::default());
        assert!(diags
            .iter()
            .any(|d| d.rule == Rule::W008 && d.message.contains("258000")));

        // A modest shuffle stays silent: 100 × (1 + 16) = 1,700 ops.
        let mut small = JobPlan::new("sort", 100);
        small.shuffle = Some(ShuffleShape {
            maps: 100,
            partitions: 16,
            segmented: true,
            via_relay: false,
        });
        assert!(!rules(&analyze(&small, &CloudProfile::default())).contains(&Rule::W008));

        // No shuffle stage at all: silent.
        let flat = JobPlan::new("map", 2_000);
        assert!(!rules(&analyze(&flat, &CloudProfile::default())).contains(&Rule::W008));
    }

    #[test]
    fn w009_fires_when_the_wave_exceeds_the_tenant_quota() {
        let mut plan = JobPlan::new("map", 32);
        plan.tenant_namespace = Some("acme".into());
        plan.tenant_quota = Some(8);
        let diags = analyze(&plan, &CloudProfile::default());
        let w009 = diags.iter().find(|d| d.rule == Rule::W009).expect("W009");
        assert_eq!(w009.severity, Severity::Warning);
        assert!(w009.message.contains("acme"), "{}", w009.message);
        assert!(w009.message.contains("quota is 8"), "{}", w009.message);

        // A wave within the quota is silent.
        plan.tasks = 8;
        assert!(!rules(&analyze(&plan, &CloudProfile::default())).contains(&Rule::W009));

        // No tenant on the plan (the default namespace with no TenantConfig):
        // silent even when wide — that is W002's territory.
        let wide = JobPlan::new("map", 5_000);
        assert!(!rules(&analyze(&wide, &CloudProfile::default())).contains(&Rule::W009));
    }

    #[test]
    fn w009_counts_speculative_copies_toward_the_wave() {
        // 6 tasks fit a quota of 8 on paper, but a backup copy for every
        // task makes the worst-case wave 12; two copies make it 8, which fits.
        let mut plan = JobPlan::new("map", 6);
        plan.tenant_namespace = Some("acme".into());
        plan.tenant_quota = Some(8);
        plan.speculative_copies = 6;
        assert!(rules(&analyze(&plan, &CloudProfile::default())).contains(&Rule::W009));
        plan.speculative_copies = 2;
        assert!(!rules(&analyze(&plan, &CloudProfile::default())).contains(&Rule::W009));
    }

    #[test]
    fn errors_sort_before_warnings() {
        let mut plan = JobPlan::new("mixed", 2_000);
        plan.nesting_depth = 2;
        plan.nested_fanout = 2;
        plan.partition_bytes = vec![600 << 20];
        let diags = analyze(&plan, &CloudProfile::default());
        assert!(diags.len() >= 3);
        let first_warning = diags.iter().position(|d| d.severity == Severity::Warning);
        let last_error = diags.iter().rposition(|d| d.severity == Severity::Error);
        if let (Some(w), Some(e)) = (first_warning, last_error) {
            assert!(e < w, "errors must precede warnings: {diags:#?}");
        }
    }

    #[test]
    fn profile_from_platform_limits() {
        let limits = PlatformLimits {
            concurrency_limit: 7,
            invocations_per_minute: 42,
            max_exec_time: Duration::from_secs(9),
            memory_limit_mb: 128,
        };
        let prof = CloudProfile::from(limits);
        assert_eq!(prof.concurrency_limit, 7);
        assert_eq!(prof.invocations_per_minute, 42);
        assert_eq!(prof.max_exec_time, Duration::from_secs(9));
        assert_eq!(prof.memory_limit_mb, 128);
    }

    #[test]
    fn apply_hints_fills_gaps_without_clobbering() {
        let mut plan = JobPlan::new("j", 4);
        plan.est_payload_bytes = Some(100);
        plan.apply_hints(&PlanHints {
            est_payload_bytes: Some(999),
            est_task_duration: Some(Duration::from_secs(5)),
            nesting_depth: 3,
            nested_fanout: 2,
        });
        assert_eq!(plan.est_payload_bytes, Some(100)); // executor wins
        assert_eq!(plan.est_task_duration, Some(Duration::from_secs(5)));
        assert_eq!(plan.nesting_depth, 3);
        assert_eq!(plan.nested_fanout, 2);
    }

    #[test]
    fn diagnostic_display_includes_rule_and_help() {
        let d = Diagnostic {
            rule: Rule::W001,
            severity: Severity::Error,
            message: "boom".into(),
            suggestion: "fix it".into(),
        };
        let s = d.to_string();
        assert!(s.starts_with("W001 error: boom"));
        assert!(s.contains("help: fix it"));
    }

    #[test]
    fn analyze_mode_default_and_env_parsing() {
        assert_eq!(AnalyzeMode::default(), AnalyzeMode::Warn);
        // from_env reads the live environment; only exercise the unset path
        // deterministically here (CI sets RUSTWREN_ANALYZE in a dedicated job).
        std::env::remove_var("RUSTWREN_ANALYZE");
        assert_eq!(AnalyzeMode::from_env(), AnalyzeMode::Warn);
    }
}
