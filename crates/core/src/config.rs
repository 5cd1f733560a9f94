//! Executor configuration.

use std::time::Duration;

use rustwren_analyze::{AnalyzeMode, PlanHints, SpawnProfile};
use rustwren_faas::DEFAULT_RUNTIME;
use rustwren_sim::hash::{hash2, unit_f64};

/// How the client turns a list of tasks into cloud invocations (§5.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpawnStrategy {
    /// The client issues every invocation itself over its own network, from
    /// a small thread pool — the original PyWren behaviour. Slow from a
    /// high-latency network.
    Direct {
        /// Concurrent client-side invocation threads.
        client_threads: usize,
    },
    /// *Massive function spawning*: the client invokes a handful of remote
    /// invoker functions, each of which issues a group of invocations from
    /// inside the cloud over the low-latency internal network.
    RemoteInvoker {
        /// Invocations per remote invoker function (the paper settled on
        /// groups of 100).
        group_size: usize,
        /// Concurrent invocation streams inside each invoker container
        /// (bounded by one container's CPU).
        invoker_threads: usize,
    },
    /// Per-job choice — the paper's "mechanism … can be enabled and
    /// disabled as needed": jobs of at least `threshold` tasks use
    /// [`massive`](SpawnStrategy::massive) spawning, smaller jobs spawn
    /// directly (the invoker round trip isn't worth it for a handful of
    /// functions).
    Auto {
        /// Minimum task count that enables massive spawning.
        threshold: usize,
    },
}

impl SpawnStrategy {
    /// The paper's final massive-spawning configuration: groups of 100.
    pub fn massive() -> SpawnStrategy {
        SpawnStrategy::RemoteInvoker {
            group_size: 100,
            invoker_threads: 2,
        }
    }

    /// How a job of `tasks` tasks spawns under this strategy: `Auto` picks
    /// between direct and massive, concrete strategies are themselves.
    pub fn profile_for(&self, tasks: usize) -> SpawnProfile {
        match *self {
            SpawnStrategy::Direct { client_threads } => SpawnProfile::Direct { client_threads },
            SpawnStrategy::RemoteInvoker {
                group_size,
                invoker_threads,
            } => SpawnProfile::RemoteInvoker {
                group_size,
                invoker_threads,
            },
            SpawnStrategy::Auto { threshold } if tasks >= threshold => {
                SpawnStrategy::massive().profile_for(tasks)
            }
            SpawnStrategy::Auto { .. } => SpawnStrategy::default().profile_for(tasks),
        }
    }

    /// [`profile_for`](SpawnStrategy::profile_for), as a strategy (never
    /// [`SpawnStrategy::Auto`]).
    pub fn resolve_for(&self, tasks: usize) -> SpawnStrategy {
        match self.profile_for(tasks) {
            SpawnProfile::Direct { client_threads } => SpawnStrategy::Direct { client_threads },
            SpawnProfile::RemoteInvoker {
                group_size,
                invoker_threads,
            } => SpawnStrategy::RemoteInvoker {
                group_size,
                invoker_threads,
            },
        }
    }
}

impl Default for SpawnStrategy {
    fn default() -> SpawnStrategy {
        SpawnStrategy::Direct { client_threads: 5 }
    }
}

/// Delay before the first automatic retry of a task.
const INITIAL_BACKOFF: Duration = Duration::from_millis(500);
/// Factor applied to the retry delay after each further failure.
const BACKOFF_MULTIPLIER: f64 = 2.0;
/// Upper bound on the retry delay.
const MAX_BACKOFF: Duration = Duration::from_secs(30);
/// Jitter fraction: each retry delay is scaled by a deterministic factor in
/// `[1 - BACKOFF_JITTER, 1 + BACKOFF_JITTER]`, so retry storms decorrelate
/// without breaking reproducibility.
const BACKOFF_JITTER: f64 = 0.2;
/// Seed of the retry-backoff jitter draws, the same for every executor: the
/// draw is individualized by the task's identity and attempt number.
const BACKOFF_JITTER_SEED: u64 = 1;

/// Backoff before retry number `retry` (1-based), without jitter:
/// `INITIAL_BACKOFF * BACKOFF_MULTIPLIER^(retry-1)`, capped at
/// `MAX_BACKOFF`.
fn base_backoff(retry: u32) -> Duration {
    let exp = retry.saturating_sub(1).min(16);
    INITIAL_BACKOFF
        .mul_f64(BACKOFF_MULTIPLIER.powi(exp as i32))
        .min(MAX_BACKOFF)
}

/// Deterministic jittered backoff before retry number `attempts` of task
/// `key` (job id, task number): the jitter factor is drawn from the task's
/// identity, so identically-seeded runs recover identically.
pub(crate) fn backoff_delay(key: (u64, u32), attempts: u32) -> Duration {
    let token = hash2(
        BACKOFF_JITTER_SEED,
        hash2((key.0 << 20) ^ u64::from(key.1), u64::from(attempts)),
    );
    base_backoff(attempts).mul_f64(1.0 - BACKOFF_JITTER + 2.0 * BACKOFF_JITTER * unit_f64(token))
}

/// Automatic re-invocation of failed tasks during `wait`/`get_result`
/// polling.
///
/// Disabled by default (`max_attempts = 1`): the executor then surfaces
/// failures exactly as IBM-PyWren does, leaving re-execution to a manual
/// [`crate::Executor::reinvoke`]. With a larger budget the executor
/// transparently re-invokes failed tasks while it polls, so transient
/// faults never reach `get_result`. The delay before a retry is fixed: 500 ms
/// doubling per further failure up to 30 s, scaled by a deterministic ±20 %
/// jitter, and pushed past any `retry_after` deadline the platform
/// published with a 429. A task that hit the platform execution time limit
/// is not retried: it would usually just hit the limit again.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total executions allowed per task, including the first.
    /// `1` disables automatic retry.
    pub max_attempts: u32,
    /// Presume a task dead once it has been out this long with **no**
    /// activation id and **no** status object — the signature of an invoker
    /// that was killed before spawning its group. `None` (the default)
    /// leaves such tasks pending forever, the pre-chaos behaviour; jobs
    /// using [`crate::SpawnStrategy::RemoteInvoker`] under fault injection
    /// should set it to roughly the expected spawn-to-status latency.
    pub presumed_dead_after: Option<Duration>,
    /// Cap on automatic re-invocations across the whole job (the *budget*),
    /// on top of the per-task `max_attempts`. A job whose tasks keep
    /// failing stops retrying once the budget is spent instead of grinding
    /// against a sick platform forever. `None` (default) = unbounded.
    pub job_retry_budget: Option<u32>,
}

impl RetryPolicy {
    /// No automatic retries (the seed framework's behaviour).
    pub fn disabled() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            presumed_dead_after: None,
            job_retry_budget: None,
        }
    }

    /// A budget of `max_attempts` total executions per task.
    pub fn with_attempts(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..RetryPolicy::disabled()
        }
    }

    /// Caps automatic re-invocations across the whole job.
    pub fn with_job_budget(mut self, budget: u32) -> RetryPolicy {
        self.job_retry_budget = Some(budget);
        self
    }

    /// Whether this policy retries at all.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::disabled()
    }
}

/// Speculative (backup) execution of straggler tasks.
///
/// Once three quarters of a job's tasks (and at least five) have finished,
/// tasks out for longer than twice the median completion time are
/// re-invoked as duplicates, at most 16 per job; whichever copy finishes
/// first supplies the status and result. Disabled by default.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeculationConfig {
    /// Master switch.
    pub enabled: bool,
}

impl SpeculationConfig {
    /// Speculation off (the seed framework's behaviour).
    pub fn disabled() -> SpeculationConfig {
        SpeculationConfig { enabled: false }
    }

    /// Speculation on.
    pub fn on() -> SpeculationConfig {
        SpeculationConfig { enabled: true }
    }
}

impl Default for SpeculationConfig {
    fn default() -> SpeculationConfig {
        SpeculationConfig::disabled()
    }
}

/// Configuration of one [`crate::Executor`] instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutorConfig {
    /// Runtime image for this executor's functions (the paper's
    /// `ibm_cf_executor(runtime='matplotlib')` knob).
    pub runtime: String,
    /// Bucket where jobs, statuses and results are staged.
    pub storage_bucket: String,
    /// Invocation strategy.
    pub spawn: SpawnStrategy,
    /// How often `wait`/`get_result` poll COS for statuses.
    pub poll_interval: Duration,
    /// Automatic retry of failed tasks.
    pub retry: RetryPolicy,
    /// Speculative execution of straggler tasks.
    pub speculation: SpeculationConfig,
    /// Pre-flight job-plan analysis mode. Defaults to the
    /// `RUSTWREN_ANALYZE` environment variable (`off`/`warn`/`deny`),
    /// falling back to [`AnalyzeMode::Warn`].
    pub analyze: AnalyzeMode,
    /// Caller-supplied hints fed into the pre-flight analyzer (recursion
    /// shape, per-task cost estimates the executor cannot infer).
    pub plan_hints: PlanHints,
}

impl Default for ExecutorConfig {
    fn default() -> ExecutorConfig {
        ExecutorConfig {
            runtime: DEFAULT_RUNTIME.to_owned(),
            storage_bucket: "rustwren-runtime".to_owned(),
            spawn: SpawnStrategy::default(),
            poll_interval: Duration::from_millis(500),
            retry: RetryPolicy::disabled(),
            speculation: SpeculationConfig::disabled(),
            analyze: AnalyzeMode::from_env(),
            plan_hints: PlanHints::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_runtime_matches_platform_default() {
        assert_eq!(ExecutorConfig::default().runtime, DEFAULT_RUNTIME);
    }

    #[test]
    fn default_strategy_is_direct() {
        assert_eq!(
            SpawnStrategy::default(),
            SpawnStrategy::Direct { client_threads: 5 }
        );
    }

    #[test]
    fn recovery_is_disabled_by_default() {
        let cfg = ExecutorConfig::default();
        assert!(!cfg.retry.enabled());
        assert!(!cfg.speculation.enabled);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        assert_eq!(base_backoff(1), Duration::from_millis(500));
        assert_eq!(base_backoff(2), Duration::from_secs(1));
        assert_eq!(base_backoff(3), Duration::from_secs(2));
        assert_eq!(base_backoff(7), Duration::from_secs(30));
        assert_eq!(base_backoff(40), Duration::from_secs(30));
    }

    #[test]
    fn with_attempts_enables_retry() {
        assert!(RetryPolicy::with_attempts(3).enabled());
        assert!(!RetryPolicy::with_attempts(0).enabled(), "clamped to 1");
    }

    #[test]
    fn massive_uses_groups_of_100() {
        assert_eq!(
            SpawnStrategy::massive(),
            SpawnStrategy::RemoteInvoker {
                group_size: 100,
                invoker_threads: 2
            }
        );
    }
}
