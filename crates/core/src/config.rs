//! Executor configuration.

use std::time::Duration;

use rustwren_analyze::{AnalyzeMode, PlanHints, SpawnProfile};
use rustwren_faas::DEFAULT_RUNTIME;

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

/// Automatic re-invocation of failed tasks during `wait`/`get_result`
/// polling.
///
/// Disabled by default (`max_attempts = 1`): the executor then surfaces
/// failures exactly as IBM-PyWren does, leaving re-execution to a manual
/// [`crate::Executor::reinvoke`]. With a larger budget the executor
/// transparently re-invokes failed tasks with exponential backoff while it
/// polls, so transient faults never reach `get_result`.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total executions allowed per task, including the first.
    /// `1` disables automatic retry.
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub initial_backoff: Duration,
    /// Factor applied to the delay after each further failure.
    pub backoff_multiplier: f64,
    /// Upper bound on the delay.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a deterministic
    /// factor in `[1 - jitter, 1 + jitter]` drawn from the executor's seed,
    /// so retry storms decorrelate without breaking reproducibility.
    pub jitter: f64,
    /// Whether tasks that hit the platform execution limit are retried too.
    /// Off by default: a task that needs more than the limit will usually
    /// just hit it again.
    pub retry_timeouts: bool,
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
    /// Honor server `retry_after` hints as a circuit breaker: when the
    /// platform answers 429 with a deadline, retries scheduled before that
    /// deadline are pushed past it (analyzer W007's dynamic counterpart).
    /// On by default.
    pub honor_retry_after: bool,
}

impl RetryPolicy {
    /// No automatic retries (the seed framework's behaviour).
    pub fn disabled() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            initial_backoff: Duration::from_millis(500),
            backoff_multiplier: 2.0,
            max_backoff: Duration::from_secs(30),
            jitter: 0.2,
            retry_timeouts: false,
            presumed_dead_after: None,
            job_retry_budget: None,
            honor_retry_after: true,
        }
    }

    /// Default backoff parameters with a budget of `max_attempts` total
    /// executions per task.
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

    /// Disables the `retry_after` circuit breaker (blind backoff only).
    pub fn without_retry_hint(mut self) -> RetryPolicy {
        self.honor_retry_after = false;
        self
    }

    /// Whether this policy retries at all.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// Backoff before retry number `retry` (1-based), without jitter:
    /// `initial_backoff * multiplier^(retry-1)`, capped at `max_backoff`.
    pub fn base_backoff(&self, retry: u32) -> Duration {
        let exp = retry.saturating_sub(1).min(16);
        self.initial_backoff
            .mul_f64(self.backoff_multiplier.max(1.0).powi(exp as i32))
            .min(self.max_backoff)
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::disabled()
    }
}

/// Speculative (backup) execution of straggler tasks.
///
/// Once most of a job has finished, tasks running far beyond the median
/// completion time are re-invoked as duplicates; whichever copy finishes
/// first supplies the status and result. Disabled by default.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeculationConfig {
    /// Master switch.
    pub enabled: bool,
    /// Fraction of the job's tasks that must be done before stragglers are
    /// considered.
    pub done_fraction: f64,
    /// A pending task becomes a straggler once it has been out for longer
    /// than this multiple of the median completion time of the job's done
    /// tasks.
    pub straggler_factor: f64,
    /// Minimum number of completed tasks before the median is trusted.
    pub min_done: usize,
    /// Cap on speculative copies per job.
    pub max_speculative: usize,
}

impl SpeculationConfig {
    /// Speculation off (the seed framework's behaviour).
    pub fn disabled() -> SpeculationConfig {
        SpeculationConfig {
            enabled: false,
            done_fraction: 0.75,
            straggler_factor: 2.0,
            min_done: 5,
            max_speculative: 16,
        }
    }

    /// Speculation on, with the default thresholds.
    pub fn on() -> SpeculationConfig {
        SpeculationConfig {
            enabled: true,
            ..SpeculationConfig::disabled()
        }
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
        let p = RetryPolicy {
            max_attempts: 10,
            initial_backoff: Duration::from_millis(100),
            backoff_multiplier: 2.0,
            max_backoff: Duration::from_millis(500),
            jitter: 0.0,
            retry_timeouts: false,
            presumed_dead_after: None,
            job_retry_budget: None,
            honor_retry_after: true,
        };
        assert_eq!(p.base_backoff(1), Duration::from_millis(100));
        assert_eq!(p.base_backoff(2), Duration::from_millis(200));
        assert_eq!(p.base_backoff(3), Duration::from_millis(400));
        assert_eq!(p.base_backoff(4), Duration::from_millis(500));
        assert_eq!(p.base_backoff(40), Duration::from_millis(500));
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
