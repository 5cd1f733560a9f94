//! Timeline analysis of activation records.
//!
//! The paper's Fig 2 and Fig 3 plot "total concurrent invocations at each
//! moment". This module reconstructs those series — and summary numbers
//! like the invocation-phase duration — from the FaaS platform's
//! [`ActivationRecord`]s.

use std::time::Duration;

use rustwren_faas::ActivationRecord;
use rustwren_sim::SimInstant;
use rustwren_store::OpCounts;

/// One point of a concurrency-over-time series: `(seconds, running)`.
pub type ConcurrencyPoint = (f64, usize);

/// Per-phase COS operation counts over one executor's lifetime; see
/// [`crate::Executor::cos_op_stats`]. Each phase is a separate
/// [`OpCounts`] snapshot, so benches and tests can assert operation
/// budgets (gets/puts/lists/bytes) instead of inferring them from timings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CosOpStats {
    /// Client-side staging: func blob and task-input uploads at submit.
    pub staging: OpCounts,
    /// Client-side polling and gathering: status LISTs, recovery probes,
    /// result fetches, cleanup.
    pub polling: OpCounts,
    /// In-cloud agent traffic: func/input GETs, result/status PUTs, reduce
    /// dep-watching — everything issued from inside activations.
    pub agent: OpCounts,
}

impl CosOpStats {
    /// Total COS requests across every phase.
    pub fn total_ops(&self) -> u64 {
        self.staging.total_ops() + self.polling.total_ops() + self.agent.total_ops()
    }

    /// Total payload bytes moved (in + out) across every phase.
    pub fn total_bytes(&self) -> u64 {
        let phases = [self.staging, self.polling, self.agent];
        phases.iter().map(|p| p.bytes_in + p.bytes_out).sum()
    }
}

/// Counters of one executor's automatic fault recovery (retry policy and
/// straggler speculation); see [`crate::Executor::recovery_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Failed tasks automatically re-invoked.
    pub retries: u64,
    /// Tasks whose failures exhausted the retry budget.
    pub retries_exhausted: u64,
    /// Speculative (backup) copies launched for straggler tasks.
    pub speculative_launches: u64,
    /// Error statuses the client wrote on behalf of tasks that died without
    /// reporting one (crash/timeout before the agent's status write).
    pub statuses_repaired: u64,
    /// Checksum-stamp failures that were healed by a re-fetch or task
    /// re-execution (corrupted/truncated reads caught in flight).
    pub integrity_retries: u64,
    /// Checksum-stamp failures that exhausted their refetch budget and
    /// surfaced as typed [`crate::PywrenError::Integrity`] errors.
    pub integrity_failures: u64,
    /// Staged objects deleted by [`crate::Executor::clean`].
    pub cleaned_objects: u64,
    /// Faults injected by the installed chaos engine (COS faults,
    /// corruptions, crashes, forced cold starts), `0` when no engine is
    /// installed. Lets a chaos sweep confirm its plan actually fired.
    pub faults_injected: u64,
    /// Status LISTs the recovery pass avoided by reusing the poll tick's
    /// listing snapshot instead of re-listing the same prefixes.
    pub lists_saved: u64,
    /// Retries that were wanted but denied because the job's
    /// [`crate::RetryPolicy::job_retry_budget`] was spent; the task
    /// surfaces its final error instead.
    pub retries_denied_budget: u64,
}

impl RecoveryStats {
    /// Total invocation-level recovery actions taken (retries, speculative
    /// launches, status repairs — integrity refetches are finer-grained and
    /// counted separately).
    pub fn total_actions(&self) -> u64 {
        self.retries + self.speculative_launches + self.statuses_repaired
    }
}

/// Builds the running-functions-over-time step series from execution spans.
/// Points are emitted at every start/end breakpoint, sorted by time.
pub fn concurrency_series(records: &[ActivationRecord]) -> Vec<ConcurrencyPoint> {
    let mut events: Vec<(u64, i64)> = Vec::new();
    for r in records {
        if let (Some(s), Some(e)) = (r.started, r.ended) {
            events.push((s.as_nanos(), 1));
            events.push((e.as_nanos(), -1));
        }
    }
    events.sort_unstable();
    let mut series = Vec::with_capacity(events.len());
    let mut level = 0i64;
    let mut i = 0;
    while i < events.len() {
        let t = events[i].0;
        while i < events.len() && events[i].0 == t {
            level += events[i].1;
            i += 1;
        }
        series.push((t as f64 / 1e9, level.max(0) as usize));
    }
    series
}

/// Peak simultaneous running functions.
pub fn max_concurrency(records: &[ActivationRecord]) -> usize {
    concurrency_series(records)
        .into_iter()
        .map(|(_, c)| c)
        .max()
        .unwrap_or(0)
}

/// Summary of one job's spawning/execution timeline (Fig 2's phases).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobReport {
    /// When the first invocation was accepted.
    pub first_submit: SimInstant,
    /// When the last invocation was accepted.
    pub last_submit: SimInstant,
    /// When the first function began executing.
    pub first_start: SimInstant,
    /// When the last function began executing — the end of the paper's
    /// "invocation phase" (all functions up and running).
    pub last_start: SimInstant,
    /// When the last function finished — end of the experiment.
    pub last_end: SimInstant,
    /// Number of records summarized.
    pub count: usize,
    /// How many started in a cold container.
    pub cold_starts: usize,
}

impl JobReport {
    /// Builds a report over `records`, which must all have started and
    /// ended. Returns `None` for an empty or unfinished set.
    pub fn from_records(records: &[ActivationRecord]) -> Option<JobReport> {
        let mut it = records.iter().filter_map(|r| match (r.started, r.ended) {
            (Some(s), Some(e)) => Some((r, s, e)),
            _ => None,
        });
        let (first, start, end) = it.next()?;
        let mut report = JobReport {
            first_submit: first.submitted,
            last_submit: first.submitted,
            first_start: start,
            last_start: start,
            last_end: end,
            count: 1,
            cold_starts: usize::from(first.cold_start),
        };
        for (r, s, e) in it {
            report.first_submit = report.first_submit.min(r.submitted);
            report.last_submit = report.last_submit.max(r.submitted);
            report.first_start = report.first_start.min(s);
            report.last_start = report.last_start.max(s);
            report.last_end = report.last_end.max(e);
            report.count += 1;
            report.cold_starts += usize::from(r.cold_start);
        }
        Some(report)
    }

    /// Duration of the invocation phase relative to `job_start`: time until
    /// every function is up and running.
    pub fn invocation_phase(&self, job_start: SimInstant) -> Duration {
        self.last_start.duration_since(job_start)
    }

    /// Total experiment duration relative to `job_start`.
    pub fn total(&self, job_start: SimInstant) -> Duration {
        self.last_end.duration_since(job_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rustwren_faas::{ActivationId, Outcome, Phase, TenantId};

    fn record(submit: f64, start: f64, end: f64) -> ActivationRecord {
        ActivationRecord {
            id: ActivationId(1),
            action: "f".into(),
            tenant: TenantId::default_namespace(),
            submitted: SimInstant::from_nanos((submit * 1e9) as u64),
            started: Some(SimInstant::from_nanos((start * 1e9) as u64)),
            ended: Some(SimInstant::from_nanos((end * 1e9) as u64)),
            phase: Phase::Done(Outcome::Success),
            cold_start: true,
            worker: Some(0),
            result: None,
            logs: Vec::new(),
        }
    }

    #[test]
    fn series_counts_overlaps() {
        let records = vec![
            record(0.0, 1.0, 5.0),
            record(0.0, 2.0, 6.0),
            record(0.0, 5.5, 7.0),
        ];
        let series = concurrency_series(&records);
        assert_eq!(
            series,
            vec![(1.0, 1), (2.0, 2), (5.0, 1), (5.5, 2), (6.0, 1), (7.0, 0),]
        );
        assert_eq!(max_concurrency(&records), 2);
    }

    #[test]
    fn simultaneous_start_end_nets_out() {
        let records = vec![record(0.0, 1.0, 2.0), record(0.0, 2.0, 3.0)];
        let series = concurrency_series(&records);
        assert_eq!(series, vec![(1.0, 1), (2.0, 1), (3.0, 0)]);
    }

    #[test]
    fn empty_records_give_empty_series() {
        assert!(concurrency_series(&[]).is_empty());
        assert_eq!(max_concurrency(&[]), 0);
        assert!(JobReport::from_records(&[]).is_none());
    }

    #[test]
    fn job_report_aggregates_extremes() {
        let records = vec![record(0.5, 1.0, 5.0), record(0.7, 3.0, 4.0)];
        let report = JobReport::from_records(&records).expect("non-empty");
        assert_eq!(report.count, 2);
        assert_eq!(report.cold_starts, 2);
        assert_eq!(report.last_start.as_secs_f64(), 3.0);
        assert_eq!(report.last_end.as_secs_f64(), 5.0);
        let t0 = SimInstant::ZERO;
        assert_eq!(report.invocation_phase(t0).as_secs_f64(), 3.0);
        assert_eq!(report.total(t0).as_secs_f64(), 5.0);
    }
}
