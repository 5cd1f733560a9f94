//! Multi-tenant serving: namespaces, per-tenant quotas, admission queues
//! and container keep-alive/prewarm policies.
//!
//! The paper runs one PyWren job from one namespace at a time; a *service*
//! runs many tenants against the same cluster. This module holds the
//! tenant-facing configuration surface: [`TenantId`] (the namespace an
//! activation is billed to), [`TenantConfig`] (quota, rate limit, bounded
//! admission queue, weighted-round-robin share, keep-alive policy) and
//! [`KeepAlivePolicy`] — either OpenWhisk's fixed idle TTL or the hybrid
//! inter-arrival-histogram policy from the FaaS scheduling literature,
//! which adapts the warm window per function and prewarms containers ahead
//! of predicted arrivals.
//!
//! Everything here is deterministic: histograms are plain counters over
//! virtual time, tenants iterate in namespace order, and all validation
//! happens at build time as typed [`FaasError`](crate::FaasError)s.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use rustwren_sim::SimInstant;

use crate::error::FaasError;

/// The namespace every plain [`invoke`](crate::CloudFunctions::invoke) is
/// billed to when no tenant is named.
pub const DEFAULT_NAMESPACE: &str = "default";

/// Identifier of a tenant: an OpenWhisk-style namespace. Cheap to clone.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(Arc<str>);

impl TenantId {
    /// A tenant id for `namespace`.
    pub fn new(namespace: impl AsRef<str>) -> TenantId {
        TenantId(Arc::from(namespace.as_ref()))
    }

    /// The id of the [`DEFAULT_NAMESPACE`].
    pub fn default_namespace() -> TenantId {
        TenantId::new(DEFAULT_NAMESPACE)
    }

    /// The namespace as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TenantId {
    fn from(s: &str) -> TenantId {
        TenantId::new(s)
    }
}

impl Default for TenantId {
    fn default() -> TenantId {
        TenantId::default_namespace()
    }
}

/// Container keep-alive / prewarm policy: what the pool does with a
/// container once its activation finishes and no one is waiting for it.
#[derive(Debug, Clone, PartialEq)]
pub enum KeepAlivePolicy {
    /// Keep every idle container warm for a fixed TTL (OpenWhisk's
    /// behaviour; the platform default, with a 600 s TTL).
    FixedTtl {
        /// Idle time after which the container is reclaimed.
        ttl: Duration,
    },
    /// Hybrid inter-arrival-histogram policy: per function, track the
    /// distribution of inter-arrival times and (a) keep the container warm
    /// only while an arrival is *likely* (up to the `tail` percentile of
    /// observed inter-arrivals), (b) when the next arrival is predicted to
    /// be far away, release the container immediately and *prewarm* a fresh
    /// one just before the `head`-percentile prediction. Functions with too
    /// few samples fall back to a fixed TTL.
    HybridHistogram {
        /// Histogram bucket width (inter-arrival resolution).
        bucket: Duration,
        /// Number of buckets; inter-arrivals beyond `bucket * buckets`
        /// count as out-of-range (the pattern is treated as unpredictable
        /// and the container is released without a prewarm).
        buckets: usize,
        /// Percentile of the inter-arrival distribution at which to
        /// prewarm (the "earliest plausible next arrival"), in `0.0..1.0`.
        head: f64,
        /// Percentile up to which the container is kept warm, in
        /// `head..=1.0`.
        tail: f64,
        /// Safety margin subtracted from the prewarm instant and added to
        /// the keep-alive deadline.
        margin: Duration,
        /// Below this many recorded inter-arrivals the policy falls back
        /// to `fallback_ttl`.
        min_samples: u64,
        /// Fixed TTL used until the histogram has `min_samples` entries.
        fallback_ttl: Duration,
    },
}

impl KeepAlivePolicy {
    /// A fixed-TTL policy.
    pub fn fixed(ttl: Duration) -> KeepAlivePolicy {
        KeepAlivePolicy::FixedTtl { ttl }
    }

    /// A hybrid-histogram policy with library defaults: 2 s buckets over a
    /// ~17-minute span, prewarm at the 5th percentile, keep-alive to the
    /// 99th, 2 s margin, and `fallback_ttl` until 4 samples are seen.
    pub fn hybrid(fallback_ttl: Duration) -> KeepAlivePolicy {
        KeepAlivePolicy::HybridHistogram {
            bucket: Duration::from_secs(2),
            buckets: 512,
            head: 0.05,
            tail: 0.99,
            margin: Duration::from_secs(2),
            min_samples: 4,
            fallback_ttl,
        }
    }
}

/// What [`KeepAlivePolicy`] decided for one released container.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum KeepDecision {
    /// Park the container in the warm pool until the given instant.
    KeepUntil(SimInstant),
    /// Destroy the container now. If a prewarm is scheduled, a fresh
    /// container should be started at `.0` and kept warm until `.1`.
    Release {
        /// `(start_at, keep_until)` for the predicted next arrival.
        prewarm: Option<(SimInstant, SimInstant)>,
    },
}

/// Per-function inter-arrival history backing the hybrid policy, plus the
/// generation counter that invalidates stale prewarms.
#[derive(Debug, Clone)]
pub(crate) struct ArrivalHistory {
    /// Bumped on every arrival; a prewarm scheduled against an older
    /// generation is abandoned (newer information exists).
    pub(crate) generation: u64,
    last_arrival: Option<SimInstant>,
    counts: Vec<u64>,
    /// Inter-arrivals beyond the histogram span.
    out_of_range: u64,
    total: u64,
}

impl ArrivalHistory {
    pub(crate) fn new(buckets: usize) -> ArrivalHistory {
        ArrivalHistory {
            generation: 0,
            last_arrival: None,
            counts: vec![0; buckets.max(1)],
            out_of_range: 0,
            total: 0,
        }
    }

    /// Records an arrival at `now`, bucketing the inter-arrival since the
    /// previous one with resolution `bucket`.
    pub(crate) fn record(&mut self, now: SimInstant, bucket: Duration) {
        self.generation += 1;
        if let Some(prev) = self.last_arrival {
            let gap = now.duration_since(prev);
            let idx = (gap.as_nanos() / bucket.as_nanos().max(1)) as usize;
            if idx < self.counts.len() {
                // lint: allow(L009) — bounds-checked by the branch above
                self.counts[idx] += 1;
            } else {
                self.out_of_range += 1;
            }
            self.total += 1;
        }
        self.last_arrival = Some(now);
    }

    /// Recorded inter-arrival samples so far.
    #[cfg(test)]
    pub(crate) fn samples(&self) -> u64 {
        self.total
    }

    /// Upper edge of the bucket containing quantile `q` of the recorded
    /// inter-arrivals, or `None` when the quantile falls out of range
    /// (the distribution's tail escapes the histogram span).
    pub(crate) fn quantile(&self, q: f64, bucket: Duration) -> Option<Duration> {
        if self.total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0;
        for (i, c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return Some(bucket * (i as u32 + 1));
            }
        }
        None
    }

    /// Evaluates `policy` for a container released at `now`.
    pub(crate) fn decide(&self, policy: &KeepAlivePolicy, now: SimInstant) -> KeepDecision {
        match policy {
            KeepAlivePolicy::FixedTtl { ttl } => KeepDecision::KeepUntil(now + *ttl),
            KeepAlivePolicy::HybridHistogram {
                bucket,
                head,
                tail,
                margin,
                min_samples,
                fallback_ttl,
                ..
            } => {
                if self.total < *min_samples {
                    return KeepDecision::KeepUntil(now + *fallback_ttl);
                }
                let Some(head_gap) = self.quantile(*head, *bucket) else {
                    // Even the earliest plausible arrival escapes the
                    // histogram: the pattern is too sparse to predict.
                    return KeepDecision::Release { prewarm: None };
                };
                let Some(last) = self.last_arrival else {
                    return KeepDecision::KeepUntil(now + *fallback_ttl);
                };
                // Keep-alive horizon: the tail percentile, capped at the
                // histogram span when the tail escapes it.
                let tail_gap = self
                    .quantile(*tail, *bucket)
                    .unwrap_or_else(|| *bucket * self.counts.len() as u32);
                // `quantile` returns the head bucket's *upper* edge; an
                // arrival whose gap quantizes into the bucket's interior
                // can land up to one bucket sooner. Anchor the prediction
                // at the lower edge, or a strictly periodic workload beats
                // every prewarm (which still pays its image pull and cold
                // start after the timer fires) by a fraction of a bucket.
                let head_lower = head_gap.saturating_sub(*bucket);
                let head_at = last + head_lower;
                let tail_at = last + tail_gap + *margin;
                if head_at <= now + *margin {
                    // The next arrival is plausibly imminent: stay warm
                    // through the tail of the distribution.
                    KeepDecision::KeepUntil(tail_at.max(now + *margin))
                } else {
                    // Predicted gap: release now, prewarm just before the
                    // earliest plausible arrival (margin early, clamped so
                    // the prewarm instant never precedes the last arrival).
                    let prewarm_at = last + head_lower.saturating_sub(*margin);
                    KeepDecision::Release {
                        prewarm: Some((prewarm_at, tail_at)),
                    }
                }
            }
        }
    }
}

/// Per-tenant serving configuration, layered *under* the global
/// [`PlatformLimits`](crate::PlatformLimits): a tenant can never exceed its
/// own quota, and all tenants together can never exceed the platform's.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantConfig {
    /// The tenant's namespace (must be non-empty and unique).
    pub namespace: String,
    /// Maximum concurrent activations for this tenant.
    pub concurrency_quota: usize,
    /// Maximum invocations accepted per minute for this tenant.
    pub invocations_per_minute: u64,
    /// Bounded admission-queue depth: invocations beyond the quota wait
    /// here; past this depth they are shed with
    /// [`InvokeError::ShedLoad`](crate::InvokeError::ShedLoad).
    pub queue_depth: usize,
    /// Weighted-round-robin share of freed admission slots relative to
    /// other tenants with queued work.
    pub weight: u32,
    /// Keep-alive policy override; `None` inherits the platform's.
    pub keep_alive: Option<KeepAlivePolicy>,
}

impl TenantConfig {
    /// A tenant with the given namespace and concurrency quota; defaults:
    /// effectively-unlimited rate, queue depth 64, weight 1, platform
    /// keep-alive policy.
    pub fn new(namespace: impl Into<String>, concurrency_quota: usize) -> TenantConfig {
        TenantConfig {
            namespace: namespace.into(),
            concurrency_quota,
            invocations_per_minute: 1_000_000,
            queue_depth: 64,
            weight: 1,
            keep_alive: None,
        }
    }

    /// Sets the per-minute rate limit.
    pub fn rate_limit(mut self, invocations_per_minute: u64) -> TenantConfig {
        self.invocations_per_minute = invocations_per_minute;
        self
    }

    /// Sets the bounded admission-queue depth.
    pub fn queue_depth(mut self, depth: usize) -> TenantConfig {
        self.queue_depth = depth;
        self
    }

    /// Sets the weighted-round-robin weight.
    pub fn weight(mut self, weight: u32) -> TenantConfig {
        self.weight = weight;
        self
    }

    /// Overrides the keep-alive policy for this tenant's containers.
    pub fn keep_alive(mut self, policy: KeepAlivePolicy) -> TenantConfig {
        self.keep_alive = Some(policy);
        self
    }

    /// Validates one tenant's configuration.
    ///
    /// # Errors
    ///
    /// [`FaasError::InvalidTenant`] for an empty namespace, a zero
    /// concurrency quota, a zero queue depth, a zero rate limit, or a zero
    /// weight — every one of which would silently wedge or starve the
    /// tenant at runtime.
    pub fn validate(&self) -> Result<(), FaasError> {
        let fail = |reason: &str| {
            Err(FaasError::InvalidTenant {
                namespace: self.namespace.clone(),
                reason: reason.to_owned(),
            })
        };
        if self.namespace.is_empty() {
            return fail("namespace must not be empty");
        }
        if self.concurrency_quota == 0 {
            return fail("concurrency quota must be at least 1");
        }
        if self.queue_depth == 0 {
            return fail("admission queue depth must be at least 1");
        }
        if self.invocations_per_minute == 0 {
            return fail("rate limit must be at least 1 invocation per minute");
        }
        if self.weight == 0 {
            return fail("weighted-round-robin weight must be at least 1");
        }
        if let Some(KeepAlivePolicy::HybridHistogram {
            bucket,
            buckets,
            head,
            tail,
            ..
        }) = &self.keep_alive
        {
            if bucket.is_zero() || *buckets == 0 {
                return fail("hybrid histogram needs a non-zero bucket width and count");
            }
            if !(0.0..=1.0).contains(head) || !(*head..=1.0).contains(tail) {
                return fail("hybrid histogram percentiles must satisfy 0 <= head <= tail <= 1");
            }
        }
        Ok(())
    }

    /// Validates a whole tenant set: each tenant individually, namespace
    /// uniqueness, and a non-zero total weight.
    ///
    /// # Errors
    ///
    /// [`FaasError::InvalidTenant`] naming the offending namespace.
    pub fn validate_set(tenants: &[TenantConfig]) -> Result<(), FaasError> {
        let mut seen = std::collections::BTreeSet::new();
        let mut total_weight: u64 = 0;
        for t in tenants {
            t.validate()?;
            if !seen.insert(t.namespace.as_str()) {
                return Err(FaasError::InvalidTenant {
                    namespace: t.namespace.clone(),
                    reason: "duplicate namespace".to_owned(),
                });
            }
            total_weight += u64::from(t.weight);
        }
        if !tenants.is_empty() && total_weight == 0 {
            return Err(FaasError::InvalidTenant {
                namespace: String::new(),
                reason: "tenant weights sum to zero".to_owned(),
            });
        }
        Ok(())
    }
}

/// Per-tenant serving counters; see
/// [`CloudFunctions::tenant_stats`](crate::CloudFunctions::tenant_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantStats {
    /// Invocations accepted (admitted immediately or queued).
    pub submitted: u64,
    /// Invocations completed (any outcome).
    pub completed: u64,
    /// Invocations rejected with a 429 (rate limit).
    pub throttled: u64,
    /// Invocations shed because the admission queue was full.
    pub shed: u64,
    /// Invocations that had to wait in the admission queue.
    pub queued: u64,
    /// Activations that started in a cold container.
    pub cold_starts: u64,
    /// Activations that reused a warm container.
    pub warm_starts: u64,
    /// Containers started ahead of a predicted arrival.
    pub prewarmed: u64,
    /// Total idle container-seconds spent in the warm pool — the cost side
    /// of every keep-alive policy comparison.
    pub warm_pool_seconds: f64,
}

impl TenantStats {
    /// Fraction of started activations that were cold, in `0.0..=1.0`
    /// (zero when nothing started).
    pub fn cold_start_rate(&self) -> f64 {
        let started = self.cold_starts + self.warm_starts;
        if started == 0 {
            return 0.0;
        }
        self.cold_starts as f64 / started as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_id_display_and_default() {
        assert_eq!(TenantId::new("acme").to_string(), "acme");
        assert_eq!(TenantId::default().as_str(), DEFAULT_NAMESPACE);
        assert_eq!(TenantId::from("x"), TenantId::new("x"));
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let reason = |cfg: TenantConfig| match cfg.validate() {
            Err(FaasError::InvalidTenant { reason, .. }) => reason,
            Ok(()) => panic!("expected rejection"),
        };
        assert!(reason(TenantConfig::new("", 4)).contains("namespace"));
        assert!(reason(TenantConfig::new("a", 0)).contains("quota"));
        assert!(reason(TenantConfig::new("a", 1).queue_depth(0)).contains("queue"));
        assert!(reason(TenantConfig::new("a", 1).rate_limit(0)).contains("rate"));
        assert!(reason(TenantConfig::new("a", 1).weight(0)).contains("weight"));
        assert!(TenantConfig::new("a", 1).validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_hybrid_percentiles() {
        let cfg = TenantConfig::new("a", 1).keep_alive(KeepAlivePolicy::HybridHistogram {
            bucket: Duration::from_secs(1),
            buckets: 8,
            head: 0.9,
            tail: 0.1,
            margin: Duration::ZERO,
            min_samples: 1,
            fallback_ttl: Duration::from_secs(1),
        });
        assert!(matches!(
            cfg.validate(),
            Err(FaasError::InvalidTenant { ref reason, .. }) if reason.contains("percentile")
        ));
    }

    #[test]
    fn set_validation_rejects_duplicates_and_zero_total_weight() {
        let dup = vec![TenantConfig::new("a", 1), TenantConfig::new("a", 2)];
        assert!(matches!(
            TenantConfig::validate_set(&dup),
            Err(FaasError::InvalidTenant { ref reason, .. }) if reason.contains("duplicate")
        ));
        assert!(TenantConfig::validate_set(&[]).is_ok());
        assert!(TenantConfig::validate_set(&[
            TenantConfig::new("a", 1),
            TenantConfig::new("b", 1)
        ])
        .is_ok());
    }

    #[test]
    fn histogram_quantiles_track_recorded_gaps() {
        let bucket = Duration::from_secs(1);
        let mut h = ArrivalHistory::new(16);
        let mut t = SimInstant::ZERO;
        h.record(t, bucket); // first arrival: no gap yet
        for _ in 0..10 {
            t += Duration::from_secs(3);
            h.record(t, bucket);
        }
        assert_eq!(h.samples(), 10);
        // All gaps land in the 3s bucket, whose upper edge is 4s.
        assert_eq!(h.quantile(0.05, bucket), Some(Duration::from_secs(4)));
        assert_eq!(h.quantile(0.99, bucket), Some(Duration::from_secs(4)));
    }

    #[test]
    fn histogram_out_of_range_gaps_disable_prediction() {
        let bucket = Duration::from_secs(1);
        let mut h = ArrivalHistory::new(4);
        let mut t = SimInstant::ZERO;
        h.record(t, bucket);
        for _ in 0..5 {
            t += Duration::from_secs(60); // far beyond the 4s span
            h.record(t, bucket);
        }
        assert_eq!(h.quantile(0.5, bucket), None);
        let policy = KeepAlivePolicy::hybrid(Duration::from_secs(10));
        // With the defaults' min_samples met and every gap out of range,
        // the container is released with no prewarm.
        let mut sparse = ArrivalHistory::new(4);
        let mut t = SimInstant::ZERO;
        sparse.record(t, Duration::from_secs(2));
        for _ in 0..5 {
            t += Duration::from_secs(7_200);
            sparse.record(t, Duration::from_secs(2));
        }
        assert_eq!(
            sparse.decide(&policy, t + Duration::from_secs(1)),
            KeepDecision::Release { prewarm: None }
        );
    }

    #[test]
    fn hybrid_decision_prewarm_for_periodic_sparse_arrivals() {
        let policy = KeepAlivePolicy::hybrid(Duration::from_secs(30));
        let mut h = ArrivalHistory::new(512);
        let mut t = SimInstant::ZERO;
        h.record(t, Duration::from_secs(2));
        for _ in 0..6 {
            t += Duration::from_secs(120);
            h.record(t, Duration::from_secs(2));
        }
        // Released shortly after the last arrival: the next one is ~120s
        // out, so release now and prewarm before it.
        let now = t + Duration::from_secs(5);
        match h.decide(&policy, now) {
            KeepDecision::Release {
                prewarm: Some((at, until)),
            } => {
                assert!(at > now, "prewarm in the future");
                assert!(at < t + Duration::from_secs(125), "before next arrival");
                assert!(until > at);
            }
            other => panic!("expected prewarm, got {other:?}"),
        }
    }

    #[test]
    fn prewarm_leads_a_strictly_periodic_arrival_by_the_full_margin() {
        // Regression: a deterministic 30.6s period quantizes into the
        // interior of the [30s, 32s) bucket, whose upper edge is 32s. A
        // prewarm anchored at the upper edge fires at last+30s and — after
        // paying its pull + cold start — becomes warm *after* the real
        // arrival at last+30.6s, missing every single cycle. Anchoring at
        // the bucket's lower edge must leave the whole margin as lead time
        // before the earliest point of the bucket.
        let policy = KeepAlivePolicy::hybrid(Duration::from_secs(10));
        let KeepAlivePolicy::HybridHistogram { bucket, margin, .. } = policy else {
            unreachable!()
        };
        let gap = Duration::from_millis(30_600);
        let mut h = ArrivalHistory::new(512);
        let mut t = SimInstant::ZERO;
        h.record(t, bucket);
        for _ in 0..6 {
            t += gap;
            h.record(t, bucket);
        }
        let now = t + Duration::from_millis(500);
        match h.decide(&policy, now) {
            KeepDecision::Release {
                prewarm: Some((at, until)),
            } => {
                // Bucket lower edge of the recorded gap.
                let lower_edge = Duration::from_nanos(
                    (gap.as_nanos() - gap.as_nanos() % bucket.as_nanos()) as u64,
                );
                let earliest_plausible = t + lower_edge;
                assert!(
                    at + margin <= earliest_plausible,
                    "prewarm at {at:?} must lead the bucket's lower edge \
                     {earliest_plausible:?} by the full margin {margin:?}"
                );
                assert!(until > t + gap, "window must cover the real arrival");
            }
            other => panic!("expected prewarm, got {other:?}"),
        }
    }

    #[test]
    fn hybrid_decision_keeps_warm_for_rapid_arrivals() {
        let policy = KeepAlivePolicy::hybrid(Duration::from_secs(30));
        let mut h = ArrivalHistory::new(512);
        let mut t = SimInstant::ZERO;
        h.record(t, Duration::from_secs(2));
        for _ in 0..10 {
            t += Duration::from_secs(1);
            h.record(t, Duration::from_secs(2));
        }
        match h.decide(&policy, t) {
            KeepDecision::KeepUntil(until) => assert!(until > t),
            other => panic!("expected keep-warm, got {other:?}"),
        }
    }

    #[test]
    fn hybrid_falls_back_to_fixed_ttl_below_min_samples() {
        let policy = KeepAlivePolicy::hybrid(Duration::from_secs(30));
        let mut h = ArrivalHistory::new(512);
        h.record(SimInstant::ZERO, Duration::from_secs(2));
        let now = SimInstant::ZERO + Duration::from_secs(1);
        assert_eq!(
            h.decide(&policy, now),
            KeepDecision::KeepUntil(now + Duration::from_secs(30))
        );
    }

    #[test]
    fn cold_start_rate_is_safe_on_empty_stats() {
        assert_eq!(TenantStats::default().cold_start_rate(), 0.0);
        let s = TenantStats {
            cold_starts: 1,
            warm_starts: 3,
            ..TenantStats::default()
        };
        assert!((s.cold_start_rate() - 0.25).abs() < 1e-12);
    }
}
