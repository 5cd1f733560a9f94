//! Network cost models.
//!
//! Every remote interaction in the simulated cloud (a COS request, a Cloud
//! Functions API call) is charged a latency derived from a
//! [`NetworkProfile`]: one round trip, plus transfer time for the payload,
//! plus deterministic jitter. Request failures (the paper observes more
//! invocation failures on high-latency links, §5.1) are likewise decided
//! deterministically from the request token.

use std::fmt;
use std::time::Duration;

use crate::hash::{hash2, unit_f64};

/// Latency/bandwidth/loss model for one network path.
///
/// The paper's two client locations map to the [`wan`](NetworkProfile::wan)
/// (remote laptop → Dallas data center) and [`lan`](NetworkProfile::lan)
/// (inside the IBM internal network) presets; traffic between cloud services
/// uses [`datacenter`](NetworkProfile::datacenter).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkProfile {
    /// Round-trip latency charged once per request.
    pub rtt: Duration,
    /// Payload transfer rate in bytes per second.
    pub bandwidth: u64,
    /// Maximum extra latency; actual jitter is a deterministic fraction of
    /// this, derived from the request token.
    pub jitter: Duration,
    /// Probability in `[0, 1]` that a request fails and must be retried.
    pub failure_rate: f64,
}

impl NetworkProfile {
    /// High-latency remote client, as in the paper's evaluation setup
    /// ("a client machine … located in a remote network with high latency").
    pub fn wan() -> NetworkProfile {
        NetworkProfile {
            rtt: Duration::from_millis(120),
            bandwidth: 16 * 1024 * 1024, // 16 MB/s
            jitter: Duration::from_millis(60),
            failure_rate: 0.02,
        }
    }

    /// Low-latency client inside the IBM internal network (§5.1).
    pub fn lan() -> NetworkProfile {
        NetworkProfile {
            rtt: Duration::from_millis(2),
            bandwidth: 200 * 1024 * 1024,
            jitter: Duration::from_millis(1),
            failure_rate: 0.0005,
        }
    }

    /// Service-to-service path inside the data center (functions ↔ COS).
    pub fn datacenter() -> NetworkProfile {
        NetworkProfile {
            rtt: Duration::from_micros(500),
            bandwidth: 400 * 1024 * 1024,
            jitter: Duration::from_micros(200),
            failure_rate: 0.0001,
        }
    }

    /// An ideal zero-cost network, useful in unit tests.
    pub fn instant() -> NetworkProfile {
        NetworkProfile {
            rtt: Duration::ZERO,
            bandwidth: u64::MAX,
            jitter: Duration::ZERO,
            failure_rate: 0.0,
        }
    }

    /// Returns this profile with a different failure rate.
    ///
    /// # Panics
    /// Panics if `rate` is NaN, negative, or greater than 1.
    pub fn with_failure_rate(mut self, rate: f64) -> NetworkProfile {
        assert!(
            rate.is_finite() && (0.0..=1.0).contains(&rate),
            "NetworkProfile::with_failure_rate: rate must be a finite \
             probability in [0, 1], got {rate}"
        );
        self.failure_rate = rate;
        self
    }

    /// Checks the profile's fields for values that would silently misbehave
    /// downstream: `failure_rate` must be a finite probability in `[0, 1]`
    /// and `bandwidth` must be non-zero. Consumers (the COS and FaaS client
    /// constructors) call this at construction so a malformed profile fails
    /// fast instead of producing NaN latencies or never-succeeding requests.
    pub fn validate(&self) -> Result<(), String> {
        if !self.failure_rate.is_finite() || !(0.0..=1.0).contains(&self.failure_rate) {
            return Err(format!(
                "failure_rate must be a finite probability in [0, 1], got {}",
                self.failure_rate
            ));
        }
        if self.bandwidth == 0 {
            return Err("bandwidth must be non-zero".to_owned());
        }
        Ok(())
    }

    /// Time to complete a request carrying `bytes` of payload, identified by
    /// `token` (for deterministic jitter).
    pub fn request_cost(&self, bytes: u64, token: u64) -> Duration {
        let transfer = if self.bandwidth == u64::MAX {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(bytes as f64 / self.bandwidth.max(1) as f64)
        };
        let jitter = self.jitter.mul_f64(unit_f64(hash2(token, 0x4a17)));
        self.rtt + transfer + jitter
    }

    /// Whether the request identified by `token` fails on this path.
    pub fn fails(&self, token: u64) -> bool {
        self.failure_rate > 0.0 && unit_f64(hash2(token, 0xfa11)) < self.failure_rate
    }
}

/// The clients' exponential back-off before retry number `attempt` (from
/// 1): `base`, doubled per earlier attempt. The exponent saturates at 16, so
/// a retry budget past 33 neither overflows the factor (a panic in debug
/// builds, a wrap to a *zero* back-off in release) nor walks off the end of
/// the virtual clock; up to 17 attempts nothing is capped.
pub fn backoff(base: Duration, attempt: u32) -> Duration {
    base * (1 << attempt.saturating_sub(1).min(16))
}

impl fmt::Display for NetworkProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rtt={:?} bw={}B/s jitter≤{:?} loss={:.2}%",
            self.rtt,
            self.bandwidth,
            self.jitter,
            self.failure_rate * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_cost_is_deterministic() {
        let p = NetworkProfile::wan();
        assert_eq!(p.request_cost(1024, 7), p.request_cost(1024, 7));
    }

    #[test]
    fn request_cost_grows_with_payload() {
        let p = NetworkProfile::wan();
        assert!(p.request_cost(100 * 1024 * 1024, 7) > p.request_cost(1024, 7));
    }

    #[test]
    fn cost_at_least_rtt() {
        let p = NetworkProfile::wan();
        assert!(p.request_cost(0, 3) >= p.rtt);
    }

    #[test]
    fn cost_bounded_by_rtt_transfer_jitter() {
        let p = NetworkProfile::wan();
        let bytes = 1024u64 * 1024;
        let max = p.rtt + Duration::from_secs_f64(bytes as f64 / p.bandwidth as f64) + p.jitter;
        assert!(p.request_cost(bytes, 99) <= max);
    }

    #[test]
    fn instant_profile_is_free_and_reliable() {
        let p = NetworkProfile::instant();
        assert_eq!(p.request_cost(u64::MAX / 2, 0), Duration::ZERO);
        assert!(!p.fails(0));
    }

    #[test]
    fn failure_rate_is_respected_on_average() {
        let p = NetworkProfile::wan().with_failure_rate(0.1);
        let fails = (0..100_000u64).filter(|&t| p.fails(t)).count();
        let rate = fails as f64 / 100_000.0;
        assert!((rate - 0.1).abs() < 0.01, "observed failure rate {rate}");
    }

    #[test]
    fn validate_accepts_presets() {
        for p in [
            NetworkProfile::wan(),
            NetworkProfile::lan(),
            NetworkProfile::datacenter(),
            NetworkProfile::instant(),
        ] {
            assert_eq!(p.validate(), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_bad_failure_rates_and_bandwidth() {
        for rate in [f64::NAN, f64::INFINITY, -0.1, 1.1] {
            let mut p = NetworkProfile::lan();
            p.failure_rate = rate;
            assert!(p.validate().is_err(), "rate {rate} should be rejected");
        }
        let mut p = NetworkProfile::lan();
        p.bandwidth = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn with_failure_rate_rejects_nan() {
        let _ = NetworkProfile::lan().with_failure_rate(f64::NAN);
    }

    #[test]
    fn backoff_doubles_then_saturates() {
        let base = Duration::from_millis(50);
        assert_eq!(backoff(base, 1), base);
        assert_eq!(backoff(base, 4), base * 8);
        // Unchanged through the 17th attempt, level from there on.
        assert_eq!(backoff(base, 17), base * 2u32.pow(16));
        assert_eq!(backoff(base, 18), backoff(base, 17));
        assert_eq!(backoff(base, 33), backoff(base, 17));
        assert_eq!(backoff(base, u32::MAX), backoff(base, 17));
        assert_eq!(backoff(base, 0), base);
    }

    #[test]
    fn wan_slower_than_lan() {
        assert!(
            NetworkProfile::wan().request_cost(1000, 1)
                > NetworkProfile::lan().request_cost(1000, 1)
        );
    }
}
