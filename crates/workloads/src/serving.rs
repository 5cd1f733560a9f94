//! Multi-tenant serving traffic — Azure-Functions-style arrival traces.
//!
//! The serving bench replays a seeded, bursty, heavy-tailed invocation
//! trace across N tenant namespaces against the FaaS platform's admission
//! plane (per-tenant quotas, weighted fair queuing, keep-alive/prewarm
//! policies). This module generates the trace and registers the `serve`
//! action the trace invokes.
//!
//! The trace shape follows the published Azure Functions traces: most
//! functions are invoked rarely but periodically (the population hybrid
//! keep-alive policies exploit), a few are hot with Poisson arrivals, and
//! bursts multiply a tenant's rate for a window. Execution durations are
//! bounded-Pareto heavy-tailed. Everything is a pure function of the seed:
//! identical seeds generate byte-identical traces.

use std::time::Duration;

use bytes::Bytes;
use rustwren_faas::{ActionConfig, ActivationCtx, CloudFunctions, RegisterError};
use rustwren_sim::hash::{hash2, hash_str, unit_f64};
use rustwren_sim::task;

/// Name of the registered serving action.
pub const SERVE_FN: &str = "serve";

/// How a tenant's arrivals are spaced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Memoryless arrivals at `per_sec` on average (hot API-style traffic):
    /// exponential inter-arrival gaps.
    Poisson {
        /// Mean arrivals per second.
        per_sec: f64,
    },
    /// Near-periodic arrivals (timer-triggered functions, the dominant
    /// population in the Azure traces): one arrival per `period`, each
    /// displaced by up to `jitter` (a fraction of the period).
    Periodic {
        /// Base inter-arrival period.
        period: Duration,
        /// Displacement fraction in `[0, 1)` applied per arrival.
        jitter: f64,
    },
}

/// A window during which a tenant's arrival rate is multiplied — the
/// noisy-neighbor burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstWindow {
    /// Burst start, relative to the trace origin.
    pub start: Duration,
    /// Burst length.
    pub len: Duration,
    /// Rate multiplier inside the window (10.0 = the bench's 10× burst).
    pub multiplier: f64,
}

impl BurstWindow {
    fn contains(&self, at: Duration) -> bool {
        at >= self.start && at < self.start + self.len
    }
}

/// Bounded-Pareto execution-duration mix (heavy-tailed, like real serving
/// workloads: mostly short handlers, occasional stragglers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecMix {
    /// Minimum (and modal) execution duration.
    pub min: Duration,
    /// Pareto tail index; smaller = heavier tail. `1.5` is a good default.
    pub alpha: f64,
    /// Hard cap on any single execution.
    pub cap: Duration,
}

impl Default for ExecMix {
    fn default() -> ExecMix {
        ExecMix {
            min: Duration::from_millis(60),
            alpha: 1.5,
            cap: Duration::from_secs(4),
        }
    }
}

impl ExecMix {
    /// Draws one duration from the mix for `token`.
    fn draw(&self, token: u64) -> Duration {
        // Bounded Pareto via inverse transform; u is kept away from 0 so
        // the tail stays finite even before the cap.
        let u = unit_f64(token).max(1e-9);
        let scale = u.powf(-1.0 / self.alpha);
        Duration::from_secs_f64(self.min.as_secs_f64() * scale).min(self.cap)
    }
}

/// One tenant's traffic description.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantTraffic {
    /// The tenant's namespace (must match its platform `TenantConfig`).
    pub namespace: String,
    /// Arrival spacing.
    pub pattern: ArrivalPattern,
    /// Execution-duration mix.
    pub exec: ExecMix,
    /// Optional burst window multiplying the arrival rate.
    pub burst: Option<BurstWindow>,
}

impl TenantTraffic {
    /// Poisson traffic at `per_sec` for `namespace` with the default mix.
    pub fn poisson(namespace: impl Into<String>, per_sec: f64) -> TenantTraffic {
        TenantTraffic {
            namespace: namespace.into(),
            pattern: ArrivalPattern::Poisson { per_sec },
            exec: ExecMix::default(),
            burst: None,
        }
    }

    /// Near-periodic traffic with one arrival per `period`.
    pub fn periodic(namespace: impl Into<String>, period: Duration) -> TenantTraffic {
        TenantTraffic {
            namespace: namespace.into(),
            pattern: ArrivalPattern::Periodic {
                period,
                jitter: 0.05,
            },
            exec: ExecMix::default(),
            burst: None,
        }
    }

    /// Adds a burst window.
    pub fn with_burst(mut self, burst: BurstWindow) -> TenantTraffic {
        self.burst = Some(burst);
        self
    }

    /// Replaces the execution mix.
    pub fn with_exec(mut self, exec: ExecMix) -> TenantTraffic {
        self.exec = exec;
        self
    }
}

/// Shape of one generated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Trace horizon: arrivals are generated in `[0, horizon)`.
    pub horizon: Duration,
    /// Seed for every draw in the trace.
    pub seed: u64,
}

/// One invocation in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival instant relative to the trace origin.
    pub at: Duration,
    /// Index into the `TenantTraffic` slice this arrival belongs to.
    pub tenant: usize,
    /// Execution duration the `serve` action will charge.
    pub exec: Duration,
}

/// Generates the merged multi-tenant arrival trace: a pure function of
/// `(tenants, cfg)`, sorted by `(at, tenant)` so replay order is total.
pub fn generate(tenants: &[TenantTraffic], cfg: &TraceConfig) -> Vec<Arrival> {
    let mut all = Vec::new();
    for (idx, t) in tenants.iter().enumerate() {
        let tseed = hash2(cfg.seed, hash2(hash_str(&t.namespace), idx as u64));
        let mut at = Duration::ZERO;
        let mut n: u64 = 0;
        loop {
            let gap = match t.pattern {
                ArrivalPattern::Poisson { per_sec } => {
                    if per_sec <= 0.0 {
                        break;
                    }
                    let u = unit_f64(hash2(tseed, hash2(0xA221, n))).max(1e-12);
                    Duration::from_secs_f64(-u.ln() / per_sec)
                }
                ArrivalPattern::Periodic { period, jitter } => {
                    let u = unit_f64(hash2(tseed, hash2(0x9E10, n)));
                    period.mul_f64(1.0 + jitter.clamp(0.0, 0.99) * (2.0 * u - 1.0))
                }
            };
            // A burst divides the gap (multiplies the rate) while the
            // arrival would land inside the window.
            let gap = match t.burst {
                Some(b) if b.multiplier > 1.0 && b.contains(at + gap) => gap.div_f64(b.multiplier),
                _ => gap,
            };
            at += gap;
            if at >= cfg.horizon {
                break;
            }
            all.push(Arrival {
                at,
                tenant: idx,
                exec: t.exec.draw(hash2(tseed, hash2(0xD0A7, n))),
            });
            n += 1;
        }
    }
    all.sort_by_key(|a| (a.at, a.tenant));
    all
}

/// Encodes an arrival's execution duration as the `serve` payload.
pub fn payload(exec: Duration) -> Bytes {
    Bytes::copy_from_slice(&(exec.as_micros() as u64).to_le_bytes())
}

/// Registers the `serve` action: charges the execution duration carried in
/// its payload and echoes it back. It only charges time, so it is resumable
/// and its activations run without an OS thread.
///
/// # Errors
///
/// Propagates [`RegisterError`] from the platform.
pub fn register(faas: &CloudFunctions) -> Result<(), RegisterError> {
    faas.register_resumable(
        SERVE_FN,
        ActionConfig::default(),
        |ctx: ActivationCtx, payload: Bytes| async move {
            let micros = <[u8; 8]>::try_from(payload.as_ref())
                .map_err(|_| "serve: malformed duration payload")?;
            let exec = Duration::from_micros(u64::from_le_bytes(micros));
            task::sleep(ctx.scaled(exec)).await;
            Ok(payload)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenants() -> Vec<TenantTraffic> {
        vec![
            TenantTraffic::poisson("hot", 5.0),
            TenantTraffic::periodic("cron", Duration::from_secs(10)),
        ]
    }

    #[test]
    fn identical_seeds_generate_identical_traces() {
        let cfg = TraceConfig {
            horizon: Duration::from_secs(60),
            seed: 7,
        };
        let a = generate(&two_tenants(), &cfg);
        let b = generate(&two_tenants(), &cfg);
        assert!(!a.is_empty());
        assert_eq!(a, b, "trace generation must be a pure function of seed");
    }

    #[test]
    fn different_seeds_differ() {
        let horizon = Duration::from_secs(60);
        let a = generate(&two_tenants(), &TraceConfig { horizon, seed: 1 });
        let b = generate(&two_tenants(), &TraceConfig { horizon, seed: 2 });
        assert_ne!(a, b);
    }

    #[test]
    fn trace_is_sorted_and_bounded() {
        let cfg = TraceConfig {
            horizon: Duration::from_secs(30),
            seed: 3,
        };
        let trace = generate(&two_tenants(), &cfg);
        assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(trace.iter().all(|a| a.at < cfg.horizon));
    }

    #[test]
    fn burst_window_multiplies_arrivals() {
        let horizon = Duration::from_secs(120);
        let quiet = vec![TenantTraffic::poisson("t", 2.0)];
        let bursty = vec![TenantTraffic::poisson("t", 2.0).with_burst(BurstWindow {
            start: Duration::from_secs(30),
            len: Duration::from_secs(30),
            multiplier: 10.0,
        })];
        let cfg = TraceConfig { horizon, seed: 11 };
        let in_window = |trace: &[Arrival]| {
            trace
                .iter()
                .filter(|a| a.at >= Duration::from_secs(30) && a.at < Duration::from_secs(60))
                .count()
        };
        let base = in_window(&generate(&quiet, &cfg));
        let burst = in_window(&generate(&bursty, &cfg));
        assert!(
            burst as f64 > base as f64 * 4.0,
            "burst window should multiply arrivals: base={base} burst={burst}"
        );
    }

    #[test]
    fn exec_mix_is_heavy_tailed_and_capped() {
        let mix = ExecMix::default();
        let draws: Vec<Duration> = (0..4000).map(|i| mix.draw(hash2(99, i))).collect();
        assert!(draws.iter().all(|d| *d >= mix.min && *d <= mix.cap));
        let long = draws.iter().filter(|d| **d > mix.min * 4).count();
        assert!(long > 0, "tail draws exist");
        assert!(
            long < draws.len() / 4,
            "but the tail is a minority: {long}/{}",
            draws.len()
        );
    }
}
