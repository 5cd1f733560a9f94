//! Multi-tenant serving bench — trace-driven admission control and
//! keep-alive/prewarm ablation.
//!
//! Replays seeded Azure-Functions-style arrival traces (see
//! `rustwren_workloads::serving`) against the platform's tenant admission
//! plane and measures what a serving operator cares about:
//!
//! 1. **Keep-alive A/B** — the same periodic multi-tenant trace under
//!    `KeepAlivePolicy::FixedTtl` vs `KeepAlivePolicy::HybridHistogram`:
//!    cold-start rate and warm-pool cost (container-idle seconds) per arm.
//! 2. **Noisy neighbor** — a victim tenant measured alone (isolated
//!    baseline), then again while a noisy tenant bursts its arrival rate
//!    10×: per-tenant p50/p99 completion latency, shed and throttle counts.
//! 3. **Bitwise replay** — the noisy-neighbor arm runs twice with the same
//!    seed and must produce byte-identical results.
//!
//! Prints the comparison tables and writes `BENCH_serving.json`
//! (`target/bench/serving.json` under `--smoke`), then fails
//! (exit 1) unless (a) the hybrid-histogram arm has a strictly lower
//! cold-start rate than fixed-TTL at no more than 1.05× its warm-pool
//! cost, and (b) fair admission keeps the victim's p99 within 2× of its
//! isolated baseline during the 10× burst — the regression gates CI runs
//! in smoke mode.
//!
//! Run: `cargo run --release -p rustwren-bench --bin serving`

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rustwren_bench::{BenchArgs, Table};
use rustwren_core::SimCloud;
use rustwren_faas::{
    ActivationId, InvokeError, KeepAlivePolicy, PlatformConfig, TenantConfig, TenantStats,
};
use rustwren_workloads::serving::{
    self, Arrival, BurstWindow, ExecMix, TenantTraffic, TraceConfig, SERVE_FN,
};

/// Per-tenant measurement from one replay.
#[derive(Debug, Clone, PartialEq)]
struct TenantOut {
    namespace: String,
    submitted: u64,
    completed: u64,
    p50_ms: f64,
    p99_ms: f64,
    cold_rate: f64,
    warm_pool_secs: f64,
    prewarmed: u64,
    shed: u64,
    throttled: u64,
}

/// One replayed arm.
#[derive(Debug, Clone, PartialEq)]
struct ArmOut {
    name: String,
    horizon_secs: f64,
    inv_per_sec: f64,
    tenants: Vec<TenantOut>,
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

/// Replays `traffic` over `horizon` against a platform configured with
/// `platform`, open-loop (one driver thread per tenant; arrivals are never
/// delayed by earlier invocations' latency). Returns per-tenant latency
/// percentiles and the platform's tenant counters.
fn replay(
    name: &str,
    seed: u64,
    platform: PlatformConfig,
    traffic: &[TenantTraffic],
    horizon: Duration,
) -> ArmOut {
    let cloud = SimCloud::builder().seed(seed).platform(platform).build();
    serving::register(cloud.functions()).expect("register serve action");
    let trace = serving::generate(traffic, &TraceConfig { horizon, seed });
    let faas = cloud.functions().clone();

    type DriverOut = (usize, Vec<ActivationId>, u64, u64);
    let collected: Arc<Mutex<Vec<DriverOut>>> = Arc::new(Mutex::new(Vec::new()));
    let tenants_out = cloud.run(|| {
        let origin = rustwren_sim::now();
        let handles: Vec<_> = traffic
            .iter()
            .enumerate()
            .map(|(idx, t)| {
                let arrivals: Vec<Arrival> =
                    trace.iter().filter(|a| a.tenant == idx).copied().collect();
                let faas = faas.clone();
                let ns = t.namespace.clone();
                let collected = Arc::clone(&collected);
                rustwren_sim::spawn(format!("driver-{ns}"), move || {
                    let mut ids = Vec::new();
                    let (mut throttled, mut shed) = (0u64, 0u64);
                    for a in arrivals {
                        let target = origin + a.at;
                        let now = rustwren_sim::now();
                        if target > now {
                            rustwren_sim::sleep(target.duration_since(now));
                        }
                        match faas.invoke_in(&ns, SERVE_FN, serving::payload(a.exec)) {
                            Ok(id) => ids.push(id),
                            Err(InvokeError::Throttled { .. }) => throttled += 1,
                            Err(InvokeError::ShedLoad { .. }) => shed += 1,
                            Err(e) => panic!("driver {ns}: unexpected invoke error: {e}"),
                        }
                    }
                    collected.lock().unwrap().push((idx, ids, throttled, shed));
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        let mut drivers = collected.lock().unwrap().clone();
        drivers.sort_by_key(|(idx, ..)| *idx);

        // Latencies: submit → end, completed activations only.
        let mut out = Vec::new();
        for (idx, ids, client_throttled, client_shed) in drivers {
            let ns = &traffic[idx].namespace;
            let mut lat_ms: Vec<f64> = Vec::new();
            let mut completed = 0u64;
            for id in &ids {
                let record = faas.wait(*id);
                if record.is_success() {
                    completed += 1;
                    if let Some(d) = record.total_duration() {
                        lat_ms.push(d.as_secs_f64() * 1e3);
                    }
                }
            }
            lat_ms.sort_by(f64::total_cmp);
            let stats: TenantStats = faas.tenant_stats(ns).unwrap_or_default();
            out.push(TenantOut {
                namespace: ns.clone(),
                submitted: ids.len() as u64 + client_throttled + client_shed,
                completed,
                p50_ms: percentile(&lat_ms, 0.50),
                p99_ms: percentile(&lat_ms, 0.99),
                cold_rate: stats.cold_start_rate(),
                warm_pool_secs: stats.warm_pool_seconds,
                prewarmed: stats.prewarmed,
                shed: stats.shed + client_shed,
                throttled: stats.throttled + client_throttled,
            });
        }
        out
    });

    let completed_total: u64 = tenants_out.iter().map(|t| t.completed).sum();
    ArmOut {
        name: name.to_owned(),
        horizon_secs: horizon.as_secs_f64(),
        inv_per_sec: completed_total as f64 / horizon.as_secs_f64(),
        tenants: tenants_out,
    }
}

/// Platform for the keep-alive A/B: ample quotas (admission never
/// interferes), scarce idle policy under test.
fn keepalive_platform(tenants: &[TenantTraffic], policy: KeepAlivePolicy) -> PlatformConfig {
    PlatformConfig {
        concurrency_limit: 64,
        cluster_containers: 64,
        keep_alive: Some(policy),
        tenants: tenants
            .iter()
            .map(|t| TenantConfig::new(&t.namespace, 8))
            .collect(),
        ..PlatformConfig::default()
    }
}

/// Periodic timer-style tenants whose inter-arrival gaps exceed the fixed
/// TTL — the population where histogram prewarming pays.
fn keepalive_traffic() -> Vec<TenantTraffic> {
    [28u64, 33, 38, 43]
        .iter()
        .enumerate()
        .map(|(i, period)| {
            TenantTraffic::periodic(format!("cron-{i}"), Duration::from_secs(*period)).with_exec(
                ExecMix {
                    min: Duration::from_millis(120),
                    alpha: 2.0,
                    cap: Duration::from_secs(1),
                },
            )
        })
        .collect()
}

/// Platform for the fairness arm: global capacity equals the sum of the
/// two quotas, so the only thing protecting the victim is its quota and
/// the weighted fair queue.
fn fairness_platform() -> PlatformConfig {
    PlatformConfig {
        concurrency_limit: 16,
        cluster_containers: 16,
        tenants: vec![
            TenantConfig::new("victim", 8).queue_depth(64),
            TenantConfig::new("noisy", 8).queue_depth(64),
        ],
        ..PlatformConfig::default()
    }
}

fn victim_traffic() -> TenantTraffic {
    TenantTraffic::poisson("victim", 4.0).with_exec(ExecMix {
        min: Duration::from_millis(200),
        alpha: 1.8,
        cap: Duration::from_secs(2),
    })
}

fn noisy_traffic(horizon: Duration) -> TenantTraffic {
    TenantTraffic::poisson("noisy", 4.0)
        .with_exec(ExecMix {
            min: Duration::from_millis(300),
            alpha: 1.6,
            cap: Duration::from_secs(3),
        })
        .with_burst(BurstWindow {
            start: horizon / 4,
            len: horizon / 2,
            multiplier: 10.0,
        })
}

fn tenant_json(t: &TenantOut) -> String {
    format!(
        "{{\"namespace\":\"{}\",\"submitted\":{},\"completed\":{},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"cold_start_rate\":{:.4},\"warm_pool_secs\":{:.3},\"prewarmed\":{},\"shed\":{},\"throttled\":{}}}",
        t.namespace,
        t.submitted,
        t.completed,
        t.p50_ms,
        t.p99_ms,
        t.cold_rate,
        t.warm_pool_secs,
        t.prewarmed,
        t.shed,
        t.throttled,
    )
}

fn arm_json(a: &ArmOut) -> String {
    let mut s = format!(
        "{{\"name\":\"{}\",\"horizon_secs\":{:.0},\"sustained_inv_per_sec\":{:.3},\"tenants\":[",
        a.name, a.horizon_secs, a.inv_per_sec
    );
    for (i, t) in a.tenants.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&tenant_json(t));
    }
    s.push_str("]}");
    s
}

fn tenant_table(arms: &[&ArmOut]) -> Table {
    let mut table = Table::new(&[
        "Arm", "Tenant", "Done", "p50", "p99", "Cold%", "WarmSec", "Prewarm", "Shed", "429",
    ]);
    for a in arms {
        for t in &a.tenants {
            table.row(&[
                a.name.clone(),
                t.namespace.clone(),
                t.completed.to_string(),
                format!("{:.0}ms", t.p50_ms),
                format!("{:.0}ms", t.p99_ms),
                format!("{:.1}%", t.cold_rate * 100.0),
                format!("{:.0}", t.warm_pool_secs),
                t.prewarmed.to_string(),
                t.shed.to_string(),
                t.throttled.to_string(),
            ]);
        }
    }
    table
}

fn main() {
    let args = BenchArgs::parse();
    let ka_horizon = Duration::from_secs(args.scaled(900, 300) as u64);
    let fair_horizon = Duration::from_secs(args.scaled(300, 120) as u64);

    println!("== Multi-tenant serving: admission control + keep-alive ablation ==");
    println!(
        "   (keep-alive horizon {}s, fairness horizon {}s, seed {})\n",
        ka_horizon.as_secs(),
        fair_horizon.as_secs(),
        args.seed
    );

    // --- Arm 1: keep-alive policy A/B over the same periodic trace. ---
    let ka_traffic = keepalive_traffic();
    let fixed_ttl = Duration::from_secs(20);
    let fixed = replay(
        "fixed-ttl",
        args.seed,
        keepalive_platform(&ka_traffic, KeepAlivePolicy::fixed(fixed_ttl)),
        &ka_traffic,
        ka_horizon,
    );
    let hybrid = replay(
        "hybrid-histogram",
        args.seed,
        keepalive_platform(&ka_traffic, KeepAlivePolicy::hybrid(fixed_ttl)),
        &ka_traffic,
        ka_horizon,
    );

    // --- Arm 2: victim alone, then victim + noisy neighbor at 10×. ---
    let victim_iso = replay(
        "victim-isolated",
        args.seed,
        fairness_platform(),
        &[victim_traffic()],
        fair_horizon,
    );
    let burst_traffic = [victim_traffic(), noisy_traffic(fair_horizon)];
    let burst = replay(
        "noisy-burst",
        args.seed,
        fairness_platform(),
        &burst_traffic,
        fair_horizon,
    );

    // --- Arm 3: bitwise replay of the burst timeline. ---
    let burst_again = replay(
        "noisy-burst",
        args.seed,
        fairness_platform(),
        &burst_traffic,
        fair_horizon,
    );

    println!("{}", tenant_table(&[&fixed, &hybrid, &victim_iso, &burst]));

    let ka_rate = |a: &ArmOut| {
        let cold: f64 = a
            .tenants
            .iter()
            .map(|t| t.cold_rate * t.completed as f64)
            .sum();
        let done: f64 = a.tenants.iter().map(|t| t.completed as f64).sum();
        cold / done.max(1.0)
    };
    let ka_cost = |a: &ArmOut| a.tenants.iter().map(|t| t.warm_pool_secs).sum::<f64>();
    let (fixed_rate, hybrid_rate) = (ka_rate(&fixed), ka_rate(&hybrid));
    let (fixed_cost, hybrid_cost) = (ka_cost(&fixed), ka_cost(&hybrid));
    println!(
        "keep-alive: cold-start rate {:.1}% -> {:.1}%, warm-pool cost {:.0}s -> {:.0}s",
        fixed_rate * 100.0,
        hybrid_rate * 100.0,
        fixed_cost,
        hybrid_cost
    );

    let p99_iso = victim_iso.tenants[0].p99_ms;
    let p99_burst = burst
        .tenants
        .iter()
        .find(|t| t.namespace == "victim")
        .expect("victim tenant in burst arm")
        .p99_ms;
    let noisy_out = burst
        .tenants
        .iter()
        .find(|t| t.namespace == "noisy")
        .expect("noisy tenant in burst arm");
    println!(
        "fairness: victim p99 {p99_iso:.0}ms isolated -> {p99_burst:.0}ms under 10x burst \
         (noisy shed {} / throttled {})\n",
        noisy_out.shed, noisy_out.throttled
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"seed\":{},\"smoke\":{},\"arms\":[",
        args.seed, args.smoke
    );
    for (i, a) in [&fixed, &hybrid, &victim_iso, &burst].iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&arm_json(a));
    }
    let _ = write!(
        json,
        "],\"cold_rate_fixed\":{:.4},\"cold_rate_hybrid\":{:.4},\"warm_cost_fixed\":{:.1},\"warm_cost_hybrid\":{:.1},\"victim_p99_isolated_ms\":{:.3},\"victim_p99_burst_ms\":{:.3},\"replay_bitwise\":{}}}",
        fixed_rate,
        hybrid_rate,
        fixed_cost,
        hybrid_cost,
        p99_iso,
        p99_burst,
        burst == burst_again,
    );
    json.push('\n');
    args.write_bench_json("serving", &json);

    // Regression gates, at any scale.
    assert_eq!(
        burst, burst_again,
        "identical seeds must replay the burst timeline bitwise"
    );
    assert!(
        hybrid_rate < fixed_rate,
        "gate a: hybrid cold-start rate ({:.3}) must beat fixed-TTL ({:.3})",
        hybrid_rate,
        fixed_rate
    );
    assert!(
        hybrid_cost <= fixed_cost * 1.05,
        "gate a: hybrid warm-pool cost ({hybrid_cost:.1}s) must not exceed \
         1.05x fixed-TTL ({fixed_cost:.1}s)"
    );
    assert!(
        p99_burst <= p99_iso * 2.0,
        "gate b: victim p99 under burst ({p99_burst:.1}ms) must stay within \
         2x its isolated baseline ({p99_iso:.1}ms)"
    );
    assert!(
        noisy_out.shed + noisy_out.throttled > 0,
        "gate b: the 10x burst must actually trip admission control"
    );
}
