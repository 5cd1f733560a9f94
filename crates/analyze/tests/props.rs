//! Property tests tying the analyzer's verdicts to actual platform
//! behavior, in the direction the rules guarantee:
//!
//! * a nested plan the analyzer *passes* (no W001 error) never deadlocks
//!   when run on a queueing platform with the profiled concurrency limit;
//! * a fan-out the analyzer flags as a throttle storm (W002) really
//!   observes 429 rejections when slow tasks pile onto a small limit.
//!
//! The flagged-deadlock direction is deliberately not asserted: whether an
//! oversubscribed tree actually wedges depends on scheduling order, which
//! is exactly why W001's warning tier exists.

use bytes::Bytes;
use proptest::prelude::*;
use rustwren_analyze::{analyze, CloudProfile, JobPlan, Rule, Severity};
use rustwren_faas::{
    ActionConfig, ActivationCtx, CloudFunctions, PlatformConfig, PlatformStats, TenantConfig,
    DEFAULT_NAMESPACE,
};
use rustwren_sim::Kernel;
use rustwren_store::ObjectStore;

/// Runs `tasks` roots of a `fanout`-ary invocation tree of the given
/// `depth` on a fresh platform, returning the final platform stats. Each
/// non-leaf node invokes its children and blocks on their completion —
/// the shape W001 reasons about.
fn run_tree(config: PlatformConfig, tasks: usize, depth: u32, fanout: u32) -> PlatformStats {
    let kernel = Kernel::new();
    let store = ObjectStore::new(&kernel);
    let faas = CloudFunctions::new(&kernel, &store, config);
    let faas2 = faas.clone();
    faas.register_action(
        "node",
        ActionConfig::default(),
        move |ctx: &ActivationCtx, payload: Bytes| {
            let depth = payload.first().copied().unwrap_or(0);
            if depth > 0 {
                let ids: Vec<_> = (0..fanout)
                    .map(|_| faas2.invoke("node", Bytes::from(vec![depth - 1])))
                    .collect::<Result<_, _>>()
                    .map_err(|e| rustwren_faas::ActionError(e.to_string()))?;
                for id in ids {
                    ctx.platform().wait(id);
                }
            }
            Ok(Bytes::new())
        },
    )
    .expect("node registers");
    kernel.run("client", || {
        let ids: Vec<_> = (0..tasks)
            .map(|_| {
                faas.invoke("node", Bytes::from(vec![depth as u8]))
                    .expect("root accepted")
            })
            .collect();
        for id in ids {
            faas.wait(id);
        }
    });
    faas.stats()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness of the W001 pass verdict: if the analyzer raises no W001
    /// error for a nested plan, running that exact tree on a queueing
    /// platform (the default namespace as a tenant with an admission
    /// queue) with the same concurrency limit completes every activation
    /// (no deadlock, no throttling losses).
    #[test]
    fn passed_nested_plans_complete(params in (2usize..7, 1usize..4, 0u32..3, 1u32..4)) {
        let (limit, tasks, depth, fanout) = params;
        let mut plan = JobPlan::new("tree", tasks);
        plan.nesting_depth = depth;
        plan.nested_fanout = fanout;
        let profile = CloudProfile {
            concurrency_limit: limit,
            ..CloudProfile::default()
        };
        let flagged = analyze(&plan, &profile)
            .iter()
            .any(|d| d.rule == Rule::W001 && d.severity == Severity::Error);
        if !flagged {
            let stats = run_tree(
                PlatformConfig {
                    concurrency_limit: limit,
                    tenants: vec![TenantConfig::new(DEFAULT_NAMESPACE, limit).queue_depth(1024)],
                    ..PlatformConfig::default()
                },
                tasks,
                depth,
                fanout,
            );
            // Completing `kernel.run` at all already proves no deadlock —
            // the kernel panics on one. Check the books balanced too.
            prop_assert_eq!(stats.completed, stats.submitted);
            prop_assert_eq!(stats.throttled, 0);
        }
    }

    /// W002-flagged fan-outs really throttle: more slow tasks than the
    /// namespace admits (reject mode) must observe at least one 429.
    #[test]
    fn flagged_throttle_storms_observe_429s(params in (1usize..5, 6usize..20)) {
        // The ranges guarantee tasks (>= 6) > limit (<= 4).
        let (limit, tasks) = params;
        let plan = JobPlan::new("storm", tasks);
        let profile = CloudProfile {
            concurrency_limit: limit,
            ..CloudProfile::default()
        };
        let flagged = analyze(&plan, &profile)
            .iter()
            .any(|d| d.rule == Rule::W002);
        prop_assert!(flagged, "tasks {} > limit {} must flag W002", tasks, limit);

        let kernel = Kernel::new();
        let store = ObjectStore::new(&kernel);
        let faas = CloudFunctions::new(
            &kernel,
            &store,
            PlatformConfig {
                concurrency_limit: limit,
                ..PlatformConfig::default()
            },
        );
        faas.register_action(
            "slow",
            ActionConfig::default(),
            |ctx: &ActivationCtx, _p: Bytes| {
                ctx.charge(std::time::Duration::from_secs(20));
                Ok(Bytes::new())
            },
        )
        .expect("slow registers");
        let throttled = kernel.run("client", || {
            // Burst-fire the whole job; with every slot full for 20 s the
            // overflow is rejected with 429s.
            let mut throttled = 0u64;
            for _ in 0..tasks {
                if faas.invoke("slow", Bytes::new()).is_err() {
                    throttled += 1;
                }
            }
            throttled
        });
        prop_assert!(throttled > 0, "no 429 observed for {} tasks over limit {}", tasks, limit);
        prop_assert_eq!(throttled, faas.stats().throttled);
    }
}
