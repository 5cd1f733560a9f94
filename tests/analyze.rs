//! Acceptance tests for the pre-flight job-plan analyzer: the same doomed
//! nested plan is (a) rejected by `AnalyzeMode::Deny` before any function
//! is invoked, and (b) — with analysis off and the platform queueing
//! instead of throttling — wedges the simulation in a deadlock whose panic
//! report names the actual wait-for cycle. A suite of canonical
//! paper-shaped plans has its findings pinned exactly.

use std::panic::{self, AssertUnwindSafe};

use bytes::Bytes;
use rustwren::core::{AnalyzeMode, PlanHints, PywrenError, Rule, Severity, SimCloud};
use rustwren::faas::{
    ActionConfig, ActivationCtx, CloudFunctions, PlatformConfig, TenantConfig, DEFAULT_NAMESPACE,
};
use rustwren::sim::Kernel;
use rustwren::store::ObjectStore;
use rustwren::workloads::mergesort;

/// The acceptance plan: a nested mergesort whose recursion tree cannot fit
/// inside the namespace concurrency limit. With depth 2 and fanout 2 a
/// single root yields 1 + 2 = 3 blocking parents against a limit of 2.
const LIMIT: usize = 2;
const DEPTH: u32 = 2;

#[test]
fn deny_rejects_overcommitted_mergesort_before_invocation() {
    let platform = PlatformConfig {
        concurrency_limit: LIMIT,
        ..PlatformConfig::default()
    };
    let cloud = SimCloud::builder().seed(7).platform(platform).build();
    mergesort::register(&cloud);
    let cloud2 = cloud.clone();
    let err = cloud.run(move || {
        let exec = cloud2
            .executor()
            .analyze(AnalyzeMode::Deny)
            .plan_hints(PlanHints {
                nesting_depth: DEPTH,
                nested_fanout: 2,
                ..PlanHints::default()
            })
            .build()
            .expect("executor builds");
        exec.call_async(mergesort::MERGESORT_FN, mergesort::input(7, 1_000, DEPTH))
            .expect_err("deny mode must reject the doomed plan")
    });
    let PywrenError::Plan { diagnostics } = &err else {
        panic!("expected a plan rejection, got: {err}");
    };
    assert!(
        diagnostics
            .iter()
            .any(|d| d.rule == Rule::W001 && d.severity == Severity::Error),
        "W001 must fire at error severity: {diagnostics:#?}"
    );
    assert!(err.to_string().contains("W001"), "{err}");
    // Rejected pre-flight: the platform never saw a single invocation.
    assert_eq!(
        cloud.functions().stats().submitted,
        0,
        "deny must fire before any invocation"
    );
}

#[test]
fn warn_mode_runs_the_flagged_job_anyway() {
    // Default (warn) analysis never blocks: the same hints on a platform
    // with a generous limit complete normally and produce sorted output.
    let cloud = SimCloud::builder().seed(7).build();
    mergesort::register(&cloud);
    let cloud2 = cloud.clone();
    let sorted = cloud.run(move || {
        let exec = cloud2
            .executor()
            .analyze(AnalyzeMode::Warn)
            .plan_hints(PlanHints {
                nesting_depth: 1,
                nested_fanout: 2,
                ..PlanHints::default()
            })
            .build()
            .expect("executor builds");
        exec.call_async(mergesort::MERGESORT_FN, mergesort::input(7, 1_000, 1))
            .expect("warn mode must not block the job");
        let results = exec.get_result().expect("job completes");
        mergesort::decode_i64s(results[0].as_bytes().expect("bytes result"))
    });
    assert_eq!(sorted.len(), 1_000);
    assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn tenant_quota_overflow_warns_but_never_blocks() {
    // W009 coverage: a map wider than the submitting tenant's
    // concurrency quota fires a warning, but warnings never block — the
    // same job completes under Deny mode because the overflow just waits
    // in the tenant's admission queue.
    let platform = PlatformConfig {
        tenants: vec![rustwren::faas::TenantConfig::new("acme", 2)],
        ..PlatformConfig::default()
    };
    let cloud = SimCloud::builder().seed(11).platform(platform).build();
    cloud.register_fn(
        "double",
        |_ctx: &rustwren::core::TaskCtx, v: rustwren::core::Value| {
            Ok(rustwren::core::Value::Int(
                v.as_i64().ok_or("expected int")? * 2,
            ))
        },
    );
    let cloud2 = cloud.clone();
    let results = cloud.run(move || {
        let exec = cloud2
            .executor()
            .namespace("acme")
            .analyze(AnalyzeMode::Deny)
            .build()
            .expect("executor builds");

        // The what-if API shows the warning the preflight gate prints.
        let plan = {
            let mut p = rustwren::core::JobPlan::new("double", 8);
            p.tenant_namespace = Some("acme".into());
            p.tenant_quota = Some(2);
            p
        };
        let diags = exec.analyze_plan(&plan);
        let w009 = diags
            .iter()
            .find(|d| d.rule == Rule::W009)
            .expect("W009 fires for an 8-task wave against a quota of 2");
        assert_eq!(w009.severity, Severity::Warning);
        assert!(w009.message.contains("acme"), "{}", w009.message);

        // Deny mode only rejects errors: the flagged job still runs.
        exec.map(
            "double",
            (0..8).map(rustwren::core::Value::Int).collect::<Vec<_>>(),
        )
        .expect("W009 is a warning; deny must not reject it");
        exec.get_result()
            .expect("job completes despite the warning")
    });
    assert_eq!(results.len(), 8);
}

#[test]
fn unanalyzed_overcommit_deadlocks_with_wait_for_cycle() {
    // The other half of the acceptance criterion: run the same
    // parent-blocks-on-child shape with no analyzer in the way, on a
    // platform that queues over-limit invocations instead of throttling
    // them (the default namespace as a tenant with an admission queue).
    // The parent holds the only admission slot while waiting on a child
    // that queues behind it — the kernel must name that cycle.
    let kernel = Kernel::new();
    let store = ObjectStore::new(&kernel);
    let faas = CloudFunctions::new(
        &kernel,
        &store,
        PlatformConfig {
            concurrency_limit: 1,
            tenants: vec![TenantConfig::new(DEFAULT_NAMESPACE, 1).queue_depth(1024)],
            ..PlatformConfig::default()
        },
    );
    let faas2 = faas.clone();
    faas.register_action(
        "sort-parent",
        ActionConfig::default(),
        move |ctx: &ActivationCtx, _p: Bytes| {
            let id = faas2
                .invoke("sort-leaf", Bytes::new())
                .map_err(|e| rustwren::faas::ActionError(e.to_string()))?;
            ctx.platform().wait(id);
            Ok(Bytes::new())
        },
    )
    .expect("parent registers");
    faas.register_action(
        "sort-leaf",
        ActionConfig::default(),
        |_ctx: &ActivationCtx, _p: Bytes| Ok(Bytes::new()),
    )
    .expect("leaf registers");

    let panic = panic::catch_unwind(AssertUnwindSafe(|| {
        kernel.run("client", || {
            let id = faas.invoke("sort-parent", Bytes::new()).expect("accepted");
            faas.wait(id);
        });
    }))
    .expect_err("overcommitted nesting must deadlock");
    let msg = panic
        .downcast_ref::<String>()
        .cloned()
        .expect("panic payload is the deadlock report");
    // The parent (`act-…01`) holds the only admission slot and waits on
    // the child's completion event; the child queues on admission.
    assert_eq!(
        msg,
        "simulation deadlock at t=2.120000s: all 3 registered thread(s) are blocked \
         and no timer is pending\n  \
         - thread `act-0000000000000001` blocked on event.wait \
         (event `act-0000000000000002`, held by `act-0000000000000002`)\n  \
         - thread `act-0000000000000002` blocked on event.wait \
         (admission `tenant-admission`, held by `act-0000000000000001`)\n  \
         - thread `client` blocked on event.wait \
         (event `act-0000000000000001`, held by `act-0000000000000001`)\n\
         wait-for cycle: `act-0000000000000001` -[event `act-0000000000000002`]-> \
         `act-0000000000000002` -[admission `tenant-admission`]-> `act-0000000000000001`"
    );
}

/// The canonical suite: the paper's workload shapes, including the
/// pathological corners the W-rules exist for, each pinned to its exact
/// findings under the paper's platform limits.
#[test]
fn canonical_plans_have_exactly_their_pinned_findings() {
    use rustwren::analyze::{analyze, CloudProfile, JobPlan, ShuffleShape};

    let mut suite = Vec::new();
    // Table 3 tone-map sweep: 1.9 GB over 2..64 MB chunks.
    for (mb, tasks) in [(64u64, 47usize), (16, 129), (2, 923)] {
        let mut plan = JobPlan::new(format!("tone-map@{mb}MB"), tasks);
        plan.chunk_size = Some(mb << 20);
        plan.max_object_bytes = Some(176_406_762);
        plan.partition_bytes = vec![mb << 20; tasks];
        suite.push(plan);
    }
    // Fig 4 mergesort: nested composition, depth 5, fanout 2.
    let mut mergesort = JobPlan::new("mergesort-d5", 1);
    mergesort.nesting_depth = 5;
    mergesort.nested_fanout = 2;
    suite.push(mergesort);
    // CloudSort-style shuffle on the segmented plane.
    let mut cloudsort = JobPlan::new("cloudsort-seg", 400);
    cloudsort.shuffle = Some(ShuffleShape {
        maps: 400,
        partitions: 100,
        segmented: true,
        via_relay: false,
    });
    suite.push(cloudsort);
    // Hyperparameter storm: 2,000-wide map with retries and speculation.
    let mut storm = JobPlan::new("hyperparam-storm", 2_000);
    storm.retry_max_attempts = 3;
    storm.speculative_copies = 16;
    suite.push(storm);
    // Multi-tenant serving wave: a map sized to the global limit but far
    // beyond the submitting tenant's quota.
    let mut wave = JobPlan::new("serving-wave", 64);
    wave.tenant_namespace = Some("acme".to_owned());
    wave.tenant_quota = Some(8);
    suite.push(wave);

    let findings = |plan: &JobPlan| {
        let diags = analyze(plan, &CloudProfile::default());
        diags
            .iter()
            .map(|d| (d.rule, d.severity))
            .collect::<Vec<_>>()
    };
    let found: Vec<_> = suite
        .iter()
        .map(|p| (p.label.as_str(), findings(p)))
        .collect();
    let warning = |rule| vec![(rule, Severity::Warning)];
    assert_eq!(
        found,
        vec![
            ("tone-map@64MB", vec![]),
            ("tone-map@16MB", vec![]),
            ("tone-map@2MB", vec![]),
            ("mergesort-d5", vec![]),
            ("cloudsort-seg", vec![]),
            ("hyperparam-storm", warning(Rule::W002)),
            ("serving-wave", warning(Rule::W009)),
        ]
    );
}
