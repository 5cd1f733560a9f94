//! Every metric the ledger reports, by name, unit and clock.
//!
//! Two clocks run through the whole benchmark. *Host* metrics are wall
//! time (or memory) of the simulator process and carry the sandbox's
//! noise; *virtual* metrics are read off the kernel's simulated clock and
//! *count* metrics off the crates' public stats — both are a pure function
//! of the seed, so two commits compare exactly on them.
//!
//! The record a run writes, the `--trace` printout, `compare`, the root
//! `BENCHMARK.json` and `BENCHMARK.md` all take their names from the two
//! tables below; `tests/ledger.rs` holds `BENCHMARK.json` to them.

/// Which clock (if any) a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time or memory of the simulator process: noisy.
    Host,
    /// The kernel's simulated clock: deterministic for a seed.
    Virtual,
    /// A counter from a crate's public stats: deterministic for a seed.
    Count,
}

impl Clock {
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
        }
    }
}

/// How `compare` judges a change in an end-to-end metric. Lower is better
/// for every end-to-end metric, so "worse" always means "larger".
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Any increase is a regression (virtual and count metrics).
    Exact,
    /// Worse when the change exceeds the base by more than
    /// `max(share × base, floor)`; `floor` is in the metric's unit and
    /// keeps millisecond-sized set-ups from tripping on scheduler noise.
    Within { share: f64, floor: f64 },
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub def: MetricDef,
    pub rule: Rule,
}

const fn host(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock: Clock::Host,
    }
}

const fn virt(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock: Clock::Virtual,
    }
}

const fn count(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock: Clock::Count,
    }
}

const fn exact(def: MetricDef) -> EndToEnd {
    EndToEnd {
        def,
        rule: Rule::Exact,
    }
}

/// The ten end-to-end metrics every workload reports.
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        def: host("setup_s", "s"),
        rule: Rule::Within {
            share: 0.25,
            floor: 0.05,
        },
    },
    // Tighter than the 25% `BENCHMARK.json` gives the driver, whose own
    // acceptance test wants the ten-seed spread (5-8% of the median on the
    // reference box) under a third of the bound. `compare` instead calls
    // a metric `unresolved` when its spread is wider than this.
    EndToEnd {
        def: host("wall_s", "s"),
        rule: Rule::Within {
            share: 0.10,
            floor: 0.0,
        },
    },
    EndToEnd {
        def: host("peak_rss_mb", "MB"),
        rule: Rule::Within {
            share: 0.15,
            floor: 0.0,
        },
    },
    exact(virt("virtual_s", "s")),
    exact(virt("activation_p50_virtual_ms", "ms")),
    exact(virt("activation_p99_virtual_ms", "ms")),
    exact(count("cos_ops", "count")),
    exact(count("cos_bytes", "bytes")),
    exact(virt("billed_gb_s", "GB.s")),
    exact(count("failed_share", "ratio")),
];

/// End-to-end metrics that are 0 on some workload (`serving_burst` issues
/// no COS ops; no workload fails an operation). The benchmark contract
/// bounds an end-to-end metric as a share of the parent's median, which a
/// zero median cannot carry, so `BENCHMARK.json` lists these three with
/// the unbounded per-layer metrics; the ledger's own records and `compare`
/// keep them end-to-end and exact.
pub const ZERO_PRONE: [&str; 3] = ["cos_ops", "cos_bytes", "failed_share"];

/// The per-layer metrics of the traced run, grouped by run-path crate
/// (`lint` and `verify` are tooling and have none).
pub const LAYERS: [MetricDef; 79] = [
    // sim — KernelStats and the kernel probes.
    count("sim.events", "count"),
    count("sim.clock_advances", "count"),
    count("sim.timers_scheduled", "count"),
    count("sim.threads_started", "count"),
    count("sim.light_polls", "count"),
    host("sim.events_per_wall_s", "1/s"),
    host("sim.probe.light_ns_per_event", "ns"),
    host("sim.probe.thread_ns_per_event", "ns"),
    host("sim.est_busy_s", "s"),
    // store — OpCounts per phase, ObjectStore and CosClient probes.
    count("store.staging_ops", "count"),
    count("store.polling_ops", "count"),
    count("store.agent_ops", "count"),
    count("store.gets", "count"),
    count("store.puts", "count"),
    count("store.lists", "count"),
    count("store.heads", "count"),
    count("store.bytes_in", "bytes"),
    count("store.bytes_out", "bytes"),
    host("store.probe.put_ns_per_op", "ns"),
    host("store.probe.get_ns_per_op", "ns"),
    host("store.probe.range_get_ns_per_op", "ns"),
    host("store.probe.list_ns_per_op", "ns"),
    host("store.probe.copy_ns_per_kib", "ns/KiB"),
    virt("store.probe.client_get_virtual_ms", "ms"),
    virt("store.probe.client_put_virtual_ms", "ms"),
    host("store.est_busy_s", "s"),
    // faas — PlatformStats, TenantStats, ActivationRecords.
    count("faas.submitted", "count"),
    count("faas.completed", "count"),
    count("faas.cold_starts", "count"),
    count("faas.warm_starts", "count"),
    count("faas.prewarmed", "count"),
    count("faas.queued", "count"),
    count("faas.shed", "count"),
    count("faas.throttled", "count"),
    count("faas.timeouts", "count"),
    count("faas.image_pulls", "count"),
    count("faas.cold_start_rate", "ratio"),
    count("faas.blob_cache_hit_rate", "ratio"),
    count("faas.peak_concurrency", "count"),
    virt("faas.queue_wait_p99_virtual_ms", "ms"),
    virt("faas.exec_p50_virtual_ms", "ms"),
    virt("faas.warm_pool_s", "s"),
    host("faas.probe.invoke_wait_ns_per_activation", "ns"),
    host("faas.est_busy_s", "s"),
    // core — client-thread spans, agent records, RecoveryStats, wire, partition.
    host("core.executor.build_s", "s"),
    host("core.executor.submit_s", "s"),
    host("core.executor.gather_s", "s"),
    virt("core.executor.submit_virtual_s", "s"),
    virt("core.executor.gather_virtual_s", "s"),
    virt("core.spawn_phase_virtual_s", "s"),
    count("core.invoker_activations", "count"),
    count("core.agent_activations", "count"),
    count("core.recovery_actions", "count"),
    count("core.integrity_retries", "count"),
    count("core.partition.partitions", "count"),
    host("core.partition.probe.ns_per_partition", "ns"),
    host("core.wire.probe.encode_ns_per_kib", "ns/KiB"),
    host("core.wire.probe.decode_ns_per_kib", "ns/KiB"),
    host("core.wire.probe.stamp_ns_per_kib", "ns/KiB"),
    host("core.wire.probe.verify_ns_per_kib", "ns/KiB"),
    host("core.wire.est_busy_s", "s"),
    // analyze — the pre-flight plan linter.
    host("analyze.probe.plan_ns", "ns"),
    count("analyze.diagnostics", "count"),
    // workloads — the user functions' own compute.
    virt("workloads.compute_virtual_s", "s"),
    host("workloads.probe.tone_ns_per_kib", "ns/KiB"),
    host("workloads.probe.sort_ns_per_record", "ns"),
    host("workloads.probe.merge_ns_per_elem", "ns"),
    host("workloads.est_busy_s", "s"),
    // bench — the harness itself.
    host("bench.iterations", "count"),
    host("bench.wall_s_min", "s"),
    host("bench.wall_s_max", "s"),
    host("bench.wall_s_iqr", "s"),
    host("bench.warmup_s", "s"),
    host("bench.stage_s", "s"),
    host("bench.verify_s", "s"),
    host("bench.trace_overhead_pct", "%"),
    virt("bench.gen_late_virtual_ms_max", "ms"),
    host("bench.unattributed_s", "s"),
    count("bench.replay_identical", "count"),
];

/// The five workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "map_fanout",
    "cloudsort",
    "serving_burst",
    "airbnb_tone",
    "mergesort_compose",
];

/// Named values a run accumulates before they are laid out in catalog
/// order; a name may be set once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.get(name).is_none(),
            "ledger bug: metric `{name}` set twice"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The value of a metric the caller knows was set.
    pub fn req(&self, name: &str) -> f64 {
        self.get(name)
            .unwrap_or_else(|| panic!("ledger bug: metric `{name}` was never set"))
    }

    /// The replay check: names whose values differ from `other` in any
    /// bit (NaN-safe, distinguishes -0.0). Both sides come from the same
    /// collection code, so they hold the same names.
    pub fn diff(&self, other: &Values) -> Vec<String> {
        self.0
            .iter()
            .filter(|(n, v)| other.get(n).map(f64::to_bits) != Some(v.to_bits()))
            .map(|(n, v)| format!("{n}: {v} vs {:?}", other.get(n)))
            .collect()
    }
}
