//! The paper's evaluation, pinned. Virtual time is deterministic, so every
//! number `reproduce` prints at seed 42 is an exact golden here (durations
//! to the nanosecond, concurrency series and tone maps by digest), and the
//! paper's *shapes* are asserted at the clean-sweep seeds too: a change
//! that moves a figure fails here, not in a reader's diff of the tables.

use std::time::Duration;

use rustwren_bench::paper::{self, Serving, Spawn, TenantRow, TABLE3_PAPER};
use rustwren_bench::BenchArgs;
use rustwren_sim::hash::hash_bytes;

/// CI's clean-sweep seeds, beside the golden seed 42.
const SWEEP_SEEDS: [u64; 3] = [7, 19, 1041];

fn full(seed: u64) -> BenchArgs {
    BenchArgs { smoke: false, seed }
}

fn smoke() -> BenchArgs {
    BenchArgs {
        smoke: true,
        seed: 42,
    }
}

/// A concurrency series by digest: every point's time bits and level.
fn digest(series: &[(f64, usize)]) -> u64 {
    let bytes: Vec<u8> = series
        .iter()
        .flat_map(|&(t, c)| [t.to_bits(), c as u64])
        .flat_map(u64::to_le_bytes)
        .collect();
    hash_bytes(&bytes)
}

/// One spawning job as `invocation total peak points digest`.
fn spawned(s: &Spawn) -> String {
    format!(
        "{:?} {:?} {} {} {:#x}",
        s.invocation,
        s.total,
        s.peak(),
        s.series.len(),
        digest(&s.series)
    )
}

#[test]
fn sec51_is_pinned_at_seed_42() {
    let got: Vec<String> = paper::sec51(full(42))
        .0
        .iter()
        .map(|s| format!("{:?} {:?}", s.invocation, s.total))
        .collect();
    assert_eq!(
        got,
        [
            "9.017364489s 65.236138584s",
            "40.026502723s 95.448866028s",
            "23.174261664s 78.662399591s",
            "5.087481724s 61.584386526s",
        ]
    );
}

#[test]
fn fig2_is_pinned_at_seed_42() {
    let got: Vec<String> = paper::fig2(full(42)).0.iter().map(spawned).collect();
    assert_eq!(
        got,
        [
            "40.026502723s 95.448866028s 1000 1200 0x27a457d6ca5e1b2f",
            "5.087481724s 61.584386526s 1000 1500 0x9af8d8df80ff3bf7",
        ]
    );
}

#[test]
fn fig2_massive_invocation_is_a_quarter_of_local_at_every_sweep_seed() {
    for seed in SWEEP_SEEDS {
        let fig = paper::fig2(full(seed));
        let (local, massive) = (&fig.0[0], &fig.0[1]);
        assert!(
            massive.invocation * 4 <= local.invocation,
            "seed {seed}: massive {:?} vs local {:?}",
            massive.invocation,
            local.invocation
        );
        assert_eq!(
            (local.peak(), massive.peak()),
            (1_000, 1_000),
            "seed {seed}"
        );
    }
}

#[test]
fn fig3_is_pinned_at_seed_42() {
    let got: Vec<String> = paper::fig3(full(42))
        .0
        .iter()
        .map(|s| format!("{} {:?}..{:?} {}", s.tasks, s.exec.0, s.exec.1, spawned(s)))
        .collect();
    assert_eq!(
        got,
        [
            "500 53.684957576s..68.200639943s \
             5.050012217s 72.933580995s 500 751 0x5d4b41635a8d55f1",
            "1000 53.676833084s..68.200603868s \
             5.087481724s 72.927024498s 1000 1500 0x29eb47ba25286538",
            "1500 53.601593401s..68.200761748s \
             5.283073616s 73.356466817s 1500 2251 0xe508312d82c4a4c9",
            "2000 53.600868551s..68.200409871s \
             5.480534001s 73.300117126s 2000 3000 0x910ac6af259c2323",
        ]
    );
}

#[test]
fn fig3_meets_every_target_at_every_sweep_seed() {
    for seed in SWEEP_SEEDS {
        let got: Vec<(usize, usize)> = paper::fig3(full(seed))
            .0
            .iter()
            .map(|s| (s.tasks, s.peak()))
            .collect();
        assert_eq!(
            got,
            [(500, 500), (1_000, 1_000), (1_500, 1_500), (2_000, 2_000)],
            "seed {seed}"
        );
    }
}

#[test]
fn fig4_is_pinned_on_the_smoke_grid() {
    let fig = paper::fig4(smoke());
    assert_eq!(
        (fig.sizes.as_slice(), fig.depths.as_slice()),
        (&[20_000, 50_000][..], &[0, 1, 2][..])
    );
    let cells = |times: &[Duration]| times.iter().map(|t| format!("{t:?}")).collect::<Vec<_>>();
    assert_eq!(
        cells(&fig.times[0]),
        ["3.426785394s", "6.080654202s", "8.807760445s"]
    );
    assert_eq!(
        cells(&fig.times[1]),
        ["3.441090508s", "6.094959316s", "8.822065559s"]
    );
}

#[test]
fn fig5_tone_maps_are_pinned_at_seed_42() {
    let got: Vec<String> = paper::fig5(full(42))
        .0
        .iter()
        .map(|c| {
            format!(
                "{} {} {} {} {:#x}",
                c.city,
                c.positive,
                c.neutral,
                c.negative,
                hash_bytes(c.svg.as_bytes())
            )
        })
        .collect();
    assert_eq!(
        got,
        [
            "new-york.csv 1342 574 436 0x5082119fb11f806d",
            "amsterdam.csv 1276 649 839 0x287eaa756f99dd99",
            "barcelona.csv 2895 1450 1226 0xc2a0bc24f4227b3b",
            "san-francisco.csv 2470 1115 830 0xbab73ed6936310ae",
        ]
    );
}

#[test]
fn table3_is_pinned_at_seed_42() {
    let table = paper::table3(full(42));
    assert_eq!(format!("{:?}", table.sequential), "5189.937320918s");
    assert_eq!(table.comments, 33_526);
    let got: Vec<String> = table
        .rows
        .iter()
        .map(|r| format!("{}MB {} {:?}", r.chunk_mb, r.executors, r.exec))
        .collect();
    assert_eq!(
        got,
        [
            "64MB 47 519.478692231s",
            "32MB 72 267.39431031s",
            "16MB 129 137.39653294s",
            "8MB 242 72.780323811s",
            "4MB 471 40.362892226s",
            "2MB 923 24.562703116s",
        ]
    );
    // The paper's shape: its executor count at every chunk size, and a
    // speed-up that grows as the chunk shrinks, at the golden seed and at
    // every sweep seed.
    for (seed, table) in [(42, table)]
        .into_iter()
        .chain(SWEEP_SEEDS.map(|seed| (seed, paper::table3(full(seed)))))
    {
        let executors: Vec<usize> = table.rows.iter().map(|r| r.executors).collect();
        assert_eq!(executors, TABLE3_PAPER.map(|p| p.1), "seed {seed}");
        let speedups: Vec<f64> = table.rows.iter().map(|r| table.speedup(r)).collect();
        assert!(
            speedups.windows(2).all(|w| w[0] < w[1]),
            "seed {seed}: {speedups:?}"
        );
    }
}

#[test]
fn ablations_are_pinned() {
    let got: Vec<String> = paper::ablations()
        .0
        .iter()
        .map(|a| format!("{}/{} {:?}", a.group, a.variant, a.time))
        .collect();
    assert_eq!(
        got,
        [
            "invoker_group_size/group=60 18.069759596s",
            "invoker_group_size/group=20 16.841789444s",
            "invoker_group_size/group=10 16.964840546s",
            "invoker_group_size/group=5 17.139616891s",
            "direct_client_threads/threads=1 24.637729426s",
            "direct_client_threads/threads=5 16.523207506s",
            "direct_client_threads/threads=16 15.235575482s",
            "func_blob_size/8KB 16.447940288s",
            "func_blob_size/1024KB 16.672004278s",
            "func_blob_size/4096KB 16.306809303s",
            "poll_interval/100ms 16.609163994s",
            "poll_interval/500ms 16.693268857s",
            "poll_interval/2000ms 17.892489516s",
            "container_pool/cold(first job) 16.333850337s",
            "container_pool/warm(second job) 13.501256938s",
            "straggler_speculation/speculation=off 98.949424701s",
            "straggler_speculation/speculation=on 40.128698198s",
            "chaos_recovery/fault-free 23.311137757s",
            "chaos_recovery/brownout p=0.15 24.353767912s",
            "chaos_recovery/corrupt-get p=0.2 37.891934459s",
            "chaos_recovery/crash before-run p=0.1 24.414408663s",
        ]
    );
}

fn tenant_line(t: &TenantRow) -> String {
    format!(
        "  {} {} {} {:.3} {:.3} {:.4} {:.3} {} {} {}",
        t.namespace,
        t.submitted,
        t.completed,
        t.p50_ms,
        t.p99_ms,
        t.cold_rate,
        t.warm_pool_secs,
        t.prewarmed,
        t.shed,
        t.throttled
    )
}

#[test]
fn serving_is_pinned_at_seed_42_and_its_gates_hold() {
    let s = paper::serving(full(42));
    let mut got = Vec::new();
    for arm in s.arms() {
        got.push(format!(
            "{} {:.0} {:.3}",
            arm.name,
            arm.horizon.as_secs_f64(),
            arm.tenants.iter().map(|t| t.completed).sum::<u64>() as f64 / arm.horizon.as_secs_f64()
        ));
        got.extend(arm.tenants.iter().map(tenant_line));
    }
    assert_eq!(
        got,
        [
            "fixed-ttl 900 0.113",
            "  cron-0 31 31 2306.227 3151.774 1.0000 620.000 0 0 0",
            "  cron-1 27 27 2300.824 2741.191 1.0000 520.000 0 0 0",
            "  cron-2 23 23 2280.472 2717.829 1.0000 460.000 0 0 0",
            "  cron-3 21 21 2266.480 2843.320 1.0000 400.000 0 0 0",
            "hybrid-histogram 900 0.113",
            "  cron-0 31 31 324.200 2294.859 0.1613 134.619 26 0 0",
            "  cron-1 27 27 207.960 2521.238 0.2963 135.775 22 0 0",
            "  cron-2 23 23 183.780 2708.358 0.2174 109.980 18 0 0",
            "  cron-3 21 21 169.637 2306.894 0.2381 118.964 16 0 0",
            "victim-isolated 300 4.110",
            "  victim 1233 1233 301.670 2156.941 0.0065 1865.770 0 0 0",
            "noisy-burst 300 12.230",
            "  victim 1233 1233 288.910 1929.824 0.0065 1889.075 0 0 0",
            "  noisy 6563 2436 5559.669 8616.246 0.0033 746.998 0 8254 0",
        ]
    );
    let summary = format!(
        "{:.4} {:.4} {:.1} {:.1} {:.3} {:.3}",
        s.fixed.cold_start_rate(),
        s.hybrid.cold_start_rate(),
        s.fixed.warm_pool_secs(),
        s.hybrid.warm_pool_secs(),
        s.victim_isolated.tenant("victim").p99_ms,
        s.burst.tenant("victim").p99_ms
    );
    assert_eq!(summary, "1.0000 0.2255 2000.0 499.3 2156.941 1929.824");
    assert!(s.replay_bitwise);
    assert_eq!(s.gate_failures(), Vec::<String>::new());
}

/// The gate messages `report` fails, by their leading words.
fn failed_gates(report: &Serving) -> Vec<String> {
    report
        .gate_failures()
        .iter()
        .map(|f| f.split(':').next().unwrap_or(f).to_owned())
        .collect()
}

#[test]
fn serving_gates_hold_at_smoke_scale_and_fail_when_violated() {
    let report = paper::serving(smoke());
    assert!(report.replay_bitwise);
    assert_eq!(report.gate_failures(), Vec::<String>::new());

    // Gate a: hybrid keep-alive must beat fixed-TTL's cold-start rate ...
    let mut cold = report.clone();
    for t in &mut cold.hybrid.tenants {
        t.cold_rate = 1.0;
    }
    assert_eq!(failed_gates(&cold), ["gate a"]);
    // ... at no more than 1.05x its warm-pool cost.
    let mut costly = report.clone();
    let fixed_cost = costly.fixed.warm_pool_secs();
    costly.hybrid.tenants[0].warm_pool_secs += fixed_cost * 1.05;
    assert_eq!(failed_gates(&costly), ["gate a"]);
    // Gate b: the victim's p99 under the burst within 2x its baseline.
    let mut slow = report.clone();
    let baseline = slow.victim_isolated.tenant("victim").p99_ms;
    let victim = slow
        .burst
        .tenants
        .iter_mut()
        .find(|t| t.namespace == "victim");
    victim.expect("victim in the burst arm").p99_ms = baseline * 2.0 + 1.0;
    assert_eq!(failed_gates(&slow), ["gate b"]);
    // And the burst replays bitwise.
    let mut diverged = report;
    diverged.replay_bitwise = false;
    assert_eq!(
        failed_gates(&diverged),
        ["identical seeds must replay the burst timeline bitwise"]
    );
}
