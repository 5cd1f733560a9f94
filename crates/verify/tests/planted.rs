//! Planted concurrency bugs: the model checker must find each one within a
//! fixed budget, shrink the failing schedule, and the shrunk trace must
//! replay to the *same* failure.

use std::sync::Arc;

use parking_lot::Mutex;
use rustwren_sim::Kernel;
use rustwren_verify::{explore, replay, Budget, Failure, Strategy};

/// Base seed: `RUSTWREN_VERIFY_SEED` when set (the CI matrix), mixed with a
/// per-test default so the suites stay decorrelated.
fn seed(default: u64) -> u64 {
    std::env::var("RUSTWREN_VERIFY_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map_or(default, |s| s.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ default)
}

fn budget(schedules: usize, default_seed: u64, preempt: f64, label: &str) -> Budget {
    Budget {
        schedules,
        strategy: Strategy::Random {
            seed: seed(default_seed),
            preempt_probability: preempt,
        },
        label: label.to_string(),
    }
}

/// Replays the shrunk schedule and asserts it reproduces the deadlock the
/// explorer reported.
fn assert_deadlock_replays<R: std::fmt::Debug>(program: fn(Kernel) -> R, failure: &Failure) {
    assert_eq!(failure.signature, "simulation deadlock", "{failure}");
    assert!(
        failure.shrunk.entries.len() <= failure.trace.entries.len(),
        "shrinking must not grow the trace"
    );
    let err =
        replay(program, &failure.schedule()).expect_err("shrunk schedule must still deadlock");
    assert!(
        err.starts_with("simulation deadlock"),
        "replay diverged from the planted failure: {err}"
    );
}

// ---------------------------------------------------------------------------
// Planted bug 1: AB-BA double lock
// ---------------------------------------------------------------------------

/// Two threads acquire the same two shim mutexes in opposite orders. A
/// single preemption between the first and second acquisition deadlocks.
fn abba(kernel: Kernel) {
    kernel.run("client", || {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
        let t1 = rustwren_sim::spawn("t1", move || {
            let ga = a1.lock();
            let gb = b1.lock();
            *ga + *gb
        });
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t2 = rustwren_sim::spawn("t2", move || {
            let gb = b2.lock();
            let ga = a2.lock();
            *ga + *gb
        });
        t1.join();
        t2.join();
    });
}

#[test]
fn abba_deadlock_found_shrunk_and_replayed() {
    let report = explore(abba, &budget(300, 7, 0.25, "planted-abba"));
    let failure = report
        .failure
        .as_ref()
        .expect("AB-BA deadlock not found within 300 schedules");
    assert_deadlock_replays(abba, failure);
}

/// Even when no explored schedule happens to deadlock (preemption disabled,
/// so each thread takes both locks without interleaving), the merged
/// lock-order graphs still expose the AB-BA cycle.
#[test]
fn abba_cycle_reported_on_passing_schedules() {
    let report = explore(abba, &budget(30, 3, 0.0, "planted-abba-passing"));
    assert!(
        report.failure.is_none(),
        "without preemption no schedule should deadlock: {report}"
    );
    assert!(
        !report.lock_orders.cycles.is_empty(),
        "latent AB-BA cycle must be reported: {report}"
    );
    assert!(!report.ok());
}

// ---------------------------------------------------------------------------
// Planted bug 2: check-then-act counter
// ---------------------------------------------------------------------------

/// Each incrementer reads the counter under the lock, releases it, and
/// writes back `read + 1` under a second acquisition — a lost-update race.
/// The FIFO reference run yields 2; a preempted schedule can yield 1.
fn racy_counter(kernel: Kernel) -> u64 {
    kernel.run("client", || {
        let counter = Arc::new(Mutex::new(0u64));
        let workers: Vec<_> = (0..2)
            .map(|i| {
                let counter = Arc::clone(&counter);
                rustwren_sim::spawn(format!("inc{i}"), move || {
                    let v = *counter.lock();
                    *counter.lock() = v + 1;
                })
            })
            .collect();
        for w in workers {
            w.join();
        }
        let v = *counter.lock();
        v
    })
}

#[test]
fn racy_counter_mismatch_found_shrunk_and_replayed() {
    let report = explore(racy_counter, &budget(300, 19, 0.25, "planted-counter"));
    let failure = report
        .failure
        .as_ref()
        .expect("check-then-act lost update not found within 300 schedules");
    assert_eq!(failure.signature, "result mismatch", "{failure}");
    assert!(failure.shrunk.entries.len() <= failure.trace.entries.len());

    // The shrunk schedule must still produce the wrong answer.
    let replayed = replay(racy_counter, &failure.schedule())
        .expect("replaying a result-mismatch schedule must complete");
    assert_ne!(replayed, 2, "shrunk schedule no longer loses the update");
}

#[test]
fn racy_counter_found_by_bounded_dfs() {
    let report = explore(
        racy_counter,
        &Budget::dfs(400, 1).with_label("planted-counter-dfs"),
    );
    let failure = report
        .failure
        .expect("bounded-exhaustive search must find the lost update");
    assert_eq!(failure.signature, "result mismatch", "{failure}");
}
