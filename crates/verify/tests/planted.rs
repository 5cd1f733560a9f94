//! Planted concurrency bugs: the model checker must find each one within a
//! fixed budget, shrink the failing schedule, and the shrunk trace must
//! replay to the *same* failure.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rustwren_sim::sync::Event;
use rustwren_sim::{Kernel, LightStep};
use rustwren_verify::{explore, replay, Budget, Strategy};

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

// ---------------------------------------------------------------------------
// Planted bug: check-then-act counter
// ---------------------------------------------------------------------------

/// Each incrementer reads the counter under the lock, releases it, and
/// writes back `read + 1` under a second acquisition — a lost-update race.
/// `inc0` reads, sleeps 1 ms and writes; `inc1` sleeps 1 ms, then reads and
/// writes. Both wake at the same instant: the FIFO reference run wakes
/// `inc0` first and yields 2, a schedule that picks `inc1`'s timer first
/// yields 1.
fn racy_counter(kernel: Kernel) -> u64 {
    kernel.run("client", || {
        let counter = Arc::new(Mutex::new(0u64));
        let tick = Duration::from_millis(1);
        let workers: Vec<_> = (0..2)
            .map(|i| {
                let counter = Arc::clone(&counter);
                rustwren_sim::spawn(format!("inc{i}"), move || {
                    if i == 1 {
                        rustwren_sim::sleep(tick);
                    }
                    let v = *counter.lock();
                    if i == 0 {
                        rustwren_sim::sleep(tick);
                    }
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

// ---------------------------------------------------------------------------
// Planted bug: a log whose order only the ready queue decides
// ---------------------------------------------------------------------------

/// Two light tasks each push their number to a shared log under a shim
/// lock and fire their own event, in one step with no probe in it, so the
/// order of the log is decided by which ready pusher runs first alone. FIFO
/// yields `[0, 1]`. A follower per pusher waits for that event and fires
/// one the client waits for: after each push another choice point follows,
/// and so two pushes are always adjacent segments the explorer compares.
fn locked_log(kernel: Kernel) -> Vec<u32> {
    let k = kernel.clone();
    kernel.run("client", move || {
        let log = Arc::new(Mutex::new(Vec::new()));
        let events = || (0..2).map(|_| Event::new(&k)).collect::<Vec<_>>();
        let (pushed, followed) = (events(), events());
        for (i, done) in pushed.iter().cloned().enumerate() {
            let log = Arc::clone(&log);
            rustwren_sim::spawn_light(format!("push{i}"), move || {
                log.lock().push(i as u32);
                done.fire();
                LightStep::Done
            });
        }
        for (i, (after, done)) in pushed.iter().zip(&followed).enumerate() {
            let (after, done) = (after.clone(), done.clone());
            let mut waited = false;
            rustwren_sim::spawn_light(format!("follow{i}"), move || {
                if !std::mem::replace(&mut waited, true) {
                    return LightStep::Wait(after.clone());
                }
                done.fire();
                LightStep::Done
            });
        }
        for done in &followed {
            done.wait();
        }
        let order = log.lock().clone();
        order
    })
}

/// The two pushes share only the lock, so the explorer may not prune the
/// reordering as an independent transposition.
#[test]
fn locked_log_order_found_by_bounded_dfs() {
    let report = explore(
        locked_log,
        &Budget::dfs(400, 1).with_label("planted-log-dfs"),
    );
    let failure = report
        .failure
        .expect("bounded-exhaustive search must find the other push order");
    assert_eq!(failure.signature, "result mismatch", "{failure}");
    let replayed = replay(locked_log, &failure.schedule())
        .expect("replaying a result-mismatch schedule must complete");
    assert_eq!(replayed, vec![1, 0]);
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
