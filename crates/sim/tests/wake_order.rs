//! Wake-order determinism: `Event::fire` releases waiters in arrival
//! order.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rustwren_sim::sync::Event;
use rustwren_sim::Kernel;

#[test]
fn event_fire_releases_waiters_in_arrival_order() {
    let kernel = Kernel::new();
    kernel.run("client", || {
        let ev = Event::new(&rustwren_sim::kernel());
        let log = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..5u64)
            .map(|i| {
                let ev = ev.clone();
                let log = Arc::clone(&log);
                rustwren_sim::spawn(format!("w{i}"), move || {
                    rustwren_sim::sleep(Duration::from_millis(i + 1));
                    ev.wait();
                    log.lock().push(i);
                })
            })
            .collect();
        rustwren_sim::sleep(Duration::from_secs(1));
        ev.fire();
        for h in handles {
            h.join();
        }
        // Under the default FIFO scheduler, run order equals the order the
        // fire released the waiters: their arrival order.
        assert_eq!(*log.lock(), vec![0, 1, 2, 3, 4]);
    });
}
