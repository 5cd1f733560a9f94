//! Property tests for the virtual-time kernel.

use std::time::Duration;

use proptest::prelude::*;
use rustwren_sim::Kernel;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sequential sleeps on one thread accumulate exactly.
    #[test]
    fn sequential_sleeps_sum(durs in prop::collection::vec(0u64..10_000, 0..20)) {
        let k = Kernel::new();
        let total: u64 = durs.iter().sum();
        k.run("client", || {
            for &d in &durs {
                rustwren_sim::sleep(Duration::from_micros(d));
            }
            prop_assert_eq!(rustwren_sim::now().as_nanos(), total * 1_000);
            Ok(())
        })?;
    }

    /// N parallel sleepers finish at the maximum duration, never the sum.
    #[test]
    fn parallel_sleeps_take_max(durs in prop::collection::vec(1u64..50_000, 1..40)) {
        let k = Kernel::new();
        let max = *durs.iter().max().expect("non-empty");
        k.run("client", || {
            let hs: Vec<_> = durs
                .iter()
                .enumerate()
                .map(|(i, &d)| {
                    rustwren_sim::spawn(format!("t{i}"), move || {
                        rustwren_sim::sleep(Duration::from_micros(d));
                        rustwren_sim::now().as_nanos()
                    })
                })
                .collect();
            for (h, &d) in hs.into_iter().zip(&durs) {
                prop_assert_eq!(h.join(), d * 1_000);
            }
            prop_assert_eq!(rustwren_sim::now().as_nanos(), max * 1_000);
            Ok(())
        })?;
    }

    /// The clock observed by any thread never goes backwards.
    #[test]
    fn clock_is_monotone(durs in prop::collection::vec(0u64..5_000, 1..30)) {
        let k = Kernel::new();
        k.run("client", || {
            let mut last = rustwren_sim::now();
            for (i, &d) in durs.iter().enumerate() {
                if i % 3 == 0 {
                    let h = rustwren_sim::spawn(format!("s{i}"), move || {
                        rustwren_sim::sleep(Duration::from_micros(d));
                    });
                    h.join();
                } else {
                    rustwren_sim::sleep(Duration::from_micros(d));
                }
                let now = rustwren_sim::now();
                prop_assert!(now >= last);
                last = now;
            }
            Ok(())
        })?;
    }
}
