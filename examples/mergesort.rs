//! Nested parallelism (§4.4, Fig 4): mergesort over cloud functions.
//!
//! A single `call_async` starts the root function; with depth 2 it spawns
//! two children, each of which spawns two more — dynamic composition with
//! no predeployment, the tree managed entirely by user code.
//!
//! Run: `cargo run --release --example mergesort`

use rustwren::core::{JobPlan, SimCloud};
use rustwren::sim::NetworkProfile;
use rustwren::workloads::mergesort;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: u64 = 200_000;
    let cloud = SimCloud::builder()
        .seed(9)
        .client_network(NetworkProfile::wan())
        .build();
    mergesort::register(&cloud);

    for depth in 0..=2u32 {
        let cloud2 = cloud.clone();
        let (sorted_len, first, last, secs) = cloud.run(move || {
            let t0 = rustwren::sim::now();
            let exec = cloud2.executor().build().expect("executor");
            exec.call_async(mergesort::MERGESORT_FN, mergesort::input(1, n, depth))
                .expect("call_async");
            let results = exec.get_result().expect("results");
            let sorted = mergesort::decode_i64s(results[0].as_bytes().expect("bytes result"));
            assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
            let secs = (rustwren::sim::now() - t0).as_secs_f64();
            (
                sorted.len(),
                sorted[0],
                *sorted.last().expect("non-empty"),
                secs,
            )
        });
        let functions = 2u32.pow(depth + 1) - 1;
        println!(
            "depth {depth}: sorted {sorted_len} ints ({first}..{last}) with {functions:>2} \
             function(s) in {secs:6.1}s of virtual time"
        );
    }
    println!("\n(deeper trees parallelize the sort; the paper's Fig 4 sweeps N to 25M, d to 4 —");
    println!(
        " run `cargo run --release -p rustwren-bench --bin reproduce -- fig4` for the full figure)"
    );

    // What-if analysis: a depth-11 tree would put 2^11 - 1 = 2047 blocking
    // parents against the namespace concurrency limit of 1,000 — a
    // self-deadlock. The pre-flight analyzer proves it from the plan alone,
    // without invoking (and wedging) anything.
    let cloud2 = cloud.clone();
    let diagnostics = cloud.run(move || {
        let exec = cloud2.executor().build().expect("executor");
        let mut doomed = JobPlan::new(mergesort::MERGESORT_FN, 1);
        doomed.nesting_depth = 11;
        doomed.nested_fanout = 2;
        exec.analyze_plan(&doomed)
    });
    println!("\nwhat the analyzer says about a depth-11 mergesort:");
    for d in &diagnostics {
        println!("[rustwren-analyze] {d}");
    }
    Ok(())
}
