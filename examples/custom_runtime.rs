//! Custom Docker runtimes (§3.1): build, share, select.
//!
//! The paper highlights that — unlike AWS Lambda — users can build their
//! own runtime image (e.g. Python plus matplotlib), push it to the Docker
//! hub registry, share it with colleagues, and select it per executor
//! (`pw.ibm_cf_executor(runtime='matplotlib')`). This example does exactly
//! that: Alice publishes a matplotlib image, Bob's executor runs a plotting
//! function inside it, and the first invocation visibly pays the image
//! pull + cold start.
//!
//! Run: `cargo run --example custom_runtime`

use rustwren::core::{SimCloud, TaskCtx, Value};
use rustwren::faas::RuntimeImage;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cloud = SimCloud::builder().seed(3).build();

    // Alice builds a custom image with matplotlib and pushes it to the
    // shared registry (Docker Hub in the paper).
    cloud.functions().registry().push(
        RuntimeImage::new("alice/python-matplotlib:1", 460 << 20)
            .with_package("matplotlib")
            .with_package("numpy"),
    );

    // The function checks its runtime actually bundles matplotlib.
    cloud.register_fn("plot_histogram", |ctx: &TaskCtx, v: Value| {
        let runtime = &ctx
            .cloud()
            .functions()
            .registry()
            .try_get("alice/python-matplotlib:1")
            .map_err(|_| "registry busy")?
            .ok_or("runtime image disappeared")?;
        if !runtime.has_package("matplotlib") {
            return Err("matplotlib not available in this runtime".into());
        }
        let n = v.as_i64().ok_or("expected sample count")?;
        ctx.charge(std::time::Duration::from_millis(200)); // plt.savefig()
        Ok(Value::Str(format!("histogram-of-{n}-samples.png")))
    });

    // Bob selects Alice's shared runtime for his executor.
    let results = cloud.run(|| -> rustwren::core::Result<Vec<Value>> {
        let exec = cloud
            .executor()
            .runtime("alice/python-matplotlib:1")
            .build()?;
        exec.map(
            "plot_histogram",
            [Value::Int(100), Value::Int(1_000), Value::Int(10_000)],
        )?;
        exec.get_result()
    })?;

    for r in &results {
        println!("rendered: {}", r.as_str().unwrap_or("?"));
    }

    let stats = cloud.functions().stats();
    println!(
        "\nimage pulls: {} (the 460 MB image is cached per worker after the first pull)",
        stats.image_pulls
    );
    println!(
        "cold starts: {}, warm starts: {}",
        stats.cold_starts, stats.warm_starts
    );

    // Selecting a runtime nobody pushed fails fast:
    let err = cloud.run(|| cloud.executor().runtime("ghost:1").build().unwrap_err());
    println!("\nselecting an unpublished runtime: {err}");
    Ok(())
}
