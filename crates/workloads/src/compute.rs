//! Compute-bound tasks for the spawning/elasticity experiments (§6.1–§6.2).
//!
//! The paper's Figs 2–3 run "an arbitrary compute-bound task" of 50–60
//! seconds per function. This registers exactly that: a function that
//! charges a requested amount of modeled CPU time (scaled by its
//! container's speed factor, producing Fig 3's execution-time spread).

use std::time::Duration;

use rustwren_core::{SimCloud, TaskCtx, Value};
use rustwren_sim::task;

/// Name of the registered compute-bound function.
pub const COMPUTE_FN: &str = "compute-task";

/// Builds the input for a compute task of `secs` modeled seconds.
pub fn input(secs: f64) -> Value {
    Value::map().with("secs", secs)
}

/// Registers the compute-bound function on `cloud`. It only charges time,
/// so it is resumable: a fan-out of these never starts an OS thread.
pub fn register(cloud: &SimCloud) {
    cloud.register_resumable_fn(COMPUTE_FN, |ctx: TaskCtx, v: Value| async move {
        let secs = v
            .get("secs")
            .and_then(Value::as_f64)
            .ok_or("missing or non-float field `secs`")?;
        if !(0.0..=86_400.0).contains(&secs) {
            return Err(format!("unreasonable task duration: {secs}s"));
        }
        // `ctx.charge`, as resumable code.
        task::sleep(ctx.activation().scaled(Duration::from_secs_f64(secs))).await;
        Ok(Value::Float(secs))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rustwren_sim::NetworkProfile;

    #[test]
    fn compute_task_takes_modeled_time() {
        let cloud = SimCloud::builder()
            .seed(1)
            .client_network(NetworkProfile::lan())
            .build();
        register(&cloud);
        let cloud2 = cloud.clone();
        cloud.run(move || {
            let exec = cloud2.executor().build().unwrap();
            exec.map(COMPUTE_FN, vec![input(50.0)]).unwrap();
            exec.get_result().unwrap();
            let elapsed = rustwren_sim::now().as_secs_f64();
            // ~50s of compute plus start/poll overheads, modulated by the
            // container speed factor.
            assert!((40.0..80.0).contains(&elapsed), "elapsed {elapsed}");
        });
    }

    #[test]
    fn negative_duration_is_rejected() {
        let cloud = SimCloud::builder()
            .seed(1)
            .client_network(NetworkProfile::lan())
            .build();
        register(&cloud);
        let cloud2 = cloud.clone();
        cloud.run(move || {
            let exec = cloud2.executor().build().unwrap();
            exec.map(COMPUTE_FN, vec![input(-3.0)]).unwrap();
            assert!(exec.get_result().is_err());
        });
    }
}
