//! Parallel mergesort via nested composition (the paper's §4.4 and Fig 4).
//!
//! The paper parallelizes mergesort by spawning a new function only every
//! few recursion levels: with depth `d`, the recursion tree of function
//! invocations has `2^d` leaves, each sorting `N / 2^d` numbers locally,
//! and internal functions merge their children's outputs. This module
//! registers exactly that recursive function: a node with `depth > 0` uses
//! [`rustwren_core::TaskCtx::executor`] to map two child invocations —
//! dynamic nested parallelism — and merges the results.
//!
//! The integers are generated deterministically inside the leaves (seeded),
//! really sorted, and really merged; the *virtual* cost of generation,
//! sorting and merging is charged at Python-like rates so Fig 4's absolute
//! numbers land in the paper's regime.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rustwren_core::{GetResultOpts, SimCloud, TaskCtx, Value};
use rustwren_sim::task;

/// Name of the registered recursive sort function.
pub const MERGESORT_FN: &str = "mergesort";

/// Modeled element-generation rate (elements/second).
pub const GEN_RATE: f64 = 5.0e6;
/// Modeled comparison rate for local sorting (comparisons/second),
/// Python-like.
pub const SORT_CMP_RATE: f64 = 5.0e6;
/// Modeled merge rate (elements/second).
pub const MERGE_RATE: f64 = 1.0e7;

/// Builds the input value for a mergesort invocation.
pub fn input(seed: u64, n: u64, depth: u32) -> Value {
    Value::map()
        .with("seed", seed as i64)
        .with("n", n as i64)
        .with("depth", i64::from(depth))
}

/// Registers the mergesort function on `cloud`. It charges time and
/// composes by awaiting, so it is resumable: a tree of any depth runs
/// without an OS thread.
pub fn register(cloud: &SimCloud) {
    cloud.register_resumable_fn(MERGESORT_FN, |ctx: TaskCtx, v: Value| async move {
        let seed = v.req_i64("seed")? as u64;
        let n = field(&v, "n")?;
        let depth = field(&v, "depth")?;
        let sorted = sort_node(&ctx, seed, n, depth).await?;
        Ok(Value::bytes(encode_i64s(&sorted)))
    });
}

/// The integer field `name` of `v`, in `T`'s range.
fn field<T: TryFrom<i64>>(v: &Value, name: &str) -> Result<T, String> {
    let x = v.req_i64(name)?;
    T::try_from(x).map_err(|_| format!("field `{name}` is out of range: {x}"))
}

async fn sort_node(ctx: &TaskCtx, seed: u64, n: u64, depth: u32) -> Result<Vec<i64>, String> {
    if depth == 0 || n < 2 {
        // Leaf: generate the segment and sort it locally.
        let data = generate(seed, n as usize);
        let generating = Duration::from_secs_f64(n as f64 / GEN_RATE);
        task::sleep(ctx.activation().scaled(generating)).await;
        let mut data = data;
        data.sort_unstable();
        let comparisons = n as f64 * (n.max(2) as f64).log2();
        let sorting = Duration::from_secs_f64(comparisons / SORT_CMP_RATE);
        task::sleep(ctx.activation().scaled(sorting)).await;
        return Ok(data);
    }
    // Internal node: nested parallelism — two child invocations.
    let left_n = n / 2;
    let right_n = n - left_n;
    let exec = ctx.executor().map_err(|e| e.to_string())?;
    let futures = exec
        .map_async(
            MERGESORT_FN,
            [
                input(seed.wrapping_mul(2).wrapping_add(1), left_n, depth - 1),
                input(seed.wrapping_mul(2).wrapping_add(2), right_n, depth - 1),
            ],
        )
        .await
        .map_err(|e| e.to_string())?;
    let results = exec
        .resolve_async(&futures, &GetResultOpts::default())
        .await
        .map_err(|e| e.to_string())?;
    let left = decode_i64s(
        results[0]
            .as_bytes()
            .ok_or("left child returned non-bytes")?,
    );
    let right = decode_i64s(
        results[1]
            .as_bytes()
            .ok_or("right child returned non-bytes")?,
    );
    let merging = Duration::from_secs_f64(n as f64 / MERGE_RATE);
    task::sleep(ctx.activation().scaled(merging)).await;
    Ok(merge(left, right))
}

/// Deterministic input segment for a leaf.
pub fn generate(seed: u64, n: usize) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
}

/// Standard two-way merge of sorted runs.
pub fn merge(left: Vec<i64>, right: Vec<i64>) -> Vec<i64> {
    let mut out = Vec::with_capacity(left.len() + right.len());
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        if left[i] <= right[j] {
            out.push(left[i]);
            i += 1;
        } else {
            out.push(right[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&left[i..]);
    out.extend_from_slice(&right[j..]);
    out
}

/// Packs integers little-endian for the wire.
pub fn encode_i64s(data: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 8);
    for x in data {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Unpacks integers packed by [`encode_i64s`]; ignores trailing partial
/// words.
pub fn decode_i64s(data: &[u8]) -> Vec<i64> {
    data.chunks_exact(8)
        .map(|c| {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            i64::from_le_bytes(word)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_interleaves_sorted_runs() {
        assert_eq!(
            merge(vec![1, 3, 5], vec![2, 3, 6, 9]),
            vec![1, 2, 3, 3, 5, 6, 9]
        );
        assert_eq!(merge(vec![], vec![1]), vec![1]);
        assert_eq!(merge(vec![1], vec![]), vec![1]);
    }

    #[test]
    fn codec_roundtrips() {
        let data = vec![i64::MIN, -1, 0, 7, i64::MAX];
        assert_eq!(decode_i64s(&encode_i64s(&data)), data);
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate(9, 100), generate(9, 100));
        assert_ne!(generate(9, 100), generate(10, 100));
    }

    /// What a tree of `depth` sorts: children get seeds `2s+1` and `2s+2`
    /// and split `n` as `n/2` and `n - n/2`; the leaves' `generate` outputs,
    /// concatenated and sorted.
    fn reference(seed: u64, n: u64, depth: u32) -> Vec<i64> {
        fn leaves(seed: u64, n: u64, depth: u32, out: &mut Vec<i64>) {
            if depth == 0 || n < 2 {
                out.extend(generate(seed, n as usize));
                return;
            }
            leaves(2 * seed + 1, n / 2, depth - 1, out);
            leaves(2 * seed + 2, n - n / 2, depth - 1, out);
        }
        let mut out = Vec::new();
        leaves(seed, n, depth, &mut out);
        out.sort_unstable();
        out
    }

    fn lan_cloud() -> SimCloud {
        let cloud = SimCloud::builder()
            .seed(3)
            .client_network(rustwren_sim::NetworkProfile::lan())
            .build();
        register(&cloud);
        cloud
    }

    #[test]
    fn end_to_end_sorts_at_every_depth() {
        for depth in 0..=2u32 {
            let cloud = lan_cloud();
            let result = cloud.run(|| {
                let exec = cloud.executor().build().unwrap();
                exec.call_async(MERGESORT_FN, input(1, 500, depth)).unwrap();
                exec.get_result().unwrap()
            });
            let sorted = decode_i64s(result[0].as_bytes().expect("bytes result"));
            assert_eq!(sorted, reference(1, 500, depth), "depth {depth}");
        }
    }

    /// A negative size or depth is the task's error, naming the field,
    /// before any child activation starts.
    #[test]
    fn negative_fields_are_task_errors() {
        for (n, depth, field) in [(-1, 0, "n"), (-1, 2, "n"), (500, -1, "depth")] {
            let cloud = lan_cloud();
            let bad = Value::map()
                .with("seed", 1i64)
                .with("n", n)
                .with("depth", depth);
            let err = cloud.run(|| {
                let exec = cloud.executor().build().unwrap();
                exec.call_async(MERGESORT_FN, bad).unwrap();
                exec.get_result().unwrap_err()
            });
            let err = err.to_string();
            assert!(err.contains(&format!("field `{field}`")), "{err}");
            assert_eq!(cloud.functions().records().len(), 1, "n {n}, depth {depth}");
        }
    }
}
