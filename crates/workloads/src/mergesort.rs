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
        Ok(Value::bytes(sort_node(&ctx, seed, n, depth).await?))
    });
}

/// The integer field `name` of `v`, in `T`'s range.
fn field<T: TryFrom<i64>>(v: &Value, name: &str) -> Result<T, String> {
    let x = v.req_i64(name)?;
    T::try_from(x).map_err(|_| format!("field `{name}` is out of range: {x}"))
}

/// The node's sorted run, encoded as [`encode_i64s`] writes it.
async fn sort_node(ctx: &TaskCtx, seed: u64, n: u64, depth: u32) -> Result<Vec<u8>, String> {
    if depth == 0 || n < 2 {
        // Leaf: generate the segment and sort it locally.
        let mut data = generate(seed, n as usize);
        let generating = Duration::from_secs_f64(n as f64 / GEN_RATE);
        task::sleep(ctx.activation().scaled(generating)).await;
        data.sort_unstable();
        let comparisons = n as f64 * (n.max(2) as f64).log2();
        let sorting = Duration::from_secs_f64(comparisons / SORT_CMP_RATE);
        task::sleep(ctx.activation().scaled(sorting)).await;
        return Ok(encode_i64s(&data));
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
    let run = |i: usize, side: &str| {
        results
            .get(i)
            .and_then(Value::as_bytes)
            .ok_or_else(|| format!("{side} child returned non-bytes"))
    };
    let merged = merge_runs(run(0, "left")?, run(1, "right")?);
    // Free the children's runs now, not after the merge's modeled time,
    // while the rest of the tree still runs.
    drop(results);
    let merging = Duration::from_secs_f64(n as f64 / MERGE_RATE);
    task::sleep(ctx.activation().scaled(merging)).await;
    Ok(merged)
}

/// Deterministic input segment for a leaf.
pub fn generate(seed: u64, n: usize) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
}

/// Two-way merge of runs sorted by `value` without a data-dependent
/// branch: each step copies the smaller head and advances its run by the
/// comparison's result. On ties the left run goes first.
fn merge_words<W: Copy>(left: &[W], right: &[W], value: impl Fn(W) -> i64) -> Vec<W> {
    let mut out = Vec::with_capacity(left.len() + right.len());
    let (mut i, mut j) = (0, 0);
    while let (Some(&l), Some(&r)) = (left.get(i), right.get(j)) {
        let right_first = value(r) < value(l);
        out.push(if right_first { r } else { l });
        i += usize::from(!right_first);
        j += usize::from(right_first);
    }
    out.extend_from_slice(left.get(i..).unwrap_or_default());
    out.extend_from_slice(right.get(j..).unwrap_or_default());
    out
}

/// Merges two runs encoded by [`encode_i64s`] into one, word by word; a
/// trailing partial word of either run is dropped.
fn merge_runs(left: &[u8], right: &[u8]) -> Vec<u8> {
    let (left, right) = (left.as_chunks::<8>().0, right.as_chunks::<8>().0);
    merge_words(left, right, i64::from_le_bytes).into_flattened()
}

/// Standard two-way merge of sorted runs; on ties the left run goes first.
pub fn merge(left: Vec<i64>, right: Vec<i64>) -> Vec<i64> {
    merge_words(&left, &right, |x| x)
}

/// Packs integers little-endian for the wire.
pub fn encode_i64s(data: &[i64]) -> Vec<u8> {
    data.iter()
        .map(|x| x.to_le_bytes())
        .collect::<Vec<_>>()
        .into_flattened()
}

/// Unpacks integers packed by [`encode_i64s`]; ignores trailing partial
/// words.
pub fn decode_i64s(data: &[u8]) -> Vec<i64> {
    data.as_chunks::<8>()
        .0
        .iter()
        .map(|&w| i64::from_le_bytes(w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The branchy merge the kernel replaced: the reference it must equal.
    fn merge_reference(left: Vec<i64>, right: Vec<i64>) -> Vec<i64> {
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

    #[test]
    fn merge_interleaves_sorted_runs() {
        assert_eq!(
            merge(vec![1, 3, 5], vec![2, 3, 6, 9]),
            vec![1, 2, 3, 3, 5, 6, 9]
        );
        assert_eq!(merge(vec![], vec![1]), vec![1]);
        assert_eq!(merge(vec![1], vec![]), vec![1]);
    }

    /// Words that remember which run they came from tell a tie's order.
    #[test]
    fn ties_take_the_left_run_first() {
        let left = [(1, 'l'), (2, 'l')];
        let right = [(1, 'r'), (2, 'r')];
        assert_eq!(
            merge_words(&left, &right, |(v, _)| v),
            [(1, 'l'), (1, 'r'), (2, 'l'), (2, 'r')]
        );
    }

    #[test]
    fn encoded_merge_handles_extremes_and_partial_words() {
        let l = encode_i64s(&[i64::MIN, 0, 0, i64::MAX]);
        let r = encode_i64s(&[i64::MIN, 0, i64::MAX, i64::MAX]);
        assert_eq!(
            decode_i64s(&merge_runs(&l, &r)),
            [i64::MIN, i64::MIN, 0, 0, 0, i64::MAX, i64::MAX, i64::MAX]
        );
        assert!(merge_runs(&[], &[]).is_empty());
        assert_eq!(merge_runs(&l, &[]), l);
        assert_eq!(merge_runs(&[], &r), r);
        let mut partial = encode_i64s(&[-3, 4]);
        partial.extend_from_slice(&[0xff; 5]);
        assert_eq!(decode_i64s(&merge_runs(&partial, &[1, 2, 3])), [-3, 4]);
    }

    /// Sorted runs drawn around a few shared values and the extremes, so
    /// that ties across the two runs are common.
    fn sorted_run() -> impl Strategy<Value = Vec<i64>> {
        let word = prop_oneof![any::<i64>(), -3i64..4, Just(i64::MIN), Just(i64::MAX)];
        prop::collection::vec(word, 0..40).prop_map(|mut v| {
            v.sort_unstable();
            v
        })
    }

    proptest! {
        /// The encoded merge equals decoding both runs, merging them with
        /// the branchy reference and encoding the result; a trailing
        /// partial word of either run is dropped, as `decode_i64s` drops it.
        #[test]
        fn prop_encoded_merge_equals_the_reference(
            left in sorted_run(),
            right in sorted_run(),
            left_tail in 0usize..8,
            right_tail in 0usize..8,
        ) {
            let mut l = encode_i64s(&left);
            l.extend(std::iter::repeat_n(0xa5, left_tail));
            let mut r = encode_i64s(&right);
            r.extend(std::iter::repeat_n(0x5a, right_tail));
            let want = encode_i64s(&merge_reference(decode_i64s(&l), decode_i64s(&r)));
            prop_assert_eq!(merge_runs(&l, &r), want);
            prop_assert_eq!(merge(left.clone(), right.clone()), merge_reference(left, right));
        }
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
