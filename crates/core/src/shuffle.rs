//! The partitioned shuffle data plane.
//!
//! §2 of the paper singles out the shuffle as the open challenge of
//! serverless MapReduce. This module holds the machinery of the plane:
//!
//! * [`Partitioner`] — pluggable hash/range key partitioning (range
//!   boundaries come from a sampled key histogram).
//! * [`ShufflePlane`] — the segment layout (one object per *map*, sliced
//!   per reducer, with empty partitions elided and recorded in the map's
//!   status manifest).
//! * [`ExchangeMode`] — how map outputs travel: through COS, the one
//!   exchange.
//! * [`merge_runs`](crate::shuffle::merge_runs) — the reduce side's
//!   streaming multi-round k-way merge with a bounded fan-in.
//!
//! The wire-level write/fetch protocol lives in [`crate::job`]; this
//! module is the pure, separately-testable core.

use crate::wire::Value;

/// Hard ceiling on [`crate::ShuffleOpts::reducers`]: beyond this the
/// per-map partition bookkeeping (and any real platform's request budget)
/// stops making sense, so submission fails fast with a typed
/// [`crate::PywrenError::Config`] instead of melting down mid-run.
pub const MAX_REDUCERS: usize = 100_000;

/// The physical layout the map outputs use in the exchange.
///
/// One variant: the object-per-`(map, reducer)` layout it once selected
/// against is retired (EXPERIMENTS.md, "Retired ablations"). The enum and
/// [`crate::ShuffleOpts::plane`] stay because the frozen `ledger` benchmark
/// source names both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ShufflePlane {
    /// One segment object per *map task*: per-reducer slices are sorted,
    /// optionally combined, individually checksum-stamped and concatenated;
    /// the slice index (offset/length, or the slice inlined whole for tiny
    /// spills) rides in the map's status manifest. Empty partitions are
    /// elided and recorded, so reducers can tell "never written" from
    /// "lost" under chaos.
    #[default]
    Partitioned,
}

/// How map outputs physically travel to reducers.
///
/// One variant, so it selects nothing: the VM relay tier it once selected
/// is retired (EXPERIMENTS.md, "Retired ablations"). The enum and
/// [`crate::ShuffleOpts::exchange`] stay because the frozen `ledger`
/// benchmark source names both; shuffle descriptors still carry
/// `Cos`'s wire value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ExchangeMode {
    /// Stage the exchange through COS (the approach Corral/Lambada take;
    /// the paper's storage-based shuffle).
    #[default]
    Cos,
}

impl ExchangeMode {
    /// Wire discriminator carried in shuffle task descriptors.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ExchangeMode::Cos => "cos",
        }
    }

    /// Decodes [`ExchangeMode::as_str`]: a descriptor must name the one
    /// exchange.
    pub(crate) fn from_wire(s: &str) -> Result<ExchangeMode, String> {
        match s {
            "cos" => Ok(ExchangeMode::Cos),
            other => Err(format!("unknown exchange mode `{other}`")),
        }
    }
}

/// Assigns each shuffle key to a reducer partition.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub enum Partitioner {
    /// Seeded hash of the key bytes — uniform for arbitrary key spaces.
    #[default]
    Hash,
    /// Ordered ranges split at `boundaries` (ascending, `reducers - 1` of
    /// them): reducer `i` owns keys in `[boundaries[i-1], boundaries[i])`,
    /// so concatenating reducer outputs in index order yields a globally
    /// sorted key space — the CloudSort layout.
    Range {
        /// Ascending split points; key `k` goes to the number of
        /// boundaries `<= k`.
        boundaries: Vec<String>,
    },
}

impl Partitioner {
    /// The reducer index for `key` out of `reducers` partitions.
    pub fn bucket_of(&self, key: &str, reducers: usize) -> usize {
        match self {
            Partitioner::Hash => hash_bucket_of(key, reducers),
            Partitioner::Range { boundaries } => boundaries
                .partition_point(|b| b.as_str() <= key)
                .min(reducers.saturating_sub(1)),
        }
    }

    /// Builds a [`Partitioner::Range`] whose boundaries are the
    /// `reducers - 1` quantile cut points of `samples` (a sampled key
    /// histogram): with representative samples, every reducer receives a
    /// near-equal share of the key space.
    pub fn range_from_samples(mut samples: Vec<String>, reducers: usize) -> Partitioner {
        samples.sort();
        let boundaries = (1..reducers)
            .map(|i| {
                if samples.is_empty() {
                    String::new()
                } else {
                    samples[(i * samples.len() / reducers.max(1)).min(samples.len() - 1)].clone()
                }
            })
            .collect();
        Partitioner::Range { boundaries }
    }

    /// Submit-time validation against the job's reducer count.
    ///
    /// # Errors
    ///
    /// A human-readable description of the mismatch (boundary count or
    /// ordering) — the executor wraps it in
    /// [`crate::PywrenError::Config`].
    pub fn validate(&self, reducers: usize) -> Result<(), String> {
        let Partitioner::Range { boundaries } = self else {
            return Ok(());
        };
        if boundaries.len() + 1 != reducers {
            return Err(format!(
                "range partitioner has {} boundary point(s) but the job has {} reducer(s); \
                 expected exactly reducers - 1 = {}",
                boundaries.len(),
                reducers,
                reducers.saturating_sub(1)
            ));
        }
        // lint: allow(L009) — windows(2) yields exactly-2-element slices
        if boundaries.windows(2).any(|w| w[0] > w[1]) {
            return Err("range partitioner boundaries must be ascending".to_owned());
        }
        Ok(())
    }

    /// Wire encoding carried in the `ShuffleMap` task descriptor.
    pub(crate) fn to_value(&self) -> Value {
        match self {
            Partitioner::Hash => Value::Null,
            Partitioner::Range { boundaries } => Value::map().with(
                "range",
                Value::List(boundaries.iter().map(|b| Value::Str(b.clone())).collect()),
            ),
        }
    }

    /// Decodes [`Partitioner::to_value`].
    pub(crate) fn from_value(v: &Value) -> Result<Partitioner, String> {
        match v {
            Value::Null => Ok(Partitioner::Hash),
            v => {
                let bounds = v.req_list("range")?;
                let boundaries = bounds
                    .iter()
                    .map(|b| {
                        b.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| "range boundary must be a string".to_owned())
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Partitioner::Range { boundaries })
            }
        }
    }
}

/// Stable hash-reducer assignment for a shuffle key (FNV-ish fold, then
/// mix) — byte-identical to the seed framework's assignment.
pub(crate) fn hash_bucket_of(key: &str, reducers: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in key.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    (rustwren_sim::hash::mix64(h) % reducers.max(1) as u64) as usize
}

/// Key of one map task's concatenated partition segment (partitioned
/// plane): all non-empty, non-inlined per-reducer slices in one object.
pub(crate) fn segment_key(task_prefix: &str) -> String {
    format!("{task_prefix}/shuffle-seg")
}

/// One map-side shuffle pair: the extracted key plus the original
/// `{"k", "v"}` pair value (kept whole so regrouping is allocation-light).
pub(crate) type KeyedPair = (String, Value);

/// Merges per-dependency sorted runs of `(key, pair)` into one sorted run
/// with at most `fanin` runs open per merge, over as many rounds as that
/// budget needs (the bounded-memory discipline of an external merge sort).
/// Ties are broken by run index, and each run's internal order is
/// preserved, so for any key the merged value order is: run 0's values in
/// emission order, then run 1's, … — the order of a plain dep-order gather.
///
/// Returns the merged run and the number of merge rounds performed.
pub(crate) fn merge_runs<K: AsRef<str>, V>(
    runs: Vec<Vec<(K, V)>>,
    fanin: usize,
) -> (Vec<(K, V)>, usize) {
    let fanin = fanin.max(2);
    let mut runs: Vec<Vec<(K, V)>> = runs.into_iter().filter(|r| !r.is_empty()).collect();
    let mut rounds = 0;
    while runs.len() > 1 {
        rounds += 1;
        let mut next = Vec::with_capacity(runs.len().div_ceil(fanin));
        let mut group: Vec<Vec<(K, V)>> = Vec::with_capacity(fanin);
        for run in runs {
            group.push(run);
            if group.len() == fanin {
                next.push(merge_group(std::mem::take(&mut group)));
            }
        }
        if !group.is_empty() {
            next.push(merge_group(group));
        }
        runs = next;
    }
    (runs.pop().unwrap_or_default(), rounds)
}

/// One k-way merge of up to `fanin` sorted runs (linear head scan — the
/// fan-in is small and bounded, so a heap would be overkill). Equal keys
/// resolve to the lowest run index first. Pairs are moved from run to
/// output: a merge round allocates its output vector and nothing else.
fn merge_group<K: AsRef<str>, V>(group: Vec<Vec<(K, V)>>) -> Vec<(K, V)> {
    let total = group.iter().map(Vec::len).sum();
    // Each run as its head, taken off, and the rest of it.
    let mut runs: Vec<_> = group
        .into_iter()
        .map(|run| {
            let mut rest = run.into_iter();
            (rest.next(), rest)
        })
        .collect();
    let mut out: Vec<(K, V)> = Vec::with_capacity(total);
    loop {
        // `min_by_key` returns the first of equal minima.
        let lowest = runs
            .iter()
            .enumerate()
            .filter_map(|(g, (head, _))| Some((g, head.as_ref()?.0.as_ref())))
            .min_by_key(|&(_, key)| key)
            .map(|(g, _)| g);
        let Some((head, rest)) = lowest.and_then(|g| runs.get_mut(g)) else {
            return out;
        };
        out.extend(std::mem::replace(head, rest.next()));
    }
}

/// Stable sort of one spill by key: equal keys keep their emission order,
/// which [`merge_runs`] then preserves across runs.
pub(crate) fn sort_run(run: &mut [KeyedPair]) {
    run.sort_by(|a, b| a.0.cmp(&b.0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pair(k: &str, v: i64) -> KeyedPair {
        (k.to_owned(), Value::map().with("k", k).with("v", v))
    }

    #[test]
    fn range_partitioner_is_monotone_and_total() {
        let p = Partitioner::Range {
            boundaries: vec!["g".into(), "p".into()],
        };
        assert_eq!(p.bucket_of("apple", 3), 0);
        assert_eq!(p.bucket_of("g", 3), 1); // boundary belongs to the right
        assert_eq!(p.bucket_of("mango", 3), 1);
        assert_eq!(p.bucket_of("zebra", 3), 2);
    }

    #[test]
    fn range_from_samples_balances_quantiles() {
        let samples: Vec<String> = (0..100).map(|i| format!("{i:03}")).collect();
        let p = Partitioner::range_from_samples(samples, 4);
        let Partitioner::Range { boundaries } = &p else {
            panic!("expected range");
        };
        assert_eq!(boundaries.len(), 3);
        assert!(p.validate(4).is_ok());
        let counts: Vec<usize> = (0..4)
            .map(|r| {
                (0..100)
                    .filter(|i| p.bucket_of(&format!("{i:03}"), 4) == r)
                    .count()
            })
            .collect();
        assert!(counts.iter().all(|&c| (20..=30).contains(&c)), "{counts:?}");
    }

    #[test]
    fn partitioner_validate_rejects_mismatch_and_disorder() {
        let p = Partitioner::Range {
            boundaries: vec!["b".into()],
        };
        assert!(p.validate(3).is_err());
        let unsorted = Partitioner::Range {
            boundaries: vec!["z".into(), "a".into()],
        };
        assert!(unsorted.validate(3).is_err());
        assert!(Partitioner::Hash.validate(3).is_ok());
    }

    #[test]
    fn partitioner_wire_roundtrip() {
        for p in [
            Partitioner::Hash,
            Partitioner::Range {
                boundaries: vec!["g".into(), "p".into()],
            },
        ] {
            let v = p.to_value();
            assert_eq!(Partitioner::from_value(&v), Ok(p));
        }
    }

    #[test]
    fn wire_discriminators_roundtrip_and_reject_unknown_values() {
        assert_eq!(
            ExchangeMode::from_wire(ExchangeMode::Cos.as_str()),
            Ok(ExchangeMode::Cos)
        );
        // The retired relay exchange is an unknown value, not a fallback.
        for bad in ["", "relay", "COS"] {
            let err = ExchangeMode::from_wire(bad).expect_err("one exchange");
            assert!(err.contains(&format!("`{bad}`")), "{bad}: {err}");
        }
    }

    #[test]
    fn merge_runs_counts_rounds_under_bounded_fanin() {
        let runs: Vec<Vec<KeyedPair>> = (0..5).map(|r| vec![pair(&format!("k{r}"), r)]).collect();
        let (merged, rounds) = merge_runs(runs.clone(), 2);
        assert_eq!(merged.len(), 5);
        assert_eq!(rounds, 3, "5 runs at fan-in 2: 5 -> 3 -> 2 -> 1");
        let (_, wide_rounds) = merge_runs(runs, 16);
        assert_eq!(wide_rounds, 1);
        let none: Vec<Vec<KeyedPair>> = Vec::new();
        assert_eq!(merge_runs(none, 2), (Vec::new(), 0));
    }

    #[test]
    fn merge_preserves_per_key_run_order() {
        // Equal keys: run 0's values must come out before run 1's, each in
        // emission order — a dep-order gather's exact order.
        let runs = vec![
            vec![pair("a", 1), pair("a", 2), pair("b", 10)],
            vec![pair("a", 3), pair("c", 20)],
            vec![pair("a", 4), pair("b", 11)],
        ];
        let (merged, _) = merge_runs(runs, 2);
        let got: Vec<(String, i64)> = merged
            .iter()
            .map(|(k, p)| (k.clone(), p.get("v").and_then(Value::as_i64).unwrap()))
            .collect();
        assert_eq!(
            got,
            vec![
                ("a".into(), 1),
                ("a".into(), 2),
                ("a".into(), 3),
                ("a".into(), 4),
                ("b".into(), 10),
                ("b".into(), 11),
                ("c".into(), 20),
            ]
        );
    }

    proptest! {
        /// Every key lands in exactly one in-range bucket, for both
        /// partitioners — the partition function is total and covers the
        /// key space exactly once.
        #[test]
        fn prop_partitioners_cover_every_key_exactly_once(
            keys in prop::collection::vec("[a-z]{0,8}", 1..64),
            reducers in 1usize..40,
            cuts in prop::collection::vec("[a-z]{0,8}", 0..8),
        ) {
            let mut boundaries = cuts;
            boundaries.sort();
            let range = Partitioner::Range { boundaries: boundaries.clone() };
            let range_reducers = boundaries.len() + 1;
            for p in [(Partitioner::Hash, reducers), (range, range_reducers)] {
                let (part, n) = p;
                let mut assigned = vec![0usize; keys.len()];
                let mut total = 0usize;
                for r in 0..n {
                    for (i, k) in keys.iter().enumerate() {
                        if part.bucket_of(k, n) == r {
                            assigned[i] += 1;
                            total += 1;
                        }
                    }
                }
                prop_assert_eq!(total, keys.len());
                prop_assert!(assigned.iter().all(|&c| c == 1));
            }
        }

        /// Range partitioning is monotone in the key order: sorting keys
        /// sorts their bucket indices.
        #[test]
        fn prop_range_partitioner_is_monotone(
            keys in prop::collection::vec("[a-z]{1,6}", 2..64),
            cuts in prop::collection::vec("[a-z]{1,6}", 1..6),
        ) {
            let mut boundaries = cuts;
            boundaries.sort();
            let n = boundaries.len() + 1;
            let part = Partitioner::Range { boundaries };
            let mut keys = keys;
            keys.sort();
            let buckets: Vec<usize> = keys.iter().map(|k| part.bucket_of(k, n)).collect();
            prop_assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{:?}", buckets);
        }

        /// Multi-round merging of sorted runs is the stable sort of their
        /// concatenation — by key, then run index, then position in the
        /// run: what a plain dep-order gather followed by a stable sort
        /// produces — whatever the fan-in budget, duplicate keys within and
        /// across runs included.
        #[test]
        fn prop_merge_rounds_are_a_stable_sort_by_key_then_run(
            runs in prop::collection::vec(
                prop::collection::vec(("[a-d]{1,2}", 0i64..1000), 0..12),
                0..20,
            ),
            fanin in 2usize..17,
        ) {
            let runs: Vec<Vec<KeyedPair>> = runs
                .into_iter()
                .map(|r| {
                    let mut run: Vec<KeyedPair> =
                        r.into_iter().map(|(k, v)| pair(&k, v)).collect();
                    sort_run(&mut run);
                    run
                })
                .collect();
            let mut expected = runs.concat();
            expected.sort_by(|a, b| a.0.cmp(&b.0));
            prop_assert_eq!(merge_runs(runs, fanin).0, expected);
        }
    }
}
