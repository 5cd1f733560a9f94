//! CloudSort-style distributed sort — the shuffle-plane benchmark workload.
//!
//! Models a 100 GB sort in the style of the CloudSort benchmark the paper's
//! related work (Locus, Pywren) evaluates against: `maps` input partitions
//! of fixed-width records are range-partitioned by key across `reducers`
//! sorted output ranges. The dataset is *virtual*: each COS object is staged
//! with [`ObjectStore::put_scaled`], so a tiny physical payload advertises
//! the full logical partition size and every read is charged for the real
//! bytes on the simulated network.
//!
//! Each map task "sorts" its partition (virtual compute charged at
//! [`SORT_BYTES_PER_SEC`]) and emits a compressed key histogram: `samples`
//! keyed pairs whose integer weights sum exactly to the partition's record
//! count. Reducers validate their key range and report `{index, count, min,
//! max}`; [`verify`] then checks that ranges are disjoint, ordered, and
//! that no record was lost — a global correctness check that survives any
//! shuffle-plane ablation.

use bytes::Bytes;
use rustwren_core::{DataSource, Executor, ResponseFuture, ShuffleOpts, SimCloud, TaskCtx, Value};
use rustwren_sim::hash::hash2;
use rustwren_sim::task;
use rustwren_store::{ObjectStore, StoreError};
use std::time::Duration;

/// Name of the sort-and-sample map function.
pub const CLOUDSORT_MAP_FN: &str = "cloudsort-map";
/// Name of the range-validating reduce function.
pub const CLOUDSORT_REDUCE_FN: &str = "cloudsort-reduce";
/// Name of the weight-summing map-side combiner.
pub const CLOUDSORT_COMBINE_FN: &str = "cloudsort-combine";

/// Modeled map-side throughput: read + sort one partition, bytes/second.
pub const SORT_BYTES_PER_SEC: f64 = 180.0e6;

/// Fixed record width in bytes: CloudSort defines a record as 100 bytes.
const RECORD_BYTES: u64 = 100;

/// Shape of one CloudSort run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CloudSortConfig {
    /// Number of input partitions (map tasks).
    pub maps: usize,
    /// Number of sorted output ranges (reducers).
    pub reducers: usize,
    /// Total logical dataset size in bytes.
    pub logical_bytes: u64,
    /// Histogram resolution: keyed pairs emitted per map task.
    pub samples_per_map: usize,
    /// Deterministic seed for key synthesis.
    pub seed: u64,
}

impl CloudSortConfig {
    /// The full benchmark: a virtual 100 GB sort, 400 maps x 250 MB.
    pub fn full(seed: u64) -> CloudSortConfig {
        CloudSortConfig {
            maps: 400,
            reducers: 50,
            logical_bytes: 100_000_000_000,
            samples_per_map: 128,
            seed,
        }
    }

    /// A reduced smoke variant: 6 GB over 24 maps and 8 reducers.
    pub fn smoke(seed: u64) -> CloudSortConfig {
        CloudSortConfig {
            maps: 24,
            reducers: 8,
            logical_bytes: 6_000_000_000,
            samples_per_map: 64,
            seed,
        }
    }

    /// Logical bytes per input partition.
    pub fn bytes_per_map(&self) -> u64 {
        self.logical_bytes / self.maps as u64
    }

    /// Records per input partition.
    pub fn records_per_map(&self) -> u64 {
        self.bytes_per_map() / RECORD_BYTES
    }

    /// Total records across the dataset.
    pub fn total_records(&self) -> u64 {
        self.records_per_map() * self.maps as u64
    }
}

/// A synthetic 10-character base-36 sort key, deterministic in
/// `(seed, map, i)`. Fixed width keeps key order byte-lexicographic.
pub fn sort_key(seed: u64, map: usize, i: usize) -> String {
    let mut h = hash2(hash2(seed, map as u64), i as u64);
    let mut out = [0u8; 10];
    for slot in out.iter_mut().rev() {
        let d = (h % 36) as u8;
        *slot = if d < 10 { b'0' + d } else { b'a' + (d - 10) };
        h /= 36;
    }
    out.iter().map(|&b| char::from(b)).collect()
}

/// Regenerates every key a run will emit, client-side, for seeding a
/// range partitioner ([`rustwren_core::Partitioner::range_from_samples`]).
pub fn sample_keys(cfg: &CloudSortConfig) -> Vec<String> {
    let mut keys = Vec::with_capacity(cfg.maps * cfg.samples_per_map);
    for m in 0..cfg.maps {
        for i in 0..cfg.samples_per_map {
            keys.push(sort_key(cfg.seed, m, i));
        }
    }
    keys
}

/// Stages the virtual dataset: one scaled object per input partition in
/// `bucket`, each a tiny descriptor advertised at the full partition size.
///
/// # Errors
///
/// Propagates storage failures while staging the partition descriptors.
pub fn stage(store: &ObjectStore, bucket: &str, cfg: &CloudSortConfig) -> Result<(), StoreError> {
    store.ensure_bucket(bucket);
    for m in 0..cfg.maps {
        let desc = Value::map()
            .with("m", m as i64)
            .with("seed", cfg.seed as i64)
            .with("samples", cfg.samples_per_map as i64)
            .with("records", cfg.records_per_map() as i64);
        store.put_scaled(
            bucket,
            &format!("part-{m:05}"),
            Bytes::from(desc.encode().to_vec()),
            cfg.bytes_per_map(),
        )?;
    }
    Ok(())
}

/// Registers the CloudSort map, reduce and combiner functions on `cloud`.
/// None of them blocks — the map charges its sort as a `task::sleep` — so
/// all three are resumable and a sort's agents never take a thread.
pub fn register(cloud: &SimCloud) {
    cloud.register_resumable_fn(CLOUDSORT_MAP_FN, |ctx: TaskCtx, input: Value| async move {
        let data = input
            .get("data")
            .and_then(Value::as_bytes)
            .ok_or("no data")?;
        let desc = Value::decode(data).map_err(|e| format!("partition descriptor: {e}"))?;
        let m = desc.req_i64("m")? as usize;
        let seed = desc.req_i64("seed")? as u64;
        let samples = desc.req_i64("samples")?.max(1) as usize;
        let records = desc.req_i64("records")?.max(0) as u64;
        // Sorting the partition dominates map-side compute.
        let sort = Duration::from_secs_f64((records * 100) as f64 / SORT_BYTES_PER_SEC);
        task::sleep(ctx.activation().scaled(sort)).await;
        // Histogram: `samples` keys whose weights sum exactly to `records`.
        let base = records / samples as u64;
        let extra = (records % samples as u64) as usize;
        Ok(Value::List(
            (0..samples)
                .map(|i| {
                    let w = base + u64::from(i < extra);
                    Value::map()
                        .with("k", sort_key(seed, m, i))
                        .with("v", w as i64)
                })
                .collect(),
        ))
    });

    cloud.register_resumable_fn(
        CLOUDSORT_COMBINE_FN,
        |_ctx: TaskCtx, input: Value| async move {
            let sum: i64 = input.req_list("vs")?.iter().filter_map(Value::as_i64).sum();
            Ok(Value::Int(sum))
        },
    );

    cloud.register_resumable_fn(
        CLOUDSORT_REDUCE_FN,
        |_ctx: TaskCtx, input: Value| async move {
            let index = input.req_i64("index")?;
            let groups = input
                .get("groups")
                .and_then(Value::as_map)
                .ok_or("groups")?;
            let mut count = 0i64;
            let mut min: Option<&str> = None;
            let mut max: Option<&str> = None;
            for (key, vals) in groups {
                count += vals
                    .as_list()
                    .ok_or("group values")?
                    .iter()
                    .filter_map(Value::as_i64)
                    .sum::<i64>();
                if min.is_none_or(|m| key.as_str() < m) {
                    min = Some(key);
                }
                if max.is_none_or(|m| key.as_str() > m) {
                    max = Some(key);
                }
            }
            Ok(Value::map()
                .with("index", index)
                .with("count", count)
                .with("min", min.unwrap_or(""))
                .with("max", max.unwrap_or("")))
        },
    );
}

/// Submits the sort on `exec` over a staged `bucket`, returning the
/// reducer futures. `opts.reducers` is overridden from `cfg`.
///
/// # Errors
///
/// Any submission error from [`Executor::map_shuffle_reduce`].
pub fn submit(
    exec: &Executor,
    bucket: &str,
    cfg: &CloudSortConfig,
    opts: ShuffleOpts,
) -> rustwren_core::Result<Vec<ResponseFuture>> {
    exec.map_shuffle_reduce(
        CLOUDSORT_MAP_FN,
        DataSource::bucket(bucket),
        CLOUDSORT_REDUCE_FN,
        ShuffleOpts {
            reducers: cfg.reducers,
            chunk_size: None,
            ..opts
        },
    )
}

/// One reducer's validated output range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeReport {
    /// Reducer index.
    pub index: usize,
    /// Records landing in this range.
    pub count: u64,
    /// Smallest key seen (empty if the range got no records).
    pub min: String,
    /// Largest key seen.
    pub max: String,
}

/// Decodes and globally validates the reducer outputs: ranges must come
/// back in index order, consecutive non-empty ranges must not overlap,
/// and the counts must sum to every record in the dataset.
///
/// # Errors
///
/// A description of the first violated invariant.
pub fn verify(results: &[Value], cfg: &CloudSortConfig) -> Result<Vec<RangeReport>, String> {
    let mut reports = Vec::with_capacity(results.len());
    for (i, r) in results.iter().enumerate() {
        let index = r
            .req_i64("index")
            .map_err(|e| format!("reducer {i}: {e}"))? as usize;
        if index != i {
            return Err(format!("reducer {i} reported index {index}"));
        }
        reports.push(RangeReport {
            index,
            count: r
                .req_i64("count")
                .map_err(|e| format!("reducer {i}: {e}"))? as u64,
            min: r
                .req_str("min")
                .map_err(|e| format!("reducer {i}: {e}"))?
                .to_owned(),
            max: r
                .req_str("max")
                .map_err(|e| format!("reducer {i}: {e}"))?
                .to_owned(),
        });
    }
    let mut last_max: Option<&str> = None;
    for rep in &reports {
        if rep.count == 0 {
            continue;
        }
        if rep.min > rep.max {
            return Err(format!(
                "reducer {}: min {} > max {}",
                rep.index, rep.min, rep.max
            ));
        }
        if let Some(prev) = last_max {
            if rep.min.as_str() < prev {
                return Err(format!(
                    "reducer {} range starts at {} before the previous range ended at {prev}",
                    rep.index, rep.min
                ));
            }
        }
        last_max = Some(&rep.max);
    }
    let total: u64 = reports.iter().map(|r| r.count).sum();
    if total != cfg.total_records() {
        return Err(format!(
            "record count mismatch: reducers saw {total}, dataset has {}",
            cfg.total_records()
        ));
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rustwren_core::{ExchangeMode, Partitioner, ShufflePlane};
    use rustwren_sim::NetworkProfile;

    fn sorted_cloud(seed: u64) -> SimCloud {
        SimCloud::builder()
            .seed(seed)
            .client_network(NetworkProfile::lan())
            .build()
    }

    #[test]
    fn keys_are_fixed_width_and_deterministic() {
        let a = sort_key(7, 3, 11);
        let b = sort_key(7, 3, 11);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(a
            .bytes()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
        assert_ne!(sort_key(7, 3, 12), a);
    }

    #[test]
    fn config_accounting_is_exact() {
        let cfg = CloudSortConfig::full(42);
        assert_eq!(cfg.bytes_per_map(), 250_000_000);
        assert_eq!(cfg.records_per_map(), 2_500_000);
        assert_eq!(cfg.total_records(), 1_000_000_000);
        assert_eq!(sample_keys(&cfg).len(), 400 * 128);
    }

    #[test]
    fn end_to_end_sort_verifies_on_the_partitioned_plane() {
        let cfg = CloudSortConfig {
            maps: 6,
            reducers: 4,
            logical_bytes: 60_000_000,
            samples_per_map: 32,
            seed: 9,
        };
        let cloud = sorted_cloud(9);
        register(&cloud);
        stage(cloud.store(), "cloudsort", &cfg).expect("stages");
        let part = Partitioner::range_from_samples(sample_keys(&cfg), cfg.reducers);
        let results = cloud.run(|| {
            let exec = cloud.executor().build()?;
            submit(
                &exec,
                "cloudsort",
                &cfg,
                ShuffleOpts {
                    plane: ShufflePlane::Partitioned,
                    exchange: ExchangeMode::Cos,
                    partitioner: part.clone(),
                    combiner: Some(CLOUDSORT_COMBINE_FN.into()),
                    ..ShuffleOpts::default()
                },
            )?;
            exec.get_result()
        });
        let reports = verify(&results.unwrap(), &cfg).expect("sort invariants hold");
        assert_eq!(reports.len(), cfg.reducers);
    }

    #[test]
    fn verify_catches_lost_records() {
        let cfg = CloudSortConfig::smoke(1);
        let rows: Vec<Value> = (0..cfg.reducers)
            .map(|i| {
                let lo = (b'a' + 2 * i as u8) as char;
                let hi = (b'b' + 2 * i as u8) as char;
                Value::map()
                    .with("index", i as i64)
                    .with("count", 1i64)
                    .with("min", lo.to_string())
                    .with("max", hi.to_string())
            })
            .collect();
        let err = verify(&rows, &cfg).unwrap_err();
        assert!(err.contains("mismatch"), "got: {err}");
    }
}
