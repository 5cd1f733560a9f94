//! Data discovery and partitioning (§4.3 of the paper).
//!
//! `map_reduce()` accepts either explicit object keys or whole buckets. For
//! buckets, a *discovery* pass (HEAD on the bucket + LIST) enumerates the
//! objects; the *partitioner* then splits each object into byte-range
//! partitions from a configurable chunk size — or one partition per object
//! when no chunk size is given ("data object granularity").
//!
//! Partition boundaries are expressed in **logical** bytes (see
//! [`rustwren_store::ObjectMeta::logical_size`]) and aligned to line breaks
//! at read time with the Hadoop rule: a line belongs to the partition in
//! which it *starts*; readers skip the partial first line (unless at offset
//! 0) and read through the end of the line straddling their upper boundary.

use bytes::Bytes;
use rustwren_store::{CosClient, ObjectMeta, StoreError};

use crate::error::{PywrenError, Result};
use crate::wire::{Value, Writer};

/// Extra bytes fetched past a partition boundary while hunting for the
/// aligning newline; reads extend in further steps of this size if a single
/// record is longer.
const ALIGN_SLACK: u64 = 256 * 1024;

/// A reference to one stored object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectRef {
    /// Bucket name.
    pub bucket: String,
    /// Object key.
    pub key: String,
}

impl ObjectRef {
    /// Creates a reference.
    pub fn new(bucket: impl Into<String>, key: impl Into<String>) -> ObjectRef {
        ObjectRef {
            bucket: bucket.into(),
            key: key.into(),
        }
    }
}

/// What a `map` / `map_reduce` call iterates over.
#[derive(Debug, Clone, PartialEq)]
pub enum DataSource {
    /// In-memory values, one task each (the plain `map()` path).
    Values(Vec<Value>),
    /// Explicit object keys; discovery HEADs each one.
    Keys(Vec<ObjectRef>),
    /// Whole buckets; discovery LISTs them (§4.3's automatic mode).
    Buckets(Vec<String>),
}

impl DataSource {
    /// Convenience constructor for a single bucket.
    pub fn bucket(name: impl Into<String>) -> DataSource {
        DataSource::Buckets(vec![name.into()])
    }
}

/// An object found by discovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveredObject {
    /// Bucket the object lives in.
    pub bucket: String,
    /// Its metadata (including logical size).
    pub meta: ObjectMeta,
}

/// One byte-range partition of one object (logical offsets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Bucket of the source object.
    pub bucket: String,
    /// Key of the source object.
    pub key: String,
    /// Logical start offset (inclusive).
    pub start: u64,
    /// Logical end offset (exclusive).
    pub end: u64,
    /// Index of this partition within the whole job.
    pub index: usize,
}

impl Partition {
    /// Logical bytes covered by this partition.
    pub fn logical_len(&self) -> u64 {
        self.end - self.start
    }

    /// Encodes the partition descriptor for the agent payload.
    pub fn to_value(&self) -> Value {
        Value::map()
            .with("bucket", self.bucket.as_str())
            .with("key", self.key.as_str())
            .with("start", self.start as i64)
            .with("end", self.end as i64)
            .with("index", self.index as i64)
    }

    /// Writes [`to_value`](Partition::to_value)'s map, field by field.
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        let mut fields = w.map_header(5);
        fields.key("bucket").str(&self.bucket);
        fields.key("end").int(self.end as i64);
        fields.key("index").int(self.index as i64);
        fields.key("key").str(&self.key);
        fields.key("start").int(self.start as i64);
    }

    /// Decodes a partition descriptor.
    ///
    /// # Errors
    ///
    /// A message naming the malformed field: missing fields, negative
    /// offsets/index, or `end < start`.
    pub fn from_value(v: &Value) -> std::result::Result<Partition, String> {
        let (start, end): (u64, u64) = (v.req_int("start")?, v.req_int("end")?);
        if end < start {
            return Err(format!("partition end {end} precedes start {start}"));
        }
        let index = v.req_int("index")?;
        Ok(Partition {
            bucket: v.req_str("bucket")?.to_owned(),
            key: v.req_str("key")?.to_owned(),
            start,
            end,
            index,
        })
    }
}

/// Discovers the objects behind a data source (HEAD/LIST requests, charged
/// to `cos`'s network).
///
/// # Errors
///
/// Storage errors, or [`PywrenError::EmptyDataSource`] if nothing matched.
/// `DataSource::Values` is rejected here — it does not name objects.
pub fn discover(cos: &CosClient, source: &DataSource) -> Result<Vec<DiscoveredObject>> {
    let mut objects = Vec::new();
    match source {
        DataSource::Values(_) => {
            return Err(PywrenError::EmptyDataSource(
                "DataSource::Values carries no storage objects".to_owned(),
            ))
        }
        DataSource::Keys(refs) => {
            for r in refs {
                let meta = cos.head(&r.bucket, &r.key)?;
                objects.push(DiscoveredObject {
                    bucket: r.bucket.clone(),
                    meta,
                });
            }
        }
        DataSource::Buckets(buckets) => {
            for bucket in buckets {
                // The paper describes a HEAD over each bucket to obtain the
                // information needed for the execution, then enumeration.
                let _ = cos.head_bucket(bucket)?;
                for meta in cos.list(bucket, "")? {
                    objects.push(DiscoveredObject {
                        bucket: bucket.clone(),
                        meta,
                    });
                }
            }
        }
    }
    if objects.is_empty() {
        return Err(PywrenError::EmptyDataSource(format!("{source:?}")));
    }
    Ok(objects)
}

/// Splits discovered objects into partitions.
///
/// With `chunk_size = Some(c)`, each object is split into
/// `ceil(logical_size / c)` ranges — *per object*, which is why the paper's
/// Table 3 executor counts do not double when the chunk halves. With `None`,
/// one partition per object (object granularity).
///
/// # Errors
///
/// [`PywrenError::Config`] if `chunk_size` is `Some(0)`.
pub fn partition_objects(
    objects: &[DiscoveredObject],
    chunk_size: Option<u64>,
) -> Result<Vec<Partition>> {
    if let Some(0) = chunk_size {
        return Err(PywrenError::Config("chunk_size must be non-zero".into()));
    }
    let mut parts = Vec::new();
    for obj in objects {
        let size = obj.meta.logical_size;
        match chunk_size {
            None => parts.push(Partition {
                bucket: obj.bucket.clone(),
                key: obj.meta.key.clone(),
                start: 0,
                end: size,
                index: parts.len(),
            }),
            Some(c) => {
                let mut start = 0;
                loop {
                    let end = (start + c).min(size);
                    parts.push(Partition {
                        bucket: obj.bucket.clone(),
                        key: obj.meta.key.clone(),
                        start,
                        end,
                        index: parts.len(),
                    });
                    if end >= size {
                        break;
                    }
                    start = end;
                }
            }
        }
    }
    Ok(parts)
}

/// Fetches a partition's payload, aligned to line boundaries (the function
/// executor side of §4.3). Returns the physical bytes the partition owns.
/// Resumable: what the agent awaits, on either vehicle.
///
/// # Errors
///
/// Storage errors from the ranged reads.
pub async fn read_aligned_async(cos: &CosClient, part: &Partition) -> Result<Bytes> {
    let meta = cos.head_async(&part.bucket, &part.key).await?;
    let size = meta.size;
    if size == 0 {
        return Ok(Bytes::new());
    }
    let ps = meta.logical_to_physical(part.start);
    let pe = meta.logical_to_physical(part.end);
    if ps >= size {
        return Ok(Bytes::new());
    }

    // Fetch from one byte before the start so we can detect a line boundary
    // exactly at `ps`.
    let fetch_start = ps.saturating_sub(1);
    let mut fetch_end = (pe + ALIGN_SLACK).min(size);
    let mut raw = cos
        .get_range_async(&part.bucket, &part.key, fetch_start, fetch_end)
        .await?;

    // begin: offset 0 owns its first line; otherwise skip the partial line —
    // the first newline at absolute position >= ps - 1 ends it.
    let begin_abs = if ps == 0 {
        0
    } else {
        match find_newline(&raw, 0) {
            Some(i) => fetch_start + i as u64 + 1,
            None => {
                // The record straddles the entire fetched window; this
                // partition owns nothing (its line started earlier).
                extend_to_newline(cos, part, &mut raw, fetch_start, &mut fetch_end, size)
                    .await?
                    .map_or(size, |abs| abs + 1)
            }
        }
    };

    // end: the partition owns every line starting before pe, so it extends
    // to the first newline at absolute position >= pe - 1 (or EOF).
    let end_abs = if pe >= size {
        size
    } else {
        let from = (pe - 1).saturating_sub(fetch_start) as usize;
        match find_newline(&raw, from) {
            Some(i) => fetch_start + i as u64 + 1,
            None => extend_to_newline(cos, part, &mut raw, fetch_start, &mut fetch_end, size)
                .await?
                .map_or(size, |abs| abs + 1),
        }
    };

    if begin_abs >= end_abs {
        return Ok(Bytes::new());
    }
    // Ensure the buffer covers end_abs (extension may have already done so).
    if end_abs > fetch_end {
        let extra = cos
            .get_range_async(&part.bucket, &part.key, fetch_end, end_abs)
            .await?;
        let mut v = raw.to_vec();
        v.extend_from_slice(&extra);
        raw = Bytes::from(v);
    }
    let owned = (begin_abs - fetch_start) as usize..(end_abs - fetch_start) as usize;
    let len = fetch_start + raw.len() as u64;
    raw.try_slice(owned)
        .ok_or(PywrenError::Storage(StoreError::InvalidRange {
            start: begin_abs,
            end: end_abs,
            len,
        }))
}

fn find_newline(buf: &[u8], from: usize) -> Option<usize> {
    buf.get(from..)?
        .iter()
        .position(|&b| b == b'\n')
        .map(|i| from + i)
}

/// Grows `raw` in `ALIGN_SLACK` steps until a newline at absolute position
/// `>=` the previous `fetch_end` is found, or EOF. Returns the newline's
/// absolute position, if any.
async fn extend_to_newline(
    cos: &CosClient,
    part: &Partition,
    raw: &mut Bytes,
    fetch_start: u64,
    fetch_end: &mut u64,
    size: u64,
) -> std::result::Result<Option<u64>, StoreError> {
    while *fetch_end < size {
        let next_end = (*fetch_end + ALIGN_SLACK).min(size);
        let extra = cos
            .get_range_async(&part.bucket, &part.key, *fetch_end, next_end)
            .await?;
        let search_from = (*fetch_end - fetch_start) as usize;
        let mut v = raw.to_vec();
        v.extend_from_slice(&extra);
        *raw = Bytes::from(v);
        *fetch_end = next_end;
        if let Some(i) = find_newline(raw, search_from) {
            return Ok(Some(fetch_start + i as u64));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rustwren_sim::{task, Kernel, NetworkProfile};
    use rustwren_store::ObjectStore;

    fn setup() -> (Kernel, ObjectStore, CosClient) {
        let kernel = Kernel::new();
        let store = ObjectStore::new(&kernel);
        store.create_bucket("data").expect("fresh bucket");
        let cos = CosClient::new(&store, NetworkProfile::instant(), 1);
        (kernel, store, cos)
    }

    fn discovered(size: u64, key: &str) -> DiscoveredObject {
        DiscoveredObject {
            bucket: "data".into(),
            meta: ObjectMeta {
                key: key.into(),
                size,
                logical_size: size,
                etag: 0,
                last_modified: rustwren_sim::SimInstant::ZERO,
            },
        }
    }

    #[test]
    fn per_object_granularity_without_chunk_size() {
        let objs = vec![discovered(100, "a"), discovered(50, "b")];
        let parts = partition_objects(&objs, None).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!((parts[0].start, parts[0].end), (0, 100));
        assert_eq!((parts[1].start, parts[1].end), (0, 50));
    }

    #[test]
    fn chunking_is_per_object_like_table3() {
        // 3 objects of 100, 150, 10 bytes with chunk 100:
        // ceil(100/100) + ceil(150/100) + ceil(10/100) = 1 + 2 + 1 = 4.
        let objs = vec![
            discovered(100, "a"),
            discovered(150, "b"),
            discovered(10, "c"),
        ];
        let parts = partition_objects(&objs, Some(100)).unwrap();
        assert_eq!(parts.len(), 4);
        assert_eq!((parts[1].start, parts[1].end), (0, 100));
        assert_eq!((parts[2].start, parts[2].end), (100, 150));
        // Indices are global and sequential.
        assert_eq!(
            parts.iter().map(|p| p.index).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn empty_object_yields_one_empty_partition() {
        let parts = partition_objects(&[discovered(0, "empty")], Some(10)).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].logical_len(), 0);
    }

    #[test]
    fn zero_chunk_size_is_a_config_error() {
        let err = partition_objects(&[discovered(10, "a")], Some(0)).unwrap_err();
        assert!(matches!(err, PywrenError::Config(ref m) if m.contains("non-zero")));
    }

    #[test]
    fn partition_from_value_rejects_bad_fields() {
        let good = Partition {
            bucket: "b".into(),
            key: "k".into(),
            start: 5,
            end: 10,
            index: 3,
        };
        let negative_start = good.to_value().with("start", -1i64);
        let err = Partition::from_value(&negative_start).unwrap_err();
        assert!(err.contains("start") && err.contains("-1"), "{err}");

        let negative_index = good.to_value().with("index", -7i64);
        let err = Partition::from_value(&negative_index).unwrap_err();
        assert!(err.contains("index"), "{err}");

        let inverted = good.to_value().with("end", 2i64);
        let err = Partition::from_value(&inverted).unwrap_err();
        assert!(err.contains("precedes"), "{err}");
    }

    #[test]
    fn partition_value_roundtrip() {
        let p = Partition {
            bucket: "b".into(),
            key: "k".into(),
            start: 5,
            end: 10,
            index: 3,
        };
        assert_eq!(Partition::from_value(&p.to_value()), Ok(p));
    }

    #[test]
    fn discovery_lists_buckets_and_heads_keys() {
        let (kernel, store, cos) = setup();
        store
            .put("data", "nyc.csv", Bytes::from_static(b"a\nb\n"))
            .unwrap();
        store
            .put("data", "ams.csv", Bytes::from_static(b"c\n"))
            .unwrap();
        kernel.run("client", || {
            let objs = discover(&cos, &DataSource::bucket("data")).unwrap();
            assert_eq!(objs.len(), 2);
            let objs = discover(
                &cos,
                &DataSource::Keys(vec![ObjectRef::new("data", "nyc.csv")]),
            )
            .unwrap();
            assert_eq!(objs.len(), 1);
            assert_eq!(objs[0].meta.size, 4);
        });
    }

    #[test]
    fn discovery_of_empty_bucket_errors() {
        let (kernel, _store, cos) = setup();
        kernel.run("client", || {
            assert!(matches!(
                discover(&cos, &DataSource::bucket("data")),
                Err(PywrenError::EmptyDataSource(_))
            ));
        });
    }

    #[test]
    fn aligned_reads_tile_the_object_exactly() {
        let (kernel, store, cos) = setup();
        let text = b"first line\nsecond\nthird line here\nx\nlast\n";
        store
            .put("data", "f", Bytes::copy_from_slice(text))
            .unwrap();
        kernel.run("client", || {
            for chunk in [1u64, 3, 7, 10, 100] {
                let objs =
                    discover(&cos, &DataSource::Keys(vec![ObjectRef::new("data", "f")])).unwrap();
                let parts = partition_objects(&objs, Some(chunk)).unwrap();
                let mut all = Vec::new();
                for p in &parts {
                    all.extend_from_slice(&task::block_on(read_aligned_async(&cos, p)).unwrap());
                }
                assert_eq!(all, text, "chunk={chunk}");
            }
        });
    }

    #[test]
    fn aligned_read_skips_partial_first_line() {
        let (kernel, store, cos) = setup();
        store
            .put("data", "f", Bytes::from_static(b"abcdef\nghij\n"))
            .unwrap();
        kernel.run("client", || {
            // Partition starting mid-line owns nothing before the newline.
            let p = Partition {
                bucket: "data".into(),
                key: "f".into(),
                start: 3,
                end: 12,
                index: 0,
            };
            assert_eq!(
                task::block_on(read_aligned_async(&cos, &p))
                    .unwrap()
                    .as_ref(),
                b"ghij\n"
            );
        });
    }

    #[test]
    fn aligned_read_handles_file_without_newlines() {
        let (kernel, store, cos) = setup();
        store
            .put("data", "f", Bytes::from_static(b"0123456789"))
            .unwrap();
        kernel.run("client", || {
            let objs =
                discover(&cos, &DataSource::Keys(vec![ObjectRef::new("data", "f")])).unwrap();
            let parts = partition_objects(&objs, Some(4)).unwrap();
            let datas: Vec<_> = parts
                .iter()
                .map(|p| task::block_on(read_aligned_async(&cos, p)).unwrap())
                .collect();
            // First partition owns the single unterminated record.
            assert_eq!(datas[0].as_ref(), b"0123456789");
            assert!(datas[1..].iter().all(|d| d.is_empty()));
        });
    }

    #[test]
    fn scaled_object_partitions_map_to_physical_bytes() {
        let (kernel, store, cos) = setup();
        // 4 physical lines advertised as 400 logical bytes.
        store
            .put_scaled("data", "f", Bytes::from_static(b"aa\nbb\ncc\ndd\n"), 400)
            .unwrap();
        kernel.run("client", || {
            let objs =
                discover(&cos, &DataSource::Keys(vec![ObjectRef::new("data", "f")])).unwrap();
            let parts = partition_objects(&objs, Some(100)).unwrap();
            assert_eq!(parts.len(), 4, "logical partitioning");
            let mut all = Vec::new();
            for p in &parts {
                all.extend_from_slice(&task::block_on(read_aligned_async(&cos, p)).unwrap());
            }
            assert_eq!(all, b"aa\nbb\ncc\ndd\n");
        });
    }
}
