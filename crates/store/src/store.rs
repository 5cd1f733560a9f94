//! The raw in-memory object store (service side, zero virtual cost).
//!
//! [`ObjectStore`] holds the actual bytes. It charges no virtual time:
//! simulated callers go through [`crate::CosClient`], which wraps every
//! operation in a network/service cost model. Direct `ObjectStore` access is
//! for *out-of-band setup* — the equivalent of the paper copying the Airbnb
//! datasets into COS before the experiment starts.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;
use rustwren_sim::hash::{hash2, hash_bytes, hash_str};
use rustwren_sim::{Kernel, SimInstant};

use crate::error::StoreError;
use crate::object::{BucketMeta, ObjectMeta};

struct StoredObject {
    data: Bytes,
    logical_size: u64,
    /// [`content_etag`] of `data` once a HEAD or a LIST's
    /// [`ListedObject::meta`] has asked for it, 0 before: a PUT hashes
    /// nothing. See [`etag`].
    etag: AtomicU64,
    /// Whether the writer vouched for `data` at PUT (it stamped the bytes
    /// itself); every PUT sets or clears it.
    vouched: bool,
    last_modified: SimInstant,
}

/// Every bucket's objects, each bucket one key-ordered map, so a LIST is
/// one range walk. The registry's shim lock guards it all: every public
/// [`ObjectStore`] op takes exactly one acquisition, a write for the ops
/// that mutate, and never holds it across a yield (so, by the kernel's
/// one-runner-at-a-time guarantee, it is never contended in simulation).
#[derive(Default)]
struct Buckets {
    buckets: BTreeMap<String, BTreeMap<Box<str>, StoredObject>>,
}

/// A simulated IBM Cloud Object Storage service. Cheap to clone.
///
/// # Examples
///
/// ```
/// use rustwren_store::ObjectStore;
/// use rustwren_sim::Kernel;
/// use bytes::Bytes;
///
/// let store = ObjectStore::new(&Kernel::new());
/// store.create_bucket("reviews")?;
/// store.put("reviews", "nyc.csv", Bytes::from_static(b"hello"))?;
/// assert_eq!(store.get("reviews", "nyc.csv")?.as_ref(), b"hello");
/// # Ok::<(), rustwren_store::StoreError>(())
/// ```
#[derive(Clone)]
pub struct ObjectStore {
    kernel: Kernel,
    inner: Arc<RwLock<Buckets>>,
}

impl fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.read();
        f.debug_struct("ObjectStore")
            .field("buckets", &inner.buckets.len())
            .finish()
    }
}

impl ObjectStore {
    /// Creates an empty store whose `last_modified` stamps come from
    /// `kernel`'s virtual clock.
    pub fn new(kernel: &Kernel) -> ObjectStore {
        ObjectStore {
            kernel: kernel.clone(),
            inner: Arc::new(RwLock::new(Buckets::default())),
        }
    }

    /// The kernel whose clock stamps writes.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Creates a bucket.
    ///
    /// # Errors
    ///
    /// [`StoreError::BucketAlreadyExists`] if the name is taken.
    pub fn create_bucket(&self, name: &str) -> Result<(), StoreError> {
        let mut inner = self.inner.write();
        if inner.buckets.contains_key(name) {
            return Err(StoreError::BucketAlreadyExists(name.to_owned()));
        }
        inner.buckets.insert(name.to_owned(), BTreeMap::new());
        Ok(())
    }

    /// Creates a bucket if it does not already exist.
    pub fn ensure_bucket(&self, name: &str) {
        let mut inner = self.inner.write();
        inner.buckets.entry(name.to_owned()).or_default();
    }

    /// Lists all bucket names, sorted.
    pub fn list_buckets(&self) -> Vec<String> {
        self.inner.read().buckets.keys().cloned().collect()
    }

    /// Stores an object, overwriting any previous value.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchBucket`] if the bucket does not exist.
    pub fn put(&self, bucket: &str, key: &str, data: Bytes) -> Result<(), StoreError> {
        let logical = data.len() as u64;
        self.put_scaled(bucket, key, data, logical)
    }

    /// Stores an object advertising `logical_size` bytes to HEAD/LIST while
    /// physically holding `data`. See [`ObjectMeta::logical_size`].
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchBucket`] if the bucket does not exist.
    pub fn put_scaled(
        &self,
        bucket: &str,
        key: &str,
        data: Bytes,
        logical_size: u64,
    ) -> Result<(), StoreError> {
        self.write(bucket, key, data, logical_size, false)
    }

    /// Stores an object whose writer does (`vouched`) or does not vouch
    /// for its bytes; see [`get_vouched`](ObjectStore::get_vouched).
    pub(crate) fn write(
        &self,
        bucket: &str,
        key: &str,
        data: Bytes,
        logical_size: u64,
        vouched: bool,
    ) -> Result<(), StoreError> {
        let now = self.kernel.now();
        let mut inner = self.inner.write();
        let b = inner
            .buckets
            .get_mut(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_owned()))?;
        let obj = StoredObject {
            data,
            logical_size,
            etag: AtomicU64::new(0),
            vouched,
            last_modified: now,
        };
        b.insert(key.into(), obj);
        Ok(())
    }

    /// Retrieves an entire object (cheap clone of shared bytes).
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchBucket`] / [`StoreError::NoSuchKey`].
    pub fn get(&self, bucket: &str, key: &str) -> Result<Bytes, StoreError> {
        Ok(self.get_vouched(bucket, key)?.0)
    }

    /// [`get`](ObjectStore::get), and whether the last PUT of the object
    /// vouched for the bytes: the bytes returned are then that writer's
    /// own allocation.
    pub(crate) fn get_vouched(&self, bucket: &str, key: &str) -> Result<(Bytes, bool), StoreError> {
        let inner = self.inner.read();
        lookup(&inner, bucket, key, |obj| (obj.data.clone(), obj.vouched))
    }

    /// Retrieves the byte range `[start, end)` of an object.
    ///
    /// Like S3/COS range requests, `end` is clamped to the object length,
    /// but a `start` at or beyond the object length is an error.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidRange`] if `start >= len` or `start > end`.
    pub fn get_range(
        &self,
        bucket: &str,
        key: &str,
        start: u64,
        end: u64,
    ) -> Result<Bytes, StoreError> {
        let inner = self.inner.read();
        lookup(&inner, bucket, key, |obj| {
            let len = obj.data.len() as u64;
            if start > end || (start >= len && len > 0) || (len == 0 && start > 0) {
                return Err(StoreError::InvalidRange { start, end, len });
            }
            let range = start as usize..end.min(len) as usize;
            let invalid = StoreError::InvalidRange { start, end, len };
            obj.data.try_slice(range).ok_or(invalid)
        })?
    }

    /// Returns an object's metadata (`HEAD object`).
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchBucket`] / [`StoreError::NoSuchKey`].
    pub fn head(&self, bucket: &str, key: &str) -> Result<ObjectMeta, StoreError> {
        let inner = self.inner.read();
        lookup(&inner, bucket, key, |obj| object_meta(key, obj))
    }

    /// Returns bucket-level metadata (`HEAD bucket`).
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchBucket`].
    pub fn head_bucket(&self, bucket: &str) -> Result<BucketMeta, StoreError> {
        let inner = self.inner.read();
        let b = inner
            .buckets
            .get(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_owned()))?;
        let mut meta = BucketMeta {
            name: bucket.to_owned(),
            object_count: 0,
            total_bytes: 0,
            total_logical_bytes: 0,
        };
        meta.object_count = b.len() as u64;
        meta.total_bytes = b.values().map(|o| o.data.len() as u64).sum();
        meta.total_logical_bytes = b.values().map(|o| o.logical_size).sum();
        Ok(meta)
    }

    /// Lists objects in a bucket whose keys start with `prefix`, sorted by
    /// key. Pass `""` to list everything.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchBucket`].
    pub fn list(&self, bucket: &str, prefix: &str) -> Result<Vec<ObjectMeta>, StoreError> {
        let mut out = Vec::new();
        self.list_each(bucket, prefix, |o| out.push(o.meta()))?;
        Ok(out)
    }

    /// Visits the objects in a bucket whose keys start with `prefix`, in
    /// key order, in place: each key and its metadata are borrowed from the
    /// store for one `visit` call, so a listing allocates nothing per
    /// object. Returns how many objects it visited. The store stays locked
    /// for reading while the walk runs, so `visit` must not call back into
    /// it.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchBucket`].
    pub fn list_each(
        &self,
        bucket: &str,
        prefix: &str,
        mut visit: impl FnMut(ListedObject<'_>),
    ) -> Result<usize, StoreError> {
        let inner = self.inner.read();
        let b = inner
            .buckets
            .get(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_owned()))?;
        let mut visited = 0;
        let listed = b
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(prefix));
        for (key, obj) in listed {
            visit(ListedObject { key, obj });
            visited += 1;
        }
        Ok(visited)
    }

    /// Deletes an object. Deleting a missing key is not an error (matching
    /// S3/COS semantics).
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchBucket`].
    pub fn delete(&self, bucket: &str, key: &str) -> Result<(), StoreError> {
        let mut inner = self.inner.write();
        let b = inner
            .buckets
            .get_mut(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_owned()))?;
        b.remove(key);
        Ok(())
    }

    /// Whether an object exists.
    pub fn exists(&self, bucket: &str, key: &str) -> bool {
        let inner = self.inner.read();
        inner
            .buckets
            .get(bucket)
            .is_some_and(|b| b.contains_key(key))
    }
}

/// Resolves `bucket`/`key` and applies `f` to the stored object.
fn lookup<R>(
    inner: &Buckets,
    bucket: &str,
    key: &str,
    f: impl FnOnce(&StoredObject) -> R,
) -> Result<R, StoreError> {
    let b = inner
        .buckets
        .get(bucket)
        .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_owned()))?;
    b.get(key).map(f).ok_or_else(|| StoreError::NoSuchKey {
        bucket: bucket.to_owned(),
        key: key.to_owned(),
    })
}

/// One object as [`ObjectStore::list_each`] visits it: its key and
/// metadata, borrowed from the store for the length of the visit.
#[derive(Clone, Copy)]
pub struct ListedObject<'a> {
    key: &'a str,
    obj: &'a StoredObject,
}

impl<'a> ListedObject<'a> {
    /// The object's key.
    pub fn key(&self) -> &'a str {
        self.key
    }

    /// The object's metadata, as `LIST` returns it.
    pub fn meta(&self) -> ObjectMeta {
        object_meta(self.key, self.obj)
    }
}

impl fmt::Debug for ListedObject<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ListedObject")
            .field("key", &self.key)
            .finish()
    }
}

fn object_meta(key: &str, obj: &StoredObject) -> ObjectMeta {
    ObjectMeta {
        key: key.to_owned(),
        size: obj.data.len() as u64,
        logical_size: obj.logical_size,
        etag: etag(key, obj),
        last_modified: obj.last_modified,
    }
}

/// `obj`'s ETag, computed on the first ask and kept. An ETag that is
/// itself 0, the mark of "not asked yet", is computed at every ask: the
/// same value either way.
fn etag(key: &str, obj: &StoredObject) -> u64 {
    let kept = obj.etag.load(Ordering::Relaxed);
    if kept != 0 {
        return kept;
    }
    let etag = content_etag(key, &obj.data);
    obj.etag.store(etag, Ordering::Relaxed);
    etag
}

/// A fast content hash standing in for a real ETag/MD5: the digest of the
/// bytes by [`hash_bytes`], the kernel the wire stamp's checksum also uses,
/// folded with the key's hash.
fn content_etag(key: &str, data: &Bytes) -> u64 {
    hash2(hash_bytes(data), hash_str(key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// PUTs `data` and reads its metadata back with HEAD.
    fn put_head(s: &ObjectStore, key: &str, data: Bytes) -> ObjectMeta {
        s.put("b", key, data).unwrap();
        s.head("b", key).unwrap()
    }

    fn store() -> ObjectStore {
        let s = ObjectStore::new(&Kernel::new());
        s.create_bucket("b").expect("fresh bucket");
        s
    }

    #[test]
    fn put_get_roundtrip() {
        let s = store();
        s.put("b", "k", Bytes::from_static(b"abc")).unwrap();
        assert_eq!(s.get("b", "k").unwrap().as_ref(), b"abc");
    }

    #[test]
    fn get_missing_key_errors() {
        let s = store();
        assert!(matches!(
            s.get("b", "nope"),
            Err(StoreError::NoSuchKey { .. })
        ));
    }

    #[test]
    fn missing_bucket_errors() {
        let s = store();
        assert_eq!(
            s.get("nope", "k"),
            Err(StoreError::NoSuchBucket("nope".into()))
        );
    }

    #[test]
    fn duplicate_bucket_rejected_but_ensure_is_idempotent() {
        let s = store();
        assert_eq!(
            s.create_bucket("b"),
            Err(StoreError::BucketAlreadyExists("b".into()))
        );
        s.ensure_bucket("b");
        s.ensure_bucket("c");
        assert_eq!(s.list_buckets(), vec!["b".to_owned(), "c".to_owned()]);
    }

    #[test]
    fn overwrite_changes_etag() {
        let s = store();
        let m1 = put_head(&s, "k", Bytes::from_static(b"one"));
        let m2 = put_head(&s, "k", Bytes::from_static(b"two"));
        assert_ne!(m1.etag, m2.etag);
        assert_eq!(s.get("b", "k").unwrap().as_ref(), b"two");
    }

    #[test]
    fn same_content_same_etag() {
        let s = store();
        let m1 = put_head(&s, "k", Bytes::from_static(b"same"));
        let m2 = put_head(&s, "k", Bytes::from_static(b"same"));
        assert_eq!(m1.etag, m2.etag);
    }

    #[test]
    fn any_flipped_byte_changes_etag() {
        // Zeros put every flip where the kernel pads a short tail with
        // zeros too; the counting pattern puts it among distinct words.
        for len in 0..=100usize {
            let zeros = vec![0u8; len];
            let counting: Vec<u8> = (0..len as u8).collect();
            for base in [zeros, counting] {
                let etag = content_etag("k", &Bytes::from(base.clone()));
                for i in 0..len {
                    let mut flipped = base.clone();
                    flipped[i] ^= 0xFF;
                    assert_ne!(
                        content_etag("k", &Bytes::from(flipped)),
                        etag,
                        "byte {i} of {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_runs_of_neighbouring_lengths_differ() {
        for n in 0..64 {
            assert_ne!(
                content_etag("k", &Bytes::from(vec![0u8; n])),
                content_etag("k", &Bytes::from(vec![0u8; n + 1])),
                "{n} zeros"
            );
        }
    }

    #[test]
    fn same_bytes_under_two_keys_differ() {
        let s = store();
        let data = Bytes::from_static(b"same bytes");
        let m1 = put_head(&s, "k1", data.clone());
        let m2 = put_head(&s, "k2", data);
        assert_ne!(m1.etag, m2.etag);
    }

    #[test]
    fn etag_covers_content_not_advertised_size() {
        let s = store();
        let data = Bytes::from_static(b"scaled");
        let plain = put_head(&s, "k", data.clone());
        s.put_scaled("b", "k", data, 1 << 30).unwrap();
        let scaled = s.head("b", "k").unwrap();
        assert_eq!(plain.etag, scaled.etag);
        assert_ne!(plain.logical_size, scaled.logical_size);
    }

    #[test]
    fn range_reads_slice_correctly() {
        let s = store();
        s.put("b", "k", Bytes::from_static(b"0123456789")).unwrap();
        assert_eq!(s.get_range("b", "k", 2, 5).unwrap().as_ref(), b"234");
        // End clamps to object length.
        assert_eq!(s.get_range("b", "k", 8, 100).unwrap().as_ref(), b"89");
    }

    #[test]
    fn range_start_past_end_errors() {
        let s = store();
        s.put("b", "k", Bytes::from_static(b"0123")).unwrap();
        assert!(matches!(
            s.get_range("b", "k", 4, 8),
            Err(StoreError::InvalidRange { .. })
        ));
        assert!(matches!(
            s.get_range("b", "k", 3, 2),
            Err(StoreError::InvalidRange { .. })
        ));
    }

    #[test]
    fn empty_object_zero_range_is_ok() {
        let s = store();
        s.put("b", "k", Bytes::new()).unwrap();
        assert_eq!(s.get_range("b", "k", 0, 0).unwrap().len(), 0);
        assert!(s.get_range("b", "k", 1, 2).is_err());
    }

    #[test]
    fn list_filters_by_prefix_and_sorts() {
        let s = store();
        for k in ["city/nyc", "city/ams", "other/x"] {
            s.put("b", k, Bytes::from_static(b"d")).unwrap();
        }
        let keys: Vec<_> = s
            .list("b", "city/")
            .unwrap()
            .into_iter()
            .map(|m| m.key)
            .collect();
        assert_eq!(keys, vec!["city/ams".to_owned(), "city/nyc".to_owned()]);
        assert_eq!(s.list("b", "").unwrap().len(), 3);
    }

    #[test]
    fn head_bucket_counts_objects_and_bytes() {
        let s = store();
        s.put("b", "a", Bytes::from_static(b"xx")).unwrap();
        s.put_scaled("b", "c", Bytes::from_static(b"yyy"), 300)
            .unwrap();
        let m = s.head_bucket("b").unwrap();
        assert_eq!(m.object_count, 2);
        assert_eq!(m.total_bytes, 5);
        assert_eq!(m.total_logical_bytes, 302);
    }

    #[test]
    fn delete_is_idempotent() {
        let s = store();
        s.put("b", "k", Bytes::from_static(b"z")).unwrap();
        s.delete("b", "k").unwrap();
        assert!(!s.exists("b", "k"));
        s.delete("b", "k").unwrap();
    }

    #[test]
    fn scaled_put_advertises_logical_size() {
        let s = store();
        s.put_scaled("b", "k", Bytes::from_static(b"small"), 1_000_000)
            .unwrap();
        let m = s.head("b", "k").unwrap();
        assert_eq!(m.size, 5);
        assert_eq!(m.logical_size, 1_000_000);
        assert_eq!(m.scale(), 200_000.0);
    }

    #[test]
    fn last_modified_uses_virtual_clock() {
        let k = Kernel::new();
        let s = ObjectStore::new(&k);
        s.create_bucket("b").unwrap();
        k.run("client", || {
            rustwren_sim::sleep(std::time::Duration::from_secs(9));
            let m = put_head(&s, "k", Bytes::from_static(b"t"));
            assert_eq!(m.last_modified.as_secs_f64(), 9.0);
        });
    }

    #[test]
    fn list_each_of_a_missing_bucket_is_a_typed_error() {
        let s = store();
        let mut visited = 0;
        assert_eq!(
            s.list_each("nope", "", |_| visited += 1),
            Err(StoreError::NoSuchBucket("nope".into()))
        );
        assert_eq!(visited, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The in-place walk visits the keys a sorted filter of what was
        /// written picks, in that order, with each object's metadata, and
        /// counts them; `list` returns the same.
        #[test]
        fn list_each_visits_the_prefixed_keys_in_order(
            writes in prop::collection::vec(("[ab/]{0,5}", 0usize..4), 0..64),
            prefix in "[ab/]{0,3}",
        ) {
            let s = store();
            let mut oracle = BTreeMap::new();
            for (key, len) in writes {
                let data = Bytes::from(vec![b'd'; len]);
                s.put("b", &key, data).unwrap();
                oracle.insert(key, len as u64);
            }
            let want: Vec<(String, u64)> = oracle
                .into_iter()
                .filter(|(k, _)| k.starts_with(&prefix))
                .collect();
            let mut walked = Vec::new();
            let visited = s
                .list_each("b", &prefix, |o| {
                    let meta = o.meta();
                    assert_eq!(meta.key, o.key());
                    walked.push((meta.key, meta.size));
                })
                .unwrap();
            prop_assert_eq!(visited, want.len());
            prop_assert_eq!(&walked, &want);
            let listed: Vec<(String, u64)> = s
                .list("b", &prefix)
                .unwrap()
                .into_iter()
                .map(|m| (m.key, m.size))
                .collect();
            prop_assert_eq!(listed, want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After any sequence of PUTs and overwrites, some of them asked
        /// for their ETag at once, HEAD and LIST report the ETag computed
        /// eagerly from the bytes last written, and a read is vouched for
        /// exactly when the last PUT vouched.
        #[test]
        fn lazy_etags_and_vouches_follow_the_last_put(
            writes in prop::collection::vec(
                ("[ab]{1,2}", prop::collection::vec(any::<u8>(), 0..40), any::<bool>(), any::<bool>()),
                1..40,
            ),
        ) {
            let s = store();
            let mut oracle = BTreeMap::new();
            for (key, data, vouched, head_now) in writes {
                let len = data.len() as u64;
                s.write("b", &key, Bytes::from(data.clone()), len, vouched).unwrap();
                if head_now {
                    s.head("b", &key).unwrap();
                }
                oracle.insert(key, (data, vouched));
            }
            let listed = s.list("b", "").unwrap();
            prop_assert_eq!(listed.len(), oracle.len());
            for (meta, (key, (data, vouched))) in listed.iter().zip(&oracle) {
                let eager = content_etag(key, &Bytes::from(data.clone()));
                prop_assert_eq!(&meta.key, key);
                prop_assert_eq!(meta.etag, eager);
                prop_assert_eq!(s.head("b", key).unwrap().etag, eager);
                let (got, got_vouched) = s.get_vouched("b", key).unwrap();
                prop_assert_eq!(got.as_ref(), &data[..]);
                prop_assert_eq!(got_vouched, *vouched);
            }
        }
    }

    #[test]
    fn clones_share_state() {
        let s = store();
        let s2 = s.clone();
        s.put("b", "k", Bytes::from_static(b"v")).unwrap();
        assert!(s2.exists("b", "k"));
    }
}
