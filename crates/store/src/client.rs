//! The timed COS client: every operation charges virtual time and may fail.
//!
//! A [`CosClient`] is what simulated actors (the IBM-PyWren client on a
//! laptop, or a function executor inside the cloud) use to reach the object
//! store. Each request is charged one network round trip plus payload
//! transfer time plus a per-operation service latency, and can fail
//! deterministically according to the path's
//! [`NetworkProfile::failure_rate`]; failed requests are retried with
//! exponential backoff like the real COS SDKs.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use rustwren_sim::hash::{hash2, StrHasher};
use rustwren_sim::{task, NetworkProfile};

use crate::error::StoreError;
use crate::object::{BucketMeta, ObjectMeta};
use crate::store::{ListedObject, ObjectStore};

/// A COS request identity assembled from parts. Displays as the classic
/// `"VERB bucket/key…"` form, and hashes to exactly
/// `hash_str(&format!(...))` of that form **without** building the string
/// — one `String` per request on the old hot path, now only materialized
/// on the cold paths that show it to a human (chaos fault logs, terminal
/// network errors).
#[derive(Clone, Copy)]
struct CosOp<'a> {
    verb: &'static str,
    bucket: &'a str,
    /// The object key (or LIST prefix); `None` for bucket-level ops.
    key: Option<&'a str>,
    suffix: OpSuffix,
}

#[derive(Clone, Copy)]
enum OpSuffix {
    None,
    /// A fixed tail like the LIST wildcard `"*"`.
    Const(&'static str),
    /// `"[{start}..{end}]"` — a range GET.
    Range(u64, u64),
}

impl<'a> CosOp<'a> {
    fn new(verb: &'static str, bucket: &'a str, key: Option<&'a str>) -> CosOp<'a> {
        CosOp {
            verb,
            bucket,
            key,
            suffix: OpSuffix::None,
        }
    }

    fn with_suffix(mut self, suffix: OpSuffix) -> CosOp<'a> {
        self.suffix = suffix;
        self
    }

    /// `hash_str` of the display form, folded incrementally over the
    /// parts (the `Display` impl drives a [`StrHasher`], which cannot
    /// fail, so the discarded `fmt::Result` is always `Ok`).
    fn path_hash(&self) -> u64 {
        use fmt::Write as _;
        let mut h = StrHasher::new();
        let _ = write!(h, "{self}");
        h.finish()
    }
}

impl fmt::Display for CosOp<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.verb, self.bucket)?;
        if let Some(key) = self.key {
            write!(f, "/{key}")?;
        }
        match self.suffix {
            OpSuffix::None => Ok(()),
            OpSuffix::Const(s) => f.write_str(s),
            OpSuffix::Range(start, end) => write!(f, "[{start}..{end}]"),
        }
    }
}

/// Live operation counters shared by every clone of a [`CosClient`].
///
/// Each public client operation increments its class counter and the byte
/// tallies once per *logical* operation (retries of a failed attempt do not
/// double-count). Attach a shared set to several clients with
/// [`CosClient::with_counters`] to account a whole phase (staging, polling,
/// agent traffic) in one place, and read it back with
/// [`OpCounters::snapshot`].
#[derive(Debug, Default)]
pub struct OpCounters {
    gets: AtomicU64,
    puts: AtomicU64,
    lists: AtomicU64,
    heads: AtomicU64,
    deletes: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

impl OpCounters {
    /// A fresh set of zeroed counters behind an [`Arc`], ready to share.
    pub fn shared() -> Arc<OpCounters> {
        Arc::new(OpCounters::default())
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> OpCounts {
        OpCounts {
            gets: self.gets.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            lists: self.lists.load(Ordering::Relaxed),
            heads: self.heads.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }

    fn count(&self, class: &AtomicU64) {
        class.fetch_add(1, Ordering::Relaxed);
    }
}

/// A frozen snapshot of [`OpCounters`], comparable and subtractable so
/// benches and tests can assert per-phase operation budgets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Object-data GETs (full and ranged).
    pub gets: u64,
    /// Object PUTs.
    pub puts: u64,
    /// LIST requests.
    pub lists: u64,
    /// HEAD requests (objects, buckets, and `exists` probes).
    pub heads: u64,
    /// DELETE requests.
    pub deletes: u64,
    /// Payload bytes fetched by GETs.
    pub bytes_in: u64,
    /// Payload bytes sent by PUTs.
    pub bytes_out: u64,
}

impl OpCounts {
    /// Total request count across every operation class.
    pub fn total_ops(&self) -> u64 {
        self.gets + self.puts + self.lists + self.heads + self.deletes
    }

    /// Component-wise saturating difference (`self - earlier`), for
    /// measuring the operations a phase issued between two snapshots.
    pub fn since(&self, earlier: &OpCounts) -> OpCounts {
        OpCounts {
            gets: self.gets.saturating_sub(earlier.gets),
            puts: self.puts.saturating_sub(earlier.puts),
            lists: self.lists.saturating_sub(earlier.lists),
            heads: self.heads.saturating_sub(earlier.heads),
            deletes: self.deletes.saturating_sub(earlier.deletes),
            bytes_in: self.bytes_in.saturating_sub(earlier.bytes_in),
            bytes_out: self.bytes_out.saturating_sub(earlier.bytes_out),
        }
    }
}

/// Per-operation service-side latency, independent of payload size.
///
/// Defaults are in the ballpark of public COS/S3 numbers; they only shift
/// constants, not the shape of the paper's results.
#[derive(Debug, Clone, PartialEq)]
pub struct CosCosts {
    /// Service time for GET/PUT of object data.
    pub data_op: Duration,
    /// Service time for HEAD (object or bucket).
    pub head_op: Duration,
    /// Service time for LIST, per returned batch of 1,000 keys.
    pub list_op: Duration,
    /// Service time for DELETE.
    pub delete_op: Duration,
    /// Approximate bytes of metadata returned per listed key (affects LIST
    /// transfer time).
    pub list_entry_bytes: u64,
}

impl Default for CosCosts {
    fn default() -> CosCosts {
        CosCosts {
            data_op: Duration::from_millis(9),
            head_op: Duration::from_millis(5),
            list_op: Duration::from_millis(14),
            delete_op: Duration::from_millis(6),
            list_entry_bytes: 200,
        }
    }
}

/// A virtual-time client for the simulated object store.
///
/// Cheap to clone. Each request's jitter/failure token is a pure function of
/// the client seed, the request path and the virtual instant it is issued —
/// never of a shared mutable sequence — so concurrent clones (parallel
/// upload/fetch lanes) cannot perturb each other's draws and a run's full
/// request timeline replays exactly from the same seed.
///
/// # Examples
///
/// ```
/// use rustwren_sim::{Kernel, NetworkProfile};
/// use rustwren_store::{CosClient, ObjectStore};
/// use bytes::Bytes;
///
/// let kernel = Kernel::new();
/// let store = ObjectStore::new(&kernel);
/// store.create_bucket("data").unwrap();
/// let client = CosClient::new(&store, NetworkProfile::lan(), 42);
/// kernel.run("client", || {
///     client.put("data", "k", Bytes::from_static(b"v"))?;
///     assert_eq!(client.get("data", "k")?.as_ref(), b"v");
///     assert!(rustwren_sim::now().as_nanos() > 0); // ops took virtual time
///     Ok::<(), rustwren_store::StoreError>(())
/// }).unwrap();
/// ```
#[derive(Clone)]
pub struct CosClient {
    store: ObjectStore,
    net: NetworkProfile,
    costs: CosCosts,
    seed: u64,
    max_attempts: u32,
    counters: Arc<OpCounters>,
}

impl fmt::Debug for CosClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CosClient")
            .field("net", &self.net)
            .field("max_attempts", &self.max_attempts)
            .finish()
    }
}

impl CosClient {
    /// Creates a client reaching `store` over `net`. `seed` individualizes
    /// this client's jitter/failure stream.
    ///
    /// # Panics
    ///
    /// Panics if `net` fails [`NetworkProfile::validate`] (NaN or
    /// out-of-range failure rate, zero bandwidth).
    pub fn new(store: &ObjectStore, net: NetworkProfile, seed: u64) -> CosClient {
        if let Err(e) = net.validate() {
            // lint: allow(L009) — constructor contract (documented # Panics);
            // agents only receive profiles the platform already validated
            panic!("CosClient::new: invalid network profile: {e}");
        }
        CosClient {
            store: store.clone(),
            net,
            costs: CosCosts::default(),
            seed,
            max_attempts: 4,
            counters: OpCounters::shared(),
        }
    }

    /// Sets how many attempts each operation makes before reporting
    /// [`StoreError::Network`].
    ///
    /// # Panics
    ///
    /// Panics if `attempts` is zero.
    pub fn with_max_attempts(mut self, attempts: u32) -> CosClient {
        assert!(attempts > 0, "max_attempts must be at least 1");
        self.max_attempts = attempts;
        self
    }

    /// Shares `counters` with this client: every operation it (and its
    /// future clones) issues is tallied there. Lets several clients —
    /// e.g. all the upload lanes of one staging phase — account into a
    /// single per-phase set.
    pub fn with_counters(mut self, counters: Arc<OpCounters>) -> CosClient {
        self.counters = counters;
        self
    }

    /// The operation counters this client tallies into.
    pub fn counters(&self) -> &Arc<OpCounters> {
        &self.counters
    }

    /// The underlying raw store (zero-cost access, for assertions in tests).
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// The network profile this client charges.
    pub fn network(&self) -> &NetworkProfile {
        &self.net
    }

    /// Charges one operation against the network and any installed chaos
    /// engine; `op` is the request identity whose display form appears in
    /// errors and fault logs, while `bucket`/`key` let scoped faults
    /// (outages, brownouts) match the request. Returns the token of the
    /// successful attempt so callers can derive further deterministic
    /// draws (e.g. GET corruption) without consuming extra sequence
    /// numbers.
    ///
    /// Resumable, like every operation built on it: the priced sleep and
    /// the back-off are `task::sleep`s, so the one loop serves a light task
    /// awaiting it and — through [`task::block_on`] — a thread calling the
    /// blocking method of the same name.
    async fn charge(
        &self,
        op: CosOp<'_>,
        bucket: &str,
        key: &str,
        payload: u64,
        service: Duration,
    ) -> Result<u64, StoreError> {
        let chaos = rustwren_sim::chaos::current();
        // The display form is only observable through an installed chaos
        // engine's fault log or the terminal network error; the common
        // path hashes the parts without materializing the string.
        let op_str = chaos.as_ref().map(|_| op.to_string());
        let path = op.path_hash();
        let mut attempt = 0;
        loop {
            attempt += 1;
            // Stateless token: (seed, path, issue instant). Attempts are
            // separated by non-zero service/backoff sleeps, so each retry
            // draws fresh; no shared counter means OS thread interleaving
            // can never leak into the timing or fault stream.
            let token = hash2(self.seed, hash2(path, rustwren_sim::now().as_nanos()));
            let cost = self.net.request_cost(payload, token) + service;
            task::sleep(cost).await;
            let injected = match (chaos.as_deref(), op_str.as_deref()) {
                (Some(c), Some(s)) => c.cos_attempt_fails(s, bucket, key, token),
                _ => false,
            };
            if !injected && !self.net.fails(token) {
                return Ok(token);
            }
            if attempt >= self.max_attempts {
                return Err(StoreError::Network {
                    op: op_str.unwrap_or_else(|| op.to_string()),
                    attempts: attempt,
                });
            }
            // Exponential backoff, as in the COS SDKs.
            task::sleep(rustwren_sim::backoff(Duration::from_millis(50), attempt)).await;
        }
    }

    /// Applies any scheduled GET corruption to a response body. The draw is
    /// derived from the successful request's token, so installing a chaos
    /// engine never perturbs the client's token sequence (timings stay
    /// comparable with fault-free runs).
    fn maybe_corrupt(&self, bucket: &str, key: &str, token: u64, data: Bytes) -> Bytes {
        match rustwren_sim::chaos::current()
            .and_then(|c| c.corrupt_get(bucket, key, hash2(token, 0xC0DE), &data))
        {
            Some(mangled) => Bytes::from(mangled),
            None => data,
        }
    }

    /// `PUT` an object.
    ///
    /// # Errors
    ///
    /// Store errors from the service, or [`StoreError::Network`] after
    /// exhausting retries.
    pub fn put(&self, bucket: &str, key: &str, data: Bytes) -> Result<(), StoreError> {
        task::block_on(self.put_async(bucket, key, data))
    }

    /// `GET` an entire object.
    ///
    /// # Errors
    ///
    /// Store errors from the service, or [`StoreError::Network`] after
    /// exhausting retries.
    pub fn get(&self, bucket: &str, key: &str) -> Result<Bytes, StoreError> {
        task::block_on(self.get_async(bucket, key))
    }

    /// `GET` a byte range `[start, end)` of an object.
    ///
    /// # Errors
    ///
    /// Store errors from the service, or [`StoreError::Network`] after
    /// exhausting retries.
    pub fn get_range(
        &self,
        bucket: &str,
        key: &str,
        start: u64,
        end: u64,
    ) -> Result<Bytes, StoreError> {
        task::block_on(self.get_range_async(bucket, key, start, end))
    }

    /// `HEAD` an object.
    ///
    /// # Errors
    ///
    /// Store errors from the service, or [`StoreError::Network`] after
    /// exhausting retries.
    pub fn head(&self, bucket: &str, key: &str) -> Result<ObjectMeta, StoreError> {
        task::block_on(self.head_async(bucket, key))
    }

    /// `HEAD` a bucket.
    ///
    /// # Errors
    ///
    /// Store errors from the service, or [`StoreError::Network`] after
    /// exhausting retries.
    pub fn head_bucket(&self, bucket: &str) -> Result<BucketMeta, StoreError> {
        task::block_on(self.head_bucket_async(bucket))
    }

    /// `LIST` objects under a prefix.
    ///
    /// # Errors
    ///
    /// Store errors from the service, or [`StoreError::Network`] after
    /// exhausting retries.
    pub fn list(&self, bucket: &str, prefix: &str) -> Result<Vec<ObjectMeta>, StoreError> {
        task::block_on(self.list_async(bucket, prefix))
    }

    /// `DELETE` an object (idempotent).
    ///
    /// # Errors
    ///
    /// Store errors from the service, or [`StoreError::Network`] after
    /// exhausting retries.
    pub fn delete(&self, bucket: &str, key: &str) -> Result<(), StoreError> {
        task::block_on(self.delete_async(bucket, key))
    }

    /// Whether an object exists, charged as a `HEAD`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Network`] after exhausting retries.
    pub fn exists(&self, bucket: &str, key: &str) -> Result<bool, StoreError> {
        task::block_on(self.exists_async(bucket, key))
    }
}

/// The operations as resumable code (see [`rustwren_sim::task`]): what a
/// light task awaits, and the one implementation the blocking methods above
/// drive to completion. Same requests, same charges, same errors.
impl CosClient {
    /// Resumable [`put`](CosClient::put).
    pub async fn put_async(&self, bucket: &str, key: &str, data: Bytes) -> Result<(), StoreError> {
        self.counters.count(&self.counters.puts);
        self.counters
            .bytes_out
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.charge(
            CosOp::new("PUT", bucket, Some(key)),
            bucket,
            key,
            data.len() as u64,
            self.costs.data_op,
        )
        .await?;
        self.store.put(bucket, key, data)
    }

    /// Resumable [`get`](CosClient::get).
    pub async fn get_async(&self, bucket: &str, key: &str) -> Result<Bytes, StoreError> {
        // HEAD-sized request out, payload back: charge on payload size.
        let data = self.store.get(bucket, key)?;
        self.counters.count(&self.counters.gets);
        self.counters
            .bytes_in
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        let token = self
            .charge(
                CosOp::new("GET", bucket, Some(key)),
                bucket,
                key,
                data.len() as u64,
                self.costs.data_op,
            )
            .await?;
        Ok(self.maybe_corrupt(bucket, key, token, data))
    }

    /// Resumable [`get_range`](CosClient::get_range).
    pub async fn get_range_async(
        &self,
        bucket: &str,
        key: &str,
        start: u64,
        end: u64,
    ) -> Result<Bytes, StoreError> {
        let data = self.store.get_range(bucket, key, start, end)?;
        self.counters.count(&self.counters.gets);
        self.counters
            .bytes_in
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        let token = self
            .charge(
                CosOp::new("GET", bucket, Some(key)).with_suffix(OpSuffix::Range(start, end)),
                bucket,
                key,
                data.len() as u64,
                self.costs.data_op,
            )
            .await?;
        Ok(self.maybe_corrupt(bucket, key, token, data))
    }

    /// Resumable [`head`](CosClient::head).
    pub async fn head_async(&self, bucket: &str, key: &str) -> Result<ObjectMeta, StoreError> {
        self.counters.count(&self.counters.heads);
        self.charge(
            CosOp::new("HEAD", bucket, Some(key)),
            bucket,
            key,
            256,
            self.costs.head_op,
        )
        .await?;
        self.store.head(bucket, key)
    }

    /// Resumable [`head_bucket`](CosClient::head_bucket).
    pub async fn head_bucket_async(&self, bucket: &str) -> Result<BucketMeta, StoreError> {
        self.counters.count(&self.counters.heads);
        self.charge(
            CosOp::new("HEAD", bucket, None),
            bucket,
            "",
            256,
            self.costs.head_op,
        )
        .await?;
        self.store.head_bucket(bucket)
    }

    /// Resumable [`list`](CosClient::list).
    pub async fn list_async(
        &self,
        bucket: &str,
        prefix: &str,
    ) -> Result<Vec<ObjectMeta>, StoreError> {
        let mut entries = Vec::new();
        self.list_each_async(bucket, prefix, |o| entries.push(o.meta()))
            .await?;
        Ok(entries)
    }

    /// `LIST` objects under a prefix, visiting each in key order in place
    /// ([`ObjectStore::list_each`]) instead of returning owned metadata.
    /// The listing is what the store holds when the request is issued, and
    /// it is priced, counted and retried as [`list`](CosClient::list) is.
    /// Returns how many objects were listed.
    ///
    /// # Errors
    ///
    /// Store errors from the service, or [`StoreError::Network`] after
    /// exhausting retries (the objects were visited all the same).
    pub async fn list_each_async(
        &self,
        bucket: &str,
        prefix: &str,
        visit: impl FnMut(ListedObject<'_>),
    ) -> Result<usize, StoreError> {
        self.counters.count(&self.counters.lists);
        let entries = self.store.list_each(bucket, prefix, visit)?;
        let batches = (entries as u64).div_ceil(1_000).max(1) as u32;
        self.charge(
            CosOp::new("LIST", bucket, Some(prefix)).with_suffix(OpSuffix::Const("*")),
            bucket,
            prefix,
            entries as u64 * self.costs.list_entry_bytes,
            self.costs.list_op * batches,
        )
        .await?;
        Ok(entries)
    }

    /// Resumable [`delete`](CosClient::delete).
    pub async fn delete_async(&self, bucket: &str, key: &str) -> Result<(), StoreError> {
        self.counters.count(&self.counters.deletes);
        self.charge(
            CosOp::new("DELETE", bucket, Some(key)),
            bucket,
            key,
            64,
            self.costs.delete_op,
        )
        .await?;
        self.store.delete(bucket, key)
    }

    /// Resumable [`exists`](CosClient::exists).
    pub async fn exists_async(&self, bucket: &str, key: &str) -> Result<bool, StoreError> {
        self.counters.count(&self.counters.heads);
        self.charge(
            CosOp::new("HEAD", bucket, Some(key)),
            bucket,
            key,
            256,
            self.costs.head_op,
        )
        .await?;
        Ok(self.store.exists(bucket, key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rustwren_sim::Kernel;
    use std::sync::Arc;

    /// Token-stream parity: the zero-alloc op identity must hash exactly
    /// like the `format!`ed strings the client used to build, or every
    /// recorded timing/fault stream would silently shift.
    #[test]
    fn cos_op_hashes_like_the_formatted_string() {
        use rustwren_sim::hash::hash_str;
        let cases: [(CosOp<'_>, String); 5] = [
            (
                CosOp::new("PUT", "b", Some("k")),
                format!("PUT {}/{}", "b", "k"),
            ),
            (CosOp::new("HEAD", "b", None), format!("HEAD {}", "b")),
            (
                CosOp::new("GET", "b", Some("k")).with_suffix(OpSuffix::Range(0, 65_536)),
                format!("GET {}/{}[{}..{}]", "b", "k", 0, 65_536),
            ),
            (
                CosOp::new("LIST", "b", Some("pre/")).with_suffix(OpSuffix::Const("*")),
                format!("LIST {}/{}*", "b", "pre/"),
            ),
            (
                CosOp::new("POST", "b", Some("k")).with_suffix(OpSuffix::Const(" complete")),
                format!("POST {}/{} complete", "b", "k"),
            ),
        ];
        for (op, wanted) in cases {
            assert_eq!(op.to_string(), wanted);
            assert_eq!(op.path_hash(), hash_str(&wanted), "op {wanted}");
        }
    }

    fn setup(net: NetworkProfile) -> (Kernel, CosClient) {
        let kernel = Kernel::new();
        let store = ObjectStore::new(&kernel);
        store.create_bucket("b").expect("fresh bucket");
        (kernel.clone(), CosClient::new(&store, net, 1))
    }

    #[test]
    fn operations_charge_virtual_time() {
        let (kernel, client) = setup(NetworkProfile::lan());
        kernel.run("client", || {
            client.put("b", "k", Bytes::from_static(b"data")).unwrap();
            assert!(rustwren_sim::now().as_nanos() > 0);
        });
    }

    #[test]
    fn larger_payloads_cost_more() {
        let (kernel, client) = setup(NetworkProfile::wan());
        let (small, big) = kernel.run("client", || {
            let t0 = rustwren_sim::now();
            client
                .put("b", "small", Bytes::from(vec![0u8; 10]))
                .unwrap();
            let t1 = rustwren_sim::now();
            client
                .put("b", "big", Bytes::from(vec![0u8; 50 * 1024 * 1024]))
                .unwrap();
            let t2 = rustwren_sim::now();
            (t1 - t0, t2 - t1)
        });
        assert!(big > small * 2, "big={big:?} small={small:?}");
    }

    #[test]
    fn instant_network_still_pays_service_latency() {
        let (kernel, client) = setup(NetworkProfile::instant());
        kernel.run("client", || {
            client.put("b", "k", Bytes::from_static(b"v")).unwrap();
            let elapsed = rustwren_sim::now();
            assert_eq!(
                elapsed.as_nanos(),
                CosCosts::default().data_op.as_nanos() as u64
            );
        });
    }

    #[test]
    fn failures_are_retried_transparently() {
        let (kernel, client) = setup(NetworkProfile::lan().with_failure_rate(0.3));
        kernel.run("client", || {
            // With p=0.3 and 4 attempts, each op exhausts its retries with
            // probability 0.3^4 ≈ 0.8%; nearly all of the 200 ops succeed
            // even though ~30% of individual requests fail.
            let failures = (0..200)
                .filter(|i| {
                    client
                        .put("b", &format!("k{i}"), Bytes::from_static(b"v"))
                        .is_err()
                })
                .count();
            assert!(failures <= 5, "too many retry exhaustions: {failures}");
        });
    }

    #[test]
    fn certain_failure_reports_network_error_with_attempts() {
        let (kernel, client) = setup(NetworkProfile::lan().with_failure_rate(1.0));
        let client = client.with_max_attempts(3);
        kernel.run("client", || {
            let err = client.get("b", "k").unwrap_err();
            // NoSuchKey surfaces before network charging; use an existing key.
            assert!(matches!(err, StoreError::NoSuchKey { .. }));
            client
                .store()
                .put("b", "k", Bytes::from_static(b"v"))
                .unwrap();
            let err = client.get("b", "k").unwrap_err();
            assert_eq!(
                err,
                StoreError::Network {
                    op: "GET b/k".into(),
                    attempts: 3
                }
            );
        });
    }

    /// The back-off factor once overflowed at the 33rd consecutive failure:
    /// a panic in debug builds, a wrap to a zero back-off in release.
    #[test]
    fn a_retry_budget_past_33_ends_in_the_typed_error() {
        let (kernel, client) = setup(NetworkProfile::lan().with_failure_rate(1.0));
        let client = client.with_max_attempts(40);
        kernel.run("client", || {
            let err = client.head_bucket("b").unwrap_err();
            assert!(
                matches!(err, StoreError::Network { attempts: 40, .. }),
                "{err:?}"
            );
            // Every back-off was taken: none wrapped to zero.
            let slept = rustwren_sim::now().duration_since(rustwren_sim::SimInstant::ZERO);
            let owed: Duration = (1..40)
                .map(|n| rustwren_sim::backoff(Duration::from_millis(50), n))
                .sum();
            assert!(slept > owed, "{slept:?} vs {owed:?}");
        });
    }

    #[test]
    fn timing_is_deterministic_across_runs() {
        let run = || {
            let (kernel, client) = setup(NetworkProfile::wan());
            kernel.run("client", || {
                for i in 0..50 {
                    client
                        .put("b", &format!("k{i}"), Bytes::from(vec![1u8; 1000]))
                        .unwrap();
                }
                rustwren_sim::now().as_nanos()
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn chaos_outage_window_fails_scoped_requests() {
        use rustwren_sim::chaos::{ChaosEngine, FaultPlan, PathScope, TimeWindow};

        let (kernel, client) = setup(NetworkProfile::instant());
        kernel.install_chaos(Arc::new(ChaosEngine::new(FaultPlan::new(11).cos_outage(
            PathScope::prefix("jobs/"),
            TimeWindow::between(Duration::from_secs(1), Duration::from_secs(5000)),
        ))));
        kernel.run("client", || {
            // Before the window: everything works.
            client
                .put("b", "jobs/e/j/func", Bytes::from_static(b"v"))
                .unwrap();
            rustwren_sim::sleep(Duration::from_secs(2));
            // Inside the window: scoped keys fail after retries...
            let err = client.get("b", "jobs/e/j/func").unwrap_err();
            assert!(matches!(err, StoreError::Network { .. }), "got {err:?}");
            // ...but out-of-scope keys are untouched.
            client
                .put("b", "raw/part-0", Bytes::from_static(b"v"))
                .unwrap();
        });
    }

    #[test]
    fn chaos_corruption_mangles_response_not_store() {
        use rustwren_sim::chaos::{ChaosEngine, CorruptMode, FaultPlan, PathScope, TimeWindow};

        let (kernel, client) = setup(NetworkProfile::instant());
        kernel.install_chaos(Arc::new(ChaosEngine::new(
            FaultPlan::new(13)
                .corrupt_get(
                    PathScope::any(),
                    TimeWindow::always(),
                    CorruptMode::FlipByte,
                    1.0,
                )
                .once(),
        )));
        kernel.run("client", || {
            let body = Bytes::from(vec![9u8; 64]);
            client.put("b", "k", body.clone()).unwrap();
            let first = client.get("b", "k").unwrap();
            assert_ne!(first, body, "first GET should be corrupted");
            assert_eq!(first.len(), body.len());
            // The stored object is intact; a re-fetch heals.
            let second = client.get("b", "k").unwrap();
            assert_eq!(second, body);
        });
    }

    #[test]
    fn chaos_does_not_perturb_timing_when_not_firing() {
        use rustwren_sim::chaos::{ChaosEngine, FaultPlan, PathScope, TimeWindow};

        let run = |with_chaos: bool| {
            let (kernel, client) = setup(NetworkProfile::wan());
            if with_chaos {
                // A plan whose window never opens: must be timing-invisible.
                kernel.install_chaos(Arc::new(ChaosEngine::new(FaultPlan::new(1).cos_outage(
                    PathScope::any(),
                    TimeWindow::between(Duration::from_secs(9_000), Duration::from_secs(9_001)),
                ))));
            }
            kernel.run("client", || {
                for i in 0..20 {
                    client
                        .put("b", &format!("k{i}"), Bytes::from(vec![1u8; 1000]))
                        .unwrap();
                    let _ = client.get("b", &format!("k{i}")).unwrap();
                }
                rustwren_sim::now().as_nanos()
            })
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "invalid network profile")]
    fn constructor_rejects_invalid_profile() {
        let kernel = Kernel::new();
        let store = ObjectStore::new(&kernel);
        let mut net = NetworkProfile::lan();
        net.failure_rate = f64::NAN;
        let _ = CosClient::new(&store, net, 1);
    }

    #[test]
    fn op_counters_tally_per_class_and_bytes() {
        let (kernel, client) = setup(NetworkProfile::lan());
        let shared = OpCounters::shared();
        let client = client.with_counters(Arc::clone(&shared));
        kernel.run("client", || {
            client.put("b", "k", Bytes::from(vec![0u8; 100])).unwrap();
            let body = client.get("b", "k").unwrap();
            assert_eq!(body.len(), 100);
            client.list("b", "").unwrap();
            client.exists("b", "k").unwrap();
            client.head("b", "k").unwrap();
            client.delete("b", "k").unwrap();
        });
        let counts = shared.snapshot();
        assert_eq!(counts.puts, 1);
        assert_eq!(counts.gets, 1);
        assert_eq!(counts.lists, 1);
        assert_eq!(counts.heads, 2);
        assert_eq!(counts.deletes, 1);
        assert_eq!(counts.bytes_out, 100);
        assert_eq!(counts.bytes_in, 100);
        assert_eq!(counts.total_ops(), 6);
    }

    #[test]
    fn op_counters_are_shared_across_clones_and_diffable() {
        let (kernel, client) = setup(NetworkProfile::lan());
        let clone = client.clone();
        kernel.run("client", || {
            client.put("b", "a", Bytes::from_static(b"1")).unwrap();
            clone.put("b", "c", Bytes::from_static(b"2")).unwrap();
        });
        let all = client.counters().snapshot();
        assert_eq!(all.puts, 2);
        let later = OpCounts {
            puts: 5,
            ..Default::default()
        };
        assert_eq!(later.since(&all).puts, 3);
        // Retries must not double-count logical operations.
        let (kernel, flaky) = setup(NetworkProfile::lan().with_failure_rate(0.5));
        kernel.run("client", || {
            for i in 0..50 {
                let _ = flaky.put("b", &format!("k{i}"), Bytes::from_static(b"v"));
            }
        });
        assert_eq!(flaky.counters().snapshot().puts, 50);
    }

    #[test]
    fn list_cost_scales_with_entry_count() {
        let (kernel, client) = setup(NetworkProfile::wan());
        for i in 0..500 {
            client
                .store()
                .put("b", &format!("k{i:04}"), Bytes::from_static(b"v"))
                .unwrap();
        }
        kernel.run("client", || {
            let t0 = rustwren_sim::now();
            let one = client.list("b", "k0000").unwrap();
            let t1 = rustwren_sim::now();
            let all = client.list("b", "").unwrap();
            let t2 = rustwren_sim::now();
            assert_eq!(one.len(), 1);
            assert_eq!(all.len(), 500);
            assert!(t2 - t1 > t1 - t0);
        });
    }
}
