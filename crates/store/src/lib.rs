//! # rustwren-store — IBM Cloud Object Storage simulator
//!
//! IBM-PyWren stages everything — serialized jobs, input partitions,
//! intermediate map outputs, statuses and final results — in IBM COS. This
//! crate provides that substrate:
//!
//! * [`ObjectStore`] — the service itself: buckets, objects, range reads,
//!   ETags. Direct access charges no virtual time (out-of-band setup, like
//!   the paper copying datasets into COS before an experiment). An object's
//!   ETag is computed the first time a HEAD or a LIST's metadata asks for
//!   it, and kept: a PUT hashes nothing, and the value is the same function
//!   of the same immutable bytes whenever it is asked.
//! * [`CosClient`] — the client SDK used by simulated actors: every request
//!   pays a [`rustwren_sim::NetworkProfile`] cost (round trip + payload
//!   transfer + jitter) plus a fixed per-operation service latency (9 ms
//!   for a GET or PUT, 5 ms for a HEAD, 14 ms per 1,000 listed keys, 6 ms
//!   for a DELETE), and failures are retried with exponential backoff.
//!
//! ## The vouch
//!
//! A writer that computed its bytes' own integrity stamp PUTs them with
//! [`CosClient::put_vouched_async`], and the store keeps that as one bit per
//! object, which every PUT sets or clears. [`CosClient::get_vouched_async`]
//! reports it only for the store's own allocation of the object: the copy a
//! corrupted read returns is never vouched for. A reader may take a vouched
//! read's stamp as its writer computed it; every other read is checked.
//!
//! ## Example
//!
//! ```
//! use rustwren_sim::{Kernel, NetworkProfile};
//! use rustwren_store::{CosClient, ObjectStore};
//! use bytes::Bytes;
//!
//! let kernel = Kernel::new();
//! let store = ObjectStore::new(&kernel);
//! store.create_bucket("reviews")?;
//!
//! let client = CosClient::new(&store, NetworkProfile::wan(), 7);
//! kernel.run("laptop", || {
//!     client.put("reviews", "nyc.csv", Bytes::from_static(b"great stay!\n"))?;
//!     let meta = client.head("reviews", "nyc.csv")?;
//!     assert_eq!(meta.size, 12);
//!     Ok::<(), rustwren_store::StoreError>(())
//! })?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod error;
mod object;
mod store;

pub use client::{CosClient, OpCounters, OpCounts};
pub use error::StoreError;
pub use object::{BucketMeta, ObjectMeta};
pub use store::{ListedObject, ObjectStore};
