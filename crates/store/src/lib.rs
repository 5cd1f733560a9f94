//! # rustwren-store — IBM Cloud Object Storage simulator
//!
//! IBM-PyWren stages everything — serialized jobs, input partitions,
//! intermediate map outputs, statuses and final results — in IBM COS. This
//! crate provides that substrate:
//!
//! * [`ObjectStore`] — the service itself: buckets, objects, range reads,
//!   ETags. Direct access charges no virtual time (out-of-band setup, like
//!   the paper copying datasets into COS before an experiment).
//! * [`CosClient`] — the client SDK used by simulated actors: every request
//!   pays a [`rustwren_sim::NetworkProfile`] cost (round trip + payload
//!   transfer + jitter) plus per-operation service latency ([`CosCosts`]),
//!   and failures are retried with exponential backoff.
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

pub use client::{CosClient, CosCosts, OpCounters, OpCounts};
pub use error::StoreError;
pub use object::{BucketMeta, ObjectMeta};
pub use store::ObjectStore;
