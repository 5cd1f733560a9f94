//! Property tests for object-store semantics.

use bytes::Bytes;
use proptest::prelude::*;
use rustwren_sim::Kernel;
use rustwren_store::{ObjectStore, StoreError};

/// PUTs `data` under `key` in bucket `b` and returns the ETag HEAD reads.
fn put_etag(store: &ObjectStore, key: &str, data: Bytes) -> u64 {
    store.put("b", key, data).expect("put");
    store.head("b", key).expect("head").etag
}

/// A random sequence of store operations applied both to the simulator and
/// to a simple model (`std::collections::BTreeMap`), which must agree.
#[derive(Debug, Clone)]
enum Op {
    Put(String, Vec<u8>),
    Get(String),
    Delete(String),
    List(String),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = prop::sample::select(vec!["a", "b", "dir/x", "dir/y", "zz"]).prop_map(str::to_owned);
    prop_oneof![
        (key.clone(), prop::collection::vec(any::<u8>(), 0..64)).prop_map(|(k, v)| Op::Put(k, v)),
        key.clone().prop_map(Op::Get),
        key.prop_map(Op::Delete),
        prop::sample::select(vec!["", "dir/", "z"]).prop_map(|p| Op::List(p.to_owned())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn store_matches_model(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let store = ObjectStore::new(&Kernel::new());
        store.create_bucket("b").expect("fresh bucket");
        let mut model = std::collections::BTreeMap::<String, Vec<u8>>::new();

        for op in ops {
            match op {
                Op::Put(k, v) => {
                    store.put("b", &k, Bytes::from(v.clone())).expect("put");
                    model.insert(k, v);
                }
                Op::Get(k) => {
                    match (store.get("b", &k), model.get(&k)) {
                        (Ok(got), Some(want)) => prop_assert_eq!(got.as_ref(), &want[..]),
                        (Err(StoreError::NoSuchKey { .. }), None) => {}
                        (got, want) => prop_assert!(false, "mismatch: {:?} vs {:?}", got, want),
                    }
                }
                Op::Delete(k) => {
                    store.delete("b", &k).expect("delete");
                    model.remove(&k);
                }
                Op::List(p) => {
                    let got: Vec<String> =
                        store.list("b", &p).expect("list").into_iter().map(|m| m.key).collect();
                    let want: Vec<String> =
                        model.keys().filter(|k| k.starts_with(&p)).cloned().collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
    }

    /// Any in-bounds range read equals the slice of the full object.
    #[test]
    fn range_reads_equal_slices(
        data in prop::collection::vec(any::<u8>(), 1..512),
        start_frac in 0.0f64..1.0,
        len in 0usize..600,
    ) {
        let store = ObjectStore::new(&Kernel::new());
        store.create_bucket("b").expect("fresh bucket");
        store.put("b", "k", Bytes::from(data.clone())).expect("put");
        let start = ((data.len() - 1) as f64 * start_frac) as u64;
        let end = start + len as u64;
        let got = store.get_range("b", "k", start, end).expect("in-bounds range");
        let want = &data[start as usize..(end as usize).min(data.len())];
        prop_assert_eq!(got.as_ref(), want);
    }

    /// ETags distinguish different contents under the same key.
    #[test]
    fn etag_reflects_content(a in prop::collection::vec(any::<u8>(), 0..128),
                             b in prop::collection::vec(any::<u8>(), 0..128)) {
        let store = ObjectStore::new(&Kernel::new());
        store.create_bucket("b").expect("fresh bucket");
        let e1 = put_etag(&store, "k", Bytes::from(a.clone()));
        let e2 = put_etag(&store, "k", Bytes::from(b.clone()));
        if a == b {
            prop_assert_eq!(e1, e2);
        } else {
            prop_assert_ne!(e1, e2);
        }
    }

    /// Any single flipped byte of a short object changes its ETag,
    /// wherever it sits: a whole block, or the zero-padded tail.
    #[test]
    fn etag_sees_every_byte(data in prop::collection::vec(any::<u8>(), 1..101),
                            at in any::<usize>(),
                            flip in 0u8..255) {
        let store = ObjectStore::new(&Kernel::new());
        store.create_bucket("b").expect("fresh bucket");
        let i = at % data.len();
        let mut flipped = data.clone();
        flipped[i] ^= flip + 1;
        let e1 = put_etag(&store, "k", Bytes::from(data));
        let e2 = put_etag(&store, "k", Bytes::from(flipped));
        prop_assert!(e1 != e2, "byte {}", i);
    }

    /// The ETag names the key too, and not the advertised size: the same
    /// bytes under two keys differ, and `put`/`put_scaled` agree.
    #[test]
    fn etag_covers_key_and_content_only(data in prop::collection::vec(any::<u8>(), 0..128),
                                        logical in any::<u64>()) {
        let store = ObjectStore::new(&Kernel::new());
        store.create_bucket("b").expect("fresh bucket");
        let data = Bytes::from(data);
        let plain = put_etag(&store, "k", data.clone());
        let other = put_etag(&store, "other", data.clone());
        store.put_scaled("b", "k", data, logical).expect("put scaled");
        let scaled = store.head("b", "k").expect("head").etag;
        prop_assert_ne!(plain, other);
        prop_assert_eq!(plain, scaled);
    }
}
