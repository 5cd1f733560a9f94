//! Property tests for the wire codec and the partitioner.

use bytes::Bytes;
use proptest::prelude::*;
use rustwren_core::partition::{
    discover, partition_objects, read_aligned_async, DataSource, ObjectRef,
};
use rustwren_core::wire::Value;
use rustwren_sim::{task, Kernel, NetworkProfile};
use rustwren_store::{CosClient, ObjectStore};

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Use finite floats: NaN breaks PartialEq-based roundtrip checks.
        (-1e300f64..1e300).prop_map(Value::Float),
        "[a-zA-Z0-9 _éü]{0,24}".prop_map(Value::Str),
        prop::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bytes),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..8).prop_map(Value::List),
            prop::collection::btree_map("[a-z]{1,8}", inner, 0..8).prop_map(Value::Map),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity for arbitrary values.
    #[test]
    fn codec_roundtrips(v in value_strategy()) {
        let encoded = v.encode();
        prop_assert_eq!(Value::decode(&encoded).expect("well-formed"), v);
    }

    /// The decoder never panics on arbitrary input bytes.
    #[test]
    fn decoder_is_total(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Value::decode(&bytes);
    }

    /// Decoding a truncated valid encoding always errors (never mis-parses).
    #[test]
    fn truncations_error(v in value_strategy(), cut_frac in 0.0f64..1.0) {
        let encoded = v.encode();
        if encoded.len() > 1 {
            let cut = 1 + ((encoded.len() - 1) as f64 * cut_frac) as usize;
            if cut < encoded.len() {
                prop_assert!(Value::decode(&encoded[..cut]).is_err());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Partitions cover each object exactly once, in order.
    #[test]
    fn partitions_tile_objects(
        sizes in prop::collection::vec(0u64..5_000, 1..6),
        chunk in prop::option::of(1u64..1_500),
    ) {
        let kernel = Kernel::new();
        let store = ObjectStore::new(&kernel);
        store.create_bucket("b").expect("fresh bucket");
        for (i, &size) in sizes.iter().enumerate() {
            store
                .put("b", &format!("obj{i}"), Bytes::from(vec![b'x'; size as usize]))
                .expect("put");
        }
        let cos = CosClient::new(&store, NetworkProfile::instant(), 0);
        kernel.run("client", || {
            let objs = discover(&cos, &DataSource::bucket("b")).expect("discovery");
            let parts = partition_objects(&objs, chunk).expect("non-zero chunk");
            // Global indices are sequential.
            for (i, p) in parts.iter().enumerate() {
                prop_assert_eq!(p.index, i);
            }
            // Per object: ranges tile [0, size) without gaps or overlaps.
            for (i, &size) in sizes.iter().enumerate() {
                let key = format!("obj{i}");
                let mut expected_start = 0;
                let mut covered = 0;
                for p in parts.iter().filter(|p| p.key == key) {
                    prop_assert_eq!(p.start, expected_start);
                    prop_assert!(p.end <= size || (size == 0 && p.end == 0));
                    expected_start = p.end;
                    covered = p.end;
                }
                prop_assert_eq!(covered, size);
                if let Some(c) = chunk {
                    let expected = if size == 0 { 1 } else { size.div_ceil(c) as usize };
                    prop_assert_eq!(parts.iter().filter(|p| p.key == key).count(), expected);
                }
            }
            Ok(())
        })?;
    }

    /// Newline-aligned reads reassemble the original object byte-for-byte,
    /// for arbitrary line lengths (including empty lines and a missing
    /// trailing newline).
    #[test]
    fn aligned_reads_reassemble(
        lines in prop::collection::vec("[a-z]{0,40}", 0..30),
        trailing_newline in any::<bool>(),
        chunk in 1u64..64,
    ) {
        let mut text = lines.join("\n");
        if trailing_newline && !text.is_empty() {
            text.push('\n');
        }
        let kernel = Kernel::new();
        let store = ObjectStore::new(&kernel);
        store.create_bucket("b").expect("fresh bucket");
        store.put("b", "f", Bytes::from(text.clone().into_bytes())).expect("put");
        let cos = CosClient::new(&store, NetworkProfile::instant(), 0);
        kernel.run("client", || {
            let objs = discover(&cos, &DataSource::Keys(vec![ObjectRef::new("b", "f")]))
                .expect("discovery");
            let parts = partition_objects(&objs, Some(chunk)).expect("non-zero chunk");
            let mut assembled = Vec::new();
            for p in &parts {
                assembled.extend_from_slice(&task::block_on(read_aligned_async(&cos, p)).expect("aligned read"));
            }
            prop_assert_eq!(assembled, text.as_bytes());
            Ok(())
        })?;
    }
}
