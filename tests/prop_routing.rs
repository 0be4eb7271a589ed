//! Property tests for hash routing: for arbitrary batches, the
//! per-partition split is an exact partition of the input (union equals
//! the input, no row in two sub-batches), and routing is stable across
//! engine restarts — a replayed batch must land where the original did,
//! which recovery relies on.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use sstore::common::{tuple, DataType, Schema, Tuple, Value};
use sstore::engine::engine::{hash_partition, split_by_key};
use sstore::engine::{App, Engine, EngineConfig};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn test_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "sstore-proproute-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn routed_app() -> App {
    App::builder()
        .stream_partitioned("input", Schema::of(&[("key", DataType::Int), ("v", DataType::Int)]), "key")
        .table("out", Schema::of(&[("key", DataType::Int), ("v", DataType::Int)]))
        .proc("sink", &[("ins", "INSERT INTO out (key, v) VALUES (?, ?)")], &[], |ctx| {
            let rows = ctx.input().to_vec();
            for r in rows {
                ctx.sql("ins", &[r.get(0).clone(), r.get(1).clone()])?;
            }
            Ok(())
        })
        .pe_trigger("input", "sink")
        .build()
        .unwrap()
}

/// Per-partition multisets of `(key, v)` rows in `out`.
fn placement(engine: &Engine) -> Vec<Vec<(i64, i64)>> {
    (0..engine.partitions())
        .map(|p| {
            let mut rows: Vec<(i64, i64)> = engine
                .query(p, "SELECT key, v FROM out", vec![])
                .unwrap()
                .rows
                .iter()
                .map(|r| (r.get(0).as_int().unwrap(), r.get(1).as_int().unwrap()))
                .collect();
            rows.sort();
            rows
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The split is an exact partition: every input row appears in
    /// exactly one sub-batch (with its original multiplicity), each
    /// sub-batch holds only rows whose key hashes to it, and relative
    /// order within a sub-batch follows the input.
    #[test]
    fn split_partitions_the_input_exactly(
        keys in proptest::collection::vec(-50i64..50, 0..60),
        partitions in 1usize..6,
    ) {
        let rows: Vec<Tuple> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| tuple![*k, i as i64])
            .collect();
        let parts = split_by_key(rows.clone(), 0, partitions);
        prop_assert_eq!(parts.len(), partitions);
        // No row in two partitions & union equals input: compare the
        // multiset of (key, seq) pairs — seq is unique per input row,
        // so any duplication or loss shows up.
        let mut union: Vec<(i64, i64)> = Vec::new();
        for (p, part) in parts.iter().enumerate() {
            let mut last_seq = -1i64;
            for t in part {
                let key = t.get(0).as_int().unwrap();
                let seq = t.get(1).as_int().unwrap();
                prop_assert_eq!(hash_partition(t.get(0), partitions), p,
                    "row with key {} in wrong sub-batch", key);
                prop_assert!(seq > last_seq, "input order preserved within a sub-batch");
                last_seq = seq;
                union.push((key, seq));
            }
        }
        let mut want: Vec<(i64, i64)> =
            keys.iter().enumerate().map(|(i, k)| (*k, i as i64)).collect();
        union.sort();
        want.sort();
        prop_assert_eq!(union, want);
    }

    /// Routing is a pure function of (key, partition count): stable
    /// across processes-worth of state — and in particular across the
    /// engine restart below.
    #[test]
    fn routing_is_stable_across_engine_restarts(
        keys in proptest::collection::vec(-1000i64..1000, 1..40),
        partitions in 2usize..5,
    ) {
        let rows: Vec<Tuple> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| tuple![*k, i as i64])
            .collect();
        let run = || {
            let config = EngineConfig::default()
                .with_partitions(partitions)
                .with_data_dir(test_dir());
            let engine = Engine::start(config, routed_app()).unwrap();
            engine.ingest("input", rows.clone()).unwrap();
            engine.drain().unwrap();
            let got = placement(&engine);
            engine.shutdown();
            got
        };
        let first = run();
        let second = run(); // a fresh engine = a restart
        prop_assert_eq!(&first, &second, "placement must survive restarts");
        // And the engine's placement agrees with the pure function.
        for (p, rows_on_p) in first.iter().enumerate() {
            for (key, _) in rows_on_p {
                prop_assert_eq!(hash_partition(&Value::Int(*key), partitions), p);
            }
        }
    }
}

/// Routing is a durable contract: replay and every partitioned placement
/// (Linear Road's x-ways included) depend on a key landing where it
/// always has. The two tests above compare runs of one build, so they
/// cannot see a changed route; this table can. Its entries are
/// `hash_partition(key, n)` for n = 2, 3 and 4, as first recorded — a
/// change to them moves data between partitions of an existing engine.
#[test]
fn every_key_routes_where_it_always_has() {
    // Int(-8) through Int(16).
    const INTS: [[usize; 3]; 25] = [
        [1, 2, 3], [0, 1, 1], [0, 0, 0], [0, 0, 0], [0, 1, 1], [0, 0, 0], [0, 0, 0], [1, 1, 2],
        [0, 1, 1], [1, 1, 2], [1, 2, 3], [0, 0, 0], [0, 1, 1], [0, 0, 0], [0, 0, 0], [0, 0, 1],
        [0, 0, 0], [0, 0, 0], [0, 1, 1], [0, 1, 1], [0, 1, 1], [1, 2, 3], [0, 1, 1], [0, 0, 0],
        [1, 1, 2],
    ];
    let mut table: Vec<(Value, [usize; 3])> =
        (-8i64..=16).zip(INTS).map(|(k, p)| (Value::Int(k), p)).collect();
    table.extend([
        (Value::Text("phone".into()), [0, 0, 0]),
        (Value::Text("x-way 7".into()), [0, 1, 1]),
        (Value::Float(2.5), [1, 1, 2]),
        (Value::Null, [0, 0, 0]),
    ]);
    for (key, want) in table {
        let got = [2, 3, 4].map(|n| hash_partition(&key, n));
        assert_eq!(got, want, "{key:?} on 2, 3 and 4 partitions");
    }
}
