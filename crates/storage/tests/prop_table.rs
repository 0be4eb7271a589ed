//! Property tests: a `Table` with indexes behaves like a naive model
//! (a vector of rows), under arbitrary interleavings of insert / delete /
//! update, and snapshots round-trip arbitrary catalogs.

use proptest::prelude::*;
use sstore_common::{DataType, Schema, Tuple, Value};
use sstore_storage::index::IndexDef;
use sstore_storage::snapshot::{decode_catalog, encode_catalog};
use sstore_storage::{Catalog, IndexKind, Table, TableKind};

#[derive(Debug, Clone)]
enum Op {
    Insert { key: i64, payload: i64 },
    DeleteNth(usize),
    UpdateNth { nth: usize, key: i64, payload: i64 },
    LookupKey(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..50, any::<i64>()).prop_map(|(key, payload)| Op::Insert { key, payload }),
        (0usize..64).prop_map(Op::DeleteNth),
        (0usize..64, 0i64..50, any::<i64>())
            .prop_map(|(nth, key, payload)| Op::UpdateNth { nth, key, payload }),
        (0i64..50).prop_map(Op::LookupKey),
    ]
}

fn schema() -> Schema {
    Schema::of(&[("k", DataType::Int), ("v", DataType::Int)])
}

fn make_table(unique: bool) -> Table {
    let mut t = Table::new("t", TableKind::Base, schema());
    t.create_index(IndexDef {
        name: "by_k".into(),
        key_columns: vec![0],
        kind: IndexKind::Hash,
        unique,
    })
    .unwrap();
    t.create_index(IndexDef {
        name: "by_k_bt".into(),
        key_columns: vec![0],
        kind: IndexKind::BTree,
        unique: false,
    })
    .unwrap();
    t
}

fn row(key: i64, payload: i64) -> Tuple {
    Tuple::new(vec![Value::Int(key), Value::Int(payload)])
}

/// The model: live rows as (rowid-ordinal, key, payload), in insert order.
type Model = Vec<(u64, i64, i64)>;

fn model_lookup(model: &Model, key: i64) -> Vec<u64> {
    let mut ids: Vec<u64> = model.iter().filter(|(_, k, _)| *k == key).map(|(id, _, _)| *id).collect();
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn table_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120),
                           unique in any::<bool>()) {
        let mut table = make_table(unique);
        let mut model: Model = Vec::new();

        for op in ops {
            match op {
                Op::Insert { key, payload } => {
                    let dup = model.iter().any(|(_, k, _)| *k == key);
                    let res = table.insert(row(key, payload));
                    if unique && dup {
                        prop_assert!(res.is_err(), "unique index must reject dup key {key}");
                    } else {
                        let id = res.unwrap();
                        model.push((id.raw(), key, payload));
                    }
                }
                Op::DeleteNth(nth) => {
                    if model.is_empty() { continue; }
                    let idx = nth % model.len();
                    let (id, k, v) = model.remove(idx);
                    let got = table.delete(sstore_common::RowId(id)).unwrap();
                    prop_assert_eq!(got, row(k, v));
                }
                Op::UpdateNth { nth, key, payload } => {
                    if model.is_empty() { continue; }
                    let idx = nth % model.len();
                    let (id, old_k, _) = model[idx];
                    let dup = key != old_k && model.iter().any(|(mid, k, _)| *mid != id && *k == key);
                    let res = table.update(sstore_common::RowId(id), row(key, payload));
                    if unique && dup {
                        prop_assert!(res.is_err());
                    } else {
                        res.unwrap();
                        model[idx] = (id, key, payload);
                    }
                }
                Op::LookupKey(key) => {
                    let mut got: Vec<u64> =
                        table.lookup_eq(&[0], &[Value::Int(key)]).iter().map(|r| r.raw()).collect();
                    got.sort_unstable();
                    prop_assert_eq!(got, model_lookup(&model, key));
                }
            }
            prop_assert_eq!(table.len(), model.len());
            table.verify().unwrap();
        }

        // Final full-state check: scan_ordered == model sorted by id.
        let mut sorted = model.clone();
        sorted.sort_by_key(|(id, _, _)| *id);
        let scanned: Vec<(u64, i64, i64)> = table
            .scan_ordered()
            .into_iter()
            .map(|(id, t)| (id.raw(), t[0].as_int().unwrap(), t[1].as_int().unwrap()))
            .collect();
        prop_assert_eq!(scanned, sorted);
    }

    #[test]
    fn snapshot_roundtrips_random_tables(
        rows in proptest::collection::vec((0i64..1000, any::<i64>()), 0..80),
        deletes in proptest::collection::vec(any::<usize>(), 0..40),
    ) {
        let mut catalog = Catalog::new();
        let t = catalog.create_table("t", TableKind::Base, schema()).unwrap();
        t.create_index(IndexDef {
            name: "by_k".into(),
            key_columns: vec![0],
            kind: IndexKind::BTree,
            unique: false,
        }).unwrap();
        let mut live: Vec<u64> = Vec::new();
        for (k, v) in rows {
            live.push(t.insert(row(k, v)).unwrap().raw());
        }
        for d in deletes {
            if live.is_empty() { break; }
            let idx = d % live.len();
            let id = live.swap_remove(idx);
            t.delete(sstore_common::RowId(id)).unwrap();
        }

        let restored = decode_catalog(&encode_catalog(&catalog)).unwrap();
        let orig = catalog.table("t").unwrap();
        let rest = restored.table("t").unwrap();
        prop_assert_eq!(orig.len(), rest.len());
        prop_assert_eq!(orig.peek_next_row_id(), rest.peek_next_row_id());
        let a: Vec<_> = orig.scan_ordered().into_iter().map(|(i, t)| (i, t.clone())).collect();
        let b: Vec<_> = rest.scan_ordered().into_iter().map(|(i, t)| (i, t.clone())).collect();
        prop_assert_eq!(a, b);
    }
}
