//! An index [`Key`] is looked up by the slice of its values, so it must
//! hash, compare and order exactly as that slice does — the `Borrow`
//! contract a map relies on. A key that hashed its one value bare, or
//! ordered a one-column key apart from a composite one, would build and
//! pass every single-kind test while losing rows to lookups.

use std::hash::BuildHasher;

use proptest::prelude::*;
use sstore_common::hash::FxBuildHasher;
use sstore_common::{tuple, DataType, RowId, Schema, Value};
use sstore_storage::index::{Index, IndexDef, Key};
use sstore_storage::{IndexKind, Table, TableKind};

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-3i64..4).prop_map(Value::Int),
        (0usize..5).prop_map(|i| Value::Float([-1.0, 0.0, 1.0, 2.5, f64::NAN][i])),
        (0usize..3).prop_map(|i| Value::Text(["", "a", "ab"][i].into())),
        Just(Value::Null),
    ]
}

fn values() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(value(), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_key_hashes_compares_and_orders_as_its_slice(a in values(), b in values()) {
        let fx = FxBuildHasher::default();
        let (ka, kb) = (Key::from(a.clone()), Key::from(b.clone()));
        prop_assert_eq!(ka.as_slice(), &a[..]);
        prop_assert_eq!(fx.hash_one(&ka), fx.hash_one(&a[..]));
        prop_assert_eq!(fx.hash_one(&kb), fx.hash_one(&b[..]));
        prop_assert_eq!(ka == kb, a[..] == b[..]);
        prop_assert_eq!(ka.cmp(&kb), a[..].cmp(&b[..]));
        // The key an index extracts from a row is the same key.
        let columns: Vec<usize> = (0..a.len()).collect();
        let def = IndexDef { name: "ix".into(), key_columns: columns, kind: IndexKind::Hash, unique: false };
        let extracted = def.key_of(&a);
        prop_assert_eq!(fx.hash_one(&extracted), fx.hash_one(&a[..]));
        prop_assert_eq!(extracted, ka);
    }
}

/// `Int(1)` and `Float(1.0)` are one key (`Value`'s equality is
/// numeric), whichever side stores it and whichever looks it up, in
/// both index kinds — built from rows and maintained row by row.
#[test]
fn an_int_and_an_equal_float_find_each_other_in_both_kinds() {
    for kind in [IndexKind::Hash, IndexKind::BTree] {
        let def = IndexDef { name: "ix".into(), key_columns: vec![0], kind, unique: false };
        let rows = [[Value::Int(1)], [Value::Float(2.0)]];
        let built =
            Index::build(def.clone(), 2, rows.iter().zip(0..).map(|(r, id)| (RowId(id), &r[..]))).unwrap();
        let mut maintained = Index::new(def);
        maintained.insert(vec![Value::Int(1)], RowId(0));
        maintained.insert(vec![Value::Float(2.0)], RowId(1));
        for ix in [&built, &maintained] {
            assert_eq!(ix.get(&[Value::Float(1.0)]), &[RowId(0)], "{kind:?}: Float(1.0) finds Int(1)");
            assert_eq!(ix.get(&[Value::Int(2)]), &[RowId(1)], "{kind:?}: Int(2) finds Float(2.0)");
            assert!(ix.get(&[Value::Float(1.5)]).is_empty());
        }
        assert!(maintained.remove(vec![Value::Float(1.0)], RowId(0)), "{kind:?}: removed by the equal float");
        assert_eq!(maintained.distinct_keys(), 1);
    }
    // Through a table: a Float column's key is found by an Int.
    let schema = Schema::of(&[("x", DataType::Float)]);
    let mut t = Table::new("t", TableKind::Base, schema);
    let unique = IndexDef { name: "u".into(), key_columns: vec![0], kind: IndexKind::Hash, unique: true };
    t.create_index(unique).unwrap();
    t.insert(tuple![1.0]).unwrap();
    assert!(t.index("u").unwrap().contains_key(&[Value::Int(1)]));
}
