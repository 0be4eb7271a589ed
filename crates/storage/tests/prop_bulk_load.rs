//! Property test: a table decoded from its snapshot image — rows
//! appended in id order, every index built in one pass
//! (`Table::bulk_load`) — is indistinguishable from the same table
//! rebuilt the transactional way, row at a time: `Table::new`, one
//! `create_index` per definition, one `insert_with_id` per row,
//! `advance_row_id_counter`. Indistinguishable now, and still after
//! the same further mutations are applied to both.
//!
//! The source table is grown by random inserts, updates and deletes, so
//! its row ids have gaps and its row-id counter runs ahead of the
//! highest live id.

use proptest::prelude::*;
use sstore_common::{Column, DataType, Error, RowId, Schema, Tuple, Value};
use sstore_storage::index::IndexDef;
use sstore_storage::snapshot::{decode_catalog, encode_catalog};
use sstore_storage::{Catalog, IndexKind, Table, TableKind};

const MAX_COLS: usize = 4;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<i64>),
    UpdateNth(usize, Vec<i64>),
    DeleteNth(usize),
}

/// Cell seeds: -1 is NULL where the column allows it; the small domain
/// makes unique-key collisions (refused mutations) common.
fn cells() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-1i64..6, MAX_COLS..MAX_COLS + 1)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        cells().prop_map(Op::Insert),
        cells().prop_map(Op::Insert),
        (0usize..64, cells()).prop_map(|(nth, c)| Op::UpdateNth(nth, c)),
        (0usize..64).prop_map(Op::DeleteNth),
    ]
}

/// Column `i` from its type seed: Int / Float / Text, nullable or not.
fn schema(ncols: usize, types: &[u8]) -> Schema {
    let cols = (0..ncols)
        .map(|i| {
            let dtype = [DataType::Int, DataType::Float, DataType::Text][(types[i] % 3) as usize];
            let name = format!("c{i}");
            if types[i] >= 3 { Column::nullable(name, dtype) } else { Column::new(name, dtype) }
        })
        .collect();
    Schema::new(cols).unwrap()
}

fn row(schema: &Schema, cells: &[i64]) -> Tuple {
    let values = schema
        .columns()
        .iter()
        .zip(cells)
        .map(|(col, &c)| match (c, col.dtype) {
            (-1, _) if col.nullable => Value::Null,
            (c, DataType::Int) => Value::Int(c),
            (c, DataType::Float) => Value::Float(c as f64 * 0.5),
            (c, _) => Value::Text(format!("s{c}")),
        })
        .collect();
    Tuple::new(values)
}

/// Index `i` from its seed: hash/B-tree × unique/not, one to three key
/// columns (composite keys may name a column twice).
fn index_defs(ncols: usize, seeds: &[(u8, Vec<usize>)]) -> Vec<IndexDef> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, (flavour, cols))| IndexDef {
            name: format!("ix{i}"),
            key_columns: cols.iter().map(|c| c % ncols).collect(),
            kind: if flavour % 2 == 0 { IndexKind::Hash } else { IndexKind::BTree },
            unique: flavour / 2 == 1,
        })
        .collect()
}

/// Applies `op`; a refused mutation (unique collision) leaves the table
/// as it was. Returns whether it was applied.
fn apply(t: &mut Table, op: &Op) -> bool {
    let nth_live = |t: &Table, nth: usize| -> Option<RowId> {
        let live: Vec<RowId> = t.scan_ordered().map(|(id, _)| id).collect();
        (!live.is_empty()).then(|| live[nth % live.len()])
    };
    match op {
        Op::Insert(c) => t.insert(row(t.schema(), c)).is_ok(),
        Op::UpdateNth(nth, c) => match nth_live(t, *nth) {
            Some(id) => t.update(id, row(t.schema(), c)).is_ok(),
            None => false,
        },
        Op::DeleteNth(nth) => match nth_live(t, *nth) {
            Some(id) => t.delete(id).is_ok(),
            None => false,
        },
    }
}

fn assert_same(bulk: &Table, reference: &Table) -> Result<(), TestCaseError> {
    prop_assert_eq!(bulk.len(), reference.len());
    prop_assert_eq!(bulk.peek_next_row_id(), reference.peek_next_row_id());
    bulk.verify().unwrap();
    reference.verify().unwrap();
    prop_assert!(bulk.index_defs().eq(reference.index_defs()));
    let rows: Vec<(RowId, Tuple)> = reference.scan_ordered().map(|(id, t)| (id, t.clone())).collect();
    prop_assert_eq!(bulk.scan_ordered().map(|(id, t)| (id, t.clone())).collect::<Vec<_>>(), rows.clone());
    for def in reference.index_defs() {
        let (b, r) = (bulk.index(&def.name).unwrap(), reference.index(&def.name).unwrap());
        prop_assert_eq!(b.distinct_keys(), r.distinct_keys());
        // Every present key, then some absent ones.
        let mut keys: Vec<Vec<Value>> =
            rows.iter().map(|(_, t)| def.key_of(t.values()).as_slice().to_vec()).collect();
        keys.push(def.key_columns.iter().map(|_| Value::Int(99)).collect());
        keys.push(def.key_columns.iter().map(|_| Value::Null).collect());
        for key in &keys {
            prop_assert_eq!(b.get(key), r.get(key), "index {} key {:?}", def.name, key);
            prop_assert!(b.get(key).windows(2).all(|w| w[0] < w[1]), "rows under {:?} not in id order", key);
        }
        // The whole walk: keys in order, rows under each in id order.
        // (A hash index has no cursor, on both sides.)
        prop_assert_eq!(
            b.cursor().map(|c| c.collect::<Vec<_>>()),
            r.cursor().map(|c| c.collect::<Vec<_>>())
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bulk_load_equals_row_at_a_time(
        ncols in 1usize..MAX_COLS + 1,
        types in proptest::collection::vec(0u8..6, MAX_COLS..MAX_COLS + 1),
        index_seeds in proptest::collection::vec(
            (0u8..4, proptest::collection::vec(0usize..MAX_COLS, 1..4)),
            0..4,
        ),
        history in proptest::collection::vec(op(), 0..120),
        further in proptest::collection::vec(op(), 50..51),
    ) {
        let schema = schema(ncols, &types);
        let defs = index_defs(ncols, &index_seeds);

        let mut catalog = Catalog::new();
        let source = catalog.create_table("t", TableKind::Base, schema.clone()).unwrap();
        for def in &defs {
            source.create_index(def.clone()).unwrap();
        }
        for op in &history {
            apply(source, op);
        }

        // Row at a time, from the same rows the image holds.
        let mut reference = Table::new("t", TableKind::Base, schema);
        for def in &defs {
            reference.create_index(def.clone()).unwrap();
        }
        for (id, t) in source.scan_ordered() {
            reference.insert_with_id(id, t.clone()).unwrap();
        }
        reference.advance_row_id_counter(source.peek_next_row_id().raw());

        let mut decoded = decode_catalog(&encode_catalog(&catalog)).unwrap();
        let bulk = decoded.table_mut("t").unwrap();
        assert_same(bulk, &reference)?;

        for op in &further {
            prop_assert_eq!(apply(bulk, op), apply(&mut reference, op), "{:?}", op);
        }
        assert_same(bulk, &reference)?;
    }
}

/// A unique B-tree built over rows that hold a duplicate is refused,
/// and the error names the duplicated key — one column or three — not
/// some other key the build passed.
#[test]
fn a_duplicate_under_a_unique_btree_is_refused_naming_its_key() {
    let schema = schema(3, &[0, 2, 1]);
    for (key_columns, want) in [(vec![0], "3"), (vec![0, 1, 2], "3,'s3',1.5")] {
        let mut table = Table::new("t", TableKind::Base, schema.clone());
        for c in [1i64, 3, 2, 5, 3, 4] {
            table.insert(row(&schema, &[c, c, c])).unwrap();
        }
        let def = IndexDef { name: "u".into(), key_columns, kind: IndexKind::BTree, unique: true };
        match table.create_index(def) {
            Err(Error::UniqueViolation { index, key }) => {
                assert_eq!((index.as_str(), key.as_str()), ("u", want))
            }
            other => panic!("expected a unique violation, got {other:?}"),
        }
        assert!(table.index("u").is_none(), "a refused index is not added");
    }
}
