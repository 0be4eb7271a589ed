//! Property test: a table's group indexes equal a fold of its rows
//! after any interleaving of insert / update / delete / undo-restore
//! (`insert_with_id`) / truncate / bulk reload, whether the index was
//! following the mutations or caught up at a read — checked against an
//! oracle written here and by `Table::verify`.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sstore_common::{Column, DataType, RowId, Schema, Tuple, Value};
use sstore_storage::{ColAcc, GroupAcc, GroupIndexDef, Table, TableKind};

fn schema() -> Schema {
    Schema::new(vec![
        Column::nullable("k", DataType::Int),
        Column::nullable("v", DataType::Int),
        Column::nullable("s", DataType::Text),
    ])
    .unwrap()
}

fn defs() -> Vec<GroupIndexDef> {
    vec![
        GroupIndexDef { key_columns: vec![0], agg_columns: vec![1, 2] },
        GroupIndexDef { key_columns: vec![], agg_columns: vec![1] },
        GroupIndexDef { key_columns: vec![2, 0], agg_columns: vec![] },
    ]
}

fn row((k, v, s): (u8, u8, u8)) -> Tuple {
    let summands = [i64::MAX, i64::MIN, -1, 0, 1, 7, -40];
    Tuple::new(vec![
        if k % 6 == 0 { Value::Null } else { Value::Int(i64::from(k % 6) - 3) },
        if v % 8 == 0 { Value::Null } else { Value::Int(summands[usize::from(v) % 7]) },
        if s % 4 == 0 { Value::Null } else { Value::Text(["", "a", "b"][usize::from(s) % 3].into()) },
    ])
}

#[derive(Debug, Clone)]
enum Op {
    Insert((u8, u8, u8)),
    UpdateNth(usize, (u8, u8, u8)),
    DeleteNth(usize),
    /// Delete then put back under the same id, as an abort does.
    RestoreNth(usize),
    Truncate,
    /// Rebuild the table from its rows, as a snapshot restore does.
    Reload,
    /// A reader arrives (`refresh_group_index`).
    Read(usize),
}

fn op() -> impl Strategy<Value = Op> {
    let cells = || (any::<u8>(), any::<u8>(), any::<u8>());
    prop_oneof![
        cells().prop_map(Op::Insert),
        cells().prop_map(Op::Insert),
        cells().prop_map(Op::Insert),
        (0usize..64, cells()).prop_map(|(n, c)| Op::UpdateNth(n, c)),
        (0usize..64).prop_map(Op::DeleteNth),
        (0usize..64).prop_map(Op::DeleteNth),
        (0usize..64).prop_map(Op::RestoreNth),
        (0u8..24).prop_map(|n| if n == 0 { Op::Truncate } else { Op::Reload }),
        (0usize..3).prop_map(Op::Read),
        (0usize..3).prop_map(Op::Read),
    ]
}

/// What `def`'s index must hold: a fold of the rows in scan order.
fn fold(t: &Table, def: &GroupIndexDef) -> BTreeMap<Vec<Value>, GroupAcc> {
    let mut groups: BTreeMap<Vec<Value>, GroupAcc> = BTreeMap::new();
    for (_, tuple) in t.scan_ordered() {
        let key = def.key_columns.iter().map(|&c| tuple.get(c).clone()).collect();
        let acc = groups.entry(key).or_insert_with(|| GroupAcc {
            rows: 0,
            cols: vec![ColAcc::default(); def.agg_columns.len()],
        });
        acc.rows += 1;
        for (col, &c) in acc.cols.iter_mut().zip(&def.agg_columns) {
            match tuple.get(c) {
                Value::Null => {}
                Value::Int(v) => {
                    col.non_null += 1;
                    col.sum += i128::from(*v);
                    col.abs += u128::from(v.unsigned_abs());
                }
                _ => col.non_null += 1,
            }
        }
    }
    groups
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn group_indexes_equal_a_fold_of_the_rows(ops in proptest::collection::vec(op(), 1..160)) {
        let mut t = Table::new("t", TableKind::Window, schema());
        for def in defs() {
            t.create_group_index(def).unwrap();
        }
        let nth = |t: &Table, n: usize| -> Option<RowId> {
            let live: Vec<RowId> = t.scan_ordered().map(|(id, _)| id).collect();
            (!live.is_empty()).then(|| live[n % live.len()])
        };
        for op in &ops {
            match op {
                Op::Insert(c) => drop(t.insert(row(*c)).unwrap()),
                Op::UpdateNth(n, c) => {
                    if let Some(id) = nth(&t, *n) {
                        t.update(id, row(*c)).unwrap();
                    }
                }
                Op::DeleteNth(n) => {
                    if let Some(id) = nth(&t, *n) {
                        t.delete(id).unwrap();
                    }
                }
                Op::RestoreNth(n) => {
                    if let Some(id) = nth(&t, *n) {
                        let tuple = t.delete(id).unwrap();
                        t.insert_with_id(id, tuple).unwrap();
                    }
                }
                Op::Truncate => t.truncate(),
                Op::Reload => {
                    let rows: Vec<_> = t.scan_ordered().map(|(id, tu)| Ok((id, tu.clone()))).collect();
                    let next = t.peek_next_row_id().raw();
                    let mut fresh = Table::bulk_load(
                        "t", TableKind::Window, schema(), next, Vec::new(), rows.len(), rows.into_iter(),
                    ).unwrap();
                    for def in t.group_index_defs() {
                        fresh.create_group_index(def.clone()).unwrap();
                    }
                    t = fresh;
                }
                Op::Read(i) => t.refresh_group_index(&defs()[*i]),
            }
            t.verify().unwrap();
            for def in defs() {
                // Behind its table, an index says so and claims nothing.
                if let Some(groups) = t.group_index(&def).unwrap().groups() {
                    let got: BTreeMap<Vec<Value>, GroupAcc> =
                        groups.map(|(k, acc)| (k.to_vec(), acc.clone())).collect();
                    prop_assert_eq!(got, fold(&t, &def), "{:?} after {:?}", def, op);
                }
            }
        }
        // Two reads with nothing between them: the second finds the
        // index caught up, whatever the history left it as.
        for def in defs() {
            t.refresh_group_index(&def);
            t.refresh_group_index(&def);
            let got: BTreeMap<Vec<Value>, GroupAcc> = t
                .group_index(&def)
                .unwrap()
                .groups()
                .expect("current after a quiet read")
                .map(|(k, acc)| (k.to_vec(), acc.clone()))
                .collect();
            prop_assert_eq!(got, fold(&t, &def), "{:?} at the end", def);
        }
    }
}
