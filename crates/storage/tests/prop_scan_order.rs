//! Property test for the one run of rows a `Table` is: under arbitrary
//! interleavings of insert / delete / update / truncate / aborted
//! insert / re-insert under an old id (the undo path, before and after
//! the tombstone it left was trimmed or swept) / snapshot round-trips,
//! `scan_ordered` always agrees with a naive sort-by-RowId oracle over
//! the live rows, `ScanChunks` makes the same walk at any chunk size,
//! `get` / `contains` answer for every id ever issued (and some never
//! issued) as the model does, and `Table::verify` finds nothing wrong.
//!
//! Rows are found in the run by arithmetic on their ids (`locate`), and
//! deletes trim tombstones off both ends and sweep the middle, so this
//! is the test that keeps that bookkeeping honest.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use sstore_common::{DataType, RowId, Schema, Tuple, Value};
use sstore_storage::index::IndexDef;
use sstore_storage::snapshot::{decode_catalog, encode_catalog};
use sstore_storage::{Catalog, IndexKind, Table, TableKind};

#[derive(Debug, Clone)]
enum Op {
    Insert { key: i64 },
    /// Insert, then delete the row just inserted: an aborted insert,
    /// which leaves a gap in the ids and nothing in the run.
    AbortedInsert,
    DeleteNth(usize),
    /// Delete up to `n` consecutive live rows from the nth on — one
    /// DELETE statement's worth, enough at a time to bring on the sweep.
    DeleteRun { nth: usize, n: usize },
    UpdateNth { nth: usize, key: i64 },
    /// Delete the nth live row, then immediately re-insert its tuple
    /// under its original id — undo reaching its own tombstone.
    ReinsertNth(usize),
    /// Re-insert the nth row of the graveyard (rows deleted at any time
    /// before) under its original id — undo after its tombstone was
    /// trimmed off an end or swept from the middle: the id may lie
    /// before the run, inside it or past its end.
    RestoreNth(usize),
    Truncate,
    /// Encode the catalog and decode it back, continuing on the restored
    /// table (`bulk_load` of an image whose ids have gaps).
    SnapshotRoundtrip,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..1000).prop_map(|key| Op::Insert { key }),
        (0i64..1000).prop_map(|key| Op::Insert { key }),
        (0usize..1).prop_map(|_| Op::AbortedInsert),
        (0usize..64).prop_map(Op::DeleteNth),
        (0usize..64).prop_map(Op::DeleteNth),
        (0usize..64, 1usize..64).prop_map(|(nth, n)| Op::DeleteRun { nth, n }),
        (0usize..64, 0i64..1000).prop_map(|(nth, key)| Op::UpdateNth { nth, key }),
        (0usize..64).prop_map(Op::ReinsertNth),
        (0usize..64).prop_map(Op::RestoreNth),
        (0usize..64).prop_map(Op::RestoreNth),
        (0u8..12).prop_map(|n| if n == 0 { Op::Truncate } else { Op::SnapshotRoundtrip }),
    ]
}

fn schema() -> Schema {
    Schema::of(&[("k", DataType::Int)])
}

fn row(key: i64) -> Tuple {
    Tuple::new(vec![Value::Int(key)])
}

fn fresh_table() -> Table {
    let mut t = Table::new("t", TableKind::Base, schema());
    t.create_index(IndexDef {
        name: "k_btree".into(),
        key_columns: vec![0],
        kind: IndexKind::BTree,
        unique: false,
    })
    .unwrap();
    t
}

/// Oracle: live rows, raw id → key.
type Model = BTreeMap<u64, i64>;

/// Middle deletes that emptied a run of at least sixteen tombstones: the
/// sweep (or, rarely, a long trim) — counted so the test can say the
/// restores it makes really do come after one.
static SWEEPS: AtomicUsize = AtomicUsize::new(0);

fn check_against_oracle(table: &Table, model: &Model) -> Result<(), TestCaseError> {
    let verified = table.verify();
    prop_assert!(verified.is_ok(), "{:?}", verified);
    let got: Vec<(u64, i64)> =
        table.scan_ordered().map(|(id, t)| (id.raw(), t.get(0).as_int().unwrap())).collect();
    let expect: Vec<(u64, i64)> = model.iter().map(|(id, k)| (*id, *k)).collect();
    prop_assert_eq!(&got, &expect, "scan_ordered must equal sort-by-RowId oracle");
    prop_assert_eq!(table.len(), model.len());
    // The run holds at most as many tombstones as live rows (or sixteen).
    prop_assert!(table.tombstones() <= table.len().max(16));
    // The chunked cursor makes the same walk, whatever the chunk size.
    let rows: Vec<&[Value]> = table.scan_ordered().map(|(_, t)| t.values()).collect();
    for cap in [1, 7, 1024] {
        let (mut cursor, mut chunked) = (table.scan_chunks(), Vec::new());
        while cursor.next_chunk(cap, &mut chunked) {}
        prop_assert_eq!(&chunked, &rows, "chunks of {}", cap);
    }
    // Every id ever issued — live, deleted, trimmed, swept, lost to an
    // aborted insert — and two never issued.
    for id in 0..table.peek_next_row_id().raw() + 2 {
        let expect = model.get(&id).map(|k| row(*k));
        prop_assert_eq!(table.get(RowId(id)), expect.as_ref(), "get({})", id);
        prop_assert_eq!(table.contains(RowId(id)), expect.is_some(), "contains({})", id);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    fn every_history(
        seeded in 0usize..80,
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let mut table = fresh_table();
        let mut model = Model::new();
        let mut graveyard: Vec<(u64, i64)> = Vec::new();
        for key in 0..seeded as i64 {
            model.insert(table.insert(row(key)).unwrap().raw(), key);
        }
        let nth_live = |model: &Model, nth: usize| model.keys().nth(nth % model.len().max(1)).copied();

        for op in ops {
            match op {
                Op::Insert { key } => {
                    let id = table.insert(row(key)).unwrap();
                    prop_assert!(model.insert(id.raw(), key).is_none(), "id {} reissued", id);
                    prop_assert!(graveyard.iter().all(|(dead, _)| *dead != id.raw()), "id {} reissued", id);
                }
                Op::AbortedInsert => {
                    let id = table.insert(row(-1)).unwrap();
                    table.delete(id).unwrap();
                }
                Op::DeleteNth(nth) => {
                    let Some(id) = nth_live(&model, nth) else { continue };
                    let key = model.remove(&id).unwrap();
                    prop_assert_eq!(table.delete(RowId(id)).unwrap(), row(key));
                    graveyard.push((id, key));
                }
                Op::DeleteRun { nth, n } => {
                    let Some(from) = nth_live(&model, nth) else { continue };
                    let ids: Vec<u64> = model.range(from..).take(n).map(|(id, _)| *id).collect();
                    for id in ids {
                        let key = model.remove(&id).unwrap();
                        let before = table.tombstones();
                        prop_assert_eq!(table.delete(RowId(id)).unwrap(), row(key));
                        if before >= 16 && table.tombstones() == 0 {
                            SWEEPS.fetch_add(1, Ordering::Relaxed);
                        }
                        graveyard.push((id, key));
                        check_against_oracle(&table, &model)?;
                    }
                }
                Op::UpdateNth { nth, key } => {
                    let Some(id) = nth_live(&model, nth) else { continue };
                    table.update(RowId(id), row(key)).unwrap();
                    model.insert(id, key);
                }
                Op::ReinsertNth(nth) => {
                    let Some(id) = nth_live(&model, nth) else { continue };
                    let gone = table.delete(RowId(id)).unwrap();
                    table.insert_with_id(RowId(id), gone).unwrap();
                }
                Op::RestoreNth(nth) => {
                    if graveyard.is_empty() { continue; }
                    let (id, key) = graveyard.swap_remove(nth % graveyard.len());
                    table.insert_with_id(RowId(id), row(key)).unwrap();
                    model.insert(id, key);
                    // A live id is refused and nothing changes.
                    prop_assert!(table.insert_with_id(RowId(id), row(key)).is_err());
                }
                Op::Truncate => {
                    table.truncate();
                    graveyard.extend(std::mem::take(&mut model));
                }
                Op::SnapshotRoundtrip => {
                    let mut catalog = Catalog::new();
                    catalog.install_table(table).unwrap();
                    let mut restored = decode_catalog(&encode_catalog(&catalog)).unwrap();
                    table = restored.drop_table("t").unwrap();
                }
            }
            check_against_oracle(&table, &model)?;
        }
    }
}

#[test]
fn the_run_matches_the_oracle() {
    every_history();
    // The cases are the same every run: their restores did come after
    // real sweeps.
    let sweeps = SWEEPS.load(Ordering::Relaxed);
    assert!(sweeps >= 20, "{sweeps} sweeps over every history");
}

/// An undo that arrives after the sweep took its tombstone: at the
/// front of the run, in the middle, past the end.
#[test]
fn undo_after_a_sweep_lands_in_id_order() {
    let mut table = fresh_table();
    let mut model = Model::new();
    for key in 0..60 {
        model.insert(table.insert(row(key)).unwrap().raw(), key);
    }
    // Forty middle deletes: the 31st leaves more tombstones than rows
    // and sweeps; the rest leave nine tombstones behind it.
    for id in 10..50 {
        table.delete(RowId(id)).unwrap();
        model.remove(&id);
        check_against_oracle(&table, &model).unwrap();
    }
    assert_eq!(table.tombstones(), 9, "swept once, at the 31st delete");
    // Then both ends go (trimmed at once, no tombstone left for them).
    for id in [0, 1, 2, 59, 58] {
        table.delete(RowId(id)).unwrap();
        model.remove(&id);
    }
    assert_eq!(table.tombstones(), 9);
    // Swept middle, unswept middle (refills its tombstone), a gap's
    // neighbours, the front (twice: before the run, then between), and
    // past the end.
    for (id, tombstones) in [(20, 9), (45, 8), (39, 8), (41, 7), (1, 7), (0, 7), (2, 7), (59, 7), (58, 7)] {
        table.insert_with_id(RowId(id), row(id as i64)).unwrap();
        model.insert(id, id as i64);
        check_against_oracle(&table, &model).unwrap();
        assert_eq!(table.tombstones(), tombstones, "after restoring {id}");
    }
    // The counter was never rewound by any of it.
    assert_eq!(table.insert(row(60)).unwrap(), RowId(60));
}

/// Tables that delete oldest-first or newest-first never hold a
/// tombstone, so they never sweep and the run is exactly the live rows.
#[test]
fn fifo_and_newest_first_churn_hold_no_tombstone() {
    // A sliding window: every arrival past the 100th expires the oldest.
    let mut window = fresh_table();
    let mut oldest = 0;
    for key in 0..5_000 {
        let id = window.insert(row(key)).unwrap();
        if window.len() > 100 {
            window.delete(RowId(oldest)).unwrap();
            oldest += 1;
        }
        // A stream beside it: the arrival is moved on at once.
        if key % 3 == 0 {
            window.delete(id).unwrap();
        }
        assert_eq!(window.tombstones(), 0, "after arrival {key}");
        if key % 3 == 0 {
            window.insert_with_id(id, row(key)).unwrap(); // …and the abort that undoes the move
        }
    }
    window.verify().unwrap();
    assert_eq!((window.len(), window.tombstones()), (100, 0));
    let ids: Vec<u64> = window.scan_ordered().map(|(id, _)| id.raw()).collect();
    assert_eq!(ids, (oldest..oldest + 100).collect::<Vec<_>>());
}

/// The sweep path specifically: long delete-heavy runs must not degrade
/// the scan, corrupt the order or let the run outgrow `2·live + 16`.
#[test]
fn delete_heavy_churn_stays_correct() {
    let mut table = fresh_table();
    let mut live: Vec<u64> = Vec::new();
    for round in 0..2_000i64 {
        let id = table.insert(row(round)).unwrap();
        live.push(id.raw());
        // Delete ~90% of rows, in varying positions.
        if round % 10 != 0 {
            let idx = (round as usize * 31) % live.len();
            let gone = live.swap_remove(idx);
            table.delete(RowId(gone)).unwrap();
        }
        assert!(table.len() + table.tombstones() <= 2 * table.len() + 16, "round {round}");
    }
    table.verify().unwrap();
    live.sort_unstable();
    let got: Vec<u64> = table.scan_ordered().map(|(id, _)| id.raw()).collect();
    assert_eq!(got, live);
    assert_eq!(table.len(), live.len());
    for id in 0..2_002 {
        assert_eq!(table.contains(RowId(id)), live.binary_search(&id).is_ok(), "contains({id})");
    }
}
