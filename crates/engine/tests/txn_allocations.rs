//! Pins how many heap allocations two write transactions cost on a
//! warmed [`ExecutionEngine`], with a counting global allocator (this
//! file is its own test binary, so the allocator is this test's alone).
//! Counts are per thread: the test harness runs tests on parallel
//! threads, and the EE runs on the caller's.
//!
//! Each transaction is run several times and its cheapest run is the
//! one pinned, so a table or index that happens to grow on one run does
//! not move the count; a cost paid on every statement does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use sstore_common::{BatchId, DataType, Schema, Value};
use sstore_engine::ee::ExecutionEngine;
use sstore_engine::metrics::EngineMetrics;
use sstore_engine::names::AppIds;
use sstore_engine::App;
use sstore_storage::index::IndexDef;
use sstore_storage::IndexKind;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The fewest allocations `f` made over `runs` runs.
fn cheapest(runs: usize, mut f: impl FnMut(usize)) -> usize {
    (0..runs)
        .map(|i| {
            let before = ALLOCATIONS.with(Cell::get);
            f(i);
            ALLOCATIONS.with(Cell::get) - before
        })
        .min()
        .expect("at least one run")
}

#[test]
fn a_triggered_insert_and_an_aborted_update_allocate_what_they_always_have() {
    let kv = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    let pk = IndexDef { name: "pk".into(), key_columns: vec![0], kind: IndexKind::Hash, unique: true };
    let app = App::builder()
        .stream("s", Schema::of(&[("v", DataType::Int)]))
        .table_indexed("t", kv, vec![pk])
        .proc(
            "p",
            &[("ins", "INSERT INTO s (v) VALUES (?)"), ("upd", "UPDATE t SET v = ? WHERE k = ?")],
            &[],
            |_| Ok(()),
        )
        .ee_trigger("s", &["INSERT INTO t (k, v) SELECT v, v FROM s"])
        .build()
        .unwrap();
    let ids = Arc::new(AppIds::build(&app).unwrap());
    let (mut ee, map) = ExecutionEngine::install(&app, ids, Arc::new(EngineMetrics::new())).unwrap();
    let (ins, upd) = (map["p"]["ins"], map["p"]["upd"]);

    let mut key = 0i64;
    let mut insert = |ee: &mut ExecutionEngine| {
        key += 1;
        ee.begin(Some(BatchId(key as u64))).unwrap();
        ee.exec(ins, &[Value::Int(key)]).unwrap();
        ee.commit().unwrap();
    };
    let update = |ee: &mut ExecutionEngine, v: i64| {
        ee.begin(None).unwrap();
        assert_eq!(ee.exec(upd, &[Value::Int(v), Value::Int(1)]).unwrap().rows_affected, 1);
        ee.abort().unwrap();
    };
    // Warm: every reused buffer has reached its size.
    for v in 0..64 {
        insert(&mut ee);
        update(&mut ee, v);
    }

    let inserted = cheapest(8, |_| insert(&mut ee));
    let updated = cheapest(8, |i| update(&mut ee, i as i64));
    assert_eq!(ee.table_len("t").unwrap(), 72);
    // The UPDATE is the 5 allocations `sstore-sql`'s update_allocations
    // pins for the statement alone: `begin`, the undo log and `abort`
    // add none. Handing each statement's row effects to the undo log
    // must add none to either transaction.
    assert_eq!(
        (inserted, updated),
        (9, 5),
        "a triggered one-row INSERT and an aborted point UPDATE made {inserted} and {updated} allocations"
    );
}
