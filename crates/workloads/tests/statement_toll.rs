//! What Linear Road's point statements cost beyond their index probe,
//! on a standalone [`ExecutionEngine`] holding 500 vehicles and their
//! tolls: `get_vehicle`, `get_toll`, `upd_vehicle` and `charge`, each a
//! probe of a unique hash index on `vid`.
//!
//! The allocation counts are pinned exactly, with a counting global
//! allocator (this file is its own test binary, so the allocator is its
//! alone; counts are per thread). A point SELECT returns one row and
//! allocates that: the result's vector and the row. A point UPDATE
//! allocates its new image. The key, the postings, a candidate list, a
//! staging list and the column names are not built.
//!
//! The time per statement is printed by an ignored test, median of 15
//! rounds of 500 calls each (one per vehicle):
//!
//! ```sh
//! cargo test --release -p sstore-workloads --test statement_toll -- --ignored --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use sstore_common::Value;
use sstore_engine::ee::{ExecutionEngine, StmtId};
use sstore_engine::metrics::EngineMetrics;
use sstore_engine::names::AppIds;
use sstore_workloads::linearroad::linear_road_app;

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

const VEHICLES: i64 = 500;

/// A statement's parameters for vehicle `vid`.
type Params = fn(i64) -> Vec<Value>;

/// The probed statements, in the order the results name them.
const PROBED: [(&str, Params); 4] = [
    ("get_vehicle", |vid| vec![Value::Int(vid)]),
    ("get_toll", |vid| vec![Value::Int(vid)]),
    ("upd_vehicle", |vid| [vid % 100, 7, 0, vid].map(Value::Int).to_vec()),
    ("charge", |vid| vec![Value::Int(vid)]),
];

/// A probed statement: its name, its id and every vehicle's parameters.
type Probed = (&'static str, StmtId, Vec<Vec<Value>>);

/// A Linear Road EE with `VEHICLES` vehicles and a toll row for each,
/// and the statements in [`PROBED`].
fn loaded() -> (ExecutionEngine, Vec<Probed>) {
    let app = linear_road_app();
    let ids = Arc::new(AppIds::build(&app).unwrap());
    let (mut ee, map) = ExecutionEngine::install(&app, ids, Arc::new(EngineMetrics::new())).unwrap();
    let stmts = &map["update_position"];
    ee.begin(None).unwrap();
    for vid in 0..VEHICLES {
        let vehicle = [vid, 0, vid % 100, 0].map(Value::Int);
        ee.exec(stmts["ins_vehicle"], &vehicle).unwrap();
        ee.exec(stmts["ins_toll"], &[Value::Int(vid)]).unwrap();
    }
    ee.commit().unwrap();
    let probed = PROBED.iter().map(|(name, params)| (*name, stmts[*name], (0..VEHICLES).map(params).collect()));
    (ee, probed.collect())
}

/// Runs `stmt` once per vehicle in one transaction, each call wrapped
/// by `each`, which returns what it measured. The transaction commits:
/// the updates write what they wrote.
fn round<T>(
    ee: &mut ExecutionEngine,
    stmt: StmtId,
    params: &[Vec<Value>],
    mut each: impl FnMut(&mut dyn FnMut()) -> T,
) -> Vec<T> {
    ee.begin(None).unwrap();
    let measured = params
        .iter()
        .map(|p| {
            each(&mut || {
                let r = ee.exec(stmt, p).unwrap();
                assert_eq!(r.rows.len().max(r.rows_affected), 1, "one row");
            })
        })
        .collect();
    ee.commit().unwrap();
    measured
}

/// Allocations `call` made.
fn allocations(call: &mut dyn FnMut()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    call();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn a_point_select_allocates_its_result_and_row_and_a_point_update_its_image() {
    let (mut ee, stmts) = loaded();
    let mut fewest = Vec::new();
    for (name, stmt, params) in &stmts {
        // Warm: the undo log and every other reused buffer reach size.
        round(&mut ee, *stmt, params, |call| call());
        let least = round(&mut ee, *stmt, params, allocations).into_iter().min();
        fewest.push((*name, least.unwrap()));
    }
    assert_eq!(
        fewest,
        [("get_vehicle", 2), ("get_toll", 2), ("upd_vehicle", 1), ("charge", 1)],
        "allocations per call"
    );
}

#[test]
#[ignore = "timing: run in release with --ignored --nocapture"]
fn ns_per_statement() {
    let (mut ee, stmts) = loaded();
    for (name, stmt, params) in &stmts {
        round(&mut ee, *stmt, params, |call| call());
        let mut rounds: Vec<f64> = (0..15)
            .map(|_| {
                let start = Instant::now();
                round(&mut ee, *stmt, params, |call| call());
                start.elapsed().as_nanos() as f64 / VEHICLES as f64
            })
            .collect();
        rounds.sort_by(f64::total_cmp);
        println!("{name:12} {:8.1} ns/call (median of 15 rounds of {VEHICLES})", rounds[7]);
    }
}
