//! Pins how many heap allocations one point UPDATE costs through
//! [`execute`], with a counting global allocator (this file is its own
//! test binary, so the allocator is this test's alone). Counts are per
//! thread: the test harness runs tests on parallel threads.
//!
//! The row's new image is built in one allocation — the pre-image
//! collected into a tuple, the assignments written into it — and the
//! table exchanges values with it in place, so the row keeps its
//! address. Building the image as a `Vec` and copying it into a tuple
//! made it one more: the same statement cost 6 allocations then.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sstore_common::{DataType, Schema, Tuple, Value};
use sstore_sql::exec::{execute, Effect};
use sstore_sql::Planner;
use sstore_storage::index::IndexDef;
use sstore_storage::{Catalog, IndexKind, TableKind};

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

/// Runs `f`, returning its result and the allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn a_point_update_builds_its_image_in_one_allocation() {
    let mut c = Catalog::new();
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int), ("w", DataType::Int)]);
    let t = c.create_table("t", TableKind::Base, schema).unwrap();
    for k in 0..100i64 {
        t.insert([k, k * 10, -k].into_iter().map(Value::Int).collect()).unwrap();
    }
    let pk = IndexDef { name: "pk".into(), key_columns: vec![0], kind: IndexKind::Hash, unique: true };
    c.table_mut("t").unwrap().create_index(pk).unwrap();
    let stmt = Planner::new(&c).plan_sql("UPDATE t SET v = ? WHERE k = ?").unwrap();
    let params = [Value::Int(7), Value::Int(42)];
    let address = |c: &Catalog| {
        let t = c.table("t").unwrap();
        t.get(t.lookup_eq(&[0], &[Value::Int(42)])[0]).unwrap().values().as_ptr()
    };
    let at = address(&c);
    // Room for the effect up front: a growing effect list is the
    // caller's allocation, not the statement's.
    let mut effects = Vec::with_capacity(1);
    let (r, n) = counted(|| execute(&mut c, &stmt, &params, &mut effects).unwrap());
    assert_eq!(r.rows_affected, 1);
    let [Effect::Update { old, .. }] = &effects[..] else { panic!("{effects:?}") };
    assert_eq!(old, &Tuple::from_iter([42, 420, -42].map(Value::Int)));
    assert_eq!(address(&c), at, "the row was written where it lives");
    // The index key, the candidate ids as looked up and as the WHERE
    // kept them, the list of new images, and the one image.
    assert_eq!(n, 5, "one point UPDATE made {n} allocations");
}
