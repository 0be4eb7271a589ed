//! Pins what index keys cost the heap on a table's write paths, with a
//! counting global allocator (this file is its own test binary, so the
//! allocator is this test's alone). Counts are per thread: the test
//! harness runs tests on parallel threads.
//!
//! A one-column key is its value, held inline in the index entry, so
//! `insert`, `delete` and a key-changing `update` allocate nothing for
//! it; a composite key is one allocation each time one is built. Each
//! table is warmed first so that no run, map or tree node has to grow
//! inside a measured call: what is left is what the keys cost.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sstore_common::{tuple, DataType, RowId, Schema};
use sstore_storage::index::IndexDef;
use sstore_storage::{IndexKind, Table, TableKind};

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

/// `t(k, v)` with a unique hash index and a B-tree over `key_columns`
/// each, holding rows 0..5 after ten were inserted and the last five
/// deleted: every structure has room for the measured calls.
fn warmed(key_columns: &[usize]) -> Table {
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    let mut t = Table::new("t", TableKind::Base, schema);
    let def = |name: &str, kind, unique| IndexDef {
        name: name.into(),
        key_columns: key_columns.to_vec(),
        kind,
        unique,
    };
    t.create_index(def("by_hash", IndexKind::Hash, true)).unwrap();
    t.create_index(def("by_tree", IndexKind::BTree, false)).unwrap();
    for i in 0..10i64 {
        t.insert(tuple![i, -i]).unwrap();
    }
    for id in (5..10).rev() {
        t.delete(RowId(id)).unwrap();
    }
    t
}

/// Allocations made by one insert, one key-changing update and one
/// delete, each of a tuple built beforehand.
fn write_path_allocations(key_columns: &[usize]) -> [usize; 3] {
    let mut t = warmed(key_columns);
    let (row, new) = (tuple![100i64, -100i64], tuple![200i64, -200i64]);
    let (id, inserted) = counted(|| t.insert(row).unwrap());
    let (old, updated) = counted(|| t.update(id, new).unwrap());
    let (gone, deleted) = counted(|| t.delete(RowId(2)).unwrap());
    assert_eq!((old, gone), (tuple![100i64, -100i64], tuple![2i64, -2i64]));
    t.verify().unwrap();
    [inserted, updated, deleted]
}

#[test]
fn one_column_keys_cost_the_write_paths_no_allocation() {
    assert_eq!(write_path_allocations(&[0]), [0, 0, 0], "insert, update, delete");
}

#[test]
fn a_composite_key_is_one_allocation_each_time_one_is_built() {
    // Insert: the unique check's key, then one key per index. Update:
    // the unique check's, then the old and the new key per index.
    // Delete: one key per index.
    assert_eq!(write_path_allocations(&[0, 1]), [3, 5, 2], "insert, update, delete");
}
