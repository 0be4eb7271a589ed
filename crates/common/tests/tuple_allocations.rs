//! Pins how many heap allocations building a tuple costs, with a
//! counting global allocator (this file is its own test binary, so the
//! allocator is this test's alone). Counts are per thread: the test
//! harness runs tests on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sstore_common::codec::{Decoder, Encoder};
use sstore_common::{tuple, Tuple, Value};

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
fn an_exact_size_iterator_builds_a_tuple_in_one_allocation() {
    let (t, n) = counted(|| (0..6).map(Value::Int).collect::<Tuple>());
    assert_eq!((t.arity(), n), (6, 1), "range map");

    let source = [Value::Int(1), Value::Float(2.5), Value::Null, Value::Bool(true)];
    let (t, n) = counted(|| source.iter().cloned().collect::<Tuple>());
    assert_eq!((t.values(), n), (&source[..], 1), "slice map");

    let (t, n) = counted(|| Tuple::try_collect(source.iter().cloned().map(Ok)).unwrap());
    assert_eq!((t.values(), n), (&source[..], 1), "fallible values");

    let (t, n) = counted(|| tuple![7i64, 8.5, false]);
    assert_eq!((t.arity(), n), (3, 1), "the tuple! macro");

    // A clone shares the allocation.
    let (_copy, n) = counted(|| t.clone());
    assert_eq!(n, 0, "clone");
}

#[test]
fn codec_decode_costs_one_allocation_per_tuple() {
    const N: usize = 1_000;
    let mut e = Encoder::new();
    for i in 0..N as i64 {
        // No text: a `Value::Text` brings its own `String` allocation.
        e.put_tuple(&tuple![i, i as f64 / 2.0, i % 2 == 0, Value::Null, i * 7]);
    }
    let bytes = e.finish();
    let mut out = Vec::with_capacity(N);
    let ((), n) = counted(|| {
        let mut d = Decoder::new(&bytes);
        for _ in 0..N {
            out.push(d.get_tuple().unwrap());
        }
        assert!(d.is_exhausted());
    });
    assert_eq!(out.len(), N);
    // A `Vec` filled and then copied into the tuple would make it 2N.
    assert!(n <= N, "decoding {N} tuples made {n} allocations, more than one each");
}
