//! Heap allocations per decoded tuple, pinned exactly.
//!
//! Wall time cannot say that a decoded Q2 tuple costs one allocation plus
//! one per string longer than `Value`'s inline bound; an allocation count
//! repeats exactly. A counting global allocator counts on the thread that
//! asked for it only, so tests running beside it cannot add to the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gridq_common::wire::{self, Reader};
use gridq_common::{Tuple, Value};

struct Counting;

thread_local! {
    /// `Some(n)` while this thread counts: `n` allocations so far.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread. The result is dropped by the caller, outside the count.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).unwrap_or(0);
    (out, n)
}

const TUPLES: u64 = 100;

/// A 9-byte ORF name, like the Q2 tables' join keys.
fn orf(i: u64) -> Value {
    Value::str(format!("YAL{i:05}W"))
}

/// A 64-byte amino-acid sequence: longer than the inline bound.
fn sequence(i: u64) -> Value {
    const ACIDS: &[u8] = b"ACDEFGHIKLMNPQRSTVWY";
    let s: String = (0..64u64)
        .map(|j| char::from(ACIDS[((i * 7 + j) % 20) as usize]))
        .collect();
    Value::str(s)
}

/// Allocations to decode the block `rows` encodes.
fn decode_allocations(rows: impl Fn(u64) -> Vec<Value>) -> u64 {
    let tuples: Vec<Tuple> = (0..TUPLES).map(|i| Tuple::with_seq(rows(i), i)).collect();
    let mut bytes = Vec::new();
    wire::put_tuples(&mut bytes, &tuples);
    let (decoded, n) = allocations(|| wire::get_tuples(&mut Reader::new(&bytes)));
    assert_eq!(decoded.expect("block decodes"), tuples);
    n
}

#[test]
fn a_decoded_sequence_tuple_costs_its_values_and_its_sequence() {
    // Per tuple: the values' one `Arc<[Value]>` and the 64-byte sequence.
    // Plus the block's one `Vec` of tuples.
    assert_eq!(
        decode_allocations(|i| vec![orf(i), sequence(i)]),
        2 * TUPLES + 1
    );
}

#[test]
fn a_decoded_interaction_tuple_costs_one_allocation() {
    assert_eq!(decode_allocations(|i| vec![orf(i), orf(i + 1)]), TUPLES + 1);
}

#[test]
fn a_decoded_join_result_costs_its_values_and_its_sequence() {
    assert_eq!(
        decode_allocations(|i| vec![orf(i), sequence(i), orf(i), orf(i + 1)]),
        2 * TUPLES + 1
    );
}

#[test]
fn a_join_result_is_one_allocation() {
    let build = Tuple::with_seq(vec![orf(1), sequence(1)], 1);
    let probe = Tuple::with_seq(vec![orf(1), orf(2)], 2);
    let (joined, n) = allocations(|| build.concat_with_seq(&probe, probe.seq()));
    assert_eq!(n, 1);
    assert_eq!(joined.arity(), 4);
}
