//! A client decodes a reply page at one allocation for the page and two
//! per row. Its own test binary, because it installs a counting global
//! allocator — one that counts on the calling thread only, so no other
//! test thread can move the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sitm_core::{
    Annotation, AnnotationSet, PresenceInterval, SemanticTrajectory, Timestamp, Trace,
    TransitionTaken,
};
use sitm_graph::{CellRef, LayerIdx, NodeId};
use sitm_serve::{decode_response, encode_response, Response};

/// The system allocator, counting every allocation made on the
/// allocating thread (a `realloc` falls back to `alloc`, so it counts
/// too).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local without a destructor, so bumping it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Row `i` of a served ledger page: `mo-…`, eight to twelve stays with
/// empty `A_i` and unknown transitions, `{goal:visit}`.
fn ledger_row(i: usize) -> SemanticTrajectory {
    let start = 36_000 + i as i64 * 60;
    let stays = (0..8 + i % 5)
        .map(|k| {
            PresenceInterval::new(
                TransitionTaken::Unknown,
                CellRef::new(
                    LayerIdx::from_index(0),
                    NodeId::from_index((i + k * 7) % 256),
                ),
                Timestamp(start + k as i64 * 300),
                Timestamp(start + k as i64 * 300 + 240),
            )
        })
        .collect();
    SemanticTrajectory::new(
        format!("mo-{i:07}"),
        Trace::new(stays).expect("ordered stays"),
        AnnotationSet::from_iter([Annotation::goal("visit")]),
    )
    .expect("non-empty")
}

#[test]
fn a_reply_page_decodes_at_two_allocations_a_row() {
    const ROWS: usize = 1_000;
    let rows: Vec<SemanticTrajectory> = (0..ROWS).map(ledger_row).collect();
    let mut page = Vec::new();
    encode_response(&mut page, &Response::Trajectories(rows.clone()));
    // Warm the decoder's per-thread annotation-set table.
    let warm = decode_response(&mut page.as_slice()).expect("decode");
    assert_eq!(warm, Response::Trajectories(rows.clone()));

    let before = allocations();
    let decoded = decode_response(&mut page.as_slice()).expect("decode");
    let allocated = allocations() - before;
    eprintln!("decode_response of {ROWS} rows: {allocated} allocations");
    assert_eq!(decoded, Response::Trajectories(rows));
    assert_eq!(
        allocated,
        1 + 2 * ROWS,
        "the row Vec, then each row's name and its stay Vec"
    );
}
