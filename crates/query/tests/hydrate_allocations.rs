//! Indexing a segment's rows allocates per distinct key, not per row:
//! its own test binary, because it counts every allocation the process
//! makes through a counting global allocator (one `#[test]`, so no
//! other test thread allocates in between).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sitm_core::{
    Annotation, AnnotationSet, PresenceInterval, SemanticTrajectory, Timestamp, Trace,
    TransitionTaken,
};
use sitm_graph::{CellRef, LayerIdx, NodeId};
use sitm_query::{Predicate, TrajectoryDb};

/// The system allocator, counting every allocation (a `realloc` falls
/// back to `alloc`, so it counts too).
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

fn cell(n: usize) -> CellRef {
    CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
}

/// Row `i`: one of seven visitors, `{goal:visit}`, two stays in cells
/// 0–9 each annotated `{goal:browsing}`.
fn row(i: usize) -> SemanticTrajectory {
    let start = i as i64 * 4;
    let stays = (0..2)
        .map(|k| {
            let from = start + k * 90;
            let mut stay = PresenceInterval::new(
                TransitionTaken::Unknown,
                cell((i + k as usize) % 10),
                Timestamp(from),
                Timestamp(from + 60),
            );
            stay.annotations.insert(Annotation::goal("browsing"));
            stay
        })
        .collect();
    SemanticTrajectory::new(
        format!("visitor-{}", i % 7),
        Trace::new(stays).expect("ordered stays"),
        AnnotationSet::from_iter([Annotation::goal("visit")]),
    )
    .expect("non-empty")
}

#[test]
fn indexing_rows_that_share_keys_allocates_per_key_not_per_row() {
    const ROWS: usize = 4_000;
    let rows = Arc::new((0..ROWS).map(row).collect::<Vec<_>>());
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let db = TrajectoryDb::build_shared(Arc::clone(&rows));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    eprintln!("TrajectoryDb::build_shared over {ROWS} rows: {allocations} allocations");
    // Cloning each row's moving object, trajectory annotation and two
    // stay annotations into the postings would be 4 allocations a row;
    // what is left is the postings' own growth, the per-cell stay
    // trees and the span tree.
    assert!(
        allocations < ROWS / 4,
        "{allocations} allocations to index {ROWS} rows"
    );
    // The postings are the same as ever.
    assert_eq!(db.len(), ROWS);
    assert_eq!(db.cells().count(), 10);
    let count = |p: Predicate| db.candidates(&p).cardinality(ROWS);
    assert_eq!(count(Predicate::MovingObject("visitor-3".into())), ROWS / 7);
    assert_eq!(
        count(Predicate::HasTrajAnnotation(Annotation::goal("visit"))),
        ROWS
    );
    assert_eq!(
        count(Predicate::HasStayAnnotation(Annotation::goal("browsing"))),
        ROWS
    );
    assert_eq!(count(Predicate::VisitedCell(cell(4))), 2 * ROWS / 10);
}
