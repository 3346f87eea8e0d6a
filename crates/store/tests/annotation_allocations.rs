//! A row's annotation sets cost no allocation once the decoder has seen
//! them: its own test binary, because it counts every allocation the
//! process makes through a counting global allocator (one `#[test]`, so
//! no other test thread allocates in between, and the decoder's
//! per-thread table stays warm).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sitm_core::{
    Annotation, AnnotationKind, AnnotationSet, PresenceInterval, SemanticTrajectory, Timestamp,
    Trace, TransitionTaken,
};
use sitm_graph::{CellRef, EdgeId, LayerIdx, NodeId};
use sitm_store::codec::{
    decode_annotations, decode_trajectory, encode_annotations, encode_trajectory,
};

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

// Two shared sets in a stay: 16 bytes, where two `BTreeSet`s took 48.
const _: () = assert!(std::mem::size_of::<PresenceInterval>() <= 64);

/// The allocations `f` makes, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

fn cell(n: usize) -> CellRef {
    CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
}

/// A served ledger row: `mo-…`, nine stays with empty `A_i`, `{goal:visit}`.
fn ledger_row() -> SemanticTrajectory {
    let stays = (0..9)
        .map(|k| {
            PresenceInterval::new(
                TransitionTaken::Unknown,
                cell(k * 7 % 256),
                Timestamp(36_000 + k as i64 * 300),
                Timestamp(36_000 + k as i64 * 300 + 240),
            )
        })
        .collect();
    SemanticTrajectory::new(
        "mo-0004217",
        Trace::new(stays).expect("ordered stays"),
        AnnotationSet::from_iter([Annotation::goal("visit")]),
    )
    .expect("non-empty")
}

/// A Louvre dataset row: resolved edges between zones, `goal=visit`,
/// `device=…`.
fn louvre_row() -> SemanticTrajectory {
    let stays = (0..6)
        .map(|k| {
            let transition = if k == 0 {
                TransitionTaken::Unknown
            } else {
                TransitionTaken::Edge {
                    layer: LayerIdx::from_index(0),
                    edge: EdgeId::from_index(k * 3),
                }
            };
            PresenceInterval::new(
                transition,
                cell(60 + k),
                Timestamp(1_485_000_000 + k as i64 * 600),
                Timestamp(1_485_000_000 + k as i64 * 600 + 420),
            )
        })
        .collect();
    SemanticTrajectory::new(
        "visitor-0042",
        Trace::new(stays).expect("ordered stays"),
        AnnotationSet::from_iter([
            Annotation::goal("visit"),
            Annotation::new(AnnotationKind::Custom("device".into()), "ios"),
        ]),
    )
    .expect("non-empty")
}

#[test]
fn a_row_decodes_and_clones_without_allocating_its_annotations() {
    for (shape, row) in [("ledger", ledger_row()), ("louvre", louvre_row())] {
        let mut bytes = Vec::new();
        encode_trajectory(&mut bytes, &row);
        // Warm the decoder's table with this row's sets.
        assert_eq!(decode_trajectory(&mut bytes.as_slice()).unwrap(), row);

        // The moving-object id and the stays; the sets are shared.
        let (count, decoded) = allocations(|| decode_trajectory(&mut bytes.as_slice()).unwrap());
        assert_eq!(count, 2, "{shape} row decode");
        assert_eq!(decoded, row);

        let (count, copy) = allocations(|| decoded.clone());
        assert_eq!(count, 2, "{shape} row clone");
        let (count, ()) = allocations(|| drop(copy));
        assert_eq!(count, 0, "{shape} row drop");
    }

    let mut empty = Vec::new();
    encode_annotations(&mut empty, &AnnotationSet::new());
    let (count, set) = allocations(|| decode_annotations(&mut empty.as_slice()).unwrap());
    assert_eq!(count, 0, "empty per-stay set decode");
    assert!(set.is_empty());
    let (count, copy) = allocations(|| set.clone());
    assert_eq!(count, 0, "empty set clone");
    assert_eq!(copy, AnnotationSet::new());
}
