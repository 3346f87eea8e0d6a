//! Opening a warehouse allocates per segment, not per moving object:
//! its own test binary, because it counts every allocation the process
//! makes through a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sitm_core::{
    Annotation, AnnotationSet, PresenceInterval, SemanticTrajectory, Timestamp, Trace,
    TransitionTaken,
};
use sitm_graph::{CellRef, LayerIdx, NodeId};
use sitm_query::SegmentedDb;
use sitm_store::warehouse::WarehouseConfig;

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

/// Row `i` of a day: 17 536 distinct visitors, two stays each.
fn row(i: usize) -> SemanticTrajectory {
    let start = i as i64 * 4;
    let stays = (0..2)
        .map(|k| {
            let from = start + k * 90;
            let mut stay = PresenceInterval::new(
                TransitionTaken::Unknown,
                cell((i + k as usize) % 50),
                Timestamp(from),
                Timestamp(from + 60),
            );
            stay.annotations.insert(Annotation::goal("browsing"));
            stay
        })
        .collect();
    SemanticTrajectory::new(
        format!("visitor-{:05}", i % 17_536),
        Trace::new(stays).expect("ordered stays"),
        AnnotationSet::from_iter([Annotation::goal("visit")]),
    )
    .expect("non-empty")
}

#[test]
fn opening_a_warehouse_allocates_per_segment_not_per_object() {
    let dir = std::env::temp_dir().join(format!("sitm-open-allocations-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let (mut db, _) = SegmentedDb::open(&dir, WarehouseConfig::default()).expect("create");
        // One flush per size tier, so no two segments merge.
        let mut next = 0;
        for rows in [10_000, 5_000, 3_000, 2_000] {
            db.flush((next..next + rows).map(row).collect())
                .expect("flush");
            next += rows;
        }
        assert_eq!(db.segments().len(), 4);
        assert_eq!(db.store().object_index_len(), 17_536);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (db, _) = SegmentedDb::open(&dir, WarehouseConfig::default()).expect("open");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!((db.len(), db.segments().len()), (20_000, 4));
    assert_eq!(db.store().object_index_len(), 17_536);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("SegmentedDb::open: {allocations} allocations");
    assert!(allocations < 1_000, "{allocations} allocations to open");
}
