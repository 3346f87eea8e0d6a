//! A visit's event queue is allocated once per visit, not once per
//! slice. Its own test binary, because it installs a counting global
//! allocator — one that counts on every thread, since the engine's
//! worker applies what the caller's thread routes.
//!
//! The feed interleaves its visits round-robin and flushes after every
//! round, so each visit is applied once per event: a queue taken by
//! each slice would be allocated again by the visit's next event.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sitm_core::{
    Annotation, AnnotationSet, IntervalPredicate, PresenceInterval, Timestamp, TransitionTaken,
};
use sitm_graph::{CellRef, LayerIdx, NodeId};
use sitm_obs::MetricsRegistry;
use sitm_stream::{EngineConfig, ParallelEngine, StreamEvent, VisitKey};

/// The system allocator, counting every allocation on every thread (a
/// `realloc` falls back to `alloc`, so it counts too).
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; bumping an atomic never allocates.
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

/// Visits in the feed.
const VISITS: u64 = 200;
/// Presences per visit, between its open and its close.
const STAYS: i64 = 12;

fn cell(n: usize) -> CellRef {
    CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
}

fn label(s: &str) -> AnnotationSet {
    AnnotationSet::from_iter([Annotation::goal(s)])
}

/// Round `r` of the feed: one event for every visit — its open, its
/// `r`-th stay, or its close.
fn round(r: i64) -> Vec<StreamEvent> {
    (0..VISITS)
        .map(|v| {
            let visit = VisitKey(v);
            let t0 = v as i64 * 1_000 + r * 100;
            match r {
                0 => StreamEvent::VisitOpened {
                    visit,
                    moving_object: format!("mo-{v}"),
                    annotations: label("visit"),
                    at: Timestamp(t0),
                },
                r if r <= STAYS => StreamEvent::Presence {
                    visit,
                    interval: PresenceInterval::new(
                        TransitionTaken::Unknown,
                        cell(r as usize % 3),
                        Timestamp(t0),
                        Timestamp(t0 + 50),
                    ),
                },
                _ => StreamEvent::VisitClosed {
                    visit,
                    at: Timestamp(t0),
                },
            }
        })
        .collect()
}

#[test]
fn a_visit_queue_allocates_once_per_visit() {
    let config = EngineConfig::new(vec![(IntervalPredicate::in_cells([cell(1)]), label("one"))])
        .with_shards(1)
        .with_batch_capacity(VISITS as usize)
        .with_metrics(MetricsRegistry::new());
    let mut engine = ParallelEngine::new(config).expect("engine");
    let rounds: Vec<Vec<StreamEvent>> = (0..STAYS + 2).map(round).collect();
    let events: usize = rounds.iter().map(Vec::len).sum();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for round in rounds {
        engine.ingest_all(round);
        engine.flush();
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let per_event = allocated as f64 / events as f64;
    eprintln!("{events} events: {allocated} allocations, {per_event:.3} per event");

    let stats = engine.stats();
    assert_eq!(stats.events, events as u64);
    assert_eq!(stats.visits_closed, VISITS);
    // Each visit is applied once per round, so a queue allocated per
    // slice alone costs one allocation per event: the feed measured
    // 2.06 per event that way, and 0.85 with queues that keep their
    // buffers (the rest is apply: visit state, emitted episodes).
    assert!(
        per_event < 1.0,
        "{allocated} allocations for {events} events ({per_event:.3} per event)"
    );
}
