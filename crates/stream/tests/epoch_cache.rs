//! The epoch-cached snapshot contract:
//!
//! * `live_snapshot` between ingest barriers returns the **same**
//!   `Arc` (pointer-equal — zero rebuild, zero copy);
//! * any mutation (ingest, drain-with-episodes, finish, requeue)
//!   advances the epoch and invalidates the cache;
//! * reads that don't change snapshot-visible state (`take_finished`,
//!   `stats`) keep the cache warm — a checkpoint must not cost the
//!   next query its cached snapshot;
//! * `requeue_pending` puts undelivered episodes back so the next
//!   drain re-emits them in deterministic order.

use std::sync::Arc;

use sitm_core::{
    Annotation, AnnotationSet, IntervalPredicate, PresenceInterval, Timestamp, TransitionTaken,
};
use sitm_graph::{LayerIdx, NodeId};
use sitm_space::CellRef;
use sitm_stream::{EmittedEpisode, EngineConfig, ParallelEngine, StreamEvent, VisitKey};

fn cell(n: usize) -> CellRef {
    CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
}

fn label(s: &str) -> AnnotationSet {
    AnnotationSet::from_iter([Annotation::goal(s)])
}

fn config() -> EngineConfig {
    EngineConfig::new(vec![
        (IntervalPredicate::in_cells([cell(1)]), label("one")),
        (IntervalPredicate::any(), label("whole")),
    ])
    .with_shards(2)
    .with_batch_capacity(4)
    .with_warehouse()
}

/// `count` closed visits starting at key `base`, plus one open visit.
fn events(base: u64, count: u64) -> Vec<StreamEvent> {
    let mut out = Vec::new();
    for v in base..base + count + 1 {
        let t0 = v as i64 * 10;
        out.push(StreamEvent::VisitOpened {
            visit: VisitKey(v),
            moving_object: format!("mo-{v}"),
            annotations: label("visit"),
            at: Timestamp(t0),
        });
        out.push(StreamEvent::Presence {
            visit: VisitKey(v),
            interval: PresenceInterval::new(
                TransitionTaken::Unknown,
                cell(1),
                Timestamp(t0),
                Timestamp(t0 + 50),
            ),
        });
        if v < base + count {
            out.push(StreamEvent::VisitClosed {
                visit: VisitKey(v),
                at: Timestamp(t0 + 60),
            });
        }
    }
    out
}

fn check_cache_contract(engine: &mut ParallelEngine) {
    engine.ingest_all(events(0, 4));
    let e0 = engine.epoch();

    // First cut after a mutation: a miss that fills the cache.
    let (first, hit) = engine.live_snapshot_cached();
    assert!(!hit, "first snapshot after ingest must be a cache miss");
    // Re-reads between barriers: pointer-equal hits, stable epoch.
    for _ in 0..3 {
        let (again, hit) = engine.live_snapshot_cached();
        assert!(hit, "no mutation since the cut — must hit");
        assert!(
            Arc::ptr_eq(&first, &again),
            "cache hits must share the snapshot allocation"
        );
    }
    assert_eq!(engine.epoch(), e0, "reads must not advance the epoch");

    // Checkpoint-shaped read: the finished backlog is not part of a
    // snapshot, so taking it keeps the cache warm.
    assert!(
        !engine.take_finished().is_empty(),
        "closed visits were retained"
    );
    let (after_take, hit) = engine.live_snapshot_cached();
    assert!(hit, "take_finished must not invalidate the snapshot cache");
    assert!(Arc::ptr_eq(&first, &after_take));

    // Ingest invalidates: new epoch, new allocation, new content.
    engine.ingest_all(events(100, 2));
    let e1 = engine.epoch();
    assert!(e1 > e0, "ingest must advance the epoch");
    let (second, hit) = engine.live_snapshot_cached();
    assert!(!hit, "post-ingest snapshot must be rebuilt");
    assert!(!Arc::ptr_eq(&first, &second));
    assert!(
        second.visits.len() > first.visits.len(),
        "the rebuilt snapshot sees the newly opened visits"
    );

    // Drain-with-episodes is a new epoch (the one a subscriber's delta
    // is stamped with), so it invalidates; an empty drain does not.
    let drained = engine.drain();
    assert!(!drained.is_empty(), "closed visits emitted episodes");
    let (post_drain, hit) = engine.live_snapshot_cached();
    assert!(!hit, "a non-empty drain advances the epoch");
    let e2 = engine.epoch();
    assert!(e2 > e1);
    assert!(engine.drain().is_empty());
    let (after_empty, hit) = engine.live_snapshot_cached();
    assert!(hit, "an empty drain must not invalidate");
    assert!(Arc::ptr_eq(&post_drain, &after_empty));

    // Requeue: the undo of a drain — invalidates, and the next drain
    // re-emits exactly what went back, in deterministic order.
    engine.requeue_pending(drained.clone());
    let (_, hit) = engine.live_snapshot_cached();
    assert!(!hit, "a requeue advances the epoch");
    let redrained = engine.drain();
    let mut expect = drained;
    expect.sort_by_key(EmittedEpisode::sort_key);
    assert_eq!(redrained, expect, "requeue → drain must round-trip");
}

/// One worker: every visit applied on one thread.
#[test]
fn sequential_engine_epoch_cache_contract() {
    let mut engine = ParallelEngine::new(config().with_shards(1)).expect("engine");
    check_cache_contract(&mut engine);
}

#[test]
fn parallel_engine_epoch_cache_contract() {
    let mut engine = ParallelEngine::new(config()).expect("engine");
    check_cache_contract(&mut engine);
}

/// The cached cut is *correct*, not just cheap: a hit must equal what
/// a fresh rebuild would produce — skipping dispatch/quiesce on a
/// clean engine loses nothing.
#[test]
fn cache_hits_match_a_forced_rebuild() {
    let mut engine = ParallelEngine::new(config()).expect("engine");
    for base in [0u64, 50, 200] {
        engine.ingest_all(events(base, 3));
        let (cached, _) = engine.live_snapshot_cached();
        let (hit, was_hit) = engine.live_snapshot_cached();
        assert!(was_hit);
        let reference = engine.rebuilt_snapshot();
        assert_eq!(*cached, reference, "cached cut diverged from a rebuild");
        assert_eq!(*hit, reference);
    }
}
