//! The epoch-cached snapshot contract, on both runtimes:
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
use sitm_stream::{
    EmittedEpisode, EngineConfig, LiveSnapshot, ParallelEngine, ShardedEngine, StreamEvent,
    VisitKey,
};

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

/// The runtime-agnostic surface this contract is stated over.
trait Runtime {
    fn feed(&mut self, events: Vec<StreamEvent>);
    fn snapshot_cached(&mut self) -> (Arc<LiveSnapshot>, bool);
    fn epoch(&mut self) -> u64;
    fn drain(&mut self) -> Vec<EmittedEpisode>;
    fn requeue(&mut self, episodes: Vec<EmittedEpisode>);
    fn take_finished(&mut self) -> usize;
}

impl Runtime for ShardedEngine {
    fn feed(&mut self, events: Vec<StreamEvent>) {
        self.ingest_all(events);
    }
    fn snapshot_cached(&mut self) -> (Arc<LiveSnapshot>, bool) {
        self.live_snapshot_cached()
    }
    fn epoch(&mut self) -> u64 {
        ShardedEngine::epoch(self)
    }
    fn drain(&mut self) -> Vec<EmittedEpisode> {
        ShardedEngine::drain(self)
    }
    fn requeue(&mut self, episodes: Vec<EmittedEpisode>) {
        self.requeue_pending(episodes);
    }
    fn take_finished(&mut self) -> usize {
        ShardedEngine::take_finished(self).len()
    }
}

impl Runtime for ParallelEngine {
    fn feed(&mut self, events: Vec<StreamEvent>) {
        self.ingest_all(events);
    }
    fn snapshot_cached(&mut self) -> (Arc<LiveSnapshot>, bool) {
        self.live_snapshot_cached()
    }
    fn epoch(&mut self) -> u64 {
        ParallelEngine::epoch(self)
    }
    fn drain(&mut self) -> Vec<EmittedEpisode> {
        ParallelEngine::drain(self)
    }
    fn requeue(&mut self, episodes: Vec<EmittedEpisode>) {
        self.requeue_pending(episodes);
    }
    fn take_finished(&mut self) -> usize {
        ParallelEngine::take_finished(self).len()
    }
}

fn check_cache_contract(engine: &mut impl Runtime) {
    engine.feed(events(0, 4));
    let e0 = engine.epoch();

    // First cut after a mutation: a miss that fills the cache.
    let (first, hit) = engine.snapshot_cached();
    assert!(!hit, "first snapshot after ingest must be a cache miss");
    // Re-reads between barriers: pointer-equal hits, stable epoch.
    for _ in 0..3 {
        let (again, hit) = engine.snapshot_cached();
        assert!(hit, "no mutation since the cut — must hit");
        assert!(
            Arc::ptr_eq(&first, &again),
            "cache hits must share the snapshot allocation"
        );
    }
    assert_eq!(engine.epoch(), e0, "reads must not advance the epoch");

    // Checkpoint-shaped read: the finished backlog is not part of a
    // snapshot, so taking it keeps the cache warm.
    assert!(engine.take_finished() > 0, "closed visits were retained");
    let (after_take, hit) = engine.snapshot_cached();
    assert!(hit, "take_finished must not invalidate the snapshot cache");
    assert!(Arc::ptr_eq(&first, &after_take));

    // Ingest invalidates: new epoch, new allocation, new content.
    engine.feed(events(100, 2));
    let e1 = engine.epoch();
    assert!(e1 > e0, "ingest must advance the epoch");
    let (second, hit) = engine.snapshot_cached();
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
    let (post_drain, hit) = engine.snapshot_cached();
    assert!(!hit, "a non-empty drain advances the epoch");
    let e2 = engine.epoch();
    assert!(e2 > e1);
    assert!(engine.drain().is_empty());
    let (after_empty, hit) = engine.snapshot_cached();
    assert!(hit, "an empty drain must not invalidate");
    assert!(Arc::ptr_eq(&post_drain, &after_empty));

    // Requeue: the undo of a drain — invalidates, and the next drain
    // re-emits exactly what went back, in deterministic order.
    engine.requeue(drained.clone());
    let (_, hit) = engine.snapshot_cached();
    assert!(!hit, "a requeue advances the epoch");
    let redrained = engine.drain();
    let mut expect = drained;
    expect.sort_by_key(EmittedEpisode::sort_key);
    assert_eq!(redrained, expect, "requeue → drain must round-trip");
}

#[test]
fn sequential_engine_epoch_cache_contract() {
    let mut engine = ShardedEngine::new(config()).expect("engine");
    check_cache_contract(&mut engine);
}

#[test]
fn parallel_engine_epoch_cache_contract() {
    let mut engine = ParallelEngine::new(config()).expect("engine");
    check_cache_contract(&mut engine);
}

/// The cached cut is *correct*, not just cheap: a hit must equal what
/// a fresh rebuild would produce — on the parallel runtime this pins
/// that skipping dispatch/quiesce on a clean engine loses nothing.
#[test]
fn cache_hits_match_a_forced_rebuild() {
    let mut parallel = ParallelEngine::new(config()).expect("engine");
    let mut sequential = ShardedEngine::new(config()).expect("engine");
    for base in [0u64, 50, 200] {
        let batch = events(base, 3);
        parallel.feed(batch.clone());
        sequential.feed(batch);
        let (cached, _) = parallel.snapshot_cached();
        let (hit, was_hit) = parallel.snapshot_cached();
        assert!(was_hit);
        let (reference, _) = sequential.snapshot_cached();
        assert_eq!(cached.visits.len(), reference.visits.len());
        assert_eq!(hit.visits.len(), reference.visits.len());
        let mut a: Vec<String> = cached
            .visits
            .iter()
            .map(|v| v.trajectory.moving_object.clone())
            .collect();
        let mut b: Vec<String> = reference
            .visits
            .iter()
            .map(|v| v.trajectory.moving_object.clone())
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "cached cut diverged from the reference runtime");
    }
}
