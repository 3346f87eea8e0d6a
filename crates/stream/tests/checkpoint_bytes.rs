//! A checkpoint is one frame whose bytes are a function of the feed
//! alone: not of the worker count, the router batch, or which worker
//! applied which visit.

use sitm_core::{Annotation, AnnotationSet, Duration, IntervalPredicate};
use sitm_louvre::{
    build_louvre, generate_dataset, zone_key, GeneratorConfig, LouvreModel, PaperCalibration,
};
use sitm_store::fnv1a;
use sitm_stream::checkpoint::decode_state;
use sitm_stream::{trajectory_feed, EngineConfig, ParallelEngine, StreamEvent};

fn label(s: &str) -> AnnotationSet {
    AnnotationSet::from_iter([Annotation::goal(s)])
}

fn predicates(model: &LouvreModel) -> Vec<(IntervalPredicate, AnnotationSet)> {
    let exit_chain = [60887u32, 60888, 60890]
        .map(|id| model.space.resolve(&zone_key(id)).expect("zone resolves"));
    vec![
        (
            IntervalPredicate::in_cells(exit_chain),
            label("exit museum"),
        ),
        (
            IntervalPredicate::min_duration(Duration::minutes(10)),
            label("lingering"),
        ),
        (IntervalPredicate::any(), label("whole visit")),
    ]
}

/// One seeded Louvre day of 150 visits, replayed as one feed.
fn day() -> (LouvreModel, Vec<StreamEvent>) {
    let model = build_louvre();
    let defaults = PaperCalibration::default();
    let calibration = PaperCalibration {
        visits: 150,
        visitors: 120,
        returning_visitors: 30,
        revisits: 30,
        detections: 750,
        transitions: 600,
        collection_end: defaults.collection_start,
        ..defaults
    };
    let dataset = generate_dataset(&GeneratorConfig {
        seed: 20_190_326,
        calibration,
        ..GeneratorConfig::default()
    });
    let events = trajectory_feed(&dataset.visit_trajectories(&model));
    (model, events)
}

fn config(model: &LouvreModel, workers: usize, batch_capacity: usize) -> EngineConfig {
    EngineConfig::new(predicates(model))
        .with_shards(workers)
        .with_batch_capacity(batch_capacity)
        .with_warehouse()
}

#[test]
fn same_feed_same_bytes_for_every_worker_count_and_batch() {
    let (model, events) = day();
    let half = events.len() / 2;
    let mut reference: Option<(Vec<u8>, Vec<u8>)> = None;
    for workers in [1usize, 2, 4, 8] {
        for batch_capacity in [1usize, 7, 128] {
            let config = config(&model, workers, batch_capacity);
            let fence_capacity = config.fence_capacity;
            let mut engine = ParallelEngine::new(config).expect("engine");
            engine.ingest_all(events[..half].iter().cloned());
            let midday = engine.checkpoint();
            engine.ingest_all(events[half..].iter().cloned());
            let evening = engine.checkpoint();

            let (snapshot, _) = decode_state(&evening).expect("decodes");
            assert!(
                snapshot.closed.len() < fence_capacity,
                "no fence was evicted"
            );
            let at = format!("{workers} workers, batch {batch_capacity}");
            match &reference {
                None => {
                    // Every part of the payload is exercised.
                    let (noon, _) = decode_state(&midday).expect("decodes");
                    assert!(!noon.visits.is_empty(), "open visits");
                    assert!(!noon.closed.is_empty(), "fences");
                    assert!(!noon.pending.is_empty(), "undrained episodes");
                    assert!(!noon.finished.is_empty(), "finished backlog");
                    // The feed is pinned too: a change in how the seeded
                    // day becomes events moves these.
                    let pin = |payload: &[u8]| (payload.len(), fnv1a(payload));
                    assert_eq!(pin(&midday), (14_483, 0x8d9d_4a8a_7dd8_2a30), "midday");
                    assert_eq!(pin(&evening), (27_623, 0x7719_ba97_94f6_10ab), "evening");
                    reference = Some((midday, evening));
                }
                Some((noon, night)) => {
                    assert!(midday == *noon, "{at}: midday checkpoint bytes moved");
                    assert!(evening == *night, "{at}: evening checkpoint bytes moved");
                }
            }
        }
    }
}
