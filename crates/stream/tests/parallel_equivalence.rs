//! The differential contract of the work-stealing runtime,
//! property-tested.
//!
//! For arbitrary generated Louvre days, `ParallelEngine` at 1/2/4/8
//! workers must agree with batch `maximal_episodes` over each completed
//! trajectory, per visit and per predicate, episodes compared
//! order-insensitively within each (visit, predicate) group.
//!
//! Arbitrary event interleavings — seeded Fisher–Yates shuffles that
//! break per-visit causality and trigger the anomaly paths — have no
//! batch twin, so there N workers must equal the one-worker engine
//! (every visit applied on one thread): the same drains, the same
//! anomaly and event counters, and the same watermark — the feed's
//! highest event time. A crash/checkpoint/restore mid-stream must lose
//! and duplicate nothing.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sitm_core::Timestamp;
use sitm_core::{
    maximal_episodes, Annotation, AnnotationSet, Duration, Episode, IntervalPredicate,
    SemanticTrajectory,
};
use sitm_graph::CellRef;
use sitm_louvre::{
    build_louvre, generate_dataset, zone_key, Dataset, GeneratorConfig, LouvreModel,
    PaperCalibration,
};
use sitm_stream::{
    trajectory_feed, EmittedEpisode, EngineConfig, ParallelEngine, StreamEvent, VisitKey,
};

fn calibration(singles: usize, doubles: usize, mean_dets: usize) -> PaperCalibration {
    let visitors = singles + doubles;
    let revisits = doubles;
    let visits = visitors + revisits;
    let detections = visits * mean_dets;
    PaperCalibration {
        visits,
        visitors,
        returning_visitors: doubles,
        revisits,
        detections,
        transitions: detections - visits,
        ..PaperCalibration::default()
    }
}

fn generated(seed: u64, singles: usize, doubles: usize, k: usize) -> Dataset {
    generate_dataset(&GeneratorConfig {
        seed,
        calibration: calibration(singles, doubles, k),
        ..GeneratorConfig::default()
    })
}

fn zone_cell(model: &LouvreModel, id: u32) -> CellRef {
    model
        .space
        .resolve(&zone_key(id))
        .expect("paper zone resolves")
}

fn label(s: &str) -> AnnotationSet {
    AnnotationSet::from_iter([Annotation::goal(s)])
}

fn predicates(model: &LouvreModel) -> Vec<(IntervalPredicate, AnnotationSet)> {
    let exit_chain = [
        zone_cell(model, 60887),
        zone_cell(model, 60888),
        zone_cell(model, 60890),
    ];
    let hall = zone_cell(model, 60886);
    vec![
        (
            IntervalPredicate::in_cells(exit_chain),
            label("exit museum"),
        ),
        (
            IntervalPredicate::min_duration(Duration::minutes(5)),
            label("long stay"),
        ),
        (IntervalPredicate::any(), label("whole visit")),
        (IntervalPredicate::in_cells([hall]), label("in hall")),
    ]
}

fn config(model: &LouvreModel, shards: usize, batch_capacity: usize) -> EngineConfig {
    EngineConfig::new(predicates(model))
        .with_shards(shards)
        .with_batch_capacity(batch_capacity)
        .with_channel_depth(4)
}

/// Order-insensitive grouping: per (visit, predicate), episodes sorted by
/// their stable content key rather than emission order.
fn grouped(emitted: &[EmittedEpisode]) -> BTreeMap<(u64, usize), Vec<Episode>> {
    let mut map: BTreeMap<(u64, usize), Vec<Episode>> = BTreeMap::new();
    for e in emitted {
        map.entry((e.visit.0, e.predicate))
            .or_default()
            .push(e.episode.clone());
    }
    for episodes in map.values_mut() {
        episodes.sort_by_key(|e| (e.range.start, e.range.end, e.time.start, e.time.end));
    }
    map
}

fn batch_reference(
    trajectories: &[(u64, SemanticTrajectory)],
    predicates: &[(IntervalPredicate, AnnotationSet)],
) -> BTreeMap<(u64, usize), Vec<Episode>> {
    let mut reference = BTreeMap::new();
    for (key, trajectory) in trajectories {
        for (p, (predicate, annotations)) in predicates.iter().enumerate() {
            let mut episodes = maximal_episodes(trajectory, predicate, annotations.clone())
                .expect("labels differ from A_traj");
            episodes.sort_by_key(|e| (e.range.start, e.range.end, e.time.start, e.time.end));
            if !episodes.is_empty() {
                reference.insert((*key, p), episodes);
            }
        }
    }
    reference
}

/// What `watermark()` must report after `events`, whatever the worker
/// count: the highest event time applied.
fn expected_watermark(events: &[StreamEvent]) -> Option<Timestamp> {
    events.iter().map(StreamEvent::time).max()
}

/// Seeded Fisher–Yates.
fn shuffle(events: &mut [StreamEvent], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..events.len()).rev() {
        let j = rng.random_range(0..i + 1);
        events.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline differential: parallel == sequential (one worker)
    /// == batch for every worker count, on a well-formed feed.
    #[test]
    fn parallel_equals_sequential_equals_batch(
        seed in 0u64..1_000_000,
        singles in 6usize..18,
        doubles in 0usize..5,
        k in 2usize..6,
        batch_capacity in 1usize..48,
    ) {
        let model = build_louvre();
        let dataset = generated(seed, singles, doubles, k);
        let trajectories = dataset.visit_trajectories(&model);
        let events = trajectory_feed(&dataset.visit_trajectories(&model));
        prop_assert!(!trajectories.is_empty());

        let reference = batch_reference(&trajectories, &predicates(&model));

        // The one-worker run comes first; every later count must equal it.
        let mut sequential: Option<Vec<EmittedEpisode>> = None;
        for workers in [1usize, 2, 4, 8] {
            let mut parallel = ParallelEngine::new(config(&model, workers, batch_capacity))
                .expect("engine");
            parallel.ingest_all(events.iter().cloned());
            let emitted = parallel.finish();
            prop_assert_eq!(
                &grouped(&emitted), &reference,
                "{} workers diverged from batch", workers
            );
            let expected = sequential.get_or_insert_with(|| emitted.clone());
            prop_assert_eq!(&emitted, expected, "{} workers != 1 worker", workers);
            let stats = parallel.stats();
            prop_assert_eq!(stats.anomalies.total(), 0, "well-formed feed");
            prop_assert_eq!(stats.open_visits, 0, "finish closed everything");
            prop_assert_eq!(stats.visits_opened, trajectories.len() as u64);
        }
    }

    /// Arbitrary interleavings — including causality-breaking ones that
    /// trigger the anomaly paths — leave N workers byte-identical to
    /// one (same episodes, same anomaly counters, same incremental
    /// drains).
    #[test]
    fn shuffled_feeds_keep_parallel_and_sequential_identical(
        seed in 0u64..1_000_000,
        shuffle_seed in 0u64..1_000_000,
        singles in 5usize..14,
        k in 2usize..6,
        workers in 1usize..9,
        cut_permille in 0usize..1000,
    ) {
        let model = build_louvre();
        let dataset = generated(seed, singles, 1, k);
        let mut events = trajectory_feed(&dataset.visit_trajectories(&model));
        shuffle(&mut events, shuffle_seed);
        let cut = events.len() * cut_permille / 1000;

        let mut sequential = ParallelEngine::new(config(&model, 1, 8)).expect("engine");
        let mut parallel = ParallelEngine::new(config(&model, workers, 8)).expect("engine");

        sequential.ingest_all(events[..cut].iter().cloned());
        parallel.ingest_all(events[..cut].iter().cloned());
        prop_assert_eq!(sequential.drain(), parallel.drain(), "mid-stream drain");

        sequential.ingest_all(events[cut..].iter().cloned());
        parallel.ingest_all(events[cut..].iter().cloned());
        prop_assert_eq!(sequential.finish(), parallel.finish(), "final drain");

        let s = sequential.stats();
        let p = parallel.stats();
        prop_assert_eq!(s.anomalies, p.anomalies, "anomaly accounting diverged");
        prop_assert_eq!(s.events, p.events);
        prop_assert_eq!(s.visits_opened, p.visits_opened);
        prop_assert_eq!(s.visits_closed, p.visits_closed);
        prop_assert_eq!(s.episodes, p.episodes);
        let watermark = parallel.watermark();
        prop_assert_eq!(watermark, sequential.watermark());
        prop_assert_eq!(watermark, expected_watermark(&events));
    }

    /// Crash/checkpoint/restore mid-stream loses and duplicates nothing.
    #[test]
    fn crash_restore_is_exact(
        seed in 0u64..1_000_000,
        singles in 5usize..14,
        k in 2usize..6,
        cut_permille in 0usize..1000,
        workers in 1usize..9,
    ) {
        let model = build_louvre();
        let dataset = generated(seed, singles, 1, k);
        let events = trajectory_feed(&dataset.visit_trajectories(&model));
        let cut = events.len() * cut_permille / 1000;

        // Reference: one uninterrupted parallel run.
        let mut oneshot = ParallelEngine::new(config(&model, workers, 8)).expect("engine");
        oneshot.ingest_all(events.iter().cloned());
        let expected = oneshot.finish();

        let mut delivered;
        let checkpoint;
        {
            let mut engine = ParallelEngine::new(config(&model, workers, 8)).expect("engine");
            engine.ingest_all(events[..cut].iter().cloned());
            delivered = engine.drain();
            checkpoint = engine.checkpoint();
            // Engine dropped here without seeing events[cut..]: the crash.
        }
        let mut restored = ParallelEngine::restore(
            config(&model, workers, 8), &checkpoint,
        ).expect("restore");
        restored.ingest_all(events[cut..].iter().cloned());
        delivered.extend(restored.finish());
        delivered.sort_by_key(|a| a.sort_key());
        prop_assert_eq!(delivered, expected);
    }
}

/// Non-proptest smoke check that the worker-count sweep really exercises
/// multiple threads (guards against a refactor quietly collapsing the
/// parallel path onto the caller's thread).
#[test]
fn parallel_engine_spawns_one_worker_per_shard() {
    let model = build_louvre();
    for workers in [1usize, 2, 4, 8] {
        let engine = ParallelEngine::new(config(&model, workers, 8)).expect("engine");
        assert_eq!(engine.workers(), workers);
    }
}

/// A single-hot-visit feed: one visit receives ~97% of all events (the
/// case that saturated one worker under the old static hash router),
/// plus a handful of cold visits.
fn hot_shard_feed() -> Vec<StreamEvent> {
    let hall = CellRef::new(
        sitm_graph::LayerIdx::from_index(0),
        sitm_graph::NodeId::from_index(3),
    );
    let other = CellRef::new(
        sitm_graph::LayerIdx::from_index(0),
        sitm_graph::NodeId::from_index(4),
    );
    let mut events = Vec::new();
    events.push(StreamEvent::VisitOpened {
        visit: VisitKey(0),
        moving_object: "hot".into(),
        annotations: label("visit"),
        at: sitm_core::Timestamp(0),
    });
    for i in 0..600i64 {
        events.push(StreamEvent::Presence {
            visit: VisitKey(0),
            interval: sitm_core::PresenceInterval::new(
                sitm_core::TransitionTaken::Unknown,
                if i % 2 == 0 { hall } else { other },
                sitm_core::Timestamp(i * 10),
                sitm_core::Timestamp(i * 10 + 10),
            ),
        });
    }
    events.push(StreamEvent::VisitClosed {
        visit: VisitKey(0),
        at: sitm_core::Timestamp(6_000),
    });
    for v in 1..8u64 {
        events.push(StreamEvent::VisitOpened {
            visit: VisitKey(v),
            moving_object: format!("cold-{v}"),
            annotations: label("visit"),
            at: sitm_core::Timestamp(v as i64),
        });
        for i in 0..3i64 {
            events.push(StreamEvent::Presence {
                visit: VisitKey(v),
                interval: sitm_core::PresenceInterval::new(
                    sitm_core::TransitionTaken::Unknown,
                    if i % 2 == 0 { other } else { hall },
                    sitm_core::Timestamp(v as i64 + i * 50),
                    sitm_core::Timestamp(v as i64 + i * 50 + 40),
                ),
            });
        }
        events.push(StreamEvent::VisitClosed {
            visit: VisitKey(v),
            at: sitm_core::Timestamp(v as i64 + 200),
        });
    }
    sitm_stream::event::sort_feed(&mut events);
    events
}

/// The acceptance differential for the work-stealing router: under
/// single-hot-shard skew, every worker count produces byte-identical
/// episodes, stats and watermark to the one-worker engine — while cold
/// visits are free to be stolen by idle workers.
#[test]
fn single_hot_shard_skew_is_byte_identical_for_all_worker_counts() {
    let model = build_louvre();
    let events = hot_shard_feed();
    for workers in [2usize, 4, 8] {
        let mut sequential = ParallelEngine::new(config(&model, 1, 8)).expect("engine");
        let mut parallel = ParallelEngine::new(config(&model, workers, 8)).expect("engine");
        // Mid-stream drain in the middle of the hot visit's burst, then
        // the rest: both cuts must agree.
        let cut = events.len() / 3;
        sequential.ingest_all(events[..cut].iter().cloned());
        parallel.ingest_all(events[..cut].iter().cloned());
        assert_eq!(
            sequential.drain(),
            parallel.drain(),
            "{workers} workers: mid-skew drain"
        );
        sequential.ingest_all(events[cut..].iter().cloned());
        parallel.ingest_all(events[cut..].iter().cloned());
        assert_eq!(
            sequential.finish(),
            parallel.finish(),
            "{workers} workers: final drain"
        );
        let s = sequential.stats();
        let p = parallel.stats();
        assert_eq!(s.events, p.events, "{workers} workers");
        assert_eq!(s.episodes, p.episodes, "{workers} workers");
        assert_eq!(s.anomalies, p.anomalies, "{workers} workers");
        assert_eq!(parallel.watermark(), sequential.watermark());
        assert_eq!(parallel.watermark(), expected_watermark(&events));
    }
}
