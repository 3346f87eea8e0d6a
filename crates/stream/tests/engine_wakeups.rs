//! The engine thread is woken only when it can proceed.
//!
//! A parked engine thread — a barrier waiting for quiescence, or the
//! router waiting for the queued events to fall below the backpressure
//! bound — records what it waits for, and a worker sends a wakeup only
//! when its slice made that condition hold. So every wakeup answers a
//! park: `engine.wakeups ≤ engine.parks`. An engine that notified after
//! every slice would send `engine.slices` wakeups, far more than it
//! parks. The feed is a generated Louvre day under a tight bound
//! (`with_channel_depth(4)`, 4-event batches) with a barrier every 97
//! events, and what it streams must still equal batch
//! `maximal_episodes`.

use std::collections::BTreeMap;

use sitm_core::{
    maximal_episodes, Annotation, AnnotationSet, Duration, Episode, IntervalPredicate,
    SemanticTrajectory,
};
use sitm_graph::CellRef;
use sitm_louvre::{
    build_louvre, generate_dataset, zone_key, GeneratorConfig, LouvreModel, PaperCalibration,
};
use sitm_obs::MetricsRegistry;
use sitm_stream::{trajectory_feed, EmittedEpisode, EngineConfig, ParallelEngine};

/// Events between two barriers.
const BARRIER_EVERY: usize = 97;

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
        (
            IntervalPredicate::in_cells([zone_cell(model, 60886)]),
            label("in hall"),
        ),
    ]
}

/// A day of 240 visitors, 30 of them returning, 5 detections a visit.
fn trajectories(model: &LouvreModel) -> Vec<(u64, SemanticTrajectory)> {
    let (singles, doubles, mean_dets) = (210, 30, 5);
    let visits = singles + 2 * doubles;
    let detections = visits * mean_dets;
    let dataset = generate_dataset(&GeneratorConfig {
        seed: 20190326,
        calibration: PaperCalibration {
            visits,
            visitors: singles + doubles,
            returning_visitors: doubles,
            revisits: doubles,
            detections,
            transitions: detections - visits,
            ..PaperCalibration::default()
        },
        ..GeneratorConfig::default()
    });
    dataset.visit_trajectories(model)
}

/// Per (visit, predicate), episodes in their stable content order.
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

#[test]
fn every_wakeup_answers_a_park_and_streamed_equals_batch() {
    let model = build_louvre();
    let trajectories = trajectories(&model);
    let events = trajectory_feed(&trajectories);
    let reference = batch_reference(&trajectories, &predicates(&model));
    assert!(events.len() > 10 * BARRIER_EVERY, "{} events", events.len());

    for workers in [2usize, 4] {
        let registry = MetricsRegistry::new();
        let config = EngineConfig::new(predicates(&model))
            .with_shards(workers)
            .with_batch_capacity(4)
            .with_channel_depth(4)
            .with_metrics(registry.clone());
        let mut engine = ParallelEngine::new(config).expect("engine");
        let mut emitted = Vec::new();
        for barrier in events.chunks(BARRIER_EVERY) {
            engine.ingest_all(barrier.iter().cloned());
            emitted.extend(engine.drain());
        }
        emitted.extend(engine.finish());
        assert_eq!(
            grouped(&emitted),
            reference,
            "{workers} workers diverged from batch"
        );

        let snapshot = registry.snapshot();
        let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
        let (slices, parks, wakeups) = (
            counter("engine.slices"),
            counter("engine.parks"),
            counter("engine.wakeups"),
        );
        eprintln!("{workers} workers: {slices} slices, {parks} parks, {wakeups} wakeups");
        assert!(slices > 0, "{workers} workers: no slice counted");
        assert!(
            wakeups <= parks,
            "{workers} workers: {wakeups} wakeups sent for {parks} parks ({slices} slices)"
        );
    }
}
