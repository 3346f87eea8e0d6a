//! The batch-equivalence contract, property-tested.
//!
//! For arbitrary generated Louvre days, replaying the dataset as an
//! interleaved event stream through [`ParallelEngine`] must yield — for
//! every visit and every predicate — episode lists identical to the batch
//! path (`maximal_episodes` over the completed trajectory), for shard
//! counts 1, 2, and 8, and across a crash/checkpoint-restore in the
//! middle of the stream. Segmentation-level invariants (`covers`,
//! `is_mutually_exclusive`) must agree with batch as well.

use std::collections::BTreeMap;

use proptest::prelude::*;

use sitm_core::{
    maximal_episodes, Annotation, AnnotationSet, Duration, Episode, EpisodicSegmentation,
    IntervalPredicate, SemanticTrajectory,
};
use sitm_louvre::{
    build_louvre, generate_dataset, zone_key, Dataset, GeneratorConfig, LouvreModel,
    PaperCalibration,
};
use sitm_space::CellRef;
use sitm_store::{CheckpointFrame, LogStore};
use sitm_stream::{
    dataset_events, resume_from_log, visit_trajectories, EngineConfig, ParallelEngine, VisitKey,
};

/// Builds a consistent scaled-down calibration from free parameters.
fn calibration(
    singles: usize,
    doubles: usize,
    triples: usize,
    mean_dets: usize,
) -> PaperCalibration {
    let visitors = singles + doubles + triples;
    let revisits = doubles + 2 * triples;
    let visits = visitors + revisits;
    let detections = visits * mean_dets;
    PaperCalibration {
        visits,
        visitors,
        returning_visitors: doubles + triples,
        revisits,
        detections,
        transitions: detections - visits,
        ..PaperCalibration::default()
    }
}

fn generated(seed: u64, singles: usize, doubles: usize, triples: usize, k: usize) -> Dataset {
    generate_dataset(&GeneratorConfig {
        seed,
        calibration: calibration(singles, doubles, triples, k),
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

/// The predicate table under test: spatial, temporal, always-true, and a
/// complementary pair (indices 3 and 4) for exclusivity checks.
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
        (IntervalPredicate::in_cells([hall]).not(), label("off hall")),
    ]
}

/// Batch reference: per (visit, predicate), the maximal episodes.
fn batch_reference(
    trajectories: &[(VisitKey, SemanticTrajectory)],
    predicates: &[(IntervalPredicate, AnnotationSet)],
) -> BTreeMap<(u64, usize), Vec<Episode>> {
    let mut reference = BTreeMap::new();
    for (key, trajectory) in trajectories {
        for (p, (predicate, annotations)) in predicates.iter().enumerate() {
            let episodes = maximal_episodes(trajectory, predicate, annotations.clone())
                .expect("labels differ from A_traj");
            reference.insert((key.0, p), episodes);
        }
    }
    reference
}

/// Groups streamed episodes the same way.
fn group_streamed(emitted: &[sitm_stream::EmittedEpisode]) -> BTreeMap<(u64, usize), Vec<Episode>> {
    let mut grouped: BTreeMap<(u64, usize), Vec<Episode>> = BTreeMap::new();
    for e in emitted {
        grouped
            .entry((e.visit.0, e.predicate))
            .or_default()
            .push(e.episode.clone());
    }
    for episodes in grouped.values_mut() {
        episodes.sort_by_key(|e| e.range.start);
    }
    grouped
}

/// Drops the empty entries so the two maps compare directly (a predicate
/// matching nothing emits nothing on the stream side).
fn without_empty(
    mut map: BTreeMap<(u64, usize), Vec<Episode>>,
) -> BTreeMap<(u64, usize), Vec<Episode>> {
    map.retain(|_, v| !v.is_empty());
    map
}

struct TempLog(std::path::PathBuf);

impl TempLog {
    fn new(tag: u64) -> TempLog {
        TempLog(
            std::env::temp_dir().join(format!("sitm-equivalence-{}-{tag}.log", std::process::id())),
        )
    }
}

impl Drop for TempLog {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn streamed_episodes_equal_batch_for_all_shard_counts(
        seed in 0u64..1_000_000,
        singles in 6usize..20,
        doubles in 0usize..6,
        triples in 0usize..4,
        k in 2usize..6,
        batch_capacity in 1usize..64,
    ) {
        let model = build_louvre();
        let dataset = generated(seed, singles, doubles, triples, k);
        let trajectories = visit_trajectories(&model, &dataset);
        let events = dataset_events(&model, &dataset);
        prop_assert!(!trajectories.is_empty());

        let reference = without_empty(batch_reference(&trajectories, &predicates(&model)));

        for shards in [1usize, 2, 8] {
            let config = EngineConfig::new(predicates(&model))
                .with_shards(shards)
                .with_batch_capacity(batch_capacity);
            let mut engine = ParallelEngine::new(config).expect("non-zero shards");
            engine.ingest_all(events.iter().cloned());
            let emitted = engine.finish();
            let streamed = group_streamed(&emitted);
            prop_assert_eq!(
                &streamed, &reference,
                "shard count {} diverged from batch", shards
            );
            let stats = engine.stats();
            prop_assert_eq!(stats.anomalies.total(), 0, "well-formed feed");
            prop_assert_eq!(stats.open_visits, 0, "finish closed everything");
            prop_assert_eq!(stats.visits_opened, trajectories.len() as u64);
        }
    }

    #[test]
    fn segmentation_invariants_agree_with_batch(
        seed in 0u64..1_000_000,
        singles in 6usize..16,
        k in 2usize..6,
    ) {
        let model = build_louvre();
        let dataset = generated(seed, singles, 2, 1, k);
        let trajectories = visit_trajectories(&model, &dataset);
        let events = dataset_events(&model, &dataset);
        let preds = predicates(&model);

        let mut engine = ParallelEngine::new(
            EngineConfig::new(predicates(&model)).with_shards(2),
        ).expect("engine");
        engine.ingest_all(events);
        let emitted = engine.finish();
        let streamed = group_streamed(&emitted);

        for (key, trajectory) in &trajectories {
            // The complementary pair (predicates 3, 4) partitions the trace.
            let mut pair = EpisodicSegmentation::new();
            for p in [3usize, 4] {
                for e in streamed.get(&(key.0, p)).into_iter().flatten() {
                    pair.push(e.clone());
                }
            }
            let batch_pair = EpisodicSegmentation::from_predicates(
                trajectory,
                &[
                    (IntervalPredicate::in_cells([zone_cell(&model, 60886)]), preds[3].1.clone()),
                    (IntervalPredicate::in_cells([zone_cell(&model, 60886)]).not(), preds[4].1.clone()),
                ],
            ).expect("labels differ");
            prop_assert_eq!(pair.covers(trajectory), batch_pair.covers(trajectory));
            prop_assert_eq!(pair.is_mutually_exclusive(), batch_pair.is_mutually_exclusive());

            // The always-true predicate (index 2) yields one run spanning
            // the trace: its segmentation must cover the trajectory.
            let mut whole = EpisodicSegmentation::new();
            for e in streamed.get(&(key.0, 2)).into_iter().flatten() {
                whole.push(e.clone());
            }
            prop_assert_eq!(whole.len(), 1);
            prop_assert!(whole.covers(trajectory), "'whole visit' covers {}", key);
        }
    }

    #[test]
    fn crash_and_restore_loses_and_duplicates_nothing(
        seed in 0u64..1_000_000,
        singles in 6usize..16,
        k in 2usize..6,
        cut_permille in 0usize..1000,
        shards in 1usize..9,
    ) {
        let model = build_louvre();
        let dataset = generated(seed, singles, 1, 1, k);
        let events = dataset_events(&model, &dataset);
        let cut = events.len() * cut_permille / 1000;

        // Reference: one uninterrupted run.
        let mut oneshot = ParallelEngine::new(
            EngineConfig::new(predicates(&model)).with_shards(shards),
        ).expect("engine");
        oneshot.ingest_all(events.iter().cloned());
        let expected = oneshot.finish();

        // Crashed run: ingest a prefix, drain some, checkpoint, "crash",
        // restore from the log, replay the suffix.
        let log_path = TempLog::new(seed ^ (cut as u64) << 32 ^ shards as u64);
        let mut delivered;
        {
            let mut engine = ParallelEngine::new(
                EngineConfig::new(predicates(&model)).with_shards(shards),
            ).expect("engine");
            engine.ingest_all(events[..cut].iter().cloned());
            delivered = engine.drain();
            let (mut log, _, _) = LogStore::<CheckpointFrame>::open(&log_path.0).expect("log");
            engine.checkpoint(&mut log).expect("checkpoint");
            // Engine dropped here without seeing events[cut..]: the crash.
        }
        let (mut restored, _log, report) = resume_from_log(
            EngineConfig::new(predicates(&model)).with_shards(shards),
            &log_path.0,
        ).expect("restore");
        prop_assert!(report.is_clean());
        restored.ingest_all(events[cut..].iter().cloned());
        delivered.extend(restored.finish());
        delivered.sort_by_key(|a| a.sort_key());

        prop_assert_eq!(delivered, expected);
    }
}
