//! A checkpoint is one frame whose bytes are a function of the feed
//! alone: not of the worker count, the router batch, or which worker
//! applied which visit. And a checkpoint split into one frame per hash
//! shard — the layout older engines wrote — restores into any worker
//! count, re-checkpoints to the same bytes and finishes the day as if
//! never stopped.

use sitm_core::{Annotation, AnnotationSet, Duration, IntervalPredicate};
use sitm_louvre::{
    build_louvre, generate_dataset, zone_key, GeneratorConfig, LouvreModel, PaperCalibration,
};
use sitm_store::{fnv1a, CheckpointFrame, LogStore};
use sitm_stream::checkpoint::{decode_shard, encode_shard};
use sitm_stream::shard::ShardSnapshot;
use sitm_stream::{resume_from_log, trajectory_feed, EngineConfig, ParallelEngine, StreamEvent};

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

/// The payload of a checkpoint, which must be one frame.
fn only_payload(frames: Vec<CheckpointFrame>) -> Vec<u8> {
    assert_eq!(frames.len(), 1, "one frame per checkpoint");
    assert_eq!((frames[0].shard, frames[0].shard_count), (0, 1));
    frames.into_iter().next().expect("one frame").payload
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
            let midday = only_payload(engine.checkpoint_frames());
            engine.ingest_all(events[half..].iter().cloned());
            let evening = only_payload(engine.checkpoint_frames());

            let (snapshot, _) = decode_shard(&evening).expect("decodes");
            assert!(
                snapshot.closed.len() < fence_capacity,
                "no fence was evicted"
            );
            let at = format!("{workers} workers, batch {batch_capacity}");
            match &reference {
                None => {
                    // Every part of the payload is exercised.
                    let (noon, _) = decode_shard(&midday).expect("decodes");
                    assert!(!noon.visits.is_empty(), "open visits");
                    assert!(!noon.closed.is_empty(), "fences");
                    assert!(!noon.pending.is_empty(), "undrained episodes");
                    assert!(!noon.finished.is_empty(), "finished backlog");
                    // The feed is pinned too: a change in how the seeded
                    // day becomes events moves these.
                    let pin = |payload: &[u8]| (payload.len(), fnv1a(payload));
                    assert_eq!(pin(&midday), (14_657, 0xee29_fb16_3b68_6a06), "midday");
                    assert_eq!(pin(&evening), (27_797, 0xd1c9_3575_9844_d4e3), "evening");
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

/// `whole` cut into one frame per hash shard, as older engines wrote a
/// checkpoint: each part holds the visits, fences, episodes and
/// backlog its shard owns and the high-water mark of the events routed
/// to it; the counters ride on shard 0.
fn split_by_hash_shard(
    whole: &ShardSnapshot,
    predicate_count: usize,
    fed: &[StreamEvent],
    shards: usize,
    sequence: u64,
) -> Vec<CheckpointFrame> {
    let shard = |key: u64| (fnv1a(&key.to_le_bytes()) % shards as u64) as usize;
    let mut parts = vec![ShardSnapshot::default(); shards];
    for event in fed {
        let watermark = &mut parts[shard(event.visit().0)].watermark;
        *watermark = (*watermark).max(Some(event.time()));
    }
    for (key, visit) in &whole.visits {
        parts[shard(*key)].visits.push((*key, visit.clone()));
    }
    for &(key, at) in &whole.closed {
        parts[shard(key)].closed.push((key, at));
    }
    for episode in &whole.pending {
        parts[shard(episode.visit.0)].pending.push(episode.clone());
    }
    for (key, trajectory) in &whole.finished {
        parts[shard(*key)].finished.push((*key, trajectory.clone()));
    }
    parts[0].stats = whole.stats;
    parts
        .iter()
        .enumerate()
        .map(|(i, part)| CheckpointFrame {
            sequence,
            shard: i as u32,
            shard_count: shards as u32,
            payload: encode_shard(part, predicate_count),
        })
        .collect()
}

#[test]
fn a_checkpoint_split_by_hash_shard_restores_into_any_worker_count() {
    let (model, events) = day();
    let half = events.len() / 2;
    let mut uninterrupted = ParallelEngine::new(config(&model, 2, 16)).expect("engine");
    uninterrupted.ingest_all(events.iter().cloned());
    let expected = uninterrupted.finish();
    let expected_finished = uninterrupted.take_finished();

    let mut engine = ParallelEngine::new(config(&model, 2, 16)).expect("engine");
    engine.ingest_all(events[..half].iter().cloned());
    let frame = engine.checkpoint_frames().remove(0);
    drop(engine);
    let (whole, predicate_count) = decode_shard(&frame.payload).expect("decodes");

    let path =
        std::env::temp_dir().join(format!("sitm-split-checkpoint-{}.log", std::process::id()));
    for shards in [2usize, 3, 8] {
        let frames = split_by_hash_shard(
            &whole,
            predicate_count,
            &events[..half],
            shards,
            frame.sequence,
        );
        for workers in [1usize, 4] {
            let at = format!("{shards} shards into {workers} workers");
            let _ = std::fs::remove_file(&path);
            {
                let (mut log, _, _) = LogStore::<CheckpointFrame>::open(&path).expect("log");
                for frame in &frames {
                    log.append(frame).expect("append");
                }
                log.sync().expect("sync");
            }
            let (mut restored, _log, report) =
                resume_from_log(config(&model, workers, 16), &path).expect("restore");
            assert!(report.is_clean(), "{at}");
            assert_eq!(restored.workers(), workers);
            assert!(
                only_payload(restored.checkpoint_frames()) == frame.payload,
                "{at}: re-checkpoint moved"
            );
            restored.ingest_all(events[half..].iter().cloned());
            assert_eq!(restored.finish(), expected, "{at}: episodes");
            assert_eq!(restored.take_finished(), expected_finished, "{at}: backlog");
        }
    }
    let _ = std::fs::remove_file(&path);
}
