//! Checkpoint-log compaction: boundedness and crash-safety, tortured.
//!
//! PR 1's log grew by one full snapshot per checkpoint. The
//! [`Checkpointer`] must (a) keep the log bounded at
//! `CompactionPolicy::keep` snapshots, and (b) never make recovery
//! *worse*: after any number of checkpoint+compact cycles, truncating
//! the log at **every byte offset of the final frame** (the torn-tail
//! fuzz idiom from PR 1) must land recovery on the newest complete
//! checkpoint still durable — which, with `keep: 2`, is the previous
//! checkpoint whenever the newest one is torn.

use sitm_core::{
    Annotation, AnnotationSet, IntervalPredicate, PresenceInterval, Timestamp, TransitionTaken,
};
use sitm_graph::{LayerIdx, NodeId};
use sitm_space::CellRef;
use sitm_store::{segment, CheckpointFrame, CompactionPolicy, LogStore};
use sitm_stream::{
    resume_compacting, EngineConfig, EngineStats, ParallelEngine, StreamEvent, VisitKey,
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
}

/// A feed of `visits` visits, three presences each.
fn feed(visits: u64) -> Vec<StreamEvent> {
    let mut events = Vec::new();
    for v in 0..visits {
        let base = v as i64 * 10;
        events.push(StreamEvent::VisitOpened {
            visit: VisitKey(v),
            moving_object: format!("mo-{v}"),
            annotations: label("visit"),
            at: Timestamp(base),
        });
        for (i, c) in [1usize, 0, 1].iter().enumerate() {
            events.push(StreamEvent::Presence {
                visit: VisitKey(v),
                interval: PresenceInterval::new(
                    TransitionTaken::Unknown,
                    cell(*c),
                    Timestamp(base + i as i64 * 100),
                    Timestamp(base + i as i64 * 100 + 50),
                ),
            });
        }
        events.push(StreamEvent::VisitClosed {
            visit: VisitKey(v),
            at: Timestamp(base + 250),
        });
    }
    sitm_stream::event::sort_feed(&mut events);
    events
}

struct TempLog(std::path::PathBuf);

impl TempLog {
    fn new(tag: &str) -> TempLog {
        TempLog(
            std::env::temp_dir().join(format!("sitm-compaction-{tag}-{}.log", std::process::id())),
        )
    }
}

impl Drop for TempLog {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(self.0.with_extension("tmp"));
    }
}

/// Byte offset where the last intact frame of `data` begins.
fn final_frame_start(data: &[u8]) -> usize {
    let outcome = segment::scan(data);
    assert!(outcome.corruption.is_none(), "log is intact");
    let last_payload = outcome.payloads.last().expect("at least one frame");
    outcome.valid_len - (segment::FRAME_OVERHEAD + last_payload.len())
}

#[test]
fn compacted_log_stays_bounded_and_every_tear_recovers() {
    const CYCLES: usize = 5;
    let events = feed(30);
    let chunk = events.len() / CYCLES;

    let compacted = TempLog::new("bounded");
    let uncompacted = TempLog::new("naive");

    // Drive the same engine state through a compacting checkpointer and
    // a PR 1-style append-only log, recording state fingerprints and
    // sizes after every cycle.
    let mut expected: Vec<EngineStats> = Vec::new();
    let mut naive_sizes: Vec<u64> = Vec::new();
    let mut compacted_sizes: Vec<u64> = Vec::new();
    {
        let (mut engine, mut checkpointer, report) =
            resume_compacting(config(), &compacted.0, CompactionPolicy::default())
                .expect("fresh open");
        assert!(report.is_clean());
        let (mut naive_log, _, _) =
            LogStore::<CheckpointFrame>::open(&uncompacted.0).expect("naive log");
        let mut naive = ParallelEngine::new(config()).expect("naive engine");

        for cycle in 0..CYCLES {
            let slice = &events[cycle * chunk..(cycle + 1) * chunk];
            engine.ingest_all(slice.iter().cloned());
            naive.ingest_all(slice.iter().cloned());
            engine.checkpoint_into(&mut checkpointer).expect("commit");
            naive.checkpoint(&mut naive_log).expect("append");
            expected.push(engine.stats());
            naive_sizes.push(naive_log.size_bytes());
            compacted_sizes.push(checkpointer.log().size_bytes());
        }
    }

    // Boundedness: the naive log grows by ~one snapshot per checkpoint;
    // the compacted one holds at most `keep = 2` snapshots at all times.
    let max_snapshot = naive_sizes
        .windows(2)
        .map(|w| w[1] - w[0])
        .chain([naive_sizes[0]])
        .max()
        .unwrap();
    for (cycle, &size) in compacted_sizes.iter().enumerate() {
        assert!(
            size <= 2 * max_snapshot + segment::MAGIC.len() as u64,
            "cycle {cycle}: compacted log {size}B exceeds two snapshots ({max_snapshot}B each)"
        );
    }
    assert!(
        compacted_sizes[CYCLES - 1] < naive_sizes[CYCLES - 1],
        "compaction must beat append-only growth"
    );

    // Torture: tear the final frame at every byte offset. The newest
    // checkpoint (sequence CYCLES) loses its frame, so recovery must
    // land on sequence CYCLES-1 — never panic, never
    // resurrect anything older, never half-apply the torn one.
    let data = std::fs::read(&compacted.0).expect("read log");
    let tail_start = final_frame_start(&data);
    assert!(tail_start > 0 && tail_start < data.len());
    let torn = TempLog::new("torn");
    for cut in tail_start..data.len() {
        std::fs::write(&torn.0, &data[..cut]).expect("write torn copy");
        let (mut engine, _ckpt, _report) =
            resume_compacting(config(), &torn.0, CompactionPolicy::default())
                .unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));
        assert_eq!(
            engine.stats(),
            expected[CYCLES - 2],
            "cut at {cut}: expected the previous complete checkpoint"
        );
    }
    // The intact file lands on the newest checkpoint.
    let (mut engine, _ckpt, report) =
        resume_compacting(config(), &compacted.0, CompactionPolicy::default())
            .expect("intact recovery");
    assert!(report.is_clean());
    assert_eq!(engine.stats(), expected[CYCLES - 1]);
}

#[test]
fn torn_compaction_sequence_is_never_reused() {
    // After recovering from a torn newest checkpoint, the next commit
    // must take a sequence above every durable frame, and compaction
    // must not break that: recovery after the new commit sees the new
    // state.
    let events = feed(12);
    let log = TempLog::new("seq");
    let mid = events.len() / 2;
    {
        let (mut engine, mut ckpt, _) =
            resume_compacting(config(), &log.0, CompactionPolicy::default()).expect("open");
        engine.ingest_all(events[..mid].iter().cloned());
        engine.checkpoint_into(&mut ckpt).expect("commit 1");
        engine.ingest_all(events[mid..].iter().cloned());
        engine.checkpoint_into(&mut ckpt).expect("commit 2");
    }
    // Tear the newest checkpoint's final frame.
    let data = std::fs::read(&log.0).expect("read");
    let cut = final_frame_start(&data) + 1;
    std::fs::write(&log.0, &data[..cut]).expect("tear");

    let (mut engine, mut ckpt, _) =
        resume_compacting(config(), &log.0, CompactionPolicy::default()).expect("resume");
    let before = engine.stats();
    engine.ingest_all(events[mid..].iter().cloned());
    let seq = engine.checkpoint_into(&mut ckpt).expect("commit 3");
    // A checkpoint is one frame: tearing it left no frame of sequence
    // 2 behind, so 2 is free again. (A torn checkpoint of several
    // frames, as older engines wrote, burns its sequence: see
    // `torn_higher_sequence_is_never_reused` in the checkpoint module.)
    assert_eq!(seq, 2, "the next sequence above every durable frame");
    drop((engine, ckpt));

    let (mut restored, _, _) =
        resume_compacting(config(), &log.0, CompactionPolicy::default()).expect("final resume");
    assert!(restored.stats().events > before.events, "newest state won");
}

#[test]
fn deferred_compaction_appends_then_rewrites() {
    // every: 3 → two appends, then one compacting rewrite that shrinks
    // the log back to `keep` snapshots.
    let events = feed(18);
    let chunk = events.len() / 6;
    let log = TempLog::new("deferred");
    let policy = CompactionPolicy { keep: 2, every: 3 };
    let (mut engine, mut ckpt, _) = resume_compacting(config(), &log.0, policy).expect("open");

    let mut frame_counts = Vec::new();
    for cycle in 0..6 {
        engine.ingest_all(events[cycle * chunk..(cycle + 1) * chunk].iter().cloned());
        engine.checkpoint_into(&mut ckpt).expect("commit");
        frame_counts.push(ckpt.log().len());
    }
    // One frame per checkpoint: commits 1 and 2 append (1, then 2
    // frames), commit 3 compacts back to `keep = 2` checkpoints (2
    // frames), and the pattern repeats.
    assert_eq!(frame_counts, vec![1, 2, 2, 3, 4, 2]);
    // Recovery still lands on the newest checkpoint.
    drop((engine, ckpt));
    let (mut restored, _, report) = resume_compacting(config(), &log.0, policy).expect("resume");
    assert!(report.is_clean());
    assert_eq!(restored.stats().visits_opened, 18);
}
