//! The checkpoint log stays bounded and crash-safe, tortured.
//!
//! Every checkpoint commits through `LogStore::commit`, which rewrites
//! the log to the previous checkpoint and the new one. So (a) the log
//! never holds more than two checkpoints, and (b) after any number of
//! commits, truncating the log at **every byte offset of the final
//! frame** (the torn-tail fuzz idiom) lands recovery on the previous
//! checkpoint — never a panic, never anything older, never half of the
//! torn one.

use sitm_core::{
    Annotation, AnnotationSet, IntervalPredicate, PresenceInterval, Timestamp, TransitionTaken,
};
use sitm_graph::{CellRef, LayerIdx, NodeId};
use sitm_store::segment;
use sitm_stream::{
    resume_from_log, EngineConfig, EngineStats, ParallelEngine, StreamEvent, VisitKey,
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

    let log_path = TempLog::new("bounded");

    // Checkpoint after every slice, recording the state, the log's size
    // and the largest checkpoint payload (taken from a twin engine fed
    // the same slices: a payload is a function of the feed alone).
    let mut expected: Vec<EngineStats> = Vec::new();
    let mut sizes: Vec<u64> = Vec::new();
    let mut largest_payload = 0;
    {
        let (mut engine, mut log, report) =
            resume_from_log(config(), &log_path.0).expect("fresh open");
        assert!(report.is_clean());
        let mut twin = ParallelEngine::new(config()).expect("twin engine");

        for cycle in 0..CYCLES {
            let slice = &events[cycle * chunk..(cycle + 1) * chunk];
            engine.ingest_all(slice.iter().cloned());
            twin.ingest_all(slice.iter().cloned());
            engine.checkpoint(&mut log).expect("commit");
            largest_payload = largest_payload.max(twin.checkpoint_frame().payload.len());
            assert_eq!(log.len(), (cycle + 1).min(2), "cycle {cycle}: frames");
            expected.push(engine.stats());
            sizes.push(log.size_bytes());
        }
    }

    // Boundedness: the header plus two frames, each at most the largest
    // payload behind its sequence and length varints (10 bytes at most
    // each) and the CRC frame.
    let frame_bound = (largest_payload + 2 * 10 + segment::FRAME_OVERHEAD) as u64;
    for (cycle, &size) in sizes.iter().enumerate() {
        assert!(
            size <= segment::MAGIC.len() as u64 + 2 * frame_bound,
            "cycle {cycle}: log {size}B exceeds two checkpoints ({frame_bound}B each)"
        );
    }

    // Torture: tear the final frame at every byte offset. The newest
    // checkpoint (sequence CYCLES) loses its frame, so recovery must
    // land on sequence CYCLES-1 — never panic, never
    // resurrect anything older, never half-apply the torn one.
    let data = std::fs::read(&log_path.0).expect("read log");
    let tail_start = final_frame_start(&data);
    assert!(tail_start > 0 && tail_start < data.len());
    let torn = TempLog::new("torn");
    for cut in tail_start..data.len() {
        std::fs::write(&torn.0, &data[..cut]).expect("write torn copy");
        let (mut engine, _log, _report) = resume_from_log(config(), &torn.0)
            .unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));
        assert_eq!(
            engine.stats(),
            expected[CYCLES - 2],
            "cut at {cut}: expected the previous checkpoint"
        );
    }
    // The intact file lands on the newest checkpoint.
    let (mut engine, _log, report) =
        resume_from_log(config(), &log_path.0).expect("intact recovery");
    assert!(report.is_clean());
    assert_eq!(engine.stats(), expected[CYCLES - 1]);
}

#[test]
fn torn_compaction_sequence_is_never_reused() {
    // After recovering from a torn newest checkpoint, the next commit
    // takes the sequence above every durable frame, and recovery after
    // it sees the new state.
    let events = feed(12);
    let log_path = TempLog::new("seq");
    let mid = events.len() / 2;
    {
        let (mut engine, mut log, _) = resume_from_log(config(), &log_path.0).expect("open");
        engine.ingest_all(events[..mid].iter().cloned());
        engine.checkpoint(&mut log).expect("commit 1");
        engine.ingest_all(events[mid..].iter().cloned());
        engine.checkpoint(&mut log).expect("commit 2");
    }
    // Tear the newest checkpoint's frame.
    let data = std::fs::read(&log_path.0).expect("read");
    let cut = final_frame_start(&data) + 1;
    std::fs::write(&log_path.0, &data[..cut]).expect("tear");

    let (mut engine, mut log, _) = resume_from_log(config(), &log_path.0).expect("resume");
    let before = engine.stats();
    engine.ingest_all(events[mid..].iter().cloned());
    let seq = engine.checkpoint(&mut log).expect("commit 3");
    // A checkpoint is one frame: tearing it left no frame of sequence
    // 2 behind, so 2 is free again.
    assert_eq!(seq, 2, "the next sequence above every durable frame");
    drop((engine, log));

    let (mut restored, log, _) = resume_from_log(config(), &log_path.0).expect("final resume");
    assert_eq!(log.len(), 2, "checkpoints 1 and the new 2");
    assert!(restored.stats().events > before.events, "newest state won");
}
