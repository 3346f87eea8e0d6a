//! Checkpoint encoding and crash recovery.
//!
//! The engine's state serializes into the opaque payload of one
//! [`sitm_store::CheckpointFrame`] using the [`sitm_codec`] primitives
//! and the store's annotation / presence / episode codecs, and commits
//! through the CRC-framed [`LogStore`] for durability: each commit
//! rewrites the log to the previous checkpoint and the new one. A torn
//! newest frame is cut off by the store's scanner, and recovery restores
//! the last frame recovered — the previous checkpoint. The payload is a
//! function of the ingested feed alone — not of the worker count, the
//! router batch, or which worker applied which visit — so a checkpoint
//! restores into any worker count.
//!
//! Logs written by older engines split a checkpoint into one frame per
//! hash shard, in a frame layout with two more fields. Their frames do
//! not decode: recovery reports them as undecodable, restores nothing,
//! and the first checkpoint replaces them.
//!
//! Predicates are **not** serialized — they are code. Restore re-supplies
//! the same [`EngineConfig`]; the payload records the predicate count so
//! a mismatched configuration is rejected instead of silently mislabeling
//! runs.

use sitm_codec::{put_i64, put_str, put_u64, take_count, take_flag, take_i64, take_str, take_u64};
use sitm_core::{OpenRun, Timestamp};
use sitm_graph::LayerIdx;
use sitm_store::codec::{
    decode_annotations, decode_cell, decode_episode, decode_presence, encode_annotations,
    encode_cell, encode_episode, encode_presence, CodecError,
};
use sitm_store::{CheckpointFrame, LogStore, RecoveryReport};

use crate::engine::{EngineConfig, EngineError};
use crate::event::VisitKey;
use crate::parallel::ParallelEngine;
use crate::segmenter::SegmenterSnapshot;
use crate::shard::{EmittedEpisode, ShardSnapshot, ShardStats};
use crate::visit::{Anomalies, OpenFix, VisitSnapshot};

/// Payload format version. Version 2 added the retained live-query
/// intervals to each visit's state; version 3 added the
/// finished-but-unflushed trajectory backlog (the warehouse drain's
/// exactly-once buffer). Older payloads are no longer produced, and
/// rejecting them keeps the decoder honest.
const VERSION: u8 = 3;

/// Checkpoint payload failures.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying codec failure.
    Codec(CodecError),
    /// Unknown payload version.
    BadVersion(u8),
    /// The payload was empty, or had bytes past its end.
    Malformed(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Codec(e) => write!(f, "codec: {e}"),
            CheckpointError::BadVersion(v) => write!(f, "unknown checkpoint version {v}"),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Codec(e)
    }
}

impl From<sitm_codec::Error> for CheckpointError {
    fn from(e: sitm_codec::Error) -> Self {
        CheckpointError::Codec(e.into())
    }
}

fn put_opt_i64(buf: &mut Vec<u8>, v: Option<i64>) {
    buf.push(u8::from(v.is_some()));
    if let Some(v) = v {
        put_i64(buf, v);
    }
}

fn take_opt_i64(buf: &mut &[u8]) -> Result<Option<i64>, CheckpointError> {
    Ok(if take_flag(buf)? {
        Some(take_i64(buf)?)
    } else {
        None
    })
}

// --- payload ---------------------------------------------------------------

/// Serializes one engine snapshot (with the predicate-table arity, for
/// restore-time validation).
pub fn encode_shard(snapshot: &ShardSnapshot, predicate_count: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    buf.push(VERSION);
    put_u64(&mut buf, predicate_count as u64);
    put_opt_i64(&mut buf, snapshot.watermark.map(|t| t.0));

    put_u64(&mut buf, snapshot.visits.len() as u64);
    for (key, visit) in &snapshot.visits {
        put_u64(&mut buf, *key);
        encode_visit_state(&mut buf, visit);
    }

    put_u64(&mut buf, snapshot.closed.len() as u64);
    for (key, closed_at) in &snapshot.closed {
        put_u64(&mut buf, *key);
        put_i64(&mut buf, closed_at.0);
    }

    put_u64(&mut buf, snapshot.pending.len() as u64);
    for e in &snapshot.pending {
        put_u64(&mut buf, e.visit.0);
        put_str(&mut buf, &e.moving_object);
        put_u64(&mut buf, e.predicate as u64);
        encode_episode(&mut buf, &e.episode);
    }

    put_u64(&mut buf, snapshot.finished.len() as u64);
    for (key, trajectory) in &snapshot.finished {
        put_u64(&mut buf, *key);
        sitm_store::codec::encode_trajectory(&mut buf, trajectory);
    }

    encode_stats(&mut buf, &snapshot.stats);
    buf
}

/// Deserializes one engine snapshot; returns the predicate count the
/// checkpoint was taken under.
pub fn decode_shard(payload: &[u8]) -> Result<(ShardSnapshot, usize), CheckpointError> {
    let mut buf = payload;
    let Some((&version, rest)) = buf.split_first() else {
        return Err(CheckpointError::Malformed("empty payload"));
    };
    buf = rest;
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let predicate_count = take_u64(&mut buf)? as usize;
    let watermark = take_opt_i64(&mut buf)?.map(Timestamp);

    let visit_count = take_count(&mut buf, 1)?;
    let mut visits = Vec::with_capacity(visit_count);
    for _ in 0..visit_count {
        let key = take_u64(&mut buf)?;
        visits.push((key, decode_visit_state(&mut buf, predicate_count)?));
    }

    let closed_count = take_count(&mut buf, 1)?;
    let mut closed = Vec::with_capacity(closed_count);
    for _ in 0..closed_count {
        let key = take_u64(&mut buf)?;
        let closed_at = Timestamp(take_i64(&mut buf)?);
        closed.push((key, closed_at));
    }

    let pending_count = take_count(&mut buf, 1)?;
    let mut pending = Vec::with_capacity(pending_count);
    for _ in 0..pending_count {
        let visit = VisitKey(take_u64(&mut buf)?);
        let moving_object = take_str(&mut buf)?.to_owned();
        let predicate = take_u64(&mut buf)? as usize;
        let episode = decode_episode(&mut buf)?;
        pending.push(EmittedEpisode {
            visit,
            moving_object,
            predicate,
            episode,
        });
    }

    let finished_count = take_count(&mut buf, 1)?;
    let mut finished = Vec::with_capacity(finished_count);
    for _ in 0..finished_count {
        let key = take_u64(&mut buf)?;
        let trajectory = sitm_store::codec::decode_trajectory(&mut buf)?;
        finished.push((key, trajectory));
    }

    let stats = decode_stats(&mut buf)?;
    if !buf.is_empty() {
        return Err(CheckpointError::Malformed("trailing bytes"));
    }
    Ok((
        ShardSnapshot {
            watermark,
            visits,
            closed,
            pending,
            finished,
            stats,
        },
        predicate_count,
    ))
}

fn encode_visit_state(buf: &mut Vec<u8>, v: &VisitSnapshot) {
    put_str(buf, &v.moving_object);
    encode_annotations(buf, &v.annotations);
    put_opt_i64(buf, v.layer.map(|l| l.index() as i64));
    put_opt_i64(buf, v.last_start.map(|t| t.0));
    buf.push(u8::from(v.open_fix.is_some()));
    if let Some(open) = &v.open_fix {
        encode_cell(buf, open.cell);
        put_i64(buf, open.start.0);
        put_i64(buf, open.last_at.0);
    }
    put_u64(buf, v.segmenter.index as u64);
    for (suppressed, run) in v.segmenter.suppressed.iter().zip(&v.segmenter.open_runs) {
        buf.push(u8::from(*suppressed));
        buf.push(u8::from(run.is_some()));
        if let Some(run) = run {
            put_u64(buf, run.start as u64);
            put_i64(buf, run.start_time.0);
            put_i64(buf, run.max_end.0);
        }
    }
    put_u64(buf, v.intervals.len() as u64);
    for interval in &v.intervals {
        encode_presence(buf, interval);
    }
}

fn decode_visit_state(
    buf: &mut &[u8],
    predicate_count: usize,
) -> Result<VisitSnapshot, CheckpointError> {
    let moving_object = take_str(buf)?.to_owned();
    let annotations = decode_annotations(buf)?;
    let layer = take_opt_i64(buf)?.map(|i| LayerIdx::from_index(i as usize));
    let last_start = take_opt_i64(buf)?.map(Timestamp);
    let open_fix = if take_flag(buf)? {
        let cell = decode_cell(buf)?;
        let start = Timestamp(take_i64(buf)?);
        let last_at = Timestamp(take_i64(buf)?);
        Some(OpenFix {
            cell,
            start,
            last_at,
        })
    } else {
        None
    };
    let index = take_u64(buf)? as usize;
    let mut suppressed = Vec::with_capacity(predicate_count);
    let mut open_runs = Vec::with_capacity(predicate_count);
    for _ in 0..predicate_count {
        suppressed.push(take_flag(buf)?);
        open_runs.push(if take_flag(buf)? {
            Some(OpenRun {
                start: take_u64(buf)? as usize,
                start_time: Timestamp(take_i64(buf)?),
                max_end: Timestamp(take_i64(buf)?),
            })
        } else {
            None
        });
    }
    let interval_count = take_count(buf, 1)?;
    let mut intervals = Vec::with_capacity(interval_count);
    for _ in 0..interval_count {
        intervals.push(decode_presence(buf)?);
    }
    Ok(VisitSnapshot {
        moving_object,
        annotations,
        layer,
        last_start,
        open_fix,
        segmenter: SegmenterSnapshot {
            index,
            open_runs,
            suppressed,
        },
        intervals,
    })
}

fn encode_stats(buf: &mut Vec<u8>, s: &ShardStats) {
    for v in [
        s.events,
        s.presences,
        s.fixes,
        s.visits_opened,
        s.visits_closed,
        s.episodes,
        // Reserved: older engines counted worker pick-ups
        // (`batches_flushed`) here. Written as 0, ignored on read.
        0,
        s.anomalies.out_of_order,
        s.anomalies.mixed_layer,
        s.anomalies.instantaneous_dropped,
        s.anomalies.implicit_opens,
        s.anomalies.after_close,
        s.anomalies.not_proper,
        s.anomalies.duplicate_opens,
    ] {
        put_u64(buf, v);
    }
}

fn decode_stats(buf: &mut &[u8]) -> Result<ShardStats, CheckpointError> {
    let mut take = || take_u64(buf).map_err(CheckpointError::from);
    Ok(ShardStats {
        events: take()?,
        presences: take()?,
        fixes: take()?,
        visits_opened: take()?,
        visits_closed: take()?,
        episodes: take()?,
        anomalies: {
            take()?; // the reserved slot
            Anomalies {
                out_of_order: take()?,
                mixed_layer: take()?,
                instantaneous_dropped: take()?,
                implicit_opens: take()?,
                after_close: take()?,
                not_proper: take()?,
                duplicate_opens: take()?,
            }
        },
    })
}

/// Decodes one checkpoint and validates it against `config` —
/// predicate arity, retention reconciliation. Returns the snapshot plus
/// the checkpoint's sequence.
pub(crate) fn decode_checkpoint(
    config: &EngineConfig,
    frame: &CheckpointFrame,
) -> Result<(ShardSnapshot, u64), EngineError> {
    let (mut snapshot, predicate_count) = decode_shard(&frame.payload)?;
    if predicate_count != config.predicates.len() {
        return Err(EngineError::PredicateCountMismatch {
            configured: config.predicates.len(),
            recorded: predicate_count,
        });
    }
    crate::engine::reconcile_retention(&mut snapshot, config);
    Ok((snapshot, frame.sequence))
}

// --- recovery --------------------------------------------------------------

/// Opens (or creates) the checkpoint log at `path` and rebuilds the
/// engine from the last checkpoint it recovers, or fresh from `config`
/// when there is none. Returns the engine, the log (ready for
/// [`ParallelEngine::checkpoint`]), and the store's recovery report.
///
/// The restored frame is the last in the log, so it carries the
/// highest sequence, and the next checkpoint takes the one above it.
///
/// Retention mismatches are reconciled at restore: a checkpoint taken
/// *without* interval retention restores into a retaining config with
/// empty prefixes (live queries see only post-restore intervals for
/// those visits), and a checkpoint taken *with* retention restoring
/// into a non-retaining config drops the stored prefixes rather than
/// serving them frozen — those visits read as unqueryable, never stale.
pub fn resume_from_log(
    config: EngineConfig,
    path: impl AsRef<std::path::Path>,
) -> Result<(ParallelEngine, LogStore<CheckpointFrame>, RecoveryReport), EngineError> {
    let (log, frames, report) = LogStore::<CheckpointFrame>::open(path)?;
    let engine = match frames.last() {
        Some(frame) => ParallelEngine::restore(config, frame)?,
        None => ParallelEngine::new(config)?,
    };
    Ok((engine, log, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::event::StreamEvent;
    use sitm_core::{
        Annotation, AnnotationSet, IntervalPredicate, PresenceInterval, TransitionTaken,
    };
    use sitm_graph::{CellRef, NodeId};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    struct TempPath(PathBuf);

    impl TempPath {
        fn new(tag: &str) -> TempPath {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            TempPath(std::env::temp_dir().join(format!(
                "sitm-stream-ckpt-{tag}-{}-{n}.log",
                std::process::id()
            )))
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
    }

    fn label(s: &str) -> AnnotationSet {
        AnnotationSet::from_iter([Annotation::goal(s)])
    }

    fn config() -> EngineConfig {
        EngineConfig::new(vec![(IntervalPredicate::in_cells([cell(1)]), label("one"))])
            .with_shards(2)
            .with_batch_capacity(1)
    }

    fn presence(v: u64, c: usize, start: i64) -> StreamEvent {
        StreamEvent::Presence {
            visit: VisitKey(v),
            interval: PresenceInterval::new(
                TransitionTaken::Unknown,
                cell(c),
                Timestamp(start),
                Timestamp(start + 10),
            ),
        }
    }

    #[test]
    fn payload_round_trips() {
        let mut engine = ParallelEngine::new(config()).unwrap();
        engine.ingest(StreamEvent::VisitOpened {
            visit: VisitKey(1),
            moving_object: "mo".into(),
            annotations: label("visit"),
            at: Timestamp(0),
        });
        engine.ingest(presence(1, 1, 0));
        engine.ingest(presence(1, 0, 20));
        engine.flush();
        let tmp = TempPath::new("roundtrip");
        let (mut log, _, _) = LogStore::<CheckpointFrame>::open(&tmp.0).unwrap();
        let seq = engine.checkpoint(&mut log).unwrap();
        assert_eq!(seq, 1);
        drop(log);

        let (mut restored, _log, report) = resume_from_log(config(), &tmp.0).unwrap();
        assert!(report.is_clean());
        let stats = restored.stats();
        assert_eq!(stats.presences, 2);
        assert_eq!(stats.open_visits, 1);
    }

    #[test]
    fn predicate_mismatch_is_rejected() {
        let mut engine = ParallelEngine::new(config()).unwrap();
        engine.ingest(presence(3, 1, 0));
        let tmp = TempPath::new("mismatch");
        let (mut log, _, _) = LogStore::<CheckpointFrame>::open(&tmp.0).unwrap();
        engine.checkpoint(&mut log).unwrap();
        drop(log);

        let two_predicates = EngineConfig::new(vec![
            (IntervalPredicate::in_cells([cell(1)]), label("one")),
            (IntervalPredicate::any(), label("all")),
        ])
        .with_shards(2);
        assert!(matches!(
            resume_from_log(two_predicates, &tmp.0),
            Err(EngineError::PredicateCountMismatch { .. })
        ));
    }

    /// A checkpoint does not depend on the worker count, so a 2-worker
    /// log restores into 3 workers and finishes as if never stopped.
    #[test]
    fn a_two_worker_log_restores_into_three_workers() {
        let events: Vec<StreamEvent> = (0..6)
            .flat_map(|v| [presence(v, 1, v as i64), presence(v, 0, 20 + v as i64)])
            .collect();
        let mut uninterrupted = ParallelEngine::new(config()).unwrap();
        uninterrupted.ingest_all(events.iter().cloned());
        let expected = uninterrupted.finish();

        let mut engine = ParallelEngine::new(config()).unwrap();
        engine.ingest_all(events[..7].iter().cloned());
        let mut delivered = engine.drain();
        let tmp = TempPath::new("workers");
        let (mut log, _, _) = LogStore::<CheckpointFrame>::open(&tmp.0).unwrap();
        engine.checkpoint(&mut log).unwrap();
        drop(log);
        let frame = engine.checkpoint_frame();
        drop(engine);

        let (mut restored, _log, report) =
            resume_from_log(config().with_shards(3), &tmp.0).unwrap();
        assert!(report.is_clean());
        assert_eq!(restored.workers(), 3);
        assert_eq!(restored.checkpoint_frame().payload, frame.payload);
        restored.ingest_all(events[7..].iter().cloned());
        delivered.extend(restored.finish());
        delivered.sort_by_key(|e| e.sort_key());
        assert_eq!(delivered, expected);
    }

    /// A log in the older multi-frame layout (`sequence | shard |
    /// shard_count | payload`) is refused visibly, not misread: every
    /// frame is undecodable, nothing is restored, and the first
    /// checkpoint replaces the old frames.
    #[test]
    fn an_old_multi_frame_log_is_refused_not_misread() {
        let tmp = TempPath::new("old-layout");
        let mut engine = ParallelEngine::new(config()).unwrap();
        engine.ingest(presence(1, 1, 0));
        let payload = engine.checkpoint_frame().payload;
        drop(engine);
        let mut old = Vec::new();
        sitm_store::write_header(&mut old);
        for (sequence, shard, shard_count) in [(1, 0, 1), (2, 0, 2), (2, 1, 2)] {
            let mut record = Vec::new();
            put_u64(&mut record, sequence);
            put_u64(&mut record, shard);
            put_u64(&mut record, shard_count);
            sitm_codec::put_bytes(&mut record, &payload);
            sitm_store::write_frame(&mut old, &record);
        }
        std::fs::write(&tmp.0, &old).unwrap();

        let (mut restored, mut log, report) = resume_from_log(config(), &tmp.0).unwrap();
        assert_eq!(report.undecodable_frames, 3, "every old frame is counted");
        assert_eq!(report.recovered, 0);
        assert_eq!(restored.stats().events, 0, "nothing is restored");
        restored.ingest(presence(1, 1, 0));
        assert_eq!(restored.checkpoint(&mut log).unwrap(), 1);
        drop(log);

        let (mut again, log, report) = resume_from_log(config(), &tmp.0).unwrap();
        assert!(report.is_clean(), "the old frames are gone");
        assert_eq!(log.len(), 1);
        assert_eq!(again.stats().presences, 1);
    }

    /// Writes `count` checkpoints to a log at `path`, one presence
    /// ingested before each, and tears `tear` bytes off the end of the
    /// file.
    fn write_checkpoints(path: &std::path::Path, count: usize, tear: usize) {
        let mut engine = ParallelEngine::new(config()).unwrap();
        let (mut log, _, _) = LogStore::<CheckpointFrame>::open(path).unwrap();
        for (i, event) in [presence(1, 1, 0), presence(1, 0, 20)]
            .into_iter()
            .take(count)
            .enumerate()
        {
            engine.ingest(event);
            assert_eq!(engine.checkpoint(&mut log).unwrap(), i as u64 + 1);
        }
        let data = std::fs::read(path).unwrap();
        std::fs::write(path, &data[..data.len() - tear]).unwrap();
    }

    /// The newest checkpoint is torn: recovery restores the previous
    /// one, and the next checkpoint takes the torn one's sequence.
    #[test]
    fn picks_newest_complete_sequence() {
        let tmp = TempPath::new("torn-newest");
        write_checkpoints(&tmp.0, 2, 1);
        let (mut restored, mut log, report) = resume_from_log(config(), &tmp.0).unwrap();
        assert!(report.truncated_bytes > 0);
        assert_eq!(report.recovered, 1);
        assert_eq!(restored.stats().presences, 1);
        assert_eq!(restored.checkpoint(&mut log).unwrap(), 2);
    }

    /// Both checkpoints are intact: the later one is restored.
    #[test]
    fn prefers_higher_complete_sequence() {
        let tmp = TempPath::new("intact");
        write_checkpoints(&tmp.0, 2, 0);
        let (mut restored, mut log, report) = resume_from_log(config(), &tmp.0).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.recovered, 2);
        assert_eq!(restored.stats().presences, 2);
        assert_eq!(restored.checkpoint(&mut log).unwrap(), 3);
    }

    /// The log's only checkpoint is torn: nothing is restored.
    #[test]
    fn no_complete_checkpoint_yields_none() {
        let tmp = TempPath::new("torn-only");
        write_checkpoints(&tmp.0, 1, 1);
        let (mut restored, mut log, report) = resume_from_log(config(), &tmp.0).unwrap();
        assert_eq!(report.recovered, 0);
        assert!(report.truncated_bytes > 0);
        assert_eq!(restored.stats().events, 0);
        assert_eq!(restored.checkpoint(&mut log).unwrap(), 1);
    }

    #[test]
    fn empty_log_starts_fresh() {
        let tmp = TempPath::new("fresh");
        let (mut engine, _log, report) = resume_from_log(config(), &tmp.0).unwrap();
        assert!(report.is_clean());
        assert_eq!(engine.stats().events, 0);
    }

    #[test]
    fn bad_version_and_truncation_are_rejected() {
        assert!(matches!(
            decode_shard(&[]),
            Err(CheckpointError::Malformed(_))
        ));
        assert!(matches!(
            decode_shard(&[9, 0, 0]),
            Err(CheckpointError::BadVersion(9))
        ));
        // Corrupt a valid payload by truncating it anywhere: never panics.
        let snapshot = ShardSnapshot {
            watermark: Some(Timestamp(5)),
            closed: vec![(1, Timestamp(3)), (2, Timestamp(4))],
            ..ShardSnapshot::default()
        };
        let payload = encode_shard(&snapshot, 1);
        for cut in 0..payload.len() {
            assert!(decode_shard(&payload[..cut]).is_err(), "cut at {cut}");
        }
        let (back, preds) = decode_shard(&payload).unwrap();
        assert_eq!(preds, 1);
        assert_eq!(back, snapshot);
    }
}
