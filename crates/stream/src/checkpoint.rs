//! Checkpoint encoding.
//!
//! The engine's state serializes into one byte string using the
//! [`sitm_codec`] primitives and the store's annotation / presence /
//! episode codecs. The bytes are a function of the ingested feed alone
//! — not of the worker count, the router batch, or which worker applied
//! which visit — so a checkpoint restores into any worker count. The
//! engine hands its state out ([`ParallelEngine::checkpoint`]) and takes
//! it back ([`ParallelEngine::restore`]); whoever commits the bytes owns
//! their durability.
//!
//! Restore reads the bytes as outside input: a truncated, flipped or
//! crafted checkpoint is an error, never a panic, and nothing is
//! allocated on a count the bytes left could not hold.
//!
//! Predicates are **not** serialized — they are code. Restore re-supplies
//! the same [`EngineConfig`]; the payload records the predicate count so
//! a mismatched configuration is rejected instead of silently mislabeling
//! runs.
//!
//! [`ParallelEngine::checkpoint`]: crate::ParallelEngine::checkpoint
//! [`ParallelEngine::restore`]: crate::ParallelEngine::restore

use sitm_codec::{put_i64, put_str, put_u64, take_count, take_flag, take_i64, take_str, take_u64};
use sitm_core::{OpenRun, SemanticTrajectory, Timestamp, Trace, TraceError};
use sitm_store::codec::{
    decode_annotations, decode_cell, decode_episode, decode_presence, decode_trajectory,
    encode_annotations, encode_cell, encode_episode, encode_presence, encode_trajectory,
    CodecError,
};

use crate::engine::{EmittedEpisode, EngineConfig, EngineError, EngineStats};
use crate::event::VisitKey;
use crate::visit::{Anomalies, OpenFix, VisitSnapshot};

/// Payload format version. Version 2 added the retained live-query
/// intervals to each visit's state; version 3 added the
/// finished-but-unflushed trajectory backlog (the warehouse drain's
/// exactly-once buffer); version 4 drops what the stays already say —
/// a visit's detection layer, last start, tuple index and suppression
/// flags, each finished row's visit key — and the counters' reserved
/// slot. Older payloads are no longer produced, and rejecting them
/// keeps the decoder honest.
const VERSION: u8 = 4;

/// The engine's state: what one checkpoint encodes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EngineState {
    /// High-water mark of applied event times.
    pub watermark: Option<Timestamp>,
    /// Open visits, ordered by key.
    pub visits: Vec<(u64, VisitSnapshot)>,
    /// Visits that have closed, with their close instants, while their
    /// late-event fence is alive.
    pub closed: Vec<(u64, Timestamp)>,
    /// Episodes finalized but not yet drained by the consumer.
    pub pending: Vec<EmittedEpisode>,
    /// Completed trajectories not yet taken by the warehouse drain
    /// (retained only under [`EngineConfig::with_warehouse`]), in
    /// [`sitm_store::sort_run`] order.
    pub finished: Vec<SemanticTrajectory>,
    /// Counters (`open_visits` is not stored: it is the census of
    /// `visits`).
    pub stats: EngineStats,
}

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

/// Serializes the engine's state (with the predicate-table arity, for
/// restore-time validation).
pub fn encode_state(state: &EngineState, predicate_count: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    buf.push(VERSION);
    put_u64(&mut buf, predicate_count as u64);
    put_opt_i64(&mut buf, state.watermark.map(|t| t.0));

    put_u64(&mut buf, state.visits.len() as u64);
    for (key, visit) in &state.visits {
        put_u64(&mut buf, *key);
        encode_visit_state(&mut buf, visit);
    }

    put_u64(&mut buf, state.closed.len() as u64);
    for (key, closed_at) in &state.closed {
        put_u64(&mut buf, *key);
        put_i64(&mut buf, closed_at.0);
    }

    put_u64(&mut buf, state.pending.len() as u64);
    for e in &state.pending {
        put_u64(&mut buf, e.visit.0);
        put_str(&mut buf, &e.moving_object);
        put_u64(&mut buf, e.predicate as u64);
        encode_episode(&mut buf, &e.episode);
    }

    put_u64(&mut buf, state.finished.len() as u64);
    for trajectory in &state.finished {
        encode_trajectory(&mut buf, trajectory);
    }

    encode_stats(&mut buf, &state.stats);
    buf
}

/// Deserializes the engine's state; returns the predicate count the
/// checkpoint was taken under.
pub fn decode_state(payload: &[u8]) -> Result<(EngineState, usize), CheckpointError> {
    let mut buf = payload;
    let predicate_count = decode_header(&mut buf)?;
    Ok((decode_body(buf, predicate_count)?, predicate_count))
}

/// Splits the version and the predicate count off the front of a
/// payload.
fn decode_header(buf: &mut &[u8]) -> Result<usize, CheckpointError> {
    let Some((&version, rest)) = buf.split_first() else {
        return Err(CheckpointError::Malformed("empty payload"));
    };
    *buf = rest;
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    Ok(take_u64(buf)? as usize)
}

/// Deserializes what follows the header of a checkpoint taken under
/// `predicate_count` predicates.
fn decode_body(mut buf: &[u8], predicate_count: usize) -> Result<EngineState, CheckpointError> {
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
        if predicate >= predicate_count {
            return Err(CheckpointError::Malformed(
                "episode of an unknown predicate",
            ));
        }
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
        finished.push(decode_trajectory(&mut buf)?);
    }

    let stats = decode_stats(&mut buf)?;
    if !buf.is_empty() {
        return Err(CheckpointError::Malformed("trailing bytes"));
    }
    Ok(EngineState {
        watermark,
        visits,
        closed,
        pending,
        finished,
        stats,
    })
}

fn encode_visit_state(buf: &mut Vec<u8>, v: &VisitSnapshot) {
    put_str(buf, &v.moving_object);
    encode_annotations(buf, &v.annotations);
    buf.push(u8::from(v.open_fix.is_some()));
    if let Some(open) = &v.open_fix {
        encode_cell(buf, open.cell);
        put_i64(buf, open.start.0);
        put_i64(buf, open.last_at.0);
    }
    put_u64(buf, v.intervals.len() as u64);
    for interval in &v.intervals {
        encode_presence(buf, interval);
    }
    for run in &v.open_runs {
        buf.push(u8::from(run.is_some()));
        if let Some(run) = run {
            put_u64(buf, run.start as u64);
            put_i64(buf, run.start_time.0);
            put_i64(buf, run.max_end.0);
        }
    }
}

/// Decodes one open visit, refusing what its own stays contradict:
/// stays that are no trace (out of start order or on two layers), and
/// an open run that does not start at an accepted stay.
fn decode_visit_state(
    buf: &mut &[u8],
    predicate_count: usize,
) -> Result<VisitSnapshot, CheckpointError> {
    let moving_object = take_str(buf)?.to_owned();
    let annotations = decode_annotations(buf)?;
    let open_fix = if take_flag(buf)? {
        let cell = decode_cell(buf)?;
        let start = Timestamp(take_i64(buf)?);
        let last_at = Timestamp(take_i64(buf)?);
        if last_at < start {
            return Err(CheckpointError::Malformed("open fix ends before it starts"));
        }
        Some(OpenFix {
            cell,
            start,
            last_at,
        })
    } else {
        None
    };
    let interval_count = take_count(buf, 1)?;
    let mut intervals = Vec::with_capacity(interval_count);
    for _ in 0..interval_count {
        intervals.push(decode_presence(buf)?);
    }
    let intervals = Trace::new(intervals)
        .map_err(|e| {
            CheckpointError::Malformed(match e {
                TraceError::OutOfOrder { .. } => "stays out of start order",
                TraceError::MixedLayers { .. } => "stays on two layers",
            })
        })?
        .into_intervals();
    // One flag per predicate at the least.
    if predicate_count > buf.len() {
        return Err(CheckpointError::Malformed(
            "predicate runs past the payload",
        ));
    }
    let mut open_runs = Vec::with_capacity(predicate_count);
    for _ in 0..predicate_count {
        open_runs.push(if take_flag(buf)? {
            let run = OpenRun {
                start: take_u64(buf)? as usize,
                start_time: Timestamp(take_i64(buf)?),
                max_end: Timestamp(take_i64(buf)?),
            };
            // A run opens at a stay already accepted, and its end is
            // at or after its start: closing it builds that interval.
            if run.start >= intervals.len() || run.max_end < run.start_time {
                return Err(CheckpointError::Malformed("open run out of order"));
            }
            Some(run)
        } else {
            None
        });
    }
    Ok(VisitSnapshot {
        moving_object,
        annotations,
        open_fix,
        open_runs,
        intervals,
    })
}

fn encode_stats(buf: &mut Vec<u8>, s: &EngineStats) {
    for v in [
        s.events,
        s.presences,
        s.fixes,
        s.visits_opened,
        s.visits_closed,
        s.episodes,
        s.anomalies.out_of_order,
        s.anomalies.mixed_layer,
        s.anomalies.implicit_opens,
        s.anomalies.after_close,
        s.anomalies.not_proper,
        s.anomalies.duplicate_opens,
    ] {
        put_u64(buf, v);
    }
}

fn decode_stats(buf: &mut &[u8]) -> Result<EngineStats, CheckpointError> {
    let mut take = || take_u64(buf).map_err(CheckpointError::from);
    Ok(EngineStats {
        events: take()?,
        presences: take()?,
        fixes: take()?,
        visits_opened: take()?,
        visits_closed: take()?,
        episodes: take()?,
        open_visits: 0,
        anomalies: Anomalies {
            out_of_order: take()?,
            mixed_layer: take()?,
            implicit_opens: take()?,
            after_close: take()?,
            not_proper: take()?,
            duplicate_opens: take()?,
        },
    })
}

/// Decodes one checkpoint for `config`: the predicate count is checked
/// against the configured table before anything else is read.
pub(crate) fn decode_checkpoint(
    config: &EngineConfig,
    payload: &[u8],
) -> Result<EngineState, EngineError> {
    let mut buf = payload;
    let recorded = decode_header(&mut buf)?;
    if recorded != config.predicates.len() {
        return Err(EngineError::PredicateCountMismatch {
            configured: config.predicates.len(),
            recorded,
        });
    }
    let mut state = decode_body(buf, recorded)?;
    // A finished backlog checkpointed by a warehouse-draining config
    // restoring into a non-draining one: nothing will ever take it, so
    // drop it rather than hold it forever.
    if !config.retain_finished {
        state.finished.clear();
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::event::StreamEvent;
    use crate::ParallelEngine;
    use sitm_core::{
        Annotation, AnnotationSet, IntervalPredicate, PresenceInterval, TransitionTaken,
    };
    use sitm_graph::{CellRef, LayerIdx, NodeId};

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
        let checkpoint = engine.checkpoint();
        drop(engine);

        let mut restored = ParallelEngine::restore(config(), &checkpoint).unwrap();
        let stats = restored.stats();
        assert_eq!(stats.presences, 2);
        assert_eq!(stats.open_visits, 1);
    }

    #[test]
    fn predicate_mismatch_is_rejected() {
        let mut engine = ParallelEngine::new(config()).unwrap();
        engine.ingest(presence(3, 1, 0));
        let checkpoint = engine.checkpoint();

        let two_predicates = EngineConfig::new(vec![
            (IntervalPredicate::in_cells([cell(1)]), label("one")),
            (IntervalPredicate::any(), label("all")),
        ])
        .with_shards(2);
        assert!(matches!(
            ParallelEngine::restore(two_predicates, &checkpoint),
            Err(EngineError::PredicateCountMismatch {
                configured: 2,
                recorded: 1
            })
        ));
    }

    /// A checkpoint does not depend on the worker count, so a 2-worker
    /// checkpoint restores into 3 workers and finishes as if never
    /// stopped.
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
        let checkpoint = engine.checkpoint();
        drop(engine);

        let mut restored = ParallelEngine::restore(config().with_shards(3), &checkpoint).unwrap();
        assert_eq!(restored.workers(), 3);
        assert_eq!(restored.checkpoint(), checkpoint);
        restored.ingest_all(events[7..].iter().cloned());
        delivered.extend(restored.finish());
        delivered.sort_by_key(|e| e.sort_key());
        assert_eq!(delivered, expected);
    }

    /// A checkpoint cut short anywhere restores nothing.
    #[test]
    fn no_complete_checkpoint_yields_none() {
        let mut engine = ParallelEngine::new(config()).unwrap();
        engine.ingest_all([presence(1, 1, 0), presence(1, 0, 20)]);
        let checkpoint = engine.checkpoint();
        for cut in 0..checkpoint.len() {
            assert!(
                ParallelEngine::restore(config(), &checkpoint[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    /// An open run or fix whose end precedes its start decodes, but
    /// closing it would build a reversed interval and kill the worker:
    /// restore refuses it instead.
    #[test]
    fn a_reversed_open_run_or_fix_is_refused() {
        let mut engine = ParallelEngine::new(config()).unwrap();
        engine.ingest_all([
            presence(1, 1, 0),
            StreamEvent::Fix {
                visit: VisitKey(1),
                cell: cell(1),
                at: Timestamp(20),
            },
        ]);
        let (snapshot, predicates) = decode_state(&engine.checkpoint()).unwrap();
        assert!(ParallelEngine::restore(config(), &encode_state(&snapshot, predicates)).is_ok());

        let mut reversed_run = snapshot.clone();
        let run = reversed_run.visits[0].1.open_runs[0]
            .as_mut()
            .expect("the run in cell 1 is open");
        run.max_end = Timestamp(run.start_time.0 - 1);
        let mut reversed_fix = snapshot;
        let fix = reversed_fix.visits[0]
            .1
            .open_fix
            .as_mut()
            .expect("a fix is open");
        fix.last_at = Timestamp(fix.start.0 - 1);
        for reversed in [reversed_run, reversed_fix] {
            assert!(matches!(
                ParallelEngine::restore(config(), &encode_state(&reversed, predicates)),
                Err(EngineError::Checkpoint(CheckpointError::Malformed(_)))
            ));
        }
    }

    #[test]
    fn bad_version_and_truncation_are_rejected() {
        assert!(matches!(
            decode_state(&[]),
            Err(CheckpointError::Malformed(_))
        ));
        assert!(matches!(
            decode_state(&[9, 0, 0]),
            Err(CheckpointError::BadVersion(9))
        ));
        // Corrupt a valid payload by truncating it anywhere: never panics.
        let snapshot = EngineState {
            watermark: Some(Timestamp(5)),
            closed: vec![(1, Timestamp(3)), (2, Timestamp(4))],
            ..EngineState::default()
        };
        let payload = encode_state(&snapshot, 1);
        for cut in 0..payload.len() {
            assert!(decode_state(&payload[..cut]).is_err(), "cut at {cut}");
        }
        let (back, preds) = decode_state(&payload).unwrap();
        assert_eq!(preds, 1);
        assert_eq!(back, snapshot);
    }
}
