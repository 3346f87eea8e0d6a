//! The engine's shared vocabulary: the apply context every visit is
//! judged under, the episodes and counters application produces, and
//! the serializable engine state a checkpoint carries.
//!
//! A visit's episodes depend on that visit's history alone, so the
//! worker count cannot change results (the equivalence property tests
//! pin this down for 1/2/8 workers). The rules an event is judged by —
//! the late-event fence, implicit opens, episode provenance — are
//! applied by the engine's one per-visit function (see
//! [`crate::parallel`]); the tests below pin them through
//! [`crate::ParallelEngine`].

use sitm_core::{AnnotationSet, Duration, Episode, IntervalPredicate, Timestamp};

use crate::event::VisitKey;
use crate::visit::{Anomalies, VisitSnapshot};

/// The engine settings a visit's events are applied under. Borrowed from
/// the [`EngineConfig`](crate::EngineConfig) in force (predicates are
/// shared, not cloned — with `IntervalPredicate: Send + Sync` one table
/// serves every worker thread).
#[derive(Clone, Copy)]
pub struct ShardCtx<'a> {
    /// The episode detectors: `(P_ep, A'_traj)` pairs.
    pub predicates: &'a [(IntervalPredicate, AnnotationSet)],
    /// Drop zero-duration detections on arrival.
    pub drop_instantaneous: bool,
    /// How long after a visit closes its late events are still fenced
    /// (event-time deterministic; see
    /// [`EngineConfig::allowed_lateness`](crate::EngineConfig)).
    pub allowed_lateness: Duration,
    /// Keep each closed visit's completed trajectory until the
    /// warehouse drain (`take_finished`) collects it.
    pub retain_finished: bool,
}

/// An episode the engine has finalized, tagged with its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct EmittedEpisode {
    /// The visit the episode belongs to.
    pub visit: VisitKey,
    /// The visit's moving object (`IDmo`).
    pub moving_object: String,
    /// Index into the engine's predicate table.
    pub predicate: usize,
    /// The episode, identical to what the batch extractor produces.
    pub episode: Episode,
}

impl EmittedEpisode {
    /// Global deterministic ordering: by episode time, then visit, then
    /// predicate, then range. Independent of worker count and drain timing.
    pub fn sort_key(&self) -> (Timestamp, Timestamp, u64, usize, usize) {
        (
            self.episode.time.start,
            self.episode.time.end,
            self.visit.0,
            self.predicate,
            self.episode.range.start,
        )
    }
}

/// Application counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Events applied.
    pub events: u64,
    /// Presence intervals accepted into segmenters.
    pub presences: u64,
    /// Raw fixes applied.
    pub fixes: u64,
    /// Visits opened (explicitly or implicitly).
    pub visits_opened: u64,
    /// Visits closed.
    pub visits_closed: u64,
    /// Episodes finalized.
    pub episodes: u64,
    /// Rejected/adapted events.
    pub anomalies: Anomalies,
}

impl ShardStats {
    /// Adds another counter set in (workers deposit per-slice deltas
    /// into one total per worker).
    pub fn absorb(&mut self, other: &ShardStats) {
        self.events += other.events;
        self.presences += other.presences;
        self.fixes += other.fixes;
        self.visits_opened += other.visits_opened;
        self.visits_closed += other.visits_closed;
        self.episodes += other.episodes;
        self.anomalies.absorb(&other.anomalies);
    }
}

/// Serializable engine state: what one checkpoint encodes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardSnapshot {
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
    /// (retained only under [`ShardCtx::retain_finished`]).
    pub finished: Vec<(u64, sitm_core::SemanticTrajectory)>,
    /// Counters.
    pub stats: ShardStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StreamEvent;
    use crate::{EngineConfig, ParallelEngine};
    use sitm_core::{Annotation, PresenceInterval, TransitionTaken};
    use sitm_graph::{CellRef, LayerIdx, NodeId};

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
    }

    fn label(s: &str) -> AnnotationSet {
        AnnotationSet::from_iter([Annotation::goal(s)])
    }

    fn config(allowed_lateness: Duration) -> EngineConfig {
        EngineConfig::new(vec![(IntervalPredicate::in_cells([cell(1)]), label("one"))])
            .with_shards(2)
            .with_batch_capacity(1)
            .with_allowed_lateness(allowed_lateness)
    }

    fn open(v: u64, at: i64) -> StreamEvent {
        StreamEvent::VisitOpened {
            visit: VisitKey(v),
            moving_object: "m".into(),
            annotations: label("visit"),
            at: Timestamp(at),
        }
    }

    fn close(v: u64, at: i64) -> StreamEvent {
        StreamEvent::VisitClosed {
            visit: VisitKey(v),
            at: Timestamp(at),
        }
    }

    fn presence(v: u64, c: usize, start: i64, end: i64) -> StreamEvent {
        StreamEvent::Presence {
            visit: VisitKey(v),
            interval: PresenceInterval::new(
                TransitionTaken::Unknown,
                cell(c),
                Timestamp(start),
                Timestamp(end),
            ),
        }
    }

    #[test]
    fn close_all_flushes_open_runs_and_fences_late_events() {
        let mut engine = ParallelEngine::new(config(Duration::hours(1))).unwrap();
        engine.ingest_all([open(4, 0), presence(4, 1, 0, 10)]);
        let pending = engine.finish();
        assert_eq!(pending.len(), 1, "open run closed at end-of-stream");
        assert_eq!(engine.stats().open_visits, 0);
        // A late event for the closed visit is fenced.
        engine.ingest(presence(4, 1, 20, 30));
        assert!(engine.drain().is_empty());
        assert_eq!(engine.stats().anomalies.after_close, 1);
    }

    #[test]
    fn fence_entries_retire_past_allowed_lateness() {
        let lateness = Duration::hours(1);
        let mut engine = ParallelEngine::new(config(lateness)).unwrap();
        engine.ingest_all([open(5, 0), close(5, 10)]);
        // Within the lateness horizon, its bound included: fenced.
        let edge = 10 + lateness.as_seconds();
        engine.ingest_all([presence(5, 1, 100, 110), presence(5, 1, edge, edge + 1)]);
        let stats = engine.stats();
        assert_eq!(stats.anomalies.after_close, 2);
        assert_eq!(stats.open_visits, 0);
        // A straggler stamped beyond `close + lateness` retires the
        // fence and re-opens the visit implicitly.
        engine.ingest(presence(5, 1, edge + 1, edge + 2));
        let stats = engine.stats();
        assert_eq!(stats.anomalies.after_close, 2, "no longer fenced");
        assert_eq!(stats.anomalies.implicit_opens, 1);
        assert_eq!(stats.open_visits, 1);
    }

    #[test]
    fn implicit_open_adopts_orphan_observations() {
        let mut engine = ParallelEngine::new(config(Duration::hours(1))).unwrap();
        engine.ingest(presence(9, 1, 5, 10));
        let stats = engine.stats();
        assert_eq!(stats.anomalies.implicit_opens, 1);
        assert_eq!(stats.open_visits, 1);
        let pending = engine.finish();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].moving_object, "implicit-9");
    }

    /// An engine restored from checkpoint `C` re-emits `C` byte for
    /// byte: restore keeps every part of a checkpoint — open visits
    /// (mid-fix, mid-run, retained prefix), fences, undrained episodes,
    /// the finished backlog, counters, the watermark.
    #[test]
    fn snapshot_restore_preserves_everything() {
        let config = || config(Duration::hours(1)).with_shards(3).with_warehouse();
        let mut events = Vec::new();
        for v in 0..12u64 {
            let t = v as i64 * 10;
            events.extend([open(v, t), presence(v, (v % 2) as usize, t, t + 5)]);
            if v % 3 == 0 {
                events.push(StreamEvent::Fix {
                    visit: VisitKey(v),
                    cell: cell(1),
                    at: Timestamp(t + 6),
                });
            }
            if v % 4 == 0 {
                events.push(close(v, t + 8));
            }
        }
        events.push(presence(100, 1, 0, 1));
        let mut engine = ParallelEngine::new(config()).unwrap();
        engine.ingest_all(events);
        let bytes = engine.checkpoint();
        let (snapshot, _) = crate::checkpoint::decode_shard(&bytes).unwrap();
        assert!(snapshot.visits.iter().any(|(_, v)| v.open_fix.is_some()));
        assert!(!snapshot.closed.is_empty());
        assert!(!snapshot.pending.is_empty());
        assert!(!snapshot.finished.is_empty());

        let mut restored = ParallelEngine::restore(config(), &bytes).unwrap();
        assert_eq!(restored.checkpoint(), bytes);
    }

    /// A live snapshot shows every open visit's prefix; an open visit
    /// that has accepted nothing yet is counted as unqueryable, not
    /// dropped.
    #[test]
    fn live_state_exposes_prefixes() {
        let mut engine = ParallelEngine::new(config(Duration::hours(1))).unwrap();
        engine.ingest_all([open(3, 0), presence(3, 1, 0, 10), presence(3, 0, 10, 20)]);
        let live = engine.live_snapshot();
        assert_eq!(live.visits.len(), 1);
        assert_eq!(live.visits[0].visit, VisitKey(3));
        assert_eq!(live.visits[0].trajectory.trace().len(), 2);
        assert_eq!(live.unqueryable, 0);
        assert_eq!(live.watermark, Some(Timestamp(10)));
        engine.ingest(open(4, 30));
        let live = engine.live_snapshot();
        assert_eq!(live.visits.len(), 1);
        assert_eq!(live.unqueryable, 1, "open, nothing accepted yet");
    }
}
