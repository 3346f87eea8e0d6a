//! The engine's configuration, errors, counters and emitted episodes,
//! and the hash that gives each visit its first worker.
//!
//! A visit's events are applied in arrival order, one slice at a time,
//! so the worker count is invisible in the output: episodes are
//! identical for 1, 2, or 8 workers (property-tested in
//! `tests/equivalence.rs`), and [`crate::ParallelEngine::drain`]
//! returns them in one deterministic global order.

use sitm_core::{AnnotationSet, Duration, Episode, IntervalPredicate, Timestamp};
use sitm_obs::MetricsRegistry;

use crate::checkpoint::CheckpointError;
use crate::event::VisitKey;

pub use crate::visit::Anomalies;

/// Engine construction and restore failures.
#[derive(Debug)]
pub enum EngineError {
    /// At least one worker thread is required.
    ZeroShards,
    /// Restoring from a checkpoint recorded with a different predicate
    /// table.
    PredicateCountMismatch {
        /// Predicates in the configuration.
        configured: usize,
        /// Predicates recorded in the checkpoint.
        recorded: usize,
    },
    /// A checkpoint failed to decode.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ZeroShards => write!(f, "engine needs at least one worker thread"),
            EngineError::PredicateCountMismatch {
                configured,
                recorded,
            } => write!(
                f,
                "checkpoint has {recorded} predicate(s), configuration has {configured}"
            ),
            EngineError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CheckpointError> for EngineError {
    fn from(e: CheckpointError) -> Self {
        EngineError::Checkpoint(e)
    }
}

/// Engine configuration. Predicates are code, so the config is built at
/// startup and re-supplied identically on restore (only *state* is
/// checkpointed). The engine keeps every stay it accepts, zero-length
/// ones too, as a batch [`sitm_core::Trace`] does; filtering §4.1's
/// detection errors is the batch trace's job.
pub struct EngineConfig {
    /// The episode detectors: `(P_ep, A'_traj)` pairs applied to every
    /// visit (Def. 3.4).
    pub predicates: Vec<(IntervalPredicate, AnnotationSet)>,
    /// Worker threads.
    pub shards: usize,
    /// Router batch: events the caller's thread buffers before handing
    /// them to the scheduler in one lock acquisition.
    pub batch_capacity: usize,
    /// How long after a visit closes its late events are still fenced.
    /// The fence is *event-time deterministic*: an event timestamped at
    /// or before `close + allowed_lateness` is rejected (`after_close`),
    /// one beyond it retires the fence and re-opens the visit
    /// implicitly — a pure function of the visit's own history, so the
    /// decision cannot depend on batching or worker scheduling.
    pub allowed_lateness: Duration,
    /// Cap on the close fences the engine remembers — a
    /// memory-protection valve, not a semantic knob. A fence is a key
    /// and a close instant in a table of its own, outside the visit
    /// slots (a few dozen bytes with its entry in the eviction order),
    /// so the cap bounds that table alone. Past it, fences with the
    /// smallest close instants are evicted; stragglers for an evicted visit
    /// re-open implicitly, the same outcome an expired fence produces.
    /// Below the cap, fencing is event-time deterministic. Above it, a
    /// fence is evicted when another visit's close is applied, so a
    /// straggler racing that close may be fenced or re-opened
    /// depending on worker scheduling. Size the cap above the realistic
    /// straggler horizon.
    pub fence_capacity: usize,
    /// Retain each *closed* visit's completed trajectory (in memory and
    /// in checkpoints) until a warehouse flush takes it
    /// (`take_finished`); the trajectory is the visit's accepted
    /// intervals, which every open visit keeps for live queries. Off by
    /// default: without a drain the backlog would grow without bound,
    /// and that memory is exactly what [`crate::Flusher`] exists to
    /// bound.
    pub retain_finished: bool,
    /// Backpressure depth, in batches per worker: producers block once
    /// `channel_depth × batch_capacity × workers` events are queued in
    /// the work-stealing scheduler. The bound is checked before a whole
    /// router batch is pushed, so the queue can overshoot it by up to
    /// one batch.
    pub channel_depth: usize,
    /// Where the engine's `engine.*` instruments live (events
    /// ingested/fenced, route-vs-steal counts, queue-depth gauges).
    /// Defaults to the process-global registry; a server injects its
    /// own so one pipeline's counters stay isolated.
    pub metrics: MetricsRegistry,
}

impl EngineConfig {
    /// A config with the given predicates and defaults for the rest
    /// (2 worker threads, 128-event batches). Two, because
    /// `parallel_ingest` of `cargo run --release -p sitm-bench --bin
    /// bench_stream` (a 500-visit Louvre feed on two CPUs) reads no
    /// faster at 4 or 8 workers than at 2.
    pub fn new(predicates: Vec<(IntervalPredicate, AnnotationSet)>) -> Self {
        EngineConfig {
            predicates,
            shards: 2,
            batch_capacity: 128,
            allowed_lateness: Duration::hours(24),
            fence_capacity: 131_072,
            retain_finished: false,
            channel_depth: 64,
            metrics: MetricsRegistry::global().clone(),
        }
    }

    /// Overrides the worker-thread count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Overrides the router batch size.
    #[must_use]
    pub fn with_batch_capacity(mut self, capacity: usize) -> Self {
        self.batch_capacity = capacity;
        self
    }

    /// Overrides how long closed visits fence their late events.
    #[must_use]
    pub fn with_allowed_lateness(mut self, lateness: Duration) -> Self {
        self.allowed_lateness = lateness;
        self
    }

    /// Overrides the cap on remembered close fences.
    #[must_use]
    pub fn with_fence_capacity(mut self, capacity: usize) -> Self {
        self.fence_capacity = capacity;
        self
    }

    /// Enables the warehouse drain: closed visits retain their completed
    /// trajectory until `take_finished` (normally driven by a
    /// [`crate::Flusher`]) spills them into the segment tier.
    #[must_use]
    pub fn with_warehouse(mut self) -> Self {
        self.retain_finished = true;
        self
    }

    /// Overrides the backpressure depth (batches per worker).
    #[must_use]
    pub fn with_channel_depth(mut self, depth: usize) -> Self {
        self.channel_depth = depth;
        self
    }

    /// Points the engine's `engine.*` instruments at `registry` instead
    /// of the process-global default.
    #[must_use]
    pub fn with_metrics(mut self, registry: MetricsRegistry) -> Self {
        self.metrics = registry;
        self
    }
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

/// The engine's counters. Workers deposit per-slice deltas, a
/// checkpoint carries the sum, and [`crate::ParallelEngine::stats`]
/// adds the open-visit census.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Events applied.
    pub events: u64,
    /// Presence intervals accepted.
    pub presences: u64,
    /// Raw fixes applied.
    pub fixes: u64,
    /// Visits opened (explicitly or implicitly).
    pub visits_opened: u64,
    /// Visits closed.
    pub visits_closed: u64,
    /// Episodes finalized.
    pub episodes: u64,
    /// Visits currently resident: a census taken by `stats()`, 0 in
    /// the deltas and not checkpointed.
    pub open_visits: u64,
    /// Rejected/adapted events.
    pub anomalies: Anomalies,
}

impl EngineStats {
    /// Adds another counter set in.
    pub fn absorb(&mut self, other: &EngineStats) {
        self.events += other.events;
        self.presences += other.presences;
        self.fixes += other.fixes;
        self.visits_opened += other.visits_opened;
        self.visits_closed += other.visits_closed;
        self.episodes += other.episodes;
        self.open_visits += other.open_visits;
        self.anomalies.absorb(&other.anomalies);
    }
}

/// FNV-1a over the visit key: stable across runs and platforms, so a
/// given visit always starts on the same worker. The hash is the shared
/// [`sitm_store::fnv1a`] — the same function the store's decoded
/// annotation-set table keys its slots by — so the routing constants
/// cannot drift from the rest of the stack.
pub(crate) fn home_worker(visit: VisitKey, workers: usize) -> usize {
    (sitm_store::fnv1a(&visit.0.to_le_bytes()) % workers as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StreamEvent;
    use crate::ParallelEngine;
    use sitm_core::{Annotation, PresenceInterval, TransitionTaken};
    use sitm_graph::{CellRef, LayerIdx, NodeId};

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
    }

    fn label(s: &str) -> AnnotationSet {
        AnnotationSet::from_iter([Annotation::goal(s)])
    }

    fn config(shards: usize) -> EngineConfig {
        EngineConfig::new(vec![
            (IntervalPredicate::in_cells([cell(1)]), label("one")),
            (IntervalPredicate::any(), label("whole")),
        ])
        .with_shards(shards)
        .with_batch_capacity(4)
    }

    fn feed() -> Vec<StreamEvent> {
        let mut events = Vec::new();
        for v in 0..6u64 {
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
        crate::event::sort_feed(&mut events);
        events
    }

    /// 1, 2 and 8 workers — the last more workers than the feed has
    /// visits — emit the same episodes.
    #[test]
    fn shard_count_does_not_change_output() {
        let mut reference: Option<Vec<EmittedEpisode>> = None;
        for shards in [1usize, 2, 8] {
            let mut engine = ParallelEngine::new(config(shards)).unwrap();
            engine.ingest_all(feed());
            let episodes = engine.finish();
            match &reference {
                None => reference = Some(episodes),
                Some(expected) => assert_eq!(&episodes, expected, "{shards} shards"),
            }
        }
        let reference = reference.unwrap();
        // 6 visits × (2 'one' runs + 1 'whole' run) each.
        assert_eq!(reference.len(), 18);
    }

    /// A drain after every event hands out each episode once.
    #[test]
    fn drain_is_incremental_and_non_duplicating() {
        let mut engine = ParallelEngine::new(config(2)).unwrap();
        let events = feed();
        let mut all = Vec::new();
        for event in events.iter().cloned() {
            engine.ingest(event);
            all.extend(engine.drain());
        }
        all.extend(engine.finish());
        all.sort_by_key(|a| a.sort_key());

        let mut oneshot = ParallelEngine::new(config(2)).unwrap();
        oneshot.ingest_all(events);
        assert_eq!(all, oneshot.finish());
    }

    #[test]
    fn stats_and_watermark_track_the_stream() {
        let mut engine = ParallelEngine::new(config(1)).unwrap();
        engine.ingest_all(feed());
        engine.flush();
        let stats = engine.stats();
        assert_eq!(stats.visits_opened, 6);
        assert_eq!(stats.visits_closed, 6);
        assert_eq!(stats.presences, 18);
        assert_eq!(stats.anomalies.total(), 0);
        assert_eq!(engine.watermark(), Some(Timestamp(300)));
        assert_eq!(engine.stats().open_visits, 0);
    }

    /// 6 visits over 8 workers: the watermark is the feed's highest
    /// applied event time, whichever workers applied it, and idle
    /// workers do not hold it back.
    #[test]
    fn watermark_ignores_shards_with_no_events() {
        let mut engine = ParallelEngine::new(config(8)).unwrap();
        assert_eq!(engine.watermark(), None, "nothing ingested yet");
        let events = feed();
        let high_water = events.iter().map(StreamEvent::time).max();
        engine.ingest_all(events);
        assert_eq!(engine.watermark(), high_water);
        assert_eq!(engine.watermark(), Some(Timestamp(300)));
    }

    /// Both ways to build an engine refuse zero shards — a restore
    /// from an (empty) zero-shard checkpoint would otherwise start an
    /// engine with no workers.
    #[test]
    fn zero_shards_is_rejected() {
        assert!(matches!(
            ParallelEngine::new(config(0)),
            Err(EngineError::ZeroShards)
        ));
        assert!(matches!(
            ParallelEngine::restore(config(0), &[]),
            Err(EngineError::ZeroShards)
        ));
    }

    fn fenced(allowed_lateness: Duration) -> EngineConfig {
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
        let mut engine = ParallelEngine::new(fenced(Duration::hours(1))).unwrap();
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
        let mut engine = ParallelEngine::new(fenced(lateness)).unwrap();
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
        let mut engine = ParallelEngine::new(fenced(Duration::hours(1))).unwrap();
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
        let config = || fenced(Duration::hours(1)).with_shards(3).with_warehouse();
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
        let (snapshot, _) = crate::checkpoint::decode_state(&bytes).unwrap();
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
        let mut engine = ParallelEngine::new(fenced(Duration::hours(1))).unwrap();
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
