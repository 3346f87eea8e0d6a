//! The engine's configuration, errors and aggregate counters, and the
//! hash that gives each visit its first worker.
//!
//! A visit's events are applied in arrival order, one slice at a time,
//! so the worker count is invisible in the output: episodes are
//! identical for 1, 2, or 8 workers (property-tested in
//! `tests/equivalence.rs`), and [`crate::ParallelEngine::drain`]
//! returns them in one deterministic global order.

use sitm_core::{AnnotationSet, Duration, IntervalPredicate};
use sitm_obs::MetricsRegistry;
use sitm_store::StoreError;

use crate::checkpoint::CheckpointError;
use crate::event::VisitKey;
use crate::shard::{ShardCtx, ShardStats};

pub use crate::shard::EmittedEpisode;
pub use crate::visit::Anomalies;

/// Engine construction and restore failures.
#[derive(Debug)]
pub enum EngineError {
    /// At least one worker thread is required.
    ZeroShards,
    /// Restoring from frames recorded with a different predicate table.
    PredicateCountMismatch {
        /// Predicates in the configuration.
        configured: usize,
        /// Predicates recorded in the checkpoint.
        recorded: usize,
    },
    /// A checkpoint payload failed to decode.
    Checkpoint(CheckpointError),
    /// The backing log failed.
    Store(StoreError),
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
            EngineError::Store(e) => write!(f, "store: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CheckpointError> for EngineError {
    fn from(e: CheckpointError) -> Self {
        EngineError::Checkpoint(e)
    }
}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        EngineError::Store(e)
    }
}

/// Engine configuration. Predicates are code, so the config is built at
/// startup and re-supplied identically on restore (only *state* is
/// checkpointed).
pub struct EngineConfig {
    /// The episode detectors: `(P_ep, A'_traj)` pairs applied to every
    /// visit (Def. 3.4).
    pub predicates: Vec<(IntervalPredicate, AnnotationSet)>,
    /// Worker threads.
    pub shards: usize,
    /// Router batch: events the caller's thread buffers before handing
    /// them to the scheduler in one lock acquisition.
    pub batch_capacity: usize,
    /// Drop zero-duration detections on arrival (§4.1's ~10% errors).
    pub drop_instantaneous: bool,
    /// How long after a visit closes its late events are still fenced.
    /// The fence is *event-time deterministic*: an event timestamped at
    /// or before `close + allowed_lateness` is rejected (`after_close`),
    /// one beyond it retires the fence and re-opens the visit
    /// implicitly — a pure function of the visit's own history, so the
    /// decision cannot depend on batching or worker scheduling.
    pub allowed_lateness: Duration,
    /// Cap on the close fences the engine remembers — a
    /// memory-protection valve, not a semantic knob. Past it, fences with the smallest
    /// close instants are evicted; stragglers for an evicted visit
    /// re-open implicitly, the same outcome an expired fence produces.
    /// Below the cap, fencing is event-time deterministic. Above it, a
    /// fence is evicted when another visit's close is applied, so a
    /// straggler racing that close may be fenced or re-opened
    /// depending on worker scheduling. Size the cap above the realistic
    /// straggler horizon.
    pub fence_capacity: usize,
    /// Retain each open visit's accepted intervals (in memory and in
    /// checkpoints) so live queries can see its trajectory prefix. Off by
    /// default: retention costs memory proportional to open-visit trace
    /// length.
    pub retain_intervals: bool,
    /// Retain each *closed* visit's completed trajectory (in memory and
    /// in checkpoints) until a warehouse flush takes it
    /// (`take_finished`). Implies interval retention — the trajectory is
    /// assembled from the retained intervals at close. Off by default;
    /// the memory a retained backlog costs is exactly what
    /// [`crate::Flusher`] exists to bound.
    pub retain_finished: bool,
    /// Backpressure depth, in batches per worker: producers block once
    /// `channel_depth × batch_capacity × workers` events are queued in
    /// the work-stealing scheduler.
    pub channel_depth: usize,
    /// Where the engine's `engine.*` instruments live (events
    /// ingested/fenced, route-vs-steal counts, queue-depth gauges).
    /// Defaults to the process-global registry; a server injects its
    /// own so one pipeline's counters stay isolated.
    pub metrics: MetricsRegistry,
}

impl EngineConfig {
    /// A config with the given predicates and defaults for the rest
    /// (8 worker threads, 128-event batches, no filtering).
    pub fn new(predicates: Vec<(IntervalPredicate, AnnotationSet)>) -> Self {
        EngineConfig {
            predicates,
            shards: 8,
            batch_capacity: 128,
            drop_instantaneous: false,
            allowed_lateness: Duration::hours(24),
            fence_capacity: 131_072,
            retain_intervals: false,
            retain_finished: false,
            channel_depth: 64,
            metrics: MetricsRegistry::global().clone(),
        }
    }

    /// The per-visit apply context this configuration induces.
    pub(crate) fn ctx(&self) -> ShardCtx<'_> {
        ShardCtx {
            predicates: &self.predicates,
            drop_instantaneous: self.drop_instantaneous,
            allowed_lateness: self.allowed_lateness,
            retain_intervals: self.retain_intervals || self.retain_finished,
            retain_finished: self.retain_finished,
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

    /// Enables the zero-duration filter.
    #[must_use]
    pub fn dropping_instantaneous(mut self) -> Self {
        self.drop_instantaneous = true;
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

    /// Enables live queries: open visits retain their accepted intervals
    /// so `live_snapshot` can expose each one's trajectory prefix.
    #[must_use]
    pub fn with_live_queries(mut self) -> Self {
        self.retain_intervals = true;
        self
    }

    /// Enables the warehouse drain: closed visits retain their completed
    /// trajectory until `take_finished` (normally driven by a
    /// [`crate::Flusher`]) spills them into the segment tier. Implies
    /// live-query interval retention.
    #[must_use]
    pub fn with_warehouse(mut self) -> Self {
        self.retain_intervals = true;
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

/// Aggregated engine counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Events applied.
    pub events: u64,
    /// Presence intervals accepted.
    pub presences: u64,
    /// Raw fixes applied.
    pub fixes: u64,
    /// Visits opened.
    pub visits_opened: u64,
    /// Visits closed.
    pub visits_closed: u64,
    /// Episodes finalized.
    pub episodes: u64,
    /// Visits currently resident.
    pub open_visits: u64,
    /// Rejected/adapted events.
    pub anomalies: Anomalies,
}

impl EngineStats {
    /// Folds one counter set (plus an open-visit census) in.
    pub fn absorb_shard(&mut self, shard: &ShardStats, open_visits: u64) {
        self.events += shard.events;
        self.presences += shard.presences;
        self.fixes += shard.fixes;
        self.visits_opened += shard.visits_opened;
        self.visits_closed += shard.visits_closed;
        self.episodes += shard.episodes;
        self.anomalies.absorb(&shard.anomalies);
        self.open_visits += open_visits;
    }
}

/// Reconciles a restored snapshot with the configuration's retention
/// setting: with retention off, a prefix checkpointed by a retaining
/// config would otherwise survive restore *frozen* — never extended by
/// `feed`, yet served by `live_trajectory` as the visit's current
/// state. Dropping it makes the visit honestly unqueryable instead.
pub(crate) fn reconcile_retention(
    snapshot: &mut crate::shard::ShardSnapshot,
    config: &EngineConfig,
) {
    if !config.retain_intervals && !config.retain_finished {
        for (_, visit) in &mut snapshot.visits {
            visit.intervals.clear();
        }
    }
    // A finished backlog checkpointed by a warehouse-draining config
    // restoring into a non-draining one: nothing will ever take it, so
    // drop it rather than hold it forever.
    if !config.retain_finished {
        snapshot.finished.clear();
    }
}

/// FNV-1a over the visit key: stable across runs and platforms, so a
/// given visit always starts on the same worker. The hash is the shared
/// [`sitm_store::fnv1a`] — the same function the warehouse Bloom
/// filters probe with — so the routing constants cannot drift from the
/// rest of the stack.
pub(crate) fn shard_of(visit: VisitKey, shards: usize) -> usize {
    (sitm_store::fnv1a(&visit.0.to_le_bytes()) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StreamEvent;
    use crate::{EmittedEpisode, ParallelEngine};
    use sitm_core::{Annotation, PresenceInterval, Timestamp, TransitionTaken};
    use sitm_graph::{LayerIdx, NodeId};
    use sitm_space::CellRef;

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
}
