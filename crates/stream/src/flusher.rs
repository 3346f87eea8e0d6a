//! The live → warehouse spill pipeline.
//!
//! With [`crate::EngineConfig::with_warehouse`] on, the engine retains
//! every closed visit's completed trajectory until `take_finished`
//! collects it — which bounds nothing by itself. A [`Flusher`] closes
//! the loop: it periodically drains the finished backlog out of the
//! engine and spills it into a [`SegmentedDb`] as immutable sorted
//! segments, so **engine memory stays bounded by the open-visit
//! population plus one flush batch**, and the warehouse tier (not RAM)
//! owns history.
//!
//! The full data path this module completes:
//!
//! ```text
//! ingest → live state (open visits, queryable via LiveSnapshot)
//!        → close (late events fenced per allowed_lateness)
//!        → finished backlog (take_finished, exactly-once vs checkpoints)
//!        → Flusher::force → SegmentedDb::flush (immutable sorted segment,
//!          zone maps, manifest commit, fsync)
//!        → size-tiered compaction (small runs merge, manifest rewrites)
//! ```
//!
//! Consistency: `take_finished` is a barrier on the engine (every
//! ingested event applied first) and `SegmentedDb::flush` is durable on
//! return, so after a successful [`Flusher::force`] every spilled
//! trajectory is queryable from the warehouse and gone from the engine.
//! The hand-off is exactly-once *relative to checkpoints*: a crash
//! after take but before flush loses only what a restore regenerates —
//! the backlog rides checkpoint payloads until taken — and a crash
//! after flush but before the next checkpoint re-emits nothing because
//! the segment tier is idempotent per manifest commit. The one
//! double-spill window (flush durable, checkpoint older than the take)
//! re-flushes the same trajectories into a *new* segment; dedup is the
//! consumer's choice, exactly as re-drained episodes are after a
//! restore to an older checkpoint.
//!
//! Batching is the caller's: each [`Flusher::force`] spills everything
//! in hand, so segment size follows how often the caller spills (the
//! server spills once per `Checkpoint` request). A spill larger than
//! the store's row limit is cut into several segments.

use std::sync::Arc;
use std::time::Instant;

use sitm_core::SemanticTrajectory;
use sitm_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use sitm_query::SegmentedDb;
use sitm_store::warehouse::WarehouseError;

use crate::parallel::ParallelEngine;

/// Drains finished visits from a streaming engine into the segment
/// tier, bounding engine memory (see the module docs for the data path
/// and its consistency guarantees).
pub struct Flusher {
    db: SegmentedDb,
    /// Taken from the engine but not yet durable: the batches a failed
    /// spill never attempted.
    carry: Vec<SemanticTrajectory>,
    /// `flush.*` instruments: spills, trajectories spilled, spill
    /// duration (ns), and the carry length as a gauge (the spill
    /// tier's lag, served by the Health surface).
    spills: Arc<Counter>,
    trajectories: Arc<Counter>,
    duration_ns: Arc<Histogram>,
    backlog_gauge: Arc<Gauge>,
}

impl Flusher {
    /// Wraps a warehouse.
    pub fn new(db: SegmentedDb) -> Flusher {
        Flusher {
            db,
            carry: Vec::new(),
            spills: MetricsRegistry::global().counter("flush.spills"),
            trajectories: MetricsRegistry::global().counter("flush.trajectories"),
            duration_ns: MetricsRegistry::global().histogram("flush.duration_ns"),
            backlog_gauge: MetricsRegistry::global().gauge("flush.backlog_trajectories"),
        }
    }

    /// Points the `flush.*` instruments at `registry` (and the wrapped
    /// warehouse's `store.*`/`query.*` instruments along with them).
    #[must_use]
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Flusher {
        self.spills = registry.counter("flush.spills");
        self.trajectories = registry.counter("flush.trajectories");
        self.duration_ns = registry.histogram("flush.duration_ns");
        self.backlog_gauge = registry.gauge("flush.backlog_trajectories");
        self.backlog_gauge.set(self.carry.len() as i64);
        self.db = self.db.with_metrics(registry);
        self
    }

    /// Drains the engine's finished backlog and spills it, plus any
    /// carry a failed spill left, into the warehouse. Returns the number
    /// of trajectories made durable by this call.
    pub fn force(&mut self, engine: &mut ParallelEngine) -> Result<usize, WarehouseError> {
        self.carry.extend(engine.take_finished());
        self.spill()
    }

    /// Spills the carry as segments that each fit the store's row limit.
    /// When one fails, the batches never attempted go back to the carry
    /// (the failed one may already be durable, so it does not).
    fn spill(&mut self) -> Result<usize, WarehouseError> {
        if self.carry.is_empty() {
            self.backlog_gauge.set(0);
            return Ok(0);
        }
        let mut batches = self
            .db
            .store()
            .split_at_row_limit(std::mem::take(&mut self.carry))
            .into_iter();
        self.backlog_gauge.set(0);
        let start = Instant::now();
        let mut spilled = 0;
        while let Some(batch) = batches.next() {
            let n = batch.len();
            if let Err(e) = self.db.flush(batch) {
                self.carry = batches.flatten().collect();
                self.backlog_gauge.set(self.carry.len() as i64);
                return Err(e);
            }
            spilled += n;
            self.trajectories.add(n as u64);
        }
        self.duration_ns
            .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        self.spills.inc();
        Ok(spilled)
    }

    /// Finished visits taken from the engine but not yet spilled.
    pub fn backlog(&self) -> usize {
        self.carry.len()
    }

    /// The warehouse being filled.
    pub fn db(&self) -> &SegmentedDb {
        &self.db
    }

    /// Hands the warehouse back (e.g. to query it after the stream
    /// ends). Anything still in the carry is spilled first when
    /// non-empty; call [`Flusher::force`] beforehand to also drain the
    /// engine.
    pub fn into_db(mut self) -> Result<SegmentedDb, WarehouseError> {
        self.spill()?;
        Ok(self.db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::event::{sort_feed, StreamEvent, VisitKey};
    use sitm_core::{
        Annotation, AnnotationSet, IntervalPredicate, PresenceInterval, Timestamp, TransitionTaken,
    };
    use sitm_graph::{LayerIdx, NodeId};
    use sitm_query::Predicate;
    use sitm_space::CellRef;
    use sitm_store::warehouse::WarehouseConfig;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("sitm-flusher-{tag}-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
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
            .with_batch_capacity(4)
            .with_warehouse()
    }

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
            events.push(StreamEvent::Presence {
                visit: VisitKey(v),
                interval: PresenceInterval::new(
                    TransitionTaken::Unknown,
                    cell((v % 3) as usize),
                    Timestamp(base),
                    Timestamp(base + 50),
                ),
            });
            events.push(StreamEvent::VisitClosed {
                visit: VisitKey(v),
                at: Timestamp(base + 60),
            });
        }
        sort_feed(&mut events);
        events
    }

    fn open_db(tmp: &TempDir) -> SegmentedDb {
        SegmentedDb::open(&tmp.0, WarehouseConfig::default())
            .expect("open warehouse")
            .0
    }

    #[test]
    fn force_spills_finished_visits_and_bounds_the_engine() {
        let tmp = TempDir::new("force");
        let mut engine = ParallelEngine::new(config()).unwrap();
        let mut flusher = Flusher::new(open_db(&tmp));
        let events = feed(9);
        let third = events.len() / 3;
        let mut spilled = 0;
        for chunk in events.chunks(third.max(1)) {
            engine.ingest_all(chunk.to_vec());
            spilled += flusher.force(&mut engine).unwrap();
        }
        engine.finish();
        spilled += flusher.force(&mut engine).unwrap();
        assert_eq!(spilled, 9, "every closed visit reached the warehouse");
        assert_eq!(flusher.backlog(), 0);
        let db = flusher.into_db().unwrap();
        assert_eq!(db.len(), 9);
        // The warehouse answers predicates over the spilled history.
        assert_eq!(
            db.count_matching(&Predicate::VisitedCell(cell(0))),
            3,
            "visits 0, 3, 6 stayed in cell 0"
        );
        // And another take from the engine is empty (exactly-once).
        assert!(engine.take_finished().is_empty());
    }
}
