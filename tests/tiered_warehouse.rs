//! The tiered-warehouse differential guarantee, end to end:
//!
//! live engine → close fence → `take_finished` → `Flusher` → immutable
//! segments (+ size-tiered compaction) must be **query-invisible**: at
//! every flush/compaction point, the on-disk [`SegmentedDb`] answers
//! every `Predicate` and every `Query` — including sorted/limited
//! `execute_federated` over the union of live state and warehouse —
//! identically to an in-memory [`TrajectoryDb`] holding the same
//! trajectories, and identically across worker counts and a
//! crash/reopen.

use sitm::core::{
    Annotation, AnnotationSet, Duration, IntervalPredicate, PresenceInterval, SemanticTrajectory,
    TimeInterval, Timestamp, TransitionTaken,
};
use sitm::graph::{LayerIdx, NodeId};
use sitm::query::{
    federated_count, Predicate, Query, Row, SegmentedDb, SortKey, TrajectoryDb, TrajectorySource,
};
use sitm::space::CellRef;
use sitm::store::warehouse::WarehouseConfig;
use sitm::store::CompactionPolicy;
use sitm::stream::{EngineConfig, Flusher, ParallelEngine, StreamEvent, VisitKey};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("sitm-tiered-{tag}-{}-{n}", std::process::id()));
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
    EngineConfig::new(vec![
        (IntervalPredicate::in_cells([cell(1)]), label("one")),
        (IntervalPredicate::any(), label("whole")),
    ])
    .with_shards(4)
    .with_batch_capacity(4)
    .with_warehouse()
}

/// A feed of `visits` visits with varied traces; every third visit
/// stays open (no close event) so the live tier is always populated.
fn feed(visits: u64) -> Vec<StreamEvent> {
    let goals = ["visit", "buy", "exit"];
    let mut events = Vec::new();
    for v in 0..visits {
        let base = v as i64 * 20;
        events.push(StreamEvent::VisitOpened {
            visit: VisitKey(v),
            moving_object: format!("mo-{}", v % 7),
            annotations: label(goals[(v % 3) as usize]),
            at: Timestamp(base),
        });
        let stays = 1 + (v % 4) as usize;
        for i in 0..stays {
            let c = ((v as usize) + i) % 5;
            events.push(StreamEvent::Presence {
                visit: VisitKey(v),
                interval: PresenceInterval::new(
                    TransitionTaken::Unknown,
                    cell(c),
                    Timestamp(base + i as i64 * 30),
                    Timestamp(base + i as i64 * 30 + 25),
                ),
            });
        }
        if v % 3 != 2 {
            events.push(StreamEvent::VisitClosed {
                visit: VisitKey(v),
                at: Timestamp(base + stays as i64 * 30 + 10),
            });
        }
    }
    sitm::stream::event::sort_feed(&mut events);
    events
}

/// The predicate suite every comparison runs over (all three axes plus
/// boolean structure).
fn predicates() -> Vec<Predicate> {
    vec![
        Predicate::True,
        Predicate::VisitedCell(cell(1)),
        Predicate::VisitedCell(cell(9)),
        Predicate::MovingObject("mo-3".into()),
        Predicate::SpanOverlaps(TimeInterval::new(Timestamp(0), Timestamp(100))),
        Predicate::StayOverlaps(cell(2), TimeInterval::new(Timestamp(50), Timestamp(400))),
        Predicate::HasTrajAnnotation(Annotation::goal("buy")),
        Predicate::HasStayAnnotation(Annotation::goal("buy")),
        Predicate::SequenceContains(vec![cell(1), cell(2)]),
        Predicate::MinTotalDwell(Duration::seconds(60)),
        Predicate::MinStayIn(cell(0), Duration::seconds(20)),
        Predicate::VisitedCell(cell(1))
            .and(Predicate::HasTrajAnnotation(Annotation::goal("visit"))),
        Predicate::VisitedCell(cell(3)).or(Predicate::MovingObject("mo-0".into())),
        Predicate::VisitedCell(cell(2)).not(),
    ]
}

/// An oracle page as owned rows.
fn owned(rows: Vec<Row<'_>>) -> Vec<SemanticTrajectory> {
    rows.into_iter().map(Row::into_owned).collect()
}

/// Asserts the warehouse is indistinguishable from an in-memory
/// `TrajectoryDb` over the same trajectories, standalone and federated
/// with the given live source.
fn assert_differential(seg: &SegmentedDb, live: &dyn TrajectorySource, context: &str) {
    let reference = TrajectoryDb::build(seg.iter().cloned().collect());
    for p in predicates() {
        // Standalone: federated evaluation over just the warehouse.
        let matching = Query::new().filter(p.clone());
        let from_seg = matching.execute_federated(&[seg]);
        let from_ref = owned(matching.oracle(&[&reference], false));
        assert_eq!(from_seg, from_ref, "{context}: warehouse diverged for {p}");
        assert_eq!(
            federated_count(&p, &[seg]),
            from_ref.len(),
            "{context}: counts diverged for {p}"
        );

        // Federated: live + warehouse union, sorted and limited — the
        // same query with the warehouse implementation swapped must be
        // byte-identical (the sort is stable, ties keep source order,
        // and both warehouses iterate identically).
        let query = Query::new()
            .filter(p.clone())
            .order_by(SortKey::Start, true)
            .limit(8);
        let federated_seg = query.execute_federated(&[live, seg]);
        let federated_ref = owned(query.oracle(&[live, &reference], false));
        assert_eq!(
            federated_seg, federated_ref,
            "{context}: sorted/limited federation diverged for {p}"
        );
        let paged = Query::new()
            .filter(p.clone())
            .order_by(SortKey::MovingObject, false)
            .offset(2)
            .limit(5);
        assert_eq!(
            paged.execute_federated(&[live, seg]),
            owned(paged.oracle(&[live, &reference], false)),
            "{context}: paged federation diverged for {p}"
        );

        // Pushdown: `execute_segmented` (directory-ordered, paged,
        // lazily decoded) must return exactly what the oracle returns
        // over the eager reference (descending ties reversed), for
        // every sort key and page shape.
        for (order, offset, limit) in [
            (None, 0, None),
            (None, 1, Some(4)),
            (Some((SortKey::Start, true)), 0, Some(6)),
            (Some((SortKey::End, false)), 2, Some(3)),
            (Some((SortKey::SpanDuration, true)), 1, None),
            (Some((SortKey::TotalDwell, false)), 0, Some(5)),
            (Some((SortKey::MovingObject, true)), 3, Some(4)),
            (Some((SortKey::TraceLength, false)), 0, None),
        ] {
            let mut q = Query::new().filter(p.clone()).offset(offset);
            if let Some((key, asc)) = order {
                q = q.order_by(key, asc);
            }
            if let Some(n) = limit {
                q = q.limit(n);
            }
            let pushed = q.execute_segmented(seg);
            let eager = owned(q.oracle(&[&reference], true));
            assert_eq!(
                pushed, eager,
                "{context}: pushdown diverged for {p} order {order:?} offset {offset} limit {limit:?}"
            );
        }
    }
}

#[test]
fn warehouse_is_differentially_invisible_at_every_flush_point() {
    let tmp = TempDir::new("differential");
    let mut engine = ParallelEngine::new(config()).unwrap();
    let (db, _) = SegmentedDb::open(
        &tmp.0,
        WarehouseConfig {
            fanout: 3, // small fanout: compactions actually happen mid-test
            manifest: CompactionPolicy::default(),
            ..WarehouseConfig::default()
        },
    )
    .unwrap();
    let mut flusher = Flusher::new(db);

    let events = feed(30);
    let chunks: Vec<&[StreamEvent]> = events.chunks(events.len() / 6).collect();
    for (i, chunk) in chunks.iter().enumerate() {
        engine.ingest_all(chunk.to_vec());
        flusher.poll(&mut engine).unwrap();
        let snapshot = engine.live_snapshot();
        assert_differential(flusher.db(), &*snapshot, &format!("chunk {i}"));
    }
    // End of stream: close everything, spill the rest, check again.
    engine.finish();
    flusher.force(&mut engine).unwrap();
    let snapshot = engine.live_snapshot();
    assert!(snapshot.visits.is_empty(), "finish closed every open visit");
    assert_differential(flusher.db(), &*snapshot, "after finish");
    // The stream really exercised the tiers.
    let db = flusher.into_db().unwrap();
    assert_eq!(db.len(), 30, "every visit reached the warehouse");
    assert!(
        db.segments().len() < 7,
        "size-tiered compaction merged small flush segments (got {})",
        db.segments().len()
    );

    // Crash/reopen: the recovered warehouse answers identically.
    drop(db);
    let (reopened, report) = SegmentedDb::open(
        &tmp.0,
        WarehouseConfig {
            fanout: 3,
            manifest: CompactionPolicy::default(),
            ..WarehouseConfig::default()
        },
    )
    .unwrap();
    assert!(report.is_clean());
    assert_eq!(reopened.len(), 30);
    let empty: Vec<SemanticTrajectory> = Vec::new();
    assert_differential(&reopened, &empty, "after reopen");
}

/// One worker and four spill the same history and serve the same
/// federated answers over live ∪ warehouse.
#[test]
fn worker_counts_build_identical_warehouses_live_included() {
    let events = feed(24);
    let build = |workers: usize| {
        let tmp = TempDir::new(&format!("workers-{workers}"));
        let mut engine = ParallelEngine::new(config().with_shards(workers)).unwrap();
        engine.ingest_all(events.iter().cloned());
        let mut flusher = Flusher::new(
            SegmentedDb::open(&tmp.0, WarehouseConfig::default())
                .unwrap()
                .0,
        );
        flusher.poll(&mut engine).unwrap();
        (tmp, engine.live_snapshot(), flusher.into_db().unwrap())
    };
    let (_one_dir, one_snapshot, one_db) = build(1);
    let (_four_dir, four_snapshot, four_db) = build(4);
    let one_all: Vec<SemanticTrajectory> = one_db.iter().cloned().collect();
    let four_all: Vec<SemanticTrajectory> = four_db.iter().cloned().collect();
    assert_eq!(one_all, four_all, "identical spilled history");

    for p in predicates() {
        let q = Query::new()
            .filter(p.clone())
            .order_by(SortKey::Start, true);
        assert_eq!(
            q.execute_federated(&[&*one_snapshot, &one_db]),
            q.execute_federated(&[&*four_snapshot, &four_db]),
            "worker counts diverged under federation for {p}"
        );
    }
}

#[test]
fn cold_open_decodes_nothing_and_pruned_point_queries_read_zero_bytes() {
    // The cold-scale contract: reopening a many-segment
    // warehouse reads headers only, fully-pruned point queries keep
    // `query.segment_bytes_read` at zero, and a sorted/limited pushdown
    // decodes exactly the returned page.
    let tmp = TempDir::new("cold-scale");
    let config = WarehouseConfig {
        fanout: 64, // keep the twelve flush segments distinct
        manifest: CompactionPolicy::default(),
        ..WarehouseConfig::default()
    };
    {
        let (mut db, _) = SegmentedDb::open(&tmp.0, config).unwrap();
        for batch in 0..12i64 {
            let base = batch * 10_000;
            let trajs: Vec<SemanticTrajectory> = (0..4)
                .map(|i| {
                    let start = base + i * 100;
                    let stay = PresenceInterval::new(
                        TransitionTaken::Unknown,
                        cell((i % 5) as usize),
                        Timestamp(start),
                        Timestamp(start + 50),
                    );
                    SemanticTrajectory::new(
                        format!("mo-{batch}-{i}"),
                        sitm::core::Trace::new(vec![stay]).unwrap(),
                        label("visit"),
                    )
                    .unwrap()
                })
                .collect();
            db.flush(trajs).unwrap();
        }
        assert_eq!(db.segments().len(), 12);
    }

    let registry = sitm::obs::MetricsRegistry::new();
    let (db, report) = SegmentedDb::open(&tmp.0, config).unwrap();
    let db = db.with_metrics(&registry);
    assert!(report.is_clean());
    assert_eq!(db.len(), 48, "counts come from the offset directories");
    assert!(
        db.segments().iter().all(|s| !s.is_loaded()),
        "cold open decoded nothing"
    );

    let bytes = registry.counter("query.segment_bytes_read");
    let decoded = registry.counter("query.trajectories_decoded");
    // Fully-pruned point queries: object index (absent object) and
    // zone/Bloom tier (absent cell) both answer without any read.
    let absent = Predicate::MovingObject("nobody".into());
    assert_eq!(db.count_matching(&absent), 0);
    assert!(Query::new()
        .filter(absent)
        .execute_segmented(&db)
        .is_empty());
    let absent_cell = Predicate::VisitedCell(cell(99));
    assert_eq!(db.count_matching(&absent_cell), 0);
    assert_eq!(
        bytes.get(),
        0,
        "pruned cold queries read zero segment bytes"
    );
    assert_eq!(decoded.get(), 0);
    assert!(db.segments().iter().all(|s| !s.is_loaded()));

    // A sorted/limited pushdown decodes exactly the returned page —
    // per frame, without hydrating any segment.
    let page = Query::new()
        .order_by(SortKey::Start, true)
        .limit(3)
        .execute_segmented(&db);
    assert_eq!(page.len(), 3);
    assert_eq!(decoded.get(), 3, "only the returned rows were decoded");
    assert!(
        bytes.get() > 0,
        "the page frames were really read from disk"
    );
    assert!(
        db.segments().iter().all(|s| !s.is_loaded()),
        "paging reads frames, not whole segments"
    );
}

#[test]
fn zone_map_pruning_skips_segments_without_losing_matches() {
    // Time-partitioned flushes give disjoint span zone maps: a narrow
    // window query must prune most segments yet count identically.
    let tmp = TempDir::new("pruning");
    let (mut db, _) = SegmentedDb::open(
        &tmp.0,
        WarehouseConfig {
            fanout: 64, // keep flush segments distinct
            manifest: CompactionPolicy::default(),
            ..WarehouseConfig::default()
        },
    )
    .unwrap();
    for batch in 0..6i64 {
        let base = batch * 10_000;
        let trajs: Vec<SemanticTrajectory> = (0..20)
            .map(|i| {
                let start = base + i * 100;
                let stay = PresenceInterval::new(
                    TransitionTaken::Unknown,
                    cell((i % 5) as usize),
                    Timestamp(start),
                    Timestamp(start + 50),
                );
                SemanticTrajectory::new(
                    format!("mo-{batch}-{i}"),
                    sitm::core::Trace::new(vec![stay]).unwrap(),
                    label("visit"),
                )
                .unwrap()
            })
            .collect();
        db.flush(trajs).unwrap();
    }
    assert_eq!(db.segments().len(), 6);
    let window = Predicate::SpanOverlaps(TimeInterval::new(Timestamp(20_000), Timestamp(21_000)));
    let plan = db.explain(&window);
    assert_eq!(plan.pruned, 5, "five of six segments are span-disjoint");
    assert_eq!(
        db.count_matching(&window),
        Query::new()
            .filter(window.clone())
            .oracle(&[&db], false)
            .len()
    );
    assert!(db.count_matching(&window) > 0);
    // A moving-object point query prunes by the *global object index*
    // before any per-segment zone map or Bloom filter is consulted.
    let object = Predicate::MovingObject("mo-3-7".into());
    let plan = db.explain(&object);
    assert_eq!(plan.object_pruned, 5, "object index rejects five segments");
    assert_eq!(plan.pruned, 0, "their zone maps were never consulted");
    assert_eq!(plan.candidates, Some(1));
    assert_eq!(db.count_matching(&object), 1);
}

#[test]
fn row_cache_is_query_invisible_across_flushes_and_compaction() {
    // Differential guarantee for the warm read path: a warehouse with
    // the row-decode cache enabled (default budget) must answer every
    // query — paged, sorted by every key, re-run warm — identically to
    // one with the cache disabled (`row_cache_bytes: 0`), at every
    // flush point and across the compaction that invalidates cached
    // segment ids.
    let tmp_on = TempDir::new("cache-on");
    let tmp_off = TempDir::new("cache-off");
    let config_on = WarehouseConfig {
        fanout: 3, // small fanout: compaction happens mid-test
        ..WarehouseConfig::default()
    };
    let config_off = WarehouseConfig {
        fanout: 3,
        row_cache_bytes: 0,
        ..WarehouseConfig::default()
    };
    let registry = sitm::obs::MetricsRegistry::new();
    let mut db_on = SegmentedDb::open(&tmp_on.0, config_on)
        .unwrap()
        .0
        .with_metrics(&registry);
    let mut db_off = SegmentedDb::open(&tmp_off.0, config_off).unwrap().0;

    // A deterministic pseudo-random corpus: varied objects, cells,
    // stay counts, and dwell durations so every sort key has ties and
    // distinct values.
    let mut seed: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) as i64
    };
    let queries = || {
        let mut out = Vec::new();
        for p in [
            Predicate::True,
            Predicate::VisitedCell(cell(2)),
            Predicate::MinTotalDwell(Duration::seconds(40)),
        ] {
            for (order, offset, limit) in [
                (None, 0, Some(7)),
                (Some((SortKey::Start, true)), 1, Some(5)),
                (Some((SortKey::TotalDwell, false)), 0, Some(4)),
                (Some((SortKey::MovingObject, true)), 2, Some(6)),
                (Some((SortKey::TraceLength, false)), 0, None),
            ] {
                let mut q = Query::new().filter(p.clone()).offset(offset);
                if let Some((key, asc)) = order {
                    q = q.order_by(key, asc);
                }
                if let Some(n) = limit {
                    q = q.limit(n);
                }
                out.push(q);
            }
        }
        out
    };

    for batch in 0..8 {
        let trajs: Vec<SemanticTrajectory> = (0..6)
            .map(|_| {
                let start = next().rem_euclid(5_000);
                let stays = 1 + (next().rem_euclid(3) as usize);
                let intervals: Vec<PresenceInterval> = (0..stays)
                    .map(|k| {
                        let s = start + k as i64 * 200;
                        PresenceInterval::new(
                            TransitionTaken::Unknown,
                            cell(next().rem_euclid(5) as usize),
                            Timestamp(s),
                            Timestamp(s + 10 + next().rem_euclid(90)),
                        )
                    })
                    .collect();
                SemanticTrajectory::new(
                    format!("mo-{}", next().rem_euclid(9)),
                    sitm::core::Trace::new(intervals).unwrap(),
                    label("visit"),
                )
                .unwrap()
            })
            .collect();
        // The flush (and any size-tiered compaction it triggers) runs
        // against the instance whose cache the previous iteration's
        // queries populated — retiring segment ids must invalidate
        // those rows. The reopen then drops the pre-cached runs so the
        // queries below really read per frame through the row cache.
        db_on.flush(trajs.clone()).unwrap();
        db_off.flush(trajs).unwrap();
        db_on = SegmentedDb::open(&tmp_on.0, config_on)
            .unwrap()
            .0
            .with_metrics(&registry);
        db_off = SegmentedDb::open(&tmp_off.0, config_off).unwrap().0;
        for q in queries() {
            let cold = q.execute_segmented(&db_on);
            assert_eq!(
                cold,
                q.execute_segmented(&db_off),
                "batch {batch}: cache-enabled diverged from cache-disabled"
            );
            // The warm re-run — now served (partly) from the cache —
            // answers identically.
            assert_eq!(
                cold,
                q.execute_segmented(&db_on),
                "batch {batch}: warm re-run diverged"
            );
        }
    }
    // The corpus really exercised both the cache and its invalidation.
    let snapshot = registry.snapshot();
    assert!(
        snapshot.counter("query.row_cache_hits").unwrap() > 0,
        "warm re-runs hit the cache"
    );
    assert!(
        db_on.segments().len() < 8,
        "compaction retired segment ids mid-test (got {})",
        db_on.segments().len()
    );
    let budget = WarehouseConfig::default().row_cache_bytes as i64;
    let resident = snapshot.gauge("query.row_cache_bytes").unwrap();
    assert!(
        (0..=budget).contains(&resident),
        "cache residency {resident} within budget {budget}"
    );
}
