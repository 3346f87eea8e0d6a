//! The one differential for the one executor.
//!
//! Every query entry point — `Query::execute`, `execute_segmented`,
//! `execute_federated`, both byte sinks, `federated_count` — is a sink
//! over one paging core in `sitm-query`. This file checks that core
//! against the crate's `#[doc(hidden)]` oracle (concatenate every row,
//! filter, stable sort, skip, take — it shares nothing with the core)
//! over random mixtures of every source kind, and pins two things the
//! core must not do: count a *plan* as a query, or touch anything for
//! an empty page.

use proptest::prelude::*;

use sitm::core::{
    Annotation, AnnotationSet, Duration, PresenceInterval, SemanticTrajectory, TimeInterval,
    Timestamp, Trace, TransitionTaken,
};
use sitm::graph::{LayerIdx, NodeId};
use sitm::obs::MetricsRegistry;
use sitm::query::{
    federated_count, Predicate, Query, Row, SegmentedDb, SortKey, TrajectoryDb, TrajectorySource,
};
use sitm::space::CellRef;
use sitm::store::encode_trajectory;
use sitm::store::warehouse::WarehouseConfig;
use sitm::stream::{LiveSnapshot, VisitKey};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("sitm-one-{}-{n}", std::process::id()));
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

const GOALS: [&str; 3] = ["visit", "buy", "exit"];

const KEYS: [SortKey; 6] = [
    SortKey::Start,
    SortKey::End,
    SortKey::SpanDuration,
    SortKey::TotalDwell,
    SortKey::MovingObject,
    SortKey::TraceLength,
];

/// Rows from a deliberately cramped universe — four objects, starts
/// within 12 s, stays of at most 5 s — so every sort key ties, inside a
/// source and across sources.
fn trajectory_strategy() -> impl Strategy<Value = SemanticTrajectory> {
    (
        0u8..4,
        0usize..GOALS.len(),
        0i64..12,
        prop::collection::vec((0usize..5, 0i64..6, 0u8..3), 1..4),
    )
        .prop_map(|(mo, goal, start, stays)| {
            let mut t = start;
            let mut intervals = Vec::with_capacity(stays.len());
            for (c, dur, ann) in stays {
                let mut stay = PresenceInterval::new(
                    TransitionTaken::Unknown,
                    cell(c),
                    Timestamp(t),
                    Timestamp(t + dur),
                );
                if ann > 0 {
                    stay.annotations
                        .insert(Annotation::goal(GOALS[ann as usize % GOALS.len()]));
                }
                intervals.push(stay);
                t += dur;
            }
            SemanticTrajectory::new(
                format!("mo-{mo}"),
                Trace::new(intervals).expect("ordered stays"),
                AnnotationSet::from_iter([Annotation::goal(GOALS[goal])]),
            )
            .expect("non-empty")
        })
}

/// The 13-variant algebra over the same universe.
fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    let window =
        |s: i64, d: i64| -> TimeInterval { TimeInterval::new(Timestamp(s), Timestamp(s + d)) };
    let leaf = prop_oneof![
        Just(Predicate::True),
        (0usize..5).prop_map(|c| Predicate::VisitedCell(cell(c))),
        prop::collection::vec(0usize..5, 1..3)
            .prop_map(|cs| Predicate::SequenceContains(cs.into_iter().map(cell).collect())),
        (0i64..30, 0i64..10).prop_map(move |(s, d)| Predicate::SpanOverlaps(window(s, d))),
        (0usize..5, 0i64..30, 0i64..10)
            .prop_map(move |(c, s, d)| Predicate::StayOverlaps(cell(c), window(s, d))),
        (0usize..GOALS.len())
            .prop_map(|g| Predicate::HasTrajAnnotation(Annotation::goal(GOALS[g]))),
        (0usize..GOALS.len())
            .prop_map(|g| Predicate::HasStayAnnotation(Annotation::goal(GOALS[g]))),
        (0i64..12).prop_map(|s| Predicate::MinTotalDwell(Duration::seconds(s))),
        (0usize..5, 0i64..6).prop_map(|(c, s)| Predicate::MinStayIn(cell(c), Duration::seconds(s))),
        (0u8..4).prop_map(|m| Predicate::MovingObject(format!("mo-{m}"))),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|p| p.not()),
            prop::collection::vec(inner.clone(), 0..3).prop_map(Predicate::And),
            prop::collection::vec(inner, 0..3).prop_map(Predicate::Or),
        ]
    })
}

/// How a source's rows are held.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Plain,
    Indexed,
    /// A warehouse of two segments: which of them are hydrated, and
    /// whether the store keeps a row-decode cache for the cold ones.
    Warehouse {
        hydrated: [bool; 2],
        row_cache: bool,
    },
    /// A live snapshot, with postings over every visit.
    Live,
}

fn kind_strategy() -> impl Strategy<Value = Kind> {
    prop_oneof![
        Just(Kind::Plain),
        Just(Kind::Indexed),
        (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(a, b, row_cache)| {
            Kind::Warehouse {
                hydrated: [a, b],
                row_cache,
            }
        }),
        Just(Kind::Live),
    ]
}

fn warehouse_config(row_cache: bool) -> WarehouseConfig {
    WarehouseConfig {
        row_cache_bytes: if row_cache { 1 << 20 } else { 0 },
        ..WarehouseConfig::default()
    }
}

/// One source of a case: its kind, its rows, and — for a warehouse —
/// the directory they were flushed to (two flushes, two segments).
struct Spec {
    kind: Kind,
    rows: Vec<SemanticTrajectory>,
    dir: Option<TempDir>,
}

impl Spec {
    fn new(kind: Kind, rows: Vec<SemanticTrajectory>) -> Spec {
        let dir = matches!(kind, Kind::Warehouse { .. }).then(|| {
            let dir = TempDir::new();
            let (mut db, _) = SegmentedDb::open(&dir.0, warehouse_config(true)).expect("open");
            let (first, second) = rows.split_at(rows.len() / 2);
            db.flush(first.to_vec()).expect("flush");
            db.flush(second.to_vec()).expect("flush");
            dir
        });
        Spec { kind, rows, dir }
    }

    /// The source, freshly opened: cold segments are cold again.
    fn open(&self) -> Box<dyn TrajectorySource> {
        match self.kind {
            Kind::Plain => Box::new(self.rows.clone()),
            Kind::Indexed => Box::new(TrajectoryDb::build(self.rows.clone())),
            Kind::Warehouse {
                hydrated,
                row_cache,
            } => Box::new(self.open_warehouse(hydrated, row_cache)),
            Kind::Live => Box::new(live_snapshot(&self.rows)),
        }
    }

    fn open_warehouse(&self, hydrated: [bool; 2], row_cache: bool) -> SegmentedDb {
        let dir = self.dir.as_ref().expect("a warehouse has a directory");
        let (db, _) = SegmentedDb::open(&dir.0, warehouse_config(row_cache)).expect("reopen");
        for (segment, hydrate) in db.segments().iter().zip(hydrated) {
            if hydrate {
                segment.trajectories().expect("hydrate");
            }
        }
        db
    }
}

fn live_snapshot(rows: &[SemanticTrajectory]) -> LiveSnapshot {
    LiveSnapshot::new((0..).map(VisitKey).zip(rows.iter().cloned()).collect())
}

fn refs(opened: &[Box<dyn TrajectorySource>]) -> Vec<&dyn TrajectorySource> {
    opened.iter().map(|s| &**s).collect()
}

fn owned(rows: Vec<Row<'_>>) -> Vec<SemanticTrajectory> {
    rows.into_iter().map(Row::into_owned).collect()
}

fn encoded(rows: &[SemanticTrajectory]) -> Vec<u8> {
    let mut out = Vec::new();
    for t in rows {
        encode_trajectory(&mut out, t);
    }
    out
}

fn shaped(
    p: &Predicate,
    order: Option<(SortKey, bool)>,
    offset: usize,
    limit: Option<usize>,
) -> Query {
    let mut q = Query::new().filter(p.clone()).offset(offset);
    if let Some((key, ascending)) = order {
        q = q.order_by(key, ascending);
    }
    if let Some(n) = limit {
        q = q.limit(n);
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Owned sink == oracle under each tie rule, `count` == the
    /// oracle's length, byte sink == the owned rows encoded one after
    /// another — over 1–4 sources of mixed kinds, every sort key in
    /// both directions with ties inside and across sources, offsets to
    /// past the end, limits none / 0 / short / exact.
    #[test]
    fn core_equals_oracle_over_mixed_sources(
        sources in prop::collection::vec(
            (kind_strategy(), prop::collection::vec(trajectory_strategy(), 0..14)),
            1..5,
        ),
        pred in predicate_strategy(),
        key in 0usize..KEYS.len(),
        short in 1usize..6,
        offset_draw in 0usize..100,
    ) {
        let specs: Vec<Spec> = sources
            .into_iter()
            .map(|(kind, rows)| Spec::new(kind, rows))
            .collect();
        let open = || -> Vec<Box<dyn TrajectorySource>> { specs.iter().map(Spec::open).collect() };

        // Count: the matches of the whole federation.
        let matches = {
            let opened = open();
            let matches = Query::new().filter(pred.clone()).oracle(&refs(&opened), false).len();
            prop_assert_eq!(federated_count(&pred, &refs(&open())), matches, "count for {}", pred.clone());
            matches
        };

        // One offset inside the matches (or 0), one past their end.
        let inside = offset_draw % (matches + 1);
        let mut pages = Vec::new();
        for order in [None, Some((KEYS[key], true)), Some((KEYS[key], false))] {
            for offset in [inside, matches + 2] {
                let exact = matches.saturating_sub(offset).max(1);
                for limit in [None, Some(0), Some(short), Some(exact)] {
                    pages.push(shaped(&pred, order, offset, limit));
                }
            }
        }
        for q in pages {
            // The federated contract: ties keep (source, position) order.
            let opened = open();
            let want = owned(q.oracle(&refs(&opened), false));
            prop_assert_eq!(&q.execute_federated(&refs(&open())), &want, "owned sink, {:?}", q.clone());
            let mut bytes = Vec::new();
            let rows = q.execute_federated_encoded(&refs(&open()), &mut bytes);
            prop_assert_eq!(rows, want.len(), "byte sink row count, {:?}", q.clone());
            prop_assert_eq!(bytes, encoded(&want), "byte sink, {:?}", q.clone());

            // The one-collection contract: a descending sort reverses
            // the ascending order wholesale, ties included.
            for spec in &specs {
                match spec.kind {
                    Kind::Indexed => {
                        let db = TrajectoryDb::build(spec.rows.clone());
                        let want = owned(q.oracle(&[&db], true));
                        let got: Vec<SemanticTrajectory> =
                            q.execute(&db).iter().map(|m| m.trajectory.clone()).collect();
                        prop_assert_eq!(got, want, "execute, {:?}", q.clone());
                    }
                    Kind::Warehouse { hydrated, row_cache } => {
                        let reference = spec.open_warehouse([true, true], row_cache);
                        let want = owned(q.oracle(&[&reference], true));
                        let db = spec.open_warehouse(hydrated, row_cache);
                        prop_assert_eq!(&q.execute_segmented(&db), &want, "execute_segmented, {:?}", q.clone());
                        let db = spec.open_warehouse(hydrated, row_cache);
                        let mut bytes = Vec::new();
                        prop_assert_eq!(q.execute_segmented_encoded(&db, &mut bytes), want.len());
                        prop_assert_eq!(bytes, encoded(&want), "execute_segmented_encoded, {:?}", q.clone());
                    }
                    Kind::Plain | Kind::Live => {}
                }
            }
        }
    }
}

fn traj(mo: &str, c: usize, start: i64) -> SemanticTrajectory {
    let stay = PresenceInterval::new(
        TransitionTaken::Unknown,
        cell(c),
        Timestamp(start),
        Timestamp(start + 10),
    );
    SemanticTrajectory::new(
        mo,
        Trace::new(vec![stay]).expect("one stay"),
        AnnotationSet::from_iter([Annotation::goal("visit")]),
    )
    .expect("non-empty")
}

const PRUNE_COUNTERS: [&str; 3] = [
    "query.segments_scanned",
    "query.zone_pruned",
    "query.object_pruned",
];

/// `(the three pruning counters summed, query.candidates samples)`.
fn query_instruments(registry: &MetricsRegistry) -> (u64, u64) {
    let pruning = PRUNE_COUNTERS
        .iter()
        .map(|name| registry.counter(name).get())
        .sum();
    (pruning, registry.histogram("query.candidates").count())
}

/// Planning is not querying: `Query::explain` over each of the four
/// source kinds moves no `query.*` instrument, and one executed query
/// counts exactly once per warehouse source — through the federated
/// entry points too.
#[test]
fn planning_moves_no_instrument_and_a_query_counts_once_per_warehouse() {
    let rows: Vec<SemanticTrajectory> = (0..6)
        .map(|i| traj(&format!("mo-{}", i % 3), 1 + i % 2, i as i64 * 100))
        .collect();
    let registry = MetricsRegistry::new();
    let dirs = [TempDir::new(), TempDir::new()];
    let warehouses: Vec<SegmentedDb> = dirs
        .iter()
        .map(|dir| {
            let (db, _) = SegmentedDb::open(&dir.0, WarehouseConfig::default()).expect("open");
            let mut db = db.with_metrics(&registry);
            db.flush(rows[..4].to_vec()).expect("flush");
            db.flush(rows[4..].to_vec()).expect("flush");
            db
        })
        .collect();
    let plain = rows.clone();
    let indexed = TrajectoryDb::build(rows.clone());
    let live = live_snapshot(&rows);
    let sources: [&dyn TrajectorySource; 5] =
        [&plain, &indexed, &live, &warehouses[0], &warehouses[1]];
    // Two segments a warehouse: every query scans or prunes two.
    let segments = 2 * warehouses.len() as u64;

    for p in [
        Predicate::True,
        Predicate::VisitedCell(cell(1)),
        Predicate::MovingObject("mo-1".into()),
        Predicate::MovingObject("nobody".into()),
    ] {
        let q = Query::new()
            .filter(p.clone())
            .order_by(SortKey::Start, false)
            .limit(3);
        let before = query_instruments(&registry);
        for source in sources {
            source.plan(q.predicate());
            assert_eq!(source.len_hint(), 6, "{p}");
        }
        assert_eq!(
            query_instruments(&registry),
            before,
            "planning {p} moved a per-query instrument"
        );

        // Each entry point over both warehouses: one count a warehouse.
        let mut bytes = Vec::new();
        let runs: [&dyn Fn() -> usize; 3] = [
            &|| q.execute_federated(&sources).len(),
            &|| federated_count(&p, &sources),
            &|| warehouses.iter().map(|db| db.count_matching(&p)).sum(),
        ];
        for (i, run) in runs.iter().enumerate() {
            let before = query_instruments(&registry);
            run();
            let after = query_instruments(&registry);
            assert_eq!(
                (after.0 - before.0, after.1 - before.1),
                (segments, warehouses.len() as u64),
                "entry point {i} over {p}"
            );
        }
        let before = query_instruments(&registry);
        q.execute_federated_encoded(&sources, &mut bytes);
        q.execute_segmented(&warehouses[0]);
        q.execute_segmented_encoded(&warehouses[1], &mut bytes);
        let after = query_instruments(&registry);
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (2 * segments, 2 * warehouses.len() as u64),
            "byte sink + the two one-warehouse entry points over {p}"
        );
    }
}

/// An empty page is decided before any index is consulted: over a
/// reopened (cold) warehouse, `limit(0)` with a predicate that would
/// otherwise hydrate the segments it survives in opens nothing, decodes
/// nothing, reads nothing and counts no query.
#[test]
fn a_limit_zero_page_touches_nothing() {
    let dir = TempDir::new();
    {
        let (mut db, _) = SegmentedDb::open(&dir.0, WarehouseConfig::default()).expect("open");
        db.flush((0..8).map(|i| traj("x", 1, i * 10)).collect())
            .expect("flush");
    }
    let registry = MetricsRegistry::new();
    let (db, _) = SegmentedDb::open(&dir.0, WarehouseConfig::default()).expect("reopen");
    let db = db.with_metrics(&registry);
    let live = live_snapshot(&[traj("x", 1, 0)]);
    let touched = || {
        [
            "store.lazy_opens",
            "query.trajectories_decoded",
            "query.segment_bytes_read",
        ]
        .map(|name| registry.counter(name).get())
    };
    let before = (touched(), query_instruments(&registry));
    let q = Query::new().moving_object("x").limit(0);
    let mut bytes = Vec::new();
    assert!(q.execute_segmented(&db).is_empty());
    assert_eq!(q.execute_segmented_encoded(&db, &mut bytes), 0);
    assert!(q.execute_federated(&[&live, &db]).is_empty());
    assert_eq!(q.execute_federated_encoded(&[&live, &db], &mut bytes), 0);
    assert!(bytes.is_empty());
    assert_eq!((touched(), query_instruments(&registry)), before);
    assert!(db.segments().iter().all(|s| !s.is_loaded()), "still cold");
    // The same page with room for a row does all of it.
    assert_eq!(
        Query::new()
            .moving_object("x")
            .limit(1)
            .execute_segmented(&db)
            .len(),
        1
    );
    assert!(touched().iter().all(|&n| n > 0), "{:?}", touched());
}
