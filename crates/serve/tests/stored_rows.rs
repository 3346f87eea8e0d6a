//! A warehouse `Query` reply is assembled from the segments' stored
//! row bytes, not from rows decoded, cloned and encoded again. Two
//! pins:
//!
//! * **bytes** — whatever mix of cold and hydrated segments a page
//!   crosses, the reply payload is byte for byte `encode_response` of
//!   `Query::execute_segmented`'s rows (which in turn equal
//!   `Query::execute` over an in-memory reference);
//! * **cost, by count** — `query.rows_materialized` (rows the paging
//!   core turned into an owned value): a deep page over hydrated
//!   segments moves it by nothing when served and by exactly the page
//!   through `execute_segmented`; a cold page moves it by the rows
//!   read — and under `True`, whose offset is skipped by position, a
//!   cold page reads and decodes its own rows at any offset.
//!   `QueryFederated` replies through the same byte sink: served it
//!   clones nothing, `execute_federated` clones exactly the page — and
//!   a `limit 0` page, through either op, touches nothing at all.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use sitm_core::{
    Annotation, AnnotationSet, Duration, IntervalPredicate, PresenceInterval, SemanticTrajectory,
    TimeInterval, Timestamp, Trace, TransitionTaken,
};
use sitm_graph::{CellRef, LayerIdx, NodeId};
use sitm_obs::MetricsRegistry;
use sitm_query::wire::WireQuery;
use sitm_query::{Predicate, SegmentedDb, SortKey, TrajectoryDb, TrajectorySource};
use sitm_serve::{
    encode_request, encode_response, read_frame, write_frame, Client, Request, Response, Server,
    ServerConfig,
};
use sitm_store::warehouse::WarehouseConfig;
use sitm_stream::{EngineConfig, ParallelEngine, StreamEvent, VisitKey};

static NEXT: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("sitm-stored-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    /// A fresh directory holding a copy of `from`'s files.
    fn copy_of(from: &TempDir, tag: &str) -> TempDir {
        let to = TempDir::new(tag);
        std::fs::create_dir_all(&to.0).expect("create");
        for entry in std::fs::read_dir(&from.0).expect("read dir") {
            let entry = entry.expect("entry");
            std::fs::copy(entry.path(), to.0.join(entry.file_name())).expect("copy");
        }
        to
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

fn engine_config() -> EngineConfig {
    EngineConfig::new(vec![(
        IntervalPredicate::any(),
        AnnotationSet::from_iter([Annotation::goal("whole")]),
    )])
    .with_shards(1)
}

/// Row `i`: 1–4 stays over cells 1–3 (`extra`, when given, is visited
/// too), with starts, dwell and object names that collide across rows
/// so every sort key has ties for the position tiebreak to settle.
fn row(i: usize, extra: Option<usize>) -> SemanticTrajectory {
    let start = ((i * 37) % 200) as i64;
    let mut stays: Vec<PresenceInterval> = (0..1 + i % 4)
        .map(|k| {
            let s = start + k as i64 * 40;
            PresenceInterval::new(
                TransitionTaken::Unknown,
                cell(1 + (i + k) % 3),
                Timestamp(s),
                Timestamp(s + 5 + ((i * 7 + k) % 30) as i64),
            )
        })
        .collect();
    if let Some(c) = extra {
        let s = start + 400;
        stays.push(PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(c),
            Timestamp(s),
            Timestamp(s + 9),
        ));
    }
    SemanticTrajectory::new(
        format!("mo-{}", i % 7),
        Trace::new(stays).expect("ordered stays"),
        AnnotationSet::from_iter([Annotation::goal("visit")]),
    )
    .expect("non-empty")
}

/// Row `i` of a large warehouse: one 5 s stay in cell 1 from `i`.
fn small(i: usize) -> SemanticTrajectory {
    let s = i as i64;
    SemanticTrajectory::new(
        format!("mo-{}", i % 97),
        Trace::new(vec![PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(1),
            Timestamp(s),
            Timestamp(s + 5),
        )])
        .expect("one stay"),
        AnnotationSet::from_iter([Annotation::goal("visit")]),
    )
    .expect("non-empty")
}

/// Flushes each batch as one segment. Batch sizes in different size
/// tiers keep compaction from merging them.
fn write_warehouse(dir: &Path, batches: Vec<Vec<SemanticTrajectory>>) {
    let (mut db, _) = SegmentedDb::open(dir, WarehouseConfig::default()).expect("open");
    let segments = batches.len();
    for batch in batches {
        db.flush(batch).expect("flush");
    }
    assert_eq!(db.segments().len(), segments, "one segment a batch");
}

fn open_db(dir: &Path, registry: &MetricsRegistry) -> SegmentedDb {
    SegmentedDb::open(dir, WarehouseConfig::default())
        .expect("open")
        .0
        .with_metrics(registry)
}

/// One `Query` round trip on a raw socket: the reply's payload bytes.
fn served_payload(stream: &mut TcpStream, query: &WireQuery) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_request(&mut payload, &Request::Query(query.clone()));
    write_frame(stream, &payload).expect("send");
    read_frame(stream).expect("reply")
}

/// Five visits left open: the live tier of a federated query. Each
/// stays in cell 1 from before any warehouse row of [`small`] starts.
fn open_visits() -> Vec<StreamEvent> {
    (0..5u64)
        .flat_map(|v| {
            [
                StreamEvent::VisitOpened {
                    visit: VisitKey(v),
                    moving_object: format!("live-{v}"),
                    annotations: AnnotationSet::from_iter([Annotation::goal("visit")]),
                    at: Timestamp(-10),
                },
                StreamEvent::Presence {
                    visit: VisitKey(v),
                    interval: PresenceInterval::new(
                        TransitionTaken::Unknown,
                        cell(1),
                        Timestamp(-10 + v as i64),
                        Timestamp(-1),
                    ),
                },
            ]
        })
        .collect()
}

/// What the reply must be: the encoded rows of `execute_segmented`.
fn expected_payload(db: &SegmentedDb, query: &WireQuery) -> (Vec<SemanticTrajectory>, Vec<u8>) {
    let rows = query.to_query().execute_segmented(db);
    let mut payload = Vec::new();
    encode_response(&mut payload, &Response::Trajectories(rows.clone()));
    (rows, payload)
}

fn shaped(
    predicate: Predicate,
    order: Option<(SortKey, bool)>,
    offset: u64,
    limit: Option<u64>,
) -> WireQuery {
    WireQuery {
        predicate,
        order,
        offset,
        limit,
    }
}

const KEYS: [SortKey; 6] = [
    SortKey::Start,
    SortKey::End,
    SortKey::SpanDuration,
    SortKey::TotalDwell,
    SortKey::MovingObject,
    SortKey::TraceLength,
];

/// Pages that hydrate nothing (`True` has no postings to consult):
/// unsorted and all six keys in both directions × offsets {0, mid,
/// past the end} × limits {0, 1, a page, none}.
fn non_hydrating_matrix(rows: u64) -> Vec<WireQuery> {
    let mut orders = vec![None];
    for key in KEYS {
        orders.extend([Some((key, true)), Some((key, false))]);
    }
    let mut out = Vec::new();
    for order in orders {
        for offset in [0, rows / 2, rows + 5] {
            for limit in [Some(0), Some(1), Some(7), None] {
                out.push(shaped(Predicate::True, order, offset, limit));
            }
        }
    }
    out
}

/// The ledger's four `scan_cold` shapes, plus pages whose candidates
/// outnumber their matches (the sorted head runs dry). The narrowing
/// ones hydrate what they touch, so they run last.
fn ledger_shapes_and_superset_pages() -> Vec<WireQuery> {
    let window = TimeInterval::new(Timestamp(50), Timestamp(120));
    let long_dwell =
        Predicate::VisitedCell(cell(2)).and(Predicate::MinTotalDwell(Duration::seconds(70)));
    vec![
        shaped(Predicate::True, Some((SortKey::Start, true)), 20, Some(10)),
        shaped(
            Predicate::True,
            Some((SortKey::TotalDwell, false)),
            0,
            Some(10),
        ),
        shaped(
            Predicate::SpanOverlaps(window),
            Some((SortKey::Start, true)),
            0,
            Some(5),
        ),
        shaped(
            Predicate::VisitedCell(cell(1)),
            Some((SortKey::TotalDwell, false)),
            0,
            Some(6),
        ),
        shaped(
            long_dwell.clone(),
            Some((SortKey::TotalDwell, true)),
            1,
            Some(3),
        ),
        shaped(long_dwell, Some((SortKey::Start, false)), 0, Some(2)),
        shaped(
            Predicate::MinStayIn(cell(3), Duration::seconds(25)),
            Some((SortKey::TraceLength, true)),
            0,
            Some(4),
        ),
        shaped(
            Predicate::SequenceContains(vec![cell(1), cell(2)]),
            Some((SortKey::MovingObject, false)),
            2,
            Some(3),
        ),
    ]
}

#[test]
fn served_pages_are_the_stored_bytes_in_every_residency() {
    // Three segments (40, 12 and 3 rows); only the first visits cell 4.
    let seed = TempDir::new("bytes-seed");
    write_warehouse(
        &seed.0,
        vec![
            (0..40).map(|i| row(i, Some(4))).collect(),
            (40..52).map(|i| row(i, None)).collect(),
            (52..55).map(|i| row(i, None)).collect(),
        ],
    );
    let registry = MetricsRegistry::new();
    let reference = {
        let copy = TempDir::copy_of(&seed, "bytes-reference");
        let db = open_db(&copy.0, &registry);
        TrajectoryDb::build(
            (0..db.len() as u32)
                .map(|at| db.row(at).into_owned())
                .collect(),
        )
    };
    assert_eq!(reference.len(), 55);

    // (state, the query that brings it about, which segments it hydrates)
    let states = [
        ("cold", None, [false, false, false]),
        (
            "hydrated",
            Some(Predicate::VisitedCell(cell(1))),
            [true, true, true],
        ),
        (
            "mixed",
            Some(Predicate::VisitedCell(cell(4))),
            [true, false, false],
        ),
    ];
    for (state, hydrate, resident) in states {
        // The server and the in-process twin read copies of one
        // directory and are sent the same queries in the same order,
        // so they hydrate the same segments.
        let served_dir = TempDir::copy_of(&seed, "bytes-served");
        let local_dir = TempDir::copy_of(&seed, "bytes-local");
        let server =
            Server::start(ServerConfig::new(engine_config(), &served_dir.0)).expect("start");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let local = open_db(&local_dir.0, &registry);
        let loaded = |db: &SegmentedDb| -> Vec<bool> {
            db.segments().iter().map(|s| s.is_loaded()).collect()
        };
        let mut check = |query: &WireQuery| {
            let (rows, expected) = expected_payload(&local, query);
            assert_eq!(
                served_payload(&mut stream, query),
                expected,
                "{state}: reply bytes for {query:?}"
            );
            let eager: Vec<SemanticTrajectory> = query
                .to_query()
                .execute(&reference)
                .into_iter()
                .map(|m| m.trajectory.clone())
                .collect();
            assert_eq!(rows, eager, "{state}: rows for {query:?}");
        };
        if let Some(predicate) = hydrate {
            check(&shaped(predicate, None, 0, Some(1)));
        }
        assert_eq!(loaded(&local), resident, "{state}");
        for query in non_hydrating_matrix(55) {
            check(&query);
        }
        assert_eq!(loaded(&local), resident, "{state}: the matrix hydrated");
        for query in ledger_shapes_and_superset_pages() {
            check(&query);
        }
        drop(stream);
        server.shutdown();
        server.join().expect("join");
    }
}

#[test]
fn a_page_costs_the_rows_it_returns() {
    // 20 000 one-stay rows in two segments (16 000 + 4 000: two size
    // tiers, so they stay two).
    let seed = TempDir::new("cost-seed");
    write_warehouse(
        &seed.0,
        vec![
            (0..16_000).map(small).collect(),
            (16_000..20_000).map(small).collect(),
        ],
    );
    let deep = shaped(
        Predicate::True,
        Some((SortKey::Start, true)),
        19_000,
        Some(1_000),
    );
    let first = shaped(Predicate::True, None, 0, Some(100));
    let hydrate = shaped(Predicate::VisitedCell(cell(1)), None, 0, Some(1));

    // Served: the reply is copied out of the stored bytes.
    let served_dir = TempDir::copy_of(&seed, "cost-served");
    let server = Server::start(ServerConfig::new(engine_config(), &served_dir.0)).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    let materialized = |client: &mut Client| {
        client
            .metrics()
            .expect("metrics")
            .counter("query.rows_materialized")
            .unwrap_or(0)
    };
    // The first page after a (re)open is read cold, row by row.
    assert_eq!(client.query(&first).expect("cold page").len(), 100);
    assert_eq!(
        materialized(&mut client),
        100,
        "a cold page owns the rows read"
    );
    assert_eq!(client.query(&hydrate).expect("hydrate").len(), 1);
    let before = materialized(&mut client);
    assert_eq!(before, 100, "hydration and its one-row page own nothing");
    let page = client.query(&deep).expect("deep page");
    assert_eq!(page.len(), 1_000);
    assert_eq!(page[0].start(), Timestamp(19_000));
    assert_eq!(
        materialized(&mut client),
        before,
        "19 000 rows skipped and 1 000 returned, none of them cloned"
    );
    client.shutdown().expect("shutdown");
    server.join().expect("join");

    // In process: the owned sink clones exactly the page.
    let registry = MetricsRegistry::new();
    let local = open_db(&seed.0, &registry);
    let counter = registry.counter("query.rows_materialized");
    assert_eq!(first.to_query().execute_segmented(&local).len(), 100);
    assert_eq!(counter.get(), 100, "cold: the rows read");
    assert_eq!(hydrate.to_query().execute_segmented(&local).len(), 1);
    assert_eq!(counter.get(), 101, "one clone for the one row returned");
    assert_eq!(deep.to_query().execute_segmented(&local), page);
    assert_eq!(
        counter.get(),
        1_101,
        "exactly the page, not the 19 000 skipped"
    );
}

/// A page under `True` skips its offset by order position, so on a
/// cold warehouse it reads and decodes its own rows and no other: at
/// offset 0, mid-run and on the last page, unsorted and by start either
/// way, `query.rows_materialized` and `query.trajectories_decoded` move
/// by exactly the page length, and by 0 past the end; no segment
/// becomes resident. The same through served `Query`s, read back with
/// the `Metrics` op. (Skipping by reference, the page at offset `k`
/// would read `k` rows more.)
#[test]
fn a_cold_page_under_true_reads_only_its_rows() {
    // 2 100 rows in three segments (1 600 + 400 + 100: three size tiers).
    let seed = TempDir::new("cold-true-seed");
    write_warehouse(
        &seed.0,
        vec![
            (0..1_600).map(small).collect(),
            (1_600..2_000).map(small).collect(),
            (2_000..2_100).map(small).collect(),
        ],
    );
    // (offset, rows on the page): first, mid-run, the last full page,
    // a short last page, past the end.
    let pages = [
        (0, 100),
        (1_050, 100),
        (1_900, 100),
        (2_030, 70),
        (2_105, 0),
    ];
    let orders = [
        None,
        Some((SortKey::Start, true)),
        Some((SortKey::Start, false)),
    ];
    let names = ["query.rows_materialized", "query.trajectories_decoded"];

    // In process: a fresh open (cold segments, an empty row cache) per
    // order, so no page finds another's rows cached.
    for order in orders {
        let registry = MetricsRegistry::new();
        let db = open_db(&seed.0, &registry);
        let read = || names.map(|name| registry.counter(name).get());
        for (offset, len) in pages {
            let query = shaped(Predicate::True, order, offset, Some(100));
            let before = read();
            assert_eq!(query.to_query().execute_segmented(&db).len(), len);
            let after = read();
            assert_eq!(
                [after[0] - before[0], after[1] - before[1]],
                [len as u64; 2],
                "{order:?} offset {offset}: rows materialized and decoded"
            );
        }
        assert!(
            db.segments().iter().all(|segment| !segment.is_loaded()),
            "{order:?}: a page under True hydrated a segment"
        );
    }

    // Served: one server per order, each over its own copy.
    for order in orders {
        let served_dir = TempDir::copy_of(&seed, "cold-true-served");
        let server =
            Server::start(ServerConfig::new(engine_config(), &served_dir.0)).expect("start");
        let mut client = Client::connect(server.addr()).expect("connect");
        let read = |client: &mut Client| {
            let snapshot = client.metrics().expect("metrics");
            names.map(|name| snapshot.counter(name).unwrap_or(0))
        };
        for (offset, len) in pages {
            let query = shaped(Predicate::True, order, offset, Some(100));
            let before = read(&mut client);
            assert_eq!(client.query(&query).expect("page").len(), len);
            let after = read(&mut client);
            assert_eq!(
                [after[0] - before[0], after[1] - before[1]],
                [len as u64; 2],
                "served {order:?} offset {offset}: rows materialized and decoded"
            );
        }
        client.shutdown().expect("shutdown");
        server.join().expect("join");
    }
}

/// The federated twin of the test above, over hydrated segments beside
/// a live snapshot: `execute_federated` clones the rows of the page —
/// not every match, as it did when it sorted clones — and the served
/// `QueryFederated` clones none: warehouse rows leave as their stored
/// bytes, live rows are encoded from the borrow.
#[test]
fn a_federated_page_clones_only_the_page() {
    // 2 000 rows in two segments (1 600 + 400: two size tiers).
    let seed = TempDir::new("federated-seed");
    write_warehouse(
        &seed.0,
        vec![
            (0..1_600).map(small).collect(),
            (1_600..2_000).map(small).collect(),
        ],
    );
    let hydrate = shaped(Predicate::VisitedCell(cell(1)), None, 0, Some(1));
    // The live rows start first, so the deep page is all warehouse
    // rows and the first page is the five live rows and five more.
    let by_start = |offset, limit| {
        shaped(
            Predicate::True,
            Some((SortKey::Start, true)),
            offset,
            Some(limit),
        )
    };
    let (deep, first) = (by_start(1_905, 100), by_start(0, 10));

    let served_dir = TempDir::copy_of(&seed, "federated-served");
    let server = Server::start(ServerConfig::new(engine_config(), &served_dir.0)).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.ingest_batch(open_visits()).expect("ingest");
    // (Warehouse-only: a federated page of one row is full after the
    // first live row and never consults the warehouse.)
    assert_eq!(client.query(&hydrate).expect("hydrate").len(), 1);
    let served_deep = client.query_federated(&deep).expect("deep page");
    let served_first = client.query_federated(&first).expect("first page");
    assert_eq!(served_deep.len(), 100);
    assert_eq!(served_deep[0].start(), Timestamp(1_900));
    assert_eq!(served_first[4].moving_object, "live-4");
    assert_eq!(
        client
            .metrics()
            .expect("metrics")
            .counter("query.rows_materialized")
            .unwrap_or(0),
        0,
        "no row of a served federated page is cloned"
    );
    client.shutdown().expect("shutdown");
    server.join().expect("join");

    // In process: the owned sink clones exactly the page.
    let registry = MetricsRegistry::new();
    let local = open_db(&seed.0, &registry);
    let mut engine = ParallelEngine::new(engine_config().with_warehouse()).expect("engine");
    engine.ingest_all(open_visits());
    let snapshot = engine.live_snapshot();
    let sources: [&dyn TrajectorySource; 2] = [&*snapshot, &local];
    let counter = registry.counter("query.rows_materialized");
    assert_eq!(hydrate.to_query().execute_segmented(&local).len(), 1);
    assert_eq!(counter.get(), 1, "one clone for the one row returned");
    assert_eq!(deep.to_query().execute_federated(&sources), served_deep);
    assert_eq!(
        counter.get(),
        101,
        "exactly the page, not the 2 005 matches"
    );
    assert_eq!(first.to_query().execute_federated(&sources), served_first);
    assert_eq!(
        counter.get(),
        106,
        "the instrument is the warehouse's: the page's five live rows are not its clones"
    );
}

/// An empty page is decided before anything is consulted: on a
/// reopened (cold) warehouse, `limit 0` with a predicate that would
/// hydrate the segment it survives in opens, decodes and reads nothing
/// — through both served ops.
#[test]
fn a_limit_zero_page_is_free_through_both_served_ops() {
    let seed = TempDir::new("empty-page-seed");
    write_warehouse(&seed.0, vec![(0..40).map(|i| row(i, None)).collect()]);
    let server = Server::start(ServerConfig::new(engine_config(), &seed.0)).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    let touched = |client: &mut Client| {
        let snapshot = client.metrics().expect("metrics");
        [
            "store.lazy_opens",
            "query.trajectories_decoded",
            "query.segment_bytes_read",
            "query.segments_scanned",
        ]
        .map(|name| snapshot.counter(name).unwrap_or(0))
    };
    let point = |limit| shaped(Predicate::MovingObject("mo-3".into()), None, 0, Some(limit));
    let before = touched(&mut client);
    assert!(client.query(&point(0)).expect("query").is_empty());
    assert!(client
        .query_federated(&point(0))
        .expect("federated")
        .is_empty());
    assert_eq!(touched(&mut client), before, "an empty page costs nothing");
    assert_eq!(client.query(&point(1)).expect("query").len(), 1);
    assert!(
        touched(&mut client).iter().all(|&n| n > 0),
        "the same page with room for a row hydrates its segment"
    );
    client.shutdown().expect("shutdown");
    server.join().expect("join");
}
