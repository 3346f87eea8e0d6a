//! End-to-end server behaviour: the served pipeline must be
//! *observationally identical* to the in-process one. The differential
//! test here is the serving acceptance gate: a client ingesting and
//! querying over TCP gets byte-for-byte the trajectories that
//! `Query::execute_federated` produces over an identically fed
//! in-process engine + warehouse.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use sitm_core::{
    Annotation, AnnotationSet, Duration, IntervalPredicate, PresenceInterval, TimeInterval,
    Timestamp, TransitionTaken,
};
use sitm_graph::{LayerIdx, NodeId};
use sitm_query::wire::WireQuery;
use sitm_query::{Predicate, SegmentedDb, SortKey, TrajectorySource};
use sitm_serve::{Client, Server, ServerConfig};
use sitm_space::CellRef;
use sitm_store::warehouse::WarehouseConfig;
use sitm_stream::{EngineConfig, Flusher, ParallelEngine, StreamEvent, VisitKey};

static NEXT: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("sitm-serve-{tag}-{}-{n}", std::process::id()));
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

fn engine_config() -> EngineConfig {
    EngineConfig::new(vec![
        (IntervalPredicate::in_cells([cell(1)]), label("one")),
        (IntervalPredicate::any(), label("whole")),
    ])
    .with_shards(2)
    .with_batch_capacity(4)
}

/// `visits` closed visits (spillable history) starting at key `base`,
/// plus `open` visits left open (live tier).
fn feed(base: u64, visits: u64, open: u64) -> Vec<StreamEvent> {
    let mut events = Vec::new();
    for v in base..base + visits + open {
        let t0 = v as i64 * 10;
        events.push(StreamEvent::VisitOpened {
            visit: VisitKey(v),
            moving_object: format!("mo-{v}"),
            annotations: label("visit"),
            at: Timestamp(t0),
        });
        for (i, c) in [1usize, (v % 3) as usize, 2].iter().enumerate() {
            events.push(StreamEvent::Presence {
                visit: VisitKey(v),
                interval: PresenceInterval::new(
                    TransitionTaken::Unknown,
                    cell(*c),
                    Timestamp(t0 + i as i64 * 100),
                    Timestamp(t0 + i as i64 * 100 + 50),
                ),
            });
        }
        if v < base + visits {
            events.push(StreamEvent::VisitClosed {
                visit: VisitKey(v),
                at: Timestamp(t0 + 300),
            });
        }
    }
    events
}

fn queries() -> Vec<WireQuery> {
    vec![
        WireQuery {
            predicate: Predicate::True,
            order: Some((SortKey::MovingObject, true)),
            offset: 0,
            limit: None,
        },
        WireQuery {
            predicate: Predicate::VisitedCell(cell(1)),
            order: Some((SortKey::Start, true)),
            offset: 0,
            limit: None,
        },
        WireQuery {
            predicate: Predicate::MovingObject("mo-3".into()),
            order: None,
            offset: 0,
            limit: None,
        },
        // Sorted + paged: exercises offset/limit over the wire.
        WireQuery {
            predicate: Predicate::SpanOverlaps(TimeInterval::new(Timestamp(0), Timestamp(500))),
            order: Some((SortKey::End, false)),
            offset: 2,
            limit: Some(3),
        },
        WireQuery {
            predicate: Predicate::MinTotalDwell(Duration::seconds(100))
                .and(Predicate::VisitedCell(cell(2))),
            order: Some((SortKey::TotalDwell, false)),
            offset: 0,
            limit: Some(10),
        },
    ]
}

/// The serving acceptance gate: ingest over TCP in batches with a
/// mid-stream checkpoint, leave some visits open (live tier), then pin
/// every served query — warehouse-only and federated — equal to the
/// in-process pipeline fed identically.
#[test]
fn served_results_equal_in_process_federation() {
    let tmp_server = TempDir::new("diff-server");
    let tmp_local = TempDir::new("diff-local");

    let server =
        Server::start(ServerConfig::new(engine_config(), &tmp_server.0)).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");

    // In-process reference: same events, same flush points.
    let mut reference = ParallelEngine::new(engine_config().with_warehouse()).expect("engine");
    let mut ref_flusher = Flusher::new(
        SegmentedDb::open(&tmp_local.0, WarehouseConfig::default())
            .expect("open")
            .0,
    );

    let first = feed(0, 6, 0);
    let second = feed(6, 4, 3); // 4 more closed + 3 left open
    for batch in [first, second] {
        let sent = client
            .ingest_batch(batch.clone())
            .expect("ingest over the wire");
        assert_eq!(sent, batch.len() as u64);
        reference.ingest_all(batch);
        // Spill both warehouses at the same point in the stream.
        let (spilled, _, _) = client.checkpoint().expect("checkpoint");
        let locally = ref_flusher.poll(&mut reference).expect("local spill");
        assert_eq!(spilled, locally as u64, "same spill at the same cut");
    }

    let stats = client.server_stats().expect("stats");
    assert_eq!(stats.visits_opened, 13);
    assert_eq!(stats.visits_closed, 10);
    assert_eq!(stats.open_visits, 3);
    assert_eq!(stats.warehouse_trajectories, 10);
    assert_eq!(stats.anomalies, 0);

    let snapshot = reference.live_snapshot();
    let local_db = ref_flusher.db();
    for q in queries() {
        let served = client.query_federated(&q).expect("federated query");
        let local = q
            .to_query()
            .execute_federated(&[&*snapshot as &dyn TrajectorySource, local_db]);
        assert_eq!(served, local, "federated diverged for {:?}", q.predicate);

        // Warehouse-only queries are served by the segment pushdown,
        // whose ordering contract is `Query::execute`'s (global
        // position tiebreak) — pin against the same pushdown locally.
        let served_wh = client.query(&q).expect("warehouse query");
        let local_wh = q.to_query().execute_segmented(local_db);
        assert_eq!(
            served_wh, local_wh,
            "warehouse diverged for {:?}",
            q.predicate
        );
    }

    // Explain surfaces the federation plans and the warehouse pruning
    // counters for a selective point predicate.
    let report = client
        .explain(&Predicate::MovingObject("mo-2".into()))
        .expect("explain");
    assert_eq!(report.plans.len(), 2, "live + warehouse sources");
    assert_eq!(report.segments as usize, local_db.segments().len());
    let local_plan = local_db.explain(&Predicate::MovingObject("mo-2".into()));
    assert_eq!(report.zone_pruned as usize, local_plan.pruned);
    assert_eq!(report.bloom_pruned as usize, local_plan.bloom_pruned);
    assert_eq!(report.object_pruned as usize, local_plan.object_pruned);
    // Cold-tier I/O counters ride the report. This server wrote every
    // segment itself, so the write-through cache served the whole query
    // suite: nothing was read back or decoded from disk, and no segment
    // was lazily (headers-only) opened.
    assert_eq!(report.segment_bytes_read, 0);
    assert_eq!(report.trajectories_decoded, 0);
    assert_eq!(report.lazy_opens, 0);

    client.shutdown().expect("graceful shutdown");
    server.join().expect("join");
}

/// A graceful shutdown flushes the finished backlog into the warehouse
/// before acknowledging, so nothing closed is ever lost — a reopened
/// warehouse serves the full history.
#[test]
fn shutdown_flushes_the_warehouse_durably() {
    let tmp = TempDir::new("shutdown");
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0)).expect("start server");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    client.ingest_batch(feed(0, 5, 0)).expect("ingest");
    // No explicit checkpoint: shutdown itself must spill the 5 closed
    // visits.
    client.shutdown().expect("shutdown");
    server.join().expect("join");

    // A new client cannot connect (listener is down).
    assert!(Client::connect(addr).is_err(), "listener must be stopped");

    let (db, report) = SegmentedDb::open(&tmp.0, WarehouseConfig::default()).expect("reopen");
    assert!(report.is_clean());
    assert_eq!(db.len(), 5, "shutdown spilled every closed visit");
}

/// Multiple sequential requests on one session, plus an oversized /
/// malformed payload answered with a per-session error while the server
/// keeps serving other clients.
#[test]
fn sessions_survive_bad_payloads_and_servers_survive_bad_sessions() {
    let tmp = TempDir::new("errors");
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0)).expect("start server");

    let mut good = Client::connect(server.addr()).expect("connect");
    good.ingest_batch(feed(0, 2, 0)).expect("ingest");

    // A well-framed but semantically garbage payload: the session gets
    // an error response and stays usable... but our Client surfaces it.
    {
        use std::io::Write as _;
        let mut raw = std::net::TcpStream::connect(server.addr()).expect("connect raw");
        let garbage = vec![0xEEu8; 16];
        sitm_serve::write_frame(&mut raw, &garbage).expect("send garbage");
        raw.flush().unwrap();
        let frame = sitm_serve::read_frame(&mut raw).expect("error response arrives");
        match sitm_serve::decode_response(&mut frame.as_slice()).expect("decodes") {
            sitm_serve::Response::Error(message) => {
                assert!(message.contains("bad request"), "{message}")
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }

    // The server is still fine: the good session keeps working.
    let stats = good.server_stats().expect("stats after bad session");
    assert_eq!(stats.visits_opened, 2);
    assert!(stats.sessions_accepted >= 2);

    good.shutdown().expect("shutdown");
    server.join().expect("join");
}

/// The client's reconnect contract after a severed session: the call
/// that hits the dead socket surfaces an error (or retries its write
/// on a fresh connection — both are legal depending on when the RST
/// lands), and the connection is re-established so a subsequent call
/// succeeds. Driven against a hand-rolled peer so the severing is
/// deterministic.
#[test]
fn client_reconnects_after_connection_loss() {
    use sitm_serve::{decode_request, encode_response, read_frame, write_frame};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let peer = std::thread::spawn(move || {
        // Session 1: accept, then hang up without answering.
        let (first, _) = listener.accept().expect("accept 1");
        drop(first);
        // Session 2: serve exactly one Stats request.
        let (mut second, _) = listener.accept().expect("accept 2");
        let frame = read_frame(&mut second).expect("request arrives");
        let request = decode_request(&mut frame.as_slice()).expect("decodes");
        assert_eq!(request, sitm_serve::Request::Stats);
        let mut buf = Vec::new();
        encode_response(
            &mut buf,
            &sitm_serve::Response::Stats {
                stats: Default::default(),
                rollup: Default::default(),
            },
        );
        write_frame(&mut second, &buf).expect("respond");
    });

    let mut client = Client::connect(addr).expect("connect");
    // The first call may fail (write buffered before the RST arrives →
    // response read fails, not retried by design); the client must
    // recover on a fresh connection within a retry or two.
    let mut served = None;
    for _ in 0..5 {
        match client.server_stats() {
            Ok(stats) => {
                served = Some(stats);
                break;
            }
            Err(_) => continue,
        }
    }
    assert_eq!(served, Some(Default::default()), "reconnect served stats");
    // The client's own transport counters must tell the same story:
    // exactly one reconnect (session 1 severed → session 2 served), no
    // oversized refusals, no decode errors, and one request per
    // server_stats attempt.
    let client_stats = client.stats();
    assert_eq!(client_stats.reconnects, 1, "exactly one reconnect");
    assert_eq!(client_stats.oversized_refused, 0);
    assert_eq!(client_stats.decode_errors, 0);
    assert!(
        client_stats.requests >= 1 && client_stats.requests <= 5,
        "one request per attempt, got {}",
        client_stats.requests
    );
    peer.join().expect("peer thread");
}

/// "How many syscalls does a request cost" is answered by the server's
/// own counters: 1 000 back-to-back point queries on one connection are
/// exactly 1 000 socket writes (one per reply), and one socket read
/// each — give or take the one read the session is blocked in at either
/// end of the window (a read counts when it starts), plus one per idle
/// poll that found nothing in between.
#[test]
fn a_request_costs_one_socket_write_and_one_socket_read() {
    let tmp = TempDir::new("syscalls");
    let registry = sitm_obs::MetricsRegistry::default();
    let config = ServerConfig::new(engine_config(), &tmp.0).with_metrics(registry.clone());
    let idle_poll = config.idle_poll;
    let server = Server::start(config).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.ingest_batch(feed(0, 4, 8)).expect("ingest");
    client.checkpoint().expect("checkpoint");

    let reads = registry.counter("serve.socket_reads");
    let writes = registry.counter("serve.socket_writes");
    let (reads_before, writes_before) = (reads.get(), writes.get());
    let started = std::time::Instant::now();
    for v in 0..1_000u64 {
        let rows = client
            .query_federated(&WireQuery::filtered(Predicate::MovingObject(format!(
                "mo-{}",
                v % 12
            ))))
            .expect("point query");
        assert_eq!(rows.len(), 1);
    }
    let idle_polls = (started.elapsed().as_nanos() / idle_poll.as_nanos()) as u64;
    assert_eq!(writes.get() - writes_before, 1_000, "one write per reply");
    let reads = reads.get() - reads_before;
    assert!(
        (999..=1_001 + idle_polls).contains(&reads),
        "one read per request (±1 in flight, +{idle_polls} idle polls), got {reads}"
    );

    client.shutdown().expect("shutdown");
    server.join().expect("join");
}

/// `serve.bytes_in` is bytes on the wire, traced or not: the 16 context
/// bytes of a traced envelope are part of the frame the server read.
#[test]
fn bytes_in_counts_traced_and_plain_frames_as_written() {
    use sitm_obs::trace::TraceContext;
    use sitm_serve::{encode_request, read_frame, write_frame, write_traced_frame, Request};
    use std::io::Write as _;

    let tmp = TempDir::new("bytes-in");
    let registry = sitm_obs::MetricsRegistry::default();
    let server =
        Server::start(ServerConfig::new(engine_config(), &tmp.0).with_metrics(registry.clone()))
            .expect("start server");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");

    let mut payload = Vec::new();
    encode_request(
        &mut payload,
        &Request::Query(WireQuery::filtered(Predicate::MovingObject("mo-1".into()))),
    );
    let mut written = 0;
    for n in 0..10u64 {
        let mut frame = Vec::new();
        write_frame(&mut frame, &payload).expect("plain frame");
        let ctx = TraceContext {
            trace_id: n + 1,
            parent_span_id: 1,
        };
        write_traced_frame(&mut frame, ctx, &payload).expect("traced frame");
        stream.write_all(&frame).expect("send both");
        written += frame.len() as u64;
        read_frame(&mut stream).expect("reply to the plain one");
        read_frame(&mut stream).expect("reply to the traced one");
    }
    assert_eq!(
        written,
        10 * (2 * (9 + payload.len() as u64) + 16),
        "the traced twin is 16 bytes longer"
    );
    assert_eq!(registry.counter("serve.bytes_in").get(), written);

    drop(stream);
    server.shutdown();
    server.join().expect("join");
}

/// `Explain` plans and does not execute: the per-query pruning
/// instruments count queries, so a served plan leaves all five where
/// they were and a served query moves them exactly once.
#[test]
fn explain_moves_no_per_query_pruning_instrument() {
    let tmp = TempDir::new("explain-metrics");
    let registry = sitm_obs::MetricsRegistry::default();
    let server =
        Server::start(ServerConfig::new(engine_config(), &tmp.0).with_metrics(registry.clone()))
            .expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    // Two spills: two segments to prune among.
    client.ingest_batch(feed(0, 3, 0)).expect("ingest");
    client.checkpoint().expect("checkpoint");
    client.ingest_batch(feed(3, 2, 1)).expect("ingest");
    client.checkpoint().expect("checkpoint");

    let instruments = || {
        let segments: u64 = [
            "query.segments_scanned",
            "query.zone_pruned",
            "query.object_pruned",
        ]
        .iter()
        .map(|name| registry.counter(name).get())
        .sum();
        (
            segments,
            registry.counter("query.bloom_pruned").get(),
            registry.histogram("query.candidates").count(),
        )
    };
    for predicate in [
        Predicate::MovingObject("mo-1".into()),
        Predicate::VisitedCell(cell(9)),
        Predicate::True,
    ] {
        let before = instruments();
        let report = client.explain(&predicate).expect("explain");
        assert_eq!(report.segments, 2);
        assert_eq!(report.plans.len(), 2, "live tier, then warehouse");
        assert_eq!(
            instruments(),
            before,
            "planning {predicate} counted a query"
        );

        client
            .query_federated(&WireQuery::filtered(predicate.clone()))
            .expect("query");
        let after = instruments();
        // Every segment lands in exactly one of scanned / zone-pruned /
        // object-pruned, once a query.
        assert_eq!(after.0 - before.0, report.segments, "for {predicate}");
        assert_eq!(after.1 - before.1, report.bloom_pruned, "for {predicate}");
        assert_eq!(after.2 - before.2, 1, "one candidates sample a query");
    }

    client.shutdown().expect("shutdown");
    server.join().expect("join");
}

/// A warehouse holding a segment file of any other format is refused
/// at start with a typed error — not parsed by guesswork, not a panic.
#[test]
fn a_segment_file_of_another_format_refuses_the_start() {
    let tmp = TempDir::new("foreign-magic");
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0)).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.ingest_batch(feed(0, 3, 0)).expect("ingest");
    client.shutdown().expect("shutdown");
    server.join().expect("join");

    let path = tmp.0.join(sitm_store::warehouse::segment_file_name(0));
    let pristine = std::fs::read(&path).expect("the spilled segment");
    assert_eq!(&pristine[..8], b"SITMSEG3");
    // Two older formats, a newer one, and the current magic one bit off.
    for magic in [b"SITMSEG1", b"SITMSEG2", b"SITMSEG4", b"SITMSEGs"] {
        let mut forged = pristine.clone();
        forged[..8].copy_from_slice(magic);
        std::fs::write(&path, &forged).expect("forge");
        match Server::start(ServerConfig::new(engine_config(), &tmp.0)) {
            Err(sitm_serve::ServeError::Warehouse(_)) => {}
            Err(other) => panic!("magic {magic:?}: expected a warehouse error, got {other}"),
            Ok(_) => panic!("magic {magic:?}: a foreign segment file was served"),
        }
    }
    std::fs::write(&path, &pristine).expect("heal");
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0)).expect("start again");
    server.shutdown();
    server.join().expect("join");
}
