//! Wire-protocol torture: a request and a response frame truncated and
//! corrupted at **every byte offset**, asserting the peer errors
//! cleanly — no panic, no deadlock, and (server side) no casualty
//! beyond the one session. The every-offset idiom is the same one
//! `crates/store/tests/warehouse.rs` drives through the manifest and
//! segment files; here the "file" is the socket.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration as StdDuration;

use sitm_core::{Annotation, AnnotationSet, IntervalPredicate, Timestamp};
use sitm_graph::{LayerIdx, NodeId};
use sitm_query::wire::WireQuery;
use sitm_query::{Predicate, SegmentedDb, SortKey, TrajectorySource};
use sitm_serve::{
    decode_response, encode_request, encode_response, read_frame, write_frame, Client, Request,
    Response, Server, ServerConfig,
};
use sitm_space::CellRef;
use sitm_store::warehouse::WarehouseConfig;
use sitm_stream::{EngineConfig, Flusher, ParallelEngine, StreamEvent, VisitKey};

static NEXT: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("sitm-torture-{tag}-{}-{n}", std::process::id()));
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

fn engine_config() -> EngineConfig {
    EngineConfig::new(vec![(
        IntervalPredicate::in_cells([cell(1)]),
        AnnotationSet::from_iter([Annotation::goal("one")]),
    )])
    .with_shards(1)
}

/// A small but representative request frame (an ingest batch).
fn request_frame() -> Vec<u8> {
    let request = Request::IngestBatch(vec![
        StreamEvent::VisitOpened {
            visit: VisitKey(1),
            moving_object: "mo-1".into(),
            annotations: AnnotationSet::from_iter([Annotation::goal("visit")]),
            at: Timestamp(0),
        },
        StreamEvent::VisitClosed {
            visit: VisitKey(1),
            at: Timestamp(10),
        },
    ]);
    let mut payload = Vec::new();
    encode_request(&mut payload, &request);
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload).expect("frame");
    frame
}

/// A representative response frame (a stats reply).
fn response_frame() -> Vec<u8> {
    let mut payload = Vec::new();
    encode_response(
        &mut payload,
        &Response::Stats {
            stats: Default::default(),
            rollup: Default::default(),
        },
    );
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload).expect("frame");
    frame
}

/// Sends `bytes` raw, shuts down the write half, and drains whatever
/// the server answers until it closes the connection. Returns the
/// decoded responses (a truncated request should produce at most one
/// `Error`, possibly none when the tear looks like a clean close).
fn send_raw(addr: std::net::SocketAddr, bytes: &[u8]) -> Vec<Response> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(StdDuration::from_secs(10)))
        .expect("timeout");
    // The send and the half-close may race the server tearing the
    // session down (it answers and closes as soon as it sees a bad
    // frame) — a reset here is part of the scenario, not a test bug.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut responses = Vec::new();
    while let Ok(frame) = read_frame(&mut stream) {
        responses.push(decode_response(&mut frame.as_slice()).expect("well-framed response"));
    }
    responses
}

/// Truncate a request frame at every byte offset against a **live**
/// server: every tear is a per-session error (an `Error` response or a
/// silent close), the listener survives all of them, and a healthy
/// client still gets full service afterwards.
#[test]
fn torn_request_at_every_offset_never_kills_the_server() {
    let tmp = TempDir::new("torn-request");
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0).with_sessions(2))
        .expect("start server");
    let frame = request_frame();

    for cut in 0..frame.len() {
        let responses = send_raw(server.addr(), &frame[..cut]);
        for response in &responses {
            assert!(
                matches!(response, Response::Error(_)),
                "cut {cut}: torn frame must only ever produce an error, got {response:?}"
            );
        }
    }
    // Corrupt (bit-flip) every byte of the frame too: the CRC (or the
    // payload validation behind it) must reject each one cleanly.
    for i in 0..frame.len() {
        let mut corrupt = frame.clone();
        corrupt[i] ^= 0x01;
        let responses = send_raw(server.addr(), &corrupt);
        for response in &responses {
            assert!(
                matches!(response, Response::Error(_)),
                "flip {i}: corrupt frame must only ever produce an error, got {response:?}"
            );
        }
    }

    // The server took frame.len() tears + frame.len() corruptions and
    // must still serve a healthy session end-to-end.
    let mut client = Client::connect(server.addr()).expect("connect after torture");
    let stats = client.server_stats().expect("stats after torture");
    assert_eq!(
        stats.visits_opened, 0,
        "no torn ingest may have half-applied"
    );
    // Failure containment is *countable*: exactly one frame error per
    // torn connection. Cut 0 is a clean close (no frame on the wire, no
    // error); cuts 1..len are one tear each; every single-bit flip of a
    // full frame is one CRC/marker/length rejection (CRC-32 catches all
    // single-bit errors, and the session ends on its first bad frame,
    // so a tear can never double-count).
    let snapshot = client.metrics().expect("metrics after torture");
    assert_eq!(
        snapshot.counter("serve.frame_errors"),
        Some((2 * frame.len() - 1) as u64),
        "exactly one serve.frame_errors count per torn/corrupt connection"
    );
    assert_eq!(
        snapshot.counter("serve.bad_requests").unwrap_or(0),
        0,
        "framing (not request decoding) must absorb every tear"
    );
    client
        .ingest_batch(vec![
            StreamEvent::VisitOpened {
                visit: VisitKey(9),
                moving_object: "mo-9".into(),
                annotations: AnnotationSet::from_iter([Annotation::goal("visit")]),
                at: Timestamp(0),
            },
            StreamEvent::Presence {
                visit: VisitKey(9),
                interval: sitm_core::PresenceInterval::new(
                    sitm_core::TransitionTaken::Unknown,
                    cell(1),
                    Timestamp(0),
                    Timestamp(4),
                ),
            },
            StreamEvent::VisitClosed {
                visit: VisitKey(9),
                at: Timestamp(5),
            },
        ])
        .expect("ingest after torture");
    let (spilled, total, _) = client.checkpoint().expect("checkpoint after torture");
    assert_eq!((spilled, total), (1, 1));
    client.shutdown().expect("shutdown");
    server.join().expect("join");
}

/// The client-side mirror: a response frame truncated or corrupted at
/// every byte offset decodes to a clean error — never a panic, never a
/// partial value.
#[test]
fn torn_response_at_every_offset_errors_cleanly() {
    let frame = response_frame();
    for cut in 0..frame.len() {
        let mut cursor = &frame[..cut];
        assert!(read_frame(&mut cursor).is_err(), "cut {cut}");
    }
    for i in 0..frame.len() {
        let mut corrupt = frame.clone();
        corrupt[i] ^= 0x01;
        let mut cursor: &[u8] = &corrupt;
        match read_frame(&mut cursor) {
            Err(_) => {}
            Ok(payload) => panic!("flip {i} slipped through framing: {payload:?}"),
        }
    }
    // And a framed-but-corrupt payload fails in the codec, not the
    // framing: flip payload bytes and re-frame with a fresh CRC.
    let mut payload = Vec::new();
    encode_response(
        &mut payload,
        &Response::Stats {
            stats: Default::default(),
            rollup: Default::default(),
        },
    );
    for i in 0..payload.len() {
        let mut corrupt = payload.clone();
        corrupt[i] ^= 0xFF;
        let mut reframed = Vec::new();
        write_frame(&mut reframed, &corrupt).expect("frame");
        let mut cursor: &[u8] = &reframed;
        let recovered = read_frame(&mut cursor).expect("framing is intact");
        // Decoding either errors or yields *some* stats value — it must
        // never panic. (A flipped varint can still be a valid varint.)
        let _ = decode_response(&mut recovered.as_slice());
    }
}

/// The push ops under the same torture: a Subscribe request frame
/// torn/corrupted at every offset never kills the server and never
/// half-registers a subscription, and a Notification response frame
/// torn/corrupted at every offset errors cleanly client-side.
#[test]
fn torn_subscribe_and_notification_frames_error_cleanly() {
    use sitm_core::PresenceInterval;
    use sitm_serve::Subscriber;
    use sitm_stream::EmittedEpisode;

    let tmp = TempDir::new("torn-subscribe");
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0).with_sessions(2))
        .expect("start server");

    let mut payload = Vec::new();
    encode_request(
        &mut payload,
        &Request::Subscribe(WireQuery::filtered(Predicate::MovingObject("mo-1".into()))),
    );
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload).expect("frame");
    for cut in 0..frame.len() {
        let responses = send_raw(server.addr(), &frame[..cut]);
        for response in &responses {
            assert!(
                matches!(response, Response::Error(_)),
                "cut {cut}: torn subscribe must only produce an error, got {response:?}"
            );
        }
    }
    for i in 0..frame.len() {
        let mut corrupt = frame.clone();
        corrupt[i] ^= 0x01;
        let responses = send_raw(server.addr(), &corrupt);
        for response in &responses {
            assert!(
                matches!(response, Response::Error(_)),
                "flip {i}: corrupt subscribe must only produce an error, got {response:?}"
            );
        }
    }

    // No tear half-registered anything, and the push path still works.
    let mut client = Client::connect(server.addr()).expect("connect");
    let snapshot = client.metrics().expect("metrics");
    assert_eq!(snapshot.gauge("serve.subscriptions_active").unwrap_or(0), 0);
    let sub = Subscriber::subscribe(server.addr(), &WireQuery::filtered(Predicate::True))
        .expect("subscribe after torture");
    client
        .ingest_batch(vec![
            StreamEvent::VisitOpened {
                visit: VisitKey(1),
                moving_object: "mo-1".into(),
                annotations: AnnotationSet::from_iter([Annotation::goal("visit")]),
                at: Timestamp(0),
            },
            StreamEvent::Presence {
                visit: VisitKey(1),
                interval: PresenceInterval::new(
                    sitm_core::TransitionTaken::Unknown,
                    cell(1),
                    Timestamp(0),
                    Timestamp(4),
                ),
            },
            StreamEvent::VisitClosed {
                visit: VisitKey(1),
                at: Timestamp(5),
            },
        ])
        .expect("ingest after torture");
    let drained: Vec<EmittedEpisode> = sub
        .unsubscribe()
        .expect("unsubscribe")
        .into_iter()
        .flat_map(|(_, eps)| eps)
        .collect();
    assert!(!drained.is_empty(), "the push path survived the torture");

    // Client side: a Notification frame torn at every offset fails in
    // the framing; corrupt payload bytes fail in the codec — never a
    // panic, never a partial value.
    let mut payload = Vec::new();
    encode_response(
        &mut payload,
        &Response::Notification {
            epoch: 3,
            episodes: drained,
        },
    );
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload).expect("frame");
    for cut in 0..frame.len() {
        let mut cursor = &frame[..cut];
        assert!(read_frame(&mut cursor).is_err(), "cut {cut}");
    }
    for i in 0..payload.len() {
        let mut corrupt = payload.clone();
        corrupt[i] ^= 0xFF;
        let mut reframed = Vec::new();
        write_frame(&mut reframed, &corrupt).expect("frame");
        let mut cursor: &[u8] = &reframed;
        let recovered = read_frame(&mut cursor).expect("framing is intact");
        let _ = decode_response(&mut recovered.as_slice());
    }

    client.shutdown().expect("shutdown");
    server.join().expect("join");
}

/// The traced envelope under the same torture: a traced request frame
/// (marker `0x5B`, 16-byte context prefix in the checksummed body)
/// torn and bit-flipped at every offset against a live server is a
/// per-session error every time — including the one-bit flips that
/// turn the traced marker into the plain one, which the marker-covering
/// checksum must catch.
#[test]
fn torn_traced_frame_at_every_offset_never_kills_the_server() {
    use sitm_obs::trace::TraceContext;
    use sitm_serve::write_traced_frame;

    let tmp = TempDir::new("torn-traced");
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0).with_sessions(2))
        .expect("start server");

    let ctx = TraceContext {
        trace_id: 0xABAD_1DEA_0C0F_FEE5,
        parent_span_id: 3,
    };
    let mut payload = Vec::new();
    encode_request(
        &mut payload,
        &Request::Query(WireQuery::filtered(Predicate::True)),
    );
    let mut frame = Vec::new();
    write_traced_frame(&mut frame, ctx, &payload).expect("traced frame");

    for cut in 0..frame.len() {
        let responses = send_raw(server.addr(), &frame[..cut]);
        for response in &responses {
            assert!(
                matches!(response, Response::Error(_)),
                "cut {cut}: torn traced frame must only produce an error, got {response:?}"
            );
        }
    }
    for i in 0..frame.len() {
        let mut corrupt = frame.clone();
        corrupt[i] ^= 0x01;
        let responses = send_raw(server.addr(), &corrupt);
        for response in &responses {
            assert!(
                matches!(response, Response::Error(_)),
                "flip {i}: corrupt traced frame must only produce an error, got {response:?}"
            );
        }
    }

    // The intact frame still works, and the server adopted the carried
    // context (the recorder indexed the tree under our trace id).
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write_traced_frame(&mut stream, ctx, &payload).expect("send");
    let frame = read_frame(&mut stream).expect("response");
    assert!(matches!(
        decode_response(&mut frame.as_slice()).expect("decodes"),
        Response::Trajectories(_)
    ));
    drop(stream);
    // The response is written from inside the root span, so the client
    // can observe it a beat before the session loop finishes the span
    // and cuts the tree into the ring — poll instead of racing it.
    let deadline = std::time::Instant::now() + StdDuration::from_secs(10);
    loop {
        let trees = server.recorder().recent(usize::MAX);
        if trees.iter().any(|t| t.trace_id == ctx.trace_id) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no torture frame reached the recorder, the intact one did"
        );
        std::thread::sleep(StdDuration::from_millis(10));
    }
    server.shutdown();
    server.join().expect("join");
}

/// One open visit of `object` with `stays` presence intervals in
/// cell 1: `1 + stays` events, visible to federated queries at once.
fn open_visit(visit: u64, object: &str, stays: usize) -> Vec<StreamEvent> {
    let mut events = vec![StreamEvent::VisitOpened {
        visit: VisitKey(visit),
        moving_object: object.into(),
        annotations: AnnotationSet::from_iter([Annotation::goal("visit")]),
        at: Timestamp(0),
    }];
    events.extend((0..stays as i64).map(|i| StreamEvent::Presence {
        visit: VisitKey(visit),
        interval: sitm_core::PresenceInterval::new(
            sitm_core::TransitionTaken::Unknown,
            cell(1),
            Timestamp(10 * i),
            Timestamp(10 * i + 5),
        ),
    }));
    events
}

fn plain_frame(request: &Request) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_request(&mut payload, request);
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload).expect("frame");
    frame
}

/// A client MAY send several frames before reading: 64 mixed requests
/// leave in one `write_all`, and 64 replies come back in request
/// order, each the answer its position in the sequence calls for — a
/// point query ahead of the ingest that creates its visitor finds
/// nobody, the same query behind it finds them, and every `Stats`
/// counts exactly the batches ahead of it.
#[test]
fn pipelined_requests_are_answered_in_request_order() {
    use sitm_obs::trace::TraceContext;
    use sitm_serve::write_traced_frame;

    let tmp = TempDir::new("pipelined");
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0)).expect("start server");

    let point = |batch: usize| {
        Request::QueryFederated(WireQuery {
            predicate: Predicate::MovingObject(format!("mo-{batch}")),
            order: None,
            offset: 0,
            limit: Some(3),
        })
    };
    let mut pipeline = Vec::new();
    for batch in 0..16 {
        // 128 visits x (opened + 3 stays) = one 512-event ingest.
        let ingest = Request::IngestBatch(
            (0..128)
                .flat_map(|v| open_visit((batch * 128 + v) as u64, &format!("mo-{batch}"), 3))
                .collect(),
        );
        pipeline.extend(plain_frame(&point(batch)));
        pipeline.extend(plain_frame(&ingest));
        if batch == 7 {
            // One of the 64 rides the traced envelope.
            let mut payload = Vec::new();
            encode_request(&mut payload, &point(batch));
            let ctx = TraceContext {
                trace_id: 77,
                parent_span_id: 1,
            };
            write_traced_frame(&mut pipeline, ctx, &payload).expect("traced frame");
        } else {
            pipeline.extend(plain_frame(&point(batch)));
        }
        pipeline.extend(plain_frame(&Request::Stats));
    }

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(StdDuration::from_secs(30)))
        .expect("timeout");
    stream
        .write_all(&pipeline)
        .expect("one write for 64 requests");
    for batch in 0..16u64 {
        let mut next = || {
            let frame = read_frame(&mut stream).expect("a reply per request");
            decode_response(&mut frame.as_slice()).expect("well-framed reply")
        };
        match next() {
            Response::Trajectories(rows) => assert!(rows.is_empty(), "batch {batch}: too early"),
            other => panic!("batch {batch}: expected no rows yet, got {other:?}"),
        }
        assert_eq!(next(), Response::Ingested { events: 512 }, "batch {batch}");
        match next() {
            Response::Trajectories(rows) => {
                assert_eq!(rows.len(), 3, "batch {batch}");
                assert!(rows
                    .iter()
                    .all(|row| row.moving_object == format!("mo-{batch}")));
            }
            other => panic!("batch {batch}: expected the visitor's rows, got {other:?}"),
        }
        match next() {
            Response::Stats { stats, .. } => {
                assert_eq!(stats.events, 512 * (batch + 1), "batch {batch}");
            }
            other => panic!("batch {batch}: expected stats, got {other:?}"),
        }
    }
    drop(stream);
    server.shutdown();
    server.join().expect("join");
}

/// Two frames in one write where the *second* is torn or bit-flipped at
/// every byte offset: the first is answered as if it had come alone,
/// the tear costs exactly one `serve.frame_errors` and that one
/// session — a session opened before the torture serves on, on the
/// connection it already had.
#[test]
fn a_torn_second_frame_costs_its_session_after_the_first_is_answered() {
    let tmp = TempDir::new("torn-second");
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0).with_sessions(2))
        .expect("start server");
    let mut bystander = Client::connect(server.addr()).expect("second session");
    bystander.server_stats().expect("bystander before");

    let first = plain_frame(&Request::Stats);
    let second = request_frame();
    let torn = (0..second.len()).map(|cut| second[..cut].to_vec());
    let flipped = (0..second.len()).map(|i| {
        let mut corrupt = second.clone();
        corrupt[i] ^= 0x01;
        corrupt
    });
    for (case, damaged) in torn.chain(flipped).enumerate() {
        let mut bytes = first.clone();
        bytes.extend(damaged);
        let responses = send_raw(server.addr(), &bytes);
        assert!(
            matches!(responses.first(), Some(Response::Stats { .. })),
            "case {case}: the intact first frame is answered, got {responses:?}"
        );
        assert!(
            responses.len() <= 2
                && responses[1..]
                    .iter()
                    .all(|r| matches!(r, Response::Error(_))),
            "case {case}: the damaged frame yields at most one error, got {responses:?}"
        );
    }

    let stats = bystander.server_stats().expect("bystander after");
    assert_eq!(stats.visits_opened, 0, "no damaged ingest half-applied");
    assert_eq!(
        bystander.stats().reconnects,
        0,
        "the bystander's session was never touched"
    );
    let snapshot = bystander.metrics().expect("metrics");
    // Cut 0 leaves only the intact frame: no error. Every other cut
    // and every flip is one tear.
    assert_eq!(
        snapshot.counter("serve.frame_errors"),
        Some((2 * second.len() - 1) as u64),
        "exactly one serve.frame_errors per damaged connection"
    );
    assert_eq!(snapshot.counter("serve.bad_requests").unwrap_or(0), 0);
    bystander.shutdown().expect("shutdown");
    server.join().expect("join");
}

/// The idle rule with a buffered reader: a request trickled one byte
/// at a time, with pauses longer than the session's idle poll between
/// bytes, still parses — a timeout is "idle" only before the first
/// byte of a frame; inside one it only spends patience.
#[test]
fn a_request_trickled_slower_than_the_idle_poll_still_parses() {
    let tmp = TempDir::new("trickle");
    let mut config = ServerConfig::new(engine_config(), &tmp.0);
    config.idle_poll = StdDuration::from_millis(2);
    let server = Server::start(config).expect("start server");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // Idle for several polls first, then the frame, byte by byte.
    std::thread::sleep(StdDuration::from_millis(10));
    for byte in plain_frame(&Request::Stats) {
        stream.write_all(&[byte]).expect("one byte");
        std::thread::sleep(StdDuration::from_millis(6));
    }
    let frame = read_frame(&mut stream).expect("response");
    assert!(matches!(
        decode_response(&mut frame.as_slice()).expect("decodes"),
        Response::Stats { .. }
    ));
    drop(stream);

    let mut client = Client::connect(server.addr()).expect("connect");
    let snapshot = client.metrics().expect("metrics");
    assert_eq!(snapshot.counter("serve.frame_errors").unwrap_or(0), 0);
    client.shutdown().expect("shutdown");
    server.join().expect("join");
}

/// Replies at both ends of the size range the buffers care about: one
/// larger than the read buffer and than the retained-buffer bound
/// round-trips intact (and the next, small one does too — the buffers
/// were released, not corrupted), and one over the frame bound is
/// still downgraded to the in-band "page it" error on a session that
/// lives on — as it does past a request the client refuses to send.
#[test]
fn large_replies_round_trip_and_over_bound_replies_downgrade_in_band() {
    let tmp = TempDir::new("large-replies");
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0)).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");

    // 30 open visits whose names are 600 KB each: 18 MB of rows, past
    // the 16 MiB frame bound, ingested in frames that fit it.
    let name = |v: u64| format!("{v:02}-{}", "x".repeat(600_000));
    for batch in 0..3u64 {
        let events = (batch * 10..batch * 10 + 10)
            .flat_map(|v| open_visit(v, &name(v), 1))
            .collect();
        client.ingest_batch(events).expect("ingest");
    }

    let page = |limit| WireQuery {
        predicate: Predicate::True,
        order: Some((sitm_query::SortKey::MovingObject, true)),
        offset: 0,
        limit,
    };
    let rows = client.query_federated(&page(Some(2))).expect("1.2 MB page");
    let names: Vec<&str> = rows.iter().map(|r| r.moving_object.as_str()).collect();
    assert_eq!(names, [name(0), name(1)]);

    match client.query_federated(&page(None)) {
        Err(sitm_serve::ServeError::Remote(message)) => {
            assert!(message.contains("limit/offset page"), "{message}")
        }
        other => panic!("expected the in-band paging error, got {other:?}"),
    }
    let rows = client.query_federated(&page(Some(1))).expect("small page");
    assert_eq!(rows.len(), 1);

    // The mirror case: a request over the bound is refused before a
    // byte of it is written, and the connection is as good as before.
    let too_big = (100..130)
        .flat_map(|v| open_visit(v, &name(v), 1))
        .collect();
    assert!(matches!(
        client.ingest_batch(too_big),
        Err(sitm_serve::ServeError::Protocol(_))
    ));
    assert_eq!(client.stats().oversized_refused, 1);
    assert_eq!(client.server_stats().expect("stats").visits_opened, 30);
    assert_eq!(client.stats().reconnects, 0, "one session throughout");
    let snapshot = client.metrics().expect("metrics");
    assert_eq!(snapshot.counter("serve.errors"), Some(1));
    assert_eq!(snapshot.counter("serve.frame_errors").unwrap_or(0), 0);

    client.shutdown().expect("shutdown");
    server.join().expect("join");
}

/// The warehouse twin of the test above: a `Query` reply is assembled
/// from stored row bytes rather than encoded from rows, and the frame
/// bound holds on that path too — in band, on a session that lives on.
#[test]
fn an_over_bound_page_of_stored_rows_downgrades_in_band() {
    let tmp = TempDir::new("large-stored-rows");
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0)).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");

    // 30 closed visits of 600 KB each — one stay reached through a
    // transition with a very long name, which no segment header
    // repeats — spilled into one 18 MB segment.
    for batch in 0..3u64 {
        let events = (batch * 10..batch * 10 + 10)
            .flat_map(|v| {
                [
                    StreamEvent::VisitOpened {
                        visit: VisitKey(v),
                        moving_object: format!("mo-{v:02}"),
                        annotations: AnnotationSet::from_iter([Annotation::goal("visit")]),
                        at: Timestamp(0),
                    },
                    StreamEvent::Presence {
                        visit: VisitKey(v),
                        interval: sitm_core::PresenceInterval::new(
                            sitm_core::TransitionTaken::Named("x".repeat(600_000)),
                            cell(1),
                            Timestamp(0),
                            Timestamp(5),
                        ),
                    },
                    StreamEvent::VisitClosed {
                        visit: VisitKey(v),
                        at: Timestamp(10),
                    },
                ]
            })
            .collect();
        client.ingest_batch(events).expect("ingest");
    }
    let (spilled, in_warehouse, _) = client.checkpoint().expect("checkpoint");
    assert_eq!((spilled, in_warehouse), (30, 30));

    let page = |predicate, limit| WireQuery {
        predicate,
        order: Some((sitm_query::SortKey::MovingObject, true)),
        offset: 0,
        limit,
    };
    // A narrowing predicate consults the postings: the segment is
    // resident from here on, and its rows are served as stored.
    let rows = client
        .query(&page(Predicate::VisitedCell(cell(1)), Some(2)))
        .expect("1.2 MB page");
    let names: Vec<&str> = rows.iter().map(|r| r.moving_object.as_str()).collect();
    assert_eq!(names, ["mo-00", "mo-01"]);

    match client.query(&page(Predicate::True, None)) {
        Err(sitm_serve::ServeError::Remote(message)) => {
            assert!(message.contains("limit/offset page"), "{message}")
        }
        other => panic!("expected the in-band paging error, got {other:?}"),
    }
    let rows = client
        .query(&page(Predicate::True, Some(1)))
        .expect("small page");
    assert_eq!(rows.len(), 1);
    assert_eq!(client.stats().reconnects, 0, "one session throughout");
    let snapshot = client.metrics().expect("metrics");
    assert_eq!(snapshot.counter("serve.errors"), Some(1));
    assert_eq!(snapshot.counter("serve.frame_errors").unwrap_or(0), 0);
    assert_eq!(
        snapshot.counter("query.rows_materialized").unwrap_or(0),
        0,
        "every page, the refused one included, was copied, not cloned"
    );

    client.shutdown().expect("shutdown");
    server.join().expect("join");
}

/// `QueryFederated` replies through the same byte sink as `Query`: the
/// payload is byte for byte `Response::Trajectories` of
/// `Query::execute_federated`'s rows over an identically fed pipeline
/// — spilled rows copied as stored, live rows encoded from the borrow
/// — for every sort key in both directions, with tied keys (every
/// visit starts at 0 and stays in cell 1), and pages from inside the
/// union to past its end.
#[test]
fn a_federated_page_is_the_encoding_of_execute_federated_rows() {
    let tmp_server = TempDir::new("federated-bytes-server");
    let tmp_local = TempDir::new("federated-bytes-local");
    let server =
        Server::start(ServerConfig::new(engine_config(), &tmp_server.0)).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut reference = ParallelEngine::new(engine_config().with_warehouse()).expect("engine");
    let (db, _) = SegmentedDb::open(&tmp_local.0, WarehouseConfig::default()).expect("open");
    let mut flusher = Flusher::new(db);

    // Twelve visits of 1–3 stays, closed and spilled in two segments,
    // then six left open: the union has both tiers and equal keys.
    let closed = |range: std::ops::Range<u64>| -> Vec<StreamEvent> {
        range
            .flat_map(|v| {
                let mut events = open_visit(v, &format!("mo-{}", v % 4), 1 + v as usize % 3);
                events.push(StreamEvent::VisitClosed {
                    visit: VisitKey(v),
                    at: Timestamp(40),
                });
                events
            })
            .collect()
    };
    for batch in [closed(0..8), closed(8..12)] {
        client.ingest_batch(batch.clone()).expect("ingest");
        reference.ingest_all(batch);
        let (spilled, _, _) = client.checkpoint().expect("checkpoint");
        assert_eq!(spilled, flusher.poll(&mut reference).expect("spill") as u64);
    }
    let open: Vec<StreamEvent> = (12..18)
        .flat_map(|v| open_visit(v, &format!("mo-{}", v % 4), 1 + v as usize % 3))
        .collect();
    client.ingest_batch(open.clone()).expect("ingest");
    reference.ingest_all(open);
    let snapshot = reference.live_snapshot();
    let sources: [&dyn TrajectorySource; 2] = [&*snapshot, flusher.db()];

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut orders = vec![None];
    for key in [
        SortKey::Start,
        SortKey::End,
        SortKey::SpanDuration,
        SortKey::TotalDwell,
        SortKey::MovingObject,
        SortKey::TraceLength,
    ] {
        orders.extend([Some((key, true)), Some((key, false))]);
    }
    let mut checked = 0;
    for predicate in [Predicate::True, Predicate::MovingObject("mo-1".into())] {
        for order in &orders {
            for (offset, limit) in [
                (0, None),
                (0, Some(0)),
                (3, Some(7)),
                (16, Some(5)),
                (30, None),
            ] {
                let query = WireQuery {
                    predicate: predicate.clone(),
                    order: *order,
                    offset,
                    limit,
                };
                stream
                    .write_all(&plain_frame(&Request::QueryFederated(query.clone())))
                    .expect("send");
                let rows = query.to_query().execute_federated(&sources);
                let mut expected = Vec::new();
                encode_response(&mut expected, &Response::Trajectories(rows));
                assert_eq!(
                    read_frame(&mut stream).expect("reply"),
                    expected,
                    "reply bytes for {query:?}"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 130);
    drop(stream);
    client.shutdown().expect("shutdown");
    server.join().expect("join");
}

/// End-of-exchange sanity for the full loop: a live server answers a
/// well-formed raw frame with a well-formed response frame.
#[test]
fn raw_roundtrip_against_a_live_server() {
    let tmp = TempDir::new("raw");
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0)).expect("start");
    let mut payload = Vec::new();
    encode_request(
        &mut payload,
        &Request::Query(WireQuery::filtered(Predicate::VisitedCell(cell(1)))),
    );
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut stream, &payload).expect("send");
    let frame = read_frame(&mut stream).expect("response");
    match decode_response(&mut frame.as_slice()).expect("decodes") {
        Response::Trajectories(rows) => assert!(rows.is_empty()),
        other => panic!("expected trajectories, got {other:?}"),
    }
    drop(stream);
    server.shutdown();
    server.join().expect("join");
}
