//! The documented metric-name catalog cannot drift from the code:
//! every name in PROTOCOL.md's "Stable instrument names" table must be
//! emitted by a fully exercised server. (The reverse — names the code
//! emits but the table omits — is deliberately allowed: new
//! instruments land before their docs stabilize. Dropping or renaming
//! a *documented* name is the break this test catches.)

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use sitm_core::{
    Annotation, AnnotationSet, IntervalPredicate, PresenceInterval, Timestamp, TransitionTaken,
};
use sitm_graph::{LayerIdx, NodeId};
use sitm_query::wire::WireQuery;
use sitm_query::{Predicate, SortKey};
use sitm_serve::{Client, Server, ServerConfig, Subscriber};
use sitm_space::CellRef;
use sitm_stream::{EngineConfig, StreamEvent, VisitKey};

static NEXT: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("sitm-catalog-{tag}-{}-{n}", std::process::id()));
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

/// Pulls every backticked name out of the "Stable instrument names"
/// table. A name containing `{` documents a family
/// (`serve.requests.{op}`): it matches as a prefix up to the brace.
fn documented_catalog() -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../PROTOCOL.md");
    let text = std::fs::read_to_string(&path).expect("read PROTOCOL.md");
    let section = text
        .split("### Stable instrument names")
        .nth(1)
        .expect("PROTOCOL.md documents the stable instrument names")
        .split("\n## ")
        .next()
        .expect("section body");
    let mut names = Vec::new();
    for line in section.lines() {
        // Table rows only; the header/separator rows carry no backticks.
        let Some(rest) = line.strip_prefix("| `") else {
            continue;
        };
        let name = rest.split('`').next().expect("closing backtick");
        names.push(name.to_string());
    }
    assert!(
        names.len() >= 40,
        "the catalog table went missing ({} rows parsed)",
        names.len()
    );
    names
}

/// Exercises every subsystem the catalog names: ingest (engine +
/// fence), checkpoint (flush + store), warehouse + federated queries
/// (query pruning, row cache, serve read-path splits), explain,
/// metrics/health/trace ops, a subscription (push path), a torn frame
/// (frame_errors), a bad payload (bad_requests), and an oversized
/// response (errors).
fn exercised_snapshot() -> sitm_obs::MetricsSnapshot {
    let tmp = TempDir::new("exercise");
    let config = EngineConfig::new(vec![(IntervalPredicate::in_cells([cell(1)]), label("one"))])
        .with_shards(2)
        .with_batch_capacity(4)
        .with_allowed_lateness(sitm_core::Duration::seconds(1));
    let server = Server::start(ServerConfig::new(config, &tmp.0)).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");

    let subscriber = Subscriber::subscribe(server.addr(), &WireQuery::filtered(Predicate::True))
        .expect("subscribe");

    let mut events = Vec::new();
    for v in 0..12u64 {
        let t0 = v as i64 * 10;
        events.push(StreamEvent::VisitOpened {
            visit: VisitKey(v),
            moving_object: format!("mo-{v}"),
            annotations: label("visit"),
            at: Timestamp(t0),
        });
        events.push(StreamEvent::Presence {
            visit: VisitKey(v),
            interval: PresenceInterval::new(
                TransitionTaken::Unknown,
                cell(1),
                Timestamp(t0),
                Timestamp(t0 + 5),
            ),
        });
        events.push(StreamEvent::VisitClosed {
            visit: VisitKey(v),
            at: Timestamp(t0 + 6),
        });
    }
    // One hopelessly late event exercises the fence.
    events.push(StreamEvent::Presence {
        visit: VisitKey(0),
        interval: PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(1),
            Timestamp(-1_000_000),
            Timestamp(-999_999),
        ),
    });
    client.ingest_batch(events).expect("ingest");
    client.checkpoint().expect("checkpoint");
    // A second spill builds a second segment so compaction has feed.
    client
        .ingest_batch(vec![
            StreamEvent::VisitOpened {
                visit: VisitKey(100),
                moving_object: "mo-100".into(),
                annotations: label("visit"),
                at: Timestamp(5_000),
            },
            StreamEvent::VisitClosed {
                visit: VisitKey(100),
                at: Timestamp(5_010),
            },
        ])
        .expect("ingest");
    client.checkpoint().expect("checkpoint");

    // Warehouse + federated queries: selective (pruning, row cache) and
    // sorted/paged (candidates, pushdown).
    for predicate in [
        Predicate::MovingObject("mo-3".into()),
        Predicate::VisitedCell(cell(1)),
        Predicate::True,
    ] {
        let q = WireQuery {
            predicate,
            order: Some((SortKey::Start, true)),
            offset: 0,
            limit: Some(4),
        };
        client.query(&q).expect("warehouse query");
        client.query_federated(&q).expect("federated query");
    }
    client
        .explain(&Predicate::MovingObject("mo-3".into()))
        .expect("explain");
    client.server_stats().expect("stats");
    client.health().expect("health");
    client.traces(4).expect("traces");
    drop(subscriber.unsubscribe().expect("unsubscribe"));

    // A torn frame (frame_errors) and an undecodable payload
    // (bad_requests), each on a throwaway connection.
    {
        use std::io::Write as _;
        let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
        stream.write_all(&[0x5A, 1, 0]).expect("torn header");
        drop(stream);
        let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
        sitm_serve::write_frame(&mut stream, &[0xFF, 0xFF]).expect("bad payload");
        drop(stream);
    }
    // An error response: a query over an unknown op is impossible via
    // the typed client, so use a request the server answers with Error
    // — an oversized batch is refused client-side, so instead query
    // with an offset the server handles fine... simplest in-band error:
    // Unsubscribe without a subscription.
    let err = client.call(&sitm_serve::Request::Unsubscribe);
    assert!(
        err.is_ok(),
        "unsubscribe without subscription answers in-band"
    );

    // Poll until the frame errors land (those sessions race this read).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let snapshot = client.metrics().expect("metrics");
        if snapshot.counter("serve.frame_errors").unwrap_or(0) >= 1
            && snapshot.counter("serve.bad_requests").unwrap_or(0) >= 1
        {
            client.shutdown().expect("shutdown");
            server.join().expect("join");
            return snapshot;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "frame/bad-request counters never moved"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

#[test]
fn documented_names_are_a_subset_of_an_exercised_registry() {
    let snapshot = exercised_snapshot();
    let mut emitted: BTreeSet<String> = BTreeSet::new();
    emitted.extend(snapshot.counters.iter().map(|(n, _)| n.clone()));
    emitted.extend(snapshot.gauges.iter().map(|(n, _)| n.clone()));
    emitted.extend(snapshot.histograms.iter().map(|(n, _)| n.clone()));

    let documented = documented_catalog();
    // The patched-cut, backlog and syscall-count instruments are part
    // of the contract.
    for name in [
        "engine.snapshot_cuts",
        "engine.snapshot_visits_recloned",
        "engine.pending_episodes",
        "serve.backlog_trimmed",
        "serve.socket_reads",
        "serve.socket_writes",
    ] {
        assert!(
            documented.iter().any(|n| n == name),
            "{name} left the catalog"
        );
    }
    let mut missing = Vec::new();
    for name in documented {
        let found = match name.split_once('{') {
            // A family row: at least one emitted name extends the
            // prefix before the brace.
            Some((prefix, _)) => emitted.iter().any(|n| n.starts_with(prefix)),
            None => emitted.contains(&name),
        };
        if !found {
            missing.push(name);
        }
    }
    assert!(
        missing.is_empty(),
        "PROTOCOL.md documents names the code never emitted: {missing:?}\n\
         emitted: {emitted:?}"
    );
}

/// The op families are complete: one `serve.requests.{op}` counter and
/// one `serve.handle_ns.{op}` histogram per documented op name.
#[test]
fn op_families_cover_every_documented_op() {
    let ops = [
        "ingest",
        "query",
        "query_federated",
        "explain",
        "stats",
        "checkpoint",
        "shutdown",
        "metrics",
        "subscribe",
        "unsubscribe",
        "health",
        "trace",
    ];
    let snapshot = exercised_snapshot();
    for op in ops {
        assert!(
            snapshot.counter(&format!("serve.requests.{op}")).is_some(),
            "no request counter for op {op}"
        );
        assert!(
            snapshot
                .histogram(&format!("serve.handle_ns.{op}"))
                .is_some(),
            "no handle histogram for op {op}"
        );
    }
}
