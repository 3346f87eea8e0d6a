//! The served observability surface: hierarchical request traces and
//! the Health report, exercised end to end over TCP.
//!
//! The acceptance gates pinned here:
//!
//! * a served federated query yields one trace tree whose child spans
//!   (handle → snapshot cut / evaluate, plus the wire write) account
//!   for ≥ 90% of the root span — the timeline attributes the request,
//!   it doesn't just decorate it;
//! * the traced spans and the `serve.handle_ns.*` histograms are two
//!   views of the same clock: their totals agree within 10%;
//! * a context carried in the traced wire envelope is adopted verbatim
//!   (the federation fan-out contract);
//! * on a default-config server the detail spans arm on one plain
//!   request in `DETAIL_SAMPLE_EVERY` and on every traced one — the
//!   tracing tax's budget, pinned as a span count;
//! * Health answers from state the server already maintains — epoch,
//!   tier lag, session/subscriber load, checkpoint age — and serves a
//!   nonzero ingest rate once its first rate window closes.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use sitm_core::{
    Annotation, AnnotationSet, IntervalPredicate, PresenceInterval, Timestamp, TransitionTaken,
};
use sitm_graph::{CellRef, LayerIdx, NodeId};
use sitm_obs::trace::{TraceContext, TraceTree, DETAIL_SAMPLE_EVERY};
use sitm_query::wire::WireQuery;
use sitm_query::{Predicate, SortKey};
use sitm_serve::{Client, Request, Response, Server, ServerConfig, Subscriber};
use sitm_stream::{EngineConfig, StreamEvent, VisitKey};

static NEXT: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("sitm-trace-{tag}-{}-{n}", std::process::id()));
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
    EngineConfig::new(vec![(IntervalPredicate::in_cells([cell(1)]), label("one"))])
        .with_shards(2)
        .with_batch_capacity(4)
}

/// `visits` closed visits starting at key `base` plus `open` left open.
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

fn federated_query() -> WireQuery {
    WireQuery {
        predicate: Predicate::True,
        order: Some((SortKey::Start, true)),
        offset: 0,
        limit: Some(64),
    }
}

/// A populated server: history spilled to the warehouse, a few visits
/// live, so a federated query exercises both tiers.
fn populated_server(tmp: &TempDir) -> (Server, Client) {
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0)).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.ingest_batch(feed(0, 40, 3)).expect("ingest");
    client.checkpoint().expect("checkpoint");
    (server, client)
}

#[test]
fn served_federated_query_produces_a_covering_trace_tree() {
    let tmp = TempDir::new("coverage");
    let (server, mut client) = populated_server(&tmp);

    let rows = client.query_federated(&federated_query()).expect("query");
    assert!(!rows.is_empty(), "the query must do real work");

    // Fetch the traces over the wire — the served surface, not a
    // backdoor into the recorder.
    let trees = client.traces(64).expect("traces");
    let tree = trees
        .iter()
        .rev()
        .find(|t| t.root.name == "query_federated")
        .expect("a query_federated trace was recorded");

    // The expected hierarchy: root → handle → {snapshot_cut, evaluate},
    // root → wire_write.
    let handle = tree.root.find("handle").expect("handle span");
    assert!(handle.find("snapshot_cut").is_some(), "snapshot cut span");
    assert!(handle.find("evaluate").is_some(), "evaluate span");
    assert!(tree.root.find("wire_write").is_some(), "wire write span");

    // Coverage: the root's direct children account for ≥ 90% of the
    // root span (the gap is notification flushing + histogram upkeep).
    let child_sum: u64 = tree.root.children.iter().map(|c| c.duration_ns).sum();
    assert!(
        child_sum * 10 >= tree.root.duration_ns * 9,
        "children cover {child_sum} of {} root ns:\n{}",
        tree.root.duration_ns,
        tree.timeline()
    );

    // The rendered timeline names every tier on one screen.
    let text = tree.timeline();
    for needle in [
        "query_federated",
        "handle",
        "snapshot_cut",
        "evaluate",
        "wire_write",
    ] {
        assert!(text.contains(needle), "timeline misses {needle}:\n{text}");
    }
    drop(server);
}

// `TraceTree::render_timeline` via a helper so the assertion messages
// stay short.
trait Timeline {
    fn timeline(&self) -> String;
}

impl Timeline for sitm_obs::trace::TraceTree {
    fn timeline(&self) -> String {
        self.render_timeline()
    }
}

#[test]
fn span_durations_agree_with_the_handle_histogram() {
    let tmp = TempDir::new("differential");
    let (server, mut client) = populated_server(&tmp);

    let runs = 8;
    for _ in 0..runs {
        client.query_federated(&federated_query()).expect("query");
    }

    let snapshot = client.metrics().expect("metrics");
    let hist = snapshot
        .histogram("serve.handle_ns.query_federated")
        .expect("handle histogram");
    assert_eq!(hist.count, runs, "one sample per query");

    let trees = server.recorder().recent(usize::MAX);
    let handle_sum: u64 = trees
        .iter()
        .filter(|t| t.root.name == "query_federated")
        .map(|t| t.root.find("handle").expect("handle span").duration_ns)
        .sum();
    assert!(handle_sum > 0, "spans carry real durations");

    // Two independent measurements of the same interval: the `handle`
    // child span opens right after the histogram's clock starts and
    // closes right before it stops. Within 10% (plus a small absolute
    // floor for sub-millisecond totals).
    let diff = hist.sum.abs_diff(handle_sum);
    assert!(
        diff <= (hist.sum / 10).max(200_000),
        "span total {handle_sum} ns vs histogram total {} ns (diff {diff})",
        hist.sum
    );
    drop(server);
}

#[test]
fn wire_propagated_context_is_adopted() {
    let tmp = TempDir::new("propagate");
    let (server, mut client) = populated_server(&tmp);

    let ctx = TraceContext {
        trace_id: 0xFEED_FACE_CAFE_F00D,
        parent_span_id: 7,
    };
    let response = client
        .call_traced(&Request::QueryFederated(federated_query()), ctx)
        .expect("traced call");
    assert!(matches!(response, Response::Trajectories(_)));

    let trees = client.traces(64).expect("traces");
    let adopted = trees
        .iter()
        .find(|t| t.trace_id == ctx.trace_id)
        .expect("the propagated trace id names the server-side tree");
    assert_eq!(adopted.parent_span_id, 7, "parent span rides along");
    assert_eq!(adopted.root.name, "query_federated");

    // An untraced call generates a fresh context instead.
    client.query_federated(&federated_query()).expect("query");
    let trees = client.traces(64).expect("traces");
    let fresh = trees.last().expect("latest trace");
    assert_ne!(fresh.trace_id, 0, "generated ids are never zero");
    assert_eq!(fresh.parent_span_id, 0, "no parent outside a fan-out");
    drop(server);
}

/// The default-config tracing tax, pinned by the mechanism that bounds
/// it: a plain-envelope request records the coarse spans only, except
/// one in [`DETAIL_SAMPLE_EVERY`] that also records the detail tier
/// (pushdown stages, row reads), and a request whose context came over
/// the wire always records it. The ledger's traced pass prices the tax
/// (`obs.trace.overhead_pct`); a count repeats where a clock on a
/// shared host does not.
#[test]
fn detail_spans_arm_on_one_request_in_n_and_on_every_traced_one() {
    const DETAIL: [&str; 6] = [
        "evaluate",
        "prune",
        "order_page",
        "fetch_rows",
        "row_read",
        "segment_hydrate",
    ];
    let tmp = TempDir::new("detail");
    // Spill a history, then restart over it: the warehouse is cold, so
    // each one-row page below reads its row from disk (a page over
    // `Predicate::True` hydrates no segment).
    let (server, mut client) = populated_server(&tmp);
    client.shutdown().expect("shutdown");
    server.join().expect("join");
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0)).expect("restart");
    let mut client = Client::connect(server.addr()).expect("connect");
    let page = |v: u64| WireQuery {
        predicate: Predicate::True,
        order: Some((SortKey::Start, true)),
        offset: v,
        limit: Some(1),
    };
    // The spans every detailed tree of such a page carries.
    let expected = DETAIL.map(|name| name != "segment_hydrate");

    let sent = 2 * DETAIL_SAMPLE_EVERY;
    for v in 0..sent {
        assert_eq!(client.query(&page(v)).expect("one-row page").len(), 1);
    }
    let trees: Vec<TraceTree> = client
        .traces(64)
        .expect("traces")
        .into_iter()
        .filter(|t| t.root.name == "query")
        .collect();
    assert_eq!(trees.len() as u64, sent, "one tree per page");
    let mut detailed = 0;
    for tree in &trees {
        assert!(tree.find("handle").is_some() && tree.find("wire_write").is_some());
        let details = DETAIL.map(|name| tree.find(name).is_some());
        if details.contains(&true) {
            detailed += 1;
            assert_eq!(details, expected, "{}", tree.render_timeline());
        }
    }
    assert_eq!(
        detailed, 2,
        "detail spans on one plain request in {DETAIL_SAMPLE_EVERY}"
    );

    let ctx = TraceContext {
        trace_id: 0xDE7A_11ED,
        parent_span_id: 1,
    };
    let response = client
        .call_traced(&Request::Query(page(sent)), ctx)
        .expect("traced call");
    assert!(matches!(response, Response::Trajectories(_)));
    let trees = client.traces(64).expect("traces");
    let traced = trees
        .iter()
        .find(|t| t.trace_id == ctx.trace_id)
        .expect("the traced request's tree");
    assert_eq!(
        DETAIL.map(|name| traced.find(name).is_some()),
        expected,
        "a traced request records the detail tier:\n{}",
        traced.render_timeline()
    );
    drop(server);
}

#[test]
fn health_reports_the_server_story() {
    let tmp = TempDir::new("health");
    let (server, mut client) = populated_server(&tmp);
    let subscriber = Subscriber::subscribe(
        server.addr(),
        &WireQuery {
            predicate: Predicate::True,
            order: None,
            offset: 0,
            limit: None,
        },
    )
    .expect("subscribe");

    let health = client.health().expect("health");
    assert!(health.epoch > 0, "ingest advanced the epoch");
    assert!(health.sessions_accepted >= 2, "client + subscriber");
    assert!(health.sessions_active >= 2);
    assert_eq!(health.subscribers_active, 1);
    assert_eq!(
        health.flush_backlog_trajectories, 0,
        "checkpoint drained the spill tier"
    );
    assert!(
        !health.worker_queue_depths.is_empty(),
        "one depth per engine worker"
    );
    assert!(
        health.last_checkpoint_age_ms.is_some(),
        "a checkpoint completed"
    );
    assert_eq!(health.warehouse_trajectories, 40);
    assert!(health.warehouse_segments >= 1);
    assert!(health.traces_recorded > 0);

    // The server-side view is the same report.
    let direct = server.health();
    assert_eq!(direct.warehouse_trajectories, health.warehouse_trajectories);
    assert_eq!(direct.subscribers_active, 1);

    // Dropping the subscription releases the gauge (drop-guard).
    drop(subscriber);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        if server.health().subscribers_active == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "subscriber gauge never released"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // render() is the one-glance sitm-top screen.
    let text = health.render();
    assert!(text.contains("epoch"), "render shows the epoch:\n{text}");
    drop(server);
}

#[test]
fn health_serves_the_ingest_rate_once_a_window_closes() {
    let tmp = TempDir::new("rate");
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0)).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let events = feed(0, 40, 3);
    let k = events.len() as u64;
    client.ingest_batch(events).expect("ingest");
    std::thread::sleep(sitm_obs::health::RATE_WINDOW + std::time::Duration::from_millis(100));

    // The window opened at start with a count of 0 and closes now,
    // more than a second later, over all K events.
    let rate = client.health().expect("health").events_per_sec_milli;
    assert!(
        0 < rate && rate <= k * 1000,
        "{rate} milli-events/s after {k} events over more than 1 s"
    );
    drop(server);
}

#[test]
fn tracing_disabled_is_inert_and_free_of_traces() {
    let tmp = TempDir::new("disabled");
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0).with_trace_capacity(0))
        .expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.ingest_batch(feed(0, 5, 0)).expect("ingest");
    client.checkpoint().expect("checkpoint");
    client.query_federated(&federated_query()).expect("query");

    assert!(client.traces(16).expect("traces").is_empty());
    let health = client.health().expect("health");
    assert_eq!(health.traces_recorded, 0);
    drop(server);
}
