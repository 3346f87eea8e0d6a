//! The one file of the ledger that calls into the `sitm_*` crates.
//!
//! Everything else in this directory speaks the vocabulary defined
//! here (events, rows, requests, a served pipeline, the in-process
//! layer calls), so a "one of each" refactor of the library needs a
//! follow-up in this file at most. Only surfaces the ROADMAP intends to
//! keep are used: `Server`/`Client`/`proto`/`wire`, `ParallelEngine`,
//! `Flusher`, `SegmentedDb`, `Query`, `maximal_episodes` — not
//! `ShardedEngine`, the `*_scan` twins, or the v1/v2 segment paths.

use std::io::Cursor;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use sitm_core::{
    maximal_episodes, Annotation, AnnotationSet, Duration, IntervalPredicate, PresenceInterval,
    TimeInterval, Timestamp, Trace, TransitionTaken,
};
use sitm_graph::{LayerIdx, NodeId};
use sitm_obs::trace::TraceContext;
use sitm_query::wire::WireQuery;
use sitm_query::{Predicate, SegmentedDb, SortKey, TrajectorySource};
use sitm_serve::{
    decode_request, decode_response, encode_request, encode_response, read_message, write_frame,
    write_traced_frame, Client, ServerConfig,
};
use sitm_space::CellRef;
use sitm_store::warehouse::{WarehouseConfig, DEFAULT_ROW_CACHE_BYTES};
use sitm_stream::{EngineConfig, Flusher, LiveSnapshot, ParallelEngine, VisitKey};

pub use sitm_core::SemanticTrajectory as Row;
use sitm_obs::trace::SpanRecord;
pub use sitm_obs::trace::TraceTree;
pub use sitm_obs::MetricsSnapshot;
pub use sitm_serve::{Request, Response, Server, ServerStats};
pub use sitm_sim::{LogNormal, SimRng, Zipf};
pub use sitm_stream::StreamEvent as Event;

use crate::spans::{ClientRecord, ClientSpans, Span};

/// Cells of the synthetic museum (layer 0, nodes `0..CELLS`).
pub const CELLS: usize = 256;
/// The exit chain: the last three cells, walked in this order on the
/// way out (the `stream_feeds::stream_config` predicate shape).
pub const EXIT_CHAIN: [usize; 3] = [CELLS - 3, CELLS - 2, CELLS - 1];
/// Engine shards (= worker threads) everywhere: this sandbox has 2 vCPUs.
pub const SHARDS: usize = 2;
/// Bytes a segment frame adds to the row it carries (what the row
/// cache charges per row on top of the encoded trajectory).
pub const FRAME_OVERHEAD: u64 = sitm_store::segment::FRAME_OVERHEAD as u64;
/// The warehouse's default row-decode cache budget, in bytes.
pub const ROW_CACHE_BYTES: usize = DEFAULT_ROW_CACHE_BYTES;

fn cell(n: usize) -> CellRef {
    CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
}

fn label(s: &str) -> AnnotationSet {
    AnnotationSet::from_iter([Annotation::goal(s)])
}

/// One presence interval of a generated visit: `(cell, start, end)` in
/// seconds.
pub type Stay = (usize, i64, i64);

// --- events and rows --------------------------------------------------------

pub fn opened(visit: u64, object: &str, at: i64) -> Event {
    Event::VisitOpened {
        visit: VisitKey(visit),
        moving_object: object.to_string(),
        annotations: label("visit"),
        at: Timestamp(at),
    }
}

pub fn presence(visit: u64, stay: Stay) -> Event {
    Event::Presence {
        visit: VisitKey(visit),
        interval: interval(stay),
    }
}

pub fn closed(visit: u64, at: i64) -> Event {
    Event::VisitClosed {
        visit: VisitKey(visit),
        at: Timestamp(at),
    }
}

/// The library's replay order, which `scenario::feed` must reproduce.
#[cfg(test)]
pub fn sort_feed(events: &mut [Event]) {
    sitm_stream::event::sort_feed(events);
}

fn interval((c, start, end): Stay) -> PresenceInterval {
    PresenceInterval::new(
        TransitionTaken::Unknown,
        cell(c),
        Timestamp(start),
        Timestamp(end),
    )
}

/// The trajectory a visit with these stays becomes once closed (or the
/// live prefix, for the stays sent so far).
pub fn row(object: &str, stays: &[Stay]) -> Row {
    let trace = Trace::new(stays.iter().copied().map(interval).collect())
        .expect("generated stays are ordered on one layer");
    Row::new(object, trace, label("visit")).expect("generated visits have a stay and a goal")
}

pub fn row_object(row: &Row) -> &str {
    &row.moving_object
}

pub fn row_start(row: &Row) -> i64 {
    row.start().0
}

pub fn row_dwell(row: &Row) -> i64 {
    row.trace().dwell_total().as_seconds()
}

// --- the predicate table and the batch oracle -------------------------------

fn predicate_table() -> Vec<(IntervalPredicate, AnnotationSet)> {
    vec![
        (
            IntervalPredicate::in_cells(EXIT_CHAIN.map(cell)),
            label("exit museum"),
        ),
        (
            IntervalPredicate::min_duration(Duration::minutes(5)),
            label("long stay"),
        ),
        (IntervalPredicate::any(), label("whole visit")),
    ]
}

fn engine_config() -> EngineConfig {
    EngineConfig::new(predicate_table()).with_shards(SHARDS)
}

/// Episodes the batch `maximal_episodes` finds in `rows` under the
/// served predicate table — the paper's ground truth the streamed
/// count must equal once every visit has closed.
pub fn batch_episode_count(rows: &[Row]) -> u64 {
    let table = predicate_table();
    rows.iter()
        .map(|row| {
            table
                .iter()
                .map(|(predicate, annotations)| {
                    maximal_episodes(row, predicate, annotations.clone())
                        .expect("episode labels differ from the visit goal")
                        .len() as u64
                })
                .sum::<u64>()
        })
        .sum()
}

// --- requests ---------------------------------------------------------------

fn paged(
    predicate: Predicate,
    key: SortKey,
    ascending: bool,
    offset: u64,
    limit: u64,
) -> WireQuery {
    WireQuery {
        predicate,
        order: Some((key, ascending)),
        offset,
        limit: Some(limit),
    }
}

pub fn ingest_request(events: Vec<Event>) -> Request {
    Request::IngestBatch(events)
}

/// "Where is / where has X been": live ∪ warehouse, oldest first.
pub fn point_request(object: &str) -> Request {
    Request::QueryFederated(paged(
        Predicate::MovingObject(object.to_string()),
        SortKey::Start,
        true,
        0,
        10,
    ))
}

/// One page of the whole history in start order (warehouse tier).
pub fn walk_request(offset: u64, limit: u64) -> Request {
    Request::Query(paged(Predicate::True, SortKey::Start, true, offset, limit))
}

/// The longest-dwelling visits that stopped in `cell` (warehouse tier).
pub fn cell_request(c: usize, limit: u64) -> Request {
    Request::Query(paged(
        Predicate::VisitedCell(cell(c)),
        SortKey::TotalDwell,
        false,
        0,
        limit,
    ))
}

/// Visits whose span overlaps `[start, end]` (warehouse tier).
pub fn window_request(start: i64, end: i64, limit: u64) -> Request {
    Request::Query(paged(
        Predicate::SpanOverlaps(TimeInterval::new(Timestamp(start), Timestamp(end))),
        SortKey::Start,
        true,
        0,
        limit,
    ))
}

/// The `limit` longest-dwelling visits overall (warehouse tier).
pub fn top_dwell_request(limit: u64) -> Request {
    Request::Query(paged(Predicate::True, SortKey::TotalDwell, false, 0, limit))
}

pub fn stats_request() -> Request {
    Request::Stats
}

pub fn checkpoint_request() -> Request {
    Request::Checkpoint
}

pub fn metrics_request() -> Request {
    Request::Metrics
}

pub fn explain_request(object: &str) -> Request {
    Request::Explain(Predicate::MovingObject(object.to_string()))
}

// --- responses --------------------------------------------------------------

fn unexpected<T>(what: &str, response: Response) -> Result<T, String> {
    match response {
        Response::Error(message) => Err(format!("{what}: server error: {message}")),
        other => Err(format!("{what}: unexpected response {other:?}")),
    }
}

pub fn expect_ingested(response: Response) -> Result<u64, String> {
    match response {
        Response::Ingested { events } => Ok(events),
        other => unexpected("ingest", other),
    }
}

pub fn expect_rows(response: Response) -> Result<Vec<Row>, String> {
    match response {
        Response::Trajectories(rows) => Ok(rows),
        other => unexpected("query", other),
    }
}

/// `(stats, cells in the rollup)`.
pub fn expect_stats(response: Response) -> Result<(ServerStats, usize), String> {
    match response {
        Response::Stats { stats, rollup } => Ok((stats, rollup.cells.len())),
        other => unexpected("stats", other),
    }
}

/// Warehouse segments the plan consulted.
pub fn expect_explained(response: Response) -> Result<u64, String> {
    match response {
        Response::Explained(report) => Ok(report.segments),
        other => unexpected("explain", other),
    }
}

/// Trajectories the checkpoint made durable.
pub fn expect_checkpointed(response: Response) -> Result<u64, String> {
    match response {
        Response::Checkpointed { spilled, .. } => Ok(spilled),
        other => unexpected("checkpoint", other),
    }
}

pub fn expect_metrics(response: Response) -> Result<MetricsSnapshot, String> {
    match response {
        Response::Metrics(snapshot) => Ok(snapshot),
        other => unexpected("metrics", other),
    }
}

pub fn expect_traces(response: Response) -> Result<Vec<TraceTree>, String> {
    match response {
        Response::Traces(trees) => Ok(trees),
        other => unexpected("trace", other),
    }
}

/// A server-side tree as ledger spans (depth-first, the server's own
/// span ids, times relative to the tree's root), with the request id
/// it carries.
pub fn tree_spans(tree: &TraceTree) -> (u64, Vec<Span>) {
    fn visit(request: u64, parent: u64, node: &SpanRecord, out: &mut Vec<Span>) {
        out.push(Span {
            request,
            id: node.id,
            parent,
            name: node.name.to_string(),
            start_ns: node.start_ns,
            end_ns: node.start_ns + node.duration_ns,
            clock: "server_root",
        });
        for child in &node.children {
            visit(request, node.id, child, out);
        }
    }
    let mut out = Vec::new();
    visit(tree.trace_id, 0, &tree.root, &mut out);
    (tree.trace_id, out)
}

/// True for trees of requests the ledger's traced client issued (its
/// contexts name a parent span; the server's own never do).
pub fn tree_is_ledgers(tree: &TraceTree) -> bool {
    tree.parent_span_id != 0
}

pub fn trace_request() -> Request {
    // The server caps the answer at its ring capacity.
    Request::Trace { limit: 4096 }
}

// --- the served pipeline ----------------------------------------------------

/// How a workload's server differs from `ServerConfig::new`.
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// Row-decode cache budget; workloads that scale the history down
    /// scale the cache with it and say so.
    pub row_cache_bytes: usize,
    /// `Some(n)` only in the traced pass: a ring deep enough to hold
    /// the trees between two `Trace` polls.
    pub trace_capacity: Option<usize>,
}

/// Starts a server over `dir` with default engine/warehouse settings,
/// default tracing and sampler (what users run), `SHARDS` workers.
pub fn start_server(dir: &Path, options: ServerOptions) -> Result<Server, String> {
    let mut config = ServerConfig::new(engine_config(), dir);
    config.warehouse = WarehouseConfig {
        row_cache_bytes: options.row_cache_bytes,
        ..WarehouseConfig::default()
    };
    if let Some(capacity) = options.trace_capacity {
        config = config.with_trace_capacity(capacity);
    }
    Server::start(config).map_err(|e| format!("start server: {e}"))
}

/// Graceful stop: final flush, every thread joined.
pub fn stop_server(server: Server) -> Result<(), String> {
    server.shutdown();
    server.join().map_err(|e| format!("join server: {e}"))
}

/// One request/response round trip, whichever client carries it.
pub trait Caller: Send {
    fn call(&mut self, request: &Request) -> Result<Response, String>;

    /// The spans recorded so far (none for the plain client).
    fn take_records(&mut self) -> Vec<ClientRecord> {
        Vec::new()
    }
}

/// The library's own blocking client — what the end-to-end pass times.
pub struct PlainConn(Client);

impl PlainConn {
    pub fn connect(addr: SocketAddr) -> Result<PlainConn, String> {
        Client::connect(addr)
            .map(PlainConn)
            .map_err(|e| format!("connect: {e}"))
    }
}

impl Caller for PlainConn {
    fn call(&mut self, request: &Request) -> Result<Response, String> {
        self.0.call(request).map_err(|e| e.to_string())
    }
}

/// The traced pass's raw client: the same public codec and framing
/// calls `Client` makes, with a ledger span around each and a trace
/// context on every request (which forces server-side detail spans).
pub struct TracedConn {
    stream: TcpStream,
    spans: ClientSpans,
    payload: Vec<u8>,
}

impl TracedConn {
    pub fn connect(addr: SocketAddr, spans: ClientSpans) -> Result<TracedConn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(TracedConn {
            stream,
            spans,
            payload: Vec::new(),
        })
    }
}

impl Caller for TracedConn {
    fn call(&mut self, request: &Request) -> Result<Response, String> {
        let t0 = Instant::now();
        self.payload.clear();
        encode_request(&mut self.payload, request);
        let t1 = Instant::now();
        let request_id = self.spans.next_request_id();
        let ctx = TraceContext {
            trace_id: request_id,
            // The ledger's root span of every request has id 1.
            parent_span_id: 1,
        };
        write_traced_frame(&mut self.stream, ctx, &self.payload).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let message = read_message(&mut self.stream).map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        let response =
            decode_response(&mut message.payload.as_slice()).map_err(|e| e.to_string())?;
        let t4 = Instant::now();
        self.spans
            .record(request_id, [t0, t1, t2, t3, t4], message.payload.len());
        Ok(response)
    }

    fn take_records(&mut self) -> Vec<ClientRecord> {
        self.spans.take_records()
    }
}

// --- the in-process layer pass (source c) ------------------------------------
//
// Each function is one public call of one layer, so the timing loops
// in `layerpass.rs` never name a library item.

pub fn encode_request_bytes(request: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_request(&mut buf, request);
    buf
}

pub fn decode_request_bytes(bytes: &[u8]) -> Request {
    decode_request(&mut &bytes[..]).expect("the ledger encoded these bytes")
}

pub fn encode_response_bytes(response: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_response(&mut buf, response);
    buf
}

pub fn decode_response_bytes(bytes: &[u8]) -> Response {
    decode_response(&mut &bytes[..]).expect("the ledger encoded these bytes")
}

/// Frames `payload` into `out` (cleared first).
pub fn frame_write(out: &mut Vec<u8>, payload: &[u8]) {
    out.clear();
    write_frame(out, payload).expect("writing to memory cannot fail");
}

/// Reads one frame back from memory; returns the payload length.
pub fn frame_read(framed: &[u8]) -> usize {
    read_message(&mut Cursor::new(framed))
        .expect("the ledger framed these bytes")
        .payload
        .len()
}

pub fn encode_row(buf: &mut Vec<u8>, row: &Row) {
    sitm_store::encode_trajectory(buf, row);
}

pub fn decode_row(bytes: &[u8]) -> Row {
    sitm_store::decode_trajectory(&mut &bytes[..]).expect("the ledger encoded these bytes")
}

pub fn crc32(bytes: &[u8]) -> u32 {
    sitm_store::crc32(bytes)
}

/// A private registry, so in-process layers never count into the
/// served pipeline's instruments.
pub fn private_registry() -> sitm_obs::MetricsRegistry {
    sitm_obs::MetricsRegistry::new()
}

pub fn registry_snapshot(registry: &sitm_obs::MetricsRegistry) -> MetricsSnapshot {
    registry.snapshot()
}

/// The streaming engine as the server configures it (warehouse drain
/// and live queries on), recording into `registry`.
pub struct Engine(ParallelEngine);

impl Engine {
    pub fn new(registry: &sitm_obs::MetricsRegistry) -> Engine {
        let config = engine_config()
            .with_warehouse()
            .with_metrics(registry.clone());
        Engine(ParallelEngine::new(config).expect("SHARDS is not zero"))
    }

    /// Ingests and waits for every event to be applied.
    pub fn ingest_all(&mut self, events: Vec<Event>) {
        self.0.ingest_all(events);
        self.0.flush();
    }

    pub fn ingest_one(&mut self, event: Event) {
        self.0.ingest(event);
    }

    /// `(snapshot, served from the epoch cache)`.
    pub fn live_snapshot(&mut self) -> (Arc<LiveSnapshot>, bool) {
        self.0.live_snapshot_cached()
    }

    pub fn episodes(&mut self) -> u64 {
        self.0.stats().episodes
    }
}

pub fn live_visits(snapshot: &LiveSnapshot) -> usize {
    snapshot.len_hint()
}

pub fn live_count_object(snapshot: &LiveSnapshot, object: &str) -> usize {
    snapshot.count_matching(&Predicate::MovingObject(object.to_string()))
}

/// The warehouse behind its flusher, as the server holds it.
pub struct Warehouse(Flusher);

impl Warehouse {
    pub fn open(dir: &Path, registry: &sitm_obs::MetricsRegistry) -> Result<Warehouse, String> {
        let (db, _report) = SegmentedDb::open(dir, WarehouseConfig::default())
            .map_err(|e| format!("open warehouse: {e}"))?;
        Ok(Warehouse(Flusher::new(db).with_metrics(registry)))
    }

    /// `Flusher::force`: drain the engine's finished backlog into a
    /// new segment (and compact). Returns trajectories spilled.
    pub fn force(&mut self, engine: &mut Engine) -> Result<usize, String> {
        self.0.force(&mut engine.0).map_err(|e| e.to_string())
    }

    pub fn count_object(&self, object: &str) -> usize {
        self.0
            .db()
            .count_matching(&Predicate::MovingObject(object.to_string()))
    }

    /// `Query::execute_segmented` for a warehouse-tier request.
    pub fn execute(&self, request: &Request) -> Vec<Row> {
        match request {
            Request::Query(q) => q.to_query().execute_segmented(self.0.db()),
            other => panic!("not a warehouse-tier query: {other:?}"),
        }
    }

    /// `Query::execute_federated` over `[snapshot, warehouse]`.
    pub fn execute_federated(&self, snapshot: &LiveSnapshot, request: &Request) -> Vec<Row> {
        match request {
            Request::QueryFederated(q) => {
                let sources: [&dyn TrajectorySource; 2] = [snapshot, self.0.db()];
                q.to_query().execute_federated(&sources)
            }
            other => panic!("not a federated query: {other:?}"),
        }
    }
}

/// `SegmentedDb::flush` of each batch in turn into a fresh directory
/// (every flush also compacts to its fixed point): nanoseconds per
/// flush, and the segments left.
pub fn flush_batches(dir: &Path, batches: Vec<Vec<Row>>) -> Result<(Vec<u64>, usize), String> {
    let (mut db, _report) =
        SegmentedDb::open(dir, WarehouseConfig::default()).map_err(|e| e.to_string())?;
    let mut ns = Vec::with_capacity(batches.len());
    for batch in batches {
        let t = Instant::now();
        db.flush(batch).map_err(|e| e.to_string())?;
        ns.push(t.elapsed().as_nanos() as u64);
    }
    Ok((ns, db.segments().len()))
}
