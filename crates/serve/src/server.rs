//! The concurrent ingest + query server.
//!
//! ## Architecture
//!
//! ```text
//!   clients ──TCP──▶ listener thread ──bounded queue──▶ session workers
//!                                                          │ (pool of N)
//!                                          frame ⇄ request │
//!                                                          ▼
//!                      ┌─────── Core (Mutex) ────────┐ ┌─ Warehouse (RwLock) ─┐
//!                      │ ParallelEngine (ingest,     │ │ Flusher → SegmentedDb│
//!                      │   epoch, cached snapshot,   │ │  (readers share;     │
//!                      │   drain → subscriptions)    │ │   checkpoint writes) │
//!                      └─────────────────────────────┘ └──────────────────────┘
//! ```
//!
//! * **Listener** — one thread accepting connections and handing each
//!   socket to a **bounded** session queue (`std::sync::mpsc::sync_channel`,
//!   the same bounded-channel backpressure idiom the parallel engine's
//!   router uses): when every session worker is busy and the backlog is
//!   full, `accept`ed clients wait in the queue send rather than
//!   ballooning threads.
//! * **Session workers** — a fixed pool. Each worker serves one
//!   connection at a time: read frame → decode → execute against the
//!   shared core → encode → write frame, until the client closes
//!   (or a graceful shutdown drains it). The session owns two buffers
//!   for as long as it lives (see [`crate::wire`]): a frame reader
//!   (64 KiB read buffer + the payload buffer requests are decoded
//!   from by reference) and the output buffer every reply is encoded
//!   into behind its reserved header, so a request costs one socket
//!   read and a reply one socket write (`serve.socket_reads` /
//!   `serve.socket_writes` count them) and neither allocates in
//!   steady state; either message buffer is freed after a message
//!   that grew it past 1 MiB. A warehouse `Query` adds a third buffer
//!   under the same rule: its page is collected as bytes — each row of
//!   a hydrated segment copied in the encoding the segment file
//!   already holds, which is the encoding the reply carries — and
//!   framed as the `Trajectories` reply those rows make, so a page
//!   costs the rows it returns: nothing skipped or returned is cloned
//!   or encoded again. Requests a client pipelined are answered
//!   from the read buffer, in order. A read timeout means "idle" only
//!   when it fires with that buffer empty, before the first byte of a
//!   frame — the session then flushes notifications and polls the
//!   shutdown flag; inside a frame it only spends the stall patience.
//!   A malformed or torn frame is a
//!   **per-session** failure: the worker answers with
//!   [`Response::Error`] when the transport still works, closes that
//!   one connection, and moves on — the listener and every other
//!   session stay up (`tests/wire_torture.rs` tears frames at every
//!   byte offset to pin this).
//! * **Core + warehouse** — the mutable pipeline state splits in two.
//!   The core mutex guards the work-stealing [`ParallelEngine`]; the
//!   [`Flusher`]-fed [`sitm_query::SegmentedDb`] warehouse sits behind
//!   its own `RwLock`, shared by query readers and written only by
//!   checkpoints. Only ingest, checkpoint, shutdown, and subscription
//!   registration serialize on the core mutex: the query/explain ops
//!   clone the engine's **epoch-cached** `Arc<LiveSnapshot>` and
//!   acquire a warehouse read guard under the lock, then release it
//!   and evaluate outside — concurrent queries run truly in parallel,
//!   and back-to-back queries between ingest barriers share one
//!   snapshot (`serve.snapshot_cache_hits`).
//! * **Subscriptions** — a session can register a continuous query.
//!   While at least one subscription exists, every ingest barrier
//!   drains the engine's emitted-episode backlog, stamps the new
//!   epoch, and fans the delta out to each subscriber whose predicate
//!   does not provably reject it (`Predicate::delta_may_match`), into
//!   a **bounded** per-subscriber queue. The owning session flushes
//!   its queue as [`Response::Notification`] frames between requests
//!   and at every idle poll. A subscriber that falls behind the bound
//!   is sent an in-band [`Response::Error`] and dropped (the session
//!   survives); a subscriber that disconnects with undelivered
//!   episodes has them re-injected into the engine's pending pool so
//!   nothing is lost. While *no* subscription exists nothing drains
//!   that pool, so every checkpoint trims it to the newest half of the
//!   subscriber bound (`serve.backlog_trimmed`): memory stays bounded
//!   and a first subscriber is not handed more than its queue holds.
//! * **Shutdown** — a [`Request::Shutdown`] spills the finished backlog
//!   into the warehouse (durable), acknowledges, then flips the shared
//!   flag and nudges the listener awake with a loop-back connection.
//!   The listener stops accepting; sessions notice the flag at their
//!   next idle poll (sockets carry a read timeout) or after their
//!   in-flight request and close; [`Server::join`] returns once every
//!   thread is down.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

use sitm_obs::health::HealthReport;
use sitm_obs::timeseries::{rate_per_sec, Sampler, DEFAULT_SAMPLE_PERIOD, DEFAULT_SERIES_CAPACITY};
use sitm_obs::trace::{self, TraceContext, TraceRecorder, DEFAULT_TRACE_CAPACITY};
use sitm_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use sitm_query::{Predicate, SegmentedDb, TrajectorySource, WireQuery};
use sitm_store::warehouse::{SegmentRollup, WarehouseConfig, DEFAULT_ROLLUP_PERIOD_SECONDS};
use sitm_stream::{EmittedEpisode, EngineConfig, Flusher, LiveSnapshot, ParallelEngine};

use crate::proto::{
    begin_trajectories, decode_request, encode_response, ExplainReport, Request, Response,
    ServerStats, StatsRollup, WirePlan,
};
use crate::wire::{begin_frame, finish_frame, release_if_large, CountedIo, FrameReader, WireError};
use crate::ServeError;

/// Server construction parameters.
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port — the
    /// test/bench default).
    pub bind: SocketAddr,
    /// Engine configuration for the shared [`ParallelEngine`]. The
    /// server forces `with_warehouse()` on it (live queries + finished
    /// retention) — the full pipeline is the point of serving.
    pub engine: EngineConfig,
    /// Directory of the warehouse tier ([`SegmentedDb`]).
    pub warehouse_dir: PathBuf,
    /// Warehouse configuration (manifest policy, compaction fanout).
    pub warehouse: WarehouseConfig,
    /// Session worker threads (concurrent connections served; min 1).
    pub sessions: usize,
    /// Accepted connections queued beyond the busy workers before the
    /// listener itself blocks (min 1).
    pub backlog: usize,
    /// How often an idle session polls the shutdown flag (doubles as
    /// the per-read socket timeout).
    pub idle_poll: StdDuration,
    /// The registry the whole pipeline records into (engine, flusher,
    /// warehouse, sessions) and the `Metrics` op snapshots. `None` (the
    /// default) gives each server a **fresh** registry, so concurrent
    /// servers in one process never cross-contaminate counters.
    pub metrics: Option<MetricsRegistry>,
    /// Requests at or above this duration enter the slow-query ring
    /// buffer (queryable via the `Metrics` op). `None` disables it.
    pub slow_query_threshold: Option<StdDuration>,
    /// Trace trees the server's [`TraceRecorder`] retains for the
    /// `Trace` op. `0` disables tracing entirely: requests skip the
    /// span machinery and `Trace` serves an empty list.
    pub trace_capacity: usize,
    /// The time-series sampler: `(period, frames retained)`. `None`
    /// disables it (Health then reports a 0 ingest rate).
    pub sampler: Option<(StdDuration, usize)>,
}

impl ServerConfig {
    /// A config with the given engine and warehouse directory, an
    /// ephemeral loopback port, and moderate defaults (4 session
    /// workers, 16-connection backlog, 25 ms idle poll). There is no
    /// spill threshold: every `Checkpoint` spills all the visits that
    /// closed since the last one.
    pub fn new(engine: EngineConfig, warehouse_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
            engine,
            warehouse_dir: warehouse_dir.into(),
            warehouse: WarehouseConfig::default(),
            sessions: 4,
            backlog: 16,
            idle_poll: StdDuration::from_millis(25),
            metrics: None,
            slow_query_threshold: None,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            sampler: Some((DEFAULT_SAMPLE_PERIOD, DEFAULT_SERIES_CAPACITY)),
        }
    }

    /// Overrides the session worker count.
    #[must_use]
    pub fn with_sessions(mut self, sessions: usize) -> ServerConfig {
        self.sessions = sessions;
        self
    }

    /// Overrides the accept backlog bound.
    #[must_use]
    pub fn with_backlog(mut self, backlog: usize) -> ServerConfig {
        self.backlog = backlog;
        self
    }

    /// Records the pipeline's instruments into `registry` instead of a
    /// fresh per-server one (e.g. to share a registry with in-process
    /// components, or to inspect it without the wire op).
    #[must_use]
    pub fn with_metrics(mut self, registry: MetricsRegistry) -> ServerConfig {
        self.metrics = Some(registry);
        self
    }

    /// Enables the slow-query log: requests taking at least `threshold`
    /// are retained (op, duration, request rendering) in a bounded ring
    /// buffer served by the `Metrics` op.
    #[must_use]
    pub fn with_slow_query_threshold(mut self, threshold: StdDuration) -> ServerConfig {
        self.slow_query_threshold = Some(threshold);
        self
    }

    /// Overrides the trace ring capacity (`0` turns tracing off).
    #[must_use]
    pub fn with_trace_capacity(mut self, capacity: usize) -> ServerConfig {
        self.trace_capacity = capacity;
        self
    }

    /// Overrides the time-series sampler's period and retained frames.
    #[must_use]
    pub fn with_sampler(mut self, period: StdDuration, capacity: usize) -> ServerConfig {
        self.sampler = Some((period, capacity));
        self
    }

    /// Disables the time-series sampler.
    #[must_use]
    pub fn without_sampler(mut self) -> ServerConfig {
        self.sampler = None;
        self
    }
}

/// Wire-op names, indexed by [`op_index`] — the suffixes of the
/// `serve.requests.{op}` counters and `serve.handle_ns.{op}` histograms.
const OP_NAMES: [&str; 12] = [
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

fn op_index(request: &Request) -> usize {
    match request {
        Request::IngestBatch(_) => 0,
        Request::Query(_) => 1,
        Request::QueryFederated(_) => 2,
        Request::Explain(_) => 3,
        Request::Stats => 4,
        Request::Checkpoint => 5,
        Request::Shutdown => 6,
        Request::Metrics => 7,
        Request::Subscribe(_) => 8,
        Request::Unsubscribe => 9,
        Request::Health => 10,
        Request::Trace { .. } => 11,
    }
}

/// Per-op instrument pair: request count + handle-time distribution.
struct OpMetrics {
    requests: Arc<Counter>,
    handle_ns: Arc<Histogram>,
}

/// Serve-tier instrument handles (`serve.*` metric names), resolved
/// once at startup so the per-request path pays atomics and two
/// `Instant::now()` reads.
struct ServeMetrics {
    /// The registry the whole pipeline shares — what `Metrics` serves.
    registry: MetricsRegistry,
    ops: Vec<OpMetrics>,
    /// `Response::Error`s sent (any op).
    errors: Arc<Counter>,
    /// Torn/corrupt frames that ended a session (per-session failure
    /// containment: exactly one per torn connection).
    frame_errors: Arc<Counter>,
    /// Well-framed payloads that failed request decoding (the session
    /// survives these).
    bad_requests: Arc<Counter>,
    /// Frame bytes read and written, envelopes included — what crossed
    /// the wire, traced or not.
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    /// `read`/`write` calls made on session sockets (timeouts that
    /// found nothing included): with `serve.requests.*` they answer
    /// "how many syscalls does a request cost".
    socket_reads: Arc<Counter>,
    socket_writes: Arc<Counter>,
    sessions_active: Arc<Gauge>,
    /// Federated-query latency decomposition: cutting the live
    /// snapshot vs evaluating against it + the warehouse.
    snapshot_build_ns: Arc<Histogram>,
    evaluate_ns: Arc<Histogram>,
    /// `Explain`'s snapshot acquisition, recorded apart from the query
    /// path so plans don't pollute `serve.snapshot_build_ns`.
    explain_snapshot_ns: Arc<Histogram>,
    /// Epoch-cache outcomes for query/explain snapshot acquisitions.
    snapshot_cache_hits: Arc<Counter>,
    snapshot_cache_misses: Arc<Counter>,
    /// Continuous queries registered right now.
    subscriptions_active: Arc<Gauge>,
    /// Live [`Subscription`] objects (drop-guard maintained, the
    /// `sessions_active` idiom): stays high while an unregistered
    /// subscription's queue is still being flushed, so Health sees the
    /// push tier's true load.
    subscribers_active: Arc<Gauge>,
    /// Notification frames written to subscribers.
    notifications_pushed: Arc<Counter>,
    /// Subscribers dropped for falling behind their queue bound.
    subscribers_dropped: Arc<Counter>,
    /// Undelivered episodes discarded by [`trim_backlog`].
    backlog_trimmed: Arc<Counter>,
}

impl ServeMetrics {
    fn bind(registry: MetricsRegistry) -> ServeMetrics {
        let ops = OP_NAMES
            .iter()
            .map(|name| OpMetrics {
                requests: registry.counter(&format!("serve.requests.{name}")),
                handle_ns: registry.histogram(&format!("serve.handle_ns.{name}")),
            })
            .collect();
        ServeMetrics {
            ops,
            errors: registry.counter("serve.errors"),
            frame_errors: registry.counter("serve.frame_errors"),
            bad_requests: registry.counter("serve.bad_requests"),
            bytes_in: registry.counter("serve.bytes_in"),
            bytes_out: registry.counter("serve.bytes_out"),
            socket_reads: registry.counter("serve.socket_reads"),
            socket_writes: registry.counter("serve.socket_writes"),
            sessions_active: registry.gauge("serve.sessions_active"),
            snapshot_build_ns: registry.histogram("serve.snapshot_build_ns"),
            evaluate_ns: registry.histogram("serve.evaluate_ns"),
            explain_snapshot_ns: registry.histogram("serve.explain_snapshot_ns"),
            snapshot_cache_hits: registry.counter("serve.snapshot_cache_hits"),
            snapshot_cache_misses: registry.counter("serve.snapshot_cache_misses"),
            subscriptions_active: registry.gauge("serve.subscriptions_active"),
            subscribers_active: registry.gauge("serve.subscribers_active"),
            notifications_pushed: registry.counter("serve.notifications_pushed"),
            subscribers_dropped: registry.counter("serve.subscribers_dropped"),
            backlog_trimmed: registry.counter("serve.backlog_trimmed"),
            registry,
        }
    }
}

/// The engine side of the pipeline — everything that mutates per
/// event. Queries never hold this lock while evaluating: they clone
/// the engine's epoch-cached snapshot `Arc` and leave.
struct Core {
    engine: ParallelEngine,
}

/// Episodes a single subscriber may hold queued before the server
/// declares it lagged, drops the subscription, and tells it so in-band.
const SUBSCRIBER_QUEUE_BOUND: usize = 4096;

/// Undelivered notification batches for one subscriber.
#[derive(Default)]
struct SubscriptionQueue {
    /// `(epoch, episodes)` batches in drain order.
    batches: Vec<(u64, Vec<EmittedEpisode>)>,
    /// Episodes across all queued batches (the bound's unit).
    queued: usize,
    /// The queue overflowed: contents were discarded and the owning
    /// session must error + drop the subscription.
    lagged: bool,
}

/// One session's continuous query, shared between the ingest path
/// (producer) and the owning session thread (consumer). Its lifetime
/// maintains `serve.subscribers_active` drop-guard style: incremented
/// at construction, decremented when the last `Arc` drops — so the
/// gauge counts subscriptions that still exist anywhere (registered,
/// or unregistered but draining), the way `sessions_active` counts
/// sockets rather than registrations.
struct Subscription {
    predicate: Predicate,
    queue: Mutex<SubscriptionQueue>,
    active: Arc<Gauge>,
}

impl Subscription {
    fn new(predicate: Predicate, active: Arc<Gauge>) -> Subscription {
        active.add(1);
        Subscription {
            predicate,
            queue: Mutex::new(SubscriptionQueue::default()),
            active,
        }
    }

    /// Takes every queued batch (and the lagged flag) in one swap.
    fn take_batches(&self) -> (Vec<(u64, Vec<EmittedEpisode>)>, bool) {
        let mut queue = self.queue.lock().unwrap_or_else(|p| p.into_inner());
        queue.queued = 0;
        (std::mem::take(&mut queue.batches), queue.lagged)
    }

    /// Flattens the undelivered episodes for re-injection.
    fn take_episodes(&self) -> Vec<EmittedEpisode> {
        let (batches, _) = self.take_batches();
        batches.into_iter().flat_map(|(_, eps)| eps).collect()
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.active.add(-1);
    }
}

/// State shared by the listener, the workers, and the handle.
struct Shared {
    core: Mutex<Core>,
    /// The warehouse tier. Readers (query ops) share; checkpoint and
    /// shutdown flushes take the write side. Lock order is always
    /// core → warehouse when both are held.
    warehouse: RwLock<Flusher>,
    /// Registered continuous queries by session id. Lock order is
    /// core → subscriptions when both are held (the ingest fan-out).
    subscriptions: Mutex<HashMap<u64, Arc<Subscription>>>,
    shutdown: AtomicBool,
    sessions_accepted: AtomicU64,
    next_session_id: AtomicU64,
    /// The bound address, kept so any thread can nudge a blocked
    /// `accept` awake after flipping the shutdown flag.
    addr: SocketAddr,
    metrics: ServeMetrics,
    /// When the server started (Health's uptime origin).
    started: Instant,
    /// Finished span trees, served by the `Trace` op.
    recorder: TraceRecorder,
    /// The background metrics sampler, when enabled.
    sampler: Option<Sampler>,
    /// Milliseconds after `started` at which the last successful
    /// checkpoint (or shutdown flush) committed; `u64::MAX` = never.
    last_checkpoint_ms: AtomicU64,
    /// `engine.queue_depth.w{i}` handles, resolved once, in worker
    /// order — Health's per-worker ingest-lag column.
    worker_queue_depths: Vec<Arc<Gauge>>,
}

/// A running server: listener + session-worker pool around one shared
/// ingest→query pipeline. Dropping without [`Server::join`] still shuts
/// the threads down (best-effort); the graceful path is a client
/// [`Request::Shutdown`] followed by `join`.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, opens (or recovers) the warehouse, spawns the engine and
    /// the thread pool, and starts accepting.
    pub fn start(config: ServerConfig) -> Result<Server, ServeError> {
        let registry = config.metrics.clone().unwrap_or_default();
        if let Some(threshold) = config.slow_query_threshold {
            registry.set_slow_threshold_ns(threshold.as_nanos().min(u128::from(u64::MAX)) as u64);
        }
        let engine_config = config
            .engine
            .with_warehouse()
            .with_metrics(registry.clone());
        let engine = ParallelEngine::new(engine_config)?;
        let (db, _report) = SegmentedDb::open(&config.warehouse_dir, config.warehouse)?;
        let db = db.with_metrics(&registry);
        let flusher = Flusher::new(db).with_metrics(&registry);

        let worker_queue_depths = (0..engine.workers())
            .map(|i| registry.gauge(&format!("engine.queue_depth.w{i}")))
            .collect();
        let sampler = config
            .sampler
            .map(|(period, capacity)| Sampler::start(registry.clone(), period, capacity));

        let listener = TcpListener::bind(config.bind)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            core: Mutex::new(Core { engine }),
            warehouse: RwLock::new(flusher),
            subscriptions: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            sessions_accepted: AtomicU64::new(0),
            next_session_id: AtomicU64::new(0),
            addr,
            metrics: ServeMetrics::bind(registry),
            started: Instant::now(),
            recorder: TraceRecorder::new(config.trace_capacity),
            sampler,
            last_checkpoint_ms: AtomicU64::new(u64::MAX),
            worker_queue_depths,
        });

        let (tx, rx) = sync_channel::<TcpStream>(config.backlog.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let idle_poll = config.idle_poll;
        let workers = (0..config.sessions.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("sitm-session-{i}"))
                    .spawn(move || worker_loop(&shared, &rx, idle_poll))
                    .expect("spawn session worker")
            })
            .collect();

        let listener_shared = Arc::clone(&shared);
        let listener_handle = std::thread::Builder::new()
            .name("sitm-listener".into())
            .spawn(move || listener_loop(listener, listener_shared, tx))
            .expect("spawn listener");

        Ok(Server {
            addr,
            shared,
            listener: Some(listener_handle),
            workers,
        })
    }

    /// The bound address (with the real port when `bind` used port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown from the server side (the in-process twin of a
    /// client's [`Request::Shutdown`]): flushes the warehouse, stops
    /// the listener, lets sessions drain.
    pub fn shutdown(&self) {
        flush_final(&self.shared);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        wake_listener(self.addr);
    }

    /// Waits for the listener and every session worker to finish (i.e.
    /// for a shutdown to complete and the sessions to drain), then
    /// runs one final warehouse flush: ingest batches acknowledged
    /// during the drain window (a session finishing its in-flight
    /// request *after* the shutdown handler's flush) land after the
    /// workers are down, so the post-drain flush is what makes every
    /// acknowledged closed visit durable.
    pub fn join(mut self) -> Result<(), ServeError> {
        if let Some(handle) = self.listener.take() {
            handle.join().map_err(|_| ServeError::WorkerPanicked)?;
        }
        for handle in self.workers.drain(..) {
            handle.join().map_err(|_| ServeError::WorkerPanicked)?;
        }
        flush_final(&self.shared);
        if let Some(sampler) = &self.shared.sampler {
            sampler.stop();
        }
        Ok(())
    }

    /// The server's trace recorder (e.g. to inspect trees in-process
    /// without the `Trace` wire op).
    pub fn recorder(&self) -> TraceRecorder {
        self.shared.recorder.clone()
    }

    /// The liveness report the `Health` op serves, built in-process.
    pub fn health(&self) -> HealthReport {
        build_health(&self.shared)
    }
}

/// The post-drain flush shared by [`Server::join`] and `Drop`: with
/// every session worker stopped, nothing can ingest concurrently, so
/// this cut is the server's final durable state.
fn flush_final(shared: &Shared) {
    // Lock order: core → warehouse (matches every dual-lock site).
    let mut core = shared.core.lock().unwrap_or_else(|p| p.into_inner());
    let mut warehouse = shared.warehouse.write().unwrap_or_else(|p| p.into_inner());
    let _ = warehouse.force(&mut core.engine);
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.listener.is_none() && self.workers.is_empty() {
            return; // joined already
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        wake_listener(self.addr);
        if let Some(handle) = self.listener.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        flush_final(&self.shared);
        if let Some(sampler) = &self.shared.sampler {
            sampler.stop();
        }
    }
}

/// Nudges a blocked `accept` so the listener re-checks the shutdown
/// flag (the standard std-net trick — there is no poll/select in std).
fn wake_listener(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

fn listener_loop(listener: TcpListener, shared: Arc<Shared>, tx: SyncSender<TcpStream>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // The wake-up connection (or a late client): refuse.
                    drop(stream);
                    break;
                }
                shared.sessions_accepted.fetch_add(1, Ordering::Relaxed);
                // Bounded hand-off: blocks when workers + backlog are
                // saturated (backpressure on accept, not on memory).
                if tx.send(stream).is_err() {
                    break; // workers are gone
                }
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept failure (EMFILE etc.): keep serving.
            }
        }
    }
    // Dropping `tx` lets the workers drain the queue and exit.
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<TcpStream>>, idle_poll: StdDuration) {
    loop {
        let stream = {
            let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
            guard.recv()
        };
        match stream {
            Ok(stream) => run_session(shared, stream, idle_poll),
            Err(_) => break, // listener closed the queue and it's drained
        }
    }
}

/// One session's server-side state beyond the socket: its identity in
/// the subscription registry and its (at most one) continuous query.
struct SessionState {
    id: u64,
    subscription: Option<Arc<Subscription>>,
}

/// Serves one connection until the client closes, a fatal transport
/// error occurs, or shutdown drains it. Malformed input never panics
/// and never takes the server down — worst case, this one session ends.
fn run_session(shared: &Shared, stream: TcpStream, idle_poll: StdDuration) {
    let metrics = &shared.metrics;
    metrics.sessions_active.add(1);
    // Decrement on *every* exit path (early returns included).
    struct ActiveGuard<'a>(&'a Gauge);
    impl Drop for ActiveGuard<'_> {
        fn drop(&mut self) {
            self.0.add(-1);
        }
    }
    let _active = ActiveGuard(&metrics.sessions_active);
    let mut session = SessionState {
        id: shared.next_session_id.fetch_add(1, Ordering::Relaxed),
        subscription: None,
    };
    session_loop(shared, &stream, idle_poll, &mut session);
    teardown_session(shared, &mut session);
}

/// Unregisters a session's subscription (if any) and re-injects its
/// undelivered episodes into the engine's pending pool, so a
/// subscriber crash never loses drained episodes. A lagged queue was
/// already emptied — the slow-consumer contract is the one loss path.
fn teardown_session(shared: &Shared, session: &mut SessionState) {
    let Some(sub) = session.subscription.take() else {
        return;
    };
    {
        let mut subs = shared
            .subscriptions
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        subs.remove(&session.id);
    }
    shared.metrics.subscriptions_active.add(-1);
    // The registry entry is gone, so no producer can enqueue anymore:
    // this swap observes the queue's final state.
    let undelivered = sub.take_episodes();
    if !undelivered.is_empty() {
        let mut core = shared.core.lock().unwrap_or_else(|p| p.into_inner());
        core.engine.requeue_pending(undelivered);
    }
}

/// Writes every queued notification for this session's subscription,
/// then handles the lagged case: in-band error, drop the subscription
/// (no re-inject — the overflow already discarded the backlog), keep
/// the session. `Err` means the transport failed and the session ends.
fn flush_notifications(
    shared: &Shared,
    replies: &mut ReplyWriter<'_>,
    session: &mut SessionState,
) -> std::io::Result<()> {
    let Some(sub) = &session.subscription else {
        return Ok(());
    };
    let (batches, lagged) = sub.take_batches();
    for (epoch, episodes) in batches {
        shared.metrics.notifications_pushed.inc();
        respond(
            replies,
            &Reply::Message(Response::Notification { epoch, episodes }),
            &shared.metrics,
        )?;
    }
    if lagged {
        {
            let mut subs = shared
                .subscriptions
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            subs.remove(&session.id);
        }
        session.subscription = None;
        shared.metrics.subscriptions_active.add(-1);
        shared.metrics.subscribers_dropped.inc();
        respond(
            replies,
            &Reply::error(
                "subscription lagged: the notification queue overflowed and was dropped; \
                 re-subscribe to resume",
            ),
            &shared.metrics,
        )?;
    }
    Ok(())
}

/// A session's write half: the (counted) socket, the output buffer
/// every reply of the session is assembled in, and the buffer a
/// `Query` / `QueryFederated` collects its page's row bytes in.
struct ReplyWriter<'a> {
    socket: CountedIo<'a, &'a TcpStream>,
    out: Vec<u8>,
    /// The rows of a [`Reply::Page`], end to end, each in its stored
    /// encoding. Filled by the handler, framed by [`respond`], and —
    /// like `out` — reused across replies and freed past 1 MiB.
    page: Vec<u8>,
}

/// What a handler answers with.
enum Reply {
    /// A message to encode.
    Message(Response),
    /// A `Query` / `QueryFederated` page: `rows` trajectories, already in their
    /// wire encoding, in the session's [`ReplyWriter::page`]. On the
    /// wire it is the [`Response::Trajectories`] of those rows.
    Page { rows: u64 },
}

impl Reply {
    fn error(text: impl Into<String>) -> Reply {
        Reply::Message(Response::Error(text.into()))
    }
}

fn session_loop(
    shared: &Shared,
    stream: &TcpStream,
    idle_poll: StdDuration,
    session: &mut SessionState,
) {
    let metrics = &shared.metrics;
    let _ = stream.set_read_timeout(Some(idle_poll));
    let _ = stream.set_nodelay(true);
    // Both halves borrow the one socket (`&TcpStream` is `Read` and
    // `Write`); the buffers they own live exactly as long as the
    // session.
    let mut requests = FrameReader::new(CountedIo::new(stream, &metrics.socket_reads));
    let replies = &mut ReplyWriter {
        socket: CountedIo::new(stream, &metrics.socket_writes),
        out: Vec::new(),
        page: Vec::new(),
    };
    loop {
        let (decoded, trace_context) = match requests.read_or_idle() {
            Ok(Some(frame)) => {
                metrics.bytes_in.add(frame.wire_len as u64);
                (decode_request(&mut frame.payload()), frame.trace)
            }
            Ok(None) => {
                // Idle: push queued notifications, then the safe
                // drain point between frames.
                if flush_notifications(shared, replies, session).is_err() {
                    return;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(WireError::Closed) => return,
            Err(err) => {
                // Torn or corrupt frame: answer if the transport still
                // works, then drop this session only. Exactly one
                // frame-error count per torn connection.
                metrics.frame_errors.inc();
                let _ = respond(replies, &Reply::error(format!("bad frame: {err}")), metrics);
                return;
            }
        };
        let request = match decoded {
            Ok(request) => request,
            Err(err) => {
                // A well-framed but undecodable payload: the stream is
                // still in sync (framing is self-delimiting), so the
                // session survives the error response.
                metrics.bad_requests.inc();
                if respond(
                    replies,
                    &Reply::error(format!("bad request: {err}")),
                    metrics,
                )
                .is_err()
                {
                    return;
                }
                continue;
            }
        };
        let is_shutdown = matches!(request, Request::Shutdown);
        let op = op_index(&request);
        metrics.ops[op].requests.inc();
        // Render slow-log detail only when the log is armed — the
        // rendering (Debug of the request) is not hot-path free.
        let slow_armed = metrics.registry.slow_threshold_ns() < u64::MAX;
        let detail = slow_armed.then(|| {
            let mut s = format!("{request:?}");
            s.truncate(160);
            s
        });
        // The root span covers handle → notification flush → response
        // write; a context from a traced envelope is adopted (one trace
        // id across a federation fan-out) and gets the full detail-span
        // breakdown — that caller asked about this request — while
        // locally-generated traces sample detail 1-in-N. With tracing
        // disabled (capacity 0) `begin` returns `None` and every
        // child-span call below stays inert.
        let _root = match trace_context {
            Some(ctx) => shared.recorder.begin_detailed(OP_NAMES[op], ctx),
            None => shared
                .recorder
                .begin(OP_NAMES[op], TraceContext::generate()),
        };
        let started = Instant::now();
        let reply = {
            let _handle = trace::child("handle");
            handle_request(shared, request, session, &mut replies.page)
        };
        let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        metrics.ops[op].handle_ns.record(elapsed_ns);
        if slow_armed {
            metrics
                .registry
                .record_slow_with(OP_NAMES[op], elapsed_ns, || detail.unwrap_or_default());
        }
        if matches!(reply, Reply::Message(Response::Unsubscribed)) {
            // The handler already unregistered the subscription, so
            // its queue is quiescent: flush what's left to the client,
            // then drop it — nothing re-injects on a clean unsubscribe.
            if flush_notifications(shared, replies, session).is_err() {
                return;
            }
            if session.subscription.take().is_some() {
                metrics.subscriptions_active.add(-1);
            }
        } else if flush_notifications(shared, replies, session).is_err() {
            return;
        }
        if respond(replies, &reply, metrics).is_err() {
            return;
        }
        if is_shutdown {
            shared.shutdown.store(true, Ordering::SeqCst);
            wake_listener(shared.addr);
            return;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // drain: finish the in-flight request, then close
        }
    }
}

/// Encodes `reply` straight after the header reserved in the session's
/// output buffer — a message through [`encode_response`], a page by
/// copying its already-encoded rows behind the `Trajectories` header —
/// and sends the frame with one `write_all`.
fn respond(
    replies: &mut ReplyWriter<'_>,
    reply: &Reply,
    metrics: &ServeMetrics,
) -> std::io::Result<()> {
    let _wire = trace::child("wire_write");
    let out = &mut replies.out;
    begin_frame(out, None);
    match reply {
        Reply::Message(response) => encode_response(out, response),
        Reply::Page { rows } => {
            begin_trajectories(out, *rows);
            out.extend_from_slice(&replies.page);
            release_if_large(&mut replies.page);
        }
    }
    let mut is_error = matches!(reply, Reply::Message(Response::Error(_)));
    if finish_frame(out).is_err() {
        // A result set too large for one frame must not kill the
        // session (or, worse, panic the worker): downgrade to an
        // in-band error telling the caller to page.
        begin_frame(out, None);
        encode_response(
            out,
            &Response::Error(
                "response exceeds the frame bound; narrow the query or add a limit/offset page"
                    .into(),
            ),
        );
        finish_frame(out)?;
        is_error = true;
    }
    if is_error {
        metrics.errors.inc();
    }
    metrics.bytes_out.add(out.len() as u64);
    let sent = replies.socket.write_all(out);
    release_if_large(out);
    sent
}

/// Answers both query ops: the page is collected as bytes in the
/// session's page buffer by the query crate's one paging core — a row
/// of a hydrated segment copied in its stored encoding, any other row
/// encoded from the borrow, nothing cloned — and [`respond`] frames it
/// as `Trajectories`. The ops differ only in their sources and tie
/// rule (PROTOCOL.md §Requests).
///
/// `Query` is warehouse-only: the immutable segment tier needs no core
/// lock at all — concurrent queries share the read side — and the
/// handler *is* the evaluation (no snapshot cut, no flush), so the
/// coarse `handle` span already tells the whole story and `evaluate`
/// rides the detail tier. `QueryFederated` carries the RTT
/// decomposition: acquiring the live snapshot (cache hit: an `Arc`
/// clone; miss: quiesce + cut) vs evaluating over live ∪ warehouse,
/// both outside the core lock; the remainder of the client-observed
/// RTT is wire + framing.
fn query_page(
    shared: &Shared,
    wire_query: &WireQuery,
    federated: bool,
    page: &mut Vec<u8>,
) -> Reply {
    let query = wire_query.to_query();
    page.clear();
    let rows = if federated {
        let build = Instant::now();
        let (snapshot, _cached, warehouse) = {
            let _cut = trace::child("snapshot_cut");
            acquire_read_set(shared)
        };
        let build_ns = u64::try_from(build.elapsed().as_nanos()).unwrap_or(u64::MAX);
        shared.metrics.snapshot_build_ns.record(build_ns);
        let eval = Instant::now();
        let rows = {
            let _eval = trace::child("evaluate");
            query.execute_federated_encoded(&[&*snapshot, warehouse.db()], page)
        };
        let eval_ns = u64::try_from(eval.elapsed().as_nanos()).unwrap_or(u64::MAX);
        shared.metrics.evaluate_ns.record(eval_ns);
        // The snapshot Arc is shared with the engine's cache: our
        // clone drops here without freeing anything, so evaluate_ns
        // does not carry the cut's dealloc.
        rows
    } else {
        let warehouse = shared.warehouse.read().unwrap_or_else(|p| p.into_inner());
        let _eval = trace::child_detail("evaluate");
        query.execute_segmented_encoded(warehouse.db(), page)
    };
    Reply::Page { rows: rows as u64 }
}

/// Acquires the consistent read set for a federated query/explain:
/// under the core lock, clone the engine's epoch-cached snapshot `Arc`
/// and take the warehouse read guard; then release the core. Taking
/// the warehouse guard *before* the core unlocks is what keeps the cut
/// atomic — a checkpoint needs the write side, so no visit can move
/// live → warehouse between the snapshot and the guard (no double
/// count, no gap).
fn acquire_read_set<'a>(
    shared: &'a Shared,
) -> (
    Arc<LiveSnapshot>,
    bool,
    std::sync::RwLockReadGuard<'a, Flusher>,
) {
    let mut core = shared.core.lock().unwrap_or_else(|p| p.into_inner());
    let (snapshot, cached) = core.engine.live_snapshot_cached();
    let warehouse = shared.warehouse.read().unwrap_or_else(|p| p.into_inner());
    if cached {
        shared.metrics.snapshot_cache_hits.inc();
    } else {
        shared.metrics.snapshot_cache_misses.inc();
    }
    (snapshot, cached, warehouse)
}

/// The ingest barrier's push half: while subscriptions exist, drain
/// the engine's emitted-episode backlog, stamp the epoch the barrier
/// advanced to, and enqueue the delta on every subscriber whose
/// predicate does not provably reject it. Runs under the core lock;
/// takes subscriptions after it (the documented order).
fn notify_subscribers(shared: &Shared, engine: &mut ParallelEngine) {
    let subs = shared
        .subscriptions
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    if subs.is_empty() {
        // No subscribers → the barrier must not consume the backlog;
        // polling consumers (`drain` via checkpointed replay) keep it.
        return;
    }
    let episodes = engine.drain();
    let epoch = engine.epoch();
    if episodes.is_empty() {
        return;
    }
    for sub in subs.values() {
        let matched: Vec<EmittedEpisode> = episodes
            .iter()
            .filter(|e| {
                sub.predicate.delta_may_match(
                    &e.moving_object,
                    &e.episode.annotations,
                    e.episode.time,
                )
            })
            .cloned()
            .collect();
        if matched.is_empty() {
            continue;
        }
        let mut queue = sub.queue.lock().unwrap_or_else(|p| p.into_inner());
        if queue.lagged {
            continue; // already overflowed; awaiting the owner's drop
        }
        queue.queued += matched.len();
        queue.batches.push((epoch, matched));
        if queue.queued > SUBSCRIBER_QUEUE_BOUND {
            // Slow consumer: discard the backlog and flag. The owning
            // session errors + drops the subscription at its next
            // flush — the one sanctioned loss path.
            queue.batches.clear();
            queue.queued = 0;
            queue.lagged = true;
        }
    }
}

/// Bounds the undelivered-episode pool while nobody subscribes: with a
/// subscription every ingest barrier drains it, without one nothing
/// does, and a first subscriber handed more than its queue bound in one
/// barrier would be dropped as lagged on arrival. Keeps the newest
/// half-bound (drain order is episode time, oldest first). Runs at
/// `Checkpoint`, under the core lock a `Subscribe` needs to register.
fn trim_backlog(shared: &Shared, engine: &mut ParallelEngine) {
    let subscribed = !shared
        .subscriptions
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .is_empty();
    if subscribed {
        return;
    }
    let trimmed = engine.trim_pending(SUBSCRIBER_QUEUE_BOUND / 2);
    shared.metrics.backlog_trimmed.add(trimmed as u64);
}

/// Executes one request. Ingest, checkpoint, shutdown, and
/// subscription registration serialize on the core mutex; the query
/// ops acquire their read set under it and evaluate *outside* it.
/// Every failure becomes a [`Response::Error`]; nothing here may panic
/// on bad input.
fn handle_request(
    shared: &Shared,
    request: Request,
    session: &mut SessionState,
    page: &mut Vec<u8>,
) -> Reply {
    Reply::Message(match request {
        Request::IngestBatch(events) => {
            let n = events.len() as u64;
            let mut core = shared.core.lock().unwrap_or_else(|p| p.into_inner());
            core.engine.ingest_all(events);
            notify_subscribers(shared, &mut core.engine);
            Response::Ingested { events: n }
        }
        Request::Query(wire_query) => return query_page(shared, &wire_query, false, page),
        Request::QueryFederated(wire_query) => return query_page(shared, &wire_query, true, page),
        Request::Explain(predicate) => Response::Explained(explain(shared, &predicate)),
        Request::Stats => {
            let stats = {
                let mut core = shared.core.lock().unwrap_or_else(|p| p.into_inner());
                core.engine.stats()
            };
            // The breakdowns decode nothing: segment totals come from
            // the warehouse's header-frame rollups, the live tier folds
            // through the (epoch-cached) snapshot, and the two merge
            // component-wise.
            let (snapshot, _cached, warehouse) = acquire_read_set(shared);
            let mut merged = SegmentRollup::new(DEFAULT_ROLLUP_PERIOD_SECONDS);
            for visit in &snapshot.visits {
                merged.add(&visit.trajectory);
            }
            for (cell, agg) in warehouse.db().rollup_cells() {
                merged.cells.entry(cell).or_default().merge(&agg);
            }
            for (bucket, count) in warehouse.db().rollup_occupancy() {
                *merged.periods.entry(bucket).or_insert(0) += count;
            }
            Response::Stats {
                stats: ServerStats {
                    events: stats.events,
                    presences: stats.presences,
                    visits_opened: stats.visits_opened,
                    visits_closed: stats.visits_closed,
                    episodes: stats.episodes,
                    anomalies: stats.anomalies.total(),
                    open_visits: stats.open_visits,
                    warehouse_trajectories: warehouse.db().len() as u64,
                    warehouse_segments: warehouse.db().segments().len() as u64,
                    sessions_accepted: shared.sessions_accepted.load(Ordering::Relaxed),
                    sessions_active: shared.metrics.sessions_active.get().max(0) as u64,
                },
                rollup: StatsRollup {
                    period_seconds: merged.period_seconds,
                    cells: merged.cells.into_iter().collect(),
                    periods: merged.periods.into_iter().collect(),
                },
            }
        }
        Request::Checkpoint => {
            let mut core = shared.core.lock().unwrap_or_else(|p| p.into_inner());
            trim_backlog(shared, &mut core.engine);
            let mut warehouse = shared.warehouse.write().unwrap_or_else(|p| p.into_inner());
            match warehouse.force(&mut core.engine) {
                Ok(spilled) => {
                    mark_checkpoint(shared);
                    Response::Checkpointed {
                        spilled: spilled as u64,
                        warehouse_trajectories: warehouse.db().len() as u64,
                        manifest_sequence: warehouse.db().store().sequence(),
                    }
                }
                Err(err) => Response::Error(format!("checkpoint failed: {err}")),
            }
        }
        Request::Shutdown => {
            let mut core = shared.core.lock().unwrap_or_else(|p| p.into_inner());
            let mut warehouse = shared.warehouse.write().unwrap_or_else(|p| p.into_inner());
            match warehouse.force(&mut core.engine) {
                // The session loop flips the flag *after* this response
                // is on the wire, so the acknowledgement always arrives.
                Ok(_) => {
                    mark_checkpoint(shared);
                    Response::ShuttingDown
                }
                Err(err) => Response::Error(format!("shutdown flush failed: {err}")),
            }
        }
        Request::Metrics => Response::Metrics(shared.metrics.registry.snapshot()),
        Request::Subscribe(wire_query) => {
            // Register under the core lock so the acknowledged epoch
            // is exact: every later barrier (which needs this lock)
            // notifies this subscription with a strictly greater epoch.
            let mut core = shared.core.lock().unwrap_or_else(|p| p.into_inner());
            let epoch = core.engine.epoch();
            let sub = Arc::new(Subscription::new(
                wire_query.predicate,
                Arc::clone(&shared.metrics.subscribers_active),
            ));
            {
                let mut subs = shared
                    .subscriptions
                    .lock()
                    .unwrap_or_else(|p| p.into_inner());
                subs.insert(session.id, Arc::clone(&sub));
            }
            if let Some(old) = session.subscription.replace(sub) {
                // Re-subscribe replaces the query; the old queue's
                // undelivered episodes go back to the pending pool
                // rather than silently vanishing.
                let undelivered = old.take_episodes();
                core.engine.requeue_pending(undelivered);
            } else {
                shared.metrics.subscriptions_active.add(1);
            }
            Response::Subscribed { epoch }
        }
        Request::Unsubscribe => {
            // Unregister only; the session loop flushes the (now
            // quiescent) queue to the client before this ack goes out.
            if session.subscription.is_some() {
                let mut subs = shared
                    .subscriptions
                    .lock()
                    .unwrap_or_else(|p| p.into_inner());
                subs.remove(&session.id);
            }
            Response::Unsubscribed
        }
        Request::Health => Response::Health(build_health(shared)),
        Request::Trace { limit } => {
            // Cap at the ring capacity's practical ceiling so a hostile
            // limit cannot drive allocation.
            let limit = usize::try_from(limit).unwrap_or(usize::MAX).min(4096);
            Response::Traces(shared.recorder.recent(limit))
        }
    })
}

/// Stamps "a checkpoint committed now" for Health's checkpoint age.
fn mark_checkpoint(shared: &Shared) {
    let ms = u64::try_from(shared.started.elapsed().as_millis()).unwrap_or(u64::MAX - 1);
    shared.last_checkpoint_ms.store(ms, Ordering::Relaxed);
}

/// Assembles the `Health` report from state the server already
/// maintains: one brief core lock for the epoch, one warehouse read
/// guard for the backlog and segment shape, and relaxed gauge/counter
/// loads for the rest — cheap enough to poll at the sampler period.
fn build_health(shared: &Shared) -> HealthReport {
    let uptime_ms = u64::try_from(shared.started.elapsed().as_millis()).unwrap_or(u64::MAX);
    let epoch = {
        let mut core = shared.core.lock().unwrap_or_else(|p| p.into_inner());
        core.engine.epoch()
    };
    let (flush_backlog_trajectories, warehouse_trajectories, warehouse_segments) = {
        let warehouse = shared.warehouse.read().unwrap_or_else(|p| p.into_inner());
        (
            warehouse.backlog() as u64,
            warehouse.db().len() as u64,
            warehouse.db().segments().len() as u64,
        )
    };
    let last_checkpoint_age_ms = match shared.last_checkpoint_ms.load(Ordering::Relaxed) {
        u64::MAX => None,
        at_ms => Some(uptime_ms.saturating_sub(at_ms)),
    };
    let events_per_sec_milli = shared
        .sampler
        .as_ref()
        .and_then(|s| s.ring().last_pair())
        .and_then(|(a, b)| rate_per_sec(&a, &b, "engine.events_ingested"))
        .map_or(0, |rate| (rate * 1000.0) as u64);
    HealthReport {
        uptime_ms,
        epoch,
        sessions_accepted: shared.sessions_accepted.load(Ordering::Relaxed),
        sessions_active: shared.metrics.sessions_active.get().max(0) as u64,
        subscribers_active: shared.metrics.subscribers_active.get().max(0) as u64,
        flush_backlog_trajectories,
        worker_queue_depths: shared
            .worker_queue_depths
            .iter()
            .map(|g| g.get().max(0) as u64)
            .collect(),
        last_checkpoint_age_ms,
        warehouse_segments,
        warehouse_trajectories,
        traces_recorded: shared.recorder.recorded(),
        events_per_sec_milli,
    }
}

/// Plans `predicate` over live ∪ warehouse: the live tier's access
/// path (`TrajectorySource::plan`), then the warehouse's
/// access path and zone-map / Bloom pruning counts from one
/// [`SegmentedDb::explain`].
/// Evaluates outside the core lock, like the query ops, and records
/// its snapshot acquisition into `serve.explain_snapshot_ns` so plans
/// don't pollute the query path's `serve.snapshot_build_ns`.
fn explain(shared: &Shared, predicate: &Predicate) -> ExplainReport {
    let build = Instant::now();
    let (snapshot, snapshot_cached, warehouse) = {
        let _cut = trace::child("snapshot_cut");
        acquire_read_set(shared)
    };
    let snapshot_build_ns = u64::try_from(build.elapsed().as_nanos()).unwrap_or(u64::MAX);
    shared.metrics.explain_snapshot_ns.record(snapshot_build_ns);
    let db: &SegmentedDb = warehouse.db();
    let eval = Instant::now();
    let _eval_span = trace::child("evaluate");
    // One plan per source, in federation order. The warehouse is
    // planned once: its `SegmentedPlan` carries the candidate count the
    // wire plan needs beside the pruning counts, and planning it moves
    // no per-query instrument.
    let segmented = db.explain(predicate);
    let plans = vec![
        WirePlan {
            candidates: snapshot.plan(predicate).map(|c| c as u64),
            total: snapshot.len_hint() as u64,
        },
        WirePlan {
            candidates: segmented.candidates.map(|c| c as u64),
            total: segmented.total as u64,
        },
    ];
    let evaluate_ns = u64::try_from(eval.elapsed().as_nanos()).unwrap_or(u64::MAX);
    shared.metrics.evaluate_ns.record(evaluate_ns);
    // Cold-tier I/O attribution: cumulative counters at explain time
    // (bound to the server's registry by the pipeline), so a client can
    // difference two Explains around a query to see what it cost.
    let registry = &shared.metrics.registry;
    ExplainReport {
        plans,
        segments: segmented.segments as u64,
        zone_pruned: segmented.pruned as u64,
        bloom_pruned: segmented.bloom_pruned as u64,
        object_pruned: segmented.object_pruned as u64,
        segment_bytes_read: registry.counter("query.segment_bytes_read").get(),
        trajectories_decoded: registry.counter("query.trajectories_decoded").get(),
        lazy_opens: registry.counter("store.lazy_opens").get(),
        row_cache_hits: registry.counter("query.row_cache_hits").get(),
        row_cache_misses: registry.counter("query.row_cache_misses").get(),
        snapshot_build_ns,
        evaluate_ns,
        snapshot_cached,
    }
}
