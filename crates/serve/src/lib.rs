#![warn(missing_docs)]

//! # sitm-serve
//!
//! The network tier: a concurrent TCP server (and its blocking client)
//! exposing the full ingest → query pipeline — [`sitm_stream`]'s
//! work-stealing engine, live snapshots, and the
//! [`sitm_query::SegmentedDb`] warehouse — to remote applications. This
//! is the layer the paper's model exists to feed: stays, moves, and
//! annotated episodes *served* to clients (the service surface the
//! moving-object meta-model and trajectory-warehouse lines of the
//! related work presuppose), rather than reachable only in-process.
//!
//! * [`wire`] — the framed transport: every message rides the same
//!   `marker | len | crc32 | payload` envelope the storage tier
//!   torture-tests, so torn and corrupted frames are detected before
//!   any decoding; a second marker (`0x5B`) carries an optional
//!   16-byte trace-context prefix so one trace id follows a request
//!   across federation hops; a message is assembled in place and
//!   leaves in one write, and arrives through a buffered reader in
//!   (usually) one read, with per-connection buffers reused;
//! * [`proto`] — the request/response vocabulary ([`Request`],
//!   [`Response`]) and its fully validated payload codec: ingest
//!   batches of [`sitm_stream::StreamEvent`]s, warehouse and federated
//!   queries ([`sitm_query::wire::WireQuery`]), plans, stats,
//!   checkpoints, graceful shutdown;
//! * [`server`] — [`Server`]: a listener thread plus a bounded
//!   session-worker pool (the parallel engine's bounded-channel
//!   backpressure idiom at the accept layer) around one shared
//!   [`sitm_stream::ParallelEngine`] and one
//!   [`sitm_stream::Flusher`]-fed warehouse;
//! * [`client`] — [`Client`]: blocking, reconnect-safe on the send
//!   side, one session per instance (run one per thread to load a
//!   server, as the `ledger` benchmark's workloads do).
//!
//! ## The served pipeline
//!
//! ```text
//! client ─IngestBatch─▶ ParallelEngine (live tier: open visits)
//!                         │ close + fence          │ live_snapshot()
//!                         ▼                        ▼
//!                  finished backlog         QueryFederated ══▶ results
//!                         │ Checkpoint             ▲   (live ∪ warehouse,
//!                         ▼                        │    sorted / paged)
//!                  Flusher ─▶ SegmentedDb ─────────┘
//!                  (immutable segments, zone maps, manifest)
//! ```
//!
//! Failure containment is per-session: a torn frame, a hostile length,
//! or an undecodable payload costs exactly one connection (answered
//! with [`Response::Error`] when the transport still stands) — the
//! listener, the other sessions, and the engine underneath keep
//! serving. `tests/wire_torture.rs` tears a request at every byte
//! offset against a live server to pin this down.
//!
//! ## Observability
//!
//! Every server owns a fresh [`sitm_obs::MetricsRegistry`] (injectable
//! via [`ServerConfig::with_metrics`]) threaded through the engine, the
//! flusher, and the warehouse, plus the serve tier's own instruments:
//! per-op `serve.requests.{op}` counters and `serve.handle_ns.{op}`
//! histograms, `serve.bytes_in`/`serve.bytes_out`,
//! `serve.socket_reads`/`serve.socket_writes` (syscalls per request),
//! `serve.errors`/`serve.frame_errors`/`serve.bad_requests`, a
//! `serve.sessions_active` gauge, and the federated-latency split
//! `serve.snapshot_build_ns`/`serve.evaluate_ns`. [`Request::Metrics`]
//! returns the whole registry as a versioned snapshot
//! ([`Client::metrics`]); [`ServerConfig::with_slow_query_threshold`]
//! arms the slow-query ring buffer carried in the same snapshot.
//!
//! On top of metrics, every served request records a hierarchical
//! trace tree (root → `handle` → `snapshot_cut`/`evaluate`/pushdown
//! tiers → `wire_write`) into a bounded [`sitm_obs::trace`] ring,
//! fetched over the wire with [`Request::Trace`]. [`Request::Health`]
//! answers with tier lag and the ingest rate over its latest
//! [`sitm_obs::health::RateWindow`] — two readings of one counter, no
//! background thread ([`Client::health`] / [`Client::traces`]). A client that already
//! holds a trace context (a federation fan-out) propagates it with
//! [`Client::call_traced`] so the server-side tree joins the caller's
//! trace instead of starting a fresh one.
//!
//! Consistency over the wire is exactly the in-process contract:
//! `QueryFederated` evaluates over a snapshot-consistent live cut
//! unioned with the newest committed warehouse manifest, by the same
//! paging core — under the same ordering contract — as the embedded
//! `Query::execute_federated` (its byte sink,
//! `Query::execute_federated_encoded`, assembles the reply); the
//! differential test in `tests/server.rs` pins served results ==
//! in-process results on identical input.

pub mod client;
pub mod proto;
pub mod server;
pub mod wire;

pub use client::{Client, ClientStats, Notification, Subscriber};
pub use proto::{
    decode_episode, decode_request, decode_response, encode_episode, encode_request,
    encode_response, ExplainReport, Request, Response, ServerStats, StatsRollup, WirePlan,
};
pub use server::{Server, ServerConfig};
pub use wire::{
    read_frame, read_message, write_frame, write_traced_frame, WireError, WireMessage,
    TRACED_FRAME_MARKER, TRACE_ENVELOPE_BYTES,
};

use sitm_store::CodecError;

/// Anything that can go wrong serving or calling.
#[derive(Debug)]
pub enum ServeError {
    /// Socket/transport failure.
    Io(std::io::Error),
    /// Framing failure (torn frame, checksum mismatch, peer closed).
    Wire(WireError),
    /// A payload failed validation.
    Codec(CodecError),
    /// Engine construction/restore failure.
    Engine(sitm_stream::EngineError),
    /// Warehouse tier failure.
    Warehouse(sitm_store::warehouse::WarehouseError),
    /// The server answered with an error message.
    Remote(String),
    /// The server answered with a response of the wrong shape.
    Protocol(String),
    /// A server thread panicked (surfaced at join).
    WorkerPanicked,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io: {e}"),
            ServeError::Wire(e) => write!(f, "wire: {e}"),
            ServeError::Codec(e) => write!(f, "codec: {e}"),
            ServeError::Engine(e) => write!(f, "engine: {e}"),
            ServeError::Warehouse(e) => write!(f, "warehouse: {e}"),
            ServeError::Remote(message) => write!(f, "server error: {message}"),
            ServeError::Protocol(message) => write!(f, "protocol violation: {message}"),
            ServeError::WorkerPanicked => write!(f, "a server thread panicked"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}

impl From<CodecError> for ServeError {
    fn from(e: CodecError) -> Self {
        ServeError::Codec(e)
    }
}

impl From<sitm_stream::EngineError> for ServeError {
    fn from(e: sitm_stream::EngineError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<sitm_store::warehouse::WarehouseError> for ServeError {
    fn from(e: sitm_store::warehouse::WarehouseError) -> Self {
        ServeError::Warehouse(e)
    }
}
