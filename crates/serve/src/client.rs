//! The blocking client.
//!
//! [`Client`] speaks the framed request/response protocol over one TCP
//! connection, lazily (re)established. It is **reconnect-safe on the
//! send side**: a request that fails while connecting or while writing
//! the frame is retried once on a fresh connection — at that point the
//! server cannot have observed it, so the retry is exact-once. A
//! failure while *reading the response* is **not** retried: the server
//! may already have applied the request (an ingest batch, a checkpoint),
//! and a blind replay would double it. Callers that want at-least-once
//! ingest semantics retry explicitly and deduplicate by visit key.
//!
//! One client drives one session; concurrency comes from running one
//! client per thread (`tests/concurrent_sessions.rs` drives N of them
//! against one server).
//!
//! A round trip is one socket write and (for a reply that fits the
//! 64 KiB read buffer) one socket read, with no allocation in steady
//! state: the client owns an output buffer the request is encoded into
//! behind its reserved frame header, and the connection is a frame
//! reader (see [`crate::wire`]) that owns the stream, its read buffer
//! and the payload buffer the response is decoded from. Whatever the
//! reader had buffered is dropped with the connection on reconnect, so
//! bytes of a dead session never reach a new one; either message
//! buffer is freed after a message that grew it past 1 MiB.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration as StdDuration;

use sitm_core::SemanticTrajectory;
use sitm_obs::health::HealthReport;
use sitm_obs::trace::{TraceContext, TraceTree};
use sitm_obs::MetricsSnapshot;
use sitm_query::wire::WireQuery;
use sitm_query::Predicate;
use sitm_stream::{EmittedEpisode, StreamEvent};

use crate::proto::{
    decode_response, encode_request, ExplainReport, Request, Response, ServerStats, StatsRollup,
};
use crate::wire::{begin_frame, finish_frame, release_if_large, write_frame, FrameReader};
use crate::ServeError;

/// Client-side transport counters (see [`Client::stats`]). These count
/// what the *client* observed — complementary to the server-side
/// `serve.*` metrics fetched via [`Client::metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests attempted (each [`Client::call`], counted once even
    /// when the send is retried on a fresh connection).
    pub requests: u64,
    /// Fresh connections established after the initial one — send-side
    /// retries plus reads that tore the connection down.
    pub reconnects: u64,
    /// Requests refused locally for exceeding the frame bound (never
    /// reached the wire).
    pub oversized_refused: u64,
    /// Response frames received but not decodable.
    pub decode_errors: u64,
}

/// A blocking, reconnect-safe connection to a [`crate::Server`].
pub struct Client {
    addr: SocketAddr,
    /// The connection: the reader owns the stream (and whatever it has
    /// buffered from it — both go when the connection does); requests
    /// are written through [`FrameReader::get_ref`].
    conn: Option<FrameReader<TcpStream>>,
    /// The request frame, assembled in place and reused across calls.
    out: Vec<u8>,
    stats: ClientStats,
}

impl Client {
    /// Connects eagerly (fails fast when the server is down).
    pub fn connect(addr: SocketAddr) -> Result<Client, ServeError> {
        let mut client = Client {
            addr,
            conn: None,
            out: Vec::new(),
            stats: ClientStats::default(),
        };
        client.ensure_connected()?;
        // The eager connect is the baseline, not a reconnect.
        client.stats.reconnects = 0;
        Ok(client)
    }

    /// The server address this client targets.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This client's transport counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    fn ensure_connected(&mut self) -> Result<(), ServeError> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            self.conn = Some(FrameReader::new(stream));
            self.stats.reconnects += 1;
        }
        Ok(())
    }

    /// One request/response round trip (see the module docs for the
    /// retry contract).
    pub fn call(&mut self, request: &Request) -> Result<Response, ServeError> {
        self.call_inner(request, None)
    }

    /// Like [`Client::call`], but the request rides a traced envelope
    /// carrying `ctx` — the server adopts that trace id and parent span
    /// instead of generating fresh ones, so the resulting server-side
    /// trace tree joins the caller's trace (the federation fan-out
    /// contract; see `sitm_obs::trace::current_context`).
    pub fn call_traced(
        &mut self,
        request: &Request,
        ctx: TraceContext,
    ) -> Result<Response, ServeError> {
        self.call_inner(request, Some(ctx))
    }

    fn call_inner(
        &mut self,
        request: &Request,
        ctx: Option<TraceContext>,
    ) -> Result<Response, ServeError> {
        self.stats.requests += 1;
        begin_frame(&mut self.out, ctx);
        encode_request(&mut self.out, request);
        let sent = match finish_frame(&mut self.out) {
            Ok(()) => self.send_frame(),
            Err(_) => {
                self.stats.oversized_refused += 1;
                Err(ServeError::Protocol(format!(
                    "request frame of {} bytes exceeds the frame bound; split the batch",
                    self.out.len()
                )))
            }
        };
        release_if_large(&mut self.out);
        sent?;
        // Receive side: never retried (the request may have applied).
        // The response is decoded from the reader's payload buffer.
        let conn = self.conn.as_mut().expect("connected by the send");
        let decoded = conn
            .read()
            .map(|frame| decode_response(&mut frame.payload()));
        match decoded {
            Ok(Ok(response)) => Ok(response),
            Ok(Err(err)) => {
                self.stats.decode_errors += 1;
                Err(err.into())
            }
            Err(err) => {
                self.conn = None;
                Err(ServeError::Wire(err))
            }
        }
    }

    /// Writes the assembled request frame with one `write_all`. Send
    /// side: a connect *or* write failure is retried once on a fresh
    /// connection — in either case the server cannot have observed the
    /// request yet.
    fn send_frame(&mut self) -> Result<(), ServeError> {
        let mut attempt = 0;
        loop {
            attempt += 1;
            let sent = self.ensure_connected().and_then(|()| {
                let mut socket = self.conn.as_ref().expect("just connected").get_ref();
                socket.write_all(&self.out).map_err(ServeError::Io)
            });
            match sent {
                Ok(()) => return Ok(()),
                Err(err) => {
                    self.conn = None;
                    if attempt >= 2 {
                        return Err(err);
                    }
                }
            }
        }
    }

    fn expect_error(response: Response) -> ServeError {
        match response {
            Response::Error(message) => ServeError::Remote(message),
            other => ServeError::Protocol(format!("unexpected response {other:?}")),
        }
    }

    /// Sends a batch of events into the server's engine. Returns the
    /// number of events routed.
    pub fn ingest_batch(&mut self, events: Vec<StreamEvent>) -> Result<u64, ServeError> {
        match self.call(&Request::IngestBatch(events))? {
            Response::Ingested { events } => Ok(events),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Executes a query over the warehouse tier only.
    pub fn query(&mut self, query: &WireQuery) -> Result<Vec<SemanticTrajectory>, ServeError> {
        match self.call(&Request::Query(query.clone()))? {
            Response::Trajectories(rows) => Ok(rows),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Executes a query over live ∪ warehouse (sorted/limited paging
    /// per the spec).
    pub fn query_federated(
        &mut self,
        query: &WireQuery,
    ) -> Result<Vec<SemanticTrajectory>, ServeError> {
        match self.call(&Request::QueryFederated(query.clone()))? {
            Response::Trajectories(rows) => Ok(rows),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Plans a predicate server-side without executing it.
    pub fn explain(&mut self, predicate: &Predicate) -> Result<ExplainReport, ServeError> {
        match self.call(&Request::Explain(predicate.clone()))? {
            Response::Explained(report) => Ok(report),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Fetches engine + warehouse counters (server-side totals; for
    /// this client's own transport counters see [`Client::stats`]).
    pub fn server_stats(&mut self) -> Result<ServerStats, ServeError> {
        match self.call(&Request::Stats)? {
            Response::Stats { stats, .. } => Ok(stats),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Fetches the counters together with the decode-free warehouse
    /// breakdowns: per-cell trajectory/stay/dwell totals and per-period
    /// occupancy, merged across every segment's rollup frame and the
    /// live tier.
    pub fn server_stats_with_rollup(&mut self) -> Result<(ServerStats, StatsRollup), ServeError> {
        match self.call(&Request::Stats)? {
            Response::Stats { stats, rollup } => Ok((stats, rollup)),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Fetches the server's full metrics snapshot — every `engine.*`,
    /// `flush.*`, `store.*`, `query.*`, and `serve.*` instrument plus
    /// the slow-query log.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ServeError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(snapshot) => Ok(snapshot),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Spills the engine's finished backlog into the warehouse.
    /// Returns `(spilled, warehouse_trajectories, manifest_sequence)`.
    pub fn checkpoint(&mut self) -> Result<(u64, u64, u64), ServeError> {
        match self.call(&Request::Checkpoint)? {
            Response::Checkpointed {
                spilled,
                warehouse_trajectories,
                manifest_sequence,
            } => Ok((spilled, warehouse_trajectories, manifest_sequence)),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Polls the server's liveness summary: uptime, epoch, tier lag,
    /// session load, ingest rate. Cheap on both sides.
    pub fn health(&mut self) -> Result<HealthReport, ServeError> {
        match self.call(&Request::Health)? {
            Response::Health(report) => Ok(report),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Fetches the server's most recent `limit` trace trees, oldest
    /// first (empty when tracing is disabled server-side).
    pub fn traces(&mut self, limit: u64) -> Result<Vec<TraceTree>, ServeError> {
        match self.call(&Request::Trace { limit })? {
            Response::Traces(trees) => Ok(trees),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Requests a graceful server shutdown (warehouse flushed before
    /// the acknowledgement). The connection is closed afterwards.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => {
                self.conn = None;
                Ok(())
            }
            other => Err(Self::expect_error(other)),
        }
    }
}

/// One pushed notification: the epoch whose ingest barrier drained the
/// episodes, and the episodes the subscription's predicate did not
/// provably reject.
pub type Notification = (u64, Vec<EmittedEpisode>);

/// A continuous-query subscription on its own dedicated connection.
///
/// Unlike [`Client`], a `Subscriber` receives **unsolicited**
/// [`Response::Notification`] frames, so it never shares a connection
/// with request/response traffic: create it alongside a `Client`, not
/// from one. Dropping a `Subscriber` without [`Subscriber::unsubscribe`]
/// closes the connection; the server then re-injects any undelivered
/// episodes into its pending pool, so nothing is lost — the next
/// subscriber (or this one, reconnecting) sees them in its first
/// barriers. The one loss path is falling behind the server's bounded
/// per-subscriber queue, which surfaces here as [`ServeError::Remote`]
/// from [`Subscriber::poll`] ("subscription lagged…").
pub struct Subscriber {
    conn: FrameReader<TcpStream>,
    epoch: u64,
}

impl Subscriber {
    /// Connects and registers `query` as this connection's continuous
    /// query. On success, every notification this subscription ever
    /// receives carries an epoch strictly greater than
    /// [`Subscriber::epoch`].
    pub fn subscribe(addr: SocketAddr, query: &WireQuery) -> Result<Subscriber, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = FrameReader::new(stream);
        let mut payload = Vec::new();
        encode_request(&mut payload, &Request::Subscribe(query.clone()));
        write_frame(&mut conn.get_ref(), &payload)?;
        let response = decode_response(&mut conn.read()?.payload())?;
        match response {
            Response::Subscribed { epoch } => Ok(Subscriber { conn, epoch }),
            Response::Error(message) => Err(ServeError::Remote(message)),
            other => Err(ServeError::Protocol(format!(
                "unexpected response to subscribe: {other:?}"
            ))),
        }
    }

    /// The engine epoch at registration.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Waits up to `timeout` for one pushed notification. `Ok(None)`
    /// means no notification arrived in time (the subscription is still
    /// live); a lagged-and-dropped subscription surfaces as
    /// [`ServeError::Remote`].
    pub fn poll(&mut self, timeout: StdDuration) -> Result<Option<Notification>, ServeError> {
        self.conn.get_ref().set_read_timeout(Some(timeout))?;
        let Some(frame) = self.conn.read_or_idle()? else {
            return Ok(None);
        };
        match decode_response(&mut frame.payload())? {
            Response::Notification { epoch, episodes } => Ok(Some((epoch, episodes))),
            Response::Error(message) => Err(ServeError::Remote(message)),
            other => Err(ServeError::Protocol(format!(
                "unexpected frame on subscription: {other:?}"
            ))),
        }
    }

    /// Deregisters the continuous query, draining notifications still
    /// queued server-side (returned in order) until the acknowledgement.
    pub fn unsubscribe(mut self) -> Result<Vec<Notification>, ServeError> {
        let mut payload = Vec::new();
        encode_request(&mut payload, &Request::Unsubscribe);
        write_frame(&mut self.conn.get_ref(), &payload)?;
        self.conn.get_ref().set_read_timeout(None)?;
        let mut drained = Vec::new();
        loop {
            let response = decode_response(&mut self.conn.read()?.payload())?;
            match response {
                Response::Notification { epoch, episodes } => drained.push((epoch, episodes)),
                Response::Unsubscribed => return Ok(drained),
                Response::Error(message) => return Err(ServeError::Remote(message)),
                other => {
                    return Err(ServeError::Protocol(format!(
                        "unexpected frame draining unsubscribe: {other:?}"
                    )))
                }
            }
        }
    }
}
