//! The request/response vocabulary and its payload codec.
//!
//! One frame ([`crate::wire`]) carries one message. Requests and
//! responses are tagged unions encoded with the same [`sitm_codec`]
//! primitives as every durable artifact — stream events reuse the
//! presence/annotation/cell codecs, trajectories ship as
//! [`sitm_store::codec::encode_trajectory`] rows, and query specs ride
//! [`sitm_query::wire`]. Decoding validates everything (tags, lengths,
//! UTF-8, interval ordering) and fails with a [`CodecError`] instead of
//! materializing an invalid value, so a corrupted frame that somehow
//! cleared the CRC still cannot reach the engine.

use sitm_codec::{
    put_bytes, put_i64, put_str, put_u64, take_bytes, take_count, take_flag, take_i64, take_str,
    take_tag, take_u64,
};
use sitm_core::{Episode, SemanticTrajectory, TimeInterval, Timestamp};
use sitm_graph::CellRef;
use sitm_obs::codec::{decode_snapshot, snapshot_to_bytes};
use sitm_obs::health::{decode_health, health_to_bytes, HealthReport};
use sitm_obs::trace::{decode_traces, traces_to_bytes, TraceTree};
use sitm_obs::MetricsSnapshot;
use sitm_query::wire::{decode_wire_query, encode_wire_query, WireQuery};
use sitm_query::{decode_predicate, encode_predicate, Predicate};
use sitm_store::codec::{
    decode_annotations, decode_cell, decode_presence, decode_trajectory, encode_annotations,
    encode_cell, encode_presence, encode_trajectory,
};
use sitm_store::warehouse::CellRollup;
use sitm_store::CodecError;
use sitm_stream::{EmittedEpisode, StreamEvent, VisitKey};

// --- stream events ---------------------------------------------------------

const EV_OPENED: u8 = 0;
const EV_FIX: u8 = 1;
const EV_PRESENCE: u8 = 2;
const EV_CLOSED: u8 = 3;

/// Encodes one ingestion event.
pub fn encode_event(buf: &mut Vec<u8>, event: &StreamEvent) {
    match event {
        StreamEvent::VisitOpened {
            visit,
            moving_object,
            annotations,
            at,
        } => {
            buf.push(EV_OPENED);
            put_u64(buf, visit.0);
            put_str(buf, moving_object);
            encode_annotations(buf, annotations);
            put_i64(buf, at.0);
        }
        StreamEvent::Fix { visit, cell, at } => {
            buf.push(EV_FIX);
            put_u64(buf, visit.0);
            encode_cell(buf, *cell);
            put_i64(buf, at.0);
        }
        StreamEvent::Presence { visit, interval } => {
            buf.push(EV_PRESENCE);
            put_u64(buf, visit.0);
            encode_presence(buf, interval);
        }
        StreamEvent::VisitClosed { visit, at } => {
            buf.push(EV_CLOSED);
            put_u64(buf, visit.0);
            put_i64(buf, at.0);
        }
    }
}

/// Decodes one ingestion event.
pub fn decode_event(buf: &mut &[u8]) -> Result<StreamEvent, CodecError> {
    match take_tag(buf)? {
        EV_OPENED => {
            let visit = VisitKey(take_u64(buf)?);
            let moving_object = take_str(buf)?.to_owned();
            let annotations = decode_annotations(buf)?;
            let at = Timestamp(take_i64(buf)?);
            Ok(StreamEvent::VisitOpened {
                visit,
                moving_object,
                annotations,
                at,
            })
        }
        EV_FIX => {
            let visit = VisitKey(take_u64(buf)?);
            let cell = decode_cell(buf)?;
            let at = Timestamp(take_i64(buf)?);
            Ok(StreamEvent::Fix { visit, cell, at })
        }
        EV_PRESENCE => {
            let visit = VisitKey(take_u64(buf)?);
            let interval = decode_presence(buf)?;
            Ok(StreamEvent::Presence { visit, interval })
        }
        EV_CLOSED => {
            let visit = VisitKey(take_u64(buf)?);
            let at = Timestamp(take_i64(buf)?);
            Ok(StreamEvent::VisitClosed { visit, at })
        }
        other => Err(CodecError::BadTag(other)),
    }
}

// --- requests --------------------------------------------------------------

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Route a batch of events into the shared engine.
    IngestBatch(Vec<StreamEvent>),
    /// Execute a query over the **warehouse tier only** (spilled
    /// history; sorted/limited paging applies).
    Query(WireQuery),
    /// Execute a query over **live ∪ warehouse** — the engine's
    /// snapshot-consistent live cut federated with the segment tier,
    /// under `Query::execute_federated`'s ordering contract.
    QueryFederated(WireQuery),
    /// Plan a predicate without executing it: per-source access paths
    /// plus the warehouse's object-index / zone-map pruning counts.
    Explain(Predicate),
    /// Engine counters plus warehouse shape.
    Stats,
    /// Spill the engine's finished backlog into the warehouse now
    /// (durable on response).
    Checkpoint,
    /// Graceful shutdown: flush the warehouse, stop accepting, drain
    /// sessions.
    Shutdown,
    /// A versioned snapshot of the server's `MetricsRegistry`: every
    /// counter/gauge/histogram across the ingest → warehouse → serve
    /// path, plus the slow-query ring buffer.
    Metrics,
    /// Register a continuous query on this session. On every ingest
    /// barrier that advances the engine epoch, drained episodes whose
    /// delta evaluation is not provably false for the predicate are
    /// pushed to this session as [`Response::Notification`] frames.
    /// One subscription per session; re-subscribing replaces the query.
    Subscribe(WireQuery),
    /// Drop this session's continuous query. The server stops pushing;
    /// notifications already queued are still flushed before the
    /// [`Response::Unsubscribed`] acknowledgement.
    Unsubscribe,
    /// A point-in-time liveness summary: uptime, epoch, tier lag
    /// (flush backlog, worker queues, checkpoint age), session load,
    /// and the current ingest rate. Cheap enough to poll every second.
    Health,
    /// The most recent `limit` trace trees from the server's recorder
    /// (empty when tracing is disabled).
    Trace {
        /// Most-recent trees to return (the server also caps this at
        /// its ring capacity).
        limit: u64,
    },
}

const REQ_INGEST: u8 = 0;
const REQ_QUERY: u8 = 1;
const REQ_QUERY_FEDERATED: u8 = 2;
const REQ_EXPLAIN: u8 = 3;
const REQ_STATS: u8 = 4;
const REQ_CHECKPOINT: u8 = 5;
const REQ_SHUTDOWN: u8 = 6;
const REQ_METRICS: u8 = 7;
const REQ_SUBSCRIBE: u8 = 8;
const REQ_UNSUBSCRIBE: u8 = 9;
const REQ_HEALTH: u8 = 10;
const REQ_TRACE: u8 = 11;

/// Encodes a request into a frame payload.
pub fn encode_request(buf: &mut Vec<u8>, req: &Request) {
    match req {
        Request::IngestBatch(events) => {
            buf.push(REQ_INGEST);
            put_u64(buf, events.len() as u64);
            for e in events {
                encode_event(buf, e);
            }
        }
        Request::Query(q) => {
            buf.push(REQ_QUERY);
            encode_wire_query(buf, q);
        }
        Request::QueryFederated(q) => {
            buf.push(REQ_QUERY_FEDERATED);
            encode_wire_query(buf, q);
        }
        Request::Explain(p) => {
            buf.push(REQ_EXPLAIN);
            encode_predicate(buf, p);
        }
        Request::Stats => buf.push(REQ_STATS),
        Request::Checkpoint => buf.push(REQ_CHECKPOINT),
        Request::Shutdown => buf.push(REQ_SHUTDOWN),
        Request::Metrics => buf.push(REQ_METRICS),
        Request::Subscribe(q) => {
            buf.push(REQ_SUBSCRIBE);
            encode_wire_query(buf, q);
        }
        Request::Unsubscribe => buf.push(REQ_UNSUBSCRIBE),
        Request::Health => buf.push(REQ_HEALTH),
        Request::Trace { limit } => {
            buf.push(REQ_TRACE);
            put_u64(buf, *limit);
        }
    }
}

/// Decodes a request frame payload.
pub fn decode_request(buf: &mut &[u8]) -> Result<Request, CodecError> {
    let req = match take_tag(buf)? {
        REQ_INGEST => {
            let count = take_count(buf, 1)?;
            let mut events = Vec::with_capacity(count);
            for _ in 0..count {
                events.push(decode_event(buf)?);
            }
            Request::IngestBatch(events)
        }
        REQ_QUERY => Request::Query(decode_wire_query(buf)?),
        REQ_QUERY_FEDERATED => Request::QueryFederated(decode_wire_query(buf)?),
        REQ_EXPLAIN => Request::Explain(decode_predicate(buf)?),
        REQ_STATS => Request::Stats,
        REQ_CHECKPOINT => Request::Checkpoint,
        REQ_SHUTDOWN => Request::Shutdown,
        REQ_METRICS => Request::Metrics,
        REQ_SUBSCRIBE => Request::Subscribe(decode_wire_query(buf)?),
        REQ_UNSUBSCRIBE => Request::Unsubscribe,
        REQ_HEALTH => Request::Health,
        REQ_TRACE => Request::Trace {
            limit: take_u64(buf)?,
        },
        other => return Err(CodecError::BadTag(other)),
    };
    if !buf.is_empty() {
        return Err(CodecError::InvalidTrace(
            "trailing bytes after request".into(),
        ));
    }
    Ok(req)
}

// --- responses -------------------------------------------------------------

/// One federation participant's plan, as reported over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePlan {
    /// Candidates the source's indexes narrowed to (`None` = full scan).
    pub candidates: Option<u64>,
    /// Trajectories in the source.
    pub total: u64,
}

/// The server-side plan for a predicate: one [`WirePlan`] per federated
/// source (live snapshot first, then the warehouse) plus the warehouse
/// pruning counters surfaced from `SegmentedDb::explain`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainReport {
    /// Per-source access paths, in federation order (live, warehouse).
    pub plans: Vec<WirePlan>,
    /// Live warehouse segments consulted.
    pub segments: u64,
    /// Segments zone-map pruning skipped entirely.
    pub zone_pruned: u64,
    /// Segments the global object index skipped before their zone maps
    /// were consulted (disjoint from `zone_pruned`).
    pub object_pruned: u64,
    /// Cumulative `query.segment_bytes_read` at explain time: segment
    /// bytes lazily read off disk by cold queries since the server
    /// started (directory-guided frame reads + hydrations).
    pub segment_bytes_read: u64,
    /// Cumulative `query.trajectories_decoded` at explain time.
    pub trajectories_decoded: u64,
    /// Cumulative `store.lazy_opens`: segments opened headers-only
    /// since the server started.
    pub lazy_opens: u64,
    /// Cumulative `query.row_cache_hits`: single-row reads served from
    /// the warehouse's bounded row-decode cache since the server
    /// started.
    pub row_cache_hits: u64,
    /// Cumulative `query.row_cache_misses`.
    pub row_cache_misses: u64,
    /// Nanoseconds the server spent cutting the live snapshot for this
    /// plan (quiesce + open-visit clone) — the per-stage timing that
    /// decomposes a federated query's latency.
    pub snapshot_build_ns: u64,
    /// Nanoseconds spent planning/evaluating against the snapshot and
    /// the warehouse after the snapshot was cut.
    pub evaluate_ns: u64,
    /// Whether the live snapshot this plan consulted was served from
    /// the server's epoch cache (`snapshot_build_ns` is then the cache
    /// lookup, not a quiesce).
    pub snapshot_cached: bool,
}

/// Engine + warehouse counters, as served by [`Request::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Events applied by the engine.
    pub events: u64,
    /// Presence intervals accepted.
    pub presences: u64,
    /// Visits opened.
    pub visits_opened: u64,
    /// Visits closed.
    pub visits_closed: u64,
    /// Episodes finalized.
    pub episodes: u64,
    /// Rejected/adapted events (all anomaly classes summed).
    pub anomalies: u64,
    /// Visits currently open (live tier population).
    pub open_visits: u64,
    /// Trajectories in the warehouse tier.
    pub warehouse_trajectories: u64,
    /// Live warehouse segments.
    pub warehouse_segments: u64,
    /// Sessions the server has accepted over its lifetime.
    pub sessions_accepted: u64,
    /// Sessions connected right now.
    pub sessions_active: u64,
}

/// Decode-free warehouse breakdowns served alongside [`ServerStats`]:
/// the segments' header-frame rollups merged with a live-tier fold, so
/// per-cell and per-period totals ride the `Stats` op without the
/// server decoding a single trajectory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsRollup {
    /// Bucket width of the `periods` axis, in seconds.
    pub period_seconds: u64,
    /// Per-cell totals, strictly ascending by cell.
    pub cells: Vec<(CellRef, CellRollup)>,
    /// Period bucket start (seconds, floor-aligned) → distinct
    /// trajectories present, strictly ascending by bucket.
    pub periods: Vec<(i64, u64)>,
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The batch was routed into the engine.
    Ingested {
        /// Events accepted into the router.
        events: u64,
    },
    /// Query results, cloned out of the server's snapshot.
    Trajectories(Vec<SemanticTrajectory>),
    /// The plan for an [`Request::Explain`].
    Explained(ExplainReport),
    /// Current counters plus decode-free warehouse breakdowns.
    Stats {
        /// Engine + warehouse counters.
        stats: ServerStats,
        /// Rollup-served per-cell / per-period aggregates.
        rollup: StatsRollup,
    },
    /// The finished backlog was spilled and committed.
    Checkpointed {
        /// Trajectories made durable by this checkpoint.
        spilled: u64,
        /// Warehouse population after the spill.
        warehouse_trajectories: u64,
        /// The warehouse manifest sequence now current.
        manifest_sequence: u64,
    },
    /// Shutdown acknowledged; the connection closes after this frame.
    ShuttingDown,
    /// The request could not be served (bad payload, engine error...).
    /// The session survives: the client may send further requests.
    Error(String),
    /// The server's metrics snapshot (versioned payload, see
    /// `sitm_obs::codec`).
    Metrics(MetricsSnapshot),
    /// The continuous query was registered. `epoch` is the engine epoch
    /// at registration: every notification the subscription will ever
    /// receive carries an epoch strictly greater than this.
    Subscribed {
        /// Engine epoch when the subscription took effect.
        epoch: u64,
    },
    /// The continuous query was dropped; no further notifications
    /// follow on this session.
    Unsubscribed,
    /// A pushed batch of drained episodes matching (or not provably
    /// missing) a session's subscription. Unsolicited: arrives between
    /// request/response pairs, identified by its tag.
    Notification {
        /// The engine epoch whose ingest barrier drained these episodes.
        epoch: u64,
        /// The matching episodes, in the drain's deterministic order.
        episodes: Vec<EmittedEpisode>,
    },
    /// The liveness summary (versioned payload, see
    /// `sitm_obs::health`).
    Health(HealthReport),
    /// Recent trace trees, oldest first (versioned payload, see
    /// `sitm_obs::trace`).
    Traces(Vec<TraceTree>),
}

const RESP_INGESTED: u8 = 0;
const RESP_TRAJECTORIES: u8 = 1;
const RESP_EXPLAINED: u8 = 2;
const RESP_STATS: u8 = 3;
const RESP_CHECKPOINTED: u8 = 4;
const RESP_SHUTTING_DOWN: u8 = 5;
const RESP_ERROR: u8 = 6;
const RESP_METRICS: u8 = 7;
const RESP_SUBSCRIBED: u8 = 8;
const RESP_UNSUBSCRIBED: u8 = 9;
const RESP_NOTIFICATION: u8 = 10;
const RESP_HEALTH: u8 = 11;
const RESP_TRACES: u8 = 12;

/// Encodes one drained episode as pushed by a subscription.
pub fn encode_episode(buf: &mut Vec<u8>, episode: &EmittedEpisode) {
    put_u64(buf, episode.visit.0);
    put_str(buf, &episode.moving_object);
    put_u64(buf, episode.predicate as u64);
    put_u64(buf, episode.episode.range.start as u64);
    put_u64(buf, episode.episode.range.end as u64);
    put_i64(buf, episode.episode.time.start.0);
    put_i64(buf, episode.episode.time.end.0);
    encode_annotations(buf, &episode.episode.annotations);
}

/// Decodes one drained episode, validating range and interval ordering.
pub fn decode_episode(buf: &mut &[u8]) -> Result<EmittedEpisode, CodecError> {
    let visit = VisitKey(take_u64(buf)?);
    let moving_object = take_str(buf)?.to_owned();
    let predicate = take_u64(buf)? as usize;
    let start = take_u64(buf)? as usize;
    let end = take_u64(buf)? as usize;
    if end < start {
        return Err(CodecError::InvalidTrace(
            "episode range end before start".into(),
        ));
    }
    let t_start = Timestamp(take_i64(buf)?);
    let t_end = Timestamp(take_i64(buf)?);
    if t_end < t_start {
        return Err(CodecError::InvalidTrace(
            "episode interval end before start".into(),
        ));
    }
    let annotations = decode_annotations(buf)?;
    Ok(EmittedEpisode {
        visit,
        moving_object,
        predicate,
        episode: Episode {
            range: start..end,
            time: TimeInterval::new(t_start, t_end),
            annotations,
        },
    })
}

/// Opens a [`Response::Trajectories`] payload: the tag and the row
/// count, behind which the rows follow, each as `encode_trajectory`
/// writes it. The server's warehouse `Query` arm appends rows it never
/// decoded (the stored encoding, copied out of resident segments)
/// behind this header; [`encode_response`] encodes owned rows behind it.
pub(crate) fn begin_trajectories(buf: &mut Vec<u8>, rows: u64) {
    buf.push(RESP_TRAJECTORIES);
    put_u64(buf, rows);
}

/// Encodes a response into a frame payload.
pub fn encode_response(buf: &mut Vec<u8>, resp: &Response) {
    match resp {
        Response::Ingested { events } => {
            buf.push(RESP_INGESTED);
            put_u64(buf, *events);
        }
        Response::Trajectories(rows) => {
            begin_trajectories(buf, rows.len() as u64);
            for t in rows {
                encode_trajectory(buf, t);
            }
        }
        Response::Explained(report) => {
            buf.push(RESP_EXPLAINED);
            put_u64(buf, report.plans.len() as u64);
            for plan in &report.plans {
                match plan.candidates {
                    None => buf.push(0),
                    Some(n) => {
                        buf.push(1);
                        put_u64(buf, n);
                    }
                }
                put_u64(buf, plan.total);
            }
            put_u64(buf, report.segments);
            put_u64(buf, report.zone_pruned);
            put_u64(buf, report.object_pruned);
            put_u64(buf, report.segment_bytes_read);
            put_u64(buf, report.trajectories_decoded);
            put_u64(buf, report.lazy_opens);
            put_u64(buf, report.row_cache_hits);
            put_u64(buf, report.row_cache_misses);
            put_u64(buf, report.snapshot_build_ns);
            put_u64(buf, report.evaluate_ns);
            buf.push(report.snapshot_cached as u8);
        }
        Response::Stats { stats: s, rollup } => {
            buf.push(RESP_STATS);
            for n in [
                s.events,
                s.presences,
                s.visits_opened,
                s.visits_closed,
                s.episodes,
                s.anomalies,
                s.open_visits,
                s.warehouse_trajectories,
                s.warehouse_segments,
                s.sessions_accepted,
                s.sessions_active,
            ] {
                put_u64(buf, n);
            }
            put_u64(buf, rollup.period_seconds);
            put_u64(buf, rollup.cells.len() as u64);
            for (cell, agg) in &rollup.cells {
                encode_cell(buf, *cell);
                put_u64(buf, agg.trajectories);
                put_u64(buf, agg.stays);
                put_u64(buf, agg.dwell_seconds);
            }
            put_u64(buf, rollup.periods.len() as u64);
            for (bucket, count) in &rollup.periods {
                put_i64(buf, *bucket);
                put_u64(buf, *count);
            }
        }
        Response::Checkpointed {
            spilled,
            warehouse_trajectories,
            manifest_sequence,
        } => {
            buf.push(RESP_CHECKPOINTED);
            put_u64(buf, *spilled);
            put_u64(buf, *warehouse_trajectories);
            put_u64(buf, *manifest_sequence);
        }
        Response::ShuttingDown => buf.push(RESP_SHUTTING_DOWN),
        Response::Error(message) => {
            buf.push(RESP_ERROR);
            put_str(buf, message);
        }
        Response::Metrics(snapshot) => {
            buf.push(RESP_METRICS);
            // The snapshot codec is versioned and self-delimiting; it
            // rides the response as a length-prefixed blob so the
            // trailing-bytes check below still covers the whole frame.
            put_bytes(buf, &snapshot_to_bytes(snapshot));
        }
        Response::Subscribed { epoch } => {
            buf.push(RESP_SUBSCRIBED);
            put_u64(buf, *epoch);
        }
        Response::Unsubscribed => buf.push(RESP_UNSUBSCRIBED),
        Response::Notification { epoch, episodes } => {
            buf.push(RESP_NOTIFICATION);
            put_u64(buf, *epoch);
            put_u64(buf, episodes.len() as u64);
            for e in episodes {
                encode_episode(buf, e);
            }
        }
        Response::Health(report) => {
            buf.push(RESP_HEALTH);
            // Versioned, self-delimiting payload as a length-prefixed
            // blob — the `Metrics` idiom, same trailing-bytes coverage.
            put_bytes(buf, &health_to_bytes(report));
        }
        Response::Traces(trees) => {
            buf.push(RESP_TRACES);
            put_bytes(buf, &traces_to_bytes(trees));
        }
    }
}

/// Decodes a response frame payload.
pub fn decode_response(buf: &mut &[u8]) -> Result<Response, CodecError> {
    let resp = match take_tag(buf)? {
        RESP_INGESTED => Response::Ingested {
            events: take_u64(buf)?,
        },
        RESP_TRAJECTORIES => {
            let count = take_count(buf, 1)?;
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                rows.push(decode_trajectory(buf)?);
            }
            Response::Trajectories(rows)
        }
        RESP_EXPLAINED => {
            let count = take_count(buf, 1)?;
            let mut plans = Vec::with_capacity(count);
            for _ in 0..count {
                let candidates = if take_flag(buf)? {
                    Some(take_u64(buf)?)
                } else {
                    None
                };
                let total = take_u64(buf)?;
                plans.push(WirePlan { candidates, total });
            }
            let segments = take_u64(buf)?;
            let zone_pruned = take_u64(buf)?;
            let object_pruned = take_u64(buf)?;
            let segment_bytes_read = take_u64(buf)?;
            let trajectories_decoded = take_u64(buf)?;
            let lazy_opens = take_u64(buf)?;
            let row_cache_hits = take_u64(buf)?;
            let row_cache_misses = take_u64(buf)?;
            let snapshot_build_ns = take_u64(buf)?;
            let evaluate_ns = take_u64(buf)?;
            let snapshot_cached = take_flag(buf)?;
            Response::Explained(ExplainReport {
                plans,
                segments,
                zone_pruned,
                object_pruned,
                segment_bytes_read,
                trajectories_decoded,
                lazy_opens,
                row_cache_hits,
                row_cache_misses,
                snapshot_build_ns,
                evaluate_ns,
                snapshot_cached,
            })
        }
        RESP_STATS => {
            let mut fields = [0u64; 11];
            for slot in &mut fields {
                *slot = take_u64(buf)?;
            }
            let period_seconds = take_u64(buf)?;
            let cell_count = take_count(buf, 1)?;
            let mut cells: Vec<(CellRef, CellRollup)> = Vec::with_capacity(cell_count);
            for _ in 0..cell_count {
                let cell = decode_cell(buf)?;
                if let Some((last, _)) = cells.last() {
                    if *last >= cell {
                        return Err(CodecError::InvalidTrace(
                            "stats rollup cells out of order".into(),
                        ));
                    }
                }
                let trajectories = take_u64(buf)?;
                let stays = take_u64(buf)?;
                let dwell_seconds = take_u64(buf)?;
                cells.push((
                    cell,
                    CellRollup {
                        trajectories,
                        stays,
                        dwell_seconds,
                    },
                ));
            }
            let period_count = take_count(buf, 1)?;
            let mut periods: Vec<(i64, u64)> = Vec::with_capacity(period_count);
            for _ in 0..period_count {
                let bucket = take_i64(buf)?;
                if let Some((last, _)) = periods.last() {
                    if *last >= bucket {
                        return Err(CodecError::InvalidTrace(
                            "stats rollup periods out of order".into(),
                        ));
                    }
                }
                periods.push((bucket, take_u64(buf)?));
            }
            Response::Stats {
                stats: ServerStats {
                    events: fields[0],
                    presences: fields[1],
                    visits_opened: fields[2],
                    visits_closed: fields[3],
                    episodes: fields[4],
                    anomalies: fields[5],
                    open_visits: fields[6],
                    warehouse_trajectories: fields[7],
                    warehouse_segments: fields[8],
                    sessions_accepted: fields[9],
                    sessions_active: fields[10],
                },
                rollup: StatsRollup {
                    period_seconds,
                    cells,
                    periods,
                },
            }
        }
        RESP_CHECKPOINTED => Response::Checkpointed {
            spilled: take_u64(buf)?,
            warehouse_trajectories: take_u64(buf)?,
            manifest_sequence: take_u64(buf)?,
        },
        RESP_SHUTTING_DOWN => Response::ShuttingDown,
        RESP_ERROR => Response::Error(take_str(buf)?.to_owned()),
        RESP_METRICS => {
            let snapshot = decode_snapshot(take_bytes(buf)?)
                .map_err(|e| CodecError::InvalidTrace(format!("metrics snapshot: {e}")))?;
            Response::Metrics(snapshot)
        }
        RESP_SUBSCRIBED => Response::Subscribed {
            epoch: take_u64(buf)?,
        },
        RESP_UNSUBSCRIBED => Response::Unsubscribed,
        RESP_NOTIFICATION => {
            let epoch = take_u64(buf)?;
            let count = take_count(buf, 1)?;
            let mut episodes = Vec::with_capacity(count);
            for _ in 0..count {
                episodes.push(decode_episode(buf)?);
            }
            Response::Notification { epoch, episodes }
        }
        RESP_HEALTH => {
            let report = decode_health(take_bytes(buf)?)
                .map_err(|e| CodecError::InvalidTrace(format!("health report: {e}")))?;
            Response::Health(report)
        }
        RESP_TRACES => {
            let trees = decode_traces(take_bytes(buf)?)
                .map_err(|e| CodecError::InvalidTrace(format!("trace trees: {e}")))?;
            Response::Traces(trees)
        }
        other => return Err(CodecError::BadTag(other)),
    };
    if !buf.is_empty() {
        return Err(CodecError::InvalidTrace(
            "trailing bytes after response".into(),
        ));
    }
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_core::{Annotation, AnnotationSet, PresenceInterval, Trace, TransitionTaken};
    use sitm_graph::{CellRef, LayerIdx, NodeId};
    use sitm_query::SortKey;
    use sitm_store::codec::encode_transition;

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
    }

    fn sample_events() -> Vec<StreamEvent> {
        vec![
            StreamEvent::VisitOpened {
                visit: VisitKey(7),
                moving_object: "mo-7".into(),
                annotations: AnnotationSet::from_iter([Annotation::goal("visit")]),
                at: Timestamp(-12),
            },
            StreamEvent::Fix {
                visit: VisitKey(7),
                cell: cell(3),
                at: Timestamp(5),
            },
            StreamEvent::Presence {
                visit: VisitKey(8),
                interval: PresenceInterval::new(
                    TransitionTaken::Unknown,
                    cell(1),
                    Timestamp(0),
                    Timestamp(50),
                ),
            },
            StreamEvent::VisitClosed {
                visit: VisitKey(7),
                at: Timestamp(100),
            },
        ]
    }

    fn sample_trajectory() -> SemanticTrajectory {
        let stay = PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(2),
            Timestamp(10),
            Timestamp(60),
        );
        SemanticTrajectory::new(
            "mo",
            Trace::new(vec![stay]).unwrap(),
            AnnotationSet::from_iter([Annotation::goal("visit")]),
        )
        .unwrap()
    }

    fn requests() -> Vec<Request> {
        vec![
            Request::IngestBatch(sample_events()),
            Request::IngestBatch(vec![]),
            Request::Query(WireQuery::filtered(Predicate::VisitedCell(cell(1)))),
            Request::QueryFederated(WireQuery {
                predicate: Predicate::MovingObject("mo".into()),
                order: Some((SortKey::Start, true)),
                offset: 1,
                limit: Some(5),
            }),
            Request::Explain(Predicate::VisitedCell(cell(1)).not()),
            Request::Stats,
            Request::Checkpoint,
            Request::Shutdown,
            Request::Metrics,
            Request::Subscribe(WireQuery::filtered(
                Predicate::HasTrajAnnotation(Annotation::goal("visit"))
                    .and(Predicate::MovingObject("mo".into())),
            )),
            Request::Unsubscribe,
            Request::Health,
            Request::Trace { limit: 16 },
        ]
    }

    fn sample_health() -> HealthReport {
        HealthReport {
            uptime_ms: 12_000,
            epoch: 9,
            sessions_accepted: 4,
            sessions_active: 2,
            subscribers_active: 1,
            flush_backlog_trajectories: 30,
            worker_queue_depths: vec![0, 5],
            last_checkpoint_age_ms: Some(800),
            warehouse_segments: 3,
            warehouse_trajectories: 700,
            traces_recorded: 11,
            events_per_sec_milli: 2_500,
        }
    }

    fn sample_traces() -> Vec<TraceTree> {
        use sitm_obs::trace::SpanRecord;
        use std::borrow::Cow;
        vec![TraceTree {
            trace_id: 0xFEED,
            parent_span_id: 3,
            root: SpanRecord {
                id: 1,
                name: Cow::Borrowed("query_federated"),
                start_ns: 0,
                duration_ns: 90_000,
                children: vec![SpanRecord {
                    id: 2,
                    name: Cow::Borrowed("snapshot_cut"),
                    start_ns: 50,
                    duration_ns: 7_000,
                    children: Vec::new(),
                }],
            },
        }]
    }

    fn sample_episode() -> EmittedEpisode {
        EmittedEpisode {
            visit: VisitKey(41),
            moving_object: "mo-41".into(),
            predicate: 2,
            episode: Episode {
                range: 1..4,
                time: TimeInterval::new(Timestamp(-3), Timestamp(90)),
                annotations: AnnotationSet::from_iter([Annotation::goal("visit")]),
            },
        }
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let registry = sitm_obs::MetricsRegistry::new();
        registry.counter("serve.requests.query").add(3);
        registry.gauge("serve.sessions_active").set(2);
        registry.histogram("serve.handle_ns.query").record(12_000);
        registry.set_slow_threshold_ns(1);
        registry.record_slow_with("query", 271_000, || "limit=5".into());
        registry.snapshot()
    }

    fn responses() -> Vec<Response> {
        vec![
            Response::Ingested { events: 42 },
            Response::Trajectories(vec![sample_trajectory()]),
            Response::Trajectories(vec![]),
            Response::Explained(ExplainReport {
                plans: vec![
                    WirePlan {
                        candidates: None,
                        total: 10,
                    },
                    WirePlan {
                        candidates: Some(3),
                        total: 100,
                    },
                ],
                segments: 4,
                zone_pruned: 2,
                object_pruned: 1,
                segment_bytes_read: 4_096,
                trajectories_decoded: 7,
                lazy_opens: 4,
                row_cache_hits: 9,
                row_cache_misses: 5,
                snapshot_build_ns: 48_000,
                evaluate_ns: 31_000,
                snapshot_cached: true,
            }),
            Response::Stats {
                stats: ServerStats {
                    events: 1,
                    presences: 2,
                    visits_opened: 3,
                    visits_closed: 4,
                    episodes: 5,
                    anomalies: 6,
                    open_visits: 7,
                    warehouse_trajectories: 8,
                    warehouse_segments: 9,
                    sessions_accepted: 10,
                    sessions_active: 2,
                },
                rollup: StatsRollup {
                    period_seconds: 3600,
                    cells: vec![
                        (
                            cell(1),
                            CellRollup {
                                trajectories: 2,
                                stays: 3,
                                dwell_seconds: 120,
                            },
                        ),
                        (
                            cell(4),
                            CellRollup {
                                trajectories: 1,
                                stays: 1,
                                dwell_seconds: 60,
                            },
                        ),
                    ],
                    periods: vec![(-3600, 1), (0, 2), (7200, 1)],
                },
            },
            Response::Stats {
                stats: ServerStats::default(),
                rollup: StatsRollup::default(),
            },
            Response::Checkpointed {
                spilled: 12,
                warehouse_trajectories: 99,
                manifest_sequence: 7,
            },
            Response::ShuttingDown,
            Response::Error("bad payload".into()),
            Response::Metrics(sample_snapshot()),
            Response::Metrics(MetricsSnapshot::default()),
            Response::Subscribed { epoch: 17 },
            Response::Unsubscribed,
            Response::Notification {
                epoch: 18,
                episodes: vec![sample_episode()],
            },
            Response::Notification {
                epoch: 19,
                episodes: vec![],
            },
            Response::Health(sample_health()),
            Response::Health(HealthReport::default()),
            Response::Traces(sample_traces()),
            Response::Traces(Vec::new()),
        ]
    }

    #[test]
    fn every_request_round_trips() {
        for req in requests() {
            let mut buf = Vec::new();
            encode_request(&mut buf, &req);
            let back = decode_request(&mut buf.as_slice()).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn every_response_round_trips() {
        for resp in responses() {
            let mut buf = Vec::new();
            encode_response(&mut buf, &resp);
            let back = decode_response(&mut buf.as_slice()).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn truncated_messages_error_and_never_panic() {
        for req in requests() {
            let mut buf = Vec::new();
            encode_request(&mut buf, &req);
            for cut in 0..buf.len() {
                assert!(decode_request(&mut &buf[..cut]).is_err(), "cut {cut}");
            }
        }
        for resp in responses() {
            let mut buf = Vec::new();
            encode_response(&mut buf, &resp);
            for cut in 0..buf.len() {
                assert!(decode_response(&mut &buf[..cut]).is_err(), "cut {cut}");
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        encode_request(&mut buf, &Request::Stats);
        buf.push(0);
        assert!(decode_request(&mut buf.as_slice()).is_err());
        let mut buf = Vec::new();
        encode_response(&mut buf, &Response::ShuttingDown);
        buf.push(0);
        assert!(decode_response(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn inverted_episode_ranges_and_intervals_are_rejected() {
        // range end before start
        let mut buf = Vec::new();
        let mut bad = sample_episode();
        encode_episode(&mut buf, &bad);
        let good_len = buf.len();
        buf.clear();
        put_u64(&mut buf, bad.visit.0);
        put_str(&mut buf, &bad.moving_object);
        put_u64(&mut buf, bad.predicate as u64);
        put_u64(&mut buf, 4); // start
        put_u64(&mut buf, 1); // end < start
        put_i64(&mut buf, bad.episode.time.start.0);
        put_i64(&mut buf, bad.episode.time.end.0);
        encode_annotations(&mut buf, &bad.episode.annotations);
        assert!(decode_episode(&mut buf.as_slice()).is_err());

        // interval end before start — swap the timestamps
        bad.episode.range = 1..4;
        buf.clear();
        put_u64(&mut buf, bad.visit.0);
        put_str(&mut buf, &bad.moving_object);
        put_u64(&mut buf, bad.predicate as u64);
        put_u64(&mut buf, bad.episode.range.start as u64);
        put_u64(&mut buf, bad.episode.range.end as u64);
        put_i64(&mut buf, bad.episode.time.end.0);
        put_i64(&mut buf, bad.episode.time.start.0);
        encode_annotations(&mut buf, &bad.episode.annotations);
        assert!(decode_episode(&mut buf.as_slice()).is_err());

        // and the well-formed encoding still round-trips
        buf.clear();
        let episode = sample_episode();
        encode_episode(&mut buf, &episode);
        assert_eq!(buf.len(), good_len);
        assert_eq!(decode_episode(&mut buf.as_slice()).unwrap(), episode);
    }

    /// A timestamp past `i64` is refused, never computed (a debug build
    /// would panic on it, a release build would wrap and accept it): an
    /// ingested presence ending one second past `i64::MAX`, and a reply
    /// row whose second stay starts past it.
    #[test]
    fn overflowing_timestamps_are_refused() {
        let stay = |buf: &mut Vec<u8>, delta: i64, duration: u64| {
            encode_transition(buf, &TransitionTaken::Unknown);
            encode_cell(buf, cell(1));
            put_i64(buf, delta);
            put_u64(buf, duration);
            encode_annotations(buf, &AnnotationSet::new());
            encode_annotations(buf, &AnnotationSet::new());
        };
        let mut request = vec![REQ_INGEST];
        put_u64(&mut request, 1);
        request.push(EV_PRESENCE);
        put_u64(&mut request, 8);
        stay(&mut request, i64::MAX, 1);
        assert_eq!(
            decode_request(&mut request.as_slice()),
            Err(CodecError::Overflow)
        );

        let mut reply = vec![RESP_TRAJECTORIES];
        put_u64(&mut reply, 1);
        put_str(&mut reply, "mo");
        put_i64(&mut reply, i64::MAX - 10); // base
        put_u64(&mut reply, 2);
        stay(&mut reply, 0, 5); // ends at i64::MAX - 5
        stay(&mut reply, 10, 0);
        encode_annotations(
            &mut reply,
            &AnnotationSet::from_iter([Annotation::goal("v")]),
        );
        assert_eq!(
            decode_response(&mut reply.as_slice()),
            Err(CodecError::Overflow)
        );
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(matches!(
            decode_request(&mut [0xEEu8].as_slice()),
            Err(CodecError::BadTag(0xEE))
        ));
        assert!(matches!(
            decode_response(&mut [0xEEu8].as_slice()),
            Err(CodecError::BadTag(0xEE))
        ));
        assert!(matches!(
            decode_event(&mut [0xEEu8].as_slice()),
            Err(CodecError::BadTag(0xEE))
        ));
    }
}
