//! The bytes of every binary format, pinned: one `(len, crc32)` row per
//! format family, each encoded from fixed values. The segment file has
//! its own pin (`crates/store/tests/warehouse.rs`,
//! `segment_file_bytes_are_pinned`); this table covers the rest — the
//! wire protocol's requests and responses, the stream checkpoint
//! payload, the warehouse's manifest record and header structures (zone
//! map, rollup), and the observability payloads. A change
//! to one byte of any of them fails here, naming the family.

use std::borrow::Cow;

use sitm::core::{
    Annotation, AnnotationKind, AnnotationSet, Duration, Episode, OpenRun, PresenceInterval,
    SemanticTrajectory, TimeInterval, Timestamp, Trace, TransitionTaken,
};
use sitm::graph::{EdgeId, LayerIdx, NodeId};
use sitm::obs::codec::encode_snapshot;
use sitm::obs::health::HealthReport;
use sitm::obs::trace::{encode_traces, SpanRecord, TraceTree};
use sitm::obs::{HistogramSnapshot, MetricsSnapshot, SlowQuery};
use sitm::query::wire::WireQuery;
use sitm::query::{Predicate, SortKey};
use sitm::serve::{
    encode_request, encode_response, ExplainReport, Request, Response, ServerStats, StatsRollup,
    WirePlan,
};
use sitm::space::CellRef;
use sitm::store::warehouse::SegmentRef;
use sitm::store::{crc32, CellRollup, ManifestRecord, Record, SegmentRollup, ZoneMap};
use sitm::stream::checkpoint::{encode_state, EngineState};
use sitm::stream::visit::{OpenFix, VisitSnapshot};
use sitm::stream::{Anomalies, EmittedEpisode, EngineStats, StreamEvent, VisitKey};

/// `(family, encoded length, crc32 of the encoding)`.
const PINS: &[(&str, usize, u32)] = &[
    ("request/ingest_batch", 84, 446_758_443),
    ("request/query", 86, 4_039_285_942),
    ("request/query_federated", 85, 1_459_407_388),
    ("request/explain", 5, 2_179_008_073),
    ("request/stats", 1, 3_580_832_660),
    ("request/checkpoint", 1, 2_724_731_650),
    ("request/shutdown", 1, 996_231_864),
    ("request/metrics", 1, 1_281_784_366),
    ("request/subscribe", 5, 4_132_617_436),
    ("request/unsubscribe", 1, 2_883_475_241),
    ("request/health", 1, 852_952_723),
    ("request/trace", 3, 4_093_218_416),
    ("response/trajectories", 540, 4_182_575_208),
    ("response/explained", 25, 2_248_861_047),
    ("response/stats", 41, 2_275_677_838),
    ("response/notification", 59, 4_062_755_156),
    ("response/metrics", 207, 2_671_553_519),
    ("response/health", 28, 3_615_147_793),
    ("response/traces", 114, 3_379_850_755),
    ("stream/engine_checkpoint", 460, 2_657_469_137),
    ("store/manifest_record", 9, 3_678_611_667),
    ("store/zone_map", 98, 2_958_838_706),
    ("store/segment_rollup", 41, 658_813_108),
    ("obs/metrics_snapshot", 204, 4_189_366_600),
    ("obs/trace_trees", 112, 2_149_868_195),
];

fn cell(layer: usize, node: usize) -> CellRef {
    CellRef::new(LayerIdx::from_index(layer), NodeId::from_index(node))
}

fn labels(pairs: &[(&str, &str)]) -> AnnotationSet {
    AnnotationSet::from_iter(
        pairs
            .iter()
            .map(|&(kind, value)| Annotation::new(AnnotationKind::parse(kind), value)),
    )
}

/// A stay with every field populated.
fn stay(transition: TransitionTaken, node: usize, start: i64, end: i64) -> PresenceInterval {
    PresenceInterval::new(transition, cell(1, node), Timestamp(start), Timestamp(end))
        .with_annotations(labels(&[("goal", "visit"), ("note", "é·µ")]))
        .with_transition_annotations(labels(&[("event", "door")]))
}

/// Three stays over every transition kind, with a gap, a back-to-back
/// join and a large absolute start.
fn trajectory(object: &str, base: i64) -> SemanticTrajectory {
    let trace = Trace::new(vec![
        stay(TransitionTaken::Unknown, 3, base, base + 155),
        stay(
            TransitionTaken::Named("door012".into()),
            7,
            base + 155,
            base + 600,
        ),
        stay(
            TransitionTaken::Edge {
                layer: LayerIdx::from_index(2),
                edge: EdgeId::from_index(19),
            },
            300,
            base + 660,
            base + 1_800,
        ),
    ])
    .unwrap();
    SemanticTrajectory::new(
        object,
        trace,
        labels(&[("goal", "visit"), ("behavior", "browsing")]),
    )
    .unwrap()
}

fn trajectories() -> Vec<SemanticTrajectory> {
    vec![
        trajectory("visitor-0042", 1_485_945_000),
        trajectory("visitor-7", -86_400),
        trajectory("v", 0),
    ]
}

fn episode() -> EmittedEpisode {
    EmittedEpisode {
        visit: VisitKey(41),
        moving_object: "mo-41".into(),
        predicate: 2,
        episode: Episode {
            range: 1..4,
            time: TimeInterval::new(Timestamp(-3), Timestamp(1_485_945_090)),
            annotations: labels(&[("goal", "visit")]),
        },
    }
}

fn wire_query() -> WireQuery {
    WireQuery {
        predicate: Predicate::VisitedCell(cell(1, 3))
            .and(Predicate::MovingObject("visitor-0042".into()))
            .or(
                Predicate::SpanOverlaps(TimeInterval::new(Timestamp(-5), Timestamp(1_485_945_090)))
                    .not(),
            )
            .and(Predicate::SequenceContains(vec![cell(1, 3), cell(1, 7)]))
            .and(Predicate::StayOverlaps(
                cell(1, 7),
                TimeInterval::new(Timestamp(10), Timestamp(20)),
            ))
            .and(Predicate::HasTrajAnnotation(Annotation::goal("visit")))
            .and(Predicate::HasStayAnnotation(Annotation::behavior("rushed")))
            .and(Predicate::MinTotalDwell(Duration::minutes(5)))
            .and(Predicate::MinStayIn(cell(1, 2), Duration::seconds(30))),
        order: Some((SortKey::TotalDwell, false)),
        offset: 300,
        limit: Some(10),
    }
}

fn requests() -> Vec<(&'static str, Request)> {
    let events = vec![
        StreamEvent::VisitOpened {
            visit: VisitKey(7),
            moving_object: "mo-7".into(),
            annotations: labels(&[("goal", "visit")]),
            at: Timestamp(-12),
        },
        StreamEvent::Fix {
            visit: VisitKey(7),
            cell: cell(0, 3),
            at: Timestamp(1_485_945_000),
        },
        StreamEvent::Presence {
            visit: VisitKey(300),
            interval: stay(TransitionTaken::Named("d".into()), 1, 0, 50),
        },
        StreamEvent::VisitClosed {
            visit: VisitKey(7),
            at: Timestamp(1_485_946_000),
        },
    ];
    vec![
        ("request/ingest_batch", Request::IngestBatch(events)),
        ("request/query", Request::Query(wire_query())),
        (
            "request/query_federated",
            Request::QueryFederated(WireQuery {
                order: Some((SortKey::Start, true)),
                limit: None,
                ..wire_query()
            }),
        ),
        (
            "request/explain",
            Request::Explain(Predicate::VisitedCell(cell(1, 1)).not()),
        ),
        ("request/stats", Request::Stats),
        ("request/checkpoint", Request::Checkpoint),
        ("request/shutdown", Request::Shutdown),
        ("request/metrics", Request::Metrics),
        ("request/subscribe", Request::Subscribe(WireQuery::all())),
        ("request/unsubscribe", Request::Unsubscribe),
        ("request/health", Request::Health),
        ("request/trace", Request::Trace { limit: 4_096 }),
    ]
}

fn histogram() -> HistogramSnapshot {
    HistogramSnapshot {
        count: 7,
        sum: 275_234,
        max: u64::MAX,
        buckets: vec![(0, 1), (1, 1), (3, 1), (8, 1), (13, 1), (19, 1), (63, 1)],
    }
}

fn metrics() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: vec![
            ("engine.events_ingested".into(), 999_999),
            ("serve.requests.query".into(), 1_234),
        ],
        gauges: vec![
            ("engine.queue_depth.w0".into(), 17),
            ("serve.sessions_active".into(), -3),
        ],
        histograms: vec![("serve.handle_ns.query".into(), histogram())],
        slow_queries: vec![
            SlowQuery {
                op: "query_federated".into(),
                duration_ns: 271_000,
                detail: "limit=5 gallery-1 ∪".into(),
            },
            SlowQuery {
                op: "ingest".into(),
                duration_ns: 9_000_000,
                detail: String::new(),
            },
        ],
    }
}

fn health() -> HealthReport {
    HealthReport {
        uptime_ms: 93_000,
        epoch: 412,
        sessions_accepted: 18,
        sessions_active: 3,
        subscribers_active: 1,
        flush_backlog_trajectories: 57,
        worker_queue_depths: vec![0, 12, 3, 0],
        last_checkpoint_age_ms: Some(4_200),
        warehouse_segments: 9,
        warehouse_trajectories: 15_000,
        traces_recorded: 230,
        events_per_sec_milli: 1_234_567,
    }
}

fn trace_trees() -> Vec<TraceTree> {
    let leaf = |id: u64, name: &'static str, start: u64, dur: u64| SpanRecord {
        id,
        name: Cow::Borrowed(name),
        start_ns: start,
        duration_ns: dur,
        children: Vec::new(),
    };
    vec![
        TraceTree {
            trace_id: 0xDEAD_BEEF,
            parent_span_id: 0,
            root: SpanRecord {
                id: 1,
                name: Cow::Borrowed("query_federated"),
                start_ns: 0,
                duration_ns: 120_000,
                children: vec![
                    leaf(2, "snapshot_cut", 100, 8_000),
                    SpanRecord {
                        id: 3,
                        name: Cow::Borrowed("evaluate"),
                        start_ns: 8_200,
                        duration_ns: 100_000,
                        children: vec![
                            leaf(4, "prune", 8_300, 20_000),
                            leaf(5, "row_read·µ", 30_000, 60_000),
                        ],
                    },
                ],
            },
        },
        TraceTree {
            trace_id: 7,
            parent_span_id: 3,
            root: leaf(1, "health", 0, 900),
        },
    ]
}

fn responses() -> Vec<(&'static str, Response)> {
    vec![
        (
            "response/trajectories",
            Response::Trajectories(trajectories()),
        ),
        (
            "response/explained",
            Response::Explained(ExplainReport {
                plans: vec![
                    WirePlan {
                        candidates: None,
                        total: 10,
                    },
                    WirePlan {
                        candidates: Some(3),
                        total: 100_000,
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
        ),
        (
            "response/stats",
            Response::Stats {
                stats: ServerStats {
                    events: 1,
                    presences: 2,
                    visits_opened: 3,
                    visits_closed: 4,
                    episodes: 5,
                    anomalies: 6,
                    open_visits: 7,
                    warehouse_trajectories: 800,
                    warehouse_segments: 9,
                    sessions_accepted: 10,
                    sessions_active: 2,
                },
                rollup: StatsRollup {
                    period_seconds: 3_600,
                    cells: vec![
                        (
                            cell(1, 1),
                            CellRollup {
                                trajectories: 2,
                                stays: 3,
                                dwell_seconds: 120,
                            },
                        ),
                        (
                            cell(1, 400),
                            CellRollup {
                                trajectories: 1,
                                stays: 1,
                                dwell_seconds: 60_000,
                            },
                        ),
                    ],
                    periods: vec![(-3_600, 1), (0, 2), (1_485_943_200, 1)],
                },
            },
        ),
        (
            "response/notification",
            Response::Notification {
                epoch: 18,
                episodes: vec![episode(), episode()],
            },
        ),
        ("response/metrics", Response::Metrics(metrics())),
        ("response/health", Response::Health(health())),
        ("response/traces", Response::Traces(trace_trees())),
    ]
}

fn engine_state() -> EngineState {
    let visit = VisitSnapshot {
        moving_object: "visitor-0042".into(),
        annotations: labels(&[("goal", "visit")]),
        open_fix: Some(OpenFix {
            cell: cell(1, 300),
            start: Timestamp(1_485_945_700),
            last_at: Timestamp(1_485_945_760),
        }),
        open_runs: vec![
            Some(OpenRun {
                start: 1,
                start_time: Timestamp(1_485_945_155),
                max_end: Timestamp(1_485_945_600),
            }),
            None,
        ],
        intervals: trajectory("visitor-0042", 1_485_945_000)
            .trace()
            .intervals()
            .to_vec(),
    };
    let bare = VisitSnapshot {
        moving_object: "mo".into(),
        annotations: AnnotationSet::new(),
        open_fix: None,
        open_runs: vec![None, None],
        intervals: Vec::new(),
    };
    EngineState {
        watermark: Some(Timestamp(1_485_945_760)),
        visits: vec![(3, visit), (900, bare)],
        closed: vec![(1, Timestamp(1_485_940_000)), (2, Timestamp(-4))],
        pending: vec![episode()],
        finished: vec![trajectory("visitor-7", -86_400)],
        stats: EngineStats {
            events: 2_100,
            presences: 1_400,
            fixes: 300,
            visits_opened: 300,
            visits_closed: 150,
            episodes: 168,
            open_visits: 0,
            anomalies: Anomalies {
                out_of_order: 1,
                mixed_layer: 2,
                implicit_opens: 4,
                after_close: 5,
                not_proper: 6,
                duplicate_opens: 7,
            },
        },
    }
}

/// Every pinned family's bytes, in [`PINS`] order.
fn encodings() -> Vec<(&'static str, Vec<u8>)> {
    let mut out = Vec::new();
    for (family, request) in requests() {
        let mut buf = Vec::new();
        encode_request(&mut buf, &request);
        out.push((family, buf));
    }
    for (family, response) in responses() {
        let mut buf = Vec::new();
        encode_response(&mut buf, &response);
        out.push((family, buf));
    }
    out.push(("stream/engine_checkpoint", encode_state(&engine_state(), 2)));

    let record = |r: &dyn Fn(&mut Vec<u8>)| {
        let mut buf = Vec::new();
        r(&mut buf);
        buf
    };
    let rows = trajectories();
    let zone = ZoneMap::build(&rows);
    out.push((
        "store/manifest_record",
        record(&|buf| {
            ManifestRecord {
                sequence: 42,
                segments: vec![
                    SegmentRef {
                        id: 0,
                        records: 2_900,
                    },
                    SegmentRef {
                        id: 300,
                        records: 11_600,
                    },
                ],
            }
            .encode_record(buf)
        }),
    ));
    out.push(("store/zone_map", record(&|buf| zone.encode(buf))));
    out.push((
        "store/segment_rollup",
        record(&|buf| SegmentRollup::build(&rows, 3_600).encode(buf)),
    ));
    out.push((
        "obs/metrics_snapshot",
        record(&|buf| encode_snapshot(buf, &metrics())),
    ));
    out.push((
        "obs/trace_trees",
        record(&|buf| encode_traces(buf, &trace_trees())),
    ));
    out
}

#[test]
fn every_format_family_encodes_its_pinned_bytes() {
    let encodings = encodings();
    let measured: Vec<(&str, usize, u32)> = encodings
        .iter()
        .map(|(family, bytes)| (*family, bytes.len(), crc32(bytes)))
        .collect();
    let table: String = measured
        .iter()
        .map(|(family, len, crc)| format!("    ({family:?}, {len}, {crc}),\n"))
        .collect();
    assert_eq!(measured, PINS, "a format changed; measured:\n{table}");
}
