//! # sitm — Semantic Indoor Trajectory Model
//!
//! Facade crate re-exporting the full SITM toolkit, a Rust reproduction of
//! *Kontarinis et al., "Towards a Semantic Indoor Trajectory Model"*
//! (BMDA @ EDBT 2019).
//!
//! The toolkit decomposes into focused crates, all re-exported here:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`graph`] | `sitm-graph` | directed multigraphs, multilayer networks, path algorithms |
//! | [`geometry`] | `sitm-geometry` | 2D points, polygons, topological predicates |
//! | [`qsr`] | `sitm-qsr` | RCC8 calculus, 9-intersection, constraint networks |
//! | [`space`] | `sitm-space` | IndoorGML-style multi-layered indoor space model |
//! | [`core`] | `sitm-core` | semantic trajectories, episodes, segmentation, inference |
//! | [`positioning`] | `sitm-positioning` | BLE RSSI models, trilateration, EKF, particle filter |
//! | [`sim`] | `sitm-sim` | seeded samplers & stochastic processes |
//! | [`louvre`] | `sitm-louvre` | the Louvre case study & calibrated synthetic dataset |
//! | [`mining`] | `sitm-mining` | sequential patterns, Markov models, similarity, profiling |
//! | [`obs`] | `sitm-obs` | lock-cheap observability: counters, gauges, log₂ histograms, spans, hierarchical request traces, a time-series sampler, health reports, slow-query log, snapshot codecs |
//! | [`analytics`] | `sitm-analytics` | descriptive statistics, choropleths, reports |
//! | [`query`] | `sitm-query` | indexed trajectory retrieval: predicates, plans, aggregation, federation, the segmented warehouse |
//! | [`store`] | `sitm-store` | binary codec, CRC-framed append-only log, crash recovery, compaction, the segment tier, Bloom filters |
//! | [`stream`] | `sitm-stream` | work-stealing online ingestion, live queries, batch-equivalent episodes, warehouse spill |
//! | [`serve`] | `sitm-serve` | the network tier: concurrent TCP server + client for remote ingest and federated semantic queries |
//! | [`ontology`] | `sitm-ontology` | triple store + CIDOC-CRM-flavoured museum knowledge base |
//!
//! ## Architecture: the live → warehouse → serve data path
//!
//! The system is tiered: a **live tier** (streaming engines) owns open
//! visits, a **warehouse tier** (immutable on-disk segments) owns
//! history, a **network tier** ([`serve`]) exposes both to remote
//! clients, and one query surface federates it all. A trajectory's life:
//!
//! ```text
//!   ingest ─▶ live state ─▶ close ─▶ finished backlog ─▶ Flusher ─▶ segment ─▶ compaction
//!            (open visits,  (late     (take_finished,     (spill)    (sorted    (size-tiered
//!             LiveSnapshot   events    exactly-once vs                run, zone   merge, manifest
//!             + LiveIndex)   fenced)   checkpoints)                   map+Bloom,  rewrite)
//!                                                                    fsync)
//!   ──────────────────────────────── serve ────────────────────────────────▶ clients
//!            (TCP sessions: IngestBatch in; Query / QueryFederated /
//!             Explain / Stats / Metrics / Checkpoint / Shutdown out —
//!             PROTOCOL.md)
//! ```
//!
//! * **Live** — [`stream`]'s `ParallelEngine` applies events per visit
//!   in arrival order, on any number of workers; `live_snapshot()` cuts a
//!   snapshot-consistent view (open-visit prefixes + incremental
//!   postings) queryable with [`query`]'s predicates.
//! * **Fence** — a closed visit fences its stragglers for
//!   `allowed_lateness` (event-time deterministic, identical for any
//!   worker count); at close, with `EngineConfig::with_warehouse()`, the
//!   completed trajectory enters the finished backlog.
//! * **Flush** — `stream::Flusher` drains the backlog (`take_finished`,
//!   a barrier) and spills batches into `query::SegmentedDb`, bounding
//!   engine memory. The backlog rides checkpoint payloads until taken,
//!   so a crash replays exactly what was never made durable.
//! * **Segment** — each spill becomes one immutable CRC-framed file
//!   ([`store`]'s `warehouse` module): a canonical sorted run of
//!   encoded trajectories behind a zone map (span min/max, cell /
//!   object / annotation sets), made visible atomically by a manifest
//!   record; the newest intact record is the recovery point (torn
//!   writes torture-tested at every byte offset).
//! * **Compaction** — small segments merge size-tiered into larger
//!   sorted runs; the manifest log itself stays bounded by the same
//!   `CompactionPolicy` idiom the checkpoint log uses, and replaced
//!   files outlive every manifest record that still references them.
//! * **Serve** — [`serve`]'s `Server` wraps one engine + one warehouse
//!   behind a CRC-framed TCP protocol (a listener plus a bounded
//!   session-worker pool): clients ingest event batches, run
//!   sorted/paged federated queries over live ∪ warehouse, inspect
//!   plans (including zone-map/Bloom pruning counts), trigger
//!   checkpoints, and shut the pipeline down gracefully — served
//!   results are differentially pinned equal to the in-process
//!   `Query::execute_federated` on identical input (both are sinks of
//!   [`query`]'s one paging core). See `PROTOCOL.md` for the wire
//!   format.
//!
//! ## Observability: metrics across the whole path
//!
//! Every stage above is instrumented through [`obs`]'s
//! `MetricsRegistry` — a name → instrument map of atomic counters,
//! gauges, and log₂-bucketed histograms (p50/p95/p99/max derivable
//! from any snapshot) that components bind `Arc` handles to at
//! construction, so the hot paths pay relaxed atomics only. Components
//! default to the process-global registry; a [`serve`] `Server` gives
//! its whole pipeline a fresh one and exposes it over the wire via the
//! `Metrics` op (a versioned, torture-tested snapshot codec — see
//! `PROTOCOL.md`). The stable names, per tier:
//!
//! | Prefix | Tier | Instruments |
//! |---|---|---|
//! | `engine.*` | live | `events_ingested`, `events_fenced`, `visits_routed` vs `visits_stolen` (work-stealing attribution), `queue_depth.w{i}` per-worker gauges, `snapshot_cuts` / `snapshot_visits_recloned` (what a live cut re-derived), `pending_episodes` gauge |
//! | `flush.*` | spill | `spills`, `trajectories`, `duration_ns` histogram |
//! | `store.*` | warehouse | `segments_built`, `segments_compacted`, `segment_bytes_written`, `manifest_records`, `gc_sweeps`, `lazy_opens` (segments opened headers-only) |
//! | `query.*` | retrieval | `segments_scanned` vs `object_pruned` vs `zone_pruned` vs `bloom_pruned`, `segment_bytes_read` / `trajectories_decoded` lazy-I/O attribution, `candidates` set-size histogram |
//! | `serve.*` | network | `requests.{op}` / `handle_ns.{op}` per op, `bytes_in`/`bytes_out`, `errors`/`frame_errors`/`bad_requests`, `sessions_active` + `subscriptions_active` + `subscribers_active` gauges, `snapshot_build_ns`/`evaluate_ns`/`explain_snapshot_ns` read-path splits, `snapshot_cache_hits`/`snapshot_cache_misses`, `notifications_pushed`/`subscribers_dropped`/`backlog_trimmed` |
//!
//! (`flush.*` also carries the `backlog_trajectories` gauge — the
//! spill tier's lag, served by the `Health` op. The authoritative
//! catalog, pinned by `crates/serve/tests/metrics_catalog.rs`, lives
//! in `PROTOCOL.md`.)
//!
//! The serve tier also keeps a bounded **slow-query log** (threshold
//! set via `ServerConfig::with_slow_query_threshold`, carried in the
//! same snapshot) and reports per-request stage timing in `Explain`
//! responses; the `ledger` benchmark's traced pass reads its per-layer
//! figures (pruning ratios, lazy-segment I/O, the RTT decomposition)
//! from the same snapshot.
//!
//! ## Tracing: one tree per served request
//!
//! On top of the aggregate metrics, every served request records a
//! **hierarchical trace**: a tree of spans rooted at the op, cut into
//! a bounded ring by [`obs`]'s `TraceRecorder` and fetched over the
//! wire with the `Trace` op. The spans name the tiers a request
//! actually crossed:
//!
//! | Span | Tier | Covers |
//! |---|---|---|
//! | *root* (op name) | serve | handle → notification flush → response write |
//! | `handle` | serve | the request handler exactly (the `handle_ns.{op}` sample) |
//! | `snapshot_cut` | serve/live | the atomic live-cut + warehouse-guard acquisition |
//! | `snapshot_rebuild` | live | the engine rebuilding a live snapshot on epoch-cache miss † |
//! | `evaluate` | query | federated / segmented evaluation outside the locks († on the warehouse-only `Query` op) |
//! | `prune` | query | object-index → Bloom → zone-map candidate pruning † |
//! | `order_page` | query | ordering the candidates by sort-column / directory keys, as far as the page reaches † |
//! | `fetch_rows` | query | walking the order to the page: rows re-checked and skipped by reference, the page's rows copied (cold rows read) † |
//! | `row_read` | store | one directory-guided single-row segment read (cache miss) † |
//! | `segment_hydrate` | store | a segment's first full decode † |
//! | `wire_write` | serve | encoding + writing the response frame |
//!
//! († = **detail tier**: recorded on one request in
//! `sitm_obs::trace::DETAIL_SAMPLE_EVERY`, and on *every* request whose
//! context arrived over the wire — the caller asked about that request
//! specifically. The unmarked coarse tiers record on every trace, which
//! keeps the default-config tracing tax small: the sampling is pinned
//! as a span count by `crates/serve/tests/trace_surface.rs`, and the
//! `ledger` benchmark's traced pass prices it as
//! `obs.trace.overhead_pct` against `load.untraced_op_p50_us`.)
//!
//! A `TraceContext` (trace id + parent span id) rides an optional wire
//! envelope extension (`PROTOCOL.md`), so a federation fan-out keeps
//! one trace id across peers; with tracing off (capacity 0) every span
//! call is inert. A background **time-series sampler** snapshots the
//! registry each period into delta-compressed frames, from which the
//! `Health` op derives current rates (events/s), tier lag (flush
//! backlog, worker queue depths, checkpoint age), and session load —
//! the one-glance `sitm-top` screen rendered by
//! `examples/query_server.rs`.
//!
//! **Consistency guarantees.** Queries see per-source snapshots:
//! `SegmentedDb` answers from the newest committed manifest,
//! `LiveSnapshot` from a quiesce cut; both narrow predicates through
//! sound candidate supersets (zone maps + per-segment postings, live
//! postings) and re-check every candidate, so indexed, pruned, and
//! scanned paths are result-identical — differentially tested against
//! the query crate's naive oracle over an in-memory `TrajectoryDb` at
//! every flush/compaction point, including sorted/limited
//! `Query::execute_federated` over the live ∪ warehouse union
//! (`tests/tiered_warehouse.rs`, `tests/one_executor.rs`).
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for a complete walk-through: build an indoor
//! space, record a semantic trajectory, segment it into episodes, and lift
//! it through the layer hierarchy. `examples/tiered_warehouse.rs` walks
//! the full live → warehouse pipeline above.

pub use sitm_analytics as analytics;
pub use sitm_core as core;
pub use sitm_geometry as geometry;
pub use sitm_graph as graph;
pub use sitm_louvre as louvre;
pub use sitm_mining as mining;
pub use sitm_obs as obs;
pub use sitm_ontology as ontology;
pub use sitm_positioning as positioning;
pub use sitm_qsr as qsr;
pub use sitm_query as query;
pub use sitm_serve as serve;
pub use sitm_sim as sim;
pub use sitm_space as space;
pub use sitm_store as store;
pub use sitm_stream as stream;
