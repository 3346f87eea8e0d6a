//! The network tier end to end: start a `sitm::serve` server, drive it
//! with a client — batched ingest, a mid-stream checkpoint into the
//! warehouse, a continuous-query subscription that gets closed-visit
//! episodes *pushed* at the ingest barrier, federated queries over
//! live ∪ warehouse, an EXPLAIN with object-index/zone-map pruning counts —
//! then shut it down gracefully.
//!
//! This doubles as the CI smoke test for the server (`cargo run
//! --example query_server`): everything runs in-process on an
//! ephemeral loopback port and asserts its own results.

use sitm::core::{
    Annotation, AnnotationSet, Duration, IntervalPredicate, PresenceInterval, Timestamp,
    TransitionTaken,
};
use sitm::graph::{LayerIdx, NodeId};
use sitm::query::wire::WireQuery;
use sitm::query::{Predicate, SortKey};
use sitm::serve::{Client, Server, ServerConfig, Subscriber};
use sitm::space::CellRef;
use sitm::stream::{EngineConfig, StreamEvent, VisitKey};

fn cell(n: usize) -> CellRef {
    CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
}

fn label(s: &str) -> AnnotationSet {
    AnnotationSet::from_iter([Annotation::goal(s)])
}

/// A tiny museum day: `closed` finished visits plus `open` still in
/// the building.
fn feed(closed: u64, open: u64) -> Vec<StreamEvent> {
    let mut events = Vec::new();
    for v in 0..closed + open {
        let t0 = v as i64 * 60;
        events.push(StreamEvent::VisitOpened {
            visit: VisitKey(v),
            moving_object: format!("visitor-{v}"),
            annotations: label("visit"),
            at: Timestamp(t0),
        });
        for (i, c) in [0usize, 1, (v % 3) as usize + 2].iter().enumerate() {
            events.push(StreamEvent::Presence {
                visit: VisitKey(v),
                interval: PresenceInterval::new(
                    TransitionTaken::Unknown,
                    cell(*c),
                    Timestamp(t0 + i as i64 * 120),
                    Timestamp(t0 + i as i64 * 120 + 90),
                ),
            });
        }
        if v < closed {
            events.push(StreamEvent::VisitClosed {
                visit: VisitKey(v),
                at: Timestamp(t0 + 500),
            });
        }
    }
    events
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let warehouse_dir =
        std::env::temp_dir().join(format!("sitm-example-query-server-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&warehouse_dir);

    // One episode detector ("gallery 1 stays") plus the whole-visit run.
    let engine = EngineConfig::new(vec![
        (IntervalPredicate::in_cells([cell(1)]), label("gallery-1")),
        (IntervalPredicate::any(), label("whole")),
    ])
    .with_shards(2);

    let server = Server::start(
        ServerConfig::new(engine, &warehouse_dir)
            .with_sessions(2)
            // Everything qualifies as "slow" so the smoke test also
            // exercises the slow-query ring buffer.
            .with_slow_query_threshold(std::time::Duration::ZERO),
    )?;
    println!("serving on {}", server.addr());

    let mut client = Client::connect(server.addr())?;

    // Ingest a day in two batches with a checkpoint in between, so
    // history lands in the warehouse tier while three visitors are
    // still walking around (live tier).
    let events = feed(12, 3);
    let mid = events.len() / 2;
    client.ingest_batch(events[..mid].to_vec())?;
    let (spilled_early, _, _) = client.checkpoint()?;

    // A continuous query on its own connection, registered before the
    // second half of the day: the episodes its visits close are
    // *pushed* at the ingest barrier instead of polled for.
    let mut sub = Subscriber::subscribe(
        server.addr(),
        &WireQuery {
            predicate: Predicate::HasTrajAnnotation(Annotation::goal("gallery-1")),
            order: None,
            offset: 0,
            limit: None,
        },
    )?;

    client.ingest_batch(events[mid..].to_vec())?;
    let (spilled_late, warehouse_total, manifest) = client.checkpoint()?;

    let mut pushed = 0usize;
    let mut last_epoch = sub.epoch();
    for _ in 0..40 {
        if let Some((epoch, episodes)) = sub.poll(std::time::Duration::from_millis(250))? {
            assert!(epoch > last_epoch, "notification epochs strictly increase");
            last_epoch = epoch;
            pushed += episodes.len();
            if pushed > 0 {
                break;
            }
        }
    }
    println!("subscription pushed {pushed} gallery-1 episodes (epoch {last_epoch})");
    assert!(pushed >= 1, "the barrier must push at least one match");
    let drained = sub.unsubscribe()?;
    println!(
        "unsubscribed ({} notifications still queued)",
        drained.len()
    );
    println!(
        "checkpoints spilled {spilled_early} + {spilled_late} visits \
         → warehouse holds {warehouse_total} (manifest #{manifest})"
    );
    assert_eq!(spilled_early + spilled_late, 12);

    // Who is (or was) in gallery 1, longest dwellers first?
    let q = WireQuery {
        predicate: Predicate::VisitedCell(cell(1)),
        order: Some((SortKey::TotalDwell, false)),
        offset: 0,
        limit: Some(5),
    };
    let live_and_history = client.query_federated(&q)?;
    println!(
        "federated (live ∪ warehouse) gallery-1 page: {:?}",
        live_and_history
            .iter()
            .map(|t| t.moving_object.as_str())
            .collect::<Vec<_>>()
    );
    assert_eq!(live_and_history.len(), 5);

    // The same page over history only.
    let history_only = client.query(&q)?;
    assert!(history_only.len() <= live_and_history.len() + 12);

    // EXPLAIN a selective point query: the warehouse answers from its
    // indexes: the global object index skips segments without the
    // visitor before any zone map is consulted.
    let report = client.explain(&Predicate::MovingObject("visitor-3".into()))?;
    println!(
        "explain visitor-3: {} segments, {} object-pruned, {} zone-pruned, plans {:?}",
        report.segments, report.object_pruned, report.zone_pruned, report.plans
    );
    assert_eq!(report.plans.len(), 2, "live + warehouse participants");

    // A dwell query the engine predicates annotated on the way in.
    let long_stays = client.query_federated(&WireQuery {
        predicate: Predicate::MinTotalDwell(Duration::seconds(200)),
        order: Some((SortKey::MovingObject, true)),
        offset: 0,
        limit: None,
    })?;
    println!("{} visits dwelt ≥ 200s", long_stays.len());

    let stats = client.server_stats()?;
    println!(
        "stats: {} events, {} opened / {} closed, {} open now, \
         {} warehouse trajectories in {} segments, {} sessions served ({} active)",
        stats.events,
        stats.visits_opened,
        stats.visits_closed,
        stats.open_visits,
        stats.warehouse_trajectories,
        stats.warehouse_segments,
        stats.sessions_accepted,
        stats.sessions_active
    );
    assert_eq!(stats.open_visits, 3);
    assert_eq!(stats.warehouse_trajectories, 12);

    // The observability plane: one snapshot carries every tier's
    // instruments — ingest counts from the engine, flush/segment counts
    // from the warehouse, pruning counts from the query layer, and the
    // serve tier's per-op latency histograms.
    let metrics = client.metrics()?;
    let ingested = metrics.counter("engine.events_ingested").unwrap_or(0);
    let ingest_requests = metrics.counter("serve.requests.ingest").unwrap_or(0);
    let federated = metrics
        .histogram("serve.handle_ns.query_federated")
        .map(|h| h.count)
        .unwrap_or(0);
    println!(
        "metrics: {ingested} events ingested over {ingest_requests} ingest requests, \
         {federated} federated queries (p95 {}ns), {} spills, {} segments built, \
         {} slow-log entries",
        metrics
            .histogram("serve.handle_ns.query_federated")
            .map(|h| h.quantile(0.95))
            .unwrap_or(0),
        metrics.counter("flush.spills").unwrap_or(0),
        metrics.counter("store.segments_built").unwrap_or(0),
        metrics.slow_queries.len(),
    );
    assert!(ingested > 0, "ingest counters must be live");
    assert_eq!(ingest_requests, 2, "two ingest batches");
    assert_eq!(federated, 2, "two federated queries");
    assert!(
        metrics.counter("store.segments_built").unwrap_or(0) > 0,
        "checkpoints must have built segments"
    );
    assert!(
        metrics
            .histogram("serve.snapshot_build_ns")
            .map(|h| h.count)
            .unwrap_or(0)
            > 0,
        "federated queries must record the snapshot-build/evaluate split"
    );
    assert!(
        !metrics.slow_queries.is_empty(),
        "a zero threshold must populate the slow-query log"
    );
    assert!(
        metrics.counter("serve.notifications_pushed").unwrap_or(0) >= 1,
        "the subscription must have been pushed to"
    );
    assert!(
        metrics.counter("serve.snapshot_cache_hits").unwrap_or(0) > 0,
        "read-only requests between barriers must reuse the cached snapshot"
    );

    // The liveness surface: one cheap report a monitor polls every
    // second, rendered as the one-glance `sitm-top` screen.
    let health = client.health()?;
    println!("--- sitm-top ---\n{}", health.render());
    assert!(health.epoch > 0, "ingest advanced the epoch");
    assert_eq!(health.warehouse_trajectories, 12);
    assert_eq!(
        health.flush_backlog_trajectories, 0,
        "checkpoints drained the spill tier"
    );
    assert!(
        health.last_checkpoint_age_ms.is_some(),
        "two checkpoints completed"
    );
    assert!(health.traces_recorded > 0, "requests record trace trees");

    // And the trace surface: every request above left a span tree in
    // the bounded ring. Render the newest federated query's timeline —
    // the request's latency attributed tier by tier.
    let traces = client.traces(64)?;
    let federated_trace = traces
        .iter()
        .rev()
        .find(|t| t.root.name == "query_federated")
        .expect("a federated query was traced");
    println!("--- trace {:#x} ---", federated_trace.trace_id);
    print!("{}", federated_trace.render_timeline());
    let handle = federated_trace
        .root
        .find("handle")
        .expect("the handle span");
    assert!(
        handle.find("evaluate").is_some(),
        "the trace attributes evaluation"
    );

    // Graceful shutdown: flushes the warehouse, drains sessions.
    client.shutdown()?;
    server.join()?;
    println!("server drained and stopped");

    let _ = std::fs::remove_dir_all(&warehouse_dir);
    Ok(())
}
