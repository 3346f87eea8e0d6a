//! Concurrent-session equivalence: M writer clients and K query
//! clients hammer one server from separate threads, and the final
//! state must equal an **in-process replay** of the same events fed by
//! one thread — the same differential idiom
//! `tests/parallel_equivalence.rs` uses to pin N workers to one, lifted
//! to the network tier.
//!
//! Determinism argument: each writer owns a disjoint visit-key range
//! and sends its own visits' events in order, so per-visit event order
//! is preserved no matter how sessions interleave; every cross-visit
//! observable below (canonical warehouse runs, key-sorted snapshots,
//! sorted query output) is interleaving-independent by construction.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use sitm_core::{
    Annotation, AnnotationSet, IntervalPredicate, PresenceInterval, Timestamp, TransitionTaken,
};
use sitm_graph::{LayerIdx, NodeId};
use sitm_query::wire::WireQuery;
use sitm_query::{Predicate, SegmentedDb, SortKey, TrajectorySource};
use sitm_serve::{Client, Server, ServerConfig};
use sitm_space::CellRef;
use sitm_store::warehouse::WarehouseConfig;
use sitm_stream::{EngineConfig, Flusher, ParallelEngine, StreamEvent, VisitKey};

static NEXT: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "sitm-serve-concurrent-{tag}-{}-{n}",
            std::process::id()
        ));
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
    EngineConfig::new(vec![
        (IntervalPredicate::in_cells([cell(1)]), label("one")),
        (IntervalPredicate::any(), label("whole")),
    ])
    .with_shards(2)
    .with_batch_capacity(8)
}

/// One writer's feed: `per_writer` closed visits plus one left open,
/// all inside the writer's own key range.
fn writer_feed(writer: u64, per_writer: u64) -> Vec<StreamEvent> {
    let base = writer * 1_000;
    let mut events = Vec::new();
    for v in base..base + per_writer + 1 {
        let t0 = (v % 97) as i64 * 10;
        events.push(StreamEvent::VisitOpened {
            visit: VisitKey(v),
            moving_object: format!("mo-{v}"),
            annotations: label("visit"),
            at: Timestamp(t0),
        });
        for (i, c) in [1usize, (v % 4) as usize, 2].iter().enumerate() {
            events.push(StreamEvent::Presence {
                visit: VisitKey(v),
                interval: PresenceInterval::new(
                    TransitionTaken::Unknown,
                    cell(*c),
                    Timestamp(t0 + i as i64 * 60),
                    Timestamp(t0 + i as i64 * 60 + 30),
                ),
            });
        }
        if v < base + per_writer {
            // The last visit of each writer stays open (live tier).
            events.push(StreamEvent::VisitClosed {
                visit: VisitKey(v),
                at: Timestamp(t0 + 400),
            });
        }
    }
    events
}

#[test]
fn concurrent_writers_and_readers_equal_single_threaded_replay() {
    const WRITERS: u64 = 3;
    const READERS: usize = 2;
    const PER_WRITER: u64 = 8;

    let tmp_server = TempDir::new("server");
    let tmp_local = TempDir::new("local");
    let server = Server::start(
        ServerConfig::new(engine_config(), &tmp_server.0).with_sessions(WRITERS as usize + READERS),
    )
    .expect("start server");
    let addr = server.addr();

    // M writers, each on its own session, each chunking its feed into
    // several IngestBatch requests (so batches from different sessions
    // really interleave inside the server).
    let writer_handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("writer connect");
                let feed = writer_feed(w, PER_WRITER);
                for chunk in feed.chunks(7) {
                    let sent = client.ingest_batch(chunk.to_vec()).expect("ingest");
                    assert_eq!(sent, chunk.len() as u64);
                }
            })
        })
        .collect();

    // K readers issuing federated queries *while* the writers run.
    // Mid-flight results are cuts of an evolving stream — asserting
    // only sanity (the query executes, sorted order holds) here; the
    // exact-equality assertion happens after the barrier below.
    let reader_handles: Vec<_> = (0..READERS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("reader connect");
                for _ in 0..10 {
                    let q = WireQuery {
                        predicate: Predicate::VisitedCell(cell(1)),
                        order: Some((SortKey::MovingObject, true)),
                        offset: 0,
                        limit: None,
                    };
                    let rows = client.query_federated(&q).expect("federated query");
                    for pair in rows.windows(2) {
                        assert!(
                            pair[0].moving_object <= pair[1].moving_object,
                            "served rows must respect the requested order"
                        );
                    }
                }
            })
        })
        .collect();

    for handle in writer_handles {
        handle.join().expect("writer");
    }
    for handle in reader_handles {
        handle.join().expect("reader");
    }

    // Barrier: spill everything closed, then compare against the
    // in-process replay.
    let mut client = Client::connect(addr).expect("connect");
    let (spilled, warehouse_total, _) = client.checkpoint().expect("checkpoint");
    assert_eq!(spilled, WRITERS * PER_WRITER);
    assert_eq!(warehouse_total, WRITERS * PER_WRITER);

    // In-process replay: same events, one feeding thread, one flush.
    let mut reference = ParallelEngine::new(engine_config().with_warehouse()).expect("engine");
    for w in 0..WRITERS {
        reference.ingest_all(writer_feed(w, PER_WRITER));
    }
    let mut ref_flusher = Flusher::new(
        SegmentedDb::open(&tmp_local.0, WarehouseConfig::default())
            .expect("open")
            .0,
    );
    ref_flusher.force(&mut reference).expect("local spill");
    let snapshot = reference.live_snapshot();
    let local_db = ref_flusher.db();

    let stats = client.server_stats().expect("stats");
    let sent: usize = (0..WRITERS).map(|w| writer_feed(w, PER_WRITER).len()).sum();
    assert_eq!(stats.events, sent as u64, "every event the writers sent");
    assert_eq!(stats.visits_opened, WRITERS * (PER_WRITER + 1));
    assert_eq!(stats.visits_closed, WRITERS * PER_WRITER);
    assert_eq!(stats.open_visits, WRITERS, "one open visit per writer");
    assert_eq!(stats.anomalies, 0);

    // Canonical warehouse content: the server's segment tier may have
    // seen different flush boundaries than the replay (writers raced),
    // so compare the *sorted multiset* — and the sorted federated
    // query, which is boundary-independent by construction.
    for q in [
        WireQuery {
            predicate: Predicate::True,
            order: Some((SortKey::MovingObject, true)),
            offset: 0,
            limit: None,
        },
        WireQuery {
            predicate: Predicate::VisitedCell(cell(1)),
            order: Some((SortKey::MovingObject, true)),
            offset: 0,
            limit: None,
        },
        WireQuery {
            predicate: Predicate::MovingObject("mo-1003".into()),
            order: Some((SortKey::Start, true)),
            offset: 0,
            limit: None,
        },
    ] {
        let served = client.query_federated(&q).expect("federated");
        let mut local = q
            .to_query()
            .execute_federated(&[&*snapshot as &dyn TrajectorySource, local_db]);
        // MovingObject ids are unique per visit here and the sort is
        // total on them for the first two queries; the third is a
        // single-visit point query — either way the sorted sequences
        // must agree exactly.
        sitm_store::sort_run(&mut local);
        let mut served_sorted = served.clone();
        sitm_store::sort_run(&mut served_sorted);
        assert_eq!(served_sorted, local, "diverged for {:?}", q.predicate);
    }

    client.shutdown().expect("shutdown");
    server.join().expect("join");
}
