//! A Health build reads the server's counters; it does not copy the
//! metrics registry. Its own test binary, because it installs a
//! counting global allocator — one that counts on the calling thread
//! only, so the server's idle session and engine threads cannot move
//! the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use sitm_core::{
    Annotation, AnnotationSet, IntervalPredicate, PresenceInterval, Timestamp, TransitionTaken,
};
use sitm_graph::{CellRef, LayerIdx, NodeId};
use sitm_query::wire::WireQuery;
use sitm_query::{Predicate, SortKey};
use sitm_serve::{Client, Server, ServerConfig};
use sitm_stream::{EngineConfig, StreamEvent, VisitKey};

/// The system allocator, counting every allocation made on the
/// allocating thread (a `realloc` falls back to `alloc`, so it counts
/// too).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local without a destructor, so bumping it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

fn cell(n: usize) -> CellRef {
    CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
}

fn label(s: &str) -> AnnotationSet {
    AnnotationSet::from_iter([Annotation::goal(s)])
}

/// `visits` closed visits plus `open` left open, two stays each.
fn feed(visits: u64, open: u64) -> Vec<StreamEvent> {
    let mut events = Vec::new();
    for v in 0..visits + open {
        let t0 = v as i64 * 10;
        events.push(StreamEvent::VisitOpened {
            visit: VisitKey(v),
            moving_object: format!("mo-{v}"),
            annotations: label("visit"),
            at: Timestamp(t0),
        });
        for (i, c) in [1usize, 2].into_iter().enumerate() {
            events.push(StreamEvent::Presence {
                visit: VisitKey(v),
                interval: PresenceInterval::new(
                    TransitionTaken::Unknown,
                    cell(c),
                    Timestamp(t0 + i as i64 * 100),
                    Timestamp(t0 + i as i64 * 100 + 50),
                ),
            });
        }
        if v < visits {
            events.push(StreamEvent::VisitClosed {
                visit: VisitKey(v),
                at: Timestamp(t0 + 300),
            });
        }
    }
    events
}

#[test]
fn a_health_build_does_not_copy_the_registry() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("sitm-health-allocations-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = EngineConfig::new(vec![(IntervalPredicate::in_cells([cell(1)]), label("one"))])
        .with_shards(2)
        .with_batch_capacity(4);
    let server = Server::start(ServerConfig::new(engine, &dir)).expect("start server");

    // Every tier records into the registry: ingest, spill, query, and
    // the Metrics op itself.
    let mut client = Client::connect(server.addr()).expect("connect");
    client.ingest_batch(feed(40, 3)).expect("ingest");
    client.checkpoint().expect("checkpoint");
    let query = WireQuery {
        predicate: Predicate::True,
        order: Some((SortKey::Start, true)),
        offset: 0,
        limit: Some(64),
    };
    assert!(!client.query_federated(&query).expect("query").is_empty());
    let metrics = client.metrics().expect("metrics");
    assert!(
        metrics.counters.len() + metrics.gauges.len() + metrics.histograms.len() > 40,
        "the registry holds the pipeline's instruments"
    );

    // Past one second: the first rate window closes on the warm-up
    // build, and a design that snapshots the registry every second
    // would by now hold two snapshots to compare.
    std::thread::sleep(std::time::Duration::from_millis(1_100));
    let warm = server.health();
    let before = allocations();
    let health = server.health();
    let allocated = allocations() - before;
    eprintln!("Server::health: {allocated} allocations");
    assert_eq!(health.warehouse_trajectories, warm.warehouse_trajectories);
    assert!(
        allocated <= 2,
        "one Health build allocated {allocated} times (the worker-depth list is 1)"
    );

    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
