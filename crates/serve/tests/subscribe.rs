//! The Subscribe push path, end to end.
//!
//! The acceptance gate is a **differential**: every episode a
//! subscriber is pushed must be exactly what an identically fed
//! in-process engine drains — same episodes, same count, no
//! duplicates, no gaps — on *both* runtimes, under concurrent ingest,
//! and across a subscriber crash + reconnect (the server re-injects a
//! dead subscriber's undelivered queue into the engine's pending
//! pool, so the next subscriber's first barriers carry them).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration as StdDuration, Instant};

use sitm_core::{
    Annotation, AnnotationSet, IntervalPredicate, PresenceInterval, Timestamp, TransitionTaken,
};
use sitm_graph::{LayerIdx, NodeId};
use sitm_query::wire::WireQuery;
use sitm_query::Predicate;
use sitm_serve::{Client, ServeError, Server, ServerConfig, Subscriber};
use sitm_space::CellRef;
use sitm_stream::{EmittedEpisode, EngineConfig, ParallelEngine, StreamEvent, VisitKey};

static NEXT: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("sitm-sub-{tag}-{}-{n}", std::process::id()));
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
    .with_batch_capacity(4)
}

/// `count` closed visits starting at key `base` (each emits episodes
/// at its close).
fn closed_visits(base: u64, count: u64) -> Vec<StreamEvent> {
    let mut events = Vec::new();
    for v in base..base + count {
        let t0 = v as i64 * 10;
        events.push(StreamEvent::VisitOpened {
            visit: VisitKey(v),
            moving_object: format!("mo-{v}"),
            annotations: label("visit"),
            at: Timestamp(t0),
        });
        events.push(StreamEvent::Presence {
            visit: VisitKey(v),
            interval: PresenceInterval::new(
                TransitionTaken::Unknown,
                cell(1),
                Timestamp(t0),
                Timestamp(t0 + 50),
            ),
        });
        events.push(StreamEvent::VisitClosed {
            visit: VisitKey(v),
            at: Timestamp(t0 + 60),
        });
    }
    events
}

/// What an identically fed in-process engine would drain — the replay
/// side of the differential.
fn replay_episodes(batches: &[Vec<StreamEvent>]) -> Vec<EmittedEpisode> {
    let mut engine = ParallelEngine::new(engine_config()).expect("engine");
    let mut out = Vec::new();
    for batch in batches {
        engine.ingest_all(batch.clone());
        out.extend(engine.drain());
    }
    out.sort_by_key(EmittedEpisode::sort_key);
    out
}

fn sorted(mut episodes: Vec<EmittedEpisode>) -> Vec<EmittedEpisode> {
    episodes.sort_by_key(EmittedEpisode::sort_key);
    episodes
}

/// Push happy path: a subscriber is pushed every drained episode,
/// with strictly increasing epochs all above its registration epoch,
/// and the pushed set is exactly the in-process replay.
#[test]
fn subscriber_matches_polling_replay_exactly_once() {
    let tmp = TempDir::new("differential");
    let server =
        Server::start(ServerConfig::new(engine_config(), &tmp.0).with_sessions(3)).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    let mut sub =
        Subscriber::subscribe(server.addr(), &WireQuery::filtered(Predicate::True)).expect("sub");
    let batches = vec![
        closed_visits(0, 5),
        closed_visits(50, 3),
        closed_visits(90, 4),
    ];
    for batch in &batches {
        client.ingest_batch(batch.clone()).expect("ingest");
    }

    // Exercise the push path proper (idle-poll flush), not only the
    // unsubscribe drain: wait for at least one pushed notification.
    let mut received = Vec::new();
    let mut epochs = Vec::new();
    let deadline = Instant::now() + StdDuration::from_secs(10);
    while received.is_empty() && Instant::now() < deadline {
        if let Some((epoch, episodes)) = sub.poll(StdDuration::from_millis(200)).expect("poll") {
            epochs.push(epoch);
            received.extend(episodes);
        }
    }
    assert!(!received.is_empty(), "no notification was pushed in 10s");

    // The rest rides the unsubscribe drain (deterministic hand-off).
    for (epoch, episodes) in sub.unsubscribe().expect("unsubscribe") {
        epochs.push(epoch);
        received.extend(episodes);
    }

    assert!(
        epochs.windows(2).all(|w| w[0] < w[1]),
        "notification epochs must be strictly increasing: {epochs:?}"
    );
    assert_eq!(sorted(received), replay_episodes(&batches));

    client.shutdown().expect("shutdown");
    server.join().expect("join");
}

/// Concurrent ingest: two writers race batches while the subscriber
/// listens. Barrier grouping is nondeterministic; the episode *set*
/// is not.
#[test]
fn concurrent_ingest_pushes_every_episode_exactly_once() {
    let tmp = TempDir::new("concurrent");
    let server =
        Server::start(ServerConfig::new(engine_config(), &tmp.0).with_sessions(4)).expect("start");

    let sub =
        Subscriber::subscribe(server.addr(), &WireQuery::filtered(Predicate::True)).expect("sub");
    let writers: Vec<_> = [(0u64, 6u64), (1000, 6)]
        .into_iter()
        .map(|(base, batches)| {
            let addr = server.addr();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for b in 0..batches {
                    client
                        .ingest_batch(closed_visits(base + b * 10, 4))
                        .expect("ingest");
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer");
    }

    // All ingests acknowledged → every barrier ran → everything is
    // queued (or already flushed); the unsubscribe drain collects it.
    let mut received = Vec::new();
    for (_, episodes) in sub.unsubscribe().expect("unsubscribe") {
        received.extend(episodes);
    }

    // Replay serially: visits are independent, so the union is
    // interleaving-invariant even though per-barrier grouping is not.
    let batches: Vec<Vec<StreamEvent>> = (0..6)
        .map(|b| closed_visits(b * 10, 4))
        .chain((0..6).map(|b| closed_visits(1000 + b * 10, 4)))
        .collect();
    assert_eq!(sorted(received), replay_episodes(&batches));

    let mut client = Client::connect(server.addr()).expect("connect");
    client.shutdown().expect("shutdown");
    server.join().expect("join");
}

/// Crash + reconnect: a subscriber dies with its queue undelivered;
/// the server re-injects those episodes, and the next subscriber
/// receives them alongside fresh ones — exactly once across the two
/// subscriber lifetimes.
#[test]
fn crashed_subscriber_loses_nothing_across_reconnect() {
    let tmp = TempDir::new("crash");
    // A long idle poll pins the hand-off: the crashed subscriber's
    // session cannot flush its queue to the (dead) socket between the
    // ingest barrier and the crash — the queue must travel through
    // `requeue_pending` instead. Correctness does not depend on this;
    // determinism of *what we assert* does.
    let mut config = ServerConfig::new(engine_config(), &tmp.0).with_sessions(3);
    config.idle_poll = StdDuration::from_secs(10);
    let server = Server::start(config).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    let sub1 =
        Subscriber::subscribe(server.addr(), &WireQuery::filtered(Predicate::True)).expect("sub1");
    let batch_a = closed_visits(0, 5);
    client.ingest_batch(batch_a.clone()).expect("ingest A");
    // Crash: drop the connection without reading a single notification.
    drop(sub1);

    // Wait for the server to tear the session down (re-inject happens
    // there); `serve.subscriptions_active` returning to 0 is the signal.
    let deadline = Instant::now() + StdDuration::from_secs(10);
    loop {
        let snapshot = client.metrics().expect("metrics");
        if snapshot.gauge("serve.subscriptions_active") == Some(0) {
            break;
        }
        assert!(Instant::now() < deadline, "subscription never torn down");
        std::thread::sleep(StdDuration::from_millis(10));
    }

    let sub2 =
        Subscriber::subscribe(server.addr(), &WireQuery::filtered(Predicate::True)).expect("sub2");
    let batch_b = closed_visits(100, 4);
    client.ingest_batch(batch_b.clone()).expect("ingest B");

    // B's barrier drains batch B's episodes *and* the re-injected A
    // episodes in one deterministic sweep; the unsubscribe hand-off
    // collects them without waiting out the long idle poll.
    let mut received = Vec::new();
    for (_, episodes) in sub2.unsubscribe().expect("unsubscribe") {
        received.extend(episodes);
    }
    assert_eq!(
        sorted(received),
        replay_episodes(&[batch_a, batch_b]),
        "crash + reconnect must deliver everything exactly once"
    );

    client.shutdown().expect("shutdown");
    server.join().expect("join");
}

/// Predicate-filtered subscriptions: decidable predicates filter
/// exactly; undecidable ones deliver (sound superset, never a miss).
/// Runs two subscribers at once to cover the multi-subscriber fan-out.
#[test]
fn filtered_subscriptions_are_sound() {
    let tmp = TempDir::new("filtered");
    let server =
        Server::start(ServerConfig::new(engine_config(), &tmp.0).with_sessions(4)).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Decidable from the delta: exact filtering.
    let exact = Subscriber::subscribe(
        server.addr(),
        &WireQuery::filtered(Predicate::MovingObject("mo-2".into())),
    )
    .expect("exact sub");
    // Undecidable from the delta (interval-shaped): sound superset.
    let superset = Subscriber::subscribe(
        server.addr(),
        &WireQuery::filtered(Predicate::VisitedCell(cell(999))),
    )
    .expect("superset sub");

    let batches = vec![closed_visits(0, 6)];
    for batch in &batches {
        client.ingest_batch(batch.clone()).expect("ingest");
    }
    let all = replay_episodes(&batches);

    let mut exact_got = Vec::new();
    for (_, episodes) in exact.unsubscribe().expect("unsubscribe exact") {
        exact_got.extend(episodes);
    }
    let expect: Vec<EmittedEpisode> = all
        .iter()
        .filter(|e| e.moving_object == "mo-2")
        .cloned()
        .collect();
    assert!(!expect.is_empty());
    assert_eq!(
        sorted(exact_got),
        expect,
        "decidable predicate filters exactly"
    );

    let mut superset_got = Vec::new();
    for (_, episodes) in superset.unsubscribe().expect("unsubscribe superset") {
        superset_got.extend(episodes);
    }
    assert_eq!(
        sorted(superset_got),
        all,
        "undecidable predicate must deliver everything (sound superset)"
    );

    client.shutdown().expect("shutdown");
    server.join().expect("join");
}

/// Slow consumer: one barrier that overflows the per-subscriber bound
/// lags the queue; the subscriber gets an in-band error and is
/// dropped, the session and the server survive, and the loss is
/// visible in `serve.subscribers_dropped`.
#[test]
fn lagging_subscriber_is_dropped_in_band() {
    let tmp = TempDir::new("lagged");
    let server =
        Server::start(ServerConfig::new(engine_config(), &tmp.0).with_sessions(3)).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    let mut sub =
        Subscriber::subscribe(server.addr(), &WireQuery::filtered(Predicate::True)).expect("sub");
    // One barrier, > 4096 episodes (each closed visit emits two: the
    // in-cells predicate and the catch-all): overflows the bound in a
    // single push.
    client
        .ingest_batch(closed_visits(0, 2100))
        .expect("big ingest");

    let deadline = Instant::now() + StdDuration::from_secs(15);
    let err = loop {
        match sub.poll(StdDuration::from_millis(200)) {
            Ok(_) => assert!(Instant::now() < deadline, "lag error never arrived"),
            Err(err) => break err,
        }
    };
    match err {
        ServeError::Remote(message) => {
            assert!(message.contains("lagged"), "unexpected error: {message}")
        }
        other => panic!("expected the in-band lag error, got {other:?}"),
    }

    let snapshot = client.metrics().expect("metrics");
    assert_eq!(snapshot.counter("serve.subscribers_dropped"), Some(1));
    assert_eq!(snapshot.gauge("serve.subscriptions_active"), Some(0));
    // The server is fully healthy: a fresh subscription still works.
    let sub2 =
        Subscriber::subscribe(server.addr(), &WireQuery::filtered(Predicate::True)).expect("sub2");
    client.ingest_batch(closed_visits(5000, 2)).expect("ingest");
    let mut received = Vec::new();
    for (_, episodes) in sub2.unsubscribe().expect("unsubscribe") {
        received.extend(episodes);
    }
    assert_eq!(received.len(), 4, "two visits × two predicates");

    client.shutdown().expect("shutdown");
    server.join().expect("join");
}

/// No subscriber for a long time, then one: the undelivered pool is
/// trimmed at every `Checkpoint` to the newest half of the subscriber
/// queue bound, so the first subscriber is handed a backlog it can
/// hold — not everything since the server started, which used to trip
/// the bound on its first barrier and get it dropped as "lagged".
#[test]
fn first_subscriber_after_a_long_silence_survives_the_backlog() {
    const BOUND: usize = 4096; // the server's per-subscriber queue bound
    let tmp = TempDir::new("backlog");
    let server =
        Server::start(ServerConfig::new(engine_config(), &tmp.0).with_sessions(3)).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    // 3× the bound in episodes (two per closed visit), checkpointed as
    // an operator would, nobody listening.
    let mut batches: Vec<Vec<StreamEvent>> =
        (0..6u64).map(|b| closed_visits(b * 1024, 1024)).collect();
    for batch in &batches {
        client.ingest_batch(batch.clone()).expect("ingest");
        client.checkpoint().expect("checkpoint");
    }
    let snapshot = client.metrics().expect("metrics");
    assert_eq!(
        snapshot.counter("serve.backlog_trimmed"),
        Some((3 * BOUND - BOUND / 2) as u64),
        "everything but the newest half-bound was trimmed"
    );

    let mut sub =
        Subscriber::subscribe(server.addr(), &WireQuery::filtered(Predicate::True)).expect("sub");
    batches.push(closed_visits(100_000, 2));
    client
        .ingest_batch(batches[6].clone())
        .expect("ingest once more");

    // The push path proper first (a lagged subscription would answer
    // with the in-band error here), then the unsubscribe hand-off.
    let mut received = Vec::new();
    let deadline = Instant::now() + StdDuration::from_secs(10);
    while received.is_empty() && Instant::now() < deadline {
        if let Some((_, episodes)) = sub.poll(StdDuration::from_millis(200)).expect("poll") {
            received.extend(episodes);
        }
    }
    for (_, episodes) in sub.unsubscribe().expect("the subscription survived") {
        received.extend(episodes);
    }
    assert!(received.len() <= BOUND);
    // Exactly once, and the newest: the tail of the full replay.
    let replay = replay_episodes(&batches);
    let kept = BOUND / 2 + 4;
    assert_eq!(sorted(received), replay[replay.len() - kept..]);
    let snapshot = client.metrics().expect("metrics");
    assert_eq!(snapshot.counter("serve.subscribers_dropped"), Some(0));

    client.shutdown().expect("shutdown");
    server.join().expect("join");
}
