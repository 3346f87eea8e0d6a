//! The late-event fence, pinned through the engine's public API.
//!
//! A closed visit keeps a fence for `allowed_lateness`: an event at or
//! before `close + allowed_lateness` is rejected and counted
//! (`after_close`), one past it retires the fence and re-opens the
//! visit implicitly. At most `fence_capacity` fences are kept; past it
//! the smallest close instants go first, and a straggler for an evicted
//! visit opens implicitly. Fences are engine state, so a checkpoint
//! carries them and a restore fences what the checkpointed engine did.
//! Below the cap all of this is a function of the feed alone, so every
//! worker count counts, emits and finishes what one worker does.

use sitm_core::{
    Annotation, AnnotationSet, Duration, IntervalPredicate, PresenceInterval, Timestamp,
    TransitionTaken,
};
use sitm_graph::{CellRef, LayerIdx, NodeId};
use sitm_obs::MetricsRegistry;
use sitm_stream::checkpoint::{decode_state, encode_state};
use sitm_stream::event::sort_feed;
use sitm_stream::{EngineConfig, EngineStats, ParallelEngine, StreamEvent, VisitKey};

/// How long a close fences its visit's late events, in seconds.
const LATENESS: i64 = 100;

fn cell(n: usize) -> CellRef {
    CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
}

fn label(s: &str) -> AnnotationSet {
    AnnotationSet::from_iter([Annotation::goal(s)])
}

/// Small router batches, the warehouse drain on, and a registry of its
/// own per engine.
fn config(workers: usize) -> EngineConfig {
    EngineConfig::new(vec![
        (IntervalPredicate::in_cells([cell(1)]), label("one")),
        (IntervalPredicate::any(), label("whole")),
    ])
    .with_shards(workers)
    .with_batch_capacity(4)
    .with_allowed_lateness(Duration::seconds(LATENESS))
    .with_warehouse()
    .with_metrics(MetricsRegistry::new())
}

fn open(v: u64, at: i64) -> StreamEvent {
    StreamEvent::VisitOpened {
        visit: VisitKey(v),
        moving_object: format!("mo-{v}"),
        annotations: label("visit"),
        at: Timestamp(at),
    }
}

fn stay(v: u64, c: usize, start: i64) -> StreamEvent {
    StreamEvent::Presence {
        visit: VisitKey(v),
        interval: PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(c),
            Timestamp(start),
            Timestamp(start + 10),
        ),
    }
}

fn close(v: u64, at: i64) -> StreamEvent {
    StreamEvent::VisitClosed {
        visit: VisitKey(v),
        at: Timestamp(at),
    }
}

/// Visit `v`: opened at `base`, three stays, closed at `base + 250`.
fn visit(v: u64, base: i64) -> Vec<StreamEvent> {
    vec![
        open(v, base),
        stay(v, 1, base),
        stay(v, 0, base + 100),
        stay(v, 1, base + 200),
        close(v, base + 250),
    ]
}

/// Ingests `events` and waits until every one is applied.
fn feed(engine: &mut ParallelEngine, events: Vec<StreamEvent>) {
    engine.ingest_all(events);
    engine.flush();
}

/// (a) Inside the lateness every kind of event for a closed visit is
/// fenced, and stays fenced; the first event past it retires the fence
/// and re-opens the visit, whose later events are applied as usual and
/// whose next close fences it again.
#[test]
fn late_events_are_fenced_until_the_lateness_passes() {
    for workers in [1, 2, 4] {
        let mut engine = ParallelEngine::new(config(workers)).unwrap();
        feed(&mut engine, visit(7, 1_000));
        let closed_at = 1_250;

        feed(
            &mut engine,
            vec![
                stay(7, 1, closed_at),
                open(7, closed_at + 10),
                stay(7, 0, closed_at + LATENESS),
                close(7, closed_at + LATENESS),
            ],
        );
        let stats = engine.stats();
        assert_eq!(stats.anomalies.after_close, 4, "{workers} workers");
        assert_eq!(stats.visits_opened, 1);
        assert_eq!(stats.visits_closed, 1);
        assert_eq!(stats.open_visits, 0);
        assert_eq!(stats.anomalies.implicit_opens, 0);

        // One second past the horizon: the fence retires, the visit
        // re-opens under the implicit identity and takes the stay.
        feed(&mut engine, vec![stay(7, 1, closed_at + LATENESS + 1)]);
        let stats = engine.stats();
        assert_eq!(stats.anomalies.after_close, 4);
        assert_eq!(stats.anomalies.implicit_opens, 1);
        assert_eq!(stats.visits_opened, 2);
        assert_eq!(stats.open_visits, 1);

        // The fence is gone: an event back inside the old window is the
        // re-opened visit's, not a late one.
        feed(&mut engine, vec![stay(7, 0, closed_at + LATENESS + 50)]);
        assert_eq!(engine.stats().anomalies.after_close, 4);
        assert_eq!(engine.stats().presences, 5);

        // Its own close fences it again.
        let reclosed = closed_at + 2 * LATENESS;
        feed(
            &mut engine,
            vec![close(7, reclosed), stay(7, 1, reclosed + LATENESS)],
        );
        let stats = engine.stats();
        assert_eq!(stats.visits_closed, 2);
        assert_eq!(stats.anomalies.after_close, 5);
        assert_eq!(stats.open_visits, 0);

        let finished = engine.take_finished();
        let objects: Vec<&str> = finished.iter().map(|t| t.moving_object.as_str()).collect();
        assert_eq!(objects, ["mo-7", "implicit-7"]);
    }
}

/// (b) Past the cap the smallest close instants are evicted, whatever
/// order the closes were applied in; a straggler for an evicted visit
/// opens it implicitly, one for a kept fence is rejected.
#[test]
fn the_fence_cap_evicts_the_oldest_close_instants_first() {
    // Closed at 1 500, 1 100, 1 300, 1 200, in that order, under a cap
    // of two: the third close evicts visit 2 (1 100), the fourth evicts
    // visit 4 itself (1 200, the smallest left).
    let visits = [(1u64, 1_250i64), (2, 850), (3, 1_050), (4, 950)];
    for workers in [1, 2, 4] {
        let mut engine = ParallelEngine::new(
            config(workers)
                .with_fence_capacity(2)
                .with_allowed_lateness(Duration::seconds(10_000)),
        )
        .unwrap();
        for (v, base) in visits {
            feed(&mut engine, visit(v, base));
        }
        let (snapshot, _) = decode_state(&engine.checkpoint()).unwrap();
        assert_eq!(
            snapshot.closed,
            [(1, Timestamp(1_500)), (3, Timestamp(1_300))],
            "{workers} workers"
        );
        engine.drain();

        feed(
            &mut engine,
            visits
                .iter()
                .map(|&(v, base)| stay(v, 0, base + 260))
                .collect(),
        );
        let stats = engine.stats();
        assert_eq!(stats.anomalies.after_close, 2, "{workers} workers");
        assert_eq!(stats.anomalies.implicit_opens, 2);
        assert_eq!(stats.open_visits, 2);
        let reopened: Vec<String> = engine
            .finish()
            .into_iter()
            .map(|e| e.moving_object)
            .collect();
        assert!(reopened
            .iter()
            .all(|o| o == "implicit-2" || o == "implicit-4"));
        assert!(reopened.iter().any(|o| o == "implicit-2"));
        assert!(reopened.iter().any(|o| o == "implicit-4"));
    }
}

/// (c) A checkpoint taken with live fences restores them, at any worker
/// count: the restored engine writes the same bytes, fences the same
/// stragglers and re-opens the same visits as the uninterrupted one.
#[test]
fn a_checkpoint_restores_its_fences() {
    let mut head: Vec<StreamEvent> = (0..6).flat_map(|v| visit(v, v as i64 * 40)).collect();
    head.extend([open(6, 500), stay(6, 1, 500)]);
    sort_feed(&mut head);
    // Visit 0 closed at 250: fenced until 350. Visit 1 closed at 290.
    let tail = vec![
        stay(0, 1, 300),
        stay(1, 0, 291 + LATENESS),
        stay(6, 0, 520),
        close(6, 600),
    ];

    let mut reference = ParallelEngine::new(config(1)).unwrap();
    feed(&mut reference, head.clone());
    let bytes = reference.checkpoint();
    let (snapshot, _) = decode_state(&bytes).unwrap();
    assert_eq!(snapshot.closed.len(), 6, "every close is fenced");
    assert_eq!(snapshot.visits.len(), 1, "visit 6 is open");
    feed(&mut reference, tail.clone());
    let expected_stats = reference.stats();
    assert_eq!(expected_stats.anomalies.after_close, 1);
    assert_eq!(expected_stats.anomalies.implicit_opens, 1);
    let expected_episodes = reference.finish();
    let expected_finished = reference.take_finished();

    for workers in [1, 2, 4] {
        let mut restored = ParallelEngine::restore(config(workers), &bytes).unwrap();
        assert_eq!(restored.checkpoint(), bytes, "{workers} workers");
        feed(&mut restored, tail.clone());
        assert_eq!(restored.stats(), expected_stats, "{workers} workers");
        assert_eq!(restored.finish(), expected_episodes);
        assert_eq!(restored.take_finished(), expected_finished);
    }
}

/// A key a checkpoint lists both open and closed restores fenced: the
/// open state is dropped, a straggler inside the lateness is rejected,
/// and the restored engine's own checkpoint lists the key once, closed.
#[test]
fn a_key_listed_open_and_closed_restores_fenced() {
    let mut engine = ParallelEngine::new(config(1)).unwrap();
    feed(&mut engine, vec![open(3, 100), stay(3, 1, 100)]);
    let (mut snapshot, predicates) = decode_state(&engine.checkpoint()).unwrap();
    assert_eq!(snapshot.visits.len(), 1);
    snapshot.closed.push((3, Timestamp(150)));
    let crafted = encode_state(&snapshot, predicates);

    let mut restored = ParallelEngine::restore(config(2), &crafted).unwrap();
    assert_eq!(restored.stats().open_visits, 0);
    let (again, _) = decode_state(&restored.checkpoint()).unwrap();
    assert!(again.visits.is_empty());
    assert_eq!(again.closed, [(3, Timestamp(150))]);
    feed(&mut restored, vec![stay(3, 0, 150 + LATENESS)]);
    assert_eq!(restored.stats().anomalies.after_close, 1);
    assert_eq!(restored.stats().open_visits, 0);
}

/// Forty overlapping visits with stragglers inside and past the
/// lateness, duplicate opens, and closes of visits never opened.
fn late_feed() -> Vec<StreamEvent> {
    let mut events = Vec::new();
    for v in 0..40u64 {
        let base = v as i64 * 37;
        events.extend(visit(v, base));
        let closed_at = base + 250;
        match v % 4 {
            0 => events.push(stay(v, 1, closed_at + LATENESS / 2)),
            1 => events.extend([
                stay(v, 0, closed_at + LATENESS + 1),
                stay(v, 1, closed_at + LATENESS + 20),
            ]),
            2 => events.push(open(v, base + 50)),
            _ => events.push(close(1_000 + v, closed_at)),
        }
    }
    sort_feed(&mut events);
    events
}

fn stats_of(engine: &mut ParallelEngine) -> EngineStats {
    engine.flush();
    engine.stats()
}

/// (d) Counters, drained episodes, finished trajectories and the
/// checkpoint are the one-worker engine's at 1, 2 and 4 workers.
#[test]
fn every_worker_count_fences_like_one_worker() {
    let events = late_feed();
    let mid = events.len() / 2;
    let run = |workers: usize| {
        let mut engine = ParallelEngine::new(config(workers)).unwrap();
        engine.ingest_all(events[..mid].iter().cloned());
        let mut episodes = engine.drain();
        let checkpoint = engine.checkpoint();
        engine.ingest_all(events[mid..].iter().cloned());
        let stats = stats_of(&mut engine);
        episodes.extend(engine.finish());
        (stats, episodes, engine.take_finished(), checkpoint)
    };
    let expected = run(1);
    let stats = expected.0;
    assert!(stats.anomalies.after_close >= 20, "{stats:?}");
    assert!(stats.anomalies.implicit_opens >= 10, "{stats:?}");
    assert!(stats.anomalies.duplicate_opens >= 10, "{stats:?}");
    for workers in [1, 2, 4] {
        assert!(run(workers) == expected, "{workers} workers");
    }
}
