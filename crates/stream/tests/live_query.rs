//! Live-query federation: the streamed view must equal the batch view.
//!
//! At every drain point of a seeded Louvre replay, evaluating a
//! `sitm_query::Predicate` over [`LiveSnapshot`] must equal evaluating
//! the same predicate over the batch-built trajectory *prefixes* (the
//! intervals ingested so far for every still-open visit) — for any
//! worker count, including the empty-shard case (more shards than
//! visits) and a single-hot-shard skew (one visit receiving almost all
//! events).
//!
//! [`ParallelEngine`] patches its snapshot at each cut (only the visits
//! touched since the previous one are re-derived);
//! `ParallelEngine::rebuilt_snapshot` re-derives every open visit from
//! scratch. The second half of this file holds the two equal at every
//! cut of feeds built to break a patch — re-opened keys, implicit
//! opens, fence eviction, restore, the touched-list overflow — and pins
//! what a cut costs by counting, not timing.

use std::collections::BTreeMap;

use proptest::prelude::*;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sitm_core::{
    Annotation, AnnotationSet, Duration, PresenceInterval, SemanticTrajectory, TimeInterval,
    Timestamp, Trace, TransitionTaken,
};
use sitm_louvre::{
    build_louvre, generate_dataset, zone_key, Dataset, GeneratorConfig, LouvreModel,
    PaperCalibration,
};
use sitm_query::{federated_count, CandidateSet, Predicate, Query, Row, TrajectorySource};
use sitm_space::CellRef;
use sitm_store::{CheckpointFrame, LogStore};
use sitm_stream::{
    dataset_events, resume_from_log, EngineConfig, LiveSnapshot, ParallelEngine, StreamEvent,
    VisitKey,
};
use std::sync::Arc;

/// The open prefixes matching `p`, served through the live index
/// (candidates narrowed, then re-checked by the paging core).
fn indexed(snapshot: &LiveSnapshot, p: &Predicate) -> Vec<SemanticTrajectory> {
    Query::new()
        .filter(p.clone())
        .execute_federated(&[snapshot])
}

/// The same through the index-free reference: the query crate's oracle
/// evaluates `p` against every open prefix.
fn scanned(snapshot: &LiveSnapshot, p: &Predicate) -> Vec<SemanticTrajectory> {
    let rows = Query::new().filter(p.clone()).oracle(&[snapshot], false);
    rows.into_iter().map(Row::into_owned).collect()
}

fn label(s: &str) -> AnnotationSet {
    AnnotationSet::from_iter([Annotation::goal(s)])
}

fn zone_cell(model: &LouvreModel, id: u32) -> CellRef {
    model
        .space
        .resolve(&zone_key(id))
        .expect("paper zone resolves")
}

fn config(model: &LouvreModel, shards: usize) -> EngineConfig {
    EngineConfig::new(vec![(
        sitm_core::IntervalPredicate::in_cells([zone_cell(model, 60886)]),
        label("in hall"),
    )])
    .with_shards(shards)
    .with_batch_capacity(4)
    .with_live_queries()
}

fn small_dataset(seed: u64, visits: usize, mean_dets: usize) -> Dataset {
    let cal = PaperCalibration {
        visits,
        visitors: visits,
        returning_visitors: 0,
        revisits: 0,
        detections: visits * mean_dets,
        transitions: visits * (mean_dets - 1),
        ..PaperCalibration::default()
    };
    generate_dataset(&GeneratorConfig {
        seed,
        calibration: cal,
        ..GeneratorConfig::default()
    })
}

/// The batch-built reference: replay `events[..cut]` with plain
/// bookkeeping and return, per still-open visit, the trajectory prefix
/// built from the intervals seen so far.
fn batch_prefixes(events: &[StreamEvent]) -> BTreeMap<u64, SemanticTrajectory> {
    struct OpenVisit {
        moving_object: String,
        annotations: AnnotationSet,
        intervals: Vec<PresenceInterval>,
    }
    let mut open: BTreeMap<u64, OpenVisit> = BTreeMap::new();
    for event in events {
        match event {
            StreamEvent::VisitOpened {
                visit,
                moving_object,
                annotations,
                ..
            } => {
                open.insert(
                    visit.0,
                    OpenVisit {
                        moving_object: moving_object.clone(),
                        annotations: annotations.clone(),
                        intervals: Vec::new(),
                    },
                );
            }
            StreamEvent::Presence { visit, interval } => {
                if let Some(v) = open.get_mut(&visit.0) {
                    v.intervals.push(interval.clone());
                }
            }
            StreamEvent::VisitClosed { visit, .. } => {
                open.remove(&visit.0);
            }
            StreamEvent::Fix { .. } => unreachable!("Louvre replay is detection-level"),
        }
    }
    open.into_iter()
        .filter(|(_, v)| !v.intervals.is_empty())
        .map(|(key, v)| {
            let trace = Trace::new(v.intervals).expect("feed is well-formed");
            let t = SemanticTrajectory::new(v.moving_object, trace, v.annotations)
                .expect("non-empty annotations");
            (key, t)
        })
        .collect()
}

/// The predicates the live view is checked under: where, when, and a
/// dwell aggregate.
fn query_predicates(model: &LouvreModel, events: &[StreamEvent]) -> Vec<Predicate> {
    let mid = events[events.len() / 2].time();
    vec![
        Predicate::True,
        Predicate::VisitedCell(zone_cell(model, 60886)),
        Predicate::SpanOverlaps(TimeInterval::new(mid, mid + Duration::minutes(30))),
        Predicate::MinTotalDwell(Duration::minutes(10)),
        Predicate::VisitedCell(zone_cell(model, 60887))
            .and(Predicate::MinTotalDwell(Duration::minutes(1))),
    ]
}

/// Checks one engine's snapshot against the batch prefix reference at
/// one cut point.
fn check_cut(model: &LouvreModel, events: &[StreamEvent], cut: usize, snapshot: &LiveSnapshot) {
    let reference = batch_prefixes(&events[..cut]);
    assert_eq!(
        snapshot.visits.len(),
        reference.len(),
        "cut {cut}: open-visit census diverged"
    );
    for live in &snapshot.visits {
        let expected = reference
            .get(&live.visit.0)
            .unwrap_or_else(|| panic!("cut {cut}: {} not open in batch view", live.visit));
        assert_eq!(
            &live.trajectory, expected,
            "cut {cut}: {} prefix diverged",
            live.visit
        );
    }
    for predicate in query_predicates(model, events) {
        let batch_count = reference.values().filter(|t| predicate.matches(t)).count();
        assert_eq!(
            snapshot.count_matching(&predicate),
            batch_count,
            "cut {cut}: predicate {predicate} diverged"
        );
        // Drain-point index consistency: the incrementally maintained
        // live index, captured mid-stream between drains, must answer
        // exactly like the index-free scan — ids and counts.
        let scanned = scanned(snapshot, &predicate);
        assert_eq!(
            scanned.len(),
            batch_count,
            "cut {cut}: scan path diverged for {predicate}"
        );
        assert_eq!(
            indexed(snapshot, &predicate),
            scanned,
            "cut {cut}: indexed matches diverged for {predicate}"
        );
        // The federation entry point sees the same union (and routes
        // through the same candidates).
        assert_eq!(
            federated_count(&predicate, &[snapshot as &dyn TrajectorySource]),
            batch_count,
            "cut {cut}: federated count diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn live_view_equals_batch_prefix_at_every_drain_point(
        seed in 0u64..1_000_000,
        visits in 6usize..16,
        k in 3usize..6,
        shards in 1usize..9,
    ) {
        let model = build_louvre();
        let dataset = small_dataset(seed, visits, k);
        let events = dataset_events(&model, &dataset);
        prop_assert!(!events.is_empty());

        let mut sequential = ParallelEngine::new(config(&model, 1)).expect("engine");
        let mut parallel = ParallelEngine::new(config(&model, shards)).expect("engine");

        // Five drain points through the day, plus the end.
        let cuts: Vec<usize> = (1..=5).map(|i| events.len() * i / 5).collect();
        let mut previous = 0;
        for &cut in &cuts {
            sequential.ingest_all(events[previous..cut].iter().cloned());
            parallel.ingest_all(events[previous..cut].iter().cloned());
            previous = cut;

            let snapshot = sequential.live_snapshot();
            let drained = sequential.drain();
            check_cut(&model, &events, cut, &snapshot);

            let snapshot = parallel.live_snapshot();
            let parallel_drained = parallel.drain();
            check_cut(&model, &events, cut, &snapshot);
            prop_assert_eq!(drained, parallel_drained, "{} workers != 1 worker", shards);
        }
    }
}

#[test]
fn empty_shards_are_invisible_to_live_queries() {
    // One visit on eight shards: seven shards have no state, and the
    // snapshot must reflect exactly the one open prefix.
    let model = build_louvre();
    let dataset = small_dataset(77, 1, 4);
    let events = dataset_events(&model, &dataset);
    assert!(events.len() > 2);
    let mut engine = ParallelEngine::new(config(&model, 8)).unwrap();
    // Everything but the close.
    let body: Vec<StreamEvent> = events[..events.len() - 1].to_vec();
    let cut = body.len();
    engine.ingest_all(body);
    let snapshot = engine.live_snapshot();
    assert_eq!(snapshot.visits.len(), 1);
    assert_eq!(snapshot.count_matching(&Predicate::True), 1);
    check_cut(&model, &events, cut, &snapshot);
    // After the close the live view empties.
    engine.ingest_all(events[events.len() - 1..].iter().cloned());
    let empty = engine.live_snapshot();
    assert!(empty.visits.is_empty());
    assert_eq!(empty.count_matching(&Predicate::True), 0);
}

#[test]
fn single_hot_shard_skew_stays_consistent() {
    // One visit receives ~95% of all events (a tour group's shared
    // device): its shard saturates while the rest idle, and the live
    // view must still match the batch prefix exactly.
    let hall = CellRef::new(
        sitm_graph::LayerIdx::from_index(0),
        sitm_graph::NodeId::from_index(3),
    );
    let other = CellRef::new(
        sitm_graph::LayerIdx::from_index(0),
        sitm_graph::NodeId::from_index(4),
    );
    let mut events = Vec::new();
    events.push(StreamEvent::VisitOpened {
        visit: VisitKey(0),
        moving_object: "hot".into(),
        annotations: label("visit"),
        at: Timestamp(0),
    });
    for i in 0..400i64 {
        events.push(StreamEvent::Presence {
            visit: VisitKey(0),
            interval: PresenceInterval::new(
                TransitionTaken::Unknown,
                if i % 2 == 0 { hall } else { other },
                Timestamp(i * 10),
                Timestamp(i * 10 + 10),
            ),
        });
    }
    for v in 1..6u64 {
        events.push(StreamEvent::VisitOpened {
            visit: VisitKey(v),
            moving_object: format!("cold-{v}"),
            annotations: label("visit"),
            at: Timestamp(v as i64),
        });
        events.push(StreamEvent::Presence {
            visit: VisitKey(v),
            interval: PresenceInterval::new(
                TransitionTaken::Unknown,
                other,
                Timestamp(v as i64 + 1),
                Timestamp(v as i64 + 100),
            ),
        });
    }
    sitm_stream::event::sort_feed(&mut events);

    let preds = vec![(sitm_core::IntervalPredicate::in_cells([hall]), label("hot"))];
    let config = EngineConfig::new(preds)
        .with_shards(4)
        .with_batch_capacity(8)
        .with_channel_depth(2) // tiny depth: exercise backpressure on the hot channel
        .with_live_queries();
    let mut engine = ParallelEngine::new(config).unwrap();
    let cut = events.len();
    engine.ingest_all(events.iter().cloned());
    let snapshot = engine.live_snapshot();
    assert_eq!(snapshot.visits.len(), 6, "all six visits still open");

    let reference = batch_prefixes(&events[..cut]);
    for live in &snapshot.visits {
        assert_eq!(&live.trajectory, &reference[&live.visit.0]);
    }
    assert_eq!(
        snapshot.count_matching(&Predicate::VisitedCell(hall)),
        1,
        "only the hot visit touched the hall"
    );
    assert_eq!(
        snapshot.count_matching(&Predicate::MinTotalDwell(Duration::seconds(450))),
        1,
        "only the hot visit (4000s dwell) clears 450s; cold visits dwell 99s"
    );
}

#[test]
fn explain_reports_the_live_index_path_and_federated_queries_page_the_union() {
    use sitm_query::{AccessPath, Query, SortKey, TrajectoryDb, TrajectorySource};

    let model = build_louvre();
    let dataset = small_dataset(42, 10, 4);
    let events = dataset_events(&model, &dataset);
    let mut engine = ParallelEngine::new(config(&model, 4)).unwrap();
    // Ingest everything but the tail closes so several visits stay open.
    let open_cut = events
        .iter()
        .position(|e| matches!(e, StreamEvent::VisitClosed { .. }))
        .expect("some visit closes");
    engine.ingest_all(events[..open_cut].iter().cloned());
    let snapshot = engine.live_snapshot();
    assert!(!snapshot.visits.is_empty());

    // The engine-produced snapshot's index covers every visit, so an
    // indexable predicate explains as IndexCandidates over the live
    // side — and the candidate count bounds the population.
    let hall = zone_cell(&model, 60886);
    let query = Query::new().visited(hall);
    let plan = query.explain(&*snapshot);
    match plan.access {
        AccessPath::IndexCandidates { candidates } => {
            assert!(candidates <= snapshot.visits.len());
            assert_eq!(
                candidates,
                snapshot.count_matching(&sitm_query::Predicate::VisitedCell(hall)),
                "cell postings are exact for VisitedCell"
            );
        }
        AccessPath::FullScan => panic!("live snapshot must expose an index path"),
    }
    // An unindexable predicate explains as a scan of the live side.
    let scan_plan = Query::new()
        .filter(sitm_query::Predicate::MinTotalDwell(
            sitm_core::Duration::minutes(1),
        ))
        .explain(&*snapshot);
    assert_eq!(scan_plan.access, AccessPath::FullScan);

    // Sorted + limited federated execution over live state ∪ warehouse:
    // results equal the naive union filtered, sorted, and paged by hand.
    let warehouse: Vec<sitm_core::SemanticTrajectory> = snapshot
        .visits
        .iter()
        .map(|v| v.trajectory.clone())
        .collect();
    let db = TrajectoryDb::build(warehouse);
    let sources: Vec<&dyn TrajectorySource> = vec![&*snapshot, &db];
    let q = Query::new()
        .visited(hall)
        .order_by(SortKey::Start, true)
        .offset(1)
        .limit(3);
    let fed = q.execute_federated(&sources);
    let naive: Vec<sitm_core::SemanticTrajectory> = q
        .oracle(&sources, false)
        .into_iter()
        .map(Row::into_owned)
        .collect();
    assert_eq!(
        fed, naive,
        "federated sort/offset/limit must match the naive union"
    );
}

#[test]
fn restoring_into_a_non_retaining_config_drops_prefixes_not_serves_them_stale() {
    // A retaining engine checkpoints mid-visit; the operator restarts
    // with retention off. The restored engine must count those visits
    // as unqueryable — a frozen prefix masquerading as the visit's
    // current trajectory would silently answer live queries wrongly.
    let model = build_louvre();
    let dataset = small_dataset(123, 4, 5);
    let events = dataset_events(&model, &dataset);
    // Cut just before the first close: that visit is open, mid-prefix.
    let cut = events
        .iter()
        .position(|e| matches!(e, StreamEvent::VisitClosed { .. }))
        .expect("some visit closes");
    let path = std::env::temp_dir().join(format!("sitm-live-retention-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let mut engine = ParallelEngine::new(config(&model, 2)).unwrap();
        engine.ingest_all(events[..cut].iter().cloned());
        assert!(
            !engine.live_snapshot().visits.is_empty(),
            "mid-day: some visit is open with a prefix"
        );
        let (mut log, _, _) = LogStore::<CheckpointFrame>::open(&path).unwrap();
        engine.checkpoint(&mut log).unwrap();
    }
    // Same predicates, retention off.
    let plain = EngineConfig::new(vec![(
        sitm_core::IntervalPredicate::in_cells([zone_cell(&model, 60886)]),
        label("in hall"),
    )])
    .with_shards(2)
    .with_batch_capacity(4);
    let (mut restored, _log, report) = resume_from_log(plain, &path).unwrap();
    assert!(report.is_clean());
    let snapshot = restored.live_snapshot();
    assert!(
        snapshot.visits.is_empty(),
        "no frozen prefixes may survive into a non-retaining config"
    );
    assert!(
        snapshot.unqueryable > 0,
        "the open visits are still counted"
    );
    // The episode pipeline itself is unharmed by the reconciliation.
    let mut reference = ParallelEngine::new(config(&model, 2)).unwrap();
    reference.ingest_all(events.iter().cloned());
    restored.ingest_all(events[cut..].iter().cloned());
    assert_eq!(restored.finish(), reference.finish());
    let _ = std::fs::remove_file(&path);
}

// ---- patched (`live_snapshot`) == rebuilt (`rebuilt_snapshot`) at every cut ----

fn cell(n: usize) -> CellRef {
    CellRef::new(
        sitm_graph::LayerIdx::from_index(0),
        sitm_graph::NodeId::from_index(n),
    )
}

const CHURN_CELLS: usize = 4;
const CHURN_LATENESS: i64 = 50;

fn churn_config(shards: usize) -> EngineConfig {
    EngineConfig::new(vec![
        (
            sitm_core::IntervalPredicate::in_cells([cell(1)]),
            label("one"),
        ),
        (sitm_core::IntervalPredicate::any(), label("whole")),
    ])
    .with_shards(shards)
    .with_batch_capacity(3)
    .with_allowed_lateness(Duration::seconds(CHURN_LATENESS))
    .with_live_queries()
}

fn stay(key: u64, c: usize, start: i64, end: i64) -> StreamEvent {
    StreamEvent::Presence {
        visit: VisitKey(key),
        interval: PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(c),
            Timestamp(start),
            Timestamp(end),
        ),
    }
}

/// A feed built to hit what a patch can get wrong. Every key lives
/// several lives, 10 000 s apart: a life may start without its open
/// (implicit open), takes stays and raw fixes, may close, and a closed
/// life may be followed by a straggler inside the lateness horizon
/// (fenced) — the next life's first event then retires the fence and
/// re-opens the same key. The last life of a key may stay open.
fn churn_feed(seed: u64, keys: u64) -> Vec<StreamEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::new();
    for key in 0..keys {
        for life in 0..rng.random_range(1..4i64) {
            let base = life * 10_000 + key as i64;
            if rng.random_bool(0.7) {
                events.push(StreamEvent::VisitOpened {
                    visit: VisitKey(key),
                    moving_object: format!("mo-{}", key % 5),
                    annotations: label("visit"),
                    at: Timestamp(base),
                });
            }
            let mut t = base;
            for _ in 0..rng.random_range(0..5) {
                let c = rng.random_range(0..CHURN_CELLS);
                if rng.random_bool(0.3) {
                    events.push(StreamEvent::Fix {
                        visit: VisitKey(key),
                        cell: cell(c),
                        at: Timestamp(t),
                    });
                } else {
                    events.push(stay(key, c, t, t + 20));
                }
                t += 30;
            }
            if rng.random_bool(0.75) {
                events.push(StreamEvent::VisitClosed {
                    visit: VisitKey(key),
                    at: Timestamp(t),
                });
                if rng.random_bool(0.5) {
                    events.push(stay(key, 0, t + 10, t + 20));
                }
            }
        }
    }
    events
}

/// Seeded Fisher–Yates over a window: events travel at most `reach`
/// places, so feeds stay mostly causal (lives really open, extend,
/// close and re-open) while order within the window is arbitrary.
fn shuffle_locally(events: &mut [StreamEvent], seed: u64, reach: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..events.len() {
        let j = rng.random_range(i..(i + reach).min(events.len()));
        events.swap(i, j);
    }
}

/// Every predicate shape the live index can narrow, over the churn
/// feed's cells, objects and time axis.
fn indexable_shapes() -> Vec<Predicate> {
    let window = |a: i64, b: i64| TimeInterval::new(Timestamp(a), Timestamp(b));
    let mut shapes = vec![
        Predicate::SequenceContains(vec![cell(0), cell(1)]),
        Predicate::VisitedCell(cell(1)).and(Predicate::MovingObject("mo-2".into())),
        Predicate::VisitedCell(cell(2)).or(Predicate::MovingObject("mo-4".into())),
        Predicate::VisitedCell(cell(3)).and(Predicate::MinTotalDwell(Duration::seconds(30))),
    ];
    for c in 0..CHURN_CELLS {
        shapes.push(Predicate::VisitedCell(cell(c)));
        shapes.push(Predicate::MinStayIn(cell(c), Duration::seconds(10)));
        shapes.push(Predicate::StayOverlaps(cell(c), window(10_000, 10_200)));
    }
    for object in 0..5 {
        shapes.push(Predicate::MovingObject(format!("mo-{object}")));
    }
    for end in [0, 60, 10_050, 20_100, 40_000] {
        shapes.push(Predicate::SpanOverlaps(window(end - 100, end)));
    }
    shapes
}

fn candidates_of(snapshot: &LiveSnapshot) -> Vec<CandidateSet> {
    indexable_shapes()
        .iter()
        .map(|p| snapshot.candidates(p))
        .collect()
}

/// The differential at one cut: the patched snapshot equals the rebuilt
/// one field for field (visits, `unqueryable`, watermark, postings),
/// narrows every indexable shape to the same candidates, and answers
/// them like its own scan path.
fn assert_patched_equals_rebuilt(patched: &LiveSnapshot, rebuilt: &LiveSnapshot, at: &str) {
    assert_eq!(patched.visits, rebuilt.visits, "{at}: visits diverged");
    assert_eq!(
        patched.unqueryable, rebuilt.unqueryable,
        "{at}: unqueryable"
    );
    assert_eq!(patched.watermark, rebuilt.watermark, "{at}: watermark");
    assert_eq!(patched, rebuilt, "{at}: postings diverged");
    assert_eq!(candidates_of(patched), candidates_of(rebuilt), "{at}");
    for p in indexable_shapes() {
        assert!(
            patched.candidates(&p) != CandidateSet::All,
            "{at}: {p} must narrow through the patched index"
        );
        assert_eq!(
            indexed(patched, &p),
            scanned(patched, &p),
            "{at}: indexed != scan for {p}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cuts after random prefixes of a shuffled churn feed: at each, the
    /// patched snapshot equals the from-scratch one; one cut goes
    /// through checkpoint → restore first; the snapshot a reader kept
    /// from the previous cut is still what it was; and the episodes
    /// are those of one uninterrupted one-worker run.
    #[test]
    fn patched_snapshot_equals_rebuilt_at_every_cut(
        seed in 0u64..1_000_000,
        keys in 4u64..14,
        shards in 1usize..5,
        reach in 1usize..12,
        cuts in proptest::collection::vec(1usize..9, 3..10),
        restore_at in 0usize..10,
    ) {
        let mut events = churn_feed(seed, keys);
        // Lives in time order across keys, then locally shuffled.
        events.sort_by_key(StreamEvent::time);
        shuffle_locally(&mut events, seed ^ 0x5eed, reach);

        let mut patched = ParallelEngine::new(churn_config(shards)).expect("engine");
        // What a reader holding the previous cut's `Arc` must still see.
        let mut held: Option<(Arc<LiveSnapshot>, LiveSnapshot, Vec<CandidateSet>)> = None;

        let mut fed = 0;
        let mut step = 0;
        while fed < events.len() {
            let next = (fed + cuts[step % cuts.len()]).min(events.len());
            patched.ingest_all(events[fed..next].iter().cloned());
            fed = next;

            if step == restore_at {
                let frames = patched.checkpoint_frames();
                let frames: Vec<&CheckpointFrame> = frames.iter().collect();
                patched = ParallelEngine::restore(churn_config(shards), &frames).expect("restore");
            }
            let at = format!("seed {seed}, after {fed} events");
            let now_patched = patched.live_snapshot();
            let now_rebuilt = patched.rebuilt_snapshot();
            assert_patched_equals_rebuilt(&now_patched, &now_rebuilt, &at);

            if let Some((old_patched, old_rebuilt, old_candidates)) = held.take() {
                prop_assert_eq!(&*old_patched, &old_rebuilt, "{}: a held snapshot changed", at);
                prop_assert_eq!(candidates_of(&old_patched), old_candidates);
            }
            let candidates = candidates_of(&now_patched);
            held = Some((now_patched, now_rebuilt, candidates));
            step += 1;
        }
        let mut uninterrupted = ParallelEngine::new(churn_config(1)).expect("engine");
        uninterrupted.ingest_all(events);
        prop_assert_eq!(patched.finish(), uninterrupted.finish(), "episodes diverged");
    }
}

#[test]
fn close_straggler_expiry_and_reopen_between_two_cuts() {
    // One key, all between two cuts: close, a straggler inside the
    // horizon (fenced), then a stay past it that retires the fence and
    // re-opens the key implicitly under a new identity. The patch must
    // end with the new life's prefix and postings, not the old one's.
    let mut patched = ParallelEngine::new(churn_config(2)).unwrap();
    let first_life = vec![
        StreamEvent::VisitOpened {
            visit: VisitKey(7),
            moving_object: "mo-2".into(),
            annotations: label("visit"),
            at: Timestamp(0),
        },
        stay(7, 1, 0, 20),
        stay(8, 2, 5, 25), // a bystander the patch must leave alone
    ];
    patched.ingest_all(first_life);
    let before = patched.live_snapshot();
    assert_patched_equals_rebuilt(&before, &patched.rebuilt_snapshot(), "first life");
    assert_eq!(
        before.count_matching(&Predicate::MovingObject("mo-2".into())),
        1
    );

    let churn = vec![
        StreamEvent::VisitClosed {
            visit: VisitKey(7),
            at: Timestamp(30),
        },
        stay(7, 3, 40, 45),   // within 30 + 50: fenced
        stay(7, 3, 500, 520), // past it: re-opens as implicit-7
    ];
    patched.ingest_all(churn);
    let after = patched.live_snapshot();
    assert_patched_equals_rebuilt(&after, &patched.rebuilt_snapshot(), "second life");
    let reopened = indexed(&after, &Predicate::VisitedCell(cell(3)));
    assert_eq!(reopened.len(), 1);
    assert_eq!(reopened[0].moving_object, "implicit-7");
    assert_eq!(reopened[0].trace().len(), 1, "the new life only");
    assert_eq!(
        after.count_matching(&Predicate::MovingObject("mo-2".into())),
        0,
        "the old life's postings are gone"
    );
    assert!(
        Arc::ptr_eq(&before.visits[1], &after.visits[1]),
        "the untouched bystander is shared between the cuts, not re-cloned"
    );
    assert_eq!(
        before.visits[0].trajectory.moving_object, "mo-2",
        "held cut"
    );
}

#[test]
fn fence_eviction_reopens_and_patches_like_a_rebuild() {
    // One shard, one remembered fence: closing B evicts A's older
    // fence, so a straggler for A re-opens it while B's is fenced.
    let mut patched = ParallelEngine::new(churn_config(1).with_fence_capacity(1)).unwrap();
    let steps: Vec<Vec<StreamEvent>> = vec![
        vec![stay(1, 0, 0, 10), stay(2, 1, 0, 10), stay(3, 2, 0, 10)],
        vec![
            StreamEvent::VisitClosed {
                visit: VisitKey(1),
                at: Timestamp(20),
            },
            StreamEvent::VisitClosed {
                visit: VisitKey(2),
                at: Timestamp(30),
            },
        ],
        vec![stay(1, 3, 40, 45), stay(2, 3, 40, 45)],
    ];
    for (i, step) in steps.into_iter().enumerate() {
        patched.ingest_all(step);
        let snapshot = patched.live_snapshot();
        let rebuilt = patched.rebuilt_snapshot();
        assert_patched_equals_rebuilt(&snapshot, &rebuilt, &format!("step {i}"));
    }
    let open: Vec<u64> = patched
        .live_snapshot()
        .visits
        .iter()
        .map(|v| v.visit.0)
        .collect();
    assert_eq!(
        open,
        vec![1, 3],
        "A re-opened (fence evicted), B stayed fenced"
    );
}

/// `closed` visits that open, stay and close (two episodes each under
/// `churn_config`), keyed from `base`.
fn closed_visits(base: u64, closed: u64) -> Vec<StreamEvent> {
    let mut events = Vec::new();
    for key in base..base + closed {
        let t = key as i64;
        events.push(StreamEvent::VisitOpened {
            visit: VisitKey(key),
            moving_object: format!("gone-{key}"),
            annotations: label("visit"),
            at: Timestamp(t),
        });
        events.push(stay(key, 1, t, t + 5));
        events.push(StreamEvent::VisitClosed {
            visit: VisitKey(key),
            at: Timestamp(t + 6),
        });
    }
    events
}

fn counter(registry: &sitm_obs::MetricsRegistry, name: &str) -> u64 {
    registry
        .snapshot()
        .counter(name)
        .unwrap_or_else(|| panic!("{name} is not registered"))
}

/// What a cut costs, counted rather than timed: 200 open visits beside
/// 5 000 closed ones (10 000 episodes nobody drained), then one fix.
/// The cut after it re-derives exactly that one visit.
#[test]
fn a_cut_reclones_only_the_visits_touched_since_the_last_one() {
    let registry = sitm_obs::MetricsRegistry::new();
    let config = |registry: &sitm_obs::MetricsRegistry| {
        // One worker, so one deposit takes every touch below.
        churn_config(1)
            .with_batch_capacity(64)
            .with_metrics(registry.clone())
    };
    let mut engine = ParallelEngine::new(config(&registry)).unwrap();

    let mut feed = closed_visits(1_000, 5_000);
    feed.extend((0..200u64).map(|key| stay(key, (key % 3) as usize, 0, 10)));
    engine.ingest_all(feed);

    // 5 200 visits were touched, far past what a deposit lists, and
    // the open ones last: this cut takes the overflow path — the same
    // patch over every open visit — and must still equal the
    // from-scratch snapshot, which counts as no cut.
    let first = engine.live_snapshot();
    assert_patched_equals_rebuilt(&first, &engine.rebuilt_snapshot(), "overflowed cut");
    assert_eq!(first.visits.len(), 200);
    assert_eq!(counter(&registry, "engine.snapshot_cuts"), 1);
    assert_eq!(counter(&registry, "engine.snapshot_visits_recloned"), 200);
    assert_eq!(
        registry.snapshot().gauge("engine.pending_episodes"),
        Some(10_000),
        "the backlog the cut did not touch"
    );

    let nudge = StreamEvent::Fix {
        visit: VisitKey(17),
        cell: cell(3),
        at: Timestamp(50),
    };
    engine.ingest(nudge);
    engine.ingest(stay(17, 3, 60, 70)); // closes the fix into an interval
    let second = engine.live_snapshot();
    assert_patched_equals_rebuilt(&second, &engine.rebuilt_snapshot(), "patched cut");
    assert_eq!(counter(&registry, "engine.snapshot_cuts"), 2);
    assert_eq!(
        counter(&registry, "engine.snapshot_visits_recloned"),
        201,
        "the second cut re-derived exactly the one visit that changed"
    );
    let shared = first
        .visits
        .iter()
        .zip(&second.visits)
        .filter(|(a, b)| Arc::ptr_eq(a, b))
        .count();
    assert_eq!(
        shared, 199,
        "every other prefix is the previous cut's allocation"
    );

    // No ingest since: a cache hit, no cut at all.
    let (third, hit) = engine.live_snapshot_cached();
    assert!(hit && Arc::ptr_eq(&second, &third));
    assert_eq!(counter(&registry, "engine.snapshot_cuts"), 2);
    assert_eq!(counter(&registry, "engine.snapshot_visits_recloned"), 201);
}
