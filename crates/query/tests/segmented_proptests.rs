//! Property tests pinning the segmented warehouse's soundness
//! invariant: for random trajectory corpora, random flush splits, and
//! every `Predicate` variant, the candidate superset derived from zone
//! maps + per-segment postings never loses a match, and the
//! index-served results equal both the scan path and an in-memory
//! [`TrajectoryDb`] over the same trajectories — and, for random page
//! shapes over hydrated, cold and mixed warehouses, that the segmented
//! pushdown returns the oracle's page from both of its sinks — among
//! them every page of a walk under `True`, whose offset the core skips
//! by position — and that a page ordered by start, which merges the
//! segments' sorted runs and skips an offset by rank, is the oracle's
//! page at every offset over segments whose rows tie on start across
//! their boundaries, alone and federated beside a live snapshot.

use proptest::prelude::*;

use sitm_core::{
    Annotation, AnnotationSet, Duration, PresenceInterval, SemanticTrajectory, TimeInterval,
    Timestamp, Trace, TransitionTaken,
};
use sitm_graph::{CellRef, LayerIdx, NodeId};
use sitm_query::{
    CandidateSet, Predicate, Query, SegmentedDb, SortKey, TrajId, TrajectoryDb, TrajectorySource,
};
use sitm_store::warehouse::WarehouseConfig;
use sitm_stream::{LiveSnapshot, VisitKey};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("sitm-segprop-{}-{n}", std::process::id()));
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

const GOALS: [&str; 3] = ["visit", "buy", "exit"];

/// One synthetic trajectory: stays walk forward in time over cells 0..6
/// (the same universe the `TrajectoryDb` proptests use) — including
/// *overlapping* stays (`Trace` tolerates overlap; it is exactly the
/// shape that makes total dwell exceed the span, so zone-map dwell
/// pruning must survive it).
fn trajectory_strategy() -> impl Strategy<Value = SemanticTrajectory> {
    (
        0u8..5,              // moving-object pool
        0usize..GOALS.len(), // goal
        0i64..500,           // start time
        prop::collection::vec((0usize..6, 0i64..30, 0u8..3, 0i64..40), 1..8),
    )
        .prop_map(|(mo, goal, start, stays)| {
            let mut t = start;
            let mut intervals = Vec::with_capacity(stays.len());
            for (c, dur, ann, overlap) in stays {
                let end = t + dur;
                let mut stay = PresenceInterval::new(
                    TransitionTaken::Unknown,
                    cell(c),
                    Timestamp(t),
                    Timestamp(end),
                );
                if ann > 0 {
                    stay.annotations
                        .insert(Annotation::goal(GOALS[(ann as usize - 1) % GOALS.len()]));
                }
                intervals.push(stay);
                // Next stay may start before this one ends (but starts
                // stay non-decreasing, as Trace requires).
                t = (end - overlap).max(t);
            }
            SemanticTrajectory::new(
                format!("mo-{mo}"),
                Trace::new(intervals).expect("strategy emits ordered stays"),
                AnnotationSet::from_iter([Annotation::goal(GOALS[goal])]),
            )
            .expect("non-empty trace and annotations")
        })
}

/// Random predicates over the same universe, covering every variant.
fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    let leaf = prop_oneof![
        Just(Predicate::True),
        (0usize..6).prop_map(|c| Predicate::VisitedCell(cell(c))),
        prop::collection::vec(0usize..6, 1..3)
            .prop_map(|cs| Predicate::SequenceContains(cs.into_iter().map(cell).collect())),
        (0i64..700, 0i64..60).prop_map(|(s, d)| Predicate::SpanOverlaps(TimeInterval::new(
            Timestamp(s),
            Timestamp(s + d)
        ))),
        (0usize..6, 0i64..700, 0i64..60).prop_map(|(c, s, d)| Predicate::StayOverlaps(
            cell(c),
            TimeInterval::new(Timestamp(s), Timestamp(s + d))
        )),
        (0usize..GOALS.len())
            .prop_map(|g| Predicate::HasTrajAnnotation(Annotation::goal(GOALS[g]))),
        (0usize..GOALS.len())
            .prop_map(|g| Predicate::HasStayAnnotation(Annotation::goal(GOALS[g]))),
        (0i64..120).prop_map(|s| Predicate::MinTotalDwell(Duration::seconds(s))),
        (0usize..6, 0i64..40)
            .prop_map(|(c, s)| Predicate::MinStayIn(cell(c), Duration::seconds(s))),
        (0u8..5).prop_map(|m| Predicate::MovingObject(format!("mo-{m}"))),
        // Candidates (the cell's postings) a strict superset of the
        // matches: the shape that makes a sorted page outrun its head.
        (0usize..6, 0i64..120).prop_map(|(c, s)| Predicate::VisitedCell(cell(c))
            .and(Predicate::MinTotalDwell(Duration::seconds(s)))),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(|p| p.not()),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Predicate::And),
            prop::collection::vec(inner, 0..4).prop_map(Predicate::Or),
        ]
    })
}

const KEYS: [SortKey; 6] = [
    SortKey::Start,
    SortKey::End,
    SortKey::SpanDuration,
    SortKey::TotalDwell,
    SortKey::MovingObject,
    SortKey::TraceLength,
];

/// Random page shapes: no order or any sort key in either direction,
/// offsets and limits from nothing to past the corpus.
fn page_strategy() -> impl Strategy<Value = (Option<(SortKey, bool)>, usize, Option<usize>)> {
    (
        prop::option::of((0usize..KEYS.len(), any::<bool>())),
        0usize..56,
        prop::option::of(0usize..56),
    )
        .prop_map(|(order, offset, limit)| (order.map(|(k, asc)| (KEYS[k], asc)), offset, limit))
}

/// Every page of a walk under `True` over `len` rows in pages of `n`
/// (`n ≥ 1`): no order or any sort key in either direction × offsets
/// {0, mid-run, the last page, exactly `len`, past the end} × limits
/// {none, 0, `n`}.
fn true_pages(len: usize, n: usize) -> Vec<Query> {
    let mut orders = vec![None];
    for key in KEYS {
        orders.extend([Some((key, true)), Some((key, false))]);
    }
    let last_page = len.saturating_sub(1) / n * n;
    let mut out = Vec::new();
    for order in orders {
        for offset in [0, len / 2, last_page, len, len + 3] {
            for limit in [None, Some(0), Some(n)] {
                let mut q = Query::new().offset(offset);
                if let Some((key, ascending)) = order {
                    q = q.order_by(key, ascending);
                }
                if let Some(n) = limit {
                    q = q.limit(n);
                }
                out.push(q);
            }
        }
    }
    out
}

/// Builds a warehouse from `trajs` split into `splits + 1` flush
/// batches (each flush may trigger size-tiered compaction).
fn build_segmented(tmp: &TempDir, trajs: &[SemanticTrajectory], splits: &[usize]) -> SegmentedDb {
    let (mut db, _) = SegmentedDb::open(&tmp.0, WarehouseConfig::default()).expect("open");
    let mut start = 0;
    let mut cuts: Vec<usize> = splits.iter().map(|s| s % (trajs.len() + 1)).collect();
    cuts.sort_unstable();
    cuts.push(trajs.len());
    for cut in cuts {
        if cut > start {
            db.flush(trajs[start..cut].to_vec()).expect("flush");
            start = cut;
        }
    }
    db
}

/// Every row, in warehouse order, read through the federation face.
fn rows(db: &SegmentedDb) -> Vec<SemanticTrajectory> {
    (0..db.len() as TrajId)
        .map(|at| db.row(at).into_owned())
        .collect()
}

/// A row starting at one of four instants, so starts tie within a
/// segment and across segment boundaries; it visits cell 0 or 1 and
/// lasts a varying time.
fn tied_strategy() -> impl Strategy<Value = SemanticTrajectory> {
    (0u8..5, 0i64..4, 0usize..2, 1i64..4).prop_map(|(mo, slot, c, stays)| {
        let start = slot * 100;
        let intervals = (0..stays)
            .map(|k| {
                PresenceInterval::new(
                    TransitionTaken::Unknown,
                    cell(c + k as usize % 2),
                    Timestamp(start + 10 * k),
                    Timestamp(start + 10 * k + 5 + mo as i64),
                )
            })
            .collect();
        SemanticTrajectory::new(
            format!("mo-{mo}"),
            Trace::new(intervals).expect("ordered stays"),
            AnnotationSet::from_iter([Annotation::goal("visit")]),
        )
        .expect("non-empty trace and annotations")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The pinned invariant: every match is in the candidate superset,
    /// for random corpora, random flush splits, and all predicate
    /// variants — and the index-served count/result equals the scan.
    #[test]
    fn segmented_candidates_are_sound_supersets(
        trajs in prop::collection::vec(trajectory_strategy(), 0..14),
        splits in prop::collection::vec(0usize..16, 0..3),
        pred in predicate_strategy(),
    ) {
        let tmp = TempDir::new();
        let db = build_segmented(&tmp, &trajs, &splits);
        prop_assert_eq!(db.len(), trajs.len());

        // Soundness: candidates never lose a matching position.
        let cand = db.candidates(&pred);
        let stored = rows(&db);
        for (i, t) in stored.iter().enumerate() {
            if pred.matches(t) {
                match &cand {
                    CandidateSet::All => {}
                    CandidateSet::Ids(ids) => prop_assert!(
                        ids.contains(&(i as u32)),
                        "candidate set for {} lost matching trajectory {}",
                        pred.clone(),
                        i
                    ),
                }
            }
        }

        // Index-served results equal the scan path (the oracle) exactly.
        let matching = Query::new().filter(pred.clone());
        let indexed: Vec<String> = matching
            .execute_segmented(&db)
            .into_iter()
            .map(|t| t.moving_object)
            .collect();
        let scanned: Vec<String> = matching
            .oracle(&[&db], true)
            .iter()
            .map(|row| row.trajectory().moving_object.clone())
            .collect();
        prop_assert_eq!(&indexed, &scanned, "index vs scan diverged for {}", pred.clone());
        prop_assert_eq!(db.count_matching(&pred), scanned.len());

        // And the whole warehouse answers exactly like an in-memory
        // TrajectoryDb over the same trajectories in the same order.
        let reference = TrajectoryDb::build(stored);
        let from_ref: Vec<String> = reference
            .trajectories()
            .iter()
            .filter(|t| pred.matches(t))
            .map(|t| t.moving_object.clone())
            .collect();
        prop_assert_eq!(&indexed, &from_ref, "segmented vs in-memory diverged for {}", pred.clone());
    }

    /// The segmented pushdown — partial ordering, borrowed skips, both
    /// sinks — returns exactly the oracle's page over an eager
    /// `TrajectoryDb` (a descending sort reverses the ascending order
    /// wholesale, ties included — `Query::execute`'s contract, which
    /// must return that page too), whether the segments it walks are
    /// hydrated, cold, or some of each.
    #[test]
    fn segmented_pages_equal_execute_in_every_residency(
        // Up to 48 rows: past the size below which selecting the head
        // of an order happens to sort all of it.
        trajs in prop::collection::vec(trajectory_strategy(), 0..48),
        splits in prop::collection::vec(0usize..16, 0..3),
        pred in predicate_strategy(),
        pages in prop::collection::vec(page_strategy(), 1..4),
    ) {
        let tmp = TempDir::new();
        let hydrated = build_segmented(&tmp, &trajs, &splits);
        for segment in hydrated.segments() {
            segment.trajectories().expect("hydrate");
        }
        let reference = TrajectoryDb::build(rows(&hydrated));
        let reopen = || SegmentedDb::open(&tmp.0, WarehouseConfig::default()).expect("reopen").0;
        let mixed = reopen();
        for segment in mixed.segments().iter().step_by(2) {
            segment.trajectories().expect("hydrate");
        }
        for (order, offset, limit) in pages {
            let mut q = Query::new().filter(pred.clone()).offset(offset);
            if let Some((key, ascending)) = order {
                q = q.order_by(key, ascending);
            }
            if let Some(n) = limit {
                q = q.limit(n);
            }
            let eager: Vec<SemanticTrajectory> = q
                .oracle(&[&reference], true)
                .into_iter()
                .map(|row| row.into_owned())
                .collect();
            let executed: Vec<&SemanticTrajectory> =
                q.execute(&reference).iter().map(|m| m.trajectory).collect();
            prop_assert_eq!(
                executed, eager.iter().collect::<Vec<_>>(),
                "execute diverged for {} {:?} offset {} limit {:?}",
                pred.clone(), order, offset, limit
            );
            let mut eager_bytes = Vec::new();
            for t in &eager {
                sitm_store::encode_trajectory(&mut eager_bytes, t);
            }
            // A fresh cold warehouse per page: a narrowing predicate
            // hydrates what it touches.
            for (state, db) in [("hydrated", &hydrated), ("mixed", &mixed), ("cold", &reopen())] {
                prop_assert_eq!(
                    &q.execute_segmented(db), &eager,
                    "{} pushdown diverged for {} {:?} offset {} limit {:?}",
                    state, pred.clone(), order, offset, limit
                );
                let mut bytes = Vec::new();
                prop_assert_eq!(q.execute_segmented_encoded(db, &mut bytes), eager.len());
                prop_assert_eq!(
                    &bytes, &eager_bytes,
                    "{} byte sink diverged for {} {:?} offset {} limit {:?}",
                    state, pred.clone(), order, offset, limit
                );
            }
        }
    }

    /// Under `True` the core skips the offset by order position, never
    /// fetching a skipped row: every page of a walk — unsorted, or by
    /// any key either way, ties reversed wholesale as `Query::execute`
    /// documents — is the oracle's page from both sinks, over hydrated,
    /// mixed and cold segments, and the cold warehouse stays cold.
    #[test]
    fn true_pages_skip_by_position_and_equal_the_oracle(
        trajs in prop::collection::vec(trajectory_strategy(), 0..48),
        splits in prop::collection::vec(0usize..16, 0..3),
        n in 1usize..12,
    ) {
        let tmp = TempDir::new();
        let hydrated = build_segmented(&tmp, &trajs, &splits);
        for segment in hydrated.segments() {
            segment.trajectories().expect("hydrate");
        }
        let reference = TrajectoryDb::build(rows(&hydrated));
        let reopen = || SegmentedDb::open(&tmp.0, WarehouseConfig::default()).expect("reopen").0;
        let mixed = reopen();
        for segment in mixed.segments().iter().step_by(2) {
            segment.trajectories().expect("hydrate");
        }
        let cold = reopen();
        for q in true_pages(trajs.len(), n) {
            let eager: Vec<SemanticTrajectory> = q
                .oracle(&[&reference], true)
                .into_iter()
                .map(|row| row.into_owned())
                .collect();
            let executed: Vec<&SemanticTrajectory> =
                q.execute(&reference).iter().map(|m| m.trajectory).collect();
            prop_assert_eq!(executed, eager.iter().collect::<Vec<_>>(), "execute: {:?}", q);
            let mut eager_bytes = Vec::new();
            for t in &eager {
                sitm_store::encode_trajectory(&mut eager_bytes, t);
            }
            for (state, db) in [("hydrated", &hydrated), ("mixed", &mixed), ("cold", &cold)] {
                prop_assert_eq!(&q.execute_segmented(db), &eager, "{}: {:?}", state, q);
                let mut bytes = Vec::new();
                prop_assert_eq!(q.execute_segmented_encoded(db, &mut bytes), eager.len());
                prop_assert_eq!(&bytes, &eager_bytes, "{} byte sink: {:?}", state, q);
            }
        }
        prop_assert!(
            cold.segments().iter().all(|segment| !segment.is_loaded()),
            "a page under True hydrated a cold segment"
        );
    }

    /// The warehouse preserves content as a multiset across arbitrary
    /// flush splits and the compactions they trigger.
    #[test]
    fn segmented_preserves_the_corpus(
        trajs in prop::collection::vec(trajectory_strategy(), 0..14),
        splits in prop::collection::vec(0usize..16, 0..3),
    ) {
        let tmp = TempDir::new();
        let db = build_segmented(&tmp, &trajs, &splits);
        let mut got: Vec<String> = rows(&db)
            .iter()
            .map(|t| format!("{:?}", (t.moving_object.clone(), t.start(), t.end(), t.trace().len())))
            .collect();
        got.sort();
        let mut want: Vec<String> = trajs
            .iter()
            .map(|t| format!("{:?}", (t.moving_object.clone(), t.start(), t.end(), t.trace().len())))
            .collect();
        want.sort();
        prop_assert_eq!(got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A start-ordered page merges the segments' runs and, under
    /// `True`, skips its offset by rank. Over four to six segments
    /// whose rows tie on start across their boundaries, every offset
    /// from 0 to past the end (so before, at and after every boundary
    /// of positions and of tie groups), ascending and descending, is
    /// the oracle's page from both sinks: through `execute_segmented`
    /// (ties reversed wholesale) and through a federated page beside a
    /// live snapshot (ties in source order), hydrated and cold, under
    /// `True` (the rank skip), a narrowing predicate (runs of
    /// candidates) and one every row is a candidate of but few match
    /// (the skip by reference).
    #[test]
    fn start_pages_over_tied_segments_equal_the_oracle(
        pool in prop::collection::vec(tied_strategy(), 48..49),
        sizes in prop::collection::vec(1usize..8, 4..7),
        live_rows in prop::collection::vec(tied_strategy(), 0..6),
    ) {
        let tmp = TempDir::new();
        let config = WarehouseConfig { fanout: 64, ..WarehouseConfig::default() };
        {
            let (mut db, _) = SegmentedDb::open(&tmp.0, config).expect("open");
            let mut from = 0;
            for size in &sizes {
                db.flush(pool[from..from + size].to_vec()).expect("flush");
                from += size;
            }
            prop_assert_eq!(db.segments().len(), sizes.len());
        }
        let total: usize = sizes.iter().sum();
        let live = live_snapshot(&live_rows);
        let hydrated = SegmentedDb::open(&tmp.0, config).expect("reopen").0;
        for segment in hydrated.segments() {
            segment.trajectories().expect("hydrate");
        }
        let cold = || SegmentedDb::open(&tmp.0, config).expect("reopen").0;
        let predicates = [
            Predicate::True,
            Predicate::VisitedCell(cell(0)),
            Predicate::MinTotalDwell(Duration::seconds(14)),
        ];
        for (state, db) in [("hydrated", &hydrated), ("cold", &cold())] {
            for p in &predicates {
                for ascending in [true, false] {
                    for offset in 0..=total + live_rows.len() + 2 {
                        for limit in [None, Some(1), Some(4)] {
                            let mut q = Query::new()
                                .filter(p.clone())
                                .order_by(SortKey::Start, ascending)
                                .offset(offset);
                            if let Some(n) = limit {
                                q = q.limit(n);
                            }
                            let alone: Vec<SemanticTrajectory> = q
                                .oracle(&[db], true)
                                .into_iter()
                                .map(|row| row.into_owned())
                                .collect();
                            prop_assert_eq!(&q.execute_segmented(db), &alone, "{}: {:?}", state, q);
                            let mut bytes = Vec::new();
                            prop_assert_eq!(q.execute_segmented_encoded(db, &mut bytes), alone.len());
                            prop_assert_eq!(&bytes, &encoded(&alone), "{} byte sink: {:?}", state, q);

                            let sources: [&dyn TrajectorySource; 2] = [&live, db];
                            let federated: Vec<SemanticTrajectory> = q
                                .oracle(&sources, false)
                                .into_iter()
                                .map(|row| row.into_owned())
                                .collect();
                            prop_assert_eq!(
                                &q.execute_federated(&sources), &federated,
                                "{} federated: {:?}", state, q
                            );
                            let mut bytes = Vec::new();
                            prop_assert_eq!(
                                q.execute_federated_encoded(&sources, &mut bytes),
                                federated.len()
                            );
                            prop_assert_eq!(
                                &bytes, &encoded(&federated),
                                "{} federated byte sink: {:?}", state, q
                            );
                        }
                    }
                }
            }
        }
    }
}

/// A live snapshot holding `rows` as open visits.
fn live_snapshot(rows: &[SemanticTrajectory]) -> LiveSnapshot {
    LiveSnapshot::new((0..).map(VisitKey).zip(rows.iter().cloned()).collect())
}

/// `rows` as the byte sinks append them.
fn encoded(rows: &[SemanticTrajectory]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for t in rows {
        sitm_store::encode_trajectory(&mut bytes, t);
    }
    bytes
}
