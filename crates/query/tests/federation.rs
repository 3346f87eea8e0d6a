//! Federated execution with full query semantics: sorted and limited
//! queries over unions of indexed and unindexed sources must equal the
//! oracle's naive union — and the index path must never change results.
//! (The random differential over every source kind is
//! `tests/one_executor.rs` at the workspace root; the one here walks a
//! live snapshot beside a warehouse page by page under `True`, whose
//! offset the core skips by position.)

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use sitm_core::{
    Annotation, AnnotationSet, Duration, PresenceInterval, SemanticTrajectory, TimeInterval,
    Timestamp, Trace, TransitionTaken,
};
use sitm_graph::{CellRef, LayerIdx, NodeId};
use sitm_query::{
    federated_count, Predicate, Query, SegmentedDb, SortKey, TrajId, TrajectoryDb, TrajectorySource,
};
use sitm_store::warehouse::WarehouseConfig;
use sitm_stream::{LiveSnapshot, VisitKey};

static NEXT: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("sitm-fedprop-{}-{n}", std::process::id()));
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

fn traj(mo: &str, stays: &[(usize, i64, i64)], goal: &str) -> SemanticTrajectory {
    let intervals = stays
        .iter()
        .map(|&(c, s, e)| {
            PresenceInterval::new(
                TransitionTaken::Unknown,
                cell(c),
                Timestamp(s),
                Timestamp(e),
            )
        })
        .collect();
    SemanticTrajectory::new(
        mo,
        Trace::new(intervals).unwrap(),
        AnnotationSet::from_iter([Annotation::goal(goal)]),
    )
    .unwrap()
}

fn warehouse() -> TrajectoryDb {
    TrajectoryDb::build(vec![
        traj("w-a", &[(0, 0, 10), (1, 10, 20)], "visit"),
        traj("w-b", &[(1, 5, 15), (2, 15, 30)], "visit"),
        traj("w-c", &[(2, 100, 200)], "buy"),
        traj("w-d", &[(0, 50, 80), (1, 80, 90), (2, 90, 95)], "visit"),
    ])
}

fn live() -> Vec<SemanticTrajectory> {
    vec![
        traj("l-a", &[(1, 40, 70)], "visit"),
        traj("l-b", &[(3, 0, 5)], "visit"),
        traj("l-c", &[(1, 8, 95), (2, 95, 99)], "buy"),
    ]
}

#[test]
fn sorted_and_limited_federated_queries_match_the_naive_union() {
    let db = warehouse();
    let live = live();
    let sources: Vec<&dyn TrajectorySource> = vec![&live, &db];

    let window = TimeInterval::new(Timestamp(0), Timestamp(45));
    let cases = [
        Query::new().visited(cell(1)).order_by(SortKey::Start, true),
        Query::new()
            .visited(cell(1))
            .order_by(SortKey::SpanDuration, false)
            .limit(2),
        Query::new()
            .goal("visit")
            .order_by(SortKey::MovingObject, true)
            .offset(2)
            .limit(3),
        Query::new().during(window).order_by(SortKey::End, false),
        // Unsorted with a limit: first-k in source order.
        Query::new().visited(cell(2)).limit(2),
    ];
    for q in cases {
        let got: Vec<String> = q
            .execute_federated(&sources)
            .into_iter()
            .map(|t| t.moving_object)
            .collect();
        // The federated tie rule: a stable sort, ties in source order.
        let want: Vec<String> = q
            .oracle(&sources, false)
            .iter()
            .map(|row| row.trajectory().moving_object.clone())
            .collect();
        assert!(!want.is_empty(), "query {q:?} selects something");
        assert_eq!(got, want, "query {q:?} diverged");
    }
}

#[test]
fn federated_primitives_agree_with_execute_federated() {
    let db = warehouse();
    let live = live();
    let sources: Vec<&dyn TrajectorySource> = vec![&live, &db];
    for p in [
        Predicate::VisitedCell(cell(1)),
        Predicate::HasTrajAnnotation(Annotation::goal("buy")),
        Predicate::MinStayIn(cell(1), Duration::seconds(30)),
        Predicate::MovingObject("l-b".into()),
        Predicate::VisitedCell(cell(3)).or(Predicate::VisitedCell(cell(0))),
    ] {
        let q = Query::new().filter(p.clone());
        let executed = q.execute_federated(&sources).len();
        assert_eq!(executed, federated_count(&p, &sources), "{p}");
        assert_eq!(executed, q.oracle(&sources, false).len(), "{p}");
    }
}

#[test]
fn explain_source_and_federated_explain_report_both_paths() {
    let db = warehouse();
    let live = live();
    let sources: Vec<&dyn TrajectorySource> = vec![&live, &db];
    let q = Query::new().visited(cell(2));
    assert_eq!(sources[0].plan(q.predicate()), None, "a full scan");
    assert_eq!(sources[0].len_hint(), 3);
    assert_eq!(sources[1].plan(q.predicate()), Some(3));
    assert_eq!(sources[1].len_hint(), 4);
}

const KEYS: [SortKey; 6] = [
    SortKey::Start,
    SortKey::End,
    SortKey::SpanDuration,
    SortKey::TotalDwell,
    SortKey::MovingObject,
    SortKey::TraceLength,
];

/// A small trajectory whose keys collide often: one of four objects,
/// 1–3 back-to-back stays of 0–9 s from a start in 0..40.
fn small_strategy() -> impl Strategy<Value = SemanticTrajectory> {
    (
        0u8..4,
        0i64..40,
        prop::collection::vec((0usize..4, 0i64..10), 1..4),
    )
        .prop_map(|(mo, start, stays)| {
            let mut at = start;
            let intervals: Vec<(usize, i64, i64)> = stays
                .into_iter()
                .map(|(c, d)| {
                    at += d;
                    (c, at - d, at)
                })
                .collect();
            traj(&format!("mo-{mo}"), &intervals, "visit")
        })
}

/// A live snapshot holding `rows` as open visits.
fn live_snapshot(rows: &[SemanticTrajectory]) -> LiveSnapshot {
    LiveSnapshot::new((0..).map(VisitKey).zip(rows.iter().cloned()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The federated twin of `true_pages_skip_by_position_and_equal_the_oracle`
    /// (`tests/segmented_proptests.rs`): a walk under `True` over a live
    /// snapshot beside a warehouse — unsorted, or by any key either way
    /// with ties in source order — is the oracle's page from both sinks
    /// at every offset (0, mid-run, the last page, exactly the total,
    /// past it) and limit (none, 0, `n`), whether the warehouse is
    /// hydrated, mixed or cold.
    #[test]
    fn federated_true_pages_skip_by_position_and_equal_the_oracle(
        live_rows in prop::collection::vec(small_strategy(), 0..10),
        stored in prop::collection::vec(small_strategy(), 0..40),
        split in 0usize..40,
        n in 1usize..9,
    ) {
        let tmp = TempDir::new();
        {
            let (mut db, _) = SegmentedDb::open(&tmp.0, WarehouseConfig::default()).expect("open");
            let (first, second) = stored.split_at(split.min(stored.len()));
            for batch in [first, second] {
                db.flush(batch.to_vec()).expect("flush");
            }
        }
        let reopen = || SegmentedDb::open(&tmp.0, WarehouseConfig::default()).expect("reopen").0;
        let hydrated = reopen();
        for segment in hydrated.segments() {
            segment.trajectories().expect("hydrate");
        }
        let mixed = reopen();
        for segment in mixed.segments().iter().take(1) {
            segment.trajectories().expect("hydrate");
        }
        let cold = reopen();
        let live = live_snapshot(&live_rows);
        // The oracle reads the warehouse's rows, in its order, from memory.
        let reference = TrajectoryDb::build(
            (0..hydrated.len() as TrajId).map(|at| hydrated.row(at).into_owned()).collect(),
        );
        let total = live_rows.len() + stored.len();
        let last_page = total.saturating_sub(1) / n * n;
        let mut orders = vec![None];
        for key in KEYS {
            orders.extend([Some((key, true)), Some((key, false))]);
        }
        for order in orders {
            for offset in [0, total / 2, last_page, total, total + 3] {
                for limit in [None, Some(0), Some(n)] {
                    let mut q = Query::new().offset(offset);
                    if let Some((key, ascending)) = order {
                        q = q.order_by(key, ascending);
                    }
                    if let Some(n) = limit {
                        q = q.limit(n);
                    }
                    let eager: Vec<SemanticTrajectory> = q
                        .oracle(&[&live, &reference], false)
                        .into_iter()
                        .map(|row| row.into_owned())
                        .collect();
                    let mut eager_bytes = Vec::new();
                    for t in &eager {
                        sitm_store::encode_trajectory(&mut eager_bytes, t);
                    }
                    for (state, db) in [("hydrated", &hydrated), ("mixed", &mixed), ("cold", &cold)] {
                        let sources: [&dyn TrajectorySource; 2] = [&live, db];
                        prop_assert_eq!(&q.execute_federated(&sources), &eager, "{}: {:?}", state, q);
                        let mut bytes = Vec::new();
                        prop_assert_eq!(q.execute_federated_encoded(&sources, &mut bytes), eager.len());
                        prop_assert_eq!(&bytes, &eager_bytes, "{} byte sink: {:?}", state, q);
                    }
                }
            }
        }
        prop_assert!(
            cold.segments().iter().all(|segment| !segment.is_loaded()),
            "a page under True hydrated a cold segment"
        );
    }
}
