//! Federated execution with full query semantics: sorted and limited
//! queries over unions of indexed and unindexed sources must equal the
//! oracle's naive union — and the index path must never change results.
//! (The random differential over every source kind is
//! `tests/one_executor.rs` at the workspace root.)

use sitm_core::{
    Annotation, AnnotationSet, Duration, PresenceInterval, SemanticTrajectory, TimeInterval,
    Timestamp, Trace, TransitionTaken,
};
use sitm_graph::{LayerIdx, NodeId};
use sitm_query::{
    federated_count, AccessPath, Predicate, Query, SortKey, TrajectoryDb, TrajectorySource,
};
use sitm_space::CellRef;

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
    let live_plan = q.explain(sources[0]);
    assert_eq!(live_plan.access, AccessPath::FullScan);
    assert_eq!(live_plan.total, 3);
    let db_plan = q.explain(sources[1]);
    assert_eq!(
        db_plan.access,
        AccessPath::IndexCandidates { candidates: 3 }
    );
    assert_eq!(db_plan.total, 4);
    assert!(db_plan.selectivity_bound() < 1.0);
}
