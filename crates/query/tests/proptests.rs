//! Property tests: the query engine must be indistinguishable from a
//! naive full scan, for arbitrary collections and arbitrary predicates.

use proptest::prelude::*;

use sitm_core::{
    Annotation, AnnotationSet, Duration, PresenceInterval, SemanticTrajectory, TimeInterval,
    Timestamp, Trace, TransitionTaken,
};
use sitm_graph::{CellRef, LayerIdx, NodeId};
use sitm_query::{Entry, IntervalTree, Predicate, Query, SortKey, TrajectoryDb};

fn cell(n: usize) -> CellRef {
    CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
}

const GOALS: [&str; 3] = ["visit", "buy", "exit"];

/// One synthetic trajectory: stays walk forward in time over cells 0..6.
fn trajectory_strategy() -> impl Strategy<Value = SemanticTrajectory> {
    (
        0u8..5,              // moving-object pool
        0usize..GOALS.len(), // goal
        0i64..500,           // start time
        prop::collection::vec((0usize..6, 0i64..30, 0u8..3), 1..8),
    )
        .prop_map(|(mo, goal, start, stays)| {
            let mut t = start;
            let mut intervals = Vec::with_capacity(stays.len());
            for (c, dur, ann) in stays {
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
                t = end;
            }
            SemanticTrajectory::new(
                format!("mo-{mo}"),
                Trace::new(intervals).expect("strategy emits ordered stays"),
                AnnotationSet::from_iter([Annotation::goal(GOALS[goal])]),
            )
            .expect("non-empty trace and annotations")
        })
}

/// Random predicates over the same universe the trajectories draw from.
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
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(|p| p.not()),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Predicate::And),
            prop::collection::vec(inner, 0..4).prop_map(Predicate::Or),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The engine's results equal a naive full scan, id for id.
    #[test]
    fn execute_equals_full_scan(
        trajs in prop::collection::vec(trajectory_strategy(), 0..16),
        pred in predicate_strategy(),
    ) {
        let naive: Vec<u32> = trajs
            .iter()
            .enumerate()
            .filter(|(_, t)| pred.matches(t))
            .map(|(i, _)| i as u32)
            .collect();
        let db = TrajectoryDb::build(trajs);
        let got: Vec<u32> = Query::new()
            .filter(pred.clone())
            .execute(&db)
            .iter()
            .map(|m| m.id)
            .collect();
        prop_assert_eq!(&got, &naive, "predicate {}", pred);
        prop_assert_eq!(Query::new().filter(pred).count(&db), naive.len());
    }

    /// Candidate sets never lose a matching trajectory (index soundness).
    #[test]
    fn candidates_are_supersets(
        trajs in prop::collection::vec(trajectory_strategy(), 0..16),
        pred in predicate_strategy(),
    ) {
        let db = TrajectoryDb::build(trajs);
        let cand = db.candidates(&pred);
        for (i, t) in db.iter().enumerate() {
            if pred.matches(t) {
                match &cand {
                    sitm_query::CandidateSet::All => {}
                    sitm_query::CandidateSet::Ids(ids) => prop_assert!(
                        ids.contains(&(i as u32)),
                        "lost match {} for {}", i, pred
                    ),
                }
            }
        }
        // Id lists must be sorted and duplicate-free.
        if let sitm_query::CandidateSet::Ids(ids) = &cand {
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// The interval tree agrees with a naive scan for arbitrary windows.
    #[test]
    fn interval_tree_equals_naive(
        items in prop::collection::vec((0i64..200, 0i64..50), 0..64),
        window in (0i64..250, 0i64..60),
    ) {
        let entries: Vec<Entry<usize>> = items
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| Entry {
                interval: TimeInterval::new(Timestamp(s), Timestamp(s + d)),
                payload: i,
            })
            .collect();
        let tree = IntervalTree::build(entries);
        let w = TimeInterval::new(Timestamp(window.0), Timestamp(window.0 + window.1));
        let mut got = tree.overlapping(w);
        got.sort_unstable();
        let naive: Vec<usize> = items
            .iter()
            .enumerate()
            .filter(|(_, &(s, d))| {
                TimeInterval::new(Timestamp(s), Timestamp(s + d)).overlaps(w)
            })
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(&got, &naive);
        prop_assert_eq!(tree.any_overlapping(w), !naive.is_empty());
        // Stabbing is the degenerate window.
        let mut stabbed = tree.stab(w.start);
        stabbed.sort_unstable();
        let naive_stab: Vec<usize> = items
            .iter()
            .enumerate()
            .filter(|(_, &(s, d))| s <= w.start.0 && w.start.0 <= s + d)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(stabbed, naive_stab);
    }

    /// Sorting is a permutation of the unsorted result, and paging is a
    /// window of the sorted result.
    #[test]
    fn sort_and_page_are_consistent(
        trajs in prop::collection::vec(trajectory_strategy(), 0..16),
        offset in 0usize..8,
        limit in 0usize..8,
    ) {
        let db = TrajectoryDb::build(trajs);
        let all: Vec<u32> = Query::new().execute(&db).iter().map(|m| m.id).collect();
        let sorted: Vec<u32> = Query::new()
            .order_by(SortKey::TotalDwell, true)
            .execute(&db)
            .iter()
            .map(|m| m.id)
            .collect();
        let mut a = all.clone();
        let mut b = sorted.clone();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b, "sorting must not add or drop rows");
        let paged: Vec<u32> = Query::new()
            .order_by(SortKey::TotalDwell, true)
            .offset(offset)
            .limit(limit)
            .execute(&db)
            .iter()
            .map(|m| m.id)
            .collect();
        let expect: Vec<u32> = sorted.into_iter().skip(offset).take(limit).collect();
        prop_assert_eq!(paged, expect);
    }
}
