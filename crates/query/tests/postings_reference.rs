//! The flat postings of `TrajectoryDb` (dense keys, counting-sorted
//! id arrays, per-cell stay trees as slices of one stay table, object
//! postings searched through the rows) against a naive reference kept
//! here: one ordered map per leaf, filled row by row. For random
//! collections — a cell repeated within a row, two layers, named
//! transitions, stay annotations, objects shared between rows — every
//! `LeafLookup` answer must equal the reference's, for keys present
//! and absent, and the empty collection that `TrajectoryDb::can_narrow`
//! asks must answer every indexed leaf with no candidates.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use sitm_core::{
    Annotation, AnnotationSet, Duration, PresenceInterval, SemanticTrajectory, TimeInterval,
    Timestamp, Trace, TransitionTaken,
};
use sitm_graph::{CellRef, LayerIdx, NodeId};
use sitm_query::{CandidateSet, LeafLookup, Predicate, TrajId, TrajectoryDb};

fn cell(layer: usize, node: usize) -> CellRef {
    CellRef::new(LayerIdx::from_index(layer), NodeId::from_index(node))
}

const GOALS: [&str; 3] = ["visit", "buy", "exit"];

/// One trajectory over cells `0..5` of one of two layers (a trace keeps
/// to one layer): its stays may revisit a cell, overlap, and carry a
/// named transition and a goal.
fn trajectory_strategy() -> impl Strategy<Value = SemanticTrajectory> {
    (
        0u8..4,              // moving-object pool: rows share objects
        0usize..GOALS.len(), // whole-trajectory goal
        prop::option::of(0usize..GOALS.len()),
        0i64..300,
        0usize..2,
        prop::collection::vec((0usize..5, 0i64..40, 0u8..4, 0i64..20, any::<bool>()), 1..7),
    )
        .prop_map(|(mo, goal, second_goal, start, layer, stays)| {
            let mut t = start;
            let mut intervals = Vec::with_capacity(stays.len());
            for (node, dur, ann, overlap, named) in stays {
                let transition = if named {
                    TransitionTaken::Named(format!("door{node}"))
                } else {
                    TransitionTaken::Unknown
                };
                let mut stay = PresenceInterval::new(
                    transition,
                    cell(layer, node),
                    Timestamp(t),
                    Timestamp(t + dur),
                );
                if ann > 0 {
                    stay.annotations
                        .insert(Annotation::goal(GOALS[ann as usize - 1]));
                }
                if ann == 3 {
                    stay.annotations.insert(Annotation::activity("browse"));
                }
                intervals.push(stay);
                t = (t + dur - overlap).max(t);
            }
            let mut annotations = vec![Annotation::goal(GOALS[goal])];
            annotations.extend(second_goal.map(|g| Annotation::activity(GOALS[g])));
            SemanticTrajectory::new(
                format!("mo-{mo}"),
                Trace::new(intervals).expect("ordered stays"),
                AnnotationSet::from_iter(annotations),
            )
            .expect("non-empty trace and annotations")
        })
}

/// The reference: each leaf's answer as an ordered map from key to
/// ids, filled row by row.
#[derive(Default)]
struct Reference {
    cells: BTreeMap<CellRef, BTreeSet<TrajId>>,
    traj_annotations: BTreeMap<Annotation, BTreeSet<TrajId>>,
    stay_annotations: BTreeMap<Annotation, BTreeSet<TrajId>>,
    objects: BTreeMap<String, BTreeSet<TrajId>>,
}

impl Reference {
    fn new(rows: &[SemanticTrajectory]) -> Reference {
        let mut reference = Reference::default();
        for (i, t) in rows.iter().enumerate() {
            let id = i as TrajId;
            reference
                .objects
                .entry(t.moving_object.clone())
                .or_default()
                .insert(id);
            for a in t.annotations().iter() {
                reference
                    .traj_annotations
                    .entry(a.clone())
                    .or_default()
                    .insert(id);
            }
            for stay in t.trace().intervals() {
                reference.cells.entry(stay.cell).or_default().insert(id);
                for a in stay.annotations.iter() {
                    reference
                        .stay_annotations
                        .entry(a.clone())
                        .or_default()
                        .insert(id);
                }
            }
        }
        reference
    }
}

/// A reference posting as the lookups answer it.
fn ids(set: Option<&BTreeSet<TrajId>>) -> CandidateSet {
    CandidateSet::Ids(set.into_iter().flatten().copied().collect())
}

/// The ids of `rows` that `keep` holds for, ascending.
fn scan(rows: &[SemanticTrajectory], keep: impl Fn(&SemanticTrajectory) -> bool) -> CandidateSet {
    CandidateSet::Ids(
        rows.iter()
            .enumerate()
            .filter(|(_, t)| keep(t))
            .map(|(i, _)| i as TrajId)
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_lookup_equals_the_map_reference(
        rows in prop::collection::vec(trajectory_strategy(), 0..40),
        windows in prop::collection::vec((0i64..400, 0i64..80), 1..6),
    ) {
        let db = TrajectoryDb::build(rows.clone());
        let reference = Reference::new(&rows);
        prop_assert_eq!(
            db.cells().collect::<Vec<_>>(),
            reference.cells.keys().copied().collect::<Vec<_>>()
        );
        let windows: Vec<TimeInterval> = windows
            .into_iter()
            .map(|(s, d)| TimeInterval::new(Timestamp(s), Timestamp(s + d)))
            .collect();
        // Every cell of both layers, present or not.
        for c in (0..2).flat_map(|layer| (0..6).map(move |node| cell(layer, node))) {
            let want = ids(reference.cells.get(&c));
            prop_assert_eq!(db.cell(c), want.clone(), "cell {:?}", c);
            let listed: Vec<TrajId> = db.with_cell(c).to_vec();
            prop_assert_eq!(CandidateSet::Ids(listed), want.clone(), "with_cell {:?}", c);
            prop_assert_eq!(db.min_stay(c, Duration::seconds(5)), want, "min_stay {:?}", c);
            for &window in &windows {
                let stayed = |t: &SemanticTrajectory| {
                    t.trace()
                        .intervals()
                        .iter()
                        .any(|s| s.cell == c && s.time.overlaps(window))
                };
                prop_assert_eq!(db.stay(c, window), scan(&rows, stayed), "stay {:?} {:?}", c, window);
            }
        }
        for &window in &windows {
            let want = scan(&rows, |t| t.span().overlaps(window));
            prop_assert_eq!(db.span(window), want, "span {:?}", window);
        }
        let annotations = GOALS
            .iter()
            .flat_map(|g| [Annotation::goal(*g), Annotation::activity(*g)])
            .chain([Annotation::activity("browse"), Annotation::goal("absent")]);
        for a in annotations {
            prop_assert_eq!(
                db.traj_annotation(&a),
                ids(reference.traj_annotations.get(&a)),
                "traj annotation {}", a
            );
            prop_assert_eq!(
                db.stay_annotation(&a),
                ids(reference.stay_annotations.get(&a)),
                "stay annotation {}", a
            );
        }
        for object in (0..5).map(|m| format!("mo-{m}")).chain(["".into(), "mo".into(), "mo-3x".into()]) {
            prop_assert_eq!(
                db.moving_object(&object),
                ids(reference.objects.get(&object)),
                "object {}", object
            );
        }
    }
}

#[test]
fn the_empty_collection_answers_every_indexed_leaf_with_no_candidates() {
    let none = CandidateSet::Ids(Vec::new());
    let window = TimeInterval::new(Timestamp(0), Timestamp(100));
    for db in [TrajectoryDb::default(), TrajectoryDb::build(Vec::new())] {
        assert_eq!(db.cells().count(), 0);
        assert!(db.with_cell(cell(0, 0)).is_empty());
        assert_eq!(db.cell(cell(0, 0)), none);
        assert_eq!(db.span(window), none);
        assert_eq!(db.stay(cell(0, 0), window), none);
        assert_eq!(db.min_stay(cell(0, 0), Duration::seconds(1)), none);
        assert_eq!(db.traj_annotation(&Annotation::goal("visit")), none);
        assert_eq!(db.stay_annotation(&Annotation::goal("visit")), none);
        assert_eq!(db.moving_object("mo-0"), none);
    }
    // What `can_narrow` concludes from those answers.
    assert!(TrajectoryDb::can_narrow(&Predicate::VisitedCell(cell(
        0, 0
    ))));
    assert!(TrajectoryDb::can_narrow(&Predicate::MovingObject(
        "mo-0".into()
    )));
    assert!(!TrajectoryDb::can_narrow(&Predicate::True));
    assert!(!TrajectoryDb::can_narrow(&Predicate::MinTotalDwell(
        Duration::seconds(1)
    )));
}
