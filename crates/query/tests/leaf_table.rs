//! The one leaf table through each index that implements it: the
//! in-memory postings (`TrajectoryDb`), a live snapshot
//! (`LiveSnapshot::new`, indexing the visits it is given) and a
//! one-segment warehouse (its object index, zone map and segment
//! postings). For every predicate shape over two trajectories, each
//! answer must be a sound superset of the scan, and the cases pin which
//! index narrows which leaf to what: the live tier keeps no annotation
//! postings and narrows a span window by start alone; the warehouse
//! prunes a segment its object index or zone map rules out, and answers
//! `All` when nothing it holds can narrow.

use std::path::PathBuf;

use sitm_core::{
    Annotation, AnnotationSet, Duration, PresenceInterval, SemanticTrajectory, TimeInterval,
    Timestamp, Trace, TransitionTaken,
};
use sitm_graph::{CellRef, LayerIdx, NodeId};
use sitm_query::{CandidateSet, Predicate, SegmentedDb, TrajId, TrajectoryDb};
use sitm_store::warehouse::WarehouseConfig;
use sitm_stream::{LiveSnapshot, VisitKey};

struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn cell(n: usize) -> CellRef {
    CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
}

fn traj(mo: &str, (c, s, e): (usize, i64, i64), goal: &str) -> SemanticTrajectory {
    let stay = PresenceInterval::new(
        TransitionTaken::Unknown,
        cell(c),
        Timestamp(s),
        Timestamp(e),
    );
    SemanticTrajectory::new(
        mo,
        Trace::new(vec![stay]).unwrap(),
        AnnotationSet::from_iter([Annotation::goal(goal)]),
    )
    .unwrap()
}

fn ids(list: &[TrajId]) -> CandidateSet {
    CandidateSet::Ids(list.to_vec())
}

#[test]
fn every_index_answers_each_leaf_through_the_one_table() {
    // Position 0 is "a", 1 is "b" in all three: built in this order,
    // keyed in this order, and sorted by span start in the segment.
    let trajs = vec![
        traj("a", (1, 0, 100), "visit"),
        traj("b", (2, 50, 300), "buy"),
    ];
    let db = TrajectoryDb::build(trajs.clone());
    let live = LiveSnapshot::new((0..).map(VisitKey).zip(trajs.iter().cloned()).collect());
    let tmp = TempDir(std::env::temp_dir().join(format!("sitm-leaf-table-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&tmp.0);
    let (mut warehouse, _) = SegmentedDb::open(&tmp.0, WarehouseConfig::default()).unwrap();
    warehouse.flush(trajs.clone()).unwrap();
    assert_eq!(warehouse.segments().len(), 1);

    use CandidateSet::All;
    let window = TimeInterval::new(Timestamp(0), Timestamp(400));
    let later = TimeInterval::new(Timestamp(500), Timestamp(600));
    // (predicate, [in-memory, live, warehouse]).
    let cases: Vec<(Predicate, [CandidateSet; 3])> = vec![
        (Predicate::True, [All, All, All]),
        (
            Predicate::VisitedCell(cell(1)),
            [ids(&[0]), ids(&[0]), ids(&[0])],
        ),
        (
            Predicate::VisitedCell(cell(9)),
            [ids(&[]), ids(&[]), ids(&[])],
        ),
        (
            Predicate::SequenceContains(vec![cell(1), cell(9)]),
            [ids(&[]), ids(&[]), ids(&[])],
        ),
        (
            Predicate::SpanOverlaps(window),
            [ids(&[0, 1]), ids(&[0, 1]), ids(&[0, 1])],
        ),
        // Both open spans started by the window's end: they may still
        // grow into it.
        (
            Predicate::SpanOverlaps(later),
            [ids(&[]), ids(&[0, 1]), ids(&[])],
        ),
        (
            Predicate::StayOverlaps(cell(2), later),
            [ids(&[]), ids(&[1]), ids(&[])],
        ),
        (
            Predicate::StayOverlaps(cell(9), window),
            [ids(&[]), ids(&[]), ids(&[])],
        ),
        (
            Predicate::HasTrajAnnotation(Annotation::goal("visit")),
            [ids(&[0]), All, ids(&[0])],
        ),
        (
            Predicate::HasTrajAnnotation(Annotation::goal("nope")),
            [ids(&[]), All, ids(&[])],
        ),
        (
            Predicate::HasStayAnnotation(Annotation::goal("visit")),
            [ids(&[]), All, ids(&[])],
        ),
        (
            Predicate::MinTotalDwell(Duration::seconds(301)),
            [All, All, All],
        ),
        (
            Predicate::MinStayIn(cell(2), Duration::seconds(1_000)),
            [ids(&[1]), ids(&[1]), ids(&[])],
        ),
        (
            Predicate::MinStayIn(cell(9), Duration::seconds(1)),
            [ids(&[]), ids(&[]), ids(&[])],
        ),
        (
            Predicate::MovingObject("a".into()),
            [ids(&[0]), ids(&[0]), ids(&[0])],
        ),
        (
            Predicate::MovingObject("z".into()),
            [ids(&[]), ids(&[]), ids(&[])],
        ),
        (Predicate::VisitedCell(cell(9)).not(), [All, All, All]),
        (
            Predicate::VisitedCell(cell(1)).and(Predicate::MovingObject("z".into())),
            [ids(&[]), ids(&[]), ids(&[])],
        ),
        (
            Predicate::VisitedCell(cell(9)).or(Predicate::MovingObject("a".into())),
            [ids(&[0]), ids(&[0]), ids(&[0])],
        ),
        (
            Predicate::HasTrajAnnotation(Annotation::goal("buy"))
                .or(Predicate::MovingObject("a".into())),
            [ids(&[0, 1]), All, ids(&[0, 1])],
        ),
        (Predicate::Or(vec![]), [ids(&[]), ids(&[]), ids(&[])]),
    ];
    for (p, expected) in cases {
        let answers = [
            db.candidates(&p),
            live.candidates(&p),
            warehouse.candidates(&p),
        ];
        for (index, answer) in ["in-memory", "live", "warehouse"].iter().zip(&answers) {
            for (at, t) in trajs.iter().enumerate() {
                if let CandidateSet::Ids(ids) = answer {
                    assert!(
                        !p.matches(t) || ids.contains(&(at as TrajId)),
                        "the {index} index lost match {at} of {p}"
                    );
                }
            }
        }
        assert_eq!(answers, expected, "for {p}");
        assert_eq!(
            TrajectoryDb::can_narrow(&p),
            expected[0] != All,
            "can_narrow asks the empty collection, for {p}"
        );
    }
}
