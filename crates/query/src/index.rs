//! Inverted and temporal indexes over a trajectory collection.
//!
//! [`TrajectoryDb`] owns a vector of [`SemanticTrajectory`]s plus the
//! secondary structures that make the predicate algebra cheap to evaluate:
//!
//! * **cell postings** — cell → sorted trajectory ids (the "where" axis);
//! * **annotation postings** — annotation → ids, separately for
//!   whole-trajectory `A_traj` and per-stay `A_i` (the "what" axis);
//! * **moving-object postings** — `IDmo` → ids;
//! * **span tree** — an [`IntervalTree`] over `[tstart, tend]` (the
//!   "when" axis);
//! * **per-cell stay trees** — cell → interval tree over that cell's
//!   stays, for `StayOverlaps` selections.
//!
//! These answer the predicate leaves through [`LeafLookup`], the one
//! leaf table every index shares. Index lookups return *candidate
//! supersets*; the engine always re-checks the full predicate against
//! each candidate, so a lookup only has to be sound, never
//! complete-in-itself.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use sitm_core::{Annotation, SemanticTrajectory, TimeInterval};
use sitm_graph::CellRef;

use crate::interval_tree::{Entry, IntervalTree};
use crate::predicate::{LeafLookup, Predicate};

/// Dense identifier of a trajectory inside a [`TrajectoryDb`].
pub type TrajId = u32;

/// A candidate set produced by index consultation: either "must scan
/// everything" or an explicit sorted id list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CandidateSet {
    /// The index cannot narrow this predicate; scan the collection.
    All,
    /// A sorted, duplicate-free superset of the matching ids.
    Ids(Vec<TrajId>),
}

impl CandidateSet {
    /// Number of candidates given the collection size.
    pub fn cardinality(&self, total: usize) -> usize {
        match self {
            CandidateSet::All => total,
            CandidateSet::Ids(ids) => ids.len(),
        }
    }

    /// The candidate positions inside `range`, ascending. `All` is the
    /// range itself, walked, never materialised.
    pub(crate) fn within(&self, range: Range<TrajId>) -> impl Iterator<Item = TrajId> + '_ {
        let (all, ids) = match self {
            CandidateSet::All => (range, &[][..]),
            CandidateSet::Ids(ids) => {
                let from = ids.partition_point(|&id| id < range.start);
                let len = ids[from..].partition_point(|&id| id < range.end);
                (0..0, &ids[from..from + len])
            }
        };
        all.chain(ids.iter().copied())
    }

    /// Set intersection (`All` is the identity).
    pub fn intersect(self, other: CandidateSet) -> CandidateSet {
        match (self, other) {
            (CandidateSet::All, c) | (c, CandidateSet::All) => c,
            (CandidateSet::Ids(a), CandidateSet::Ids(b)) => {
                let mut out = Vec::with_capacity(a.len().min(b.len()));
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    let (x, y) = (a[i], b[j]);
                    if x == y {
                        out.push(x);
                    }
                    i += usize::from(x <= y);
                    j += usize::from(y <= x);
                }
                CandidateSet::Ids(out)
            }
        }
    }

    /// Set union (`All` absorbs).
    pub fn union(self, other: CandidateSet) -> CandidateSet {
        match (self, other) {
            (CandidateSet::All, _) | (_, CandidateSet::All) => CandidateSet::All,
            (CandidateSet::Ids(a), CandidateSet::Ids(b)) => {
                let mut out = Vec::with_capacity(a.len() + b.len());
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    let (x, y) = (a[i], b[j]);
                    out.push(x.min(y));
                    i += usize::from(x <= y);
                    j += usize::from(y <= x);
                }
                out.extend_from_slice(&a[i..]);
                out.extend_from_slice(&b[j..]);
                CandidateSet::Ids(out)
            }
        }
    }
}

/// An indexed, immutable collection of semantic trajectories.
///
/// Storage is `Arc`-shared: [`TrajectoryDb::build_shared`] indexes a
/// collection *without copying it*, so a warehouse segment's single
/// decoded run can back both the segment cache and its postings.
#[derive(Debug, Clone, Default)]
pub struct TrajectoryDb {
    items: Arc<Vec<SemanticTrajectory>>,
    cell_postings: BTreeMap<CellRef, Vec<TrajId>>,
    traj_ann_postings: BTreeMap<Annotation, Vec<TrajId>>,
    stay_ann_postings: BTreeMap<Annotation, Vec<TrajId>>,
    object_postings: BTreeMap<String, Vec<TrajId>>,
    span_tree: IntervalTree<TrajId>,
    stay_trees: BTreeMap<CellRef, IntervalTree<TrajId>>,
}

/// Adds `id` to `key`'s posting list unless it ends it already. The key
/// is looked up by reference and owned only when it is new: hydrating
/// a segment whose rows share an annotation set or a moving object
/// allocates nothing for the keys it has already seen.
fn push_unique<K, Q>(postings: &mut BTreeMap<K, Vec<TrajId>>, key: &Q, id: TrajId)
where
    K: Borrow<Q> + Ord,
    Q: ToOwned<Owned = K> + Ord + ?Sized,
{
    match postings.get_mut(key) {
        Some(list) if list.last() == Some(&id) => {}
        Some(list) => list.push(id),
        None => {
            postings.insert(key.to_owned(), vec![id]);
        }
    }
}

impl TrajectoryDb {
    /// Builds the database, consuming the trajectories and constructing
    /// every secondary index in one pass (O(total stays · log)).
    pub fn build(items: Vec<SemanticTrajectory>) -> TrajectoryDb {
        TrajectoryDb::build_shared(Arc::new(items))
    }

    /// Builds the database over an already-shared collection: only the
    /// secondary indexes are constructed, the storage itself is the
    /// caller's `Arc` (zero trajectory copies).
    pub fn build_shared(items: Arc<Vec<SemanticTrajectory>>) -> TrajectoryDb {
        let mut cell_postings: BTreeMap<CellRef, Vec<TrajId>> = BTreeMap::new();
        let mut traj_ann_postings: BTreeMap<Annotation, Vec<TrajId>> = BTreeMap::new();
        let mut stay_ann_postings: BTreeMap<Annotation, Vec<TrajId>> = BTreeMap::new();
        let mut object_postings: BTreeMap<String, Vec<TrajId>> = BTreeMap::new();
        let mut span_entries = Vec::with_capacity(items.len());
        let mut stay_entries: BTreeMap<CellRef, Vec<Entry<TrajId>>> = BTreeMap::new();

        for (i, t) in items.iter().enumerate() {
            let id = i as TrajId;
            span_entries.push(Entry {
                interval: t.span(),
                payload: id,
            });
            push_unique(&mut object_postings, t.moving_object.as_str(), id);
            for a in t.annotations().iter() {
                push_unique(&mut traj_ann_postings, a, id);
            }
            for stay in t.trace().intervals() {
                push_unique(&mut cell_postings, &stay.cell, id);
                stay_entries.entry(stay.cell).or_default().push(Entry {
                    interval: stay.time,
                    payload: id,
                });
                for a in stay.annotations.iter() {
                    push_unique(&mut stay_ann_postings, a, id);
                }
            }
        }

        TrajectoryDb {
            items,
            cell_postings,
            traj_ann_postings,
            stay_ann_postings,
            object_postings,
            span_tree: IntervalTree::build(span_entries),
            stay_trees: stay_entries
                .into_iter()
                .map(|(cell, entries)| (cell, IntervalTree::build(entries)))
                .collect(),
        }
    }

    /// Number of trajectories.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Trajectory by id.
    pub fn get(&self, id: TrajId) -> Option<&SemanticTrajectory> {
        self.items.get(id as usize)
    }

    /// All trajectories in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &SemanticTrajectory> {
        self.items.iter()
    }

    /// Underlying storage.
    pub fn trajectories(&self) -> &[SemanticTrajectory] {
        &self.items
    }

    /// Distinct cells appearing in the collection.
    pub fn cells(&self) -> impl Iterator<Item = CellRef> + '_ {
        self.cell_postings.keys().copied()
    }

    /// Ids of trajectories with at least one stay in `cell`.
    pub fn with_cell(&self, cell: CellRef) -> &[TrajId] {
        self.cell_postings.get(&cell).map_or(&[], Vec::as_slice)
    }

    /// Ids of trajectories whose span overlaps `window` (sorted).
    pub fn spans_overlapping(&self, window: TimeInterval) -> Vec<TrajId> {
        let mut ids = self.span_tree.overlapping(window);
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Derives a candidate superset for `p` from the indexes: the
    /// shared boolean walk ([`Predicate::narrow`]) over this
    /// collection's [`LeafLookup`]s.
    ///
    /// Soundness invariant (property-tested): every trajectory matching
    /// `p` is in the returned set. The set may contain non-matches; the
    /// engine re-filters.
    pub fn candidates(&self, p: &Predicate) -> CandidateSet {
        p.narrow(self)
    }

    /// Can a [`TrajectoryDb`]'s indexes narrow `p` at all? `false`
    /// means [`TrajectoryDb::candidates`] answers [`CandidateSet::All`]
    /// over *any* collection, so consulting one (and, for a warehouse
    /// segment, hydrating it to do so) is pure waste. Asked of the
    /// empty collection, where every indexed leaf is an empty posting
    /// and every other leaf is `All` — the decision cannot drift from
    /// the lookups because it *is* the lookups.
    pub fn can_narrow(p: &Predicate) -> bool {
        static EMPTY: OnceLock<TrajectoryDb> = OnceLock::new();
        EMPTY.get_or_init(TrajectoryDb::default).candidates(p) != CandidateSet::All
    }
}

/// Every leaf but a dwell bound answers from a posting or a tree.
impl LeafLookup for TrajectoryDb {
    fn cell(&self, cell: CellRef) -> CandidateSet {
        CandidateSet::Ids(self.with_cell(cell).to_vec())
    }

    fn span(&self, window: TimeInterval) -> CandidateSet {
        CandidateSet::Ids(self.spans_overlapping(window))
    }

    /// The cell's own stay tree, not the cell and span answers.
    fn stay(&self, cell: CellRef, window: TimeInterval) -> CandidateSet {
        let mut ids = self
            .stay_trees
            .get(&cell)
            .map_or_else(Vec::new, |tree| tree.overlapping(window));
        ids.sort_unstable();
        ids.dedup();
        CandidateSet::Ids(ids)
    }

    fn traj_annotation(&self, annotation: &Annotation) -> CandidateSet {
        CandidateSet::Ids(
            self.traj_ann_postings
                .get(annotation)
                .cloned()
                .unwrap_or_default(),
        )
    }

    fn stay_annotation(&self, annotation: &Annotation) -> CandidateSet {
        CandidateSet::Ids(
            self.stay_ann_postings
                .get(annotation)
                .cloned()
                .unwrap_or_default(),
        )
    }

    fn moving_object(&self, id: &str) -> CandidateSet {
        CandidateSet::Ids(self.object_postings.get(id).cloned().unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_core::{AnnotationSet, PresenceInterval, Timestamp, Trace, TransitionTaken};
    use sitm_graph::{LayerIdx, NodeId};

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

    fn db() -> TrajectoryDb {
        TrajectoryDb::build(vec![
            traj("a", &[(0, 0, 10), (1, 10, 20)], "visit"),
            traj("b", &[(1, 5, 15), (2, 15, 30)], "visit"),
            traj("c", &[(2, 100, 200)], "buy"),
        ])
    }

    #[test]
    fn postings_are_sorted_and_deduped() {
        let db = TrajectoryDb::build(vec![
            traj("a", &[(0, 0, 5), (1, 5, 6), (0, 6, 9)], "visit"),
            traj("b", &[(0, 0, 3)], "visit"),
        ]);
        assert_eq!(db.with_cell(cell(0)), &[0, 1]);
        assert_eq!(db.with_cell(cell(1)), &[0]);
        assert!(db.with_cell(cell(7)).is_empty());
    }

    #[test]
    fn span_tree_narrows_by_time() {
        let db = db();
        assert_eq!(
            db.spans_overlapping(TimeInterval::new(Timestamp(0), Timestamp(4))),
            vec![0]
        );
        assert_eq!(
            db.spans_overlapping(TimeInterval::new(Timestamp(12), Timestamp(40))),
            vec![0, 1]
        );
        assert_eq!(
            db.spans_overlapping(TimeInterval::new(Timestamp(31), Timestamp(99))),
            Vec::<TrajId>::new()
        );
    }

    #[test]
    fn candidate_sets_are_sound_supersets() {
        let db = db();
        let preds = [
            Predicate::VisitedCell(cell(1)),
            Predicate::HasTrajAnnotation(Annotation::goal("buy")),
            Predicate::MovingObject("b".into()),
            Predicate::SpanOverlaps(TimeInterval::new(Timestamp(0), Timestamp(16))),
            Predicate::StayOverlaps(cell(2), TimeInterval::new(Timestamp(16), Timestamp(20))),
            Predicate::VisitedCell(cell(1)).and(Predicate::MovingObject("a".into())),
            Predicate::VisitedCell(cell(0)).or(Predicate::VisitedCell(cell(2))),
            Predicate::VisitedCell(cell(0)).not(),
        ];
        for p in preds {
            let cand = db.candidates(&p);
            for (i, t) in db.iter().enumerate() {
                if p.matches(t) {
                    match &cand {
                        CandidateSet::All => {}
                        CandidateSet::Ids(ids) => assert!(
                            ids.contains(&(i as TrajId)),
                            "candidate set for {p} lost matching trajectory {i}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn and_intersects_or_unions() {
        let db = db();
        let p = Predicate::VisitedCell(cell(1)).and(Predicate::VisitedCell(cell(2)));
        assert_eq!(db.candidates(&p), CandidateSet::Ids(vec![1]));
        let q = Predicate::VisitedCell(cell(0)).or(Predicate::VisitedCell(cell(2)));
        assert_eq!(db.candidates(&q), CandidateSet::Ids(vec![0, 1, 2]));
        // Or with an un-indexable arm degrades to All.
        let r = Predicate::VisitedCell(cell(0)).or(Predicate::True);
        assert_eq!(db.candidates(&r), CandidateSet::All);
        // Empty Or matches nothing.
        assert_eq!(
            db.candidates(&Predicate::Or(vec![])),
            CandidateSet::Ids(vec![])
        );
    }

    #[test]
    fn candidate_set_algebra() {
        let a = CandidateSet::Ids(vec![1, 2, 3]);
        let b = CandidateSet::Ids(vec![2, 3, 4]);
        assert_eq!(
            a.clone().intersect(b.clone()),
            CandidateSet::Ids(vec![2, 3])
        );
        assert_eq!(a.clone().union(b), CandidateSet::Ids(vec![1, 2, 3, 4]));
        assert_eq!(a.clone().intersect(CandidateSet::All), a);
        assert_eq!(a.clone().union(CandidateSet::All), CandidateSet::All);
        assert_eq!(a.cardinality(10), 3);
        assert_eq!(CandidateSet::All.cardinality(10), 10);
    }

    #[test]
    fn lookup_and_iteration() {
        let db = db();
        assert_eq!(db.len(), 3);
        assert!(!db.is_empty());
        assert_eq!(db.get(2).unwrap().moving_object, "c");
        assert!(db.get(3).is_none());
        assert_eq!(db.iter().count(), 3);
        assert_eq!(db.cells().count(), 3);
        assert_eq!(db.trajectories().len(), 3);
    }

    #[test]
    fn empty_db() {
        let db = TrajectoryDb::build(vec![]);
        assert!(db.is_empty());
        assert_eq!(
            db.candidates(&Predicate::VisitedCell(cell(0))),
            CandidateSet::Ids(vec![])
        );
        assert_eq!(
            db.spans_overlapping(TimeInterval::new(Timestamp(0), Timestamp(1))),
            Vec::<TrajId>::new()
        );
    }
}
