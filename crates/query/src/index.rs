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
//! Every posting is a slice of a flat array, built in a fixed number
//! of passes with no per-key allocation: a warehouse segment builds
//! these on its first contact with a query, so the build is on the
//! path of the first answer after a restart.
//!
//! These answer the predicate leaves through [`LeafLookup`], the one
//! leaf table every index shares. Index lookups return *candidate
//! supersets*; the engine always re-checks the full predicate against
//! each candidate, so a lookup only has to be sound, never
//! complete-in-itself.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use sitm_core::{Annotation, SemanticTrajectory, TimeInterval, Timestamp};
use sitm_graph::CellRef;

use crate::interval_tree::{collect_overlapping, fill_max_ends, Entry, IntervalTree};
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
        let (all, ids) = match self.ids_within(range.clone()) {
            None => (range, &[][..]),
            Some(ids) => (0..0, ids),
        };
        all.chain(ids.iter().copied())
    }

    /// The ids inside `range`, as a slice of the list; `None` for
    /// `All`, which is the whole range.
    pub(crate) fn ids_within(&self, range: Range<TrajId>) -> Option<&[TrajId]> {
        let CandidateSet::Ids(ids) = self else {
            return None;
        };
        let from = ids.partition_point(|&id| id < range.start);
        let len = ids[from..].partition_point(|&id| id < range.end);
        Some(&ids[from..from + len])
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
///
/// The indexes are flat. Each distinct cell and annotation has a dense
/// id (its rank among the distinct keys), and a counting sort lays
/// every key's ids out in one array with an offset per key — the
/// compressed-sparse-row form. A cell's stay tree is its slice of one
/// stay table, sorted by `(start, end)` with the subtree maxima beside
/// it. The moving-object postings keep no strings: they are the row
/// ids sorted by a hash of the rows' own moving objects, so a lookup
/// binary-searches a flat array and reads only the rows whose hash it
/// hits.
#[derive(Debug, Clone, Default)]
pub struct TrajectoryDb {
    items: Arc<Vec<SemanticTrajectory>>,
    cell_postings: Postings<CellRef>,
    traj_ann_postings: Postings<Annotation>,
    stay_ann_postings: Postings<Annotation>,
    /// `(object_hash(moving object), id)` of every row, ascending.
    by_object: Vec<(u64, TrajId)>,
    span_tree: IntervalTree<TrajId>,
    /// Cell `d`'s stays (dense ids as in `cell_postings`) are
    /// `stays[stay_offsets[d]..stay_offsets[d + 1]]`, one interval tree
    /// per slice, its subtree maxima the same slice of `stay_max_end`.
    stay_offsets: Vec<usize>,
    stays: Vec<Entry<TrajId>>,
    stay_max_end: Vec<Timestamp>,
}

/// Posting lists in compressed-sparse-row form: `keys[d]`'s ids are
/// `ids[offsets[d]..offsets[d + 1]]`, ascending and duplicate-free, and
/// `keys` ascends.
#[derive(Debug, Clone)]
struct Postings<K> {
    keys: Vec<K>,
    offsets: Vec<usize>,
    ids: Vec<TrajId>,
}

impl<K> Default for Postings<K> {
    fn default() -> Self {
        Postings {
            keys: Vec::new(),
            offsets: vec![0],
            ids: Vec::new(),
        }
    }
}

impl<K: Ord> Postings<K> {
    /// The dense id of `key`, if any row holds it.
    fn rank(&self, key: &K) -> Option<usize> {
        self.keys.binary_search(key).ok()
    }

    /// The ids of the rows holding `key`.
    fn get(&self, key: &K) -> &[TrajId] {
        self.rank(key)
            .map_or(&[], |d| &self.ids[self.offsets[d]..self.offsets[d + 1]])
    }
}

/// The hash the object postings are ordered by: `DefaultHasher::new`
/// starts from fixed keys, so a row and a lookup of the same object
/// always meet. Equal hashes of different objects only cost a lookup a
/// string compare per row; nothing is stored by it.
fn object_hash(object: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    object.hash(&mut hasher);
    hasher.finish()
}

/// The distinct keys a build meets, each with a dense id in
/// first-seen order. Keys are borrowed from the rows while building.
struct Dense<K> {
    ids: HashMap<K, u32>,
    seen: Vec<K>,
}

impl<K: Hash + Ord + Copy> Dense<K> {
    fn new() -> Dense<K> {
        Dense {
            ids: HashMap::default(),
            seen: Vec::new(),
        }
    }

    fn id(&mut self, key: K) -> u32 {
        let seen = &mut self.seen;
        *self.ids.entry(key).or_insert_with(|| {
            seen.push(key);
            (seen.len() - 1) as u32
        })
    }

    /// The postings of `pairs` — `(dense id, row)`, rows ascending —
    /// keyed by `own` of each key, keys ascending. The dense ids in
    /// `pairs` are replaced by their keys' ranks, the ids the postings
    /// use: two passes of a counting sort, the first counting each key's
    /// distinct rows, the second placing them.
    fn postings<O>(self, pairs: &mut [(u32, TrajId)], own: impl Fn(K) -> O) -> Postings<O> {
        let mut ranked: Vec<(K, u32)> = self.seen.into_iter().zip(0..).collect();
        ranked.sort_unstable();
        let mut rank = vec![0u32; ranked.len()];
        for (r, &(_, d)) in ranked.iter().enumerate() {
            rank[d as usize] = r as u32;
        }
        let keys = ranked.len();
        let mut offsets = vec![0usize; keys + 1];
        let mut last = vec![TrajId::MAX; keys];
        for (key, row) in pairs.iter_mut() {
            *key = rank[*key as usize];
            let k = *key as usize;
            if last[k] != *row {
                last[k] = *row;
                offsets[k + 1] += 1;
            }
        }
        for k in 0..keys {
            offsets[k + 1] += offsets[k];
        }
        let mut ids = vec![0; offsets[keys]];
        let mut cursor = offsets[..keys].to_vec();
        last.fill(TrajId::MAX);
        for &(key, row) in pairs.iter() {
            let k = key as usize;
            if last[k] != row {
                last[k] = row;
                ids[cursor[k]] = row;
                cursor[k] += 1;
            }
        }
        Postings {
            keys: ranked.into_iter().map(|(key, _)| own(key)).collect(),
            offsets,
            ids,
        }
    }
}

impl TrajectoryDb {
    /// Builds the database, consuming the trajectories and constructing
    /// every secondary index (see [`TrajectoryDb::build_shared`]).
    pub fn build(items: Vec<SemanticTrajectory>) -> TrajectoryDb {
        TrajectoryDb::build_shared(Arc::new(items))
    }

    /// Builds the database over an already-shared collection: only the
    /// secondary indexes are constructed, the storage itself is the
    /// caller's `Arc` (zero trajectory copies).
    ///
    /// One pass over the rows gives every cell and annotation a dense
    /// id and records a `(key, row)` pair per stay and per annotation;
    /// a counting sort per posting kind turns the pairs into
    /// compressed rows, and a second counting sort lays the stays out
    /// by cell. Only the stay slices, the object order and the span
    /// tree are sorted, and a segment's run is already in start order.
    pub fn build_shared(items: Arc<Vec<SemanticTrajectory>>) -> TrajectoryDb {
        let stay_count: usize = items.iter().map(|t| t.trace().len()).sum();
        let mut cells = Dense::new();
        let mut traj_anns = Dense::new();
        let mut stay_anns = Dense::new();
        let mut cell_pairs = Vec::with_capacity(stay_count);
        let mut traj_ann_pairs = Vec::with_capacity(items.len());
        let mut stay_ann_pairs = Vec::new();
        let mut span_entries = Vec::with_capacity(items.len());
        let mut by_object = Vec::with_capacity(items.len());
        for (i, t) in items.iter().enumerate() {
            let id = i as TrajId;
            span_entries.push(Entry {
                interval: t.span(),
                payload: id,
            });
            by_object.push((object_hash(&t.moving_object), id));
            for a in t.annotations().iter() {
                traj_ann_pairs.push((traj_anns.id(a), id));
            }
            for stay in t.trace().intervals() {
                cell_pairs.push((cells.id(stay.cell), id));
                for a in stay.annotations.iter() {
                    stay_ann_pairs.push((stay_anns.id(a), id));
                }
            }
        }
        by_object.sort_unstable();
        let cell_postings = cells.postings(&mut cell_pairs, |cell| cell);

        // The stay table: every stay at its cell's slice, in row order,
        // then each slice sorted into its tree. The payload breaks ties,
        // so the order is the one a stable sort of the row-ordered
        // slice by `(start, end)` leaves.
        let cell_count = cell_postings.keys.len();
        let mut stay_offsets = vec![0usize; cell_count + 1];
        for &(cell, _) in &cell_pairs {
            stay_offsets[cell as usize + 1] += 1;
        }
        for k in 0..cell_count {
            stay_offsets[k + 1] += stay_offsets[k];
        }
        let mut cursor = stay_offsets[..cell_count].to_vec();
        let filler = Entry {
            interval: TimeInterval::new(Timestamp(0), Timestamp(0)),
            payload: 0,
        };
        let mut stays = vec![filler; stay_count];
        let all_stays = items.iter().flat_map(|t| t.trace().intervals());
        for (stay, &(cell, id)) in all_stays.zip(&cell_pairs) {
            stays[cursor[cell as usize]] = Entry {
                interval: stay.time,
                payload: id,
            };
            cursor[cell as usize] += 1;
        }
        let mut stay_max_end = vec![Timestamp(i64::MIN); stay_count];
        for k in 0..cell_count {
            let slice = stay_offsets[k]..stay_offsets[k + 1];
            let tree = &mut stays[slice.clone()];
            tree.sort_unstable_by_key(|e| (e.interval.start, e.interval.end, e.payload));
            fill_max_ends(tree, &mut stay_max_end[slice]);
        }

        TrajectoryDb {
            cell_postings,
            traj_ann_postings: traj_anns.postings(&mut traj_ann_pairs, Annotation::clone),
            stay_ann_postings: stay_anns.postings(&mut stay_ann_pairs, Annotation::clone),
            by_object,
            span_tree: IntervalTree::build(span_entries),
            stay_offsets,
            stays,
            stay_max_end,
            items,
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

    /// Distinct cells appearing in the collection, ascending.
    pub fn cells(&self) -> impl Iterator<Item = CellRef> + '_ {
        self.cell_postings.keys.iter().copied()
    }

    /// Ids of trajectories with at least one stay in `cell`.
    pub fn with_cell(&self, cell: CellRef) -> &[TrajId] {
        self.cell_postings.get(&cell)
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
        let mut ids = Vec::new();
        if let Some(d) = self.cell_postings.rank(&cell) {
            let slice = self.stay_offsets[d]..self.stay_offsets[d + 1];
            collect_overlapping(
                &self.stays[slice.clone()],
                &self.stay_max_end[slice],
                window,
                &mut ids,
            );
        }
        ids.sort_unstable();
        ids.dedup();
        CandidateSet::Ids(ids)
    }

    fn traj_annotation(&self, annotation: &Annotation) -> CandidateSet {
        CandidateSet::Ids(self.traj_ann_postings.get(annotation).to_vec())
    }

    fn stay_annotation(&self, annotation: &Annotation) -> CandidateSet {
        CandidateSet::Ids(self.stay_ann_postings.get(annotation).to_vec())
    }

    /// The rows of `by_object`'s run of `id`'s hash that carry `id`.
    fn moving_object(&self, id: &str) -> CandidateSet {
        let hash = object_hash(id);
        let from = self.by_object.partition_point(|&(h, _)| h < hash);
        let run = self.by_object[from..]
            .iter()
            .take_while(|&&(h, _)| h == hash);
        let rows = run.map(|&(_, row)| row);
        CandidateSet::Ids(
            rows.filter(|&row| self.items[row as usize].moving_object == id)
                .collect(),
        )
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
