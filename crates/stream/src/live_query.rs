//! Live queries over in-flight engine state.
//!
//! The batch query stack (`sitm-query`) sees trajectories only after
//! their visits close and drain. This module makes the *live* state
//! visible too: every open visit's trajectory prefix — the
//! moving-object meta-model's "spatio-temporal predicates over live
//! trajectories" served straight from the engine. (Finalized episodes
//! are not part of a snapshot: `drain` is the one way to get them.)
//!
//! ## Snapshot consistency
//!
//! A [`LiveSnapshot`] is a *consistent cut*: [`crate::ParallelEngine`]
//! takes it at a quiesce point of its work-stealing scheduler — every
//! event ingested before the call is applied and deposited before the
//! capture, everything after is excluded — so an event is either
//! entirely visible (its effects on the prefix and the postings both
//! present) or entirely absent. A snapshot is immutable once handed out: a reader
//! holding the `Arc` of an earlier cut keeps seeing that cut, whatever
//! the engine ingests or cuts afterwards.
//!
//! An open visit without a prefix (nothing accepted yet) is counted in
//! [`LiveSnapshot::unqueryable`] rather than silently missing.
//!
//! ## The live index and its consistency model
//!
//! A snapshot carries the live postings — cell postings, moving-object
//! postings, and a span-start order (see `live_index`) — **from the
//! same cut** as its visits, so the index can neither lead nor trail
//! the visible trajectories. The engine *patches* at the cut: at the
//! quiesce point it re-derives the prefix and the postings of exactly
//! the visits its workers touched since the previous cut, and shares
//! everything else (each visit behind its own `Arc`, the index behind
//! one) with the previous snapshot — a cut costs what changed, not what
//! is open. There is no "mid-update" window a caller can observe; the
//! differential tests pin patched == rebuilt (every open visit
//! re-derived into an empty view, `ParallelEngine::rebuilt_snapshot`)
//! == batch prefix and indexed results == scan results at every cut.
//! [`LiveSnapshot::new`] indexes the visits it is given itself, so no
//! snapshot holds a visit its postings miss.
//!
//! [`LiveSnapshot::candidates`] narrows a `sitm_query::Predicate` to a
//! [`CandidateSet`] exactly like `TrajectoryDb::candidates` does on the
//! warehouse side — the same walk (`Predicate::narrow`) over this
//! snapshot's `sitm_query::LeafLookup`s: cells, span starts and moving
//! objects narrow, the annotation leaves answer `All`. Lookups return
//! *sound supersets* and `sitm-query`'s paging core re-checks the full
//! predicate on each candidate, so indexed results are always identical
//! to a scan of every open prefix (differentially tested against the
//! query crate's oracle).
//!
//! `TrajectorySource::plan` reports what this produces: `Some` of the
//! candidate count whenever the predicate has an indexable leaf
//! (`VisitedCell`, `MinStayIn`, `StayOverlaps`, `SequenceContains`,
//! `SpanOverlaps`, `MovingObject`, or any `And`/`Or` over those);
//! `None`, a full scan, otherwise.
//!
//! Federation: [`LiveSnapshot`] implements
//! [`sitm_query::TrajectorySource`] — positions are indexes into
//! `visits`, every row is resident — so one `sitm_query::Query` is
//! evaluated over several engines' snapshots and any number of
//! warehouses at once (`Query::execute_federated`,
//! `sitm_query::federated_count`), with every indexed source narrowed
//! through its own postings and nothing cloned but the page.

use std::collections::BTreeMap;
use std::sync::Arc;

use sitm_core::{Annotation, SemanticTrajectory, TimeInterval, Timestamp};
use sitm_graph::CellRef;
use sitm_query::{
    federated_count, CandidateSet, LeafLookup, Predicate, Row, TrajId, TrajectorySource,
};

use crate::event::VisitKey;
use crate::live_index::LiveIndex;

/// One open visit's queryable prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveVisit {
    /// The visit.
    pub visit: VisitKey,
    /// The trajectory observed so far (intervals accepted up to the
    /// snapshot cut).
    pub trajectory: SemanticTrajectory,
}

/// A consistent cut of an engine's live state: every open visit's
/// prefix, and the postings over them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LiveSnapshot {
    /// Open visits with queryable prefixes, ordered by visit key. Each
    /// sits behind its own `Arc` so consecutive cuts share the visits
    /// that did not change between them.
    pub visits: Vec<Arc<LiveVisit>>,
    /// The engine watermark at the cut: the highest event time applied.
    pub watermark: Option<Timestamp>,
    /// Open visits without a queryable prefix (no interval accepted
    /// yet, or an empty annotation set).
    pub unqueryable: usize,
    /// The postings at the cut: every visit in `visits`, and perhaps
    /// unqueryable ones, whose keys no position answers.
    index: Arc<LiveIndex>,
    /// The visit keys, in `visits` order: translating a posting entry
    /// into a position is a binary search over this contiguous column,
    /// not a pointer chase through `visits`.
    keys: Vec<u64>,
}

impl LiveSnapshot {
    /// A snapshot of `visits`, indexed here: no watermark, nothing
    /// unqueryable.
    pub fn new(visits: BTreeMap<VisitKey, SemanticTrajectory>) -> LiveSnapshot {
        let mut index = LiveIndex::default();
        let visits = visits
            .into_iter()
            .map(|(visit, trajectory)| {
                for interval in trajectory.trace().intervals() {
                    index.observe(visit.0, &trajectory.moving_object, interval);
                }
                Arc::new(LiveVisit { visit, trajectory })
            })
            .collect();
        LiveSnapshot::from_parts(visits, None, 0, Arc::new(index))
    }

    /// `visits` in key order, keys distinct, and `index` over at least
    /// those visits. The engine's cut calls this directly, sharing both
    /// with its patched view rather than copying them.
    pub(crate) fn from_parts(
        visits: Vec<Arc<LiveVisit>>,
        watermark: Option<Timestamp>,
        unqueryable: usize,
        index: Arc<LiveIndex>,
    ) -> LiveSnapshot {
        LiveSnapshot {
            keys: visits.iter().map(|v| v.visit.0).collect(),
            visits,
            watermark,
            unqueryable,
            index,
        }
    }

    /// Position of a visit key in the key-sorted `visits` vector.
    fn position(&self, key: u64) -> Option<TrajId> {
        self.keys.binary_search(&key).ok().map(|i| i as TrajId)
    }

    /// Translates a posting (visit keys) into snapshot positions.
    /// Unknown keys (indexed but unqueryable visits) are dropped; keys
    /// arrive in ascending order only from the key-ordered postings, so
    /// sort + dedup keeps the contract cheap and unconditional.
    fn posting(&self, keys: impl Iterator<Item = u64>) -> CandidateSet {
        let mut ids: Vec<TrajId> = keys.filter_map(|k| self.position(k)).collect();
        ids.sort_unstable();
        ids.dedup();
        CandidateSet::Ids(ids)
    }

    /// Derives a candidate superset for `p` from the live postings —
    /// the streaming twin of `TrajectoryDb::candidates`: the same walk
    /// (`Predicate::narrow`) over this snapshot's leaf lookups.
    /// Soundness invariant (differentially tested): every open visit
    /// matching `p` is in the returned set; the set may contain
    /// non-matches and the caller re-filters.
    pub fn candidates(&self, p: &Predicate) -> CandidateSet {
        p.narrow(self)
    }

    /// Number of open visits whose prefix satisfies the predicate:
    /// `sitm-query`'s paging core over this one source (candidates
    /// narrowed through the live index, then re-checked by reference).
    pub fn count_matching(&self, predicate: &Predicate) -> usize {
        federated_count(predicate, &[self])
    }
}

/// Cells, span starts and moving objects answer from the postings; the
/// live index keeps no annotation postings.
impl LeafLookup for LiveSnapshot {
    fn cell(&self, cell: CellRef) -> CandidateSet {
        self.posting(self.index.visits_in_cell(cell))
    }

    /// An open span grows only to the right, so a visit started by the
    /// window's end is the index-answerable half of the overlap.
    fn span(&self, window: TimeInterval) -> CandidateSet {
        self.posting(self.index.visits_started_by(window.end))
    }

    fn traj_annotation(&self, _annotation: &Annotation) -> CandidateSet {
        CandidateSet::All
    }

    fn stay_annotation(&self, _annotation: &Annotation) -> CandidateSet {
        CandidateSet::All
    }

    fn moving_object(&self, id: &str) -> CandidateSet {
        self.posting(self.index.visits_of_object(id))
    }
}

impl TrajectorySource for LiveSnapshot {
    fn len_hint(&self) -> usize {
        self.visits.len()
    }

    fn row(&self, position: TrajId) -> Row<'_> {
        Row::Resident(&self.visits[position as usize].trajectory, None)
    }

    fn candidates(&self, predicate: &Predicate) -> CandidateSet {
        LiveSnapshot::candidates(self, predicate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_core::{AnnotationSet, PresenceInterval, Trace, TransitionTaken};
    use sitm_graph::{LayerIdx, NodeId};

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
    }

    fn live(v: u64, c: usize, start: i64) -> (VisitKey, SemanticTrajectory) {
        let stay = PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(c),
            Timestamp(start),
            Timestamp(start + 10),
        );
        let trajectory = SemanticTrajectory::new(
            format!("mo-{v}"),
            Trace::new(vec![stay]).unwrap(),
            AnnotationSet::from_iter([Annotation::goal("visit")]),
        )
        .unwrap();
        (VisitKey(v), trajectory)
    }

    #[test]
    fn indexed_candidates_narrow_and_match_the_scan_path() {
        let snapshot = LiveSnapshot::new(BTreeMap::from([
            live(1, 1, 0),
            live(2, 2, 100),
            live(3, 1, 200),
        ]));
        let predicates = [
            Predicate::VisitedCell(cell(1)),
            Predicate::MovingObject("mo-2".into()),
            Predicate::SpanOverlaps(TimeInterval::new(Timestamp(0), Timestamp(50))),
            Predicate::StayOverlaps(cell(1), TimeInterval::new(Timestamp(150), Timestamp(400))),
            Predicate::VisitedCell(cell(1)).and(Predicate::MovingObject("mo-3".into())),
            Predicate::VisitedCell(cell(2)).or(Predicate::MovingObject("mo-1".into())),
            Predicate::SequenceContains(vec![cell(1)]),
            Predicate::True,
        ];
        for p in predicates {
            // Index path (the paging core) against the scan (the oracle).
            let q = sitm_query::Query::new().filter(p.clone());
            let indexed = q.execute_federated(&[&snapshot]);
            let scanned: Vec<SemanticTrajectory> = q
                .oracle(&[&snapshot], false)
                .into_iter()
                .map(Row::into_owned)
                .collect();
            assert_eq!(indexed, scanned, "indexed != scan for {p}");
            assert_eq!(
                snapshot.count_matching(&p),
                scanned.len(),
                "count diverged for {p}"
            );
        }
        // The narrowing is real: a cell posting beats All.
        match snapshot.candidates(&Predicate::VisitedCell(cell(2))) {
            CandidateSet::Ids(ids) => assert_eq!(ids, vec![1], "position of visit 2"),
            CandidateSet::All => panic!("cell predicate must narrow"),
        }
        // Span narrowing: only visit 1 starts by t=50.
        match snapshot.candidates(&Predicate::SpanOverlaps(TimeInterval::new(
            Timestamp(0),
            Timestamp(50),
        ))) {
            CandidateSet::Ids(ids) => assert_eq!(ids, vec![0]),
            CandidateSet::All => panic!("span predicate must narrow"),
        }
    }
}
