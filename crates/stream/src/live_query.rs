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
//! A snapshot carries a [`LiveIndex`] — cell postings, moving-object
//! postings, and a span-start order (see [`crate::live_index`]) — **from
//! the same cut** as its visits, so the index can neither lead nor
//! trail the visible trajectories. The engine *patches* at the cut: at
//! the quiesce point it re-derives the prefix and the postings of
//! exactly the visits its workers touched since the previous cut, and
//! shares everything else (each visit behind its own `Arc`, the index
//! behind one) with the previous snapshot — a cut costs what changed,
//! not what is open. There is no "mid-update" window a caller can
//! observe; the differential tests pin patched == rebuilt (every open
//! visit re-derived into an empty view,
//! `ParallelEngine::rebuilt_snapshot`) == batch prefix and indexed
//! results == scan results at every cut.
//!
//! [`LiveSnapshot::candidates`] narrows a `sitm_query::Predicate` to a
//! [`CandidateSet`] exactly like `TrajectoryDb::candidates` does on the
//! warehouse side — the same boolean walk (`Predicate::narrow`) over
//! this snapshot's postings. Lookups return *sound supersets* and
//! `sitm-query`'s paging core re-checks the full predicate on each
//! candidate, so indexed results are always identical to a scan of
//! every open prefix (differentially tested against the query crate's
//! oracle). If a snapshot's index does not cover every visit
//! (hand-assembled snapshots, pre-index producers), candidate narrowing
//! degrades to [`CandidateSet::All`] — a full scan — rather than losing
//! matches.
//!
//! `TrajectorySource::plan` reports what this produces: `Some` of the
//! candidate count whenever the snapshot's index covers all visits
//! **and** the predicate has an indexable leaf (`VisitedCell`,
//! `MinStayIn`, `StayOverlaps`, `SequenceContains`, `SpanOverlaps`,
//! `MovingObject`, or any `And`/`Or` over those); `None`, a full scan,
//! otherwise.
//!
//! Federation: [`LiveSnapshot`] implements
//! [`sitm_query::TrajectorySource`] — positions are indexes into
//! `visits`, every row is resident — so one `sitm_query::Query` can be
//! evaluated over the union of several engines' live state and any
//! number of warehouses (`Query::execute_federated`,
//! `sitm_query::federated_count`), with every indexed source narrowed
//! through its own postings and nothing cloned but the page.

use std::sync::Arc;

use sitm_core::{SemanticTrajectory, Timestamp};
use sitm_query::{federated_count, CandidateSet, Predicate, Row, TrajId, TrajectorySource};

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
    /// The postings at the cut.
    index: Arc<LiveIndex>,
    /// True when every visit in `visits` is covered by `index`, which is
    /// what makes candidate narrowing sound. Hand-assembled snapshots
    /// without postings fall back to scanning.
    index_complete: bool,
    /// The visit keys, in `visits` order: translating a posting entry
    /// into a position is a binary search over this contiguous column,
    /// not a pointer chase through `visits`.
    keys: Vec<u64>,
}

impl LiveSnapshot {
    /// A snapshot of `visits` (in any order) with `index` as its
    /// postings; no watermark, nothing unqueryable. Candidate narrowing
    /// is used only when `index` covers every visit and no key repeats;
    /// otherwise every query scans.
    pub fn new(mut visits: Vec<Arc<LiveVisit>>, index: LiveIndex) -> LiveSnapshot {
        visits.sort_by_key(|v| v.visit);
        // A key duplicated across merged snapshots (overlapping
        // engines, replicated feeds) would binary-search to a single
        // position and lose its twin.
        let duplicated = visits.windows(2).any(|w| w[0].visit == w[1].visit);
        let index_complete = !duplicated && visits.iter().all(|v| index.contains(v.visit.0));
        LiveSnapshot::from_parts(visits, None, 0, Arc::new(index), index_complete)
    }

    /// Merges snapshots from several engines (multi-site federation).
    /// Each input keeps its own cut; the merge is the plain union, its
    /// watermark the smallest of the inputs'.
    pub fn merge(parts: impl IntoIterator<Item = LiveSnapshot>) -> LiveSnapshot {
        let mut visits = Vec::new();
        let mut index = LiveIndex::new();
        let mut unqueryable = 0;
        let mut watermark: Option<Timestamp> = None;
        for part in parts {
            visits.extend(part.visits);
            index.absorb(Arc::unwrap_or_clone(part.index));
            unqueryable += part.unqueryable;
            watermark = match (watermark, part.watermark) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        LiveSnapshot {
            watermark,
            unqueryable,
            ..LiveSnapshot::new(visits, index)
        }
    }

    /// `visits` in key order. The engine's cut calls this directly,
    /// with `index` built over exactly those visits (`index_complete`)
    /// and both shared with its patched view rather than copied.
    pub(crate) fn from_parts(
        visits: Vec<Arc<LiveVisit>>,
        watermark: Option<Timestamp>,
        unqueryable: usize,
        index: Arc<LiveIndex>,
        index_complete: bool,
    ) -> LiveSnapshot {
        LiveSnapshot {
            keys: visits.iter().map(|v| v.visit.0).collect(),
            visits,
            watermark,
            unqueryable,
            index,
            index_complete,
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
    /// the streaming twin of `TrajectoryDb::candidates`: the same
    /// boolean walk (`Predicate::narrow`) over this snapshot's leaf
    /// lookups. Soundness invariant (differentially tested): every open
    /// visit matching `p` is in the returned set; the set may contain
    /// non-matches and the caller re-filters. Returns
    /// [`CandidateSet::All`] whenever the index cannot narrow
    /// (unindexable leaves, or an index that does not cover every
    /// visit).
    pub fn candidates(&self, p: &Predicate) -> CandidateSet {
        if !self.index_complete {
            return CandidateSet::All;
        }
        p.narrow(&mut |leaf| match leaf {
            Predicate::VisitedCell(cell) | Predicate::MinStayIn(cell, _) => {
                self.posting(self.index.visits_in_cell(*cell))
            }
            Predicate::SequenceContains(cells) => cells
                .iter()
                .map(|c| self.posting(self.index.visits_in_cell(*c)))
                .fold(CandidateSet::All, CandidateSet::intersect),
            Predicate::SpanOverlaps(window) => {
                self.posting(self.index.visits_started_by(window.end))
            }
            Predicate::StayOverlaps(cell, window) => self
                .posting(self.index.visits_in_cell(*cell))
                .intersect(self.posting(self.index.visits_started_by(window.end))),
            Predicate::MovingObject(id) => self.posting(self.index.visits_of_object(id)),
            // The live index keeps no annotation postings, nothing
            // answers a dwell bound, and the boolean nodes never reach
            // a leaf lookup.
            Predicate::HasTrajAnnotation(_)
            | Predicate::HasStayAnnotation(_)
            | Predicate::MinTotalDwell(_)
            | Predicate::True
            | Predicate::Not(_)
            | Predicate::And(_)
            | Predicate::Or(_) => CandidateSet::All,
        })
    }

    /// Number of open visits whose prefix satisfies the predicate:
    /// `sitm-query`'s paging core over this one source (candidates
    /// narrowed through the live index, then re-checked by reference).
    pub fn count_matching(&self, predicate: &Predicate) -> usize {
        federated_count(predicate, &[self])
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
    use sitm_core::{
        Annotation, AnnotationSet, PresenceInterval, TimeInterval, Trace, TransitionTaken,
    };
    use sitm_graph::{CellRef, LayerIdx, NodeId};

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
    }

    fn live(v: u64, c: usize, start: i64) -> LiveVisit {
        let stay = PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(c),
            Timestamp(start),
            Timestamp(start + 10),
        );
        LiveVisit {
            visit: VisitKey(v),
            trajectory: SemanticTrajectory::new(
                format!("mo-{v}"),
                Trace::new(vec![stay]).unwrap(),
                AnnotationSet::from_iter([Annotation::goal("visit")]),
            )
            .unwrap(),
        }
    }

    /// A snapshot whose index covers its visits (the shape the engine
    /// produces).
    fn snapshot_of(visits: Vec<LiveVisit>) -> LiveSnapshot {
        let mut index = LiveIndex::new();
        for v in &visits {
            for interval in v.trajectory.trace().intervals() {
                index.observe(v.visit.0, &v.trajectory.moving_object, interval);
            }
        }
        LiveSnapshot::new(visits.into_iter().map(Arc::new).collect(), index)
    }

    #[test]
    fn indexed_candidates_narrow_and_match_the_scan_path() {
        let snapshot = snapshot_of(vec![live(1, 1, 0), live(2, 2, 100), live(3, 1, 200)]);
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

    #[test]
    fn incomplete_index_falls_back_to_scanning() {
        // A hand-assembled snapshot without postings: narrowing would
        // lose matches, so candidates must degrade to All.
        let snapshot = LiveSnapshot::new(vec![Arc::new(live(1, 1, 0))], LiveIndex::new());
        assert!(!snapshot.index_complete);
        assert_eq!(
            snapshot.candidates(&Predicate::VisitedCell(cell(1))),
            CandidateSet::All
        );
        assert_eq!(snapshot.count_matching(&Predicate::VisitedCell(cell(1))), 1);
    }

    #[test]
    fn overlapping_merges_fall_back_to_scanning_and_lose_nothing() {
        // The same visit key in two merged snapshots (replicated feeds,
        // overlapping engines): a duplicated key cannot be narrowed
        // soundly, so the merge must disable the index path — and the
        // indexed entry points must still count both copies.
        let a = snapshot_of(vec![live(1, 1, 0)]);
        let b = snapshot_of(vec![live(1, 1, 0), live(2, 2, 0)]);
        let merged = LiveSnapshot::merge([a, b]);
        assert_eq!(merged.visits.len(), 3);
        assert!(
            !merged.index_complete,
            "duplicated keys force the scan path"
        );
        let p = Predicate::VisitedCell(cell(1));
        assert_eq!(merged.candidates(&p), CandidateSet::All);
        assert_eq!(merged.count_matching(&p), 2, "both copies visible");
        let scan = sitm_query::Query::new().filter(p.clone());
        assert_eq!(
            merged.count_matching(&p),
            scan.oracle(&[&merged], false).len()
        );
    }

    #[test]
    fn merge_unions_engine_snapshots_and_source_walks_all() {
        let a = LiveSnapshot {
            watermark: Some(Timestamp(40)),
            unqueryable: 1,
            ..snapshot_of(vec![live(5, 1, 0)])
        };
        let b = LiveSnapshot {
            watermark: Some(Timestamp(25)),
            unqueryable: 2,
            ..snapshot_of(vec![live(2, 1, 0)])
        };
        let merged = LiveSnapshot::merge([a, b, snapshot_of(vec![])]);
        assert_eq!(merged.visits.len(), 2);
        assert_eq!(merged.visits[0].visit, VisitKey(2), "sorted by key");
        assert_eq!(merged.unqueryable, 3);
        assert_eq!(merged.watermark, Some(Timestamp(25)), "min across Some");
        assert!(merged.index_complete, "merge carries the postings along");
        assert_eq!(
            sitm_query::federated_count(&Predicate::VisitedCell(cell(1)), &[&merged]),
            2
        );
        assert_eq!(merged.len_hint(), 2);
    }
}
