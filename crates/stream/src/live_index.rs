//! Online postings over an engine's open-visit population.
//!
//! The warehouse side of the query stack answers predicates through
//! `sitm_query::TrajectoryDb`'s inverted indexes; before this module the
//! live side answered them by scanning every retained prefix. A
//! [`LiveIndex`] closes that gap: the engine maintains three posting
//! structures *incrementally* — for the visits touched since its last
//! snapshot cut — never rebuilt per query:
//!
//! * **cell postings** — cell → open visits with at least one accepted
//!   stay there (serves `VisitedCell`, `MinStayIn`, `StayOverlaps`, and
//!   each leg of `SequenceContains`);
//! * **moving-object postings** — `IDmo` → open visits (serves
//!   `MovingObject`);
//! * **span starts** — a start-time-ordered set over each open visit's
//!   first accepted interval (serves `SpanOverlaps`: an open prefix's
//!   span can only *grow at the right edge*, so `span.start ≤ w.end` is
//!   the one index-answerable half of the overlap test; the other half
//!   is left to the residual re-check).
//!
//! Maintenance is O(log n) per accepted interval (and only on *new*
//! cells of a visit — re-entering a cell is a no-op), O(cells-of-visit ·
//! log n) on close. Like the warehouse indexes, lookups promise
//! **soundness, not completeness-in-themselves**: every matching visit
//! is in the returned posting, and the caller re-checks the full
//! predicate on each candidate.
//!
//! The index only tracks visits whose intervals are retained
//! ([`crate::EngineConfig::with_live_queries`]); with retention off
//! there is nothing queryable to index and every structure stays empty.

use std::collections::{BTreeMap, BTreeSet};

use sitm_core::{PresenceInterval, Timestamp};
use sitm_space::CellRef;

/// Reverse record for one indexed visit, kept so close-time removal is
/// proportional to the visit's footprint, not the index size.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IndexedVisit {
    /// Moving-object identifier at index time.
    object: String,
    /// Start of the first accepted interval (the open span's left edge).
    start: Timestamp,
    /// Distinct cells visited, in first-visited order.
    cells: Vec<CellRef>,
}

/// Incrementally maintained postings over open visits (see the module
/// docs for the structures and their soundness contract).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LiveIndex {
    cells: BTreeMap<CellRef, BTreeSet<u64>>,
    objects: BTreeMap<String, BTreeSet<u64>>,
    starts: BTreeSet<(Timestamp, u64)>,
    entries: BTreeMap<u64, IndexedVisit>,
}

impl LiveIndex {
    /// An empty index.
    pub fn new() -> LiveIndex {
        LiveIndex::default()
    }

    /// Records one accepted presence interval for an open visit. The
    /// first observation of a visit registers its moving object and its
    /// span start; later ones only extend the cell postings when the
    /// visit enters a cell it has not been seen in yet.
    pub fn observe(&mut self, visit: u64, object: &str, interval: &PresenceInterval) {
        if !self.entries.contains_key(&visit) {
            self.objects
                .entry(object.to_string())
                .or_default()
                .insert(visit);
            self.starts.insert((interval.start(), visit));
            self.entries.insert(
                visit,
                IndexedVisit {
                    object: object.to_string(),
                    start: interval.start(),
                    cells: Vec::new(),
                },
            );
        }
        let entry = self.entries.get_mut(&visit).expect("just ensured");
        if !entry.cells.contains(&interval.cell) {
            entry.cells.push(interval.cell);
            self.cells.entry(interval.cell).or_default().insert(visit);
        }
    }

    /// Unindexes a visit (it closed, or its state was dropped). Unknown
    /// visits are a no-op.
    pub fn remove(&mut self, visit: u64) {
        let Some(entry) = self.entries.remove(&visit) else {
            return;
        };
        if let Some(set) = self.objects.get_mut(&entry.object) {
            set.remove(&visit);
            if set.is_empty() {
                self.objects.remove(&entry.object);
            }
        }
        self.starts.remove(&(entry.start, visit));
        for cell in entry.cells {
            if let Some(set) = self.cells.get_mut(&cell) {
                set.remove(&visit);
                if set.is_empty() {
                    self.cells.remove(&cell);
                }
            }
        }
    }

    /// Folds another index in (postings union), consuming it — an empty
    /// receiver adopts the donor wholesale, so the common
    /// one-index-per-engine merge is a move, not a rebuild. Visit
    /// populations are expected to be disjoint (each visit lives in one
    /// engine).
    pub fn absorb(&mut self, other: LiveIndex) {
        if self.entries.is_empty() {
            *self = other;
            return;
        }
        for (visit, entry) in other.entries {
            self.objects
                .entry(entry.object.clone())
                .or_default()
                .insert(visit);
            self.starts.insert((entry.start, visit));
            for cell in &entry.cells {
                self.cells.entry(*cell).or_default().insert(visit);
            }
            self.entries.insert(visit, entry);
        }
    }

    /// Number of indexed visits.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when the visit is indexed.
    pub fn contains(&self, visit: u64) -> bool {
        self.entries.contains_key(&visit)
    }

    /// Open visits with at least one accepted stay in `cell`.
    pub fn visits_in_cell(&self, cell: CellRef) -> impl Iterator<Item = u64> + '_ {
        self.cells
            .get(&cell)
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    /// Open visits of the moving object.
    pub fn visits_of_object(&self, object: &str) -> impl Iterator<Item = u64> + '_ {
        self.objects
            .get(object)
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    /// Open visits whose span starts at or before `bound` — a sound
    /// superset of the visits whose span overlaps any window ending at
    /// `bound` (open spans grow only to the right).
    pub fn visits_started_by(&self, bound: Timestamp) -> impl Iterator<Item = u64> + '_ {
        self.starts
            .range(..=(bound, u64::MAX))
            .map(|&(_, visit)| visit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_core::TransitionTaken;
    use sitm_graph::{LayerIdx, NodeId};

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
    }

    fn stay(c: usize, start: i64, end: i64) -> PresenceInterval {
        PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(c),
            Timestamp(start),
            Timestamp(end),
        )
    }

    #[test]
    fn observe_builds_all_three_postings() {
        let mut index = LiveIndex::new();
        index.observe(7, "mo-7", &stay(1, 10, 20));
        index.observe(7, "mo-7", &stay(2, 20, 30));
        index.observe(7, "mo-7", &stay(1, 30, 40)); // re-entry: no-op
        index.observe(9, "mo-9", &stay(1, 5, 15));
        assert_eq!(index.len(), 2);
        assert!(index.contains(7) && index.contains(9));
        let mut in_one: Vec<u64> = index.visits_in_cell(cell(1)).collect();
        in_one.sort_unstable();
        assert_eq!(in_one, vec![7, 9]);
        assert_eq!(index.visits_in_cell(cell(2)).collect::<Vec<_>>(), vec![7]);
        assert!(index.visits_in_cell(cell(3)).next().is_none());
        assert_eq!(index.visits_of_object("mo-9").collect::<Vec<_>>(), vec![9]);
        // Span starts: 9 starts at 5, 7 at 10.
        assert_eq!(
            index.visits_started_by(Timestamp(5)).collect::<Vec<_>>(),
            vec![9]
        );
        assert_eq!(index.visits_started_by(Timestamp(10)).count(), 2);
        assert_eq!(index.visits_started_by(Timestamp(4)).count(), 0);
    }

    #[test]
    fn remove_cleans_every_posting() {
        let mut index = LiveIndex::new();
        index.observe(1, "a", &stay(1, 0, 10));
        index.observe(1, "a", &stay(2, 10, 20));
        index.observe(2, "a", &stay(1, 3, 9));
        index.remove(1);
        assert!(!index.contains(1));
        assert_eq!(index.visits_in_cell(cell(1)).collect::<Vec<_>>(), vec![2]);
        assert!(index.visits_in_cell(cell(2)).next().is_none());
        assert_eq!(index.visits_of_object("a").collect::<Vec<_>>(), vec![2]);
        assert_eq!(index.visits_started_by(Timestamp(100)).count(), 1);
        index.remove(2);
        assert!(index.is_empty());
        index.remove(2); // idempotent
        assert!(index.is_empty());
    }

    #[test]
    fn absorb_unions_disjoint_shard_indexes() {
        let mut a = LiveIndex::new();
        a.observe(1, "a", &stay(1, 0, 10));
        let mut b = LiveIndex::new();
        b.observe(2, "b", &stay(1, 5, 15));
        b.observe(3, "a", &stay(2, 7, 9));
        a.absorb(b);
        assert_eq!(a.len(), 3);
        let mut in_one: Vec<u64> = a.visits_in_cell(cell(1)).collect();
        in_one.sort_unstable();
        assert_eq!(in_one, vec![1, 2]);
        let mut of_a: Vec<u64> = a.visits_of_object("a").collect();
        of_a.sort_unstable();
        assert_eq!(of_a, vec![1, 3]);
    }
}
