//! The fluent query builder and its executor.
//!
//! ```
//! use sitm_query::{Query, SortKey, TrajectoryDb};
//! # use sitm_core::{Annotation, AnnotationSet, PresenceInterval, Timestamp,
//! #     Trace, TransitionTaken, SemanticTrajectory};
//! # use sitm_graph::{LayerIdx, NodeId};
//! # use sitm_space::CellRef;
//! # let cell = CellRef::new(LayerIdx::from_index(0), NodeId::from_index(0));
//! # let stay = PresenceInterval::new(
//! #     TransitionTaken::Unknown, cell, Timestamp(0), Timestamp(60));
//! # let t = SemanticTrajectory::new(
//! #     "v", Trace::new(vec![stay]).unwrap(),
//! #     AnnotationSet::from_iter([Annotation::goal("visit")])).unwrap();
//! let db = TrajectoryDb::build(vec![t]);
//! let hits = Query::new()
//!     .visited(cell)
//!     .goal("visit")
//!     .order_by(SortKey::Start, true)
//!     .limit(10)
//!     .execute(&db);
//! assert_eq!(hits.len(), 1);
//! ```
//!
//! Every entry point runs the crate's **one paging core** (its
//! contract is documented on [`Query`]): per-source candidates from the
//! source's own indexes, ordering no further than the page reaches, a
//! re-check of the predicate on each fetched row, then offset and
//! limit. [`Query::explain`] reports the access path a source would
//! take without running the query.

use std::cmp::Ordering;
use std::fmt;
use std::ops::ControlFlow;

use sitm_core::{Annotation, Duration, SemanticTrajectory, TimeInterval};
use sitm_obs::trace::{child_detail, ChildSpan};
use sitm_space::CellRef;

use sitm_store::encode_trajectory;

use crate::federation::{federated_count, Row, SortKeys, TrajectorySource};
use crate::index::{CandidateSet, TrajId, TrajectoryDb};
use crate::predicate::Predicate;
use crate::segmented::SegmentedDb;

/// Sort dimension for query results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortKey {
    /// Trajectory start time (`tstart`).
    Start,
    /// Trajectory end time (`tend`).
    End,
    /// Span length (`tend - tstart`).
    SpanDuration,
    /// Total dwell time (sum of stay durations).
    TotalDwell,
    /// Moving-object identifier, lexicographically.
    MovingObject,
    /// Number of trace tuples.
    TraceLength,
}

impl SortKey {
    /// The key of `t` as the integer the paging core orders by (every
    /// key but [`SortKey::MovingObject`], which orders by the string).
    pub(crate) fn integer(self, t: &SemanticTrajectory) -> i64 {
        match self {
            SortKey::Start => t.start().0,
            SortKey::End => t.end().0,
            SortKey::SpanDuration => t.span().duration().0,
            SortKey::TotalDwell => t.trace().dwell_total().0,
            SortKey::TraceLength => t.trace().len() as i64,
            SortKey::MovingObject => unreachable!("moving objects order as strings"),
        }
    }

    /// The comparison the oracle sorts by — written against the model's
    /// own types, apart from the core's integer keys.
    fn compare(self, a: &SemanticTrajectory, b: &SemanticTrajectory) -> Ordering {
        match self {
            SortKey::Start => a.start().cmp(&b.start()),
            SortKey::End => a.end().cmp(&b.end()),
            SortKey::SpanDuration => a.span().duration().cmp(&b.span().duration()),
            SortKey::TotalDwell => a.trace().dwell_total().cmp(&b.trace().dwell_total()),
            SortKey::MovingObject => a.moving_object.cmp(&b.moving_object),
            SortKey::TraceLength => a.trace().len().cmp(&b.trace().len()),
        }
    }
}

/// One query hit: the dense id plus a borrow of the trajectory.
#[derive(Debug, Clone, Copy)]
pub struct Match<'a> {
    /// Dense id within the queried [`TrajectoryDb`].
    pub id: TrajId,
    /// The matching trajectory.
    pub trajectory: &'a SemanticTrajectory,
}

/// How the executor will reach the rows (reported by [`Query::explain`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPath {
    /// Scan every trajectory.
    FullScan,
    /// Visit an explicit candidate id list derived from the indexes.
    IndexCandidates {
        /// Candidate count.
        candidates: usize,
    },
}

/// The executor's plan for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Access path.
    pub access: AccessPath,
    /// Predicate re-checked on each candidate.
    pub residual: Predicate,
    /// Collection size.
    pub total: usize,
}

impl QueryPlan {
    /// Candidate-to-collection ratio in `[0, 1]`; 1.0 for a full scan.
    pub fn selectivity_bound(&self) -> f64 {
        match (self.total, &self.access) {
            (0, _) => 0.0,
            (_, AccessPath::FullScan) => 1.0,
            (total, AccessPath::IndexCandidates { candidates }) => {
                *candidates as f64 / total as f64
            }
        }
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.access {
            AccessPath::FullScan => write!(f, "FullScan({} rows)", self.total)?,
            AccessPath::IndexCandidates { candidates } => {
                write!(f, "IndexCandidates({candidates} of {} rows)", self.total)?
            }
        }
        write!(f, " filter {}", self.residual)
    }
}

/// How rows with equal sort keys are ordered — the one thing the two
/// documented ordering contracts differ in. The entry point picks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ties {
    /// `(key, source, position)` order, reversed wholesale on a
    /// descending sort: [`Query::execute`], [`Query::execute_segmented`]
    /// and the served `Query`.
    Reversed,
    /// Ascending `(source, position)` in both directions — what a
    /// stable sort of the concatenated sources leaves:
    /// [`Query::execute_federated`] and the served `QueryFederated`.
    SourceOrder,
}

/// One run of the paging core: what to select, how to order it, which
/// page of the order to emit.
pub(crate) struct Page<'q> {
    predicate: &'q Predicate,
    order: Option<(SortKey, bool)>,
    ties: Ties,
    offset: usize,
    limit: Option<usize>,
}

impl<'q> Page<'q> {
    /// Every match, in source order.
    pub(crate) fn unordered(predicate: &'q Predicate) -> Page<'q> {
        Page {
            predicate,
            order: None,
            ties: Ties::SourceOrder,
            offset: 0,
            limit: None,
        }
    }

    /// The paging core (contract on [`Query`]): hands `emit` each row
    /// of the page — `(source, position, row)` — in result order.
    pub(crate) fn run<'a>(
        &self,
        sources: &[&'a dyn TrajectorySource],
        emit: &mut dyn FnMut(usize, TrajId, Row<'a>),
    ) {
        // Before any index is consulted: an empty page prunes, counts
        // and hydrates nothing.
        if self.limit == Some(0) {
            return;
        }
        // One candidate: fetch (borrowed when resident), re-check,
        // skip or emit. Breaks once the page is full.
        let (mut skipped, mut emitted) = (0, 0);
        let mut visit = |source: usize, position: TrajId| -> ControlFlow<()> {
            let row = sources[source].row(position);
            if !self.predicate.matches(row.trajectory()) {
                return ControlFlow::Continue(());
            }
            if skipped < self.offset {
                skipped += 1;
                return ControlFlow::Continue(());
            }
            emit(source, position, row);
            emitted += 1;
            if Some(emitted) == self.limit {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        };
        let Some((key, ascending)) = self.order else {
            // Source order: a later source is not even consulted once
            // the page is full.
            for (s, source) in sources.iter().enumerate() {
                let candidates = source.candidates(self.predicate);
                let _fetch = child_detail("fetch_rows");
                let mut positions = candidates.within(0..source.len_hint() as TrajId);
                if positions.try_for_each(|at| visit(s, at)).is_break() {
                    return;
                }
            }
            return;
        };
        let candidates: Vec<CandidateSet> = sources
            .iter()
            .map(|source| source.candidates(self.predicate))
            .collect();
        let order_span = child_detail("order_page");
        let entries = sources
            .iter()
            .zip(&candidates)
            .map(|(source, candidates)| candidates.cardinality(source.len_hint()))
            .sum();
        let mut keys = SortKeys::with_capacity(key, entries);
        for (s, (source, candidates)) in sources.iter().zip(&candidates).enumerate() {
            source.sort_keys(key, candidates, s as u32, &mut keys);
        }
        let reach = self.limit.map(|n| self.offset.saturating_add(n));
        let direction = (ascending, !ascending && self.ties == Ties::SourceOrder);
        match keys {
            SortKeys::Int(keys) => walk_ordered(keys, direction, reach, order_span, &mut visit),
            SortKeys::Object(keys) => walk_ordered(keys, direction, reach, order_span, &mut visit),
        }
    }
}

/// Visits `entries` in order until `visit` breaks, sorting no further
/// than the page reaches: with `reach = offset + limit`, the first
/// `reach` entries of the order are selected and sorted, which is the
/// whole page unless `visit` rejects some of them. If that head runs
/// dry with the page still short, the rest is sorted then and the walk
/// goes on (correct, not fast). `reach: None` sorts everything.
///
/// The one comparator behind both [`Ties`] rules orders whole entries
/// — `(key, source, position)` — and a descending sort is that order
/// reversed wholesale, ties included. `direction` is `(ascending,
/// ties_ascend)`; the second keeps the ties of a descending sort in
/// ascending `(source, position)` order instead: their places are
/// stored complemented, so the reversal puts them back. `order_span`
/// is the `order_page` span the caller opened around key extraction; it
/// closes when the head is sorted.
fn walk_ordered<K: Ord>(
    mut entries: Vec<(K, u32, TrajId)>,
    (ascending, ties_ascend): (bool, bool),
    reach: Option<usize>,
    order_span: ChildSpan,
    visit: &mut dyn FnMut(usize, TrajId) -> ControlFlow<()>,
) {
    if ties_ascend {
        for (_, source, at) in &mut entries {
            (*source, *at) = (!*source, !*at);
        }
    }
    // `(source, position)` is distinct per entry, so the order is total
    // and an unstable sort is deterministic.
    let directed = |a: &(K, u32, TrajId), b: &(K, u32, TrajId)| {
        if ascending {
            a.cmp(b)
        } else {
            b.cmp(a)
        }
    };
    let head = match reach {
        Some(reach) if reach < entries.len() => {
            entries.select_nth_unstable_by(reach, directed);
            reach
        }
        _ => entries.len(),
    };
    let (head, tail) = entries.split_at_mut(head);
    head.sort_unstable_by(directed);
    drop(order_span);
    let _fetch = child_detail("fetch_rows");
    let mut walk = |run: &[(K, u32, TrajId)]| {
        run.iter().try_for_each(|&(_, source, at)| {
            let (source, at) = if ties_ascend {
                (!source, !at)
            } else {
                (source, at)
            };
            visit(source as usize, at)
        })
    };
    if walk(head).is_break() {
        return;
    }
    {
        let _order = child_detail("order_page");
        tail.sort_unstable_by(directed);
    }
    let _ = walk(tail);
}

/// A declarative trajectory query: predicate + ordering + truncation.
///
/// # Execution: the one paging core
///
/// Every `execute*` method, every `count` and both byte sinks run the
/// same core over a list of [`TrajectorySource`]s and differ only in
/// what they do with the rows it hands them:
///
/// 1. **candidates** — each source narrows the predicate through its
///    own indexes ([`TrajectorySource::candidates`]: a sound superset,
///    ascending positions). A `limit` of 0 returns before this step.
/// 2. **order** — without an `order_by`, sources are walked one after
///    another in position order and the walk stops when the page is
///    full. With one, every candidate contributes a `(key, source,
///    position)` entry ([`TrajectorySource::sort_keys`] — a warehouse
///    reads them off its offset directories and sort columns, decoding
///    nothing); only the first `offset + limit` entries of the order
///    are selected and sorted. The rest stay unordered unless the
///    re-check rejects so many of those that the page is still short —
///    only then is the remainder sorted and the walk continued.
///    Sorting candidates and filtering lazily equals filter-then-sort:
///    dropping non-matches preserves the order of what remains.
/// 3. **fetch → re-check → skip → emit** — each row is fetched alone
///    ([`TrajectorySource::row`]: borrowed when resident, read when
///    not), the full predicate re-checked on it, `offset` matches
///    skipped by reference, and the page's rows handed to the sink.
///    Nothing is cloned or encoded before a sink asks.
///
/// **Ties.** Rows with equal keys are ordered by `(source, position)`.
/// Over one collection — [`Query::execute`],
/// [`Query::execute_segmented`] and their byte sink — a descending
/// sort is the ascending order reversed wholesale, ties included. Over
/// a federation — [`Query::execute_federated`] and its byte sink —
/// ties keep ascending `(source, position)` order in both directions,
/// as a stable sort of the concatenated sources would leave them.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    predicate: Predicate,
    order: Option<(SortKey, bool)>,
    offset: usize,
    limit: Option<usize>,
}

impl Default for Query {
    fn default() -> Self {
        Query::new()
    }
}

impl Query {
    /// Matches everything until filters are added.
    pub fn new() -> Query {
        Query {
            predicate: Predicate::True,
            order: None,
            offset: 0,
            limit: None,
        }
    }

    /// Adds an arbitrary predicate (AND-composed with existing filters).
    #[must_use]
    pub fn filter(mut self, p: Predicate) -> Query {
        self.predicate = self.predicate.and(p);
        self
    }

    /// Requires a stay in `cell`.
    #[must_use]
    pub fn visited(self, cell: CellRef) -> Query {
        self.filter(Predicate::VisitedCell(cell))
    }

    /// Requires the cell sequence to contain the contiguous run `cells`.
    #[must_use]
    pub fn follows_path(self, cells: Vec<CellRef>) -> Query {
        self.filter(Predicate::SequenceContains(cells))
    }

    /// Requires the trajectory span to overlap `window`.
    #[must_use]
    pub fn during(self, window: TimeInterval) -> Query {
        self.filter(Predicate::SpanOverlaps(window))
    }

    /// Requires a goal annotation on `A_traj`.
    #[must_use]
    pub fn goal(self, value: &str) -> Query {
        self.filter(Predicate::HasTrajAnnotation(Annotation::goal(value)))
    }

    /// Requires a whole-trajectory annotation.
    #[must_use]
    pub fn annotated(self, a: Annotation) -> Query {
        self.filter(Predicate::HasTrajAnnotation(a))
    }

    /// Requires a single stay in `cell` of at least `d`.
    #[must_use]
    pub fn stayed_at_least(self, cell: CellRef, d: Duration) -> Query {
        self.filter(Predicate::MinStayIn(cell, d))
    }

    /// Requires the moving-object id.
    #[must_use]
    pub fn moving_object(self, id: &str) -> Query {
        self.filter(Predicate::MovingObject(id.to_string()))
    }

    /// Sorts results (`ascending = false` reverses). Ties keep id order.
    #[must_use]
    pub fn order_by(mut self, key: SortKey, ascending: bool) -> Query {
        self.order = Some((key, ascending));
        self
    }

    /// Skips the first `n` results (applied after sorting).
    #[must_use]
    pub fn offset(mut self, n: usize) -> Query {
        self.offset = n;
        self
    }

    /// Keeps at most `n` results (applied after sorting and offset).
    #[must_use]
    pub fn limit(mut self, n: usize) -> Query {
        self.limit = Some(n);
        self
    }

    /// The composed predicate.
    pub fn predicate(&self) -> &Predicate {
        &self.predicate
    }

    /// Plans the query against `source` — an in-memory
    /// [`TrajectoryDb`], the warehouse, a streaming engine's live
    /// snapshot — without executing it: [`AccessPath::IndexCandidates`]
    /// when the source's own indexes can narrow the predicate,
    /// [`AccessPath::FullScan`] otherwise. Moves no per-query
    /// instrument ([`TrajectorySource::plan`]).
    pub fn explain(&self, source: &dyn TrajectorySource) -> QueryPlan {
        QueryPlan {
            access: match source.plan(&self.predicate) {
                None => AccessPath::FullScan,
                Some(candidates) => AccessPath::IndexCandidates { candidates },
            },
            residual: self.predicate.clone(),
            total: source.len_hint(),
        }
    }

    fn page(&self, ties: Ties) -> Page<'_> {
        Page {
            predicate: &self.predicate,
            order: self.order,
            ties,
            offset: self.offset,
            limit: self.limit,
        }
    }

    /// Runs the query over one in-memory collection, borrowing the
    /// hits (the core and its ordering contract: see [`Query`]).
    pub fn execute<'a>(&self, db: &'a TrajectoryDb) -> Vec<Match<'a>> {
        let mut hits = Vec::new();
        self.page(Ties::Reversed)
            .run(&[db], &mut |_, id, row| match row {
                Row::Resident(trajectory, _) => hits.push(Match { id, trajectory }),
                Row::Read(_) => unreachable!("a TrajectoryDb's rows are resident"),
            });
        hits
    }

    /// Runs the query against a [`SegmentedDb`] warehouse and owns the
    /// page: result-identical (same trajectories, same order) to
    /// [`Query::execute`] over an eager [`TrajectoryDb`] built from the
    /// warehouse's iteration order, but cold segments are touched per
    /// returned *frame*, not per segment (the core: see [`Query`]). A
    /// hydrated row is cloned, a cold row is the value just read;
    /// `query.rows_materialized` counts both.
    ///
    /// # Panics
    ///
    /// If a segment body turns out corrupt mid-query (same fail-stop
    /// policy as [`SegmentedDb`] hydration; headers were validated at
    /// open).
    pub fn execute_segmented(&self, db: &SegmentedDb) -> Vec<SemanticTrajectory> {
        self.owned(&[db], Ties::Reversed)
    }

    /// Runs the query over the union of many sources and owns the page
    /// (sources may be ephemeral snapshots): only the rows of the page
    /// are cloned. Without an `order_by`, results keep source order;
    /// with one, ties keep source order in both directions — unlike
    /// [`Query::execute`]'s position tiebreak, which has no
    /// cross-source meaning (see [`Query`]).
    pub fn execute_federated(&self, sources: &[&dyn TrajectorySource]) -> Vec<SemanticTrajectory> {
        self.owned(sources, Ties::SourceOrder)
    }

    /// [`Query::execute_segmented`] with a byte sink: appends the
    /// page's rows to `out`, each as `sitm_store::encode_trajectory`
    /// writes it, in result order, and returns how many there are —
    /// byte for byte what encoding `execute_segmented`'s rows one after
    /// another would append. A row of a hydrated segment is copied out
    /// of the segment's stored bytes (its frame payload *is* that
    /// encoding) and never cloned; any other row is encoded from the
    /// borrow or from the value just read.
    ///
    /// # Panics
    ///
    /// As [`Query::execute_segmented`].
    pub fn execute_segmented_encoded(&self, db: &SegmentedDb, out: &mut Vec<u8>) -> usize {
        self.encoded(&[db], Ties::Reversed, out)
    }

    /// [`Query::execute_federated`] with the same byte sink as
    /// [`Query::execute_segmented_encoded`]: the federated page, each
    /// row as `sitm_store::encode_trajectory` writes it, nothing
    /// cloned.
    ///
    /// # Panics
    ///
    /// As [`Query::execute_segmented`], when a source is a warehouse.
    pub fn execute_federated_encoded(
        &self,
        sources: &[&dyn TrajectorySource],
        out: &mut Vec<u8>,
    ) -> usize {
        self.encoded(sources, Ties::SourceOrder, out)
    }

    /// The owning sink.
    fn owned(&self, sources: &[&dyn TrajectorySource], ties: Ties) -> Vec<SemanticTrajectory> {
        let mut out = Vec::new();
        self.page(ties).run(sources, &mut |source, _, row| {
            out.push(sources[source].materialize(row))
        });
        out
    }

    /// The byte sink.
    fn encoded(&self, sources: &[&dyn TrajectorySource], ties: Ties, out: &mut Vec<u8>) -> usize {
        let mut rows = 0;
        self.page(ties).run(sources, &mut |_, _, row| {
            match row {
                Row::Resident(_, Some(stored)) => out.extend_from_slice(stored),
                row => encode_trajectory(out, row.trajectory()),
            }
            rows += 1;
        });
        rows
    }

    /// Number of matches, skipping sort/paging work.
    pub fn count(&self, db: &TrajectoryDb) -> usize {
        federated_count(&self.predicate, &[db])
    }

    /// The test oracle: the page this query denotes, computed the naive
    /// way — every row of every source fetched and concatenated, the
    /// predicate evaluated on each, a stable sort by
    /// [`SortKey`]'s model-level comparison, skip, take. It shares
    /// nothing with the paging core: no candidates, no integer keys, no
    /// partial ordering. `reverse_ties` picks the tie rule the entry
    /// point under test documents: `true` reverses the whole ascending
    /// order on a descending sort ([`Query::execute`],
    /// [`Query::execute_segmented`]), `false` keeps ties in source
    /// order in both directions ([`Query::execute_federated`]).
    #[doc(hidden)]
    pub fn oracle<'a>(
        &self,
        sources: &[&'a dyn TrajectorySource],
        reverse_ties: bool,
    ) -> Vec<Row<'a>> {
        let mut rows: Vec<Row<'a>> = sources
            .iter()
            .flat_map(|source| (0..source.len_hint() as TrajId).map(|at| source.row(at)))
            .filter(|row| self.predicate.matches(row.trajectory()))
            .collect();
        if let Some((key, ascending)) = self.order {
            let by_key = |a: &Row<'a>, b: &Row<'a>| key.compare(a.trajectory(), b.trajectory());
            if ascending {
                rows.sort_by(by_key);
            } else if reverse_ties {
                rows.sort_by(by_key);
                rows.reverse();
            } else {
                rows.sort_by(|a, b| by_key(b, a));
            }
        }
        rows.into_iter()
            .skip(self.offset)
            .take(self.limit.unwrap_or(usize::MAX))
            .collect()
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
            traj("d", &[(0, 50, 80), (1, 80, 90), (2, 90, 95)], "visit"),
        ])
    }

    #[test]
    fn filterless_query_returns_everything() {
        let db = db();
        assert_eq!(Query::new().execute(&db).len(), 4);
        assert_eq!(Query::new().count(&db), 4);
    }

    #[test]
    fn fluent_filters_compose_as_and() {
        let db = db();
        let hits = Query::new().visited(cell(1)).goal("visit").execute(&db);
        let ids: Vec<TrajId> = hits.iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![0, 1, 3]);
        let hits = Query::new().visited(cell(2)).goal("buy").execute(&db);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].trajectory.moving_object, "c");
    }

    #[test]
    fn path_query_matches_fig5_style_runs() {
        let db = db();
        let hits = Query::new()
            .follows_path(vec![cell(0), cell(1), cell(2)])
            .execute(&db);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].trajectory.moving_object, "d");
    }

    #[test]
    fn during_uses_span_overlap() {
        let db = db();
        let w = TimeInterval::new(Timestamp(16), Timestamp(60));
        let ids: Vec<TrajId> = Query::new()
            .during(w)
            .execute(&db)
            .iter()
            .map(|m| m.id)
            .collect();
        assert_eq!(ids, vec![0, 1, 3]);
    }

    #[test]
    fn ordering_and_paging() {
        let db = db();
        let hits = Query::new()
            .order_by(SortKey::SpanDuration, false)
            .execute(&db);
        let mos: Vec<&str> = hits
            .iter()
            .map(|m| m.trajectory.moving_object.as_str())
            .collect();
        assert_eq!(mos, vec!["c", "d", "b", "a"]);
        let page = Query::new()
            .order_by(SortKey::SpanDuration, false)
            .offset(1)
            .limit(2)
            .execute(&db);
        let mos: Vec<&str> = page
            .iter()
            .map(|m| m.trajectory.moving_object.as_str())
            .collect();
        assert_eq!(mos, vec!["d", "b"]);
    }

    #[test]
    fn all_sort_keys_are_total() {
        let db = db();
        for key in [
            SortKey::Start,
            SortKey::End,
            SortKey::SpanDuration,
            SortKey::TotalDwell,
            SortKey::MovingObject,
            SortKey::TraceLength,
        ] {
            let asc = Query::new().order_by(key, true).execute(&db);
            let desc = Query::new().order_by(key, false).execute(&db);
            assert_eq!(asc.len(), 4);
            let mut rev: Vec<TrajId> = desc.iter().map(|m| m.id).collect();
            rev.reverse();
            let fwd: Vec<TrajId> = asc.iter().map(|m| m.id).collect();
            assert_eq!(fwd, rev, "desc must be exact reverse of asc for {key:?}");
        }
    }

    #[test]
    fn explain_reports_index_usage() {
        let db = db();
        let plan = Query::new().visited(cell(2)).explain(&db);
        assert_eq!(plan.access, AccessPath::IndexCandidates { candidates: 3 });
        assert!((plan.selectivity_bound() - 0.75).abs() < 1e-9);
        assert!(plan.to_string().contains("IndexCandidates"));

        let scan = Query::new()
            .filter(Predicate::MinTotalDwell(Duration::seconds(1)))
            .explain(&db);
        assert_eq!(scan.access, AccessPath::FullScan);
        assert_eq!(scan.selectivity_bound(), 1.0);
        assert!(scan.to_string().contains("FullScan"));
    }

    #[test]
    fn index_path_equals_full_scan_results() {
        let db = db();
        let q = Query::new()
            .visited(cell(1))
            .during(TimeInterval::new(Timestamp(0), Timestamp(90)));
        let indexed: Vec<TrajId> = q.execute(&db).iter().map(|m| m.id).collect();
        let scanned: Vec<TrajId> = db
            .trajectories()
            .iter()
            .enumerate()
            .filter(|(_, t)| q.predicate().matches(t))
            .map(|(i, _)| i as TrajId)
            .collect();
        assert_eq!(indexed, scanned);
    }

    #[test]
    fn empty_db_queries() {
        let db = TrajectoryDb::build(vec![]);
        assert!(Query::new().execute(&db).is_empty());
        assert_eq!(Query::new().visited(cell(0)).count(&db), 0);
        assert_eq!(Query::new().explain(&db).selectivity_bound(), 0.0);
    }

    #[test]
    fn stayed_at_least_and_moving_object() {
        let db = db();
        let hits = Query::new()
            .stayed_at_least(cell(2), Duration::seconds(100))
            .execute(&db);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].trajectory.moving_object, "c");
        assert_eq!(Query::new().moving_object("d").count(&db), 1);
        assert_eq!(Query::new().moving_object("nobody").count(&db), 0);
    }
}
