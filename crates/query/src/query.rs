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
//! Execution consults the database's indexes for a candidate superset
//! ([`TrajectoryDb::candidates`]), re-checks the predicate on each
//! candidate, then sorts and truncates. [`Query::explain`] reports the
//! chosen access path without running the query.

use std::cmp::Ordering;
use std::fmt;
use std::ops::ControlFlow;

use sitm_core::{Annotation, Duration, SemanticTrajectory, TimeInterval};
use sitm_space::CellRef;

use sitm_store::encode_trajectory;

use crate::federation::{federated_for_each, TrajectorySource};
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

/// One row the segmented paging core hands its sink.
enum PageRow<'a> {
    /// A row of a hydrated segment, borrowed: the decoded trajectory
    /// and its stored encoding.
    Resident(&'a SemanticTrajectory, &'a [u8]),
    /// A row read out of a cold segment: decoded from its frame, or
    /// cloned out of the row cache.
    Read(SemanticTrajectory),
}

impl PageRow<'_> {
    fn trajectory(&self) -> &SemanticTrajectory {
        match self {
            PageRow::Resident(t, _) => t,
            PageRow::Read(t) => t,
        }
    }
}

/// Visits `ids` in `(key, global position)` order — descending is that
/// order reversed wholesale — until `visit` breaks, sorting no further
/// than the page reaches: with `reach = offset + limit`, the first
/// `reach` candidates of the order are selected and sorted, which is
/// the whole page unless `visit` rejects some of them. If that head
/// runs dry with the page still short, the rest is sorted then and the
/// walk goes on (correct, not fast). `reach: None` sorts everything.
fn walk_ordered<K: Ord>(
    ids: &[TrajId],
    key: impl Fn(TrajId) -> K,
    ascending: bool,
    reach: Option<usize>,
    visit: &mut dyn FnMut(TrajId) -> ControlFlow<()>,
) {
    // Positions are distinct, so the order is total and an unstable
    // sort is deterministic.
    let directed = |a: &(K, TrajId), b: &(K, TrajId)| {
        if ascending {
            a.cmp(b)
        } else {
            b.cmp(a)
        }
    };
    let order_span = sitm_obs::trace::child_detail("order_page");
    let mut entries: Vec<(K, TrajId)> = ids.iter().map(|&gid| (key(gid), gid)).collect();
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
    let _fetch = sitm_obs::trace::child_detail("fetch_rows");
    if head.iter().try_for_each(|&(_, gid)| visit(gid)).is_break() {
        return;
    }
    {
        let _order = sitm_obs::trace::child_detail("order_page");
        tail.sort_unstable_by(directed);
    }
    let _ = tail.iter().try_for_each(|&(_, gid)| visit(gid));
}

/// A declarative trajectory query: predicate + ordering + truncation.
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

    /// Plans the query against `db` without executing it.
    pub fn explain(&self, db: &TrajectoryDb) -> QueryPlan {
        let access = match db.candidates(&self.predicate) {
            CandidateSet::All => AccessPath::FullScan,
            CandidateSet::Ids(ids) => AccessPath::IndexCandidates {
                candidates: ids.len(),
            },
        };
        QueryPlan {
            access,
            residual: self.predicate.clone(),
            total: db.len(),
        }
    }

    /// Plans the query against any [`TrajectorySource`] — the warehouse
    /// *or* a streaming engine's live snapshot. Reports
    /// [`AccessPath::IndexCandidates`] when the source's own indexes can
    /// narrow the predicate (for `sitm-stream`'s `LiveSnapshot` that is
    /// the incrementally maintained live index; see its `live_query`
    /// module for exactly when the live path is indexable) and
    /// [`AccessPath::FullScan`] otherwise.
    pub fn explain_source(&self, source: &dyn TrajectorySource) -> QueryPlan {
        let access = match source.candidates(&self.predicate) {
            CandidateSet::All => AccessPath::FullScan,
            CandidateSet::Ids(ids) => AccessPath::IndexCandidates {
                candidates: ids.len(),
            },
        };
        QueryPlan {
            access,
            residual: self.predicate.clone(),
            total: source.len_hint(),
        }
    }

    /// Runs the full query — predicate, ordering, paging — over the
    /// union of many sources, narrowing each source through its own
    /// indexes. Results are cloned out (sources may be ephemeral
    /// snapshots). Without an `order_by`, results keep source order;
    /// with one, ties keep source order (the sort is stable), unlike
    /// [`Query::execute`]'s id tiebreak which has no cross-source
    /// meaning.
    pub fn execute_federated(&self, sources: &[&dyn TrajectorySource]) -> Vec<SemanticTrajectory> {
        let mut hits: Vec<SemanticTrajectory> = Vec::new();
        federated_for_each(&self.predicate, sources, |_, t| hits.push(t.clone()));
        if let Some((key, ascending)) = self.order {
            hits.sort_by(|a, b| {
                let ord = key.compare(a, b);
                if ascending {
                    ord
                } else {
                    ord.reverse()
                }
            });
        }
        let hits: Vec<SemanticTrajectory> = hits.into_iter().skip(self.offset).collect();
        match self.limit {
            Some(n) => hits.into_iter().take(n).collect(),
            None => hits,
        }
    }

    /// Runs the query: candidates → residual filter → sort → page.
    pub fn execute<'a>(&self, db: &'a TrajectoryDb) -> Vec<Match<'a>> {
        let mut hits: Vec<Match<'a>> = match db.candidates(&self.predicate) {
            CandidateSet::All => db
                .trajectories()
                .iter()
                .enumerate()
                .filter(|(_, t)| self.predicate.matches(t))
                .map(|(i, t)| Match {
                    id: i as TrajId,
                    trajectory: t,
                })
                .collect(),
            CandidateSet::Ids(ids) => ids
                .into_iter()
                .filter_map(|id| db.get(id).map(|t| (id, t)))
                .filter(|(_, t)| self.predicate.matches(t))
                .map(|(id, t)| Match { id, trajectory: t })
                .collect(),
        };
        if let Some((key, ascending)) = self.order {
            hits.sort_by(|a, b| {
                let ord = key
                    .compare(a.trajectory, b.trajectory)
                    .then(a.id.cmp(&b.id));
                if ascending {
                    ord
                } else {
                    ord.reverse()
                }
            });
        }
        let hits: Vec<Match<'a>> = hits.into_iter().skip(self.offset).collect();
        match self.limit {
            Some(n) => hits.into_iter().take(n).collect(),
            None => hits,
        }
    }

    /// Runs the full query — predicate, ordering, paging — directly
    /// against a [`SegmentedDb`] warehouse, pushing the sort and the
    /// page down onto the segments' **offset directories**.
    ///
    /// Result-identical (same trajectories, same order) to
    /// [`Query::execute`] over an eager [`TrajectoryDb`] built from the
    /// warehouse's iteration order — global positions are the id
    /// tiebreak — but cold segments are touched per *frame*, not per
    /// segment:
    ///
    /// * no `order_by`: candidates stream in warehouse order and the
    ///   scan stops as soon as the page is full;
    /// * `order_by` [`SortKey::Start`] / [`SortKey::End`] /
    ///   [`SortKey::SpanDuration`]: the sort key is read from the
    ///   directory entries (span start/end are recorded per frame), so
    ///   ordering + paging decide *which* frames to decode before any
    ///   trajectory is materialized;
    /// * content-derived keys ([`SortKey::TotalDwell`],
    ///   [`SortKey::MovingObject`], [`SortKey::TraceLength`]): the sort
    ///   key is read from the segments' persisted **sort columns**
    ///   (dwell seconds, trace length, and an index into the zone map's
    ///   sorted object set per row), so ordering + paging again decide
    ///   which frames to decode before any trajectory is materialized.
    ///
    /// **Ordering stops where the page ends.** With a `limit`, only the
    /// first `offset + limit` candidates of the order are selected and
    /// sorted; the rest stay unordered unless the predicate re-check
    /// rejects so many of those that the page is still short, and only
    /// then is the remainder sorted and the walk continued. Without a
    /// `limit` every candidate is sorted.
    ///
    /// **Rows are borrowed until they are returned.** A row of a
    /// hydrated segment is re-checked and skipped by reference
    /// ([`sitm_store::warehouse::Segment::resident_row`]); a row of a
    /// cold segment is read alone (row cache, else one frame). The one
    /// paging core feeds two sinks: this method *owns* what the page
    /// holds — a clone per hydrated row, the value just read per cold
    /// row — and [`Query::execute_segmented_encoded`] copies the page's
    /// stored bytes and owns nothing. `query.rows_materialized` counts
    /// the owned values either made.
    ///
    /// # Panics
    ///
    /// If a segment body turns out corrupt mid-query (same fail-stop
    /// policy as [`SegmentedDb`] hydration; headers were validated at
    /// open).
    pub fn execute_segmented(&self, db: &SegmentedDb) -> Vec<SemanticTrajectory> {
        let mut out = Vec::new();
        self.page_segmented(db, &mut |row| {
            out.push(match row {
                PageRow::Resident(t, _) => {
                    db.rows_materialized().inc();
                    t.clone()
                }
                PageRow::Read(t) => t,
            })
        });
        out
    }

    /// [`Query::execute_segmented`] with a byte sink: appends the
    /// page's rows to `out`, each as `sitm_store::encode_trajectory`
    /// writes it, in result order, and returns how many there are —
    /// byte for byte what encoding `execute_segmented`'s rows one after
    /// another would append. A row of a hydrated segment is copied out
    /// of the segment's stored bytes (its frame payload *is* that
    /// encoding) and never cloned; a row read from a cold segment is
    /// encoded from the value just read.
    ///
    /// # Panics
    ///
    /// As [`Query::execute_segmented`].
    pub fn execute_segmented_encoded(&self, db: &SegmentedDb, out: &mut Vec<u8>) -> usize {
        let mut rows = 0;
        self.page_segmented(db, &mut |row| {
            match row {
                PageRow::Resident(_, stored) => out.extend_from_slice(stored),
                PageRow::Read(t) => encode_trajectory(out, &t),
            }
            rows += 1;
        });
        rows
    }

    /// The paging core behind both segmented entry points: candidates →
    /// order as far as the page reaches → lazily fetch, re-check, skip
    /// → hand each row of the page to `emit`, in result order.
    fn page_segmented<'a>(&self, db: &'a SegmentedDb, emit: &mut dyn FnMut(PageRow<'a>)) {
        let segments = db.store().segments();
        if segments.is_empty() {
            return;
        }
        // Global position → (segment, local index) via cumulative bases.
        let mut bases: Vec<TrajId> = Vec::with_capacity(segments.len());
        let mut acc: TrajId = 0;
        for s in segments {
            bases.push(acc);
            acc += s.len() as TrajId;
        }
        let locate = |gid: TrajId| -> (usize, usize) {
            let si = match bases.binary_search(&gid) {
                Ok(i) => i,
                Err(i) => i - 1,
            };
            (si, (gid - bases[si]) as usize)
        };
        // Candidate positions, ascending == warehouse order (object
        // index + zone maps + per-segment postings already applied).
        let ids: Vec<TrajId> = match db.candidates(&self.predicate) {
            CandidateSet::All => (0..db.len() as TrajId).collect(),
            CandidateSet::Ids(ids) => ids,
        };
        if self.limit == Some(0) {
            return;
        }
        // One candidate: fetch (borrowed when resident), re-check,
        // skip or emit. Breaks once the page is full.
        let (mut skipped, mut emitted) = (0, 0);
        let mut visit = |gid: TrajId| -> ControlFlow<()> {
            let (si, local) = locate(gid);
            let segment = &segments[si];
            let row = match segment.resident_row(local) {
                Some((t, stored)) => PageRow::Resident(t, stored),
                None => {
                    db.rows_materialized().inc();
                    PageRow::Read(segment.read_trajectory(local).unwrap_or_else(|e| {
                        panic!("segment {} corrupt mid-query: {e}", segment.id)
                    }))
                }
            };
            if !self.predicate.matches(row.trajectory()) {
                return ControlFlow::Continue(());
            }
            if skipped < self.offset {
                skipped += 1;
                return ControlFlow::Continue(());
            }
            emit(row);
            emitted += 1;
            if Some(emitted) == self.limit {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        };
        // The frame-visit order: warehouse order when unsorted, or
        // (key, global position) — `execute`'s exact ordering contract
        // (ties keep id order; descending reverses wholesale). Sorting
        // every candidate by a resident key and lazily filtering is
        // identical to filter-then-sort: dropping non-matches preserves
        // the relative order of what remains.
        let reach = self.limit.map(|n| self.offset.saturating_add(n));
        let Some((key, ascending)) = self.order else {
            let _fetch = sitm_obs::trace::child_detail("fetch_rows");
            let _ = ids.into_iter().try_for_each(visit);
            return;
        };
        match key {
            // Span keys sit in the directory entries.
            SortKey::Start | SortKey::End | SortKey::SpanDuration => {
                let directory_key = |gid: TrajId| -> i64 {
                    let (si, local) = locate(gid);
                    let e = segments[si].directory().entries[local];
                    match key {
                        SortKey::Start => e.start,
                        SortKey::End => e.end,
                        _ => e.end - e.start,
                    }
                };
                walk_ordered(&ids, directory_key, ascending, reach, &mut visit)
            }
            // Content keys sit in the sort columns. Dwell is persisted
            // in seconds — the exact value `Duration` ordering compares.
            SortKey::TotalDwell | SortKey::TraceLength => {
                let column_key = |gid: TrajId| -> i64 {
                    let (si, local) = locate(gid);
                    let c = segments[si].sort_columns();
                    match key {
                        SortKey::TotalDwell => c.dwell[local],
                        _ => c.trace_len[local] as i64,
                    }
                };
                walk_ordered(&ids, column_key, ascending, reach, &mut visit)
            }
            // The object column indexes into the zone map's sorted
            // object set, so the globally comparable string is resident.
            SortKey::MovingObject => {
                let objects: Vec<Vec<&str>> = segments
                    .iter()
                    .map(|s| s.zone_map.objects.iter().map(|o| o.as_str()).collect())
                    .collect();
                let object_key = |gid: TrajId| -> &str {
                    let (si, local) = locate(gid);
                    objects[si][segments[si].sort_columns().object[local] as usize]
                };
                walk_ordered(&ids, object_key, ascending, reach, &mut visit)
            }
        }
    }

    /// Number of matches, skipping sort/paging work.
    pub fn count(&self, db: &TrajectoryDb) -> usize {
        match db.candidates(&self.predicate) {
            CandidateSet::All => db
                .trajectories()
                .iter()
                .filter(|t| self.predicate.matches(t))
                .count(),
            CandidateSet::Ids(ids) => ids
                .into_iter()
                .filter_map(|id| db.get(id))
                .filter(|t| self.predicate.matches(t))
                .count(),
        }
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
