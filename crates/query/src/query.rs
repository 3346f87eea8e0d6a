//! The fluent query builder and its executor.
//!
//! ```
//! use sitm_query::{Query, SortKey, TrajectoryDb};
//! # use sitm_core::{Annotation, AnnotationSet, PresenceInterval, Timestamp,
//! #     Trace, TransitionTaken, SemanticTrajectory};
//! # use sitm_graph::{CellRef, LayerIdx, NodeId};
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
//! limit — under `True`, the offset is skipped by position, unfetched.
//! [`TrajectorySource::plan`] reports how many candidates a source's
//! indexes narrow a predicate to, without running the query.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::ops::ControlFlow;

use sitm_core::{Annotation, Duration, SemanticTrajectory, TimeInterval};
use sitm_graph::CellRef;
use sitm_obs::trace::{child_detail, ChildSpan};

use sitm_store::encode_trajectory;

use crate::federation::{federated_count, Row, SortKeys, StartRun, TrajectorySource};
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
        // Under `True` no candidate can be rejected, so the first
        // `offset` of them in order are exactly the rows to skip: they
        // are dropped by position, none fetched. Any other predicate
        // skips matches one by one, after fetching and re-checking.
        let skip = if *self.predicate == Predicate::True {
            self.offset
        } else {
            0
        };
        // One candidate: fetch (borrowed when resident), re-check,
        // skip or emit. Breaks once the page is full.
        let (mut skipped, mut emitted) = (skip, 0);
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
            let mut to_drop = skip;
            for (s, source) in sources.iter().enumerate() {
                let candidates = source.candidates(self.predicate);
                let _fetch = child_detail("fetch_rows");
                let dropped = to_drop.min(candidates.cardinality(source.len_hint()));
                to_drop -= dropped;
                let mut positions = candidates
                    .within(0..source.len_hint() as TrajId)
                    .skip(dropped);
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
        if key == SortKey::Start {
            let runs = start_runs(sources, &candidates);
            let ties_descend = !ascending && self.ties == Ties::Reversed;
            merge_runs(
                runs,
                (ascending, ties_descend),
                skip,
                order_span,
                &mut visit,
            );
            return;
        }
        let entries = sources
            .iter()
            .zip(&candidates)
            .map(|(source, candidates)| candidates.cardinality(source.len_hint()))
            .sum();
        let mut keys = SortKeys::with_capacity(key, entries);
        for (s, (source, candidates)) in sources.iter().zip(&candidates).enumerate() {
            source.sort_keys(key, candidates, s as u32, &mut keys);
        }
        let reach = self.limit.map(|n| (self.offset - skip).saturating_add(n));
        let direction = (ascending, !ascending && self.ties == Ties::SourceOrder);
        let page = (skip, reach);
        match keys {
            SortKeys::Int(keys) => walk_ordered(keys, direction, page, order_span, &mut visit),
            SortKeys::Object(keys) => walk_ordered(keys, direction, page, order_span, &mut visit),
        }
    }
}

/// The candidates of `sources` as start-ordered runs, each tagged with
/// its source. A source without run order sorts its own entries into
/// one run.
fn start_runs<'c>(
    sources: &[&'c dyn TrajectorySource],
    candidates: &'c [CandidateSet],
) -> Vec<(u32, StartRun<'c>)> {
    let mut tagged = Vec::new();
    for (s, source) in sources.iter().enumerate() {
        let runs = source.start_runs(&candidates[s]).unwrap_or_else(|| {
            let entries = candidates[s].cardinality(source.len_hint());
            let mut keys = SortKeys::with_capacity(SortKey::Start, entries);
            source.sort_keys(SortKey::Start, &candidates[s], s as u32, &mut keys);
            let SortKeys::Int(entries) = keys else {
                unreachable!("start keys are integers")
            };
            let entries = entries.into_iter().map(|(start, _, at)| (start, at));
            vec![StartRun::sorted(entries.collect())]
        });
        tagged.extend(runs.into_iter().map(|run| (s as u32, run)));
    }
    tagged
}

/// One [`StartRun`] of one source, walked in the page's direction: a
/// descending page reads the run from its end, with each start
/// complemented (`!start` reverses the order of `i64`s exactly), so
/// the merge below is written for ascending keys only.
struct Cursor<'r> {
    source: u32,
    run: StartRun<'r>,
    ascending: bool,
    /// Index (in walk order) of the next candidate, and that candidate.
    next: usize,
    head: Option<(i64, TrajId)>,
}

impl Cursor<'_> {
    /// The `i`-th candidate in walk order: `(directed key, position)`.
    fn get(&self, i: usize) -> (i64, TrajId) {
        if self.ascending {
            self.run.get(i)
        } else {
            let (start, at) = self.run.get(self.run.len() - 1 - i);
            (!start, at)
        }
    }

    fn seek(&mut self, next: usize) {
        self.next = next;
        self.head = (next < self.run.len()).then(|| self.get(next));
    }

    /// How many candidates have a directed key below `key`.
    fn below(&self, key: i64) -> usize {
        let (mut lo, mut hi) = (0, self.run.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.get(mid).0 < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Visits the candidates of `runs` — `(source, run)` — in start order
/// until `visit` breaks: a k-way merge that reads each run's keys only
/// as far as the page reaches, so a page costs its own rows, not an
/// entry per candidate. The runs' heads wait in a binary heap, so each
/// row costs O(log runs) comparisons however many segments there are.
///
/// Equal starts form a tie group, gathered from every run and ordered
/// by `(source, position)`: ascending, or descending when
/// `ties_descend` (a descending page under [`Ties::Reversed`]): the
/// order [`walk_ordered`] gives the same entries under the same
/// [`Ties`] rule.
///
/// `skip` entries of the order are dropped by rank, none visited:
/// the page begins in the tie group of the smallest directed key `K`
/// with more than `skip` entries at or below it. A binary search over
/// the key finds `K`, counting each run by its own binary search, so
/// the skip costs O(runs · log rows · 64) whatever the offset. The
/// entries below `K` are passed over, and the first
/// `skip − below` of `K`'s group dropped.
fn merge_runs(
    runs: Vec<(u32, StartRun<'_>)>,
    (ascending, ties_descend): (bool, bool),
    skip: usize,
    order_span: ChildSpan,
    visit: &mut dyn FnMut(usize, TrajId) -> ControlFlow<()>,
) {
    let mut cursors: Vec<Cursor<'_>> = runs
        .into_iter()
        .filter(|(_, run)| run.len() > 0)
        .map(|(source, run)| {
            let mut cursor = Cursor {
                source,
                run,
                ascending,
                next: 0,
                head: None,
            };
            cursor.seek(0);
            cursor
        })
        .collect();
    let mut drop_first = 0;
    if skip > 0 {
        let total: usize = cursors.iter().map(|c| c.run.len()).sum();
        if skip >= total {
            return;
        }
        let at_or_below = |key: i64| -> usize {
            let key = key.checked_add(1);
            let run = |c: &Cursor<'_>| key.map_or(c.run.len(), |key| c.below(key));
            cursors.iter().map(run).sum()
        };
        let first = cursors.iter().map(|c| c.get(0).0).min();
        let last = cursors.iter().map(|c| c.get(c.run.len() - 1).0).max();
        let (mut lo, mut hi) = (first.expect("a run"), last.expect("a run"));
        while lo < hi {
            let mid = ((lo as i128 + hi as i128) >> 1) as i64;
            if at_or_below(mid) > skip {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let mut below = 0;
        for cursor in &mut cursors {
            cursor.seek(cursor.below(lo));
            below += cursor.next;
        }
        drop_first = skip - below;
    }
    drop(order_span);
    let _fetch = child_detail("fetch_rows");
    // The cursors' heads by `(directed key, cursor)`, smallest first.
    let mut heads: BinaryHeap<Reverse<(i64, usize)>> = cursors
        .iter()
        .enumerate()
        .filter_map(|(c, cursor)| cursor.head.map(|(key, _)| Reverse((key, c))))
        .collect();
    let mut group: Vec<(u32, TrajId)> = Vec::new();
    while let Some(&Reverse((key, _))) = heads.peek() {
        group.clear();
        while let Some(mut top) = heads.peek_mut().filter(|top| top.0 .0 == key) {
            let cursor = &mut cursors[top.0 .1];
            while let Some((_, at)) = cursor.head.filter(|&(k, _)| k == key) {
                group.push((cursor.source, at));
                cursor.seek(cursor.next + 1);
            }
            match cursor.head {
                Some((next, _)) => top.0 .0 = next,
                None => drop(PeekMut::pop(top)),
            }
        }
        if ties_descend {
            group.sort_unstable_by(|a, b| b.cmp(a));
        } else {
            group.sort_unstable();
        }
        for &(source, at) in &group[drop_first..] {
            if visit(source as usize, at).is_break() {
                return;
            }
        }
        drop_first = 0;
    }
}

/// Visits `entries` in order until `visit` breaks, sorting no further
/// than the page reaches. `(skip, reach)`: the first `skip` entries of
/// the order are dropped by position — one select, no entry visited,
/// nothing sorted — and of the rest, the first `reach` are selected
/// and sorted, which is the whole page unless `visit` rejects some of
/// them. If that head runs dry with the page still short, the rest is
/// sorted then and the walk goes on (correct, not fast). `reach: None`
/// sorts everything after the skip.
///
/// The caller skips by position only when no entry can be rejected
/// (`skip = offset`, `reach = limit` under [`Predicate::True`]); for
/// any other predicate `skip` is 0, `reach` is `offset + limit`, and
/// `visit` skips matches by reference. A page by [`SortKey::Start`]
/// does not come here: [`merge_runs`] walks it.
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
    (skip, reach): (usize, Option<usize>),
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
    let skip = skip.min(entries.len());
    if 0 < skip && skip < entries.len() {
        entries.select_nth_unstable_by(skip, directed);
    }
    let rest = &mut entries[skip..];
    let head = match reach {
        Some(reach) if reach < rest.len() => {
            rest.select_nth_unstable_by(reach, directed);
            reach
        }
        _ => rest.len(),
    };
    let (head, tail) = rest.split_at_mut(head);
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
///    full. By [`SortKey::Start`], the sources' candidates come as
///    sorted runs ([`TrajectorySource::start_runs`]: a warehouse's
///    segments each store a run sorted by start; a source without run
///    order, such as a [`TrajectoryDb`] or a live snapshot, sorts its
///    own entries into one run) and a k-way merge walks them by
///    `(start, source, position)` as far as the page reaches: no entry
///    is built per candidate of a warehouse. By any other
///    key, every candidate contributes a `(key, source, position)`
///    entry ([`TrajectorySource::sort_keys`] — a warehouse reads them
///    off its offset directories and sort columns, decoding nothing);
///    only the first `offset + limit` entries of the order are
///    selected and sorted. The rest stay unordered unless the re-check
///    rejects so many of those that the page is still short — only
///    then is the remainder sorted and the walk continued. Sorting
///    candidates and filtering lazily equals filter-then-sort:
///    dropping non-matches preserves the order of what remains.
///    Under [`Predicate::True`] every candidate matches, so the
///    `offset` is skipped by order position instead: the merge finds
///    the start the page begins at by binary search over each run (its
///    tie group is ordered by `(source, position)` and entered part
///    way), and the entry walk drops the first `offset` entries with
///    one select, unsorted, and selects and sorts only the `limit`
///    after them. Without an `order_by`, whole sources and runs of
///    positions are skipped by count. Either way no skipped row is
///    fetched, and a page costs its own rows — plus its key extraction
///    where it builds entries — whatever its offset.
/// 3. **fetch → re-check → skip → emit** — each row is fetched alone
///    ([`TrajectorySource::row`]: borrowed when resident, read when
///    not), the full predicate re-checked on it, `offset` matches
///    skipped by reference (every predicate but `True`: a candidate
///    may fail the re-check, so only a fetched row can be counted as
///    skipped), and the page's rows handed to the sink. Nothing is
///    cloned or encoded before a sink asks.
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
        let visited = Query::new().visited(cell(2));
        assert_eq!(db.plan(visited.predicate()), Some(3), "3 of 4 rows");
        assert_eq!(db.len_hint(), 4);

        let scan = Query::new().filter(Predicate::MinTotalDwell(Duration::seconds(1)));
        assert_eq!(db.plan(scan.predicate()), None, "a full scan");
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
        assert_eq!(db.plan(Query::new().visited(cell(0)).predicate()), Some(0));
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
