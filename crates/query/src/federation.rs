//! Cross-source query federation.
//!
//! The warehouse view of the SITM (Mireku Kwakye's trajectory-warehouse
//! line in the related work) has trajectories living in *several places
//! at once*: an indexed [`TrajectoryDb`] of completed visits, the
//! segment tier ([`crate::SegmentedDb`]), and the live shard state of
//! one or more streaming engines. A query like "who is on the Fig. 5
//! exit path right now?" must see the union.
//!
//! [`TrajectorySource`] abstracts one such place as a **positional**
//! collection: `len_hint()` rows at positions `0..len_hint()` in the
//! source's own order, a row fetched by position ([`Row`]: borrowed
//! when the source holds it decoded, with its stored encoding when it
//! holds that too, owned when it had to be read), a sound candidate
//! superset for a predicate, and — for ordered pages — a batch of sort
//! keys for candidate positions. That is everything the crate's one
//! executor (the paging core documented on [`crate::Query`]) needs, so
//! every entry point — [`crate::Query::execute`],
//! [`crate::Query::execute_segmented`],
//! [`crate::Query::execute_federated`], the byte sinks,
//! [`federated_count`] and the `count_matching` methods — is a sink of
//! a few lines over it, and nothing is copied until a sink asks.
//!
//! ## Index-served selection
//!
//! A source that owns secondary indexes overrides
//! [`TrajectorySource::candidates`] to narrow a predicate to a *sound
//! candidate superset* before any row is touched — [`TrajectoryDb`]
//! answers from its cell/annotation/moving-object postings and interval
//! trees, [`crate::SegmentedDb`] from its object index, zone maps and
//! per-segment postings, and `sitm-stream`'s `LiveSnapshot` from its
//! incrementally maintained live postings. The core always re-checks
//! the full predicate on every candidate, so an indexed source and a
//! scanning source are indistinguishable in their results (only in
//! their cost — [`TrajectorySource::plan`] reports a source's
//! candidate count). Sources without indexes inherit the default full scan.
//!
//! Consistency is per-source: each source contributes a snapshot of its
//! own state at scan time (streaming engines hand out snapshot-consistent
//! live state; see `sitm-stream`'s `live_query` module). The federation
//! layer adds no cross-source barrier, matching the usual federated-query
//! contract: per-participant snapshot isolation, union of results.

use sitm_core::SemanticTrajectory;
use sitm_store::warehouse::DirectoryEntry;

use crate::index::{CandidateSet, TrajId, TrajectoryDb};
use crate::predicate::Predicate;
use crate::query::{Page, SortKey};

/// One row of a [`TrajectorySource`], as the executor receives it.
#[derive(Debug)]
pub enum Row<'a> {
    /// A row the source holds decoded, borrowed — beside its stored
    /// encoding (the bytes `sitm_store::encode_trajectory` writes for
    /// it) when the source holds that too.
    Resident(&'a SemanticTrajectory, Option<&'a [u8]>),
    /// A row the source had to read to answer: decoded from its frame,
    /// or cloned out of a cache.
    Read(SemanticTrajectory),
}

impl Row<'_> {
    /// The row's trajectory.
    pub fn trajectory(&self) -> &SemanticTrajectory {
        match self {
            Row::Resident(t, _) => t,
            Row::Read(t) => t,
        }
    }

    /// The row as an owned value: a clone of a borrowed row, the value
    /// itself of a read one.
    pub fn into_owned(self) -> SemanticTrajectory {
        match self {
            Row::Resident(t, _) => t.clone(),
            Row::Read(t) => t,
        }
    }
}

/// The ordering entries of one sorted query — `(key, source,
/// position)`, 16 bytes for an integer key — in one column whose key
/// type follows the [`SortKey`]: `Object` for
/// [`SortKey::MovingObject`], `Int` for every other key (seconds for
/// times and durations, the count for [`SortKey::TraceLength`]).
#[derive(Debug)]
pub enum SortKeys<'a> {
    /// Integer keys.
    Int(Vec<(i64, u32, TrajId)>),
    /// Moving-object identifiers, borrowed from the sources.
    Object(Vec<(&'a str, u32, TrajId)>),
}

impl<'a> SortKeys<'a> {
    /// The empty column for `key`, with room for `entries`.
    pub(crate) fn with_capacity(key: SortKey, entries: usize) -> SortKeys<'a> {
        match key {
            SortKey::MovingObject => SortKeys::Object(Vec::with_capacity(entries)),
            _ => SortKeys::Int(Vec::with_capacity(entries)),
        }
    }
}

/// Candidates of one source in start order: ascending by
/// [`SortKey::Start`] and, within a start, by position. A source that
/// stores its rows in start order hands the paging core its candidates
/// as such runs ([`TrajectorySource::start_runs`]), so a start-ordered
/// page merges them instead of building and ordering an entry per
/// candidate.
#[derive(Debug)]
pub struct StartRun<'a>(RunKeys<'a>);

#[derive(Debug)]
enum RunKeys<'a> {
    /// Rows stored in start order (a warehouse segment's run): row `i`
    /// is at position `base + i` and starts at `entries[i].start`;
    /// `candidates`, when narrowed, are the positions of the run (all
    /// of `base..base + entries.len()`).
    Directory {
        entries: &'a [DirectoryEntry],
        base: TrajId,
        candidates: Option<&'a [TrajId]>,
    },
    /// `(start, position)` entries, sorted.
    Sorted(Vec<(i64, TrajId)>),
}

impl<'a> StartRun<'a> {
    /// The rows of a directory in start order, at positions from
    /// `base`: every row, or only the positions of `candidates` (which
    /// ascend and lie in the run).
    pub(crate) fn directory(
        entries: &'a [DirectoryEntry],
        base: TrajId,
        candidates: Option<&'a [TrajId]>,
    ) -> StartRun<'a> {
        StartRun(RunKeys::Directory {
            entries,
            base,
            candidates,
        })
    }

    /// A run of `(start, position)` entries, sorted here.
    pub(crate) fn sorted(mut entries: Vec<(i64, TrajId)>) -> StartRun<'a> {
        entries.sort_unstable();
        StartRun(RunKeys::Sorted(entries))
    }

    /// The number of candidates in the run.
    pub(crate) fn len(&self) -> usize {
        match &self.0 {
            RunKeys::Directory {
                candidates: Some(ids),
                ..
            } => ids.len(),
            RunKeys::Directory { entries, .. } => entries.len(),
            RunKeys::Sorted(entries) => entries.len(),
        }
    }

    /// The `i`-th candidate: `(start, position)`.
    pub(crate) fn get(&self, i: usize) -> (i64, TrajId) {
        match &self.0 {
            RunKeys::Directory {
                entries,
                base,
                candidates: Some(ids),
            } => (entries[(ids[i] - base) as usize].start, ids[i]),
            RunKeys::Directory { entries, base, .. } => (entries[i].start, base + i as TrajId),
            RunKeys::Sorted(entries) => entries[i],
        }
    }
}

/// One queryable collection of semantic trajectories (a warehouse, one
/// engine's live state, one remote site's result cache, ...): rows at
/// positions `0..len_hint()`, in the source's own order.
pub trait TrajectorySource {
    /// The number of rows — exact: every position below it is valid.
    fn len_hint(&self) -> usize;

    /// The row at `position`: borrowed when the source holds it
    /// decoded, read (and owned) otherwise.
    ///
    /// # Panics
    ///
    /// May panic when `position` is not below
    /// [`TrajectorySource::len_hint`].
    fn row(&self, position: TrajId) -> Row<'_>;

    /// Index consultation: a sound candidate superset for `predicate`,
    /// as ascending positions. The default — [`CandidateSet::All`] —
    /// declares the source unindexed; override it when the source can
    /// narrow selections without scanning. Called once per executed
    /// query, so a source may count it as one.
    fn candidates(&self, _predicate: &Predicate) -> CandidateSet {
        CandidateSet::All
    }

    /// Planning: how many candidates [`TrajectorySource::candidates`]
    /// would narrow `predicate` to, `None` for a scan — without
    /// counting as a query. Override it beside a `candidates` that
    /// moves instruments.
    fn plan(&self, predicate: &Predicate) -> Option<usize> {
        match self.candidates(predicate) {
            CandidateSet::All => None,
            CandidateSet::Ids(ids) => Some(ids.len()),
        }
    }

    /// Appends the `(key, source, position)` ordering entry of every
    /// candidate to `out` (whose variant follows `key`; see
    /// [`SortKeys`]), tagging each with `source`. The default reads the
    /// key off each [`TrajectorySource::row`] and so needs them
    /// resident; a source that reads rows on demand overrides it with
    /// keys it holds apart from the rows.
    ///
    /// # Panics
    ///
    /// The default, on a row that is not [`Row::Resident`].
    fn sort_keys<'a>(
        &'a self,
        key: SortKey,
        candidates: &CandidateSet,
        source: u32,
        out: &mut SortKeys<'a>,
    ) {
        for position in candidates.within(0..self.len_hint() as TrajId) {
            let Row::Resident(row, _) = self.row(position) else {
                panic!("a source that reads rows must override sort_keys")
            };
            match out {
                SortKeys::Int(entries) => entries.push((key.integer(row), source, position)),
                SortKeys::Object(entries) => entries.push((&row.moving_object, source, position)),
            }
        }
    }

    /// The candidates as [`StartRun`]s, for a page ordered by
    /// [`SortKey::Start`] — `None`, the default, when the source does
    /// not store its rows in start order. The paging core then orders
    /// the source's own [`TrajectorySource::sort_keys`] entries into
    /// one run.
    fn start_runs<'a>(&'a self, _candidates: &'a CandidateSet) -> Option<Vec<StartRun<'a>>> {
        None
    }

    /// One of this source's rows as an owned value. A source that
    /// meters what it materializes overrides this to count the clone.
    fn materialize(&self, row: Row<'_>) -> SemanticTrajectory {
        row.into_owned()
    }
}

impl TrajectorySource for Vec<SemanticTrajectory> {
    fn len_hint(&self) -> usize {
        self.len()
    }

    fn row(&self, position: TrajId) -> Row<'_> {
        Row::Resident(&self[position as usize], None)
    }
}

impl TrajectorySource for TrajectoryDb {
    fn len_hint(&self) -> usize {
        self.len()
    }

    fn row(&self, position: TrajId) -> Row<'_> {
        Row::Resident(&self.trajectories()[position as usize], None)
    }

    fn candidates(&self, predicate: &Predicate) -> CandidateSet {
        TrajectoryDb::candidates(self, predicate)
    }
}

/// Counts the rows across `sources` that satisfy `predicate` — the
/// paging core with nothing to order, skip or keep.
pub fn federated_count(predicate: &Predicate, sources: &[&dyn TrajectorySource]) -> usize {
    let mut n = 0;
    Page::unordered(predicate).run(sources, &mut |_, _, _| n += 1);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use sitm_core::{
        Annotation, AnnotationSet, PresenceInterval, Timestamp, Trace, TransitionTaken,
    };
    use sitm_graph::{CellRef, LayerIdx, NodeId};

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
    }

    fn traj(mo: &str, c: usize) -> SemanticTrajectory {
        let stay = PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(c),
            Timestamp(0),
            Timestamp(60),
        );
        SemanticTrajectory::new(
            mo,
            Trace::new(vec![stay]).unwrap(),
            AnnotationSet::from_iter([Annotation::goal("visit")]),
        )
        .unwrap()
    }

    #[test]
    fn union_over_vec_and_db_sources() {
        let live: Vec<SemanticTrajectory> = vec![traj("a", 1), traj("b", 2)];
        let db = TrajectoryDb::build(vec![traj("c", 1), traj("d", 3)]);
        let sources: Vec<&dyn TrajectorySource> = vec![&live, &db];
        let p = Predicate::VisitedCell(cell(1));

        assert_eq!(federated_count(&p, &sources), 2);
        let matches = Query::new().filter(p.clone()).execute_federated(&sources);
        let names: Vec<&str> = matches.iter().map(|t| t.moving_object.as_str()).collect();
        assert_eq!(names, vec!["a", "c"], "source order preserved");

        // The core tags every row with where it came from.
        let mut tagged = Vec::new();
        Page::unordered(&p).run(&sources, &mut |source, position, row| {
            tagged.push((source, position, row.trajectory().moving_object.clone()));
        });
        assert_eq!(
            tagged,
            vec![(0, 0, "a".to_string()), (1, 0, "c".to_string())]
        );
    }

    #[test]
    fn empty_sources_contribute_nothing() {
        let empty: Vec<SemanticTrajectory> = Vec::new();
        let sources: Vec<&dyn TrajectorySource> = vec![&empty];
        assert_eq!(federated_count(&Predicate::True, &sources), 0);
        assert!(Query::new().execute_federated(&[]).is_empty());
        assert!(Query::new().execute_federated(&sources).is_empty());
        assert_eq!(empty.len_hint(), 0);
    }

    #[test]
    fn explain_reports_per_source_access_paths() {
        let live: Vec<SemanticTrajectory> = vec![traj("a", 1), traj("b", 2)];
        let db = TrajectoryDb::build(vec![traj("c", 1), traj("d", 3)]);
        let sources: Vec<&dyn TrajectorySource> = vec![&live, &db];
        let p = Predicate::VisitedCell(cell(1));
        let plans: Vec<Option<usize>> = sources.iter().map(|s| s.plan(&p)).collect();
        assert_eq!(plans[0], None, "plain Vec has no indexes: a full scan");
        assert_eq!(
            plans[1],
            Some(1),
            "the warehouse narrows through its postings"
        );
        assert_eq!(sources[1].len_hint(), 2);
    }

    #[test]
    fn indexed_and_scanned_sources_agree_under_federation() {
        let db = TrajectoryDb::build(vec![traj("a", 1), traj("b", 2), traj("c", 1)]);
        let plain: Vec<SemanticTrajectory> = db.trajectories().to_vec();
        for p in [
            Predicate::VisitedCell(cell(1)),
            Predicate::MovingObject("b".into()),
            Predicate::VisitedCell(cell(2)).or(Predicate::MovingObject("a".into())),
            Predicate::VisitedCell(cell(9)),
            Predicate::True,
        ] {
            let q = Query::new().filter(p.clone());
            let from_db: Vec<String> = q
                .execute_federated(&[&db])
                .into_iter()
                .map(|t| t.moving_object)
                .collect();
            let from_scan: Vec<String> = q
                .execute_federated(&[&plain])
                .into_iter()
                .map(|t| t.moving_object)
                .collect();
            assert_eq!(from_db, from_scan, "index path diverged for {p}");
        }
    }
}
