//! The warehouse rewritten around immutable on-disk segments.
//!
//! [`SegmentedDb`] is the durable twin of [`TrajectoryDb`]: the same
//! query surface (candidate supersets re-checked by the caller, the
//! [`TrajectorySource`] federation face), but backed by
//! `sitm_store`'s segment tier ([`SegmentStore`]) instead of one
//! in-memory vector — so the collection survives restarts, grows by
//! *appending immutable segments*, and stays bounded by size-tiered
//! compaction instead of rebuilding the world per run.
//!
//! ## Two-level index consultation
//!
//! A predicate is narrowed in two stages, both sound, and both through
//! the one leaf table ([`LeafLookup`]) every index in the stack shares:
//!
//! 1. **zone-map pruning** — each segment's [`ZoneMap`] (span min/max,
//!    exact cell set, exact object set, annotation sets) answers the
//!    leaves with `All` or no candidates, and [`zone_may_match`] is
//!    "the walk does not answer no candidates"; a segment the predicate
//!    provably cannot match contributes nothing and its trajectories
//!    are never touched. Ahead of the zone maps, the store's global
//!    object index answers the predicate's `MovingObject` leaves
//!    wherever its boolean shape allows, naming exactly the segments
//!    holding each object ([`SegmentedPlan::object_pruned`] counts the
//!    rest);
//! 2. **per-segment postings** — surviving segments answer through
//!    their own [`TrajectoryDb`] lookups (cell/annotation/object
//!    postings, span and stay interval trees), translated into global
//!    positions by each segment's base offset.
//!
//! Like every index in this stack, the result is a *sound candidate
//! superset*: the executor re-checks the full predicate on every
//! candidate, so the segmented path is result-identical to a full scan
//! (and to an in-memory [`TrajectoryDb`] over the same trajectories —
//! the differential tests in `tests/tiered_warehouse.rs` pin this at
//! every flush and compaction point).
//!
//! ## Iteration order
//!
//! Trajectories iterate in **warehouse order**: segments in manifest
//! order, each segment its canonical sorted run
//! ([`sitm_store::sort_run`]). The order is deterministic for a given
//! sequence of flushes and compactions, which is what lets the
//! differential tests demand *exact* equality (ids included) against a
//! [`TrajectoryDb`] built from the same iteration.
//!
//! ## Lazy residency
//!
//! Segments open **cold**: `SegmentStore::open` reads only header
//! frames (zone map, offset directory, sort columns, rollup), so
//! everything above is available without decoding a single trajectory —
//! and the sort columns let content-key ordering (`TotalDwell`,
//! `MovingObject`, `TraceLength`) decide which frames a page needs
//! before any row is materialized. A segment's postings
//! ([`TrajectoryDb`]) hydrate on first contact — when pruning leaves
//! the segment in a query's surviving set — from one decode pass whose
//! storage is `Arc`-shared between the store's segment cache and the
//! postings ([`TrajectoryDb::build_shared`]). A hydrated segment holds
//! two things, together or not at all: that one decoded run, which
//! serves the postings and every predicate re-check, and the stored
//! bytes it was decoded from (≈ a tenth of the run's size), which serve
//! replies — a paged [`crate::Query`] borrows a resident row to check
//! or skip it and copies its stored encoding to return it
//! ([`Segment::resident_row`]), cloning nothing. A fully-pruned query
//! reads ~zero segment bytes (`query.segment_bytes_read`).
//! Single-row seeks into segments still cold land in the store's
//! bounded **row-decode cache** (see `sitm_store::warehouse`), so
//! repeated paged scans over them re-decode nothing
//! (`query.row_cache_hits`); hydration itself leaves that cache alone.
//! Hydration
//! **panics** if the segment body turns out corrupt
//! (`Segment::trajectories` errors): header corruption is refused at
//! open, and the query surface is infallible by signature, so body
//! corruption discovered mid-query is deliberately fail-stop.
//!
//! ## Global object index
//!
//! Before any per-segment probe, point lookups (`MovingObject` leaves,
//! and `And`/`Or` combinations over them) consult the store's
//! cross-segment **object index** — object → ascending segment-id
//! postings, derived from the zone maps' object sets at open and after
//! every flush and compaction (never read from disk). `And` intersects
//! and `Or` unions the postings as sorted slices; segments outside the
//! result are skipped without even touching their zone map
//! ([`SegmentedPlan::object_pruned`]).
//!
//! ## Rollups
//!
//! Per-cell and per-period aggregates ([`SegmentedDb::rollup_cells`],
//! [`SegmentedDb::rollup_occupancy`]) merge the segments' header-frame
//! rollups — the served `Stats` op answers per-cell and per-period
//! breakdowns from these (merged with a live-tier fold) without
//! hydrating anything.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use sitm_core::{Annotation, Duration, SemanticTrajectory, TimeInterval};
use sitm_graph::CellRef;
use sitm_obs::{Counter, Histogram, MetricsRegistry};
use sitm_store::warehouse::{
    CellRollup, Segment, SegmentStore, WarehouseConfig, WarehouseError, ZoneMap,
};
use sitm_store::RecoveryReport;

use crate::federation::{federated_count, Row, SortKeys, StartRun, TrajectorySource};
use crate::index::{CandidateSet, TrajId, TrajectoryDb};
use crate::predicate::{LeafLookup, Predicate};
use crate::query::SortKey;

/// Can any trajectory summarized by `zone` possibly match `p`?
///
/// Sound pruning: `false` is returned only when **no** trajectory in
/// the segment can match — the caller may then skip the whole segment.
/// `true` is always safe (the per-segment postings and the residual
/// re-check still run). It is the shared boolean walk over the zone
/// map's [`LeafLookup`]s, which answer `All` or no candidates: so
/// negation is never pruned (a zone map aggregates *presence*, not
/// absence), and conjunction prunes when any conjunct does.
pub fn zone_may_match(zone: &ZoneMap, p: &Predicate) -> bool {
    zone.len != 0 && p.narrow(zone) != CandidateSet::Ids(Vec::new())
}

/// `All` when some trajectory of the segment may match the leaf, no
/// candidates when none can.
fn possible(may: bool) -> CandidateSet {
    if may {
        CandidateSet::All
    } else {
        CandidateSet::Ids(Vec::new())
    }
}

/// A zone map's sets are exact, so each lookup says no only when no
/// trajectory of the segment holds the value.
impl LeafLookup for ZoneMap {
    fn cell(&self, cell: CellRef) -> CandidateSet {
        possible(self.may_contain_cell(&cell))
    }

    fn span(&self, window: TimeInterval) -> CandidateSet {
        possible(self.span.is_some_and(|span| span.overlaps(window)))
    }

    /// Bounded by the zone span too: every stay lies inside its
    /// trajectory's span (`Trace::span` is [min start, max end]), which
    /// lies inside the zone span. Total dwell has no such bound —
    /// overlapping stays are legal (sensor handoff jitter, see
    /// `TraceError::OutOfOrder`) and can sum past the span.
    fn min_stay(&self, cell: CellRef, bound: Duration) -> CandidateSet {
        let longest = self
            .span
            .map_or(Duration::seconds(0), |span| span.duration());
        possible(self.may_contain_cell(&cell) && bound <= longest)
    }

    fn traj_annotation(&self, annotation: &Annotation) -> CandidateSet {
        possible(self.traj_annotations.contains(annotation))
    }

    fn stay_annotation(&self, annotation: &Annotation) -> CandidateSet {
        possible(self.stay_annotations.contains(annotation))
    }

    fn moving_object(&self, id: &str) -> CandidateSet {
        possible(self.may_contain_object(id))
    }
}

/// One live segment's query-side structures. Parts align **by index**
/// with [`SegmentStore::segments`] (both follow manifest order), so the
/// pruning metadata (zone map, directory, rollup) is read straight off
/// the store's segment — no clones.
struct SegmentPart {
    /// The segment id (segments are immutable, so the id keys reuse
    /// across rebuilds).
    id: u64,
    /// Trajectory count (from the offset directory — no decode).
    len: usize,
    /// Per-segment postings over the segment's sorted run, hydrated on
    /// first contact from the segment's `Arc`-shared decode.
    db: OnceLock<TrajectoryDb>,
}

/// How a segmented query would be served: the candidate count of
/// [`TrajectorySource::plan`], with the segment dimension made visible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentedPlan {
    /// Live segments consulted.
    pub segments: usize,
    /// Segments skipped entirely by zone-map pruning.
    pub pruned: usize,
    /// Segments skipped by the global object index before their zone
    /// maps were even consulted (disjoint from `pruned`).
    pub object_pruned: usize,
    /// Candidate positions surviving both stages (`None` when the
    /// surviving segments cannot narrow and the query degrades to a
    /// scan of the unpruned segments).
    pub candidates: Option<usize>,
    /// Total trajectories in the warehouse.
    pub total: usize,
}

/// Per-query pruning instruments (`query.*` metric names), resolved
/// once so [`SegmentedDb::candidates`] — a `&self` hot path — pays
/// relaxed atomic adds only.
struct QueryMetrics {
    segments_scanned: Arc<Counter>,
    zone_pruned: Arc<Counter>,
    object_pruned: Arc<Counter>,
    candidates: Arc<Histogram>,
    /// Rows [`crate::Query`]'s paging core turned into an owned value
    /// (a clone out of a hydrated run or the row cache, or a decode).
    rows_materialized: Arc<Counter>,
}

impl QueryMetrics {
    fn bind(registry: &MetricsRegistry) -> QueryMetrics {
        QueryMetrics {
            segments_scanned: registry.counter("query.segments_scanned"),
            zone_pruned: registry.counter("query.zone_pruned"),
            object_pruned: registry.counter("query.object_pruned"),
            candidates: registry.histogram("query.candidates"),
            rows_materialized: registry.counter("query.rows_materialized"),
        }
    }
}

/// A durable, segment-backed trajectory warehouse with the
/// [`TrajectoryDb`] query surface and the [`TrajectorySource`]
/// federation face.
pub struct SegmentedDb {
    store: SegmentStore,
    parts: Vec<SegmentPart>,
    /// Global position of each part's first trajectory — a column of
    /// its own, because every fetched row binary-searches it.
    bases: Vec<TrajId>,
    total: usize,
    metrics: QueryMetrics,
}

impl SegmentedDb {
    /// Opens (or creates) the warehouse at `dir`, recovering the newest
    /// complete manifest and building per-segment postings.
    pub fn open(
        dir: impl AsRef<Path>,
        config: WarehouseConfig,
    ) -> Result<(SegmentedDb, RecoveryReport), WarehouseError> {
        let (store, report) = SegmentStore::open(dir, config)?;
        let mut db = SegmentedDb {
            store,
            parts: Vec::new(),
            bases: Vec::new(),
            total: 0,
            metrics: QueryMetrics::bind(MetricsRegistry::global()),
        };
        db.rebuild_parts();
        Ok((db, report))
    }

    /// Points this warehouse's `query.*` instruments (and the
    /// underlying store's `store.*` instruments) at `registry` instead
    /// of the process-global default.
    #[must_use]
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> SegmentedDb {
        self.metrics = QueryMetrics::bind(registry);
        self.store.set_metrics(registry);
        self
    }

    /// Rebuilds the query-side structures from the store's live
    /// segments (after open, flush, or compaction). Segments are
    /// immutable, so a part whose id survived the mutation is *reused*
    /// (only its base offset moves) — a flush indexes just the new
    /// segment and whatever a compaction merged, not the whole
    /// warehouse.
    fn rebuild_parts(&mut self) {
        let mut reusable: std::collections::HashMap<u64, SegmentPart> =
            std::mem::take(&mut self.parts)
                .into_iter()
                .map(|p| (p.id, p))
                .collect();
        self.bases.clear();
        self.total = 0;
        for segment in self.store.segments() {
            self.bases.push(self.total as TrajId);
            self.total += segment.len();
            let part = reusable.remove(&segment.id).unwrap_or_else(|| SegmentPart {
                id: segment.id,
                len: segment.len(),
                db: OnceLock::new(),
            });
            self.parts.push(part);
        }
    }

    /// The postings of part `idx`, hydrating them on first contact from
    /// the store segment's cached (`Arc`-shared) decode. The decode and
    /// the postings build are one `segment_hydrate` span, once per
    /// segment.
    ///
    /// # Panics
    ///
    /// If the segment body is corrupt (see the module docs: headers
    /// were validated at open; body corruption mid-query is fail-stop).
    fn part_db(&self, idx: usize) -> &TrajectoryDb {
        let part = &self.parts[idx];
        part.db.get_or_init(|| {
            let _hydrate = sitm_obs::trace::child_detail("segment_hydrate");
            let segment = &self.store.segments()[idx];
            let run = segment.trajectories().unwrap_or_else(|e| {
                panic!("segment {} body corrupt at hydration: {e}", segment.id)
            });
            TrajectoryDb::build_shared(Arc::clone(run))
        })
    }

    /// Consults the global object index: the segment ids that may hold
    /// a match for `p`, or `None` when `p` has no object structure the
    /// index can answer. Sound: a segment outside the returned set
    /// provably contains no match (the index is exact, not
    /// probabilistic — every flush/compaction derives it anew from the
    /// zone maps).
    ///
    /// Its own boolean walk, not [`Predicate::narrow`]: the algebra
    /// differs. "Cannot answer" is not "every segment" here — an `And`
    /// skips the arms the index cannot answer (they constrain nothing)
    /// and an `Or` needs every arm answered, where `narrow` treats an
    /// unanswerable arm as `All` in both.
    ///
    /// The ids come back ascending; a lone leaf borrows the index's own
    /// postings.
    fn object_segment_filter(&self, p: &Predicate) -> Option<Cow<'_, [u64]>> {
        match p {
            Predicate::MovingObject(id) => Some(Cow::Borrowed(self.store.object_segments(id))),
            Predicate::And(parts) => {
                // Intersect whatever arms the index can answer; arms it
                // cannot answer constrain nothing.
                let mut acc: Option<Cow<'_, [u64]>> = None;
                for q in parts {
                    if let Some(s) = self.object_segment_filter(q) {
                        acc = Some(match acc {
                            None => s,
                            Some(prev) => prev
                                .iter()
                                .copied()
                                .filter(|id| s.binary_search(id).is_ok())
                                .collect(),
                        });
                    }
                }
                acc
            }
            Predicate::Or(parts) => {
                // A union is only sound if *every* arm is answerable.
                let mut acc = Vec::new();
                for q in parts {
                    acc.extend_from_slice(&self.object_segment_filter(q)?);
                }
                acc.sort_unstable();
                acc.dedup();
                Some(Cow::Owned(acc))
            }
            _ => None,
        }
    }

    /// Flushes one batch of finished trajectories as a new immutable
    /// segment (sorted into the canonical run order), then runs
    /// size-tiered compaction to its fixed point. An empty batch is a
    /// no-op. Durable on return — and when the append commits but a
    /// merge behind it fails, the batch is durable *and* the error is
    /// returned.
    pub fn flush(&mut self, trajectories: Vec<SemanticTrajectory>) -> Result<(), WarehouseError> {
        if trajectories.is_empty() {
            return Ok(());
        }
        let outcome = self
            .store
            .append_segment(trajectories)
            .and_then(|()| self.store.compact_size_tiered());
        // A merge can fail behind a committed append (or behind an
        // earlier merge of the same cascade): the parts follow whatever
        // the store holds now, and the error is still the caller's.
        self.rebuild_parts();
        outcome.map(|_| ())
    }

    /// Forces size-tiered compaction now (normally [`SegmentedDb::flush`]
    /// already runs it). Returns the number of merges performed.
    pub fn compact(&mut self) -> Result<usize, WarehouseError> {
        let merges = self.store.compact_size_tiered();
        self.rebuild_parts();
        merges
    }

    /// The live segments (id, zone map, sorted run), in iteration order.
    pub fn segments(&self) -> &[Segment] {
        self.store.segments()
    }

    /// The underlying store.
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// Total trajectories across every segment.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when the warehouse holds nothing.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Global position → (segment index, index within the segment).
    fn locate(&self, id: TrajId) -> Option<(usize, usize)> {
        // Empty segments share a base with their successor; the last
        // part at or below `id` is the one that can hold it.
        let part_idx = self
            .bases
            .partition_point(|&base| base <= id)
            .checked_sub(1)?;
        let local = (id - self.bases[part_idx]) as usize;
        (local < self.parts[part_idx].len).then_some((part_idx, local))
    }

    /// Warehouse-wide per-cell aggregates merged from the segments'
    /// header-frame rollups: distinct-trajectory count, stay count, and
    /// total dwell seconds per cell. **Decodes nothing** — this is the
    /// Stats fast path.
    pub fn rollup_cells(&self) -> BTreeMap<CellRef, CellRollup> {
        let mut out: BTreeMap<CellRef, CellRollup> = BTreeMap::new();
        for segment in self.store.segments() {
            for (cell, cr) in &segment.rollup().cells {
                out.entry(*cell).or_default().merge(cr);
            }
        }
        out
    }

    /// Warehouse-wide occupancy merged from the segments' header-frame
    /// rollups: period start (seconds, aligned to the rollup period) →
    /// number of trajectories whose span touches the period. Decodes
    /// nothing.
    pub fn rollup_occupancy(&self) -> BTreeMap<i64, u64> {
        let mut out: BTreeMap<i64, u64> = BTreeMap::new();
        for segment in self.store.segments() {
            for (period, n) in &segment.rollup().periods {
                *out.entry(*period).or_default() += n;
            }
        }
        out
    }

    /// Derives a global candidate superset for `p`: zone-map pruning
    /// per segment, then the surviving segments' postings shifted by
    /// their base offsets. Soundness invariant (property-tested in
    /// `tests/segmented_proptests.rs`): every trajectory matching `p`
    /// is in the returned set. Counts one query in the `query.*`
    /// pruning instruments.
    pub fn candidates(&self, p: &Predicate) -> CandidateSet {
        let _prune = sitm_obs::trace::child_detail("prune");
        let (plan, candidates) = self.prune(p);
        let scanned = plan.segments - plan.pruned - plan.object_pruned;
        self.metrics.segments_scanned.add(scanned as u64);
        self.metrics.zone_pruned.add(plan.pruned as u64);
        self.metrics.object_pruned.add(plan.object_pruned as u64);
        let surviving = plan.candidates.unwrap_or(plan.total);
        self.metrics.candidates.record(surviving as u64);
        candidates
    }

    /// Plans `p` against the warehouse without executing it: the same
    /// pruning pass [`SegmentedDb::candidates`] runs, reported instead
    /// of counted — no `query.*` instrument moves.
    pub fn explain(&self, p: &Predicate) -> SegmentedPlan {
        self.prune(p).0
    }

    /// The one pruning pass: object index, then zone maps, then the
    /// surviving segments' postings.
    /// Returns what each stage rejected beside what is left.
    ///
    /// The position list is built only once some segment narrows: the
    /// segments that answered `All` before that are back-filled then,
    /// so a pass that narrows nothing (every page under `True`)
    /// allocates no list.
    fn prune(&self, p: &Predicate) -> (SegmentedPlan, CandidateSet) {
        let mut plan = SegmentedPlan {
            segments: self.parts.len(),
            pruned: 0,
            object_pruned: 0,
            candidates: None,
            total: self.total,
        };
        // `Some` once a segment narrowed; before that, the parts that
        // answered `All`.
        let mut ids: Option<Vec<TrajId>> = None;
        let mut unnarrowed: Vec<usize> = Vec::new();
        let rows = |idx: usize| self.bases[idx]..self.bases[idx] + self.parts[idx].len as TrajId;
        let back_fill = |unnarrowed: &mut Vec<usize>| unnarrowed.drain(..).flat_map(rows).collect();
        let object_filter = self.object_segment_filter(p);
        let can_narrow = TrajectoryDb::can_narrow(p);
        let segments = self.store.segments();
        for (idx, part) in self.parts.iter().enumerate() {
            // Stage 0: the global object index — exact, cross-segment,
            // cheaper than any zone probe.
            if let Some(filter) = &object_filter {
                if filter.binary_search(&part.id).is_err() {
                    ids.get_or_insert_with(|| back_fill(&mut unnarrowed));
                    plan.object_pruned += 1;
                    continue;
                }
            }
            let zone = &segments[idx].zone_map;
            if !zone_may_match(zone, p) {
                ids.get_or_insert_with(|| back_fill(&mut unnarrowed));
                plan.pruned += 1;
                continue;
            }
            // When no segment could narrow, say so without hydrating
            // cold postings.
            let local = if can_narrow {
                self.part_db(idx).candidates(p)
            } else {
                CandidateSet::All
            };
            match (local, &mut ids) {
                (CandidateSet::All, Some(ids)) => ids.extend(rows(idx)),
                (CandidateSet::All, None) => unnarrowed.push(idx),
                (CandidateSet::Ids(local), ids) => {
                    let base = self.bases[idx];
                    let ids = ids.get_or_insert_with(|| back_fill(&mut unnarrowed));
                    ids.extend(local.into_iter().map(|i| i + base));
                }
            }
        }
        let Some(ids) = ids else {
            return (plan, CandidateSet::All);
        };
        plan.candidates = Some(ids.len());
        (plan, CandidateSet::Ids(ids))
    }

    /// Match count: the paging core over this one source, so
    /// candidates are pruned, re-checked and counted by reference — a
    /// cold row is read alone, nothing is hydrated to be counted.
    pub fn count_matching(&self, p: &Predicate) -> usize {
        federated_count(p, &[self])
    }
}

impl std::fmt::Debug for SegmentedDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedDb")
            .field("segments", &self.parts.len())
            .field("trajectories", &self.total)
            .finish()
    }
}

impl TrajectorySource for SegmentedDb {
    fn len_hint(&self) -> usize {
        self.total
    }

    /// A row of a hydrated segment is borrowed beside its stored bytes;
    /// a row of a cold segment is read alone (row cache, else one
    /// frame) and counted in `query.rows_materialized`.
    ///
    /// # Panics
    ///
    /// If the segment body turns out corrupt (the one place a query
    /// discovers it; see the module docs).
    fn row(&self, position: TrajId) -> Row<'_> {
        let (idx, local) = self
            .locate(position)
            .unwrap_or_else(|| panic!("position {position} of {}", self.total));
        let segment = &self.store.segments()[idx];
        match segment.resident_row(local) {
            Some((row, stored)) => Row::Resident(row, Some(stored)),
            None => {
                self.metrics.rows_materialized.inc();
                Row::Read(
                    segment.read_trajectory(local).unwrap_or_else(|e| {
                        panic!("segment {} corrupt mid-query: {e}", segment.id)
                    }),
                )
            }
        }
    }

    fn candidates(&self, predicate: &Predicate) -> CandidateSet {
        SegmentedDb::candidates(self, predicate)
    }

    fn plan(&self, predicate: &Predicate) -> Option<usize> {
        self.explain(predicate).candidates
    }

    /// Keys come from the header frames, so ordering decides which
    /// frames a page needs before any row is decoded: span keys sit in
    /// the directory entries, content keys in the sort columns (dwell
    /// is persisted in seconds — the exact value `Duration` ordering
    /// compares), and the object column is a rank in the zone map's
    /// object set, so the globally comparable string is resident.
    fn sort_keys<'a>(
        &'a self,
        key: SortKey,
        candidates: &CandidateSet,
        source: u32,
        out: &mut SortKeys<'a>,
    ) {
        for (&base, segment) in self.bases.iter().zip(self.store.segments()) {
            let run = candidates.within(base..base + segment.len() as TrajId);
            let locals = run.map(|at| (at, (at - base) as usize));
            let (directory, columns) = (&segment.directory().entries, segment.sort_columns());
            match out {
                SortKeys::Int(entries) => entries.extend(locals.map(|(at, local)| {
                    let value = match key {
                        SortKey::Start => directory[local].start,
                        SortKey::End => directory[local].end,
                        SortKey::SpanDuration => directory[local].end - directory[local].start,
                        SortKey::TotalDwell => columns.dwell[local],
                        SortKey::TraceLength => columns.trace_len[local] as i64,
                        SortKey::MovingObject => unreachable!("moving objects order as strings"),
                    };
                    (value, source, at)
                })),
                SortKeys::Object(entries) => {
                    let objects = &segment.zone_map.objects;
                    entries.extend(locals.map(|(at, local)| {
                        let object = objects
                            .get(columns.object[local] as usize)
                            .expect("sort columns are validated against the object set");
                        (object, source, at)
                    }));
                }
            }
        }
    }

    /// Each non-empty segment is one run: its rows are stored in run
    /// order, `(start, end, bytes)`, so its candidates already ascend
    /// by start, and the directory holds every start.
    fn start_runs<'a>(&'a self, candidates: &'a CandidateSet) -> Option<Vec<StartRun<'a>>> {
        let segments = self.bases.iter().zip(self.store.segments());
        let runs = segments.filter(|(_, segment)| !segment.is_empty());
        Some(
            runs.map(|(&base, segment)| {
                let rows = base..base + segment.len() as TrajId;
                StartRun::directory(
                    &segment.directory().entries,
                    base,
                    candidates.ids_within(rows),
                )
            })
            .collect(),
        )
    }

    fn materialize(&self, row: Row<'_>) -> SemanticTrajectory {
        if matches!(row, Row::Resident(..)) {
            self.metrics.rows_materialized.inc();
        }
        row.into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_core::{
        Annotation, AnnotationSet, Duration, PresenceInterval, TimeInterval, Timestamp, Trace,
        TransitionTaken,
    };
    use sitm_graph::{CellRef, LayerIdx, NodeId};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("sitm-segmented-{tag}-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

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

    fn open(tmp: &TempDir) -> SegmentedDb {
        SegmentedDb::open(&tmp.0, WarehouseConfig::default())
            .expect("open")
            .0
    }

    /// The moving objects matching `p`, through the index path.
    /// Every row, in warehouse order, read through the federation face.
    fn rows(db: &SegmentedDb) -> Vec<SemanticTrajectory> {
        (0..db.len() as TrajId)
            .map(|at| db.row(at).into_owned())
            .collect()
    }

    fn matching(db: &SegmentedDb, p: &Predicate) -> Vec<String> {
        let hits = crate::Query::new().filter(p.clone()).execute_segmented(db);
        hits.into_iter().map(|t| t.moving_object).collect()
    }

    /// The same through the index-free reference (the oracle).
    fn scanned(db: &SegmentedDb, p: &Predicate) -> Vec<String> {
        let rows = crate::Query::new().filter(p.clone()).oracle(&[db], true);
        let names = rows
            .iter()
            .map(|row| row.trajectory().moving_object.clone());
        names.collect()
    }

    /// Two trajectories and every predicate shape over them, with
    /// whether a zone map over both may match it.
    fn leaf_cases() -> (Vec<SemanticTrajectory>, Vec<(Predicate, bool)>) {
        let trajs = vec![
            traj("a", &[(1, 0, 100)], "visit"),
            traj("b", &[(2, 50, 300)], "buy"),
        ];
        let window = TimeInterval::new(Timestamp(0), Timestamp(400));
        let cases = vec![
            (Predicate::True, true),
            (Predicate::VisitedCell(cell(1)), true),
            (Predicate::VisitedCell(cell(9)), false),
            (Predicate::SequenceContains(vec![cell(1), cell(9)]), false),
            (Predicate::SpanOverlaps(window), true),
            (
                Predicate::SpanOverlaps(TimeInterval::new(Timestamp(500), Timestamp(600))),
                false,
            ),
            (Predicate::StayOverlaps(cell(9), window), false),
            (
                Predicate::HasTrajAnnotation(Annotation::goal("visit")),
                true,
            ),
            (
                Predicate::HasTrajAnnotation(Annotation::goal("nope")),
                false,
            ),
            (
                Predicate::HasStayAnnotation(Annotation::goal("visit")),
                false,
            ),
            // Never pruned: overlapping stays can push total dwell past
            // the zone's span, so no span-derived bound is sound.
            (Predicate::MinTotalDwell(Duration::seconds(301)), true),
            (Predicate::MinStayIn(cell(9), Duration::seconds(1)), false),
            (Predicate::MovingObject("a".into()), true),
            (Predicate::MovingObject("z".into()), false),
            (Predicate::VisitedCell(cell(9)).not(), true),
            (
                Predicate::VisitedCell(cell(1)).and(Predicate::MovingObject("z".into())),
                false,
            ),
            (
                Predicate::VisitedCell(cell(9)).or(Predicate::MovingObject("a".into())),
                true,
            ),
            (Predicate::Or(vec![]), false),
        ];
        (trajs, cases)
    }

    #[test]
    fn zone_pruning_is_sound_for_every_leaf() {
        let (trajs, cases) = leaf_cases();
        let zone = ZoneMap::build(&trajs);
        for (p, expected) in cases {
            assert_eq!(zone_may_match(&zone, &p), expected, "for {p}");
            if !expected {
                // Pruning must be sound: nothing in the segment matches.
                assert!(
                    trajs.iter().all(|t| !p.matches(t)),
                    "pruned a matching trajectory for {p}"
                );
            }
        }
        // Empty segments prune everything.
        assert!(!zone_may_match(&ZoneMap::default(), &Predicate::True));
    }

    #[test]
    fn absent_values_are_rejected_by_the_object_index_and_zone_maps() {
        let tmp = TempDir::new("absent");
        let mut db = open(&tmp);
        // Two object/cell-disjoint segments.
        db.flush(vec![traj("a", &[(1, 0, 100)], "visit")]).unwrap();
        db.flush(vec![traj("b", &[(2, 1000, 1100)], "visit")])
            .unwrap();
        assert_eq!(db.segments().len(), 2);
        // A point predicate matching nothing anywhere: the indexed path
        // must agree with the scan.
        for p in [
            Predicate::MovingObject("nobody".into()),
            Predicate::VisitedCell(cell(9)),
            Predicate::MovingObject("a".into()).and(Predicate::VisitedCell(cell(2))),
        ] {
            assert_eq!(matching(&db, &p), scanned(&db, &p), "{p}");
        }
        // A wholly absent object is pruned by the *global object index*
        // before any zone map is consulted.
        let absent = Predicate::MovingObject("nobody".into());
        let plan = db.explain(&absent);
        assert_eq!(plan.object_pruned, 2, "object index rejects both segments");
        assert_eq!(plan.pruned, 0, "zone maps never consulted");
        assert_eq!(plan.candidates, Some(0));
        // An absent *cell* has no object structure: the zone maps'
        // exact cell sets do that work.
        let absent_cell = Predicate::VisitedCell(cell(9));
        let plan = db.explain(&absent_cell);
        assert_eq!(plan.object_pruned, 0);
        assert_eq!(plan.pruned, 2, "zone maps reject a wholly absent cell");
    }

    #[test]
    fn flush_builds_segments_and_ids_follow_warehouse_order() {
        let tmp = TempDir::new("order");
        let mut db = open(&tmp);
        db.flush(vec![
            traj("b", &[(1, 100, 200)], "visit"),
            traj("a", &[(0, 0, 50)], "visit"),
        ])
        .unwrap();
        db.flush(vec![traj("c", &[(2, 300, 400)], "buy")]).unwrap();
        assert_eq!(db.len(), 3);
        // Within the first segment the run is sorted by span start.
        let order: Vec<String> = rows(&db).into_iter().map(|t| t.moving_object).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(db.locate(2), Some((1, 0)));
        assert!(db.locate(3).is_none());
    }

    #[test]
    fn candidates_prune_and_agree_with_scan() {
        let tmp = TempDir::new("prune");
        let mut db = open(&tmp);
        // Disable size-tiering side effects by flushing distinct sizes?
        // Two segments of 2 stay under the default fanout of 4.
        db.flush(vec![
            traj("a", &[(1, 0, 100)], "visit"),
            traj("b", &[(2, 0, 100)], "visit"),
        ])
        .unwrap();
        db.flush(vec![
            traj("c", &[(3, 1000, 1100)], "buy"),
            traj("d", &[(4, 1000, 1100)], "buy"),
        ])
        .unwrap();
        assert_eq!(db.segments().len(), 2);
        let p = Predicate::VisitedCell(cell(1));
        let plan = db.explain(&p);
        assert_eq!(plan.segments, 2);
        assert_eq!(plan.pruned, 1, "the buy segment has no cell 1");
        assert_eq!(plan.candidates, Some(1));
        for p in [
            Predicate::VisitedCell(cell(1)),
            Predicate::MovingObject("d".into()),
            Predicate::SpanOverlaps(TimeInterval::new(Timestamp(0), Timestamp(50))),
            Predicate::HasTrajAnnotation(Annotation::goal("buy")),
            Predicate::True,
            Predicate::VisitedCell(cell(1)).not(),
        ] {
            let scanned = scanned(&db, &p);
            assert_eq!(matching(&db, &p), scanned, "diverged for {p}");
            assert_eq!(db.count_matching(&p), scanned.len());
        }
    }

    #[test]
    fn cold_queries_hydrate_only_surviving_segments() {
        let tmp = TempDir::new("cold");
        {
            let mut db = open(&tmp);
            db.flush(vec![traj("a", &[(1, 0, 100)], "visit")]).unwrap();
            db.flush(vec![traj("b", &[(2, 1000, 1100)], "visit")])
                .unwrap();
            assert_eq!(db.segments().len(), 2);
        }
        let db = open(&tmp);
        assert!(
            db.segments().iter().all(|s| !s.is_loaded()),
            "open is cold: headers only"
        );
        assert_eq!(db.len(), 2, "count comes from directories");
        // Rollup aggregates answer from headers alone.
        let cells = db.rollup_cells();
        assert_eq!(cells[&cell(1)].dwell_seconds, 100);
        assert_eq!(cells[&cell(2)].trajectories, 1);
        assert_eq!(db.rollup_occupancy()[&0], 2, "both spans touch period 0");
        // Fully-pruned queries touch nothing.
        assert!(matching(&db, &Predicate::MovingObject("nobody".into())).is_empty());
        assert!(matching(&db, &Predicate::VisitedCell(cell(9))).is_empty());
        assert!(
            db.segments().iter().all(|s| !s.is_loaded()),
            "pruned queries decode nothing"
        );
        // A one-segment point query hydrates only its segment.
        assert_eq!(matching(&db, &Predicate::MovingObject("a".into())).len(), 1);
        let loaded: Vec<bool> = db.segments().iter().map(|s| s.is_loaded()).collect();
        assert_eq!(loaded, vec![true, false]);
    }

    #[test]
    fn reopen_preserves_everything_and_compaction_keeps_results() {
        let tmp = TempDir::new("reopen");
        let config = WarehouseConfig {
            fanout: 2,
            ..WarehouseConfig::default()
        };
        let all: Vec<SemanticTrajectory> = (0..6)
            .map(|i| {
                traj(
                    &format!("mo-{i}"),
                    &[(i % 3, i as i64 * 10, i as i64 * 10 + 5)],
                    "visit",
                )
            })
            .collect();
        {
            let (mut db, _) = SegmentedDb::open(&tmp.0, config).unwrap();
            for chunk in all.chunks(2) {
                db.flush(chunk.to_vec()).unwrap();
            }
            // fanout 2: everything coalesces into few segments.
            assert!(db.segments().len() <= 2);
            assert_eq!(db.len(), 6);
        }
        let (db, report) = SegmentedDb::open(&tmp.0, config).unwrap();
        assert!(report.is_clean());
        assert_eq!(db.len(), 6);
        // Content is preserved as a multiset.
        let mut got: Vec<String> = rows(&db).into_iter().map(|t| t.moving_object).collect();
        got.sort();
        let mut want: Vec<String> = all.iter().map(|t| t.moving_object.clone()).collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn federation_face_matches_trajectory_db() {
        let tmp = TempDir::new("federate");
        let mut db = open(&tmp);
        db.flush(vec![
            traj("a", &[(1, 0, 100)], "visit"),
            traj("b", &[(2, 50, 150)], "visit"),
        ])
        .unwrap();
        let reference = TrajectoryDb::build(rows(&db));
        let p = Predicate::VisitedCell(cell(1));
        let q = crate::Query::new().filter(p);
        assert_eq!(
            q.execute_federated(&[&db]),
            q.execute_federated(&[&reference])
        );
        assert_eq!(TrajectorySource::len_hint(&db), 2);
        // An empty warehouse federates as nothing.
        let empty_tmp = TempDir::new("federate-empty");
        let empty = open(&empty_tmp);
        assert_eq!(
            crate::federation::federated_count(&Predicate::True, &[&empty]),
            0
        );
        assert!(empty.is_empty());
    }

    #[test]
    fn explain_reports_what_one_candidates_call_counts() {
        let tmp = TempDir::new("explain-counts");
        let registry = MetricsRegistry::new();
        let mut db = open(&tmp).with_metrics(&registry);
        let (trajs, cases) = leaf_cases();
        // One segment per trajectory, so every pruning stage has
        // something to reject.
        for t in trajs {
            db.flush(vec![t]).unwrap();
        }
        assert_eq!(db.segments().len(), 2);
        let counters = || {
            [
                "query.segments_scanned",
                "query.zone_pruned",
                "query.object_pruned",
            ]
            .map(|name| registry.counter(name).get())
        };
        let samples = registry.histogram("query.candidates");
        for (p, _) in cases {
            let before = (counters(), samples.count());
            let plan = db.explain(&p);
            assert_eq!(
                (counters(), samples.count()),
                before,
                "planning {p} moved a per-query instrument"
            );
            let candidates = db.candidates(&p);
            let after = counters();
            let moved: Vec<usize> = (0..3).map(|i| (after[i] - before.0[i]) as usize).collect();
            assert_eq!(
                moved,
                [
                    plan.segments - plan.pruned - plan.object_pruned,
                    plan.pruned,
                    plan.object_pruned
                ],
                "for {p}"
            );
            assert_eq!(samples.count(), before.1 + 1, "one sample a query, for {p}");
            let narrowed = match candidates {
                CandidateSet::All => None,
                CandidateSet::Ids(ids) => Some(ids.len()),
            };
            assert_eq!(plan.candidates, narrowed, "for {p}");
        }
    }

    /// The partial ordering's correctness path: when the re-check
    /// rejects the candidates at the head of the order, the sorted head
    /// (`offset + limit` candidates) runs dry before the page fills and
    /// the walk must carry on, in order, through the rest.
    #[test]
    fn a_page_the_sorted_head_cannot_fill_continues_into_the_tail() {
        use crate::{Query, SortKey};
        let tmp = TempDir::new("tail");
        // Every row visits cells 1 and 2, so every row is a candidate
        // of the three predicates below; four rows match each. The
        // first four walk 1→2 directly (the rest detour through 3);
        // the last four stay 60 s in cell 1 (the rest 5 s). 120 rows:
        // enough that selecting a head leaves the rest unordered.
        const ROWS: usize = 120;
        let rows: Vec<SemanticTrajectory> = (0..ROWS)
            .map(|i| {
                let t = i as i64 * 100;
                let long = if i >= ROWS - 4 { 60 } else { 5 };
                let mut stays = vec![(1, t, t + long)];
                if i >= 4 {
                    stays.push((3, t + 60, t + 65));
                }
                stays.push((2, t + 70, t + 75));
                traj(&format!("mo-{i:03}"), &stays, "visit")
            })
            .collect();
        let mut db = open(&tmp);
        db.flush(rows[..100].to_vec()).unwrap();
        db.flush(rows[100..].to_vec()).unwrap();
        assert_eq!(db.segments().len(), 2);
        let long_stay = Predicate::MinStayIn(cell(1), Duration::seconds(30));
        let long_dwell =
            Predicate::VisitedCell(cell(1)).and(Predicate::MinTotalDwell(Duration::seconds(65)));
        let direct = Predicate::SequenceContains(vec![cell(1), cell(2)]);
        // (predicate, order, offset, limit, the page). In every case
        // the first `offset + limit` rows of the order are rejected.
        let cases = [
            (&long_stay, (SortKey::Start, true), 1, 2, vec![117, 118]),
            (
                &long_stay,
                (SortKey::MovingObject, true),
                0,
                3,
                vec![116, 117, 118],
            ),
            (
                &long_dwell,
                (SortKey::TotalDwell, true),
                0,
                2,
                vec![116, 117],
            ),
            (&long_dwell, (SortKey::End, true), 2, 5, vec![118, 119]),
            (&direct, (SortKey::Start, false), 1, 2, vec![2, 1]),
            (&direct, (SortKey::TraceLength, false), 0, 1, vec![3]),
        ];
        let check = |db: &SegmentedDb, state: &str| {
            let reference = TrajectoryDb::build(rows.clone());
            for (p, (key, ascending), offset, limit, page) in &cases {
                let candidates = match db.candidates(p) {
                    CandidateSet::Ids(ids) => ids.len(),
                    CandidateSet::All => db.len(),
                };
                assert_eq!(candidates, ROWS, "{state}: every row is a candidate of {p}");
                assert_eq!(
                    rows.iter().filter(|t| p.matches(t)).count(),
                    4,
                    "{state}: four match {p}"
                );
                let q = Query::new()
                    .filter((*p).clone())
                    .order_by(*key, *ascending)
                    .offset(*offset)
                    .limit(*limit);
                let got = q.execute_segmented(db);
                let want: Vec<SemanticTrajectory> =
                    page.iter().map(|&i: &usize| rows[i].clone()).collect();
                assert_eq!(got, want, "{state}: {p} by {key:?}");
                let eager: Vec<SemanticTrajectory> = q
                    .execute(&reference)
                    .into_iter()
                    .map(|m| m.trajectory.clone())
                    .collect();
                assert_eq!(got, eager, "{state}: {p} by {key:?} vs Query::execute");
                let mut encoded = Vec::new();
                assert_eq!(q.execute_segmented_encoded(db, &mut encoded), got.len());
                let mut expected = Vec::new();
                for t in &got {
                    sitm_store::encode_trajectory(&mut expected, t);
                }
                assert_eq!(encoded, expected, "{state}: {p} by {key:?}, byte sink");
            }
        };
        check(&db, "hydrated");
        drop(db);
        check(&open(&tmp), "reopened");
    }

    #[test]
    fn a_merge_failing_behind_a_committed_append_leaves_the_index_whole() {
        let tmp = TempDir::new("failed-merge");
        let row = |i: usize| {
            traj(
                &format!("mo-{i}"),
                &[(i % 5, i as i64, i as i64 + 10)],
                "visit",
            )
        };
        {
            // Three 4-row segments and three 1-row segments: each tier
            // one short of the fanout (4).
            let mut db = open(&tmp);
            for s in 0..3 {
                db.flush((0..4).map(|i| row(s * 4 + i)).collect()).unwrap();
            }
            for i in 12..15 {
                db.flush(vec![row(i)]).unwrap();
            }
            assert_eq!(db.segments().len(), 6);
        }
        // Rot one byte of segment 0's body. It opens (headers only).
        let path = tmp.0.join(sitm_store::warehouse::segment_file_name(0));
        let pristine = std::fs::read(&path).unwrap();
        let mut rotten = pristine.clone();
        let n = rotten.len();
        rotten[n - 2] ^= 0xFF;
        std::fs::write(&path, &rotten).unwrap();
        let mut db = open(&tmp);
        // The 16th row fills tier 0: that merge succeeds and makes a
        // fourth 4-row segment, and the merge it cascades into must
        // read segment 0.
        let error = db
            .flush(vec![row(15)])
            .expect_err("the cascading merge fails");
        assert!(
            matches!(error, WarehouseError::CorruptSegment { id: 0, .. }),
            "{error}"
        );
        // The batch is durable and the index follows the store.
        assert_eq!(db.segments().len(), 4);
        assert_eq!(db.len(), 16);
        assert_eq!(
            db.count_matching(&Predicate::MovingObject("mo-15".into())),
            1,
            "the row committed by the failed flush is served"
        );
        // With the file healed, a scan walks every part of the index
        // (a stale one ran past the store's segment list here).
        std::fs::write(&path, &pristine).unwrap();
        assert_eq!(db.count_matching(&Predicate::True), 16);
        drop(db);
        let db = open(&tmp);
        assert_eq!(db.segments().len(), 4);
        assert_eq!(db.len(), 16, "a reopen agrees");
    }
}
