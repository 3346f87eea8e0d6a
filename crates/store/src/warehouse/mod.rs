//! The warehouse tier: immutable trajectory segments and their manifest.
//!
//! The live engines (`sitm-stream`) hold *open* visits; once a visit
//! closes, its trajectory belongs in a durable, indexed warehouse the
//! query stack can federate with live state. This module supplies the
//! storage half of that tier (Mireku Kwakye's trajectory-warehouse line
//! in the related work); `sitm_query::SegmentedDb` supplies the query
//! half on top of it.
//!
//! ## Segment files
//!
//! A segment is an **immutable sorted run** of encoded
//! [`SemanticTrajectory`]s, framed exactly like every other durable
//! artifact in this repo ([`crate::segment`]: magic, then
//! marker/length/CRC frames):
//!
//! ```text
//! seg-NNNNNNNN.seg := magic "SITMSEG3"
//!                   | frame(zone map)
//!                   | frame(offset directory)
//!                   | frame(sort columns)
//!                   | frame(rollup)
//!                   | frame(trajectory)*
//! ```
//!
//! This is the one segment format. A file whose magic is anything else
//! — an older layout, a newer one, a damaged one — is refused at
//! [`SegmentStore::open`] with [`WarehouseError::CorruptSegment`]; it is
//! never parsed by guesswork.
//!
//! Frame 0 is the segment's [`ZoneMap`] — span min/max, cell set,
//! moving-object set, trajectory/stay annotation sets, record count —
//! the per-segment pruning metadata a query consults *before* touching
//! any trajectory. Trajectories are sorted by [`sort_run`]'s canonical
//! total order (span start, span end, encoded bytes), so every segment
//! is one sorted run.
//!
//! A file is built in three steps, and a row is encoded in exactly one
//! of them. **Encode once**: an append ([`SegmentStore::append_segment`])
//! encodes every row of its batch into one arena — the
//! `store.rows_encoded` counter moves by the batch's rows. **Order**: a
//! permutation of row indexes is sorted on `(start, end, arena slice)`
//! and the rows moved into that order; zone map, rollup and sort
//! columns are built over them. **Assemble**: one function lays the
//! header frames and one frame per arena slice into the file image,
//! which is written, fsynced, and kept resident beside the rows.
//!
//! Compaction ([`SegmentStore::replace_segments`], `Segment::merge`)
//! feeds the same assembler and encodes nothing, because everything it
//! needs is already in its victims. *Merged*: the victims' directory
//! span columns and stored payloads are ordered as `(start, end,
//! payload, victim, row)` — the canonical order, read off columns and
//! bytes — which interleaves the victims' runs; the zone map is the
//! union of theirs (its Blooms rebuilt over the merged sets, so they
//! are sized as a fresh build's) and the rollup the sum of theirs.
//! *Gathered*: the dwell and trace-length columns row by row, and the
//! object column re-ranked from each victim's object set to the merged
//! one. *Copied*: every row's stored payload, verbatim, into its new
//! frame — cold victims are hydrated first (each frame CRC-checked and
//! decoded, as any full read), so only validated bytes are copied.
//! *Moved*: once the merged file is fsynced, the decoded rows leave
//! the victims for the merged segment, which starts out resident; only
//! a run that a hydrated query-side index still shares is cloned
//! instead. The result is, byte for byte, the file an append of the
//! same rows would have written (`tests/segment_build.rs`).
//!
//! Frame 1 is the [`SegmentDirectory`]: one fixed-width entry per
//! trajectory carrying the byte offset and length of its frame plus its
//! span start/end. With it, [`SegmentStore::open`] reads **headers
//! only** — the four leading frames, never a trajectory byte — and a
//! [`Segment`] decodes trajectories lazily: the whole run on first
//! indexed access ([`Segment::trajectories`], cached), or one row at a
//! time by a directory-guided positional read ([`Segment::read_trajectory`],
//! the path sorted/paged query pushdown uses). Both read through the one
//! file handle the segment was opened (or written) with, shared by
//! concurrent readers; no read reopens the file. The span columns double as a
//! sort/pre-filter index: start/end/duration orderings and
//! span-overlap screens need no decode at all.
//!
//! Frame 2 is the segment's [`SortColumns`]: fixed-width per-row
//! *content* sort keys — total dwell seconds, trace length, and the
//! row's moving-object as an index into the zone map's (resident,
//! sorted) object set. The span columns in the directory serve
//! start/end/duration orderings; these columns serve the content-key
//! orderings (`TotalDwell` / `MovingObject` / `TraceLength`), so a
//! sorted/limited query over any key decodes only the returned page.
//!
//! Frame 3 is the [`SegmentRollup`]: per-cell trajectory/stay/dwell
//! totals and per-period span-presence counts pre-aggregated at build,
//! so Stats-style GROUP BY answers come from headers alone.
//!
//! ## The row-decode cache
//!
//! Directory-guided single-row seeks ([`Segment::read_trajectory`])
//! populate a **store-wide bounded row cache** keyed
//! by `(segment id, row index)` with a configurable byte budget
//! ([`WarehouseConfig::row_cache_bytes`], default 16 MiB, `0`
//! disables). Only they do: a full decode ([`Segment::trajectories`])
//! makes the segment resident, and a resident segment answers every
//! read from its own run ([`Segment::resident_row`] borrows a row and
//! its stored bytes) before the cache is consulted, so seeding the
//! cache from it would only evict rows of segments still cold.
//! Repeated paged scans over the same hot rows decode each
//! row once; cold rows are evicted second-chance (CLOCK) when the
//! budget overflows — a hit marks its row hot instead of refiling a
//! strict-LRU order, keeping the warm path allocation-free — and a
//! compaction that retires a segment id invalidates
//! that segment's entries wholesale (ids are never reused, so a stale
//! hit is impossible). Residency is observable via the
//! `query.row_cache_hits` / `query.row_cache_misses` /
//! `query.row_cache_evicted_bytes` counters and the
//! `query.row_cache_bytes` gauge.
//!
//! ## The global object index
//!
//! The cross-segment **object → segment-ids** postings let
//! warehouse-wide moving-object point lookups name exactly the segments
//! holding an object instead of probing every segment's Bloom/zone map.
//! They are derived, never stored: one k-way merge of the live
//! segments' zone-map [`ObjectSet`]s — flat sorted name tables, already
//! resident — at open and after every commit, into one more such table
//! plus compressed sparse rows of segment ids. No commit writes them,
//! so none can fail on them; a file an older build persisted them in is
//! removed at open.
//!
//! ## The manifest log
//!
//! Segment files become visible only through `manifest.log`, a
//! [`LogStore`] of [`ManifestRecord`]s. Each record is a *complete*
//! snapshot of the live segment set, so the newest intact record *is*
//! the newest complete manifest — a torn tail (crash mid-append) simply
//! truncates back to the previous record, and a segment file written but
//! never referenced (crash between file write and manifest append) is
//! garbage-collected at the next open. The log stays bounded by the
//! [`CompactionPolicy`] idiom the checkpoint log already uses: every
//! `every` commits the log is atomically rewritten to the newest `keep`
//! records (`keep ≥ 2` keeps a fallback manifest for the torn-newest
//! case, mirroring the checkpoint contract).
//!
//! ## Crash-safety protocol
//!
//! 1. write the new segment file, fsync it (and its directory);
//! 2. append a manifest record referencing it, fsync the log;
//! 3. (compaction only) delete the replaced segment files, best-effort.
//!
//! A crash at any byte of any step recovers to a complete earlier state:
//! before 2 the new segment is invisible garbage; after 2 it is durable.
//! Deletion in 3 is **deferred past the retention window**: a victim
//! file is removed only once *no record still in the manifest log*
//! references it — the torn-newest fallback record must be able to
//! serve its full segment set, so files it names stay on disk until its
//! record rotates out. A crash anywhere in between only leaves orphans
//! for the next open's GC. `tests/warehouse.rs` tortures both the
//! manifest and the newest segment file at every byte offset.
//!
//! ## Where things live
//!
//! The module follows the fact/dimension split of the
//! trajectory-warehouse literature:
//!
//! * `format.rs` — *facts*: the segment file's layout (the only code
//!   that knows it: one assembler, fed by `Segment::create` and
//!   `Segment::merge`) and the [`Segment`] that reads rows out of one;
//! * `index.rs` — *dimension indexes*: [`ZoneMap`] and its Bloom
//!   hashes, [`SegmentDirectory`], [`SortColumns`] — each built from
//!   rows, and merged or gathered from others of its kind;
//! * `objects.rs` — the moving-object dimension: [`ObjectSet`], the
//!   flat sorted name table a zone map keeps, and the object index
//!   merged from those;
//! * `rollup.rs` — *aggregates*: [`CellRollup`], [`SegmentRollup`];
//! * `row_cache.rs` — the bounded row-decode cache;
//! * `manifest.rs` — [`ManifestRecord`], file names;
//! * this file — [`WarehouseError`], [`WarehouseConfig`] and the
//!   [`SegmentStore`]: open, append, replace, the size-tiered plan,
//!   the manifest commit, GC.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sitm_core::SemanticTrajectory;
use sitm_obs::{Counter, MetricsRegistry};

use crate::checkpoint::CompactionPolicy;
use crate::codec::CodecError;
use crate::log::{LogStore, RecoveryReport, StoreError};
use crate::segment::Corruption;

mod format;
mod index;
mod manifest;
mod objects;
mod rollup;
mod row_cache;
#[cfg(test)]
mod tests;

pub use format::{sort_run, Segment};
use index::MAX_SEGMENT_ROWS;
pub use index::{
    cell_bloom_hash, object_bloom_hash, DirectoryEntry, SegmentDirectory, SortColumns, ZoneMap,
};
pub use manifest::{parse_segment_file_name, segment_file_name, ManifestRecord, SegmentRef};
pub use objects::ObjectSet;
pub use rollup::{CellRollup, SegmentRollup, DEFAULT_ROLLUP_PERIOD_SECONDS};
pub use row_cache::DEFAULT_ROW_CACHE_BYTES;

use format::LazyIoMetrics;
use objects::ObjectIndex;
use row_cache::RowCache;

/// Files older builds kept beside the manifest: the persisted object
/// index, which is now derived at open. Removed when found.
const STALE_FILES: [&str; 2] = ["objindex.log", "objindex.tmp"];

/// Warehouse-tier failures.
#[derive(Debug)]
pub enum WarehouseError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Manifest-log failure.
    Store(StoreError),
    /// A payload failed to decode.
    Codec(CodecError),
    /// A *referenced* segment file is corrupt (bitrot or tampering —
    /// never a torn write, which can only hit unreferenced files).
    CorruptSegment {
        /// The segment id.
        id: u64,
        /// What the scanner found.
        corruption: Corruption,
    },
    /// A referenced segment file is missing or inconsistent with its
    /// manifest entry.
    Inconsistent {
        /// The segment id.
        id: u64,
        /// What went wrong.
        what: &'static str,
    },
    /// An append or a merge asked for one segment of more rows than a
    /// segment file can hold (its directory is one frame). Nothing was
    /// written.
    SegmentTooLarge {
        /// Rows asked for.
        rows: usize,
        /// Most rows one segment holds.
        limit: usize,
    },
}

impl std::fmt::Display for WarehouseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WarehouseError::Io(e) => write!(f, "io: {e}"),
            WarehouseError::Store(e) => write!(f, "manifest: {e}"),
            WarehouseError::Codec(e) => write!(f, "codec: {e}"),
            WarehouseError::CorruptSegment { id, corruption } => {
                write!(f, "segment {id} is corrupt: {corruption}")
            }
            WarehouseError::Inconsistent { id, what } => {
                write!(f, "segment {id} inconsistent with manifest: {what}")
            }
            WarehouseError::SegmentTooLarge { rows, limit } => {
                write!(f, "{rows} rows do not fit one segment (limit {limit})")
            }
        }
    }
}

impl std::error::Error for WarehouseError {}

impl From<std::io::Error> for WarehouseError {
    fn from(e: std::io::Error) -> Self {
        WarehouseError::Io(e)
    }
}

impl From<StoreError> for WarehouseError {
    fn from(e: StoreError) -> Self {
        WarehouseError::Store(e)
    }
}

impl From<CodecError> for WarehouseError {
    fn from(e: CodecError) -> Self {
        WarehouseError::Codec(e)
    }
}

#[cfg(unix)]
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

#[cfg(not(unix))]
fn sync_dir(_dir: &Path) -> std::io::Result<()> {
    Ok(())
}

/// Warehouse-tier configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarehouseConfig {
    /// Manifest-log compaction (the checkpoint-log idiom: `keep ≥ 2`
    /// retains a fallback manifest for a torn newest record).
    pub manifest: CompactionPolicy,
    /// Size-tiered compaction fanout: when `fanout` segments share a
    /// size tier (log₂ bucket of record count), they merge into one.
    pub fanout: usize,
    /// Byte budget of the store-wide row-decode cache (see the module
    /// docs; `0` disables caching entirely).
    pub row_cache_bytes: usize,
}

impl Default for WarehouseConfig {
    fn default() -> Self {
        WarehouseConfig {
            manifest: CompactionPolicy::default(),
            fanout: 4,
            row_cache_bytes: DEFAULT_ROW_CACHE_BYTES,
        }
    }
}

/// Warehouse-tier instrument handles, resolved once per registry so the
/// write path pays atomics only (`store.*` metric names).
#[derive(Debug, Clone)]
struct StoreMetrics {
    segments_built: Arc<Counter>,
    segments_compacted: Arc<Counter>,
    segment_bytes_written: Arc<Counter>,
    /// Rows encoded to build a segment: one per appended row, none per
    /// merged row.
    rows_encoded: Arc<Counter>,
    manifest_records: Arc<Counter>,
    gc_sweeps: Arc<Counter>,
    /// Segments opened headers-only (no trajectory decoded at open).
    lazy_opens: Arc<Counter>,
}

impl StoreMetrics {
    fn bind(registry: &MetricsRegistry) -> StoreMetrics {
        StoreMetrics {
            segments_built: registry.counter("store.segments_built"),
            segments_compacted: registry.counter("store.segments_compacted"),
            segment_bytes_written: registry.counter("store.segment_bytes_written"),
            rows_encoded: registry.counter("store.rows_encoded"),
            manifest_records: registry.counter("store.manifest_records"),
            gc_sweeps: registry.counter("store.gc_sweeps"),
            lazy_opens: registry.counter("store.lazy_opens"),
        }
    }
}

/// The durable warehouse tier: immutable segment files behind a
/// manifest log, with atomic (manifest-mediated) append and replace.
pub struct SegmentStore {
    dir: PathBuf,
    manifest: LogStore<ManifestRecord>,
    /// The cross-segment object index of `segments` (see the module
    /// docs).
    object_index: ObjectIndex,
    policy: WarehouseConfig,
    /// Most rows one segment may hold: [`MAX_SEGMENT_ROWS`], except in
    /// this module's tests, which lower it to reach the refusals.
    row_limit: usize,
    metrics: StoreMetrics,
    lazy_io: LazyIoMetrics,
    /// The store-wide bounded row-decode cache every segment shares.
    row_cache: RowCache,
    segments: Vec<Segment>,
    /// Newest `policy.manifest.keep` records, oldest first — what a
    /// manifest compaction rewrites the log to.
    history: VecDeque<ManifestRecord>,
    /// Replaced segments whose files must outlive the manifest records
    /// that still reference them (torn-newest recovery serves the
    /// previous record's full set). Swept after every commit.
    garbage: BTreeSet<u64>,
    commits_since_compact: u64,
    sequence: u64,
    next_id: u64,
    /// Lifetime count of segments opened headers-only, kept alongside
    /// the `store.lazy_opens` counter so a [`set_metrics`] rebind can
    /// credit a fresh registry with opens that predate it (a server
    /// binds its registry *after* recovery).
    ///
    /// [`set_metrics`]: SegmentStore::set_metrics
    lazy_opened: u64,
}

impl SegmentStore {
    /// Opens (or creates) the warehouse at `dir`: recovers the newest
    /// complete manifest, loads every referenced segment, and
    /// garbage-collects unreferenced segment files (the residue of a
    /// crash between segment write and manifest append, or of a
    /// compaction that never got to delete its victims). The object
    /// index is merged from the segments' zone maps.
    pub fn open(
        dir: impl AsRef<Path>,
        policy: WarehouseConfig,
    ) -> Result<(SegmentStore, RecoveryReport), WarehouseError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let (manifest, records, report) =
            LogStore::<ManifestRecord>::open(dir.join("manifest.log"))?;
        let metrics = StoreMetrics::bind(MetricsRegistry::global());
        let lazy_io = LazyIoMetrics::bind(MetricsRegistry::global());
        let row_cache = RowCache::new(policy.row_cache_bytes, MetricsRegistry::global());
        let current = records.last().cloned();
        let history: VecDeque<ManifestRecord> = records
            .iter()
            .rev()
            .take(policy.manifest.keep.max(1))
            .rev()
            .cloned()
            .collect();
        let mut segments = Vec::new();
        let mut current_ids = BTreeSet::new();
        // Every record still in the (truncation-repaired) log can be
        // the one a future torn-tail recovery lands on; protect every
        // file any of them references.
        let referenced: BTreeSet<u64> = records
            .iter()
            .flat_map(|r| r.segments.iter().map(|s| s.id))
            .collect();
        let mut next_id = 0;
        let mut sequence = 0;
        if let Some(record) = &current {
            sequence = record.sequence;
            for r in &record.segments {
                current_ids.insert(r.id);
                next_id = next_id.max(r.id + 1);
                let path = dir.join(segment_file_name(r.id));
                let segment = Segment::open(path, r.id, lazy_io.clone(), row_cache.clone())?;
                if segment.len() as u64 != r.records || segment.zone_map.len != r.records {
                    return Err(WarehouseError::Inconsistent {
                        id: r.id,
                        what: "manifest record count disagrees with segment",
                    });
                }
                segments.push(segment);
            }
        }
        let lazy_opened = segments.len() as u64;
        metrics.lazy_opens.add(lazy_opened);
        let object_index = ObjectIndex::build(&segments);
        // Older manifest records in the retained history may reference
        // ids above the current set; never reuse those either.
        for record in &history {
            for r in &record.segments {
                next_id = next_id.max(r.id + 1);
            }
        }
        // GC: a segment file *no record in the log* references is
        // garbage from an interrupted append/compaction; one a
        // non-current record still references is deferred garbage the
        // commit sweep will collect once that record rotates out. (Ids
        // climb past stray files too, so a failed delete can never
        // collide.)
        let mut garbage = BTreeSet::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if STALE_FILES.contains(&name) {
                let _ = std::fs::remove_file(entry.path());
                continue;
            }
            let Some(id) = parse_segment_file_name(name) else {
                continue;
            };
            next_id = next_id.max(id + 1);
            if !referenced.contains(&id) {
                let _ = std::fs::remove_file(entry.path());
            } else if !current_ids.contains(&id) {
                garbage.insert(id);
            }
        }
        Ok((
            SegmentStore {
                dir,
                manifest,
                object_index,
                policy,
                row_limit: MAX_SEGMENT_ROWS,
                metrics,
                lazy_io,
                row_cache,
                segments,
                history,
                garbage,
                commits_since_compact: 0,
                sequence,
                next_id,
                lazy_opened,
            },
            report,
        ))
    }

    /// Re-points the `store.*` instruments at `registry` (stores
    /// default to [`MetricsRegistry::global`]; a server injects its
    /// own so its `Metrics` op reflects this pipeline alone). The
    /// lazy-read instruments every live segment charges follow along.
    pub fn set_metrics(&mut self, registry: &MetricsRegistry) {
        let fresh = StoreMetrics::bind(registry);
        // Recovery-time lazy opens predate the rebind; credit them so
        // `store.lazy_opens` reflects this store's whole lifetime no
        // matter when the owner injected its registry. (A registry
        // hands back the same counter `Arc`, so rebinding to the
        // registry already in place never double-counts.)
        if !Arc::ptr_eq(&fresh.lazy_opens, &self.metrics.lazy_opens) {
            fresh.lazy_opens.add(self.lazy_opened);
        }
        self.metrics = fresh;
        self.lazy_io = LazyIoMetrics::bind(registry);
        for s in &mut self.segments {
            s.io = self.lazy_io.clone();
        }
        self.row_cache.set_metrics(registry);
    }

    /// Ids of the segments holding `object`, ascending (exact, from the
    /// global object index): empty when the object appears nowhere in
    /// the warehouse. A query layer may skip every other segment without
    /// probing its Bloom or zone map.
    pub fn object_segments(&self, object: &str) -> &[u64] {
        self.object_index.segments_of(object)
    }

    /// Distinct objects in the global object index.
    pub fn object_index_len(&self) -> usize {
        self.object_index.len()
    }

    /// The warehouse directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configuration in force.
    pub fn policy(&self) -> WarehouseConfig {
        self.policy
    }

    /// Live segments, in warehouse iteration order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total trajectories across every live segment (from directories;
    /// no decode).
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// True when no segment is live.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The newest manifest sequence.
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// Refuses a segment of `rows` rows when one file cannot hold them.
    fn check_rows(&self, rows: usize) -> Result<(), WarehouseError> {
        if rows > self.row_limit {
            return Err(WarehouseError::SegmentTooLarge {
                rows,
                limit: self.row_limit,
            });
        }
        Ok(())
    }

    /// Burns the next segment id and names its file.
    fn next_segment(&mut self) -> (u64, PathBuf) {
        let id = self.next_id;
        self.next_id += 1;
        (id, self.dir.join(segment_file_name(id)))
    }

    /// What follows a new segment file's own fsync, before the manifest
    /// may name it: its directory entry is made durable too.
    fn segment_written(&self, bytes: usize) -> Result<(), WarehouseError> {
        sync_dir(&self.dir)?;
        self.metrics.segments_built.inc();
        self.metrics.segment_bytes_written.add(bytes as u64);
        Ok(())
    }

    /// Commits the current segment set as a new manifest record,
    /// appending or compacting per the manifest policy, and derives the
    /// set's object index. Durable on return.
    fn commit_manifest(&mut self) -> Result<(), WarehouseError> {
        self.object_index = ObjectIndex::build(&self.segments);
        self.sequence += 1;
        let record = ManifestRecord {
            sequence: self.sequence,
            segments: self
                .segments
                .iter()
                .map(|s| SegmentRef {
                    id: s.id,
                    records: s.len() as u64,
                })
                .collect(),
        };
        self.history.push_back(record);
        while self.history.len() > self.policy.manifest.keep.max(1) {
            self.history.pop_front();
        }
        self.commits_since_compact += 1;
        if self.commits_since_compact >= self.policy.manifest.every.max(1) {
            let retained: Vec<ManifestRecord> = self.history.iter().cloned().collect();
            self.manifest.compact(&retained)?;
            self.commits_since_compact = 0;
        } else {
            let newest = self.history.back().expect("just pushed").clone();
            self.manifest.append(&newest)?;
            self.manifest.sync()?;
        }
        self.metrics.manifest_records.inc();
        self.sweep_garbage();
        Ok(())
    }

    /// Deletes deferred-victim files whose last referencing manifest
    /// record has rotated out of the retained history (torn-newest
    /// recovery can no longer land on them).
    fn sweep_garbage(&mut self) {
        let protected: BTreeSet<u64> = self
            .history
            .iter()
            .flat_map(|r| r.segments.iter().map(|s| s.id))
            .collect();
        let mut kept = BTreeSet::new();
        for id in std::mem::take(&mut self.garbage) {
            if protected.contains(&id) {
                kept.insert(id);
            } else {
                let _ = std::fs::remove_file(self.dir.join(segment_file_name(id)));
            }
        }
        self.garbage = kept;
        self.metrics.gc_sweeps.inc();
    }

    /// Appends one immutable segment holding `trajectories` (sorted into
    /// the canonical run order) and commits the manifest. An empty batch
    /// is a no-op; one of more rows than a segment holds is refused with
    /// [`WarehouseError::SegmentTooLarge`] before any file is created.
    pub fn append_segment(
        &mut self,
        trajectories: Vec<SemanticTrajectory>,
    ) -> Result<(), WarehouseError> {
        if trajectories.is_empty() {
            return Ok(());
        }
        self.check_rows(trajectories.len())?;
        let (id, path) = self.next_segment();
        let (segment, bytes) = Segment::create(
            path,
            id,
            trajectories,
            self.lazy_io.clone(),
            self.row_cache.clone(),
            &self.metrics.rows_encoded,
        )?;
        self.segment_written(bytes)?;
        self.segments.push(segment);
        self.commit_manifest()
    }

    /// Cuts a spill into batches [`SegmentStore::append_segment`]
    /// accepts. A batch within the row limit comes back whole and as it
    /// was; a larger one is put in canonical run order ([`sort_run`])
    /// and cut every row-limit rows, so each segment covers its own
    /// stretch of the run.
    pub fn split_at_row_limit(
        &self,
        mut trajectories: Vec<SemanticTrajectory>,
    ) -> Vec<Vec<SemanticTrajectory>> {
        if trajectories.len() <= self.row_limit {
            return vec![trajectories];
        }
        sort_run(&mut trajectories);
        let mut batches = Vec::new();
        while trajectories.len() > self.row_limit {
            let rest = trajectories.split_off(self.row_limit);
            batches.push(std::mem::replace(&mut trajectories, rest));
        }
        batches.push(trajectories);
        batches
    }

    /// Replaces the segments named in `victims` with one merged segment
    /// holding their union as a single run (`Segment::merge`: stored
    /// payloads copied, decoded rows moved, nothing re-encoded). The
    /// merged segment takes the position of the first victim. Victim
    /// files are deleted only once **no retained manifest record**
    /// references them (the garbage sweep run on every commit), so a
    /// torn newest record always recovers to a manifest whose files are
    /// all on disk. A victim set of more rows than a segment holds is
    /// refused with [`WarehouseError::SegmentTooLarge`] before any file
    /// is created; an error before the merged file is durable leaves
    /// every victim live and readable.
    pub fn replace_segments(&mut self, victims: &[u64]) -> Result<(), WarehouseError> {
        if victims.len() < 2 {
            return Ok(());
        }
        let victim_set: BTreeSet<u64> = victims.iter().copied().collect();
        let is_victim = |s: &Segment| victim_set.contains(&s.id);
        self.check_rows(
            self.segments
                .iter()
                .filter(|s| is_victim(s))
                .map(Segment::len)
                .sum(),
        )?;
        let position = self
            .segments
            .iter()
            .position(is_victim)
            .unwrap_or(self.segments.len());
        let (id, path) = self.next_segment();
        let mut sources: Vec<&mut Segment> =
            self.segments.iter_mut().filter(|s| is_victim(s)).collect();
        let (segment, bytes) = Segment::merge(
            path,
            id,
            &mut sources,
            self.lazy_io.clone(),
            self.row_cache.clone(),
        )?;
        self.segment_written(bytes)?;
        self.segments.retain(|s| !is_victim(s));
        self.segments
            .insert(position.min(self.segments.len()), segment);
        // Retired ids never serve reads again (and are never reused):
        // drop their cached rows wholesale.
        for victim in &victim_set {
            self.row_cache.invalidate_segment(*victim);
        }
        self.garbage.extend(victim_set);
        self.metrics.segments_compacted.inc();
        self.commit_manifest()
    }

    /// Size-tiered compaction plan: the ids of one tier's segments that
    /// should merge now (`None` when no tier is due). Tiers are log₂
    /// buckets of record count; the lowest over-full tier merges first,
    /// so small flush segments coalesce before anything large is
    /// rewritten. A tier whose rows together would not fit one segment
    /// is never proposed: its segments are as large as segments get.
    pub fn plan_size_tiered(&self) -> Option<Vec<u64>> {
        let sizes: Vec<(u64, u64)> = self
            .segments
            .iter()
            .map(|s| (s.id, s.len() as u64))
            .collect();
        plan_tiers(&sizes, self.policy.fanout, self.row_limit as u64)
    }

    /// Runs size-tiered compaction to a fixed point: while any tier holds
    /// at least `fanout` segments, merge it. Returns the number of merges
    /// performed.
    pub fn compact_size_tiered(&mut self) -> Result<usize, WarehouseError> {
        let mut merges = 0;
        while let Some(victims) = self.plan_size_tiered() {
            self.replace_segments(&victims)?;
            merges += 1;
        }
        Ok(merges)
    }
}

/// The tier choice of [`SegmentStore::plan_size_tiered`] over `(id,
/// rows)` pairs in warehouse order: the lowest log₂ tier holding at
/// least `fanout` segments whose rows sum to at most `row_limit` —
/// every merge it proposes can be written as one segment.
fn plan_tiers(segments: &[(u64, u64)], fanout: usize, row_limit: u64) -> Option<Vec<u64>> {
    let mut tiers: BTreeMap<u32, (Vec<u64>, u64)> = BTreeMap::new();
    for &(id, rows) in segments {
        let tier = 63 - rows.max(1).leading_zeros(); // log2 bucket
        let (ids, total) = tiers.entry(tier).or_default();
        ids.push(id);
        *total = total.saturating_add(rows);
    }
    tiers
        .into_values()
        .find(|(ids, total)| ids.len() >= fanout.max(2) && *total <= row_limit)
        .map(|(ids, _)| ids)
}

impl std::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentStore")
            .field("dir", &self.dir)
            .field("segments", &self.segments.len())
            .field("records", &self.len())
            .field("sequence", &self.sequence)
            .finish()
    }
}
