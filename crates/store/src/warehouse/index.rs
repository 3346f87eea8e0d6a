//! Dimension indexes: what a segment keeps resident about its rows so
//! queries can decide *without decoding them* — the [`ZoneMap`] (which
//! segments a predicate can match at all), the [`SegmentDirectory`]
//! (where each row's frame sits, plus its span columns) and the
//! [`SortColumns`] (per-row content sort keys). Each is one header
//! frame of a segment file; `format` fixes their order.

use std::collections::BTreeSet;

use sitm_codec::{put_i64, put_u64, take_count, take_flag, take_span, take_u64};
use sitm_core::{AnnotationSet, SemanticTrajectory, TimeInterval, Timestamp};
use sitm_space::CellRef;

use super::objects::ObjectSet;
use crate::bloom::{fnv1a, Bloom};
use crate::codec::{decode_annotations, decode_cell, encode_annotations, encode_cell, CodecError};
use crate::segment;

/// Per-segment pruning metadata: the aggregate "where / when / what / who"
/// of every trajectory in the segment. A query layer consults it to skip
/// whole segments a predicate provably cannot match (soundness lives in
/// the consumer: pruning may only say *no* when no trajectory in the
/// segment can match).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ZoneMap {
    /// Trajectories in the segment.
    pub len: u64,
    /// Minimum span start and maximum span end across the segment
    /// (`None` only for an empty map).
    pub span: Option<TimeInterval>,
    /// Every cell any trajectory stays in.
    pub cells: BTreeSet<CellRef>,
    /// Every moving-object identifier.
    pub objects: ObjectSet,
    /// Union of the whole-trajectory annotation sets (`A_traj`).
    pub traj_annotations: AnnotationSet,
    /// Union of the per-stay annotation sets (`A_i`).
    pub stay_annotations: AnnotationSet,
    /// Bloom filter over [`ZoneMap::cells`]: a one-probe-sequence fast
    /// *no* for cell point predicates before the exact set is touched.
    pub cell_bloom: Bloom,
    /// Bloom filter over [`ZoneMap::objects`] (same contract).
    pub object_bloom: Bloom,
}

/// The stable hash a [`ZoneMap`] bloom probes for a cell.
pub fn cell_bloom_hash(cell: &CellRef) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&(cell.layer.index() as u64).to_le_bytes());
    bytes[8..].copy_from_slice(&(cell.node.index() as u64).to_le_bytes());
    fnv1a(&bytes)
}

/// The stable hash a [`ZoneMap`] bloom probes for a moving-object id.
pub fn object_bloom_hash(id: &str) -> u64 {
    fnv1a(id.as_bytes())
}

/// `span` widened to cover `other`.
fn cover(span: Option<TimeInterval>, other: TimeInterval) -> Option<TimeInterval> {
    Some(match span {
        None => other,
        Some(s) => TimeInterval::new(s.start.min(other.start), s.end.max(other.end)),
    })
}

/// Adds to `set` whatever of `other` it lacks. Annotations repeat from
/// row to row, so the common case is a probe and no clone.
fn absorb(set: &mut AnnotationSet, other: &AnnotationSet) {
    for a in other.iter() {
        if !set.contains(a) {
            set.insert(a.clone());
        }
    }
}

impl ZoneMap {
    /// Builds the map over a run of trajectories.
    ///
    /// Cells and object ids are collected as plain runs (`CellRef`s by
    /// value, ids borrowed), sorted and deduplicated once, and the sets
    /// built from the sorted result — no tree insert per row, and the
    /// distinct ids copied into one buffer.
    pub fn build(trajectories: &[SemanticTrajectory]) -> ZoneMap {
        let mut span = None;
        let mut cells = Vec::new();
        let mut objects = Vec::with_capacity(trajectories.len());
        let mut traj_annotations = AnnotationSet::new();
        let mut stay_annotations = AnnotationSet::new();
        for t in trajectories {
            span = cover(span, t.span());
            objects.push(t.moving_object.as_str());
            absorb(&mut traj_annotations, t.annotations());
            for stay in t.trace().intervals() {
                cells.push(stay.cell);
                absorb(&mut stay_annotations, &stay.annotations);
            }
        }
        ZoneMap::from_runs(
            trajectories.len() as u64,
            span,
            cells,
            ObjectSet::from_run(objects),
            traj_annotations,
            stay_annotations,
        )
    }

    /// The map of the rows of all of `maps` together — what
    /// [`ZoneMap::build`] returns for those rows, derived without them.
    pub(super) fn union(maps: &[&ZoneMap]) -> ZoneMap {
        let mut len = 0;
        let mut span = None;
        let mut cells = Vec::new();
        let mut traj_annotations = AnnotationSet::new();
        let mut stay_annotations = AnnotationSet::new();
        for map in maps {
            len += map.len;
            if let Some(other) = map.span {
                span = cover(span, other);
            }
            cells.extend(&map.cells);
            absorb(&mut traj_annotations, &map.traj_annotations);
            absorb(&mut stay_annotations, &map.stay_annotations);
        }
        ZoneMap::from_runs(
            len,
            span,
            cells,
            ObjectSet::union(&maps.iter().map(|m| &m.objects).collect::<Vec<_>>()),
            traj_annotations,
            stay_annotations,
        )
    }

    /// Finishes a map from an unsorted, repeating run of cells and the
    /// object set: sort, dedup, bulk-build the cell set (see
    /// [`ZoneMap::decode`] for why from sorted input), then the blooms
    /// over the sets.
    fn from_runs(
        len: u64,
        span: Option<TimeInterval>,
        mut cells: Vec<CellRef>,
        objects: ObjectSet,
        traj_annotations: AnnotationSet,
        stay_annotations: AnnotationSet,
    ) -> ZoneMap {
        cells.sort_unstable();
        cells.dedup();
        let cells: BTreeSet<CellRef> = cells.into_iter().collect();
        ZoneMap {
            len,
            span,
            cell_bloom: Bloom::build(cells.iter().map(cell_bloom_hash)),
            object_bloom: Bloom::build(objects.iter().map(object_bloom_hash)),
            cells,
            objects,
            traj_annotations,
            stay_annotations,
        }
    }

    /// Membership test for cell point predicates: the bloom answers a
    /// definite *no* from one probe sequence; only a *maybe* falls
    /// through to the exact ordered set. No false negatives, so a
    /// `false` here is as sound a prune as the set's.
    pub fn may_contain_cell(&self, cell: &CellRef) -> bool {
        self.cell_bloom.may_contain(cell_bloom_hash(cell)) && self.cells.contains(cell)
    }

    /// Membership test for moving-object point predicates (see
    /// [`ZoneMap::may_contain_cell`]).
    pub fn may_contain_object(&self, id: &str) -> bool {
        self.object_bloom.may_contain(object_bloom_hash(id)) && self.objects.contains(id)
    }

    /// Bloom-only fast rejection for a cell (query planners use this to
    /// report how much work the blooms alone saved).
    pub fn bloom_rejects_cell(&self, cell: &CellRef) -> bool {
        !self.cell_bloom.may_contain(cell_bloom_hash(cell))
    }

    /// Bloom-only fast rejection for a moving-object id.
    pub fn bloom_rejects_object(&self, id: &str) -> bool {
        !self.object_bloom.may_contain(object_bloom_hash(id))
    }

    /// Encodes the map.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.len);
        match self.span {
            None => buf.push(0),
            Some(span) => {
                buf.push(1);
                put_i64(buf, span.start.as_seconds());
                put_u64(buf, span.duration().as_seconds() as u64);
            }
        }
        put_u64(buf, self.cells.len() as u64);
        for cell in &self.cells {
            encode_cell(buf, *cell);
        }
        self.objects.encode(buf);
        encode_annotations(buf, &self.traj_annotations);
        encode_annotations(buf, &self.stay_annotations);
        self.cell_bloom.encode(buf);
        self.object_bloom.encode(buf);
    }

    /// Decodes a map encoded by [`ZoneMap::encode`].
    pub fn decode(buf: &mut &[u8]) -> Result<ZoneMap, CodecError> {
        let len = take_u64(buf)?;
        let span = if take_flag(buf)? {
            let (start, end) = take_span(buf, 0)?;
            Some(TimeInterval::new(Timestamp(start), Timestamp(end)))
        } else {
            None
        };
        let cell_count = take_count(buf, 1)?;
        // The cells were encoded in sorted order, so collecting through a
        // Vec lets `BTreeSet::from_iter` bulk-build the tree (one
        // already-sorted pass) instead of rebalancing per insert — open
        // decodes every resident zone map, so this is on the cold-open
        // hot path.
        let mut cell_run = Vec::with_capacity(cell_count);
        for _ in 0..cell_count {
            cell_run.push(decode_cell(buf)?);
        }
        let cells: BTreeSet<CellRef> = cell_run.into_iter().collect();
        let objects = ObjectSet::decode(buf)?;
        let traj_annotations = decode_annotations(buf)?;
        let stay_annotations = decode_annotations(buf)?;
        let cell_bloom = Bloom::decode(buf)?;
        let object_bloom = Bloom::decode(buf)?;
        Ok(ZoneMap {
            len,
            span,
            cells,
            objects,
            traj_annotations,
            stay_annotations,
            cell_bloom,
            object_bloom,
        })
    }
}

// --- the offset directory --------------------------------------------------

/// One trajectory's position inside its segment file, plus the span
/// columns sorted/paged pushdown orders by without decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectoryEntry {
    /// Byte offset of the trajectory's frame (its marker byte) from the
    /// start of the file.
    pub offset: u64,
    /// Total frame length in bytes, overhead included.
    pub len: u32,
    /// Span start (`tstart`), seconds.
    pub start: i64,
    /// Span end (`tend`), seconds.
    pub end: i64,
}

/// Bytes per encoded [`DirectoryEntry`] (fixed width: the directory's
/// own size must be known *before* the offsets it contains are
/// computed, so variable-width encoding would be self-referential).
const DIRECTORY_ENTRY_BYTES: usize = 8 + 4 + 8 + 8;

/// Most rows one segment can hold: the directory is one frame, and a
/// frame's payload is bounded by [`segment::MAX_PAYLOAD`]. (The sort
/// columns, 16 bytes a row, fit wherever the directory does.)
pub(super) const MAX_SEGMENT_ROWS: usize =
    (segment::MAX_PAYLOAD as usize - 8) / DIRECTORY_ENTRY_BYTES;

/// The segment's offset directory: entry `i` locates the
/// frame of trajectory `i` of the sorted run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentDirectory {
    /// Per-trajectory entries, in run order (offsets strictly
    /// ascending and contiguous through the end of the file).
    pub entries: Vec<DirectoryEntry>,
}

impl SegmentDirectory {
    /// Number of trajectories the directory covers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the segment holds no trajectories.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Encodes the directory (fixed width: u64 count, then
    /// offset u64 / len u32 / start i64 / end i64 per entry, all LE).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for e in &self.entries {
            buf.extend_from_slice(&e.offset.to_le_bytes());
            buf.extend_from_slice(&e.len.to_le_bytes());
            buf.extend_from_slice(&e.start.to_le_bytes());
            buf.extend_from_slice(&e.end.to_le_bytes());
        }
    }

    /// Exact encoded size of a directory over `n` entries.
    pub fn encoded_len(n: usize) -> usize {
        8 + n * DIRECTORY_ENTRY_BYTES
    }

    /// Decodes a directory encoded by [`SegmentDirectory::encode`].
    pub fn decode(buf: &mut &[u8]) -> Result<SegmentDirectory, CodecError> {
        if buf.len() < 8 {
            return Err(CodecError::UnexpectedEof);
        }
        let (head, rest) = buf.split_at(8);
        let count = u64::from_le_bytes(head.try_into().expect("8 bytes"));
        *buf = rest;
        if count.saturating_mul(DIRECTORY_ENTRY_BYTES as u64) > buf.len() as u64 {
            return Err(CodecError::LengthOverrun {
                declared: count,
                available: buf.len(),
            });
        }
        let mut entries = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let (head, rest) = buf.split_at(DIRECTORY_ENTRY_BYTES);
            entries.push(DirectoryEntry {
                offset: u64::from_le_bytes(head[0..8].try_into().expect("8 bytes")),
                len: u32::from_le_bytes(head[8..12].try_into().expect("4 bytes")),
                start: i64::from_le_bytes(head[12..20].try_into().expect("8 bytes")),
                end: i64::from_le_bytes(head[20..28].try_into().expect("8 bytes")),
            });
            *buf = rest;
        }
        Ok(SegmentDirectory { entries })
    }

    /// Structural validation against the file it claims to describe:
    /// `expected` entries, frames contiguous from `headers_end` through
    /// exactly `file_len`, every length within frame bounds. Catches a
    /// truncated file or a tampered directory at open, before any
    /// trajectory byte is trusted.
    pub(super) fn validate(
        &self,
        headers_end: u64,
        file_len: u64,
        expected: u64,
    ) -> Result<(), &'static str> {
        if self.entries.len() as u64 != expected {
            return Err("directory count disagrees with zone map");
        }
        let mut cursor = headers_end;
        for e in &self.entries {
            if e.offset != cursor {
                return Err("directory entries not contiguous");
            }
            if (e.len as usize) < segment::FRAME_OVERHEAD
                || e.len > segment::MAX_PAYLOAD + segment::FRAME_OVERHEAD as u32
            {
                return Err("directory entry length out of bounds");
            }
            cursor = match cursor.checked_add(e.len as u64) {
                Some(c) => c,
                None => return Err("directory entry length out of bounds"),
            };
            if cursor > file_len {
                return Err("directory overruns the file (truncated segment)");
            }
        }
        if cursor != file_len {
            return Err("file longer than the directory describes");
        }
        Ok(())
    }
}

// --- content sort columns --------------------------------------------------

/// Bytes per encoded [`SortColumns`] row (dwell i64, trace_len u32,
/// object u32, all LE).
pub(super) const SORT_COLUMN_ROW_BYTES: usize = 8 + 4 + 4;

/// Fixed-width per-row content sort keys: the
/// columns a sorted/paged query orders `TotalDwell` / `MovingObject` /
/// `TraceLength` queries from, deciding which frames to decode before
/// any trajectory is materialized — the content-key twin of the
/// directory's span columns.
///
/// All three vectors have one entry per trajectory, in run order. The
/// moving-object column stores each row's object as an index into the
/// segment's [`ZoneMap::objects`] set in sorted order — the set is
/// always resident, so the actual (globally comparable) string is
/// recovered without decoding the row or persisting a byte of it
/// twice.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SortColumns {
    /// Total dwell per row (sum of stay durations), seconds — orders
    /// exactly as `Trace::dwell_total` (`Duration` is a seconds
    /// newtype).
    pub dwell: Vec<i64>,
    /// Trace tuples per row.
    pub trace_len: Vec<u32>,
    /// Per-row moving-object as an index into the zone map's sorted
    /// object set.
    pub object: Vec<u32>,
}

/// Position of `object` in `objects`, a set that holds it.
fn rank(objects: &ObjectSet, object: &str) -> u32 {
    objects
        .rank(object)
        .expect("the object set covers every row it is ranked for") as u32
}

impl SortColumns {
    /// Builds the columns over a run of trajectories. `objects` is the
    /// object set of the zone map over the same run, which the object
    /// column indexes: each row's id is looked up in it by binary
    /// search.
    ///
    /// # Panics
    ///
    /// If a row's moving object is not in `objects` — the set was not
    /// built over these rows.
    pub fn build(trajectories: &[SemanticTrajectory], objects: &ObjectSet) -> SortColumns {
        let mut columns = SortColumns::default();
        for t in trajectories {
            columns.dwell.push(t.trace().dwell_total().as_seconds());
            columns.trace_len.push(t.trace().len() as u32);
            columns.object.push(rank(objects, &t.moving_object));
        }
        columns
    }

    /// The columns of a merge: row `i` of the result is row `r` of
    /// `parts[p]` for the `i`-th `(p, r)` of `rows`. Dwell and trace
    /// length are copied; the object column, an index into its own
    /// part's object set (the second of each pair), is re-ranked against
    /// `objects`, the merged set (a superset of every part's).
    pub(super) fn gather(
        parts: &[(&SortColumns, &ObjectSet)],
        objects: &ObjectSet,
        rows: impl Iterator<Item = (usize, usize)>,
    ) -> SortColumns {
        let reranked: Vec<Vec<u32>> = parts
            .iter()
            .map(|(_, own)| own.iter().map(|o| rank(objects, o)).collect())
            .collect();
        let mut columns = SortColumns::default();
        for (p, r) in rows {
            let part = parts[p].0;
            columns.dwell.push(part.dwell[r]);
            columns.trace_len.push(part.trace_len[r]);
            columns.object.push(reranked[p][part.object[r] as usize]);
        }
        columns
    }

    /// Rows the columns cover.
    pub fn len(&self) -> usize {
        self.dwell.len()
    }

    /// True when the columns cover no rows.
    pub fn is_empty(&self) -> bool {
        self.dwell.is_empty()
    }

    /// Encodes the columns (fixed width: u64 count, then dwell i64 /
    /// trace_len u32 / object u32 per row, all LE).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.dwell.len() as u64).to_le_bytes());
        for i in 0..self.dwell.len() {
            buf.extend_from_slice(&self.dwell[i].to_le_bytes());
            buf.extend_from_slice(&self.trace_len[i].to_le_bytes());
            buf.extend_from_slice(&self.object[i].to_le_bytes());
        }
    }

    /// Decodes columns encoded by [`SortColumns::encode`].
    pub fn decode(buf: &mut &[u8]) -> Result<SortColumns, CodecError> {
        if buf.len() < 8 {
            return Err(CodecError::UnexpectedEof);
        }
        let (head, rest) = buf.split_at(8);
        let count = u64::from_le_bytes(head.try_into().expect("8 bytes"));
        *buf = rest;
        if count.saturating_mul(SORT_COLUMN_ROW_BYTES as u64) > buf.len() as u64 {
            return Err(CodecError::LengthOverrun {
                declared: count,
                available: buf.len(),
            });
        }
        let mut columns = SortColumns {
            dwell: Vec::with_capacity(count as usize),
            trace_len: Vec::with_capacity(count as usize),
            object: Vec::with_capacity(count as usize),
        };
        for _ in 0..count {
            let (head, rest) = buf.split_at(SORT_COLUMN_ROW_BYTES);
            columns
                .dwell
                .push(i64::from_le_bytes(head[0..8].try_into().expect("8 bytes")));
            columns
                .trace_len
                .push(u32::from_le_bytes(head[8..12].try_into().expect("4 bytes")));
            columns.object.push(u32::from_le_bytes(
                head[12..16].try_into().expect("4 bytes"),
            ));
            *buf = rest;
        }
        Ok(columns)
    }

    /// Structural validation against the zone map the segment opened
    /// with: `rows` entries, every object index inside the zone map's
    /// object set. Catches a tampered or mismatched frame at open,
    /// before any ordering decision trusts it.
    pub(super) fn validate(&self, rows: u64, objects: u64) -> Result<(), &'static str> {
        if self.dwell.len() as u64 != rows {
            return Err("sort-column count disagrees with zone map");
        }
        if self.object.iter().any(|&o| o as u64 >= objects) {
            return Err("sort-column object index out of bounds");
        }
        Ok(())
    }
}
