//! Dimension indexes: what a segment keeps resident about its rows so
//! queries can decide *without decoding them* — the [`ZoneMap`] (which
//! segments a predicate can match at all), the [`SegmentDirectory`]
//! (where each row's frame sits, plus its span columns) and the
//! [`SortColumns`] (per-row content sort keys). Each is one header
//! frame of a segment file; `format` fixes their order.

use std::collections::BTreeSet;

use sitm_codec::{put_i64, put_u64, take_count, take_flag, take_i64, take_span, take_u64};
use sitm_core::{Annotation, AnnotationSet, SemanticTrajectory, TimeInterval, Timestamp};
use sitm_graph::CellRef;

use super::objects::ObjectSet;
use crate::codec::{decode_annotations, decode_cell, encode_annotations, encode_cell, CodecError};
use crate::crc::Crc32;
use crate::segment;

/// Per-segment pruning metadata: the aggregate "where / when / what / who"
/// of every trajectory in the segment, as exact sets. A query layer
/// consults it to skip whole segments a predicate provably cannot match
/// (soundness lives in the consumer: pruning may only say *no* when no
/// trajectory in the segment can match).
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
}

/// `span` widened to cover `other`.
fn cover(span: Option<TimeInterval>, other: TimeInterval) -> Option<TimeInterval> {
    Some(match span {
        None => other,
        Some(s) => TimeInterval::new(s.start.min(other.start), s.end.max(other.end)),
    })
}

/// The set of an unsorted, repeating run of annotations.
fn set_of_run(mut run: Vec<&Annotation>) -> AnnotationSet {
    run.sort_unstable();
    run.dedup();
    run.into_iter().cloned().collect()
}

impl ZoneMap {
    /// Builds the map over a run of trajectories.
    ///
    /// Cells, object ids and annotations are collected as plain runs
    /// (`CellRef`s by value, ids and annotations borrowed), sorted and
    /// deduplicated once, and the sets built from the sorted result — no
    /// tree insert per row, the distinct ids copied into one buffer and
    /// each distinct annotation cloned once, however large the
    /// vocabulary.
    pub fn build(trajectories: &[SemanticTrajectory]) -> ZoneMap {
        let mut span = None;
        let mut cells = Vec::new();
        let mut objects = Vec::with_capacity(trajectories.len());
        let mut traj_annotations = Vec::new();
        let mut stay_annotations = Vec::new();
        for t in trajectories {
            span = cover(span, t.span());
            objects.push(t.moving_object.as_str());
            traj_annotations.extend(t.annotations().iter());
            for stay in t.trace().intervals() {
                cells.push(stay.cell);
                stay_annotations.extend(stay.annotations.iter());
            }
        }
        ZoneMap::from_runs(
            trajectories.len() as u64,
            span,
            cells,
            ObjectSet::from_run(objects),
            set_of_run(traj_annotations),
            set_of_run(stay_annotations),
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
            traj_annotations = traj_annotations.union(&map.traj_annotations);
            stay_annotations = stay_annotations.union(&map.stay_annotations);
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
    /// [`ZoneMap::decode`] for why from sorted input).
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
        ZoneMap {
            len,
            span,
            cells: cells.into_iter().collect(),
            objects,
            traj_annotations,
            stay_annotations,
        }
    }

    /// Membership test for cell point predicates: the exact set, so a
    /// `false` is a sound prune.
    pub fn may_contain_cell(&self, cell: &CellRef) -> bool {
        self.cells.contains(cell)
    }

    /// Membership test for moving-object point predicates (see
    /// [`ZoneMap::may_contain_cell`]).
    pub fn may_contain_object(&self, id: &str) -> bool {
        self.objects.contains(id)
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
        // The cells were encoded strictly ascending, and a run that is
        // not is refused: collected into a set, it would lose its
        // duplicates and order silently. Collecting the checked run
        // through a Vec lets `BTreeSet::from_iter` bulk-build the tree
        // (one already-sorted pass) instead of rebalancing per insert —
        // open decodes every resident zone map, so this is on the
        // cold-open hot path.
        let mut cell_run: Vec<CellRef> = Vec::with_capacity(cell_count);
        for _ in 0..cell_count {
            let cell = decode_cell(buf)?;
            if cell_run.last().is_some_and(|&last| last >= cell) {
                return Err(CodecError::Unsorted);
            }
            cell_run.push(cell);
        }
        let cells: BTreeSet<CellRef> = cell_run.into_iter().collect();
        let objects = ObjectSet::decode(buf)?;
        let traj_annotations = decode_annotations(buf)?;
        let stay_annotations = decode_annotations(buf)?;
        Ok(ZoneMap {
            len,
            span,
            cells,
            objects,
            traj_annotations,
            stay_annotations,
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

/// Most rows one segment can hold. A segment's directory and sort
/// columns are one frame each, and a frame's payload is bounded by
/// [`segment::MAX_PAYLOAD`]; at this many rows both fit with every
/// varint at its widest (`row_limit_frames_fit_one_frame_at_their_widest`
/// checks it). The value is the row count of the fixed-width
/// directory this format replaced, kept so that spills and compaction
/// tiers cut rows where they always have.
pub(super) const MAX_SEGMENT_ROWS: usize = 599_186;

/// The fewest bytes an encoded directory entry or sort-column row takes:
/// three varints of one byte each.
const MIN_ROW_BYTES: usize = 3;

/// The segment's offset directory: entry `i` locates the
/// frame of trajectory `i` of the sorted run.
///
/// Encoded as varints: the row count and the first row's start
/// (ZigZag), then per row its frame length, its start as a delta from
/// the previous row's (rows are sorted by start, so the delta is never
/// negative) and its span's length. No offset is written: frames are
/// contiguous, so offsets are the running sum of the lengths, and
/// a segment rebuilds them when it opens.
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

    /// Encodes the directory: `count`, the first start, then `len`,
    /// Δ`start` and `end − start` per entry. Offsets are not written.
    ///
    /// # Panics
    ///
    /// If the entries are not sorted by start, or a span ends before it
    /// starts: a segment's run order and [`SemanticTrajectory::span`]
    /// rule both out.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.entries.len() as u64);
        let mut previous = self.entries.first().map_or(0, |e| e.start);
        put_i64(buf, previous);
        for e in &self.entries {
            let delta = e
                .start
                .checked_sub(previous)
                .and_then(|d| u64::try_from(d).ok());
            let span = e
                .end
                .checked_sub(e.start)
                .and_then(|d| u64::try_from(d).ok());
            put_u64(buf, e.len as u64);
            put_u64(buf, delta.expect("directory entries ascend by start"));
            put_u64(buf, span.expect("a span ends at or after its start"));
            previous = e.start;
        }
    }

    /// Decodes a directory encoded by [`SegmentDirectory::encode`]. The
    /// count is weighed against the bytes left before anything is
    /// allocated, and every start and end is computed with checked
    /// arithmetic: one past `i64` is [`CodecError::Overflow`]. Offsets
    /// come out 0: a segment computes them from the lengths when it opens.
    pub fn decode(buf: &mut &[u8]) -> Result<SegmentDirectory, CodecError> {
        let count = take_count(buf, MIN_ROW_BYTES)?;
        let mut start = take_i64(buf)?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let len = u32::try_from(take_u64(buf)?).map_err(|_| CodecError::Overflow)?;
            start = start
                .checked_add_unsigned(take_u64(buf)?)
                .ok_or(CodecError::Overflow)?;
            let end = i64::try_from(take_u64(buf)?)
                .ok()
                .and_then(|span| start.checked_add(span))
                .ok_or(CodecError::Overflow)?;
            entries.push(DirectoryEntry {
                offset: 0,
                len,
                start,
                end,
            });
        }
        Ok(SegmentDirectory { entries })
    }

    /// The span of every row together, `(start, end)` in seconds: the
    /// first row's start (rows ascend by start) and the latest end.
    /// `None` for an empty directory.
    pub(super) fn span(&self) -> Option<(i64, i64)> {
        let start = self.entries.first()?.start;
        let end = self.entries.iter().map(|e| e.end).max()?;
        Some((start, end))
    }

    /// Places a decoded directory in the file it claims to describe and
    /// validates it there: `expected` entries, every length within frame
    /// bounds, and the frames, laid end to end from `rows_start`, filling
    /// the file through exactly `file_len`. Each entry's offset is the
    /// checked running sum of the lengths before it. Catches a truncated file or
    /// a tampered directory at open, before any trajectory byte is
    /// trusted.
    pub(super) fn place(
        &mut self,
        rows_start: u64,
        file_len: u64,
        expected: u64,
    ) -> Result<(), &'static str> {
        if self.entries.len() as u64 != expected {
            return Err("directory count disagrees with zone map");
        }
        let mut cursor = rows_start;
        for e in &mut self.entries {
            if (e.len as usize) < segment::FRAME_OVERHEAD
                || e.len > segment::MAX_PAYLOAD + segment::FRAME_OVERHEAD as u32
            {
                return Err("directory entry length out of bounds");
            }
            e.offset = cursor;
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

/// Per-row content sort keys: the
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
/// twice: it is also the only place a row's object is stored.
///
/// Encoded as varints: the row count, then per row its dwell, trace
/// length and object rank.
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

/// Splits a varint off `buf` that must fit a `T`.
fn take_narrow<T: TryFrom<u64>>(buf: &mut &[u8]) -> Result<T, CodecError> {
    T::try_from(take_u64(buf)?).map_err(|_| CodecError::Overflow)
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

    /// Encodes the columns: `count`, then dwell, trace length and
    /// object rank per row.
    ///
    /// # Panics
    ///
    /// On a negative dwell, which no trace has (every stay ends at or
    /// after its start).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.dwell.len() as u64);
        for i in 0..self.dwell.len() {
            put_u64(
                buf,
                u64::try_from(self.dwell[i]).expect("a dwell is never negative"),
            );
            put_u64(buf, self.trace_len[i] as u64);
            put_u64(buf, self.object[i] as u64);
        }
    }

    /// Decodes columns encoded by [`SortColumns::encode`]: the count is
    /// weighed against the bytes left before anything is allocated, and
    /// a value past its column's integer is [`CodecError::Overflow`].
    pub fn decode(buf: &mut &[u8]) -> Result<SortColumns, CodecError> {
        let count = take_count(buf, MIN_ROW_BYTES)?;
        let mut columns = SortColumns {
            dwell: Vec::with_capacity(count),
            trace_len: Vec::with_capacity(count),
            object: Vec::with_capacity(count),
        };
        for _ in 0..count {
            columns.dwell.push(take_narrow(buf)?);
            columns.trace_len.push(take_narrow(buf)?);
            columns.object.push(take_narrow(buf)?);
        }
        Ok(columns)
    }

    /// The witness of the object column: CRC-32 over every row's rank
    /// as four little-endian bytes, in run order. The zone-map frame
    /// stores it, so a rank that passes its own frame's CRC but is not
    /// the one written cannot name a row's object.
    pub fn object_witness(&self) -> u32 {
        let mut crc = Crc32::new();
        for rank in &self.object {
            crc.update(&rank.to_le_bytes());
        }
        crc.finish()
    }

    /// Structural validation against the zone-map frame the segment
    /// opened with: `rows` entries, every object index inside the zone
    /// map's object set, and the object column matching `witness`.
    /// Catches a tampered or mismatched frame at open, before any
    /// ordering decision or row decode trusts it.
    pub(super) fn validate(
        &self,
        rows: u64,
        objects: u64,
        witness: u32,
    ) -> Result<(), &'static str> {
        if self.dwell.len() as u64 != rows {
            return Err("sort-column count disagrees with zone map");
        }
        if self.object.iter().any(|&o| o as u64 >= objects) {
            return Err("sort-column object index out of bounds");
        }
        if self.object_witness() != witness {
            return Err("sort-column object ranks disagree with their witness");
        }
        Ok(())
    }
}
