//! Trajectory facts: the segment file and the [`Segment`] that reads it.
//!
//! The one place that knows how a `seg-NNNNNNNN.seg` file is laid out
//! (the module docs of [`super`] describe it): the magic, the four
//! header frames and their order, where the trajectory frames start.
//! [`encode_segment_file`] writes that layout; [`Segment::open`] reads
//! the headers back in that order and refuses a file that is anything
//! else;
//! [`Segment::read_trajectory`] and [`Segment::trajectories`] read rows
//! through the directory. Frames are validated by
//! [`segment::read_frame`], here as everywhere.
//!
//! A hydrated segment keeps two things, together or not at all: the
//! decoded run (what predicates and the per-segment postings read) and
//! the stored bytes that run was decoded from (what a served page is
//! copied out of — a row's frame payload *is* its wire encoding).
//! [`Segment::resident_row`] hands out one row of both.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use sitm_core::SemanticTrajectory;
use sitm_obs::{Counter, MetricsRegistry};

use super::index::{DirectoryEntry, SegmentDirectory, SortColumns, ZoneMap};
use super::rollup::{SegmentRollup, DEFAULT_ROLLUP_PERIOD_SECONDS};
use super::row_cache::RowCache;
use super::WarehouseError;
use crate::codec::{decode_trajectory, encode_trajectory, CodecError};
use crate::segment::{self, Corruption};

/// The magic every segment file opens with. A file with any other —
/// an older format, a newer one, a damaged one — is refused at open.
const MAGIC: &[u8; 8] = b"SITMSEG3";

/// Sorts trajectories into the canonical in-segment order: span start,
/// span end, then encoded bytes as a total tiebreak. Every segment is
/// one such sorted run, which makes segment order (and therefore every
/// differential comparison against an in-memory `sitm_query`-style
/// collection) deterministic regardless of flush timing or merge order.
pub fn sort_run(trajectories: &mut [SemanticTrajectory]) {
    trajectories.sort_by_cached_key(|t| {
        let mut bytes = Vec::new();
        encode_trajectory(&mut bytes, t);
        (t.start(), t.end(), bytes)
    });
}

/// Serializes one segment (magic, zone map, offset directory, sort
/// columns, rollup, trajectories) into a buffer, returning the encoded
/// file plus the directory and sort columns describing it.
fn encode_segment_file(
    zone_map: &ZoneMap,
    rollup: &SegmentRollup,
    trajectories: &[SemanticTrajectory],
) -> (Vec<u8>, SegmentDirectory, SortColumns) {
    // Encode the trajectory payloads first: the directory needs their
    // lengths, and the header frames' sizes must be known before any
    // offset is final (which is why the directory is fixed-width).
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(trajectories.len());
    for t in trajectories {
        let mut p = Vec::new();
        encode_trajectory(&mut p, t);
        payloads.push(p);
    }
    let mut zone_payload = Vec::new();
    zone_map.encode(&mut zone_payload);
    let sort_columns = SortColumns::build(trajectories);
    let mut sort_payload = Vec::new();
    sort_columns.encode(&mut sort_payload);
    let mut rollup_payload = Vec::new();
    rollup.encode(&mut rollup_payload);
    let headers_end = MAGIC.len()
        + segment::FRAME_OVERHEAD
        + zone_payload.len()
        + segment::FRAME_OVERHEAD
        + SegmentDirectory::encoded_len(trajectories.len())
        + segment::FRAME_OVERHEAD
        + sort_payload.len()
        + segment::FRAME_OVERHEAD
        + rollup_payload.len();
    let mut directory = SegmentDirectory::default();
    let mut offset = headers_end as u64;
    for (t, p) in trajectories.iter().zip(&payloads) {
        let len = (segment::FRAME_OVERHEAD + p.len()) as u32;
        let span = t.span();
        directory.entries.push(DirectoryEntry {
            offset,
            len,
            start: span.start.as_seconds(),
            end: span.end.as_seconds(),
        });
        offset += len as u64;
    }
    let mut buf = Vec::with_capacity(offset as usize);
    buf.extend_from_slice(MAGIC);
    segment::write_frame(&mut buf, &zone_payload);
    let mut directory_payload = Vec::new();
    directory.encode(&mut directory_payload);
    segment::write_frame(&mut buf, &directory_payload);
    segment::write_frame(&mut buf, &sort_payload);
    segment::write_frame(&mut buf, &rollup_payload);
    debug_assert_eq!(buf.len(), headers_end);
    for p in &payloads {
        segment::write_frame(&mut buf, p);
    }
    (buf, directory, sort_columns)
}

/// A segment file being opened: its header frames, read in sequence.
struct HeaderFrames {
    /// Positioned at `at`.
    file: File,
    file_len: u64,
    /// Offset of the next frame.
    at: u64,
    id: u64,
    buf: Vec<u8>,
}

impl HeaderFrames {
    /// Reads the next frame and not a byte past it — the header bytes
    /// first (their declared length says how many more to fetch, never
    /// more than the file holds), then the body — validates it with
    /// [`segment::read_frame`], and decodes its payload with `decode`.
    fn next<T>(
        &mut self,
        decode: fn(&mut &[u8]) -> Result<T, CodecError>,
        trailing: &'static str,
    ) -> Result<T, WarehouseError> {
        let id = self.id;
        let corrupt = |corruption| WarehouseError::CorruptSegment { id, corruption };
        let (at, buf) = (self.at as usize, &mut self.buf);
        let available = self.file_len.saturating_sub(self.at);
        buf.clear();
        buf.resize(available.min(segment::FRAME_OVERHEAD as u64) as usize, 0);
        self.file.read_exact(buf)?;
        let (payload_len, _) = segment::parse_frame_header(buf, at).map_err(corrupt)?;
        let frame_len = (segment::FRAME_OVERHEAD + payload_len) as u64;
        buf.resize(available.min(frame_len) as usize, 0);
        self.file.read_exact(&mut buf[segment::FRAME_OVERHEAD..])?;
        let (payload, frame_len) = segment::read_frame(buf, at).map_err(corrupt)?;
        self.at += frame_len as u64;
        decode_whole(payload, decode, id, trailing)
    }
}

/// Decodes a frame's payload, which must be used up exactly.
fn decode_whole<T>(
    mut payload: &[u8],
    decode: impl FnOnce(&mut &[u8]) -> Result<T, CodecError>,
    id: u64,
    trailing: &'static str,
) -> Result<T, WarehouseError> {
    let value = decode(&mut payload)?;
    if !payload.is_empty() {
        return Err(WarehouseError::Inconsistent { id, what: trailing });
    }
    Ok(value)
}

/// Lazy-read instrument handles a [`Segment`] charges its decode work
/// to (`query.*` names: they measure what queries *cost*, not what the
/// write path produced).
#[derive(Debug, Clone)]
pub(super) struct LazyIoMetrics {
    bytes_read: Arc<Counter>,
    decoded: Arc<Counter>,
}

impl LazyIoMetrics {
    pub(super) fn bind(registry: &MetricsRegistry) -> LazyIoMetrics {
        LazyIoMetrics {
            bytes_read: registry.counter("query.segment_bytes_read"),
            decoded: registry.counter("query.trajectories_decoded"),
        }
    }
}

/// What a hydrated segment holds: the decoded run beside the stored
/// bytes it was decoded from. One value behind one `OnceLock`, so the
/// two are resident together or not at all.
#[derive(Debug)]
struct Resident {
    /// The sorted run (`Arc` so per-segment indexes borrow the same
    /// storage instead of cloning it).
    run: Arc<Vec<SemanticTrajectory>>,
    /// File bytes from offset `base` to the end of the last trajectory
    /// frame: either the region [`Segment::decode_all`] read — every
    /// frame of it validated by [`Segment::decode_row`] — or the file
    /// image [`Segment::create`] encoded from `run` and wrote.
    bytes: Vec<u8>,
    /// File offset of `bytes[0]` (directory offsets are file offsets).
    base: u64,
}

/// One live segment: headers resident (zone map, offset directory,
/// sort columns, rollup), trajectories decoded **lazily** — a segment
/// every query prunes costs ~zero bytes read for its entire lifetime.
#[derive(Debug)]
pub struct Segment {
    /// Segment id.
    pub id: u64,
    /// Pruning metadata.
    pub zone_map: ZoneMap,
    /// Per-trajectory offsets + span columns.
    directory: SegmentDirectory,
    /// Fixed-width content sort keys.
    sort_columns: SortColumns,
    /// Per-zone / per-period pre-aggregates.
    rollup: SegmentRollup,
    /// Backing file (the source of every lazy read).
    path: PathBuf,
    /// The run and its stored bytes, read and decoded at most once and
    /// shared from then on.
    loaded: OnceLock<Resident>,
    pub(super) io: LazyIoMetrics,
    /// The store-wide bounded row-decode cache (shared by every
    /// segment of the owning store).
    cache: RowCache,
}

impl Segment {
    /// Writes `trajectories` (sorted into the canonical run order) as
    /// the segment file at `path`, fsynced, and returns the segment —
    /// its run and the file image just written both resident, so a
    /// freshly flushed segment serves queries without re-reading its
    /// own file — and the bytes written.
    pub(super) fn create(
        path: PathBuf,
        id: u64,
        mut trajectories: Vec<SemanticTrajectory>,
        io: LazyIoMetrics,
        cache: RowCache,
    ) -> Result<(Segment, usize), WarehouseError> {
        sort_run(&mut trajectories);
        let zone_map = ZoneMap::build(&trajectories);
        let rollup = SegmentRollup::build(&trajectories, DEFAULT_ROLLUP_PERIOD_SECONDS);
        let (buf, directory, sort_columns) = encode_segment_file(&zone_map, &rollup, &trajectories);
        let mut file = File::create(&path)?;
        file.write_all(&buf)?;
        file.sync_all()?;
        let written = buf.len();
        let segment = Segment {
            id,
            zone_map,
            directory,
            sort_columns,
            rollup,
            path,
            loaded: OnceLock::from(Resident {
                run: Arc::new(trajectories),
                bytes: buf,
                base: 0,
            }),
            io,
            cache,
        };
        Ok((segment, written))
    }

    /// Opens the segment file at `path` reading headers only: the magic
    /// and the four header frames, never a trajectory byte. Every
    /// header is validated against the others and against the file's
    /// length before the segment is trusted with a query.
    pub(super) fn open(
        path: PathBuf,
        id: u64,
        io: LazyIoMetrics,
        cache: RowCache,
    ) -> Result<Segment, WarehouseError> {
        let mut file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        let mut magic = [0u8; MAGIC.len()];
        if file_len >= magic.len() as u64 {
            file.read_exact(&mut magic)?;
        }
        if &magic != MAGIC {
            return Err(WarehouseError::CorruptSegment {
                id,
                corruption: Corruption::BadHeader,
            });
        }
        let mut headers = HeaderFrames {
            file,
            file_len,
            at: MAGIC.len() as u64,
            id,
            buf: Vec::new(),
        };
        let zone_map = headers.next(ZoneMap::decode, "trailing bytes after zone map")?;
        let directory = headers.next(SegmentDirectory::decode, "trailing bytes after directory")?;
        let sort_columns =
            headers.next(SortColumns::decode, "trailing bytes after sort columns")?;
        let rollup = headers.next(SegmentRollup::decode, "trailing bytes after rollup")?;
        directory
            .validate(headers.at, file_len, zone_map.len)
            .map_err(|what| WarehouseError::Inconsistent { id, what })?;
        sort_columns
            .validate(zone_map.len, zone_map.objects.len() as u64)
            .map_err(|what| WarehouseError::Inconsistent { id, what })?;
        Ok(Segment {
            id,
            zone_map,
            directory,
            sort_columns,
            rollup,
            path,
            loaded: OnceLock::new(),
            io,
            cache,
        })
    }

    /// Trajectories in the segment (from the directory; no decode).
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// True when the segment holds no trajectories.
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// The offset directory (per-trajectory offset/length/span).
    pub fn directory(&self) -> &SegmentDirectory {
        &self.directory
    }

    /// The pre-aggregated rollup frame.
    pub fn rollup(&self) -> &SegmentRollup {
        &self.rollup
    }

    /// The content sort columns: one row per trajectory, resident from
    /// open, so ordering by a content key never forces a decode.
    pub fn sort_columns(&self) -> &SortColumns {
        &self.sort_columns
    }

    /// True once the sorted run has been decoded (and cached).
    pub fn is_loaded(&self) -> bool {
        self.loaded.get().is_some()
    }

    /// The full sorted run, decoding (and caching) it on first call.
    /// Concurrent callers race benignly: one result wins the cache.
    /// Fails only on bitrot/tampering in the trajectory region — open
    /// already validated the headers — and then nothing stays resident.
    pub fn trajectories(&self) -> Result<&Arc<Vec<SemanticTrajectory>>, WarehouseError> {
        if let Some(resident) = self.loaded.get() {
            return Ok(&resident.run);
        }
        let _hydrate = sitm_obs::trace::child_detail("segment_hydrate");
        let resident = self.decode_all()?;
        Ok(&self.loaded.get_or_init(|| resident).run)
    }

    /// Row `i` of a hydrated segment, borrowed: the decoded trajectory
    /// and its stored encoding — the payload of the row's frame, which
    /// is `encode_trajectory` of that trajectory and therefore the
    /// bytes a reply carries for it. `None` when the segment is not
    /// hydrated (or `i` is not a row of it): the caller reads the row
    /// with [`Segment::read_trajectory`], which names the error.
    ///
    /// The slice is cut with the directory's offsets — validated
    /// against the file at open — out of bytes every frame of which
    /// was validated and decoded at hydration, or that this store
    /// encoded and wrote itself when it created the segment.
    pub fn resident_row(&self, i: usize) -> Option<(&SemanticTrajectory, &[u8])> {
        let resident = self.loaded.get()?;
        let entry = self.directory.entries.get(i)?;
        let frame = usize::try_from(entry.offset.checked_sub(resident.base)?).ok()?;
        let payload = resident.bytes.get(
            frame.checked_add(segment::FRAME_OVERHEAD)?..frame.checked_add(entry.len as usize)?,
        )?;
        Some((resident.run.get(i)?, payload))
    }

    /// Decodes trajectory `i` alone: one directory-guided seek + one
    /// frame read, never touching the rest of the run (unless the run
    /// is already cached, which is free). The sorted/paged pushdown
    /// path — paging never materializes non-returned trajectories.
    /// Consults (and on a miss, populates) the store-wide row cache, so
    /// a warm re-scan of the same rows decodes nothing.
    pub fn read_trajectory(&self, i: usize) -> Result<SemanticTrajectory, WarehouseError> {
        let out_of_range = || WarehouseError::Inconsistent {
            id: self.id,
            what: "trajectory index out of range",
        };
        if let Some(resident) = self.loaded.get() {
            return resident.run.get(i).cloned().ok_or_else(out_of_range);
        }
        let entry = self.directory.entries.get(i).ok_or_else(out_of_range)?;
        if let Some(t) = self.cache.get(self.id, i) {
            return Ok(t);
        }
        let _row = sitm_obs::trace::child_detail("row_read");
        let mut file = File::open(&self.path)?;
        let mut frame = vec![0u8; entry.len as usize];
        file.seek(SeekFrom::Start(entry.offset))?;
        file.read_exact(&mut frame)?;
        self.io.bytes_read.add(entry.len as u64);
        self.io.decoded.inc();
        let t = self.decode_row(entry, &frame)?;
        self.cache.insert(self.id, i, &t, entry.len as u64);
        Ok(t)
    }

    /// Reads the whole trajectory region in one pass, validates and
    /// decodes every frame of it, and returns the run together with the
    /// region it came from. The row cache is not touched: a hydrated
    /// segment answers every read from `loaded`, ahead of the cache.
    fn decode_all(&self) -> Result<Resident, WarehouseError> {
        let entries = &self.directory.entries;
        let mut trajectories = Vec::with_capacity(entries.len());
        let (Some(first), Some(last)) = (entries.first(), entries.last()) else {
            return Ok(Resident {
                run: Arc::new(trajectories),
                bytes: Vec::new(),
                base: 0,
            });
        };
        let first = first.offset;
        let total = (last.offset + last.len as u64 - first) as usize;
        let mut file = File::open(&self.path)?;
        file.seek(SeekFrom::Start(first))?;
        let mut region = vec![0u8; total];
        file.read_exact(&mut region)?;
        self.io.bytes_read.add(total as u64);
        for entry in entries {
            let start = (entry.offset - first) as usize;
            trajectories.push(self.decode_row(entry, &region[start..start + entry.len as usize])?);
        }
        self.io.decoded.add(trajectories.len() as u64);
        Ok(Resident {
            run: Arc::new(trajectories),
            bytes: region,
            base: first,
        })
    }

    /// Validates `frame` — the bytes the directory says hold one row —
    /// and decodes the row. Both lazy paths end here, so a damaged
    /// frame is the same error whichever of them meets it.
    fn decode_row(
        &self,
        entry: &DirectoryEntry,
        frame: &[u8],
    ) -> Result<SemanticTrajectory, WarehouseError> {
        let (payload, frame_len) =
            segment::read_frame(frame, entry.offset as usize).map_err(|corruption| {
                WarehouseError::CorruptSegment {
                    id: self.id,
                    corruption,
                }
            })?;
        if frame_len != frame.len() {
            return Err(WarehouseError::Inconsistent {
                id: self.id,
                what: "frame length disagrees with directory",
            });
        }
        decode_whole(
            payload,
            decode_trajectory,
            self.id,
            "trailing bytes after trajectory",
        )
    }
}
