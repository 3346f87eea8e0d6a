//! Trajectory facts: the segment file and the [`Segment`] that reads it.
//!
//! The one place that knows how a `seg-NNNNNNNN.seg` file is laid out
//! (the module docs of [`super`] describe it): the magic, the four
//! header frames and their order, where the trajectory frames start.
//! [`encode_segment_file`] — the assembler — is the one writer of that
//! layout, and it takes rows already encoded. It has two feeders:
//! [`Segment::create`] encodes a batch once into one arena, orders it,
//! and hands over the arena's slices; [`Segment::merge`] hands over the
//! payloads its victims already hold and encodes nothing.
//! [`Segment::open`] reads the headers back in the assembler's order
//! and refuses a file that is anything else;
//! [`Segment::read_trajectory`] and [`Segment::trajectories`] read rows
//! through the directory. Frames are validated by
//! [`segment::read_frame`], here as everywhere.
//!
//! A hydrated segment keeps two things, together or not at all: the
//! decoded run (what predicates and the per-segment postings read) and
//! the stored bytes that run was decoded from (what a served page is
//! copied out of, and what a merge copies into the next file — a row's
//! frame payload *is* its encoding). [`Segment::resident_row`] hands
//! out one row of both.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::ops::Range;
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

/// A row's span as the directory stores it: `(start, end)` in seconds,
/// read once (`start()`/`end()` each fold the whole trace).
fn span_seconds(t: &SemanticTrajectory) -> (i64, i64) {
    let span = t.span();
    (span.start.as_seconds(), span.end.as_seconds())
}

/// Sorts trajectories into the canonical in-segment order: span start,
/// span end, then encoded bytes as a total tiebreak. Every segment is
/// one such sorted run, which makes segment order (and therefore every
/// differential comparison against an in-memory `sitm_query`-style
/// collection) deterministic regardless of flush timing or merge order.
///
/// Each row's span is read once and cached, a permutation of row
/// indexes is sorted on those keys, and a row is encoded only when its
/// span ties with another's — the bytes decide nothing else. Rows that
/// tie on all three keys are equal, so their relative order is not
/// observable. The rows are then moved into place, not cloned.
pub fn sort_run(trajectories: &mut [SemanticTrajectory]) {
    let spans: Vec<(i64, i64)> = trajectories.iter().map(span_seconds).collect();
    let mut order: Vec<usize> = (0..trajectories.len()).collect();
    order.sort_unstable_by_key(|&i| spans[i]);
    let mut bytes = Vec::new();
    let mut tied: Vec<(Range<usize>, usize)> = Vec::new();
    for run in order.chunk_by_mut(|&a, &b| spans[a] == spans[b]) {
        if run.len() < 2 {
            continue;
        }
        bytes.clear();
        tied.clear();
        for &i in run.iter() {
            let from = bytes.len();
            encode_trajectory(&mut bytes, &trajectories[i]);
            tied.push((from..bytes.len(), i));
        }
        tied.sort_unstable_by(|a, b| bytes[a.0.clone()].cmp(&bytes[b.0.clone()]));
        for (slot, (_, i)) in run.iter_mut().zip(&tied) {
            *slot = *i;
        }
    }
    permute(trajectories, &mut order);
}

/// Moves `rows[order[i]]` to position `i` for every `i`, in place, by
/// walking each cycle of the permutation once. `order` is consumed (it
/// is the identity afterwards).
fn permute<T>(rows: &mut [T], order: &mut [usize]) {
    for first in 0..rows.len() {
        // `first`'s own row is carried along its cycle: each swap puts
        // the right row at `at` and parks the carried one at the next
        // position to fill — its own, when the cycle closes.
        let mut at = first;
        loop {
            let from = std::mem::replace(&mut order[at], at);
            if from == first {
                break;
            }
            rows.swap(at, from);
            at = from;
        }
    }
}

/// One row as the assembler takes it: the two span columns of its
/// directory entry and its encoding, the payload of its frame.
struct StoredRow<'a> {
    start: i64,
    end: i64,
    payload: &'a [u8],
}

/// What a segment's header frames hold besides the directory (which
/// falls out of assembling): [`Segment::create`] computes them from
/// its rows, [`Segment::merge`] from its victims' own.
struct Headers {
    zone_map: ZoneMap,
    rollup: SegmentRollup,
    sort_columns: SortColumns,
}

/// The assembler: serializes one segment (magic, zone map, offset
/// directory, sort columns, rollup, one frame per row) into a buffer
/// and returns it with the directory describing it. `rows` are in run
/// order and already encoded; nothing here looks inside one.
fn encode_segment_file(headers: &Headers, rows: &[StoredRow<'_>]) -> (Vec<u8>, SegmentDirectory) {
    // The header frames' sizes must be known before any offset is
    // final (which is why the directory is fixed-width).
    let mut zone_payload = Vec::new();
    headers.zone_map.encode(&mut zone_payload);
    let mut sort_payload = Vec::new();
    headers.sort_columns.encode(&mut sort_payload);
    let mut rollup_payload = Vec::new();
    headers.rollup.encode(&mut rollup_payload);
    let headers_end = MAGIC.len()
        + segment::FRAME_OVERHEAD
        + zone_payload.len()
        + segment::FRAME_OVERHEAD
        + SegmentDirectory::encoded_len(rows.len())
        + segment::FRAME_OVERHEAD
        + sort_payload.len()
        + segment::FRAME_OVERHEAD
        + rollup_payload.len();
    let mut directory = SegmentDirectory::default();
    directory.entries.reserve_exact(rows.len());
    let mut offset = headers_end as u64;
    for row in rows {
        let len = (segment::FRAME_OVERHEAD + row.payload.len()) as u32;
        directory.entries.push(DirectoryEntry {
            offset,
            len,
            start: row.start,
            end: row.end,
        });
        offset += len as u64;
    }
    let mut buf = Vec::with_capacity(offset as usize);
    buf.extend_from_slice(MAGIC);
    segment::write_frame(&mut buf, &zone_payload);
    let mut directory_payload = Vec::with_capacity(SegmentDirectory::encoded_len(rows.len()));
    directory.encode(&mut directory_payload);
    segment::write_frame(&mut buf, &directory_payload);
    segment::write_frame(&mut buf, &sort_payload);
    segment::write_frame(&mut buf, &rollup_payload);
    debug_assert_eq!(buf.len(), headers_end);
    for row in rows {
        segment::write_frame(&mut buf, row.payload);
    }
    (buf, directory)
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

/// Fills `buf` from `file` at `offset`. A positional read takes `&self`
/// and moves no cursor, so every reader of a segment shares the one
/// handle it was opened or written with.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(windows)]
fn read_exact_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, offset) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
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
    /// image [`Segment::create`] or [`Segment::merge`] assembled beside
    /// `run` and wrote.
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
    /// The backing file, open for the segment's lifetime: the source of
    /// every lazy read, by position, so no read reopens it.
    file: File,
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
    ///
    /// Every row is encoded exactly once (charged to `encoded`), into
    /// one arena; the order is decided on `(start, end, arena slice)` —
    /// [`sort_run`]'s total order — and the assembler frames the same
    /// slices.
    pub(super) fn create(
        path: PathBuf,
        id: u64,
        mut trajectories: Vec<SemanticTrajectory>,
        io: LazyIoMetrics,
        cache: RowCache,
        encoded: &Counter,
    ) -> Result<(Segment, usize), WarehouseError> {
        // Row `i`'s encoding is `arena[bounds[i]..bounds[i + 1]]`.
        let mut arena = Vec::new();
        let mut bounds = vec![0];
        let mut spans = Vec::with_capacity(trajectories.len());
        for t in &trajectories {
            spans.push(span_seconds(t));
            encode_trajectory(&mut arena, t);
            bounds.push(arena.len());
        }
        encoded.add(trajectories.len() as u64);
        let payload = |i: usize| &arena[bounds[i]..bounds[i + 1]];
        let mut order: Vec<usize> = (0..trajectories.len()).collect();
        order.sort_unstable_by(|&a, &b| (spans[a], payload(a)).cmp(&(spans[b], payload(b))));
        let rows: Vec<StoredRow<'_>> = order
            .iter()
            .map(|&i| StoredRow {
                start: spans[i].0,
                end: spans[i].1,
                payload: payload(i),
            })
            .collect();
        permute(&mut trajectories, &mut order);
        let zone_map = ZoneMap::build(&trajectories);
        let headers = Headers {
            rollup: SegmentRollup::build(&trajectories, DEFAULT_ROLLUP_PERIOD_SECONDS),
            sort_columns: SortColumns::build(&trajectories, &zone_map.objects),
            zone_map,
        };
        let (segment, image) = Segment::write(path, id, headers, &rows, io, cache)?;
        Ok(segment.hydrated(trajectories, image))
    }

    /// Merges `victims` — each one sorted run — into the segment file
    /// at `path`, fsynced: byte for byte the file [`Segment::create`]
    /// writes for their rows together, without encoding or cloning one.
    ///
    /// * Cold victims are hydrated first, through
    ///   [`Segment::trajectories`] (every frame validated and decoded).
    /// * The order is decided on `(directory start, directory end,
    ///   stored payload, victim, row)`: [`sort_run`]'s order over
    ///   columns and bytes already resident.
    /// * The zone map is the union of the victims' (blooms rebuilt over
    ///   the merged sets, so they are sized as a build would size
    ///   them), the rollup their sum; dwell and trace-length columns
    ///   are gathered and the object column re-ranked against the
    ///   merged object set.
    /// * The assembler frames the victims' stored payloads.
    /// * Once the file is durable the decoded rows are *moved* out of
    ///   the victims, which are left cold; a run something else still
    ///   shares (a hydrated query-side index) is cloned instead.
    ///
    /// An error before that last step leaves every victim as it was
    /// (hydrated, if it was cold).
    pub(super) fn merge(
        path: PathBuf,
        id: u64,
        victims: &mut [&mut Segment],
        io: LazyIoMetrics,
        cache: RowCache,
    ) -> Result<(Segment, usize), WarehouseError> {
        let mut order = Vec::new();
        for (v, victim) in victims.iter().enumerate() {
            victim.trajectories()?;
            for (r, entry) in victim.directory.entries.iter().enumerate() {
                let (_, payload) = victim.resident_row(r).ok_or(WarehouseError::Inconsistent {
                    id: victim.id,
                    what: "hydrated segment lacks a row its directory lists",
                })?;
                order.push((entry.start, entry.end, payload, v, r));
            }
        }
        // Stable, so the victims' runs are found and merged, not
        // re-sorted.
        order.sort();
        // The merged order must take each victim's rows in the order
        // that victim stores them: that is what "sorted run" means, and
        // what lets the rows be moved out front to back below.
        let mut next = vec![0; victims.len()];
        for &(.., v, r) in &order {
            if r != next[v] {
                return Err(WarehouseError::Inconsistent {
                    id: victims[v].id,
                    what: "segment rows are not in run order",
                });
            }
            next[v] += 1;
        }
        let zone_map = ZoneMap::union(&victims.iter().map(|v| &v.zone_map).collect::<Vec<_>>());
        let mut rollup = SegmentRollup::new(DEFAULT_ROLLUP_PERIOD_SECONDS);
        for victim in victims.iter() {
            rollup.merge(&victim.rollup);
        }
        let parts: Vec<_> = victims
            .iter()
            .map(|v| (&v.sort_columns, &v.zone_map.objects))
            .collect();
        let headers = Headers {
            sort_columns: SortColumns::gather(
                &parts,
                &zone_map.objects,
                order.iter().map(|&(.., v, r)| (v, r)),
            ),
            zone_map,
            rollup,
        };
        let rows: Vec<StoredRow<'_>> = order
            .iter()
            .map(|&(start, end, payload, ..)| StoredRow {
                start,
                end,
                payload,
            })
            .collect();
        let sources: Vec<usize> = order.iter().map(|&(.., v, _)| v).collect();
        let (segment, image) = Segment::write(path, id, headers, &rows, io, cache)?;
        let mut runs: Vec<_> = victims
            .iter_mut()
            .map(|victim| {
                let resident = victim.loaded.take().expect("hydrated above");
                Arc::try_unwrap(resident.run)
                    .unwrap_or_else(|shared| shared.to_vec())
                    .into_iter()
            })
            .collect();
        let run = sources
            .into_iter()
            .map(|v| runs[v].next().expect("one row per ordered entry"))
            .collect();
        Ok(segment.hydrated(run, image))
    }

    /// Assembles the file over `rows`, writes it at `path` and fsyncs
    /// it. Returns the segment, still cold, and the image written.
    fn write(
        path: PathBuf,
        id: u64,
        headers: Headers,
        rows: &[StoredRow<'_>],
        io: LazyIoMetrics,
        cache: RowCache,
    ) -> Result<(Segment, Vec<u8>), WarehouseError> {
        let (image, directory) = encode_segment_file(&headers, rows);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(&image)?;
        file.sync_all()?;
        let segment = Segment {
            id,
            zone_map: headers.zone_map,
            directory,
            sort_columns: headers.sort_columns,
            rollup: headers.rollup,
            file,
            loaded: OnceLock::new(),
            io,
            cache,
        };
        Ok((segment, image))
    }

    /// Makes a segment just written resident: `run` is its rows in run
    /// order, `image` the whole file. Returns it with the bytes written.
    fn hydrated(mut self, run: Vec<SemanticTrajectory>, image: Vec<u8>) -> (Segment, usize) {
        let written = image.len();
        self.loaded = OnceLock::from(Resident {
            run: Arc::new(run),
            bytes: image,
            base: 0,
        });
        (self, written)
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
            file: headers.file,
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

    /// Decodes trajectory `i` alone: one directory-guided positional
    /// read of its frame, never touching the rest of the run (unless the run
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
        let mut frame = vec![0u8; entry.len as usize];
        read_exact_at(&self.file, &mut frame, entry.offset)?;
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
        let mut region = vec![0u8; total];
        read_exact_at(&self.file, &mut region, first)?;
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
