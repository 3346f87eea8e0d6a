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
//! A row's frame payload is the *tail* of its encoding (what
//! [`crate::codec::decode_trajectory_tail`] reads): every fact a header
//! already holds is left out. The moving object is the zone map's,
//! named by the row's rank in the sort columns; the base (the span
//! start) is the directory's. A row is decoded from the three together
//! ([`Segment::read_trajectory`]), and its decoded span, dwell and
//! trace length must be the directory's and the sort columns'.
//!
//! A hydrated segment keeps two things, together or not at all: the
//! decoded run (what predicates and the per-segment postings read) and
//! the rows' whole encodings (`encode_trajectory`: object, base, then
//! the stored tail), put together once, when the segment is written or
//! hydrated. They are what a served page is copied out of, and what a
//! merge orders by and frames the tails of into the next file.
//! [`Segment::resident_row`] hands out one row of both.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use sitm_codec::{put_i64, put_str, take_bytes, take_i64};
use sitm_core::{SemanticTrajectory, Timestamp};
use sitm_obs::{Counter, MetricsRegistry};

use super::index::{DirectoryEntry, SegmentDirectory, SortColumns, ZoneMap};
use super::rollup::{SegmentRollup, DEFAULT_ROLLUP_PERIOD_SECONDS};
use super::row_cache::RowCache;
use super::WarehouseError;
use crate::codec::{decode_trajectory_tail, encode_trajectory, CodecError};
use crate::segment::{self, Corruption};

/// The magic every segment file opens with. A file with any other —
/// an older format, a newer one, a damaged one — is refused at open.
const MAGIC: &[u8; 8] = b"SITMSEG5";

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

/// Rows' whole encodings (`encode_trajectory`) end to end in one
/// buffer, in run order: row `i` is `bytes[bounds[i]..bounds[i + 1]]`.
#[derive(Debug)]
struct Encodings {
    bytes: Vec<u8>,
    bounds: Vec<usize>,
}

impl Encodings {
    fn with_capacity(rows: usize, bytes: usize) -> Encodings {
        let mut bounds = Vec::with_capacity(rows + 1);
        bounds.push(0);
        Encodings {
            bytes: Vec::with_capacity(bytes),
            bounds,
        }
    }

    /// Appends the next row's encoding.
    fn push(&mut self, encoding: &[u8]) {
        self.bytes.extend_from_slice(encoding);
        self.bounds.push(self.bytes.len());
    }

    /// Appends the next row's encoding from its parts: the object and
    /// base a segment's headers hold, then the tail its frame holds.
    fn push_stored(&mut self, object: &str, base: i64, tail: &[u8]) {
        put_str(&mut self.bytes, object);
        put_i64(&mut self.bytes, base);
        self.bytes.extend_from_slice(tail);
        self.bounds.push(self.bytes.len());
    }

    /// Row `i`'s encoding.
    fn get(&self, i: usize) -> Option<&[u8]> {
        let (start, end) = (*self.bounds.get(i)?, *self.bounds.get(i + 1)?);
        self.bytes.get(start..end)
    }
}

/// The stored tail of a row's whole encoding: what follows its object
/// and base, the payload of its frame.
fn tail(encoding: &[u8]) -> Result<&[u8], CodecError> {
    let mut rest = encoding;
    take_bytes(&mut rest)?;
    take_i64(&mut rest)?;
    Ok(rest)
}

/// What a segment's header frames hold besides the directory (which
/// falls out of assembling): [`Segment::create`] computes them from
/// its rows, [`Segment::merge`] from its victims' own.
struct Headers {
    zone_map: ZoneMap,
    rollup: SegmentRollup,
    sort_columns: SortColumns,
}

/// The zone-map frame's payload: the [`ZoneMap`], then the witness of
/// the sort columns' object ranks ([`SortColumns::object_witness`]) as
/// four little-endian bytes.
fn decode_zone_frame(buf: &mut &[u8]) -> Result<(ZoneMap, u32), CodecError> {
    let zone_map = ZoneMap::decode(buf)?;
    let (witness, rest) = buf
        .split_first_chunk::<4>()
        .ok_or(CodecError::UnexpectedEof)?;
    *buf = rest;
    Ok((zone_map, u32::from_le_bytes(*witness)))
}

/// The assembler: serializes one segment (magic, zone map and object
/// witness, offset directory, sort columns, rollup, one frame per row)
/// into a buffer and returns it with the directory describing it. Row `i` has span
/// `spans[i]` and encoding `encodings.get(i)`, in run order; its frame
/// holds the encoding's tail.
fn encode_segment_file(
    headers: &Headers,
    spans: &[(i64, i64)],
    encodings: &Encodings,
) -> Result<(Vec<u8>, SegmentDirectory), CodecError> {
    let tails = (0..spans.len())
        .map(|i| tail(encodings.get(i).ok_or(CodecError::UnexpectedEof)?))
        .collect::<Result<Vec<&[u8]>, CodecError>>()?;
    // The directory writes lengths and spans, not offsets, so it is
    // encoded before any offset is known; offsets follow from the
    // header frames' sizes.
    let mut directory = SegmentDirectory::default();
    directory.entries.reserve_exact(spans.len());
    for (&(start, end), tail) in spans.iter().zip(&tails) {
        directory.entries.push(DirectoryEntry {
            offset: 0,
            len: (segment::FRAME_OVERHEAD + tail.len()) as u32,
            start,
            end,
        });
    }
    let mut zone_payload = Vec::new();
    headers.zone_map.encode(&mut zone_payload);
    zone_payload.extend_from_slice(&headers.sort_columns.object_witness().to_le_bytes());
    let mut directory_payload = Vec::new();
    directory.encode(&mut directory_payload);
    let mut sort_payload = Vec::new();
    headers.sort_columns.encode(&mut sort_payload);
    let mut rollup_payload = Vec::new();
    headers.rollup.encode(&mut rollup_payload);
    let headers_end = MAGIC.len()
        + segment::FRAME_OVERHEAD
        + zone_payload.len()
        + segment::FRAME_OVERHEAD
        + directory_payload.len()
        + segment::FRAME_OVERHEAD
        + sort_payload.len()
        + segment::FRAME_OVERHEAD
        + rollup_payload.len();
    let mut offset = headers_end as u64;
    for entry in &mut directory.entries {
        entry.offset = offset;
        offset += entry.len as u64;
    }
    let mut buf = Vec::with_capacity(offset as usize);
    buf.extend_from_slice(MAGIC);
    segment::write_frame(&mut buf, &zone_payload);
    segment::write_frame(&mut buf, &directory_payload);
    segment::write_frame(&mut buf, &sort_payload);
    segment::write_frame(&mut buf, &rollup_payload);
    debug_assert_eq!(buf.len(), headers_end);
    for tail in tails {
        segment::write_frame(&mut buf, tail);
    }
    Ok((buf, directory))
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

/// What a hydrated segment holds: the decoded run beside the rows'
/// whole encodings. One value behind one `OnceLock`, so the two are
/// resident together or not at all.
#[derive(Debug)]
struct Resident {
    /// The sorted run (`Arc` so per-segment indexes borrow the same
    /// storage instead of cloning it).
    run: Arc<Vec<SemanticTrajectory>>,
    /// Each row's `encode_trajectory`, in run order: either put
    /// together by [`Segment::decode_all`] from the headers' object and
    /// base and a tail [`Segment::decode_row`] validated and decoded, or
    /// what [`Segment::create`] encoded or [`Segment::merge`] gathered
    /// for the file it wrote.
    encodings: Encodings,
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
    /// Content sort keys, and each row's object rank.
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
    /// its run and their encodings both resident, so a freshly flushed
    /// segment serves queries without re-reading its own file — and the
    /// bytes written.
    ///
    /// Every row is encoded exactly once (charged to `encoded`), into
    /// one arena; the order is decided on `(start, end, arena slice)` —
    /// [`sort_run`]'s total order — and the assembler frames the tails
    /// of the same encodings.
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
        let encoding = |i: usize| &arena[bounds[i]..bounds[i + 1]];
        let mut order: Vec<usize> = (0..trajectories.len()).collect();
        order.sort_unstable_by(|&a, &b| (spans[a], encoding(a)).cmp(&(spans[b], encoding(b))));
        let mut encodings = Encodings::with_capacity(order.len(), arena.len());
        let run_spans: Vec<(i64, i64)> = order
            .iter()
            .map(|&i| {
                encodings.push(encoding(i));
                spans[i]
            })
            .collect();
        permute(&mut trajectories, &mut order);
        let zone_map = ZoneMap::build(&trajectories);
        let headers = Headers {
            rollup: SegmentRollup::build(&trajectories, DEFAULT_ROLLUP_PERIOD_SECONDS),
            sort_columns: SortColumns::build(&trajectories, &zone_map.objects),
            zone_map,
        };
        let (segment, written) =
            Segment::write(path, id, headers, &run_spans, &encodings, io, cache)?;
        Ok((segment.hydrated(trajectories, encodings), written))
    }

    /// Merges `victims` — each one sorted run — into the segment file
    /// at `path`, fsynced: byte for byte the file [`Segment::create`]
    /// writes for their rows together, without encoding or cloning one.
    ///
    /// * Cold victims are hydrated first, through
    ///   [`Segment::trajectories`] (every frame validated and decoded).
    /// * The order is decided on `(directory start, directory end,
    ///   encoding, victim, row)`: [`sort_run`]'s order over columns and
    ///   bytes already resident.
    /// * The zone map is the union of the victims', the rollup their
    ///   sum; dwell and trace-length columns are gathered and the
    ///   object column re-ranked against the merged object set, whose
    ///   witness the assembler writes.
    /// * The victims' encodings are gathered in the merged order, and
    ///   the assembler frames their tails.
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
                let (_, encoding) = victim.resident_row(r).ok_or(WarehouseError::Inconsistent {
                    id: victim.id,
                    what: "hydrated segment lacks a row its directory lists",
                })?;
                order.push((entry.start, entry.end, encoding, v, r));
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
        let bytes = order.iter().map(|&(_, _, e, ..)| e.len()).sum();
        let mut encodings = Encodings::with_capacity(order.len(), bytes);
        let spans: Vec<(i64, i64)> = order
            .iter()
            .map(|&(start, end, encoding, ..)| {
                encodings.push(encoding);
                (start, end)
            })
            .collect();
        let sources: Vec<usize> = order.iter().map(|&(.., v, _)| v).collect();
        let (segment, written) = Segment::write(path, id, headers, &spans, &encodings, io, cache)?;
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
        Ok((segment.hydrated(run, encodings), written))
    }

    /// Assembles the file over rows of `spans` and `encodings`, writes
    /// it at `path` and fsyncs it. Returns the segment, still cold, and
    /// the bytes written.
    fn write(
        path: PathBuf,
        id: u64,
        headers: Headers,
        spans: &[(i64, i64)],
        encodings: &Encodings,
        io: LazyIoMetrics,
        cache: RowCache,
    ) -> Result<(Segment, usize), WarehouseError> {
        let (image, directory) = encode_segment_file(&headers, spans, encodings)?;
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
        Ok((segment, image.len()))
    }

    /// Makes a segment just written resident: `run` is its rows in run
    /// order, `encodings` theirs.
    fn hydrated(mut self, run: Vec<SemanticTrajectory>, encodings: Encodings) -> Segment {
        self.loaded = OnceLock::from(Resident {
            run: Arc::new(run),
            encodings,
        });
        self
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
        let (zone_map, witness) =
            headers.next(decode_zone_frame, "trailing bytes after zone map")?;
        let mut directory =
            headers.next(SegmentDirectory::decode, "trailing bytes after directory")?;
        let sort_columns =
            headers.next(SortColumns::decode, "trailing bytes after sort columns")?;
        let rollup = headers.next(SegmentRollup::decode, "trailing bytes after rollup")?;
        directory
            .place(headers.at, file_len, zone_map.len)
            .map_err(|what| WarehouseError::Inconsistent { id, what })?;
        let zone_span = zone_map
            .span
            .map(|s| (s.start.as_seconds(), s.end.as_seconds()));
        if directory.span() != zone_span {
            return Err(WarehouseError::Inconsistent {
                id,
                what: "directory span disagrees with zone map",
            });
        }
        sort_columns
            .validate(zone_map.len, zone_map.objects.len() as u64, witness)
            .map_err(|what| WarehouseError::Inconsistent { id, what })?;
        rollup
            .check_against(&zone_map)
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
        let resident = self.decode_all()?;
        Ok(&self.loaded.get_or_init(|| resident).run)
    }

    /// Row `i` of a hydrated segment, borrowed: the decoded trajectory
    /// and its encoding — `encode_trajectory` of that trajectory, and
    /// therefore the bytes a reply carries for it. `None` when the
    /// segment is not hydrated (or `i` is not a row of it): the caller
    /// reads the row with [`Segment::read_trajectory`], which names the
    /// error.
    ///
    /// The encoding is the headers' object and base ahead of a stored
    /// tail that was validated and decoded at hydration, or what this
    /// store encoded itself when it wrote the segment.
    pub fn resident_row(&self, i: usize) -> Option<(&SemanticTrajectory, &[u8])> {
        let resident = self.loaded.get()?;
        Some((resident.run.get(i)?, resident.encodings.get(i)?))
    }

    /// Row `i`'s moving object: the zone-map name its sort-column rank
    /// names (checked against the set at open).
    fn object(&self, i: usize) -> Option<&str> {
        let rank = *self.sort_columns.object.get(i)?;
        self.zone_map.objects.get(rank as usize)
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
        let (t, _) = self.decode_row(i, entry, &frame)?;
        self.cache.insert(self.id, i, &t, entry.len as u64);
        Ok(t)
    }

    /// Reads the whole trajectory region in one pass, validates and
    /// decodes every frame of it, and returns the run together with the
    /// rows' encodings, each put together from its object, its base and
    /// the tail its frame held. The row cache is not touched: a
    /// hydrated segment answers every read from `loaded`, ahead of the
    /// cache.
    fn decode_all(&self) -> Result<Resident, WarehouseError> {
        let entries = &self.directory.entries;
        let mut trajectories = Vec::with_capacity(entries.len());
        let (Some(first), Some(last)) = (entries.first(), entries.last()) else {
            return Ok(Resident {
                run: Arc::new(trajectories),
                encodings: Encodings::with_capacity(0, 0),
            });
        };
        let first = first.offset;
        let total = (last.offset + last.len as u64 - first) as usize;
        let mut region = vec![0u8; total];
        read_exact_at(&self.file, &mut region, first)?;
        self.io.bytes_read.add(total as u64);
        let mut encodings = Encodings::with_capacity(entries.len(), total);
        for (i, entry) in entries.iter().enumerate() {
            let start = (entry.offset - first) as usize;
            let frame = &region[start..start + entry.len as usize];
            let (row, tail) = self.decode_row(i, entry, frame)?;
            encodings.push_stored(&row.moving_object, entry.start, tail);
            trajectories.push(row);
        }
        self.io.decoded.add(trajectories.len() as u64);
        Ok(Resident {
            run: Arc::new(trajectories),
            encodings,
        })
    }

    /// Validates `frame` — the bytes the directory says hold row `i` —
    /// and decodes the row from its stored tail, its object (the zone
    /// map's, by the row's rank) and its base (the directory's start).
    /// The decoded span must be the directory's, and its dwell and trace
    /// length the sort columns'. Returns the row and its stored tail.
    /// Both lazy paths end here, so a damaged frame is the same error
    /// whichever of them meets it.
    fn decode_row<'f>(
        &self,
        i: usize,
        entry: &DirectoryEntry,
        frame: &'f [u8],
    ) -> Result<(SemanticTrajectory, &'f [u8]), WarehouseError> {
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
        let object = self.object(i).ok_or(WarehouseError::Inconsistent {
            id: self.id,
            what: "row has no object in the zone map",
        })?;
        let row = decode_whole(
            payload,
            |tail| decode_trajectory_tail(tail, object.to_owned(), Timestamp(entry.start)),
            self.id,
            "trailing bytes after trajectory",
        )?;
        if span_seconds(&row) != (entry.start, entry.end) {
            return Err(WarehouseError::Inconsistent {
                id: self.id,
                what: "row span disagrees with directory",
            });
        }
        let columns = &self.sort_columns;
        if columns.dwell.get(i) != Some(&row.trace().dwell_total().as_seconds())
            || columns.trace_len.get(i) != Some(&(row.trace().len() as u32))
        {
            return Err(WarehouseError::Inconsistent {
                id: self.id,
                what: "row disagrees with its sort columns",
            });
        }
        Ok((row, payload))
    }
}
