//! What a warehouse open answers for damaged zone-map, directory,
//! sort-column and rollup frames, pinned. The zone map holds the counts, span,
//! cell and object sets and annotation sets a query prunes by, then the
//! witness of the sort columns' object ranks (their CRC-32); directory
//! and sort columns are varints (lengths, start deltas, span lengths;
//! dwell, trace lengths, object ranks) from which the open rebuilds
//! every row's offset, object and base. Their decoders read outside
//! input with no width to lean on. A CRC catches rot, not a crafted or
//! mis-written frame, so every damaged payload here is re-framed with a
//! valid CRC: the decoders and the open's checks, not the frame's
//! checksum, give each verdict.
//!
//! The zone map's cell set has a second witness too: the rollup frame
//! keys its aggregates by the same exact set of cells with a stay, so
//! the open refuses a cell run that is not strictly ascending (a set
//! would collapse it silently) or that differs from the rollup's. The
//! rollup's own cell and period runs must be strictly ascending too: a
//! map would keep a repeated key's last aggregates silently. And the
//! zone map bounds the rollup's aggregates: a cell counts at most the
//! segment's trajectories and its own stays, and dwells at most its
//! stays times the zone span; a period counts at most the segment's
//! trajectories and lies inside the span's buckets; the period width
//! is the warehouse's.
//!
//! A real segment of 24 rows (multi-byte lengths, starts, dwells and
//! ranks) is opened with each of those header payloads cut at every
//! length and flipped at every bit; an open that succeeds then decodes
//! every row, whose object, base and span the damaged frame now names
//! (and, for the rollup frame, shows the rollup it serves).
//! Each input must come back as rows or a typed `WarehouseError`, never
//! a panic, and no damaged sort-column frame may come back as rows: a
//! rank the witness does not vouch for would serve a row under another
//! object's name. The test pins how many inputs end in each verdict,
//! and a CRC-32 over every result's `Debug` text: a decoder that
//! accepts or refuses one of these inputs differently, or reads it to
//! different rows, moves a pin. A second test crafts each hostile value
//! the decoders must refuse.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::PathBuf;

use sitm_codec::{put_i64, put_u64};
use sitm_core::{
    Annotation, AnnotationSet, PresenceInterval, SemanticTrajectory, Timestamp, Trace,
    TransitionTaken,
};
use sitm_graph::{CellRef, LayerIdx, NodeId};
use sitm_store::codec::encode_cell;
use sitm_store::segment::{self, Corruption};
use sitm_store::warehouse::{
    segment_file_name, CellRollup, SegmentDirectory, SegmentRollup, SegmentStore, SortColumns,
    WarehouseConfig, WarehouseError,
};
use sitm_store::{CodecError, Crc32, ZoneMap};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("sitm-header-verdicts-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Row `k` of the segment: seven objects, starts from 1.485 × 10⁹ s
/// apart by 0–320 s, up to four stays of up to 14 minutes each, so
/// lengths, deltas, spans and dwells take one to five varint bytes.
fn row(k: usize) -> SemanticTrajectory {
    let mut at = 1_485_000_000 + (k as i64 * 977) % 7_000;
    let stays = (0..1 + k % 4)
        .map(|s| {
            let start = at + 30;
            at = start + 60 * (1 + (k + s) as i64 % 14);
            let mut stay = PresenceInterval::new(
                TransitionTaken::Unknown,
                CellRef::new(LayerIdx::from_index(0), NodeId::from_index(3 * k + s)),
                Timestamp(start),
                Timestamp(at),
            );
            stay.annotations.insert(Annotation::goal("browsing"));
            stay
        })
        .collect();
    SemanticTrajectory::new(
        format!("visitor-{:04}", (k * 5) % 7),
        Trace::new(stays).unwrap(),
        AnnotationSet::from_iter([Annotation::goal("visit")]),
    )
    .unwrap()
}

/// A warehouse of one 24-row segment, and that segment's file.
fn pristine(tag: &str) -> (TempDir, PathBuf, Vec<u8>) {
    let dir = TempDir::new(tag);
    let (mut store, _) = SegmentStore::open(&dir.0, WarehouseConfig::default()).unwrap();
    store.append_segment((0..24).map(row).collect()).unwrap();
    drop(store);
    let path = dir.0.join(segment_file_name(0));
    let data = std::fs::read(&path).unwrap();
    (dir, path, data)
}

/// The payload ranges of the four header frames (zone map, directory,
/// sort columns, rollup), and where the rows start.
fn header_payloads(data: &[u8]) -> (Vec<Range<usize>>, usize) {
    let mut at = segment::MAGIC.len();
    let mut payloads = Vec::new();
    for _ in 0..4 {
        let (payload, len) = segment::read_frame(&data[at..], at).unwrap();
        payloads.push(at + segment::FRAME_OVERHEAD..at + segment::FRAME_OVERHEAD + payload.len());
        at += len;
    }
    (payloads, at)
}

/// The file with header frame `frame`'s payload replaced by `payload`,
/// framed with its own (valid) CRC.
fn reframed(data: &[u8], frame: usize, payload: &[u8]) -> Vec<u8> {
    let (payloads, rows) = header_payloads(data);
    let mut out = data[..segment::MAGIC.len()].to_vec();
    for (i, range) in payloads.into_iter().enumerate() {
        segment::write_frame(&mut out, if i == frame { payload } else { &data[range] });
    }
    out.extend_from_slice(&data[rows..]);
    out
}

fn codec_variant(error: &CodecError) -> &'static str {
    match error {
        CodecError::Overflow => "Overflow",
        CodecError::UnexpectedEof => "UnexpectedEof",
        CodecError::BadTag(_) => "BadTag",
        CodecError::BadUtf8 => "BadUtf8",
        CodecError::InvalidTrace(_) => "InvalidTrace",
        CodecError::InvalidTrajectory(_) => "InvalidTrajectory",
        CodecError::LengthOverrun { .. } => "LengthOverrun",
        CodecError::Unsorted => "Unsorted",
    }
}

/// The verdict's name: the error variant (a `Codec` error by its codec
/// variant, an `Inconsistent` one by what it says).
fn variant(error: &WarehouseError) -> String {
    match error {
        WarehouseError::Io(_) => "Io".into(),
        WarehouseError::Store(_) => "Store".into(),
        WarehouseError::Codec(e) => codec_variant(e).into(),
        WarehouseError::CorruptSegment { corruption, .. } => match corruption {
            Corruption::BadHeader => "BadHeader".into(),
            Corruption::BadMarker { .. } => "BadMarker".into(),
            Corruption::Torn { .. } => "Torn".into(),
            Corruption::Oversized { .. } => "Oversized".into(),
            Corruption::BadChecksum { .. } => "BadChecksum".into(),
        },
        WarehouseError::Inconsistent { what, .. } => format!("'{what}'"),
        WarehouseError::SegmentTooLarge { .. } => "SegmentTooLarge".into(),
    }
}

/// Opens the warehouse over `file` and decodes every row: the verdict
/// (`Ok`, an open error, or `rows` and the error decoding them) and the
/// `Debug` text of the result.
fn open(dir: &TempDir, path: &PathBuf, file: &[u8]) -> (String, String) {
    open_showing(dir, path, file, false)
}

/// [`open`], whose `Debug` text of an opened segment starts with its
/// rollup when `rollup` is set.
fn open_showing(dir: &TempDir, path: &PathBuf, file: &[u8], rollup: bool) -> (String, String) {
    std::fs::write(path, file).unwrap();
    match SegmentStore::open(&dir.0, WarehouseConfig::default()) {
        Err(e) => (variant(&e), format!("{e:?}")),
        Ok((store, _)) => {
            let segment = &store.segments()[0];
            let shown = if rollup {
                format!("{:?} ", segment.rollup())
            } else {
                String::new()
            };
            match segment.trajectories() {
                Ok(rows) => ("Ok".into(), format!("{shown}{rows:?}")),
                Err(e) => (
                    format!("rows {}", variant(&e)),
                    format!("{shown}rows {e:?}"),
                ),
            }
        }
    }
}

#[test]
fn every_truncation_and_bit_flip_of_a_header_payload_opens_or_errs_as_pinned() {
    let (dir, path, data) = pristine("mutations");
    let (payloads, _) = header_payloads(&data);
    assert_eq!(
        open(&dir, &path, &reframed(&data, 1, &data[payloads[1].clone()])).0,
        "Ok",
        "re-framing an intact payload changes nothing"
    );
    let mut pins = Vec::new();
    for (frame, name) in [
        (0, "zone map"),
        (1, "directory"),
        (2, "sort columns"),
        (3, "rollup"),
    ] {
        let payload = &data[payloads[frame].clone()];
        let mut inputs: Vec<Vec<u8>> = (0..payload.len())
            .map(|cut| payload[..cut].to_vec())
            .collect();
        for bit in 0..payload.len() * 8 {
            let mut flipped = payload.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            inputs.push(flipped);
        }
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        let mut crc = Crc32::new();
        for input in &inputs {
            let file = reframed(&data, frame, input);
            let (verdict, debug) = open_showing(&dir, &path, &file, frame == 3);
            crc.update(debug.as_bytes());
            crc.update(b"\n");
            *counts.entry(verdict).or_default() += 1;
        }
        if frame == 2 {
            assert_eq!(counts.get("Ok"), None, "a damaged rank was served");
        }
        let counts = counts
            .iter()
            .map(|(verdict, n)| format!("{verdict}:{n}"))
            .collect::<Vec<_>>()
            .join(" ");
        let line = format!(
            "{name}, {} bytes: {counts}, {:#010x}",
            payload.len(),
            crc.finish()
        );
        println!("{line}");
        pins.push(line);
    }
    assert_eq!(
        pins,
        [
            "zone map, 243 bytes: 'directory count disagrees with zone map':7 \
             'directory span disagrees with zone map':49 \
             'rollup cells disagree with zone map':42 \
             'sort-column object ranks disagree with their witness':32 \
             'trailing bytes after zone map':4 BadTag:8 BadUtf8:109 LengthOverrun:316 \
             Ok:229 UnexpectedEof:82 Unsorted:1309, 0x35f79156",
            "directory, 124 bytes: 'directory entry length out of bounds':6 \
             'directory overruns the file (truncated segment)':88 \
             'directory span disagrees with zone map':411 \
             'file longer than the directory describes':74 \
             'trailing bytes after directory':52 LengthOverrun:75 UnexpectedEof:128 \
             rows 'row span disagrees with directory':282, 0xc77c5edf",
            "sort columns, 96 bytes: 'sort-column object index out of bounds':107 \
             'sort-column object ranks disagree with their witness':61 \
             'trailing bytes after sort columns':25 LengthOverrun:75 UnexpectedEof:99 \
             rows 'row disagrees with its sort columns':497, 0x1b4fd9e3",
            "rollup, 346 bytes: 'rollup cell counts more trajectories than it can':385 \
             'rollup cells disagree with zone map':42 \
             'rollup period counts more trajectories than the segment holds':8 \
             'rollup period outside the zone span':58 \
             'rollup period width is not the warehouse's':14 \
             'trailing bytes after rollup':8 LengthOverrun:289 Ok:1126 UnexpectedEof:296 \
             Unsorted:888, 0xe30cb068",
        ],
        "verdict counts and CRC-32 of every result"
    );
}

/// A directory payload from its parts: the count, the first start, and
/// `(len, Δstart, end − start)` per entry.
fn directory(count: u64, first: i64, entries: &[(u64, u64, u64)]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, count);
    put_i64(&mut buf, first);
    for &(len, delta, span) in entries {
        put_u64(&mut buf, len);
        put_u64(&mut buf, delta);
        put_u64(&mut buf, span);
    }
    buf
}

/// A sort-column payload from its parts: the count and `(dwell,
/// trace_len, object)` per row.
fn sort_columns(count: u64, rows: &[(u64, u64, u64)]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, count);
    for &(dwell, trace_len, object) in rows {
        put_u64(&mut buf, dwell);
        put_u64(&mut buf, trace_len);
        put_u64(&mut buf, object);
    }
    buf
}

/// A rollup's period run: `(bucket, trajectories)`.
type Periods = Vec<(i64, u64)>;

/// A rollup payload from its parts: the period width, the cell run and
/// the period run.
fn rollup(period_seconds: u64, cells: &[(CellRef, CellRollup)], periods: &[(i64, u64)]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, period_seconds);
    put_u64(&mut buf, cells.len() as u64);
    for (cell, r) in cells {
        encode_cell(&mut buf, *cell);
        put_u64(&mut buf, r.trajectories);
        put_u64(&mut buf, r.stays);
        put_u64(&mut buf, r.dwell_seconds);
    }
    put_u64(&mut buf, periods.len() as u64);
    for &(bucket, n) in periods {
        put_i64(&mut buf, bucket);
        put_u64(&mut buf, n);
    }
    buf
}

#[test]
fn each_hostile_header_value_is_refused_with_a_typed_error() {
    let (dir, path, data) = pristine("crafted");
    let (payloads, _) = header_payloads(&data);
    // The real directory and sort columns, as parts to edit.
    let real = SegmentDirectory::decode(&mut &data[payloads[1].clone()]).unwrap();
    let first = real.entries[0].start;
    let entries: Vec<(u64, u64, u64)> = real
        .entries
        .iter()
        .scan(first, |previous, e| {
            let delta = (e.start - *previous) as u64;
            *previous = e.start;
            Some((e.len as u64, delta, (e.end - e.start) as u64))
        })
        .collect();
    let columns = SortColumns::decode(&mut &data[payloads[2].clone()]).unwrap();
    let rows: Vec<(u64, u64, u64)> = (0..columns.len())
        .map(|i| {
            let (dwell, len, object) = (columns.dwell[i], columns.trace_len[i], columns.object[i]);
            (dwell as u64, len as u64, object as u64)
        })
        .collect();
    let n = entries.len() as u64;
    assert_eq!(n, 24);
    // The real zone-map payload, whose last four bytes are the witness
    // of the real ranks.
    let zone = data[payloads[0].clone()].to_vec();
    let witness_at = zone.len() - 4;
    assert_eq!(
        zone[witness_at..],
        columns.object_witness().to_le_bytes(),
        "the zone-map frame ends with the ranks' witness"
    );
    assert_eq!(
        open(
            &dir,
            &path,
            &reframed(&data, 1, &directory(n, first, &entries))
        )
        .0,
        "Ok",
        "the parts re-encode the real directory"
    );
    assert_eq!(
        open(&dir, &path, &reframed(&data, 2, &sort_columns(n, &rows))).0,
        "Ok",
        "the parts re-encode the real sort columns"
    );
    // The real zone map's cell run, to re-encode edited: the bytes
    // before its count, and those after its last cell.
    let cells: Vec<CellRef> = ZoneMap::decode(&mut &zone[..])
        .unwrap()
        .cells
        .into_iter()
        .collect();
    assert!(cells.len() >= 3 && cells.len() < 128, "a one-byte count");
    let run = |cells: &[CellRef]| {
        let mut buf = Vec::new();
        for &cell in cells {
            encode_cell(&mut buf, cell);
        }
        buf
    };
    let real_run = run(&cells);
    let run_at = zone
        .windows(real_run.len())
        .position(|w| w == real_run)
        .expect("the cell run is in the zone map");
    let with_cells = |edited: &[CellRef]| {
        let mut buf = zone[..run_at - 1].to_vec();
        put_u64(&mut buf, edited.len() as u64);
        buf.extend(run(edited));
        buf.extend_from_slice(&zone[run_at + real_run.len()..]);
        buf
    };
    assert_eq!(with_cells(&cells), zone, "the parts re-encode the zone map");
    let with = |at: usize, entry: (u64, u64, u64)| {
        let mut edited = entries.clone();
        edited[at] = entry;
        edited
    };
    // The real rollup's runs, as parts to edit.
    let real_rollup = SegmentRollup::decode(&mut &data[payloads[3].clone()]).unwrap();
    let period_seconds = real_rollup.period_seconds;
    let rollup_cells: Vec<(CellRef, CellRollup)> = real_rollup.cells.into_iter().collect();
    let periods: Periods = real_rollup.periods.into_iter().collect();
    assert!(periods.len() >= 2, "the rows span several periods");
    assert_eq!(
        rollup(period_seconds, &rollup_cells, &periods),
        data[payloads[3].clone()],
        "the parts re-encode the rollup"
    );
    let zone_map = ZoneMap::decode(&mut &zone[..]).unwrap();
    let span = zone_map.span.expect("rows");
    let longest = span.duration().as_seconds() as u64;
    let with_cell = |edit: &dyn Fn(&mut CellRollup)| {
        let mut edited = rollup_cells.clone();
        edit(&mut edited[0].1);
        rollup(period_seconds, &edited, &periods)
    };
    let with_periods = |edit: &dyn Fn(&mut Periods)| {
        let mut edited = periods.clone();
        edit(&mut edited);
        rollup(period_seconds, &rollup_cells, &edited)
    };
    let (len0, delta1, span0) = (entries[0].0, entries[1].1, entries[0].2);
    let cases: Vec<(&str, usize, Vec<u8>, &str)> = vec![
        (
            "a directory count past the bytes left",
            1,
            directory(u64::MAX, first, &entries),
            "LengthOverrun",
        ),
        (
            "a start past i64",
            1,
            directory(n, i64::MAX, &with(1, (entries[1].0, 1, entries[1].2))),
            "Overflow",
        ),
        (
            "a start delta past u64's reach of i64",
            1,
            directory(n, first, &with(1, (entries[1].0, u64::MAX, entries[1].2))),
            "Overflow",
        ),
        (
            "an end past i64",
            1,
            directory(n, first, &with(0, (len0, 0, i64::MAX as u64))),
            "Overflow",
        ),
        (
            "a span length past i64",
            1,
            directory(n, i64::MIN, &with(0, (len0, 0, 1 << 63))),
            "Overflow",
        ),
        (
            "a frame length past u32",
            1,
            directory(n, first, &with(0, (1 << 32, 0, span0))),
            "Overflow",
        ),
        (
            "a frame length below the frame overhead",
            1,
            {
                // The lengths still fill the row region.
                let short = segment::FRAME_OVERHEAD as u64 - 1;
                let mut edited = with(0, (short, 0, span0));
                edited[1].0 += len0 - short;
                directory(n, first, &edited)
            },
            "'directory entry length out of bounds'",
        ),
        (
            "lengths past the end of the file",
            1,
            directory(n, first, &with(0, (len0 + 1, 0, span0))),
            "'directory overruns the file (truncated segment)'",
        ),
        (
            "lengths short of the end of the file",
            1,
            directory(n, first, &with(0, (len0 - 1, 0, span0))),
            "'file longer than the directory describes'",
        ),
        (
            "a span that is not the row's",
            1,
            directory(n, first, &with(1, (entries[1].0, delta1, entries[1].2 + 1))),
            "rows 'row span disagrees with directory'",
        ),
        (
            "a sort-column count past the bytes left",
            2,
            sort_columns(u64::MAX, &rows),
            "LengthOverrun",
        ),
        (
            "a dwell past i64",
            2,
            {
                let mut edited = rows.clone();
                edited[3].0 = 1 << 63;
                sort_columns(n, &edited)
            },
            "Overflow",
        ),
        (
            "a dwell that is not the row's",
            2,
            {
                let mut edited = rows.clone();
                edited[3].0 += 1;
                sort_columns(n, &edited)
            },
            "rows 'row disagrees with its sort columns'",
        ),
        (
            "a rank past u32",
            2,
            {
                let mut edited = rows.clone();
                edited[3].2 = 1 << 32;
                sort_columns(n, &edited)
            },
            "Overflow",
        ),
        (
            "a rank past the object set",
            2,
            {
                let mut edited = rows.clone();
                edited[3].2 = 7;
                sort_columns(n, &edited)
            },
            "'sort-column object index out of bounds'",
        ),
        (
            "two rows' ranks swapped, both inside the object set",
            2,
            {
                let mut edited = rows.clone();
                assert_ne!(edited[0].2, edited[1].2);
                let rank = edited[0].2;
                edited[0].2 = edited[1].2;
                edited[1].2 = rank;
                sort_columns(n, &edited)
            },
            "'sort-column object ranks disagree with their witness'",
        ),
        (
            "a witness that is not the ranks'",
            0,
            {
                let mut edited = zone.clone();
                edited[witness_at] ^= 1;
                edited
            },
            "'sort-column object ranks disagree with their witness'",
        ),
        (
            "a zone map without its witness",
            0,
            zone[..witness_at].to_vec(),
            "UnexpectedEof",
        ),
        (
            "a zone-map cell listed twice",
            0,
            with_cells(&[&cells[..1], &cells].concat()),
            "Unsorted",
        ),
        (
            "a zone-map cell run out of order",
            0,
            {
                let mut edited = cells.clone();
                edited.swap(0, 1);
                with_cells(&edited)
            },
            "Unsorted",
        ),
        (
            "a zone map missing a cell the rollup holds",
            0,
            with_cells(&cells[1..]),
            "'rollup cells disagree with zone map'",
        ),
        (
            "a rollup cell listed twice",
            3,
            rollup(
                period_seconds,
                &[&rollup_cells[..1], &rollup_cells].concat(),
                &periods,
            ),
            "Unsorted",
        ),
        (
            "rollup periods out of order",
            3,
            {
                let mut edited = periods.clone();
                edited.swap(0, 1);
                rollup(period_seconds, &rollup_cells, &edited)
            },
            "Unsorted",
        ),
        (
            "a rollup cell with more trajectories than the segment",
            3,
            with_cell(&|cell| {
                cell.trajectories = n + 1;
                cell.stays = n + 1;
            }),
            "'rollup cell counts more trajectories than it can'",
        ),
        (
            "a rollup cell with more trajectories than stays",
            3,
            with_cell(&|cell| cell.trajectories = cell.stays + 1),
            "'rollup cell counts more trajectories than it can'",
        ),
        (
            "a rollup cell dwelling longer than its stays can",
            3,
            with_cell(&|cell| cell.dwell_seconds = cell.stays * longest + 1),
            "'rollup cell dwells longer than its stays can'",
        ),
        (
            "a rollup period counting more trajectories than the segment",
            3,
            with_periods(&|periods| periods[0].1 = n + 1),
            "'rollup period counts more trajectories than the segment holds'",
        ),
        (
            "a rollup period past the zone span",
            3,
            with_periods(&|periods| {
                let last = periods.last().expect("periods").0;
                periods.push((last + period_seconds as i64, 1));
            }),
            "'rollup period outside the zone span'",
        ),
        (
            "a rollup period before the zone span",
            3,
            with_periods(&|periods| periods.insert(0, (periods[0].0 - period_seconds as i64, 1))),
            "'rollup period outside the zone span'",
        ),
        (
            "a rollup period off the bucket grid",
            3,
            with_periods(&|periods| periods[0].0 += 1),
            "'rollup period outside the zone span'",
        ),
        (
            "a rollup period width not the warehouse's",
            3,
            rollup(period_seconds / 2, &rollup_cells, &periods),
            "'rollup period width is not the warehouse's'",
        ),
    ];
    // The bounds are tight: the real rollup meets each of them.
    assert!(periods.iter().all(|&(_, count)| count <= n));
    assert_eq!(
        open(
            &dir,
            &path,
            &reframed(
                &data,
                3,
                &with_cell(&|cell| cell.dwell_seconds = cell.stays * longest)
            )
        )
        .0,
        "Ok",
        "a dwell of the whole span per stay is possible"
    );
    for (what, frame, payload, expected) in cases {
        let (verdict, debug) = open(&dir, &path, &reframed(&data, frame, &payload));
        assert_eq!(verdict, expected, "{what}: {debug}");
    }
}
