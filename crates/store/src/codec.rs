//! Binary encoding of SITM values.
//!
//! The format is column-agnostic row encoding tuned for trajectory shapes:
//!
//! * all integers are LEB128 varints; timestamps are **delta-encoded**
//!   along the trace (a stay starts where the previous one ended far more
//!   often than not, so deltas are tiny);
//! * strings are length-prefixed UTF-8;
//! * enums carry a leading tag byte.
//!
//! Those primitives are [`sitm_codec`]'s; this module holds the domain
//! encoders built from them.
//!
//! Every `encode_*` has a matching `decode_*`; round-tripping is
//! property-tested in `tests/proptests.rs`. Decoders validate everything
//! they read (tags, UTF-8, interval ordering) and fail with a
//! [`CodecError`] rather than producing an invalid in-memory value, so a
//! corrupted frame that slips past the CRC still cannot materialize an
//! inconsistent trajectory.
//!
//! Annotation sets repeat from row to row (`{goal:visit}` on every
//! trajectory), and an [`AnnotationSet`] is a shared value, so
//! [`decode_annotations`] keeps a small per-thread table from a set's
//! encoded bytes to the decoded set: a hit returns the table's set
//! (a reference-count bump, no allocation), a miss decodes as usual and
//! takes the slot. The table is direct-mapped, a fixed 64 slots per
//! thread, and keeps no set whose encoding exceeds 128 bytes, so it
//! holds at most 64 × 128 key bytes however many distinct sets pass
//! through; bytes crafted to collide can only make every read a miss.
//! It is a cache of the decoder alone: no byte of any encoding changes.
//!
//! A served row is mostly one-byte values: small varints, empty per-stay
//! sets and unknown transitions. Each has a fast path, read inline:
//!
//! * a varint whose first byte is below `0x80` ([`sitm_codec::take_u64`]);
//!   a longer one costs one out-of-line call;
//! * a leading `0` byte in [`decode_annotations`] is the empty set,
//!   returned before the table is looked at;
//! * a `0` tag in [`decode_transition`] is [`TransitionTaken::Unknown`].
//!
//! Each fast path is the general path's first step taken early: it
//! accepts and refuses exactly the inputs the general path does, with
//! the same value or the same error (`sitm-serve`'s
//! `tests/decode_verdicts.rs` pins the verdicts over every truncation
//! and bit flip of a fixed corpus).

use std::cell::RefCell;

use sitm_codec::{
    put_i64, put_str, put_u64, take_count, take_i64, take_span, take_str, take_tag, take_u64,
};
use sitm_core::{
    Annotation, AnnotationKind, AnnotationSet, Episode, PresenceInterval, SemanticTrajectory,
    TimeInterval, Timestamp, Trace, TransitionTaken,
};
use sitm_graph::{CellRef, EdgeId, LayerIdx, NodeId};

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A varint past 64 bits, or a timestamp past `i64`.
    Overflow,
    /// The buffer ended before the value did.
    UnexpectedEof,
    /// A tag byte had no corresponding variant.
    BadTag(u8),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// Decoded intervals violate trace ordering (Def. 3.2).
    InvalidTrace(String),
    /// A trajectory decoded without annotations or stays (Def. 3.1).
    InvalidTrajectory(String),
    /// A declared length exceeds the remaining buffer.
    LengthOverrun {
        /// Bytes declared.
        declared: u64,
        /// Bytes available.
        available: usize,
    },
    /// A sorted set's entries are not strictly ascending.
    Unsorted,
}

impl From<sitm_codec::Error> for CodecError {
    fn from(e: sitm_codec::Error) -> Self {
        match e {
            sitm_codec::Error::Eof => CodecError::UnexpectedEof,
            sitm_codec::Error::Overflow => CodecError::Overflow,
            sitm_codec::Error::Overrun {
                declared,
                available,
            } => CodecError::LengthOverrun {
                declared,
                available,
            },
            sitm_codec::Error::BadUtf8 => CodecError::BadUtf8,
            sitm_codec::Error::BadFlag(b) => CodecError::BadTag(b),
        }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Overflow => write!(f, "varint or timestamp overflows its integer"),
            CodecError::UnexpectedEof => write!(f, "buffer ended inside a value"),
            CodecError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            CodecError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            CodecError::InvalidTrace(e) => write!(f, "decoded trace is invalid: {e}"),
            CodecError::InvalidTrajectory(e) => write!(f, "decoded trajectory is invalid: {e}"),
            CodecError::LengthOverrun {
                declared,
                available,
            } => write!(
                f,
                "declared length {declared} exceeds remaining {available} bytes"
            ),
            CodecError::Unsorted => write!(f, "set entries are not strictly ascending"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encodes an annotation set as `count (kind value)*`.
#[inline]
pub fn encode_annotations(buf: &mut Vec<u8>, set: &AnnotationSet) {
    put_u64(buf, set.len() as u64);
    for a in set.iter() {
        put_str(buf, a.kind.name());
        put_str(buf, &a.value);
    }
}

/// FNV-1a over arbitrary bytes: the repo's stable, dependency-free
/// hash. The annotation-set table below keys its slots by it and the
/// engines route visits to workers by it, so both are deterministic
/// across runs and platforms.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Slots of the per-thread table of decoded annotation sets (a power of
/// two; the table is direct-mapped).
const SET_SLOTS: usize = 64;

/// Longest encoded annotation set, in bytes, the table keeps. A longer
/// set decodes on every read.
const SET_KEY_CAP: usize = 128;

/// One slot: a set's encoded bytes and the set they decode to.
#[derive(Default)]
struct SetSlot {
    key: Vec<u8>,
    set: AnnotationSet,
}

thread_local! {
    /// The sets this thread decoded last, by the hash of their bytes.
    static DECODED_SETS: RefCell<Vec<SetSlot>> = const { RefCell::new(Vec::new()) };
}

/// The table slot of a set's encoded bytes (the top bits of its FNV-1a).
fn set_slot(key: &[u8]) -> usize {
    (fnv1a(key) >> (64 - SET_SLOTS.trailing_zeros())) as usize
}

/// Decodes an annotation set.
///
/// A leading `0` byte is the empty set, returned inline. Otherwise the
/// bytes are validated first (count against the buffer, every string
/// UTF-8); then a set whose bytes this thread decoded recently is
/// returned shared from the table, without a copy of its annotations.
#[inline]
pub fn decode_annotations(buf: &mut &[u8]) -> Result<AnnotationSet, CodecError> {
    match buf.split_first() {
        Some((0, rest)) => {
            *buf = rest;
            Ok(AnnotationSet::new())
        }
        _ => decode_shared_set(buf),
    }
}

/// [`decode_annotations`] past its leading-`0` fast path.
fn decode_shared_set(buf: &mut &[u8]) -> Result<AnnotationSet, CodecError> {
    let start = *buf;
    let count = take_count(buf, 1)?;
    if count == 0 {
        return Ok(AnnotationSet::new());
    }
    for _ in 0..count {
        take_str(buf)?;
        take_str(buf)?;
    }
    let key = &start[..start.len() - buf.len()];
    if key.len() > SET_KEY_CAP {
        return decode_set(key);
    }
    DECODED_SETS
        .try_with(|table| {
            let mut table = table.borrow_mut();
            if table.is_empty() {
                table.resize_with(SET_SLOTS, SetSlot::default);
            }
            let slot = &mut table[set_slot(key)];
            if slot.key != key {
                slot.set = decode_set(key)?;
                slot.key.clear();
                slot.key.extend_from_slice(key);
            }
            Ok(slot.set.clone())
        })
        .unwrap_or_else(|_| decode_set(key))
}

/// Decodes the validated bytes of one non-empty annotation set.
fn decode_set(mut buf: &[u8]) -> Result<AnnotationSet, CodecError> {
    let count = take_count(&mut buf, 1)?;
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        let kind = AnnotationKind::parse(take_str(&mut buf)?);
        items.push(Annotation::new(kind, take_str(&mut buf)?));
    }
    Ok(AnnotationSet::from_iter(items))
}

const TRANSITION_UNKNOWN: u8 = 0;
const TRANSITION_EDGE: u8 = 1;
const TRANSITION_NAMED: u8 = 2;

/// Encodes a transition.
#[inline]
pub fn encode_transition(buf: &mut Vec<u8>, t: &TransitionTaken) {
    match t {
        TransitionTaken::Unknown => buf.push(TRANSITION_UNKNOWN),
        TransitionTaken::Edge { layer, edge } => {
            buf.push(TRANSITION_EDGE);
            put_u64(buf, layer.index() as u64);
            put_u64(buf, edge.index() as u64);
        }
        TransitionTaken::Named(name) => {
            buf.push(TRANSITION_NAMED);
            put_str(buf, name);
        }
    }
}

/// Decodes a transition.
#[inline]
pub fn decode_transition(buf: &mut &[u8]) -> Result<TransitionTaken, CodecError> {
    match take_tag(buf)? {
        TRANSITION_UNKNOWN => Ok(TransitionTaken::Unknown),
        TRANSITION_EDGE => {
            let layer = take_u64(buf)? as usize;
            let edge = take_u64(buf)? as usize;
            Ok(TransitionTaken::Edge {
                layer: LayerIdx::from_index(layer),
                edge: EdgeId::from_index(edge),
            })
        }
        TRANSITION_NAMED => Ok(TransitionTaken::Named(take_str(buf)?.to_owned())),
        other => Err(CodecError::BadTag(other)),
    }
}

/// Encodes a cell reference as `layer node`.
#[inline]
pub fn encode_cell(buf: &mut Vec<u8>, cell: CellRef) {
    put_u64(buf, cell.layer.index() as u64);
    put_u64(buf, cell.node.index() as u64);
}

/// Decodes a cell reference.
#[inline]
pub fn decode_cell(buf: &mut &[u8]) -> Result<CellRef, CodecError> {
    let layer = take_u64(buf)? as usize;
    let node = take_u64(buf)? as usize;
    Ok(CellRef::new(
        LayerIdx::from_index(layer),
        NodeId::from_index(node),
    ))
}

/// Encodes a standalone presence interval with absolute timestamps — the
/// shape streaming checkpoints need, where no trace base is in hand.
pub fn encode_presence(buf: &mut Vec<u8>, p: &PresenceInterval) {
    encode_transition(buf, &p.transition);
    encode_cell(buf, p.cell);
    put_i64(buf, p.start().as_seconds());
    put_u64(buf, p.duration().as_seconds() as u64);
    encode_annotations(buf, &p.annotations);
    encode_annotations(buf, &p.transition_annotations);
}

/// Decodes a standalone presence interval.
pub fn decode_presence(buf: &mut &[u8]) -> Result<PresenceInterval, CodecError> {
    let transition = decode_transition(buf)?;
    let cell = decode_cell(buf)?;
    let (start, end) = take_span(buf, 0)?;
    Ok(PresenceInterval {
        transition,
        cell,
        time: TimeInterval::new(Timestamp(start), Timestamp(end)),
        annotations: decode_annotations(buf)?,
        transition_annotations: decode_annotations(buf)?,
    })
}

/// Encodes an episode as `range.start range.len start duration labels`.
pub fn encode_episode(buf: &mut Vec<u8>, e: &Episode) {
    put_u64(buf, e.range.start as u64);
    put_u64(buf, e.range.len() as u64);
    put_i64(buf, e.time.start.as_seconds());
    put_u64(buf, e.time.duration().as_seconds() as u64);
    encode_annotations(buf, &e.annotations);
}

/// Decodes an episode.
pub fn decode_episode(buf: &mut &[u8]) -> Result<Episode, CodecError> {
    let range_start = take_u64(buf)? as usize;
    let range_len = take_u64(buf)? as usize;
    let Some(range_end) = range_start.checked_add(range_len) else {
        return Err(CodecError::InvalidTrace(
            "episode range overflow".to_string(),
        ));
    };
    let (start, end) = take_span(buf, 0)?;
    let annotations = decode_annotations(buf)?;
    Ok(Episode {
        range: range_start..range_end,
        time: TimeInterval::new(Timestamp(start), Timestamp(end)),
        annotations,
    })
}

/// Encodes a trace: tuple count, then per tuple the transition, cell,
/// start delta (ZigZag from the previous stay's end; the first delta is
/// taken from `base`), duration, stay annotations, transition
/// annotations.
pub fn encode_trace(buf: &mut Vec<u8>, base: Timestamp, trace: &Trace) {
    put_u64(buf, trace.len() as u64);
    let mut prev_end = base;
    for stay in trace.intervals() {
        encode_transition(buf, &stay.transition);
        encode_cell(buf, stay.cell);
        put_i64(buf, (stay.start() - prev_end).as_seconds());
        put_u64(buf, stay.duration().as_seconds() as u64);
        encode_annotations(buf, &stay.annotations);
        encode_annotations(buf, &stay.transition_annotations);
        prev_end = stay.end();
    }
}

/// Decodes a trace encoded by [`encode_trace`] with the same `base`.
pub fn decode_trace(buf: &mut &[u8], base: Timestamp) -> Result<Trace, CodecError> {
    let count = take_count(buf, 1)?;
    let mut intervals = Vec::with_capacity(count);
    let mut prev_end = base.as_seconds();
    for _ in 0..count {
        let transition = decode_transition(buf)?;
        let cell = decode_cell(buf)?;
        let (start, end) = take_span(buf, prev_end)?;
        intervals.push(PresenceInterval {
            transition,
            cell,
            time: TimeInterval::new(Timestamp(start), Timestamp(end)),
            annotations: decode_annotations(buf)?,
            transition_annotations: decode_annotations(buf)?,
        });
        prev_end = end;
    }
    Trace::new(intervals).map_err(|e| CodecError::InvalidTrace(e.to_string()))
}

/// Encodes a whole semantic trajectory: its moving object, its base
/// (the span start), then the trace and the trajectory's annotations —
/// the tail [`decode_trajectory_tail`] reads.
pub fn encode_trajectory(buf: &mut Vec<u8>, t: &SemanticTrajectory) {
    put_str(buf, &t.moving_object);
    let base = t.start();
    put_i64(buf, base.as_seconds());
    encode_trace(buf, base, t.trace());
    encode_annotations(buf, t.annotations());
}

/// Decodes a semantic trajectory.
pub fn decode_trajectory(buf: &mut &[u8]) -> Result<SemanticTrajectory, CodecError> {
    let moving_object = take_str(buf)?.to_owned();
    let base = Timestamp(take_i64(buf)?);
    decode_trajectory_tail(buf, moving_object, base)
}

/// Decodes the *tail* of an [`encode_trajectory`] encoding — what
/// follows the moving object and the base: the trace, its first stay a
/// delta from the base, and the trajectory's annotations — into the
/// trajectory of `moving_object` whose trace is based at `base`. A
/// segment stores each row as its tail alone, since its headers hold
/// the object and the base.
pub fn decode_trajectory_tail(
    buf: &mut &[u8],
    moving_object: String,
    base: Timestamp,
) -> Result<SemanticTrajectory, CodecError> {
    let trace = decode_trace(buf, base)?;
    let annotations = decode_annotations(buf)?;
    SemanticTrajectory::new(moving_object, trace, annotations)
        .map_err(|e| CodecError::InvalidTrajectory(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(1), NodeId::from_index(n))
    }

    fn sample_trajectory() -> SemanticTrajectory {
        let mut first = PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(3),
            Timestamp::from_ymd_hms(2017, 2, 1, 11, 30, 0),
            Timestamp::from_ymd_hms(2017, 2, 1, 11, 32, 35),
        );
        first.annotations.insert(Annotation::goal("visit"));
        let second = PresenceInterval::new(
            TransitionTaken::Named("door012".into()),
            cell(7),
            Timestamp::from_ymd_hms(2017, 2, 1, 11, 32, 35),
            Timestamp::from_ymd_hms(2017, 2, 1, 11, 40, 0),
        )
        .with_transition_annotations(AnnotationSet::from_iter([Annotation::new(
            AnnotationKind::Custom("event".into()),
            "alarm",
        )]));
        let third = PresenceInterval::new(
            TransitionTaken::Edge {
                layer: LayerIdx::from_index(2),
                edge: EdgeId::from_index(19),
            },
            cell(3),
            Timestamp::from_ymd_hms(2017, 2, 1, 11, 41, 0),
            Timestamp::from_ymd_hms(2017, 2, 1, 12, 0, 0),
        );
        SemanticTrajectory::new(
            "visitor-0042",
            Trace::new(vec![first, second, third]).unwrap(),
            AnnotationSet::from_iter([Annotation::goal("visit"), Annotation::behavior("browsing")]),
        )
        .unwrap()
    }

    #[test]
    fn trajectory_round_trip() {
        let t = sample_trajectory();
        let mut buf = Vec::new();
        encode_trajectory(&mut buf, &t);
        let decoded = decode_trajectory(&mut buf.as_slice()).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn encoding_is_compact() {
        // Three tuples with annotations should land well under the naive
        // fixed-width footprint (3 tuples × 2 × 8-byte timestamps alone
        // is 48 bytes; the whole record should beat 200).
        let t = sample_trajectory();
        let mut buf = Vec::new();
        encode_trajectory(&mut buf, &t);
        assert!(buf.len() < 200, "encoded {} bytes", buf.len());
    }

    #[test]
    fn annotation_set_round_trip() {
        let set = AnnotationSet::from_iter([
            Annotation::goal("visit"),
            Annotation::goal("buy"),
            Annotation::new(AnnotationKind::Custom("device".into()), "ios"),
        ]);
        let mut buf = Vec::new();
        encode_annotations(&mut buf, &set);
        assert_eq!(decode_annotations(&mut buf.as_slice()).unwrap(), set);
        // Empty set.
        let mut buf = Vec::new();
        encode_annotations(&mut buf, &AnnotationSet::new());
        assert_eq!(
            decode_annotations(&mut buf.as_slice()).unwrap(),
            AnnotationSet::new()
        );
    }

    fn encoded(set: &AnnotationSet) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_annotations(&mut buf, set);
        buf
    }

    /// Set `i` of an endless run of distinct sets.
    fn distinct(i: usize) -> Vec<Annotation> {
        vec![
            Annotation::goal("visit"),
            Annotation::new(AnnotationKind::Custom("device".into()), format!("d{i}")),
        ]
    }

    /// Occupied slots of this thread's table, after checking each
    /// holds its key's set and no key over the cap.
    fn table_occupancy() -> usize {
        DECODED_SETS.with(|table| {
            let table = table.borrow();
            assert!(table.len() <= SET_SLOTS);
            let occupied: Vec<&SetSlot> = table.iter().filter(|s| !s.key.is_empty()).collect();
            for slot in &occupied {
                assert!(slot.key.len() <= SET_KEY_CAP);
                assert_eq!(decode_set(&slot.key).unwrap(), slot.set);
            }
            occupied.len()
        })
    }

    #[test]
    fn more_sets_than_slots_decode_as_built() {
        for round in 0..2 {
            for i in 0..3 * SET_SLOTS {
                let set = AnnotationSet::from_iter(distinct(i));
                let decoded = decode_annotations(&mut encoded(&set).as_slice()).unwrap();
                assert_eq!(decoded, set, "set {i}, round {round}");
            }
        }
        // Over the key cap: decoded every time, never kept.
        let long = vec![Annotation::goal("x".repeat(SET_KEY_CAP))];
        let bytes = encoded(&AnnotationSet::from_iter(long.clone()));
        assert!(bytes.len() > SET_KEY_CAP);
        for _ in 0..2 {
            let mut rest = bytes.as_slice();
            assert_eq!(
                decode_annotations(&mut rest).unwrap(),
                AnnotationSet::from_iter(long.clone())
            );
            assert!(rest.is_empty());
        }
        assert!(table_occupancy() <= SET_SLOTS);
    }

    #[test]
    fn hostile_sets_are_refused_seen_or_not() {
        let seen = encoded(&AnnotationSet::from_iter(distinct(7)));
        let unseen = encoded(&AnnotationSet::from_iter(distinct(8)));
        decode_annotations(&mut seen.as_slice()).unwrap();
        for base in [&seen, &unseen] {
            // The last value byte turned into invalid UTF-8.
            let mut bad = base.clone();
            *bad.last_mut().unwrap() = 0xFF;
            assert_eq!(
                decode_annotations(&mut bad.as_slice()).unwrap_err(),
                CodecError::BadUtf8
            );
            // A count past what the bytes hold.
            let mut overrun = base.clone();
            overrun[0] = 3;
            assert!(decode_annotations(&mut overrun.as_slice()).is_err());
            let mut overrun = base.clone();
            overrun[0] = 0x7F;
            assert!(matches!(
                decode_annotations(&mut overrun.as_slice()).unwrap_err(),
                CodecError::LengthOverrun { declared: 0x7F, .. }
            ));
            // Every cut of a set is refused.
            for cut in 1..base.len() {
                assert!(decode_annotations(&mut &base[..cut]).is_err(), "cut {cut}");
            }
        }
        // The refusals did not disturb the seen set.
        assert_eq!(
            decode_annotations(&mut seen.as_slice()).unwrap(),
            AnnotationSet::from_iter(distinct(7))
        );
    }

    #[test]
    fn the_table_stays_within_its_slots() {
        for i in 0..100_000 {
            let set = AnnotationSet::from_iter(distinct(i));
            assert_eq!(
                decode_annotations(&mut encoded(&set).as_slice()).unwrap(),
                set
            );
        }
        let occupied = table_occupancy();
        assert!(occupied > 0 && occupied <= SET_SLOTS, "{occupied} slots");
    }

    #[test]
    fn transition_variants_round_trip() {
        for t in [
            TransitionTaken::Unknown,
            TransitionTaken::Named("checkpoint002".into()),
            TransitionTaken::Edge {
                layer: LayerIdx::from_index(4),
                edge: EdgeId::from_index(1000),
            },
        ] {
            let mut buf = Vec::new();
            encode_transition(&mut buf, &t);
            assert_eq!(decode_transition(&mut buf.as_slice()).unwrap(), t);
        }
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert_eq!(
            decode_transition(&mut [9u8].as_slice()).unwrap_err(),
            CodecError::BadTag(9)
        );
    }

    #[test]
    fn truncation_never_panics() {
        let t = sample_trajectory();
        let mut buf = Vec::new();
        encode_trajectory(&mut buf, &t);
        for cut in 0..buf.len() {
            let err = decode_trajectory(&mut &buf[..cut]);
            assert!(
                err.is_err(),
                "cut at {cut} produced a value from a truncated buffer"
            );
        }
    }

    #[test]
    fn hostile_length_prefix_is_bounded() {
        // A string claiming u64::MAX bytes must not allocate.
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        buf.extend_from_slice(b"xy");
        match decode_trajectory(&mut buf.as_slice()).unwrap_err() {
            CodecError::LengthOverrun { declared, .. } => assert_eq!(declared, u64::MAX),
            other => panic!("expected LengthOverrun, got {other:?}"),
        }
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(
            decode_trajectory(&mut buf.as_slice()).unwrap_err(),
            CodecError::BadUtf8
        );
    }
}
