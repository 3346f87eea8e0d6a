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

use sitm_codec::{
    put_i64, put_str, put_u64, take_count, take_i64, take_span, take_str, take_tag, take_u64,
};
use sitm_core::{
    Annotation, AnnotationKind, AnnotationSet, Episode, PresenceInterval, SemanticTrajectory,
    TimeInterval, Timestamp, Trace, TransitionTaken,
};
use sitm_graph::{EdgeId, LayerIdx, NodeId};
use sitm_louvre::{Device, VisitRecord, ZoneDetectionRecord};
use sitm_space::CellRef;

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
pub fn encode_annotations(buf: &mut Vec<u8>, set: &AnnotationSet) {
    put_u64(buf, set.len() as u64);
    for a in set.iter() {
        put_str(buf, a.kind.name());
        put_str(buf, &a.value);
    }
}

/// Decodes an annotation set.
pub fn decode_annotations(buf: &mut &[u8]) -> Result<AnnotationSet, CodecError> {
    let count = take_count(buf, 1)?;
    let mut set = AnnotationSet::new();
    for _ in 0..count {
        let kind = AnnotationKind::parse(take_str(buf)?);
        let value = take_str(buf)?.to_owned();
        set.insert(Annotation::new(kind, value));
    }
    Ok(set)
}

const TRANSITION_UNKNOWN: u8 = 0;
const TRANSITION_EDGE: u8 = 1;
const TRANSITION_NAMED: u8 = 2;

/// Encodes a transition.
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
pub fn encode_cell(buf: &mut Vec<u8>, cell: CellRef) {
    put_u64(buf, cell.layer.index() as u64);
    put_u64(buf, cell.node.index() as u64);
}

/// Decodes a cell reference.
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
    let annotations = decode_annotations(buf)?;
    let transition_annotations = decode_annotations(buf)?;
    Ok(
        PresenceInterval::new(transition, cell, Timestamp(start), Timestamp(end))
            .with_annotations(annotations)
            .with_transition_annotations(transition_annotations),
    )
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
        let annotations = decode_annotations(buf)?;
        let transition_annotations = decode_annotations(buf)?;
        intervals.push(
            PresenceInterval::new(transition, cell, Timestamp(start), Timestamp(end))
                .with_annotations(annotations)
                .with_transition_annotations(transition_annotations),
        );
        prev_end = end;
    }
    Trace::new(intervals).map_err(|e| CodecError::InvalidTrace(e.to_string()))
}

/// Encodes a whole semantic trajectory.
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
    let trace = decode_trace(buf, base)?;
    let annotations = decode_annotations(buf)?;
    SemanticTrajectory::new(moving_object, trace, annotations)
        .map_err(|e| CodecError::InvalidTrajectory(e.to_string()))
}

const DEVICE_IOS: u8 = 0;
const DEVICE_ANDROID: u8 = 1;

/// Encodes a raw Louvre-style visit record (the pre-model dataset shape).
pub fn encode_visit(buf: &mut Vec<u8>, v: &VisitRecord) {
    put_u64(buf, v.visit_id as u64);
    put_u64(buf, v.visitor_id as u64);
    buf.push(match v.device {
        Device::Ios => DEVICE_IOS,
        Device::Android => DEVICE_ANDROID,
    });
    put_u64(buf, v.detections.len() as u64);
    let mut prev_end = v
        .detections
        .first()
        .map(|d| d.start)
        .unwrap_or(Timestamp(0));
    put_i64(buf, prev_end.as_seconds());
    for d in &v.detections {
        put_u64(buf, d.zone_id as u64);
        put_i64(buf, (d.start - prev_end).as_seconds());
        put_u64(buf, (d.end - d.start).as_seconds() as u64);
        prev_end = d.end;
    }
}

/// Decodes a visit record.
pub fn decode_visit(buf: &mut &[u8]) -> Result<VisitRecord, CodecError> {
    let visit_id = take_u64(buf)? as u32;
    let visitor_id = take_u64(buf)? as u32;
    let device = match take_tag(buf)? {
        DEVICE_IOS => Device::Ios,
        DEVICE_ANDROID => Device::Android,
        other => return Err(CodecError::BadTag(other)),
    };
    let count = take_count(buf, 1)?;
    let mut prev_end = take_i64(buf)?;
    let mut detections = Vec::with_capacity(count);
    for _ in 0..count {
        let zone_id = take_u64(buf)? as u32;
        let (start, end) = take_span(buf, prev_end)?;
        detections.push(ZoneDetectionRecord {
            zone_id,
            start: Timestamp(start),
            end: Timestamp(end),
        });
        prev_end = end;
    }
    Ok(VisitRecord {
        visit_id,
        visitor_id,
        device,
        detections,
    })
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
    fn visit_record_round_trip() {
        let v = VisitRecord {
            visit_id: 17,
            visitor_id: 942,
            device: Device::Android,
            detections: vec![
                ZoneDetectionRecord {
                    zone_id: 60887,
                    start: Timestamp(1_485_000_000),
                    end: Timestamp(1_485_003_600),
                },
                ZoneDetectionRecord {
                    zone_id: 60888,
                    start: Timestamp(1_485_003_660),
                    end: Timestamp(1_485_003_660), // zero-duration error
                },
            ],
        };
        let mut buf = Vec::new();
        encode_visit(&mut buf, &v);
        assert_eq!(decode_visit(&mut buf.as_slice()).unwrap(), v);
        // Empty visit.
        let empty = VisitRecord {
            visit_id: 0,
            visitor_id: 0,
            device: Device::Ios,
            detections: vec![],
        };
        let mut buf = Vec::new();
        encode_visit(&mut buf, &empty);
        assert_eq!(decode_visit(&mut buf.as_slice()).unwrap(), empty);
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert_eq!(
            decode_transition(&mut [9u8].as_slice()).unwrap_err(),
            CodecError::BadTag(9)
        );
        let mut buf = Vec::new();
        put_u64(&mut buf, 1); // visit_id
        put_u64(&mut buf, 1); // visitor_id
        buf.push(7); // bad device tag
        assert_eq!(
            decode_visit(&mut buf.as_slice()).unwrap_err(),
            CodecError::BadTag(7)
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
