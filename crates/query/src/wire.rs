//! The network codec for queries.
//!
//! `sitm-serve` ships predicates and query specs between clients and
//! servers over a CRC-framed binary protocol; this module supplies the
//! payload encoding for the query-language half — [`Predicate`] (every
//! variant of the boolean algebra), [`SortKey`], and [`WireQuery`] (the
//! wire twin of [`Query`]: predicate + ordering + paging) — using the
//! same [`sitm_codec`] primitives as every durable artifact in the repo.
//!
//! Decoding is **fully validated**, exactly like the storage codecs: a
//! hostile or corrupted payload fails with a [`CodecError`] rather than
//! materializing an invalid value, declared lengths are bounds-checked
//! before any allocation, and predicate recursion is capped at
//! [`MAX_PREDICATE_DEPTH`] so a crafted payload cannot blow the decoder
//! stack.

use sitm_codec::{
    put_i64, put_str, put_u64, take_count, take_flag, take_i64, take_span, take_str, take_tag,
    take_u64,
};
use sitm_core::{Annotation, AnnotationKind, Duration, TimeInterval, Timestamp};
use sitm_store::codec::{decode_cell, encode_cell};
use sitm_store::CodecError;

use crate::predicate::Predicate;
use crate::query::{Query, SortKey};

/// Deepest predicate nesting the decoder accepts (`Not`/`And`/`Or`
/// recursion). The encoder never produces deeper trees from sane
/// queries; the cap exists to bound a hostile payload.
pub const MAX_PREDICATE_DEPTH: usize = 64;

fn encode_annotation(buf: &mut Vec<u8>, a: &Annotation) {
    put_str(buf, a.kind.name());
    put_str(buf, &a.value);
}

fn decode_annotation(buf: &mut &[u8]) -> Result<Annotation, CodecError> {
    let kind = AnnotationKind::parse(take_str(buf)?);
    let value = take_str(buf)?.to_owned();
    Ok(Annotation::new(kind, value))
}

fn encode_interval(buf: &mut Vec<u8>, w: &TimeInterval) {
    put_i64(buf, w.start.0);
    put_u64(buf, w.duration().as_seconds() as u64);
}

fn decode_interval(buf: &mut &[u8]) -> Result<TimeInterval, CodecError> {
    let (start, end) = take_span(buf, 0)?;
    Ok(TimeInterval::new(Timestamp(start), Timestamp(end)))
}

const P_TRUE: u8 = 0;
const P_VISITED_CELL: u8 = 1;
const P_SEQUENCE: u8 = 2;
const P_SPAN_OVERLAPS: u8 = 3;
const P_STAY_OVERLAPS: u8 = 4;
const P_TRAJ_ANNOTATION: u8 = 5;
const P_STAY_ANNOTATION: u8 = 6;
const P_MIN_DWELL: u8 = 7;
const P_MIN_STAY: u8 = 8;
const P_MOVING_OBJECT: u8 = 9;
const P_NOT: u8 = 10;
const P_AND: u8 = 11;
const P_OR: u8 = 12;

/// Encodes a predicate (tag byte + operands, recursively).
pub fn encode_predicate(buf: &mut Vec<u8>, p: &Predicate) {
    match p {
        Predicate::True => buf.push(P_TRUE),
        Predicate::VisitedCell(cell) => {
            buf.push(P_VISITED_CELL);
            encode_cell(buf, *cell);
        }
        Predicate::SequenceContains(cells) => {
            buf.push(P_SEQUENCE);
            put_u64(buf, cells.len() as u64);
            for c in cells {
                encode_cell(buf, *c);
            }
        }
        Predicate::SpanOverlaps(w) => {
            buf.push(P_SPAN_OVERLAPS);
            encode_interval(buf, w);
        }
        Predicate::StayOverlaps(cell, w) => {
            buf.push(P_STAY_OVERLAPS);
            encode_cell(buf, *cell);
            encode_interval(buf, w);
        }
        Predicate::HasTrajAnnotation(a) => {
            buf.push(P_TRAJ_ANNOTATION);
            encode_annotation(buf, a);
        }
        Predicate::HasStayAnnotation(a) => {
            buf.push(P_STAY_ANNOTATION);
            encode_annotation(buf, a);
        }
        Predicate::MinTotalDwell(d) => {
            buf.push(P_MIN_DWELL);
            put_i64(buf, d.as_seconds());
        }
        Predicate::MinStayIn(cell, d) => {
            buf.push(P_MIN_STAY);
            encode_cell(buf, *cell);
            put_i64(buf, d.as_seconds());
        }
        Predicate::MovingObject(id) => {
            buf.push(P_MOVING_OBJECT);
            put_str(buf, id);
        }
        Predicate::Not(inner) => {
            buf.push(P_NOT);
            encode_predicate(buf, inner);
        }
        Predicate::And(parts) => {
            buf.push(P_AND);
            put_u64(buf, parts.len() as u64);
            for q in parts {
                encode_predicate(buf, q);
            }
        }
        Predicate::Or(parts) => {
            buf.push(P_OR);
            put_u64(buf, parts.len() as u64);
            for q in parts {
                encode_predicate(buf, q);
            }
        }
    }
}

/// Decodes a predicate encoded by [`encode_predicate`].
pub fn decode_predicate(buf: &mut &[u8]) -> Result<Predicate, CodecError> {
    decode_predicate_depth(buf, 0)
}

fn decode_predicate_depth(buf: &mut &[u8], depth: usize) -> Result<Predicate, CodecError> {
    if depth > MAX_PREDICATE_DEPTH {
        return Err(CodecError::InvalidTrace(
            "predicate nesting exceeds wire limit".into(),
        ));
    }
    match take_tag(buf)? {
        P_TRUE => Ok(Predicate::True),
        P_VISITED_CELL => Ok(Predicate::VisitedCell(decode_cell(buf)?)),
        P_SEQUENCE => {
            let count = take_count(buf, 1)?;
            let mut cells = Vec::with_capacity(count);
            for _ in 0..count {
                cells.push(decode_cell(buf)?);
            }
            Ok(Predicate::SequenceContains(cells))
        }
        P_SPAN_OVERLAPS => Ok(Predicate::SpanOverlaps(decode_interval(buf)?)),
        P_STAY_OVERLAPS => {
            let cell = decode_cell(buf)?;
            let w = decode_interval(buf)?;
            Ok(Predicate::StayOverlaps(cell, w))
        }
        P_TRAJ_ANNOTATION => Ok(Predicate::HasTrajAnnotation(decode_annotation(buf)?)),
        P_STAY_ANNOTATION => Ok(Predicate::HasStayAnnotation(decode_annotation(buf)?)),
        P_MIN_DWELL => Ok(Predicate::MinTotalDwell(Duration(take_i64(buf)?))),
        P_MIN_STAY => {
            let cell = decode_cell(buf)?;
            let d = Duration(take_i64(buf)?);
            Ok(Predicate::MinStayIn(cell, d))
        }
        P_MOVING_OBJECT => Ok(Predicate::MovingObject(take_str(buf)?.to_owned())),
        P_NOT => Ok(Predicate::Not(Box::new(decode_predicate_depth(
            buf,
            depth + 1,
        )?))),
        P_AND => {
            let count = take_count(buf, 1)?;
            let mut parts = Vec::with_capacity(count);
            for _ in 0..count {
                parts.push(decode_predicate_depth(buf, depth + 1)?);
            }
            Ok(Predicate::And(parts))
        }
        P_OR => {
            let count = take_count(buf, 1)?;
            let mut parts = Vec::with_capacity(count);
            for _ in 0..count {
                parts.push(decode_predicate_depth(buf, depth + 1)?);
            }
            Ok(Predicate::Or(parts))
        }
        other => Err(CodecError::BadTag(other)),
    }
}

fn sort_key_tag(key: SortKey) -> u8 {
    match key {
        SortKey::Start => 0,
        SortKey::End => 1,
        SortKey::SpanDuration => 2,
        SortKey::TotalDwell => 3,
        SortKey::MovingObject => 4,
        SortKey::TraceLength => 5,
    }
}

fn sort_key_from_tag(tag: u8) -> Result<SortKey, CodecError> {
    Ok(match tag {
        0 => SortKey::Start,
        1 => SortKey::End,
        2 => SortKey::SpanDuration,
        3 => SortKey::TotalDwell,
        4 => SortKey::MovingObject,
        5 => SortKey::TraceLength,
        other => return Err(CodecError::BadTag(other)),
    })
}

/// The wire twin of [`Query`]: one predicate plus ordering and paging,
/// with public fields so clients assemble it directly and servers
/// rebuild the executable [`Query`] via [`WireQuery::to_query`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireQuery {
    /// Selection predicate.
    pub predicate: Predicate,
    /// Optional sort: key plus ascending flag.
    pub order: Option<(SortKey, bool)>,
    /// Results skipped after sorting.
    pub offset: u64,
    /// Result cap applied after offset (`None` = unlimited).
    pub limit: Option<u64>,
}

impl WireQuery {
    /// A query matching everything, unsorted and unpaged.
    pub fn all() -> WireQuery {
        WireQuery {
            predicate: Predicate::True,
            order: None,
            offset: 0,
            limit: None,
        }
    }

    /// A query with the given predicate, unsorted and unpaged.
    pub fn filtered(predicate: Predicate) -> WireQuery {
        WireQuery {
            predicate,
            order: None,
            offset: 0,
            limit: None,
        }
    }

    /// Builds the executable [`Query`] this spec describes.
    pub fn to_query(&self) -> Query {
        let mut q = Query::new().filter(self.predicate.clone());
        if let Some((key, ascending)) = self.order {
            q = q.order_by(key, ascending);
        }
        if self.offset > 0 {
            q = q.offset(self.offset as usize);
        }
        if let Some(limit) = self.limit {
            q = q.limit(limit as usize);
        }
        q
    }
}

/// Encodes a [`WireQuery`].
pub fn encode_wire_query(buf: &mut Vec<u8>, q: &WireQuery) {
    encode_predicate(buf, &q.predicate);
    match q.order {
        None => buf.push(0),
        Some((key, ascending)) => {
            buf.push(1);
            buf.push(sort_key_tag(key));
            buf.push(u8::from(ascending));
        }
    }
    put_u64(buf, q.offset);
    match q.limit {
        None => buf.push(0),
        Some(n) => {
            buf.push(1);
            put_u64(buf, n);
        }
    }
}

/// Decodes a [`WireQuery`] encoded by [`encode_wire_query`].
pub fn decode_wire_query(buf: &mut &[u8]) -> Result<WireQuery, CodecError> {
    let predicate = decode_predicate(buf)?;
    let order = if take_flag(buf)? {
        let key = sort_key_from_tag(take_tag(buf)?)?;
        Some((key, take_flag(buf)?))
    } else {
        None
    };
    let offset = take_u64(buf)?;
    let limit = if take_flag(buf)? {
        Some(take_u64(buf)?)
    } else {
        None
    };
    Ok(WireQuery {
        predicate,
        order,
        offset,
        limit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_graph::{LayerIdx, NodeId};
    use sitm_space::CellRef;

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
    }

    fn samples() -> Vec<Predicate> {
        let w = TimeInterval::new(Timestamp(-5), Timestamp(90));
        vec![
            Predicate::True,
            Predicate::VisitedCell(cell(3)),
            Predicate::SequenceContains(vec![cell(0), cell(1), cell(2)]),
            Predicate::SequenceContains(vec![]),
            Predicate::SpanOverlaps(w),
            Predicate::StayOverlaps(cell(7), w),
            Predicate::HasTrajAnnotation(Annotation::goal("visit")),
            Predicate::HasStayAnnotation(Annotation::new(
                AnnotationKind::Custom("inference".into()),
                "rushed",
            )),
            Predicate::MinTotalDwell(Duration::minutes(5)),
            Predicate::MinStayIn(cell(2), Duration::seconds(30)),
            Predicate::MovingObject("visitor-42".into()),
            Predicate::VisitedCell(cell(1)).not(),
            Predicate::VisitedCell(cell(1))
                .and(Predicate::MovingObject("a".into()))
                .or(Predicate::SpanOverlaps(w).not()),
            Predicate::And(vec![]),
            Predicate::Or(vec![]),
        ]
    }

    #[test]
    fn every_predicate_variant_round_trips() {
        for p in samples() {
            let mut buf = Vec::new();
            encode_predicate(&mut buf, &p);
            let mut cursor: &[u8] = &buf;
            let back = decode_predicate(&mut cursor).unwrap();
            assert!(cursor.is_empty(), "trailing bytes for {p}");
            assert_eq!(back, p);
        }
    }

    #[test]
    fn truncations_error_and_never_panic() {
        for p in samples() {
            let mut buf = Vec::new();
            encode_predicate(&mut buf, &p);
            for cut in 0..buf.len() {
                assert!(
                    decode_predicate(&mut &buf[..cut]).is_err(),
                    "cut {cut} of {p}"
                );
            }
        }
    }

    #[test]
    fn hostile_depth_is_capped() {
        // MAX_DEPTH+2 nested Nots around True.
        let mut buf = vec![P_NOT; MAX_PREDICATE_DEPTH + 2];
        buf.push(P_TRUE);
        assert!(matches!(
            decode_predicate(&mut buf.as_slice()),
            Err(CodecError::InvalidTrace(_))
        ));
        // One level under the cap decodes fine.
        let mut buf = vec![P_NOT; MAX_PREDICATE_DEPTH];
        buf.push(P_TRUE);
        assert!(decode_predicate(&mut buf.as_slice()).is_ok());
    }

    #[test]
    fn hostile_counts_are_rejected_before_allocation() {
        let mut buf = vec![P_AND];
        put_u64(&mut buf, u64::MAX);
        assert!(matches!(
            decode_predicate(&mut buf.as_slice()),
            Err(CodecError::LengthOverrun { .. })
        ));
        assert!(matches!(
            decode_predicate(&mut [0xFFu8].as_slice()),
            Err(CodecError::BadTag(0xFF))
        ));
    }

    #[test]
    fn wire_query_round_trips_and_builds_the_query() {
        let specs = vec![
            WireQuery::all(),
            WireQuery::filtered(Predicate::VisitedCell(cell(1))),
            WireQuery {
                predicate: Predicate::MovingObject("v".into()),
                order: Some((SortKey::TotalDwell, false)),
                offset: 3,
                limit: Some(10),
            },
            WireQuery {
                predicate: Predicate::True,
                order: Some((SortKey::MovingObject, true)),
                offset: 0,
                limit: None,
            },
        ];
        for spec in specs {
            let mut buf = Vec::new();
            encode_wire_query(&mut buf, &spec);
            let mut cursor: &[u8] = &buf;
            let back = decode_wire_query(&mut cursor).unwrap();
            assert!(cursor.is_empty());
            assert_eq!(back, spec);
            // The rebuilt Query carries the same predicate.
            assert_eq!(back.to_query().predicate(), &spec.predicate);
            for cut in 0..buf.len() {
                assert!(decode_wire_query(&mut &buf[..cut]).is_err(), "cut {cut}");
            }
        }
    }
}
