//! What the decoders answer, pinned: a fixed corpus of five encoded
//! samples, each decoded at every truncation and under every single-bit
//! flip. Per sample the test pins how many inputs decode `Ok` and how
//! many fail with each `CodecError` variant, and a CRC-32 over the
//! `Debug` text of every result (the value or the error, and the bytes
//! the decoder left unread). A decoder that accepts or refuses one of
//! these inputs differently, or reads it to a different value or error,
//! moves a pin.

use std::collections::BTreeMap;
use std::fmt::Debug;

use sitm_core::{
    Annotation, AnnotationKind, AnnotationSet, PresenceInterval, SemanticTrajectory, Timestamp,
    Trace, TransitionTaken,
};
use sitm_graph::{CellRef, EdgeId, LayerIdx, NodeId};
use sitm_serve::{decode_request, decode_response, encode_request, encode_response};
use sitm_serve::{Request, Response};
use sitm_store::codec::{decode_presence, encode_presence};
use sitm_store::{decode_trajectory, encode_trajectory, CodecError, Crc32};
use sitm_stream::{StreamEvent, VisitKey};

fn cell(n: usize) -> CellRef {
    CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
}

/// A served ledger row: `mo-…`, nine stays with empty `A_i`, `{goal:visit}`.
fn ledger_row() -> SemanticTrajectory {
    let stays = (0..9)
        .map(|k| {
            PresenceInterval::new(
                TransitionTaken::Unknown,
                cell(k * 7 % 256),
                Timestamp(36_000 + k as i64 * 300),
                Timestamp(36_000 + k as i64 * 300 + 240),
            )
        })
        .collect();
    SemanticTrajectory::new(
        "mo-0004217",
        Trace::new(stays).expect("ordered stays"),
        AnnotationSet::from_iter([Annotation::goal("visit")]),
    )
    .expect("non-empty")
}

/// A Louvre dataset row: resolved edges between zones, `goal=visit`,
/// `device=…`.
fn louvre_row() -> SemanticTrajectory {
    let stays = (0..6)
        .map(|k| {
            let transition = if k == 0 {
                TransitionTaken::Unknown
            } else {
                TransitionTaken::Edge {
                    layer: LayerIdx::from_index(0),
                    edge: EdgeId::from_index(k * 3),
                }
            };
            PresenceInterval::new(
                transition,
                cell(60 + k),
                Timestamp(1_485_000_000 + k as i64 * 600),
                Timestamp(1_485_000_000 + k as i64 * 600 + 420),
            )
        })
        .collect();
    SemanticTrajectory::new(
        "visitor-0042",
        Trace::new(stays).expect("ordered stays"),
        AnnotationSet::from_iter([
            Annotation::goal("visit"),
            Annotation::new(AnnotationKind::Custom("device".into()), "ios"),
        ]),
    )
    .expect("non-empty")
}

/// Two standalone presences: one entered by an edge, carrying custom
/// stay annotations, and one entered by a named door, carrying a
/// transition annotation.
fn presences() -> [PresenceInterval; 2] {
    let edge = PresenceInterval::new(
        TransitionTaken::Edge {
            layer: LayerIdx::from_index(2),
            edge: EdgeId::from_index(300),
        },
        CellRef::new(LayerIdx::from_index(2), NodeId::from_index(141)),
        Timestamp(1_485_000_000),
        Timestamp(1_485_000_155),
    )
    .with_annotations(AnnotationSet::from_iter([
        Annotation::new(AnnotationKind::Custom("device".into()), "ios"),
        Annotation::goal("visit"),
    ]));
    let named = PresenceInterval::new(
        TransitionTaken::Named("door012".into()),
        cell(7),
        Timestamp(-90),
        Timestamp(70_000),
    )
    .with_transition_annotations(AnnotationSet::from_iter([Annotation::new(
        AnnotationKind::Custom("event".into()),
        "alarm",
    )]));
    [edge, named]
}

/// An ingest batch carrying each of the four event kinds.
fn ingest_request() -> Request {
    let [edge, named] = presences();
    Request::IngestBatch(vec![
        StreamEvent::VisitOpened {
            visit: VisitKey(1),
            moving_object: "mo-1".into(),
            annotations: AnnotationSet::from_iter([Annotation::goal("visit")]),
            at: Timestamp(1_485_000_000),
        },
        StreamEvent::Fix {
            visit: VisitKey(1),
            cell: cell(200),
            at: Timestamp(1_485_000_030),
        },
        StreamEvent::Presence {
            visit: VisitKey(300),
            interval: edge,
        },
        StreamEvent::Presence {
            visit: VisitKey(2),
            interval: named,
        },
        StreamEvent::VisitClosed {
            visit: VisitKey(1),
            at: Timestamp(1_485_000_900),
        },
    ])
}

fn variant(error: &CodecError) -> &'static str {
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

/// Decodes every truncation of `bytes` (the whole included) and every
/// single-bit flip of it. Returns the verdict counts, as
/// `"Ok:n Variant:n …"`, and the CRC-32 of every result's `Debug` text.
fn verdicts<T: Debug>(
    bytes: &[u8],
    decode: impl Fn(&mut &[u8]) -> Result<T, CodecError>,
) -> (String, u32) {
    let mut inputs: Vec<Vec<u8>> = (0..=bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        inputs.push(flipped);
    }
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut crc = Crc32::new();
    for input in &inputs {
        let mut rest = input.as_slice();
        let result = decode(&mut rest);
        let verdict = match &result {
            Ok(_) => "Ok",
            Err(e) => variant(e),
        };
        *counts.entry(verdict).or_default() += 1;
        crc.update(format!("{result:?} rest {}\n", rest.len()).as_bytes());
    }
    let counts = counts
        .iter()
        .map(|(verdict, n)| format!("{verdict}:{n}"))
        .collect::<Vec<_>>()
        .join(" ");
    (counts, crc.finish())
}

#[test]
fn every_decoder_answers_the_corpus_as_pinned() {
    let mut ledger = Vec::new();
    encode_trajectory(&mut ledger, &ledger_row());
    let mut louvre = Vec::new();
    encode_trajectory(&mut louvre, &louvre_row());
    let mut presence = Vec::new();
    for p in &presences() {
        encode_presence(&mut presence, p);
    }
    let mut request = Vec::new();
    encode_request(&mut request, &ingest_request());
    let mut response = Vec::new();
    encode_response(
        &mut response,
        &Response::Trajectories(vec![ledger_row(), louvre_row()]),
    );

    let measured = [
        ("ledger row", verdicts(&ledger, decode_trajectory)),
        ("louvre row", verdicts(&louvre, decode_trajectory)),
        (
            "presences",
            verdicts(&presence, |buf| {
                Ok((decode_presence(buf)?, decode_presence(buf)?))
            }),
        ),
        ("ingest request", verdicts(&request, decode_request)),
        (
            "trajectories response",
            verdicts(&response, decode_response),
        ),
    ];
    for (sample, (counts, crc)) in &measured {
        println!("{sample}: {counts}, {crc:#010x}");
    }
    let pinned: [(&str, &str, u32); 5] = [
        (
            "ledger row",
            "BadTag:81 BadUtf8:78 InvalidTrace:130 InvalidTrajectory:4 LengthOverrun:111 Ok:409 UnexpectedEof:79",
            0x510c23b5,
        ),
        (
            "louvre row",
            "BadTag:43 BadUtf8:139 InvalidTrace:45 InvalidTrajectory:2 LengthOverrun:120 Ok:521 UnexpectedEof:76",
            0x2a9fcc4a,
        ),
        (
            "presences",
            "BadTag:14 BadUtf8:41 LengthOverrun:131 Ok:389 UnexpectedEof:38",
            0xb7043598,
        ),
        (
            "ingest request",
            "BadTag:80 BadUtf8:87 InvalidTrace:7 LengthOverrun:156 Ok:645 UnexpectedEof:70",
            0x12a70248,
        ),
        (
            "trajectories response",
            "BadTag:128 BadUtf8:283 InvalidTrace:181 InvalidTrajectory:6 LengthOverrun:179 Ok:925 UnexpectedEof:153",
            0xdf540358,
        ),
    ];
    for ((sample, (counts, crc)), (pinned_sample, pinned_counts, pinned_crc)) in
        measured.iter().zip(pinned)
    {
        assert_eq!(*sample, pinned_sample);
        assert_eq!(counts, pinned_counts, "{sample}: verdict counts");
        assert_eq!(*crc, pinned_crc, "{sample}: CRC-32 of every result");
    }
}
