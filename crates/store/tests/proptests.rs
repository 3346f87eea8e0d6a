//! Failure-injection property tests for the storage engine.
//!
//! The WAL contract under test:
//!
//! 1. **Round-trip** — decode(encode(x)) == x for arbitrary trajectories
//!    and visit records.
//! 2. **Truncation prefix** — cutting a segment at *any* byte recovers a
//!    clean prefix of the written records, and every frame fully
//!    contained in the kept bytes survives.
//! 3. **Corruption containment** — flipping *any* single byte recovers a
//!    prefix of the records; no record ever comes back altered.
//!
//! And the warehouse's flat object set against an ordered set of the
//! same names.

use std::collections::BTreeSet;

use proptest::prelude::*;

use sitm_codec::{put_str, put_u64};

use sitm_core::{
    Annotation, AnnotationKind, AnnotationSet, PresenceInterval, SemanticTrajectory, Timestamp,
    Trace, TransitionTaken,
};
use sitm_graph::{EdgeId, LayerIdx, NodeId};
use sitm_louvre::{Device, VisitRecord, ZoneDetectionRecord};
use sitm_space::CellRef;
use sitm_store::codec::{
    decode_trajectory, decode_visit, encode_trajectory, encode_visit, CodecError,
};
use sitm_store::segment::{scan, write_frame, write_header, FRAME_OVERHEAD, MAGIC};
use sitm_store::{LogStore, ObjectSet};

/// A unique throwaway log path, removed on drop.
struct TempLog(std::path::PathBuf);

impl TempLog {
    fn new() -> TempLog {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        TempLog(std::env::temp_dir().join(format!(
            "sitm-store-proptest-{}-{n}.log",
            std::process::id()
        )))
    }
}

impl Drop for TempLog {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn annotation_strategy() -> impl Strategy<Value = Annotation> {
    (
        prop_oneof![
            Just(AnnotationKind::Goal),
            Just(AnnotationKind::Activity),
            Just(AnnotationKind::Behavior),
            "[a-z]{1,8}".prop_map(AnnotationKind::Custom),
        ],
        "[a-zA-Z0-9 éàè]{0,12}",
    )
        .prop_map(|(kind, value)| Annotation::new(kind, value))
}

fn transition_strategy() -> impl Strategy<Value = TransitionTaken> {
    prop_oneof![
        Just(TransitionTaken::Unknown),
        "[a-z0-9]{1,10}".prop_map(TransitionTaken::Named),
        (0usize..8, 0usize..10_000).prop_map(|(l, e)| TransitionTaken::Edge {
            layer: LayerIdx::from_index(l),
            edge: EdgeId::from_index(e),
        }),
    ]
}

fn trajectory_strategy() -> impl Strategy<Value = SemanticTrajectory> {
    (
        "[a-z0-9-]{1,16}",
        -1_000_000i64..2_000_000_000,
        prop::collection::vec(
            (
                transition_strategy(),
                0usize..64,
                0i64..400,  // gap before the stay
                0i64..4000, // stay duration
                prop::collection::vec(annotation_strategy(), 0..3),
            ),
            1..10,
        ),
        prop::collection::vec(annotation_strategy(), 1..4),
    )
        .prop_map(|(mo, start, stays, traj_anns)| {
            let mut t = start;
            let mut intervals = Vec::with_capacity(stays.len());
            for (transition, cell, gap, dur, anns) in stays {
                let s = t + gap;
                let e = s + dur;
                intervals.push(
                    PresenceInterval::new(
                        transition,
                        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(cell)),
                        Timestamp(s),
                        Timestamp(e),
                    )
                    .with_annotations(AnnotationSet::from_iter(anns)),
                );
                t = e;
            }
            SemanticTrajectory::new(
                mo,
                Trace::new(intervals).expect("ordered stays"),
                AnnotationSet::from_iter(traj_anns),
            )
            .expect("non-empty")
        })
}

fn visit_strategy() -> impl Strategy<Value = VisitRecord> {
    (
        0u32..100_000,
        0u32..5_000,
        prop::bool::ANY,
        0i64..2_000_000_000,
        prop::collection::vec((60_840u32..60_892, 0i64..400, 0i64..4000), 0..12),
    )
        .prop_map(|(visit_id, visitor_id, ios, start, dets)| {
            let mut t = start;
            let detections = dets
                .into_iter()
                .map(|(zone_id, gap, dur)| {
                    let s = t + gap;
                    let e = s + dur;
                    t = e;
                    ZoneDetectionRecord {
                        zone_id,
                        start: Timestamp(s),
                        end: Timestamp(e),
                    }
                })
                .collect();
            VisitRecord {
                visit_id,
                visitor_id,
                device: if ios { Device::Ios } else { Device::Android },
                detections,
            }
        })
}

/// `names` encoded as an ordered set of strings always was: the count,
/// then each name behind its length, in the order given.
fn encode_names<'a>(names: impl ExactSizeIterator<Item = &'a str>) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, names.len() as u64);
    for name in names {
        put_str(&mut buf, name);
    }
    buf
}

/// Builds a segment buffer and the frame boundaries of each record.
fn build_segment(payloads: &[Vec<u8>]) -> (Vec<u8>, Vec<(usize, usize)>) {
    let mut buf = Vec::new();
    write_header(&mut buf);
    let mut bounds = Vec::with_capacity(payloads.len());
    for p in payloads {
        let start = buf.len();
        write_frame(&mut buf, p);
        bounds.push((start, buf.len()));
    }
    (buf, bounds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn trajectory_round_trip(t in trajectory_strategy()) {
        let mut buf = Vec::new();
        encode_trajectory(&mut buf, &t);
        let decoded = decode_trajectory(&mut buf.as_slice()).expect("clean decode");
        prop_assert_eq!(decoded, t);
    }

    #[test]
    fn visit_round_trip(v in visit_strategy()) {
        let mut buf = Vec::new();
        encode_visit(&mut buf, &v);
        let decoded = decode_visit(&mut buf.as_slice()).expect("clean decode");
        prop_assert_eq!(decoded, v);
    }

    #[test]
    fn decoding_arbitrary_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Whatever happens, it must be an Err or a legal value — no panic,
        // no absurd allocation.
        let _ = decode_trajectory(&mut bytes.as_slice());
        let _ = decode_visit(&mut bytes.as_slice());
    }

    #[test]
    fn truncation_recovers_exact_prefix(
        trajs in prop::collection::vec(trajectory_strategy(), 1..6),
        cut_fraction in 0.0f64..1.0,
    ) {
        let payloads: Vec<Vec<u8>> = trajs
            .iter()
            .map(|t| {
                let mut b = Vec::new();
                encode_trajectory(&mut b, t);
                b
            })
            .collect();
        let (buf, bounds) = build_segment(&payloads);
        let cut = MAGIC.len() + ((buf.len() - MAGIC.len()) as f64 * cut_fraction) as usize;
        let outcome = scan(&buf[..cut]);
        // Exactly the frames wholly inside the cut survive.
        let expect: usize = bounds.iter().filter(|&&(_, end)| end <= cut).count();
        prop_assert_eq!(outcome.payloads.len(), expect, "cut at {}", cut);
        for (i, payload) in outcome.payloads.iter().enumerate() {
            let decoded = decode_trajectory(&mut &payload[..]).expect("intact frame decodes");
            prop_assert_eq!(&decoded, &trajs[i], "record {} altered by truncation", i);
        }
        // valid_len is a safe append point.
        prop_assert!(outcome.valid_len <= cut);
    }

    #[test]
    fn byte_flip_recovers_unaltered_prefix(
        trajs in prop::collection::vec(trajectory_strategy(), 1..5),
        flip_pos_fraction in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let payloads: Vec<Vec<u8>> = trajs
            .iter()
            .map(|t| {
                let mut b = Vec::new();
                encode_trajectory(&mut b, t);
                b
            })
            .collect();
        let (mut buf, bounds) = build_segment(&payloads);
        // Flip one bit somewhere after the header.
        let pos = MAGIC.len()
            + (((buf.len() - MAGIC.len() - 1) as f64) * flip_pos_fraction) as usize;
        buf[pos] ^= 1 << flip_bit;

        let outcome = scan(&buf);
        // Every frame ending before the flipped byte must survive
        // unaltered; everything from the flipped frame on may be dropped.
        let safe: usize = bounds.iter().filter(|&&(_, end)| end <= pos).count();
        prop_assert!(
            outcome.payloads.len() >= safe,
            "flip at {} lost pre-flip frames ({} < {})", pos, outcome.payloads.len(), safe
        );
        for (i, payload) in outcome.payloads.iter().enumerate() {
            // A recovered frame either decodes to the original record or
            // (for the flipped frame itself) failed the CRC and is absent.
            if let Ok(decoded) = decode_trajectory(&mut &payload[..]) {
                if i < trajs.len() && payload.len() == payloads[i].len() {
                    // Same frame slot: must be bit-identical content.
                    prop_assert_eq!(
                        &decoded, &trajs[i],
                        "flip at {} surfaced an altered record {}", pos, i
                    );
                }
            }
        }
        // CRC must catch any payload flip: if the flip landed inside a
        // payload region, that frame cannot appear with altered bytes.
        for (i, &(start, end)) in bounds.iter().enumerate() {
            let payload_start = start + FRAME_OVERHEAD;
            if pos >= payload_start && pos < end {
                // The altered payload must not be among the survivors.
                for survivor in &outcome.payloads {
                    prop_assert_ne!(
                        survivor, &&buf[payload_start..end],
                        "corrupted payload {} slipped past the CRC", i
                    );
                }
            }
        }
    }

    /// An object set built from runs with repeats, and the union of
    /// 1–5 of them, hold what an ordered set of the same names holds:
    /// the same members, ranks and lookups, and the same bytes.
    #[test]
    fn object_set_agrees_with_an_ordered_set(
        runs in prop::collection::vec(prop::collection::vec("[a-cé]{0,3}", 0..12), 1..6),
    ) {
        let sets: Vec<ObjectSet> = runs
            .iter()
            .map(|run| ObjectSet::from_run(run.iter().map(String::as_str).collect()))
            .collect();
        let models: Vec<BTreeSet<&str>> = runs
            .iter()
            .map(|run| run.iter().map(String::as_str).collect())
            .collect();
        let union = ObjectSet::union(&sets.iter().collect::<Vec<_>>());
        let union_model: BTreeSet<&str> = models.iter().flatten().copied().collect();
        let probes: Vec<&str> = runs
            .iter()
            .flatten()
            .map(String::as_str)
            .chain(["", "d", "ab", "é", "zz"])
            .collect();
        for (set, model) in sets.iter().zip(&models).chain([(&union, &union_model)]) {
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
            for (rank, &name) in model.iter().enumerate() {
                prop_assert_eq!(set.get(rank), Some(name));
                prop_assert_eq!(set.rank(name), Some(rank));
            }
            prop_assert_eq!(set.get(model.len()), None);
            for probe in &probes {
                prop_assert_eq!(set.contains(probe), model.contains(probe));
            }
            let mut bytes = Vec::new();
            set.encode(&mut bytes);
            prop_assert_eq!(&bytes, &encode_names(model.iter().copied()));
            prop_assert_eq!(ObjectSet::decode(&mut bytes.as_slice()), Ok(set.clone()));
        }
        // A list out of order, or naming one object twice, is refused.
        let names: Vec<&str> = union_model.iter().copied().collect();
        let mut refused = Vec::new();
        if let [first, ..] = names[..] {
            refused.push([first, first]);
        }
        if let [first, second, ..] = names[..] {
            refused.push([second, first]);
        }
        for list in refused {
            let bytes = encode_names(list.into_iter());
            prop_assert_eq!(ObjectSet::decode(&mut bytes.as_slice()), Err(CodecError::Unsorted));
        }
    }

    /// Durability round-trip: whatever is appended and synced comes back
    /// verbatim on reopen, in order, with a clean report.
    #[test]
    fn log_reopen_returns_appended_records(
        trajs in prop::collection::vec(trajectory_strategy(), 0..8),
    ) {
        let tmp = TempLog::new();
        {
            let (mut log, existing, report) =
                LogStore::<SemanticTrajectory>::open(&tmp.0).expect("create");
            prop_assert!(existing.is_empty());
            prop_assert!(report.is_clean());
            log.append_batch(trajs.iter()).expect("append");
            log.sync().expect("sync");
            prop_assert_eq!(log.len(), trajs.len());
        }
        let (log, records, report) =
            LogStore::<SemanticTrajectory>::open(&tmp.0).expect("reopen");
        prop_assert!(report.is_clean());
        prop_assert_eq!(&records, &trajs);
        prop_assert_eq!(log.len(), trajs.len());
        prop_assert_eq!(log.is_empty(), trajs.is_empty());
    }

    /// Compaction to an arbitrary subset is equivalent to rebuilding the
    /// log from that subset.
    #[test]
    fn compaction_equals_rebuild(
        trajs in prop::collection::vec(trajectory_strategy(), 1..8),
        keep_mask in prop::collection::vec(any::<bool>(), 1..8),
    ) {
        let tmp = TempLog::new();
        let keep: Vec<SemanticTrajectory> = trajs
            .iter()
            .zip(keep_mask.iter().cycle())
            .filter(|(_, &k)| k)
            .map(|(t, _)| t.clone())
            .collect();
        {
            let (mut log, _, _) = LogStore::<SemanticTrajectory>::open(&tmp.0).expect("create");
            log.append_batch(trajs.iter()).expect("append");
            log.sync().expect("sync");
            log.compact(&keep).expect("compact");
            prop_assert_eq!(log.len(), keep.len());
        }
        let (_, records, report) =
            LogStore::<SemanticTrajectory>::open(&tmp.0).expect("reopen");
        prop_assert!(report.is_clean());
        prop_assert_eq!(records, keep);
    }
}
