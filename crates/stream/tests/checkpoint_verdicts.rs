//! What `ParallelEngine::restore` answers for damaged checkpoints,
//! pinned: a real checkpoint taken mid-way through a seeded Louvre day
//! (open visits, fences, undrained episodes and a finished backlog),
//! restored at every truncation and under every single-bit flip. The
//! bytes are outside input — whoever commits them may hand back a torn
//! or rotted copy — so each one must come back as an engine or an
//! error, never a panic. The test pins how many inputs restore and how
//! many fail with each error, and a CRC-32 over every error's `Debug`
//! text and every restored engine's own checkpoint: a restore that
//! accepts or refuses one of these inputs differently, or reads it to a
//! different state, moves a pin.

use std::collections::BTreeMap;

use sitm_codec::put_u64;
use sitm_core::{Annotation, AnnotationSet, Duration, IntervalPredicate};
use sitm_graph::{CellRef, LayerIdx};
use sitm_louvre::{
    build_louvre, generate_dataset, zone_key, GeneratorConfig, LouvreModel, PaperCalibration,
};
use sitm_store::{CodecError, Crc32};
use sitm_stream::checkpoint::{decode_state, encode_state, EngineState};
use sitm_stream::{
    trajectory_feed, CheckpointError, EngineConfig, EngineError, ParallelEngine, StreamEvent,
};

fn label(s: &str) -> AnnotationSet {
    AnnotationSet::from_iter([Annotation::goal(s)])
}

fn predicates(model: &LouvreModel) -> Vec<(IntervalPredicate, AnnotationSet)> {
    let exit_chain = [60887u32, 60888, 60890]
        .map(|id| model.space.resolve(&zone_key(id)).expect("zone resolves"));
    vec![
        (
            IntervalPredicate::in_cells(exit_chain),
            label("exit museum"),
        ),
        (
            IntervalPredicate::min_duration(Duration::minutes(10)),
            label("lingering"),
        ),
        (IntervalPredicate::any(), label("whole visit")),
    ]
}

/// The seeded 150-visit Louvre day of `checkpoint_bytes.rs`, as a feed.
fn day(model: &LouvreModel) -> Vec<StreamEvent> {
    let defaults = PaperCalibration::default();
    let calibration = PaperCalibration {
        visits: 150,
        visitors: 120,
        returning_visitors: 30,
        revisits: 30,
        detections: 750,
        transitions: 600,
        collection_end: defaults.collection_start,
        ..defaults
    };
    let dataset = generate_dataset(&GeneratorConfig {
        seed: 20_190_326,
        calibration,
        ..GeneratorConfig::default()
    });
    trajectory_feed(&dataset.visit_trajectories(model))
}

fn config(model: &LouvreModel) -> EngineConfig {
    EngineConfig::new(predicates(model))
        .with_shards(1)
        .with_warehouse()
}

/// The first sixteenth of the day, checkpointed undrained.
fn checkpoint(model: &LouvreModel) -> Vec<u8> {
    let events = day(model);
    let mut engine = ParallelEngine::new(config(model)).expect("engine");
    engine.ingest_all(events[..events.len() / 16].iter().cloned());
    engine.checkpoint()
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

fn variant(error: &EngineError) -> &'static str {
    match error {
        EngineError::ZeroShards => "ZeroShards",
        EngineError::PredicateCountMismatch { .. } => "PredicateCountMismatch",
        EngineError::Checkpoint(CheckpointError::BadVersion(_)) => "BadVersion",
        EngineError::Checkpoint(CheckpointError::Malformed(_)) => "Malformed",
        EngineError::Checkpoint(CheckpointError::Codec(e)) => codec_variant(e),
    }
}

#[test]
fn every_truncation_and_bit_flip_restores_or_errs_as_pinned() {
    let model = build_louvre();
    let bytes = checkpoint(&model);
    // Every part of the payload is exercised.
    let (snapshot, _) = decode_state(&bytes).expect("decodes");
    assert!(!snapshot.visits.is_empty(), "open visits");
    assert!(!snapshot.closed.is_empty(), "fences");
    assert!(!snapshot.pending.is_empty(), "undrained episodes");
    assert!(!snapshot.finished.is_empty(), "finished backlog");

    let mut inputs: Vec<Vec<u8>> = (0..=bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        inputs.push(flipped);
    }
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut crc = Crc32::new();
    for input in &inputs {
        let verdict = match ParallelEngine::restore(config(&model), input) {
            Ok(mut engine) => {
                crc.update(&engine.checkpoint());
                "Ok"
            }
            Err(e) => {
                crc.update(format!("{e:?}\n").as_bytes());
                variant(&e)
            }
        };
        *counts.entry(verdict).or_default() += 1;
    }
    let counts = counts
        .iter()
        .map(|(verdict, n)| format!("{verdict}:{n}"))
        .collect::<Vec<_>>()
        .join(" ");
    let crc = crc.finish();
    println!("{} bytes: {counts}, {crc:#010x}", bytes.len());
    assert_eq!(bytes.len(), 1_798);
    assert_eq!(
        counts,
        "BadTag:540 BadUtf8:2448 BadVersion:8 InvalidTrace:131 InvalidTrajectory:16 \
         LengthOverrun:1644 Malformed:1068 Ok:9428 Overflow:5 PredicateCountMismatch:8 \
         UnexpectedEof:887",
        "verdict counts"
    );
    assert_eq!(crc, 0xee96_a607, "CRC-32 of every result");
}

/// A predicate count no configuration has, over a payload with open
/// visits: refused before anything is allocated on it.
#[test]
fn a_crafted_predicate_count_is_refused() {
    let model = build_louvre();
    let bytes = checkpoint(&model);
    // The version byte, then the count: 3, one varint byte.
    assert_eq!(bytes[1], 3);
    let mut crafted = bytes[..1].to_vec();
    put_u64(&mut crafted, u64::MAX);
    crafted.extend_from_slice(&bytes[2..]);

    assert!(matches!(
        ParallelEngine::restore(config(&model), &crafted),
        Err(EngineError::PredicateCountMismatch {
            configured: 3,
            recorded,
        }) if recorded as u64 == u64::MAX
    ));
    assert!(matches!(
        decode_state(&crafted),
        Err(CheckpointError::Malformed(_))
    ));
}

/// A payload of the previous format, version 3, is refused like any
/// other version: there is no reader for it.
#[test]
fn a_version_3_payload_is_refused() {
    let model = build_louvre();
    let mut bytes = checkpoint(&model);
    assert_eq!(bytes[0], 4);
    bytes[0] = 3;
    assert!(matches!(
        ParallelEngine::restore(config(&model), &bytes),
        Err(EngineError::Checkpoint(CheckpointError::BadVersion(3)))
    ));
    assert!(matches!(
        decode_state(&bytes),
        Err(CheckpointError::BadVersion(3))
    ));
}

/// Re-encodes `state` after `damage` and expects both `restore` and
/// `decode_state` to refuse it as `Malformed(why)`.
fn refused(
    model: &LouvreModel,
    mut state: EngineState,
    damage: impl Fn(&mut EngineState),
    why: &str,
) {
    damage(&mut state);
    let crafted = encode_state(&state, predicates(model).len());
    match ParallelEngine::restore(config(model), &crafted) {
        Err(EngineError::Checkpoint(CheckpointError::Malformed(what))) => assert_eq!(what, why),
        Err(e) => panic!("{why}: refused as {e:?}"),
        Ok(_) => panic!("{why}: restored"),
    }
    match decode_state(&crafted) {
        Err(CheckpointError::Malformed(what)) => assert_eq!(what, why),
        other => panic!("{why}: decoded as {other:?}"),
    }
}

/// A visit's stays are a trace prefix: in start order, on one layer.
/// The layer and last start are not stored beside them, so a crafted
/// visit that breaks either invariant is refused at restore, as is an
/// open run that does not start at one of the visit's stays (the
/// index is the stay count).
#[test]
fn a_visit_its_own_stays_contradict_is_refused() {
    let model = build_louvre();
    let (state, predicate_count) = decode_state(&checkpoint(&model)).expect("decodes");
    assert_eq!(predicate_count, 3);
    let (at, _) = state
        .visits
        .iter()
        .enumerate()
        .find(|(_, (_, v))| {
            v.intervals.len() >= 2 && v.intervals[0].start() < v.intervals[1].start()
        })
        .expect("an open visit with two stays");
    let run_at = state
        .visits
        .iter()
        .position(|(_, v)| v.open_runs.iter().any(Option::is_some))
        .expect("an open visit with an open run");
    // Unharmed, the state restores.
    assert!(ParallelEngine::restore(config(&model), &encode_state(&state, 3)).is_ok());

    refused(
        &model,
        state.clone(),
        |s| s.visits[at].1.intervals.swap(0, 1),
        "stays out of start order",
    );
    refused(
        &model,
        state.clone(),
        |s| {
            let stay = s.visits[at].1.intervals.last_mut().expect("stays");
            let other = LayerIdx::from_index(stay.cell.layer.index() + 1);
            stay.cell = CellRef::new(other, stay.cell.node);
        },
        "stays on two layers",
    );
    refused(
        &model,
        state,
        |s| {
            let visit = &mut s.visits[run_at].1;
            let stays = visit.intervals.len();
            let run = visit
                .open_runs
                .iter_mut()
                .flatten()
                .next()
                .expect("open run");
            run.start = stays;
        },
        "open run out of order",
    );
}
