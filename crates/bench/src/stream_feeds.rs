//! Workload builders for the streaming-engine timings of the
//! `bench_stream` binary: a calibrated Louvre day as one feed, a
//! Zipf-skewed feed, and the engine configuration both run under.

use sitm_core::{
    Annotation, AnnotationSet, Duration, IntervalPredicate, PresenceInterval, Timestamp,
    TransitionTaken,
};
use sitm_graph::{LayerIdx, NodeId};
use sitm_louvre::{generate_dataset, zone_key, GeneratorConfig, LouvreModel, PaperCalibration};
use sitm_space::CellRef;
use sitm_stream::{trajectory_feed, EngineConfig, StreamEvent, VisitKey};

/// One-goal annotation set.
pub fn label(s: &str) -> AnnotationSet {
    AnnotationSet::from_iter([Annotation::goal(s)])
}

/// A mid-size Louvre day: ~500 visits, ~2500 detections (the scale the
/// live-query acceptance targets are stated at).
pub fn louvre_feed(model: &LouvreModel) -> Vec<StreamEvent> {
    let cal = PaperCalibration {
        visits: 500,
        visitors: 400,
        returning_visitors: 100,
        revisits: 100,
        detections: 2_500,
        transitions: 2_000,
        ..PaperCalibration::default()
    };
    let dataset = generate_dataset(&GeneratorConfig {
        seed: 20_170_119,
        calibration: cal,
        ..GeneratorConfig::default()
    });
    trajectory_feed(&dataset.visit_trajectories(model))
}

/// The benchmark predicate table (exit chain, long stay, whole visit).
pub fn stream_config(model: &LouvreModel, shards: usize) -> EngineConfig {
    let exit_chain = [60887u32, 60888, 60890]
        .map(|id| model.space.resolve(&zone_key(id)).expect("zone resolves"));
    EngineConfig::new(vec![
        (
            IntervalPredicate::in_cells(exit_chain),
            label("exit museum"),
        ),
        (
            IntervalPredicate::min_duration(Duration::minutes(5)),
            label("long stay"),
        ),
        (IntervalPredicate::any(), label("whole visit")),
    ])
    .with_shards(shards)
}

/// A Zipf-skewed synthetic feed: visit v's event budget is proportional
/// to `1 / (v + 1)^s`, so visit 0 dominates (a tour-group device) while
/// hundreds of cold visits trickle. Cells are skewed too.
/// Deterministic — no RNG needed.
pub fn skewed_feed(visits: usize, total_events: usize, s: f64) -> Vec<StreamEvent> {
    let cell = |n: usize| CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n));
    let weights: Vec<f64> = (0..visits)
        .map(|v| 1.0 / ((v + 1) as f64).powf(s))
        .collect();
    let norm: f64 = weights.iter().sum();
    let mut events = Vec::with_capacity(total_events + 2 * visits);
    for (v, w) in weights.iter().enumerate() {
        let budget = ((w / norm) * total_events as f64).ceil() as usize;
        let base = v as i64;
        events.push(StreamEvent::VisitOpened {
            visit: VisitKey(v as u64),
            moving_object: format!("mo-{v}"),
            annotations: label("visit"),
            at: Timestamp(base),
        });
        for i in 0..budget.max(1) {
            // Zipf-ish cell choice: low cells dominate.
            let c = (i * (v + 7)) % 11;
            let c = if c < 6 {
                0
            } else if c < 9 {
                1
            } else {
                c
            };
            events.push(StreamEvent::Presence {
                visit: VisitKey(v as u64),
                interval: PresenceInterval::new(
                    TransitionTaken::Unknown,
                    cell(c),
                    Timestamp(base + i as i64 * 10),
                    Timestamp(base + i as i64 * 10 + 10),
                ),
            });
        }
        events.push(StreamEvent::VisitClosed {
            visit: VisitKey(v as u64),
            at: Timestamp(base + budget.max(1) as i64 * 10 + 10),
        });
    }
    sitm_stream::event::sort_feed(&mut events);
    events
}
