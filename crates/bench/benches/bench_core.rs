//! Trajectory-model benchmarks: ablation A4 (overlapping vs exclusive
//! segmentation), A5 (event-based splitting), and the F6 inference.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sitm_core::{
    apply_annotation_events, maximal_episodes, Annotation, AnnotationEvent, AnnotationSet,
    EpisodicSegmentation, IntervalPredicate, PresenceInterval, SemanticTrajectory, Timestamp,
    Trace, TransitionTaken,
};
use sitm_louvre::{build_louvre, scenarios, zone_catalog};
use sitm_space::infer_missing_cells;

/// A long synthetic zone trace across the active zones.
fn long_trace(model: &sitm_louvre::LouvreModel, tuples: usize) -> Trace {
    let active: Vec<u32> = zone_catalog()
        .iter()
        .filter(|z| z.active)
        .map(|z| z.id)
        .collect();
    let intervals: Vec<PresenceInterval> = (0..tuples)
        .map(|i| {
            let zone = active[i % active.len()];
            PresenceInterval::new(
                TransitionTaken::Unknown,
                model.zone(zone).expect("active zone"),
                Timestamp(i as i64 * 120),
                Timestamp(i as i64 * 120 + 100),
            )
        })
        .collect();
    Trace::new(intervals).expect("chronological")
}

fn trajectory(model: &sitm_louvre::LouvreModel, tuples: usize) -> SemanticTrajectory {
    SemanticTrajectory::new(
        "bench",
        long_trace(model, tuples),
        AnnotationSet::from_iter([Annotation::goal("visit")]),
    )
    .expect("valid")
}

/// A4: overlapping segmentation (two predicates over overlapping cell sets)
/// vs mutually exclusive segmentation (disjoint cell sets).
fn bench_segmentation(c: &mut Criterion) {
    let model = build_louvre();
    let traj = trajectory(&model, 500);
    let active: Vec<_> = zone_catalog()
        .iter()
        .filter(|z| z.active)
        .map(|z| model.zone(z.id).expect("zone"))
        .collect();
    let half = active.len() / 2;

    c.bench_function("core/a4_overlapping_segmentation", |b| {
        b.iter(|| {
            EpisodicSegmentation::from_predicates(
                black_box(&traj),
                &[
                    (
                        IntervalPredicate::in_cells(active.iter().copied()),
                        AnnotationSet::from_iter([Annotation::goal("everything")]),
                    ),
                    (
                        IntervalPredicate::in_cells(active[..half + 4].iter().copied()),
                        AnnotationSet::from_iter([Annotation::goal("first-part")]),
                    ),
                ],
            )
        });
    });
    c.bench_function("core/a4_exclusive_segmentation", |b| {
        b.iter(|| {
            EpisodicSegmentation::from_predicates(
                black_box(&traj),
                &[
                    (
                        IntervalPredicate::in_cells(active[..half].iter().copied()),
                        AnnotationSet::from_iter([Annotation::goal("first-half")]),
                    ),
                    (
                        IntervalPredicate::in_cells(active[half..].iter().copied()),
                        AnnotationSet::from_iter([Annotation::goal("second-half")]),
                    ),
                ],
            )
        });
    });
}

/// A5: event-based splitting throughput.
fn bench_enrichment(c: &mut Criterion) {
    let model = build_louvre();
    let trace = long_trace(&model, 500);
    let events: Vec<AnnotationEvent> = (0..50)
        .map(|i| {
            AnnotationEvent::new(
                Timestamp(i * 1200 + 30),
                AnnotationSet::from_iter([Annotation::goal(format!("goal-{i}"))]),
            )
        })
        .collect();
    c.bench_function("core/a5_apply_50_events_to_500_tuples", |b| {
        b.iter(|| apply_annotation_events(black_box(&trace), black_box(&events)));
    });
}

/// F6: inference over sparse traces.
fn bench_inference(c: &mut Criterion) {
    let model = build_louvre();
    // Sparse trace: every third active zone, so gaps need inference.
    let active: Vec<u32> = zone_catalog()
        .iter()
        .filter(|z| z.active && z.floor == 0)
        .map(|z| z.id)
        .collect();
    let intervals: Vec<PresenceInterval> = active
        .iter()
        .step_by(3)
        .enumerate()
        .map(|(i, &zone)| {
            PresenceInterval::new(
                TransitionTaken::Unknown,
                model.zone(zone).expect("zone"),
                Timestamp(i as i64 * 600),
                Timestamp(i as i64 * 600 + 300),
            )
        })
        .collect();
    let sparse = Trace::new(intervals).expect("chronological");
    c.bench_function("core/f6_infer_missing_cells", |b| {
        b.iter(|| {
            infer_missing_cells(black_box(&model.space), black_box(&sparse), |_| {
                AnnotationSet::new()
            })
        });
    });
    c.bench_function("core/f6_scenario_inference", |b| {
        b.iter(|| scenarios::fig6_inference(black_box(&model)));
    });
}

fn bench_episode_extraction(c: &mut Criterion) {
    let model = build_louvre();
    let traj = trajectory(&model, 1_000);
    let shops = model.zone(60890).expect("S");
    let pred = IntervalPredicate::in_cells([shops]);
    c.bench_function("core/maximal_episodes_1000_tuples", |b| {
        b.iter(|| {
            maximal_episodes(
                black_box(&traj),
                &pred,
                AnnotationSet::from_iter([Annotation::goal("shopping")]),
            )
        });
    });
}

criterion_group!(
    benches,
    bench_segmentation,
    bench_enrichment,
    bench_inference,
    bench_episode_extraction
);
criterion_main!(benches);
