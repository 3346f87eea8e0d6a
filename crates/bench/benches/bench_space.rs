//! Indoor space model benchmarks: building the Louvre, validating its
//! hierarchy, ablation A2 (static hierarchy lifting), A3 (coverage).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sitm_core::{PresenceInterval, Timestamp, Trace, TransitionTaken};
use sitm_louvre::{build_louvre, building::room_key};
use sitm_space::{coverage_of, lift_trace, validate_hierarchy, SpaceQuery};

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("space");
    group.sample_size(20);
    group.bench_function("build_louvre", |b| {
        b.iter(build_louvre);
    });
    group.finish();
}

fn bench_validation(c: &mut Criterion) {
    let model = build_louvre();
    c.bench_function("space/validate_hierarchy", |b| {
        b.iter(|| validate_hierarchy(black_box(&model.space), &model.hierarchy));
    });
    c.bench_function("space/audit_geometry", |b| {
        b.iter(|| model.space.audit_joints_against_geometry());
    });
}

/// A2: lifting a long room-level trace through the static hierarchy.
fn bench_lifting(c: &mut Criterion) {
    let model = build_louvre();
    // A 200-tuple room trace bouncing between two zones.
    let rooms: Vec<_> = (0..200)
        .map(|i| {
            let zone = if i % 2 == 0 { 60861 } else { 60862 };
            model
                .space
                .resolve(&room_key(zone, i % 3))
                .expect("room exists")
        })
        .collect();
    let intervals: Vec<PresenceInterval> = rooms
        .iter()
        .enumerate()
        .map(|(i, &cell)| {
            PresenceInterval::new(
                TransitionTaken::Unknown,
                cell,
                Timestamp(i as i64 * 60),
                Timestamp(i as i64 * 60 + 60),
            )
        })
        .collect();
    let trace = Trace::new(intervals).expect("chronological");
    c.bench_function("space/a2_lift_200_tuples_to_floor", |b| {
        b.iter(|| {
            lift_trace(
                black_box(&model.space),
                &model.hierarchy,
                black_box(&trace),
                model.floor_layer,
            )
        });
    });
    c.bench_function("space/a2_lift_200_tuples_to_museum", |b| {
        b.iter(|| {
            lift_trace(
                black_box(&model.space),
                &model.hierarchy,
                black_box(&trace),
                model.complex_layer,
            )
        });
    });
}

/// A3: explicit coverage measurement vs assuming full coverage.
fn bench_coverage(c: &mut Criterion) {
    let model = build_louvre();
    let rooms: Vec<_> = model
        .space
        .cells_in(model.room_layer)
        .map(|(r, _)| r)
        .collect();
    c.bench_function("space/a3_coverage_all_rooms", |b| {
        b.iter(|| {
            rooms
                .iter()
                .map(|&room| coverage_of(&model.space, &model.hierarchy, room))
                .filter(|r| r.is_full_coverage())
                .count()
        });
    });
}

fn bench_routing(c: &mut Criterion) {
    let model = build_louvre();
    let from = model.zone(60886).expect("entrance");
    let to = model.zone(60872).expect("upper floor zone");
    c.bench_function("space/route_zone_layer", |b| {
        b.iter(|| model.space.route(black_box(from), black_box(to)));
    });
    let e = model.zone(60887).expect("E");
    let s = model.zone(60890).expect("S");
    c.bench_function("space/unavoidable_fig6", |b| {
        b.iter(|| model.space.unavoidable_between(black_box(e), black_box(s)));
    });
}

criterion_group!(
    benches,
    bench_build,
    bench_validation,
    bench_lifting,
    bench_coverage,
    bench_routing
);
criterion_main!(benches);
