//! Streaming-ingestion benchmarks: event throughput by worker count,
//! skewed-ingest behaviour under Zipf visit/cell distributions,
//! live-query latency (indexed vs scan), and checkpoint/restore latency.
//!
//! **Parallel speedup caveat:** wins over one worker only materialize
//! with ≥ 2 physical cores. On a single-core host (`nproc == 1` — the
//! CI container this repo grew up in) the workers time-slice one CPU,
//! so `parallel/*` and `skewed_ingest/parallel_*` land at ~0.6–1.0×
//! `parallel/1` (scheduler overhead, no concurrency to win); that is
//! hardware-bound, not a runtime defect. What the skewed
//! group demonstrates *regardless of cores* is the routing change: the
//! old static hash router pinned every visit of a hot shard to one
//! worker, so `skewed/parallel_4` used to collapse to one busy worker
//! (≈ `parallel_1`); the work-stealing router lets idle workers take
//! whole cold visits, so on a multi-core box `skewed/parallel_4`
//! tracks the uniform `parallel_4` instead. The differential tests
//! prove the output identical either way; run this bench on a
//! multi-core box to see the scaling. The `live_query` group compares
//! `count_matching` (live-index candidates + re-check) against the
//! query crate's test oracle (predicate over every open prefix); the
//! indexed path is the ≥ 5× win the live index exists for, and is
//! core-count independent.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use sitm_bench::stream_feeds::{louvre_feed as feed, skewed_feed, stream_config as config};
use sitm_core::Duration;
use sitm_louvre::{build_louvre, zone_key};
use sitm_query::{Predicate, Query};
use sitm_store::{CheckpointFrame, LogStore};
use sitm_stream::{resume_from_log, ParallelEngine, StreamEvent};

/// Ingest of the same 500-visit workload by worker count. The engine
/// is constructed inside the timed body on purpose: worker spawn + join
/// is part of what a deployment pays per engine, and excluding it would
/// flatter small feeds.
fn bench_parallel_ingest(c: &mut Criterion) {
    let model = build_louvre();
    let events = feed(&model);
    let mut group = c.benchmark_group("stream/parallel_ingest");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events.len() as u64));
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("parallel", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let mut engine = ParallelEngine::new(config(&model, workers)).expect("engine");
                    engine.ingest_all(black_box(events.iter().cloned()));
                    engine.finish().len()
                });
            },
        );
    }
    group.finish();
}

/// Skewed ingest: one dominant visit plus a cold tail. The old static
/// hash router degraded `parallel/*` here to single-worker throughput;
/// work-stealing keeps the cold tail flowing through idle workers (see
/// the module header for single-core caveats).
fn bench_skewed_ingest(c: &mut Criterion) {
    let model = build_louvre();
    let events = skewed_feed(400, 20_000, 1.2);
    let mut group = c.benchmark_group("stream/skewed_ingest");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events.len() as u64));
    for workers in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("parallel", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let mut engine = ParallelEngine::new(config(&model, workers)).expect("engine");
                    engine.ingest_all(black_box(events.iter().cloned()));
                    engine.finish().len()
                });
            },
        );
    }
    group.finish();
}

/// Live-query federation over a half-ingested day: snapshot cost and
/// predicate evaluation over the union of live shard state.
fn bench_live_query(c: &mut Criterion) {
    let model = build_louvre();
    let events = feed(&model);
    let hall = model
        .space
        .resolve(&zone_key(60886))
        .expect("zone resolves");
    let mut engine = ParallelEngine::new(config(&model, 4).with_live_queries()).expect("engine");
    engine.ingest_all(events[..events.len() / 2].iter().cloned());

    let mut group = c.benchmark_group("stream/live_query");
    group.sample_size(10);
    group.bench_function("snapshot", |b| {
        b.iter(|| black_box(engine.live_snapshot()).visits.len());
    });
    let snapshot = engine.live_snapshot();
    let predicate =
        Predicate::VisitedCell(hall).and(Predicate::MinTotalDwell(Duration::minutes(2)));
    group.bench_function("predicate_over_live", |b| {
        b.iter(|| snapshot.count_matching(black_box(&predicate)));
    });

    // Indexed vs scan at full 500-visit scale: strip the closes so the
    // whole day stays open, then ask the flagship selective live query
    // ("where is this visitor right now"). The index answers from the
    // moving-object postings; the scan evaluates the predicate over
    // every open prefix. The acceptance target is indexed ≥ 5× faster.
    let no_closes: Vec<StreamEvent> = events
        .iter()
        .filter(|e| !matches!(e, StreamEvent::VisitClosed { .. }))
        .cloned()
        .collect();
    let mut open_engine =
        ParallelEngine::new(config(&model, 4).with_live_queries()).expect("engine");
    open_engine.ingest_all(no_closes);
    let open_snapshot = open_engine.live_snapshot();
    let target = open_snapshot.visits[open_snapshot.visits.len() / 2]
        .trajectory
        .moving_object
        .clone();
    let selective = Predicate::MovingObject(target);
    group.bench_function("indexed_count", |b| {
        b.iter(|| open_snapshot.count_matching(black_box(&selective)));
    });
    let scan = Query::new().filter(selective.clone());
    group.bench_function("scan_count", |b| {
        b.iter(|| black_box(&scan).oracle(&[&*open_snapshot], false).len());
    });
    group.finish();
}

fn bench_checkpoint_restore(c: &mut Criterion) {
    let model = build_louvre();
    let events = feed(&model);
    let mut group = c.benchmark_group("stream/checkpoint");
    group.sample_size(10);

    // Engine loaded with the first half of the day: open visits, open
    // runs, pending episodes — a representative snapshot.
    let load = |shards: usize| {
        let mut engine = ParallelEngine::new(config(&model, shards)).expect("engine");
        engine.ingest_all(events[..events.len() / 2].iter().cloned());
        engine.flush();
        engine
    };

    let path = std::env::temp_dir().join(format!("sitm-bench-ckpt-{}.log", std::process::id()));
    for shards in [1usize, 8] {
        let mut engine = load(shards);
        group.bench_with_input(BenchmarkId::new("checkpoint", shards), &shards, |b, _| {
            b.iter(|| {
                let _ = std::fs::remove_file(&path);
                let (mut log, _, _) = LogStore::<CheckpointFrame>::open(&path).expect("log");
                engine.checkpoint(&mut log).expect("checkpoint")
            });
        });
        // One final checkpoint to restore from.
        let _ = std::fs::remove_file(&path);
        let (mut log, _, _) = LogStore::<CheckpointFrame>::open(&path).expect("log");
        engine.checkpoint(&mut log).expect("checkpoint");
        drop(log);
        group.bench_with_input(
            BenchmarkId::new("restore", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let (mut engine, _log, _report) =
                        resume_from_log(config(&model, shards), &path).expect("restore");
                    black_box(engine.stats().open_visits)
                });
            },
        );
    }
    let _ = std::fs::remove_file(&path);
    group.finish();
}

criterion_group!(
    benches,
    bench_parallel_ingest,
    bench_skewed_ingest,
    bench_live_query,
    bench_checkpoint_restore
);
criterion_main!(benches);
