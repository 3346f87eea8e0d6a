//! Streaming-engine timings over the feeds of `sitm_bench::stream_feeds`,
//! one line per case: min / median / max ns per iteration over 10
//! samples, and events/s at the median for the two ingest groups.
//!
//! ```text
//! cargo run --release -p sitm-bench --bin bench_stream
//! ```
//!
//! * `parallel_ingest/{1,2,4,8}` — a fresh engine of that many workers
//!   ingests and finishes a 500-visit Louvre day, worker spawn and join
//!   included.
//! * `skewed_ingest/{1,2,4}` — the same over a Zipf-skewed feed, one
//!   dominant visit and a cold tail.
//! * `live_query/*` — cutting a live snapshot of half the day and
//!   counting a cell-and-dwell predicate over it, then finding one
//!   visitor among a whole day of open visits through the live index
//!   (`indexed_count`) and by the query oracle's scan (`scan_count`).
//! * `checkpoint/{1,8}` and `restore/{1,8}` — taking a half-ingested
//!   day's checkpoint bytes, and restoring an engine from them.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use sitm_bench::stream_feeds::{louvre_feed, skewed_feed, stream_config};
use sitm_core::Duration;
use sitm_louvre::{build_louvre, zone_key, LouvreModel};
use sitm_query::{Predicate, Query};
use sitm_stream::{EmittedEpisode, EngineConfig, LiveSnapshot, ParallelEngine, StreamEvent};

fn main() {
    let model = build_louvre();
    let day = louvre_feed(&model);
    for workers in [1, 2, 4, 8] {
        time(
            &format!("parallel_ingest/{workers}"),
            Some(day.len()),
            || ingest(stream_config(&model, workers), &day).len(),
        );
    }
    let skewed = skewed_feed(400, 20_000, 1.2);
    for workers in [1, 2, 4] {
        time(
            &format!("skewed_ingest/{workers}"),
            Some(skewed.len()),
            || ingest(stream_config(&model, workers), &skewed).len(),
        );
    }

    let half_day = &day[..day.len() / 2];
    let mut engine = ParallelEngine::new(stream_config(&model, 4)).expect("engine");
    engine.ingest_all(half_day.iter().cloned());
    time("live_query/snapshot", None, || {
        engine.live_snapshot().visits.len()
    });
    let snapshot = engine.live_snapshot();
    let hall = model
        .space
        .resolve(&zone_key(60886))
        .expect("zone resolves");
    let predicate =
        Predicate::VisitedCell(hall).and(Predicate::MinTotalDwell(Duration::minutes(2)));
    time("live_query/predicate_over_live", None, || {
        snapshot.count_matching(black_box(&predicate))
    });
    let (open, selective) = open_day(&model, &day);
    time("live_query/indexed_count", None, || {
        open.count_matching(black_box(&selective))
    });
    let scan = Query::new().filter(selective);
    time("live_query/scan_count", None, || {
        black_box(&scan).oracle(&[&*open], false).len()
    });

    for workers in [1, 8] {
        let mut engine = loaded(&model, half_day, workers);
        time(&format!("checkpoint/{workers}"), None, || {
            engine.checkpoint()
        });
        let checkpoint = engine.checkpoint();
        time(&format!("restore/{workers}"), None, || {
            restore(&model, workers, &checkpoint).stats().open_visits
        });
    }
}

/// Times `body`: doubles the number of calls per sample until a sample
/// takes at least 40 ms, takes 10 such samples, and prints min / median /
/// max ns per call, plus events/s at the median when a call ingests
/// `events`.
fn time<R>(name: &str, events: Option<usize>, mut body: impl FnMut() -> R) {
    let mut sample = |calls: u32| {
        let start = Instant::now();
        for _ in 0..calls {
            black_box(body());
        }
        start.elapsed().as_nanos() as f64
    };
    let mut calls = 1;
    while sample(calls) < 40e6 {
        calls *= 2;
    }
    let mut ns: Vec<f64> = (0..10).map(|_| sample(calls) / f64::from(calls)).collect();
    ns.sort_by(f64::total_cmp);
    let median = (ns[4] + ns[5]) / 2.0;
    let rate = events.map_or(String::new(), |n| {
        format!("  {:>5.2} M events/s", n as f64 * 1e3 / median)
    });
    println!(
        "{name:<31} {:>11.0} {:>11.0} {:>11.0} ns/iter{rate}",
        ns[0], median, ns[9]
    );
}

/// A fresh engine of `config` ingests `events` and finishes.
fn ingest(config: EngineConfig, events: &[StreamEvent]) -> Vec<EmittedEpisode> {
    let mut engine = ParallelEngine::new(config).expect("engine");
    engine.ingest_all(black_box(events.iter().cloned()));
    engine.finish()
}

/// The snapshot of `events` with their closes stripped, so every visit
/// stays open, and a `MovingObject` predicate for the visitor in the
/// middle of it.
fn open_day(model: &LouvreModel, events: &[StreamEvent]) -> (Arc<LiveSnapshot>, Predicate) {
    let mut engine = ParallelEngine::new(stream_config(model, 4)).expect("engine");
    engine.ingest_all(
        events
            .iter()
            .filter(|e| !matches!(e, StreamEvent::VisitClosed { .. }))
            .cloned(),
    );
    let snapshot = engine.live_snapshot();
    let target = snapshot.visits[snapshot.visits.len() / 2]
        .trajectory
        .moving_object
        .clone();
    (snapshot, Predicate::MovingObject(target))
}

/// An engine of `workers` workers that has ingested and flushed `events`.
fn loaded(model: &LouvreModel, events: &[StreamEvent], workers: usize) -> ParallelEngine {
    let mut engine = ParallelEngine::new(stream_config(model, workers)).expect("engine");
    engine.ingest_all(events.iter().cloned());
    engine.flush();
    engine
}

/// An engine of `workers` workers restored from `checkpoint`.
fn restore(model: &LouvreModel, workers: usize, checkpoint: &[u8]) -> ParallelEngine {
    ParallelEngine::restore(stream_config(model, workers), checkpoint).expect("restore")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first 600 events of the Louvre day.
    fn toy_day() -> (LouvreModel, Vec<StreamEvent>) {
        let model = build_louvre();
        let mut day = louvre_feed(&model);
        day.truncate(600);
        (model, day)
    }

    #[test]
    fn one_and_four_workers_finish_alike() {
        let (model, day) = toy_day();
        for events in [day, skewed_feed(40, 2_000, 1.2)] {
            let one = ingest(stream_config(&model, 1), &events);
            assert!(!one.is_empty());
            assert_eq!(one, ingest(stream_config(&model, 4), &events));
        }
    }

    #[test]
    fn indexed_count_equals_the_scan() {
        let (model, day) = toy_day();
        let (open, selective) = open_day(&model, &day);
        let indexed = open.count_matching(&selective);
        assert!(indexed > 0);
        let scanned = Query::new().filter(selective).oracle(&[&*open], false);
        assert_eq!(indexed, scanned.len());
    }

    #[test]
    fn restore_reopens_the_checkpointed_visits() {
        let (model, day) = toy_day();
        for workers in [1, 8] {
            let mut engine = loaded(&model, &day, workers);
            let checkpoint = engine.checkpoint();
            let open_visits = engine.stats().open_visits;
            assert!(open_visits > 0);
            assert_eq!(
                restore(&model, workers, &checkpoint).stats().open_visits,
                open_visits
            );
        }
    }
}
