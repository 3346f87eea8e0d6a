//! Streaming ingestion walkthrough: replay a calibrated Louvre day as a
//! live event feed, push it through the work-stealing online engine, and watch
//! per-wing occupancy plus batch-identical episodes fall out the other
//! side — with a crash and checkpoint-recovery in the middle. The
//! 8-worker checkpoint is recovered into a 2-worker engine (a
//! checkpoint does not depend on the worker count), and the example
//! asserts the recovered day delivers exactly the episodes of an
//! uninterrupted run.
//!
//! Run with: `cargo run --example streaming_ingest`

use std::collections::BTreeMap;

use sitm::analytics::bar_chart;
use sitm::core::{Annotation, AnnotationSet, Duration, IntervalPredicate};
use sitm::louvre::{
    build_louvre, generate_dataset, zone_catalog, zone_key, GeneratorConfig, LouvreModel,
    PaperCalibration, Wing,
};
use sitm::space::CellRef;
use sitm::store::{CheckpointFrame, LogStore};
use sitm::stream::{
    dataset_events, resume_from_log, EngineConfig, OccupancyTracker, ParallelEngine,
};

fn label(s: &str) -> AnnotationSet {
    AnnotationSet::from_iter([Annotation::goal(s)])
}

/// The episode detectors a museum operator might deploy.
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
    ]
}

fn main() {
    // ---- 1. A scaled Louvre day, replayed as one time-ordered feed. ------
    let model = build_louvre();
    let defaults = PaperCalibration::default();
    let calibration = PaperCalibration {
        visits: 300,
        visitors: 240,
        returning_visitors: 60,
        revisits: 60,
        detections: 1_500,
        transitions: 1_200,
        // One single museum day, so hundreds of visits genuinely overlap
        // and the live occupancy dashboard has something to show.
        collection_end: defaults.collection_start,
        ..defaults
    };
    let dataset = generate_dataset(&GeneratorConfig {
        seed: 20_170_119,
        calibration,
        ..GeneratorConfig::default()
    });
    let events = dataset_events(&model, &dataset);
    println!(
        "replaying {} events across {} visits\n",
        events.len(),
        dataset.visits.len()
    );

    // ---- 2. Online engine + live occupancy. -------------------------------
    let config = |workers| EngineConfig::new(predicates(&model)).with_shards(workers);
    let mut engine = ParallelEngine::new(config(8)).expect("engine");
    let mut occupancy = OccupancyTracker::new();

    // Map each zone cell to its wing for the live dashboard.
    let wing_of: BTreeMap<CellRef, Wing> = zone_catalog()
        .iter()
        .filter_map(|z| Some((model.space.resolve(&zone_key(z.id))?, z.wing)))
        .collect();

    // Ingest the first half of the day, checkpoint, then "crash".
    let ckpt_path =
        std::env::temp_dir().join(format!("sitm-streaming-ingest-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&ckpt_path);
    let half = events.len() / 2;
    for event in &events[..half] {
        occupancy.observe(event);
        engine.ingest(event.clone());
    }
    let mut delivered = engine.drain();
    let (mut log, _, _) = LogStore::<CheckpointFrame>::open(&ckpt_path).expect("open log");
    engine.checkpoint(&mut log).expect("checkpoint");
    drop(log);
    drop(engine); // the crash: everything after the checkpoint is lost

    println!(
        "midday snapshot ({} events in, {} episodes already delivered):",
        half,
        delivered.len()
    );
    let mut per_wing: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (cell, count) in occupancy.current() {
        if let Some(wing) = wing_of.get(cell) {
            *per_wing.entry(wing.name()).or_insert(0.0) += *count as f64;
        }
    }
    let entries: Vec<(String, f64)> = per_wing
        .into_iter()
        .map(|(w, n)| (w.to_string(), n))
        .collect();
    println!("{}", bar_chart(&entries, 40));

    // ---- 3. Recover on fewer workers and finish the day. -----------------
    let (mut engine, _log, report) =
        resume_from_log(config(2), &ckpt_path).expect("recover engine");
    assert!(report.is_clean(), "the checkpoint log recovers cleanly");
    println!(
        "recovered the 8-worker checkpoint into {} workers (clean: {}, open visits: {})\n",
        engine.workers(),
        report.is_clean(),
        engine.stats().open_visits
    );
    for event in &events[half..] {
        occupancy.observe(event);
        engine.ingest(event.clone());
    }
    delivered.extend(engine.finish());
    delivered.sort_by_key(|e| e.sort_key());

    let mut uninterrupted = ParallelEngine::new(config(8)).expect("engine");
    uninterrupted.ingest_all(events.iter().cloned());
    assert_eq!(
        delivered,
        uninterrupted.finish(),
        "the recovered day delivers exactly the uninterrupted run's episodes"
    );

    // ---- 4. The streamed episodes ARE the batch episodes. ----------------
    let stats = engine.stats();
    println!(
        "day complete: {} visits closed, {} episodes emitted, {} anomalies",
        stats.visits_closed,
        delivered.len(),
        stats.anomalies.total()
    );
    let exits = delivered
        .iter()
        .filter(|e| {
            e.episode
                .annotations
                .has(&sitm::core::AnnotationKind::Goal, "exit museum")
        })
        .count();
    let lingering = delivered.len() - exits;
    println!("  'exit museum' episodes: {exits}");
    println!("  'lingering' episodes:   {lingering}");
    println!(
        "  peak single-cell occupancy: {} visitors",
        occupancy.peak().values().max().copied().unwrap_or(0)
    );
    println!("  recovered day == uninterrupted run: yes");
    let _ = std::fs::remove_file(&ckpt_path);
}
