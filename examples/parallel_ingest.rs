//! Parallel ingestion walkthrough: the work-stealing engine serving a
//! Louvre day, with live queries answered *while* the stream is in
//! flight, a crash recovered through a compacting checkpoint log, and a
//! final proof that the streamed episodes equal batch
//! `maximal_episodes` over every completed visit.
//!
//! Run with: `cargo run --example parallel_ingest`

use sitm::core::{
    maximal_episodes, Annotation, AnnotationSet, Duration, Episode, IntervalPredicate,
};
use sitm::louvre::{
    build_louvre, generate_dataset, zone_key, GeneratorConfig, LouvreModel, PaperCalibration,
};
use sitm::query::{federated_count, Predicate, TrajectorySource};
use sitm::store::CompactionPolicy;
use sitm::stream::{dataset_events, resume_compacting, visit_trajectories, EngineConfig};

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
    ]
}

fn main() {
    // ---- 1. One dense museum day. ----------------------------------------
    let model = build_louvre();
    let defaults = PaperCalibration::default();
    let calibration = PaperCalibration {
        visits: 300,
        visitors: 240,
        returning_visitors: 60,
        revisits: 60,
        detections: 1_500,
        transitions: 1_200,
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
        "replaying {} events across {} visits on 4 worker threads\n",
        events.len(),
        dataset.visits.len()
    );

    // ---- 2. Work-stealing engine with live queries + bounded log. --------
    let config = || {
        EngineConfig::new(predicates(&model))
            .with_shards(4)
            .with_live_queries()
    };
    let ckpt_path =
        std::env::temp_dir().join(format!("sitm-parallel-ingest-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&ckpt_path);
    // keep: 2, every: 1 — the log never exceeds two snapshots.
    let policy = CompactionPolicy::default();
    let (mut engine, mut checkpointer, _) =
        resume_compacting(config(), &ckpt_path, policy).expect("fresh engine");

    // Ingest in quarters; after each, answer live questions mid-stream
    // and commit a compacting checkpoint.
    let hall = model.space.resolve(&zone_key(60886)).expect("hall");
    let in_hall = Predicate::VisitedCell(hall);
    let long_dwell = Predicate::MinTotalDwell(Duration::minutes(30));
    let mut delivered = Vec::new();
    let quarter = events.len() / 4;
    for q in 0..3 {
        engine.ingest_all(events[q * quarter..(q + 1) * quarter].iter().cloned());
        let snapshot = engine.live_snapshot();
        println!(
            "after {:>4} events: {:>3} visits live | {:>3} touched the hall | {:>2} dwelling 30m+ | log {:>5}B",
            (q + 1) * quarter,
            snapshot.visits.len(),
            snapshot.count_matching(&in_hall),
            federated_count(&long_dwell, &[&*snapshot as &dyn TrajectorySource]),
            checkpointer.log().size_bytes(),
        );
        delivered.extend(engine.drain());
        engine.checkpoint_into(&mut checkpointer).expect("commit");
    }

    // ---- 3. Crash after the third quarter; recover; finish the day. ------
    drop(engine);
    drop(checkpointer);
    let (mut engine, mut checkpointer, report) =
        resume_compacting(config(), &ckpt_path, policy).expect("recover");
    println!(
        "\ncrash + recovery: clean={}, {} visits back in flight, log bounded at {}B",
        report.is_clean(),
        engine.stats().open_visits,
        checkpointer.log().size_bytes(),
    );
    engine.ingest_all(events[3 * quarter..].iter().cloned());
    delivered.extend(engine.finish());
    engine
        .checkpoint_into(&mut checkpointer)
        .expect("final commit");

    // ---- 4. Differential proof: streamed == batch. -----------------------
    let mut expected = Vec::new();
    for (visit, trajectory) in visit_trajectories(&model, &dataset) {
        for (p, (predicate, annotations)) in predicates(&model).into_iter().enumerate() {
            let episodes =
                maximal_episodes(&trajectory, &predicate, annotations).expect("labels differ");
            expected.extend(episodes.into_iter().map(|e| (visit, p, e)));
        }
    }
    let mut streamed: Vec<_> = delivered
        .into_iter()
        .map(|e| (e.visit, e.predicate, e.episode))
        .collect();
    let key = |(visit, p, e): &(_, usize, Episode)| (*visit, *p, e.range.start);
    expected.sort_by_key(key);
    streamed.sort_by_key(key);
    assert_eq!(streamed, expected, "streamed episodes must equal batch");
    println!(
        "\nday complete: {} episodes, identical to batch maximal_episodes",
        streamed.len()
    );
    let _ = std::fs::remove_file(&ckpt_path);
    let _ = std::fs::remove_file(ckpt_path.with_extension("tmp"));
}
