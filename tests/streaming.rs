//! Facade-level streaming smoke test: the `sitm::stream` re-export wires
//! replay → work-stealing engine → batch-identical episodes end to end.

use sitm::core::{maximal_episodes, Annotation, AnnotationSet, IntervalPredicate};
use sitm::louvre::{build_louvre, generate_dataset, zone_key, GeneratorConfig, PaperCalibration};
use sitm::stream::{trajectory_feed, EngineConfig, ParallelEngine, VisitKey};

#[test]
fn facade_streaming_pipeline_matches_batch() {
    let model = build_louvre();
    let calibration = PaperCalibration {
        visits: 60,
        visitors: 50,
        returning_visitors: 10,
        revisits: 10,
        detections: 300,
        transitions: 240,
        ..PaperCalibration::default()
    };
    let dataset = generate_dataset(&GeneratorConfig {
        seed: 3,
        calibration,
        ..GeneratorConfig::default()
    });

    let exit_chain = [60887u32, 60888, 60890]
        .map(|id| model.space.resolve(&zone_key(id)).expect("zone resolves"));
    let label = AnnotationSet::from_iter([Annotation::goal("exit museum")]);
    let make_config = || {
        EngineConfig::new(vec![(
            IntervalPredicate::in_cells(exit_chain),
            label.clone(),
        )])
        .with_shards(4)
    };

    let mut engine = ParallelEngine::new(make_config()).expect("engine");
    engine.ingest_all(trajectory_feed(&dataset.visit_trajectories(&model)));
    let emitted = engine.finish();
    assert!(!emitted.is_empty(), "the exit chain is well travelled");
    assert_eq!(engine.stats().anomalies.total(), 0);

    // Every streamed episode equals its batch twin.
    let trajectories = dataset.visit_trajectories(&model);
    let mut streamed_total = 0;
    for (key, trajectory) in &trajectories {
        let batch = maximal_episodes(
            trajectory,
            &IntervalPredicate::in_cells(exit_chain),
            label.clone(),
        )
        .expect("label differs from A_traj");
        let mut streamed: Vec<_> = emitted
            .iter()
            .filter(|e| e.visit == VisitKey(*key))
            .map(|e| e.episode.clone())
            .collect();
        streamed.sort_by_key(|e| e.range.start);
        assert_eq!(streamed, batch, "visit {key}");
        streamed_total += streamed.len();
    }
    assert_eq!(streamed_total, emitted.len(), "no orphan emissions");
}
