//! Cross-crate integration: the full chain from synthetic dataset through
//! the SITM to mining, mirroring how a downstream user composes the crates.

use sitm::analytics::{quality_of_trace, TransitionMatrix};
use sitm::core::{AnnotationSet, Duration};
use sitm::louvre::{
    build_louvre, generate_dataset, zone_catalog, GeneratorConfig, PaperCalibration,
};
use sitm::mining::{cell_sequences, mine_sequential_patterns, to_alphabet, MarkovModel};
use sitm::space::{infer_missing_cells, SpaceQuery};

fn scaled_config() -> GeneratorConfig {
    GeneratorConfig {
        seed: 41,
        calibration: PaperCalibration {
            visits: 310,
            visitors: 200,
            returning_visitors: 80,
            revisits: 110,
            detections: 1_300,
            transitions: 1_300 - 310,
            ..PaperCalibration::default()
        },
        ..GeneratorConfig::default()
    }
}

#[test]
fn dataset_to_trajectories_to_mining() {
    let model = build_louvre();
    let dataset = generate_dataset(&scaled_config());

    // Every generated visit converts into a valid semantic trajectory.
    let trajectories: Vec<_> = dataset
        .visits
        .iter()
        .map(|v| {
            dataset
                .to_trajectory(&model, v)
                .expect("active zones resolve")
        })
        .collect();
    assert_eq!(trajectories.len(), 310);

    // Traces feed the mining stack.
    let traces: Vec<_> = trajectories.iter().map(|t| t.trace().clone()).collect();
    let sequences = cell_sequences(&traces);
    let (db, alphabet) = to_alphabet(&sequences);
    assert!(alphabet.len() <= 30, "only active zones appear");
    let patterns = mine_sequential_patterns(&db, 15, 3);
    assert!(!patterns.is_empty(), "frequent patterns exist");

    // The entrance zone is the universal first element.
    let entrance = model.zone(60886).unwrap();
    for seq in &sequences {
        assert_eq!(seq[0], entrance, "visits start at the Napoleon Hall");
    }

    // A Markov model fitted on the symbolic sequences predicts something.
    let markov = MarkovModel::fit(&db);
    assert!(markov.transition_count() > 500);
    assert!(
        markov.accuracy(&db) > 0.2,
        "in-sample accuracy is non-trivial"
    );
}

#[test]
fn generated_traces_are_inference_clean() {
    // Generated visits follow real accessibility edges, so missing-cell
    // inference finds nothing to insert (no false positives).
    let model = build_louvre();
    let dataset = generate_dataset(&scaled_config());
    let mut inserted = 0usize;
    for v in dataset.visits.iter().take(50) {
        let traj = dataset.to_trajectory(&model, v).expect("resolves");
        let outcome = infer_missing_cells(&model.space, traj.trace(), |_| AnnotationSet::new());
        inserted += outcome.inferred.len();
        assert!(outcome.ambiguous.is_empty(), "no impossible transitions");
    }
    assert_eq!(inserted, 0, "contiguous walks need no inference");
}

#[test]
fn sparsified_traces_recover_unavoidable_zones() {
    // Drop middle detections from generated visits; inference must re-insert
    // a zone whenever the remaining endpoints have a unique connecting cell.
    let model = build_louvre();
    let dataset = generate_dataset(&scaled_config());
    let mut recovered = 0usize;
    let mut examined = 0usize;
    for v in dataset.visits.iter().filter(|v| v.detections.len() >= 3) {
        let traj = dataset.to_trajectory(&model, v).expect("resolves");
        let full = traj.trace();
        // Remove every second tuple.
        let sparse_intervals: Vec<_> = full
            .intervals()
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(_, p)| p.clone())
            .collect();
        let sparse = sitm::core::Trace::new(sparse_intervals).expect("still ordered");
        let outcome = infer_missing_cells(&model.space, &sparse, |_| AnnotationSet::new());
        examined += 1;
        recovered += outcome.inferred.len();
        if examined >= 40 {
            break;
        }
    }
    assert!(examined > 10);
    assert!(
        recovered > 0,
        "some dropped zones are topologically unavoidable"
    );
}

#[test]
fn zone_transition_matrix_respects_topology() {
    let model = build_louvre();
    let dataset = generate_dataset(&scaled_config());
    let sequences: Vec<Vec<String>> = dataset
        .visits
        .iter()
        .map(|v| v.detections.iter().map(|d| d.zone_id.to_string()).collect())
        .collect();
    let matrix = TransitionMatrix::fit(&sequences);
    assert_eq!(
        matrix.total(),
        dataset.stats().transitions,
        "matrix covers every intra-visit transition"
    );
    // Every observed transition must be an accessibility edge.
    for (from, to, _) in matrix.top_transitions(usize::MAX) {
        let a = model.zone(from.parse().unwrap()).unwrap();
        let b = model.zone(to.parse().unwrap()).unwrap();
        let nrg = model.space.nrg(a.layer).unwrap();
        assert!(
            nrg.has_edge(a.node, b.node),
            "observed transition {from}->{to} has no edge"
        );
    }
}

#[test]
fn quality_reports_match_dataset_stats() {
    let model = build_louvre();
    let dataset = generate_dataset(&scaled_config());
    let stats = dataset.stats();
    let mut zero = 0usize;
    let mut detections = 0usize;
    for v in &dataset.visits {
        let traj = dataset.to_trajectory(&model, v).expect("resolves");
        let q = quality_of_trace(traj.trace(), Duration::seconds(30));
        zero += q.zero_duration;
        detections += q.detections;
    }
    assert_eq!(detections, stats.detections);
    assert_eq!(zero, stats.zero_duration_detections);
}

#[test]
fn fig6_zones_are_consistent_across_crates() {
    // The catalog, the topology, and the model agree about E/P/S/C.
    let model = build_louvre();
    let catalog = zone_catalog();
    let e = model.zone(60887).unwrap();
    let s = model.zone(60890).unwrap();
    let p = model.zone(60888).unwrap();
    assert_eq!(model.space.unavoidable_between(e, s), Some(vec![p]));
    let spec = catalog.iter().find(|z| z.id == 60887).unwrap();
    assert_eq!(spec.floor, -2);
    let cell = model.space.cell(e).unwrap();
    assert_eq!(cell.floor, Some(-2));
    assert_eq!(cell.attribute("wing"), Some("Napoleon"));
}
