//! Reproduction of every table and figure of the paper.
//!
//! Each function builds its experiment from scratch (models are cheap) and
//! returns the textual report. The `repro_*` binaries print these; the
//! workspace integration tests assert on their structure.

use std::fmt::Write as _;

use sitm_analytics::{bar_chart, table, Choropleth, Summary, TableAlign};
use sitm_core::{AnnotationKind, Duration};
use sitm_louvre::scenarios;
use sitm_louvre::{
    build_louvre, generate_dataset, zone_catalog, GeneratorConfig, PaperCalibration,
};
use sitm_qsr::{NineIntersection, Rcc8};
use sitm_space::{lift_trace, validate_hierarchy, IssueSeverity, SpaceQuery};

/// A paper-vs-measured comparison row.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Metric name.
    pub metric: String,
    /// The paper's reported value.
    pub paper: String,
    /// Our measured value.
    pub measured: String,
    /// Whether the measurement matches (exactly or within the documented
    /// tolerance).
    pub matches: bool,
}

fn comparison_table(rows: &[ComparisonRow]) -> String {
    table(
        &["metric", "paper", "measured", "match"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.metric.clone(),
                    r.paper.clone(),
                    r.measured.clone(),
                    if r.matches { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
        &[
            TableAlign::Left,
            TableAlign::Right,
            TableAlign::Right,
            TableAlign::Left,
        ],
    )
}

/// T1 — Table 1: the terminology correspondence, driven by the Rust types
/// that realize each concept.
pub fn table1() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "== Table 1: closely related terms under indoor space modeling ==\n"
    )
    .unwrap();
    let rows = vec![
        vec![
            "(spatial) region".to_string(),
            "cell / \"cellspace\"".to_string(),
            "node".to_string(),
            "state".to_string(),
            "sitm_space::Cell @ DiMultigraph node".to_string(),
        ],
        vec![
            "(region) boundary".to_string(),
            "cell boundary".to_string(),
            "(intra-layer) edge".to_string(),
            "transition".to_string(),
            "sitm_space::Transition @ DiMultigraph edge".to_string(),
        ],
        vec![
            "overlap/coveredBy/inside/covers/contains/equal".to_string(),
            "binary topological relationship".to_string(),
            "(inter-layer) joint edge".to_string(),
            "valid overall state".to_string(),
            "sitm_space::JointRelation @ coupling edge".to_string(),
        ],
    ];
    out.push_str(&table(
        &[
            "n-intersection",
            "primal space (2D)",
            "dual space (NRG)",
            "dual space (navigation)",
            "realized by",
        ],
        &rows,
        &[],
    ));
    // The six joint relations and their 9-intersection matrices.
    writeln!(
        out,
        "\njoint relations as 9-intersection patterns (regular closed regions):"
    )
    .unwrap();
    for rel in sitm_space::JointRelation::ALL {
        let matrix = NineIntersection::from_rcc8(rel.to_rcc8());
        writeln!(
            out,
            "  {:<10} RCC8 {:<6} 9IM {}",
            rel.name(),
            rel.to_rcc8().name(),
            matrix
        )
        .unwrap();
    }
    // And the two excluded ones.
    for rcc in [Rcc8::Dc, Rcc8::Ec] {
        let matrix = NineIntersection::from_rcc8(rcc);
        writeln!(
            out,
            "  {:<10} RCC8 {:<6} 9IM {}   (excluded from joint edges)",
            rcc.to_spatial().name(),
            rcc.name(),
            matrix
        )
        .unwrap();
    }
    out
}

/// D1 — §4.1 dataset statistics, paper vs generated.
pub fn dataset_stats(config: &GeneratorConfig) -> String {
    let cal = &config.calibration;
    let ds = generate_dataset(config);
    let stats = ds.stats();
    let fmt_dur = |d: Duration| d.to_string();
    let rows = vec![
        ComparisonRow {
            metric: "visits".into(),
            paper: cal.visits.to_string(),
            measured: stats.visits.to_string(),
            matches: stats.visits == cal.visits,
        },
        ComparisonRow {
            metric: "visitors".into(),
            paper: cal.visitors.to_string(),
            measured: stats.visitors.to_string(),
            matches: stats.visitors == cal.visitors,
        },
        ComparisonRow {
            metric: "returning visitors".into(),
            paper: cal.returning_visitors.to_string(),
            measured: stats.returning_visitors.to_string(),
            matches: stats.returning_visitors == cal.returning_visitors,
        },
        ComparisonRow {
            metric: "second/third visits".into(),
            paper: cal.revisits.to_string(),
            measured: stats.revisits.to_string(),
            matches: stats.revisits == cal.revisits,
        },
        ComparisonRow {
            metric: "zone detections".into(),
            paper: cal.detections.to_string(),
            measured: stats.detections.to_string(),
            matches: stats.detections == cal.detections,
        },
        ComparisonRow {
            metric: "intra-visit transitions".into(),
            paper: cal.transitions.to_string(),
            measured: stats.transitions.to_string(),
            matches: stats.transitions == cal.transitions,
        },
        ComparisonRow {
            metric: "zones in dataset".into(),
            paper: cal.zones_active.to_string(),
            measured: stats.distinct_zones.to_string(),
            matches: stats.distinct_zones == cal.zones_active,
        },
        ComparisonRow {
            metric: "zero-duration rate".into(),
            paper: format!("~{:.0}%", cal.zero_duration_rate * 100.0),
            measured: format!("{:.1}%", stats.zero_duration_rate * 100.0),
            matches: (stats.zero_duration_rate - cal.zero_duration_rate).abs() < 0.02,
        },
        ComparisonRow {
            metric: "min visit duration".into(),
            paper: "0:00:00 (potential error)".into(),
            measured: fmt_dur(stats.min_visit_duration),
            matches: stats.min_visit_duration == Duration::ZERO,
        },
        ComparisonRow {
            metric: "max visit duration".into(),
            paper: fmt_dur(cal.max_visit_duration),
            measured: fmt_dur(stats.max_visit_duration),
            matches: stats.max_visit_duration <= cal.max_visit_duration,
        },
        ComparisonRow {
            metric: "max detection duration".into(),
            paper: fmt_dur(cal.max_detection_duration),
            measured: fmt_dur(stats.max_detection_duration),
            matches: stats.max_detection_duration <= cal.max_detection_duration,
        },
        ComparisonRow {
            metric: "mean detections/visit".into(),
            paper: format!("{:.3}", cal.mean_detections_per_visit()),
            measured: format!("{:.3}", stats.mean_detections_per_visit),
            matches: (stats.mean_detections_per_visit - cal.mean_detections_per_visit()).abs()
                < 0.01,
        },
    ];
    let mut out = String::new();
    writeln!(
        out,
        "== D1: dataset statistics (§4.1), paper vs synthetic ==\n"
    )
    .unwrap();
    out.push_str(&comparison_table(&rows));
    writeln!(
        out,
        "\nnote: maxima are generator caps (paper reports observed maxima);\n\
         the zero-duration rate target is the paper's \"around 10%\"."
    )
    .unwrap();
    out
}

/// F1 — Fig. 1: the Denon two-level hierarchical graph.
pub fn fig1() -> String {
    let fig = sitm_louvre::denon::denon_figure1();
    let mut out = String::new();
    writeln!(
        out,
        "== F1: Fig. 1 — Denon wing, 1st floor, 2-level graph ==\n"
    )
    .unwrap();
    for (idx, layer) in fig.space.layers() {
        writeln!(out, "layer {idx}: {layer}").unwrap();
        for (cref, cell) in fig.space.cells_in(idx) {
            writeln!(out, "  node {cref}: {} [{}]", cell.name, cell.class).unwrap();
        }
        for e in fig.space.transitions_in(idx) {
            writeln!(out, "  edge {} -> {} via {}", e.from, e.to, e.payload).unwrap();
        }
    }
    writeln!(out, "joint edges:").unwrap();
    for j in fig.space.joints() {
        writeln!(
            out,
            "  {}:{} -[{}]-> {}:{}",
            j.from.0, j.from.1, j.payload, j.to.0, j.to.1
        )
        .unwrap();
    }
    let salle = fig.rooms[3];
    let room2 = fig.rooms[1];
    let nrg = fig.space.nrg(salle.layer).expect("layer exists");
    writeln!(
        out,
        "\nSalle des Etats one-way rule: 4->2 allowed = {}, 2->4 allowed = {}",
        nrg.has_edge(salle.node, room2.node),
        nrg.has_edge(room2.node, salle.node)
    )
    .unwrap();
    let detour = fig.space.route(room2, salle).expect("detour exists");
    writeln!(
        out,
        "entering room 4 from room 2 requires the detour of {} cells",
        detour.len()
    )
    .unwrap();
    out
}

/// F2 — Fig. 2: the extended 5-layer core hierarchy, on the full Louvre.
pub fn fig2() -> String {
    let model = build_louvre();
    let mut out = String::new();
    writeln!(
        out,
        "== F2: Fig. 2 — core layer hierarchy with complex root and RoI leaf ==\n"
    )
    .unwrap();
    let mut rows = Vec::new();
    for &layer in model.hierarchy.layers() {
        let meta = model.space.layer(layer).expect("layer exists");
        let cells = model.space.cells_in(layer).count();
        let edges = model.space.transitions_in(layer).count();
        rows.push(vec![
            format!("{layer}"),
            meta.name.clone(),
            meta.kind.to_string(),
            cells.to_string(),
            edges.to_string(),
        ]);
    }
    out.push_str(&table(
        &["layer", "name", "kind", "cells", "acc. edges"],
        &rows,
        &[
            TableAlign::Left,
            TableAlign::Left,
            TableAlign::Left,
            TableAlign::Right,
            TableAlign::Right,
        ],
    ));
    let issues = validate_hierarchy(&model.space, &model.hierarchy);
    let errors = issues
        .iter()
        .filter(|i| i.severity() == IssueSeverity::Error)
        .count();
    let warnings = issues.len() - errors;
    writeln!(
        out,
        "\nhierarchy validation: {errors} error(s), {warnings} warning(s) \
         (contains/covers only, top->bottom, no layer skips, single parents)"
    )
    .unwrap();
    writeln!(
        out,
        "joint edges total: {} (incl. the thematic zone layer \"between Layer 2 and Layer 1\")",
        model.space.stats().joints
    )
    .unwrap();
    out
}

/// F3 — Fig. 3: choropleth of detections over the 11 ground-floor zones.
pub fn fig3(config: &GeneratorConfig) -> String {
    let ds = generate_dataset(config);
    let counts = ds.detections_per_zone();
    let catalog = zone_catalog();
    let mut series: Vec<(String, f64)> = catalog
        .iter()
        .filter(|z| z.floor == 0)
        .map(|z| {
            (
                format!("{} {}", z.id, z.theme),
                counts.get(&z.id).copied().unwrap_or(0) as f64,
            )
        })
        .collect();
    series.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    let choropleth = Choropleth::quantiles(series.clone(), 5);
    let mut out = String::new();
    writeln!(
        out,
        "== F3: Fig. 3 — ground-floor zone detection choropleth ==\n"
    )
    .unwrap();
    out.push_str(&bar_chart(&series, 40));
    writeln!(out, "\nquantile classes (5 = darkest):").unwrap();
    for e in choropleth.entries() {
        writeln!(out, "  class {}  {}", e.class + 1, e.label).unwrap();
    }
    out
}

/// F4 — Fig. 4: RoIs of zones 60853/60854 do not cover their zones.
pub fn fig4() -> String {
    let model = build_louvre();
    let mut out = String::new();
    writeln!(
        out,
        "== F4: Fig. 4 — RoIs inside zones 60854 and 60853 ==\n"
    )
    .unwrap();
    let mut rows = Vec::new();
    for zone_id in [60853u32, 60854] {
        let zone_ref = model.zone(zone_id).expect("catalog zone");
        let zone_cell = model.space.cell(zone_ref).expect("cell exists");
        let zone_poly = zone_cell.geometry.as_ref().expect("zones have geometry");
        // RoIs tagged with this zone id.
        let mut roi_count = 0usize;
        let mut roi_area = 0.0f64;
        for (_, cell) in model.space.cells_in(model.roi_layer) {
            if cell.attribute("zone") == Some(zone_id.to_string().as_str()) {
                roi_count += 1;
                roi_area += cell.geometry.as_ref().map(|p| p.area()).unwrap_or(0.0);
            }
        }
        let coverage = roi_area / zone_poly.area();
        rows.push(vec![
            format!("zone{zone_id}"),
            zone_cell.name.clone(),
            roi_count.to_string(),
            format!("{:.0}", zone_poly.area()),
            format!("{:.0}", roi_area),
            format!("{:.1}%", coverage * 100.0),
        ]);
    }
    out.push_str(&table(
        &["zone", "theme", "RoIs", "zone m^2", "RoI m^2", "coverage"],
        &rows,
        &[
            TableAlign::Left,
            TableAlign::Left,
            TableAlign::Right,
            TableAlign::Right,
            TableAlign::Right,
            TableAlign::Right,
        ],
    ));
    writeln!(
        out,
        "\nthe RoIs \"do not completely cover their room's surface\" — the\n\
         full-coverage hypothesis fails at the RoI layer, as the paper argues."
    )
    .unwrap();
    out
}

/// F5 — Fig. 5: the overlapping "exit museum" / "buy souvenir" episodes.
pub fn fig5() -> String {
    let model = build_louvre();
    let traj = scenarios::fig5_trajectory(&model);
    let seg = scenarios::fig5_segmentation(&model, &traj).expect("annotations differ");
    let mut out = String::new();
    writeln!(
        out,
        "== F5: Fig. 5 — overlapping goal episodes over E->P->S->C ==\n"
    )
    .unwrap();
    writeln!(out, "trajectory {}:", traj.moving_object).unwrap();
    for p in traj.trace().intervals() {
        let cell = model.space.cell(p.cell).expect("cell exists");
        writeln!(out, "  {} [{}]  {}", p, cell.name, cell.key).unwrap();
    }
    writeln!(out, "\nepisodic segmentation ({} episodes):", seg.len()).unwrap();
    for (i, e) in seg.episodes().iter().enumerate() {
        writeln!(
            out,
            "  episode {}: tuples {:?}, {} .. {}, {}",
            i + 1,
            e.range,
            e.time.start,
            e.time.end,
            e.annotations
        )
        .unwrap();
    }
    writeln!(
        out,
        "\ncovers trajectory: {} | overlapping pairs: {:?} | mutually exclusive: {}",
        seg.covers(&traj),
        seg.overlapping_pairs(),
        seg.is_mutually_exclusive()
    )
    .unwrap();
    writeln!(
        out,
        "the same E->P->S movement belongs to both episodes — the model\n\
         permits overlapping episodic segmentations by design (§3.3)."
    )
    .unwrap();
    out
}

/// F6 — Fig. 6: inference of the undetected passage zone plus the
/// population-level dwell comparison (δt1 ≫ δt2).
pub fn fig6(config: &GeneratorConfig) -> String {
    let model = build_louvre();
    let mut out = String::new();
    writeln!(
        out,
        "== F6: Fig. 6 — topology-based inference of zone 60888 ==\n"
    )
    .unwrap();
    let observed = scenarios::fig6_observed_trace(&model);
    writeln!(out, "observed (sparse) trace:").unwrap();
    for p in observed.intervals() {
        let cell = model.space.cell(p.cell).expect("cell exists");
        writeln!(out, "  {} [{}]", p, cell.key).unwrap();
    }
    let outcome = scenarios::fig6_inference(&model);
    writeln!(
        out,
        "\nafter inference ({} tuple inserted):",
        outcome.inferred.len()
    )
    .unwrap();
    for p in outcome.trace.intervals() {
        let cell = model.space.cell(p.cell).expect("cell exists");
        let marker = if p
            .annotations
            .has(&AnnotationKind::Custom("inference".to_string()), "topology")
        {
            "  <-- inferred"
        } else {
            ""
        };
        writeln!(out, "  {} [{}]{}", p, cell.key, marker).unwrap();
    }
    writeln!(
        out,
        "\nscenario dwell ratio dt1/dt2 = {:.1} (expected >> 1)",
        scenarios::fig6_dwell_ratio(&model)
    )
    .unwrap();

    // Population-level check over the synthetic dataset: mean dwell in the
    // separate-ticket exhibition E vs the exit-path shops S.
    let ds = generate_dataset(config);
    let dwell_of = |zone_id: u32| -> Option<Summary> {
        let mut values = Vec::new();
        for v in &ds.visits {
            for d in &v.detections {
                if d.zone_id == zone_id {
                    values.push(d.duration().as_secs_f64());
                }
            }
        }
        Summary::of(&values)
    };
    if let (Some(e), Some(s)) = (dwell_of(60887), dwell_of(60890)) {
        writeln!(
            out,
            "population dwell: E mean {:.0}s (n={}) vs S mean {:.0}s (n={}); ratio {:.2}",
            e.mean,
            e.count,
            s.mean,
            s.count,
            e.mean / s.mean
        )
        .unwrap();
    }
    writeln!(
        out,
        "ambiguous segments: {} (0 expected: P is unavoidable between E and S)",
        outcome.ambiguous.len()
    )
    .unwrap();
    out
}

/// A6 ablation summary — symbolic vs geometric location handling: runs the
/// positioning pipeline over a walk inside the Louvre zones and reports the
/// detection stream it produces.
pub fn positioning_demo() -> String {
    use sitm_geometry::Point;
    use sitm_positioning::{BeaconDeployment, GroundTruthFix, Pipeline, RssiModel, ZoneMap};
    use sitm_sim::SimRng;

    let model = build_louvre();
    let zones = ZoneMap::build(&model.space, model.zone_layer, 20.0);
    let mut deployment = BeaconDeployment::new();
    // Cover floor 0 (the Fig. 3 floor): zones live in wing bands.
    deployment.grid(model.site_bbox(), 0, 12.0, -59.0);
    let pipeline = Pipeline::new(deployment, RssiModel::indoor_default());

    // Ground truth: a walk across the Denon band on floor 0.
    let path: Vec<GroundTruthFix> = (0..240)
        .map(|i| GroundTruthFix {
            at: sitm_core::Timestamp(i),
            position: Point::new(5.0 + i as f64 * 1.2, 20.0),
            floor: 0,
        })
        .collect();
    let mut rng = SimRng::seeded(99);
    let report = pipeline.run(&model.space, &zones, &path, &mut rng);
    let mut out = String::new();
    writeln!(
        out,
        "== A6: geometric positioning pipeline over the Louvre floor 0 ==\n"
    )
    .unwrap();
    writeln!(
        out,
        "fixes {} | solved {} | raw err {:.2} m | filtered err {:.2} m | unmapped {}",
        report.fixes,
        report.solved_fixes,
        report.raw_error_mean,
        report.filtered_error_mean,
        report.unmapped_fixes
    )
    .unwrap();
    writeln!(out, "zone detections:").unwrap();
    for d in &report.detections {
        let cell = model.space.cell(d.cell).expect("cell exists");
        writeln!(out, "  {} [{} .. {}]", cell.key, d.start, d.end).unwrap();
    }
    let trace = report.to_trace();
    writeln!(
        out,
        "\nsymbolic trace: {} tuples, {} transitions — the model's working\n\
         representation after the geometric pipeline is left behind (§1).",
        trace.len(),
        trace.transition_count()
    )
    .unwrap();
    out
}

/// Floor-switching patterns (§5 "coarse level of granularity") over the
/// synthetic dataset, via granularity lifting of the room-level scenario.
pub fn floor_patterns(config: &GeneratorConfig) -> String {
    let ds = generate_dataset(config);
    let catalog = zone_catalog();
    let floor_of: std::collections::BTreeMap<u32, i8> =
        catalog.iter().map(|z| (z.id, z.floor)).collect();
    let visits: Vec<Vec<i8>> = ds
        .visits
        .iter()
        .map(|v| v.detections.iter().map(|d| floor_of[&d.zone_id]).collect())
        .collect();
    let bigrams = sitm_mining::floor_switch_ngrams(&visits, 2);
    let mut out = String::new();
    writeln!(out, "== floor-switching patterns (§5) ==\n").unwrap();
    let rows: Vec<Vec<String>> = bigrams
        .iter()
        .take(10)
        .map(|(gram, count)| {
            vec![
                gram.iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
                    .join(" -> "),
                count.to_string(),
            ]
        })
        .collect();
    out.push_str(&table(
        &["floor switch", "count"],
        &rows,
        &[TableAlign::Left, TableAlign::Right],
    ));
    out
}

/// Demonstrates granularity lifting on a generated visit: zone trace cannot
/// lift (zones sit outside the hierarchy) but the room-level Fig. 5 walk
/// lifts to floors and buildings.
pub fn lifting_demo() -> String {
    use sitm_core::{PresenceInterval, Timestamp, Trace, TransitionTaken};

    let model = build_louvre();
    let mut out = String::new();
    writeln!(
        out,
        "== granularity lifting (§3.2 transitivity of parthood) ==\n"
    )
    .unwrap();
    // Build a room-level trace: rooms of zones 60886 (floor -2) then 60861,
    // 60862 (floor +1, Denon).
    let room = |zone: u32, idx: usize| {
        model
            .space
            .resolve(&sitm_louvre::building::room_key(zone, idx))
            .expect("room exists")
    };
    let trace = Trace::new(vec![
        PresenceInterval::new(
            TransitionTaken::Unknown,
            room(60886, 0),
            Timestamp(0),
            Timestamp(300),
        ),
        PresenceInterval::new(
            TransitionTaken::Unknown,
            room(60861, 0),
            Timestamp(300),
            Timestamp(900),
        ),
        PresenceInterval::new(
            TransitionTaken::Unknown,
            room(60861, 1),
            Timestamp(900),
            Timestamp(1200),
        ),
        PresenceInterval::new(
            TransitionTaken::Unknown,
            room(60862, 0),
            Timestamp(1200),
            Timestamp(2400),
        ),
    ])
    .expect("chronological");
    writeln!(out, "room-level trace: {} tuples", trace.len()).unwrap();
    for &(layer, label) in &[
        (model.floor_layer, "floor"),
        (model.building_layer, "building"),
        (model.complex_layer, "museum"),
    ] {
        let lifted = lift_trace(&model.space, &model.hierarchy, &trace, layer).expect("lifts");
        let cells: Vec<String> = lifted
            .intervals()
            .iter()
            .map(|p| model.space.cell(p.cell).expect("cell").key.clone())
            .collect();
        writeln!(
            out,
            "  lifted to {label:<9} {} tuples: {}",
            lifted.len(),
            cells.join(" -> ")
        )
        .unwrap();
    }
    out
}

/// Runs every reproduction and concatenates the reports.
pub fn all(config: &GeneratorConfig) -> String {
    let mut out = String::new();
    for section in [
        table1(),
        fig1(),
        fig2(),
        fig4(),
        fig5(),
        dataset_stats(config),
        fig3(config),
        fig6(config),
        floor_patterns(config),
        positioning_demo(),
        lifting_demo(),
    ] {
        out.push_str(&section);
        out.push('\n');
    }
    out
}

/// A scaled-down calibration for fast tests (all §4.1 identities hold).
pub fn scaled_config(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        seed,
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

/// Full paper-scale configuration with the canonical seed.
pub fn paper_config() -> GeneratorConfig {
    GeneratorConfig::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mentions_all_vocabularies() {
        let out = table1();
        assert!(out.contains("n-intersection"));
        assert!(out.contains("joint edge"));
        assert!(out.contains("coveredBy"));
        assert!(out.contains("TFFFTFFFT"), "EQ 9IM pattern");
        assert!(out.contains("excluded from joint edges"));
    }

    #[test]
    fn dataset_stats_all_rows_match_on_scaled_config() {
        let out = dataset_stats(&scaled_config(3));
        assert!(!out.contains(" NO"), "mismatch rows in:\n{out}");
        assert!(out.contains("visits"));
        assert!(out.contains("zero-duration rate"));
    }

    #[test]
    fn fig1_shows_one_way_rule() {
        let out = fig1();
        assert!(out.contains("4->2 allowed = true"));
        assert!(out.contains("2->4 allowed = false"));
    }

    #[test]
    fn fig2_validates_cleanly() {
        let out = fig2();
        assert!(out.contains("0 error(s)"));
        assert!(out.contains("buildingComplex"));
        assert!(out.contains("roi"));
    }

    #[test]
    fn fig3_lists_eleven_ground_floor_zones() {
        let out = fig3(&scaled_config(4));
        let bars = out.lines().filter(|l| l.contains('#')).count();
        assert!(bars >= 8, "most ground-floor zones get detections:\n{out}");
        assert!(out.contains("608"));
    }

    #[test]
    fn fig4_shows_partial_coverage() {
        let out = fig4();
        assert!(out.contains("zone60853"));
        assert!(out.contains("zone60854"));
        // Coverage column shows percentages well below 100%.
        assert!(out.contains('%'));
        assert!(!out.contains("100.0%"));
    }

    #[test]
    fn fig5_reports_overlap() {
        let out = fig5();
        assert!(out.contains("overlapping pairs: [(0, 1)]"));
        assert!(out.contains("mutually exclusive: false"));
        assert!(out.contains("buy souvenir"));
        assert!(out.contains("exit museum"));
    }

    #[test]
    fn fig6_reports_inference() {
        let out = fig6(&scaled_config(5));
        assert!(out.contains("<-- inferred"));
        assert!(out.contains("zone60888"));
        assert!(out.contains("cloakroomPickup"));
        assert!(out.contains("ambiguous segments: 0"));
    }

    #[test]
    fn positioning_demo_produces_detections() {
        let out = positioning_demo();
        assert!(out.contains("zone detections:"));
        assert!(out.contains("symbolic trace:"));
    }

    #[test]
    fn lifting_demo_shows_floor_switch() {
        let out = lifting_demo();
        assert!(out.contains("floor-napoleon-m2"));
        assert!(out.contains("floor-denon-p1"));
        assert!(out.contains("wing-napoleon -> wing-denon"));
        assert!(
            out.contains("louvre"),
            "museum-level lift collapses to one cell"
        );
    }

    #[test]
    fn floor_patterns_counts_bigrams() {
        let out = floor_patterns(&scaled_config(6));
        assert!(out.contains("->"));
        assert!(out.contains("count"));
    }
}
