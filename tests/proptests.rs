//! Workspace-level property-based tests on core invariants, spanning the
//! geometry, QSR, graph and trajectory crates.

use proptest::prelude::*;

use sitm::core::{
    apply_annotation_events, Annotation, AnnotationEvent, AnnotationSet, PresenceInterval,
    Timestamp, Trace, TransitionTaken,
};
use sitm::geometry::{relate_polygons, Point, Polygon, SpatialRelation};
use sitm::graph::{unavoidable_nodes, DiMultigraph};
use sitm::qsr::{compose, ConstraintNetwork, NetworkStatus, Rcc8};
use sitm::space::{
    core_hierarchy, lift_trace, Cell, CellClass, IndoorSpace, JointRelation, LayerKind,
};

// ---------------------------------------------------------------- geometry

fn arb_rect() -> impl Strategy<Value = Polygon> {
    (-50.0f64..50.0, -50.0f64..50.0, 0.5f64..40.0, 0.5f64..40.0).prop_map(|(x, y, w, h)| {
        Polygon::rectangle(Point::new(x, y), Point::new(x + w, y + h)).expect("positive area")
    })
}

proptest! {
    #[test]
    fn relate_is_converse_symmetric(a in arb_rect(), b in arb_rect()) {
        let ab = relate_polygons(&a, &b);
        let ba = relate_polygons(&b, &a);
        prop_assert_eq!(ab.converse(), ba);
    }

    #[test]
    fn every_rect_equals_itself(a in arb_rect()) {
        prop_assert_eq!(relate_polygons(&a, &a), SpatialRelation::Equal);
    }

    #[test]
    fn centroid_inside_convex_polygon(a in arb_rect()) {
        prop_assert!(a.contains_point(a.centroid()));
        prop_assert!(a.is_convex());
    }

    #[test]
    fn rect_area_is_width_times_height(
        x in -10.0f64..10.0, y in -10.0f64..10.0,
        w in 0.5f64..20.0, h in 0.5f64..20.0,
    ) {
        let poly = Polygon::rectangle(Point::new(x, y), Point::new(x + w, y + h)).unwrap();
        prop_assert!((poly.area() - w * h).abs() < 1e-6);
        prop_assert!((poly.perimeter() - 2.0 * (w + h)).abs() < 1e-6);
    }
}

// --------------------------------------------------------------------- QSR

fn arb_rcc8() -> impl Strategy<Value = Rcc8> {
    (0usize..8).prop_map(|i| Rcc8::from_index(i).expect("in range"))
}

proptest! {
    #[test]
    fn composition_converse_law(r1 in arb_rcc8(), r2 in arb_rcc8()) {
        prop_assert_eq!(
            compose(r1, r2).converse(),
            compose(r2.converse(), r1.converse())
        );
    }

    #[test]
    fn geometric_triples_are_network_consistent(
        a in arb_rect(), b in arb_rect(), c in arb_rect(),
    ) {
        // Relations derived from actual geometry always form a consistent
        // RCC8 network: the composition table can never contradict reality.
        let mut net = ConstraintNetwork::new(3);
        net.constrain_single(0, 1, Rcc8::from_spatial(relate_polygons(&a, &b)));
        net.constrain_single(1, 2, Rcc8::from_spatial(relate_polygons(&b, &c)));
        net.constrain_single(0, 2, Rcc8::from_spatial(relate_polygons(&a, &c)));
        prop_assert_eq!(net.propagate(), NetworkStatus::PathConsistent);
    }
}

// ------------------------------------------------------------------- graph

proptest! {
    #[test]
    fn unavoidable_nodes_lie_on_every_chain(chain_len in 3usize..30) {
        // In a pure chain, every interior node is unavoidable.
        let mut g: DiMultigraph<(), ()> = DiMultigraph::new();
        let nodes: Vec<_> = (0..chain_len).map(|_| g.add_node(())).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1], ());
        }
        let unavoidable = unavoidable_nodes(&g, nodes[0], nodes[chain_len - 1]).unwrap();
        prop_assert_eq!(unavoidable, nodes[1..chain_len - 1].to_vec());
    }

    #[test]
    fn adding_a_bypass_removes_unavoidability(
        chain_len in 4usize..20, bypass_from in 0usize..10,
    ) {
        let mut g: DiMultigraph<(), ()> = DiMultigraph::new();
        let nodes: Vec<_> = (0..chain_len).map(|_| g.add_node(())).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1], ());
        }
        let from = bypass_from % (chain_len - 2);
        // Bypass skips node from+1.
        g.add_edge(nodes[from], nodes[from + 2], ());
        let unavoidable = unavoidable_nodes(&g, nodes[0], nodes[chain_len - 1]).unwrap();
        prop_assert!(!unavoidable.contains(&nodes[from + 1]));
        // All other interior nodes stay unavoidable.
        for (i, n) in nodes.iter().enumerate().take(chain_len - 1).skip(1) {
            if i != from + 1 {
                prop_assert!(unavoidable.contains(n), "node {i} should stay unavoidable");
            }
        }
    }
}

// -------------------------------------------------------------- trajectory

/// A three-floor test space with `rooms_per_floor` rooms on each floor.
fn lift_fixture(rooms_per_floor: usize) -> (IndoorSpace, Vec<sitm::space::CellRef>) {
    let mut s = IndoorSpace::new();
    let lb = s.add_layer("b", LayerKind::Building);
    let lf = s.add_layer("f", LayerKind::Floor);
    let lr = s.add_layer("r", LayerKind::Room);
    let b = s
        .add_cell(lb, Cell::new("b", "B", CellClass::Building))
        .unwrap();
    let mut rooms = Vec::new();
    for floor in 0..3i8 {
        let f = s
            .add_cell(
                lf,
                Cell::new(format!("f{floor}"), format!("F{floor}"), CellClass::Floor),
            )
            .unwrap();
        s.add_joint(b, f, JointRelation::Covers).unwrap();
        for i in 0..rooms_per_floor {
            let r = s
                .add_cell(
                    lr,
                    Cell::new(
                        format!("r{floor}-{i}"),
                        format!("R{floor}-{i}"),
                        CellClass::Room,
                    ),
                )
                .unwrap();
            s.add_joint(f, r, JointRelation::Contains).unwrap();
            rooms.push(r);
        }
    }
    (s, rooms)
}

proptest! {
    #[test]
    fn lifting_preserves_span_and_shrinks_length(
        visits in proptest::collection::vec(0usize..9, 1..40),
    ) {
        let (space, rooms) = lift_fixture(3);
        let hierarchy = core_hierarchy(&space).unwrap();
        let intervals: Vec<PresenceInterval> = visits
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                PresenceInterval::new(
                    TransitionTaken::Unknown,
                    rooms[r],
                    Timestamp(i as i64 * 10),
                    Timestamp(i as i64 * 10 + 10),
                )
            })
            .collect();
        let trace = Trace::new(intervals).unwrap();
        let floors = space.find_layer(&LayerKind::Floor).unwrap();
        let lifted = lift_trace(&space, &hierarchy, &trace, floors).unwrap();
        prop_assert!(lifted.len() <= trace.len(), "merging never grows traces");
        prop_assert_eq!(lifted.span(), trace.span(), "span preserved");
        // Lifting to the building always collapses to one tuple.
        let buildings = space.find_layer(&LayerKind::Building).unwrap();
        let top = lift_trace(&space, &hierarchy, &trace, buildings).unwrap();
        prop_assert_eq!(top.len(), 1);
    }

    #[test]
    fn annotation_events_preserve_total_time_and_cells(
        split_offsets in proptest::collection::vec(1i64..99, 0..6),
    ) {
        let (space, rooms) = lift_fixture(1);
        let _ = space;
        let trace = Trace::new(vec![PresenceInterval::new(
            TransitionTaken::Unknown,
            rooms[0],
            Timestamp(0),
            Timestamp(100),
        )])
        .unwrap();
        let events: Vec<AnnotationEvent> = split_offsets
            .iter()
            .map(|&at| {
                AnnotationEvent::new(
                    Timestamp(at),
                    AnnotationSet::from_iter([Annotation::goal(format!("g{at}"))]),
                )
            })
            .collect();
        let enriched = apply_annotation_events(&trace, &events);
        // The span never changes; every tuple stays in the same cell; the
        // tuples remain chronologically ordered and non-overlapping.
        prop_assert_eq!(enriched.span(), trace.span());
        for p in enriched.intervals() {
            prop_assert_eq!(p.cell, rooms[0]);
        }
        for w in enriched.intervals().windows(2) {
            prop_assert!(w[0].end() < w[1].start());
        }
    }
}
