//! Quickstart: build an indoor space, record a semantic trajectory, segment
//! it into episodes, and lift it through the layer hierarchy.
//!
//! Run with: `cargo run --example quickstart`

use sitm::core::{
    Annotation, AnnotationSet, EpisodicSegmentation, IntervalPredicate, PresenceInterval,
    SemanticTrajectory, Timestamp, Trace, TransitionTaken,
};
use sitm::space::{
    core_hierarchy, lift_trace, validate_hierarchy, Cell, CellClass, IndoorSpace, JointRelation,
    LayerKind, SpaceQuery, Transition, TransitionKind,
};

fn main() {
    // ---- 1. Model a small gallery: one building, one floor, three rooms. --
    let mut space = IndoorSpace::new();
    let buildings = space.add_layer("buildings", LayerKind::Building);
    let floors = space.add_layer("floors", LayerKind::Floor);
    let rooms = space.add_layer("rooms", LayerKind::Room);

    let gallery = space
        .add_cell(
            buildings,
            Cell::new("gallery", "City Gallery", CellClass::Building),
        )
        .expect("unique key");
    let ground = space
        .add_cell(
            floors,
            Cell::new("ground", "Ground floor", CellClass::Floor).on_floor(0),
        )
        .expect("unique key");
    let lobby = space
        .add_cell(
            rooms,
            Cell::new("lobby", "Lobby", CellClass::Lobby).on_floor(0),
        )
        .expect("unique key");
    let hall = space
        .add_cell(
            rooms,
            Cell::new("hall", "Main hall", CellClass::Hall).on_floor(0),
        )
        .expect("unique key");
    let shop = space
        .add_cell(
            rooms,
            Cell::new("shop", "Museum shop", CellClass::Shop).on_floor(0),
        )
        .expect("unique key");

    // Accessibility: lobby <-> hall <-> shop, shop -> lobby one-way exit.
    space
        .add_transition_pair(
            lobby,
            hall,
            Transition::named(TransitionKind::Door, "main-door"),
        )
        .expect("same layer");
    space
        .add_transition_pair(hall, shop, Transition::new(TransitionKind::Opening))
        .expect("same layer");
    space
        .add_transition(
            shop,
            lobby,
            Transition::named(TransitionKind::Checkpoint, "exit-gate"),
        )
        .expect("same layer");

    // Hierarchy joints: building covers floor; floor contains the rooms.
    space
        .add_joint(gallery, ground, JointRelation::Covers)
        .expect("layers differ");
    for room in [lobby, hall, shop] {
        space
            .add_joint(ground, room, JointRelation::Contains)
            .expect("layers differ");
    }

    let hierarchy = core_hierarchy(&space).expect("building/floor/room present");
    let issues = validate_hierarchy(&space, &hierarchy);
    println!(
        "hierarchy layers: {}, validation issues: {}",
        hierarchy.len(),
        issues.len()
    );

    // ---- 2. Navigation queries over the accessibility NRG. ---------------
    println!(
        "lobby -> shop route: {:?}",
        space
            .route(lobby, shop)
            .map(|cells| cells.len())
            .expect("reachable")
    );
    println!("shop -> hall accessible: {}", space.accessible(shop, hall));

    // ---- 3. Record a semantic trajectory (Def. 3.1/3.2). -----------------
    let t = |m: u32| Timestamp::from_ymd_hms(2026, 6, 11, 10, m, 0);
    let trace = Trace::new(vec![
        PresenceInterval::new(TransitionTaken::Unknown, lobby, t(0), t(5)),
        PresenceInterval::new(
            TransitionTaken::Named("main-door".into()),
            hall,
            t(5),
            t(40),
        ),
        PresenceInterval::new(TransitionTaken::Unknown, shop, t(40), t(50)),
        PresenceInterval::new(
            TransitionTaken::Named("exit-gate".into()),
            lobby,
            t(50),
            t(52),
        ),
    ])
    .expect("chronological");
    let trajectory = SemanticTrajectory::new(
        "visitor-42",
        trace,
        AnnotationSet::from_iter([Annotation::goal("visit")]),
    )
    .expect("annotated");
    println!("\ntrajectory:\n{trajectory}");

    // ---- 4. Episodes: overlapping segmentation (§3.3). -------------------
    let seg = EpisodicSegmentation::from_predicates(
        &trajectory,
        &[
            (
                IntervalPredicate::in_cells([hall, shop, lobby]),
                AnnotationSet::from_iter([Annotation::goal("exit museum")]),
            ),
            (
                IntervalPredicate::in_cells([shop]),
                AnnotationSet::from_iter([Annotation::goal("buy souvenir")]),
            ),
        ],
    )
    .expect("annotations differ from the trajectory's");
    println!(
        "episodes: {} (overlapping pairs: {:?})",
        seg.len(),
        seg.overlapping_pairs()
    );

    // ---- 5. Granularity lifting (§3.2). -----------------------------------
    let lifted = lift_trace(&space, &hierarchy, trajectory.trace(), floors).expect("lifts");
    println!(
        "lifted to the floor layer: {} tuple(s) spanning {}",
        lifted.len(),
        lifted.span().expect("non-empty").duration()
    );
    let building_level =
        lift_trace(&space, &hierarchy, trajectory.trace(), buildings).expect("lifts");
    println!(
        "lifted to the building layer: {} tuple(s) in cell '{}'",
        building_level.len(),
        space
            .cell(building_level.get(0).expect("one tuple").cell)
            .expect("cell exists")
            .name
    );
}
