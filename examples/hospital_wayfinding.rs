//! A non-museum instantiation: a two-building hospital campus, showing the
//! model supports "all types of indoor settings" (§3) — building complex
//! root layer, restricted wards, one-way sterile corridors, and inference
//! of an unobserved passage from the ward topology.
//!
//! Run with: `cargo run --example hospital_wayfinding`

use sitm::core::{AnnotationSet, PresenceInterval, Timestamp, Trace, TransitionTaken};
use sitm::space::{
    core_hierarchy, infer_missing_cells, validate_hierarchy, Cell, CellClass, CellRef, IndoorSpace,
    IssueSeverity, JointRelation, LayerKind, SpaceQuery, Transition, TransitionKind,
};

struct Hospital {
    space: IndoorSpace,
    reception: CellRef,
    triage: CellRef,
    sterile_corridor: CellRef,
    operating_room: CellRef,
    recovery: CellRef,
    ward: CellRef,
}

fn build_hospital() -> Hospital {
    let mut space = IndoorSpace::new();
    let complex = space.add_layer("campus", LayerKind::BuildingComplex);
    let buildings = space.add_layer("buildings", LayerKind::Building);
    let floors = space.add_layer("floors", LayerKind::Floor);
    let rooms = space.add_layer("rooms", LayerKind::Room);

    let campus = space
        .add_cell(
            complex,
            Cell::new("campus", "County Hospital", CellClass::BuildingComplex),
        )
        .expect("unique");
    let main = space
        .add_cell(
            buildings,
            Cell::new("main", "Main building", CellClass::Building),
        )
        .expect("unique");
    let surgery = space
        .add_cell(
            buildings,
            Cell::new("surgery", "Surgery wing", CellClass::Building),
        )
        .expect("unique");
    space
        .add_joint(campus, main, JointRelation::Covers)
        .expect("layers");
    space
        .add_joint(campus, surgery, JointRelation::Covers)
        .expect("layers");

    let main_f0 = space
        .add_cell(
            floors,
            Cell::new("main-f0", "Main ground", CellClass::Floor).on_floor(0),
        )
        .expect("unique");
    let surgery_f0 = space
        .add_cell(
            floors,
            Cell::new("surgery-f0", "Surgery ground", CellClass::Floor).on_floor(0),
        )
        .expect("unique");
    space
        .add_joint(main, main_f0, JointRelation::Covers)
        .expect("layers");
    space
        .add_joint(surgery, surgery_f0, JointRelation::Covers)
        .expect("layers");

    let mut room = |key: &str, name: &str, class: CellClass, floor: CellRef| {
        let r = space
            .add_cell(rooms, Cell::new(key, name, class).on_floor(0))
            .expect("unique");
        space
            .add_joint(floor, r, JointRelation::Contains)
            .expect("layers");
        r
    };
    let reception = room("reception", "Reception", CellClass::Lobby, main_f0);
    let triage = room("triage", "Triage", CellClass::Room, main_f0);
    let sterile_corridor = room(
        "sterile",
        "Sterile corridor",
        CellClass::Corridor,
        surgery_f0,
    );
    let operating_room = room("or-1", "Operating room 1", CellClass::Room, surgery_f0);
    let recovery = room("recovery", "Recovery", CellClass::Room, surgery_f0);
    let ward = room("ward", "Ward A", CellClass::Room, main_f0);

    // Patient flow is one-way through surgery: triage -> sterile corridor ->
    // OR -> recovery -> ward. Reception <-> triage and ward -> reception.
    space
        .add_transition_pair(reception, triage, Transition::new(TransitionKind::Door))
        .expect("layer");
    space
        .add_transition(
            triage,
            sterile_corridor,
            Transition::named(TransitionKind::Checkpoint, "airlock-in"),
        )
        .expect("layer");
    space
        .add_transition(
            sterile_corridor,
            operating_room,
            Transition::new(TransitionKind::Door),
        )
        .expect("layer");
    space
        .add_transition(
            operating_room,
            recovery,
            Transition::new(TransitionKind::Door),
        )
        .expect("layer");
    space
        .add_transition(
            recovery,
            ward,
            Transition::named(TransitionKind::Checkpoint, "airlock-out"),
        )
        .expect("layer");
    space
        .add_transition(ward, reception, Transition::new(TransitionKind::Door))
        .expect("layer");

    Hospital {
        space,
        reception,
        triage,
        sterile_corridor,
        operating_room,
        recovery,
        ward,
    }
}

fn main() {
    let h = build_hospital();
    let hierarchy = core_hierarchy(&h.space).expect("core layers present");
    let errors = validate_hierarchy(&h.space, &hierarchy)
        .into_iter()
        .filter(|i| i.severity() == IssueSeverity::Error)
        .count();
    println!(
        "hospital model: {} cells, {} transitions, hierarchy errors: {errors}",
        h.space.stats().cells,
        h.space.stats().transitions
    );

    // Wayfinding: patient route from reception to the ward goes through the
    // whole surgical chain — and cannot go backwards.
    let route = h.space.route(h.reception, h.ward).expect("reachable");
    let names: Vec<&str> = route
        .iter()
        .map(|&r| h.space.cell(r).expect("cell").name.as_str())
        .collect();
    println!("patient route: {}", names.join(" -> "));
    let or_nrg = h.space.nrg(h.operating_room.layer).expect("layer");
    println!(
        "direct re-entry recovery -> OR possible: {} (only via the full loop: {} doors)",
        or_nrg.has_edge(h.recovery.node, h.operating_room.node),
        h.space
            .route(h.recovery, h.operating_room)
            .map(|r| r.len() - 1)
            .unwrap_or(0)
    );

    // The sterile corridor is unavoidable between triage and the OR — so a
    // patient tag detected in triage and then in recovery *must* have passed
    // through it (and the OR).
    let unavoidable = h
        .space
        .unavoidable_between(h.triage, h.recovery)
        .expect("reachable");
    println!(
        "unavoidable between triage and recovery: {:?}",
        unavoidable
            .iter()
            .map(|&r| h.space.cell(r).expect("cell").key.as_str())
            .collect::<Vec<_>>()
    );

    // Sparse RTLS trace: the tag slept between triage and recovery.
    let t = |m: u32| Timestamp::from_ymd_hms(2026, 6, 11, 8 + m / 60, m % 60, 0);
    let sparse = Trace::new(vec![
        PresenceInterval::new(TransitionTaken::Unknown, h.triage, t(0), t(20)),
        PresenceInterval::new(TransitionTaken::Unknown, h.recovery, t(55), t(90)),
    ])
    .expect("chronological");
    let outcome = infer_missing_cells(&h.space, &sparse, |_| AnnotationSet::new());
    println!(
        "\nsparse tag trace densified: {} inferred stay(s):",
        outcome.inferred.len()
    );
    for p in outcome.trace.intervals() {
        println!("  {} [{}]", p, h.space.cell(p.cell).expect("cell").key);
    }
    let _ = h.sterile_corridor;
}
