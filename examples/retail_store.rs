//! Retail-store analytics: the SITM outside the museum.
//!
//! §1 motivates the model for "retail stores, arenas, hospitals,
//! airports, universities". This example builds a two-floor department
//! store, simulates shopper journeys over its accessibility NRG, and runs
//! the mining stack: frequent paths at department vs floor granularity,
//! an order-2 next-department model vs the order-1 baseline, and the
//! origin–destination matrix that exposes the checkout funnel.
//!
//! Run with: `cargo run --example retail_store`

use sitm::core::{PresenceInterval, Timestamp, Trace, TransitionTaken};
use sitm::mining::{mine_at_layers, MarkovModel, NGramModel, OdMatrix};
use sitm::sim::SimRng;
use sitm::space::{
    lift_trace, Cell, CellClass, CellRef, IndoorSpace, JointRelation, LayerHierarchy, LayerKind,
    Transition, TransitionKind,
};

struct Store {
    space: IndoorSpace,
    hierarchy: LayerHierarchy,
    dept_layer: sitm::graph::LayerIdx,
    floor_layer: sitm::graph::LayerIdx,
    depts: Vec<(&'static str, CellRef)>,
}

/// Two floors, eight departments; escalator links the atria, checkout has
/// a one-way exit gate (the same asymmetric-accessibility modelling as
/// the Salle des États rule).
fn build_store() -> Store {
    let mut space = IndoorSpace::new();
    let buildings = space.add_layer("building", LayerKind::Building);
    let floors = space.add_layer("floors", LayerKind::Floor);
    let depts = space.add_layer("departments", LayerKind::Room);

    let store = space
        .add_cell(
            buildings,
            Cell::new("store", "Departments & Co", CellClass::Building),
        )
        .expect("unique");
    let ground = space
        .add_cell(
            floors,
            Cell::new("floor-0", "Ground floor", CellClass::Floor).on_floor(0),
        )
        .expect("unique");
    let upper = space
        .add_cell(
            floors,
            Cell::new("floor-1", "First floor", CellClass::Floor).on_floor(1),
        )
        .expect("unique");
    space
        .add_joint(store, ground, JointRelation::Covers)
        .expect("cross-layer");
    space
        .add_joint(store, upper, JointRelation::Covers)
        .expect("cross-layer");

    let plan: &[(&str, &str, i8, CellClass)] = &[
        ("entrance", "Entrance atrium", 0, CellClass::Lobby),
        ("grocery", "Grocery", 0, CellClass::Room),
        ("electronics", "Electronics", 0, CellClass::Room),
        ("checkout", "Checkout lanes", 0, CellClass::Shop),
        ("atrium-1", "Upper atrium", 1, CellClass::Lobby),
        ("fashion", "Fashion", 1, CellClass::Room),
        ("home", "Home & Garden", 1, CellClass::Room),
        ("toys", "Toys", 1, CellClass::Room),
    ];
    let mut cells = Vec::new();
    for (key, name, floor, class) in plan {
        let r = space
            .add_cell(
                depts,
                Cell::new(*key, *name, class.clone()).on_floor(*floor),
            )
            .expect("unique");
        let parent = if *floor == 0 { ground } else { upper };
        space
            .add_joint(parent, r, JointRelation::Contains)
            .expect("cross-layer");
        cells.push((*key, r));
    }
    let at = |key: &str| cells.iter().find(|(k, _)| *k == key).expect("present").1;

    // Ground-floor openings.
    for (a, b) in [
        ("entrance", "grocery"),
        ("entrance", "electronics"),
        ("grocery", "electronics"),
        ("grocery", "checkout"),
        ("electronics", "checkout"),
    ] {
        space
            .add_transition_pair(at(a), at(b), Transition::new(TransitionKind::Opening))
            .expect("same layer");
    }
    // Upper-floor openings.
    for (a, b) in [
        ("atrium-1", "fashion"),
        ("atrium-1", "home"),
        ("atrium-1", "toys"),
        ("fashion", "home"),
    ] {
        space
            .add_transition_pair(at(a), at(b), Transition::new(TransitionKind::Opening))
            .expect("same layer");
    }
    // Escalators between atria.
    space
        .add_transition_pair(
            at("entrance"),
            at("atrium-1"),
            Transition::named(TransitionKind::Stair, "escalator"),
        )
        .expect("same layer");
    // One-way exit: checkout → entrance only.
    space
        .add_transition(
            at("checkout"),
            at("entrance"),
            Transition::named(TransitionKind::Checkpoint, "exit-gate"),
        )
        .expect("same layer");

    let hierarchy = LayerHierarchy::new(vec![buildings, floors, depts]);
    Store {
        space,
        hierarchy,
        dept_layer: depts,
        floor_layer: floors,
        depts: cells,
    }
}

/// Simulates one shopper: enter, browse a few departments along the
/// accessibility NRG, pay, leave. Grocery shoppers mostly stay downstairs;
/// fashion shoppers head upstairs first.
fn shopper_trace(store: &Store, rng: &mut SimRng, start: i64) -> Trace {
    let at = |key: &str| {
        store
            .depts
            .iter()
            .find(|(k, _)| *k == key)
            .expect("present")
            .1
    };
    let mut path: Vec<&str> = vec!["entrance"];
    if rng.unit() < 0.45 {
        // Upstairs mission first.
        path.push("atrium-1");
        path.push(if rng.unit() < 0.5 { "fashion" } else { "toys" });
        if rng.unit() < 0.5 {
            path.push("home");
        }
        path.push("atrium-1");
        path.push("entrance");
    }
    path.push("grocery");
    if rng.unit() < 0.55 {
        path.push("electronics");
    }
    path.push("checkout");
    path.push("entrance");

    let mut t = start;
    let stays = path
        .iter()
        .map(|key| {
            let dwell = 60 + (rng.unit() * 540.0) as i64;
            let stay = PresenceInterval::new(
                TransitionTaken::Unknown,
                at(key),
                Timestamp(t),
                Timestamp(t + dwell),
            );
            t += dwell;
            stay
        })
        .collect();
    Trace::new(stays).expect("ordered stays")
}

fn main() {
    let store = build_store();
    println!(
        "store model: {} departments on 2 floors; checkout exit is one-way: {}",
        store.depts.len(),
        store
            .space
            .nrg(store.dept_layer)
            .expect("layer exists")
            .edges_between(
                store
                    .depts
                    .iter()
                    .find(|(k, _)| *k == "entrance")
                    .expect("present")
                    .1
                    .node,
                store
                    .depts
                    .iter()
                    .find(|(k, _)| *k == "checkout")
                    .expect("present")
                    .1
                    .node,
            )
            .next()
            .is_none()
    );

    // ---- 1. Simulate a day of shoppers. -----------------------------------
    let mut rng = SimRng::seeded(42);
    let traces: Vec<Trace> = (0..400)
        .map(|i| shopper_trace(&store, &mut rng, i * 120))
        .collect();
    println!("simulated {} shopper journeys", traces.len());

    // ---- 2. Multi-granularity patterns: departments vs floors. -----------
    let mined = mine_at_layers(
        &store.space,
        &store.hierarchy,
        &traces,
        &[store.dept_layer, store.floor_layer],
        0.30,
        4,
    )
    .expect("store hierarchy lifts");
    for level in &mined {
        let name = if level.layer == store.dept_layer {
            "department"
        } else {
            "floor"
        };
        println!(
            "\ntop {name}-level patterns ({} sequences):",
            level.sequences
        );
        for p in level.patterns.iter().filter(|p| p.items.len() >= 2).take(5) {
            let labels: Vec<&str> = p
                .items
                .iter()
                .map(|&c| store.space.cell(c).map(|x| x.key.as_str()).unwrap_or("?"))
                .collect();
            println!("  {:<44} support {}", labels.join(" → "), p.support);
        }
    }

    // ---- 3. Next-department prediction: order 1 vs order 2. --------------
    let sequences: Vec<Vec<CellRef>> = traces.iter().map(|t| t.cell_sequence()).collect();
    let (train, test) = sequences.split_at(sequences.len() * 4 / 5);
    let markov = MarkovModel::fit(train);
    let bigram = NGramModel::fit(train, 2);
    println!(
        "\nnext-department accuracy: order-1 {:.3}, order-2 {:.3} (perplexity {:.2})",
        markov.accuracy(test),
        bigram.accuracy(test),
        bigram.perplexity(test),
    );

    // ---- 4. Origin–destination: everyone funnels through checkout. -------
    let od = OdMatrix::from_sequences(&sequences);
    println!("\norigin–destination rows:");
    for (o, d, count) in od.rows().into_iter().take(3) {
        let name = |c: &CellRef| {
            store
                .space
                .cell(*c)
                .map(|x| x.key.clone())
                .unwrap_or_default()
        };
        println!("  {:<10} → {:<10} ×{count}", name(o), name(d));
    }
    println!(
        "round-trip rate (exit where you entered): {:.2}",
        od.round_trip_rate()
    );

    // ---- 5. Floor lifting of one journey (the §3.2 inference). -----------
    let lifted = lift_trace(
        &store.space,
        &store.hierarchy,
        &traces[0],
        store.floor_layer,
    )
    .expect("lifts to floors");
    println!(
        "\nfirst journey: {} department stays → {} floor stays after lifting",
        traces[0].len(),
        lifted.len()
    );
}
