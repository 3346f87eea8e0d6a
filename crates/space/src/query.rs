//! Navigation queries over one layer's accessibility NRG.

use sitm_graph::{paths, traversal, CellRef, LayerIdx};

use crate::model::IndoorSpace;
use crate::transition::Transition;

/// Navigation queries; implemented for [`IndoorSpace`].
pub trait SpaceQuery {
    /// True if `to` can be reached from `from` by following directed
    /// accessibility transitions (both cells must be in the same layer).
    fn accessible(&self, from: CellRef, to: CellRef) -> bool;

    /// Cells reachable from `from` within its layer (including itself), in
    /// BFS order.
    fn reachable_cells(&self, from: CellRef) -> Vec<CellRef>;

    /// Shortest route (fewest transitions; ties broken by insertion order)
    /// from `from` to `to`, as the visited cell sequence.
    fn route(&self, from: CellRef, to: CellRef) -> Option<Vec<CellRef>>;

    /// Shortest route weighted by transition cost hints (unknown hints count
    /// as one second).
    fn route_by_cost(&self, from: CellRef, to: CellRef) -> Option<(f64, Vec<CellRef>)>;

    /// Cells that lie on **every** route from `from` to `to` — the paper's
    /// Fig. 6 inference primitive. Excludes the endpoints; `None` when no
    /// route exists.
    fn unavoidable_between(&self, from: CellRef, to: CellRef) -> Option<Vec<CellRef>>;

    /// Cells of `layer` with no outgoing transitions (dead ends / exits).
    fn sinks(&self, layer: LayerIdx) -> Vec<CellRef>;

    /// Cells of `layer` with no incoming transitions (entry-only cells).
    fn sources(&self, layer: LayerIdx) -> Vec<CellRef>;
}

fn weight(t: &Transition) -> f64 {
    if t.cost_hint > 0.0 {
        t.cost_hint
    } else {
        1.0
    }
}

impl SpaceQuery for IndoorSpace {
    fn accessible(&self, from: CellRef, to: CellRef) -> bool {
        if from.layer != to.layer {
            return false;
        }
        self.nrg(from.layer)
            .is_some_and(|g| traversal::is_reachable(g, from.node, to.node))
    }

    fn reachable_cells(&self, from: CellRef) -> Vec<CellRef> {
        self.nrg(from.layer)
            .map(|g| {
                traversal::bfs_order(g, from.node)
                    .into_iter()
                    .map(|n| CellRef::new(from.layer, n))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn route(&self, from: CellRef, to: CellRef) -> Option<Vec<CellRef>> {
        if from.layer != to.layer {
            return None;
        }
        let g = self.nrg(from.layer)?;
        let sp = paths::shortest_path(g, from.node, to.node, |_, _| 1.0).ok()?;
        Some(
            sp.nodes
                .into_iter()
                .map(|n| CellRef::new(from.layer, n))
                .collect(),
        )
    }

    fn route_by_cost(&self, from: CellRef, to: CellRef) -> Option<(f64, Vec<CellRef>)> {
        if from.layer != to.layer {
            return None;
        }
        let g = self.nrg(from.layer)?;
        let sp = paths::shortest_path(g, from.node, to.node, |_, t| weight(t)).ok()?;
        Some((
            sp.cost,
            sp.nodes
                .into_iter()
                .map(|n| CellRef::new(from.layer, n))
                .collect(),
        ))
    }

    fn unavoidable_between(&self, from: CellRef, to: CellRef) -> Option<Vec<CellRef>> {
        if from.layer != to.layer {
            return None;
        }
        let g = self.nrg(from.layer)?;
        paths::unavoidable_nodes(g, from.node, to.node)
            .ok()
            .map(|nodes| {
                nodes
                    .into_iter()
                    .map(|n| CellRef::new(from.layer, n))
                    .collect()
            })
    }

    fn sinks(&self, layer: LayerIdx) -> Vec<CellRef> {
        self.nrg(layer)
            .map(|g| {
                g.node_ids()
                    .filter(|&n| g.out_degree(n) == 0)
                    .map(|n| CellRef::new(layer, n))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn sources(&self, layer: LayerIdx) -> Vec<CellRef> {
        self.nrg(layer)
            .map(|g| {
                g.node_ids()
                    .filter(|&n| g.in_degree(n) == 0)
                    .map(|n| CellRef::new(layer, n))
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Cell, CellClass};
    use crate::layer::LayerKind;
    use crate::transition::{Transition, TransitionKind};

    /// The Fig. 6 shape: E -> P -> S -> C chain (one way), with S <-> P
    /// backtracking allowed.
    fn chain_space() -> (IndoorSpace, CellRef, CellRef, CellRef, CellRef) {
        let mut s = IndoorSpace::new();
        let zones = s.add_layer("zones", LayerKind::Thematic);
        let e = s
            .add_cell(zones, Cell::new("E", "Exhibition", CellClass::Exhibition))
            .unwrap();
        let p = s
            .add_cell(zones, Cell::new("P", "Passage", CellClass::Corridor))
            .unwrap();
        let sv = s
            .add_cell(zones, Cell::new("S", "Shops", CellClass::Shop))
            .unwrap();
        let c = s
            .add_cell(zones, Cell::new("C", "Carrousel exit", CellClass::Exit))
            .unwrap();
        s.add_transition(
            e,
            p,
            Transition::named(TransitionKind::Checkpoint, "checkpoint002"),
        )
        .unwrap();
        s.add_transition_pair(p, sv, Transition::new(TransitionKind::Opening))
            .unwrap();
        s.add_transition(sv, c, Transition::new(TransitionKind::Checkpoint))
            .unwrap();
        (s, e, p, sv, c)
    }

    #[test]
    fn accessibility_follows_direction() {
        let (s, e, _, _, c) = chain_space();
        assert!(s.accessible(e, c));
        assert!(!s.accessible(c, e), "exit is one-way");
    }

    #[test]
    fn reachable_cells_in_bfs_order() {
        let (s, e, p, sv, c) = chain_space();
        assert_eq!(s.reachable_cells(e), vec![e, p, sv, c]);
        assert_eq!(s.reachable_cells(c), vec![c]);
    }

    #[test]
    fn route_reconstructs_cell_sequence() {
        let (s, e, p, sv, c) = chain_space();
        assert_eq!(s.route(e, c), Some(vec![e, p, sv, c]));
        assert_eq!(s.route(c, e), None);
    }

    #[test]
    fn route_by_cost_uses_hints() {
        let mut s = IndoorSpace::new();
        let l = s.add_layer("rooms", LayerKind::Room);
        let a = s.add_cell(l, Cell::new("a", "A", CellClass::Room)).unwrap();
        let b = s.add_cell(l, Cell::new("b", "B", CellClass::Room)).unwrap();
        let c = s.add_cell(l, Cell::new("c", "C", CellClass::Room)).unwrap();
        // Direct slow corridor vs two fast doors.
        s.add_transition(a, c, Transition::new(TransitionKind::Door).with_cost(100.0))
            .unwrap();
        s.add_transition(a, b, Transition::new(TransitionKind::Door).with_cost(10.0))
            .unwrap();
        s.add_transition(b, c, Transition::new(TransitionKind::Door).with_cost(10.0))
            .unwrap();
        let (cost, route) = s.route_by_cost(a, c).unwrap();
        assert_eq!(cost, 20.0);
        assert_eq!(route, vec![a, b, c]);
        // Hop-count route prefers the direct edge.
        assert_eq!(s.route(a, c).unwrap(), vec![a, c]);
    }

    #[test]
    fn unavoidable_matches_fig6() {
        let (s, e, p, sv, c) = chain_space();
        assert_eq!(s.unavoidable_between(e, c), Some(vec![p, sv]));
        assert_eq!(s.unavoidable_between(e, sv), Some(vec![p]));
        assert_eq!(s.unavoidable_between(c, e), None, "no reverse route");
    }

    #[test]
    fn sinks_and_sources() {
        let (s, e, _, _, c) = chain_space();
        let zones = e.layer;
        assert_eq!(s.sinks(zones), vec![c]);
        assert_eq!(s.sources(zones), vec![e]);
    }

    #[test]
    fn cross_layer_queries_are_none() {
        let (mut s, e, ..) = chain_space();
        let other = s.add_layer("rooms", LayerKind::Room);
        let r = s
            .add_cell(other, Cell::new("r", "R", CellClass::Room))
            .unwrap();
        assert!(!s.accessible(e, r));
        assert_eq!(s.route(e, r), None);
        assert_eq!(s.unavoidable_between(e, r), None);
    }
}
