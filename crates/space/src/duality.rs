//! Poincaré-duality derivation of NRGs from cell geometry.
//!
//! "The Poincaré duality provides the means of mapping the physical indoor
//! space (embedded in a 2D/3D Euclidean primal space) into an adjacency NRG
//! (in the corresponding dual space). Therefore, a cell (e.g. room) becomes
//! a node and a cell boundary (e.g. a thin wall) becomes an edge." (§2.1)
//!
//! Given a layer whose cells carry footprints, [`derive_adjacency`] computes
//! the adjacency (meet) pairs and the length of each shared wall. A
//! connectivity NRG can then be derived by keeping pairs whose shared
//! boundary is long enough to host an opening.

use sitm_geometry::{relate_polygons, Polygon, SegmentIntersection, SpatialRelation};
use sitm_graph::{CellRef, LayerIdx};

use crate::model::IndoorSpace;

/// One derived adjacency: two same-layer cells whose footprints meet.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedAdjacency {
    /// First cell (lower node id).
    pub a: CellRef,
    /// Second cell.
    pub b: CellRef,
    /// Total length of the shared boundary (metres); 0 for corner-only
    /// contact.
    pub shared_boundary: f64,
}

/// Total length of boundary shared by two polygons (sum of collinear edge
/// overlaps).
pub fn shared_boundary_length(a: &Polygon, b: &Polygon) -> f64 {
    let mut total = 0.0;
    for ea in a.edges() {
        for eb in b.edges() {
            if let SegmentIntersection::Collinear(shared) = ea.intersect(eb) {
                total += shared.length();
            }
        }
    }
    total
}

/// Derives the adjacency pairs of one layer from cell footprints. Cells on
/// different floors never become adjacent (the 2.5D rule: floors only
/// connect through explicit vertical transitions). Pairs are reported once,
/// with `a.node < b.node`.
pub fn derive_adjacency(space: &IndoorSpace, layer: LayerIdx) -> Vec<DerivedAdjacency> {
    let cells: Vec<(CellRef, &crate::cell::Cell)> = space
        .cells_in(layer)
        .filter(|(_, c)| c.geometry.is_some())
        .collect();
    let mut out = Vec::new();
    for i in 0..cells.len() {
        for j in (i + 1)..cells.len() {
            let (ra, ca) = cells[i];
            let (rb, cb) = cells[j];
            if ca.floor.is_some() && cb.floor.is_some() && ca.floor != cb.floor {
                continue;
            }
            let pa = ca.geometry.as_ref().expect("filtered to Some");
            let pb = cb.geometry.as_ref().expect("filtered to Some");
            if relate_polygons(pa, pb) == SpatialRelation::Meet {
                out.push(DerivedAdjacency {
                    a: ra,
                    b: rb,
                    shared_boundary: shared_boundary_length(pa, pb),
                });
            }
        }
    }
    out
}

/// Derives the *connectivity* pairs of a layer: adjacency (meet) pairs
/// whose shared boundary is at least `min_opening` metres — long enough to
/// host a door. IndoorGML: "connectivity suggests that there exists an
/// opening in the common boundary of two cells" (§2.1); with geometry only,
/// a minimum opening width is the operational criterion.
pub fn derive_connectivity(
    space: &IndoorSpace,
    layer: LayerIdx,
    min_opening: f64,
) -> Vec<DerivedAdjacency> {
    derive_adjacency(space, layer)
        .into_iter()
        .filter(|a| a.shared_boundary >= min_opening)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Cell, CellClass};
    use crate::layer::LayerKind;
    use sitm_geometry::Point;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Polygon {
        Polygon::rectangle(Point::new(x0, y0), Point::new(x1, y1)).unwrap()
    }

    #[test]
    fn shared_wall_length_of_rectangles() {
        let a = rect(0.0, 0.0, 4.0, 3.0);
        let b = rect(4.0, 1.0, 8.0, 5.0);
        // Shared wall x=4 from y=1 to y=3.
        assert!((shared_boundary_length(&a, &b) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn corner_contact_has_zero_shared_length() {
        let a = rect(0.0, 0.0, 1.0, 1.0);
        let b = rect(1.0, 1.0, 2.0, 2.0);
        assert_eq!(shared_boundary_length(&a, &b), 0.0);
    }

    #[test]
    fn derive_adjacency_finds_wall_neighbours() {
        let mut s = IndoorSpace::new();
        let l = s.add_layer("rooms", LayerKind::Room);
        let a = s
            .add_cell(
                l,
                Cell::new("a", "A", CellClass::Room)
                    .on_floor(0)
                    .with_geometry(rect(0.0, 0.0, 4.0, 4.0)),
            )
            .unwrap();
        let b = s
            .add_cell(
                l,
                Cell::new("b", "B", CellClass::Room)
                    .on_floor(0)
                    .with_geometry(rect(4.0, 0.0, 8.0, 4.0)),
            )
            .unwrap();
        let c = s
            .add_cell(
                l,
                Cell::new("c", "C", CellClass::Room)
                    .on_floor(0)
                    .with_geometry(rect(20.0, 0.0, 24.0, 4.0)),
            )
            .unwrap();
        let adj = derive_adjacency(&s, l);
        assert_eq!(adj.len(), 1);
        assert_eq!((adj[0].a, adj[0].b), (a, b));
        assert!((adj[0].shared_boundary - 4.0).abs() < 1e-9);
        assert!(!adj.iter().any(|d| d.a == c || d.b == c));
    }

    #[test]
    fn different_floors_are_never_adjacent() {
        // Same footprint, stacked floors: primal-space polygons coincide but
        // the 2.5D rule keeps them apart.
        let mut s = IndoorSpace::new();
        let l = s.add_layer("rooms", LayerKind::Room);
        s.add_cell(
            l,
            Cell::new("low", "Low", CellClass::Room)
                .on_floor(0)
                .with_geometry(rect(0.0, 0.0, 4.0, 4.0)),
        )
        .unwrap();
        s.add_cell(
            l,
            Cell::new("high", "High", CellClass::Room)
                .on_floor(1)
                .with_geometry(rect(4.0, 0.0, 8.0, 4.0)),
        )
        .unwrap();
        assert!(derive_adjacency(&s, l).is_empty());
    }

    #[test]
    fn cells_without_geometry_are_skipped() {
        let mut s = IndoorSpace::new();
        let l = s.add_layer("rooms", LayerKind::Room);
        s.add_cell(l, Cell::new("bare", "Bare", CellClass::Room))
            .unwrap();
        s.add_cell(
            l,
            Cell::new("geo", "Geo", CellClass::Room)
                .on_floor(0)
                .with_geometry(rect(0.0, 0.0, 1.0, 1.0)),
        )
        .unwrap();
        assert!(derive_adjacency(&s, l).is_empty());
    }

    #[test]
    fn connectivity_requires_a_wide_enough_wall() {
        let mut s = IndoorSpace::new();
        let l = s.add_layer("rooms", LayerKind::Room);
        // a|b share a 4 m wall; b touches c only along 0.5 m.
        s.add_cell(
            l,
            Cell::new("a", "A", CellClass::Room)
                .on_floor(0)
                .with_geometry(rect(0.0, 0.0, 4.0, 4.0)),
        )
        .unwrap();
        s.add_cell(
            l,
            Cell::new("b", "B", CellClass::Room)
                .on_floor(0)
                .with_geometry(rect(4.0, 0.0, 8.0, 4.0)),
        )
        .unwrap();
        s.add_cell(
            l,
            Cell::new("c", "C", CellClass::Room)
                .on_floor(0)
                .with_geometry(rect(8.0, 3.5, 12.0, 7.5)),
        )
        .unwrap();
        let adjacency = derive_adjacency(&s, l);
        assert_eq!(adjacency.len(), 2, "both contacts are adjacency");
        let connectivity = derive_connectivity(&s, l, 0.8);
        assert_eq!(connectivity.len(), 1, "only the 4 m wall can host a door");
        assert!((connectivity[0].shared_boundary - 4.0).abs() < 1e-9);
    }

    #[test]
    fn row_of_rooms_yields_chain() {
        let mut s = IndoorSpace::new();
        let l = s.add_layer("rooms", LayerKind::Room);
        for i in 0..4 {
            let x0 = i as f64 * 5.0;
            s.add_cell(
                l,
                Cell::new(format!("r{i}"), format!("R{i}"), CellClass::Room)
                    .on_floor(0)
                    .with_geometry(rect(x0, 0.0, x0 + 5.0, 5.0)),
            )
            .unwrap();
        }
        let adj = derive_adjacency(&s, l);
        assert_eq!(adj.len(), 3, "a row of four rooms shares three walls");
        for d in &adj {
            assert!((d.shared_boundary - 5.0).abs() < 1e-9);
        }
    }
}
