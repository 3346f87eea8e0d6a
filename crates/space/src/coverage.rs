//! Full-coverage auditing.
//!
//! "An interesting space modeling decision concerns whether or not to assume
//! that the spatial region represented by a node in layer i+1 is fully
//! covered by the union of the spatial regions represented by its child
//! nodes in layer i. [...] it is often an unrealistic assumption. In Figure
//! 4 for instance, the RoIs of the displayed exhibits do not completely
//! cover their room's surface." (§4.2)
//!
//! This module measures the covered fraction so a model can *state* its
//! coverage instead of assuming it.

use sitm_geometry::relate::overlap_fraction;
use sitm_graph::CellRef;

use crate::hierarchy::LayerHierarchy;
use crate::model::IndoorSpace;

/// Coverage of one parent cell by its hierarchy children.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    /// The parent cell.
    pub parent: CellRef,
    /// Number of children considered.
    pub children: usize,
    /// Children that carry geometry (only those contribute to the fraction).
    pub children_with_geometry: usize,
    /// Fraction of the parent's area covered by children, in `[0, 1]`.
    /// `None` when the parent has no geometry.
    pub covered_fraction: Option<f64>,
}

impl CoverageReport {
    /// True when the children tile the parent completely (within 0.1%).
    pub fn is_full_coverage(&self) -> bool {
        self.covered_fraction.is_some_and(|f| f >= 0.999)
    }
}

/// Measures how much of `parent`'s footprint its hierarchy children cover.
///
/// Assumes sibling cells do not overlap (the IndoorGML cell-space axiom
/// `c_i ∩ c_j = ∅`), so the covered fraction is the sum of per-child
/// overlap fractions. Children clipped against a *convex* parent are exact;
/// a concave parent falls back to full child areas (children are expected
/// to lie inside their parent — `audit_joints_against_geometry` verifies
/// that independently).
pub fn coverage_of(
    space: &IndoorSpace,
    hierarchy: &LayerHierarchy,
    parent: CellRef,
) -> CoverageReport {
    let children = hierarchy.children_of(space, parent);
    let parent_cell = space.cell(parent);
    let parent_poly = parent_cell.and_then(|c| c.geometry.as_ref());

    let mut with_geometry = 0;
    let covered_fraction = parent_poly.map(|pp| {
        let parent_area = pp.area();
        let mut covered = 0.0;
        for child in &children {
            let Some(cp) = space.cell(*child).and_then(|c| c.geometry.as_ref()) else {
                continue;
            };
            with_geometry += 1;
            let child_in_parent = if pp.is_convex() {
                overlap_fraction(cp, pp) * cp.area()
            } else {
                cp.area()
            };
            covered += child_in_parent;
        }
        (covered / parent_area).min(1.0)
    });

    CoverageReport {
        parent,
        children: children.len(),
        children_with_geometry: with_geometry,
        covered_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Cell, CellClass};
    use crate::hierarchy::core_hierarchy;
    use crate::joint::JointRelation;
    use crate::layer::LayerKind;
    use sitm_geometry::{Point, Polygon};

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Polygon {
        Polygon::rectangle(Point::new(x0, y0), Point::new(x1, y1)).unwrap()
    }

    /// Builds building/floor/room model; the floor is a 10x10 square, rooms
    /// cover a configurable share of it.
    fn model_with_rooms(rooms: &[(f64, f64, f64, f64)]) -> (IndoorSpace, LayerHierarchy, CellRef) {
        let mut s = IndoorSpace::new();
        let lb = s.add_layer("buildings", LayerKind::Building);
        let lf = s.add_layer("floors", LayerKind::Floor);
        let lr = s.add_layer("rooms", LayerKind::Room);
        let b = s
            .add_cell(lb, Cell::new("b", "B", CellClass::Building))
            .unwrap();
        let f = s
            .add_cell(
                lf,
                Cell::new("f", "F", CellClass::Floor)
                    .on_floor(0)
                    .with_geometry(rect(0.0, 0.0, 10.0, 10.0)),
            )
            .unwrap();
        s.add_joint(b, f, JointRelation::Covers).unwrap();
        for (i, &(x0, y0, x1, y1)) in rooms.iter().enumerate() {
            let r = s
                .add_cell(
                    lr,
                    Cell::new(format!("r{i}"), format!("Room {i}"), CellClass::Room)
                        .on_floor(0)
                        .with_geometry(rect(x0, y0, x1, y1)),
                )
                .unwrap();
            s.add_joint(f, r, JointRelation::Covers).unwrap();
        }
        let h = core_hierarchy(&s).unwrap();
        (s, h, f)
    }

    #[test]
    fn full_tiling_reports_full_coverage() {
        let (s, h, f) = model_with_rooms(&[(0.0, 0.0, 5.0, 10.0), (5.0, 0.0, 10.0, 10.0)]);
        let report = coverage_of(&s, &h, f);
        assert_eq!(report.children, 2);
        assert_eq!(report.children_with_geometry, 2);
        assert!((report.covered_fraction.unwrap() - 1.0).abs() < 1e-9);
        assert!(report.is_full_coverage());
    }

    #[test]
    fn partial_tiling_reports_fraction() {
        // One 5x10 room out of a 10x10 floor: 50%.
        let (s, h, f) = model_with_rooms(&[(0.0, 0.0, 5.0, 10.0)]);
        let report = coverage_of(&s, &h, f);
        assert!((report.covered_fraction.unwrap() - 0.5).abs() < 1e-9);
        assert!(!report.is_full_coverage());
    }

    #[test]
    fn rois_not_covering_room_fig4() {
        // The Fig. 4 situation: RoIs inside a zone cover it only partially.
        let (s, h, f) = model_with_rooms(&[(1.0, 1.0, 3.0, 3.0), (6.0, 6.0, 8.0, 9.0)]);
        let report = coverage_of(&s, &h, f);
        let expected = (4.0 + 6.0) / 100.0;
        assert!((report.covered_fraction.unwrap() - expected).abs() < 1e-9);
        assert!(!report.is_full_coverage());
    }

    #[test]
    fn child_overflowing_parent_counts_only_overlap() {
        // A room half inside the floor contributes only its inner half.
        let (s, h, f) = model_with_rooms(&[(8.0, 0.0, 12.0, 10.0)]);
        let report = coverage_of(&s, &h, f);
        assert!((report.covered_fraction.unwrap() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn parent_without_geometry_reports_none() {
        let mut s = IndoorSpace::new();
        let lb = s.add_layer("buildings", LayerKind::Building);
        let lf = s.add_layer("floors", LayerKind::Floor);
        s.add_layer("rooms", LayerKind::Room);
        let b = s
            .add_cell(lb, Cell::new("b", "B", CellClass::Building))
            .unwrap();
        let f = s
            .add_cell(lf, Cell::new("f", "F", CellClass::Floor))
            .unwrap();
        s.add_joint(b, f, JointRelation::Covers).unwrap();
        let h = core_hierarchy(&s).unwrap();
        let report = coverage_of(&s, &h, b);
        assert_eq!(report.covered_fraction, None);
        assert!(!report.is_full_coverage());
    }

    #[test]
    fn children_without_geometry_are_counted_separately() {
        let (mut s, h, f) = model_with_rooms(&[(0.0, 0.0, 5.0, 10.0)]);
        let lr = s.find_layer(&LayerKind::Room).unwrap();
        let bare = s
            .add_cell(lr, Cell::new("bare", "No geometry", CellClass::Room))
            .unwrap();
        s.add_joint(f, bare, JointRelation::Covers).unwrap();
        let report = coverage_of(&s, &h, f);
        assert_eq!(report.children, 2);
        assert_eq!(report.children_with_geometry, 1);
        assert!((report.covered_fraction.unwrap() - 0.5).abs() < 1e-9);
    }
}
