//! Layer hierarchies and their validation.
//!
//! The paper (§3.2) defines a layer hierarchy as "k ≥ 2 ordered layers of G
//! that are only consecutively connected by joint edges", restricted to
//! `contains`/`covers` relations with top→bottom direction, excluding
//! `overlap` and `equal` "to prohibit node repetition and instead favor a
//! proper hierarchy". The *core* hierarchy is Building → Floor → Room
//! (3 ≤ k), optionally extended with a BuildingComplex root and a RoI leaf.
//! Joint edges "do not skip layers".

use sitm_graph::{CellRef, LayerIdx};

use crate::joint::JointRelation;
use crate::layer::LayerKind;
use crate::model::IndoorSpace;

/// An ordered hierarchy of layers, root (coarsest) first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerHierarchy {
    layers: Vec<LayerIdx>,
}

/// Severity of a hierarchy issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueSeverity {
    /// Violates the paper's hierarchy definition.
    Error,
    /// Permitted but noteworthy (e.g. non-full coverage).
    Warning,
}

/// A finding of [`validate_hierarchy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierarchyIssue {
    /// Hierarchies need at least two layers.
    TooFewLayers {
        /// The number of layers found.
        found: usize,
    },
    /// A joint edge connects hierarchy layers that are not consecutive.
    LayerSkip {
        /// Source cell.
        from: CellRef,
        /// Target cell.
        to: CellRef,
    },
    /// A joint edge inside the hierarchy carries a non-parthood relation.
    BadRelation {
        /// Source cell.
        from: CellRef,
        /// Target cell.
        to: CellRef,
        /// The offending relation.
        relation: JointRelation,
    },
    /// A hierarchical joint edge points bottom→top instead of top→bottom.
    BadDirection {
        /// Source cell.
        from: CellRef,
        /// Target cell.
        to: CellRef,
    },
    /// A cell has more than one parent in the layer above.
    MultipleParents {
        /// The cell with several parents.
        cell: CellRef,
        /// How many parents were found.
        count: usize,
    },
    /// A cell below the root layer has no parent (legal — the paper rejects
    /// the full-coverage hypothesis — but worth surfacing).
    OrphanCell {
        /// The parentless cell.
        cell: CellRef,
    },
    /// The core hierarchy requires Building, Floor and Room layers.
    MissingCoreLayer {
        /// Which kind is missing.
        kind: LayerKind,
    },
    /// Two hierarchy layers share the same core rank.
    DuplicateRank {
        /// The duplicated rank.
        rank: u8,
    },
}

impl HierarchyIssue {
    /// Severity of this issue.
    pub fn severity(&self) -> IssueSeverity {
        match self {
            HierarchyIssue::OrphanCell { .. } => IssueSeverity::Warning,
            _ => IssueSeverity::Error,
        }
    }
}

impl std::fmt::Display for HierarchyIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HierarchyIssue::TooFewLayers { found } => {
                write!(f, "hierarchy has {found} layer(s); at least 2 required")
            }
            HierarchyIssue::LayerSkip { from, to } => {
                write!(f, "joint edge {from} -> {to} skips hierarchy layers")
            }
            HierarchyIssue::BadRelation { from, to, relation } => {
                write!(f, "joint edge {from} -> {to} has relation {relation}; only contains/covers allowed")
            }
            HierarchyIssue::BadDirection { from, to } => {
                write!(f, "joint edge {from} -> {to} points bottom->top")
            }
            HierarchyIssue::MultipleParents { cell, count } => {
                write!(
                    f,
                    "cell {cell} has {count} parents; proper hierarchies allow one"
                )
            }
            HierarchyIssue::OrphanCell { cell } => {
                write!(f, "cell {cell} has no parent in the layer above")
            }
            HierarchyIssue::MissingCoreLayer { kind } => {
                write!(f, "core hierarchy layer {kind} is missing")
            }
            HierarchyIssue::DuplicateRank { rank } => {
                write!(f, "two layers share core hierarchy rank {rank}")
            }
        }
    }
}

impl LayerHierarchy {
    /// Builds a hierarchy from explicitly ordered layers (root first).
    pub fn new(layers: Vec<LayerIdx>) -> Self {
        LayerHierarchy { layers }
    }

    /// Ordered layers, root first.
    pub fn layers(&self) -> &[LayerIdx] {
        &self.layers
    }

    /// Number of layers (the paper's `k`).
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the hierarchy has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Position of `layer` in the hierarchy, if present.
    pub fn position(&self, layer: LayerIdx) -> Option<usize> {
        self.layers.iter().position(|&l| l == layer)
    }

    /// The unique parent of `cell` in the layer directly above, if any.
    pub fn parent_of(&self, space: &IndoorSpace, cell: CellRef) -> Option<CellRef> {
        let pos = self.position(cell.layer)?;
        if pos == 0 {
            return None;
        }
        let parent_layer = self.layers[pos - 1];
        space
            .joints_to(cell)
            .filter(|j| j.from.0 == parent_layer && j.payload.is_hierarchical())
            .map(|j| CellRef::new(j.from.0, j.from.1))
            .next()
    }

    /// All children of `cell` in the layer directly below.
    pub fn children_of(&self, space: &IndoorSpace, cell: CellRef) -> Vec<CellRef> {
        let Some(pos) = self.position(cell.layer) else {
            return Vec::new();
        };
        if pos + 1 >= self.layers.len() {
            return Vec::new();
        }
        let child_layer = self.layers[pos + 1];
        space
            .joints_from(cell)
            .filter(|j| j.to.0 == child_layer && j.payload.is_hierarchical())
            .map(|j| CellRef::new(j.to.0, j.to.1))
            .collect()
    }

    /// Chain of ancestors of `cell`, nearest first, root last.
    pub fn ancestors_of(&self, space: &IndoorSpace, cell: CellRef) -> Vec<CellRef> {
        let mut out = Vec::new();
        let mut cur = cell;
        while let Some(p) = self.parent_of(space, cur) {
            out.push(p);
            cur = p;
        }
        out
    }

    /// The ancestor of `cell` lying in `layer` (transitivity of parthood:
    /// "we allow inference of a MO's location at all levels of granularity
    /// above the detection data level", §3.2). Identity if `cell` is already
    /// in `layer`.
    pub fn ancestor_at(
        &self,
        space: &IndoorSpace,
        cell: CellRef,
        layer: LayerIdx,
    ) -> Option<CellRef> {
        if cell.layer == layer {
            return Some(cell);
        }
        let target = self.position(layer)?;
        let from = self.position(cell.layer)?;
        if target > from {
            return None; // descendant direction is one-to-many
        }
        let mut cur = cell;
        for _ in target..from {
            cur = self.parent_of(space, cur)?;
        }
        Some(cur)
    }

    /// All descendants of `cell` within `layer` (possibly several levels
    /// below).
    pub fn descendants_at(
        &self,
        space: &IndoorSpace,
        cell: CellRef,
        layer: LayerIdx,
    ) -> Vec<CellRef> {
        let Some(target) = self.position(layer) else {
            return Vec::new();
        };
        let Some(from) = self.position(cell.layer) else {
            return Vec::new();
        };
        if target <= from {
            return if target == from {
                vec![cell]
            } else {
                Vec::new()
            };
        }
        let mut frontier = vec![cell];
        for _ in from..target {
            let mut next = Vec::new();
            for c in frontier {
                next.extend(self.children_of(space, c));
            }
            frontier = next;
        }
        frontier
    }
}

/// Assembles the core hierarchy of a model from layer kinds (ranked
/// BuildingComplex → Building → Floor → Room → RoI), validating presence of
/// the three required layers and rank uniqueness.
pub fn core_hierarchy(space: &IndoorSpace) -> Result<LayerHierarchy, Vec<HierarchyIssue>> {
    let mut ranked: Vec<(u8, LayerIdx)> = space
        .layers()
        .filter_map(|(idx, l)| l.kind.hierarchy_rank().map(|r| (r, idx)))
        .collect();
    ranked.sort_by_key(|(r, _)| *r);

    let mut issues = Vec::new();
    for w in ranked.windows(2) {
        if w[0].0 == w[1].0 {
            issues.push(HierarchyIssue::DuplicateRank { rank: w[0].0 });
        }
    }
    for required in [LayerKind::Building, LayerKind::Floor, LayerKind::Room] {
        if space.find_layer(&required).is_none() {
            issues.push(HierarchyIssue::MissingCoreLayer { kind: required });
        }
    }
    if !issues.is_empty() {
        return Err(issues);
    }
    Ok(LayerHierarchy::new(
        ranked.into_iter().map(|(_, idx)| idx).collect(),
    ))
}

/// Validates a hierarchy against the paper's rules. Returns all issues
/// found (empty = fully valid; filter by [`HierarchyIssue::severity`] to
/// tolerate warnings).
pub fn validate_hierarchy(space: &IndoorSpace, hierarchy: &LayerHierarchy) -> Vec<HierarchyIssue> {
    let mut issues = Vec::new();
    if hierarchy.len() < 2 {
        issues.push(HierarchyIssue::TooFewLayers {
            found: hierarchy.len(),
        });
        return issues;
    }

    // Examine every joint edge touching two hierarchy layers.
    for j in space.joints() {
        let from = CellRef::new(j.from.0, j.from.1);
        let to = CellRef::new(j.to.0, j.to.1);
        let (Some(pf), Some(pt)) = (hierarchy.position(from.layer), hierarchy.position(to.layer))
        else {
            continue; // edge leaves the hierarchy (e.g. to a thematic layer)
        };
        // Normalize to top→bottom orientation for the checks.
        let (top_pos, bottom_pos, points_down) = if pf < pt {
            (pf, pt, true)
        } else {
            (pt, pf, false)
        };
        if bottom_pos - top_pos != 1 {
            issues.push(HierarchyIssue::LayerSkip { from, to });
            continue;
        }
        if !j.payload.is_hierarchical() {
            issues.push(HierarchyIssue::BadRelation {
                from,
                to,
                relation: *j.payload,
            });
            continue;
        }
        if !points_down {
            issues.push(HierarchyIssue::BadDirection { from, to });
        }
    }

    // Parent multiplicity and orphans, per non-root layer.
    for (level, &layer) in hierarchy.layers().iter().enumerate().skip(1) {
        let parent_layer = hierarchy.layers()[level - 1];
        for (cref, _) in space.cells_in(layer) {
            let parents = space
                .joints_to(cref)
                .filter(|j| j.from.0 == parent_layer && j.payload.is_hierarchical())
                .count();
            match parents {
                0 => issues.push(HierarchyIssue::OrphanCell { cell: cref }),
                1 => {}
                n => issues.push(HierarchyIssue::MultipleParents {
                    cell: cref,
                    count: n,
                }),
            }
        }
    }
    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Cell, CellClass};
    use crate::model::IndoorSpace;

    /// Building -> two floors -> rooms (2 on f0, 1 on f1).
    fn small_building() -> (IndoorSpace, LayerHierarchy) {
        let mut s = IndoorSpace::new();
        let lb = s.add_layer("buildings", LayerKind::Building);
        let lf = s.add_layer("floors", LayerKind::Floor);
        let lr = s.add_layer("rooms", LayerKind::Room);
        let b = s
            .add_cell(lb, Cell::new("b", "Building", CellClass::Building))
            .unwrap();
        let f0 = s
            .add_cell(lf, Cell::new("f0", "Floor 0", CellClass::Floor))
            .unwrap();
        let f1 = s
            .add_cell(lf, Cell::new("f1", "Floor 1", CellClass::Floor))
            .unwrap();
        let r0 = s
            .add_cell(lr, Cell::new("r0", "Room 0", CellClass::Room))
            .unwrap();
        let r1 = s
            .add_cell(lr, Cell::new("r1", "Room 1", CellClass::Room))
            .unwrap();
        let r2 = s
            .add_cell(lr, Cell::new("r2", "Room 2", CellClass::Room))
            .unwrap();
        s.add_joint(b, f0, JointRelation::Covers).unwrap();
        s.add_joint(b, f1, JointRelation::Covers).unwrap();
        s.add_joint(f0, r0, JointRelation::Contains).unwrap();
        s.add_joint(f0, r1, JointRelation::Covers).unwrap();
        s.add_joint(f1, r2, JointRelation::Contains).unwrap();
        let h = core_hierarchy(&s).unwrap();
        (s, h)
    }

    #[test]
    fn core_hierarchy_orders_by_rank() {
        let (s, h) = small_building();
        assert_eq!(h.len(), 3);
        let kinds: Vec<&LayerKind> = h
            .layers()
            .iter()
            .map(|&l| &s.layer(l).unwrap().kind)
            .collect();
        assert_eq!(
            kinds,
            vec![&LayerKind::Building, &LayerKind::Floor, &LayerKind::Room]
        );
    }

    #[test]
    fn valid_hierarchy_has_no_issues() {
        let (s, h) = small_building();
        assert!(validate_hierarchy(&s, &h).is_empty());
    }

    #[test]
    fn missing_core_layer_is_reported() {
        let mut s = IndoorSpace::new();
        s.add_layer("buildings", LayerKind::Building);
        s.add_layer("rooms", LayerKind::Room);
        let issues = core_hierarchy(&s).unwrap_err();
        assert!(issues.iter().any(
            |i| matches!(i, HierarchyIssue::MissingCoreLayer { kind } if *kind == LayerKind::Floor)
        ));
    }

    #[test]
    fn layer_skip_detected() {
        let (mut s, h) = small_building();
        let b = s.resolve("b").unwrap();
        let r0 = s.resolve("r0").unwrap();
        s.add_joint(b, r0, JointRelation::Contains).unwrap();
        let issues = validate_hierarchy(&s, &h);
        assert!(issues
            .iter()
            .any(|i| matches!(i, HierarchyIssue::LayerSkip { .. })));
    }

    #[test]
    fn bad_relation_detected() {
        let (mut s, h) = small_building();
        let f0 = s.resolve("f0").unwrap();
        // Add an extra room with an overlap joint from its floor.
        let lr = s.find_layer(&LayerKind::Room).unwrap();
        let rx = s
            .add_cell(lr, Cell::new("rx", "Odd", CellClass::Room))
            .unwrap();
        s.add_joint(f0, rx, JointRelation::Overlap).unwrap();
        let issues = validate_hierarchy(&s, &h);
        assert!(issues.iter().any(|i| matches!(
            i,
            HierarchyIssue::BadRelation {
                relation: JointRelation::Overlap,
                ..
            }
        )));
    }

    #[test]
    fn bad_direction_detected() {
        let (mut s, h) = small_building();
        let f0 = s.resolve("f0").unwrap();
        let lr = s.find_layer(&LayerKind::Room).unwrap();
        let rx = s
            .add_cell(lr, Cell::new("rx", "Odd", CellClass::Room))
            .unwrap();
        // Child -> parent "contains" is the wrong direction.
        s.add_joint(rx, f0, JointRelation::Contains).unwrap();
        let issues = validate_hierarchy(&s, &h);
        assert!(issues
            .iter()
            .any(|i| matches!(i, HierarchyIssue::BadDirection { .. })));
    }

    #[test]
    fn orphan_is_warning_not_error() {
        let (mut s, h) = small_building();
        let lr = s.find_layer(&LayerKind::Room).unwrap();
        s.add_cell(lr, Cell::new("lost", "Lost room", CellClass::Room))
            .unwrap();
        let issues = validate_hierarchy(&s, &h);
        assert_eq!(issues.len(), 1);
        assert!(matches!(issues[0], HierarchyIssue::OrphanCell { .. }));
        assert_eq!(issues[0].severity(), IssueSeverity::Warning);
    }

    #[test]
    fn multiple_parents_detected() {
        let (mut s, h) = small_building();
        let f1 = s.resolve("f1").unwrap();
        let r0 = s.resolve("r0").unwrap();
        s.add_joint(f1, r0, JointRelation::Contains).unwrap();
        let issues = validate_hierarchy(&s, &h);
        assert!(issues
            .iter()
            .any(|i| matches!(i, HierarchyIssue::MultipleParents { count: 2, .. })));
    }

    #[test]
    fn parent_and_ancestor_queries() {
        let (s, h) = small_building();
        let r0 = s.resolve("r0").unwrap();
        let f0 = s.resolve("f0").unwrap();
        let b = s.resolve("b").unwrap();
        assert_eq!(h.parent_of(&s, r0), Some(f0));
        assert_eq!(h.parent_of(&s, b), None, "root has no parent");
        assert_eq!(h.ancestors_of(&s, r0), vec![f0, b]);
        let lb = s.find_layer(&LayerKind::Building).unwrap();
        assert_eq!(h.ancestor_at(&s, r0, lb), Some(b));
        assert_eq!(h.ancestor_at(&s, r0, r0.layer), Some(r0), "identity");
    }

    #[test]
    fn children_and_descendants_queries() {
        let (s, h) = small_building();
        let b = s.resolve("b").unwrap();
        let f0 = s.resolve("f0").unwrap();
        let lr = s.find_layer(&LayerKind::Room).unwrap();
        let mut kids = h.children_of(&s, f0);
        kids.sort();
        let mut expected = vec![s.resolve("r0").unwrap(), s.resolve("r1").unwrap()];
        expected.sort();
        assert_eq!(kids, expected);
        let mut rooms = h.descendants_at(&s, b, lr);
        rooms.sort();
        assert_eq!(rooms.len(), 3);
    }

    #[test]
    fn descendants_downward_only() {
        let (s, h) = small_building();
        let r0 = s.resolve("r0").unwrap();
        let lb = s.find_layer(&LayerKind::Building).unwrap();
        assert!(h.descendants_at(&s, r0, lb).is_empty());
        let lf = s.find_layer(&LayerKind::Floor).unwrap();
        let f0 = s.resolve("f0").unwrap();
        assert!(h.ancestor_at(&s, f0, lf) == Some(f0));
    }

    #[test]
    fn too_few_layers() {
        let s = IndoorSpace::new();
        let h = LayerHierarchy::new(vec![]);
        let issues = validate_hierarchy(&s, &h);
        assert!(matches!(
            issues[0],
            HierarchyIssue::TooFewLayers { found: 0 }
        ));
    }

    #[test]
    fn five_layer_extended_hierarchy_is_valid() {
        // BuildingComplex root + RoI leaf, the paper's Fig. 2 shape.
        let mut s = IndoorSpace::new();
        let lc = s.add_layer("complex", LayerKind::BuildingComplex);
        let lb = s.add_layer("buildings", LayerKind::Building);
        let lf = s.add_layer("floors", LayerKind::Floor);
        let lr = s.add_layer("rooms", LayerKind::Room);
        let li = s.add_layer("rois", LayerKind::RegionOfInterest);
        let c = s
            .add_cell(lc, Cell::new("site", "Site", CellClass::BuildingComplex))
            .unwrap();
        let a = s
            .add_cell(lb, Cell::new("ba", "Building A", CellClass::Building))
            .unwrap();
        let fa1 = s
            .add_cell(lf, Cell::new("fa1", "FloorA1", CellClass::Floor))
            .unwrap();
        let r = s
            .add_cell(lr, Cell::new("r", "Room", CellClass::Room))
            .unwrap();
        let roi = s
            .add_cell(li, Cell::new("roi", "Exhibit", CellClass::RegionOfInterest))
            .unwrap();
        s.add_joint(c, a, JointRelation::Covers).unwrap();
        s.add_joint(a, fa1, JointRelation::Covers).unwrap();
        s.add_joint(fa1, r, JointRelation::Contains).unwrap();
        s.add_joint(r, roi, JointRelation::Contains).unwrap();
        let h = core_hierarchy(&s).unwrap();
        assert_eq!(h.len(), 5);
        assert!(validate_hierarchy(&s, &h).is_empty());
        assert_eq!(h.ancestor_at(&s, roi, lc), Some(c));
    }
}
