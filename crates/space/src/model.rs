//! The indoor space model: a layered multigraph of cells with accessibility
//! transitions and joint edges, plus a key registry.

use std::collections::BTreeMap;

use sitm_graph::{CellRef, CouplingRef, DiMultigraph, EdgeId, EdgeRef, LayerIdx, LayeredGraph};

use crate::cell::Cell;
use crate::joint::JointRelation;
use crate::layer::{Layer, LayerKind};
use crate::transition::Transition;

/// Errors raised while building or querying an [`IndoorSpace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A cell key was registered twice.
    DuplicateKey(String),
    /// A cell key lookup failed.
    UnknownKey(String),
    /// A [`CellRef`] does not designate a live cell.
    UnknownCell(CellRef),
    /// Accessibility transitions must stay within one layer.
    CrossLayerTransition {
        /// Source of the offending transition.
        from: CellRef,
        /// Target of the offending transition.
        to: CellRef,
    },
    /// Joint edges must connect two different layers.
    SameLayerJoint {
        /// Source of the offending joint edge.
        from: CellRef,
        /// Target of the offending joint edge.
        to: CellRef,
    },
    /// A layer index does not designate a layer.
    UnknownLayer(LayerIdx),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::DuplicateKey(k) => write!(f, "duplicate cell key {k:?}"),
            ModelError::UnknownKey(k) => write!(f, "unknown cell key {k:?}"),
            ModelError::UnknownCell(r) => write!(f, "unknown cell {r}"),
            ModelError::CrossLayerTransition { from, to } => {
                write!(f, "transition {from} -> {to} crosses layers")
            }
            ModelError::SameLayerJoint { from, to } => {
                write!(f, "joint edge {from} -> {to} stays within one layer")
            }
            ModelError::UnknownLayer(l) => write!(f, "unknown layer {l}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Aggregate counts of a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelStats {
    /// Number of layers.
    pub layers: usize,
    /// Total number of cells across layers.
    pub cells: usize,
    /// Total number of directed accessibility transitions.
    pub transitions: usize,
    /// Total number of joint edges.
    pub joints: usize,
}

/// A semantically enriched multi-layered indoor space.
///
/// Wraps a [`LayeredGraph`] with domain rules: unique cell keys, intra-layer
/// transitions only, inter-layer joint edges only.
#[derive(Debug, Clone, Default)]
pub struct IndoorSpace {
    graph: LayeredGraph<Layer, Cell, Transition, JointRelation>,
    keys: BTreeMap<String, CellRef>,
}

impl IndoorSpace {
    /// Creates an empty model.
    pub fn new() -> Self {
        IndoorSpace {
            graph: LayeredGraph::new(),
            keys: BTreeMap::new(),
        }
    }

    /// Adds a layer.
    pub fn add_layer(&mut self, name: impl Into<String>, kind: LayerKind) -> LayerIdx {
        self.graph.add_layer(Layer::new(name, kind))
    }

    /// Adds a cell to a layer. Fails on duplicate key.
    pub fn add_cell(&mut self, layer: LayerIdx, cell: Cell) -> Result<CellRef, ModelError> {
        if layer.index() >= self.graph.layer_count() {
            return Err(ModelError::UnknownLayer(layer));
        }
        if self.keys.contains_key(&cell.key) {
            return Err(ModelError::DuplicateKey(cell.key));
        }
        let key = cell.key.clone();
        let (l, n) = self.graph.add_node(layer, cell);
        let cref = CellRef::new(l, n);
        self.keys.insert(key, cref);
        Ok(cref)
    }

    /// Adds a directed accessibility transition between two cells of the
    /// *same* layer.
    pub fn add_transition(
        &mut self,
        from: CellRef,
        to: CellRef,
        transition: Transition,
    ) -> Result<EdgeId, ModelError> {
        self.check_cell(from)?;
        self.check_cell(to)?;
        if from.layer != to.layer {
            return Err(ModelError::CrossLayerTransition { from, to });
        }
        Ok(self
            .graph
            .add_intra_edge(from.layer, from.node, to.node, transition))
    }

    /// Adds a bidirectional transition (two directed edges with the same
    /// payload). Most doors; not the Salle des États.
    pub fn add_transition_pair(
        &mut self,
        a: CellRef,
        b: CellRef,
        transition: Transition,
    ) -> Result<(EdgeId, EdgeId), ModelError> {
        let forward = self.add_transition(a, b, transition.clone())?;
        let backward = self.add_transition(b, a, transition)?;
        Ok((forward, backward))
    }

    /// Adds a directed joint edge between cells of *different* layers.
    pub fn add_joint(
        &mut self,
        from: CellRef,
        to: CellRef,
        relation: JointRelation,
    ) -> Result<usize, ModelError> {
        self.check_cell(from)?;
        self.check_cell(to)?;
        if from.layer == to.layer {
            return Err(ModelError::SameLayerJoint { from, to });
        }
        Ok(self
            .graph
            .add_coupling((from.layer, from.node), (to.layer, to.node), relation))
    }

    fn check_cell(&self, r: CellRef) -> Result<(), ModelError> {
        let live = self
            .graph
            .graph(r.layer)
            .is_some_and(|g| g.contains_node(r.node));
        if live {
            Ok(())
        } else {
            Err(ModelError::UnknownCell(r))
        }
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.graph.layer_count()
    }

    /// Layer metadata.
    pub fn layer(&self, idx: LayerIdx) -> Option<&Layer> {
        self.graph.layer(idx)
    }

    /// Iterates `(LayerIdx, &Layer)` in order.
    pub fn layers(&self) -> impl Iterator<Item = (LayerIdx, &Layer)> + '_ {
        self.graph.layers()
    }

    /// First layer of the given kind.
    pub fn find_layer(&self, kind: &LayerKind) -> Option<LayerIdx> {
        self.layers()
            .find(|(_, l)| &l.kind == kind)
            .map(|(idx, _)| idx)
    }

    /// Cell payload by reference.
    pub fn cell(&self, r: CellRef) -> Option<&Cell> {
        self.graph.graph(r.layer)?.node(r.node)
    }

    /// Mutable cell payload.
    pub fn cell_mut(&mut self, r: CellRef) -> Option<&mut Cell> {
        self.graph.graph_mut(r.layer)?.node_mut(r.node)
    }

    /// Resolves a cell key to its reference.
    pub fn resolve(&self, key: &str) -> Option<CellRef> {
        self.keys.get(key).copied()
    }

    /// Resolves a key, returning an error with the key name on failure.
    pub fn require(&self, key: &str) -> Result<CellRef, ModelError> {
        self.resolve(key)
            .ok_or_else(|| ModelError::UnknownKey(key.to_string()))
    }

    /// Resolves a key to both the reference and the payload.
    pub fn cell_by_key(&self, key: &str) -> Option<(CellRef, &Cell)> {
        let r = self.resolve(key)?;
        Some((r, self.cell(r)?))
    }

    /// Iterates cells of one layer.
    pub fn cells_in(&self, layer: LayerIdx) -> impl Iterator<Item = (CellRef, &Cell)> + '_ {
        self.graph
            .graph(layer)
            .into_iter()
            .flat_map(move |g| g.nodes().map(move |(n, c)| (CellRef::new(layer, n), c)))
    }

    /// Iterates all cells of all layers.
    pub fn cells(&self) -> impl Iterator<Item = (CellRef, &Cell)> + '_ {
        self.layers().flat_map(move |(idx, _)| self.cells_in(idx))
    }

    /// The accessibility NRG of one layer.
    pub fn nrg(&self, layer: LayerIdx) -> Option<&DiMultigraph<Cell, Transition>> {
        self.graph.graph(layer)
    }

    /// Iterates the directed transitions of one layer.
    pub fn transitions_in(
        &self,
        layer: LayerIdx,
    ) -> impl Iterator<Item = EdgeRef<'_, Transition>> + '_ {
        self.graph.graph(layer).into_iter().flat_map(|g| g.edges())
    }

    /// Transition payload by layer and edge id.
    pub fn transition(&self, layer: LayerIdx, edge: EdgeId) -> Option<&Transition> {
        self.graph.graph(layer)?.edge(edge)
    }

    /// Iterates all joint edges.
    pub fn joints(&self) -> impl Iterator<Item = CouplingRef<'_, JointRelation>> + '_ {
        self.graph.couplings()
    }

    /// Joint edges whose source is `cell`.
    pub fn joints_from(
        &self,
        cell: CellRef,
    ) -> impl Iterator<Item = CouplingRef<'_, JointRelation>> + '_ {
        self.graph.couplings_from((cell.layer, cell.node))
    }

    /// Joint edges whose target is `cell`.
    pub fn joints_to(
        &self,
        cell: CellRef,
    ) -> impl Iterator<Item = CouplingRef<'_, JointRelation>> + '_ {
        self.graph.couplings_to((cell.layer, cell.node))
    }

    /// Aggregate counts.
    pub fn stats(&self) -> ModelStats {
        ModelStats {
            layers: self.graph.layer_count(),
            cells: self.graph.total_nodes(),
            transitions: self.graph.total_intra_edges(),
            joints: self.graph.coupling_count(),
        }
    }

    /// Audits joint edges against geometry: for every joint whose two cells
    /// both carry footprints on the same floor, derives the geometric
    /// relation and reports joints whose declared relation disagrees.
    /// Returns `(from, to, declared, derived)` tuples.
    pub fn audit_joints_against_geometry(
        &self,
    ) -> Vec<(CellRef, CellRef, JointRelation, Option<JointRelation>)> {
        let mut mismatches = Vec::new();
        for j in self.joints() {
            let from = CellRef::new(j.from.0, j.from.1);
            let to = CellRef::new(j.to.0, j.to.1);
            let (Some(a), Some(b)) = (self.cell(from), self.cell(to)) else {
                continue;
            };
            let (Some(pa), Some(pb)) = (a.geometry.as_ref(), b.geometry.as_ref()) else {
                continue;
            };
            if a.floor.is_some() && b.floor.is_some() && a.floor != b.floor {
                continue; // different floors: geometry comparison meaningless
            }
            let derived = JointRelation::from_spatial(sitm_geometry::relate_polygons(pa, pb));
            if derived != Some(*j.payload) {
                mismatches.push((from, to, *j.payload, derived));
            }
        }
        mismatches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellClass;
    use crate::transition::TransitionKind;
    use sitm_geometry::{Point, Polygon};

    fn two_room_model() -> (IndoorSpace, CellRef, CellRef) {
        let mut space = IndoorSpace::new();
        let rooms = space.add_layer("rooms", LayerKind::Room);
        let a = space
            .add_cell(rooms, Cell::new("room-a", "Room A", CellClass::Room))
            .unwrap();
        let b = space
            .add_cell(rooms, Cell::new("room-b", "Room B", CellClass::Room))
            .unwrap();
        (space, a, b)
    }

    #[test]
    fn duplicate_keys_rejected() {
        let (mut space, ..) = two_room_model();
        let rooms = space.find_layer(&LayerKind::Room).unwrap();
        let err = space
            .add_cell(rooms, Cell::new("room-a", "Clone", CellClass::Room))
            .unwrap_err();
        assert_eq!(err, ModelError::DuplicateKey("room-a".to_string()));
    }

    #[test]
    fn resolve_and_lookup() {
        let (space, a, _) = two_room_model();
        assert_eq!(space.resolve("room-a"), Some(a));
        assert_eq!(space.resolve("nope"), None);
        let (r, cell) = space.cell_by_key("room-a").unwrap();
        assert_eq!(r, a);
        assert_eq!(cell.name, "Room A");
        assert!(space.require("missing").is_err());
    }

    #[test]
    fn one_way_transition_is_directed() {
        // The Salle des États rule: exit allowed, entry forbidden.
        let (mut space, salle, room2) = two_room_model();
        space
            .add_transition(
                salle,
                room2,
                Transition::named(TransitionKind::Door, "exit-door"),
            )
            .unwrap();
        let rooms = salle.layer;
        let nrg = space.nrg(rooms).unwrap();
        assert!(nrg.has_edge(salle.node, room2.node));
        assert!(!nrg.has_edge(room2.node, salle.node));
    }

    #[test]
    fn transition_pair_adds_both_directions() {
        let (mut space, a, b) = two_room_model();
        space
            .add_transition_pair(a, b, Transition::new(TransitionKind::Opening))
            .unwrap();
        let nrg = space.nrg(a.layer).unwrap();
        assert!(nrg.has_edge(a.node, b.node));
        assert!(nrg.has_edge(b.node, a.node));
        assert_eq!(space.stats().transitions, 2);
    }

    #[test]
    fn cross_layer_transition_rejected() {
        let (mut space, a, _) = two_room_model();
        let floors = space.add_layer("floors", LayerKind::Floor);
        let f = space
            .add_cell(floors, Cell::new("f1", "Floor 1", CellClass::Floor))
            .unwrap();
        let err = space
            .add_transition(a, f, Transition::new(TransitionKind::Door))
            .unwrap_err();
        assert!(matches!(err, ModelError::CrossLayerTransition { .. }));
    }

    #[test]
    fn same_layer_joint_rejected() {
        let (mut space, a, b) = two_room_model();
        let err = space.add_joint(a, b, JointRelation::Contains).unwrap_err();
        assert!(matches!(err, ModelError::SameLayerJoint { .. }));
    }

    #[test]
    fn joints_index_both_ways() {
        let (mut space, a, _) = two_room_model();
        let floors = space.add_layer("floors", LayerKind::Floor);
        let f = space
            .add_cell(floors, Cell::new("f1", "Floor 1", CellClass::Floor))
            .unwrap();
        space.add_joint(f, a, JointRelation::Contains).unwrap();
        let from_f: Vec<_> = space.joints_from(f).collect();
        assert_eq!(from_f.len(), 1);
        assert_eq!(*from_f[0].payload, JointRelation::Contains);
        let to_a: Vec<_> = space.joints_to(a).collect();
        assert_eq!(to_a.len(), 1);
        assert_eq!(space.stats().joints, 1);
    }

    #[test]
    fn parallel_doors_are_supported() {
        // "multiple ways of entering a room" (§1).
        let (mut space, a, b) = two_room_model();
        space
            .add_transition(a, b, Transition::named(TransitionKind::Door, "north-door"))
            .unwrap();
        space
            .add_transition(a, b, Transition::named(TransitionKind::Door, "south-door"))
            .unwrap();
        let nrg = space.nrg(a.layer).unwrap();
        assert_eq!(nrg.edges_between(a.node, b.node).count(), 2);
    }

    #[test]
    fn stats_count_everything() {
        let (mut space, a, b) = two_room_model();
        let floors = space.add_layer("floors", LayerKind::Floor);
        let f = space
            .add_cell(floors, Cell::new("f1", "Floor 1", CellClass::Floor))
            .unwrap();
        space
            .add_transition_pair(a, b, Transition::new(TransitionKind::Door))
            .unwrap();
        space.add_joint(f, a, JointRelation::Contains).unwrap();
        space.add_joint(f, b, JointRelation::Contains).unwrap();
        let stats = space.stats();
        assert_eq!(stats.layers, 2);
        assert_eq!(stats.cells, 3);
        assert_eq!(stats.transitions, 2);
        assert_eq!(stats.joints, 2);
    }

    #[test]
    fn geometry_audit_flags_wrong_relations() {
        let mut space = IndoorSpace::new();
        let rooms = space.add_layer("rooms", LayerKind::Room);
        let rois = space.add_layer("rois", LayerKind::RegionOfInterest);
        let room_poly = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(10.0, 10.0)).unwrap();
        let roi_poly = Polygon::rectangle(Point::new(2.0, 2.0), Point::new(4.0, 4.0)).unwrap();
        let room = space
            .add_cell(
                rooms,
                Cell::new("r", "Room", CellClass::Room)
                    .on_floor(0)
                    .with_geometry(room_poly),
            )
            .unwrap();
        let roi = space
            .add_cell(
                rois,
                Cell::new("roi", "Exhibit", CellClass::RegionOfInterest)
                    .on_floor(0)
                    .with_geometry(roi_poly),
            )
            .unwrap();
        // Declared "covers" but geometry says strict containment.
        space.add_joint(room, roi, JointRelation::Covers).unwrap();
        let audit = space.audit_joints_against_geometry();
        assert_eq!(audit.len(), 1);
        assert_eq!(audit[0].2, JointRelation::Covers);
        assert_eq!(audit[0].3, Some(JointRelation::Contains));
    }

    #[test]
    fn geometry_audit_accepts_correct_relations() {
        let mut space = IndoorSpace::new();
        let rooms = space.add_layer("rooms", LayerKind::Room);
        let rois = space.add_layer("rois", LayerKind::RegionOfInterest);
        let room_poly = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(10.0, 10.0)).unwrap();
        let roi_poly = Polygon::rectangle(Point::new(2.0, 2.0), Point::new(4.0, 4.0)).unwrap();
        let room = space
            .add_cell(
                rooms,
                Cell::new("r", "Room", CellClass::Room)
                    .on_floor(0)
                    .with_geometry(room_poly),
            )
            .unwrap();
        let roi = space
            .add_cell(
                rois,
                Cell::new("roi", "Exhibit", CellClass::RegionOfInterest)
                    .on_floor(0)
                    .with_geometry(roi_poly),
            )
            .unwrap();
        space.add_joint(room, roi, JointRelation::Contains).unwrap();
        assert!(space.audit_joints_against_geometry().is_empty());
    }

    #[test]
    fn cells_iterator_spans_layers() {
        let (mut space, ..) = two_room_model();
        let floors = space.add_layer("floors", LayerKind::Floor);
        space
            .add_cell(floors, Cell::new("f1", "Floor 1", CellClass::Floor))
            .unwrap();
        assert_eq!(space.cells().count(), 3);
        let keys: Vec<&str> = space.cells().map(|(_, c)| c.key.as_str()).collect();
        assert!(keys.contains(&"room-a"));
        assert!(keys.contains(&"f1"));
    }
}
