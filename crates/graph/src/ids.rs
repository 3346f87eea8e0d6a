//! Stable integer identifiers for graph entities.
//!
//! Ids are plain `u32` newtypes: cheap to copy, hash, and order. They index
//! into the arena vectors of [`crate::DiMultigraph`]; an id is only
//! meaningful for the graph that created it. A [`CellRef`] pairs a layer
//! index with a node id to address one node of a layered graph.

use std::fmt;

/// Identifier of a node within one [`crate::DiMultigraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

/// Identifier of an edge within one [`crate::DiMultigraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub(crate) u32);

/// Index of a layer within one [`crate::LayeredGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LayerIdx(pub(crate) u32);

/// Layer + node address of a cell; the indoor space model gives the
/// address its meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellRef {
    /// Layer the cell belongs to.
    pub layer: LayerIdx,
    /// Node id within that layer's NRG.
    pub node: NodeId,
}

impl NodeId {
    /// Raw index of this node in the graph's node arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a raw index. The caller must ensure the index
    /// refers to a live node of the intended graph.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        NodeId(i as u32)
    }
}

impl EdgeId {
    /// Raw index of this edge in the graph's edge arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an `EdgeId` from a raw index. The caller must ensure the index
    /// refers to a live edge of the intended graph.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        EdgeId(i as u32)
    }
}

impl LayerIdx {
    /// Raw index of this layer.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `LayerIdx` from a raw index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        LayerIdx(i as u32)
    }
}

impl CellRef {
    /// Creates a cell reference.
    pub fn new(layer: LayerIdx, node: NodeId) -> Self {
        CellRef { layer, node }
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Debug for LayerIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl fmt::Display for LayerIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl fmt::Display for CellRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.layer, self.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_through_index() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(format!("{id}"), "n42");
        assert_eq!(format!("{id:?}"), "n42");
    }

    #[test]
    fn edge_id_round_trips_through_index() {
        let id = EdgeId::from_index(7);
        assert_eq!(id.index(), 7);
        assert_eq!(format!("{id}"), "e7");
    }

    #[test]
    fn layer_idx_round_trips_through_index() {
        let id = LayerIdx::from_index(3);
        assert_eq!(id.index(), 3);
        assert_eq!(format!("{id}"), "L3");
    }

    #[test]
    fn cell_ref_display() {
        let r = CellRef::new(LayerIdx::from_index(2), NodeId::from_index(7));
        assert_eq!(r.to_string(), "L2:n7");
    }

    #[test]
    fn ids_order_by_index() {
        assert!(NodeId::from_index(1) < NodeId::from_index(2));
        assert!(EdgeId::from_index(0) < EdgeId::from_index(9));
    }
}
