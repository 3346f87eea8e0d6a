#![warn(missing_docs)]

//! # sitm-graph
//!
//! Directed, edge-typed multigraph substrate for the Semantic Indoor
//! Trajectory Model (SITM) toolkit.
//!
//! The paper models indoor space as "an edge-coloured multigraph which can be
//! mapped to a multilayer network" (Kontarinis et al., §3.2). This crate
//! provides the two structures that statement needs:
//!
//! * [`DiMultigraph`] — a directed multigraph with stable integer ids,
//!   parallel edges, and O(1) endpoint lookup. Node and edge payloads are
//!   generic, so the "colour" of an edge is simply its payload type.
//! * [`LayeredGraph`] — a multilayer network: an ordered family of
//!   [`DiMultigraph`] layers plus typed *coupling* (inter-layer) edges,
//!   which the space model uses for IndoorGML joint edges.
//!
//! Algorithms used throughout the toolkit live here too: BFS/DFS traversal,
//! Dijkstra shortest paths, bounded simple-path enumeration, *unavoidable
//! node* computation (the basis of the paper's Fig. 6 missing-zone
//! inference), strongly/weakly connected components, and topological sorting
//! (used to validate layer hierarchies).
//!
//! ## Quick example
//!
//! ```
//! use sitm_graph::DiMultigraph;
//!
//! let mut g: DiMultigraph<&str, &str> = DiMultigraph::new();
//! let hall = g.add_node("hall");
//! let room = g.add_node("room");
//! // Two doors between the same pair of cells: a genuine multigraph.
//! let d1 = g.add_edge(hall, room, "door-east");
//! let d2 = g.add_edge(hall, room, "door-west");
//! assert_ne!(d1, d2);
//! assert_eq!(g.edges_between(hall, room).count(), 2);
//! ```

pub mod ids;
pub mod multigraph;
pub mod multilayer;
pub mod paths;
pub mod scc;
pub mod toposort;
pub mod traversal;

pub use ids::{CellRef, EdgeId, LayerIdx, NodeId};
pub use multigraph::{DiMultigraph, EdgeRef};
pub use multilayer::{CouplingEdge, CouplingRef, LayeredGraph};
pub use paths::{
    all_simple_paths, dijkstra, shortest_path, unavoidable_nodes, PathError, ShortestPath,
};
pub use scc::{strongly_connected_components, weakly_connected_components};
pub use toposort::{is_acyclic, topological_sort, CycleError};
pub use traversal::{bfs_distances, bfs_order, dfs_order, is_reachable, is_reachable_filtered};
