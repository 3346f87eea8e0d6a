#![warn(missing_docs)]

//! # sitm-space
//!
//! The semantically enriched indoor space model of the paper (§3.2): a
//! 2D-multi-floor ("2.5D") indoor space represented as a layered directed
//! multigraph `G = (V, E)` with
//!
//! * `V = ⋃ V_i` — disjoint per-layer node sets, nodes being symbolic
//!   spatial *cells* ([`Cell`]) carrying semantic classes and attributes;
//! * `E = ⋃ E_acc_i ∪ E_top` — per-layer **directed accessibility NRG**
//!   edges ([`Transition`]; directed because "accessibility is not
//!   symmetric", e.g. the Salle des États one-way rule) plus **directed
//!   joint edges** ([`JointRelation`]) carrying one of the six non-trivial
//!   binary topological relations.
//!
//! The model is compatible with OGC IndoorGML's Multi-Layered Space Model
//! and extends it with the paper's *static layer hierarchy*
//! (BuildingComplex → Building → Floor → Room → RoI, [`hierarchy`]),
//! full-coverage auditing ([`coverage`]), Poincaré-duality NRG derivation
//! from cell geometry ([`duality`]), and a JSON exchange format ([`io`]).
//!
//! The two trajectory operations that need the space model itself live
//! here too, over `sitm-core`'s traces:
//!
//! * [`lifting`] — granularity lifting through a layer hierarchy;
//! * [`inference`] — the Fig. 6 missing-cell inference over accessibility
//!   NRGs.
//!
//! A cell's address, [`CellRef`], is `sitm-graph`'s layer + node pair,
//! re-exported here.

pub mod cell;
pub mod coverage;
pub mod duality;
pub mod hierarchy;
pub mod inference;
pub mod io;
pub mod joint;
pub mod json;
pub mod layer;
pub mod lifting;
pub mod model;
pub mod query;
pub mod transition;

pub use cell::{Cell, CellClass};
pub use coverage::{coverage_of, CoverageReport};
pub use duality::{
    derive_adjacency, derive_connectivity, shared_boundary_length, DerivedAdjacency,
};
pub use hierarchy::{
    core_hierarchy, validate_hierarchy, HierarchyIssue, IssueSeverity, LayerHierarchy,
};
pub use inference::{infer_missing_cells, InferenceOutcome, InferredStay};
pub use joint::JointRelation;
pub use layer::{Layer, LayerKind};
pub use lifting::{lift_trace, LiftError};
pub use model::{IndoorSpace, ModelError};
pub use query::SpaceQuery;
pub use sitm_graph::CellRef;
pub use transition::{Transition, TransitionKind};
