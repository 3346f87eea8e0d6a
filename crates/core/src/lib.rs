#![warn(missing_docs)]

//! # sitm-core
//!
//! The Semantic Indoor Trajectory Model (SITM) of Kontarinis et al. (§3.3).
//!
//! A semantic trajectory (Def. 3.1) is the couple of a spatiotemporal
//! **trace** and a non-empty set of **semantic annotations** describing the
//! trajectory in its entirety:
//!
//! ```text
//! T(IDmo, tstart, tend) = (trace(IDmo, tstart, tend), A_traj)
//! trace = (e_i, v_i, tstart_i, tend_i, A_i) for i in 1..n
//! ```
//!
//! where `e_i` is the transition (boundary crossed) that led the moving
//! object into cell `v_i`, where it stayed over `[tstart_i, tend_i]` with
//! per-stay annotations `A_i`.
//!
//! Implemented here:
//!
//! * [`Timestamp`]/[`TimeInterval`] — civil-time instants and intervals;
//! * [`Annotation`]/[`AnnotationSet`] — goal/activity/behavior semantics;
//! * [`PresenceInterval`]/[`Trace`] — Def. 3.2, with validation;
//! * [`SemanticTrajectory`] — Def. 3.1, with subtrajectories (Def. 3.3);
//! * [`Episode`]/[`segmentation`] — Def. 3.4, with **overlapping** episodic
//!   segmentations ("the exact same movement part may have multiple
//!   meanings depending on the broader context");
//! * [`enrich`] — event-based splitting when semantics change inside a cell;
//! * [`gaps`] — holes vs semantic gaps;
//! * [`conceptual`] — focus-of-attention ("conceptual") trajectories, the
//!   §5 future-work reading of movement as attention over concepts.

pub mod annotation;
pub mod conceptual;
pub mod enrich;
pub mod episode;
pub mod gaps;
pub mod interval;
pub mod segmentation;
pub mod time;
pub mod trace;
pub mod trajectory;

pub use annotation::{Annotation, AnnotationKind, AnnotationSet};
pub use conceptual::{derive_conceptual, AttentionSpan, ConceptualTrace};
pub use enrich::{apply_annotation_events, AnnotationEvent};
pub use episode::{maximal_episodes, Episode, IntervalPredicate, OpenRun, RunBuilder};
pub use gaps::{find_gaps, Gap, GapKind};
pub use interval::{PresenceInterval, TransitionTaken};
pub use segmentation::EpisodicSegmentation;
pub use time::{Duration, TimeInterval, Timestamp};
pub use trace::{Trace, TraceError};
pub use trajectory::{SemanticTrajectory, TrajectoryError};
