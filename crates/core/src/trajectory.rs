//! Semantic trajectories (Def. 3.1) and subtrajectories (Def. 3.3).

use std::fmt;

use crate::annotation::AnnotationSet;
use crate::time::{TimeInterval, Timestamp};
use crate::trace::Trace;

/// Errors building a trajectory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrajectoryError {
    /// Def. 3.1 needs at least one presence interval to define
    /// `tstart`/`tend`.
    EmptyTrace,
    /// Def. 3.1: "The second element of the couple is a **non-empty** set of
    /// semantic annotations characterizing the trajectory in its entirety."
    NoAnnotations,
    /// A subtrajectory must be a *proper* subsequence (Def. 3.3).
    NotProper,
    /// Requested subsequence indices are out of range.
    BadRange,
}

impl fmt::Display for TrajectoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrajectoryError::EmptyTrace => write!(f, "trajectory trace is empty"),
            TrajectoryError::NoAnnotations => {
                write!(f, "trajectory annotation set must be non-empty")
            }
            TrajectoryError::NotProper => {
                write!(f, "subtrajectory must be a proper subsequence")
            }
            TrajectoryError::BadRange => write!(f, "subsequence range out of bounds"),
        }
    }
}

impl std::error::Error for TrajectoryError {}

/// A semantic trajectory: `T(IDmo, tstart, tend) = (trace, A_traj)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SemanticTrajectory {
    /// Moving-object identifier (`IDmo`).
    pub moving_object: String,
    trace: Trace,
    annotations: AnnotationSet,
}

impl SemanticTrajectory {
    /// Builds a trajectory; the trace must be non-empty and the annotation
    /// set non-empty (both per Def. 3.1).
    pub fn new(
        moving_object: impl Into<String>,
        trace: Trace,
        annotations: AnnotationSet,
    ) -> Result<SemanticTrajectory, TrajectoryError> {
        if trace.is_empty() {
            return Err(TrajectoryError::EmptyTrace);
        }
        if annotations.is_empty() {
            return Err(TrajectoryError::NoAnnotations);
        }
        Ok(SemanticTrajectory {
            moving_object: moving_object.into(),
            trace,
            annotations,
        })
    }

    /// The spatiotemporal trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Whole-trajectory annotations (`A_traj`).
    pub fn annotations(&self) -> &AnnotationSet {
        &self.annotations
    }

    /// Replaces the whole-trajectory annotations (must stay non-empty).
    pub fn set_annotations(&mut self, annotations: AnnotationSet) -> Result<(), TrajectoryError> {
        if annotations.is_empty() {
            return Err(TrajectoryError::NoAnnotations);
        }
        self.annotations = annotations;
        Ok(())
    }

    /// `tstart`: the first tuple's start.
    pub fn start(&self) -> Timestamp {
        self.trace.span().expect("trace is non-empty").start
    }

    /// `tend`: the last stay's end.
    pub fn end(&self) -> Timestamp {
        self.trace.span().expect("trace is non-empty").end
    }

    /// `[tstart, tend]`.
    pub fn span(&self) -> TimeInterval {
        self.trace.span().expect("trace is non-empty")
    }

    /// Extracts the subtrajectory over a contiguous tuple range, with its
    /// own annotation set (which "may or may not be the same as that of its
    /// main trajectory", §3.3). Fails with [`TrajectoryError::NotProper`]
    /// when the range covers the whole trace (Def. 3.3 requires a proper
    /// subsequence).
    pub fn subtrajectory(
        &self,
        range: std::ops::Range<usize>,
        annotations: AnnotationSet,
    ) -> Result<SemanticTrajectory, TrajectoryError> {
        if range.start >= range.end || range.end > self.trace.len() {
            return Err(TrajectoryError::BadRange);
        }
        if range == (0..self.trace.len()) {
            return Err(TrajectoryError::NotProper);
        }
        let sub = self
            .trace
            .subsequence(range)
            .ok_or(TrajectoryError::BadRange)?;
        SemanticTrajectory::new(self.moving_object.clone(), sub, annotations)
    }

    /// Def. 3.3 time test: is `other` a proper temporal part of `self`?
    /// (`tstart <= t'start < t'end < tend` or
    /// `tstart < t'start < t'end <= tend`.)
    pub fn is_proper_temporal_part(&self, other: &SemanticTrajectory) -> bool {
        if self.moving_object != other.moving_object {
            return false;
        }
        let (ts, te) = (self.start(), self.end());
        let (os, oe) = (other.start(), other.end());
        (ts <= os && os < oe && oe < te) || (ts < os && os < oe && oe <= te)
    }
}

impl fmt::Display for SemanticTrajectory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "T[{}, {} .. {}] {}",
            self.moving_object,
            self.start(),
            self.end(),
            self.annotations
        )?;
        write!(f, "{}", self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::Annotation;
    use crate::interval::{PresenceInterval, TransitionTaken};
    use sitm_graph::{CellRef, LayerIdx, NodeId};

    fn stay(c: usize, start: i64, end: i64) -> PresenceInterval {
        PresenceInterval::new(
            TransitionTaken::Unknown,
            CellRef::new(LayerIdx::from_index(0), NodeId::from_index(c)),
            Timestamp(start),
            Timestamp(end),
        )
    }

    fn visit_annotations() -> AnnotationSet {
        AnnotationSet::from_iter([Annotation::goal("visit")])
    }

    fn three_stay_trajectory() -> SemanticTrajectory {
        let trace = Trace::new(vec![stay(0, 0, 60), stay(1, 60, 120), stay(2, 120, 300)]).unwrap();
        SemanticTrajectory::new("visitor-1", trace, visit_annotations()).unwrap()
    }

    #[test]
    fn construction_requires_trace_and_annotations() {
        assert_eq!(
            SemanticTrajectory::new("v", Trace::empty(), visit_annotations()).unwrap_err(),
            TrajectoryError::EmptyTrace
        );
        let trace = Trace::new(vec![stay(0, 0, 10)]).unwrap();
        assert_eq!(
            SemanticTrajectory::new("v", trace, AnnotationSet::new()).unwrap_err(),
            TrajectoryError::NoAnnotations
        );
    }

    #[test]
    fn start_end_span() {
        let t = three_stay_trajectory();
        assert_eq!(t.start(), Timestamp(0));
        assert_eq!(t.end(), Timestamp(300));
        assert_eq!(t.span().duration().as_seconds(), 300);
    }

    #[test]
    fn subtrajectory_extraction() {
        let t = three_stay_trajectory();
        let sub = t
            .subtrajectory(1..3, AnnotationSet::from_iter([Annotation::goal("exit")]))
            .unwrap();
        assert_eq!(sub.trace().len(), 2);
        assert_eq!(sub.start(), Timestamp(60));
        assert_eq!(sub.end(), Timestamp(300));
        assert!(t.is_proper_temporal_part(&sub));
    }

    #[test]
    fn full_range_subtrajectory_is_not_proper() {
        let t = three_stay_trajectory();
        assert_eq!(
            t.subtrajectory(0..3, visit_annotations()).unwrap_err(),
            TrajectoryError::NotProper
        );
    }

    #[test]
    fn bad_ranges_rejected() {
        let t = three_stay_trajectory();
        assert_eq!(
            t.subtrajectory(2..2, visit_annotations()).unwrap_err(),
            TrajectoryError::BadRange
        );
        assert_eq!(
            t.subtrajectory(1..9, visit_annotations()).unwrap_err(),
            TrajectoryError::BadRange
        );
    }

    #[test]
    fn subtrajectory_may_keep_parent_annotations() {
        // "A subtrajectory's set of semantic annotations may or may not be
        // the same as that of its main trajectory, contrary to [CONSTAnT]".
        let t = three_stay_trajectory();
        let sub = t.subtrajectory(0..2, visit_annotations()).unwrap();
        assert_eq!(sub.annotations(), t.annotations());
    }

    #[test]
    fn proper_temporal_part_edge_cases() {
        let t = three_stay_trajectory();
        // Same span is not proper.
        assert!(!t.is_proper_temporal_part(&t.clone()));
        // Different moving object never qualifies.
        let other_trace = Trace::new(vec![stay(0, 10, 20)]).unwrap();
        let other =
            SemanticTrajectory::new("someone-else", other_trace, visit_annotations()).unwrap();
        assert!(!t.is_proper_temporal_part(&other));
    }

    #[test]
    fn set_annotations_enforces_non_empty() {
        let mut t = three_stay_trajectory();
        assert!(t.set_annotations(AnnotationSet::new()).is_err());
        let new = AnnotationSet::from_iter([Annotation::behavior("rushed")]);
        t.set_annotations(new.clone()).unwrap();
        assert_eq!(t.annotations(), &new);
    }

    #[test]
    fn display_shows_header_and_tuples() {
        let t = three_stay_trajectory();
        let text = t.to_string();
        assert!(text.contains("visitor-1"));
        assert!(text.contains("trace {"));
    }
}
