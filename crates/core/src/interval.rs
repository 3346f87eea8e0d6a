//! Presence intervals: the tuples of a semantic trajectory trace.
//!
//! Def. 3.2: `trace = (e_i, v_i, tstart_i, tend_i, A_i)` — the transition
//! `e_i` that led the moving object into cell `v_i` at `tstart_i`, "where it
//! stayed until time `tend_i`", plus a potentially empty annotation set.

use std::fmt;

use sitm_graph::{CellRef, EdgeId, LayerIdx};

use crate::annotation::AnnotationSet;
use crate::time::{Duration, TimeInterval, Timestamp};

/// The transition (`e_i`) that led into a cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TransitionTaken {
    /// Unknown — the paper writes `_` for the first tuple of a trace.
    Unknown,
    /// A resolved edge of the space model's accessibility NRG.
    Edge {
        /// Layer of the NRG.
        layer: LayerIdx,
        /// Edge within that layer.
        edge: EdgeId,
    },
    /// A symbolic transition name (e.g. `"door012"`, `"checkpoint002"`),
    /// usable without a space model at hand.
    Named(String),
}

impl TransitionTaken {
    /// True for [`TransitionTaken::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, TransitionTaken::Unknown)
    }
}

impl fmt::Display for TransitionTaken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransitionTaken::Unknown => write!(f, "_"),
            TransitionTaken::Edge { layer, edge } => write!(f, "{layer}/{edge}"),
            TransitionTaken::Named(name) => f.write_str(name),
        }
    }
}

/// One trace tuple: a stay in one cell over one time interval.
#[derive(Debug, Clone, PartialEq)]
pub struct PresenceInterval {
    /// How the moving object entered (`e_i`).
    pub transition: TransitionTaken,
    /// The occupied cell (`v_i`).
    pub cell: CellRef,
    /// Stay interval (`[tstart_i, tend_i]`).
    pub time: TimeInterval,
    /// Per-stay annotations (`A_i`), possibly empty.
    pub annotations: AnnotationSet,
    /// Semantic annotations on the *transition itself* — the paper's
    /// footnote 2 extension: "for applications where individual transitions
    /// bear a dynamic semantic load (e.g. setting off an alarm with some
    /// probability), we can extend the TM with semantic transition
    /// annotations, effectively substituting e_i with
    /// e_sem_i = (e_i, A_trans_i)". Usually empty.
    pub transition_annotations: AnnotationSet,
}

impl PresenceInterval {
    /// Creates a presence interval.
    pub fn new(
        transition: TransitionTaken,
        cell: CellRef,
        start: Timestamp,
        end: Timestamp,
    ) -> Self {
        PresenceInterval {
            transition,
            cell,
            time: TimeInterval::new(start, end),
            annotations: AnnotationSet::new(),
            transition_annotations: AnnotationSet::new(),
        }
    }

    /// Builder: attaches annotations.
    #[must_use]
    pub fn with_annotations(mut self, annotations: AnnotationSet) -> Self {
        self.annotations = annotations;
        self
    }

    /// Builder: attaches transition annotations (`A_trans_i`, footnote 2).
    #[must_use]
    pub fn with_transition_annotations(mut self, annotations: AnnotationSet) -> Self {
        self.transition_annotations = annotations;
        self
    }

    /// Stay duration.
    pub fn duration(&self) -> Duration {
        self.time.duration()
    }

    /// Stay start.
    pub fn start(&self) -> Timestamp {
        self.time.start
    }

    /// Stay end.
    pub fn end(&self) -> Timestamp {
        self.time.end
    }

    /// True for zero-duration stays (the paper filters these as detection
    /// errors: "around 10% of the zone detections have a duration of zero
    /// value, forcing us to filter them out").
    pub fn is_instantaneous(&self) -> bool {
        self.duration().is_zero()
    }
}

impl fmt::Display for PresenceInterval {
    /// Paper tuple style: `(door012, hall003, 11:32:31, 11:40:00, {...})`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.transition_annotations.is_empty() {
            write!(
                f,
                "({}, {}, {}, {}, {})",
                self.transition, self.cell, self.time.start, self.time.end, self.annotations
            )
        } else {
            // Footnote-2 style: e_sem_i = (e_i, A_trans_i).
            write!(
                f,
                "(({}, {}), {}, {}, {}, {})",
                self.transition,
                self.transition_annotations,
                self.cell,
                self.time.start,
                self.time.end,
                self.annotations
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::Annotation;
    use sitm_graph::NodeId;

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
    }

    #[test]
    fn duration_and_accessors() {
        let p = PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(1),
            Timestamp(100),
            Timestamp(160),
        );
        assert_eq!(p.duration().as_seconds(), 60);
        assert_eq!(p.start(), Timestamp(100));
        assert_eq!(p.end(), Timestamp(160));
        assert!(!p.is_instantaneous());
        assert!(p.annotations.is_empty());
    }

    #[test]
    fn zero_duration_detection() {
        let p = PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(0),
            Timestamp(5),
            Timestamp(5),
        );
        assert!(p.is_instantaneous());
    }

    #[test]
    fn transition_display() {
        assert_eq!(TransitionTaken::Unknown.to_string(), "_");
        assert_eq!(
            TransitionTaken::Named("door012".into()).to_string(),
            "door012"
        );
        let e = TransitionTaken::Edge {
            layer: LayerIdx::from_index(1),
            edge: EdgeId::from_index(3),
        };
        assert_eq!(e.to_string(), "L1/e3");
        assert!(TransitionTaken::Unknown.is_unknown());
        assert!(!e.is_unknown());
    }

    #[test]
    fn tuple_display_matches_paper_shape() {
        let p = PresenceInterval::new(
            TransitionTaken::Named("door012".into()),
            cell(3),
            Timestamp::from_ymd_hms(2017, 2, 1, 11, 32, 31),
            Timestamp::from_ymd_hms(2017, 2, 1, 11, 40, 0),
        )
        .with_annotations(AnnotationSet::from_iter([Annotation::goal("visit")]));
        let text = p.to_string();
        assert!(text.starts_with("(door012, L0:n3, 2017-02-01 11:32:31, 2017-02-01 11:40:00"));
        assert!(text.contains(r#"goals:["visit"]"#));
    }

    #[test]
    fn transition_annotations_extension() {
        // Footnote 2: e_sem = (e_i, A_trans).
        let alarm = AnnotationSet::from_iter([Annotation::new(
            crate::annotation::AnnotationKind::Custom("event".into()),
            "alarm",
        )]);
        let p = PresenceInterval::new(
            TransitionTaken::Named("emergency-door".into()),
            cell(2),
            Timestamp(0),
            Timestamp(10),
        )
        .with_transition_annotations(alarm.clone());
        assert_eq!(p.transition_annotations, alarm);
        let text = p.to_string();
        assert!(
            text.starts_with("((emergency-door, {events:[\"alarm\"]}),"),
            "{text}"
        );
        // Default construction keeps the extension empty and the display
        // in the base-tuple shape.
        let plain = PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(2),
            Timestamp(0),
            Timestamp(10),
        );
        assert!(plain.transition_annotations.is_empty());
        assert!(plain.to_string().starts_with("(_,"));
    }

    #[test]
    #[should_panic(expected = "end before start")]
    fn reversed_stay_panics() {
        PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(0),
            Timestamp(10),
            Timestamp(9),
        );
    }
}
