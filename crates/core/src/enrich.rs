//! Event-based semantic enrichment.
//!
//! "The SITM is event-based in the sense that, only a change of the spatial
//! cell that the MO is located in, or a change of the semantic information
//! regarding the MO's presence in that cell, needs to be accompanied by a
//! new tuple and a corresponding timestamp." (§3.3)
//!
//! The paper's example: a stay in room006 is split when the visitor's goal
//! changes — `(door005, room006, 14:12:00, 14:21:45, {goals:["visit"]})`
//! then `(_, room006, 14:21:46, 14:28:00, {goals:["visit","buy"]})`.

use crate::annotation::AnnotationSet;
use crate::interval::{PresenceInterval, TransitionTaken};
use crate::time::{Duration, Timestamp};
use crate::trace::Trace;

/// A semantic change event: from instant `at` (inclusive of the next
/// second), the moving object's stay carries `annotations`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotationEvent {
    /// When the semantics change. The tuple containing this instant is
    /// split into `[start, at]` and `[at + 1 s, end]`.
    pub at: Timestamp,
    /// The new per-stay annotation set after the event.
    pub annotations: AnnotationSet,
}

impl AnnotationEvent {
    /// Creates an event.
    pub fn new(at: Timestamp, annotations: AnnotationSet) -> Self {
        AnnotationEvent { at, annotations }
    }
}

/// Applies annotation-change events to a trace: each event splits the tuple
/// whose stay strictly contains it (with at least one second on each side)
/// into two tuples — the first keeps the original annotations, the second
/// starts one second later with the event's annotations and an unknown
/// transition (no boundary was crossed). Events outside any tuple, or too
/// close to a tuple edge to leave both halves non-degenerate, are ignored.
///
/// Events are applied in chronological order; a later event can split a
/// tuple produced by an earlier one (consistent with the model: every
/// semantic change emits a new tuple).
pub fn apply_annotation_events(trace: &Trace, events: &[AnnotationEvent]) -> Trace {
    let mut sorted: Vec<&AnnotationEvent> = events.iter().collect();
    sorted.sort_by_key(|e| e.at);

    let mut intervals: Vec<PresenceInterval> = trace.intervals().to_vec();
    for event in sorted {
        let one = Duration::seconds(1);
        // Find the tuple strictly containing the split instant.
        let Some(pos) = intervals
            .iter()
            .position(|p| p.start() <= event.at && event.at + one <= p.end())
        else {
            continue;
        };
        if event.at < intervals[pos].start() || event.at + one > intervals[pos].end() {
            continue;
        }
        // Do not split at the exact start: the first half would be empty of
        // meaning (its annotations would never apply).
        if event.at == intervals[pos].start() && intervals[pos].annotations == event.annotations {
            continue;
        }
        let original = intervals[pos].clone();
        let first = PresenceInterval {
            transition: original.transition.clone(),
            cell: original.cell,
            time: crate::time::TimeInterval::new(original.start(), event.at),
            annotations: original.annotations.clone(),
            transition_annotations: original.transition_annotations.clone(),
        };
        let second = PresenceInterval {
            transition: TransitionTaken::Unknown,
            cell: original.cell,
            time: crate::time::TimeInterval::new(event.at + one, original.end()),
            annotations: event.annotations.clone(),
            transition_annotations: crate::annotation::AnnotationSet::new(),
        };
        intervals.splice(pos..=pos, [first, second]);
    }
    Trace::new(intervals).expect("splitting preserves order and layer")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::Annotation;
    use sitm_graph::{CellRef, LayerIdx, NodeId};

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
    }

    fn t(h: u32, m: u32, s: u32) -> Timestamp {
        Timestamp::from_ymd_hms(2017, 2, 12, h, m, s)
    }

    fn goals(values: &[&str]) -> AnnotationSet {
        AnnotationSet::from_iter(values.iter().map(|v| Annotation::goal(*v)))
    }

    /// The paper's room006 stay.
    fn room006_trace() -> Trace {
        Trace::new(vec![PresenceInterval::new(
            TransitionTaken::Named("door005".into()),
            cell(6),
            t(14, 12, 0),
            t(14, 28, 0),
        )
        .with_annotations(goals(&["visit"]))])
        .unwrap()
    }

    #[test]
    fn paper_example_split() {
        let trace = room006_trace();
        let enriched = apply_annotation_events(
            &trace,
            &[AnnotationEvent::new(
                t(14, 21, 45),
                goals(&["visit", "buy"]),
            )],
        );
        assert_eq!(enriched.len(), 2);
        let first = enriched.get(0).unwrap();
        let second = enriched.get(1).unwrap();
        assert_eq!(first.start(), t(14, 12, 0));
        assert_eq!(first.end(), t(14, 21, 45));
        assert_eq!(first.annotations, goals(&["visit"]));
        assert_eq!(first.transition, TransitionTaken::Named("door005".into()));
        assert_eq!(second.start(), t(14, 21, 46), "one second later");
        assert_eq!(second.end(), t(14, 28, 0));
        assert_eq!(second.annotations, goals(&["visit", "buy"]));
        assert!(second.transition.is_unknown(), "no boundary crossed");
        assert_eq!(second.cell, first.cell);
    }

    #[test]
    fn event_outside_any_tuple_ignored() {
        let trace = room006_trace();
        let enriched = apply_annotation_events(
            &trace,
            &[AnnotationEvent::new(t(15, 0, 0), goals(&["late"]))],
        );
        assert_eq!(enriched, trace);
    }

    #[test]
    fn event_at_tuple_end_ignored() {
        // Splitting at the very end would create an empty second half.
        let trace = room006_trace();
        let enriched =
            apply_annotation_events(&trace, &[AnnotationEvent::new(t(14, 28, 0), goals(&["x"]))]);
        assert_eq!(enriched, trace);
    }

    #[test]
    fn multiple_events_cascade() {
        let trace = room006_trace();
        let enriched = apply_annotation_events(
            &trace,
            &[
                AnnotationEvent::new(t(14, 20, 0), goals(&["visit", "buy"])),
                AnnotationEvent::new(t(14, 25, 0), goals(&["exit"])),
            ],
        );
        assert_eq!(enriched.len(), 3);
        assert_eq!(enriched.get(0).unwrap().annotations, goals(&["visit"]));
        assert_eq!(
            enriched.get(1).unwrap().annotations,
            goals(&["visit", "buy"])
        );
        assert_eq!(enriched.get(2).unwrap().annotations, goals(&["exit"]));
        // Tuples chain without overlap.
        assert_eq!(enriched.get(0).unwrap().end(), t(14, 20, 0));
        assert_eq!(enriched.get(1).unwrap().start(), t(14, 20, 1));
        assert_eq!(enriched.get(1).unwrap().end(), t(14, 25, 0));
        assert_eq!(enriched.get(2).unwrap().start(), t(14, 25, 1));
    }

    #[test]
    fn events_applied_in_time_order_regardless_of_input_order() {
        let trace = room006_trace();
        let a = apply_annotation_events(
            &trace,
            &[
                AnnotationEvent::new(t(14, 25, 0), goals(&["exit"])),
                AnnotationEvent::new(t(14, 20, 0), goals(&["visit", "buy"])),
            ],
        );
        let b = apply_annotation_events(
            &trace,
            &[
                AnnotationEvent::new(t(14, 20, 0), goals(&["visit", "buy"])),
                AnnotationEvent::new(t(14, 25, 0), goals(&["exit"])),
            ],
        );
        assert_eq!(a, b);
    }

    #[test]
    fn no_events_is_identity() {
        let trace = room006_trace();
        assert_eq!(apply_annotation_events(&trace, &[]), trace);
    }
}
