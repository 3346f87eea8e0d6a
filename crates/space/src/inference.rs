//! Missing-cell inference over accessibility NRGs (the paper's Fig. 6).
//!
//! "From the zone layer NRG we can infer that although never detected
//! there, the visitor must have passed from Zone60888. In our SITM, this
//! would be captured with the addition of an extra tuple in the sequence,
//! e.g.: (checkpoint002, zone60888, 17:30:21, 17:31:42,
//! {goals:['cloakroomPickup','souvenirBuy','museumExit']})" (§4.2)
//!
//! The inference rule: for consecutive detections in cells `a` then `b`
//! with no direct accessibility edge `a → b`, every cell lying on **all**
//! directed paths from `a` to `b` must have been traversed. Those
//! *unavoidable* cells become inferred tuples, splitting the time gap
//! between the two detections proportionally.

use sitm_core::{
    Annotation, AnnotationKind, AnnotationSet, Duration, PresenceInterval, TimeInterval, Timestamp,
    Trace, TransitionTaken,
};
use sitm_graph::CellRef;

use crate::model::IndoorSpace;
use crate::query::SpaceQuery;

/// Marker annotation attached to every inferred tuple.
pub fn inference_marker() -> Annotation {
    Annotation::new(AnnotationKind::Custom("inference".to_string()), "topology")
}

/// One inferred stay in the output trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferredStay {
    /// Index of the inferred tuple in the *output* trace.
    pub index: usize,
    /// The inferred cell.
    pub cell: CellRef,
}

/// A segment where inference could not pin down intermediate cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AmbiguousSegment {
    /// Index (in the *input* trace) of the tuple before the segment.
    pub after_index: usize,
    /// Detection before the segment.
    pub from: CellRef,
    /// Detection after the segment.
    pub to: CellRef,
    /// True when no path at all connects the detections (likely a data
    /// error or an unmodelled passage); false when several paths exist but
    /// share no unavoidable cell.
    pub disconnected: bool,
}

/// Result of [`infer_missing_cells`].
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceOutcome {
    /// The densified trace (original tuples plus inferred ones).
    pub trace: Trace,
    /// Inferred stays, in output order.
    pub inferred: Vec<InferredStay>,
    /// Segments where no certain inference was possible.
    pub ambiguous: Vec<AmbiguousSegment>,
}

/// Densifies a trace by inserting unavoidable intermediate cells between
/// consecutive detections that are not directly connected in the layer's
/// accessibility NRG.
///
/// Timing: the gap `(prev.end, next.start)` is split evenly among the
/// inferred cells; when the detections abut (no gap), inferred stays are
/// zero-length at the boundary instant — still semantically meaningful
/// ("the object passed through") and marked like every inferred tuple with
/// the `inference:topology` annotation. `extra_annotations` lets the caller
/// attach domain semantics (the paper's example adds goals).
pub fn infer_missing_cells(
    space: &IndoorSpace,
    trace: &Trace,
    mut extra_annotations: impl FnMut(CellRef) -> AnnotationSet,
) -> InferenceOutcome {
    let mut out: Vec<PresenceInterval> = Vec::new();
    let mut inferred = Vec::new();
    let mut ambiguous = Vec::new();

    let intervals = trace.intervals();
    for (i, p) in intervals.iter().enumerate() {
        if i > 0 {
            let prev = &intervals[i - 1];
            if prev.cell != p.cell && !has_direct_edge(space, prev.cell, p.cell) {
                match space.unavoidable_between(prev.cell, p.cell) {
                    None => ambiguous.push(AmbiguousSegment {
                        after_index: i - 1,
                        from: prev.cell,
                        to: p.cell,
                        disconnected: true,
                    }),
                    Some(cells) if cells.is_empty() => ambiguous.push(AmbiguousSegment {
                        after_index: i - 1,
                        from: prev.cell,
                        to: p.cell,
                        disconnected: false,
                    }),
                    Some(cells) => {
                        let gap_start = prev.end();
                        let gap_end = p.start().max(gap_start);
                        let mut entered_from = prev.cell;
                        for (cell, time) in
                            cells.iter().zip(split_gap(gap_start, gap_end, cells.len()))
                        {
                            let mut annotations = extra_annotations(*cell);
                            annotations.insert(inference_marker());
                            out.push(PresenceInterval {
                                transition: resolve_transition(space, entered_from, *cell),
                                cell: *cell,
                                time,
                                annotations,
                                transition_annotations: AnnotationSet::new(),
                            });
                            inferred.push(InferredStay {
                                index: out.len() - 1,
                                cell: *cell,
                            });
                            entered_from = *cell;
                        }
                    }
                }
            }
        }
        out.push(p.clone());
    }

    InferenceOutcome {
        trace: Trace::new(out).expect("inference preserves order"),
        inferred,
        ambiguous,
    }
}

fn has_direct_edge(space: &IndoorSpace, from: CellRef, to: CellRef) -> bool {
    from.layer == to.layer
        && space
            .nrg(from.layer)
            .is_some_and(|g| g.has_edge(from.node, to.node))
}

/// Resolves the entering transition of an inferred stay: when the NRG has
/// exactly one edge `from → to`, that edge is certain too.
fn resolve_transition(space: &IndoorSpace, from: CellRef, to: CellRef) -> TransitionTaken {
    let Some(g) = space.nrg(from.layer) else {
        return TransitionTaken::Unknown;
    };
    let mut edges = g.edges_between(from.node, to.node);
    match (edges.next(), edges.next()) {
        (Some(e), None) => TransitionTaken::Edge {
            layer: from.layer,
            edge: e.id,
        },
        _ => TransitionTaken::Unknown,
    }
}

/// Convenience check used by analytics: does a trace contain inferred
/// tuples?
pub fn count_inferred(trace: &Trace) -> usize {
    let marker = inference_marker();
    trace
        .intervals()
        .iter()
        .filter(|p| p.annotations.contains(&marker))
        .count()
}

/// Splits `[start, end]` into `parts` contiguous intervals, the `j`-th
/// ending at `start + ⌊total · (j + 1) / parts⌋` seconds and the last
/// exactly at `end`, so the shares tile the range with no gap or overlap.
fn split_gap(start: Timestamp, end: Timestamp, parts: usize) -> Vec<TimeInterval> {
    assert!(parts > 0);
    let total = (end - start).as_seconds();
    let mut out = Vec::with_capacity(parts);
    let mut cursor = start;
    for j in 0..parts {
        let share_end = if j == parts - 1 {
            end
        } else {
            start + Duration::seconds(total * (j as i64 + 1) / parts as i64)
        };
        out.push(TimeInterval::new(cursor, share_end));
        cursor = share_end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cell, CellClass, LayerKind, Transition, TransitionKind};

    /// Fig. 6 floor −2 chain: E(60887) -> P(60888) -> S(60890) -> C, with
    /// P <-> S bidirectional.
    fn louvre_minus2() -> (IndoorSpace, CellRef, CellRef, CellRef, CellRef) {
        let mut s = IndoorSpace::new();
        let zones = s.add_layer("zones", LayerKind::Thematic);
        let e = s
            .add_cell(
                zones,
                Cell::new(
                    "zone60887",
                    "Temporary exhibition (E)",
                    CellClass::Exhibition,
                ),
            )
            .unwrap();
        let p = s
            .add_cell(
                zones,
                Cell::new("zone60888", "Passage (P)", CellClass::Corridor),
            )
            .unwrap();
        let sv = s
            .add_cell(zones, Cell::new("zone60890", "Shops (S)", CellClass::Shop))
            .unwrap();
        let c = s
            .add_cell(
                zones,
                Cell::new("carrousel", "Carrousel exit (C)", CellClass::Exit),
            )
            .unwrap();
        s.add_transition(
            e,
            p,
            Transition::named(TransitionKind::Checkpoint, "checkpoint002"),
        )
        .unwrap();
        s.add_transition_pair(p, sv, Transition::new(TransitionKind::Opening))
            .unwrap();
        s.add_transition(sv, c, Transition::new(TransitionKind::Checkpoint))
            .unwrap();
        (s, e, p, sv, c)
    }

    fn t(h: u32, m: u32, s: u32) -> Timestamp {
        Timestamp::from_ymd_hms(2017, 2, 12, h, m, s)
    }

    fn detection(cell: CellRef, start: Timestamp, end: Timestamp) -> PresenceInterval {
        PresenceInterval::new(TransitionTaken::Unknown, cell, start, end)
    }

    #[test]
    fn fig6_infers_the_undetected_passage() {
        let (s, e, p, sv, _) = louvre_minus2();
        // Detected in E until 17:30:21, then in S from 17:31:42 — P missing.
        let trace = Trace::new(vec![
            detection(e, t(17, 10, 0), t(17, 30, 21)),
            detection(sv, t(17, 31, 42), t(17, 33, 0)),
        ])
        .unwrap();
        let outcome = infer_missing_cells(&s, &trace, |_| {
            AnnotationSet::from_iter([
                Annotation::goal("cloakroomPickup"),
                Annotation::goal("souvenirBuy"),
                Annotation::goal("museumExit"),
            ])
        });
        assert_eq!(outcome.trace.len(), 3);
        assert_eq!(outcome.inferred.len(), 1);
        assert!(outcome.ambiguous.is_empty());
        let inferred = outcome.trace.get(1).unwrap();
        assert_eq!(inferred.cell, p);
        // The paper's inferred tuple timing: exactly the gap.
        assert_eq!(inferred.start(), t(17, 30, 21));
        assert_eq!(inferred.end(), t(17, 31, 42));
        // Marked as inferred, carrying the domain goals.
        assert!(inferred.annotations.contains(&inference_marker()));
        assert!(inferred
            .annotations
            .has(&AnnotationKind::Goal, "cloakroomPickup"));
        // The entering transition (checkpoint002) is certain: only edge E->P.
        assert!(matches!(inferred.transition, TransitionTaken::Edge { .. }));
    }

    #[test]
    fn multiple_unavoidable_cells_split_the_gap() {
        let (s, e, p, sv, c) = louvre_minus2();
        // E then C: both P and S must be traversed.
        let trace = Trace::new(vec![
            detection(e, t(10, 0, 0), t(10, 10, 0)),
            detection(c, t(10, 20, 0), t(10, 25, 0)),
        ])
        .unwrap();
        let outcome = infer_missing_cells(&s, &trace, |_| AnnotationSet::new());
        assert_eq!(outcome.trace.len(), 4);
        assert_eq!(outcome.inferred.len(), 2);
        let first = outcome.trace.get(1).unwrap();
        let second = outcome.trace.get(2).unwrap();
        assert_eq!(first.cell, p);
        assert_eq!(second.cell, sv);
        // 10-minute gap split evenly: 5 minutes each.
        assert_eq!(first.start(), t(10, 10, 0));
        assert_eq!(first.end(), t(10, 15, 0));
        assert_eq!(second.start(), t(10, 15, 0));
        assert_eq!(second.end(), t(10, 20, 0));
    }

    #[test]
    fn adjacent_detections_need_no_inference() {
        let (s, e, p, ..) = louvre_minus2();
        let trace = Trace::new(vec![
            detection(e, t(10, 0, 0), t(10, 5, 0)),
            detection(p, t(10, 5, 0), t(10, 6, 0)),
        ])
        .unwrap();
        let outcome = infer_missing_cells(&s, &trace, |_| AnnotationSet::new());
        assert_eq!(outcome.trace.len(), 2);
        assert!(outcome.inferred.is_empty());
        assert!(outcome.ambiguous.is_empty());
    }

    #[test]
    fn unreachable_pair_is_flagged_disconnected() {
        let (s, e, _, sv, c) = louvre_minus2();
        // C -> E is impossible (one-way chain).
        let trace = Trace::new(vec![
            detection(c, t(10, 0, 0), t(10, 5, 0)),
            detection(e, t(10, 6, 0), t(10, 7, 0)),
        ])
        .unwrap();
        let outcome = infer_missing_cells(&s, &trace, |_| AnnotationSet::new());
        assert_eq!(outcome.trace.len(), 2, "nothing inserted");
        assert_eq!(outcome.ambiguous.len(), 1);
        assert!(outcome.ambiguous[0].disconnected);
        let _ = (sv, e);
    }

    #[test]
    fn parallel_routes_are_ambiguous_not_inferred() {
        // Diamond: a -> b1 -> c, a -> b2 -> c. Neither b is unavoidable.
        let mut s = IndoorSpace::new();
        let l = s.add_layer("zones", LayerKind::Thematic);
        let a = s.add_cell(l, Cell::new("a", "A", CellClass::Zone)).unwrap();
        let b1 = s
            .add_cell(l, Cell::new("b1", "B1", CellClass::Zone))
            .unwrap();
        let b2 = s
            .add_cell(l, Cell::new("b2", "B2", CellClass::Zone))
            .unwrap();
        let c = s.add_cell(l, Cell::new("c", "C", CellClass::Zone)).unwrap();
        s.add_transition(a, b1, Transition::new(TransitionKind::Door))
            .unwrap();
        s.add_transition(b1, c, Transition::new(TransitionKind::Door))
            .unwrap();
        s.add_transition(a, b2, Transition::new(TransitionKind::Door))
            .unwrap();
        s.add_transition(b2, c, Transition::new(TransitionKind::Door))
            .unwrap();
        let trace = Trace::new(vec![
            detection(a, Timestamp(0), Timestamp(10)),
            detection(c, Timestamp(20), Timestamp(30)),
        ])
        .unwrap();
        let outcome = infer_missing_cells(&s, &trace, |_| AnnotationSet::new());
        assert!(outcome.inferred.is_empty());
        assert_eq!(outcome.ambiguous.len(), 1);
        assert!(!outcome.ambiguous[0].disconnected);
    }

    #[test]
    fn abutting_detections_get_zero_length_inferred_stays() {
        let (s, e, p, sv, _) = louvre_minus2();
        let trace = Trace::new(vec![
            detection(e, t(10, 0, 0), t(10, 5, 0)),
            detection(sv, t(10, 5, 0), t(10, 6, 0)), // no gap
        ])
        .unwrap();
        let outcome = infer_missing_cells(&s, &trace, |_| AnnotationSet::new());
        assert_eq!(outcome.inferred.len(), 1);
        let stay = outcome.trace.get(1).unwrap();
        assert_eq!(stay.cell, p);
        assert!(stay.is_instantaneous());
        assert_eq!(stay.start(), t(10, 5, 0));
    }

    #[test]
    fn count_inferred_counts_markers() {
        let (s, e, _, sv, _) = louvre_minus2();
        let trace = Trace::new(vec![
            detection(e, t(10, 0, 0), t(10, 5, 0)),
            detection(sv, t(10, 7, 0), t(10, 8, 0)),
        ])
        .unwrap();
        let outcome = infer_missing_cells(&s, &trace, |_| AnnotationSet::new());
        assert_eq!(count_inferred(&outcome.trace), 1);
        assert_eq!(count_inferred(&trace), 0);
    }

    #[test]
    fn split_gap_shares_are_contiguous_and_exact() {
        let parts = split_gap(Timestamp(0), Timestamp(100), 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].start, Timestamp(0));
        assert_eq!(parts[2].end, Timestamp(100));
        for w in parts.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        let total: i64 = parts.iter().map(|i| i.duration().as_seconds()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn same_cell_redetection_is_not_inferred() {
        let (s, e, ..) = louvre_minus2();
        let trace = Trace::new(vec![
            detection(e, t(10, 0, 0), t(10, 5, 0)),
            detection(e, t(10, 30, 0), t(10, 40, 0)),
        ])
        .unwrap();
        let outcome = infer_missing_cells(&s, &trace, |_| AnnotationSet::new());
        assert!(outcome.inferred.is_empty());
        assert!(outcome.ambiguous.is_empty());
    }
}
