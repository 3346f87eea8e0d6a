//! The per-visit state machine: one trajectory under construction.
//!
//! A visit consumes its slice of the event stream in arrival order,
//! enforcing the same invariants `sitm_core::Trace` enforces in batch
//! (non-decreasing tuple starts, single detection layer) — except that a
//! violating event is *dropped and counted* instead of failing the whole
//! trace, because a live stream has no way to reject history.
//!
//! A visit stores its facts once: its moving object, its annotations,
//! its accepted stays, an open fix and the open runs. Its detection
//! layer and last start are its stays' own, the next tuple index is how
//! many it has, and which predicates it suppresses follows from its
//! annotations (Def. 3.4(2)).

use sitm_core::{
    AnnotationSet, Episode, IntervalPredicate, OpenRun, PresenceInterval, SemanticTrajectory,
    Timestamp, Trace, TransitionTaken,
};
use sitm_graph::CellRef;

use crate::segmenter::IncrementalSegmenter;

/// Counters for events the engine had to reject or adapt. Mirrors the
/// failure modes of the batch validators (`TraceError`,
/// `TrajectoryError::NotProper`) plus stream-only conditions. A
/// zero-duration stay (§4.1's detection errors) is neither: the engine
/// keeps it, as a batch trace does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Anomalies {
    /// Intervals dropped for starting before their predecessor
    /// (batch: `TraceError::OutOfOrder`).
    pub out_of_order: u64,
    /// Intervals dropped for referencing a different layer than the
    /// visit's detection layer (batch: `TraceError::MixedLayers`).
    pub mixed_layer: u64,
    /// Observations for visits never opened: the engine opens them
    /// implicitly rather than losing data.
    pub implicit_opens: u64,
    /// Events for already-closed (or never-opened-then-closed) visits.
    pub after_close: u64,
    /// Per-visit predicate suppressions under Def. 3.4(2)
    /// (batch: `TrajectoryError::NotProper`).
    pub not_proper: u64,
    /// Re-opens of an already-open visit (metadata update ignored).
    pub duplicate_opens: u64,
}

impl Anomalies {
    /// Sum of all counters.
    pub fn total(&self) -> u64 {
        self.out_of_order
            + self.mixed_layer
            + self.implicit_opens
            + self.after_close
            + self.not_proper
            + self.duplicate_opens
    }

    /// Adds another counter set into this one.
    pub fn absorb(&mut self, other: &Anomalies) {
        self.out_of_order += other.out_of_order;
        self.mixed_layer += other.mixed_layer;
        self.implicit_opens += other.implicit_opens;
        self.after_close += other.after_close;
        self.not_proper += other.not_proper;
        self.duplicate_opens += other.duplicate_opens;
    }
}

/// An in-flight presence interval being coalesced from raw fixes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenFix {
    /// Cell the fixes land in.
    pub cell: CellRef,
    /// First fix instant.
    pub start: Timestamp,
    /// Most recent fix instant.
    pub last_at: Timestamp,
}

/// Serializable visit state: what a checkpoint stores of one open
/// visit. Nothing here is derivable from the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct VisitSnapshot {
    /// Moving-object identifier.
    pub moving_object: String,
    /// Trajectory-level annotations.
    pub annotations: AnnotationSet,
    /// Open fix-coalescing state.
    pub open_fix: Option<OpenFix>,
    /// Per-predicate open runs, each starting at an accepted stay.
    pub open_runs: Vec<Option<OpenRun>>,
    /// Accepted intervals: the visit's trajectory prefix, in start
    /// order on one layer.
    pub intervals: Vec<PresenceInterval>,
}

/// One visit's full online state.
#[derive(Debug)]
pub struct VisitState {
    /// Moving-object identifier (`IDmo`).
    pub moving_object: String,
    /// Trajectory-level annotations (`A_traj`).
    pub annotations: AnnotationSet,
    segmenter: IncrementalSegmenter,
    open_fix: Option<OpenFix>,
    intervals: Vec<PresenceInterval>,
}

impl VisitState {
    /// Opens a visit.
    pub fn new(
        moving_object: String,
        annotations: AnnotationSet,
        predicates: &[(IntervalPredicate, AnnotationSet)],
        anomalies: &mut Anomalies,
    ) -> Self {
        let segmenter = IncrementalSegmenter::new(predicates, &annotations);
        anomalies.not_proper += segmenter.suppressed_count() as u64;
        VisitState {
            moving_object,
            annotations,
            segmenter,
            open_fix: None,
            intervals: Vec::new(),
        }
    }

    /// The intervals accepted so far. The engine compares this slice's
    /// length around each event to learn whether the event changed what
    /// a live snapshot shows, without widening the apply signatures.
    pub fn retained_intervals(&self) -> &[PresenceInterval] {
        &self.intervals
    }

    /// The trajectory prefix observed so far. `None` before the first
    /// accepted interval, or when the visit's annotation set is empty
    /// (Def. 3.1 requires a non-empty `A_traj`).
    pub fn live_trajectory(&self) -> Option<SemanticTrajectory> {
        if self.intervals.is_empty() {
            return None;
        }
        let trace = Trace::new(self.intervals.clone()).ok()?;
        SemanticTrajectory::new(self.moving_object.clone(), trace, self.annotations.clone()).ok()
    }

    /// The finished trajectory of a closed visit: what
    /// [`VisitState::live_trajectory`] would show, moved out of the state
    /// instead of cloned.
    pub fn into_trajectory(self) -> Option<SemanticTrajectory> {
        if self.intervals.is_empty() {
            return None;
        }
        let trace = Trace::new(self.intervals).ok()?;
        SemanticTrajectory::new(self.moving_object, trace, self.annotations).ok()
    }

    /// Ingests a raw fix, possibly closing a coalesced presence interval.
    pub fn apply_fix(
        &mut self,
        cell: CellRef,
        at: Timestamp,
        predicates: &[(IntervalPredicate, AnnotationSet)],
        out: &mut Vec<(usize, Episode)>,
        anomalies: &mut Anomalies,
    ) {
        match &mut self.open_fix {
            Some(open) if open.cell == cell => {
                if at < open.last_at {
                    anomalies.out_of_order += 1;
                } else {
                    open.last_at = at;
                }
            }
            _ => {
                if let Some(interval) = self.close_open_fix() {
                    self.feed(interval, predicates, out, anomalies);
                }
                if self.intervals.last().is_some_and(|last| at < last.start()) {
                    anomalies.out_of_order += 1;
                } else {
                    self.open_fix = Some(OpenFix {
                        cell,
                        start: at,
                        last_at: at,
                    });
                }
            }
        }
    }

    /// Ingests a pre-formed presence interval.
    pub fn apply_presence(
        &mut self,
        interval: PresenceInterval,
        predicates: &[(IntervalPredicate, AnnotationSet)],
        out: &mut Vec<(usize, Episode)>,
        anomalies: &mut Anomalies,
    ) {
        if let Some(coalesced) = self.close_open_fix() {
            self.feed(coalesced, predicates, out, anomalies);
        }
        self.feed(interval, predicates, out, anomalies);
    }

    /// Ends the visit: closes the open fix and every open run.
    pub fn close(
        &mut self,
        predicates: &[(IntervalPredicate, AnnotationSet)],
        out: &mut Vec<(usize, Episode)>,
        anomalies: &mut Anomalies,
    ) {
        if let Some(interval) = self.close_open_fix() {
            self.feed(interval, predicates, out, anomalies);
        }
        self.segmenter.finish(self.intervals.len(), out);
    }

    fn close_open_fix(&mut self) -> Option<PresenceInterval> {
        self.open_fix.take().map(|open| {
            PresenceInterval::new(
                TransitionTaken::Unknown,
                open.cell,
                open.start,
                open.last_at,
            )
        })
    }

    /// Validated hand-off into the segmenter (the streaming analogue of
    /// `Trace::push`): the last accepted stay holds the visit's last
    /// start and, the stays sharing one layer, its detection layer.
    fn feed(
        &mut self,
        interval: PresenceInterval,
        predicates: &[(IntervalPredicate, AnnotationSet)],
        out: &mut Vec<(usize, Episode)>,
        anomalies: &mut Anomalies,
    ) {
        if let Some(last) = self.intervals.last() {
            if interval.start() < last.start() {
                anomalies.out_of_order += 1;
                return;
            }
            if interval.cell.layer != last.cell.layer {
                anomalies.mixed_layer += 1;
                return;
            }
        }
        self.segmenter
            .observe(predicates, self.intervals.len(), &interval, out);
        self.intervals.push(interval);
    }

    /// Captures checkpointable state.
    pub fn snapshot(&self) -> VisitSnapshot {
        VisitSnapshot {
            moving_object: self.moving_object.clone(),
            annotations: self.annotations.clone(),
            open_fix: self.open_fix.clone(),
            open_runs: self.segmenter.open_runs(),
            intervals: self.intervals.clone(),
        }
    }

    /// Rebuilds from a snapshot taken against the same predicate table:
    /// the suppressed predicates are re-derived from the annotations
    /// (and not counted again as `not_proper`).
    pub fn restore(
        snapshot: VisitSnapshot,
        predicates: &[(IntervalPredicate, AnnotationSet)],
    ) -> Self {
        VisitState {
            segmenter: IncrementalSegmenter::restore(
                predicates,
                &snapshot.annotations,
                snapshot.open_runs,
            ),
            moving_object: snapshot.moving_object,
            annotations: snapshot.annotations,
            open_fix: snapshot.open_fix,
            intervals: snapshot.intervals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_core::Annotation;
    use sitm_graph::{LayerIdx, NodeId};

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
    }

    fn label(s: &str) -> AnnotationSet {
        AnnotationSet::from_iter([Annotation::goal(s)])
    }

    fn preds() -> Vec<(IntervalPredicate, AnnotationSet)> {
        vec![(IntervalPredicate::in_cells([cell(1)]), label("one"))]
    }

    fn new_state(anoms: &mut Anomalies) -> VisitState {
        VisitState::new("mo".into(), label("visit"), &preds(), anoms)
    }

    #[test]
    fn fixes_coalesce_into_presence_intervals() {
        let preds = preds();
        let mut anoms = Anomalies::default();
        let mut state = new_state(&mut anoms);
        let mut out = Vec::new();
        // Three fixes in cell 1, one in cell 0: one interval [0, 20] in
        // cell 1 closed by the cell change, then [20, 20] open in cell 0.
        state.apply_fix(cell(1), Timestamp(0), &preds, &mut out, &mut anoms);
        state.apply_fix(cell(1), Timestamp(10), &preds, &mut out, &mut anoms);
        state.apply_fix(cell(1), Timestamp(20), &preds, &mut out, &mut anoms);
        assert!(out.is_empty());
        state.apply_fix(cell(0), Timestamp(25), &preds, &mut out, &mut anoms);
        assert_eq!(state.retained_intervals().len(), 1);
        state.close(&preds, &mut out, &mut anoms);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.time.start, Timestamp(0));
        assert_eq!(out[0].1.time.end, Timestamp(20));
        assert_eq!(anoms.total(), 0);
    }

    #[test]
    fn out_of_order_and_mixed_layer_are_dropped_and_counted() {
        let preds = preds();
        let mut anoms = Anomalies::default();
        let mut state = new_state(&mut anoms);
        let mut out = Vec::new();
        let ok = PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(1),
            Timestamp(100),
            Timestamp(200),
        );
        state.apply_presence(ok, &preds, &mut out, &mut anoms);
        let stale = PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(1),
            Timestamp(50),
            Timestamp(60),
        );
        state.apply_presence(stale, &preds, &mut out, &mut anoms);
        assert_eq!(anoms.out_of_order, 1);
        let other_layer = PresenceInterval::new(
            TransitionTaken::Unknown,
            CellRef::new(LayerIdx::from_index(3), NodeId::from_index(0)),
            Timestamp(200),
            Timestamp(300),
        );
        state.apply_presence(other_layer, &preds, &mut out, &mut anoms);
        assert_eq!(anoms.mixed_layer, 1);
        assert_eq!(
            state.retained_intervals().len(),
            1,
            "both rejects left no trace"
        );
    }

    #[test]
    fn snapshot_round_trips_through_restore() {
        let preds = preds();
        let mut anoms = Anomalies::default();
        let mut state = new_state(&mut anoms);
        let mut out = Vec::new();
        state.apply_fix(cell(1), Timestamp(0), &preds, &mut out, &mut anoms);
        let snap = state.snapshot();
        assert_eq!(snap.open_fix.as_ref().unwrap().cell, cell(1));
        let restored = VisitState::restore(snap.clone(), &preds);
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    fn retention_exposes_the_live_trajectory_prefix() {
        let preds = preds();
        let mut anoms = Anomalies::default();
        let mut state = new_state(&mut anoms);
        let mut out = Vec::new();
        assert!(state.live_trajectory().is_none(), "nothing accepted yet");
        let stay = |c: usize, s: i64, e: i64| {
            PresenceInterval::new(
                TransitionTaken::Unknown,
                cell(c),
                Timestamp(s),
                Timestamp(e),
            )
        };
        state.apply_presence(stay(1, 0, 10), &preds, &mut out, &mut anoms);
        state.apply_presence(stay(0, 10, 30), &preds, &mut out, &mut anoms);
        let live = state.live_trajectory().expect("prefix available");
        assert_eq!(live.trace().len(), 2);
        assert_eq!(live.span().end, Timestamp(30));
        // The prefix survives a checkpoint round-trip.
        let restored = VisitState::restore(state.snapshot(), &preds);
        assert_eq!(restored.live_trajectory().expect("restored prefix"), live);
    }

    #[test]
    fn a_closed_visit_moves_out_its_live_prefix() {
        let preds = preds();
        let mut anoms = Anomalies::default();
        let mut out = Vec::new();
        assert!(
            new_state(&mut anoms).into_trajectory().is_none(),
            "nothing accepted"
        );
        let mut state = new_state(&mut anoms);
        for (c, s, e) in [(1, 0, 10), (0, 10, 30), (1, 45, 60)] {
            let stay = PresenceInterval::new(
                TransitionTaken::Unknown,
                cell(c),
                Timestamp(s),
                Timestamp(e),
            );
            state.apply_presence(stay, &preds, &mut out, &mut anoms);
        }
        let live = state.live_trajectory().expect("prefix available");
        state.close(&preds, &mut out, &mut anoms);
        assert_eq!(state.into_trajectory(), Some(live));
    }
}
