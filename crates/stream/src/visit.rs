//! The per-visit state machine: one trajectory under construction.
//!
//! A visit consumes its slice of the event stream in arrival order,
//! enforcing the same invariants `sitm_core::Trace` enforces in batch
//! (non-decreasing tuple starts, single detection layer) — except that a
//! violating event is *dropped and counted* instead of failing the whole
//! trace, because a live stream has no way to reject history.

use sitm_core::{
    AnnotationSet, Episode, IntervalPredicate, PresenceInterval, SemanticTrajectory, Timestamp,
    Trace, TransitionTaken,
};
use sitm_graph::LayerIdx;
use sitm_space::CellRef;

use crate::segmenter::{IncrementalSegmenter, SegmenterSnapshot};
use crate::shard::ShardCtx;

/// Counters for events the engine had to reject or adapt. Mirrors the
/// failure modes of the batch validators (`TraceError`,
/// `TrajectoryError::NotProper`) plus stream-only conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Anomalies {
    /// Intervals dropped for starting before their predecessor
    /// (batch: `TraceError::OutOfOrder`).
    pub out_of_order: u64,
    /// Intervals dropped for referencing a different layer than the
    /// visit's detection layer (batch: `TraceError::MixedLayers`).
    pub mixed_layer: u64,
    /// Zero-duration intervals filtered when the engine is configured to
    /// drop them (§4.1's detection errors).
    pub instantaneous_dropped: u64,
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
            + self.instantaneous_dropped
            + self.implicit_opens
            + self.after_close
            + self.not_proper
            + self.duplicate_opens
    }

    /// Adds another counter set into this one.
    pub fn absorb(&mut self, other: &Anomalies) {
        self.out_of_order += other.out_of_order;
        self.mixed_layer += other.mixed_layer;
        self.instantaneous_dropped += other.instantaneous_dropped;
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

/// Serializable visit state.
#[derive(Debug, Clone, PartialEq)]
pub struct VisitSnapshot {
    /// Moving-object identifier.
    pub moving_object: String,
    /// Trajectory-level annotations.
    pub annotations: AnnotationSet,
    /// Detection layer, once known.
    pub layer: Option<LayerIdx>,
    /// Start of the last accepted interval.
    pub last_start: Option<Timestamp>,
    /// Open fix-coalescing state.
    pub open_fix: Option<OpenFix>,
    /// Segmenter state.
    pub segmenter: SegmenterSnapshot,
    /// Accepted intervals, retained only under
    /// [`ShardCtx::retain_intervals`] (live-query support).
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
    layer: Option<LayerIdx>,
    last_start: Option<Timestamp>,
    open_fix: Option<OpenFix>,
    intervals: Vec<PresenceInterval>,
}

impl VisitState {
    /// Opens a visit.
    pub fn new(
        moving_object: String,
        annotations: AnnotationSet,
        ctx: &ShardCtx<'_>,
        anomalies: &mut Anomalies,
    ) -> Self {
        let segmenter = IncrementalSegmenter::new(ctx.predicates, &annotations);
        anomalies.not_proper += segmenter.suppressed_count() as u64;
        VisitState {
            moving_object,
            annotations,
            segmenter,
            layer: None,
            last_start: None,
            open_fix: None,
            intervals: Vec::new(),
        }
    }

    /// Presence intervals accepted so far.
    pub fn intervals_seen(&self) -> usize {
        self.segmenter.index()
    }

    /// The intervals retained for live queries (empty unless
    /// [`ShardCtx::retain_intervals`] is set). The engine compares this
    /// slice's length around each event to learn whether the event
    /// changed what a live snapshot shows, without widening the apply
    /// signatures.
    pub fn retained_intervals(&self) -> &[PresenceInterval] {
        &self.intervals
    }

    /// The trajectory prefix observed so far, when intervals are retained
    /// ([`ShardCtx::retain_intervals`]) and at least one was accepted.
    /// `None` with retention off, before the first accepted interval, or
    /// when the visit's annotation set is empty (Def. 3.1 requires a
    /// non-empty `A_traj`).
    pub fn live_trajectory(&self) -> Option<SemanticTrajectory> {
        if self.intervals.is_empty() {
            return None;
        }
        let trace = Trace::new(self.intervals.clone()).ok()?;
        SemanticTrajectory::new(self.moving_object.clone(), trace, self.annotations.clone()).ok()
    }

    /// Ingests a raw fix, possibly closing a coalesced presence interval.
    pub fn apply_fix(
        &mut self,
        cell: CellRef,
        at: Timestamp,
        ctx: &ShardCtx<'_>,
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
                    self.feed(interval, ctx, out, anomalies);
                }
                if self.last_start.is_some_and(|last| at < last) {
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
        ctx: &ShardCtx<'_>,
        out: &mut Vec<(usize, Episode)>,
        anomalies: &mut Anomalies,
    ) {
        if let Some(coalesced) = self.close_open_fix() {
            self.feed(coalesced, ctx, out, anomalies);
        }
        self.feed(interval, ctx, out, anomalies);
    }

    /// Ends the visit: closes the open fix and every open run.
    pub fn close(
        &mut self,
        ctx: &ShardCtx<'_>,
        out: &mut Vec<(usize, Episode)>,
        anomalies: &mut Anomalies,
    ) {
        if let Some(interval) = self.close_open_fix() {
            self.feed(interval, ctx, out, anomalies);
        }
        self.segmenter.finish(out);
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
    /// `Trace::push`).
    fn feed(
        &mut self,
        interval: PresenceInterval,
        ctx: &ShardCtx<'_>,
        out: &mut Vec<(usize, Episode)>,
        anomalies: &mut Anomalies,
    ) {
        if ctx.drop_instantaneous && interval.is_instantaneous() {
            anomalies.instantaneous_dropped += 1;
            return;
        }
        if self.last_start.is_some_and(|last| interval.start() < last) {
            anomalies.out_of_order += 1;
            return;
        }
        if self.layer.is_some_and(|layer| interval.cell.layer != layer) {
            anomalies.mixed_layer += 1;
            return;
        }
        self.layer.get_or_insert(interval.cell.layer);
        self.last_start = Some(interval.start());
        if ctx.retain_intervals {
            self.intervals.push(interval.clone());
        }
        self.segmenter.observe(ctx.predicates, &interval, out);
    }

    /// Captures checkpointable state.
    pub fn snapshot(&self) -> VisitSnapshot {
        VisitSnapshot {
            moving_object: self.moving_object.clone(),
            annotations: self.annotations.clone(),
            layer: self.layer,
            last_start: self.last_start,
            open_fix: self.open_fix.clone(),
            segmenter: self.segmenter.snapshot(),
            intervals: self.intervals.clone(),
        }
    }

    /// Rebuilds from a snapshot taken against the same predicate table.
    pub fn restore(
        snapshot: VisitSnapshot,
        predicates: &[(IntervalPredicate, AnnotationSet)],
    ) -> Self {
        VisitState {
            moving_object: snapshot.moving_object,
            annotations: snapshot.annotations,
            segmenter: IncrementalSegmenter::restore(predicates, snapshot.segmenter),
            layer: snapshot.layer,
            last_start: snapshot.last_start,
            open_fix: snapshot.open_fix,
            intervals: snapshot.intervals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_core::{Annotation, Duration};
    use sitm_graph::NodeId;

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
    }

    fn label(s: &str) -> AnnotationSet {
        AnnotationSet::from_iter([Annotation::goal(s)])
    }

    fn preds() -> Vec<(IntervalPredicate, AnnotationSet)> {
        vec![(IntervalPredicate::in_cells([cell(1)]), label("one"))]
    }

    fn ctx<'a>(
        predicates: &'a [(IntervalPredicate, AnnotationSet)],
        drop_instantaneous: bool,
    ) -> ShardCtx<'a> {
        ShardCtx {
            predicates,
            drop_instantaneous,
            allowed_lateness: Duration::hours(1),
            retain_intervals: false,
            retain_finished: false,
        }
    }

    fn new_state(anoms: &mut Anomalies) -> VisitState {
        VisitState::new("mo".into(), label("visit"), &ctx(&preds(), false), anoms)
    }

    #[test]
    fn fixes_coalesce_into_presence_intervals() {
        let preds = preds();
        let ctx = ctx(&preds, false);
        let mut anoms = Anomalies::default();
        let mut state = new_state(&mut anoms);
        let mut out = Vec::new();
        // Three fixes in cell 1, one in cell 0: one interval [0, 20] in
        // cell 1 closed by the cell change, then [20, 20] open in cell 0.
        state.apply_fix(cell(1), Timestamp(0), &ctx, &mut out, &mut anoms);
        state.apply_fix(cell(1), Timestamp(10), &ctx, &mut out, &mut anoms);
        state.apply_fix(cell(1), Timestamp(20), &ctx, &mut out, &mut anoms);
        assert!(out.is_empty());
        state.apply_fix(cell(0), Timestamp(25), &ctx, &mut out, &mut anoms);
        assert_eq!(state.intervals_seen(), 1);
        state.close(&ctx, &mut out, &mut anoms);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.time.start, Timestamp(0));
        assert_eq!(out[0].1.time.end, Timestamp(20));
        assert_eq!(anoms.total(), 0);
    }

    #[test]
    fn out_of_order_and_mixed_layer_are_dropped_and_counted() {
        let preds = preds();
        let ctx = ctx(&preds, false);
        let mut anoms = Anomalies::default();
        let mut state = new_state(&mut anoms);
        let mut out = Vec::new();
        let ok = PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(1),
            Timestamp(100),
            Timestamp(200),
        );
        state.apply_presence(ok, &ctx, &mut out, &mut anoms);
        let stale = PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(1),
            Timestamp(50),
            Timestamp(60),
        );
        state.apply_presence(stale, &ctx, &mut out, &mut anoms);
        assert_eq!(anoms.out_of_order, 1);
        let other_layer = PresenceInterval::new(
            TransitionTaken::Unknown,
            CellRef::new(LayerIdx::from_index(3), NodeId::from_index(0)),
            Timestamp(200),
            Timestamp(300),
        );
        state.apply_presence(other_layer, &ctx, &mut out, &mut anoms);
        assert_eq!(anoms.mixed_layer, 1);
        assert_eq!(state.intervals_seen(), 1, "both rejects left no trace");
    }

    #[test]
    fn instantaneous_filter_honours_config() {
        let preds = preds();
        let keep = ctx(&preds, false);
        let drop = ctx(&preds, true);
        let mut anoms = Anomalies::default();
        let mut state = new_state(&mut anoms);
        let mut out = Vec::new();
        let zero = PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(1),
            Timestamp(5),
            Timestamp(5),
        );
        state.apply_presence(zero.clone(), &drop, &mut out, &mut anoms);
        assert_eq!(state.intervals_seen(), 0);
        assert_eq!(anoms.instantaneous_dropped, 1);
        state.apply_presence(zero, &keep, &mut out, &mut anoms);
        assert_eq!(state.intervals_seen(), 1, "kept when the filter is off");
    }

    #[test]
    fn snapshot_round_trips_through_restore() {
        let preds = preds();
        let ctx = ctx(&preds, false);
        let mut anoms = Anomalies::default();
        let mut state = new_state(&mut anoms);
        let mut out = Vec::new();
        state.apply_fix(cell(1), Timestamp(0), &ctx, &mut out, &mut anoms);
        let snap = state.snapshot();
        assert_eq!(snap.open_fix.as_ref().unwrap().cell, cell(1));
        let restored = VisitState::restore(snap.clone(), &preds);
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    fn retention_exposes_the_live_trajectory_prefix() {
        let preds = preds();
        let retaining = ShardCtx {
            retain_intervals: true,
            ..ctx(&preds, false)
        };
        let mut anoms = Anomalies::default();
        let mut state = VisitState::new("mo".into(), label("visit"), &retaining, &mut anoms);
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
        state.apply_presence(stay(1, 0, 10), &retaining, &mut out, &mut anoms);
        state.apply_presence(stay(0, 10, 30), &retaining, &mut out, &mut anoms);
        let live = state.live_trajectory().expect("prefix available");
        assert_eq!(live.trace().len(), 2);
        assert_eq!(live.span().end, Timestamp(30));
        // The prefix survives a checkpoint round-trip.
        let restored = VisitState::restore(state.snapshot(), &preds);
        assert_eq!(restored.live_trajectory().expect("restored prefix"), live);
        // Without retention the prefix is simply absent.
        let mut plain = new_state(&mut anoms);
        plain.apply_presence(stay(1, 0, 10), &ctx(&preds, false), &mut out, &mut anoms);
        assert!(plain.live_trajectory().is_none());
    }
}
