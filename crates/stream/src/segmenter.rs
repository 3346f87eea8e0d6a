//! Online episodic segmentation of a single visit.
//!
//! [`IncrementalSegmenter`] maintains one [`RunBuilder`] per configured
//! `(predicate, label)` pair and feeds each arriving presence interval
//! through every predicate. An episode is emitted the instant its maximal
//! run is closed by a non-matching interval (or by visit end) — exactly
//! when the batch extractor would have produced it, because both sit on
//! the same `RunBuilder`.
//!
//! Def. 3.4 condition (2) (`A'_traj ≠ A_traj`) is honoured per visit: a
//! predicate whose label equals the visit's own annotation set is
//! *suppressed* for that visit (the batch path refuses the whole call
//! with `TrajectoryError::NotProper`; a stream cannot refuse one visit's
//! worth of an infinite stream, so it skips and counts the anomaly).

use sitm_core::{AnnotationSet, Episode, IntervalPredicate, OpenRun, PresenceInterval, RunBuilder};

/// Predicate-driven episode detection over one visit's interval stream.
/// The visit supplies each tuple's index (how many stays it accepted
/// before), so the segmenter keeps only what its runs hold.
#[derive(Debug)]
pub struct IncrementalSegmenter {
    builders: Vec<RunBuilder>,
    suppressed: Vec<bool>,
}

impl IncrementalSegmenter {
    /// A segmenter for a visit annotated with `trajectory_annotations`,
    /// detecting episodes for every pair in `predicates`.
    pub fn new(
        predicates: &[(IntervalPredicate, AnnotationSet)],
        trajectory_annotations: &AnnotationSet,
    ) -> Self {
        IncrementalSegmenter {
            builders: predicates
                .iter()
                .map(|(_, label)| RunBuilder::new(label.clone()))
                .collect(),
            suppressed: predicates
                .iter()
                .map(|(_, label)| label == trajectory_annotations)
                .collect(),
        }
    }

    /// Number of predicates whose label collides with the visit's own
    /// annotations (each is a per-visit Def. 3.4(2) violation).
    pub fn suppressed_count(&self) -> usize {
        self.suppressed.iter().filter(|&&s| s).count()
    }

    /// Feeds tuple `index` of the visit's trace; pushes
    /// `(predicate_index, episode)` for every run this interval closes.
    pub fn observe(
        &mut self,
        predicates: &[(IntervalPredicate, AnnotationSet)],
        index: usize,
        interval: &PresenceInterval,
        out: &mut Vec<(usize, Episode)>,
    ) {
        debug_assert_eq!(predicates.len(), self.builders.len());
        for (p, builder) in self.builders.iter_mut().enumerate() {
            if self.suppressed[p] {
                continue;
            }
            let matches = predicates[p].0.eval(interval);
            if let Some(episode) = builder.observe(index, interval, matches) {
                out.push((p, episode));
            }
        }
    }

    /// Ends the visit after `tuples` tuples: closes every open run.
    pub fn finish(&mut self, tuples: usize, out: &mut Vec<(usize, Episode)>) {
        for (p, builder) in self.builders.iter_mut().enumerate() {
            if self.suppressed[p] {
                continue;
            }
            if let Some(episode) = builder.close(tuples) {
                out.push((p, episode));
            }
        }
    }

    /// The per-predicate open runs: all a checkpoint stores of the
    /// segmenter.
    pub fn open_runs(&self) -> Vec<Option<OpenRun>> {
        self.builders
            .iter()
            .map(|b| b.open_run().cloned())
            .collect()
    }

    /// Rebuilds a segmenter from the open runs of one taken against the
    /// same predicate table, for a visit annotated with
    /// `trajectory_annotations` (labels and suppressions are re-derived).
    pub fn restore(
        predicates: &[(IntervalPredicate, AnnotationSet)],
        trajectory_annotations: &AnnotationSet,
        open_runs: Vec<Option<OpenRun>>,
    ) -> Self {
        let mut segmenter = IncrementalSegmenter::new(predicates, trajectory_annotations);
        for (builder, run) in segmenter.builders.iter_mut().zip(open_runs) {
            builder.restore_run(run);
        }
        segmenter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_core::{Annotation, Timestamp, TransitionTaken};
    use sitm_graph::{CellRef, LayerIdx, NodeId};

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
    }

    fn stay(c: usize, start: i64, end: i64) -> PresenceInterval {
        PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(c),
            Timestamp(start),
            Timestamp(end),
        )
    }

    fn label(s: &str) -> AnnotationSet {
        AnnotationSet::from_iter([Annotation::goal(s)])
    }

    fn predicates() -> Vec<(IntervalPredicate, AnnotationSet)> {
        vec![
            (IntervalPredicate::in_cells([cell(1), cell(2)]), label("in")),
            (
                IntervalPredicate::in_cells([cell(1), cell(2)]).not(),
                label("out"),
            ),
        ]
    }

    #[test]
    fn emits_on_run_close_and_finish() {
        let preds = predicates();
        let mut seg = IncrementalSegmenter::new(&preds, &label("visit"));
        let mut out = Vec::new();
        // Cells 0 1 2 0: predicate 0 runs over tuples 1..3, predicate 1
        // over 0..1 and 3..4.
        seg.observe(&preds, 0, &stay(0, 0, 10), &mut out);
        assert!(out.is_empty(), "nothing closed yet");
        seg.observe(&preds, 1, &stay(1, 10, 20), &mut out);
        assert_eq!(out.len(), 1, "'out' run 0..1 closed by tuple 1");
        assert_eq!(out[0].0, 1);
        assert_eq!(out[0].1.range, 0..1);
        seg.observe(&preds, 2, &stay(2, 20, 30), &mut out);
        seg.observe(&preds, 3, &stay(0, 30, 40), &mut out);
        assert_eq!(out.len(), 2, "'in' run 1..3 closed by tuple 3");
        assert_eq!(out[1].0, 0);
        assert_eq!(out[1].1.range, 1..3);
        seg.finish(4, &mut out);
        assert_eq!(out.len(), 3, "trailing 'out' run closed at finish");
        assert_eq!(out[2].1.range, 3..4);
    }

    #[test]
    fn suppresses_label_equal_to_trajectory_annotations() {
        let preds = vec![(IntervalPredicate::any(), label("visit"))];
        let mut seg = IncrementalSegmenter::new(&preds, &label("visit"));
        assert_eq!(seg.suppressed_count(), 1);
        let mut out = Vec::new();
        seg.observe(&preds, 0, &stay(0, 0, 10), &mut out);
        seg.finish(1, &mut out);
        assert!(out.is_empty(), "NotProper predicate never emits");
        let restored = IncrementalSegmenter::restore(&preds, &label("visit"), vec![None]);
        assert_eq!(restored.suppressed_count(), 1, "re-derived at restore");
    }

    #[test]
    fn snapshot_restore_resumes_mid_run() {
        let preds = predicates();
        let mut seg = IncrementalSegmenter::new(&preds, &label("visit"));
        let mut out = Vec::new();
        seg.observe(&preds, 0, &stay(1, 0, 10), &mut out);
        let open_runs = seg.open_runs();
        assert_eq!(open_runs[0].as_ref().map(|run| run.start), Some(0));

        let mut resumed = IncrementalSegmenter::restore(&preds, &label("visit"), open_runs);
        resumed.observe(&preds, 1, &stay(2, 10, 20), &mut out);
        resumed.finish(2, &mut out);
        let in_eps: Vec<_> = out.iter().filter(|(p, _)| *p == 0).collect();
        assert_eq!(in_eps.len(), 1);
        assert_eq!(in_eps[0].1.range, 0..2, "run spans the checkpoint");
        assert_eq!(in_eps[0].1.time.start, Timestamp(0));
        assert_eq!(in_eps[0].1.time.end, Timestamp(20));
    }
}
