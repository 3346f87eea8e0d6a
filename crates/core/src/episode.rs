//! Episodes (Def. 3.4): meaningful parts of a semantic trajectory.
//!
//! An episode is a subtrajectory whose annotation set differs from the main
//! trajectory's and which satisfies "a given spatiotemporal and/or semantic
//! predicate" `P_ep`, which "is domain-dependent and user-defined". Episode
//! extraction follows the established notion of *maximality*: an episode is
//! "a maximal subsequence of a semantic trajectory, such that all its
//! spatiotemporal positions comply with a given predicate" (SeMiTri, quoted
//! in §2.2).

use std::collections::BTreeSet;
use std::fmt;

use sitm_graph::CellRef;

use crate::annotation::{AnnotationKind, AnnotationSet};
use crate::interval::PresenceInterval;
use crate::time::{Duration, TimeInterval, Timestamp};
use crate::trajectory::{SemanticTrajectory, TrajectoryError};

/// A predicate over individual presence intervals, with combinators.
///
/// The closure is `Send + Sync` so predicate tables can be shared across
/// the worker threads of a parallel ingestion engine (one immutable table
/// behind an `Arc`, evaluated concurrently by every shard).
pub struct IntervalPredicate {
    test: Box<dyn Fn(&PresenceInterval) -> bool + Send + Sync>,
    /// Human-readable description, carried into diagnostics.
    pub description: String,
}

impl fmt::Debug for IntervalPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IntervalPredicate({})", self.description)
    }
}

impl IntervalPredicate {
    /// Builds a predicate from a closure and a description.
    pub fn custom(
        description: impl Into<String>,
        test: impl Fn(&PresenceInterval) -> bool + Send + Sync + 'static,
    ) -> Self {
        IntervalPredicate {
            test: Box::new(test),
            description: description.into(),
        }
    }

    /// Always true.
    pub fn any() -> Self {
        IntervalPredicate::custom("any", |_| true)
    }

    /// True when the stay's cell belongs to `cells`.
    pub fn in_cells<I: IntoIterator<Item = CellRef>>(cells: I) -> Self {
        let set: BTreeSet<CellRef> = cells.into_iter().collect();
        IntervalPredicate::custom(format!("in {} cell(s)", set.len()), move |p| {
            set.contains(&p.cell)
        })
    }

    /// True when the stay lasts at least `min`.
    pub fn min_duration(min: Duration) -> Self {
        IntervalPredicate::custom(format!("duration >= {min}"), move |p| p.duration() >= min)
    }

    /// True when the stay carries the given annotation.
    pub fn has_annotation(kind: AnnotationKind, value: impl Into<String>) -> Self {
        let value = value.into();
        IntervalPredicate::custom(format!("has {kind}:{value}"), move |p| {
            p.annotations.has(&kind, &value)
        })
    }

    /// True when the stay overlaps the window.
    pub fn during(window: TimeInterval) -> Self {
        IntervalPredicate::custom(format!("during {window}"), move |p| p.time.overlaps(window))
    }

    /// Conjunction.
    pub fn and(self, other: IntervalPredicate) -> Self {
        let description = format!("({} AND {})", self.description, other.description);
        IntervalPredicate {
            test: Box::new(move |p| (self.test)(p) && (other.test)(p)),
            description,
        }
    }

    /// Disjunction.
    pub fn or(self, other: IntervalPredicate) -> Self {
        let description = format!("({} OR {})", self.description, other.description);
        IntervalPredicate {
            test: Box::new(move |p| (self.test)(p) || (other.test)(p)),
            description,
        }
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)] // combinator naming (and/or/not) is the point
    pub fn not(self) -> Self {
        let description = format!("(NOT {})", self.description);
        IntervalPredicate {
            test: Box::new(move |p| !(self.test)(p)),
            description,
        }
    }

    /// Evaluates the predicate.
    pub fn eval(&self, p: &PresenceInterval) -> bool {
        (self.test)(p)
    }
}

/// An episode: a tuple range of the parent trajectory plus its own
/// annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct Episode {
    /// Range of tuples of the parent trace.
    pub range: std::ops::Range<usize>,
    /// The episode's time interval (first start .. last end of the range).
    pub time: TimeInterval,
    /// The episode's annotation set (`A'_traj`, ≠ parent's per Def. 3.4).
    pub annotations: AnnotationSet,
}

impl Episode {
    /// Materializes the episode as a [`SemanticTrajectory`] (every episode
    /// is a subtrajectory, Def. 3.4 condition (1)). Fails if the range
    /// covers the whole parent (then it is not a *proper* subsequence) —
    /// except that extraction never produces that when annotations differ.
    pub fn to_subtrajectory(
        &self,
        parent: &SemanticTrajectory,
    ) -> Result<SemanticTrajectory, TrajectoryError> {
        parent.subtrajectory(self.range.clone(), self.annotations.clone())
    }

    /// Episode duration.
    pub fn duration(&self) -> Duration {
        self.time.duration()
    }
}

/// The in-flight state of one maximal run: enough to resume episode
/// construction after a checkpoint without the intervals already consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenRun {
    /// Index of the first tuple of the run within the parent trace.
    pub start: usize,
    /// Start instant of that first tuple.
    pub start_time: Timestamp,
    /// Largest stay end seen inside the run so far (stays may nest, so
    /// this is a running max, not the last end).
    pub max_end: Timestamp,
}

/// Incremental construction of maximal episodes: the streaming-friendly
/// core of [`maximal_episodes`], consuming one predicate verdict per trace
/// tuple and yielding each episode the moment its run closes.
///
/// The batch extractor is implemented on top of this builder, so online
/// consumers (`sitm-stream`) and offline ones provably share run
/// semantics: same ranges, same time intervals, same maximality.
#[derive(Debug, Clone)]
pub struct RunBuilder {
    annotations: AnnotationSet,
    run: Option<OpenRun>,
}

impl RunBuilder {
    /// A builder labelling every emitted episode with `annotations`.
    pub fn new(annotations: AnnotationSet) -> Self {
        RunBuilder {
            annotations,
            run: None,
        }
    }

    /// The label applied to emitted episodes.
    pub fn annotations(&self) -> &AnnotationSet {
        &self.annotations
    }

    /// Feeds tuple `index` with its predicate verdict. A non-matching
    /// tuple closes the open run (if any) and returns its episode; a
    /// matching tuple extends or opens a run and returns `None`.
    pub fn observe(
        &mut self,
        index: usize,
        interval: &PresenceInterval,
        matches: bool,
    ) -> Option<Episode> {
        if matches {
            let run = self.run.get_or_insert(OpenRun {
                start: index,
                start_time: interval.start(),
                max_end: interval.end(),
            });
            run.max_end = run.max_end.max(interval.end());
            None
        } else {
            self.close(index)
        }
    }

    /// Closes the open run (if any) as ending *before* tuple `next_index`
    /// — call with the trace length at end-of-stream.
    pub fn close(&mut self, next_index: usize) -> Option<Episode> {
        self.run.take().map(|run| Episode {
            range: run.start..next_index,
            time: TimeInterval::new(run.start_time, run.max_end),
            annotations: self.annotations.clone(),
        })
    }

    /// The in-flight run, for checkpointing.
    pub fn open_run(&self) -> Option<&OpenRun> {
        self.run.as_ref()
    }

    /// Reinstates a checkpointed run (use with the same annotations the
    /// original builder carried).
    pub fn restore_run(&mut self, run: Option<OpenRun>) {
        self.run = run;
    }
}

/// Extracts all *maximal* runs of consecutive tuples satisfying `predicate`
/// and labels each with `annotations`.
///
/// Returns `Err(TrajectoryError::NotProper)` when `annotations` equals the
/// trajectory's own annotation set — Def. 3.4 condition (2) requires
/// `A'_traj ≠ A_traj`.
pub fn maximal_episodes(
    trajectory: &SemanticTrajectory,
    predicate: &IntervalPredicate,
    annotations: AnnotationSet,
) -> Result<Vec<Episode>, TrajectoryError> {
    if &annotations == trajectory.annotations() {
        return Err(TrajectoryError::NotProper);
    }
    let intervals = trajectory.trace().intervals();
    let mut builder = RunBuilder::new(annotations);
    let mut episodes = Vec::new();
    for (i, p) in intervals.iter().enumerate() {
        if let Some(episode) = builder.observe(i, p, predicate.eval(p)) {
            episodes.push(episode);
        }
    }
    if let Some(episode) = builder.close(intervals.len()) {
        episodes.push(episode);
    }
    Ok(episodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::Annotation;
    use crate::interval::TransitionTaken;
    use crate::time::Timestamp;
    use crate::trace::Trace;
    use sitm_graph::{LayerIdx, NodeId};

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

    fn trajectory() -> SemanticTrajectory {
        // Cells: 0 1 2 1 3
        let trace = Trace::new(vec![
            stay(0, 0, 100),
            stay(1, 100, 200),
            stay(2, 200, 300),
            stay(1, 300, 400),
            stay(3, 400, 500),
        ])
        .unwrap();
        SemanticTrajectory::new(
            "v",
            trace,
            AnnotationSet::from_iter([Annotation::goal("visit")]),
        )
        .unwrap()
    }

    fn label(s: &str) -> AnnotationSet {
        AnnotationSet::from_iter([Annotation::goal(s)])
    }

    #[test]
    fn maximal_runs_found() {
        let t = trajectory();
        let pred = IntervalPredicate::in_cells([cell(1), cell(2)]);
        let eps = maximal_episodes(&t, &pred, label("browsing")).unwrap();
        assert_eq!(eps.len(), 1, "1,2,1 is one maximal run");
        assert_eq!(eps[0].range, 1..4);
        assert_eq!(
            eps[0].time,
            TimeInterval::new(Timestamp(100), Timestamp(400))
        );
        assert_eq!(eps[0].duration().as_seconds(), 300);
    }

    #[test]
    fn disjoint_runs_split() {
        let t = trajectory();
        let pred = IntervalPredicate::in_cells([cell(0), cell(2)]);
        let eps = maximal_episodes(&t, &pred, label("x")).unwrap();
        assert_eq!(eps.len(), 2);
        assert_eq!(eps[0].range, 0..1);
        assert_eq!(eps[1].range, 2..3);
    }

    #[test]
    fn run_extends_to_trace_end() {
        let t = trajectory();
        let pred = IntervalPredicate::in_cells([cell(3)]);
        let eps = maximal_episodes(&t, &pred, label("leaving")).unwrap();
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].range, 4..5);
    }

    #[test]
    fn same_annotations_rejected() {
        let t = trajectory();
        let pred = IntervalPredicate::any();
        assert_eq!(
            maximal_episodes(&t, &pred, t.annotations().clone()).unwrap_err(),
            TrajectoryError::NotProper
        );
    }

    #[test]
    fn no_matches_yields_no_episodes() {
        let t = trajectory();
        let pred = IntervalPredicate::in_cells([cell(99)]);
        assert!(maximal_episodes(&t, &pred, label("x")).unwrap().is_empty());
    }

    #[test]
    fn predicate_combinators() {
        let t = trajectory();
        let p = IntervalPredicate::in_cells([cell(1)])
            .and(IntervalPredicate::min_duration(Duration::seconds(50)));
        let eps = maximal_episodes(&t, &p, label("x")).unwrap();
        assert_eq!(eps.len(), 2, "cell 1 visited twice, both long enough");

        let p = IntervalPredicate::in_cells([cell(0)]).or(IntervalPredicate::in_cells([cell(1)]));
        let eps = maximal_episodes(&t, &p, label("y")).unwrap();
        assert_eq!(eps.len(), 2, "0,1 then 1");

        let p = IntervalPredicate::in_cells([cell(0)]).not();
        let eps = maximal_episodes(&t, &p, label("z")).unwrap();
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].range, 1..5);
    }

    #[test]
    fn annotation_and_time_predicates() {
        let mut intervals = vec![stay(0, 0, 100), stay(1, 100, 200)];
        intervals[1].annotations.insert(Annotation::goal("buy"));
        let trace = Trace::new(intervals).unwrap();
        let t = SemanticTrajectory::new("v", trace, label("visit")).unwrap();

        let p = IntervalPredicate::has_annotation(AnnotationKind::Goal, "buy");
        let eps = maximal_episodes(&t, &p, label("shopping")).unwrap();
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].range, 1..2);

        let p = IntervalPredicate::during(TimeInterval::new(Timestamp(0), Timestamp(50)));
        let eps = maximal_episodes(&t, &p, label("early")).unwrap();
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].range, 0..1);
    }

    #[test]
    fn episode_materializes_as_subtrajectory() {
        let t = trajectory();
        let pred = IntervalPredicate::in_cells([cell(1), cell(2)]);
        let eps = maximal_episodes(&t, &pred, label("browsing")).unwrap();
        let sub = eps[0].to_subtrajectory(&t).unwrap();
        assert_eq!(sub.trace().len(), 3);
        assert_eq!(sub.annotations(), &label("browsing"));
        assert!(t.is_proper_temporal_part(&sub));
    }

    #[test]
    fn run_builder_agrees_with_batch_extraction() {
        let t = trajectory();
        let pred = IntervalPredicate::in_cells([cell(1), cell(2)]);
        let batch = maximal_episodes(&t, &pred, label("browsing")).unwrap();

        let mut builder = RunBuilder::new(label("browsing"));
        let mut streamed = Vec::new();
        let intervals = t.trace().intervals();
        for (i, p) in intervals.iter().enumerate() {
            streamed.extend(builder.observe(i, p, pred.eval(p)));
        }
        streamed.extend(builder.close(intervals.len()));
        assert_eq!(streamed, batch);
    }

    #[test]
    fn run_builder_restores_mid_run() {
        let t = trajectory();
        let pred = IntervalPredicate::in_cells([cell(1), cell(2)]);
        let intervals = t.trace().intervals();

        // Feed the first two tuples, snapshot mid-run, resume elsewhere.
        let mut first = RunBuilder::new(label("x"));
        assert!(first
            .observe(0, &intervals[0], pred.eval(&intervals[0]))
            .is_none());
        assert!(first
            .observe(1, &intervals[1], pred.eval(&intervals[1]))
            .is_none());
        let snapshot = first.open_run().cloned();
        assert_eq!(
            snapshot,
            Some(OpenRun {
                start: 1,
                start_time: Timestamp(100),
                max_end: Timestamp(200)
            })
        );

        let mut resumed = RunBuilder::new(label("x"));
        resumed.restore_run(snapshot);
        let mut streamed = Vec::new();
        for (i, p) in intervals.iter().enumerate().skip(2) {
            streamed.extend(resumed.observe(i, p, pred.eval(p)));
        }
        streamed.extend(resumed.close(intervals.len()));
        assert_eq!(streamed, maximal_episodes(&t, &pred, label("x")).unwrap());
    }

    #[test]
    fn predicate_descriptions_compose() {
        let p = IntervalPredicate::min_duration(Duration::seconds(10))
            .and(IntervalPredicate::any().not());
        assert!(p.description.contains("AND"));
        assert!(p.description.contains("NOT"));
    }
}
