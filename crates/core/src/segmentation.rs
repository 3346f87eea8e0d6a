//! Episodic segmentations with overlap support.
//!
//! "An episodic segmentation of a semantic trajectory is simply any subset
//! of its episodes that covers it time-wise. Contrary to typical literature
//! practice, we allow an episodic segmentation to contain episodes that
//! overlap in time, since the exact same movement part may have multiple
//! meanings depending on the broader context." (§3.3) — the paper's Fig. 5
//! shows "exit museum" (E→P→S→C) overlapping "buy souvenir" (E→P→S).

use crate::annotation::AnnotationSet;
use crate::episode::{maximal_episodes, Episode, IntervalPredicate};
use crate::time::TimeInterval;
use crate::trajectory::{SemanticTrajectory, TrajectoryError};

/// A set of episodes over one trajectory, possibly overlapping in time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EpisodicSegmentation {
    episodes: Vec<Episode>,
}

impl EpisodicSegmentation {
    /// An empty segmentation.
    pub fn new() -> Self {
        EpisodicSegmentation::default()
    }

    /// Builds a segmentation by running several labelled predicates over
    /// the trajectory and collecting all maximal episodes of each.
    pub fn from_predicates(
        trajectory: &SemanticTrajectory,
        predicates: &[(IntervalPredicate, AnnotationSet)],
    ) -> Result<EpisodicSegmentation, TrajectoryError> {
        let mut episodes = Vec::new();
        for (pred, annotations) in predicates {
            episodes.extend(maximal_episodes(trajectory, pred, annotations.clone())?);
        }
        episodes.sort_by_key(|e| (e.time.start, e.time.end));
        Ok(EpisodicSegmentation { episodes })
    }

    /// Adds one episode.
    pub fn push(&mut self, episode: Episode) {
        self.episodes.push(episode);
        self.episodes.sort_by_key(|e| (e.time.start, e.time.end));
    }

    /// The episodes, ordered by start time.
    pub fn episodes(&self) -> &[Episode] {
        &self.episodes
    }

    /// Number of episodes.
    pub fn len(&self) -> usize {
        self.episodes.len()
    }

    /// True when no episodes are present.
    pub fn is_empty(&self) -> bool {
        self.episodes.is_empty()
    }

    /// True when the episodes cover the trajectory's full span time-wise
    /// (the defining property of a segmentation).
    pub fn covers(&self, trajectory: &SemanticTrajectory) -> bool {
        let span = trajectory.span();
        let mut covered_until = span.start;
        for e in &self.episodes {
            if e.time.start > covered_until {
                return false; // gap
            }
            covered_until = covered_until.max(e.time.end);
        }
        covered_until >= span.end
    }

    /// Pairs of episode indices that overlap in time for a *positive*
    /// duration (allowed by the model; exposed so analyses can reason about
    /// multi-meaning segments). Episodes merely abutting at one instant —
    /// consecutive segments of an exclusive segmentation — do not count.
    pub fn overlapping_pairs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..self.episodes.len() {
            for j in (i + 1)..self.episodes.len() {
                let (a, b) = (self.episodes[i].time, self.episodes[j].time);
                if a.start < b.end && b.start < a.end {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// True when no two episodes overlap — the *mutually exclusive*
    /// segmentation of prior art, kept as the comparison baseline (the F5
    /// report in `sitm_bench::repro` prints it for Fig. 5's episodes).
    pub fn is_mutually_exclusive(&self) -> bool {
        self.overlapping_pairs().is_empty()
    }

    /// The sub-interval of `window` covered by no episode (diagnostic for
    /// incomplete segmentations); returns covered gaps in order.
    pub fn uncovered_gaps(&self, window: TimeInterval) -> Vec<TimeInterval> {
        let mut gaps = Vec::new();
        let mut cursor = window.start;
        for e in &self.episodes {
            if e.time.start > cursor {
                let gap_end = e.time.start.min(window.end);
                if cursor < gap_end {
                    gaps.push(TimeInterval::new(cursor, gap_end));
                }
            }
            cursor = cursor.max(e.time.end);
            if cursor >= window.end {
                break;
            }
        }
        if cursor < window.end {
            gaps.push(TimeInterval::new(cursor, window.end));
        }
        gaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::Annotation;
    use crate::interval::{PresenceInterval, TransitionTaken};
    use crate::time::Timestamp;
    use crate::trace::Trace;
    use sitm_graph::{LayerIdx, NodeId};
    use sitm_space::CellRef;

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

    /// The Fig. 5 trajectory: E(0) -> P(1) -> S(2) -> C(3).
    fn fig5_trajectory() -> SemanticTrajectory {
        let trace = Trace::new(vec![
            stay(0, 0, 600),   // E: temporary exhibition, long stay
            stay(1, 600, 680), // P: passage
            stay(2, 680, 900), // S: souvenir shops
            stay(3, 900, 960), // C: Carrousel exit
        ])
        .unwrap();
        SemanticTrajectory::new("visitor", trace, label("visit")).unwrap()
    }

    #[test]
    fn fig5_overlapping_goal_episodes() {
        let t = fig5_trajectory();
        // "exit museum" over E,P,S,C; "buy souvenir" over E,P,S.
        let seg = EpisodicSegmentation::from_predicates(
            &t,
            &[
                (
                    IntervalPredicate::in_cells([cell(0), cell(1), cell(2), cell(3)]),
                    label("exit museum"),
                ),
                (
                    IntervalPredicate::in_cells([cell(0), cell(1), cell(2)]),
                    label("buy souvenir"),
                ),
            ],
        )
        .unwrap();
        assert_eq!(seg.len(), 2);
        assert!(seg.covers(&t));
        assert_eq!(seg.overlapping_pairs(), vec![(0, 1)]);
        assert!(!seg.is_mutually_exclusive());
        // The "buy souvenir" episode nests inside "exit museum".
        let exit = &seg.episodes()[0];
        let buy = &seg.episodes()[1];
        let (exit, buy) = if exit.range.len() >= buy.range.len() {
            (exit, buy)
        } else {
            (buy, exit)
        };
        assert!(exit.time.covers(buy.time));
    }

    #[test]
    fn coverage_detects_gaps() {
        let t = fig5_trajectory();
        let seg = EpisodicSegmentation::from_predicates(
            &t,
            &[(
                IntervalPredicate::in_cells([cell(0), cell(3)]),
                label("ends"),
            )],
        )
        .unwrap();
        assert!(!seg.covers(&t), "middle of the visit uncovered");
        let gaps = seg.uncovered_gaps(t.span());
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0], TimeInterval::new(Timestamp(600), Timestamp(900)));
    }

    #[test]
    fn empty_segmentation_covers_nothing() {
        let t = fig5_trajectory();
        let seg = EpisodicSegmentation::new();
        assert!(seg.is_empty());
        assert!(!seg.covers(&t));
        assert_eq!(seg.uncovered_gaps(t.span()), vec![t.span()]);
    }

    #[test]
    fn mutually_exclusive_segmentation_detected() {
        let t = fig5_trajectory();
        let seg = EpisodicSegmentation::from_predicates(
            &t,
            &[
                (IntervalPredicate::in_cells([cell(0), cell(1)]), label("a")),
                (IntervalPredicate::in_cells([cell(2), cell(3)]), label("b")),
            ],
        )
        .unwrap();
        assert!(seg.is_mutually_exclusive());
        assert!(seg.covers(&t));
    }

    #[test]
    fn push_keeps_episodes_sorted() {
        let t = fig5_trajectory();
        let mut seg = EpisodicSegmentation::new();
        let late =
            maximal_episodes(&t, &IntervalPredicate::in_cells([cell(3)]), label("late")).unwrap();
        let early =
            maximal_episodes(&t, &IntervalPredicate::in_cells([cell(0)]), label("early")).unwrap();
        seg.push(late[0].clone());
        seg.push(early[0].clone());
        assert!(seg.episodes()[0].time.start <= seg.episodes()[1].time.start);
    }

    #[test]
    fn uncovered_gap_at_start_and_end() {
        let t = fig5_trajectory();
        let seg = EpisodicSegmentation::from_predicates(
            &t,
            &[(
                IntervalPredicate::in_cells([cell(1), cell(2)]),
                label("middle"),
            )],
        )
        .unwrap();
        let gaps = seg.uncovered_gaps(t.span());
        assert_eq!(gaps.len(), 2);
        assert_eq!(gaps[0].start, Timestamp(0));
        assert_eq!(gaps[1].end, Timestamp(960));
    }
}
