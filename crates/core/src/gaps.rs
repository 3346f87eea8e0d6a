//! Holes and semantic gaps.
//!
//! "Temporal gaps in the movement track greater than the sampling rate of
//! raw data are said to be either accidental ('holes') or intentional
//! ('semantic gaps'), in which case their list makes part of the main TM"
//! (§2.2, adopted by the SITM). Gap *detection* is mechanical; gap
//! *classification* is domain knowledge, so it is a caller-provided rule.

use crate::annotation::AnnotationSet;
use crate::time::{Duration, TimeInterval};
use crate::trace::Trace;

/// Classification of a gap.
#[derive(Debug, Clone, PartialEq)]
pub enum GapKind {
    /// Accidental loss of tracking (battery, coverage, app closed).
    Hole,
    /// Intentional absence with a meaning (e.g. leaving for lunch), with
    /// annotations describing it.
    Semantic(AnnotationSet),
}

/// A detected gap between two consecutive tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct Gap {
    /// The gap follows the tuple at this index.
    pub after_index: usize,
    /// The uncovered interval (previous end .. next start).
    pub time: TimeInterval,
    /// Classification.
    pub kind: GapKind,
}

impl Gap {
    /// Gap length.
    pub fn duration(&self) -> Duration {
        self.time.duration()
    }
}

/// Finds gaps longer than `sampling_rate` between consecutive tuples.
/// All gaps start as [`GapKind::Hole`]; use [`classify_gaps`] to upgrade.
pub fn find_gaps(trace: &Trace, sampling_rate: Duration) -> Vec<Gap> {
    let intervals = trace.intervals();
    let mut gaps = Vec::new();
    for (i, w) in intervals.windows(2).enumerate() {
        let prev_end = w[0].end();
        let next_start = w[1].start();
        if next_start > prev_end && (next_start - prev_end) > sampling_rate {
            gaps.push(Gap {
                after_index: i,
                time: TimeInterval::new(prev_end, next_start),
                kind: GapKind::Hole,
            });
        }
    }
    gaps
}

/// Re-classifies gaps with a domain rule: the closure returns `Some(set)`
/// to mark a gap semantic, `None` to keep it a hole.
pub fn classify_gaps(gaps: &mut [Gap], mut rule: impl FnMut(&Gap) -> Option<AnnotationSet>) {
    for gap in gaps.iter_mut() {
        if let Some(annotations) = rule(gap) {
            gap.kind = GapKind::Semantic(annotations);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::Annotation;
    use crate::interval::{PresenceInterval, TransitionTaken};
    use crate::time::Timestamp;
    use sitm_graph::{CellRef, LayerIdx, NodeId};

    fn stay(c: usize, start: i64, end: i64) -> PresenceInterval {
        PresenceInterval::new(
            TransitionTaken::Unknown,
            CellRef::new(LayerIdx::from_index(0), NodeId::from_index(c)),
            Timestamp(start),
            Timestamp(end),
        )
    }

    #[test]
    fn gaps_longer_than_sampling_rate_found() {
        let trace = Trace::new(vec![
            stay(0, 0, 100),
            stay(1, 105, 200), // 5 s gap: within sampling rate
            stay(2, 500, 600), // 300 s gap: a real gap
        ])
        .unwrap();
        let gaps = find_gaps(&trace, Duration::seconds(30));
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0].after_index, 1);
        assert_eq!(
            gaps[0].time,
            TimeInterval::new(Timestamp(200), Timestamp(500))
        );
        assert_eq!(gaps[0].duration().as_seconds(), 300);
        assert_eq!(gaps[0].kind, GapKind::Hole);
    }

    #[test]
    fn overlapping_tuples_produce_no_gap() {
        // Sensor handoff overlap (the paper's own trace example).
        let trace = Trace::new(vec![stay(0, 0, 155), stay(1, 151, 400)]).unwrap();
        assert!(find_gaps(&trace, Duration::seconds(1)).is_empty());
    }

    #[test]
    fn classification_upgrades_holes() {
        let trace = Trace::new(vec![
            stay(0, 0, 100),
            stay(1, 4000, 5000), // ~65 min gap: lunch
            stay(2, 5100, 5200), // 100 s gap: hole
        ])
        .unwrap();
        let mut gaps = find_gaps(&trace, Duration::seconds(30));
        assert_eq!(gaps.len(), 2);
        classify_gaps(&mut gaps, |g| {
            if g.duration() > Duration::minutes(30) {
                Some(AnnotationSet::from_iter([Annotation::activity("lunch")]))
            } else {
                None
            }
        });
        assert!(matches!(gaps[0].kind, GapKind::Semantic(_)));
        assert_eq!(gaps[1].kind, GapKind::Hole);
        if let GapKind::Semantic(set) = &gaps[0].kind {
            assert!(set.has(&crate::annotation::AnnotationKind::Activity, "lunch"));
        }
    }

    #[test]
    fn zero_sampling_rate_reports_every_positive_gap() {
        let trace = Trace::new(vec![stay(0, 0, 10), stay(1, 11, 20)]).unwrap();
        let gaps = find_gaps(&trace, Duration::ZERO);
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0].duration().as_seconds(), 1);
    }

    #[test]
    fn contiguous_trace_has_no_gaps() {
        let trace = Trace::new(vec![stay(0, 0, 10), stay(1, 10, 20)]).unwrap();
        assert!(find_gaps(&trace, Duration::ZERO).is_empty());
    }

    #[test]
    fn empty_and_singleton_traces_have_no_gaps() {
        assert!(find_gaps(&Trace::empty(), Duration::ZERO).is_empty());
        let one = Trace::new(vec![stay(0, 0, 10)]).unwrap();
        assert!(find_gaps(&one, Duration::ZERO).is_empty());
    }
}
