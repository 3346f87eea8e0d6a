//! Traces: validated sequences of presence intervals (Def. 3.2).

use std::fmt;

use sitm_graph::{CellRef, LayerIdx};

use crate::interval::PresenceInterval;
use crate::time::{Duration, TimeInterval, Timestamp};

/// Validation errors for traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Tuple starts must be non-decreasing. (Tuple *overlap* is tolerated:
    /// the paper's own example has `hall003` entered at 11:32:31 while
    /// `room001` ends at 11:32:35 — sensor handoff jitter.)
    OutOfOrder {
        /// Index of the offending tuple.
        index: usize,
    },
    /// All tuples of one trace must reference cells of one layer (the
    /// detection layer); `sitm_space::lift_trace` changes granularity.
    MixedLayers {
        /// Index of the first tuple on a different layer.
        index: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::OutOfOrder { index } => {
                write!(f, "tuple {index} starts before its predecessor")
            }
            TraceError::MixedLayers { index } => {
                write!(f, "tuple {index} references a different layer")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// A validated sequence of presence intervals over one layer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    intervals: Vec<PresenceInterval>,
}

impl Trace {
    /// An empty trace.
    pub fn empty() -> Trace {
        Trace::default()
    }

    /// Builds a trace, validating tuple order and layer consistency.
    pub fn new(intervals: Vec<PresenceInterval>) -> Result<Trace, TraceError> {
        validate(&intervals)?;
        Ok(Trace { intervals })
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// True when the trace has no tuples.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// The tuples in order.
    pub fn intervals(&self) -> &[PresenceInterval] {
        &self.intervals
    }

    /// One tuple by index.
    pub fn get(&self, index: usize) -> Option<&PresenceInterval> {
        self.intervals.get(index)
    }

    /// Appends a tuple, keeping the trace valid.
    pub fn push(&mut self, interval: PresenceInterval) -> Result<(), TraceError> {
        if let Some(last) = self.intervals.last() {
            if interval.start() < last.start() {
                return Err(TraceError::OutOfOrder {
                    index: self.intervals.len(),
                });
            }
            if interval.cell.layer != last.cell.layer {
                return Err(TraceError::MixedLayers {
                    index: self.intervals.len(),
                });
            }
        }
        self.intervals.push(interval);
        Ok(())
    }

    /// The layer of the trace's cells (`None` for an empty trace).
    pub fn layer(&self) -> Option<LayerIdx> {
        self.intervals.first().map(|p| p.cell.layer)
    }

    /// Overall time span `[first start, last end]`. `None` when empty.
    pub fn span(&self) -> Option<TimeInterval> {
        let first = self.intervals.first()?;
        let last = self.intervals.last()?;
        let end = self
            .intervals
            .iter()
            .map(|p| p.end())
            .fold(last.end(), Timestamp::max);
        Some(TimeInterval::new(first.start(), end))
    }

    /// Total time spent inside cells (sum of stay durations; excludes gaps).
    pub fn dwell_total(&self) -> Duration {
        self.intervals
            .iter()
            .fold(Duration::ZERO, |acc, p| acc + p.duration())
    }

    /// Distinct cells visited, in first-visit order.
    pub fn cells_visited(&self) -> Vec<CellRef> {
        let mut seen = Vec::new();
        for p in &self.intervals {
            if !seen.contains(&p.cell) {
                seen.push(p.cell);
            }
        }
        seen
    }

    /// The cell sequence with consecutive repetitions collapsed — the
    /// symbolic "zone sequence" used by mining algorithms.
    pub fn cell_sequence(&self) -> Vec<CellRef> {
        let mut out: Vec<CellRef> = Vec::new();
        for p in &self.intervals {
            if out.last() != Some(&p.cell) {
                out.push(p.cell);
            }
        }
        out
    }

    /// Number of cell-to-cell transitions (consecutive tuples in different
    /// cells) — the paper's "intra-visit zone transitions".
    pub fn transition_count(&self) -> usize {
        self.intervals
            .windows(2)
            .filter(|w| w[0].cell != w[1].cell)
            .count()
    }

    /// Contiguous subsequence of tuples as a new trace.
    pub fn subsequence(&self, range: std::ops::Range<usize>) -> Option<Trace> {
        let slice = self.intervals.get(range)?;
        Some(Trace {
            intervals: slice.to_vec(),
        })
    }

    /// Tuples whose stay overlaps the window `[from, to]`.
    pub fn window(&self, from: Timestamp, to: Timestamp) -> Trace {
        let query = TimeInterval::new(from, to);
        Trace {
            intervals: self
                .intervals
                .iter()
                .filter(|p| p.time.overlaps(query))
                .cloned()
                .collect(),
        }
    }

    /// Removes zero-duration tuples (detection errors per §4.1), returning
    /// how many were dropped.
    pub fn drop_instantaneous(&mut self) -> usize {
        let before = self.intervals.len();
        self.intervals.retain(|p| !p.is_instantaneous());
        before - self.intervals.len()
    }

    /// Consumes the trace into its tuples.
    pub fn into_intervals(self) -> Vec<PresenceInterval> {
        self.intervals
    }
}

fn validate(intervals: &[PresenceInterval]) -> Result<(), TraceError> {
    for (i, w) in intervals.windows(2).enumerate() {
        if w[1].start() < w[0].start() {
            return Err(TraceError::OutOfOrder { index: i + 1 });
        }
        if w[1].cell.layer != w[0].cell.layer {
            return Err(TraceError::MixedLayers { index: i + 1 });
        }
    }
    Ok(())
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace {{")?;
        for p in &self.intervals {
            writeln!(f, "  {p},")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::TransitionTaken;
    use sitm_graph::NodeId;

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

    #[test]
    fn valid_trace_with_sensor_overlap() {
        // The paper's example: room001 ends at 11:32:35 but hall003 starts
        // at 11:32:31 — the trace is still valid (starts are ordered).
        let trace = Trace::new(vec![stay(0, 0, 155), stay(1, 151, 600)]).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.transition_count(), 1);
    }

    #[test]
    fn out_of_order_rejected() {
        let err = Trace::new(vec![stay(0, 100, 200), stay(1, 50, 80)]).unwrap_err();
        assert_eq!(err, TraceError::OutOfOrder { index: 1 });
    }

    #[test]
    fn mixed_layers_rejected() {
        let other_layer = CellRef::new(LayerIdx::from_index(1), NodeId::from_index(0));
        let p2 = PresenceInterval::new(
            TransitionTaken::Unknown,
            other_layer,
            Timestamp(10),
            Timestamp(20),
        );
        let err = Trace::new(vec![stay(0, 0, 5), p2]).unwrap_err();
        assert_eq!(err, TraceError::MixedLayers { index: 1 });
    }

    #[test]
    fn push_validates_too() {
        let mut trace = Trace::new(vec![stay(0, 0, 10)]).unwrap();
        assert!(trace.push(stay(1, 10, 20)).is_ok());
        assert!(matches!(
            trace.push(stay(2, 5, 8)),
            Err(TraceError::OutOfOrder { .. })
        ));
        assert_eq!(trace.len(), 2, "failed push does not mutate");
    }

    #[test]
    fn span_and_dwell() {
        let trace = Trace::new(vec![stay(0, 0, 60), stay(1, 100, 160)]).unwrap();
        let span = trace.span().unwrap();
        assert_eq!(span.start, Timestamp(0));
        assert_eq!(span.end, Timestamp(160));
        assert_eq!(span.duration().as_seconds(), 160);
        assert_eq!(trace.dwell_total().as_seconds(), 120, "gap excluded");
    }

    #[test]
    fn span_handles_contained_intervals() {
        // Second stay ends before the first (a contained reading).
        let trace = Trace::new(vec![stay(0, 0, 500), stay(1, 100, 200)]).unwrap();
        assert_eq!(trace.span().unwrap().end, Timestamp(500));
    }

    #[test]
    fn cell_sequences() {
        let trace = Trace::new(vec![
            stay(0, 0, 10),
            stay(1, 10, 20),
            stay(1, 20, 30), // split stay in the same cell
            stay(0, 30, 40), // back to the first cell
        ])
        .unwrap();
        assert_eq!(trace.cell_sequence(), vec![cell(0), cell(1), cell(0)]);
        assert_eq!(trace.cells_visited(), vec![cell(0), cell(1)]);
        assert_eq!(trace.transition_count(), 2);
    }

    #[test]
    fn subsequence_and_window() {
        let trace = Trace::new(vec![stay(0, 0, 10), stay(1, 10, 20), stay(2, 20, 30)]).unwrap();
        let sub = trace.subsequence(1..3).unwrap();
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.get(0).unwrap().cell, cell(1));
        assert!(trace.subsequence(2..5).is_none());
        let win = trace.window(Timestamp(12), Timestamp(22));
        assert_eq!(win.len(), 2, "stays overlapping [12, 22]");
    }

    #[test]
    fn drop_instantaneous_removes_errors() {
        let mut trace = Trace::new(vec![stay(0, 0, 10), stay(1, 10, 10), stay(2, 12, 30)]).unwrap();
        assert_eq!(trace.drop_instantaneous(), 1);
        assert_eq!(trace.len(), 2);
        assert!(trace.intervals().iter().all(|p| !p.is_instantaneous()));
    }

    #[test]
    fn empty_trace_properties() {
        let trace = Trace::empty();
        assert!(trace.is_empty());
        assert_eq!(trace.span(), None);
        assert_eq!(trace.layer(), None);
        assert_eq!(trace.dwell_total(), Duration::ZERO);
        assert!(trace.cell_sequence().is_empty());
    }

    #[test]
    fn display_lists_tuples() {
        let trace = Trace::new(vec![stay(0, 0, 10)]).unwrap();
        let text = trace.to_string();
        assert!(text.starts_with("trace {"));
        assert!(text.contains("L0:n0"));
    }
}
