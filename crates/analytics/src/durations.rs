//! Duration distributions of traces and visits.

use sitm_core::{Duration, Trace};

use crate::stats::Summary;

/// Per-stay durations of a batch of traces, in seconds.
pub fn durations_of_detections(traces: &[Trace]) -> Vec<f64> {
    traces
        .iter()
        .flat_map(|t| t.intervals().iter().map(|p| p.duration().as_secs_f64()))
        .collect()
}

/// Whole-trace (visit) durations, in seconds. Empty traces are skipped.
pub fn durations_of_visits(traces: &[Trace]) -> Vec<f64> {
    traces
        .iter()
        .filter_map(|t| t.span().map(|s| s.duration().as_secs_f64()))
        .collect()
}

/// Summary of a batch of [`Duration`]s.
pub fn duration_summary(durations: &[Duration]) -> Option<Summary> {
    let values: Vec<f64> = durations.iter().map(|d| d.as_secs_f64()).collect();
    Summary::of(&values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_core::{PresenceInterval, Timestamp, TransitionTaken};
    use sitm_graph::{CellRef, LayerIdx, NodeId};

    fn trace(stays: &[(i64, i64)]) -> Trace {
        let intervals = stays
            .iter()
            .enumerate()
            .map(|(i, &(s, e))| {
                PresenceInterval::new(
                    TransitionTaken::Unknown,
                    CellRef::new(LayerIdx::from_index(0), NodeId::from_index(i)),
                    Timestamp(s),
                    Timestamp(e),
                )
            })
            .collect();
        Trace::new(intervals).unwrap()
    }

    #[test]
    fn detection_durations_flatten_all_traces() {
        let traces = vec![trace(&[(0, 10), (10, 40)]), trace(&[(0, 5)])];
        let durations = durations_of_detections(&traces);
        assert_eq!(durations, vec![10.0, 30.0, 5.0]);
    }

    #[test]
    fn visit_durations_span_first_to_last() {
        let traces = vec![trace(&[(0, 10), (20, 100)]), Trace::empty()];
        let durations = durations_of_visits(&traces);
        assert_eq!(durations, vec![100.0], "empty trace skipped");
    }

    #[test]
    fn duration_summary_works() {
        let s = duration_summary(&[
            Duration::seconds(10),
            Duration::seconds(20),
            Duration::seconds(30),
        ])
        .unwrap();
        assert_eq!(s.mean, 20.0);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 30.0);
        assert!(duration_summary(&[]).is_none());
    }
}
