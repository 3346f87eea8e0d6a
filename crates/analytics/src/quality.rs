//! Data-quality reporting.
//!
//! "Around 10% of the zone detections have a duration of zero value,
//! forcing us to filter them out as detection errors" and "the trajectories
//! obtained from the dataset are sparse" (§4.1). This module quantifies
//! both pathologies on SITM traces.

use sitm_core::{find_gaps, Duration, Trace};

/// Quality metrics of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// Total tuples.
    pub detections: usize,
    /// Zero-duration tuples (detection errors per §4.1).
    pub zero_duration: usize,
    /// Zero-duration fraction.
    pub zero_duration_rate: f64,
    /// Tracking gaps longer than the sampling rate.
    pub gaps: usize,
    /// Total untracked time inside gaps.
    pub gap_time: Duration,
    /// Tracked (dwell) time.
    pub dwell_time: Duration,
    /// Tracked share of the total span, in `[0, 1]` (1 = fully continuous).
    pub continuity: f64,
}

/// Computes quality metrics for a trace with the given sampling rate.
pub fn quality_of_trace(trace: &Trace, sampling_rate: Duration) -> QualityReport {
    let detections = trace.len();
    let zero = trace
        .intervals()
        .iter()
        .filter(|p| p.is_instantaneous())
        .count();
    let gaps = find_gaps(trace, sampling_rate);
    let gap_time = gaps
        .iter()
        .fold(Duration::ZERO, |acc, g| acc + g.duration());
    let dwell = trace.dwell_total();
    let span = trace.span().map(|s| s.duration()).unwrap_or(Duration::ZERO);
    QualityReport {
        detections,
        zero_duration: zero,
        zero_duration_rate: if detections > 0 {
            zero as f64 / detections as f64
        } else {
            0.0
        },
        gaps: gaps.len(),
        gap_time,
        dwell_time: dwell,
        continuity: if span.as_seconds() > 0 {
            (dwell.as_secs_f64() / span.as_secs_f64()).min(1.0)
        } else {
            1.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_core::{PresenceInterval, Timestamp, TransitionTaken};
    use sitm_graph::{CellRef, LayerIdx, NodeId};

    fn stay(c: usize, s: i64, e: i64) -> PresenceInterval {
        PresenceInterval::new(
            TransitionTaken::Unknown,
            CellRef::new(LayerIdx::from_index(0), NodeId::from_index(c)),
            Timestamp(s),
            Timestamp(e),
        )
    }

    #[test]
    fn counts_zero_durations_and_gaps() {
        let trace = Trace::new(vec![
            stay(0, 0, 100),
            stay(1, 100, 100), // zero-duration
            stay(2, 400, 500), // 300 s gap
        ])
        .unwrap();
        let q = quality_of_trace(&trace, Duration::seconds(30));
        assert_eq!(q.detections, 3);
        assert_eq!(q.zero_duration, 1);
        assert!((q.zero_duration_rate - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(q.gaps, 1);
        assert_eq!(q.gap_time.as_seconds(), 300);
        assert_eq!(q.dwell_time.as_seconds(), 200);
        assert!((q.continuity - 0.4).abs() < 1e-9, "200 of 500 tracked");
    }

    #[test]
    fn continuous_trace_has_full_continuity() {
        let trace = Trace::new(vec![stay(0, 0, 50), stay(1, 50, 100)]).unwrap();
        let q = quality_of_trace(&trace, Duration::seconds(10));
        assert_eq!(q.gaps, 0);
        assert_eq!(q.continuity, 1.0);
        assert_eq!(q.zero_duration, 0);
    }

    #[test]
    fn empty_trace_is_trivially_clean() {
        let q = quality_of_trace(&Trace::empty(), Duration::seconds(10));
        assert_eq!(q.detections, 0);
        assert_eq!(q.zero_duration_rate, 0.0);
        assert_eq!(q.continuity, 1.0);
    }
}
