//! Property-based tests for civil time and trace algebra.

use proptest::prelude::*;

use sitm_core::{
    find_gaps, Duration, PresenceInterval, TimeInterval, Timestamp, Trace, TransitionTaken,
};
use sitm_graph::{CellRef, LayerIdx, NodeId};

proptest! {
    #[test]
    fn civil_round_trip_over_five_centuries(
        epoch_day in -60_000i64..120_000, secs in 0u32..86_400,
    ) {
        // Any instant decomposes and recomposes exactly.
        let t = Timestamp(epoch_day * 86_400 + secs as i64);
        let (y, m, d, h, mi, s) = t.to_ymd_hms();
        prop_assert_eq!(Timestamp::from_ymd_hms(y, m, d, h, mi, s), t);
        prop_assert!((1..=12u32).contains(&m));
        prop_assert!((1..=31u32).contains(&d));
        prop_assert!(h < 24 && mi < 60 && s < 60);
    }

    #[test]
    fn dates_are_monotone(day1 in -40_000i64..40_000, day2 in -40_000i64..40_000) {
        let t1 = Timestamp(day1 * 86_400);
        let t2 = Timestamp(day2 * 86_400);
        let c1 = t1.to_ymd_hms();
        let c2 = t2.to_ymd_hms();
        prop_assert_eq!(day1 < day2, c1 < c2, "calendar order == instant order");
    }

    #[test]
    fn duration_arithmetic_laws(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
        let t = Timestamp(a);
        let d = Duration::seconds(b);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!(t.since(t + d), Duration::seconds(-b));
    }

    #[test]
    fn interval_intersection_is_commutative_and_contained(
        s1 in 0i64..1_000, l1 in 0i64..500, s2 in 0i64..1_000, l2 in 0i64..500,
    ) {
        let a = TimeInterval::new(Timestamp(s1), Timestamp(s1 + l1));
        let b = TimeInterval::new(Timestamp(s2), Timestamp(s2 + l2));
        prop_assert_eq!(a.intersect(b), b.intersect(a));
        prop_assert_eq!(a.overlaps(b), b.overlaps(a));
        if let Some(x) = a.intersect(b) {
            prop_assert!(a.covers(x) && b.covers(x));
            prop_assert!(x.duration() <= a.duration().min(b.duration()));
        } else {
            prop_assert!(!a.overlaps(b));
        }
    }

    #[test]
    fn trace_invariants_under_construction(
        stays in proptest::collection::vec((0usize..5, 0i64..100, 0i64..100), 1..30),
    ) {
        // Build chronologically ordered stays; Trace::new must accept and
        // its derived statistics must be internally consistent.
        let mut t = 0i64;
        let mut intervals = Vec::new();
        for (cell_idx, gap, len) in stays {
            t += gap;
            intervals.push(PresenceInterval::new(
                TransitionTaken::Unknown,
                CellRef::new(LayerIdx::from_index(0), NodeId::from_index(cell_idx)),
                Timestamp(t),
                Timestamp(t + len),
            ));
            t += len;
        }
        let n = intervals.len();
        let trace = Trace::new(intervals).expect("ordered by construction");
        prop_assert_eq!(trace.len(), n);
        prop_assert!(trace.transition_count() < n);
        prop_assert!(trace.cell_sequence().len() <= n);
        prop_assert!(trace.cells_visited().len() <= 5);
        let span = trace.span().expect("non-empty");
        prop_assert!(trace.dwell_total() <= span.duration());
        // Gap accounting: dwell + gaps == span for non-overlapping stays.
        let gaps = find_gaps(&trace, Duration::ZERO);
        let gap_total: i64 = gaps.iter().map(|g| g.duration().as_seconds()).sum();
        prop_assert_eq!(
            trace.dwell_total().as_seconds() + gap_total,
            span.duration().as_seconds()
        );
    }

    #[test]
    fn drop_instantaneous_is_idempotent(
        stays in proptest::collection::vec((0i64..50, prop::bool::ANY), 0..30),
    ) {
        let mut t = 0i64;
        let mut intervals = Vec::new();
        for (len, zero) in stays {
            let len = if zero { 0 } else { len + 1 };
            intervals.push(PresenceInterval::new(
                TransitionTaken::Unknown,
                CellRef::new(LayerIdx::from_index(0), NodeId::from_index(0)),
                Timestamp(t),
                Timestamp(t + len),
            ));
            t += len + 1;
        }
        let mut trace = Trace::new(intervals).expect("ordered");
        let dropped = trace.drop_instantaneous();
        prop_assert_eq!(trace.drop_instantaneous(), 0, "second pass drops nothing");
        prop_assert!(dropped <= 30);
        prop_assert!(trace.intervals().iter().all(|p| !p.is_instantaneous()));
    }
}
