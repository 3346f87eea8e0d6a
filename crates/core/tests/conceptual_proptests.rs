//! Property tests for conceptual (focus-of-attention) trajectory
//! derivation: structural invariants that must hold for *any* physical
//! trace and *any* attention model.

use proptest::prelude::*;

use sitm_core::{derive_conceptual, PresenceInterval, Timestamp, Trace, TransitionTaken};
use sitm_graph::{CellRef, LayerIdx, NodeId};

fn cell(n: usize) -> CellRef {
    CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
}

/// Traces: forward-walking stays over cells 0..5 with gaps.
fn trace_strategy() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0usize..5, 0i64..60, 0i64..600), 0..12).prop_map(|stays| {
        let mut t = 0i64;
        let intervals = stays
            .into_iter()
            .map(|(c, gap, dur)| {
                let start = t + gap;
                let end = start + dur;
                t = end;
                PresenceInterval::new(
                    TransitionTaken::Unknown,
                    cell(c),
                    Timestamp(start),
                    Timestamp(end),
                )
            })
            .collect();
        Trace::new(intervals).expect("ordered stays")
    })
}

/// Deterministic attention tables: cell index → up to 2 (concept, weight)
/// pairs drawn from a fixed concept alphabet.
fn attention_table_strategy() -> impl Strategy<Value = Vec<Vec<(usize, f64)>>> {
    prop::collection::vec(prop::collection::vec((0usize..4, -0.5f64..1.5), 0..3), 5)
}

fn concept_name(i: usize) -> String {
    format!("concept-{i}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Spans stay inside the physical trace's temporal envelope, are
    /// sorted by start, and carry weights in (0, 1].
    #[test]
    fn spans_are_well_formed(trace in trace_strategy(), table in attention_table_strategy()) {
        let conceptual = derive_conceptual(&trace, |stay| {
            table[stay.cell.node.index()]
                .iter()
                .map(|&(c, w)| (concept_name(c), w))
                .collect()
        });
        if let Some(span) = trace.span() {
            for s in conceptual.spans() {
                prop_assert!(s.time.start >= span.start && s.time.end <= span.end);
                prop_assert!(s.weight > 0.0 && s.weight <= 1.0, "weight {}", s.weight);
            }
        } else {
            prop_assert!(conceptual.is_empty());
        }
        for w in conceptual.spans().windows(2) {
            prop_assert!(w[0].time.start <= w[1].time.start, "spans must be sorted");
        }
    }

    /// The attention profile equals the sum over spans, and the dominant
    /// concept maximizes it.
    #[test]
    fn profile_is_consistent(trace in trace_strategy(), table in attention_table_strategy()) {
        let conceptual = derive_conceptual(&trace, |stay| {
            table[stay.cell.node.index()]
                .iter()
                .map(|&(c, w)| (concept_name(c), w))
                .collect()
        });
        let profile = conceptual.attention_profile();
        let total_from_spans: f64 = conceptual.spans().iter().map(|s| s.attention_seconds()).sum();
        let total_from_profile: f64 = profile.values().sum();
        prop_assert!((total_from_spans - total_from_profile).abs() < 1e-6);
        if let Some(dominant) = conceptual.dominant_concept() {
            let best = profile[&dominant];
            for value in profile.values() {
                prop_assert!(best >= *value - 1e-9);
            }
        } else {
            prop_assert!(conceptual.is_empty());
        }
        // Every profiled concept is a listed concept and vice versa.
        let concepts = conceptual.concepts();
        prop_assert_eq!(concepts.len(), profile.len());
    }

    /// Attending nothing anywhere yields the empty conceptual trace; a
    /// constant single-concept model over a gap-free trace yields at most
    /// one span.
    #[test]
    fn degenerate_attention_models(trace in trace_strategy()) {
        let none = derive_conceptual(&trace, |_| Vec::new());
        prop_assert!(none.is_empty());

        // Rebuild the trace without gaps so stays are contiguous.
        let contiguous: Vec<PresenceInterval> = {
            let mut t = 0i64;
            trace
                .intervals()
                .iter()
                .map(|p| {
                    let dur = p.duration().as_seconds();
                    let stay = PresenceInterval::new(
                        TransitionTaken::Unknown,
                        p.cell,
                        Timestamp(t),
                        Timestamp(t + dur),
                    );
                    t += dur;
                    stay
                })
                .collect()
        };
        let contiguous = Trace::new(contiguous).expect("still ordered");
        let constant = derive_conceptual(&contiguous, |_| vec![("x".to_string(), 1.0)]);
        prop_assert!(constant.len() <= 1, "contiguous constant attention must merge");
        if !contiguous.is_empty() {
            prop_assert_eq!(constant.len(), 1);
            prop_assert_eq!(
                constant.spans()[0].duration(),
                contiguous.span().expect("non-empty").duration()
            );
        }
    }
}
