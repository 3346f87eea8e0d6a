//! Conceptual (focus-of-attention) trajectories.
//!
//! §5: "modeling conceptual instead of physical trajectories could be
//! compelling in the museum domain, where an interpretation of visitor
//! movement based on 'focus of attention' is sometimes even more
//! important than one based on physical presence."
//!
//! A conceptual trajectory re-reads a physical trace as a sequence of
//! *attention spans* over **concepts** (exhibits, themes, services): an
//! application-supplied attention model maps each physical stay to the
//! concepts it plausibly attends, with a weight in `(0, 1]`; consecutive
//! spans on the same concept merge. The derivation is deliberately
//! lossy — stays that attend nothing (corridors, transit) vanish, which
//! is the point: the conceptual trace is what the visit was *about*.

use std::collections::BTreeMap;
use std::fmt;

use crate::interval::PresenceInterval;
use crate::time::{Duration, TimeInterval};
use crate::trace::Trace;

/// One span of attention on a concept.
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionSpan {
    /// The attended concept (e.g. `"Mona Lisa"`, `"theme:GreekSculpture"`).
    pub concept: String,
    /// When the attention held.
    pub time: TimeInterval,
    /// Attention strength in `(0, 1]`; merging keeps the duration-weighted
    /// mean.
    pub weight: f64,
}

impl AttentionSpan {
    /// Span length.
    pub fn duration(&self) -> Duration {
        self.time.duration()
    }

    /// Duration × weight: the span's attention mass.
    pub fn attention_seconds(&self) -> f64 {
        self.duration().as_secs_f64() * self.weight
    }
}

impl fmt::Display for AttentionSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, w={:.2})", self.concept, self.time, self.weight)
    }
}

/// A conceptual trajectory: ordered attention spans. Spans may overlap in
/// time when a stay attends several concepts at once (a hall with two
/// visible exhibits) — the conceptual mirror of the paper's overlapping
/// episodes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConceptualTrace {
    spans: Vec<AttentionSpan>,
}

impl ConceptualTrace {
    /// The spans, ordered by start time (ties keep derivation order).
    pub fn spans(&self) -> &[AttentionSpan] {
        &self.spans
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no attention was derived.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Distinct concepts in first-attention order.
    pub fn concepts(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for s in &self.spans {
            if !out.contains(&s.concept.as_str()) {
                out.push(&s.concept);
            }
        }
        out
    }

    /// Total attention mass (duration × weight) per concept — the
    /// "what was this visit about" profile.
    pub fn attention_profile(&self) -> BTreeMap<String, f64> {
        let mut profile: BTreeMap<String, f64> = BTreeMap::new();
        for s in &self.spans {
            *profile.entry(s.concept.clone()).or_insert(0.0) += s.attention_seconds();
        }
        profile
    }

    /// The concept with the largest attention mass, if any.
    pub fn dominant_concept(&self) -> Option<String> {
        self.attention_profile()
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(c, _)| c)
    }
}

impl fmt::Display for ConceptualTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "conceptual {{")?;
        for s in &self.spans {
            writeln!(f, "  {s}")?;
        }
        write!(f, "}}")
    }
}

/// Derives a conceptual trace from a physical one.
///
/// `attention` maps each stay to `(concept, weight)` pairs; weights are
/// clamped to `(0, 1]` (non-positive weights drop the pair). Consecutive
/// spans on the same concept merge when they touch or overlap in time,
/// keeping the duration-weighted mean weight — so a visitor drifting
/// within a room keeps one span per exhibit, not one per detection.
pub fn derive_conceptual(
    trace: &Trace,
    mut attention: impl FnMut(&PresenceInterval) -> Vec<(String, f64)>,
) -> ConceptualTrace {
    let mut spans: Vec<AttentionSpan> = Vec::new();
    for stay in trace.intervals() {
        for (concept, weight) in attention(stay) {
            if weight <= 0.0 {
                continue;
            }
            let weight = weight.min(1.0);
            // Merge with the latest span on the same concept when
            // temporally contiguous.
            if let Some(last) = spans.iter_mut().rev().find(|s| s.concept == concept) {
                if stay.start() <= last.time.end {
                    let old_secs = last.duration().as_secs_f64();
                    let add_secs = if stay.end() > last.time.end {
                        (stay.end() - last.time.end).as_secs_f64()
                    } else {
                        0.0
                    };
                    let new_end = last.time.end.max(stay.end());
                    let total = old_secs + add_secs;
                    last.weight = if total > 0.0 {
                        (last.weight * old_secs + weight * add_secs) / total
                    } else {
                        // Zero-duration spans: plain mean.
                        (last.weight + weight) / 2.0
                    };
                    last.time = TimeInterval::new(last.time.start, new_end);
                    continue;
                }
            }
            spans.push(AttentionSpan {
                concept,
                weight,
                time: stay.time,
            });
        }
    }
    spans.sort_by_key(|s| s.time.start);
    ConceptualTrace { spans }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::TransitionTaken;
    use crate::time::Timestamp;
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

    /// Cell 0 attends the Mona Lisa fully; cell 1 attends two works
    /// partially; cell 2 attends nothing (transit).
    fn museum_attention(p: &PresenceInterval) -> Vec<(String, f64)> {
        match p.cell.node.index() {
            0 => vec![("Mona Lisa".to_string(), 1.0)],
            1 => vec![
                ("Winged Victory".to_string(), 0.7),
                ("Dying Slave".to_string(), 0.3),
            ],
            _ => vec![],
        }
    }

    #[test]
    fn transit_stays_vanish() {
        let trace = Trace::new(vec![stay(2, 0, 50), stay(0, 50, 350), stay(2, 350, 400)]).unwrap();
        let conceptual = derive_conceptual(&trace, museum_attention);
        assert_eq!(conceptual.len(), 1);
        assert_eq!(conceptual.concepts(), vec!["Mona Lisa"]);
        assert_eq!(conceptual.spans()[0].duration(), Duration::seconds(300));
    }

    #[test]
    fn one_stay_many_concepts_overlap() {
        let trace = Trace::new(vec![stay(1, 0, 100)]).unwrap();
        let conceptual = derive_conceptual(&trace, museum_attention);
        assert_eq!(conceptual.len(), 2, "overlapping attention spans");
        assert_eq!(conceptual.spans()[0].time, conceptual.spans()[1].time);
        let profile = conceptual.attention_profile();
        assert!((profile["Winged Victory"] - 70.0).abs() < 1e-9);
        assert!((profile["Dying Slave"] - 30.0).abs() < 1e-9);
        assert_eq!(
            conceptual.dominant_concept().as_deref(),
            Some("Winged Victory")
        );
    }

    #[test]
    fn contiguous_same_concept_merges() {
        // Two back-to-back detections in front of the same work → one span.
        let trace = Trace::new(vec![stay(0, 0, 100), stay(0, 100, 300)]).unwrap();
        let conceptual = derive_conceptual(&trace, museum_attention);
        assert_eq!(conceptual.len(), 1);
        assert_eq!(conceptual.spans()[0].duration(), Duration::seconds(300));
        assert!((conceptual.spans()[0].weight - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gap_breaks_merging() {
        // Leaving and coming back produces two spans.
        let trace =
            Trace::new(vec![stay(0, 0, 100), stay(2, 100, 200), stay(0, 200, 300)]).unwrap();
        let gapped = derive_conceptual(&trace, |p: &PresenceInterval| match p.cell.node.index() {
            0 => vec![("Mona Lisa".to_string(), 1.0)],
            _ => vec![],
        });
        assert_eq!(gapped.len(), 2, "revisit after a gap is a new span");
    }

    #[test]
    fn weights_are_clamped_and_filtered() {
        let trace = Trace::new(vec![stay(0, 0, 100)]).unwrap();
        let conceptual = derive_conceptual(&trace, |_| {
            vec![
                ("over".to_string(), 7.0),
                ("zero".to_string(), 0.0),
                ("negative".to_string(), -1.0),
            ]
        });
        assert_eq!(conceptual.concepts(), vec!["over"]);
        assert!((conceptual.spans()[0].weight - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merged_weight_is_duration_weighted_mean() {
        // 100 s at 1.0 then 300 s at 0.5 → (100·1.0 + 300·0.5)/400 = 0.625.
        let trace = Trace::new(vec![stay(0, 0, 100), stay(1, 100, 400)]).unwrap();
        let conceptual = derive_conceptual(&trace, |p: &PresenceInterval| {
            vec![(
                "same".to_string(),
                if p.cell.node.index() == 0 { 1.0 } else { 0.5 },
            )]
        });
        assert_eq!(conceptual.len(), 1);
        let span = &conceptual.spans()[0];
        assert_eq!(span.duration(), Duration::seconds(400));
        assert!((span.weight - 0.625).abs() < 1e-9, "weight {}", span.weight);
    }

    #[test]
    fn empty_inputs() {
        let conceptual = derive_conceptual(&Trace::empty(), museum_attention);
        assert!(conceptual.is_empty());
        assert_eq!(conceptual.dominant_concept(), None);
        assert!(conceptual.attention_profile().is_empty());
        assert!(conceptual.to_string().contains("conceptual"));
    }
}
