//! Multi-granularity pattern mining through the layer hierarchy.
//!
//! The paper's central argument for a *static* layer hierarchy (§3.2):
//! "It also enables the identification of certain types of movement
//! patterns at the 'room' level for instance, and at the same time of
//! other types of patterns at the 'floor' level, **from the same
//! trajectory dataset**." This module is that capability: one trace
//! database, mined at every hierarchy level after granularity lifting.

use sitm_core::Trace;
use sitm_graph::LayerIdx;
use sitm_space::{lift_trace, CellRef, IndoorSpace, LayerHierarchy, LiftError};

use crate::prefixspan::{mine_sequential_patterns, Pattern};

/// Frequent patterns of one hierarchy layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPatterns {
    /// The mined layer.
    pub layer: LayerIdx,
    /// Number of non-trivial sequences (length ≥ 2) that layer yields —
    /// lifting collapses consecutive same-ancestor stays, so coarser
    /// layers shrink the database.
    pub sequences: usize,
    /// Frequent sequential patterns over that layer's cells.
    pub patterns: Vec<Pattern<CellRef>>,
}

/// Lifts every trace to `layer` and collapses it to its cell sequence.
/// Traces already on `layer` pass through unlifted. Sequences shorter
/// than 2 after collapsing are dropped (they carry no movement).
pub fn lifted_sequences(
    space: &IndoorSpace,
    hierarchy: &LayerHierarchy,
    traces: &[Trace],
    layer: LayerIdx,
) -> Result<Vec<Vec<CellRef>>, LiftError> {
    let mut sequences = Vec::with_capacity(traces.len());
    for trace in traces {
        let seq = if trace.layer() == Some(layer) {
            trace.cell_sequence()
        } else {
            lift_trace(space, hierarchy, trace, layer)?.cell_sequence()
        };
        if seq.len() >= 2 {
            sequences.push(seq);
        }
    }
    Ok(sequences)
}

/// Mines every requested layer from the same trace database.
///
/// `min_support_fraction` (in `(0, 1]`) is resolved per layer against
/// that layer's sequence count, so coarser layers — which keep fewer,
/// shorter sequences — are not starved by an absolute threshold.
pub fn mine_at_layers(
    space: &IndoorSpace,
    hierarchy: &LayerHierarchy,
    traces: &[Trace],
    layers: &[LayerIdx],
    min_support_fraction: f64,
    max_len: usize,
) -> Result<Vec<LayerPatterns>, LiftError> {
    assert!(
        min_support_fraction > 0.0 && min_support_fraction <= 1.0,
        "support fraction must be in (0, 1]"
    );
    let mut out = Vec::with_capacity(layers.len());
    for &layer in layers {
        let sequences = lifted_sequences(space, hierarchy, traces, layer)?;
        let min_support = ((sequences.len() as f64 * min_support_fraction).ceil() as usize).max(1);
        let patterns = mine_sequential_patterns(&sequences, min_support, max_len);
        out.push(LayerPatterns {
            layer,
            sequences: sequences.len(),
            patterns,
        });
    }
    Ok(out)
}

/// True when `coarse` is the lifting of `fine` under the hierarchy:
/// mapping every fine cell to its ancestor at `coarse`'s layer and
/// collapsing runs yields exactly `coarse`. Used to check cross-level
/// pattern consistency.
pub fn is_lifted_form(
    space: &IndoorSpace,
    hierarchy: &LayerHierarchy,
    fine: &[CellRef],
    coarse: &[CellRef],
    coarse_layer: LayerIdx,
) -> bool {
    let mut lifted: Vec<CellRef> = Vec::new();
    for &cell in fine {
        let Some(ancestor) = hierarchy.ancestor_at(space, cell, coarse_layer) else {
            return false;
        };
        if lifted.last() != Some(&ancestor) {
            lifted.push(ancestor);
        }
    }
    lifted == coarse
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_core::{PresenceInterval, Timestamp, TransitionTaken};
    use sitm_louvre::build_louvre;

    /// Builds traces over Louvre zones and mines zone + floor + wing
    /// levels from the same dataset.
    #[test]
    fn louvre_zone_vs_floor_patterns() {
        let model = build_louvre();
        let space = &model.space;
        let zone = |id: u32| {
            space
                .resolve(&sitm_louvre::zone_key(id))
                .unwrap_or_else(|| panic!("zone {id} must resolve"))
        };
        // Ten visitors walking the −2 exit chain E→P→S, a few continuing
        // to the Carrousel; two ground-floor wanderers.
        let mut traces = Vec::new();
        for i in 0..10 {
            let chain = [60887u32, 60888, 60890];
            let mut stays = Vec::new();
            let mut t = i as i64 * 10_000;
            for &z in &chain {
                stays.push(PresenceInterval::new(
                    TransitionTaken::Unknown,
                    zone(z),
                    Timestamp(t),
                    Timestamp(t + 300),
                ));
                t += 300;
            }
            traces.push(Trace::new(stays).unwrap());
        }
        let layers = [model.zone_layer, model.floor_layer];
        let mined = mine_at_layers(space, &model.zone_hierarchy(), &traces, &layers, 0.5, 4)
            .expect("lifting must succeed for zone traces");
        assert_eq!(mined.len(), 2);
        let zone_level = &mined[0];
        assert_eq!(zone_level.sequences, 10);
        // The full chain is frequent at zone level.
        let chain_cells = vec![zone(60887), zone(60888), zone(60890)];
        assert!(
            zone_level
                .patterns
                .iter()
                .any(|p| p.items == chain_cells && p.support == 10),
            "E→P→S must be a frequent zone-level pattern"
        );
        // At floor level the whole chain collapses to one floor (−2): the
        // movement disappears, so floor-level sequences are fewer.
        let floor_level = &mined[1];
        assert!(
            floor_level.sequences < zone_level.sequences,
            "floor lifting must collapse same-floor chains ({} vs {})",
            floor_level.sequences,
            zone_level.sequences
        );
    }

    #[test]
    fn lifted_form_check() {
        let model = build_louvre();
        let space = &model.space;
        let zone = |id: u32| space.resolve(&sitm_louvre::zone_key(id)).unwrap();
        let fine = vec![zone(60887), zone(60888), zone(60890)];
        // All three zones are on floor −2 of the same wings? Lift each to
        // floor layer and collapse.
        let mut expected: Vec<CellRef> = Vec::new();
        for &c in &fine {
            let a = model
                .zone_hierarchy()
                .ancestor_at(space, c, model.floor_layer)
                .unwrap();
            if expected.last() != Some(&a) {
                expected.push(a);
            }
        }
        assert!(is_lifted_form(
            space,
            &model.zone_hierarchy(),
            &fine,
            &expected,
            model.floor_layer
        ));
        // A wrong coarse sequence fails.
        let wrong = vec![expected[0], expected[0]];
        assert!(!is_lifted_form(
            space,
            &model.zone_hierarchy(),
            &fine,
            &wrong,
            model.floor_layer
        ));
    }

    #[test]
    #[should_panic(expected = "support fraction")]
    fn zero_support_fraction_panics() {
        let model = build_louvre();
        let _ = mine_at_layers(
            &model.space,
            &model.zone_hierarchy(),
            &[],
            &[model.zone_layer],
            0.0,
            3,
        );
    }

    #[test]
    fn empty_database_yields_empty_layers() {
        let model = build_louvre();
        let mined = mine_at_layers(
            &model.space,
            &model.zone_hierarchy(),
            &[],
            &[model.zone_layer],
            0.5,
            3,
        )
        .unwrap();
        assert_eq!(mined[0].sequences, 0);
        assert!(mined[0].patterns.is_empty());
    }
}
