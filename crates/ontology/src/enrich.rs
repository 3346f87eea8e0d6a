//! Semantic enrichment of trajectories from the knowledge base.
//!
//! This is the bridge the paper's §2.2 calls for — integrating "movement
//! ontologies, linked open data, … or complementary case-specific
//! datasets" with the trajectory model: stays in a thematic zone gain
//! annotations naming the exhibits, themes, and artists the zone hosts,
//! and a whole trace folds into a per-theme dwell profile usable for
//! visitor profiling (§5 future work).
//!
//! The enrichers are space-model-agnostic: the caller provides a
//! `zone_of` closure mapping a [`CellRef`] to a thematic zone id, so the
//! crate needs no dependency on any particular building model.

use std::collections::BTreeMap;

use sitm_core::{Annotation, AnnotationSet, Duration, Trace};
use sitm_graph::CellRef;

use crate::museum::zone_place_iri;
use crate::triple::TripleStore;
use crate::vocab::{crm, rdf};

/// What the KB knows about one thematic zone.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ZoneSemantics {
    /// Labels of exhibits located in the zone.
    pub exhibits: Vec<String>,
    /// Theme IRIs of those exhibits, including `skos:broader` ancestors.
    pub themes: Vec<String>,
    /// Labels of the artists who produced those exhibits.
    pub artists: Vec<String>,
}

impl ZoneSemantics {
    /// True when the KB has nothing on the zone.
    pub fn is_empty(&self) -> bool {
        self.exhibits.is_empty() && self.themes.is_empty() && self.artists.is_empty()
    }
}

/// Walks `skos:broader` upward from `theme`, returning the theme and all
/// its ancestors (each once, nearest first). Works on the raw KB; on a
/// saturated KB the extra hops are already materialized and deduped here.
pub fn theme_with_ancestors(kb: &TripleStore, theme: &str) -> Vec<String> {
    let mut out: Vec<String> = vec![theme.to_string()];
    let mut cursor = 0;
    while cursor < out.len() {
        let current = out[cursor].clone();
        for broader in kb.objects(&current, rdf::BROADER) {
            if !out.iter().any(|t| t == broader) {
                out.push(broader.to_string());
            }
        }
        cursor += 1;
    }
    out
}

/// Looks up everything the KB knows about a thematic zone.
pub fn zone_semantics(kb: &TripleStore, zone_id: u32) -> ZoneSemantics {
    let place = zone_place_iri(zone_id);
    let mut semantics = ZoneSemantics::default();
    let mut exhibits = kb.subjects(crm::P55_HAS_CURRENT_LOCATION, &place);
    exhibits.sort_unstable();
    for exhibit in exhibits {
        let exhibit = exhibit.to_string();
        for label in kb.objects(&exhibit, rdf::LABEL) {
            if !semantics.exhibits.iter().any(|e| e == label) {
                semantics.exhibits.push(label.to_string());
            }
        }
        for theme in kb.objects(&exhibit, crm::P2_HAS_TYPE) {
            for t in theme_with_ancestors(kb, theme) {
                if !semantics.themes.contains(&t) {
                    semantics.themes.push(t);
                }
            }
        }
        for production in kb.objects(&exhibit, crm::P108I_WAS_PRODUCED_BY) {
            let production = production.to_string();
            for artist in kb.objects(&production, crm::P14_CARRIED_OUT_BY) {
                let artist = artist.to_string();
                for label in kb.objects(&artist, rdf::LABEL) {
                    if !semantics.artists.iter().any(|a| a == label) {
                        semantics.artists.push(label.to_string());
                    }
                }
            }
        }
    }
    semantics
}

/// Annotation kinds produced by the enricher.
pub mod kinds {
    use sitm_core::AnnotationKind;

    /// `exhibit:<label>` annotations.
    pub fn exhibit() -> AnnotationKind {
        AnnotationKind::Custom("exhibit".to_string())
    }

    /// `theme:<iri>` annotations.
    pub fn theme() -> AnnotationKind {
        AnnotationKind::Custom("theme".to_string())
    }

    /// `artist:<label>` annotations.
    pub fn artist() -> AnnotationKind {
        AnnotationKind::Custom("artist".to_string())
    }
}

/// Enriches a trace: every stay whose cell maps to a zone the KB knows
/// gains exhibit/theme/artist annotations. Returns the enriched trace and
/// the number of stays touched. The input trace is consumed (stays keep
/// their existing annotations).
pub fn enrich_trace(
    kb: &TripleStore,
    trace: Trace,
    mut zone_of: impl FnMut(CellRef) -> Option<u32>,
) -> (Trace, usize) {
    let mut touched = 0;
    // One annotation set per zone, shared by every stay in it.
    let mut zone_annotations: BTreeMap<u32, AnnotationSet> = BTreeMap::new();
    let mut intervals = trace.into_intervals();
    for stay in &mut intervals {
        let Some(zone_id) = zone_of(stay.cell) else {
            continue;
        };
        let zone = zone_annotations.entry(zone_id).or_insert_with(|| {
            let semantics = zone_semantics(kb, zone_id);
            let exhibits = semantics.exhibits.into_iter();
            let themes = semantics.themes.into_iter();
            let artists = semantics.artists.into_iter();
            exhibits
                .map(|v| Annotation::new(kinds::exhibit(), v))
                .chain(themes.map(|v| Annotation::new(kinds::theme(), v)))
                .chain(artists.map(|v| Annotation::new(kinds::artist(), v)))
                .collect()
        });
        if zone.is_empty() {
            continue;
        }
        stay.annotations = stay.annotations.union(zone);
        touched += 1;
    }
    let trace = Trace::new(intervals).expect("enrichment does not reorder stays");
    (trace, touched)
}

/// Folds a trace into a per-theme dwell profile: for every stay whose
/// zone hosts themed exhibits, the stay's duration is credited to each
/// *leaf* theme in the zone (ancestors excluded so profiles stay
/// comparable). This is the feature vector for visitor profiling.
pub fn theme_dwell_profile(
    kb: &TripleStore,
    trace: &Trace,
    mut zone_of: impl FnMut(CellRef) -> Option<u32>,
) -> BTreeMap<String, Duration> {
    let mut profile: BTreeMap<String, Duration> = BTreeMap::new();
    let mut leaf_cache: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    for stay in trace.intervals() {
        let Some(zone_id) = zone_of(stay.cell) else {
            continue;
        };
        let leaves = leaf_cache.entry(zone_id).or_insert_with(|| {
            let place = zone_place_iri(zone_id);
            let exhibits: Vec<String> = kb
                .subjects(crm::P55_HAS_CURRENT_LOCATION, &place)
                .into_iter()
                .map(str::to_string)
                .collect();
            let mut themes: Vec<String> = exhibits
                .iter()
                .flat_map(|e| kb.objects(e, crm::P2_HAS_TYPE))
                .map(str::to_string)
                .collect();
            themes.sort_unstable();
            themes.dedup();
            themes
        });
        for theme in leaves.iter() {
            let slot = profile.entry(theme.clone()).or_insert(Duration::ZERO);
            *slot = *slot + stay.duration();
        }
    }
    profile
}

/// Cosine similarity of two theme dwell profiles in `[0, 1]`
/// (0 for orthogonal interests, 1 for proportional ones). Returns 0 when
/// either profile is empty.
pub fn profile_similarity(a: &BTreeMap<String, Duration>, b: &BTreeMap<String, Duration>) -> f64 {
    let dot: f64 = a
        .iter()
        .filter_map(|(theme, &da)| b.get(theme).map(|&db| da.as_secs_f64() * db.as_secs_f64()))
        .sum();
    let norm = |m: &BTreeMap<String, Duration>| -> f64 {
        m.values()
            .map(|d| d.as_secs_f64().powi(2))
            .sum::<f64>()
            .sqrt()
    };
    let (na, nb) = (norm(a), norm(b));
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    let sim = dot / (na * nb);
    // An empty dot product sums to -0.0, which clamp would keep; normalize
    // all non-positive results to +0.0.
    if sim <= 0.0 {
        0.0
    } else {
        sim.min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::museum::build_louvre_kb;
    use crate::reasoner::saturate;
    use sitm_core::{PresenceInterval, Timestamp, TransitionTaken};
    use sitm_graph::{LayerIdx, NodeId};

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
    }

    /// Cells 0..3 map to the zones of the KB's flagship exhibits.
    fn zone_of(c: CellRef) -> Option<u32> {
        match c.node.index() {
            0 => Some(60862), // Mona Lisa / Salle des États
            1 => Some(60852), // Greek & Italian sculpture
            2 => Some(60863), // French large formats
            _ => None,
        }
    }

    fn trace() -> Trace {
        Trace::new(vec![
            PresenceInterval::new(
                TransitionTaken::Unknown,
                cell(0),
                Timestamp(0),
                Timestamp(600),
            ),
            PresenceInterval::new(
                TransitionTaken::Unknown,
                cell(1),
                Timestamp(600),
                Timestamp(900),
            ),
            PresenceInterval::new(
                TransitionTaken::Unknown,
                cell(9),
                Timestamp(900),
                Timestamp(1000),
            ),
        ])
        .unwrap()
    }

    fn saturated_kb() -> TripleStore {
        let mut kb = build_louvre_kb();
        saturate(&mut kb);
        kb
    }

    #[test]
    fn zone_semantics_for_salle_des_etats() {
        let kb = saturated_kb();
        let s = zone_semantics(&kb, 60862);
        assert!(s.exhibits.contains(&"Mona Lisa".to_string()));
        assert!(s.artists.contains(&"Leonardo da Vinci".to_string()));
        assert!(s
            .themes
            .contains(&"theme:ItalianRenaissancePainting".to_string()));
        // Ancestors are pulled in.
        assert!(s.themes.contains(&"theme:Painting".to_string()));
        assert!(s.themes.contains(&"theme:FineArt".to_string()));
    }

    #[test]
    fn unknown_zone_is_empty() {
        let kb = saturated_kb();
        assert!(zone_semantics(&kb, 1).is_empty());
    }

    #[test]
    fn theme_ancestor_walk_dedups() {
        let kb = build_louvre_kb();
        let themes = theme_with_ancestors(&kb, "theme:GreekSculpture");
        assert_eq!(
            themes,
            vec!["theme:GreekSculpture", "theme:Sculpture", "theme:FineArt"]
        );
        // Unknown themes return just themselves.
        assert_eq!(theme_with_ancestors(&kb, "theme:Nope"), vec!["theme:Nope"]);
    }

    #[test]
    fn enrich_trace_annotates_known_zones_only() {
        let kb = saturated_kb();
        let (enriched, touched) = enrich_trace(&kb, trace(), zone_of);
        assert_eq!(touched, 2, "two stays map to KB zones");
        let first = enriched.get(0).unwrap();
        assert!(first.annotations.has(&kinds::exhibit(), "Mona Lisa"));
        assert!(first.annotations.has(&kinds::artist(), "Leonardo da Vinci"));
        let last = enriched.get(2).unwrap();
        assert!(last.annotations.is_empty(), "unknown zone untouched");
    }

    #[test]
    fn dwell_profile_credits_leaf_themes() {
        let kb = saturated_kb();
        let t = trace();
        let profile = theme_dwell_profile(&kb, &t, zone_of);
        // Salle des États stay: 600 s of Italian Renaissance painting.
        assert_eq!(
            profile["theme:ItalianRenaissancePainting"],
            Duration::seconds(600)
        );
        // Sculpture zone stay: 300 s credited to the sculpture themes
        // hosted there.
        assert_eq!(profile["theme:GreekSculpture"], Duration::seconds(300));
        // Ancestors are not credited directly.
        assert!(!profile.contains_key("theme:FineArt"));
    }

    #[test]
    fn profile_similarity_behaviour() {
        let mut a = BTreeMap::new();
        a.insert("theme:X".to_string(), Duration::seconds(100));
        let mut b = BTreeMap::new();
        b.insert("theme:X".to_string(), Duration::seconds(700));
        assert!(
            (profile_similarity(&a, &b) - 1.0).abs() < 1e-9,
            "proportional profiles"
        );
        let mut c = BTreeMap::new();
        c.insert("theme:Y".to_string(), Duration::seconds(50));
        assert_eq!(profile_similarity(&a, &c), 0.0, "disjoint profiles");
        assert_eq!(
            profile_similarity(&a, &BTreeMap::new()),
            0.0,
            "empty profile"
        );
        // Symmetry.
        let mut d = BTreeMap::new();
        d.insert("theme:X".to_string(), Duration::seconds(10));
        d.insert("theme:Y".to_string(), Duration::seconds(10));
        assert!((profile_similarity(&a, &d) - profile_similarity(&d, &a)).abs() < 1e-12);
    }
}
