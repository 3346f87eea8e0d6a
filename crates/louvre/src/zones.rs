//! The 52 thematic zones.
//!
//! "Raw geometric positions have already been spatially aggregated into 52
//! non-overlapping zones. Each zone corresponds to a large polygonal area
//! of the museum specified by the museum administration in such a way so as
//! to reflect a single exhibition theme (e.g. Italian paintings) but also
//! only extend within a single floor." (§4.1) The dataset covers 30 of the
//! 52; Fig. 3 maps the 11 ground-floor zones.
//!
//! Zone ids follow the paper's numbering (60853, 60854, 60887 "E",
//! 60888 "P", 60890 "S" are cited verbatim); the remaining ids fill the
//! contiguous 60840–60891 range. Geometry is synthetic rectilinear layout —
//! the paper publishes no floor plans, and only adjacency, containment and
//! relative area matter to the model.

use sitm_geometry::{Point, Polygon};
use sitm_space::CellClass;

/// Louvre wings; each is "practically equivalent to a typical building"
/// (§4.2) and becomes a cell of the Building layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Wing {
    /// Denon wing (south).
    Denon,
    /// Sully wing (east, around the Cour Carrée).
    Sully,
    /// Richelieu wing (north).
    Richelieu,
    /// The Napoléon area under the Pyramide.
    Napoleon,
}

impl Wing {
    /// All wings.
    pub const ALL: [Wing; 4] = [Wing::Denon, Wing::Sully, Wing::Richelieu, Wing::Napoleon];

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Wing::Denon => "Denon",
            Wing::Sully => "Sully",
            Wing::Richelieu => "Richelieu",
            Wing::Napoleon => "Napoleon",
        }
    }

    /// Stable cell key of the wing in the Building layer.
    pub fn key(self) -> String {
        format!("wing-{}", self.name().to_lowercase())
    }

    /// Y offset of the wing's band in the global synthetic frame (wings do
    /// not overlap in plan).
    pub fn y_offset(self) -> f64 {
        match self {
            Wing::Denon => 0.0,
            Wing::Sully => 100.0,
            Wing::Richelieu => 200.0,
            Wing::Napoleon => 300.0,
        }
    }
}

/// Static description of one thematic zone.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneSpec {
    /// Zone id as used by the museum (and the paper).
    pub id: u32,
    /// Exhibition theme.
    pub theme: &'static str,
    /// Wing the zone belongs to.
    pub wing: Wing,
    /// Floor (−2 … +2).
    pub floor: i8,
    /// Present in the dataset ("the 30 zones present in the dataset").
    pub active: bool,
    /// Semantic class of the zone cell.
    pub class: CellClass,
    /// Visitors can start here (museum entrance zone).
    pub entrance: bool,
    /// Visitors can disappear here ("one of the Louvre's exit zones").
    pub exit: bool,
    /// Relative popularity weight for the synthetic generator (the Mona
    /// Lisa's zone dwarfs the rest).
    pub popularity: f64,
    /// Footprint origin x in the floor-local frame (metres).
    pub x0: f64,
    /// Footprint width (metres).
    pub width: f64,
}

/// Depth (y extent) of every zone band, metres.
pub const ZONE_DEPTH: f64 = 40.0;

/// Stable cell key of a zone (`"zone60887"`).
pub fn zone_key(id: u32) -> String {
    format!("zone{id}")
}

/// The zone footprint polygon in the global synthetic frame.
pub fn zone_polygon(spec: &ZoneSpec) -> Polygon {
    let y0 = spec.wing.y_offset();
    Polygon::rectangle(
        Point::new(spec.x0, y0),
        Point::new(spec.x0 + spec.width, y0 + ZONE_DEPTH),
    )
    .expect("zone rectangles are valid")
}

/// Builds the full 52-zone catalog.
pub fn zone_catalog() -> Vec<ZoneSpec> {
    let mut zones = Vec::with_capacity(52);

    // ---- Floor −1: 10 zones, ids 60840–60849 (4 active). ----------------
    // Medieval Louvre and Islamic Arts live below ground.
    let f1_themes = [
        ("Medieval Louvre", true),
        ("Islamic Art", true),
        ("Sculpture crypts", true),
        ("Coptic Egypt", false),
        ("Napoleon Hall mezzanine", true),
        ("Donation galleries", false),
        ("Study rooms", false),
        ("Greek antiquities reserves", false),
        ("Prints and drawings", false),
        ("Conservation ateliers", false),
    ];
    for (i, (theme, active)) in f1_themes.iter().enumerate() {
        let id = 60840 + i as u32;
        zones.push(ZoneSpec {
            id,
            theme,
            wing: match i {
                0..=3 => Wing::Sully,
                4..=6 => Wing::Napoleon,
                _ => Wing::Richelieu,
            },
            floor: -1,
            active: *active,
            class: CellClass::Zone,
            entrance: false,
            exit: false,
            popularity: if *active { 2.0 } else { 0.0 },
            x0: i as f64 * 45.0,
            width: 45.0,
        });
    }

    // ---- Floor 0: 11 zones, ids 60850–60860 (all active, Fig. 3). -------
    let f0 = [
        // (theme, wing, popularity)
        ("Italian Sculptures", Wing::Denon, 4.0),
        ("Galerie Daru", Wing::Denon, 5.0),
        ("Greek Antiquities", Wing::Sully, 6.0), // Venus de Milo
        ("Egyptian Antiquities", Wing::Sully, 5.0),
        ("Near Eastern Antiquities", Wing::Richelieu, 2.0),
        ("French Sculptures (Cour Marly)", Wing::Richelieu, 3.0),
        ("Cour Puget", Wing::Richelieu, 2.0),
        ("Etruscan Antiquities", Wing::Denon, 2.0),
        ("Roman Antiquities", Wing::Denon, 3.0),
        ("Salle du Manège", Wing::Denon, 2.0),
        ("Pavillon de l'Horloge", Wing::Sully, 2.0),
    ];
    for (i, (theme, wing, popularity)) in f0.iter().enumerate() {
        let id = 60850 + i as u32;
        zones.push(ZoneSpec {
            id,
            theme,
            wing: *wing,
            floor: 0,
            active: true,
            class: CellClass::Zone,
            entrance: false,
            exit: false,
            popularity: *popularity,
            x0: i as f64 * 40.0,
            width: 40.0,
        });
    }

    // ---- Floor +1: 15 zones, ids 60861–60875 (10 active). ---------------
    let f1up = [
        ("Italian Paintings (Grande Galerie)", Wing::Denon, true, 8.0),
        ("Salle des États (Mona Lisa)", Wing::Denon, true, 10.0),
        ("French Large Formats", Wing::Denon, true, 5.0),
        ("Winged Victory landing", Wing::Denon, true, 6.0),
        ("Apollo Gallery", Wing::Denon, true, 4.0),
        ("Spanish Paintings", Wing::Denon, false, 0.0),
        ("English Paintings", Wing::Denon, false, 0.0),
        ("Egyptian Antiquities upper", Wing::Sully, true, 3.0),
        ("Greek ceramics", Wing::Sully, true, 2.0),
        ("Decorative Arts", Wing::Richelieu, true, 2.0),
        ("Napoleon III Apartments", Wing::Richelieu, true, 3.0),
        ("French Paintings 17th c.", Wing::Sully, true, 2.0),
        ("Objets d'art reserves", Wing::Sully, false, 0.0),
        ("Restoration gallery", Wing::Richelieu, false, 0.0),
        ("Graphic arts rotations", Wing::Richelieu, false, 0.0),
    ];
    for (i, (theme, wing, active, popularity)) in f1up.iter().enumerate() {
        let id = 60861 + i as u32;
        zones.push(ZoneSpec {
            id,
            theme,
            wing: *wing,
            floor: 1,
            active: *active,
            class: CellClass::Zone,
            entrance: false,
            exit: false,
            popularity: *popularity,
            x0: i as f64 * 38.0,
            width: 38.0,
        });
    }

    // ---- Floor +2: 10 zones, ids 60876–60885 (none active: the app's
    //      coverage did not extend there, explaining 52 vs 30). -----------
    let f2 = [
        "Northern Schools",
        "Dutch Golden Age",
        "Flemish Paintings",
        "German Paintings",
        "French Paintings 18th c.",
        "French Paintings 19th c.",
        "Pastels",
        "Graphic Arts study",
        "Corot and Barbizon",
        "Temporary cabinet",
    ];
    for (i, theme) in f2.iter().enumerate() {
        let id = 60876 + i as u32;
        zones.push(ZoneSpec {
            id,
            theme,
            wing: if i < 6 { Wing::Richelieu } else { Wing::Sully },
            floor: 2,
            active: false,
            class: CellClass::Zone,
            entrance: false,
            exit: false,
            popularity: 0.0,
            x0: i as f64 * 42.0,
            width: 42.0,
        });
    }

    // ---- Floor −2: 6 zones, ids 60886–60891 (5 active; Fig. 6). ---------
    zones.push(ZoneSpec {
        id: 60886,
        theme: "Napoleon Hall (under the Pyramide)",
        wing: Wing::Napoleon,
        floor: -2,
        active: true,
        class: CellClass::Entrance,
        entrance: true,
        exit: true,
        popularity: 3.0,
        x0: 0.0,
        width: 60.0,
    });
    zones.push(ZoneSpec {
        id: 60887,
        theme: "Temporary Exhibition (E)",
        wing: Wing::Napoleon,
        floor: -2,
        active: true,
        class: CellClass::Exhibition,
        entrance: false,
        exit: false,
        popularity: 4.0,
        x0: 60.0,
        width: 50.0,
    });
    zones.push(ZoneSpec {
        id: 60888,
        theme: "Passage & Cloakrooms (P)",
        wing: Wing::Napoleon,
        floor: -2,
        active: true,
        class: CellClass::Corridor,
        entrance: false,
        exit: false,
        popularity: 1.5,
        x0: 110.0,
        width: 30.0,
    });
    zones.push(ZoneSpec {
        id: 60889,
        theme: "Auditorium studio",
        wing: Wing::Napoleon,
        floor: -2,
        active: false,
        class: CellClass::Zone,
        entrance: false,
        exit: false,
        popularity: 0.0,
        x0: 140.0,
        width: 25.0,
    });
    zones.push(ZoneSpec {
        id: 60890,
        theme: "Souvenir Shops (S)",
        wing: Wing::Napoleon,
        floor: -2,
        active: true,
        class: CellClass::Shop,
        entrance: false,
        exit: false,
        popularity: 2.5,
        x0: 165.0,
        width: 35.0,
    });
    zones.push(ZoneSpec {
        id: 60891,
        theme: "Carrousel Hall exit (C)",
        wing: Wing::Napoleon,
        floor: -2,
        active: true,
        class: CellClass::Exit,
        entrance: false,
        exit: true,
        popularity: 1.0,
        x0: 200.0,
        width: 30.0,
    });

    zones
}

/// Looks up a zone spec by id.
pub fn zone_by_id(catalog: &[ZoneSpec], id: u32) -> Option<&ZoneSpec> {
    catalog.iter().find(|z| z.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_52_zones_30_active() {
        let zones = zone_catalog();
        assert_eq!(zones.len(), 52, "the paper's 52 zones");
        assert_eq!(
            zones.iter().filter(|z| z.active).count(),
            30,
            "the paper's 30 zones present in the dataset"
        );
    }

    #[test]
    fn ids_are_unique_and_contiguous() {
        let zones = zone_catalog();
        let mut ids: Vec<u32> = zones.iter().map(|z| z.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 52);
        assert_eq!(*ids.first().unwrap(), 60840);
        assert_eq!(*ids.last().unwrap(), 60891);
    }

    #[test]
    fn ground_floor_has_the_fig3_eleven_zones() {
        let zones = zone_catalog();
        let ground: Vec<&ZoneSpec> = zones.iter().filter(|z| z.floor == 0).collect();
        assert_eq!(ground.len(), 11, "Fig. 3's 11 ground-floor zones");
        assert!(ground.iter().all(|z| z.active));
        assert!(zone_by_id(&zones, 60853).is_some());
        assert!(zone_by_id(&zones, 60854).is_some());
        assert_eq!(zone_by_id(&zones, 60853).unwrap().floor, 0);
        assert_eq!(zone_by_id(&zones, 60854).unwrap().floor, 0);
    }

    #[test]
    fn paper_cited_zones_match_their_roles() {
        let zones = zone_catalog();
        let e = zone_by_id(&zones, 60887).unwrap();
        assert_eq!(e.class, CellClass::Exhibition);
        assert_eq!(e.floor, -2);
        assert!(e.active);
        let p = zone_by_id(&zones, 60888).unwrap();
        assert_eq!(p.class, CellClass::Corridor);
        let s = zone_by_id(&zones, 60890).unwrap();
        assert_eq!(s.class, CellClass::Shop);
        let c = zone_by_id(&zones, 60891).unwrap();
        assert_eq!(c.class, CellClass::Exit);
        assert!(c.exit);
    }

    #[test]
    fn exactly_one_entrance_and_two_exits() {
        let zones = zone_catalog();
        assert_eq!(zones.iter().filter(|z| z.entrance).count(), 1);
        assert_eq!(zones.iter().filter(|z| z.exit).count(), 2);
    }

    #[test]
    fn zones_single_floor_and_disjoint_within_floor_wing() {
        let zones = zone_catalog();
        // Same floor + wing ⇒ non-overlapping x ranges (layout invariant).
        for a in &zones {
            for b in &zones {
                if a.id < b.id && a.floor == b.floor && a.wing == b.wing {
                    let a_range = (a.x0, a.x0 + a.width);
                    let b_range = (b.x0, b.x0 + b.width);
                    assert!(
                        a_range.1 <= b_range.0 + 1e-9 || b_range.1 <= a_range.0 + 1e-9,
                        "zones {} and {} overlap",
                        a.id,
                        b.id
                    );
                }
            }
        }
    }

    #[test]
    fn polygons_have_positive_area_and_match_depth() {
        let zones = zone_catalog();
        for z in &zones {
            let poly = zone_polygon(z);
            assert!((poly.area() - z.width * ZONE_DEPTH).abs() < 1e-9);
        }
    }

    #[test]
    fn active_zones_have_positive_popularity() {
        for z in zone_catalog() {
            if z.active {
                assert!(z.popularity > 0.0, "zone {} active but weight 0", z.id);
            } else {
                assert_eq!(z.popularity, 0.0, "zone {} inactive but weighted", z.id);
            }
        }
    }

    #[test]
    fn keys_are_stable() {
        assert_eq!(zone_key(60887), "zone60887");
    }
}
