//! Cells: the symbolic spatial units of the indoor model.
//!
//! IndoorGML's core module "considers an indoor space as a set of
//! non-overlapping cells that represent its smallest organizational /
//! structural units" (§2.1). Our cells live in *layers*; every cell carries
//! a semantic class, optional 2D geometry with a floor index (the 2.5D
//! assumption), and free-form attributes — "static semantic information
//! about the regions is represented through node classes and attributes"
//! (§3.1).

use std::collections::BTreeMap;
use std::fmt;

use sitm_geometry::Polygon;

/// Semantic class of a cell. Classes drive episode predicates and analytics
/// ("the semantics of places also offer us valuable insight", §4.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CellClass {
    /// A whole site of several buildings (e.g. the Louvre).
    BuildingComplex,
    /// One building or wing treated as a building.
    Building,
    /// One floor level of a building.
    Floor,
    /// A generic room.
    Room,
    /// A large hall.
    Hall,
    /// A corridor / hallway.
    Corridor,
    /// A staircase (room-level navigable cell per the paper).
    Staircase,
    /// An elevator cabin/shaft.
    Elevator,
    /// A lobby.
    Lobby,
    /// A shop (e.g. the Louvre souvenir shops in zone S).
    Shop,
    /// A cloakroom.
    Cloakroom,
    /// An exhibition space requiring a (possibly separate) ticket.
    Exhibition,
    /// A building entrance cell.
    Entrance,
    /// A building exit cell (e.g. the Carrousel exit).
    Exit,
    /// A thematic zone (the Louvre dataset's aggregation unit).
    Zone,
    /// A sub-room region of interest (exhibit engagement area).
    RegionOfInterest,
    /// Anything else, named.
    Other(String),
}

impl CellClass {
    /// Canonical class name.
    pub fn name(&self) -> &str {
        match self {
            CellClass::BuildingComplex => "buildingComplex",
            CellClass::Building => "building",
            CellClass::Floor => "floor",
            CellClass::Room => "room",
            CellClass::Hall => "hall",
            CellClass::Corridor => "corridor",
            CellClass::Staircase => "staircase",
            CellClass::Elevator => "elevator",
            CellClass::Lobby => "lobby",
            CellClass::Shop => "shop",
            CellClass::Cloakroom => "cloakroom",
            CellClass::Exhibition => "exhibition",
            CellClass::Entrance => "entrance",
            CellClass::Exit => "exit",
            CellClass::Zone => "zone",
            CellClass::RegionOfInterest => "roi",
            CellClass::Other(s) => s,
        }
    }

    /// Parses a canonical class name (inverse of [`CellClass::name`]).
    pub fn parse(s: &str) -> CellClass {
        match s {
            "buildingComplex" => CellClass::BuildingComplex,
            "building" => CellClass::Building,
            "floor" => CellClass::Floor,
            "room" => CellClass::Room,
            "hall" => CellClass::Hall,
            "corridor" => CellClass::Corridor,
            "staircase" => CellClass::Staircase,
            "elevator" => CellClass::Elevator,
            "lobby" => CellClass::Lobby,
            "shop" => CellClass::Shop,
            "cloakroom" => CellClass::Cloakroom,
            "exhibition" => CellClass::Exhibition,
            "entrance" => CellClass::Entrance,
            "exit" => CellClass::Exit,
            "zone" => CellClass::Zone,
            "roi" => CellClass::RegionOfInterest,
            other => CellClass::Other(other.to_string()),
        }
    }

    /// True for classes that can appear in the "Room" layer of the core
    /// hierarchy — "it may actually contain any type of room-level navigable
    /// spatial cell, such as rooms, chambers, halls, lobbies, cellars,
    /// terraces, corridors, hallways, big staircases" (§3.2).
    pub fn is_room_level(&self) -> bool {
        matches!(
            self,
            CellClass::Room
                | CellClass::Hall
                | CellClass::Corridor
                | CellClass::Staircase
                | CellClass::Elevator
                | CellClass::Lobby
                | CellClass::Shop
                | CellClass::Cloakroom
                | CellClass::Exhibition
                | CellClass::Entrance
                | CellClass::Exit
        )
    }
}

impl fmt::Display for CellClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A symbolic spatial cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Globally unique key (e.g. `"zone60887"`, `"denon.f1.salle-des-etats"`).
    pub key: String,
    /// Human-readable name (e.g. `"Salle des États"`).
    pub name: String,
    /// Semantic class.
    pub class: CellClass,
    /// Floor index for room-level and finer cells (−2 … +2 at the Louvre).
    /// `None` for cells spanning floors (buildings, complexes).
    pub floor: Option<i8>,
    /// Optional 2D footprint in the building-local metric frame.
    pub geometry: Option<Polygon>,
    /// Free-form semantic attributes (sorted for deterministic iteration).
    pub attributes: BTreeMap<String, String>,
}

impl Cell {
    /// Creates a minimal cell with key, name and class.
    pub fn new(key: impl Into<String>, name: impl Into<String>, class: CellClass) -> Self {
        Cell {
            key: key.into(),
            name: name.into(),
            class,
            floor: None,
            geometry: None,
            attributes: BTreeMap::new(),
        }
    }

    /// Builder: sets the floor index.
    #[must_use]
    pub fn on_floor(mut self, floor: i8) -> Self {
        self.floor = Some(floor);
        self
    }

    /// Builder: sets the footprint polygon.
    #[must_use]
    pub fn with_geometry(mut self, poly: Polygon) -> Self {
        self.geometry = Some(poly);
        self
    }

    /// Builder: adds one attribute.
    #[must_use]
    pub fn with_attribute(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.insert(key.into(), value.into());
        self
    }

    /// Attribute lookup.
    pub fn attribute(&self, key: &str) -> Option<&str> {
        self.attributes.get(key).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_geometry::Point;

    #[test]
    fn class_names_round_trip() {
        let classes = [
            CellClass::BuildingComplex,
            CellClass::Building,
            CellClass::Floor,
            CellClass::Room,
            CellClass::Hall,
            CellClass::Corridor,
            CellClass::Staircase,
            CellClass::Elevator,
            CellClass::Lobby,
            CellClass::Shop,
            CellClass::Cloakroom,
            CellClass::Exhibition,
            CellClass::Entrance,
            CellClass::Exit,
            CellClass::Zone,
            CellClass::RegionOfInterest,
            CellClass::Other("atrium".to_string()),
        ];
        for c in classes {
            assert_eq!(CellClass::parse(c.name()), c);
        }
    }

    #[test]
    fn room_level_membership() {
        assert!(CellClass::Hall.is_room_level());
        assert!(CellClass::Staircase.is_room_level());
        assert!(CellClass::Shop.is_room_level());
        assert!(!CellClass::Floor.is_room_level());
        assert!(!CellClass::Zone.is_room_level());
        assert!(!CellClass::RegionOfInterest.is_room_level());
    }

    #[test]
    fn cell_builder_chains() {
        let poly = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(5.0, 5.0)).unwrap();
        let cell = Cell::new(
            "zone60887",
            "Temporary Exhibition (E)",
            CellClass::Exhibition,
        )
        .on_floor(-2)
        .with_geometry(poly.clone())
        .with_attribute("ticket", "separate")
        .with_attribute("theme", "temporary");
        assert_eq!(cell.key, "zone60887");
        assert_eq!(cell.floor, Some(-2));
        assert_eq!(cell.geometry, Some(poly));
        assert_eq!(cell.attribute("ticket"), Some("separate"));
        assert_eq!(cell.attribute("missing"), None);
    }

    #[test]
    fn attributes_iterate_sorted() {
        let cell = Cell::new("k", "n", CellClass::Room)
            .with_attribute("z", "1")
            .with_attribute("a", "2");
        let keys: Vec<&String> = cell.attributes.keys().collect();
        assert_eq!(keys, vec!["a", "z"]);
    }
}
