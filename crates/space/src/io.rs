//! JSON exchange format for indoor space models.
//!
//! The format carries the same information as IndoorGML's MLSM core —
//! layers, cells, intra-layer (accessibility NRG) edges, inter-layer joint
//! edges — in a JSON document rather than the standard's XML syntax. There
//! is no XML codec: the model needs the standard's structure, not its
//! syntax, and the workspace carries no XML dependency.

use sitm_geometry::{Point, Polygon};
use sitm_graph::CellRef;

use crate::cell::{Cell, CellClass};
use crate::joint::JointRelation;
use crate::json::{JsonError, JsonValue};
use crate::layer::LayerKind;
use crate::model::IndoorSpace;
use crate::transition::{Transition, TransitionKind};

/// Format identifier written into every document.
pub const FORMAT: &str = "sitm-space/1";

/// Errors raised while decoding a model document.
#[derive(Debug, Clone, PartialEq)]
pub enum IoError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// The document structure is not a valid model (message explains).
    Schema(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Json(e) => write!(f, "{e}"),
            IoError::Schema(m) => write!(f, "schema error: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<JsonError> for IoError {
    fn from(e: JsonError) -> Self {
        IoError::Json(e)
    }
}

fn schema(msg: impl Into<String>) -> IoError {
    IoError::Schema(msg.into())
}

/// Serializes a model to a JSON document value.
pub fn to_json(space: &IndoorSpace) -> JsonValue {
    let mut layers = Vec::new();
    for (idx, layer) in space.layers() {
        let cells: Vec<JsonValue> = space
            .cells_in(idx)
            .map(|(_, cell)| cell_to_json(cell))
            .collect();
        let transitions: Vec<JsonValue> = space
            .transitions_in(idx)
            .map(|e| {
                let from_key = space
                    .nrg(idx)
                    .and_then(|g| g.node(e.from))
                    .map(|c| c.key.clone())
                    .unwrap_or_default();
                let to_key = space
                    .nrg(idx)
                    .and_then(|g| g.node(e.to))
                    .map(|c| c.key.clone())
                    .unwrap_or_default();
                let mut fields = vec![
                    ("from".to_string(), JsonValue::string(from_key)),
                    ("to".to_string(), JsonValue::string(to_key)),
                    ("kind".to_string(), JsonValue::string(e.payload.kind.name())),
                ];
                if let Some(name) = &e.payload.name {
                    fields.push(("name".to_string(), JsonValue::string(name.clone())));
                }
                if e.payload.cost_hint > 0.0 {
                    fields.push(("cost".to_string(), JsonValue::Number(e.payload.cost_hint)));
                }
                JsonValue::object(fields)
            })
            .collect();
        layers.push(JsonValue::object([
            ("name", JsonValue::string(layer.name.clone())),
            ("kind", JsonValue::string(layer.kind.name())),
            ("cells", JsonValue::Array(cells)),
            ("transitions", JsonValue::Array(transitions)),
        ]));
    }

    let joints: Vec<JsonValue> = space
        .joints()
        .map(|j| {
            let from = CellRef::new(j.from.0, j.from.1);
            let to = CellRef::new(j.to.0, j.to.1);
            JsonValue::object([
                (
                    "from",
                    JsonValue::string(space.cell(from).map(|c| c.key.clone()).unwrap_or_default()),
                ),
                (
                    "to",
                    JsonValue::string(space.cell(to).map(|c| c.key.clone()).unwrap_or_default()),
                ),
                ("relation", JsonValue::string(j.payload.name())),
            ])
        })
        .collect();

    JsonValue::object([
        ("format", JsonValue::string(FORMAT)),
        ("layers", JsonValue::Array(layers)),
        ("joints", JsonValue::Array(joints)),
    ])
}

fn cell_to_json(cell: &Cell) -> JsonValue {
    let mut fields = vec![
        ("key".to_string(), JsonValue::string(cell.key.clone())),
        ("name".to_string(), JsonValue::string(cell.name.clone())),
        (
            "class".to_string(),
            JsonValue::string(cell.class.name().to_string()),
        ),
    ];
    if let Some(floor) = cell.floor {
        fields.push(("floor".to_string(), JsonValue::Number(floor as f64)));
    }
    if let Some(poly) = &cell.geometry {
        let ring: Vec<JsonValue> = poly
            .vertices()
            .iter()
            .map(|p| JsonValue::Array(vec![JsonValue::Number(p.x), JsonValue::Number(p.y)]))
            .collect();
        fields.push(("geometry".to_string(), JsonValue::Array(ring)));
    }
    if !cell.attributes.is_empty() {
        fields.push((
            "attributes".to_string(),
            JsonValue::object(
                cell.attributes
                    .iter()
                    .map(|(k, v)| (k.clone(), JsonValue::string(v.clone()))),
            ),
        ));
    }
    JsonValue::object(fields)
}

/// Serializes a model to pretty-printed JSON text.
pub fn to_json_string(space: &IndoorSpace) -> String {
    to_json(space).to_pretty()
}

/// Decodes a model from JSON text.
pub fn from_json_str(text: &str) -> Result<IndoorSpace, IoError> {
    from_json(&JsonValue::parse(text)?)
}

/// Decodes a model from a JSON document value.
pub fn from_json(doc: &JsonValue) -> Result<IndoorSpace, IoError> {
    let format = doc
        .get("format")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| schema("missing format"))?;
    if format != FORMAT {
        return Err(schema(format!("unsupported format {format:?}")));
    }
    let mut space = IndoorSpace::new();
    let layers = doc
        .get("layers")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| schema("missing layers array"))?;

    for layer_doc in layers {
        let name = layer_doc
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| schema("layer missing name"))?;
        let kind = layer_doc
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| schema("layer missing kind"))?;
        let idx = space.add_layer(name, LayerKind::parse(kind));

        for cell_doc in layer_doc
            .get("cells")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            let cell = cell_from_json(cell_doc)?;
            space
                .add_cell(idx, cell)
                .map_err(|e| schema(e.to_string()))?;
        }
        for t_doc in layer_doc
            .get("transitions")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            let from_key = t_doc
                .get("from")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| schema("transition missing from"))?;
            let to_key = t_doc
                .get("to")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| schema("transition missing to"))?;
            let kind = t_doc
                .get("kind")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| schema("transition missing kind"))?;
            let mut transition = Transition::new(TransitionKind::parse(kind));
            if let Some(name) = t_doc.get("name").and_then(JsonValue::as_str) {
                transition.name = Some(name.to_string());
            }
            if let Some(cost) = t_doc.get("cost").and_then(JsonValue::as_f64) {
                transition.cost_hint = cost;
            }
            let from = space
                .resolve(from_key)
                .ok_or_else(|| schema(format!("transition from unknown cell {from_key:?}")))?;
            let to = space
                .resolve(to_key)
                .ok_or_else(|| schema(format!("transition to unknown cell {to_key:?}")))?;
            space
                .add_transition(from, to, transition)
                .map_err(|e| schema(e.to_string()))?;
        }
    }

    for joint_doc in doc
        .get("joints")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
    {
        let from_key = joint_doc
            .get("from")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| schema("joint missing from"))?;
        let to_key = joint_doc
            .get("to")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| schema("joint missing to"))?;
        let rel_name = joint_doc
            .get("relation")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| schema("joint missing relation"))?;
        let relation = JointRelation::parse(rel_name)
            .ok_or_else(|| schema(format!("unknown joint relation {rel_name:?}")))?;
        let from = space
            .resolve(from_key)
            .ok_or_else(|| schema(format!("joint from unknown cell {from_key:?}")))?;
        let to = space
            .resolve(to_key)
            .ok_or_else(|| schema(format!("joint to unknown cell {to_key:?}")))?;
        space
            .add_joint(from, to, relation)
            .map_err(|e| schema(e.to_string()))?;
    }
    Ok(space)
}

fn cell_from_json(doc: &JsonValue) -> Result<Cell, IoError> {
    let key = doc
        .get("key")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| schema("cell missing key"))?;
    let name = doc
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| schema("cell missing name"))?;
    let class = doc
        .get("class")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| schema("cell missing class"))?;
    let mut cell = Cell::new(key, name, CellClass::parse(class));
    if let Some(floor) = doc.get("floor").and_then(JsonValue::as_i64) {
        cell.floor = Some(floor as i8);
    }
    if let Some(ring_doc) = doc.get("geometry").and_then(JsonValue::as_array) {
        let mut ring = Vec::with_capacity(ring_doc.len());
        for v in ring_doc {
            let coords = v
                .as_array()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| schema("geometry vertex must be [x, y]"))?;
            let x = coords[0]
                .as_f64()
                .ok_or_else(|| schema("geometry x must be a number"))?;
            let y = coords[1]
                .as_f64()
                .ok_or_else(|| schema("geometry y must be a number"))?;
            ring.push(Point::new(x, y));
        }
        let poly =
            Polygon::new(ring).map_err(|e| schema(format!("invalid geometry for {key:?}: {e}")))?;
        cell.geometry = Some(poly);
    }
    if let Some(JsonValue::Object(attrs)) = doc.get("attributes") {
        for (k, v) in attrs {
            let value = v
                .as_str()
                .ok_or_else(|| schema("attribute values must be strings"))?;
            cell.attributes.insert(k.clone(), value.to_string());
        }
    }
    Ok(cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellClass;
    use crate::layer::LayerKind;
    use sitm_geometry::Point;

    fn sample_space() -> IndoorSpace {
        let mut s = IndoorSpace::new();
        let lf = s.add_layer("floors", LayerKind::Floor);
        let lr = s.add_layer("rooms", LayerKind::Room);
        let f = s
            .add_cell(
                lf,
                Cell::new("f0", "Ground floor", CellClass::Floor).on_floor(0),
            )
            .unwrap();
        let a = s
            .add_cell(
                lr,
                Cell::new("room-a", "Room A", CellClass::Room)
                    .on_floor(0)
                    .with_geometry(
                        Polygon::rectangle(Point::new(0.0, 0.0), Point::new(4.0, 4.0)).unwrap(),
                    )
                    .with_attribute("theme", "paintings"),
            )
            .unwrap();
        let b = s
            .add_cell(
                lr,
                Cell::new("room-b", "Room B", CellClass::Hall).on_floor(0),
            )
            .unwrap();
        s.add_transition(a, b, Transition::named(TransitionKind::Door, "door012"))
            .unwrap();
        s.add_transition(b, a, Transition::new(TransitionKind::Door).with_cost(5.0))
            .unwrap();
        s.add_joint(f, a, JointRelation::Covers).unwrap();
        s.add_joint(f, b, JointRelation::Contains).unwrap();
        s
    }

    #[test]
    fn round_trip_preserves_structure() {
        let original = sample_space();
        let text = to_json_string(&original);
        let decoded = from_json_str(&text).unwrap();
        assert_eq!(decoded.stats(), original.stats());
        // Keys, classes, attributes survive.
        let (_, a) = decoded.cell_by_key("room-a").unwrap();
        assert_eq!(a.class, CellClass::Room);
        assert_eq!(a.attribute("theme"), Some("paintings"));
        assert!(a.geometry.is_some());
        assert_eq!(a.floor, Some(0));
        // Transitions survive with payloads.
        let lr = decoded.find_layer(&LayerKind::Room).unwrap();
        let named: Vec<String> = decoded
            .transitions_in(lr)
            .filter_map(|e| e.payload.name.clone())
            .collect();
        assert_eq!(named, vec!["door012".to_string()]);
        let costs: Vec<f64> = decoded
            .transitions_in(lr)
            .map(|e| e.payload.cost_hint)
            .collect();
        assert!(costs.contains(&5.0));
        // Joints survive with relations.
        let rels: Vec<JointRelation> = decoded.joints().map(|j| *j.payload).collect();
        assert!(rels.contains(&JointRelation::Covers));
        assert!(rels.contains(&JointRelation::Contains));
    }

    #[test]
    fn double_round_trip_is_stable() {
        let original = sample_space();
        let text1 = to_json_string(&original);
        let text2 = to_json_string(&from_json_str(&text1).unwrap());
        assert_eq!(text1, text2, "serialization is a fixpoint");
    }

    #[test]
    fn format_marker_is_checked() {
        let err = from_json_str(r#"{"format":"other/9","layers":[]}"#).unwrap_err();
        assert!(matches!(err, IoError::Schema(_)));
    }

    #[test]
    fn missing_fields_are_schema_errors() {
        let err = from_json_str(r#"{"layers":[]}"#).unwrap_err();
        assert!(matches!(err, IoError::Schema(_)));
        let err =
            from_json_str(r#"{"format":"sitm-space/1","layers":[{"name":"x"}]}"#).unwrap_err();
        assert!(matches!(err, IoError::Schema(_)));
    }

    #[test]
    fn bad_json_is_json_error() {
        let err = from_json_str("{not json").unwrap_err();
        assert!(matches!(err, IoError::Json(_)));
    }

    #[test]
    fn unknown_cell_in_transition_is_schema_error() {
        let text = r#"{
            "format": "sitm-space/1",
            "layers": [{
                "name": "rooms", "kind": "room",
                "cells": [{"key":"a","name":"A","class":"room"}],
                "transitions": [{"from":"a","to":"ghost","kind":"door"}]
            }],
            "joints": []
        }"#;
        let err = from_json_str(text).unwrap_err();
        assert!(matches!(err, IoError::Schema(m) if m.contains("ghost")));
    }

    #[test]
    fn invalid_geometry_is_schema_error() {
        let text = r#"{
            "format": "sitm-space/1",
            "layers": [{
                "name": "rooms", "kind": "room",
                "cells": [{"key":"a","name":"A","class":"room",
                           "geometry": [[0,0],[1,0]]}],
                "transitions": []
            }],
            "joints": []
        }"#;
        let err = from_json_str(text).unwrap_err();
        assert!(matches!(err, IoError::Schema(m) if m.contains("invalid geometry")));
    }
}
