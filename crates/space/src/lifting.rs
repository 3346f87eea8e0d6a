//! Granularity lifting through a layer hierarchy.
//!
//! "By only allowing 'proper part' types of relationships, we allow
//! inference of a MO's location at all levels of granularity above the
//! detection data level. [...] It also enables the identification of
//! certain types of movement patterns at the 'room' level for instance, and
//! at the same time of other types of patterns at the 'floor' level, from
//! the same trajectory dataset." (§3.2)
//!
//! [`lift_trace`] maps every tuple's cell to its ancestor in a coarser
//! layer and merges consecutive tuples that land in the same ancestor.

use sitm_core::{PresenceInterval, TimeInterval, Trace};
use sitm_graph::{CellRef, LayerIdx};

use crate::hierarchy::LayerHierarchy;
use crate::model::IndoorSpace;

/// Errors lifting a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiftError {
    /// The trace's layer is not part of the hierarchy.
    SourceNotInHierarchy(LayerIdx),
    /// The target layer is not part of the hierarchy.
    TargetNotInHierarchy(LayerIdx),
    /// The target layer is finer than the source layer: lifting only goes
    /// to coarser granularity (one parent) — descending is one-to-many.
    TargetBelowSource,
    /// A cell has no ancestor at the target layer (orphan in the
    /// hierarchy); carries the offending cell.
    MissingAncestor(CellRef),
}

impl std::fmt::Display for LiftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiftError::SourceNotInHierarchy(l) => {
                write!(f, "trace layer {l} is outside the hierarchy")
            }
            LiftError::TargetNotInHierarchy(l) => {
                write!(f, "target layer {l} is outside the hierarchy")
            }
            LiftError::TargetBelowSource => {
                write!(f, "cannot lift downwards (finer granularity)")
            }
            LiftError::MissingAncestor(c) => {
                write!(f, "cell {c} has no ancestor at the target layer")
            }
        }
    }
}

impl std::error::Error for LiftError {}

/// Lifts a trace to a coarser hierarchy layer.
///
/// Consecutive tuples mapping to the same ancestor merge into one tuple
/// spanning from the first start to the last end; the merged tuple keeps
/// the *first* tuple's transition (the boundary that entered the coarse
/// cell) and unions the per-stay annotations.
pub fn lift_trace(
    space: &IndoorSpace,
    hierarchy: &LayerHierarchy,
    trace: &Trace,
    target: LayerIdx,
) -> Result<Trace, LiftError> {
    let Some(source) = trace.layer() else {
        return Ok(Trace::empty());
    };
    let source_pos = hierarchy
        .position(source)
        .ok_or(LiftError::SourceNotInHierarchy(source))?;
    let target_pos = hierarchy
        .position(target)
        .ok_or(LiftError::TargetNotInHierarchy(target))?;
    if target_pos > source_pos {
        return Err(LiftError::TargetBelowSource);
    }

    let mut lifted: Vec<PresenceInterval> = Vec::new();
    for p in trace.intervals() {
        let ancestor = hierarchy
            .ancestor_at(space, p.cell, target)
            .ok_or(LiftError::MissingAncestor(p.cell))?;
        match lifted.last_mut() {
            Some(last) if last.cell == ancestor => {
                // Merge: extend the stay, union annotations.
                last.time = TimeInterval::new(last.start(), last.end().max(p.end()));
                last.annotations = last.annotations.union(&p.annotations);
            }
            _ => {
                lifted.push(PresenceInterval {
                    transition: p.transition.clone(),
                    cell: ancestor,
                    time: p.time,
                    annotations: p.annotations.clone(),
                    transition_annotations: p.transition_annotations.clone(),
                });
            }
        }
    }
    Ok(Trace::new(lifted).expect("lifting preserves order"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{core_hierarchy, Cell, CellClass, JointRelation, LayerKind};
    use sitm_core::{Annotation, AnnotationKind, AnnotationSet, Timestamp, TransitionTaken};

    /// Building b; floors f0, f1; rooms r0,r1 on f0 and r2 on f1.
    fn building() -> (IndoorSpace, LayerHierarchy) {
        let mut s = IndoorSpace::new();
        let lb = s.add_layer("buildings", LayerKind::Building);
        let lf = s.add_layer("floors", LayerKind::Floor);
        let lr = s.add_layer("rooms", LayerKind::Room);
        let b = s
            .add_cell(lb, Cell::new("b", "B", CellClass::Building))
            .unwrap();
        let f0 = s
            .add_cell(lf, Cell::new("f0", "F0", CellClass::Floor))
            .unwrap();
        let f1 = s
            .add_cell(lf, Cell::new("f1", "F1", CellClass::Floor))
            .unwrap();
        let r0 = s
            .add_cell(lr, Cell::new("r0", "R0", CellClass::Room))
            .unwrap();
        let r1 = s
            .add_cell(lr, Cell::new("r1", "R1", CellClass::Room))
            .unwrap();
        let r2 = s
            .add_cell(lr, Cell::new("r2", "R2", CellClass::Room))
            .unwrap();
        s.add_joint(b, f0, JointRelation::Covers).unwrap();
        s.add_joint(b, f1, JointRelation::Covers).unwrap();
        s.add_joint(f0, r0, JointRelation::Contains).unwrap();
        s.add_joint(f0, r1, JointRelation::Contains).unwrap();
        s.add_joint(f1, r2, JointRelation::Contains).unwrap();
        let h = core_hierarchy(&s).unwrap();
        (s, h)
    }

    fn room_stay(space: &IndoorSpace, key: &str, start: i64, end: i64) -> PresenceInterval {
        PresenceInterval::new(
            TransitionTaken::Named(format!("into-{key}")),
            space.resolve(key).unwrap(),
            Timestamp(start),
            Timestamp(end),
        )
    }

    #[test]
    fn lift_rooms_to_floors_merges_same_floor_stays() {
        let (s, h) = building();
        let lf = s.find_layer(&LayerKind::Floor).unwrap();
        // r0, r1 (both floor 0), then r2 (floor 1): lifts to f0, f1.
        let trace = Trace::new(vec![
            room_stay(&s, "r0", 0, 100),
            room_stay(&s, "r1", 100, 250),
            room_stay(&s, "r2", 300, 400),
        ])
        .unwrap();
        let lifted = lift_trace(&s, &h, &trace, lf).unwrap();
        assert_eq!(lifted.len(), 2);
        let f0 = s.resolve("f0").unwrap();
        let f1 = s.resolve("f1").unwrap();
        assert_eq!(lifted.get(0).unwrap().cell, f0);
        assert_eq!(lifted.get(0).unwrap().start(), Timestamp(0));
        assert_eq!(lifted.get(0).unwrap().end(), Timestamp(250));
        assert_eq!(lifted.get(1).unwrap().cell, f1);
        // Entering transition of the merged stay is the first room's.
        assert_eq!(
            lifted.get(0).unwrap().transition,
            TransitionTaken::Named("into-r0".into())
        );
    }

    #[test]
    fn lift_to_building_merges_everything() {
        let (s, h) = building();
        let lb = s.find_layer(&LayerKind::Building).unwrap();
        let trace = Trace::new(vec![
            room_stay(&s, "r0", 0, 100),
            room_stay(&s, "r2", 100, 200),
            room_stay(&s, "r1", 200, 300),
        ])
        .unwrap();
        let lifted = lift_trace(&s, &h, &trace, lb).unwrap();
        assert_eq!(lifted.len(), 1);
        assert_eq!(lifted.get(0).unwrap().cell, s.resolve("b").unwrap());
        assert_eq!(lifted.get(0).unwrap().duration().as_seconds(), 300);
    }

    #[test]
    fn lift_merges_annotations() {
        let (s, h) = building();
        let lf = s.find_layer(&LayerKind::Floor).unwrap();
        let mut p0 = room_stay(&s, "r0", 0, 100);
        p0.annotations = AnnotationSet::from_iter([Annotation::goal("visit")]);
        let mut p1 = room_stay(&s, "r1", 100, 200);
        p1.annotations = AnnotationSet::from_iter([Annotation::goal("buy")]);
        let trace = Trace::new(vec![p0, p1]).unwrap();
        let lifted = lift_trace(&s, &h, &trace, lf).unwrap();
        assert_eq!(lifted.len(), 1);
        let set = &lifted.get(0).unwrap().annotations;
        assert!(set.has(&AnnotationKind::Goal, "visit"));
        assert!(set.has(&AnnotationKind::Goal, "buy"));
    }

    #[test]
    fn floor_switching_pattern_survives_lifting() {
        // r0(f0) -> r2(f1) -> r1(f0): the floor sequence is f0,f1,f0.
        let (s, h) = building();
        let lf = s.find_layer(&LayerKind::Floor).unwrap();
        let trace = Trace::new(vec![
            room_stay(&s, "r0", 0, 10),
            room_stay(&s, "r2", 10, 20),
            room_stay(&s, "r1", 20, 30),
        ])
        .unwrap();
        let lifted = lift_trace(&s, &h, &trace, lf).unwrap();
        let seq: Vec<&str> = lifted
            .intervals()
            .iter()
            .map(|p| s.cell(p.cell).unwrap().key.as_str())
            .collect();
        assert_eq!(seq, vec!["f0", "f1", "f0"]);
        assert_eq!(lifted.transition_count(), 2, "two floor switches");
    }

    #[test]
    fn identity_lift_is_noop() {
        let (s, h) = building();
        let lr = s.find_layer(&LayerKind::Room).unwrap();
        let trace = Trace::new(vec![room_stay(&s, "r0", 0, 10)]).unwrap();
        let lifted = lift_trace(&s, &h, &trace, lr).unwrap();
        assert_eq!(lifted, trace);
    }

    #[test]
    fn lift_downwards_is_rejected() {
        let (s, h) = building();
        let lr = s.find_layer(&LayerKind::Room).unwrap();
        let f0 = s.resolve("f0").unwrap();
        let trace = Trace::new(vec![PresenceInterval::new(
            TransitionTaken::Unknown,
            f0,
            Timestamp(0),
            Timestamp(10),
        )])
        .unwrap();
        assert_eq!(
            lift_trace(&s, &h, &trace, lr).unwrap_err(),
            LiftError::TargetBelowSource
        );
    }

    #[test]
    fn orphan_cell_fails_lifting() {
        let (mut s, h) = building();
        let lr = s.find_layer(&LayerKind::Room).unwrap();
        let lf = s.find_layer(&LayerKind::Floor).unwrap();
        let lost = s
            .add_cell(lr, Cell::new("lost", "Lost", CellClass::Room))
            .unwrap();
        let trace = Trace::new(vec![PresenceInterval::new(
            TransitionTaken::Unknown,
            lost,
            Timestamp(0),
            Timestamp(10),
        )])
        .unwrap();
        assert_eq!(
            lift_trace(&s, &h, &trace, lf).unwrap_err(),
            LiftError::MissingAncestor(lost)
        );
    }

    #[test]
    fn outside_hierarchy_layers_rejected() {
        let (mut s, h) = building();
        let lf = s.find_layer(&LayerKind::Floor).unwrap();
        let thematic = s.add_layer("zones", LayerKind::Thematic);
        let z = s
            .add_cell(thematic, Cell::new("z", "Zone", CellClass::Zone))
            .unwrap();
        let trace = Trace::new(vec![PresenceInterval::new(
            TransitionTaken::Unknown,
            z,
            Timestamp(0),
            Timestamp(10),
        )])
        .unwrap();
        assert_eq!(
            lift_trace(&s, &h, &trace, lf).unwrap_err(),
            LiftError::SourceNotInHierarchy(thematic)
        );
    }

    #[test]
    fn empty_trace_lifts_to_empty() {
        let (s, h) = building();
        let lf = s.find_layer(&LayerKind::Floor).unwrap();
        let lifted = lift_trace(&s, &h, &Trace::empty(), lf).unwrap();
        assert!(lifted.is_empty());
    }
}
