//! Aggregations over trajectory sets: the GROUP BY layer of the engine.
//!
//! These operators turn selected trajectories into the summaries the
//! paper's analytics motivate — per-zone detection counts (the Fig. 3
//! choropleth is exactly [`detection_counts_by_cell`] over the ground
//! floor), dwell-time totals, flow matrices between cells, concurrent
//! occupancy over time, and annotation-keyed grouping (e.g. per-device
//! splits of the Louvre dataset).

use std::collections::BTreeMap;

use sitm_core::{AnnotationKind, Duration, SemanticTrajectory, TimeInterval, Timestamp};
use sitm_graph::CellRef;

use crate::index::{TrajId, TrajectoryDb};

/// Total dwell time per cell (sum of stay durations).
pub fn dwell_by_cell<'a, I>(trajectories: I) -> BTreeMap<CellRef, Duration>
where
    I: IntoIterator<Item = &'a SemanticTrajectory>,
{
    let mut out: BTreeMap<CellRef, Duration> = BTreeMap::new();
    for t in trajectories {
        for stay in t.trace().intervals() {
            let slot = out.entry(stay.cell).or_insert(Duration::ZERO);
            *slot = *slot + stay.duration();
        }
    }
    out
}

/// Number of stays (detections) per cell — the Fig. 3 choropleth series.
pub fn detection_counts_by_cell<'a, I>(trajectories: I) -> BTreeMap<CellRef, usize>
where
    I: IntoIterator<Item = &'a SemanticTrajectory>,
{
    let mut out: BTreeMap<CellRef, usize> = BTreeMap::new();
    for t in trajectories {
        for stay in t.trace().intervals() {
            *out.entry(stay.cell).or_insert(0) += 1;
        }
    }
    out
}

/// Number of distinct trajectories touching each cell.
pub fn trajectory_counts_by_cell<'a, I>(trajectories: I) -> BTreeMap<CellRef, usize>
where
    I: IntoIterator<Item = &'a SemanticTrajectory>,
{
    let mut out: BTreeMap<CellRef, usize> = BTreeMap::new();
    for t in trajectories {
        for cell in t.trace().cells_visited() {
            *out.entry(cell).or_insert(0) += 1;
        }
    }
    out
}

/// Directed cell-to-cell transition counts over the collapsed cell
/// sequences — the paper's "intra-visit zone transitions" as a matrix.
pub fn flow_matrix<'a, I>(trajectories: I) -> BTreeMap<(CellRef, CellRef), usize>
where
    I: IntoIterator<Item = &'a SemanticTrajectory>,
{
    let mut out: BTreeMap<(CellRef, CellRef), usize> = BTreeMap::new();
    for t in trajectories {
        let seq = t.trace().cell_sequence();
        for w in seq.windows(2) {
            *out.entry((w[0], w[1])).or_insert(0) += 1;
        }
    }
    out
}

/// A point of an occupancy time series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancyPoint {
    /// Bucket start.
    pub bucket_start: Timestamp,
    /// Trajectories with at least one stay overlapping the bucket.
    pub concurrent: usize,
}

/// Concurrent-presence time series: for each `bucket`-sized window across
/// the collection's global span, how many trajectories were present.
///
/// Returns an empty series for an empty collection or a non-positive
/// bucket.
pub fn occupancy(db: &TrajectoryDb, bucket: Duration) -> Vec<OccupancyPoint> {
    if db.is_empty() || bucket.as_seconds() <= 0 {
        return Vec::new();
    }
    let global_start = db
        .iter()
        .map(|t| t.start())
        .min()
        .expect("non-empty collection");
    let global_end = db
        .iter()
        .map(|t| t.end())
        .max()
        .expect("non-empty collection");
    let mut out = Vec::new();
    let mut cursor = global_start;
    while cursor <= global_end {
        // Windows are half-open by construction (the next bucket starts at
        // end+1s) so each instant is counted once.
        let window_end = Timestamp(
            (cursor + bucket)
                .as_seconds()
                .saturating_sub(1)
                .max(cursor.as_seconds()),
        );
        let window = TimeInterval::new(cursor, window_end.min(global_end));
        out.push(OccupancyPoint {
            bucket_start: cursor,
            concurrent: db.spans_overlapping(window).len(),
        });
        cursor = cursor + bucket;
    }
    out
}

/// Groups trajectory ids by the value of a whole-trajectory annotation
/// kind (e.g. `Custom("device")` → `{"ios": [...], "android": [...]}`).
/// Trajectories without that kind are omitted; a trajectory with several
/// values of the kind appears in each group.
pub fn group_by_annotation(
    db: &TrajectoryDb,
    kind: &AnnotationKind,
) -> BTreeMap<String, Vec<TrajId>> {
    let mut out: BTreeMap<String, Vec<TrajId>> = BTreeMap::new();
    for (i, t) in db.iter().enumerate() {
        for value in t.annotations().values_of(kind) {
            out.entry(value.to_string()).or_default().push(i as TrajId);
        }
    }
    out
}

/// The `k` cells with the largest values, ties broken by cell order.
pub fn top_k<V: Copy + Ord>(map: &BTreeMap<CellRef, V>, k: usize) -> Vec<(CellRef, V)> {
    let mut items: Vec<(CellRef, V)> = map.iter().map(|(&c, &v)| (c, v)).collect();
    items.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    items.truncate(k);
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_core::{Annotation, AnnotationSet, PresenceInterval, Trace, TransitionTaken};
    use sitm_graph::{LayerIdx, NodeId};

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
    }

    fn traj(mo: &str, stays: &[(usize, i64, i64)], device: &str) -> SemanticTrajectory {
        let intervals = stays
            .iter()
            .map(|&(c, s, e)| {
                PresenceInterval::new(
                    TransitionTaken::Unknown,
                    cell(c),
                    Timestamp(s),
                    Timestamp(e),
                )
            })
            .collect();
        SemanticTrajectory::new(
            mo,
            Trace::new(intervals).unwrap(),
            AnnotationSet::from_iter([
                Annotation::goal("visit"),
                Annotation::new(AnnotationKind::Custom("device".into()), device),
            ]),
        )
        .unwrap()
    }

    fn sample() -> Vec<SemanticTrajectory> {
        vec![
            traj("a", &[(0, 0, 10), (1, 10, 30)], "ios"),
            traj("b", &[(1, 0, 40), (0, 40, 45), (1, 45, 50)], "android"),
            traj("c", &[(2, 100, 160)], "ios"),
        ]
    }

    #[test]
    fn dwell_sums_stays() {
        let ts = sample();
        let dwell = dwell_by_cell(&ts);
        assert_eq!(dwell[&cell(0)], Duration::seconds(15));
        assert_eq!(dwell[&cell(1)], Duration::seconds(65));
        assert_eq!(dwell[&cell(2)], Duration::seconds(60));
    }

    #[test]
    fn detection_vs_trajectory_counts() {
        let ts = sample();
        let det = detection_counts_by_cell(&ts);
        assert_eq!(det[&cell(1)], 3, "three stays in cell 1");
        let trj = trajectory_counts_by_cell(&ts);
        assert_eq!(trj[&cell(1)], 2, "two distinct trajectories in cell 1");
        assert_eq!(trj[&cell(2)], 1);
    }

    #[test]
    fn flow_matrix_counts_directed_transitions() {
        let ts = sample();
        let flows = flow_matrix(&ts);
        assert_eq!(flows[&(cell(0), cell(1))], 2, "a: 0→1 and b: 0→1");
        assert_eq!(flows[&(cell(1), cell(0))], 1, "b: 1→0");
        assert!(!flows.contains_key(&(cell(1), cell(2))));
    }

    #[test]
    fn occupancy_series_covers_span() {
        let db = TrajectoryDb::build(sample());
        let series = occupancy(&db, Duration::seconds(50));
        // Global span [0, 160] → buckets at 0, 50, 100, 150.
        assert_eq!(series.len(), 4);
        assert_eq!(series[0].concurrent, 2, "a and b live in [0,49]");
        assert_eq!(series[1].concurrent, 1, "only b reaches 50");
        assert_eq!(series[2].concurrent, 1, "c spans [100,160]");
        assert_eq!(series[3].concurrent, 1);
    }

    #[test]
    fn occupancy_degenerate_inputs() {
        let empty = TrajectoryDb::build(vec![]);
        assert!(occupancy(&empty, Duration::seconds(10)).is_empty());
        let db = TrajectoryDb::build(sample());
        assert!(occupancy(&db, Duration::ZERO).is_empty());
    }

    #[test]
    fn grouping_by_device() {
        let db = TrajectoryDb::build(sample());
        let groups = group_by_annotation(&db, &AnnotationKind::Custom("device".into()));
        assert_eq!(groups["ios"], vec![0, 2]);
        assert_eq!(groups["android"], vec![1]);
        // Absent kinds produce no groups.
        assert!(group_by_annotation(&db, &AnnotationKind::Activity).is_empty());
    }

    #[test]
    fn top_k_orders_by_value_then_cell() {
        let ts = sample();
        let det = detection_counts_by_cell(&ts);
        let top = top_k(&det, 2);
        assert_eq!(top[0].0, cell(1));
        assert_eq!(top[0].1, 3);
        assert_eq!(top.len(), 2);
        assert!(top_k(&det, 0).is_empty());
        assert_eq!(top_k(&det, 99).len(), 3);
    }
}
