//! Dataset records, statistics, and conversion into SITM trajectories.

use std::collections::BTreeMap;

use sitm_core::{
    Annotation, AnnotationKind, AnnotationSet, Duration, PresenceInterval, SemanticTrajectory,
    Timestamp, Trace, TransitionTaken,
};

use crate::building::LouvreModel;
use crate::zones::zone_key;

/// App platform, as reported by the dataset ("both the iPhone and Android
/// app versions").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Device {
    /// iOS app.
    Ios,
    /// Android app.
    Android,
}

/// One timestamped zone detection.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneDetectionRecord {
    /// Detected zone id.
    pub zone_id: u32,
    /// Detection start.
    pub start: Timestamp,
    /// Detection end (equal to start for zero-duration errors).
    pub end: Timestamp,
}

impl ZoneDetectionRecord {
    /// Detection duration.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }

    /// True for the ~10% zero-duration detection errors.
    pub fn is_zero_duration(&self) -> bool {
        self.start == self.end
    }
}

/// One visit: a visitor's sequence of zone detections.
#[derive(Debug, Clone, PartialEq)]
pub struct VisitRecord {
    /// Visit identifier (chronological).
    pub visit_id: u32,
    /// Visitor identifier.
    pub visitor_id: u32,
    /// App platform.
    pub device: Device,
    /// Zone detections in chronological order.
    pub detections: Vec<ZoneDetectionRecord>,
}

impl VisitRecord {
    /// Visit duration: first detection start to last detection end.
    pub fn duration(&self) -> Duration {
        match (self.detections.first(), self.detections.last()) {
            (Some(first), Some(last)) => last.end - first.start,
            _ => Duration::ZERO,
        }
    }

    /// Intra-visit transitions: consecutive detection pairs.
    pub fn transition_count(&self) -> usize {
        self.detections.len().saturating_sub(1)
    }
}

/// The synthetic dataset.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    /// Visits in chronological order.
    pub visits: Vec<VisitRecord>,
}

/// Aggregate statistics mirroring §4.1.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Total visits.
    pub visits: usize,
    /// Distinct visitors.
    pub visitors: usize,
    /// Visitors with ≥ 2 visits.
    pub returning_visitors: usize,
    /// Visits beyond each visitor's first.
    pub revisits: usize,
    /// Total zone detections.
    pub detections: usize,
    /// Total intra-visit transitions.
    pub transitions: usize,
    /// Zero-duration detections.
    pub zero_duration_detections: usize,
    /// Zero-duration fraction.
    pub zero_duration_rate: f64,
    /// Distinct zones appearing in the data.
    pub distinct_zones: usize,
    /// Shortest visit.
    pub min_visit_duration: Duration,
    /// Longest visit.
    pub max_visit_duration: Duration,
    /// Longest single detection.
    pub max_detection_duration: Duration,
    /// Mean detections per visit.
    pub mean_detections_per_visit: f64,
}

impl Dataset {
    /// Computes the §4.1 statistics.
    pub fn stats(&self) -> DatasetStats {
        let mut visits_per_visitor: BTreeMap<u32, usize> = BTreeMap::new();
        let mut detections = 0usize;
        let mut transitions = 0usize;
        let mut zero = 0usize;
        let mut zones: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        let mut min_visit = Duration::seconds(i64::MAX);
        let mut max_visit = Duration::ZERO;
        let mut max_detection = Duration::ZERO;

        for v in &self.visits {
            *visits_per_visitor.entry(v.visitor_id).or_insert(0) += 1;
            detections += v.detections.len();
            transitions += v.transition_count();
            let d = v.duration();
            if d < min_visit {
                min_visit = d;
            }
            if d > max_visit {
                max_visit = d;
            }
            for det in &v.detections {
                if det.is_zero_duration() {
                    zero += 1;
                }
                if det.duration() > max_detection {
                    max_detection = det.duration();
                }
                zones.insert(det.zone_id);
            }
        }
        let visitors = visits_per_visitor.len();
        let returning = visits_per_visitor.values().filter(|&&n| n >= 2).count();
        let revisits: usize = visits_per_visitor.values().map(|&n| n - 1).sum();

        DatasetStats {
            visits: self.visits.len(),
            visitors,
            returning_visitors: returning,
            revisits,
            detections,
            transitions,
            zero_duration_detections: zero,
            zero_duration_rate: if detections > 0 {
                zero as f64 / detections as f64
            } else {
                0.0
            },
            distinct_zones: zones.len(),
            min_visit_duration: if self.visits.is_empty() {
                Duration::ZERO
            } else {
                min_visit
            },
            max_visit_duration: max_visit,
            max_detection_duration: max_detection,
            mean_detections_per_visit: if self.visits.is_empty() {
                0.0
            } else {
                detections as f64 / self.visits.len() as f64
            },
        }
    }

    /// Detection counts per zone — the Fig. 3 choropleth series.
    pub fn detections_per_zone(&self) -> BTreeMap<u32, usize> {
        let mut counts = BTreeMap::new();
        for v in &self.visits {
            for d in &v.detections {
                *counts.entry(d.zone_id).or_insert(0) += 1;
            }
        }
        counts
    }

    /// The paper's §5 future work: "it would be of interest to account for
    /// the problem of data sparsity by restructuring longer indicative
    /// visits from the actual fragmented zone sequences."
    ///
    /// Merges consecutive visits of the same visitor that fall on the same
    /// civil day with at most `max_gap` between them (a visitor who closed
    /// and re-opened the app mid-visit). Detections are concatenated in
    /// order; visit ids are re-assigned chronologically.
    pub fn restitch_same_day_visits(&self, max_gap: Duration) -> Dataset {
        use std::collections::BTreeMap;
        let mut per_visitor: BTreeMap<u32, Vec<&VisitRecord>> = BTreeMap::new();
        for v in &self.visits {
            if !v.detections.is_empty() {
                per_visitor.entry(v.visitor_id).or_default().push(v);
            }
        }
        let mut merged: Vec<VisitRecord> = Vec::new();
        for (visitor_id, mut visits) in per_visitor {
            visits.sort_by_key(|v| v.detections[0].start);
            let mut current: Option<VisitRecord> = None;
            for v in visits {
                match current.as_mut() {
                    Some(acc) => {
                        let prev_end = acc.detections.last().expect("non-empty").end;
                        let next_start = v.detections[0].start;
                        let same_day = prev_end.to_ymd_hms().0 == next_start.to_ymd_hms().0
                            && prev_end.to_ymd_hms().1 == next_start.to_ymd_hms().1
                            && prev_end.to_ymd_hms().2 == next_start.to_ymd_hms().2;
                        if same_day && next_start >= prev_end && (next_start - prev_end) <= max_gap
                        {
                            acc.detections.extend(v.detections.iter().cloned());
                        } else {
                            merged.push(current.take().expect("checked"));
                            current = Some(VisitRecord {
                                visitor_id,
                                ..v.clone()
                            });
                        }
                    }
                    None => {
                        current = Some(VisitRecord {
                            visitor_id,
                            ..v.clone()
                        });
                    }
                }
            }
            if let Some(acc) = current {
                merged.push(acc);
            }
        }
        merged.sort_by_key(|v| {
            v.detections
                .first()
                .map(|d| d.start)
                .unwrap_or(Timestamp(0))
        });
        for (i, v) in merged.iter_mut().enumerate() {
            v.visit_id = i as u32;
        }
        Dataset { visits: merged }
    }

    /// Visits of one visitor, in chronological order.
    pub fn visits_of(&self, visitor_id: u32) -> Vec<&VisitRecord> {
        self.visits
            .iter()
            .filter(|v| v.visitor_id == visitor_id)
            .collect()
    }

    /// Converts one visit into an SITM semantic trajectory over the model's
    /// thematic zone layer. Detections become presence intervals; entering
    /// transitions are resolved against the zone NRG when unambiguous.
    pub fn to_trajectory(
        &self,
        model: &LouvreModel,
        visit: &VisitRecord,
    ) -> Option<SemanticTrajectory> {
        let mut intervals = Vec::with_capacity(visit.detections.len());
        let mut prev_cell: Option<sitm_space::CellRef> = None;
        let nrg = model.space.nrg(model.zone_layer)?;
        for det in &visit.detections {
            let cell = model.space.resolve(&zone_key(det.zone_id))?;
            let transition = match prev_cell {
                None => TransitionTaken::Unknown,
                Some(prev) => {
                    let mut edges = nrg.edges_between(prev.node, cell.node);
                    match (edges.next(), edges.next()) {
                        (Some(e), None) => TransitionTaken::Edge {
                            layer: model.zone_layer,
                            edge: e.id,
                        },
                        _ => TransitionTaken::Unknown,
                    }
                }
            };
            intervals.push(PresenceInterval::new(transition, cell, det.start, det.end));
            prev_cell = Some(cell);
        }
        let trace = Trace::new(intervals).ok()?;
        let annotations = AnnotationSet::from_iter([
            Annotation::goal("visit"),
            Annotation::new(
                AnnotationKind::Custom("device".to_string()),
                match visit.device {
                    Device::Ios => "ios",
                    Device::Android => "android",
                },
            ),
        ]);
        SemanticTrajectory::new(
            format!("visitor-{:04}", visit.visitor_id),
            trace,
            annotations,
        )
        .ok()
    }

    /// Every visit [`Dataset::to_trajectory`] converts, keyed by its
    /// `visit_id`, in dataset order. Visits that cannot be converted
    /// (unknown zone, empty detection list) are skipped.
    pub fn visit_trajectories(&self, model: &LouvreModel) -> Vec<(u64, SemanticTrajectory)> {
        self.visits
            .iter()
            .filter_map(|visit| {
                let trajectory = self.to_trajectory(model, visit)?;
                Some((u64::from(visit.visit_id), trajectory))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(zone_id: u32, start: i64, end: i64) -> ZoneDetectionRecord {
        ZoneDetectionRecord {
            zone_id,
            start: Timestamp(start),
            end: Timestamp(end),
        }
    }

    fn small_dataset() -> Dataset {
        Dataset {
            visits: vec![
                VisitRecord {
                    visit_id: 0,
                    visitor_id: 1,
                    device: Device::Ios,
                    detections: vec![
                        det(60886, 0, 100),
                        det(60888, 100, 100),
                        det(60890, 110, 400),
                    ],
                },
                VisitRecord {
                    visit_id: 1,
                    visitor_id: 2,
                    device: Device::Android,
                    detections: vec![det(60886, 1000, 1500)],
                },
                VisitRecord {
                    visit_id: 2,
                    visitor_id: 1,
                    device: Device::Ios,
                    detections: vec![det(60886, 2000, 2600), det(60887, 2600, 5000)],
                },
            ],
        }
    }

    #[test]
    fn stats_account_everything() {
        let stats = small_dataset().stats();
        assert_eq!(stats.visits, 3);
        assert_eq!(stats.visitors, 2);
        assert_eq!(stats.returning_visitors, 1);
        assert_eq!(stats.revisits, 1);
        assert_eq!(stats.detections, 6);
        assert_eq!(stats.transitions, 3, "detections - visits");
        assert_eq!(stats.zero_duration_detections, 1);
        assert!((stats.zero_duration_rate - 1.0 / 6.0).abs() < 1e-9);
        assert_eq!(stats.distinct_zones, 4);
        assert_eq!(stats.min_visit_duration.as_seconds(), 400);
        assert_eq!(stats.max_visit_duration.as_seconds(), 3000);
        assert_eq!(stats.max_detection_duration.as_seconds(), 2400);
        assert_eq!(stats.mean_detections_per_visit, 2.0);
    }

    #[test]
    fn transitions_equal_detections_minus_visits() {
        // The §4.1 identity: 20,245 − 4,945 = 15,300.
        let stats = small_dataset().stats();
        assert_eq!(stats.transitions, stats.detections - stats.visits);
    }

    #[test]
    fn per_zone_counts() {
        let counts = small_dataset().detections_per_zone();
        assert_eq!(counts[&60886], 3);
        assert_eq!(counts[&60888], 1);
        assert_eq!(counts.get(&60891), None);
    }

    #[test]
    fn visits_of_returning_visitor() {
        let ds = small_dataset();
        let visits = ds.visits_of(1);
        assert_eq!(visits.len(), 2);
        assert!(visits[0].detections[0].start < visits[1].detections[0].start);
    }

    #[test]
    fn empty_dataset_stats_are_zero() {
        let stats = Dataset::default().stats();
        assert_eq!(stats.visits, 0);
        assert_eq!(stats.detections, 0);
        assert_eq!(stats.zero_duration_rate, 0.0);
        assert_eq!(stats.mean_detections_per_visit, 0.0);
    }

    #[test]
    fn restitching_merges_same_day_fragments() {
        // Visitor 1's two visits happen 30 minutes apart on the same day —
        // fragments of one physical visit.
        let day = |h: u32, m: u32| Timestamp::from_ymd_hms(2017, 2, 12, h, m, 0);
        let ds = Dataset {
            visits: vec![
                VisitRecord {
                    visit_id: 0,
                    visitor_id: 1,
                    device: Device::Ios,
                    detections: vec![ZoneDetectionRecord {
                        zone_id: 60886,
                        start: day(10, 0),
                        end: day(10, 30),
                    }],
                },
                VisitRecord {
                    visit_id: 1,
                    visitor_id: 1,
                    device: Device::Ios,
                    detections: vec![ZoneDetectionRecord {
                        zone_id: 60888,
                        start: day(11, 0),
                        end: day(11, 20),
                    }],
                },
                // A different day: must stay separate.
                VisitRecord {
                    visit_id: 2,
                    visitor_id: 1,
                    device: Device::Ios,
                    detections: vec![ZoneDetectionRecord {
                        zone_id: 60890,
                        start: Timestamp::from_ymd_hms(2017, 2, 13, 10, 0, 0),
                        end: Timestamp::from_ymd_hms(2017, 2, 13, 10, 5, 0),
                    }],
                },
            ],
        };
        let stitched = ds.restitch_same_day_visits(Duration::hours(1));
        assert_eq!(stitched.visits.len(), 2, "fragments merged, other day kept");
        assert_eq!(stitched.visits[0].detections.len(), 2);
        assert_eq!(
            stitched.visits[0].duration(),
            Duration::hours(1) + Duration::minutes(20)
        );
        // Gap larger than the threshold: no merge.
        let strict = ds.restitch_same_day_visits(Duration::minutes(10));
        assert_eq!(strict.visits.len(), 3);
    }

    #[test]
    fn restitching_preserves_detection_totals() {
        let ds = small_dataset();
        let stitched = ds.restitch_same_day_visits(Duration::hours(2));
        assert_eq!(stitched.stats().detections, ds.stats().detections);
        assert_eq!(stitched.stats().visitors, ds.stats().visitors);
        assert!(stitched.visits.len() <= ds.visits.len());
        // Ids are sequential and chronological after restitching.
        for (i, v) in stitched.visits.iter().enumerate() {
            assert_eq!(v.visit_id, i as u32);
        }
    }

    #[test]
    fn trajectory_conversion_resolves_cells_and_transitions() {
        let model = crate::building::build_louvre();
        let ds = small_dataset();
        let traj = ds.to_trajectory(&model, &ds.visits[0]).unwrap();
        assert_eq!(traj.trace().len(), 3);
        assert_eq!(traj.moving_object, "visitor-0001");
        // First tuple has no entering transition; the hall -> passage edge
        // is unique, so the second is resolved.
        let intervals = traj.trace().intervals();
        assert!(intervals[0].transition.is_unknown());
        assert!(matches!(
            intervals[1].transition,
            TransitionTaken::Edge { .. }
        ));
        // Device annotation carried over.
        assert!(traj
            .annotations()
            .has(&AnnotationKind::Custom("device".to_string()), "ios"));
    }

    #[test]
    fn trajectory_of_unknown_zone_fails_soft() {
        let model = crate::building::build_louvre();
        let ds = Dataset {
            visits: vec![VisitRecord {
                visit_id: 0,
                visitor_id: 9,
                device: Device::Ios,
                detections: vec![det(99999, 0, 10)],
            }],
        };
        assert!(ds.to_trajectory(&model, &ds.visits[0]).is_none());
    }

    #[test]
    fn visit_trajectories_key_each_convertible_visit_by_its_id() {
        let model = crate::building::build_louvre();
        let mut ds = small_dataset();
        ds.visits.push(VisitRecord {
            visit_id: 77,
            visitor_id: 9,
            device: Device::Ios,
            detections: vec![det(99999, 0, 10)],
        });
        let keyed = ds.visit_trajectories(&model);
        let expected: Vec<(u64, SemanticTrajectory)> = ds.visits[..ds.visits.len() - 1]
            .iter()
            .map(|v| (u64::from(v.visit_id), ds.to_trajectory(&model, v).unwrap()))
            .collect();
        assert_eq!(keyed, expected, "the unknown-zone visit is skipped");
    }
}
