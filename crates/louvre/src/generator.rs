//! The calibrated synthetic dataset generator.
//!
//! Substitutes the proprietary "My Visit to the Louvre" dataset, which is
//! not public (`sitm_bench::repro::dataset_stats` prints the generated
//! counts beside §4.1's). The generator hits the §4.1 **counts exactly** (visits,
//! visitors, returning visitors, revisits, detections, transitions) and the
//! **distributions approximately** (~10% zero-duration detections, duration
//! ranges bounded by the paper's maxima, popularity-skewed zone loads).

use std::collections::BTreeMap;

use sitm_core::{Duration, Timestamp};
use sitm_sim::{LogNormal, SimRng};

use crate::calibration::PaperCalibration;
use crate::dataset::{Dataset, Device, VisitRecord, ZoneDetectionRecord};
use crate::profiles::VisitorProfile;
use crate::topology::{sink_zone_ids, zone_edges};
use crate::zones::zone_catalog;
use sitm_space::CellClass;

/// Dwell-time multiplier by zone class: a paid temporary exhibition holds
/// visitors for a long time (the paper's δt1), while corridors, shops on
/// the way out and exit halls are pass-through (δt2) — "we would expect
/// that δt1 ≫ δt2" (§4.2).
fn dwell_factor(class: &CellClass) -> f64 {
    match class {
        CellClass::Exhibition => 3.0,
        CellClass::Shop => 0.8,
        CellClass::Corridor => 0.3,
        CellClass::Entrance => 0.5,
        CellClass::Exit => 0.25,
        _ => 1.0,
    }
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// RNG seed (the repro harness fixes it for stable numbers).
    pub seed: u64,
    /// Targets; defaults to the paper's numbers.
    pub calibration: PaperCalibration,
    /// Mean zone dwell in seconds for the Casual profile.
    pub mean_dwell_seconds: f64,
    /// Dwell standard deviation in seconds.
    pub dwell_std_seconds: f64,
    /// Probability of a tracking gap between consecutive detections.
    pub gap_probability: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            seed: 20_170_119, // the collection start date
            calibration: PaperCalibration::default(),
            mean_dwell_seconds: 330.0,
            dwell_std_seconds: 600.0,
            gap_probability: 0.25,
        }
    }
}

/// Walkable zone graph restricted to dataset-active zones.
struct WalkGraph {
    /// Successors of each active zone (active targets only).
    successors: BTreeMap<u32, Vec<u32>>,
    /// Popularity weight per zone.
    popularity: BTreeMap<u32, f64>,
    /// Dwell multiplier per zone (class-derived).
    dwell: BTreeMap<u32, f64>,
    /// Terminal zones (entered only as a final step).
    sinks: Vec<u32>,
    /// Walk start zone.
    entrance: u32,
}

impl WalkGraph {
    fn build() -> WalkGraph {
        let zones = zone_catalog();
        let active: std::collections::BTreeSet<u32> =
            zones.iter().filter(|z| z.active).map(|z| z.id).collect();
        let mut successors: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for id in &active {
            successors.insert(*id, Vec::new());
        }
        for e in zone_edges() {
            if active.contains(&e.from) && active.contains(&e.to) {
                successors.get_mut(&e.from).expect("seeded").push(e.to);
                if e.bidirectional {
                    successors.get_mut(&e.to).expect("seeded").push(e.from);
                }
            }
        }
        WalkGraph {
            successors,
            popularity: zones.iter().map(|z| (z.id, z.popularity)).collect(),
            dwell: zones
                .iter()
                .map(|z| (z.id, dwell_factor(&z.class)))
                .collect(),
            sinks: sink_zone_ids(),
            entrance: zones
                .iter()
                .find(|z| z.entrance)
                .expect("catalog has an entrance")
                .id,
        }
    }

    fn is_sink(&self, id: u32) -> bool {
        self.sinks.contains(&id)
    }

    /// One popularity-weighted step. `last_step` permits moving into sinks.
    fn step(
        &self,
        from: u32,
        prev: Option<u32>,
        bias: f64,
        last_step: bool,
        rng: &mut SimRng,
    ) -> u32 {
        let candidates: Vec<u32> = self.successors[&from]
            .iter()
            .copied()
            .filter(|id| last_step || !self.is_sink(*id))
            .collect();
        debug_assert!(!candidates.is_empty(), "walk invariant violated at {from}");
        // Avoid immediate backtracking when an alternative exists.
        let filtered: Vec<u32> = match prev {
            Some(p) if candidates.len() > 1 => {
                candidates.iter().copied().filter(|&c| c != p).collect()
            }
            _ => candidates.clone(),
        };
        let pool = if filtered.is_empty() {
            &candidates
        } else {
            &filtered
        };
        let weights: Vec<f64> = pool
            .iter()
            .map(|id| (self.popularity[id].max(0.1)).powf(bias))
            .collect();
        pool[rng.weighted_index(&weights)]
    }
}

/// Generates the calibrated dataset. Deterministic under a fixed seed.
pub fn generate_dataset(config: &GeneratorConfig) -> Dataset {
    let cal = &config.calibration;
    cal.check_consistency().expect("calibration is consistent");
    let mut rng = SimRng::seeded(config.seed);
    let graph = WalkGraph::build();

    // ---- Visitor population with exact visit counts. ---------------------
    // visitor_id -> number of visits.
    let mut visit_counts: Vec<usize> = Vec::with_capacity(cal.visitors);
    visit_counts.extend(std::iter::repeat_n(1, cal.single_visit_visitors()));
    visit_counts.extend(std::iter::repeat_n(2, cal.two_visit_visitors()));
    visit_counts.extend(std::iter::repeat_n(3, cal.three_visit_visitors()));
    rng.shuffle(&mut visit_counts);

    // Flat visit list: (visitor_id, profile, device).
    let profile_weights: Vec<f64> = VisitorProfile::ALL.iter().map(|p| p.weight()).collect();
    let mut visit_meta: Vec<(u32, VisitorProfile, Device)> = Vec::with_capacity(cal.visits);
    for (visitor_idx, &count) in visit_counts.iter().enumerate() {
        let profile = VisitorProfile::ALL[rng.weighted_index(&profile_weights)];
        let device = if rng.chance(0.6) {
            Device::Ios
        } else {
            Device::Android
        };
        for _ in 0..count {
            visit_meta.push((visitor_idx as u32, profile, device));
        }
    }
    assert_eq!(visit_meta.len(), cal.visits);

    // ---- Per-visit detection counts, adjusted to the exact total. --------
    let mean_k = cal.mean_detections_per_visit();
    let mut lengths: Vec<usize> = visit_meta
        .iter()
        .map(|(_, profile, _)| {
            // 1 + geometric, scaled by the profile's length multiplier.
            let target = (mean_k * profile.length_multiplier()).max(1.2);
            let p = (1.0 / target).clamp(0.02, 0.95);
            let u = rng.unit().max(f64::MIN_POSITIVE);
            let k = 1 + (u.ln() / (1.0 - p).ln()).floor() as usize;
            k.min(60)
        })
        .collect();
    let target_total = cal.detections;
    loop {
        let total: usize = lengths.iter().sum();
        match total.cmp(&target_total) {
            std::cmp::Ordering::Equal => break,
            std::cmp::Ordering::Greater => {
                let i = rng.range_usize(0, lengths.len());
                if lengths[i] > 1 {
                    lengths[i] -= 1;
                }
            }
            std::cmp::Ordering::Less => {
                let i = rng.range_usize(0, lengths.len());
                if lengths[i] < 60 {
                    lengths[i] += 1;
                }
            }
        }
    }

    // ---- Walks, timings, error injection. --------------------------------
    let dwell = LogNormal::from_mean_std(config.mean_dwell_seconds, config.dwell_std_seconds);
    let gap_dist = LogNormal::from_mean_std(180.0, 240.0);
    let days = cal.collection_days();
    let mut visits: Vec<VisitRecord> = Vec::with_capacity(cal.visits);

    for (visit_idx, ((visitor_id, profile, device), k)) in
        visit_meta.into_iter().zip(lengths).enumerate()
    {
        // Start instant: museum hours, any collection day.
        let day = rng.range_i64(0, days);
        let start_of_day = cal.collection_start + Duration::seconds(day * 86_400);
        let start =
            start_of_day + Duration::hours(9) + Duration::seconds(rng.range_i64(0, 8 * 3600));

        let mut detections = Vec::with_capacity(k);
        let mut zone = graph.entrance;
        let mut prev: Option<u32> = None;
        let mut t = start;
        let visit_deadline = start + cal.max_visit_duration;
        for step in 0..k {
            // Duration of this detection.
            let duration = if rng.chance(cal.zero_duration_rate) {
                Duration::ZERO
            } else {
                let zone_factor = graph.dwell.get(&zone).copied().unwrap_or(1.0);
                let secs = (dwell.sample(&mut rng) * profile.dwell_multiplier() * zone_factor)
                    .round() as i64;
                Duration::seconds(secs.clamp(1, cal.max_detection_duration.as_seconds()))
            };
            let mut end = t + duration;
            if end > visit_deadline {
                end = visit_deadline;
            }
            let end = end.max(t);
            detections.push(ZoneDetectionRecord {
                zone_id: zone,
                start: t,
                end,
            });
            if step + 1 == k {
                break;
            }
            // Gap before the next detection (sparse app usage).
            t = end;
            if rng.chance(config.gap_probability) {
                let gap = Duration::seconds(gap_dist.sample(&mut rng).round() as i64);
                t = (t + gap).min(visit_deadline);
            }
            let next = graph.step(
                zone,
                prev,
                profile.popularity_bias(),
                step + 2 == k,
                &mut rng,
            );
            prev = Some(zone);
            zone = next;
        }
        visits.push(VisitRecord {
            visit_id: visit_idx as u32,
            visitor_id,
            device,
            detections,
        });
    }

    // Chronological order, re-keyed visit ids.
    visits.sort_by_key(|v| {
        v.detections
            .first()
            .map(|d| d.start)
            .unwrap_or(Timestamp(0))
    });
    for (i, v) in visits.iter_mut().enumerate() {
        v.visit_id = i as u32;
    }
    Dataset { visits }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> GeneratorConfig {
        // A scaled-down calibration that keeps every identity intact:
        // 100 visitors: 60 single, 25 double, 15 triple
        // -> returning = 40, revisits = 25 + 2*15 = 55, visits = 155.
        let mut cal = PaperCalibration {
            visits: 155,
            visitors: 100,
            returning_visitors: 40,
            revisits: 55,
            detections: 700,
            transitions: 700 - 155,
            ..PaperCalibration::default()
        };
        cal.zero_duration_rate = 0.10;
        GeneratorConfig {
            seed: 7,
            calibration: cal,
            ..GeneratorConfig::default()
        }
    }

    #[test]
    fn exact_counts_for_scaled_calibration() {
        let config = small_config();
        let ds = generate_dataset(&config);
        let stats = ds.stats();
        assert_eq!(stats.visits, 155);
        assert_eq!(stats.visitors, 100);
        assert_eq!(stats.returning_visitors, 40);
        assert_eq!(stats.revisits, 55);
        assert_eq!(stats.detections, 700);
        assert_eq!(stats.transitions, 545);
    }

    #[test]
    fn zero_duration_rate_is_approximately_ten_percent() {
        let ds = generate_dataset(&small_config());
        let stats = ds.stats();
        assert!(
            (0.05..0.16).contains(&stats.zero_duration_rate),
            "rate {}",
            stats.zero_duration_rate
        );
    }

    #[test]
    fn durations_respect_paper_maxima() {
        let config = small_config();
        let ds = generate_dataset(&config);
        let stats = ds.stats();
        assert!(stats.max_visit_duration <= config.calibration.max_visit_duration);
        assert!(stats.max_detection_duration <= config.calibration.max_detection_duration);
    }

    #[test]
    fn detections_stay_on_active_zones_and_edges() {
        let ds = generate_dataset(&small_config());
        let zones = zone_catalog();
        let active: std::collections::BTreeSet<u32> =
            zones.iter().filter(|z| z.active).map(|z| z.id).collect();
        // Edge lookup for consecutive pair validation.
        let mut ok_pairs: std::collections::BTreeSet<(u32, u32)> =
            std::collections::BTreeSet::new();
        for e in zone_edges() {
            ok_pairs.insert((e.from, e.to));
            if e.bidirectional {
                ok_pairs.insert((e.to, e.from));
            }
        }
        for v in &ds.visits {
            for d in &v.detections {
                assert!(active.contains(&d.zone_id), "inactive zone {}", d.zone_id);
            }
            for w in v.detections.windows(2) {
                assert!(
                    ok_pairs.contains(&(w[0].zone_id, w[1].zone_id)),
                    "impossible transition {} -> {}",
                    w[0].zone_id,
                    w[1].zone_id
                );
            }
        }
    }

    #[test]
    fn detections_are_chronological_within_visits() {
        let ds = generate_dataset(&small_config());
        for v in &ds.visits {
            for d in &v.detections {
                assert!(d.end >= d.start);
            }
            for w in v.detections.windows(2) {
                assert!(w[1].start >= w[0].end, "detections overlap");
            }
        }
    }

    #[test]
    fn visits_fall_in_the_collection_window() {
        let config = small_config();
        let ds = generate_dataset(&config);
        let cal = &config.calibration;
        for v in &ds.visits {
            let first = v.detections.first().unwrap().start;
            assert!(first >= cal.collection_start);
            assert!(first <= cal.collection_end + Duration::hours(24));
        }
    }

    #[test]
    fn generation_is_deterministic_under_a_seed() {
        let a = generate_dataset(&small_config());
        let b = generate_dataset(&small_config());
        assert_eq!(a, b);
        let mut other = small_config();
        other.seed = 8;
        assert_ne!(generate_dataset(&other), a);
    }

    #[test]
    fn visits_are_sorted_and_ids_sequential() {
        let ds = generate_dataset(&small_config());
        for (i, v) in ds.visits.iter().enumerate() {
            assert_eq!(v.visit_id, i as u32);
        }
        for w in ds.visits.windows(2) {
            let a = w[0].detections.first().unwrap().start;
            let b = w[1].detections.first().unwrap().start;
            assert!(a <= b);
        }
    }

    #[test]
    fn exhibition_dwell_dominates_exit_chain_dwell() {
        // The Fig. 6 expectation: δt1 (temporary exhibition E) ≫ δt2
        // (pass-through shops S).
        let ds = generate_dataset(&small_config());
        let mean_dwell = |zone: u32| {
            let durations: Vec<f64> = ds
                .visits
                .iter()
                .flat_map(|v| &v.detections)
                .filter(|d| d.zone_id == zone && !d.is_zero_duration())
                .map(|d| d.duration().as_secs_f64())
                .collect();
            assert!(!durations.is_empty(), "zone {zone} never visited");
            durations.iter().sum::<f64>() / durations.len() as f64
        };
        let e = mean_dwell(60887);
        let s = mean_dwell(60890);
        assert!(e > 1.5 * s, "E dwell {e:.0}s vs S dwell {s:.0}s");
    }

    #[test]
    fn walk_graph_invariant_holds() {
        let graph = WalkGraph::build();
        for (zone, succ) in &graph.successors {
            if graph.is_sink(*zone) {
                continue;
            }
            assert!(
                succ.iter().any(|s| !graph.is_sink(*s)),
                "zone {zone} has only sink successors"
            );
        }
    }

    #[test]
    fn full_paper_calibration_matches_exactly() {
        let ds = generate_dataset(&GeneratorConfig::default());
        let stats = ds.stats();
        let cal = PaperCalibration::default();
        assert_eq!(stats.visits, cal.visits);
        assert_eq!(stats.visitors, cal.visitors);
        assert_eq!(stats.returning_visitors, cal.returning_visitors);
        assert_eq!(stats.revisits, cal.revisits);
        assert_eq!(stats.detections, cal.detections);
        assert_eq!(stats.transitions, cal.transitions);
        assert_eq!(stats.distinct_zones, 30);
    }
}
