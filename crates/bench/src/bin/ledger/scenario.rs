//! The seeded scenario driver: a synthetic museum day.
//!
//! A zoned population in the spirit of SenseWalk (PAPERS.md): visits
//! arrive as a Poisson process over a 10-hour day with a 5× opening
//! rush, walk 1 + log-normal(mean 8, cap 64) stays over Zipf(1.1)-hot
//! cells with log-normal dwell, half of them leave through the exit
//! chain, and one evacuation closes every open visit within 2 minutes.
//! About a fifth of the visits belong to returning moving objects. The
//! same seed gives the same visits, byte for byte (`fingerprint`).

use crate::layers::{self, Event, LogNormal, Row, SimRng, Stay, Zipf};

/// The seed `BENCHMARK.json`'s recorded fingerprints were taken under
/// (EDBT 2019 opened on 2019-03-26).
pub const DEFAULT_SEED: u64 = 20_190_326;
/// 2019-03-26 09:00:00 UTC, the museum's opening time.
pub const DAY_START: i64 = 1_553_590_800;
/// Opening hours, seconds.
pub const DAY_SECONDS: i64 = 10 * 3600;
/// The opening rush: the first hour sees 5× the later arrival rate.
const RUSH_SECONDS: f64 = 3600.0;
const RUSH_FACTOR: f64 = 5.0;
/// The evacuation starts 7 hours in; every visit open then closes
/// within `EVACUATION_WINDOW` seconds.
pub const EVACUATION_AT: i64 = DAY_START + 7 * 3600;
const EVACUATION_WINDOW: i64 = 120;
/// Share of visits that try to reuse an earlier visitor (one who has
/// already left; otherwise the visit gets a new visitor).
const RETURNING_SHARE: f64 = 0.2;
/// Share of undisturbed visits that leave through the exit chain.
const EXIT_SHARE: f64 = 0.5;
const MAX_STAYS: f64 = 64.0;

/// One generated visit: a moving object's stays between open and close.
#[derive(Debug, Clone, PartialEq)]
pub struct Visit {
    pub key: u64,
    pub visitor: u32,
    pub stays: Vec<Stay>,
}

impl Visit {
    pub fn object(&self) -> String {
        object_name(self.visitor)
    }

    /// Start of the first stay (also the open instant).
    pub fn start(&self) -> i64 {
        self.stays[0].1
    }

    /// Latest stay end (also the close instant).
    pub fn end(&self) -> i64 {
        self.stays.iter().map(|s| s.2).max().expect("a stay")
    }

    #[cfg(test)]
    pub fn dwell(&self) -> i64 {
        self.stays.iter().map(|s| s.2 - s.1).sum()
    }

    #[cfg(test)]
    pub fn visited(&self, cell: usize) -> bool {
        self.stays.iter().any(|s| s.0 == cell)
    }

    /// Open, one presence per stay, close.
    #[cfg(test)]
    pub fn events(&self) -> Vec<Event> {
        let mut events = self.open_events(self.stays.len());
        events.push(layers::closed(self.key, self.end()));
        events
    }

    /// Open and the first `stays` presences, the close withheld (a
    /// visit left open in the live tier).
    pub fn open_events(&self, stays: usize) -> Vec<Event> {
        let mut events = Vec::with_capacity(stays + 2);
        events.push(layers::opened(self.key, &self.object(), self.start()));
        events.extend(
            self.stays[..stays]
                .iter()
                .map(|&s| layers::presence(self.key, s)),
        );
        events
    }

    /// The trajectory this visit is once closed.
    pub fn row(&self) -> Row {
        layers::row(&self.object(), &self.stays)
    }
}

pub fn object_name(visitor: u32) -> String {
    format!("mo-{visitor:07}")
}

/// A generated population of visits, in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub visits: Vec<Visit>,
    /// Distinct visitors; ids are `0..visitors`.
    pub visitors: u32,
}

/// Maps a uniform draw to an arrival offset under the piecewise
/// constant intensity (rush, then the rest of the day).
fn arrival_offset(u: f64) -> f64 {
    let day = DAY_SECONDS as f64;
    let rush_mass = RUSH_FACTOR * RUSH_SECONDS;
    let total = rush_mass + (day - RUSH_SECONDS);
    let mass = u * total;
    if mass < rush_mass {
        mass / RUSH_FACTOR
    } else {
        RUSH_SECONDS + (mass - rush_mass)
    }
}

/// Generates `visits` visits with keys `first_key..` and visitor ids
/// `first_visitor..` (so two scenarios of one run never collide).
pub fn generate(seed: u64, visits: usize, first_key: u64, first_visitor: u32) -> Scenario {
    let mut rng = SimRng::seeded(seed);
    let stay_count = LogNormal::from_mean_std(8.0, 6.0);
    let dwell = LogNormal::from_mean_std(240.0, 300.0);
    // The exit chain's cells are only ever walked as the chain.
    let hot_cells = Zipf::new(layers::CELLS - layers::EXIT_CHAIN.len(), 1.1);

    // Conditional on their number, Poisson arrivals are sorted uniforms
    // (here pushed through the inverse of the intensity's integral).
    let mut arrivals: Vec<i64> = (0..visits)
        .map(|_| DAY_START + arrival_offset(rng.unit()) as i64)
        .collect();
    arrivals.sort_unstable();

    let mut out = Vec::with_capacity(visits);
    // (visitor, instant their latest visit closed)
    let mut left: Vec<i64> = Vec::new();
    for (i, &opened) in arrivals.iter().enumerate() {
        let n = 1 + stay_count.sample(&mut rng).round().min(MAX_STAYS) as usize;
        let mut stays: Vec<Stay> = Vec::with_capacity(n + layers::EXIT_CHAIN.len());
        let mut at = opened;
        for _ in 0..n {
            let cell = hot_cells.sample(&mut rng) - 1;
            let end = at + (dwell.sample(&mut rng) as i64).max(1);
            stays.push((cell, at, end));
            at = end + rng.range_i64(5, 60);
        }
        if rng.chance(EXIT_SHARE) {
            for cell in layers::EXIT_CHAIN {
                let end = at + rng.range_i64(20, 90);
                stays.push((cell, at, end));
                at = end + rng.range_i64(5, 60);
            }
        }
        if opened < EVACUATION_AT {
            let cut = EVACUATION_AT + rng.range_i64(1, EVACUATION_WINDOW);
            stays.retain(|s| s.1 < cut);
            if let Some(last) = stays.last_mut() {
                last.2 = last.2.min(cut);
            }
        }
        let end = stays.iter().map(|s| s.2).max().expect("first stay kept");
        let visitor = if !left.is_empty() && rng.chance(RETURNING_SHARE) {
            let candidate = rng.range_usize(0, left.len());
            (left[candidate] < opened).then_some(candidate)
        } else {
            None
        };
        let visitor = match visitor {
            Some(v) => {
                left[v] = end;
                v
            }
            None => {
                left.push(end);
                left.len() - 1
            }
        };
        out.push(Visit {
            key: first_key + i as u64,
            visitor: first_visitor + visitor as u32,
            stays,
        });
    }
    Scenario {
        visits: out,
        visitors: left.len() as u32,
    }
}

/// One event of a feed, by reference into the visits it was built
/// from: `stay` is the presence's index, or unused for open/close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tag {
    pub time: i64,
    /// 0 open, 1 presence, 2 close: same-instant events replay causally.
    pub rank: u8,
    /// Index into the visits slice.
    pub visit: u32,
    pub stay: u32,
}

/// Every visit's events merged into replay order: by time, then
/// open < presence < close, then visit (the library's `sort_feed`
/// order; a presence is stamped by its start).
pub fn feed(visits: &[Visit]) -> Vec<Tag> {
    let mut tags = Vec::with_capacity(visits.iter().map(|v| v.stays.len() + 2).sum());
    for (i, v) in visits.iter().enumerate() {
        let visit = i as u32;
        tags.push(Tag {
            time: v.start(),
            rank: 0,
            visit,
            stay: 0,
        });
        tags.extend(v.stays.iter().enumerate().map(|(j, s)| Tag {
            time: s.1,
            rank: 1,
            visit,
            stay: j as u32,
        }));
        tags.push(Tag {
            time: v.end(),
            rank: 2,
            visit,
            stay: 0,
        });
    }
    tags.sort_by_key(|t| (t.time, t.rank, t.visit));
    tags
}

pub fn event(visits: &[Visit], tag: Tag) -> Event {
    let v = &visits[tag.visit as usize];
    match tag.rank {
        0 => layers::opened(v.key, &v.object(), tag.time),
        1 => layers::presence(v.key, v.stays[tag.stay as usize]),
        _ => layers::closed(v.key, tag.time),
    }
}

/// CRC-32 over the generated visits (keys, visitors, stays as
/// little-endian integers): the identity of a workload's input,
/// independent of any library codec.
pub fn fingerprint(visits: &[Visit]) -> u32 {
    let mut buf = Vec::with_capacity(visits.len() * 256);
    for v in visits {
        buf.extend_from_slice(&v.key.to_le_bytes());
        buf.extend_from_slice(&v.visitor.to_le_bytes());
        buf.extend_from_slice(&(v.stays.len() as u32).to_le_bytes());
        for &(cell, start, end) in &v.stays {
            buf.extend_from_slice(&(cell as u32).to_le_bytes());
            buf.extend_from_slice(&start.to_le_bytes());
            buf.extend_from_slice(&end.to_le_bytes());
        }
    }
    layers::crc32(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fingerprint_other_seed_another() {
        let a = fingerprint(&generate(DEFAULT_SEED, 300, 0, 0).visits);
        let b = fingerprint(&generate(DEFAULT_SEED, 300, 0, 0).visits);
        let c = fingerprint(&generate(DEFAULT_SEED + 1, 300, 0, 0).visits);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn visits_are_well_formed() {
        let scenario = generate(7, 2_000, 100, 50);
        assert_eq!(scenario.visits.len(), 2_000);
        let mut last_close = std::collections::HashMap::new();
        for (i, v) in scenario.visits.iter().enumerate() {
            assert_eq!(v.key, 100 + i as u64);
            assert!(v.visitor >= 50 && v.visitor < 50 + scenario.visitors);
            assert!(!v.stays.is_empty() && v.stays.len() <= 1 + 64 + 3);
            assert!(v.stays.iter().all(|s| s.2 > s.1 && s.0 < layers::CELLS));
            assert!(v.stays.windows(2).all(|w| w[1].1 > w[0].2));
            assert!(v.start() >= DAY_START && v.start() < DAY_START + DAY_SECONDS);
            // A returning visitor's visits never overlap.
            if let Some(previous) = last_close.insert(v.visitor, v.end()) {
                assert!(previous < v.start());
            }
        }
    }

    #[test]
    fn rush_and_evacuation_shape_the_day() {
        let scenario = generate(11, 5_000, 0, 0);
        let rush = scenario
            .visits
            .iter()
            .filter(|v| v.start() < DAY_START + 3600)
            .count();
        // 5 of 14 intensity-hours fall in the first hour.
        assert!((1_500..2_100).contains(&rush), "rush arrivals: {rush}");
        // Nobody who was inside at the evacuation is still inside 2 minutes on.
        assert!(scenario
            .visits
            .iter()
            .filter(|v| v.start() < EVACUATION_AT)
            .all(|v| v.end() <= EVACUATION_AT + 120));
        let returning = scenario.visits.len() - scenario.visitors as usize;
        assert!((500..1_100).contains(&returning), "returning: {returning}");
    }

    #[test]
    fn feed_replays_causally() {
        let scenario = generate(3, 200, 0, 0);
        let tags = feed(&scenario.visits);
        let total: usize = scenario.visits.iter().map(|v| v.stays.len() + 2).sum();
        assert_eq!(tags.len(), total);
        assert!(tags.windows(2).all(|w| w[0].time <= w[1].time));
        // Per visit: open, then its presences in order, then close.
        let mut next = vec![0u32; scenario.visits.len()];
        for tag in &tags {
            let stays = scenario.visits[tag.visit as usize].stays.len() as u32;
            let at = &mut next[tag.visit as usize];
            match tag.rank {
                0 => assert_eq!(*at, 0),
                1 => assert_eq!(*at, tag.stay + 1),
                _ => assert_eq!(*at, stays + 1),
            }
            *at += 1;
        }
        // The same order the library's own replay sort gives.
        let mut events: Vec<Event> = scenario.visits.iter().flat_map(Visit::events).collect();
        layers::sort_feed(&mut events);
        let ours: Vec<Event> = tags.iter().map(|&t| event(&scenario.visits, t)).collect();
        assert_eq!(events, ours);
    }
}
