//! The reference every served answer is checked against: a naive
//! filter / sort / page over the visits the ledger itself generated.
//!
//! Nothing here consults the library's indexes, executors or
//! predicates; a probe is evaluated on the generated stays directly.
//! Where a sort key ties across a page boundary the server may return
//! any member of the tie, so the check compares the key sequence
//! exactly and the rows by identity (object + start), not by position.

use std::collections::{HashMap, HashSet};

use crate::layers::{self, Request, Row, Stay};
use crate::scenario::{object_name, Visit};

/// One query shape the workloads issue, with what is needed to build
/// the request and to answer it naively.
#[derive(Debug, Clone, PartialEq)]
pub enum Probe {
    /// Federated point query: one moving object, oldest visit first, 10 rows.
    Point { visitor: u32 },
    /// One page of the whole history in start order.
    Walk { offset: u64, limit: u64 },
    /// Longest-dwelling visits that stopped in a cell.
    Cell { cell: usize, limit: u64 },
    /// Visits whose span overlaps a window, in start order.
    Window { start: i64, end: i64, limit: u64 },
    /// Longest-dwelling visits overall.
    TopDwell { limit: u64 },
}

const POINT_LIMIT: u64 = 10;

impl Probe {
    pub fn request(&self) -> Request {
        match *self {
            Probe::Point { visitor } => layers::point_request(&object_name(visitor)),
            Probe::Walk { offset, limit } => layers::walk_request(offset, limit),
            Probe::Cell { cell, limit } => layers::cell_request(cell, limit),
            Probe::Window { start, end, limit } => layers::window_request(start, end, limit),
            Probe::TopDwell { limit } => layers::top_dwell_request(limit),
        }
    }

    fn matches(&self, v: &Known) -> bool {
        match *self {
            Probe::Point { visitor } => v.visitor == visitor,
            Probe::Walk { .. } | Probe::TopDwell { .. } => true,
            Probe::Cell { cell, .. } => v.stays.iter().any(|s| s.0 == cell),
            // Closed intervals overlap when they share an instant.
            Probe::Window { start, end, .. } => v.start() <= end && start <= v.end(),
        }
    }

    /// `(sort key of a visit, ascending, offset, limit)`.
    fn paging(&self) -> (fn(&Known) -> i64, bool, u64, u64) {
        match *self {
            Probe::Point { .. } => (Known::start, true, 0, POINT_LIMIT),
            Probe::Walk { offset, limit } => (Known::start, true, offset, limit),
            Probe::Cell { limit, .. } => (Known::dwell, false, 0, limit),
            Probe::Window { limit, .. } => (Known::start, true, 0, limit),
            Probe::TopDwell { limit } => (Known::dwell, false, 0, limit),
        }
    }

    fn row_key(&self, row: &Row) -> i64 {
        match self {
            Probe::Cell { .. } | Probe::TopDwell { .. } => layers::row_dwell(row),
            _ => layers::row_start(row),
        }
    }
}

/// One visit as the server should know it: the stays sent so far.
#[derive(Debug, Clone)]
struct Known {
    visitor: u32,
    stays: Vec<Stay>,
}

impl Known {
    fn start(&self) -> i64 {
        self.stays[0].1
    }

    fn end(&self) -> i64 {
        self.stays.iter().map(|s| s.2).max().expect("a stay")
    }

    fn dwell(&self) -> i64 {
        self.stays.iter().map(|s| s.2 - s.1).sum()
    }
}

/// Everything the server has been sent, as plain data.
#[derive(Debug, Default)]
pub struct Reference {
    known: Vec<Known>,
    /// `(visitor, start)` → index into `known`; unique because one
    /// visitor's visits never overlap.
    by_identity: HashMap<(u32, i64), usize>,
    /// Rows per visitor, for the cheap count check on timed queries.
    per_visitor: HashMap<u32, u32>,
    /// Visits whose close was not sent: in the live tier only, so
    /// invisible to warehouse-tier probes.
    live: HashSet<usize>,
}

impl Reference {
    /// A closed visit: visible to every probe.
    pub fn add_closed(&mut self, visit: &Visit) {
        self.add(visit.visitor, visit.stays.clone(), false);
    }

    /// A visit whose close was not sent (or not yet): only the first
    /// `stays` stays are known, and only federated probes see it.
    pub fn add_open(&mut self, visit: &Visit, stays: usize) {
        if stays > 0 {
            self.add(visit.visitor, visit.stays[..stays].to_vec(), true);
        }
    }

    fn add(&mut self, visitor: u32, stays: Vec<Stay>, live: bool) {
        let index = self.known.len();
        let previous = self.by_identity.insert((visitor, stays[0].1), index);
        assert!(
            previous.is_none(),
            "two visits of one visitor share a start"
        );
        *self.per_visitor.entry(visitor).or_default() += 1;
        if live {
            self.live.insert(index);
        }
        self.known.push(Known { visitor, stays });
    }

    pub fn len(&self) -> usize {
        self.known.len()
    }

    /// Rows a point query on `visitor` must return.
    pub fn point_rows(&self, visitor: u32) -> usize {
        (self.per_visitor.get(&visitor).copied().unwrap_or(0) as u64).min(POINT_LIMIT) as usize
    }

    /// Checks `answer` against the naive evaluation of `probe`.
    pub fn check(&self, probe: &Probe, answer: &[Row]) -> Result<(), String> {
        let federated = matches!(probe, Probe::Point { .. });
        let (key, ascending, offset, limit) = probe.paging();
        let mut keys: Vec<i64> = self
            .known
            .iter()
            .enumerate()
            .filter(|(i, v)| (federated || !self.live.contains(i)) && probe.matches(v))
            .map(|(_, v)| key(v))
            .collect();
        keys.sort_unstable();
        if !ascending {
            keys.reverse();
        }
        let expected: Vec<i64> = keys
            .into_iter()
            .skip(offset as usize)
            .take(limit as usize)
            .collect();
        let got: Vec<i64> = answer.iter().map(|row| probe.row_key(row)).collect();
        if got != expected {
            return Err(format!(
                "{probe:?}: sort keys differ: got {} rows {:?}…, expected {} rows {:?}…",
                got.len(),
                &got[..got.len().min(4)],
                expected.len(),
                &expected[..expected.len().min(4)]
            ));
        }
        let mut seen = HashSet::new();
        for row in answer {
            let object = layers::row_object(row);
            let visitor: u32 = object
                .strip_prefix("mo-")
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| format!("{probe:?}: unknown object {object}"))?;
            let index = *self
                .by_identity
                .get(&(visitor, layers::row_start(row)))
                .ok_or_else(|| {
                    format!(
                        "{probe:?}: row {object}@{} never sent",
                        layers::row_start(row)
                    )
                })?;
            let known = &self.known[index];
            if !seen.insert(index) {
                return Err(format!("{probe:?}: row {object} returned twice"));
            }
            if !probe.matches(known) || (!federated && self.live.contains(&index)) {
                return Err(format!("{probe:?}: row {object} does not match"));
            }
            if *row != layers::row(object, &known.stays) {
                return Err(format!(
                    "{probe:?}: row {object} differs from what was sent"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::generate;

    fn reference(visits: &[Visit]) -> Reference {
        let mut r = Reference::default();
        visits.iter().for_each(|v| r.add_closed(v));
        r
    }

    /// The naive answer itself, built independently of `check`.
    fn naive(visits: &[Visit], probe: &Probe) -> Vec<Row> {
        let mut hits: Vec<&Visit> = visits
            .iter()
            .filter(|v| match *probe {
                Probe::Point { visitor } => v.visitor == visitor,
                Probe::Cell { cell, .. } => v.visited(cell),
                Probe::Window { start, end, .. } => v.start() <= end && start <= v.end(),
                _ => true,
            })
            .collect();
        let (offset, limit) = match *probe {
            Probe::Walk { offset, limit } => (offset, limit),
            Probe::Point { .. } => (0, 10),
            Probe::Cell { limit, .. } | Probe::Window { limit, .. } | Probe::TopDwell { limit } => {
                (0, limit)
            }
        };
        match probe {
            Probe::Cell { .. } | Probe::TopDwell { .. } => {
                hits.sort_by_key(|v| std::cmp::Reverse(v.dwell()))
            }
            _ => hits.sort_by_key(|v| v.start()),
        }
        hits.into_iter()
            .skip(offset as usize)
            .take(limit as usize)
            .map(Visit::row)
            .collect()
    }

    #[test]
    fn accepts_the_naive_answer_and_rejects_a_wrong_one() {
        let visits = generate(5, 400, 0, 0).visits;
        let r = reference(&visits);
        let probes = [
            Probe::Point {
                visitor: visits[3].visitor,
            },
            Probe::Walk {
                offset: 100,
                limit: 50,
            },
            Probe::Cell { cell: 0, limit: 20 },
            Probe::Window {
                start: visits[100].start(),
                end: visits[100].start() + 900,
                limit: 30,
            },
            Probe::TopDwell { limit: 10 },
        ];
        for probe in &probes {
            let answer = naive(&visits, probe);
            assert!(!answer.is_empty(), "{probe:?} selects something");
            r.check(probe, &answer).unwrap();
            // Dropping a row, or returning one out of order, is caught.
            assert!(r.check(probe, &answer[1..]).is_err());
            if answer.len() > 2 && probe.row_key(&answer[0]) != probe.row_key(&answer[2]) {
                let mut swapped = answer.clone();
                swapped.swap(0, 2);
                assert!(r.check(probe, &swapped).is_err());
            }
        }
        // An absent visitor has no rows.
        r.check(&Probe::Point { visitor: 9_999_999 }, &[]).unwrap();
        assert_eq!(r.point_rows(9_999_999), 0);
    }

    #[test]
    fn ties_at_a_page_boundary_are_either_row() {
        let mut visits = generate(5, 50, 0, 0).visits;
        // Two different visitors starting in the same second.
        let start = visits[10].start();
        let shift = start - visits[11].start();
        for stay in &mut visits[11].stays {
            stay.1 += shift;
            stay.2 += shift;
        }
        let r = reference(&visits);
        let probe = Probe::Walk {
            offset: 0,
            limit: 11,
        };
        let first_ten: Vec<Row> = visits[..10].iter().map(Visit::row).collect();
        for tied in [10, 11] {
            let mut answer = first_ten.clone();
            answer.push(visits[tied].row());
            r.check(&probe, &answer).unwrap();
        }
    }

    #[test]
    fn open_visits_are_seen_by_point_probes_only() {
        let visits = generate(5, 20, 0, 0).visits;
        let mut r = Reference::default();
        r.add_open(&visits[0], 1);
        let prefix = layers::row(&visits[0].object(), &visits[0].stays[..1]);
        r.check(
            &Probe::Point {
                visitor: visits[0].visitor,
            },
            std::slice::from_ref(&prefix),
        )
        .unwrap();
        r.check(
            &Probe::Walk {
                offset: 0,
                limit: 5,
            },
            &[],
        )
        .unwrap();
        assert!(r
            .check(
                &Probe::Walk {
                    offset: 0,
                    limit: 5
                },
                &[prefix]
            )
            .is_err());
    }
}
