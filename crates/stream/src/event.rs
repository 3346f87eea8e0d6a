//! The ingestion vocabulary: events interleaved across concurrent visits.
//!
//! A producer (positioning pipeline, mobile app backend, a replay of
//! finished trajectories through [`trajectory_feed`]) emits a single
//! time-ordered stream of events keyed by visit. Two producer styles
//! are supported and may be mixed:
//!
//! * **fix-level** — raw [`StreamEvent::Fix`]es; the engine coalesces
//!   consecutive same-cell fixes into presence intervals online;
//! * **detection-level** — pre-formed [`StreamEvent::Presence`]
//!   intervals (the shape the Louvre dataset ships in).

use sitm_core::{AnnotationSet, PresenceInterval, SemanticTrajectory, Timestamp};
use sitm_graph::CellRef;

/// Stable identifier of one visit (one trajectory under construction).
///
/// Distinct from a *visitor* id: a returning visitor owns several visits,
/// each its own trajectory (Def. 3.1 couples a trajectory to one
/// `[tstart, tend]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VisitKey(pub u64);

impl std::fmt::Display for VisitKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "visit#{}", self.0)
    }
}

/// One element of the ingestion stream.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// A visit begins: declares the moving object and the trajectory-level
    /// annotation set (`A_traj`, non-empty per Def. 3.1).
    VisitOpened {
        /// The visit.
        visit: VisitKey,
        /// Moving-object identifier (`IDmo`).
        moving_object: String,
        /// Whole-trajectory annotations.
        annotations: AnnotationSet,
        /// Open instant.
        at: Timestamp,
    },
    /// A raw position fix: the visitor is observed inside `cell` at `at`.
    Fix {
        /// The visit.
        visit: VisitKey,
        /// Observed cell.
        cell: CellRef,
        /// Observation instant.
        at: Timestamp,
    },
    /// A completed presence detection (Def. 3.2 tuple).
    Presence {
        /// The visit.
        visit: VisitKey,
        /// The detection, with transition and per-stay annotations.
        interval: PresenceInterval,
    },
    /// The visit ended: flush open state, close remaining runs.
    VisitClosed {
        /// The visit.
        visit: VisitKey,
        /// Close instant.
        at: Timestamp,
    },
}

impl StreamEvent {
    /// The visit this event belongs to.
    pub fn visit(&self) -> VisitKey {
        match self {
            StreamEvent::VisitOpened { visit, .. }
            | StreamEvent::Fix { visit, .. }
            | StreamEvent::Presence { visit, .. }
            | StreamEvent::VisitClosed { visit, .. } => *visit,
        }
    }

    /// The event's timestamp (a presence is stamped by its start).
    pub fn time(&self) -> Timestamp {
        match self {
            StreamEvent::VisitOpened { at, .. } | StreamEvent::VisitClosed { at, .. } => *at,
            StreamEvent::Fix { at, .. } => *at,
            StreamEvent::Presence { interval, .. } => interval.start(),
        }
    }

    /// Ordering rank for same-instant events: opens before observations
    /// before closes, so a sorted feed replays causally.
    pub fn rank(&self) -> u8 {
        match self {
            StreamEvent::VisitOpened { .. } => 0,
            StreamEvent::Fix { .. } | StreamEvent::Presence { .. } => 1,
            StreamEvent::VisitClosed { .. } => 2,
        }
    }
}

/// Sorts a feed into replay order: by time, then causal rank, then visit.
/// The sort is stable, so a producer's per-visit event order survives ties.
pub fn sort_feed(events: &mut [StreamEvent]) {
    events.sort_by_key(|e| (e.time(), e.rank(), e.visit()));
}

/// Finished trajectories, each under its own visit key, replayed as the
/// one feed a live deployment would have seen: per visit an open, a
/// presence per stay and a close, interleaved across visits by
/// [`sort_feed`]. The engine ingests each trajectory's intervals
/// unchanged, so streamed episodes over the feed must equal batch
/// `maximal_episodes` over the trajectories.
pub fn trajectory_feed(trajectories: &[(u64, SemanticTrajectory)]) -> Vec<StreamEvent> {
    let mut events = Vec::new();
    for (key, trajectory) in trajectories {
        let visit = VisitKey(*key);
        events.push(StreamEvent::VisitOpened {
            visit,
            moving_object: trajectory.moving_object.clone(),
            annotations: trajectory.annotations().clone(),
            at: trajectory.start(),
        });
        events.extend(trajectory.trace().intervals().iter().map(|interval| {
            StreamEvent::Presence {
                visit,
                interval: interval.clone(),
            }
        }));
        events.push(StreamEvent::VisitClosed {
            visit,
            at: trajectory.end(),
        });
    }
    sort_feed(&mut events);
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_core::TransitionTaken;
    use sitm_graph::{LayerIdx, NodeId};

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
    }

    #[test]
    fn accessors_cover_all_variants() {
        let v = VisitKey(7);
        let open = StreamEvent::VisitOpened {
            visit: v,
            moving_object: "m".into(),
            annotations: AnnotationSet::new(),
            at: Timestamp(5),
        };
        let fix = StreamEvent::Fix {
            visit: v,
            cell: cell(1),
            at: Timestamp(6),
        };
        let presence = StreamEvent::Presence {
            visit: v,
            interval: PresenceInterval::new(
                TransitionTaken::Unknown,
                cell(2),
                Timestamp(7),
                Timestamp(9),
            ),
        };
        let close = StreamEvent::VisitClosed {
            visit: v,
            at: Timestamp(9),
        };
        assert!([&open, &fix, &presence, &close]
            .iter()
            .all(|e| e.visit() == v));
        assert_eq!(open.time(), Timestamp(5));
        assert_eq!(presence.time(), Timestamp(7));
        assert!(open.rank() < fix.rank() && fix.rank() < close.rank());
        assert_eq!(v.to_string(), "visit#7");
    }

    #[test]
    fn sort_feed_orders_causally_at_ties() {
        let v = VisitKey(1);
        let mut feed = vec![
            StreamEvent::VisitClosed {
                visit: v,
                at: Timestamp(10),
            },
            StreamEvent::Fix {
                visit: v,
                cell: cell(0),
                at: Timestamp(10),
            },
            StreamEvent::VisitOpened {
                visit: v,
                moving_object: "m".into(),
                annotations: AnnotationSet::new(),
                at: Timestamp(10),
            },
        ];
        sort_feed(&mut feed);
        assert!(matches!(feed[0], StreamEvent::VisitOpened { .. }));
        assert!(matches!(feed[1], StreamEvent::Fix { .. }));
        assert!(matches!(feed[2], StreamEvent::VisitClosed { .. }));
    }

    fn trajectory(mo: &str, stays: &[(usize, i64, i64)]) -> SemanticTrajectory {
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
            sitm_core::Trace::new(intervals).unwrap(),
            AnnotationSet::from_iter([sitm_core::Annotation::goal("visit")]),
        )
        .unwrap()
    }

    /// Three overlapping visits, keyed out of order, with ties across
    /// visits (two stays start at 50) and within one (visit 2 has two
    /// stays starting at 50).
    fn keyed() -> Vec<(u64, SemanticTrajectory)> {
        vec![
            (3, trajectory("a", &[(1, 0, 50), (2, 50, 90), (1, 95, 95)])),
            (1, trajectory("b", &[(2, 10, 60)])),
            (2, trajectory("c", &[(1, 50, 50), (3, 50, 200)])),
        ]
    }

    #[test]
    fn trajectory_feed_is_time_ordered_and_complete() {
        let trajectories = keyed();
        let feed = trajectory_feed(&trajectories);
        for pair in feed.windows(2) {
            assert!(
                (pair[0].time(), pair[0].rank(), pair[0].visit())
                    <= (pair[1].time(), pair[1].rank(), pair[1].visit()),
                "feed out of order"
            );
        }
        let count = |wanted: fn(&StreamEvent) -> bool| feed.iter().filter(|e| wanted(e)).count();
        let stays: usize = trajectories.iter().map(|(_, t)| t.trace().len()).sum();
        assert_eq!(count(|e| matches!(e, StreamEvent::Presence { .. })), stays);
        assert_eq!(count(|e| matches!(e, StreamEvent::VisitOpened { .. })), 3);
        assert_eq!(count(|e| matches!(e, StreamEvent::VisitClosed { .. })), 3);
        assert_eq!(feed.len(), 3 + stays + 3);
    }

    #[test]
    fn trajectory_feed_orders_each_visit_open_observe_close() {
        let trajectories = keyed();
        let feed = trajectory_feed(&trajectories);
        for (key, trajectory) in &trajectories {
            let visit = VisitKey(*key);
            let of_visit: Vec<&StreamEvent> = feed.iter().filter(|e| e.visit() == visit).collect();
            let (open, rest) = of_visit.split_first().unwrap();
            let (close, presences) = rest.split_last().unwrap();
            assert_eq!(
                **open,
                StreamEvent::VisitOpened {
                    visit,
                    moving_object: trajectory.moving_object.clone(),
                    annotations: trajectory.annotations().clone(),
                    at: trajectory.start(),
                }
            );
            let intervals: Vec<&PresenceInterval> = presences
                .iter()
                .map(|e| match e {
                    StreamEvent::Presence { interval, .. } => interval,
                    other => panic!("{other:?} between open and close"),
                })
                .collect();
            assert!(intervals.iter().copied().eq(trajectory.trace().intervals()));
            assert_eq!(
                **close,
                StreamEvent::VisitClosed {
                    visit,
                    at: trajectory.end(),
                }
            );
        }
    }

    #[test]
    fn trajectory_feed_does_not_depend_on_the_order_of_its_input() {
        let trajectories = keyed();
        let mut reversed = trajectories.clone();
        reversed.reverse();
        assert_eq!(trajectory_feed(&trajectories), trajectory_feed(&reversed));
    }
}
