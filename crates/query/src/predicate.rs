//! A composable predicate algebra over semantic trajectories.
//!
//! The paper positions the SITM as the substrate for "mining and analysis
//! applications using both statistical and reasoning approaches" (§3).
//! Those applications select trajectories by *where* they went, *when*
//! they were live, and *what* semantics they carry — the three fundamental
//! sets of \[22\]/\[4,5\] the paper builds on. [`Predicate`] closes those
//! selections under boolean combination, and doubles as the episode
//! predicate language of Def. 3.4 when applied to subtrajectories.

use std::fmt;

use sitm_core::{Annotation, AnnotationSet, Duration, SemanticTrajectory, TimeInterval};
use sitm_space::CellRef;

use crate::index::CandidateSet;

/// What a predicate can conclude from an episode *delta* — the
/// attributes an emitted episode carries (moving object, its own
/// annotation set, its time span) without the parent trajectory's
/// intervals. The third value makes negation sound: a clause the delta
/// cannot decide stays [`DeltaVerdict::Unknown`] under `Not` instead of
/// flipping a guess.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaVerdict {
    /// The delta alone proves the predicate holds.
    Match,
    /// The delta alone proves the predicate cannot hold.
    NoMatch,
    /// The delta cannot decide (the clause needs the full trajectory).
    Unknown,
}

impl DeltaVerdict {
    fn not(self) -> DeltaVerdict {
        match self {
            DeltaVerdict::Match => DeltaVerdict::NoMatch,
            DeltaVerdict::NoMatch => DeltaVerdict::Match,
            DeltaVerdict::Unknown => DeltaVerdict::Unknown,
        }
    }
}

/// A boolean predicate over a [`SemanticTrajectory`].
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true: the neutral element of [`Predicate::And`].
    True,
    /// The trajectory has at least one stay in the cell ("where").
    VisitedCell(CellRef),
    /// The trajectory visits the cells as a contiguous run of its
    /// (consecutive-duplicate-collapsed) cell sequence — e.g. the Fig. 5
    /// E→P→S→C exit path.
    SequenceContains(Vec<CellRef>),
    /// The trajectory span `[tstart, tend]` shares an instant with the
    /// window ("when").
    SpanOverlaps(TimeInterval),
    /// Some stay in the given cell overlaps the window (e.g. "was in the
    /// Salle des États between 14:00 and 15:00").
    StayOverlaps(CellRef, TimeInterval),
    /// `A_traj` contains the annotation ("what", Def. 3.1).
    HasTrajAnnotation(Annotation),
    /// Some per-stay set `A_i` contains the annotation (Def. 3.2).
    HasStayAnnotation(Annotation),
    /// Total dwell time (sum of stay durations) is at least the bound.
    MinTotalDwell(Duration),
    /// Some single stay in the cell lasts at least the bound — the
    /// stop-detection criterion of Alvares et al. \[3\] transposed to
    /// symbolic cells.
    MinStayIn(CellRef, Duration),
    /// The moving-object identifier equals the string.
    MovingObject(String),
    /// Logical negation.
    Not(Box<Predicate>),
    /// Conjunction (empty = true).
    And(Vec<Predicate>),
    /// Disjunction (empty = false).
    Or(Vec<Predicate>),
}

impl Predicate {
    /// Evaluates the predicate against a trajectory.
    pub fn matches(&self, t: &SemanticTrajectory) -> bool {
        match self {
            Predicate::True => true,
            Predicate::VisitedCell(cell) => t.trace().intervals().iter().any(|p| p.cell == *cell),
            Predicate::SequenceContains(cells) => {
                if cells.is_empty() {
                    return true;
                }
                let seq = t.trace().cell_sequence();
                seq.windows(cells.len()).any(|w| w == cells.as_slice())
            }
            Predicate::SpanOverlaps(window) => t.span().overlaps(*window),
            Predicate::StayOverlaps(cell, window) => t
                .trace()
                .intervals()
                .iter()
                .any(|p| p.cell == *cell && p.time.overlaps(*window)),
            Predicate::HasTrajAnnotation(a) => t.annotations().contains(a),
            Predicate::HasStayAnnotation(a) => t
                .trace()
                .intervals()
                .iter()
                .any(|p| p.annotations.contains(a)),
            Predicate::MinTotalDwell(bound) => t.trace().dwell_total() >= *bound,
            Predicate::MinStayIn(cell, bound) => t
                .trace()
                .intervals()
                .iter()
                .any(|p| p.cell == *cell && p.duration() >= *bound),
            Predicate::MovingObject(id) => t.moving_object == *id,
            Predicate::Not(inner) => !inner.matches(t),
            Predicate::And(parts) => parts.iter().all(|p| p.matches(t)),
            Predicate::Or(parts) => parts.iter().any(|p| p.matches(t)),
        }
    }

    /// Evaluates the predicate against an episode **delta**: the
    /// moving object, the episode's own annotation set (`A'_traj`), and
    /// its time span — what a streaming engine's drained episode
    /// carries without the parent trajectory. Three-valued: clauses the
    /// delta cannot decide (cell membership, stay-level tests, dwell
    /// sums) come back [`DeltaVerdict::Unknown`], and the combinators
    /// propagate unknowns Kleene-style so `Not`/`And`/`Or` stay sound.
    ///
    /// This is the standing-query filter for push subscriptions: a
    /// subscriber is handed every episode whose verdict is *not*
    /// [`DeltaVerdict::NoMatch`] — a sound superset, exactly the
    /// candidates-then-recheck contract the pull-side indexes use.
    pub fn eval_delta(
        &self,
        moving_object: &str,
        annotations: &AnnotationSet,
        span: TimeInterval,
    ) -> DeltaVerdict {
        use DeltaVerdict::{Match, NoMatch, Unknown};
        match self {
            Predicate::True => Match,
            // The episode's span is exact: its stays all lie inside it,
            // so a disjoint window can never match — and an overlapping
            // window provably does (the span is covered by stays
            // end-to-end per the episode construction).
            Predicate::SpanOverlaps(window) => {
                if span.overlaps(*window) {
                    Match
                } else {
                    NoMatch
                }
            }
            Predicate::MovingObject(id) => {
                if moving_object == id {
                    Match
                } else {
                    NoMatch
                }
            }
            // The episode annotation set is `A'_traj`, not the parent's
            // `A_traj`: containment here proves nothing either way
            // beyond presence in the episode itself, except that the
            // subscription notion of "this episode is about ⟨a⟩" is the
            // episode's own set — treat presence as a match and absence
            // as undecidable (the parent may still carry it).
            Predicate::HasTrajAnnotation(a) | Predicate::HasStayAnnotation(a) => {
                if annotations.contains(a) {
                    Match
                } else {
                    Unknown
                }
            }
            // Everything interval-shaped needs the parent trace.
            Predicate::VisitedCell(_)
            | Predicate::SequenceContains(_)
            | Predicate::StayOverlaps(_, _)
            | Predicate::MinTotalDwell(_)
            | Predicate::MinStayIn(_, _) => Unknown,
            Predicate::Not(inner) => inner.eval_delta(moving_object, annotations, span).not(),
            Predicate::And(parts) => {
                let mut verdict = Match;
                for p in parts {
                    match p.eval_delta(moving_object, annotations, span) {
                        NoMatch => return NoMatch,
                        Unknown => verdict = Unknown,
                        Match => {}
                    }
                }
                verdict
            }
            Predicate::Or(parts) => {
                let mut verdict = NoMatch;
                for p in parts {
                    match p.eval_delta(moving_object, annotations, span) {
                        Match => return Match,
                        Unknown => verdict = Unknown,
                        NoMatch => {}
                    }
                }
                verdict
            }
        }
    }

    /// True unless the episode delta *disproves* the predicate — the
    /// sound-superset filter push subscriptions deliver through (see
    /// [`Predicate::eval_delta`]).
    pub fn delta_may_match(
        &self,
        moving_object: &str,
        annotations: &AnnotationSet,
        span: TimeInterval,
    ) -> bool {
        self.eval_delta(moving_object, annotations, span) != DeltaVerdict::NoMatch
    }

    /// The boolean walk every index consultation shares: folds the
    /// candidate sets `leaf` answers for the non-boolean nodes into one
    /// for the whole predicate. `And` intersects from
    /// [`CandidateSet::All`]; `Or` unions and stops at the first `All`
    /// (an empty `Or` matches nothing, so it narrows to no candidates);
    /// `Not` and `True` cannot narrow and are `All` without asking.
    /// Sound whenever every `leaf` answer is a superset of that leaf's
    /// matches.
    pub fn narrow(&self, leaf: &mut dyn FnMut(&Predicate) -> CandidateSet) -> CandidateSet {
        match self {
            Predicate::True | Predicate::Not(_) => CandidateSet::All,
            Predicate::And(parts) => parts
                .iter()
                .fold(CandidateSet::All, |acc, q| acc.intersect(q.narrow(leaf))),
            Predicate::Or(parts) => {
                let mut acc = CandidateSet::Ids(Vec::new());
                for q in parts {
                    acc = acc.union(q.narrow(leaf));
                    if acc == CandidateSet::All {
                        break;
                    }
                }
                acc
            }
            p => leaf(p),
        }
    }

    /// `self AND other`, flattening nested conjunctions.
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (Predicate::And(mut a), Predicate::And(b)) => {
                a.extend(b);
                Predicate::And(a)
            }
            (Predicate::And(mut a), p) => {
                a.push(p);
                Predicate::And(a)
            }
            (p, Predicate::And(mut b)) => {
                b.insert(0, p);
                Predicate::And(b)
            }
            (a, b) => Predicate::And(vec![a, b]),
        }
    }

    /// `self OR other`, flattening nested disjunctions.
    pub fn or(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::Or(mut a), Predicate::Or(b)) => {
                a.extend(b);
                Predicate::Or(a)
            }
            (Predicate::Or(mut a), p) => {
                a.push(p);
                Predicate::Or(a)
            }
            (p, Predicate::Or(mut b)) => {
                b.insert(0, p);
                Predicate::Or(b)
            }
            (a, b) => Predicate::Or(vec![a, b]),
        }
    }

    /// Logical negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        match self {
            Predicate::Not(inner) => *inner,
            p => Predicate::Not(Box::new(p)),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::VisitedCell(c) => write!(f, "visited({c})"),
            Predicate::SequenceContains(cells) => {
                write!(f, "seq(")?;
                for (i, c) in cells.iter().enumerate() {
                    if i > 0 {
                        write!(f, "→")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Predicate::SpanOverlaps(w) => write!(f, "span∩{w}"),
            Predicate::StayOverlaps(c, w) => write!(f, "stay({c})∩{w}"),
            Predicate::HasTrajAnnotation(a) => write!(f, "A_traj∋{a}"),
            Predicate::HasStayAnnotation(a) => write!(f, "A_i∋{a}"),
            Predicate::MinTotalDwell(d) => write!(f, "dwell≥{d}"),
            Predicate::MinStayIn(c, d) => write!(f, "stay({c})≥{d}"),
            Predicate::MovingObject(id) => write!(f, "mo={id}"),
            Predicate::Not(p) => write!(f, "¬({p})"),
            Predicate::And(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Predicate::Or(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_core::{AnnotationSet, PresenceInterval, Timestamp, Trace, TransitionTaken};
    use sitm_graph::{LayerIdx, NodeId};

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
    }

    fn stay(c: usize, start: i64, end: i64) -> PresenceInterval {
        PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(c),
            Timestamp(start),
            Timestamp(end),
        )
    }

    fn sample() -> SemanticTrajectory {
        let mut s1 = stay(0, 0, 100);
        s1.annotations.insert(Annotation::goal("visit"));
        let trace = Trace::new(vec![s1, stay(1, 100, 400), stay(2, 400, 500)]).unwrap();
        SemanticTrajectory::new(
            "visitor-1",
            trace,
            AnnotationSet::from_iter([Annotation::goal("visit")]),
        )
        .unwrap()
    }

    fn iv(s: i64, e: i64) -> TimeInterval {
        TimeInterval::new(Timestamp(s), Timestamp(e))
    }

    #[test]
    fn where_when_what_primitives() {
        let t = sample();
        assert!(Predicate::VisitedCell(cell(1)).matches(&t));
        assert!(!Predicate::VisitedCell(cell(9)).matches(&t));
        assert!(Predicate::SpanOverlaps(iv(450, 600)).matches(&t));
        assert!(!Predicate::SpanOverlaps(iv(501, 600)).matches(&t));
        assert!(Predicate::HasTrajAnnotation(Annotation::goal("visit")).matches(&t));
        assert!(!Predicate::HasTrajAnnotation(Annotation::goal("buy")).matches(&t));
        assert!(Predicate::HasStayAnnotation(Annotation::goal("visit")).matches(&t));
        assert!(Predicate::MovingObject("visitor-1".into()).matches(&t));
        assert!(!Predicate::MovingObject("visitor-2".into()).matches(&t));
    }

    #[test]
    fn stay_level_predicates() {
        let t = sample();
        assert!(Predicate::StayOverlaps(cell(1), iv(350, 360)).matches(&t));
        assert!(!Predicate::StayOverlaps(cell(0), iv(350, 360)).matches(&t));
        assert!(Predicate::MinStayIn(cell(1), Duration::seconds(300)).matches(&t));
        assert!(!Predicate::MinStayIn(cell(1), Duration::seconds(301)).matches(&t));
        assert!(Predicate::MinTotalDwell(Duration::seconds(500)).matches(&t));
        assert!(!Predicate::MinTotalDwell(Duration::seconds(501)).matches(&t));
    }

    #[test]
    fn sequence_containment_is_contiguous() {
        let t = sample();
        assert!(Predicate::SequenceContains(vec![cell(0), cell(1)]).matches(&t));
        assert!(Predicate::SequenceContains(vec![cell(0), cell(1), cell(2)]).matches(&t));
        // 0 → 2 is a subsequence but not contiguous.
        assert!(!Predicate::SequenceContains(vec![cell(0), cell(2)]).matches(&t));
        assert!(Predicate::SequenceContains(vec![]).matches(&t));
    }

    #[test]
    fn boolean_combinators() {
        let t = sample();
        let yes = Predicate::VisitedCell(cell(0));
        let no = Predicate::VisitedCell(cell(9));
        assert!(yes.clone().and(Predicate::True).matches(&t));
        assert!(!yes.clone().and(no.clone()).matches(&t));
        assert!(yes.clone().or(no.clone()).matches(&t));
        assert!(no.clone().not().matches(&t));
        assert!(!yes.clone().not().matches(&t));
        // Double negation collapses structurally.
        assert_eq!(yes.clone().not().not(), yes);
        assert!(Predicate::And(vec![]).matches(&t));
        assert!(!Predicate::Or(vec![]).matches(&t));
    }

    #[test]
    fn and_or_flatten() {
        let a = Predicate::VisitedCell(cell(0));
        let b = Predicate::VisitedCell(cell(1));
        let c = Predicate::VisitedCell(cell(2));
        match a.clone().and(b.clone()).and(c.clone()) {
            Predicate::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flat And, got {other:?}"),
        }
        match a.or(b).or(c) {
            Predicate::Or(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flat Or, got {other:?}"),
        }
    }

    #[test]
    fn delta_eval_decides_what_the_episode_carries() {
        use DeltaVerdict::{Match, NoMatch, Unknown};
        let anns = AnnotationSet::from_iter([Annotation::goal("gallery-1")]);
        let span = iv(100, 200);
        let eval = |p: &Predicate| p.eval_delta("visitor-1", &anns, span);

        assert_eq!(eval(&Predicate::True), Match);
        assert_eq!(eval(&Predicate::MovingObject("visitor-1".into())), Match);
        assert_eq!(eval(&Predicate::MovingObject("visitor-2".into())), NoMatch);
        assert_eq!(eval(&Predicate::SpanOverlaps(iv(150, 300))), Match);
        assert_eq!(eval(&Predicate::SpanOverlaps(iv(201, 300))), NoMatch);
        assert_eq!(
            eval(&Predicate::HasTrajAnnotation(Annotation::goal("gallery-1"))),
            Match
        );
        assert_eq!(
            eval(&Predicate::HasTrajAnnotation(Annotation::goal("other"))),
            Unknown
        );
        assert_eq!(eval(&Predicate::VisitedCell(cell(1))), Unknown);
        assert_eq!(
            eval(&Predicate::MinTotalDwell(Duration::seconds(10))),
            Unknown
        );
    }

    #[test]
    fn delta_eval_combinators_are_kleene() {
        use DeltaVerdict::{Match, NoMatch, Unknown};
        let anns = AnnotationSet::from_iter([Annotation::goal("g")]);
        let span = iv(0, 10);
        let eval = |p: &Predicate| p.eval_delta("mo", &anns, span);
        let yes = Predicate::MovingObject("mo".into());
        let no = Predicate::MovingObject("other".into());
        let unknown = Predicate::VisitedCell(cell(3));

        // Negation flips decided verdicts, never guesses on unknowns.
        assert_eq!(eval(&yes.clone().not()), NoMatch);
        assert_eq!(eval(&no.clone().not()), Match);
        assert_eq!(eval(&unknown.clone().not()), Unknown);
        // NoMatch dominates And; Match dominates Or; Unknown otherwise.
        assert_eq!(eval(&yes.clone().and(no.clone())), NoMatch);
        assert_eq!(eval(&yes.clone().and(unknown.clone())), Unknown);
        assert_eq!(eval(&no.clone().or(yes.clone())), Match);
        assert_eq!(eval(&no.clone().or(unknown.clone())), Unknown);
        assert_eq!(eval(&Predicate::And(vec![])), Match);
        assert_eq!(eval(&Predicate::Or(vec![])), NoMatch);

        // The push filter delivers everything except a proven NoMatch.
        assert!(yes.delta_may_match("mo", &anns, span));
        assert!(unknown.delta_may_match("mo", &anns, span));
        assert!(!no.delta_may_match("mo", &anns, span));
    }

    #[test]
    fn delta_verdicts_never_contradict_full_evaluation() {
        // Soundness: for a real trajectory, a decided delta verdict on
        // (moving object, A_traj-as-episode-set, span) must agree with
        // full evaluation whenever the delta attributes mirror the
        // trajectory's own.
        let t = sample();
        let span = t.span();
        let predicates = vec![
            Predicate::True,
            Predicate::MovingObject("visitor-1".into()),
            Predicate::MovingObject("nobody".into()),
            Predicate::SpanOverlaps(iv(450, 600)),
            Predicate::SpanOverlaps(iv(501, 600)),
            Predicate::VisitedCell(cell(1)),
            Predicate::MovingObject("visitor-1".into()).not(),
            Predicate::MovingObject("nobody".into()).or(Predicate::SpanOverlaps(iv(0, 1))),
        ];
        for p in predicates {
            match p.eval_delta(&t.moving_object, t.annotations(), span) {
                DeltaVerdict::Match => assert!(p.matches(&t), "{p}"),
                DeltaVerdict::NoMatch => assert!(!p.matches(&t), "{p}"),
                DeltaVerdict::Unknown => {}
            }
        }
    }

    #[test]
    fn display_is_readable() {
        let p = Predicate::VisitedCell(cell(0))
            .and(Predicate::MinTotalDwell(Duration::minutes(5)))
            .or(Predicate::MovingObject("v".into()).not());
        let text = p.to_string();
        assert!(text.contains("visited"), "{text}");
        assert!(text.contains("∧"), "{text}");
        assert!(text.contains("∨"), "{text}");
        assert!(text.contains("¬"), "{text}");
    }
}
