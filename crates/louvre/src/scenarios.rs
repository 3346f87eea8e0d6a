//! The paper's worked scenarios: Fig. 5 (overlapping episodes) and Fig. 6
//! (missing-zone inference).

use sitm_core::{
    maximal_episodes, Annotation, AnnotationSet, EpisodicSegmentation, IntervalPredicate,
    PresenceInterval, SemanticTrajectory, Timestamp, Trace, TrajectoryError, TransitionTaken,
};
use sitm_space::{infer_missing_cells, InferenceOutcome};

use crate::building::LouvreModel;

fn t(h: u32, m: u32, s: u32) -> Timestamp {
    // A February 2017 afternoon, like the paper's example visitor.
    Timestamp::from_ymd_hms(2017, 2, 12, h, m, s)
}

fn goals(values: &[&str]) -> AnnotationSet {
    AnnotationSet::from_iter(values.iter().map(|v| Annotation::goal(*v)))
}

/// The Fig. 5 visit tail: the visitor leaves the temporary exhibition (E =
/// 60887), crosses the passage (P = 60888), browses the souvenir shops
/// (S = 60890) and exits through the Carrousel hall (C = 60891).
/// δt1 (in E) ≫ δt2 (in S): the temporary exhibition "requires a separate
/// ticket to enter", so dwell there dominates.
pub fn fig5_trajectory(model: &LouvreModel) -> SemanticTrajectory {
    let cell = |id: u32| model.zone(id).expect("catalog zone");
    let trace = Trace::new(vec![
        PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(60887),
            t(16, 40, 0),
            t(17, 30, 21),
        ),
        PresenceInterval::new(
            TransitionTaken::Named("checkpoint002".into()),
            cell(60888),
            t(17, 30, 21),
            t(17, 31, 42),
        ),
        PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(60890),
            t(17, 31, 42),
            t(17, 43, 0),
        ),
        PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(60891),
            t(17, 43, 0),
            t(17, 45, 0),
        ),
    ])
    .expect("chronological");
    SemanticTrajectory::new("fig5-visitor", trace, goals(&["visit"])).expect("annotated")
}

/// The Fig. 5 overlapping episodic segmentation: "we may tag the whole
/// E→P→S→C part with the 'exit museum' goal and its E→P→S subsequence with
/// the 'buy souvenir' tag".
pub fn fig5_segmentation(
    model: &LouvreModel,
    trajectory: &SemanticTrajectory,
) -> Result<EpisodicSegmentation, TrajectoryError> {
    let exit_cells = [60887, 60888, 60890, 60891].map(|id| model.zone(id).expect("zone"));
    let buy_cells = [60887, 60888, 60890].map(|id| model.zone(id).expect("zone"));
    EpisodicSegmentation::from_predicates(
        trajectory,
        &[
            (
                IntervalPredicate::in_cells(exit_cells),
                goals(&["exit museum"]),
            ),
            (
                IntervalPredicate::in_cells(buy_cells),
                goals(&["buy souvenir"]),
            ),
        ],
    )
}

/// The Fig. 6 observed (sparse) trace: detected in E for δt1, then in S for
/// δt2 — P was never detected.
pub fn fig6_observed_trace(model: &LouvreModel) -> Trace {
    let cell = |id: u32| model.zone(id).expect("catalog zone");
    Trace::new(vec![
        PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(60887),
            t(16, 40, 0),
            t(17, 30, 21),
        ),
        PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(60890),
            t(17, 31, 42),
            t(17, 43, 0),
        ),
    ])
    .expect("chronological")
}

/// Runs the Fig. 6 inference: "although never detected there, the visitor
/// must have passed from Zone60888", yielding the extra tuple
/// `(checkpoint002, zone60888, 17:30:21, 17:31:42,
/// {goals:["cloakroomPickup","souvenirBuy","museumExit"]})`.
pub fn fig6_inference(model: &LouvreModel) -> InferenceOutcome {
    let trace = fig6_observed_trace(model);
    infer_missing_cells(&model.space, &trace, |_| {
        goals(&["cloakroomPickup", "souvenirBuy", "museumExit"])
    })
}

/// δt1 / δt2 of the Fig. 6 trace — the paper expects δt1 ≫ δt2.
pub fn fig6_dwell_ratio(model: &LouvreModel) -> f64 {
    let trace = fig6_observed_trace(model);
    let dt1 = trace.get(0).expect("E stay").duration().as_secs_f64();
    let dt2 = trace.get(1).expect("S stay").duration().as_secs_f64();
    dt1 / dt2
}

/// Convenience used by examples: extracts the Fig. 5 "buy souvenir" episode
/// as a standalone subtrajectory.
pub fn fig5_buy_souvenir_subtrajectory(
    model: &LouvreModel,
    trajectory: &SemanticTrajectory,
) -> Result<SemanticTrajectory, TrajectoryError> {
    let buy_cells = [60887, 60888, 60890].map(|id| model.zone(id).expect("zone"));
    let episodes = maximal_episodes(
        trajectory,
        &IntervalPredicate::in_cells(buy_cells),
        goals(&["buy souvenir"]),
    )?;
    episodes
        .first()
        .ok_or(TrajectoryError::BadRange)?
        .to_subtrajectory(trajectory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::building::build_louvre;
    use sitm_core::AnnotationKind;

    #[test]
    fn fig5_episodes_overlap_as_in_the_paper() {
        let model = build_louvre();
        let traj = fig5_trajectory(&model);
        let seg = fig5_segmentation(&model, &traj).unwrap();
        assert_eq!(seg.len(), 2);
        assert!(seg.covers(&traj), "episodes cover the trajectory");
        assert_eq!(seg.overlapping_pairs().len(), 1, "the two episodes overlap");
        assert!(!seg.is_mutually_exclusive());
    }

    #[test]
    fn fig5_exit_episode_contains_buy_episode() {
        let model = build_louvre();
        let traj = fig5_trajectory(&model);
        let seg = fig5_segmentation(&model, &traj).unwrap();
        let by_len = |e: &sitm_core::Episode| e.range.len();
        let exit = seg.episodes().iter().max_by_key(|e| by_len(e)).unwrap();
        let buy = seg.episodes().iter().min_by_key(|e| by_len(e)).unwrap();
        assert_eq!(exit.range, 0..4, "E,P,S,C");
        assert_eq!(buy.range, 0..3, "E,P,S");
        assert!(exit.time.covers(buy.time));
    }

    #[test]
    fn fig6_inference_reproduces_the_paper_tuple() {
        let model = build_louvre();
        let outcome = fig6_inference(&model);
        assert_eq!(outcome.inferred.len(), 1);
        assert!(outcome.ambiguous.is_empty());
        let inferred = outcome.trace.get(1).unwrap();
        assert_eq!(inferred.cell, model.zone(60888).unwrap());
        assert_eq!(inferred.start(), t(17, 30, 21));
        assert_eq!(inferred.end(), t(17, 31, 42));
        assert!(inferred
            .annotations
            .has(&AnnotationKind::Goal, "cloakroomPickup"));
        assert!(inferred
            .annotations
            .has(&AnnotationKind::Goal, "souvenirBuy"));
        assert!(inferred
            .annotations
            .has(&AnnotationKind::Goal, "museumExit"));
    }

    #[test]
    fn fig6_dwell_ratio_is_much_greater_than_one() {
        let model = build_louvre();
        let ratio = fig6_dwell_ratio(&model);
        assert!(ratio > 3.0, "δt1 ≫ δt2 expected, got {ratio:.1}");
    }

    #[test]
    fn buy_souvenir_subtrajectory_is_proper() {
        let model = build_louvre();
        let traj = fig5_trajectory(&model);
        let sub = fig5_buy_souvenir_subtrajectory(&model, &traj).unwrap();
        assert_eq!(sub.trace().len(), 3);
        assert!(traj.is_proper_temporal_part(&sub));
        assert!(sub.annotations().has(&AnnotationKind::Goal, "buy souvenir"));
    }
}
