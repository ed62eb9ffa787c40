"""Rule-based identification and maneuver prediction.

Identification weighs every verified AV-indicative rule by its confidence:
the matching score is the matched weight over the applicable weight, and a
vehicle is called AV when the score clears the decision threshold. Every
report carries the per-rule evidence so a decision can be audited rule by
rule. Maneuver prediction blends confidence-weighted votes from direction
rules with a short-horizon kinematic prior.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import NoApplicableRulesError
from .kinematics import KinematicSeries
from .rules import MATCHED, NOT_APPLICABLE, Rule, RuleLibrary, evaluate_rule
from .trajectory import Trajectory

DEFAULT_DELTA = 0.5
SPEED_DIRECTIONS = ("accelerate", "decelerate", "maintain")
LANE_DIRECTIONS = ("left_LC", "right_LC", "keep_lane")

#: trailing-second kinematic prior thresholds
ACCEL_DEADBAND = 0.1
LATERAL_DEADBAND = 0.05

CONGESTION_SPEED_THRESHOLD = 5.0


@dataclass(frozen=True)
class RuleEvidence:
    rule_id: str
    description: str
    verdict: str
    weight: float


@dataclass(frozen=True)
class MatchReport:
    """One identification decision with its full audit trail."""

    vehicle_id: str | None
    score: float
    decision: str  # "AV" or "HDV"
    confidence: float  # distance from the decision boundary, 0..1
    evidence: tuple[RuleEvidence, ...]
    n_applicable: int


@dataclass(frozen=True)
class TaskPrediction:
    task: str  # "speed" or "lane_change"
    direction: str
    scores: Mapping[str, float]
    vehicle_id: str | None = None


def infer_context(mean_speed: float, congestion_speed_threshold: float = CONGESTION_SPEED_THRESHOLD) -> str:
    """Coarse traffic context from mean speed alone."""
    return "congested" if mean_speed < congestion_speed_threshold else "free_flow"


def matching_score(
    library: RuleLibrary,
    features: Mapping[str, float],
    context: str = "any",
    *,
    feature_units: str | None = None,
) -> tuple[float, list[RuleEvidence]]:
    """Confidence-weighted fraction of applicable AV-indicative rules matched.

    Only verified AV-indicative rules vote; each contributes its confidence
    as weight. Raises NoApplicableRulesError when nothing applies or the
    applicable rules carry zero total weight, so callers can report the
    vehicle as undetermined instead of guessing.
    """
    evidence: list[RuleEvidence] = []
    matched_weight = 0.0
    applicable_weight = 0.0
    n_applicable = 0
    for rule in library.verified_av_rules():
        verdict = evaluate_rule(
            rule, features, context,
            feature_units=feature_units, library_units=library.units,
        )
        weight = rule.confidence or 0.0
        evidence.append(RuleEvidence(rule.id, rule.description, verdict, weight))
        if verdict == NOT_APPLICABLE:
            continue
        n_applicable += 1
        applicable_weight += weight
        if verdict == MATCHED:
            matched_weight += weight
    if n_applicable == 0:
        raise NoApplicableRulesError("no verified AV-indicative rule applies to this vehicle")
    if applicable_weight <= 0.0:
        raise NoApplicableRulesError("applicable rules carry zero total confidence weight")
    return matched_weight / applicable_weight, evidence


def identify_vehicle(
    library: RuleLibrary,
    features: Mapping[str, float],
    context: str = "any",
    *,
    delta: float = DEFAULT_DELTA,
    feature_units: str | None = None,
    vehicle_id: str | None = None,
) -> MatchReport:
    """Call one vehicle AV or HDV from its matching score.

    The decision is AV when score >= delta. Report confidence is the score's
    distance from delta, normalized by the widest possible margin on its
    side, so 1.0 means maximally far from the boundary.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta {delta} outside (0, 1)")
    score, evidence = matching_score(
        library, features, context, feature_units=feature_units,
    )
    if score >= delta:
        decision = "AV"
        margin = (score - delta) / (1.0 - delta)
    else:
        decision = "HDV"
        margin = (delta - score) / delta
    n_applicable = sum(1 for e in evidence if e.verdict != NOT_APPLICABLE)
    return MatchReport(
        vehicle_id=vehicle_id,
        score=score,
        decision=decision,
        confidence=margin,
        evidence=tuple(evidence),
        n_applicable=n_applicable,
    )


def _direction_votes(
    library: RuleLibrary,
    features: Mapping[str, float],
    context: str,
    task: str,
    directions: Sequence[str],
    feature_units: str | None,
) -> dict[str, float]:
    votes = dict.fromkeys(directions, 0.0)
    for rule in library.verified_rules():
        if rule.direction not in votes or task not in rule.context.applicable_tasks:
            continue
        verdict = evaluate_rule(
            rule, features, context,
            feature_units=feature_units, library_units=library.units,
        )
        if verdict == MATCHED:
            votes[rule.direction] += rule.confidence or 0.0
    return votes


def _blend(votes: dict[str, float], prior: str, directions: Sequence[str]) -> dict[str, float]:
    """Equal-weight mix of normalized rule votes and a one-hot prior."""
    total = sum(votes.values())
    scores = {}
    for d in directions:
        vote_part = votes[d] / total if total > 0 else (1.0 if d == prior else 0.0)
        prior_part = 1.0 if d == prior else 0.0
        scores[d] = 0.5 * vote_part + 0.5 * prior_part
    return scores


def _pick(scores: dict[str, float], directions: Sequence[str], neutral: str) -> str:
    best = max(scores.values())
    # ties resolve to the neutral option first, then listed order
    if scores[neutral] >= best:
        return neutral
    for d in directions:
        if scores[d] >= best:
            return d
    return neutral


def predict_speed_change(
    library: RuleLibrary,
    features: Mapping[str, float],
    kin: KinematicSeries,
    context: str = "any",
    *,
    feature_units: str | None = None,
    vehicle_id: str | None = None,
) -> TaskPrediction:
    """Predict accelerate / decelerate / maintain for the next horizon.

    Verified rules tagged with a speed direction vote with their confidence
    when matched; the vote distribution is averaged with a one-hot prior
    from the mean acceleration over the trailing second.
    """
    if kin.acceleration.size == 0:
        raise NoApplicableRulesError("no acceleration samples to predict from")
    k = max(1, round(kin.frame_rate))
    recent = float(np.mean(kin.acceleration[-k:]))
    if recent > ACCEL_DEADBAND:
        prior = "accelerate"
    elif recent < -ACCEL_DEADBAND:
        prior = "decelerate"
    else:
        prior = "maintain"
    votes = _direction_votes(library, features, context, "speed", SPEED_DIRECTIONS, feature_units)
    scores = _blend(votes, prior, SPEED_DIRECTIONS)
    return TaskPrediction("speed", _pick(scores, SPEED_DIRECTIONS, "maintain"), scores, vehicle_id)


def predict_lane_change(
    library: RuleLibrary,
    features: Mapping[str, float],
    traj: Trajectory,
    context: str = "any",
    *,
    feature_units: str | None = None,
) -> TaskPrediction:
    """Predict left / right / keep-lane from rules plus recent lateral drift.

    The prior reads the mean lateral velocity over the trailing second:
    decreasing y is a drift toward the left lane, matching the convention
    used by lane-change event detection.
    """
    sy = traj.y * traj.unit_scale
    if len(sy) < 2:
        raise NoApplicableRulesError("trajectory too short to read lateral drift")
    k = min(len(sy) - 1, max(1, round(traj.frame_rate)))
    vy = (float(sy[-1]) - float(sy[-1 - k])) / (k * traj.dt)
    if vy < -LATERAL_DEADBAND:
        prior = "left_LC"
    elif vy > LATERAL_DEADBAND:
        prior = "right_LC"
    else:
        prior = "keep_lane"
    votes = _direction_votes(library, features, context, "lane_change", LANE_DIRECTIONS, feature_units)
    scores = _blend(votes, prior, LANE_DIRECTIONS)
    return TaskPrediction(
        "lane_change", _pick(scores, LANE_DIRECTIONS, "keep_lane"), scores, traj.vehicle_id,
    )
