"""Rule-based identification and maneuver prediction.

Identification weighs every verified AV-indicative rule by its confidence:
score_table sums each vehicle's applicable and matched weight, and
identify_vehicle calls a vehicle AV when its matching score (matched over
applicable weight) clears the decision threshold. The verdicts behind the
sums are the per-rule evidence. Maneuver prediction blends confidence-weighted
votes from direction rules with a short-horizon kinematic prior. Both read
only the verified rules tagged with their task.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import NoApplicableRulesError
from .kinematics import KinematicSeries
from .rules import (
    LANE_DIRECTIONS,
    MATCHED_CODE,
    NOT_APPLICABLE_CODE,
    SPEED_DIRECTIONS,
    TASK_DIRECTIONS,
    FeatureTable,
    Rule,
    RuleLibrary,
    evaluate_rule,  # not called here; perfbench/spans.py patches this name
)
from .trajectory import Trajectory

#: trailing-second kinematic prior thresholds
ACCEL_DEADBAND = 0.1
LATERAL_DEADBAND = 0.05

CONGESTION_SPEED_THRESHOLD = 5.0


@dataclass(frozen=True)
class TaskPrediction:
    task: str  # "speed" or "lane_change"
    direction: str
    scores: Mapping[str, float]
    vehicle_id: str | None = None


def infer_context(mean_speed: float, congestion_speed_threshold: float = CONGESTION_SPEED_THRESHOLD) -> str:
    """Coarse traffic context from mean speed alone."""
    return "congested" if mean_speed < congestion_speed_threshold else "free_flow"


@dataclass(frozen=True)
class TableScores:
    """The matching-score sums of every row of a feature table.

    The rules are the library's verified AV-indicative identification rules
    in library order; verdicts holds one row per rule and one column per
    vehicle.
    """

    rules: list[Rule]
    verdicts: np.ndarray  # int8 codes, see rules.VERDICTS
    matched_weight: np.ndarray
    applicable_weight: np.ndarray
    n_applicable: np.ndarray


def score_table(library: RuleLibrary, table: FeatureTable) -> TableScores:
    """Weigh every vehicle of a table against the library at once.

    Weights are added rule by rule in library order, one vectorised step per
    rule, so each vehicle's sums are bit-identical to a per-vehicle loop.
    Raises UnitMismatchError naming the first vehicle in the wrong units.
    """
    rules = [r for r in library.verified_rules("identification") if r.polarity == "AV_indicative"]
    verdicts = table.verdict_matrix(rules, library_units=library.units)
    matched = np.zeros(len(table))
    applicable = np.zeros(len(table))
    n_applicable = np.zeros(len(table), dtype=np.int64)
    for rule, row in zip(rules, verdicts):
        weight = rule.confidence or 0.0
        is_applicable = row != NOT_APPLICABLE_CODE
        n_applicable += is_applicable
        applicable += np.where(is_applicable, weight, 0.0)
        matched += np.where(row == MATCHED_CODE, weight, 0.0)
    return TableScores(rules, verdicts, matched, applicable, n_applicable)


def identify_vehicle(
    matched_weight: float, applicable_weight: float, n_applicable: int, delta: float,
) -> tuple[str, float, float]:
    """Decision, matching score and confidence of one vehicle from its score_table sums.

    The score is the matched weight over the applicable weight, and the
    decision is AV when score >= delta. The confidence is the distance from
    delta normalized by the widest possible margin on its side, so 1.0 means
    maximally far from the boundary. Raises NoApplicableRulesError when no
    rule applies or the applicable rules carry zero total weight, so callers
    can report the vehicle as undetermined instead of guessing.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta {delta} outside (0, 1)")
    if n_applicable == 0:
        raise NoApplicableRulesError("no verified AV-indicative rule applies to this vehicle")
    if applicable_weight <= 0.0:
        raise NoApplicableRulesError("applicable rules carry zero total confidence weight")
    score = matched_weight / applicable_weight
    if score >= delta:
        return "AV", score, (score - delta) / (1.0 - delta)
    return "HDV", score, (delta - score) / delta


def vote_table(library: RuleLibrary, table: FeatureTable, task: str) -> np.ndarray:
    """Confidence-weighted direction votes of every vehicle of a table.

    Verified rules tagged with task whose direction belongs to it vote their
    confidence where matched. Row i sums the votes for TASK_DIRECTIONS[task][i],
    one column per vehicle; weights are added rule by rule in library order,
    so each column is bit-identical to a per-vehicle loop.
    """
    directions = TASK_DIRECTIONS[task]
    rules = [r for r in library.verified_rules(task) if r.direction in directions]
    verdicts = table.verdict_matrix(rules, library_units=library.units)
    votes = np.zeros((len(directions), len(table)))
    for rule, row in zip(rules, verdicts):
        votes[directions.index(rule.direction)] += np.where(
            row == MATCHED_CODE, rule.confidence or 0.0, 0.0)
    return votes


def speed_prior(kin: KinematicSeries) -> str:
    """Speed direction of the mean acceleration over the trailing second."""
    if kin.acceleration.size == 0:
        raise NoApplicableRulesError("no acceleration samples to predict from")
    k = max(1, round(kin.frame_rate))
    recent = float(np.mean(kin.acceleration[-k:]))
    if recent > ACCEL_DEADBAND:
        return "accelerate"
    if recent < -ACCEL_DEADBAND:
        return "decelerate"
    return "maintain"


def lane_prior(traj: Trajectory) -> str:
    """Lane direction of the mean lateral velocity over the trailing second.

    Decreasing y is a drift toward the left lane, matching the convention
    used by lane-change event detection.
    """
    sy = traj.y * traj.unit_scale
    if len(sy) < 2:
        raise NoApplicableRulesError("trajectory too short to read lateral drift")
    k = min(len(sy) - 1, max(1, round(traj.frame_rate)))
    vy = (float(sy[-1]) - float(sy[-1 - k])) / (k * traj.dt)
    if vy < -LATERAL_DEADBAND:
        return "left_LC"
    if vy > LATERAL_DEADBAND:
        return "right_LC"
    return "keep_lane"


def _blend(votes: Mapping[str, float], prior: str, directions: tuple[str, ...]) -> dict[str, float]:
    """Equal-weight mix of normalized rule votes and a one-hot prior."""
    total = sum(votes.values())
    scores = {}
    for d in directions:
        vote_part = votes[d] / total if total > 0 else (1.0 if d == prior else 0.0)
        prior_part = 1.0 if d == prior else 0.0
        scores[d] = 0.5 * vote_part + 0.5 * prior_part
    return scores


def _pick(scores: dict[str, float], directions: tuple[str, ...], neutral: str) -> str:
    # max keeps the first of equal scores: ties go to neutral, then listed order
    return max((neutral, *directions), key=scores.__getitem__)


def predict_speed_change(
    votes: Mapping[str, float], prior: str, vehicle_id: str | None = None,
) -> TaskPrediction:
    """Predict accelerate / decelerate / maintain for the next horizon.

    votes is one vehicle's column of vote_table(..., "speed") keyed by
    direction; its distribution is averaged with the one-hot speed_prior.
    """
    scores = _blend(votes, prior, SPEED_DIRECTIONS)
    return TaskPrediction("speed", _pick(scores, SPEED_DIRECTIONS, "maintain"), scores, vehicle_id)


def predict_lane_change(
    votes: Mapping[str, float], prior: str, vehicle_id: str | None = None,
) -> TaskPrediction:
    """Predict left / right / keep-lane from rule votes plus recent lateral drift.

    votes is one vehicle's column of vote_table(..., "lane_change") keyed by
    direction; its distribution is averaged with the one-hot lane_prior.
    """
    scores = _blend(votes, prior, LANE_DIRECTIONS)
    return TaskPrediction(
        "lane_change", _pick(scores, LANE_DIRECTIONS, "keep_lane"), scores, vehicle_id,
    )
