import numpy as np
import pytest

from trajrules import dsl
from trajrules.classification import (
    LANE_DIRECTIONS,
    SPEED_DIRECTIONS,
    TASK_DIRECTIONS,
    identify_vehicle,
    infer_context,
    lane_prior,
    predict_lane_change,
    predict_speed_change,
    score_table,
    speed_prior,
    vote_table,
)
from trajrules.errors import NoApplicableRulesError
from trajrules.kinematics import KinematicSeries
from trajrules.rules import (
    NOT_APPLICABLE,
    VERDICTS,
    FeatureTable,
    Rule,
    RuleLibrary,
)

from helpers import (
    ORACLE_ATOMS,
    clause_text,
    identify_column,
    make_trajectory,
    random_clause,
    score_one,
)
from oracles import oracle_score


def make_rule(rid, text, *, state="verified", polarity="AV_indicative",
              confidence=1.0, contexts=("any",), tasks=("identification",),
              direction=None):
    return Rule(
        id=rid,
        description=f"rule {rid}",
        predicate=dsl.parse_predicate(text),
        contexts=frozenset(contexts),
        tasks=frozenset(tasks),
        category="speed",
        polarity=polarity,
        state=state,
        confidence=confidence,
        direction=direction,
    )


def library(*rules, theta=0.7):
    return RuleLibrary(rules=list(rules), theta=theta)


def test_matching_score_weighted_fraction():
    lib = library(
        make_rule("A", "std_jerk < 0.3", confidence=0.9),
        make_rule("B", "std_accel < 0.3", confidence=0.6),
        make_rule("C", "max_decel < 0.6", confidence=0.5),
    )
    scores = score_one(lib, {"std_jerk": 0.2, "std_accel": 0.5, "max_decel": 0.4})
    _, score, _ = identify_column(scores)
    # A and C match, B applicable but unmatched
    assert score == pytest.approx((0.9 + 0.5) / (0.9 + 0.6 + 0.5))
    assert len(scores.rules) == len(scores.verdicts) == 3


def test_matching_score_na_in_evidence_not_denominator():
    lib = library(
        make_rule("A", "std_jerk < 0.3", confidence=0.8),
        make_rule("B", "lane_change_angle < 10", confidence=0.9),
    )
    scores = score_one(lib, {"std_jerk": 0.2})
    assert identify_column(scores)[1] == 1.0
    by_id = {rule.id: (rule, VERDICTS[code])
             for rule, code in zip(scores.rules, scores.verdicts[:, 0])}
    assert by_id["B"][1] == NOT_APPLICABLE
    assert by_id["B"][0].confidence == 0.9


def test_matching_score_only_verified_av_rules_vote():
    lib = library(
        make_rule("A", "std_jerk < 0.3"),
        make_rule("H", "std_jerk > 0.1", polarity="HDV_indicative"),
        make_rule("C", "std_jerk > 0.1", state="candidate"),
        make_rule("R", "std_jerk > 0.1", state="retired"),
    )
    scores = score_one(lib, {"std_jerk": 0.2})
    assert identify_column(scores)[1] == 1.0
    assert [r.id for r in scores.rules] == ["A"]


def test_av_rule_without_identification_task_does_not_vote():
    lib = library(
        make_rule("A", "std_jerk < 0.3", confidence=0.5),
        make_rule("S", "std_jerk > 0.1", tasks=("speed",), direction="decelerate"),
        make_rule("L", "std_jerk > 0.1", tasks=("lane_change",), direction="left_LC"),
    )
    assert identify_column(score_one(lib, {"std_jerk": 0.5}))[1] == 0.0
    scores = score_table(lib, FeatureTable([{"vehicle_id": "v", "features": {"std_jerk": 0.5}}]))
    assert [r.id for r in scores.rules] == ["A"]
    assert scores.matched_weight.tolist() == [0.0]
    assert scores.applicable_weight.tolist() == [0.5]
    # with only task-scoped rules, nothing is left to identify with
    with pytest.raises(NoApplicableRulesError):
        identify_column(score_one(library(*lib.rules[1:]), {"std_jerk": 0.5}))


def test_matching_score_errors():
    lib = library(make_rule("A", "lane_change_angle < 10"))
    with pytest.raises(NoApplicableRulesError):
        identify_column(score_one(lib, {"std_jerk": 0.2}))
    zero = library(make_rule("A", "std_jerk < 0.3", confidence=0.0))
    with pytest.raises(NoApplicableRulesError):
        identify_column(score_one(zero, {"std_jerk": 0.2}))


def test_matching_score_context_gate():
    lib = library(make_rule("A", "std_jerk < 0.3", contexts=("free_flow",)))
    with pytest.raises(NoApplicableRulesError):
        identify_column(score_one(lib, {"std_jerk": 0.2}, context="congested"))
    _, score, _ = identify_column(score_one(lib, {"std_jerk": 0.2}, context="free_flow"))
    assert score == 1.0
    # unknown sample context leaves every rule in scope
    _, score, _ = identify_column(score_one(lib, {"std_jerk": 0.2}, context="any"))
    assert score == 1.0


def test_matching_score_against_brute_force_oracle():
    rng = np.random.default_rng(11)
    context_pool = (("any",), ("free_flow",), ("congested",), ("free_flow", "congested"))
    for trial in range(300):
        specs = []
        rules = []
        for j in range(int(rng.integers(1, 8))):
            clauses = [random_clause(rng) for _ in range(int(rng.integers(1, 3)))]
            joiner = "AND" if rng.random() < 0.5 else "OR"
            contexts = context_pool[rng.integers(len(context_pool))]
            state = ("verified", "verified", "candidate", "retired")[rng.integers(4)]
            polarity = "AV_indicative" if rng.random() < 0.75 else "HDV_indicative"
            conf = 0.0 if rng.random() < 0.1 else round(float(rng.uniform(0, 1)), 3)
            specs.append((clauses, joiner, contexts, state, polarity, conf))
            rules.append(make_rule(
                f"G{j}", f" {joiner} ".join(clause_text(c) for c in clauses),
                state=state, polarity=polarity, confidence=conf, contexts=contexts,
            ))
        feats = {}
        for atom in ORACLE_ATOMS:
            roll = rng.random()
            if roll < 0.15:
                continue  # missing
            feats[atom] = float("nan") if roll < 0.25 else round(float(rng.uniform(0, 5)), 3)
        context = ("any", "free_flow", "congested")[rng.integers(3)]

        expected = oracle_score(specs, feats, context)
        lib = library(*rules)
        if expected is None:
            with pytest.raises(NoApplicableRulesError):
                identify_column(score_one(lib, feats, context=context))
        else:
            _, score, _ = identify_column(score_one(lib, feats, context=context))
            assert score == expected, f"trial {trial}"


def test_identify_decision_and_margin():
    lib = library(
        make_rule("A", "std_jerk < 0.3", confidence=1.0),
        make_rule("B", "std_accel < 0.3", confidence=1.0),
    )
    # both matched: score 1.0, maximal AV margin
    scores = score_one(lib, {"std_jerk": 0.2, "std_accel": 0.2})
    decision, score, confidence = identify_column(scores)
    assert decision == "AV"
    assert score == 1.0
    assert confidence == 1.0
    assert scores.n_applicable.tolist() == [2]
    # neither matched: score 0.0, maximal HDV margin
    decision, _, confidence = identify_column(score_one(lib, {"std_jerk": 0.9, "std_accel": 0.9}))
    assert decision == "HDV"
    assert confidence == 1.0
    # exactly on the boundary counts as AV with zero margin
    decision, score, confidence = identify_column(
        score_one(lib, {"std_jerk": 0.2, "std_accel": 0.9}))
    assert score == 0.5
    assert decision == "AV"
    assert confidence == 0.0


def test_identify_margin_scales_with_delta():
    lib = library(make_rule("A", "std_jerk < 0.3", confidence=1.0),
                  make_rule("B", "std_accel < 0.3", confidence=1.0))
    scores = score_one(lib, {"std_jerk": 0.2, "std_accel": 0.9})  # score 0.5
    decision, _, confidence = identify_column(scores, delta=0.25)
    assert decision == "AV"
    assert confidence == pytest.approx((0.5 - 0.25) / 0.75)
    decision, _, confidence = identify_column(scores, delta=0.8)
    assert decision == "HDV"
    assert confidence == pytest.approx((0.8 - 0.5) / 0.8)


def test_identify_delta_validation():
    scores = score_one(library(make_rule("A", "std_jerk < 0.3")), {"std_jerk": 0.2})
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            identify_column(scores, delta=bad)


def test_identify_undetermined_reasons():
    with pytest.raises(NoApplicableRulesError,
                       match="^no verified AV-indicative rule applies to this vehicle$"):
        identify_vehicle(0.0, 0.0, 0, 0.5)
    with pytest.raises(NoApplicableRulesError,
                       match="^applicable rules carry zero total confidence weight$"):
        identify_vehicle(0.0, 0.0, 2, 0.5)
    assert identify_vehicle(0.75, 1.0, 1, 0.5) == ("AV", 0.75, 0.5)
    assert identify_vehicle(0.25, 1.0, 3, 0.5) == ("HDV", 0.25, 0.5)


def test_infer_context_boundary():
    assert infer_context(4.99) == "congested"
    assert infer_context(5.0) == "free_flow"
    assert infer_context(30.0) == "free_flow"
    assert infer_context(5.0, congestion_speed_threshold=10.0) == "congested"


def kin_with_accel(accel, frame_rate=25.0):
    accel = np.asarray(accel, dtype=float)
    return KinematicSeries(
        velocity=np.zeros(accel.size + 2),
        acceleration=accel,
        jerk=np.zeros(max(0, accel.size - 2)),
        frame_rate=frame_rate,
    )


def votes_of(lib, features, task, context="any"):
    """One vehicle's column of vote_table, keyed by direction."""
    row = {"vehicle_id": "v", "features": features, "context": context}
    column = vote_table(lib, FeatureTable([row]), task)[:, 0].tolist()
    return dict(zip(TASK_DIRECTIONS[task], column))


NO_SPEED_VOTES = dict.fromkeys(SPEED_DIRECTIONS, 0.0)
NO_LANE_VOTES = dict.fromkeys(LANE_DIRECTIONS, 0.0)


def test_speed_prior_reads_trailing_second():
    old = np.full(50, 2.0)  # stale throttle, must be ignored
    recent = np.full(25, 0.0)
    assert speed_prior(kin_with_accel(np.concatenate([old, recent]))) == "maintain"
    assert speed_prior(kin_with_accel(np.full(30, 0.5))) == "accelerate"
    # no direction rules: the prior decides alone
    direction, scores = predict_speed_change(NO_SPEED_VOTES, "accelerate")
    assert direction == "accelerate"
    assert scores["accelerate"] == 1.0
    assert speed_prior(kin_with_accel(np.full(30, -0.5))) == "decelerate"
    # deadband: anything within +-0.1 reads as holding speed
    assert speed_prior(kin_with_accel(np.full(30, 0.09))) == "maintain"
    assert speed_prior(kin_with_accel([0.1])) == "maintain"  # boundary itself is not a trend


def test_speed_prediction_empty_accel():
    with pytest.raises(NoApplicableRulesError):
        speed_prior(kin_with_accel([]))


def test_speed_votes_blend_with_prior():
    rule = make_rule("S1", "max_decel > 1.0", tasks=("speed",), direction="decelerate")
    votes = votes_of(library(rule), {"max_decel": 2.0}, "speed")
    assert votes == {"accelerate": 0.0, "decelerate": 1.0, "maintain": 0.0}
    direction, scores = predict_speed_change(votes, speed_prior(kin_with_accel(np.full(30, -0.5))))
    # matched vote and prior agree
    assert direction == "decelerate"
    assert scores["decelerate"] == 1.0
    assert scores["accelerate"] == 0.0


def test_speed_vote_against_prior_ties_resolve_in_listed_order():
    rule = make_rule("S1", "max_decel > 1.0", tasks=("speed",), direction="decelerate")
    votes = votes_of(library(rule), {"max_decel": 2.0}, "speed")
    prior = speed_prior(kin_with_accel(np.full(30, 0.5)))
    assert prior == "accelerate"
    direction, scores = predict_speed_change(votes, prior)
    assert scores["accelerate"] == 0.5
    assert scores["decelerate"] == 0.5
    # neither is the neutral option; first listed direction wins the tie
    assert direction == "accelerate"


def test_speed_votes_filtered():
    prior = speed_prior(kin_with_accel(np.full(30, 0.0)))
    cases = [
        make_rule("W1", "max_decel > 1.0", tasks=("identification",), direction="decelerate"),
        make_rule("W2", "max_decel > 1.0", tasks=("speed",), direction="decelerate", state="candidate"),
        make_rule("W3", "max_decel > 99.0", tasks=("speed",), direction="decelerate"),
        make_rule("W4", "max_decel > 1.0", tasks=("speed",), direction="left_LC"),
    ]
    for rule in cases:
        votes = votes_of(library(rule), {"max_decel": 2.0}, "speed")
        assert votes == NO_SPEED_VOTES, rule.id
        direction, scores = predict_speed_change(votes, prior)
        assert direction == "maintain", rule.id
        assert scores["decelerate"] == 0.0


def test_vote_table_sums_confidence_per_direction_and_vehicle():
    lib = library(
        make_rule("A", "max_decel > 1.0", tasks=("speed",), direction="decelerate", confidence=0.25),
        make_rule("B", "max_decel > 0.5", tasks=("speed",), direction="decelerate", confidence=0.5),
        make_rule("C", "std_accel < 0.3", tasks=("speed",), direction="maintain", confidence=None,
                  contexts=("congested",)),
        make_rule("D", "std_accel < 0.3", tasks=("speed",), direction="maintain", confidence=0.75,
                  contexts=("free_flow",)),
    )
    table = FeatureTable([
        {"vehicle_id": "a", "features": {"max_decel": 2.0, "std_accel": 0.1},
         "context": "congested"},
        {"vehicle_id": "b", "features": {"max_decel": 0.7}, "context": "free_flow"},
        {"vehicle_id": "c", "features": {"std_accel": 0.1}, "context": "free_flow"},
    ])
    votes = vote_table(lib, table, "speed")
    assert votes.shape == (len(SPEED_DIRECTIONS), 3)
    assert votes.tolist() == [[0.0, 0.0, 0.0], [0.75, 0.5, 0.0], [0.0, 0.0, 0.75]]
    assert vote_table(lib, table, "lane_change").tolist() == [[0.0] * 3] * 3


def test_lane_prior_directions():
    n, rate = 76, 25.0
    xs = [10.0 * i / rate for i in range(n)]
    flat = [0.0] * n
    drift_left = [0.0] * 50 + [-0.2 * (i + 1) / rate for i in range(26)]
    drift_right = [0.0] * 50 + [0.2 * (i + 1) / rate for i in range(26)]
    prior = lane_prior(make_trajectory(xs, flat, frame_rate=rate))
    assert prior == "keep_lane"
    direction, _ = predict_lane_change(NO_LANE_VOTES, prior)
    assert direction == "keep_lane"
    assert lane_prior(make_trajectory(xs, drift_left, frame_rate=rate)) == "left_LC"
    assert lane_prior(make_trajectory(xs, drift_right, frame_rate=rate)) == "right_LC"


def test_lane_prior_respects_unit_scale():
    n, rate = 76, 25.0
    xs = [100.0 * i / rate for i in range(n)]
    # 2 px/s drift is 0.2 m/s once scaled by 0.1 m/px
    ys = [0.0] * 50 + [-2.0 * (i + 1) / rate for i in range(26)]
    traj = make_trajectory(xs, ys, frame_rate=rate, unit_scale=0.1, unit_system="pixel")
    assert lane_prior(traj) == "left_LC"


def test_lane_short_history_uses_what_exists():
    xs = [0.0, 0.4, 0.8, 1.2, 1.6, 2.0]
    ys = [0.0, -0.1, -0.2, -0.3, -0.4, -0.5]
    assert lane_prior(make_trajectory(xs, ys, frame_rate=25.0)) == "left_LC"
    with pytest.raises(NoApplicableRulesError):
        lane_prior(make_trajectory(xs[:1], ys[:1], frame_rate=25.0))


def test_lane_vote_tie_resolves_to_neutral():
    rule = make_rule("L1", "lane_change_rate > 0.5", tasks=("lane_change",), direction="left_LC")
    n, rate = 76, 25.0
    xs = [10.0 * i / rate for i in range(n)]
    prior = lane_prior(make_trajectory(xs, [0.0] * n, frame_rate=rate))
    direction, scores = predict_lane_change(
        votes_of(library(rule), {"lane_change_rate": 1.0}, "lane_change"), prior)
    assert scores["left_LC"] == 0.5
    assert scores["keep_lane"] == 0.5
    # the neutral option wins ties even though left_LC is listed first
    assert direction == "keep_lane"
