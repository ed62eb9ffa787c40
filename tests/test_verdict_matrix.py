"""The verdict matrix against the per-vehicle loops it replaced.

The reference_* functions below are the loop bodies of matching_score,
compute_confidence, collect_failures and _direction_votes as they were
before those functions became reductions over rules.FeatureTable verdicts.
They call the scalar evaluate_rule once per (rule, vehicle) and serve as
the oracle: every score, evidence list, RuleStats, FailureCase list and
vote dict must come out exactly equal, floats included.
"""
import numpy as np
import pytest

from trajrules import dsl
from trajrules.classification import (
    RuleEvidence,
    _direction_votes,
    matching_score,
    score_table,
    undetermined_reason,
)
from trajrules.errors import NoApplicableRulesError, UnitMismatchError
from trajrules.rules import (
    DIRECTIONS,
    MATCHED,
    NOT_APPLICABLE,
    TASKS,
    VERDICTS,
    ContextConstraint,
    FeatureTable,
    Rule,
    RuleLibrary,
    evaluate_rule,
)
from trajrules.verification import (
    FailureCase,
    RuleStats,
    ValidationSet,
    ValSample,
    collect_failures,
    compute_confidence,
    implied_label,
)

# --- the per-vehicle loops, kept as the oracle --------------------------------


def reference_matching_score(library, features, context="any", *, feature_units=None):
    evidence = []
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


def reference_compute_confidence(rule, samples, *, library_units=None, strict_denominator=False):
    n_applicable = 0
    n_correct = 0
    for sample in samples:
        verdict = evaluate_rule(
            rule, sample.features, sample.context,
            feature_units=sample.unit_system, library_units=library_units,
        )
        judged = implied_label(rule, verdict)
        if judged is None:
            continue
        n_applicable += 1
        if judged == sample.label:
            n_correct += 1
    denom = len(samples) if strict_denominator else n_applicable
    confidence = n_correct / denom if denom else 0.0
    return RuleStats(rule.id, n_applicable, n_correct, confidence)


def reference_collect_failures(rule, samples, *, library_units=None, limit=20):
    failures = []
    for sample in samples:
        verdict = evaluate_rule(
            rule, sample.features, sample.context,
            feature_units=sample.unit_system, library_units=library_units,
        )
        judged = implied_label(rule, verdict)
        if judged is not None and judged != sample.label:
            failures.append(FailureCase(sample, verdict, judged))
            if len(failures) >= limit:
                break
    return failures


def reference_direction_votes(library, features, context, task, directions, feature_units):
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


# --- random fixtures ----------------------------------------------------------

ATOMS = ("std_jerk", "std_accel", "max_decel", "mean_speed")
GRID = (0.0, 0.25, 0.5, 1.0, 2.0)  # feature values and literals share it, so "=" and bounds hit
CONTEXTS = ("any", "free_flow", "congested")
SCOPES = (("any",), ("free_flow",), ("congested",), ("free_flow", "congested"),
          ("any", "congested"))
TASK_SETS = (("identification",), ("speed",), ("lane_change",), ("identification", "speed"),
             TASKS)


def random_leaf(rng):
    atom = ATOMS[rng.integers(len(ATOMS))]
    if rng.random() < 0.25:
        lo, hi = sorted(float(v) for v in rng.choice(GRID, 2))
        leaf = dsl.RangeTest(atom, lo, hi)
    else:
        leaf = dsl.Comparison(atom, dsl.COMPARATORS[rng.integers(len(dsl.COMPARATORS))],
                              float(rng.choice(GRID)))
    return dsl.Not(leaf) if rng.random() < 0.2 else leaf


def random_predicate(rng, depth=0):
    """Leaves and NOTs, and AND/OR nested up to two levels deep."""
    if depth >= 2 or rng.random() < 0.4:
        return random_leaf(rng)
    children = tuple(random_predicate(rng, depth + 1) for _ in range(int(rng.integers(2, 4))))
    node = dsl.And(children) if rng.random() < 0.5 else dsl.Or(children)
    return dsl.Not(node) if rng.random() < 0.15 else node


def random_rule(rng, rid):
    roll = rng.random()
    confidence = 0.0 if roll < 0.1 else None if roll < 0.15 else float(rng.random())
    return Rule(
        id=rid,
        description=f"rule {rid}",
        predicate=random_predicate(rng),
        context=ContextConstraint(frozenset(SCOPES[rng.integers(len(SCOPES))]),
                                  frozenset(TASK_SETS[rng.integers(len(TASK_SETS))])),
        polarity="AV_indicative" if rng.random() < 0.6 else "HDV_indicative",
        confidence=confidence,
        state=("verified", "verified", "verified", "candidate", "retired")[rng.integers(5)],
        direction=None if rng.random() < 0.3 else DIRECTIONS[rng.integers(len(DIRECTIONS))],
    )


def random_features(rng):
    feats = {}
    for atom in ATOMS:
        roll = rng.random()
        if roll < 0.1:
            continue  # missing
        if roll < 0.18:
            feats[atom] = float("nan")
        elif roll < 0.6:
            feats[atom] = float(rng.choice(GRID))
        else:
            feats[atom] = float(rng.uniform(-0.5, 2.5))
    return feats


def random_samples(rng, count):
    return [
        ValSample(
            vehicle_id=f"v{i}",
            features=random_features(rng),
            label="AV" if rng.random() < 0.4 else "HDV",
            context=CONTEXTS[rng.integers(len(CONTEXTS))],
            unit_system=(None, "metric")[rng.integers(2)],
        )
        for i in range(count)
    ]


def outcome(fn, *args, **kwargs):
    """Result, or the NoApplicableRulesError message, of one call."""
    try:
        return fn(*args, **kwargs)
    except NoApplicableRulesError as exc:
        return f"raised: {exc}"


# --- properties -----------------------------------------------------------------


def test_verdict_matrix_matches_evaluate_rule():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        rules = [random_rule(rng, f"R{j}") for j in range(int(rng.integers(1, 8)))]
        samples = random_samples(rng, int(rng.integers(1, 15)))
        table = ValidationSet(samples).table
        matrix = table.verdict_matrix(rules, library_units="metric")
        assert matrix.shape == (len(rules), len(samples))
        for i, rule in enumerate(rules):
            for j, s in enumerate(samples):
                expected = evaluate_rule(rule, s.features, s.context,
                                         feature_units=s.unit_system, library_units="metric")
                assert VERDICTS[matrix[i, j]] == expected, (trial, rule, s)


def test_reductions_equal_per_vehicle_loops():
    rng = np.random.default_rng(4048)
    for trial in range(200):
        rules = [random_rule(rng, f"R{j}") for j in range(int(rng.integers(1, 10)))]
        library = RuleLibrary(rules=rules)
        samples = random_samples(rng, int(rng.integers(1, 30)))
        shared = ValidationSet(samples)

        # classification: one-vehicle calls and the batch over the whole table
        scores = score_table(library, shared.table)
        for j, s in enumerate(samples):
            expected = outcome(reference_matching_score, library, s.features, s.context,
                               feature_units=s.unit_system)
            got = outcome(matching_score, library, s.features, s.context,
                          feature_units=s.unit_system)
            assert got == expected, (trial, j)
            reason = undetermined_reason(int(scores.n_applicable[j]),
                                         float(scores.applicable_weight[j]))
            if reason is not None:
                assert expected == f"raised: {reason}", (trial, j)
            else:
                score = float(scores.matched_weight[j]) / float(scores.applicable_weight[j])
                assert score == expected[0], (trial, j)
                assert [VERDICTS[c] for c in scores.verdicts[:, j]] == \
                    [e.verdict for e in expected[1]], (trial, j)
            for task, directions in (("speed", DIRECTIONS[:3]), ("lane_change", DIRECTIONS[3:])):
                assert _direction_votes(library, s.features, s.context, task, directions,
                                        s.unit_system) == \
                    reference_direction_votes(library, s.features, s.context, task, directions,
                                              s.unit_system), (trial, j, task)

        # verification: plain sample lists and one shared ValidationSet
        for rule in rules:
            for strict in (False, True):
                expected = reference_compute_confidence(
                    rule, samples, library_units="metric", strict_denominator=strict)
                for given in (samples, shared):
                    assert compute_confidence(rule, given, library_units="metric",
                                              strict_denominator=strict) == expected, trial
            for limit in (1, 3, 20):
                expected = reference_collect_failures(rule, samples, library_units="metric",
                                                      limit=limit)
                for given in (samples, shared):
                    assert collect_failures(rule, given, library_units="metric",
                                            limit=limit) == expected, trial


def test_unit_mismatch_raises_like_the_loops():
    rule = Rule(id="R1", description="d", predicate=dsl.parse_predicate("std_jerk < 0.3"),
                confidence=0.9, state="verified")
    samples = [ValSample("a", {"std_jerk": 0.1}, "AV", unit_system="metric"),
               ValSample("b", {"std_jerk": 0.1}, "AV", unit_system="pixel")]
    with pytest.raises(UnitMismatchError):
        reference_compute_confidence(rule, samples, library_units="metric")
    with pytest.raises(UnitMismatchError, match="^vehicle 'b': features are in 'pixel' units"):
        compute_confidence(rule, samples, library_units="metric")
    with pytest.raises(UnitMismatchError, match="^features are in 'pixel' units"):
        matching_score(RuleLibrary(rules=[rule]), {"std_jerk": 0.1}, feature_units="pixel")


def test_verdict_rows_are_cached_per_predicate_and_scope():
    table = FeatureTable([{"std_jerk": 0.1}, {"std_jerk": 0.9}], ["free_flow", "congested"])
    pred = dsl.parse_predicate("std_jerk < 0.3")
    anywhere = Rule(id="A", description="d", predicate=pred)
    twin = Rule(id="B", description="other text", predicate=dsl.parse_predicate("std_jerk < 0.3"))
    congested = Rule(id="C", description="d", predicate=pred,
                     context=ContextConstraint(frozenset({"congested"})))
    row = table.verdicts(anywhere)
    assert table.verdicts(twin) is row
    assert [VERDICTS[c] for c in row] == ["matched", "not_matched"]
    assert [VERDICTS[c] for c in table.verdicts(congested)] == ["not_applicable", "not_matched"]
    assert not row.flags.writeable
