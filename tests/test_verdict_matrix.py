"""The verdict matrix against the per-vehicle loops it replaced.

The reference_* functions below are the loop bodies of the one-vehicle
matching score, compute_confidence, collect_failures and the per-vehicle
direction votes as they were before those became reductions over
rules.FeatureTable verdicts.
They call the scalar evaluate_rule of oracles.py once per (rule, vehicle)
and serve as the oracle: every score, evidence list, RuleStats, FailureCase list and
vote dict must come out exactly equal, floats included.
"""
import json

import numpy as np
import pytest

from trajrules import cli, dsl
from trajrules import rules as rules_module
from trajrules.classification import (
    TASK_DIRECTIONS,
    _blend,
    _pick,
    lane_prior,
    score_table,
    speed_prior,
    vote_table,
)
from trajrules.errors import NoApplicableRulesError, UnitMismatchError
from trajrules.io import load_library, load_trajectories, save_library
from trajrules.metrics import UNDETERMINED
from trajrules.rules import (
    DIRECTIONS,
    MATCHED,
    NOT_APPLICABLE,
    TASKS,
    VERDICTS,
    FeatureTable,
    Rule,
    RuleLibrary,
)
from trajrules.trajectory import smooth_trajectories, validate_trajectory
from trajrules.verification import (
    FailureCase,
    RuleStats,
    collect_failures,
    compute_confidence,
)

from helpers import identify_column, score_one
from oracles import evaluate_rule, implied_label

# --- the per-vehicle loops, kept as the oracle --------------------------------


def reference_matching_score(library, features, context="any", *, feature_units=None):
    evidence = []
    matched_weight = 0.0
    applicable_weight = 0.0
    n_applicable = 0
    for rule in library.rules:
        if (rule.state != "verified" or rule.polarity != "AV_indicative"
                or "identification" not in rule.tasks):
            continue
        verdict = evaluate_rule(
            rule, features, context,
            feature_units=feature_units, library_units=library.units,
        )
        weight = rule.confidence or 0.0
        evidence.append((rule.id, rule.description, verdict, weight))
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


def one_vehicle(library, features, context, *, feature_units):
    """Score and evidence of one vehicle from a one-row score_table."""
    scores = score_one(library, features, context, feature_units=feature_units)
    _, score, _ = identify_column(scores)
    return score, [(rule.id, rule.description, VERDICTS[code], rule.confidence or 0.0)
                   for rule, code in zip(scores.rules, scores.verdicts[:, 0].tolist())]


def reference_compute_confidence(rule, rows, *, library_units=None, strict_denominator=False):
    n_applicable = 0
    n_correct = 0
    for row in rows:
        verdict = evaluate_rule(
            rule, row["features"], row["context"],
            feature_units=row["unit_system"], library_units=library_units,
        )
        judged = implied_label(rule, verdict)
        if judged is None:
            continue
        n_applicable += 1
        if judged == row["label"]:
            n_correct += 1
    denom = len(rows) if strict_denominator else n_applicable
    confidence = n_correct / denom if denom else 0.0
    return RuleStats(rule.id, n_applicable, n_correct, confidence)


def reference_collect_failures(rule, rows, *, library_units=None, limit=20):
    failures = []
    for row in rows:
        verdict = evaluate_rule(
            rule, row["features"], row["context"],
            feature_units=row["unit_system"], library_units=library_units,
        )
        judged = implied_label(rule, verdict)
        if judged is not None and judged != row["label"]:
            failures.append(FailureCase(row["vehicle_id"], row["features"], row["label"],
                                        verdict, judged))
            if len(failures) >= limit:
                break
    return failures


def reference_direction_votes(library, features, context, task, directions, feature_units):
    votes = dict.fromkeys(directions, 0.0)
    for rule in library.rules:
        if (rule.state != "verified" or rule.direction not in votes
                or task not in rule.tasks):
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
        contexts=frozenset(SCOPES[rng.integers(len(SCOPES))]),
        tasks=frozenset(TASK_SETS[rng.integers(len(TASK_SETS))]),
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


def random_rows(rng, count):
    """Labeled feature rows, as io.load_feature_rows returns them."""
    return [
        {
            "vehicle_id": f"v{i}",
            "features": random_features(rng),
            "label": "AV" if rng.random() < 0.4 else "HDV",
            "context": CONTEXTS[rng.integers(len(CONTEXTS))],
            "unit_system": (None, "metric")[rng.integers(2)],
        }
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
        rows = random_rows(rng, int(rng.integers(1, 15)))
        table = FeatureTable(rows)
        matrix = table.verdict_matrix(rules, library_units="metric")
        assert matrix.shape == (len(rules), len(rows))
        for i, rule in enumerate(rules):
            for j, row in enumerate(rows):
                expected = evaluate_rule(rule, row["features"], row["context"],
                                         feature_units=row["unit_system"],
                                         library_units="metric")
                assert VERDICTS[matrix[i, j]] == expected, (trial, rule, row)
                # the library's own one-vehicle entry point agrees too
                assert rules_module.evaluate_rule(
                    rule, row["features"], row["context"],
                    feature_units=row["unit_system"], library_units="metric",
                ) == expected, (trial, rule, row)


def test_reductions_equal_per_vehicle_loops():
    rng = np.random.default_rng(4048)
    for trial in range(200):
        rules = [random_rule(rng, f"R{j}") for j in range(int(rng.integers(1, 10)))]
        library = RuleLibrary(rules=rules)
        rows = random_rows(rng, int(rng.integers(1, 30)))
        shared = FeatureTable(rows)

        # classification: one-vehicle calls and the batch over the whole table
        scores = score_table(library, shared)
        votes = {task: vote_table(library, shared, task) for task in TASK_DIRECTIONS}
        for j, row in enumerate(rows):
            features, context, units = row["features"], row["context"], row["unit_system"]
            expected = outcome(reference_matching_score, library, features, context,
                               feature_units=units)
            got = outcome(one_vehicle, library, features, context, feature_units=units)
            assert got == expected, (trial, j)
            column = outcome(identify_column, scores, 0.5, j)
            if isinstance(column, str):
                assert expected == column, (trial, j)
            else:
                assert column[1] == expected[0], (trial, j)
                assert [VERDICTS[c] for c in scores.verdicts[:, j]] == \
                    [verdict for _, _, verdict, _ in expected[1]], (trial, j)
            for task, directions in TASK_DIRECTIONS.items():
                assert dict(zip(directions, votes[task][:, j].tolist())) == \
                    reference_direction_votes(library, features, context, task, directions,
                                              units), (trial, j, task)

        # verification: a fresh table per call and the one shared with classification
        for rule in rules:
            for strict in (False, True):
                expected = reference_compute_confidence(
                    rule, rows, library_units="metric", strict_denominator=strict)
                for given in (FeatureTable(rows), shared):
                    assert compute_confidence(rule, given, library_units="metric",
                                              strict_denominator=strict) == expected, trial
            for limit in (1, 3, 20):
                expected = reference_collect_failures(rule, rows, library_units="metric",
                                                      limit=limit)
                for given in (FeatureTable(rows), shared):
                    assert collect_failures(rule, given, library_units="metric",
                                            limit=limit) == expected, trial


def test_unit_mismatch_raises_like_the_loops():
    rule = Rule(id="R1", description="d", predicate=dsl.parse_predicate("std_jerk < 0.3"),
                confidence=0.9, state="verified")
    rows = [{"vehicle_id": vid, "features": {"std_jerk": 0.1}, "label": "AV",
             "context": "any", "unit_system": unit}
            for vid, unit in (("a", "metric"), ("b", "pixel"))]
    with pytest.raises(UnitMismatchError):
        reference_compute_confidence(rule, rows, library_units="metric")
    with pytest.raises(UnitMismatchError, match="^vehicle 'b': features are in 'pixel' units"):
        compute_confidence(rule, FeatureTable(rows), library_units="metric")
    with pytest.raises(UnitMismatchError, match="^vehicle 'v': features are in 'pixel' units"):
        score_one(RuleLibrary(rules=[rule]), {"std_jerk": 0.1}, feature_units="pixel")


def test_verdict_rows_follow_predicate_and_scope():
    table = FeatureTable([
        {"vehicle_id": "a", "features": {"std_jerk": 0.1}, "context": "free_flow"},
        {"vehicle_id": "b", "features": {"std_jerk": 0.9}, "context": "congested"},
    ])
    pred = dsl.parse_predicate("std_jerk < 0.3")
    anywhere = Rule(id="A", description="d", predicate=pred)
    twin = Rule(id="B", description="other text", predicate=dsl.parse_predicate("std_jerk < 0.3"))
    congested = Rule(id="C", description="d", predicate=pred,
                     contexts=frozenset({"congested"}))
    assert [VERDICTS[c] for c in table.verdicts(anywhere)] == ["matched", "not_matched"]
    assert [VERDICTS[c] for c in table.verdicts(twin)] == ["matched", "not_matched"]
    assert [VERDICTS[c] for c in table.verdicts(congested)] == ["not_applicable", "not_matched"]


# --- predict: one vote table against per-vehicle references -----------------------

PREDICT_RULES = (  # (id, predicate, contexts, tasks, direction, state, polarity, confidence)
    ("D1", "max_decel > 1.0", ("any",), ("speed",), "decelerate", "verified", "AV", 0.9),
    ("D2", "std_accel > 0.3", ("congested",), ("speed", "identification"), "decelerate",
     "verified", "HDV", 0.35),
    ("A1", "std_jerk < 0.1", ("free_flow",), ("speed",), "accelerate", "verified", "AV", 0.6),
    ("M1", "std_accel < 0.2", ("any",), ("speed",), "maintain", "verified", "AV", 0.7),
    ("M2", "mean_speed > 14.5", ("free_flow",), ("speed",), "maintain", "verified", "AV", None),
    ("L1", "std_accel > 0.3", ("any",), ("lane_change",), "left_LC", "verified", "HDV", 0.8),
    ("K1", "std_jerk < 0.1", ("free_flow",), ("lane_change", "speed"), "keep_lane",
     "verified", "AV", 0.55),
    ("R1", "max_decel IN 0.2..0.28", ("any",), ("lane_change",), "right_LC", "verified", "AV", 0.4),
    # none of these may vote: wrong task, not verified, another task's direction, no direction
    ("X1", "max_decel > 0", ("any",), ("identification",), "decelerate", "verified", "AV", 1.0),
    ("X2", "max_decel > 0", ("any",), ("speed", "lane_change"), "left_LC", "candidate", "AV", 1.0),
    ("X3", "max_decel > 0", ("any",), ("speed",), "right_LC", "verified", "AV", 1.0),
    ("X4", "max_decel > 0", ("any",), ("lane_change",), "maintain", "verified", "AV", 1.0),
    ("X5", "max_decel > 0", ("any",), ("speed", "lane_change"), None, "verified", "AV", 1.0),
)


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """Six synthetic tracks, a congestion threshold that splits them into both
    contexts, and a library of voting and non-voting direction rules."""
    root = tmp_path_factory.mktemp("predict")
    tracks = root / "t.jsonl"
    assert cli.main(["synth", "--output", str(tracks), "--n-av", "3", "--n-hdv", "3",
                     "--duration-s", "36", "--seed", "11"]) == 0
    assert cli.main(["features", "--input", str(tracks), "--output", str(root / "f.jsonl")]) == 0
    with open(root / "f.jsonl") as fh:
        speeds = sorted(json.loads(line)["features"]["mean_speed"] for line in fh)
    threshold = 0.5 * (speeds[2] + speeds[3])
    rules = [
        Rule(id=rid, description=f"rule {rid}", predicate=dsl.parse_predicate(text),
             contexts=frozenset(contexts), tasks=frozenset(tasks),
             direction=direction, state=state, polarity=f"{polarity}_indicative",
             confidence=confidence)
        for rid, text, contexts, tasks, direction, state, polarity, confidence in PREDICT_RULES
    ]
    save_library(RuleLibrary(rules=rules), root / "lib.json")
    return tracks, root / "lib.json", threshold


def reference_predict(library, args, task):
    """cmd_predict's output built one vehicle at a time from the oracle votes."""
    cfg = cli._cfg(cli.build_parser().parse_args(args))
    directions = TASK_DIRECTIONS[task]
    neutral = "maintain" if task == "speed" else "keep_lane"
    predictions, contexts, all_votes = [], set(), set()
    tracks = [validate_trajectory(t) for t in load_trajectories(args[args.index("--input") + 1])]
    if not cfg.no_smoothing:
        tracks = smooth_trajectories(tracks, cfg.process_noise, cfg.measurement_noise)
    for t in tracks:
        kin, feats = cli._extract(t, cfg)
        context = cli._context_for(feats, cfg)
        votes = reference_direction_votes(library, feats, context, task, directions,
                                          t.unit_system)
        prior = speed_prior(kin) if task == "speed" else lane_prior(t)
        scores = _blend(votes, prior, directions)
        predictions.append({"vehicle_id": t.vehicle_id,
                            "direction": _pick(scores, directions, neutral),
                            "scores": scores})
        contexts.add(context)
        all_votes.add(tuple(votes.values()))
    return {"task": task, "predictions": predictions}, contexts, all_votes


def reference_report(library, rows, delta):
    """cmd_classify's report built one vehicle at a time from the oracle scores,
    each determined vehicle with an evidence list of its own."""
    results = []
    for row in rows:
        entry = {"vehicle_id": row["vehicle_id"]}
        try:
            score, evidence = reference_matching_score(
                library, row["features"], row.get("context", "any"),
                feature_units=row.get("unit_system"))
        except NoApplicableRulesError as exc:
            entry.update(decision=UNDETERMINED, reason=str(exc))
        else:
            if score >= delta:
                decision, confidence = "AV", (score - delta) / (1.0 - delta)
            else:
                decision, confidence = "HDV", (delta - score) / delta
            entry.update(decision=decision, score=score, confidence=confidence, evidence=[
                {"rule_id": rule_id, "verdict": verdict, "weight": weight}
                for rule_id, _, verdict, weight in evidence])
        if "label" in row:
            entry["label"] = row["label"]
        results.append(entry)
    return {"delta": delta, "library_version": library.version, "theta": library.theta,
            "results": results}


def printable_rule(rng, rid):
    """A random rule whose predicate a library file can hold."""
    while True:
        rule = random_rule(rng, rid)
        try:
            dsl.to_dsl(rule.predicate)
        except ValueError:  # a nesting the DSL cannot print
            continue
        return rule


def test_cmd_classify_report_bytes_equal_per_vehicle_reference(tmp_path):
    rng = np.random.default_rng(3031)
    rows_path, lib_path, out = tmp_path / "f.jsonl", tmp_path / "lib.json", tmp_path / "r.json"
    seen = {"undetermined": 0, "determined": 0, "unlabeled": 0, "shared": 0}
    for trial in range(40):
        rules = [printable_rule(rng, f"R{j}") for j in range(int(rng.integers(1, 10)))]
        save_library(RuleLibrary(rules=rules, theta=float(rng.random())), lib_path)
        rows = random_rows(rng, int(rng.integers(1, 60)))
        for row in rows:  # what a feature file can hold: no NaN, no null units
            row["features"] = {k: v for k, v in row["features"].items() if v == v}
            if row["unit_system"] is None:
                del row["unit_system"]
            if rng.random() < 0.3:
                del row["label"]
        rows_path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        delta = float(rng.uniform(0.05, 0.95))
        assert cli.main(["classify", "--features", str(rows_path), "--library", str(lib_path),
                         "--output", str(out), "--delta", repr(delta)]) == 0
        expected = reference_report(load_library(lib_path), rows, delta)
        assert out.read_bytes() == \
            (json.dumps(expected, indent=2, sort_keys=True) + "\n").encode("utf-8"), trial
        columns = [json.dumps(r["evidence"]) for r in expected["results"] if "evidence" in r]
        seen["determined"] += len(columns)
        seen["undetermined"] += len(rows) - len(columns)
        seen["unlabeled"] += sum("label" not in row for row in rows)
        seen["shared"] += len(columns) - len(set(columns))
    # not vacuous: both kinds of entry, rows without labels, and repeated evidence lists
    assert min(seen.values()) > 20, seen


@pytest.mark.parametrize("task", ["speed", "lane_change"])
def test_cmd_predict_equals_per_vehicle_reference(fleet, tmp_path, task):
    tracks, lib_path, threshold = fleet
    out = tmp_path / "p.json"
    args = ["predict", "--input", str(tracks), "--library", str(lib_path), "--output", str(out),
            "--task", task, "--context", "auto", "--congestion-speed-threshold", str(threshold)]
    assert cli.main(args) == 0
    expected, contexts, all_votes = reference_predict(load_library(lib_path), args, task)
    assert json.loads(out.read_text()) == expected
    # not vacuous: both contexts occur, and the rules split the fleet's votes
    assert contexts == {"free_flow", "congested"}
    assert len(all_votes) > 1


def test_cmd_predict_unit_mismatch_names_the_vehicle(tmp_path, capsys):
    tracks = tmp_path / "t.jsonl"
    with open(tracks, "w") as fh:
        for i, unit in enumerate(("metric", "pixel", "pixel")):
            points = [[t, 0.5 * t, 0.0] for t in range(200)]
            fh.write(json.dumps({"vehicle_id": f"v{i}", "frame_rate": 25.0, "unit_system": unit,
                                 "unit_scale": 0.1, "points": points}) + "\n")
    lib_path = tmp_path / "lib.json"
    save_library(RuleLibrary(rules=[Rule(
        id="P1", description="d", predicate=dsl.parse_predicate("std_accel < 9"),
        tasks=frozenset({"lane_change"}),
        confidence=1.0, state="verified", direction="keep_lane")]), lib_path)
    rc = cli.main(["predict", "--input", str(tracks), "--library", str(lib_path),
                   "--output", str(tmp_path / "p.json"), "--task", "lane_change"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: vehicle 'v1': features are in 'pixel' units, library expects 'metric'\n"
    )
