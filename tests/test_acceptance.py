"""End-to-end acceptance checks.

One test per acceptance criterion. The first docstring line of each test is
echoed as a PASS/FAIL line in the terminal summary (see conftest), and every
test asserts its own wall-clock budget.
"""
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from trajrules import cli, dsl
from trajrules.classification import infer_context
from trajrules.config import RunConfig
from trajrules.errors import NoApplicableRulesError
from trajrules.kinematics import compute_kinematics
from trajrules.metrics import compute_metrics, compute_roc_auc, f1_score
from trajrules.rules import (
    FeatureTable,
    Rule,
    RuleLibrary,
    seed_library,
)
from trajrules.synth import GeneratorConfig, generate_dataset
from trajrules.trajectory import LANE_CHANGE_THRESHOLDS, smooth_trajectory
from trajrules.verification import compute_confidence, run_verification_loop

from helpers import (
    ORACLE_ATOMS,
    ScriptedBackend,
    clause_text,
    identify_column,
    label_means,
    make_trajectory,
    random_clause,
    rounded,
    score_one,
)
from oracles import naive_confidence, naive_kinematics, oracle_score

MOCK_DIR = str(Path(__file__).resolve().parent.parent / "fixtures" / "mock")


def make_rule(rid, text, *, state="verified", polarity="AV_indicative",
              confidence=1.0, contexts=("any",)):
    return Rule(
        id=rid,
        description=f"rule {rid}",
        predicate=dsl.parse_predicate(text),
        contexts=frozenset(contexts),
        tasks=frozenset({"identification"}),
        category="smoothness",
        polarity=polarity,
        state=state,
        confidence=confidence,
    )


def refinement(rule_id, condition):
    return (f"```refinement\nrule_id: {rule_id}\naction: adjust_threshold\n"
            f"condition: {condition}\nrationale: tighten\n```")


# ---------------------------------------------------------------- criterion 1

def test_f1_recovers_reported_value():
    """f1_score(0.894, 0.980) lands within 0.003 of 0.933, in under 1 s"""
    start = time.monotonic()
    assert abs(f1_score(0.894, 0.980) - 0.933) < 0.003
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------- criterion 2

def test_kinematics_match_naive_oracle():
    """velocity/acceleration/jerk match a naive central-difference oracle to 1e-9 relative on 1000 random trajectories, in under 10 s"""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        n = int(rng.integers(7, 140))
        frame_rate = float(rng.choice([10.0, 25.0, 30.0]))
        dt = 1.0 / frame_rate
        ax = rng.normal(0.0, 1.5, n)
        ay = rng.normal(0.0, 0.6, n)
        xs = np.cumsum(10.0 + np.cumsum(ax) * dt) * dt
        ys = np.cumsum(np.cumsum(ay) * dt) * dt
        kwargs = {}
        if trial % 3 == 0:
            kwargs = {"unit_system": "pixel",
                      "unit_scale": round(float(rng.uniform(0.05, 0.5)), 3)}
        traj = make_trajectory(xs, ys, frame_rate=frame_rate, **kwargs)
        kin = compute_kinematics(traj)
        v, a, j = naive_kinematics(traj)
        assert np.allclose(kin.velocity, v, rtol=1e-9, atol=1e-12), trial
        assert np.allclose(kin.acceleration, a, rtol=1e-9, atol=1e-12), trial
        assert np.allclose(kin.jerk, j, rtol=1e-9, atol=1e-12), trial
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------- criterion 3

def random_fixture(rng, trial):
    context_pool = (("any",), ("free_flow",), ("congested",), ("free_flow", "congested"))
    specs, rules = [], []
    for j in range(int(rng.integers(1, 8))):
        clauses = [random_clause(rng) for _ in range(int(rng.integers(1, 3)))]
        joiner = "AND" if rng.random() < 0.5 else "OR"
        contexts = context_pool[rng.integers(len(context_pool))]
        state = ("verified", "verified", "candidate", "retired")[rng.integers(4)]
        polarity = "AV_indicative" if rng.random() < 0.75 else "HDV_indicative"
        conf = 0.0 if rng.random() < 0.1 else round(float(rng.uniform(0, 1)), 3)
        specs.append((clauses, joiner, contexts, state, polarity, conf))
        rules.append(make_rule(
            f"T{trial}_{j}", f" {joiner} ".join(clause_text(c) for c in clauses),
            state=state, polarity=polarity, confidence=conf, contexts=contexts,
        ))
    feats = {}
    for atom in ORACLE_ATOMS:
        roll = rng.random()
        if roll < 0.15:
            continue
        feats[atom] = float("nan") if roll < 0.25 else round(float(rng.uniform(0, 5)), 3)
    return specs, rules, feats


def test_matching_score_equals_brute_force():
    """the matching score equals a brute-force recount on 1000 random rule-set/feature fixtures, exactly, in under 10 s"""
    start = time.monotonic()
    rng = np.random.default_rng(77)
    for trial in range(1000):
        specs, rules, feats = random_fixture(rng, trial)
        context = ("any", "free_flow", "congested")[rng.integers(3)]
        expected = oracle_score(specs, feats, context)
        lib = RuleLibrary(rules=rules, theta=0.7)
        if expected is None:
            with pytest.raises(NoApplicableRulesError):
                identify_column(score_one(lib, feats, context=context))
        else:
            _, score, _ = identify_column(score_one(lib, feats, context=context))
            assert score == expected, f"trial {trial}"
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------- criterion 4

def random_rows(rng, count):
    rows = []
    for i in range(count):
        feats = {}
        for atom in ORACLE_ATOMS:
            roll = rng.random()
            if roll < 0.15:
                continue
            feats[atom] = float("nan") if roll < 0.25 else round(float(rng.uniform(0, 5)), 3)
        rows.append({
            "vehicle_id": f"v{i}",
            "features": feats,
            "label": "AV" if rng.random() < 0.5 else "HDV",
            "context": ("any", "free_flow", "congested")[rng.integers(3)],
        })
    return rows


def test_confidence_matches_recounts_and_loop_respects_theta():
    """rule confidence equals independent recounts on 200 fixtures, and after the loop every surviving rule clears theta, in under 10 s"""
    start = time.monotonic()
    rng = np.random.default_rng(31)
    for trial in range(200):
        clauses = [random_clause(rng) for _ in range(int(rng.integers(1, 3)))]
        joiner = "AND" if rng.random() < 0.5 else "OR"
        rule = make_rule(
            f"C{trial}", f" {joiner} ".join(clause_text(c) for c in clauses),
            polarity="AV_indicative" if rng.random() < 0.7 else "HDV_indicative",
            contexts=(("any",), ("free_flow",), ("congested",))[rng.integers(3)],
        )
        rows = random_rows(rng, int(rng.integers(1, 25)))
        for strict in (False, True):
            got = compute_confidence(rule, FeatureTable(rows),
                                     strict_denominator=strict)
            assert got.confidence == naive_confidence(rule, rows, strict), trial
    # the loop itself: whatever happens, no sub-threshold rule survives
    for round_ in range(5):
        rules = []
        for j in range(int(rng.integers(3, 12))):
            clauses = [random_clause(rng) for _ in range(int(rng.integers(1, 3)))]
            rules.append(make_rule(
                f"L{round_}_{j}", " OR ".join(clause_text(c) for c in clauses),
                state="candidate", confidence=None,
                polarity="AV_indicative" if rng.random() < 0.7 else "HDV_indicative",
            ))
        lib = RuleLibrary(rules=rules, theta=0.7)
        result = run_verification_loop(
            lib, FeatureTable(random_rows(rng, 30)),
            ScriptedBackend(["nothing to say"]),
            max_iterations=5,
        )
        assert result.reason in ("all_verified", "stalled", "max_iterations")
        for rule in lib.rules:
            if rule.state != "retired":
                assert rule.state == "verified"
                assert rule.confidence >= lib.theta, rule.id
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------- criterion 5

def test_synthetic_end_to_end_identification():
    """synthetic 100 AV / 400 HDV run: seed-library classification at delta 0.5 reaches accuracy >= 0.90 and AV recall >= 0.95, in under 60 s"""
    start = time.monotonic()
    cfg = GeneratorConfig(n_av=100, n_hdv=400, duration_s=60.0, seed=0, separation=1.0)
    trajectories = generate_dataset(cfg)
    # RunConfig's lane-change window, and the metric threshold synth lays lane changes out in
    run_cfg = replace(RunConfig(), lc_threshold=LANE_CHANGE_THRESHOLDS["metric"])
    features = [cli._extract(traj, run_cfg)[1] for traj in trajectories]

    # the feature rows of the generated tracks must show the populations on
    # opposite sides of the seed thresholds before classification gets any credit
    means = label_means([{"label": traj.label, "features": rounded(feats)}
                         for traj, feats in zip(trajectories, features)])
    av, hdv = means["AV"], means["HDV"]
    assert av["max_decel"] < 0.6 < hdv["max_decel"]
    assert av["std_jerk"] < 0.3 < hdv["std_jerk"]
    assert hdv["speed_fluctuation_rate"] < 2.4 < av["speed_fluctuation_rate"]
    assert 0.2 <= av["pre_lane_change_decel"] <= 0.3
    assert hdv["std_speed"] > 2.0

    lib = seed_library()
    predictions, labels, scores = [], [], []
    for traj, feats in zip(trajectories, features):
        context = infer_context(feats["mean_speed"])
        try:
            decision, score, _ = identify_column(
                score_one(lib, feats, context, feature_units="metric"), delta=0.5)
            predictions.append(decision)
            scores.append(score)
        except NoApplicableRulesError:
            predictions.append("undetermined")
            scores.append(None)
        labels.append(traj.label)

    metrics = compute_metrics(predictions, labels, count_undetermined_as_error=True)
    assert metrics.accuracy >= 0.90, metrics.accuracy
    assert metrics.per_class["AV"]["recall"] >= 0.95, metrics.per_class["AV"]
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------- criterion 6

LOOP_ROWS = [
    {"vehicle_id": "av1", "features": {"std_jerk": 0.2, "std_accel": 0.2}, "label": "AV"},
    {"vehicle_id": "av2", "features": {"std_jerk": 0.25, "std_accel": 0.25}, "label": "AV"},
    {"vehicle_id": "hdv1", "features": {"std_jerk": 0.5, "std_accel": 0.5}, "label": "HDV"},
    {"vehicle_id": "hdv2", "features": {"std_jerk": 0.6, "std_accel": 0.6}, "label": "HDV"},
]


def test_refinement_loop_promotes_and_retires():
    """a helpful refinement verifies a weak rule within 2 iterations; a never-improving one retires it by iteration 5, in under 5 s"""
    start = time.monotonic()
    # helpful: widening the threshold makes the rule separate the samples
    lib = RuleLibrary(rules=[make_rule("G", "std_jerk < 0.3", state="candidate", confidence=None),
                             make_rule("B", "std_accel < 0.1", state="candidate", confidence=None)],
                      theta=0.7)
    backend = ScriptedBackend([refinement("B", "std_accel < 0.3")])
    result = run_verification_loop(lib, FeatureTable(LOOP_ROWS), backend,
                                   max_iterations=5)
    assert result.reason == "all_verified"
    assert result.iterations <= 2
    assert lib.get("B").state == "verified"
    assert lib.get("B").confidence >= lib.theta

    # never-improving, variant 1: the suggestion is a no-op, so confidence
    # stalls and the rule is retired on the second iteration
    lib = RuleLibrary(rules=[make_rule("B", "std_accel < 0.1", state="candidate", confidence=None)],
                      theta=0.7)
    backend = ScriptedBackend([refinement("B", "std_accel < 0.1")])
    result = run_verification_loop(lib, FeatureTable(LOOP_ROWS), backend,
                                   max_iterations=5)
    assert result.reason == "stalled"
    assert result.iterations <= 5
    assert lib.get("B").state == "retired"

    # never-improving, variant 2: suggestions keep changing the predicate
    # without ever clearing theta, so the iteration budget retires it
    lib = RuleLibrary(rules=[make_rule("B", "std_accel < 0.1", state="candidate", confidence=None)],
                      theta=0.9)
    backend = ScriptedBackend([refinement("B", "std_accel < 0.22"),
                               refinement("B", "std_accel < 0.1")])
    result = run_verification_loop(lib, FeatureTable(LOOP_ROWS), backend,
                                   max_iterations=5)
    assert result.reason == "max_iterations"
    assert result.iterations == 5
    assert lib.get("B").state == "retired"
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------- criterion 7

def run_pipeline(root):
    root.mkdir(exist_ok=True)
    trajs = root / "t.jsonl"
    feats = root / "f.jsonl"
    discovered = root / "discovered.json"
    verified = root / "verified.json"
    report = root / "report.json"
    metrics = root / "metrics.json"
    steps = [
        ["synth", "--output", str(trajs), "--n-av", "6", "--n-hdv", "10",
         "--duration-s", "60", "--seed", "42"],
        ["features", "--input", str(trajs), "--output", str(feats),
         "--no-smoothing", "--lc-window", "120", "--lc-threshold", "2.0"],
        ["discover", "--features", str(feats), "--output", str(discovered),
         "--seed-rules", "--mock-dir", MOCK_DIR],
        ["verify", "--features", str(feats), "--library", str(discovered),
         "--output", str(verified), "--mock-dir", MOCK_DIR],
        ["classify", "--features", str(feats), "--library", str(verified),
         "--output", str(report)],
        ["evaluate", "--report", str(report), "--output", str(metrics)],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv[0]
    return verified.read_bytes(), report.read_bytes(), metrics.read_bytes()


def test_pipeline_runs_are_byte_identical(tmp_path):
    """two seed-42 pipeline runs (synth>features>discover>verify>classify>evaluate) produce byte-identical libraries and metrics, in under 2 min"""
    start = time.monotonic()
    first = run_pipeline(tmp_path / "a")
    second = run_pipeline(tmp_path / "b")
    assert first[0] == second[0], "rule libraries differ"
    assert first[1] == second[1], "classification reports differ"
    assert first[2] == second[2], "metric files differ"
    assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------- criterion 8

def test_auc_properties():
    """ROC-AUC: perfect split gives 1.0, shuffled labels (n=1000) give 0.5 +/- 0.05, monotone transforms leave it exactly unchanged, in under 5 s"""
    start = time.monotonic()
    rng = np.random.default_rng(5)

    pos = list(rng.uniform(0.6, 1.0, 50))
    neg = list(rng.uniform(0.0, 0.4, 50))
    assert compute_roc_auc(pos + neg, ["AV"] * 50 + ["HDV"] * 50) == 1.0

    scores = list(rng.random(1000))
    labels = ["AV"] * 500 + ["HDV"] * 500
    rng.shuffle(labels)
    assert abs(compute_roc_auc(scores, labels) - 0.5) <= 0.05

    base = list(rng.random(400))
    labels = ["AV" if rng.random() < 0.4 else "HDV" for _ in base]
    reference = compute_roc_auc(base, labels)
    assert compute_roc_auc([3.0 * s + 1.0 for s in base], labels) == reference
    assert compute_roc_auc([math.exp(s) for s in base], labels) == reference
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------- criterion 9

def test_kalman_beats_raw_positions():
    """Kalman smoothing beats raw noisy positions on RMSE in 100 of 100 seeded linear-motion trials, in under 5 s"""
    start = time.monotonic()
    wins = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        n, dt = 200, 1.0 / 25.0
        t = np.arange(n) * dt
        true_x = 5.0 + float(rng.uniform(5, 20)) * t
        true_y = 2.0 + float(rng.uniform(-1, 1)) * t
        noisy_x = true_x + rng.normal(0.0, 2.0, n)
        noisy_y = true_y + rng.normal(0.0, 2.0, n)
        traj = make_trajectory(noisy_x, noisy_y, frame_rate=25.0)
        smoothed = smooth_trajectory(traj, 1e-2, 4.0)
        sx, sy = smoothed.x, smoothed.y

        def rmse(ax, ay):
            return math.sqrt(float(np.mean((ax - true_x) ** 2 + (ay - true_y) ** 2)))

        if rmse(sx, sy) < rmse(noisy_x, noisy_y):
            wins += 1
    assert wins == 100, f"smoothing won only {wins}/100 trials"
    assert time.monotonic() - start < 5.0
