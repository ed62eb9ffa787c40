import pytest

from trajrules import dsl
from trajrules.errors import EmptyValidationTableError, InputError
from trajrules.llm import RefinementSuggestion
from trajrules.rules import (
    MATCHED,
    NOT_APPLICABLE,
    NOT_MATCHED,
    FeatureTable,
    Rule,
    RuleLibrary,
)
from trajrules.verification import (
    apply_suggestion,
    collect_failures,
    compute_confidence,
    discover_rules,
    run_verification_loop,
)

from helpers import ScriptedBackend
from oracles import implied_label


def make_rule(rid="R1", text="std_jerk < 0.3", polarity="AV_indicative",
              contexts=("any",), tasks=("identification",), state="candidate",
              confidence=None):
    return Rule(
        id=rid,
        description="test rule",
        predicate=dsl.parse_predicate(text),
        contexts=frozenset(contexts),
        tasks=frozenset(tasks),
        category="smoothness",
        polarity=polarity,
        state=state,
        confidence=confidence,
    )


def sample(vid, label, **features):
    """One labeled feature row, as io.load_feature_rows returns it."""
    return {"vehicle_id": vid, "label": label, "features": features}


FOUR = [
    sample("av1", "AV", std_jerk=0.2, std_accel=0.2),
    sample("av2", "AV", std_jerk=0.4, std_accel=0.25),
    sample("hdv1", "HDV", std_jerk=0.5, std_accel=0.5),
    sample("hdv2", "HDV", std_jerk=0.1, std_accel=0.6),
]


def test_implied_label_matrix():
    av_rule = make_rule(polarity="AV_indicative")
    hdv_rule = make_rule(polarity="HDV_indicative")
    assert implied_label(av_rule, MATCHED) == "AV"
    assert implied_label(av_rule, NOT_MATCHED) == "HDV"
    assert implied_label(hdv_rule, MATCHED) == "HDV"
    assert implied_label(hdv_rule, NOT_MATCHED) == "AV"
    assert implied_label(av_rule, NOT_APPLICABLE) is None


def test_compute_confidence_exact_fraction():
    # av1 matched (correct), av2 miss (wrong), hdv1 miss (correct),
    # hdv2 matched (wrong) -> 2/4
    st = compute_confidence(make_rule(), FeatureTable(FOUR))
    assert st.n_applicable == 4
    assert st.n_correct == 2
    assert st.confidence == pytest.approx(0.5)


def test_compute_confidence_excludes_not_applicable():
    samples = FOUR + [sample("na1", "AV", std_accel=0.2)]  # std_jerk missing
    st = compute_confidence(make_rule(), FeatureTable(samples))
    assert st.n_applicable == 4
    assert st.confidence == pytest.approx(0.5)


def test_compute_confidence_strict_denominator():
    samples = FOUR + [sample("na1", "AV", std_accel=0.2)]
    st = compute_confidence(make_rule(), FeatureTable(samples), strict_denominator=True)
    assert st.n_applicable == 4
    assert st.confidence == pytest.approx(2 / 5)


def test_compute_confidence_zero_applicable():
    st = compute_confidence(make_rule(text="lane_change_angle < 10"), FeatureTable(FOUR))
    assert st.n_applicable == 0
    assert st.confidence == 0.0


def test_compute_confidence_context_scoping():
    rule = make_rule(contexts=("free_flow",))
    samples = [
        {**sample("a", "AV", std_jerk=0.2), "context": "free_flow"},
        {**sample("b", "AV", std_jerk=0.2), "context": "congested"},
    ]
    st = compute_confidence(rule, FeatureTable(samples))
    assert st.n_applicable == 1 and st.n_correct == 1


def test_compute_confidence_hdv_polarity():
    rule = make_rule(text="std_accel > 0.4", polarity="HDV_indicative")
    st = compute_confidence(rule, FeatureTable(FOUR))
    assert st.confidence == 1.0


def test_compute_confidence_empty_samples():
    with pytest.raises(EmptyValidationTableError):
        compute_confidence(make_rule(), FeatureTable([]))


def test_collect_failures_order_and_limit():
    wrong = [sample(f"w{i}", "AV", std_jerk=0.9) for i in range(5)]
    right = [sample("ok", "AV", std_jerk=0.1)]
    failures = collect_failures(make_rule(), FeatureTable(right + wrong), limit=3)
    assert [f["vehicle_id"] for f in failures] == ["w0", "w1", "w2"]
    assert all(f["rule_verdict"] == NOT_MATCHED and f["rule_judged"] == "HDV" for f in failures)
    assert all(f["label"] == "AV" and f["features"] == {"std_jerk": 0.9} for f in failures)


def test_apply_suggestion_retire_keeps_revision():
    rule = make_rule(state="verified", confidence=0.4)
    out = apply_suggestion(rule, RefinementSuggestion("R1", "retire", rationale="weak"))
    assert out.state == "retired"
    assert out.revision == rule.revision
    assert out.confidence == 0.4
    assert out.predicate_text == rule.predicate_text


def test_apply_suggestion_adjust_threshold():
    rule = make_rule(state="verified", confidence=0.6)
    out = apply_suggestion(
        rule, RefinementSuggestion("R1", "adjust_threshold",
                                   new_predicate=dsl.parse_predicate("std_jerk < 0.25"))
    )
    assert out.predicate_text == "std_jerk < 0.25"
    assert out.state == "candidate"
    assert out.confidence is None
    assert out.revision == rule.revision + 1
    assert out.contexts == rule.contexts
    assert out.tasks == rule.tasks


def test_apply_suggestion_add_context():
    rule = make_rule(tasks=("identification", "speed"))
    out = apply_suggestion(
        rule,
        RefinementSuggestion("R1", "add_context", new_contexts=frozenset({"free_flow"})),
    )
    assert out.contexts == frozenset({"free_flow"})
    assert out.tasks == frozenset({"identification", "speed"})
    assert out.predicate_text == rule.predicate_text
    assert out.revision == rule.revision + 1


DISCOVERY_TEXT = """
```rule
id: D1
description: very smooth jerk profile
condition: std_jerk < 0.33
category: smoothness
```

```rule
id: D2
description: bogus atom
condition: headway_variance < 1
category: following
```
"""


def test_discover_rules_parses_and_rejects():
    backend = ScriptedBackend([DISCOVERY_TEXT])
    av = [{"vehicle_id": "a", "features": {"std_jerk": 0.2}}]
    hdv = [{"vehicle_id": "h", "features": {"std_jerk": 0.5}}]
    rules, rejected = discover_rules(backend, av, hdv)
    assert [r.id for r in rules] == ["D1"]
    assert len(rejected) == 1
    assert "headway_variance" in rejected[0].reason


def refinement(rule_id, condition):
    return (f"```refinement\nrule_id: {rule_id}\naction: adjust_threshold\n"
            f"condition: {condition}\nrationale: tighten\n```")


def test_loop_converges_with_helpful_backend():
    lib = RuleLibrary(rules=[make_rule("G", "std_jerk < 0.3"),
                             make_rule("B", "std_accel < 0.1")], theta=0.7)
    samples = [
        sample("av1", "AV", std_jerk=0.2, std_accel=0.2),
        sample("av2", "AV", std_jerk=0.25, std_accel=0.25),
        sample("hdv1", "HDV", std_jerk=0.5, std_accel=0.5),
        sample("hdv2", "HDV", std_jerk=0.6, std_accel=0.6),
    ]
    backend = ScriptedBackend([refinement("B", "std_accel < 0.3")])
    result = run_verification_loop(lib, FeatureTable(samples), backend, max_iterations=5)
    assert result.reason == "all_verified"
    assert result.iterations == 2
    assert backend.calls == 1
    assert lib.get("G").state == "verified"
    b = lib.get("B")
    assert b.state == "verified"
    assert b.predicate_text == "std_accel < 0.3"
    assert b.confidence == 1.0
    assert b.revision == 1
    # one measurement bump per iteration plus the replace_rule bump
    assert lib.version == 4
    refined = [p for p in lib.provenance if p["event"] == "refined"]
    assert len(refined) == 1
    assert "std_accel < 0.1 -> std_accel < 0.3" in refined[0]["detail"]
    assert refined[0]["iteration"] == 1


def test_loop_retires_zero_coverage_rules():
    lib = RuleLibrary(rules=[make_rule("G", "std_jerk < 0.3"),
                             make_rule("Z", "lane_change_angle IN 15..20")], theta=0.7)
    samples = [
        sample("av1", "AV", std_jerk=0.2),
        sample("hdv1", "HDV", std_jerk=0.5),
    ]
    backend = ScriptedBackend(["no fences here"])
    result = run_verification_loop(lib, FeatureTable(samples), backend)
    assert result.reason == "all_verified"
    assert result.iterations == 1
    assert backend.calls == 0
    assert lib.get("Z").state == "retired"
    entry = next(p for p in lib.provenance if p["rule_id"] == "Z")
    assert entry["event"] == "retired"
    assert entry["detail"] == "no coverage on the validation set"
    assert result.stats["Z"].n_applicable == 0


def test_loop_stalls_on_noop_refinement():
    lib = RuleLibrary(rules=[make_rule("B", "std_accel < 0.1")], theta=0.7)
    samples = [
        sample("av1", "AV", std_accel=0.2),
        sample("hdv1", "HDV", std_accel=0.5),
    ]
    # the backend keeps suggesting the threshold the rule already has
    backend = ScriptedBackend([refinement("B", "std_accel < 0.1")])
    result = run_verification_loop(lib, FeatureTable(samples), backend, max_iterations=5)
    assert result.reason == "stalled"
    assert result.iterations == 2
    b = lib.get("B")
    assert b.state == "retired"
    entry = lib.provenance[-1]
    assert entry["event"] == "retired"
    assert entry["detail"] == (
        "confidence 0.500 below threshold 0.7 at loop exit (stalled)"
    )


def test_loop_oscillation_hits_iteration_budget():
    lib = RuleLibrary(rules=[make_rule("B", "std_accel < 0.1")], theta=0.9)
    samples = [
        sample("av1", "AV", std_accel=0.2),
        sample("av2", "AV", std_accel=0.25),
        sample("hdv1", "HDV", std_accel=0.5),
        sample("hdv2", "HDV", std_accel=0.6),
    ]
    # suggested thresholds bounce between 0.5 and 0.75 confidence, so the
    # stall test never fires and the budget has to stop the loop
    backend = ScriptedBackend([
        refinement("B", "std_accel < 0.22"),
        refinement("B", "std_accel < 0.1"),
    ])
    result = run_verification_loop(lib, FeatureTable(samples), backend, max_iterations=3)
    assert result.reason == "max_iterations"
    assert result.iterations == 3
    assert backend.calls == 2
    assert lib.get("B").state == "retired"
    assert "(max_iterations)" in lib.provenance[-1]["detail"]


def test_loop_applies_add_context_and_records_it():
    # the rule holds in free flow; a congested HDV breaks it until its contexts narrow
    lib = RuleLibrary(rules=[make_rule("C", "std_accel < 0.3")], theta=0.7)
    samples = [
        {**sample("av1", "AV", std_accel=0.2), "context": "free_flow"},
        {**sample("hdv1", "HDV", std_accel=0.5), "context": "free_flow"},
        {**sample("hdv2", "HDV", std_accel=0.1), "context": "congested"},
    ]
    backend = ScriptedBackend(["```refinement\nrule_id: C\naction: add_context\n"
                               "contexts: free_flow\nrationale: congestion masks it\n```"])
    result = run_verification_loop(lib, FeatureTable(samples), backend, max_iterations=5)
    assert (result.reason, result.iterations, backend.calls) == ("all_verified", 2, 1)
    c = lib.get("C")
    assert (c.state, c.contexts, c.confidence, c.revision) == (
        "verified", frozenset({"free_flow"}), 1.0, 1)
    assert c.predicate_text == "std_accel < 0.3"
    (refined,) = [p for p in lib.provenance if p["event"] == "refined"]
    # measured at version 2, replaced at 3, measured again at 4
    assert lib.version == 4
    assert refined == {"version": 3, "event": "refined", "rule_id": "C",
                       "iteration": 1, "detail": "add_context: contexts -> ['free_flow'] "
                                                 "(congestion masks it)"}


def test_loop_all_verified_at_entry():
    lib = RuleLibrary(rules=[make_rule("G", "std_jerk < 0.3")], theta=0.7)
    samples = [
        sample("av1", "AV", std_jerk=0.2),
        sample("hdv1", "HDV", std_jerk=0.5),
    ]
    backend = ScriptedBackend(["unused"])
    result = run_verification_loop(lib, FeatureTable(samples), backend)
    assert result.reason == "all_verified"
    assert result.iterations == 1
    assert backend.calls == 0
    assert lib.get("G").state == "verified"
    assert lib.get("G").confidence == 1.0


def test_loop_skips_rule_without_suggestion_then_stalls():
    lib = RuleLibrary(rules=[make_rule("B", "std_accel < 0.1")], theta=0.7)
    samples = [
        sample("av1", "AV", std_accel=0.2),
        sample("hdv1", "HDV", std_accel=0.5),
    ]
    # reflection answers about some other rule entirely
    backend = ScriptedBackend([refinement("OTHER", "std_accel < 0.3")])
    result = run_verification_loop(lib, FeatureTable(samples), backend, max_iterations=5)
    assert result.reason == "stalled"
    assert result.iterations == 2
    assert backend.calls == 1
    assert lib.get("B").state == "retired"
    assert lib.get("B").revision == 0


def test_loop_retires_candidates_without_failures():
    # strict denominator: 1/3 correct coverage is sub-threshold but there is
    # no wrong judgment to reflect on
    lib = RuleLibrary(rules=[make_rule("T", "std_jerk < 0.3")], theta=0.7)
    samples = [
        sample("av1", "AV", std_jerk=0.2),
        sample("na1", "AV", std_accel=0.2),
        sample("na2", "HDV", std_accel=0.5),
    ]
    backend = ScriptedBackend(["unused"])
    result = run_verification_loop(lib, FeatureTable(samples), backend, strict_denominator=True)
    assert backend.calls == 0
    assert lib.get("T").state == "retired"
    entry = next(p for p in lib.provenance if p["rule_id"] == "T")
    assert entry["detail"] == "no failure cases to reflect on"
    assert result.reason == "all_verified"
    assert result.iterations == 2


def test_loop_input_validation():
    lib = RuleLibrary(rules=[make_rule()])
    backend = ScriptedBackend(["x"])
    with pytest.raises(EmptyValidationTableError):
        run_verification_loop(lib, FeatureTable([]), backend)
    with pytest.raises(ValueError):
        run_verification_loop(lib, FeatureTable(FOUR), backend, max_iterations=0)


@pytest.mark.parametrize("label,message", [
    (None, "feature row for 'x' has no label; verification needs ground truth"),
    ("car", "feature row for 'x' has label 'car'; verification needs AV or HDV"),
], ids=["missing", "unknown"])
def test_every_row_needs_an_av_or_hdv_label(label, message):
    rows = [*FOUR, sample("x", label, std_jerk=0.2)]
    with pytest.raises(InputError, match=f"^{message}$"):
        compute_confidence(make_rule(), FeatureTable(rows))
    with pytest.raises(InputError, match=f"^{message}$"):
        collect_failures(make_rule(), FeatureTable(rows))
    # checked before the first iteration, so it fails with no rule to score too
    lib = RuleLibrary(rules=[make_rule(state="retired")])
    backend = ScriptedBackend(["unused"])
    with pytest.raises(InputError, match=f"^{message}$"):
        run_verification_loop(lib, FeatureTable(rows), backend)
