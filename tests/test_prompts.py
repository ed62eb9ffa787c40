import pytest

from trajrules.errors import EmptySampleSetError
from trajrules.llm import KIND_MARKERS
from trajrules.prompts import (
    PROMPT_CHAR_BUDGET,
    build_discovery_prompt,
    build_reflection_prompt,
    digest_sample,
)
from trajrules.rules import seed_library


def make_digests(prefix, n, label):
    return [
        digest_sample(
            f"{prefix}_{i:04d}",
            {"mean_speed": 10.0 + i, "std_jerk": 0.123456, "std_accel": 0.5},
            label=label,
        )
        for i in range(n)
    ]


def user_text(messages):
    assert messages[0].role == "system"
    assert messages[1].role == "user"
    return messages[1].content


def test_digest_sample_rounds_and_orders():
    d = digest_sample("v1", {"std_jerk": 0.123456789, "mean_speed": 3.0}, label="AV")
    assert d["vehicle_id"] == "v1"
    assert d["label"] == "AV"
    assert set(d) == {"vehicle_id", "label", "features"}
    assert d["features"]["std_jerk"] == 0.1235
    assert list(d["features"]) == ["mean_speed", "std_jerk"]


def test_digest_sample_optional_fields_omitted():
    d = digest_sample("v1", {"mean_speed": 3.0})
    assert set(d) == {"vehicle_id", "features"}


def test_discovery_prompt_structure():
    av = make_digests("av", 3, "AV")
    hdv = make_digests("hdv", 4, "HDV")
    messages = build_discovery_prompt(av, hdv)
    text = user_text(messages)
    assert KIND_MARKERS["discovery"] in text
    assert "### Automated vehicles" in text
    assert "### Human-driven vehicles" in text
    assert '"vehicle_id":"av_0000"' in text
    assert '"vehicle_id":"hdv_0003"' in text
    assert "```rule" in text
    assert "std_jerk" in text  # atom vocabulary listed
    # deterministic: same inputs, same bytes
    again = build_discovery_prompt(av, hdv)
    assert [m.content for m in again] == [m.content for m in messages]


def test_discovery_prompt_empty_groups():
    av = make_digests("av", 1, "AV")
    with pytest.raises(EmptySampleSetError):
        build_discovery_prompt(av, [])
    with pytest.raises(EmptySampleSetError):
        build_discovery_prompt([], av)


def test_discovery_budget_drops_oldest_from_larger_side():
    av = make_digests("av", 40, "AV")
    hdv = make_digests("hdv", 4, "HDV")
    full = build_discovery_prompt(av, hdv)
    budget = sum(len(m.content) for m in full) - 250
    messages = build_discovery_prompt(av, hdv, budget=budget)
    text = user_text(messages)
    assert sum(len(m.content) for m in messages) <= budget
    assert "digests omitted to fit the prompt budget; oldest dropped first" in text
    # only the AV side shrinks while it is the larger group
    assert "and 0 HDV digests omitted" in text
    assert '"vehicle_id":"av_0000"' not in text
    assert '"vehicle_id":"av_0039"' in text
    assert '"vehicle_id":"hdv_0000"' in text


def test_discovery_budget_ties_drop_hdv_first():
    av = make_digests("av", 10, "AV")
    hdv = make_digests("hdv", 10, "HDV")
    full = build_discovery_prompt(av, hdv)
    total = sum(len(m.content) for m in full)
    messages = build_discovery_prompt(av, hdv, budget=total + 119)
    text = user_text(messages)
    assert "[0 AV and 1 HDV digests omitted" in text
    assert '"vehicle_id":"hdv_0000"' not in text
    assert '"vehicle_id":"av_0000"' in text


def test_discovery_no_note_when_under_budget():
    messages = build_discovery_prompt(
        make_digests("av", 2, "AV"), make_digests("hdv", 2, "HDV"),
        budget=PROMPT_CHAR_BUDGET,
    )
    assert "omitted" not in user_text(messages)


def test_reflection_prompt():
    rule = seed_library().get("R2")
    stats = {"confidence": 0.55, "n_applicable": 20, "n_correct": 11}
    failures = [
        {"vehicle_id": f"bad_{i}", "label": "HDV", "verdict": "matched",
         "features": {"std_accel": 1.0}}
        for i in range(3)
    ]
    messages = build_reflection_prompt(rule, stats, failures)
    text = user_text(messages)
    assert KIND_MARKERS["reflection"] in text
    assert "confidence: 0.550" in text
    assert "applicable samples: 20" in text
    assert "correct judgments: 11" in text
    assert "id: R2" in text
    assert '"vehicle_id":"bad_2"' in text
    assert "```refinement" in text
    with pytest.raises(EmptySampleSetError):
        build_reflection_prompt(rule, stats, [])
