import hashlib
import random
from collections.abc import Sequence
from pathlib import Path

import pytest

import oracles
from trajrules import cli, io, prompts
from trajrules.errors import EmptySampleSetError
from trajrules.kinematics import ATOMS
from trajrules.llm import KIND_MARKERS, MockBackend, prompt_kind
from trajrules.prompts import (
    PROMPT_CHAR_BUDGET,
    build_discovery_prompt,
    build_reflection_prompt,
    digest_sample,
)
from trajrules.rules import FeatureTable, seed_library
from trajrules.verification import run_verification_loop

MOCK_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "mock"


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


# sha256 of the prompt test_seed_42_discovery_prompt_bytes_are_pinned builds,
# taken with the builder that digested every row before dropping any
PINNED_PROMPT_SHA256 = "0c43c2e083f8b45f2631ef1c352cd3d0ee3aaee70bb74a40247338000de8edee"
# sha256 of the reflection prompts test_seed_42_reflection_prompt_bytes_are_pinned records
PINNED_REFLECTION_SHA256 = "9b0f26e037381bd14037ff9fe73c34b28b970e8179011ea260a3f21f728fbfb8"


class CountingDigests(Sequence):
    """Digests that count how often they are read."""

    def __init__(self, digests):
        self.digests = digests
        self.reads = 0

    def __len__(self):
        return len(self.digests)

    def __getitem__(self, i):
        self.reads += 1
        return self.digests[i]


def varied_digests(prefix, n, label):
    # lines of different lengths, so budgets fall at many offsets within one
    return [digest_sample(f"{prefix}_{i}", {"mean_speed": 10.0 + i / 7, "std_jerk": i % 3},
                          label=label) for i in range(n)]


@pytest.mark.parametrize("n_av,n_hdv", [(1, 1), (3, 50), (50, 3), (10, 10), (4000, 16000)])
def test_discovery_prompt_equals_the_full_digest_oracle(n_av, n_hdv):
    av, hdv = varied_digests("av", n_av, "AV"), varied_digests("hdv", n_hdv, "HDV")
    full = sum(len(m.content) for m in oracles.build_discovery_prompt(av, hdv, budget=10**9))
    empty = full - sum(len(line) + 1 for line in oracles._digest_lines(av + hdv))
    step = 7 if n_av + n_hdv < 100 else full // 3
    budgets = {0, empty + 119, empty + 120, empty + 121, PROMPT_CHAR_BUDGET,
               full + 119, full + 120, full + 121, full + 1000, *range(empty, full + 130, step)}
    for budget in sorted(budgets):
        counted_av, counted_hdv = CountingDigests(av), CountingDigests(hdv)
        messages = build_discovery_prompt(counted_av, counted_hdv, budget=budget)
        expected = oracles.build_discovery_prompt(av, hdv, budget=budget)
        assert messages == expected, budget
        text = user_text(messages)
        assert counted_av.reads <= text.count('"vehicle_id":"av_') + 1, budget
        assert counted_hdv.reads <= text.count('"vehicle_id":"hdv_') + 1, budget


@pytest.mark.parametrize("n_av,n_hdv", [(0, 0), (1, 0), (12, 0), (0, 12), (4, 9)])
def test_fit_to_budget_equals_the_oracle_with_either_group_empty(n_av, n_hdv):
    # the reflection prompt fits its failure digests as one group beside an empty one
    av, hdv = varied_digests("av", n_av, "AV"), varied_digests("hdv", n_hdv, "HDV")
    lines = oracles._digest_lines(av + hdv)
    for budget in range(0, 100 + sum(len(line) + 1 for line in lines), 3):
        expected = oracles._fit_to_budget(100, lines[:n_av], lines[n_av:], budget)[:2]
        assert prompts._fit_to_budget(100, av, hdv, budget) == expected, budget


def seed_42_rows(tmp_path):
    """400 labeled rows of random features, as the CLI reads them back."""
    rng = random.Random(42)
    rows = [{"vehicle_id": f"v{i:03d}", "label": "AV" if rng.random() < 0.5 else "HDV",
             "context": "free_flow", "unit_system": "metric",
             "features": {atom: round(rng.uniform(0.0, 20.0), 6) for atom in ATOMS}}
            for i in range(400)]
    path = tmp_path / "rows.jsonl"
    io.save_feature_rows(rows, path)
    return io.load_feature_rows(path)


def test_seed_42_discovery_prompt_bytes_are_pinned(tmp_path):
    # the mock backend ignores the prompt, so no pipeline output would show a
    # change in these bytes; 400 rows overflow the budget, so digests drop
    messages = build_discovery_prompt(*cli._split_by_label(seed_42_rows(tmp_path)))
    assert "[102 AV and 122 HDV digests omitted" in user_text(messages)
    digest = hashlib.sha256("\0".join(f"{m.role}\n{m.content}" for m in messages).encode())
    assert digest.hexdigest() == PINNED_PROMPT_SHA256


class RecordingMock(MockBackend):
    """The mock backend, keeping every message list it is sent."""

    def __init__(self):
        super().__init__(MOCK_DIR)
        self.sent = []

    def complete(self, messages):
        self.sent.append(messages)
        return super().complete(messages)


def test_seed_42_reflection_prompt_bytes_are_pinned(tmp_path):
    # the same blind spot for the failure digests the verify loop sends: on
    # random rows every seed rule sits below theta and fails more than the limit
    backend = RecordingMock()
    run_verification_loop(seed_library(), FeatureTable(seed_42_rows(tmp_path)), backend)
    assert [prompt_kind(m) for m in backend.sent] == ["reflection"] * 11
    digest = hashlib.sha256()
    for messages in backend.sent:
        digest.update("\0".join(f"{m.role}\n{m.content}" for m in messages).encode() + b"\1")
    assert digest.hexdigest() == PINNED_REFLECTION_SHA256


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
