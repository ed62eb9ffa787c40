"""Prompt templates for rule discovery and rule reflection.

Each builder is a pure function from data to a message list: same inputs,
same bytes. Sample digests are compact JSON lines; when a prompt would
exceed the character budget, whole digests are dropped oldest-first (list
order is age order) and the omission is noted in the prompt itself. Only
the digests a prompt keeps, plus one, are read, so samples may be made lazily.
"""
from __future__ import annotations

import json
from typing import Mapping, Sequence

from .errors import EmptySampleSetError
from .kinematics import ATOMS
from .llm import KIND_MARKERS, ChatMessage, format_rule_block
from .rules import Rule

PROMPT_CHAR_BUDGET = 60_000

_ANALYSIS_DIMENSIONS = """\
Compare the two groups along these four dimensions:
1. Speed control: how steadily speed is held, and the size and cadence of corrections.
2. Acceleration and smoothness: acceleration spread, braking strength, jerk statistics.
3. Lane changing: frequency, preparation (pre-maneuver deceleration), and execution.
4. Interaction: how the vehicle responds to surrounding traffic when that is visible."""

_DSL_HELP = f"""\
Write each condition in this predicate language (AND binds tighter than OR):
  atom < number | atom <= number | atom > number | atom >= number | atom = number
  atom IN low..high
  NOT clause, clauses joined with AND / OR
Feature atoms: {", ".join(ATOMS)}."""

_RULE_FORMAT = """\
Return every rule as its own fenced block, nothing else in the fences:
```rule
id: <short unique id>
description: <one sentence>
condition: <predicate>
contexts: <any | free_flow | congested, comma separated>
tasks: <identification | speed | lane_change, comma separated>
category: <speed | lane_change | following | smoothness>
polarity: <AV_indicative | HDV_indicative>
direction: <optional: accelerate | decelerate | maintain | left_LC | right_LC | keep_lane>
```"""

_REFINEMENT_FORMAT = """\
Return one fenced block per suggestion:
```refinement
rule_id: <id of the rule being revised>
action: <adjust_threshold | add_context | combine_features | retire>
condition: <new predicate, required for adjust_threshold / combine_features>
contexts: <required for add_context>
rationale: <one sentence>
```
Suggest at most one action per rule."""

DISCOVERY_ROLE = (
    "You are a senior driving-behavior analyst with a background in "
    "transportation engineering and vehicle dynamics. You study trajectory "
    "statistics to tell automated vehicles (AV) from human-driven vehicles "
    "(HDV) and state your findings as precise, testable rules."
)

REFLECTION_ROLE = (
    "You are a driving-behavior analyst reviewing the performance of one of "
    "your own classification rules. You diagnose why it misjudged specific "
    "vehicles and propose the smallest revision that fixes the failures."
)


def digest_sample(vehicle_id: str, features: Mapping[str, float], *,
                  label: str | None = None) -> dict:
    """Compact, JSON-ready summary of one vehicle for prompt embedding."""
    digest: dict = {"vehicle_id": vehicle_id}
    if label is not None:
        digest["label"] = label
    digest["features"] = {k: round(float(v), 4) for k, v in sorted(features.items())}
    return digest


def _fit_to_budget(
    fixed_len: int,
    av: Sequence[dict],
    hdv: Sequence[dict],
    budget: int,
) -> tuple[list[str], list[str]]:
    """The newest digest lines of each group that fit the budget beside fixed_len.

    Digests drop oldest first, from whichever group has more left, HDV on ties;
    this walks that order back from the newest until one does not fit.
    """
    kept_av: list[str] = []
    kept_hdv: list[str] = []
    total = fixed_len
    while True:
        a, h = len(kept_av), len(kept_hdv)
        # dropping takes AV while it has more left, so AV comes back while it
        # has no more kept than HDV, or once HDV has all of its own back
        if a < len(av) and (h == len(hdv) or a <= h):
            group, kept = av, kept_av
        elif h < len(hdv):
            group, kept = hdv, kept_hdv
        else:
            break
        digest = group[len(group) - len(kept) - 1]
        line = json.dumps(digest, sort_keys=True, separators=(",", ":"))
        total += len(line) + 1
        if total > budget:
            break
        kept.append(line)
    return kept_av[::-1], kept_hdv[::-1]


def build_discovery_prompt(
    av_samples: Sequence[dict],
    hdv_samples: Sequence[dict],
    budget: int = PROMPT_CHAR_BUDGET,
) -> list[ChatMessage]:
    """Prompt asking the model to discover rules separating AVs from HDVs.

    Samples are digest dicts (see digest_sample), oldest first. Raises
    EmptySampleSetError when either group is empty.
    """
    if not av_samples or not hdv_samples:
        raise EmptySampleSetError("discovery needs samples from both groups")

    def assemble(av: list[str], hdv: list[str], note: str) -> list[ChatMessage]:
        user = "\n".join([
            "## Trajectory Data",
            note,
            "### Automated vehicles (one JSON digest per line)",
            *av,
            "",
            "### Human-driven vehicles (one JSON digest per line)",
            *hdv,
            "",
            KIND_MARKERS["discovery"],
            _ANALYSIS_DIMENSIONS,
            "",
            "## Output Requirements",
            "State every behavioral difference you find as a standalone rule.",
            _DSL_HELP,
            _RULE_FORMAT,
        ])
        return [ChatMessage("system", DISCOVERY_ROLE), ChatMessage("user", user)]

    # each digest line adds its length plus one newline to the empty prompt
    overhead = sum(len(m.content) for m in assemble([], [], ""))
    kept_av, kept_hdv = _fit_to_budget(overhead + 120, av_samples, hdv_samples, budget)
    dropped_av, dropped_hdv = len(av_samples) - len(kept_av), len(hdv_samples) - len(kept_hdv)
    note = (f"[{dropped_av} AV and {dropped_hdv} HDV digests omitted to fit the prompt "
            "budget; oldest dropped first]" if dropped_av or dropped_hdv else "")
    return assemble(kept_av, kept_hdv, note)


def build_reflection_prompt(
    rule: Rule,
    stats: Mapping[str, float],
    failures: Sequence[dict],
    budget: int = PROMPT_CHAR_BUDGET,
) -> list[ChatMessage]:
    """Prompt asking the model to revise one underperforming rule.

    stats carries at least {"confidence", "n_applicable", "n_correct"};
    failures are digest dicts with true/predicted labels and the rule's
    verdict attached.
    """
    if not failures:
        raise EmptySampleSetError("reflection needs at least one failure case")
    header = "\n".join([
        "## Rule Under Review",
        format_rule_block(rule),
        "",
        "## Validation Performance",
        f"confidence: {stats.get('confidence', 0.0):.3f}",
        f"applicable samples: {int(stats.get('n_applicable', 0))}",
        f"correct judgments: {int(stats.get('n_correct', 0))}",
    ])

    def assemble(kept: list[str], note: str) -> list[ChatMessage]:
        user = "\n".join([
            header,
            "",
            "## Failure Cases (one JSON digest per line)",
            note,
            *kept,
            "",
            KIND_MARKERS["reflection"],
            "Work through, in order:",
            "1. Is the numeric threshold reasonable given the failures?",
            "2. Does the rule need a scenario constraint (context restriction)?",
            "3. Would combining features make the condition more selective?",
            "4. Should the rule be kept, revised, or retired?",
            "",
            "## Output Requirements",
            _REFINEMENT_FORMAT,
        ])
        return [ChatMessage("system", REFLECTION_ROLE), ChatMessage("user", user)]

    overhead = sum(len(m.content) for m in assemble([], ""))
    kept, _ = _fit_to_budget(overhead + 120, failures, [], budget)
    dropped = len(failures) - len(kept)
    return assemble(kept, f"[{dropped} failure digests omitted to fit the prompt budget]"
                    if dropped else "")
