"""Independent oracles of the package's numeric layers.

Kinematics, lane-change detection and the matching score are written out
as plain loops over points and clauses, sharing no code with the numpy
versions they check.

The scalar rule evaluator is kept as the independent oracle of FeatureTable.

These are the recursive predicate walk, the one-vehicle rule evaluation
that rules.FeatureTable replaced with column masks, and the label a verdict
votes for. They share no code with
the table: the scope test, the missing/NaN test and the unit check are
written out here again, so a test that compares the two is not comparing
the table with itself.

The full-digest discovery prompt and the line-by-line feature-row loader
are kept the same way: prompts and io replaced them with code that reads
only the digests a prompt keeps and checks a feature file as a whole.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping, Sequence

from trajrules import dsl
from trajrules.errors import EmptySampleSetError, SchemaError, UnitMismatchError
from trajrules.io import _read_jsonl
from trajrules.llm import KIND_MARKERS, ChatMessage
from trajrules.prompts import (
    _ANALYSIS_DIMENSIONS,
    _DSL_HELP,
    _RULE_FORMAT,
    DISCOVERY_ROLE,
    PROMPT_CHAR_BUDGET,
)
from trajrules.rules import CONTEXTS, MATCHED, NOT_APPLICABLE, NOT_MATCHED, Rule
from trajrules.trajectory import LABELS, UNIT_SYSTEMS


def naive_kinematics(traj):
    """Plain-loop central differences, scaled coordinates first."""
    xs = [x * traj.unit_scale for x in traj.x.tolist()]
    ys = [y * traj.unit_scale for y in traj.y.tolist()]
    dt2 = 2.0 / traj.frame_rate
    v = [
        math.sqrt((xs[i + 1] - xs[i - 1]) ** 2 + (ys[i + 1] - ys[i - 1]) ** 2) / dt2
        for i in range(1, len(xs) - 1)
    ]
    a = [(v[i + 1] - v[i - 1]) / dt2 for i in range(1, len(v) - 1)]
    j = [(a[i + 1] - a[i - 1]) / dt2 for i in range(1, len(a) - 1)]
    return v, a, j


def naive_lane_changes(traj, window, threshold):
    """Lane-change events as (start_frame, end_frame, displacement, direction).

    Each window start sums |dy| over its next *window* steps; it fires when
    that sum exceeds threshold and the net lateral move exceeds threshold/2.
    Firing windows that share a step merge, and each merged run is reported
    by its window with the largest sum, the earliest on ties.
    """
    ys = [y * traj.unit_scale for y in traj.y.tolist()]
    frames = traj.t.tolist()
    fired = []  # (start, sum, net) of each firing window
    for start in range(len(ys) - window):
        total = 0.0
        for i in range(start, start + window):
            total += abs(ys[i + 1] - ys[i])
        net = ys[start + window] - ys[start]
        if total > threshold and abs(net) > threshold / 2.0:
            fired.append((start, total, net))
    runs = []
    for window_fired in fired:
        if runs and window_fired[0] - runs[-1][-1][0] <= window - 1:
            runs[-1].append(window_fired)
        else:
            runs.append([window_fired])
    events = []
    for run in runs:
        best = run[0]
        for candidate in run[1:]:
            if candidate[1] > best[1]:
                best = candidate
        start, total, net = best
        events.append((frames[start], frames[start + window - 1], total,
                       "left" if net < 0 else "right"))
    return events


def clause_eval(c, feats):
    """A clause built by helpers.random_clause on a feature mapping; None when
    its atom is missing or NaN."""
    value = feats.get(c[1])
    if value is None or value != value:
        return None
    if c[0] == "in":
        return c[2] <= value <= c[3]
    _, _, op, val, neg = c
    hit = {"<": value < val, "<=": value <= val, ">": value > val,
           ">=": value >= val, "=": value == val}[op]
    return (not hit) if neg else hit


def oracle_score(specs, feats, context):
    """The matching score recounted from rule specs
    (clauses, joiner, contexts, state, polarity, confidence); None when no
    verified AV-indicative rule applies with positive weight."""
    matched_w = applicable_w = 0.0
    n_applicable = 0
    for clauses, joiner, contexts, state, polarity, conf in specs:
        if state != "verified" or polarity != "AV_indicative":
            continue
        if context != "any" and "any" not in contexts and context not in contexts:
            continue
        values = [clause_eval(c, feats) for c in clauses]
        if any(v is None for v in values):
            continue
        hit = all(values) if joiner == "AND" else any(values)
        n_applicable += 1
        weight = conf or 0.0
        applicable_w += weight
        if hit:
            matched_w += weight
    if n_applicable == 0 or applicable_w <= 0.0:
        return None
    return matched_w / applicable_w


def evaluate_predicate(pred: dsl.Predicate, features: Mapping[str, float]) -> bool:
    """Evaluate a predicate over a feature mapping containing every required atom."""
    if isinstance(pred, dsl.Comparison):
        x = features[pred.atom]
        if pred.op == "<":
            return x < pred.value
        if pred.op == "<=":
            return x <= pred.value
        if pred.op == ">":
            return x > pred.value
        if pred.op == ">=":
            return x >= pred.value
        return x == pred.value
    if isinstance(pred, dsl.RangeTest):
        x = features[pred.atom]
        return pred.lo <= x <= pred.hi
    if isinstance(pred, dsl.Not):
        return not evaluate_predicate(pred.child, features)
    if isinstance(pred, dsl.And):
        return all(evaluate_predicate(c, features) for c in pred.children)
    if isinstance(pred, dsl.Or):
        return any(evaluate_predicate(c, features) for c in pred.children)
    raise TypeError(f"not a predicate node: {pred!r}")


def evaluate_rule(
    rule: Rule,
    features: Mapping[str, float],
    context: str,
    *,
    feature_units: str | None = None,
    library_units: str | None = None,
) -> str:
    """Evaluate one rule against one vehicle.

    Returns MATCHED, NOT_MATCHED, or NOT_APPLICABLE. The rule is not
    applicable when the context is outside its scope or any atom its
    predicate reads is absent from the features. Raises UnitMismatchError
    when both unit systems are known and differ.
    """
    if feature_units is not None and library_units is not None and feature_units != library_units:
        raise UnitMismatchError(
            f"features are in {feature_units!r} units, library expects {library_units!r}"
        )
    allowed = rule.contexts
    if context != "any" and "any" not in allowed and context not in allowed:
        return NOT_APPLICABLE
    needed = dsl.required_atoms(rule.predicate)
    for atom in needed:
        value = features.get(atom)
        if value is None or value != value:  # missing or NaN
            return NOT_APPLICABLE
    return MATCHED if evaluate_predicate(rule.predicate, features) else NOT_MATCHED


def implied_label(rule: Rule, verdict: str) -> str | None:
    """Label a rule's verdict votes for, or None when not applicable."""
    if verdict == NOT_APPLICABLE:
        return None
    hit = verdict == MATCHED
    if rule.polarity == "AV_indicative":
        return "AV" if hit else "HDV"
    return "HDV" if hit else "AV"


def _digest_lines(digests: Sequence[dict]) -> list[str]:
    return [json.dumps(d, sort_keys=True, separators=(",", ":")) for d in digests]


def _fit_to_budget(
    fixed_len: int,
    av_lines: list[str],
    hdv_lines: list[str],
    budget: int,
) -> tuple[list[str], list[str], int, int]:
    """Drop digest lines oldest-first until the assembled prompt fits."""
    a, h = 0, 0  # number of leading lines dropped per group
    total = fixed_len + sum(len(s) + 1 for s in av_lines) + sum(len(s) + 1 for s in hdv_lines)
    while total > budget and (a < len(av_lines) or h < len(hdv_lines)):
        # drop from whichever side still has more digests, HDV on ties
        if len(av_lines) - a > len(hdv_lines) - h:
            total -= len(av_lines[a]) + 1
            a += 1
        else:
            total -= len(hdv_lines[h]) + 1
            h += 1
    return av_lines[a:], hdv_lines[h:], a, h


def build_discovery_prompt(
    av_samples: Sequence[dict],
    hdv_samples: Sequence[dict],
    budget: int = PROMPT_CHAR_BUDGET,
) -> list[ChatMessage]:
    """The discovery prompt built from every digest, then cut to the budget."""
    if not av_samples or not hdv_samples:
        raise EmptySampleSetError("discovery needs samples from both groups")
    av_lines = _digest_lines(av_samples)
    hdv_lines = _digest_lines(hdv_samples)

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

    full = assemble(av_lines, hdv_lines, "")
    overhead = sum(len(m.content) for m in full) - sum(len(s) + 1 for s in av_lines + hdv_lines)
    kept_av, kept_hdv, dropped_av, dropped_hdv = _fit_to_budget(
        overhead + 120, av_lines, hdv_lines, budget
    )
    if dropped_av or dropped_hdv:
        note = (f"[{dropped_av} AV and {dropped_hdv} HDV digests omitted "
                "to fit the prompt budget; oldest dropped first]")
        return assemble(kept_av, kept_hdv, note)
    return full


def load_feature_rows(path: str | Path) -> list[dict]:
    """Read a JSONL feature file, checking each line before the next."""
    rows = []
    first_line: dict[str, int] = {}
    for lineno, doc in _read_jsonl(path):
        if not isinstance(doc, dict):
            raise SchemaError("feature record must be a JSON object", lineno)
        if "vehicle_id" not in doc:
            raise SchemaError("feature record missing 'vehicle_id'", lineno)
        if not isinstance(doc["vehicle_id"], str):
            raise SchemaError(f"vehicle_id must be a string, got {doc['vehicle_id']!r}", lineno)
        first = first_line.setdefault(doc["vehicle_id"], lineno)
        if first != lineno:
            raise SchemaError(f"vehicle_id {doc['vehicle_id']!r} repeats the one on line {first}",
                              lineno)
        features = doc.get("features")
        if not isinstance(features, dict):
            raise SchemaError("feature record missing 'features' mapping", lineno)
        for key, value in features.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SchemaError(f"feature {key!r} must be numeric, got {value!r}", lineno)
            try:
                finite = -math.inf < float(value) < math.inf  # NaN fails both comparisons
            except OverflowError:  # an integer beyond float range
                finite = False
            if not finite:
                raise SchemaError(f"feature {key!r} must be finite, got {value!r}", lineno)
        if doc.get("context", "any") not in CONTEXTS:
            raise SchemaError(f"context must be one of {CONTEXTS}, got {doc['context']!r}", lineno)
        if "unit_system" in doc and doc["unit_system"] not in UNIT_SYSTEMS:
            raise SchemaError(
                f"unit_system must be one of {UNIT_SYSTEMS}, got {doc['unit_system']!r}",
                lineno,
            )
        label = doc.get("label")
        if label is not None and label not in LABELS:
            raise SchemaError(f"label must be one of {LABELS}, got {label!r}", lineno)
        rows.append(doc)
    return rows
