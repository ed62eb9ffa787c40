"""Interpretable behavior rules and the versioned rule library.

A rule couples a natural-language description with an executable predicate
and scope constraints (traffic contexts, downstream tasks). Evaluating a rule
against one vehicle yields matched, not_matched, or not_applicable; the third
verdict keeps out-of-scope vehicles out of both sides of every score.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from . import dsl
from .errors import (
    CorruptLibraryError,
    LibraryValidationError,
    PredicateError,
    UnitMismatchError,
)

CONTEXTS = ("free_flow", "congested", "any")
TASKS = ("identification", "speed", "lane_change")
CATEGORIES = ("speed", "lane_change", "following", "smoothness")
POLARITIES = ("AV_indicative", "HDV_indicative")
STATES = ("candidate", "verified", "retired")
DIRECTIONS = ("accelerate", "decelerate", "maintain", "left_LC", "right_LC", "keep_lane")

MATCHED = "matched"
NOT_MATCHED = "not_matched"
NOT_APPLICABLE = "not_applicable"

DEFAULT_THETA = 0.7


@dataclass(frozen=True)
class ContextConstraint:
    """Where a rule applies: traffic contexts and downstream tasks."""

    allowed_contexts: frozenset[str] = frozenset({"any"})
    applicable_tasks: frozenset[str] = frozenset({"identification"})

    def __post_init__(self) -> None:
        if not self.allowed_contexts:
            raise LibraryValidationError("allowed_contexts must not be empty")
        if not self.applicable_tasks:
            raise LibraryValidationError("applicable_tasks must not be empty")
        bad = self.allowed_contexts - set(CONTEXTS)
        if bad:
            raise LibraryValidationError(f"unknown contexts: {sorted(bad)}")
        bad = self.applicable_tasks - set(TASKS)
        if bad:
            raise LibraryValidationError(f"unknown tasks: {sorted(bad)}")

    def allows(self, context: str) -> bool:
        return "any" in self.allowed_contexts or context in self.allowed_contexts


@dataclass
class Rule:
    id: str
    description: str
    predicate: dsl.Predicate
    context: ContextConstraint = ContextConstraint()
    category: str = "smoothness"
    polarity: str = "AV_indicative"
    confidence: float | None = None
    state: str = "candidate"
    direction: str | None = None
    revision: int = 0
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise LibraryValidationError("rule id must be non-empty")
        if self.category not in CATEGORIES:
            raise LibraryValidationError(f"{self.id}: unknown category {self.category!r}")
        if self.polarity not in POLARITIES:
            raise LibraryValidationError(f"{self.id}: unknown polarity {self.polarity!r}")
        if self.state not in STATES:
            raise LibraryValidationError(f"{self.id}: unknown state {self.state!r}")
        if self.direction is not None and self.direction not in DIRECTIONS:
            raise LibraryValidationError(f"{self.id}: unknown direction {self.direction!r}")
        if self.confidence is not None and not 0.0 <= self.confidence <= 1.0:
            raise LibraryValidationError(f"{self.id}: confidence {self.confidence} outside [0, 1]")

    @property
    def predicate_text(self) -> str:
        return dsl.to_dsl(self.predicate)


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
    if context != "any" and not rule.context.allows(context):
        return NOT_APPLICABLE
    needed = dsl.required_atoms(rule.predicate)
    for atom in needed:
        value = features.get(atom)
        if value is None or value != value:  # missing or NaN
            return NOT_APPLICABLE
    return MATCHED if dsl.evaluate_predicate(rule.predicate, features) else NOT_MATCHED


@dataclass
class RuleLibrary:
    """Ordered rule collection with a confidence threshold and version history.

    version increases by one on every mutation; provenance records each
    refinement and retirement so a library's evolution can be replayed.
    """

    rules: list[Rule] = field(default_factory=list)
    theta: float = DEFAULT_THETA
    version: int = 1
    units: str = "metric"
    provenance: list[dict] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= 1.0:
            raise LibraryValidationError(f"theta {self.theta} outside [0, 1]")
        seen: set[str] = set()
        for rule in self.rules:
            if rule.id in seen:
                raise LibraryValidationError(f"duplicate rule id {rule.id!r}")
            seen.add(rule.id)

    def get(self, rule_id: str) -> Rule:
        for rule in self.rules:
            if rule.id == rule_id:
                return rule
        raise KeyError(rule_id)

    def verified_rules(self) -> list[Rule]:
        return [r for r in self.rules if r.state == "verified"]

    def verified_av_rules(self) -> list[Rule]:
        return [r for r in self.rules if r.state == "verified" and r.polarity == "AV_indicative"]

    def add_rule(self, rule: Rule) -> None:
        if any(r.id == rule.id for r in self.rules):
            raise LibraryValidationError(f"duplicate rule id {rule.id!r}")
        self.rules.append(rule)
        self.version += 1

    def replace_rule(self, rule: Rule) -> None:
        for i, existing in enumerate(self.rules):
            if existing.id == rule.id:
                self.rules[i] = rule
                self.version += 1
                return
        raise KeyError(rule.id)

    def record(self, event: str, rule_id: str, detail: str, iteration: int | None = None) -> None:
        entry = {"version": self.version, "event": event, "rule_id": rule_id, "detail": detail}
        if iteration is not None:
            entry["iteration"] = iteration
        self.provenance.append(entry)


def seed_library(theta: float = DEFAULT_THETA) -> RuleLibrary:
    """Built-in starter library of AV-indicative driving-style rules.

    Thresholds follow published comparisons of automated and human driving
    (metric units: m/s, m/s^2, m/s^3, degrees, events per minute). Interval
    statements of the form "AVs around a, humans around b" are encoded as
    being on the AV side of the midpoint. All seed rules ship as verified
    with a placeholder confidence of 0.825 and should be re-verified on
    local data before serious use.
    """
    def rule(rid, desc, text, category, tasks=("identification",), contexts=("any",)):
        return Rule(
            id=rid,
            description=desc,
            predicate=dsl.parse_predicate(text),
            context=ContextConstraint(frozenset(contexts), frozenset(tasks)),
            category=category,
            polarity="AV_indicative",
            confidence=0.825,
            state="verified",
        )

    rules = [
        rule("R2", "Acceleration stays in a narrow, near-linear band",
             "std_accel < 1.35", "speed", tasks=("identification", "speed")),
        rule("R3", "Braking is gentle; strongest deceleration stays below 0.6",
             "max_decel < 0.6", "speed", tasks=("identification", "speed")),
        rule("R4", "Frequent small speed corrections, about three per minute",
             "speed_fluctuation_rate > 2.4", "speed", tasks=("identification", "speed")),
        rule("R7", "Holds a steady crawl below 10 km/h outside congestion",
             "mean_speed IN 0.0..2.78", "speed",
             tasks=("identification", "speed"), contexts=("free_flow",)),
        rule("R11", "Eases off at 0.2-0.3 m/s^2 before starting a lane change",
             "pre_lane_change_decel IN 0.2..0.3", "lane_change",
             tasks=("identification", "lane_change")),
        rule("R12", "Cuts lane changes at a shallow 15-20 degree angle",
             "lane_change_angle IN 15.0..20.0", "lane_change",
             tasks=("identification", "lane_change")),
        rule("R15", "Speed varies by less than 2 m/s through lane changes outside congestion",
             "std_speed < 2.0", "lane_change",
             tasks=("identification", "lane_change"), contexts=("free_flow",)),
        rule("R20", "Mirrors the lead vehicle's acceleration within 0.5",
             "following_accel_delta < 0.5", "following"),
        rule("R27", "Very low jerk overall; std below 0.3",
             "std_jerk < 0.3", "smoothness"),
        rule("R29", "Keeps jerk std below 0.4 even through braking phases",
             "std_jerk < 0.4", "smoothness"),
        rule("R30", "Jerk std stays below 0.5 across extreme conditions",
             "std_jerk < 0.5", "smoothness"),
    ]
    return RuleLibrary(rules=rules, theta=theta)


_RULE_FIELDS = (
    "id", "description", "predicate", "contexts", "tasks", "category",
    "polarity", "confidence", "state", "direction", "revision",
)
_LIBRARY_FIELDS = ("version", "theta", "units", "rules", "provenance")


def _rule_to_dict(rule: Rule) -> dict:
    out = {
        "id": rule.id,
        "description": rule.description,
        "predicate": rule.predicate_text,
        "contexts": sorted(rule.context.allowed_contexts),
        "tasks": sorted(rule.context.applicable_tasks),
        "category": rule.category,
        "polarity": rule.polarity,
        "confidence": rule.confidence,
        "state": rule.state,
        "direction": rule.direction,
        "revision": rule.revision,
    }
    out.update(rule.extras)
    return out


def _rule_from_dict(data: dict) -> Rule:
    try:
        rule = Rule(
            id=str(data["id"]),
            description=str(data["description"]),
            predicate=dsl.parse_predicate(data["predicate"]),
            context=ContextConstraint(
                frozenset(data.get("contexts", ["any"])),
                frozenset(data.get("tasks", ["identification"])),
            ),
            category=data.get("category", "smoothness"),
            polarity=data.get("polarity", "AV_indicative"),
            confidence=data.get("confidence"),
            state=data.get("state", "candidate"),
            direction=data.get("direction"),
            revision=int(data.get("revision", 0)),
            extras={k: v for k, v in data.items() if k not in _RULE_FIELDS},
        )
    except KeyError as exc:
        raise CorruptLibraryError(f"rule entry missing field {exc}") from exc
    except PredicateError as exc:
        raise LibraryValidationError(
            f"rule {data.get('id', '?')}: bad predicate: {exc}"
        ) from exc
    return rule


def save_library(library: RuleLibrary, path: str | Path) -> None:
    """Write the library as JSON. Output bytes are deterministic."""
    doc = {
        "version": library.version,
        "theta": library.theta,
        "units": library.units,
        "rules": [_rule_to_dict(r) for r in library.rules],
        "provenance": library.provenance,
    }
    doc.update(library.extras)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_library(path: str | Path) -> RuleLibrary:
    """Load a library written by save_library.

    Unknown fields on the library or on individual rules are preserved and
    written back on save. Raises CorruptLibraryError for unreadable files or
    missing required fields, LibraryValidationError for invariant violations.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptLibraryError(f"cannot read library: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorruptLibraryError("library file must hold a JSON object")
    if "version" not in doc:
        raise CorruptLibraryError("library file missing 'version'")
    if not isinstance(doc["version"], int):
        raise CorruptLibraryError("library 'version' must be an integer")
    if "rules" not in doc or not isinstance(doc["rules"], list):
        raise CorruptLibraryError("library file missing 'rules' array")
    return RuleLibrary(
        rules=[_rule_from_dict(r) for r in doc["rules"]],
        theta=float(doc.get("theta", DEFAULT_THETA)),
        version=doc["version"],
        units=doc.get("units", "metric"),
        provenance=list(doc.get("provenance", [])),
        extras={k: v for k, v in doc.items() if k not in _LIBRARY_FIELDS},
    )
