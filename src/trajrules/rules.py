"""Interpretable behavior rules and the versioned rule library.

A rule couples a natural-language description with an executable predicate
and scope constraints (traffic contexts, downstream tasks). Evaluating a rule
against one vehicle yields matched, not_matched, or not_applicable; the third
verdict keeps out-of-scope vehicles out of both sides of every score.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import dsl
from .errors import LibraryValidationError, UnitMismatchError
from .trajectory import UNIT_SYSTEMS

CONTEXTS = ("free_flow", "congested", "any")
TASKS = ("identification", "speed", "lane_change")
CATEGORIES = ("speed", "lane_change", "following", "smoothness")
POLARITIES = ("AV_indicative", "HDV_indicative")
STATES = ("candidate", "verified", "retired")
SPEED_DIRECTIONS = ("accelerate", "decelerate", "maintain")
LANE_DIRECTIONS = ("left_LC", "right_LC", "keep_lane")
TASK_DIRECTIONS = {"speed": SPEED_DIRECTIONS, "lane_change": LANE_DIRECTIONS}
DIRECTIONS = SPEED_DIRECTIONS + LANE_DIRECTIONS

MATCHED = "matched"
NOT_MATCHED = "not_matched"
NOT_APPLICABLE = "not_applicable"

#: int8 verdict codes of the vectorised path; VERDICTS[code] is the verdict
NOT_APPLICABLE_CODE, NOT_MATCHED_CODE, MATCHED_CODE = 0, 1, 2
VERDICTS = (NOT_APPLICABLE, NOT_MATCHED, MATCHED)

DEFAULT_THETA = 0.7


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class Rule:
    id: str
    description: str
    predicate: dsl.Predicate
    contexts: frozenset[str] = frozenset({"any"})
    tasks: frozenset[str] = frozenset({"identification"})
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
        for name, known in (("contexts", CONTEXTS), ("tasks", TASKS)):
            if not getattr(self, name):
                raise LibraryValidationError(f"{self.id}: {name} must not be empty")
            if bad := getattr(self, name) - set(known):
                raise LibraryValidationError(f"{self.id}: unknown {name}: {sorted(bad)}")
        if self.category not in CATEGORIES:
            raise LibraryValidationError(f"{self.id}: unknown category {self.category!r}")
        if self.polarity not in POLARITIES:
            raise LibraryValidationError(f"{self.id}: unknown polarity {self.polarity!r}")
        if self.state not in STATES:
            raise LibraryValidationError(f"{self.id}: unknown state {self.state!r}")
        if self.direction is not None and self.direction not in DIRECTIONS:
            raise LibraryValidationError(f"{self.id}: unknown direction {self.direction!r}")
        if self.confidence is not None and not _is_number(self.confidence):
            raise LibraryValidationError(
                f"{self.id}: confidence must be a number, got {self.confidence!r}")
        if self.confidence is not None and not 0.0 <= self.confidence <= 1.0:
            raise LibraryValidationError(f"{self.id}: confidence {self.confidence} outside [0, 1]")
        if not isinstance(self.revision, int) or isinstance(self.revision, bool):
            raise LibraryValidationError(
                f"{self.id}: revision must be an integer, got {self.revision!r}")

    @property
    def predicate_text(self) -> str:
        return dsl.to_dsl(self.predicate)


Mask = Callable[["FeatureTable"], np.ndarray]

_COMPARE = {"<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
            "=": np.equal}
_CONTEXT_CODES = {c: i for i, c in enumerate(CONTEXTS)}


def _compile(pred: dsl.Predicate) -> Mask:
    """Boolean mask over table rows; meaningful where every required atom is present."""
    if isinstance(pred, dsl.Comparison):
        compare, atom, value = _COMPARE[pred.op], pred.atom, pred.value
        return lambda table: compare(table.column(atom), value)
    if isinstance(pred, dsl.RangeTest):
        atom, lo, hi = pred.atom, pred.lo, pred.hi

        def in_range(table: FeatureTable) -> np.ndarray:
            x = table.column(atom)
            return (lo <= x) & (x <= hi)
        return in_range
    if isinstance(pred, dsl.Not):
        child = _compile(pred.child)
        return lambda table: ~child(table)
    if isinstance(pred, (dsl.And, dsl.Or)):
        children = [_compile(c) for c in pred.children]
        reduce = np.logical_and.reduce if isinstance(pred, dsl.And) else np.logical_or.reduce
        return lambda table: reduce([child(table) for child in children])
    raise TypeError(f"not a predicate node: {pred!r}")


class FeatureTable:
    """Feature rows as columns, for evaluating rules over many vehicles at once.

    Each atom becomes one float64 array, NaN where a row lacks it, built on
    first use; so does each label's boolean mask. Contexts are int8 indexes
    into CONTEXTS (len(CONTEXTS) when unknown). A rule's verdict row is
    computed once per (predicate, allowed contexts) and kept, so an unchanged
    rule or a duplicate of another costs nothing. tests/oracles.py holds the
    scalar evaluator every verdict is checked against.
    """

    def __init__(
        self,
        features: Sequence[Mapping[str, float]],
        contexts: Sequence[str],
        *,
        units: Sequence[str | None] | None = None,
        ids: Sequence[str] | None = None,
        labels: Sequence[str | None] | None = None,
    ):
        if len(contexts) != len(features):
            raise ValueError(f"{len(features)} feature rows but {len(contexts)} contexts")
        self.features = features
        self.contexts = np.array([_CONTEXT_CODES.get(c, len(CONTEXTS)) for c in contexts],
                                 dtype=np.int8)
        self.units = list(units) if units is not None else [None] * len(features)
        self.ids = ids
        self.labels = list(labels) if labels is not None else [None] * len(features)
        self._unit_systems = frozenset(self.units)
        self._columns: dict[str, np.ndarray] = {}
        self._label_masks: dict[str, np.ndarray] = {}
        self._scopes: dict[frozenset[str], np.ndarray] = {}
        self._verdicts: dict[tuple, np.ndarray] = {}

    @classmethod
    def from_rows(cls, rows: Sequence[dict]) -> "FeatureTable":
        """Table of feature rows as io.load_feature_rows returns them."""
        return cls(
            [row["features"] for row in rows],
            [row.get("context", "any") for row in rows],
            units=[row.get("unit_system") for row in rows],
            ids=[row["vehicle_id"] for row in rows],
            labels=[row.get("label") for row in rows],
        )

    def __len__(self) -> int:
        return len(self.contexts)

    def column(self, atom: str) -> np.ndarray:
        col = self._columns.get(atom)
        if col is None:
            # a missing atom reads None, which float64 stores as NaN
            col = np.array([f.get(atom) for f in self.features], dtype=np.float64)
            self._columns[atom] = col
        return col

    def label_mask(self, label: str) -> np.ndarray:
        """Boolean mask of the rows labeled label."""
        mask = self._label_masks.get(label)
        if mask is None:
            mask = np.array([lab == label for lab in self.labels], dtype=bool)
            self._label_masks[label] = mask
        return mask

    def check_units(self, library_units: str | None) -> None:
        """Raise UnitMismatchError naming the first row whose known units differ."""
        if library_units is None or self._unit_systems <= {None, library_units}:
            return
        i = next(i for i, u in enumerate(self.units) if u not in (None, library_units))
        where = f"vehicle {self.ids[i]!r}: " if self.ids is not None else ""
        raise UnitMismatchError(
            f"{where}features are in {self.units[i]!r} units, library expects {library_units!r}"
        )

    def _scope(self, allowed: frozenset[str]) -> np.ndarray:
        mask = self._scopes.get(allowed)
        if mask is None:
            # a row in context "any" is in every scope; an unknown context only in "any"
            allows = [c in allowed or "any" in allowed or c == "any" for c in CONTEXTS]
            mask = np.array(allows + ["any" in allowed])[self.contexts]
            self._scopes[allowed] = mask
        return mask

    def verdicts(self, rule: Rule, *, library_units: str | None = None) -> np.ndarray:
        """Read-only int8 verdict codes (see VERDICTS) of one rule for every row."""
        self.check_units(library_units)
        key = (rule.predicate, rule.contexts)
        row = self._verdicts.get(key)
        if row is None:
            applicable = self._scope(rule.contexts)
            for atom in dsl.required_atoms(rule.predicate):
                applicable = applicable & ~np.isnan(self.column(atom))
            hit = _compile(rule.predicate)(self)
            row = np.where(applicable, np.where(hit, MATCHED_CODE, NOT_MATCHED_CODE),
                           NOT_APPLICABLE_CODE).astype(np.int8)
            row.flags.writeable = False
            self._verdicts[key] = row
        return row

    def verdict_matrix(self, rules: Sequence[Rule], *,
                       library_units: str | None = None) -> np.ndarray:
        """int8 verdict codes, one row per rule and one column per table row."""
        matrix = np.empty((len(rules), len(self)), dtype=np.int8)
        for i, rule in enumerate(rules):
            matrix[i] = self.verdicts(rule, library_units=library_units)
        return matrix


def evaluate_rule(
    rule: Rule,
    features: Mapping[str, float],
    context: str,
    *,
    feature_units: str | None = None,
    library_units: str | None = None,
) -> str:
    """One-vehicle case of FeatureTable.verdicts: MATCHED, NOT_MATCHED or NOT_APPLICABLE.

    Raises UnitMismatchError when both unit systems are known and differ.
    """
    table = FeatureTable([features], [context], units=[feature_units])
    return VERDICTS[table.verdicts(rule, library_units=library_units)[0]]


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
        if not _is_number(self.theta):
            raise LibraryValidationError(f"theta must be a number, got {self.theta!r}")
        if not 0.0 <= self.theta <= 1.0:
            raise LibraryValidationError(f"theta {self.theta} outside [0, 1]")
        self.theta = float(self.theta)
        if self.units not in UNIT_SYSTEMS:
            raise LibraryValidationError(
                f"units must be one of {UNIT_SYSTEMS}, got {self.units!r}")
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

    def verified_rules(self, task: str) -> list[Rule]:
        """Verified rules whose tasks include task, in library order."""
        return [r for r in self.rules
                if r.state == "verified" and task in r.tasks]

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


def seed_library() -> RuleLibrary:
    """Built-in starter library of AV-indicative driving-style rules.

    Thresholds follow published comparisons of automated and human driving
    (metric units: m/s, m/s^2, m/s^3, degrees, events per minute). Interval
    statements of the form "AVs around a, humans around b" are encoded as
    being on the AV side of the midpoint. All seed rules ship as verified
    with a placeholder confidence of 0.825 and should be re-verified on
    local data before serious use.
    """
    def rule(rid, desc, text, category, **scope):  # scope: contexts=, tasks= as tuples
        return Rule(id=rid, description=desc, predicate=dsl.parse_predicate(text),
                    category=category, confidence=0.825, state="verified",
                    **{key: frozenset(values) for key, values in scope.items()})

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
    return RuleLibrary(rules=rules)
