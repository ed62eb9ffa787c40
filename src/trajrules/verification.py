"""Rule discovery and the verify-refine loop.

Discovery turns labeled feature digests into candidate rules through a
backend completion. Verification then measures each rule's empirical
confidence on a labeled validation table, promotes rules that clear the
library threshold, and sends the rest back to the backend for reflection.
The loop ends when everything active is verified, when confidences stop
moving, or when the iteration budget runs out; in the last two cases the
remaining sub-threshold rules are retired rather than left in limbo.
"""
from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .errors import EmptyValidationTableError, InputError
from .llm import (
    Backend,
    RefinementSuggestion,
    RejectedBlock,
    parse_refinement_response,
    parse_rule_response,
)
from .prompts import build_discovery_prompt, build_reflection_prompt, digest_sample
from .rules import (
    MATCHED_CODE,
    NOT_APPLICABLE_CODE,
    VERDICTS,
    FeatureTable,
    Rule,
    RuleLibrary,
    evaluate_rule,  # not called here; perfbench/spans.py patches this name
)

log = logging.getLogger(__name__)

DEFAULT_MAX_ITERATIONS = 5
DEFAULT_STALL_EPSILON = 0.01
MAX_FAILURES_PER_RULE = 20


@dataclass(frozen=True)
class RuleStats:
    rule_id: str
    n_applicable: int
    n_correct: int
    confidence: float


@dataclass(frozen=True)
class VerificationResult:
    library: RuleLibrary
    stats: dict[str, RuleStats]
    iterations: int
    reason: str  # "all_verified" | "stalled" | "max_iterations"


def _av_mask(table: FeatureTable) -> np.ndarray:
    """Rows labeled AV, once every row is known to be labeled AV or HDV.

    Raises EmptyValidationTableError for an empty table, and InputError
    naming the first row labeled neither AV nor HDV.
    """
    if len(table) == 0:
        raise EmptyValidationTableError("verification needs at least one labeled sample")
    is_av = table.label_mask("AV")
    labeled = is_av | table.label_mask("HDV")
    if not labeled.all():
        row = table.rows[int(np.argmin(labeled))]
        where = f"feature row for {row['vehicle_id']!r}"
        if row.get("label") is None:
            raise InputError(f"{where} has no label; verification needs ground truth")
        raise InputError(f"{where} has label {row['label']!r}; verification needs AV or HDV")
    return is_av


def _judge(
    rule: Rule, table: FeatureTable, library_units: str | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rule's verdict row, where it applies, and where its implied label is right."""
    is_av = _av_mask(table)
    verdicts = table.verdicts(rule, library_units=library_units)
    applicable = verdicts != NOT_APPLICABLE_CODE
    votes_av = (verdicts == MATCHED_CODE) == (rule.polarity == "AV_indicative")
    return verdicts, applicable, applicable & (votes_av == is_av)


def compute_confidence(
    rule: Rule,
    table: FeatureTable,
    *,
    library_units: str | None = None,
    strict_denominator: bool = False,
) -> RuleStats:
    """Fraction of the labeled table's rows the rule judges correctly.

    A matched rule votes for its polarity's label, a non-match votes for
    the opposite label, and not-applicable rows stay out of both counts.
    With strict_denominator the divisor is the whole table, so poor
    coverage drags confidence down instead of being ignored. Zero applicable
    rows yield confidence 0 either way. Every row must be labeled AV or HDV.
    """
    _, applicable, correct = _judge(rule, table, library_units)
    n_applicable = int(np.count_nonzero(applicable))
    n_correct = int(np.count_nonzero(correct))
    denom = len(table) if strict_denominator else n_applicable
    confidence = n_correct / denom if denom else 0.0
    return RuleStats(rule.id, n_applicable, n_correct, confidence)


def collect_failures(
    rule: Rule,
    table: FeatureTable,
    *,
    library_units: str | None = None,
    limit: int = MAX_FAILURES_PER_RULE,
) -> list[dict]:
    """Reflection digests of the applicable rows the rule judged wrongly, in
    table order, at most limit: each row's digest_sample with its label, plus
    the rule's verdict and the label that verdict implied."""
    verdicts, applicable, correct = _judge(rule, table, library_units)
    failures = []
    for i in np.flatnonzero(applicable & ~correct)[:max(limit, 0)].tolist():
        row = table.rows[i]
        digest = digest_sample(row["vehicle_id"], row["features"], label=row["label"])
        digest["rule_verdict"] = VERDICTS[verdicts[i]]
        # a wrong vote is always for the label the row does not carry
        digest["rule_judged"] = "HDV" if row["label"] == "AV" else "AV"
        failures.append(digest)
    return failures


def apply_suggestion(rule: Rule, suggestion: RefinementSuggestion) -> Rule:
    """Produce the revised rule a suggestion describes.

    Content changes reset the rule to candidate with no confidence and bump
    its revision; a retire suggestion only flips the state.
    """
    if suggestion.action == "retire":
        return replace(rule, state="retired")
    change = ({"contexts": suggestion.new_contexts} if suggestion.action == "add_context"
              else {"predicate": suggestion.new_predicate})  # adjust_threshold, combine_features
    return replace(rule, **change, state="candidate", confidence=None,
                   revision=rule.revision + 1)


def discover_rules(
    backend: Backend,
    av_samples: Sequence[dict],
    hdv_samples: Sequence[dict],
) -> tuple[list[Rule], list[RejectedBlock]]:
    """One discovery round: digests in, compiled candidate rules out."""
    messages = build_discovery_prompt(av_samples, hdv_samples)
    return parse_rule_response(backend.complete(messages))


def run_verification_loop(
    library: RuleLibrary,
    table: FeatureTable,
    backend: Backend,
    *,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    stall_epsilon: float = DEFAULT_STALL_EPSILON,
    strict_denominator: bool = False,
) -> VerificationResult:
    """Measure, promote, reflect, and refine until the library settles.

    Each iteration re-measures every non-retired rule's confidence and
    flips its state against the library threshold. Rules with zero coverage
    are retired on the spot (there are no failure cases to reflect on).
    Exit paths, checked in order: every active rule verified; confidences
    moved at most stall_epsilon since the previous iteration (remaining
    candidates are retired); the iteration budget ran out (same retirement).
    Between iterations every sub-threshold rule gets one reflection round
    and at most one applied suggestion. The library is mutated in place and
    also returned. Every row of the table must be labeled AV or HDV; that is
    checked before the first iteration.
    """
    _av_mask(table)
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")

    def retire(rule: Rule, detail: str) -> None:  # at the current iteration
        rule.state = "retired"
        library.record("retired", rule.id, detail, iteration)

    stats: dict[str, RuleStats] = {}
    prev_conf: dict[str, float] | None = None
    for iteration in range(1, max_iterations + 1):
        active = [r for r in library.rules if r.state != "retired"]
        conf: dict[str, float] = {}
        for rule in active:
            st = compute_confidence(
                rule, table,
                library_units=library.units, strict_denominator=strict_denominator,
            )
            stats[rule.id] = st
            conf[rule.id] = st.confidence
            rule.confidence = st.confidence
            if st.n_applicable == 0:
                retire(rule, "no coverage on the validation set")
            else:
                rule.state = "verified" if st.confidence >= library.theta else "candidate"
        library.version += 1

        candidates = [r for r in library.rules if r.state == "candidate"]
        if not candidates:
            return VerificationResult(library, stats, iteration, "all_verified")

        stalled = prev_conf is not None and all(
            abs(conf[rid] - prev_conf[rid]) <= stall_epsilon
            for rid in conf if rid in prev_conf
        )
        if stalled or iteration == max_iterations:
            reason = "stalled" if stalled else "max_iterations"
            for rule in candidates:
                retire(rule, f"confidence {rule.confidence:.3f} below threshold "
                             f"{library.theta} at loop exit ({reason})")
            library.version += 1
            return VerificationResult(library, stats, iteration, reason)
        prev_conf = conf

        for rule in candidates:
            failures = collect_failures(rule, table, library_units=library.units)
            if not failures:
                # sub-threshold without failures can only mean strict
                # denominator + thin coverage; reflection has nothing to chew on
                retire(rule, "no failure cases to reflect on")
                library.version += 1
                continue
            messages = build_reflection_prompt(rule, asdict(stats[rule.id]), failures)
            suggestions = parse_refinement_response(backend.complete(messages))
            chosen = next((s for s in suggestions if s.rule_id == rule.id), None)
            if chosen is None:
                log.info("no suggestion for rule %s at iteration %d", rule.id, iteration)
                continue
            revised = apply_suggestion(rule, chosen)
            library.replace_rule(revised)
            event = "retired" if chosen.action == "retire" else "refined"
            detail = f"{chosen.action}"
            if chosen.new_predicate is not None:
                detail += f": {rule.predicate_text} -> {revised.predicate_text}"
            if chosen.new_contexts:
                detail += f": contexts -> {sorted(chosen.new_contexts)}"
            if chosen.rationale:
                detail += f" ({chosen.rationale})"
            library.record(event, rule.id, detail, iteration)
