"""The scalar rule evaluator, kept as the independent oracle of FeatureTable.

These are the recursive predicate walk and the one-vehicle rule evaluation
that rules.FeatureTable replaced with column masks. They share no code with
the table: the scope test, the missing/NaN test and the unit check are
written out here again, so a test that compares the two is not comparing
the table with itself.
"""
from __future__ import annotations

from typing import Mapping

from trajrules import dsl
from trajrules.errors import UnitMismatchError
from trajrules.rules import MATCHED, NOT_APPLICABLE, NOT_MATCHED, Rule


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
