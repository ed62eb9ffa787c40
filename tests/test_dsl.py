import numpy as np
import pytest

from trajrules.dsl import (
    And,
    Comparison,
    Not,
    Or,
    RangeTest,
    parse_predicate,
    required_atoms,
    to_dsl,
)
from trajrules.errors import (
    NonFiniteLiteralError,
    PredicateSyntaxError,
    UnknownAtomError,
)
from trajrules.kinematics import ATOMS
from trajrules.rules import MATCHED, NOT_MATCHED, Rule, evaluate_rule


def test_parse_simple_comparison():
    assert parse_predicate("std_jerk < 0.3") == Comparison("std_jerk", "<", 0.3)
    assert parse_predicate("mean_speed >= 12") == Comparison("mean_speed", ">=", 12.0)
    assert parse_predicate("max_decel = 0") == Comparison("max_decel", "=", 0.0)


def test_parse_range():
    assert parse_predicate("mean_speed IN 0.0..2.78") == RangeTest("mean_speed", 0.0, 2.78)
    # equal bounds: a point range
    assert parse_predicate("std_speed IN 1.0..1.0") == RangeTest("std_speed", 1.0, 1.0)


def test_range_bounds_out_of_order():
    with pytest.raises(PredicateSyntaxError):
        parse_predicate("mean_speed IN 5.0..1.0")


def test_keywords_case_insensitive():
    upper = parse_predicate("NOT std_jerk < 0.3 AND mean_speed > 1 OR std_speed <= 2")
    lower = parse_predicate("not std_jerk < 0.3 and mean_speed > 1 or std_speed <= 2")
    mixed = parse_predicate("Not std_jerk < 0.3 And mean_speed > 1 Or std_speed <= 2")
    assert upper == lower == mixed


def test_atom_names_fold_to_lowercase():
    assert parse_predicate("STD_JERK < 1") == parse_predicate("std_jerk < 1")


def test_unicode_comparators_normalize():
    assert parse_predicate("std_jerk ≤ 0.3") == Comparison("std_jerk", "<=", 0.3)
    assert parse_predicate("std_jerk ≥ 0.3") == Comparison("std_jerk", ">=", 0.3)


def test_and_binds_tighter_than_or():
    pred = parse_predicate("mean_speed < 1 OR std_speed < 2 AND std_jerk < 3")
    assert isinstance(pred, Or)
    assert pred.children[0] == Comparison("mean_speed", "<", 1.0)
    assert pred.children[1] == And((
        Comparison("std_speed", "<", 2.0),
        Comparison("std_jerk", "<", 3.0),
    ))


def test_not_applies_to_single_clause():
    pred = parse_predicate("NOT mean_speed < 5 AND std_speed > 1")
    assert pred == And((
        Not(Comparison("mean_speed", "<", 5.0)),
        Comparison("std_speed", ">", 1.0),
    ))


def test_not_with_range():
    pred = parse_predicate("NOT mean_speed IN 1..2")
    assert pred == Not(RangeTest("mean_speed", 1.0, 2.0))


def test_unknown_atom_rejected_with_position():
    with pytest.raises(UnknownAtomError) as err:
        parse_predicate("mean_speed < 1 AND warp_factor > 9")
    assert err.value.position == len("mean_speed < 1 AND ")


def test_syntax_errors_carry_position():
    with pytest.raises(PredicateSyntaxError) as err:
        parse_predicate("mean_speed <")
    assert err.value.position >= 0
    with pytest.raises(PredicateSyntaxError):
        parse_predicate("mean_speed 5")
    with pytest.raises(PredicateSyntaxError):
        parse_predicate("")
    with pytest.raises(PredicateSyntaxError):
        parse_predicate("mean_speed IN 1..")


def test_unexpected_character_position():
    with pytest.raises(PredicateSyntaxError) as err:
        parse_predicate("mean_speed < 1 @ std_speed")
    assert err.value.position == 15


def test_trailing_input_rejected():
    with pytest.raises(PredicateSyntaxError):
        parse_predicate("mean_speed < 1 std_speed < 2")


def test_non_finite_literal_rejected():
    with pytest.raises(NonFiniteLiteralError):
        parse_predicate("mean_speed < 1e999")


def test_scientific_and_signed_numbers():
    assert parse_predicate("mean_accel > -0.5") == Comparison("mean_accel", ">", -0.5)
    assert parse_predicate("std_jerk < 1.5e-3") == Comparison("std_jerk", "<", 0.0015)
    assert parse_predicate("mean_speed < .5") == Comparison("mean_speed", "<", 0.5)


def test_print_parse_fixpoint_on_corpus():
    corpus = [
        "std_jerk < 0.3",
        "mean_speed IN 0.0..2.78",
        "NOT max_decel >= 1.5",
        "std_speed < 2.0 AND std_jerk < 0.4",
        "mean_speed < 1 OR std_speed < 2 AND std_jerk < 3",
        "NOT mean_speed IN 1.0..2.0 OR std_accel > 0.1",
        "lane_change_rate > 0.5 AND NOT pre_lane_change_decel IN 0.2..0.3",
    ]
    for text in corpus:
        tree = parse_predicate(text)
        printed = to_dsl(tree)
        assert parse_predicate(printed) == tree
        # printing is canonical: a second round trip is the identity
        assert to_dsl(parse_predicate(printed)) == printed


def random_leaf(rng):
    atom = str(rng.choice(ATOMS))
    if rng.random() < 0.3:
        lo = float(np.round(rng.normal(0, 10), 4))
        hi = lo + abs(float(np.round(rng.normal(0, 5), 4)))
        node = RangeTest(atom, lo, hi)
    else:
        op = str(rng.choice(["<", "<=", ">", ">=", "="]))
        node = Comparison(atom, op, float(np.round(rng.normal(0, 10), 4)))
    return Not(node) if rng.random() < 0.25 else node


def random_predicate(rng):
    roll = rng.random()
    if roll < 0.4:
        return random_leaf(rng)
    if roll < 0.7:
        return And(tuple(random_leaf(rng) for _ in range(rng.integers(2, 4))))
    branches = []
    for _ in range(rng.integers(2, 4)):
        if rng.random() < 0.5:
            branches.append(And(tuple(random_leaf(rng) for _ in range(2))))
        else:
            branches.append(random_leaf(rng))
    return Or(tuple(branches))


def test_print_parse_fixpoint_randomized():
    rng = np.random.default_rng(42)
    for _ in range(200):
        tree = random_predicate(rng)
        assert parse_predicate(to_dsl(tree)) == tree


def test_unprintable_trees_raise():
    leaf = Comparison("std_jerk", "<", 0.3)
    with pytest.raises(ValueError):
        to_dsl(Not(And((leaf, leaf))))
    with pytest.raises(ValueError):
        to_dsl(And((And((leaf, leaf)), leaf)))
    with pytest.raises(ValueError):
        to_dsl(Or((Or((leaf, leaf)), leaf)))
    with pytest.raises(ValueError):
        to_dsl(And((Or((leaf, leaf)), leaf)))


def test_required_atoms():
    pred = parse_predicate(
        "mean_speed < 1 OR std_speed < 2 AND NOT std_jerk IN 0.1..0.2"
    )
    assert required_atoms(pred) == frozenset({"mean_speed", "std_speed", "std_jerk"})


def holds(text, features):
    """Whether evaluate_rule matches a rule that wraps the predicate; never not applicable here."""
    rule = Rule(id="P", description="predicate under test", predicate=parse_predicate(text))
    verdict = evaluate_rule(rule, features, "any")
    assert verdict in (MATCHED, NOT_MATCHED)
    return verdict == MATCHED


def test_evaluate_comparisons():
    feats = {"std_jerk": 0.3}
    assert holds("std_jerk < 0.31", feats)
    assert not holds("std_jerk < 0.3", feats)
    assert holds("std_jerk <= 0.3", feats)
    assert holds("std_jerk >= 0.3", feats)
    assert not holds("std_jerk > 0.3", feats)
    assert holds("std_jerk = 0.3", feats)


def test_evaluate_range_bounds_inclusive():
    pred = "mean_speed IN 1.0..2.0"
    assert holds(pred, {"mean_speed": 1.0})
    assert holds(pred, {"mean_speed": 2.0})
    assert not holds(pred, {"mean_speed": 2.0001})


def test_evaluate_boolean_structure():
    pred = "mean_speed < 1 OR std_speed < 2 AND std_jerk < 3"
    assert holds(pred, {"mean_speed": 0.5, "std_speed": 9, "std_jerk": 9})
    assert holds(pred, {"mean_speed": 9, "std_speed": 1, "std_jerk": 1})
    assert not holds(pred, {"mean_speed": 9, "std_speed": 1, "std_jerk": 9})
    assert not holds("NOT std_jerk < 1", {"std_jerk": 0.5})
