import json
import math

import pytest

from trajrules.dsl import parse_predicate
from trajrules.errors import (
    CorruptLibraryError,
    InputError,
    LibraryValidationError,
    UnitMismatchError,
)
from trajrules.io import load_feature_rows, load_library, save_feature_rows, save_library
from trajrules.rules import (
    MATCHED,
    NOT_APPLICABLE,
    NOT_MATCHED,
    VERDICTS,
    FeatureTable,
    Rule,
    RuleLibrary,
    evaluate_rule,
    seed_library,
)


def make_rule(predicate="std_jerk < 0.3", contexts=("any",), **kwargs):
    defaults = dict(
        id="T1",
        description="test rule",
        predicate=parse_predicate(predicate),
        contexts=frozenset(contexts),
        tasks=frozenset({"identification"}),
        category="smoothness",
    )
    defaults.update(kwargs)
    return Rule(**defaults)


def test_verdict_matched_and_not_matched():
    rule = make_rule()
    assert evaluate_rule(rule, {"std_jerk": 0.1}, "any") == MATCHED
    assert evaluate_rule(rule, {"std_jerk": 0.9}, "any") == NOT_MATCHED


def test_missing_atom_is_not_applicable():
    rule = make_rule()
    assert evaluate_rule(rule, {"mean_speed": 5.0}, "any") == NOT_APPLICABLE


def test_nan_atom_is_not_applicable():
    rule = make_rule()
    assert evaluate_rule(rule, {"std_jerk": math.nan}, "any") == NOT_APPLICABLE


def test_compound_predicate_needs_every_atom():
    rule = make_rule(predicate="std_jerk < 0.3 AND mean_speed > 5")
    assert evaluate_rule(rule, {"std_jerk": 0.1}, "any") == NOT_APPLICABLE
    assert evaluate_rule(rule, {"std_jerk": 0.1, "mean_speed": 9.0}, "any") == MATCHED


def test_context_scoping():
    rule = make_rule(contexts=("free_flow",))
    assert evaluate_rule(rule, {"std_jerk": 0.1}, "free_flow") == MATCHED
    assert evaluate_rule(rule, {"std_jerk": 0.1}, "congested") == NOT_APPLICABLE
    # unknown sample context: every rule stays in scope
    assert evaluate_rule(rule, {"std_jerk": 0.1}, "any") == MATCHED


def test_any_context_rule_applies_everywhere():
    rule = make_rule(contexts=("any",))
    for ctx in ("free_flow", "congested", "any"):
        assert evaluate_rule(rule, {"std_jerk": 0.1}, ctx) == MATCHED


def test_unit_mismatch_raises():
    rule = make_rule()
    # the one-row table names its vehicle '?'
    with pytest.raises(UnitMismatchError, match=r"^vehicle '\?': features are in 'pixel' units, "
                                                r"library expects 'metric'$"):
        evaluate_rule(rule, {"std_jerk": 0.1}, "any",
                      feature_units="pixel", library_units="metric")
    # one side unknown: no error
    assert evaluate_rule(rule, {"std_jerk": 0.1}, "any",
                         feature_units=None, library_units="metric") == MATCHED
    assert evaluate_rule(rule, {"std_jerk": 0.1}, "any",
                         feature_units="metric", library_units="metric") == MATCHED


def test_feature_table_reads_loaded_rows(tmp_path):
    # the keys a row may leave out: context reads "any", unit_system and label None
    path = tmp_path / "f.jsonl"
    save_feature_rows([
        {"vehicle_id": "a", "features": {"std_jerk": 0.1}, "label": "AV"},
        {"vehicle_id": "b", "features": {}, "context": "congested", "unit_system": "metric"},
        {"vehicle_id": "c", "features": {"std_jerk": 0.9}, "context": "free_flow",
         "unit_system": "pixel", "label": "HDV"},
    ], path)
    table = FeatureTable(load_feature_rows(path))
    assert len(table) == 3
    assert table.column("std_jerk").tolist()[::2] == [0.1, 0.9]
    assert math.isnan(table.column("std_jerk")[1])
    assert table.label_mask("AV").tolist() == [True, False, False]
    rule = make_rule(contexts=("congested",))
    assert [VERDICTS[c] for c in table.verdicts(rule)] == \
        [MATCHED, NOT_APPLICABLE, NOT_APPLICABLE]
    with pytest.raises(UnitMismatchError, match="^vehicle 'c': features are in 'pixel' units"):
        table.verdicts(rule, library_units="metric")


def test_context_constraint_allows():
    c = make_rule(contexts=("free_flow",))
    assert evaluate_rule(c, {"std_jerk": 0.1}, "free_flow") == MATCHED
    assert evaluate_rule(c, {"std_jerk": 0.1}, "congested") == NOT_APPLICABLE
    both = make_rule(contexts=("any",))
    assert evaluate_rule(both, {"std_jerk": 0.1}, "congested") == MATCHED


def test_rule_validation():
    with pytest.raises(LibraryValidationError):
        make_rule(category="vibes")
    with pytest.raises(LibraryValidationError):
        make_rule(polarity="sideways")
    with pytest.raises(LibraryValidationError):
        make_rule(state="zombie")
    with pytest.raises(LibraryValidationError):
        make_rule(direction="upward")
    with pytest.raises(LibraryValidationError):
        make_rule(id="")
    with pytest.raises(LibraryValidationError):
        make_rule(confidence=1.5)


def test_predicate_text_round_trips():
    rule = make_rule(predicate="std_jerk < 0.3 AND mean_speed > 5.0")
    assert parse_predicate(rule.predicate_text) == rule.predicate


def test_seed_library_contents():
    lib = seed_library()
    assert lib.theta == 0.7
    assert len(lib.rules) == 11
    assert all(r.state == "verified" for r in lib.rules)
    assert all(r.confidence == pytest.approx(0.825) for r in lib.rules)
    ids = [r.id for r in lib.rules]
    assert ids == ["R2", "R3", "R4", "R7", "R11", "R12", "R15", "R20", "R27", "R29", "R30"]
    r7 = lib.get("R7")
    assert r7.contexts == frozenset({"free_flow"})
    assert "speed" in r7.tasks
    assert lib.get("R27").predicate_text == "std_jerk < 0.3"


def test_library_add_and_replace():
    lib = RuleLibrary()
    v0 = lib.version
    lib.add_rule(make_rule(id="A"))
    assert lib.version == v0 + 1
    with pytest.raises(LibraryValidationError):
        lib.add_rule(make_rule(id="A"))
    lib.replace_rule(make_rule(id="A", description="updated"))
    assert lib.get("A").description == "updated"
    assert lib.version == v0 + 2
    with pytest.raises(KeyError):
        lib.replace_rule(make_rule(id="missing"))
    with pytest.raises(KeyError):
        lib.get("nope")


def test_verified_filters():
    lib = RuleLibrary()
    lib.add_rule(make_rule(id="ver", state="verified", confidence=0.9))
    lib.add_rule(make_rule(id="cand", state="candidate"))
    lib.add_rule(make_rule(id="ret", state="retired"))
    lib.add_rule(make_rule(id="hdv", state="verified", confidence=0.9,
                           polarity="HDV_indicative"))
    lib.add_rule(make_rule(id="spd", state="verified", confidence=0.9,
                           tasks=frozenset({"speed"})))
    lib.add_rule(make_rule(id="both", state="verified", confidence=0.9,
                           tasks=frozenset({"identification", "lane_change"})))
    assert [r.id for r in lib.verified_rules("identification")] == ["ver", "hdv", "both"]
    assert [r.id for r in lib.verified_rules("speed")] == ["spd"]
    assert [r.id for r in lib.verified_rules("lane_change")] == ["both"]


def test_record_appends_provenance():
    lib = RuleLibrary()
    lib.record("retired", "X", "zero coverage", iteration=2)
    assert lib.provenance[-1]["event"] == "retired"
    assert lib.provenance[-1]["iteration"] == 2


def test_save_load_round_trip(tmp_path):
    lib = seed_library()
    lib.record("refined", "R2", "tightened", iteration=1)
    path = tmp_path / "lib.json"
    save_library(lib, path)
    loaded = load_library(path)
    assert loaded.theta == lib.theta
    assert loaded.version == lib.version
    assert loaded.units == lib.units
    assert len(loaded.rules) == len(lib.rules)
    for a, b in zip(lib.rules, loaded.rules):
        assert a.id == b.id
        assert a.predicate == b.predicate
        assert a.contexts == b.contexts
        assert a.tasks == b.tasks
        assert a.confidence == b.confidence
        assert a.state == b.state
        assert a.category == b.category
        assert a.polarity == b.polarity
    assert loaded.provenance == lib.provenance

    # byte-identical re-save: no drift through the cycle
    path2 = tmp_path / "lib2.json"
    save_library(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_unknown_fields_survive_round_trip(tmp_path):
    path = tmp_path / "lib.json"
    save_library(seed_library(), path)
    doc = json.loads(path.read_text())
    doc["future_top"] = {"a": 1}
    doc["rules"][0]["future_rule"] = "keep me"
    path.write_text(json.dumps(doc))
    loaded = load_library(path)
    out = tmp_path / "out.json"
    save_library(loaded, out)
    redone = json.loads(out.read_text())
    assert redone["future_top"] == {"a": 1}
    assert redone["rules"][0]["future_rule"] == "keep me"


def test_corrupt_library_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CorruptLibraryError):
        load_library(path)


MALFORMED = [  # (library keys, keys of its one rule, error message)
    ({"theta": None}, {}, "theta must be a number, got None"),
    ({"theta": "abc"}, {}, "theta must be a number, got 'abc'"),
    ({"units": None}, {}, "units must be one of ('pixel', 'metric'), got None"),
    ({"units": "feet"}, {}, "units must be one of ('pixel', 'metric'), got 'feet'"),
    ({"provenance": 5}, {}, "library 'provenance' must be an array"),
    ({"rules": [5]}, {}, "rule entry 0 must be a JSON object, got 5"),
    ({}, {"revision": "x"}, "X: revision must be an integer, got 'x'"),
    ({}, {"confidence": "0.8"}, "X: confidence must be a number, got '0.8'"),
    ({"version": True}, {}, "library 'version' must be an integer"),
    ({}, {"id": None}, "rule entry 0: 'id' must be a string, got None"),
    ({}, {"description": None}, "rule X: 'description' must be a string, got None"),
    ({}, {"predicate": 5}, "rule X: 'predicate' must be a string, got 5"),
    ({}, {"contexts": 5}, "rule X: 'contexts' must be an array of strings, got 5"),
    ({}, {"tasks": [["speed"]]}, "rule X: 'tasks' must be an array of strings, got [['speed']]"),
    ({}, {"contexts": []}, "X: contexts must not be empty"),
    ({}, {"tasks": ["parking"]}, "X: unknown tasks: ['parking']"),
]


def test_invalid_library_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 1, "theta": 0.7, "units": "metric"}))
    with pytest.raises(CorruptLibraryError):
        load_library(path)

    rule = {
        "id": "X", "description": "d", "predicate": "std_jerk < 0.3",
        "contexts": ["any"], "tasks": ["identification"],
        "category": "smoothness", "polarity": "AV_indicative",
        "state": "zombie", "confidence": None, "revision": 0,
    }
    path.write_text(json.dumps(
        {"version": 1, "theta": 0.7, "units": "metric", "rules": [rule]}
    ))
    with pytest.raises(LibraryValidationError):
        load_library(path)

    rule["state"] = "candidate"
    rule["predicate"] = "std_jerk <"
    path.write_text(json.dumps(
        {"version": 1, "theta": 0.7, "units": "metric", "rules": [rule]}
    ))
    with pytest.raises(LibraryValidationError):
        load_library(path)

    rule["predicate"] = "std_jerk < 0.3"
    for library, bad, message in MALFORMED:
        path.write_text(json.dumps({"version": 1, "theta": 0.7, "units": "metric",
                                    "rules": [{**rule, **bad}], **library}))
        with pytest.raises(InputError) as info:
            load_library(path)
        assert str(info.value) == message


def test_library_theta_validation():
    with pytest.raises(LibraryValidationError):
        RuleLibrary(theta=1.5)
    with pytest.raises(LibraryValidationError):
        RuleLibrary(theta=-0.1)
