import json
import math
from dataclasses import fields
from typing import get_args, get_type_hints

import pytest

from trajrules.config import RunConfig, build, load_config, merge_overrides, setting_type
from trajrules.errors import InputError
from trajrules.llm import BackendConfig
from trajrules.synth import GeneratorConfig


def write_config(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_defaults():
    cfg = RunConfig()
    assert cfg.delta == 0.5
    assert cfg.theta is None
    assert cfg.max_iterations == 5
    assert cfg.context == "auto"
    assert cfg.no_smoothing is False
    assert cfg.n_av == 100 and cfg.n_hdv == 400


@pytest.mark.parametrize("kind", [GeneratorConfig, BackendConfig],
                         ids=["GeneratorConfig", "BackendConfig"])
def test_settings_fields_are_run_config_fields_with_the_same_defaults(kind):
    ours = {f.name: f.default for f in fields(RunConfig)}
    theirs = {f.name: f.default for f in fields(kind)}
    assert {name: ours.get(name) for name in theirs} == theirs
    assert build(kind, RunConfig()) == kind()


def test_build_reads_fields_by_name_and_raises_input_errors():
    cfg = RunConfig(seed=9, n_av=3, model="m", max_retries=0)
    assert build(GeneratorConfig, cfg) == GeneratorConfig(seed=9, n_av=3)
    assert build(BackendConfig, cfg) == BackendConfig(model="m", max_retries=0)
    with pytest.raises(InputError, match=r"^temperature 3.0 outside \[0, 2\]$"):
        build(BackendConfig, RunConfig(temperature=3.0))
    with pytest.raises(InputError, match="^seed must be nonnegative$"):
        build(GeneratorConfig, RunConfig(seed=-1))


def test_load_overrides_fields(tmp_path):
    path = write_config(tmp_path, {"delta": 0.6, "lc_window": 90, "context": "free_flow"})
    cfg = load_config(path)
    assert cfg.delta == 0.6
    assert cfg.lc_window == 90
    assert cfg.context == "free_flow"
    # untouched fields keep defaults
    assert cfg.theta is None


def test_load_unknown_key(tmp_path):
    path = write_config(tmp_path, {"detla": 0.6})
    with pytest.raises(InputError) as exc_info:
        load_config(path)
    assert "detla" in str(exc_info.value)


def test_coerced_values_still_hit_range_checks(tmp_path):
    # the int 1 widens to delta=1.0, which the range check must then reject
    with pytest.raises(InputError):
        load_config(write_config(tmp_path, {"delta": 1}))


def test_float_field_accepts_int(tmp_path):
    cfg = load_config(write_config(tmp_path, {"timeout_s": 30}))
    assert cfg.timeout_s == 30.0
    assert isinstance(cfg.timeout_s, float)


def test_int_field_rejects_float(tmp_path):
    with pytest.raises(InputError):
        load_config(write_config(tmp_path, {"lc_window": 2.5}))


def test_bool_field_is_strict(tmp_path):
    cfg = load_config(write_config(tmp_path, {"no_smoothing": True}))
    assert cfg.no_smoothing is True
    with pytest.raises(InputError):
        load_config(write_config(tmp_path, {"no_smoothing": 1}))
    with pytest.raises(InputError):
        load_config(write_config(tmp_path, {"no_smoothing": "yes"}))


def test_int_field_rejects_bool(tmp_path):
    with pytest.raises(InputError):
        load_config(write_config(tmp_path, {"lc_window": True}))


def test_string_field_rejects_number(tmp_path):
    with pytest.raises(InputError):
        load_config(write_config(tmp_path, {"model": 7}))


def test_validation_errors():
    with pytest.raises(InputError):
        RunConfig(context="highway")
    with pytest.raises(InputError):
        RunConfig(delta=0.0)
    with pytest.raises(InputError):
        RunConfig(delta=1.0)
    with pytest.raises(InputError):
        RunConfig(theta=1.5)
    with pytest.raises(InputError):
        RunConfig(max_iterations=0)
    with pytest.raises(InputError, match="^stall_epsilon must be at least 0, got -0.5$"):
        RunConfig(stall_epsilon=-0.5)
    assert RunConfig(stall_epsilon=0.0).stall_epsilon == 0.0
    with pytest.raises(InputError, match="^process_noise -1.0 is outside 1e-12-1e\\+12$"):
        RunConfig(process_noise=-1.0)
    with pytest.raises(InputError, match="^measurement_noise 0.0 is outside 1e-12-1e\\+12$"):
        RunConfig(measurement_noise=0.0)


def test_setting_type_is_the_annotated_type():
    for name, hint in get_type_hints(RunConfig).items():
        assert set(get_args(hint) or (hint,)) - {type(None)} == {setting_type(name)}, name


FLOAT_FIELDS = [name for name, hint in get_type_hints(RunConfig).items()
                if float in (hint, *get_args(hint))]


@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_every_float_field_must_be_finite(name):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError) as exc:
            RunConfig(**{name: value})
        assert str(exc.value) == f"{name} must be finite, got {value!r}"


@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_float_key_beyond_float_range_is_an_input_error(tmp_path, name):
    with pytest.raises(InputError) as exc:
        load_config(write_config(tmp_path, {name: 10**400}))
    assert str(exc.value) == f"config key {name!r} must be finite, got {10**400}"


def test_load_validates_after_merge(tmp_path):
    with pytest.raises(InputError):
        load_config(write_config(tmp_path, {"delta": 0.99, "theta": 2.0}))


def test_load_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_config(tmp_path / "absent.json")


def test_load_invalid_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InputError):
        load_config(path)


def test_load_non_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(InputError):
        load_config(path)


def test_merge_overrides():
    cfg = RunConfig(theta=0.7)
    merged = merge_overrides(cfg, {"delta": 0.8, "theta": None, "not_a_field": 9})
    assert merged.delta == 0.8
    assert merged.theta == 0.7  # None means "flag not given"
    assert not hasattr(merged, "not_a_field")


def test_merge_no_changes_returns_same_object():
    cfg = RunConfig()
    assert merge_overrides(cfg, {"theta": None}) is cfg
