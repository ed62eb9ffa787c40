"""Run configuration shared by the CLI subcommands.

A RunConfig can come from defaults, a JSON config file, command-line
flags, or all three; later sources override earlier ones field by field.
Unknown keys in a config file are an error rather than a silent no-op.
build() makes the synth and backend settings from a RunConfig by field name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Mapping

from .classification import CONGESTION_SPEED_THRESHOLD
from .errors import InputError
from .io import load_json_object
from .llm import BackendConfig
from .rules import CONTEXTS
from .synth import GeneratorConfig
from .verification import DEFAULT_MAX_ITERATIONS, DEFAULT_STALL_EPSILON


CONTEXT_CHOICES = ("auto", *CONTEXTS)  # auto: from the vehicle's mean speed


@dataclass(frozen=True)
class RunConfig:
    # feature extraction
    process_noise: float = 1e-2
    measurement_noise: float = 1.0
    no_smoothing: bool = False
    lc_window: int = 120
    lc_threshold: float | None = None  # None: by the track's unit system
    min_mean_speed: float = 0.0  # 0 keeps every vehicle
    context: str = "auto"  # one of CONTEXT_CHOICES
    congestion_speed_threshold: float = CONGESTION_SPEED_THRESHOLD
    # classification
    delta: float = 0.5
    theta: float | None = None  # None keeps the library's own threshold
    # verification loop
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    stall_epsilon: float = DEFAULT_STALL_EPSILON
    strict_denominator: bool = False
    # evaluation
    count_undetermined_as_error: bool = False
    # backend; build(BackendConfig, cfg) reads the fields named as its own
    mock_dir: str = ""
    endpoint: str = BackendConfig.endpoint
    model: str = BackendConfig.model
    temperature: float = BackendConfig.temperature
    max_output_tokens: int = BackendConfig.max_output_tokens
    timeout_s: float = BackendConfig.timeout_s
    max_retries: int = BackendConfig.max_retries
    # synthetic data; build(GeneratorConfig, cfg) reads the fields named as its own
    seed: int = GeneratorConfig.seed
    separation: float = GeneratorConfig.separation
    n_av: int = GeneratorConfig.n_av
    n_hdv: int = GeneratorConfig.n_hdv
    duration_s: float = GeneratorConfig.duration_s
    frame_rate: float = GeneratorConfig.frame_rate

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value!r}")
        for name in ("process_noise", "measurement_noise"):
            if getattr(self, name) <= 0:
                raise InputError(f"{name} must be positive, got {getattr(self, name)}")
        if self.lc_window < 2:
            raise InputError(f"lc_window must be at least 2, got {self.lc_window}")
        if self.lc_threshold is not None and self.lc_threshold <= 0:
            raise InputError(f"lc_threshold must be positive, got {self.lc_threshold}")
        if self.context not in CONTEXT_CHOICES:
            raise InputError(f"context must be {'/'.join(CONTEXT_CHOICES)}, got {self.context!r}")
        if not 0.0 < self.delta < 1.0:
            raise InputError(f"delta {self.delta} outside (0, 1)")
        if self.theta is not None and not 0.0 <= self.theta <= 1.0:
            raise InputError(f"theta {self.theta} outside [0, 1]")
        if self.stall_epsilon < 0:
            raise InputError(f"stall_epsilon must be at least 0, got {self.stall_epsilon}")
        if self.max_iterations < 1:
            raise InputError("max_iterations must be at least 1")


def _coerce(name: str, value: Any, default: Any) -> Any:
    kind = float if default is None else type(default)  # theta and lc_threshold
    if kind is bool:
        if isinstance(value, bool):
            return value
        raise InputError(f"config key {name!r} must be true or false, got {value!r}")
    if kind is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise InputError(f"config key {name!r} must be an integer, got {value!r}")
    if kind is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                return float(value)
            except OverflowError:  # an integer beyond float range
                raise InputError(f"config key {name!r} must be finite, got {value!r}") from None
        raise InputError(f"config key {name!r} must be a number, got {value!r}")
    if isinstance(value, str):
        return value
    raise InputError(f"config key {name!r} must be a string, got {value!r}")


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON config file. Unknown keys and wrong types raise InputError."""
    doc = load_json_object(path, "config file", InputError)
    defaults = RunConfig()
    known = {f.name: getattr(defaults, f.name) for f in fields(RunConfig)}
    patch = {}
    for key, value in doc.items():
        if key not in known:
            raise InputError(f"unknown config key {key!r}")
        patch[key] = _coerce(key, value, known[key])
    return replace(defaults, **patch)


def build(kind: type, cfg: RunConfig):
    """kind (GeneratorConfig or BackendConfig) from cfg's fields of the same
    names, the rest at kind's defaults; kind's ValueError becomes InputError."""
    try:
        return kind(**{f.name: getattr(cfg, f.name) for f in fields(kind) if hasattr(cfg, f.name)})
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def merge_overrides(cfg: RunConfig, overrides: Mapping[str, Any]) -> RunConfig:
    """Apply non-None override values (e.g. parsed CLI flags) onto cfg."""
    known = {f.name for f in fields(RunConfig)}
    patch = {k: v for k, v in overrides.items() if k in known and v is not None}
    return replace(cfg, **patch) if patch else cfg
