"""Run configuration shared by the CLI subcommands.

A RunConfig can come from defaults, a JSON config file, command-line
flags, or all three; later sources override earlier ones field by field.
Unknown keys in a config file are an error rather than a silent no-op.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Mapping

from .errors import InputError
from .io import load_json_object


@dataclass(frozen=True)
class RunConfig:
    # feature extraction
    process_noise: float = 1e-2
    measurement_noise: float = 1.0
    no_smoothing: bool = False
    lc_window: int = 120
    lc_threshold: float = 50.0
    min_mean_speed: float = 0.0  # 0 keeps every vehicle
    context: str = "auto"  # auto | any | free_flow | congested
    congestion_speed_threshold: float = 5.0
    # classification
    delta: float = 0.5
    theta: float | None = None  # None keeps the library's own threshold
    # verification loop
    max_iterations: int = 5
    stall_epsilon: float = 0.01
    strict_denominator: bool = False
    # evaluation
    count_undetermined_as_error: bool = False
    # backend
    mock_dir: str = ""
    endpoint: str = "https://api.example.com/v1/chat/completions"
    model: str = "default"
    temperature: float = 0.7
    max_output_tokens: int = 2000
    timeout_s: float = 60.0
    max_retries: int = 3
    # synthetic data
    seed: int = 0
    separation: float = 1.0
    n_av: int = 100
    n_hdv: int = 400
    duration_s: float = 60.0
    frame_rate: float = 25.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value!r}")
        if self.lc_window < 2:
            raise InputError(f"lc_window must be at least 2, got {self.lc_window}")
        if self.lc_threshold <= 0:
            raise InputError(f"lc_threshold must be positive, got {self.lc_threshold}")
        if self.context not in ("auto", "any", "free_flow", "congested"):
            raise InputError(f"context must be auto/any/free_flow/congested, got {self.context!r}")
        if not 0.0 < self.delta < 1.0:
            raise InputError(f"delta {self.delta} outside (0, 1)")
        if self.theta is not None and not 0.0 <= self.theta <= 1.0:
            raise InputError(f"theta {self.theta} outside [0, 1]")
        if self.stall_epsilon < 0:
            raise InputError(f"stall_epsilon must be at least 0, got {self.stall_epsilon}")
        if self.max_iterations < 1:
            raise InputError("max_iterations must be at least 1")


def _coerce(name: str, value: Any, default: Any) -> Any:
    kind = float if default is None else type(default)  # only theta defaults to None
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
            return float(value)
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


def merge_overrides(cfg: RunConfig, overrides: Mapping[str, Any]) -> RunConfig:
    """Apply non-None override values (e.g. parsed CLI flags) onto cfg."""
    known = {f.name for f in fields(RunConfig)}
    patch = {k: v for k, v in overrides.items() if k in known and v is not None}
    return replace(cfg, **patch) if patch else cfg
