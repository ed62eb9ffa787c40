"""File formats: trajectories and feature rows as JSONL, reports as JSON.

One JSON object per line keeps large datasets streamable and diffs small.
All writers sort keys and skip timestamps, so identical inputs produce
byte-identical files.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import SchemaError
from .rules import CONTEXTS
from .trajectory import LABELS, UNIT_SYSTEMS, Trajectory


def dump_json(obj: object, path: str | Path) -> None:
    """Canonical JSON file: sorted keys, two-space indent, trailing newline."""
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _check_label(value: object, line: int) -> str | None:
    if value is None:
        return None
    if value not in LABELS:
        raise SchemaError(f"label must be one of {LABELS}, got {value!r}", line)
    return str(value)


def trajectory_to_dict(traj: Trajectory) -> dict:
    doc: dict = {
        "vehicle_id": traj.vehicle_id,
        "frame_rate": traj.frame_rate,
        "unit_system": traj.unit_system,
        "points": list(map(list, zip(traj.t.tolist(), traj.x.tolist(), traj.y.tolist()))),
    }
    if traj.unit_scale != 1.0:
        doc["unit_scale"] = traj.unit_scale
    if traj.label is not None:
        doc["label"] = traj.label
    return doc


def _parse_points(raw: object, line: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split [[t, x, y], ...] into int64 frames and float64 coordinates.

    Types are checked column by column: frames must be JSON integers and
    coordinates JSON numbers; booleans, strings and null are rejected.
    """
    if not isinstance(raw, list) or not raw:
        raise SchemaError("'points' must be a non-empty array", line)
    if not set(map(type, raw)) <= {list, tuple} or set(map(len, raw)) != {3}:
        bad = next(e for e in raw if type(e) not in (list, tuple) or len(e) != 3)
        raise SchemaError(f"each point must be [t, x, y], got {bad!r}", line)
    t, x, y = zip(*raw)
    if set(map(type, t)) != {int}:
        bad = next(v for v in t if type(v) is not int)
        raise SchemaError(f"frame index must be an integer, got {bad!r}", line)
    if not set(map(type, x)) | set(map(type, y)) <= {int, float}:
        bad = next(v for v in x + y if type(v) not in (int, float))
        raise SchemaError(f"coordinate must be a number, got {bad!r}", line)
    try:
        return (np.array(t, dtype=np.int64), np.array(x, dtype=np.float64),
                np.array(y, dtype=np.float64))
    except OverflowError as exc:
        raise SchemaError(f"point out of range: {exc}", line) from exc


def trajectory_from_dict(doc: dict, line: int = 0) -> Trajectory:
    if not isinstance(doc, dict):
        raise SchemaError("trajectory record must be a JSON object", line)
    for key in ("vehicle_id", "frame_rate", "points"):
        if key not in doc:
            raise SchemaError(f"trajectory record missing {key!r}", line)
    t, x, y = _parse_points(doc["points"], line)
    unit_system = doc.get("unit_system", "metric")
    if unit_system not in UNIT_SYSTEMS:
        raise SchemaError(
            f"unit_system must be one of {UNIT_SYSTEMS}, got {unit_system!r}", line
        )
    try:
        return Trajectory(
            vehicle_id=str(doc["vehicle_id"]),
            t=t,
            x=x,
            y=y,
            frame_rate=float(doc["frame_rate"]),
            unit_scale=float(doc.get("unit_scale", 1.0)),
            unit_system=unit_system,
            label=_check_label(doc.get("label"), line),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc), line) from exc


def load_trajectories(path: str | Path) -> list[Trajectory]:
    """Read a JSONL trajectory file; SchemaError names the offending line."""
    trajectories = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                doc = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"invalid JSON: {exc.msg}", lineno) from exc
            trajectories.append(trajectory_from_dict(doc, lineno))
    return trajectories


def save_trajectories(trajectories: Iterable[Trajectory], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for traj in trajectories:
            fh.write(json.dumps(trajectory_to_dict(traj), sort_keys=True) + "\n")


def load_feature_rows(path: str | Path) -> list[dict]:
    """Read a JSONL feature file written by save_feature_rows.

    Each row carries vehicle_id, a mapping of finite feature values, and
    optionally label, context, and unit_system.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                doc = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"invalid JSON: {exc.msg}", lineno) from exc
            if not isinstance(doc, dict):
                raise SchemaError("feature record must be a JSON object", lineno)
            if "vehicle_id" not in doc:
                raise SchemaError("feature record missing 'vehicle_id'", lineno)
            features = doc.get("features")
            if not isinstance(features, dict):
                raise SchemaError("feature record missing 'features' mapping", lineno)
            for key, value in features.items():
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise SchemaError(
                        f"feature {key!r} must be numeric, got {value!r}", lineno
                    )
                if not -math.inf < value < math.inf:  # NaN fails both comparisons
                    raise SchemaError(
                        f"feature {key!r} must be finite, got {value!r}", lineno
                    )
            if doc.get("context", "any") not in CONTEXTS:
                raise SchemaError(
                    f"context must be one of {CONTEXTS}, got {doc['context']!r}", lineno
                )
            _check_label(doc.get("label"), lineno)
            rows.append(doc)
    return rows


def save_feature_rows(rows: Sequence[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
