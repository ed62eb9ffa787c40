"""File formats: trajectories and feature rows as JSONL; rule libraries,
reports and config files as JSON.

Every file the pipeline reads or writes is opened here. One JSON object per
line keeps large datasets streamable and diffs small. All writers sort keys
and skip timestamps, so identical inputs produce byte-identical files.
"""
from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from . import dsl
from .errors import (
    CorruptLibraryError,
    InputError,
    LibraryValidationError,
    PredicateError,
    SchemaError,
)
from .metrics import UNDETERMINED
from .rules import CONTEXTS, DEFAULT_THETA, Rule, RuleLibrary
from .trajectory import LABELS, UNIT_SYSTEMS, Trajectory

DECISIONS = (*LABELS, UNDETERMINED)


# Encodes a container that holds no other container, one item per line at
# one indent step; dump_json adds the bracket newlines and the depth.
_FLAT_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n  ", ": "))
_CONTAINERS = (dict, list, tuple)
_BATCH = 4096  # pieces joined per write


def dump_json(obj: object, path: str | Path) -> None:
    """Canonical JSON file: sorted keys, two-space indent, trailing newline.

    The bytes are json.dumps(obj, indent=2, sort_keys=True) plus a newline,
    made without the pure-Python encoder that indent selects: each container
    that holds no other container is one call of the C encoder. Its text is
    kept by identity until the next batch of pieces is written, so an object
    shared across a stretch of the document is encoded once there. Batches
    are written between the items of any container, so neither a large
    report nor the text of its flat items is ever held in memory whole.
    """
    with open(path, "w", encoding="utf-8") as fh:
        parts: list[str] = []
        _write_value(obj, 0, parts, {}, fh)
        parts.append("\n")
        fh.write("".join(parts))


def _key_text(key: object) -> str:
    if isinstance(key, str):
        return _FLAT_ENCODER.encode(key)
    # int, float, bool and None keys become strings as json converts them
    # ({1: 0} -> {"1": 0}); anything else raises json's TypeError
    return _FLAT_ENCODER.encode({key: None})[1:-len(": null}")]


def _write_value(obj: object, depth: int, parts: list[str],
                 memo: dict[tuple[int, int], str], fh: TextIO) -> None:
    """Append obj's indented text at depth to parts; write parts out in batches."""
    if not isinstance(obj, _CONTAINERS):
        parts.append(_FLAT_ENCODER.encode(obj))
        return
    text = memo.get((id(obj), depth))
    if text is not None:
        parts.append(text)
        return
    is_dict = isinstance(obj, dict)
    if not any(isinstance(v, _CONTAINERS) for v in (obj.values() if is_dict else obj)):
        text = _FLAT_ENCODER.encode(obj)
        if obj:
            # ensure_ascii escapes newlines inside strings, so every raw
            # newline is a line break and can take the depth's indent
            text = f"{text[0]}\n  {text[1:-1]}\n{text[-1]}".replace("\n", "\n" + "  " * depth)
        memo[id(obj), depth] = text
        parts.append(text)
        return
    opening, closing = "{}" if is_dict else "[]"
    pad = "\n" + "  " * (depth + 1)
    sep = opening + pad
    for key, value in sorted(obj.items()) if is_dict else enumerate(obj):
        parts.append(sep + _key_text(key) + ": " if is_dict else sep)
        _write_value(value, depth + 1, parts, memo, fh)
        if len(parts) >= _BATCH:
            fh.write("".join(parts))
            parts.clear()
            memo.clear()
        sep = "," + pad
    parts.append("\n" + "  " * depth + closing)


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
    vehicle_id = doc["vehicle_id"]
    if not isinstance(vehicle_id, (str, int)) or isinstance(vehicle_id, bool):
        raise SchemaError(f"vehicle_id must be a string or an integer, got {vehicle_id!r}", line)
    t, x, y = _parse_points(doc["points"], line)
    unit_system = doc.get("unit_system", "metric")
    if unit_system not in UNIT_SYSTEMS:
        raise SchemaError(
            f"unit_system must be one of {UNIT_SYSTEMS}, got {unit_system!r}", line
        )
    for key in ("frame_rate", "unit_scale"):
        if key in doc and type(doc[key]) not in (int, float):  # not a string or a boolean
            raise SchemaError(f"{key} must be a number, got {doc[key]!r}", line)
    try:
        return Trajectory(
            vehicle_id=str(vehicle_id),
            t=t,
            x=x,
            y=y,
            frame_rate=float(doc["frame_rate"]),
            unit_scale=float(doc.get("unit_scale", 1.0)),
            unit_system=unit_system,
            label=_check_label(doc.get("label"), line),
        )
    except OverflowError as exc:  # an integer beyond float range
        raise SchemaError(str(exc), line) from exc


def jsonl_spans(path: str | Path, n: int) -> list[tuple[int, int]]:
    """At most n byte ranges (start, end) that cover the file, each cut at a line start."""
    with open(path, "rb") as fh:
        size = fh.seek(0, os.SEEK_END)
        cuts = [0]
        for k in range(1, n):
            fh.seek(max(cuts[-1], size * k // n))
            fh.readline()  # past the next \n, which ends a line in universal newlines too
            if cuts[-1] < fh.tell() < size:
                cuts.append(fh.tell())
    return list(zip(cuts, cuts[1:] + [size]))


def _lines_within(lines: Iterable[str], size: int) -> Iterator[str]:
    """The lines that start within size bytes; each line must keep its ending."""
    for line in lines:
        if size <= 0:
            return
        yield line
        size -= len(line) if line.isascii() else len(line.encode("utf-8"))


def _read_jsonl(path: str | Path,
                span: tuple[int, int] | None = None) -> Iterator[tuple[int, object]]:
    """Yield (line number, decoded value) for each non-blank line in span, a byte
    range from jsonl_spans, or in the whole file; lines are numbered from 1 at
    the range's start."""
    # newline="" splits lines as universal newlines do but keeps their endings,
    # so that the lines' lengths add up to the range's bytes
    with open(path, encoding="utf-8", newline="") as fh:
        start, end = span or (0, os.fstat(fh.fileno()).st_size)
        fh.buffer.seek(start)
        lines = _lines_within(fh, end - start)
        try:
            for lineno, line in enumerate(lines, start=1):
                if not (raw := line.strip()):
                    continue
                try:
                    yield lineno, json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"invalid JSON: {exc.msg}", lineno) from exc
        except UnicodeDecodeError:
            # the text layer decodes ahead in chunks, so find the line in the bytes
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                # splitlines breaks lines where the text layer does
                line = len((data[:exc.start] + b"_").splitlines())
                raise SchemaError(f"not valid UTF-8 ({exc.reason} at byte {exc.start})",
                                  line) from exc
            raise


def _check_new_id(first_line: dict[str, int], vehicle_id: str, line: int) -> None:
    """Record the line of vehicle_id; SchemaError if an earlier line has it."""
    first = first_line.setdefault(vehicle_id, line)
    if first != line:
        raise SchemaError(f"vehicle_id {vehicle_id!r} repeats the one on line {first}", line)


def load_trajectories(path: str | Path,
                      span: tuple[int, int] | None = None) -> list[Trajectory]:
    """Read a JSONL trajectory file, or the lines in span; SchemaError names the
    offending line.

    Vehicle ids must be unique within what is read.
    """
    trajectories = []
    first_line: dict[str, int] = {}
    for lineno, doc in _read_jsonl(path, span):
        traj = trajectory_from_dict(doc, lineno)
        _check_new_id(first_line, traj.vehicle_id, lineno)
        trajectories.append(traj)
    return trajectories


def _write_jsonl(docs: Iterable[dict], path: str | Path) -> None:
    """One canonical JSON object per line, keys sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")


def save_trajectories(trajectories: Iterable[Trajectory], path: str | Path) -> None:
    _write_jsonl(map(trajectory_to_dict, trajectories), path)


def load_feature_rows(path: str | Path) -> list[dict]:
    """Read a JSONL feature file written by save_feature_rows.

    Each row carries vehicle_id (a string, unique within the file), a
    mapping of finite feature values, and optionally label, context, and
    unit_system (one of UNIT_SYSTEMS).
    """
    rows = []
    first_line: dict[str, int] = {}
    for lineno, doc in _read_jsonl(path):
        if not isinstance(doc, dict):
            raise SchemaError("feature record must be a JSON object", lineno)
        if "vehicle_id" not in doc:
            raise SchemaError("feature record missing 'vehicle_id'", lineno)
        if not isinstance(doc["vehicle_id"], str):
            raise SchemaError(f"vehicle_id must be a string, got {doc['vehicle_id']!r}", lineno)
        _check_new_id(first_line, doc["vehicle_id"], lineno)
        features = doc.get("features")
        if not isinstance(features, dict):
            raise SchemaError("feature record missing 'features' mapping", lineno)
        for key, value in features.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SchemaError(f"feature {key!r} must be numeric, got {value!r}", lineno)
            if not -math.inf < value < math.inf:  # NaN fails both comparisons
                raise SchemaError(f"feature {key!r} must be finite, got {value!r}", lineno)
        if doc.get("context", "any") not in CONTEXTS:
            raise SchemaError(f"context must be one of {CONTEXTS}, got {doc['context']!r}", lineno)
        if "unit_system" in doc and doc["unit_system"] not in UNIT_SYSTEMS:
            raise SchemaError(
                f"unit_system must be one of {UNIT_SYSTEMS}, got {doc['unit_system']!r}",
                lineno,
            )
        _check_label(doc.get("label"), lineno)
        rows.append(doc)
    return rows


def save_feature_rows(rows: Iterable[dict], path: str | Path) -> None:
    _write_jsonl(rows, path)


def load_json_object(path: str | Path, name: str, error: type[InputError]) -> dict:
    """Decode a file that holds one JSON object; error's message names the file as name."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {name}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{name} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{name} must hold a JSON object")
    return doc


def load_report(path: str | Path) -> list[dict]:
    """The entries of a classify report; InputError names the first malformed one."""
    results = load_json_object(path, "report file", InputError).get("results")
    if not isinstance(results, list):
        raise InputError("report file has no 'results' array")
    for i, r in enumerate(results):
        if not isinstance(r, dict):
            raise InputError(f"report entry {i} is not an object")
        where = f"report entry {i} ({r.get('vehicle_id')!r})"
        if "decision" not in r:
            raise InputError(f"{where} has no 'decision'")
        if r["decision"] not in DECISIONS:
            raise InputError(f"{where}: decision must be one of {DECISIONS}, "
                             f"got {r['decision']!r}")
        if "label" in r and r["label"] not in LABELS:
            raise InputError(f"{where}: label must be one of {LABELS}, got {r['label']!r}")
        score = r.get("score")
        if score is not None and type(score) not in (int, float):
            raise InputError(f"{where}: score must be a number, got {score!r}")
        if score is not None and not math.isfinite(score):
            raise InputError(f"{where}: score must be finite, got {score!r}")
    return results


_OPTIONAL_RULE_FIELDS = (
    "contexts", "tasks", "category", "polarity", "confidence", "state", "direction", "revision",
)
_RULE_FIELDS = ("id", "description", "predicate", *_OPTIONAL_RULE_FIELDS)
_LIBRARY_FIELDS = ("version", "theta", "units", "rules", "provenance")


def _rule_to_dict(rule: Rule) -> dict:
    out = {
        "id": rule.id,
        "description": rule.description,
        "predicate": rule.predicate_text,
        "contexts": sorted(rule.contexts),
        "tasks": sorted(rule.tasks),
        "category": rule.category,
        "polarity": rule.polarity,
        "confidence": rule.confidence,
        "state": rule.state,
        "direction": rule.direction,
        "revision": rule.revision,
    }
    out.update(rule.extras)
    return out


def _rule_from_dict(data: object, index: int) -> Rule:
    """Rule of one library entry; absent fields take Rule's defaults."""
    if not isinstance(data, dict):
        raise CorruptLibraryError(f"rule entry {index} must be a JSON object, got {data!r}")
    where = f"rule {data['id']}" if isinstance(data.get("id"), str) else f"rule entry {index}"
    for key in ("id", "description", "predicate"):
        if not isinstance(data.get(key, ""), str):
            raise LibraryValidationError(f"{where}: {key!r} must be a string, got {data[key]!r}")
    fields = {key: data[key] for key in _OPTIONAL_RULE_FIELDS if key in data}
    for key in [key for key in ("contexts", "tasks") if key in fields]:
        value = fields[key]
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise LibraryValidationError(
                f"{where}: {key!r} must be an array of strings, got {value!r}")
        fields[key] = frozenset(value)
    try:
        rule = Rule(id=data["id"], description=data["description"],
                    predicate=dsl.parse_predicate(data["predicate"]), **fields,
                    extras={k: v for k, v in data.items() if k not in _RULE_FIELDS})
    except KeyError as exc:
        raise CorruptLibraryError(f"rule entry missing field {exc}") from exc
    except PredicateError as exc:
        raise LibraryValidationError(f"{where}: bad predicate: {exc}") from exc
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
    dump_json(doc, path)


def load_library(path: str | Path) -> RuleLibrary:
    """Load a library written by save_library.

    Unknown fields on the library or on individual rules are preserved and
    written back on save. Raises CorruptLibraryError for unreadable files or
    missing required fields, LibraryValidationError for invariant violations.
    """
    doc = load_json_object(path, "library file", CorruptLibraryError)
    if "version" not in doc:
        raise CorruptLibraryError("library file missing 'version'")
    if not isinstance(doc["version"], int) or isinstance(doc["version"], bool):
        raise CorruptLibraryError("library 'version' must be an integer")
    if "rules" not in doc or not isinstance(doc["rules"], list):
        raise CorruptLibraryError("library file missing 'rules' array")
    if not isinstance(doc.get("provenance", []), list):
        raise CorruptLibraryError("library 'provenance' must be an array")
    return RuleLibrary(
        rules=[_rule_from_dict(r, i) for i, r in enumerate(doc["rules"])],
        theta=doc.get("theta", DEFAULT_THETA),
        version=doc["version"],
        units=doc.get("units", "metric"),
        provenance=list(doc.get("provenance", [])),
        extras={k: v for k, v in doc.items() if k not in _LIBRARY_FIELDS},
    )
