"""Output checks that hold for any seed; each raises CheckError.

A check reads only the documented file formats (docs/schemas.md), so it
keeps working when the program's internals change.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping

DIRECTIONS = {
    "speed": {"accelerate", "decelerate", "maintain"},
    "lane_change": {"left_LC", "right_LC", "keep_lane"},
}
DECISIONS = {"AV", "HDV", "undetermined"}


class CheckError(Exception):
    pass


def read_json(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name}: cannot parse: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckError(f"{path.name}: top level is not an object")
    return doc


def read_jsonl(path: Path) -> list[dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            docs = [json.loads(line) for line in fh if line.strip()]
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name}: cannot parse: {exc}") from exc
    if not all(isinstance(d, dict) for d in docs):
        raise CheckError(f"{path.name}: a line is not an object")
    return docs


def vehicle_labels(records: list[dict]) -> dict[str, str | None]:
    return {r["vehicle_id"]: r.get("label") for r in records}


def _same_vehicles(name: str, records: list[dict], expected: Mapping[str, str | None]) -> None:
    """One record per expected vehicle, and each label passed through."""
    try:
        ids = [r["vehicle_id"] for r in records]
    except KeyError as exc:
        raise CheckError(f"{name}: record without vehicle_id") from exc
    if len(ids) != len(expected) or set(ids) != set(expected):
        raise CheckError(f"{name}: {len(ids)} records for {len(set(ids))} vehicles, "
                         f"expected {len(expected)}")
    for r in records:
        if "label" in r and r["label"] != expected[r["vehicle_id"]]:
            raise CheckError(f"{name}: label of {r['vehicle_id']} changed to {r['label']!r}")


def contains_lines(path: Path, reference: Path) -> None:
    """Every line of reference appears verbatim in path."""
    lines = set(path.read_text(encoding="utf-8").splitlines())
    for n, line in enumerate(reference.read_text(encoding="utf-8").splitlines(), start=1):
        if line not in lines:
            raise CheckError(f"{path.name} lacks line {n} of {reference.name}")


def check_tracks(path: Path, expected: Mapping[str, str | None]) -> None:
    records = read_jsonl(path)
    _same_vehicles(path.name, records, expected)
    for r in records:
        if not r.get("points"):
            raise CheckError(f"{path.name}: {r['vehicle_id']} has no points")


def check_feature_rows(path: Path, expected: Mapping[str, str | None]) -> None:
    rows = read_jsonl(path)
    _same_vehicles(path.name, rows, expected)
    for r in rows:
        feats = r.get("features")
        if not isinstance(feats, dict) or not feats:
            raise CheckError(f"{path.name}: {r['vehicle_id']} has no features")
        for key, value in feats.items():
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise CheckError(f"{path.name}: {r['vehicle_id']} {key} = {value!r}")
        if r.get("label") != expected[r["vehicle_id"]]:
            raise CheckError(f"{path.name}: label of {r['vehicle_id']} lost")


def check_library(path: Path, *, verified: bool) -> None:
    doc = read_json(path)
    rules = doc.get("rules")
    if not isinstance(rules, list) or not rules:
        raise CheckError(f"{path.name}: no rules")
    ids = [r.get("id") for r in rules]
    if len(set(ids)) != len(ids):
        raise CheckError(f"{path.name}: duplicate rule ids")
    if verified and not any(r.get("state") == "verified"
                            and r.get("polarity") == "AV_indicative" for r in rules):
        raise CheckError(f"{path.name}: no verified AV-indicative rule")


def check_predictions(path: Path, expected: Mapping[str, str | None], task: str) -> None:
    doc = read_json(path)
    if doc.get("task") != task:
        raise CheckError(f"{path.name}: task {doc.get('task')!r}, expected {task!r}")
    preds = doc.get("predictions")
    if not isinstance(preds, list):
        raise CheckError(f"{path.name}: no predictions array")
    _same_vehicles(path.name, preds, expected)
    for p in preds:
        if p.get("direction") not in DIRECTIONS[task]:
            raise CheckError(f"{path.name}: {p['vehicle_id']} direction {p.get('direction')!r}")


def check_report(path: Path, expected: Mapping[str, str | None]) -> None:
    doc = read_json(path)
    results = doc.get("results")
    if not isinstance(results, list):
        raise CheckError(f"{path.name}: no results array")
    _same_vehicles(path.name, results, expected)
    for r in results:
        if r.get("decision") not in DECISIONS:
            raise CheckError(f"{path.name}: {r['vehicle_id']} decision {r.get('decision')!r}")
        if r.get("label") != expected[r["vehicle_id"]]:
            raise CheckError(f"{path.name}: label of {r['vehicle_id']} lost")


def check_metrics(path: Path, n_samples: int, min_accuracy: float) -> None:
    doc = read_json(path)
    if doc.get("n_samples") != n_samples:
        raise CheckError(f"{path.name}: n_samples {doc.get('n_samples')}, expected {n_samples}")
    accuracy = doc.get("accuracy")
    if not isinstance(accuracy, (int, float)) or not accuracy >= min_accuracy:
        raise CheckError(f"{path.name}: accuracy {accuracy!r} below {min_accuracy}")
