"""The three workloads: seeded inputs, and the subcommands each one times.

Each workload times only the subcommands whose work it is about, one
subcommand per process:

- noisy_tracks: features and predict --task lane_change, smoothing on, over
  camera-like tracks. Synthetic tracks are cut to varied lengths, get
  position noise, lose frames in short runs, and about one in ten gets a gap
  long enough to split it.
- clean_roundtrip: synth, then features and predict --task speed with
  smoothing off, which read the equal-length tracks synth wrote.
- rule_library: discover, verify, classify and evaluate over tens of
  thousands of labeled feature rows, made by jittering the rows of a small
  fleet.

Set-up runs the program in this process through trajrules.cli.main, so it
depends only on the CLI flags and the documented file formats. It writes a
synth reference fleet and its feature rows, then the workload's own inputs;
the track workloads also get the verified library predict reads, discovered
on the reference rows. The timed steps only see files.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

CliMain = Callable[[list[str]], int]

MOCK_DIR = Path("fixtures") / "mock"
FRAME_RATE = 25  # synth's default
# synth lays out lane changes in meters; the CLI default threshold suits pixels
LANE_CHANGE = ("--lc-threshold", "2.0")

# noisy_tracks
NOISY_FLEET = (8, 32)  # (AV, HDV)
NOISY_VARIANTS = 5  # differently degraded copies of each track
CUT_SECONDS = (20.0, 60.0)
NOISE_M = 0.05  # position noise standard deviation, meters
DROP_RATE = 0.02  # chance per frame that a run of dropped frames starts there
MAX_DROP_RUN = 3  # frames; validation interpolates gaps up to this length
GAP_SHARE = 0.1  # share of tracks that get one gap that splits them
GAP_FRAMES = (10, 50)

# discover and verify on the mock backend give no rule a maneuver direction,
# so predict would evaluate no rule at all; set-up adds these voting rules to
# the track workloads' library, as a hand-edited library would (docs/schemas.md)
DIRECTION_RULES = (  # (task, direction, predicate)
    ("speed", "accelerate", "mean_accel > 0.02"),
    ("speed", "decelerate", "mean_accel < -0.02"),
    ("speed", "maintain", "std_accel < 0.3"),
    ("lane_change", "left_LC", "lane_change_rate >= 1.5"),
    ("lane_change", "right_LC", "pre_lane_change_decel > 0.5"),
    ("lane_change", "keep_lane", "lane_change_count < 1"),
)

# clean_roundtrip
CLEAN_FLEET = (40, 160)
CLEAN_REFERENCE_FLEET = (8, 32)

# rule_library
BASE_FLEET = (5, 20)
ROW_COPIES = 800
JITTER_SIGMA = 0.2  # log-normal jitter applied to every feature
RULES_MIN_ACCURACY = 0.90


class SetupError(Exception):
    pass


@dataclass(frozen=True)
class Step:
    command: str  # the subcommand; also names its wall-time metrics
    args: tuple[str, ...]  # arguments after the subcommand
    outputs: tuple[str, ...]  # files it writes, relative to the work dir
    check: Callable[[], None]  # raises checks.CheckError


@dataclass(frozen=True)
class Plan:
    inputs: tuple[str, ...]  # files set-up wrote, relative to the work dir
    steps: tuple[Step, ...]


def _run_cli(cli_main: CliMain, args: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(args)
    if code != 0:
        raise SetupError(f"trajrules {' '.join(args)} exited with {code}")


def _synth_flags(seed: int, fleet: tuple[int, int], output: Path) -> tuple[str, ...]:
    return ("--seed", str(seed), "--n-av", str(fleet[0]), "--n-hdv", str(fleet[1]),
            "--output", str(output))


def _rng(seed: int, workload: str) -> np.random.Generator:
    key = [seed, *workload.encode()]
    return np.random.default_rng(np.random.SeedSequence(key))


def _write_jsonl(path: Path, docs: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")


def degrade_track(doc: dict, rng: np.random.Generator, split: bool) -> dict:
    """Cut, add noise, drop short frame runs and, if split, one long gap."""
    points = np.asarray(doc["points"], dtype=np.float64)
    n_total = len(points)
    n = min(n_total, int(round(rng.uniform(*CUT_SECONDS) * FRAME_RATE)) + 1)
    start = int(rng.integers(0, n_total - n + 1))
    points = points[start:start + n]
    points[:, 1:] += rng.normal(0.0, NOISE_M, size=(n, 2))

    keep = np.ones(n, dtype=bool)
    i = 2
    starts = rng.random(n)
    runs = rng.integers(1, MAX_DROP_RUN + 1, size=n)
    while i < n - MAX_DROP_RUN - 2:
        if starts[i] < DROP_RATE:
            keep[i:i + runs[i]] = False
            i += runs[i] + 1  # a kept frame between runs bounds every gap
        else:
            i += 1
    if split:
        width = int(rng.integers(GAP_FRAMES[0], GAP_FRAMES[1] + 1))
        at = int(rng.integers(n // 3, 2 * n // 3 - width))
        keep[at:at + width] = False

    kept = points[keep]
    frames = kept[:, 0].astype(np.int64).tolist()
    out = dict(doc)
    out["points"] = [[t, x, y] for t, (x, y) in zip(frames, np.round(kept[:, 1:], 4).tolist())]
    return out


def jitter_rows(rows: list[dict], copies: int, rng: np.random.Generator) -> list[dict]:
    """copies x len(rows) rows, every feature times a log-normal factor."""
    out = []
    for k in range(copies):
        for row in rows:
            names = sorted(row["features"])
            factors = np.exp(rng.normal(0.0, JITTER_SIGMA, size=len(names)))
            new = dict(row)
            new["vehicle_id"] = f"{row['vehicle_id']}-{k:04d}"
            new["features"] = {name: round(float(row["features"][name] * f), 6)
                               for name, f in zip(names, factors)}
            out.append(new)
    return out


def fleet_vehicles(fleet: tuple[int, int]) -> dict[str, str]:
    """The ids and labels synth gives a fleet (docs/schemas.md)."""
    return {**{f"av_{i:04d}": "AV" for i in range(fleet[0])},
            **{f"hdv_{i:04d}": "HDV" for i in range(fleet[1])}}


def _mock(root: Path) -> tuple[str, ...]:
    return ("--mock-dir", str(root / MOCK_DIR))


def _synth_step(work: Path, seed: int, fleet: tuple[int, int]) -> Step:
    def check() -> None:
        checks.check_tracks(work / "synth.jsonl", fleet_vehicles(fleet))
        checks.contains_lines(work / "synth.jsonl", work / "reference.jsonl")

    return Step("synth", _synth_flags(seed, fleet, work / "synth.jsonl"), ("synth.jsonl",), check)


def _track_steps(work: Path, tracks: str, vehicles: dict[str, str | None],
                 extraction: tuple[str, ...], task: str) -> tuple[Step, Step]:
    """features and predict on a track file, with the library set-up built."""
    return (
        Step("features", ("--input", str(work / tracks), "--output", str(work / "rows.jsonl"),
                          *LANE_CHANGE, *extraction),
             ("rows.jsonl",),
             lambda: checks.check_feature_rows(work / "rows.jsonl", vehicles)),
        Step("predict", ("--input", str(work / tracks), "--library", str(work / "library.json"),
                         "--task", task, *LANE_CHANGE, *extraction,
                         "--output", str(work / "predictions.json")),
             ("predictions.json",),
             lambda: checks.check_predictions(work / "predictions.json", vehicles, task)),
    )


def _rule_steps(work: Path, root: Path, vehicles: dict[str, str | None]) -> tuple[Step, ...]:
    """discover, verify, classify and evaluate on rows.jsonl."""
    p = {name: str(work / name) for name in (
        "rows.jsonl", "seed_library.json", "library.json", "report.json", "metrics.json")}
    return (
        Step("discover", ("--features", p["rows.jsonl"], "--seed-rules", *_mock(root),
                          "--output", p["seed_library.json"]),
             ("seed_library.json",),
             lambda: checks.check_library(work / "seed_library.json", verified=False)),
        Step("verify", ("--features", p["rows.jsonl"], "--library", p["seed_library.json"],
                        *_mock(root), "--output", p["library.json"]),
             ("library.json",),
             lambda: checks.check_library(work / "library.json", verified=True)),
        Step("classify", ("--features", p["rows.jsonl"], "--library", p["library.json"],
                          "--output", p["report.json"]),
             ("report.json",),
             lambda: checks.check_report(work / "report.json", vehicles)),
        Step("evaluate", ("--report", p["report.json"], "--output", p["metrics.json"]),
             ("metrics.json",),
             lambda: checks.check_metrics(work / "metrics.json", len(vehicles),
                                          RULES_MIN_ACCURACY)),
    )


def _reference(cli_main: CliMain, seed: int, fleet: tuple[int, int], work: Path) -> list[dict]:
    """synth a fleet to reference.jsonl and extract its rows to reference_rows.jsonl."""
    _run_cli(cli_main, ["synth", *_synth_flags(seed, fleet, work / "reference.jsonl")])
    _run_cli(cli_main, ["features", "--input", str(work / "reference.jsonl"),
                        "--output", str(work / "reference_rows.jsonl"), *LANE_CHANGE])
    return checks.read_jsonl(work / "reference.jsonl")


def _library(cli_main: CliMain, work: Path, root: Path) -> None:
    """The verified library predict reads: discovered on the reference rows,
    plus DIRECTION_RULES."""
    rows = str(work / "reference_rows.jsonl")
    _run_cli(cli_main, ["discover", "--features", rows, "--seed-rules", *_mock(root),
                        "--output", str(work / "seed_library.json")])
    _run_cli(cli_main, ["verify", "--features", rows, "--library", str(work / "seed_library.json"),
                        *_mock(root), "--output", str(work / "verified_library.json")])
    doc = json.loads((work / "verified_library.json").read_text(encoding="utf-8"))
    for i, (task, direction, predicate) in enumerate(DIRECTION_RULES, start=1):
        doc["rules"].append({
            "id": f"P{i}", "description": f"votes {direction}", "predicate": predicate,
            "contexts": ["any"], "tasks": [task], "category": task, "polarity": "AV_indicative",
            "direction": direction, "confidence": 1.0, "state": "verified", "revision": 0,
        })
    (work / "library.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


TRACK_INPUTS = ("reference.jsonl", "reference_rows.jsonl", "seed_library.json",
                "verified_library.json", "library.json")


def setup_noisy_tracks(seed: int, work: Path, root: Path, cli_main: CliMain) -> Plan:
    docs = _reference(cli_main, seed, NOISY_FLEET, work)
    _library(cli_main, work, root)
    rng = _rng(seed, "noisy_tracks")
    n = len(docs) * NOISY_VARIANTS
    split = set(rng.choice(n, size=round(GAP_SHARE * n), replace=False).tolist())
    noisy = []
    for k in range(NOISY_VARIANTS):
        for i, doc in enumerate(docs):
            track = degrade_track(doc, rng, k * len(docs) + i in split)
            track["vehicle_id"] = f"{doc['vehicle_id']}-{k}"
            noisy.append(track)
    _write_jsonl(work / "noisy.jsonl", noisy)
    steps = _track_steps(work, "noisy.jsonl", checks.vehicle_labels(noisy), (), "lane_change")
    return Plan((*TRACK_INPUTS, "noisy.jsonl"), steps)


def setup_clean_roundtrip(seed: int, work: Path, root: Path, cli_main: CliMain) -> Plan:
    # synth draws every track from its own stream, so the reference fleet's
    # tracks reappear verbatim in the timed synth's larger output
    _reference(cli_main, seed, CLEAN_REFERENCE_FLEET, work)
    _library(cli_main, work, root)
    steps = (_synth_step(work, seed, CLEAN_FLEET),
             *_track_steps(work, "synth.jsonl", fleet_vehicles(CLEAN_FLEET),
                           ("--no-smoothing",), "speed"))
    return Plan(TRACK_INPUTS, steps)


def setup_rule_library(seed: int, work: Path, root: Path, cli_main: CliMain) -> Plan:
    _reference(cli_main, seed, BASE_FLEET, work)
    base = checks.read_jsonl(work / "reference_rows.jsonl")
    rows = jitter_rows(base, ROW_COPIES, _rng(seed, "rule_library"))
    _write_jsonl(work / "rows.jsonl", rows)
    steps = _rule_steps(work, root, checks.vehicle_labels(rows))
    return Plan(("reference.jsonl", "reference_rows.jsonl", "rows.jsonl"), steps)


WORKLOADS: dict[str, Callable[[int, Path, Path, CliMain], Plan]] = {
    "noisy_tracks": setup_noisy_tracks,
    "clean_roundtrip": setup_clean_roundtrip,
    "rule_library": setup_rule_library,
}
