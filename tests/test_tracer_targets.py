"""Every name the perfbench tracer patches must exist in trajrules, and be called.

perfbench/spans.py wraps module-level names listed in its TARGETS; a name
deleted or renamed in src/ would otherwise fail only the traced benchmark run,
and a name the code no longer calls through would only read 0 there.
"""
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from trajrules import cli, workers

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
MOCK_DIR = str(ROOT / "fixtures" / "mock")
# imported by their modules but never called by the pipeline
NEVER_CALLED = {"trajrules.cli.smooth_trajectory", "trajrules.classification.evaluate_rule",
                "trajrules.verification.evaluate_rule"}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_resolves():
    targets = load_spans().TARGETS
    assert targets
    missing = []
    for module_name, attribute, *_ in targets:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{module_name}.{attribute}")
                break
    assert missing == []


def jittered_rows(path, copies, rng):
    """copies x the rows of path, every feature times a log-normal factor, as
    perfbench's rule_library workload makes its rows."""
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    out = []
    for k in range(copies):
        for row in rows:
            names = sorted(row["features"])
            factors = np.exp(rng.normal(0.0, 0.2, size=len(names)))
            out.append({**row, "vehicle_id": f"{row['vehicle_id']}-{k}",
                        "features": {name: round(float(row["features"][name] * f), 6)
                                     for name, f in zip(names, factors)}})
    return "".join(json.dumps(row) + "\n" for row in out)


def test_every_traced_name_is_called_by_the_pipeline(tmp_path, monkeypatch):
    calls = {}

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module_name, attribute, *_ in load_spans().TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        name = f"{module_name}.{attribute}"
        calls[name] = 0
        monkeypatch.setattr(owner, leaf, counted(getattr(owner, leaf), name))

    files = {name: str(tmp_path / name) for name in (
        "t.jsonl", "f.jsonl", "rows.jsonl", "seed.json", "lib.json", "report.json", "m.json",
        "speed.json", "lane_change.json")}
    mock = ("--mock-dir", MOCK_DIR)
    assert cli.main(["synth", "--output", files["t.jsonl"], "--n-av", "2", "--n-hdv", "3",
                     "--duration-s", "43", "--seed", "5"]) == 0
    # one slice, so features and predict run in this process, where the counters are
    assert (tmp_path / "t.jsonl").stat().st_size < workers.MIN_SLICE_BYTES
    assert cli.main(["features", "--input", files["t.jsonl"], "--output", files["f.jsonl"],
                     "--lc-threshold", "2.0"]) == 0
    # on jittered rows verify reflects on rules below theta and applies a suggestion
    (tmp_path / "rows.jsonl").write_text(
        jittered_rows(tmp_path / "f.jsonl", 4, np.random.default_rng(0)))
    steps = [
        ["discover", "--features", files["rows.jsonl"], "--seed-rules", *mock,
         "--output", files["seed.json"]],
        ["verify", "--features", files["rows.jsonl"], "--library", files["seed.json"], *mock,
         "--output", files["lib.json"]],
        ["classify", "--features", files["rows.jsonl"], "--library", files["lib.json"],
         "--output", files["report.json"]],
        ["evaluate", "--report", files["report.json"], "--output", files["m.json"]],
        *(["predict", "--input", files["t.jsonl"], "--library", files["lib.json"], "--task", task,
           "--lc-threshold", "2.0", "--output", files[f"{task}.json"]]
          for task in ("speed", "lane_change")),
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv[0]
    assert calls["trajrules.verification.apply_suggestion"] > 0
    assert sorted(name for name, n in calls.items() if n == 0) == sorted(NEVER_CALLED)
