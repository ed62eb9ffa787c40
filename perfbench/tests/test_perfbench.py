"""Tests of the benchmark itself: seeded inputs, span arithmetic, failure counting.

Run from the root of the checkout: python -m pytest perfbench/tests
"""
import hashlib
import json

import numpy as np
import pytest

import checks
import run
import spans
import workloads
from conftest import ROOT
from trajrules import cli


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so set-up takes well under a second."""
    monkeypatch.setattr(workloads, "NOISY_FLEET", (2, 3))
    monkeypatch.setattr(workloads, "CLEAN_FLEET", (2, 3))
    monkeypatch.setattr(workloads, "CLEAN_REFERENCE_FLEET", (1, 2))
    monkeypatch.setattr(workloads, "BASE_FLEET", (2, 3))
    monkeypatch.setattr(workloads, "ROW_COPIES", 4)
    monkeypatch.setattr(workloads, "GAP_SHARE", 0.4)


def _inputs(workload, seed, work):
    work.mkdir()
    plan = workloads.WORKLOADS[workload](seed, work, ROOT, cli.main)
    return {name: hashlib.sha256((work / name).read_bytes()).hexdigest() for name in plan.inputs}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs_and_another_seed_differs(workload, work, small):
    first = _inputs(workload, 3, work / "a")
    assert _inputs(workload, 3, work / "b") == first
    other = _inputs(workload, 4, work / "c")
    assert other.keys() == first.keys()
    # a library set-up discovers from the rows may come out the same
    data = [name for name in first if name.endswith(".jsonl")]
    assert data and all(other[name] != first[name] for name in data)


def test_degraded_track_keeps_short_gaps_unless_split():
    frames = np.arange(1501)
    doc = {"vehicle_id": "v", "label": "AV", "frame_rate": 25.0,
           "points": [[int(t), 0.5 * t, 0.0] for t in frames]}
    for seed in range(20):
        rng = np.random.default_rng(seed)
        plain = np.diff([p[0] for p in workloads.degrade_track(doc, rng, split=False)["points"]])
        assert plain.max() - 1 <= workloads.MAX_DROP_RUN
        cut = np.diff([p[0] for p in workloads.degrade_track(doc, rng, split=True)["points"]])
        assert cut.max() - 1 >= workloads.GAP_FRAMES[0]
        assert (cut - 1 > workloads.MAX_DROP_RUN).sum() == 1


def _span(i, name, parent, start, end, trace="t"):
    return spans.Node(i, name, parent, trace, "span", 1, end - start, start, end)


def _aggregate(i, name, parent, total, calls=10, trace="t"):
    return spans.Node(i, name, parent, trace, "aggregate", calls, total)


def test_self_time_on_a_hand_built_tree():
    nodes = [
        _span(0, "cli.x", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "b", 0, 4.5, 6.0),
        _span(3, "a.child", 1, 2.0, 3.0),
        _aggregate(4, "hot", 0, 2.0),
        _aggregate(5, "hot.inner", 4, 0.5),
    ]
    own = spans.self_times(nodes)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.5 - 2.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.5)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(1.5)
    assert own[5] == pytest.approx(0.5)


def test_recorder_nests_spans_and_aggregates_hot_calls():
    rec = spans.Recorder("0-classify")

    def leaf(x):
        return x

    def hot(x):
        return rec.call("leaf", leaf, (x,), {})

    def body():
        for i in range(3):
            rec.call("hot", hot, (i,), {}, hot=True,
                     measure=lambda a, k, r: {"seen": 1})
        return rec.call("child", leaf, (7,), {})

    assert rec.call("cli.classify", body, (), {}) == 7
    by_name = {n.name: n for n in rec.nodes}
    assert {n.trace for n in rec.nodes} == {"0-classify"}
    assert by_name["cli.classify"].parent is None and by_name["cli.classify"].is_span
    assert by_name["hot"].kind == "aggregate" and by_name["hot"].calls == 3
    assert by_name["hot"].attrs == {"seen": 3}
    # a call made inside an aggregate is aggregated under it
    assert by_name["leaf"].kind == "aggregate" and by_name["leaf"].parent == by_name["hot"].id
    assert by_name["child"].is_span and by_name["child"].parent == by_name["cli.classify"].id
    doc = json.loads(json.dumps(rec.to_json()))
    assert spans.nodes_from_json(doc) == rec.nodes


def test_layer_metrics_cover_every_declared_layer_metric():
    measured_outside = {"cli.import_s", "trace.overhead_s"}
    assert set(spans.layer_metrics([[]])) == set(spans.LAYER_UNITS) - measured_outside


def test_benchmark_json_lists_the_emitted_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def _evaluate_step(work, check):
    report = {"results": [
        {"vehicle_id": "a", "decision": "AV", "score": 0.9, "label": "AV"},
        {"vehicle_id": "b", "decision": "HDV", "score": 0.1, "label": "HDV"},
    ]}
    (work / "report.json").write_text(json.dumps(report))
    args = ("--report", str(work / "report.json"), "--output", str(work / "metrics.json"))
    return workloads.Step("evaluate", args, ("metrics.json",), check)


def test_a_corrupted_output_counts_as_a_failed_operation(work):
    bench = run.Bench("rule_library", 5, work, ROOT / "src")

    def good():
        checks.check_metrics(work / "metrics.json", 2, 0.9)

    def corrupted():
        path = work / "metrics.json"
        path.write_text(path.read_text()[:-20])
        good()

    assert bench.step(_evaluate_step(work, good), iteration=0, traced=False) is not None
    assert (bench.attempted, bench.failures) == (1, [])
    assert bench.step(_evaluate_step(work, corrupted), iteration=1, traced=False) is None
    assert bench.attempted == 2 and len(bench.failures) == 1
    assert "cannot parse" in bench.failures[0]


def test_an_output_that_changes_between_iterations_counts_as_failed(work):
    bench = run.Bench("rule_library", 5, work, ROOT / "src")

    def check():
        checks.check_metrics(work / "metrics.json", 2, 0.9)

    step = _evaluate_step(work, check)
    assert bench.step(step, iteration=0, traced=True) is not None
    bench.first_digests["metrics.json"] = "0" * 64  # as if iteration 0 had written other bytes
    assert bench.step(step, iteration=1, traced=False) is None
    assert "differs from the run's first iteration" in bench.failures[0]
    trace = json.loads((work / "spans" / "0-evaluate.json").read_text())
    names = {n["name"] for n in trace["nodes"]}
    assert {"cli.evaluate", "metrics.compute", "metrics.roc_auc", "io.dump_json"} <= names
