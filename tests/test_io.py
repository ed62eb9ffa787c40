import json
import math

import pytest

from trajrules.errors import SchemaError
from trajrules.io import (
    dump_json,
    load_feature_rows,
    load_trajectories,
    save_feature_rows,
    save_trajectories,
    trajectory_from_dict,
    trajectory_to_dict,
)
from helpers import assert_same_trajectory, make_trajectory


def test_trajectory_round_trip(tmp_path):
    trajs = [
        make_trajectory([0, 1, 2, 3, 4], [0, 0, 0, 0, 0], vehicle_id="plain"),
        make_trajectory(range(6), [0.5] * 6, frame_rate=10.0, vehicle_id="fancy",
                        unit_scale=0.1, unit_system="pixel", label="AV"),
    ]
    path = tmp_path / "t.jsonl"
    save_trajectories(trajs, path)
    back = load_trajectories(path)
    assert len(back) == len(trajs)
    for got, want in zip(back, trajs):
        assert_same_trajectory(got, want)


def test_save_omits_default_metadata(tmp_path):
    path = tmp_path / "t.jsonl"
    save_trajectories([make_trajectory([0, 1, 2, 3, 4], [0, 0, 0, 0, 0])], path)
    doc = json.loads(path.read_text().splitlines()[0])
    assert "unit_scale" not in doc
    assert "label" not in doc
    assert doc["unit_system"] == "metric"


def test_save_is_deterministic(tmp_path):
    trajs = [make_trajectory([0, 1, 2, 3, 4], [1, 2, 3, 4, 5], label="HDV")]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_trajectories(trajs, a)
    save_trajectories(trajs, b)
    assert a.read_bytes() == b.read_bytes()


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    doc = json.dumps(trajectory_to_dict(make_trajectory([0, 1, 2, 3, 4], [0] * 5)))
    path.write_text(f"\n{doc}\n\n{doc}\n")
    assert len(load_trajectories(path)) == 2


def test_load_reports_offending_line(tmp_path):
    path = tmp_path / "t.jsonl"
    good = json.dumps(trajectory_to_dict(make_trajectory([0, 1, 2, 3, 4], [0] * 5)))
    path.write_text(f"{good}\nnot json\n")
    with pytest.raises(SchemaError) as exc_info:
        load_trajectories(path)
    assert exc_info.value.line == 2
    assert str(exc_info.value).startswith("line 2:")


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.pop("vehicle_id"), "missing 'vehicle_id'"),
    (lambda d: d.pop("frame_rate"), "missing 'frame_rate'"),
    (lambda d: d.pop("points"), "missing 'points'"),
    (lambda d: d.update(points=[]), "non-empty array"),
    (lambda d: d.update(points=[[0, 1]]), "must be [t, x, y]"),
    (lambda d: d.update(points=[[0.5, 1.0, 2.0]]), "frame index must be an integer"),
    (lambda d: d.update(points=[[True, 1.0, 2.0]]), "frame index must be an integer"),
    (lambda d: d.update(points=[[0, "abc", 2.0]]), "coordinate must be a number"),
    (lambda d: d.update(points=[[0, 1.0, None]]), "coordinate must be a number"),
    (lambda d: d.update(points=[[0, "3.0", 2.0]]), "coordinate must be a number"),
    (lambda d: d.update(points=[[0, 1.0, True]]), "coordinate must be a number"),
    (lambda d: d.update(unit_system="imperial"), "unit_system"),
    (lambda d: d.update(label="bus"), "label must be one of"),
    (lambda d: d.update(frame_rate="fast"), "could not convert"),
])
def test_trajectory_schema_violations(tmp_path, mutate, fragment):
    doc = trajectory_to_dict(make_trajectory([0, 1, 2, 3, 4], [0] * 5))
    mutate(doc)
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(doc) + "\n")
    with pytest.raises(SchemaError) as exc_info:
        load_trajectories(path)
    assert fragment in str(exc_info.value)
    assert exc_info.value.line == 1


def test_trajectory_from_dict_rejects_non_object():
    with pytest.raises(SchemaError):
        trajectory_from_dict(["not", "an", "object"], line=3)


def test_feature_rows_round_trip(tmp_path):
    rows = [
        {"vehicle_id": "a", "features": {"mean_speed": 10.5, "std_jerk": 0.2},
         "label": "AV", "context": "free_flow"},
        {"vehicle_id": "b", "features": {"mean_speed": 8.0}},
    ]
    path = tmp_path / "f.jsonl"
    save_feature_rows(rows, path)
    assert load_feature_rows(path) == rows


@pytest.mark.parametrize("row,fragment", [
    ({"features": {"x": 1.0}}, "missing 'vehicle_id'"),
    ({"vehicle_id": "a"}, "missing 'features'"),
    ({"vehicle_id": "a", "features": [1, 2]}, "missing 'features' mapping"),
    ({"vehicle_id": "a", "features": {"x": "fast"}}, "must be numeric"),
    ({"vehicle_id": "a", "features": {"x": True}}, "must be numeric"),
    ({"vehicle_id": "a", "features": {"x": 1.0}, "label": "bike"}, "label must be"),
    ({"vehicle_id": "a", "features": {"std_jerk": math.nan}}, "'std_jerk' must be finite"),
    ({"vehicle_id": "a", "features": {"std_jerk": math.inf}}, "'std_jerk' must be finite"),
    ({"vehicle_id": "a", "features": {"std_jerk": -math.inf}}, "'std_jerk' must be finite"),
    ({"vehicle_id": "a", "features": {"x": 1.0}, "context": "highway"}, "context must be one of"),
    ({"vehicle_id": "a", "features": {"x": 1.0}, "context": None}, "context must be one of"),
])
def test_feature_row_schema_violations(tmp_path, row, fragment):
    path = tmp_path / "f.jsonl"
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(SchemaError) as exc_info:
        load_feature_rows(path)
    assert fragment in str(exc_info.value)
    assert exc_info.value.line == 1


def test_feature_rows_non_object_line(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text('{"vehicle_id": "a", "features": {}}\n[1, 2]\n')
    with pytest.raises(SchemaError) as exc_info:
        load_feature_rows(path)
    assert exc_info.value.line == 2


def test_dump_json_canonical(tmp_path):
    path = tmp_path / "r.json"
    dump_json({"b": 1, "a": {"z": 2, "y": 3}}, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    again = tmp_path / "r2.json"
    dump_json({"a": {"y": 3, "z": 2}, "b": 1}, again)
    assert path.read_bytes() == again.read_bytes()
