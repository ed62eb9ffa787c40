import json
from pathlib import Path

import pytest

from trajrules import cli
from trajrules.io import load_feature_rows, load_trajectories
from trajrules.rules import load_library, save_library, seed_library

MOCK_DIR = str(Path(__file__).resolve().parent.parent / "fixtures" / "mock")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Small synthetic dataset with extracted features, built once."""
    root = tmp_path_factory.mktemp("cli")
    trajs = root / "t.jsonl"
    feats = root / "f.jsonl"
    rc = cli.main([
        "synth", "--output", str(trajs), "--n-av", "2", "--n-hdv", "2",
        "--duration-s", "36", "--seed", "5",
    ])
    assert rc == 0
    rc = cli.main([
        "features", "--input", str(trajs), "--output", str(feats),
        "--no-smoothing", "--lc-window", "120", "--lc-threshold", "2.0",
    ])
    assert rc == 0
    return root


def test_synth_writes_manifest(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    manifest = tmp_path / "m.json"
    rc = cli.main([
        "synth", "--output", str(out), "--manifest", str(manifest),
        "--n-av", "1", "--n-hdv", "1", "--duration-s", "36", "--seed", "0",
    ])
    assert rc == 0
    assert "generated 1 AV and 1 HDV" in capsys.readouterr().out
    assert len(load_trajectories(out)) == 2
    doc = json.loads(manifest.read_text())
    assert doc["seed"] == 0
    assert set(doc["label_means"]) == {"AV", "HDV"}


def test_synth_rejects_bad_population(tmp_path):
    rc = cli.main(["synth", "--output", str(tmp_path / "t.jsonl"), "--n-av", "-1"])
    assert rc == 2


def test_features_rows_carry_label_and_context(workdir):
    rows = load_feature_rows(workdir / "f.jsonl")
    assert len(rows) == 4
    for row in rows:
        assert row["label"] in ("AV", "HDV")
        assert row["unit_system"] == "metric"
        assert row["context"] == "free_flow"  # both profiles cruise above 5 m/s
        assert "std_jerk" in row["features"]
        assert "max_decel" in row["features"]


def test_features_min_speed_filter(workdir, tmp_path, capsys):
    out = tmp_path / "f.jsonl"
    rc = cli.main([
        "features", "--input", str(workdir / "t.jsonl"), "--output", str(out),
        "--no-smoothing", "--min-mean-speed", "999",
    ])
    assert rc == 0
    assert "(4 stationary vehicles dropped)" in capsys.readouterr().out
    assert load_feature_rows(out) == []


def test_features_missing_input(tmp_path):
    rc = cli.main([
        "features", "--input", str(tmp_path / "absent.jsonl"),
        "--output", str(tmp_path / "f.jsonl"),
    ])
    assert rc == 2


def test_features_negative_frame_is_an_input_error(tmp_path, capsys):
    trajs = tmp_path / "t.jsonl"
    points = [[t, float(t), 0.0] for t in range(-1, 9)]
    trajs.write_text(json.dumps({"vehicle_id": "v", "frame_rate": 10.0, "points": points}) + "\n")
    rc = cli.main([
        "features", "--input", str(trajs), "--output", str(tmp_path / "f.jsonl"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == "error: v: negative frame index -1\n"


def test_discover_with_mock_backend(workdir, tmp_path, capsys):
    out = tmp_path / "lib.json"
    rc = cli.main([
        "discover", "--features", str(workdir / "f.jsonl"), "--output", str(out),
        "--mock-dir", MOCK_DIR, "--theta", "0.6",
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "5 added" in text
    assert "1 blocks rejected" in text
    lib = load_library(out)
    assert lib.theta == 0.6
    assert {r.id for r in lib.rules} == {"D1", "D2", "D3", "D4", "D5"}
    assert all(r.state == "candidate" for r in lib.rules)


def test_discover_extends_existing_library(workdir, tmp_path, capsys):
    first = tmp_path / "lib1.json"
    second = tmp_path / "lib2.json"
    assert cli.main([
        "discover", "--features", str(workdir / "f.jsonl"), "--output", str(first),
        "--mock-dir", MOCK_DIR, "--seed-rules",
    ]) == 0
    capsys.readouterr()
    # rerunning against the produced library finds only duplicates
    assert cli.main([
        "discover", "--features", str(workdir / "f.jsonl"), "--output", str(second),
        "--library-in", str(first), "--mock-dir", MOCK_DIR,
    ]) == 0
    text = capsys.readouterr().out
    assert "skipping duplicate rule id D1" in text
    assert "0 added, 5 duplicates" in text
    lib = load_library(second)
    assert len(lib.rules) == len(seed_library().rules) + 5


def test_discover_without_fixture_fails(workdir, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = cli.main([
        "discover", "--features", str(workdir / "f.jsonl"),
        "--output", str(tmp_path / "lib.json"), "--mock-dir", str(empty),
    ])
    assert rc == 1


def test_verify_then_classify_then_evaluate(workdir, tmp_path, capsys):
    lib_path = tmp_path / "seeded.json"
    verified_path = tmp_path / "verified.json"
    report_path = tmp_path / "report.json"
    metrics_path = tmp_path / "metrics.json"

    save_library(seed_library(), lib_path)
    rc = cli.main([
        "verify", "--features", str(workdir / "f.jsonl"),
        "--library", str(lib_path), "--output", str(verified_path),
        "--mock-dir", MOCK_DIR,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "iteration(s):" in out
    verified = load_library(verified_path)
    assert verified.version > seed_library().version
    assert any(r.state == "verified" for r in verified.rules)
    assert all(r.state != "candidate" for r in verified.rules)

    rc = cli.main([
        "classify", "--features", str(workdir / "f.jsonl"),
        "--library", str(verified_path), "--output", str(report_path),
    ])
    assert rc == 0
    assert "classified 4 vehicles" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["delta"] == 0.5
    assert report["library_version"] == verified.version
    assert len(report["results"]) == 4
    for entry in report["results"]:
        assert entry["decision"] in ("AV", "HDV", "undetermined")
        assert entry["label"] in ("AV", "HDV")
        if entry["decision"] != "undetermined":
            assert 0.0 <= entry["score"] <= 1.0
            assert entry["evidence"], entry["vehicle_id"]

    rc = cli.main([
        "evaluate", "--report", str(report_path), "--output", str(metrics_path),
    ])
    assert rc == 0
    assert "accuracy" in capsys.readouterr().out
    metrics = json.loads(metrics_path.read_text())
    assert set(metrics) >= {"accuracy", "per_class", "confusion", "roc_auc"}
    assert metrics["n_samples"] == 4


def test_classify_without_applicable_rules_is_undetermined(workdir, tmp_path):
    lib = seed_library()
    for rule in lib.rules:
        rule.state = "retired"
    keep = lib.get("R12")  # lane_change_angle is never extracted
    keep.state = "verified"
    keep.confidence = 0.9
    lib_path = tmp_path / "narrow.json"
    save_library(lib, lib_path)
    report_path = tmp_path / "report.json"
    rc = cli.main([
        "classify", "--features", str(workdir / "f.jsonl"),
        "--library", str(lib_path), "--output", str(report_path),
    ])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert all(r["decision"] == "undetermined" for r in report["results"])
    assert all("reason" in r for r in report["results"])


@pytest.mark.parametrize("doc,message", [
    ({"results": [{"vehicle_id": "x", "decision": "AV", "score": 0.9}]},
     "report carries no ground-truth labels to evaluate against"),
    ([{"vehicle_id": "x", "decision": "AV", "label": "AV"}],
     "report file has no 'results' array"),
    ({"results": ["AV"]}, "report entry 0 is not an object"),
    ({"results": [{"vehicle_id": "x", "label": "AV"}]},
     "report entry 0 ('x') has no 'decision'"),
    ({"results": [{"vehicle_id": "x", "decision": "AV", "label": "AV", "score": 0.9},
                  {"vehicle_id": "y", "decision": "HDV", "label": "HDV", "score": "x"}]},
     "report entry 1 ('y'): score must be a number, got 'x'"),
], ids=["no_labels", "array", "entry_not_object", "no_decision", "string_score"])
def test_evaluate_rejects_bad_report(tmp_path, capsys, doc, message):
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(doc))
    rc = cli.main([
        "evaluate", "--report", str(report_path),
        "--output", str(tmp_path / "m.json"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_needs_labels(workdir, tmp_path):
    rows = load_feature_rows(workdir / "f.jsonl")
    for row in rows:
        row.pop("label")
    unlabeled = tmp_path / "u.jsonl"
    unlabeled.write_text("".join(json.dumps(r) + "\n" for r in rows))
    lib_path = tmp_path / "lib.json"
    save_library(seed_library(), lib_path)
    rc = cli.main([
        "verify", "--features", str(unlabeled), "--library", str(lib_path),
        "--output", str(tmp_path / "v.json"), "--mock-dir", MOCK_DIR,
    ])
    assert rc == 2


def test_corrupt_library_is_an_input_error(workdir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    rc = cli.main([
        "classify", "--features", str(workdir / "f.jsonl"),
        "--library", str(bad), "--output", str(tmp_path / "r.json"),
    ])
    assert rc == 2


def test_flag_overrides_config_file(workdir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"delta": 0.6}))
    lib_path = tmp_path / "lib.json"
    lib = seed_library()
    for rule in lib.rules:
        rule.state = "verified"
        rule.confidence = 0.9
    save_library(lib, lib_path)

    out = tmp_path / "r1.json"
    assert cli.main([
        "classify", "--features", str(workdir / "f.jsonl"),
        "--library", str(lib_path), "--output", str(out),
        "--config", str(cfg_path),
    ]) == 0
    assert json.loads(out.read_text())["delta"] == 0.6

    out2 = tmp_path / "r2.json"
    assert cli.main([
        "classify", "--features", str(workdir / "f.jsonl"),
        "--library", str(lib_path), "--output", str(out2),
        "--config", str(cfg_path), "--delta", "0.8",
    ]) == 0
    assert json.loads(out2.read_text())["delta"] == 0.8


def test_bad_config_file(workdir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"no_such_key": 1}))
    rc = cli.main([
        "classify", "--features", str(workdir / "f.jsonl"),
        "--library", str(tmp_path / "ignored.json"), "--output",
        str(tmp_path / "r.json"), "--config", str(cfg_path),
    ])
    assert rc == 2


def test_predict_both_tasks(workdir, tmp_path, capsys):
    lib_path = tmp_path / "lib.json"
    save_library(seed_library(), lib_path)
    for task, valid in (("speed", {"accelerate", "decelerate", "maintain"}),
                        ("lane_change", {"left_LC", "right_LC", "keep_lane"})):
        out = tmp_path / f"{task}.json"
        rc = cli.main([
            "predict", "--input", str(workdir / "t.jsonl"),
            "--library", str(lib_path), "--output", str(out),
            "--task", task, "--no-smoothing",
        ])
        assert rc == 0
        assert f"predicted {task} for 4 vehicles" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["task"] == task
        assert len(doc["predictions"]) == 4
        for pred in doc["predictions"]:
            assert pred["direction"] in valid
            assert set(pred["scores"]) == valid
