import argparse
import json
import math
from dataclasses import fields, replace
from pathlib import Path

import pytest

from trajrules import cli
from trajrules.classification import identify_vehicle
from trajrules.config import RunConfig, setting_type
from trajrules.dsl import parse_predicate
from trajrules.errors import NoApplicableRulesError
from trajrules.io import load_feature_rows, load_library, load_trajectories, save_library
from trajrules.rules import Rule, RuleLibrary, seed_library

MOCK_DIR = str(Path(__file__).resolve().parent.parent / "fixtures" / "mock")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Small synthetic dataset with extracted features, built once."""
    root = tmp_path_factory.mktemp("cli")
    trajs = root / "t.jsonl"
    feats = root / "f.jsonl"
    rc = cli.main([
        "synth", "--output", str(trajs), "--n-av", "2", "--n-hdv", "2",
        "--duration-s", "43", "--seed", "5",
    ])
    assert rc == 0
    rc = cli.main([
        "features", "--input", str(trajs), "--output", str(feats),
        "--no-smoothing", "--lc-window", "120", "--lc-threshold", "2.0",
    ])
    assert rc == 0
    return root


def test_synth_writes_tracks(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    rc = cli.main([
        "synth", "--output", str(out),
        "--n-av", "1", "--n-hdv", "1", "--duration-s", "43", "--seed", "0",
    ])
    assert rc == 0
    assert "generated 1 AV and 1 HDV" in capsys.readouterr().out
    assert len(load_trajectories(out)) == 2


def test_synth_has_no_manifest_flag(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    with pytest.raises(SystemExit) as exc:
        cli.main(["synth", "--output", str(out), "--manifest", str(tmp_path / "m.json"),
                  "--n-av", "1", "--n-hdv", "1", "--duration-s", "43"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --manifest" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def lane_change_counts(path):
    return {row["vehicle_id"]: row["features"]["lane_change_count"]
            for row in load_feature_rows(path)}


def test_features_default_lane_change_threshold_follows_the_unit_system(tmp_path):
    # synth lays lane changes out in meters; default flags must find them with smoothing on
    trajs, truth, feats = tmp_path / "t.jsonl", tmp_path / "truth.jsonl", tmp_path / "f.jsonl"
    assert cli.main(["synth", "--output", str(trajs),
                     "--n-av", "2", "--n-hdv", "3", "--duration-s", "43", "--seed", "3"]) == 0
    assert cli.main(["features", "--input", str(trajs), "--output", str(truth),
                     "--no-smoothing"]) == 0
    assert cli.main(["features", "--input", str(trajs), "--output", str(feats)]) == 0
    expected = lane_change_counts(truth)
    assert lane_change_counts(feats) == expected
    assert set(expected.values()) == {1.0}


def test_synth_rejects_bad_population(tmp_path):
    rc = cli.main(["synth", "--output", str(tmp_path / "t.jsonl"), "--n-av", "-1"])
    assert rc == 2


@pytest.mark.parametrize("flags,message", [
    (["--seed", "-1"], "seed must be nonnegative"),
    (["--separation", "1.7"],
     "separation 1.7 is too large: AV profile: speed_std must be nonnegative, got -0.55"),
    (["--separation", "nan"], "separation must be finite, got nan"),
    (["--duration-s", "1e308"], "duration_s * frame_rate is inf frames, beyond numpy's index range"),
    (["--frame-rate", "1e308"], "duration_s * frame_rate is inf frames, beyond numpy's index range"),
    (["--duration-s", "1e18"],
     "duration_s * frame_rate is 2.5e+19 frames, beyond numpy's index range"),
    # 2.5e16 int64 frames exceed the address space, so numpy fails before touching memory
    (["--duration-s", "1e15"], "cannot allocate 2.5e+16 frames per track"),
    (["--frame-rate", "11"], "frame_rate below 12 fps is too coarse to calibrate every vehicle"),
])
def test_synth_rejects_bad_settings(tmp_path, capsys, flags, message):
    out = tmp_path / "t.jsonl"
    rc = cli.main(["synth", "--output", str(out), "--n-av", "1", "--n-hdv", "1",
                   "--duration-s", "43", *flags])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_synth_long_tracks_raise_no_numpy_warning(tmp_path):
    # far from a lane change the lateral velocity term overflows to inf before k/inf = 0
    out = tmp_path / "t.jsonl"
    assert cli.main(["synth", "--output", str(out), "--n-av", "1", "--n-hdv", "1",
                     "--duration-s", "300", "--seed", "0"]) == 0
    assert [len(t) for t in load_trajectories(out)] == [7501, 7501]


def test_features_finds_every_lane_change_of_a_long_synth_track(tmp_path):
    # at 120 s each AV gets two lane changes and each HDV one
    trajs, truth, feats = tmp_path / "t.jsonl", tmp_path / "truth.jsonl", tmp_path / "f.jsonl"
    assert cli.main(["synth", "--output", str(trajs),
                     "--n-av", "2", "--n-hdv", "2", "--duration-s", "120", "--seed", "1"]) == 0
    assert cli.main(["features", "--input", str(trajs), "--output", str(truth),
                     "--no-smoothing"]) == 0
    assert cli.main(["features", "--input", str(trajs), "--output", str(feats)]) == 0
    expected = {"av_0000": 2.0, "av_0001": 2.0, "hdv_0000": 1.0, "hdv_0001": 1.0}
    assert lane_change_counts(truth) == expected
    assert lane_change_counts(feats) == expected


def test_features_rows_carry_label_and_context(workdir):
    rows = load_feature_rows(workdir / "f.jsonl")
    assert len(rows) == 4
    for row in rows:
        assert row["label"] in ("AV", "HDV")
        assert row["unit_system"] == "metric"
        assert row["context"] == "free_flow"  # both profiles cruise above 5 m/s
        assert "std_jerk" in row["features"]
        assert "max_decel" in row["features"]


@pytest.mark.parametrize("context", ["free_flow", "congested"])
def test_features_fixed_context_labels_every_row(workdir, tmp_path, context):
    out = tmp_path / "f.jsonl"
    assert cli.main(["features", "--input", str(workdir / "t.jsonl"), "--output", str(out),
                     "--no-smoothing", "--context", context]) == 0
    rows = load_feature_rows(out)
    assert len(rows) == 4
    assert {row["context"] for row in rows} == {context}


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


def test_every_setting_is_a_flag_typed_as_its_config_key():
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    settings = {f.name for f in fields(RunConfig)}
    seen = set()
    for command, parser in sub.choices.items():
        required = [arg for a in parser._actions if a.required
                    for arg in (a.option_strings[0], a.choices[0] if a.choices else "x")]
        for action in parser._actions:
            if action.dest not in settings:
                continue
            seen.add(action.dest)
            kind = setting_type(action.dest)
            flag = action.option_strings[0]
            if kind is bool:
                assert isinstance(action, argparse._StoreTrueAction), (command, flag)
                assert vars(parser.parse_args(required))[action.dest] is None
                assert vars(parser.parse_args([*required, flag]))[action.dest] is True
            else:
                value = action.choices[-1] if action.choices else "3"
                parsed = vars(parser.parse_args([*required, flag, value]))[action.dest]
                assert type(parsed) is kind and parsed == kind(value), (command, flag)
    assert seen == settings


def write_tracks(path, lengths):
    """One straight 25 Hz track per length, ids v0, v1, ..."""
    with open(path, "w") as fh:
        for i, n in enumerate(lengths):
            points = [[t, 0.5 * t, 0.0] for t in range(n)]
            fh.write(json.dumps({"vehicle_id": f"v{i}", "frame_rate": 25.0,
                                 "points": points}) + "\n")


@pytest.mark.parametrize("flags,config,message", [
    (["--process-noise", "nan"], None, "process_noise must be finite, got nan"),
    (["--process-noise", "inf"], None, "process_noise must be finite, got inf"),
    (["--measurement-noise", "nan"], None, "measurement_noise must be finite, got nan"),
    (["--lc-threshold=-inf"], None, "lc_threshold must be finite, got -inf"),
    ([], {"process_noise": math.nan}, "process_noise must be finite, got nan"),
    ([], {"measurement_noise": math.inf}, "measurement_noise must be finite, got inf"),
    (["--lc-window", "1"], None, "lc_window must be at least 2, got 1"),
    (["--lc-threshold", "0"], None, "lc_threshold must be positive, got 0.0"),
    (["--lc-threshold=-3"], None, "lc_threshold must be positive, got -3.0"),
    (["--process-noise=-1"], None, "process_noise must be positive, got -1.0"),
    ([], {"measurement_noise": 0}, "measurement_noise must be positive, got 0.0"),
], ids=["flag_nan", "flag_inf", "measurement_nan", "threshold_neg_inf",
        "config_nan", "config_inf", "lc_window_1", "lc_threshold_0", "lc_threshold_neg",
        "process_noise_neg", "measurement_noise_0"])
def test_features_rejects_non_finite_settings(tmp_path, capsys, flags, config, message):
    trajs = tmp_path / "t.jsonl"
    out = tmp_path / "f.jsonl"
    write_tracks(trajs, [200])
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        flags = [*flags, "--config", str(tmp_path / "c.json")]
    rc = cli.main(["features", "--input", str(trajs), "--output", str(out), *flags])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["features", "predict"])
def test_a_track_no_longer_than_the_window_has_no_lane_atoms(tmp_path, command):
    # 120 points span 119 steps, one short of the default 120-step window: that
    # track gets no lane-change events and no lane atoms, and the others are untouched
    library = tmp_path / "lib.json"
    save_library(seed_library(), library)
    extra = ["--library", str(library), "--task", "lane_change"] if command == "predict" else []
    trajs = tmp_path / "t.jsonl"
    write_tracks(trajs, [200, 120, 200])
    lines = trajs.read_text().splitlines(keepends=True)
    (tmp_path / "without.jsonl").write_text(lines[0] + lines[2])
    outputs = []
    for name in ("t.jsonl", "without.jsonl"):
        out = tmp_path / f"{name}.out"
        assert cli.main([command, "--input", str(tmp_path / name), "--output", str(out),
                         *extra]) == 0
        if command == "features":
            outputs.append({row["vehicle_id"]: row for row in load_feature_rows(out)})
        else:
            outputs.append({p["vehicle_id"]: p for p in json.loads(out.read_text())["predictions"]})
    with_short, without = outputs
    assert set(with_short) == {"v0", "v1", "v2"}
    assert {k: v for k, v in with_short.items() if k != "v1"} == without
    if command == "features":
        features = with_short["v1"]["features"]
        assert "mean_speed" in features
        assert not {"lane_change_count", "lane_change_rate"} & set(features)
        assert "lane_change_count" in with_short["v0"]["features"]


@pytest.mark.parametrize("command", ["features", "predict"])
@pytest.mark.parametrize("metadata,message", [
    ({"frame_rate": 1e308}, "v0: frame_rate 1e+308 is too high: its squared time step is 0"),
    ({"frame_rate": 1e160}, "vehicle 'v0': feature 'mean_speed' is nan, not a finite number"),
    ({"frame_rate": 0}, "v0: frame_rate must be positive, got 0.0"),
    ({"frame_rate": 25.0, "unit_scale": -1}, "v0: unit_scale must be positive, got -1.0"),
    # the Kalman gains overflow; --no-smoothing still writes these rows
    ({"frame_rate": 1e-78}, "vehicle 'v0': feature 'mean_speed' is nan, not a finite number"),
    ({"frame_rate": 1e-300}, "vehicle 'v0': feature 'mean_speed' is nan, not a finite number"),
    # the differences overflow; the suite's warnings-as-errors filter fails any numpy warning
    ({"frame_rate": 25.0, "points": [[i, 0.6 * i, 1e307 * (i % 2)] for i in range(200)]},
     "vehicle 'v0': feature 'mean_speed' is nan, not a finite number"),
], ids=["step_squared_underflows", "features_overflow", "frame_rate_zero", "unit_scale_negative",
        "gains_overflow", "gains_overflow_far", "coordinate_differences_overflow"])
def test_extreme_frame_rate_is_an_input_error(tmp_path, capsys, command, metadata, message):
    trajs = tmp_path / "t.jsonl"
    points = [[t, 0.5 * t, 0.0] for t in range(200)]
    trajs.write_text(json.dumps({"vehicle_id": "v0", "points": points, **metadata}) + "\n")
    library = tmp_path / "lib.json"
    save_library(seed_library(), library)
    extra = ["--library", str(library), "--task", "speed"] if command == "predict" else []
    out = tmp_path / "out"
    rc = cli.main([command, "--input", str(trajs), "--output", str(out), *extra])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("source", ["flag", "config", "neither"])
@pytest.mark.parametrize("command", ["verify", "discover"])
def test_theta_reaches_a_loaded_library(workdir, tmp_path, command, source):
    library = tmp_path / "in.json"
    seeded = seed_library()
    seeded.theta = 0.8
    save_library(seeded, library)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"theta": 0.55}))
    setting = {"flag": ["--theta", "0.55"], "config": ["--config", str(config)],
               "neither": []}[source]
    library_flag = "--library" if command == "verify" else "--library-in"
    out = tmp_path / "out.json"
    assert cli.main([
        command, "--features", str(workdir / "f.jsonl"), library_flag, str(library),
        "--output", str(out), "--mock-dir", MOCK_DIR, *setting,
    ]) == 0
    assert load_library(out).theta == (0.8 if source == "neither" else 0.55)


def test_discover_rejects_library_in_with_seed_rules(workdir, tmp_path, capsys):
    library = tmp_path / "in.json"
    save_library(seed_library(), library)
    out = tmp_path / "out.json"
    rc = cli.main([
        "discover", "--features", str(workdir / "f.jsonl"), "--output", str(out),
        "--library-in", str(library), "--seed-rules", "--mock-dir", MOCK_DIR,
    ])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: --library-in and --seed-rules each choose the starting library; give one\n")
    assert not out.exists()


def test_discover_without_fixture_fails(workdir, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = cli.main([
        "discover", "--features", str(workdir / "f.jsonl"),
        "--output", str(tmp_path / "lib.json"), "--mock-dir", str(empty),
    ])
    assert rc == 1


@pytest.mark.parametrize("flags,message", [
    (["--temperature", "3"], "temperature 3.0 outside [0, 2]"),
    (["--max-retries", "-1"], "max_retries must be >= 0"),
    (["--max-output-tokens", "0"], "max_output_tokens must be positive"),
    (["--timeout-s", "0"], "timeout_s must be positive"),
    (["--endpoint", "file:///etc/passwd"],
     "endpoint must be an http:// or https:// URL, got 'file:///etc/passwd'"),
    (["--timeout-s", "0", "--mock-dir", MOCK_DIR], "timeout_s must be positive"),
    (["--mock-dir", f"{MOCK_DIR}/discovery.md"],
     f"mock_dir '{MOCK_DIR}/discovery.md' is not a directory"),
], ids=["temperature", "max_retries", "max_output_tokens", "timeout_s", "endpoint",
        "with_mock_dir", "mock_dir_a_file"])
def test_discover_rejects_bad_backend_settings(workdir, tmp_path, capsys, monkeypatch, flags,
                                               message):
    def no_request(*args):
        raise AssertionError("a request was sent")

    monkeypatch.setattr("trajrules.llm._post", no_request)
    out = tmp_path / "lib.json"
    rc = cli.main(["discover", "--features", str(workdir / "f.jsonl"), "--output", str(out),
                   *flags])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_verify_rejects_a_mock_dir_that_is_not_a_directory(workdir, tmp_path, capsys):
    # an empty library verifies without a single completion, so only the
    # setting check can reject the fixture path
    library = tmp_path / "empty.json"
    save_library(RuleLibrary(), library)
    out = tmp_path / "verified.json"
    missing = str(tmp_path / "no_such_dir")
    rc = cli.main(["verify", "--features", str(workdir / "f.jsonl"), "--library", str(library),
                   "--output", str(out), "--mock-dir", missing])
    assert rc == 2
    assert capsys.readouterr().err == f"error: mock_dir {missing!r} is not a directory\n"
    assert not out.exists()


def test_tiny_frame_rate_without_smoothing_writes_its_row(tmp_path):
    # test_extreme_frame_rate_is_an_input_error's gains_overflow track, unsmoothed
    trajs = tmp_path / "t.jsonl"
    points = [[t, 0.5 * t, 0.0] for t in range(200)]
    trajs.write_text(json.dumps({"vehicle_id": "v0", "frame_rate": 1e-78, "points": points}) + "\n")
    out = tmp_path / "f.jsonl"
    assert cli.main(["features", "--input", str(trajs), "--output", str(out), "--no-smoothing"]) == 0
    assert [row["vehicle_id"] for row in load_feature_rows(out)] == ["v0"]


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


def test_classify_decides_each_vehicle_through_identify_vehicle(tmp_path, monkeypatch):
    # perfbench's tracer wraps cli.identify_vehicle by name, so classify must call it
    calls, undetermined = [], []

    def counting(*args):
        calls.append(args)
        try:
            return identify_vehicle(*args)
        except NoApplicableRulesError:
            undetermined.append(args)
            raise

    monkeypatch.setattr(cli, "identify_vehicle", counting)
    rows = tmp_path / "f.jsonl"
    rows.write_text(json.dumps({"vehicle_id": "a", "features": {"std_jerk": 0.1}}) + "\n"
                    + json.dumps({"vehicle_id": "b", "features": {"mean_speed": 9.0}}) + "\n")
    lib_path = tmp_path / "lib.json"
    save_library(RuleLibrary(rules=[Rule(id="A", description="d", confidence=1.0,
                                         predicate=parse_predicate("std_jerk < 0.3"),
                                         state="verified")]), lib_path)
    report_path = tmp_path / "report.json"
    rc = cli.main(["classify", "--features", str(rows), "--library", str(lib_path),
                   "--output", str(report_path)])
    assert rc == 0
    assert len(calls) == 2
    assert len(undetermined) == 1
    results = json.loads(report_path.read_text())["results"]
    assert [r["decision"] for r in results] == ["AV", "undetermined"]
    assert results[1]["reason"] == "no verified AV-indicative rule applies to this vehicle"


def test_classify_ignores_rules_not_tagged_for_identification(workdir, tmp_path):
    lib = seed_library()
    for rule in lib.rules:
        rule.state = "retired"
    keep = lib.get("R2")
    keep.state = "verified"
    # a verified AV-indicative speed rule matching every vehicle must not vote
    lib.add_rule(replace(keep, id="S1", predicate=parse_predicate("mean_speed > 0"),
                         tasks=frozenset({"speed"}),
                         direction="maintain", confidence=1.0))
    lib_path = tmp_path / "tasks.json"
    save_library(lib, lib_path)
    report_path = tmp_path / "report.json"
    rc = cli.main([
        "classify", "--features", str(workdir / "f.jsonl"),
        "--library", str(lib_path), "--output", str(report_path),
    ])
    assert rc == 0
    results = json.loads(report_path.read_text())["results"]
    assert len(results) == 4
    for r in results:
        assert [e["rule_id"] for e in r["evidence"]] == ["R2"]
        assert r["score"] == (1.0 if r["evidence"][0]["verdict"] == "matched" else 0.0)


@pytest.mark.parametrize("doc,message", [
    ({"results": [{"vehicle_id": "x", "decision": "AV", "score": 0.9}]},
     "report carries no ground-truth labels to evaluate against"),
    ([{"vehicle_id": "x", "decision": "AV", "label": "AV"}],
     "report file must hold a JSON object"),
    ({"results": ["AV"]}, "report entry 0 is not an object"),
    ({"results": [{"vehicle_id": "x", "label": "AV"}]},
     "report entry 0 ('x') has no 'decision'"),
    ({"results": [{"vehicle_id": "x", "decision": "AV", "label": "AV", "score": 0.9},
                  {"vehicle_id": "y", "decision": "HDV", "label": "HDV", "score": "x"}]},
     "report entry 1 ('y'): score must be a number, got 'x'"),
    ({"results": [{"vehicle_id": "x", "decision": "car", "label": "AV"}]},
     "report entry 0 ('x'): decision must be one of ('AV', 'HDV', 'undetermined'), got 'car'"),
    ({"results": [{"vehicle_id": "x", "decision": "AV", "label": "AV"},
                  {"vehicle_id": "y", "decision": "HDV", "label": "bike"}]},
     "report entry 1 ('y'): label must be one of ('AV', 'HDV'), got 'bike'"),
    ({"results": [{"vehicle_id": "x", "decision": "AV", "label": "AV", "score": float("nan")},
                  {"vehicle_id": "y", "decision": "HDV", "label": "HDV", "score": 0.1}]},
     "report entry 0 ('x'): score must be finite, got nan"),
    ({"results": [{"vehicle_id": "x", "decision": "AV", "label": "AV", "score": float("inf")}]},
     "report entry 0 ('x'): score must be finite, got inf"),
    ({"results": [{"vehicle_id": "x", "decision": "AV", "label": "AV", "score": 10**400}]},
     f"report entry 0 ('x'): score must be finite, got {10**400}"),
], ids=["no_labels", "array", "entry_not_object", "no_decision", "string_score",
        "bad_decision", "bad_label", "nan_score", "infinite_score", "huge_integer_score"])
def test_evaluate_rejects_bad_report(tmp_path, capsys, doc, message):
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(doc))
    rc = cli.main([
        "evaluate", "--report", str(report_path),
        "--output", str(tmp_path / "m.json"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_evaluate_counts_an_all_undetermined_report_as_misses(tmp_path, capsys):
    # with the flag every undetermined entry is a miss, so there is something to score
    report_path, metrics_path = tmp_path / "report.json", tmp_path / "m.json"
    report_path.write_text(json.dumps({"results": [
        {"vehicle_id": "x", "decision": "undetermined", "label": "AV"},
        {"vehicle_id": "y", "decision": "undetermined", "label": "HDV"},
        {"vehicle_id": "z", "decision": "undetermined", "label": "HDV"},
    ]}))
    argv = ["evaluate", "--report", str(report_path), "--output", str(metrics_path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: no determined predictions to score\n"
    assert cli.main([*argv, "--count-undetermined-as-error"]) == 0
    assert capsys.readouterr().out == (
        "accuracy 0.000, macro F1 0.000, ROC-AUC n/a, 3 undetermined\n")
    metrics = json.loads(metrics_path.read_text())
    assert (metrics["accuracy"], metrics["n_samples"], metrics["n_undetermined"]) == (0.0, 3, 3)
    assert metrics["confusion"] == {"labels": ["AV", "HDV"], "counts": [[0, 0], [0, 0]]}
    assert metrics["roc_auc"] is None


def test_evaluate_gives_no_roc_auc_when_determined_entries_share_a_label(tmp_path, capsys):
    # the one HDV is undetermined, so the scores to rank are all AV
    report_path, metrics_path = tmp_path / "report.json", tmp_path / "m.json"
    report_path.write_text(json.dumps({"results": [
        {"vehicle_id": "x", "decision": "AV", "label": "AV", "score": 0.9},
        {"vehicle_id": "y", "decision": "HDV", "label": "AV", "score": 0.2},
        {"vehicle_id": "z", "decision": "undetermined", "label": "HDV"},
    ]}))
    assert cli.main(["evaluate", "--report", str(report_path),
                     "--output", str(metrics_path)]) == 0
    assert capsys.readouterr().out == (
        "accuracy 0.500, macro F1 0.333, ROC-AUC n/a, 1 undetermined\n")
    metrics = json.loads(metrics_path.read_text())
    assert metrics["roc_auc"] is None
    assert (metrics["n_samples"], metrics["n_undetermined"]) == (3, 1)


@pytest.mark.parametrize("command", ["classify", "verify"])
def test_unit_mismatch_names_first_vehicle(workdir, tmp_path, capsys, command):
    rows = load_feature_rows(workdir / "f.jsonl")
    for row in rows[2:]:
        row["unit_system"] = "pixel"
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("".join(json.dumps(r) + "\n" for r in rows))
    lib_path = tmp_path / "lib.json"
    save_library(seed_library(), lib_path)
    argv = [command, "--features", str(mixed), "--library", str(lib_path),
            "--output", str(tmp_path / "out.json")]
    if command == "verify":
        argv += ["--mock-dir", MOCK_DIR]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: vehicle {rows[2]['vehicle_id']!r}: features are in 'pixel' units, "
        "library expects 'metric'\n"
    )


def test_verify_needs_labels(workdir, tmp_path, capsys):
    rows = load_feature_rows(workdir / "f.jsonl")
    for row in rows:
        row.pop("label")
    unlabeled = tmp_path / "u.jsonl"
    unlabeled.write_text("".join(json.dumps(r) + "\n" for r in rows))
    lib_path = tmp_path / "lib.json"
    library = seed_library()
    for state in ("verified", "retired"):  # with every rule retired no rule is scored
        for rule in library.rules:
            rule.state = state
        save_library(library, lib_path)
        rc = cli.main([
            "verify", "--features", str(unlabeled), "--library", str(lib_path),
            "--output", str(tmp_path / "v.json"), "--mock-dir", MOCK_DIR,
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: feature row for {rows[0]['vehicle_id']!r} has no label; "
            "verification needs ground truth\n")


def test_verify_rejects_negative_stall_epsilon(workdir, tmp_path, capsys):
    # a negative epsilon could never take the stall exit
    lib_path = tmp_path / "lib.json"
    save_library(seed_library(), lib_path)
    out = tmp_path / "v.json"
    rc = cli.main(["verify", "--features", str(workdir / "f.jsonl"), "--library", str(lib_path),
                   "--output", str(out), "--mock-dir", MOCK_DIR, "--stall-epsilon", "-1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: stall_epsilon must be at least 0, got -1.0\n"
    assert not out.exists()


def test_repeated_vehicle_id_is_an_input_error(workdir, tmp_path, capsys):
    rows = load_feature_rows(workdir / "f.jsonl")
    doubled = tmp_path / "f.jsonl"
    doubled.write_text("".join(json.dumps(r) + "\n" for r in [*rows, rows[1]]))
    lib_path = tmp_path / "lib.json"
    save_library(seed_library(), lib_path)
    out = tmp_path / "r.json"
    rc = cli.main(["classify", "--features", str(doubled), "--library", str(lib_path),
                   "--output", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: line {len(rows) + 1}: vehicle_id {rows[1]['vehicle_id']!r} "
        "repeats the one on line 2\n")
    assert not out.exists()

    tracks = (workdir / "t.jsonl").read_text().splitlines(keepends=True)
    (tmp_path / "t.jsonl").write_text("".join([*tracks, tracks[0]]))
    rc = cli.main(["features", "--input", str(tmp_path / "t.jsonl"),
                   "--output", str(tmp_path / "f2.jsonl")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: line {len(tracks) + 1}: vehicle_id {rows[0]['vehicle_id']!r} "
        "repeats the one on line 1\n")
    assert not (tmp_path / "f2.jsonl").exists()


def test_corrupt_library_is_an_input_error(workdir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    rc = cli.main([
        "classify", "--features", str(workdir / "f.jsonl"),
        "--library", str(bad), "--output", str(tmp_path / "r.json"),
    ])
    assert rc == 2


def test_library_without_units_is_an_input_error(workdir, tmp_path, capsys):
    # a null units used to switch the unit check off and classify pixel rows
    pixel = tmp_path / "pixel.jsonl"
    pixel.write_text("".join(json.dumps({**row, "unit_system": "pixel"}) + "\n"
                             for row in load_feature_rows(workdir / "f.jsonl")))
    lib_path = tmp_path / "lib.json"
    save_library(seed_library(), lib_path)
    doc = json.loads(lib_path.read_text())
    doc["units"] = None
    lib_path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    rc = cli.main(["classify", "--features", str(pixel),
                   "--library", str(lib_path), "--output", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: units must be one of ('pixel', 'metric'), got None\n")
    assert not out.exists()


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


def test_an_empty_track_file_gives_no_rows_and_no_predictions(tmp_path, capsys):
    tracks, lib_path = tmp_path / "t.jsonl", tmp_path / "lib.json"
    tracks.write_bytes(b"")
    save_library(seed_library(), lib_path)
    assert cli.main(["features", "--input", str(tracks), "--output", str(tmp_path / "f")]) == 0
    assert (tmp_path / "f").read_bytes() == b""
    assert cli.main(["predict", "--input", str(tracks), "--library", str(lib_path),
                     "--output", str(tmp_path / "p"), "--task", "speed"]) == 0
    assert json.loads((tmp_path / "p").read_text()) == {"task": "speed", "predictions": []}
    assert capsys.readouterr().out == (f"wrote 0 feature rows to {tmp_path / 'f'}\n"
                                       "predicted speed for 0 vehicles\n")


@pytest.mark.parametrize("command", ["discover", "verify", "classify"])
def test_a_feature_value_beyond_float_range_is_an_input_error(workdir, tmp_path, capsys,
                                                              command):
    rows = load_feature_rows(workdir / "f.jsonl")
    rows[1]["features"]["mean_speed"] = 10**400
    feats, lib_path = tmp_path / "f.jsonl", tmp_path / "lib.json"
    feats.write_text("".join(json.dumps(r) + "\n" for r in rows))
    save_library(seed_library(), lib_path)
    inputs = {"discover": ["--mock-dir", MOCK_DIR],
              "verify": ["--mock-dir", MOCK_DIR, "--library", str(lib_path)],
              "classify": ["--library", str(lib_path)]}[command]
    argv = [command, "--features", str(feats), "--output", str(tmp_path / "out.json"), *inputs]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: line 2: feature 'mean_speed' must be finite, got {10**400}\n")


def test_null_label_is_no_label_through_classify_and_evaluate(workdir, tmp_path):
    rows = load_feature_rows(workdir / "f.jsonl")
    rows[0]["label"] = None
    feats = tmp_path / "f.jsonl"
    feats.write_text("".join(json.dumps(r) + "\n" for r in rows))
    lib_path = tmp_path / "lib.json"
    save_library(seed_library(), lib_path)
    report = tmp_path / "r.json"
    assert cli.main(["classify", "--features", str(feats), "--library", str(lib_path),
                     "--output", str(report)]) == 0
    results = json.loads(report.read_text())["results"]
    assert "label" not in results[0]
    assert all("label" in r for r in results[1:])
    metrics = tmp_path / "m.json"
    assert cli.main(["evaluate", "--report", str(report), "--output", str(metrics)]) == 0
    assert json.loads(metrics.read_text())["n_samples"] == len(rows) - 1


def test_predict_has_no_min_mean_speed_flag(workdir, tmp_path, capsys):
    lib_path = tmp_path / "lib.json"
    save_library(seed_library(), lib_path)
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["predict", "--input", str(workdir / "t.jsonl"), "--library", str(lib_path),
                  "--output", str(tmp_path / "p.json"), "--task", "speed",
                  "--min-mean-speed", "1"])
    assert exc_info.value.code == 2
    assert "unrecognized arguments: --min-mean-speed 1" in capsys.readouterr().err
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("command,flag,name", [
    ("classify", "--library", "library file"),
    ("classify", "--config", "config file"),
    ("evaluate", "--report", "report file"),
])
def test_json_file_reads_fail_the_same_way(workdir, tmp_path, capsys, command, flag, name):
    lib_path = tmp_path / "lib.json"
    save_library(seed_library(), lib_path)
    inputs = {"classify": ["--features", str(workdir / "f.jsonl"), "--library", str(lib_path)],
              "evaluate": ["--report", str(tmp_path / "r.json")]}[command]
    args = [command, *inputs, "--output", str(tmp_path / "out.json")]
    bad = tmp_path / "bad.json"
    for content, message in ((b"[]", f"{name} must hold a JSON object"),
                             (b"{broken", f"{name} is not valid JSON: "),
                             (b'{"a": "\xe9"}', f"{name} is not valid JSON: 'utf-8' codec"),
                             (b'{"a": 1%s}' % (b"0" * 5000),
                              f"{name} is not valid JSON: Exceeds the limit (4300 digits)"),
                             (None, f"cannot read {name}: ")):
        if content is None:
            bad.unlink()
        else:
            bad.write_bytes(content)
        rc = cli.main([*args, flag, str(bad)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "out.json").exists()
