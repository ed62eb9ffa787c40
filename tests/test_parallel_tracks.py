"""features and predict give the same bytes and the same errors whatever
the number of chunks their track work is split into."""
import json
import os

import numpy as np
import pytest

from trajrules import cli, workers
from trajrules.dsl import parse_predicate
from trajrules.io import jsonl_spans, save_library
from trajrules.rules import Rule, RuleLibrary
from helpers import assert_no_child_left

EXTRACTION = ["--lc-window", "20", "--lc-threshold", "2.0"]


@pytest.fixture
def forks(monkeypatch):
    """Force the chunk count with forks.chunks; forks.calls counts the children."""
    class Forks:
        chunks = 1
        calls = 0

    real_fork = workers._fork

    def counting_fork():
        Forks.calls += 1
        return real_fork()

    monkeypatch.setattr(workers, "chunk_count", lambda size: Forks.chunks)
    monkeypatch.setattr(workers, "_fork", counting_fork)
    return Forks


@pytest.fixture
def whole_file_passes(monkeypatch):
    """The paths that cli._prepare read whole in this process, not in a slice."""
    passes = []
    prepare = cli._prepare

    def recording_prepare(path, cfg, task, span=None):
        if span is None:
            passes.append(path)
        return prepare(path, cfg, task, span)

    monkeypatch.setattr(cli, "_prepare", recording_prepare)
    return passes


def track_doc(rng, i):
    """Mixed lengths at 10 or 25 Hz; short frame drops; every fourth track split by a gap."""
    frame_rate = 10.0 if i % 3 == 0 else 25.0
    n = int(rng.integers(120, 400))
    dt = 1.0 / frame_rate
    speed = 8.0 + np.cumsum(rng.normal(0.0, 0.5, n)) * dt
    x = np.cumsum(speed) * dt
    y = 3.5 / (1.0 + np.exp(-0.1 * (np.arange(n) - n / 2))) if i % 2 else np.zeros(n)
    y = y + rng.normal(0.0, 0.05, n)
    keep = rng.random(n) > 0.03
    keep[:2] = keep[-2:] = True
    if i % 4 == 1:
        keep[n // 2:n // 2 + 12] = False
    points = [[t, round(float(x[t]), 4), round(float(y[t]), 4)]
              for t in np.flatnonzero(keep).tolist()]
    return {"vehicle_id": f"v{i:02d}", "frame_rate": frame_rate, "unit_system": "metric",
            "label": "AV" if i % 3 == 1 else "HDV", "points": points}


def write_lines(path, docs, tail=b""):
    """docs as JSONL with CRLF endings and blank lines between some records, then tail."""
    body = b""
    for k, doc in enumerate(docs):
        body += json.dumps(doc).encode() + b"\r\n" + (b"\r\n" if k % 3 == 0 else b"")
    path.write_bytes(body + tail)


@pytest.fixture
def tracks(tmp_path):
    rng = np.random.default_rng(17)
    docs = [track_doc(rng, i) for i in range(14)]
    path = tmp_path / "tracks.jsonl"
    write_lines(path, docs)
    return path, docs


@pytest.fixture
def library(tmp_path):
    voting = [
        ("S1", "mean_accel > 0.0", "speed", "accelerate"),
        ("S2", "std_accel < 0.5", "speed", "maintain"),
        ("L1", "lane_change_count >= 1", "lane_change", "left_LC"),
        ("L2", "lane_change_count < 1", "lane_change", "keep_lane"),
    ]
    rules = [Rule(id=rid, description=rid, predicate=parse_predicate(text),
                  tasks=frozenset({task}), direction=direction, state="verified",
                  confidence=0.9)
             for rid, text, task, direction in voting]
    path = tmp_path / "lib.json"
    save_library(RuleLibrary(rules=rules), path)
    return path


def run(forks, chunks, argv, output):
    """Exit code, stderr and output bytes of one CLI call at a forced chunk count."""
    forks.chunks = chunks
    before = forks.calls
    code = cli.main(argv)
    assert_no_child_left()
    return code, forks.calls - before, output.read_bytes() if output.exists() else None


COMMANDS = {
    "features_smoothed": ["features"],
    "features_raw": ["features", "--no-smoothing"],
    "predict_speed": ["predict", "--task", "speed"],
    "predict_lane_change": ["predict", "--task", "lane_change"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_track_outputs_do_not_depend_on_the_chunk_count(tmp_path, forks, tracks, library,
                                                        whole_file_passes, command):
    path, _ = tracks
    out = tmp_path / "out"
    argv = [*COMMANDS[command], "--input", str(path), "--output", str(out), *EXTRACTION]
    if command.startswith("predict"):
        argv += ["--library", str(library)]
    code, forked, serial = run(forks, 1, argv, out)
    assert (code, forked, whole_file_passes) == (0, 0, [str(path)])
    for chunks in (2, 3):
        assert len(jsonl_spans(path, chunks)) == chunks
        out.unlink()
        assert run(forks, chunks, argv, out) == (0, chunks - 1, serial)
        # the slices' results were used: no pass over the whole file fell back
        assert whole_file_passes == [str(path)]


def test_features_fall_back_to_one_process_when_a_worker_dies(tmp_path, forks, tracks,
                                                              whole_file_passes, monkeypatch):
    path, _ = tracks
    out = tmp_path / "f.jsonl"
    argv = ["features", "--input", str(path), "--output", str(out), *EXTRACTION]
    _, _, serial = run(forks, 1, argv, out)
    caller, extract = os.getpid(), cli._extract

    def dying_extract(t, cfg):
        if os.getpid() != caller:
            os._exit(1)
        return extract(t, cfg)

    monkeypatch.setattr(cli, "_extract", dying_extract)
    out.unlink()
    assert run(forks, 3, argv, out) == (0, 2, serial)
    assert whole_file_passes == [str(path)] * 2


def test_one_chunk_reads_a_failing_file_once(tmp_path, forks, tracks, monkeypatch):
    _, docs = tracks
    path = tmp_path / "short.jsonl"
    write_lines(path, [docs[0], bad_last_record(docs)])
    loads = []
    load = cli.io.load_trajectories
    monkeypatch.setattr(cli.io, "load_trajectories", lambda *a: loads.append(a) or load(*a))
    out = tmp_path / "f.jsonl"
    argv = ["features", "--input", str(path), "--output", str(out), *EXTRACTION]
    assert run(forks, 1, argv, out) == (2, 0, None)
    assert len(loads) == 1


def bad_last_record(docs):
    return {**docs[-1], "vehicle_id": "bad", "points": [[0, 1.0]]}


# each case: (records to write, bytes after them); the error is in the last chunk
# unless the case says otherwise
ERROR_CASES = {
    "schema": lambda docs: ([*docs, bad_last_record(docs)], b""),
    "repeated_id": lambda docs: ([*docs, {**docs[-1], "vehicle_id": docs[0]["vehicle_id"]}], b""),
    # a duplicate frame in chunk 0 fails validation; the parse error in the last
    # chunk comes first because every line is parsed before any track is validated
    "validation_then_parse": lambda docs: (
        [{**docs[0], "points": [docs[0]["points"][0], *docs[0]["points"]]}, *docs[1:]],
        b"{not json\r\n"),
    "not_utf8": lambda docs: (docs, b'{"vehicle_id": "\xff"}\r\n'),
    "non_finite_feature": lambda docs: ([*docs, {**docs[-1], "vehicle_id": "fast",
                                                 "frame_rate": 1e160}], b""),
}


@pytest.mark.parametrize("command", ["features", "predict_speed"])
@pytest.mark.parametrize("case", ERROR_CASES)
def test_errors_do_not_depend_on_the_chunk_count(tmp_path, capsys, forks, tracks, library,
                                                 command, case):
    _, docs = tracks
    path = tmp_path / "bad.jsonl"
    write_lines(path, *ERROR_CASES[case](docs))
    out = tmp_path / "out"
    argv = [*COMMANDS.get(command, [command]), "--input", str(path), "--output", str(out),
            *EXTRACTION]
    if command.startswith("predict"):
        argv += ["--library", str(library)]
    capsys.readouterr()
    code, _, _ = run(forks, 1, argv, out)
    serial_error = capsys.readouterr().err
    assert code == 2 and serial_error.startswith("error: ")
    for chunks in (2, 3):
        assert len(jsonl_spans(path, chunks)) == chunks
        assert run(forks, chunks, argv, out) == (2, chunks - 1, None)
        assert capsys.readouterr().err == serial_error
