import json
import math
import tracemalloc

import numpy as np
import pytest

from trajrules import io
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
import oracles


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


@pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
def test_spans_cut_at_line_starts_and_read_like_the_whole_file(tmp_path, n):
    tracks = [make_trajectory(range(5 + 3 * i), [0.25 * i] * (5 + 3 * i), vehicle_id=f"vé{i}")
              for i in range(9)]
    lines = [json.dumps(trajectory_to_dict(t), ensure_ascii=False) for t in tracks]
    # CRLF, a lone CR, blank lines and LF; non-ASCII text has more bytes than characters
    data = ("\r\n".join(lines[:3]) + "\r" + lines[3] + "\r\n\r\n" + "\n".join(lines[4:])
            + "\n\n").encode("utf-8")
    path = tmp_path / "t.jsonl"
    path.write_bytes(data)
    spans = io.jsonl_spans(path, n)
    assert 1 <= len(spans) <= n
    assert spans[0][0] == 0 and spans[-1][1] == len(data)
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert end == start and data[start - 1:start] == b"\n"
    whole = load_trajectories(path)
    parts = [t for span in spans for t in load_trajectories(path, span)]
    assert [t.vehicle_id for t in parts] == [f"vé{i}" for i in range(9)]
    for got, want in zip(parts, whole):
        assert_same_trajectory(got, want)


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    a, b = (json.dumps(trajectory_to_dict(make_trajectory([0, 1, 2, 3, 4], [0] * 5,
                                                          vehicle_id=vid)))
            for vid in ("a", "b"))
    path.write_text(f"\n{a}\n\n{b}\n")
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
    (lambda d: d.update(frame_rate="fast"), "frame_rate must be a number, got 'fast'"),
    (lambda d: d.update(vehicle_id=None), "vehicle_id must be a string or an integer, got None"),
    (lambda d: d.update(vehicle_id=True), "vehicle_id must be a string or an integer, got True"),
    (lambda d: d.update(vehicle_id=7.0), "vehicle_id must be a string or an integer, got 7.0"),
    (lambda d: d.update(vehicle_id=[1, 2]),
     "vehicle_id must be a string or an integer, got [1, 2]"),
    (lambda d: d.update(vehicle_id={"id": 1}),
     "vehicle_id must be a string or an integer, got {'id': 1}"),
    (lambda d: d.update(frame_rate="25"), "frame_rate must be a number, got '25'"),
    (lambda d: d.update(frame_rate=True), "frame_rate must be a number, got True"),
    (lambda d: d.update(unit_scale="0.1"), "unit_scale must be a number, got '0.1'"),
    (lambda d: d.update(unit_scale=False), "unit_scale must be a number, got False"),
    (lambda d: d.update(frame_rate=10 ** 400), "int too large to convert to float"),
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
    ({"vehicle_id": "a", "features": {"x": 1.0}, "unit_system": "furlongs"},
     "unit_system must be one of"),
    ({"vehicle_id": "a", "features": {"x": 1.0}, "unit_system": None},
     "unit_system must be one of"),
    ({"vehicle_id": 5, "features": {"x": 1.0}}, "vehicle_id must be a string, got 5"),
    ({"vehicle_id": None, "features": {"x": 1.0}}, "vehicle_id must be a string, got None"),
])
def test_feature_row_schema_violations(tmp_path, row, fragment):
    path = tmp_path / "f.jsonl"
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(SchemaError) as exc_info:
        load_feature_rows(path)
    assert fragment in str(exc_info.value)
    assert exc_info.value.line == 1


def test_repeated_vehicle_id_names_the_first_line(tmp_path):
    rows = [{"vehicle_id": vid, "features": {"x": 1.0}, "label": label}
            for vid, label in (("a", "AV"), ("b", "HDV"), ("a", "HDV"))]
    path = tmp_path / "f.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(SchemaError) as exc_info:
        load_feature_rows(path)
    assert str(exc_info.value) == "line 3: vehicle_id 'a' repeats the one on line 1"

    # track ids are compared as loaded, so 7 and "7" are the same vehicle
    docs = [trajectory_to_dict(make_trajectory([0, 1, 2, 3, 4], [0] * 5, vehicle_id="7")),
            trajectory_to_dict(make_trajectory([0, 1, 2, 3, 4], [1] * 5, vehicle_id="8"))]
    docs.append({**docs[0], "vehicle_id": 7})
    path = tmp_path / "t.jsonl"
    path.write_text("\n\n".join(json.dumps(doc) for doc in docs) + "\n")
    with pytest.raises(SchemaError) as exc_info:
        load_trajectories(path)
    assert str(exc_info.value) == "line 5: vehicle_id '7' repeats the one on line 1"


def test_feature_rows_non_object_line(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text('{"vehicle_id": "a", "features": {}}\n[1, 2]\n')
    with pytest.raises(SchemaError) as exc_info:
        load_feature_rows(path)
    assert exc_info.value.line == 2


@pytest.mark.parametrize("load", [load_trajectories, load_feature_rows],
                         ids=["tracks", "features"])
def test_non_utf8_line_is_a_schema_error(tmp_path, load):
    if load is load_trajectories:
        a, b = (json.dumps(trajectory_to_dict(make_trajectory([0, 1, 2, 3, 4], [0] * 5,
                                                              vehicle_id=vid)))
                for vid in ("a", "b"))
    else:
        a, b = (json.dumps({"vehicle_id": vid, "features": {"x": 1.0}}) for vid in ("a", "b"))
    path = tmp_path / "x.jsonl"
    # the Latin-1 id on line 3 (after a CRLF and a blank line) must be named
    bad = b.replace('"b"', '"b\xe9"').encode("latin-1")
    path.write_bytes(a.encode() + b"\r\n\r\n" + bad + b"\n")
    with pytest.raises(SchemaError) as exc_info:
        load(path)
    assert exc_info.value.line == 3
    assert str(exc_info.value).startswith("line 3: not valid UTF-8 (invalid continuation byte")


# --- load_feature_rows against the line-by-line reference ---------------------

def feature_line(vehicle_id, **fields):
    row = {"vehicle_id": vehicle_id, "features": {"mean_speed": 12.5, "std_jerk": 0.25},
           "label": "AV", "context": "free_flow", "unit_system": "metric", **fields}
    return json.dumps(row).encode()


# each case is the lines (bytes, ending kept) placed into a file of good rows
LOADER_CASES = {
    "crlf": [feature_line("x") + b"\r\n"],
    "lone_cr": [feature_line("x") + b"\r"],
    "blank_lines": [b"\n", b"  \t \n", feature_line("x") + b"\n", b"\r\n"],
    "huge_integer": [feature_line("x", features={"a": 10**400}) + b"\n"],
    "not_utf8": [feature_line("x\xe9").replace(b"\\u00e9", b"\xe9") + b"\n"],
    "nan_token": [b'{"vehicle_id": "x", "features": {"a": NaN}}\n'],
    "infinity_token": [b'{"vehicle_id": "x", "features": {"a": 1.0, "b": -Infinity}}\n'],
    "boolean_value": [feature_line("x", features={"a": True}) + b"\n"],
    "string_value": [feature_line("x", features={"a": "1.5"}) + b"\n"],
    "repeated_id": [feature_line("r1") + b"\n"],
    "bad_context": [feature_line("x", context="highway") + b"\n"],
    "bad_unit_system": [feature_line("x", unit_system="furlongs") + b"\n"],
    "bad_label": [feature_line("x", label="bike") + b"\n"],
    "null_label": [feature_line("x", label=None) + b"\n"],
    "list_context": [feature_line("x", context=["any"]) + b"\n"],
    "array_line": [b"[1, 2]\n"],
    "string_line": [b'"row"\n'],
    # decoding the lines joined by commas would read these as two valid rows
    "value_split_across_lines": [b'{"vehicle_id": "x", "features": {}, "tags": [1\n',
                                 b'2]}, {"vehicle_id": "y", "features": {}}\n'],
    "object_split_across_lines": [b'{"vehicle_id": "x", "features": {"a": 1.0}\n',
                                  b'"label": "AV"}, {"vehicle_id": "y", "features": {}}\n'],
    "invalid_json": [b'{"vehicle_id": "x",\n'],
    "too_many_digits": [feature_line("x").replace(b"12.5", b"1" * 5000) + b"\n"],
}


VALID_LOADER_CASES = ("crlf", "lone_cr", "blank_lines", "null_label")


def loader_outcome(load, path):
    try:
        return load(path)
    except SchemaError as exc:
        return str(exc), exc.line


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("case", LOADER_CASES, ids=list(LOADER_CASES))
def test_load_feature_rows_matches_line_by_line_reference(tmp_path, case, where):
    lines = [feature_line(f"r{i}") + b"\n" for i in range(5)]
    at = {"first": 0, "middle": len(lines) // 2, "last": len(lines)}[where]
    lines[at:at] = LOADER_CASES[case]
    path = tmp_path / "f.jsonl"
    path.write_bytes(b"".join(lines))
    got = loader_outcome(load_feature_rows, path)
    assert got == loader_outcome(oracles.load_feature_rows, path)
    assert isinstance(got, list) == (case in VALID_LOADER_CASES)


def track_line(vehicle_id, **fields):
    doc = trajectory_to_dict(make_trajectory([0, 1, 2, 3, 4], [0] * 5, vehicle_id="?"))
    return json.dumps({**doc, "vehicle_id": vehicle_id, **fields}).encode()


def raw(line, char):
    """line with json's escape of char replaced by char's UTF-8 bytes."""
    return line.replace(json.dumps(char)[1:-1].encode(), char.encode())


LOADERS = {"tracks": (load_trajectories, track_line), "features": (load_feature_rows, feature_line)}


@pytest.mark.parametrize("kind", LOADERS)
def test_the_first_bad_line_is_named_whatever_its_fault(tmp_path, kind):
    load, line = LOADERS[kind]
    latin1 = line("b\xe9").replace(b"\\u00e9", b"\xe9")  # not UTF-8
    path = tmp_path / "x.jsonl"
    path.write_bytes(line("a") + b"\n{bad\n" + latin1 + b"\n")
    with pytest.raises(SchemaError, match=r"^line 2: invalid JSON: Expecting property name"):
        load(path)
    path.write_bytes(line([1, 2]) + b"\n" + line("a") + b"\n" + latin1 + b"\n")
    with pytest.raises(SchemaError, match=r"^line 1: vehicle_id must be a string"):
        load(path)
    path.write_bytes(line("a") + b"\n" + latin1 + b"\n{bad\n")
    with pytest.raises(SchemaError, match=r"^line 2: not valid UTF-8 \(invalid continuation byte"):
        load(path)


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x85", "\u2028"],
                         ids=["vt", "ff", "nel", "line_separator"])
@pytest.mark.parametrize("kind", LOADERS)
def test_only_newlines_and_carriage_returns_end_a_line(tmp_path, kind, char):
    load, line = LOADERS[kind]
    path = tmp_path / "x.jsonl"
    path.write_bytes(raw(line(f"a{char}b"), char) + b"\n" + line("c") + b"\n")
    if char < " ":  # a control character is invalid in a JSON string
        with pytest.raises(SchemaError, match=r"^line 1: invalid JSON: Invalid control character"):
            load(path)
        return
    got = load(path)
    ids = [t.vehicle_id if kind == "tracks" else t["vehicle_id"] for t in got]
    assert ids == [f"a{char}b", "c"]


@pytest.mark.parametrize("kind", LOADERS)
def test_a_byte_order_mark_is_named_with_its_line(tmp_path, kind):
    load, line = LOADERS[kind]
    path = tmp_path / "x.jsonl"
    path.write_bytes(line("a") + b"\r\n\r\n\xef\xbb\xbf" + line("b") + b"\n")
    with pytest.raises(SchemaError) as exc_info:
        load(path)
    assert str(exc_info.value) == ("line 3: invalid JSON: Unexpected UTF-8 BOM "
                                   "(decode using utf-8-sig)")


@pytest.mark.parametrize("bad", [feature_line("b", label="bike"), b'{"vehicle_id": "b",'],
                         ids=["bad_row", "bad_json"])
def test_a_failing_feature_file_is_opened_once(tmp_path, monkeypatch, bad):
    path = tmp_path / "f.jsonl"
    path.write_bytes(feature_line("a") + b"\n" + bad + b"\n")
    opened = []
    monkeypatch.setattr(io, "open", lambda file, *a, **k: opened.append(file) or open(file, *a, **k),
                        raising=False)
    with pytest.raises(SchemaError, match="^line 2: "):
        load_feature_rows(path)
    assert opened == [path]


def test_dump_json_canonical(tmp_path):
    path = tmp_path / "r.json"
    dump_json({"b": 1, "a": {"z": 2, "y": 3}}, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    again = tmp_path / "r2.json"
    dump_json({"a": {"y": 3, "z": 2}, "b": 1}, again)
    assert path.read_bytes() == again.read_bytes()


def test_dump_json_equals_json_dumps(tmp_path):
    doc = {
        "name": "Zürich → München",
        "emoji": "\U0001f697",
        "values": [0.1, 1e-300, -2.5, 3, 1e22, float("inf")],
        "missing": None,
        "empty_list": [],
        "empty_dict": {},
        "nested": {"b": [{"z": True, "a": False}], "a": [[1, [2, {"c": "d"}]]]},
        "rows": [{"id": f"v{i}", "score": i / 7} for i in range(5000)],
    }
    path = tmp_path / "r.json"
    dump_json(doc, path)
    assert path.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


# --- dump_json against json.dumps(indent=2, sort_keys=True) ---------------------

STRINGS = ("", "a", "Zürich → München", "\U0001f697", 'say "hi"', "back\\slash", "line\nbreak",
           "tab\tnul\x00unit\x1f", "\u2028", "[1,\n  2]")
SCALARS = (*STRINGS, 0, -7, 3, 10**30, -(10**40), 0.1, -2.5, 1e-300, 1e22, math.nan, math.inf,
           -math.inf, True, False, None, np.float64(0.1), np.float64(-1e300))
# keys of one dict must sort against each other, as sort_keys requires
KEY_FAMILIES = (STRINGS, (0, 1, -3, 10**20, 0.5, -0.25, math.nan, math.inf, -math.inf, True,
                          False), (None,))


def random_document(rng, depth, shared):
    """Nested dicts, lists and tuples; some objects recur at several depths."""
    roll = rng.random()
    if depth >= 5 or roll < 0.3:
        return SCALARS[rng.integers(len(SCALARS))]
    if roll < 0.4 and shared:
        return shared[rng.integers(len(shared))]
    n = int(rng.integers(0, 5))
    kind = rng.integers(3)
    if kind == 0:
        keys = KEY_FAMILIES[rng.integers(len(KEY_FAMILIES))]
        obj = {keys[rng.integers(len(keys))]: random_document(rng, depth + 1, shared)
               for _ in range(n)}
    else:
        items = [random_document(rng, depth + 1, shared) for _ in range(n)]
        obj = items if kind == 1 else tuple(items)
    if rng.random() < 0.3:
        shared.append(obj)
    return obj


def oracle_bytes(obj):
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def test_dump_json_equals_json_dumps_on_random_documents(tmp_path):
    rng = np.random.default_rng(909)
    path = tmp_path / "r.json"
    for trial in range(400):
        shared = []
        doc = random_document(rng, 0, shared)
        dump_json(doc, path)
        assert path.read_bytes() == oracle_bytes(doc), trial
    # one object at several depths, flat and nested, and non-string keys at each level
    flat = {1: "x", 2.5: math.nan, False: None}
    nested = {0: [flat], math.inf: (flat, [flat, {}]), -1: {"a": []}}
    doc = [flat, {"k": nested, "l": [[flat]], "m": {None: nested}}, nested, ()]
    dump_json(doc, path)
    assert path.read_bytes() == oracle_bytes(doc)


def test_dump_json_with_tiny_batches_equals_json_dumps(tmp_path, monkeypatch):
    # a write, and the memo reset with it, after nearly every piece
    monkeypatch.setattr(io, "_BATCH", 2)
    rng = np.random.default_rng(910)
    path = tmp_path / "r.json"
    for trial in range(200):
        doc = random_document(rng, 0, [])
        dump_json(doc, path)
        assert path.read_bytes() == oracle_bytes(doc), trial


@pytest.mark.parametrize("batch", [io._BATCH, 2], ids=["default_batch", "tiny_batch"])
def test_dump_json_shared_nested_list_at_two_depths(tmp_path, monkeypatch, batch):
    # a list of dicts kept by identity at depths 1 and 2, and twice in one list;
    # the keys 0.0 and -0.0 are equal but print differently
    monkeypatch.setattr(io, "_BATCH", batch)
    shared = [{"rule_id": "R1", "weight": 0.5}, {"rule_id": "R2", "weight": [1, 2]}]
    doc = {"a": shared, "b": [shared, shared, {"c": shared}], "d": [{0.0: shared}, {-0.0: 1}]}
    path = tmp_path / "r.json"
    dump_json(doc, path)
    assert path.read_bytes() == oracle_bytes(doc)


def test_dump_json_encodes_a_shared_nested_list_once(tmp_path, monkeypatch):
    # entries share one evidence list of dicts, as the classify report's do
    evidence = [{"rule_id": f"R{k}", "verdict": "matched", "weight": 0.9} for k in range(10)]
    doc = {"results": [{"vehicle_id": f"v{i}", "evidence": evidence} for i in range(100)]}
    calls = 0
    write_value = io._write_value

    def counting(*args):
        nonlocal calls
        calls += 1
        return write_value(*args)

    monkeypatch.setattr(io, "_write_value", counting)
    path = tmp_path / "r.json"
    dump_json(doc, path)
    assert path.read_bytes() == oracle_bytes(doc)
    # each entry: itself, its id and its evidence, plus the evidence's dicts once
    assert calls == 2 + 3 * 100 + 10


def test_dump_json_memory_stays_below_file_size(tmp_path):
    # a long list of unique flat items is written as it goes, not held whole
    doc = {"results": [{"vehicle_id": f"v{i}", "decision": "AV", "score": i / 7}
                       for i in range(20_000)]}
    path = tmp_path / "r.json"
    tracemalloc.start()
    try:
        dump_json(doc, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == oracle_bytes(doc)
    assert peak < path.stat().st_size


def nest(value, depth):
    """value inside depth levels of alternating dicts and lists."""
    for level in range(depth):
        value = [1, value] if level % 2 else {"a": 1, "b": value, "c": [2]}
    return value


UNSERIALIZABLE = {
    **{f"{name}_depth{depth}": nest(bad, depth)
       for name, bad in (("set", {1, 2}), ("int64", np.int64(3)), ("bool_", np.bool_(True)))
       for depth in range(4)},
    "tuple_key": {(1, 2): 3},
    "nested_tuple_key": {"a": {(1, 2): [3]}},
    "mixed_keys": {"a": [{"b": 1, 2: [3]}]},
}


@pytest.mark.parametrize("doc", UNSERIALIZABLE.values(), ids=UNSERIALIZABLE.keys())
def test_dump_json_raises_type_error_like_json_dumps(tmp_path, doc):
    with pytest.raises(TypeError) as expected:
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        dump_json(doc, tmp_path / "r.json")
    assert str(got.value) == str(expected.value)
