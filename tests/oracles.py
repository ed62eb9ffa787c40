"""Independent oracles of the package's numeric layers.

Validation, Kalman smoothing, kinematics, lane-change detection and the
matching score are written out as plain loops over points and clauses,
sharing no code with the numpy versions they check.

The scalar rule evaluator is kept as the independent oracle of FeatureTable.

These are the recursive predicate walk, the one-vehicle rule evaluation
that rules.FeatureTable replaced with column masks, and the label a verdict
votes for. They share no code with
the table: the scope test, the missing/NaN test and the unit check are
written out here again, so a test that compares the two is not comparing
the table with itself. The reference_* loops over rules and vehicles built
on it (the matching score, compute_confidence, collect_failures, the
direction votes, and the classify and predict outputs) are the loop bodies
those became reductions over FeatureTable verdicts.

The full-digest discovery prompt and the line-by-line feature-row loader
are kept the same way: prompts and io replaced them with code that reads
only the digests a prompt keeps and checks a feature file as a whole.
io.dump_json's oracle is the standard library encoder.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from trajrules import cli, dsl
from trajrules.classification import TASK_DIRECTIONS, _blend, _pick, lane_prior, speed_prior
from trajrules.errors import (
    DuplicateFrameError,
    EmptySampleSetError,
    ImplausibleTrackError,
    NoApplicableRulesError,
    NonFiniteError,
    SchemaError,
    TooShortError,
    UnitMismatchError,
)
from trajrules.io import _read_jsonl, load_trajectories
from trajrules.llm import KIND_MARKERS, ChatMessage
from trajrules.metrics import UNDETERMINED
from trajrules.prompts import (
    _ANALYSIS_DIMENSIONS,
    _DSL_HELP,
    _RULE_FORMAT,
    DISCOVERY_ROLE,
    PROMPT_CHAR_BUDGET,
    digest_sample,
)
from trajrules.rules import CONTEXTS, MATCHED, NOT_APPLICABLE, NOT_MATCHED, Rule
from trajrules.trajectory import (
    LABELS,
    MAX_GAP_FRAMES,
    MIN_POINTS,
    UNIT_SYSTEMS,
    smooth_trajectories,
    validate_trajectory,
)
from trajrules.verification import RuleStats


def reference_validate(traj):
    """Point-by-point sort, checks, gap fill and split: the oracle for validate_trajectory.

    Returns the kept segment as (t, x, y) arrays, or raises what
    validate_trajectory raises (the unit system and label checks aside).
    The frame rate must lie in 0.1-1000 fps and unit_scale in 1e-6-1e6. Each
    step between observed points of the kept segment, scaled, per second and
    spread over its gap, must be at most 100 for a metric track and 2,500 for
    a pixel track (NaN and infinity fail).
    """
    vid = traj.vehicle_id
    for name, low, high in (("frame_rate", 0.1, 1000.0), ("unit_scale", 1e-6, 1e6)):
        value = getattr(traj, name)
        if not low <= value <= high:
            raise ImplausibleTrackError(f"{vid}: {name} {value} is outside {low:g}-{high:g}")
    pts = sorted(zip(traj.t.tolist(), traj.x.tolist(), traj.y.tolist()), key=lambda p: p[0])
    for t, x, y in pts:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NonFiniteError(f"{vid}: non-finite position at frame {t}")
        if t < 0:
            raise SchemaError(f"{vid}: negative frame index {t}")
    for a, b in zip(pts, pts[1:]):
        if a[0] == b[0]:
            raise DuplicateFrameError(f"{vid}: duplicate frame {a[0]}")

    segments = [[pts[0]]] if pts else [[]]
    for prev, cur in zip(pts, pts[1:]):
        missing = cur[0] - prev[0] - 1
        if missing == 0:
            segments[-1].append(cur)
        elif missing <= MAX_GAP_FRAMES:
            for k in range(1, missing + 1):
                frac = k / (missing + 1)
                segments[-1].append((
                    prev[0] + k,
                    prev[1] + frac * (cur[1] - prev[1]),
                    prev[2] + frac * (cur[2] - prev[2]),
                ))
            segments[-1].append(cur)
        else:
            segments.append([cur])

    best = max(segments, key=len)
    if len(best) < MIN_POINTS:
        raise TooShortError(f"{vid}: {len(best)} points after repair, need {MIN_POINTS}")
    limit = {"metric": 100.0, "pixel": 2500.0}[traj.unit_system]
    scale, rate = traj.unit_scale, traj.frame_rate
    seen = [p for p in pts if best[0][0] <= p[0] <= best[-1][0]]
    for a, b in zip(seen, seen[1:]):
        speed = math.hypot(b[1] * scale - a[1] * scale, b[2] * scale - a[2] * scale)
        speed *= rate / (b[0] - a[0])  # Python floats overflow to inf without a warning
        if not speed <= limit:
            raise ImplausibleTrackError(
                f"{vid}: moves {speed:g} scaled units/s into frame {b[0]}, over {limit:g}")
    t, x, y = zip(*best)
    return np.array(t, dtype=np.int64), np.array(x), np.array(y)


def reference_filter_axis(z: np.ndarray, dt: float, q: float, r: float) -> np.ndarray:
    """Constant-velocity Kalman filter along one axis; returns position estimates.

    State is [position, velocity], initialized by two-point differencing so
    exactly linear input passes through unchanged. q scales the white-noise
    acceleration spectral density; r is the measurement variance.
    """
    n = len(z)
    out = np.empty(n, dtype=np.float64)
    out[0] = x = float(z[0])
    v = (float(z[1]) - float(z[0])) / dt
    # two-point differencing initial covariance
    p00 = r
    p01 = r / dt
    p11 = 2.0 * r / (dt * dt)
    q00 = q * dt ** 4 / 4.0
    q01 = q * dt ** 3 / 2.0
    q11 = q * dt * dt
    for k in range(1, n):
        # predict
        x = x + v * dt
        p00 = p00 + dt * (2.0 * p01 + dt * p11) + q00
        p01 = p01 + dt * p11 + q01
        p11 = p11 + q11
        # update
        s = p00 + r
        kx = p00 / s
        kv = p01 / s
        innov = float(z[k]) - x
        x += kx * innov
        v += kv * innov
        p11 = p11 - kv * p01
        p01 = (1.0 - kx) * p01
        p00 = (1.0 - kx) * p00
        out[k] = x
    return out


def naive_kinematics(traj):
    """Plain-loop central differences, scaled coordinates first."""
    xs = [x * traj.unit_scale for x in traj.x.tolist()]
    ys = [y * traj.unit_scale for y in traj.y.tolist()]
    dt2 = 2.0 / traj.frame_rate
    v = [
        math.sqrt((xs[i + 1] - xs[i - 1]) ** 2 + (ys[i + 1] - ys[i - 1]) ** 2) / dt2
        for i in range(1, len(xs) - 1)
    ]
    a = [(v[i + 1] - v[i - 1]) / dt2 for i in range(1, len(v) - 1)]
    j = [(a[i + 1] - a[i - 1]) / dt2 for i in range(1, len(a) - 1)]
    return v, a, j


def naive_lane_changes(traj, window, threshold):
    """Lane-change events as (start_frame, end_frame, displacement, direction).

    Each window start sums |dy| over its next *window* steps; it fires when
    that sum exceeds threshold and the net lateral move exceeds threshold/2.
    Firing windows that share a step merge, and each merged run is reported
    by its window with the largest sum, the earliest on ties.
    """
    ys = [y * traj.unit_scale for y in traj.y.tolist()]
    frames = traj.t.tolist()
    fired = []  # (start, sum, net) of each firing window
    for start in range(len(ys) - window):
        total = 0.0
        for i in range(start, start + window):
            total += abs(ys[i + 1] - ys[i])
        net = ys[start + window] - ys[start]
        if total > threshold and abs(net) > threshold / 2.0:
            fired.append((start, total, net))
    runs = []
    for window_fired in fired:
        if runs and window_fired[0] - runs[-1][-1][0] <= window - 1:
            runs[-1].append(window_fired)
        else:
            runs.append([window_fired])
    events = []
    for run in runs:
        best = run[0]
        for candidate in run[1:]:
            if candidate[1] > best[1]:
                best = candidate
        start, total, net = best
        events.append((frames[start], frames[start + window - 1], total,
                       "left" if net < 0 else "right"))
    return events


def clause_eval(c, feats):
    """A clause built by helpers.random_clause on a feature mapping; None when
    its atom is missing or NaN."""
    value = feats.get(c[1])
    if value is None or value != value:
        return None
    if c[0] == "in":
        return c[2] <= value <= c[3]
    _, _, op, val, neg = c
    hit = {"<": value < val, "<=": value <= val, ">": value > val,
           ">=": value >= val, "=": value == val}[op]
    return (not hit) if neg else hit


def oracle_score(specs, feats, context):
    """The matching score recounted from rule specs
    (clauses, joiner, contexts, state, polarity, confidence); None when no
    verified AV-indicative rule applies with positive weight."""
    matched_w = applicable_w = 0.0
    n_applicable = 0
    for clauses, joiner, contexts, state, polarity, conf in specs:
        if state != "verified" or polarity != "AV_indicative":
            continue
        if context != "any" and "any" not in contexts and context not in contexts:
            continue
        values = [clause_eval(c, feats) for c in clauses]
        if any(v is None for v in values):
            continue
        hit = all(values) if joiner == "AND" else any(values)
        n_applicable += 1
        weight = conf or 0.0
        applicable_w += weight
        if hit:
            matched_w += weight
    if n_applicable == 0 or applicable_w <= 0.0:
        return None
    return matched_w / applicable_w


def evaluate_predicate(pred: dsl.Predicate, features: Mapping[str, float]) -> bool:
    """Evaluate a predicate over a feature mapping containing every required atom."""
    if isinstance(pred, dsl.Comparison):
        x = features[pred.atom]
        if pred.op == "<":
            return x < pred.value
        if pred.op == "<=":
            return x <= pred.value
        if pred.op == ">":
            return x > pred.value
        if pred.op == ">=":
            return x >= pred.value
        return x == pred.value
    if isinstance(pred, dsl.RangeTest):
        x = features[pred.atom]
        return pred.lo <= x <= pred.hi
    if isinstance(pred, dsl.Not):
        return not evaluate_predicate(pred.child, features)
    if isinstance(pred, dsl.And):
        return all(evaluate_predicate(c, features) for c in pred.children)
    if isinstance(pred, dsl.Or):
        return any(evaluate_predicate(c, features) for c in pred.children)
    raise TypeError(f"not a predicate node: {pred!r}")


def evaluate_rule(
    rule: Rule,
    features: Mapping[str, float],
    context: str,
    *,
    feature_units: str | None = None,
    library_units: str | None = None,
) -> str:
    """Evaluate one rule against one vehicle.

    Returns MATCHED, NOT_MATCHED, or NOT_APPLICABLE. The rule is not
    applicable when the context is outside its scope or any atom its
    predicate reads is absent from the features. Raises UnitMismatchError
    when both unit systems are known and differ.
    """
    if feature_units is not None and library_units is not None and feature_units != library_units:
        raise UnitMismatchError(
            f"features are in {feature_units!r} units, library expects {library_units!r}"
        )
    allowed = rule.contexts
    if context != "any" and "any" not in allowed and context not in allowed:
        return NOT_APPLICABLE
    needed = dsl.required_atoms(rule.predicate)
    for atom in needed:
        value = features.get(atom)
        if value is None or value != value:  # missing or NaN
            return NOT_APPLICABLE
    return MATCHED if evaluate_predicate(rule.predicate, features) else NOT_MATCHED


def implied_label(rule: Rule, verdict: str) -> str | None:
    """Label a rule's verdict votes for, or None when not applicable."""
    if verdict == NOT_APPLICABLE:
        return None
    hit = verdict == MATCHED
    if rule.polarity == "AV_indicative":
        return "AV" if hit else "HDV"
    return "HDV" if hit else "AV"


def naive_confidence(rule, rows, strict):
    n_applicable = n_correct = 0
    for row in rows:
        verdict = evaluate_rule(rule, row["features"], row["context"],
                                feature_units=row.get("unit_system"))
        if verdict == NOT_APPLICABLE:
            continue
        av_side = rule.polarity == "AV_indicative"
        if verdict == MATCHED:
            judged = "AV" if av_side else "HDV"
        else:
            judged = "HDV" if av_side else "AV"
        n_applicable += 1
        n_correct += int(judged == row["label"])
    denom = len(rows) if strict else n_applicable
    return n_correct / denom if denom else 0.0


def reference_matching_score(library, features, context="any", *, feature_units=None):
    evidence = []
    matched_weight = 0.0
    applicable_weight = 0.0
    n_applicable = 0
    for rule in library.rules:
        if (rule.state != "verified" or rule.polarity != "AV_indicative"
                or "identification" not in rule.tasks):
            continue
        verdict = evaluate_rule(
            rule, features, context,
            feature_units=feature_units, library_units=library.units,
        )
        weight = rule.confidence or 0.0
        evidence.append((rule.id, rule.description, verdict, weight))
        if verdict == NOT_APPLICABLE:
            continue
        n_applicable += 1
        applicable_weight += weight
        if verdict == MATCHED:
            matched_weight += weight
    if n_applicable == 0:
        raise NoApplicableRulesError("no verified AV-indicative rule applies to this vehicle")
    if applicable_weight <= 0.0:
        raise NoApplicableRulesError("applicable rules carry zero total confidence weight")
    return matched_weight / applicable_weight, evidence


def reference_compute_confidence(rule, rows, *, library_units=None, strict_denominator=False):
    n_applicable = 0
    n_correct = 0
    for row in rows:
        verdict = evaluate_rule(
            rule, row["features"], row["context"],
            feature_units=row["unit_system"], library_units=library_units,
        )
        judged = implied_label(rule, verdict)
        if judged is None:
            continue
        n_applicable += 1
        if judged == row["label"]:
            n_correct += 1
    denom = len(rows) if strict_denominator else n_applicable
    confidence = n_correct / denom if denom else 0.0
    return RuleStats(rule.id, n_applicable, n_correct, confidence)


def reference_collect_failures(rule, rows, *, library_units=None, limit=20):
    failures = []
    for row in rows:
        verdict = evaluate_rule(
            rule, row["features"], row["context"],
            feature_units=row["unit_system"], library_units=library_units,
        )
        judged = implied_label(rule, verdict)
        if judged is not None and judged != row["label"]:
            digest = digest_sample(row["vehicle_id"], row["features"], label=row["label"])
            failures.append({**digest, "rule_verdict": verdict, "rule_judged": judged})
            if len(failures) >= limit:
                break
    return failures


def reference_direction_votes(library, features, context, task, directions, feature_units):
    votes = dict.fromkeys(directions, 0.0)
    for rule in library.rules:
        if (rule.state != "verified" or rule.direction not in votes
                or task not in rule.tasks):
            continue
        verdict = evaluate_rule(
            rule, features, context,
            feature_units=feature_units, library_units=library.units,
        )
        if verdict == MATCHED:
            votes[rule.direction] += rule.confidence or 0.0
    return votes


def reference_predict(library, args, task):
    """cmd_predict's output built one vehicle at a time from the oracle votes."""
    cfg = cli._cfg(cli.build_parser().parse_args(args))
    directions = TASK_DIRECTIONS[task]
    neutral = "maintain" if task == "speed" else "keep_lane"
    predictions, contexts, all_votes = [], set(), set()
    tracks = [validate_trajectory(t) for t in load_trajectories(args[args.index("--input") + 1])]
    if not cfg.no_smoothing:
        tracks = smooth_trajectories(tracks, cfg.process_noise, cfg.measurement_noise)
    for t in tracks:
        kin, feats = cli._extract(t, cfg)
        context = cli._context_for(feats, cfg)
        votes = reference_direction_votes(library, feats, context, task, directions,
                                          t.unit_system)
        prior = speed_prior(kin) if task == "speed" else lane_prior(t)
        scores = _blend(votes, prior, directions)
        predictions.append({"vehicle_id": t.vehicle_id,
                            "direction": _pick(scores, directions, neutral),
                            "scores": scores})
        contexts.add(context)
        all_votes.add(tuple(votes.values()))
    return {"task": task, "predictions": predictions}, contexts, all_votes


def reference_report(library, rows, delta):
    """cmd_classify's report built one vehicle at a time from the oracle scores,
    each determined vehicle with an evidence list of its own."""
    results = []
    for row in rows:
        entry = {"vehicle_id": row["vehicle_id"]}
        try:
            score, evidence = reference_matching_score(
                library, row["features"], row.get("context", "any"),
                feature_units=row.get("unit_system"))
        except NoApplicableRulesError as exc:
            entry.update(decision=UNDETERMINED, reason=str(exc))
        else:
            if score >= delta:
                decision, confidence = "AV", (score - delta) / (1.0 - delta)
            else:
                decision, confidence = "HDV", (delta - score) / delta
            entry.update(decision=decision, score=score, confidence=confidence, evidence=[
                {"rule_id": rule_id, "verdict": verdict, "weight": weight}
                for rule_id, _, verdict, weight in evidence])
        if "label" in row:
            entry["label"] = row["label"]
        results.append(entry)
    return {"delta": delta, "library_version": library.version, "theta": library.theta,
            "results": results}


def _digest_lines(digests: Sequence[dict]) -> list[str]:
    return [json.dumps(d, sort_keys=True, separators=(",", ":")) for d in digests]


def _fit_to_budget(
    fixed_len: int,
    av_lines: list[str],
    hdv_lines: list[str],
    budget: int,
) -> tuple[list[str], list[str], int, int]:
    """Drop digest lines oldest-first until the assembled prompt fits."""
    a, h = 0, 0  # number of leading lines dropped per group
    total = fixed_len + sum(len(s) + 1 for s in av_lines) + sum(len(s) + 1 for s in hdv_lines)
    while total > budget and (a < len(av_lines) or h < len(hdv_lines)):
        # drop from whichever side still has more digests, HDV on ties
        if len(av_lines) - a > len(hdv_lines) - h:
            total -= len(av_lines[a]) + 1
            a += 1
        else:
            total -= len(hdv_lines[h]) + 1
            h += 1
    return av_lines[a:], hdv_lines[h:], a, h


def build_discovery_prompt(
    av_samples: Sequence[dict],
    hdv_samples: Sequence[dict],
    budget: int = PROMPT_CHAR_BUDGET,
) -> list[ChatMessage]:
    """The discovery prompt built from every digest, then cut to the budget."""
    if not av_samples or not hdv_samples:
        raise EmptySampleSetError("discovery needs samples from both groups")
    av_lines = _digest_lines(av_samples)
    hdv_lines = _digest_lines(hdv_samples)

    def assemble(av: list[str], hdv: list[str], note: str) -> list[ChatMessage]:
        user = "\n".join([
            "## Trajectory Data",
            note,
            "### Automated vehicles (one JSON digest per line)",
            *av,
            "",
            "### Human-driven vehicles (one JSON digest per line)",
            *hdv,
            "",
            KIND_MARKERS["discovery"],
            _ANALYSIS_DIMENSIONS,
            "",
            "## Output Requirements",
            "State every behavioral difference you find as a standalone rule.",
            _DSL_HELP,
            _RULE_FORMAT,
        ])
        return [ChatMessage("system", DISCOVERY_ROLE), ChatMessage("user", user)]

    full = assemble(av_lines, hdv_lines, "")
    overhead = sum(len(m.content) for m in full) - sum(len(s) + 1 for s in av_lines + hdv_lines)
    kept_av, kept_hdv, dropped_av, dropped_hdv = _fit_to_budget(
        overhead + 120, av_lines, hdv_lines, budget
    )
    if dropped_av or dropped_hdv:
        note = (f"[{dropped_av} AV and {dropped_hdv} HDV digests omitted "
                "to fit the prompt budget; oldest dropped first]")
        return assemble(kept_av, kept_hdv, note)
    return full


def load_feature_rows(path: str | Path) -> list[dict]:
    """Read a JSONL feature file, checking each line before the next."""
    rows = []
    first_line: dict[str, int] = {}
    for lineno, doc in _read_jsonl(path):
        if not isinstance(doc, dict):
            raise SchemaError("feature record must be a JSON object", lineno)
        if "vehicle_id" not in doc:
            raise SchemaError("feature record missing 'vehicle_id'", lineno)
        if not isinstance(doc["vehicle_id"], str):
            raise SchemaError(f"vehicle_id must be a string, got {doc['vehicle_id']!r}", lineno)
        first = first_line.setdefault(doc["vehicle_id"], lineno)
        if first != lineno:
            raise SchemaError(f"vehicle_id {doc['vehicle_id']!r} repeats the one on line {first}",
                              lineno)
        features = doc.get("features")
        if not isinstance(features, dict):
            raise SchemaError("feature record missing 'features' mapping", lineno)
        for key, value in features.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SchemaError(f"feature {key!r} must be numeric, got {value!r}", lineno)
            try:
                finite = -math.inf < float(value) < math.inf  # NaN fails both comparisons
            except OverflowError:  # an integer beyond float range
                finite = False
            if not finite:
                raise SchemaError(f"feature {key!r} must be finite, got {value!r}", lineno)
        if doc.get("context", "any") not in CONTEXTS:
            raise SchemaError(f"context must be one of {CONTEXTS}, got {doc['context']!r}", lineno)
        if "unit_system" in doc and doc["unit_system"] not in UNIT_SYSTEMS:
            raise SchemaError(
                f"unit_system must be one of {UNIT_SYSTEMS}, got {doc['unit_system']!r}",
                lineno,
            )
        label = doc.get("label")
        if label is not None and label not in LABELS:
            raise SchemaError(f"label must be one of {LABELS}, got {label!r}", lineno)
        rows.append(doc)
    return rows


def oracle_bytes(obj):
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")
