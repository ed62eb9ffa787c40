"""Span recording for the traced run, and the per-layer metrics it yields.

The recorder lives in memory. It is installed by replacing module-level names
of trajrules with wrappers, so nothing under src/ changes:

- a span records one call: name, start, end, parent, and the trace id that
  every span of one subcommand shares;
- a function called thousands of times per subcommand (rule evaluation,
  sample digests, identification) is recorded as an aggregate instead: one
  node per (parent, name) that holds the call count and the total time.
  Anything called inside an aggregate is aggregated as well.

Both kinds of node form one tree. A node's self time is its duration minus
the time its children cover.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Sequence


@dataclass
class Node:
    id: int
    name: str
    parent: int | None
    trace: str
    kind: str = "span"  # "span" | "aggregate"
    calls: int = 0
    total_s: float = 0.0
    start: float | None = None  # spans only
    end: float | None = None
    attrs: dict[str, float] = field(default_factory=dict)

    @property
    def is_span(self) -> bool:
        return self.kind == "span"


Measure = Callable[[tuple, dict, Any], dict[str, float]]


class Recorder:
    """Records the call tree of one subcommand."""

    def __init__(self, trace: str):
        self.trace = trace
        self.nodes: list[Node] = []
        self._stack: list[Node] = []
        self._aggregates: dict[tuple[int | None, str], Node] = {}

    def _node(self, name: str, hot: bool) -> Node:
        parent = self._stack[-1] if self._stack else None
        parent_id = parent.id if parent else None
        if hot or (parent is not None and not parent.is_span):
            key = (parent_id, name)
            node = self._aggregates.get(key)
            if node is None:
                node = Node(len(self.nodes), name, parent_id, self.trace, "aggregate")
                self._aggregates[key] = node
                self.nodes.append(node)
            return node
        node = Node(len(self.nodes), name, parent_id, self.trace)
        self.nodes.append(node)
        return node

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, *,
             hot: bool = False, measure: Measure | None = None) -> Any:
        node = self._node(name, hot)
        self._stack.append(node)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            key = f"raised.{type(exc).__name__}"
            node.attrs[key] = node.attrs.get(key, 0) + 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            node.calls += 1
            node.total_s += end - start
            if node.is_span:
                node.start, node.end = start, end
        if measure is not None:
            for key, value in measure(args, kwargs, result).items():
                node.attrs[key] = node.attrs.get(key, 0) + value
        return result

    def to_json(self) -> dict:
        return {"trace": self.trace, "nodes": [asdict(n) for n in self.nodes]}


def nodes_from_json(doc: dict) -> list[Node]:
    return [Node(**n) for n in doc["nodes"]]


def self_times(nodes: Sequence[Node]) -> dict[int, float]:
    """Each node's duration minus the time its children cover.

    Calls in one thread never overlap, and the recorder's stack ends every
    child before its parent, so the children's durations add.
    """
    children: dict[int, list[Node]] = defaultdict(list)
    for n in nodes:
        if n.parent is not None:
            children[n.parent].append(n)
    return {n.id: n.total_s - sum(k.total_s for k in children[n.id]) for n in nodes}


# --- installing the recorder -------------------------------------------------

def _file_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _not_applicable(args, kwargs, result):
    return {"not_applicable": int(result == "not_applicable")}


def _prompt_chars(args, kwargs, result):
    return {"chars": sum(len(m.content) for m in result)}


# (module, attribute, span name, hot, measure). The cli module imported most
# layer functions by name, so those are replaced in the cli namespace; calls
# the layers make to each other are replaced in the caller's namespace.
TARGETS: list[tuple[str, str, str, bool, Measure | None]] = [
    ("trajrules.io", "load_trajectories", "io.load_trajectories", False,
     lambda a, k, r: {"points": sum(len(t) for t in r)}),
    ("trajrules.io", "save_trajectories", "io.save_trajectories", False, _file_bytes),
    ("trajrules.io", "load_feature_rows", "io.load_feature_rows", False, None),
    ("trajrules.io", "save_feature_rows", "io.save_feature_rows", False, _file_bytes),
    ("trajrules.io", "dump_json", "io.dump_json", False, _file_bytes),
    ("trajrules.cli", "validate_trajectory", "trajectory.validate", True,
     lambda a, k, r: {"points_in": len(a[0]), "points_out": len(r)}),
    ("trajrules.cli", "smooth_trajectory", "trajectory.smooth", True,
     lambda a, k, r: {"points": len(r)}),
    ("trajrules.cli", "compute_kinematics", "kinematics.compute", True, None),
    ("trajrules.cli", "detect_lane_changes", "kinematics.lane_changes", True,
     lambda a, k, r: {"events": len(r)}),
    ("trajrules.cli", "summarize_features", "kinematics.summarize", True, None),
    ("trajrules.cli", "extended_atoms", "kinematics.summarize", True, None),
    ("trajrules.cli", "generate_dataset", "synth.generate_dataset", False, None),
    ("trajrules.synth", "generate_trajectory", "synth.generate_trajectory", True, None),
    ("trajrules.synth", "compute_kinematics", "synth.compute_kinematics", True, None),
    ("trajrules.cli", "load_library", "rules.load_library", False, None),
    ("trajrules.classification", "evaluate_rule", "rules.evaluate_rule", True, _not_applicable),
    ("trajrules.verification", "evaluate_rule", "rules.evaluate_rule", True, _not_applicable),
    ("trajrules.cli", "digest_sample", "prompts.digest", True, None),
    ("trajrules.verification", "digest_sample", "prompts.digest", True, None),
    ("trajrules.verification", "build_discovery_prompt", "prompts.discovery", False, _prompt_chars),
    ("trajrules.verification", "build_reflection_prompt", "prompts.reflection", False, _prompt_chars),
    ("trajrules.llm", "MockBackend.complete", "llm.complete", False, None),
    ("trajrules.verification", "parse_rule_response", "llm.parse", False,
     lambda a, k, r: {"rejected": len(r[1])}),
    ("trajrules.verification", "parse_refinement_response", "llm.parse", False, None),
    ("trajrules.cli", "discover_rules", "verification.discover", False, None),
    ("trajrules.cli", "run_verification_loop", "verification.loop", False,
     lambda a, k, r: {"iterations": r.iterations}),
    ("trajrules.verification", "compute_confidence", "verification.compute_confidence", False, None),
    ("trajrules.verification", "collect_failures", "verification.collect_failures", False, None),
    ("trajrules.verification", "apply_suggestion", "verification.apply_suggestion", False, None),
    ("trajrules.cli", "identify_vehicle", "classification.identify", True, None),
    ("trajrules.cli", "predict_speed_change", "classification.predict", True, None),
    ("trajrules.cli", "predict_lane_change", "classification.predict", True, None),
    ("trajrules.cli", "compute_metrics", "metrics.compute", False, None),
    ("trajrules.cli", "compute_roc_auc", "metrics.roc_auc", False, None),
]


def install(recorder: Recorder) -> None:
    """Replace every target in TARGETS with a wrapper that records into recorder."""
    for module_name, attribute, name, hot, measure in TARGETS:
        owner: Any = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        setattr(owner, leaf, _wrapper(recorder, original, name, hot, measure))


def _wrapper(recorder: Recorder, fn: Callable, name: str, hot: bool,
             measure: Measure | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, hot=hot, measure=measure)
    return wrapper


# --- per-layer metrics ---------------------------------------------------------

LAYER_UNITS: dict[str, str] = {
    "io.load_trajectories_s": "s",
    "io.points_parsed": "count",
    "io.save_trajectories_s": "s",
    "io.bytes_written": "B",
    "io.load_feature_rows_s": "s",
    "io.save_feature_rows_s": "s",
    "io.dump_json_s": "s",
    "trajectory.validate_s": "s",
    "trajectory.points_in": "count",
    "trajectory.points_out": "count",
    "trajectory.smooth_s": "s",
    "trajectory.smooth_points": "count",
    "kinematics.compute_s": "s",
    "kinematics.lane_changes_s": "s",
    "kinematics.lane_change_events": "count",
    "kinematics.summarize_s": "s",
    "synth.generate_trajectory_s": "s",
    "synth.kinematics_calls_per_vehicle": "ratio",
    "rules.load_library_s": "s",
    "rules.evaluate_rule_calls": "count",
    "rules.evaluate_rule_us": "us",
    "rules.not_applicable_share": "ratio",
    "prompts.digest_s": "s",
    "prompts.discovery_chars": "chars",
    "prompts.reflection_chars": "chars",
    "llm.complete_calls": "count",
    "llm.complete_s": "s",
    "llm.parse_s": "s",
    "llm.blocks_rejected": "count",
    "verification.loop_s": "s",
    "verification.iterations": "count",
    "verification.compute_confidence_s": "s",
    "verification.collect_failures_s": "s",
    "verification.suggestions_applied_share": "ratio",
    "classification.identify_us": "us",
    "classification.undetermined": "count",
    "classification.predict_us": "us",
    "metrics.compute_s": "s",
    "metrics.roc_auc_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(traces: Sequence[Sequence[Node]]) -> dict[str, float]:
    """Per-layer metrics of one pipeline iteration, one trace per subcommand.

    cli.import_s and trace.overhead_s are measured outside the trace and are
    not part of the result.
    """
    time_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attr: dict[str, float] = defaultdict(float)
    cli_self = 0.0
    for nodes in traces:
        own = self_times(nodes)
        for n in nodes:
            time_s[n.name] += n.total_s
            calls[n.name] += n.calls
            for key, value in n.attrs.items():
                attr[f"{n.name}.{key}"] += value
            if n.parent is None:
                cli_self += own[n.id]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "io.load_trajectories_s": time_s["io.load_trajectories"],
        "io.points_parsed": attr["io.load_trajectories.points"],
        "io.save_trajectories_s": time_s["io.save_trajectories"],
        "io.bytes_written": (attr["io.save_trajectories.bytes"]
                             + attr["io.save_feature_rows.bytes"]
                             + attr["io.dump_json.bytes"]),
        "io.load_feature_rows_s": time_s["io.load_feature_rows"],
        "io.save_feature_rows_s": time_s["io.save_feature_rows"],
        "io.dump_json_s": time_s["io.dump_json"],
        "trajectory.validate_s": time_s["trajectory.validate"],
        "trajectory.points_in": attr["trajectory.validate.points_in"],
        "trajectory.points_out": attr["trajectory.validate.points_out"],
        "trajectory.smooth_s": time_s["trajectory.smooth"],
        "trajectory.smooth_points": attr["trajectory.smooth.points"],
        "kinematics.compute_s": time_s["kinematics.compute"],
        "kinematics.lane_changes_s": time_s["kinematics.lane_changes"],
        "kinematics.lane_change_events": attr["kinematics.lane_changes.events"],
        "kinematics.summarize_s": time_s["kinematics.summarize"],
        "synth.generate_trajectory_s": time_s["synth.generate_trajectory"],
        "synth.kinematics_calls_per_vehicle": ratio(
            calls["synth.compute_kinematics"], calls["synth.generate_trajectory"]),
        "rules.load_library_s": time_s["rules.load_library"],
        "rules.evaluate_rule_calls": calls["rules.evaluate_rule"],
        "rules.evaluate_rule_us": 1e6 * ratio(
            time_s["rules.evaluate_rule"], calls["rules.evaluate_rule"]),
        "rules.not_applicable_share": ratio(
            attr["rules.evaluate_rule.not_applicable"], calls["rules.evaluate_rule"]),
        "prompts.digest_s": time_s["prompts.digest"],
        "prompts.discovery_chars": attr["prompts.discovery.chars"],
        "prompts.reflection_chars": attr["prompts.reflection.chars"],
        "llm.complete_calls": calls["llm.complete"],
        "llm.complete_s": time_s["llm.complete"],
        "llm.parse_s": time_s["llm.parse"],
        "llm.blocks_rejected": attr["llm.parse.rejected"],
        "verification.loop_s": time_s["verification.loop"],
        "verification.iterations": attr["verification.loop.iterations"],
        "verification.compute_confidence_s": time_s["verification.compute_confidence"],
        "verification.collect_failures_s": time_s["verification.collect_failures"],
        "verification.suggestions_applied_share": ratio(
            calls["verification.apply_suggestion"], calls["prompts.reflection"]),
        "classification.identify_us": 1e6 * ratio(
            time_s["classification.identify"], calls["classification.identify"]),
        "classification.undetermined": attr["classification.identify.raised.NoApplicableRulesError"],
        "classification.predict_us": 1e6 * ratio(
            time_s["classification.predict"], calls["classification.predict"]),
        "metrics.compute_s": time_s["metrics.compute"],
        "metrics.roc_auc_s": time_s["metrics.roc_auc"],
        "cli.self_s": cli_self,
    }
