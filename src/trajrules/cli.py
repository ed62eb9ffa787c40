"""Command-line pipeline: synthesize, extract, discover, verify, classify, evaluate.

Every subcommand reads and writes plain files, so a full run is a sequence
of shell steps. Exit codes: 0 success, 2 bad input or configuration,
1 any other pipeline failure.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from functools import partial

from . import io, workers
from .classification import (
    TASK_DIRECTIONS,
    identify_vehicle,
    infer_context,
    lane_prior,
    predict_lane_change,
    predict_speed_change,
    score_table,
    speed_prior,
    vote_table,
)
from .config import CONTEXT_CHOICES, RunConfig, build, load_config, merge_overrides, setting_type
from .errors import DegenerateLabelsError, InputError, NoApplicableRulesError, TrajRulesError
from .io import load_library, save_library  # bare name: perfbench/spans.py patches load_library
from .kinematics import (
    compute_kinematics,
    detect_lane_changes,
    extended_atoms,
    summarize_features,
)
from .llm import BackendConfig, HttpBackend, MockBackend
from .metrics import UNDETERMINED, compute_metrics, compute_roc_auc
from .prompts import digest_sample
from .rules import STATES, VERDICTS, FeatureTable, RuleLibrary, seed_library
from .synth import GeneratorConfig, generate_dataset
from .trajectory import LABELS, Trajectory, smooth_trajectories, validate_trajectory
from .trajectory import smooth_trajectory  # not called here; perfbench/spans.py patches it
from .verification import discover_rules, run_verification_loop

log = logging.getLogger(__name__)


def _cfg(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    return merge_overrides(cfg, vars(args))


def _backend(cfg: RunConfig):
    settings = build(BackendConfig, cfg)  # with --mock-dir too, so a bad setting fails everywhere
    if not cfg.mock_dir:
        return HttpBackend(settings)
    if not os.path.isdir(cfg.mock_dir):
        raise InputError(f"mock_dir {cfg.mock_dir!r} is not a directory")
    return MockBackend(fixture_dir=cfg.mock_dir)


def _extract(t: Trajectory, cfg: RunConfig):
    """kinematics -> events -> feature mapping, for one prepared track. A track
    no longer than the lane-change window has no events and no lane atoms."""
    kin = compute_kinematics(t)
    short = len(t) <= cfg.lc_window
    events = [] if short else detect_lane_changes(t, window=cfg.lc_window,
                                                  threshold=cfg.lc_threshold)
    feats = summarize_features(t, kin, events)
    feats.update(extended_atoms(t, kin, events))
    if short:
        del feats["lane_change_count"], feats["lane_change_rate"]
    return kin, feats


def _prepare(path: str, cfg: RunConfig, task: str | None,
             span: tuple[int, int] | None = None) -> list[tuple]:
    """(row, prior) of each track in span of path, or in the whole file: load ->
    validate every track -> smooth them all in one batch -> extract. row is as
    save_feature_rows writes it; prior is predict's prior for task, or None."""
    trajectories = io.load_trajectories(path, span)
    for i, traj in enumerate(trajectories):
        trajectories[i] = validate_trajectory(traj)
    if not cfg.no_smoothing:
        trajectories = smooth_trajectories(trajectories, cfg.process_noise, cfg.measurement_noise)
    vehicles = []
    for t in trajectories:
        kin, feats = _extract(t, cfg)
        row = {"vehicle_id": t.vehicle_id, "unit_system": t.unit_system,
               "context": _context_for(feats, cfg), "features": feats}
        if t.label is not None:
            row["label"] = t.label
        prior = None if task is None else speed_prior(kin) if task == "speed" else lane_prior(t)
        vehicles.append((row, prior))
    return vehicles


def _prepared_tracks(path: str, cfg: RunConfig, task: str | None = None) -> list[tuple]:
    """_prepare over the whole file, its slices spread over the CPUs.

    The slices' results are used only if every slice succeeded and no vehicle
    id repeats across them. Otherwise one pass over the whole file raises the
    first error, as one process reading every line before validating would.
    One slice is that pass, so its error is raised as it is.
    """
    prepare = partial(_prepare, path, cfg, task)
    spans = io.jsonl_spans(path, workers.chunk_count(os.path.getsize(path)))
    if len(spans) == 1:
        return prepare()
    try:
        vehicles = [v for part in workers.fork_map(prepare, spans) for v in part]
        if len({row["vehicle_id"] for row, _ in vehicles}) == len(vehicles):
            return vehicles
    except Exception as exc:  # the pass below raises the error a single process meets
        log.info("%s: %s; reading it in one process", path, exc)
    return prepare()


def _context_for(feats: dict[str, float], cfg: RunConfig) -> str:
    if cfg.context == "auto":
        return infer_context(feats["mean_speed"], cfg.congestion_speed_threshold)
    return cfg.context


def cmd_features(args: argparse.Namespace) -> int:
    cfg = _cfg(args)
    prepared = [row for row, _ in _prepared_tracks(args.input, cfg)]
    rows = [row for row in prepared if row["features"]["mean_speed"] >= cfg.min_mean_speed]
    skipped = len(prepared) - len(rows)
    io.save_feature_rows(rows, args.output)
    note = f" ({skipped} stationary vehicles dropped)" if skipped else ""
    print(f"wrote {len(rows)} feature rows to {args.output}{note}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _cfg(args)
    gen_cfg = build(GeneratorConfig, cfg)
    try:
        trajectories = generate_dataset(gen_cfg)
    except MemoryError:
        frames = gen_cfg.duration_s * gen_cfg.frame_rate
        raise InputError(f"cannot allocate {frames:g} frames per track") from None
    io.save_trajectories(trajectories, args.output)
    print(f"generated {gen_cfg.n_av} AV and {gen_cfg.n_hdv} HDV trajectories "
          f"(seed {gen_cfg.seed}) to {args.output}")
    return 0


@dataclass
class _Digests(Sequence):
    """Rows as their digests, each made when read: a prompt reads only those it keeps."""

    rows: list[dict]

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> dict:
        return digest_sample(self.rows[i]["vehicle_id"], self.rows[i]["features"])


def _split_by_label(rows: list[dict]) -> tuple[_Digests, _Digests]:
    return tuple(_Digests([row for row in rows if row.get("label") == label])
                 for label in LABELS)


def cmd_discover(args: argparse.Namespace) -> int:
    if args.library_in and args.seed_rules:
        raise InputError("--library-in and --seed-rules each choose the starting library; give one")
    cfg = _cfg(args)
    backend = _backend(cfg)
    rows = io.load_feature_rows(args.features)
    av, hdv = _split_by_label(rows)
    if args.library_in:
        library = load_library(args.library_in)
    elif args.seed_rules:
        library = seed_library()
    else:
        library = RuleLibrary()
    if cfg.theta is not None:
        library.theta = cfg.theta
    rules, rejected = discover_rules(backend, av, hdv)
    existing = {r.id for r in library.rules}
    added = 0
    for rule in rules:
        if rule.id in existing:
            print(f"skipping duplicate rule id {rule.id}")
            continue
        library.add_rule(rule)
        added += 1
    save_library(library, args.output)
    print(f"discovered {len(rules)} rules: {added} added, "
          f"{len(rules) - added} duplicates, {len(rejected)} blocks rejected")
    for block in rejected:
        print(f"  rejected block: {block.reason}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _cfg(args)
    backend = _backend(cfg)
    library = load_library(args.library)
    if cfg.theta is not None:
        library.theta = cfg.theta
    table = FeatureTable(io.load_feature_rows(args.features))
    result = run_verification_loop(
        library, table, backend,
        max_iterations=cfg.max_iterations,
        stall_epsilon=cfg.stall_epsilon,
        strict_denominator=cfg.strict_denominator,
    )
    save_library(result.library, args.output)
    states = dict.fromkeys(STATES, 0)
    for rule in result.library.rules:
        states[rule.state] += 1
    print(f"{result.reason} after {result.iterations} iteration(s): "
          f"{states['verified']} verified, {states['candidate']} candidate, "
          f"{states['retired']} retired")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    cfg = _cfg(args)
    library = load_library(args.library)
    rows = io.load_feature_rows(args.features)
    scores = score_table(library, FeatureTable(rows))
    rule_weights = [(r.id, r.confidence or 0.0) for r in scores.rules]
    # vehicles with the same verdicts share one evidence list, which
    # io.dump_json then encodes once per distinct list
    evidence_for: dict[tuple[int, ...], list[dict]] = {}
    results = []
    tally = dict.fromkeys(io.DECISIONS, 0)
    for row, verdicts, matched, applicable, n_applicable in zip(
        rows, map(tuple, scores.verdicts.T.tolist()), scores.matched_weight.tolist(),
        scores.applicable_weight.tolist(), scores.n_applicable.tolist(),
    ):
        try:
            decision, score, confidence = identify_vehicle(
                matched, applicable, n_applicable, cfg.delta)
        except NoApplicableRulesError as exc:
            entry = {"vehicle_id": row["vehicle_id"], "decision": UNDETERMINED,
                     "reason": str(exc)}
        else:
            if verdicts not in evidence_for:
                evidence_for[verdicts] = [
                    {"rule_id": rule_id, "verdict": VERDICTS[code], "weight": weight}
                    for (rule_id, weight), code in zip(rule_weights, verdicts)
                ]
            entry = {
                "vehicle_id": row["vehicle_id"],
                "decision": decision,
                "score": score,
                "confidence": confidence,
                "evidence": evidence_for[verdicts],
            }
        if row.get("label") is not None:
            entry["label"] = row["label"]
        tally[entry["decision"]] += 1
        results.append(entry)
    report = {
        "delta": cfg.delta,
        "library_version": library.version,
        "theta": library.theta,
        "results": results,
    }
    io.dump_json(report, args.output)
    print(f"classified {len(results)} vehicles: {tally['AV']} AV, "
          f"{tally['HDV']} HDV, {tally[UNDETERMINED]} undetermined")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    cfg = _cfg(args)
    library = load_library(args.library)
    vehicles = _prepared_tracks(args.input, cfg, args.task)
    votes = vote_table(library, FeatureTable([row for row, _ in vehicles]), args.task)
    directions = TASK_DIRECTIONS[args.task]
    predict = predict_speed_change if args.task == "speed" else predict_lane_change
    predictions = []
    for (row, prior), column in zip(vehicles, votes.T.tolist()):
        direction, scores = predict(dict(zip(directions, column)), prior)
        predictions.append({"vehicle_id": row["vehicle_id"], "direction": direction,
                            "scores": scores})
    io.dump_json({"task": args.task, "predictions": predictions}, args.output)
    print(f"predicted {args.task} for {len(predictions)} vehicles")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _cfg(args)
    results = io.load_report(args.report)
    labeled = [r for r in results if "label" in r]
    if not labeled:
        raise InputError("report carries no ground-truth labels to evaluate against")
    predictions = [r["decision"] for r in labeled]
    labels = [r["label"] for r in labeled]
    report = compute_metrics(
        predictions, labels,
        count_undetermined_as_error=cfg.count_undetermined_as_error,
    )
    determined = [r for r in labeled
                  if r["decision"] != UNDETERMINED and r.get("score") is not None]
    auc = None
    if determined:
        try:
            auc = compute_roc_auc(
                [r["score"] for r in determined],
                [r["label"] for r in determined],
            )
        except DegenerateLabelsError:
            auc = None
    report = replace(report, roc_auc=auc)
    io.dump_json(asdict(report), args.output)
    auc_text = f"{auc:.3f}" if auc is not None else "n/a"
    print(f"accuracy {report.accuracy:.3f}, macro F1 {report.macro_f1:.3f}, "
          f"ROC-AUC {auc_text}, {report.n_undetermined} undetermined")
    return 0


#: help of each setting flag; a setting not named here has none
_SETTING_HELP = {
    "no_smoothing": "skip Kalman smoothing before differentiation",
    "lc_window": "lane-change window length in frames",
    "lc_threshold": "cumulative lateral displacement threshold (default: by the track's unit system)",
    "min_mean_speed": "drop vehicles slower than this (0 keeps all)",
    "theta": "confidence threshold of the written library (default: the input library's, 0.7 if new)",
    "strict_denominator": "divide confidence by all samples, not just applicable ones",
    "delta": "AV decision threshold on the matching score",
    "mock_dir": "fixture directory for the offline mock backend",
    "endpoint": "chat-completions endpoint URL",
    "model": "model name sent to the endpoint",
    "separation": "profile separation multiplier (1 = published targets)",
}
_EXTRACTION = ("no_smoothing", "process_noise", "measurement_noise", "lc_window",
               "lc_threshold", "context", "congestion_speed_threshold")
_BACKEND = ("mock_dir", "endpoint", "model", "temperature", "max_output_tokens",
            "timeout_s", "max_retries")


def _add_settings(parser: argparse.ArgumentParser, *names: str) -> None:
    """A --flag per named RunConfig field, typed as its config key; unset, it is None."""
    for name in names:
        flag, help_ = "--" + name.replace("_", "-"), _SETTING_HELP.get(name)
        if setting_type(name) is bool:
            parser.add_argument(flag, action="store_true", default=None, help=help_)
        else:
            parser.add_argument(flag, type=setting_type(name), help=help_,
                                choices=CONTEXT_CHOICES if name == "context" else None)
    parser.add_argument("--config", help="JSON config file; flags override its values")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajrules",
        description="Interpretable driving-style rules: extract, discover, verify, classify.",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress details")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", help="extract feature rows from trajectories")
    p.add_argument("--input", required=True, help="trajectory JSONL file")
    p.add_argument("--output", required=True, help="feature JSONL file to write")
    _add_settings(p, "min_mean_speed", *_EXTRACTION)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("synth", help="generate a synthetic two-population dataset")
    p.add_argument("--output", required=True, help="trajectory JSONL file to write")
    _add_settings(p, "seed", "separation", "n_av", "n_hdv", "duration_s", "frame_rate")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("discover", help="propose rules from labeled feature rows")
    p.add_argument("--features", required=True, help="labeled feature JSONL file")
    p.add_argument("--output", required=True, help="rule library JSON to write")
    p.add_argument("--library-in", help="extend this library instead of starting fresh")
    p.add_argument("--seed-rules", action="store_true", default=False,
                   help="start from the built-in starter library")
    _add_settings(p, "theta", *_BACKEND)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("verify", help="measure, reflect on, and refine a library")
    p.add_argument("--features", required=True, help="labeled feature JSONL file")
    p.add_argument("--library", required=True, help="rule library JSON to verify")
    p.add_argument("--output", required=True, help="verified library JSON to write")
    _add_settings(p, "theta", "max_iterations", "stall_epsilon", "strict_denominator", *_BACKEND)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="identify vehicles with a verified library")
    p.add_argument("--features", required=True, help="feature JSONL file")
    p.add_argument("--library", required=True, help="verified rule library JSON")
    p.add_argument("--output", required=True, help="decision report JSON to write")
    _add_settings(p, "delta")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("predict", help="predict the next speed or lane maneuver")
    p.add_argument("--input", required=True, help="trajectory JSONL file")
    p.add_argument("--library", required=True, help="verified rule library JSON")
    p.add_argument("--output", required=True, help="prediction JSON to write")
    p.add_argument("--task", required=True, choices=tuple(TASK_DIRECTIONS))
    _add_settings(p, *_EXTRACTION)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a decision report against its labels")
    p.add_argument("--report", required=True, help="decision report JSON from classify")
    p.add_argument("--output", required=True, help="metrics JSON to write")
    _add_settings(p, "count_undetermined_as_error")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrajRulesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
