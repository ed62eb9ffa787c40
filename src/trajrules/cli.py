"""Command-line pipeline: synthesize, extract, discover, verify, classify, evaluate.

Every subcommand reads and writes plain files, so a full run is a sequence
of shell steps. Exit codes: 0 success, 2 bad input or configuration,
1 any other pipeline failure.
"""
from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import asdict, replace
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
from .config import RunConfig, load_config, merge_overrides
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
from .rules import VERDICTS, FeatureTable, RuleLibrary, seed_library
from .synth import GeneratorConfig, generate_dataset
from .trajectory import Trajectory, smooth_trajectories, validate_trajectory
from .trajectory import smooth_trajectory  # not called here; perfbench/spans.py patches it
from .verification import discover_rules, run_verification_loop

log = logging.getLogger(__name__)
_THETA_HELP = "confidence threshold of the written library (default: the input library's, 0.7 if new)"


def _cfg(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    return merge_overrides(cfg, vars(args))


def _backend(cfg: RunConfig):
    try:  # checked with --mock-dir too, so a bad setting fails the same way everywhere
        settings = BackendConfig(
            endpoint=cfg.endpoint,
            model=cfg.model,
            temperature=cfg.temperature,
            max_output_tokens=cfg.max_output_tokens,
            timeout_s=cfg.timeout_s,
            max_retries=cfg.max_retries,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return MockBackend(fixture_dir=cfg.mock_dir) if cfg.mock_dir else HttpBackend(settings)


def _extract(t: Trajectory, cfg: RunConfig):
    """kinematics -> events -> feature mapping, for one prepared track."""
    kin = compute_kinematics(t)
    events = detect_lane_changes(t, window=cfg.lc_window, threshold=cfg.lc_threshold)
    feats = summarize_features(t, kin, events)
    feats.update(extended_atoms(t, kin, events))
    for atom, value in feats.items():
        if not math.isfinite(value):  # a frame rate so high that the differences overflow
            raise InputError(f"vehicle {t.vehicle_id!r}: feature {atom!r} is {value}, "
                             "not a finite number")
    return kin, feats


def _prepare(path: str, cfg: RunConfig, task: str | None,
             span: tuple[int, int] | None = None) -> list[tuple]:
    """(vehicle_id, unit_system, label, features, prior) of each track in span of
    path, or in the whole file: load -> validate every track -> smooth them all
    in one batch -> extract. prior is predict's prior for task, None without one."""
    trajectories = io.load_trajectories(path, span)
    for i, traj in enumerate(trajectories):
        trajectories[i] = validate_trajectory(traj)
    if not cfg.no_smoothing:
        trajectories = smooth_trajectories(trajectories, cfg.process_noise, cfg.measurement_noise)
    vehicles = []
    for t in trajectories:
        kin, feats = _extract(t, cfg)
        prior = None if task is None else speed_prior(kin) if task == "speed" else lane_prior(t)
        vehicles.append((t.vehicle_id, t.unit_system, t.label, feats, prior))
    return vehicles


def _prepared_tracks(path: str, cfg: RunConfig, task: str | None = None) -> list[tuple]:
    """_prepare over the whole file, its slices spread over the CPUs.

    The slices' results are used only if every slice succeeded and no vehicle
    id repeats across them. Otherwise one pass over the whole file raises the
    first error, as one process reading every line before validating would.
    """
    prepare = partial(_prepare, path, cfg, task)
    try:
        spans = io.jsonl_spans(path, workers.chunk_count(os.path.getsize(path)))
        vehicles = [v for part in workers.fork_map(prepare, spans) for v in part]
        if len({v[0] for v in vehicles}) == len(vehicles):
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
    rows = []
    skipped = 0
    for vehicle_id, unit_system, label, feats, _ in _prepared_tracks(args.input, cfg):
        if cfg.min_mean_speed > 0 and feats["mean_speed"] < cfg.min_mean_speed:
            skipped += 1
            continue
        row = {
            "vehicle_id": vehicle_id,
            "unit_system": unit_system,
            "context": _context_for(feats, cfg),
            "features": feats,
        }
        if label is not None:
            row["label"] = label
        rows.append(row)
    io.save_feature_rows(rows, args.output)
    note = f" ({skipped} stationary vehicles dropped)" if skipped else ""
    print(f"wrote {len(rows)} feature rows to {args.output}{note}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _cfg(args)
    try:
        gen_cfg = GeneratorConfig(
            n_av=cfg.n_av,
            n_hdv=cfg.n_hdv,
            duration_s=cfg.duration_s,
            frame_rate=cfg.frame_rate,
            seed=cfg.seed,
            separation=cfg.separation,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    trajectories, manifest = generate_dataset(gen_cfg)
    io.save_trajectories(trajectories, args.output)
    if args.manifest:
        io.dump_json(manifest, args.manifest)
    print(f"generated {gen_cfg.n_av} AV and {gen_cfg.n_hdv} HDV trajectories "
          f"(seed {gen_cfg.seed}) to {args.output}")
    return 0


def _split_by_label(rows: list[dict]) -> tuple[list[dict], list[dict]]:
    av, hdv = [], []
    for row in rows:
        digest = digest_sample(row["vehicle_id"], row["features"])
        if row.get("label") == "AV":
            av.append(digest)
        elif row.get("label") == "HDV":
            hdv.append(digest)
    return av, hdv


def cmd_discover(args: argparse.Namespace) -> int:
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
    table = FeatureTable.from_rows(io.load_feature_rows(args.features))
    result = run_verification_loop(
        library, table, backend,
        max_iterations=cfg.max_iterations,
        stall_epsilon=cfg.stall_epsilon,
        strict_denominator=cfg.strict_denominator,
    )
    save_library(result.library, args.output)
    states = {"verified": 0, "candidate": 0, "retired": 0}
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
    scores = score_table(library, FeatureTable.from_rows(rows))
    rule_weights = [(r.id, r.confidence or 0.0) for r in scores.rules]
    # vehicles with the same verdicts share one evidence list, which
    # io.dump_json then encodes once per distinct list
    evidence_for: dict[tuple[int, ...], list[dict]] = {}
    results = []
    tally = {"AV": 0, "HDV": 0, UNDETERMINED: 0}
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
    ids, units, contexts, rows, priors = [], [], [], [], []
    for vehicle_id, unit_system, _, feats, prior in _prepared_tracks(args.input, cfg, args.task):
        ids.append(vehicle_id)
        units.append(unit_system)
        contexts.append(_context_for(feats, cfg))
        rows.append(feats)
        priors.append(prior)
    votes = vote_table(library, FeatureTable(rows, contexts, units=units, ids=ids), args.task)
    directions = TASK_DIRECTIONS[args.task]
    predict = predict_speed_change if args.task == "speed" else predict_lane_change
    predictions = []
    for vehicle_id, prior, column in zip(ids, priors, votes.T.tolist()):
        pred = predict(dict(zip(directions, column)), prior, vehicle_id)
        predictions.append({
            "vehicle_id": vehicle_id,
            "direction": pred.direction,
            "scores": dict(pred.scores),
        })
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


def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mock-dir", help="fixture directory for the offline mock backend")
    parser.add_argument("--endpoint", help="chat-completions endpoint URL")
    parser.add_argument("--model", help="model name sent to the endpoint")
    parser.add_argument("--temperature", type=float)
    parser.add_argument("--max-output-tokens", type=int)
    parser.add_argument("--timeout-s", type=float)
    parser.add_argument("--max-retries", type=int)


def _add_extraction_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-smoothing", action="store_true", default=None,
                        help="skip Kalman smoothing before differentiation")
    parser.add_argument("--process-noise", type=float)
    parser.add_argument("--measurement-noise", type=float)
    parser.add_argument("--lc-window", type=int,
                        help="lane-change window length in frames")
    parser.add_argument("--lc-threshold", type=float,
                        help="cumulative lateral displacement threshold")
    parser.add_argument("--context", choices=("auto", "any", "free_flow", "congested"))
    parser.add_argument("--congestion-speed-threshold", type=float)


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
    p.add_argument("--min-mean-speed", type=float,
                   help="drop vehicles slower than this (0 keeps all)")
    _add_extraction_flags(p)
    _add_config(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("synth", help="generate a synthetic two-population dataset")
    p.add_argument("--output", required=True, help="trajectory JSONL file to write")
    p.add_argument("--manifest", help="also write realized statistics as JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--separation", type=float,
                   help="profile separation multiplier (1 = published targets)")
    p.add_argument("--n-av", type=int)
    p.add_argument("--n-hdv", type=int)
    p.add_argument("--duration-s", type=float)
    p.add_argument("--frame-rate", type=float)
    _add_config(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("discover", help="propose rules from labeled feature rows")
    p.add_argument("--features", required=True, help="labeled feature JSONL file")
    p.add_argument("--output", required=True, help="rule library JSON to write")
    p.add_argument("--library-in", help="extend this library instead of starting fresh")
    p.add_argument("--seed-rules", action="store_true", default=False,
                   help="start from the built-in starter library")
    p.add_argument("--theta", type=float, help=_THETA_HELP)
    _add_backend_flags(p)
    _add_config(p)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("verify", help="measure, reflect on, and refine a library")
    p.add_argument("--features", required=True, help="labeled feature JSONL file")
    p.add_argument("--library", required=True, help="rule library JSON to verify")
    p.add_argument("--output", required=True, help="verified library JSON to write")
    p.add_argument("--theta", type=float, help=_THETA_HELP)
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--stall-epsilon", type=float)
    p.add_argument("--strict-denominator", action="store_true", default=None,
                   help="divide confidence by all samples, not just applicable ones")
    _add_backend_flags(p)
    _add_config(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="identify vehicles with a verified library")
    p.add_argument("--features", required=True, help="feature JSONL file")
    p.add_argument("--library", required=True, help="verified rule library JSON")
    p.add_argument("--output", required=True, help="decision report JSON to write")
    p.add_argument("--delta", type=float, help="AV decision threshold on the matching score")
    _add_config(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("predict", help="predict the next speed or lane maneuver")
    p.add_argument("--input", required=True, help="trajectory JSONL file")
    p.add_argument("--library", required=True, help="verified rule library JSON")
    p.add_argument("--output", required=True, help="prediction JSON to write")
    p.add_argument("--task", required=True, choices=("speed", "lane_change"))
    _add_extraction_flags(p)
    _add_config(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a decision report against its labels")
    p.add_argument("--report", required=True, help="decision report JSON from classify")
    p.add_argument("--output", required=True, help="metrics JSON to write")
    p.add_argument("--count-undetermined-as-error", action="store_true", default=None)
    _add_config(p)
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
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrajRulesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
